//! Simulated network.
//!
//! The paper's prototype ran against real servers; the reproduction uses a
//! deterministic in-process network so the Downloads provider and the
//! delegate network cut-off can be exercised on a laptop. Hosts map URLs
//! to byte payloads; a configurable per-kilobyte latency knob lets benches
//! model transfer time without real sockets.
//!
//! The device is shared by every process, so all state is interior. The
//! host table is hashed into [`NET_SHARDS`] independently locked shards
//! (same shape as the kernel's process table, DESIGN.md §4.14): the
//! delegate `ENETUNREACH` check path and concurrent fetches to different
//! hosts never touch the same lock. `fetch` clones the resource out and
//! releases its shard lock *before* doing any transfer work, so the lock
//! is never held across simulated I/O. The traffic counter is atomic.

use crate::error::{KernelError, KernelResult};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of host-hashed shards in the network's host table.
pub const NET_SHARDS: usize = 16;

fn host_shard(host: &str) -> usize {
    // djb2 — same cheap string hash the VFS store uses for path shards.
    let mut h: u64 = 5381;
    for b in host.as_bytes() {
        h = h.wrapping_mul(33) ^ u64::from(*b);
    }
    (h as usize) % NET_SHARDS
}

/// One shard of the network: host -> resource path -> bytes.
type Hosts = BTreeMap<String, BTreeMap<String, Vec<u8>>>;

/// An in-process network of named hosts serving static resources.
#[derive(Debug)]
pub struct Network {
    shards: Vec<RwLock<Hosts>>,
    /// Count of successful fetches (for tests asserting traffic).
    fetch_count: AtomicU64,
}

impl Default for Network {
    fn default() -> Self {
        Network {
            shards: (0..NET_SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            fetch_count: AtomicU64::new(0),
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Publishes a resource at `host` / `path`.
    pub fn publish(&self, host: &str, path: &str, data: Vec<u8>) {
        self.shards[host_shard(host)]
            .write()
            .entry(host.to_string())
            .or_default()
            .insert(path.to_string(), data);
    }

    /// Returns true if the host exists.
    pub fn has_host(&self, host: &str) -> bool {
        self.shards[host_shard(host)].read().contains_key(host)
    }

    /// Number of successful fetches so far.
    pub fn fetch_count(&self) -> u64 {
        self.fetch_count.load(Ordering::Relaxed)
    }

    /// Fetches a resource. The caller must have passed the kernel's
    /// `connect()` check first.
    pub fn fetch(&self, host: &str, path: &str) -> KernelResult<Vec<u8>> {
        // Clone the payload and drop the shard guard before "transfer":
        // the lock bounds only the table lookup, never the I/O.
        let data = {
            let shard = self.shards[host_shard(host)].read();
            let h = shard.get(host).ok_or(KernelError::NoSuchHost)?;
            h.get(path).ok_or(KernelError::NoSuchResource)?.clone()
        };
        self.fetch_count.fetch_add(1, Ordering::Relaxed);
        Ok(data)
    }

    /// Parses a `host/path` URL into its components.
    pub fn split_url(url: &str) -> KernelResult<(&str, &str)> {
        let trimmed = url.strip_prefix("http://").unwrap_or(url);
        let trimmed = trimmed.strip_prefix("https://").unwrap_or(trimmed);
        match trimmed.split_once('/') {
            Some((host, path)) if !host.is_empty() => Ok((host, path)),
            _ => Err(KernelError::NoSuchHost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_fetch() {
        let net = Network::new();
        net.publish("files.example.com", "a.txt", b"hello".to_vec());
        assert_eq!(net.fetch("files.example.com", "a.txt").unwrap(), b"hello");
        assert_eq!(net.fetch_count(), 1);
        assert_eq!(
            net.fetch("files.example.com", "missing").err(),
            Some(KernelError::NoSuchResource)
        );
        assert_eq!(net.fetch("nope", "a").err(), Some(KernelError::NoSuchHost));
    }

    #[test]
    fn url_splitting() {
        assert_eq!(
            Network::split_url("http://h.example/a/b.pdf").unwrap(),
            ("h.example", "a/b.pdf")
        );
        assert_eq!(Network::split_url("h/x").unwrap(), ("h", "x"));
        assert!(Network::split_url("nohost").is_err());
        assert!(Network::split_url("/abs").is_err());
    }

    #[test]
    fn concurrent_fetches_share_read_locks() {
        let net = Network::new();
        net.publish("cdn.example", "blob", vec![1u8; 64]);
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for _ in 0..100 {
                        net.fetch("cdn.example", "blob").unwrap();
                    }
                });
            }
        })
        .expect("threads join");
        assert_eq!(net.fetch_count(), 400);
    }

    #[test]
    fn hosts_land_in_stable_shards_and_all_remain_reachable() {
        let net = Network::new();
        for i in 0..64 {
            let host = format!("host{i}.example");
            net.publish(&host, "r", vec![i as u8]);
        }
        for i in 0..64 {
            let host = format!("host{i}.example");
            assert!(net.has_host(&host));
            assert_eq!(net.fetch(&host, "r").unwrap(), vec![i as u8]);
        }
        // The hash must spread hosts over more than one shard.
        let shards: std::collections::BTreeSet<usize> =
            (0..64).map(|i| host_shard(&format!("host{i}.example"))).collect();
        assert!(shards.len() > 1, "64 hosts all hashed to one shard");
    }
}
