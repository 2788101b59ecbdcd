//! Device-backed row heap: paged table storage on the block tier.
//!
//! Large tables spill their row payloads out of process memory onto a
//! [`SpillTier`], the tier the VFS spills file data to. Rows are encoded
//! with a tiny tagged codec and appended to page-sized extents; a row
//! bigger than one page gets an extent of its own. Each row's location
//! holds its page's extent by `Arc`, so a page is freed (cache frame
//! discarded, sector returned) with the last row in it that any copy of
//! the table still holds.
//!
//! Paged rows clone like resident ones: the rowid → location map sits
//! behind an `Arc`, so a bound reader and a BEGIN image share it until
//! the live table changes, and a change copies the map
//! (`Arc::make_mut`), never a row. An extent's written bytes never change
//! while anyone holds it (appends write past them), so every copy reads
//! exactly the rows it saw.
//!
//! Decoding happens under the tier's mutex while the page frame is
//! pinned, so bytes are never copied out of the cache before they are
//! parsed — the `RowScope` zero-copy discipline extended down one tier.
//!
//! Secondary indexes and the rowid map stay resident: they are derived
//! metadata, small next to the payloads, and every access path depends
//! on their latency.

use crate::value::Value;
use maxoid_block::{Extent, SpillTier};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

/// Paging configuration a database hands to its tables: where to spill
/// and how big (approximate encoded bytes) a table may grow resident.
#[derive(Clone, Debug)]
pub(crate) struct HeapCfg {
    /// The shared device-backed tier.
    pub(crate) tier: SpillTier,
    /// Tables above this many encoded bytes migrate to the tier.
    pub(crate) threshold: usize,
}

// --- row codec ------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BLOB: u8 = 4;

/// Encoded size of a row without building the encoding (the resident
/// tables use this to decide when to spill).
pub(crate) fn encoded_len(row: &[Value]) -> usize {
    2 + row
        .iter()
        .map(|v| {
            1 + match v {
                Value::Null => 0,
                Value::Integer(_) | Value::Real(_) => 8,
                Value::Text(s) => 4 + s.len(),
                Value::Blob(b) => 4 + b.len(),
            }
        })
        .sum::<usize>()
}

/// Encodes a row: `u16` column count, then one tag byte per value
/// followed by its payload (fixed 8 bytes for Integer/Real, `u32`
/// length + bytes for Text/Blob).
pub(crate) fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(row));
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Integer(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Real(r) => {
                out.push(TAG_REAL);
                out.extend_from_slice(&r.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Blob(b) => {
                out.push(TAG_BLOB);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }
    out
}

/// Decodes a row produced by [`encode_row`]. The heap only ever decodes
/// bytes it wrote during this process lifetime, so corruption here is a
/// logic error, not an I/O condition — it panics.
pub(crate) fn decode_row(bytes: &[u8]) -> Vec<Value> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> &[u8] {
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        s
    };
    let count = u16::from_le_bytes(take(&mut pos, 2).try_into().unwrap()) as usize;
    let mut row = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = take(&mut pos, 1)[0];
        row.push(match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Integer(i64::from_le_bytes(take(&mut pos, 8).try_into().unwrap())),
            TAG_REAL => Value::Real(f64::from_bits(u64::from_le_bytes(
                take(&mut pos, 8).try_into().unwrap(),
            ))),
            TAG_TEXT => {
                let len = u32::from_le_bytes(take(&mut pos, 4).try_into().unwrap()) as usize;
                Value::Text(String::from_utf8(take(&mut pos, len).to_vec()).expect("heap row utf8"))
            }
            TAG_BLOB => {
                let len = u32::from_le_bytes(take(&mut pos, 4).try_into().unwrap()) as usize;
                Value::Blob(take(&mut pos, len).to_vec())
            }
            other => panic!("heap row codec: unknown tag {other}"),
        });
    }
    row
}

// --- paged row storage ----------------------------------------------------

/// Where one row's encoding lives: a byte range of its page's extent,
/// which the location keeps alive.
#[derive(Clone, Debug)]
struct RowLoc {
    page: Arc<Extent>,
    off: u32,
    len: u32,
}

impl RowLoc {
    fn read(&self) -> Vec<Value> {
        self.page.decode(self.off as u64, self.len as usize, decode_row).expect("sqldb heap read")
    }
}

/// Rows of one table, spilled to the heap tier. The rowid → location map
/// stays resident (it is the pk index); only payload bytes live on the
/// device.
#[derive(Clone, Debug)]
pub(crate) struct PagedRows {
    tier: SpillTier,
    locs: Arc<BTreeMap<i64, RowLoc>>,
    /// The page new rows append to while it has room. Held weakly, so
    /// it is freed with its last row like any other page.
    cur: Weak<Extent>,
}

impl PagedRows {
    pub(crate) fn new(tier: SpillTier) -> Self {
        PagedRows { tier, locs: Arc::new(BTreeMap::new()), cur: Weak::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.locs.len()
    }

    pub(crate) fn contains_key(&self, id: i64) -> bool {
        self.locs.contains_key(&id)
    }

    pub(crate) fn max_key(&self) -> Option<i64> {
        self.locs.keys().next_back().copied()
    }

    pub(crate) fn get(&self, id: i64) -> Option<Vec<Value>> {
        self.locs.get(&id).map(RowLoc::read)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (i64, Vec<Value>)> + '_ {
        self.locs.iter().map(|(&id, loc)| (id, loc.read()))
    }

    /// Inserts (or replaces) a row. The displaced encoding, if any, is
    /// dropped without being decoded.
    pub(crate) fn insert(&mut self, id: i64, values: &[Value]) {
        let loc = self.append(&encode_row(values));
        Arc::make_mut(&mut self.locs).insert(id, loc);
    }

    /// Removes a row, returning its decoded values (callers need the old
    /// row to unwind index entries).
    pub(crate) fn remove(&mut self, id: i64) -> Option<Vec<Value>> {
        Arc::make_mut(&mut self.locs).remove(&id).map(|loc| loc.read())
    }

    /// Drops every row; a page goes back to the tier once no copy of the
    /// table holds a row in it.
    pub(crate) fn clear(&mut self) {
        // Swap rather than clear in place: a BEGIN image may still share
        // the old map.
        self.locs = Arc::new(BTreeMap::new());
    }

    fn append(&mut self, enc: &[u8]) -> RowLoc {
        let len = enc.len() as u32;
        if let Some(page) = self.cur.upgrade() {
            if let Some(off) = page.append(enc).expect("sqldb heap write") {
                return RowLoc { page, off: off as u32, len };
            }
        }
        let page = self.tier.store(enc).expect("sqldb heap write");
        if page.sectors() == 1 {
            // A one-page extent takes the rows after this one; a bigger
            // row's extent stays its own.
            self.cur = Arc::downgrade(&page);
        }
        RowLoc { page, off: 0, len }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// True when both hold the same row map.
    pub(crate) fn same_rows(a: &PagedRows, b: &PagedRows) -> bool {
        Arc::ptr_eq(&a.locs, &b.locs)
    }

    /// The address of the row map, to tell whether a write copied it.
    pub(crate) fn row_map(p: &PagedRows) -> *const () {
        Arc::as_ptr(&p.locs).cast()
    }
    use maxoid_block::MemDevice;

    fn tier(pages: usize) -> SpillTier {
        SpillTier::new(Box::new(MemDevice::with_sector_size(64)), pages)
    }

    fn row(id: i64, data: &str) -> Vec<Value> {
        vec![Value::Integer(id), Value::Text(data.into()), Value::Null, Value::Real(0.5)]
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let r = vec![
            Value::Null,
            Value::Integer(-7),
            Value::Real(2.25),
            Value::Text("héllo".into()),
            Value::Blob(vec![0, 255, 128]),
        ];
        let enc = encode_row(&r);
        assert_eq!(enc.len(), encoded_len(&r));
        assert_eq!(decode_row(&enc), r);
        assert_eq!(decode_row(&encode_row(&[])), Vec::<Value>::new());
    }

    #[test]
    fn rows_survive_eviction_pressure() {
        let t = tier(2); // 2 × 64-byte pages resident, rest on "disk"
        let mut p = PagedRows::new(t.clone());
        for id in 0..40 {
            p.insert(id, &row(id, &format!("value-{id}")));
        }
        assert!(t.stats().evictions > 0, "pressure must actually evict");
        for id in 0..40 {
            assert_eq!(p.get(id).unwrap(), row(id, &format!("value-{id}")));
        }
        assert_eq!(p.iter().count(), 40);
    }

    #[test]
    fn deletes_reclaim_pages_and_space_is_reused() {
        let t = tier(4);
        let mut p = PagedRows::new(t.clone());
        for id in 0..20 {
            p.insert(id, &row(id, "xxxxxxxxxx"));
        }
        let high = t.next_sector();
        for id in 0..20 {
            p.remove(id);
        }
        assert_eq!(
            t.free_runs(),
            vec![(0, high)],
            "all sectors must coalesce back into one free run"
        );
        // Reinsertion reuses the freed extent instead of growing.
        for id in 0..20 {
            p.insert(id, &row(id, "yyyyyyyyyy"));
        }
        assert_eq!(t.next_sector(), high);
    }

    #[test]
    fn jumbo_rows_take_contiguous_extents() {
        let t = tier(3);
        let mut p = PagedRows::new(t.clone());
        let big = vec![Value::Blob(vec![0xabu8; 300])]; // ~5 pages of 64B
        p.insert(1, &big);
        p.insert(2, &row(2, "small"));
        assert_eq!(p.get(1).unwrap(), big);
        assert_eq!(p.get(2).unwrap(), row(2, "small"));
        let before = t.next_sector();
        p.remove(1);
        p.insert(3, &big);
        assert_eq!(t.next_sector(), before, "extent must be reused");
        assert_eq!(p.get(3).unwrap(), big);
    }

    #[test]
    fn replace_frees_the_old_encoding() {
        let t = tier(4);
        let mut p = PagedRows::new(t.clone());
        p.insert(1, &row(1, "first"));
        p.insert(1, &row(1, "second"));
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(1).unwrap(), row(1, "second"));
        // Dropping the storage returns every sector.
        let high = t.next_sector();
        drop(p);
        assert_eq!(t.free_runs(), vec![(0, high)]);
    }
}
