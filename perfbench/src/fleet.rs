//! `fleet_sessions`: 1000 initiator/delegate tenant pairs on one in-memory
//! system, Zipf-chosen sessions of union-mount reads, a volatile public
//! write, sparse provider traffic and an occasional commit gesture (the
//! `--bin fleet` mix, without think time).

use crate::harness::{fill, matches, timed, Layers, Outcome, Rng, Workload, Zipf, T};
use crate::replay::ProvOp;
use crate::{Bench, Cfg, STREAM_LEN};
use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, MaxoidSystem, Pid, QueryArgs, Uri, VolCommitPlan};
use maxoid_sqldb::Value;
use maxoid_vfs::{vpath, Mode, VPath};
use std::collections::HashMap;

const TENANTS: usize = 1000;
const DICT_ROWS: i64 = 100;
const SEEDED_FILES: usize = 4;
const FILE_BYTES: usize = 1024;
/// Volatile output names per tenant: bounds each tenant's `Vol` state.
const OUT_NAMES: usize = 8;

pub struct Tenant {
    init: String,
    pid: Pid,
    caller: Caller,
    files: Vec<VPath>,
    outs: Vec<VPath>,
}

pub struct Fleet {
    sys: MaxoidSystem,
    tenants: Vec<Tenant>,
    words: Uri,
}

/// The content tag of seeded file `i` of tenant `t`.
fn file_tag(t: usize, i: usize) -> u64 {
    (t * SEEDED_FILES + i) as u64 + 1
}

fn base_word(id: i64) -> String {
    format!("w{}", id - 1)
}

impl Bench for Fleet {
    fn setup(_cfg: &Cfg, _rep: usize) -> Result<Fleet, String> {
        let e = |what: &str, err: maxoid::SystemError| format!("fleet setup: {what}: {err}");
        let sys = MaxoidSystem::boot().map_err(|x| e("boot", x))?;
        let words = Uri::parse("content://user_dictionary/words").expect("static uri");
        sys.install("fleet.seeder", vec![], MaxoidManifest::new()).map_err(|x| e("install", x))?;
        let seeder = sys.launch("fleet.seeder").map_err(|x| e("launch", x))?;
        for id in 1..=DICT_ROWS {
            let vals = ContentValues::new().put("word", base_word(id)).put("frequency", id);
            sys.cp_insert(seeder, &words, &vals).map_err(|x| e("seed dictionary", x))?;
        }
        let mut buf = vec![0u8; FILE_BYTES];
        let mut tenants = Vec::with_capacity(TENANTS);
        for t in 0..TENANTS {
            let app = format!("fleet.app{t}");
            let init = format!("fleet.init{t}");
            sys.install(&app, vec![], MaxoidManifest::new()).map_err(|x| e("install", x))?;
            sys.install(&init, vec![], MaxoidManifest::new()).map_err(|x| e("install", x))?;
            let owner = sys.launch(&app).map_err(|x| e("launch", x))?;
            let dir = vpath(&format!("/data/data/{app}/files"));
            sys.kernel.mkdir_all(owner, &dir, Mode::PRIVATE).map_err(|x| e("mkdir", x.into()))?;
            let mut files = Vec::with_capacity(SEEDED_FILES);
            for i in 0..SEEDED_FILES {
                let p = dir.join(&format!("orig{i}.dat")).expect("static name");
                fill(&mut buf, file_tag(t, i));
                sys.kernel
                    .write(owner, &p, &buf, Mode::PRIVATE)
                    .map_err(|x| e("seed file", x.into()))?;
                files.push(p);
            }
            let outs = (0..OUT_NAMES)
                .map(|j| vpath(&format!("/storage/sdcard/{init}_s{j}.dat")))
                .collect();
            let pid = sys.launch_as_delegate(&app, &init).map_err(|x| e("delegate", x))?;
            let caller = sys.caller(pid).map_err(|x| e("caller", x))?;
            tenants.push(Tenant { init, pid, caller, files, outs });
        }
        Ok(Fleet { sys, tenants, words })
    }

    /// Client `c` of `clients` owns every tenant `t` with `t % clients ==
    /// c` and picks among them by Zipf(1.0) rank, so no two clients share
    /// a tenant and each client's expected-state model is exact.
    fn streams(&self, cfg: &Cfg) -> Vec<Vec<u32>> {
        (0..cfg.clients)
            .map(|c| {
                let owned: Vec<u32> = (c..TENANTS).step_by(cfg.clients).map(|t| t as u32).collect();
                let zipf = Zipf::new(owned.len(), 1.0);
                let mut rng = Rng::new(cfg.seed ^ ((c as u64 + 1) << 32));
                (0..STREAM_LEN).map(|_| owned[zipf.sample(&mut rng)]).collect()
            })
            .collect()
    }

    fn client(&self) -> FleetClient {
        FleetClient { words: HashMap::new(), body: vec![0u8; FILE_BYTES], scratch: Vec::new() }
    }

    fn sys(&self) -> &MaxoidSystem {
        &self.sys
    }

    fn initiators(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.init.clone()).collect()
    }

    fn resolve_stats(&self, _clients: &[FleetClient]) -> (u64, u64) {
        self.tenants
            .iter()
            .filter_map(|t| self.sys.kernel.resolve_cache_stats(t.pid).ok())
            .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm))
    }

    fn prov_ops(&self, &t: &u32, k: u64, out: &mut Vec<ProvOp>) {
        if k % 16 == 7 {
            let (init, id) = (t as usize, (k % DICT_ROWS as u64) as i64 + 1);
            out.push(if k % 64 == 39 {
                ProvOp::Update { init, id, col: "word", value: Value::Text(format!("s{k}")) }
            } else {
                ProvOp::Query { init, id }
            });
        }
    }

    fn seed_rows(&self) -> Vec<(String, i64)> {
        (1..=DICT_ROWS).map(|id| (base_word(id), id)).collect()
    }
}

/// A client's model of the rows its tenants' delegates see, plus buffers.
pub struct FleetClient {
    /// `(tenant, id) -> word` for rows the tenant's delegate updated.
    words: HashMap<(u32, i64), String>,
    body: Vec<u8>,
    scratch: Vec<u8>,
}

fn word_of(rs: &maxoid_sqldb::ResultSet) -> Option<&str> {
    let col = rs.column_index("word")?;
    match rs.rows.as_slice() {
        [row] => match &row[col] {
            Value::Text(w) => Some(w.as_str()),
            _ => None,
        },
        _ => None,
    }
}

impl Workload for Fleet {
    type Req = u32;
    type Client = FleetClient;

    fn run(
        &self,
        cl: &mut FleetClient,
        &t: &u32,
        k: u64,
        mut trace: Option<&mut Layers>,
    ) -> Outcome {
        let sys = &self.sys;
        let ten = &self.tenants[t as usize];
        let mut o = Outcome::default();
        // Traced requests call the VFS directly with the process's own
        // credentials and namespace, looked up before any timer starts.
        let proc = match trace {
            Some(_) => match sys.kernel.process(ten.pid) {
                Ok(p) => Some(p),
                Err(_) => {
                    o.call(Default::default(), false);
                    return o;
                }
            },
            None => None,
        };

        // Two private reads through the delegate's union mounts.
        for i in 0..2 {
            let f = (k as usize + i) % SEEDED_FILES;
            let tag = file_tag(t as usize, f);
            let (r, d) = timed(|| sys.kernel.read(ten.pid, &ten.files[f]));
            o.call(d, r.is_ok_and(|b| matches(&b, tag, FILE_BYTES, &mut cl.scratch)));
            if let (Some(l), Some(p)) = (trace.as_deref_mut(), &proc) {
                let (r, dv) = timed(|| sys.kernel.vfs().read(p.cred(), &p.ns, &ten.files[f]));
                o.call(dv, r.is_ok_and(|b| matches(&b, tag, FILE_BYTES, &mut cl.scratch)));
                l.add(T::KernelSyscall, d);
                l.add(T::VfsRead, dv);
                l.add_ns(T::KernelSelf, d.as_nanos() as i64 - dv.as_nanos() as i64);
            }
        }

        // A 1 KiB public write, redirected into Vol(init). Traced requests
        // alternate its entry point between the kernel and the VFS.
        cl.body.fill((k % 251) as u8);
        let out = &ten.outs[k as usize % OUT_NAMES];
        match (trace.as_deref_mut(), &proc) {
            (Some(l), Some(p)) if (k / 2) % 2 == 1 => {
                let (r, d) =
                    timed(|| sys.kernel.vfs().write(p.cred(), &p.ns, out, &cl.body, Mode::PUBLIC));
                o.call(d, r.is_ok());
                l.add(T::VfsWrite, d);
            }
            (l, _) => {
                let (r, d) = timed(|| sys.kernel.write(ten.pid, out, &cl.body, Mode::PUBLIC));
                o.call(d, r.is_ok());
                if let Some(l) = l {
                    l.add(T::KernelSyscall, d);
                }
            }
        }

        // Every 16th session a point query; every 64th an update instead.
        if k % 16 == 7 {
            let id = (k % DICT_ROWS as u64) as i64 + 1;
            let uri = self.words.with_id(id);
            let args = QueryArgs::default();
            if k % 64 == 39 {
                let word = format!("s{k}");
                let vals = ContentValues::new().put("word", word.as_str());
                let (r, d) = match trace.as_deref_mut() {
                    Some(l) => {
                        let (r, d) = timed(|| sys.resolver.update(&ten.caller, &uri, &vals, &args));
                        l.add(T::ProvUpdate, d);
                        (r.map_err(|_| ()), d)
                    }
                    None => {
                        let (r, d) = timed(|| sys.cp_update(ten.pid, &uri, &vals, &args));
                        (r.map_err(|_| ()), d)
                    }
                };
                o.call(d, r == Ok(1));
                cl.words.insert((t, id), word);
            } else {
                let expect = cl.words.get(&(t, id)).cloned().unwrap_or_else(|| base_word(id));
                let (r, d) = timed(|| sys.cp_query(ten.pid, &uri, &args));
                o.call(d, r.as_ref().is_ok_and(|rs| word_of(rs) == Some(expect.as_str())));
                if let Some(l) = trace.as_deref_mut() {
                    let (r, dr) = timed(|| sys.resolver.query(&ten.caller, &uri, &args));
                    o.call(dr, r.as_ref().is_ok_and(|rs| word_of(rs) == Some(expect.as_str())));
                    l.add(T::ProvQuery, dr);
                    l.add_ns(T::CoreCpSelf, d.as_nanos() as i64 - dr.as_nanos() as i64);
                }
            }
        }

        // Every 128th session an (empty) commit gesture.
        if k % 128 == 63 {
            let (r, d) = timed(|| sys.commit_vol(&ten.init, &VolCommitPlan::default()));
            o.call(d, r.is_ok());
            o.gesture = Some(d);
            if let Some(l) = trace {
                l.add(T::CoreCommit, d);
            }
        }
        o
    }
}
