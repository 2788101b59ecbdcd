//! `provider_cow`: 64 delegates hammering one 5,000-word user dictionary
//! through the content resolver. Point and index-range queries run beside
//! first-touch COW updates, inserts and whiteout deletes, and every 256th
//! op of a tenant discards its delta tables, so they keep cycling.

use crate::harness::{timed, Layers, Outcome, Rng, Workload, Zipf, T};
use crate::replay::ProvOp;
use crate::{Bench, Cfg, STREAM_LEN};
use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, MaxoidSystem, Pid, QueryArgs, Uri};
use maxoid_sqldb::{ResultSet, Value};
use std::collections::HashMap;

const WORDS: u32 = 5000;
const TENANTS: usize = 64;
/// Ids a range query spans (its `word` bounds are those ids' words).
const RANGE: u32 = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Range,
    Update,
    Insert,
    Delete,
    Clear,
}

/// One pre-generated op: its tenant, kind and key (an id, a range start,
/// or the id an inserted word sorts after).
#[derive(Debug, Clone, Copy)]
pub struct Req {
    tenant: u16,
    kind: Kind,
    key: u32,
}

struct Tenant {
    init: String,
    pid: Pid,
    caller: Caller,
}

pub struct ProviderCow {
    sys: MaxoidSystem,
    tenants: Vec<Tenant>,
    words: Uri,
}

fn word(id: u32) -> String {
    format!("w{id:05}")
}

/// A word unique to request `k` that sorts right after `word(key)`.
fn inserted_word(key: u32, k: u64) -> String {
    format!("w{key:05}i{k}")
}

fn cols() -> Vec<String> {
    vec!["_id".into(), "word".into(), "frequency".into()]
}

impl Bench for ProviderCow {
    fn setup(_cfg: &Cfg, _rep: usize) -> Result<ProviderCow, String> {
        let e = |what: &str, err: maxoid::SystemError| format!("provider_cow setup: {what}: {err}");
        let sys = MaxoidSystem::boot().map_err(|x| e("boot", x))?;
        let words = Uri::parse("content://user_dictionary/words").expect("static uri");
        sys.install("pc.seeder", vec![], MaxoidManifest::new()).map_err(|x| e("install", x))?;
        let seeder = sys.launch("pc.seeder").map_err(|x| e("launch", x))?;
        for id in 1..=WORDS {
            let vals = ContentValues::new().put("word", word(id)).put("frequency", id as i64);
            sys.cp_insert(seeder, &words, &vals).map_err(|x| e("seed dictionary", x))?;
        }
        let mut tenants = Vec::with_capacity(TENANTS);
        for t in 0..TENANTS {
            let (app, init) = (format!("pc.app{t}"), format!("pc.init{t}"));
            sys.install(&app, vec![], MaxoidManifest::new()).map_err(|x| e("install", x))?;
            sys.install(&init, vec![], MaxoidManifest::new()).map_err(|x| e("install", x))?;
            let pid = sys.launch_as_delegate(&app, &init).map_err(|x| e("delegate", x))?;
            let caller = sys.caller(pid).map_err(|x| e("caller", x))?;
            tenants.push(Tenant { init, pid, caller });
        }
        Ok(ProviderCow { sys, tenants, words })
    }

    /// Tenants are owned per client as in `fleet_sessions` and chosen by
    /// Zipf(1.0); keys are uniform. The mix is 60% point query, 10% range
    /// query, 20% update, 5% insert and 5% delete, and every 256th op of a
    /// tenant is a `clear_vol` of it, so every delta table cycles at the
    /// same length however hot its tenant is.
    fn streams(&self, cfg: &Cfg) -> Vec<Vec<Req>> {
        (0..cfg.clients)
            .map(|c| {
                let owned: Vec<u16> = (c..TENANTS).step_by(cfg.clients).map(|t| t as u16).collect();
                let zipf = Zipf::new(owned.len(), 1.0);
                let mut rng = Rng::new(cfg.seed ^ ((c as u64 + 1) << 32));
                let mut ops = [0u32; TENANTS];
                (0..STREAM_LEN)
                    .map(|_| {
                        let tenant = owned[zipf.sample(&mut rng)];
                        ops[tenant as usize] += 1;
                        let kind = match rng.below(100) {
                            _ if ops[tenant as usize] % 256 == 0 => Kind::Clear,
                            0..=59 => Kind::Query,
                            60..=69 => Kind::Range,
                            70..=89 => Kind::Update,
                            90..=94 => Kind::Insert,
                            _ => Kind::Delete,
                        };
                        let span = if kind == Kind::Range { WORDS - RANGE + 1 } else { WORDS };
                        Req { tenant, kind, key: rng.below(span as u64) as u32 + 1 }
                    })
                    .collect()
            })
            .collect()
    }

    fn client(&self) -> CowClient {
        CowClient { tenants: HashMap::new() }
    }

    fn sys(&self) -> &MaxoidSystem {
        &self.sys
    }

    fn initiators(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.init.clone()).collect()
    }

    fn resolve_stats(&self, _clients: &[CowClient]) -> (u64, u64) {
        self.tenants
            .iter()
            .filter_map(|t| self.sys.kernel.resolve_cache_stats(t.pid).ok())
            .fold((0, 0), |(h, m), (dh, dm)| (h + dh, m + dm))
    }

    fn seed_rows(&self) -> Vec<(String, i64)> {
        (1..=WORDS).map(|id| (word(id), id as i64)).collect()
    }

    fn prov_ops(&self, r: &Req, k: u64, out: &mut Vec<ProvOp>) {
        let (init, id) = (r.tenant as usize, r.key as i64);
        out.push(match r.kind {
            Kind::Query => ProvOp::Query { init, id },
            Kind::Range => ProvOp::Range { init, lo: word(r.key), hi: word(r.key + RANGE) },
            Kind::Update => ProvOp::Update {
                init,
                id,
                col: "frequency",
                value: Value::Integer(update_value(k)),
            },
            Kind::Insert => ProvOp::Insert { init, word: inserted_word(r.key, k), freq: id },
            Kind::Delete => ProvOp::Delete { init, id },
            Kind::Clear => ProvOp::Clear { init },
        });
    }
}

fn update_value(k: u64) -> i64 {
    1_000_000 + k as i64
}

/// What one tenant's delegate sees beyond the seeded rows.
#[derive(Debug, Default)]
struct View {
    /// Seeded ids it updated (`Some(frequency)`) or deleted (`None`).
    over: HashMap<u32, Option<i64>>,
    /// Rows it inserted: `(id, key, word)`, frequency = key.
    inserted: Vec<(i64, u32, String)>,
}

impl View {
    /// The visible `(id, word, frequency)` of seeded id `id`.
    fn seeded(&self, id: u32) -> Option<(i64, String, i64)> {
        match self.over.get(&id) {
            Some(None) => None,
            Some(Some(f)) => Some((id as i64, word(id), *f)),
            None => Some((id as i64, word(id), id as i64)),
        }
    }
}

/// A client's expected-state model of the tenants it owns.
pub struct CowClient {
    tenants: HashMap<u16, View>,
}

/// `(id, word, frequency)` rows of a result, sorted by id.
fn rows(rs: &ResultSet) -> Option<Vec<(i64, String, i64)>> {
    let mut out = Vec::with_capacity(rs.rows.len());
    for r in &rs.rows {
        match r.as_slice() {
            [Value::Integer(id), Value::Text(w), Value::Integer(f)] => {
                out.push((*id, w.clone(), *f))
            }
            _ => return None,
        }
    }
    out.sort();
    Some(out)
}

impl Workload for ProviderCow {
    type Req = Req;
    type Client = CowClient;

    fn run(&self, cl: &mut CowClient, r: &Req, k: u64, trace: Option<&mut Layers>) -> Outcome {
        let sys = &self.sys;
        let ten = &self.tenants[r.tenant as usize];
        let view = cl.tenants.entry(r.tenant).or_default();
        let mut o = Outcome::default();
        match r.kind {
            Kind::Query | Kind::Range => {
                let (uri, args, expect) = if r.kind == Kind::Query {
                    let args = QueryArgs { projection: cols(), ..Default::default() };
                    (
                        self.words.with_id(r.key as i64),
                        args,
                        view.seeded(r.key).into_iter().collect(),
                    )
                } else {
                    let args = QueryArgs {
                        projection: cols(),
                        selection: Some("word >= ? AND word < ?".into()),
                        selection_args: vec![
                            Value::Text(word(r.key)),
                            Value::Text(word(r.key + RANGE)),
                        ],
                        ..Default::default()
                    };
                    let mut expect: Vec<_> =
                        (r.key..r.key + RANGE).filter_map(|id| view.seeded(id)).collect();
                    expect.extend(
                        view.inserted
                            .iter()
                            .filter(|(_, key, _)| (r.key..r.key + RANGE).contains(key))
                            .map(|(id, key, w)| (*id, w.clone(), *key as i64)),
                    );
                    expect.sort();
                    (self.words.clone(), args, expect)
                };
                let (res, d) = timed(|| sys.cp_query(ten.pid, &uri, &args));
                o.call(d, res.is_ok_and(|rs| rows(&rs).as_ref() == Some(&expect)));
                if let Some(l) = trace {
                    let (res, dr) = timed(|| sys.resolver.query(&ten.caller, &uri, &args));
                    o.call(dr, res.is_ok_and(|rs| rows(&rs).as_ref() == Some(&expect)));
                    l.add(T::ProvQuery, dr);
                    l.add_ns(T::CoreCpSelf, d.as_nanos() as i64 - dr.as_nanos() as i64);
                }
            }
            Kind::Update | Kind::Delete => {
                let uri = self.words.with_id(r.key as i64);
                let args = QueryArgs::default();
                let visible = view.seeded(r.key).is_some();
                let (res, d) = if r.kind == Kind::Update {
                    let f = update_value(k);
                    let vals = ContentValues::new().put("frequency", f);
                    if visible {
                        view.over.insert(r.key, Some(f));
                    }
                    match trace {
                        Some(l) => {
                            let (res, d) =
                                timed(|| sys.resolver.update(&ten.caller, &uri, &vals, &args));
                            l.add(T::ProvUpdate, d);
                            (res.map_err(|_| ()), d)
                        }
                        None => {
                            let (res, d) = timed(|| sys.cp_update(ten.pid, &uri, &vals, &args));
                            (res.map_err(|_| ()), d)
                        }
                    }
                } else {
                    view.over.insert(r.key, None);
                    match trace {
                        Some(l) => {
                            let (res, d) = timed(|| sys.resolver.delete(&ten.caller, &uri, &args));
                            l.add(T::ProvDelete, d);
                            (res.map_err(|_| ()), d)
                        }
                        None => {
                            let (res, d) = timed(|| sys.cp_delete(ten.pid, &uri, &args));
                            (res.map_err(|_| ()), d)
                        }
                    }
                };
                o.call(d, res == Ok(visible as usize));
            }
            Kind::Insert => {
                let w = inserted_word(r.key, k);
                let vals =
                    ContentValues::new().put("word", w.as_str()).put("frequency", r.key as i64);
                let (res, d) = match trace {
                    Some(l) => {
                        let (res, d) =
                            timed(|| sys.resolver.insert(&ten.caller, &self.words, &vals));
                        l.add(T::ProvInsert, d);
                        (res.map_err(|_| ()), d)
                    }
                    None => {
                        let (res, d) = timed(|| sys.cp_insert(ten.pid, &self.words, &vals));
                        (res.map_err(|_| ()), d)
                    }
                };
                let id = res.ok().and_then(|u| u.id());
                o.call(d, id.is_some());
                if let Some(id) = id {
                    view.inserted.push((id, r.key, w));
                }
            }
            Kind::Clear => {
                let (res, d) = timed(|| sys.clear_vol(&ten.init));
                o.call(d, res.is_ok());
                o.gesture = Some(d);
                if let Some(l) = trace {
                    l.add(T::CoreClear, d);
                }
                *view = View::default();
            }
        }
        o
    }
}
