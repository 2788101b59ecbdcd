//! Concurrency tests: the shared backing store behind `parking_lot`
//! locks serves parallel apps without losing Maxoid's isolation, and the
//! kernel's syscall surface is safe to drive from multiple threads.

use crossbeam::thread;
use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, QueryArgs, Uri, VolCommitPlan};
use maxoid_journal::{Journal, Record, DEFAULT_BATCH};
use maxoid_vfs::{vpath, Cred, Mode, Mount, MountNamespace, Uid, Vfs};
use std::time::Duration;

/// Parallel writers in disjoint namespaces never observe each other's
/// data; every thread reads back exactly what it wrote.
#[test]
fn parallel_writers_in_disjoint_namespaces() {
    let vfs = Vfs::new();
    const THREADS: usize = 8;
    const FILES: usize = 40;
    // Give each "app" its own backing dir + namespace.
    let setups: Vec<(Cred, MountNamespace)> = (0..THREADS)
        .map(|i| {
            let host = vpath("/backing").join(&format!("app{i}")).unwrap();
            vfs.with_store(|s| s.mkdir_all(&host, Uid::ROOT, Mode::PUBLIC)).unwrap();
            let mut ns = MountNamespace::new();
            ns.add(Mount::bind(vpath("/data"), host));
            (Cred::new(Uid(10_000 + i as u32)), ns)
        })
        .collect();

    thread::scope(|scope| {
        for (i, (cred, ns)) in setups.iter().enumerate() {
            let vfs = vfs.clone();
            scope.spawn(move |_| {
                for f in 0..FILES {
                    let p = vpath("/data").join(&format!("f{f}.dat")).unwrap();
                    let payload = format!("thread{i}-file{f}");
                    vfs.write(*cred, ns, &p, payload.as_bytes(), Mode::PRIVATE).unwrap();
                    assert_eq!(vfs.read(*cred, ns, &p).unwrap(), payload.as_bytes());
                }
            });
        }
    })
    .expect("threads join");

    // Cross-check after the fact: every thread's files are intact and
    // contain only that thread's data.
    for (i, (cred, ns)) in setups.iter().enumerate() {
        for f in 0..FILES {
            let p = vpath("/data").join(&format!("f{f}.dat")).unwrap();
            let got = vfs.read(*cred, ns, &p).unwrap();
            assert_eq!(got, format!("thread{i}-file{f}").as_bytes());
        }
    }
}

/// Concurrent readers over one namespace see a consistent snapshot while
/// a writer mutates other files (RwLock semantics, no torn reads).
#[test]
fn readers_are_consistent_under_writes() {
    let vfs = Vfs::new();
    vfs.with_store(|s| s.mkdir_all(&vpath("/pub"), Uid::ROOT, Mode::PUBLIC)).unwrap();
    let mut ns = MountNamespace::new();
    ns.add(Mount::bind(vpath("/shared"), vpath("/pub")).with_forced_mode(Mode::PUBLIC));
    let cred = Cred::new(Uid(10_001));
    let stable = vpath("/shared/stable.dat");
    vfs.write(cred, &ns, &stable, b"immutable content", Mode::PUBLIC).unwrap();

    thread::scope(|scope| {
        // One writer hammers a different file.
        {
            let vfs = vfs.clone();
            let ns = ns.clone();
            scope.spawn(move |_| {
                for i in 0..500 {
                    let p = vpath("/shared/hot.dat");
                    vfs.write(cred, &ns, &p, format!("v{i}").as_bytes(), Mode::PUBLIC).unwrap();
                }
            });
        }
        // Readers must always see the stable file whole.
        for _ in 0..4 {
            let vfs = vfs.clone();
            let ns = ns.clone();
            let stable = stable.clone();
            scope.spawn(move |_| {
                for _ in 0..500 {
                    assert_eq!(vfs.read(cred, &ns, &stable).unwrap(), b"immutable content");
                }
            });
        }
    })
    .expect("threads join");
}

/// The πBox-style trusted-cloud extension end to end: a delegate reaches
/// only the whitelisted backend.
#[test]
fn trusted_cloud_extension_end_to_end() {
    let sys = MaxoidSystem::boot().unwrap();
    sys.kernel.net.publish("converter.cloud", "convert", b"converted".to_vec());
    sys.kernel.net.publish("attacker.example", "drop", vec![]);
    sys.install("docs", vec![], MaxoidManifest::new()).unwrap();
    sys.install("converter", vec![], MaxoidManifest::new()).unwrap();

    let d = sys.launch_as_delegate("converter", "docs").unwrap();
    // Paper default: no network at all.
    assert!(sys.kernel.connect(d, "converter.cloud").is_err());

    // Opt in to the §2.4 extension for the converter's own backend.
    sys.kernel.enable_trusted_cloud(["converter.cloud".to_string()]);
    assert_eq!(sys.kernel.http_get(d, "converter.cloud/convert").unwrap(), b"converted");
    // Arbitrary exfiltration targets stay blocked.
    assert!(sys.kernel.connect(d, "attacker.example").is_err());
    // Initiators are unaffected either way.
    let a = sys.launch("docs").unwrap();
    assert!(sys.kernel.connect(a, "attacker.example").is_ok());
}

/// S1–S4 hold with N initiator/delegate pairs hammering one shared
/// system from concurrent threads: every delegate stays inside its own
/// initiator's view (files *and* provider rows), `Priv` of the delegate
/// apps is never modified, and no cross-initiator leakage occurs.
#[test]
fn concurrent_delegates_preserve_s1_s4() {
    const N: usize = 4;
    const ROUNDS: usize = 30;
    let sys = MaxoidSystem::boot().unwrap();
    let words = Uri::parse("content://user_dictionary/words").unwrap();

    // A public dictionary seeded by a bystander: one row per initiator.
    sys.install("bystander", vec![], MaxoidManifest::new()).unwrap();
    let x = sys.launch("bystander").unwrap();
    for i in 0..N {
        sys.cp_insert(x, &words, &ContentValues::new().put("word", format!("pub{i}").as_str()))
            .unwrap();
    }
    // Per-thread cast: initiator `init{i}` delegating viewer `view{i}`
    // (distinct delegate apps, so no §6.2 conflicting-launch kills).
    for i in 0..N {
        sys.install(&format!("init{i}"), vec![], MaxoidManifest::new()).unwrap();
        sys.install(&format!("view{i}"), vec![], MaxoidManifest::new()).unwrap();
    }

    let results = thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let sys = &sys;
                let words = words.clone();
                scope.spawn(move |_| {
                    let init = format!("init{i}");
                    let view = format!("view{i}");
                    let a = sys.launch(&init).unwrap();
                    let secret = vpath(&format!("/data/data/{init}/secret.txt"));
                    sys.kernel
                        .write(a, &secret, format!("priv({init})").as_bytes(), Mode::PRIVATE)
                        .unwrap();
                    let d = sys.launch_as_delegate(&view, &init).unwrap();
                    let fork = vpath(&format!("/data/data/{view}/fork.db"));
                    let public = vpath(&format!("/storage/sdcard/out{i}.txt"));
                    for r in 0..ROUNDS {
                        // Priv(A) -> B^A: the permitted read edge.
                        assert_eq!(
                            sys.kernel.read(d, &secret).unwrap(),
                            format!("priv({init})").as_bytes()
                        );
                        // B^A -> Priv(B^A): private write lands in the fork.
                        sys.kernel
                            .write(d, &fork, format!("fork{i}r{r}").as_bytes(), Mode::PRIVATE)
                            .unwrap();
                        // B^A -> Vol(A): public write is redirected; A sees
                        // it under the volatile tmp name.
                        sys.kernel
                            .write(d, &public, format!("vol{i}r{r}").as_bytes(), Mode::PUBLIC)
                            .unwrap();
                        assert_eq!(
                            sys.kernel
                                .read(a, &vpath(&format!("/storage/sdcard/tmp/out{i}.txt")))
                                .unwrap(),
                            format!("vol{i}r{r}").as_bytes()
                        );
                        // Provider COW: update own row, read it back.
                        let id = i as i64 + 1;
                        sys.cp_update(
                            d,
                            &words.with_id(id),
                            &ContentValues::new().put("word", format!("cow{i}r{r}").as_str()),
                            &QueryArgs::default(),
                        )
                        .unwrap();
                        let rs =
                            sys.cp_query(d, &words.with_id(id), &QueryArgs::default()).unwrap();
                        let col = rs.column_index("word").unwrap();
                        assert_eq!(rs.rows[0][col].to_string(), format!("cow{i}r{r}"));
                        // Exercise the gesture lock against the COW paths.
                        if r % 10 == 9 {
                            sys.commit_vol(&init, &VolCommitPlan::default()).unwrap();
                        }
                    }
                    (a, d, secret, fork)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    })
    .expect("threads join");

    // Post-hoc isolation sweep across every pair.
    for (i, (a_i, d_i, secret_i, fork_i)) in results.iter().enumerate() {
        // S3: the initiator cannot read its delegate's fork.
        assert!(sys.kernel.read(*a_i, fork_i).is_err(), "S3 violated for init{i}");
        // S1: other initiators' delegates and the bystander cannot read
        // this initiator's secret.
        assert!(sys.kernel.read(x, secret_i).is_err(), "S1 violated: bystander read init{i}");
        for (j, (a_j, d_j, ..)) in results.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(sys.kernel.read(*d_j, secret_i).is_err(), "S1 violated: view{j} read init{i}");
            assert!(sys.kernel.read(*a_j, secret_i).is_err(), "S1 violated: init{j} read init{i}");
            // S2/Vol isolation: init j never sees init i's volatile file.
            assert!(
                !sys.kernel.exists(*a_j, &vpath(&format!("/storage/sdcard/tmp/out{i}.txt"))),
                "Vol leaked: init{j} sees out{i}"
            );
            // Provider: delegate j still reads the public value of row i.
            let rs =
                sys.cp_query(*d_j, &words.with_id(i as i64 + 1), &QueryArgs::default()).unwrap();
            let col = rs.column_index("word").unwrap();
            assert_eq!(
                rs.rows[0][col].to_string(),
                format!("pub{i}"),
                "COW leaked across initiators"
            );
        }
        // S2: the public world never saw the redirected write.
        assert!(!sys.kernel.exists(x, &vpath(&format!("/storage/sdcard/out{i}.txt"))));
        // Delegate reads stayed fully isolated; the bystander's view of
        // every row is the seeded value.
        let rs = sys.cp_query(x, &words.with_id(i as i64 + 1), &QueryArgs::default()).unwrap();
        let col = rs.column_index("word").unwrap();
        assert_eq!(rs.rows[0][col].to_string(), format!("pub{i}"));
        let _ = d_i;
    }
    // S4: a normal run of each viewer sees pristine Priv(view{i}) — the
    // concurrent forks never wrote through.
    for (i, (.., fork_i)) in results.iter().enumerate() {
        let b = sys.launch(&format!("view{i}")).unwrap();
        assert!(!sys.kernel.exists(b, fork_i), "S4 violated: fork{i} reached Priv(view{i})");
    }
}

/// Intra-authority reader storm: N reader threads point-query the *same*
/// User Dictionary authority under its shared lock while one delegate
/// writer takes it exclusively. Every result must match the serialized
/// oracle (readers see exactly the seeded public rows — the delegate's
/// COW writes are invisible to them), and every query must have been
/// routed.
#[test]
fn intra_authority_reader_storm_matches_serialized_oracle() {
    const READERS: usize = 4;
    const ITERS: usize = 200;
    const ROWS: i64 = 32;
    let sys = MaxoidSystem::boot().unwrap();
    let words = Uri::parse("content://user_dictionary/words").unwrap();

    sys.install("seeder", vec![], MaxoidManifest::new()).unwrap();
    let seeder = sys.launch("seeder").unwrap();
    for i in 0..ROWS {
        sys.cp_insert(seeder, &words, &ContentValues::new().put("word", format!("w{i}").as_str()))
            .unwrap();
    }
    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            sys.install(&format!("reader{i}"), vec![], MaxoidManifest::new()).unwrap();
            sys.launch(&format!("reader{i}")).unwrap()
        })
        .collect();
    sys.install("writerapp", vec![], MaxoidManifest::new()).unwrap();
    sys.install("writerinit", vec![], MaxoidManifest::new()).unwrap();
    let writer = sys.launch_as_delegate("writerapp", "writerinit").unwrap();

    let (snap0, _) = sys.resolver.read_path_stats();
    let sys_ref = &sys;
    let words_ref = &words;
    thread::scope(|scope| {
        // Writer: COW updates into its initiator's delta, each under the
        // authority's exclusive lock.
        scope.spawn(move |_| {
            let (sys, words) = (sys_ref, words_ref);
            for r in 0..ITERS {
                let id = (r as i64 % ROWS) + 1;
                sys.cp_update(
                    writer,
                    &words.with_id(id),
                    &ContentValues::new().put("word", format!("cow{r}").as_str()),
                    &QueryArgs::default(),
                )
                .unwrap();
            }
        });
        // Readers: every query must return the seeded public value — the
        // serialized oracle — no matter how reads interleave with the
        // writer's exclusive holds.
        for pid in &readers {
            let pid = *pid;
            scope.spawn(move |_| {
                let (sys, words) = (sys_ref, words_ref);
                for i in 0..ITERS {
                    let id = (i as i64 % ROWS) + 1;
                    let rs = sys.cp_query(pid, &words.with_id(id), &QueryArgs::default()).unwrap();
                    let col = rs.column_index("word").unwrap();
                    assert_eq!(rs.rows.len(), 1);
                    assert_eq!(rs.rows[0][col].to_string(), format!("w{}", id - 1));
                }
            });
        }
    })
    .expect("threads join");

    // The storm's queries were routed through the shared lock.
    let (snap1, _) = sys.resolver.read_path_stats();
    assert!(snap1 > snap0, "the reader storm routed no query");

    // Quiescent tail: every read is routed.
    let (qsnap0, _) = sys.resolver.read_path_stats();
    for pid in &readers {
        for id in 1..=ROWS {
            sys.cp_query(*pid, &words.with_id(id), &QueryArgs::default()).unwrap();
        }
    }
    let (qsnap1, _) = sys.resolver.read_path_stats();
    assert_eq!(qsnap1 - qsnap0, READERS as u64 * ROWS as u64);

    // The writer's COW rows stayed confined to its initiator's view.
    let rs = sys.cp_query(writer, &words.with_id(1), &QueryArgs::default()).unwrap();
    let col = rs.column_index("word").unwrap();
    assert!(rs.rows[0][col].to_string().starts_with("cow"), "writer lost its own COW row");
}

/// Lock-order smoke test: two threads drive API paths whose documented
/// lock footprints overlap, approaching the shared locks from opposite
/// ends of the hierarchy (gesture-first gestures vs leaf-first reads,
/// provider-then-store vs store-then-provider call sequences). With the
/// documented order (system.rs "Threading model") every path acquires
/// nested locks in one global direction, so this must terminate; an
/// inversion deadlocks and the watchdog flags it instead of hanging CI.
/// The system is journaled, so thread 1's checkpoints really rewrite the
/// log (journal-state, storage and store-shard locks) under thread 2's
/// writes.
#[test]
fn lock_order_smoke() {
    const ITERS: usize = 150;
    let (tx, rx) = std::sync::mpsc::channel();
    let driver = std::thread::spawn(move || {
        let sys = MaxoidSystem::boot_journaled(Journal::in_memory(DEFAULT_BATCH)).unwrap();
        let words = Uri::parse("content://user_dictionary/words").unwrap();
        for pkg in ["alpha", "beta", "gamma"] {
            sys.install(pkg, vec![], MaxoidManifest::new()).unwrap();
        }
        let seed = sys.launch("gamma").unwrap();
        sys.cp_insert(seed, &words, &ContentValues::new().put("word", "seed")).unwrap();
        let da = sys.launch_as_delegate("gamma", "alpha").unwrap();
        let db = sys.launch_as_delegate("beta", "alpha").unwrap();
        let f = vpath("/data/data/gamma/hot.dat");

        thread::scope(|scope| {
            // Thread 1: gesture-heavy — gesture lock -> priv_mgr ->
            // kernel table -> store -> provider mutex -> journal, plus
            // ams writes (install), reads (manifest_of) and checkpoints
            // (store, then journal state -> storage).
            scope.spawn(|_| {
                for i in 0..ITERS {
                    sys.commit_vol("alpha", &VolCommitPlan::default()).unwrap();
                    if i % 10 == 0 {
                        sys.clear_vol("alpha").unwrap();
                        sys.install(&format!("extra{i}"), vec![], MaxoidManifest::new()).unwrap();
                    }
                    let _ = sys.manifest_of(&maxoid::AppId::new("alpha"));
                    sys.checkpoint_incremental().unwrap();
                }
            });
            // Thread 2: leaf-first — provider and store paths entered
            // without the gesture lock, interleaved with clipboard and
            // process-table reads, racing thread 1's gestures.
            scope.spawn(|_| {
                for i in 0..ITERS {
                    sys.kernel.write(da, &f, format!("v{i}").as_bytes(), Mode::PRIVATE).unwrap();
                    let _ = sys.kernel.read(da, &f);
                    sys.cp_update(
                        db,
                        &words.with_id(1),
                        &ContentValues::new().put("word", format!("w{i}").as_str()),
                        &QueryArgs::default(),
                    )
                    .unwrap();
                    let _ = sys.cp_query(da, &words.with_id(1), &QueryArgs::default());
                    let dctx = sys.kernel.process(da).unwrap().ctx.clone();
                    sys.clipboard.set(&dctx, "confined");
                    let _ = sys.clipboard.get(&dctx);
                    let _ = sys.broadcast_targets(None, &maxoid::Intent::new("EDIT"));
                }
            });
        })
        .expect("threads join");
        // The checkpoints were real rewrites, not no-ops.
        let log = maxoid_journal::read_records(&sys.journal().unwrap().bytes());
        assert!(log.records.iter().any(|(_, r)| matches!(r, Record::SnapshotDelta { .. })));
        tx.send(()).ok();
    });
    // Watchdog: a lock-order inversion shows up as a hang, not a panic.
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => driver.join().unwrap(),
        Err(_) => panic!("lock-order smoke test timed out: suspected lock-order inversion"),
    }
}

/// Cross-shard pairwise leak sweep: 16 initiator/delegate pairs — enough
/// that their pids cover every process-table shard and their backing
/// paths scatter over the VFS store shards — hammer one shared system
/// with mixed traffic (private writes, redirected public writes,
/// provider COW updates, interleaved commit gestures), then the full
/// S1–S4 invariant matrix is checked across every pair. Any sharding bug
/// that lets an op land in the wrong shard or skip a lock shows up here
/// as cross-tenant leakage.
#[test]
fn cross_shard_pairwise_leak_sweep() {
    const N: usize = 16;
    const ROUNDS: usize = 8;
    let sys = MaxoidSystem::boot().unwrap();
    let words = Uri::parse("content://user_dictionary/words").unwrap();

    sys.install("bystander", vec![], MaxoidManifest::new()).unwrap();
    let x = sys.launch("bystander").unwrap();
    for i in 0..N {
        sys.cp_insert(x, &words, &ContentValues::new().put("word", format!("pub{i}").as_str()))
            .unwrap();
        sys.install(&format!("ini{i}"), vec![], MaxoidManifest::new()).unwrap();
        sys.install(&format!("del{i}"), vec![], MaxoidManifest::new()).unwrap();
    }

    let results = thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let sys = &sys;
                let words = words.clone();
                scope.spawn(move |_| {
                    let init = format!("ini{i}");
                    let del = format!("del{i}");
                    let a = sys.launch(&init).unwrap();
                    let secret = vpath(&format!("/data/data/{init}/secret.txt"));
                    sys.kernel
                        .write(a, &secret, format!("priv({init})").as_bytes(), Mode::PRIVATE)
                        .unwrap();
                    let d = sys.launch_as_delegate(&del, &init).unwrap();
                    let fork = vpath(&format!("/data/data/{del}/fork.db"));
                    let public = vpath(&format!("/storage/sdcard/out{i}.txt"));
                    for r in 0..ROUNDS {
                        assert_eq!(
                            sys.kernel.read(d, &secret).unwrap(),
                            format!("priv({init})").as_bytes()
                        );
                        sys.kernel
                            .write(d, &fork, format!("fork{i}r{r}").as_bytes(), Mode::PRIVATE)
                            .unwrap();
                        sys.kernel
                            .write(d, &public, format!("vol{i}r{r}").as_bytes(), Mode::PUBLIC)
                            .unwrap();
                        let id = i as i64 + 1;
                        sys.cp_update(
                            d,
                            &words.with_id(id),
                            &ContentValues::new().put("word", format!("cow{i}r{r}").as_str()),
                            &QueryArgs::default(),
                        )
                        .unwrap();
                        if r % 4 == 3 {
                            sys.commit_vol(&init, &VolCommitPlan::default()).unwrap();
                        }
                    }
                    (a, d, secret, fork)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    })
    .expect("threads join");

    // Distinct pids must actually cover several process-table shards —
    // otherwise this sweep isn't testing cross-shard behaviour at all.
    let shards: std::collections::BTreeSet<usize> =
        results.iter().flat_map(|(a, d, ..)| [*a, *d]).map(maxoid_kernel::proc_shard_of).collect();
    assert!(shards.len() >= 8, "tenant pids only covered {} proc shards", shards.len());

    for (i, (a_i, _d_i, secret_i, fork_i)) in results.iter().enumerate() {
        assert!(sys.kernel.read(*a_i, fork_i).is_err(), "S3 violated for ini{i}");
        assert!(sys.kernel.read(x, secret_i).is_err(), "S1 violated: bystander read ini{i}");
        assert!(!sys.kernel.exists(x, &vpath(&format!("/storage/sdcard/out{i}.txt"))));
        for (j, (a_j, d_j, ..)) in results.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(sys.kernel.read(*d_j, secret_i).is_err(), "S1 violated: del{j} read ini{i}");
            assert!(sys.kernel.read(*a_j, secret_i).is_err(), "S1 violated: ini{j} read ini{i}");
            assert!(
                !sys.kernel.exists(*a_j, &vpath(&format!("/storage/sdcard/tmp/out{i}.txt"))),
                "Vol leaked: ini{j} sees out{i}"
            );
            let rs =
                sys.cp_query(*d_j, &words.with_id(i as i64 + 1), &QueryArgs::default()).unwrap();
            let col = rs.column_index("word").unwrap();
            assert_eq!(rs.rows[0][col].to_string(), format!("pub{i}"), "COW leaked across pairs");
        }
    }
    for (i, (.., fork_i)) in results.iter().enumerate() {
        let b = sys.launch(&format!("del{i}")).unwrap();
        assert!(!sys.kernel.exists(b, fork_i), "S4 violated: fork{i} reached Priv(del{i})");
    }
}

/// Rename and copy-up that deliberately span two VFS store shards: the
/// union's compound ops must take both shards through the ordered
/// multi-shard lock path and end with exact contents on both sides.
#[test]
fn rename_and_copy_up_span_two_vfs_shards() {
    use maxoid_vfs::{shard_of_path, Branch, Store, Union};
    let store = Store::new();
    store.mkdir_all(&vpath("/up"), Uid::ROOT, Mode::PUBLIC).unwrap();
    store.mkdir_all(&vpath("/low"), Uid::ROOT, Mode::PUBLIC).unwrap();
    let u = Union::new(vec![Branch::rw(vpath("/up")), Branch::ro(vpath("/low"))], false);

    // Pick two file names whose *upper-branch host paths* hash to
    // different store shards, so the rename's write+unlink touches two
    // shards, and one whose lower host path differs in shard from its
    // upper host path, so copy-up crosses shards too.
    let shard_up = |n: &str| shard_of_path(&vpath("/up").join(n).unwrap());
    let names: Vec<String> = (0..256).map(|i| format!("f{i}.dat")).collect();
    let from = names[0].clone();
    let to = names
        .iter()
        .skip(1)
        .find(|n| shard_up(n) != shard_up(&from))
        .expect("256 names must cover more than one shard")
        .clone();
    let crosser = names
        .iter()
        .filter(|n| **n != from && **n != to)
        .find(|n| shard_of_path(&vpath("/low").join(n).unwrap()) != shard_up(n))
        .expect("some lower/upper host pair must differ in shard")
        .clone();

    // Cross-shard rename through the union (copy + whiteout of a
    // lower-branch original).
    store.write(&vpath("/low").join(&from).unwrap(), b"payload", Uid::ROOT, Mode::PUBLIC).unwrap();
    u.rename(&store, &from, &to, Uid::ROOT, Mode::PUBLIC).unwrap();
    assert_eq!(u.read(&store, &to).unwrap(), b"payload");
    assert!(u.read(&store, &from).is_err(), "source must be whited out");
    // The lower original is untouched (COW semantics).
    assert_eq!(store.read(&vpath("/low").join(&from).unwrap()).unwrap(), b"payload");

    // Cross-shard copy-up: lower host and upper host live in different
    // shards; the copied-up file must be byte-exact in the upper branch.
    store
        .write(&vpath("/low").join(&crosser).unwrap(), b"lower bytes", Uid::ROOT, Mode::PUBLIC)
        .unwrap();
    let host = u.copy_up(&store, &crosser).unwrap();
    assert_eq!(host, vpath("/up").join(&crosser).unwrap());
    assert_eq!(store.read(&host).unwrap(), b"lower bytes");
    assert_eq!(store.read(&vpath("/low").join(&crosser).unwrap()).unwrap(), b"lower bytes");
}

/// 10k one-shot tenants must not pin 10k gesture-lock entries: the
/// soft-cap sweep keeps the map bounded, and idle-tenant eviction
/// reclaims volatile state (while committed private state survives).
#[test]
fn one_shot_tenants_do_not_accrete_lock_entries() {
    let sys = MaxoidSystem::boot().unwrap();
    for i in 0..10_000 {
        // Each "tenant" performs one gesture and never returns.
        sys.commit_vol(&format!("oneshot{i}"), &VolCommitPlan::default()).unwrap();
    }
    let retained = sys.init_lock_count();
    assert!(
        retained <= maxoid::INIT_LOCK_SOFT_CAP + 1,
        "10k one-shot tenants retained {retained} gesture-lock entries"
    );
}

/// Tenant accounting sees a delegate's COW state, and the idle evictor
/// reclaims the volatile portion without touching committed state. A
/// Clear-Vol only empties the tenant's COW objects; eviction retires
/// them, and the tenant's next delegate write forks again. The catalog is
/// read back from the journal, which records every COW object's DDL.
#[test]
fn tenant_stats_and_idle_eviction() {
    let journal = Journal::in_memory(1);
    let sys = MaxoidSystem::boot_journaled(journal.clone()).unwrap();
    // Which of owner's COW objects the journaled catalog holds.
    let cow_objects = || -> [bool; 3] {
        journal.flush().unwrap();
        let db = maxoid::durability::recover(&journal.bytes()).unwrap().take_db("user_dictionary");
        [
            db.has_table("words_delta_owner"),
            db.has_view("words_view_owner"),
            db.has_trigger("words_owner_update"),
        ]
    };
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    sys.install("owner", vec![], MaxoidManifest::new()).unwrap();
    sys.install("tool", vec![], MaxoidManifest::new()).unwrap();
    let a = sys.launch("owner").unwrap();
    sys.cp_insert(a, &words, &ContentValues::new().put("word", "base")).unwrap();
    let secret = vpath("/data/data/owner/keep.txt");
    sys.kernel.write(a, &secret, b"committed", Mode::PRIVATE).unwrap();

    let d = sys.launch_as_delegate("tool", "owner").unwrap();
    sys.kernel.write(d, &vpath("/storage/sdcard/draft.txt"), b"volatile!", Mode::PUBLIC).unwrap();
    sys.kernel.write(d, &vpath("/data/data/tool/scratch.db"), b"forked", Mode::PRIVATE).unwrap();
    sys.cp_update(
        d,
        &words.with_id(1),
        &ContentValues::new().put("word", "cow"),
        &QueryArgs::default(),
    )
    .unwrap();

    let stats = sys.tenant_stats("owner").unwrap();
    assert!(stats.volatile_files >= 1, "draft.txt must show as volatile");
    assert!(stats.volatile_bytes >= 9);
    assert!(stats.delta_rows >= 1, "the COW update must show as a delta row");
    assert!(stats.cow_files >= 1, "the delegate fork must show as COW state");
    assert_eq!(cow_objects(), [true; 3]);

    // Clear-Vol empties the COW objects and keeps them.
    sys.clear_vol("owner").unwrap();
    assert_eq!(sys.tenant_stats("owner").unwrap().delta_rows, 0);
    assert_eq!(cow_objects(), [true; 3]);
    let update = |word: &str| {
        let vals = ContentValues::new().put("word", word);
        sys.cp_update(d, &words.with_id(1), &vals, &QueryArgs::default()).unwrap();
    };
    update("cow");
    assert_eq!(sys.tenant_stats("owner").unwrap().delta_rows, 1);

    // A tenant with zero idle ticks is not evicted; after enough other
    // activity it is. (The delegate's gesture lock is unreferenced once
    // launch_as_delegate returned.)
    sys.commit_vol("busy", &VolCommitPlan::default()).unwrap();
    let report = sys.evict_idle_tenants(u64::MAX).unwrap();
    assert_eq!(report.tenants, 0, "nothing is that idle");
    let report = sys.evict_idle_tenants(0).unwrap();
    assert!(report.tenants >= 1, "owner (and busy) are idle now");

    let after = sys.tenant_stats("owner").unwrap();
    assert_eq!(after.volatile_files, 0, "volatile files must be reclaimed");
    assert_eq!(after.delta_rows, 0, "delta rows must be reclaimed");
    assert_eq!(cow_objects(), [false; 3], "eviction retires the COW objects");
    // Committed state survives eviction.
    assert_eq!(sys.kernel.read(a, &secret).unwrap(), b"committed");
    let rs = sys.cp_query(a, &words.with_id(1), &QueryArgs::default()).unwrap();
    let col = rs.column_index("word").unwrap();
    assert_eq!(rs.rows[0][col].to_string(), "base");
    // The next delegate write forks again.
    update("again");
    assert_eq!(cow_objects(), [true; 3]);
    assert_eq!(sys.tenant_stats("owner").unwrap().delta_rows, 1);
}

/// A tenant whose gesture-lock entry the soft-cap sweep dropped after it
/// forked and cleared holds no volatile files, but still holds its
/// (empty) COW objects; the idle evictor finds it through the providers'
/// forks and retires them, so the catalog stays bounded.
#[test]
fn swept_tenants_cow_objects_are_retired() {
    use maxoid_providers::Caller;
    let journal = Journal::in_memory(1);
    let sys = MaxoidSystem::boot_journaled(journal.clone()).unwrap();
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    let tenants = maxoid::INIT_LOCK_SOFT_CAP + 64;
    for t in 0..tenants {
        let init = format!("swept{t}");
        let vals = ContentValues::new().put("word", "draft");
        sys.resolver.insert(&Caller::delegate("tool", &init), &words, &vals).unwrap();
        sys.clear_vol(&init).unwrap();
    }
    assert!(sys.init_lock_count() < tenants, "the soft-cap sweep must have dropped entries");
    let report = sys.evict_idle_tenants(0).unwrap();
    assert_eq!(report.tenants, tenants, "every tenant is idle and holds COW objects");
    journal.flush().unwrap();
    let db = maxoid::durability::recover(&journal.bytes()).unwrap().take_db("user_dictionary");
    let left: Vec<String> =
        db.table_names().into_iter().filter(|t| t.contains("_delta_")).collect();
    assert!(left.is_empty(), "eviction left delta tables behind: {left:?}");
}

/// A checkpoint keeps every file write acknowledged before it reads the
/// log. Four threads write 64 files round-robin (each owns 16) and flush
/// the journal after each write; another checkpoints 500 times and, after
/// each checkpoint, recovers the durable log and checks that every file
/// holds at least the version acknowledged before the log was read. A
/// checkpoint that takes the store's dirty image and only then rewrites
/// the log drops the VFS records of writes landing in between, while its
/// delta predates them.
///
/// Each round the checkpointing thread starts each writer's next 64
/// writes and has one more thread hold the journal lock for 1 ms, as
/// another client's journal work would, right before it checkpoints: the
/// writes race the checkpoint, the checkpoint and writes that land after
/// its image queue on the journal lock together, and the log a round's
/// recovery reads stays small. Such a checkpoint left a file behind in
/// 0–2 of 100 rounds with one writer and no holder, 0–5 with one writer
/// and a holder that neither waited for a group-commit leader nor
/// flushed, and 9–13 with four writers and that holder. With the holder
/// here, which does both before its hold, it left one behind in 21–40 of
/// the 500 rounds in each of three runs.
#[test]
fn checkpoints_keep_every_acknowledged_write() {
    use maxoid_vfs::VPath;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    const FILES: usize = 64;
    const WRITERS: u64 = 4;
    const WRITES_PER_ROUND: usize = 64;
    const CHECKPOINTS: usize = 500;
    let sys = MaxoidSystem::boot_journaled(Journal::in_memory(DEFAULT_BATCH)).unwrap();
    let journal = sys.journal().unwrap().clone();
    sys.kernel
        .vfs()
        .with_store(|s| s.mkdir_all(&vpath("/acked"), Uid::ROOT, Mode::PUBLIC))
        .unwrap();
    let files: Vec<VPath> = (0..FILES).map(|i| vpath(&format!("/acked/f{i}"))).collect();
    let acked: Vec<AtomicU64> = (0..FILES).map(|_| AtomicU64::new(0)).collect();
    let version = |data: Vec<u8>| u64::from_le_bytes(data.try_into().unwrap());
    let mut behind = Vec::new();
    std::thread::scope(|scope| {
        let (sys, journal, files, acked) = (&sys, &journal, &files, &acked);
        let mut rounds = Vec::new();
        for w in 0..WRITERS {
            let (round, next_round) = mpsc::channel::<()>();
            rounds.push(round);
            scope.spawn(move || {
                // Writer `w` owns the files `i ≡ w (mod WRITERS)`; its
                // versions rise and no other writer's equal them.
                let mut k = 0;
                while next_round.recv().is_ok() {
                    for _ in 0..WRITES_PER_ROUND {
                        k += 1;
                        let v = k * WRITERS + w;
                        let i = v as usize % FILES;
                        let write = |s: &maxoid_vfs::Store| {
                            s.write(&files[i], &v.to_le_bytes(), Uid::ROOT, Mode::PUBLIC)
                        };
                        sys.kernel.vfs().with_store(write).unwrap();
                        journal.flush().unwrap();
                        acked[i].store(v, Ordering::Release);
                    }
                }
            });
        }
        let (hold, next_hold) = mpsc::channel::<()>();
        scope.spawn(move || {
            while next_hold.recv().is_ok() {
                journal
                    .with_flushed(|_| {
                        let t = Instant::now();
                        while t.elapsed() < Duration::from_millis(1) {
                            std::hint::spin_loop();
                        }
                    })
                    .unwrap();
            }
        });
        for round in 0..CHECKPOINTS {
            hold.send(()).unwrap();
            for r in &rounds {
                r.send(()).unwrap();
            }
            sys.checkpoint_incremental().unwrap();
            let want: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
            let rec = maxoid::durability::recover(&journal.bytes()).unwrap();
            for (i, f) in files.iter().enumerate() {
                let got = rec.vfs.with_store(|s| s.read(f)).map_or(0, version);
                if got < want[i] {
                    behind.push((round, i, got, want[i]));
                }
            }
        }
        // Dropping the senders ends the other threads; the scope joins
        // them.
        drop((rounds, hold));
    });
    assert!(behind.is_empty(), "files behind their acknowledged writes: {behind:?}");
}

/// A compaction keeps every file write acknowledged before it returns. A
/// writer thread writes 400 files of 512 bytes, each made durable (batch
/// 1, then a flush) before the next, in rounds of 40; this thread starts
/// each round and compacts at once, racing the round's writes. The
/// durable log must then recover every file. A compaction that reads the
/// log, replays it and only then takes the journal to rewrite it drops
/// every record made durable in between: here, such a compaction lost
/// 381–384 of the 400 writes in each of three runs.
#[test]
fn compactions_keep_every_acknowledged_write() {
    use std::sync::mpsc;
    const WRITES: usize = 400;
    const ROUND: usize = 40;
    let sys = MaxoidSystem::boot_journaled(Journal::in_memory(1)).unwrap();
    let journal = sys.journal().unwrap().clone();
    sys.kernel
        .vfs()
        .with_store(|s| s.mkdir_all(&vpath("/acked"), Uid::ROOT, Mode::PUBLIC))
        .unwrap();
    let file = |i: usize| vpath(&format!("/acked/f{i}"));
    let body = |i: usize| vec![i as u8; 512];
    std::thread::scope(|scope| {
        let (go, rounds) = mpsc::channel::<()>();
        let (round_done, done) = mpsc::channel::<()>();
        let (sys, journal) = (&sys, &journal);
        scope.spawn(move || {
            let mut i = 0;
            while rounds.recv().is_ok() {
                for _ in 0..ROUND {
                    let write = |s: &maxoid_vfs::Store| {
                        s.write(&file(i), &body(i), Uid::ROOT, Mode::PUBLIC)
                    };
                    sys.kernel.vfs().with_store(write).unwrap();
                    journal.flush().unwrap();
                    i += 1;
                }
                round_done.send(()).unwrap();
            }
        });
        for _ in 0..WRITES / ROUND {
            go.send(()).unwrap();
            sys.compact().unwrap();
            done.recv().unwrap();
        }
    });
    let rec = maxoid::durability::recover(&journal.bytes()).unwrap();
    let lost: Vec<usize> = (0..WRITES)
        .filter(|&i| rec.vfs.with_store(|s| s.read(&file(i))).ok() != Some(body(i)))
        .collect();
    assert!(lost.is_empty(), "{} of {WRITES} acknowledged writes lost: {lost:?}", lost.len());
}
