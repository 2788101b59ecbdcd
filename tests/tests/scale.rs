//! Scale test: many initiators, each with several delegates, all active
//! in one system. Verifies that per-initiator state (Vol, nPriv, pPriv,
//! provider deltas) stays pairwise isolated as the population grows, and
//! that Clear-Vol is precise.

use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, Pid, QueryArgs, Uri};
use maxoid_vfs::{vpath, Mode};

const INITIATORS: usize = 6;
const DELEGATES_PER: usize = 3;

fn init_pkg(i: usize) -> String {
    format!("init{i}")
}

fn worker_pkg(j: usize) -> String {
    format!("worker{j}")
}

#[test]
fn many_initiators_stay_pairwise_isolated() {
    let sys = MaxoidSystem::boot().unwrap();
    for i in 0..INITIATORS {
        sys.install(&init_pkg(i), vec![], MaxoidManifest::new().private_ext_dir("data")).unwrap();
    }
    for j in 0..DELEGATES_PER {
        sys.install(&worker_pkg(j), vec![], MaxoidManifest::new()).unwrap();
    }
    sys.install("observer", vec![], MaxoidManifest::new()).unwrap();
    let words = Uri::parse("content://user_dictionary/words").unwrap();

    // Each initiator runs its delegates, which leave file + provider
    // traces tagged with the initiator index.
    let mut init_pids: Vec<Pid> = Vec::new();
    for i in 0..INITIATORS {
        let ip = sys.launch(&init_pkg(i)).unwrap();
        init_pids.push(ip);
        for j in 0..DELEGATES_PER {
            let d = sys.launch_as_delegate(&worker_pkg(j), &init_pkg(i)).unwrap();
            // Public-view file write -> Vol(init_i).
            sys.kernel
                .write(
                    d,
                    &vpath("/storage/sdcard").join(&format!("trace_{i}_{j}.txt")).unwrap(),
                    format!("i{i}j{j}").as_bytes(),
                    Mode::PUBLIC,
                )
                .unwrap();
            // Provider write -> delta table of init_i.
            sys.cp_insert(d, &words, &ContentValues::new().put("word", format!("w_{i}_{j}")))
                .unwrap();
            // Private fork write.
            sys.kernel
                .write(
                    d,
                    &vpath("/data/data").join(&worker_pkg(j)).unwrap().join("note").unwrap(),
                    format!("fork {i}").as_bytes(),
                    Mode::PRIVATE,
                )
                .unwrap();
        }
    }

    // Pairwise checks: initiator i sees exactly its own volatile traces.
    for (i, ip) in init_pids.iter().enumerate() {
        let vol = sys.volatile_files(&init_pkg(i)).unwrap();
        let file_traces: Vec<&str> =
            vol.iter().filter(|e| e.rel.starts_with("trace_")).map(|e| e.rel.as_str()).collect();
        assert_eq!(file_traces.len(), DELEGATES_PER, "initiator {i}");
        assert!(file_traces.iter().all(|t| t.contains(&format!("trace_{i}_"))));
        // Its tmp view resolves the same files.
        for j in 0..DELEGATES_PER {
            let tmp = vpath("/storage/sdcard/tmp").join(&format!("trace_{i}_{j}.txt")).unwrap();
            assert_eq!(sys.kernel.read(*ip, &tmp).unwrap(), format!("i{i}j{j}").as_bytes());
        }
        // Provider volatile rows: exactly its own.
        let rs = sys.cp_query(*ip, &words.as_volatile(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), DELEGATES_PER, "initiator {i} volatile rows");
        let w = rs.column_index("word").unwrap();
        assert!(rs.rows.iter().all(|r| r[w].to_string().starts_with(&format!("w_{i}_"))));
    }

    // The observer sees no trace at all.
    let obs = sys.launch("observer").unwrap();
    let names: Vec<String> = sys
        .kernel
        .read_dir(obs, &vpath("/storage/sdcard"))
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(!names.iter().any(|n| n.starts_with("trace_")));
    let rs = sys.cp_query(obs, &words, &QueryArgs::default()).unwrap();
    assert!(rs.rows.is_empty());

    // Clear-Vol for one initiator is surgical.
    let victim = 2;
    sys.clear_vol(&init_pkg(victim)).unwrap();
    assert!(sys.volatile_files(&init_pkg(victim)).unwrap().is_empty());
    for i in (0..INITIATORS).filter(|i| *i != victim) {
        assert_eq!(
            sys.volatile_files(&init_pkg(i))
                .unwrap()
                .iter()
                .filter(|e| e.rel.starts_with("trace_"))
                .count(),
            DELEGATES_PER,
            "initiator {i} must be untouched by initiator {victim}'s Clear-Vol"
        );
    }
}

#[test]
fn delegate_forks_scale_per_initiator_pair() {
    // The same worker app forked for many initiators keeps every fork
    // independent; pPriv too.
    let sys = MaxoidSystem::boot().unwrap();
    sys.install("worker", vec![], MaxoidManifest::new()).unwrap();
    for i in 0..INITIATORS {
        sys.install(&init_pkg(i), vec![], MaxoidManifest::new()).unwrap();
    }
    let npriv = vpath("/data/data/worker/state");
    let ppriv = vpath("/data/data/ppriv/worker/history");
    for i in 0..INITIATORS {
        let d = sys.launch_as_delegate("worker", &init_pkg(i)).unwrap();
        sys.kernel.write(d, &npriv, format!("n{i}").as_bytes(), Mode::PRIVATE).unwrap();
        sys.kernel.write(d, &ppriv, format!("p{i}").as_bytes(), Mode::PRIVATE).unwrap();
    }
    // Revisit each context: both layers still hold that initiator's data.
    for i in 0..INITIATORS {
        let d = sys.launch_as_delegate("worker", &init_pkg(i)).unwrap();
        assert_eq!(sys.kernel.read(d, &npriv).unwrap(), format!("n{i}").as_bytes());
        assert_eq!(sys.kernel.read(d, &ppriv).unwrap(), format!("p{i}").as_bytes());
    }
    // A normal run of the worker sees none of it.
    let normal = sys.launch("worker").unwrap();
    assert!(!sys.kernel.exists(normal, &npriv));
    assert!(!sys.kernel.exists(normal, &ppriv));
}
