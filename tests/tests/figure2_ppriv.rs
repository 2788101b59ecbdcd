//! Figure 2 integration test: normal and persistent private state
//! evolving over a sequence of invocations, end to end through the real
//! mount namespaces (not just the fork bookkeeping).

use maxoid::MaxoidSystem;
use maxoid_tests::standard_cast;
use maxoid_vfs::{vpath, Mode, VPath};

fn npriv_file() -> VPath {
    vpath("/data/data/viewer/prefs.db")
}

fn ppriv_file() -> VPath {
    vpath("/data/data/ppriv/viewer/recent.db")
}

fn read(sys: &MaxoidSystem, pid: maxoid::Pid, p: &VPath) -> Option<String> {
    sys.kernel.read(pid, p).ok().map(|d| String::from_utf8_lossy(&d).to_string())
}

/// Replays the figure: B runs normally (nPriv 0), then as B^A (fork),
/// then B updates Priv(B) (divergence), then B^A again (discard+refork),
/// while pPriv(B^A) persists throughout and pPriv(B^C) stays isolated.
#[test]
fn figure2_full_replay() {
    let sys = standard_cast();
    sys.install("other", vec![], maxoid::MaxoidManifest::new()).unwrap();

    // B runs normally with preferences version 0.
    let b0 = sys.launch("viewer").unwrap();
    sys.kernel.write(b0, &npriv_file(), b"prefs v0", Mode::PRIVATE).unwrap();

    // B^A run 1: sees v0 (U1), writes both nPriv and pPriv.
    let d1 = sys.launch_as_delegate("viewer", "initiator").unwrap();
    assert_eq!(read(&sys, d1, &npriv_file()).unwrap(), "prefs v0");
    sys.kernel.write(d1, &npriv_file(), b"prefs v0 + delegate edit", Mode::PRIVATE).unwrap();
    sys.kernel.write(d1, &ppriv_file(), b"pPriv for A", Mode::PRIVATE).unwrap();

    // B^A run 2 (consecutive): the fork is kept — both writes survive.
    let d2 = sys.launch_as_delegate("viewer", "initiator").unwrap();
    assert_eq!(read(&sys, d2, &npriv_file()).unwrap(), "prefs v0 + delegate edit");
    assert_eq!(read(&sys, d2, &ppriv_file()).unwrap(), "pPriv for A");

    // B runs normally again: Priv(B) still holds v0 (S4), and B updates
    // its preferences to v1.
    let b1 = sys.launch("viewer").unwrap();
    assert_eq!(read(&sys, b1, &npriv_file()).unwrap(), "prefs v0");
    sys.kernel.write(b1, &npriv_file(), b"prefs v1", Mode::PRIVATE).unwrap();
    // Normal B never sees pPriv content of the delegate runs.
    assert!(read(&sys, b1, &ppriv_file()).is_none());

    // B^A run 3: Priv(B) diverged — nPriv discarded and re-forked from
    // v1; pPriv persists.
    let d3 = sys.launch_as_delegate("viewer", "initiator").unwrap();
    assert_eq!(read(&sys, d3, &npriv_file()).unwrap(), "prefs v1");
    assert_eq!(read(&sys, d3, &ppriv_file()).unwrap(), "pPriv for A");

    // B^C: fresh nPriv fork from v1, and an *isolated* pPriv.
    let dc = sys.launch_as_delegate("viewer", "other").unwrap();
    assert_eq!(read(&sys, dc, &npriv_file()).unwrap(), "prefs v1");
    assert!(read(&sys, dc, &ppriv_file()).is_none());
    sys.kernel.write(dc, &ppriv_file(), b"pPriv for C", Mode::PRIVATE).unwrap();

    // Back to B^A: its pPriv still reads A's value, not C's.
    let d4 = sys.launch_as_delegate("viewer", "initiator").unwrap();
    assert_eq!(read(&sys, d4, &ppriv_file()).unwrap(), "pPriv for A");
}

/// The fork-outcome probe reports the Figure 2 decisions directly.
#[test]
fn fork_outcomes_match_policy() {
    use maxoid::ForkOutcome;
    let sys = standard_cast();
    let b = sys.launch("viewer").unwrap();
    sys.kernel.write(b, &npriv_file(), b"v0", Mode::PRIVATE).unwrap();
    assert_eq!(sys.fork_outcome_probe("initiator", "viewer").unwrap(), ForkOutcome::FreshFork);
    assert_eq!(sys.fork_outcome_probe("initiator", "viewer").unwrap(), ForkOutcome::Kept);
    // B updates Priv(B): next delegate start discards.
    let b2 = sys.launch("viewer").unwrap();
    sys.kernel.write(b2, &npriv_file(), b"v1", Mode::PRIVATE).unwrap();
    assert_eq!(
        sys.fork_outcome_probe("initiator", "viewer").unwrap(),
        ForkOutcome::DiscardedAndReforked
    );
}

/// S4 restore semantics: after any number of delegate runs, a normal run
/// of B sees Priv(B) exactly as it was.
#[test]
fn s4_restore_after_delegate_runs() {
    let sys = standard_cast();
    let b = sys.launch("viewer").unwrap();
    sys.kernel.write(b, &npriv_file(), b"pristine", Mode::PRIVATE).unwrap();
    for _ in 0..3 {
        let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
        sys.kernel.write(d, &npriv_file(), b"scribbled", Mode::PRIVATE).unwrap();
        sys.kernel.write(d, &vpath("/data/data/viewer/junk.tmp"), b"junk", Mode::PRIVATE).unwrap();
    }
    let b2 = sys.launch("viewer").unwrap();
    assert_eq!(read(&sys, b2, &npriv_file()).unwrap(), "pristine");
    assert!(!sys.kernel.exists(b2, &vpath("/data/data/viewer/junk.tmp")));
}
