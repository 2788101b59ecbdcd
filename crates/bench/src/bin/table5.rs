//! Regenerates Table 5 of the paper: user-perceivable latency of
//! application tasks under Android vs Maxoid (initiator / delegate).
//! The paper's result: differences are lost in the noise because the
//! tasks are dominated by CPU work (rendering, image processing), which
//! Maxoid does not touch.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin table5`
//! Writes `BENCH_table5.json`, one row per `<app>/<task>/<mode>`.

use maxoid::manifest::MaxoidManifest;
use maxoid::{MaxoidSystem, Pid};
use maxoid_apps::{compute, AdobeReader, CamScanner, CameraMx, FileRef};
use maxoid_bench::{measure, BenchJson};
use maxoid_vfs::{vpath, Mode};

const TRIALS: usize = 5;
const PDF_SIZE: usize = 1_600_000; // The paper's 1.6 MB PDF.

#[derive(Clone, Copy, PartialEq)]
enum Mode3 {
    Android,
    Initiator,
    Delegate,
}

impl Mode3 {
    const ALL: [Mode3; 3] = [Mode3::Android, Mode3::Initiator, Mode3::Delegate];

    fn label(self) -> &'static str {
        match self {
            Mode3::Android => "android",
            Mode3::Initiator => "initiator",
            Mode3::Delegate => "delegate",
        }
    }
}

fn main() {
    let mut json = BenchJson::new("table5");
    println!("Table 5 — application task latency ({TRIALS} trials)");
    println!("(paper: all three columns statistically indistinguishable)\n");
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>12}",
        "App", "Task", "Android", "Initiator", "Delegate"
    );
    println!("{}", "-".repeat(78));

    let reader_pkg = AdobeReader::default().pkg;
    let scanner_pkg = CamScanner::default().pkg;
    let camera_pkg = CameraMx::default().pkg;

    run_task(&mut json, "Adobe Reader", "open a 1.6 MB file", &reader_pkg, |sys, pid| {
        let reader = AdobeReader::default();
        let doc = vpath("/storage/sdcard/bench.pdf");
        let data = sys.kernel.read(pid, &doc).expect("doc seeded");
        std::hint::black_box(
            reader
                .open(sys, pid, &FileRef::Content { name: "bench.pdf".into(), data })
                .expect("open"),
        );
    });

    run_task(&mut json, "Adobe Reader", "in-file search", &reader_pkg, |sys, pid| {
        let reader = AdobeReader::default();
        let doc = vpath("/storage/sdcard/bench.pdf");
        std::hint::black_box(reader.search(sys, pid, &doc, "needle").expect("search"));
    });

    run_task(&mut json, "CamScanner", "process a scanned page", &scanner_pkg, |sys, pid| {
        let scanner = CamScanner::default();
        let pixels = compute::capture_photo(400_000, 3);
        scanner.scan_page(sys, pid, "bench_page", &pixels).expect("scan");
    });

    run_task(&mut json, "CameraMX", "take a photo", &camera_pkg, |sys, pid| {
        let cam = CameraMx::default();
        cam.take_photo(sys, pid, "bench_photo", 500_000).expect("photo");
    });

    run_task(&mut json, "CameraMX", "save an edited photo", &camera_pkg, |sys, pid| {
        let cam = CameraMx::default();
        let p = vpath("/storage/sdcard/DCIM/bench_photo.jpg");
        if !sys.kernel.exists(pid, &p) {
            cam.take_photo(sys, pid, "bench_photo", 500_000).expect("photo");
        }
        cam.save_edited(sys, pid, &p).expect("edit");
    });
    json.finish();
}

/// Runs one task in all three modes, records `<app>/<task>/<mode>` and
/// prints the row.
fn run_task(
    json: &mut BenchJson,
    app: &str,
    task: &str,
    pkg: &str,
    op: impl Fn(&mut MaxoidSystem, Pid),
) {
    let mut ms = Vec::new();
    for mode in Mode3::ALL {
        let m = measure(
            TRIALS,
            || {},
            || {
                let (mut sys, pid) = setup(mode, pkg);
                op(&mut sys, pid);
            },
        );
        json.push(&format!("{app}/{task}/{}", mode.label()), &m);
        ms.push(m.mean_ns() / 1e6);
    }
    println!("{:<14} {:<24} {:>9.1} ms {:>9.1} ms {:>9.1} ms", app, task, ms[0], ms[1], ms[2]);
}

/// Boots a system with `pkg` running in the requested mode and a 1.6 MB
/// document (with search needles) seeded on public external storage.
///
/// The Android baseline and the Maxoid-initiator setup both run the app
/// normally — the paper's point is precisely that the initiator path is
/// identical to stock Android; the delegate column adds the confinement.
fn setup(mode: Mode3, pkg: &str) -> (MaxoidSystem, Pid) {
    let sys = MaxoidSystem::boot().expect("boot");
    sys.install(pkg, vec![], MaxoidManifest::new()).expect("install");
    sys.install("bench.init", vec![], MaxoidManifest::new()).expect("install");
    let seeder = sys.launch("bench.init").expect("seeder");
    let mut doc = compute::capture_photo(PDF_SIZE, 11);
    for chunk in doc.chunks_mut(100_000) {
        if chunk.len() >= 6 {
            chunk[..6].copy_from_slice(b"needle");
        }
    }
    sys.kernel
        .write(seeder, &vpath("/storage/sdcard/bench.pdf"), &doc, Mode::PUBLIC)
        .expect("seed");
    let pid = match mode {
        Mode3::Android | Mode3::Initiator => sys.launch(pkg).expect("launch"),
        Mode3::Delegate => sys.launch_as_delegate(pkg, "bench.init").expect("delegate"),
    };
    (sys, pid)
}
