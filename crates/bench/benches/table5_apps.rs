//! Criterion version of the Table 5 application-task benchmarks:
//! Adobe Reader open/search, CamScanner page processing, CameraMX
//! take/save photo, each in android/initiator/delegate mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxoid::manifest::MaxoidManifest;
use maxoid::{MaxoidSystem, Pid};
use maxoid_apps::{compute, AdobeReader, CamScanner, CameraMx, FileRef};
use maxoid_vfs::{vpath, Mode};

// Smaller than the paper's 1.6 MB to keep Criterion's many iterations
// affordable; the CPU-vs-I/O balance is preserved.
const PDF_SIZE: usize = 256 * 1024;

fn setup(mode: &str, pkg: &str) -> (MaxoidSystem, Pid) {
    let sys = MaxoidSystem::boot().expect("boot");
    sys.install(pkg, vec![], MaxoidManifest::new()).expect("install");
    sys.install("bench.init", vec![], MaxoidManifest::new()).expect("install");
    let seeder = sys.launch("bench.init").expect("seeder");
    let mut doc = compute::capture_photo(PDF_SIZE, 11);
    for chunk in doc.chunks_mut(10_000) {
        if chunk.len() >= 6 {
            chunk[..6].copy_from_slice(b"needle");
        }
    }
    sys.kernel
        .write(seeder, &vpath("/storage/sdcard/bench.pdf"), &doc, Mode::PUBLIC)
        .expect("seed");
    let pid = if mode == "delegate" {
        sys.launch_as_delegate(pkg, "bench.init").expect("delegate")
    } else {
        sys.launch(pkg).expect("launch")
    };
    (sys, pid)
}

fn bench_reader(c: &mut Criterion) {
    let reader = AdobeReader::default();
    let mut g = c.benchmark_group("table5/adobe_reader");
    g.sample_size(10);
    for mode in ["android", "initiator", "delegate"] {
        g.bench_function(BenchmarkId::new("open_file", mode), |b| {
            let (mut sys, pid) = setup(mode, &reader.pkg);
            let data = sys.kernel.read(pid, &vpath("/storage/sdcard/bench.pdf")).unwrap();
            b.iter(|| {
                reader
                    .open(
                        &mut sys,
                        pid,
                        &FileRef::Content { name: "bench.pdf".into(), data: data.clone() },
                    )
                    .expect("open");
            });
        });
        g.bench_function(BenchmarkId::new("in_file_search", mode), |b| {
            let (sys, pid) = setup(mode, &reader.pkg);
            b.iter(|| {
                std::hint::black_box(
                    reader
                        .search(&sys, pid, &vpath("/storage/sdcard/bench.pdf"), "needle")
                        .expect("search"),
                );
            });
        });
    }
    g.finish();
}

fn bench_camscanner(c: &mut Criterion) {
    let scanner = CamScanner::default();
    let mut g = c.benchmark_group("table5/camscanner");
    g.sample_size(10);
    for mode in ["android", "initiator", "delegate"] {
        g.bench_function(BenchmarkId::new("process_page", mode), |b| {
            let (mut sys, pid) = setup(mode, &scanner.pkg);
            let pixels = compute::capture_photo(100_000, 3);
            let mut i = 0;
            b.iter(|| {
                scanner.scan_page(&mut sys, pid, &format!("page{i}"), &pixels).expect("scan");
                i += 1;
            });
        });
    }
    g.finish();
}

fn bench_cameramx(c: &mut Criterion) {
    let cam = CameraMx::default();
    let mut g = c.benchmark_group("table5/cameramx");
    g.sample_size(10);
    for mode in ["android", "initiator", "delegate"] {
        g.bench_function(BenchmarkId::new("take_photo", mode), |b| {
            let (mut sys, pid) = setup(mode, &cam.pkg);
            let mut i = 0;
            b.iter(|| {
                cam.take_photo(&mut sys, pid, &format!("p{i}"), 100_000).expect("photo");
                i += 1;
            });
        });
        g.bench_function(BenchmarkId::new("save_edited_photo", mode), |b| {
            let (mut sys, pid) = setup(mode, &cam.pkg);
            let photo = cam.take_photo(&mut sys, pid, "base", 100_000).expect("photo");
            b.iter(|| {
                cam.save_edited(&mut sys, pid, &photo).expect("edit");
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_reader, bench_camscanner, bench_cameramx);
criterion_main!(benches);
