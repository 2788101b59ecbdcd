//! Criterion version of the Table 4 provider benchmarks: 100 x 1KB
//! downloads (public vs volatile) and 100-image Media scans (public vs
//! volatile), against a no-provider baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxoid::manifest::MaxoidManifest;
use maxoid::{DownloadRequest, MaxoidSystem, MediaKind};
use maxoid_vfs::{vpath, Mode};

const FILES: usize = 100;
const FILE_SIZE: usize = 1024;
// Criterion repeats each iteration many times; a smaller image than the
// paper's 780 KB keeps total bench time sane without changing the story.
const IMAGE_SIZE: usize = 64 * 1024;

fn bench_downloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4/download_100x1KB");
    g.sample_size(10);
    for variant in ["baseline", "public", "volatile"] {
        g.bench_function(BenchmarkId::from_parameter(variant), |b| {
            b.iter(|| {
                let sys = MaxoidSystem::boot().expect("boot");
                for i in 0..FILES {
                    sys.kernel.net.publish(
                        "files.example",
                        &format!("f{i}.bin"),
                        vec![0u8; FILE_SIZE],
                    );
                }
                sys.install("bench.app", vec![], MaxoidManifest::new()).expect("install");
                let pid = sys.launch("bench.app").expect("launch");
                sys.kernel
                    .mkdir_all(pid, &vpath("/storage/sdcard/Download"), Mode::PUBLIC)
                    .expect("mkdir");
                if variant == "baseline" {
                    for i in 0..FILES {
                        let data = sys
                            .kernel
                            .http_get(pid, &format!("files.example/f{i}.bin"))
                            .expect("fetch");
                        sys.kernel
                            .write(
                                pid,
                                &vpath("/storage/sdcard/Download")
                                    .join(&format!("f{i}.bin"))
                                    .unwrap(),
                                &data,
                                Mode::PUBLIC,
                            )
                            .expect("store");
                    }
                } else {
                    for i in 0..FILES {
                        sys.enqueue_download(
                            pid,
                            &DownloadRequest {
                                url: format!("files.example/f{i}.bin"),
                                dest: vpath("/storage/sdcard/Download")
                                    .join(&format!("f{i}.bin"))
                                    .unwrap(),
                                title: format!("f{i}.bin"),
                                headers: vec![],
                                volatile: variant == "volatile",
                            },
                        )
                        .expect("enqueue");
                    }
                    assert_eq!(sys.pump_downloads().expect("pump"), FILES);
                }
            });
        });
    }
    g.finish();
}

fn bench_media_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4/media_scan_100");
    g.sample_size(10);
    for variant in ["public", "volatile"] {
        g.bench_function(BenchmarkId::from_parameter(variant), |b| {
            b.iter(|| {
                let sys = MaxoidSystem::boot().expect("boot");
                sys.install("bench.cam", vec![], MaxoidManifest::new()).expect("install");
                sys.install("bench.init", vec![], MaxoidManifest::new()).expect("install");
                let pid = if variant == "volatile" {
                    sys.launch_as_delegate("bench.cam", "bench.init").expect("launch")
                } else {
                    sys.launch("bench.cam").expect("launch")
                };
                let image = vec![0u8; IMAGE_SIZE];
                sys.kernel
                    .mkdir_all(pid, &vpath("/storage/sdcard/DCIM"), Mode::PUBLIC)
                    .expect("mkdir");
                for i in 0..FILES {
                    let path = vpath("/storage/sdcard/DCIM").join(&format!("img{i}.jpg")).unwrap();
                    sys.kernel.write(pid, &path, &image, Mode::PUBLIC).expect("img");
                    sys.scan_media(pid, &path, MediaKind::Image, &format!("img{i}"), IMAGE_SIZE)
                        .expect("scan");
                }
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_downloads, bench_media_scan);
criterion_main!(benches);
