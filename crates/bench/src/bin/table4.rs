//! Regenerates Table 4 of the paper: Downloads and Media provider
//! end-to-end times — unmodified Android vs Maxoid writing to public
//! state vs Maxoid writing to volatile state. The paper's result: the
//! overhead is negligible in all cases.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin table4`

use maxoid::manifest::MaxoidManifest;
use maxoid::{DownloadRequest, MaxoidSystem, MediaKind};
use maxoid_bench::{measure, BenchJson, Measurement};
use maxoid_vfs::vpath;

const FILES: usize = 100;
const FILE_SIZE: usize = 1024; // 1 KB downloads.
const IMAGE_SIZE: usize = 780 * 1024; // 780 KB images.
const TRIALS: usize = 5;

fn main() {
    let mut json = BenchJson::new("table4");
    println!("Table 4 — provider task times ({TRIALS} trials)");
    println!("(paper: ~equal across all three columns)\n");

    // --- Download 100 x 1KB files --------------------------------------
    let dl_android = bench_downloads(DlMode::Baseline);
    let dl_public = bench_downloads(DlMode::Public);
    let dl_volatile = bench_downloads(DlMode::Volatile);
    println!("download 100 x 1KB files:");
    print_row(&mut json, "download_100x1KB", &dl_android, &dl_public, &dl_volatile);

    // --- Scan 100 images into Media ------------------------------------
    let sc_android = bench_media_scan(ScanMode::Baseline);
    let sc_public = bench_media_scan(ScanMode::Public);
    let sc_volatile = bench_media_scan(ScanMode::Volatile);
    println!("\nscan 100 x 780KB images (metadata into Media):");
    print_row(&mut json, "media_scan_100x780KB", &sc_android, &sc_public, &sc_volatile);
    json.finish();
}

fn print_row(
    json: &mut BenchJson,
    task: &str,
    android: &Measurement,
    public: &Measurement,
    volatile: &Measurement,
) {
    for (mode, m) in
        [("android", android), ("maxoid_public", public), ("maxoid_volatile", volatile)]
    {
        json.push(&format!("{task}/{mode}"), m);
    }
    println!(
        "  android {:>10.2} ms | maxoid->public {:>10.2} ms | maxoid->volatile {:>10.2} ms",
        android.mean_ns() / 1e6,
        public.mean_ns() / 1e6,
        volatile.mean_ns() / 1e6,
    );
}

#[derive(Clone, Copy, PartialEq)]
enum DlMode {
    /// Fetch + write files directly, no Downloads provider bookkeeping
    /// beyond plain records (the closest unmodified-Android analogue in
    /// our substrate: same network + file work, primary-table records).
    Baseline,
    /// Maxoid Downloads provider, public records.
    Public,
    /// Maxoid Downloads provider, volatile records.
    Volatile,
}

fn bench_downloads(mode: DlMode) -> Measurement {
    measure(
        TRIALS,
        || {},
        || {
            let sys = MaxoidSystem::boot().expect("boot");
            for i in 0..FILES {
                sys.kernel.net.publish("files.example", &format!("f{i}.bin"), vec![0u8; FILE_SIZE]);
            }
            sys.install("bench.app", vec![], MaxoidManifest::new()).expect("install");
            let pid = sys.launch("bench.app").expect("launch");
            sys.kernel
                .mkdir_all(pid, &vpath("/storage/sdcard/Download"), maxoid_vfs::Mode::PUBLIC)
                .expect("mkdir");
            match mode {
                DlMode::Baseline => {
                    // Fetch and store without volatile machinery.
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
                                maxoid_vfs::Mode::PUBLIC,
                            )
                            .expect("store");
                    }
                }
                DlMode::Public | DlMode::Volatile => {
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
                                volatile: mode == DlMode::Volatile,
                            },
                        )
                        .expect("enqueue");
                    }
                    let processed = sys.pump_downloads().expect("pump");
                    assert_eq!(processed, FILES);
                }
            }
        },
    )
}

#[derive(Clone, Copy, PartialEq)]
enum ScanMode {
    /// Write the image + metadata row directly (no proxy in the path).
    Baseline,
    /// Media scan as an initiator (public rows + public thumbnails).
    Public,
    /// Media scan as a delegate (volatile rows + volatile thumbnails).
    Volatile,
}

fn bench_media_scan(mode: ScanMode) -> Measurement {
    measure(
        TRIALS,
        || {},
        || {
            let sys = MaxoidSystem::boot().expect("boot");
            sys.install("bench.cam", vec![], MaxoidManifest::new()).expect("install");
            sys.install("bench.init", vec![], MaxoidManifest::new()).expect("install");
            let pid = match mode {
                ScanMode::Volatile => {
                    sys.launch_as_delegate("bench.cam", "bench.init").expect("launch")
                }
                _ => sys.launch("bench.cam").expect("launch"),
            };
            let image = vec![0u8; IMAGE_SIZE];
            for i in 0..FILES {
                let path = vpath("/storage/sdcard/DCIM").join(&format!("img{i}.jpg")).unwrap();
                sys.kernel
                    .mkdir_all(pid, &vpath("/storage/sdcard/DCIM"), maxoid_vfs::Mode::PUBLIC)
                    .expect("mkdir");
                sys.kernel.write(pid, &path, &image, maxoid_vfs::Mode::PUBLIC).expect("img");
                match mode {
                    ScanMode::Baseline => {
                        // Store metadata without proxy plumbing: direct
                        // primary-table row via the provider's admin view
                        // would still go through the proxy, so write the
                        // moral equivalent — a metadata file.
                        sys.kernel
                            .write(
                                pid,
                                &vpath("/storage/sdcard/DCIM")
                                    .join(&format!(".img{i}.meta"))
                                    .unwrap(),
                                format!("img{i},{IMAGE_SIZE}").as_bytes(),
                                maxoid_vfs::Mode::PUBLIC,
                            )
                            .expect("meta");
                    }
                    _ => {
                        sys.scan_media(
                            pid,
                            &path,
                            MediaKind::Image,
                            &format!("img{i}"),
                            IMAGE_SIZE,
                        )
                        .expect("scan");
                    }
                }
            }
        },
    )
}
