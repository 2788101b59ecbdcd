//! Behavioural models of the Table 1 data-processing apps.
//!
//! The paper manually studies 77 Google Play apps and tabulates the state
//! each leaves behind after processing its target data (Table 1). These
//! models perform the *same writes* — recent-file XML / databases in
//! private state, file copies / thumbnails / logs / Media rows in public
//! state — so the leak study is reproducible, and so running the same
//! binaries as Maxoid delegates demonstrates the confinement.
//!
//! The models are honest legacy apps: they use ordinary paths and
//! provider URIs and never know whether they run confined (U3).

use crate::compute;
use maxoid::{MaxoidSystem, MediaKind, Pid, SystemResult};
use maxoid_vfs::{vpath, Mode, VPath};

/// How a document reaches a viewer.
#[derive(Debug, Clone)]
pub enum FileRef {
    /// A plain path the viewer opens itself.
    Path(VPath),
    /// Raw bytes received through a content URI / file descriptor (the
    /// per-URI grant pattern); the viewer never sees a path.
    Content {
        /// A display name for the recent-files list.
        name: String,
        /// The document bytes.
        data: Vec<u8>,
    },
}

impl FileRef {
    fn name(&self) -> String {
        match self {
            FileRef::Path(p) => p.file_name().unwrap_or("unnamed").to_string(),
            FileRef::Content { name, .. } => name.clone(),
        }
    }
}

fn private_dir(pkg: &str) -> VPath {
    vpath("/data/data").join(pkg).expect("package names are valid path components")
}

/// Appends a line to a private app file (shared-prefs XML or app DB are
/// both private files in Android, §2.1).
fn append_private_line(
    sys: &MaxoidSystem,
    pid: Pid,
    pkg: &str,
    file: &str,
    line: &str,
) -> SystemResult<()> {
    let path = private_dir(pkg).join(file)?;
    let mut data = sys.kernel.read(pid, &path).unwrap_or_default();
    data.extend_from_slice(line.as_bytes());
    data.push(b'\n');
    sys.kernel.write(pid, &path, &data, Mode::PRIVATE)?;
    Ok(())
}

/// Reads the lines of a private app file (empty when absent).
pub fn read_private_lines(sys: &MaxoidSystem, pid: Pid, pkg: &str, file: &str) -> Vec<String> {
    let path = match private_dir(pkg).join(file) {
        Ok(p) => p,
        Err(_) => return Vec::new(),
    };
    match sys.kernel.read(pid, &path) {
        Ok(data) => String::from_utf8_lossy(&data).lines().map(|l| l.to_string()).collect(),
        Err(_) => Vec::new(),
    }
}

/// Adobe Reader model (Table 1, document viewer row).
///
/// Opening a file records it in the recent-files XML; opening a *content
/// URI* additionally copies the document to the SD card — the leak the
/// paper calls out for Email attachments.
#[derive(Debug, Clone)]
pub struct AdobeReader {
    /// The model's package name.
    pub pkg: String,
}

impl Default for AdobeReader {
    fn default() -> Self {
        AdobeReader { pkg: "com.adobe.reader".into() }
    }
}

impl AdobeReader {
    /// Result of opening a document.
    pub fn open(&self, sys: &MaxoidSystem, pid: Pid, file: &FileRef) -> SystemResult<u64> {
        let (name, data) = match file {
            FileRef::Path(p) => (file.name(), sys.kernel.read(pid, p)?),
            FileRef::Content { name, data } => {
                // A content-URI open: Reader saves a copy on the SD card.
                let copy = vpath("/storage/sdcard/Download").join(name)?;
                sys.kernel.mkdir_all(pid, &vpath("/storage/sdcard/Download"), Mode::PUBLIC)?;
                sys.kernel.write(pid, &copy, data, Mode::PUBLIC)?;
                (name.clone(), data.clone())
            }
        };
        // XML: recent files (private state).
        append_private_line(sys, pid, &self.pkg, "recent_files.xml", &name)?;
        // Render (CPU-bound; unaffected by confinement).
        Ok(compute::render_document(&data, 2))
    }

    /// In-file search (Table 5 task).
    pub fn search(
        &self,
        sys: &MaxoidSystem,
        pid: Pid,
        path: &VPath,
        needle: &str,
    ) -> SystemResult<usize> {
        let data = sys.kernel.read(pid, path)?;
        Ok(compute::in_file_search(&data, needle.as_bytes(), 4))
    }
}

/// Kingsoft Office model (Table 1): recent files in an app-defined
/// format, a thumbnail on the SD card, and entries in a database *stored
/// on the SD card*.
#[derive(Debug, Clone)]
pub struct KingsoftOffice {
    /// The model's package name.
    pub pkg: String,
}

impl Default for KingsoftOffice {
    fn default() -> Self {
        KingsoftOffice { pkg: "cn.wps.moffice".into() }
    }
}

impl KingsoftOffice {
    /// Opens a document, leaving the Table 1 traces.
    pub fn open(&self, sys: &MaxoidSystem, pid: Pid, path: &VPath) -> SystemResult<u64> {
        let data = sys.kernel.read(pid, path)?;
        let name = path.file_name().unwrap_or("doc").to_string();
        // ADF: recent files (private, app-defined format).
        append_private_line(sys, pid, &self.pkg, "recent.adf", &format!("R|{name}"))?;
        // Thumbnail on the SD card.
        sys.kernel.mkdir_all(pid, &vpath("/storage/sdcard/.office_thumbs"), Mode::PUBLIC)?;
        let thumb = vpath("/storage/sdcard/.office_thumbs").join(&format!("{name}.png"))?;
        sys.kernel.write(pid, &thumb, &data[..data.len().min(32)], Mode::PUBLIC)?;
        // Entries in a database stored on the SD card.
        let db = vpath("/storage/sdcard/.office_db");
        let mut existing = sys.kernel.read(pid, &db).unwrap_or_default();
        existing.extend_from_slice(format!("open:{name}\n").as_bytes());
        sys.kernel.write(pid, &db, &existing, Mode::PUBLIC)?;
        Ok(compute::render_document(&data, 1))
    }
}

/// Barcode Scanner model (Table 1): recent scans in a private DB; the
/// decoded text is the output handed to the invoker.
#[derive(Debug, Clone)]
pub struct BarcodeScanner {
    /// The model's package name.
    pub pkg: String,
}

impl Default for BarcodeScanner {
    fn default() -> Self {
        BarcodeScanner { pkg: "com.google.zxing".into() }
    }
}

impl BarcodeScanner {
    /// Scans a QR code; stores the decoded payload in the recent-scans DB.
    pub fn scan(&self, sys: &MaxoidSystem, pid: Pid, code_id: u64) -> SystemResult<String> {
        let payload = compute::qr_payload(code_id);
        append_private_line(sys, pid, &self.pkg, "scans.db", &payload)?;
        Ok(payload)
    }
}

/// CamScanner model (Table 1): scanning a page writes an image file, a
/// thumbnail and a log file to the SD card, plus a private recent-scans
/// DB entry.
#[derive(Debug, Clone)]
pub struct CamScanner {
    /// The model's package name.
    pub pkg: String,
}

impl Default for CamScanner {
    fn default() -> Self {
        CamScanner { pkg: "com.intsig.camscanner".into() }
    }
}

impl CamScanner {
    /// Scans a document page (Table 5 task: "process a scanned page").
    pub fn scan_page(
        &self,
        sys: &MaxoidSystem,
        pid: Pid,
        page_name: &str,
        raw_pixels: &[u8],
    ) -> SystemResult<VPath> {
        let processed = compute::process_scanned_page(raw_pixels, 3);
        let dir = vpath("/storage/sdcard/CamScanner");
        sys.kernel.mkdir_all(pid, &dir, Mode::PUBLIC)?;
        // Image file saved to SD card.
        let img = dir.join(&format!("{page_name}.jpg"))?;
        sys.kernel.write(pid, &img, &processed, Mode::PUBLIC)?;
        // Thumbnail on SD card.
        let thumb = dir.join(&format!(".{page_name}.thumb"))?;
        sys.kernel.write(pid, &thumb, &processed[..processed.len().min(16)], Mode::PUBLIC)?;
        // Log file on the SD card.
        let log = dir.join("scan.log")?;
        let mut existing = sys.kernel.read(pid, &log).unwrap_or_default();
        existing.extend_from_slice(format!("scanned {page_name}\n").as_bytes());
        sys.kernel.write(pid, &log, &existing, Mode::PUBLIC)?;
        // Private DB: recent scans.
        append_private_line(sys, pid, &self.pkg, "scans.db", page_name)?;
        Ok(img)
    }
}

/// CameraMX model (Table 1): taking a photo writes the file to the SD
/// card and inserts a Media provider row; editing adds another row.
#[derive(Debug, Clone)]
pub struct CameraMx {
    /// The model's package name.
    pub pkg: String,
}

impl Default for CameraMx {
    fn default() -> Self {
        CameraMx { pkg: "com.magix.camera_mx".into() }
    }
}

impl CameraMx {
    /// Takes a photo (Table 5 task).
    pub fn take_photo(
        &self,
        sys: &MaxoidSystem,
        pid: Pid,
        name: &str,
        bytes: usize,
    ) -> SystemResult<VPath> {
        let photo = compute::capture_photo(bytes, name.len() as u64 + 1);
        let dir = vpath("/storage/sdcard/DCIM");
        sys.kernel.mkdir_all(pid, &dir, Mode::PUBLIC)?;
        let path = dir.join(&format!("{name}.jpg"))?;
        sys.kernel.write(pid, &path, &photo, Mode::PUBLIC)?;
        // New entry in Media provider (+ its thumbnail service).
        sys.scan_media(pid, &path, MediaKind::Image, name, photo.len())?;
        Ok(path)
    }

    /// Saves an edited photo (Table 5 task): a new file and Media row.
    pub fn save_edited(
        &self,
        sys: &MaxoidSystem,
        pid: Pid,
        original: &VPath,
    ) -> SystemResult<VPath> {
        let data = sys.kernel.read(pid, original)?;
        let edited = compute::process_scanned_page(&data, 1);
        let name = format!("{}_edit", original.file_name().unwrap_or("photo"));
        let path = vpath("/storage/sdcard/DCIM").join(&format!("{name}.jpg"))?;
        sys.kernel.write(pid, &path, &edited, Mode::PUBLIC)?;
        sys.scan_media(pid, &path, MediaKind::Image, &name, edited.len())?;
        Ok(path)
    }
}

/// VPlayer model (Table 1): playing a video records private playback
/// history and drops a thumbnail on the SD card.
#[derive(Debug, Clone)]
pub struct VPlayer {
    /// The model's package name.
    pub pkg: String,
}

impl Default for VPlayer {
    fn default() -> Self {
        VPlayer { pkg: "me.abitno.vplayer".into() }
    }
}

impl VPlayer {
    /// Plays a video file.
    pub fn play(&self, sys: &MaxoidSystem, pid: Pid, path: &VPath) -> SystemResult<u64> {
        let data = sys.kernel.read(pid, path)?;
        let name = path.file_name().unwrap_or("video").to_string();
        // DB: playback history (private).
        append_private_line(sys, pid, &self.pkg, "history.db", &name)?;
        // Thumbnail for this video on the SD card.
        sys.kernel.mkdir_all(pid, &vpath("/storage/sdcard/.vplayer"), Mode::PUBLIC)?;
        let thumb = vpath("/storage/sdcard/.vplayer").join(&format!("{name}.thumb"))?;
        sys.kernel.write(pid, &thumb, &data[..data.len().min(16)], Mode::PUBLIC)?;
        Ok(compute::render_document(&data, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid::manifest::MaxoidManifest;

    fn boot_with(pkgs: &[&str]) -> MaxoidSystem {
        let sys = MaxoidSystem::boot().unwrap();
        for p in pkgs {
            sys.install(p, vec![], MaxoidManifest::new()).unwrap();
        }
        sys
    }

    #[test]
    fn reader_leaves_table1_traces_when_unconfined() {
        let reader = AdobeReader::default();
        let mut sys = boot_with(&[&reader.pkg]);
        let pid = sys.launch(&reader.pkg).unwrap();
        reader
            .open(
                &mut sys,
                pid,
                &FileRef::Content { name: "secret.pdf".into(), data: b"PDF secret".to_vec() },
            )
            .unwrap();
        // Private trace: recent files.
        assert_eq!(
            read_private_lines(&sys, pid, &reader.pkg, "recent_files.xml"),
            vec!["secret.pdf"]
        );
        // Public trace: copy on the SD card — visible to any other app.
        let other_pkg = "com.other";
        let sys2 = sys;
        sys2.install(other_pkg, vec![], MaxoidManifest::new()).unwrap();
        let other = sys2.launch(other_pkg).unwrap();
        assert_eq!(
            sys2.kernel.read(other, &vpath("/storage/sdcard/Download/secret.pdf")).unwrap(),
            b"PDF secret"
        );
    }

    #[test]
    fn camscanner_leaves_three_public_traces() {
        let cs = CamScanner::default();
        let mut sys = boot_with(&[&cs.pkg]);
        let pid = sys.launch(&cs.pkg).unwrap();
        let px = compute::capture_photo(128, 9);
        cs.scan_page(&mut sys, pid, "contract", &px).unwrap();
        for p in [
            "/storage/sdcard/CamScanner/contract.jpg",
            "/storage/sdcard/CamScanner/.contract.thumb",
            "/storage/sdcard/CamScanner/scan.log",
        ] {
            assert!(sys.kernel.exists(pid, &vpath(p)), "missing {p}");
        }
        assert_eq!(read_private_lines(&sys, pid, &cs.pkg, "scans.db"), vec!["contract"]);
    }

    #[test]
    fn cameramx_registers_media_rows() {
        let cam = CameraMx::default();
        let mut sys = boot_with(&[&cam.pkg]);
        let pid = sys.launch(&cam.pkg).unwrap();
        let photo = cam.take_photo(&mut sys, pid, "p1", 256).unwrap();
        cam.save_edited(&mut sys, pid, &photo).unwrap();
        let images = maxoid::Uri::parse("content://media/images").unwrap();
        let rs = sys.cp_query(pid, &images, &maxoid::QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn scanner_records_history() {
        let sc = BarcodeScanner::default();
        let mut sys = boot_with(&[&sc.pkg]);
        let pid = sys.launch(&sc.pkg).unwrap();
        let url = sc.scan(&mut sys, pid, 7).unwrap();
        assert!(url.contains("/item/7"));
        assert_eq!(read_private_lines(&sys, pid, &sc.pkg, "scans.db"), vec![url]);
    }

    #[test]
    fn vplayer_and_office_traces() {
        let vp = VPlayer::default();
        let ks = KingsoftOffice::default();
        let mut sys = boot_with(&[&vp.pkg, &ks.pkg]);
        let vpid = sys.launch(&vp.pkg).unwrap();
        sys.kernel
            .write(vpid, &vpath("/storage/sdcard/movie.mp4"), b"video bytes", Mode::PUBLIC)
            .unwrap();
        vp.play(&mut sys, vpid, &vpath("/storage/sdcard/movie.mp4")).unwrap();
        assert!(sys.kernel.exists(vpid, &vpath("/storage/sdcard/.vplayer/movie.mp4.thumb")));

        let kpid = sys.launch(&ks.pkg).unwrap();
        sys.kernel
            .write(kpid, &vpath("/storage/sdcard/report.doc"), b"doc bytes", Mode::PUBLIC)
            .unwrap();
        ks.open(&mut sys, kpid, &vpath("/storage/sdcard/report.doc")).unwrap();
        assert!(sys.kernel.exists(kpid, &vpath("/storage/sdcard/.office_db")));
        assert!(sys.kernel.exists(kpid, &vpath("/storage/sdcard/.office_thumbs/report.doc.png")));
    }
}
