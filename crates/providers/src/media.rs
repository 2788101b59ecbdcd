//! The Media provider.
//!
//! Media "defines multiple SQL tables and views ... it stores data for
//! different types of media files in a single base table called `files`;
//! `images`, `audio_meta` and `video` are views defined as selections over
//! `files`. `audio` is a view defined on ... `audio_meta`" (§5.3). The COW
//! proxy manages the hierarchy of per-initiator COW views. Media also runs
//! extra services — thumbnail generation — and, like Downloads, tracks
//! which state a record/request belongs to so a delegate's thumbnails land
//! in the initiator's volatile storage.

use crate::cow::{CowProvider, Schema};
use crate::locator::{FileLocator, SystemFiles};
use crate::provider::{Caller, ProviderError, ProviderResult};
use maxoid_cowproxy::DbView;
use maxoid_kernel::ExecContext;
use maxoid_sqldb::Database;
use maxoid_vfs::VPath;

/// Authority of the Media provider.
pub const AUTHORITY: &str = "media";

/// The `files` base table, the thumbnails table, and the user-defined
/// view hierarchy: `images`, `audio_meta` and `video` over `files`, and
/// `audio` over `audio_meta` (a second hierarchy level).
static SCHEMA: Schema = Schema {
    authority: AUTHORITY,
    ddl: "CREATE TABLE files (_id INTEGER PRIMARY KEY, _data TEXT, \
          media_type INTEGER, title TEXT, _size INTEGER, date_added INTEGER, \
          bucket_id INTEGER);
          CREATE INDEX idx_files_bucket_id ON files (bucket_id);
          CREATE TABLE thumbnails (_id INTEGER PRIMARY KEY, file_id INTEGER, \
          _data TEXT);",
    views: &[
        ("images", "SELECT _id, _data, title, _size, date_added FROM files WHERE media_type = 1"),
        (
            "audio_meta",
            "SELECT _id, _data, title, _size, date_added FROM files WHERE media_type = 2",
        ),
        ("video", "SELECT _id, _data, title, _size, date_added FROM files WHERE media_type = 3"),
        ("audio", "SELECT _id, _data, title FROM audio_meta"),
    ],
    routes: &[
        ("files", "files"),
        ("images", "images"),
        ("audio", "audio"),
        ("audio_meta", "audio_meta"),
        ("video", "video"),
        ("thumbnails", "thumbnails"),
    ],
    links: &[("thumbnails", "file_id", "files")],
};

/// Media types stored in the `files` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaKind {
    /// Still image.
    Image,
    /// Audio track.
    Audio,
    /// Video clip.
    Video,
}

impl MediaKind {
    /// The `media_type` column value.
    pub fn type_code(self) -> i64 {
        match self {
            MediaKind::Image => 1,
            MediaKind::Audio => 2,
            MediaKind::Video => 3,
        }
    }
}

/// The Media system content provider with its view hierarchy and thumbnail
/// service, whose only state is the system file access thumbnails need.
pub type MediaProvider<L> = CowProvider<SystemFiles<L>>;

impl<L: FileLocator> CowProvider<SystemFiles<L>> {
    /// Creates the provider, journaled when given a journal and around a
    /// journal-recovered database when given one (see [`CowProvider`]).
    pub fn open(
        files: SystemFiles<L>,
        journal: Option<maxoid_journal::Journal>,
        recovered: Option<Database>,
    ) -> Self {
        CowProvider::with_schema(&SCHEMA, files, journal, recovered)
    }

    /// Scans a media file: inserts its metadata and generates a thumbnail
    /// (Media's background service). The record and the thumbnail follow
    /// the caller's state: a delegate's scan is confined to its
    /// initiator's volatile state.
    pub fn scan_file(
        &mut self,
        caller: &Caller,
        path: &VPath,
        kind: MediaKind,
        title: &str,
        data_len: usize,
    ) -> ProviderResult<i64> {
        let view = match &caller.ctx {
            ExecContext::Normal => DbView::Primary,
            ExecContext::OnBehalfOf(init) => DbView::Delegate { initiator: init.pkg().to_string() },
        };
        let id = self.proxy.insert(
            &view,
            "files",
            &[
                ("_data", path.as_str().into()),
                ("media_type", kind.type_code().into()),
                ("title", title.into()),
                ("_size", (data_len as i64).into()),
                ("date_added", 0.into()),
                ("bucket_id", bucket_id(path).into()),
            ],
        )?;
        // Thumbnail generation: a small derived file, written to public or
        // volatile storage according to the record's state.
        let thumb_path = thumbnail_path(path)?;
        let thumb_bytes = synth_thumbnail(path, data_len);
        let initiator = caller.ctx.initiator().map(|a| a.pkg().to_string());
        self.services
            .write(initiator.as_deref(), &thumb_path, &thumb_bytes)
            .map_err(maxoid_kernel::KernelError::Fs)?;
        self.proxy.insert(
            &view,
            "thumbnails",
            &[("file_id", id.into()), ("_data", thumb_path.as_str().into())],
        )?;
        Ok(id)
    }

    /// Reads a thumbnail, resolving provenance like the Downloads
    /// provider's file wrapper.
    pub fn open_thumbnail(
        &self,
        initiator: Option<&str>,
        media_path: &VPath,
    ) -> ProviderResult<Vec<u8>> {
        let thumb = thumbnail_path(media_path).map_err(ProviderError::Kernel)?;
        self.services
            .read(initiator, &thumb)
            .map_err(|e| ProviderError::Kernel(maxoid_kernel::KernelError::Fs(e)))
    }
}

/// Thumbnail location convention: `<dir>/.thumbnails/<name>.thumb`.
fn thumbnail_path(media: &VPath) -> Result<VPath, maxoid_kernel::KernelError> {
    let parent = media
        .parent()
        .ok_or(maxoid_kernel::KernelError::Fs(maxoid_vfs::VfsError::InvalidArgument))?;
    let name = media
        .file_name()
        .ok_or(maxoid_kernel::KernelError::Fs(maxoid_vfs::VfsError::InvalidArgument))?;
    parent
        .join(".thumbnails")
        .and_then(|d| d.join(&format!("{name}.thumb")))
        .map_err(maxoid_kernel::KernelError::Fs)
}

/// Android's bucket id: a hash of the lowercased parent directory, so all
/// files in one folder (e.g. `/sdcard/DCIM/Camera`) share a bucket. Gallery
/// apps query `bucket_id = ?`, which the indexed `files` table serves with
/// an index probe.
fn bucket_id(media: &VPath) -> i64 {
    let dir = media.parent().map(|p| p.as_str().to_ascii_lowercase()).unwrap_or_default();
    // djb2, truncated to i32 like Android's String.hashCode-based bucket.
    let mut h: u32 = 5381;
    for b in dir.bytes() {
        h = h.wrapping_mul(33).wrapping_add(b as u32);
    }
    h as i32 as i64
}

/// Deterministic fake thumbnail bytes derived from the source.
fn synth_thumbnail(path: &VPath, data_len: usize) -> Vec<u8> {
    let mut bytes = format!("THUMB:{}:{data_len}", path.as_str()).into_bytes();
    bytes.truncate(64);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locator::SimpleLocator;
    use crate::provider::{ContentProvider, ContentValues, QueryArgs};
    use crate::uri::Uri;
    use maxoid_sqldb::Value;
    use maxoid_vfs::{vpath, Vfs};

    fn provider() -> MediaProvider<SimpleLocator> {
        MediaProvider::open(SystemFiles::new(Vfs::new(), SimpleLocator), None, None)
    }

    fn images_uri() -> Uri {
        Uri::parse("content://media/images").unwrap()
    }

    #[test]
    fn scan_inserts_row_and_thumbnail() {
        let mut p = provider();
        let cam = Caller::normal("com.camera");
        let id =
            p.scan_file(&cam, &vpath("/sdcard/DCIM/p1.jpg"), MediaKind::Image, "p1", 1000).unwrap();
        assert_eq!(id, 1);
        let rs = p.query(&cam, &images_uri(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let thumb = p.open_thumbnail(None, &vpath("/sdcard/DCIM/p1.jpg")).unwrap();
        assert!(thumb.starts_with(b"THUMB:"));
    }

    #[test]
    fn bucket_queries_use_the_index() {
        let mut p = provider();
        let cam = Caller::normal("com.camera");
        for (dir, n) in [("/sdcard/DCIM/Camera", 3), ("/sdcard/Download", 2)] {
            for i in 0..n {
                p.scan_file(&cam, &vpath(&format!("{dir}/f{i}.jpg")), MediaKind::Image, "f", 10)
                    .unwrap();
            }
        }
        let camera_bucket = bucket_id(&vpath("/sdcard/DCIM/Camera/f0.jpg"));
        p.proxy().db().stats.reset();
        let rs = p
            .proxy()
            .db()
            .query("SELECT _id FROM files WHERE bucket_id = ?", &[Value::Integer(camera_bucket)])
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(p.proxy().db().stats.index_probes.get(), 1);
        assert_eq!(p.proxy().db().stats.rows_scanned.get(), 0);
    }

    #[test]
    fn delegate_scan_is_confined() {
        let mut p = provider();
        // Seed a public image.
        p.scan_file(
            &Caller::normal("com.camera"),
            &vpath("/sdcard/DCIM/pub.jpg"),
            MediaKind::Image,
            "pub",
            10,
        )
        .unwrap();
        // A camera app running on behalf of Dropbox takes a photo.
        let del = Caller::delegate("com.camera", "com.dropbox");
        p.scan_file(&del, &vpath("/sdcard/DCIM/secret.jpg"), MediaKind::Image, "secret", 20)
            .unwrap();
        // The delegate sees both records through the images view.
        let rs = p.query(&del, &images_uri(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 2);
        // The public world sees only the public one.
        let rs = p.query(&Caller::normal("x"), &images_uri(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        // The thumbnail lives in Dropbox's volatile storage, not public.
        assert!(p.open_thumbnail(None, &vpath("/sdcard/DCIM/secret.jpg")).is_err());
        assert!(p.open_thumbnail(Some("com.dropbox"), &vpath("/sdcard/DCIM/secret.jpg")).is_ok());
    }

    #[test]
    fn audio_hierarchy_spans_two_levels() {
        let mut p = provider();
        p.scan_file(
            &Caller::normal("com.music"),
            &vpath("/sdcard/Music/pub.mp3"),
            MediaKind::Audio,
            "pub",
            10,
        )
        .unwrap();
        let del = Caller::delegate("com.player", "com.email");
        p.scan_file(&del, &vpath("/sdcard/Music/att.mp3"), MediaKind::Audio, "att", 20).unwrap();
        let audio = Uri::parse("content://media/audio").unwrap();
        let rs = p.query(&del, &audio, &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 2);
        let rs = p.query(&Caller::normal("x"), &audio, &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn writes_through_views_are_rejected() {
        let mut p = provider();
        let cam = Caller::normal("com.camera");
        let err =
            p.insert(&cam, &images_uri(), &ContentValues::new().put("title", "x")).unwrap_err();
        assert!(matches!(err, ProviderError::Denied(_)));
    }

    #[test]
    fn clear_volatile_removes_delegate_media() {
        let mut p = provider();
        let del = Caller::delegate("com.camera", "com.dropbox");
        p.scan_file(&del, &vpath("/sdcard/DCIM/s.jpg"), MediaKind::Image, "s", 5).unwrap();
        p.clear_volatile("com.dropbox").unwrap();
        let rs = p.query(&del, &images_uri(), &QueryArgs::default()).unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn video_kind_routes_to_video_view() {
        let mut p = provider();
        let cam = Caller::normal("com.camera");
        p.scan_file(&cam, &vpath("/sdcard/v.mp4"), MediaKind::Video, "v", 99).unwrap();
        let video = Uri::parse("content://media/video").unwrap();
        let rs = p.query(&cam, &video, &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let rs = p.query(&cam, &images_uri(), &QueryArgs::default()).unwrap();
        assert!(rs.rows.is_empty());
    }
}
