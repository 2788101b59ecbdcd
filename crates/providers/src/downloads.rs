//! The Downloads provider.
//!
//! Downloads is not just passive storage (§5.3): it keeps a queue of
//! requested downloads, fetches them in the background, writes the files,
//! and posts notifications. The Maxoid port:
//!
//! - lets an initiator request **volatile downloads** (incognito mode) —
//!   the record lands in its delta table and the file in its tmp storage;
//! - uses the proxy's **administrative view** to see every pending record,
//!   public or volatile, and tracks which state each belongs to;
//! - refuses download requests from delegates with a network error (§6.2
//!   item 4), closing the "fetch this URL for me" leak;
//! - still allows delegates to add or update database entries for existing
//!   files, because that does not touch the network.

use crate::cow::{CowProvider, Schema};
use crate::locator::{FileLocator, SystemFiles};
use crate::provider::{Caller, ProviderError, ProviderResult};
use maxoid_cowproxy::{DbView, ADMIN_INITIATOR_COL, ADMIN_STATE_COL};
use maxoid_kernel::{Kernel, Pid};
use maxoid_sqldb::{Database, Value};
use maxoid_vfs::VPath;

/// Authority of the Downloads provider.
pub const AUTHORITY: &str = "downloads";

/// The downloads and request_headers tables, as in Android.
static SCHEMA: Schema = Schema {
    authority: AUTHORITY,
    ddl: "CREATE TABLE downloads (_id INTEGER PRIMARY KEY, uri TEXT, \
          dest TEXT, title TEXT, status INTEGER, total_bytes INTEGER);
          CREATE INDEX idx_downloads_status ON downloads (status);
          CREATE INDEX idx_downloads_uri ON downloads (uri);
          CREATE TABLE request_headers (_id INTEGER PRIMARY KEY, \
          download_id INTEGER, header TEXT, value TEXT);",
    views: &[],
    routes: &[
        ("my_downloads", "downloads"),
        ("all_downloads", "downloads"),
        ("downloads", "downloads"),
        ("headers", "request_headers"),
        ("request_headers", "request_headers"),
    ],
};

/// Download status values (Android's `DownloadManager` constants).
pub mod status {
    /// Queued, not yet started.
    pub const PENDING: i64 = 1;
    /// Transfer in progress.
    pub const RUNNING: i64 = 2;
    /// Completed successfully.
    pub const SUCCESS: i64 = 8;
    /// Failed permanently.
    pub const FAILED: i64 = 16;
}

/// A notification posted when a download finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownloadNotification {
    /// Row id of the download.
    pub id: i64,
    /// `Some(initiator)` for volatile downloads, `None` for public ones.
    pub initiator: Option<String>,
    /// Title shown to the user.
    pub title: String,
    /// Final status.
    pub success: bool,
}

/// A download request (the `DownloadManager.Request` analogue).
#[derive(Debug, Clone)]
pub struct DownloadRequest {
    /// Source URL.
    pub url: String,
    /// Destination path on external storage.
    pub dest: VPath,
    /// Human-readable title.
    pub title: String,
    /// Extra request headers.
    pub headers: Vec<(String, String)>,
    /// Maxoid extension: store the download in the requesting initiator's
    /// volatile state (incognito downloads, §7.1).
    pub volatile: bool,
}

/// The download manager service's state: file access for fetched
/// payloads and the notifications it has posted.
#[derive(Debug)]
pub struct DownloadService<L: FileLocator> {
    files: SystemFiles<L>,
    notifications: Vec<DownloadNotification>,
}

/// The Downloads system content provider plus its manager service.
pub type DownloadsProvider<L> = CowProvider<DownloadService<L>>;

impl<L: FileLocator> CowProvider<DownloadService<L>> {
    /// Creates the provider, journaled when given a sink and around a
    /// journal-recovered database when given one (see [`CowProvider`]).
    /// In-flight notifications are not durable state and start empty.
    pub fn open(
        files: SystemFiles<L>,
        journal: Option<maxoid_journal::SinkRef>,
        recovered: Option<Database>,
    ) -> Self {
        let services = DownloadService { files, notifications: Vec::new() };
        CowProvider::with_schema(&SCHEMA, services, journal, recovered)
    }

    /// Drains posted notifications.
    pub fn take_notifications(&mut self) -> Vec<DownloadNotification> {
        std::mem::take(&mut self.services.notifications)
    }

    /// Enqueues a download (the `DownloadManager.enqueue` analogue).
    ///
    /// Returns the download id. Delegates are refused with a network
    /// error: a delegate could otherwise leak `Priv(A)` through the
    /// requested URL (§6.2 item 4).
    pub fn enqueue(&mut self, caller: &Caller, req: &DownloadRequest) -> ProviderResult<i64> {
        if caller.ctx.is_delegate() {
            return Err(ProviderError::NetworkUnreachable);
        }
        let view = if req.volatile {
            DbView::Volatile { initiator: caller.app.pkg().to_string() }
        } else {
            DbView::Primary
        };
        let id = self.proxy.insert(
            &view,
            "downloads",
            &[
                ("uri", req.url.as_str().into()),
                ("dest", req.dest.as_str().into()),
                ("title", req.title.as_str().into()),
                ("status", status::PENDING.into()),
                ("total_bytes", 0.into()),
            ],
        )?;
        for (h, v) in &req.headers {
            self.proxy.insert(
                &view,
                "request_headers",
                &[
                    ("download_id", id.into()),
                    ("header", h.as_str().into()),
                    ("value", v.as_str().into()),
                ],
            )?;
        }
        Ok(id)
    }

    /// Background worker step: fetches every pending download, public and
    /// volatile, using the administrative view to find them and to track
    /// which state each record belongs to. Returns the number processed.
    ///
    /// `service_pid` is the Downloads service's own process — a trusted
    /// system process with network access.
    pub fn process_pending(&mut self, kernel: &Kernel, service_pid: Pid) -> ProviderResult<usize> {
        let admin = self.proxy.admin_query("downloads")?;
        let idx = |name: &str| admin.column_index(name);
        let (Some(id_i), Some(uri_i), Some(dest_i), Some(title_i), Some(status_i)) =
            (idx("_id"), idx("uri"), idx("dest"), idx("title"), idx("status"))
        else {
            return Err(ProviderError::UnknownUri("downloads schema".into()));
        };
        let state_i = idx(ADMIN_STATE_COL).expect("admin view has state column");
        let init_i = idx(ADMIN_INITIATOR_COL).expect("admin view has initiator column");

        let pending: Vec<(i64, String, String, String, Option<String>)> = admin
            .rows
            .iter()
            .filter(|r| r[status_i] == Value::Integer(status::PENDING))
            .map(|r| {
                let initiator = match (&r[state_i], &r[init_i]) {
                    (Value::Text(s), Value::Text(init)) if s == "volatile" => Some(init.clone()),
                    _ => None,
                };
                (
                    r[id_i].as_integer().unwrap_or(0),
                    r[uri_i].to_string(),
                    r[dest_i].to_string(),
                    r[title_i].to_string(),
                    initiator,
                )
            })
            .collect();

        let mut processed = 0;
        for (id, url, dest, title, initiator) in pending {
            let view = match &initiator {
                Some(init) => DbView::Volatile { initiator: init.clone() },
                None => DbView::Primary,
            };
            // Mark running, then transfer.
            self.proxy.update(
                &view,
                "downloads",
                &[("status", status::RUNNING.into())],
                Some("_id = ?"),
                &[Value::Integer(id)],
            )?;
            let result = kernel.http_get(service_pid, &url);
            match result {
                Ok(data) => {
                    let dest_path = VPath::new(&dest).map_err(maxoid_kernel::KernelError::Fs)?;
                    self.services
                        .files
                        .write(initiator.as_deref(), &dest_path, &data)
                        .map_err(maxoid_kernel::KernelError::Fs)?;
                    self.proxy.update(
                        &view,
                        "downloads",
                        &[
                            ("status", status::SUCCESS.into()),
                            ("total_bytes", (data.len() as i64).into()),
                        ],
                        Some("_id = ?"),
                        &[Value::Integer(id)],
                    )?;
                    self.services.notifications.push(DownloadNotification {
                        id,
                        initiator,
                        title,
                        success: true,
                    });
                }
                Err(_) => {
                    self.proxy.update(
                        &view,
                        "downloads",
                        &[("status", status::FAILED.into())],
                        Some("_id = ?"),
                        &[Value::Integer(id)],
                    )?;
                    self.services.notifications.push(DownloadNotification {
                        id,
                        initiator,
                        title,
                        success: false,
                    });
                }
            }
            processed += 1;
        }
        Ok(processed)
    }

    /// Reads a completed download's bytes, resolving volatile files to the
    /// requesting initiator's tmp storage (the `File`-wrapper behaviour).
    pub fn open_download(&self, initiator: Option<&str>, dest: &VPath) -> ProviderResult<Vec<u8>> {
        self.services
            .files
            .read(initiator, dest)
            .map_err(|e| ProviderError::Kernel(maxoid_kernel::KernelError::Fs(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locator::SimpleLocator;
    use crate::provider::{ContentProvider, ContentValues, QueryArgs};
    use crate::uri::Uri;
    use maxoid_kernel::{AppId, ExecContext};
    use maxoid_vfs::{vpath, MountNamespace};

    fn setup() -> (Kernel, Pid, DownloadsProvider<SimpleLocator>) {
        let kernel = Kernel::new();
        kernel.net.publish("files.example", "doc.pdf", b"PDFDATA".to_vec());
        let svc = AppId::new("android.providers.downloads");
        kernel.install_app(&svc);
        let pid = kernel.spawn(&svc, ExecContext::Normal, MountNamespace::new()).unwrap();
        let files = SystemFiles::new(kernel.vfs().clone(), SimpleLocator);
        let provider = DownloadsProvider::open(files, None, None);
        (kernel, pid, provider)
    }

    fn request(volatile: bool) -> DownloadRequest {
        DownloadRequest {
            url: "files.example/doc.pdf".into(),
            dest: vpath("/sdcard/Download/doc.pdf"),
            title: "doc.pdf".into(),
            headers: vec![("User-Agent".into(), "browser".into())],
            volatile,
        }
    }

    #[test]
    fn public_download_lifecycle() {
        let (mut kernel, pid, mut p) = setup();
        let browser = Caller::normal("com.browser");
        let id = p.enqueue(&browser, &request(false)).unwrap();
        assert_eq!(p.process_pending(&mut kernel, pid).unwrap(), 1);
        let notes = p.take_notifications();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].success);
        assert_eq!(notes[0].initiator, None);
        assert_eq!(notes[0].id, id);
        // File is in public storage; record is public.
        assert_eq!(p.open_download(None, &vpath("/sdcard/Download/doc.pdf")).unwrap(), b"PDFDATA");
        let uri = Uri::parse("content://downloads/my_downloads").unwrap();
        let rs = p.query(&Caller::normal("other.app"), &uri, &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let st = rs.column_index("status").unwrap();
        assert_eq!(rs.rows[0][st], Value::Integer(status::SUCCESS));
    }

    #[test]
    fn volatile_download_is_invisible_publicly() {
        let (mut kernel, pid, mut p) = setup();
        let browser = Caller::normal("com.browser");
        p.enqueue(&browser, &request(true)).unwrap();
        p.process_pending(&mut kernel, pid).unwrap();
        let notes = p.take_notifications();
        assert_eq!(notes[0].initiator.as_deref(), Some("com.browser"));
        // Public record list is empty; other apps see nothing.
        let uri = Uri::parse("content://downloads/my_downloads").unwrap();
        let rs = p.query(&Caller::normal("other.app"), &uri, &QueryArgs::default()).unwrap();
        assert!(rs.rows.is_empty());
        // The initiator reads its volatile record through the tmp URI.
        let rs = p.query(&browser, &uri.as_volatile(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        // The file is in volatile storage only.
        assert!(p.open_download(None, &vpath("/sdcard/Download/doc.pdf")).is_err());
        assert_eq!(
            p.open_download(Some("com.browser"), &vpath("/sdcard/Download/doc.pdf")).unwrap(),
            b"PDFDATA"
        );
        // Browser's delegates see the record (it is part of Pub(x^A)).
        let viewer = Caller::delegate("com.pdf", "com.browser");
        let rs = p.query(&viewer, &uri, &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn delegate_enqueue_is_network_error() {
        let (_, _, mut p) = setup();
        let del = Caller::delegate("com.viewer", "com.email");
        assert_eq!(
            p.enqueue(&del, &request(false)).unwrap_err(),
            ProviderError::NetworkUnreachable
        );
    }

    #[test]
    fn delegate_may_touch_records_without_network() {
        let (_, _, mut p) = setup();
        let del = Caller::delegate("com.viewer", "com.email");
        let uri = Uri::parse("content://downloads/my_downloads").unwrap();
        // Adding an entry for an existing file does not access network.
        let item = p
            .insert(
                &del,
                &uri,
                &ContentValues::new()
                    .put("dest", "/sdcard/existing.bin")
                    .put("title", "existing")
                    .put("status", status::SUCCESS),
            )
            .unwrap();
        assert!(item.id().is_some());
        // The record is confined to email's volatile state.
        let rs = p.query(&Caller::normal("x"), &uri, &QueryArgs::default()).unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn failed_fetch_marks_failed() {
        let (mut kernel, pid, mut p) = setup();
        let browser = Caller::normal("com.browser");
        let mut req = request(false);
        req.url = "files.example/missing".into();
        p.enqueue(&browser, &req).unwrap();
        p.process_pending(&mut kernel, pid).unwrap();
        let notes = p.take_notifications();
        assert!(!notes[0].success);
        let uri = Uri::parse("content://downloads/my_downloads").unwrap();
        let rs = p.query(&browser, &uri, &QueryArgs::default()).unwrap();
        let st = rs.column_index("status").unwrap();
        assert_eq!(rs.rows[0][st], Value::Integer(status::FAILED));
    }

    #[test]
    fn headers_are_recorded_alongside() {
        let (_, _, mut p) = setup();
        let browser = Caller::normal("com.browser");
        let id = p.enqueue(&browser, &request(false)).unwrap();
        let uri = Uri::parse("content://downloads/headers").unwrap();
        let rs = p
            .query(
                &browser,
                &uri,
                &QueryArgs {
                    selection: Some("download_id = ?".into()),
                    selection_args: vec![Value::Integer(id)],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn clear_volatile_discards_download_records() {
        let (mut kernel, pid, mut p) = setup();
        let browser = Caller::normal("com.browser");
        p.enqueue(&browser, &request(true)).unwrap();
        p.process_pending(&mut kernel, pid).unwrap();
        let uri = Uri::parse("content://downloads/my_downloads").unwrap();
        let tmp = |p: &mut DownloadsProvider<_>| {
            p.query(&browser, &uri.as_volatile(), &QueryArgs::default()).unwrap().rows.len()
        };
        assert_eq!(tmp(&mut p), 1);
        p.clear_volatile("com.browser").unwrap();
        // The emptied delta table stays; querying tmp returns no rows.
        assert_eq!(tmp(&mut p), 0);
    }
}
