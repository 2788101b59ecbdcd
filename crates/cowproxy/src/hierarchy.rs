//! COW views for user-defined SQL views (paper Figure 5).
//!
//! Content providers may define their own SQL views over base tables —
//! Media defines `images`, `audio_meta` and `video` as selections over its
//! `files` table, and `audio` on top of `audio_meta`. The proxy keeps delta
//! tables only for base tables; for each user-defined view it maintains a
//! per-initiator COW view that is "defined identically to the original
//! user-defined SQL views, except that the base tables in the definition
//! are replaced with their corresponding COW views" (§5.2). Because a view
//! may use another view as a base, the proxy maintains a hierarchy and
//! creates COW views parents-first.

use crate::names::cow_view;
use maxoid_sqldb::ast::{SelectStmt, Stmt};
use maxoid_sqldb::parser::parse_statement;
use maxoid_sqldb::{Database, SqlError, SqlResult};
use std::collections::BTreeMap;

/// A registered user-defined view and its dependencies.
#[derive(Debug, Clone)]
struct UserView {
    name: String,
    select: SelectStmt,
    /// Names of tables/views referenced in FROM clauses (dependencies).
    bases: Vec<String>,
}

/// Registry of user-defined views and their per-initiator COW instances.
#[derive(Debug, Default)]
pub struct ViewHierarchy {
    views: BTreeMap<String, UserView>,
}

impl ViewHierarchy {
    /// Registers a user-defined view from its CREATE VIEW statement,
    /// creating it in the database and recording its dependencies.
    ///
    /// If a view of the same name already exists (e.g. the database was
    /// rebuilt from a journal, which replays the CREATE VIEW) the existing
    /// definition is adopted and only the hierarchy metadata is recorded.
    pub fn register(&mut self, db: &mut Database, sql: &str) -> SqlResult<()> {
        let stmt = parse_statement(sql)?;
        let Stmt::CreateView { name, select, .. } = &stmt else {
            return Err(SqlError::Unsupported("register_user_view requires CREATE VIEW".into()));
        };
        let mut bases = Vec::new();
        collect_bases(select, &mut bases);
        if !db.has_view(name) {
            // Run the original text through `execute` so the statement
            // lands in the logical journal verbatim.
            db.execute(sql, &[])?;
        }
        self.views.insert(
            name.to_ascii_lowercase(),
            UserView { name: name.clone(), select: select.clone(), bases },
        );
        Ok(())
    }

    /// The registered user views, by lowercased name.
    pub(crate) fn names(&self) -> Vec<String> {
        self.views.keys().cloned().collect()
    }

    /// Whether some registered user view selects from `table` directly.
    pub fn has_base(&self, table: &str) -> bool {
        self.views.values().any(|v| v.bases.iter().any(|b| b.eq_ignore_ascii_case(table)))
    }

    /// (Re)builds every per-initiator COW instance of the registered
    /// user views for `initiator`, over whichever base COW views exist
    /// now. The proxy calls this when one of the initiator's base tables
    /// forks (an instance built earlier would read the plain base) and
    /// after recovery (instances are derived state and never journaled).
    pub fn build_cow_views(&self, db: &mut Database, initiator: &str) -> SqlResult<()> {
        self.drop_initiator(db, initiator)?;
        for name in self.views.keys() {
            self.build_view(db, name, initiator)?;
        }
        Ok(())
    }

    /// Builds the COW instance of user view `name`, base user views first
    /// (hierarchy order); instances that exist are kept.
    fn build_view(&self, db: &mut Database, name: &str, initiator: &str) -> SqlResult<()> {
        let uv = &self.views[name];
        let target = cow_view(&uv.name, initiator);
        if db.has_view(&target) {
            return Ok(());
        }
        for base in &uv.bases {
            let base = base.to_ascii_lowercase();
            if self.views.contains_key(&base) {
                self.build_view(db, &base, initiator)?;
            }
        }
        // Rewrite the definition: every base that has a COW instance is
        // replaced by it. Base tables without a delta keep their name
        // (reads fall through to the primary — unilateral COW).
        let mut select = uv.select.clone();
        rewrite_bases(&mut select, &|base| {
            let candidate = cow_view(base, initiator);
            if db.has_view(&candidate) {
                Some(candidate)
            } else {
                None
            }
        });
        // Executed as an AST (no SQL text), so this CREATE VIEW never
        // reaches the journal: COW view instances are derived state.
        let create = Stmt::CreateView { name: target, if_not_exists: false, select };
        db.exec_stmt(&create, &[], None)?;
        Ok(())
    }

    /// Drops all per-initiator COW views built from user-defined views.
    pub fn drop_initiator(&self, db: &mut Database, initiator: &str) -> SqlResult<()> {
        for uv in self.views.values() {
            let drop = Stmt::DropView { name: cow_view(&uv.name, initiator), if_exists: true };
            db.exec_stmt(&drop, &[], None)?;
        }
        Ok(())
    }
}

/// Collects FROM-clause base relation names from a select (including IN
/// subqueries is unnecessary: user views reference bases in FROM).
fn collect_bases(select: &SelectStmt, out: &mut Vec<String>) {
    for core in &select.cores {
        for tref in &core.from {
            if !out.iter().any(|b| b.eq_ignore_ascii_case(&tref.name)) {
                out.push(tref.name.clone());
            }
        }
    }
}

/// Rewrites FROM-clause relation names via `map` (None = keep).
fn rewrite_bases(select: &mut SelectStmt, map: &dyn Fn(&str) -> Option<String>) {
    for core in &mut select.cores {
        for tref in &mut core.from {
            if let Some(new_name) = map(&tref.name) {
                // Preserve the original name as the binding alias so
                // column qualifications in the view body keep resolving.
                if tref.alias.is_none() {
                    tref.alias = Some(tref.name.clone());
                }
                tref.name = new_name;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::proxy::{CowProxy, DbView, QueryOpts};
    use maxoid_sqldb::Value;

    /// Media-like schema: `files` base table; `images` and `video` views
    /// over it; `audio` over `audio_meta` over `files` (two levels).
    fn media_proxy() -> CowProxy {
        let mut p = CowProxy::new();
        p.execute_batch(
            "CREATE TABLE files (_id INTEGER PRIMARY KEY, path TEXT, media_type INTEGER, title TEXT);",
        )
        .unwrap();
        p.register_user_view(
            "CREATE VIEW images AS SELECT _id, path, title FROM files WHERE media_type = 1",
        )
        .unwrap();
        p.register_user_view(
            "CREATE VIEW audio_meta AS SELECT _id, path, title FROM files WHERE media_type = 2",
        )
        .unwrap();
        p.register_user_view("CREATE VIEW audio AS SELECT _id, title FROM audio_meta").unwrap();
        for (path, ty, title) in
            [("/sdcard/a.jpg", 1, "a"), ("/sdcard/b.mp3", 2, "b"), ("/sdcard/c.jpg", 1, "c")]
        {
            p.insert(
                &DbView::Primary,
                "files",
                &[("path", path.into()), ("media_type", ty.into()), ("title", title.into())],
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn user_views_work_for_initiators() {
        let p = media_proxy();
        let rs = p.query(&DbView::Primary, "images", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        let rs = p.query(&DbView::Primary, "audio", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn delegate_sees_cow_view_of_user_view() {
        let mut p = media_proxy();
        let del = DbView::Delegate { initiator: "cam".into() };
        // Delegate adds an image via the files COW view.
        p.insert(
            &del,
            "files",
            &[
                ("path", "/sdcard/new.jpg".into()),
                ("media_type", 1.into()),
                ("title", "new".into()),
            ],
        )
        .unwrap();
        // The fork of `files` built the user-view COW instance.
        let rs = p.query(&del, "images", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 3);
        // Public images view unchanged.
        let pubrs = p.query(&DbView::Primary, "images", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(pubrs.rows.len(), 2);
    }

    #[test]
    fn two_level_hierarchy_builds_in_order() {
        let mut p = media_proxy();
        let del = DbView::Delegate { initiator: "player".into() };
        p.insert(
            &del,
            "files",
            &[("path", "/sdcard/s.mp3".into()), ("media_type", 2.into()), ("title", "song".into())],
        )
        .unwrap();
        // `audio` depends on `audio_meta`, which depends on `files`; the
        // fork of `files` built both instances.
        let rs = p.query(&del, "audio", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        // The intermediate COW view exists too.
        assert!(p.db().has_view("audio_meta_view_player"));
    }

    #[test]
    fn clear_keeps_user_view_instances_and_retire_drops_them() {
        let mut p = media_proxy();
        let del = DbView::Delegate { initiator: "cam".into() };
        p.insert(
            &del,
            "files",
            &[("path", "/x.jpg".into()), ("media_type", 1.into()), ("title", "x".into())],
        )
        .unwrap();
        assert!(p.db().has_view("images_view_cam"));
        p.clear_volatile("cam").unwrap();
        // The instance stays and reads the public rows through the empty
        // delta table.
        assert!(p.db().has_view("images_view_cam"));
        assert!(p.has_delta("files", "cam"));
        let rs = p.query(&del, "images", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        p.retire("cam").unwrap();
        assert!(!p.db().has_view("images_view_cam"));
        assert!(!p.has_delta("files", "cam"));
    }

    #[test]
    fn base_fork_rebuilds_an_instance_built_before_it() {
        let mut p = media_proxy();
        p.execute_batch("CREATE TABLE thumbs (_id INTEGER PRIMARY KEY, file_id INTEGER);").unwrap();
        let del = DbView::Delegate { initiator: "cam".into() };
        // An unrelated fork builds no instance; recovery builds them all,
        // over whatever base COW views exist then.
        p.insert(&del, "thumbs", &[("file_id", 1.into())]).unwrap();
        assert!(!p.db().has_view("images_view_cam"));
        p.rebuild_cow_views().unwrap();
        assert!(p.db().has_view("images_view_cam"));
        // Forking `files` later must rebuild that instance over the
        // `files` COW view, or the delegate's image would stay hidden.
        p.insert(
            &del,
            "files",
            &[("path", "/n.jpg".into()), ("media_type", 1.into()), ("title", "n".into())],
        )
        .unwrap();
        let rs = p.query(&del, "images", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn reads_before_writes_use_plain_user_view() {
        let p = media_proxy();
        let del = DbView::Delegate { initiator: "fresh".into() };
        // No delta yet: the read relation is the plain user view.
        assert_eq!(p.read_relation("images", &del).unwrap().as_deref(), Some("images"));
        let rs = p.query(&del, "images", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn register_rejects_non_view_sql() {
        let mut p = CowProxy::new();
        assert!(p.register_user_view("CREATE TABLE t (_id INTEGER PRIMARY KEY)").is_err());
    }

    #[test]
    fn qualified_columns_keep_resolving_after_rewrite() {
        let mut p = CowProxy::new();
        p.execute_batch("CREATE TABLE base (_id INTEGER PRIMARY KEY, v TEXT);").unwrap();
        p.register_user_view("CREATE VIEW qual AS SELECT base._id, base.v FROM base").unwrap();
        p.insert(&DbView::Primary, "base", &[("v", "x".into())]).unwrap();
        let del = DbView::Delegate { initiator: "D".into() };
        p.insert(&del, "base", &[("v", "y".into())]).unwrap();
        let rs = p.query(&del, "qual", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.rows.iter().any(|r| r[1] == Value::Text("y".into())));
    }
}
