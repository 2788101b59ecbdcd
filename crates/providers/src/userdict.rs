//! The User Dictionary provider.
//!
//! "User Dictionary is purely a passive storage service ... porting is
//! trivial, though we add new URIs for volatile state" (§5.3). It maps
//! `content://user_dictionary/words[/id]` to rows of the `words` table and
//! `content://user_dictionary/tmp/words[/id]` to the caller's volatile
//! records.

use crate::cow::{CowProvider, Schema};
use maxoid_sqldb::Database;

/// Authority of the User Dictionary provider.
pub const AUTHORITY: &str = "user_dictionary";

/// The `words` table served by this provider.
pub const WORDS_TABLE: &str = "words";

static SCHEMA: Schema = Schema {
    authority: AUTHORITY,
    ddl: "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT NOT NULL, \
          frequency INTEGER, locale TEXT, appid INTEGER);
          CREATE INDEX idx_words_word ON words (word);",
    views: &[],
    routes: &[("words", WORDS_TABLE)],
    links: &[],
};

/// The User Dictionary system content provider: pure passive storage, so
/// the shared core with no services.
pub type UserDictionaryProvider = CowProvider<()>;

impl Default for CowProvider<()> {
    fn default() -> Self {
        Self::new()
    }
}

impl CowProvider<()> {
    /// Creates the provider with its schema, unjournaled.
    pub fn new() -> Self {
        Self::open(None, None)
    }

    /// Creates the provider, journaled when given a journal and around a
    /// journal-recovered database when given one (see [`CowProvider`]).
    pub fn open(journal: Option<maxoid_journal::Journal>, recovered: Option<Database>) -> Self {
        CowProvider::with_schema(&SCHEMA, (), journal, recovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{Caller, ContentProvider, ContentValues, ProviderError, QueryArgs};
    use crate::uri::Uri;
    use maxoid_sqldb::Value;

    fn words_uri() -> Uri {
        Uri::parse("content://user_dictionary/words").unwrap()
    }

    fn seeded() -> UserDictionaryProvider {
        let mut p = UserDictionaryProvider::new();
        let kb = Caller::normal("com.keyboard");
        for (w, f) in [("hello", 10), ("world", 20), ("maxoid", 30)] {
            p.insert(&kb, &words_uri(), &ContentValues::new().put("word", w).put("frequency", f))
                .unwrap();
        }
        p
    }

    #[test]
    fn insert_returns_item_uri() {
        let mut p = UserDictionaryProvider::new();
        let uri = p
            .insert(&Caller::normal("kb"), &words_uri(), &ContentValues::new().put("word", "a"))
            .unwrap();
        assert_eq!(uri.to_string(), "content://user_dictionary/words/1");
    }

    #[test]
    fn item_uri_addresses_single_row() {
        let mut p = seeded();
        let kb = Caller::normal("com.keyboard");
        let rs = p.query(&kb, &words_uri().with_id(2), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let w = rs.column_index("word").unwrap();
        assert_eq!(rs.rows[0][w], Value::Text("world".into()));
    }

    #[test]
    fn delegate_updates_are_confined() {
        let mut p = seeded();
        let del = Caller::delegate("com.viewer", "com.email");
        let n = p
            .update(
                &del,
                &words_uri().with_id(1),
                &ContentValues::new().put("word", "HELLO"),
                &QueryArgs::default(),
            )
            .unwrap();
        assert_eq!(n, 1);
        // Delegate reads its write through a normal URI.
        let rs = p.query(&del, &words_uri().with_id(1), &QueryArgs::default()).unwrap();
        let w = rs.column_index("word").unwrap();
        assert_eq!(rs.rows[0][w], Value::Text("HELLO".into()));
        // Other apps see the public record.
        let other = Caller::normal("com.other");
        let rs = p.query(&other, &words_uri().with_id(1), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows[0][w], Value::Text("hello".into()));
        // The initiator retrieves the volatile copy via the tmp URI.
        let email = Caller::normal("com.email");
        let tmp = words_uri().as_volatile();
        let rs = p.query(&email, &tmp, &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][rs.column_index("word").unwrap()], Value::Text("HELLO".into()));
    }

    #[test]
    fn delegate_delete_hides_but_preserves_public() {
        let mut p = seeded();
        let del = Caller::delegate("com.viewer", "com.email");
        assert_eq!(p.delete(&del, &words_uri().with_id(2), &QueryArgs::default()).unwrap(), 1);
        assert!(p
            .query(&del, &words_uri().with_id(2), &QueryArgs::default())
            .unwrap()
            .rows
            .is_empty());
        let pub_rs =
            p.query(&Caller::normal("x"), &words_uri().with_id(2), &QueryArgs::default()).unwrap();
        assert_eq!(pub_rs.rows.len(), 1);
    }

    #[test]
    fn is_volatile_insert_via_flag() {
        let mut p = seeded();
        let browser = Caller::normal("com.browser");
        let uri = p
            .insert(
                &browser,
                &words_uri(),
                &ContentValues::new().put("word", "incognito").volatile(),
            )
            .unwrap();
        assert!(uri.is_volatile());
        // Not visible publicly.
        let rs = p.query(&Caller::normal("x"), &words_uri(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 3);
        // Visible to browser's delegates.
        let del = Caller::delegate("com.pdf", "com.browser");
        let rs = p.query(&del, &words_uri(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn selection_and_sort() {
        let mut p = seeded();
        let kb = Caller::normal("com.keyboard");
        let rs = p
            .query(
                &kb,
                &words_uri(),
                &QueryArgs {
                    projection: vec!["word".into()],
                    selection: Some("frequency >= ?".into()),
                    selection_args: vec![Value::Integer(20)],
                    sort_order: Some("frequency DESC".into()),
                },
            )
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::Text("maxoid".into())], vec![Value::Text("world".into())]]
        );
    }

    #[test]
    fn clear_volatile_erases_delegate_traces() {
        let mut p = seeded();
        let del = Caller::delegate("com.viewer", "com.email");
        p.insert(&del, &words_uri(), &ContentValues::new().put("word", "trace")).unwrap();
        p.clear_volatile("com.email").unwrap();
        let rs = p.query(&del, &words_uri(), &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert!(!rs
            .rows
            .iter()
            .any(|r| r[rs.column_index("word").unwrap()] == Value::Text("trace".into())));
    }

    #[test]
    fn unknown_collection_rejected() {
        let mut p = UserDictionaryProvider::new();
        let bad = Uri::parse("content://user_dictionary/nope").unwrap();
        assert!(matches!(
            p.query(&Caller::normal("x"), &bad, &QueryArgs::default()),
            Err(ProviderError::UnknownUri(_))
        ));
    }
}
