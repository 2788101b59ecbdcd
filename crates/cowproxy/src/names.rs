//! Naming scheme for proxy-managed objects.
//!
//! The proxy derives delta-table, COW-view and trigger names from the
//! primary table and the initiator, matching the paper's Figure 6
//! (`tab1_delta_a`, `tab1_view_a`, `tab1_a_update`). The initiator part is
//! [`encode_initiator`]'s injective encoding, so two initiators never
//! share an object, and [`decode_initiator`] reads it back.

/// Primary keys of rows inserted by delegates start at this offset so they
/// never collide with public rows (paper §5.2: "the delta table's primary
/// key starts at a large number N"). Figure 6 shows the first delegate
/// insert as 10000001.
pub const DELTA_PK_START: i64 = 10_000_001;

/// Encodes an initiator identity (an Android package name) into an SQL
/// identifier fragment. Bytes in `[a-z0-9]` stay as they are; every other
/// byte becomes `_` plus two lowercase hex digits (`com.a_b` is
/// `com_2ea_5fb`, `A` is `_41`). The encoding is injective and lowercase,
/// so neither a lossy byte map nor the catalog's case folding can make
/// two initiators share a delta table.
pub fn encode_initiator(initiator: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(initiator.len());
    for b in initiator.bytes() {
        if b.is_ascii_lowercase() || b.is_ascii_digit() {
            out.push(b as char);
        } else {
            out.push('_');
            out.push(HEX[(b >> 4) as usize] as char);
            out.push(HEX[(b & 0xf) as usize] as char);
        }
    }
    out
}

/// Inverts [`encode_initiator`]. Returns `None` for text that no
/// initiator encodes to: an uppercase letter or other stray byte, a `_`
/// without two lowercase hex digits after it, an escaped byte that would
/// have stayed literal, or bytes that are not UTF-8.
pub fn decode_initiator(encoded: &str) -> Option<String> {
    fn hex(d: u8) -> Option<u8> {
        match d {
            b'0'..=b'9' => Some(d - b'0'),
            b'a'..=b'f' => Some(d - b'a' + 10),
            _ => None,
        }
    }
    let mut bytes = Vec::with_capacity(encoded.len());
    let mut it = encoded.bytes();
    while let Some(b) = it.next() {
        let byte = match b {
            b'a'..=b'z' | b'0'..=b'9' => b,
            b'_' => {
                let byte = hex(it.next()?)? << 4 | hex(it.next()?)?;
                if byte.is_ascii_lowercase() || byte.is_ascii_digit() {
                    return None;
                }
                byte
            }
            _ => return None,
        };
        bytes.push(byte);
    }
    String::from_utf8(bytes).ok()
}

/// Name of the per-initiator delta table for a primary table.
pub fn delta_table(table: &str, initiator: &str) -> String {
    format!("{table}_delta_{}", encode_initiator(initiator))
}

/// Name of the per-initiator COW view for a table or user-defined view.
pub fn cow_view(table: &str, initiator: &str) -> String {
    format!("{table}_view_{}", encode_initiator(initiator))
}

/// Name of an INSTEAD OF trigger on a COW view.
pub fn trigger(table: &str, initiator: &str, event: &str) -> String {
    format!("{table}_{}_{event}", encode_initiator(initiator))
}

/// Name of the mirrored secondary index on a per-initiator delta table.
///
/// Index names share one namespace, so the base index name is suffixed the
/// same way delta tables are (`idx_word` -> `idx_word_delta_a`).
pub fn delta_index(index: &str, initiator: &str) -> String {
    format!("{index}_delta_{}", encode_initiator(initiator))
}

/// The whiteout marker column added to every delta table.
pub const WHITEOUT_COL: &str = "_whiteout";

/// Two objects that forks of a schema could both be asked to create
/// under one name, if there are any. A derived name is a prefix naming a
/// relation or index, then an encoded initiator (then, for a trigger, its
/// event); the relation half is not encoded, so `(t, delta.app)` and
/// `(t_delta, 2eapp)` both derive `t_delta_delta_2eapp`. Two derived
/// names can only be equal if one's prefix begins the other's, so every
/// such pair of prefixes is refused. No schema whose names could meet is
/// accepted; a few whose names could not are refused (`x` beside
/// `x_delta_y`).
/// `tables` get a delta table, a COW view and triggers, `views` a COW
/// view and `indexes` a delta index. Prefixes are compared within the
/// catalog's namespaces (tables and views share one, triggers and
/// indexes have one each) in lowercase, as the catalog keys them.
pub(crate) fn shared_derived_name(
    tables: &[String],
    views: &[String],
    indexes: &[String],
) -> Option<(String, String)> {
    let family = |prefix: String, what: String| (prefix.to_ascii_lowercase(), what);
    let relations = tables
        .iter()
        .map(|t| family(format!("{t}_delta_"), format!("the delta tables of {t}")))
        .chain(
            (tables.iter().chain(views))
                .map(|r| family(format!("{r}_view_"), format!("the COW views of {r}"))),
        );
    // A table's three triggers end in different events, so never meet.
    let triggers = tables.iter().map(|t| family(format!("{t}_"), format!("the triggers of {t}")));
    let indexes = indexes
        .iter()
        .map(|ix| family(format!("{ix}_delta_"), format!("the delta indexes of {ix}")));
    [relations.collect::<Vec<_>>(), triggers.collect(), indexes.collect()].iter().find_map(|ns| {
        ns.iter().enumerate().find_map(|(i, (a, what))| {
            ns[i + 1..]
                .iter()
                .find(|(b, _)| a.starts_with(b.as_str()) || b.starts_with(a.as_str()))
                .map(|(_, other)| (what.clone(), other.clone()))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_names() {
        assert_eq!(delta_table("tab1", "a"), "tab1_delta_a");
        assert_eq!(cow_view("tab1", "a"), "tab1_view_a");
        assert_eq!(trigger("tab1", "a", "update"), "tab1_a_update");
    }

    #[test]
    fn delta_index_names_follow_delta_tables() {
        assert_eq!(delta_index("idx_word", "a"), "idx_word_delta_a");
        assert_eq!(
            delta_index("idx_status", "com.android.browser"),
            "idx_status_delta_com_2eandroid_2ebrowser"
        );
    }

    #[test]
    fn package_names_encode_injectively() {
        assert_eq!(encode_initiator("com.dropbox.android"), "com_2edropbox_2eandroid");
        assert_eq!(
            delta_table("downloads", "com.android.browser"),
            "downloads_delta_com_2eandroid_2ebrowser"
        );
        // Pairs the old byte map or the catalog's case folding merged.
        for (a, b) in [("com.a.b", "com.a_b"), ("A", "a"), ("b", "x.delta.b")] {
            assert_ne!(encode_initiator(a), encode_initiator(b));
            assert!(!delta_table("t", b).ends_with(&format!("_delta_{}", encode_initiator(a))));
        }
    }

    #[test]
    fn names_two_relations_could_derive_are_found() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        // Delta tables: (t, delta.app) and (t_delta, 2eapp).
        assert!(shared_derived_name(&s(&["t", "t_delta"]), &[], &[]).is_some());
        // Triggers: (t, a.b) and (t_a, 2eb).
        assert_eq!(trigger("t", "a.b", "insert"), trigger("t_a", "2eb", "insert"));
        assert!(shared_derived_name(&s(&["t", "t_a"]), &[], &[]).is_some());
        // COW views of a table and a user view, and delta indexes.
        assert!(shared_derived_name(&s(&["t"]), &s(&["t_view"]), &[]).is_some());
        assert!(shared_derived_name(&s(&["t"]), &[], &s(&["ix", "ix_delta"])).is_some());
        // A delta table and a trigger may share a name: the catalog keeps
        // triggers apart from tables and views.
        assert_eq!(delta_table("d", "insert"), trigger("d", "delta", "insert"));
        assert_eq!(shared_derived_name(&s(&["d"]), &[], &[]), None);
        // The system providers' schemas.
        assert_eq!(shared_derived_name(&s(&["words"]), &[], &s(&["idx_words_word"])), None);
        let (tables, indexes) =
            (["downloads", "request_headers"], ["idx_downloads_status", "idx_downloads_uri"]);
        assert_eq!(shared_derived_name(&s(&tables), &[], &s(&indexes)), None);
        let views = ["images", "audio_meta", "video", "audio"];
        let found = shared_derived_name(
            &s(&["files", "thumbnails"]),
            &s(&views),
            &s(&["idx_files_bucket_id"]),
        );
        assert_eq!(found, None);
    }

    #[test]
    fn decoding_inverts_encoding() {
        for init in ["a", "A", "com.a_b", "pc.init7", "", "caf\u{e9}.\u{1f600}", "_41", "x__"] {
            let enc = encode_initiator(init);
            assert!(enc.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'));
            assert_eq!(decode_initiator(&enc).as_deref(), Some(init), "{enc}");
        }
        // Text no initiator encodes to: old lossy names, uppercase, short
        // or uppercase escapes, escaped literals, bytes that are not UTF-8.
        for bad in ["com_android", "A", "_4", "_4A", "_61", "_ff", "a-b"] {
            assert_eq!(decode_initiator(bad), None, "{bad}");
        }
    }
}
