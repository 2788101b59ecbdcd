//! SQL generation for proxy-managed objects.
//!
//! Generates the exact structures shown in the paper's Figure 6: the delta
//! table (primary columns plus `_whiteout`), the COW view as a `UNION ALL`
//! compound select, and the INSTEAD OF triggers implementing per-row
//! copy-on-write. These strings are executed against [`maxoid_sqldb`] and
//! also serve as golden-test artefacts.

use crate::names::{cow_view, delta_index, delta_table, trigger, WHITEOUT_COL};

/// Generates `CREATE TABLE` for a delta table given the primary table's
/// column definitions rendered as `name TYPE [PRIMARY KEY]` fragments.
pub fn delta_table_sql(table: &str, initiator: &str, column_defs: &[String]) -> String {
    let mut cols = column_defs.join(", ");
    cols.push_str(&format!(", {WHITEOUT_COL} BOOLEAN"));
    format!("CREATE TABLE {} ({cols})", delta_table(table, initiator))
}

/// Generates `CREATE INDEX` mirroring a base-table secondary index onto
/// the delta table, so a flattened COW query can probe an index on both
/// arms of the `UNION ALL`. Mirrors are always non-unique: uniqueness is a
/// base-table constraint and is enforced when a volatile row is committed,
/// not inside an initiator's private copy.
pub fn delta_index_sql(index: &str, table: &str, initiator: &str, column: &str) -> String {
    format!(
        "CREATE INDEX {} ON {} ({column})",
        delta_index(index, initiator),
        delta_table(table, initiator),
    )
}

/// Generates the COW view for a primary table (Figure 6):
///
/// ```sql
/// CREATE VIEW tab1_view_a AS
/// SELECT _id,data FROM tab1
///   WHERE _id NOT IN (SELECT _id FROM tab1_delta_a)
/// UNION ALL
/// SELECT _id,data FROM tab1_delta_a WHERE _whiteout=0
/// ```
pub fn cow_view_sql(table: &str, initiator: &str, columns: &[String], pk: &str) -> String {
    let collist = columns.join(",");
    let delta = delta_table(table, initiator);
    format!(
        "CREATE VIEW {view} AS SELECT {collist} FROM {table} \
         WHERE {pk} NOT IN (SELECT {pk} FROM {delta}) \
         UNION ALL SELECT {collist} FROM {delta} WHERE {wh}=0",
        view = cow_view(table, initiator),
        wh = WHITEOUT_COL,
    )
}

/// Generates the INSTEAD OF INSERT trigger: new rows land in the delta
/// table with `_whiteout = 0` (a NULL key auto-assigns from the offset).
pub fn insert_trigger_sql(table: &str, initiator: &str, columns: &[String]) -> String {
    let collist = columns.join(",");
    let news: Vec<String> = columns.iter().map(|c| format!("NEW.{c}")).collect();
    format!(
        "CREATE TRIGGER {name} INSTEAD OF INSERT ON {view} BEGIN \
         INSERT INTO {delta} ({collist},{wh}) VALUES ({vals}, 0); END",
        name = trigger(table, initiator, "insert"),
        view = cow_view(table, initiator),
        delta = delta_table(table, initiator),
        wh = WHITEOUT_COL,
        vals = news.join(", "),
    )
}

/// Generates the INSTEAD OF UPDATE trigger (Figure 6): per-row
/// copy-on-write confining the modification to the delta table.
pub fn update_trigger_sql(table: &str, initiator: &str, columns: &[String]) -> String {
    let collist = columns.join(",");
    let news: Vec<String> = columns.iter().map(|c| format!("NEW.{c}")).collect();
    format!(
        "CREATE TRIGGER {name} INSTEAD OF UPDATE ON {view} BEGIN \
         INSERT OR REPLACE INTO {delta} ({collist},{wh}) VALUES ({vals}, 0); END",
        name = trigger(table, initiator, "update"),
        view = cow_view(table, initiator),
        delta = delta_table(table, initiator),
        wh = WHITEOUT_COL,
        vals = news.join(", "),
    )
}

/// Generates the INSTEAD OF DELETE trigger: deletion is emulated with a
/// whiteout record (`_whiteout = 1`), leaving the public row untouched.
pub fn delete_trigger_sql(table: &str, initiator: &str, columns: &[String]) -> String {
    let collist = columns.join(",");
    let olds: Vec<String> = columns.iter().map(|c| format!("OLD.{c}")).collect();
    format!(
        "CREATE TRIGGER {name} INSTEAD OF DELETE ON {view} BEGIN \
         INSERT OR REPLACE INTO {delta} ({collist},{wh}) VALUES ({vals}, 1); END",
        name = trigger(table, initiator, "delete"),
        view = cow_view(table, initiator),
        delta = delta_table(table, initiator),
        wh = WHITEOUT_COL,
        vals = olds.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<String> {
        vec!["_id".to_string(), "data".to_string()]
    }

    #[test]
    fn view_sql_matches_figure6_shape() {
        let sql = cow_view_sql("tab1", "a", &cols(), "_id");
        assert_eq!(
            sql,
            "CREATE VIEW tab1_view_a AS SELECT _id,data FROM tab1 \
             WHERE _id NOT IN (SELECT _id FROM tab1_delta_a) \
             UNION ALL SELECT _id,data FROM tab1_delta_a WHERE _whiteout=0"
        );
    }

    #[test]
    fn update_trigger_matches_figure6_shape() {
        let sql = update_trigger_sql("tab1", "a", &cols());
        assert_eq!(
            sql,
            "CREATE TRIGGER tab1_a_update INSTEAD OF UPDATE ON tab1_view_a BEGIN \
             INSERT OR REPLACE INTO tab1_delta_a (_id,data,_whiteout) \
             VALUES (NEW._id, NEW.data, 0); END"
        );
    }

    #[test]
    fn delete_trigger_writes_whiteout() {
        let sql = delete_trigger_sql("tab1", "a", &cols());
        assert!(sql.contains("VALUES (OLD._id, OLD.data, 1)"));
        assert!(sql.contains("INSTEAD OF DELETE"));
    }

    #[test]
    fn delta_index_mirrors_base_index() {
        let sql = delta_index_sql("idx_word", "tab1", "a", "data");
        assert_eq!(sql, "CREATE INDEX idx_word_delta_a ON tab1_delta_a (data)");
    }

    #[test]
    fn delta_table_adds_whiteout_column() {
        let sql = delta_table_sql(
            "tab1",
            "a",
            &["_id INTEGER PRIMARY KEY".to_string(), "data TEXT".to_string()],
        );
        assert_eq!(
            sql,
            "CREATE TABLE tab1_delta_a (_id INTEGER PRIMARY KEY, data TEXT, _whiteout BOOLEAN)"
        );
    }
}
