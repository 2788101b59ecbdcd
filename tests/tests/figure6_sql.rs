//! Figure 6 golden test: the COW proxy's generated SQL has exactly the
//! structure the paper shows, and the worked example (rows 1/2/3 with a
//! delegate whiteout, update and offset insert) produces the figure's
//! view contents — executed through the real SQL engine.

use maxoid_cowproxy::{sqlgen, CowProxy, DbView, QueryOpts, DELTA_PK_START};
use maxoid_sqldb::Value;

fn cols() -> Vec<String> {
    vec!["_id".to_string(), "data".to_string()]
}

/// The CREATE VIEW statement matches Figure 6 token for token.
#[test]
fn golden_view_sql() {
    assert_eq!(
        sqlgen::cow_view_sql("tab1", "a", &cols(), "_id"),
        "CREATE VIEW tab1_view_a AS SELECT _id,data FROM tab1 \
         WHERE _id NOT IN (SELECT _id FROM tab1_delta_a) \
         UNION ALL SELECT _id,data FROM tab1_delta_a WHERE _whiteout=0"
    );
}

/// The INSTEAD OF UPDATE trigger matches Figure 6.
#[test]
fn golden_update_trigger_sql() {
    assert_eq!(
        sqlgen::update_trigger_sql("tab1", "a", &cols()),
        "CREATE TRIGGER tab1_a_update INSTEAD OF UPDATE ON tab1_view_a BEGIN \
         INSERT OR REPLACE INTO tab1_delta_a (_id,data,_whiteout) \
         VALUES (NEW._id, NEW.data, 0); END"
    );
}

/// Replays the figure's data: primary rows (1,'a'),(2,'b'),(3,'c');
/// the delegate deletes row 2, updates row 3 to 'd', and inserts 'e'.
/// The view must show (1,'a'),(3,'d'),(10000001,'e') and the delta table
/// must hold exactly the figure's three rows.
#[test]
fn figure6_worked_example() {
    let mut p = CowProxy::new();
    p.execute_batch("CREATE TABLE tab1 (_id INTEGER PRIMARY KEY, data TEXT);").unwrap();
    for (id, d) in [(1, "a"), (2, "b"), (3, "c")] {
        p.insert(&DbView::Primary, "tab1", &[("_id", id.into()), ("data", d.into())]).unwrap();
    }
    let delegate = DbView::Delegate { initiator: "a".into() };
    // The three delegate operations from the figure.
    p.delete(&delegate, "tab1", Some("_id = 2"), &[]).unwrap();
    p.update(&delegate, "tab1", &[("data", "d".into())], Some("_id = 3"), &[]).unwrap();
    let new_id = p.insert(&delegate, "tab1", &[("data", "e".into())]).unwrap();
    assert_eq!(new_id, DELTA_PK_START);
    assert_eq!(new_id, 10_000_001, "the figure's literal offset");

    // The view for A's delegates (pub(x^A)).
    let rs = p
        .query(
            &delegate,
            "tab1",
            &QueryOpts { order_by: Some("_id".into()), ..Default::default() },
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Integer(1), Value::Text("a".into())],
            vec![Value::Integer(3), Value::Text("d".into())],
            vec![Value::Integer(10_000_001), Value::Text("e".into())],
        ]
    );

    // The delta table (Vol(A)) holds the figure's rows exactly.
    let delta =
        p.db().query("SELECT _id, data, _whiteout FROM tab1_delta_a ORDER BY _id", &[]).unwrap();
    assert_eq!(
        delta.rows,
        vec![
            vec![Value::Integer(2), Value::Text("b".into()), Value::Integer(1)],
            vec![Value::Integer(3), Value::Text("d".into()), Value::Integer(0)],
            vec![Value::Integer(10_000_001), Value::Text("e".into()), Value::Integer(0)],
        ]
    );

    // The primary table (pub(all)) is untouched.
    let primary = p.db().query("SELECT _id, data FROM tab1 ORDER BY _id", &[]).unwrap();
    assert_eq!(
        primary.rows,
        vec![
            vec![Value::Integer(1), Value::Text("a".into())],
            vec![Value::Integer(2), Value::Text("b".into())],
            vec![Value::Integer(3), Value::Text("c".into())],
        ]
    );
}

/// The generated SQL actually *executes* to create the same objects the
/// proxy creates programmatically (CREATE statements are valid engine
/// input, not just documentation).
#[test]
fn generated_sql_is_executable() {
    let mut db = maxoid_sqldb::Database::new();
    db.execute_batch("CREATE TABLE tab1 (_id INTEGER PRIMARY KEY, data TEXT);").unwrap();
    db.execute_batch(&sqlgen::delta_table_sql(
        "tab1",
        "a",
        &["_id INTEGER PRIMARY KEY".to_string(), "data TEXT".to_string()],
    ))
    .unwrap();
    db.execute_batch(&sqlgen::cow_view_sql("tab1", "a", &cols(), "_id")).unwrap();
    db.execute_batch(&sqlgen::insert_trigger_sql("tab1", "a", &cols())).unwrap();
    db.execute_batch(&sqlgen::update_trigger_sql("tab1", "a", &cols())).unwrap();
    db.execute_batch(&sqlgen::delete_trigger_sql("tab1", "a", &cols())).unwrap();
    assert!(db.has_table("tab1_delta_a"));
    assert!(db.has_view("tab1_view_a"));
    assert!(db.has_trigger("tab1_a_insert"));
    assert!(db.has_trigger("tab1_a_update"));
    assert!(db.has_trigger("tab1_a_delete"));
    // Drive the triggers through plain SQL.
    db.execute_batch("INSERT INTO tab1 VALUES (1,'a');").unwrap();
    db.execute_batch("UPDATE tab1_view_a SET data = 'z' WHERE _id = 1;").unwrap();
    let rs = db.query("SELECT data FROM tab1_view_a WHERE _id = 1", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Text("z".into())]]);
    let rs = db.query("SELECT data FROM tab1 WHERE _id = 1", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Text("a".into())]]);
}

/// Footnote 5: the proxy's ORDER BY workaround keeps flattening active on
/// the Figure 6 view.
#[test]
fn footnote5_workaround_end_to_end() {
    let mut p = CowProxy::new();
    p.execute_batch("CREATE TABLE tab1 (_id INTEGER PRIMARY KEY, data TEXT);").unwrap();
    for i in 0..100 {
        p.insert(&DbView::Primary, "tab1", &[("data", format!("row{i}").into())]).unwrap();
    }
    let delegate = DbView::Delegate { initiator: "a".into() };
    p.update(&delegate, "tab1", &[("data", "x".into())], Some("_id = 1"), &[]).unwrap();
    p.db().stats.reset();
    let rs = p
        .query(
            &delegate,
            "tab1",
            &QueryOpts {
                columns: vec!["data".into()],
                order_by: Some("_id DESC".into()),
                limit: Some(5),
                ..Default::default()
            },
            &[],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 5);
    assert_eq!(rs.columns, vec!["data"]);
    assert_eq!(p.db().stats.flattened_queries.get(), 1);
}
