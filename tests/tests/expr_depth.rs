//! A caller-controlled expression can be arbitrarily deep, so the SQL
//! parser bounds expression trees (`maxoid_sqldb::parser::MAX_EXPR_DEPTH`)
//! instead of recursing until the stack overflows and aborts every tenant
//! of the process. Each form runs on a 2 MiB thread, Rust's default for
//! spawned threads, in whatever build the suite runs (an unoptimized
//! build, with its larger stack frames, is the tight case).

use maxoid_providers::provider::ContentProvider;
use maxoid_providers::{Caller, ContentValues, QueryArgs, Uri, UserDictionaryProvider};
use maxoid_sqldb::{Database, SqlError, SqlResult};

/// The ways to grow a tree: two kinds of nesting, two prefix-operator
/// runs and a binary chain, each over the column `x`.
const FORMS: [(&str, fn(usize) -> String); 5] = [
    ("parentheses", |n| format!("{}x = 1{}", "(".repeat(n), ")".repeat(n))),
    ("function calls", |n| format!("{}x{} = 1", "abs(".repeat(n), ")".repeat(n))),
    ("NOTs", |n| format!("{}x = 1", "NOT ".repeat(n))),
    ("unary minuses", |n| format!("{}x = -1", "- ".repeat(n))),
    ("OR terms", |n| vec!["x = 1"; n].join(" OR ")),
];

fn on_2mib_thread(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap();
}

/// Runs `run` on growing instances of `form` until one is refused, and
/// returns the deepest accepted size. Every accepted instance has been
/// parsed, evaluated against a row and dropped on this thread.
fn deepest_accepted<T>(
    form: fn(usize) -> String,
    mut run: impl FnMut(&str) -> Result<T, String>,
) -> usize {
    let mut n = 1;
    while run(&form(n)).is_ok() {
        n += 1;
        assert!(n <= 100_000, "no depth limit");
    }
    n - 1
}

#[test]
fn deep_expressions_are_refused_not_overflowed() {
    on_2mib_thread(|| {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, x INTEGER); INSERT INTO t (x) VALUES (1);",
        )
        .unwrap();
        let query = |w: &str| -> SqlResult<usize> {
            Ok(db.query(&format!("SELECT _id FROM t WHERE {w}"), &[])?.rows.len())
        };
        for (name, form) in FORMS {
            assert!(
                matches!(query(&form(100_000)), Err(SqlError::Parse { .. })),
                "100,000 {name} must be a parse error"
            );
            let deepest = deepest_accepted(form, |w| query(w).map_err(|e| e.to_string()));
            assert!(deepest >= 50, "{name}: limit too low ({deepest})");
            assert!(matches!(query(&form(deepest + 1)), Err(SqlError::Parse { .. })), "{name}");
        }
    });
}

#[test]
fn deep_selections_are_refused_by_providers() {
    on_2mib_thread(|| {
        let mut dict = UserDictionaryProvider::new();
        let words = Uri::parse("content://user_dictionary/words").unwrap();
        let caller = Caller::normal("com.keyboard");
        dict.insert(&caller, &words, &ContentValues::new().put("word", "w").put("frequency", 1))
            .unwrap();
        let mut query = |sel: &str| {
            let args =
                QueryArgs { selection: Some(sel.replace('x', "frequency")), ..Default::default() };
            dict.query(&caller, &words, &args).map_err(|e| e.to_string())
        };
        for (name, form) in FORMS {
            assert!(query(&form(100_000)).is_err(), "100,000 {name} must be refused");
            let deepest = deepest_accepted(form, &mut query);
            assert!(deepest >= 50, "{name}: limit too low ({deepest})");
        }
    });
}
