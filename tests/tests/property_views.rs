//! Property-based tests of the core Maxoid invariants, driving random
//! operation sequences through the full system:
//!
//! - **S2 (integrity)**: no sequence of delegate file operations ever
//!   changes what the public world reads.
//! - **U2 (read-your-writes)**: a delegate always reads back the last
//!   value it wrote at a path.
//! - **COW proxy equivalence**: through the provider, a delegate's view
//!   behaves exactly like a shadow map layered over the public rows.

use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, QueryArgs, Uri};
use maxoid_vfs::{vpath, Mode, VPath};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random delegate file operation.
#[derive(Debug, Clone)]
enum FileOp {
    Write(usize, Vec<u8>),
    Append(usize, Vec<u8>),
    Delete(usize),
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        (0..4usize, proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(i, d)| FileOp::Write(i, d)),
        (0..4usize, proptest::collection::vec(any::<u8>(), 1..16))
            .prop_map(|(i, d)| FileOp::Append(i, d)),
        (0..4usize).prop_map(FileOp::Delete),
    ]
}

fn paths() -> Vec<VPath> {
    (0..4).map(|i| vpath("/storage/sdcard").join(&format!("f{i}.dat")).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Public state is invariant under arbitrary delegate file activity,
    /// and the delegate's view equals a model: public state overlaid with
    /// its own writes.
    #[test]
    fn delegate_file_ops_preserve_public_state(ops in proptest::collection::vec(file_op(), 1..24)) {
        let sys = MaxoidSystem::boot().unwrap();
        sys.install("init", vec![], MaxoidManifest::new()).unwrap();
        sys.install("worker", vec![], MaxoidManifest::new()).unwrap();
        sys.install("public", vec![], MaxoidManifest::new()).unwrap();
        let public = sys.launch("public").unwrap();
        let files = paths();
        // Seed half the files publicly.
        for (i, p) in files.iter().enumerate() {
            if i % 2 == 0 {
                sys.kernel.write(public, p, format!("seed{i}").as_bytes(), Mode::PUBLIC).unwrap();
            }
        }
        let snapshot: Vec<Option<Vec<u8>>> =
            files.iter().map(|p| sys.kernel.read(public, p).ok()).collect();

        let d = sys.launch_as_delegate("worker", "init").unwrap();
        // The model of the delegate's expected view.
        let mut model: BTreeMap<usize, Option<Vec<u8>>> = BTreeMap::new();
        for (i, s) in snapshot.iter().enumerate() {
            model.insert(i, s.clone());
        }
        for op in &ops {
            match op {
                FileOp::Write(i, data) => {
                    sys.kernel.write(d, &files[*i], data, Mode::PUBLIC).unwrap();
                    model.insert(*i, Some(data.clone()));
                }
                FileOp::Append(i, data) => {
                    match model.get(i).cloned().flatten() {
                        Some(mut cur) => {
                            sys.kernel.append(d, &files[*i], data).unwrap();
                            cur.extend_from_slice(data);
                            model.insert(*i, Some(cur));
                        }
                        None => {
                            prop_assert!(sys.kernel.append(d, &files[*i], data).is_err());
                        }
                    }
                }
                FileOp::Delete(i) => {
                    if model.get(i).cloned().flatten().is_some() {
                        sys.kernel.unlink(d, &files[*i]).unwrap();
                        model.insert(*i, None);
                    } else {
                        prop_assert!(sys.kernel.unlink(d, &files[*i]).is_err());
                    }
                }
            }
            // U2: the delegate reads its own (modelled) state.
            for (i, p) in files.iter().enumerate() {
                prop_assert_eq!(sys.kernel.read(d, p).ok(), model[&i].clone(), "path {}", p);
            }
        }
        // S2: the public view is byte-identical to the snapshot.
        for (p, before) in files.iter().zip(&snapshot) {
            prop_assert_eq!(&sys.kernel.read(public, p).ok(), before, "public view changed at {}", p);
        }
        // And after Clear-Vol, a fresh delegate sees pristine public state.
        sys.clear_vol("init").unwrap();
        let d2 = sys.launch_as_delegate("worker", "init").unwrap();
        for (p, before) in files.iter().zip(&snapshot) {
            prop_assert_eq!(&sys.kernel.read(d2, p).ok(), before);
        }
    }
}

/// A random provider operation by the delegate.
#[derive(Debug, Clone)]
enum RowOp {
    Insert(String),
    Update(i64, String),
    Delete(i64),
}

fn row_op() -> impl Strategy<Value = RowOp> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(RowOp::Insert),
        (1..6i64, "[a-z]{1,8}").prop_map(|(id, w)| RowOp::Update(id, w)),
        (1..6i64).prop_map(RowOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The COW proxy's delegate view equals a shadow map over the public
    /// rows, and the public rows never change.
    #[test]
    fn delegate_provider_ops_match_shadow_model(ops in proptest::collection::vec(row_op(), 1..20)) {
        let sys = MaxoidSystem::boot().unwrap();
        sys.install("init", vec![], MaxoidManifest::new()).unwrap();
        sys.install("worker", vec![], MaxoidManifest::new()).unwrap();
        sys.install("public", vec![], MaxoidManifest::new()).unwrap();
        let public = sys.launch("public").unwrap();
        let words = Uri::parse("content://user_dictionary/words").unwrap();
        for i in 1..=5 {
            sys.cp_insert(public, &words, &ContentValues::new().put("word", format!("pub{i}"))).unwrap();
        }
        let d = sys.launch_as_delegate("worker", "init").unwrap();
        // Shadow model: id -> Some(word) (live) / None (deleted).
        let mut model: BTreeMap<i64, Option<String>> =
            (1..=5).map(|i| (i, Some(format!("pub{i}")))).collect();
        let mut next_id = 10_000_001i64;
        for op in &ops {
            match op {
                RowOp::Insert(w) => {
                    let uri = sys.cp_insert(d, &words, &ContentValues::new().put("word", w.as_str())).unwrap();
                    let id = uri.id().unwrap();
                    prop_assert_eq!(id, next_id, "delegate ids come from the offset");
                    model.insert(id, Some(w.clone()));
                    next_id += 1;
                }
                RowOp::Update(id, w) => {
                    let n = sys.cp_update(d, &words.with_id(*id),
                        &ContentValues::new().put("word", w.as_str()), &QueryArgs::default()).unwrap();
                    if model.get(id).cloned().flatten().is_some() {
                        prop_assert_eq!(n, 1);
                        model.insert(*id, Some(w.clone()));
                    } else {
                        prop_assert_eq!(n, 0);
                    }
                }
                RowOp::Delete(id) => {
                    let n = sys.cp_delete(d, &words.with_id(*id), &QueryArgs::default()).unwrap();
                    if model.get(id).cloned().flatten().is_some() {
                        prop_assert_eq!(n, 1);
                        model.insert(*id, None);
                    } else {
                        prop_assert_eq!(n, 0);
                    }
                }
            }
        }
        // The delegate's full view equals the live entries of the model.
        let rs = sys.cp_query(d, &words, &QueryArgs {
            projection: vec!["_id".into(), "word".into()],
            sort_order: Some("_id".into()),
            ..Default::default()
        }).unwrap();
        let got: Vec<(i64, String)> = rs.rows.iter()
            .map(|r| (r[0].as_integer().unwrap(), r[1].to_string()))
            .collect();
        let want: Vec<(i64, String)> = model.iter()
            .filter_map(|(id, w)| w.clone().map(|w| (*id, w)))
            .collect();
        prop_assert_eq!(got, want);
        // The public rows are untouched.
        let rs = sys.cp_query(public, &words, &QueryArgs {
            projection: vec!["word".into()],
            sort_order: Some("_id".into()),
            ..Default::default()
        }).unwrap();
        let pub_words: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        prop_assert_eq!(pub_words, (1..=5).map(|i| format!("pub{i}")).collect::<Vec<_>>());
    }
}
