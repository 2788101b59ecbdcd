//! Secondary indexes over single table columns.
//!
//! SQLite backs every Android content provider with secondary indexes
//! (user dictionary words, download status/URI, media buckets), and the
//! point queries Maxoid's COW proxy rewrites only stay fast if both the
//! primary table *and* the per-initiator delta table can probe an index
//! instead of scanning. A [`SecondaryIndex`] maps the indexed column's
//! value — ordered by [`OrdValue`]'s total order, i.e. exactly the
//! comparison semantics the expression evaluator uses — to the set of
//! rowids holding it. Indexes live inside [`crate::table::Table`] and are
//! maintained incrementally by every row mutation, so transaction
//! snapshots and `DROP TABLE` handle them for free.

use crate::error::{SqlError, SqlResult};
use crate::expr::OrdValue;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A small set of rowids, inline for the common unique-ish case.
///
/// Most indexed columns are near-unique (words, URIs), so the entry for a
/// key usually holds one or two rowids; keeping those inline avoids a heap
/// allocation per key, in the spirit of `SmallVec<[i64; 2]>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowIdSet {
    /// Up to two rowids stored inline (`len` is 0, 1 or 2).
    Inline {
        /// The inline slots; only the first `len` are meaningful.
        ids: [i64; 2],
        /// Number of occupied slots.
        len: u8,
    },
    /// Spilled to the heap once a key maps to three or more rows.
    Heap(Vec<i64>),
}

impl Default for RowIdSet {
    fn default() -> Self {
        RowIdSet::Inline { ids: [0; 2], len: 0 }
    }
}

impl RowIdSet {
    /// Number of rowids in the set.
    pub fn len(&self) -> usize {
        match self {
            RowIdSet::Inline { len, .. } => *len as usize,
            RowIdSet::Heap(v) => v.len(),
        }
    }

    /// True when no rowid is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds a rowid (idempotent).
    pub fn insert(&mut self, id: i64) {
        if self.contains(id) {
            return;
        }
        match self {
            RowIdSet::Inline { ids, len } => {
                if (*len as usize) < ids.len() {
                    ids[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = ids.to_vec();
                    v.push(id);
                    *self = RowIdSet::Heap(v);
                }
            }
            RowIdSet::Heap(v) => v.push(id),
        }
    }

    /// Removes a rowid; returns true when it was present.
    pub fn remove(&mut self, id: i64) -> bool {
        match self {
            RowIdSet::Inline { ids, len } => {
                let n = *len as usize;
                for i in 0..n {
                    if ids[i] == id {
                        ids[i] = ids[n - 1];
                        *len -= 1;
                        return true;
                    }
                }
                false
            }
            RowIdSet::Heap(v) => {
                if let Some(i) = v.iter().position(|&x| x == id) {
                    v.swap_remove(i);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// True when the set holds `id`.
    pub fn contains(&self, id: i64) -> bool {
        self.iter().any(|x| x == id)
    }

    /// Iterates the stored rowids (unordered).
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        match self {
            RowIdSet::Inline { ids, len } => ids[..*len as usize].iter().copied(),
            RowIdSet::Heap(v) => v[..].iter().copied(),
        }
    }
}

/// A single-column secondary index: indexed value → rowids.
///
/// Keys are compared with [`OrdValue`]'s total order, which matches the
/// evaluator's `=`/`<`/... semantics exactly (no affinity conversion), so
/// a probe returns precisely the rows a full scan's predicate would keep —
/// modulo NULL keys, which are stored (they must survive round trips
/// through UPDATE) but never returned by probes, mirroring SQL's
/// `NULL = NULL` being unknown.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondaryIndex {
    name: String,
    column: usize,
    unique: bool,
    map: BTreeMap<OrdValue, RowIdSet>,
}

impl SecondaryIndex {
    /// Creates an empty index over the column at position `column`.
    pub fn new(name: &str, column: usize, unique: bool) -> SecondaryIndex {
        SecondaryIndex { name: name.to_string(), column, unique, map: BTreeMap::new() }
    }

    /// Index name (as created, case preserved).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Position of the indexed column in the table schema.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Number of distinct keys currently indexed (including NULL).
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Checks whether adding `value` for `rowid` would violate uniqueness.
    /// NULL keys are exempt, as in SQLite; an existing entry for the same
    /// rowid (an in-place update) does not conflict.
    pub fn check_unique(&self, value: &Value, rowid: i64) -> SqlResult<()> {
        if !self.unique || matches!(value, Value::Null) {
            return Ok(());
        }
        if let Some(set) = self.map.get(&OrdValue(value.clone())) {
            if set.iter().any(|id| id != rowid) {
                return Err(SqlError::ConstraintUnique { index: self.name.clone() });
            }
        }
        Ok(())
    }

    /// Removes all entries (table truncation).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Records `rowid` under the row's indexed value.
    pub fn insert_entry(&mut self, row: &[Value], rowid: i64) {
        let key = OrdValue(row[self.column].clone());
        self.map.entry(key).or_default().insert(rowid);
    }

    /// Forgets `rowid` under the row's indexed value.
    pub fn remove_entry(&mut self, row: &[Value], rowid: i64) {
        let key = OrdValue(row[self.column].clone());
        if let Some(set) = self.map.get_mut(&key) {
            set.remove(rowid);
            if set.is_empty() {
                self.map.remove(&key);
            }
        }
    }

    /// Rowids whose indexed value equals `value` (by the evaluator's
    /// `total_cmp` semantics). A NULL probe matches nothing.
    pub fn probe_eq(&self, value: &Value) -> Vec<i64> {
        if matches!(value, Value::Null) {
            return Vec::new();
        }
        match self.map.get(&OrdValue(value.clone())) {
            Some(set) => {
                let mut ids: Vec<i64> = set.iter().collect();
                ids.sort_unstable();
                ids
            }
            None => Vec::new(),
        }
    }

    /// Rowids whose indexed value lies within the given bounds. NULL keys
    /// are never returned (SQL comparisons with NULL are unknown), which
    /// is enforced here by clamping the open lower end above NULL.
    pub fn probe_range(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Vec<i64> {
        let lo = match lower {
            Bound::Unbounded => Bound::Excluded(OrdValue(Value::Null)),
            Bound::Included(v) => Bound::Included(OrdValue(v.clone())),
            Bound::Excluded(v) => Bound::Excluded(OrdValue(v.clone())),
        };
        let hi = match upper {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(v) => Bound::Included(OrdValue(v.clone())),
            Bound::Excluded(v) => Bound::Excluded(OrdValue(v.clone())),
        };
        // A degenerate range (lo > hi) would panic in BTreeMap::range.
        if range_is_empty(&lo, &hi) {
            return Vec::new();
        }
        let mut ids: Vec<i64> = self
            .map
            .range((lo, hi))
            .filter(|(k, _)| !matches!(k.0, Value::Null))
            .flat_map(|(_, set)| set.iter())
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// True when `(lo, hi)` describes an empty interval that `BTreeMap::range`
/// would panic on.
fn range_is_empty(lo: &Bound<OrdValue>, hi: &Bound<OrdValue>) -> bool {
    use Bound::*;
    match (lo, hi) {
        (Included(a), Included(b)) => a > b,
        (Included(a), Excluded(b)) | (Excluded(a), Included(b)) => a >= b,
        (Excluded(a), Excluded(b)) => a >= b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: Value) -> Vec<Value> {
        vec![Value::Integer(0), v]
    }

    #[test]
    fn rowid_set_spills_to_heap() {
        let mut s = RowIdSet::default();
        assert!(s.is_empty());
        s.insert(1);
        s.insert(2);
        assert!(matches!(s, RowIdSet::Inline { .. }));
        s.insert(3);
        assert!(matches!(s, RowIdSet::Heap(_)));
        assert_eq!(s.len(), 3);
        s.insert(3); // idempotent
        assert_eq!(s.len(), 3);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        let mut ids: Vec<i64> = s.iter().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn eq_probe_and_maintenance() {
        let mut ix = SecondaryIndex::new("ix", 1, false);
        ix.insert_entry(&row("a".into()), 1);
        ix.insert_entry(&row("a".into()), 2);
        ix.insert_entry(&row("b".into()), 3);
        assert_eq!(ix.probe_eq(&"a".into()), vec![1, 2]);
        ix.remove_entry(&row("a".into()), 1);
        assert_eq!(ix.probe_eq(&"a".into()), vec![2]);
        assert_eq!(ix.probe_eq(&"zzz".into()), Vec::<i64>::new());
        assert_eq!(ix.probe_eq(&Value::Null), Vec::<i64>::new());
    }

    #[test]
    fn range_probe_skips_null_keys() {
        let mut ix = SecondaryIndex::new("ix", 1, false);
        ix.insert_entry(&row(Value::Null), 1);
        ix.insert_entry(&row(5.into()), 2);
        ix.insert_entry(&row(9.into()), 3);
        // Open lower bound must not sweep in the NULL key.
        let ids = ix.probe_range(Bound::Unbounded, Bound::Included(&9.into()));
        assert_eq!(ids, vec![2, 3]);
        let ids = ix.probe_range(Bound::Excluded(&5.into()), Bound::Unbounded);
        assert_eq!(ids, vec![3]);
        // Degenerate range does not panic.
        let ids = ix.probe_range(Bound::Excluded(&9.into()), Bound::Excluded(&5.into()));
        assert!(ids.is_empty());
    }

    #[test]
    fn unique_checks_exempt_nulls_and_self() {
        let mut ix = SecondaryIndex::new("u", 1, true);
        ix.insert_entry(&row("a".into()), 1);
        ix.insert_entry(&row(Value::Null), 2);
        assert!(ix.check_unique(&"a".into(), 5).is_err());
        assert!(ix.check_unique(&"a".into(), 1).is_ok()); // same row
        assert!(ix.check_unique(&Value::Null, 5).is_ok()); // NULLs exempt
        assert!(ix.check_unique(&"b".into(), 5).is_ok());
    }

    #[test]
    fn numeric_keys_compare_across_int_and_real() {
        // total_cmp equates 5 and 5.0, so a probe with either form hits.
        let mut ix = SecondaryIndex::new("n", 1, false);
        ix.insert_entry(&row(Value::Integer(5)), 1);
        assert_eq!(ix.probe_eq(&Value::Real(5.0)), vec![1]);
    }
}
