//! Row storage for base tables.
//!
//! Every table is keyed by a 64-bit integer rowid held in a `BTreeMap`,
//! which doubles as the primary-key index. When a column is declared
//! `INTEGER PRIMARY KEY` it aliases the rowid, exactly like SQLite; tables
//! without one get a hidden rowid that auto-assigns on insert.
//!
//! Row payloads live in one of two places. Small tables keep their
//! `Vec<Value>` rows resident. Once a table's (approximate) encoded size
//! crosses the threshold of an attached heap (`Database::attach_heap`),
//! its payloads migrate to the device-backed heap tier and are faulted
//! through the block page cache on access — the rowid map and all
//! secondary indexes stay resident, mirroring the VFS split between
//! inline and spilled file data. Reads hand out `Cow` rows so the
//! resident path stays zero-copy while the paged path decodes from a
//! pinned cache frame.
//!
//! The COW proxy sets a *primary-key start* on delta tables so that rows a
//! delegate inserts get ids from a large offset `N` and never collide with
//! public rows (paper §5.2).
//!
//! # Multiversion storage
//!
//! Rows are shared, not copied: the rowid map is an
//! `Arc<BTreeMap<i64, Arc<Vec<Value>>>>` for resident rows and an
//! `Arc<BTreeMap<i64, RowLoc>>` for paged ones (each location holding its
//! heap page by `Arc`), and a database's catalog holds each table behind
//! an `Arc` too (`db::Catalog`). Cloning a table copies those `Arc`s, so
//! a published snapshot, a snapshot reader and a transaction's BEGIN
//! image share the live table until it changes, and snapshot readers see
//! exactly the committed rows of their stamp. Mutations privatize the map
//! with `Arc::make_mut` and replace a row's entry; an older copy keeps
//! every row it saw alive with its own `Arc` until it drops, and no other
//! version of a row is kept. A heap page's bytes never change while a
//! copy holds it, so resident and paged tables share alike.

use crate::ast::ColumnDef;
use crate::error::{SqlError, SqlResult};
use crate::heap::{encoded_len, HeapCfg, PagedRows};
use crate::index::SecondaryIndex;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schema of a base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Index of the `INTEGER PRIMARY KEY` column, if declared.
    pub pk_column: Option<usize>,
    /// The column names in order, made once so every table access
    /// borrows them. Mirrors `columns`, which nothing changes after
    /// [`TableSchema::new`].
    names: Vec<String>,
}

impl TableSchema {
    /// Builds a schema from CREATE TABLE column definitions.
    pub fn new(name: String, columns: Vec<ColumnDef>) -> SqlResult<Self> {
        let pks: Vec<usize> =
            columns.iter().enumerate().filter(|(_, c)| c.primary_key).map(|(i, _)| i).collect();
        if pks.len() > 1 {
            return Err(SqlError::Unsupported(format!(
                "table {name} declares a composite primary key"
            )));
        }
        let mut seen: Vec<&str> = Vec::new();
        for c in &columns {
            if seen.iter().any(|s| s.eq_ignore_ascii_case(&c.name)) {
                return Err(SqlError::AlreadyExists(format!("column {} in {name}", c.name)));
            }
            seen.push(&c.name);
        }
        let names = columns.iter().map(|c| c.name.clone()).collect();
        Ok(TableSchema { name, columns, pk_column: pks.first().copied(), names })
    }

    /// Returns the position of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Returns the column names in order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }
}

/// The two payload homes: resident shared rows or the device-backed heap.
/// `bytes` tracks a resident table's live encoded size, so the spill
/// decision costs nothing extra.
#[derive(Debug, Clone)]
enum Rows {
    Resident { map: Arc<BTreeMap<i64, Arc<Vec<Value>>>>, bytes: usize },
    Paged(PagedRows),
}

impl Rows {
    fn resident() -> Self {
        Rows::Resident { map: Arc::new(BTreeMap::new()), bytes: 0 }
    }

    fn len(&self) -> usize {
        match self {
            Rows::Resident { map, .. } => map.len(),
            Rows::Paged(p) => p.len(),
        }
    }

    fn contains_key(&self, id: i64) -> bool {
        match self {
            Rows::Resident { map, .. } => map.contains_key(&id),
            Rows::Paged(p) => p.contains_key(id),
        }
    }

    fn max_key(&self) -> Option<i64> {
        match self {
            Rows::Resident { map, .. } => map.keys().next_back().copied(),
            Rows::Paged(p) => p.max_key(),
        }
    }

    fn get(&self, id: i64) -> Option<Cow<'_, [Value]>> {
        match self {
            Rows::Resident { map, .. } => map.get(&id).map(|r| Cow::Borrowed(r.as_slice())),
            Rows::Paged(p) => p.get(id).map(Cow::Owned),
        }
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (i64, Cow<'_, [Value]>)> + '_> {
        match self {
            Rows::Resident { map, .. } => {
                Box::new(map.iter().map(|(&id, r)| (id, Cow::Borrowed(r.as_slice()))))
            }
            Rows::Paged(p) => Box::new(p.iter().map(|(id, r)| (id, Cow::Owned(r)))),
        }
    }

    fn insert(&mut self, id: i64, values: Vec<Value>) {
        match self {
            Rows::Resident { map, bytes } => {
                *bytes += encoded_len(&values);
                if let Some(prev) = Arc::make_mut(map).insert(id, Arc::new(values)) {
                    *bytes -= encoded_len(&prev);
                }
            }
            Rows::Paged(p) => p.insert(id, &values),
        }
    }

    fn remove(&mut self, id: i64) -> Option<Vec<Value>> {
        match self {
            Rows::Resident { map, bytes } => {
                let old = Arc::make_mut(map).remove(&id)?;
                *bytes -= encoded_len(&old);
                // A row a snapshot still sees stays with the snapshot.
                Some(Arc::try_unwrap(old).unwrap_or_else(|pinned| (*pinned).clone()))
            }
            Rows::Paged(p) => p.remove(id),
        }
    }

    fn clear(&mut self) {
        match self {
            Rows::Resident { map, bytes } => {
                // Swap rather than clear in place: a snapshot may still
                // share the old map.
                *map = Arc::new(BTreeMap::new());
                *bytes = 0;
            }
            Rows::Paged(p) => p.clear(),
        }
    }
}

/// A base table: schema plus rows indexed by rowid.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: Rows,
    /// Minimum rowid for auto-assigned keys (the COW proxy's offset `N`).
    pk_start: i64,
    /// Secondary indexes, maintained incrementally by every row mutation.
    /// Living inside the table means a BEGIN image (which holds whole
    /// tables) and `DROP TABLE` handle indexes with no extra bookkeeping.
    /// `Arc`-shared so a clone is shallow; privatized copy-on-write at
    /// the next index mutation.
    indexes: Arc<Vec<SecondaryIndex>>,
    /// Spill target and threshold; `None` keeps the table resident
    /// forever.
    heap: Option<HeapCfg>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Rows::resident(),
            pk_start: 1,
            indexes: Arc::new(Vec::new()),
            heap: None,
        }
    }

    /// Attaches a heap tier: once the table's encoded payload exceeds
    /// `cfg.threshold` bytes its rows move to the device and are faulted
    /// through the page cache on access. Oversized tables migrate
    /// immediately. Crate-private, so a table pages only under its
    /// database's heap (`Database::attach_heap`).
    pub(crate) fn attach_heap(&mut self, cfg: HeapCfg) {
        self.heap = Some(cfg);
        self.maybe_spill();
    }

    /// True when the rows live on the heap tier rather than in memory.
    pub fn is_paged(&self) -> bool {
        matches!(self.rows, Rows::Paged(_))
    }

    fn maybe_spill(&mut self) {
        let Some(cfg) = &self.heap else { return };
        let Rows::Resident { map, bytes } = &mut self.rows else { return };
        if *bytes <= cfg.threshold {
            return;
        }
        let mut paged = PagedRows::new(cfg.tier.clone());
        for (id, row) in std::mem::take(Arc::make_mut(map)) {
            paged.insert(id, &row);
        }
        self.rows = Rows::Paged(paged);
    }

    /// Creates a secondary index named `name` over `column`, populating it
    /// from the existing rows. Fails (leaving the table unchanged) on an
    /// unknown column, a duplicate index name on this table, or — for
    /// `unique` — existing duplicate non-NULL values.
    pub fn create_index(&mut self, name: &str, column: &str, unique: bool) -> SqlResult<()> {
        let Some(col) = self.schema.column_index(column) else {
            return Err(SqlError::NoSuchColumn(format!("{}.{column}", self.schema.name)));
        };
        if self.has_index(name) {
            return Err(SqlError::AlreadyExists(format!("index {name}")));
        }
        let mut ix = SecondaryIndex::new(name, col, unique);
        for (id, row) in self.rows.iter() {
            ix.check_unique(&row[col], id)?;
            ix.insert_entry(&row, id);
        }
        Arc::make_mut(&mut self.indexes).push(ix);
        Ok(())
    }

    /// Drops the index named `name`; returns true if it existed.
    pub fn drop_index(&mut self, name: &str) -> bool {
        if !self.has_index(name) {
            return false;
        }
        Arc::make_mut(&mut self.indexes).retain(|ix| !ix.name().eq_ignore_ascii_case(name));
        true
    }

    /// True when this table has an index named `name`.
    pub fn has_index(&self, name: &str) -> bool {
        self.indexes.iter().any(|ix| ix.name().eq_ignore_ascii_case(name))
    }

    /// The index over the column at schema position `column`, if any.
    pub fn index_on(&self, column: usize) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|ix| ix.column() == column)
    }

    /// All secondary indexes on this table.
    pub fn indexes(&self) -> &[SecondaryIndex] {
        self.indexes.as_slice()
    }

    /// Sets the first auto-assigned rowid. Used by the COW proxy to start
    /// delta-table keys at a large offset.
    pub fn set_pk_start(&mut self, start: i64) {
        self.pk_start = start;
    }

    /// Returns the configured auto-assignment start.
    pub fn pk_start(&self) -> i64 {
        self.pk_start
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// Returns the next rowid that auto-assignment would produce.
    pub fn next_rowid(&self) -> i64 {
        match self.rows.max_key() {
            Some(max) => (max + 1).max(self.pk_start),
            None => self.pk_start,
        }
    }

    /// Inserts a row given values aligned with the schema columns.
    ///
    /// A NULL (or absent) primary key auto-assigns the next rowid. With
    /// `replace` set, an existing row with the same key is overwritten
    /// (INSERT OR REPLACE); otherwise a duplicate key is a constraint
    /// error. Returns the rowid of the inserted row.
    pub fn insert(&mut self, mut values: Vec<Value>, replace: bool) -> SqlResult<i64> {
        debug_assert_eq!(values.len(), self.schema.columns.len());
        // Apply column affinities.
        for (i, v) in values.iter_mut().enumerate() {
            let owned = std::mem::replace(v, Value::Null);
            *v = self.schema.columns[i].affinity.apply(owned);
        }
        let rowid = match self.schema.pk_column {
            Some(pk) => match &values[pk] {
                Value::Null => {
                    let id = self.next_rowid();
                    values[pk] = Value::Integer(id);
                    id
                }
                Value::Integer(i) => *i,
                other => {
                    return Err(SqlError::Type(format!(
                        "primary key of {} must be an integer, got {other:?}",
                        self.schema.name
                    )))
                }
            },
            None => self.next_rowid(),
        };
        for (i, c) in self.schema.columns.iter().enumerate() {
            if c.not_null && values[i].is_null() {
                return Err(SqlError::Type(format!(
                    "NOT NULL constraint failed: {}.{}",
                    self.schema.name, c.name
                )));
            }
        }
        if !replace && self.rows.contains_key(rowid) {
            return Err(SqlError::ConstraintPrimaryKey {
                table: self.schema.name.clone(),
                key: rowid,
            });
        }
        // Unique-index checks before any mutation. A row displaced by OR
        // REPLACE shares this rowid, so check_unique's self-exemption
        // already discounts its entries.
        for ix in self.indexes.iter() {
            ix.check_unique(&values[ix.column()], rowid)?;
        }
        if !self.indexes.is_empty() {
            if let Some(old) = self.rows.get(rowid) {
                let old = old.into_owned();
                for ix in Arc::make_mut(&mut self.indexes) {
                    ix.remove_entry(&old, rowid);
                }
            }
        }
        if !self.indexes.is_empty() {
            for ix in Arc::make_mut(&mut self.indexes) {
                ix.insert_entry(&values, rowid);
            }
        }
        self.rows.insert(rowid, values);
        self.maybe_spill();
        Ok(rowid)
    }

    /// Point lookup by rowid. Resident tables borrow the row; paged
    /// tables decode it from a pinned cache page.
    pub fn get(&self, rowid: i64) -> Option<Cow<'_, [Value]>> {
        self.rows.get(rowid)
    }

    /// True when a row with this rowid exists — no payload is touched, so
    /// paged tables answer from the resident rowid map.
    pub fn contains_rowid(&self, rowid: i64) -> bool {
        self.rows.contains_key(rowid)
    }

    /// Iterates rows in rowid order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (i64, Cow<'_, [Value]>)> + '_> {
        self.rows.iter()
    }

    /// Replaces the row at `rowid` (which must exist). If the new values
    /// change the primary key the row is re-keyed.
    pub fn update_row(&mut self, rowid: i64, mut values: Vec<Value>) -> SqlResult<()> {
        for (i, v) in values.iter_mut().enumerate() {
            let owned = std::mem::replace(v, Value::Null);
            *v = self.schema.columns[i].affinity.apply(owned);
        }
        let new_rowid = match self.schema.pk_column {
            Some(pk) => match &values[pk] {
                Value::Integer(i) => *i,
                Value::Null => {
                    return Err(SqlError::Type(format!(
                        "cannot set primary key of {} to NULL",
                        self.schema.name
                    )))
                }
                other => {
                    return Err(SqlError::Type(format!(
                        "primary key of {} must be an integer, got {other:?}",
                        self.schema.name
                    )))
                }
            },
            None => rowid,
        };
        if new_rowid != rowid && self.rows.contains_key(new_rowid) {
            return Err(SqlError::ConstraintPrimaryKey {
                table: self.schema.name.clone(),
                key: new_rowid,
            });
        }
        let old = if self.indexes.is_empty() {
            None
        } else {
            self.rows.get(rowid).map(|r| r.into_owned())
        };
        // An index moves its entry when the key or the rowid changes; the
        // others are left alone, so indexes a snapshot shares stay shared.
        let moves = |ix: &SecondaryIndex| {
            new_rowid != rowid
                || old.as_ref().is_none_or(|old| old[ix.column()] != values[ix.column()])
        };
        if self.indexes.iter().any(moves) {
            // Drop the moving entries, then check uniqueness of the new
            // values; restore on failure so a rejected UPDATE leaves the
            // indexes untouched.
            let indexes = Arc::make_mut(&mut self.indexes);
            if let Some(old) = &old {
                for ix in indexes.iter_mut().filter(|ix| moves(ix)) {
                    ix.remove_entry(old, rowid);
                }
            }
            let conflict = indexes
                .iter()
                .filter(|ix| moves(ix))
                .find_map(|ix| ix.check_unique(&values[ix.column()], new_rowid).err());
            if let Some(e) = conflict {
                if let Some(old) = &old {
                    for ix in indexes.iter_mut().filter(|ix| moves(ix)) {
                        ix.insert_entry(old, rowid);
                    }
                }
                return Err(e);
            }
            for ix in indexes.iter_mut().filter(|ix| moves(ix)) {
                ix.insert_entry(&values, new_rowid);
            }
        }
        if new_rowid != rowid {
            self.rows.remove(rowid);
        }
        self.rows.insert(new_rowid, values);
        self.maybe_spill();
        Ok(())
    }

    /// Deletes a row by rowid; returns true if it existed.
    pub fn delete_row(&mut self, rowid: i64) -> bool {
        match self.rows.remove(rowid) {
            Some(old) => {
                if !self.indexes.is_empty() {
                    for ix in Arc::make_mut(&mut self.indexes) {
                        ix.remove_entry(&old, rowid);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Removes all rows.
    pub fn clear(&mut self) {
        self.rows.clear();
        if !self.indexes.is_empty() {
            for ix in Arc::make_mut(&mut self.indexes) {
                ix.clear();
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// True when both tables hold the same row map.
    pub(crate) fn same_rows(a: &Table, b: &Table) -> bool {
        match (&a.rows, &b.rows) {
            (Rows::Resident { map: a, .. }, Rows::Resident { map: b, .. }) => Arc::ptr_eq(a, b),
            (Rows::Paged(a), Rows::Paged(b)) => crate::heap::tests::same_rows(a, b),
            _ => false,
        }
    }
    use crate::ast::Affinity;
    use maxoid_block::MemDevice;
    use maxoid_block::SpillTier;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t".into(),
            vec![
                ColumnDef {
                    name: "_id".into(),
                    affinity: Affinity::Integer,
                    primary_key: true,
                    not_null: false,
                },
                ColumnDef {
                    name: "data".into(),
                    affinity: Affinity::Text,
                    primary_key: false,
                    not_null: false,
                },
            ],
        )
        .unwrap()
    }

    fn tiny_heap() -> HeapCfg {
        // 64-byte pages, 2 resident frames, spill after ~128 bytes: a few
        // rows are enough to both migrate and evict.
        let tier = SpillTier::new(Box::new(MemDevice::with_sector_size(64)), 2);
        HeapCfg { tier, threshold: 128 }
    }

    /// The strong count of each resident row's `Arc`, by rowid.
    fn owners(t: &Table) -> Vec<usize> {
        match &t.rows {
            Rows::Resident { map, .. } => map.values().map(Arc::strong_count).collect(),
            Rows::Paged(_) => unreachable!("resident table"),
        }
    }

    #[test]
    fn a_dropped_snapshot_leaves_the_live_map_the_only_owner() {
        let mut t = Table::new(schema());
        for data in ["a", "b", "c"] {
            t.insert(vec![Value::Null, data.into()], false).unwrap();
        }
        let frozen = t.clone();
        assert_eq!(owners(&t), vec![1, 1, 1], "the clone shares the map itself");
        for i in 0..10 {
            t.update_row(1, vec![Value::Integer(1), format!("v{i}").into()]).unwrap();
        }
        // The first write copied the map, so each unchanged row has two
        // owners. The snapshot keeps reading the row it saw; the live
        // table holds only its newest row, and no update kept the ones
        // between.
        assert_eq!(frozen.get(1).unwrap()[1], Value::Text("a".into()));
        assert_eq!(t.get(1).unwrap()[1], Value::Text("v9".into()));
        assert_eq!(owners(&t), vec![1, 2, 2]);
        assert_eq!(owners(&frozen), vec![1, 2, 2], "row 1's first version: the snapshot's alone");
        drop(frozen);
        assert_eq!(owners(&t), vec![1, 1, 1], "the live map is the only owner of each row");
    }

    #[test]
    fn auto_assigns_pk() {
        let mut t = Table::new(schema());
        let id1 = t.insert(vec![Value::Null, "a".into()], false).unwrap();
        let id2 = t.insert(vec![Value::Null, "b".into()], false).unwrap();
        assert_eq!((id1, id2), (1, 2));
        assert_eq!(t.get(1).unwrap()[0], Value::Integer(1));
    }

    #[test]
    fn pk_start_offsets_new_rows() {
        let mut t = Table::new(schema());
        t.set_pk_start(10_000_001);
        let id = t.insert(vec![Value::Null, "e".into()], false).unwrap();
        assert_eq!(id, 10_000_001);
        // Explicit low keys are still allowed (copy-on-write of row 2).
        let id2 = t.insert(vec![Value::Integer(2), "b".into()], false).unwrap();
        assert_eq!(id2, 2);
        // But the next auto key continues above the offset.
        assert_eq!(t.insert(vec![Value::Null, "f".into()], false).unwrap(), 10_000_002);
    }

    #[test]
    fn duplicate_pk_is_constraint_error() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        let err = t.insert(vec![Value::Integer(1), "b".into()], false).unwrap_err();
        assert!(matches!(err, SqlError::ConstraintPrimaryKey { key: 1, .. }));
        // OR REPLACE overwrites.
        t.insert(vec![Value::Integer(1), "b".into()], true).unwrap();
        assert_eq!(t.get(1).unwrap()[1], Value::Text("b".into()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn affinity_applied_on_insert() {
        let mut t = Table::new(schema());
        let id = t.insert(vec![Value::Text("7".into()), Value::Integer(42)], false).unwrap();
        assert_eq!(id, 7);
        assert_eq!(t.get(7).unwrap()[1], Value::Text("42".into()));
    }

    #[test]
    fn update_rekeys_on_pk_change() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        t.update_row(1, vec![Value::Integer(5), "a".into()]).unwrap();
        assert!(t.get(1).is_none());
        assert_eq!(t.get(5).unwrap()[1], Value::Text("a".into()));
    }

    #[test]
    fn not_null_enforced() {
        let s = TableSchema::new(
            "t".into(),
            vec![
                ColumnDef {
                    name: "_id".into(),
                    affinity: Affinity::Integer,
                    primary_key: true,
                    not_null: false,
                },
                ColumnDef {
                    name: "w".into(),
                    affinity: Affinity::Text,
                    primary_key: false,
                    not_null: true,
                },
            ],
        )
        .unwrap();
        let mut t = Table::new(s);
        assert!(t.insert(vec![Value::Null, Value::Null], false).is_err());
    }

    #[test]
    fn composite_pk_rejected() {
        let err = TableSchema::new(
            "t".into(),
            vec![
                ColumnDef {
                    name: "a".into(),
                    affinity: Affinity::Integer,
                    primary_key: true,
                    not_null: false,
                },
                ColumnDef {
                    name: "b".into(),
                    affinity: Affinity::Integer,
                    primary_key: true,
                    not_null: false,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = TableSchema::new(
            "t".into(),
            vec![
                ColumnDef {
                    name: "a".into(),
                    affinity: Affinity::Integer,
                    primary_key: false,
                    not_null: false,
                },
                ColumnDef {
                    name: "A".into(),
                    affinity: Affinity::Integer,
                    primary_key: false,
                    not_null: false,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::AlreadyExists(_)));
    }

    #[test]
    fn index_follows_update_of_indexed_column() {
        let mut t = Table::new(schema());
        t.create_index("ix_data", "data", false).unwrap();
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        t.insert(vec![Value::Integer(2), "b".into()], false).unwrap();
        t.update_row(1, vec![Value::Integer(1), "b".into()]).unwrap();
        let ix = t.index_on(1).unwrap();
        assert_eq!(ix.probe_eq(&"a".into()), Vec::<i64>::new());
        assert_eq!(ix.probe_eq(&"b".into()), vec![1, 2]);
        // Re-keying the pk moves the index entry to the new rowid.
        t.update_row(1, vec![Value::Integer(9), "b".into()]).unwrap();
        assert_eq!(t.index_on(1).unwrap().probe_eq(&"b".into()), vec![2, 9]);
    }

    #[test]
    fn index_follows_insert_or_replace() {
        let mut t = Table::new(schema());
        t.create_index("ix_data", "data", false).unwrap();
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        t.insert(vec![Value::Integer(1), "z".into()], true).unwrap();
        let ix = t.index_on(1).unwrap();
        assert_eq!(ix.probe_eq(&"a".into()), Vec::<i64>::new());
        assert_eq!(ix.probe_eq(&"z".into()), vec![1]);
    }

    #[test]
    fn index_follows_delete_and_clear() {
        let mut t = Table::new(schema());
        t.create_index("ix_data", "data", false).unwrap();
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        t.insert(vec![Value::Integer(2), "a".into()], false).unwrap();
        t.delete_row(1);
        assert_eq!(t.index_on(1).unwrap().probe_eq(&"a".into()), vec![2]);
        t.clear();
        assert_eq!(t.index_on(1).unwrap().key_count(), 0);
    }

    #[test]
    fn unique_index_rejects_duplicates_but_not_replace_or_nulls() {
        let mut t = Table::new(schema());
        t.create_index("u_data", "data", true).unwrap();
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        let err = t.insert(vec![Value::Integer(2), "a".into()], false).unwrap_err();
        assert!(matches!(err, SqlError::ConstraintUnique { .. }));
        // Same pk via OR REPLACE displaces the old row: no conflict.
        t.insert(vec![Value::Integer(1), "a".into()], true).unwrap();
        // NULLs never conflict.
        t.insert(vec![Value::Integer(3), Value::Null], false).unwrap();
        t.insert(vec![Value::Integer(4), Value::Null], false).unwrap();
        // A rejected UPDATE leaves the index untouched.
        t.insert(vec![Value::Integer(5), "b".into()], false).unwrap();
        assert!(t.update_row(5, vec![Value::Integer(5), "a".into()]).is_err());
        assert_eq!(t.index_on(1).unwrap().probe_eq(&"b".into()), vec![5]);
    }

    #[test]
    fn create_unique_index_rejects_existing_duplicates() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        t.insert(vec![Value::Integer(2), "a".into()], false).unwrap();
        assert!(t.create_index("u_data", "data", true).is_err());
        // Failed creation leaves no partial index behind.
        assert!(t.index_on(1).is_none());
        assert!(t.create_index("ix", "data", false).is_ok());
    }

    #[test]
    fn hidden_rowid_without_pk() {
        let s = TableSchema::new(
            "t".into(),
            vec![ColumnDef {
                name: "x".into(),
                affinity: Affinity::Text,
                primary_key: false,
                not_null: false,
            }],
        )
        .unwrap();
        let mut t = Table::new(s);
        assert_eq!(t.insert(vec!["a".into()], false).unwrap(), 1);
        assert_eq!(t.insert(vec!["b".into()], false).unwrap(), 2);
    }

    #[test]
    fn table_spills_past_the_threshold_and_stays_queryable() {
        let mut t = Table::new(schema());
        t.attach_heap(tiny_heap());
        assert!(!t.is_paged(), "empty table stays resident");
        for i in 0..50 {
            t.insert(vec![Value::Integer(i), format!("row-{i}").into()], false).unwrap();
        }
        assert!(t.is_paged(), "50 rows must cross a 128-byte threshold");
        assert_eq!(t.len(), 50);
        assert_eq!(t.get(7).unwrap()[1], Value::Text("row-7".into()));
        assert!(t.contains_rowid(49) && !t.contains_rowid(50));
        assert_eq!(t.iter().count(), 50);
        assert_eq!(t.next_rowid(), 50);
        // Mutations keep working against the paged storage.
        t.update_row(7, vec![Value::Integer(7), "edited".into()]).unwrap();
        assert_eq!(t.get(7).unwrap()[1], Value::Text("edited".into()));
        assert!(t.delete_row(8));
        assert!(t.get(8).is_none());
        assert_eq!(t.len(), 49);
    }

    #[test]
    fn paged_table_maintains_indexes_like_resident() {
        let mut resident = Table::new(schema());
        let mut paged = Table::new(schema());
        paged.attach_heap(HeapCfg { tier: tiny_heap().tier, threshold: 0 });
        for t in [&mut resident, &mut paged] {
            t.create_index("ix_data", "data", false).unwrap();
            for i in 0..30 {
                t.insert(vec![Value::Integer(i), format!("d{}", i % 3).into()], false).unwrap();
            }
            t.update_row(4, vec![Value::Integer(4), "d0".into()]).unwrap();
            t.delete_row(9);
        }
        assert!(paged.is_paged() && !resident.is_paged());
        assert_eq!(
            resident.index_on(1).unwrap().probe_eq(&"d0".into()),
            paged.index_on(1).unwrap().probe_eq(&"d0".into()),
        );
        let a: Vec<_> = resident.iter().map(|(id, r)| (id, r.into_owned())).collect();
        let b: Vec<_> = paged.iter().map(|(id, r)| (id, r.into_owned())).collect();
        assert_eq!(a, b);
    }

    /// A copy of a paged table shares its row map and heap pages, as a
    /// resident copy shares its rows: the live table's changes copy the
    /// map away from the copy, which keeps reading the rows it saw, and
    /// the pages go back to the tier once neither holds them.
    #[test]
    fn cloning_a_paged_table_shares_its_pages() {
        let cfg = HeapCfg { tier: tiny_heap().tier, threshold: 0 };
        let tier = cfg.tier.clone();
        let mut t = Table::new(schema());
        t.attach_heap(cfg);
        for (id, data) in [(1, "a"), (2, "b")] {
            t.insert(vec![Value::Integer(id), data.into()], false).unwrap();
        }
        assert!(t.is_paged());
        let snap = t.clone();
        assert!(snap.is_paged() && same_rows(&snap, &t), "the copy shares the paged map");
        // Mutating the original never leaks into the snapshot.
        t.update_row(1, vec![Value::Integer(1), "z".into()]).unwrap();
        assert!(t.delete_row(2));
        assert!(!same_rows(&snap, &t));
        assert_eq!(snap.get(1).unwrap()[1], Value::Text("a".into()));
        assert_eq!(snap.get(2).unwrap()[1], Value::Text("b".into()));
        assert_eq!(t.get(1).unwrap()[1], Value::Text("z".into()));
        assert!(t.get(2).is_none());
        drop(t);
        assert_eq!(snap.iter().count(), 2, "the copy keeps the pages it reads");
        drop(snap);
        assert_eq!(tier.free_runs(), vec![(0, tier.next_sector())]);
    }

    /// An UPDATE that changes no indexed value and no rowid leaves every
    /// index where it is: a copy holding the indexes keeps sharing them.
    #[test]
    fn an_update_that_keeps_every_key_leaves_shared_indexes_shared() {
        let mut t = Table::new(schema());
        t.create_index("ix_data", "data", true).unwrap();
        t.insert(vec![Value::Integer(1), "a".into()], false).unwrap();
        let held = t.clone();
        t.update_row(1, vec![Value::Integer(1), "a".into()]).unwrap();
        assert!(Arc::ptr_eq(&held.indexes, &t.indexes), "an unchanged key copied the indexes");
        t.update_row(1, vec![Value::Integer(1), "b".into()]).unwrap();
        assert!(!Arc::ptr_eq(&held.indexes, &t.indexes));
        assert_eq!(t.index_on(1).unwrap().probe_eq(&"b".into()), vec![1]);
        assert_eq!(held.index_on(1).unwrap().probe_eq(&"a".into()), vec![1]);
    }

    #[test]
    fn clear_returns_heap_space() {
        let cfg = tiny_heap();
        let tier = cfg.tier.clone();
        let mut t = Table::new(schema());
        t.attach_heap(HeapCfg { tier: tier.clone(), threshold: 0 });
        for i in 0..20 {
            t.insert(vec![Value::Integer(i), "payload".into()], false).unwrap();
        }
        let high = tier.next_sector();
        assert!(high > 0);
        t.clear();
        assert_eq!(tier.free_runs(), vec![(0, high)]);
        assert!(t.is_empty());
    }
}
