//! Tables: bags (multisets) of records (paper Section 4.1, "Tables").
//!
//! A *record* is a partial function from names to values, written
//! `u = (a₁: v₁, …, aₙ: vₙ)`; two records are *uniform* when they have the
//! same domain. A *table with fields A* is a bag of records whose domain is
//! exactly `A`. We represent the common domain once as a [`Schema`] and
//! store records positionally.
//!
//! The bag operations of the paper are provided: `⊎` (bag union,
//! [`Table::bag_union`]) and `ε` (duplicate elimination,
//! [`Table::dedup`]), the latter using Cypher *equivalence* (null ≡ null).

use crate::bag::CountedMap;
use cypher_graph::Value;
use std::fmt;
use std::sync::Arc;

/// The ordered field names of a table. Field order is a presentation
/// artifact ("the order in which the fields appear is only for notation
/// purposes"); operations that combine tables match fields by name.
///
/// Name→position resolution is the innermost loop of expression
/// evaluation (every variable reference of every row resolves through
/// [`Schema::index_of`]), so wide schemas build a hash index lazily, once
/// per schema — schemas are immutable and `Arc`-shared, so the index is
/// built at plan/build time in practice, never per row.
#[derive(Debug, Default)]
pub struct Schema {
    names: Vec<String>,
    /// Lazily-built name→position map; only consulted above
    /// [`INDEX_THRESHOLD`] fields, below which the linear probe wins.
    index: std::sync::OnceLock<std::collections::HashMap<String, usize>>,
}

/// Schemas narrower than this resolve names by linear probe (cheaper than
/// hashing for a handful of fields).
const INDEX_THRESHOLD: usize = 9;

impl Clone for Schema {
    fn clone(&self) -> Self {
        Schema {
            names: self.names.clone(),
            index: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for Schema {}

impl Schema {
    /// An empty schema (the domain of the empty record `()`).
    pub fn empty() -> Arc<Schema> {
        Arc::new(Schema::default())
    }

    /// Builds a schema from names.
    ///
    /// # Panics
    /// Panics if names are not distinct (records are functions, so a name
    /// cannot appear twice).
    pub fn new(names: Vec<String>) -> Arc<Schema> {
        for (i, n) in names.iter().enumerate() {
            assert!(
                !names[..i].contains(n),
                "duplicate field name in schema: {n}"
            );
        }
        Arc::new(Schema {
            names,
            index: std::sync::OnceLock::new(),
        })
    }

    /// The field names in presentation order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True for the empty schema.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The positional index of a field. O(1) expected for wide schemas
    /// (hash index, built once per schema), linear probe for narrow ones.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        if self.names.len() >= INDEX_THRESHOLD {
            return self
                .index
                .get_or_init(|| {
                    self.names
                        .iter()
                        .enumerate()
                        .map(|(i, n)| (n.clone(), i))
                        .collect()
                })
                .get(name)
                .copied();
        }
        self.names.iter().position(|n| n == name)
    }

    /// True iff the field exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// A new schema with one more field appended.
    ///
    /// # Panics
    /// Panics if the name is already present.
    pub fn with_field(&self, name: impl Into<String>) -> Arc<Schema> {
        let name = name.into();
        let mut names = self.names.clone();
        assert!(!names.contains(&name), "duplicate field name: {name}");
        names.push(name);
        Arc::new(Schema {
            names,
            index: std::sync::OnceLock::new(),
        })
    }

    /// True iff both schemas have the same name *set* (uniformity up to
    /// column order, used by `UNION`).
    pub fn same_fields(&self, other: &Schema) -> bool {
        self.len() == other.len() && self.names.iter().all(|n| other.contains(n))
    }
}

/// A record: the values of one row, positionally aligned with a
/// [`Schema`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// The empty record `()`.
    pub fn empty() -> Record {
        Record::default()
    }

    /// Builds a record from values.
    pub fn new(values: Vec<Value>) -> Record {
        Record { values }
    }

    /// The values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Moves the values out, in schema order.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The value at a position.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Appends a value (paired with [`Schema::with_field`]).
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Record concatenation `(u, u′)` of the paper.
    pub fn concat(&self, other: &Record) -> Record {
        let mut values = self.values.clone();
        values.extend_from_slice(&other.values);
        Record { values }
    }

    /// True iff the records are equivalent value-wise (Cypher equivalence,
    /// so `null ≡ null`).
    pub fn equivalent(&self, other: &Record) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.equivalent(b))
    }
}

/// Rows stored a column at a time: one vector of values per schema field,
/// each `len` long. The currency of the engine's operator pipeline, which
/// the projection machinery ([`crate::project`]) evaluates over directly.
#[derive(Clone, Debug, Default)]
pub struct RowBatch {
    len: usize,
    cols: Vec<Vec<Value>>,
}

impl RowBatch {
    /// A batch of `len` rows over `cols`, one column per schema field.
    pub fn new(len: usize, cols: Vec<Vec<Value>>) -> RowBatch {
        debug_assert!(cols.iter().all(|c| c.len() == len), "ragged batch");
        RowBatch { len, cols }
    }

    /// A table's rows as columns.
    pub fn from_table(t: Table) -> RowBatch {
        let len = t.len();
        let mut cols: Vec<Vec<Value>> = (0..t.schema.len())
            .map(|_| Vec::with_capacity(len))
            .collect();
        for r in t.rows {
            for (col, v) in cols.iter_mut().zip(r.values) {
                col.push(v);
            }
        }
        RowBatch { len, cols }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Vec<Value>] {
        &self.cols
    }

    /// Moves the columns out.
    pub fn into_columns(self) -> Vec<Vec<Value>> {
        self.cols
    }

    /// The value in column `col` of row `row`.
    pub fn at(&self, col: usize, row: usize) -> &Value {
        &self.cols[col][row]
    }

    /// Appends a column (paired with [`Schema::with_field`]).
    pub fn push_column(&mut self, col: Vec<Value>) {
        assert_eq!(col.len(), self.len, "column length does not match batch");
        self.cols.push(col);
    }

    /// Keeps the rows `keep` marks, compacting every column in place.
    pub fn retain(&mut self, keep: &[bool]) {
        for col in &mut self.cols {
            let mut row = 0;
            col.retain(|_| {
                row += 1;
                keep[row - 1]
            });
        }
        self.len = keep.iter().filter(|&&k| k).count();
    }

    /// The rows as records, in order.
    pub fn into_records(self) -> impl Iterator<Item = Record> {
        let mut cols = self.cols;
        (0..self.len).map(move |row| {
            let values = cols
                .iter_mut()
                .map(|c| std::mem::replace(&mut c[row], Value::Null));
            Record::new(values.collect())
        })
    }
}

/// A table: a bag of uniform records plus their shared schema.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    rows: Vec<Record>,
}

impl Table {
    /// `T()`: the table containing the single empty tuple — the starting
    /// point of query evaluation (`output(Q, G) = [[Q]]_G(T())`).
    pub fn unit() -> Table {
        Table {
            schema: Schema::empty(),
            rows: vec![Record::empty()],
        }
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Table {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// Builds a table from a schema and rows.
    ///
    /// # Panics
    /// Panics if any row's width differs from the schema's.
    pub fn new(schema: Arc<Schema>, rows: Vec<Record>) -> Table {
        for r in &rows {
            assert_eq!(
                r.values().len(),
                schema.len(),
                "record width does not match schema"
            );
        }
        Table { schema, rows }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rows (bag; order is incidental).
    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Moves the rows out.
    pub fn into_rows(self) -> Vec<Record> {
        self.rows
    }

    /// Number of rows (with multiplicity).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema.
    pub fn push(&mut self, r: Record) {
        assert_eq!(r.values().len(), self.schema.len());
        self.rows.push(r);
    }

    /// Looks up a cell by row index and field name.
    pub fn cell(&self, row: usize, field: &str) -> Option<&Value> {
        let idx = self.schema.index_of(field)?;
        self.rows.get(row).map(|r| r.get(idx))
    }

    /// Bag union `T ⊎ T′`. The schemas must have the same field set;
    /// `other`'s columns are permuted to this table's order if needed.
    ///
    /// # Panics
    /// Panics if the field sets differ.
    pub fn bag_union(mut self, other: Table) -> Table {
        assert!(
            self.schema.same_fields(&other.schema),
            "bag union of tables with different fields: {:?} vs {:?}",
            self.schema.names(),
            other.schema.names()
        );
        if self.schema.names() == other.schema.names() {
            self.rows.extend(other.rows);
            return self;
        }
        let perm: Vec<usize> = self
            .schema
            .names()
            .iter()
            .map(|n| other.schema.index_of(n).unwrap())
            .collect();
        for r in other.rows {
            let values = perm.iter().map(|&i| r.get(i).clone()).collect();
            self.rows.push(Record::new(values));
        }
        self
    }

    /// Duplicate elimination `ε(T)`: the first of each class of
    /// equivalent rows kept, in row order.
    pub fn dedup(mut self) -> Table {
        let mut seen = CountedMap::<&[Value], ()>::default();
        let keep: Vec<bool> = self.rows.iter().map(|r| seen.add(r.values())).collect();
        let mut keep = keep.into_iter();
        self.rows.retain(|_| keep.next() == Some(true));
        self
    }

    /// True iff both tables contain the same bag of records over the same
    /// field set (row and column order insensitive) — multiset equality,
    /// used pervasively by the experiment suite.
    pub fn bag_eq(&self, other: &Table) -> bool {
        if !self.schema.same_fields(&other.schema) || self.len() != other.len() {
            return false;
        }
        let perm: Vec<usize> = self
            .schema
            .names()
            .iter()
            .map(|n| other.schema.index_of(n).unwrap())
            .collect();
        let mut mine: Vec<&Record> = self.rows.iter().collect();
        let mut theirs: Vec<Record> = other
            .rows
            .iter()
            .map(|r| Record::new(perm.iter().map(|&i| r.get(i).clone()).collect()))
            .collect();
        mine.sort_by(|a, b| cmp_records(a, b));
        theirs.sort_by(cmp_records);
        mine.iter().zip(&theirs).all(|(a, b)| a.equivalent(b))
    }

    /// True iff both tables contain the same *sequence* of records over
    /// the same field set (row order sensitive, column order insensitive) —
    /// the comparison `ORDER BY` determinism demands: once a query sorts,
    /// two runs must agree on the exact row order, not merely the bag.
    pub fn ordered_eq(&self, other: &Table) -> bool {
        if !self.schema.same_fields(&other.schema) || self.len() != other.len() {
            return false;
        }
        let perm: Vec<usize> = self
            .schema
            .names()
            .iter()
            .map(|n| other.schema.index_of(n).unwrap())
            .collect();
        self.rows.iter().zip(&other.rows).all(|(a, b)| {
            perm.iter()
                .enumerate()
                .all(|(i, &j)| a.get(i).equivalent(b.get(j)))
        })
    }

    /// Panicking assertion form of [`Table::bag_eq`] with a readable diff.
    pub fn assert_bag_eq(&self, other: &Table) {
        assert!(
            self.bag_eq(other),
            "tables differ:\nleft:\n{self}\nright:\n{other}"
        );
    }

    /// Sorts rows in place by a comparator (used by `ORDER BY`).
    pub fn sort_by<F>(&mut self, cmp: F)
    where
        F: FnMut(&Record, &Record) -> std::cmp::Ordering,
    {
        self.rows.sort_by(cmp);
    }

    /// Keeps `skip..skip+limit` rows (used by `SKIP` / `LIMIT`).
    pub fn slice(mut self, skip: usize, limit: Option<usize>) -> Table {
        let end = match limit {
            Some(l) => (skip + l).min(self.rows.len()),
            None => self.rows.len(),
        };
        let start = skip.min(self.rows.len());
        self.rows = self.rows.drain(start..end).collect();
        self
    }
}

fn cmp_records(a: &Record, b: &Record) -> std::cmp::Ordering {
    for (x, y) in a.values().iter().zip(b.values()) {
        match x.cmp_order(y) {
            std::cmp::Ordering::Equal => continue,
            ord => return ord,
        }
    }
    std::cmp::Ordering::Equal
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| {} |", self.schema.names().join(" | "))?;
        for r in &self.rows {
            let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Convenience constructor for tests and examples: builds a table from
/// field names and rows of values.
pub fn table_of(fields: &[&str], rows: Vec<Vec<Value>>) -> Table {
    let schema = Schema::new(fields.iter().map(|s| s.to_string()).collect());
    Table::new(schema, rows.into_iter().map(Record::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_graph::Value;

    #[test]
    fn unit_table() {
        let t = Table::unit();
        assert_eq!(t.len(), 1);
        assert!(t.schema().is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn schema_rejects_duplicates() {
        Schema::new(vec!["a".into(), "a".into()]);
    }

    #[test]
    fn bag_union_sums_multiplicities() {
        let a = table_of(&["x"], vec![vec![Value::int(1)], vec![Value::int(1)]]);
        let b = table_of(&["x"], vec![vec![Value::int(1)]]);
        let u = a.bag_union(b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn bag_union_permutes_columns() {
        let a = table_of(&["x", "y"], vec![vec![Value::int(1), Value::int(2)]]);
        let b = table_of(&["y", "x"], vec![vec![Value::int(4), Value::int(3)]]);
        let u = a.bag_union(b);
        assert_eq!(u.cell(1, "x"), Some(&Value::int(3)));
        assert_eq!(u.cell(1, "y"), Some(&Value::int(4)));
    }

    #[test]
    fn dedup_uses_equivalence() {
        let t = table_of(
            &["x"],
            vec![
                vec![Value::int(1)],
                vec![Value::float(1.0)],
                vec![Value::Null],
                vec![Value::Null],
            ],
        );
        let d = t.dedup();
        assert_eq!(d.len(), 2); // {1, null}
    }

    #[test]
    fn bag_eq_is_order_insensitive() {
        let a = table_of(
            &["x", "y"],
            vec![
                vec![Value::int(1), Value::str("a")],
                vec![Value::int(2), Value::str("b")],
            ],
        );
        let b = table_of(
            &["y", "x"],
            vec![
                vec![Value::str("b"), Value::int(2)],
                vec![Value::str("a"), Value::int(1)],
            ],
        );
        assert!(a.bag_eq(&b));
        let c = table_of(&["x", "y"], vec![vec![Value::int(1), Value::str("a")]]);
        assert!(!a.bag_eq(&c));
    }

    #[test]
    fn bag_eq_respects_multiplicity() {
        let a = table_of(&["x"], vec![vec![Value::int(1)], vec![Value::int(1)]]);
        let b = table_of(&["x"], vec![vec![Value::int(1)], vec![Value::int(2)]]);
        assert!(!a.bag_eq(&b));
    }

    #[test]
    fn slice_skip_limit() {
        let t = table_of(&["x"], (0..10).map(|i| vec![Value::int(i)]).collect());
        assert_eq!(t.clone().slice(2, Some(3)).len(), 3);
        assert_eq!(t.clone().slice(8, Some(5)).len(), 2);
        assert_eq!(t.clone().slice(20, None).len(), 0);
        assert_eq!(t.slice(0, None).len(), 10);
    }

    #[test]
    fn cell_lookup() {
        let t = table_of(&["a", "b"], vec![vec![Value::int(1), Value::int(2)]]);
        assert_eq!(t.cell(0, "b"), Some(&Value::int(2)));
        assert_eq!(t.cell(0, "z"), None);
        assert_eq!(t.cell(5, "a"), None);
    }

    #[test]
    fn ordered_eq_is_row_order_sensitive() {
        let a = table_of(&["x"], vec![vec![Value::int(1)], vec![Value::int(2)]]);
        let b = table_of(&["x"], vec![vec![Value::int(2)], vec![Value::int(1)]]);
        assert!(a.bag_eq(&b));
        assert!(!a.ordered_eq(&b));
        assert!(a.ordered_eq(&a));
        // Column order is still a presentation artifact.
        let c = table_of(&["x", "y"], vec![vec![Value::int(1), Value::str("a")]]);
        let d = table_of(&["y", "x"], vec![vec![Value::str("a"), Value::int(1)]]);
        assert!(c.ordered_eq(&d));
    }

    #[test]
    fn record_concat() {
        let u = Record::new(vec![Value::int(1)]);
        let v = Record::new(vec![Value::int(2), Value::int(3)]);
        assert_eq!(u.concat(&v).values().len(), 3);
    }
}
