//! The `Table` type: a schema plus columnar data.

use crate::column::Column;
use crate::error::{Error, Result};
use crate::schema::{Kind, Role, Schema};
use crate::value::Value;

/// An immutable, in-memory microdata table.
///
/// A `Table` pairs a [`Schema`] with one [`Column`] per attribute; all columns
/// have equal length. Tables are cheap to project and gather (dictionaries are
/// shared by clone), which is how the masking pipeline derives masked
/// microdata from initial microdata without mutating it.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Builds a table from a schema and matching columns.
    ///
    /// Validates that the column count, each column's kind, and all lengths
    /// agree with the schema.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::ArityMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        for (attr, col) in schema.attributes().iter().zip(&columns) {
            let matches = matches!(
                (attr.kind(), col),
                (Kind::Int, Column::Int(_)) | (Kind::Cat, Column::Cat(_))
            );
            if !matches {
                let found = match col {
                    Column::Int(_) => "integer",
                    Column::Cat(_) => "text",
                };
                return Err(Error::TypeMismatch {
                    attribute: attr.name().to_owned(),
                    expected: match attr.kind() {
                        Kind::Int => "integer",
                        Kind::Cat => "text",
                    },
                    found,
                });
            }
        }
        let n_rows = columns.first().map_or(0, Column::len);
        for (attr, col) in schema.attributes().iter().zip(&columns) {
            if col.len() != n_rows {
                return Err(Error::LengthMismatch {
                    attribute: attr.name().to_owned(),
                    expected: n_rows,
                    found: col.len(),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            n_rows,
        })
    }

    /// Builds an empty table (zero rows) over `schema`.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| match a.kind() {
                Kind::Int => Column::Int(Default::default()),
                Kind::Cat => Column::Cat(Default::default()),
            })
            .collect();
        Table {
            n_rows: 0,
            columns,
            schema,
        }
    }

    /// Number of rows (the paper's `n`).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column at position `index`.
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Column of the attribute named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Reads one cell.
    ///
    /// # Panics
    /// Panics when `row` or `col` is out of bounds.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materializes one row as values in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(Error::RowOutOfBounds {
                index: row,
                len: self.n_rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Table with only the attributes at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Result<Table> {
        let schema = self.schema.project(indices)?;
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Table::new(schema, columns)
    }

    /// Table with only the named attributes, in that order.
    pub fn project_names(&self, names: &[&str]) -> Result<Table> {
        let indices = self.schema.indices_of(names)?;
        self.project(&indices)
    }

    /// Table with the rows at `indices`, in that order (duplicates allowed).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn take(&self, indices: &[usize]) -> Table {
        for &i in indices {
            assert!(i < self.n_rows, "row {i} out of bounds ({})", self.n_rows);
        }
        let columns = self.columns.iter().map(|c| c.gather(indices)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            n_rows: indices.len(),
        }
    }

    /// Table with the rows for which `keep` returns true.
    pub fn filter(&self, mut keep: impl FnMut(usize) -> bool) -> Table {
        let indices: Vec<usize> = (0..self.n_rows).filter(|&i| keep(i)).collect();
        self.take(&indices)
    }

    /// Table with identifier attributes removed — the first masking step the
    /// paper prescribes ("the identifier attributes are completely removed").
    /// Consumes the table: the kept columns move, nothing is copied.
    pub fn drop_identifiers(self) -> Table {
        let keep: Vec<usize> = (0..self.schema.len())
            .filter(|&i| self.schema.attribute(i).role() != Role::Identifier)
            .collect();
        let schema = self.schema.project(&keep).expect("indices are in range");
        let columns = self
            .columns
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep.contains(i))
            .map(|(_, column)| column)
            .collect();
        Table {
            schema,
            columns,
            n_rows: self.n_rows,
        }
    }

    /// Table with column `index` replaced by `column`.
    ///
    /// The replacement must have the same length and a kind matching the
    /// schema. Used by generalization to swap a key column for its recoded
    /// version.
    pub fn with_column_replaced(&self, index: usize, column: Column) -> Result<Table> {
        let mut columns = self.columns.clone();
        if index >= columns.len() {
            return Err(Error::RowOutOfBounds {
                index,
                len: columns.len(),
            });
        }
        columns[index] = column;
        Table::new(self.schema.clone(), columns)
    }

    /// Concatenates two tables with identical schemas.
    pub fn concat(&self, other: &Table) -> Result<Table> {
        if self.schema != other.schema {
            return Err(Error::ArityMismatch {
                expected: self.schema.len(),
                found: other.schema.len(),
            });
        }
        // Gather is the only columnar append primitive we expose; build via
        // row indices into a virtual concatenation.
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        let mut tail: Vec<usize> = (0..other.n_rows).collect();
        let head = self.take(&indices.split_off(0));
        let tail = other.take(&tail.split_off(0));
        let mut columns = Vec::with_capacity(self.schema.len());
        for (a, b) in head.columns.into_iter().zip(tail.columns) {
            columns.push(append_columns(a, b));
        }
        Table::new(self.schema.clone(), columns)
    }
}

fn append_columns(a: Column, b: Column) -> Column {
    use crate::column::{CatColumn, IntColumn};
    match (a, b) {
        (Column::Int(x), Column::Int(y)) => {
            let mut out = IntColumn::new();
            for v in x.iter().chain(y.iter()) {
                match v {
                    Some(v) => out.push(v),
                    None => out.push_missing(),
                }
            }
            Column::Int(out)
        }
        (Column::Cat(x), Column::Cat(y)) => {
            let mut out = CatColumn::new();
            for v in x.iter() {
                match v {
                    Some(v) => out.push(v),
                    None => out.push_missing(),
                }
            }
            for v in y.iter() {
                match v {
                    Some(v) => out.push(v),
                    None => out.push_missing(),
                }
            }
            Column::Cat(out)
        }
        _ => unreachable!("schemas already validated equal"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{CatColumn, IntColumn};
    use crate::schema::Attribute;

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::cat_identifier("Name"),
            Attribute::int_key("Age"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::Cat(CatColumn::from_values(["Sam", "Gloria", "Adam"])),
                Column::Int(IntColumn::from_values([29, 38, 51])),
                Column::Cat(CatColumn::from_values(["Diabetes", "HIV", "Diabetes"])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = small_table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.value(1, 1), Value::Int(38));
        assert_eq!(
            t.row(2).unwrap(),
            vec![
                Value::Text("Adam".into()),
                Value::Int(51),
                Value::Text("Diabetes".into())
            ]
        );
        assert!(t.row(3).is_err());
    }

    #[test]
    fn kind_validation() {
        let schema = Schema::new(vec![Attribute::int_key("Age")]).unwrap();
        let result = Table::new(schema, vec![Column::Cat(CatColumn::from_values(["x"]))]);
        assert!(matches!(result, Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn length_validation() {
        let schema = Schema::new(vec![Attribute::int_key("A"), Attribute::int_key("B")]).unwrap();
        let result = Table::new(
            schema,
            vec![
                Column::Int(IntColumn::from_values([1, 2])),
                Column::Int(IntColumn::from_values([1])),
            ],
        );
        assert!(matches!(result, Err(Error::LengthMismatch { .. })));
    }

    #[test]
    fn arity_validation() {
        let schema = Schema::new(vec![Attribute::int_key("A")]).unwrap();
        let result = Table::new(schema, vec![]);
        assert!(matches!(result, Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn projection_by_name() {
        let t = small_table();
        let p = t.project_names(&["Illness", "Age"]).unwrap();
        assert_eq!(p.schema().attribute(0).name(), "Illness");
        assert_eq!(p.value(0, 1), Value::Int(29));
    }

    #[test]
    fn take_and_filter() {
        let t = small_table();
        let picked = t.take(&[2, 0]);
        assert_eq!(picked.n_rows(), 2);
        assert_eq!(picked.value(0, 0), Value::Text("Adam".into()));
        let filtered = t.filter(|i| t.value(i, 1).as_int().unwrap() > 30);
        assert_eq!(filtered.n_rows(), 2);
    }

    #[test]
    fn drop_identifiers_removes_names() {
        let t = small_table().drop_identifiers();
        assert_eq!(t.schema().len(), 2);
        assert!(t.schema().index_of("Name").is_err());
        assert_eq!(t.n_rows(), 3);
    }

    #[test]
    fn replace_column() {
        let t = small_table();
        let replaced = t
            .with_column_replaced(1, Column::Int(IntColumn::from_values([20, 30, 50])))
            .unwrap();
        assert_eq!(replaced.value(0, 1), Value::Int(20));
        // wrong kind rejected
        assert!(t
            .with_column_replaced(1, Column::Cat(CatColumn::from_values(["a", "b", "c"])))
            .is_err());
        // out of bounds rejected
        assert!(t
            .with_column_replaced(9, Column::Int(IntColumn::from_values([1, 2, 3])))
            .is_err());
    }

    #[test]
    fn concat_tables() {
        let t = small_table();
        let joined = t.concat(&t).unwrap();
        assert_eq!(joined.n_rows(), 6);
        assert_eq!(joined.value(5, 1), Value::Int(51));
        assert_eq!(joined.value(3, 0), Value::Text("Sam".into()));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(small_table().schema().clone());
        assert!(t.is_empty());
        assert_eq!(t.columns().len(), 3);
    }
}
