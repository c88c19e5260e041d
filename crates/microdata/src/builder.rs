//! Row-oriented construction of [`Table`]s.

use crate::column::{CatColumn, Column, IntColumn};
use crate::error::{Error, Result};
use crate::schema::{Kind, Schema};
use crate::table::Table;
use crate::value::Value;

/// Accumulates rows and produces a [`Table`].
///
/// ```
/// use psens_microdata::{Attribute, Schema, TableBuilder, Value};
///
/// let schema = Schema::new(vec![
///     Attribute::int_key("Age"),
///     Attribute::cat_confidential("Illness"),
/// ]).unwrap();
/// let mut builder = TableBuilder::new(schema);
/// builder.push_row(vec![Value::Int(50), Value::Text("Colon Cancer".into())]).unwrap();
/// builder.push_row(vec![Value::Int(30), Value::Missing]).unwrap();
/// let table = builder.finish();
/// assert_eq!(table.n_rows(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<ColumnBuilder>,
    n_rows: usize,
}

#[derive(Debug, Clone)]
enum ColumnBuilder {
    Int(IntColumn),
    Cat(CatColumn),
}

impl TableBuilder {
    /// Starts a builder for `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| match a.kind() {
                Kind::Int => ColumnBuilder::Int(IntColumn::new()),
                Kind::Cat => ColumnBuilder::Cat(CatColumn::new()),
            })
            .collect();
        TableBuilder {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// Number of rows accumulated so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Appends one row; values must match the schema's kinds.
    ///
    /// On error the builder is left unchanged.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        // Validate the entire row before mutating any column so a failed push
        // cannot leave columns with uneven lengths.
        for (i, value) in row.iter().enumerate() {
            let ok = matches!(
                (&self.columns[i], value),
                (ColumnBuilder::Int(_), Value::Int(_))
                    | (ColumnBuilder::Cat(_), Value::Text(_))
                    | (_, Value::Missing)
            );
            if !ok {
                return Err(Error::TypeMismatch {
                    attribute: self.schema.attribute(i).name().to_owned(),
                    expected: match self.schema.attribute(i).kind() {
                        Kind::Int => "integer",
                        Kind::Cat => "text",
                    },
                    found: value.kind_name(),
                });
            }
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            match (col, value) {
                (ColumnBuilder::Int(c), Value::Int(v)) => c.push(v),
                (ColumnBuilder::Int(c), Value::Missing) => c.push_missing(),
                (ColumnBuilder::Cat(c), Value::Text(s)) => c.push(&s),
                (ColumnBuilder::Cat(c), Value::Missing) => c.push_missing(),
                _ => unreachable!("validated above"),
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Appends several rows.
    pub fn push_rows<I: IntoIterator<Item = Vec<Value>>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.push_row(row)?;
        }
        Ok(())
    }

    /// Finalizes the builder into a [`Table`], releasing the columns'
    /// spare capacity (up to half of a large table's footprint).
    pub fn finish(self) -> Table {
        let columns = self
            .columns
            .into_iter()
            .map(|c| match c {
                ColumnBuilder::Int(mut c) => {
                    c.shrink_to_fit();
                    Column::Int(c)
                }
                ColumnBuilder::Cat(mut c) => {
                    c.shrink_to_fit();
                    Column::Cat(c)
                }
            })
            .collect();
        Table::new(self.schema, columns).expect("builder maintains invariants")
    }
}

/// Builds a table from string rows (everything categorical) — convenient for
/// tests and fixtures. Integer columns in `schema` are parsed from the text;
/// empty strings and `"?"` become missing.
pub fn table_from_str_rows(schema: Schema, rows: &[&[&str]]) -> Result<Table> {
    let mut builder = TableBuilder::new(schema);
    for (line, raw) in rows.iter().enumerate() {
        let mut row = Vec::with_capacity(raw.len());
        for (i, field) in raw.iter().enumerate() {
            let attr = builder.schema.attribute(i);
            let value = if field.is_empty() || *field == "?" {
                Value::Missing
            } else {
                match attr.kind() {
                    Kind::Int => {
                        Value::Int(field.trim().parse::<i64>().map_err(|_| Error::Parse {
                            line: line + 1,
                            attribute: attr.name().to_owned(),
                            text: (*field).to_owned(),
                        })?)
                    }
                    Kind::Cat => Value::Text((*field).to_owned()),
                }
            };
            row.push(value);
        }
        builder.push_row(row)?;
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![Attribute::int_key("Age"), Attribute::cat_key("Sex")]).unwrap()
    }

    #[test]
    fn build_rows() {
        let mut b = TableBuilder::new(schema());
        b.push_row(vec![Value::Int(20), Value::Text("M".into())])
            .unwrap();
        b.push_row(vec![Value::Missing, Value::Missing]).unwrap();
        assert_eq!(b.n_rows(), 2);
        let t = b.finish();
        assert_eq!(t.value(0, 0), Value::Int(20));
        assert_eq!(t.value(1, 1), Value::Missing);
    }

    #[test]
    fn arity_checked() {
        let mut b = TableBuilder::new(schema());
        let err = b.push_row(vec![Value::Int(20)]).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { .. }));
        assert_eq!(b.n_rows(), 0);
    }

    #[test]
    fn kind_checked_without_partial_mutation() {
        let mut b = TableBuilder::new(schema());
        // First cell valid, second invalid: nothing may be pushed.
        let err = b.push_row(vec![Value::Int(20), Value::Int(1)]).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        assert_eq!(b.n_rows(), 0);
        // Builder still usable.
        b.push_row(vec![Value::Int(20), Value::Text("F".into())])
            .unwrap();
        assert_eq!(b.finish().n_rows(), 1);
    }

    #[test]
    fn push_rows_bulk() {
        let mut b = TableBuilder::new(schema());
        b.push_rows(vec![
            vec![Value::Int(1), Value::Text("M".into())],
            vec![Value::Int(2), Value::Text("F".into())],
        ])
        .unwrap();
        assert_eq!(b.finish().n_rows(), 2);
    }

    #[test]
    fn from_str_rows_parses_ints_and_missing() {
        let t = table_from_str_rows(
            schema(),
            &[&["50", "M"], &["", "F"], &["?", "M"], &["30", ""]],
        )
        .unwrap();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.value(0, 0), Value::Int(50));
        assert_eq!(t.value(1, 0), Value::Missing);
        assert_eq!(t.value(2, 0), Value::Missing);
        assert_eq!(t.value(3, 1), Value::Missing);
    }

    #[test]
    fn from_str_rows_rejects_bad_int() {
        let err = table_from_str_rows(schema(), &[&["abc", "M"]]).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }
}
