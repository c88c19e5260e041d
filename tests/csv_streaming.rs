//! Totality and equivalence of the streaming CSV reader: `read_table` (and
//! `read_table_str`, the same reader over a string's bytes) must never
//! panic on arbitrary bytes, must error exactly when a whole-text reference
//! errors, and on success must produce the reference table — even when
//! every byte arrives in its own read (splitting quoted newlines, escaped
//! quotes, and multi-byte UTF-8 sequences across read boundaries).
//!
//! The reference is independent of the reader under test: the whole-text
//! record splitter `parse_records` feeding a row-by-row `TableBuilder`,
//! with the value rules (header, arity, `?`/empty as missing, `i64`
//! integers) written out here.

use proptest::prelude::*;
use psens::microdata::csv::{parse_records, read_table, read_table_str};
use psens::prelude::*;
use std::io::{BufRead, Cursor, Read};

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::int_key("Age"),
        Attribute::cat_key("City"),
        Attribute::cat_confidential("Illness"),
    ])
    .unwrap()
}

/// Feeds the stream one byte per `read` call, so every quoted newline,
/// escaped quote, and multi-byte UTF-8 sequence crosses a read boundary.
struct TrickleReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.data.len() && !buf.is_empty() {
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        } else {
            Ok(0)
        }
    }
}

impl BufRead for TrickleReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = (self.pos + 1).min(self.data.len());
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The whole-text reference: `None` exactly when the input is not a valid
/// headered (or headerless) CSV of [`schema`].
fn reference(bytes: &[u8], has_header: bool) -> Option<Table> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut records = parse_records(text).ok()?.into_iter();
    if has_header {
        let header = records.next()?;
        let names: Vec<&str> = header.iter().map(|name| name.trim()).collect();
        if names != ["Age", "City", "Illness"] {
            return None;
        }
    }
    let mut builder = TableBuilder::new(schema());
    for record in records {
        if record.len() != 3 {
            return None;
        }
        let mut row = Vec::with_capacity(3);
        for (i, raw) in record.iter().enumerate() {
            let field = raw.trim();
            row.push(if field.is_empty() || field == "?" {
                Value::Missing
            } else if i == 0 {
                Value::Int(field.parse().ok()?)
            } else {
                Value::Text(field.to_owned())
            });
        }
        builder.push_row(row).ok()?;
    }
    Some(builder.finish())
}

/// The oracle: the streaming reader agrees with the reference on `bytes` —
/// an error on both sides, or equal tables (dictionaries included) on
/// both, whether the bytes arrive in bulk, one at a time, or as a string.
fn assert_stream_matches_reference(bytes: &[u8], has_header: bool) -> Result<(), TestCaseError> {
    let expected = reference(bytes, has_header);
    let bulk = read_table(Cursor::new(bytes), schema(), has_header);
    let trickled = read_table(
        TrickleReader {
            data: bytes,
            pos: 0,
        },
        schema(),
        has_header,
    );
    prop_assert_eq!(bulk.is_ok(), expected.is_some(), "bulk stream vs reference");
    prop_assert_eq!(
        trickled.is_ok(),
        expected.is_some(),
        "trickle stream vs reference"
    );
    if let Ok(text) = std::str::from_utf8(bytes) {
        let from_str = read_table_str(text, schema(), has_header);
        prop_assert_eq!(
            from_str.ok(),
            expected.clone(),
            "read_table_str vs reference"
        );
    }
    if let Some(table) = expected {
        prop_assert_eq!(bulk.unwrap(), table.clone(), "bulk stream diverged");
        prop_assert_eq!(trickled.unwrap(), table, "trickle stream diverged");
    }
    Ok(())
}

/// A CSV field rich in the grammar's special cases: plain tokens, quoted
/// fields holding commas, quotes, CR/LF, and multi-byte UTF-8, plus the
/// missing markers `?` and the empty field.
const CAT_FIELD: &str = "([a-c]{0,4}|\"[a-b\\\",éλ\n\r]{0,6}\"|\\?|)";

/// A (mostly) parseable integer field, `?`, or empty.
const INT_FIELD: &str = "(-?[0-9]{1,4}|\\?|)";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Totality + agreement on arbitrary bytes: whatever the input —
    /// malformed UTF-8, unbalanced quotes, ragged records — the streaming
    /// reader never panics and errors exactly when the whole-text reference
    /// does.
    #[test]
    fn stream_and_buffered_agree_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        has_header in any::<bool>(),
    ) {
        assert_stream_matches_reference(&bytes, has_header)?;
    }

    /// Structured CSV built from special-case-rich fields: quoted newlines
    /// and escaped quotes inside records, missing markers, signed integers
    /// — the stream must build the reference table exactly.
    #[test]
    fn stream_equals_buffered_on_generated_csv(
        rows in prop::collection::vec((INT_FIELD, CAT_FIELD, CAT_FIELD), 0..30),
        has_header in any::<bool>(),
    ) {
        let mut text = String::new();
        if has_header {
            text.push_str("Age,City,Illness\n");
        }
        for (age, city, illness) in &rows {
            text.push_str(&format!("{age},{city},{illness}\n"));
        }
        assert_stream_matches_reference(text.as_bytes(), has_header)?;
    }
}

#[test]
fn quoted_newlines_span_chunk_boundaries() {
    // The trickle reader hands over one byte per read, so every quoted
    // field carrying the record separator itself crosses a read boundary.
    let text = "Age,City,Illness\n\
                30,\"New\nport\",\"Fl\r\nu\"\n\
                40,\"Day,ton\",\"says \"\"hi\"\"\"\n\
                50,Euclid,HIV\n";
    assert_stream_matches_reference(text.as_bytes(), true).unwrap();
    let table = read_table(Cursor::new(text.as_bytes()), schema(), true).unwrap();
    assert_eq!(table.n_rows(), 3);
    assert_eq!(table.value(0, 1), Value::Text("New\nport".into()));
    assert_eq!(table.value(1, 2), Value::Text("says \"hi\"".into()));
}

#[test]
fn ragged_trailing_record_agrees_with_buffered() {
    // A final record with too few fields: the reader must reject it like
    // the reference, and one with too many likewise.
    for text in ["1,a,b\n2,c\n", "1,a,b\n2\n", "1,a,b\n2,c,d,e\n"] {
        assert_stream_matches_reference(text.as_bytes(), false).unwrap();
        assert!(read_table_str(text, schema(), false).is_err(), "{text:?}");
    }
    // An unterminated final record ending in a separator has an empty
    // (missing) last field: accepted on both sides.
    assert_stream_matches_reference(b"1,a,b\n2,c,", false).unwrap();
    // An unterminated but complete final record parses on both sides.
    assert_stream_matches_reference(b"1,a,b\n2,c,d", false).unwrap();
}

#[test]
fn empty_input_yields_empty_table() {
    let table = read_table(Cursor::new(&b""[..]), schema(), false).unwrap();
    assert_eq!(table, Table::empty(schema()));
    // With a header expected, empty input is an error.
    assert!(read_table(Cursor::new(&b""[..]), schema(), true).is_err());
}
