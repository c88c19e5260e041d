//! The live phase's update stream, generated on the fly with the batch mix
//! of `psens_testkit::deltas::delta_script`: duplicate appends, deletes,
//! net-zero churn and fresh rows. The testkit version materializes the
//! whole table after every batch, an O(n) rebuild that would compete with
//! the server for the same cores; this one keeps the rows in a plain
//! vector, so a batch costs O(n) pointer moves at most.

use psens_microdata::{DeltaBatch, Schema, Table, TableBuilder, Value};
use psens_testkit::deltas::DeltaRng;
use std::collections::BTreeSet;

/// Seeds the batch kinds and positions. It is the same for every workload
/// seed, so every run streams the same mix of batch kinds; the rows
/// themselves come from the seeded tables.
const SCRIPT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The rows the daemon should hold, and the generator of the next batch.
pub struct DeltaStream {
    rng: DeltaRng,
    rows: Vec<Vec<Value>>,
    schema: Schema,
    applied: usize,
}

impl DeltaStream {
    /// Starts from `base`.
    pub fn new(base: &Table) -> DeltaStream {
        let rows = (0..base.n_rows())
            .map(|i| base.row(i).expect("row index in range"))
            .collect();
        DeltaStream {
            rng: DeltaRng::new(SCRIPT_SEED),
            rows,
            schema: base.schema().clone(),
            applied: 0,
        }
    }

    /// Rows after the batches applied so far.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Batches applied so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    fn victims(&mut self, max: usize) -> Vec<usize> {
        let mut set = BTreeSet::new();
        for _ in 0..1 + self.rng.below(max) {
            set.insert(self.rng.below(self.rows.len()));
        }
        set.into_iter().collect()
    }

    /// The next batch against the current rows, with the thresholds of
    /// `delta_script`; fresh rows are drawn from `fresh`.
    pub fn next_batch(&mut self, fresh: &Table) -> DeltaBatch {
        let n = self.rows.len();
        let roll = self.rng.below(100);
        if roll < 25 && n > 0 {
            let copies = 1 + self.rng.below(3);
            let appends = (0..copies)
                .map(|_| self.rows[self.rng.below(n)].clone())
                .collect();
            DeltaBatch::append_rows(appends)
        } else if roll < 50 && n > 4 {
            DeltaBatch::delete_rows(self.victims(3))
        } else if roll < 62 && n > 0 {
            let deletes = self.victims(2);
            let appends = deletes.iter().map(|&ix| self.rows[ix].clone()).collect();
            DeltaBatch { appends, deletes }
        } else {
            let appends = (0..1 + self.rng.below(2))
                .map(|_| {
                    fresh
                        .row(self.rng.below(fresh.n_rows()))
                        .expect("fresh row index in range")
                })
                .collect();
            let deletes = if n > 8 && self.rng.below(4) == 0 {
                vec![self.rng.below(n)]
            } else {
                Vec::new()
            };
            DeltaBatch { appends, deletes }
        }
    }

    /// Applies `batch` as `DeltaBatch::apply` does: deletes by pre-batch
    /// index, survivors in order, then the appends.
    pub fn apply(&mut self, batch: &DeltaBatch) {
        let mut doomed = vec![false; self.rows.len()];
        for &ix in &batch.deletes {
            doomed[ix] = true;
        }
        let mut ix = 0;
        self.rows.retain(|_| {
            ix += 1;
            !doomed[ix - 1]
        });
        self.rows.extend(batch.appends.iter().cloned());
        self.applied += 1;
    }

    /// The current rows as a table.
    pub fn table(&self) -> Result<Table, String> {
        let mut builder = TableBuilder::new(self.schema.clone());
        builder
            .push_rows(self.rows.iter().cloned())
            .map_err(|e| e.to_string())?;
        Ok(builder.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_datasets::AdultGenerator;

    #[test]
    fn stream_matches_delta_batch_apply() {
        let base = AdultGenerator::new(3).generate(200);
        let fresh = AdultGenerator::new(4).generate(20);
        let mut stream = DeltaStream::new(&base);
        let mut table = base;
        let mut kinds = BTreeSet::new();
        for _ in 0..60 {
            let batch = stream.next_batch(&fresh);
            kinds.insert((batch.appends.is_empty(), batch.deletes.is_empty()));
            table = batch.apply(&table).expect("generated batch is valid");
            stream.apply(&batch);
        }
        assert_eq!(stream.applied(), 60);
        // Rows, not `Table` equality: dictionaries may intern in another order.
        let rows = |t: &Table| {
            (0..t.n_rows())
                .map(|i| t.row(i).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&stream.table().unwrap()), rows(&table));
        assert_eq!(kinds.len(), 3, "appends only, deletes only, and both");
    }
}
