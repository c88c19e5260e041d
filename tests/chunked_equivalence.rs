//! Differential oracle for row-range parallelism over one table: the
//! morsel executor's group ids must be byte-identical to the serial
//! group-by for every morsel size and thread count, survive injected worker
//! panics, and agree with the independent SQL backend; and routing node
//! evaluation through it (`Tuning::chunk_rows`) must not change any search
//! verdict.

use proptest::prelude::*;
use psens::algorithms::{
    pk_minimal_generalization_budgeted, pk_minimal_generalization_tuned, Pruning, Tuning,
};
use psens::core::{NoopObserver, SearchBudget};
use psens::hierarchy::QiSpace;
use psens::microdata::{group_codes, CodeColumn, CodeKeyKernel, KeyKernel};
use psens::prelude::*;
use psens::sql::{execute, Catalog};
use psens_testkit::spaces::narrow_qi_space;
use psens_testkit::tables::{arb_narrow_row, build_narrow_table, NarrowRow};

/// The morsel sizes the acceptance gate names: one-row morsels (maximum
/// cursor contention), a ragged prime, and a size larger than any generated
/// table (a single morsel, so one worker does everything).
const MORSEL_ROWS: [usize; 3] = [1, 7, 4096];
const THREADS: [usize; 3] = [1, 2, 8];

/// The narrow testkit schema: categorical key X, integer key A, categorical
/// confidential S; the maskable cells can be missing (missing compares
/// equal to missing).
type Row = NarrowRow;

fn arb_row() -> impl Strategy<Value = Row> {
    arb_narrow_row()
}

fn build_table(rows: &[Row]) -> Table {
    build_narrow_table(rows)
}

/// Dense codes of `by`'s columns, owned so kernels can borrow them.
fn key_codes(t: &Table, by: &[usize]) -> Vec<(Vec<u32>, u32)> {
    by.iter().map(|&c| t.column(c).dense_codes()).collect()
}

/// The single-table key kernel over those codes.
fn kernel<'a>(t: &Table, codes: &'a [(Vec<u32>, u32)]) -> CodeKeyKernel<'a> {
    let cols = codes
        .iter()
        .map(|(codes, n_codes)| CodeColumn::Plain {
            codes,
            n_codes: *n_codes,
        })
        .collect();
    CodeKeyKernel::new(t.n_rows(), cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Morsel-executor differential oracle: for every morsel size × thread
    /// count, the executor's group ids, sizes, and representatives must be
    /// byte-identical to the serial group-by — the canonical re-ordering
    /// pass makes first-appearance ids independent of how rows were
    /// partitioned.
    #[test]
    fn morsel_executor_equals_serial(
        rows in prop::collection::vec(arb_row(), 1..80),
    ) {
        let t = build_table(&rows);
        let by_sets: &[&[usize]] = &[&[0, 1], &[1, 0], &[0], &[1], &[2], &[]];
        for &by in by_sets {
            let serial = GroupBy::compute(&t, by);
            let codes = key_codes(&t, by);
            let kernel = kernel(&t, &codes);
            for threads in THREADS {
                for morsel_rows in MORSEL_ROWS {
                    let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                    let gb = GroupBy::from_assignment(assignment, n_groups, by.to_vec());
                    let setting = format!(
                        "by={by:?} threads={threads} morsel_rows={morsel_rows}"
                    );
                    prop_assert_eq!(
                        gb.assignments(), serial.assignments(),
                        "assignments: {}", &setting
                    );
                    prop_assert_eq!(gb.sizes(), serial.sizes(), "sizes: {}", &setting);
                    prop_assert_eq!(
                        gb.representatives(), serial.representatives(),
                        "representatives: {}", &setting
                    );
                }
            }
        }
    }

    /// Cross-backend: the SQL engine's `COUNT(*)` / `COUNT(DISTINCT S)`
    /// per group agree with the group-by and the column's dense codes.
    /// Missing cells are excluded — SQL NULL semantics differ from the
    /// checker's missing-equals-missing convention by design.
    #[test]
    fn sql_backend_agrees_with_groupby(
        rows in prop::collection::vec((0u8..4, 0i64..4, 0u8..4), 1..60),
    ) {
        let solid: Vec<Row> = rows.iter().map(|&(x, a, s)| (x, a, false, s, false)).collect();
        let t = build_table(&solid);
        let mut catalog = Catalog::new();
        catalog.register("T", &t);
        let counts = execute(&catalog, "SELECT COUNT(*) FROM T GROUP BY X, A").unwrap();
        let distinct = execute(
            &catalog,
            "SELECT COUNT(DISTINCT S) FROM T GROUP BY X, A",
        )
        .unwrap();
        let gb = GroupBy::compute(&t, &[0, 1]);
        prop_assert_eq!(counts.n_rows(), gb.n_groups());
        let mut sql_counts: Vec<i64> = (0..counts.n_rows())
            .map(|r| counts.value(r, 0).as_int().unwrap())
            .collect();
        let mut native_counts: Vec<i64> = gb.sizes().iter().map(|&s| i64::from(s)).collect();
        sql_counts.sort_unstable();
        native_counts.sort_unstable();
        prop_assert_eq!(sql_counts, native_counts);

        let (codes, n_codes) = t.column(2).dense_codes();
        let mut native_distinct: Vec<i64> = gb
            .distinct_codes_per_group(&codes, n_codes)
            .iter()
            .map(|&d| i64::from(d))
            .collect();
        let mut sql_distinct: Vec<i64> = (0..distinct.n_rows())
            .map(|r| distinct.value(r, 0).as_int().unwrap())
            .collect();
        native_distinct.sort_unstable();
        sql_distinct.sort_unstable();
        prop_assert_eq!(sql_distinct, native_distinct);
    }
}

mod injected_panic {
    //! Fault isolation: a worker whose morsel panics must not corrupt the
    //! result — the poisoned morsel's partial writes are rolled back and it
    //! re-runs serially, still yielding the byte-identical serial answer.

    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Wraps a real kernel; the first `fill_*` call panics (simulating a
    /// worker fault mid-morsel), every later call delegates.
    struct PanicOnce<'a> {
        inner: CodeKeyKernel<'a>,
        fired: AtomicBool,
    }

    impl<'a> PanicOnce<'a> {
        fn new(inner: CodeKeyKernel<'a>) -> PanicOnce<'a> {
            PanicOnce {
                inner,
                fired: AtomicBool::new(false),
            }
        }

        fn trip(&self) {
            if !self.fired.swap(true, Ordering::SeqCst) {
                panic!("injected morsel failure");
            }
        }
    }

    impl KeyKernel for PanicOnce<'_> {
        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }
        fn dense_product(&self) -> Option<u32> {
            self.inner.dense_product()
        }
        fn fill_dense(&self, start: usize, out: &mut [u32]) {
            self.trip();
            self.inner.fill_dense(start, out);
        }
        fn fill_hashed(&self, start: usize, out: &mut [u64]) {
            self.trip();
            self.inner.fill_hashed(start, out);
        }
        fn rows_equal(&self, a: usize, b: usize) -> bool {
            self.inner.rows_equal(a, b)
        }
    }

    #[test]
    fn panicked_morsel_is_rerun_and_result_is_byte_identical() {
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                (
                    i as u8 % 4,
                    i64::from(i % 5),
                    i % 7 == 0,
                    i as u8 % 3,
                    i % 11 == 0,
                )
            })
            .collect();
        let t = build_table(&rows);
        let serial = GroupBy::compute(&t, &[0, 1]);
        let codes = key_codes(&t, &[0, 1]);
        for threads in [2, 8] {
            for morsel_rows in MORSEL_ROWS {
                let kernel = PanicOnce::new(kernel(&t, &codes));
                let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                assert!(
                    kernel.fired.load(Ordering::SeqCst),
                    "the injected panic must actually fire"
                );
                assert_eq!(
                    assignment.as_slice(),
                    serial.assignments(),
                    "threads={threads} morsel_rows={morsel_rows}"
                );
                assert_eq!(n_groups as usize, serial.n_groups());
            }
        }
    }

    /// A morsel that panics on the serial retry too is a deterministic
    /// failure; the contract propagates it instead of masking it.
    struct AlwaysPanic {
        rows: usize,
    }

    impl KeyKernel for AlwaysPanic {
        fn n_rows(&self) -> usize {
            self.rows
        }
        fn dense_product(&self) -> Option<u32> {
            Some(4)
        }
        fn fill_dense(&self, _start: usize, _out: &mut [u32]) {
            panic!("deterministic kernel failure");
        }
        fn fill_hashed(&self, _start: usize, _out: &mut [u64]) {
            panic!("deterministic kernel failure");
        }
        fn rows_equal(&self, _a: usize, _b: usize) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "deterministic kernel failure")]
    fn persistent_panic_propagates() {
        group_codes(&AlwaysPanic { rows: 100 }, 4, 7);
    }
}

/// QI space over X (3 levels) and A (2 levels): a 6-node lattice the
/// search-verdict oracle can walk quickly.
fn qi_space() -> QiSpace {
    narrow_qi_space()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End to end: routing the node-evaluation kernel through the morsel
    /// partition (`Tuning::chunk_rows` rows per morsel) must not change any
    /// search verdict — winning node, proven height bound, or suppression
    /// count.
    #[test]
    fn search_verdicts_survive_chunked_evaluation(
        rows in prop::collection::vec(arb_row(), 1..40),
        p in 1u32..4,
        k in 1u32..5,
        ts in 0usize..6,
    ) {
        let t = build_table(&rows);
        let qi = qi_space();
        let unlimited = SearchBudget::unlimited();
        let noop = NoopObserver;
        let pruning = Pruning::NecessaryConditions;
        let oracle =
            pk_minimal_generalization_budgeted(&t, &qi, p, k, ts, pruning, &unlimited, &noop)
                .unwrap();
        for chunk_rows in MORSEL_ROWS {
            for threads in THREADS {
                let tuning = Tuning { threads, cache: None, chunk_rows };
                let outcome = pk_minimal_generalization_tuned(
                    &t, &qi, p, k, ts, pruning, &unlimited, tuning, &noop,
                )
                .unwrap();
                let setting = format!(
                    "p={p} k={k} ts={ts} chunk_rows={chunk_rows} threads={threads}"
                );
                prop_assert_eq!(&outcome.node, &oracle.node, "node: {}", &setting);
                prop_assert_eq!(
                    outcome.proven_min_height, oracle.proven_min_height,
                    "height bound: {}", &setting
                );
                prop_assert_eq!(
                    outcome.suppressed, oracle.suppressed,
                    "suppressed: {}", &setting
                );
            }
        }
    }
}
