//! Morsel-driven, hash-partitioned parallel group-by executor over row
//! ranges of one table.
//!
//! Two phases, as in morsel-driven engines:
//!
//! 1. **Partition.** Workers pull fixed-size row-range *morsels* from a
//!    shared atomic cursor — no static range-per-thread assignment, so a
//!    slow worker never strands work. Each row's key is reduced to either a
//!    dense fused code (when the product of per-column domains fits
//!    [`DENSE_CAP`]) or a seeded multiply-shift hash, and the row is written
//!    into a per-worker, per-partition buffer. With `P =
//!    next_pow2(threads)` partitions chosen by high hash bits, no two
//!    workers ever touch the same buffer: zero cross-thread contention.
//! 2. **Build.** Each partition now holds *all* rows of every group that
//!    hashes into it, scattered across the per-worker buffers. Workers each
//!    claim a disjoint set of partitions and build that partition's group
//!    table locally (a dense radix table or a hash map with exact-key
//!    verification). The "merge" is a trivial concatenation of per-partition
//!    group counts.
//!
//! A final serial pass restores the *canonical* ids: every group records the
//! minimum global row index among its members, and groups are ranked by that
//! first appearance. Because group membership depends only on exact key
//! equality and a minimum is order-independent, the output is byte-identical
//! to the serial single-pass group-by for **any** thread count and morsel
//! size — the differential oracle in `tests/chunked_equivalence.rs` pins
//! this.
//!
//! Fault isolation: each morsel runs under `catch_unwind`; a panicking
//! morsel's partial buffer writes are rolled back and the morsel re-runs
//! serially after the parallel phase (a second panic propagates). Phases 2
//! and 3 inherit the same contract from [`parallel_map`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hash::{fmix64, mix64, FxHashMap, KEY_HASH_SEED};

/// Upper bound on the product of per-column key domains for the dense radix
/// path. Below this, every distinct key fuses injectively into one `u32` and
/// the per-partition group table is a flat array; above it, keys are hashed
/// and verified by exact comparison. 2^20 entries × 4 bytes = 4 MiB per
/// in-flight partition table.
pub const DENSE_CAP: u64 = 1 << 20;

/// Default number of rows per morsel. Small enough that 8 workers get
/// hundreds of steal opportunities on a 10M-row table, large enough that the
/// atomic cursor `fetch_add` is noise (one per 16Ki rows).
pub const DEFAULT_MORSEL_ROWS: usize = 16_384;

/// Resolves a requested thread count: `0` means "one worker per available
/// core" via [`std::thread::available_parallelism`] (1 if the parallelism
/// cannot be queried); any other value is clamped to the available
/// parallelism. Every `threads` parameter in the workspace — CLI
/// `--threads`, `Tuning::threads`, the morsel executor — is resolved
/// through this function so `0` and oversubscribed requests behave
/// identically everywhere.
///
/// The clamp exists because oversubscription is a measured regression, not a
/// no-op: BENCH_6 recorded `--threads 8` on a 1-core host running group-by
/// at 0.60–0.74x of `threads=1` (eight workers time-slicing one core pay
/// for partitioning and merge without any parallel build). Requests beyond
/// the hardware degrade gracefully to the widest useful worker count; the
/// requested figure is still reported alongside the effective one in
/// `SearchStats`, so a clamped run is visible in reports rather than
/// silent.
pub fn resolve_threads(requested: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    match requested {
        0 => available,
        n => n.min(available),
    }
}

/// Wall-clock time spent in each phase of one executor run, for the
/// BENCH_6 per-phase breakdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimings {
    /// Phase 1: morsel pull, key materialization, radix partition write.
    pub partition: Duration,
    /// Phase 2: per-partition local group-table build.
    pub build: Duration,
    /// Canonical re-ordering plus the final id scatter.
    pub reorder: Duration,
}

/// A source of per-row grouping keys for the morsel executor.
///
/// The executor is generic over *where* keys come from — dense code columns
/// of one table ([`CodeKeyKernel`], which the evaluator feeds its mapped
/// per-node codes) or test harnesses that inject faults. Implementations must be deterministic:
/// the same row must always produce the same key, and `rows_equal` must be
/// the exact key-equality relation (hash collisions across unequal rows are
/// handled by the executor; disagreement between `fill_*` on equal rows is
/// not).
pub trait KeyKernel: Sync {
    /// Total number of rows.
    fn n_rows(&self) -> usize;

    /// When every distinct key fuses injectively into a `u32` below
    /// [`DENSE_CAP`], the (exclusive) bound on fused codes; `None` selects
    /// the hashed path.
    fn dense_product(&self) -> Option<u32>;

    /// Writes the fused dense code of rows `start..start + out.len()` into
    /// `out`. Only called when [`Self::dense_product`] is `Some`.
    fn fill_dense(&self, start: usize, out: &mut [u32]);

    /// Writes a well-mixed 64-bit key hash of rows `start..start +
    /// out.len()` into `out`. Equal rows must hash equal; unequal rows may
    /// collide (the executor verifies with [`Self::rows_equal`]).
    fn fill_hashed(&self, start: usize, out: &mut [u64]);

    /// Exact key equality between two rows. Only called on the hashed path.
    fn rows_equal(&self, a: usize, b: usize) -> bool;
}

/// One partitioned row: its global index and its key (dense code or hash).
type Entry<K> = (u32, K);

/// One worker's output: a buffer of entries per partition.
type Bufs<K> = Vec<Vec<Entry<K>>>;

/// Computes the canonical group assignment of every row under `kernel`'s
/// key relation: `(assignment, n_groups)` where ids are dense and ordered
/// by first appearance, exactly as the serial group-by numbers them.
///
/// `threads` is resolved through [`resolve_threads`]; `morsel_rows == 0`
/// selects [`DEFAULT_MORSEL_ROWS`].
pub fn group_codes<K: KeyKernel + ?Sized>(
    kernel: &K,
    threads: usize,
    morsel_rows: usize,
) -> (Vec<u32>, u32) {
    group_codes_timed(kernel, threads, morsel_rows).0
}

/// [`group_codes`], also returning the per-phase wall-clock breakdown.
pub fn group_codes_timed<K: KeyKernel + ?Sized>(
    kernel: &K,
    threads: usize,
    morsel_rows: usize,
) -> ((Vec<u32>, u32), PhaseTimings) {
    let n = kernel.n_rows();
    let mut timings = PhaseTimings::default();
    if n == 0 {
        return ((Vec::new(), 0), timings);
    }
    let threads = resolve_threads(threads).max(1);
    let morsel_rows = if morsel_rows == 0 {
        DEFAULT_MORSEL_ROWS
    } else {
        morsel_rows
    };
    let p_count = threads.next_power_of_two();
    let result = match kernel.dense_product() {
        Some(product) => execute(
            n,
            threads,
            p_count,
            morsel_rows,
            &mut timings,
            |start, out: &mut [u32]| kernel.fill_dense(start, out),
            |key| ((fmix64(u64::from(key)) >> 32) as usize) & (p_count - 1),
            |entries| build_dense(product, entries),
        ),
        None => execute(
            n,
            threads,
            p_count,
            morsel_rows,
            &mut timings,
            |start, out: &mut [u64]| kernel.fill_hashed(start, out),
            |hash| ((hash >> 32) as usize) & (p_count - 1),
            |entries| build_hashed(kernel, entries),
        ),
    };
    (result, timings)
}

/// One partition's local group table: per-entry group ids (aligned with the
/// concatenation of the partition's buffers) and each group's minimum global
/// row index.
struct LocalGroups {
    gids: Vec<u32>,
    first_rows: Vec<u32>,
}

/// The three-phase executor, generic over key type and build strategy.
#[allow(clippy::too_many_arguments)]
fn execute<K, F, P, B>(
    n: usize,
    threads: usize,
    p_count: usize,
    morsel_rows: usize,
    timings: &mut PhaseTimings,
    fill: F,
    part_of: P,
    build: B,
) -> (Vec<u32>, u32)
where
    K: Copy + Default + Send + Sync,
    F: Fn(usize, &mut [K]) + Sync,
    P: Fn(K) -> usize + Sync,
    B: Fn(&[Vec<Entry<K>>]) -> LocalGroups + Sync,
{
    // Phase 1: morsel-driven radix partition.
    let clock = Instant::now();
    let worker_sets = partition_phase(n, threads, p_count, morsel_rows, &fill, &part_of);
    // Transpose worker-major buffers to partition-major without copying.
    let mut parts: Vec<Vec<Vec<Entry<K>>>> = (0..p_count).map(|_| Vec::new()).collect();
    for set in worker_sets {
        for (p, buf) in set.into_iter().enumerate() {
            if !buf.is_empty() {
                parts[p].push(buf);
            }
        }
    }
    timings.partition = clock.elapsed();

    // Phase 2: per-partition local group tables, partitions spread across
    // workers with the same fault-isolation contract as phase 1.
    let clock = Instant::now();
    let locals = parallel_map(p_count, threads, |p| build(&parts[p]));
    timings.build = clock.elapsed();

    // Canonical re-ordering: concatenate per-partition groups, rank them by
    // first appearance, then scatter the canonical ids. Ranking is serial
    // (O(G log G) in the number of groups, not rows); the scatter is
    // parallel over partitions — each row belongs to exactly one partition,
    // so the writes are disjoint.
    let clock = Instant::now();
    let mut offsets = Vec::with_capacity(p_count + 1);
    offsets.push(0usize);
    for local in &locals {
        offsets.push(offsets.last().expect("seeded") + local.first_rows.len());
    }
    let n_groups = *offsets.last().expect("seeded");
    let mut first_all: Vec<u32> = Vec::with_capacity(n_groups);
    for local in &locals {
        first_all.extend_from_slice(&local.first_rows);
    }
    let mut order: Vec<u32> = (0..n_groups as u32).collect();
    // Two distinct groups can never share a first row, so the unstable sort
    // is deterministic.
    order.sort_unstable_by_key(|&g| first_all[g as usize]);
    let mut canon = vec![0u32; n_groups];
    for (rank, &g) in order.iter().enumerate() {
        canon[g as usize] = rank as u32;
    }
    let out: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    parallel_map(p_count, threads, |p| {
        let base = offsets[p];
        let mut i = 0usize;
        for buf in &parts[p] {
            for &(row, _) in buf {
                let gid = locals[p].gids[i] as usize;
                // Disjoint rows; Relaxed stores compile to plain stores.
                out[row as usize].store(canon[base + gid], Ordering::Relaxed);
                i += 1;
            }
        }
    });
    let assignment: Vec<u32> = out.into_iter().map(AtomicU32::into_inner).collect();
    timings.reorder = clock.elapsed();
    (assignment, n_groups as u32)
}

/// Phase 1: workers pull morsels from a shared cursor and scatter each row
/// into the per-worker buffer of its key's partition. Returns one buffer
/// set per worker (plus one extra set if any morsel panicked and was
/// re-run serially).
fn partition_phase<K, F, P>(
    n: usize,
    threads: usize,
    p_count: usize,
    morsel_rows: usize,
    fill: &F,
    part_of: &P,
) -> Vec<Bufs<K>>
where
    K: Copy + Default + Send,
    F: Fn(usize, &mut [K]) + Sync,
    P: Fn(K) -> usize + Sync,
{
    let n_morsels = n.div_ceil(morsel_rows);
    let workers = threads.min(n_morsels).max(1);
    let cursor = AtomicUsize::new(0);
    let poisoned: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    let run_worker = |bufs: &mut Bufs<K>, keys: &mut Vec<K>, saved: &mut Vec<usize>| loop {
        let m = cursor.fetch_add(1, Ordering::Relaxed);
        if m >= n_morsels {
            break;
        }
        let start = m * morsel_rows;
        let len = morsel_rows.min(n - start);
        saved.clear();
        saved.extend(bufs.iter().map(Vec::len));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            keys.resize(len, K::default());
            fill(start, &mut keys[..len]);
            for (i, &key) in keys[..len].iter().enumerate() {
                bufs[part_of(key)].push(((start + i) as u32, key));
            }
        }));
        if outcome.is_err() {
            roll_back(bufs, saved);
            poisoned
                .lock()
                .expect("partition workers never panic while holding the poison list")
                .push(m);
        }
    };

    let mut sets: Vec<Bufs<K>> = if workers <= 1 {
        let mut bufs: Bufs<K> = (0..p_count).map(|_| Vec::new()).collect();
        run_worker(&mut bufs, &mut Vec::new(), &mut Vec::new());
        vec![bufs]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut bufs: Bufs<K> = (0..p_count).map(|_| Vec::new()).collect();
                        run_worker(&mut bufs, &mut Vec::new(), &mut Vec::new());
                        bufs
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught per morsel"))
                .collect()
        })
    };

    let mut poisoned = poisoned
        .into_inner()
        .expect("all workers joined before draining the poison list");
    if !poisoned.is_empty() {
        sets.push(rerun_poisoned(
            n,
            p_count,
            morsel_rows,
            &mut poisoned,
            fill,
            part_of,
        ));
    }
    sets
}

/// Discards a panicked morsel's partial buffer writes by truncating each
/// partition buffer back to its length before the morsel started.
#[cold]
fn roll_back<K>(bufs: &mut Bufs<K>, saved: &[usize]) {
    for (buf, &len) in bufs.iter_mut().zip(saved) {
        buf.truncate(len);
    }
}

/// Serial second attempt at every poisoned morsel, in ascending order, into
/// a fresh buffer set. A panic here propagates: the fault-isolation
/// contract retries once, it does not mask deterministic failures.
#[cold]
fn rerun_poisoned<K, F, P>(
    n: usize,
    p_count: usize,
    morsel_rows: usize,
    poisoned: &mut [usize],
    fill: &F,
    part_of: &P,
) -> Bufs<K>
where
    K: Copy + Default,
    F: Fn(usize, &mut [K]),
    P: Fn(K) -> usize,
{
    poisoned.sort_unstable();
    let mut bufs: Bufs<K> = (0..p_count).map(|_| Vec::new()).collect();
    let mut keys: Vec<K> = Vec::new();
    for &m in poisoned.iter() {
        let start = m * morsel_rows;
        let len = morsel_rows.min(n - start);
        keys.resize(len, K::default());
        fill(start, &mut keys[..len]);
        for (i, &key) in keys[..len].iter().enumerate() {
            bufs[part_of(key)].push(((start + i) as u32, key));
        }
    }
    bufs
}

/// Dense build: the partition's group table is a flat `product`-sized radix
/// array mapping fused code → local group id.
fn build_dense(product: u32, entries: &[Vec<Entry<u32>>]) -> LocalGroups {
    let mut table = vec![u32::MAX; product as usize];
    let mut first_rows: Vec<u32> = Vec::new();
    let total: usize = entries.iter().map(Vec::len).sum();
    let mut gids = Vec::with_capacity(total);
    for buf in entries {
        for &(row, key) in buf {
            let slot = &mut table[key as usize];
            let gid = if *slot == u32::MAX {
                let g = first_rows.len() as u32;
                *slot = g;
                first_rows.push(row);
                g
            } else {
                let g = *slot;
                let first = &mut first_rows[g as usize];
                if row < *first {
                    *first = row;
                }
                g
            };
            gids.push(gid);
        }
    }
    LocalGroups { gids, first_rows }
}

/// Hashed build: candidate group ids per 64-bit hash, exactness restored by
/// comparing against each candidate group's recorded member row. Collisions
/// between unequal keys cost an extra `rows_equal`, never correctness.
fn build_hashed<K: KeyKernel + ?Sized>(kernel: &K, entries: &[Vec<Entry<u64>>]) -> LocalGroups {
    let mut map: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut first_rows: Vec<u32> = Vec::new();
    let total: usize = entries.iter().map(Vec::len).sum();
    let mut gids = Vec::with_capacity(total);
    for buf in entries {
        for &(row, hash) in buf {
            let candidates = map.entry(hash).or_default();
            let known = candidates
                .iter()
                .copied()
                .find(|&g| kernel.rows_equal(first_rows[g as usize] as usize, row as usize));
            let gid = match known {
                Some(g) => {
                    let first = &mut first_rows[g as usize];
                    if row < *first {
                        *first = row;
                    }
                    g
                }
                None => {
                    let g = first_rows.len() as u32;
                    first_rows.push(row);
                    candidates.push(g);
                    g
                }
            };
            gids.push(gid);
        }
    }
    LocalGroups { gids, first_rows }
}

/// Runs `job(0..n_jobs)` across `threads` scoped workers and returns the
/// results in job order.
///
/// Workers are fault-isolated: each job runs under
/// [`std::panic::catch_unwind`], and a job that panicked is re-run serially
/// after the parallel phase (a second panic propagates to the caller).
/// `AssertUnwindSafe` is sound because a panicked job's entire result is
/// discarded and recomputed from scratch. With `threads <= 1` (or a single
/// job) the jobs run inline on the caller's thread with no spawning and no
/// unwind guard — the zero-overhead serial path.
fn parallel_map<T, F>(n_jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n_jobs.max(1));
    if threads <= 1 {
        return (0..n_jobs).map(&job).collect();
    }
    let slots: Vec<Option<T>> = std::thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    // Round-robin assignment: worker w owns jobs
                    // w, w + threads, w + 2·threads, ...
                    (w..n_jobs)
                        .step_by(threads)
                        .map(|j| (j, catch_unwind(AssertUnwindSafe(|| job(j))).ok()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n_jobs).collect();
        for handle in handles {
            for (j, result) in handle.join().expect("worker panics are caught inside") {
                slots[j] = result;
            }
        }
        slots
    });
    // Serial re-run for jobs that panicked keeps the result total; a
    // deterministic panic reproduces here, on the caller's thread.
    slots
        .into_iter()
        .enumerate()
        .map(|(j, slot)| slot.unwrap_or_else(|| job(j)))
        .collect()
}

/// One key column of a [`CodeKeyKernel`]: row `r`'s key component is a
/// dense code below `n_codes`.
#[derive(Debug, Clone, Copy)]
pub enum CodeColumn<'a> {
    /// Component `map[base[r]]` — a code map (the evaluator's
    /// generalization map of one level) fused into the key read, never
    /// materialized.
    Mapped {
        /// Ground-level dense codes, one per row.
        base: &'a [u32],
        /// Ground code → mapped code.
        map: &'a [u32],
        /// Exclusive bound on mapped codes.
        n_codes: u32,
    },
    /// Component `codes[r]`.
    Plain {
        /// Dense codes, one per row.
        codes: &'a [u32],
        /// Exclusive bound on the codes.
        n_codes: u32,
    },
}

impl CodeColumn<'_> {
    #[inline]
    fn component(&self, row: usize) -> u32 {
        match self {
            CodeColumn::Mapped { base, map, .. } => map[base[row] as usize],
            CodeColumn::Plain { codes, .. } => codes[row],
        }
    }

    fn n_codes(&self) -> u32 {
        match self {
            CodeColumn::Mapped { n_codes, .. } | CodeColumn::Plain { n_codes, .. } => *n_codes,
        }
    }
}

/// [`KeyKernel`] over dense code columns of one table, read from
/// whole-table slices by row range. Every component is already a dense
/// code, so the dense fused-key path covers any column-domain product under
/// [`DENSE_CAP`]; wider keys fall back to the seeded hash with exact
/// per-component verification.
#[derive(Debug, Clone)]
pub struct CodeKeyKernel<'a> {
    n_rows: usize,
    cols: Vec<CodeColumn<'a>>,
    product: Option<u32>,
}

impl<'a> CodeKeyKernel<'a> {
    /// A kernel keying `n_rows` rows on `cols`, in order; every column's
    /// slices cover all `n_rows` rows.
    pub fn new(n_rows: usize, cols: Vec<CodeColumn<'a>>) -> CodeKeyKernel<'a> {
        let mut running: u64 = 1;
        for col in &cols {
            running = running.saturating_mul(u64::from(col.n_codes()).max(1));
        }
        let product = (running <= DENSE_CAP).then_some(running.max(1) as u32);
        CodeKeyKernel {
            n_rows,
            cols,
            product,
        }
    }
}

impl KeyKernel for CodeKeyKernel<'_> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn dense_product(&self) -> Option<u32> {
        self.product
    }

    fn fill_dense(&self, start: usize, out: &mut [u32]) {
        out.fill(0);
        for col in &self.cols {
            let d = col.n_codes().max(1);
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = *slot * d + col.component(start + i);
            }
        }
    }

    fn fill_hashed(&self, start: usize, out: &mut [u64]) {
        out.fill(KEY_HASH_SEED);
        for col in &self.cols {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = mix64(*slot, u64::from(col.component(start + i)));
            }
        }
        for slot in out.iter_mut() {
            *slot = fmix64(*slot);
        }
    }

    fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.cols
            .iter()
            .all(|col| col.component(a) == col.component(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::table_from_str_rows;
    use crate::groupby::GroupBy;
    use crate::schema::{Attribute, Schema};
    use crate::table::Table;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::cat_key("X"),
            Attribute::int_key("A"),
            Attribute::cat_confidential("S"),
        ])
        .unwrap()
    }

    fn sample() -> Table {
        table_from_str_rows(
            schema(),
            &[
                &["x0", "5", "s0"],
                &["x1", "", "s1"],
                &["x0", "5", "s0"],
                &["x2", "7", ""],
                &["x1", "5", "s2"],
                &["x0", "", "s1"],
                &["x2", "7", "s0"],
                &["x0", "5", "s1"],
                &["x3", "9", "s0"],
                &["x1", "5", "s2"],
                &["x2", "8", "s1"],
            ],
        )
        .unwrap()
    }

    /// Dense codes of `by`'s columns, owned so kernels can borrow them.
    fn key_codes(t: &Table, by: &[usize]) -> Vec<(Vec<u32>, u32)> {
        by.iter().map(|&c| t.column(c).dense_codes()).collect()
    }

    fn plain(codes: &[(Vec<u32>, u32)]) -> Vec<CodeColumn<'_>> {
        codes
            .iter()
            .map(|(codes, n_codes)| CodeColumn::Plain {
                codes,
                n_codes: *n_codes,
            })
            .collect()
    }

    #[test]
    fn code_kernel_matches_serial_for_all_morsels_and_threads() {
        let t = sample();
        let serial = GroupBy::compute(&t, &[0, 1]);
        let codes = key_codes(&t, &[0, 1]);
        let kernel = CodeKeyKernel::new(t.n_rows(), plain(&codes));
        for threads in [1, 2, 8] {
            for morsel_rows in [1, 2, 7, 4096] {
                let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                assert_eq!(assignment.as_slice(), serial.assignments());
                assert_eq!(n_groups as usize, serial.n_groups());
            }
        }
    }

    #[test]
    fn mapped_column_groups_like_its_materialized_codes() {
        // Map X's codes pairwise together: x0,x1 -> 0 and x2,x3 -> 1.
        let t = sample();
        let (base, n_codes) = t.column(0).dense_codes();
        let map: Vec<u32> = (0..n_codes).map(|c| c / 2).collect();
        let materialized: Vec<u32> = base.iter().map(|&c| map[c as usize]).collect();
        let serial = GroupBy::from_code_slices(t.n_rows(), [(&materialized[..], 2)], vec![0]);
        let kernel = CodeKeyKernel::new(
            t.n_rows(),
            vec![CodeColumn::Mapped {
                base: &base,
                map: &map,
                n_codes: 2,
            }],
        );
        for threads in [1, 2, 8] {
            let (assignment, n_groups) = group_codes(&kernel, threads, 3);
            assert_eq!(assignment.as_slice(), serial.assignments());
            assert_eq!(n_groups as usize, serial.n_groups());
        }
    }

    /// Forcing the hashed path (via a kernel whose dense product is hidden)
    /// must produce the same canonical assignment as the dense path.
    struct HashOnly<'a>(CodeKeyKernel<'a>);

    impl KeyKernel for HashOnly<'_> {
        fn n_rows(&self) -> usize {
            self.0.n_rows()
        }
        fn dense_product(&self) -> Option<u32> {
            None
        }
        fn fill_dense(&self, start: usize, out: &mut [u32]) {
            self.0.fill_dense(start, out);
        }
        fn fill_hashed(&self, start: usize, out: &mut [u64]) {
            self.0.fill_hashed(start, out);
        }
        fn rows_equal(&self, a: usize, b: usize) -> bool {
            self.0.rows_equal(a, b)
        }
    }

    #[test]
    fn hashed_path_matches_dense_path() {
        let t = sample();
        let serial = GroupBy::compute(&t, &[0, 1]);
        let codes = key_codes(&t, &[0, 1]);
        let kernel = HashOnly(CodeKeyKernel::new(t.n_rows(), plain(&codes)));
        for threads in [1, 2, 8] {
            for morsel_rows in [1, 3, 4096] {
                let (assignment, n_groups) = group_codes(&kernel, threads, morsel_rows);
                assert_eq!(assignment.as_slice(), serial.assignments());
                assert_eq!(n_groups as usize, serial.n_groups());
            }
        }
    }

    #[test]
    fn empty_by_produces_one_group() {
        let t = sample();
        let kernel = CodeKeyKernel::new(t.n_rows(), Vec::new());
        let (assignment, n_groups) = group_codes(&kernel, 4, 3);
        assert_eq!(n_groups, 1);
        assert!(assignment.iter().all(|&g| g == 0));
    }

    #[test]
    fn empty_table_produces_no_groups() {
        let t = table_from_str_rows(schema(), &[]).unwrap();
        let codes = key_codes(&t, &[0, 1]);
        let kernel = CodeKeyKernel::new(0, plain(&codes));
        let (assignment, n_groups) = group_codes(&kernel, 4, 3);
        assert!(assignment.is_empty());
        assert_eq!(n_groups, 0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let results = parallel_map(17, 4, |j| j * j);
        assert_eq!(results, (0..17).map(|j| j * j).collect::<Vec<_>>());
        // Degenerate thread counts clamp.
        assert_eq!(parallel_map(3, 0, |j| j), vec![0, 1, 2]);
        assert!(parallel_map(0, 8, |j| j).is_empty());
    }

    #[test]
    fn panicked_job_is_rerun_serially() {
        // The first attempt at job 2 panics; the serial re-run succeeds,
        // so the caller still sees a complete, ordered result.
        let attempts = AtomicUsize::new(0);
        let results = parallel_map(5, 2, |j| {
            if j == 2 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected job failure");
            }
            j + 10
        });
        assert_eq!(results, vec![10, 11, 12, 13, 14]);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "job 2 ran twice");
    }

    #[test]
    #[should_panic(expected = "injected job failure")]
    fn deterministic_panic_propagates_from_serial_rerun() {
        parallel_map(3, 2, |j| {
            if j == 1 {
                panic!("injected job failure");
            }
            j
        });
    }

    #[test]
    fn resolve_threads_zero_means_available_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, usize::from);
        let resolved = resolve_threads(0);
        assert!(resolved >= 1);
        assert_eq!(resolved, available);
        assert_eq!(resolve_threads(3), 3.min(available));
    }

    #[test]
    fn resolve_threads_clamps_oversubscription_to_available_cores() {
        let available = std::thread::available_parallelism().map_or(1, usize::from);
        // Requests within the hardware are taken literally; requests beyond
        // it degrade to the widest useful worker count instead of
        // oversubscribing (the BENCH_6 `--threads 8` on 1 core regression).
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(available), available);
        assert_eq!(resolve_threads(available + 1), available);
        assert_eq!(resolve_threads(usize::MAX), available);
        // Clamping is idempotent: re-resolving an already-resolved count
        // (the CLI resolves before Tuning resolves again) changes nothing.
        assert_eq!(
            resolve_threads(resolve_threads(1024)),
            resolve_threads(1024)
        );
    }
}
