//! Execution tuning shared by the lattice searches: worker-thread count and
//! an optional shared [`VerdictStore`].
//!
//! The defaults reproduce the pre-tuning behaviour exactly — one thread, no
//! cache — so the `*_budgeted` entry points keep their historical semantics
//! (including bit-identical [`crate::stats::SearchStats`]) by delegating
//! with [`Tuning::default`].

use psens_core::evaluator::EvalContext;
use psens_core::verdict::VerdictStore;
use psens_microdata::resolve_threads;

/// Knobs for the `*_tuned` search entry points.
#[derive(Debug, Clone, Copy)]
pub struct Tuning<'a> {
    /// Worker threads for per-stratum evaluation and the morsel-parallel
    /// partition kernel. `1` means serial (the historical code path, bit-identical
    /// stats); `0` means one worker per available core
    /// ([`std::thread::available_parallelism`], the same convention as the
    /// CLI's `--threads 0`); with more threads each lattice stratum is
    /// chunked across scoped workers.
    pub threads: usize,
    /// Shared verdict store consulted before every kernel check and updated
    /// with every fresh verdict. The store must have been built for the
    /// same `(table, QI space, p, k, ts)` configuration; sharing one store
    /// across runs (or across strategies) is what makes verdicts reusable.
    pub cache: Option<&'a VerdictStore>,
    /// Rows per morsel for the evaluator's morsel-parallel partition
    /// kernel. `0` (the default) keeps the serial kernel; any other value
    /// makes every node check partition the table in row ranges of this
    /// many rows across the same `threads` workers. Verdicts are identical
    /// either way — the executor's canonical pass reproduces the serial
    /// group ids exactly.
    pub chunk_rows: usize,
}

impl Default for Tuning<'_> {
    fn default() -> Self {
        Tuning {
            threads: 1,
            cache: None,
            chunk_rows: 0,
        }
    }
}

impl<'a> Tuning<'a> {
    /// Effective worker count: at least one; `0` resolves to the available
    /// parallelism (see [`resolve_threads`]).
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads).max(1)
    }

    /// Applies the morsel-partition setting to a freshly built evaluator
    /// context. With `chunk_rows == 0` the context is returned untouched,
    /// preserving the historical serial kernel.
    pub fn configure(&self, ectx: EvalContext) -> EvalContext {
        if self.chunk_rows > 0 {
            ectx.with_chunked_partition(self.chunk_rows, self.effective_threads())
        } else {
            ectx
        }
    }
}
