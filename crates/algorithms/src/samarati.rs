//! Samarati's binary search for a (p-)k-minimal generalization, and the
//! paper's **Algorithm 3** extension with the two necessary conditions.
//!
//! The search exploits monotonicity: if a node satisfies the property, so
//! does every node above it [19]. Binary search on *height* therefore finds
//! the smallest height at which some node satisfies; any satisfying node at
//! that height is a minimal generalization. Algorithm 3 adds, underlined in
//! the paper: an up-front Condition 1 abort, and a per-node Condition 2 skip
//! that avoids the detailed scan for nodes with too many QI-groups.

use crate::stats::SearchStats;
use crate::tuning::Tuning;
use psens_core::budget::BudgetState;
use psens_core::conditions::ConfidentialStats;
use psens_core::evaluator::{EvalContext, NodeEvaluator};
use psens_core::masking::MaskingContext;
use psens_core::{ModelSpec, NoopObserver, SearchBudget, SearchObserver, Termination};
use psens_hierarchy::{Lattice, Node, QiSpace};
use psens_microdata::Table;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Whether Algorithm 3's necessary-condition pruning is active — the ablation
/// knob for the paper's future-work comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pruning {
    /// Plain Samarati + Algorithm 1: every candidate gets the full check.
    None,
    /// Algorithm 3: Condition 1 aborts, Condition 2 skips candidates.
    NecessaryConditions,
}

/// Result of a lattice search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// A minimal satisfying node, or `None` when the property is
    /// unachievable (even the lattice top fails). On an interrupted run
    /// this is the best feasible node proven so far (anytime behaviour) —
    /// satisfying, but not necessarily minimal.
    pub node: Option<Node>,
    /// The masked microdata at `node` (generalized + suppressed).
    pub masked: Option<Table>,
    /// Number of tuples suppressed at `node`.
    pub suppressed: usize,
    /// Tightest proven lower bound on the minimal satisfiable height: every
    /// height below this is proven to hold no satisfying node (a failed
    /// probe at height `h` rules out all heights `<= h` by monotonicity).
    /// On a completed run this equals the found node's height, or
    /// `lattice.height() + 1` when the instance is unsatisfiable; on an
    /// interrupted run it is the bound established before the budget
    /// tripped.
    pub proven_min_height: usize,
    /// Work counters.
    pub stats: SearchStats,
    /// How the search ended. `node`/`proven_min_height` are exact iff this
    /// is [`Termination::Completed`].
    pub termination: Termination,
}

/// Confidential statistics that disable both necessary conditions — used to
/// run the unpruned baseline through the same code path.
fn unbounded_stats(n: usize) -> ConfidentialStats {
    ConfidentialStats {
        n,
        per_attribute: Vec::new(),
        cf: Vec::new(),
    }
}

/// Finds a **k-minimal generalization with suppression threshold** `ts`
/// (Samarati [19]): binary search over heights for the lowest node whose
/// masked microdata is k-anonymous after suppressing at most `ts` tuples.
pub fn k_minimal_generalization(
    initial: &Table,
    qi: &QiSpace,
    k: u32,
    ts: usize,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    // k-anonymity alone is p-sensitive k-anonymity with p = 1.
    search(
        initial,
        qi,
        ModelSpec::PSensitiveK { p: 1 },
        k,
        ts,
        Pruning::None,
        &SearchBudget::unlimited(),
        Tuning::default(),
        &NoopObserver,
        None,
    )
}

/// The paper's **Algorithm 3**: finds a **p-k-minimal generalization**
/// (Definition 3) by binary search, optionally pruned by the two necessary
/// conditions.
pub fn pk_minimal_generalization(
    initial: &Table,
    qi: &QiSpace,
    p: u32,
    k: u32,
    ts: usize,
    pruning: Pruning,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    search(
        initial,
        qi,
        ModelSpec::PSensitiveK { p },
        k,
        ts,
        pruning,
        &SearchBudget::unlimited(),
        Tuning::default(),
        &NoopObserver,
        None,
    )
}

/// [`pk_minimal_generalization`], reporting search events (height probes,
/// node checks, winner materializations) to `observer`. With a
/// [`NoopObserver`] this monomorphizes to the unobserved search.
pub fn pk_minimal_generalization_observed<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    p: u32,
    k: u32,
    ts: usize,
    pruning: Pruning,
    observer: &O,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    search(
        initial,
        qi,
        ModelSpec::PSensitiveK { p },
        k,
        ts,
        pruning,
        &SearchBudget::unlimited(),
        Tuning::default(),
        observer,
        None,
    )
}

/// [`pk_minimal_generalization_observed`] under a [`SearchBudget`]. An
/// interrupted search is *anytime*: it returns the best satisfying node
/// proven so far (if any probe succeeded) together with the tightest height
/// bound proven by the failed probes, labelled by `termination`.
#[allow(clippy::too_many_arguments)]
pub fn pk_minimal_generalization_budgeted<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    p: u32,
    k: u32,
    ts: usize,
    pruning: Pruning,
    budget: &SearchBudget,
    observer: &O,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    search(
        initial,
        qi,
        ModelSpec::PSensitiveK { p },
        k,
        ts,
        pruning,
        budget,
        Tuning::default(),
        observer,
        None,
    )
}

/// [`pk_minimal_generalization_budgeted`] with execution [`Tuning`]: a
/// worker-thread count for the per-height probes and an optional shared
/// [`psens_core::verdict::VerdictStore`].
///
/// With multiple threads each probed stratum is chunked across scoped
/// workers; every worker stops at its chunk's first satisfier, and the
/// lowest-index hit wins, so the returned node (and `proven_min_height`)
/// is identical to the serial search for any thread count. A panicked
/// worker's chunk is re-run on the calling thread (tallied in
/// `worker_failures`) — dropping it could hide a satisfier and falsify the
/// height bound.
#[allow(clippy::too_many_arguments)]
pub fn pk_minimal_generalization_tuned<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    p: u32,
    k: u32,
    ts: usize,
    pruning: Pruning,
    budget: &SearchBudget,
    tuning: Tuning<'_>,
    observer: &O,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    search(
        initial,
        qi,
        ModelSpec::PSensitiveK { p },
        k,
        ts,
        pruning,
        budget,
        tuning,
        observer,
        None,
    )
}

/// [`pk_minimal_generalization_tuned`] generalized over the pluggable
/// privacy models: finds a minimal generalization whose masked microdata is
/// k-anonymous within `ts` suppressions **and** satisfies `spec` in every
/// surviving QI-group. `ModelSpec::PSensitiveK` reproduces the p-sensitive
/// search bit-for-bit; the other models swap the per-group verdict while
/// keeping the paper's search skeleton (Condition 1 aborts through each
/// model's [`ModelSpec::conditions_p`] implication).
#[allow(clippy::too_many_arguments)]
pub fn pk_minimal_generalization_model<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
    pruning: Pruning,
    budget: &SearchBudget,
    tuning: Tuning<'_>,
    observer: &O,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    search(
        initial, qi, spec, k, ts, pruning, budget, tuning, observer, None,
    )
}

/// [`pk_minimal_generalization_model`] with caller-supplied confidential
/// statistics, skipping the from-scratch [`ConfidentialStats`] recompute.
/// The incremental update path maintains these statistics across deltas
/// (`psens-core::incremental::LiveTable::stats`) byte-identically to
/// [`ConfidentialStats::compute`], so supplying them changes nothing but
/// the startup cost; passing statistics that do not match `initial` is a
/// logic error and yields unspecified verdicts.
#[allow(clippy::too_many_arguments)]
pub fn pk_minimal_generalization_model_with_stats<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
    pruning: Pruning,
    budget: &SearchBudget,
    tuning: Tuning<'_>,
    observer: &O,
    stats: &ConfidentialStats,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    search(
        initial,
        qi,
        spec,
        k,
        ts,
        pruning,
        budget,
        tuning,
        observer,
        Some(stats),
    )
}

#[allow(clippy::too_many_arguments)]
fn search<O: SearchObserver>(
    initial: &Table,
    qi: &QiSpace,
    spec: ModelSpec,
    k: u32,
    ts: usize,
    pruning: Pruning,
    budget: &SearchBudget,
    tuning: Tuning<'_>,
    observer: &O,
    precomputed: Option<&ConfidentialStats>,
) -> Result<SearchOutcome, psens_hierarchy::Error> {
    // Every model's group verdict implies p-sensitivity at `conditions_p`,
    // which is what keeps Conditions 1-2 (and winner materialization) sound
    // below.
    let p = spec.conditions_p();
    let ctx = MaskingContext {
        initial,
        qi,
        k,
        p,
        ts,
    };
    let mut stats = SearchStats {
        requested_threads: tuning.threads,
        effective_threads: tuning.effective_threads(),
        ..Default::default()
    };
    let real_stats = match precomputed {
        Some(stats) => stats.clone(),
        None => ctx.initial_stats(),
    };
    let check_stats = match pruning {
        Pruning::NecessaryConditions => real_stats.clone(),
        Pruning::None => unbounded_stats(initial.n_rows()),
    };

    let lattice = qi.lattice();

    // Algorithm 3: "first necessary condition can be checked from the
    // beginning" — one comparison settles unsatisfiable instances.
    if pruning == Pruning::NecessaryConditions && !real_stats.condition1(p) {
        stats.aborted_condition1 = true;
        return Ok(SearchOutcome {
            node: None,
            masked: None,
            suppressed: 0,
            // Condition 1 is height-independent: no height can satisfy.
            proven_min_height: lattice.height() + 1,
            stats,
            termination: Termination::Completed,
        });
    }

    stats.lattice_nodes = lattice.node_count();
    // Candidate nodes run through the code-mapped kernel; a table is
    // materialized only for each probe's winning node.
    let ectx = tuning
        .configure(psens_core::evaluator::EvalContext::build_observed(
            &ctx, observer,
        )?)
        .with_model(spec);
    let mut eval = ectx.evaluator();
    let state = budget.start();
    let mut low = 0usize;
    let mut high = lattice.height();
    let mut best: Option<ProbeHit> = None;

    // Monotonicity makes "some node at height h satisfies" monotone in h, so
    // binary search converges on the minimal satisfiable height. Invariant:
    // every height `< low` has been proven infeasible by a failed probe, and
    // `best` (when set) is a satisfying node at height `high`.
    'search: {
        while low < high {
            let try_height = (low + high) / 2;
            stats.heights_probed.push(try_height);
            observer.height_entered(try_height);
            let found = probe_height(
                &ectx,
                &mut eval,
                &lattice,
                try_height,
                &check_stats,
                &state,
                tuning,
                &mut stats,
                observer,
            )?;
            match found {
                ControlFlow::Break(_) => break 'search,
                ControlFlow::Continue(Some(node)) => {
                    best = Some(materialize(&ctx, node, best, &check_stats, observer)?);
                    high = try_height;
                }
                ControlFlow::Continue(None) => low = try_height + 1,
            }
        }
        // `low == high`: verify the final height (binary search never probes
        // the initial `high`, and for unsatisfiable instances no height
        // works).
        if best.as_ref().map(|(n, _, _)| n.height()) != Some(low) {
            stats.heights_probed.push(low);
            observer.height_entered(low);
            match probe_height(
                &ectx,
                &mut eval,
                &lattice,
                low,
                &check_stats,
                &state,
                tuning,
                &mut stats,
                observer,
            )? {
                ControlFlow::Break(_) => break 'search,
                ControlFlow::Continue(Some(node)) => {
                    best = Some(materialize(&ctx, node, best, &check_stats, observer)?);
                }
                // A complete failed probe at `low` rules that height out too
                // (here `low == lattice.height()`: proven unsatisfiable).
                ControlFlow::Continue(None) => low += 1,
            }
        }
    }

    Ok(match best {
        Some((node, masked, suppressed)) => SearchOutcome {
            node: Some(node),
            masked: Some(masked),
            suppressed,
            proven_min_height: low,
            stats,
            termination: state.termination(),
        },
        None => SearchOutcome {
            node: None,
            masked: None,
            suppressed: 0,
            proven_min_height: low,
            stats,
            termination: state.termination(),
        },
    })
}

/// A probe's hit: the satisfying node, its masked table, and the suppressed
/// tuple count.
type ProbeHit = (Node, Table, usize);

/// Materializes a probe's satisfying node as the new best hit. The
/// previous best (a higher node) is dropped first, so two masked copies of
/// a large table are never alive at once.
fn materialize<O: SearchObserver>(
    ctx: &MaskingContext<'_>,
    node: Node,
    previous: Option<ProbeHit>,
    check_stats: &ConfidentialStats,
    observer: &O,
) -> Result<ProbeHit, psens_hierarchy::Error> {
    drop(previous);
    let outcome = ctx.evaluate_observed(&node, check_stats, observer)?;
    Ok((node, outcome.masked, outcome.suppressed))
}

/// Evaluates the nodes of one lattice stratum; returns the first satisfier
/// (candidates run through the kernel and cost no tables). Breaks as soon
/// as the budget refuses a node admission — an interrupted probe proves
/// nothing about its height.
///
/// With `tuning.threads > 1` the stratum is chunked across scoped workers;
/// serial and parallel probes return the same node (the lowest-index
/// satisfier), the serial path keeping its historical stats bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn probe_height<O: SearchObserver>(
    ectx: &EvalContext,
    eval: &mut NodeEvaluator<'_>,
    lattice: &Lattice,
    height: usize,
    check_stats: &ConfidentialStats,
    state: &BudgetState,
    tuning: Tuning<'_>,
    stats: &mut SearchStats,
    observer: &O,
) -> Result<ControlFlow<Termination, Option<Node>>, psens_hierarchy::Error> {
    let nodes = lattice.nodes_at_height(height);
    if tuning.effective_threads() == 1 {
        for node in nodes {
            let cc =
                match eval.check_cached(&node, check_stats, state, tuning.cache, true, observer)? {
                    ControlFlow::Break(cause) => return Ok(ControlFlow::Break(cause)),
                    ControlFlow::Continue(cc) => cc,
                };
            stats.record_cached(&cc);
            if cc.satisfied {
                return Ok(ControlFlow::Continue(Some(node)));
            }
        }
        return Ok(ControlFlow::Continue(None));
    }

    Ok(
        match probe_stratum_parallel(ectx, &nodes, check_stats, state, tuning, stats, observer)? {
            ControlFlow::Break(cause) => ControlFlow::Break(cause),
            ControlFlow::Continue(winner) => {
                ControlFlow::Continue(winner.map(|ix| nodes[ix].clone()))
            }
        },
    )
}

/// Chunk-level result of a parallel probe worker: the chunk's first
/// satisfier (as a stratum-wide node index), whether the budget tripped
/// mid-chunk, and the worker's private stats.
type ProbeChunk = Result<(Option<usize>, bool, SearchStats), psens_hierarchy::Error>;

/// Evaluates one stratum across `tuning.threads` scoped workers sharing the
/// budget, the observer, and (when present) the verdict store. Returns the
/// stratum index of the lexicographically first satisfier.
///
/// Fault isolation differs from the exhaustive scan's: a panicked chunk is
/// **re-run serially** on the calling thread instead of dropped, because a
/// lost chunk could hide the only satisfier at this height and unsoundly
/// extend the proven lower bound. The panic is still counted in
/// `worker_failures`; a deterministic panic simply resurfaces on the re-run.
fn probe_stratum_parallel<O: SearchObserver>(
    ectx: &EvalContext,
    nodes: &[Node],
    check_stats: &ConfidentialStats,
    state: &BudgetState,
    tuning: Tuning<'_>,
    stats: &mut SearchStats,
    observer: &O,
) -> Result<ControlFlow<Termination, Option<usize>>, psens_hierarchy::Error> {
    let chunk_size = nodes.len().div_ceil(tuning.effective_threads()).max(1);
    let cache = tuning.cache;
    // Each worker walks its chunk in node order and may stop at its first
    // in-chunk satisfier: the global minimum over chunk-first hits is the
    // stratum's lexicographically first satisfier, which is what the serial
    // probe returns.
    let run_chunk = |start: usize, chunk: &[Node]| -> ProbeChunk {
        let mut eval = ectx.evaluator();
        let mut part = SearchStats::default();
        let mut hit = None;
        let mut tripped = false;
        for (i, node) in chunk.iter().enumerate() {
            match eval.check_cached(node, check_stats, state, cache, true, observer)? {
                ControlFlow::Break(_) => {
                    tripped = true;
                    break;
                }
                ControlFlow::Continue(cc) => {
                    part.record_cached(&cc);
                    if cc.satisfied {
                        hit = Some(start + i);
                        break;
                    }
                }
            }
        }
        Ok((hit, tripped, part))
    };

    let partials: Vec<(usize, &[Node], Option<ProbeChunk>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks(chunk_size)
            .enumerate()
            .map(|(ci, chunk)| {
                let run_chunk = &run_chunk;
                let start = ci * chunk_size;
                let handle = scope
                    .spawn(move || catch_unwind(AssertUnwindSafe(|| run_chunk(start, chunk))).ok());
                (start, chunk, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(start, chunk, handle)| {
                let joined = handle.join().expect("worker panics are caught inside");
                (start, chunk, joined)
            })
            .collect()
    });

    let mut winner: Option<usize> = None;
    let mut any_tripped = false;
    for (start, chunk, partial) in partials {
        let outcome = match partial {
            Some(outcome) => outcome,
            None => {
                // Sound recovery: replay the lost chunk here, letting a
                // deterministic panic propagate the second time.
                stats.worker_failures += 1;
                run_chunk(start, chunk)
            }
        };
        let (hit, tripped, part) = outcome?;
        stats.merge(&part);
        any_tripped |= tripped;
        if let Some(ix) = hit {
            winner = Some(winner.map_or(ix, |w| w.min(ix)));
        }
    }
    if any_tripped {
        // An interrupted probe proves nothing about this height; the latched
        // cause is reported like a serial admission refusal.
        return Ok(ControlFlow::Break(state.termination()));
    }
    Ok(ControlFlow::Continue(winner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_datasets::hierarchies::figure2_qi_space;
    use psens_datasets::paper::figure3_microdata;

    /// The paper's Table 4: expected 3-minimal generalizations by TS.
    /// (Binary search returns *one* of them.)
    fn table4_expected(ts: usize) -> Vec<Node> {
        match ts {
            0 | 1 => vec![Node(vec![0, 2])],
            2..=6 => vec![Node(vec![0, 2]), Node(vec![1, 1])],
            7..=9 => vec![Node(vec![1, 0]), Node(vec![0, 1])],
            10 => vec![Node(vec![0, 0])],
            _ => unreachable!(),
        }
    }

    #[test]
    fn binary_search_reproduces_table4_heights() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for ts in 0..=10usize {
            let outcome = k_minimal_generalization(&im, &qi, 3, ts).unwrap();
            let node = outcome.node.expect("3-anonymity is achievable");
            let expected = table4_expected(ts);
            assert!(
                expected.contains(&node),
                "TS={ts}: got {node}, expected one of {expected:?}"
            );
            // All expected nodes share a height; ours must match it.
            assert_eq!(node.height(), expected[0].height(), "TS={ts}");
        }
    }

    #[test]
    fn masked_output_is_k_anonymous() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = k_minimal_generalization(&im, &qi, 3, 2).unwrap();
        let masked = outcome.masked.unwrap();
        let keys = masked.schema().key_indices();
        assert!(psens_core::is_k_anonymous(&masked, &keys, 3));
        assert!(outcome.suppressed <= 2);
    }

    #[test]
    fn pk_search_finds_sensitive_node() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        // p = 2: groups must carry >= 2 illnesses.
        for pruning in [Pruning::None, Pruning::NecessaryConditions] {
            let outcome = pk_minimal_generalization(&im, &qi, 2, 2, 0, pruning).unwrap();
            assert!(outcome.node.is_some(), "achievable");
            let masked = outcome.masked.unwrap();
            let keys = masked.schema().key_indices();
            let conf = masked.schema().confidential_indices();
            assert!(psens_core::is_p_sensitive_k_anonymous(
                &masked, &keys, &conf, 2, 2
            ));
        }
    }

    #[test]
    fn pruned_and_unpruned_agree_on_node_height() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for p in 1..=3u32 {
            for k in [2u32, 3] {
                for ts in [0usize, 2, 5] {
                    let a = pk_minimal_generalization(&im, &qi, p, k, ts, Pruning::None).unwrap();
                    let b =
                        pk_minimal_generalization(&im, &qi, p, k, ts, Pruning::NecessaryConditions)
                            .unwrap();
                    assert_eq!(
                        a.node.as_ref().map(Node::height),
                        b.node.as_ref().map(Node::height),
                        "p={p} k={k} ts={ts}"
                    );
                }
            }
        }
    }

    #[test]
    fn condition1_aborts_impossible_p() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        // Illness has 3 distinct values; p = 4 is impossible.
        let outcome =
            pk_minimal_generalization(&im, &qi, 4, 2, 0, Pruning::NecessaryConditions).unwrap();
        assert!(outcome.node.is_none());
        assert!(outcome.stats.aborted_condition1);
        assert_eq!(outcome.stats.nodes_evaluated, 0);
        // The unpruned search grinds through the lattice to learn the same.
        let outcome = pk_minimal_generalization(&im, &qi, 4, 2, 0, Pruning::None).unwrap();
        assert!(outcome.node.is_none());
        assert!(outcome.stats.nodes_evaluated > 0);
    }

    #[test]
    fn unsatisfiable_k_returns_none() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        // k = 11 with 10 tuples and TS = 0 cannot hold even at the top.
        let outcome = k_minimal_generalization(&im, &qi, 11, 0).unwrap();
        assert!(outcome.node.is_none());
    }

    #[test]
    fn stats_record_probes() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let outcome = k_minimal_generalization(&im, &qi, 3, 0).unwrap();
        assert!(!outcome.stats.heights_probed.is_empty());
        assert!(outcome.stats.nodes_evaluated >= 1);
    }

    #[test]
    fn completed_runs_prove_the_minimal_height() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        for ts in 0..=10usize {
            let outcome = k_minimal_generalization(&im, &qi, 3, ts).unwrap();
            assert_eq!(outcome.termination, Termination::Completed);
            assert_eq!(
                Some(outcome.proven_min_height),
                outcome.node.as_ref().map(Node::height),
                "TS={ts}"
            );
        }
        // Unsatisfiable: the bound walks past the lattice top.
        let outcome = k_minimal_generalization(&im, &qi, 11, 0).unwrap();
        assert_eq!(outcome.termination, Termination::Completed);
        assert_eq!(outcome.proven_min_height, qi.lattice().height() + 1);
    }

    #[test]
    fn node_budget_interrupts_with_a_sound_bound() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let full = k_minimal_generalization(&im, &qi, 3, 0).unwrap();
        let minimal_height = full.node.unwrap().height();
        for max_nodes in 0..full.stats.nodes_evaluated as u64 {
            let budget = SearchBudget::unlimited().with_max_nodes(max_nodes);
            let outcome = pk_minimal_generalization_budgeted(
                &im,
                &qi,
                1,
                3,
                0,
                Pruning::None,
                &budget,
                &NoopObserver,
            )
            .unwrap();
            assert_eq!(outcome.termination, Termination::NodeBudgetExhausted);
            assert!(outcome.stats.nodes_evaluated as u64 <= max_nodes);
            // The bound never overshoots the true answer, and any
            // best-so-far node genuinely satisfies.
            assert!(outcome.proven_min_height <= minimal_height);
            if let Some(masked) = &outcome.masked {
                let keys = masked.schema().key_indices();
                assert!(psens_core::is_k_anonymous(masked, &keys, 3));
            }
        }
    }

    #[test]
    fn cancelled_before_start_returns_cancelled() {
        let im = figure3_microdata();
        let qi = figure2_qi_space();
        let token = psens_core::CancelToken::new();
        token.cancel();
        let budget = SearchBudget::unlimited()
            .with_cancel(token)
            .with_check_interval(1);
        let outcome = pk_minimal_generalization_budgeted(
            &im,
            &qi,
            1,
            3,
            0,
            Pruning::None,
            &budget,
            &NoopObserver,
        )
        .unwrap();
        assert_eq!(outcome.termination, Termination::Cancelled);
        assert!(outcome.node.is_none());
        assert_eq!(outcome.proven_min_height, 0);
    }
}
