//! Greedy p-k clustering — the masking algorithm of the authors' follow-up
//! paper (Campan & Truta, *Generating Microdata with P-Sensitive K-Anonymity
//! Property*), which the conclusions of the ICDE 2006 paper announce as
//! future work.
//!
//! Instead of searching the full-domain lattice, the records themselves are
//! clustered: each cluster must reach size `k` *and* `p` distinct values of
//! every confidential attribute, growing greedily by QI similarity — except
//! that while a cluster's sensitivity is still deficient, the nearest record
//! contributing a **new** value of a deficient attribute is preferred. Each
//! finished cluster is locally recoded to its extent, like Mondrian.

use crate::recode::recode_partitions;
use psens_core::observe::{elapsed_since, start_timer};
use psens_core::{NoopObserver, SearchBudget, SearchObserver, Termination};
use psens_microdata::hash::FxHashSet;
use psens_microdata::{Column, Table, Value};
use serde::Serialize;

/// Configuration for the greedy clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GreedyClusterConfig {
    /// Minimum cluster size (k-anonymity).
    pub k: u32,
    /// Minimum distinct values of every confidential attribute per cluster.
    pub p: u32,
}

/// Why the clustering could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Condition 1 fails: a confidential attribute has fewer than `p`
    /// distinct values overall.
    ImpossibleP {
        /// The offending attribute's name.
        attribute: String,
        /// Its overall distinct count.
        distinct: usize,
    },
    /// Fewer than `k` rows in total.
    TooFewRows {
        /// Rows available.
        rows: usize,
    },
    /// No complete cluster could be formed (the distribution is too skewed
    /// for these `p`/`k` even though Condition 1 holds).
    NoClusterFormed,
    /// The search budget tripped before the first complete cluster existed —
    /// there is no partial result to return.
    Interrupted(Termination),
    /// Rebuilding the masked table failed (malformed input table).
    Recode(psens_microdata::Error),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ImpossibleP {
                attribute,
                distinct,
            } => write!(
                f,
                "attribute `{attribute}` has only {distinct} distinct values"
            ),
            ClusterError::TooFewRows { rows } => {
                write!(f, "only {rows} rows available")
            }
            ClusterError::NoClusterFormed => {
                write!(f, "no cluster satisfying the constraints could be formed")
            }
            ClusterError::Interrupted(cause) => {
                write!(f, "interrupted ({cause}) before any cluster was complete")
            }
            ClusterError::Recode(err) => write!(f, "recoding the clusters failed: {err}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<psens_microdata::Error> for ClusterError {
    fn from(err: psens_microdata::Error) -> Self {
        ClusterError::Recode(err)
    }
}

/// Result of the greedy clustering.
#[derive(Debug, Clone)]
pub struct GreedyClusterOutcome {
    /// The locally-recoded masked table (identifiers dropped).
    pub masked: Table,
    /// Row index sets of the final clusters.
    pub partitions: Vec<Vec<usize>>,
    /// Rows that could not seed or complete a cluster and were merged into
    /// their nearest finished cluster.
    pub leftovers_merged: usize,
    /// How the run ended. An interrupted run stops forming new clusters and
    /// merges every remaining row into its nearest finished cluster, so the
    /// output still covers all rows and still satisfies the property —
    /// clusters are just fewer and larger than a completed run's.
    pub termination: Termination,
}

/// Per-row QI coordinates used for similarity: numeric attributes normalized
/// to `[0, 1]` by range, categorical attributes kept as dense codes with 0/1
/// mismatch distance. Missing numeric values stay `None` — they must not
/// enter the min/max normalization, and a present/missing pair counts as a
/// maximal (1.0) mismatch rather than pretending the missing value is 0.
struct QiSpaceView {
    numeric: Vec<Vec<Option<f64>>>,
    categorical: Vec<Vec<u32>>,
}

impl QiSpaceView {
    fn build(table: &Table, keys: &[usize]) -> QiSpaceView {
        let mut numeric = Vec::new();
        let mut categorical = Vec::new();
        for &attr in keys {
            let column = table.column(attr);
            match column {
                Column::Int(_) => {
                    let values: Vec<Option<f64>> = (0..table.n_rows())
                        .map(|r| column.value(r).as_int().map(|v| v as f64))
                        .collect();
                    let present = values.iter().flatten();
                    let lo = present.clone().fold(f64::INFINITY, |m, &v| m.min(v));
                    let hi = present.fold(f64::NEG_INFINITY, |m, &v| m.max(v));
                    let range = (hi - lo).max(1e-12);
                    numeric.push(
                        values
                            .into_iter()
                            .map(|v| v.map(|v| (v - lo) / range))
                            .collect(),
                    );
                }
                Column::Cat(_) => {
                    let (codes, _) = column.dense_codes();
                    categorical.push(codes);
                }
            }
        }
        QiSpaceView {
            numeric,
            categorical,
        }
    }

    /// Distance between two rows: L1 over normalized numerics plus 0/1 per
    /// categorical mismatch. Two missing values agree (0); a present/missing
    /// pair is a maximal mismatch (1, the width of the normalized range).
    fn distance(&self, a: usize, b: usize) -> f64 {
        let mut d = 0.0;
        for col in &self.numeric {
            d += match (col[a], col[b]) {
                (Some(x), Some(y)) => (x - y).abs(),
                (None, None) => 0.0,
                _ => 1.0,
            };
        }
        for col in &self.categorical {
            d += f64::from(col[a] != col[b]);
        }
        d
    }

    /// Average distance from `row` to the members of `cluster`.
    fn distance_to_cluster(&self, row: usize, cluster: &[usize]) -> f64 {
        cluster
            .iter()
            .map(|&member| self.distance(row, member))
            .sum::<f64>()
            / cluster.len() as f64
    }
}

/// Tracks how many distinct values of each confidential attribute a growing
/// cluster has, and which values.
struct SensitivityTracker<'a> {
    columns: Vec<&'a Column>,
    seen: Vec<FxHashSet<Value>>,
    p: usize,
}

impl<'a> SensitivityTracker<'a> {
    fn new(table: &'a Table, confidential: &[usize], p: u32) -> Self {
        SensitivityTracker {
            columns: confidential.iter().map(|&a| table.column(a)).collect(),
            seen: vec![FxHashSet::default(); confidential.len()],
            p: p as usize,
        }
    }

    fn add(&mut self, row: usize) {
        for (column, seen) in self.columns.iter().zip(&mut self.seen) {
            seen.insert(column.value(row));
        }
    }

    fn satisfied(&self) -> bool {
        self.seen.iter().all(|s| s.len() >= self.p)
    }

    /// True when `row` contributes a new value to some deficient attribute.
    fn helps(&self, row: usize) -> bool {
        self.columns
            .iter()
            .zip(&self.seen)
            .any(|(column, seen)| seen.len() < self.p && !seen.contains(&column.value(row)))
    }

    fn reset(&mut self) {
        for seen in &mut self.seen {
            seen.clear();
        }
    }
}

/// Runs greedy p-k clustering over `initial`, using its schema's roles.
pub fn greedy_pk_cluster(
    initial: &Table,
    config: GreedyClusterConfig,
) -> Result<GreedyClusterOutcome, ClusterError> {
    greedy_pk_cluster_observed(initial, config, &NoopObserver)
}

/// [`greedy_pk_cluster`], reporting each finished cluster (row count and
/// build time) to `observer`. With a [`NoopObserver`] this monomorphizes to
/// the unobserved run.
pub fn greedy_pk_cluster_observed<O: SearchObserver>(
    initial: &Table,
    config: GreedyClusterConfig,
    observer: &O,
) -> Result<GreedyClusterOutcome, ClusterError> {
    greedy_pk_cluster_budgeted(initial, config, &SearchBudget::unlimited(), observer)
}

/// [`greedy_pk_cluster_observed`] under a [`SearchBudget`]. Each record
/// assignment (seed or growth step) draws one coarse budget unit — every
/// assignment scans the unassigned pool, so the deadline and cancel token
/// are polled on each. A trip after the first complete cluster yields the
/// anytime result described on [`GreedyClusterOutcome::termination`]; a trip
/// before it is [`ClusterError::Interrupted`].
pub fn greedy_pk_cluster_budgeted<O: SearchObserver>(
    initial: &Table,
    config: GreedyClusterConfig,
    budget: &SearchBudget,
    observer: &O,
) -> Result<GreedyClusterOutcome, ClusterError> {
    let table = initial.clone().drop_identifiers();
    let keys = table.schema().key_indices();
    let confidential = table.schema().confidential_indices();
    let n = table.n_rows();
    let k = config.k.max(1) as usize;

    if n < k {
        return Err(ClusterError::TooFewRows { rows: n });
    }
    // Condition 1, reused from the paper.
    for &attr in &confidential {
        let distinct = table.column(attr).n_distinct();
        if distinct < config.p as usize {
            return Err(ClusterError::ImpossibleP {
                attribute: table.schema().attribute(attr).name().to_owned(),
                distinct,
            });
        }
    }

    let view = QiSpaceView::build(&table, &keys);
    let state = budget.start();
    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut tracker = SensitivityTracker::new(&table, &confidential, config.p);

    'clusters: while unassigned.len() >= k {
        if state.admit_coarse().is_err() {
            break 'clusters;
        }
        let timer = start_timer::<O>();
        // Seed: the unassigned record farthest from the previous cluster
        // (spreads clusters out); the first cluster seeds from the front.
        let seed_pos = match clusters.last() {
            Some(last) => unassigned
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| {
                    view.distance_to_cluster(a, last)
                        .total_cmp(&view.distance_to_cluster(b, last))
                })
                .map(|(pos, _)| pos)
                .expect("nonempty"),
            None => 0,
        };
        let seed = unassigned.swap_remove(seed_pos);
        tracker.reset();
        tracker.add(seed);
        let mut cluster = vec![seed];

        while cluster.len() < k || !tracker.satisfied() {
            if unassigned.is_empty() {
                break;
            }
            if state.admit_coarse().is_err() {
                // Return the partial cluster's rows and stop clustering.
                unassigned.extend(cluster);
                break 'clusters;
            }
            // While sensitivity is deficient, prefer the nearest record that
            // adds a new value of a deficient attribute.
            let candidate_pos = if !tracker.satisfied() {
                let helpful = unassigned
                    .iter()
                    .enumerate()
                    .filter(|(_, &row)| tracker.helps(row))
                    .min_by(|(_, &a), (_, &b)| {
                        view.distance_to_cluster(a, &cluster)
                            .total_cmp(&view.distance_to_cluster(b, &cluster))
                    })
                    .map(|(pos, _)| pos);
                // `None` here means no record can raise diversity: the
                // cluster can never satisfy p — abandon it below.
                helpful
            } else {
                unassigned
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        view.distance_to_cluster(a, &cluster)
                            .total_cmp(&view.distance_to_cluster(b, &cluster))
                    })
                    .map(|(pos, _)| pos)
            };
            let Some(pos) = candidate_pos else {
                break;
            };
            let row = unassigned.swap_remove(pos);
            tracker.add(row);
            cluster.push(row);
        }

        if cluster.len() >= k && tracker.satisfied() {
            if O::ENABLED {
                observer.partition_finalized(cluster.len(), elapsed_since(timer));
            }
            clusters.push(cluster);
        } else {
            // Incomplete: return its rows to the leftover pool and stop —
            // the remaining unassigned records cannot form a cluster either
            // (the greedy exhausted every helpful record).
            unassigned.extend(cluster);
            break;
        }
    }

    let termination = state.termination();
    if clusters.is_empty() {
        return Err(if termination.is_complete() {
            ClusterError::NoClusterFormed
        } else {
            ClusterError::Interrupted(termination)
        });
    }

    // Leftovers join their nearest cluster; size and diversity only grow.
    let leftovers_merged = unassigned.len();
    for row in unassigned {
        let best = (0..clusters.len())
            .min_by(|&a, &b| {
                view.distance_to_cluster(row, &clusters[a])
                    .total_cmp(&view.distance_to_cluster(row, &clusters[b]))
            })
            .expect("clusters nonempty");
        clusters[best].push(row);
    }
    for cluster in &mut clusters {
        cluster.sort_unstable();
    }
    clusters.sort_by_key(|c| c[0]);

    let masked = recode_partitions(&table, &keys, &clusters)?;
    Ok(GreedyClusterOutcome {
        masked,
        partitions: clusters,
        leftovers_merged,
        termination,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psens_core::is_p_sensitive_k_anonymous;
    use psens_datasets::paper::figure3_microdata;
    use psens_datasets::AdultGenerator;

    #[test]
    fn output_satisfies_the_property() {
        let im = AdultGenerator::new(61).generate(400);
        let outcome = greedy_pk_cluster(&im, GreedyClusterConfig { k: 4, p: 2 }).unwrap();
        let keys = outcome.masked.schema().key_indices();
        let conf = outcome.masked.schema().confidential_indices();
        assert!(is_p_sensitive_k_anonymous(
            &outcome.masked,
            &keys,
            &conf,
            2,
            4
        ));
        assert_eq!(outcome.masked.n_rows(), 400, "no suppression");
    }

    #[test]
    fn partitions_are_a_disjoint_cover() {
        let im = AdultGenerator::new(62).generate(300);
        let outcome = greedy_pk_cluster(&im, GreedyClusterConfig { k: 5, p: 2 }).unwrap();
        let mut seen = vec![false; 300];
        for cluster in &outcome.partitions {
            assert!(cluster.len() >= 5);
            for &row in cluster {
                assert!(!seen[row]);
                seen[row] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn works_on_the_paper_fixture() {
        let im = figure3_microdata();
        let outcome = greedy_pk_cluster(&im, GreedyClusterConfig { k: 2, p: 2 }).unwrap();
        let keys = outcome.masked.schema().key_indices();
        let conf = outcome.masked.schema().confidential_indices();
        assert!(is_p_sensitive_k_anonymous(
            &outcome.masked,
            &keys,
            &conf,
            2,
            2
        ));
    }

    #[test]
    fn impossible_p_is_rejected_up_front() {
        let im = AdultGenerator::new(63).generate(100);
        // Pay has 2 distinct values.
        let err = greedy_pk_cluster(&im, GreedyClusterConfig { k: 2, p: 3 }).unwrap_err();
        assert!(matches!(err, ClusterError::ImpossibleP { .. }));
        assert!(err.to_string().contains("distinct"));
    }

    #[test]
    fn too_few_rows_is_rejected() {
        let im = AdultGenerator::new(64).generate(3);
        let err = greedy_pk_cluster(&im, GreedyClusterConfig { k: 10, p: 1 }).unwrap_err();
        assert!(matches!(err, ClusterError::TooFewRows { rows: 3 }));
    }

    #[test]
    fn interrupted_run_still_satisfies_the_property() {
        let im = AdultGenerator::new(66).generate(400);
        let config = GreedyClusterConfig { k: 4, p: 2 };
        let full = greedy_pk_cluster(&im, config).unwrap();
        assert_eq!(full.termination, Termination::Completed);
        // Enough budget for a few clusters, nowhere near all of them.
        let budget = SearchBudget::unlimited().with_max_nodes(30);
        let outcome = greedy_pk_cluster_budgeted(&im, config, &budget, &NoopObserver).unwrap();
        assert_eq!(outcome.termination, Termination::NodeBudgetExhausted);
        assert!(outcome.partitions.len() < full.partitions.len());
        // All rows covered, property intact (merging only grows clusters).
        let keys = outcome.masked.schema().key_indices();
        let conf = outcome.masked.schema().confidential_indices();
        assert!(is_p_sensitive_k_anonymous(
            &outcome.masked,
            &keys,
            &conf,
            2,
            4
        ));
        assert_eq!(outcome.masked.n_rows(), 400);
    }

    #[test]
    fn budget_too_small_for_one_cluster_is_interrupted() {
        let im = AdultGenerator::new(67).generate(100);
        let budget = SearchBudget::unlimited().with_max_nodes(2);
        let err = greedy_pk_cluster_budgeted(
            &im,
            GreedyClusterConfig { k: 10, p: 2 },
            &budget,
            &NoopObserver,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::Interrupted(Termination::NodeBudgetExhausted)
        ));
    }

    #[test]
    fn finer_than_mondrian_or_comparable() {
        // Both local recoders must beat full-domain generalization on group
        // count; greedy clustering usually lands near n / k clusters.
        let im = AdultGenerator::new(65).generate(500);
        let greedy = greedy_pk_cluster(&im, GreedyClusterConfig { k: 5, p: 2 }).unwrap();
        // Clusters average a few multiples of k: the skewed confidential
        // attributes (CapitalGain is ~92% zero) force growth beyond k, but
        // nothing like the single-digit group counts of full-domain nodes.
        assert!(
            greedy.partitions.len() >= 500 / (5 * 5),
            "{} clusters is suspiciously coarse",
            greedy.partitions.len()
        );
    }
}
