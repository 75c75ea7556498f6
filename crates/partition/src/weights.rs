//! Per-gate computational weights.

use parsim_netlist::GateId;

/// Per-gate computational weights used for load balancing.
///
/// "The computational workload associated with each LP is a function of its
/// evaluation frequency" (§III). Structural partitioning assumes uniform
/// weights; *pre-simulation* measures real evaluation counts and feeds them
/// back in here (experiment E8).
///
/// Weights are non-negative; a zero-weight gate (e.g. a constant) costs
/// nothing wherever it is placed.
///
/// # Examples
///
/// ```
/// use parsim_partition::GateWeights;
/// use parsim_netlist::GateId;
///
/// // Counts are +1 smoothed so never-evaluated gates still carry cost.
/// let w = GateWeights::from_counts(vec![10, 0, 5]);
/// assert_eq!(w.weight(GateId::new(0)), 11.0);
/// assert_eq!(w.weight(GateId::new(1)), 1.0);
/// assert_eq!(w.total(), 18.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GateWeights {
    weights: Vec<f64>,
}

impl GateWeights {
    /// Uniform unit weights for `n` gates (structural partitioning).
    pub fn uniform(n: usize) -> Self {
        GateWeights { weights: vec![1.0; n] }
    }

    /// Weights from raw evaluation counts (pre-simulation output).
    ///
    /// Every weight gets `+1` smoothing so that gates that never evaluated
    /// during the profiling window still carry placement cost.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        GateWeights { weights: counts.into_iter().map(|c| c as f64 + 1.0).collect() }
    }

    /// Weights from arbitrary non-negative values.
    ///
    /// Public API: weights from a caller's own cost model
    /// ([`from_counts`](Self::from_counts) covers pre-simulation profiles);
    /// the partitioner suites use it for skewed weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn from_values(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "gate weights must be finite and non-negative"
        );
        GateWeights { weights }
    }

    /// The weight of one gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn weight(&self, id: GateId) -> f64 {
        self.weights[id.index()]
    }

    /// Number of gates covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns `true` if the weight vector is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Iterates over `(id, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, f64)> + '_ {
        self.weights.iter().enumerate().map(|(i, &w)| (GateId::new(i), w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_totals_n() {
        let w = GateWeights::uniform(7);
        assert_eq!(w.len(), 7);
        assert_eq!(w.total(), 7.0);
        assert!(!w.is_empty());
    }

    #[test]
    fn counts_are_smoothed() {
        let w = GateWeights::from_counts(vec![0, 9]);
        assert_eq!(w.weight(GateId::new(0)), 1.0);
        assert_eq!(w.weight(GateId::new(1)), 10.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        GateWeights::from_values(vec![1.0, -2.0]);
    }

    #[test]
    fn iter_pairs() {
        let w = GateWeights::from_values(vec![2.0, 3.0]);
        let pairs: Vec<_> = w.iter().collect();
        assert_eq!(pairs, vec![(GateId::new(0), 2.0), (GateId::new(1), 3.0)]);
    }
}
