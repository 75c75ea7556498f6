//! Shared analysis context handed to every lint pass.

use parsim_netlist::{Circuit, GateId, Levelization};
use parsim_partition::{GateWeights, Partition};

/// Everything a [`LintPass`](crate::LintPass) may inspect.
///
/// Owns the [`Levelization`], computed once for the passes that read levels
/// or a topological order, and optionally borrows a [`Partition`] plus the
/// [`GateWeights`] it was built for, enabling the partition-quality passes.
///
/// # Examples
///
/// ```
/// use parsim_lint::LintContext;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let ctx = LintContext::new(&c);
/// assert_eq!(ctx.levels().depth(), 3);
/// assert!(ctx.partition().is_none());
/// ```
#[derive(Debug)]
pub struct LintContext<'a> {
    circuit: &'a Circuit,
    levels: Levelization,
    partition: Option<&'a Partition>,
    weights: Option<&'a GateWeights>,
}

impl<'a> LintContext<'a> {
    /// Builds a context over a circuit alone (partition passes will skip).
    pub fn new(circuit: &'a Circuit) -> Self {
        LintContext { circuit, levels: Levelization::of(circuit), partition: None, weights: None }
    }

    /// Attaches a partition and the weights it was balanced against, enabling
    /// the partition-quality passes.
    ///
    /// # Panics
    ///
    /// Panics if the partition or the weights do not cover exactly the
    /// circuit's gates.
    #[must_use]
    pub fn with_partition(mut self, partition: &'a Partition, weights: &'a GateWeights) -> Self {
        assert_eq!(partition.len(), self.circuit.len(), "partition does not match circuit");
        assert_eq!(weights.len(), self.circuit.len(), "weights do not match circuit");
        self.partition = Some(partition);
        self.weights = Some(weights);
        self
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// Topological levels of the circuit, computed once per context.
    pub fn levels(&self) -> &Levelization {
        &self.levels
    }

    /// The partition under analysis, if any.
    pub fn partition(&self) -> Option<&'a Partition> {
        self.partition
    }

    /// The gate weights the partition was balanced against, if any.
    pub fn weights(&self) -> Option<&'a GateWeights> {
        self.weights
    }

    /// A gate's name, or its id rendering when unnamed — for messages.
    pub fn name_of(&self, id: GateId) -> String {
        match self.circuit.gate(id).name() {
            Some(n) => format!("\"{n}\""),
            None => id.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::bench;

    #[test]
    fn with_partition_enables_partition_data() {
        let c = bench::c17();
        let p = Partition::single_block(c.len());
        let w = GateWeights::uniform(c.len());
        let ctx = LintContext::new(&c).with_partition(&p, &w);
        assert_eq!(ctx.partition().unwrap().blocks(), 1);
        assert_eq!(ctx.weights().unwrap().total(), c.len() as f64);
    }

    #[test]
    #[should_panic(expected = "partition does not match circuit")]
    fn mismatched_partition_rejected() {
        let c = bench::c17();
        let p = Partition::single_block(3);
        let w = GateWeights::uniform(c.len());
        let _ = LintContext::new(&c).with_partition(&p, &w);
    }

    #[test]
    fn names_render_quoted_or_by_id() {
        let c = bench::c17();
        // Every c17 gate is named.
        assert!(ctx_name(&c, 0).starts_with('"'));
    }

    fn ctx_name(c: &Circuit, i: usize) -> String {
        LintContext::new(c).name_of(GateId::new(i))
    }
}
