//! Graphviz DOT export.

use std::fmt::Write as _;

use parsim_logic::GateKind;

use crate::{Circuit, GateId};

/// Renders a circuit as a Graphviz `digraph`.
///
/// Primary inputs are house-shaped, sequential elements are double boxes,
/// combinational gates are plain boxes labelled with their function; primary
/// outputs get a bold border. An optional per-gate cluster assignment (for
/// example a partition's `block_of`) groups gates into Graphviz clusters —
/// the quickest way to *see* what a partitioning algorithm did.
///
/// # Examples
///
/// ```
/// use parsim_netlist::{bench, dot};
///
/// let c = bench::c17();
/// let text = dot::write_dot(&c, None);
/// assert!(text.starts_with("digraph"));
/// assert!(text.contains("NAND"));
/// ```
///
/// Public API: the Graphviz export a user runs on a circuit and its
/// partition; nothing in the workspace renders one itself.
pub fn write_dot(circuit: &Circuit, clusters: Option<&dyn Fn(GateId) -> usize>) -> String {
    write_dot_highlighted(circuit, clusters, &[])
}

/// Renders a circuit as a Graphviz `digraph` with a set of gates visually
/// flagged.
///
/// Identical to [`write_dot`], except that every gate in `highlights` is
/// filled red — the sites of lint diagnostics, the members of a cycle, the
/// endpoints of a cut edge. Duplicate ids in `highlights` are harmless.
///
/// # Examples
///
/// ```
/// use parsim_netlist::{bench, dot, GateId};
///
/// let c = bench::c17();
/// let text = dot::write_dot_highlighted(&c, None, &[GateId::new(0)]);
/// assert!(text.contains("fillcolor"));
/// ```
pub fn write_dot_highlighted(
    circuit: &Circuit,
    clusters: Option<&dyn Fn(GateId) -> usize>,
    highlights: &[GateId],
) -> String {
    let flagged: std::collections::HashSet<GateId> = highlights.iter().copied().collect();
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(circuit.name()));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [fontname=\"Helvetica\"];");

    let node = |id: GateId| -> String {
        let g = circuit.gate(id);
        let label = match g.name() {
            Some(n) => format!("{}\\n{}", escape(n), g.kind()),
            None => format!("{}\\n{}", id, g.kind()),
        };
        let shape = match g.kind() {
            GateKind::Input => "house",
            GateKind::Const0 | GateKind::Const1 => "circle",
            k if k.is_sequential() => "box3d",
            _ => "box",
        };
        let bold = if circuit.outputs().contains(&id) { ", penwidth=2" } else { "" };
        let mark = if flagged.contains(&id) {
            ", style=filled, fillcolor=\"#ffd6d6\", color=\"#c00000\""
        } else {
            ""
        };
        format!("  n{} [label=\"{label}\", shape={shape}{bold}{mark}];", id.index())
    };

    match clusters {
        Some(block_of) => {
            let mut blocks: std::collections::BTreeMap<usize, Vec<GateId>> = Default::default();
            for id in circuit.ids() {
                blocks.entry(block_of(id)).or_default().push(id);
            }
            for (b, members) in blocks {
                let _ = writeln!(out, "  subgraph cluster_{b} {{");
                let _ = writeln!(out, "    label=\"block {b}\";");
                for id in members {
                    let _ = writeln!(out, "  {}", node(id));
                }
                let _ = writeln!(out, "  }}");
            }
        }
        None => {
            for id in circuit.ids() {
                let _ = writeln!(out, "{}", node(id));
            }
        }
    }

    for id in circuit.ids() {
        for entry in circuit.fanout(id) {
            let _ = writeln!(out, "  n{} -> n{};", id.index(), entry.gate.index());
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    #[test]
    fn plain_export_structure() {
        let c = bench::c17();
        let text = write_dot(&c, None);
        assert!(text.starts_with("digraph \"c17\""));
        // 11 nodes, sum of fanouts edges.
        assert_eq!(text.matches("shape=").count(), 11);
        let edges: usize = c.ids().map(|id| c.fanout(id).len()).sum();
        assert_eq!(text.matches(" -> ").count(), edges);
        // Outputs bold, inputs house-shaped.
        assert_eq!(text.matches("penwidth=2").count(), 2);
        assert_eq!(text.matches("shape=house").count(), 5);
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn clustered_export_groups_blocks() {
        let c = bench::c17();
        let block = |id: GateId| id.index() % 3;
        let text = write_dot(&c, Some(&block));
        assert_eq!(text.matches("subgraph cluster_").count(), 3);
        assert!(text.contains("label=\"block 0\""));
    }

    #[test]
    fn highlighted_export_marks_only_sites() {
        let c = bench::c17();
        let sites = [GateId::new(3), GateId::new(7), GateId::new(7)];
        let text = write_dot_highlighted(&c, None, &sites);
        // Two distinct gates flagged, despite the duplicate id.
        assert_eq!(text.matches("fillcolor").count(), 2);
        assert!(text.contains("n3 [") && text.contains("n7 ["));
        // No highlights requested → no fill styling at all.
        assert!(!write_dot(&c, None).contains("fillcolor"));
    }
}
