//! Value Change Dump (VCD) export.
//!
//! VCD (IEEE 1364) is the interchange format every waveform viewer reads;
//! a logic simulator without it is not usable for real design verification.
//! [`write_vcd`] renders the observed waveforms of a [`SimOutcome`] for any
//! value system (the four-state characters `0 1 x z` cover Logic4; IEEE
//! 1164 states outside that set degrade to `x`/`z` per common practice).

use std::fmt::Write as _;

use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_netlist::{Circuit, GateId};

use crate::SimOutcome;

/// Maps a logic value onto the VCD four-state alphabet.
fn vcd_char<V: LogicValue>(v: V) -> char {
    match v.to_bool() {
        Some(false) => '0',
        Some(true) => '1',
        None => {
            if v == V::HIGH_Z {
                'z'
            } else {
                'x'
            }
        }
    }
}

/// Produces a VCD identifier for the `n`-th variable (the printable-ASCII
/// base-94 code the format prescribes).
fn vcd_id(mut n: usize) -> String {
    let mut id = String::new();
    loop {
        id.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    id
}

/// Renders the observed waveforms of `outcome` as VCD text.
///
/// Variables are named after their driving gates (synthetic `gN` names for
/// anonymous gates), scoped under the circuit name. The timescale is
/// nominal (`1ns` per tick).
///
/// # Examples
///
/// ```
/// use parsim_core::{write_vcd, Observe, SequentialSimulator, Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Logic4;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let out = SequentialSimulator::<Logic4>::new()
///     .with_observe(Observe::Outputs)
///     .run(&c, &Stimulus::counting(10), VirtualTime::new(100));
/// let vcd = write_vcd(&c, &out);
/// assert!(vcd.contains("$enddefinitions"));
/// assert!(vcd.contains("#0"));
/// ```
pub fn write_vcd<V: LogicValue>(circuit: &Circuit, outcome: &SimOutcome<V>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$comment parsim dump of {} $end", circuit.name());
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module {} $end", sanitize(circuit.name()));

    let vars: Vec<(GateId, String)> =
        outcome.waveforms.keys().enumerate().map(|(i, &id)| (id, vcd_id(i))).collect();
    for (id, code) in &vars {
        let name = circuit.gate(*id).name().map_or_else(|| format!("g{}", id.index()), sanitize);
        let _ = writeln!(out, "$var wire 1 {code} {name} $end");
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Merge all transitions into one time-ordered stream.
    let mut stream: Vec<(VirtualTime, usize, char)> = Vec::new();
    for (slot, (id, _)) in vars.iter().enumerate() {
        for &(t, v) in outcome.waveforms[id].transitions() {
            stream.push((t, slot, vcd_char(v)));
        }
    }
    stream.sort_by_key(|&(t, slot, _)| (t, slot));

    let mut current: Option<VirtualTime> = None;
    for (t, slot, ch) in stream {
        if current != Some(t) {
            let _ = writeln!(out, "#{}", t.ticks());
            current = Some(t);
        }
        let _ = writeln!(out, "{ch}{}", vars[slot].1);
    }
    let _ = writeln!(out, "#{}", outcome.end_time.ticks());
    out
}

/// Parses a VCD dump back into named Boolean value changes, suitable for
/// [`Stimulus::replay`](crate::Stimulus::replay).
///
/// Only `0`/`1` scalar changes are returned (`x`/`z` carry no Boolean value
/// to drive an input with); variables keep the names declared in the
/// `$var` section.
///
/// Public API: the reader half of [`write_vcd`]; a dump read back drives
/// [`Stimulus::replay`](crate::Stimulus::replay), as the example shows.
///
/// # Examples
///
/// ```
/// use parsim_core::{parse_vcd_changes, write_vcd, Observe, SequentialSimulator,
///     Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Logic4;
/// use parsim_netlist::bench;
///
/// // Dump a run, replay its inputs: the replayed run is identical.
/// let c = bench::c17();
/// let sim = SequentialSimulator::<Logic4>::new().with_observe(Observe::AllNets);
/// let until = VirtualTime::new(120);
/// let original = sim.run(&c, &Stimulus::counting(10), until);
/// let replayed = sim.run(
///     &c,
///     &Stimulus::replay(parse_vcd_changes(&write_vcd(&c, &original))),
///     until,
/// );
/// assert_eq!(replayed.divergence_from(&original), None);
/// ```
pub fn parse_vcd_changes(text: &str) -> Vec<(u64, String, bool)> {
    let mut names: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut changes = Vec::new();
    let mut in_defs = true;
    let mut now = 0u64;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if in_defs {
            if line.starts_with("$var") {
                // $var wire 1 <id> <name> $end
                let fields: Vec<&str> = line.split_whitespace().collect();
                if fields.len() >= 5 {
                    names.insert(fields[3].to_owned(), fields[4].to_owned());
                }
            } else if line.starts_with("$enddefinitions") {
                in_defs = false;
            }
            continue;
        }
        if let Some(ts) = line.strip_prefix('#') {
            if let Ok(t) = ts.parse() {
                now = t;
            }
        } else if let Some(value) = match line.chars().next() {
            Some('0') => Some(false),
            Some('1') => Some(true),
            _ => None,
        } {
            let id = &line[1..];
            if let Some(name) = names.get(id) {
                changes.push((now, name.clone(), value));
            }
        }
    }
    changes
}

/// VCD identifiers must not contain whitespace; replace offenders.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Observe, SequentialSimulator, Simulator, Stimulus};
    use parsim_logic::{Logic4, Std9};
    use parsim_netlist::bench;

    #[test]
    fn ids_are_printable_and_unique() {
        let ids: Vec<String> = (0..500).map(vcd_id).collect();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        assert!(ids.iter().all(|id| id.chars().all(|c| ('!'..='~').contains(&c))));
        assert_eq!(vcd_id(0), "!");
        assert_eq!(vcd_id(94), "!\"");
    }

    #[test]
    fn four_state_mapping() {
        assert_eq!(vcd_char(Logic4::Zero), '0');
        assert_eq!(vcd_char(Logic4::One), '1');
        assert_eq!(vcd_char(Logic4::X), 'x');
        assert_eq!(vcd_char(Logic4::Z), 'z');
        assert_eq!(vcd_char(Std9::W), 'x');
        assert_eq!(vcd_char(Std9::H), '1');
        assert_eq!(vcd_char(Std9::L), '0');
        assert_eq!(vcd_char(Std9::Z), 'z');
    }

    #[test]
    fn dump_structure() {
        let c = bench::c17();
        let out = SequentialSimulator::<Logic4>::new().with_observe(Observe::Outputs).run(
            &c,
            &Stimulus::counting(10),
            VirtualTime::new(120),
        );
        let vcd = write_vcd(&c, &out);
        // Header pieces in order.
        let defs = vcd.find("$enddefinitions").expect("definitions section");
        assert!(vcd.find("$var wire 1").expect("var decls") < defs);
        // Two observed outputs → two vars.
        assert_eq!(vcd.matches("$var wire").count(), 2);
        // Timestamps strictly increase.
        let mut last = -1i64;
        for line in vcd.lines().filter(|l| l.starts_with('#')) {
            let t: i64 = line[1..].parse().expect("timestamp");
            assert!(t >= last, "timestamps must be non-decreasing");
            last = t;
        }
        // Initial values at #0.
        assert!(vcd.contains("#0\n"));
    }
}
