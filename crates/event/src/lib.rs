//! Simulation events, virtual time and the pending-event set.
//!
//! Discrete-event logic simulation revolves around *time-stamped messages*:
//! "a change in the output of an LP ... is communicated to the fanout LPs by
//! delivering a time stamped message" (Chamberlain, DAC '95 §II). This crate
//! defines:
//!
//! * [`VirtualTime`] — the simulated-time axis, a totally ordered tick
//!   counter with an *infinity* sentinel used by null-message and GVT
//!   computations,
//! * [`Event`] — a net-value change at a point in simulated time (each
//!   parallel kernel family wraps it in a wire type of its own),
//! * [`EventQueue`] — the pending-event-set contract, and [`BucketQueue`],
//!   its one implementation under every event-driven kernel (the
//!   sequential reference, the synchronous workers and the conservative
//!   LPs). The paper's §II names "event queue management" as a major
//!   component of simulation cost; the bucket queue pays it with one index
//!   lookup per pending timestamp instead of a sift per event.
//!
//! Every queue pops in `(time, net, insertion sequence)` order, which makes
//! every simulation kernel in the workspace bit-reproducible.
//!
//! [`BinaryHeapQueue`], [`CalendarQueue`] and [`PairingHeapQueue`] honour
//! the same contract but no kernel uses them: they remain only as the
//! baselines of the repository benchmark's `event.*_ns_per_op` rows.
//!
//! # Examples
//!
//! ```
//! use parsim_event::{BucketQueue, Event, EventQueue, VirtualTime};
//! use parsim_logic::Bit;
//! use parsim_netlist::GateId;
//!
//! let mut q = BucketQueue::new();
//! q.push(Event::new(VirtualTime::new(5), GateId::new(0), Bit::One));
//! q.push(Event::new(VirtualTime::new(2), GateId::new(1), Bit::Zero));
//! assert_eq!(q.peek_time(), Some(VirtualTime::new(2)));
//! assert_eq!(q.pop().unwrap().time, VirtualTime::new(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod calendar;
mod event;
mod pairing;
mod queue;
mod time;

pub use bucket::BucketQueue;
pub use calendar::CalendarQueue;
pub use event::Event;
pub use pairing::PairingHeapQueue;
pub use queue::{BinaryHeapQueue, EventQueue};
pub use time::VirtualTime;
