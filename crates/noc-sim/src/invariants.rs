//! Opt-in runtime invariant checking for the simulation engine.
//!
//! The checker maintains a *redundant* set of books alongside the
//! simulator's own accounting — message counts, per-(buffer, VC) credit
//! reservations, delivered-packet identities — and cross-checks the two
//! every cycle. Any divergence is recorded as a structured
//! [`InvariantViolation`] (never a panic), so a conformance sweep can run
//! thousands of randomized scenarios and report every failure with enough
//! context to reproduce it.
//!
//! The checker is held behind an `Option` on [`crate::Simulator`], exactly
//! like the fault runtime: with the checker disabled the simulator takes
//! the same branches it always did and is bit-identical to a build without
//! this module.
//!
//! Checked invariants (see ARCHITECTURE.md for the recipe to add one):
//!
//! * **Message conservation** — every created packet is delivered, in
//!   flight, or still queued at its source: `created = delivered +
//!   in-flight + queued`, where fault-dropped transmissions keep their
//!   packet queued (transient faults corrupt the wire, not the buffer).
//! * **Counter agreement** — the simulator's [`crate::SimStats`] counters
//!   match the checker's independently maintained ones.
//! * **Credit conservation** — each input VC's `reserved_flits` equals the
//!   reservations the checker observed (grants + fault reserves − arrivals
//!   − reconciliations) for that exact buffer.
//! * **No duplicate delivery** — a packet id is delivered at most once.
//! * **Per-flow in-order delivery** — under any deterministic routing kind
//!   (X-Y, torus dimension-order, ring traversal, shortest-path table),
//!   packets of the same (source, destination, vnet) flow are delivered in
//!   creation order (adaptive routing may legitimately reorder, so the
//!   check is keyed off [`crate::RoutingKind::is_deterministic`]).
//! * **Occupancy bounds** — `used + reserved ≤ capacity` against the *raw*
//!   buffer capacity, even while the advertised credit is squeezed by a
//!   VC-shrink fault or a [`crate::BufferController`] withhold (both
//!   learned decision points — arbitration and buffer control — are
//!   audited by the same books), and `used_flits` equals the flits of the
//!   packets actually queued.
//! * **Age monotonicity** — arrival cycles are non-decreasing from head to
//!   tail of every VC (FIFO order), and never in the future.

use std::collections::HashMap;

use crate::buffer::VcBufArray;
use crate::packet::Packet;
use crate::stats::SimStats;

/// Cap on *recorded* violations, so a systematically broken run cannot
/// balloon memory; [`InvariantChecker::total_violations`] keeps counting
/// past the cap.
const MAX_RECORDED: usize = 64;

/// What went wrong, with the numbers that disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// `created != delivered + in_flight + queued` over the whole run.
    MessageConservation {
        /// Packets created since the simulation started (checker's count).
        created: u64,
        /// Packets delivered since the simulation started (checker's count).
        delivered: u64,
        /// Packets inside the network at the time of the check.
        in_flight: u64,
        /// Packets waiting in source injection queues.
        queued: u64,
    },
    /// A [`crate::SimStats`] counter disagrees with the checker's
    /// independently maintained count (both relative to the last
    /// [`crate::Simulator::reset_stats`]).
    CounterDrift {
        /// Name of the drifting counter.
        counter: &'static str,
        /// The simulator's value.
        simulator: u64,
        /// The checker's value.
        checker: u64,
    },
    /// A packet id was delivered more than once.
    DuplicateDelivery {
        /// The twice-delivered packet id.
        packet_id: u64,
    },
    /// A packet of a (src, dst, vnet) flow was delivered before an earlier
    /// packet of the same flow (only checked under deterministic routing).
    OutOfOrderDelivery {
        /// The packet that arrived out of order.
        packet_id: u64,
        /// The later-created flow member that was delivered first.
        after_id: u64,
    },
    /// A buffer's `reserved_flits` does not equal the reservations the
    /// checker observed for it (a credit leak or double-return).
    CreditMismatch {
        /// Reserved flits the checker expected (negative = more returns
        /// than reservations were observed).
        expected: i64,
        /// Reserved flits the buffer actually reports.
        actual: u32,
    },
    /// A buffer holds more flits (stored + promised) than its capacity.
    BufferOverflow {
        /// Stored flits.
        used: u32,
        /// Reserved (promised) flits.
        reserved: u32,
        /// Hardware capacity in flits.
        capacity: u32,
    },
    /// A buffer's incremental `used_flits` count disagrees with the flits
    /// of the packets actually in its queue.
    OccupancyMismatch {
        /// The buffer's incremental count.
        used: u32,
        /// Sum of queued packet lengths.
        queued: u32,
    },
    /// Arrival cycles regress from head to tail of a VC queue (FIFO order
    /// broken), or an arrival is stamped in the future.
    AgeRegression {
        /// Arrival cycle of the earlier (closer to head) packet.
        earlier: u64,
        /// Arrival cycle of the later packet (or the current cycle, when a
        /// future-stamped arrival is reported).
        later: u64,
    },
    /// More fault credits were reconciled than were ever reserved.
    FaultCreditImbalance {
        /// Credits reserved by fault-corrupted transmissions.
        reserved: u64,
        /// Credits returned by reconciliation messages.
        reconciled: u64,
    },
    /// A response-class message was delivered with no live transaction to
    /// receive it (the request it answers was never issued, or the
    /// transaction already dissolved). Reported by the `apu-sim` engine
    /// checker.
    ResponseWithoutRequest {
        /// Transaction tag carried by the orphaned message.
        tag: u64,
        /// Virtual-network index the message arrived on.
        vnet: usize,
    },
    /// A message arrived on a virtual network that its transaction's state
    /// machine cannot accept. Reported by the `apu-sim` engine checker.
    ProtocolViolation {
        /// Human-readable description of the illegal (vnet, txn) pairing.
        detail: String,
    },
    /// Per-virtual-network conservation failed: messages sent into the
    /// network on a vnet do not match messages delivered from it (plus
    /// any still in flight at the horizon). Reported by the `apu-sim`
    /// engine checker.
    VnetConservation {
        /// Virtual-network index.
        vnet: usize,
        /// Messages the engine handed to the simulator on this vnet.
        sent: u64,
        /// Messages the simulator delivered on this vnet.
        delivered: u64,
    },
}

/// One invariant failure: where and when it was detected, and the numbers
/// that disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Simulation cycle at which the violation was detected.
    pub cycle: u64,
    /// Where it was detected (a buffer coordinate, or `"global"`).
    pub location: String,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {} at {}: {:?}", self.cycle, self.location, self.kind)
    }
}

/// Simulation-level error: the invariant checker found violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// One or more invariants were violated during the run. The vector is
    /// capped (see [`InvariantChecker::total_violations`] for the full
    /// count) and ordered by detection cycle.
    InvariantsViolated(Vec<InvariantViolation>),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvariantsViolated(vs) => {
                write!(f, "{} invariant violation(s)", vs.len())?;
                if let Some(first) = vs.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The mutable portion of an [`InvariantChecker`], lifted out for simulator
/// checkpoints. Field order mirrors the checker itself; `last_in_flow` is a
/// sorted vector so the snapshot (and therefore the checkpoint hash) is
/// deterministic regardless of `HashMap` iteration order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckerSnapshot {
    pub(crate) created: u64,
    pub(crate) delivered: u64,
    pub(crate) created_at_reset: u64,
    pub(crate) delivered_at_reset: u64,
    pub(crate) fault_reserved: u64,
    pub(crate) fault_reconciled: u64,
    pub(crate) fault_reserved_at_reset: u64,
    pub(crate) fault_reconciled_at_reset: u64,
    pub(crate) delivered_ids: Vec<u64>,
    pub(crate) last_in_flow: Vec<(u64, u64, u64, u64)>,
    pub(crate) expected_reserved: Vec<i64>,
}

/// The redundant bookkeeper. Owned by [`crate::Simulator`] behind an
/// `Option`; every method is a no-op cost when the option is `None`
/// because the simulator never calls in.
#[derive(Debug)]
pub struct InvariantChecker {
    ports: usize,
    vnets: usize,
    /// In-order delivery is only guaranteed under deterministic routing.
    check_order: bool,
    /// Whole-run message counts (never reset).
    created: u64,
    delivered: u64,
    /// Snapshot of the whole-run counts at the last `reset_stats`, so the
    /// checker can compare deltas against the (resettable) [`SimStats`].
    created_at_reset: u64,
    delivered_at_reset: u64,
    /// Whole-run fault-credit flow (never reset), plus reset snapshots.
    fault_reserved: u64,
    fault_reconciled: u64,
    fault_reserved_at_reset: u64,
    fault_reconciled_at_reset: u64,
    /// Bitmap over delivered packet ids (ids are dense from 0).
    delivered_ids: Vec<u64>,
    /// Last delivered packet id per (src, dst, vnet) flow.
    last_in_flow: HashMap<(usize, usize, usize), u64>,
    /// Reserved flits the checker expects per buffer slot
    /// `(router * ports + in_port) * vnets + vnet`; `i64` so a
    /// double-return shows up as a negative expectation instead of
    /// wrapping.
    expected_reserved: Vec<i64>,
    violations: Vec<InvariantViolation>,
    total_violations: u64,
}

impl InvariantChecker {
    /// A checker sized for `num_routers` routers of `ports` ports and
    /// `vnets` virtual networks. `check_order` enables the per-flow
    /// in-order delivery check (deterministic routing only).
    pub fn new(num_routers: usize, ports: usize, vnets: usize, check_order: bool) -> Self {
        InvariantChecker {
            ports,
            vnets,
            check_order,
            created: 0,
            delivered: 0,
            created_at_reset: 0,
            delivered_at_reset: 0,
            fault_reserved: 0,
            fault_reconciled: 0,
            fault_reserved_at_reset: 0,
            fault_reconciled_at_reset: 0,
            delivered_ids: Vec::new(),
            last_in_flow: HashMap::new(),
            expected_reserved: vec![0; num_routers * ports * vnets],
            violations: Vec::new(),
            total_violations: 0,
        }
    }

    fn slot(&self, router: usize, in_port: usize, vnet: usize) -> usize {
        (router * self.ports + in_port) * self.vnets + vnet
    }

    #[cold]
    fn record(&mut self, cycle: u64, location: String, kind: ViolationKind) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(InvariantViolation {
                cycle,
                location,
                kind,
            });
        }
    }

    /// Violations recorded so far (capped; see
    /// [`InvariantChecker::total_violations`]).
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Every violation detected, including those past the recording cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Snapshots the checker's mutable state for a simulator checkpoint.
    /// The recorded violations and their count are not carried
    /// (checkpointing a violated run is refused upstream, so both are
    /// empty), only the running counters and cross-cycle tables needed to
    /// keep checking seamlessly after a restore.
    pub(crate) fn snapshot(&self) -> CheckerSnapshot {
        let mut flows: Vec<(u64, u64, u64, u64)> = self
            .last_in_flow
            .iter()
            .map(|(&(s, d, v), &id)| (s as u64, d as u64, v as u64, id))
            .collect();
        flows.sort_unstable();
        CheckerSnapshot {
            created: self.created,
            delivered: self.delivered,
            created_at_reset: self.created_at_reset,
            delivered_at_reset: self.delivered_at_reset,
            fault_reserved: self.fault_reserved,
            fault_reconciled: self.fault_reconciled,
            fault_reserved_at_reset: self.fault_reserved_at_reset,
            fault_reconciled_at_reset: self.fault_reconciled_at_reset,
            delivered_ids: self.delivered_ids.clone(),
            last_in_flow: flows,
            expected_reserved: self.expected_reserved.clone(),
        }
    }

    /// Overwrites a fresh checker's mutable state from a checkpoint
    /// snapshot; its violation list and count stay empty.
    pub(crate) fn restore_snapshot(&mut self, s: CheckerSnapshot) -> Result<(), String> {
        if s.expected_reserved.len() != self.expected_reserved.len() {
            return Err(format!(
                "checker state shape mismatch: {} reserved slots in checkpoint, {} configured",
                s.expected_reserved.len(),
                self.expected_reserved.len()
            ));
        }
        self.created = s.created;
        self.delivered = s.delivered;
        self.created_at_reset = s.created_at_reset;
        self.delivered_at_reset = s.delivered_at_reset;
        self.fault_reserved = s.fault_reserved;
        self.fault_reconciled = s.fault_reconciled;
        self.fault_reserved_at_reset = s.fault_reserved_at_reset;
        self.fault_reconciled_at_reset = s.fault_reconciled_at_reset;
        self.delivered_ids = s.delivered_ids;
        self.last_in_flow = s
            .last_in_flow
            .into_iter()
            .map(|(src, dst, vnet, id)| ((src as usize, dst as usize, vnet as usize), id))
            .collect();
        self.expected_reserved = s.expected_reserved;
        Ok(())
    }

    /// A packet was created by the traffic source.
    pub(crate) fn on_created(&mut self) {
        self.created += 1;
    }

    /// `reset_stats` was called: re-baseline the delta comparisons.
    pub(crate) fn on_reset_stats(&mut self) {
        self.created_at_reset = self.created;
        self.delivered_at_reset = self.delivered;
        self.fault_reserved_at_reset = self.fault_reserved;
        self.fault_reconciled_at_reset = self.fault_reconciled;
    }

    /// A packet reached its destination node.
    pub(crate) fn on_delivered(&mut self, cycle: u64, pkt: &Packet) {
        self.delivered += 1;
        let word = (pkt.id / 64) as usize;
        let bit = 1u64 << (pkt.id % 64);
        if word >= self.delivered_ids.len() {
            self.delivered_ids.resize(word + 1, 0);
        }
        if self.delivered_ids[word] & bit != 0 {
            self.record(
                cycle,
                "global".to_string(),
                ViolationKind::DuplicateDelivery { packet_id: pkt.id },
            );
        }
        self.delivered_ids[word] |= bit;
        if self.check_order {
            let key = (pkt.src.index(), pkt.dst.index(), pkt.vnet);
            if let Some(&prev) = self.last_in_flow.get(&key) {
                if prev > pkt.id {
                    self.record(
                        cycle,
                        format!("flow {}->{} vnet {}", pkt.src, pkt.dst, pkt.vnet),
                        ViolationKind::OutOfOrderDelivery {
                            packet_id: pkt.id,
                            after_id: prev,
                        },
                    );
                }
            }
            self.last_in_flow
                .entry(key)
                .and_modify(|v| *v = (*v).max(pkt.id))
                .or_insert(pkt.id);
        }
    }

    /// Credit was reserved downstream by a healthy grant.
    pub(crate) fn on_reserve(&mut self, router: usize, in_port: usize, vnet: usize, len: u32) {
        let slot = self.slot(router, in_port, vnet);
        self.expected_reserved[slot] += len as i64;
    }

    /// Credit was reserved downstream by a fault-corrupted transmission.
    pub(crate) fn on_fault_reserve(&mut self, router: usize, in_port: usize, vnet: usize, len: u32) {
        self.on_reserve(router, in_port, vnet, len);
        self.fault_reserved += len as u64;
    }

    /// A packet physically arrived, converting its reservation into
    /// occupancy.
    pub(crate) fn on_arrival(&mut self, router: usize, in_port: usize, vnet: usize, len: u32) {
        let slot = self.slot(router, in_port, vnet);
        self.expected_reserved[slot] -= len as i64;
    }

    /// A credit-reconciliation message landed, returning fault-reserved
    /// credit.
    pub(crate) fn on_credit_return(&mut self, router: usize, in_port: usize, vnet: usize, len: u32) {
        let slot = self.slot(router, in_port, vnet);
        self.expected_reserved[slot] -= len as i64;
        self.fault_reconciled += len as u64;
    }

    /// Per-buffer sweep of flat buffer `bi` (the simulator's
    /// `(router * ports + in_port) * vnets + vnet` layout, which this
    /// checker's slots share): occupancy bounds, incremental-count
    /// agreement, credit-reservation agreement, and FIFO age monotonicity.
    pub(crate) fn check_buffer(&mut self, cycle: u64, bufs: &VcBufArray, bi: usize) {
        let (ports, vnets) = (self.ports, self.vnets);
        let loc = || {
            let (router, in_port, vnet) = (bi / (ports * vnets), bi / vnets % ports, bi % vnets);
            format!("router {router} in_port {in_port} vnet {vnet}")
        };
        let (used, reserved, _) = bufs.book_state(bi);
        let capacity = bufs.capacity_flits();
        if used + reserved > capacity {
            self.record(
                cycle,
                loc(),
                ViolationKind::BufferOverflow {
                    used,
                    reserved,
                    capacity,
                },
            );
        }
        let queued: u32 = bufs.iter(bi).map(|bp| bp.packet.len_flits).sum();
        if used != queued {
            self.record(cycle, loc(), ViolationKind::OccupancyMismatch { used, queued });
        }
        let expected = self.expected_reserved[bi];
        if expected != reserved as i64 {
            self.record(
                cycle,
                loc(),
                ViolationKind::CreditMismatch {
                    expected,
                    actual: reserved,
                },
            );
        }
        let mut prev: Option<u64> = None;
        for bp in bufs.iter(bi) {
            if bp.arrival_cycle > cycle {
                self.record(
                    cycle,
                    loc(),
                    ViolationKind::AgeRegression {
                        earlier: bp.arrival_cycle,
                        later: cycle,
                    },
                );
            }
            if let Some(p) = prev {
                if bp.arrival_cycle < p {
                    self.record(
                        cycle,
                        loc(),
                        ViolationKind::AgeRegression {
                            earlier: p,
                            later: bp.arrival_cycle,
                        },
                    );
                }
            }
            prev = Some(bp.arrival_cycle);
        }
    }

    /// Whole-simulation sweep: message conservation, stats-counter
    /// agreement, and fault-credit balance.
    pub(crate) fn check_global(
        &mut self,
        cycle: u64,
        stats: &SimStats,
        in_flight: u64,
        queued: u64,
    ) {
        // Signed arithmetic: a double-delivery bug can push `delivered`
        // past `created`, and the conservation check must still report
        // rather than overflow.
        let live = self.created as i128 - self.delivered as i128;
        if live != (in_flight + queued) as i128 {
            self.record(
                cycle,
                "global".to_string(),
                ViolationKind::MessageConservation {
                    created: self.created,
                    delivered: self.delivered,
                    in_flight,
                    queued,
                },
            );
        }
        let drifts = [
            ("created", stats.created, self.created - self.created_at_reset),
            (
                "delivered",
                stats.delivered,
                self.delivered - self.delivered_at_reset,
            ),
            (
                "fault_credits_reserved",
                stats.fault_credits_reserved,
                self.fault_reserved - self.fault_reserved_at_reset,
            ),
            (
                "fault_credits_reconciled",
                stats.fault_credits_reconciled,
                self.fault_reconciled - self.fault_reconciled_at_reset,
            ),
        ];
        for (counter, simulator, checker) in drifts {
            if simulator != checker {
                self.record(
                    cycle,
                    "global".to_string(),
                    ViolationKind::CounterDrift {
                        counter,
                        simulator,
                        checker,
                    },
                );
            }
        }
        if self.fault_reconciled > self.fault_reserved {
            self.record(
                cycle,
                "global".to_string(),
                ViolationKind::FaultCreditImbalance {
                    reserved: self.fault_reserved,
                    reconciled: self.fault_reconciled,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn pkt(id: u64) -> Packet {
        let mut p = Packet::test_packet();
        p.id = id;
        p
    }

    #[test]
    fn duplicate_delivery_is_detected() {
        let mut ck = InvariantChecker::new(1, 1, 1, false);
        ck.on_created();
        ck.on_delivered(5, &pkt(0));
        assert!(ck.violations().is_empty());
        ck.on_delivered(6, &pkt(0));
        assert_eq!(ck.total_violations(), 1);
        assert!(matches!(
            ck.violations()[0].kind,
            ViolationKind::DuplicateDelivery { packet_id: 0 }
        ));
    }

    #[test]
    fn out_of_order_delivery_is_detected_only_when_enabled() {
        for (enabled, expect) in [(true, 1u64), (false, 0)] {
            let mut ck = InvariantChecker::new(1, 1, 1, enabled);
            ck.on_delivered(5, &pkt(7));
            ck.on_delivered(6, &pkt(3)); // same flow, earlier id, later delivery
            assert_eq!(ck.total_violations(), expect, "enabled={enabled}");
        }
    }

    #[test]
    fn credit_books_balance_through_reserve_arrival() {
        let mut ck = InvariantChecker::new(2, 3, 2, false);
        ck.on_reserve(1, 2, 1, 5);
        let bi = (3 + 2) * 2 + 1; // router 1, in_port 2, vnet 1
        let mut bufs = VcBufArray::new(12, 8);
        bufs.reserve(bi, 5);
        ck.check_buffer(0, &bufs, bi);
        assert_eq!(ck.total_violations(), 0);
        // The same reservation checked against an *empty* buffer is a leak.
        let empty = VcBufArray::new(12, 8);
        ck.check_buffer(1, &empty, bi);
        assert_eq!(ck.total_violations(), 1);
        assert_eq!(ck.violations()[0].location, "router 1 in_port 2 vnet 1");
        assert!(matches!(
            ck.violations()[0].kind,
            ViolationKind::CreditMismatch {
                expected: 5,
                actual: 0
            }
        ));
    }

    #[test]
    fn violation_recording_caps_but_keeps_counting() {
        let mut ck = InvariantChecker::new(1, 1, 1, false);
        for i in 0..(MAX_RECORDED as u64 + 10) {
            ck.on_delivered(1, &pkt(0)); // every call after the first is a dup
            let _ = i;
        }
        assert_eq!(ck.violations().len(), MAX_RECORDED);
        assert_eq!(ck.total_violations(), MAX_RECORDED as u64 + 9);
    }

    #[test]
    fn sim_error_display_mentions_first_violation() {
        let err = SimError::InvariantsViolated(vec![InvariantViolation {
            cycle: 12,
            location: "global".into(),
            kind: ViolationKind::DuplicateDelivery { packet_id: 3 },
        }]);
        let text = err.to_string();
        assert!(text.contains("1 invariant violation"), "{text}");
        assert!(text.contains("cycle 12"), "{text}");
    }
}
