//! The VC buffer-control decision point: a pluggable policy that
//! reallocates per-VC credit budgets at a fixed control epoch.
//!
//! This is the simulator's second learned decision point, beside
//! arbitration ([`crate::Arbiter`]). Where an arbiter picks *which* buffered
//! packet wins an output port each cycle, a [`BufferController`] decides
//! *how much credit* each input VC advertises upstream, by withholding part
//! of its capacity — the same actuation path as the RACE-style VC-shrink
//! fault machinery ([`crate::FaultKind::VcShrink`]).
//!
//! ## Safety by construction
//!
//! A controller can only *request* withholds; the simulator clamps every
//! request so that the combined squeeze (fault shrink + controller
//! withhold) always leaves at least `max_packet_flits` of advertiseable
//! capacity beyond whatever the fault plan itself takes. The controller
//! never touches the credit books directly, so it is provably unable to
//! corrupt occupancy accounting: the invariant checker's
//! occupancy-integrity and buffer-overflow checks
//! ([`crate::ViolationKind::OccupancyMismatch`] /
//! [`crate::ViolationKind::BufferOverflow`]) audit raw `used`/`reserved`
//! counters against raw capacity, which no withhold can alter. A
//! checked run with any controller installed must stay violation-free;
//! the conformance sweep pins this.

/// One VC buffer's telemetry, handed to the controller each control epoch.
///
/// Indexed like every flat buffer array in the simulator:
/// `(router * ports + port) * vnets + vnet`.
#[derive(Debug, Clone, Copy, Default)]
pub struct VcUsage {
    /// Flits currently occupied by buffered packets.
    pub used: u32,
    /// Flits reserved for in-flight packets not yet arrived.
    pub reserved: u32,
    /// Capacity currently disabled by the *fault plan* (not the
    /// controller's own withhold).
    pub fault_shrink: u32,
    /// Raw buffer capacity in flits.
    pub capacity: u32,
}

/// A VC buffer-allocation policy, consulted once per control epoch.
///
/// Implementations are installed with
/// [`crate::Simulator::set_buffer_controller`] and follow the same
/// checkpoint contract as [`crate::Arbiter`]: stateless controllers
/// checkpoint for free via the defaults; stateful ones write their
/// mutable state (and nothing construction-time) with
/// [`crate::codec::Words`].
pub trait BufferController {
    /// Stable display name, recorded in checkpoints and cross-checked on
    /// restore. Must stay within the checkpoint codec's clean-string
    /// subset (no quotes, backslashes, or control characters).
    fn name(&self) -> String;

    /// Control epoch in cycles: [`BufferController::reallocate`] runs at
    /// every cycle that is a multiple of this period (values below 1 are
    /// treated as 1).
    fn control_epoch(&self) -> u64;

    /// Proposes the per-VC credit withhold for the next epoch.
    ///
    /// `usage[bi]` is the current telemetry of flat buffer `bi`;
    /// `withhold[bi]` starts zeroed and receives the proposed withhold in
    /// flits. Proposals are clamped by the simulator (see the module
    /// docs) before actuation — a controller may request anything.
    fn reallocate(&mut self, cycle: u64, usage: &[VcUsage], withhold: &mut [u32]);

    /// Serializes the controller's mutable state for a checkpoint, or
    /// `None` if this controller cannot be checkpointed. Stateless
    /// controllers inherit `Some("")`.
    fn checkpoint_state(&self) -> Option<String> {
        Some(String::new())
    }

    /// Restores mutable state serialized by
    /// [`BufferController::checkpoint_state`], read with
    /// [`crate::codec::WordReader`]. The default accepts only the
    /// stateless empty state.
    ///
    /// # Errors
    ///
    /// Returns a description of a malformed or mismatched state string,
    /// leaving the controller unchanged.
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        crate::codec::Words::read(&self.name(), state).end()
    }
}

impl std::fmt::Debug for dyn BufferController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BufferController({})", self.name())
    }
}

/// Clamps a controller's requested withhold for one VC: the combined
/// squeeze (fault shrink + withhold) must leave at least
/// `max_packet_flits` of advertiseable capacity beyond what the fault
/// plan already takes, so the controller alone can never wedge a buffer.
pub(crate) fn clamp_withhold(
    want: u32,
    fault_shrink: u32,
    capacity: u32,
    max_packet_flits: u32,
) -> u32 {
    want.min(
        capacity
            .saturating_sub(fault_shrink)
            .saturating_sub(max_packet_flits),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_preserves_packet_headroom() {
        // capacity 8, max packet 5: at most 3 flits may ever be withheld.
        assert_eq!(clamp_withhold(0, 0, 8, 5), 0);
        assert_eq!(clamp_withhold(2, 0, 8, 5), 2);
        assert_eq!(clamp_withhold(3, 0, 8, 5), 3);
        assert_eq!(clamp_withhold(4, 0, 8, 5), 3);
        assert_eq!(clamp_withhold(u32::MAX, 0, 8, 5), 3);
    }

    #[test]
    fn clamp_yields_to_fault_shrink() {
        // A fault already shrinking 2 flits leaves 1 flit of slack.
        assert_eq!(clamp_withhold(3, 2, 8, 5), 1);
        // A fault eating the whole slack (or more) zeroes the withhold.
        assert_eq!(clamp_withhold(3, 3, 8, 5), 0);
        assert_eq!(clamp_withhold(3, 100, 8, 5), 0);
    }

    #[test]
    fn default_checkpoint_contract_is_stateless() {
        struct Nop;
        impl BufferController for Nop {
            fn name(&self) -> String {
                "nop".into()
            }
            fn control_epoch(&self) -> u64 {
                64
            }
            fn reallocate(&mut self, _: u64, _: &[VcUsage], _: &mut [u32]) {}
        }
        let mut c = Nop;
        assert_eq!(c.checkpoint_state(), Some(String::new()));
        assert!(c.restore_state("").is_ok());
        assert!(c.restore_state("junk").is_err());
    }
}
