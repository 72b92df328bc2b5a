//! Per-packet event tracing.
//!
//! When enabled, the simulator records the life of each packet — creation,
//! network injection, every hop, ejection — up to a configurable event
//! budget. Traces are the ground truth behind debugging sessions ("where
//! did this packet spend its 400 cycles?") and the per-hop analyses the
//! paper's interpretability work leans on.

use crate::types::RouterId;

/// One traced packet event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred.
    pub cycle: u64,
    /// The packet involved.
    pub packet_id: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// The kind of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Created by the traffic source (entered a source queue).
    Created,
    /// Left the source queue into the network.
    Injected {
        /// Router the packet entered at.
        router: RouterId,
    },
    /// Won switch arbitration and was forwarded to the next router.
    Forwarded {
        /// Router that forwarded the packet.
        router: RouterId,
        /// Output port granted.
        out_port: usize,
    },
    /// Ejected to its destination node.
    Delivered {
        /// Router the packet left the network at.
        router: RouterId,
    },
    /// Won arbitration but the transmission was lost to a transient link
    /// fault; the packet stays queued for retry.
    FaultDropped {
        /// Router whose output link corrupted the transmission.
        router: RouterId,
        /// Output port the transmission was attempted on.
        out_port: usize,
    },
}

/// A bounded event recorder.
#[derive(Debug, Clone, Default)]
pub struct PacketTrace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl PacketTrace {
    /// Creates a recorder that keeps at most `capacity` events; further
    /// events are counted but dropped.
    pub fn new(capacity: usize) -> Self {
        PacketTrace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event (or counts it as dropped once full).
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// All recorded events, in simulation order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped after the budget was exhausted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events of one packet, in order.
    pub fn packet_events(&self, packet_id: u64) -> Vec<TraceEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.packet_id == packet_id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, id: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            packet_id: id,
            kind,
        }
    }

    #[test]
    fn records_up_to_capacity_then_counts_drops() {
        let mut t = PacketTrace::new(2);
        t.record(ev(0, 1, TraceKind::Created));
        t.record(ev(1, 1, TraceKind::Injected { router: RouterId(0) }));
        t.record(ev(2, 1, TraceKind::Delivered { router: RouterId(3) }));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn packet_filter_keeps_one_packet_in_order() {
        let mut t = PacketTrace::new(100);
        t.record(ev(0, 7, TraceKind::Created));
        t.record(ev(0, 8, TraceKind::Created));
        t.record(ev(3, 7, TraceKind::Forwarded { router: RouterId(1), out_port: 4 }));
        t.record(ev(9, 7, TraceKind::Delivered { router: RouterId(2) }));
        let cycles: Vec<u64> = t.packet_events(7).iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 3, 9]);
    }
}
