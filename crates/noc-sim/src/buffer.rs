//! Input virtual-channel buffers with credit (free-space) accounting.

use std::collections::VecDeque;

use crate::packet::{BufferedPacket, Packet};

/// One input virtual-channel buffer.
///
/// Capacity is tracked in flits. Under virtual cut-through switching a packet
/// may only be forwarded when the downstream buffer has room for *all* of its
/// flits, so upstream routers `reserve` space at grant time (the moment the
/// credit is consumed) and convert the reservation into occupancy when the
/// packet physically arrives.
#[derive(Debug, Clone)]
pub struct VcBuffer {
    queue: VecDeque<BufferedPacket>,
    capacity_flits: u32,
    used_flits: u32,
    reserved_flits: u32,
    /// Capacity currently disabled by an active VC-shrink fault
    /// (see [`crate::FaultKind::VcShrink`]).
    shrink_flits: u32,
    last_arrival: Option<u64>,
}

impl VcBuffer {
    /// Creates an empty buffer holding up to `capacity_flits` flits.
    pub fn new(capacity_flits: u32) -> Self {
        VcBuffer {
            queue: VecDeque::new(),
            capacity_flits,
            used_flits: 0,
            reserved_flits: 0,
            shrink_flits: 0,
            last_arrival: None,
        }
    }

    /// Capacity in flits.
    pub fn capacity_flits(&self) -> u32 {
        self.capacity_flits
    }

    /// Disables `flits` flits of capacity (a VC-shrink fault); `0` restores
    /// the full buffer. Packets already stored are unaffected — the shrink
    /// only squeezes the credit advertised upstream, which saturates at
    /// zero while occupancy exceeds the reduced capacity.
    pub fn set_shrink(&mut self, flits: u32) {
        self.shrink_flits = flits;
    }

    /// Capacity currently disabled by a VC-shrink fault.
    pub fn shrink_flits(&self) -> u32 {
        self.shrink_flits
    }

    /// Flits currently stored.
    pub fn used_flits(&self) -> u32 {
        self.used_flits
    }

    /// Flits promised to in-flight packets that have not yet arrived.
    pub fn reserved_flits(&self) -> u32 {
        self.reserved_flits
    }

    /// Free (unreserved, unoccupied) flits — the credit count the upstream
    /// router sees. An active shrink fault reduces the effective capacity;
    /// the result saturates at zero when stored packets already exceed it.
    pub fn free_flits(&self) -> u32 {
        self.capacity_flits
            .saturating_sub(self.shrink_flits)
            .saturating_sub(self.used_flits + self.reserved_flits)
    }

    /// Whether a packet of `len` flits may be granted toward this buffer now.
    pub fn can_reserve(&self, len: u32) -> bool {
        self.free_flits() >= len
    }

    /// Consumes credit for an in-flight packet of `len` flits.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not have `len` free flits; callers must
    /// check [`VcBuffer::can_reserve`] first.
    pub fn reserve(&mut self, len: u32) {
        assert!(self.can_reserve(len), "reserve() without available credit");
        self.reserved_flits += len;
    }

    /// Returns credit consumed by a transmission that was lost to a link
    /// fault, once the credit-reconciliation message arrives (the inverse
    /// of [`VcBuffer::reserve`]).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the outstanding reservation.
    pub fn unreserve(&mut self, len: u32) {
        assert!(
            self.reserved_flits >= len,
            "unreserve() without a matching reservation"
        );
        self.reserved_flits -= len;
    }

    /// Stores an arriving packet, converting its reservation into occupancy,
    /// and stamps its inter-arrival gap.
    ///
    /// # Panics
    ///
    /// Panics if no matching reservation exists.
    pub fn push_arrival(&mut self, packet: Packet, cycle: u64) {
        let len = packet.len_flits;
        assert!(
            self.reserved_flits >= len,
            "arrival without a matching reservation"
        );
        self.reserved_flits -= len;
        self.used_flits += len;
        let inter_arrival = match self.last_arrival {
            Some(prev) => cycle.saturating_sub(prev),
            None => cycle,
        };
        self.last_arrival = Some(cycle);
        self.queue.push_back(BufferedPacket {
            packet,
            arrival_cycle: cycle,
            inter_arrival,
        });
    }

    /// Stores an injected packet directly (source queue → buffer), which
    /// both reserves and occupies in one step.
    ///
    /// # Panics
    ///
    /// Panics if there is not enough free space.
    pub fn push_injection(&mut self, packet: Packet, cycle: u64) {
        let len = packet.len_flits;
        self.reserve(len);
        self.push_arrival(packet, cycle);
    }

    /// The packet at the head of the buffer, if any. Only head packets
    /// compete for arbitration (FIFO order within a VC).
    pub fn head(&self) -> Option<&BufferedPacket> {
        self.queue.front()
    }

    /// Removes and returns the head packet, releasing its flits.
    pub fn pop(&mut self) -> Option<BufferedPacket> {
        let bp = self.queue.pop_front()?;
        self.used_flits -= bp.packet.len_flits;
        Some(bp)
    }

    /// Total flits of the packets currently queued, recomputed from the
    /// queue itself. The invariant checker cross-checks this against the
    /// incrementally maintained [`VcBuffer::used_flits`].
    pub fn queued_flits(&self) -> u32 {
        self.queue.iter().map(|bp| bp.packet.len_flits).sum()
    }

    /// Number of buffered packets.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates over buffered packets, head first.
    pub fn iter(&self) -> impl Iterator<Item = &BufferedPacket> {
        self.queue.iter()
    }
}

/// A compact mirror of the head packet of one VC: exactly the fields the
/// arbitration request scan reads each cycle, plus the cached route, packed
/// so the whole scan stays within one cache line per VC. Entries are only
/// meaningful while the VC is non-empty; push/pop keep them in sync and
/// reset `route` whenever the head changes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotHead {
    pub(crate) arrival_cycle: u64,
    pub(crate) dst_router: u32,
    pub(crate) len_flits: u32,
    pub(crate) dst_slot: u8,
    /// Cached output port for this head (`u8::MAX` = not computed).
    pub(crate) route: u8,
}

impl HotHead {
    #[inline]
    fn of(bp: &BufferedPacket) -> Self {
        HotHead {
            arrival_cycle: bp.arrival_cycle,
            dst_router: bp.packet.dst_router.index() as u32,
            len_flits: bp.packet.len_flits,
            dst_slot: bp.packet.dst_slot,
            route: u8::MAX,
        }
    }
}

/// The second half of the hot mirror: the head fields only needed when a
/// candidate reaches a contended output (age-ordering key). Split from
/// [`HotHead`] so the every-slot scan line stays 24 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotAux {
    pub(crate) create_cycle: u64,
    pub(crate) id: u64,
}

/// Structure-of-arrays store for every input VC buffer in a mesh.
///
/// The per-cycle hot loop touches credit counters (used/reserved/shrink)
/// far more often than packet payloads, so those counters live in dense
/// parallel arrays indexed by the flat buffer id
/// `(router * ports + port) * vnets + vnet`, while the packet FIFOs sit in
/// a parallel `Vec<VecDeque>`. Per-index semantics are identical to
/// [`VcBuffer`] — same credit rules, same panic messages — and the
/// equivalence is pinned by tests below; `VcBuffer` remains the
/// single-buffer unit used standalone.
#[derive(Debug, Clone)]
pub struct VcBufArray {
    /// Head packet of each buffer, stored inline so the arbitration scan
    /// reads a dense array instead of chasing per-VC heap queues.
    heads: Vec<Option<BufferedPacket>>,
    /// Per-VC hot mirror of the head (see [`HotHead`]).
    pub(crate) hots: Vec<HotHead>,
    /// Per-VC age-key mirror of the head (see [`HotAux`]).
    pub(crate) auxs: Vec<HotAux>,
    /// Second-and-later packets of each buffer (usually empty).
    tails: Vec<VecDeque<BufferedPacket>>,
    /// Credit books, one 12-byte record per buffer so a credit query
    /// touches one cache line instead of three parallel arrays.
    books: Vec<CreditBook>,
    /// Cycle of the most recent arrival per buffer; `u64::MAX` = never.
    last_arrival: Vec<u64>,
    capacity_flits: u32,
}

/// Per-buffer credit counters of [`VcBufArray`], packed together.
#[derive(Debug, Clone, Copy, Default)]
struct CreditBook {
    used: u32,
    reserved: u32,
    shrink: u32,
}

/// Sentinel for "no arrival seen yet" in [`VcBufArray::last_arrival`].
const NEVER: u64 = u64::MAX;

impl VcBufArray {
    /// Creates `n` empty buffers, each holding up to `capacity_flits`.
    pub fn new(n: usize, capacity_flits: u32) -> Self {
        VcBufArray {
            heads: (0..n).map(|_| None).collect(),
            hots: vec![
                HotHead {
                    arrival_cycle: 0,
                    dst_router: 0,
                    len_flits: 0,
                    dst_slot: 0,
                    route: u8::MAX,
                };
                n
            ],
            auxs: vec![
                HotAux {
                    create_cycle: 0,
                    id: 0,
                };
                n
            ],
            tails: (0..n).map(|_| VecDeque::new()).collect(),
            books: vec![CreditBook::default(); n],
            last_arrival: vec![NEVER; n],
            capacity_flits,
        }
    }

    /// Number of buffers in the store.
    pub fn num_buffers(&self) -> usize {
        self.heads.len()
    }

    /// Capacity in flits (uniform across the store).
    pub fn capacity_flits(&self) -> u32 {
        self.capacity_flits
    }

    /// Disables `flits` flits of capacity on buffer `bi` (a VC-shrink
    /// fault); `0` restores the full buffer.
    pub fn set_shrink(&mut self, bi: usize, flits: u32) {
        self.books[bi].shrink = flits;
    }

    /// Free (unreserved, unoccupied) flits of buffer `bi` — the credit
    /// count the upstream router sees (same saturation rules as
    /// [`VcBuffer::free_flits`]).
    #[inline]
    pub fn free_flits(&self, bi: usize) -> u32 {
        let b = self.books[bi];
        self.capacity_flits
            .saturating_sub(b.shrink)
            .saturating_sub(b.used + b.reserved)
    }

    /// Whether a packet of `len` flits may be granted toward buffer `bi`.
    #[inline]
    pub fn can_reserve(&self, bi: usize, len: u32) -> bool {
        self.free_flits(bi) >= len
    }

    /// Consumes credit on buffer `bi` for an in-flight packet of `len`
    /// flits.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not have `len` free flits.
    #[inline]
    pub fn reserve(&mut self, bi: usize, len: u32) {
        assert!(
            self.can_reserve(bi, len),
            "reserve() without available credit"
        );
        self.books[bi].reserved += len;
    }

    /// Returns previously consumed credit on buffer `bi` (the inverse of
    /// [`VcBufArray::reserve`]).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the outstanding reservation.
    #[inline]
    pub fn unreserve(&mut self, bi: usize, len: u32) {
        assert!(
            self.books[bi].reserved >= len,
            "unreserve() without a matching reservation"
        );
        self.books[bi].reserved -= len;
    }

    /// Stores an arriving packet in buffer `bi`, converting its
    /// reservation into occupancy, and stamps its inter-arrival gap.
    ///
    /// # Panics
    ///
    /// Panics if no matching reservation exists.
    #[inline]
    pub fn push_arrival(&mut self, bi: usize, packet: Packet, cycle: u64) {
        let len = packet.len_flits;
        assert!(
            self.books[bi].reserved >= len,
            "arrival without a matching reservation"
        );
        self.books[bi].reserved -= len;
        self.books[bi].used += len;
        let inter_arrival = match self.last_arrival[bi] {
            NEVER => cycle,
            prev => cycle.saturating_sub(prev),
        };
        self.last_arrival[bi] = cycle;
        let bp = BufferedPacket {
            packet,
            arrival_cycle: cycle,
            inter_arrival,
        };
        if self.heads[bi].is_none() {
            self.hots[bi] = HotHead::of(&bp);
            self.auxs[bi] = HotAux {
                create_cycle: bp.packet.create_cycle,
                id: bp.packet.id,
            };
            self.heads[bi] = Some(bp);
        } else {
            self.tails[bi].push_back(bp);
        }
    }

    /// Stores an injected packet directly into buffer `bi` (source queue →
    /// buffer), which both reserves and occupies in one step.
    ///
    /// # Panics
    ///
    /// Panics if there is not enough free space.
    pub fn push_injection(&mut self, bi: usize, packet: Packet, cycle: u64) {
        let len = packet.len_flits;
        self.reserve(bi, len);
        self.push_arrival(bi, packet, cycle);
    }

    /// The packet at the head of buffer `bi`, if any.
    #[inline]
    pub fn head(&self, bi: usize) -> Option<&BufferedPacket> {
        self.heads[bi].as_ref()
    }

    /// Removes and returns the head packet of buffer `bi`, releasing its
    /// flits.
    #[inline]
    pub fn pop(&mut self, bi: usize) -> Option<BufferedPacket> {
        let bp = self.heads[bi].take()?;
        if let Some(next) = self.tails[bi].pop_front() {
            self.hots[bi] = HotHead::of(&next);
            self.auxs[bi] = HotAux {
                create_cycle: next.packet.create_cycle,
                id: next.packet.id,
            };
            self.heads[bi] = Some(next);
        } else {
            // Leave the hot entry stale; the occupancy bitmap guards reads.
            self.hots[bi].route = u8::MAX;
        }
        self.books[bi].used -= bp.packet.len_flits;
        Some(bp)
    }

    /// True when buffer `bi` holds no packets.
    #[inline]
    pub fn is_empty(&self, bi: usize) -> bool {
        self.heads[bi].is_none()
    }

    /// Iterates over the packets buffered in `bi`, head first.
    pub fn iter(&self, bi: usize) -> impl Iterator<Item = &BufferedPacket> {
        self.heads[bi].iter().chain(self.tails[bi].iter())
    }

    /// The credit book of buffer `bi` as `(used, reserved, shrink)` flits —
    /// the mutable counters a checkpoint must carry.
    pub(crate) fn book_state(&self, bi: usize) -> (u32, u32, u32) {
        let b = self.books[bi];
        (b.used, b.reserved, b.shrink)
    }

    /// Cycle of the most recent arrival at buffer `bi` (`u64::MAX` =
    /// never), the inter-arrival baseline a checkpoint must carry.
    pub(crate) fn last_arrival(&self, bi: usize) -> u64 {
        self.last_arrival[bi]
    }

    /// Deliberately corrupts the credit book of buffer `bi` by counting
    /// one phantom used flit, desynchronizing `used` from the packets
    /// actually stored. Test-only: drives the
    /// [`crate::Simulator::debug_misbehaving_controller`] fault-injection
    /// hook that proves the occupancy-integrity invariant would catch a
    /// buffer controller that touched the books directly.
    pub(crate) fn debug_corrupt_used(&mut self, bi: usize) {
        self.books[bi].used += 1;
    }

    /// Overwrites buffer `bi` with checkpointed state: the exact packet
    /// list (head first, preserving the stored `arrival_cycle` /
    /// `inter_arrival` stamps), the reserved and shrunk flits, and the
    /// inter-arrival baseline. The used flits are those of the packets.
    /// The hot head mirror is rebuilt with an uncomputed route
    /// (`u8::MAX`), which is bit-safe: routes are only cached under
    /// deterministic routing, where recomputation gives the same answer.
    pub(crate) fn restore_buffer(
        &mut self,
        bi: usize,
        mut packets: VecDeque<BufferedPacket>,
        reserved: u32,
        shrink: u32,
        last_arrival: u64,
    ) {
        self.books[bi].used = packets.iter().map(|bp| bp.packet.len_flits).sum();
        self.books[bi].reserved = reserved;
        self.books[bi].shrink = shrink;
        self.last_arrival[bi] = last_arrival;
        match packets.pop_front() {
            Some(head) => {
                self.hots[bi] = HotHead::of(&head);
                self.auxs[bi] = HotAux {
                    create_cycle: head.packet.create_cycle,
                    id: head.packet.id,
                };
                self.heads[bi] = Some(head);
            }
            None => {
                self.heads[bi] = None;
                self.hots[bi].route = u8::MAX;
            }
        }
        self.tails[bi] = packets;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: u32) -> Packet {
        let mut p = Packet::test_packet();
        p.len_flits = len;
        p
    }

    #[test]
    fn credit_accounting_roundtrip() {
        let mut b = VcBuffer::new(8);
        assert_eq!(b.free_flits(), 8);
        b.reserve(5);
        assert_eq!(b.free_flits(), 3);
        assert!(!b.can_reserve(4));
        b.push_arrival(pkt(5), 10);
        assert_eq!(b.used_flits(), 5);
        assert_eq!(b.reserved_flits(), 0);
        assert_eq!(b.free_flits(), 3);
        let out = b.pop().unwrap();
        assert_eq!(out.packet.len_flits, 5);
        assert_eq!(b.free_flits(), 8);
        assert!(b.is_empty());
    }

    #[test]
    fn inter_arrival_gap_is_tracked() {
        let mut b = VcBuffer::new(16);
        b.push_injection(pkt(1), 5);
        b.push_injection(pkt(1), 12);
        let mut it = b.iter();
        assert_eq!(it.next().unwrap().inter_arrival, 5); // first arrival: gap = cycle
        assert_eq!(it.next().unwrap().inter_arrival, 7);
    }

    #[test]
    fn queued_flits_recomputes_occupancy() {
        let mut b = VcBuffer::new(16);
        assert_eq!(b.queued_flits(), 0);
        b.push_injection(pkt(5), 0);
        b.push_injection(pkt(3), 1);
        assert_eq!(b.queued_flits(), 8);
        assert_eq!(b.queued_flits(), b.used_flits());
        b.pop();
        assert_eq!(b.queued_flits(), 3);
    }

    #[test]
    fn fifo_order_within_vc() {
        let mut b = VcBuffer::new(8);
        let mut p1 = pkt(1);
        p1.id = 1;
        let mut p2 = pkt(1);
        p2.id = 2;
        b.push_injection(p1, 0);
        b.push_injection(p2, 1);
        assert_eq!(b.pop().unwrap().packet.id, 1);
        assert_eq!(b.pop().unwrap().packet.id, 2);
        assert!(b.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "reserve() without available credit")]
    fn over_reservation_panics() {
        let mut b = VcBuffer::new(4);
        b.reserve(5);
    }

    #[test]
    fn unreserve_returns_credit() {
        let mut b = VcBuffer::new(8);
        b.reserve(5);
        assert_eq!(b.free_flits(), 3);
        b.unreserve(5);
        assert_eq!(b.free_flits(), 8);
        assert_eq!(b.reserved_flits(), 0);
    }

    #[test]
    #[should_panic(expected = "unreserve() without a matching reservation")]
    fn unreserve_without_reservation_panics() {
        let mut b = VcBuffer::new(8);
        b.unreserve(1);
    }

    #[test]
    fn shrink_squeezes_credit_and_saturates() {
        let mut b = VcBuffer::new(8);
        b.push_injection(pkt(5), 0);
        assert_eq!(b.free_flits(), 3);
        b.set_shrink(2);
        assert_eq!(b.free_flits(), 1);
        // Occupancy above the reduced capacity: credit saturates at zero,
        // stored packets are untouched.
        b.set_shrink(6);
        assert_eq!(b.free_flits(), 0);
        assert_eq!(b.used_flits(), 5);
        assert!(!b.can_reserve(1));
        b.set_shrink(0);
        assert_eq!(b.free_flits(), 3);
    }

    #[test]
    #[should_panic(expected = "without a matching reservation")]
    fn arrival_without_reservation_panics() {
        let mut b = VcBuffer::new(4);
        b.push_arrival(pkt(1), 0);
    }

    // ---- structure-of-arrays store --------------------------------------

    #[test]
    fn soa_store_matches_single_buffer_semantics() {
        // Drive a VcBuffer and one slot of a VcBufArray through the same
        // operation sequence; every observable must agree at every step.
        let mut single = VcBuffer::new(8);
        let mut soa = VcBufArray::new(4, 8);
        let bi = 2; // a non-zero slot, so indexing bugs show up
        let ops: &[(&str, u32, u64)] = &[
            ("reserve", 5, 0),
            ("arrive", 5, 10),
            ("shrink", 2, 0),
            ("pop", 0, 0),
            ("shrink", 0, 0),
            ("inject", 3, 15),
            ("inject", 1, 20),
        ];
        for &(op, len, cycle) in ops {
            match op {
                "reserve" => {
                    single.reserve(len);
                    soa.reserve(bi, len);
                }
                "arrive" => {
                    single.push_arrival(pkt(len), cycle);
                    soa.push_arrival(bi, pkt(len), cycle);
                }
                "inject" => {
                    single.push_injection(pkt(len), cycle);
                    soa.push_injection(bi, pkt(len), cycle);
                }
                "shrink" => {
                    single.set_shrink(len);
                    soa.set_shrink(bi, len);
                }
                "pop" => {
                    let a = single.pop().map(|bp| bp.packet.len_flits);
                    let b = soa.pop(bi).map(|bp| bp.packet.len_flits);
                    assert_eq!(a, b);
                }
                _ => unreachable!(),
            }
            assert_eq!(single.free_flits(), soa.free_flits(bi), "after {op}");
            let (used, reserved, _) = soa.book_state(bi);
            assert_eq!(
                (single.used_flits(), single.reserved_flits()),
                (used, reserved)
            );
            assert_eq!(single.is_empty(), soa.is_empty(bi));
            let a: Vec<_> = single.iter().map(|bp| bp.inter_arrival).collect();
            let b: Vec<_> = soa.iter(bi).map(|bp| bp.inter_arrival).collect();
            assert_eq!(a, b, "inter-arrival stamps diverged after {op}");
        }
        // Untouched slots stay pristine.
        for other in [0, 1, 3] {
            assert!(soa.is_empty(other));
            assert_eq!(soa.free_flits(other), 8);
        }
    }

    #[test]
    fn soa_first_arrival_gap_equals_cycle() {
        let mut soa = VcBufArray::new(1, 16);
        soa.push_injection(0, pkt(1), 5);
        soa.push_injection(0, pkt(1), 12);
        let gaps: Vec<_> = soa.iter(0).map(|bp| bp.inter_arrival).collect();
        assert_eq!(gaps, vec![5, 7]);
    }

    #[test]
    #[should_panic(expected = "reserve() without available credit")]
    fn soa_over_reservation_panics() {
        let mut soa = VcBufArray::new(2, 4);
        soa.reserve(1, 5);
    }
}
