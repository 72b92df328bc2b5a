//! The cycle-driven simulation engine.
//!
//! Each cycle the engine: delivers in-flight packets that reach their next
//! router or destination, pulls new messages from the traffic source into
//! per-node injection queues, drains injection queues into local input VCs,
//! then arbitrates every router's free output ports (paper Algorithm 1) and
//! launches the winners toward their next hop under credit-based
//! virtual-cut-through flow control.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::arbitration::{Arbiter, Candidate, Features, Grant, NetSnapshot, OutputCtx, RouterCtx};
use crate::buffer::VcBufArray;
use crate::calendar::{CalendarCounter, CalendarQueue};
use crate::config::SimConfig;
use crate::error::ConfigError;
use crate::faults::{FaultPlan, FaultRuntime};
use crate::invariants::{InvariantChecker, InvariantViolation, SimError};
use crate::packet::{InjectionRequest, Packet};
use crate::config::RoutingKind;
use crate::routing::{route_deterministic, route_west_first, RouteStep};
use crate::stats::SimStats;
use crate::topology::Topology;
use crate::trace::{PacketTrace, TraceEvent, TraceKind};
use crate::traffic::TrafficSource;
use crate::types::{Coord, PortDir, RouterId, NodeId};
use crate::vc_control::{clamp_withhold, BufferController, VcUsage};

mod snapshot;

/// Process-wide count of cycles executed by [`Simulator::run`] and
/// [`Simulator::run_until_done`] across every simulator instance and
/// thread (see [`simulated_cycles`]).
static SIMULATED_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Total simulator cycles executed so far in this process, summed over
/// every [`Simulator::run`] / [`Simulator::run_until_done`] call on every
/// thread. Monotone and never reset; experiment harnesses read it before
/// and after a cache-served run to assert that nothing was actually
/// simulated.
pub fn simulated_cycles() -> u64 {
    SIMULATED_CYCLES.load(Ordering::Relaxed)
}

/// A packet in flight between routers (or toward a destination node).
#[derive(Debug, Clone)]
enum Arrival {
    /// Head into a downstream router's input VC.
    Router {
        router: RouterId,
        in_port: usize,
        vnet: usize,
        packet: Packet,
    },
    /// Ejection: consume at the destination node.
    Node { packet: Packet },
    /// Credit reconciliation: return credit that was consumed by a
    /// transmission lost to a transient link fault (only scheduled while a
    /// fault plan is installed).
    CreditReturn {
        /// Router whose input buffer holds the stale reservation.
        router: RouterId,
        /// Input port of that buffer.
        in_port: usize,
        /// Virtual network of that buffer.
        vnet: usize,
        /// Flits of credit to return.
        len: u32,
    },
}

/// Reusable buffers for the per-cycle arbitration loop, so the steady-state
/// step allocates nothing: candidate vectors are pooled in `spare`, the
/// per-output collection buckets keep their capacity across routers, and
/// the request matrix / availability list keep theirs across cycles.
#[derive(Debug, Default)]
struct ArbScratch {
    /// The request matrix being arbitrated: `(out_port, candidates)`.
    outputs: Vec<(usize, Vec<Candidate>)>,
    /// Recycled candidate vectors (capacity retained).
    spare: Vec<Vec<Candidate>>,
    /// Per-output candidates still grantable this cycle.
    avail: Vec<Candidate>,
    /// Per-output collection buckets, indexed by output port.
    buckets: Vec<Vec<Candidate>>,
    /// Pass-1 compact request records, in (in_port, vnet) order.
    reqs: Vec<GrantReq>,
    /// Requests per output port this router/cycle.
    counts: Vec<u32>,
    /// Index into `reqs` of the first request per output (`u32::MAX` =
    /// none) — O(1) lookup for the sole-requester grant path.
    first_req: Vec<u32>,
}

/// Runtime state of an installed [`BufferController`]: the controller
/// object plus the simulator-owned actuation books. The simulator — never
/// the controller — owns the composition of fault shrink and controller
/// withhold, so the clamp in [`crate::vc_control::clamp_withhold`] is
/// enforced on every path that touches `set_shrink`.
struct CtlRuntime {
    ctl: Box<dyn BufferController>,
    /// Clamped withhold currently actuated per flat buffer.
    withhold: Vec<u32>,
    /// Mirror of the fault plan's current shrink per flat buffer, so the
    /// combined `fault_shrink + withhold` can be recomposed when either
    /// side changes.
    fault_shrink: Vec<u32>,
    /// Scratch telemetry handed to the controller (capacity reused).
    usage: Vec<VcUsage>,
    /// Scratch proposal filled by the controller (capacity reused).
    proposal: Vec<u32>,
    /// Control epochs executed so far (checkpointed; also the "zero
    /// training epochs" witness for warm-cache tests).
    epochs_run: u64,
}

/// The subset of a winning [`Candidate`] the grant path needs — small
/// enough to collect for every requesting VC in arbitration pass 1
/// without materialising the full feature vector.
#[derive(Debug, Clone, Copy)]
struct GrantReq {
    /// Head packet local age at the arbitration cycle.
    local_age: u64,
    /// Flat buffer index of the requesting VC.
    bi: u32,
    /// Head packet length in flits.
    len: u32,
    out_port: u8,
    in_port: u8,
    vnet: u8,
    /// Flattened `in_port * vnets + vnet` occupancy-bitmap slot.
    slot: u8,
}

/// The cycle-accurate NoC simulator.
///
/// Generic over the traffic source type `T` so closed-loop workload engines
/// remain directly accessible (e.g. to read per-program execution times);
/// the arbitration policy is a boxed trait object so policies can be swapped
/// uniformly.
///
/// ```
/// use noc_sim::{Simulator, SimConfig, Topology, SyntheticTraffic, Pattern};
/// use noc_sim::arbiters::FifoArbiter;
///
/// let topo = Topology::uniform_mesh(4, 4).unwrap();
/// let cfg = SimConfig::synthetic(4, 4);
/// let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.05, cfg.num_vnets, 1);
/// let mut sim = Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic)?;
/// sim.run(1_000);
/// assert!(sim.stats().delivered > 0);
/// # Ok::<(), noc_sim::ConfigError>(())
/// ```
pub struct Simulator<T: TrafficSource> {
    cfg: SimConfig,
    topo: Topology,
    arbiter: Box<dyn Arbiter>,
    traffic: T,
    /// Every input VC buffer in the mesh, in one structure-of-arrays store
    /// indexed by `(router * ports + port) * vnets + vnet`.
    bufs: VcBufArray,
    /// First cycle each output port is free again, flat `router*ports+port`.
    out_free_at: Vec<u64>,
    /// Per-router occupancy bitmaps (`occ_words` words per router): bit
    /// `in_port * vnets + vnet` is set while that VC holds ≥ 1 packet, so
    /// arbitration iterates only occupied buffers.
    occ: Vec<u64>,
    /// Bitmap words per router: `ceil(ports * vnets / 64)`.
    occ_words: usize,
    /// Cached [`Topology::ports_per_router`].
    ports: usize,
    /// Cached [`SimConfig::num_vnets`].
    vnets: usize,
    /// Cached [`Topology::num_locals`] (ports `< num_locals` are local).
    num_locals: usize,
    /// Precomputed router coordinates (no div/mod on the hot path).
    coords: Vec<Coord>,
    /// `links[router*ports+port]` = `(downstream router, its input port)`
    /// for connected mesh ports; `None` for local ports and mesh edges.
    links: Vec<Option<(usize, usize)>>,
    /// `(router, local port)` for each node id, in node order.
    node_ports: Vec<(usize, usize)>,
    /// `inj_queues[node*vnets+vnet]` — unbounded source queues.
    inj_queues: Vec<VecDeque<Packet>>,
    /// Total packets across all injection queues (kept in sync so the
    /// per-cycle conservation reads are O(1)).
    queued_total: u64,
    /// Packets in flight on links, keyed by arrival cycle.
    arrivals: CalendarQueue<Arrival>,
    cycle: u64,
    next_packet_id: u64,
    stats: SimStats,
    net: NetSnapshot,
    /// Outstanding (injected, undelivered) packets per source router.
    in_flight_per_router: Vec<u32>,
    /// Mesh-link transmissions ending at a given cycle.
    tx_ends: CalendarCounter,
    /// Mesh-link transmissions currently active.
    active_mesh_tx: u32,
    /// Σ create_cycle over in-flight packets (for the acc-latency reward).
    inflight_create_sum: u128,
    inflight_count: u64,
    /// Latency sum / count of packets delivered in the current reward period.
    period_lat_sum: u64,
    period_delivered: u64,
    /// Optional log of every grant (disabled by default; used by tests).
    grant_log: Option<Vec<Grant>>,
    /// Optional per-packet event trace.
    trace: Option<PacketTrace>,
    /// Scratch for draining this cycle's arrivals (capacity reused).
    arrival_scratch: Vec<Arrival>,
    /// Scratch for pulling this cycle's injections (capacity reused).
    inj_scratch: Vec<InjectionRequest>,
    /// Scratch for the arbitration request matrix (capacity reused).
    /// Boxed behind an `Option` so the per-router take/put-back moves a
    /// pointer, not the whole scratch struct; always `Some` between steps.
    arb: Option<Box<ArbScratch>>,
    /// Flat downstream-buffer base per `(router, out_port)`:
    /// `(next * ports + in_port) * vnets` for connected mesh ports,
    /// `u32::MAX` for local/disconnected ports. A compact mirror of
    /// `links` for the arbitration credit gate.
    links_nbi: Vec<u32>,
    /// Bitmap of non-empty injection queues, bit `node * vnets + vnet` —
    /// lets the per-cycle injection scan visit only queued sources.
    inj_occ: Vec<u64>,
    /// Precomputed `!arbiter.wants_features()` (the arbiter never changes
    /// after construction).
    arb_lite: bool,
    /// Whether the per-VC cached route may be consulted (deterministic
    /// routing and port indices that fit in a `u8`).
    route_cacheable: bool,
    /// Fault-injection runtime; `None` (the default) is the fault-free
    /// fast path and is bit-identical to a build without this subsystem.
    faults: Option<Box<FaultRuntime>>,
    /// Runtime invariant checker; `None` (the default) takes the exact
    /// branches of a build without the subsystem, so checkers-off runs
    /// are bit-identical (same pattern as `faults`).
    checker: Option<Box<InvariantChecker>>,
    /// Test-only fault seed: at this cycle, leak one flit of credit by
    /// reserving it behind the checker's back (see
    /// [`Simulator::debug_inject_credit_leak`]).
    leak_at: Option<u64>,
    /// VC buffer-control runtime; `None` (the default) is the static
    /// fast path and is bit-identical to a build without this subsystem
    /// (same pattern as `faults` / `checker`).
    vc_ctl: Option<Box<CtlRuntime>>,
    /// Test-only fault seed: at this cycle, corrupt one credit book as a
    /// misbehaving buffer controller would (see
    /// [`Simulator::debug_misbehaving_controller`]).
    misbehave_at: Option<u64>,
    /// Q48.16 exponential moving average of delivered end-to-end latency
    /// (integer-only so the recovery accounting stays bit-deterministic).
    lat_ema_q16: u64,
    /// EMA snapshot taken at the current episode's fault onset — the
    /// "healthy" baseline recovery is measured against.
    recov_baseline_q16: u64,
    /// Onset cycle of the episode currently awaiting recovery.
    recov_onset_cycle: u64,
    /// A fault episode has onset but not yet recovered.
    recov_pending: bool,
    /// Cycle of the first fault onset ever (`u64::MAX` = none yet);
    /// deliveries at or after it feed the post-fault latency counters.
    first_onset_cycle: u64,
    /// Whether any fault event was active last cycle (edge detector).
    fault_active_prev: bool,
}

impl<T: TrafficSource> Simulator<T> {
    /// Builds a simulator.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent.
    pub fn new(
        topo: Topology,
        cfg: SimConfig,
        arbiter: Box<dyn Arbiter>,
        traffic: T,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if !cfg.routing.supports(topo.kind()) {
            return Err(ConfigError::RoutingUnsupported {
                routing: cfg.routing.as_str(),
                topology: topo.kind().as_str(),
            });
        }
        let ports = topo.ports_per_router();
        let vnets = cfg.num_vnets;
        let num_locals = topo.num_locals();
        let n_routers = topo.num_routers();
        let bufs = VcBufArray::new(n_routers * ports * vnets, cfg.vc_capacity_flits);
        let occ_words = (ports * vnets).div_ceil(64);
        let coords: Vec<Coord> = (0..n_routers).map(|r| topo.coord(RouterId(r))).collect();
        let mut links = vec![None; n_routers * ports];
        for r in 0..n_routers {
            for p in 0..ports {
                let dir = topo.port_dir(p);
                if dir.is_local() {
                    continue;
                }
                if let Some(next) = topo.neighbor(RouterId(r), dir) {
                    let in_port = topo.port_index(dir.opposite().expect("mesh dir"));
                    links[r * ports + p] = Some((next.index(), in_port));
                }
            }
        }
        let node_ports: Vec<(usize, usize)> = topo
            .nodes()
            .iter()
            .map(|n| (n.router.index(), topo.port_index(PortDir::Local(n.slot))))
            .collect();
        let inj_queues = (0..topo.num_nodes() * vnets).map(|_| VecDeque::new()).collect();
        let stats = SimStats::new(cfg.num_vnets, topo.num_nodes(), topo.num_links());
        let in_flight = vec![0; topo.num_routers()];
        // Every event lands within max_packet_flits + link + router latency
        // cycles of its scheduling cycle, so this horizon keeps the calendar
        // queues on their O(1) ring path (overflow handles anything larger).
        let horizon =
            (cfg.max_packet_flits as u64 + cfg.link_latency + cfg.router_latency + 2) as usize;
        let route_cacheable = cfg.routing.is_deterministic() && ports < u8::MAX as usize;
        let links_nbi: Vec<u32> = links
            .iter()
            .map(|l| match l {
                Some((next, in_port)) => ((next * ports + in_port) * vnets) as u32,
                None => u32::MAX,
            })
            .collect();
        let arb_lite = !arbiter.wants_features();
        let inj_occ_words = (topo.num_nodes() * vnets).div_ceil(64);
        Ok(Simulator {
            cfg,
            topo,
            arbiter,
            traffic,
            bufs,
            out_free_at: vec![0; n_routers * ports],
            occ: vec![0; n_routers * occ_words],
            occ_words,
            ports,
            vnets,
            num_locals,
            coords,
            links,
            links_nbi,
            inj_occ: vec![0; inj_occ_words],
            arb_lite,
            node_ports,
            inj_queues,
            queued_total: 0,
            arrivals: CalendarQueue::new(horizon),
            cycle: 0,
            next_packet_id: 0,
            stats,
            net: NetSnapshot::default(),
            in_flight_per_router: in_flight,
            tx_ends: CalendarCounter::new(horizon),
            active_mesh_tx: 0,
            inflight_create_sum: 0,
            inflight_count: 0,
            period_lat_sum: 0,
            period_delivered: 0,
            grant_log: None,
            trace: None,
            arrival_scratch: Vec::new(),
            inj_scratch: Vec::new(),
            arb: Some(Box::default()),
            route_cacheable,
            faults: None,
            checker: None,
            leak_at: None,
            vc_ctl: None,
            misbehave_at: None,
            lat_ema_q16: 0,
            recov_baseline_q16: 0,
            recov_onset_cycle: 0,
            recov_pending: false,
            first_onset_cycle: u64::MAX,
            fault_active_prev: false,
        })
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The traffic source (e.g. to read workload completion times).
    pub fn traffic(&self) -> &T {
        &self.traffic
    }

    /// Mutable access to the traffic source.
    pub fn traffic_mut(&mut self) -> &mut T {
        &mut self.traffic
    }

    /// The installed arbitration policy.
    pub fn arbiter(&self) -> &dyn Arbiter {
        self.arbiter.as_ref()
    }

    /// Clears statistics (e.g. after a warm-up phase). Does not disturb
    /// in-flight packets or buffers. Recovery-episode tracking is
    /// re-scoped to the new window: an episode *in flight* at the reset
    /// (faults already active — the common case when a plan's onsets land
    /// during warm-up) is re-opened as of the reset cycle, counting as
    /// one onset in the fresh window while keeping the healthy latency
    /// baseline snapshotted at its true onset. A recovery closing inside
    /// the window therefore always has a matching onset, and its duration
    /// is charged only from the window start. (The latency EMA and the
    /// fault-activity edge detector carry across, since they describe the
    /// network, not the window.)
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new(
            self.cfg.num_vnets,
            self.topo.num_nodes(),
            self.topo.num_links(),
        );
        self.first_onset_cycle = u64::MAX;
        if self.recov_pending {
            self.stats.fault_onsets = 1;
            self.recov_onset_cycle = self.cycle;
            self.first_onset_cycle = self.cycle;
        }
        if let Some(ck) = &mut self.checker {
            ck.on_reset_stats();
        }
    }

    /// Installs a deterministic fault plan (see [`FaultPlan`]). An empty
    /// plan uninstalls the subsystem entirely, which is bit-identical to
    /// never having called this method.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] for this topology.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(Box::new(FaultRuntime::new(
                plan,
                &self.topo,
                self.cfg.num_vnets,
            )))
        };
    }

    /// Enables the opt-in runtime invariant checker (see
    /// [`crate::InvariantChecker`]). The checker keeps redundant books
    /// alongside the simulator's own accounting and records every
    /// divergence as a structured [`InvariantViolation`] instead of
    /// panicking; query results with
    /// [`Simulator::invariant_violations`] or
    /// [`Simulator::check_invariants`]. It never perturbs the
    /// simulation: a checked run produces bit-identical statistics to an
    /// unchecked one.
    ///
    /// The per-flow in-order delivery check is only armed when the
    /// configured routing is deterministic
    /// ([`RoutingKind::is_deterministic`]) — adaptive routing may
    /// legitimately reorder a flow.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already advanced past cycle 0; the
    /// checker's books must observe every event from the start.
    pub fn enable_invariant_checker(&mut self) {
        assert_eq!(
            self.cycle, 0,
            "enable the invariant checker before the first step"
        );
        let check_order = self.cfg.routing.is_deterministic();
        self.checker = Some(Box::new(InvariantChecker::new(
            self.topo.num_routers(),
            self.topo.ports_per_router(),
            self.cfg.num_vnets,
            check_order,
        )));
    }

    /// Invariant violations recorded so far (empty when the checker is
    /// disabled or the run is clean). The list is capped; see
    /// [`Simulator::total_invariant_violations`] for the full count.
    pub fn invariant_violations(&self) -> &[InvariantViolation] {
        self.checker.as_ref().map_or(&[], |ck| ck.violations())
    }

    /// Every violation detected, including those past the recording cap.
    pub fn total_invariant_violations(&self) -> u64 {
        self.checker.as_ref().map_or(0, |ck| ck.total_violations())
    }

    /// `Ok` when no invariant was violated (or the checker is disabled);
    /// otherwise the recorded violations as a [`SimError`].
    pub fn check_invariants(&self) -> Result<(), SimError> {
        let vs = self.invariant_violations();
        if vs.is_empty() {
            Ok(())
        } else {
            Err(SimError::InvariantsViolated(vs.to_vec()))
        }
    }

    /// Test-only bug seed: at `cycle`, reserve one flit of credit on the
    /// first input VC that has room *without* telling the invariant
    /// checker — a deliberate credit leak the conformance harness must
    /// catch as a `CreditMismatch`. Kept in the public API (hidden from
    /// docs) so out-of-crate conformance tests can arm it.
    #[doc(hidden)]
    pub fn debug_inject_credit_leak(&mut self, cycle: u64) {
        self.leak_at = Some(cycle);
    }

    /// Test-only bug seed: at `cycle`, corrupt one credit book the way a
    /// buffer controller that bypassed the withhold interface and wrote
    /// the books directly would — the occupancy-integrity invariant
    /// (`OccupancyMismatch`) must catch it the same cycle. Kept in the
    /// public API (hidden from docs) so out-of-crate conformance tests
    /// can arm it (see [`Simulator::debug_inject_credit_leak`]).
    #[doc(hidden)]
    pub fn debug_misbehaving_controller(&mut self, cycle: u64) {
        self.misbehave_at = Some(cycle);
    }

    /// Installs a [`BufferController`] — the second learned decision
    /// point, reallocating per-VC credit budgets each control epoch
    /// through the VC-shrink actuation path. `None`-like removal is not
    /// supported; construct a fresh simulator instead.
    ///
    /// The controller's proposals are clamped by the simulator so the
    /// combined fault-plus-controller squeeze always leaves
    /// `max_packet_flits` of advertiseable capacity beyond what the
    /// fault plan takes (see the `vc_control` module docs for
    /// the safety argument).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already advanced past cycle 0.
    pub fn set_buffer_controller(&mut self, ctl: Box<dyn BufferController>) {
        assert_eq!(
            self.cycle, 0,
            "install the buffer controller before the first step"
        );
        let n = self.bufs.num_buffers();
        self.vc_ctl = Some(Box::new(CtlRuntime {
            ctl,
            withhold: vec![0; n],
            fault_shrink: vec![0; n],
            usage: Vec::new(),
            proposal: Vec::new(),
            epochs_run: 0,
        }));
    }

    /// Starts recording every grant; used by tests and analysis tools.
    pub fn enable_grant_log(&mut self) {
        self.grant_log = Some(Vec::new());
    }

    /// Grants recorded since [`Simulator::enable_grant_log`], if enabled.
    pub fn grant_log(&self) -> Option<&[Grant]> {
        self.grant_log.as_deref()
    }

    /// Starts per-packet event tracing with an event budget (see
    /// [`PacketTrace`]).
    pub fn enable_packet_trace(&mut self, capacity: usize) {
        self.trace = Some(PacketTrace::new(capacity));
    }

    /// The packet trace, if tracing was enabled.
    pub fn packet_trace(&self) -> Option<&PacketTrace> {
        self.trace.as_ref()
    }

    fn trace_event(&mut self, cycle: u64, packet_id: u64, kind: TraceKind) {
        if let Some(t) = &mut self.trace {
            t.record(TraceEvent {
                cycle,
                packet_id,
                kind,
            });
        }
    }

    /// Number of packets currently inside the network (injected, not yet
    /// delivered).
    pub fn in_flight(&self) -> u64 {
        self.inflight_count
    }

    /// Packets waiting in source injection queues.
    pub fn queued_at_sources(&self) -> usize {
        self.queued_total as usize
    }

    /// Flat buffer index of `(router, port, vnet)` in the SoA store.
    #[inline(always)]
    fn bi(&self, router: usize, port: usize, vnet: usize) -> usize {
        (router * self.ports + port) * self.vnets + vnet
    }

    /// Marks VC slot `in_port * vnets + vnet` of `router` occupied.
    #[inline(always)]
    fn occ_set(&mut self, router: usize, slot: usize) {
        self.occ[router * self.occ_words + slot / 64] |= 1u64 << (slot % 64);
    }

    /// Marks VC slot `in_port * vnets + vnet` of `router` empty.
    #[inline(always)]
    fn occ_clear(&mut self, router: usize, slot: usize) {
        self.occ[router * self.occ_words + slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Counts buffered packets whose local age exceeds the configured
    /// starvation threshold, and records the result in the statistics.
    pub fn starving_packets(&mut self) -> u64 {
        let mut n = 0;
        for bi in 0..self.bufs.num_buffers() {
            for bp in self.bufs.iter(bi) {
                if bp.local_age(self.cycle) > self.cfg.starvation_threshold {
                    n += 1;
                }
            }
        }
        self.stats.starving_now = n;
        n
    }

    /// Stamps the end-of-run residuals into the statistics: packets that
    /// never drained stay visible in [`SimStats::in_flight_at_end`] /
    /// [`SimStats::queued_at_end`] instead of silently vanishing from the
    /// accounting at the horizon.
    fn stamp_residuals(&mut self) {
        self.stats.in_flight_at_end = self.inflight_count;
        self.stats.queued_at_end = self.queued_at_sources() as u64;
    }

    /// Runs `cycles` simulation cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
        self.stamp_residuals();
        SIMULATED_CYCLES.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Runs until the traffic source reports completion and the network has
    /// fully drained, or `max_cycles` elapse. Returns `true` if the workload
    /// completed.
    pub fn run_until_done(&mut self, max_cycles: u64) -> bool {
        let start = self.cycle;
        let mut done = false;
        while self.cycle < max_cycles {
            if self.traffic.is_done(self.cycle)
                && self.inflight_count == 0
                && self.queued_at_sources() == 0
            {
                done = true;
                break;
            }
            self.step();
        }
        self.stamp_residuals();
        SIMULATED_CYCLES.fetch_add(self.cycle - start, Ordering::Relaxed);
        done || (self.traffic.is_done(self.cycle)
            && self.inflight_count == 0
            && self.queued_at_sources() == 0)
    }

    /// Advances the simulation by one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the traffic source produces an invalid injection request
    /// (unknown node, vnet out of range, or over-length packet).
    pub fn step(&mut self) {
        let cycle = self.cycle;

        // Phase 0: expire finished link transmissions.
        self.active_mesh_tx -= self.tx_ends.take_due(cycle);

        // Phase 0b (faults only): apply VC-shrink window boundaries and run
        // the starvation watchdog. The take/put-back dance lets the runtime
        // borrow coexist with mutation of router buffers.
        if self.faults.is_some() {
            self.fault_phase(cycle);
        }

        // Phase 0c (buffer controller only): at control-epoch boundaries,
        // let the installed controller propose per-VC credit withholds and
        // actuate the clamped result through the shrink machinery.
        if self.vc_ctl.is_some() {
            self.control_phase(cycle);
        }

        // Phase 1: land packets that arrive this cycle.
        let mut list = std::mem::take(&mut self.arrival_scratch);
        self.arrivals.drain_due_into(cycle, &mut list);
        for a in list.drain(..) {
            match a {
                Arrival::Router {
                    router,
                    in_port,
                    vnet,
                    packet,
                } => {
                    if let Some(ck) = &mut self.checker {
                        ck.on_arrival(router.index(), in_port, vnet, packet.len_flits);
                    }
                    let r = router.index();
                    let bi = self.bi(r, in_port, vnet);
                    self.bufs.push_arrival(bi, packet, cycle);
                    self.occ_set(r, in_port * self.vnets + vnet);
                }
                Arrival::Node { packet } => self.deliver(packet, cycle),
                Arrival::CreditReturn {
                    router,
                    in_port,
                    vnet,
                    len,
                } => {
                    if let Some(ck) = &mut self.checker {
                        ck.on_credit_return(router.index(), in_port, vnet, len);
                    }
                    let bi = self.bi(router.index(), in_port, vnet);
                    self.bufs.unreserve(bi, len);
                    self.stats.fault_credits_reconciled += len as u64;
                }
            }
        }
        self.arrival_scratch = list;

        // Phase 2: create new traffic.
        let mut reqs = std::mem::take(&mut self.inj_scratch);
        self.traffic.pull_into(cycle, &self.net, &mut reqs);
        for req in reqs.drain(..) {
            let pkt = self.make_packet(req, cycle);
            self.stats.created += 1;
            if let Some(ck) = &mut self.checker {
                ck.on_created();
            }
            self.trace_event(cycle, pkt.id, TraceKind::Created);
            let qi = pkt.src.index() * self.vnets + pkt.vnet;
            self.inj_queues[qi].push_back(pkt);
            self.inj_occ[qi / 64] |= 1 << (qi % 64);
            self.queued_total += 1;
        }
        self.inj_scratch = reqs;

        // Phase 3: drain injection queues into local input VCs (one packet
        // per node per vnet per cycle). Skipped outright when every source
        // queue is empty — no observable state can change.
        if self.queued_total > 0 {
            // Walk only the queues the bitmap marks non-empty; bit order is
            // `node * vnets + vnet` ascending, the same order as the full
            // nested scan.
            for w in 0..self.inj_occ.len() {
                let mut word = self.inj_occ[w];
                while word != 0 {
                    let qi = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let node_idx = qi / self.vnets;
                    let vnet = qi % self.vnets;
                    let (r, port) = self.node_ports[node_idx];
                    let front = self.inj_queues[qi].front().expect("bitmap tracks non-empty");
                    let len = front.len_flits;
                    let bi = self.bi(r, port, vnet);
                    if !self.bufs.can_reserve(bi, len) {
                        continue;
                    }
                    let mut pkt = self.inj_queues[qi].pop_front().unwrap();
                    if self.inj_queues[qi].is_empty() {
                        self.inj_occ[w] &= !(1 << (qi % 64));
                    }
                    self.queued_total -= 1;
                    pkt.inject_cycle = cycle;
                    self.stats.injected += 1;
                    self.in_flight_per_router[pkt.src_router.index()] += 1;
                    self.inflight_create_sum += pkt.create_cycle as u128;
                    self.inflight_count += 1;
                    let pkt_id = pkt.id;
                    self.bufs.push_injection(bi, pkt, cycle);
                    self.occ_set(r, port * self.vnets + vnet);
                    self.trace_event(cycle, pkt_id, TraceKind::Injected { router: RouterId(r) });
                }
            }
        }

        // Phase 4: refresh the periodic accumulated-latency statistic.
        if self.cfg.reward_period > 0 && cycle.is_multiple_of(self.cfg.reward_period) {
            let inflight_age_sum =
                (self.inflight_count as u128 * cycle as u128).saturating_sub(self.inflight_create_sum);
            let total = self.period_delivered + self.inflight_count;
            self.net.avg_accumulated_latency = if total == 0 {
                0.0
            } else {
                (self.period_lat_sum as f64 + inflight_age_sum as f64) / total as f64
            };
            self.period_lat_sum = 0;
            self.period_delivered = 0;
        }
        self.net.cycle = cycle;
        self.net.in_flight_packets = self.inflight_count as usize;

        // Phase 5: arbitrate each router (stalled routers sit the cycle
        // out; their buffered credit keeps neighbours back-pressured
        // rather than wedged).
        for r in 0..self.coords.len() {
            if self
                .faults
                .as_ref()
                .is_some_and(|fr| fr.router_stalled(r, cycle))
            {
                self.stats.stalled_router_cycles += 1;
                continue;
            }
            self.arbitrate_router(RouterId(r), cycle);
        }

        // Test-only bug seed: apply a pending credit leak behind the
        // checker's back (no-op unless armed by
        // `debug_inject_credit_leak`).
        if self.leak_at.is_some_and(|at| at <= cycle) {
            self.apply_debug_leak();
        }
        if self.misbehave_at.is_some_and(|at| at <= cycle) {
            self.apply_debug_misbehave();
        }

        // Invariant sweep (checker only): cross-check every buffer and the
        // global conservation books after the cycle's state changes.
        if self.checker.is_some() {
            self.invariant_phase(cycle);
        }

        // Phase 6: close out the cycle.
        self.stats.link_busy_cycles += self.active_mesh_tx as u64;
        self.net.link_utilization_prev =
            self.active_mesh_tx as f64 / self.topo.num_links().max(1) as f64;
        self.arbiter.end_cycle(&self.net);
        self.stats.cycles += 1;
        self.cycle += 1;
    }

    /// Reserves one flit on the first input VC with room, without telling
    /// the invariant checker — the deliberate bug armed by
    /// [`Simulator::debug_inject_credit_leak`]. Stays armed until a
    /// buffer with free space is found.
    fn apply_debug_leak(&mut self) {
        // Flat index order is (router, port, vnet) ascending — the same
        // walk as the old nested-struct layout.
        for bi in 0..self.bufs.num_buffers() {
            if self.bufs.can_reserve(bi, 1) {
                self.bufs.reserve(bi, 1);
                self.leak_at = None;
                return;
            }
        }
    }

    /// Counts one phantom used flit on the first buffer's credit book —
    /// the deliberate accounting corruption armed by
    /// [`Simulator::debug_misbehaving_controller`], modelling a buffer
    /// controller that wrote the books directly instead of going through
    /// the withhold interface. The checker's occupancy sweep must flag
    /// the buffer as an `OccupancyMismatch` this same cycle.
    fn apply_debug_misbehave(&mut self) {
        self.bufs.debug_corrupt_used(0);
        self.misbehave_at = None;
    }

    /// Buffer-control bookkeeping run once per cycle while a controller is
    /// installed: at control-epoch boundaries the controller sees fresh
    /// per-VC telemetry and proposes withholds, which are clamped
    /// ([`clamp_withhold`]) and composed with the fault plan's current
    /// shrink before actuation. The take/put-back dance mirrors
    /// `fault_phase`.
    fn control_phase(&mut self, cycle: u64) {
        let Some(mut c) = self.vc_ctl.take() else { return };
        let epoch = c.ctl.control_epoch().max(1);
        if cycle.is_multiple_of(epoch) {
            let n = self.bufs.num_buffers();
            let cap = self.bufs.capacity_flits();
            c.usage.clear();
            for bi in 0..n {
                let (used, reserved, _) = self.bufs.book_state(bi);
                c.usage.push(VcUsage {
                    used,
                    reserved,
                    fault_shrink: c.fault_shrink[bi],
                    capacity: cap,
                });
            }
            c.proposal.clear();
            c.proposal.resize(n, 0);
            c.ctl.reallocate(cycle, &c.usage, &mut c.proposal);
            c.epochs_run += 1;
            let max_flits = self.cfg.max_packet_flits;
            for bi in 0..n {
                c.withhold[bi] =
                    clamp_withhold(c.proposal[bi], c.fault_shrink[bi], cap, max_flits);
                self.bufs.set_shrink(bi, c.fault_shrink[bi] + c.withhold[bi]);
            }
        }
        self.vc_ctl = Some(c);
    }

    /// Invariant bookkeeping run once per cycle while the checker is
    /// enabled. The take/put-back dance lets the checker borrow coexist
    /// with reads of router buffers (same pattern as `fault_phase`).
    fn invariant_phase(&mut self, cycle: u64) {
        let Some(mut ck) = self.checker.take() else { return };
        for bi in 0..self.bufs.num_buffers() {
            ck.check_buffer(cycle, &self.bufs, bi);
        }
        let queued = self.queued_at_sources() as u64;
        ck.check_global(cycle, &self.stats, self.inflight_count, queued);
        self.checker = Some(ck);
    }

    /// Fault bookkeeping run once per cycle while a plan is installed:
    /// VC-shrink boundaries crossing this cycle are applied to the affected
    /// buffers, and the periodic starvation watchdog surfaces wedged ports
    /// into [`SimStats`] so degraded runs degrade visibly instead of
    /// hanging silently.
    fn fault_phase(&mut self, cycle: u64) {
        let Some(fr) = self.faults.take() else { return };
        let mut ctl = self.vc_ctl.take();
        let (ports, vnets) = (self.ports, self.vnets);
        let (cap, max_flits) = (self.bufs.capacity_flits(), self.cfg.max_packet_flits);
        fr.shrink_updates(cycle, |router, port, shrink| {
            let base = (router * ports + port) * vnets;
            for v in 0..vnets {
                let bi = base + v;
                match &mut ctl {
                    // With a controller installed the actuated shrink is
                    // the composition of both squeezes; a fault change
                    // re-clamps the standing withhold so the headroom
                    // guarantee survives the new fault state.
                    Some(c) => {
                        c.fault_shrink[bi] = shrink;
                        c.withhold[bi] =
                            clamp_withhold(c.withhold[bi], shrink, cap, max_flits);
                        self.bufs.set_shrink(bi, shrink + c.withhold[bi]);
                    }
                    None => self.bufs.set_shrink(bi, shrink),
                }
            }
        });
        self.vc_ctl = ctl;
        if fr.watchdog_due(cycle) {
            let mut wedged = 0;
            for r in 0..self.coords.len() {
                for p in 0..ports {
                    let base = (r * ports + p) * vnets;
                    let starving = (0..vnets).any(|v| {
                        self.bufs
                            .head(base + v)
                            .is_some_and(|bp| bp.local_age(cycle) > self.cfg.starvation_threshold)
                    });
                    if starving {
                        wedged += 1;
                    }
                }
            }
            self.stats.wedged_ports = wedged;
            if wedged > 0 {
                self.stats.watchdog_fires += 1;
            }
        }
        // Recovery-episode accounting: a rising edge of "any fault event
        // active" opens an episode and snapshots the latency EMA as the
        // healthy baseline; once every event has ended, the episode closes
        // (counts as recovered) when the EMA returns to within 12.5% of
        // that baseline, plus an absolute slack of 8 cycles. The slack
        // matters when the onset lands early in a run: the EMA has not
        // yet converged up to its steady-state value, and a purely
        // multiplicative threshold around that too-low snapshot would sit
        // *below* the healthy network's own latency, making recovery
        // unreachable no matter how completely the network heals.
        // Integer-only Q48.16 arithmetic keeps this bit-deterministic.
        let active = fr.any_active(cycle);
        if active && !self.fault_active_prev && !self.recov_pending {
            self.stats.fault_onsets += 1;
            self.recov_pending = true;
            self.recov_onset_cycle = cycle;
            // A zero EMA (nothing delivered yet) would make recovery
            // unreachable; floor the baseline at one cycle of latency.
            self.recov_baseline_q16 = self.lat_ema_q16.max(1 << 16);
            self.first_onset_cycle = self.first_onset_cycle.min(cycle);
        }
        if self.recov_pending
            && !active
            && self.lat_ema_q16
                <= self.recov_baseline_q16 + self.recov_baseline_q16 / 8 + (8 << 16)
        {
            self.stats.recoveries += 1;
            self.stats.recovery_cycles_total += cycle - self.recov_onset_cycle;
            self.recov_pending = false;
        }
        self.fault_active_prev = active;
        self.faults = Some(fr);
    }

    fn make_packet(&mut self, req: InjectionRequest, cycle: u64) -> Packet {
        assert!(
            req.src.index() < self.topo.num_nodes() && req.dst.index() < self.topo.num_nodes(),
            "injection references unknown node ({} or {})",
            req.src,
            req.dst
        );
        assert!(
            req.vnet < self.cfg.num_vnets,
            "injection vnet {} out of range ({} vnets)",
            req.vnet,
            self.cfg.num_vnets
        );
        assert!(
            req.len_flits >= 1 && req.len_flits <= self.cfg.max_packet_flits,
            "injection length {} flits outside [1, {}]",
            req.len_flits,
            self.cfg.max_packet_flits
        );
        let src_node = self.topo.node(req.src);
        let dst_node = self.topo.node(req.dst);
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Packet {
            id,
            src: req.src,
            dst: req.dst,
            vnet: req.vnet,
            msg_type: req.msg_type,
            dst_type: req.dst_type,
            len_flits: req.len_flits,
            create_cycle: cycle,
            inject_cycle: cycle,
            src_router: src_node.router,
            dst_router: dst_node.router,
            dst_slot: dst_node.slot,
            hop_count: 0,
            distance: self.topo.hop_distance(src_node.router, dst_node.router),
            tag: req.tag,
        }
    }

    fn deliver(&mut self, packet: Packet, cycle: u64) {
        let latency = cycle - packet.create_cycle;
        self.stats.delivered += 1;
        self.stats.total_latency += latency;
        self.stats.total_network_latency += cycle - packet.inject_cycle;
        self.stats.total_hops += packet.hop_count as u64;
        self.stats.latencies.push(latency);
        self.stats.delivered_per_vnet[packet.vnet] += 1;
        self.stats.delivered_per_node[packet.src.index()] += 1;
        self.in_flight_per_router[packet.src_router.index()] -= 1;
        self.inflight_create_sum -= packet.create_cycle as u128;
        self.inflight_count -= 1;
        self.period_lat_sum += latency;
        self.period_delivered += 1;
        // Latency EMA (α = 1/16) feeding the recovery detector; updated
        // unconditionally so the pre-onset baseline is already warm when a
        // fault fires. Q48.16 fixed point: overflow-safe for any
        // realistic latency (< 2^43 cycles).
        self.lat_ema_q16 = (self.lat_ema_q16 * 15 + (latency << 16)) / 16;
        if cycle >= self.first_onset_cycle {
            self.stats.post_fault_delivered += 1;
            self.stats.post_fault_latency_total += latency;
        }
        if let Some(ck) = &mut self.checker {
            ck.on_delivered(cycle, &packet);
        }
        self.traffic.on_delivered(&packet, cycle);
    }

    /// Routes a head packet to its output port under the configured
    /// routing function.
    #[inline]
    fn route_port(&self, router: RouterId, dst_router: RouterId, dst_slot: u8, vnet: usize) -> usize {
        match self.cfg.routing {
            RoutingKind::XY => {
                // Inlined X-Y over the precomputed coordinate table — the
                // same decision as [`crate::routing::route_xy`], mapped to
                // the shared port numbering, without per-call div/mod.
                let c = self.coords[router.index()];
                let d = self.coords[dst_router.index()];
                if c.x < d.x {
                    self.num_locals + 3 // East
                } else if c.x > d.x {
                    self.num_locals + 2 // West
                } else if c.y < d.y {
                    self.num_locals + 1 // South
                } else if c.y > d.y {
                    self.num_locals // North
                } else {
                    self.topo.port_index(PortDir::Local(dst_slot))
                }
            }
            RoutingKind::WestFirstAdaptive => {
                // Congestion estimate: occupied + reserved flits in the
                // downstream input VC of this vnet (more = worse).
                let congestion = |dir: PortDir| -> u32 {
                    let p = self.topo.port_index(dir);
                    match self.links[router.index() * self.ports + p] {
                        Some((next, in_port)) => {
                            let bi = (next * self.ports + in_port) * self.vnets + vnet;
                            self.bufs.capacity_flits() - self.bufs.free_flits(bi)
                        }
                        None => u32::MAX, // edge: never pick a missing link
                    }
                };
                match route_west_first(&self.topo, router, dst_router, dst_slot, congestion) {
                    RouteStep::Forward(dir) => self.topo.port_index(dir),
                    RouteStep::Eject(slot) => self.topo.port_index(PortDir::Local(slot)),
                }
            }
            kind @ (RoutingKind::TorusDimOrder
            | RoutingKind::RingShortest
            | RoutingKind::TableShortest) => {
                match route_deterministic(kind, &self.topo, router, dst_router, dst_slot) {
                    RouteStep::Forward(dir) => self.topo.port_index(dir),
                    RouteStep::Eject(slot) => self.topo.port_index(PortDir::Local(slot)),
                }
            }
        }
    }

    /// True when a packet of `len` flits can be launched from `router`
    /// through `out_port` (downstream credit available and the link is not
    /// down).
    #[inline]
    fn downstream_ready(
        &self,
        router: RouterId,
        out_port: usize,
        vnet: usize,
        len: u32,
        cycle: u64,
    ) -> bool {
        if out_port < self.num_locals {
            return true; // ejection: nodes always sink
        }
        if self
            .faults
            .as_ref()
            .is_some_and(|fr| fr.link_down(router, out_port, cycle))
        {
            return false; // link down: no credit visible for the window
        }
        let nbi = self.links_nbi[router.index() * self.ports + out_port];
        if nbi == u32::MAX {
            return false; // disconnected edge port; packets never route here
        }
        self.bufs.can_reserve(nbi as usize + vnet, len)
    }

    fn arbitrate_router(&mut self, router: RouterId, cycle: u64) {
        let r = router.index();
        let occ_base = r * self.occ_words;
        // Fast skip: a router with no buffered packets builds an empty
        // request matrix, which the old layout early-returned on anyway.
        let mut any_occ = 0u64;
        for w in 0..self.occ_words {
            any_occ |= self.occ[occ_base + w];
        }
        if any_occ == 0 {
            return;
        }
        let ports = self.ports;
        let vnets = self.vnets;
        let out_base = r * ports;
        let mut scratch = self.arb.take().expect("arb scratch is always restored");
        debug_assert!(scratch.outputs.is_empty());
        if scratch.buckets.len() < ports {
            scratch.buckets.resize_with(ports, Vec::new);
        }
        // Pass 1 over the occupied VCs in ascending (in_port, vnet) order:
        // gate each head (fault hold, output busy, downstream credit) and
        // collect a compact request record per eligible head. Nothing
        // mutates while the request matrix is built, so each head's route
        // is the same for every output port — compute it once. Full
        // `Candidate`s (with the Table-2 feature vector) are only
        // materialised in pass 2 for *contended* outputs; sole requesters
        // are granted directly (paper §4.5) and never reach the policy.
        scratch.reqs.clear();
        scratch.counts.clear();
        scratch.counts.resize(ports, 0);
        scratch.first_req.clear();
        scratch.first_req.resize(ports, u32::MAX);
        let faulty = self.faults.is_some();
        for w in 0..self.occ_words {
            let mut word = self.occ[occ_base + w];
            while word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let in_port = slot / vnets;
                let vnet = slot % vnets;
                if faulty
                    && self
                        .faults
                        .as_ref()
                        .is_some_and(|fr| fr.held(router, in_port, vnet, cycle))
                {
                    continue; // transient-fault retry backoff: sit this cycle out
                }
                let bi = (r * ports + in_port) * vnets + vnet;
                debug_assert!(self.bufs.head(bi).is_some(), "occupied VC has a head");
                // The hot mirror carries exactly the head fields this scan
                // needs (one cache line) — the full `BufferedPacket` is only
                // touched again for contended outputs in pass 2.
                let hot = self.bufs.hots[bi];
                let len = hot.len_flits;
                // Under deterministic routing the head's route is a pure
                // function of the head packet, so it is cached in the hot
                // entry and reset whenever the head changes; adaptive
                // routing reads live congestion and always recomputes.
                let out_port = if self.route_cacheable && hot.route != u8::MAX {
                    hot.route as usize
                } else {
                    let p = self.route_port(
                        router,
                        RouterId(hot.dst_router as usize),
                        hot.dst_slot,
                        vnet,
                    );
                    if self.route_cacheable {
                        self.bufs.hots[bi].route = p as u8;
                    }
                    p
                };
                if self.out_free_at[out_base + out_port] > cycle {
                    continue;
                }
                if !self.downstream_ready(router, out_port, vnet, len, cycle) {
                    continue;
                }
                let local_age = cycle.saturating_sub(hot.arrival_cycle);
                self.stats.max_local_age = self.stats.max_local_age.max(local_age);
                if scratch.counts[out_port] == 0 {
                    scratch.first_req[out_port] = scratch.reqs.len() as u32;
                }
                scratch.counts[out_port] += 1;
                scratch.reqs.push(GrantReq {
                    local_age,
                    bi: bi as u32,
                    len,
                    out_port: out_port as u8,
                    in_port: in_port as u8,
                    vnet: vnet as u8,
                    slot: slot as u8,
                });
            }
        }
        if scratch.reqs.is_empty() {
            self.arb = Some(scratch);
            return;
        }

        // Pass 2: materialise the full request matrix for contended outputs
        // only. Requests iterate in the pass-1 (in_port, vnet) order, so
        // each bucket keeps the same candidate order the one-pass build
        // produced.
        let mut any_multi = false;
        for qi in 0..scratch.reqs.len() {
            let q = scratch.reqs[qi];
            let q_out = q.out_port as usize;
            if scratch.counts[q_out] < 2 {
                continue;
            }
            any_multi = true;
            let port_degraded = faulty
                && self
                    .faults
                    .as_ref()
                    .is_some_and(|fr| fr.link_degraded(router, q_out, cycle));
            let cand = if self.arb_lite {
                // The policy declared (via `Arbiter::wants_features`) that
                // it only reads the ordering keys: fill those from the hot
                // mirrors and leave the Table-2 feature vector zeroed
                // rather than touching the full buffered packet.
                let aux = self.bufs.auxs[q.bi as usize];
                Candidate {
                    in_port: q.in_port as usize,
                    vnet: q.vnet as usize,
                    slot: q.slot as usize,
                    features: Features {
                        payload_size: q.len,
                        local_age: q.local_age,
                        ..Features::default()
                    },
                    packet_id: aux.id,
                    create_cycle: aux.create_cycle,
                    arrival_cycle: cycle - q.local_age,
                    src: NodeId(0),
                    dst: NodeId(0),
                    port_degraded,
                }
            } else {
                let bp = self
                    .bufs
                    .head(q.bi as usize)
                    .expect("requesting buffer has a head");
                Candidate {
                    in_port: q.in_port as usize,
                    vnet: q.vnet as usize,
                    slot: q.slot as usize,
                    features: Features {
                        payload_size: bp.packet.len_flits,
                        local_age: q.local_age,
                        distance: bp.packet.distance,
                        hop_count: bp.packet.hop_count,
                        in_flight_from_src: self.in_flight_per_router
                            [bp.packet.src_router.index()],
                        inter_arrival: bp.inter_arrival,
                        msg_type: bp.packet.msg_type,
                        dst_type: bp.packet.dst_type,
                    },
                    packet_id: bp.packet.id,
                    create_cycle: bp.packet.create_cycle,
                    arrival_cycle: bp.arrival_cycle,
                    src: bp.packet.src,
                    dst: bp.packet.dst,
                    port_degraded,
                }
            };
            scratch.buckets[q_out].push(cand);
        }
        if any_multi {
            for (out_port, bucket) in scratch.buckets.iter_mut().enumerate().take(ports) {
                if bucket.is_empty() {
                    continue;
                }
                let fresh = scratch.spare.pop().unwrap_or_default();
                scratch.outputs.push((out_port, std::mem::replace(bucket, fresh)));
            }
            self.arbiter.plan_router(&RouterCtx {
                router,
                cycle,
                num_ports: ports,
                num_vnets: self.cfg.num_vnets,
                outputs: &scratch.outputs,
                net: &self.net,
            });
        }

        let mut granted_inputs: u64 = 0;
        let mut out_idx = 0;
        for out_port in 0..ports {
            let cnt = scratch.counts[out_port];
            if cnt == 0 {
                continue;
            }
            let grant = if cnt == 1 {
                // Single requester: grant directly without querying the
                // policy (paper §4.5).
                let q = scratch.reqs[scratch.first_req[out_port] as usize];
                if granted_inputs & (1 << q.in_port) != 0 {
                    continue; // its input was granted to an earlier output
                }
                q
            } else {
                let ArbScratch { outputs, avail, .. } = &mut *scratch;
                debug_assert_eq!(outputs[out_idx].0, out_port);
                let bucket = &outputs[out_idx].1;
                out_idx += 1;
                // Filtering out already-granted inputs usually removes
                // nothing, so borrow the bucket in place and only copy when
                // it does.
                let cands: &[Candidate] = if granted_inputs != 0
                    && bucket.iter().any(|c| granted_inputs & (1 << c.in_port) != 0)
                {
                    avail.clear();
                    for c in bucket {
                        if granted_inputs & (1 << c.in_port) == 0 {
                            avail.push(c.clone());
                        }
                    }
                    avail
                } else {
                    bucket
                };
                if cands.is_empty() {
                    continue;
                }
                let choice = if cands.len() == 1 {
                    // Down to a sole requester after filtering: direct grant.
                    Some(0)
                } else {
                    self.stats.arbiter_queries += 1;
                    let ctx = OutputCtx {
                        router,
                        out_port,
                        cycle,
                        num_ports: ports,
                        num_vnets: self.cfg.num_vnets,
                        candidates: cands,
                        net: &self.net,
                    };
                    self.arbiter.select(&ctx).filter(|&i| i < cands.len())
                };
                let Some(i) = choice else { continue };
                let winner = &cands[i];
                GrantReq {
                    local_age: winner.features.local_age,
                    bi: ((r * ports + winner.in_port) * vnets + winner.vnet) as u32,
                    len: winner.features.payload_size,
                    out_port: out_port as u8,
                    in_port: winner.in_port as u8,
                    vnet: winner.vnet as u8,
                    slot: winner.slot as u8,
                }
            };
            granted_inputs |= 1 << grant.in_port;
            // A transient link fault corrupts the transmission: the grant
            // attempt consumes bandwidth and credit but the packet stays
            // queued for retry.
            if self
                .faults
                .as_ref()
                .is_some_and(|fr| fr.transient_active(router, out_port, cycle))
            {
                self.fail_grant(router, out_port, grant, cycle);
            } else {
                self.apply_grant(router, out_port, grant, cycle);
            }
        }

        // Return candidate buffers to the pool for the next router/cycle.
        for (_, mut cands) in scratch.outputs.drain(..) {
            cands.clear();
            scratch.spare.push(cands);
        }
        self.arb = Some(scratch);
    }

    /// A grant attempt hit a transiently faulty link: the flits leave the
    /// output but are corrupted on the wire. The packet never leaves its
    /// input buffer; the output port stays busy for the full serialization
    /// window, the downstream credit consumed by the corrupt transmission
    /// is recovered when the reconciliation message lands
    /// ([`Arrival::CreditReturn`]), and the buffer backs off with bounded
    /// exponential retry.
    fn fail_grant(&mut self, router: RouterId, out_port: usize, winner: GrantReq, cycle: u64) {
        let len = winner.len;
        self.stats.link_fault_drops += 1;
        self.out_free_at[router.index() * self.ports + out_port] = cycle + len as u64;
        // Off the hot path (transient faults only): read the id back from
        // the still-buffered head rather than carrying it in every request.
        let packet_id = self
            .bufs
            .head(winner.bi as usize)
            .expect("failed grant leaves the packet buffered")
            .packet
            .id;
        self.trace_event(
            cycle,
            packet_id,
            TraceKind::FaultDropped { router, out_port },
        );
        // `links` is `None` for both local ports and disconnected edges —
        // the two cases the old layout skipped separately.
        if let Some((next, in_port)) = self.links[router.index() * self.ports + out_port] {
            // The downstream credit is consumed exactly as a healthy
            // transmission would, then returned after one link
            // round-trip — stalled credit must not wedge the neighbour.
            self.bufs.reserve(self.bi(next, in_port, winner.vnet as usize), len);
            if let Some(ck) = &mut self.checker {
                ck.on_fault_reserve(next, in_port, winner.vnet as usize, len);
            }
            self.stats.fault_credits_reserved += len as u64;
            self.active_mesh_tx += 1;
            self.tx_ends.add(cycle + len as u64, 1);
            let at = cycle + (len as u64 - 1) + self.cfg.link_latency + self.cfg.router_latency;
            self.arrivals.schedule(
                at.max(cycle + 1),
                Arrival::CreditReturn {
                    router: RouterId(next),
                    in_port,
                    vnet: winner.vnet as usize,
                    len,
                },
            );
        }
        if let Some(fr) = &mut self.faults {
            fr.bump_retry(router, winner.in_port as usize, winner.vnet as usize, cycle);
        }
    }

    fn apply_grant(&mut self, router: RouterId, out_port: usize, winner: GrantReq, cycle: u64) {
        if let Some(fr) = &mut self.faults {
            fr.clear_retry(router, winner.in_port as usize, winner.vnet as usize);
        }
        let r = router.index();
        let src_bi = winner.bi as usize;
        let bp = self
            .bufs
            .pop(src_bi)
            .expect("granted buffer must be non-empty");
        if self.bufs.is_empty(src_bi) {
            self.occ_clear(r, winner.slot as usize);
        }
        let mut pkt = bp.packet;
        let len = pkt.len_flits;
        self.stats.grants += 1;
        if winner.local_age > self.cfg.starvation_threshold {
            self.stats.starved_grants += 1;
        }
        self.out_free_at[r * self.ports + out_port] = cycle + len as u64;
        if let Some(log) = &mut self.grant_log {
            log.push(Grant {
                router,
                out_port,
                in_port: winner.in_port as usize,
                vnet: winner.vnet as usize,
                packet_id: pkt.id,
            });
        }

        if out_port < self.num_locals {
            // Ejection.
            self.trace_event(cycle, pkt.id, TraceKind::Delivered { router });
            let at = cycle + (len as u64 - 1) + self.cfg.link_latency;
            self.arrivals
                .schedule(at.max(cycle + 1), Arrival::Node { packet: pkt });
        } else {
            self.trace_event(cycle, pkt.id, TraceKind::Forwarded { router, out_port });
            let (next, in_port) = self.links[r * self.ports + out_port]
                .expect("granted mesh port must be connected");
            self.bufs.reserve(self.bi(next, in_port, pkt.vnet), len);
            if let Some(ck) = &mut self.checker {
                ck.on_reserve(next, in_port, pkt.vnet, len);
            }
            pkt.hop_count += 1;
            self.stats.flits_on_links += len as u64;
            self.active_mesh_tx += 1;
            self.tx_ends.add(cycle + len as u64, 1);
            let at = cycle + (len as u64 - 1) + self.cfg.link_latency + self.cfg.router_latency;
            let vnet = pkt.vnet;
            self.arrivals.schedule(
                at.max(cycle + 1),
                Arrival::Router {
                    router: RouterId(next),
                    in_port,
                    vnet,
                    packet: pkt,
                },
            );
        }
    }
}

impl<T: TrafficSource> std::fmt::Debug for Simulator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("routers", &self.coords.len())
            .field("arbiter", &self.arbiter.name())
            .field("in_flight", &self.inflight_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiters::FifoArbiter;
    use crate::packet::InjectionRequest;
    use crate::traffic::{Pattern, SyntheticTraffic, TraceTraffic};
    use crate::types::{DestType, MsgType, NodeId};

    fn single_packet_sim(src: usize, dst: usize, len: u32) -> Simulator<TraceTraffic> {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let req = InjectionRequest {
            src: NodeId(src),
            dst: NodeId(dst),
            vnet: 0,
            msg_type: MsgType::Request,
            dst_type: DestType::Core,
            len_flits: len,
            tag: 7,
        };
        let traffic = TraceTraffic::new(vec![(0, req)]);
        Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap()
    }

    #[test]
    fn single_packet_is_delivered_with_expected_hops() {
        let mut sim = single_packet_sim(0, 15, 1);
        assert!(sim.run_until_done(1_000));
        let s = sim.stats();
        assert_eq!(s.created, 1);
        assert_eq!(s.injected, 1);
        assert_eq!(s.delivered, 1);
        // (0,0) → (3,3): 6 hops between routers.
        assert_eq!(s.total_hops, 6);
        assert_eq!(s.delivered_per_node[0], 1);
    }

    #[test]
    fn zero_load_latency_matches_pipeline_model() {
        // One hop: src router (0,0) → dst router (1,0), 1-flit packet.
        let mut sim = single_packet_sim(0, 1, 1);
        assert!(sim.run_until_done(100));
        // Injected at cycle 0; forwarded at 0 → arrives next router at
        // 0+0+1+2=3; ejected at 3 → delivered at 3+0+1=4.
        assert_eq!(sim.stats().latencies, vec![4]);
    }

    #[test]
    fn multi_flit_packet_occupies_output_longer() {
        let mut sim = single_packet_sim(0, 1, 5);
        assert!(sim.run_until_done(100));
        // Serialization adds len-1 = 4 cycles per hop: 4 + 4·2 = 12.
        assert_eq!(sim.stats().latencies, vec![12]);
        assert_eq!(sim.stats().flits_on_links, 5);
    }

    #[test]
    fn self_router_delivery_works() {
        // Node 0 and node 0's router: route to a node on the same router is
        // impossible with one node per router, so use 2-local mesh.
        let mut topo = Topology::mesh(2, 2, 2).unwrap();
        let a = topo.attach_node(RouterId(0), 0, DestType::Core).unwrap();
        let b = topo.attach_node(RouterId(0), 1, DestType::Cache).unwrap();
        let cfg = SimConfig::synthetic(2, 2);
        let req = InjectionRequest {
            src: a,
            dst: b,
            vnet: 0,
            msg_type: MsgType::Request,
            dst_type: DestType::Cache,
            len_flits: 1,
            tag: 0,
        };
        let traffic = TraceTraffic::new(vec![(0, req)]);
        let mut sim = Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        assert!(sim.run_until_done(100));
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().total_hops, 0);
    }

    #[test]
    fn conservation_packets_created_eq_delivered_plus_inflight() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.08, 3, 11);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.run(2_000);
        let s = sim.stats();
        assert!(s.delivered > 0);
        assert_eq!(
            s.created,
            s.delivered + sim.in_flight() + sim.queued_at_sources() as u64
        );
    }

    #[test]
    fn grant_log_records_forwarding() {
        let mut sim = single_packet_sim(0, 3, 1);
        sim.enable_grant_log();
        assert!(sim.run_until_done(100));
        let log = sim.grant_log().unwrap();
        // 3 router-to-router forwards + 1 ejection = 4 grants for (0,0)→(3,0).
        assert_eq!(log.len(), 4);
        assert!(log.iter().all(|g| g.packet_id == 0));
    }

    #[test]
    fn single_candidate_grants_bypass_the_policy() {
        let mut sim = single_packet_sim(0, 15, 1);
        assert!(sim.run_until_done(1_000));
        // Only one packet in the network: the policy must never be queried.
        assert_eq!(sim.stats().arbiter_queries, 0);
        assert!(sim.stats().grants > 0);
    }

    #[test]
    fn reset_stats_preserves_network_state() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.1, 3, 3);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.run(500);
        sim.reset_stats();
        assert_eq!(sim.stats().delivered, 0);
        sim.run(500);
        assert!(sim.stats().delivered > 0, "simulation continues after reset");
    }

    #[test]
    #[should_panic(expected = "vnet")]
    fn invalid_vnet_injection_panics() {
        let topo = Topology::uniform_mesh(2, 2).unwrap();
        let cfg = SimConfig::synthetic(2, 2);
        let req = InjectionRequest {
            src: NodeId(0),
            dst: NodeId(1),
            vnet: 99,
            msg_type: MsgType::Request,
            dst_type: DestType::Core,
            len_flits: 1,
            tag: 0,
        };
        let traffic = TraceTraffic::new(vec![(0, req)]);
        let mut sim = Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.step();
    }

    #[test]
    fn packet_trace_records_full_journey() {
        let mut sim = single_packet_sim(0, 3, 1);
        sim.enable_packet_trace(100);
        assert!(sim.run_until_done(100));
        let trace = sim.packet_trace().unwrap();
        let events = trace.packet_events(0);
        // Created, injected, 3 forwards (0,0)->(3,0), delivered.
        assert_eq!(events.len(), 6);
        assert!(matches!(events[0].kind, crate::trace::TraceKind::Created));
        assert!(matches!(events[1].kind, crate::trace::TraceKind::Injected { .. }));
        assert!(matches!(
            events.last().unwrap().kind,
            crate::trace::TraceKind::Delivered { .. }
        ));
        assert_eq!(trace.dropped(), 0);
    }

    /// An adversarial arbiter that returns out-of-range indices.
    #[derive(Debug)]
    struct BogusArbiter;
    impl crate::arbitration::Arbiter for BogusArbiter {
        fn name(&self) -> String {
            "bogus".into()
        }
        fn select(&mut self, ctx: &crate::arbitration::OutputCtx<'_>) -> Option<usize> {
            Some(ctx.candidates.len() + 10)
        }
    }

    /// An arbiter that always abstains.
    #[derive(Debug)]
    struct IdleArbiter;
    impl crate::arbitration::Arbiter for IdleArbiter {
        fn name(&self) -> String {
            "idle".into()
        }
        fn select(&mut self, _ctx: &crate::arbitration::OutputCtx<'_>) -> Option<usize> {
            None
        }
    }

    #[test]
    fn out_of_range_selections_are_ignored_not_fatal() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.3, 3, 5);
        let mut sim = Simulator::new(topo, cfg, Box::new(BogusArbiter), traffic).unwrap();
        sim.run(2_000);
        // Uncontended (single-candidate) grants bypass the broken policy,
        // so traffic still moves; contended outputs stay idle, but nothing
        // panics and conservation holds.
        let s = sim.stats();
        assert!(s.delivered > 0);
        assert_eq!(
            s.created,
            s.delivered + sim.in_flight() + sim.queued_at_sources() as u64
        );
    }

    #[test]
    fn abstaining_arbiter_only_slows_contended_outputs() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.10, 3, 5);
        let mut sim = Simulator::new(topo, cfg, Box::new(IdleArbiter), traffic).unwrap();
        sim.run(4_000);
        assert!(sim.stats().delivered > 0, "fast-path grants keep packets moving");
    }

    #[test]
    fn one_grant_per_input_port_per_cycle() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.5, 3, 17);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.enable_grant_log();
        sim.run(300);
        let log = sim.grant_log().unwrap();
        // Group grants by (cycle-batch) is not directly recorded, so check
        // via packet ids: a packet can be forwarded at most once per cycle,
        // and within one router no input port may appear twice in the same
        // cycle. Reconstruct cycles by replay: grants are appended in
        // simulation order, and each (router, in_port) pair may repeat only
        // after other grants — verify no immediate duplicate within the
        // same router's per-cycle group using packet ids' uniqueness.
        use std::collections::HashSet;
        let mut seen_pairs: HashSet<(usize, usize, u64)> = HashSet::new();
        for g in log {
            // A (router, in_port) can only be granted once per packet per
            // hop: the same packet id never repeats for the same router.
            assert!(
                seen_pairs.insert((g.router.index(), g.in_port, g.packet_id)),
                "duplicate grant {g:?}"
            );
        }
    }

    #[test]
    fn heavy_load_keeps_credits_consistent() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::Tornado, 0.6, 3, 21)
            .with_data_packets(0.5, 5);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.run(3_000); // exercises buffer-full paths; panics would fire on bugs
        assert!(sim.stats().delivered > 100);
    }

    // ---- fault injection ------------------------------------------------

    use crate::faults::{FaultEvent, FaultKind, FaultPlan};

    /// East output port index on a 1-local-per-router mesh (L, N, S, W, E).
    const EAST: usize = 4;

    fn plan_of(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { seed: 1, events }
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let mk = || {
            let topo = Topology::uniform_mesh(4, 4).unwrap();
            let cfg = SimConfig::synthetic(4, 4);
            let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.1, 3, 99);
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap()
        };
        let mut plain = mk();
        let mut with_plan = mk();
        with_plan.set_fault_plan(&FaultPlan::empty(7));
        assert!(with_plan.faults.is_none());
        plain.run(2_000);
        with_plan.run(2_000);
        assert_eq!(
            format!("{:?}", plain.stats()),
            format!("{:?}", with_plan.stats())
        );
    }

    #[test]
    fn link_down_blocks_delivery_until_the_fault_clears() {
        let mut sim = single_packet_sim(0, 1, 1);
        sim.set_fault_plan(&plan_of(vec![FaultEvent {
            kind: FaultKind::LinkDown,
            router: 0,
            port: EAST,
            onset: 0,
            duration: 50,
        }]));
        assert!(sim.faults.is_some());
        sim.run(40);
        assert_eq!(sim.stats().delivered, 0, "delivered through a down link");
        assert!(sim.run_until_done(200));
        assert_eq!(sim.stats().delivered, 1);
        // Fault-free latency is 4; the down window must have delayed it.
        assert!(sim.stats().latencies[0] > 50);
    }

    #[test]
    fn transient_fault_drops_then_retries_to_delivery() {
        let mut sim = single_packet_sim(0, 1, 1);
        sim.set_fault_plan(&plan_of(vec![FaultEvent {
            kind: FaultKind::TransientLink,
            router: 0,
            port: EAST,
            onset: 0,
            duration: 10,
        }]));
        assert!(sim.run_until_done(1_000));
        let s = sim.stats();
        assert_eq!(s.delivered, 1);
        assert!(s.link_fault_drops >= 1, "no drop recorded: {s:?}");
        // Every corrupted transmission reserved downstream credit that must
        // come back, or the heavy-load credit invariants would panic.
        assert!(s.fault_credits_reserved >= s.link_fault_drops);
        assert_eq!(s.fault_credits_reconciled, s.fault_credits_reserved);
        assert!(s.latencies[0] > 4);
    }

    #[test]
    fn router_stall_freezes_arbitration_for_its_duration() {
        let mut sim = single_packet_sim(0, 1, 1);
        sim.set_fault_plan(&plan_of(vec![FaultEvent {
            kind: FaultKind::RouterStall,
            router: 0,
            port: 0,
            onset: 0,
            duration: 30,
        }]));
        assert!(sim.run_until_done(200));
        let s = sim.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stalled_router_cycles, 30);
        assert!(s.latencies[0] > 30);
    }

    #[test]
    fn vc_shrink_still_delivers_under_load() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.1, 3, 5);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.set_fault_plan(&plan_of(vec![FaultEvent {
            kind: FaultKind::VcShrink { flits: 3 },
            router: 5,
            port: EAST,
            onset: 100,
            duration: 1_000,
        }]));
        sim.run(4_000);
        assert!(sim.stats().delivered > 100);
    }

    #[test]
    fn watchdog_reports_wedged_ports_on_a_permanent_link_down() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let mut cfg = SimConfig::synthetic(4, 4);
        cfg.starvation_threshold = 200;
        let req = InjectionRequest {
            src: NodeId(0),
            dst: NodeId(1),
            vnet: 0,
            msg_type: MsgType::Request,
            dst_type: DestType::Core,
            len_flits: 1,
            tag: 0,
        };
        let traffic = TraceTraffic::new(vec![(0, req)]);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.set_fault_plan(&plan_of(vec![FaultEvent {
            kind: FaultKind::LinkDown,
            router: 0,
            port: EAST,
            onset: 0,
            duration: u64::MAX,
        }]));
        sim.run(3_000); // covers watchdog scans at cycles 1024 and 2048
        let s = sim.stats();
        assert_eq!(s.delivered, 0);
        assert!(s.watchdog_fires >= 1, "watchdog never fired: {s:?}");
        assert_eq!(s.wedged_ports, 1);
    }

    // ---- invariant checker ----------------------------------------------

    fn uniform_sim(seed: u64, rate: f64) -> Simulator<SyntheticTraffic> {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, rate, 3, seed);
        Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap()
    }

    #[test]
    fn restore_onto_a_stepped_simulator_is_an_err() {
        let mut sim = uniform_sim(3, 0.1);
        sim.run(10);
        let ck = sim.checkpoint().unwrap();
        let err = sim.restore_checkpoint(&ck).unwrap_err();
        assert!(err.contains("run to cycle 10"), "{err}");
        assert_eq!(sim.cycle(), 10, "a refused restore leaves the simulator alone");
    }

    #[test]
    fn checked_run_is_clean_and_bit_identical_to_unchecked() {
        let mut plain = uniform_sim(33, 0.15);
        plain.run(2_000);

        let mut checked = uniform_sim(33, 0.15);
        checked.enable_invariant_checker();
        assert!(checked.checker.is_some());
        checked.run(2_000);

        checked.check_invariants().expect("clean run must have no violations");
        assert_eq!(
            format!("{:?}", plain.stats()),
            format!("{:?}", checked.stats()),
            "the checker must not perturb the simulation"
        );
    }

    #[test]
    fn checked_run_with_faults_and_stats_reset_stays_clean() {
        let mut sim = uniform_sim(12, 0.20);
        sim.enable_invariant_checker();
        sim.set_fault_plan(&FaultPlan::generate(
            5,
            1.0,
            &Topology::uniform_mesh(4, 4).unwrap(),
            3_000,
        ));
        sim.run(1_000);
        sim.reset_stats(); // warmup-style reset must not confuse the books
        sim.run(2_000);
        assert_eq!(
            sim.total_invariant_violations(),
            0,
            "violations: {:?}",
            sim.invariant_violations()
        );
    }

    #[test]
    fn checker_stays_clean_under_adaptive_routing() {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let mut cfg = SimConfig::synthetic(4, 4);
        cfg.routing = RoutingKind::WestFirstAdaptive;
        let traffic = SyntheticTraffic::new(&topo, Pattern::Transpose, 0.2, 3, 8);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.enable_invariant_checker();
        sim.run(2_000);
        assert_eq!(sim.total_invariant_violations(), 0);
    }

    /// Runs a checked uniform-random sweep on `topo` under `routing` and
    /// asserts the run delivers traffic with zero invariant violations.
    /// The in-order gate is armed for every deterministic routing kind, so
    /// this exercises the per-flow ordering books off the mesh too.
    fn run_checked(topo: Topology, routing: RoutingKind, seed: u64) {
        let mut cfg = SimConfig::synthetic(topo.width(), topo.height());
        cfg.routing = routing;
        cfg.feature_bounds = crate::FeatureBounds::for_topology(&topo);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.2, 3, seed);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
        sim.enable_invariant_checker();
        sim.run(2_000);
        assert!(sim.stats().delivered > 0, "no traffic delivered");
        assert_eq!(
            sim.total_invariant_violations(),
            0,
            "violations: {:?}",
            sim.invariant_violations()
        );
    }

    #[test]
    fn checker_stays_clean_on_torus_dim_order() {
        run_checked(
            Topology::uniform_torus(4, 4).unwrap(),
            RoutingKind::TorusDimOrder,
            21,
        );
    }

    #[test]
    fn checker_stays_clean_on_ring_shortest() {
        run_checked(
            Topology::uniform_ring(8).unwrap(),
            RoutingKind::RingShortest,
            22,
        );
    }

    #[test]
    fn checker_stays_clean_on_degraded_mesh_table_routing() {
        run_checked(
            Topology::uniform_degraded_mesh(4, 4, 9, 0.25).unwrap(),
            RoutingKind::TableShortest,
            23,
        );
    }

    #[test]
    fn checker_stays_clean_on_mesh_table_routing() {
        run_checked(
            Topology::uniform_mesh(4, 4).unwrap(),
            RoutingKind::TableShortest,
            24,
        );
    }

    #[test]
    fn unsupported_routing_topology_pair_is_rejected() {
        let topo = Topology::uniform_ring(6).unwrap();
        let mut cfg = SimConfig::synthetic(6, 1);
        cfg.routing = RoutingKind::XY;
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.1, 3, 1);
        let err = Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic)
            .expect_err("x-y routing must be rejected on a ring");
        assert_eq!(
            err,
            ConfigError::RoutingUnsupported { routing: "xy", topology: "ring" }
        );
    }

    /// Transpose traffic crosses the grid; the torus wraparound shortens
    /// those paths, so dim-order-on-torus must beat X-Y-on-mesh.
    #[test]
    fn torus_beats_mesh_on_wrap_heavy_traffic() {
        let mesh = Topology::uniform_mesh(4, 4).unwrap();
        let t = Topology::uniform_torus(4, 4).unwrap();
        let mk = |topo: Topology, routing| {
            let mut cfg = SimConfig::synthetic(4, 4);
            cfg.routing = routing;
            let traffic = SyntheticTraffic::new(&topo, Pattern::Transpose, 0.1, 3, 5);
            let mut sim =
                Simulator::new(topo, cfg, Box::new(FifoArbiter::new()), traffic).unwrap();
            sim.run(3_000);
            sim.stats().avg_latency()
        };
        let mesh_lat = mk(mesh, RoutingKind::XY);
        let torus_lat = mk(t, RoutingKind::TorusDimOrder);
        assert!(
            torus_lat < mesh_lat,
            "wraparound should cut latency: torus {torus_lat:.2} vs mesh {mesh_lat:.2}"
        );
    }

    #[test]
    fn injected_credit_leak_is_caught_as_credit_mismatch() {
        let mut sim = uniform_sim(42, 0.15);
        sim.enable_invariant_checker();
        sim.debug_inject_credit_leak(500);
        sim.run(1_000);
        let err = sim.check_invariants().expect_err("the leak must be caught");
        let SimError::InvariantsViolated(vs) = err;
        assert!(
            vs.iter().any(|v| matches!(
                v.kind,
                crate::invariants::ViolationKind::CreditMismatch { .. }
            )),
            "expected a CreditMismatch, got: {vs:?}"
        );
        // Detection is immediate: the sweep at the leak cycle flags it.
        assert_eq!(vs[0].cycle, 500);
    }

    #[test]
    #[should_panic(expected = "before the first step")]
    fn enabling_the_checker_mid_run_panics() {
        let mut sim = uniform_sim(1, 0.1);
        sim.run(10);
        sim.enable_invariant_checker();
    }

    #[test]
    fn residual_counts_are_stamped_at_the_horizon() {
        // Heavy load, short run: packets must still be in the network when
        // the budget expires, and the stats must say so.
        let mut sim = uniform_sim(3, 0.6);
        sim.run(300);
        let s = sim.stats();
        assert!(s.in_flight_at_end > 0 || s.queued_at_end > 0);
        assert_eq!(
            s.created,
            s.delivered + s.in_flight_at_end + s.queued_at_end,
            "horizon residuals must close the conservation books"
        );
        // A drained run stamps zeros.
        let mut done = single_packet_sim(0, 1, 1);
        assert!(done.run_until_done(100));
        assert_eq!(done.stats().in_flight_at_end, 0);
        assert_eq!(done.stats().queued_at_end, 0);
    }
}
