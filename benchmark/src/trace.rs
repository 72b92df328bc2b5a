//! Tracing from outside the program: pure-observer wrappers around the
//! public traits (`Arbiter`, `TrafficSource`, `BufferController`,
//! `TrainEnv`), and a span recorder for the coarse calls into each layer.
//!
//! The wrappers are called millions of times per run, so they accumulate
//! `(calls, ns)` per boundary instead of one span per call; explicit spans
//! are kept for everything coarse (construction, slices, episodes,
//! checkpoints, APU runs, training, figure invocations). Everything stays
//! in memory until [`Tracer::to_json`] at exit.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use noc_sim::{
    Arbiter, BufferController, Candidate, InjectionRequest, NetSnapshot, OutputCtx, Packet,
    RouterCtx, RouterId, TrafficSource, VcUsage,
};
use rl_arb::{SharedAgent, StateEncoder, TrainEnv};

/// Accumulated time at one call boundary.
#[derive(Debug, Default)]
pub struct Timer {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Timer {
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Accumulated nanoseconds, less what the timer itself reads for an
    /// empty call (see [`timer_bias_ns`]).
    pub fn net_ns(&self, bias_ns: f64) -> f64 {
        (self.ns.get() as f64 - self.calls.get() as f64 * bias_ns).max(0.0)
    }

    /// Net nanoseconds per call, 0 when never called.
    pub fn ns_per_call(&self, bias_ns: f64) -> f64 {
        match self.calls.get() {
            0 => 0.0,
            n => self.net_ns(bias_ns) / n as f64,
        }
    }
}

/// What [`Timer::time`] records for a closure that does nothing: the part
/// of the clock reads that lands inside the measured interval.
pub fn timer_bias_ns() -> f64 {
    let t = Timer::default();
    for _ in 0..200_000 {
        t.time(|| black_box(()));
    }
    t.ns.get() as f64 / t.calls.get() as f64
}

/// Counters behind a [`TimedArbiter`].
#[derive(Debug, Default)]
pub struct ArbProbe {
    pub select: Timer,
    pub plan_router: Timer,
    pub end_cycle: Timer,
    pub candidates: Cell<u64>,
}

impl ArbProbe {
    pub fn net_ns(&self, bias_ns: f64) -> f64 {
        self.select.net_ns(bias_ns)
            + self.plan_router.net_ns(bias_ns)
            + self.end_cycle.net_ns(bias_ns)
    }
}

/// Times every call into the wrapped policy and changes nothing else.
pub struct TimedArbiter {
    inner: Box<dyn Arbiter>,
    probe: Rc<ArbProbe>,
}

impl TimedArbiter {
    pub fn new(inner: Box<dyn Arbiter>, probe: Rc<ArbProbe>) -> Self {
        TimedArbiter { inner, probe }
    }
}

impl Arbiter for TimedArbiter {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        self.probe
            .candidates
            .set(self.probe.candidates.get() + ctx.candidates.len() as u64);
        self.probe.select.time(|| self.inner.select(ctx))
    }
    fn plan_router(&mut self, ctx: &RouterCtx<'_>) {
        self.probe.plan_router.time(|| self.inner.plan_router(ctx));
    }
    fn wants_features(&self) -> bool {
        self.inner.wants_features()
    }
    fn end_cycle(&mut self, net: &NetSnapshot) {
        self.probe.end_cycle.time(|| self.inner.end_cycle(net));
    }
    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Counters behind a [`TimedTraffic`].
#[derive(Debug, Default)]
pub struct TrafficProbe {
    pub pull: Timer,
    pub on_delivered: Timer,
}

/// Times `pull`/`pull_into` and `on_delivered` of the wrapped source.
#[derive(Debug)]
pub struct TimedTraffic<T> {
    pub inner: T,
    probe: Rc<TrafficProbe>,
}

impl<T> TimedTraffic<T> {
    pub fn new(inner: T, probe: Rc<TrafficProbe>) -> Self {
        TimedTraffic { inner, probe }
    }
}

impl<T: TrafficSource> TrafficSource for TimedTraffic<T> {
    fn pull(&mut self, cycle: u64, net: &NetSnapshot) -> Vec<InjectionRequest> {
        self.probe.pull.time(|| self.inner.pull(cycle, net))
    }
    fn pull_into(&mut self, cycle: u64, net: &NetSnapshot, out: &mut Vec<InjectionRequest>) {
        self.probe
            .pull
            .time(|| self.inner.pull_into(cycle, net, out));
    }
    fn on_delivered(&mut self, packet: &Packet, cycle: u64) {
        self.probe
            .on_delivered
            .time(|| self.inner.on_delivered(packet, cycle));
    }
    fn is_done(&self, cycle: u64) -> bool {
        self.inner.is_done(cycle)
    }
    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Times `reallocate` of the wrapped buffer controller.
pub struct TimedController {
    inner: Box<dyn BufferController>,
    probe: Rc<Timer>,
}

impl TimedController {
    pub fn new(inner: Box<dyn BufferController>, probe: Rc<Timer>) -> Self {
        TimedController { inner, probe }
    }
}

impl BufferController for TimedController {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn control_epoch(&self) -> u64 {
        self.inner.control_epoch()
    }
    fn reallocate(&mut self, cycle: u64, usage: &[VcUsage], withhold: &mut [u32]) {
        self.probe
            .time(|| self.inner.reallocate(cycle, usage, withhold));
    }
    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Records the wall time of every epoch of the wrapped environment. This
/// is the closed-loop client's own stopwatch, so the training workload
/// uses it with tracing off as well.
#[derive(Debug)]
pub struct TimedEnv<E> {
    inner: E,
    pub epoch_ns: Vec<u64>,
    pub latencies: Vec<f64>,
}

impl<E: TrainEnv> TimedEnv<E> {
    pub fn new(inner: E) -> Self {
        TimedEnv {
            inner,
            epoch_ns: Vec::new(),
            latencies: Vec::new(),
        }
    }
}

impl<E: TrainEnv> TrainEnv for TimedEnv<E> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn encoder(&self) -> StateEncoder {
        self.inner.encoder()
    }
    fn num_epochs(&self) -> usize {
        self.inner.num_epochs()
    }
    fn run_epoch(&mut self, agent: &SharedAgent) -> f64 {
        let t0 = Instant::now();
        let latency = self.inner.run_epoch(agent);
        self.epoch_ns.push(t0.elapsed().as_nanos() as u64);
        self.latencies.push(latency);
        latency
    }
    fn release(&mut self) {
        self.inner.release();
    }
}

/// One contended output port as the live simulator presented it, owned so
/// the kernel loops can replay it.
#[derive(Debug, Clone)]
pub struct Recorded {
    pub router: RouterId,
    pub cycle: u64,
    pub num_ports: usize,
    pub num_vnets: usize,
    /// `(out_port, candidates)`, the shape `RouterCtx::outputs` holds.
    pub output: (usize, Vec<Candidate>),
    pub net: NetSnapshot,
}

impl Recorded {
    pub fn output_ctx(&self) -> OutputCtx<'_> {
        OutputCtx {
            router: self.router,
            out_port: self.output.0,
            cycle: self.cycle,
            num_ports: self.num_ports,
            num_vnets: self.num_vnets,
            candidates: &self.output.1,
            net: &self.net,
        }
    }

    /// The one-output request matrix `plan_router` would see for it.
    pub fn router_ctx(&self) -> RouterCtx<'_> {
        RouterCtx {
            router: self.router,
            cycle: self.cycle,
            num_ports: self.num_ports,
            num_vnets: self.num_vnets,
            outputs: std::slice::from_ref(&self.output),
            net: &self.net,
        }
    }
}

pub type Fixture = Rc<RefCell<Vec<Recorded>>>;

/// How many contended candidate sets a fixture holds.
pub const FIXTURE_LEN: usize = 4096;

/// Copies the first [`FIXTURE_LEN`] contended candidate sets the wrapped
/// policy is asked about. It asks the simulator for full feature vectors
/// whatever the inner policy wants, so the fixture can feed every arbiter
/// and the state encoder.
pub struct RecordingArbiter {
    inner: Box<dyn Arbiter>,
    sink: Fixture,
}

impl RecordingArbiter {
    pub fn new(inner: Box<dyn Arbiter>, sink: Fixture) -> Self {
        RecordingArbiter { inner, sink }
    }
}

impl Arbiter for RecordingArbiter {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn select(&mut self, ctx: &OutputCtx<'_>) -> Option<usize> {
        let mut sink = self.sink.borrow_mut();
        if sink.len() < FIXTURE_LEN {
            sink.push(Recorded {
                router: ctx.router,
                cycle: ctx.cycle,
                num_ports: ctx.num_ports,
                num_vnets: ctx.num_vnets,
                output: (ctx.out_port, ctx.candidates.to_vec()),
                net: *ctx.net,
            });
        }
        drop(sink);
        self.inner.select(ctx)
    }
    fn plan_router(&mut self, ctx: &RouterCtx<'_>) {
        self.inner.plan_router(ctx);
    }
    fn wants_features(&self) -> bool {
        true
    }
    fn end_cycle(&mut self, net: &NetSnapshot) {
        self.inner.end_cycle(net);
    }
}

/// One recorded span: a call into a layer, with the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span and counter store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(name, calls, net ns)` flushed from the wrappers' probes, with the
    /// span they ran under.
    timers: Vec<(String, u64, f64, Option<usize>)>,
    counts: Vec<(String, u64)>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            timers: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn workload(&self) -> &str {
        &self.workload
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (which must be the innermost open span) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans must nest");
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Runs `f` inside a span; returns the span's duration and `f`'s result.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (u64, R) {
        let id = self.begin(name);
        let r = f();
        (self.end(id), r)
    }

    /// Attaches a wrapper's accumulated time to the innermost open span.
    pub fn add_timer(&mut self, name: &str, timer: &Timer, bias_ns: f64) {
        self.timers.push((
            name.to_string(),
            timer.calls(),
            timer.net_ns(bias_ns),
            self.open.last().copied(),
        ));
    }

    pub fn add_count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Self time of a span: its duration minus the part its child spans
    /// and attached wrapper timers cover.
    fn self_ns(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let timers: f64 = self
            .timers
            .iter()
            .filter(|t| t.3 == Some(id))
            .map(|t| t.2)
            .sum();
        ((span.end_ns - span.start_ns) as f64 - children as f64 - timers).max(0.0)
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"{}\",\n  \"spans\": [\n",
            self.workload
        );
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"self_ns\": {:.0}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self.self_ns(i),
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"timers\": [\n");
        let rows: Vec<String> = self
            .timers
            .iter()
            .map(|(name, calls, ns, parent)| {
                format!(
                    "    {{\"name\": \"{name}\", \"calls\": {calls}, \"ns\": {ns:.0}, \"parent\": {}}}",
                    parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"counts\": {");
        let rows: Vec<String> = self
            .counts
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        out.push_str(&rows.join(", "));
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{fold_stats, FNV_OFFSET};
    use noc_arbiters::{make_arbiter, PolicyKind};
    use noc_sim::{Pattern, SimConfig, Simulator, SyntheticTraffic, Topology};
    use rl_arb::{RlVcController, SyntheticEnv, TrainSpec, Trainer};

    /// A 2,000-cycle 4×4 run; `wrap` decides which wrappers are installed.
    fn run_4x4(
        wrap: bool,
        record: bool,
    ) -> (u64, Rc<ArbProbe>, Rc<TrafficProbe>, Rc<Timer>, Fixture) {
        let topo = Topology::uniform_mesh(4, 4).unwrap();
        let cfg = SimConfig::synthetic(4, 4);
        let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.3, cfg.num_vnets, 9);
        let (arb_probe, traffic_probe, ctl_probe) = (
            Rc::new(ArbProbe::default()),
            Rc::new(TrafficProbe::default()),
            Rc::new(Timer::default()),
        );
        let fixture: Fixture = Rc::default();
        let mut arbiter = make_arbiter(PolicyKind::RoundRobin, 9);
        if record {
            arbiter = Box::new(RecordingArbiter::new(arbiter, fixture.clone()));
        }
        if wrap {
            arbiter = Box::new(TimedArbiter::new(arbiter, arb_probe.clone()));
        }
        // The traffic wrapper is always present (the simulator is generic
        // over its source); unwrapped runs simply ignore its probe.
        let traffic = TimedTraffic::new(traffic, traffic_probe.clone());
        let mut sim = Simulator::new(topo, cfg, arbiter, traffic).unwrap();
        let ctl: Box<dyn BufferController> = Box::new(RlVcController::paper_default(9));
        sim.set_buffer_controller(if wrap {
            Box::new(TimedController::new(ctl, ctl_probe.clone()))
        } else {
            ctl
        });
        sim.run(2_000);
        (
            fold_stats(FNV_OFFSET, sim.stats()),
            arb_probe,
            traffic_probe,
            ctl_probe,
            fixture,
        )
    }

    #[test]
    fn arbiter_traffic_and_controller_wrappers_are_pure_observers() {
        let (plain, ..) = run_4x4(false, false);
        let (wrapped, arb, traffic, ctl, _) = run_4x4(true, false);
        assert_eq!(plain, wrapped, "wrappers changed the simulation");
        assert!(arb.select.calls() > 0 && arb.candidates.get() >= 2 * arb.select.calls());
        assert_eq!(arb.end_cycle.calls(), 2_000);
        assert_eq!(traffic.pull.calls(), 2_000);
        assert!(traffic.on_delivered.calls() > 0);
        assert_eq!(ctl.calls(), 2_000 / 64 + 1);
    }

    #[test]
    fn recording_wrapper_is_a_pure_observer_for_a_feature_blind_policy() {
        let (plain, ..) = run_4x4(false, false);
        let (recorded, .., fixture) = run_4x4(false, true);
        assert_eq!(plain, recorded, "recording changed the simulation");
        let fixture = fixture.borrow();
        assert!(!fixture.is_empty() && fixture.len() <= FIXTURE_LEN);
        assert!(
            fixture.iter().all(|r| r.output.1.len() >= 2),
            "only contended sets are recorded"
        );
        let r = &fixture[0];
        assert_eq!(
            r.output_ctx().candidates.len(),
            r.router_ctx().outputs[0].1.len()
        );
    }

    #[test]
    fn env_wrapper_is_a_pure_observer() {
        let spec = TrainSpec {
            epochs: 3,
            cycles_per_epoch: 300,
            ..TrainSpec::synthetic_4x4(5)
        };
        let plain = Trainer::new(spec.agent.clone()).run(&mut SyntheticEnv::new(&spec));
        let mut env = TimedEnv::new(SyntheticEnv::new(&spec));
        let timed = Trainer::new(spec.agent.clone()).run(&mut env);
        assert_eq!(plain.curve, timed.curve);
        assert_eq!(plain.accuracy, timed.accuracy);
        assert_eq!(env.epoch_ns.len(), 3);
        assert_eq!(env.latencies, timed.curve);
    }

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let mut tr = Tracer::new("t");
        let outer = tr.begin("outer");
        let (inner_ns, ()) = tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ns = tr.end(outer);
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        assert!((tr.self_ns(0) - (outer_ns - inner_ns) as f64).abs() < 1.0);
        let json = tr.to_json();
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
        bench::exp::record::Json::parse(&json).expect("trace.json is valid JSON");
    }

    #[test]
    fn timer_bias_is_small_and_subtracted() {
        let bias = timer_bias_ns();
        assert!(bias > 0.0 && bias < 2_000.0, "bias {bias} ns");
        let t = Timer::default();
        t.time(|| ());
        assert!(t.net_ns(1e9) == 0.0, "net time never goes negative");
    }
}
