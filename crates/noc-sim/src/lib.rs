//! # noc-sim — a cycle-level network-on-chip simulator
//!
//! This crate is the simulation substrate for the reproduction of
//! *"Experiences with ML-Driven Design: A NoC Case Study"* (HPCA 2020).
//! It models input-buffered virtual-channel routers on arbitrary router
//! graphs — 2-D meshes, tori, rings, and degraded (link-removed) meshes —
//! with pluggable routing, credit-based virtual cut-through flow control,
//! and — crucially for the paper — a pluggable per-output-port arbitration
//! interface that exposes exactly the message features the paper's
//! reinforcement-learning agent observes (Table 2: payload size, local age,
//! distance, hop count, in-flight messages, inter-arrival time, message
//! type, destination type).
//!
//! ## Quick start
//!
//! ```
//! use noc_sim::{Simulator, SimConfig, Topology, SyntheticTraffic, Pattern};
//! use noc_sim::arbiters::RoundRobinArbiter;
//!
//! # fn main() -> Result<(), noc_sim::ConfigError> {
//! let topo = Topology::uniform_mesh(4, 4)?;
//! let cfg = SimConfig::synthetic(4, 4);
//! let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.05, cfg.num_vnets, 42);
//! let mut sim = Simulator::new(topo, cfg, Box::new(RoundRobinArbiter::new()), traffic)?;
//! sim.run(10_000);
//! println!("avg latency = {:.1} cycles", sim.stats().avg_latency());
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate layout
//!
//! * [`Topology`] / [`TopologyKind`] — router-graph construction (mesh,
//!   torus, ring, degraded) over a shared adjacency representation.
//! * [`RoutingKind`] / [`route_xy`] / [`route_torus`] / [`route_table`] —
//!   pluggable routing (dimension-order, wraparound, shortest-path table).
//! * [`Simulator`] — the cycle-driven engine (paper Algorithm 1 decision shell).
//! * [`Arbiter`] — the arbitration policy interface; reference baselines in
//!   [`arbiters`].
//! * [`BufferController`] — the second learned decision point: per-VC
//!   credit-budget reallocation each control epoch.
//! * [`TrafficSource`] — open-loop synthetic patterns ([`SyntheticTraffic`])
//!   and the hook closed-loop workload engines implement.
//! * [`SimStats`] — latency/throughput/fairness/starvation accounting.
//! * [`FaultPlan`] — deterministic fault injection (transient/persistent
//!   link faults, router stalls, VC shrinkage) with graceful degradation.
//! * [`codec`] — the workspace's one JSON lexer/parser, string and number
//!   writers and FNV-1a hash, shared by every serialized format.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod arbitration;
mod buffer;
mod calendar;
mod checkpoint;
mod config;
mod error;
mod faults;
mod invariants;
mod packet;
mod report;
mod rng;
mod routing;
mod sim;
mod stats;
mod topology;
mod trace;
mod traffic;
mod types;
mod vc_control;

pub mod arbiters;
pub mod codec;

pub use arbitration::{Arbiter, Candidate, Features, Grant, NetSnapshot, OutputCtx, RouterCtx};
pub use buffer::VcBuffer;
pub use calendar::{CalendarCounter, CalendarQueue};
pub use config::{FeatureBounds, RoutingKind, SimConfig};
pub use error::ConfigError;
pub use faults::{
    FaultEvent, FaultKind, FaultPlan, RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP, WATCHDOG_PERIOD,
};
pub use invariants::{InvariantChecker, InvariantViolation, SimError, ViolationKind};
pub use packet::{BufferedPacket, InjectionRequest, Packet};
pub use report::format_report;
pub use rng::SplitMix64;
pub use routing::{
    route_deterministic, route_path, route_ring, route_table, route_torus, route_west_first,
    route_xy, RouteStep,
};
pub use checkpoint::{SimCheckpoint, CHECKPOINT_VERSION};
pub use sim::{simulated_cycles, Simulator};
pub use stats::SimStats;
pub use topology::{Node, Topology, TopologyKind};
pub use trace::{PacketTrace, TraceEvent, TraceKind};
pub use traffic::{Pattern, SyntheticTraffic, TraceTraffic, TrafficSource};
pub use types::{Coord, DestType, MsgType, NodeId, PortDir, RouterId};
pub use vc_control::{BufferController, VcUsage};
