//! # noc-arbiters — the arbitration policy suite
//!
//! Every arbitration policy evaluated in *"Experiences with ML-Driven
//! Design: A NoC Case Study"* (HPCA 2020):
//!
//! | Policy | Paper role | Type |
//! |---|---|---|
//! | [`RoundRobinArbiter`] | baseline (§2.1) | locally fair rotation |
//! | [`FifoArbiter`] | baseline (§3.2) | oldest local arrival |
//! | [`IslipArbiter`] | prior work \[30\] | iterative RR matching, two iterations |
//! | [`ProbDistArbiter`] | prior work \[14\] | lottery with exponential distance weighting |
//! | [`GlobalAgeArbiter`] | impractical oracle | oldest global age |
//! | [`RandomArbiter`] | sanity baseline | uniform random |
//! | [`RlInspiredSynthetic`] | §3.2 distilled policies | local-age + hop-count priority |
//! | [`RlInspiredApu`] | §4.9-style distillation for this substrate | full distilled APU arbiter |
//! | [`Algorithm2Paper`] | §4.7 Algorithm 2, verbatim | the paper's own distillation |
//! | [`WavefrontArbiter`] / [`PingPongArbiter`] / [`SlackAwarePolicy`] | related work (§7) | extra baselines |
//! | [`ApuAblation`] | §5.1 de-featured study | Algorithm 2 minus port / msg-type terms |
//!
//! All policies implement [`noc_sim::Arbiter`]. Priority-based policies are
//! expressed through the [`PriorityPolicy`] trait and executed by the
//! [`MaxPriorityArbiter`] adapter, which models the select-max circuit of
//! the paper's Fig. 8 (highest priority wins, lowest buffer index on ties —
//! exactly what a hardware comparator tree does).

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod extra;
mod global_age;
mod islip;
mod ports;
mod priority;
mod probdist;
mod random;
mod registry;
mod rl_inspired;

pub use extra::{NewestFirstPolicy, PingPongArbiter, SlackAwarePolicy, WavefrontArbiter};
pub use global_age::GlobalAgeArbiter;
pub use islip::IslipArbiter;
pub use noc_sim::arbiters::{FifoArbiter, RoundRobinArbiter};
pub use ports::{is_east_west, port_dir_of};
pub use priority::{MaxPriorityArbiter, PriorityPolicy};
pub use probdist::ProbDistArbiter;
pub use random::RandomArbiter;
pub use registry::{make_arbiter, parse_lineup, ParsePolicyError, PolicyKind};
pub use rl_inspired::{Algorithm2Paper, ApuAblation, LocalAgePolicy, RlInspiredApu, RlInspiredSynthetic};
