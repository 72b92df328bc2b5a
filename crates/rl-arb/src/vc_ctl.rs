//! A learned per-VC credit-budget controller.
//!
//! [`RlVcController`] is the second learned decision point beside
//! arbitration: each control epoch it chooses, per VC buffer, whether to
//! *withhold* a slice of the advertised credit budget (actuated through
//! the simulator's fault-shrinkage machinery, so it can never touch raw
//! capacity or the occupancy books — see [`noc_sim::BufferController`]).
//! Withholding idle buffers concentrates the credit the network is
//! actually using; releasing pressured buffers restores headroom when
//! traffic shifts, e.g. onto detour paths around a link-down fault.
//!
//! The learner is deliberately small — an independent two-armed bandit
//! per VC (arms: withhold `0` or `withhold_flits`), with an incremental
//! Q update toward a pressure-derived reward — because the decision is
//! binary, per-buffer, and must run every epoch on the simulator's hot
//! path. Like [`OnlinePolicy`](crate::OnlinePolicy), all randomness is
//! counter-keyed [`SplitMix64`] streams and all mutable state round-trips
//! through `checkpoint_state`/`restore_state`, so runs stay deterministic,
//! thread-invariant, and bit-identically splittable.

use noc_sim::codec::Words;
use noc_sim::{BufferController, SplitMix64, VcUsage};

/// Golden-ratio odd constant decorrelating successive RNG counter keys.
const RNG_STREAM_MIX: u64 = 0x9E3779B97F4A7C15;

/// Pressure below this is "idle enough to withhold": the reward for
/// withholding is `MARGIN - pressure`, for releasing `pressure - MARGIN`.
const PRESSURE_MARGIN: f64 = 0.25;

/// Per-VC two-armed bandit over credit withholding (see the module docs).
#[derive(Debug, Clone)]
pub struct RlVcController {
    epoch: u64,
    withhold_flits: u32,
    epsilon: f64,
    lr: f64,
    /// Q value per VC per arm (`[release, withhold]`); sized lazily on
    /// the first epoch, when the buffer count is first visible.
    q: Vec<[f64; 2]>,
    /// Arm pulled last epoch, per VC (0 = release, 1 = withhold).
    last_arm: Vec<u8>,
    rng_key: u64,
    rng_ctr: u64,
    epochs: u64,
    explored: u64,
}

impl RlVcController {
    /// Creates a controller acting every `epoch` cycles, withholding
    /// `withhold_flits` credits per VC when the withhold arm wins.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    pub fn new(epoch: u64, withhold_flits: u32, epsilon: f64, lr: f64, seed: u64) -> Self {
        assert!(epoch > 0, "control epoch must be positive");
        RlVcController {
            epoch,
            withhold_flits,
            epsilon,
            lr,
            q: Vec::new(),
            last_arm: Vec::new(),
            rng_key: seed,
            rng_ctr: 0,
            epochs: 0,
            explored: 0,
        }
    }

    /// The configuration used by the self-healing experiments: act every
    /// 64 cycles, withhold 2 flits, ε = 0.05, learning rate 0.2.
    pub fn paper_default(seed: u64) -> Self {
        RlVcController::new(64, 2, 0.05, 0.2, seed)
    }

    /// Control epochs executed so far (the warm-cache "no work" witness).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Epoch decisions that were random explorations.
    pub fn explored(&self) -> u64 {
        self.explored
    }

    fn draw(&mut self) -> SplitMix64 {
        let s = SplitMix64::new(self.rng_key ^ self.rng_ctr.wrapping_mul(RNG_STREAM_MIX));
        self.rng_ctr = self.rng_ctr.wrapping_add(1);
        s
    }

    /// Demand pressure on one VC: occupancy (queued + reserved) over the
    /// credit actually advertisable (capacity minus fault shrink), in
    /// `[0, 1]`.
    fn pressure(u: &VcUsage) -> f64 {
        let cap = u.capacity.saturating_sub(u.fault_shrink).max(1);
        (f64::from(u.used + u.reserved) / f64::from(cap)).min(1.0)
    }
}

impl BufferController for RlVcController {
    fn name(&self) -> String {
        "RL-vcctl".into()
    }

    fn control_epoch(&self) -> u64 {
        self.epoch
    }

    fn reallocate(&mut self, _cycle: u64, usage: &[VcUsage], withhold: &mut [u32]) {
        if self.q.len() != usage.len() {
            // First epoch (or a topology the state was not sized for):
            // start neutral, with "release" as the incumbent arm.
            self.q = vec![[0.0; 2]; usage.len()];
            self.last_arm = vec![0; usage.len()];
        }
        for (bi, u) in usage.iter().enumerate() {
            let pressure = Self::pressure(u);
            // Credit the arm pulled last epoch with the pressure it
            // produced: withholding idle buffers is good, withholding
            // pressured ones is bad (and symmetrically for releasing).
            let prev = usize::from(self.last_arm[bi]);
            let reward = if prev == 1 {
                PRESSURE_MARGIN - pressure
            } else {
                pressure - PRESSURE_MARGIN
            };
            self.q[bi][prev] += self.lr * (reward - self.q[bi][prev]);
            let arm = if self.epsilon > 0.0 {
                let mut s = self.draw();
                if s.next_f64() < self.epsilon {
                    self.explored = self.explored.wrapping_add(1);
                    s.next_bounded(2) as usize
                } else {
                    usize::from(self.q[bi][1] > self.q[bi][0])
                }
            } else {
                usize::from(self.q[bi][1] > self.q[bi][0])
            };
            self.last_arm[bi] = arm as u8;
            withhold[bi] = arm as u32 * self.withhold_flits;
        }
        self.epochs = self.epochs.wrapping_add(1);
    }

    fn checkpoint_state(&self) -> Option<String> {
        let mut w = Words::default();
        w.u64(self.epochs).u64(self.explored).u64(self.rng_ctr);
        w.len(self.q.len());
        for (&[release, withhold], &arm) in self.q.iter().zip(&self.last_arm) {
            w.f64(release).f64(withhold).u64(arm.into());
        }
        Some(w.finish())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = Words::read("vc-controller", state);
        let epochs = r.u64("epochs")?;
        let explored = r.u64("explored")?;
        let rng_ctr = r.u64("rng counter")?;
        let vcs = r.len("VC count", 3)?;
        let (mut q, mut last_arm) = (Vec::with_capacity(vcs), Vec::with_capacity(vcs));
        for _ in 0..vcs {
            q.push([r.f64("release Q")?, r.f64("withhold Q")?]);
            last_arm.push(r.index("arm", 2)? as u8);
        }
        r.end()?;
        (self.epochs, self.explored, self.rng_ctr) = (epochs, explored, rng_ctr);
        (self.q, self.last_arm) = (q, last_arm);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(used: u32, capacity: u32) -> VcUsage {
        VcUsage {
            used,
            reserved: 0,
            fault_shrink: 0,
            capacity,
        }
    }

    #[test]
    fn withholds_idle_buffers_and_releases_pressured_ones() {
        let mut c = RlVcController::new(16, 2, 0.0, 0.5, 1);
        let usage = vec![usage(0, 8), usage(7, 8)];
        let mut withhold = vec![0u32; 2];
        for cycle in 0..40 {
            c.reallocate(cycle * 16, &usage, &mut withhold);
        }
        assert_eq!(withhold[0], 2, "idle VC should end up withheld");
        assert_eq!(withhold[1], 0, "pressured VC should end up released");
        assert_eq!(c.epochs(), 40);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = || {
            let mut c = RlVcController::paper_default(9);
            let usage = vec![usage(3, 8), usage(1, 8), usage(6, 8)];
            let mut w = vec![0u32; 3];
            let mut trace = Vec::new();
            for cycle in 0..64 {
                c.reallocate(cycle * 64, &usage, &mut w);
                trace.push(w.clone());
            }
            (trace, c.checkpoint_state())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_round_trips_and_continues_identically() {
        let mut c = RlVcController::paper_default(4);
        let usage = vec![usage(2, 8), usage(5, 8)];
        let mut w = vec![0u32; 2];
        for cycle in 0..30 {
            c.reallocate(cycle * 64, &usage, &mut w);
        }
        let state = c.checkpoint_state().expect("serializable");
        let mut d = RlVcController::paper_default(4);
        d.restore_state(&state).expect("restorable");
        assert_eq!(d.checkpoint_state().unwrap(), state);
        let mut wc = vec![0u32; 2];
        let mut wd = vec![0u32; 2];
        for cycle in 30..60 {
            c.reallocate(cycle * 64, &usage, &mut wc);
            d.reallocate(cycle * 64, &usage, &mut wd);
            assert_eq!(wc, wd, "epoch {cycle}");
        }
        assert_eq!(c.checkpoint_state(), d.checkpoint_state());
    }

    #[test]
    fn fresh_controller_state_round_trips() {
        let c = RlVcController::paper_default(1);
        let state = c.checkpoint_state().unwrap();
        let mut d = RlVcController::paper_default(1);
        d.restore_state(&state).expect("fresh state restorable");
        assert_eq!(d.checkpoint_state().unwrap(), state);
    }

    #[test]
    fn counters_restored_at_u64_max_wrap() {
        // ε = 1 explores on every VC, so the epoch bumps all three counters.
        let mut c = RlVcController::new(16, 2, 1.0, 0.5, 3);
        let mut at_max = c.clone();
        (at_max.epochs, at_max.explored, at_max.rng_ctr) = (u64::MAX, u64::MAX, u64::MAX);
        c.restore_state(&at_max.checkpoint_state().unwrap())
            .unwrap();
        let mut w = vec![0u32; 1];
        c.reallocate(0, &[usage(0, 8)], &mut w);
        assert_eq!((c.epochs(), c.explored(), c.rng_ctr), (0, 0, 0));
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut c = RlVcController::paper_default(1);
        c.reallocate(0, &[usage(2, 8), usage(5, 8)], &mut [0; 2]);
        let (mut bad_arm, mut short_arms) = (c.clone(), c.clone());
        bad_arm.last_arm[1] = 2;
        // A VC without its arm leaves the Q table's count running past
        // the state.
        short_arms.last_arm.pop();
        for (state, err) in [
            (String::new(), "0: epochs missing"),
            ("0 0 x".into(), "2: rng counter \"x\" is not a u64"),
            (
                bad_arm.checkpoint_state().unwrap(),
                "9: arm 2 is not below 2",
            ),
            (
                short_arms.checkpoint_state().unwrap(),
                "3: VC count 2 runs past the 3 words left",
            ),
        ] {
            let want = format!("vc-controller state word {err}");
            assert_eq!(c.restore_state(&state), Err(want));
        }
    }
}
