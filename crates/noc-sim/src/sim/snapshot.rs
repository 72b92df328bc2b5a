//! The snapshot format: [`Simulator::checkpoint`] writes it and
//! [`Simulator::restore_checkpoint`] reads it back. This file is the only
//! place that knows the field layout; the record-level helpers (packet
//! tuples, integer arrays) are in [`crate::checkpoint`].
//!
//! A snapshot stores only what restore cannot derive. Restore computes
//! each buffer's used flits from its packets and its reserved flits from
//! the packets and credit returns bound for it, the queued count from
//! the queues, the active link transmissions from the `tx_ends`
//! counters, the in-flight tallies (and the network snapshot's in-flight
//! count) from the packets in the network, and the network snapshot's
//! cycle from the snapshot's own: the last step ran `cycle - 1`.

use std::collections::VecDeque;

use super::{Arrival, Simulator};
use crate::arbitration::NetSnapshot;
use crate::calendar::{CalendarCounter, CalendarQueue};
use crate::checkpoint::{self as ckpt, SimCheckpoint};
use crate::faults::{FaultPlan, FaultRuntime};
use crate::invariants::{CheckerSnapshot, InvariantChecker};
use crate::packet::Packet;
use crate::stats::SimStats;
use crate::traffic::TrafficSource;
use crate::types::RouterId;

impl<T: TrafficSource> Simulator<T> {
    /// Serializes every piece of mutable simulator state into a versioned,
    /// content-hashed [`SimCheckpoint`]: RNG streams (via the traffic
    /// source and arbiter state hooks), calendar queues, buffer contents
    /// and shrinks, injection queues, fault-runtime retry state,
    /// invariant-checker books, and the full [`SimStats`]. A run split at
    /// any cycle boundary via [`Simulator::checkpoint`] /
    /// [`Simulator::restore_checkpoint`] — including across a process
    /// restart — is bit-identical to the unsplit run.
    ///
    /// # Errors
    ///
    /// Refuses to checkpoint when the state cannot be carried faithfully:
    /// the installed arbiter or traffic source does not implement the
    /// checkpoint hooks ([`crate::Arbiter::checkpoint_state`] returned `None`),
    /// the grant log or packet trace is enabled (unbounded diagnostic
    /// state, deliberately outside the snapshot contract), a debug credit
    /// leak is armed, the invariant checker has already recorded
    /// violations (the violation list is not serialized; clean runs have
    /// none), or a state string holds a character the escape-free codec
    /// cannot carry.
    pub fn checkpoint(&self) -> Result<SimCheckpoint, String> {
        if self.grant_log.is_some() {
            return Err("cannot checkpoint with the grant log enabled".into());
        }
        if self.trace.is_some() {
            return Err("cannot checkpoint with packet tracing enabled".into());
        }
        if self.leak_at.is_some() {
            return Err("cannot checkpoint with a debug credit leak armed".into());
        }
        if self.misbehave_at.is_some() {
            return Err("cannot checkpoint with a debug controller corruption armed".into());
        }
        if let Some(ck) = &self.checker {
            if ck.total_violations() > 0 {
                return Err("cannot checkpoint after invariant violations were recorded".into());
            }
        }
        let arbiter_state = self.arbiter.checkpoint_state().ok_or_else(|| {
            format!(
                "arbiter '{}' does not support checkpointing",
                self.arbiter.name()
            )
        })?;
        let traffic_state = self
            .traffic
            .checkpoint_state()
            .ok_or_else(|| "the traffic source does not support checkpointing".to_string())?;
        let arbiter_name = self.arbiter.name();
        let ctl_block = match &self.vc_ctl {
            None => None,
            Some(c) => {
                let state = c.ctl.checkpoint_state().ok_or_else(|| {
                    format!(
                        "buffer controller '{}' does not support checkpointing",
                        c.ctl.name()
                    )
                })?;
                Some((c.ctl.name(), state))
            }
        };

        fn fnum(key: &str, v: u64) -> String {
            format!("\"{key}\": {v}")
        }
        // The one string writer. Arbiter, traffic and controller state is
        // space-separated decimal words (`codec::Words`), so a quote,
        // backslash or control character is a bug in a `checkpoint_state`
        // implementation: refuse rather than emit an unreadable document.
        fn fstr(key: &str, v: &str) -> Result<String, String> {
            if v.chars().any(|c| c == '"' || c == '\\' || c.is_control()) {
                return Err(format!(
                    "{key} state contains characters the checkpoint codec cannot carry: {v:?}"
                ));
            }
            Ok(format!("\"{key}\": \"{v}\""))
        }
        fn farr(key: &str, vals: impl IntoIterator<Item = u64>) -> String {
            let mut s = format!("\"{key}\": ");
            ckpt::push_num_arr(&mut s, vals);
            s
        }
        fn frows(key: &str, rows: &[Vec<u64>]) -> String {
            let mut s = format!("\"{key}\": [");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('\n');
                ckpt::push_num_arr(&mut s, row.iter().copied());
            }
            s.push(']');
            s
        }

        let mut fields: Vec<String> = vec![
            fnum("version", ckpt::CHECKPOINT_VERSION),
            fnum("routers", self.coords.len() as u64),
            fnum("ports", self.ports as u64),
            fnum("vnets", self.vnets as u64),
            fnum("nodes", self.node_ports.len() as u64),
            fstr("routing", self.cfg.routing.as_str())?,
            fstr("arbiter_name", &arbiter_name)?,
            fnum("cycle", self.cycle),
            fnum("next_packet_id", self.next_packet_id),
        ];
        fields.push(fnum("period_lat_sum", self.period_lat_sum));
        fields.push(fnum("period_delivered", self.period_delivered));
        fields.push(fnum(
            "net_link_util_bits",
            self.net.link_utilization_prev.to_bits(),
        ));
        fields.push(fnum(
            "net_acc_lat_bits",
            self.net.avg_accumulated_latency.to_bits(),
        ));
        fields.push(fnum("lat_ema_q16", self.lat_ema_q16));
        fields.push(fnum("recov_baseline_q16", self.recov_baseline_q16));
        fields.push(fnum("recov_onset_cycle", self.recov_onset_cycle));
        fields.push(fnum("recov_pending", self.recov_pending as u64));
        fields.push(fnum("first_onset_cycle", self.first_onset_cycle));
        fields.push(fnum("fault_active_prev", self.fault_active_prev as u64));

        let s = &self.stats;
        let stat_fields = vec![
            fnum("cycles", s.cycles),
            fnum("created", s.created),
            fnum("injected", s.injected),
            fnum("delivered", s.delivered),
            fnum("total_latency", s.total_latency),
            fnum("total_network_latency", s.total_network_latency),
            fnum("total_hops", s.total_hops),
            fnum("flits_on_links", s.flits_on_links),
            fnum("link_busy_cycles", s.link_busy_cycles),
            farr("latencies", s.latencies.iter().copied()),
            fnum("max_local_age", s.max_local_age),
            fnum("starved_grants", s.starved_grants),
            fnum("starving_now", s.starving_now),
            fnum("arbiter_queries", s.arbiter_queries),
            fnum("grants", s.grants),
            farr("delivered_per_vnet", s.delivered_per_vnet.iter().copied()),
            farr("delivered_per_node", s.delivered_per_node.iter().copied()),
            fnum("link_fault_drops", s.link_fault_drops),
            fnum("fault_credits_reserved", s.fault_credits_reserved),
            fnum("fault_credits_reconciled", s.fault_credits_reconciled),
            fnum("stalled_router_cycles", s.stalled_router_cycles),
            fnum("watchdog_fires", s.watchdog_fires),
            fnum("wedged_ports", s.wedged_ports),
            fnum("fault_onsets", s.fault_onsets),
            fnum("recoveries", s.recoveries),
            fnum("recovery_cycles_total", s.recovery_cycles_total),
            fnum("post_fault_delivered", s.post_fault_delivered),
            fnum("post_fault_latency_total", s.post_fault_latency_total),
            fnum("in_flight_at_end", s.in_flight_at_end),
            fnum("queued_at_end", s.queued_at_end),
            fnum("num_mesh_links", s.num_mesh_links as u64),
        ];
        fields.push(format!("\"stats\": {{ {} }}", stat_fields.join(", ")));

        fields.push(farr("out_free_at", self.out_free_at.iter().copied()));

        let mut inj_rows: Vec<Vec<u64>> = Vec::new();
        for (qi, q) in self.inj_queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            let mut row = vec![qi as u64];
            for p in q {
                row.extend_from_slice(&ckpt::packet_nums(p));
            }
            inj_rows.push(row);
        }
        fields.push(frows("inj_queues", &inj_rows));

        fields.push(fnum("arrivals_cursor", self.arrivals.cursor()));
        let mut arr_rows: Vec<Vec<u64>> = Vec::new();
        for (due, a) in self.arrivals.pending() {
            let mut row = vec![due];
            match a {
                Arrival::Router {
                    router,
                    in_port,
                    vnet,
                    packet,
                } => {
                    row.push(0);
                    row.extend([router.index() as u64, *in_port as u64, *vnet as u64]);
                    row.extend_from_slice(&ckpt::packet_nums(packet));
                }
                Arrival::Node { packet } => {
                    row.push(1);
                    row.extend_from_slice(&ckpt::packet_nums(packet));
                }
                Arrival::CreditReturn {
                    router,
                    in_port,
                    vnet,
                    len,
                } => {
                    row.push(2);
                    row.extend([
                        router.index() as u64,
                        *in_port as u64,
                        *vnet as u64,
                        *len as u64,
                    ]);
                }
            }
            arr_rows.push(row);
        }
        fields.push(frows("arrivals", &arr_rows));

        fields.push(fnum("tx_ends_cursor", self.tx_ends.cursor()));
        let tx_rows: Vec<Vec<u64>> = self
            .tx_ends
            .pending()
            .into_iter()
            .map(|(due, n)| vec![due, n as u64])
            .collect();
        fields.push(frows("tx_ends", &tx_rows));

        let mut buf_rows: Vec<Vec<u64>> = Vec::new();
        for bi in 0..self.bufs.num_buffers() {
            let (_, _, shrink) = self.bufs.book_state(bi);
            let last = self.bufs.last_arrival(bi);
            if shrink == 0 && last == u64::MAX && self.bufs.is_empty(bi) {
                continue; // pristine buffer: implicit in the fresh simulator
            }
            let mut row = vec![bi as u64, shrink as u64, last];
            for bp in self.bufs.iter(bi) {
                ckpt::buffered_nums(bp, &mut row);
            }
            buf_rows.push(row);
        }
        fields.push(frows("buffers", &buf_rows));

        if let Some(fr) = &self.faults {
            let (hold, retry) = fr.retry_state();
            let mut f = String::from("\"faults\": { \"plan\": ");
            f.push_str(&fr.plan().to_json());
            f.push_str(", ");
            f.push_str(&farr("hold_until", hold.iter().copied()));
            f.push_str(", ");
            f.push_str(&farr("retry_count", retry.iter().map(|&n| n as u64)));
            f.push_str(" }");
            fields.push(f);
        }

        if let Some(ck) = &self.checker {
            let snap = ck.snapshot();
            let ck_fields = vec![
                fnum("created", snap.created),
                fnum("delivered", snap.delivered),
                fnum("created_at_reset", snap.created_at_reset),
                fnum("delivered_at_reset", snap.delivered_at_reset),
                fnum("fault_reserved", snap.fault_reserved),
                fnum("fault_reconciled", snap.fault_reconciled),
                fnum("fault_reserved_at_reset", snap.fault_reserved_at_reset),
                fnum("fault_reconciled_at_reset", snap.fault_reconciled_at_reset),
                farr("delivered_ids", snap.delivered_ids.iter().copied()),
                farr(
                    "last_in_flow",
                    snap.last_in_flow
                        .iter()
                        .flat_map(|&(a, b, c, d)| [a, b, c, d]),
                ),
                farr(
                    "expected_reserved",
                    snap.expected_reserved.iter().map(|&n| n as u64),
                ),
            ];
            fields.push(format!("\"checker\": {{ {} }}", ck_fields.join(", ")));
        }

        if let (Some(c), Some((name, state))) = (&self.vc_ctl, &ctl_block) {
            let ctl_fields = [
                fstr("name", name)?,
                farr("withhold", c.withhold.iter().map(|&n| n as u64)),
                farr("fault_shrink", c.fault_shrink.iter().map(|&n| n as u64)),
                fnum("epochs_run", c.epochs_run),
                fstr("state", state)?,
            ];
            fields.push(format!("\"vc_ctl\": {{ {} }}", ctl_fields.join(", ")));
        }

        fields.push(fstr("traffic", &traffic_state)?);
        fields.push(fstr("arbiter", &arbiter_state)?);
        let text = format!("{{\n{}\n}}\n", fields.join(",\n"));
        Ok(SimCheckpoint::from_text(text))
    }

    /// Overwrites a freshly constructed simulator with a checkpoint's
    /// state, resuming bit-identically.
    ///
    /// The caller builds the simulator with [`Simulator::new`] from the
    /// same construction-time inputs the original was built with —
    /// topology, configuration, and *freshly constructed* arbiter and
    /// traffic-source objects of the same types and parameters — and, for
    /// a run with a [`crate::BufferController`], installs the controller
    /// with [`Simulator::set_buffer_controller`] first:
    ///
    /// ```text
    /// let mut sim = Simulator::new(topo, cfg, arbiter, traffic)?;
    /// sim.set_buffer_controller(ctl); // only if the run had one
    /// sim.restore_checkpoint(&checkpoint)?;
    /// ```
    ///
    /// Mutable state (RNG streams, rotation pointers, controller counters)
    /// is then overwritten from the checkpoint. The fault plan and
    /// invariant-checker enablement come from the checkpoint itself; do
    /// not call [`Simulator::set_fault_plan`] or
    /// [`Simulator::enable_invariant_checker`] on the result.
    ///
    /// Restore is all-or-nothing for the simulator's own state: every
    /// record is parsed and validated into locals first, then the
    /// controller, traffic and arbiter `restore_state` hooks run, in that
    /// order, and the simulator's fields are assigned last. Each hook
    /// overwrites the whole mutable state of its object when it returns
    /// `Ok`; each in-tree hook reads its state with
    /// [`crate::codec::WordReader`] into locals first, so one that returns
    /// `Err` leaves its object unchanged.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: a simulator that has
    /// already stepped, a version or shape mismatch (router/port/vnet
    /// counts, routing kind, arbiter name), a mismatch between the
    /// installed controller (or its absence) and the checkpoint's `vc_ctl`
    /// block, a malformed document, or a record that would panic a later
    /// step — an index out of range (router, port, vnet, node, local
    /// slot, packet or credit-return length), a repeated queue or buffer
    /// record, a packet held in a queue, on a link or in a buffer of
    /// another vnet, or a timestamp after the snapshot's `cycle`. The
    /// error names the record. The credit books, the queued and in-flight
    /// tallies and the active link transmissions are not read but derived
    /// from the records they count (see the module docs), so they cannot
    /// disagree with them.
    /// On `Err` the simulator's own state is unchanged, so it can take
    /// another `restore_checkpoint`. A hook that already restored its
    /// object before a later hook refused is not rolled back (a refused
    /// arbiter state leaves the controller and traffic source restored); a
    /// later successful restore overwrites them.
    pub fn restore_checkpoint(&mut self, checkpoint: &SimCheckpoint) -> Result<(), String> {
        if self.cycle != 0 {
            return Err(format!(
                "cannot restore onto a simulator that has run to cycle {}; \
                 restore onto a freshly constructed one",
                self.cycle
            ));
        }
        use crate::faults::json::{self, Value};
        let doc = checkpoint.take_doc()?;
        let obj = doc.as_obj("checkpoint")?;
        let num = |k: &str| -> Result<u64, String> { json::get(obj, k)?.as_u64(k) };
        let maybe =
            |k: &str| -> Option<&Value> { obj.iter().find(|(key, _)| key == k).map(|(_, v)| v) };

        let shape = |k: &str, want: u64| -> Result<(), String> {
            let got = num(k)?;
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "checkpoint shape mismatch: \"{k}\" is {got}, simulator has {want}"
                ))
            }
        };
        shape("routers", self.coords.len() as u64)?;
        shape("ports", self.ports as u64)?;
        shape("vnets", self.vnets as u64)?;
        shape("nodes", self.node_ports.len() as u64)?;
        let routing = json::get(obj, "routing")?.as_str("routing")?;
        if routing != self.cfg.routing.as_str() {
            return Err(format!(
                "checkpoint routing \"{routing}\" does not match configured \"{}\"",
                self.cfg.routing.as_str()
            ));
        }
        let arbiter_name = json::get(obj, "arbiter_name")?.as_str("arbiter_name")?;
        if arbiter_name != self.arbiter.name() {
            return Err(format!(
                "checkpoint arbiter \"{arbiter_name}\" does not match supplied \"{}\"",
                self.arbiter.name()
            ));
        }

        // Statistics.
        let sv = json::get(obj, "stats")?.as_obj("stats")?;
        let snum = |k: &str| -> Result<u64, String> { json::get(sv, k)?.as_u64(k) };
        let sarr = |k: &str| -> Result<Vec<u64>, String> { ckpt::num_arr(json::get(sv, k)?, k) };
        let delivered_per_vnet = sarr("delivered_per_vnet")?;
        let delivered_per_node = sarr("delivered_per_node")?;
        if delivered_per_vnet.len() != self.vnets
            || delivered_per_node.len() != self.node_ports.len()
        {
            return Err("checkpoint stats vector shapes do not match the topology".into());
        }
        let num_mesh_links = snum("num_mesh_links")? as usize;
        if num_mesh_links != self.topo.num_links() {
            return Err(format!(
                "checkpoint has {num_mesh_links} mesh links, topology has {}",
                self.topo.num_links()
            ));
        }
        let stats = SimStats {
            cycles: snum("cycles")?,
            created: snum("created")?,
            injected: snum("injected")?,
            delivered: snum("delivered")?,
            total_latency: snum("total_latency")?,
            total_network_latency: snum("total_network_latency")?,
            total_hops: snum("total_hops")?,
            flits_on_links: snum("flits_on_links")?,
            link_busy_cycles: snum("link_busy_cycles")?,
            latencies: sarr("latencies")?,
            max_local_age: snum("max_local_age")?,
            starved_grants: snum("starved_grants")?,
            starving_now: snum("starving_now")?,
            arbiter_queries: snum("arbiter_queries")?,
            grants: snum("grants")?,
            delivered_per_vnet,
            delivered_per_node,
            link_fault_drops: snum("link_fault_drops")?,
            fault_credits_reserved: snum("fault_credits_reserved")?,
            fault_credits_reconciled: snum("fault_credits_reconciled")?,
            stalled_router_cycles: snum("stalled_router_cycles")?,
            watchdog_fires: snum("watchdog_fires")?,
            wedged_ports: snum("wedged_ports")?,
            fault_onsets: snum("fault_onsets")?,
            recoveries: snum("recoveries")?,
            recovery_cycles_total: snum("recovery_cycles_total")?,
            post_fault_delivered: snum("post_fault_delivered")?,
            post_fault_latency_total: snum("post_fault_latency_total")?,
            in_flight_at_end: snum("in_flight_at_end")?,
            queued_at_end: snum("queued_at_end")?,
            num_mesh_links,
        };

        // Scalar accounting.
        let cycle = num("cycle")?;
        let link_utilization_prev = f64::from_bits(num("net_link_util_bits")?);
        let avg_accumulated_latency = f64::from_bits(num("net_acc_lat_bits")?);
        let next_packet_id = num("next_packet_id")?;
        let period_lat_sum = num("period_lat_sum")?;
        let period_delivered = num("period_delivered")?;
        let lat_ema_q16 = num("lat_ema_q16")?;
        let recov_baseline_q16 = num("recov_baseline_q16")?;
        let recov_onset_cycle = num("recov_onset_cycle")?;
        not_after("checkpoint", "recov_onset_cycle", recov_onset_cycle, cycle)?;
        let recov_pending = num("recov_pending")? != 0;
        let first_onset_cycle = num("first_onset_cycle")?;
        let fault_active_prev = num("fault_active_prev")? != 0;

        let out_free_at: Vec<u64> = ckpt::num_arr(json::get(obj, "out_free_at")?, "out_free_at")?;
        if out_free_at.len() != self.out_free_at.len() {
            return Err("checkpoint \"out_free_at\" length does not match".into());
        }

        // Injection queues (the non-empty ones, in ascending index order).
        let mut queued_total = 0;
        let mut inj_queues: Vec<(usize, VecDeque<Packet>)> = Vec::new();
        let mut next_qi = 0;
        for row in json::get(obj, "inj_queues")?.as_arr("inj_queues")? {
            let nums: Vec<u64> = ckpt::num_arr(row, "inj_queues")?;
            if nums.is_empty() || !(nums.len() - 1).is_multiple_of(ckpt::PACKET_NUMS) {
                return Err("malformed \"inj_queues\" record".into());
            }
            let record = format!("\"inj_queues\" record for queue {}", nums[0]);
            in_range(&record, "queue", nums[0], self.inj_queues.len())?;
            let qi = nums[0] as usize;
            if qi < next_qi {
                return Err(format!("{record} repeats or comes after a later queue"));
            }
            next_qi = qi + 1;
            let mut q = VecDeque::with_capacity((nums.len() - 1) / ckpt::PACKET_NUMS);
            for chunk in nums[1..].chunks(ckpt::PACKET_NUMS) {
                let p = ckpt::packet_from_nums(chunk)?;
                self.check_packet(&record, &p, cycle, Some(qi % self.vnets))?;
                q.push_back(p);
            }
            if q.is_empty() {
                continue;
            }
            queued_total += q.len() as u64;
            inj_queues.push((qi, q));
        }

        // Every packet inside the network — on a link or in a buffer — is
        // counted by the in-flight tallies the delivery path decrements.
        let mut in_flight_per_router = vec![0u32; self.in_flight_per_router.len()];
        let (mut inflight_count, mut inflight_create_sum) = (0u64, 0u128);
        let mut count_live = |p: &Packet| {
            in_flight_per_router[p.src_router.index()] += 1;
            inflight_count += 1;
            inflight_create_sum += p.create_cycle as u128;
        };
        // Credit reserved on each buffer: one reservation per packet on a
        // link toward it and per credit return still owed to it.
        let mut reserved = vec![0u32; self.bufs.num_buffers()];

        // In-flight arrivals calendar.
        let cursor = num("arrivals_cursor")?;
        not_after("checkpoint", "arrivals_cursor", cursor, cycle)?;
        let mut items: Vec<(u64, Arrival)> = Vec::new();
        for (i, row) in json::get(obj, "arrivals")?
            .as_arr("arrivals")?
            .iter()
            .enumerate()
        {
            let nums: Vec<u64> = ckpt::num_arr(row, "arrivals")?;
            if nums.len() < 2 {
                return Err("malformed \"arrivals\" record".into());
            }
            let due = nums[0];
            if due < cursor {
                return Err(format!("arrival due at {due} is before cursor {cursor}"));
            }
            let record = format!("\"arrivals\" record {i}");
            let body = &nums[2..];
            let mut bi = 0; // the buffer a link packet or credit return is bound for
            if matches!(nums[1], 0 | 2) && body.len() >= 3 {
                in_range(&record, "router", body[0], self.coords.len())?;
                in_range(&record, "in_port", body[1], self.ports)?;
                in_range(&record, "vnet", body[2], self.vnets)?;
                bi = self.bi(body[0] as usize, body[1] as usize, body[2] as usize);
            }
            let a = match nums[1] {
                0 if body.len() == 3 + ckpt::PACKET_NUMS => Arrival::Router {
                    router: RouterId(body[0] as usize),
                    in_port: body[1] as usize,
                    vnet: body[2] as usize,
                    packet: ckpt::packet_from_nums(&body[3..])?,
                },
                1 if body.len() == ckpt::PACKET_NUMS => Arrival::Node {
                    packet: ckpt::packet_from_nums(body)?,
                },
                2 if body.len() == 4 => Arrival::CreditReturn {
                    router: RouterId(body[0] as usize),
                    in_port: body[1] as usize,
                    vnet: body[2] as usize,
                    len: ckpt::narrow(body[3], "credit len")?,
                },
                tag => return Err(format!("malformed arrival record (tag {tag})")),
            };
            match &a {
                Arrival::Router { vnet, packet, .. } => {
                    self.check_packet(&record, packet, cycle, Some(*vnet))?;
                    count_live(packet);
                    reserved[bi] += packet.len_flits;
                }
                Arrival::Node { packet } => {
                    self.check_packet(&record, packet, cycle, None)?;
                    count_live(packet);
                }
                Arrival::CreditReturn { len, .. } => {
                    check_len(&record, "credit len", *len, self.cfg.max_packet_flits)?;
                    reserved[bi] += len;
                }
            }
            items.push((due, a));
        }
        let arrivals = CalendarQueue::restore(self.arrivals.horizon(), cursor, items);

        // Link-transmission end counters.
        let tx_cursor = num("tx_ends_cursor")?;
        not_after("checkpoint", "tx_ends_cursor", tx_cursor, cycle)?;
        let mut tx_items: Vec<(u64, u32)> = Vec::new();
        for row in json::get(obj, "tx_ends")?.as_arr("tx_ends")? {
            let nums: Vec<u64> = ckpt::num_arr(row, "tx_ends")?;
            if nums.len() != 2 || nums[0] < tx_cursor {
                return Err("malformed \"tx_ends\" record".into());
            }
            tx_items.push((nums[0], ckpt::narrow(nums[1], "tx_ends")?));
        }
        let active_mesh_tx: u32 = ckpt::narrow(
            tx_items.iter().map(|&(_, n)| n as u64).sum(),
            "tx_ends total",
        )?;
        let tx_ends = CalendarCounter::restore(self.tx_ends.horizon(), tx_cursor, tx_items);

        // Buffer contents (the non-pristine buffers, in ascending index
        // order): `[bi, shrink, last_arrival, packets…]`.
        let mut buffers = vec![(VecDeque::new(), 0, u64::MAX); self.bufs.num_buffers()];
        let mut next_bi = 0;
        for row in json::get(obj, "buffers")?.as_arr("buffers")? {
            let nums: Vec<u64> = ckpt::num_arr(row, "buffers")?;
            if nums.len() < 3 || !(nums.len() - 3).is_multiple_of(ckpt::BUFFERED_NUMS) {
                return Err("malformed \"buffers\" record".into());
            }
            let record = format!("\"buffers\" record for buffer {}", nums[0]);
            in_range(&record, "buffer", nums[0], self.bufs.num_buffers())?;
            let bi = nums[0] as usize;
            if bi < next_bi {
                return Err(format!("{record} repeats or comes after a later buffer"));
            }
            next_bi = bi + 1;
            let shrink: u32 = ckpt::narrow(nums[1], "shrink")?;
            let mut packets = VecDeque::with_capacity((nums.len() - 3) / ckpt::BUFFERED_NUMS);
            for chunk in nums[3..].chunks(ckpt::BUFFERED_NUMS) {
                let bp = ckpt::buffered_from_nums(chunk)?;
                self.check_packet(&record, &bp.packet, cycle, Some(bi % self.vnets))?;
                not_after(&record, "arrival_cycle", bp.arrival_cycle, cycle)?;
                count_live(&bp.packet);
                packets.push_back(bp);
            }
            buffers[bi] = (packets, shrink, nums[2]);
        }

        // Fault runtime: the timeline tables are pure functions of the
        // plan and are rebuilt; only the retry backoff state is restored.
        let faults = match maybe("faults") {
            None => None,
            Some(fv) => {
                let fobj = fv.as_obj("faults")?;
                let plan = FaultPlan::from_value(json::get(fobj, "plan")?)?;
                plan.validate(&self.topo)?;
                if plan.is_empty() {
                    return Err("checkpoint carries an empty fault plan".into());
                }
                let mut fr = Box::new(FaultRuntime::new(&plan, &self.topo, self.cfg.num_vnets));
                let hold = ckpt::num_arr(json::get(fobj, "hold_until")?, "hold_until")?;
                let retry = ckpt::num_arr(json::get(fobj, "retry_count")?, "retry_count")?;
                fr.restore_retry_state(hold, retry)?;
                Some(fr)
            }
        };

        // Invariant checker: re-armed from scratch, then its books are
        // overwritten so checking continues seamlessly mid-run.
        let checker = match maybe("checker") {
            None => None,
            Some(cv) => {
                let cobj = cv.as_obj("checker")?;
                let cnum = |k: &str| -> Result<u64, String> { json::get(cobj, k)?.as_u64(k) };
                let carr =
                    |k: &str| -> Result<Vec<u64>, String> { ckpt::num_arr(json::get(cobj, k)?, k) };
                let flow_flat = carr("last_in_flow")?;
                if flow_flat.len() % 4 != 0 {
                    return Err("malformed \"last_in_flow\" record".into());
                }
                for (i, flow) in flow_flat.chunks(4).enumerate() {
                    let record = format!("checker \"last_in_flow\" record {i}");
                    in_range(&record, "src", flow[0], self.node_ports.len())?;
                    in_range(&record, "dst", flow[1], self.node_ports.len())?;
                    in_range(&record, "vnet", flow[2], self.vnets)?;
                }
                let snap = CheckerSnapshot {
                    created: cnum("created")?,
                    delivered: cnum("delivered")?,
                    created_at_reset: cnum("created_at_reset")?,
                    delivered_at_reset: cnum("delivered_at_reset")?,
                    fault_reserved: cnum("fault_reserved")?,
                    fault_reconciled: cnum("fault_reconciled")?,
                    fault_reserved_at_reset: cnum("fault_reserved_at_reset")?,
                    fault_reconciled_at_reset: cnum("fault_reconciled_at_reset")?,
                    delivered_ids: carr("delivered_ids")?,
                    last_in_flow: flow_flat
                        .chunks(4)
                        .map(|c| (c[0], c[1], c[2], c[3]))
                        .collect(),
                    expected_reserved: carr("expected_reserved")?
                        .iter()
                        .map(|&n| n as i64)
                        .collect(),
                };
                let mut checker = InvariantChecker::new(
                    self.topo.num_routers(),
                    self.ports,
                    self.vnets,
                    self.cfg.routing.is_deterministic(),
                );
                checker.restore_snapshot(snap)?;
                Some(Box::new(checker))
            }
        };

        // Buffer controller: like the arbiter, the controller *object* is
        // a construction-time input (installed on the fresh simulator via
        // `set_buffer_controller` before `restore_checkpoint`); only its
        // mutable state and the simulator-owned actuation books travel in
        // the checkpoint. Presence and name must match on both sides.
        let ctl = match (maybe("vc_ctl"), &self.vc_ctl) {
            (None, None) => None,
            (Some(_), None) => {
                return Err(
                    "checkpoint carries buffer-controller state but none is installed; \
                     call set_buffer_controller before restoring"
                        .into(),
                );
            }
            (None, Some(_)) => {
                return Err(
                    "a buffer controller is installed but the checkpoint carries no \
                     controller state"
                        .into(),
                );
            }
            (Some(cv), Some(c)) => {
                let cobj = cv.as_obj("vc_ctl")?;
                let name = json::get(cobj, "name")?.as_str("name")?;
                if name != c.ctl.name() {
                    return Err(format!(
                        "checkpoint buffer controller \"{name}\" does not match installed \"{}\"",
                        c.ctl.name()
                    ));
                }
                let n = c.withhold.len();
                let withhold: Vec<u32> = ckpt::num_arr(json::get(cobj, "withhold")?, "withhold")?;
                let fault_shrink: Vec<u32> =
                    ckpt::num_arr(json::get(cobj, "fault_shrink")?, "fault_shrink")?;
                if withhold.len() != n || fault_shrink.len() != n {
                    return Err("checkpoint \"vc_ctl\" vector shapes do not match".into());
                }
                let epochs_run = json::get(cobj, "epochs_run")?.as_u64("epochs_run")?;
                let state = json::get(cobj, "state")?.as_str("state")?;
                Some((withhold, fault_shrink, epochs_run, state))
            }
        };
        let traffic_state = json::get(obj, "traffic")?.as_str("traffic")?;
        let arbiter_state = json::get(obj, "arbiter")?.as_str("arbiter")?;

        // Every record is valid: hand the opaque controller, traffic and
        // policy state to their hooks, then commit the simulator's fields.
        if let (Some(c), Some((.., state))) = (&mut self.vc_ctl, &ctl) {
            c.ctl.restore_state(state)?;
        }
        self.traffic.restore_state(traffic_state)?;
        self.arbiter.restore_state(arbiter_state)?;

        self.stats = stats;
        // Each step samples the cycle it runs and, after its deliveries
        // and injections, the packets in the network.
        self.net = NetSnapshot {
            cycle: cycle.saturating_sub(1),
            link_utilization_prev,
            avg_accumulated_latency,
            in_flight_packets: inflight_count as usize,
        };
        self.cycle = cycle;
        self.next_packet_id = next_packet_id;
        self.active_mesh_tx = active_mesh_tx;
        self.inflight_create_sum = inflight_create_sum;
        self.inflight_count = inflight_count;
        self.period_lat_sum = period_lat_sum;
        self.period_delivered = period_delivered;
        self.lat_ema_q16 = lat_ema_q16;
        self.recov_baseline_q16 = recov_baseline_q16;
        self.recov_onset_cycle = recov_onset_cycle;
        self.recov_pending = recov_pending;
        self.first_onset_cycle = first_onset_cycle;
        self.fault_active_prev = fault_active_prev;
        self.out_free_at = out_free_at;
        self.in_flight_per_router = in_flight_per_router;
        self.queued_total = queued_total;
        for (qi, q) in inj_queues {
            self.inj_occ[qi / 64] |= 1 << (qi % 64);
            self.inj_queues[qi] = q;
        }
        self.arrivals = arrivals;
        self.tx_ends = tx_ends;
        for (bi, ((packets, shrink, last), reserved)) in
            buffers.into_iter().zip(reserved).enumerate()
        {
            let occupied = !packets.is_empty();
            self.bufs
                .restore_buffer(bi, packets, reserved, shrink, last);
            if occupied {
                let r = bi / (self.ports * self.vnets);
                let slot = bi % (self.ports * self.vnets);
                self.occ_set(r, slot);
            }
        }
        if let Some(fr) = faults {
            self.faults = Some(fr);
        }
        if let Some(ck) = checker {
            self.checker = Some(ck);
        }
        if let (Some(c), Some((withhold, fault_shrink, epochs_run, _))) = (&mut self.vc_ctl, ctl) {
            c.withhold = withhold;
            c.fault_shrink = fault_shrink;
            c.epochs_run = epochs_run;
        }
        Ok(())
    }

    /// Refuses a restored packet that would panic a later step: a node,
    /// vnet, router or local slot out of range, a vnet other than that of
    /// the queue, link or buffer `held_on` (credit is checked on the
    /// holder's vnet but reserved on the packet's), a length outside
    /// `1..=max_packet_flits`, or a creation or injection cycle after the
    /// snapshot's `cycle`.
    fn check_packet(
        &self,
        record: &str,
        p: &Packet,
        cycle: u64,
        held_on: Option<usize>,
    ) -> Result<(), String> {
        let (nodes, routers) = (self.node_ports.len(), self.coords.len());
        in_range(record, "src", p.src.index() as u64, nodes)?;
        in_range(record, "dst", p.dst.index() as u64, nodes)?;
        in_range(record, "vnet", p.vnet as u64, self.vnets)?;
        if let Some(v) = held_on.filter(|&v| v != p.vnet) {
            return Err(format!(
                "{record}: packet vnet {} is held on vnet {v}",
                p.vnet
            ));
        }
        in_range(record, "src_router", p.src_router.index() as u64, routers)?;
        in_range(record, "dst_router", p.dst_router.index() as u64, routers)?;
        in_range(record, "dst_slot", p.dst_slot as u64, self.num_locals)?;
        check_len(record, "len_flits", p.len_flits, self.cfg.max_packet_flits)?;
        not_after(record, "create_cycle", p.create_cycle, cycle)?;
        not_after(record, "inject_cycle", p.inject_cycle, cycle)
    }
}

/// `Err` naming `record` unless its `field` value `v` indexes a table of
/// `len` entries.
fn in_range(record: &str, field: &str, v: u64, len: usize) -> Result<(), String> {
    if v < len as u64 {
        Ok(())
    } else {
        Err(format!(
            "{record}: {field} {v} out of range (must be < {len})"
        ))
    }
}

/// `Err` naming `record` unless its `field` length lies in `1..=max`:
/// restore adds each packet and credit-return length to a credit book.
fn check_len(record: &str, field: &str, len: u32, max: u32) -> Result<(), String> {
    if (1..=max).contains(&len) {
        Ok(())
    } else {
        Err(format!("{record}: {field} {len} outside 1..={max}"))
    }
}

/// `Err` naming `record` when its `field` timestamp `t` lies after the
/// snapshot's `cycle`.
fn not_after(record: &str, field: &str, t: u64, cycle: u64) -> Result<(), String> {
    if t <= cycle {
        Ok(())
    } else {
        Err(format!(
            "{record}: {field} {t} is after the snapshot cycle {cycle}"
        ))
    }
}
