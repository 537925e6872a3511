//! The assembled fabric plus all forwarding behaviour and the event loop.
//!
//! [`Fabric`] owns every switch, link, and host attachment. [`Network`]
//! pairs a fabric with user-supplied [`HostLogic`] (the hypervisor stack:
//! vswitch, TCP endpoints, applications — implemented in higher crates) and
//! implements [`clove_sim::World`], so a whole experiment is just
//! `clove_sim::run(&mut network, &mut queue, horizon)`.
//!
//! ## Event flow
//!
//! * A host calls [`HostCtx::send`] → packet parked in the fabric's
//!   [`PacketSlab`] and its [`PacketId`] enqueued on the host's uplink; if
//!   the transmitter was idle its `Arrive{node, via, pkt}` (serialization +
//!   one propagation delay later) is scheduled immediately. Events carry
//!   only the handle; each hop mutates the parked packet in place.
//! * `Arrive{node, via}` first settles `via` ([`Fabric::settle_link`]):
//!   every queued packet whose serialization has started by now is committed
//!   back-to-back and its own `Arrive` scheduled — there is no per-packet
//!   `TxDone` event, so a backlog of N packets costs N events, not 2N.
//! * `Arrive` at a switch → [`Fabric::switch_receive`]: TTL handling
//!   (probe expiry → ProbeReply), scheme-specific egress selection (ECMP /
//!   LetFlow / CONGA), enqueue on the chosen egress link.
//! * `Arrive` at a host → handed to [`HostLogic::on_packet`], which takes
//!   the packet out of the slab ([`HostCtx::take`]). Every drop (overflow,
//!   link down, injected loss, no route, TTL expiry, HULA absorption)
//!   releases its slot instead.
//! * `HostTimer` → handed to [`HostLogic::on_timer`].
//! * `LinkAdmin` → link state flips and routes are recomputed — this is
//!   how experiments inject mid-run failures.

use crate::fault::{ControlAction, ControlFaultStats, FaultStats, LinkAction, NodeSelector};
use crate::hash::ecmp_select;
use crate::link::{EnqueueOutcome, Link};
use crate::packet::{CongaTag, Feedback, Packet, PacketKind};
use crate::slab::{PacketId, PacketSlab};
use crate::switch::{CongaConfig, FabricScheme, FlowletEntry, Switch};
use crate::types::{FlowKey, HostId, LinkId, NodeId, SwitchId};
use clove_sim::{Duration, EventQueue, SimRng, Time, World};
use clove_telemetry::{LoopProfile, Trace};

/// Per-host attachment to the fabric.
#[derive(Debug, Clone, Copy)]
pub struct HostAttachment {
    /// The host's transmit link (host → leaf).
    pub uplink: LinkId,
    /// The leaf's transmit link toward the host (leaf → host).
    pub downlink: LinkId,
    /// The leaf switch the host hangs off.
    pub leaf: SwitchId,
}

/// Simulation events understood by [`Network`].
#[derive(Debug)]
pub enum Event {
    /// A packet reaches `node` having traversed `via`.
    Arrive {
        /// The node receiving the packet.
        node: NodeId,
        /// The link it arrived on (probe replies need the ingress id).
        via: LinkId,
        /// The packet, parked in the fabric's [`PacketSlab`].
        pkt: PacketId,
    },
    /// Opaque host-level timer (TCP RTO, probe rounds, app arrivals...).
    HostTimer {
        /// The host whose timer fired.
        host: HostId,
        /// Caller-defined token (see `clove-harness`'s token scheme).
        token: u64,
    },
    /// HULA probe round: every leaf floods fresh probes, then the tick
    /// reschedules itself at the configured interval.
    HulaTick,
    /// Administratively flip one link direction and recompute routes.
    LinkAdmin {
        /// The directed link to flip.
        link: LinkId,
        /// New administrative state.
        up: bool,
    },
    /// Apply one expanded fault action to one link direction (see
    /// [`crate::fault`]). Unlike `LinkAdmin`, routes are only recomputed
    /// when the fault is `announced` — silent faults leave the data plane
    /// hashing into the failure, which only edge probing can detect.
    Fault {
        /// The directed link the action applies to.
        link: LinkId,
        /// The atomic operation.
        action: LinkAction,
        /// Whether the control plane notices (recompute routes).
        announced: bool,
    },
    /// Apply one expanded control-plane fault action (probe/feedback
    /// attacks, see [`crate::fault::ControlFaultPlan`]). These are always
    /// "silent": nothing reroutes, the edge just sees fewer signals.
    ControlFault {
        /// The setting change.
        action: ControlAction,
    },
    /// One lifecycle phase of a node fault (see
    /// [`crate::fault::NodeFaultSpec`]). The incident-cable flips are
    /// separate [`Event::Fault`]s scheduled at the same timestamps, before
    /// this event — this one carries only the state semantics: a cold
    /// switch restart clears the switch's soft forwarding tables, and a
    /// host restart is dispatched to [`HostLogic::on_restart`].
    NodeFault {
        /// The node, for traces and host dispatch.
        node: NodeSelector,
        /// Resolved switch id when the node is a switch (`None` for
        /// hosts) — resolved at schedule time because only the topology
        /// knows the tier layout.
        switch: Option<SwitchId>,
        /// `true` = restart phase, `false` = crash phase.
        up: bool,
        /// Whether the restart is cold (soft state lost).
        cold: bool,
    },
}

/// Event kind names in [`Event::kind_index`] order — the registration list
/// for the event loop's [`LoopProfile`].
pub const EVENT_KIND_NAMES: &[&str] = &["arrive", "host_timer", "hula_tick", "link_admin", "fault", "control_fault", "node_fault"];

impl Event {
    /// Index into [`EVENT_KIND_NAMES`] for this event's kind.
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Arrive { .. } => 0,
            Event::HostTimer { .. } => 1,
            Event::HulaTick => 2,
            Event::LinkAdmin { .. } => 3,
            Event::Fault { .. } => 4,
            Event::ControlFault { .. } => 5,
            Event::NodeFault { .. } => 6,
        }
    }

    /// Stable name for this event's kind.
    pub fn kind_name(&self) -> &'static str {
        EVENT_KIND_NAMES[self.kind_index()]
    }
}

/// Current control-plane fault settings, mutated by
/// [`Event::ControlFault`] and consulted on the probe/feedback hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlPlaneFaults {
    /// Per-probe drop probability at the host uplink.
    pub probe_loss: f64,
    /// Per-reply drop probability at generation.
    pub reply_loss: f64,
    /// Per-entry feedback strip probability.
    pub feedback_loss: f64,
    /// Extra one-way delay applied to every feedback entry
    /// (`Duration::ZERO`: off).
    pub feedback_delay: Duration,
    /// Per-entry feedback corruption probability.
    pub feedback_corrupt: f64,
}

impl ControlPlaneFaults {
    /// True when no control-plane fault is currently active (the common
    /// case — keeps the per-packet cost to one branch).
    fn is_clean(&self) -> bool {
        self.probe_loss == 0.0 && self.feedback_loss == 0.0 && self.feedback_delay == Duration::ZERO && self.feedback_corrupt == 0.0
    }
}

/// Fabric-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Packets that arrived at a switch with no route to their destination
    /// (transient during failures) and were dropped.
    pub no_route_drops: u64,
    /// Probe replies generated by TTL expiry.
    pub probe_replies: u64,
    /// Atomic fault actions applied via [`Event::Fault`].
    pub faults_applied: u64,
    /// Control-plane damage counters (probe/feedback attacks).
    pub control: ControlFaultStats,
}

/// The physical network: switches, links, host attachments, and the
/// fabric-wide scheme/config.
pub struct Fabric {
    /// All switches, indexed by `SwitchId.0`.
    pub switches: Vec<Switch>,
    /// All directed links, indexed by `LinkId.0`.
    pub links: Vec<Link>,
    /// Host attachments, indexed by `HostId.0`.
    pub hosts: Vec<HostAttachment>,
    /// Which algorithm the switches run.
    pub scheme: FabricScheme,
    /// Counters.
    pub stats: FabricStats,
    /// Deterministic randomness for in-switch decisions (LetFlow).
    pub rng: SimRng,
    /// Active control-plane fault settings.
    pub control: ControlPlaneFaults,
    /// Decision-trace handle for fabric-level events (ECN marks, faults).
    /// Disabled by default; recording never alters forwarding behaviour.
    trace: Trace,
    /// Packet uid source for switch-originated packets (probe replies).
    next_uid: u64,
    /// Every packet in flight; events and link FIFOs hold handles into it.
    pub(crate) packets: PacketSlab,
    /// Scratch for link settle/enqueue commits, drained into `Arrive`
    /// events immediately after each call; pre-sized so the deepest
    /// single-link backlog in the topology settles without reallocating.
    commit_scratch: Vec<(Time, PacketId)>,
}

impl Fabric {
    /// Assemble a fabric from parts (normally done by `topology` builders).
    pub fn new(switches: Vec<Switch>, links: Vec<Link>, hosts: Vec<HostAttachment>, scheme: FabricScheme, seed: u64) -> Fabric {
        // A settle commits at most one full buffer of MTU-ish packets in
        // one call; size the scratch for the deepest buffer in the fabric.
        let scratch = links.iter().map(|l| (l.cfg.buffer_bytes / 1000 + 2) as usize).max().unwrap_or(16);
        Fabric {
            switches,
            links,
            hosts,
            scheme,
            stats: FabricStats::default(),
            rng: SimRng::new(seed ^ 0xFAB0_5EED),
            control: ControlPlaneFaults::default(),
            trace: Trace::disabled(),
            // High bit set: never collides with host-assigned uids.
            next_uid: 1 << 63,
            packets: PacketSlab::default(),
            commit_scratch: Vec::with_capacity(scratch),
        }
    }

    /// Install a decision-trace handle for fabric-level events.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The leaf switch of a host.
    pub fn leaf_of(&self, host: HostId) -> SwitchId {
        self.hosts[host.0 as usize].leaf
    }

    /// Borrow a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Mutably borrow a link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Packets parked in the fabric: sent or generated, and not yet
    /// delivered or dropped.
    pub fn packets_in_flight(&self) -> usize {
        self.packets.in_flight()
    }

    fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    /// Transmit a host-originated packet onto the host's access uplink.
    pub fn host_transmit(&mut self, now: Time, host: HostId, mut pkt: Packet, q: &mut EventQueue<Event>) {
        if !self.control.is_clean() && !self.apply_control_to_packet(now, &mut pkt, q) {
            return;
        }
        let uplink = self.hosts[host.0 as usize].uplink;
        let id = self.packets.park(pkt);
        self.enqueue_on(now, uplink, id, q);
    }

    /// Apply active control-plane faults to one outbound packet. Returns
    /// `false` when the packet itself is consumed (probe dropped).
    fn apply_control_to_packet(&mut self, now: Time, pkt: &mut Packet, q: &mut EventQueue<Event>) -> bool {
        if matches!(pkt.kind, PacketKind::Probe { .. }) {
            if self.control.probe_loss > 0.0 && self.rng.chance(self.control.probe_loss) {
                self.stats.control.probes_dropped += 1;
                return false;
            }
            return true;
        }
        if pkt.feedback.is_none() {
            return true;
        }
        if self.control.feedback_loss > 0.0 && self.rng.chance(self.control.feedback_loss) {
            pkt.feedback = None;
            self.stats.control.feedback_dropped += 1;
            return true;
        }
        if self.control.feedback_corrupt > 0.0 && self.rng.chance(self.control.feedback_corrupt) {
            if let Some(fb) = pkt.feedback.as_mut() {
                *fb = Self::corrupt_feedback(*fb);
                self.stats.control.feedback_corrupted += 1;
            }
        }
        if self.control.feedback_delay > Duration::ZERO {
            if let Some(fb) = pkt.feedback.take() {
                self.stats.control.feedback_delayed += 1;
                let carrier = self.feedback_carrier(now, pkt, fb);
                let dst = carrier.routed_dst();
                let downlink = self.hosts[dst.0 as usize].downlink;
                let pkt = self.packets.park(carrier);
                q.push(now + self.control.feedback_delay, Event::Arrive { node: NodeId::Host(dst), via: downlink, pkt });
            }
        }
        true
    }

    /// A standalone relay packet carrying feedback detached from `orig`,
    /// addressed so the destination vswitch attributes it to the right
    /// source hypervisor.
    fn feedback_carrier(&mut self, now: Time, orig: &Packet, fb: Feedback) -> Packet {
        let key = orig.routed_key();
        let mut carrier =
            Packet::new(self.fresh_uid(), crate::wire::PROBE_REPLY_SIZE, FlowKey::tcp(key.src, key.dst, key.sport, key.dport), PacketKind::FeedbackOnly);
        carrier.outer = orig.outer;
        carrier.feedback = Some(fb);
        carrier.sent_at = now;
        carrier
    }

    /// Deterministic feedback corruption: the kind of damage a bit flip in
    /// the STT context bits would do.
    fn corrupt_feedback(fb: Feedback) -> Feedback {
        match fb {
            Feedback::Ecn { sport, congested } => Feedback::Ecn { sport, congested: !congested },
            Feedback::Util { sport, util_pm } => Feedback::Util { sport, util_pm: 1000 - util_pm.min(1000) },
            Feedback::Latency { sport, one_way } => Feedback::Latency { sport, one_way: one_way * 2 },
        }
    }

    /// Apply one expanded control-plane fault action.
    pub fn apply_control_fault(&mut self, action: ControlAction) {
        match action {
            ControlAction::SetProbeLoss(rate) => self.control.probe_loss = rate,
            ControlAction::SetReplyLoss(rate) => self.control.reply_loss = rate,
            ControlAction::SetFeedbackLoss(rate) => self.control.feedback_loss = rate,
            ControlAction::SetFeedbackDelay(delay) => self.control.feedback_delay = delay,
            ControlAction::SetFeedbackCorrupt(rate) => self.control.feedback_corrupt = rate,
        }
        self.stats.control.control_faults_applied += 1;
    }

    /// Control-plane damage so far.
    pub fn control_stats(&self) -> ControlFaultStats {
        self.stats.control
    }

    /// Enqueue a parked packet on a specific link, scheduling an `Arrive`
    /// for every packet the link commits (the offered packet if the
    /// transmitter was idle, plus any backlog the pre-admission settle
    /// drained). A dropped packet's slot is released.
    fn enqueue_on(&mut self, now: Time, link: LinkId, id: PacketId, q: &mut EventQueue<Event>) {
        // Injected stochastic loss (fault injection): the coin is flipped
        // here rather than in `Link` so the link stays deterministic and the
        // fabric's seeded RNG governs all randomness.
        let l = &mut self.links[link.0 as usize];
        if l.loss_rate() > 0.0 && self.rng.chance(l.loss_rate()) {
            l.stats.drops_loss += 1;
            self.packets.release(id);
            return;
        }
        let to = l.to;
        debug_assert!(self.commit_scratch.is_empty());
        // Marks are counted in `Link::enqueue`; the before/after delta tells
        // the trace how many CE marks this admission applied without adding
        // any state to the link hot path.
        let marks_before = if self.trace.is_enabled() { self.links[link.0 as usize].stats.ecn_marks } else { 0 };
        let pkt = &mut self.packets[&id];
        if let EnqueueOutcome::Dropped(id) = self.links[link.0 as usize].enqueue(now, id, pkt, &mut self.commit_scratch) {
            self.packets.release(id);
        }
        if self.trace.is_enabled() {
            let delta = self.links[link.0 as usize].stats.ecn_marks - marks_before;
            if delta > 0 {
                self.trace.ecn_mark(now.0, link.0, delta);
            }
        }
        for (at, pkt) in self.commit_scratch.drain(..) {
            q.push(at, Event::Arrive { node: to, via: link, pkt });
        }
    }

    /// Bring one link's transmitter up to date with the clock, scheduling an
    /// `Arrive` for every queued packet whose serialization has started by
    /// `now`. A one-branch no-op when the link is idle or still mid-packet;
    /// called before every read or mutation that depends on transmitter or
    /// DRE state (arrivals on the link, CONGA/HULA metric reads, fault
    /// application, end-of-run stats collection).
    pub fn settle_link(&mut self, now: Time, link: LinkId, q: &mut EventQueue<Event>) {
        let l = &mut self.links[link.0 as usize];
        if !l.needs_settle(now) {
            return;
        }
        let to = l.to;
        debug_assert!(self.commit_scratch.is_empty());
        l.settle(now, &mut self.commit_scratch);
        for (at, pkt) in self.commit_scratch.drain(..) {
            q.push(at, Event::Arrive { node: to, via: link, pkt });
        }
    }

    /// Settle every link. Run this at end of run (or before reading
    /// fabric-wide stats) so `LinkStats::tx_packets` / `tx_bytes` and DRE
    /// state reflect everything that happened by `now`.
    pub fn settle_all(&mut self, now: Time, q: &mut EventQueue<Event>) {
        for i in 0..self.links.len() {
            self.settle_link(now, LinkId(i as u32), q);
        }
    }

    /// A packet arrives at a switch: forward it.
    pub fn switch_receive(&mut self, now: Time, sw: SwitchId, via: LinkId, id: PacketId, q: &mut EventQueue<Event>) {
        let pkt = &mut self.packets[&id];
        if let PacketKind::HulaProbe { tor, util_pm } = pkt.kind {
            // Absorbed here; `hula_probe` re-floods fresh probes.
            self.packets.release(id);
            if let FabricScheme::Hula(cfg) = self.scheme {
                self.hula_probe(now, sw, via, tor, util_pm, cfg, q);
            }
            return;
        }
        // TTL handling: probes expire and elicit a reply identifying this
        // switch and the ingress interface — the Paris-traceroute analogue
        // Clove's path discovery is built on (paper §3.1).
        if pkt.ttl <= 1 {
            // Expired packets (probe or not) are dropped.
            let (kind, src) = (pkt.kind, pkt.routed_key().src);
            self.packets.release(id);
            if let PacketKind::Probe { probe_id, ttl_sent } = kind {
                // Injected reply loss: the ICMP time-exceeded never forms
                // (rate-limited ICMP generation is the real-world analogue).
                if self.control.reply_loss > 0.0 && self.rng.chance(self.control.reply_loss) {
                    self.stats.control.replies_dropped += 1;
                    return;
                }
                self.stats.probe_replies += 1;
                let reply_kind = PacketKind::ProbeReply { probe_id, ttl_sent, switch: sw, ingress: Some(via) };
                let mut reply = Packet::new(
                    self.fresh_uid(),
                    crate::wire::PROBE_REPLY_SIZE,
                    // Replies are routed on their own (switch→prober) key.
                    FlowKey::tcp(HostId(u32::MAX - sw.0), src, 0, 0),
                    reply_kind,
                );
                reply.sent_at = now;
                let reply = self.packets.park(reply);
                self.forward_from_switch(now, sw, reply, q);
            }
            return;
        }
        pkt.ttl -= 1;

        // CONGA dest-leaf processing happens when the packet is about to
        // exit toward a local host.
        self.forward_from_switch(now, sw, id, q);
    }

    /// Core egress selection + enqueue at a switch.
    fn forward_from_switch(&mut self, now: Time, sw: SwitchId, id: PacketId, q: &mut EventQueue<Event>) {
        let key = self.packets[&id].routed_key();
        let dst = key.dst;
        let swi = sw.0 as usize;
        // Copy the ECMP group into a stack buffer (groups are tiny; this
        // keeps the per-packet path allocation-free).
        let mut group_buf = [0usize; 16];
        let group_len = match self.switches[swi].routes.get(dst.0 as usize) {
            Some(g) if !g.is_empty() => {
                let n = g.len().min(16);
                group_buf[..n].copy_from_slice(&g[..n]);
                n
            }
            _ => {
                self.stats.no_route_drops += 1;
                self.packets.release(id);
                return;
            }
        };
        let group = &group_buf[..group_len];

        // CONGA reads every member's DRE at choice time (and folds the
        // chosen egress DRE into the tag): bring those transmitters up to
        // date first so the estimates include all traffic up to `now`.
        if matches!(self.scheme, FabricScheme::Conga(_)) {
            for &p in group {
                let member = self.switches[swi].ports[p];
                self.settle_link(now, member, q);
            }
        }

        // Is the next hop the destination host itself? (last-hop delivery)
        let last_hop = {
            let first_link = self.switches[swi].ports[group[0]];
            matches!(self.links[first_link.0 as usize].to, NodeId::Host(h) if h == dst)
        };

        let choice = if last_hop {
            // Access links never ECMP (single downlink per host).
            0
        } else {
            match self.scheme {
                FabricScheme::Ecmp => ecmp_select(&key, self.switches[swi].seed, group.len()),
                FabricScheme::LetFlow(cfg) => self.letflow_choice(now, swi, key, group.len(), cfg.flowlet_gap),
                FabricScheme::Conga(cfg) => self.conga_choice(now, swi, &id, key, group, cfg),
                FabricScheme::Hula(cfg) => self.hula_choice(now, swi, key, group, cfg),
            }
        };
        let egress = self.switches[swi].ports[group[choice % group.len()]];

        if let FabricScheme::Conga(cfg) = self.scheme {
            if let Some(mut tag) = self.packets[&id].conga {
                // Processing at the destination leaf (packet exits fabric).
                if last_hop {
                    self.conga_dest_leaf(now, swi, key, tag);
                }
                // Every hop folds its chosen egress DRE into the metric.
                let qz = self.links[egress.0 as usize].dre.quantized(now, cfg.quant_bits);
                tag.ce = tag.ce.max(qz);
                self.packets[&id].conga = Some(tag);
            }
        }
        self.enqueue_on(now, egress, id, q);
    }

    /// LetFlow: per-switch flowlet table; random member per new flowlet.
    fn letflow_choice(&mut self, now: Time, swi: usize, key: FlowKey, n: usize, gap: Duration) -> usize {
        let fresh = self.rng.below(n as u64) as usize;
        let entry = self.switches[swi].letflow_table.entry(key).or_insert(FlowletEntry { port_choice: fresh, last_seen: now });
        if now.saturating_since(entry.last_seen) > gap {
            entry.port_choice = fresh;
        }
        entry.last_seen = now;
        entry.port_choice % n
    }

    /// CONGA source-leaf / spine egress choice; a source leaf stamps the
    /// packet's forward tag.
    fn conga_choice(&mut self, now: Time, swi: usize, id: &PacketId, key: FlowKey, group: &[usize], cfg: CongaConfig) -> usize {
        let is_leaf = self.switches[swi].is_leaf;
        if !is_leaf || self.packets[id].conga.is_some() {
            // Spine (or transit leaf): local decision among parallel trunk
            // members — least-loaded by local DRE, but pinned per flowlet
            // so parallel cables don't reorder a flowlet's packets.
            let need_new = match self.switches[swi].letflow_table.get(&key) {
                Some(e) => now.saturating_since(e.last_seen) > cfg.flowlet_gap,
                None => true,
            };
            let choice = if need_new {
                self.least_loaded_member(now, swi, group, cfg.quant_bits)
            } else {
                self.switches[swi].letflow_table[&key].port_choice % group.len()
            };
            self.switches[swi].letflow_table.insert(key, FlowletEntry { port_choice: choice, last_seen: now });
            return choice;
        }
        // Source leaf: flowlet table + congestion-to-leaf table.
        let dst_leaf = self.leaf_of(key.dst).0;
        let need_new = match self.switches[swi].conga.flowlets.get(&key) {
            Some(e) => now.saturating_since(e.last_seen) > cfg.flowlet_gap,
            None => true,
        };
        let choice = if need_new { self.conga_best_uplink(now, swi, dst_leaf, group, cfg) } else { self.switches[swi].conga.flowlets[&key].port_choice };
        let sw = &mut self.switches[swi];
        sw.conga.flowlets.insert(key, FlowletEntry { port_choice: choice, last_seen: now });
        // Stamp the forward tag; attach pending feedback for the reverse
        // direction (dest leaf of *this* packet = the leaf we owe metrics).
        let fb = Self::conga_take_feedback(&mut self.switches[swi], dst_leaf);
        self.packets[id].conga = Some(CongaTag { lbtag: choice as u8, ce: 0, fb });
        choice
    }

    /// Least-loaded member with *random* tie-breaking — CONGA picks
    /// uniformly among minima; a deterministic tie-break would herd every
    /// flowlet in a DRE period onto one member and oscillate.
    fn least_loaded_member(&mut self, now: Time, swi: usize, group: &[usize], bits: u8) -> usize {
        let mut best_q = u8::MAX;
        let mut minima = [0usize; 16];
        let mut n_min = 0usize;
        for (i, &p) in group.iter().enumerate() {
            let link = self.switches[swi].ports[p];
            let qz = self.links[link.0 as usize].dre.quantized(now, bits);
            if qz < best_q {
                best_q = qz;
                minima[0] = i;
                n_min = 1;
            } else if qz == best_q && n_min < minima.len() {
                minima[n_min] = i;
                n_min += 1;
            }
        }
        minima[self.rng.below(n_min as u64) as usize]
    }

    /// CONGA's argmin over uplinks of max(local DRE, remote metric), with
    /// random tie-breaking among minima (as in the CONGA paper).
    fn conga_best_uplink(&mut self, now: Time, swi: usize, dst_leaf: u32, group: &[usize], cfg: CongaConfig) -> usize {
        let mut best_m = u16::MAX;
        let mut minima = [0usize; 16];
        let mut n_min = 0usize;
        for (i, &p) in group.iter().enumerate() {
            let link = self.switches[swi].ports[p];
            let local = self.links[link.0 as usize].dre.quantized(now, cfg.quant_bits);
            let remote = self.switches[swi]
                .conga
                .to_leaf
                .get(&dst_leaf)
                .and_then(|v| v.get(i))
                .filter(|(_, t)| now.saturating_since(*t) < cfg.metric_age)
                .map(|&(m, _)| m)
                .unwrap_or(0);
            let metric = local.max(remote) as u16;
            if metric < best_m {
                best_m = metric;
                minima[0] = i;
                n_min = 1;
            } else if metric == best_m && n_min < minima.len() {
                minima[n_min] = i;
                n_min += 1;
            }
        }
        minima[self.rng.below(n_min as u64) as usize]
    }

    /// Pop one (lbtag, metric) pair owed to `dst_leaf`, round-robin.
    fn conga_take_feedback(sw: &mut Switch, dst_leaf: u32) -> Option<(u8, u8)> {
        let metrics = sw.conga.from_leaf.get(&dst_leaf)?;
        if metrics.is_empty() {
            return None;
        }
        let cursor = sw.conga.fb_cursor.entry(dst_leaf).or_insert(0);
        let idx = *cursor % metrics.len();
        *cursor = (*cursor + 1) % metrics.len();
        let (m, _) = metrics[idx];
        Some((idx as u8, m))
    }

    /// Destination-leaf CONGA processing: record the arriving metric and
    /// absorb any piggybacked feedback.
    fn conga_dest_leaf(&mut self, now: Time, swi: usize, key: FlowKey, tag: CongaTag) {
        let src_leaf = self.leaf_of(key.src).0;
        let sw = &mut self.switches[swi];
        // from_leaf[src_leaf][lbtag] = ce — metrics we owe back to src_leaf.
        let v = sw.conga.from_leaf.entry(src_leaf).or_default();
        let need = tag.lbtag as usize + 1;
        if v.len() < need {
            v.resize(need, (0, Time::ZERO));
        }
        v[tag.lbtag as usize] = (tag.ce, now);
        // fb describes *our* uplink paths toward src_leaf.
        if let Some((fb_tag, fb_metric)) = tag.fb {
            let t = sw.conga.to_leaf.entry(src_leaf).or_default();
            let need = fb_tag as usize + 1;
            if t.len() < need {
                t.resize(need, (0, Time::ZERO));
            }
            t[fb_tag as usize] = (fb_metric, now);
        }
    }

    /// HULA data plane: route the flowlet on the best next hop toward the
    /// destination's ToR; fall back to ECMP when no fresh entry exists.
    fn hula_choice(&mut self, now: Time, swi: usize, key: FlowKey, group: &[usize], cfg: crate::switch::HulaConfig) -> usize {
        let need_new = match self.switches[swi].letflow_table.get(&key) {
            Some(e) => now.saturating_since(e.last_seen) > cfg.flowlet_gap,
            None => true,
        };
        let choice = if need_new {
            let tor = self.leaf_of(key.dst).0;
            match self.switches[swi].hula_best.get(&tor) {
                Some(&(port, _, at)) if now.saturating_since(at) <= cfg.entry_age => {
                    // The best hop is a port index; map into the ECMP
                    // group if present, else fall back.
                    group.iter().position(|&g| g == port).unwrap_or_else(|| ecmp_select(&key, self.switches[swi].seed, group.len()))
                }
                _ => ecmp_select(&key, self.switches[swi].seed, group.len()),
            }
        } else {
            self.switches[swi].letflow_table[&key].port_choice % group.len()
        };
        self.switches[swi].letflow_table.insert(key, FlowletEntry { port_choice: choice, last_seen: now });
        choice
    }

    /// HULA control plane: absorb a probe and re-flood it with the updated
    /// max-utilization if it improved our best entry (split-horizon: never
    /// back out the ingress port).
    #[allow(clippy::too_many_arguments)]
    fn hula_probe(&mut self, now: Time, sw: SwitchId, via: LinkId, tor: u32, util_pm: u16, cfg: crate::switch::HulaConfig, q: &mut EventQueue<Event>) {
        let swi = sw.0 as usize;
        // A ToR's own advertisement coming back is a routing loop: drop.
        if self.switches[swi].is_leaf && self.switches[swi].id.0 == tor {
            return;
        }
        // Utilization in the *data* direction (reverse of the probe); the
        // DRE only counts settled transmissions, so settle first.
        let data_link = self.links[via.0 as usize].reverse.unwrap_or(via);
        self.settle_link(now, data_link, q);
        let link_util = self.links[data_link.0 as usize].dre.utilization_pm(now);
        let path_util = util_pm.max(link_util);
        // Which local port leads back toward the ToR? The reverse link.
        let Some(port) = self.switches[swi].ports.iter().position(|&l| l == data_link) else {
            return;
        };
        let best = self.switches[swi].hula_best.get(&tor).copied();
        let improved = match best {
            Some((bport, butil, at)) => bport == port || path_util < butil || now.saturating_since(at) > cfg.entry_age,
            None => true,
        };
        if !improved {
            return;
        }
        self.switches[swi].hula_best.insert(tor, (port, path_util, now));
        // Re-flood to all other switch neighbours.
        let ports: Vec<LinkId> = self.switches[swi].ports.clone();
        for l in ports {
            if l == data_link {
                continue; // split horizon
            }
            let link = &self.links[l.0 as usize];
            if !link.up || !matches!(link.to, NodeId::Switch(_)) {
                continue;
            }
            let mut probe = Packet::new(
                self.fresh_uid(),
                crate::wire::PROBE_SIZE,
                FlowKey::tcp(HostId(u32::MAX - 1), HostId(u32::MAX - 1), 0, 0),
                PacketKind::HulaProbe { tor, util_pm: path_util },
            );
            probe.sent_at = now;
            let probe = self.packets.park(probe);
            self.enqueue_on(now, l, probe, q);
        }
    }

    /// Start a HULA probe round: every leaf advertises itself on all its
    /// fabric uplinks with utilization 0 (refined hop by hop).
    pub fn hula_tick(&mut self, now: Time, q: &mut EventQueue<Event>) {
        let FabricScheme::Hula(cfg) = self.scheme else { return };
        for swi in 0..self.switches.len() {
            if !self.switches[swi].is_leaf {
                continue;
            }
            let tor = self.switches[swi].id.0;
            let ports: Vec<LinkId> = self.switches[swi].ports.clone();
            for l in ports {
                let link = &self.links[l.0 as usize];
                if !link.up || !matches!(link.to, NodeId::Switch(_)) {
                    continue;
                }
                let mut probe = Packet::new(
                    self.fresh_uid(),
                    crate::wire::PROBE_SIZE,
                    FlowKey::tcp(HostId(u32::MAX - 1), HostId(u32::MAX - 1), 0, 0),
                    PacketKind::HulaProbe { tor, util_pm: 0 },
                );
                probe.sent_at = now;
                let probe = self.packets.park(probe);
                self.enqueue_on(now, l, probe, q);
            }
        }
        q.push(now + cfg.probe_interval, Event::HulaTick);
    }

    /// Flip a link's administrative state and recompute all routes. The
    /// link settles first, so a `down` flushes exactly the packets whose
    /// serialization had not started by `now`.
    pub fn set_link_admin(&mut self, now: Time, link: LinkId, up: bool, q: &mut EventQueue<Event>) {
        self.settle_link(now, link, q);
        self.links[link.0 as usize].set_up(up, &mut self.packets);
        crate::topology::recompute_routes(self);
    }

    /// Apply one expanded fault action (see [`crate::fault`]). Routes are
    /// recomputed only for `announced` up/down faults; rate and loss
    /// changes never alter routing (the link is still nominally up).
    ///
    /// The link settles first, so every packet whose serialization started
    /// before the fault is committed under the pre-fault link state.
    pub fn apply_fault(&mut self, now: Time, link: LinkId, action: LinkAction, announced: bool, q: &mut EventQueue<Event>) {
        self.settle_link(now, link, q);
        let l = &mut self.links[link.0 as usize];
        let routes_change = match action {
            LinkAction::Down => {
                l.set_up_at(now, false, &mut self.packets);
                announced
            }
            LinkAction::Up => {
                l.set_up_at(now, true, &mut self.packets);
                announced
            }
            LinkAction::SetRate(fraction) => {
                l.set_rate_fraction(now, fraction);
                false
            }
            LinkAction::SetLoss(rate) => {
                l.set_loss_rate(now, rate);
                false
            }
        };
        self.stats.faults_applied += 1;
        self.trace.fault_activation(now.0, link.0, action.name(), announced);
        if routes_change {
            crate::topology::recompute_routes(self);
        }
    }

    /// Cold-restart semantics for a switch: every soft forwarding table the
    /// reboot would lose — the LetFlow/HULA flowlet table, all four CONGA
    /// maps, and the HULA best-hop table — is flushed. Routes themselves
    /// are rebuilt by the announced incident-cable `Up`s; warm restarts
    /// skip this entirely (state survives in the model, as it would in a
    /// supervisor fast-restart).
    pub fn switch_cold_restart(&mut self, now: Time, sw: SwitchId, node: NodeSelector) {
        let s = &mut self.switches[sw.0 as usize];
        s.cold_clear();
        self.trace.state_flush(now.0, node.tier(), node.index(), "fabric_lb");
    }

    /// Aggregate fault damage across all links as of `now` (open down /
    /// degraded intervals are included).
    pub fn fault_stats(&self, now: Time) -> FaultStats {
        let mut out = FaultStats { faults_applied: self.stats.faults_applied, ..FaultStats::default() };
        out.drops_no_route = self.stats.no_route_drops;
        for l in &self.links {
            out.drops_down += l.stats.drops_down;
            out.drops_loss += l.stats.drops_loss;
            out.drops_overflow += l.stats.drops_overflow;
            out.down_time += l.down_time_as_of(now);
            out.degraded_time += l.degraded_time_as_of(now);
        }
        out
    }
}

/// The host-side of the simulation: hypervisor vswitch, transports, apps.
///
/// Implemented by `clove-harness`'s `HostStack`; kept abstract here so the
/// fabric layer has no upward dependencies.
pub trait HostLogic {
    /// A packet was delivered to `host`'s NIC. The packet is still parked
    /// in the fabric: take it with [`HostCtx::take`].
    fn on_packet(&mut self, host: HostId, pkt: PacketId, ctx: &mut HostCtx<'_>);
    /// A timer set through [`HostCtx::timer_in`] fired.
    fn on_timer(&mut self, host: HostId, token: u64, ctx: &mut HostCtx<'_>);
    /// The hypervisor under `host` restarted after a crash ([`Event::NodeFault`]
    /// restart phase). `cold` means the vswitch's soft state (flowlet
    /// table, WRR weights, ECN/INT feedback, discovery selections) was
    /// lost and must be flushed; warm restarts keep it. Default: no-op
    /// (hostless harnesses and sinks don't model hypervisor state).
    fn on_restart(&mut self, _host: HostId, _cold: bool, _ctx: &mut HostCtx<'_>) {}
}

/// Capabilities handed to host logic while it runs.
pub struct HostCtx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// The host being driven.
    pub host: HostId,
    fabric: &'a mut Fabric,
    queue: &'a mut EventQueue<Event>,
}

impl HostCtx<'_> {
    /// Take a delivered packet out of the fabric.
    pub fn take(&mut self, pkt: PacketId) -> Packet {
        self.fabric.packets.take(pkt)
    }

    /// Transmit a packet onto this host's access uplink.
    pub fn send(&mut self, pkt: Packet) {
        self.fabric.host_transmit(self.now, self.host, pkt, self.queue);
    }

    /// Arrange for [`HostLogic::on_timer`] with `token` after `delay`.
    pub fn timer_in(&mut self, delay: Duration, token: u64) {
        self.queue.push(self.now + delay, Event::HostTimer { host: self.host, token });
    }

    /// Arrange a timer for a *different* host (application-level control
    /// messages modeled as a delay, e.g. incast request fan-out).
    pub fn timer_for(&mut self, host: HostId, delay: Duration, token: u64) {
        self.queue.push(self.now + delay, Event::HostTimer { host, token });
    }

    /// Read-only fabric access (tests, instrumentation).
    pub fn fabric(&self) -> &Fabric {
        self.fabric
    }
}

/// A fabric plus host logic: the complete simulated world.
pub struct Network<H: HostLogic> {
    /// The physical network.
    pub fabric: Fabric,
    /// All host-side state.
    pub hosts: H,
    /// Always-on event-loop profile: per-kind dispatch counts and sim-time
    /// occupancy (the gap each event closes). Purely derived from the
    /// deterministic event stream, so it is identical across `--jobs`.
    profile: LoopProfile,
}

impl<H: HostLogic> Network<H> {
    /// Pair a fabric with host logic.
    pub fn new(fabric: Fabric, hosts: H) -> Network<H> {
        Network { fabric, hosts, profile: LoopProfile::new(EVENT_KIND_NAMES) }
    }

    /// The event-loop profile accumulated so far.
    pub fn loop_profile(&self) -> &LoopProfile {
        &self.profile
    }

    /// Convenience: a `HostCtx` for out-of-band initialization (e.g. apps
    /// scheduling their first arrivals before the run starts).
    pub fn with_ctx<R>(&mut self, now: Time, host: HostId, queue: &mut EventQueue<Event>, f: impl FnOnce(&mut H, &mut HostCtx<'_>) -> R) -> R {
        let mut ctx = HostCtx { now, host, fabric: &mut self.fabric, queue };
        f(&mut self.hosts, &mut ctx)
    }
}

impl<H: HostLogic> World for Network<H> {
    type Event = Event;

    // Inlined into the event loop (see `clove_sim::run_controlled`).
    #[inline]
    fn handle(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        self.profile.record(event.kind_index(), now.0);
        match event {
            Event::Arrive { node, via, pkt } => {
                // A delivery on `via` means its transmitter finished one
                // propagation delay ago: settle it, which also commits the
                // next queued packet(s) and schedules their arrivals —
                // this chain is what replaces per-packet TxDone events.
                self.fabric.settle_link(now, via, queue);
                match node {
                    NodeId::Switch(sw) => self.fabric.switch_receive(now, sw, via, pkt, queue),
                    NodeId::Host(h) => {
                        let mut ctx = HostCtx { now, host: h, fabric: &mut self.fabric, queue };
                        self.hosts.on_packet(h, pkt, &mut ctx);
                    }
                }
            }
            Event::HostTimer { host, token } => {
                let mut ctx = HostCtx { now, host, fabric: &mut self.fabric, queue };
                self.hosts.on_timer(host, token, &mut ctx);
            }
            Event::HulaTick => self.fabric.hula_tick(now, queue),
            Event::LinkAdmin { link, up } => self.fabric.set_link_admin(now, link, up, queue),
            Event::Fault { link, action, announced } => self.fabric.apply_fault(now, link, action, announced, queue),
            Event::ControlFault { action } => {
                self.fabric.trace.control_fault(now.0, action.name());
                self.fabric.apply_control_fault(action);
            }
            Event::NodeFault { node, switch, up, cold } => {
                self.fabric.trace.node_fault_activation(now.0, node.tier(), node.index(), if up { "up" } else { "down" }, cold);
                if up {
                    match switch {
                        Some(sw) if cold => self.fabric.switch_cold_restart(now, sw, node),
                        Some(_) => {}
                        None => {
                            let host = HostId(node.index());
                            let mut ctx = HostCtx { now, host, fabric: &mut self.fabric, queue };
                            self.hosts.on_restart(host, cold, &mut ctx);
                        }
                    }
                }
            }
        }
    }
}
