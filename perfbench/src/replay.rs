//! A copy of `Scenario::run_rpc` / `run_incast` assembled from the
//! crates' public APIs, with host-time spans around the calls into each
//! layer.
//!
//! Nothing inside the workspace crates is instrumented: the event loop is
//! `clove_sim::run_controlled` driving a [`World`] that dispatches events
//! the way `Network`'s own `World::handle` does, but through the public
//! `Fabric::settle_link`, `Fabric::switch_receive` and `Network::with_ctx`
//! calls, each timed. The copy is checked rather than trusted: its output
//! digest must equal the entry point's digest for the same cell.

use crate::workload::{incast_digest, Cell, RpcOutputs, Traffic, Workload, INCAST_OBJECT_BYTES};
use clove_harness::scenario::{Scenario, TopologyKind};
use clove_harness::stack::HostStack;
use clove_net::fabric::{Event, HostLogic};
use clove_net::fault::{CableSelector, FaultPlan};
use clove_net::topology::{FatTree, LeafSpine, Topology};
use clove_net::types::{HostId, NodeId};
use clove_net::Network;
use clove_sim::{Duration, EventQueue, SimRng, Time, World};
use clove_workload::rpc::ConnectionPlan;
use clove_workload::{load_to_rate, FctSummary, IncastSpec, RpcModel};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated host time and call count of one (layer, scheme) span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
}

impl Span {
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Spans kept in memory, keyed by (layer, scheme), written out at the end.
#[derive(Debug, Default)]
pub struct Spans(pub BTreeMap<(&'static str, &'static str), Span>);

impl Spans {
    pub fn add(&mut self, layer: &'static str, scheme: &'static str, ns: u64, calls: u64) {
        let s = self.0.entry((layer, scheme)).or_default();
        s.ns += ns;
        s.calls += calls;
    }

    pub fn get(&self, layer: &str, scheme: &str) -> Span {
        self.0.get(&(layer, scheme)).copied().unwrap_or_default()
    }

    /// The span summed over every scheme.
    pub fn layer(&self, layer: &str) -> Span {
        self.0.iter().filter(|((l, _), _)| *l == layer).fold(Span::default(), |a, (_, s)| Span { ns: a.ns + s.ns, calls: a.calls + s.calls })
    }

    pub fn merge(&mut self, other: &Spans) {
        for (&(l, s), span) in &other.0 {
            self.add(l, s, span.ns, span.calls);
        }
    }
}

/// Counts from one replayed cell, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub events: u64,
    pub pops: u64,
    pub peak_pending: u64,
    pub tx_packets: u64,
    pub drops: u64,
    pub ecn_marks: u64,
    pub probe_replies: u64,
    pub path_updates: u64,
    pub path_evictions: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub fast_retransmits: u64,
    pub flows_completed: u64,
    pub flows_incomplete: u64,
}

impl Counts {
    /// Accumulate another cell's counts (the peak is a maximum).
    pub fn add(&mut self, c: &Counts) {
        self.events += c.events;
        self.pops += c.pops;
        self.peak_pending = self.peak_pending.max(c.peak_pending);
        self.tx_packets += c.tx_packets;
        self.drops += c.drops;
        self.ecn_marks += c.ecn_marks;
        self.probe_replies += c.probe_replies;
        self.path_updates += c.path_updates;
        self.path_evictions += c.path_evictions;
        self.retransmits += c.retransmits;
        self.timeouts += c.timeouts;
        self.fast_retransmits += c.fast_retransmits;
        self.flows_completed += c.flows_completed;
        self.flows_incomplete += c.flows_incomplete;
    }
}

/// Edge state shapes observed during the run, which size the `core`
/// timings in [`crate::micro`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// Most live flowlet-table entries seen at one host.
    pub concurrent_flows: usize,
    /// Most destinations one host holds learned paths for.
    pub destinations: usize,
    /// Most paths one destination's weight vector held.
    pub paths_per_dst: usize,
    /// Largest fabric ECMP group (next hops toward one host at one switch).
    pub ecmp_group: usize,
}

impl Shape {
    /// The largest of each dimension over two observations.
    pub fn widen(&mut self, o: &Shape) {
        self.concurrent_flows = self.concurrent_flows.max(o.concurrent_flows);
        self.destinations = self.destinations.max(o.destinations);
        self.paths_per_dst = self.paths_per_dst.max(o.paths_per_dst);
        self.ecmp_group = self.ecmp_group.max(o.ecmp_group);
    }
}

/// Result of one replayed cell.
pub struct Replay {
    pub digest: u64,
    pub wall_s: f64,
    pub spans: Spans,
    pub counts: Counts,
    pub shape: Shape,
    /// FCT of every completed flow (incast: every server response).
    pub fct: FctSummary,
}

/// Time since `t0` in ns.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Events between edge-state samples in the timed loop.
const SHAPE_STRIDE: u64 = 1 << 16;

/// The event dispatch of `Network`'s `World::handle`, through public calls,
/// with each call timed when `timed` is set.
struct Dispatch<'a> {
    net: &'a mut Network<HostStack>,
    scheme: &'static str,
    timed: bool,
    spans: Spans,
    seen: u64,
    shape: Shape,
}

impl Dispatch<'_> {
    fn sample_shape(&mut self) {
        for host in &self.net.hosts.hosts {
            let policy = host.vswitch.policy();
            self.shape.concurrent_flows = self.shape.concurrent_flows.max(policy.flowlet_len().unwrap_or(0));
        }
    }

    fn dispatch(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::Arrive { node, via, pkt } => {
                let t0 = self.timed.then(Instant::now);
                self.net.fabric.settle_link(now, via, queue);
                let t1 = self.timed.then(Instant::now);
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    self.spans.add("net.settle", self.scheme, u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX), 1);
                }
                match node {
                    NodeId::Switch(sw) => {
                        self.net.fabric.switch_receive(now, sw, via, pkt, queue);
                        if let Some(t1) = t1 {
                            self.spans.add("net.switch", self.scheme, ns_since(t1), 1);
                        }
                    }
                    NodeId::Host(h) => {
                        self.net.with_ctx(now, h, queue, |hosts, ctx| hosts.on_packet(h, pkt, ctx));
                        if let Some(t1) = t1 {
                            self.spans.add("host.on_packet", self.scheme, ns_since(t1), 1);
                        }
                    }
                }
            }
            Event::HostTimer { host, token } => {
                let t0 = self.timed.then(Instant::now);
                self.net.with_ctx(now, host, queue, |hosts, ctx| hosts.on_timer(host, token, ctx));
                if let Some(t0) = t0 {
                    self.spans.add("host.on_timer", self.scheme, ns_since(t0), 1);
                }
            }
            other => {
                let t0 = self.timed.then(Instant::now);
                match other {
                    Event::HulaTick => self.net.fabric.hula_tick(now, queue),
                    Event::LinkAdmin { link, up } => self.net.fabric.set_link_admin(now, link, up, queue),
                    Event::Fault { link, action, announced } => self.net.fabric.apply_fault(now, link, action, announced, queue),
                    Event::ControlFault { action } => self.net.fabric.apply_control_fault(action),
                    Event::NodeFault { node, switch, up, cold } => {
                        if up {
                            match switch {
                                Some(sw) if cold => self.net.fabric.switch_cold_restart(now, sw, node),
                                Some(_) => {}
                                None => {
                                    let host = HostId(node.index());
                                    self.net.with_ctx(now, host, queue, |hosts, ctx| hosts.on_restart(host, cold, ctx));
                                }
                            }
                        }
                    }
                    Event::Arrive { .. } | Event::HostTimer { .. } => unreachable!("handled above"),
                }
                if let Some(t0) = t0 {
                    self.spans.add("net.control", self.scheme, ns_since(t0), 1);
                }
            }
        }
    }
}

impl World for Dispatch<'_> {
    type Event = Event;

    fn handle(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        self.dispatch(now, event, queue);
        if self.timed {
            self.seen += 1;
            if self.seen.is_multiple_of(SHAPE_STRIDE) {
                self.sample_shape();
            }
        }
    }
}

/// `Scenario`'s topology for this cell, built through the public builders.
fn build_topology(s: &Scenario) -> Topology {
    if let TopologyKind::FatTree { k } = s.topology {
        return FatTree { k, access_bps: s.profile.access_bps, fabric_bps: s.profile.access_bps, scheme: s.scheme.fabric_scheme(&s.profile), seed: s.seed }
            .build();
    }
    let mut spec = LeafSpine::paper_testbed(1.0, s.seed);
    spec.access_bps = s.profile.access_bps;
    spec.fabric_bps = s.profile.fabric_bps;
    spec.access_cfg = s.profile.access_link(s.scheme.int_enabled());
    spec.fabric_cfg = s.profile.fabric_link(s.scheme.int_enabled());
    spec.scheme = s.scheme.fabric_scheme(&s.profile);
    spec.build()
}

/// Schedule the scenario's fault timeline: the asymmetric topology is an
/// announced S2-L2 cut at t=0, ahead of any scenario faults.
fn schedule_faults(s: &Scenario, topo: &Topology, queue: &mut EventQueue<Event>) {
    let mut plan = FaultPlan::none();
    if s.topology == TopologyKind::Asymmetric {
        plan.extend(FaultPlan::cut(Time::ZERO, CableSelector::S2_L2));
    }
    plan.extend(s.faults.clone());
    let lowered = plan.lower_nodes(|n| topo.incident_cables(n)).expect("benchmark fault plans name existing nodes");
    for action in lowered.expand() {
        let (a, b) = topo.resolve_cable(action.cable).expect("benchmark fault plans name existing cables");
        for link in [a, b] {
            queue.push(action.at, Event::Fault { link, action: action.action, announced: action.announced });
        }
    }
    for action in plan.node_actions() {
        queue.push(action.at, Event::NodeFault { node: action.node, switch: topo.resolve_switch(action.node), up: action.up, cold: action.cold });
    }
    for action in s.control_faults.expand() {
        queue.push(action.at, Event::ControlFault { action: action.action });
    }
}

/// Replay one cell. With `timed` off the replay adds no clocks and is used
/// only for the outputs the entry points do not return.
pub fn run(wl: &Workload, cell: &Cell, timed: bool) -> Replay {
    let s = wl.scenario(cell);
    let scheme = crate::workload::slug(&s.scheme);
    let mut spans = Spans::default();
    let started = Instant::now();

    let t = Instant::now();
    let topo = build_topology(&s);
    spans.add("setup.topology", scheme, ns_since(t), 1);

    let t = Instant::now();
    let num_hosts = topo.num_hosts;
    let mut stack = HostStack::new(num_hosts, &s.scheme, s.profile, s.seed);
    let mptcp = s.scheme.mptcp_subflows();
    match wl.traffic {
        Traffic::Rpc { .. } => {
            let hosts: Vec<HostId> = (0..num_hosts).map(HostId).collect();
            let model = RpcModel::half_and_half(&hosts, s.conns_per_client, wl.dist.clone());
            let mut rng = SimRng::new(s.seed ^ 0x0C0FFEE);
            let plans = model.plan_connections(&mut rng);
            let rate = load_to_rate(s.load, topo.bisection_bps, model.total_connections(), model.mean_flow_bytes());
            let mean_gap = Duration::from_secs_f64(1.0 / rate);
            for plan in &plans {
                let conn_idx = stack.add_connection(plan, mptcp, Time::ZERO);
                let jobs = model.sample_jobs(&mut rng, s.jobs_per_conn, mean_gap);
                stack.set_jobs(plan.client, conn_idx, jobs);
            }
        }
        Traffic::Incast { fanout, requests } => {
            let client = HostId(0);
            let servers: Vec<HostId> = (16..32).map(HostId).collect();
            let mut server_conn = FxHashMap::default();
            for (i, &server) in servers.iter().enumerate() {
                let plan = ConnectionPlan { client: server, server: client, sport: 7000 + i as u16 * 16, dport: 5201 };
                server_conn.insert(server, stack.add_connection(&plan, mptcp, Time::ZERO));
            }
            stack.set_incast(IncastSpec { client, servers, object_bytes: INCAST_OBJECT_BYTES, fanout, requests }, server_conn, s.seed);
        }
    }
    let mut queue: EventQueue<Event> = EventQueue::with_capacity_and_backend(s.event_capacity_hint(), s.queue);
    stack.bootstrap(&mut |host, token, at| queue.push(at, Event::HostTimer { host, token }));
    schedule_faults(&s, &topo, &mut queue);
    let mut net = Network::new(topo.fabric, stack);
    spans.add("setup.stack", scheme, ns_since(t), 1);

    // The run loop of `Scenario`: 50 ms chunks until every job completes.
    let chunk = Duration::from_millis(50);
    let mut upto = Time::ZERO + chunk;
    let (mut pops, mut end) = (0u64, Time::ZERO);
    let mut world = Dispatch { net: &mut net, scheme, timed, spans: Spans::default(), seen: 0, shape: Shape::default() };
    let mut loop_ns = 0u64;
    loop {
        let t = Instant::now();
        let summary = clove_sim::run_controlled(&mut world, &mut queue, upto.min(s.horizon), None);
        loop_ns += ns_since(t);
        pops += summary.events;
        end = end.max(summary.end_time);
        let done = world.net.hosts.fct.completed() as u64 >= world.net.hosts.total_jobs;
        if done || !summary.hit_horizon || upto >= s.horizon {
            break;
        }
        upto += chunk;
    }
    if timed {
        world.sample_shape();
    }
    let Dispatch { spans: loop_spans, shape: mut observed, .. } = world;
    // The loop's self time: what the run loop spent outside every layer
    // span (queue pops, batch handling, dispatch).
    let in_layers: u64 = loop_spans.0.values().map(|s| s.ns).sum();
    spans.merge(&loop_spans);
    spans.add("sim.loop_self", scheme, loop_ns.saturating_sub(in_layers), pops);

    let t = Instant::now();
    net.fabric.settle_all(end, &mut queue);
    let tx_packets: u64 = net.fabric.links.iter().map(|l| l.stats.tx_packets).sum();
    let events = pops + tx_packets;
    let drops: u64 = net.fabric.links.iter().map(|l| l.stats.drops_overflow + l.stats.drops_down).sum();
    let ecn_marks: u64 = net.fabric.links.iter().map(|l| l.stats.ecn_marks).sum();
    let timeouts = net.hosts.stats.timeouts;
    net.hosts.aggregate_transport_stats();
    let fct = net.hosts.fct.summarize();
    let st = net.hosts.stats;
    let digest = match wl.traffic {
        Traffic::Rpc { .. } => {
            let stalled = net.hosts.stalled_report();
            let outputs = RpcOutputs {
                fct: &fct,
                sim_time: end,
                events,
                drops,
                ecn_marks,
                timeouts,
                retransmits: st.retransmits,
                fast_retransmits: st.fast_retransmits,
                spurious_undos: st.spurious_undos,
                path_updates: st.path_updates,
                path_evictions: st.path_evictions,
                stalled: &stalled,
                peak_pending: queue.profile().peak_pending,
            };
            outputs.digest()
        }
        Traffic::Incast { .. } => {
            let (rounds, elapsed) = net.hosts.incast_result().expect("incast configured");
            let bytes = u64::from(rounds) * INCAST_OBJECT_BYTES;
            let goodput_bps = if elapsed.is_zero() { 0.0 } else { bytes as f64 * 8.0 / elapsed.as_secs_f64() };
            incast_digest(goodput_bps, rounds, end, events, timeouts)
        }
    };
    spans.add("wrapup", scheme, ns_since(t), 1);
    let wall_s = started.elapsed().as_secs_f64();

    if timed {
        for host in &net.hosts.hosts {
            let policy = host.vswitch.policy();
            let mut dsts = 0;
            for d in 0..num_hosts {
                if let Some(w) = policy.debug_weights(HostId(d)) {
                    dsts += 1;
                    observed.paths_per_dst = observed.paths_per_dst.max(w.len());
                }
            }
            observed.destinations = observed.destinations.max(dsts);
        }
        observed.ecmp_group = net.fabric.switches.iter().flat_map(|sw| sw.routes.iter().map(Vec::len)).max().unwrap_or(0);
    }
    let counts = Counts {
        events,
        pops,
        peak_pending: queue.profile().peak_pending,
        tx_packets,
        drops,
        ecn_marks,
        probe_replies: net.fabric.stats.probe_replies,
        path_updates: st.path_updates,
        path_evictions: st.path_evictions,
        retransmits: st.retransmits,
        timeouts,
        fast_retransmits: st.fast_retransmits,
        flows_completed: fct.all.count() as u64,
        flows_incomplete: fct.incomplete as u64,
    };
    Replay { digest, wall_s, spans, counts, shape: observed, fct }
}
