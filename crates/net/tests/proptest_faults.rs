//! Property tests for fault plans: a randomly-ordered [`FaultPlan`] is
//! expanded in timestamp order, and the fabric's final link state equals a
//! straight fold of the sorted actions over a naive state model. The same
//! contracts hold for [`ControlFaultPlan`], and control-plane damage is a
//! pure function of the fabric seed.

use clove_net::fabric::Event;
use clove_net::fault::{
    CableSelector, ControlFaultKind, ControlFaultPlan, ControlFaultSpec, FaultKind, FaultPlan, FaultSpec, LinkAction, NodeFaultKind, NodeFaultSpec,
    NodeSelector, NodeState,
};
use clove_net::packet::{Feedback, Packet, PacketKind};
use clove_net::topology::LeafSpine;
use clove_net::types::{FlowKey, HostId, LinkId};
use clove_net::{HostCtx, HostLogic, Network, PacketId};
use clove_sim::{Duration, EventQueue, Time};
use proptest::prelude::*;
use rustc_hash::FxHashMap;

/// Discards every delivery; these tests only watch link state.
struct Sink;

impl HostLogic for Sink {
    fn on_packet(&mut self, _: HostId, pkt: PacketId, ctx: &mut HostCtx<'_>) {
        ctx.take(pkt);
    }
    fn on_timer(&mut self, _: HostId, _: u64, _: &mut HostCtx<'_>) {}
}

const CABLES: [CableSelector; 4] = [
    CableSelector::S2_L2,
    CableSelector::LeafSpine { leaf: 0, spine: 0, which: 0 },
    CableSelector::LeafSpine { leaf: 0, spine: 1, which: 1 },
    CableSelector::Access { host: 3 },
];

/// Build one spec from sampled raw values. Spec `i` owns the disjoint time
/// window starting at `i × 10 ms`, so no two actions in a plan can collide
/// on a timestamp (collisions would make the fold order ambiguous).
fn make_spec(i: usize, cable_i: usize, kind_i: u32, period_us: u64, count: u32, param: f64) -> FaultSpec {
    let at = Time::from_micros(i as u64 * 10_000);
    let kind = match kind_i {
        0 => FaultKind::LinkDown,
        1 => FaultKind::LinkUp,
        2 => FaultKind::RateDegrade { fraction: param },
        3 => FaultKind::RandomLoss { rate: param * 0.9 },
        _ => FaultKind::Flap { period: Duration::from_micros(period_us), duty: param, count },
    };
    FaultSpec { at, cable: CABLES[cable_i % CABLES.len()], kind, announced: period_us.is_multiple_of(2) }
}

/// Expected number of atomic actions for one spec.
fn action_count(spec: &FaultSpec) -> usize {
    match spec.kind {
        FaultKind::Flap { count, .. } => 2 * count as usize,
        _ => 1,
    }
}

/// The naive per-link state model the fabric must agree with.
#[derive(Clone, Copy)]
struct LinkModel {
    up: bool,
    rate_fraction: f64,
    loss_rate: f64,
}

impl LinkModel {
    fn apply(&mut self, action: LinkAction) {
        match action {
            LinkAction::Down => self.up = false,
            LinkAction::Up => self.up = true,
            LinkAction::SetRate(f) => self.rate_fraction = f,
            LinkAction::SetLoss(r) => self.loss_rate = r,
        }
    }
}

/// Build one control-fault spec from sampled raw values, on the same
/// disjoint 10 ms time grid as [`make_spec`].
fn make_control_spec(i: usize, kind_i: u32, param: f64) -> ControlFaultSpec {
    let at = Time::from_micros(i as u64 * 10_000);
    let kind = match kind_i {
        0 => ControlFaultKind::ProbeLoss { rate: param * 0.9 },
        1 => ControlFaultKind::ReplyLoss { rate: param * 0.9 },
        2 => ControlFaultKind::FeedbackLoss { rate: param * 0.9 },
        3 => ControlFaultKind::FeedbackDelay { delay: Duration::from_micros((param * 1000.0) as u64) },
        _ => ControlFaultKind::FeedbackCorrupt { rate: param * 0.9 },
    };
    ControlFaultSpec { at, kind }
}

/// The node pool fold-equivalence draws from: every switch of the paper
/// testbed plus two hosts (one per leaf).
const NODES: [NodeSelector; 6] =
    [NodeSelector::Leaf(0), NodeSelector::Leaf(1), NodeSelector::Spine(0), NodeSelector::Spine(1), NodeSelector::Host(3), NodeSelector::Host(17)];

/// Build one node crash-restart spec on the same disjoint 10 ms grid as
/// [`make_spec`]. `down_us < 10 ms` keeps each outage window inside its
/// own grid cell, so no two specs ever overlap in time.
fn make_node_spec(i: usize, node_i: usize, down_us: u64, cold: bool) -> NodeFaultSpec {
    NodeFaultSpec {
        at: Time::from_micros(i as u64 * 10_000),
        node: NODES[node_i % NODES.len()],
        kind: NodeFaultKind::CrashRestart { down_for: Duration::from_micros(down_us), state: if cold { NodeState::Cold } else { NodeState::Warm } },
        announced: down_us.is_multiple_of(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn expansion_is_sorted_and_complete(
        raw in prop::collection::vec(
            ((0usize..4, 0u32..5), ((50u64..400, 1u32..4), 0.05f64..0.95)),
            1..8,
        ),
        rot in 0usize..8,
    ) {
        // Insert specs in a rotated (i.e. non-chronological) order: the
        // plan must not care.
        let mut plan = FaultPlan::none();
        let n = raw.len();
        for j in 0..n {
            let i = (j + rot) % n;
            let ((cable_i, kind_i), ((period_us, count), param)) = raw[i];
            plan.push(make_spec(i, cable_i, kind_i, period_us, count, param));
        }
        let actions = plan.expand();
        let expected: usize = plan.specs.iter().map(action_count).sum();
        prop_assert_eq!(actions.len(), expected);
        prop_assert!(
            actions.windows(2).all(|w| w[0].at <= w[1].at),
            "expansion must be timestamp-sorted"
        );
    }

    #[test]
    fn fabric_state_equals_fold_of_sorted_actions(
        raw in prop::collection::vec(
            ((0usize..4, 0u32..5), ((50u64..400, 1u32..4), 0.05f64..0.95)),
            1..8,
        ),
        rot in 0usize..8,
    ) {
        let mut plan = FaultPlan::none();
        let n = raw.len();
        for j in 0..n {
            let i = (j + rot) % n;
            let ((cable_i, kind_i), ((period_us, count), param)) = raw[i];
            plan.push(make_spec(i, cable_i, kind_i, period_us, count, param));
        }

        let topo = LeafSpine::paper_testbed(1.0, 42).build();
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut model: FxHashMap<LinkId, LinkModel> = FxHashMap::default();
        for action in plan.expand() {
            let (a, b) = topo.resolve_cable(action.cable).expect("all cables resolve");
            for link in [a, b] {
                queue.push(
                    action.at,
                    Event::Fault { link, action: action.action, announced: action.announced },
                );
                model
                    .entry(link)
                    .or_insert(LinkModel { up: true, rate_fraction: 1.0, loss_rate: 0.0 })
                    .apply(action.action);
            }
        }

        let mut net = Network::new(topo.fabric, Sink);
        clove_sim::run(&mut net, &mut queue, Time::from_secs(1));

        for (link, want) in model {
            let got = &net.fabric.links[link.0 as usize];
            prop_assert_eq!(got.up, want.up, "link {:?} up state", link);
            prop_assert!(
                (got.rate_fraction() - want.rate_fraction).abs() < 1e-12,
                "link {:?} rate fraction: got {} want {}",
                link, got.rate_fraction(), want.rate_fraction
            );
            prop_assert!(
                (got.loss_rate() - want.loss_rate).abs() < 1e-12,
                "link {:?} loss rate: got {} want {}",
                link, got.loss_rate(), want.loss_rate
            );
        }
    }

    #[test]
    fn control_expansion_is_sorted_complete_and_order_insensitive(
        raw in prop::collection::vec((0u32..5, 0.05f64..0.95), 1..8),
        rot in 0usize..8,
    ) {
        // Insert specs in a rotated (non-chronological) order; expansion
        // must sort by timestamp, lower every spec into exactly one
        // action, and agree with the in-order plan.
        let mut rotated = ControlFaultPlan::none();
        let n = raw.len();
        for j in 0..n {
            let i = (j + rot) % n;
            let (kind_i, param) = raw[i];
            rotated.push(make_control_spec(i, kind_i, param));
        }
        let mut in_order = ControlFaultPlan::none();
        for (i, &(kind_i, param)) in raw.iter().enumerate() {
            in_order.push(make_control_spec(i, kind_i, param));
        }
        let actions = rotated.expand();
        prop_assert_eq!(actions.len(), n);
        prop_assert!(actions.windows(2).all(|w| w[0].at <= w[1].at), "expansion must be timestamp-sorted");
        prop_assert_eq!(actions, in_order.expand());
        prop_assert_eq!(rotated.expand(), rotated.expand(), "expansion must be pure");
    }

    #[test]
    fn control_damage_is_a_pure_function_of_the_seed(
        probe_loss in 0.05f64..0.95,
        feedback_loss in 0.05f64..0.95,
        feedback_corrupt in 0.05f64..0.95,
        seed in 0u64..1000,
        schedule in prop::collection::vec((any::<bool>(), 0u16..64), 1..64),
    ) {
        // Two fabrics built from the same seed, fed the same packet
        // schedule under the same active control faults, must tally
        // byte-identical control damage — the per-run determinism contract
        // the parallel experiment runner depends on.
        let run = || {
            let topo = LeafSpine::paper_testbed(1.0, seed).build();
            let mut fabric = topo.fabric;
            for action in ControlFaultPlan::lossy_control(Time::ZERO, probe_loss).expand() {
                fabric.apply_control_fault(action.action);
            }
            fabric.apply_control_fault(
                ControlFaultPlan::feedback_loss(Time::ZERO, feedback_loss).expand()[0].action,
            );
            fabric.apply_control_fault(
                ControlFaultPlan::feedback_corrupt(Time::ZERO, feedback_corrupt).expand()[0].action,
            );
            let mut queue: EventQueue<Event> = EventQueue::new();
            for (i, &(is_probe, sport)) in schedule.iter().enumerate() {
                let now = Time::from_micros(i as u64);
                let flow = FlowKey::tcp(HostId(0), HostId(17), 4000 + sport, 80);
                let mut pkt = if is_probe {
                    Packet::new(i as u64 + 1, 64, flow, PacketKind::Probe { probe_id: i as u64, ttl_sent: 2 })
                } else {
                    Packet::new(i as u64 + 1, 1500, flow, PacketKind::Data { seq: 0, len: 1400, dsn: 0 })
                };
                if !is_probe {
                    pkt.feedback = Some(Feedback::Ecn { sport: 49152 + sport, congested: true });
                }
                fabric.host_transmit(now, HostId(0), pkt, &mut queue);
            }
            fabric.control_stats()
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first, second);
        let touched = first.probes_dropped + first.feedback_dropped + first.feedback_corrupted;
        prop_assert!(touched <= schedule.len() as u64);
    }

    #[test]
    fn node_lowering_equals_the_handwritten_cable_plan(
        raw in prop::collection::vec((0usize..6, 500u64..9_500, any::<bool>()), 1..6),
        rot in 0usize..6,
    ) {
        // A node crash-restart must be *exactly* sugar for the cable plan a
        // careful operator would write by hand: a Down on every incident
        // cable at the crash, an Up on each at the restart, in catalog
        // order — regardless of the order node specs were pushed in.
        let topo = LeafSpine::paper_testbed(1.0, 42).build();
        let mut plan = FaultPlan::none();
        let n = raw.len();
        for j in 0..n {
            let i = (j + rot) % n;
            let (node_i, down_us, cold) = raw[i];
            plan.push_node(make_node_spec(i, node_i, down_us, cold));
        }
        let lowered = plan.lower_nodes(|node| topo.incident_cables(node)).expect("the testbed resolves every pool node");
        prop_assert!(lowered.node_specs.is_empty(), "lowering must consume the node specs");

        let mut hand = FaultPlan::none();
        for (i, &(node_i, down_us, cold)) in raw.iter().enumerate() {
            let spec = make_node_spec(i, node_i, down_us, cold);
            let (down_at, up_at) = spec.window();
            let cables = topo.incident_cables(spec.node).expect("the testbed resolves every pool node");
            for &cable in &cables {
                hand.push(FaultSpec { at: down_at, cable, kind: FaultKind::LinkDown, announced: spec.announced });
            }
            for &cable in &cables {
                hand.push(FaultSpec { at: up_at, cable, kind: FaultKind::LinkUp, announced: spec.announced });
            }
        }
        prop_assert_eq!(lowered.expand(), hand.expand());

        // And the fabric's damage ledger agrees with straight arithmetic:
        // windows are time-disjoint by construction, so each spec downs
        // `2 × incident` links for exactly `down_for`.
        let expected_ns: u64 = raw
            .iter()
            .enumerate()
            .map(|(i, &(node_i, down_us, cold))| {
                let spec = make_node_spec(i, node_i, down_us, cold);
                let incident = topo.incident_cables(spec.node).expect("resolves").len() as u64;
                down_us * 1_000 * 2 * incident
            })
            .sum();
        let mut queue: EventQueue<Event> = EventQueue::new();
        for action in lowered.expand() {
            let (a, b) = topo.resolve_cable(action.cable).expect("all lowered cables resolve");
            for link in [a, b] {
                queue.push(action.at, Event::Fault { link, action: action.action, announced: action.announced });
            }
        }
        let mut net = Network::new(topo.fabric, Sink);
        clove_sim::run(&mut net, &mut queue, Time::from_secs(1));
        let stats = net.fabric.fault_stats(Time::from_secs(1));
        prop_assert_eq!(stats.down_time, Duration(expected_ns));
        prop_assert!(net.fabric.links.iter().all(|l| l.up), "every outage window closed before the horizon");
    }
}

/// Drive a lowered plan's link events through a fresh testbed fabric and
/// return the damage ledger at 100 ms (all windows long closed).
fn damage_of(plan: &FaultPlan) -> clove_net::fault::FaultStats {
    let topo = LeafSpine::paper_testbed(1.0, 42).build();
    let lowered = plan.lower_nodes(|node| topo.incident_cables(node)).expect("plan lowers on the testbed");
    let mut queue: EventQueue<Event> = EventQueue::new();
    for action in lowered.expand() {
        let (a, b) = topo.resolve_cable(action.cable).expect("cable resolves");
        for link in [a, b] {
            queue.push(action.at, Event::Fault { link, action: action.action, announced: action.announced });
        }
    }
    let mut net = Network::new(topo.fabric, Sink);
    clove_sim::run(&mut net, &mut queue, Time::from_millis(100));
    net.fabric.fault_stats(Time::from_millis(100))
}

/// The precedence/accounting rule from `fault.rs`: a cable fault
/// overlapping a node outage on the same cable contributes the *union* of
/// the down windows to `FaultStats::down_time`, never the sum — and the
/// node restart's `Up` closes an interval a cable cut opened.
#[test]
fn overlapping_node_and_cable_outages_count_their_union_once() {
    let topo = LeafSpine::paper_testbed(1.0, 42).build();
    let incident = topo.incident_cables(NodeSelector::Leaf(1)).expect("leaf 1 resolves");
    assert!(incident.contains(&CableSelector::S2_L2), "the paper cable is incident to leaf 1");

    // Leaf 1 is dark over [20 ms, 35 ms): 2 links per incident cable.
    let node_only = FaultPlan::node_crash(Time::from_millis(20), NodeSelector::Leaf(1), Duration::from_millis(15), NodeState::Cold);
    let base = damage_of(&node_only);
    assert_eq!(base.down_time, Duration(incident.len() as u64 * 2 * 15_000_000));

    // An unrestored cable cut *inside* the node window adds zero down
    // time: the link is already down (idempotent open), and the node
    // restart's Up closes the interval the cut would have left open.
    let mut overlapped = node_only.clone();
    overlapped.extend(FaultPlan::cut(Time::from_millis(25), CableSelector::S2_L2));
    let with_inner_cut = damage_of(&overlapped);
    assert_eq!(with_inner_cut.down_time, base.down_time, "a cable cut inside the node outage must not double-count");
    assert!(with_inner_cut.faults_applied > base.faults_applied, "the extra action still counts as injection activity");

    // A cut that opens *before* the crash contributes only its lead-in:
    // down over [15 ms, 35 ms) on that one cable, union not sum.
    let mut early = node_only;
    early.extend(FaultPlan::cut(Time::from_millis(15), CableSelector::S2_L2));
    assert_eq!(damage_of(&early).down_time, base.down_time + Duration(2 * 5_000_000));
}
