//! The event-queue backend must be invisible in the output: a cell run on
//! the timing wheel and on the binary-heap reference implementation must
//! produce the same outcome, field by field. Together with the
//! differential proptest in `clove-sim` (identical pop sequences) this
//! pins the heap as a true test oracle for the wheel. The backend is
//! chosen per [`Scenario`]; no experiment driver exposes it.

use clove_harness::experiments::{presto_oracle_weights, ExpConfig, FEEDBACK_LOSS_RATES, RESILIENCE_FAULT_AT};
use clove_harness::scenario::{RpcOutcome, Scenario, TopologyKind};
use clove_harness::Scheme;
use clove_net::fault::ControlFaultPlan;
use clove_sim::{Duration, QueueBackend, Time};
use clove_workload::web_search;

/// Run `s` once on each backend.
fn wheel_and_heap(mut s: Scenario) -> (RpcOutcome, RpcOutcome) {
    let dist = web_search();
    s.queue = QueueBackend::Wheel;
    let wheel = s.run_rpc(&dist);
    s.queue = QueueBackend::Heap;
    (wheel, s.run_rpc(&dist))
}

/// Everything downstream of the event order must match exactly: FCT
/// stats, event counts, transport and fabric counters, control-plane
/// damage and recovery.
fn assert_identical(cell: &str, wheel: &RpcOutcome, heap: &RpcOutcome) {
    assert_eq!(wheel.events, heap.events, "{cell}: events");
    let (mut w, mut h) = (wheel.fct.clone(), heap.fct.clone());
    assert_eq!(w.avg().to_bits(), h.avg().to_bits(), "{cell}: FCT stats must be bit-identical");
    assert_eq!(w.p99().to_bits(), h.p99().to_bits(), "{cell}: p99 FCT");
    assert_eq!(wheel.retransmits, heap.retransmits, "{cell}: retransmits");
    assert_eq!(wheel.timeouts, heap.timeouts, "{cell}: timeouts");
    assert_eq!(wheel.drops, heap.drops, "{cell}: drops");
    assert_eq!(wheel.ecn_marks, heap.ecn_marks, "{cell}: ECN marks");
    assert_eq!(wheel.sim_time, heap.sim_time, "{cell}: sim time");
    assert_eq!(wheel.control_stats, heap.control_stats, "{cell}: control stats");
    assert_eq!(wheel.recovery, heap.recovery, "{cell}: recovery");
    // The profile is a property of the stream, not the backend.
    assert_eq!(wheel.queue_profile, heap.queue_profile, "{cell}: queue profile");
}

#[test]
fn fig4c_smoke_cells_identical_wheel_vs_heap() {
    // The fig4c testbed schemes on the asymmetric topology at 50% load,
    // two seeds each, at the smoke sizing the figure tests use.
    let topology = TopologyKind::Asymmetric;
    let schemes =
        [Scheme::Ecmp, Scheme::EdgeFlowlet, Scheme::CloveEcn, Scheme::Mptcp { subflows: 4 }, Scheme::Presto { weights: presto_oracle_weights(topology) }];
    for scheme in schemes {
        for seed in [1000, 1001] {
            let mut s = Scenario::new(scheme.clone(), topology, 0.5, seed);
            s.jobs_per_conn = 4;
            s.conns_per_client = 1;
            s.horizon = Time::from_secs(10);
            let (wheel, heap) = wheel_and_heap(s);
            assert_identical(&format!("{} seed {seed}", scheme.label()), &wheel, &heap);
        }
    }
}

#[test]
fn feedback_cells_identical_wheel_vs_heap() {
    // Every feedback-degradation loss rate for the two schemes that
    // consume edge feedback, at quick sizing, seed 5000, 5 ms probing.
    let cfg = ExpConfig::quick();
    for scheme in [Scheme::CloveEcn, Scheme::CloveInt] {
        for rate in FEEDBACK_LOSS_RATES {
            let mut s = Scenario::new(scheme.clone(), TopologyKind::Symmetric, 0.6, 5000);
            s.jobs_per_conn = cfg.jobs_per_conn;
            s.conns_per_client = cfg.conns_per_client;
            s.horizon = Time::from_secs(cfg.horizon_secs);
            s.profile.probe_interval = Duration::from_millis(5);
            if rate > 0.0 {
                s.control_faults = ControlFaultPlan::lossy_control(RESILIENCE_FAULT_AT, rate);
            }
            let (wheel, heap) = wheel_and_heap(s);
            assert_identical(&format!("{} @ {rate} control loss", scheme.label()), &wheel, &heap);
        }
    }
}

#[test]
fn rpc_outcome_identical_wheel_vs_heap() {
    let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.6, 77);
    s.jobs_per_conn = 6;
    s.conns_per_client = 1;
    let (wheel, heap) = wheel_and_heap(s);
    assert_identical("Clove-ECN seed 77", &wheel, &heap);
}

#[test]
fn incast_outcome_identical_wheel_vs_heap() {
    let run = |backend| {
        let mut s = Scenario::new(Scheme::EdgeFlowlet, TopologyKind::Symmetric, 0.5, 31);
        s.queue = backend;
        s.run_incast(6, 4, 1_000_000)
    };
    let wheel = run(QueueBackend::Wheel);
    let heap = run(QueueBackend::Heap);
    assert_eq!(wheel.events, heap.events);
    assert_eq!(wheel.goodput_bps.to_bits(), heap.goodput_bps.to_bits());
    assert_eq!(wheel.rounds, heap.rounds);
    assert_eq!(wheel.sim_time, heap.sim_time);
}
