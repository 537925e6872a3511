//! Strict-mode integration coverage: the invariant monitor must stay
//! silent across every scheme while the fabric is being actively damaged
//! on both planes (a mid-run cable cut plus 50% control-plane loss).
//! Any violation here is a real bug in the data path, not test noise.

use clove_harness::scenario::{Scenario, TopologyKind};
use clove_harness::Scheme;
use clove_net::fault::{CableSelector, ControlFaultPlan, FaultPlan};
use clove_sim::Time;
use clove_workload::web_search;

fn strict_scenario(scheme: Scheme, seed: u64) -> Scenario {
    let mut s = Scenario::new(scheme, TopologyKind::Symmetric, 0.5, seed);
    s.jobs_per_conn = 20;
    s.conns_per_client = 1;
    s.horizon = Time::from_secs(10);
    s.faults.extend(FaultPlan::cut(Time::from_millis(15), CableSelector::S2_L2));
    s.control_faults = ControlFaultPlan::lossy_control(Time::from_millis(10), 0.5);
    s.strict = true;
    s
}

#[test]
fn all_schemes_hold_invariants_under_dual_plane_faults() {
    let dist = web_search();
    for scheme in
        [Scheme::Ecmp, Scheme::EdgeFlowlet, Scheme::CloveEcn, Scheme::CloveInt, Scheme::Conga, Scheme::Mptcp { subflows: 4 }, Scheme::Presto { weights: None }]
    {
        let s = strict_scenario(scheme.clone(), 7);
        let scheme = &s.scheme;
        let out = s.run_rpc(&dist);
        assert!(out.violations.is_empty(), "{}: {} invariant violation(s): {:#?}", scheme.label(), out.violations.len(), out.violations);
        assert!(out.fct.all.count() > 0, "{}: no jobs completed", scheme.label());
        // The control plane must actually have been under attack, or this
        // test proves nothing for feedback-carrying schemes.
        if matches!(scheme, Scheme::CloveEcn | Scheme::CloveInt) {
            let c = out.control_stats;
            assert!(c.probes_dropped + c.replies_dropped + c.feedback_dropped > 0, "{}: control faults never bit (stats {:?})", scheme.label(), c);
        }
    }
}

#[test]
fn incast_holds_invariants_under_control_loss() {
    let mut s = strict_scenario(Scheme::CloveEcn, 11);
    s.jobs_per_conn = 1;
    let out = s.run_incast(16, 5, 64 * 1024);
    assert_eq!(out.invariant_violations, 0, "incast produced invariant violations");
}
