//! Presto-specific end-to-end behaviour: flowcell spraying with receiver
//! reassembly must hide reordering from the guest TCP.

use clove::harness::{Scenario, Scheme, TopologyKind};
use clove::sim::Time;
use clove::workload::web_search;

fn run(scheme: Scheme) -> clove::harness::RpcOutcome {
    let mut s = Scenario::new(scheme, TopologyKind::Symmetric, 0.5, 99);
    s.jobs_per_conn = 20;
    s.conns_per_client = 1;
    s.horizon = Time::from_secs(20);
    s.run_rpc(&web_search())
}

#[test]
fn presto_sprays_but_completes_cleanly() {
    let out = run(Scheme::Presto { weights: None });
    assert_eq!(out.fct.incomplete, 0);
    assert!(out.fct.avg() > 0.0);
}

#[test]
fn presto_reassembly_reduces_spurious_recoveries() {
    // Same spraying granularity story: Presto sprays 64 KB cells over all
    // paths *every* cell, yet its receiver-side reassembly means the guest
    // sees far less reordering than raw spraying would produce. Compare
    // fast-retransmit counts against Edge-Flowlet (which sprays without
    // reassembly): Presto must trigger fewer recoveries per delivered
    // byte even though it re-routes more often.
    let presto = run(Scheme::Presto { weights: None });
    let ef = run(Scheme::EdgeFlowlet);
    let presto_rate = presto.fast_retransmits as f64 / presto.fct.all.count().max(1) as f64;
    let ef_rate = ef.fast_retransmits as f64 / ef.fct.all.count().max(1) as f64;
    assert!(presto_rate <= ef_rate * 1.5 + 1.0, "Presto reassembly ineffective: presto {presto_rate:.2} vs edge-flowlet {ef_rate:.2} FRs/flow");
}

#[test]
fn presto_oracle_weights_shift_load_under_asymmetry() {
    let mut s = Scenario::new(Scheme::Presto { weights: Some(vec![0.33, 0.33, 0.17, 0.17]) }, TopologyKind::Asymmetric, 0.6, 99);
    s.jobs_per_conn = 20;
    s.conns_per_client = 1;
    s.horizon = Time::from_secs(20);
    let out = s.run_rpc(&web_search());
    assert_eq!(out.fct.incomplete, 0);
    // S1 (spine switch id 2) must carry visibly more than S2 (id 3).
    let share = |spine: u32| -> u64 {
        out.link_report
            .iter()
            .filter(|l| l.contains(&format!("Switch(SwitchId({spine}))->Switch(SwitchId(1))")))
            .map(|l| l.split("tx=").nth(1).unwrap().split("MB").next().unwrap().parse::<u64>().unwrap())
            .sum()
    };
    let s1 = share(2);
    let s2 = share(3);
    assert!(s1 > s2, "oracle weights not applied: S1={s1}MB S2={s2}MB");
}
