#![warn(clippy::unwrap_used)]

use clove_harness::experiments::{presto_oracle_weights, rpc_point, ExpConfig};
use clove_harness::scenario::TopologyKind;
use clove_harness::Scheme;

fn main() {
    // 2 seeds pooled to damp heavy-tail noise.
    let cfg = ExpConfig { jobs_per_conn: 200, conns_per_client: 2, seeds: 2, horizon_secs: 60, jobs: 1, strict: false, ..ExpConfig::quick() };
    for (topo, loads) in [(TopologyKind::Asymmetric, vec![0.5, 0.7, 0.8]), (TopologyKind::Symmetric, vec![0.5, 0.8])] {
        println!("== {topo:?} ==");
        for load in loads {
            for scheme in [
                Scheme::Ecmp,
                Scheme::EdgeFlowlet,
                Scheme::CloveEcn,
                Scheme::CloveInt,
                Scheme::Presto { weights: presto_oracle_weights(topo) },
                Scheme::Mptcp { subflows: 4 },
                Scheme::Conga,
                Scheme::LetFlow,
            ] {
                let mut s = rpc_point(&scheme, topo, load, &cfg);
                println!("load {:.0}% {:<14} avg={:.4}s p99={:.4}s", load * 100.0, scheme.label(), s.avg(), s.p99());
            }
            println!();
        }
    }
}
