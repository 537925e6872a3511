#![warn(clippy::unwrap_used)]

//! Ablation studies for the design choices DESIGN.md §7 calls out.
//!
//! ```text
//! cargo run --release -p clove-bench --bin ablations [--quick] [--jobs N]
//! ```
//!
//! Each ablation flips one calibration decision and reports Clove-ECN's
//! average FCT on the asymmetric testbed at 60% load:
//!
//! 1. **DSACK undo off** — quantifies how much spurious-retransmission
//!    undo matters for a path-switching scheme.
//! 2. **Weight recovery off** (`recovery_rho = 0`) — the paper's literal
//!    cut-and-redistribute with no drift back to uniform.
//! 3. **Per-packet relaying** (`relay_interval ≈ 0`) — the paper's §3.2
//!    warning about "unnecessarily aggressive manipulation of path
//!    weights" when ECN is relayed on every packet.
//! 4. **Discovery off** (fallback hash ports) — what Clove loses without
//!    its traceroute component (ports no longer map to disjoint paths).
//!
//! The ablations are independent runs, so `--jobs N` executes them
//! concurrently; results print in ablation order regardless. Completed
//! ablations are checkpointed to `results/.journal/ablations/`; `--resume`
//! serves them from disk after an interrupted run. An ablation that panics
//! or stalls is quarantined and reported in place of its result line.

use clove_harness::orchestrator::{self, CellOutcome, ExecPolicy};
use clove_harness::scenario::{Scenario, TopologyKind};
use clove_harness::{Journal, Scheme};
use clove_sim::{Duration, RunControl, Time};
use clove_workload::web_search;
use std::sync::Arc;

/// One ablation: display label plus the scenario tweak it applies.
/// Plain function pointers keep the cell type `Sync` for the orchestrator.
struct Ablation {
    label: &'static str,
    tweak: fn(&mut Scenario),
}

fn run(cell: &Ablation, jobs_per_conn: u32, control: &Arc<RunControl>) -> String {
    let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.6, 4040);
    s.jobs_per_conn = jobs_per_conn;
    s.conns_per_client = 2;
    s.horizon = Time::from_secs(30);
    s.control = Some(Arc::clone(control));
    (cell.tweak)(&mut s);
    let out = s.run_rpc(&web_search());
    format!(
        "{:<34} avg={:.4}s p99={:.4}s rtx={} undo={} timeouts={}",
        cell.label,
        out.fct.avg(),
        {
            let mut f = out.fct.clone();
            f.p99()
        },
        out.retransmits,
        out.spurious_undos,
        out.timeouts,
    )
}

/// Parse `--jobs N` / `--jobs=N` (default 1 = serial).
fn parse_jobs(args: &[String]) -> usize {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            return it.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or(1);
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            return v.parse().ok().filter(|&n| n >= 1).unwrap_or(1);
        }
    }
    1
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let resume = args.iter().any(|a| a == "--resume");
    let jobs = parse_jobs(&args);
    let jobs_per_conn = if quick { 20 } else { 100 };
    let journal = match Journal::open("results/.journal/ablations", resume) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("ablations: warning: no checkpoint journal ({e}); running without one");
            None
        }
    };
    println!("Clove-ECN ablations — asymmetric testbed, 60% load, {jobs_per_conn} jobs/conn\n");

    let cells = [
        Ablation { label: "baseline (all mechanisms on)", tweak: |_| {} },
        Ablation {
            label: "1. DSACK undo OFF",
            tweak: |s| {
                s.profile.dsack_undo = false;
            },
        },
        Ablation {
            label: "2. weight recovery OFF",
            tweak: |s| {
                // recovery_rho lives inside the policy config derived from
                // the profile's loaded RTT; zero the drift via the
                // env-independent profile knob.
                s.profile.clove_recovery_rho = 0.0;
            },
        },
        Ablation {
            label: "3. per-packet ECN relaying",
            tweak: |s| {
                s.profile.relay_interval = Duration::from_nanos(1);
            },
        },
        Ablation {
            label: "4. flowlet gap 10x (elephant collisions)",
            tweak: |s| {
                s.profile.flowlet_gap = Duration::from_micros(1000);
            },
        },
    ];
    let (outcomes, stats) = orchestrator::run_journaled(
        &cells,
        jobs,
        ExecPolicy::default(),
        None, // five near-identical Clove-ECN runs: uniform cost
        journal.as_ref().map(|j| (j, "ablations")),
        |cell: &Ablation| format!("ablation|{}|jpc{}", cell.label, jobs_per_conn),
        |cell, control| run(cell, jobs_per_conn, control),
    );
    let mut quarantined = 0u32;
    for (cell, outcome) in cells.iter().zip(outcomes) {
        match outcome {
            CellOutcome::Ok(line) => println!("{line}"),
            bad => {
                println!("{:<34} QUARANTINED ({})", cell.label, bad.describe());
                quarantined += 1;
            }
        }
    }
    if stats.journal_hits > 0 {
        eprintln!("ablations: resumed {} ablation(s) from the journal", stats.journal_hits);
    }
    println!("\nBaseline should win or tie every ablation; the margins quantify");
    println!("each mechanism's contribution (DESIGN.md section 7).");
    if quarantined > 0 {
        eprintln!("ablations: {quarantined} ablation(s) quarantined");
        std::process::exit(3);
    }
}
