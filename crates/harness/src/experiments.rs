//! One function per paper figure, plus the parallel experiment engine.
//!
//! Every function returns a [`FigureTable`] whose series reproduce the
//! corresponding plot. The `scale` knob trades fidelity for wall-clock
//! time: it multiplies the job count per connection (the paper runs 50 K
//! jobs per connection on the testbed and 20 K in NS2; full-fidelity runs
//! of this reproduction use hundreds to thousands — enough for the
//! qualitative ordering, as EXPERIMENTS.md documents). Benches use tiny
//! scales.
//!
//! ## Parallelism and determinism
//!
//! Each `(scheme, load/fanout/case, seed)` cell is an independent
//! simulation: the determinism contract in `clove-sim` is *per run*, so
//! cells can execute on any worker in any order. All figure drivers funnel
//! through [`run_matrix`] (directly, or via the fault-tolerant
//! [`orchestrator`](crate::orchestrator) wrappers), which hands back
//! results **in cell order** regardless of completion order, and every
//! fold below consumes them in that order (seed merges, goodput sums,
//! fault-stat absorbs). Output is therefore byte-identical at any
//! [`ExpConfig::jobs`] setting — the regression test
//! `determinism_parallel.rs` pins this.
//!
//! ## Fault tolerance and resume
//!
//! Figure drivers execute through [`run_cells`], which adds the
//! orchestrator's fault model on top of the fan-out: panicking cells are
//! retried then quarantined ([`ExpConfig::exec`]), stalled cells are
//! cancelled by the watchdog, and — when [`ExpConfig::journal`] is set —
//! completed cells are checkpointed so an interrupted run resumes without
//! re-executing them. Quarantined cells surface as `NaN` data points plus
//! an explicit per-cell line in the table's `quarantined` list; they are
//! never silently dropped. Journal values round-trip losslessly (see
//! [`crate::journal`]), so a resumed run's CSVs are byte-identical to an
//! uninterrupted one at any `--jobs` width.

use crate::journal::{self, JournalValue};
use crate::json::Json;
use crate::orchestrator::{self, CellOutcome, ExecPolicy, MatrixStats};
use crate::report::{FeedbackRow, FeedbackTable, FigureTable, ResilienceRow, ResilienceTable};
use crate::scenario::{RpcOutcome, Scenario, TopologyKind};
use crate::scheme::Scheme;
use clove_net::fault::{CableSelector, ControlFaultPlan, ControlFaultStats, FaultPlan, FaultStats, NodeSelector, NodeState};
use clove_sim::{Duration, QueueBackend, RunControl, Time};
use clove_workload::{web_search, FctSummary, FlowSizeDist};
use rayon::prelude::*;
use std::sync::Arc;

/// Shared experiment sizing.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Jobs per client connection.
    pub jobs_per_conn: u32,
    /// Connections per client.
    pub conns_per_client: u32,
    /// Seeds to average over (paper: 3).
    pub seeds: u32,
    /// Simulated-time ceiling per run.
    pub horizon_secs: u64,
    /// Worker threads for the experiment matrix (1 = serial). Output is
    /// identical at any setting; see the module docs.
    pub jobs: usize,
    /// Run every cell under the [`crate::invariants::InvariantMonitor`]
    /// and panic on any violation (`figures --strict`, integration tests).
    pub strict: bool,
    /// Cell execution policy: panic isolation, retry budget, stall
    /// deadline (see [`crate::orchestrator`]).
    pub exec: ExecPolicy,
    /// Completed-cell journal for checkpoint/resume; `None` disables
    /// journaling (cells always execute).
    pub journal: Option<Arc<crate::journal::Journal>>,
    /// Event-queue backend every cell runs on: the timing wheel (default)
    /// or the legacy binary heap (`--queue heap`), kept as a
    /// differential-testing oracle. Results are backend-independent, so
    /// the backend is *not* part of the journal key.
    pub queue: QueueBackend,
}

impl ExpConfig {
    /// A configuration suitable for generating the committed figures.
    pub fn full() -> ExpConfig {
        ExpConfig {
            jobs_per_conn: 80,
            conns_per_client: 2,
            seeds: 2,
            horizon_secs: 60,
            jobs: 1,
            strict: false,
            exec: ExecPolicy::default(),
            journal: None,
            queue: QueueBackend::default(),
        }
    }

    /// A tiny configuration for benches and CI smoke tests.
    pub fn quick() -> ExpConfig {
        ExpConfig {
            jobs_per_conn: 8,
            conns_per_client: 1,
            seeds: 1,
            horizon_secs: 10,
            jobs: 1,
            strict: false,
            exec: ExecPolicy::default(),
            journal: None,
            queue: QueueBackend::default(),
        }
    }

    /// The same configuration with a different worker count.
    pub fn with_jobs(mut self, jobs: usize) -> ExpConfig {
        self.jobs = jobs.max(1);
        self
    }

    /// The same configuration with strict invariant checking toggled.
    pub fn with_strict(mut self, strict: bool) -> ExpConfig {
        self.strict = strict;
        self
    }

    /// The same configuration with a different cell execution policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> ExpConfig {
        self.exec = exec;
        self
    }

    /// The same configuration with a checkpoint journal installed.
    pub fn with_journal(mut self, journal: Option<Arc<crate::journal::Journal>>) -> ExpConfig {
        self.journal = journal;
        self
    }

    /// The same configuration on a different event-queue backend.
    pub fn with_queue(mut self, queue: QueueBackend) -> ExpConfig {
        self.queue = queue;
        self
    }

    /// The journal-key fragment for the shared sizing knobs: everything
    /// that changes a cell's *result* except the per-cell parameters.
    /// `jobs` is deliberately excluded — results are jobs-independent, so
    /// a journal written at `--jobs 1` resumes correctly at `--jobs 8` —
    /// and so is `seeds`, because the seed itself is a cell parameter.
    pub fn key_fragment(&self) -> String {
        format!("jpc{}|cpc{}|h{}|strict{}", self.jobs_per_conn, self.conns_per_client, self.horizon_secs, self.strict)
    }
}

/// Run every cell of an experiment matrix, on `jobs` worker threads, and
/// return the results **in cell order** (never completion order).
///
/// This is the raw fan-out primitive: no panic isolation, no journal — a
/// panicking cell aborts the matrix. Figure drivers use [`run_cells`] on
/// top of it; benches and other hot paths that want zero overhead use it
/// directly. Each cell must be an independent simulation run — the per-run
/// determinism contract makes that safe — and because results come back in
/// input order, any fold written against the serial runner produces
/// identical bytes against the parallel one.
pub fn run_matrix<K, R, F>(cells: &[K], jobs: usize, run: F) -> Vec<R>
where
    K: Sync,
    R: Send,
    F: Fn(&K) -> R + Send + Sync,
{
    if jobs <= 1 || cells.len() <= 1 {
        return cells.iter().map(run).collect();
    }
    let pool = rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("build worker pool");
    pool.install(|| cells.par_iter().map(run).collect())
}

/// The fault-tolerant fan-out every figure driver funnels through:
/// [`run_matrix`] plus the orchestrator's panic isolation, retry,
/// stall watchdog, and (when configured) the checkpoint journal under
/// `scope`.
///
/// `cost` estimates each cell's relative wall time; the orchestrator
/// starts the most expensive cells first so a long cell never becomes the
/// matrix tail at `jobs > 1` (outcomes stay in cell order regardless).
fn run_cells<K, R, F>(
    scope: &str,
    cells: &[K],
    cfg: &ExpConfig,
    cost: impl Fn(&K) -> f64,
    key: impl Fn(&K) -> String + Send + Sync,
    run: F,
) -> (Vec<CellOutcome<R>>, MatrixStats)
where
    K: Sync,
    R: Send + JournalValue,
    F: Fn(&K, &Arc<RunControl>) -> R + Send + Sync,
{
    let costs: Vec<f64> = cells.iter().map(cost).collect();
    let (outcomes, stats) = orchestrator::run_journaled(cells, cfg.jobs, cfg.exec, Some(&costs), cfg.journal.as_deref().map(|j| (j, scope)), key, run);
    // Orchestrator-level wall-clock profiling (`CLOVE_PROFILE=1`): stderr
    // only, so stdout tables/CSVs stay byte-identical at any `--jobs`. The
    // timings come from the allowlisted orchestrator; this module only
    // formats them.
    if stats.executed > 0 && std::env::var_os("CLOVE_PROFILE").is_some() {
        // clove-lint: allow(stdout-in-lib): opt-in stderr profiling line; stdout reports stay byte-identical
        eprintln!("profile: [{scope}] {}", stats.profile_line());
    }
    (outcomes, stats)
}

/// The oracle Presto weights for the asymmetric topology (paper §5.2:
/// 0.33/0.33/0.17/0.17 — full weight on the two healthy S1 paths, half on
/// the S2 paths that share the surviving S2–L2 cable).
pub fn presto_oracle_weights(topology: TopologyKind) -> Option<Vec<f64>> {
    match topology {
        TopologyKind::Asymmetric => Some(vec![0.33, 0.33, 0.17, 0.17]),
        _ => None,
    }
}

fn scenario(scheme: Scheme, topology: TopologyKind, load: f64, seed: u64, cfg: &ExpConfig, control: Option<&Arc<RunControl>>) -> Scenario {
    let mut s = Scenario::new(scheme, topology, load, seed);
    s.jobs_per_conn = cfg.jobs_per_conn;
    s.conns_per_client = cfg.conns_per_client;
    s.horizon = Time::from_secs(cfg.horizon_secs);
    s.strict = cfg.strict;
    s.control = control.map(Arc::clone);
    s.queue = cfg.queue;
    s
}

/// Run one scenario, failing loudly on strict-mode invariant violations
/// (the outcome carries them only when the scenario ran strict). Every
/// figure/ablation driver funnels its RPC runs through here so `--strict`
/// covers the whole experiment surface. Under [`run_cells`] the panic is
/// caught and the cell quarantined with this message.
fn run_rpc_checked(s: &Scenario, dist: &FlowSizeDist) -> RpcOutcome {
    let out = s.run_rpc(dist);
    assert!(out.violations.is_empty(), "invariant violations in {} (seed {}): {:#?}", s.scheme.label(), s.seed, out.violations);
    out
}

/// A stable tag for journal keys and quarantine labels.
fn topology_tag(topology: TopologyKind) -> String {
    match topology {
        TopologyKind::Symmetric => "sym".into(),
        TopologyKind::Asymmetric => "asym".into(),
        TopologyKind::FatTree { k } => format!("fattree{k}"),
    }
}

/// Where quarantined-cell telemetry snapshots land.
const TELEMETRY_SNAPSHOT_DIR: &str = "results/telemetry";

/// A filesystem-safe slug: alphanumerics, `.`, `_` and `-` pass through,
/// every other run of characters collapses to one `-`.
fn path_slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
            out.push(c);
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// The `clove-run` spec for one RPC cell: the replay payload embedded in
/// quarantine snapshots so the failed cell can be re-run under `--trace`.
/// `None` for ablation-only schemes the spec format cannot express (their
/// snapshots fall back to a `figures` repro command).
fn rpc_cell_spec(scheme: &Scheme, topology: TopologyKind, load: f64, seed: u64, cfg: &ExpConfig) -> Option<Json> {
    let scheme_json = match scheme {
        Scheme::Ecmp => Json::Obj(vec![("name".to_string(), Json::Str("ecmp".to_string()))]),
        Scheme::EdgeFlowlet => Json::Obj(vec![("name".to_string(), Json::Str("edge-flowlet".to_string()))]),
        Scheme::CloveEcn => Json::Obj(vec![("name".to_string(), Json::Str("clove-ecn".to_string()))]),
        Scheme::CloveInt => Json::Obj(vec![("name".to_string(), Json::Str("clove-int".to_string()))]),
        Scheme::CloveLatency { adaptive_gap } => {
            Json::Obj(vec![("name".to_string(), Json::Str("clove-latency".to_string())), ("adaptive_gap".to_string(), Json::Bool(*adaptive_gap))])
        }
        Scheme::Presto { oracle_weights } => Json::Obj(vec![
            ("name".to_string(), Json::Str("presto".to_string())),
            ("weights".to_string(), oracle_weights.as_ref().map(|w| Json::Arr(w.iter().map(|&x| Json::Num(x)).collect())).unwrap_or(Json::Null)),
        ]),
        Scheme::Mptcp { subflows } => {
            Json::Obj(vec![("name".to_string(), Json::Str("mptcp".to_string())), ("subflows".to_string(), Json::Num(*subflows as f64))])
        }
        Scheme::Conga => Json::Obj(vec![("name".to_string(), Json::Str("conga".to_string()))]),
        Scheme::LetFlow => Json::Obj(vec![("name".to_string(), Json::Str("let-flow".to_string()))]),
        Scheme::Hula => Json::Obj(vec![("name".to_string(), Json::Str("hula".to_string()))]),
        Scheme::Incremental { clove_hosts } => {
            Json::Obj(vec![("name".to_string(), Json::Str("incremental".to_string())), ("clove_hosts".to_string(), Json::Num(*clove_hosts as f64))])
        }
        _ => return None,
    };
    let topology_json = match topology {
        TopologyKind::Symmetric => Json::Obj(vec![("kind".to_string(), Json::Str("symmetric".to_string()))]),
        TopologyKind::Asymmetric => Json::Obj(vec![("kind".to_string(), Json::Str("asymmetric".to_string()))]),
        TopologyKind::FatTree { k } => Json::Obj(vec![("kind".to_string(), Json::Str("fat-tree".to_string())), ("k".to_string(), Json::Num(k as f64))]),
    };
    Some(Json::Obj(vec![
        ("scheme".to_string(), scheme_json),
        ("topology".to_string(), topology_json),
        ("load".to_string(), Json::Num(load)),
        ("jobs_per_conn".to_string(), Json::Num(cfg.jobs_per_conn as f64)),
        ("conns_per_client".to_string(), Json::Num(cfg.conns_per_client as f64)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seeds".to_string(), Json::Num(1.0)),
        ("horizon_secs".to_string(), Json::Num(cfg.horizon_secs as f64)),
        ("strict".to_string(), Json::Bool(cfg.strict)),
    ]))
}

/// Persist a telemetry snapshot for a quarantined cell under
/// [`TELEMETRY_SNAPSHOT_DIR`] and return a footer suffix naming it (empty
/// when the write fails — the footer then carries the reason alone).
///
/// Snapshots are written only when a cell is quarantined, so clean runs
/// create no files and figure output stays byte-identical. When the cell
/// is a plain RPC point its spec is embedded at the snapshot's top level;
/// `ScenarioSpec` parsing ignores the extra `quarantine` object, so the
/// snapshot file itself is a valid `clove-run` input and the recorded
/// repro command replays exactly the failed seed with `--trace` on.
fn quarantine_snapshot(scope: &str, cell: &str, seed: u64, reason: &str, spec: Option<Json>) -> String {
    let name = format!("{}-seed{seed}", path_slug(&format!("{scope}-{cell}")));
    let path = format!("{TELEMETRY_SNAPSHOT_DIR}/{name}.json");
    let repro = match &spec {
        Some(_) => format!("cargo run --release -p clove-harness --bin clove-run -- {path} --trace {TELEMETRY_SNAPSHOT_DIR}/{name}.trace.jsonl"),
        None => format!("cargo run --release -p clove-bench --bin figures -- {scope} --strict --jobs 1"),
    };
    let meta = Json::Obj(vec![
        ("scope".to_string(), Json::Str(scope.to_string())),
        ("cell".to_string(), Json::Str(cell.to_string())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("reason".to_string(), Json::Str(reason.to_string())),
        ("repro".to_string(), Json::Str(repro)),
    ]);
    let mut fields = match spec {
        Some(Json::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    fields.push(("quarantine".to_string(), meta));
    match journal::write_atomic(std::path::Path::new(&path), &(Json::Obj(fields).render_pretty() + "\n")) {
        Ok(()) => format!(" (snapshot: {path})"),
        Err(e) => {
            // clove-lint: allow(stdout-in-lib): best-effort stderr warning on an already-failing path
            eprintln!("telemetry: cannot write quarantine snapshot {path}: {e}");
            String::new()
        }
    }
}

/// Run one (scheme, topology, load) point over the configured seeds and
/// pool the FCT samples.
pub fn rpc_point(scheme: &Scheme, topology: TopologyKind, load: f64, cfg: &ExpConfig) -> FctSummary {
    rpc_point_detailed(scheme, topology, load, cfg).0
}

/// [`rpc_point`] also reporting the total simulation events processed
/// across the seeds (the denominator for events/sec benchmarks).
///
/// Seeds run as parallel cells at `cfg.jobs > 1`; the FCT merge happens
/// in seed order either way. This is the *loud* path — no isolation, no
/// journal — used by benches (where orchestration overhead would pollute
/// timings) and headline runs that want a panic to propagate.
pub fn rpc_point_detailed(scheme: &Scheme, topology: TopologyKind, load: f64, cfg: &ExpConfig) -> (FctSummary, u64) {
    let dist = web_search();
    let seeds: Vec<u64> = (0..cfg.seeds).map(|s| 1000 + s as u64).collect();
    let outs = run_matrix(&seeds, cfg.jobs, |&seed| {
        let s = scenario(scheme.clone(), topology, load, seed, cfg, None);
        let out = run_rpc_checked(&s, &dist);
        (out.fct, out.events)
    });
    let mut pooled: Option<FctSummary> = None;
    let mut events = 0u64;
    for (fct, ev) in outs {
        events += ev;
        match pooled.as_mut() {
            None => pooled = Some(fct),
            Some(p) => p.merge(&fct),
        }
    }
    (pooled.expect("at least one seed"), events)
}

type PointKey = (String, bool, u64);

/// Memoizes RPC point results so figures sharing the same underlying
/// runs (4c with 5a/5b/5c, 8b with 9) pay for them once.
///
/// A `None` entry is a *quarantined* point: at least one of its seed runs
/// panicked or stalled, so the point has no trustworthy value. The
/// per-seed reasons are kept in `quarantined` and surface in figure
/// footers.
#[derive(Default)]
pub struct PointCache {
    entries: rustc_hash::FxHashMap<PointKey, Option<FctSummary>>,
    quarantined: rustc_hash::FxHashMap<PointKey, Vec<String>>,
    /// Total simulation events processed by runs charged to this cache
    /// (cache hits and journal hits add nothing — the run already
    /// happened).
    pub events: u64,
}

impl PointCache {
    /// An empty cache.
    pub fn new() -> PointCache {
        PointCache::default()
    }

    fn key(scheme: &Scheme, topology: TopologyKind, load: f64) -> PointKey {
        (scheme.label().to_string(), topology == TopologyKind::Asymmetric, (load * 1000.0).round() as u64)
    }

    /// Fetch or compute a point; `None` means the point is quarantined
    /// (see [`PointCache::quarantine_lines`] for why).
    pub fn point(&mut self, scheme: &Scheme, topology: TopologyKind, load: f64, cfg: &ExpConfig) -> Option<FctSummary> {
        self.prefetch(std::slice::from_ref(scheme), topology, &[load], cfg);
        self.entries.get(&Self::key(scheme, topology, load)).cloned().flatten()
    }

    /// The per-seed quarantine reasons for a point (empty when the point
    /// completed cleanly).
    pub fn quarantine_lines(&self, scheme: &Scheme, topology: TopologyKind, load: f64) -> &[String] {
        self.quarantined.get(&Self::key(scheme, topology, load)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Compute every missing `(scheme, load)` point of a figure in one flat
    /// `(scheme, load, seed)` fan-out, so parallelism spans the whole
    /// matrix rather than just the seeds of one point.
    ///
    /// Results are folded grouped in cell order (scheme-major, then load,
    /// then seed) — exactly the order the serial [`point`] path merges in,
    /// so a prefetched cache is indistinguishable from a serially filled
    /// one. A point with any quarantined seed becomes a `None` entry: a
    /// partial seed pool would silently shift the statistics.
    ///
    /// [`point`]: PointCache::point
    pub fn prefetch(&mut self, schemes: &[Scheme], topology: TopologyKind, loads: &[f64], cfg: &ExpConfig) {
        let mut missing: Vec<(usize, f64)> = Vec::new();
        for (si, scheme) in schemes.iter().enumerate() {
            for &load in loads {
                let key = Self::key(scheme, topology, load);
                if !self.entries.contains_key(&key) && !missing.iter().any(|&(mi, ml)| Self::key(&schemes[mi], topology, ml) == key) {
                    missing.push((si, load));
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        let dist = web_search();
        let cells: Vec<(usize, f64, u64)> = missing.iter().flat_map(|&(si, load)| (0..cfg.seeds).map(move |s| (si, load, 1000 + s as u64))).collect();
        let (outcomes, _) = run_cells(
            "rpc",
            &cells,
            cfg,
            // Heavier schemes at higher load run longest (fig8b/fig9's
            // CONGA @ 90% cell dominates the matrix) — start them first.
            |&(si, load, _)| schemes[si].cost_weight() * (1.0 + load),
            |&(si, load, seed)| {
                format!("rpc|{}|{}|load{}|seed{}|{}", schemes[si].label(), topology_tag(topology), (load * 1000.0).round() as u64, seed, cfg.key_fragment())
            },
            |&(si, load, seed), control| {
                let s = scenario(schemes[si].clone(), topology, load, seed, cfg, Some(control));
                let out = run_rpc_checked(&s, &dist);
                (out.fct, out.events)
            },
        );
        let per_point = cfg.seeds as usize;
        for (pi, &(si, load)) in missing.iter().enumerate() {
            let mut pooled: Option<FctSummary> = None;
            let mut bad = Vec::new();
            for (off, outcome) in outcomes[pi * per_point..(pi + 1) * per_point].iter().enumerate() {
                match outcome {
                    CellOutcome::Ok((fct, events)) => {
                        self.events += events;
                        match pooled.as_mut() {
                            None => pooled = Some(fct.clone()),
                            Some(p) => p.merge(fct),
                        }
                    }
                    other => {
                        let cell = format!("{} @ {:.0}% load ({})", schemes[si].label(), load * 100.0, topology_tag(topology));
                        let seed = 1000 + off as u64;
                        let spec = rpc_cell_spec(&schemes[si], topology, load, seed, cfg);
                        let snap = quarantine_snapshot("rpc", &cell, seed, &other.describe(), spec);
                        bad.push(format!("{cell} seed {seed}: {}{snap}", other.describe()));
                    }
                }
            }
            let key = Self::key(&schemes[si], topology, load);
            if bad.is_empty() {
                self.entries.insert(key, Some(pooled.expect("at least one seed")));
            } else {
                self.quarantined.insert(key.clone(), bad);
                self.entries.insert(key, None);
            }
        }
    }
}

/// The paper's testbed scheme set (Figures 4–6).
pub fn testbed_schemes(topology: TopologyKind) -> Vec<Scheme> {
    vec![Scheme::Ecmp, Scheme::EdgeFlowlet, Scheme::CloveEcn, Scheme::Mptcp { subflows: 4 }, Scheme::Presto { oracle_weights: presto_oracle_weights(topology) }]
}

/// The paper's simulation scheme set (Figures 8–9).
pub fn sim_schemes() -> Vec<Scheme> {
    vec![Scheme::Ecmp, Scheme::EdgeFlowlet, Scheme::CloveEcn, Scheme::CloveInt, Scheme::Conga]
}

/// Figure 4b: symmetric topology, average FCT vs load.
pub fn fig4b(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 4b — testbed symmetric, avg FCT (s)", TopologyKind::Symmetric, &testbed_schemes(TopologyKind::Symmetric), loads, cfg, cache, |s| s.avg())
}

/// Figure 4c: asymmetric topology, average FCT vs load.
pub fn fig4c(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 4c — testbed asymmetric, avg FCT (s)", TopologyKind::Asymmetric, &testbed_schemes(TopologyKind::Asymmetric), loads, cfg, cache, |s| {
        s.avg()
    })
}

/// Figure 5a: asymmetric, average FCT of mice (<100 KB) vs load.
pub fn fig5a(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure(
        "Fig 5a — asymmetric, mice (<100KB) avg FCT (s)",
        TopologyKind::Asymmetric,
        &testbed_schemes(TopologyKind::Asymmetric),
        loads,
        cfg,
        cache,
        |s| s.mice.mean(),
    )
}

/// Figure 5b: asymmetric, average FCT of elephants (>10 MB) vs load.
pub fn fig5b(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure(
        "Fig 5b — asymmetric, elephants (>10MB) avg FCT (s)",
        TopologyKind::Asymmetric,
        &testbed_schemes(TopologyKind::Asymmetric),
        loads,
        cfg,
        cache,
        |s| s.elephants.mean(),
    )
}

/// Figure 5c: asymmetric, 99th-percentile FCT vs load.
pub fn fig5c(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 5c — asymmetric, p99 FCT (s)", TopologyKind::Asymmetric, &testbed_schemes(TopologyKind::Asymmetric), loads, cfg, cache, |s| s.p99())
}

/// Figure 6: Clove-ECN parameter sensitivity on the asymmetric topology.
/// Series: (flowlet-gap multiplier × RTT, ECN threshold in packets).
pub fn fig6(loads: &[f64], cfg: &ExpConfig) -> FigureTable {
    let variants: [(&str, f64, u32); 4] =
        [("Clove-best (1*RTT, 20pkts)", 1.0, 20), ("Clove (0.2*RTT, 20pkts)", 0.2, 20), ("Clove (5*RTT, 20pkts)", 5.0, 20), ("Clove (1*RTT, 40pkts)", 1.0, 40)];
    let dist = web_search();
    // Flat (variant, load, seed) cells, folded variant-major in cell order.
    let cells: Vec<(usize, f64, u64)> =
        (0..variants.len()).flat_map(|vi| loads.iter().flat_map(move |&load| (0..cfg.seeds).map(move |s| (vi, load, 2000 + s as u64)))).collect();
    let (outcomes, _) = run_cells(
        "fig6",
        &cells,
        cfg,
        // Same scheme everywhere: cost scales with offered load alone.
        |&(_, load, _)| 1.0 + load,
        |&(vi, load, seed)| format!("fig6|{}|load{}|seed{}|{}", variants[vi].0, (load * 1000.0).round() as u64, seed, cfg.key_fragment()),
        |&(vi, load, seed), control| {
            let (_, gap_mult, ecn_pkts) = variants[vi];
            let mut s = scenario(Scheme::CloveEcn, TopologyKind::Asymmetric, load, seed, cfg, Some(control));
            // Multipliers are relative to the default gap (≈ the loaded RTT,
            // the paper's "1×RTT best" operating point).
            s.profile.flowlet_gap = Duration::from_secs_f64(s.profile.flowlet_gap.as_secs_f64() * gap_mult);
            s.profile.ecn_threshold_pkts = ecn_pkts;
            run_rpc_checked(&s, &dist).fct
        },
    );
    let mut table = FigureTable::new("Fig 6 — Clove-ECN parameter sensitivity, asymmetric, avg FCT (s)", "load %", loads.iter().map(|l| l * 100.0).collect());
    let per_point = cfg.seeds as usize;
    let mut chunks = outcomes.chunks(per_point);
    for (name, _, _) in variants {
        let mut ys = Vec::new();
        for &load in loads {
            let chunk = chunks.next().expect("cell count matches variants × loads");
            let mut pooled: Option<FctSummary> = None;
            let mut bad = Vec::new();
            for (off, outcome) in chunk.iter().enumerate() {
                match outcome {
                    CellOutcome::Ok(fct) => match pooled.as_mut() {
                        None => pooled = Some(fct.clone()),
                        Some(p) => p.merge(fct),
                    },
                    other => {
                        let cell = format!("{name} @ {:.0}% load", load * 100.0);
                        let seed = 2000 + off as u64;
                        let snap = quarantine_snapshot("fig6", &cell, seed, &other.describe(), None);
                        bad.push(format!("{cell} seed {seed}: {}{snap}", other.describe()));
                    }
                }
            }
            if bad.is_empty() {
                ys.push(pooled.expect("seed ran").avg());
            } else {
                ys.push(f64::NAN);
                table.quarantined.extend(bad);
            }
        }
        table.push_series(name, ys);
    }
    table
}

/// Figure 7: incast — client goodput (Gbps) vs request fan-in.
pub fn fig7(fanouts: &[u32], requests: u32, cfg: &ExpConfig) -> FigureTable {
    let schemes = [Scheme::CloveEcn, Scheme::EdgeFlowlet, Scheme::Mptcp { subflows: 4 }];
    // Flat (scheme, fanout, seed) cells, folded scheme-major in cell order.
    let cells: Vec<(usize, u32, u64)> =
        (0..schemes.len()).flat_map(|si| fanouts.iter().flat_map(move |&fanout| (0..cfg.seeds).map(move |s| (si, fanout, 3000 + s as u64)))).collect();
    let (outcomes, _) = run_cells(
        "fig7",
        &cells,
        cfg,
        // Incast cost grows with fan-in (more servers, more packets).
        |&(si, fanout, _)| schemes[si].cost_weight() * fanout as f64,
        |&(si, fanout, seed)| format!("fig7|{}|fanout{fanout}|req{requests}|seed{seed}|{}", schemes[si].label(), cfg.key_fragment()),
        |&(si, fanout, seed), control| {
            let s = scenario(schemes[si].clone(), TopologyKind::Symmetric, 0.5, seed, cfg, Some(control));
            let out = s.run_incast(fanout, requests, 10_000_000);
            assert!(out.invariant_violations == 0, "{} invariant violations in incast {} (seed {})", out.invariant_violations, schemes[si].label(), seed);
            out.goodput_bps / 1e9
        },
    );
    let mut table = FigureTable::new("Fig 7 — incast: client goodput (Gbps) vs request fan-in", "fan-in", fanouts.iter().map(|&f| f as f64).collect());
    let per_point = cfg.seeds as usize;
    let mut chunks = outcomes.chunks(per_point);
    for scheme in &schemes {
        let mut ys = Vec::new();
        for &fanout in fanouts {
            let chunk = chunks.next().expect("cell count matches schemes × fanouts");
            let mut sum = 0.0;
            let mut bad = Vec::new();
            for (off, outcome) in chunk.iter().enumerate() {
                match outcome {
                    CellOutcome::Ok(gbps) => sum += gbps,
                    other => {
                        let cell = format!("{} @ fan-in {fanout}", scheme.label());
                        let seed = 3000 + off as u64;
                        let snap = quarantine_snapshot("fig7", &cell, seed, &other.describe(), None);
                        bad.push(format!("{cell} seed {seed}: {}{snap}", other.describe()));
                    }
                }
            }
            if bad.is_empty() {
                ys.push(sum / cfg.seeds as f64);
            } else {
                ys.push(f64::NAN);
                table.quarantined.extend(bad);
            }
        }
        table.push_series(scheme.label(), ys);
    }
    table
}

/// Figure 8a: simulation scheme set, symmetric topology, avg FCT vs load.
pub fn fig8a(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 8a — sim symmetric, avg FCT (s)", TopologyKind::Symmetric, &sim_schemes(), loads, cfg, cache, |s| s.avg())
}

/// Figure 8b: simulation scheme set, asymmetric topology, avg FCT vs load.
pub fn fig8b(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 8b — sim asymmetric, avg FCT (s)", TopologyKind::Asymmetric, &sim_schemes(), loads, cfg, cache, |s| s.avg())
}

/// Figure 9: CDFs of mice FCTs at 70% load on the asymmetric topology for
/// ECMP, Clove-ECN, CONGA. Returns `(scheme, cdf points)` triples; a
/// quarantined scheme yields an empty point list and a `[quarantined]`
/// label suffix rather than aborting the figure.
pub fn fig9(cfg: &ExpConfig, cache: &mut PointCache) -> Vec<(String, Vec<(f64, f64)>)> {
    let schemes = [Scheme::Ecmp, Scheme::CloveEcn, Scheme::Conga];
    cache.prefetch(&schemes, TopologyKind::Asymmetric, &[0.7], cfg);
    schemes
        .into_iter()
        .map(|scheme| {
            let label = scheme.label().to_string();
            match cache.point(&scheme, TopologyKind::Asymmetric, 0.7, cfg) {
                Some(mut s) => (label, s.mice_cdf(40)),
                None => (format!("{label} [quarantined]"), Vec::new()),
            }
        })
        .collect()
}

/// One fault case of the resilience sweep. Every case hits the paper's
/// S2–L2 cable ([`CableSelector::S2_L2`]) mid-run on the otherwise
/// symmetric testbed topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCase {
    /// No fault — the per-scheme baseline the others are normalized to.
    Clean,
    /// One announced cut, never restored (the paper's asymmetry, but
    /// arriving mid-run).
    SingleCut,
    /// A silent flap: repeated down/up cycles the control plane never
    /// sees — the gray failure edge probing exists for.
    Flapping,
    /// Line rate silently halved.
    Degraded,
    /// 1% silent stochastic packet loss.
    RandomLoss,
}

impl FaultCase {
    /// Every case, clean first (the sweep relies on that ordering to have
    /// the baseline before computing degradations).
    pub const ALL: [FaultCase; 5] = [FaultCase::Clean, FaultCase::SingleCut, FaultCase::Flapping, FaultCase::Degraded, FaultCase::RandomLoss];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            FaultCase::Clean => "clean",
            FaultCase::SingleCut => "single-cut",
            FaultCase::Flapping => "flapping",
            FaultCase::Degraded => "50%-degraded",
            FaultCase::RandomLoss => "1%-loss",
        }
    }

    /// The fault timeline for this case, anchored at `at`. Flap cycles are
    /// sized in probe intervals so the detection race (blackhole_rounds
    /// consecutive truncated rounds vs. the down span) scales with the
    /// profile: down for 4 intervals, up for 2, twice.
    pub fn plan(self, at: Time, probe_interval: Duration) -> FaultPlan {
        let cable = CableSelector::S2_L2;
        match self {
            FaultCase::Clean => FaultPlan::none(),
            FaultCase::SingleCut => FaultPlan::cut(at, cable),
            FaultCase::Flapping => FaultPlan::flap(at, cable, probe_interval * 6, 2.0 / 3.0, 2),
            FaultCase::Degraded => FaultPlan::degrade(at, cable, 0.5),
            FaultCase::RandomLoss => FaultPlan::loss(at, cable, 0.01),
        }
    }
}

/// The schemes the resilience sweep covers: the union of the testbed and
/// simulation sets (every scheme the figures exercise, each once).
pub fn resilience_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Ecmp,
        Scheme::EdgeFlowlet,
        Scheme::CloveEcn,
        Scheme::Mptcp { subflows: 4 },
        Scheme::Presto { oracle_weights: None },
        Scheme::CloveInt,
        Scheme::Conga,
    ]
}

/// When the resilience faults land: late enough for a pre-fault FCT
/// baseline, early enough that plenty of traffic runs under the fault.
pub const RESILIENCE_FAULT_AT: Time = Time(20_000_000); // 20 ms

fn fault_stats_to_json(s: &FaultStats) -> Json {
    Json::Obj(vec![
        ("drops_down".into(), s.drops_down.to_journal()),
        ("drops_loss".into(), s.drops_loss.to_journal()),
        ("drops_overflow".into(), s.drops_overflow.to_journal()),
        ("drops_no_route".into(), s.drops_no_route.to_journal()),
        ("down_time_ns".into(), s.down_time.as_nanos().to_journal()),
        ("degraded_time_ns".into(), s.degraded_time.as_nanos().to_journal()),
        ("faults_applied".into(), s.faults_applied.to_journal()),
    ])
}

fn fault_stats_from_json(v: &Json) -> Result<FaultStats, String> {
    Ok(FaultStats {
        drops_down: journal::deu64(journal::field(v, "drops_down")?)?,
        drops_loss: journal::deu64(journal::field(v, "drops_loss")?)?,
        drops_overflow: journal::deu64(journal::field(v, "drops_overflow")?)?,
        drops_no_route: journal::deu64(journal::field(v, "drops_no_route")?)?,
        down_time: Duration::from_nanos(journal::deu64(journal::field(v, "down_time_ns")?)?),
        degraded_time: Duration::from_nanos(journal::deu64(journal::field(v, "degraded_time_ns")?)?),
        faults_applied: journal::deu64(journal::field(v, "faults_applied")?)?,
    })
}

fn control_stats_to_json(s: &ControlFaultStats) -> Json {
    Json::Obj(vec![
        ("probes_dropped".into(), s.probes_dropped.to_journal()),
        ("replies_dropped".into(), s.replies_dropped.to_journal()),
        ("feedback_dropped".into(), s.feedback_dropped.to_journal()),
        ("feedback_delayed".into(), s.feedback_delayed.to_journal()),
        ("feedback_corrupted".into(), s.feedback_corrupted.to_journal()),
        ("control_faults_applied".into(), s.control_faults_applied.to_journal()),
    ])
}

fn control_stats_from_json(v: &Json) -> Result<ControlFaultStats, String> {
    Ok(ControlFaultStats {
        probes_dropped: journal::deu64(journal::field(v, "probes_dropped")?)?,
        replies_dropped: journal::deu64(journal::field(v, "replies_dropped")?)?,
        feedback_dropped: journal::deu64(journal::field(v, "feedback_dropped")?)?,
        feedback_delayed: journal::deu64(journal::field(v, "feedback_delayed")?)?,
        feedback_corrupted: journal::deu64(journal::field(v, "feedback_corrupted")?)?,
        control_faults_applied: journal::deu64(journal::field(v, "control_faults_applied")?)?,
    })
}

/// Per-run payload of one resilience cell, pre-fold.
struct ResilienceRun {
    fct: FctSummary,
    evictions: u64,
    fault_stats: FaultStats,
    recovery: Option<Duration>,
}

impl JournalValue for ResilienceRun {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("fct".into(), self.fct.to_journal()),
            ("evictions".into(), self.evictions.to_journal()),
            ("fault_stats".into(), fault_stats_to_json(&self.fault_stats)),
            ("recovery".into(), journal::opt_duration_to_json(self.recovery)),
        ])
    }
    fn from_journal(v: &Json) -> Result<ResilienceRun, String> {
        Ok(ResilienceRun {
            fct: FctSummary::from_journal(journal::field(v, "fct")?)?,
            evictions: journal::deu64(journal::field(v, "evictions")?)?,
            fault_stats: fault_stats_from_json(journal::field(v, "fault_stats")?)?,
            recovery: journal::opt_duration_from_json(journal::field(v, "recovery")?)?,
        })
    }
}

/// The resilience sweep: `{clean, single-cut, flapping, 50%-degraded,
/// 1%-loss}` × `schemes` at 60% load on the symmetric testbed topology,
/// reporting average FCT, degradation vs. the scheme's clean run, recovery
/// time and the fabric's fault damage. Probing is tightened to 5 ms rounds
/// so detection happens on the timescale of the faults.
///
/// A quarantined `(scheme, case)` cell renders as a row of `NaN`s plus a
/// footer line; when the *clean* baseline of a scheme is quarantined, the
/// degradation column of its other cases is `NaN` as well (there is
/// nothing sound to normalize against).
pub fn resilience(schemes: &[Scheme], cfg: &ExpConfig) -> ResilienceTable {
    let dist = web_search();
    let load = 0.6;
    // Flat (scheme, case, seed) cells, folded scheme-major (cases in
    // FaultCase::ALL order so `clean` arrives first) in cell order.
    let cells: Vec<(usize, usize, u64)> =
        (0..schemes.len()).flat_map(|si| (0..FaultCase::ALL.len()).flat_map(move |ci| (0..cfg.seeds).map(move |s| (si, ci, 4000 + s as u64)))).collect();
    let (outcomes, _) = run_cells(
        "resilience",
        &cells,
        cfg,
        // All cells share one load; scheme weight dominates wall time.
        |&(si, _, _)| schemes[si].cost_weight(),
        |&(si, ci, seed)| format!("resilience|{}|{}|seed{seed}|{}", schemes[si].label(), FaultCase::ALL[ci].label(), cfg.key_fragment()),
        |&(si, ci, seed), control| {
            let mut s = scenario(schemes[si].clone(), TopologyKind::Symmetric, load, seed, cfg, Some(control));
            s.profile.probe_interval = Duration::from_millis(5);
            s.faults = FaultCase::ALL[ci].plan(RESILIENCE_FAULT_AT, s.profile.probe_interval);
            let out = run_rpc_checked(&s, &dist);
            ResilienceRun { fct: out.fct, evictions: out.path_evictions, fault_stats: out.fault_stats, recovery: out.recovery }
        },
    );
    let mut table =
        ResilienceTable::new(format!("Resilience — S2-L2 faults at {} ms, symmetric, {:.0}% load", RESILIENCE_FAULT_AT.0 / 1_000_000, load * 100.0));
    let cases: Vec<&'static str> = FaultCase::ALL.iter().map(|c| c.label()).collect();
    fold_damage_rows(&mut table, "resilience", schemes, &cases, &outcomes, cfg.seeds as usize, 4000);
    table
}

/// Fold the `(scheme, case, seed)` outcomes of a damage sweep into table
/// rows, scheme-major with the clean baseline first in each scheme's case
/// list. Shared by [`resilience`] and [`recovery`]; the fold consumes
/// outcomes in cell order, so the resulting table is byte-identical at any
/// `--jobs` width.
fn fold_damage_rows(
    table: &mut ResilienceTable,
    scope: &str,
    schemes: &[Scheme],
    cases: &[&'static str],
    outcomes: &[CellOutcome<ResilienceRun>],
    per_point: usize,
    seed_base: u64,
) {
    let mut chunks = outcomes.chunks(per_point);
    for scheme in schemes {
        let mut clean_avg = None;
        for &case in cases {
            let chunk = chunks.next().expect("cell count matches schemes × cases");
            let mut pooled: Option<FctSummary> = None;
            let mut evictions = 0u64;
            let mut stats = FaultStats::default();
            let mut recovered_ms = Vec::new();
            let mut bad = Vec::new();
            for (off, outcome) in chunk.iter().enumerate() {
                match outcome {
                    CellOutcome::Ok(run) => {
                        evictions += run.evictions;
                        stats.absorb(&run.fault_stats);
                        if let Some(r) = run.recovery {
                            recovered_ms.push(r.as_secs_f64() * 1e3);
                        }
                        match pooled.as_mut() {
                            None => pooled = Some(run.fct.clone()),
                            Some(p) => p.merge(&run.fct),
                        }
                    }
                    other => {
                        let cell = format!("{} / {}", scheme.label(), case);
                        let seed = seed_base + off as u64;
                        let snap = quarantine_snapshot(scope, &cell, seed, &other.describe(), None);
                        bad.push(format!("{cell} seed {seed}: {}{snap}", other.describe()));
                    }
                }
            }
            let avg = if bad.is_empty() { pooled.expect("at least one seed").avg() } else { f64::NAN };
            if !bad.is_empty() {
                table.quarantined.extend(bad);
                evictions = 0;
                stats = FaultStats::default();
                recovered_ms.clear();
            }
            let clean = *clean_avg.get_or_insert(avg);
            let degradation = if avg.is_nan() || clean.is_nan() {
                f64::NAN
            } else if clean > 0.0 {
                avg / clean
            } else {
                1.0
            };
            table.rows.push(ResilienceRow {
                case: case.into(),
                scheme: scheme.label().to_string(),
                avg_fct_s: avg,
                degradation,
                recovery_ms: if recovered_ms.is_empty() { None } else { Some(recovered_ms.iter().sum::<f64>() / recovered_ms.len() as f64) },
                path_evictions: evictions,
                stats,
            });
        }
    }
}

/// One node-fault case of the recovery matrix. Every case crashes whole
/// nodes on the otherwise symmetric testbed topology and watches traffic
/// ride the outage out and re-converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryCase {
    /// No fault — the per-scheme baseline the others are normalized to.
    Clean,
    /// ToR (leaf 1) crash-restart, cold: its CONGA/LetFlow/HULA soft state
    /// is gone when it boots back.
    TorReboot,
    /// Spine 1 crash-restart, cold — half the fabric's middle stage.
    SpineReboot,
    /// Hypervisor 0 crash-restart, warm: the vswitch state survives (VM
    /// live-migration-style restart), only the outage itself hurts.
    HostCrashWarm,
    /// Hypervisor 0 crash-restart, cold: flowlet table, WRR weights and
    /// discovery selections are flushed; re-discovery starts from scratch
    /// under the degradation ladder.
    HostCrashCold,
    /// Rolling ToR maintenance: leaf 0 reboots, then leaf 1 after the
    /// first is back — the planned-upgrade pattern.
    RollingTor,
}

impl RecoveryCase {
    /// Every case, clean first (the matrix relies on that ordering to have
    /// the baseline before computing degradations).
    pub const ALL: [RecoveryCase; 6] = [
        RecoveryCase::Clean,
        RecoveryCase::TorReboot,
        RecoveryCase::SpineReboot,
        RecoveryCase::HostCrashWarm,
        RecoveryCase::HostCrashCold,
        RecoveryCase::RollingTor,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryCase::Clean => "clean",
            RecoveryCase::TorReboot => "tor-reboot",
            RecoveryCase::SpineReboot => "spine-reboot",
            RecoveryCase::HostCrashWarm => "host-crash-warm",
            RecoveryCase::HostCrashCold => "host-crash-cold",
            RecoveryCase::RollingTor => "rolling-tor",
        }
    }

    /// The node-fault timeline for this case, anchored at `at`. Switch
    /// reboots take 15 ms (three 5 ms probe rounds — long enough that the
    /// blind window matters), host reboots 10 ms; the rolling upgrade
    /// staggers the two ToRs so the fabric is never fully dark.
    pub fn plan(self, at: Time) -> FaultPlan {
        let switch_boot = Duration::from_millis(15);
        let host_boot = Duration::from_millis(10);
        match self {
            RecoveryCase::Clean => FaultPlan::none(),
            RecoveryCase::TorReboot => FaultPlan::node_crash(at, NodeSelector::Leaf(1), switch_boot, NodeState::Cold),
            RecoveryCase::SpineReboot => FaultPlan::node_crash(at, NodeSelector::Spine(1), switch_boot, NodeState::Cold),
            RecoveryCase::HostCrashWarm => FaultPlan::node_crash(at, NodeSelector::Host(0), host_boot, NodeState::Warm),
            RecoveryCase::HostCrashCold => FaultPlan::node_crash(at, NodeSelector::Host(0), host_boot, NodeState::Cold),
            RecoveryCase::RollingTor => {
                let mut plan = FaultPlan::node_crash(at, NodeSelector::Leaf(0), host_boot, NodeState::Cold);
                plan.extend(FaultPlan::node_crash(at + host_boot + Duration::from_millis(5), NodeSelector::Leaf(1), host_boot, NodeState::Cold));
                plan
            }
        }
    }
}

/// The recovery-conformance matrix: `{clean, tor-reboot, spine-reboot,
/// host-crash-warm, host-crash-cold, rolling-tor}` × `schemes` at 60% load
/// on the symmetric testbed topology, reporting time-to-recover and the
/// SLO damage ledger (FCT degradation vs. the scheme's clean run, drops,
/// down time, evictions). Node faults lower to their incident cable sets
/// plus the restart-semantics events (`clove_net::fault` module docs);
/// cold restarts additionally flush switch LB tables or the whole vswitch
/// (flowlets, WRR weights, discovery selections). Probing is tightened to
/// 5 ms rounds so re-discovery happens on the timescale of the reboots.
pub fn recovery(schemes: &[Scheme], cfg: &ExpConfig) -> ResilienceTable {
    let dist = web_search();
    let load = 0.6;
    // Flat (scheme, case, seed) cells, folded scheme-major (cases in
    // RecoveryCase::ALL order so `clean` arrives first) in cell order.
    let cells: Vec<(usize, usize, u64)> =
        (0..schemes.len()).flat_map(|si| (0..RecoveryCase::ALL.len()).flat_map(move |ci| (0..cfg.seeds).map(move |s| (si, ci, 6000 + s as u64)))).collect();
    let (outcomes, _) = run_cells(
        "recovery",
        &cells,
        cfg,
        // All cells share one load; scheme weight dominates wall time.
        |&(si, _, _)| schemes[si].cost_weight(),
        |&(si, ci, seed)| format!("recovery|{}|{}|seed{seed}|{}", schemes[si].label(), RecoveryCase::ALL[ci].label(), cfg.key_fragment()),
        |&(si, ci, seed), control| {
            let mut s = scenario(schemes[si].clone(), TopologyKind::Symmetric, load, seed, cfg, Some(control));
            s.profile.probe_interval = Duration::from_millis(5);
            s.faults = RecoveryCase::ALL[ci].plan(RESILIENCE_FAULT_AT);
            let out = run_rpc_checked(&s, &dist);
            ResilienceRun { fct: out.fct, evictions: out.path_evictions, fault_stats: out.fault_stats, recovery: out.recovery }
        },
    );
    let mut table =
        ResilienceTable::new(format!("Recovery — node crash-restarts at {} ms, symmetric, {:.0}% load", RESILIENCE_FAULT_AT.0 / 1_000_000, load * 100.0));
    let cases: Vec<&'static str> = RecoveryCase::ALL.iter().map(|c| c.label()).collect();
    fold_damage_rows(&mut table, "recovery", schemes, &cases, &outcomes, cfg.seeds as usize, 6000);
    table
}

/// The control-loop loss rates the feedback-degradation sweep covers,
/// clean first (the sweep relies on that ordering to have the baseline
/// before computing slowdowns).
pub const FEEDBACK_LOSS_RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.20, 0.50];

/// Per-run payload of one feedback-degradation cell, pre-fold.
struct FeedbackRun {
    fct: FctSummary,
    control: ControlFaultStats,
    recovery: Option<Duration>,
}

impl JournalValue for FeedbackRun {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("fct".into(), self.fct.to_journal()),
            ("control".into(), control_stats_to_json(&self.control)),
            ("recovery".into(), journal::opt_duration_to_json(self.recovery)),
        ])
    }
    fn from_journal(v: &Json) -> Result<FeedbackRun, String> {
        Ok(FeedbackRun {
            fct: FctSummary::from_journal(journal::field(v, "fct")?)?,
            control: control_stats_from_json(journal::field(v, "control")?)?,
            recovery: journal::opt_duration_from_json(journal::field(v, "recovery")?)?,
        })
    }
}

/// The feedback-degradation sweep: `{0, 1, 5, 20, 50}%` control-loop loss
/// (probes, probe replies *and* congestion feedback all dropped at the
/// rate, via [`ControlFaultPlan::lossy_control`]) × `schemes` at 60% load
/// on the symmetric testbed topology. Reports average and p99 FCT slowdown
/// vs. the scheme's clean run plus time-to-recover — the degradation
/// ladder's report card: schemes that *depend* on feedback (Clove-ECN/INT)
/// should degrade toward Edge-Flowlet, not below it.
///
/// The data plane is untouched: only the control loop is damaged, so any
/// slowdown is pure feedback starvation. Probing is tightened to 5 ms
/// rounds, as in [`resilience`], so staleness horizons are crossed within
/// the run.
pub fn feedback_degradation(schemes: &[Scheme], cfg: &ExpConfig) -> FeedbackTable {
    let dist = web_search();
    let load = 0.6;
    // Flat (scheme, rate, seed) cells, folded scheme-major (rates in
    // FEEDBACK_LOSS_RATES order so the clean baseline arrives first) in
    // cell order.
    let cells: Vec<(usize, usize, u64)> =
        (0..schemes.len()).flat_map(|si| (0..FEEDBACK_LOSS_RATES.len()).flat_map(move |ri| (0..cfg.seeds).map(move |s| (si, ri, 5000 + s as u64)))).collect();
    let (outcomes, _) = run_cells(
        "feedback",
        &cells,
        cfg,
        // All cells share one load; scheme weight dominates wall time.
        |&(si, _, _)| schemes[si].cost_weight(),
        |&(si, ri, seed)| {
            format!("feedback|{}|rate{}|seed{seed}|{}", schemes[si].label(), (FEEDBACK_LOSS_RATES[ri] * 1000.0).round() as u64, cfg.key_fragment())
        },
        |&(si, ri, seed), control| {
            let mut s = scenario(schemes[si].clone(), TopologyKind::Symmetric, load, seed, cfg, Some(control));
            s.profile.probe_interval = Duration::from_millis(5);
            let rate = FEEDBACK_LOSS_RATES[ri];
            if rate > 0.0 {
                s.control_faults = ControlFaultPlan::lossy_control(RESILIENCE_FAULT_AT, rate);
            }
            let out = run_rpc_checked(&s, &dist);
            FeedbackRun { fct: out.fct, control: out.control_stats, recovery: out.recovery }
        },
    );
    let mut table = FeedbackTable::new(format!(
        "Feedback degradation — lossy control loop from {} ms, symmetric, {:.0}% load",
        RESILIENCE_FAULT_AT.0 / 1_000_000,
        load * 100.0
    ));
    let per_point = cfg.seeds as usize;
    let mut chunks = outcomes.chunks(per_point);
    for scheme in schemes {
        let mut clean: Option<(f64, f64)> = None;
        for rate in FEEDBACK_LOSS_RATES {
            let chunk = chunks.next().expect("cell count matches schemes × rates");
            let mut pooled: Option<FctSummary> = None;
            let mut control = ControlFaultStats::default();
            let mut recovered_ms = Vec::new();
            let mut bad = Vec::new();
            for (off, outcome) in chunk.iter().enumerate() {
                match outcome {
                    CellOutcome::Ok(run) => {
                        control.absorb(&run.control);
                        if let Some(r) = run.recovery {
                            recovered_ms.push(r.as_secs_f64() * 1e3);
                        }
                        match pooled.as_mut() {
                            None => pooled = Some(run.fct.clone()),
                            Some(p) => p.merge(&run.fct),
                        }
                    }
                    other => {
                        let cell = format!("{} @ {:.0}% control loss", scheme.label(), rate * 100.0);
                        let seed = 5000 + off as u64;
                        let snap = quarantine_snapshot("feedback", &cell, seed, &other.describe(), None);
                        bad.push(format!("{cell} seed {seed}: {}{snap}", other.describe()));
                    }
                }
            }
            let (avg, p99) = if bad.is_empty() {
                let mut fct = pooled.expect("at least one seed");
                (fct.avg(), fct.p99())
            } else {
                table.quarantined.extend(bad);
                control = ControlFaultStats::default();
                recovered_ms.clear();
                (f64::NAN, f64::NAN)
            };
            let (clean_avg, clean_p99) = *clean.get_or_insert((avg, p99));
            let slowdown = |v: f64, base: f64| {
                if v.is_nan() || base.is_nan() {
                    f64::NAN
                } else if base > 0.0 {
                    v / base
                } else {
                    1.0
                }
            };
            table.rows.push(FeedbackRow {
                rate_pct: rate * 100.0,
                scheme: scheme.label().to_string(),
                avg_fct_s: avg,
                avg_slowdown: slowdown(avg, clean_avg),
                p99_fct_s: p99,
                p99_slowdown: slowdown(p99, clean_p99),
                recovery_ms: if recovered_ms.is_empty() { None } else { Some(recovered_ms.iter().sum::<f64>() / recovered_ms.len() as f64) },
                control,
            });
        }
    }
    table
}

/// Shared driver for FCT-vs-load figures: prefetch the whole scheme × load
/// matrix as one parallel fan-out, then assemble from cache hits.
/// Quarantined points render as `NaN` with a footer line per failed seed.
fn rpc_figure(
    title: &str,
    topology: TopologyKind,
    schemes: &[Scheme],
    loads: &[f64],
    cfg: &ExpConfig,
    cache: &mut PointCache,
    metric: impl Fn(&mut FctSummary) -> f64,
) -> FigureTable {
    cache.prefetch(schemes, topology, loads, cfg);
    let mut table = FigureTable::new(title, "load %", loads.iter().map(|l| l * 100.0).collect());
    for scheme in schemes {
        let mut ys = Vec::new();
        for &load in loads {
            match cache.point(scheme, topology, load, cfg) {
                Some(mut s) => ys.push(metric(&mut s)),
                None => {
                    ys.push(f64::NAN);
                    table.quarantined.extend(cache.quarantine_lines(scheme, topology, load).iter().cloned());
                }
            }
        }
        table.push_series(scheme.label(), ys);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_slug_collapses_unsafe_characters() {
        assert_eq!(path_slug("Clove-ECN @ 70% load (asym)"), "Clove-ECN-70-load-asym");
        assert_eq!(path_slug("MPTCP/4 / single-cut"), "MPTCP-4-single-cut");
        assert_eq!(path_slug("---"), "");
    }

    #[test]
    fn recovery_cases_validate_and_lower_on_the_testbed() {
        for case in RecoveryCase::ALL {
            let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::Symmetric, 0.5, 1);
            s.faults = case.plan(RESILIENCE_FAULT_AT);
            s.validate().unwrap_or_else(|e| panic!("{} must resolve on the paper testbed: {e}", case.label()));
            let nodes = s.faults.node_specs.len();
            match case {
                RecoveryCase::Clean => assert_eq!(nodes, 0),
                RecoveryCase::RollingTor => assert_eq!(nodes, 2, "rolling upgrade reboots both ToRs"),
                _ => assert_eq!(nodes, 1),
            }
        }
        // The warm and cold host crashes differ only in restart state.
        let warm = RecoveryCase::HostCrashWarm.plan(RESILIENCE_FAULT_AT);
        let cold = RecoveryCase::HostCrashCold.plan(RESILIENCE_FAULT_AT);
        assert!(!warm.node_specs[0].is_cold() && cold.node_specs[0].is_cold());
        assert_eq!(warm.node_specs[0].window(), cold.node_specs[0].window());
    }

    #[test]
    fn quarantine_spec_round_trips_through_clove_run_parsing() {
        // The snapshot's repro command feeds the snapshot file straight to
        // clove-run, so the embedded spec (plus the extra `quarantine`
        // object, which the parser must ignore) has to parse back into a
        // single-seed ScenarioSpec for the failed cell.
        let cfg = ExpConfig::quick();
        for scheme in [Scheme::CloveEcn, Scheme::Mptcp { subflows: 4 }, Scheme::Presto { oracle_weights: presto_oracle_weights(TopologyKind::Asymmetric) }] {
            let spec = rpc_cell_spec(&scheme, TopologyKind::Asymmetric, 0.7, 1001, &cfg).expect("figure schemes are spec-expressible");
            let Json::Obj(mut fields) = spec else { panic!("spec must be an object") };
            fields.push(("quarantine".to_string(), Json::Obj(vec![("reason".to_string(), Json::Str("panicked".to_string()))])));
            let parsed = crate::config::ScenarioSpec::from_json_str(&Json::Obj(fields).render()).expect("snapshot parses as a clove-run spec");
            assert_eq!(parsed.load, 0.7);
            assert_eq!(parsed.seed, 1001);
            assert_eq!(parsed.seeds, 1, "replay exactly the failed seed");
            assert_eq!(parsed.jobs_per_conn, cfg.jobs_per_conn);
        }
        assert!(rpc_cell_spec(&Scheme::EcmpDctcp, TopologyKind::Symmetric, 0.5, 1000, &cfg).is_none(), "ablation schemes fall back to a figures repro");
    }
}
