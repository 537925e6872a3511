//! Layered end-to-end benchmark of the Clove simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <testbed-asym|fattree-k16|incast> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a fixed matrix of cells run through the program's
//! entry points (`Scenario::run_rpc` / `run_incast`) fanned out by the
//! orchestrator at `--jobs 2` (capped at the CPU count), the path the
//! `figures` binary takes. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` replays every cell through a copy of the run loop built
//! from public APIs, with host-time spans per crate, and reports the
//! per-layer metrics. The last line of standard output is one JSON object;
//! the lines before it print every metric by name with its unit, plus the
//! run context and the per-cell output digests.

mod micro;
mod replay;
mod stats;
mod workload;

use clove_harness::orchestrator::{run_isolated, CellOutcome, ExecPolicy, MatrixStats};
use clove_sim::Time;
use clove_workload::FctSummary;
use stats::{median, metric, Metric};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Cell, RpcOutputs, Traffic, Workload, INCAST_OBJECT_BYTES};

/// Orchestrator workers: the `figures --jobs` setting being measured.
const JOBS: usize = 2;

/// A cell whose progress counters freeze this long is cancelled and fails.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-up passes per timed run: enough for this many set-ups of every
/// cell kind, then more while they fit the budget (cheap on the testbed,
/// seconds per cell at k=16).
const SETUP_SAMPLES_MIN: usize = 6;
const SETUP_REPS_MAX: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Draws of every scheme that the traced run replays. The replay costs
/// about twice the untraced run, so large matrices replay a subset.
const TRACE_DRAWS: u64 = 8;

/// Timed matrix repetitions: at least this many, then until `--seconds`.
const TIMED_REPS_MIN: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace {value}: {e}"))? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What one entry-point run of a cell produced.
struct CellRun {
    digest: u64,
    events: u64,
    wall_s: f64,
    /// Why the cell's outputs are wrong, if they are.
    problem: Option<String>,
    fct: Option<FctSummary>,
    goodput_bps: f64,
}

/// Run one cell through its entry point. `zero_horizon` stops the run at
/// t=0, which leaves only set-up; `strict` runs the invariant monitor.
fn run_entry(wl: &Workload, cell: &Cell, strict: bool, zero_horizon: bool, trace: bool, control: &std::sync::Arc<clove_sim::RunControl>) -> CellRun {
    let mut s = wl.scenario(cell);
    s.strict = strict;
    s.trace = trace;
    s.control = Some(std::sync::Arc::clone(control));
    if zero_horizon {
        s.horizon = Time::ZERO;
    }
    let started = Instant::now();
    match wl.traffic {
        Traffic::Rpc { .. } => {
            let out = s.run_rpc(&wl.dist);
            let wall_s = started.elapsed().as_secs_f64();
            let digest = RpcOutputs {
                fct: &out.fct,
                sim_time: out.sim_time,
                events: out.events,
                drops: out.drops,
                ecn_marks: out.ecn_marks,
                timeouts: out.timeouts,
                retransmits: out.retransmits,
                fast_retransmits: out.fast_retransmits,
                spurious_undos: out.spurious_undos,
                path_updates: out.path_updates,
                path_evictions: out.path_evictions,
                stalled: &out.stalled,
                peak_pending: out.queue_profile.peak_pending,
            }
            .digest();
            let done = out.fct.all.count() as u64;
            let problem = if !out.violations.is_empty() {
                Some(format!("{} invariant violation(s): {}", out.violations.len(), out.violations[0]))
            } else if zero_horizon {
                None
            } else if out.fct.incomplete > 0 || done != cell.flows {
                Some(format!("{done} of {} flows completed", cell.flows))
            } else if !out.stalled.is_empty() {
                Some(format!("{} stalled connection(s)", out.stalled.len()))
            } else {
                None
            };
            CellRun { digest, events: out.events, wall_s, problem, fct: Some(out.fct), goodput_bps: 0.0 }
        }
        Traffic::Incast { fanout, requests } => {
            let out = s.run_incast(fanout, requests, INCAST_OBJECT_BYTES);
            let wall_s = started.elapsed().as_secs_f64();
            let digest = workload::incast_digest(out.goodput_bps, out.rounds, out.sim_time, out.events, out.timeouts);
            let problem = if out.invariant_violations > 0 {
                Some(format!("{} invariant violation(s)", out.invariant_violations))
            } else if !zero_horizon && out.rounds != requests {
                Some(format!("{} of {requests} requests completed", out.rounds))
            } else {
                None
            };
            CellRun { digest, events: out.events, wall_s, problem, fct: None, goodput_bps: out.goodput_bps }
        }
    }
}

/// One orchestrator pass over the whole matrix.
struct Pass {
    runs: Vec<Result<CellRun, String>>,
    stats: MatrixStats,
}

fn pass(wl: &Workload, cells: &[Cell], jobs: usize, strict: bool, zero_horizon: bool) -> Pass {
    let policy = ExecPolicy::default().with_stall_timeout(STALL_TIMEOUT);
    let costs: Vec<f64> = cells.iter().map(|c| wl.cost(c)).collect();
    let (outcomes, stats) = run_isolated(cells, jobs, policy, Some(&costs), |cell, control| run_entry(wl, cell, strict, zero_horizon, false, control));
    let runs = outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok(r) => Ok(r),
            other => Err(other.describe()),
        })
        .collect();
    Pass { runs, stats }
}

/// Per-cell verdicts over several passes: a cell fails if any pass lost it,
/// any run's outputs were wrong, or its digest differed between passes.
fn verdicts(cells: &[Cell], passes: &[&Pass]) -> Vec<Option<String>> {
    (0..cells.len())
        .map(|i| {
            let mut digest = None;
            for p in passes {
                match &p.runs[i] {
                    Err(e) => return Some(e.clone()),
                    Ok(r) if r.problem.is_some() => return r.problem.clone(),
                    Ok(r) => match digest {
                        None => digest = Some(r.digest),
                        Some(d) if d != r.digest => return Some(format!("digest {d:016x} then {:016x}", r.digest)),
                        Some(_) => {}
                    },
                }
            }
            None
        })
        .collect()
}

fn cell_label(cell: &Cell) -> String {
    format!("{}/seed{:016x}", workload::slug(&cell.scheme), cell.seed)
}

fn is_clove(cell: &Cell) -> bool {
    matches!(cell.scheme, clove_harness::Scheme::CloveEcn)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
}

/// One line per cell with its simulated-output digest, for comparing the
/// outputs of two builds.
fn print_digests(cells: &[Cell], pass: &Pass) {
    for (cell, r) in cells.iter().zip(&pass.runs) {
        if let Ok(r) = r {
            println!("digest {} {:016x} events={}", cell_label(cell), r.digest, r.events);
        }
    }
}

fn report_failures(cells: &[Cell], verdicts: &[Option<String>]) -> usize {
    let mut failed = 0;
    for (cell, v) in cells.iter().zip(verdicts) {
        if let Some(why) = v {
            failed += 1;
            println!("FAILED cell {}: {why}", cell_label(cell));
        }
    }
    failed
}

/// Set-up passes at a zero horizon. Returns each cell's median set-up time
/// over the passes and their sum, the summed per-cell set-up time.
fn setup_passes(wl: &Workload, cells: &[Cell], jobs: usize, reps_min: usize) -> (Vec<f64>, f64) {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < reps_min || (passes.len() < SETUP_REPS_MAX && started.elapsed() < SETUP_BUDGET) {
        passes.push(pass(wl, cells, jobs, false, true));
    }
    let per_cell: Vec<f64> =
        (0..cells.len()).map(|i| median(&mut passes.iter().filter_map(|p| p.runs[i].as_ref().ok().map(|r| r.wall_s)).collect::<Vec<_>>())).collect();
    let total = per_cell.iter().sum();
    (per_cell, total)
}

fn timed(wl: &Workload, cells: &[Cell], args: &Args, jobs: usize) -> (bool, usize, usize, Vec<Metric>) {
    // Every cell of a workload has the same topology, so the cells of one
    // pass are set-up samples too.
    let (setup_cell, setup_s) = setup_passes(wl, cells, jobs, SETUP_SAMPLES_MIN.div_ceil(cells.len()));

    let started = Instant::now();
    let mut reps: Vec<Pass> = vec![pass(wl, cells, jobs, false, false)];
    // Taken after one pass: later passes only add allocator fragmentation
    // that depends on how the two workers' frees interleave.
    let peak_rss_mb = stats::peak_rss_mb();
    while reps.len() < TIMED_REPS_MIN || started.elapsed() < Duration::from_secs(args.seconds) {
        reps.push(pass(wl, cells, jobs, false, false));
    }
    let mut verdict = verdicts(cells, &reps.iter().collect::<Vec<_>>());

    let mut walls: Vec<f64> = reps.iter().map(|p| p.stats.wall.as_secs_f64()).collect();
    // Run time of each cell net of its set-up, per repetition.
    let run_s = |p: &Pass, i: usize| p.runs[i].as_ref().ok().map(|r| (r.events, (r.wall_s - setup_cell[i]).max(1e-9)));
    let rates: Vec<f64> = reps
        .iter()
        .map(|p| {
            let (events, secs) = (0..cells.len()).filter_map(|i| run_s(p, i)).fold((0u64, 0.0), |a, (e, t)| (a.0 + e, a.1 + t));
            events as f64 / secs
        })
        .collect();
    // The rate reported takes each cell's median run time over the
    // repetitions, so a slow spell in one repetition of one cell is dropped
    // instead of weighing on that whole repetition.
    let (mut events, mut run_secs) = (0u64, 0.0);
    for i in 0..cells.len() {
        let mut times: Vec<f64> = reps.iter().filter_map(|p| run_s(p, i).map(|(_, t)| t)).collect();
        if let Some((e, _)) = run_s(&reps[0], i) {
            events += e;
            run_secs += median(&mut times);
        }
    }
    let sim_events_per_s = events as f64 / run_secs;

    // The simulated metrics are deterministic: any pass gives them.
    let first = &reps[0];
    let mut pooled = FctSummary { all: Default::default(), mice: Default::default(), elephants: Default::default(), incomplete: 0 };
    let (mut goodput, mut clove_cells) = (0.0, 0u32);
    let (mut bytes, mut fct_sum) = (0u64, 0.0);
    for (i, cell) in cells.iter().enumerate().filter(|(_, c)| is_clove(c)) {
        let Ok(run) = &first.runs[i] else { continue };
        if wl.is_incast() {
            goodput += run.goodput_bps;
            clove_cells += 1;
            // `run_incast` reports goodput only; the per-response FCTs come
            // from the public-API copy, checked against the same digest.
            let r = replay::run(wl, cell, false);
            if r.digest != run.digest && verdict[i].is_none() {
                verdict[i] = Some(format!("public-API copy digest {:016x} != entry point {:016x}", r.digest, run.digest));
            }
            pooled.merge(&r.fct);
        } else if let Some(f) = &run.fct {
            pooled.merge(f);
            bytes += cell.bytes;
            fct_sum += f.all.mean() * f.all.count() as f64;
        }
    }
    let clove_goodput_gbps = if wl.is_incast() { goodput / f64::from(clove_cells.max(1)) / 1e9 } else { bytes as f64 * 8.0 / fct_sum / 1e9 };

    let failed = report_failures(cells, &verdict);
    let n = cells.len();
    println!("info clove_fct_p50_ms = {} ms over {} pooled Clove-ECN flows", pooled.all.p50() * 1e3, pooled.all.count());
    println!("info cell_fail_ratio = {} ({failed} of {n} cells)", failed as f64 / n as f64);
    println!("info {} timed repetitions of the matrix at --jobs {jobs}: wall {walls:?} s, events/s {rates:?}", reps.len());
    println!("info set-up per cell {setup_cell:?} s");
    print_digests(cells, first);
    let metrics = vec![
        metric("wall_s", median(&mut walls), "s"),
        metric("sim_events_per_s", sim_events_per_s, "1/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("cell_pass_ratio", (n - failed) as f64 / n as f64, "ratio"),
        metric("clove_fct_mean_ms", pooled.all.mean() * 1e3, "ms"),
        metric("clove_fct_p99_ms", pooled.all.p99() * 1e3, "ms"),
        metric("clove_goodput_gbps", clove_goodput_gbps, "Gb/s"),
    ];
    (failed == 0, n, failed, metrics)
}

/// Median wall-time ratio of a representative cell run with decision
/// tracing on against the same cell with it off, alternating the two.
fn trace_on_ratio(wl: &Workload, cell: &Cell, budget: Duration) -> f64 {
    let control = std::sync::Arc::new(clove_sim::RunControl::new());
    let started = Instant::now();
    let mut ratios = Vec::new();
    while ratios.len() < 3 && (ratios.is_empty() || started.elapsed() < budget) {
        let off = run_entry(wl, cell, false, false, false, &control).wall_s;
        let on = run_entry(wl, cell, false, false, true, &control).wall_s;
        ratios.push(on / off);
    }
    median(&mut ratios)
}

fn traced(wl: &Workload, cells: &[Cell], args: &Args, jobs: usize, context: &str) -> (bool, usize, usize, Vec<Metric>) {
    let parallel = pass(wl, cells, jobs, false, false);
    let serial = pass(wl, cells, 1, true, false);
    let mut verdict = verdicts(cells, &[&parallel, &serial]);
    let (setup_cell, _) = setup_passes(wl, cells, 1, 1);
    let setup_serial_s: f64 = cells.iter().zip(&setup_cell).filter(|(c, _)| c.draw < TRACE_DRAWS).map(|(_, s)| s).sum();

    let mut spans = replay::Spans::default();
    let mut counts = replay::Counts::default();
    let mut shape = replay::Shape::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let replayed = cells.iter().filter(|c| c.draw < TRACE_DRAWS).count();
    for (i, cell) in cells.iter().enumerate().filter(|(_, c)| c.draw < TRACE_DRAWS) {
        let r = replay::run(wl, cell, true);
        if let Ok(entry) = &serial.runs[i] {
            untraced_s += entry.wall_s;
            if entry.digest != r.digest && verdict[i].is_none() {
                verdict[i] = Some(format!("traced digest {:016x} != untraced {:016x}", r.digest, entry.digest));
            }
        }
        traced_s += r.wall_s;
        spans.merge(&r.spans);
        counts.add(&r.counts);
        shape.widen(&r.shape);
    }

    let representative = cells.iter().find(|c| is_clove(c)).unwrap_or(&cells[0]);
    let trace_on = trace_on_ratio(wl, representative, Duration::from_secs(args.seconds));
    let profile = wl.scenario(representative).profile;
    let micro = micro::measure(&shape, &profile);

    let secs = |layer: &str| spans.layer(layer).ns as f64 / 1e9;
    let accounted = spans.0.values().map(|s| s.ns as f64 / 1e9).sum::<f64>();
    let switch = |s: &str| spans.get("net.switch", s).ns_per_call();
    let conga_extra =
        if spans.get("net.switch", "conga").calls > 0 && spans.get("net.switch", "ecmp").calls > 0 { switch("conga") - switch("ecmp") } else { 0.0 };
    let timer = spans.layer("host.on_timer");
    let failed = report_failures(cells, &verdict);

    let mut metrics = vec![
        metric("sim.events", counts.events as f64, "count"),
        metric("sim.pops", counts.pops as f64, "count"),
        metric("sim.peak_pending", counts.peak_pending as f64, "count"),
        metric("sim.loop_self_ns_per_pop", spans.layer("sim.loop_self").ns as f64 / counts.pops.max(1) as f64, "ns"),
        metric("net.settle_ns_per_arrive", spans.layer("net.settle").ns_per_call(), "ns"),
    ];
    for s in workload::SCHEME_SLUGS {
        metrics.push(metric(format!("net.switch_ns_per_pkt.{s}"), switch(s), "ns"));
    }
    metrics.extend([
        metric("net.tx_packets", counts.tx_packets as f64, "count"),
        metric("net.drops", counts.drops as f64, "count"),
        metric("net.ecn_marks", counts.ecn_marks as f64, "count"),
        metric("net.drop_ratio", counts.drops as f64 / counts.tx_packets.max(1) as f64, "ratio"),
        metric("net.route_build_s", spans.layer("setup.topology").ns_per_call() / 1e9, "s"),
        metric("net.ecmp_group_max", shape.ecmp_group as f64, "count"),
        metric("net.probe_replies", counts.probe_replies as f64, "count"),
        metric("baselines.conga_extra_ns_per_pkt", conga_extra, "ns"),
    ]);
    for s in workload::SCHEME_SLUGS {
        metrics.push(metric(format!("host.on_packet_ns.{s}"), spans.get("host.on_packet", s).ns_per_call(), "ns"));
    }
    let rtx_per_kpkt = counts.retransmits as f64 * 1000.0 / counts.tx_packets.max(1) as f64;
    metrics.extend([
        metric("host.on_timer_ns", timer.ns_per_call(), "ns"),
        metric("host.timer_calls", timer.calls as f64, "count"),
        metric("core.flowlet_on_packet_ns", micro.flowlet_on_packet_ns, "ns"),
        metric("core.wrr_pick_ns", micro.wrr_pick_ns, "ns"),
        metric("core.ecn_select_port_ns", micro.ecn_select_port_ns, "ns"),
        metric("core.ecn_on_feedback_ns", micro.ecn_on_feedback_ns, "ns"),
        metric("core.path_updates", counts.path_updates as f64, "count"),
        metric("core.path_evictions", counts.path_evictions as f64, "count"),
        metric("tcp.retransmits", counts.retransmits as f64, "count"),
        metric("tcp.timeouts", counts.timeouts as f64, "count"),
        metric("tcp.fast_retransmits", counts.fast_retransmits as f64, "count"),
        metric("tcp.rtx_per_kpkt", rtx_per_kpkt, "1/kpkt"),
        metric("workload.flows_completed", counts.flows_completed as f64, "count"),
        metric("workload.flows_incomplete", counts.flows_incomplete as f64, "count"),
        metric("workload.concurrent_flows", shape.concurrent_flows as f64, "count"),
        metric("workload.destinations", shape.destinations as f64, "count"),
        metric("workload.paths_per_dst", shape.paths_per_dst as f64, "count"),
        metric("harness.parallel_efficiency", parallel.stats.cell_wall.as_secs_f64() / (jobs as f64 * parallel.stats.wall.as_secs_f64()), "ratio"),
        metric("harness.slowest_cell_s", parallel.stats.slowest.map_or(0.0, |(_, d)| d.as_secs_f64()), "s"),
        metric("telemetry.trace_on_ratio", trace_on, "ratio"),
        metric("mem.packet_bytes", std::mem::size_of::<clove_net::packet::Packet>() as f64, "B"),
        metric("mem.event_bytes", std::mem::size_of::<clove_net::fabric::Event>() as f64, "B"),
        metric("setup.topology_s", secs("setup.topology"), "s"),
        metric("setup.stack_s", secs("setup.stack"), "s"),
        metric("setup.accounted_ratio", (secs("setup.topology") + secs("setup.stack")) / setup_serial_s, "ratio"),
        metric("trace.overhead_ratio", traced_s / untraced_s, "ratio"),
        metric("trace.residual_share", (traced_s - accounted) / traced_s, "ratio"),
    ]);

    println!("info per-layer figures cover the {replayed} replayed cells of {} (the first {TRACE_DRAWS} draws of every scheme)", cells.len());
    println!("info setup_s of the replayed cells (serial, zero horizon) = {setup_serial_s} s");
    println!(
        "info core timings shaped by {} concurrent flows, {} destinations, {} paths per destination",
        shape.concurrent_flows, shape.destinations, shape.paths_per_dst
    );
    print_digests(cells, &serial);
    let path = write_spans(wl, args, &spans, traced_s, context);
    println!("info spans written to {path}");
    (failed == 0, cells.len(), failed, metrics)
}

/// Write the in-memory spans, aggregated per (layer, scheme), to a file
/// under `perfbench/out/` and return its path.
fn write_spans(wl: &Workload, args: &Args, spans: &replay::Spans, traced_s: f64, context: &str) -> String {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}-seed{}.tsv", wl.name, args.seed));
    let mut text = format!("# {context}\nlayer\tscheme\tcalls\ttotal_s\tns_per_call\tshare_of_traced_wall\n");
    for (&(layer, scheme), s) in &spans.0 {
        text.push_str(&format!("{layer}\t{scheme}\t{}\t{:.6}\t{:.1}\t{:.4}\n", s.calls, s.ns as f64 / 1e9, s.ns_per_call(), s.ns as f64 / 1e9 / traced_s));
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text)) {
        Ok(()) => path.display().to_string(),
        Err(e) => {
            eprint!("{text}");
            format!("stderr ({} not writable: {e})", path.display())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?} (known: {})", args.workload, workload::NAMES.join(", "));
        return ExitCode::from(2);
    };
    let jobs = JOBS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let cells = wl.cells(args.seed);
    let context = format!("workload={} seed={} {}", wl.name, args.seed, stats::run_context(jobs));
    println!("context {context}");
    println!("info {} cells, {} flows, {} payload bytes", cells.len(), cells.iter().map(|c| c.flows).sum::<u64>(), cells.iter().map(|c| c.bytes).sum::<u64>());
    let (correct, attempted, failed, metrics) = if args.trace { traced(&wl, &cells, &args, jobs, &context) } else { timed(&wl, &cells, &args, jobs) };
    print_metrics(&metrics);
    println!("{}", stats::result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
