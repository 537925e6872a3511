#![warn(clippy::unwrap_used)]

//! Wall-clock baseline for the figure suite: serial vs. parallel.
//!
//! ```text
//! cargo run --release -p clove-bench --bin bench_baseline -- [--jobs N] [--out FILE] [--check FILE]
//! ```
//!
//! Runs each smoke-scale figure group twice — `--jobs 1` and `--jobs N`
//! (default: the machine's available parallelism) — and writes a JSON
//! report with `{wall_s, events, events_per_sec, jobs}` per group plus
//! the measured speedup. The committed `BENCH_baseline.json` at the repo
//! root records the reference numbers EXPERIMENTS.md quotes. The report
//! also carries an `event_mix` section — peak pending events, the
//! push-to-pop delay histogram, and the per-kind event-loop dispatch
//! profile from representative cells — the measured footprint the timing
//! wheel's level geometry is sized against — plus a `phases` section with
//! wall-clock per-phase timings of the bench itself.
//!
//! `--check FILE` compares this run's serial throughput against a
//! previously committed report and exits non-zero if aggregate
//! events/sec regressed by more than 15% — the CI `bench-smoke` gate.
//!
//! Completed groups (their measured samples, timing included) are
//! checkpointed to `results/.journal/bench/`; `--resume` serves groups an
//! earlier interrupted invocation already timed, so only the remainder
//! re-runs. The report is written atomically (temp file + rename), so a
//! crash mid-write never corrupts a committed baseline.

use clove_harness::experiments::{self, ExpConfig, PointCache};
use clove_harness::json::Json;
use clove_harness::scenario::{Scenario, TopologyKind};
use clove_harness::{write_atomic, Journal, Scheme};
use clove_net::EVENT_KIND_NAMES;
use clove_sim::{QueueProfile, Time};
use clove_telemetry::LoopProfile;
use clove_workload::web_search;
use std::path::Path;
use std::time::Instant;

/// One figure group: a name plus the runs it executes against a fresh
/// cache. Groups mirror how `figures` shares caches (4c with 5a–5c, 8b
/// with 9), so each group's event count is the cache's event total.
struct Group {
    name: &'static str,
    run: fn(&ExpConfig, &mut PointCache),
}

const GROUPS: [Group; 4] = [
    Group {
        name: "fig4b",
        run: |cfg, cache| {
            experiments::fig4b(&[0.5, 0.8], cfg, cache);
        },
    },
    Group {
        name: "fig4c+fig5",
        run: |cfg, cache| {
            let loads = [0.3, 0.5, 0.7];
            experiments::fig4c(&loads, cfg, cache);
            experiments::fig5a(&loads, cfg, cache);
            experiments::fig5b(&loads, cfg, cache);
            experiments::fig5c(&loads, cfg, cache);
        },
    },
    Group {
        name: "fig8a",
        run: |cfg, cache| {
            experiments::fig8a(&[0.5, 0.8], cfg, cache);
        },
    },
    Group {
        name: "fig8b+fig9",
        run: |cfg, cache| {
            experiments::fig8b(&[0.3, 0.5, 0.7], cfg, cache);
            experiments::fig9(cfg, cache);
        },
    },
];

/// One timed execution of a group at a given worker count.
struct Sample {
    wall_s: f64,
    events: u64,
    jobs: usize,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wall_s".to_string(), Json::Num(self.wall_s)),
            ("events".to_string(), Json::Num(self.events as f64)),
            ("events_per_sec".to_string(), Json::Num(self.events_per_sec())),
            ("jobs".to_string(), Json::Num(self.jobs as f64)),
        ])
    }
}

fn sample_from_json(v: &Json) -> Option<Sample> {
    Some(Sample {
        wall_s: v.get("wall_s").and_then(Json::as_f64)?,
        events: v.get("events").and_then(Json::as_f64)? as u64,
        jobs: v.get("jobs").and_then(Json::as_f64)? as usize,
    })
}

/// The serial/parallel sample pair as one journal entry (a JSON string —
/// the journal's `String` codec keeps this bin free of custom impls).
fn pair_encode(serial: &Sample, parallel: &Sample) -> String {
    Json::Obj(vec![("serial".to_string(), serial.to_json()), ("parallel".to_string(), parallel.to_json())]).render()
}

fn pair_decode(text: &str) -> Option<(Sample, Sample)> {
    let doc = Json::parse(text).ok()?;
    Some((sample_from_json(doc.get("serial")?)?, sample_from_json(doc.get("parallel")?)?))
}

fn time_group(group: &Group, jobs: usize) -> Sample {
    // Smoke scale: big enough that events/sec is stable, small enough for
    // CI. Seeds=2 so the seed axis parallelizes too.
    let cfg = ExpConfig { jobs_per_conn: 8, conns_per_client: 1, seeds: 2, horizon_secs: 10, jobs, strict: false, ..ExpConfig::quick() };
    let mut cache = PointCache::new();
    let start = Instant::now();
    (group.run)(&cfg, &mut cache);
    Sample { wall_s: start.elapsed().as_secs_f64(), events: cache.events, jobs }
}

/// Registration-ordered JSON view of a [`LoopProfile`]: per-kind dispatch
/// counts and sim-time occupancy. Deterministic — both numbers are pure
/// functions of the event sequence.
fn loop_profile_json(profile: &LoopProfile) -> Json {
    Json::Obj(
        profile
            .kinds()
            .iter()
            .map(|k| {
                (
                    k.name.to_string(),
                    Json::Obj(vec![("count".to_string(), Json::Num(k.count as f64)), ("occupancy_ns".to_string(), Json::Num(k.occupancy_ns as f64))]),
                )
            })
            .collect(),
    )
}

/// The event-mix profile: peak pending events, the push-to-pop delay
/// histogram, and the event-loop dispatch profile, merged over cells
/// spanning the scheme/topology extremes the figures exercise. The delay
/// histogram is the measured distribution the timing wheel's level
/// geometry (8-bit slots, 6 levels) is sized against; the loop profile
/// shows where the event loop's sim-time goes per event kind.
fn event_mix() -> Json {
    let cells: [(&str, Scheme, TopologyKind, f64); 4] = [
        ("ecmp-sym-50", Scheme::Ecmp, TopologyKind::Symmetric, 0.5),
        ("clove-ecn-asym-70", Scheme::CloveEcn, TopologyKind::Asymmetric, 0.7),
        ("conga-asym-70", Scheme::Conga, TopologyKind::Asymmetric, 0.7),
        ("mptcp-sym-80", Scheme::Mptcp { subflows: 4 }, TopologyKind::Symmetric, 0.8),
    ];
    let dist = web_search();
    let mut merged = QueueProfile::default();
    let mut merged_loop = LoopProfile::new(EVENT_KIND_NAMES);
    let mut per_cell = Vec::new();
    for (name, scheme, topology, load) in cells {
        let mut s = Scenario::new(scheme, topology, load, 1000);
        s.jobs_per_conn = 8;
        s.conns_per_client = 1;
        s.horizon = Time::from_secs(10);
        let out = s.run_rpc(&dist);
        let profile = out.queue_profile;
        per_cell.push((
            name.to_string(),
            Json::Obj(vec![
                ("peak_pending".to_string(), Json::Num(profile.peak_pending as f64)),
                ("events".to_string(), Json::Num(profile.total() as f64)),
                ("loop_profile".to_string(), loop_profile_json(&out.loop_profile)),
            ]),
        ));
        merged.merge(&profile);
        merged_loop.merge(&out.loop_profile);
    }
    Json::Obj(vec![
        ("peak_pending".to_string(), Json::Num(merged.peak_pending as f64)),
        ("events".to_string(), Json::Num(merged.total() as f64)),
        // Bucket 0 = same-instant pushes; bucket k ≥ 1 = [2^(k-1), 2^k) ns.
        ("delay_hist_log2_ns".to_string(), Json::Arr(merged.trimmed_hist().iter().map(|&c| Json::Num(c as f64)).collect())),
        ("loop_profile".to_string(), loop_profile_json(&merged_loop)),
        ("cells".to_string(), Json::Obj(per_cell)),
    ])
}

fn parse_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().map(|s| s.as_str());
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v);
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = parse_flag(&args, "--jobs").and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(|| cpus.max(2));
    let out_path = parse_flag(&args, "--out").unwrap_or("BENCH_baseline.json").to_string();
    let check_path = parse_flag(&args, "--check").map(str::to_string);
    let resume = args.iter().any(|a| a == "--resume");
    let journal = match Journal::open("results/.journal/bench", resume) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("bench_baseline: warning: no checkpoint journal ({e}); running without one");
            None
        }
    };

    eprintln!("bench_baseline: {cpus} cpu(s), comparing --jobs 1 vs --jobs {jobs}");
    let groups_start = Instant::now();
    let mut figures = Vec::new();
    let (mut serial_wall, mut parallel_wall, mut serial_events) = (0.0f64, 0.0f64, 0u64);
    for group in &GROUPS {
        let key = format!("{}|jobs{}", group.name, jobs);
        let checkpoint = journal.as_ref().and_then(|j| j.load::<String>("bench", &key)).and_then(|text| pair_decode(&text));
        let resumed = checkpoint.is_some();
        let (serial, parallel) = checkpoint.unwrap_or_else(|| {
            let pair = (time_group(group, 1), time_group(group, jobs));
            if let Some(j) = &journal {
                j.store("bench", &key, &pair_encode(&pair.0, &pair.1));
            }
            pair
        });
        if resumed {
            eprintln!("  {:<12} resumed from the journal", group.name);
        }
        assert_eq!(serial.events, parallel.events, "{}: event counts must not depend on --jobs", group.name);
        eprintln!(
            "  {:<12} serial {:.3}s  --jobs {} {:.3}s  ({:.2}x, {:.0} ev/s serial)",
            group.name,
            serial.wall_s,
            jobs,
            parallel.wall_s,
            serial.wall_s / parallel.wall_s.max(1e-9),
            serial.events_per_sec(),
        );
        serial_wall += serial.wall_s;
        parallel_wall += parallel.wall_s;
        serial_events += serial.events;
        figures.push((group.name, serial, parallel));
    }
    let groups_wall_s = groups_start.elapsed().as_secs_f64();
    let speedup = serial_wall / parallel_wall.max(1e-9);
    let serial_eps = serial_events as f64 / serial_wall.max(1e-9);
    eprintln!("bench_baseline: total serial {serial_wall:.3}s, --jobs {jobs} {parallel_wall:.3}s, speedup {speedup:.2}x");

    eprintln!("bench_baseline: profiling the event mix");
    let mix_start = Instant::now();
    let mix = event_mix();
    let event_mix_wall_s = mix_start.elapsed().as_secs_f64();
    eprintln!("bench_baseline: phases — groups {groups_wall_s:.3}s, event-mix {event_mix_wall_s:.3}s");

    let report = Json::Obj(vec![
        ("cpus".to_string(), Json::Num(cpus as f64)),
        ("jobs".to_string(), Json::Num(jobs as f64)),
        (
            "figures".to_string(),
            Json::Arr(
                figures
                    .iter()
                    .map(|(name, serial, parallel)| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(name.to_string())),
                            ("serial".to_string(), serial.to_json()),
                            ("parallel".to_string(), parallel.to_json()),
                            ("speedup".to_string(), Json::Num(serial.wall_s / parallel.wall_s.max(1e-9))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "total".to_string(),
            Json::Obj(vec![
                ("serial_wall_s".to_string(), Json::Num(serial_wall)),
                ("parallel_wall_s".to_string(), Json::Num(parallel_wall)),
                ("speedup".to_string(), Json::Num(speedup)),
                ("events".to_string(), Json::Num(serial_events as f64)),
                ("serial_events_per_sec".to_string(), Json::Num(serial_eps)),
            ]),
        ),
        // Wall-clock per-phase timings (bench-level only — the sim itself
        // never reads a wall clock).
        (
            "phases".to_string(),
            Json::Obj(vec![("groups_wall_s".to_string(), Json::Num(groups_wall_s)), ("event_mix_wall_s".to_string(), Json::Num(event_mix_wall_s))]),
        ),
        ("event_mix".to_string(), mix),
    ]);
    if let Err(e) = write_atomic(Path::new(&out_path), &(report.render_pretty() + "\n")) {
        eprintln!("bench_baseline: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("bench_baseline: wrote {out_path}");

    if let Some(path) = check_path {
        let committed = match std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|t| Json::parse(&t)) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("bench_baseline: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let reference = committed.get("total").and_then(|t| t.get("serial_events_per_sec")).and_then(Json::as_f64).unwrap_or(0.0);
        // 15% regression budget: tight enough to catch the wheel backend
        // silently degrading to heap-like behavior (the wheel/heap gap is
        // well beyond 15%), loose enough for CI timing noise.
        let floor = reference * 0.85;
        if serial_eps < floor {
            eprintln!("bench_baseline: REGRESSION — serial {serial_eps:.0} ev/s < 85% of committed {reference:.0} ev/s");
            std::process::exit(1);
        }
        eprintln!("bench_baseline: ok — serial {serial_eps:.0} ev/s vs committed {reference:.0} ev/s (floor {floor:.0})");
    }
}
