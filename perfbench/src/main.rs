//! End-to-end, layer-by-layer benchmark of the ear-decomposition
//! APSP/MCB pipeline. See README.md for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain --seed 7 --seconds 8 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod affinity;
mod inputs;
mod reference;
mod report;
mod session;
mod traced;

use ear_hetero::HeteroExecutor;

use affinity::CpuMask;
use inputs::{Workload, WORKLOADS};
use report::{median, quantile, Metrics};
use session::Session;

/// Workloads whose traced phases must cover the traced `apsp.build`.
const COVERAGE_CHECKED: [&str; 2] = ["chain", "mesh"];
const MIN_PHASE_COVERAGE: f64 = 0.95;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or(format!("unknown workload {value}; one of {names:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(7),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // The program's `EAR_*` knobs select alternate paths; none may change
    // what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("EAR_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: unset {knobs:?}; the benchmark measures the default paths only");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pinned to one CPU before any thread exists, the program's pool
    // (sized by `available_parallelism`) has one thread, so no timing
    // depends on when a second vCPU of a shared host is free. Only the
    // traced part of `--trace 1` runs on every CPU again.
    let (all_cpus, cpu) = match pin() {
        Ok(pinned) => pinned,
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let exec = HeteroExecutor::cpu_gpu();

    let s = session::run(w, args.seed, args.seconds, &exec);
    let mut metrics = Metrics::default();
    let mut correct = s.tally.failed == s.tally.probe_failed;
    if args.trace {
        if let Err(e) = all_cpus.apply() {
            eprintln!("perfbench: cannot restore the CPU mask: {e}");
            std::process::exit(2);
        }
        correct &= per_layer(w, args.seed, &exec, &s, &mut metrics);
    } else {
        end_to_end(&s, &mut metrics);
    }

    let t = &s.tally;
    println!(
        "workload {} seed {} on cpu {cpu}: {} attempted, {} failed ({} from the self-loop probe), checksum {:#018x}",
        w.name, args.seed, t.attempted, t.failed, t.probe_failed, s.checksum
    );
    let (n, m) = s.apsp_size;
    println!(
        "inputs: {n} V / {m} E, {} blocks, {} removed; {} mcb graphs, {} V / {} E, dim {}; \
         samples: {} setups, {} p2p chunks, {} batches, {} paths, {} refreshes, {} mcb solves; \
         measured {:.1} s, of it {:.1} s mcb",
        s.blocks,
        s.removed_vertices,
        s.mcb.graphs(),
        s.mcb.vertices,
        s.mcb.edges,
        s.mcb.dim,
        s.setups.len(),
        s.query_ns.iter().map(Vec::len).sum::<usize>(),
        s.batch_ns_per_pair.len(),
        s.path_us.len(),
        s.refresh.total_ms.len(),
        s.mcb.solved,
        s.measured_s,
        s.mcb.total_s()
    );
    print!("{}", metrics.table());
    println!("{}", metrics.result_json(correct, t.attempted, t.failed));
}

/// Pins the calling (only) thread to its last allowed CPU; returns the
/// mask it had and the CPU chosen.
fn pin() -> Result<(CpuMask, usize), String> {
    let all = CpuMask::current()?;
    let (cpu, one) = all.last_cpu().ok_or("empty CPU mask")?;
    one.apply()?;
    Ok((all, cpu))
}

fn totals(s: &Session) -> Vec<f64> {
    s.setups.iter().map(|t| t.total).collect()
}

fn end_to_end(s: &Session, m: &mut Metrics) {
    let mut query: Vec<f64> = s.query_ns.concat();
    // The tail per round, then the median round: one disturbed round
    // cannot move it.
    let mut round_p99: Vec<f64> = s
        .query_ns
        .iter()
        .map(|r| quantile(&mut r.clone(), 0.99))
        .collect();
    let mut refresh = s.refresh.total_ms.clone();
    m.put("setup_s", median(&mut totals(s)), "s");
    m.put("peak_rss_bytes", s.build_peak_rss, "B");
    m.put("ready_rss_bytes", s.ready_rss, "B");
    m.put("query_ns_p50", median(&mut query), "ns");
    m.put("query_ns_p99", median(&mut round_p99), "ns");
    m.put(
        "batch_ns_per_pair",
        median(&mut s.batch_ns_per_pair.clone()),
        "ns",
    );
    m.put("path_us_p50", median(&mut s.path_us.clone()), "us");
    m.put("refresh_ms_p50", quantile(&mut refresh, 0.5), "ms");
    m.put("refresh_ms_p90", quantile(&mut refresh, 0.9), "ms");
    m.put("mcb_s", s.mcb.per_basis_s(), "s");
    m.put(
        "failed_share",
        s.tally.failed as f64 / s.tally.attempted as f64,
        "ratio",
    );
}

/// Prints every per-layer metric; returns whether the traced-run checks
/// passed.
fn per_layer(w: &Workload, seed: u64, exec: &HeteroExecutor, s: &Session, m: &mut Metrics) -> bool {
    let pick = |f: fn(&session::SetupTimes) -> f64| {
        median(&mut s.setups.iter().map(f).collect::<Vec<_>>())
    };
    // Per-unit spans land on the pool's threads here, so the setup
    // thread's ring keeps every phase span. The untraced twin of the
    // traced setups runs the same way, for the overhead ratio.
    let bytes = w.apsp_bytes(seed);
    let untraced_setup_s = median(
        &mut (0..w.setup_reps)
            .map(|_| session::setup(&bytes, exec).1.total)
            .collect::<Vec<_>>(),
    );
    let mut runs: Vec<traced::TracedSetup> = (0..w.setup_reps)
        .map(|_| traced::traced_setup(&bytes, exec))
        .collect();
    let traced_med =
        |f: fn(&traced::TracedSetup) -> f64| median(&mut runs.iter().map(f).collect::<Vec<_>>());
    let traced_setup_s = traced_med(|t| t.wall_s);
    let build_traced_s = traced_med(|t| t.build_s);
    let phase2_s = traced_med(|t| t.phase2_s);
    let phase3_s = traced_med(|t| t.phase3_s);
    let ap_table_s = traced_med(|t| t.ap_table_s);
    let phase2_assemble_s = traced_med(|t| t.phase2_assemble_s);
    let phase3_assemble_s = traced_med(|t| t.phase3_assemble_s);
    let hetero_run_s = traced_med(|t| t.hetero_run_s);
    let sssp_exec_s = traced_med(|t| t.sssp_exec_s);
    let coverage = traced_med(|t| {
        let phases = t.phase2_s + t.phase3_s + t.ap_table_s;
        if t.build_s > 0.0 {
            phases / t.build_s
        } else {
            0.0
        }
    });
    let complete = runs.iter().all(|t| t.complete);
    let last = runs.pop().expect("at least one traced setup");
    let c = &last.counters;
    let mcb = traced::traced_mcb(w, seed);

    let mut ok = complete;
    if !complete {
        eprintln!("a traced setup lost events on its own thread; its phase spans are partial");
    }
    if COVERAGE_CHECKED.contains(&w.name) && coverage < MIN_PHASE_COVERAGE {
        eprintln!("phase spans cover {coverage:.4} of apsp.build, below {MIN_PHASE_COVERAGE}");
        ok = false;
    }
    let dropped = last.dropped + mcb.dropped;
    let count = |x: u64| x as f64;
    let p50 = |v: &[f64]| median(&mut v.to_vec());

    m.put("graph.parse_s", pick(|t| t.parse), "s");
    let edges = c.counter("sssp.edges_relaxed");
    m.put("graph.sssp.edges_relaxed", count(edges), "count");
    m.put(
        "graph.sssp.settled",
        count(c.counter("sssp.settled")),
        "count",
    );
    m.put(
        "graph.sssp.heap_pushes",
        count(c.counter("sssp.heap_pushes")),
        "count",
    );
    m.put("graph.sssp.runs", count(c.counter("sssp.runs")), "count");
    m.put("graph.sssp.exec_s", sssp_exec_s, "s");
    let per_s = if sssp_exec_s > 0.0 {
        edges as f64 / sssp_exec_s
    } else {
        0.0
    };
    m.put("graph.sssp.edges_per_s", per_s, "1/s");

    m.put("decomp.plan_s", pick(|t| t.plan), "s");
    m.put("decomp.blocks", count(s.blocks as u64), "count");
    m.put(
        "decomp.removed_vertices",
        count(s.removed_vertices as u64),
        "count",
    );
    m.put("decomp.arena_bytes", count(s.arena_bytes as u64), "B");
    m.put("decomp.recustomize_ms_p50", p50(&s.refresh.plan_ms), "ms");
    m.put(
        "decomp.dirty_blocks_p50",
        p50(&s.refresh.dirty_blocks),
        "count",
    );

    m.put("hetero.units", count(c.counter("hetero.units")), "count");
    m.put(
        "hetero.batches",
        count(c.counter("hetero.batches")),
        "count",
    );
    m.put("hetero.run_s", hetero_run_s, "s");
    m.put("hetero.modelled_s", s.hetero_modelled_s, "modelled_s");

    m.put("apsp.build_s", pick(|t| t.apsp), "s");
    m.put("apsp.build_traced_s", build_traced_s, "s");
    m.put("apsp.phase2_s", phase2_s, "s");
    m.put("apsp.phase3_s", phase3_s, "s");
    m.put("apsp.ap_table_s", ap_table_s, "s");
    m.put("apsp.phase2.assemble_s", phase2_assemble_s, "s");
    m.put("apsp.phase3.assemble_s", phase3_assemble_s, "s");
    m.put("apsp.phase_coverage", coverage, "ratio");
    m.put("apsp.table_bytes", count(s.table_bytes as u64), "B");
    m.put("apsp.build_peak_rss_bytes", s.build_peak_rss, "B");
    m.put("process.peak_rss_bytes", s.run_peak_rss, "B");
    m.put(
        "apsp.peak_over_tables",
        s.build_peak_rss / s.table_bytes as f64,
        "ratio",
    );
    m.put("apsp.refresh_ms_p50", p50(&s.refresh.oracle_ms), "ms");

    m.put("query.build_s", pick(|t| t.query), "s");
    m.put("query.arena_bytes", count(s.query_arena_bytes as u64), "B");
    m.put(
        "query.gateway_records",
        count(s.gateway_records as u64),
        "count",
    );
    m.put("query.refresh_ms_p50", p50(&s.refresh.engine_ms), "ms");

    m.put("mcb.wall_traced_s", mcb.wall_s, "s");
    m.put("mcb.candidates_s", mcb.candidates_s, "s");
    m.put("mcb.labels_s", mcb.labels_s, "s");
    m.put("mcb.search_s", mcb.search_s, "s");
    m.put("mcb.update_s", mcb.update_s, "s");
    m.put("mcb.dim", count(s.mcb.dim as u64), "count");
    m.put("mcb.phases", count(mcb.phases), "count");
    m.put("mcb.removed_vertices", count(s.mcb.removed as u64), "count");
    m.put("mcb.modelled_s", s.mcb.modelled_s, "modelled_s");

    m.put("obs.setup_untraced_s", untraced_setup_s, "s");
    m.put("obs.setup_traced_s", traced_setup_s, "s");
    m.put(
        "obs.overhead_share",
        traced_setup_s / untraced_setup_s - 1.0,
        "ratio",
    );
    m.put("obs.events", count(last.events + last.dropped), "count");
    m.put("obs.dropped_events", count(dropped), "count");
    ok
}
