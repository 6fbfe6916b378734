//! The traced run: the same setup and MCB calls with `ear_obs` enabled,
//! reading back the spans and counters the program already records.

use std::time::Instant;

use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb_with_plan, McbConfig};
use ear_obs::{EventKind, MetricsSnapshot, Trace};

use crate::inputs::Workload;
use crate::session::{mcb_inputs, setup};

/// One closed span.
struct Span {
    name: &'static str,
    dur_s: f64,
    parent: Option<&'static str>,
}

/// Closed spans of every thread, paired by each thread's span stack.
fn closed_spans(trace: &Trace) -> Vec<Span> {
    let mut out = Vec::new();
    for t in &trace.threads {
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        for e in &t.events {
            match e.kind {
                EventKind::Begin => open.push((e.name, e.ts_ns)),
                EventKind::End => {
                    let Some((name, start)) = open.pop() else {
                        continue;
                    };
                    out.push(Span {
                        name,
                        dur_s: e.ts_ns.saturating_sub(start) as f64 / 1e9,
                        parent: open.last().map(|&(p, _)| p),
                    });
                }
                EventKind::Counter => {}
            }
        }
    }
    out
}

fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_s)
        .sum()
}

/// Total time of `name` spans directly under a `parent` span.
fn total_under(spans: &[Span], name: &str, parent: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.parent == Some(parent))
        .map(|s| s.dur_s)
        .sum()
}

fn events(trace: &Trace) -> (u64, u64) {
    let recorded = trace.threads.iter().map(|t| t.events.len() as u64).sum();
    let dropped = trace.threads.iter().map(|t| t.dropped).sum();
    (recorded, dropped)
}

/// Per-layer splits of one traced setup.
pub struct TracedSetup {
    pub wall_s: f64,
    pub build_s: f64,
    pub phase2_s: f64,
    pub phase3_s: f64,
    pub ap_table_s: f64,
    pub phase2_assemble_s: f64,
    pub phase3_assemble_s: f64,
    pub hetero_run_s: f64,
    /// Executor time of the SSSP phases (phase 2 and the AP table).
    pub sssp_exec_s: f64,
    pub counters: MetricsSnapshot,
    pub events: u64,
    pub dropped: u64,
    /// Whether the thread that ran the setup lost no events, so every
    /// phase span above is whole.
    pub complete: bool,
}

/// Runs `obs` enabled around `f`, from a cleared collector.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Trace, MetricsSnapshot) {
    ear_obs::reset();
    ear_obs::enable();
    let r = f();
    ear_obs::disable();
    let trace = ear_obs::trace_snapshot();
    let metrics = ear_obs::metrics_snapshot();
    ear_obs::reset();
    (r, trace, metrics)
}

pub fn traced_setup(bytes: &[u8], exec: &HeteroExecutor) -> TracedSetup {
    let ((ready, times), trace, counters) = traced(|| {
        let _span = ear_obs::span("bench.setup");
        setup(bytes, exec)
    });
    drop(ready);
    let spans = closed_spans(&trace);
    let phase2_s = total(&spans, "apsp.phase2");
    let phase3_s = total(&spans, "apsp.phase3");
    let (events, dropped) = events(&trace);
    let complete = trace
        .threads
        .iter()
        .any(|t| t.dropped == 0 && t.events.iter().any(|e| e.name == "bench.setup"));
    TracedSetup {
        wall_s: times.total,
        build_s: total(&spans, "apsp.build"),
        phase2_s,
        phase3_s,
        ap_table_s: total(&spans, "apsp.ap_table"),
        phase2_assemble_s: phase2_s - total_under(&spans, "hetero.run", "apsp.phase2"),
        phase3_assemble_s: phase3_s - total_under(&spans, "hetero.run", "apsp.phase3"),
        hetero_run_s: total(&spans, "hetero.run"),
        sssp_exec_s: total_under(&spans, "hetero.run", "apsp.phase2")
            + total_under(&spans, "hetero.run", "apsp.ap_table"),
        counters,
        events,
        dropped,
        complete,
    }
}

/// Per-phase splits of one traced pass over the MCB graphs, per basis.
#[derive(Default)]
pub struct TracedMcb {
    pub wall_s: f64,
    pub candidates_s: f64,
    pub labels_s: f64,
    pub search_s: f64,
    pub update_s: f64,
    pub phases: u64,
    pub dropped: u64,
}

/// Traces one solve of each MCB graph, from a cleared collector each, so
/// no thread's ring overflows.
pub fn traced_mcb(w: &Workload, seed: u64) -> TracedMcb {
    let inputs = mcb_inputs(w, seed);
    let share = 1.0 / inputs.len() as f64;
    let mut out = TracedMcb::default();
    for (g, plan) in &inputs {
        let (wall_s, trace, counters) = traced(|| {
            let _s = ear_obs::span("bench.mcb");
            let t = Instant::now();
            std::hint::black_box(mcb_with_plan(g, plan, &McbConfig::default()));
            t.elapsed().as_secs_f64()
        });
        let spans = closed_spans(&trace);
        out.wall_s += wall_s * share;
        out.candidates_s += total(&spans, "mcb.candidates") * share;
        out.labels_s += total(&spans, "mcb.phase.labels") * share;
        out.search_s += total(&spans, "mcb.phase.search") * share;
        out.update_s += total(&spans, "mcb.phase.update") * share;
        out.phases += counters.counter("mcb.phases");
        out.dropped += events(&trace).1;
    }
    out
}
