//! One untraced session: cold setups from bytes, correctness checks, the
//! known-defect probe, then the measured closed loop (weight refresh plus
//! query burst per round) and the MCB loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ear_apsp::{build_oracle_with_plan, ApspMethod, DistanceOracle, QueryEngine, QueryScratch};
use ear_decomp::DecompPlan;
use ear_graph::{CsrGraph, Weight};
use ear_hetero::HeteroExecutor;
use ear_mcb::{mcb_with_plan, verify_basis, McbConfig};

use crate::inputs::{clustered_update, Sampler, Workload};
use crate::reference::{dist_ok, RefGraph};
use crate::report::{median, proc_status_bytes, Checksum};

/// p2p queries per timed chunk.
const CHUNK: usize = 64;
/// Timed p2p chunks per round.
const CHUNKS_PER_ROUND: usize = 1024;
/// Sources and targets of one batch query.
const BATCH_SIDE: usize = 32;
const BATCHES_PER_ROUND: usize = 16;
const PATHS_PER_ROUND: usize = 64;
/// Sources whose reference rows are compared against every target.
const CHECKED_SOURCES: usize = 8;
/// Sampled `path` results checked after setup.
const CHECKED_PATHS: usize = 64;
/// Floors that keep every quantile meaningful at small `--seconds`.
const MIN_ROUNDS: usize = 5;
const MIN_SOLVES_PER_GRAPH: usize = 3;

/// ROADMAP's self-loop repros: a self-loop inside a triangle, and one on
/// a vertex attached by a bridge.
const PROBES: [&[u8]; 2] = [
    b"0 1 2\n1 2 1\n2 0 1\n0 0 1\n",
    b"0 1 2\n1 2 1\n2 0 1\n2 3 1\n3 3 4\n",
];

/// Everything a serving process holds once it can answer queries.
pub struct Ready {
    pub graph: CsrGraph,
    pub plan: Arc<DecompPlan>,
    pub oracle: DistanceOracle,
    pub engine: QueryEngine,
}

/// Wall time of each layer call of one setup, in seconds.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    pub parse: f64,
    pub plan: f64,
    pub apsp: f64,
    pub query: f64,
    pub total: f64,
}

/// Edge-list bytes → ready `QueryEngine`, through the default entry
/// point of every layer.
pub fn setup(bytes: &[u8], exec: &HeteroExecutor) -> (Ready, SetupTimes) {
    // The `bench.*` spans are inert unless the traced run enabled obs.
    let t0 = Instant::now();
    let graph = {
        let _s = ear_obs::span("bench.read_edge_list");
        ear_graph::io::read_edge_list(bytes, 0).expect("generated input parses")
    };
    let t1 = Instant::now();
    let plan = {
        let _s = ear_obs::span("bench.plan");
        Arc::new(DecompPlan::build(&graph))
    };
    let t2 = Instant::now();
    let oracle = {
        let _s = ear_obs::span("bench.oracle");
        build_oracle_with_plan(Arc::clone(&plan), exec, ApspMethod::Ear)
    };
    let t3 = Instant::now();
    let engine = {
        let _s = ear_obs::span("bench.engine");
        QueryEngine::new(&oracle)
    };
    let t4 = Instant::now();
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = SetupTimes {
        parse: s(t0, t1),
        plan: s(t1, t2),
        apsp: s(t2, t3),
        query: s(t3, t4),
        total: s(t0, t4),
    };
    let ready = Ready {
        graph,
        plan,
        oracle,
        engine,
    };
    (ready, times)
}

/// Operations attempted and failed: checked answers, builds, refreshes
/// and bases. Failures are errors, panics and wrong answers.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The share of `failed` that comes from the known-defect probe.
    pub probe_failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    fn probe(&mut self, ok: bool) {
        self.probe_failed += u64::from(!self.check(ok));
    }
}

/// Per-refresh wall times (ms) of each layer and the dirty-block count.
#[derive(Default)]
pub struct Refreshes {
    pub total_ms: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub oracle_ms: Vec<f64>,
    pub engine_ms: Vec<f64>,
    pub dirty_blocks: Vec<f64>,
}

/// What one session measured.
pub struct Session {
    /// Wall time of the measured loop (rounds and MCB solves).
    pub measured_s: f64,
    pub setups: Vec<SetupTimes>,
    pub ready_rss: f64,
    /// `VmHWM` once the setups are done: the peak of a cold build.
    pub build_peak_rss: f64,
    /// `VmHWM` when the session ends, refreshes and MCB included.
    pub run_peak_rss: f64,
    /// Per round: the per-query time of each timed chunk.
    pub query_ns: Vec<Vec<f64>>,
    pub batch_ns_per_pair: Vec<f64>,
    pub path_us: Vec<f64>,
    pub refresh: Refreshes,
    pub mcb: McbLoop,
    /// `(n, m)` of the APSP input.
    pub apsp_size: (usize, usize),
    pub blocks: usize,
    pub removed_vertices: usize,
    pub arena_bytes: usize,
    pub table_bytes: usize,
    pub query_arena_bytes: usize,
    pub gateway_records: usize,
    pub hetero_modelled_s: f64,
    pub tally: Tally,
    pub checksum: u64,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, exec: &HeteroExecutor) -> Session {
    let bytes = w.apsp_bytes(seed);
    let mut reference = RefGraph::parse(&bytes);
    let mut tally = Tally::default();
    let mut sum = Checksum::new();
    let mut rng = Sampler::new(reference.n(), w.skew, seed);

    probe(&mut tally, exec);

    // Cold setups. Only the last one is kept, so each starts from the
    // same live heap and the peak is one setup's peak.
    let mut setups = Vec::new();
    let mut ready_rss = 0.0;
    let mut kept = None;
    for rep in 0..w.setup_reps {
        let (ready, times) = setup(&bytes, exec);
        tally.check(same_graph(&ready.graph, &reference));
        setups.push(times);
        if rep == 0 {
            ready_rss = proc_status_bytes("VmRSS");
        }
        if rep + 1 == w.setup_reps {
            kept = Some(ready);
        }
    }
    let mut ready = kept.expect("at least one setup");
    let build_peak_rss = proc_status_bytes("VmHWM");
    let tables = ready
        .oracle
        .block_tables()
        .iter()
        .map(|t| t.data().len())
        .sum::<usize>()
        + ready.oracle.ap_table().data().len();
    let hetero_modelled_s = ready.oracle.processing.makespan_s + ready.oracle.ap_phase.makespan_s;

    // Every target of a seeded sample of sources, then sampled paths.
    for _ in 0..CHECKED_SOURCES {
        check_row(&ready, &reference, rng.vertex(), &mut tally);
    }
    for _ in 0..CHECKED_PATHS {
        check_path(&ready, &reference, rng.vertex(), rng.vertex(), &mut tally);
    }

    // The measured closed loop: one client, each call issued when the
    // previous one returns. MCB solves are spread evenly between the
    // serving rounds, so every metric samples the whole run. The work is
    // fixed by the seed and `seconds` (not by the clock), so every run of
    // a seed checks the same answers.
    let (rounds, solves) = w.work(seconds);
    let rounds = rounds.max(MIN_ROUNDS);
    let mut mcb = McbLoop::new(w, seed);
    let solves = solves.max(MIN_SOLVES_PER_GRAPH * mcb.inputs.len());
    let mut refresh = Refreshes::default();
    let mut query_ns = Vec::new();
    let mut batch_ns_per_pair = Vec::new();
    let mut path_us = Vec::new();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut pairs = vec![(0u32, 0u32); CHUNK * CHUNKS_PER_ROUND];
    let start = Instant::now();
    for round in 0..rounds {
        let weights = clustered_update(&reference.weights, &mut rng);
        ready = refresh_round(ready, &weights, exec, &mut refresh);
        reference.weights = weights;
        let ok = check_row(&ready, &reference, rng.vertex(), &mut tally)
            & check_path(&ready, &reference, rng.vertex(), rng.vertex(), &mut tally);
        tally.check(ok);

        for p in pairs.iter_mut() {
            *p = (rng.vertex(), rng.vertex());
        }
        let mut chunk_ns = Vec::with_capacity(CHUNKS_PER_ROUND);
        for chunk in pairs.chunks(CHUNK) {
            let t = Instant::now();
            for &(u, v) in chunk {
                sum.fold(ready.engine.dist(u, v));
            }
            chunk_ns.push(t.elapsed().as_nanos() as f64 / CHUNK as f64);
        }
        query_ns.push(chunk_ns);
        for _ in 0..BATCHES_PER_ROUND {
            let srcs: Vec<u32> = (0..BATCH_SIDE).map(|_| rng.vertex()).collect();
            let dsts: Vec<u32> = (0..BATCH_SIDE).map(|_| rng.vertex()).collect();
            let t = Instant::now();
            ready
                .engine
                .dist_batch_into(&srcs, &dsts, &mut scratch, &mut out);
            let ns = t.elapsed().as_nanos() as f64;
            batch_ns_per_pair.push(ns / (BATCH_SIDE * BATCH_SIDE) as f64);
            out.iter().for_each(|&d| sum.fold(d));
        }
        for _ in 0..PATHS_PER_ROUND {
            let (u, v) = (rng.vertex(), rng.vertex());
            let t = Instant::now();
            let p = ready.engine.path(&ready.graph, u, v);
            path_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            sum.fold(p.map_or(u64::MAX, |p| p.len() as u64));
        }

        while mcb.solved < solves * (round + 1) / rounds {
            mcb.solve_next(&mut tally, &mut sum);
        }
    }

    Session {
        measured_s: start.elapsed().as_secs_f64(),
        setups,
        ready_rss,
        build_peak_rss,
        run_peak_rss: proc_status_bytes("VmHWM"),
        query_ns,
        batch_ns_per_pair,
        path_us,
        refresh,
        mcb,
        apsp_size: (ready.graph.n(), ready.graph.m()),
        blocks: ready.plan.n_blocks(),
        removed_vertices: ready.plan.removed_vertices(),
        arena_bytes: ready.plan.arena_bytes(),
        table_bytes: tables * std::mem::size_of::<Weight>(),
        query_arena_bytes: ready.engine.arena_entries() * std::mem::size_of::<Weight>(),
        gateway_records: ready.engine.gateway_records(),
        hetero_modelled_s,
        tally,
        checksum: sum.value(),
    }
}

/// The MCB graphs of a workload, solved in turn: bytes → plan untimed,
/// `mcb_with_plan` timed, each graph's first basis verified and every
/// later one compared with it.
pub struct McbLoop {
    inputs: Vec<(CsrGraph, DecompPlan)>,
    /// Per graph: wall time of each solve.
    samples: Vec<Vec<f64>>,
    /// Per graph: `(dim, total weight)` of its verified basis.
    first: Vec<Option<(usize, Weight)>>,
    pub solved: usize,
    /// Totals over the graphs.
    pub vertices: usize,
    pub edges: usize,
    pub dim: usize,
    pub removed: usize,
    /// Mean modelled device time per basis.
    pub modelled_s: f64,
}

/// The workload's MCB graphs, read from their bytes, with their plans.
pub fn mcb_inputs(w: &Workload, seed: u64) -> Vec<(CsrGraph, DecompPlan)> {
    w.mcb_bytes(seed)
        .iter()
        .map(|b| {
            let g = ear_graph::io::read_edge_list(&b[..], 0).expect("generated input parses");
            let plan = DecompPlan::build(&g);
            (g, plan)
        })
        .collect()
}

impl McbLoop {
    fn new(w: &Workload, seed: u64) -> McbLoop {
        let inputs = mcb_inputs(w, seed);
        McbLoop {
            samples: vec![Vec::new(); inputs.len()],
            first: vec![None; inputs.len()],
            solved: 0,
            vertices: inputs.iter().map(|(g, _)| g.n()).sum(),
            edges: inputs.iter().map(|(g, _)| g.m()).sum(),
            dim: 0,
            removed: 0,
            modelled_s: 0.0,
            inputs,
        }
    }

    fn solve_next(&mut self, tally: &mut Tally, sum: &mut Checksum) {
        let i = self.solved % self.inputs.len();
        self.solved += 1;
        let (g, plan) = &self.inputs[i];
        let t = Instant::now();
        let basis = mcb_with_plan(g, plan, &McbConfig::default());
        self.samples[i].push(t.elapsed().as_secs_f64());
        sum.fold(basis.total_weight);
        if let Some(want) = self.first[i] {
            tally.check((basis.dim, basis.total_weight) == want);
            return;
        }
        let verdict = verify_basis(g, &basis.cycles);
        if let Err(e) = &verdict {
            eprintln!("mcb: basis rejected: {e}");
        }
        tally.check(verdict.is_ok() && basis.dim == basis.cycles.len());
        self.first[i] = Some((basis.dim, basis.total_weight));
        self.dim += basis.dim;
        self.removed += basis.removed_vertices;
        self.modelled_s += basis.profile.total_s() / self.inputs.len() as f64;
    }

    /// Wall time of all solves.
    pub fn total_s(&self) -> f64 {
        self.samples.iter().flatten().sum()
    }

    pub fn graphs(&self) -> usize {
        self.inputs.len()
    }

    /// Wall time per basis: the mean over the graphs of each graph's
    /// median solve, so neither one slow solve nor one unusual graph
    /// decides it.
    pub fn per_basis_s(&self) -> f64 {
        let medians: f64 = self.samples.iter().map(|s| median(&mut s.clone())).sum();
        medians / self.inputs.len() as f64
    }
}

/// One weight update → refreshed plan, oracle and engine.
fn refresh_round(
    ready: Ready,
    weights: &[Weight],
    exec: &HeteroExecutor,
    log: &mut Refreshes,
) -> Ready {
    let t0 = Instant::now();
    let plan = Arc::new(ready.plan.recustomized(weights));
    let t1 = Instant::now();
    let oracle = ready.oracle.recustomized(Arc::clone(&plan), exec);
    let t2 = Instant::now();
    let engine = ready.engine.recustomized(&oracle);
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    log.total_ms.push(ms(t0, t3));
    log.plan_ms.push(ms(t0, t1));
    log.oracle_ms.push(ms(t1, t2));
    log.engine_ms.push(ms(t2, t3));
    log.dirty_blocks.push(plan.dirty_blocks().len() as f64);
    Ready {
        graph: ready.graph.reweighted(weights),
        plan,
        oracle,
        engine,
    }
}

/// Whether the program read exactly the edges the reference parsed.
fn same_graph(g: &CsrGraph, reference: &RefGraph) -> bool {
    g.n() == reference.n()
        && g.m() == reference.ends.len()
        && g.edges()
            .iter()
            .zip(&reference.ends)
            .zip(&reference.weights)
            .all(|((e, &(u, v)), &w)| e.w == w && ((e.u, e.v) == (u, v) || (e.v, e.u) == (u, v)))
}

/// Compares every target of source `s` with the reference row.
fn check_row(ready: &Ready, reference: &RefGraph, s: u32, tally: &mut Tally) -> bool {
    let want = reference.dijkstra(s);
    let mut all = true;
    for (t, &d) in want.iter().enumerate() {
        all &= tally.check(dist_ok(ready.engine.dist(s, t as u32), d));
    }
    all
}

fn check_path(ready: &Ready, reference: &RefGraph, u: u32, v: u32, tally: &mut Tally) -> bool {
    let want = reference.dijkstra(u)[v as usize];
    let path = ready.engine.path(&ready.graph, u, v);
    tally.check(reference.path_ok(u, v, want, path.as_deref()))
}

/// Runs both self-loop repros through the same public path as the
/// workload and counts every wrong answer; they are never filtered out.
fn probe(tally: &mut Tally, exec: &HeteroExecutor) {
    for bytes in PROBES {
        let reference = RefGraph::parse(bytes);
        let built = catch_unwind(AssertUnwindSafe(|| setup(bytes, exec).0));
        tally.probe(built.is_ok());
        let Ok(ready) = built else { continue };
        for u in 0..reference.n() as u32 {
            let want = reference.dijkstra(u);
            for v in 0..reference.n() as u32 {
                if u == v {
                    continue;
                }
                let answers = catch_unwind(AssertUnwindSafe(|| {
                    let d = ready.engine.dist(u, v);
                    let p = ready.engine.path(&ready.graph, u, v);
                    (d, p)
                }));
                match answers {
                    Ok((d, p)) => {
                        tally.probe(dist_ok(d, want[v as usize]));
                        tally.probe(reference.path_ok(u, v, want[v as usize], p.as_deref()));
                    }
                    Err(_) => {
                        tally.probe(false);
                        tally.probe(false);
                    }
                }
            }
        }
    }
}
