//! Workload definitions: every input is generated from the `--seed`
//! argument with `ear_workloads` and handed to the program as edge-list
//! bytes only.

use ear_graph::{CsrGraph, GraphBuilder, Weight};
use ear_workloads::combinators::subdivide_edges;
use ear_workloads::generators::{small_world, triangulated_grid};
use ear_workloads::{table1_specs, DatasetSpec};

/// How the query client draws endpoints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Skew {
    /// Every vertex equally likely.
    Uniform,
    /// Zipf(θ = 1) over a seeded vertex permutation: a few hot landmarks.
    Zipf,
}

/// One named workload. Sizes are fixed here; only the seed varies.
pub struct Workload {
    pub name: &'static str,
    /// The graph the APSP session serves.
    apsp_graph: fn(u64) -> CsrGraph,
    /// One graph the MCB loop solves (same family as the APSP graph).
    mcb_graph: fn(u64) -> CsrGraph,
    pub skew: Skew,
    /// Graphs solved per MCB repetition, so one graph's structure does
    /// not decide `mcb_s`.
    mcb_graphs: usize,
    /// Share of the measured seconds given to the MCB loop.
    mcb_share: f64,
    /// Wall time of one serving round and of one MCB solve, on one CPU of
    /// the host the sizes were chosen on; they turn `--seconds` into a
    /// fixed amount of work.
    round_s: f64,
    solve_s: f64,
    /// Setups per run (reported as their median).
    pub setup_reps: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "chain",
        apsp_graph: |seed| spec("as-22july06").build(CHAIN_SCALE, seed),
        mcb_graph: |seed| spec("as-22july06").build(CHAIN_MCB_SCALE, seed ^ MCB_SALT),
        skew: Skew::Uniform,
        mcb_graphs: 4,
        mcb_share: 0.3,
        round_s: 0.43,
        solve_s: 0.4,
        setup_reps: 3,
    },
    Workload {
        name: "mesh",
        apsp_graph: |seed| spec("nopoly").build(MESH_SCALE, seed),
        mcb_graph: |seed| spec("nopoly").build(MESH_MCB_SCALE, seed ^ MCB_SALT),
        skew: Skew::Uniform,
        mcb_graphs: 4,
        mcb_share: 0.25,
        round_s: 0.42,
        solve_s: 0.175,
        setup_reps: 3,
    },
    Workload {
        name: "serve",
        apsp_graph: |seed| glued_blocks(SERVE_BLOCKS, seed),
        mcb_graph: |seed| glued_blocks(SERVE_MCB_BLOCKS, seed ^ MCB_SALT),
        skew: Skew::Zipf,
        mcb_graphs: 4,
        mcb_share: 0.25,
        round_s: 0.136,
        solve_s: 0.19,
        setup_reps: 3,
    },
    Workload {
        name: "mcb",
        apsp_graph: |seed| spec("as-22july06").build(MCB_SCALE, seed),
        mcb_graph: |seed| spec("as-22july06").build(MCB_SCALE, seed ^ MCB_SALT),
        skew: Skew::Uniform,
        mcb_graphs: 4,
        mcb_share: 0.6,
        round_s: 0.145,
        solve_s: 0.83,
        setup_reps: 5,
    },
];

/// `as-22july06` analog at 1/8 of the published size (about 2.75k V).
const CHAIN_SCALE: usize = 8;
/// `as-22july06` analog for the chain workload's MCB loop.
const CHAIN_MCB_SCALE: usize = 16;
/// `nopoly` analog at 1/6 of the published size (about 1.7k V).
const MESH_SCALE: usize = 6;
/// `nopoly` analog for the mesh workload's MCB loop.
const MESH_MCB_SCALE: usize = 24;
/// Blocks glued into the serve graph.
const SERVE_BLOCKS: usize = 256;
/// Blocks glued into the serve workload's MCB graph.
const SERVE_MCB_BLOCKS: usize = 16;
/// `as-22july06` analog at 1/12 of the published size (about 1.8k V).
const MCB_SCALE: usize = 12;
/// Side of each serve block's base topology.
const BLOCK_SIDE: usize = 12;
/// Keeps each MCB graph independent of its APSP sibling.
const MCB_SALT: u64 = 0x006d_6362;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Serving rounds and MCB solves that fill about `seconds`.
    pub fn work(&self, seconds: f64) -> (usize, usize) {
        let rounds = (1.0 - self.mcb_share) * seconds / self.round_s;
        let solves = self.mcb_share * seconds / self.solve_s;
        (rounds.round() as usize, solves.round() as usize)
    }

    /// The APSP input as edge-list bytes.
    pub fn apsp_bytes(&self, seed: u64) -> Vec<u8> {
        to_bytes(&(self.apsp_graph)(seed))
    }

    /// The MCB inputs as edge-list bytes: independent graphs of one
    /// family and size.
    pub fn mcb_bytes(&self, seed: u64) -> Vec<Vec<u8>> {
        (0..self.mcb_graphs as u64)
            .map(|i| to_bytes(&(self.mcb_graph)(seed ^ (i << 48))))
            .collect()
    }
}

fn spec(name: &str) -> DatasetSpec {
    table1_specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("Table 1 spec exists")
}

fn to_bytes(g: &CsrGraph) -> Vec<u8> {
    let mut out = Vec::new();
    ear_graph::io::write_edge_list(g, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// `blocks` mesh and small-world blocks glued into a chain at
/// articulation points, each with planted degree-2 chains: block `i`'s
/// last base vertex is block `i + 1`'s vertex 0.
fn glued_blocks(blocks: usize, seed: u64) -> CsrGraph {
    let mut edges: Vec<(u32, u32, Weight)> = Vec::new();
    let mut next = 0u32;
    let mut glue: Option<u32> = None;
    for i in 0..blocks as u64 {
        let s = seed ^ (i << 32);
        let base = if i % 2 == 0 {
            triangulated_grid(BLOCK_SIDE, BLOCK_SIDE, s)
        } else {
            small_world(BLOCK_SIDE * BLOCK_SIDE, 3, 10, s)
        };
        let last_base = base.n() as u32 - 1;
        let block = subdivide_edges(&base, base.m() / 8, 2, s ^ 0xc4a1);
        let start = next;
        // Local vertex 0 is the shared articulation point; the rest are new.
        let map = |v: u32| match (v, glue) {
            (0, Some(g)) => g,
            _ => start + v - u32::from(glue.is_some()),
        };
        for e in block.edges() {
            edges.push((map(e.u), map(e.v), e.w));
        }
        next = start + block.n() as u32 - u32::from(glue.is_some());
        glue = Some(map(last_base));
    }
    let mut b = GraphBuilder::new(next as usize);
    for (u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// SplitMix64: the benchmark's own seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded endpoint sampler for both skews.
pub struct Sampler {
    n: u64,
    rng: u64,
    /// Cumulative `1/rank` mass (zipf only).
    cdf: Vec<f64>,
    /// Rank → vertex (zipf only).
    perm: Vec<u32>,
}

impl Sampler {
    pub fn new(n: usize, skew: Skew, seed: u64) -> Sampler {
        let mut rng = seed ^ 0x5a3d_1e2f;
        let (cdf, perm) = match skew {
            Skew::Uniform => (Vec::new(), Vec::new()),
            Skew::Zipf => {
                let mut acc = 0.0;
                let cdf = (0..n)
                    .map(|r| {
                        acc += 1.0 / (r + 1) as f64;
                        acc
                    })
                    .collect();
                let mut perm: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    perm.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
                }
                (cdf, perm)
            }
        };
        Sampler {
            n: n as u64,
            rng,
            cdf,
            perm,
        }
    }

    pub fn vertex(&mut self) -> u32 {
        let x = splitmix(&mut self.rng);
        match self.cdf.last() {
            None => (x % self.n) as u32,
            Some(&total) => {
                let target = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
                let rank = self.cdf.partition_point(|&c| c < target);
                self.perm[rank.min(self.perm.len() - 1)]
            }
        }
    }

    fn uniform(&mut self, bound: u64) -> u64 {
        splitmix(&mut self.rng) % bound
    }
}

/// A clustered weight update: a run of consecutive edge ids covering
/// about 0.5 % of the edges gets fresh weights in `1..=100`.
pub fn clustered_update(weights: &[Weight], rng: &mut Sampler) -> Vec<Weight> {
    let m = weights.len() as u64;
    let count = (m / 200).max(1);
    let start = rng.uniform(m);
    let mut out = weights.to_vec();
    for k in 0..count {
        let e = ((start + k) % m) as usize;
        out[e] = 1 + rng.uniform(100);
    }
    out
}
