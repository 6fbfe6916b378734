//! The benchmark's own reference: an edge-list parser and a binary-heap
//! Dijkstra that share no code with the program, so a bug in the
//! program's reader, `SsspEngine` or its Dial queue cannot pass.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance of an unreachable vertex.
pub const UNREACHABLE: u64 = u64::MAX;

/// An undirected multigraph as parsed from edge-list bytes.
pub struct RefGraph {
    /// `(u, v)` per edge, in file order (the program's edge ids).
    pub ends: Vec<(u32, u32)>,
    pub weights: Vec<u64>,
    /// Per vertex: `(neighbour, edge id)`.
    adj: Vec<Vec<(u32, u32)>>,
}

impl RefGraph {
    /// Parses `u v [w]` lines; `#`/`%` lines are comments.
    pub fn parse(bytes: &[u8]) -> RefGraph {
        let text = std::str::from_utf8(bytes).expect("generated edge lists are ASCII");
        let mut ends = Vec::new();
        let mut weights = Vec::new();
        let mut n = 0usize;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            let mut it = line
                .split_whitespace()
                .map(|t| t.parse::<u64>().expect("numeric field"));
            let u = it.next().expect("u") as u32;
            let v = it.next().expect("v") as u32;
            let w = it.next().unwrap_or(1);
            n = n.max(u as usize + 1).max(v as usize + 1);
            ends.push((u, v));
            weights.push(w);
        }
        let mut adj = vec![Vec::new(); n];
        for (e, &(u, v)) in ends.iter().enumerate() {
            adj[u as usize].push((v, e as u32));
            if u != v {
                adj[v as usize].push((u, e as u32));
            }
        }
        RefGraph { ends, weights, adj }
    }

    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Shortest distances from `s`.
    pub fn dijkstra(&self, s: u32) -> Vec<u64> {
        let mut dist = vec![UNREACHABLE; self.n()];
        let mut heap = BinaryHeap::new();
        dist[s as usize] = 0;
        heap.push(Reverse((0u64, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, e) in &self.adj[u as usize] {
                let nd = d.saturating_add(self.weights[e as usize]);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// Lightest edge joining `u` and `v`, if any.
    fn edge_weight(&self, u: u32, v: u32) -> Option<u64> {
        self.adj[u as usize]
            .iter()
            .filter(|&&(x, _)| x == v)
            .map(|&(_, e)| self.weights[e as usize])
            .min()
    }

    /// Whether `path` is a real `u → v` path of weight `want`, or `None`
    /// exactly when `want` is unreachable.
    pub fn path_ok(&self, u: u32, v: u32, want: u64, path: Option<&[u32]>) -> bool {
        let Some(p) = path else {
            return want == UNREACHABLE;
        };
        if want == UNREACHABLE || p.first() != Some(&u) || p.last() != Some(&v) {
            return false;
        }
        let mut total = 0u64;
        for hop in p.windows(2) {
            match self.edge_weight(hop[0], hop[1]) {
                Some(w) => total = total.saturating_add(w),
                None => return false,
            }
        }
        total == want
    }
}

/// Whether the program's distance `got` matches the reference `want`
/// (the program reports unreachable as any value at or above its `INF`).
pub fn dist_ok(got: u64, want: u64) -> bool {
    if want == UNREACHABLE {
        got >= ear_graph::INF
    } else {
        got == want
    }
}
