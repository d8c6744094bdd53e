//! A fixed reference computation that gauges the host's speed.
//!
//! On a shared host the same code runs up to a third slower or faster
//! for seconds to minutes at a time, which no run length averages out.
//! So the designer times one pass of this computation, which calls no
//! program code, once per cycle before its REFRESH, and the run reports each
//! segment's times scaled by [`NOMINAL_MS`] over the median pass of that
//! segment: milliseconds at the host speed at which a pass takes
//! `NOMINAL_MS`. A pass mixes the work the O(KB) operations do
//! (allocating, hashing and sorting small records) with random reads
//! over a 16 MB table, so both allocation-heavy and memory-bound
//! slowdowns show in it. The raw times go to stderr.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds a pass takes at the speed times are reported at: the
/// median pass on the two-vCPU Xeon VM the baseline in `NOTES.md` was
/// measured on.
pub const NOMINAL_MS: f64 = 24.0;

/// Nodes of the random graph a pass hashes.
const NODES: u32 = 1 << 15;
/// Slots of the random cycle a pass chases (4 bytes each).
const TABLE: usize = 1 << 22;
/// Resident size of that table, in MB (2^20 bytes).
pub const TABLE_MB: f64 = (TABLE * 4) as f64 / (1 << 20) as f64;
/// Reads per pass along the cycle.
const STEPS: usize = 30_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The reference, with its random cycle built once.
pub struct Reference {
    next: Vec<u32>,
    at: u32,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the table: one random cycle through every slot
    /// (Sattolo's shuffle).
    pub fn new() -> Reference {
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut st = 11;
        for i in (1..TABLE).rev() {
            let j = (splitmix(&mut st) % i as u64) as usize;
            next.swap(i, j);
        }
        Reference { next, at: 0 }
    }

    /// Times one pass, in milliseconds.
    pub fn pass_ms(&mut self) -> f64 {
        let started = Instant::now();
        black_box(hash_walk_sort());
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// Builds a hashed adjacency over random edges, walks three hops from
/// a few roots, sorts the edges; returns a checksum.
fn hash_walk_sort() -> u64 {
    let mut st = 7;
    let mut edges: Vec<(u32, u32)> = (0..NODES * 4)
        .map(|_| {
            let r = splitmix(&mut st);
            ((r as u32) % NODES, ((r >> 32) as u32) % NODES)
        })
        .collect();
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in &edges {
        adj.entry(a).or_default().push(b);
    }
    let mut seen = HashSet::new();
    for root in 0..16 {
        let mut frontier = vec![root];
        for _ in 0..3 {
            let mut next = Vec::new();
            for n in frontier {
                for &m in adj.get(&n).into_iter().flatten() {
                    if seen.insert(m) {
                        next.push(m);
                    }
                }
            }
            frontier = next;
        }
    }
    edges.sort_unstable();
    u64::from(edges[edges.len() / 2].0) + seen.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_deterministic_and_timed() {
        assert_eq!(hash_walk_sort(), hash_walk_sort());
        let mut r = Reference::new();
        assert!(r.pass_ms() > 0.0);
    }
}
