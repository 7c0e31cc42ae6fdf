//! Input generation. Every input is a pure function of the workload seed
//! (the paper's FABOP instance and the multilevel pin graph are fixed
//! instances; the seed then picks the solver seeds and request streams).
//! The program under test receives inputs the way a user hands them
//! over: as METIS text, parsed by `ff_graph::io::read_metis`.

use ff_graph::Graph;
use std::fmt::Write as _;

/// SplitMix64 step; the benchmark's only source of randomness.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed stream for one purpose (`salt`) of one workload seed.
pub struct Seeds(u64);

impl Seeds {
    pub fn new(seed: u64, salt: u64) -> Seeds {
        let mut s = seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
        mix(&mut s);
        Seeds(s)
    }

    /// The next 32-bit seed. Seeds stay below 2^53 so they survive the
    /// JSON wire format unchanged.
    pub fn next_seed(&mut self) -> u64 {
        mix(&mut self.0) >> 32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        mix(&mut self.0) % n
    }
}

/// METIS text of `g`.
pub fn metis_text(g: &Graph) -> String {
    let mut out = Vec::new();
    ff_graph::io::write_metis(g, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("METIS writer emits ASCII")
}

/// The program's load path: parse METIS text into a graph.
pub fn parse(text: &str) -> Result<Graph, String> {
    ff_graph::io::read_metis(text.as_bytes()).map_err(|e| format!("METIS parse: {e}"))
}

/// The paper's FABOP instance (762 sectors, 3,165 flows) as METIS text.
pub fn fabop_text() -> String {
    let inst = ff_atc::FabopInstance::paper_scale(&ff_atc::FabopConfig::default());
    metis_text(&inst.graph)
}

/// `planted_partition_sparse` with 254 groups of 24 vertices (n = 6,096),
/// drawn from the workload seed.
pub fn planted_text(seed: u64) -> String {
    let mut s = Seeds::new(seed, 3);
    let g = ff_graph::generators::planted_partition_sparse(254, 24, 0.25, 3e-4, s.next_seed());
    metis_text(&g)
}

/// The CI multilevel pin graph: `mlscale gen` defaults (100 groups of
/// 1,000 vertices, p_in 0.008, p_out 2e-5, generator seed 1).
pub fn mlscale_text() -> String {
    let g = ff_graph::generators::planted_partition_sparse(100, 1000, 0.008, 2e-5, 1);
    metis_text(&g)
}

/// The 3×3 grid of the pinned served job (k = 2, Mcut, 20,000 steps,
/// seed 7 → 0.964286).
pub const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";

/// A weighted ring lattice (each vertex joined to the next two) with
/// edge weights drawn from `seed`: every instance has the same vertex
/// and edge count, hence the same cache footprint, and distinct content.
pub fn ring_text(n: usize, seed: u64) -> String {
    let mut s = Seeds::new(seed, 5);
    // w[i][d]: weight of edge {i, i+d+1}.
    let w: Vec<[u64; 2]> = (0..n).map(|_| [1 + s.below(9), 1 + s.below(9)]).collect();
    let mut text = format!("{n} {} 001\n", 2 * n);
    for v in 0..n {
        let mut nbrs = [
            ((v + 1) % n, w[v][0]),
            ((v + 2) % n, w[v][1]),
            ((v + n - 1) % n, w[(v + n - 1) % n][0]),
            ((v + n - 2) % n, w[(v + n - 2) % n][1]),
        ];
        nbrs.sort_unstable();
        for (u, wt) in nbrs {
            let _ = write!(text, "{} {wt} ", u + 1);
        }
        text.push('\n');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_instances_parse_with_a_fixed_footprint() {
        let a = parse(&ring_text(200, 1)).unwrap();
        let b = parse(&ring_text(200, 2)).unwrap();
        assert_eq!(a.num_vertices(), 200);
        assert_eq!(a.num_edges(), 400);
        assert_eq!(a.csr_bytes(), b.csr_bytes());
        assert_ne!(ring_text(200, 1), ring_text(200, 2));
    }

    #[test]
    fn seed_streams_are_reproducible_and_wire_safe() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut s = Seeds::new(9, 1);
                move |_| s.next_seed()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut s = Seeds::new(9, 1);
                move |_| s.next_seed()
            })
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 1 << 32));
    }
}
