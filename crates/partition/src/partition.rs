//! The k-way partition data structure.

use ff_graph::{Graph, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// An assignment of every vertex to one of `num_parts` parts.
///
/// Parts are dense ids `0..num_parts`. Parts **may be empty** — the
/// fusion–fission metaheuristic deliberately drifts the live part count, so
/// emptiness is a state, not an error; [`Partition::compact`] renumbers
/// away empty parts when a caller needs dense non-empty ids.
///
/// Per-part vertex counts and vertex weights are maintained on every move,
/// so they are always O(1) reads. So is the non-empty part count: a move
/// that empties or fills a slot also updates a Fenwick tree over the part
/// slots, which lets [`Partition::nth_nonempty_part`] find the r-th
/// non-empty slot in O(log slots) instead of a slot scan.
///
/// [`Clone::clone_from`] reuses every buffer of the target and copies each
/// member list in order, so snapshotting into a kept partition allocates
/// only when the source outgrows it.
///
/// ```
/// use ff_graph::generators::path;
/// use ff_partition::Partition;
///
/// let g = path(6);
/// let mut p = Partition::block(&g, 2); // {0,1,2} | {3,4,5}
/// assert_eq!(p.part_of(1), 0);
/// assert_eq!(p.part_size(1), 3);
/// p.move_vertex(&g, 2, 1);
/// assert_eq!(p.part_size(1), 4);
/// assert!(p.validate(&g));
/// ```
#[derive(Debug)]
pub struct Partition {
    assignment: Vec<u32>,
    part_weight: Vec<f64>,
    /// Member list per part (unordered; maintained with swap-remove).
    members: Vec<Vec<VertexId>>,
    /// Index of each vertex inside its part's member list.
    pos: Vec<u32>,
    /// Number of non-empty parts.
    live: usize,
    /// Fenwick tree over part slots, counting 1 per non-empty slot. Node
    /// `j` (1-based, stored at `live_tree[j - 1]`) sums slots
    /// `j - lowbit(j) .. j`.
    live_tree: Vec<u32>,
}

impl Clone for Partition {
    fn clone(&self) -> Self {
        Partition {
            assignment: self.assignment.clone(),
            part_weight: self.part_weight.clone(),
            members: self.members.clone(),
            pos: self.pos.clone(),
            live: self.live,
            live_tree: self.live_tree.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.assignment.clone_from(&source.assignment);
        self.part_weight.clone_from(&source.part_weight);
        // Element-wise `clone_from`: each kept member list reuses its
        // buffer and receives the source's order exactly.
        self.members.clone_from(&source.members);
        self.pos.clone_from(&source.pos);
        self.live = source.live;
        self.live_tree.clone_from(&source.live_tree);
    }
}

/// Lowest set bit of a 1-based Fenwick node index.
#[inline]
fn lowbit(j: usize) -> usize {
    j & j.wrapping_neg()
}

/// Builds the Fenwick tree of non-empty slots in O(slots).
fn build_live_tree(members: &[Vec<VertexId>]) -> Vec<u32> {
    let mut tree: Vec<u32> = members.iter().map(|m| u32::from(!m.is_empty())).collect();
    for j in 1..=tree.len() {
        let parent = j + lowbit(j);
        if parent <= tree.len() {
            tree[parent - 1] += tree[j - 1];
        }
    }
    tree
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: same assignment and part count; member-list
        // internal order is an implementation detail.
        self.assignment == other.assignment && self.num_parts() == other.num_parts()
    }
}

impl Partition {
    /// Builds from an explicit assignment; `num_parts` must exceed every
    /// assigned id.
    ///
    /// # Panics
    ///
    /// Panics if any assignment id is ≥ `num_parts`.
    pub fn from_assignment(g: &Graph, assignment: Vec<u32>, num_parts: usize) -> Self {
        assert_eq!(assignment.len(), g.num_vertices(), "assignment length");
        let mut part_weight = vec![0.0f64; num_parts];
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
        let mut pos = vec![0u32; assignment.len()];
        for (v, &p) in assignment.iter().enumerate() {
            assert!(
                (p as usize) < num_parts,
                "vertex {v} assigned to part {p} ≥ {num_parts}"
            );
            part_weight[p as usize] += g.vertex_weight(v as VertexId);
            pos[v] = members[p as usize].len() as u32;
            members[p as usize].push(v as VertexId);
        }
        Partition {
            assignment,
            part_weight,
            live: members.iter().filter(|m| !m.is_empty()).count(),
            live_tree: build_live_tree(&members),
            members,
            pos,
        }
    }

    /// Contiguous block partition: the first ⌈n/k⌉ vertices in part 0, etc.
    /// This is the "Linear" scheme of Chaco's simplest mode.
    pub fn block(g: &Graph, k: usize) -> Self {
        assert!(k >= 1);
        let n = g.num_vertices();
        let assignment = (0..n)
            .map(|v| ((v * k) / n.max(1)).min(k - 1) as u32)
            .collect();
        Self::from_assignment(g, assignment, k)
    }

    /// Uniform random partition (each vertex assigned independently).
    pub fn random(g: &Graph, k: usize, seed: u64) -> Self {
        assert!(k >= 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let assignment = (0..g.num_vertices())
            .map(|_| rng.gen_range(0..k) as u32)
            .collect();
        Self::from_assignment(g, assignment, k)
    }

    /// Every vertex its own part (the fusion–fission initial state).
    pub fn singletons(g: &Graph) -> Self {
        let n = g.num_vertices();
        Self::from_assignment(g, (0..n as u32).collect(), n)
    }

    /// Number of parts, including empty ones.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.members.len()
    }

    /// Number of non-empty parts. O(1).
    #[inline]
    pub fn num_nonempty_parts(&self) -> usize {
        self.live
    }

    /// The `r`-th non-empty part (0-based), in ascending slot order.
    /// O(log slots).
    ///
    /// # Panics
    ///
    /// Panics if `r` ≥ [`Partition::num_nonempty_parts`].
    pub fn nth_nonempty_part(&self, r: usize) -> u32 {
        assert!(r < self.live, "rank {r} ≥ {} non-empty parts", self.live);
        // Binary-lifting descent: `j` ends as the longest slot prefix
        // holding at most `r` non-empty slots, so slot `j` is the answer.
        let tree = &self.live_tree;
        let mut rest = r as u32;
        let mut j = 0usize;
        let mut step = 1usize << tree.len().ilog2();
        while step > 0 {
            let next = j + step;
            if next <= tree.len() && tree[next - 1] <= rest {
                j = next;
                rest -= tree[next - 1];
            }
            step >>= 1;
        }
        j as u32
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Vertex count of part `p`.
    #[inline]
    pub fn part_size(&self, p: u32) -> usize {
        self.members[p as usize].len()
    }

    /// Vertex-weight sum of part `p`.
    #[inline]
    pub fn part_weight(&self, p: u32) -> f64 {
        self.part_weight[p as usize]
    }

    /// The raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Moves `v` to `to` (no-op when already there). O(1).
    ///
    /// # Panics
    ///
    /// Panics if `to` is not an existing part id.
    pub fn move_vertex(&mut self, g: &Graph, v: VertexId, to: u32) {
        assert!((to as usize) < self.num_parts(), "part {to} out of range");
        let from = self.assignment[v as usize];
        if from == to {
            return;
        }
        let w = g.vertex_weight(v);
        self.part_weight[from as usize] -= w;
        self.part_weight[to as usize] += w;
        // Swap-remove from the old member list, patching the swapped-in
        // vertex's position.
        let vpos = self.pos[v as usize] as usize;
        let old = &mut self.members[from as usize];
        let last = *old.last().expect("member list can't be empty here");
        old.swap_remove(vpos);
        if last != v {
            self.pos[last as usize] = vpos as u32;
        }
        if old.is_empty() {
            self.set_live(from, false);
        }
        let dest = &mut self.members[to as usize];
        self.pos[v as usize] = dest.len() as u32;
        dest.push(v);
        if dest.len() == 1 {
            self.set_live(to, true);
        }
        self.assignment[v as usize] = to;
    }

    /// Records in the live count and the live-slot tree that slot `p`
    /// just became non-empty (`filled`) or empty.
    fn set_live(&mut self, p: u32, filled: bool) {
        if filled {
            self.live += 1;
        } else {
            self.live -= 1;
        }
        let mut j = p as usize + 1;
        while j <= self.live_tree.len() {
            let node = &mut self.live_tree[j - 1];
            if filled {
                *node += 1;
            } else {
                *node -= 1;
            }
            j += lowbit(j);
        }
    }

    /// Appends a new empty part; returns its id. O(log slots).
    pub fn add_part(&mut self) -> u32 {
        self.members.push(Vec::new());
        self.part_weight.push(0.0);
        // The new node `j` sums slots `j - lowbit(j) .. j`: its own empty
        // slot plus the child nodes that tile the rest of that range.
        let j = self.members.len();
        let mut sum = 0;
        let mut c = j - 1;
        while c > j - lowbit(j) {
            sum += self.live_tree[c - 1];
            c -= lowbit(c);
        }
        self.live_tree.push(sum);
        (j - 1) as u32
    }

    /// Members of part `p`, ascending. O(s log s) for the sort; use
    /// [`Partition::part_members_unordered`] in hot paths that don't need
    /// ordering.
    pub fn part_members(&self, p: u32) -> Vec<VertexId> {
        let mut m = self.members[p as usize].clone();
        m.sort_unstable();
        m
    }

    /// Members of part `p` in internal (arbitrary but deterministic)
    /// order. O(1), no allocation.
    #[inline]
    pub fn part_members_unordered(&self, p: u32) -> &[VertexId] {
        &self.members[p as usize]
    }

    /// Renumbers parts densely, dropping empty ones. Returns the old→new
    /// id map (`u32::MAX` for dropped parts).
    pub fn compact(&mut self) -> Vec<u32> {
        let mut remap = vec![u32::MAX; self.num_parts()];
        let mut next = 0u32;
        for (p, m) in self.members.iter().enumerate() {
            if !m.is_empty() {
                remap[p] = next;
                next += 1;
            }
        }
        for a in &mut self.assignment {
            *a = remap[*a as usize];
        }
        let live = next as usize;
        let mut weight = vec![0.0; live];
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); live];
        for (p, m) in self.members.iter_mut().enumerate() {
            if remap[p] != u32::MAX {
                weight[remap[p] as usize] = self.part_weight[p];
                members[remap[p] as usize] = std::mem::take(m);
            }
        }
        self.part_weight = weight;
        self.members = members;
        self.live_tree = build_live_tree(&self.members);
        remap
    }

    /// Structural self-check (tests and debug assertions): counts, weights,
    /// the live-part count and the live-slot tree agree with the
    /// assignment.
    pub fn validate(&self, g: &Graph) -> bool {
        if self.assignment.len() != g.num_vertices() {
            return false;
        }
        let mut count = vec![0usize; self.num_parts()];
        let mut weight = vec![0.0f64; self.num_parts()];
        for (v, &p) in self.assignment.iter().enumerate() {
            if (p as usize) >= self.num_parts() {
                return false;
            }
            count[p as usize] += 1;
            weight[p as usize] += g.vertex_weight(v as VertexId);
        }
        // Member lists and position index agree with the assignment.
        for (p, m) in self.members.iter().enumerate() {
            if m.len() != count[p] {
                return false;
            }
            for (i, &v) in m.iter().enumerate() {
                if self.assignment[v as usize] != p as u32 || self.pos[v as usize] != i as u32 {
                    return false;
                }
            }
        }
        if self.live != count.iter().filter(|&&c| c > 0).count()
            || self.live_tree != build_live_tree(&self.members)
        {
            return false;
        }
        weight
            .iter()
            .zip(&self.part_weight)
            .all(|(a, b)| (a - b).abs() < 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, path};

    #[test]
    fn block_partition_sizes() {
        let g = path(10);
        let p = Partition::block(&g, 3);
        assert_eq!(p.num_parts(), 3);
        let sizes: Vec<_> = (0..3).map(|i| p.part_size(i)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)));
        assert!(p.validate(&g));
    }

    #[test]
    fn move_updates_bookkeeping() {
        let g = path(6);
        let mut p = Partition::block(&g, 2);
        let before0 = p.part_size(0);
        p.move_vertex(&g, 0, 1);
        assert_eq!(p.part_of(0), 1);
        assert_eq!(p.part_size(0), before0 - 1);
        assert!(p.validate(&g));
        // no-op move
        p.move_vertex(&g, 0, 1);
        assert!(p.validate(&g));
    }

    #[test]
    fn singletons_and_compact() {
        let g = path(5);
        let mut p = Partition::singletons(&g);
        assert_eq!(p.num_parts(), 5);
        // merge everything into part 0
        for v in 1..5 {
            p.move_vertex(&g, v, 0);
        }
        assert_eq!(p.num_nonempty_parts(), 1);
        let remap = p.compact();
        assert_eq!(p.num_parts(), 1);
        assert_eq!(remap[0], 0);
        assert!(remap[1..].iter().all(|&r| r == u32::MAX));
        assert!(p.validate(&g));
    }

    #[test]
    fn add_part_grows() {
        let g = path(4);
        let mut p = Partition::block(&g, 2);
        let new = p.add_part();
        assert_eq!(new, 2);
        p.move_vertex(&g, 3, new);
        assert_eq!(p.part_size(new), 1);
        assert!(p.validate(&g));
    }

    #[test]
    fn random_is_deterministic() {
        let g = grid2d(5, 5);
        let a = Partition::random(&g, 4, 9);
        let b = Partition::random(&g, 4, 9);
        assert_eq!(a, b);
        let c = Partition::random(&g, 4, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn part_members_lists() {
        let g = path(6);
        let p = Partition::block(&g, 2);
        assert_eq!(p.part_members(0), vec![0, 1, 2]);
        assert_eq!(p.part_members(1), vec![3, 4, 5]);
    }

    #[test]
    fn part_weight_tracks_vertex_weights() {
        let mut b = ff_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.set_vertex_weight(2, 10.0);
        let g = b.build();
        let p = Partition::from_assignment(&g, vec![0, 0, 1], 2);
        assert_eq!(p.part_weight(0), 2.0);
        assert_eq!(p.part_weight(1), 10.0);
    }

    #[test]
    fn clone_from_copies_member_order_into_any_slot_count() {
        let g = grid2d(4, 4);
        let mut src = Partition::random(&g, 5, 3);
        // Scramble member order away from ascending, and empty a slot.
        for (v, to) in [(0, 4), (15, 0), (7, 2), (3, 1), (12, 4)] {
            src.move_vertex(&g, v, to);
        }
        for v in src.part_members(3) {
            src.move_vertex(&g, v, 1);
        }
        assert!(src.num_nonempty_parts() < src.num_parts());
        let targets = [
            Partition::singletons(&g), // more slots
            Partition::block(&g, 2),   // fewer slots
            Partition::random(&g, 5, 8),
        ];
        for mut dst in targets {
            dst.clone_from(&src);
            assert_eq!(dst, src);
            assert!(dst.validate(&g));
            for p in 0..src.num_parts() as u32 {
                assert_eq!(dst.part_members_unordered(p), src.part_members_unordered(p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn move_to_missing_part_panics() {
        let g = path(3);
        let mut p = Partition::block(&g, 2);
        p.move_vertex(&g, 0, 7);
    }
}
