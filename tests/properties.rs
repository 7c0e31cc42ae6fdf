//! Cross-crate property-based tests: the invariants the whole suite rests
//! on, exercised with randomly generated graphs and operation sequences.

use ff_graph::{coarsen, heavy_edge_matching, GraphBuilder};
use fusionfission::graph::Graph;
use fusionfission::metaheur::StopCondition;
use fusionfission::prelude::*;
use proptest::prelude::*;

/// Strategy: a connected-ish random weighted graph with 4–40 vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        // random spanning tree for connectivity
        for v in 1..n {
            let u = rng.gen_range(0..v);
            b.add_edge(u as u32, v as u32, rng.gen_range(0.5..4.0));
        }
        // extra random edges
        let extra = rng.gen_range(0..(2 * n));
        for _ in 0..extra {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                b.add_edge(u, v, rng.gen_range(0.1..5.0));
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_objectives_match_fresh_evaluation(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = rng.gen_range(2..5usize);
        let p = Partition::random(&g, k, seed);
        let mut st = fusionfission::partition::CutState::new(&g, p);
        for _ in 0..60 {
            let v = rng.gen_range(0..g.num_vertices()) as u32;
            let to = rng.gen_range(0..k) as u32;
            st.move_vertex(v, to);
        }
        prop_assert!(st.drift() < 1e-7, "drift = {}", st.drift());
        for obj in Objective::all() {
            let incremental = st.objective(obj);
            let fresh = obj.evaluate(&g, st.partition());
            prop_assert!(
                (incremental - fresh).abs() < 1e-7
                    || (incremental.is_infinite() && fresh.is_infinite()),
                "{obj}: {incremental} vs {fresh}"
            );
        }
    }

    /// `CutState::move_delta` must agree with a full `Objective::evaluate`
    /// re-scoring after the move, for all three objectives — the
    /// incremental hot path every metaheuristic (and the `ff-engine`
    /// ensemble on top of them) trusts on every step.
    #[test]
    fn move_delta_agrees_with_full_rescoring(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = rng.gen_range(2..5usize);
        let mut st = fusionfission::partition::CutState::new(
            &g,
            Partition::random(&g, k, seed),
        );
        for _ in 0..40 {
            let v = rng.gen_range(0..g.num_vertices()) as u32;
            let to = rng.gen_range(0..k) as u32;
            let before: Vec<f64> = Objective::all()
                .iter()
                .map(|obj| obj.evaluate(&g, st.partition()))
                .collect();
            let deltas: Vec<f64> = Objective::all()
                .iter()
                .map(|obj| st.move_delta(*obj, v, to))
                .collect();
            st.move_vertex(v, to);
            for (obj, (b, d)) in Objective::all()
                .iter()
                .zip(before.iter().zip(deltas.iter()))
            {
                let after = obj.evaluate(&g, st.partition());
                // Infinities (hollow parts under Mcut) make the global
                // difference meaningless (∞−∞); the finite regime is the
                // hot path the metaheuristics rely on.
                if b.is_finite() && d.is_finite() && after.is_finite() {
                    prop_assert!(
                        ((after - b) - d).abs() < 1e-7,
                        "{obj}: predicted delta {d}, actual {}",
                        after - b
                    );
                }
            }
        }
    }

    /// The live-part count and the live-slot tree behind
    /// `nth_nonempty_part` must track every `move_vertex`, `add_part` and
    /// `compact`: fusion–fission's live-atom pick reads them every step.
    #[test]
    fn live_part_index_matches_a_slot_scan(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = g.num_vertices();
        let mut p = Partition::random(&g, rng.gen_range(1..=n), seed);
        for _ in 0..60 {
            match rng.gen_range(0..10) {
                0 => {
                    p.add_part();
                }
                1 => {
                    p.compact();
                }
                _ => {
                    let v = rng.gen_range(0..n) as u32;
                    let to = rng.gen_range(0..p.num_parts()) as u32;
                    p.move_vertex(&g, v, to);
                }
            }
            let live: Vec<u32> = (0..p.num_parts() as u32)
                .filter(|&q| p.part_size(q) > 0)
                .collect();
            prop_assert_eq!(p.num_nonempty_parts(), live.len());
            for (r, &q) in live.iter().enumerate() {
                prop_assert_eq!(p.nth_nonempty_part(r), q);
            }
            prop_assert!(p.validate(&g));
        }
    }

    #[test]
    fn coarsening_preserves_weight_invariants(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let m = heavy_edge_matching(&g, seed);
        let c = coarsen(&g, &m);
        prop_assert!(
            (c.graph.total_vertex_weight() - g.total_vertex_weight()).abs() < 1e-9
        );
        prop_assert!(c.graph.total_edge_weight() <= g.total_edge_weight() + 1e-9);
        // projection is a total surjective map
        let nc = c.graph.num_vertices();
        let mut seen = vec![false; nc];
        for &cv in &c.fine_to_coarse {
            prop_assert!((cv as usize) < nc);
            seen[cv as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// The full coarsening hierarchy (not just one level) conserves total
    /// vertex weight exactly, never grows total edge weight, and strictly
    /// shrinks the graph at every level — the invariants the multilevel
    /// V-cycle's "solve coarse, project fine" logic rests on.
    #[test]
    fn hierarchy_preserves_weights_at_every_level(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use ff_graph::Hierarchy;
        let target = (g.num_vertices() / 4).max(2);
        let h = Hierarchy::build(&g, target, seed);
        let mut prev_n = g.num_vertices();
        for level in h.levels() {
            let c = &level.graph;
            prop_assert!(
                (c.total_vertex_weight() - g.total_vertex_weight()).abs() < 1e-9,
                "vertex weight drifted at a level"
            );
            prop_assert!(c.total_edge_weight() <= g.total_edge_weight() + 1e-9);
            prop_assert!(c.num_vertices() < prev_n, "coarsening must shrink");
            prev_n = c.num_vertices();
        }
    }

    /// Projecting a coarse partition down the whole hierarchy preserves
    /// the Cut objective *exactly*: merged vertices share a part, so every
    /// cut edge of the fine partition maps to coarse cut weight and vice
    /// versa. (NCut/MCut renormalize by level-dependent volumes, so only
    /// Cut admits this bitwise-style identity.)
    #[test]
    fn projection_round_trips_the_cut_objective(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use ff_graph::Hierarchy;
        let target = (g.num_vertices() / 4).max(2);
        let h = Hierarchy::build(&g, target, seed);
        let coarsest = h.coarsest(&g);
        let k = 2 + (seed % 3) as usize;
        if k > coarsest.num_vertices() {
            return Ok(());
        }
        let coarse = Partition::random(coarsest, k, seed ^ 0x9e37);
        let coarse_cut = Objective::Cut.evaluate(coarsest, &coarse);
        let fine_asg = h.project_to_finest(coarse.assignment());
        let fine = Partition::from_assignment(&g, fine_asg, k);
        let fine_cut = Objective::Cut.evaluate(&g, &fine);
        prop_assert!(
            (fine_cut - coarse_cut).abs() <= 1e-9 * (1.0 + coarse_cut.abs()),
            "cut changed under projection: coarse {coarse_cut} vs fine {fine_cut}"
        );
    }

    /// The V-cycle driver refines monotonically at every level, under
    /// every objective, and lands on a partition whose incremental value
    /// matches a fresh evaluation on the finest graph.
    #[test]
    fn vcycle_refine_up_is_monotone_for_all_objectives(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use fusionfission::multilevel::{Vcycle, VcycleOpts};
        let opts = VcycleOpts {
            coarsen_until: (g.num_vertices() / 3).max(2),
            refine_passes: 4,
            seed,
            min_coarse_vertices: 2,
        };
        let vc = Vcycle::new(&g, opts);
        let k = 2 + (seed % 3) as usize;
        if k > vc.coarsest().num_vertices() {
            return Ok(());
        }
        let coarse = Partition::random(vc.coarsest(), k, seed);
        for obj in Objective::all() {
            let start = obj.evaluate(vc.coarsest(), &coarse);
            let (refined, reports) = vc.refine_up(&coarse, obj);
            prop_assert_eq!(refined.num_vertices(), g.num_vertices());
            for r in &reports {
                prop_assert!(
                    r.value_after <= r.value_before + 1e-9,
                    "refinement worsened level {}: {} -> {}",
                    r.level, r.value_before, r.value_after
                );
            }
            let fresh = obj.evaluate(&g, &refined);
            if let Some(last) = reports.last() {
                prop_assert!(
                    (last.value_after - fresh).abs() < 1e-7
                        || (last.value_after.is_infinite() && fresh.is_infinite()),
                    "{obj}: report {} vs fresh {}",
                    last.value_after, fresh
                );
            }
            // Cut projects exactly, so for Cut the refined value can never
            // exceed where the coarse search left off.
            if obj == Objective::Cut && start.is_finite() {
                prop_assert!(fresh <= start + 1e-9);
            }
        }
    }

    #[test]
    fn fusion_fission_preserves_vertex_universe(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let k = 2 + (seed % 3) as usize;
        if k > g.num_vertices() {
            return Ok(());
        }
        let cfg = FusionFissionConfig {
            stop: StopCondition::steps(300),
            ..FusionFissionConfig::fast(k)
        };
        let res = FusionFission::new(&g, cfg, seed).run();
        prop_assert!(res.best.validate(&g));
        let total: usize = (0..res.best.num_parts() as u32)
            .map(|p| res.best.part_size(p))
            .sum();
        prop_assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn percolation_total_and_deterministic(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let k = 1 + (seed % 4) as usize;
        if k > g.num_vertices() {
            return Ok(());
        }
        let cfg = PercolationConfig { seed, ..Default::default() };
        let p = percolation_partition(&g, k, &cfg);
        prop_assert!(p.validate(&g));
        prop_assert_eq!(p.num_nonempty_parts(), k);
        let q = percolation_partition(&g, k, &cfg);
        prop_assert_eq!(p.assignment(), q.assignment());
    }

    #[test]
    fn spectral_bisection_never_empty_side(g in arb_graph()) {
        let p = spectral_partition(&g, 2, &SpectralConfig::default());
        prop_assert_eq!(p.num_nonempty_parts(), 2);
        prop_assert!(p.part_size(0) > 0 && p.part_size(1) > 0);
    }

    #[test]
    fn kl_and_fm_never_worsen(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        use fusionfission::partition::CutState;
        use ff_partition::refine::{fm::FmOptions, kl::KlOptions};
        let p = Partition::random(&g, 2, seed);
        let before = Objective::Cut.evaluate(&g, &p);

        let mut st = CutState::new(&g, p.clone());
        ff_partition::kl_refine_bisection(&mut st, 0, 1, &KlOptions::default());
        prop_assert!(st.cut() <= before + 1e-9);

        let mut st = CutState::new(&g, p);
        ff_partition::fm_refine_bisection(&mut st, 0, 1, &FmOptions::default());
        prop_assert!(st.cut() <= before + 1e-9);
    }
}
