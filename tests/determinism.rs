//! Determinism contract: every algorithm in the suite is a pure function
//! of (graph, config, seed). Reproducibility is what makes the paper's
//! tables regenerable.

use fusionfission::atc::{FabopConfig, FabopInstance};
use fusionfission::metaheur::StopCondition;
use fusionfission::prelude::*;

#[test]
fn fabop_instance_is_stable() {
    let a = FabopInstance::scaled(120, &FabopConfig::default());
    let b = FabopInstance::scaled(120, &FabopConfig::default());
    assert_eq!(
        a.graph.edges().collect::<Vec<_>>(),
        b.graph.edges().collect::<Vec<_>>()
    );
    assert_eq!(a.positions, b.positions);
}

#[test]
fn spectral_is_deterministic() {
    let inst = FabopInstance::scaled(120, &FabopConfig::default());
    let cfg = SpectralConfig {
        seed: 5,
        ..Default::default()
    };
    let p1 = spectral_partition(&inst.graph, 6, &cfg);
    let p2 = spectral_partition(&inst.graph, 6, &cfg);
    assert_eq!(p1.assignment(), p2.assignment());
}

#[test]
fn multilevel_is_deterministic() {
    let inst = FabopInstance::scaled(120, &FabopConfig::default());
    let cfg = MultilevelConfig {
        seed: 9,
        ..Default::default()
    };
    let p1 = multilevel_partition(&inst.graph, 6, &cfg);
    let p2 = multilevel_partition(&inst.graph, 6, &cfg);
    assert_eq!(p1.assignment(), p2.assignment());
}

#[test]
fn metaheuristics_are_deterministic_under_step_budgets() {
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let g = &inst.graph;

    let sa = |seed| {
        SimulatedAnnealing::new(
            g,
            5,
            SimulatedAnnealingConfig {
                seed,
                stop: StopCondition::steps(10_000),
                ..Default::default()
            },
        )
        .run()
    };
    assert_eq!(sa(4).best.assignment(), sa(4).best.assignment());
    // different seeds explore differently
    assert_ne!(sa(4).best_value, sa(5).best_value);

    let ff = |seed| FusionFission::new(g, FusionFissionConfig::fast(5), seed).run();
    assert_eq!(ff(7).best.assignment(), ff(7).best.assignment());

    let aco = |seed| {
        AntColony::new(
            g,
            5,
            AntColonyConfig {
                seed,
                stop: StopCondition::steps(300),
                ..Default::default()
            },
        )
        .run()
    };
    assert_eq!(aco(2).best.assignment(), aco(2).best.assignment());
}

#[test]
fn ensemble_is_thread_schedule_independent() {
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let g = &inst.graph;
    let base = FusionFissionConfig::fast(5);
    for islands in [1usize, 4] {
        let run = |max_threads: usize| {
            Solver::on(g)
                .config(base)
                .islands(islands)
                .migration_interval(400)
                .threads(max_threads)
                .seed(99)
                .run()
                .unwrap()
        };
        // Two invocations with the same root seed are identical…
        let a = run(0);
        let b = run(0);
        assert_eq!(a.best.assignment(), b.best.assignment());
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.migrations_adopted, b.migrations_adopted);
        // …and so is a run squeezed through a single thread (scheduling
        // cannot matter because the reduction is deterministic).
        let c = run(1);
        assert_eq!(a.best.assignment(), c.best.assignment());
        assert_eq!(a.best_value, c.best_value);
        // Invariant: the ensemble's best is the min over island bests.
        let min = a
            .islands
            .iter()
            .map(|r| r.best_value)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(a.best_value, min);
        assert_eq!(a.islands.len(), islands);
    }
}

#[test]
fn solver_policies_and_pareto_are_deterministic() {
    use fusionfission::partition::{dominates, Objective};
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let g = &inst.graph;
    // Every migration policy re-runs byte-identically.
    for policy in [
        MigrationPolicyId::ReplaceIfBetter,
        MigrationPolicyId::Combine,
        MigrationPolicyId::Adaptive,
    ] {
        let run = || {
            Solver::on(g)
                .config(FusionFissionConfig::fast(5))
                .islands(3)
                .migration(policy.build())
                .migration_interval(300)
                .seed(17)
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best.assignment(), b.best.assignment(), "{policy:?}");
        assert_eq!(a.migrations_adopted, b.migrations_adopted, "{policy:?}");
    }
    // A mixed-objective run returns a deterministic non-dominated front.
    let run = || {
        Solver::on(g)
            .config(FusionFissionConfig::fast(5))
            .islands(3)
            .objectives([Objective::Cut, Objective::NCut, Objective::MCut])
            .reduction(ParetoFront)
            .seed(23)
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    let (fa, fb) = (a.pareto.unwrap(), b.pareto.unwrap());
    assert_eq!(fa.points.len(), fb.points.len());
    for (x, y) in fa.points.iter().zip(&fb.points) {
        assert_eq!(x.island, y.island);
        assert_eq!(x.values, y.values);
    }
    for x in &fa.points {
        for y in &fa.points {
            assert!(x.island == y.island || !dominates(&x.values, &y.values));
        }
    }
}

#[test]
fn percolation_is_deterministic() {
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let cfg = PercolationConfig {
        seed: 12,
        ..Default::default()
    };
    let p1 = percolation_partition(&inst.graph, 7, &cfg);
    let p2 = percolation_partition(&inst.graph, 7, &cfg);
    assert_eq!(p1.assignment(), p2.assignment());
}

/// Distributed islands keep the same contract across *process
/// boundaries*: federated workers (two live servers driven over TCP)
/// produce bytes identical to the in-process [`Solver`] — on the pinned
/// golden instance and on a migration-heavy combine run.
#[test]
fn distributed_islands_match_in_process_goldens() {
    use fusionfission::engine::derive_seeds;
    use fusionfission::service::dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
    use fusionfission::service::{Client, GraphFormat, GraphSource, Server};

    const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";
    let g = fusionfission::graph::io::read_metis(GRID.as_bytes()).unwrap();

    // Two real servers on ephemeral ports stand in for remote hosts.
    let servers: Vec<_> = (0..2)
        .map(|_| Server::bind("127.0.0.1:0", 2).unwrap().spawn().unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|h| h.addr().to_string()).collect();

    let federate = |spec: &DistSpec| {
        solve_distributed(
            &g,
            spec,
            &WorkerSet::Connect {
                addrs: addrs.clone(),
            },
            &DistOpts::default(),
            &mut |_, _| {},
        )
        .unwrap()
    };
    let spec = |seed: u64, steps: u64, migration: MigrationPolicyId| DistSpec {
        instance: "grid".into(),
        source: GraphSource::Data(GRID.into()),
        format: GraphFormat::Metis,
        k: 2,
        steps,
        seeds: derive_seeds(seed, 4),
        objectives: vec![fusionfission::partition::Objective::MCut; 4],
        interval: 1024,
        migration,
        pareto: false,
    };

    // Golden 1: the pinned instance. The energy is part of the contract.
    let local = Solver::on(&g)
        .k(2)
        .islands(4)
        .steps(20_000)
        .seed(7)
        .run()
        .unwrap();
    assert!(
        (local.best_value - 0.964286).abs() < 5e-7,
        "pinned golden moved: {}",
        local.best_value
    );
    let dist = federate(&spec(7, 20_000, MigrationPolicyId::ReplaceIfBetter));
    assert_eq!(dist.best.assignment(), local.best.assignment());
    assert_eq!(dist.best_value, local.best_value);
    assert_eq!(dist.steps, local.steps);
    assert_eq!(dist.migrations_adopted, local.migrations_adopted);

    // Golden 2: a 4-island combine-migration (crossover) run.
    let local = Solver::on(&g)
        .k(2)
        .islands(4)
        .migration(Combine)
        .steps(8_000)
        .seed(13)
        .run()
        .unwrap();
    let dist = federate(&spec(13, 8_000, MigrationPolicyId::Combine));
    assert_eq!(dist.best.assignment(), local.best.assignment());
    assert_eq!(dist.best_value, local.best_value);
    assert_eq!(dist.migrations_adopted, local.migrations_adopted);
    for (a, b) in dist.islands.iter().zip(&local.islands) {
        assert_eq!(a.best.assignment(), b.best.assignment());
        assert_eq!(a.steps, b.steps);
    }

    for handle in servers {
        Client::connect(handle.addr()).unwrap().shutdown().unwrap();
        handle.join().unwrap();
    }
}

/// FNV-1a over a word stream: a compact, dependency-free pin for an
/// assignment or a per-k table.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Algorithm 2 from singletons is where the per-step bookkeeping
/// (live-part count, live-atom pick, snapshots of the best molecule)
/// carries the most weight, so these runs pin it bit for bit. Each
/// budget covers the whole agglomeration, at least one compaction of
/// empty part slots, more than `nbt` = 1,600 core steps (one
/// freeze-reheat) and an `inject` between `advance` chunks.
#[test]
fn init_heavy_runs_are_byte_pinned() {
    use fusionfission::graph::generators::planted_partition;
    use fusionfission::partition::Objective;

    struct Pin {
        adopted: bool,
        steps: u64,
        best_bits: u64,
        per_k: (usize, u64),
        assignment: u64,
    }
    let run = |g: &Graph, cfg: FusionFissionConfig, seed: u64, offer: &Partition| {
        let mut run = FusionFission::new(g, cfg, seed).start();
        run.advance(1_000);
        let adopted = run.inject(offer);
        while run.advance(333) {}
        let res = run.harvest();
        assert!(res.best.validate(g));
        Pin {
            adopted,
            steps: res.steps,
            best_bits: res.best_value.to_bits(),
            per_k: (
                res.best_value_per_k.len(),
                fnv64(
                    res.best_value_per_k
                        .iter()
                        .flat_map(|(&k, v)| [k as u64, v.to_bits()]),
                ),
            ),
            assignment: fnv64(res.best.assignment().iter().map(|&p| u64::from(p))),
        }
    };

    // 32 planted groups of 24 vertices, Ncut, k = 32; offered the
    // planted truth mid-run.
    let g = planted_partition(32, 24, 0.3, 0.01, 3);
    let truth = Partition::from_assignment(&g, (0..768).map(|v| v / 24).collect(), 32);
    let cfg = FusionFissionConfig {
        objective: Objective::NCut,
        stop: StopCondition::steps(2_600),
        ..FusionFissionConfig::standard(32)
    };
    let p = run(&g, cfg, 5, &truth);
    assert!(p.adopted);
    assert_eq!(p.steps, 2_600);
    assert_eq!(p.best_bits, 0x4021_0494_33b8_dba1);
    assert_eq!(p.per_k, (753, 0x0136_a685_4bf0_36e4));
    assert_eq!(p.assignment, 0x0f29_0680_8ce6_a23a);

    // Scaled FABOP, Mcut, k = 8; offered a block partition mid-run.
    let inst = FabopInstance::scaled(200, &FabopConfig::default());
    let g = &inst.graph;
    let cfg = FusionFissionConfig {
        stop: StopCondition::steps(2_000),
        ..FusionFissionConfig::standard(8)
    };
    let p = run(g, cfg, 11, &Partition::block(g, 8));
    assert!(!p.adopted);
    assert_eq!(p.steps, 2_000);
    assert_eq!(p.best_bits, 0x3ffb_c7c0_ca35_0627);
    assert_eq!(p.per_k, (199, 0xc994_8b7b_42f7_eab3));
    assert_eq!(p.assignment, 0xa0c6_c098_d393_4427);
}
