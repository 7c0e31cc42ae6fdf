//! The one-shot workloads: a single caller loads an instance and solves
//! it, one solve at a time (a closed loop of one).
//!
//! One operation is what a user waits for: load the instance into the
//! program (`load_p50_ms`: build it with the workspace's generator where
//! the workload rebuilds it, then parse its METIS text), then run one
//! step-budgeted solve to its result (`solve_s`); the two together are
//! the operation's latency (`job_p50_ms`). The traced run alternates an
//! untraced solve with a traced one of the same seed, composes the traced
//! one from the layers' own calls, and requires the same bytes from both.

use std::time::Instant;

use ff_core::{FusionFission, FusionFissionConfig};
use ff_engine::{derive_seeds, EnsembleResult, MigrationPolicyId, MultilevelOpts, Solver};
use ff_graph::Graph;
use ff_metaheur::StopCondition;
use ff_multilevel::{Vcycle, VcycleOpts};
use ff_partition::{Objective, Partition};
use ff_service::{
    solve_distributed, Client, DistOpts, DistSpec, GraphFormat, GraphSource, Registry, Server,
    ServerConfig, ServerHandle, WorkerSet,
};

use crate::inputs::{self, Seeds};
use crate::stats::{median, p50, p90, quartiles};
use crate::trace::{SpanId, Tracer};
use crate::Ctx;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One flat solver shape.
#[derive(Clone, Copy)]
struct Spec {
    k: usize,
    objective: Objective,
    islands: usize,
    threads: usize,
    steps: u64,
    multilevel: bool,
}

impl Spec {
    fn solver<'g>(&self, g: &'g Graph, seed: u64) -> Solver<'g> {
        Solver::on(g)
            .k(self.k)
            .objective(self.objective)
            .islands(self.islands)
            .threads(self.threads)
            .steps(self.steps)
            .seed(seed)
    }

    /// One island of this shape, as the solver configures it.
    fn island_config(&self) -> FusionFissionConfig {
        FusionFissionConfig {
            objective: self.objective,
            stop: StopCondition::steps(self.steps),
            ..FusionFissionConfig::standard(self.k)
        }
    }
}

/// FABOP at paper scale: k = 32, Mcut, 4 islands on 2 threads, 20,000
/// steps per island, default migration.
const FABOP: Spec = Spec {
    k: 32,
    objective: Objective::MCut,
    islands: 4,
    threads: 2,
    steps: 20_000,
    multilevel: false,
};

/// 254 planted groups of 24, k = 254, Ncut, one island; the budget covers
/// initialization (≈6.2k steps) plus several thousand core steps.
const PLANTED: Spec = Spec {
    k: 254,
    objective: Objective::NCut,
    islands: 1,
    threads: 1,
    steps: 14_000,
    multilevel: false,
};

/// The CI multilevel pin: k = 8, Cut, 2 islands, 2,000 steps.
const MLSCALE: Spec = Spec {
    k: 8,
    objective: Objective::Cut,
    islands: 2,
    threads: 0,
    steps: 2_000,
    multilevel: true,
};

/// Solver seed of the multilevel pin, solved first in every mlscale run.
const MLSCALE_PIN_SEED: u64 = 7;

/// What a solve returned, in the form the checks compare.
struct Solved {
    best: Partition,
    value: f64,
    steps: u64,
    migrations: u64,
    /// Coarsening levels and coarse vertex count (multilevel solves).
    levels: Option<(usize, usize)>,
}

impl Solved {
    fn from(res: EnsembleResult) -> Solved {
        Solved {
            levels: res
                .multilevel
                .as_ref()
                .map(|m| (m.levels, m.coarse_vertices)),
            value: res.best_value,
            steps: res.steps,
            migrations: res.migrations_adopted,
            best: res.best,
        }
    }

    fn same_bytes(&self, other: &Solved) -> bool {
        self.best.assignment() == other.best.assignment()
            && self.value.to_bits() == other.value.to_bits()
            && self.steps == other.steps
            && self.migrations == other.migrations
    }
}

/// Per-operation samples of the measured loop.
#[derive(Default)]
struct Samples {
    /// Each operation's load (build where the workload rebuilds, then
    /// parse), milliseconds.
    load_ms: Vec<f64>,
    solve_s: Vec<f64>,
    job_ms: Vec<f64>,
    /// Final objective per operation, in seed order.
    objective: Vec<f64>,
    wall_s: f64,
}

impl Samples {
    /// Records one operation: its load, solve and result.
    fn push(&mut self, load_s: f64, solve_s: f64, objective: f64) {
        self.load_ms.push(load_s * 1e3);
        self.solve_s.push(solve_s);
        self.job_ms.push((load_s + solve_s) * 1e3);
        self.objective.push(objective);
    }

    /// Reports the end-to-end metrics; the objective is taken over the
    /// first `fixed` operations, whose seeds every run solves.
    fn report(&self, ctx: &mut Ctx, fixed: usize, setup_s: &[f64]) {
        let r = &mut ctx.report;
        let objective = &self.objective[..fixed.min(self.objective.len())];
        let (q1, q3) = quartiles(objective);
        r.note(format!(
            "objective over {} seeds: q1 {q1:.6}  median {:.6}  q3 {q3:.6}",
            objective.len(),
            median(objective)
        ));
        // Too few solves for a tail percentile with 10 samples beyond it:
        // the p90 is printed for reading, not reported as a metric.
        r.note(format!(
            "{} solves in {:.2}s; job_p90_ms {:.3} ms over {} solves; {} set-ups",
            self.solve_s.len(),
            self.wall_s,
            p90(&self.job_ms),
            self.job_ms.len(),
            setup_s.len()
        ));
        r.e2e("solve_s", p50(&self.solve_s));
        r.e2e("objective", median(objective));
        r.e2e("job_p50_ms", p50(&self.job_ms));
        r.e2e("jobs_per_s", self.solve_s.len() as f64 / self.wall_s);
        r.e2e("load_p50_ms", p50(&self.load_ms));
        r.e2e("setup_s", median(setup_s));
    }
}

/// Runs `setup` [`SETUPS`] times, keeping the last result and every
/// timing.
pub(crate) fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one setup"), times))
}

/// Whether `value` is the objective `objective` gives `p` on `g`, to
/// rounding: the search keeps its value incrementally.
fn objective_matches(g: &Graph, p: &Partition, objective: Objective, value: f64) -> bool {
    let fresh = objective.evaluate(g, p);
    (fresh - value).abs() <= 1e-9 * value.abs().max(1.0)
}

/// Drives `Solver::start` → `SolverRun::advance_epoch`* → `harvest` —
/// exactly what `Solver::run` does — with a span around each call.
/// Returns the result and the epoch count.
pub(crate) fn traced_run(
    t: &Tracer,
    parent: Option<SpanId>,
    op: u64,
    solver: Solver,
) -> (EnsembleResult, u64) {
    let mut run = t.span("engine.start", parent, op, |_| {
        (solver.start().expect("validated solver shape"), 0)
    });
    let mut epochs = 1;
    while t.span("engine.epoch", parent, op, |_| (run.advance_epoch(), 1)) {
        epochs += 1;
    }
    (
        t.span("engine.harvest", parent, op, |_| (run.harvest(), 0)),
        epochs,
    )
}

/// `Solver::multilevel` composed from its layers: `Vcycle::new`, the
/// solver on `coarsest()`, then `refine_up` under the winning island's
/// objective.
fn traced_multilevel(
    t: &Tracer,
    parent: Option<SpanId>,
    op: u64,
    g: &Graph,
    spec: &Spec,
    seed: u64,
) -> (Solved, u64) {
    let defaults = MultilevelOpts::default();
    let vc = t.span("multilevel.coarsen", parent, op, |_| {
        let opts = VcycleOpts {
            coarsen_until: defaults.coarsen_until,
            refine_passes: defaults.refine_passes,
            seed,
            min_coarse_vertices: spec.k.max(2),
        };
        (Vcycle::new(g, opts), 0)
    });
    let (coarse, epochs) = t.span("multilevel.coarse_solve", parent, op, |id| {
        (traced_run(t, id, op, spec.solver(vc.coarsest(), seed)), 0)
    });
    let objective = coarse.islands[coarse.best_island]
        .trace
        .tag()
        .unwrap_or(spec.objective);
    let (fine, reports) = t.span("multilevel.refine", parent, op, |_| {
        (vc.refine_up(&coarse.best, objective), 0)
    });
    let solved = Solved {
        value: reports.last().map_or(coarse.best_value, |r| r.value_after),
        best: fine,
        steps: coarse.steps,
        migrations: coarse.migrations_adopted,
        levels: Some((vc.num_levels(), vc.coarsest().num_vertices())),
    };
    (solved, epochs)
}

/// Exact counts summed over the traced solves of the fixed seed set.
#[derive(Default)]
struct Exact {
    epochs: u64,
    migrations: u64,
    news: u64,
}

/// Where a one-shot workload's instances come from.
enum Instance {
    /// One instance, built once: its parse alone is the load.
    Fixed(fn() -> String),
    /// One instance, rebuilt by the workspace's generator for every
    /// operation. A sub-millisecond parse is too short to time steadily,
    /// so the load is build + parse.
    Rebuilt(fn() -> String),
    /// A fresh instance per operation, drawn from the workload seed; the
    /// load is build + parse.
    PerOp(fn(u64) -> String),
}

/// A one-shot workload run in this process.
struct OneShot {
    spec: Spec,
    instance: Instance,
    /// Operations every untraced run makes, whatever `--seconds` says:
    /// the objective is taken over their seeds.
    min_ops: usize,
}

/// Solves in the traced run whose exact counts are reported.
const TRACED_MIN_OPS: usize = 3;

/// The shared loop of the in-process one-shot workloads.
fn in_process(ctx: &mut Ctx, w: OneShot) -> Result<(), String> {
    let spec = w.spec;
    let mut instance_seeds = Seeds::new(ctx.seed, 3);
    let first_seed = instance_seeds.next_seed();
    let mut text_at = |i: usize| match w.instance {
        Instance::Fixed(text) | Instance::Rebuilt(text) => text(),
        Instance::PerOp(text) => {
            let seed = if i == 0 {
                first_seed
            } else {
                instance_seeds.next_seed()
            };
            text(seed)
        }
    };
    // Set-up builds the first instance with the program's own generator,
    // parses it and warms up; the same instance each of the three times.
    let mut first_text = String::new();
    let ((), setup_s) = timed_setups(
        || {
            let text = text_at(0);
            let g = inputs::parse(&text)?;
            // Warm-up: a short solve of the workload's shape. A flat start
            // on the 10^5-vertex multilevel graph would be slower than a
            // whole multilevel solve, so that workload skips it.
            if !spec.multilevel {
                let warm = Spec { steps: 256, ..spec };
                warm.solver(&g, 1).run().map_err(|e| e.to_string())?;
            }
            first_text = text;
            Ok(())
        },
        drop,
    )?;
    let mut seeds = Seeds::new(ctx.seed, 1);
    let min_ops = if ctx.traced() {
        TRACED_MIN_OPS
    } else {
        w.min_ops
    };
    let mut samples = Samples::default();
    let mut traced_s = Vec::new();
    let mut exact = Exact::default();
    let mut pin_levels = None;
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_ops || start.elapsed().as_secs_f64() < ctx.seconds {
        let seed = if spec.multilevel && i == 0 {
            MLSCALE_PIN_SEED
        } else {
            seeds.next_seed()
        };
        let t0 = Instant::now();
        let fresh;
        let text = match w.instance {
            Instance::Fixed(_) => &first_text,
            _ => {
                fresh = text_at(i);
                &fresh
            }
        };
        let g = inputs::parse(text)?;
        let load_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut solver = spec.solver(&g, seed);
        if spec.multilevel {
            solver = solver.multilevel(MultilevelOpts::default());
        }
        let solved = Solved::from(solver.run().map_err(|e| e.to_string())?);
        samples.push(load_s, t1.elapsed().as_secs_f64(), solved.value);
        ctx.report.attempted += 1;
        ctx.report.check(
            objective_matches(&g, &solved.best, spec.objective, solved.value),
            || {
                format!(
                    "solve {i}: reported {} is not the partition's objective",
                    solved.value
                )
            },
        );
        if spec.multilevel && i == 0 {
            ctx.report.check(
                format!("{:.4}", solved.value) == "66073.5000" && solved.levels == Some((6, 1853)),
                || {
                    format!(
                        "multilevel pin: cut {:.4}, levels {:?}",
                        solved.value, solved.levels
                    )
                },
            );
        }
        if ctx.traced() {
            let t = ctx.tracer.clone();
            let op = i as u64;
            let traced_start = Instant::now();
            let (again, epochs) = t.span("solve", None, op, |id| {
                let out = if spec.multilevel {
                    traced_multilevel(&t, id, op, &g, &spec, seed)
                } else {
                    let (res, epochs) = traced_run(&t, id, op, spec.solver(&g, seed));
                    (Solved::from(res), epochs)
                };
                (out, 0)
            });
            traced_s.push(traced_start.elapsed().as_secs_f64());
            ctx.report.check(
                again.same_bytes(&solved)
                    && again.levels.is_some() == spec.multilevel
                    && (!spec.multilevel || again.levels == solved.levels),
                || format!("solve {i}: the composed layer calls differ from the one-call solve"),
            );
            if i < min_ops {
                exact.epochs += epochs;
                exact.migrations += again.migrations;
            }
            if i == 0 {
                pin_levels = again.levels;
            }
        }
        i += 1;
    }
    samples.wall_s = start.elapsed().as_secs_f64();
    if ctx.traced() {
        // Untraced and traced solves interleave; per-op medians stay
        // valid, the loop's throughput does not.
        samples.wall_s = samples.solve_s.iter().sum::<f64>();
    }
    samples.report(ctx, min_ops, &setup_s);
    if ctx.traced() {
        let g = inputs::parse(&first_text)?;
        // A multilevel search runs its islands on the coarse graph: probe
        // them there.
        let coarse;
        let probe_graph = if spec.multilevel {
            let opts = VcycleOpts {
                seed: MLSCALE_PIN_SEED,
                min_coarse_vertices: spec.k.max(2),
                ..VcycleOpts::default()
            };
            coarse = Vcycle::new(&g, opts).coarsest().clone();
            &coarse
        } else {
            &g
        };
        core_probes(ctx, probe_graph, spec.island_config(), spec.islands.min(2));
        engine_layers(ctx, &exact);
        if let Some((levels, coarse_vertices)) = pin_levels {
            multilevel_layers(ctx, levels, coarse_vertices);
        }
        let init_ms = median(&ctx.tracer.ms("core.init"));
        let r = &mut ctx.report;
        r.layer_derived(
            "core.init_share",
            init_ms / (median(&samples.solve_s) * 1e3),
        );
        r.layer_derived(
            "trace.overhead_ratio",
            median(&traced_s) / median(&samples.solve_s),
        );
    }
    Ok(())
}

fn multilevel_layers(ctx: &mut Ctx, levels: usize, coarse_vertices: usize) {
    let t = &ctx.tracer;
    let (coarsen, solve, refine) = (
        t.ms("multilevel.coarsen"),
        t.ms("multilevel.coarse_solve"),
        t.ms("multilevel.refine"),
    );
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let r = &mut ctx.report;
    r.layer("multilevel.levels", levels as f64);
    r.layer("multilevel.coarse_vertices", coarse_vertices as f64);
    r.layer_p50("multilevel.coarsen_ms", &coarsen);
    r.layer_p50("multilevel.coarse_solve_ms", &solve);
    r.layer_p50("multilevel.refine_ms", &refine);
    r.layer_derived(
        "multilevel.search_share",
        sum(&solve) / (sum(&coarsen) + sum(&solve) + sum(&refine)),
    );
}

/// Standalone islands of the workload's shape: `start()` and single
/// steps until the first molecule at the target k (`core.init`), then
/// `advance(1024)` chunks to the step budget (`core.advance`).
pub(crate) fn core_probes(ctx: &mut Ctx, g: &Graph, island: FusionFissionConfig, probes: usize) {
    let t = ctx.tracer.clone();
    let mut seeds = Seeds::new(ctx.seed, 9);
    let mut init_steps = None;
    let mut core_steps = 0;
    for p in 0..probes {
        let ff = FusionFission::new(g, island, seeds.next_seed());
        let init = t.begin("core.init", None, p as u64);
        let mut run = ff.start();
        while run.best_at_target().is_none() && run.step_once() {}
        t.end(init, run.steps());
        init_steps.get_or_insert(run.steps());
        loop {
            let before = run.steps();
            let id = t.begin("core.advance", None, p as u64);
            let more = run.advance(1024);
            let done = run.steps() - before;
            t.end(id, done);
            core_steps += done;
            if !more || done == 0 {
                break;
            }
        }
    }
    let step_us: Vec<f64> = t
        .spans("core.advance")
        .iter()
        .filter(|s| s.work > 0)
        .map(|s| s.ms() * 1e3 / s.work as f64)
        .collect();
    let r = &mut ctx.report;
    r.layer_p50("core.init_ms", &t.ms("core.init"));
    r.layer("core.init_steps", init_steps.unwrap_or(0) as f64);
    r.layer_p50("core.step_us", &step_us);
    r.layer("core.steps", core_steps as f64);
}

fn engine_layers(ctx: &mut Ctx, exact: &Exact) {
    let t = ctx.tracer.clone();
    let r = &mut ctx.report;
    r.layer_p50("engine.epoch_ms", &t.ms("engine.epoch"));
    r.layer_p50("engine.harvest_ms", &t.ms("engine.harvest"));
    r.layer("engine.epochs", exact.epochs as f64);
    r.layer("engine.migrations_adopted", exact.migrations as f64);
}

/// Paper-scale FABOP, 4 islands in one process.
pub fn fabop_islands(ctx: &mut Ctx) -> Result<(), String> {
    let w = OneShot {
        spec: FABOP,
        instance: Instance::Rebuilt(inputs::fabop_text),
        min_ops: 9,
    };
    in_process(ctx, w)
}

/// 254 planted groups, k = 254: initialization-heavy. Each solve gets its
/// own planted graph, so a run's median spans several instances.
pub fn planted_6k(ctx: &mut Ctx) -> Result<(), String> {
    let w = OneShot {
        spec: PLANTED,
        instance: Instance::PerOp(inputs::planted_text),
        min_ops: 5,
    };
    in_process(ctx, w)
}

/// The 10^5-vertex multilevel pin.
pub fn mlscale_1e5(ctx: &mut Ctx) -> Result<(), String> {
    let w = OneShot {
        spec: MLSCALE,
        instance: Instance::Fixed(inputs::mlscale_text),
        min_ops: 9,
    };
    in_process(ctx, w)
}

/// Two federated hosts: in-process servers with one compute permit each,
/// reached over TCP like remote `ffpart serve` hosts.
struct Hosts {
    handles: Vec<ServerHandle>,
    workers: WorkerSet,
}

fn start_hosts() -> Result<Hosts, String> {
    let mut handles = Vec::new();
    for _ in 0..2 {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind_with("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        handles.push(server.spawn().map_err(|e| format!("spawn: {e}"))?);
    }
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    Ok(Hosts {
        handles,
        workers: WorkerSet::Connect { addrs },
    })
}

fn stop_hosts(hosts: Hosts) {
    for handle in hosts.handles {
        if let Ok(client) = Client::connect(handle.addr()) {
            let _ = client.shutdown();
        }
        let _ = handle.join();
    }
}

/// The distributed form of `spec` with root seed `seed`: the island seeds,
/// objectives, interval and policy the in-process solver would use.
fn dist_spec(text: &str, spec: &Spec, seed: u64) -> DistSpec {
    DistSpec {
        instance: "fabop".into(),
        source: GraphSource::Data(text.to_string()),
        format: GraphFormat::Metis,
        k: spec.k,
        steps: spec.steps,
        seeds: derive_seeds(seed, spec.islands),
        objectives: vec![spec.objective; spec.islands],
        interval: 1024,
        migration: MigrationPolicyId::ReplaceIfBetter,
        pareto: false,
    }
}

/// Paper-scale FABOP through `solve_distributed` over two hosts.
pub fn fabop_workers(ctx: &mut Ctx) -> Result<(), String> {
    let spec = FABOP;
    let min_ops = 3;
    let ((text, hosts), setup_s) = timed_setups(
        || {
            let text = inputs::fabop_text();
            let g = inputs::parse(&text)?;
            let hosts = start_hosts()?;
            // Warm-up: every host loads the instance and runs a short shard.
            let warm = dist_spec(&text, &Spec { steps: 256, ..spec }, 1);
            solve_distributed(
                &g,
                &warm,
                &hosts.workers,
                &DistOpts::default(),
                &mut |_, _| {},
            )?;
            Ok((text, hosts))
        },
        |(_, hosts)| stop_hosts(hosts),
    )?;
    let t = ctx.tracer.clone();
    let registry = Registry::new();
    let traced_opts = DistOpts {
        obs: Some(registry.clone()),
        ..DistOpts::default()
    };
    let mut seeds = Seeds::new(ctx.seed, 1);
    let mut samples = Samples::default();
    let mut traced_s = Vec::new();
    let mut exact = Exact::default();
    let mut done = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_ops || start.elapsed().as_secs_f64() < ctx.seconds {
        let seed = seeds.next_seed();
        let dspec = dist_spec(&text, &spec, seed);
        // The load: rebuild the instance with the generator, then parse.
        let t0 = Instant::now();
        let g = inputs::parse(&inputs::fabop_text())?;
        let load_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let res = solve_distributed(
            &g,
            &dspec,
            &hosts.workers,
            &DistOpts::default(),
            &mut |_, _| {},
        );
        let solve_s = t1.elapsed().as_secs_f64();
        ctx.report.attempted += 1;
        let solved = match res {
            Ok(res) => Solved::from(res),
            Err(e) => {
                ctx.report.failed += 1;
                ctx.report.note(format!("solve {i}: {e}"));
                i += 1;
                continue;
            }
        };
        samples.push(load_s, solve_s, solved.value);
        ctx.report.check(
            objective_matches(&g, &solved.best, spec.objective, solved.value),
            || {
                format!(
                    "solve {i}: reported {} is not the partition's objective",
                    solved.value
                )
            },
        );
        if ctx.traced() {
            let mut news = 0u64;
            let traced_start = Instant::now();
            let again = t.span("dist.solve", None, i as u64, |_| {
                let res =
                    solve_distributed(&g, &dspec, &hosts.workers, &traced_opts, &mut |_, _| {
                        news += 1
                    });
                (res, 0)
            });
            traced_s.push(traced_start.elapsed().as_secs_f64());
            let same = again.is_ok_and(|r| Solved::from(r).same_bytes(&solved));
            ctx.report.check(same, || {
                format!("solve {i}: traced distributed solve differs")
            });
            if i < min_ops {
                exact.news += news;
            }
        }
        done.push((i, seed, solved));
        i += 1;
    }
    samples.wall_s = start.elapsed().as_secs_f64();
    if ctx.traced() {
        samples.wall_s = samples.solve_s.iter().sum::<f64>();
    }
    // Output check, outside the timed loop: the in-process solver with
    // the same seeds returns the same bytes.
    let g = inputs::parse(&text)?;
    for (i, seed, solved) in &done {
        let op = *i as u64;
        let local = if ctx.traced() {
            let (res, epochs) = t.span("local.solve", None, op, |id| {
                (traced_run(&t, id, op, spec.solver(&g, *seed)), 0)
            });
            if *i < min_ops {
                exact.epochs += epochs;
                exact.migrations += res.migrations_adopted;
            }
            Solved::from(res)
        } else {
            Solved::from(spec.solver(&g, *seed).run().map_err(|e| e.to_string())?)
        };
        ctx.report.check(local.same_bytes(solved), || {
            format!("solve {i}: distributed bytes differ from the in-process solver")
        });
    }
    samples.report(ctx, min_ops, &setup_s);
    if ctx.traced() {
        core_probes(ctx, &g, spec.island_config(), 2);
        engine_layers(ctx, &exact);
        let respawns: f64 = ff_obs::parse_exposition(&registry.render())
            .map_err(|e| format!("registry exposition: {e}"))?
            .iter()
            .filter(|s| s.name == "ff_dist_respawns_total")
            .map(|s| s.value)
            .sum();
        let (dist_ms, local_ms) = (t.ms("dist.solve"), t.ms("local.solve"));
        let init_ms = median(&t.ms("core.init"));
        let r = &mut ctx.report;
        r.layer_p50("dist.solve_ms", &dist_ms);
        r.layer_derived("dist.vs_local_ratio", median(&dist_ms) / median(&local_ms));
        r.layer("dist.news_events", exact.news as f64);
        r.layer("dist.respawns", respawns);
        r.layer_derived(
            "core.init_share",
            init_ms / (median(&samples.solve_s) * 1e3),
        );
        r.layer_derived(
            "trace.overhead_ratio",
            median(&traced_s) / median(&samples.solve_s),
        );
    }
    stop_hosts(hosts);
    Ok(())
}
