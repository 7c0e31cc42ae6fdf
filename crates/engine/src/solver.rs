//! The [`Solver`] builder — the one front door to the fusion–fission
//! engine — and [`SolverRun`], the one epoch engine behind it.
//!
//! The builder configures islands and the two strategy seams:
//! [`MigrationPolicy`] (what moves between islands, and when) and
//! [`Reduction`] (how harvested islands become one result, including the
//! multi-objective Pareto front). The run drives the islands through an
//! [`IslandHost`], in this process by default.
//!
//! ```
//! use ff_engine::Solver;
//! use ff_graph::generators::planted_partition;
//!
//! let g = planted_partition(4, 10, 0.85, 0.03, 5);
//! let result = Solver::on(&g)
//!     .k(4)
//!     .islands(3)
//!     .steps(2_000)
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.best.num_nonempty_parts(), 4);
//! ```

use crate::ensemble::EnsembleResult;
use crate::host::{IslandHost, IslandSetup, LocalIslands};
use crate::migration::{IslandStatus, MigrationPolicy, ReplaceIfBetter};
use crate::multilevel::{MultilevelInfo, MultilevelOpts};
use crate::obs::{record_level_reports, EngineObs};
use crate::reduction::{MinEnergy, Reduction};
use crate::seeds::derive_seeds;
use ff_core::{ConfigError, FusionFissionConfig, FusionFissionRun};
use ff_graph::Graph;
use ff_metaheur::{AnytimeTrace, CancelToken, StopCondition};
use ff_multilevel::{Vcycle, VcycleOpts};
use ff_partition::{pareto_front_indices, Objective, Partition};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// The distinct objectives of a per-island cycle list, in first-
/// appearance order — the axis order of any Pareto front built over it.
pub fn distinct_objectives(list: &[Objective]) -> Vec<Objective> {
    let mut distinct = Vec::new();
    for &o in list {
        if !distinct.contains(&o) {
            distinct.push(o);
        }
    }
    distinct
}

/// Minimum island count so that cycling `list` over the islands gives
/// every distinct objective at least one island: the index of the last
/// first occurrence, plus one. (`[Cut, Cut, MCut]` needs 3 islands —
/// with 2, MCut would silently never be optimized.)
pub fn islands_to_cover(list: &[Objective]) -> usize {
    let mut seen = Vec::new();
    let mut needed = 0;
    for (i, &o) in list.iter().enumerate() {
        if !seen.contains(&o) {
            seen.push(o);
            needed = i + 1;
        }
    }
    needed
}

/// Fluent, validated configuration for a fusion–fission run — one island
/// or a whole migration ensemble. Build with [`Solver::on`], configure,
/// then [`Solver::run`] (one-shot), [`Solver::start`] (resumable
/// [`SolverRun`]) or [`Solver::split`] (drive the run on any host).
pub struct Solver<'g> {
    g: &'g Graph,
    base: FusionFissionConfig,
    islands: usize,
    max_threads: usize,
    migration_interval: u64,
    migration: Box<dyn MigrationPolicy>,
    reduction: Box<dyn Reduction>,
    seed: u64,
    island_seeds: Option<Vec<u64>>,
    objectives: Option<Vec<Objective>>,
    initial: Option<Partition>,
    multilevel: Option<MultilevelOpts>,
    obs: Option<ff_obs::Registry>,
}

impl<'g> Solver<'g> {
    /// A solver on `g` with the paper-faithful defaults: single island,
    /// Mcut, seed 1, [`ReplaceIfBetter`] migration every 1024 steps,
    /// [`MinEnergy`] reduction. `k` **must** be set before starting.
    pub fn on(g: &'g Graph) -> Solver<'g> {
        Solver {
            g,
            base: FusionFissionConfig::standard(0),
            islands: 1,
            max_threads: 0,
            migration_interval: 1024,
            migration: Box::new(ReplaceIfBetter),
            reduction: Box::new(MinEnergy),
            seed: 1,
            island_seeds: None,
            objectives: None,
            initial: None,
            multilevel: None,
            obs: None,
        }
    }

    /// Target part count (required).
    pub fn k(mut self, k: usize) -> Self {
        self.base.k = k;
        self
    }

    /// The objective every island minimizes (default Mcut). For
    /// per-island overrides see [`Solver::objectives`].
    pub fn objective(mut self, objective: Objective) -> Self {
        self.base.objective = objective;
        self.objectives = None;
        self
    }

    /// Per-island objective overrides: island `i` minimizes
    /// `objectives[i % len]`, so 4 islands over `[Cut, MCut]` run two of
    /// each. More than one distinct objective usually wants the
    /// [`ParetoFront`](crate::ParetoFront) reduction.
    pub fn objectives(mut self, objectives: impl Into<Vec<Objective>>) -> Self {
        self.objectives = Some(objectives.into());
        self
    }

    /// Island count (default 1).
    pub fn islands(mut self, islands: usize) -> Self {
        self.islands = islands;
        self
    }

    /// Concurrent OS threads per epoch; `0` (default) means one per
    /// island. Results are identical for any cap under step budgets.
    pub fn threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// The migration policy (default [`ReplaceIfBetter`]).
    pub fn migration(mut self, policy: impl MigrationPolicy + 'static) -> Self {
        self.migration = Box::new(policy);
        self
    }

    /// Steps each island advances between migration barriers (default
    /// 1024); `0` disables migration (pure independent multi-start).
    pub fn migration_interval(mut self, interval: u64) -> Self {
        self.migration_interval = interval;
        self
    }

    /// The ensemble reduction (default [`MinEnergy`]).
    pub fn reduction(mut self, reduction: impl Reduction + 'static) -> Self {
        self.reduction = Box::new(reduction);
        self
    }

    /// Root RNG seed (default 1). Island seeds are derived from it with
    /// [`derive_seeds`] unless [`Solver::island_seeds`] overrides them.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit per-island seeds, bypassing root-seed derivation — how a
    /// single-island solver reproduces a plain
    /// `FusionFission::new(g, cfg, seed)` run bit-for-bit. Must match the
    /// island count.
    pub fn island_seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.island_seeds = Some(seeds.into());
        self
    }

    /// Step budget per island (a convenience over [`Solver::stop`]).
    pub fn steps(mut self, steps: u64) -> Self {
        self.base.stop = StopCondition::steps(steps);
        self
    }

    /// Full stop condition per island (steps and/or wall-clock).
    pub fn stop(mut self, stop: StopCondition) -> Self {
        self.base.stop = stop;
        self
    }

    /// Warm start: every island skips Algorithm 2's singleton
    /// agglomeration and starts from `initial` (the
    /// `FusionFission::with_initial` hybridization).
    pub fn initial(mut self, initial: Partition) -> Self {
        self.initial = Some(initial);
        self
    }

    /// Multilevel acceleration: coarsen the graph, run the (unchanged)
    /// ensemble on the coarse graph, then uncoarsen with per-level greedy
    /// refinement. To drive the coarse run on a host of your own,
    /// [`Solver::split`] first: [`Solver::start`] refuses an unsplit
    /// multilevel solver. Incompatible with [`Solver::initial`] (the warm
    /// start lives on the fine graph).
    pub fn multilevel(mut self, opts: MultilevelOpts) -> Self {
        self.multilevel = Some(opts);
        self
    }

    /// Attaches a metrics registry. Observation-only — partition bytes,
    /// RNG streams and epoch chunking are identical with or without it
    /// (test-asserted). Registered families, per epoch barrier:
    /// `ff_engine_epochs_total`, `ff_engine_epoch_ms`,
    /// `ff_engine_migration_offers_total{policy}`,
    /// `ff_engine_migration_accepts_total{policy}`,
    /// `ff_engine_migration_rejects_total{policy}`,
    /// `ff_engine_improvement_delta`, and — under
    /// [`Solver::multilevel`] — `ff_engine_level_refine_ms` plus
    /// `ff_engine_refine_moves_total`.
    pub fn observe(mut self, registry: ff_obs::Registry) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Full control over the per-island search configuration (presets,
    /// temperatures, ablation switches). Overwrites `k`, `objective` and
    /// the stop condition, so call it *before* those builder methods.
    pub fn config(mut self, base: FusionFissionConfig) -> Self {
        self.base = base;
        self
    }

    /// Validates the whole configuration without starting anything.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        self.base.try_validate()?;
        if self.islands == 0 {
            return Err(ConfigError::ZeroIslands);
        }
        if let Some(seeds) = &self.island_seeds {
            if seeds.len() != self.islands {
                return Err(ConfigError::SeedCountMismatch {
                    islands: self.islands,
                    seeds: seeds.len(),
                });
            }
        }
        if let Some(objectives) = &self.objectives {
            if objectives.is_empty() {
                return Err(ConfigError::NoObjectives);
            }
            let needed = islands_to_cover(objectives);
            if self.islands < needed {
                return Err(ConfigError::UncoveredObjectives {
                    islands: self.islands,
                    needed,
                });
            }
        }
        if let Some(ml) = &self.multilevel {
            if ml.coarsen_until == 0 {
                return Err(ConfigError::ZeroCoarsenTarget);
            }
            if self.initial.is_some() {
                return Err(ConfigError::MultilevelWithInitial);
            }
        }
        Ok(())
    }

    /// The graph this solver partitions.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The islands this solver starts, in island order: each one's seed,
    /// search configuration and warm start. An [`IslandHost`] builds its
    /// islands from these; they do not depend on the graph, so a
    /// multilevel solver has them too. Fails like [`Solver::try_validate`].
    pub fn island_setups(&self) -> Result<Vec<IslandSetup>, ConfigError> {
        self.try_validate()?;
        let seeds = match &self.island_seeds {
            Some(seeds) => seeds.clone(),
            None => derive_seeds(self.seed, self.islands),
        };
        Ok(seeds
            .into_iter()
            .zip(self.objective_per_island())
            .map(|(seed, objective)| IslandSetup {
                seed,
                config: FusionFissionConfig {
                    objective,
                    ..self.base
                },
                initial: self.initial.clone(),
            })
            .collect())
    }

    /// Builds the live, resumable run, or reports the first
    /// configuration error. Rejects an unsplit multilevel solver
    /// ([`ConfigError::MultilevelNotResumable`]): its islands run on the
    /// coarse graph its [`Stage`] owns, so call [`Solver::split`] and
    /// start the solver [`Stage::bind`] returns.
    pub fn start(self) -> Result<SolverRun<'g>, ConfigError> {
        self.validate_flat()?;
        let host = LocalIslands::new(self.g, self.island_setups()?, self.max_threads);
        self.start_on(host)
    }

    /// Like [`Solver::start`], but on islands `host` holds — built from
    /// this solver's [`island_setups`](Solver::island_setups). The run
    /// keeps the schedule, the migration policy and the reduction; the
    /// host only advances, reads and injects islands. The thread cap is
    /// the host's business.
    pub fn start_on<H: IslandHost>(self, host: H) -> Result<SolverRun<'g, H>, ConfigError> {
        self.validate_flat()?;
        // Axis order of any Pareto front. Validation guaranteed the
        // cycled assignment covers every distinct objective of the list.
        let objectives = distinct_objectives(&self.objective_per_island());
        let (obs, migration) = match &self.obs {
            Some(registry) => {
                let obs = EngineObs::new(registry, self.migration.name(), self.islands);
                let wrapped = obs.wrap(registry, self.migration);
                (Some(obs), wrapped)
            }
            None => (None, self.migration),
        };
        Ok(SolverRun {
            g: self.g,
            host,
            base_interval: self.migration_interval,
            migration,
            reduction: self.reduction,
            objectives,
            migrations_adopted: 0,
            obs,
        })
    }

    /// [`Solver::try_validate`] plus the rejection of unsplit multilevel
    /// configurations, which do not start a flat run.
    fn validate_flat(&self) -> Result<(), ConfigError> {
        if self.multilevel.is_some() {
            return Err(ConfigError::MultilevelNotResumable);
        }
        self.try_validate()
    }

    /// Island `i`'s objective: the override list cycled over the
    /// islands, or the base objective.
    fn objective_per_island(&self) -> Vec<Objective> {
        match &self.objectives {
            Some(list) => (0..self.islands).map(|i| list[i % list.len()]).collect(),
            None => vec![self.base.objective; self.islands],
        }
    }

    /// Runs to every island's stop condition and reduces. Without
    /// [`Solver::multilevel`] this is equivalent to [`Solver::start`] +
    /// [`SolverRun::advance_epoch`] to exhaustion + [`SolverRun::harvest`]
    /// (bit-equal; both paths drive the same epoch code). With it, the
    /// ensemble runs on the coarse graph and the winner is uncoarsened
    /// with per-level refinement.
    pub fn run(self) -> Result<EnsembleResult, ConfigError> {
        self.run_with(|run| while run.advance_epoch() {})
    }

    /// Like [`Solver::run`], but the caller drives the epoch loop: `drive`
    /// receives the live [`SolverRun`] (the *coarse* run under
    /// [`Solver::multilevel`]) and advances it however it likes —
    /// streaming traces, checking deadlines, binding cancellation.
    /// Harvest (and, for multilevel, uncoarsening) happens after `drive`
    /// returns. This is [`Solver::split`] driven in this process.
    pub fn run_with<D>(self, mut drive: D) -> Result<EnsembleResult, ConfigError>
    where
        D: for<'a> FnMut(&mut SolverRun<'a>),
    {
        let (flat, stage) = self.split()?;
        let mut run = stage.bind(flat).start()?;
        drive(&mut run);
        let harvest = run.harvest();
        Ok(stage.finish(harvest))
    }

    /// Splits a validated solver into the flat solver and its [`Stage`],
    /// which builds and owns the V-cycle under [`Solver::multilevel`].
    /// Every driver starts `stage.bind(flat)` on its [`IslandHost`],
    /// drives it and hands the harvest to [`Stage::finish`].
    pub fn split(mut self) -> Result<(Solver<'g>, Stage<'g>), ConfigError> {
        self.try_validate()?;
        let vcycle = self.multilevel.take().map(|opts| {
            let opts = VcycleOpts {
                coarsen_until: opts.coarsen_until,
                refine_passes: opts.refine_passes,
                seed: self.seed,
                min_coarse_vertices: self.base.k.max(2),
            };
            Vcycle::new(self.g, opts)
        });
        let stage = Stage {
            g: self.g,
            vcycle,
            objective: self.base.objective,
            obs: self.obs.clone(),
        };
        Ok((self, stage))
    }
}

/// The V-cycle half of a [`Solver`], from [`Solver::split`].
pub struct Stage<'g> {
    g: &'g Graph,
    vcycle: Option<Vcycle<'g>>,
    /// What a winner whose trace has no objective tag is refined under.
    objective: Objective,
    obs: Option<ff_obs::Registry>,
}

impl<'g> Stage<'g> {
    /// The graph the islands search: the coarsest graph of a multilevel
    /// run, the input graph otherwise.
    pub fn graph(&self) -> &Graph {
        self.vcycle.as_ref().map_or(self.g, |vc| vc.coarsest())
    }

    /// The V-cycle, when the solver was multilevel.
    pub fn vcycle(&self) -> Option<&Vcycle<'g>> {
        self.vcycle.as_ref()
    }

    /// The flat solver from [`Solver::split`], retargeted to
    /// [`Stage::graph`].
    pub fn bind<'s>(&'s self, flat: Solver<'g>) -> Solver<'s> {
        Solver {
            g: self.graph(),
            ..flat
        }
    }

    /// Refines the bound run's harvest up the V-cycle: the winner under
    /// its island's objective, or every Pareto point under its own, then
    /// re-scored on the input graph and re-filtered (refinement can
    /// change domination). Attaches [`MultilevelInfo`]. A flat run's
    /// harvest passes through unchanged.
    pub fn finish(self, mut res: EnsembleResult) -> EnsembleResult {
        let Some(vc) = &self.vcycle else {
            return res;
        };
        let refine = |coarse: &Partition, objective| {
            let (fine, reports) = vc.refine_up(coarse, objective);
            if let Some(registry) = &self.obs {
                record_level_reports(registry, &reports);
            }
            (fine, reports)
        };
        let reports = match res.pareto.take() {
            None => {
                let tag = res.islands[res.best_island].trace.tag();
                let (fine, reports) = refine(&res.best, tag.unwrap_or(self.objective));
                res.best_value = reports.last().map_or(res.best_value, |r| r.value_after);
                res.best = fine;
                reports
            }
            Some(mut front) => {
                let mut reports = vec![Vec::new(); res.islands.len()];
                for pt in &mut front.points {
                    let (fine, island_reports) = refine(&pt.partition, pt.objective);
                    pt.values = front
                        .objectives
                        .iter()
                        .map(|o| o.evaluate(self.g, &fine))
                        .collect();
                    pt.parts = fine.num_nonempty_parts();
                    pt.partition = fine;
                    reports[pt.island] = island_reports;
                }
                let vectors: Vec<_> = front.points.iter().map(|p| p.values.clone()).collect();
                let keep = pareto_front_indices(&vectors);
                front.points = keep.iter().map(|&i| front.points[i].clone()).collect();
                let rep = front.best_under(front.objectives[0]).map(|rep| {
                    let axis = front.objectives.iter().position(|&o| o == rep.objective);
                    res.best = rep.partition.clone();
                    res.best_value = rep.values[axis.unwrap_or(0)];
                    res.best_island = rep.island;
                    std::mem::take(&mut reports[rep.island])
                });
                res.pareto = Some(front);
                rep.unwrap_or_default()
            }
        };
        res.multilevel = Some(MultilevelInfo {
            levels: vc.num_levels(),
            coarse_vertices: vc.coarsest().num_vertices(),
            reports,
        });
        res
    }
}

/// A live, resumable solver run: islands advance in lockstep epochs with
/// the migration policy exchanging molecules at each barrier. Produced by
/// [`Solver::start`] (islands in this process) or [`Solver::start_on`]
/// (any [`IslandHost`]); drive with [`SolverRun::advance_epoch`], harvest
/// with [`SolverRun::harvest`] — or their `try_` forms for fallible hosts.
///
/// ## Determinism
///
/// With a step-based stop condition the result is byte-identical across
/// repeated runs, across any [`Solver::threads`] cap and across hosts,
/// for every migration policy: island seeds are pure functions of the
/// root seed, epochs are barriers, and policies act only on barrier-time
/// island state.
pub struct SolverRun<'g, H = LocalIslands<'g>> {
    g: &'g Graph,
    host: H,
    base_interval: u64,
    migration: Box<dyn MigrationPolicy>,
    reduction: Box<dyn Reduction>,
    objectives: Vec<Objective>,
    migrations_adopted: u64,
    obs: Option<EngineObs>,
}

impl<'g, H: IslandHost> SolverRun<'g, H> {
    /// One epoch: every island advances by the policy's interval, then —
    /// unless this was the last epoch, the run has one island, or
    /// migration is off — the policy plans the barrier's exchanges and
    /// the run carries them out on the host. Returns `Ok(true)` while at
    /// least one island has work left, `Ok(false)` once all islands hit
    /// their stop conditions or a bound [`CancelToken`] fired.
    pub fn try_advance_epoch(&mut self) -> Result<bool, H::Error> {
        let epoch_start = self.obs.as_ref().map(|_| std::time::Instant::now());
        let chunk = if self.base_interval == 0 {
            u64::MAX
        } else {
            self.migration.interval(self.base_interval).max(1)
        };
        let advanced = self.host.advance(chunk)?;
        let any_more = advanced.iter().any(|&(_, more)| more);
        let adopted_before = self.migrations_adopted;
        if any_more && advanced.len() > 1 && self.base_interval > 0 {
            let statuses: Vec<IslandStatus> = advanced.iter().map(|&(status, _)| status).collect();
            // Offers stay within disjoint objective groups, so a donor
            // read at execution time holds the molecule it held at plan
            // time.
            for offer in self.migration.plan(&statuses) {
                let molecule = self.host.molecule(offer.donor)?;
                for &i in &offer.receivers {
                    if self.host.inject(i, &molecule, offer.crossover)? {
                        self.migrations_adopted += 1;
                    }
                }
            }
        }
        if let (Some(obs), Some(start)) = (&mut self.obs, epoch_start) {
            obs.record_epoch(
                start.elapsed(),
                self.migrations_adopted - adopted_before,
                &self.host,
            );
        }
        Ok(any_more)
    }

    /// Consumes the run, harvesting every island from the host and
    /// applying the configured [`Reduction`].
    pub fn try_harvest(self) -> Result<EnsembleResult, H::Error> {
        let islands = self.host.harvest()?;
        let reduced = self.reduction.reduce(self.g, &islands, &self.objectives);
        let best_island = reduced.best_island;
        // Cross-island merges only make sense within one criterion: merge
        // the primary (first) objective's islands, which for a
        // single-objective run is every island.
        let primary = self.objectives[0];
        let primary_islands = || {
            islands
                .iter()
                .filter(move |r| r.trace.tag().unwrap_or(primary) == primary)
        };
        let trace = AnytimeTrace::merged(primary_islands().map(|r| &r.trace));
        let mut best_value_per_k = BTreeMap::new();
        for r in primary_islands() {
            for (&k, &v) in &r.best_value_per_k {
                let entry = best_value_per_k.entry(k).or_insert(f64::INFINITY);
                if v < *entry {
                    *entry = v;
                }
            }
        }
        Ok(EnsembleResult {
            best: islands[best_island].best.clone(),
            best_value: islands[best_island].best_value,
            best_island,
            steps: islands.iter().map(|r| r.steps).sum(),
            migrations_adopted: self.migrations_adopted,
            trace,
            best_value_per_k,
            pareto: reduced.pareto,
            multilevel: None,
            islands,
        })
    }

    /// The distinct objectives this run optimizes, in island order of
    /// first appearance.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Migration offers adopted so far.
    pub fn migrations_adopted(&self) -> u64 {
        self.migrations_adopted
    }
}

impl<'g, H: IslandHost<Error = Infallible>> SolverRun<'g, H> {
    /// [`SolverRun::try_advance_epoch`] on a host that cannot fail.
    pub fn advance_epoch(&mut self) -> bool {
        match self.try_advance_epoch() {
            Ok(more) => more,
            Err(never) => match never {},
        }
    }

    /// [`SolverRun::try_harvest`] on a host that cannot fail.
    pub fn harvest(self) -> EnsembleResult {
        match self.try_harvest() {
            Ok(result) => result,
            Err(never) => match never {},
        }
    }
}

impl<'g> SolverRun<'g> {
    /// Binds one cooperative cancellation token to every island: when it
    /// fires, the in-flight epoch ends at each island's next step check
    /// and [`advance_epoch`](SolverRun::advance_epoch) returns `false`.
    pub fn bind_cancel(&mut self, token: CancelToken) {
        self.host.bind_cancel(&token);
    }

    /// The live island runs, in island order — read-only access for
    /// streaming taps (each island's
    /// [`trace`](FusionFissionRun::trace) is the per-island improvement
    /// stream, tagged with that island's objective).
    pub fn islands(&self) -> &[FusionFissionRun<'g>] {
        self.host.runs()
    }

    /// Whether every island has finished (stop condition or cancellation).
    pub fn finished(&self) -> bool {
        self.islands().iter().all(|r| r.finished())
    }

    /// Total steps executed so far across all islands.
    pub fn total_steps(&self) -> u64 {
        self.islands().iter().map(|r| r.steps()).sum()
    }

    /// Best objective value held at the target k so far, minimized across
    /// islands (`None` until some island first visits the target k). Only
    /// meaningful for single-objective runs — mixed-objective values are
    /// not comparable.
    pub fn best_value_at_target(&self) -> Option<f64> {
        self.islands()
            .iter()
            .filter_map(|r| r.best_at_target().map(|(v, _)| v))
            .min_by(f64::total_cmp)
    }
}
