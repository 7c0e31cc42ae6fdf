//! Where a [`SolverRun`](crate::SolverRun)'s islands live.
//!
//! The run owns the whole search schedule — epoch chunking, the
//! migration plan and its execution, the reduction — and reaches the
//! islands only through an [`IslandHost`]. [`LocalIslands`], the default,
//! keeps them in this process; a host whose islands live in other
//! processes implements the same four operations over a wire (the
//! `ff-service` coordinator does), so both run one epoch engine.

use crate::migration::IslandStatus;
use ff_core::{FusionFission, FusionFissionConfig, FusionFissionResult, FusionFissionRun};
use ff_graph::Graph;
use ff_metaheur::{AnytimeTrace, CancelToken};
use ff_partition::Partition;
use std::convert::Infallible;

/// One island as a [`Solver`](crate::Solver) configures it: what a host
/// builds island `i` from ([`Solver::island_setups`](crate::Solver::island_setups)).
#[derive(Clone, Debug)]
pub struct IslandSetup {
    /// The island's RNG seed.
    pub seed: u64,
    /// The island's search configuration (its own objective included).
    pub config: FusionFissionConfig,
    /// Warm-start partition, when the solver has one.
    pub initial: Option<Partition>,
}

/// The islands of one run, as the epoch engine sees them. Every method
/// addresses islands by their global index; results come in island
/// order.
pub trait IslandHost {
    /// Why an operation failed — a lost worker, say. In-process hosts
    /// cannot fail and use [`Infallible`].
    type Error;

    /// Advances every island by up to `steps` steps. Returns, per island,
    /// its barrier-time status and whether it has work left.
    fn advance(&mut self, steps: u64) -> Result<Vec<(IslandStatus, bool)>, Self::Error>;

    /// Island `i`'s best molecule.
    fn molecule(&mut self, i: usize) -> Result<Partition, Self::Error>;

    /// Offers `molecule` to island `i` — as a crossover partner when
    /// `crossover` is set — and reports whether the island adopted it.
    fn inject(
        &mut self,
        i: usize,
        molecule: &Partition,
        crossover: bool,
    ) -> Result<bool, Self::Error>;

    /// Finalizes every island.
    fn harvest(self) -> Result<Vec<FusionFissionResult>, Self::Error>;

    /// Island `i`'s improvement trace so far, when the host holds it.
    /// Read only by [`Solver::observe`](crate::Solver::observe).
    fn trace(&self, _i: usize) -> Option<&AnytimeTrace> {
        None
    }
}

/// The default host: island runs in this process, advanced in waves of
/// at most the solver's thread cap.
pub struct LocalIslands<'g> {
    runs: Vec<FusionFissionRun<'g>>,
    max_threads: usize,
}

impl<'g> LocalIslands<'g> {
    /// Starts one run per setup on `g`; `max_threads == 0` means one
    /// thread per island.
    pub(crate) fn new(g: &'g Graph, islands: Vec<IslandSetup>, max_threads: usize) -> Self {
        let runs = islands
            .into_iter()
            .map(|island| {
                match island.initial {
                    Some(p) => FusionFission::with_initial(g, island.config, island.seed, p),
                    None => FusionFission::new(g, island.config, island.seed),
                }
                .start()
            })
            .collect();
        LocalIslands { runs, max_threads }
    }

    /// The live island runs, in island order.
    pub(crate) fn runs(&self) -> &[FusionFissionRun<'g>] {
        &self.runs
    }

    pub(crate) fn bind_cancel(&mut self, token: &CancelToken) {
        for run in &mut self.runs {
            run.bind_cancel(token.clone());
        }
    }
}

impl IslandHost for LocalIslands<'_> {
    type Error = Infallible;

    fn advance(&mut self, steps: u64) -> Result<Vec<(IslandStatus, bool)>, Infallible> {
        let n = self.runs.len();
        let cap = if self.max_threads == 0 {
            n
        } else {
            self.max_threads
        };
        // Each island's state evolution depends only on its own seed and
        // past injections, so wave layout cannot change results.
        let mut more = vec![false; n];
        for (wave, flags) in self.runs.chunks_mut(cap).zip(more.chunks_mut(cap)) {
            std::thread::scope(|scope| {
                for (run, flag) in wave.iter_mut().zip(flags.iter_mut()) {
                    scope.spawn(move || {
                        *flag = run.advance(steps);
                    });
                }
            });
        }
        Ok(self
            .runs
            .iter()
            .zip(more)
            .map(|(run, more)| (IslandStatus::of(run), more))
            .collect())
    }

    fn molecule(&mut self, i: usize) -> Result<Partition, Infallible> {
        Ok(self.runs[i].best_molecule().clone())
    }

    fn inject(
        &mut self,
        i: usize,
        molecule: &Partition,
        crossover: bool,
    ) -> Result<bool, Infallible> {
        Ok(if crossover {
            self.runs[i].inject_crossover(molecule)
        } else {
            self.runs[i].inject(molecule)
        })
    }

    fn harvest(self) -> Result<Vec<FusionFissionResult>, Infallible> {
        Ok(self.runs.into_iter().map(|r| r.harvest()).collect())
    }

    fn trace(&self, i: usize) -> Option<&AnytimeTrace> {
        Some(self.runs[i].trace())
    }
}
