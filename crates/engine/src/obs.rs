//! Engine-side observability: registry handles and the observing
//! migration-policy wrapper behind [`Solver::observe`](crate::Solver::observe).
//!
//! Everything here is **observation-only**: the wrapper delegates
//! `name`/`interval`/`plan` verbatim and the run executes whatever `plan`
//! returns, so the decision stream — and therefore every partition byte —
//! is identical with and without observation. The test suite pins that
//! contract.

use crate::host::IslandHost;
use crate::migration::{IslandStatus, MigrationOffer, MigrationPolicy};
use ff_multilevel::LevelReport;
use ff_obs::{Counter, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bounds (ms) for epoch-advance and per-level refine timings.
const TIMING_BUCKET_MS: [f64; 5] = [1.0, 10.0, 100.0, 1000.0, 10000.0];

/// Upper bounds for trace-point improvement deltas (objective units).
const IMPROVEMENT_BUCKETS: [f64; 5] = [1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// Per-run registry handles plus the trace cursors that turn each
/// island's improvement stream into observed deltas exactly once.
pub(crate) struct EngineObs {
    epochs: Counter,
    epoch_ms: Histogram,
    accepts: Counter,
    rejects: Counter,
    improvement: Histogram,
    /// Receiver pairs planned by the policy since the last epoch record;
    /// shared with the [`ObservedPolicy`] that fills it during `plan`.
    planned: Arc<AtomicU64>,
    /// Per-island count of trace points already observed.
    cursors: Vec<usize>,
    /// Per-island last trace value, the minuend of the next delta.
    last_value: Vec<Option<f64>>,
}

impl EngineObs {
    /// Registers the engine metric families on `registry` (idempotent —
    /// several runs may share one registry) and returns fresh handles.
    pub(crate) fn new(registry: &Registry, policy: &'static str, islands: usize) -> EngineObs {
        let labels = [("policy", policy)];
        EngineObs {
            epochs: registry.counter("ff_engine_epochs_total", "Epoch barriers crossed"),
            epoch_ms: registry.histogram(
                "ff_engine_epoch_ms",
                "Wall-clock milliseconds per epoch (island waves + exchange)",
                &TIMING_BUCKET_MS,
            ),
            accepts: registry.counter_with(
                "ff_engine_migration_accepts_total",
                "Planned migration injections the receiver adopted",
                &labels,
            ),
            rejects: registry.counter_with(
                "ff_engine_migration_rejects_total",
                "Planned migration injections the receiver declined",
                &labels,
            ),
            improvement: registry.histogram(
                "ff_engine_improvement_delta",
                "Objective improvement per island trace point",
                &IMPROVEMENT_BUCKETS,
            ),
            planned: Arc::new(AtomicU64::new(0)),
            cursors: vec![0; islands],
            last_value: vec![None; islands],
        }
    }

    /// Wraps `inner` so its `plan` calls feed the offer/pair counters.
    pub(crate) fn wrap(
        &self,
        registry: &Registry,
        inner: Box<dyn MigrationPolicy>,
    ) -> Box<dyn MigrationPolicy> {
        let offers = registry.counter_with(
            "ff_engine_migration_offers_total",
            "Migration offers the policy planned at exchange barriers",
            &[("policy", inner.name())],
        );
        Box::new(ObservedPolicy {
            inner,
            offers,
            planned: self.planned.clone(),
        })
    }

    /// Records one epoch: timing, accept/reject accounting against the
    /// pairs planned since the last record, and any new trace points the
    /// host exposes.
    pub(crate) fn record_epoch(&mut self, elapsed: Duration, adopted: u64, host: &impl IslandHost) {
        self.epochs.inc();
        self.epoch_ms.observe(elapsed.as_secs_f64() * 1e3);
        let planned = self.planned.swap(0, Ordering::Relaxed);
        self.accepts.add(adopted);
        self.rejects.add(planned.saturating_sub(adopted));
        for i in 0..self.cursors.len() {
            let Some(trace) = host.trace(i) else {
                continue;
            };
            let fresh = trace.points_since(self.cursors[i]);
            for pt in fresh {
                if let Some(prev) = self.last_value[i] {
                    let delta = prev - pt.value;
                    if delta.is_finite() && delta >= 0.0 {
                        self.improvement.observe(delta);
                    }
                }
                self.last_value[i] = Some(pt.value);
            }
            self.cursors[i] += fresh.len();
        }
    }
}

/// Records per-level V-cycle refinement work from [`LevelReport`]s.
pub(crate) fn record_level_reports(registry: &Registry, reports: &[LevelReport]) {
    let refine_ms = registry.histogram(
        "ff_engine_level_refine_ms",
        "Wall-clock milliseconds per uncoarsening level (projection + refinement)",
        &TIMING_BUCKET_MS,
    );
    let moves = registry.counter(
        "ff_engine_refine_moves_total",
        "Vertex moves applied by the per-level greedy refiner",
    );
    for r in reports {
        refine_ms.observe(r.refine_ms as f64);
        moves.add(r.moves as u64);
    }
}

/// Counts offers/pairs during `plan` and otherwise delegates, so the run
/// executes exactly the unwrapped policy's plan.
struct ObservedPolicy {
    inner: Box<dyn MigrationPolicy>,
    offers: Counter,
    planned: Arc<AtomicU64>,
}

impl MigrationPolicy for ObservedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn interval(&mut self, base: u64) -> u64 {
        self.inner.interval(base)
    }

    fn plan(&mut self, islands: &[IslandStatus]) -> Vec<MigrationOffer> {
        let offers = self.inner.plan(islands);
        self.offers.add(offers.len() as u64);
        let pairs: u64 = offers.iter().map(|o| o.receivers.len() as u64).sum();
        self.planned.fetch_add(pairs, Ordering::Relaxed);
        offers
    }
}
