//! Service-side observability: the always-on metrics registry behind
//! `GET /metrics` and the extended `stats` event, plus the optional
//! structured operational logger behind `ffpart serve --log-format`.
//!
//! Every counter and histogram is recorded where its event happens —
//! submits, rejections, completions by status, job durations, connection
//! traffic here; cache hits, loads and evictions in the
//! [`InstanceCache`](crate::cache::InstanceCache); permit waits in the
//! [`FairGate`](crate::gate::FairGate) — all outside the engine's
//! RNG/chunking path. The registry is the only store of those counts:
//! the `stats` event reads them back, so it can never disagree with
//! `/metrics`. Only the point-in-time gauges are set at scrape time.
//!
//! The registry is always live (a scrape of an idle server reports
//! zeros — families are pre-registered so the catalog is visible from
//! the first scrape); only the logger is opt-in.

use crate::gate::{WAIT_BUCKETS, WAIT_BUCKET_MS};
use crate::protocol::{DoneInfo, JobStatus, StatsInfo};
use ff_obs::{Counter, Gauge, Histogram, LogValue, Logger, Registry};

/// Buckets in the job-duration histogram (the last is unbounded).
pub const DURATION_BUCKETS: usize = 6;

/// Upper bounds (inclusive, in milliseconds) of the first
/// `DURATION_BUCKETS - 1` job-duration buckets.
pub const DURATION_BUCKET_MS: [u64; DURATION_BUCKETS - 1] = [10, 100, 1_000, 10_000, 60_000];

fn ms_bounds(bounds_ms: &[u64]) -> Vec<f64> {
    bounds_ms.iter().map(|&b| b as f64).collect()
}

/// The server's metric handles plus its operational [`Logger`]. One per
/// server state; handles are cheap clones of registry series.
pub(crate) struct Metrics {
    pub(crate) registry: Registry,
    pub(crate) logger: Logger,
    /// Jobs admitted; `stats` reads its `jobs_submitted` from here.
    pub(crate) submitted: Counter,
    /// Submits refused by admission control (`stats`' `jobs_rejected`).
    pub(crate) rejected: Counter,
    completed: Counter,
    cancelled: Counter,
    deadline: Counter,
    panicked: Counter,
    job_duration_ms: Histogram,
    /// The server's [`FairGate`](crate::gate::FairGate) observes into it.
    pub(crate) permit_wait_ms: Histogram,
    // Point-in-time gauges, set by `sync`.
    cache_bytes: Gauge,
    instances: Gauge,
    jobs_in_flight: Gauge,
    gate_queued: Gauge,
    workers: Gauge,
}

impl Metrics {
    pub(crate) fn new(registry: Registry, logger: Logger) -> Metrics {
        let m = Metrics {
            completed: registry.counter_with(
                "ff_jobs_completed_total",
                "Jobs finished, by final status",
                &[("status", "completed")],
            ),
            cancelled: registry.counter_with(
                "ff_jobs_completed_total",
                "Jobs finished, by final status",
                &[("status", "cancelled")],
            ),
            deadline: registry.counter_with(
                "ff_jobs_completed_total",
                "Jobs finished, by final status",
                &[("status", "deadline")],
            ),
            panicked: registry.counter(
                "ff_jobs_panicked_total",
                "Job driver threads that panicked (slot and permit were released)",
            ),
            job_duration_ms: registry.histogram(
                "ff_job_duration_ms",
                "Wall-clock milliseconds from job start to done",
                &ms_bounds(&DURATION_BUCKET_MS),
            ),
            permit_wait_ms: registry.histogram(
                "ff_permit_wait_ms",
                "Milliseconds a job chunk or worker-session epoch blocked waiting for a compute slot",
                &ms_bounds(&WAIT_BUCKET_MS),
            ),
            submitted: registry.counter("ff_jobs_submitted_total", "Jobs admitted since start"),
            rejected: registry.counter(
                "ff_jobs_rejected_total",
                "Jobs refused by admission control",
            ),
            cache_bytes: registry.gauge("ff_cache_bytes", "CSR bytes resident in the cache"),
            instances: registry.gauge("ff_cache_instances", "Instances currently cached"),
            jobs_in_flight: registry.gauge(
                "ff_jobs_in_flight",
                "Jobs admitted and not yet done (queued + running)",
            ),
            gate_queued: registry.gauge(
                "ff_gate_queued",
                "Job chunks currently blocked waiting for a compute slot",
            ),
            workers: registry.gauge("ff_workers", "Worker-pool width (compute slots)"),
            registry,
            logger,
        };
        // Pre-register the families event-driven paths fill in later, so
        // the full catalog (connections, distributed coordination) is
        // present — at zero — from the first scrape.
        for proto in ["ndjson", "http"] {
            m.registry.counter_with(
                "ff_connections_opened_total",
                "Client connections accepted, by front-end",
                &[("proto", proto)],
            );
            m.registry.gauge_with(
                "ff_connections_open",
                "Client connections currently open, by front-end",
                &[("proto", proto)],
            );
        }
        dist_families(&m.registry);
        journal_families(&m.registry);
        m
    }

    /// Records one finished job: status-labelled completion count, the
    /// duration histogram, and the `done` span log line.
    pub(crate) fn job_done(&self, done: &DoneInfo) {
        let status = match done.status {
            JobStatus::Completed => {
                self.completed.inc();
                "completed"
            }
            JobStatus::Cancelled => {
                self.cancelled.inc();
                "cancelled"
            }
            JobStatus::Deadline => {
                self.deadline.inc();
                "deadline"
            }
        };
        self.job_duration_ms.observe(done.elapsed_ms as f64);
        self.logger.log(
            "done",
            Some(done.job),
            &[
                ("status", LogValue::Str(status)),
                ("value", LogValue::F64(done.value)),
                ("steps", LogValue::U64(done.steps)),
                ("elapsed_ms", LogValue::U64(done.elapsed_ms)),
                ("migrations", LogValue::U64(done.migrations)),
            ],
        );
    }

    /// Records a driver-thread panic: the counter plus a `panic` span
    /// line. The guard that calls this has already released the job's
    /// registry slot, so the count measures lost *results*, not lost
    /// capacity.
    pub(crate) fn job_panicked(&self, job: u64) {
        self.panicked.inc();
        self.logger
            .log("panic", Some(job), &[("released", LogValue::Bool(true))]);
    }

    /// Raises the status-labelled completion counters to what the
    /// journal replayed — [`Counter::raise_to`], so a replay can only
    /// move the scrape forward.
    pub(crate) fn replay_totals(&self, completed: u64, cancelled: u64, deadline: u64) {
        self.completed.raise_to(completed);
        self.cancelled.raise_to(cancelled);
        self.deadline.raise_to(deadline);
    }

    /// Feeds one journaled `done` duration into the histogram, so a
    /// restarted server's duration profile covers its whole history.
    pub(crate) fn replay_duration(&self, elapsed_ms: u64) {
        self.job_duration_ms.observe(elapsed_ms as f64);
    }

    /// Counts a connection open and returns a guard that counts the
    /// close when dropped.
    pub(crate) fn connection(&self, proto: &'static str) -> ConnectionGuard {
        self.registry
            .counter_with(
                "ff_connections_opened_total",
                "Client connections accepted, by front-end",
                &[("proto", proto)],
            )
            .inc();
        let open = self.registry.gauge_with(
            "ff_connections_open",
            "Client connections currently open, by front-end",
            &[("proto", proto)],
        );
        open.add(1.0);
        ConnectionGuard { open }
    }

    /// Per-bucket counts of the permit-wait histogram (the `stats`
    /// event's `permit_wait_hist`).
    pub(crate) fn permit_wait_counts(&self) -> [u64; WAIT_BUCKETS] {
        bucket_counts(&self.permit_wait_ms)
    }

    /// Per-bucket counts of the job-duration histogram (the `stats`
    /// event's `job_duration_hist`).
    pub(crate) fn job_duration_counts(&self) -> [u64; DURATION_BUCKETS] {
        bucket_counts(&self.job_duration_ms)
    }

    /// Jobs finished, whatever their status (the `stats` event's
    /// `jobs_done`).
    pub(crate) fn jobs_done(&self) -> u64 {
        self.completed.get() + self.cancelled.get() + self.deadline.get()
    }

    /// Jobs that finished cancelled (the `stats` event's counter).
    pub(crate) fn jobs_cancelled(&self) -> u64 {
        self.cancelled.get()
    }

    /// Sets the point-in-time gauges from a `stats` snapshot. Called on
    /// every `stats` request and `/metrics` scrape.
    pub(crate) fn sync(&self, st: &StatsInfo) {
        self.cache_bytes.set(st.cache_bytes as f64);
        self.instances.set(st.instances as f64);
        self.jobs_in_flight.set(st.jobs_running as f64);
        self.gate_queued.set(st.gate_queued as f64);
        self.workers.set(st.workers as f64);
    }
}

/// Per-bucket counts of a histogram with `N` buckets, `+Inf` last.
fn bucket_counts<const N: usize>(histogram: &Histogram) -> [u64; N] {
    let counts = histogram.counts();
    std::array::from_fn(|i| counts[i])
}

/// Decrements the per-front-end open-connections gauge on drop.
pub(crate) struct ConnectionGuard {
    open: Gauge,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.open.add(-1.0);
    }
}

/// Bucket bounds for the distributed coordinator's replay-length
/// histogram (ops replayed into a respawned worker).
const REPLAY_BUCKETS: [f64; 5] = [1.0, 10.0, 100.0, 1000.0, 10000.0];

/// Registers the distributed-coordinator metric families on `registry`
/// (zero-valued until a coordinator runs with this registry via
/// [`DistOpts::obs`](crate::dist::DistOpts)). Idempotent.
pub(crate) fn dist_families(registry: &Registry) {
    for kind in ["dead", "timeout", "corrupt"] {
        registry.counter_with(
            "ff_dist_wire_failures_total",
            "Worker wire failures observed by the coordinator, by kind",
            &[("kind", kind)],
        );
    }
    registry.counter(
        "ff_dist_respawns_total",
        "Workers respawned/reconnected after a wire failure",
    );
    registry.histogram(
        "ff_dist_replay_ops",
        "Ops replayed into a freshly respawned worker",
        &REPLAY_BUCKETS,
    );
}

/// Records one wire failure: the by-kind counter plus the length of the
/// op log about to be replayed.
pub(crate) fn dist_wire_failure(registry: &Registry, kind: &'static str, replay_ops: usize) {
    registry
        .counter_with(
            "ff_dist_wire_failures_total",
            "Worker wire failures observed by the coordinator, by kind",
            &[("kind", kind)],
        )
        .inc();
    registry
        .histogram(
            "ff_dist_replay_ops",
            "Ops replayed into a freshly respawned worker",
            &REPLAY_BUCKETS,
        )
        .observe(replay_ops as f64);
}

/// Counts one worker respawn/reconnect attempt.
pub(crate) fn dist_respawn(registry: &Registry) {
    registry
        .counter(
            "ff_dist_respawns_total",
            "Workers respawned/reconnected after a wire failure",
        )
        .inc();
}

/// Sets the per-worker epoch gauge — the coordinator updates it as each
/// shard's `wadvance` completes, so a dashboard can read epoch lag
/// (max − min across workers) directly.
pub(crate) fn dist_worker_epoch(registry: &Registry, worker: usize, epoch: u64) {
    registry
        .gauge_with(
            "ff_dist_worker_epoch",
            "Lockstep epoch each worker has completed",
            &[("worker", &worker.to_string())],
        )
        .set(epoch as f64);
}

/// Registers the journal metric families on `registry` so they render —
/// at zero — from the first scrape, journal or no journal. Idempotent.
pub(crate) fn journal_families(registry: &Registry) {
    for kind in ["instance", "submitted", "event"] {
        journal_record_counter(registry, kind);
    }
    journal_write_errors(registry);
    journal_replayed_records(registry);
    for outcome in ["finished", "resumed", "skipped"] {
        journal_replay_jobs(registry, outcome);
    }
}

/// The by-kind appended-records counter.
pub(crate) fn journal_record_counter(registry: &Registry, kind: &'static str) -> Counter {
    registry.counter_with(
        "ff_journal_records_total",
        "Journal records appended, by kind",
        &[("kind", kind)],
    )
}

/// Appends that failed (the journal may be missing recent history).
pub(crate) fn journal_write_errors(registry: &Registry) -> Counter {
    registry.counter(
        "ff_journal_write_errors_total",
        "Journal appends that failed; recent history may be missing from the journal",
    )
}

/// Intact records read back at startup replay.
pub(crate) fn journal_replayed_records(registry: &Registry) -> Counter {
    registry.counter(
        "ff_journal_replayed_records_total",
        "Intact journal records read at startup replay",
    )
}

/// The by-outcome replayed-jobs counter (`finished` restored without
/// re-execution, `resumed` re-executed, `skipped` invalidated).
pub(crate) fn journal_replay_jobs(registry: &Registry, outcome: &'static str) -> Counter {
    registry.counter_with(
        "ff_journal_replay_jobs_total",
        "Jobs seen at journal replay, by outcome",
        &[("outcome", outcome)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_obs::parse_exposition;

    fn done(status: JobStatus, elapsed_ms: u64) -> DoneInfo {
        DoneInfo {
            job: 1,
            status,
            value: 0.5,
            parts: 2,
            steps: 100,
            elapsed_ms,
            migrations: 0,
            assignment: None,
            pareto: None,
        }
    }

    #[test]
    fn idle_server_catalog_is_complete_and_zero() {
        let m = Metrics::new(Registry::new(), Logger::off());
        // The server's cache registers its counters on the same registry.
        let _cache = crate::cache::InstanceCache::with_budget(0, &m.registry);
        m.sync(&StatsInfo::default());
        let page = m.registry.render();
        let samples = parse_exposition(&page).unwrap();
        for family in [
            "ff_jobs_submitted_total",
            "ff_jobs_completed_total",
            "ff_jobs_rejected_total",
            "ff_cache_loads_total",
            "ff_connections_opened_total",
            "ff_dist_respawns_total",
            "ff_dist_wire_failures_total",
            "ff_journal_records_total",
            "ff_journal_replay_jobs_total",
            "ff_jobs_panicked_total",
        ] {
            assert!(
                samples.iter().any(|s| s.name == family),
                "{family} missing from idle scrape"
            );
        }
        assert!(samples
            .iter()
            .filter(|s| s.name.ends_with("_total"))
            .all(|s| s.value == 0.0));
    }

    #[test]
    fn job_done_feeds_status_counters_and_duration_histogram() {
        let m = Metrics::new(Registry::new(), Logger::off());
        m.job_done(&done(JobStatus::Completed, 5));
        m.job_done(&done(JobStatus::Completed, 500));
        m.job_done(&done(JobStatus::Cancelled, 50));
        assert_eq!(m.jobs_cancelled(), 1);
        let counts = m.job_duration_counts();
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert_eq!(counts[0], 1); // ≤ 10 ms
        assert_eq!(counts[1], 1); // ≤ 100 ms
        assert_eq!(counts[2], 1); // ≤ 1 s
    }

    #[test]
    fn connection_guard_tracks_open_count() {
        let m = Metrics::new(Registry::new(), Logger::off());
        let a = m.connection("ndjson");
        let b = m.connection("ndjson");
        let _c = m.connection("http");
        drop(a);
        drop(b);
        let page = m.registry.render();
        assert!(
            page.contains("ff_connections_open{proto=\"http\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("ff_connections_open{proto=\"ndjson\"} 0"),
            "{page}"
        );
        assert!(
            page.contains("ff_connections_opened_total{proto=\"ndjson\"} 2"),
            "{page}"
        );
    }
}
