//! The newline-delimited-JSON wire protocol: typed requests and events,
//! each declared once.
//!
//! Every line is one JSON object. Client→server objects carry an `"op"`
//! field ([`Request`]); server→client objects carry an `"event"` field
//! ([`Event`]); journal records carry a `"record"` field
//! ([`JournalRecord`](crate::JournalRecord)). Both ends of a connection
//! and the journal share these types and one codec.
//!
//! # The schema is the reference
//!
//! Each message is declared once, in a `wire!` block below (the journal
//! records in `journal.rs`): its tag, then its fields in wire order —
//! fields are written in declaration order, and that order is part of
//! the bytes. The macro generates the type, the encoder, the strict
//! decoder and its known-field list. Each field has one presence rule:
//!
//! - `name: T` is required: an absent field is an error naming it.
//! - `name: Option<T>` is optional: omitted when `None`, `None` when absent.
//! - `name: T = default` is defaulted: absent decodes as `default`. It is
//!   always written, unless declared `= default => omit_default`, which
//!   omits it while it equals `default`.
//!
//! A present field of the wrong type or out of range is an error naming
//! the field, never its default; so is an undeclared field
//! (``submit: unknown field `objctives` ``). Leaf values share one codec
//! (`wire.rs`, which also holds the macro): integers above 2^53 travel
//! as decimal strings (a seed never rounds through f64), non-finite
//! floats as `"inf"`/`"-inf"`/`"nan"`, enums by name.
//! What a field list cannot say is a hand-written check after the
//! generated decode: the `path`|`data` choice of a graph source, the
//! molecule range checks, and a job's cross-field rules.
//!
//! **Adding a field:** declare it at its place in the wire order and add
//! a line using it to the golden corpus (`tests/fixtures/wire.ndjson`).
//! A field added after protocol v1 froze must be defaulted or `Option`,
//! so that lines from older peers, which lack it, still decode.
//!
//! See the README's "Serving" section for example lines, the
//! determinism contract and cache semantics.

use crate::cache::{GraphFormat, GraphSource};
use crate::gate::{WAIT_BUCKETS, WAIT_BUCKET_MS};
use crate::obs::{DURATION_BUCKETS, DURATION_BUCKET_MS};
use crate::wire::{parse_line, wire, Wire};
use ff_engine::MigrationPolicyId;
use ff_partition::Objective;
use serde_json::Value;

/// Wire protocol version, reported in the `hello` event.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default cooperative-scheduling quantum (steps per worker-pool permit;
/// for ensemble jobs, also the migration interval).
pub const DEFAULT_CHUNK: u64 = 512;

wire! {
    /// A partition job: everything the server needs to reproduce the result.
    ///
    /// The determinism contract: a step-budgeted job (`steps` set, no
    /// `deadline_ms`) is a pure function of `(instance content, k, objective
    /// list, seed, islands, chunk, migration policy)` — resubmitting it, on
    /// this server run or the next, yields a byte-identical final partition
    /// (and, for multi-objective jobs, an identical Pareto front).
    #[derive(Clone, Debug, PartialEq)]
    pub struct JobRequest ["op" = "submit"] check JobRequest::check {
        /// Key of a previously loaded instance.
        instance: String,
        /// Target number of parts.
        k: usize,
        /// Objective to minimize (ignored when `objectives` is set).
        objective: Objective = Objective::MCut,
        /// Root RNG seed.
        seed: u64 = 1,
        /// Per-island objective overrides (wire field `objectives`, an array
        /// of objective names): island `i` minimizes `objectives[i % len]`.
        /// More than one distinct objective makes this a Pareto job — the
        /// `done` event then carries the non-dominated front.
        objectives: Option<Vec<Objective>>,
        /// Island-migration policy (wire field `migration`:
        /// `replace` | `combine` | `adaptive`).
        migration: MigrationPolicyId = MigrationPolicyId::default() => omit_default,
        /// Step budget (per island). At least one of `steps` / `deadline_ms`
        /// is required.
        steps: Option<u64>,
        /// Wall-clock budget in milliseconds, measured from job start.
        deadline_ms: Option<u64>,
        /// Island-ensemble width (1 = a single search).
        islands: usize = 1,
        /// Cooperative quantum: steps advanced per worker-pool permit; for
        /// `islands > 1` this is also the migration interval.
        chunk: u64 = DEFAULT_CHUNK,
        /// Whether the `done` event should carry the full assignment vector.
        assignment: bool = true,
        /// Multilevel acceleration (wire field `multilevel`): coarsen the
        /// instance to at most this many vertices, run the ensemble there,
        /// then uncoarsen with per-level refinement. `Some(0)` uses the
        /// engine's default target; `None` (default) runs flat. Part of the
        /// determinism contract like every other field.
        multilevel: Option<u64>,
    }
}

impl JobRequest {
    /// A job on `instance` targeting `k` parts, with serving defaults:
    /// Mcut, seed 1, single island, chunk [`DEFAULT_CHUNK`], assignment
    /// included, and no budget (set `steps` and/or `deadline_ms` before
    /// submitting).
    pub fn new(instance: impl Into<String>, k: usize) -> Self {
        JobRequest {
            instance: instance.into(),
            k,
            objective: Objective::MCut,
            objectives: None,
            migration: MigrationPolicyId::default(),
            seed: 1,
            steps: None,
            deadline_ms: None,
            islands: 1,
            chunk: DEFAULT_CHUNK,
            assignment: true,
            multilevel: None,
        }
    }

    /// The distinct objectives this job optimizes, in island order of
    /// first appearance (a single-objective job yields one entry).
    pub fn distinct_objectives(&self) -> Vec<Objective> {
        match &self.objectives {
            None => vec![self.objective],
            Some(list) => {
                let cycled: Vec<Objective> =
                    (0..self.islands).map(|i| list[i % list.len()]).collect();
                ff_engine::distinct_objectives(&cycled)
            }
        }
    }

    /// Whether the job runs more than one distinct objective (and its
    /// `done` event therefore carries a Pareto front).
    pub fn is_pareto(&self) -> bool {
        self.distinct_objectives().len() > 1
    }

    /// Extracts and validates a job from a parsed JSON object — the
    /// shared schema behind both the NDJSON `submit` op and the HTTP
    /// `POST /jobs` body, so the two transports can never drift apart.
    ///
    /// Unknown fields are rejected with an error naming the field — a
    /// typo'd `objctives` must not silently run a different job than the
    /// client believes it submitted.
    pub fn from_value(v: &Value) -> Result<JobRequest, String> {
        Self::decode(v)
    }

    /// Serializes to the wire `submit` object — the exact bytes
    /// `Request::Submit` puts on an NDJSON connection, an HTTP client
    /// POSTs to `/jobs`, and the job journal records, so a journaled
    /// spec replays through the same strict parser it was admitted by.
    pub fn to_value(&self) -> Value {
        self.encode()
    }

    /// The cross-field rules a field list cannot express.
    fn check(self) -> Result<Self, String> {
        if self.objectives.as_ref().is_some_and(Vec::is_empty) {
            return Err("`objectives` must not be empty".into());
        }
        if self.steps.is_none() && self.deadline_ms.is_none() {
            return Err("need `steps` and/or `deadline_ms`".into());
        }
        if self.islands == 0 {
            return Err("`islands` must be at least 1".into());
        }
        if self.chunk == 0 {
            return Err("`chunk` must be at least 1".into());
        }
        if let Some(list) = &self.objectives {
            // Cycling fewer islands than the list needs would silently
            // never optimize some objective — e.g. ["cut","cut","mcut"]
            // needs 3 islands before mcut gets one.
            let needed = ff_engine::islands_to_cover(list);
            if self.islands < needed {
                return Err(format!(
                    "`objectives` needs at least {needed} islands so every \
                     distinct objective gets an island (got {})",
                    self.islands
                ));
            }
        }
        Ok(self)
    }
}

wire! {
    /// A molecule on the wire: the full assignment plus the explicit
    /// part-slot count. `parts` is [`ff_partition::Partition::num_parts`] —
    /// the *slot* count, not the non-empty count — because a best molecule
    /// can legitimately hold empty slots and both sides must rebuild the
    /// exact same partition via `Partition::from_assignment`. Combined with
    /// the inject-side canonicalization in `ff_core`, a molecule that
    /// crosses a process boundary lands bit-identically to one cloned
    /// in-process. Its fields sit directly in the enclosing message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MoleculeInfo [flat] check MoleculeInfo::check {
        /// Part id of every vertex, in vertex order.
        assignment: Vec<u32>,
        /// Part-slot count; every assignment entry is `< parts`.
        parts: usize,
    }
}

impl MoleculeInfo {
    /// The range checks: a truncated or out-of-range payload is an
    /// error, never a silently different molecule.
    fn check(self) -> Result<Self, String> {
        if self.parts == 0 {
            return Err("`parts` must be at least 1".into());
        }
        if self.assignment.is_empty() {
            return Err("`assignment` must not be empty".into());
        }
        match self
            .assignment
            .iter()
            .position(|&p| p as usize >= self.parts)
        {
            Some(i) => Err(format!(
                "part id {} at vertex {i} out of range (parts {})",
                self.assignment[i], self.parts
            )),
            None => Ok(self),
        }
    }
}

wire! {
    /// The `wstart` op: everything a worker needs to host a shard of a
    /// distributed ensemble's islands. Island `i` of the shard runs seed
    /// `seeds[i]` under `objectives[i]` with a per-island budget of `steps`.
    /// The worker performs **no internal migration** — the coordinator owns
    /// every exchange decision, which is what keeps the distributed run
    /// bit-identical to the in-process one.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WorkerStart ["op" = "wstart"] check WorkerStart::check {
        /// Coordinator-chosen session id, echoed on every session event.
        session: u64,
        /// Key of a previously loaded instance.
        instance: String,
        /// Target part count.
        k: usize,
        /// Root RNG seed of each hosted island (full-width u64s — these ride
        /// the string escape hatch above 2^53).
        seeds: Vec<u64>,
        /// Objective of each hosted island (same length as `seeds`).
        objectives: Vec<Objective>,
        /// Per-island step budget.
        steps: u64,
    }
}

impl WorkerStart {
    fn check(self) -> Result<Self, String> {
        if self.k == 0 {
            return Err("`k` must be at least 1".into());
        }
        if self.seeds.is_empty() {
            return Err("`seeds` must not be empty".into());
        }
        if self.objectives.len() != self.seeds.len() {
            return Err(format!(
                "`objectives` must list one objective per seed (got {} for {} seeds)",
                self.objectives.len(),
                self.seeds.len()
            ));
        }
        if self.steps == 0 {
            return Err("`steps` must be at least 1".into());
        }
        Ok(self)
    }
}

wire! {
    /// Per-island progress reported by a `wstate` event after an epoch.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WIslandState [] {
        /// Shard-local island index.
        island: usize,
        /// Whether the island still has budget left.
        more: bool,
        /// Best scaled energy so far — the [`MigrationPolicy`] decision
        /// input, transferred exactly (f64s print shortest-round-trip).
        ///
        /// [`MigrationPolicy`]: ff_engine::MigrationPolicy
        energy: f64,
        /// Steps executed so far.
        steps: u64,
        /// Best-at-k improvements found during this epoch, in step order.
        news: Vec<WNews>,
    }
}

wire! {
    /// One anytime improvement inside a [`WIslandState`].
    #[derive(Clone, Debug, PartialEq)]
    pub struct WNews [] {
        /// Step at which the improvement was found.
        step: u64,
        /// New best objective value at the target k.
        value: f64,
        /// Worker wall-clock since session start, in milliseconds.
        elapsed_ms: u64,
    }
}

wire! {
    /// One island's final result inside a `wharvested` event.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WIslandResult [] {
        /// Shard-local island index.
        island: usize,
        /// Best objective value at the target k.
        value: f64,
        /// Best scaled energy across all part counts.
        energy: f64,
        /// Steps executed.
        steps: u64,
        /// The final (compacted) molecule.
        molecule: MoleculeInfo,
        /// Best value seen per visited part count, ascending by k.
        per_k: Vec<(u64, f64)>,
    }
}

wire! {
    /// A client→server request.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request ["op"] check Request::check {
        /// Load a graph into the instance cache under a key.
        "load" => Load {
            /// Cache key.
            instance: String,
            /// Where the graph bytes come from (wire field `path` or `data`).
            source: GraphSource,
            /// File format (`metis` when absent).
            format: GraphFormat = GraphFormat::Metis,
        },
        /// Submit a partition job.
        "submit" => Submit(JobRequest),
        /// Cancel a running job by id.
        "cancel" => Cancel {
            /// Job id from the `accepted` event.
            job: u64,
        },
        /// Ask for server statistics.
        "stats" => Stats,
        /// Stop accepting connections and exit the serve loop.
        "shutdown" => Shutdown,
        /// Start a worker session hosting a shard of a distributed
        /// ensemble's islands (answered by `wready`).
        "wstart" => WStart(WorkerStart),
        /// Advance every island of a session by up to `steps` steps
        /// (answered by `wstate`). Epochs are numbered by the coordinator;
        /// the worker rejects out-of-order epochs, which makes crash-replay
        /// self-checking.
        "wadvance" => WAdvance {
            /// Session id from `wstart`.
            session: u64,
            /// Zero-based epoch index; must be exactly one past the last.
            epoch: u64,
            /// Steps each island advances this epoch.
            steps: u64,
        },
        /// Fetch an island's current best molecule (answered by
        /// `wmolecule`).
        "wmolecule" => WMolecule {
            /// Session id from `wstart`.
            session: u64,
            /// Shard-local island index.
            island: usize,
        },
        /// Offer a molecule to an island via the engine's `inject` /
        /// `inject_crossover` hooks (answered by `winjected`).
        "winject" => WInject {
            /// Session id from `wstart`.
            session: u64,
            /// Shard-local island index.
            island: usize,
            /// The offered molecule.
            molecule: MoleculeInfo,
            /// `true` → KaFFPaE-style combine crossover before the offer.
            crossover: bool,
        },
        /// Harvest every island's final result and end the session
        /// (answered by `wharvested`).
        "wharvest" => WHarvest {
            /// Session id from `wstart`.
            session: u64,
        },
    }
}

impl Request {
    /// Serializes to the wire object.
    pub fn to_value(&self) -> Value {
        self.encode()
    }

    /// Parses one request line. Errors are human-readable and become
    /// `error` events.
    pub fn parse(line: &str) -> Result<Request, String> {
        parse_line(line)
    }

    fn check(self) -> Result<Self, String> {
        match self {
            Request::WAdvance { steps: 0, .. } => {
                Err("wadvance: `steps` must be at least 1".into())
            }
            request => Ok(request),
        }
    }
}

/// How a job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran its full step budget.
    Completed,
    /// Stopped by a `cancel` request (or client disconnect).
    Cancelled,
    /// Stopped by its wall-clock deadline.
    Deadline,
}

impl JobStatus {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Deadline => "deadline",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<JobStatus> {
        let all = [
            JobStatus::Completed,
            JobStatus::Cancelled,
            JobStatus::Deadline,
        ];
        all.into_iter().find(|status| status.name() == name)
    }
}

wire! {
    /// One point of a multi-objective job's non-dominated front, carried in
    /// the `done` event's optional `pareto` array.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ParetoPointInfo [] {
        /// Island that produced the molecule.
        island: usize,
        /// The objective that island itself was minimizing.
        objective: Objective,
        /// The molecule scored under every objective of the job, as
        /// `(objective, value)` pairs in the job's distinct-objective order
        /// (on the wire, an object keyed by objective name).
        values: Vec<(Objective, f64)>,
        /// Non-empty parts of the molecule.
        parts: usize = 0,
        /// The part id of every vertex, if the job asked for assignments.
        assignment: Option<Vec<u32>>,
    }
}

wire! {
    /// Final result of a job, carried by the `done` event.
    #[derive(Clone, Debug, PartialEq)]
    pub struct DoneInfo ["event" = "done"] {
        /// Job id.
        job: u64,
        /// How the job ended. Cancelled/deadline jobs still carry their
        /// best-so-far solution.
        status: JobStatus,
        /// Best objective value found (for a Pareto job: the representative
        /// point's value under its own objective).
        value: f64,
        /// Non-empty parts in the returned partition.
        parts: usize,
        /// Total steps executed (summed over islands).
        steps: u64,
        /// Wall-clock from job start to completion, in milliseconds.
        elapsed_ms: u64,
        /// Migration offers adopted (ensemble jobs; 0 for a single island).
        migrations: u64 = 0,
        /// The part id of every vertex, if the job asked for it.
        assignment: Option<Vec<u32>>,
        /// The deterministic non-dominated front, for multi-objective jobs.
        pareto: Option<Vec<ParetoPointInfo>>,
    }
}

wire! {
    /// A server statistics snapshot, carried by the `stats` event. Every
    /// knob relevant to capacity planning travels with its live counter, so
    /// a dashboard needs exactly one request.
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct StatsInfo ["event" = "stats"] {
        /// Instances currently cached.
        instances: usize,
        /// Cache hits served.
        cache_hits: u64,
        /// Graph loads performed.
        cache_loads: u64,
        /// Cache entries evicted to stay within the byte budget.
        cache_evictions: u64 = 0,
        /// CSR bytes currently resident in the cache.
        cache_bytes: u64 = 0,
        /// Cache byte budget (`0` = unlimited).
        cache_budget_bytes: u64 = 0,
        /// Jobs accepted since start.
        jobs_submitted: u64,
        /// Jobs currently admitted and not yet done (queued + running).
        jobs_running: u64,
        /// Jobs finished (any status).
        jobs_done: u64,
        /// Jobs that finished cancelled (a subset of `jobs_done`).
        jobs_cancelled: u64 = 0,
        /// Jobs refused by admission control.
        jobs_rejected: u64 = 0,
        /// Admission bound on in-flight jobs (`0` = unlimited).
        max_jobs: u64 = 0,
        /// Worker-pool width (compute slots).
        workers: usize = 0,
        /// Chunks currently blocked waiting for a compute slot.
        gate_queued: usize = 0,
        /// Permit-wait histogram: completed slot acquisitions, by job
        /// drivers and worker sessions alike, bucketed by how long they
        /// blocked (`≤ 1 ms`, `≤ 10 ms`, `≤ 100 ms`, `≤ 1 s`, `> 1 s`).
        permit_wait_hist: [u64; WAIT_BUCKETS],
        /// Upper bounds (ms, inclusive) of the first `WAIT_BUCKETS - 1`
        /// permit-wait buckets, so a dashboard can label the histogram
        /// without hard-coding the server's bucket layout. Absent from
        /// older servers: then the compile-time layout.
        permit_wait_bucket_ms: [u64; WAIT_BUCKETS - 1] = WAIT_BUCKET_MS,
        /// Job-duration histogram: finished jobs bucketed by wall-clock
        /// start→done milliseconds (bounds in `job_duration_bucket_ms`,
        /// inclusive; last bucket unbounded).
        job_duration_hist: [u64; DURATION_BUCKETS] = [0; DURATION_BUCKETS],
        /// Upper bounds (ms, inclusive) of the first `DURATION_BUCKETS - 1`
        /// job-duration buckets.
        job_duration_bucket_ms: [u64; DURATION_BUCKETS - 1] = DURATION_BUCKET_MS,
    }
}

wire! {
    /// One streamed improvement: the job's best-so-far value dropped.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Improvement ["event" = "improvement"] {
        /// Job id.
        job: u64,
        /// New best objective value at the target k.
        value: f64,
        /// Step (within the finding island) at which it was found.
        step: u64,
        /// Wall-clock since job start, in milliseconds.
        elapsed_ms: u64,
        /// Index of the island that found it (0 for single-island jobs).
        island: usize = 0,
        /// Which criterion `value` measures — set on multi-objective jobs,
        /// where islands stream improvements under different objectives.
        objective: Option<Objective>,
    }
}

wire! {
    /// A server→client event.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Event ["event"] {
        /// Greeting sent on connect.
        "hello" => Hello {
            /// Protocol version ([`PROTOCOL_VERSION`]).
            proto: u64,
            /// Worker-pool width.
            workers: usize,
        },
        /// A `load` succeeded.
        "loaded" => Loaded {
            /// Cache key.
            instance: String,
            /// Vertices in the graph.
            vertices: usize,
            /// Edges in the graph.
            edges: usize,
            /// Served from cache without re-reading the source.
            cached: bool = false,
            /// Replaced a previous entry under the same key.
            reloaded: bool = false,
        },
        /// A `submit` was admitted; subsequent events reference the job id.
        "accepted" => Accepted {
            /// Assigned job id (unique per server run).
            job: u64,
            /// Instance the job runs on.
            instance: String = String::new(),
            /// Target part count.
            k: usize,
        },
        /// A `submit` was refused by admission control (the server or this
        /// connection is at its in-flight job bound). Not an error: the
        /// request was well-formed — retry after `retry_after_ms`.
        "rejected" => Rejected {
            /// Instance the refused job targeted.
            instance: String = String::new(),
            /// Which bound tripped, human-readable.
            reason: String = String::new(),
            /// Suggested client backoff before resubmitting, in ms (a load
            /// heuristic, not a promise of admission).
            retry_after_ms: u64,
            /// Jobs in flight (queued + running) at the moment of refusal.
            in_flight: u64 = 0,
        },
        /// Streamed anytime improvement.
        "improvement" => Improvement(Improvement),
        /// Job finished (in any [`JobStatus`]).
        "done" => Done(DoneInfo),
        /// Acknowledges a `cancel` request.
        "cancelling" => Cancelling {
            /// The job id the cancel targeted.
            job: u64,
            /// Whether that job was actually running here.
            known: bool = false,
        },
        /// Server statistics snapshot.
        "stats" => Stats(StatsInfo),
        /// A request failed; `job` is set when the failure is job-scoped.
        "error" => Error {
            /// Human-readable description.
            message: String = String::new(),
            /// The affected job, if any.
            job: Option<u64>,
        },
        /// Acknowledges `shutdown`.
        "bye" => Bye,
        /// A `wstart` succeeded; the session's islands are live.
        "wready" => WReady {
            /// Echoed session id.
            session: u64,
            /// Islands hosted by this session.
            islands: usize,
        },
        /// A `wadvance` completed: per-island progress for the epoch.
        "wstate" => WState {
            /// Echoed session id.
            session: u64,
            /// Echoed epoch index.
            epoch: u64,
            /// One entry per hosted island, ascending by index.
            islands: Vec<WIslandState>,
        },
        /// Answer to `wmolecule`: the island's current best molecule.
        "wmolecule" => WMolecule {
            /// Echoed session id.
            session: u64,
            /// Echoed island index.
            island: usize,
            /// The best molecule.
            molecule: MoleculeInfo,
            /// Its scaled energy.
            energy: f64,
        },
        /// Answer to `winject`: whether the offer was adopted.
        "winjected" => WInjected {
            /// Echoed session id.
            session: u64,
            /// Echoed island index.
            island: usize,
            /// Whether anything was adopted.
            adopted: bool,
        },
        /// Answer to `wharvest`: every island's final result.
        "wharvested" => WHarvested {
            /// Echoed session id.
            session: u64,
            /// One entry per hosted island, ascending by index.
            islands: Vec<WIslandResult>,
        },
    }
}

impl Event {
    /// Serializes to the wire object.
    pub fn to_value(&self) -> Value {
        self.encode()
    }

    /// Parses one event line (the client side of the protocol).
    pub fn parse(line: &str) -> Result<Event, String> {
        parse_line(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Map;

    fn num(x: f64) -> Value {
        x.encode()
    }

    fn s(text: &str) -> Value {
        Value::String(text.into())
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Load {
                instance: "web".into(),
                source: GraphSource::Path("/tmp/g.graph".into()),
                format: GraphFormat::Metis,
            },
            Request::Load {
                instance: "inline".into(),
                source: GraphSource::Data("3 3\n2 3\n1 3\n1 2\n".into()),
                format: GraphFormat::Metis,
            },
            Request::Submit(JobRequest {
                steps: Some(20_000),
                deadline_ms: Some(4_000),
                islands: 3,
                seed: 7,
                ..JobRequest::new("web", 4)
            }),
            // Multi-objective Pareto job with a non-default migration
            // policy: both new fields must survive the wire.
            Request::Submit(JobRequest {
                steps: Some(5_000),
                islands: 4,
                objectives: Some(vec![Objective::Cut, Objective::NCut, Objective::MCut]),
                migration: MigrationPolicyId::Combine,
                ..JobRequest::new("web", 4)
            }),
            // Integers above 2^53 (an "unbounded" budget, a full-width
            // seed) must round-trip exactly, not round through f64.
            Request::Submit(JobRequest {
                steps: Some(u64::MAX - 1),
                seed: u64::MAX,
                ..JobRequest::new("web", 4)
            }),
            // Multilevel jobs: both an explicit target and the 0 =
            // server-default sentinel must survive the wire.
            Request::Submit(JobRequest {
                steps: Some(5_000),
                multilevel: Some(2_000),
                ..JobRequest::new("web", 4)
            }),
            Request::Submit(JobRequest {
                steps: Some(5_000),
                multilevel: Some(0),
                ..JobRequest::new("web", 4)
            }),
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_value().to_string();
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Hello {
                proto: PROTOCOL_VERSION,
                workers: 4,
            },
            Event::Loaded {
                instance: "web".into(),
                vertices: 762,
                edges: 3444,
                cached: true,
                reloaded: false,
            },
            Event::Accepted {
                job: 3,
                instance: "web".into(),
                k: 26,
            },
            Event::Improvement(Improvement {
                job: 3,
                value: 4.25,
                step: 900,
                elapsed_ms: 15,
                island: 2,
                objective: None,
            }),
            // Non-finite objective values must survive the wire (a part
            // with no internal weight has infinite Mcut); multi-objective
            // improvements carry the finding island's criterion.
            Event::Improvement(Improvement {
                job: 3,
                value: f64::INFINITY,
                step: 1,
                elapsed_ms: 0,
                island: 0,
                objective: Some(Objective::NCut),
            }),
            Event::Done(DoneInfo {
                job: 3,
                status: JobStatus::Cancelled,
                value: 4.125,
                parts: 26,
                steps: 12_345,
                elapsed_ms: 250,
                migrations: 2,
                assignment: Some(vec![0, 1, 1, 0]),
                pareto: None,
            }),
            // A Pareto job's done event: the non-dominated front rides
            // along, objective vectors keyed by objective name.
            Event::Done(DoneInfo {
                job: 4,
                status: JobStatus::Completed,
                value: 2.0,
                parts: 4,
                steps: 40_000,
                elapsed_ms: 125,
                migrations: 1,
                assignment: Some(vec![0, 1, 0, 1]),
                pareto: Some(vec![
                    ParetoPointInfo {
                        island: 0,
                        objective: Objective::Cut,
                        values: vec![(Objective::Cut, 2.0), (Objective::MCut, f64::INFINITY)],
                        parts: 4,
                        assignment: Some(vec![0, 1, 0, 1]),
                    },
                    ParetoPointInfo {
                        island: 1,
                        objective: Objective::MCut,
                        values: vec![(Objective::Cut, 3.0), (Objective::MCut, 0.25)],
                        parts: 4,
                        assignment: None,
                    },
                ]),
            }),
            Event::Cancelling {
                job: 3,
                known: true,
            },
            Event::Rejected {
                instance: "web".into(),
                reason: "server at capacity (max 8 in-flight jobs)".into(),
                retry_after_ms: 250,
                in_flight: 8,
            },
            Event::Stats(StatsInfo {
                instances: 1,
                cache_hits: 9,
                cache_loads: 1,
                cache_evictions: 3,
                cache_bytes: 65_536,
                cache_budget_bytes: 1 << 20,
                jobs_submitted: 10,
                jobs_running: 2,
                jobs_done: 8,
                jobs_cancelled: 1,
                jobs_rejected: 4,
                max_jobs: 16,
                workers: 2,
                gate_queued: 5,
                permit_wait_hist: [7, 5, 3, 1, 0],
                permit_wait_bucket_ms: WAIT_BUCKET_MS,
                job_duration_hist: [2, 3, 1, 1, 1, 0],
                job_duration_bucket_ms: DURATION_BUCKET_MS,
            }),
            Event::Error {
                message: "unknown instance `x`".into(),
                job: Some(4),
            },
            Event::Bye,
        ];
        for ev in events {
            let line = ev.to_value().to_string();
            assert_eq!(Event::parse(&line).unwrap(), ev, "line: {line}");
        }
    }

    #[test]
    fn stats_histograms_are_rejected_by_name_not_zero_filled() {
        let with_field = |v: &Value, key: &str, val: Value| {
            let mut m = Map::new();
            for (k, x) in v.as_object().unwrap().iter() {
                m.insert(k.clone(), x.clone());
            }
            m.insert(key.to_string(), val);
            Value::Object(m)
        };
        let without_fields = |v: &Value, keys: &[&str]| {
            let mut m = Map::new();
            for (k, x) in v.as_object().unwrap().iter() {
                if !keys.contains(&k.as_str()) {
                    m.insert(k.clone(), x.clone());
                }
            }
            Value::Object(m)
        };
        let ints = |vals: &[i64]| Value::Array(vals.iter().map(|&x| num(x as f64)).collect());
        let good = Event::Stats(StatsInfo {
            jobs_submitted: 3,
            permit_wait_hist: [1, 2, 3, 4, 5],
            permit_wait_bucket_ms: WAIT_BUCKET_MS,
            job_duration_bucket_ms: DURATION_BUCKET_MS,
            ..StatsInfo::default()
        })
        .to_value();
        // A short histogram used to be silently zero-filled into a fake
        // all-fast profile; it must now be rejected by name.
        let short = with_field(&good, "permit_wait_hist", ints(&[1, 2, 3]));
        let err = Event::parse(&short.to_string()).unwrap_err();
        assert!(err.contains("permit_wait_hist"), "err: {err}");
        assert!(err.contains("5 entries"), "err: {err}");
        // An absent histogram likewise.
        let absent = without_fields(&good, &["permit_wait_hist"]);
        let err = Event::parse(&absent.to_string()).unwrap_err();
        assert!(err.contains("missing `permit_wait_hist`"), "err: {err}");
        // So does a non-integer entry.
        let bad = with_field(&good, "permit_wait_hist", ints(&[1, 2, 3, 4, -1]));
        let err = Event::parse(&bad.to_string()).unwrap_err();
        assert!(err.contains("unsigned integers"), "err: {err}");
        // The post-v1 arrays are optional-but-strict: absent falls back
        // to the server's compile-time layout, present-but-short errors.
        let old = without_fields(
            &good,
            &[
                "jobs_cancelled",
                "permit_wait_bucket_ms",
                "job_duration_hist",
                "job_duration_bucket_ms",
            ],
        );
        let Event::Stats(parsed) = Event::parse(&old.to_string()).unwrap() else {
            panic!("stats expected");
        };
        assert_eq!(parsed.permit_wait_bucket_ms, WAIT_BUCKET_MS);
        assert_eq!(parsed.job_duration_bucket_ms, DURATION_BUCKET_MS);
        assert_eq!(parsed.job_duration_hist, [0; DURATION_BUCKETS]);
        let short_new = with_field(&good, "job_duration_hist", ints(&[1]));
        let err = Event::parse(&short_new.to_string()).unwrap_err();
        assert!(err.contains("job_duration_hist"), "err: {err}");
        // String-encoded entries (the >2^53 escape hatch) still parse.
        let stringy = with_field(
            &good,
            "permit_wait_hist",
            Value::Array(vec![
                s("18446744073709551615"),
                num(2.0),
                num(3.0),
                num(4.0),
                num(5.0),
            ]),
        );
        let Event::Stats(parsed) = Event::parse(&stringy.to_string()).unwrap() else {
            panic!("stats expected");
        };
        assert_eq!(parsed.permit_wait_hist[0], u64::MAX);
    }

    #[test]
    fn worker_requests_round_trip() {
        let molecule = MoleculeInfo {
            assignment: vec![0, 2, 1, 2, 0],
            parts: 3,
        };
        let reqs = [
            // Full-width seeds must survive the wire exactly — a rounded
            // seed is a different distributed run.
            Request::WStart(WorkerStart {
                session: 5,
                instance: "web".into(),
                k: 4,
                seeds: vec![7, u64::MAX, (1 << 53) + 1],
                objectives: vec![Objective::MCut, Objective::Cut, Objective::MCut],
                steps: 20_000,
            }),
            Request::WAdvance {
                session: 5,
                epoch: 3,
                steps: 1024,
            },
            Request::WMolecule {
                session: 5,
                island: 2,
            },
            Request::WInject {
                session: 5,
                island: 0,
                molecule: molecule.clone(),
                crossover: true,
            },
            Request::WInject {
                session: 5,
                island: 1,
                molecule,
                crossover: false,
            },
            Request::WHarvest { session: 5 },
        ];
        for req in reqs {
            let line = req.to_value().to_string();
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn worker_events_round_trip() {
        let events = [
            Event::WReady {
                session: 5,
                islands: 2,
            },
            // Fresh islands hold +inf best energy — the non-finite escape
            // hatch must work on every worker-state field.
            Event::WState {
                session: 5,
                epoch: 0,
                islands: vec![
                    WIslandState {
                        island: 0,
                        more: true,
                        energy: f64::INFINITY,
                        steps: 1024,
                        news: vec![],
                    },
                    WIslandState {
                        island: 1,
                        more: false,
                        energy: 0.953125,
                        steps: 20_000,
                        news: vec![
                            WNews {
                                step: 512,
                                value: 4.25,
                                elapsed_ms: 3,
                            },
                            WNews {
                                step: 900,
                                value: f64::NEG_INFINITY,
                                elapsed_ms: 15,
                            },
                        ],
                    },
                ],
            },
            Event::WMolecule {
                session: 5,
                island: 1,
                molecule: MoleculeInfo {
                    assignment: vec![0, 1, 1, 0],
                    parts: 2,
                },
                energy: 0.953125,
            },
            Event::WInjected {
                session: 5,
                island: 0,
                adopted: true,
            },
            Event::WHarvested {
                session: 5,
                islands: vec![WIslandResult {
                    island: 0,
                    value: 4.25,
                    energy: 0.953125,
                    steps: 20_000,
                    molecule: MoleculeInfo {
                        assignment: vec![0, 1, 1, 0],
                        parts: 2,
                    },
                    per_k: vec![(2, 4.25), (3, f64::INFINITY)],
                }],
            },
        ];
        for ev in events {
            let line = ev.to_value().to_string();
            assert_eq!(Event::parse(&line).unwrap(), ev, "line: {line}");
        }
    }

    #[test]
    fn worker_ops_reject_unknown_fields_and_bad_molecules() {
        // Unknown fields named, per the strict-schema contract.
        let typo = r#"{"op":"wadvance","session":1,"epoch":0,"stesp":64}"#;
        let err = Request::parse(typo).unwrap_err();
        assert!(
            err.contains("unknown field") && err.contains("stesp"),
            "{err}"
        );
        let ev_typo = r#"{"event":"winjected","session":1,"island":0,"adoptd":true}"#;
        let err = Event::parse(ev_typo).unwrap_err();
        assert!(
            err.contains("unknown field") && err.contains("adoptd"),
            "{err}"
        );
        // Molecule payloads: out-of-range ids, type confusion, and
        // missing fields are errors, never a silently different molecule.
        let out_of_range = r#"{"op":"winject","session":1,"island":0,"assignment":[0,3],"parts":2,"crossover":false}"#;
        assert!(Request::parse(out_of_range)
            .unwrap_err()
            .contains("out of range"));
        let confused = r#"{"op":"winject","session":1,"island":0,"assignment":[0,"x"],"parts":2,"crossover":false}"#;
        assert!(Request::parse(confused)
            .unwrap_err()
            .contains("bad part id"));
        let empty = r#"{"op":"winject","session":1,"island":0,"assignment":[],"parts":2,"crossover":false}"#;
        assert!(Request::parse(empty).is_err());
        // wstart validation: per-seed objectives, non-zero k/steps.
        let mismatched = r#"{"op":"wstart","session":1,"instance":"g","k":2,"seeds":[1,2],"objectives":["cut"],"steps":10}"#;
        assert!(Request::parse(mismatched)
            .unwrap_err()
            .contains("objectives"));
        let zero_steps = r#"{"op":"wstart","session":1,"instance":"g","k":2,"seeds":[1],"objectives":["cut"],"steps":0}"#;
        assert!(Request::parse(zero_steps).unwrap_err().contains("steps"));
    }

    #[test]
    fn submit_validation_rejects_unbounded_and_degenerate_jobs() {
        let no_budget = r#"{"op":"submit","instance":"g","k":2}"#;
        assert!(Request::parse(no_budget).unwrap_err().contains("steps"));
        let zero_islands = r#"{"op":"submit","instance":"g","k":2,"steps":10,"islands":0}"#;
        assert!(Request::parse(zero_islands)
            .unwrap_err()
            .contains("islands"));
        let zero_chunk = r#"{"op":"submit","instance":"g","k":2,"steps":10,"chunk":0}"#;
        assert!(Request::parse(zero_chunk).unwrap_err().contains("chunk"));
        let empty_objectives = r#"{"op":"submit","instance":"g","k":2,"steps":10,"objectives":[]}"#;
        assert!(Request::parse(empty_objectives)
            .unwrap_err()
            .contains("objectives"));
        // Fewer islands than distinct objectives would silently drop one.
        let starved = r#"{"op":"submit","instance":"g","k":2,"steps":10,"islands":1,"objectives":["cut","mcut"]}"#;
        assert!(Request::parse(starved).unwrap_err().contains("islands"));
        let bad_policy = r#"{"op":"submit","instance":"g","k":2,"steps":10,"migration":"osmosis"}"#;
        assert!(Request::parse(bad_policy)
            .unwrap_err()
            .contains("migration"));
    }

    #[test]
    fn unknown_submit_fields_are_rejected_by_name() {
        // The satellite fix: a typo'd field must be named, not ignored.
        let typo = r#"{"op":"submit","instance":"g","k":2,"steps":10,"objctives":["cut"]}"#;
        let err = Request::parse(typo).unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        assert!(err.contains("objctives"), "{err}");
        // All documented fields still pass.
        let full = r#"{"op":"submit","instance":"g","k":2,"steps":10,"deadline_ms":50,
            "objective":"cut","objectives":["cut","ncut"],"migration":"adaptive","seed":3,
            "islands":2,"chunk":64,"assignment":false,"multilevel":500}"#
            .replace('\n', " ");
        assert!(Request::parse(&full).is_ok(), "{:?}", Request::parse(&full));
        let bad_ml = r#"{"op":"submit","instance":"g","k":2,"steps":10,"multilevel":"big"}"#;
        assert!(Request::parse(bad_ml).unwrap_err().contains("multilevel"));
    }

    #[test]
    fn malformed_lines_error_cleanly() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").unwrap_err().contains("op"));
        assert!(Request::parse(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::parse(r#"{"op":"load","instance":"a"}"#)
            .unwrap_err()
            .contains("path"));
        assert!(Event::parse(r#"{"event":"nope"}"#).is_err());
    }

    #[test]
    fn submit_defaults_match_job_request_new() {
        let line = r#"{"op":"submit","instance":"g","k":3,"steps":100}"#;
        let parsed = match Request::parse(line).unwrap() {
            Request::Submit(j) => j,
            other => panic!("wrong request {other:?}"),
        };
        let expected = JobRequest {
            steps: Some(100),
            k: 3,
            ..JobRequest::new("g", 3)
        };
        assert_eq!(parsed, expected);
    }

    /// Parses `line` with the decoder its tag selects and returns the
    /// error, which must name `field`.
    fn rejects_naming(line: &str, field: &str) {
        let err = if line.contains(r#""op""#) {
            Request::parse(line).map(|_| ())
        } else {
            Event::parse(line).map(|_| ())
        }
        .expect_err(line);
        assert!(err.contains(&format!("`{field}`")), "{line}: `{err}`");
    }

    #[test]
    fn submit_integers_of_the_wrong_shape_are_errors_not_defaults() {
        for key in ["seed", "islands", "chunk", "steps", "deadline_ms"] {
            let budget = if key == "steps" {
                "deadline_ms"
            } else {
                "steps"
            };
            for bad in ["1.5", "-3", r#""abc""#] {
                let line = format!(
                    r#"{{"op":"submit","instance":"g","k":2,"{budget}":10,"{key}":{bad}}}"#
                );
                rejects_naming(&line, key);
            }
        }
    }

    #[test]
    fn submit_assignment_must_be_a_boolean() {
        let line = r#"{"op":"submit","instance":"g","k":2,"steps":10,"assignment":"no"}"#;
        rejects_naming(line, "assignment");
    }

    #[test]
    fn improvement_objective_must_be_a_known_objective() {
        let line = r#"{"event":"improvement","job":1,"value":1.0,"step":1,"elapsed_ms":0,"objective":"bogus"}"#;
        rejects_naming(line, "objective");
    }

    #[test]
    fn improvement_island_must_be_an_index() {
        for bad in [r#""x""#, "-1", "0.5"] {
            let line = format!(
                r#"{{"event":"improvement","job":1,"value":1.0,"step":1,"elapsed_ms":0,"island":{bad}}}"#
            );
            rejects_naming(&line, "island");
        }
    }

    #[test]
    fn done_assignment_entries_must_be_part_ids() {
        for bad in [r#""x""#, "4294967296"] {
            let line = format!(
                r#"{{"event":"done","job":1,"status":"completed","value":1.0,"parts":2,"steps":1,"elapsed_ms":0,"assignment":[0,{bad}]}}"#
            );
            rejects_naming(&line, "assignment");
        }
    }

    #[test]
    fn loaded_and_cancelling_flags_must_be_booleans() {
        let loaded = |key: &str| {
            format!(r#"{{"event":"loaded","instance":"g","vertices":3,"edges":2,"{key}":"yes"}}"#)
        };
        rejects_naming(&loaded("cached"), "cached");
        rejects_naming(&loaded("reloaded"), "reloaded");
        rejects_naming(r#"{"event":"cancelling","job":1,"known":1}"#, "known");
    }

    #[test]
    fn stats_counters_must_be_integers() {
        let good = Event::Stats(StatsInfo::default()).to_value().to_string();
        for key in [
            "cache_evictions",
            "jobs_cancelled",
            "max_jobs",
            "workers",
            "instances",
        ] {
            for bad in ["1.5", "-1", r#""many""#] {
                let line =
                    good.replacen(&format!(r#""{key}":0.0"#), &format!(r#""{key}":{bad}"#), 1);
                assert_ne!(line, good, "{key} not found in {good}");
                rejects_naming(&line, key);
            }
        }
    }
}
