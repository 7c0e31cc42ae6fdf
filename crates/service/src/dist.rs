//! Distributed islands: the engine's one epoch loop, with the islands
//! hosted by worker processes.
//!
//! ## One engine, two hosts
//!
//! A [`SolverRun`](ff_engine::SolverRun) owns the whole search schedule
//! — epoch chunking, the migration plan and its execution, the reduction
//! — and reaches its islands only through an [`IslandHost`]. In-process
//! the host is [`ff_engine::LocalIslands`]. Here it is a coordinator-side
//! host that shards the islands across worker processes and carries the
//! same four operations over `w*` NDJSON ops:
//!
//! ```text
//!   coordinator (SolverRun: schedule, MigrationPolicy, Reduction)
//!      │ NDJSON: load, wstart, then per epoch wadvance / wmolecule / winject
//!      ├──────────────┬──────────────┐
//!   worker 0       worker 1       worker 2     (spawned `ffpart worker`
//!   islands 0,3    islands 1,4    islands 2,5   processes, or remote
//!                                               `ffpart serve` servers)
//! ```
//!
//! Islands are assigned round-robin (`island i → worker i mod W`); each
//! worker hosts its shard in one session whose islands are built by the
//! one island configuration the wire can express ([`wire_setups`] checks
//! a [`Solver`] against it). An epoch writes `wadvance` to every shard
//! before it reads any reply, so the shards compute their epochs at the
//! same time; replies are read in worker order, so improvement callbacks
//! arrive in the same order however the shards are timed. Migration
//! molecules cross process boundaries as assignment vectors.
//!
//! A multilevel run is split the same way in both hosts
//! ([`Solver::split`]): the coordinator coarsens, ships the coarse graph
//! to every shard through the ordinary `load` (METIS text, which carries
//! every f64 weight exactly), drives the islands on it, and refines the
//! harvest back to the input graph.
//!
//! ## Determinism contract
//!
//! An island's state is a pure function of its seed and injection
//! history, and injected molecules are canonicalized from their
//! assignment on arrival — so a distributed run is **byte-identical**
//! to the in-process [`Solver`] run with the same seeds, per-island
//! objectives, step budget and migration interval, for any worker count
//! or layout.
//!
//! ## Fault tolerance (crash–replay)
//!
//! Every state-changing op (`load`, `wstart`, each completed `wadvance`
//! and `winject`) is appended to a per-worker op log *after* its reply
//! arrives. When a worker dies, stalls past the reply timeout, or
//! returns a corrupt line, the coordinator kills it, spawns a fresh
//! one, replays the log (cheap deterministic recompute; replayed
//! replies are discarded so improvement callbacks never fire twice),
//! and re-sends the in-flight op. Purity of the island state makes the
//! replayed worker indistinguishable from the lost one, which is what
//! keeps the byte-identical contract intact *under* faults.

use crate::sync::lock;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ff_core::FusionFissionResult;
use ff_engine::{
    EnsembleResult, IslandHost, IslandSetup, IslandStatus, MigrationPolicyId, ParetoFront, Solver,
};
use ff_graph::io::write_metis;
use ff_graph::Graph;
use ff_metaheur::AnytimeTrace;
use ff_partition::{Objective, Partition};

use crate::cache::{GraphFormat, GraphSource};
use crate::protocol::{Event, MoleculeInfo, Request, WNews, WorkerStart};
use crate::wsession::island_config;

/// What to solve, distributed. `seeds` and `objectives` are the full
/// per-island lists in global island order; [`solve_distributed`] turns
/// them into the equivalent [`Solver`].
#[derive(Clone, Debug)]
pub struct DistSpec {
    /// Cache key the workers load the instance under.
    pub instance: String,
    /// Where each worker gets the graph bytes (a path for local
    /// spawned workers, inline data for remote servers).
    pub source: GraphSource,
    /// File format of `source`.
    pub format: GraphFormat,
    /// Target part count.
    pub k: usize,
    /// Step budget per island.
    pub steps: u64,
    /// Per-island seeds (length = island count).
    pub seeds: Vec<u64>,
    /// Per-island objectives (same length as `seeds`, already cycled).
    pub objectives: Vec<Objective>,
    /// Base migration interval in steps (`0` = no migration).
    pub interval: u64,
    /// Migration policy, instantiated coordinator-side.
    pub migration: MigrationPolicyId,
    /// Reduce with [`ParetoFront`] instead of the default min-energy rule.
    pub pareto: bool,
}

/// Where the workers come from.
#[derive(Clone, Debug)]
pub enum WorkerSet {
    /// Spawn `count` local processes running `cmd` (argv vector) and
    /// speak NDJSON over their stdin/stdout.
    Spawn { cmd: Vec<String>, count: usize },
    /// Connect to already-running NDJSON servers.
    Connect { addrs: Vec<String> },
}

/// Coordinator knobs. The defaults suit production; the fault-injection
/// tests shorten `reply_timeout` and watch `pids`.
#[derive(Clone, Debug)]
pub struct DistOpts {
    /// How long to wait for any single reply before declaring the
    /// worker hung and respawning it. Generous by default — a legal
    /// epoch can run `interval` steps of real optimization.
    pub reply_timeout: Duration,
    /// Respawn/reconnect budget per worker before giving up.
    pub max_respawns: usize,
    /// Extra environment for spawned workers (the fault-injection hook:
    /// set `FFPART_FAULT` here).
    pub env: Vec<(String, String)>,
    /// When set, every spawned worker's pid is pushed here — lets a
    /// test `kill -9` a live worker mid-run.
    pub pids: Option<Arc<Mutex<Vec<u32>>>>,
    /// When set, the coordinator records its metrics here: respawns,
    /// wire failures by kind, replay lengths, per-worker epoch lag.
    /// Observation-only — the result bytes are identical either way.
    pub obs: Option<ff_obs::Registry>,
    /// Structured span logging (`epoch` / `fault` events). Defaults to
    /// [`ff_obs::Logger::off`].
    pub logger: ff_obs::Logger,
}

impl Default for DistOpts {
    fn default() -> DistOpts {
        DistOpts {
            reply_timeout: Duration::from_secs(600),
            max_respawns: 3,
            env: Vec::new(),
            pids: None,
            obs: None,
            logger: ff_obs::Logger::off(),
        }
    }
}

/// Runs `spec` across `workers`: the [`Solver`] with `spec`'s seeds,
/// objectives, budget, interval, policy and reduction, driven by
/// [`solve_on_workers`]. `g` is the coordinator's own copy of the
/// instance (for molecule reconstruction and the reduction); it must be
/// the graph `spec.source` describes. `on_news` receives each island
/// improvement exactly once (global island index + point), replays
/// excluded.
pub fn solve_distributed(
    g: &Graph,
    spec: &DistSpec,
    workers: &WorkerSet,
    opts: &DistOpts,
    on_news: &mut dyn FnMut(usize, &WNews),
) -> Result<EnsembleResult, String> {
    if spec.objectives.len() != spec.seeds.len() {
        return Err("one objective per island required".into());
    }
    let mut solver = Solver::on(g)
        .k(spec.k)
        .steps(spec.steps)
        .islands(spec.seeds.len())
        .island_seeds(spec.seeds.clone())
        .objectives(spec.objectives.clone())
        .migration_interval(spec.interval)
        .migration(spec.migration.build());
    if spec.pareto {
        solver = solver.reduction(ParetoFront);
    }
    solve_on_workers(
        solver,
        &spec.instance,
        &spec.source,
        spec.format,
        workers,
        opts,
        on_news,
    )
}

/// Runs `solver` with its islands hosted by `workers`, which load the
/// instance from `source` under the cache key `instance`, and returns
/// the [`EnsembleResult`] the in-process run returns. Refuses what
/// [`wire_setups`] refuses. `on_news` receives each island improvement
/// exactly once (global island index + point), replays excluded.
/// A multilevel run's coarse graph is loaded under a key of its own, so a
/// server caching the fine instance under `instance` keeps it.
pub fn solve_on_workers(
    solver: Solver<'_>,
    instance: &str,
    source: &GraphSource,
    format: GraphFormat,
    workers: &WorkerSet,
    opts: &DistOpts,
    on_news: &mut dyn FnMut(usize, &WNews),
) -> Result<EnsembleResult, String> {
    let setups = wire_setups(&solver)?;
    let (flat, stage) = solver.split().map_err(|e| e.to_string())?;
    if let Some(registry) = &opts.obs {
        // Pre-register the coordinator's metric families so a clean run
        // still exposes the full catalog (failure counters at zero).
        crate::obs::dist_families(registry);
    }
    let (instance, source, format) = match stage.vcycle().filter(|vc| vc.num_levels() > 0) {
        Some(vc) => {
            // The key names what the coarse graph depends on.
            let o = vc.opts();
            let key = format!(
                "{instance}#coarse:{}:{}:{}",
                o.coarsen_until, o.seed, o.min_coarse_vertices
            );
            let mut text = Vec::new();
            write_metis(vc.coarsest(), &mut text).map_err(|e| e.to_string())?;
            let text = String::from_utf8(text).map_err(|e| e.to_string())?;
            (key, GraphSource::Data(text), GraphFormat::Metis)
        }
        None => (instance.to_string(), source.clone(), format),
    };
    let load = Request::Load {
        instance: instance.clone(),
        source,
        format,
    };
    let conns = open_shards(&setups, load, &instance, workers, opts)?;
    let host = RemoteIslands {
        g: stage.graph(),
        conns,
        objectives: setups.iter().map(|s| s.config.objective).collect(),
        traces: setups
            .iter()
            .map(|s| AnytimeTrace::with_tag(s.config.objective))
            .collect(),
        epoch: 0,
        opts,
        on_news,
    };
    let mut run = stage.bind(flat).start_on(host).map_err(|e| e.to_string())?;
    while run.try_advance_epoch()? {}
    let harvest = run.try_harvest()?;
    Ok(stage.finish(harvest))
}

/// The islands `solver` starts, checked against what a worker session
/// can host: each must be exactly the one configuration the wire
/// expresses — the standard parameters for `k`, its objective and a pure
/// step budget — with no warm start. Every refusal to distribute a
/// configuration comes from here.
pub fn wire_setups(solver: &Solver<'_>) -> Result<Vec<IslandSetup>, String> {
    let setups = solver
        .island_setups()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    for setup in &setups {
        let cfg = setup.config;
        if cfg.stop.max_time != Duration::MAX {
            return Err(
                "distributed islands need a pure step budget (a step count, no time limit)".into(),
            );
        }
        if setup.initial.is_some() {
            return Err("distributed islands cannot warm-start from a partition".into());
        }
        if cfg != island_config(cfg.k, cfg.objective, cfg.stop.max_steps) {
            return Err(
                "distributed islands run the standard search parameters only (k, objective \
                 and step budget)"
                    .into(),
            );
        }
    }
    Ok(setups)
}

/// Round-robin placement: island `i` lives on worker `i % workers`, at
/// shard-local index `i / workers`.
fn place(island: usize, workers: usize) -> (usize, usize) {
    (island % workers, island / workers)
}

/// Connects one worker per shard (never more than there are islands),
/// loads the instance on each and starts its session, all logged for
/// replay.
fn open_shards(
    setups: &[IslandSetup],
    load: Request,
    instance: &str,
    workers: &WorkerSet,
    opts: &DistOpts,
) -> Result<Vec<WorkerConn>, String> {
    let Some(first) = setups.first() else {
        return Err("distributed run needs at least one island".into());
    };
    let targets = make_targets(workers, opts)?;
    let w_eff = targets.len().min(setups.len());
    let mut conns = Vec::with_capacity(w_eff);
    for (w, target) in targets.into_iter().take(w_eff).enumerate() {
        conns.push(WorkerConn::open(w, target, opts)?);
    }
    for i in 0..setups.len() {
        conns[place(i, w_eff).0].islands.push(i);
    }
    for conn in &mut conns {
        match conn.call_logged(load.clone(), opts, true)? {
            Event::Loaded { .. } => {}
            other => return Err(conn.unexpected("loaded", &other)),
        }
        let start = Request::WStart(WorkerStart {
            session: conn.session,
            instance: instance.to_string(),
            k: first.config.k,
            seeds: conn.islands.iter().map(|&i| setups[i].seed).collect(),
            objectives: conn
                .islands
                .iter()
                .map(|&i| setups[i].config.objective)
                .collect(),
            steps: first.config.stop.max_steps,
        });
        match conn.call_logged(start, opts, true)? {
            Event::WReady { islands, .. } if islands == conn.islands.len() => {}
            other => return Err(conn.unexpected("wready", &other)),
        }
    }
    Ok(conns)
}

/// The coordinator-side [`IslandHost`]: islands sharded over worker
/// sessions, each operation carried as `w*` ops.
struct RemoteIslands<'a> {
    /// The coordinator's copy of the instance.
    g: &'a Graph,
    conns: Vec<WorkerConn>,
    /// Each island's objective, in global order (statuses carry it).
    objectives: Vec<Objective>,
    /// Each island's improvement trace, rebuilt from `wstate` news.
    traces: Vec<AnytimeTrace>,
    /// The next `wadvance` epoch.
    epoch: u64,
    opts: &'a DistOpts,
    on_news: &'a mut dyn FnMut(usize, &WNews),
}

impl IslandHost for RemoteIslands<'_> {
    type Error = String;

    fn advance(&mut self, steps: u64) -> Result<Vec<(IslandStatus, bool)>, String> {
        let epoch = self.epoch;
        let request = |conn: &WorkerConn| Request::WAdvance {
            session: conn.session,
            epoch,
            steps,
        };
        // Every shard gets its `wadvance` before any reply is read, so
        // the shards run the epoch concurrently.
        let sent: Vec<Result<(), WireFail>> = self
            .conns
            .iter_mut()
            .map(|conn| conn.send(&request(conn)))
            .collect();
        let mut advanced = vec![None; self.objectives.len()];
        for (conn, sent) in self.conns.iter_mut().zip(sent) {
            let first = sent.and_then(|()| conn.recv(self.opts.reply_timeout));
            match conn.settle(request(conn), first, self.opts, true)? {
                Event::WState { islands, .. } => {
                    for st in islands {
                        let gi = conn.global(st.island)?;
                        for news in &st.news {
                            self.traces[gi].record(
                                Duration::from_millis(news.elapsed_ms),
                                news.value,
                                news.step,
                            );
                            (self.on_news)(gi, news);
                        }
                        let status = IslandStatus {
                            objective: self.objectives[gi],
                            best_energy: st.energy,
                        };
                        advanced[gi] = Some((status, st.more));
                    }
                }
                other => return Err(conn.unexpected("wstate", &other)),
            }
            // Each shard's gauge advances as its `wadvance` completes,
            // so a scrape mid-epoch reads the true lag (max − min).
            if let Some(registry) = &self.opts.obs {
                crate::obs::dist_worker_epoch(registry, conn.session as usize, epoch);
            }
        }
        let advanced: Vec<(IslandStatus, bool)> = advanced
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.ok_or(format!("worker omitted island {i} from epoch {epoch}")))
            .collect::<Result<_, _>>()?;
        let live = advanced.iter().filter(|&&(_, more)| more).count();
        self.opts.logger.log(
            "epoch",
            None,
            &[
                ("epoch", ff_obs::LogValue::U64(epoch)),
                ("workers", ff_obs::LogValue::U64(self.conns.len() as u64)),
                ("live_islands", ff_obs::LogValue::U64(live as u64)),
            ],
        );
        self.epoch += 1;
        Ok(advanced)
    }

    /// The fetch is read-only (not logged); the injections it feeds
    /// carry the molecule bytes in the log, which is what makes replay
    /// self-contained.
    fn molecule(&mut self, i: usize) -> Result<Partition, String> {
        let (w, local) = place(i, self.conns.len());
        let conn = &mut self.conns[w];
        let req = Request::WMolecule {
            session: conn.session,
            island: local,
        };
        match conn.call_logged(req, self.opts, false)? {
            Event::WMolecule { molecule, .. } => partition_of(self.g, molecule),
            other => Err(conn.unexpected("wmolecule", &other)),
        }
    }

    fn inject(&mut self, i: usize, molecule: &Partition, crossover: bool) -> Result<bool, String> {
        let (w, local) = place(i, self.conns.len());
        let conn = &mut self.conns[w];
        let req = Request::WInject {
            session: conn.session,
            island: local,
            molecule: MoleculeInfo {
                assignment: molecule.assignment().to_vec(),
                parts: molecule.num_parts(),
            },
            crossover,
        };
        match conn.call_logged(req, self.opts, true)? {
            Event::WInjected { adopted, .. } => Ok(adopted),
            other => Err(conn.unexpected("winjected", &other)),
        }
    }

    /// The harvest is deliberately *not* logged: a worker lost
    /// mid-harvest is replayed to the same epoch and asked again.
    fn harvest(mut self) -> Result<Vec<FusionFissionResult>, String> {
        let mut islands: Vec<Option<FusionFissionResult>> =
            (0..self.objectives.len()).map(|_| None).collect();
        for conn in &mut self.conns {
            let req = Request::WHarvest {
                session: conn.session,
            };
            match conn.call_logged(req, self.opts, false)? {
                Event::WHarvested {
                    islands: results, ..
                } => {
                    // Each island's result is its wire harvest plus the
                    // trace accumulated epoch by epoch.
                    for r in results {
                        let gi = conn.global(r.island)?;
                        islands[gi] = Some(FusionFissionResult {
                            best: partition_of(self.g, r.molecule)?,
                            best_value: r.value,
                            best_energy: r.energy,
                            steps: r.steps,
                            trace: std::mem::take(&mut self.traces[gi]),
                            best_value_per_k: r
                                .per_k
                                .iter()
                                .map(|&(k, v)| (k as usize, v))
                                .collect(),
                        });
                    }
                }
                other => return Err(conn.unexpected("wharvested", &other)),
            }
        }
        for conn in self.conns {
            conn.close();
        }
        islands
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.ok_or(format!("worker omitted island {i} from its harvest")))
            .collect()
    }
}

/// A molecule received from a worker, checked against the instance.
fn partition_of(g: &Graph, molecule: MoleculeInfo) -> Result<Partition, String> {
    if molecule.assignment.len() != g.num_vertices() {
        return Err(format!(
            "worker molecule has {} vertices, instance has {}",
            molecule.assignment.len(),
            g.num_vertices()
        ));
    }
    Ok(Partition::from_assignment(
        g,
        molecule.assignment,
        molecule.parts,
    ))
}

/// One worker's connection recipe, kept for respawn/reconnect.
#[derive(Clone)]
enum Target {
    Spawn {
        cmd: Vec<String>,
        env: Vec<(String, String)>,
    },
    Addr(String),
}

fn make_targets(workers: &WorkerSet, opts: &DistOpts) -> Result<Vec<Target>, String> {
    match workers {
        WorkerSet::Spawn { cmd, count } => {
            if cmd.is_empty() {
                return Err("empty worker command".into());
            }
            if *count == 0 {
                return Err("worker count must be at least 1".into());
            }
            Ok(vec![
                Target::Spawn {
                    cmd: cmd.clone(),
                    env: opts.env.clone(),
                };
                *count
            ])
        }
        WorkerSet::Connect { addrs } => {
            if addrs.is_empty() {
                return Err("no worker addresses given".into());
            }
            Ok(addrs.iter().cloned().map(Target::Addr).collect())
        }
    }
}

/// How a single call can fail on the wire — each answer is "kill the
/// worker and replay" (even `Corrupt`, where the worker may in fact be
/// healthy: a replayed worker is cheap, an untrusted one is not).
enum WireFail {
    Dead(String),
    Timeout,
    Corrupt(String),
}

struct WorkerConn {
    /// Session id on the worker (= worker index; sessions are
    /// per-connection so ids need only be unique within one).
    session: u64,
    label: String,
    target: Target,
    child: Option<Child>,
    writer: Box<dyn Write + Send>,
    rx: Receiver<io::Result<String>>,
    /// Global island indices hosted by this worker, ascending; position
    /// = the worker's local island index.
    islands: Vec<usize>,
    /// Replayable op log: `load`, `wstart`, every *completed* `wadvance`
    /// and `winject`, in order.
    history: Vec<Request>,
    respawns: usize,
}

impl WorkerConn {
    fn open(index: usize, target: Target, opts: &DistOpts) -> Result<WorkerConn, String> {
        let label = match &target {
            Target::Spawn { cmd, .. } => format!("worker {index} ({})", cmd[0]),
            Target::Addr(addr) => format!("worker {index} ({addr})"),
        };
        let (child, writer, rx) = connect(&target, opts)?;
        let mut conn = WorkerConn {
            session: index as u64,
            label,
            target,
            child,
            writer,
            rx,
            islands: Vec::new(),
            history: Vec::new(),
            respawns: 0,
        };
        conn.handshake(opts)
            .map_err(|f| format!("{}: {}", conn.label, f.describe()))?;
        Ok(conn)
    }

    /// Maps a worker-local island index to the global one.
    fn global(&self, local: usize) -> Result<usize, String> {
        self.islands
            .get(local)
            .copied()
            .ok_or(format!("{}: reported unknown island {local}", self.label))
    }

    fn unexpected(&self, wanted: &str, got: &Event) -> String {
        format!("{}: expected `{wanted}` reply, got {:?}", self.label, got)
    }

    /// Writes one request line.
    fn send(&mut self, req: &Request) -> Result<(), WireFail> {
        let line = req.to_value().to_string();
        writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .map_err(|_| WireFail::Dead("write failed (pipe closed)".into()))
    }

    /// Reads one event line.
    fn recv(&mut self, timeout: Duration) -> Result<Event, WireFail> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(line)) => Event::parse(line.trim()).map_err(WireFail::Corrupt),
            Ok(Err(e)) => Err(WireFail::Dead(e.to_string())),
            Err(RecvTimeoutError::Timeout) => Err(WireFail::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                Err(WireFail::Dead("reader thread exited".into()))
            }
        }
    }

    /// One request/reply round, no recovery.
    fn call(&mut self, req: &Request, timeout: Duration) -> Result<Event, WireFail> {
        self.send(req)?;
        self.recv(timeout)
    }

    /// A reliable call: see [`WorkerConn::settle`].
    fn call_logged(&mut self, req: Request, opts: &DistOpts, log: bool) -> Result<Event, String> {
        let first = self.call(&req, opts.reply_timeout);
        self.settle(req, first, opts, log)
    }

    /// Completes a call whose first attempt already ran: on any wire
    /// failure the worker is respawned, its op log replayed, and `req`
    /// re-sent — repeated within the respawn budget. An `error` *event*
    /// is not a wire failure; it means a healthy worker rejected the op,
    /// which is fatal. When `log` is set, a completed `req` is appended
    /// to the replay log.
    fn settle(
        &mut self,
        req: Request,
        mut attempt: Result<Event, WireFail>,
        opts: &DistOpts,
        log: bool,
    ) -> Result<Event, String> {
        loop {
            match attempt {
                Ok(Event::Error { message, .. }) => {
                    return Err(format!("{}: {message}", self.label))
                }
                Ok(event) => {
                    if log {
                        self.history.push(req);
                    }
                    return Ok(event);
                }
                Err(fail) => {
                    eprintln!(
                        "ffpart: {}: {}; respawning and replaying {} ops",
                        self.label,
                        fail.describe(),
                        self.history.len()
                    );
                    if let Some(registry) = &opts.obs {
                        crate::obs::dist_wire_failure(registry, fail.kind(), self.history.len());
                    }
                    opts.logger.log(
                        "fault",
                        None,
                        &[
                            ("worker", ff_obs::LogValue::U64(self.session)),
                            ("kind", ff_obs::LogValue::Str(fail.kind())),
                            ("detail", ff_obs::LogValue::Str(&fail.describe())),
                            (
                                "replay_ops",
                                ff_obs::LogValue::U64(self.history.len() as u64),
                            ),
                        ],
                    );
                    self.reopen_and_replay(opts)?;
                    attempt = self.call(&req, opts.reply_timeout);
                }
            }
        }
    }

    /// Kills the worker (if spawned), opens a fresh one, and replays the
    /// op log. Replay replies are discarded — the ops are deterministic
    /// recompute, their effects already observed. Retries internally on
    /// further wire failures until the respawn budget runs out.
    fn reopen_and_replay(&mut self, opts: &DistOpts) -> Result<(), String> {
        'attempt: loop {
            self.respawns += 1;
            if let Some(registry) = &opts.obs {
                crate::obs::dist_respawn(registry);
            }
            if self.respawns > opts.max_respawns {
                return Err(format!(
                    "{}: gave up after {} respawns",
                    self.label, opts.max_respawns
                ));
            }
            if let Some(child) = &mut self.child {
                let _ = child.kill();
                let _ = child.wait();
            }
            let (child, writer, rx) = connect(&self.target, opts)?;
            self.child = child;
            self.writer = writer;
            self.rx = rx;
            if self.handshake(opts).is_err() {
                continue 'attempt;
            }
            for i in 0..self.history.len() {
                let req = self.history[i].clone();
                match self.call(&req, opts.reply_timeout) {
                    Ok(Event::Error { message, .. }) => {
                        return Err(format!("{}: replay diverged: {message}", self.label))
                    }
                    Ok(_) => {} // deterministic recompute; reply discarded
                    Err(_) => continue 'attempt,
                }
            }
            return Ok(());
        }
    }

    fn handshake(&mut self, opts: &DistOpts) -> Result<(), WireFail> {
        match self.recv(opts.reply_timeout)? {
            Event::Hello { .. } => Ok(()),
            other => Err(WireFail::Corrupt(format!("expected hello, got {other:?}"))),
        }
    }

    /// Orderly teardown: closing stdin (or the socket) is the protocol's
    /// goodbye; a spawned worker exits on stdin EOF and is reaped.
    fn close(self) {
        drop(self.writer);
        drop(self.rx);
        if let Some(mut child) = self.child {
            let _ = child.wait();
        }
    }
}

impl WireFail {
    fn describe(&self) -> String {
        match self {
            WireFail::Dead(why) => format!("connection lost ({why})"),
            WireFail::Timeout => "reply timed out".into(),
            WireFail::Corrupt(why) => format!("corrupt reply ({why})"),
        }
    }

    /// The `kind` label on `ff_dist_wire_failures_total`.
    fn kind(&self) -> &'static str {
        match self {
            WireFail::Dead(_) => "dead",
            WireFail::Timeout => "timeout",
            WireFail::Corrupt(_) => "corrupt",
        }
    }
}

/// Opens the transport for a target: a child process with piped stdio,
/// or a TCP connection. Returns the writer plus a reader-thread channel
/// (the thread lets every read carry a timeout).
type Transport = (
    Option<Child>,
    Box<dyn Write + Send>,
    Receiver<io::Result<String>>,
);

fn connect(target: &Target, opts: &DistOpts) -> Result<Transport, String> {
    match target {
        Target::Spawn { cmd, env } => {
            let mut command = Command::new(&cmd[0]);
            command
                .args(&cmd[1..])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped());
            for (key, value) in env {
                command.env(key, value);
            }
            let mut child = command
                .spawn()
                .map_err(|e| format!("failed to spawn `{}`: {e}", cmd[0]))?;
            if let Some(pids) = &opts.pids {
                lock(pids).push(child.id());
            }
            let stdin = child
                .stdin
                .take()
                .ok_or_else(|| format!("`{}`: no piped stdin", cmd[0]))?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| format!("`{}`: no piped stdout", cmd[0]))?;
            Ok((Some(child), Box::new(stdin), spawn_reader(stdout)))
        }
        Target::Addr(addr) => {
            let stream = TcpStream::connect(addr)
                .map_err(|e| format!("failed to connect to {addr}: {e}"))?;
            let _ = stream.set_nodelay(true);
            let read_half = stream
                .try_clone()
                .map_err(|e| format!("failed to clone socket to {addr}: {e}"))?;
            Ok((None, Box::new(stream), spawn_reader(read_half)))
        }
    }
}

/// One line per message; EOF and errors are delivered in-band so the
/// consumer's `recv_timeout` sees everything.
fn spawn_reader(read: impl io::Read + Send + 'static) -> Receiver<io::Result<String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(read);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    let _ = tx.send(Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "worker closed the connection",
                    )));
                    return;
                }
                Ok(_) if line.ends_with('\n') => {
                    if tx.send(Ok(line)).is_err() {
                        return;
                    }
                }
                Ok(_) => {
                    // A final fragment with no newline: the peer died
                    // mid-message. Surface it as data — it will fail to
                    // parse — and then report the EOF.
                    let _ = tx.send(Ok(line));
                    let _ = tx.send(Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "worker closed the connection mid-line",
                    )));
                    return;
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }
    });
    rx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_round_robin_with_dense_local_indices() {
        let (n, workers) = (5, 2);
        let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for i in 0..n {
            let (w, local) = place(i, workers);
            // Islands reach each shard in ascending order, so a shard's
            // local index is its position in the hosted list.
            assert_eq!(local, hosted[w].len());
            hosted[w].push(i);
        }
        assert_eq!(hosted, vec![vec![0, 2, 4], vec![1, 3]]);
        assert_eq!(place(4, 1), (0, 4));
    }

    #[test]
    fn worker_set_validation_rejects_empty_configurations() {
        let opts = DistOpts::default();
        assert!(make_targets(
            &WorkerSet::Spawn {
                cmd: vec![],
                count: 2
            },
            &opts
        )
        .is_err());
        assert!(make_targets(
            &WorkerSet::Spawn {
                cmd: vec!["ffworker".into()],
                count: 0
            },
            &opts
        )
        .is_err());
        assert!(make_targets(&WorkerSet::Connect { addrs: vec![] }, &opts).is_err());
        let ok = make_targets(
            &WorkerSet::Spawn {
                cmd: vec!["ffworker".into()],
                count: 3,
            },
            &opts,
        )
        .unwrap();
        assert_eq!(ok.len(), 3);
    }
}
