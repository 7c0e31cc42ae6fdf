//! `served_mix`: one in-process server with a journal, the HTTP gateway,
//! one compute permit and a cache byte budget smaller than the run's
//! loads, driven by two closed-loop clients with one operation
//! outstanding each. Client 0 speaks NDJSON (`Client`), client 1 speaks
//! HTTP (`PUT /instances`, `POST /jobs`, `GET /jobs/:id/events`,
//! `GET /metrics`). Each client's operations are drawn from the seed:
//!
//! * 62% short step-budgeted FABOP jobs (2,000 steps per island) from a
//!   pool of [`POOL`] specs, half with one island and half with two, and
//!   8% the pinned 3×3-grid job;
//! * 24% instance loads, half of them new content (a cache miss, a
//!   journal write and, once the cache is full, an eviction) and half a
//!   re-load of the client's latest content (a hit);
//! * 6% a `stats` (NDJSON) or `/metrics` (HTTP) scrape.
//!
//! The shares are exact: each client deals its operations from a deck of
//! [`DECK`] cards shuffled by the seed, so runs differ in order and seeds
//! but not in mix.
//!
//! A job's client first re-sends its instance (normally a cache hit), so
//! a job never finds its instance evicted. Every `done` is compared with
//! a direct `Solver` run of the same spec, computed before the timed
//! section.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ff_core::FusionFissionConfig;
use ff_engine::{EnsembleResult, Solver};
use ff_graph::Graph;
use ff_metaheur::StopCondition;
use ff_service::{
    Client, DoneInfo, Event, GraphFormat, GraphSource, JobRequest, JobStatus, Server, ServerConfig,
    ServerHandle, SubmitOutcome,
};

use crate::inputs::{self, Seeds};
use crate::oneshot::{core_probes, timed_setups, traced_run};
use crate::stats::{median, p50, p90, quartiles};
use crate::trace::Tracer;
use crate::{Ctx, OUT_DIR};

/// Distinct FABOP job specs per run.
const POOL: usize = 24;
/// Steps per island of a FABOP job.
const JOB_STEPS: u64 = 2_000;
/// Cooperative chunk = migration interval, as the one-shot solver uses.
const CHUNK: u64 = 1024;
/// Vertices of a loaded ring instance.
const RING_N: usize = 200;
/// Ring instances the cache holds beside the two job instances.
const RING_SLOTS: usize = 6;
/// One deck of operations, in the mix's exact shares.
const DECK: [(Op, usize); 5] = [
    (Op::FabopJob, 31),
    (Op::GridJob, 4),
    (Op::LoadNew, 6),
    (Op::Reload, 6),
    (Op::Scrape, 3),
];

#[derive(Clone, Copy, PartialEq)]
enum Op {
    FabopJob,
    GridJob,
    LoadNew,
    Reload,
    Scrape,
}

/// Deals `cards` in rounds, each round shuffled by `seeds`.
struct Dealer<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Dealer<T> {
    fn new(cards: Vec<T>) -> Dealer<T> {
        let next = cards.len();
        Dealer { cards, next }
    }

    fn deal(&mut self, seeds: &mut Seeds) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = seeds.below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Operations per client in the traced run (a fixed count, so its exact
/// fields repeat).
const TRACED_OPS: usize = 60;
/// Reply timeout of every client call; a timeout fails the operation.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn fabop_job(islands: usize, seed: u64) -> JobRequest {
    JobRequest {
        steps: Some(JOB_STEPS),
        seed,
        islands,
        chunk: CHUNK,
        ..JobRequest::new("fabop", 32)
    }
}

/// The pinned golden job: 3×3 grid, k = 2, Mcut, 20,000 steps, seed 7.
fn grid_job() -> JobRequest {
    JobRequest {
        steps: Some(20_000),
        seed: 7,
        chunk: CHUNK,
        ..JobRequest::new("grid", 2)
    }
}

/// The `Solver` the server builds for `job`: same config, island seeds,
/// one thread, chunk as the migration interval.
fn direct_solver<'g>(g: &'g Graph, job: &JobRequest) -> Solver<'g> {
    let config = FusionFissionConfig {
        objective: job.objective,
        stop: StopCondition::steps(job.steps.expect("step-budgeted job")),
        ..FusionFissionConfig::standard(job.k)
    };
    let mut solver = Solver::on(g)
        .config(config)
        .islands(job.islands)
        .threads(1)
        .migration_interval(job.chunk)
        .migration(job.migration.build())
        .seed(job.seed);
    if job.islands == 1 {
        solver = solver.island_seeds(vec![job.seed]);
    }
    solver
}

/// One job kind a client can submit, with its instance and reference.
struct JobKind {
    job: JobRequest,
    text: String,
    reference: EnsembleResult,
}

/// What the clients share: instance texts and the job references.
struct Plan {
    fabop: Vec<JobKind>,
    grid: JobKind,
}

/// One running server and where to find it.
struct Host {
    handle: ServerHandle,
    http: SocketAddr,
    dir: PathBuf,
    journal: PathBuf,
}

fn start_host(n: usize, budget: usize, fabop_text: &str) -> Result<Host, String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("served-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal = dir.join("journal.ndjson");
    let config = ServerConfig {
        workers: 1,
        cache_bytes: budget,
        http: Some("127.0.0.1:0".into()),
        journal: Some(journal.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let http = handle.http_addr().ok_or("gateway not bound")?;
    let host = Host {
        handle,
        http,
        dir,
        journal,
    };
    // Warm-up: both instances loaded, one short job per front end.
    let mut client = connect(host.handle.addr())?;
    let warm = JobRequest {
        steps: Some(256),
        ..fabop_job(1, 1)
    };
    load(&mut client, "fabop", fabop_text)?;
    load(&mut client, "grid", inputs::GRID)?;
    let id = client
        .submit(&warm)
        .map_err(|e| format!("warm-up submit: {e}"))?;
    client
        .wait_done(id)
        .map_err(|e| format!("warm-up job: {e}"))?;
    http_job(host.http, &warm, None)?;
    Ok(host)
}

fn stop_host(host: Host) {
    if let Ok(client) = Client::connect(host.handle.addr()) {
        let _ = client.shutdown();
    }
    let _ = host.handle.join();
    let _ = std::fs::remove_dir_all(&host.dir);
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(OP_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(client)
}

/// NDJSON `load`; returns whether it was a cache hit.
fn load(client: &mut Client, key: &str, text: &str) -> Result<bool, String> {
    client
        .load(key, GraphSource::Data(text.to_string()), GraphFormat::Metis)
        .map(|(_, _, cached)| cached)
        .map_err(|e| format!("load {key}: {e}"))
}

/// One HTTP/1.1 exchange (`Connection: close`): status and decoded body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream.set_read_timeout(Some(OP_TIMEOUT)).map_err(fail)?;
    // One write for head and body, so the client adds no Nagle stall.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    let raw = String::from_utf8_lossy(&raw);
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no response head"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    Ok((
        status,
        if chunked {
            decode_chunked(body)
        } else {
            body.to_string()
        },
    ))
}

fn decode_chunked(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some((size, tail)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size.trim(), 16).unwrap_or(0);
        if size == 0 || size > tail.len() {
            break;
        }
        out.push_str(&tail[..size]);
        rest = tail[size..].strip_prefix("\r\n").unwrap_or(&tail[size..]);
    }
    out
}

/// HTTP `PUT /instances/:key`; returns whether it was a cache hit.
fn http_load(addr: SocketAddr, key: &str, text: &str) -> Result<bool, String> {
    let (status, body) = http(addr, "PUT", &format!("/instances/{key}"), text)?;
    match Event::parse(body.trim()) {
        Ok(Event::Loaded { cached, .. }) if status == 200 => Ok(cached),
        _ => Err(format!("PUT /instances/{key}: {status} {body}")),
    }
}

/// `POST /jobs` then `GET /jobs/:id/events` to the end of the stream.
fn http_job(
    addr: SocketAddr,
    job: &JobRequest,
    trace: Option<(&Tracer, Option<usize>, u64)>,
) -> Result<DoneInfo, String> {
    let span =
        trace.and_then(|(t, parent, op)| t.begin("service.accept", parent, op).map(|id| (t, id)));
    let (status, body) = http(addr, "POST", "/jobs", &job.to_value().to_string())?;
    let id = match Event::parse(body.trim()) {
        Ok(Event::Accepted { job, .. }) if status == 202 => job,
        _ => return Err(format!("POST /jobs: {status} {}", body.trim())),
    };
    if let Some((t, id)) = span {
        t.end(Some(id), 0);
    }
    let span =
        trace.and_then(|(t, parent, op)| t.begin("service.run", parent, op).map(|id| (t, id)));
    let (status, body) = http(addr, "GET", &format!("/jobs/{id}/events"), "")?;
    let done = body
        .lines()
        .filter_map(|l| Event::parse(l).ok())
        .find_map(|e| match e {
            Event::Done(d) => Some(d),
            _ => None,
        })
        .ok_or_else(|| format!("GET /jobs/{id}/events: {status} without done"))?;
    if let Some((t, id)) = span {
        t.end(Some(id), 0);
    }
    Ok(done)
}

/// NDJSON submit, then wait for `done`.
fn ndjson_job(
    client: &mut Client,
    job: &JobRequest,
    trace: Option<(&Tracer, Option<usize>, u64)>,
) -> Result<DoneInfo, String> {
    let span =
        trace.and_then(|(t, parent, op)| t.begin("service.accept", parent, op).map(|id| (t, id)));
    let id = match client.try_submit(job).map_err(|e| format!("submit: {e}"))? {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => return Err(format!("rejected: {reason}")),
    };
    if let Some((t, id)) = span {
        t.end(Some(id), 0);
    }
    let span =
        trace.and_then(|(t, parent, op)| t.begin("service.run", parent, op).map(|id| (t, id)));
    let (_, done) = client.wait_done(id).map_err(|e| format!("job {id}: {e}"))?;
    if let Some((t, id)) = span {
        t.end(Some(id), 0);
    }
    Ok(done)
}

/// Whether a `done` carries exactly the reference run's result.
fn done_matches(done: &DoneInfo, reference: &EnsembleResult) -> bool {
    done.status == JobStatus::Completed
        && done.value.to_bits() == reference.best_value.to_bits()
        && done.steps == reference.steps
        && done.assignment.as_deref() == Some(reference.best.assignment())
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    /// Submit→done of every job, seconds, with whether the op was traced.
    jobs: Vec<(f64, bool)>,
    /// Server-side job wall-clock (`done.elapsed_ms`), seconds, of
    /// untraced jobs.
    solve_s: Vec<f64>,
    /// Load round trips, seconds, with whether they hit.
    loads: Vec<(f64, bool)>,
    scrapes: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    notes: Vec<String>,
}

/// The front end a client speaks.
enum Front {
    Ndjson(Client),
    Http(SocketAddr),
}

/// One closed-loop client: deals its operations from the shuffled deck
/// until the deadline (or for `ops` operations) and checks every `done`.
fn client_loop(
    front: &mut Front,
    c: usize,
    plan: &Plan,
    seed: u64,
    until: Instant,
    ops: Option<usize>,
    tracer: &Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut draw = Seeds::new(seed, 10 + c as u64);
    let mut ops_deck = Dealer::new(
        DECK.iter()
            .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
            .collect(),
    );
    let mut jobs_deck = Dealer::new((0..POOL).collect());
    let mut latest: Option<(String, String)> = None;
    let mut fresh = 0u64;
    let mut n = 0usize;
    loop {
        match ops {
            Some(ops) if n >= ops => break,
            None if Instant::now() >= until => break,
            _ => {}
        }
        // Every other operation of the traced run is traced; the others
        // measure the same mix with tracing off.
        let traced = tracer.enabled() && n % 2 == 1;
        let op_id = (c as u64) << 32 | n as u64;
        n += 1;
        log.attempted += 1;
        let op = ops_deck.deal(&mut draw);
        let result = if matches!(op, Op::FabopJob | Op::GridJob) {
            let kind = if op == Op::FabopJob {
                &plan.fabop[jobs_deck.deal(&mut draw)]
            } else {
                &plan.grid
            };
            run_job(front, kind, traced.then_some((tracer, op_id)), &mut log)
        } else if matches!(op, Op::LoadNew | Op::Reload) {
            if op == Op::LoadNew || latest.is_none() {
                fresh += 1;
                let key = format!("ring-{c}-{fresh}");
                latest = Some((key, inputs::ring_text(RING_N, draw.next_seed())));
            }
            let (key, text) = latest.as_ref().expect("set above");
            let span = if traced {
                tracer.begin("service.load", None, op_id)
            } else {
                None
            };
            let t0 = Instant::now();
            let hit = match front {
                Front::Ndjson(client) => load(client, key, text),
                Front::Http(addr) => http_load(*addr, key, text),
            };
            hit.map(|hit| {
                tracer.end(span, hit as u64);
                log.loads.push((t0.elapsed().as_secs_f64(), hit));
            })
        } else {
            let span = if traced {
                tracer.begin("obs.scrape", None, op_id)
            } else {
                None
            };
            let t0 = Instant::now();
            let scraped = match front {
                Front::Ndjson(client) => {
                    client.stats().map(drop).map_err(|e| format!("stats: {e}"))
                }
                Front::Http(addr) => match http(*addr, "GET", "/metrics", "") {
                    Ok((200, page)) if page.contains("ff_jobs_submitted_total") => Ok(()),
                    Ok((status, _)) => Err(format!("GET /metrics: {status}")),
                    Err(e) => Err(e),
                },
            };
            scraped.map(|()| {
                tracer.end(span, 0);
                log.scrapes.push(t0.elapsed().as_secs_f64());
            })
        };
        if let Err(e) = result {
            log.failed += 1;
            log.notes.push(format!("client {c} op {n}: {e}"));
        }
    }
    log
}

/// Re-sends the job's instance, submits the job, waits for `done` and
/// checks it against the reference.
fn run_job(
    front: &mut Front,
    kind: &JobKind,
    trace: Option<(&Tracer, u64)>,
    log: &mut ClientLog,
) -> Result<(), String> {
    let job = &kind.job;
    match front {
        Front::Ndjson(client) => load(client, &job.instance, &kind.text)?,
        Front::Http(addr) => http_load(*addr, &job.instance, &kind.text)?,
    };
    let name = match front {
        Front::Ndjson(_) => "service.ndjson_job",
        Front::Http(_) => "service.http_job",
    };
    let parent = trace.and_then(|(t, op)| t.begin(name, None, op));
    let child = trace.map(|(t, op)| (t, parent, op));
    let t0 = Instant::now();
    let done = match front {
        Front::Ndjson(client) => ndjson_job(client, job, child)?,
        Front::Http(addr) => http_job(*addr, job, child)?,
    };
    let total = t0.elapsed().as_secs_f64();
    if let Some((t, _)) = trace {
        t.end(parent, 0);
    }
    log.jobs.push((total, trace.is_some()));
    if trace.is_none() {
        log.solve_s.push(done.elapsed_ms as f64 / 1e3);
    }
    if !done_matches(&done, &kind.reference) {
        log.mismatches += 1;
        log.failed += 1;
        log.notes.push(format!(
            "CHECK FAILED: job {} (seed {}, {} islands) returned {} but the direct solver gives {}",
            done.job, job.seed, job.islands, done.value, kind.reference.best_value
        ));
    }
    Ok(())
}

pub fn served_mix(ctx: &mut Ctx) -> Result<(), String> {
    let t = ctx.tracer.clone();
    let fabop_text = inputs::fabop_text();
    let fabop = inputs::parse(&fabop_text)?;
    let grid = inputs::parse(inputs::GRID)?;
    let ring = inputs::parse(&inputs::ring_text(RING_N, 0))?;
    let budget =
        fabop.csr_bytes() + grid.csr_bytes() + RING_SLOTS * ring.csr_bytes() + ring.csr_bytes() / 2;

    // References, outside every timed section: the direct solver run of
    // each job spec the clients can draw.
    let mut pool = Seeds::new(ctx.seed, 20);
    let reference = |g: &Graph, job: &JobRequest, op: u64| -> Result<EnsembleResult, String> {
        let solver = direct_solver(g, job);
        if t.enabled() {
            Ok(t.span("local.solve", None, op, |id| {
                (traced_run(&t, id, op, solver).0, 0)
            }))
        } else {
            solver.run().map_err(|e| e.to_string())
        }
    };
    let mut fabop_kinds = Vec::new();
    for i in 0..POOL {
        let job = fabop_job(1 + i % 2, pool.next_seed());
        let reference = reference(&fabop, &job, i as u64)?;
        fabop_kinds.push(JobKind {
            job,
            text: fabop_text.clone(),
            reference,
        });
    }
    let grid_ref = reference(&grid, &grid_job(), POOL as u64)?;
    ctx.report
        .check(format!("{:.6}", grid_ref.best_value) == "0.964286", || {
            format!("grid golden: direct solver gives {}", grid_ref.best_value)
        });
    let plan = Plan {
        fabop: fabop_kinds,
        grid: JobKind {
            job: grid_job(),
            text: inputs::GRID.to_string(),
            reference: grid_ref,
        },
    };

    let mut n = 0;
    let (host, setup_s) = timed_setups(
        || {
            n += 1;
            start_host(n, budget, &fabop_text)
        },
        stop_host,
    )?;
    let mut fronts = vec![
        Front::Ndjson(connect(host.handle.addr())?),
        Front::Http(host.http),
    ];
    let ops = ctx.traced().then_some(TRACED_OPS);
    let (seed, seconds) = (ctx.seed, ctx.seconds);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = fronts
            .iter_mut()
            .enumerate()
            .map(|(c, front)| {
                let (plan, t) = (&plan, &t);
                s.spawn(move || client_loop(front, c, plan, seed, until, ops, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    // Server-side counters after the run.
    let mut client = connect(host.handle.addr())?;
    let stats = match client.stats().map_err(|e| format!("stats: {e}"))? {
        Event::Stats(s) => s,
        other => return Err(format!("stats: unexpected {other:?}")),
    };
    let (_, page) = http(host.http, "GET", "/metrics", "")?;
    let journal_bytes = std::fs::metadata(&host.journal).map_or(0, |m| m.len());
    drop(client);
    drop(fronts);
    stop_host(host);

    let r = &mut ctx.report;
    let mut jobs_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut loads = Vec::new();
    for log in &logs {
        r.attempted += log.attempted;
        r.failed += log.failed;
        r.mismatches += log.mismatches;
        for note in &log.notes {
            r.note(note.clone());
        }
        for &(s, traced) in &log.jobs {
            if traced { &mut traced_ms } else { &mut jobs_ms }.push(s * 1e3);
        }
        loads.extend(&log.loads);
    }
    let objectives: Vec<f64> = plan.fabop.iter().map(|k| k.reference.best_value).collect();
    let (q1, q3) = quartiles(&objectives);
    r.note(format!(
        "objective over {} job seeds: q1 {q1:.6}  median {:.6}  q3 {q3:.6}",
        objectives.len(),
        median(&objectives)
    ));
    let done_jobs = jobs_ms.len() + traced_ms.len();
    r.note(format!(
        "{done_jobs} jobs, {} loads, {} scrapes in {wall_s:.2}s; job_p90_ms {:.3} ms over {} jobs",
        loads.len(),
        logs.iter().map(|l| l.scrapes.len()).sum::<usize>(),
        p90(&jobs_ms),
        jobs_ms.len()
    ));
    // The two front ends differ by fixed protocol delays, so a p50 over
    // both jumps with the share of jobs each client completes. Each
    // median is taken per front end and the two are averaged.
    let per_front = |samples: &dyn Fn(&ClientLog) -> Vec<f64>| {
        logs.iter().map(|l| p50(&samples(l))).sum::<f64>() / logs.len() as f64
    };
    let untraced_ms = |l: &ClientLog| -> Vec<f64> {
        l.jobs
            .iter()
            .filter(|(_, traced)| !traced)
            .map(|(s, _)| s * 1e3)
            .collect()
    };
    r.e2e("solve_s", per_front(&|l| l.solve_s.clone()));
    r.e2e("objective", median(&objectives));
    r.e2e("job_p50_ms", per_front(&untraced_ms));
    r.e2e("jobs_per_s", done_jobs as f64 / wall_s);
    r.e2e(
        "load_p50_ms",
        per_front(&|l| l.loads.iter().map(|(s, _)| s * 1e3).collect()),
    );
    r.e2e("setup_s", median(&setup_s));

    if t.enabled() {
        let loads_traced = t.spans("service.load");
        let (hit_ms, miss_ms): (Vec<_>, Vec<_>) = loads_traced.iter().partition(|s| s.work == 1);
        let hit_ms: Vec<f64> = hit_ms.iter().map(|s| s.ms()).collect();
        let miss_ms: Vec<f64> = miss_ms.iter().map(|s| s.ms()).collect();
        let exposition = ff_obs::parse_exposition(&page).map_err(|e| format!("/metrics: {e}"))?;
        let series = |name: &str| -> f64 {
            exposition
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum()
        };
        let permit_wait =
            series("ff_permit_wait_ms_sum") / series("ff_permit_wait_ms_count").max(1.0);
        r.layer_p50("service.accept_ms", &t.ms("service.accept"));
        r.layer_p50("service.run_ms", &t.ms("service.run"));
        r.layer_derived("service.permit_wait_ms", permit_wait);
        r.layer_p50("service.ndjson_job_p50_ms", &t.ms("service.ndjson_job"));
        r.layer_p50("service.http_job_p50_ms", &t.ms("service.http_job"));
        r.layer_p50("service.load_miss_ms", &miss_ms);
        r.layer_p50("service.load_hit_ms", &hit_ms);
        r.layer(
            "service.cache_hit_ratio",
            loads.iter().filter(|(_, hit)| *hit).count() as f64 / loads.len().max(1) as f64,
        );
        r.layer("service.cache_evictions", stats.cache_evictions as f64);
        r.layer("service.rejected", stats.jobs_rejected as f64);
        r.layer_derived(
            "journal.bytes_per_job",
            journal_bytes as f64 / stats.jobs_done.max(1) as f64,
        );
        r.layer_p50("obs.scrape_ms", &t.ms("obs.scrape"));
        r.layer_derived(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&jobs_ms),
        );
        let migrations: u64 = plan
            .fabop
            .iter()
            .map(|k| k.reference.migrations_adopted)
            .sum();
        r.layer_p50("engine.epoch_ms", &t.ms("engine.epoch"));
        r.layer_p50("engine.harvest_ms", &t.ms("engine.harvest"));
        r.layer("engine.epochs", t.spans("engine.epoch").len() as f64);
        r.layer("engine.migrations_adopted", migrations as f64);
        let island = FusionFissionConfig {
            stop: StopCondition::steps(JOB_STEPS),
            ..FusionFissionConfig::standard(32)
        };
        core_probes(ctx, &fabop, island, 3);
    }
    Ok(())
}
