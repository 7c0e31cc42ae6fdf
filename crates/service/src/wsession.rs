//! Worker sessions: one shard of a distributed run's islands, hosted in
//! this process for a remote coordinator.
//!
//! The coordinator runs the engine's one epoch loop and reaches its
//! islands through the `w*` NDJSON ops: `wstart` creates a session (a
//! dedicated thread owning the islands' [`FusionFissionRun`]s),
//! `wadvance` runs one epoch on every island, `wmolecule`/`winject`
//! carry migration payloads across the process boundary, and `wharvest`
//! finalizes. Shards advance their epochs concurrently — each session
//! holds its own gate permit while it computes. The session thread
//! validates that `wadvance` epochs arrive in order — after a crash the
//! coordinator replays its op log from epoch 0 against a fresh session,
//! and the check makes a divergent replay fail loudly instead of
//! silently desynchronizing.
//!
//! Determinism contract: an island's state is a pure function of its
//! seed and injection history. A session builds each island with
//! [`island_config`], the one configuration the wire can express (the
//! coordinator refuses any [`Solver`](ff_engine::Solver) whose islands
//! differ from it), and injected molecules are rebuilt from their
//! assignment on arrival, so a distributed run is byte-identical to the
//! single-process run with the same seeds and epoch schedule.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use ff_core::{FusionFission, FusionFissionConfig, FusionFissionRun};
use ff_graph::Graph;
use ff_metaheur::StopCondition;
use ff_partition::{Objective, Partition};

use crate::cache::PinnedGraph;
use crate::gate::FairGate;
use crate::job::EventSink;
use crate::protocol::{Event, MoleculeInfo, WIslandResult, WIslandState, WNews, WorkerStart};
use crate::server::ServerState;

/// Ops forwarded from the connection handler to a session thread.
pub(crate) enum WOp {
    Advance {
        epoch: u64,
        steps: u64,
    },
    Molecule {
        island: usize,
    },
    Inject {
        island: usize,
        molecule: MoleculeInfo,
        crossover: bool,
    },
    Harvest,
}

/// Injected failure for the fault-tolerance test harness, parsed from
/// the `FFPART_FAULT` environment variable as
/// `die|stall|truncate|garbage@EPOCH[,flag=PATH]`.
///
/// The fault fires when a `wadvance` for `EPOCH` arrives. With a flag
/// path it fires once: the file's existence means "already fired", so
/// the respawned worker replaying the same epochs sails past it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FaultMode {
    kind: FaultKind,
    epoch: u64,
    flag: Option<PathBuf>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Exit the process before replying.
    Die,
    /// Stop replying but stay alive (hung worker).
    Stall,
    /// Write half a reply line, then exit (death mid-message).
    Truncate,
    /// Write a non-JSON line instead of the reply, then keep serving.
    Garbage,
}

impl FaultMode {
    pub(crate) fn from_env() -> Option<FaultMode> {
        FaultMode::parse(&std::env::var("FFPART_FAULT").ok()?)
    }

    pub(crate) fn parse(spec: &str) -> Option<FaultMode> {
        let mut fields = spec.split(',');
        let (kind, epoch) = fields.next()?.split_once('@')?;
        let kind = match kind {
            "die" => FaultKind::Die,
            "stall" => FaultKind::Stall,
            "truncate" => FaultKind::Truncate,
            "garbage" => FaultKind::Garbage,
            _ => return None,
        };
        let epoch = epoch.parse().ok()?;
        let mut flag = None;
        for field in fields {
            flag = Some(PathBuf::from(field.strip_prefix("flag=")?));
        }
        Some(FaultMode { kind, epoch, flag })
    }

    /// True if the fault should fire now. With a flag, only the caller
    /// that creates the flag file fires — atomically, so neither a
    /// replayed epoch nor a second worker reaching the epoch at the same
    /// moment fires again.
    fn fire_once(&self, epoch: u64) -> bool {
        if epoch != self.epoch {
            return false;
        }
        match &self.flag {
            Some(flag) => match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(flag)
            {
                Ok(_) => true,
                Err(e) => e.kind() != std::io::ErrorKind::AlreadyExists,
            },
            None => true,
        }
    }
}

/// The one island configuration the `w*` wire can express: the paper's
/// standard parameters for `k`, the island's objective and a pure step
/// budget.
pub(crate) fn island_config(k: usize, objective: Objective, steps: u64) -> FusionFissionConfig {
    FusionFissionConfig {
        objective,
        stop: StopCondition::steps(steps),
        ..FusionFissionConfig::standard(k)
    }
}

/// Validates a `wstart` and spawns its session thread. On success the
/// thread itself emits `wready`; errors are returned for the handler to
/// report.
pub(crate) fn start_session(
    state: &Arc<ServerState>,
    start: WorkerStart,
    sink: &EventSink,
    sessions: &mut HashMap<u64, Sender<WOp>>,
) -> Result<(), String> {
    if sessions.contains_key(&start.session) {
        return Err(format!("wstart: session {} already active", start.session));
    }
    let Some(graph) = state.cache.pin(&start.instance) else {
        return Err(format!(
            "unknown instance `{}` (load it first)",
            start.instance
        ));
    };
    let n = graph.graph().num_vertices();
    if start.k > n {
        return Err(format!("k {} exceeds {} vertices", start.k, n));
    }
    // Validity depends on k alone, not on the island's objective.
    island_config(start.k, Objective::MCut, start.steps)
        .try_validate()
        .map_err(|e| format!("invalid session configuration: {e}"))?;
    let (tx, rx) = std::sync::mpsc::channel();
    let session = start.session;
    let gate = Arc::clone(&state.gate);
    let sink = sink.clone();
    let fault = FaultMode::from_env();
    std::thread::Builder::new()
        .name(format!("ff-wsession-{session}"))
        .spawn(move || run_session(start, graph, gate, sink, rx, fault))
        .map_err(|e| format!("failed to spawn session thread: {e}"))?;
    sessions.insert(session, tx);
    Ok(())
}

/// The session thread: owns the islands, answers ops in FIFO order.
/// Exits when the op channel closes (connection gone) or after
/// `wharvest`.
fn run_session(
    start: WorkerStart,
    graph: PinnedGraph,
    gate: Arc<FairGate>,
    sink: EventSink,
    rx: Receiver<WOp>,
    fault: Option<FaultMode>,
) {
    let session = start.session;
    let g: &Graph = graph.graph();
    let mut runs: Vec<FusionFissionRun<'_>> = start
        .seeds
        .iter()
        .zip(&start.objectives)
        .map(|(&seed, &objective)| {
            FusionFission::new(g, island_config(start.k, objective, start.steps), seed).start()
        })
        .collect();
    let mut cursors = vec![0usize; runs.len()];
    let mut next_epoch = 0u64;
    if sink
        .send(&Event::WReady {
            session,
            islands: runs.len(),
        })
        .is_err()
    {
        return;
    }
    while let Ok(op) = rx.recv() {
        let reply = match op {
            WOp::Advance { epoch, steps } => {
                if let Some(f) = &fault {
                    if f.fire_once(epoch) {
                        match f.kind {
                            FaultKind::Die => std::process::exit(3),
                            FaultKind::Stall => loop {
                                std::thread::sleep(std::time::Duration::from_secs(3600));
                            },
                            FaultKind::Truncate => {
                                let line = Event::WState {
                                    session,
                                    epoch,
                                    islands: vec![],
                                }
                                .to_value()
                                .to_string();
                                sink.send_raw_partial(&line.as_bytes()[..line.len() / 2]);
                                std::process::exit(3);
                            }
                            FaultKind::Garbage => {
                                sink.send_raw_partial(b"%% not json %%\n");
                                continue;
                            }
                        }
                    }
                }
                if epoch != next_epoch {
                    Event::Error {
                        message: format!("wadvance: expected epoch {next_epoch}, got {epoch}"),
                        job: None,
                    }
                } else {
                    let mut islands = Vec::with_capacity(runs.len());
                    {
                        let _permit = gate.acquire();
                        for (i, run) in runs.iter_mut().enumerate() {
                            let more = run.advance(steps);
                            let news = run
                                .trace()
                                .points_since(cursors[i])
                                .iter()
                                .map(|p| WNews {
                                    step: p.step,
                                    value: p.value,
                                    elapsed_ms: p.elapsed.as_millis() as u64,
                                })
                                .collect();
                            cursors[i] = run.trace().len();
                            islands.push(WIslandState {
                                island: i,
                                more,
                                energy: run.best_energy(),
                                steps: run.steps(),
                                news,
                            });
                        }
                    }
                    next_epoch += 1;
                    Event::WState {
                        session,
                        epoch,
                        islands,
                    }
                }
            }
            WOp::Molecule { island } => match runs.get(island) {
                None => bad_island(island, runs.len()),
                Some(run) => {
                    let p = run.best_molecule();
                    Event::WMolecule {
                        session,
                        island,
                        molecule: MoleculeInfo {
                            assignment: p.assignment().to_vec(),
                            parts: p.num_parts(),
                        },
                        energy: run.best_energy(),
                    }
                }
            },
            WOp::Inject {
                island,
                molecule,
                crossover,
            } => match runs.get_mut(island) {
                None => bad_island(island, runs.len()),
                Some(run) => {
                    if molecule.assignment.len() != g.num_vertices() {
                        Event::Error {
                            message: format!(
                                "winject: molecule has {} vertices, instance has {}",
                                molecule.assignment.len(),
                                g.num_vertices()
                            ),
                            job: None,
                        }
                    } else {
                        let p = Partition::from_assignment(g, molecule.assignment, molecule.parts);
                        let adopted = if crossover {
                            run.inject_crossover(&p)
                        } else {
                            run.inject(&p)
                        };
                        Event::WInjected {
                            session,
                            island,
                            adopted,
                        }
                    }
                }
            },
            WOp::Harvest => {
                let islands = std::mem::take(&mut runs)
                    .into_iter()
                    .enumerate()
                    .map(|(i, run)| {
                        let r = run.harvest();
                        WIslandResult {
                            island: i,
                            value: r.best_value,
                            energy: r.best_energy,
                            steps: r.steps,
                            molecule: MoleculeInfo {
                                assignment: r.best.assignment().to_vec(),
                                parts: r.best.num_parts(),
                            },
                            per_k: r
                                .best_value_per_k
                                .iter()
                                .map(|(&k, &v)| (k as u64, v))
                                .collect(),
                        }
                    })
                    .collect();
                let _ = sink.send(&Event::WHarvested { session, islands });
                return;
            }
        };
        if sink.send(&reply).is_err() {
            return;
        }
    }
}

fn bad_island(island: usize, count: usize) -> Event {
    Event::Error {
        message: format!("island {island} out of range (session has {count})"),
        job: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_parses_kind_epoch_and_flag() {
        let f = FaultMode::parse("die@3").unwrap();
        assert_eq!(
            f,
            FaultMode {
                kind: FaultKind::Die,
                epoch: 3,
                flag: None
            }
        );
        let f = FaultMode::parse("truncate@0,flag=/tmp/x").unwrap();
        assert_eq!(f.kind, FaultKind::Truncate);
        assert_eq!(f.epoch, 0);
        assert_eq!(f.flag.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert!(FaultMode::parse("explode@1").is_none());
        assert!(FaultMode::parse("die").is_none());
        assert!(FaultMode::parse("die@x").is_none());
        assert!(FaultMode::parse("die@1,bogus=2").is_none());
    }

    #[test]
    fn flag_file_makes_fault_fire_exactly_once() {
        let dir = std::env::temp_dir().join(format!("ff-fault-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        let f = FaultMode {
            kind: FaultKind::Die,
            epoch: 2,
            flag: Some(dir.clone()),
        };
        assert!(!f.fire_once(1), "wrong epoch never fires");
        assert!(f.fire_once(2), "armed fault fires");
        assert!(!f.fire_once(2), "flag file suppresses the replayed epoch");
        let _ = std::fs::remove_file(&dir);

        // Two workers reaching the armed epoch together: one fires.
        for round in 0..20 {
            let _ = std::fs::remove_file(&dir);
            let barrier = std::sync::Barrier::new(2);
            let fired: usize = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            f.fire_once(2)
                        })
                    })
                    .collect();
                racers
                    .into_iter()
                    .map(|r| usize::from(r.join().unwrap()))
                    .sum()
            });
            assert_eq!(fired, 1, "round {round}: racing workers must fire once");
        }
        let _ = std::fs::remove_file(&dir);
    }
}
