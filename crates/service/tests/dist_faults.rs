//! Fault injection against real worker processes: whatever we do to a
//! worker — crash it, hang it, cut a reply in half, feed the
//! coordinator garbage, `kill -9` it from outside — the coordinator
//! must respawn, replay the op log, and finish with a final partition
//! **byte-identical** to the undisturbed run. This is the determinism
//! contract under fire.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ff_engine::{EnsembleResult, MigrationPolicyId, MultilevelOpts, Solver};
use ff_graph::io::{read_metis, write_metis};
use ff_partition::Objective;
use ff_service::dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
use ff_service::{solve_on_workers, GraphFormat, GraphSource};

const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_ffworker").to_string()]
}

fn spec(islands: usize, seed: u64, steps: u64) -> DistSpec {
    DistSpec {
        instance: "grid".into(),
        source: GraphSource::Data(GRID.into()),
        format: GraphFormat::Metis,
        k: 2,
        steps,
        seeds: ff_engine::derive_seeds(seed, islands),
        objectives: vec![Objective::MCut; islands],
        interval: 1024,
        migration: MigrationPolicyId::ReplaceIfBetter,
        pareto: false,
    }
}

fn run(spec: &DistSpec, workers: usize, opts: DistOpts) -> EnsembleResult {
    let g = read_metis(GRID.as_bytes()).unwrap();
    solve_distributed(
        &g,
        spec,
        &WorkerSet::Spawn {
            cmd: worker_cmd(),
            count: workers,
        },
        &opts,
        &mut |_, _| {},
    )
    .unwrap()
}

fn opts_with_fault(fault: &str, reply_timeout: Duration) -> DistOpts {
    DistOpts {
        reply_timeout,
        env: vec![("FFPART_FAULT".into(), fault.into())],
        ..DistOpts::default()
    }
}

/// A unique, pre-cleaned fire-once flag path for this test process.
fn flag_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ffpart-fault-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Full byte-level equality of two ensemble results, island by island.
fn assert_identical(faulted: &EnsembleResult, clean: &EnsembleResult, what: &str) {
    assert_eq!(
        faulted.best.assignment(),
        clean.best.assignment(),
        "{what}: final partition diverged"
    );
    assert_eq!(faulted.best_value, clean.best_value, "{what}");
    assert_eq!(faulted.best_island, clean.best_island, "{what}");
    assert_eq!(faulted.steps, clean.steps, "{what}");
    assert_eq!(
        faulted.migrations_adopted, clean.migrations_adopted,
        "{what}"
    );
    assert_eq!(faulted.best_value_per_k, clean.best_value_per_k, "{what}");
    assert_eq!(faulted.islands.len(), clean.islands.len(), "{what}");
    for (i, (a, b)) in faulted.islands.iter().zip(&clean.islands).enumerate() {
        assert_eq!(
            a.best.assignment(),
            b.best.assignment(),
            "{what}: island {i} partition diverged"
        );
        assert_eq!(a.best_energy, b.best_energy, "{what}: island {i}");
        assert_eq!(a.steps, b.steps, "{what}: island {i}");
    }
}

/// Every fault kind, injected into both workers at epoch 2: the worker
/// dies, stalls, truncates its reply mid-line, or answers with garbage,
/// and the coordinator's respawn + op-log replay must land on exactly
/// the bytes the undisturbed run produces — which themselves match the
/// in-process [`Solver`].
#[test]
fn every_fault_mode_replays_to_byte_identical_result() {
    let spec = spec(4, 7, 6_000);
    let g = read_metis(GRID.as_bytes()).unwrap();
    let clean = Solver::on(&g)
        .k(2)
        .islands(4)
        .steps(6_000)
        .seed(7)
        .run()
        .unwrap();
    for kind in ["die", "stall", "truncate", "garbage"] {
        let flag = flag_path(kind);
        // Stalls are only detected by the reply timeout, so keep it
        // short there; everywhere else the failure is immediate.
        let timeout = if kind == "stall" {
            Duration::from_secs(2)
        } else {
            Duration::from_secs(120)
        };
        let fault = format!("{kind}@2,flag={}", flag.display());
        let faulted = run(&spec, 2, opts_with_fault(&fault, timeout));
        assert!(
            flag.exists(),
            "{kind}: fault never fired — the test exercised nothing"
        );
        let _ = std::fs::remove_file(&flag);
        assert_identical(&faulted, &clean, kind);
    }
}

/// A fault on the *first* epoch, before any improvement has streamed:
/// replay starts from an op log holding only `load` + `wstart`.
#[test]
fn crash_before_first_epoch_completes_is_replayed() {
    let spec = spec(3, 11, 4_000);
    let clean = run(&spec, 2, DistOpts::default());
    let flag = flag_path("die-epoch0");
    let fault = format!("die@0,flag={}", flag.display());
    let faulted = run(&spec, 2, opts_with_fault(&fault, Duration::from_secs(120)));
    assert!(flag.exists(), "fault never fired");
    let _ = std::fs::remove_file(&flag);
    assert_identical(&faulted, &clean, "die@0");
}

/// A multilevel run's op log starts with the coarse graph's `load`
/// (inline METIS text the coordinator built): a worker that dies after
/// it is respawned, reloads the coarse graph from the log, and replays
/// to the bytes of the in-process run.
#[test]
fn multilevel_crash_after_the_coarse_load_is_replayed() {
    let g = ff_graph::generators::planted_partition(4, 60, 0.2, 0.01, 9);
    let solver = || {
        Solver::on(&g)
            .k(4)
            .islands(3)
            .steps(3_000)
            .seed(13)
            .multilevel(MultilevelOpts {
                coarsen_until: 60,
                ..Default::default()
            })
    };
    let clean = solver().run().unwrap();
    let mut text = Vec::new();
    write_metis(&g, &mut text).unwrap();
    let flag = flag_path("ml-die-epoch1");
    let fault = format!("die@1,flag={}", flag.display());
    let faulted = solve_on_workers(
        solver(),
        "planted",
        &GraphSource::Data(String::from_utf8(text).unwrap()),
        GraphFormat::Metis,
        &WorkerSet::Spawn {
            cmd: worker_cmd(),
            count: 2,
        },
        &opts_with_fault(&fault, Duration::from_secs(120)),
        &mut |_, _| {},
    )
    .unwrap();
    assert!(flag.exists(), "fault never fired");
    let _ = std::fs::remove_file(&flag);
    assert_identical(&faulted, &clean, "multilevel die@1");
    let (a, b) = (faulted.multilevel.unwrap(), clean.multilevel.unwrap());
    assert!(b.levels >= 1);
    assert_eq!((a.levels, a.coarse_vertices), (b.levels, b.coarse_vertices));
}

/// `kill -9` from outside, mid-run, with no flag file and no
/// cooperation from the worker: the raw SIGKILL lands wherever it
/// lands, and the respawned worker must still replay to the same bytes.
#[test]
fn sigkill_mid_run_is_respawned_and_replayed() {
    // A budget big enough that the run is still in its epoch loop
    // (several seconds of work) when the signal arrives at ~300 ms.
    let spec = spec(4, 7, 20_000);
    let clean = run(&spec, 2, DistOpts::default());

    let pids: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let killer_pids = Arc::clone(&pids);
    let killer = std::thread::spawn(move || {
        // Wait for both workers, let them get past the handshake and
        // into the epoch loop, then SIGKILL the first one.
        loop {
            let snapshot = killer_pids.lock().unwrap().clone();
            if snapshot.len() >= 2 {
                std::thread::sleep(Duration::from_millis(300));
                let victim = snapshot[0];
                let _ = std::process::Command::new("kill")
                    .args(["-9", &victim.to_string()])
                    .status();
                return victim;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    let opts = DistOpts {
        reply_timeout: Duration::from_secs(120),
        pids: Some(Arc::clone(&pids)),
        ..DistOpts::default()
    };
    let faulted = run(&spec, 2, opts);
    let victim = killer.join().unwrap();
    assert!(victim > 0);
    // The respawned replacement's pid joins the roster after the victim.
    assert!(
        pids.lock().unwrap().len() >= 2,
        "expected the original workers on the pid roster"
    );
    assert_identical(&faulted, &clean, "kill -9");
}

/// The respawn budget is a real bound: a fault that re-fires on every
/// replay (no flag file) must exhaust `max_respawns` and surface a
/// clean error instead of looping forever.
#[test]
fn unbounded_refiring_fault_exhausts_the_respawn_budget() {
    let spec = spec(2, 7, 4_000);
    let g = read_metis(GRID.as_bytes()).unwrap();
    let opts = DistOpts {
        reply_timeout: Duration::from_secs(120),
        max_respawns: 2,
        env: vec![("FFPART_FAULT".into(), "die@1".into())],
        ..DistOpts::default()
    };
    let err = solve_distributed(
        &g,
        &spec,
        &WorkerSet::Spawn {
            cmd: worker_cmd(),
            count: 2,
        },
        &opts,
        &mut |_, _| {},
    )
    .unwrap_err();
    assert!(
        err.contains("gave up after 2 respawns"),
        "unexpected error: {err}"
    );
}
