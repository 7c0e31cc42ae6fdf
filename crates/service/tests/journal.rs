//! Durability end-to-end: a journaled server restarted from its journal
//! restores finished jobs into the event ring (observation-only) and
//! re-executes jobs that were in flight, byte-identically.

use ff_service::{
    Client, Event, GraphFormat, GraphSource, InstanceCache, JobRequest, JobStatus, JournalRecord,
    JournalWriter, Server, ServerConfig,
};
use std::io::{Read, Write};

/// METIS text for the 3×3 grid — small enough that a 20k-step job ends
/// in milliseconds, rich enough to produce improvements.
const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";

fn temp_journal(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("ff-journal-{tag}-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

fn journaled_config(path: &str) -> ServerConfig {
    ServerConfig {
        workers: 1,
        http: Some("127.0.0.1:0".into()),
        journal: Some(path.to_string()),
        ..ServerConfig::default()
    }
}

fn grid_job(steps: u64, seed: u64) -> JobRequest {
    JobRequest {
        steps: Some(steps),
        seed,
        ..JobRequest::new("grid", 2)
    }
}

/// One blocking HTTP exchange against `addr`; returns the full reply.
fn http(addr: std::net::SocketAddr, request: String) -> String {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn finished_jobs_replay_into_the_event_ring_without_reexecution() {
    let path = temp_journal("finished");

    // First life: load, run one job to completion, shut down cleanly.
    let handle = Server::bind_with("127.0.0.1:0", journaled_config(&path))
        .unwrap()
        .spawn()
        .unwrap();
    assert_eq!(
        handle.replay_summary().map(|r| r.records),
        Some(0),
        "an empty journal replays nothing"
    );
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load("grid", GraphSource::Data(GRID.into()), GraphFormat::Metis)
        .unwrap();
    let id = client.submit(&grid_job(20_000, 7)).unwrap();
    let (improvements, done) = client.wait_done(id).unwrap();
    assert_eq!(done.status, JobStatus::Completed);
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Second life: same journal. The finished job must come back as
    // history — served over `GET /jobs/:id/events` even though it was
    // originally submitted over NDJSON — with no re-execution.
    let handle = Server::bind_with("127.0.0.1:0", journaled_config(&path))
        .unwrap()
        .spawn()
        .unwrap();
    let replay = handle.replay_summary().unwrap();
    assert_eq!((replay.finished, replay.resumed, replay.skipped), (1, 0, 0));
    assert_eq!(replay.instances, 1);
    assert!(!replay.truncated);

    let reply = http(
        handle.http_addr().unwrap(),
        format!("GET /jobs/{id}/events HTTP/1.1\r\nConnection: close\r\n\r\n"),
    );
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    let done_line = reply
        .lines()
        .find(|l| l.contains("\"event\":\"done\""))
        .expect("replayed stream ends with done");
    let Event::Done(restored) = Event::parse(done_line).unwrap() else {
        panic!("expected done event");
    };
    assert_eq!(restored.job, id);
    assert_eq!(restored.value, done.value);
    assert_eq!(restored.assignment, done.assignment);
    let replayed_improvements = reply
        .lines()
        .filter(|l| l.contains("\"event\":\"improvement\""))
        .count();
    assert_eq!(replayed_improvements, improvements.len());

    // Counters restored, not re-counted.
    let mut client = Client::connect(handle.addr()).unwrap();
    let Event::Stats(stats) = client.stats().unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(stats.jobs_submitted, 1);
    assert_eq!(stats.jobs_done, 1);
    assert_eq!(stats.jobs_running, 0);
    // `jobs_done` is read from the replayed completion counters.
    let page = http(
        handle.http_addr().unwrap(),
        "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n".into(),
    );
    let (_, body) = page.split_once("\r\n\r\n").unwrap();
    let completed: f64 = ff_obs::parse_exposition(body)
        .unwrap()
        .iter()
        .filter(|s| s.name == "ff_jobs_completed_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(stats.jobs_done as f64, completed);

    // New jobs get fresh ids past the journaled ones.
    let fresh = client.submit(&grid_job(500, 3)).unwrap();
    assert!(fresh > id, "id allocator must resume past replayed jobs");
    client.wait_done(fresh).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn inflight_jobs_are_reexecuted_byte_identically() {
    let path = temp_journal("inflight");

    // Fabricate the journal a crashed server would leave: a loaded
    // instance and an admitted spec with no `done`.
    let cache = InstanceCache::new();
    cache
        .load("grid", GraphSource::Data(GRID.into()), GraphFormat::Metis)
        .unwrap();
    let digest = cache.digest("grid").unwrap();
    let writer = JournalWriter::open(&path).unwrap();
    writer
        .append(&JournalRecord::Instance {
            instance: "grid".into(),
            source: GraphSource::Data(GRID.into()),
            format: GraphFormat::Metis,
            digest,
        })
        .unwrap();
    let spec = grid_job(20_000, 7);
    writer
        .append(&JournalRecord::Submitted {
            job: 5,
            spec: spec.clone(),
        })
        .unwrap();
    drop(writer);

    let handle = Server::bind_with("127.0.0.1:0", journaled_config(&path))
        .unwrap()
        .spawn()
        .unwrap();
    let replay = handle.replay_summary().unwrap();
    assert_eq!((replay.finished, replay.resumed, replay.skipped), (0, 1, 0));

    // The event stream blocks until the re-executed job finishes.
    let reply = http(
        handle.http_addr().unwrap(),
        "GET /jobs/5/events HTTP/1.1\r\nConnection: close\r\n\r\n".into(),
    );
    let done_line = reply
        .lines()
        .find(|l| l.contains("\"event\":\"done\""))
        .expect("resumed job runs to done");
    let Event::Done(resumed) = Event::parse(done_line).unwrap() else {
        panic!("expected done event");
    };
    assert_eq!(resumed.job, 5);
    assert_eq!(resumed.status, JobStatus::Completed);

    // Byte-identical to a fresh submit of the same spec — the contract
    // that makes re-execution a valid recovery strategy.
    let mut client = Client::connect(handle.addr()).unwrap();
    let rerun = client.submit(&spec).unwrap();
    assert!(rerun > 5);
    let (_, done) = client.wait_done(rerun).unwrap();
    assert_eq!(done.assignment, resumed.assignment);
    assert_eq!(done.value, resumed.value);
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_final_record_is_tolerated_and_corruption_is_fatal() {
    let path = temp_journal("torn");

    // A clean finished run...
    let handle = Server::bind_with("127.0.0.1:0", journaled_config(&path))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load("grid", GraphSource::Data(GRID.into()), GraphFormat::Metis)
        .unwrap();
    let id = client.submit(&grid_job(2_000, 1)).unwrap();
    client.wait_done(id).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // ...then a crash mid-append: a torn, newline-less tail.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(b"312 deadbeefdeadbeef {\"kind\":\"ev")
        .unwrap();
    drop(file);
    let handle = Server::bind_with("127.0.0.1:0", journaled_config(&path))
        .unwrap()
        .spawn()
        .unwrap();
    let replay = handle.replay_summary().unwrap();
    assert!(replay.truncated, "torn tail must be detected and dropped");
    assert_eq!(replay.finished, 1);
    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join().unwrap();

    // Mid-file corruption is different: fail the bind, name the offset.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.truncate(bytes.iter().rposition(|&b| b == b'\n').unwrap() + 1);
    bytes[40] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    let err = Server::bind_with("127.0.0.1:0", journaled_config(&path))
        .err()
        .expect("corrupt journal must refuse to bind");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("journal corrupt at byte"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_instance_digest_skips_resume_instead_of_running_on_wrong_bytes() {
    let path = temp_journal("stale");
    let writer = JournalWriter::open(&path).unwrap();
    writer
        .append(&JournalRecord::Instance {
            instance: "grid".into(),
            source: GraphSource::Data(GRID.into()),
            format: GraphFormat::Metis,
            // Not what loading GRID produces: the "file changed across
            // the restart" shape.
            digest: 0xDEAD_BEEF,
        })
        .unwrap();
    writer
        .append(&JournalRecord::Submitted {
            job: 1,
            spec: grid_job(2_000, 1),
        })
        .unwrap();
    drop(writer);

    let handle = Server::bind_with("127.0.0.1:0", journaled_config(&path))
        .unwrap()
        .spawn()
        .unwrap();
    let replay = handle.replay_summary().unwrap();
    assert_eq!((replay.finished, replay.resumed, replay.skipped), (0, 0, 1));
    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&path);
}
