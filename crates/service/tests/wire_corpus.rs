//! The golden wire corpus: the exact bytes of every protocol message and
//! journal record kind.
//!
//! Round-trip tests pass under any encoding; this file pins the encoding
//! itself. Journals on disk and workers of another build read these bytes,
//! so field order, number formatting and the `"inf"`/`"nan"` and >2^53
//! string escapes are all part of the contract. Every line of
//! `fixtures/wire.ndjson` must decode and re-encode to itself byte for
//! byte; the older shapes below must still decode.

use ff_partition::Objective;
use ff_service::{
    DoneInfo, Event, Improvement, JournalRecord, Request, StatsInfo, DURATION_BUCKET_MS,
    WAIT_BUCKET_MS,
};

const CORPUS: &str = include_str!("fixtures/wire.ndjson");

/// The tag a line is dispatched on: (`op` | `event` | `record`, its value).
fn tag_of(line: &str) -> (&'static str, String) {
    let v: serde_json::Value = serde_json::from_str(line).expect("corpus line is JSON");
    for key in ["op", "event", "record"] {
        if let Some(tag) = v.get(key).and_then(|t| t.as_str()) {
            return (key, tag.to_string());
        }
    }
    panic!("untagged corpus line: {line}");
}

/// Decodes a line with the decoder its tag selects and encodes it again.
fn reencode(line: &str) -> Result<String, String> {
    match tag_of(line).0 {
        "op" => Request::parse(line).map(|r| r.to_value().to_string()),
        "event" => Event::parse(line).map(|e| e.to_value().to_string()),
        _ => {
            let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
            JournalRecord::from_value(&v).map(|r| r.to_value().to_string())
        }
    }
}

#[test]
fn every_corpus_line_reencodes_byte_for_byte() {
    for line in CORPUS.lines() {
        match reencode(line) {
            Ok(again) => assert_eq!(again, line, "re-encoding changed the bytes"),
            Err(e) => panic!("corpus line failed to decode: {e}\n  {line}"),
        }
    }
}

#[test]
fn corpus_covers_every_message_kind() {
    let mut seen: Vec<(&str, String)> = CORPUS.lines().map(tag_of).collect();
    seen.sort();
    seen.dedup();
    let expected: Vec<(&str, &str)> = [
        ("event", "accepted"),
        ("event", "bye"),
        ("event", "cancelling"),
        ("event", "done"),
        ("event", "error"),
        ("event", "hello"),
        ("event", "improvement"),
        ("event", "loaded"),
        ("event", "rejected"),
        ("event", "stats"),
        ("event", "wharvested"),
        ("event", "winjected"),
        ("event", "wmolecule"),
        ("event", "wready"),
        ("event", "wstate"),
        ("op", "cancel"),
        ("op", "load"),
        ("op", "shutdown"),
        ("op", "stats"),
        ("op", "submit"),
        ("op", "wadvance"),
        ("op", "wharvest"),
        ("op", "winject"),
        ("op", "wmolecule"),
        ("op", "wstart"),
        ("record", "event"),
        ("record", "instance"),
        ("record", "submitted"),
    ]
    .to_vec();
    let seen: Vec<(&str, &str)> = seen.iter().map(|(k, t)| (*k, t.as_str())).collect();
    assert_eq!(seen, expected);
}

#[test]
fn stats_from_before_the_duration_histograms_still_decode() {
    let line = r#"{"event":"stats","instances":1.0,"cache_hits":9.0,"cache_loads":1.0,"jobs_submitted":10.0,"jobs_running":2.0,"jobs_done":8.0,"permit_wait_hist":[7.0,5.0,3.0,1.0,0.0]}"#;
    let expected = StatsInfo {
        instances: 1,
        cache_hits: 9,
        cache_loads: 1,
        jobs_submitted: 10,
        jobs_running: 2,
        jobs_done: 8,
        permit_wait_hist: [7, 5, 3, 1, 0],
        permit_wait_bucket_ms: WAIT_BUCKET_MS,
        job_duration_bucket_ms: DURATION_BUCKET_MS,
        ..StatsInfo::default()
    };
    assert_eq!(Event::parse(line).unwrap(), Event::Stats(expected));
}

#[test]
fn done_without_migrations_still_decodes() {
    let line = r#"{"event":"done","job":3.0,"status":"completed","value":4.125,"parts":2.0,"steps":100.0,"elapsed_ms":5.0}"#;
    let expected = DoneInfo {
        job: 3,
        status: ff_service::JobStatus::Completed,
        value: 4.125,
        parts: 2,
        steps: 100,
        elapsed_ms: 5,
        migrations: 0,
        assignment: None,
        pareto: None,
    };
    assert_eq!(Event::parse(line).unwrap(), Event::Done(expected));
}

#[test]
fn improvement_without_island_still_decodes() {
    let line = r#"{"event":"improvement","job":3.0,"value":4.25,"step":900.0,"elapsed_ms":15.0,"objective":"cut"}"#;
    let expected = Improvement {
        job: 3,
        value: 4.25,
        step: 900,
        elapsed_ms: 15,
        island: 0,
        objective: Some(Objective::Cut),
    };
    assert_eq!(Event::parse(line).unwrap(), Event::Improvement(expected));
}
