//! Property tests: the byte-budgeted LRU cache against an independent
//! reference model, and parser fuzzing (NDJSON lines) — the "never
//! panic, always typed" half of the serving-hardening contract.

use ff_partition::Objective;
use ff_service::{Event, GraphFormat, GraphSource, InstanceCache, PinnedGraph, Registry, Request};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

// ---------------------------------------------------------------------
// LRU cache vs reference model
// ---------------------------------------------------------------------

/// The op alphabet driving both the real cache and the model.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Load `keys[k]` from `sizes[s]`'s data.
    Load(usize, usize),
    /// Pin `keys[k]` (guard kept until a later Unpin).
    Pin(usize),
    /// Drop the most recent live guard.
    Unpin,
    /// Touch `keys[k]` without pinning.
    Get(usize),
}

const KEYS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Three distinct graph "sizes" (path graphs; distinct content ⇒
/// distinct digests, so reloading a key at a different size replaces).
fn corpus() -> Vec<(String, usize)> {
    [4usize, 10, 24]
        .iter()
        .map(|&n| {
            let g = ff_graph::generators::path(n);
            let mut text = Vec::new();
            ff_graph::io::write_metis(&g, &mut text).unwrap();
            let data = String::from_utf8(text).unwrap();
            let bytes = ff_graph::io::read_metis(data.as_bytes())
                .unwrap()
                .csr_bytes();
            (data, bytes)
        })
        .collect()
}

/// An entry in the reference model.
#[derive(Clone, Debug)]
struct ModelEntry {
    key: usize,
    size: usize,
    bytes: usize,
    pins: u32,
    last_use: u64,
    id: u64,
}

/// An independent reimplementation of the documented cache policy:
/// content-digest hits, LRU eviction past the budget, pinned entries and
/// the entry being inserted are exempt.
#[derive(Debug, Default)]
struct Model {
    entries: Vec<ModelEntry>,
    budget: usize,
    tick: u64,
    next_id: u64,
    evictions: u64,
    loads: u64,
}

impl Model {
    fn total(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    fn evict(&mut self, protect: u64) {
        if self.budget == 0 {
            return;
        }
        while self.total() > self.budget {
            let victim = self
                .entries
                .iter()
                .filter(|e| e.pins == 0 && e.id != protect)
                .min_by_key(|e| e.last_use)
                .map(|e| e.id);
            let Some(id) = victim else { break };
            let gone = self.entries.iter().find(|e| e.id == id).unwrap();
            assert_eq!(gone.pins, 0, "model must never evict a pinned entry");
            self.entries.retain(|e| e.id != id);
            self.evictions += 1;
        }
    }

    /// Returns `(cached, reloaded)` like the real cache.
    fn load(&mut self, key: usize, size: usize, bytes: usize) -> (bool, bool) {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            if e.size == size {
                e.last_use = self.tick;
                return (true, false);
            }
        }
        let reloaded = self.entries.iter().any(|e| e.key == key);
        self.entries.retain(|e| e.key != key);
        let id = self.next_id;
        self.next_id += 1;
        self.loads += 1;
        self.entries.push(ModelEntry {
            key,
            size,
            bytes,
            pins: 0,
            last_use: self.tick,
            id,
        });
        self.evict(id);
        (false, reloaded)
    }

    /// Returns the pinned entry's generation id, if present.
    fn pin(&mut self, key: usize) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.iter_mut().find(|e| e.key == key)?;
        e.pins += 1;
        e.last_use = tick;
        Some(e.id)
    }

    /// Mirrors a guard drop: decrement only if the generation matches,
    /// and reclaim over-budget bytes once the entry is fully unpinned.
    fn unpin(&mut self, key: usize, id: u64) {
        let mut unpinned = false;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            if e.id == id {
                e.pins -= 1;
                unpinned = e.pins == 0;
            }
        }
        if unpinned {
            self.evict(u64::MAX);
        }
    }

    fn get(&mut self, key: usize) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(e) => {
                e.last_use = tick;
                true
            }
            None => false,
        }
    }

    /// `(key, bytes, pins)` rows, least-recently-used first — the shape
    /// [`InstanceCache::entries`] reports.
    fn rows(&self) -> Vec<(String, usize, u32)> {
        let mut sorted: Vec<&ModelEntry> = self.entries.iter().collect();
        sorted.sort_by_key(|e| e.last_use);
        sorted
            .iter()
            .map(|e| (KEYS[e.key].to_string(), e.bytes, e.pins))
            .collect()
    }
}

/// Strategy: a budget choice and an op tape, derived from one seed the
/// way the repo's other property suites build structured inputs.
fn arb_case() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (any::<u64>(), 8usize..48).prop_map(|(seed, len)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sizes = corpus();
        let budget = match rng.gen_range(0u32..4) {
            0 => 0, // unlimited
            1 => sizes[0].1 * 2 + sizes[0].1 / 2,
            2 => sizes[1].1 * 2,
            _ => sizes[2].1 + sizes[1].1 + sizes[0].1,
        };
        let ops = (0..len)
            .map(|_| match rng.gen_range(0u32..10) {
                0..=3 => Op::Load(rng.gen_range(0..KEYS.len()), rng.gen_range(0usize..3)),
                4..=5 => Op::Pin(rng.gen_range(0..KEYS.len())),
                6..=7 => Op::Unpin,
                _ => Op::Get(rng.gen_range(0..KEYS.len())),
            })
            .collect();
        (budget, ops)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ISSUE acceptance: arbitrary load/pin/unpin/get sequences keep the
    /// real cache in lockstep with the reference model — budget
    /// respected, pinned entries never evicted, LRU order preserved.
    #[test]
    fn lru_cache_matches_reference_model((budget, ops) in arb_case()) {
        let sizes = corpus();
        let registry = Registry::new();
        let cache = InstanceCache::with_budget(budget, &registry);
        let mut model = Model {
            budget,
            ..Model::default()
        };
        // Live guards as (key index, model generation id, real guard).
        let mut guards: Vec<(usize, u64, PinnedGraph)> = Vec::new();
        for op in ops {
            match op {
                Op::Load(k, s) => {
                    let (data, bytes) = &sizes[s];
                    let (_, outcome) = cache
                        .load(KEYS[k], GraphSource::Data(data.clone()), GraphFormat::Metis)
                        .unwrap();
                    let (cached, reloaded) = model.load(k, s, *bytes);
                    prop_assert_eq!(outcome.cached, cached);
                    prop_assert_eq!(outcome.reloaded, reloaded);
                }
                Op::Pin(k) => {
                    let real = cache.pin(KEYS[k]);
                    let id = model.pin(k);
                    prop_assert_eq!(real.is_some(), id.is_some());
                    if let (Some(guard), Some(id)) = (real, id) {
                        guards.push((k, id, guard));
                    }
                }
                Op::Unpin => {
                    if let Some((k, id, guard)) = guards.pop() {
                        drop(guard);
                        model.unpin(k, id);
                    }
                }
                Op::Get(k) => {
                    prop_assert_eq!(cache.get(KEYS[k]).is_some(), model.get(k));
                }
            }
            // Lockstep state: same entries, same bytes, same LRU order,
            // same pin counts, same eviction/load counters.
            let real_rows: Vec<(String, usize, u32)> = cache
                .entries()
                .into_iter()
                .map(|e| (e.key, e.bytes, e.pins))
                .collect();
            prop_assert_eq!(&real_rows, &model.rows());
            let stats = cache.stats();
            prop_assert_eq!(stats.bytes as usize, model.total());
            prop_assert_eq!(stats.evictions, model.evictions);
            prop_assert_eq!(stats.loads, model.loads);
            // The registry counters are the store `stats` reads back.
            let samples = ff_obs::parse_exposition(&registry.render()).unwrap();
            let total = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
            prop_assert_eq!(total("ff_cache_loads_total"), Some(model.loads as f64));
            prop_assert_eq!(total("ff_cache_evictions_total"), Some(model.evictions as f64));
            // The budget invariant: exceeding it is only legal when every
            // entry is pinned or is the single most-recently-loaded one.
            if budget > 0 && stats.bytes as usize > budget {
                let unpinned_lru_count = model
                    .entries
                    .iter()
                    .filter(|e| e.pins == 0 && e.id != model.next_id - 1)
                    .count();
                prop_assert_eq!(unpinned_lru_count, 0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Protocol fuzz: truncated / overlong / type-confused lines
// ---------------------------------------------------------------------

/// Valid lines to mutate, covering every op and event shape. The w*
/// distributed-islands messages are generated from their typed forms so
/// the corpus can never drift from the real wire format.
fn seed_lines() -> Vec<String> {
    use ff_service::protocol::{MoleculeInfo, WIslandResult, WIslandState, WNews, WorkerStart};
    let molecule = MoleculeInfo {
        assignment: vec![0, 1, 2, 0],
        parts: 3,
    };
    let mut lines = w_lines(&[
        Request::WStart(WorkerStart {
            session: 1,
            instance: "g".into(),
            k: 3,
            seeds: vec![7, u64::MAX],
            objectives: vec![Objective::MCut, Objective::Cut],
            steps: 4_000,
        })
        .to_value(),
        Request::WAdvance {
            session: 1,
            epoch: 2,
            steps: 512,
        }
        .to_value(),
        Request::WMolecule {
            session: 1,
            island: 0,
        }
        .to_value(),
        Request::WInject {
            session: 1,
            island: 1,
            molecule: molecule.clone(),
            crossover: true,
        }
        .to_value(),
        Request::WHarvest { session: 1 }.to_value(),
        Event::WReady {
            session: 1,
            islands: 2,
        }
        .to_value(),
        Event::WState {
            session: 1,
            epoch: 2,
            islands: vec![WIslandState {
                island: 0,
                more: true,
                energy: f64::INFINITY,
                steps: 1_024,
                news: vec![WNews {
                    step: 40,
                    value: 0.5,
                    elapsed_ms: 3,
                }],
            }],
        }
        .to_value(),
        Event::WMolecule {
            session: 1,
            island: 0,
            molecule: molecule.clone(),
            energy: 0.25,
        }
        .to_value(),
        Event::WInjected {
            session: 1,
            island: 1,
            adopted: true,
        }
        .to_value(),
        Event::WHarvested {
            session: 1,
            islands: vec![WIslandResult {
                island: 0,
                value: 1.0,
                energy: f64::NEG_INFINITY,
                steps: 4_000,
                molecule,
                per_k: vec![(2, 1.0), (3, 0.5)],
            }],
        }
        .to_value(),
    ]);
    lines.extend(fixed_lines());
    lines
}

fn w_lines(values: &[serde_json::Value]) -> Vec<String> {
    values.iter().map(|v| v.to_string()).collect()
}

fn fixed_lines() -> Vec<String> {
    vec![
        r#"{"op":"load","instance":"g","data":"3 3\n2 3\n1 3\n1 2\n","format":"metis"}"#.into(),
        r#"{"op":"load","instance":"g","path":"/tmp/x.graph"}"#.into(),
        r#"{"op":"submit","instance":"g","k":4,"objective":"mcut","seed":7,"steps":1000,"islands":2,"chunk":64,"assignment":true}"#.into(),
        r#"{"op":"cancel","job":3}"#.into(),
        r#"{"op":"stats"}"#.into(),
        r#"{"op":"shutdown"}"#.into(),
        r#"{"event":"hello","proto":1,"workers":2}"#.into(),
        r#"{"event":"accepted","job":1,"instance":"g","k":4}"#.into(),
        r#"{"event":"rejected","instance":"g","reason":"full","retry_after_ms":100,"in_flight":8}"#.into(),
        r#"{"event":"improvement","job":1,"value":4.25,"step":900,"elapsed_ms":15,"island":0}"#.into(),
        r#"{"event":"done","job":1,"status":"completed","value":4.0,"parts":4,"steps":1000,"elapsed_ms":20,"migrations":0,"assignment":[0,1,2,3]}"#.into(),
        r#"{"event":"stats","instances":1,"cache_hits":2,"cache_loads":1,"jobs_submitted":3,"jobs_running":1,"jobs_done":2,"permit_wait_hist":[1,2,3,4,5]}"#.into(),
        r#"{"event":"error","message":"boom","job":9}"#.into(),
    ]
}

/// One deterministic mutation of a valid line.
fn mutate(line: &str, rng: &mut ChaCha8Rng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    match rng.gen_range(0u32..5) {
        // Truncate at a random byte.
        0 => {
            let cut = rng.gen_range(0..=bytes.len());
            bytes.truncate(cut);
        }
        // Overlong: splice a huge run of a random byte into the middle.
        1 => {
            let at = rng.gen_range(0..=bytes.len());
            let filler = vec![b'a' + (rng.gen::<u8>() % 26); rng.gen_range(1_000usize..20_000)];
            bytes.splice(at..at, filler);
        }
        // Type confusion: numbers become strings/objects and vice versa.
        2 => {
            let s = String::from_utf8_lossy(&bytes)
                .replace(":1", ":\"one\"")
                .replace(":4", ":{}")
                .replace("\"mcut\"", "3.25")
                .replace("[0,1,2,3]", "\"0123\"");
            bytes = s.into_bytes();
        }
        // Random byte corruption.
        3 => {
            for _ in 0..rng.gen_range(1u32..8) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen();
            }
        }
        // Pure garbage of random length.
        _ => {
            bytes = (0..rng.gen_range(0usize..256)).map(|_| rng.gen()).collect();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Request/event parsing never panics: every mutated line either
    /// parses or yields a non-empty, human-readable error message.
    #[test]
    fn mutated_protocol_lines_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lines = seed_lines();
        for line in &lines {
            let mutant = mutate(line, &mut rng);
            if let Err(msg) = Request::parse(&mutant) {
                prop_assert!(!msg.is_empty(), "empty error for {mutant:?}");
            }
            if let Err(msg) = Event::parse(&mutant) {
                prop_assert!(!msg.is_empty(), "empty error for {mutant:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Distributed w* messages: round-trip properties and payload fuzz
// ---------------------------------------------------------------------

/// Decodes a selector + raw bits into an f64 covering every shape the
/// wire must carry: ±inf, NaN, zero, arbitrary bit patterns (subnormals
/// and signalling NaNs included) and ordinary magnitudes.
fn float_shape(sel: u8, bits: u64) -> f64 {
    match sel % 6 {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => f64::NAN,
        3 => 0.0,
        4 => f64::from_bits(bits),
        _ => (bits as f64) / 1e3,
    }
}

/// Wire equality for floats: exact bits for finite values (the format
/// prints shortest-round-trip), NaN payloads collapse to one NaN.
fn f64_wire_eq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `wstart` carries full-width u64 seeds (the >2^53 string escape
    /// hatch) and per-island objectives through a byte round-trip.
    #[test]
    fn wstart_roundtrips_full_width_seeds(
        session in any::<u64>(),
        seeds in (any::<u64>(), any::<u64>()),
        k in 2u64..12,
        steps in 1u64..u64::MAX,
    ) {
        use ff_service::protocol::WorkerStart;
        let req = Request::WStart(WorkerStart {
            session,
            instance: "g".into(),
            k: k as usize,
            seeds: vec![seeds.0, seeds.1, u64::MAX, (1 << 53) + 1],
            objectives: vec![
                Objective::MCut,
                Objective::Cut,
                Objective::NCut,
                Objective::MCut,
            ],
            steps,
        });
        let line = req.to_value().to_string();
        prop_assert_eq!(Request::parse(&line), Ok(req));
    }

    /// `wstate` and `wmolecule` events round-trip every float shape an
    /// energy can take — ±inf, NaN, subnormal, ordinary — exactly.
    #[test]
    fn wstate_roundtrips_every_float_shape(
        bits in (any::<u64>(), any::<u64>()),
        sel in (0u8..6, 0u8..6),
        step in any::<u64>(),
        elapsed in any::<u64>(),
    ) {
        use ff_service::protocol::{WIslandState, WNews};
        let energy = float_shape(sel.0, bits.0);
        let value = float_shape(sel.1, bits.1);
        let ev = Event::WState {
            session: 9,
            epoch: 3,
            islands: vec![WIslandState {
                island: 0,
                more: true,
                energy,
                steps: step,
                news: vec![WNews { step, value, elapsed_ms: elapsed }],
            }],
        };
        match Event::parse(&ev.to_value().to_string()) {
            Ok(Event::WState { session, epoch, islands }) => {
                prop_assert_eq!((session, epoch), (9, 3));
                prop_assert_eq!(islands.len(), 1);
                let st = &islands[0];
                prop_assert!((st.island, st.more, st.steps) == (0, true, step));
                prop_assert!(
                    f64_wire_eq(st.energy, energy),
                    "energy {energy} -> {}", st.energy
                );
                prop_assert_eq!(st.news.len(), 1);
                prop_assert!(
                    f64_wire_eq(st.news[0].value, value),
                    "value {value} -> {}", st.news[0].value
                );
                prop_assert!((st.news[0].step, st.news[0].elapsed_ms) == (step, elapsed));
            }
            other => prop_assert!(false, "round-trip broke: {other:?}"),
        }
    }

    /// `wharvested` round-trips molecules and the per-k value table with
    /// special floats intact.
    #[test]
    fn wharvested_roundtrips_molecule_and_per_k(
        bits in (any::<u64>(), any::<u64>()),
        sel in (0u8..6, 0u8..6),
        parts in 1u32..6,
        steps in any::<u64>(),
    ) {
        use ff_service::protocol::{MoleculeInfo, WIslandResult};
        let energy = float_shape(sel.0, bits.0);
        let value = float_shape(sel.1, bits.1);
        let assignment: Vec<u32> = (0..8).map(|i| i % parts).collect();
        let ev = Event::WHarvested {
            session: 4,
            islands: vec![WIslandResult {
                island: 0,
                value,
                energy,
                steps,
                molecule: MoleculeInfo {
                    assignment: assignment.clone(),
                    parts: parts as usize,
                },
                per_k: vec![(2, value), (3, energy)],
            }],
        };
        match Event::parse(&ev.to_value().to_string()) {
            Ok(Event::WHarvested { islands, .. }) => {
                let r = &islands[0];
                prop_assert_eq!(&r.molecule.assignment, &assignment);
                prop_assert_eq!(r.molecule.parts, parts as usize);
                prop_assert!(f64_wire_eq(r.value, value));
                prop_assert!(f64_wire_eq(r.energy, energy));
                prop_assert_eq!(r.steps, steps);
                prop_assert_eq!(r.per_k.len(), 2);
                prop_assert!(f64_wire_eq(r.per_k[0].1, value));
                prop_assert!(f64_wire_eq(r.per_k[1].1, energy));
            }
            other => prop_assert!(false, "round-trip broke: {other:?}"),
        }
    }

    /// Randomly mutated molecule payloads (truncation, type confusion,
    /// corruption, garbage) never panic the parser: they either parse or
    /// fail with a typed, non-empty message.
    #[test]
    fn mutated_molecule_payloads_never_panic(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base =
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0,1,2,0],"parts":3}"#;
        for _ in 0..16 {
            let mutant = mutate(base, &mut rng);
            if let Err(msg) = Request::parse(&mutant) {
                prop_assert!(!msg.is_empty(), "empty error for {mutant:?}");
            }
        }
    }
}

/// Targeted molecule corruptions are rejected with a typed error — a
/// damaged payload can never silently become a *different* molecule.
#[test]
fn molecule_payload_corruptions_are_rejected_not_reinterpreted() {
    let cases = [
        // Truncation: a required field is simply gone.
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"parts":3}"#,
            "assignment",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0,1]}"#,
            "parts",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"assignment":[0,1],"parts":2}"#,
            "crossover",
        ),
        // Degenerate shapes.
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[],"parts":3}"#,
            "must not be empty",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0],"parts":0}"#,
            "at least 1",
        ),
        // Out-of-range and type-confused part ids.
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0,9],"parts":3}"#,
            "out of range",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0,-1],"parts":3}"#,
            "bad part id",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0,1.5],"parts":3}"#,
            "bad part id",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":["0",1],"parts":3}"#,
            "bad part id",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0,4294967296],"parts":3}"#,
            "bad part id",
        ),
        (
            r#"{"op":"winject","session":1,"island":0,"crossover":"yes","assignment":[0,1],"parts":2}"#,
            "crossover",
        ),
    ];
    for (line, fragment) in cases {
        let err = Request::parse(line).expect_err(line);
        assert!(err.contains(fragment), "{line}: `{err}` lacks `{fragment}`");
    }
}

/// Unknown fields on w* messages are rejected *by name* — a typo'd or
/// smuggled field can never ride along silently.
#[test]
fn w_messages_reject_unknown_fields_by_name() {
    let cases = [
        r#"{"op":"winject","session":1,"island":0,"crossover":false,"assignment":[0,1],"parts":2,"smuggled":7}"#,
        r#"{"op":"wadvance","session":1,"epoch":0,"steps":10,"smuggled":7}"#,
        r#"{"op":"wmolecule","session":1,"island":0,"smuggled":7}"#,
        r#"{"op":"wharvest","session":1,"smuggled":7}"#,
        r#"{"op":"wstart","session":1,"instance":"g","k":2,"seeds":[1],"objectives":["mcut"],"steps":10,"smuggled":7}"#,
        r#"{"event":"wready","session":1,"islands":2,"smuggled":7}"#,
        r#"{"event":"wstate","session":1,"epoch":0,"islands":[],"smuggled":7}"#,
    ];
    for line in cases {
        let err = if line.contains("\"op\"") {
            Request::parse(line).expect_err(line)
        } else {
            Event::parse(line).expect_err(line)
        };
        assert!(
            err.contains("unknown field `smuggled`"),
            "{line}: error `{err}` should name the field"
        );
    }
}

// ---------------------------------------------------------------------
// Journal frame round-trip and crash-prefix tolerance
// ---------------------------------------------------------------------

/// Builds one journal record from four raw u64 draws — the shim has no
/// combinator zoo, so the record shape is decoded from the entropy by
/// hand: `sel` picks the variant, the rest parameterize it. Covers the
/// full vocabulary the server journals (instance loads, admitted specs,
/// improvement and done events, with every optional field exercised).
fn journal_record_from(sel: u64, a: u64, b: u64, c: u64) -> ff_service::JournalRecord {
    use ff_service::{DoneInfo, Improvement, JobRequest, JobStatus, JournalRecord};
    let objective = |n: u64| match n % 3 {
        0 => Objective::Cut,
        1 => Objective::NCut,
        _ => Objective::MCut,
    };
    match sel % 4 {
        0 => JournalRecord::Instance {
            instance: format!("inst-{}", a % 16),
            source: GraphSource::Data(format!("{} {}\n", b % 100, c % 100)),
            format: if b.is_multiple_of(2) {
                GraphFormat::Metis
            } else {
                GraphFormat::EdgeList
            },
            digest: c,
        },
        1 => JournalRecord::Submitted {
            job: a,
            spec: JobRequest {
                objective: objective(b),
                seed: c,
                steps: (!b.is_multiple_of(3)).then_some(b % 1_000_000 + 1),
                deadline_ms: b.is_multiple_of(3).then_some(c % 60_000 + 1),
                islands: (b % 7 + 1) as usize,
                chunk: c % 10_000 + 1,
                assignment: c.is_multiple_of(2),
                multilevel: c.is_multiple_of(5).then_some(b % 5_000),
                ..JobRequest::new(format!("inst-{}", a % 16), (b % 63 + 1) as usize)
            },
        },
        2 => JournalRecord::Event(Event::Improvement(Improvement {
            job: a,
            value: (b % 2_000_000) as f64 / 7.0 - 100_000.0,
            step: b,
            elapsed_ms: c % 1_000_000,
            island: (c % 64) as usize,
            objective: c.is_multiple_of(2).then(|| objective(b)),
        })),
        _ => JournalRecord::Event(Event::Done(DoneInfo {
            job: a,
            status: match b % 3 {
                0 => JobStatus::Completed,
                1 => JobStatus::Cancelled,
                _ => JobStatus::Deadline,
            },
            value: (c % 2_000_000) as f64 / 7.0 - 100_000.0,
            parts: (b % 63 + 1) as usize,
            steps: b,
            elapsed_ms: c % 1_000_000,
            migrations: a % 1_000,
            assignment: c
                .is_multiple_of(3)
                .then(|| (0..(c % 20) as u32).map(|i| i % 4).collect()),
            pareto: None,
        })),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of journal records survives the frame: write them
    /// through [`ff_service::JournalWriter`], read them back with
    /// [`ff_service::read_journal`], get the same records. And any
    /// crash-shaped prefix of those bytes still parses to a prefix of
    /// the records — a torn tail is tolerated, never misread.
    #[test]
    fn journal_records_roundtrip_and_any_prefix_parses(
        seed in any::<u64>(),
        count in 1usize..12,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let records: Vec<ff_service::JournalRecord> = (0..count)
            .map(|_| journal_record_from(rng.gen(), rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let path = std::env::temp_dir()
            .join(format!("ff-props-journal-{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let writer = ff_service::JournalWriter::open(&path).unwrap();
        for record in &records {
            writer.append(record).unwrap();
        }
        drop(writer);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let outcome = ff_service::parse_journal(&bytes).unwrap();
        prop_assert!(!outcome.truncated);
        prop_assert_eq!(&outcome.records, &records);

        // Crash shape: the file ends mid-append at an arbitrary byte.
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let torn = ff_service::parse_journal(&bytes[..cut]).unwrap();
        // A prefix of the bytes must parse to a prefix of the records.
        prop_assert_eq!(&torn.records[..], &records[..torn.records.len()]);
        prop_assert!(torn.records.len() <= records.len());
    }
}
