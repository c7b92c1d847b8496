//! The three workloads: how each sets up the service, drives it for the
//! measured window, and checks every answer against the oracle.

use crate::data::{self, ProbeSource, Review, Rng};
use crate::http::{self, Exchange};
use crate::json::{self, Json};
use crate::oracle::{self, Doc};
use crate::serve::{self, ServerProc, Storage};
use crate::trace::Tracer;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many times set-up runs per invocation; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Records per `POST /ingest` batch while setting up.
const SETUP_BATCH: usize = 500;

/// select-light: records, open-loop rate, and its query mix.
pub const SELECT_RECORDS: usize = 20_000;
pub const SELECT_RATE: f64 = 25.0;
const HOT_PROBES: usize = 64;
const HOT_SHARE: f64 = 0.5;
const LIMIT_ROWS: usize = 10;
/// Latency limit the report holds select-light requests to.
const SELECT_LIMIT_MS: f64 = 50.0;

/// join-stream: records, outer windows, and the self-join size.
pub const JOIN_RECORDS: usize = 10_000;
pub const JOIN_POSTS: usize = 500;
pub const JACCARD_JOIN_OUTER: usize = 40;
pub const EDIT_JOIN_OUTER: usize = 30;
const JOIN_WINDOWS: usize = 12;
/// Row counts a join window must return to be kept, and tries per window.
const JACCARD_JOIN_ROWS: (usize, usize) = (300, 900);
const EDIT_JOIN_ROWS: (usize, usize) = (60, 180);
const WINDOW_DRAWS: usize = 20;
pub const SELF_JOIN_DELTA: f64 = 0.5;
const JOIN_CORPUS_SEED: u64 = 1;
const JOIN_LIMIT_MS: f64 = 500.0;

/// ingest-mixed: preloaded records, records per feed batch.
pub const INGEST_PRELOAD: usize = 20_000;
pub const INGEST_BATCH: usize = 20;
const INGEST_LIMIT_MS: f64 = 250.0;
/// Reader queries planned per second of run, and tail probes they share.
const READER_PLAN_PER_S: f64 = 100.0;
const READER_TAIL: usize = 256;

/// One workload, as named in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SelectLight,
    JoinStream,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SelectLight,
        Workload::JoinStream,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SelectLight => "select-light",
            Workload::JoinStream => "join-stream",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one query must return.
#[derive(Clone, Debug)]
pub enum Check {
    /// Exactly these ids (sorted).
    Ids(Vec<i64>),
    /// Exactly these `(o, i)` pairs (sorted).
    Pairs(Vec<(i64, i64)>),
    /// `n` distinct ids of reviews with `score >= min_score`.
    Limit { n: usize, min_score: i64 },
    /// A Jaccard selection over data that grows while the query runs:
    /// every returned id satisfies the predicate, and every match among
    /// the preload and the first `acked` fed records is returned.
    Growing { probe: String, delta: f64 },
}

/// One query the client sends.
#[derive(Clone, Debug)]
pub struct Query {
    pub kind: &'static str,
    pub statement: String,
    pub check: Check,
}

/// One completed request of the measured window.
pub struct Sample {
    pub kind: &'static str,
    /// Index into the workload's query list (queries only).
    pub query: Option<usize>,
    /// Client-observed latency: from when the request was due (open
    /// loop) or sent (closed loop) to its last byte.
    pub latency: Duration,
    /// Send time minus due time (open loop only).
    pub lag: Duration,
    pub ex: Exchange,
    pub traced: bool,
    /// Fed records acknowledged before this query was sent, and fed
    /// records sent by the time it completed (ingest-mixed).
    pub acked_before: usize,
    pub sent_after: usize,
}

/// Everything a workload run yields for reporting.
pub struct RunData {
    pub samples: Vec<Sample>,
    /// The latency limit operations are held to in the report.
    pub limit_ms: f64,
    /// Measured window: first request due to last completion.
    pub window: Duration,
    pub setup_secs: Vec<f64>,
    /// Records/s and batch latencies of the ingest the workload reports.
    pub ingest_rates: Vec<f64>,
    pub ingest_batch_ms: Vec<f64>,
    pub stored_bytes_per_record: f64,
    pub peak_rss_bytes: u64,
    pub admin_before: Json,
    pub admin_after: Json,
    /// Problems found by the checks.
    pub mismatches: Vec<String>,
    /// Records loaded in the service at the end (for per-record ratios).
    pub fed_records: u64,
    pub fed_batches: u64,
    /// In-process material for the per-layer measurements.
    pub local: Option<crate::layers::LocalInputs>,
}

/// A dataset the in-memory workloads load through the service.
struct Load {
    name: &'static str,
    lines: Vec<String>,
    indexes: Vec<(&'static str, &'static str, &'static str)>,
}

struct SetupResult {
    server: ServerProc,
    secs: f64,
    feed_secs: f64,
    records: usize,
    batch_ms: Vec<f64>,
}

fn post_ok(addr: SocketAddr, path: &str, body: &str, want: u16) -> Result<Exchange, String> {
    let ex = http::post(addr, path, body);
    if ex.status != want || ex.error.is_some() {
        return Err(format!(
            "POST {path} answered {} ({:?}): {}",
            ex.status, ex.error, ex.body
        ));
    }
    Ok(ex)
}

/// Start an in-memory server and load `make()`'s datasets through the
/// service: create, feed via `POST /ingest`, then build the indexes.
fn setup_memory(make: &dyn Fn() -> Vec<Load>) -> Result<SetupResult, String> {
    let started = Instant::now();
    let loads = make();
    let server = ServerProc::spawn(&Storage::Default)?;
    let addr = server.addr;
    let mut feed = Duration::ZERO;
    let mut records = 0;
    let mut batch_ms = Vec::new();
    for load in &loads {
        post_ok(
            addr,
            "/datasets",
            &format!("{{\"name\": \"{}\", \"primary_key\": \"id\"}}", load.name),
            201,
        )?;
        for body in data::batches(&load.lines, SETUP_BATCH) {
            let ex = post_ok(addr, &format!("/ingest/{}", load.name), &body, 200)?;
            feed += ex.total;
            batch_ms.push(ex.total.as_secs_f64() * 1e3);
        }
        records += load.lines.len();
        for (index, field, kind) in &load.indexes {
            let spec = match *kind {
                "ngram" => format!(
                    "{{\"name\": \"{index}\", \"field\": \"{field}\", \"kind\": \"ngram\", \"gram\": 2}}"
                ),
                k => format!("{{\"name\": \"{index}\", \"field\": \"{field}\", \"kind\": \"{k}\"}}"),
            };
            post_ok(
                addr,
                &format!("/datasets/{}/indexes", load.name),
                &spec,
                201,
            )?;
        }
    }
    Ok(SetupResult {
        server,
        secs: started.elapsed().as_secs_f64(),
        feed_secs: feed.as_secs_f64(),
        records,
        batch_ms,
    })
}

/// What repeated set-ups measured, and the server the last one left.
struct Setups {
    server: ServerProc,
    secs: Vec<f64>,
    feed_rates: Vec<f64>,
    batch_ms: Vec<f64>,
}

/// Run set-up `runs` times; keep the last server.
fn setup_repeated(make: &dyn Fn() -> Vec<Load>, runs: usize) -> Result<Setups, String> {
    let mut secs = Vec::new();
    let mut rates = Vec::new();
    let mut batch_ms = Vec::new();
    let mut last = None;
    for _ in 0..runs {
        drop(last.take());
        let s = setup_memory(make)?;
        secs.push(s.secs);
        rates.push(s.records as f64 / s.feed_secs);
        batch_ms.extend(s.batch_ms.iter().copied());
        last = Some(s.server);
    }
    Ok(Setups {
        server: last.expect("at least one set-up"),
        secs,
        feed_rates: rates,
        batch_ms,
    })
}

fn admin_metrics(addr: SocketAddr) -> Result<Json, String> {
    let ex = http::get(addr, "/admin/metrics.json");
    if ex.status != 200 {
        return Err(format!("GET /admin/metrics.json answered {}", ex.status));
    }
    json::parse(&ex.body)
}

/// Sum of every index's size over every dataset, from the metrics.
fn stored_bytes(admin: &Json) -> f64 {
    admin
        .path("lsm.datasets")
        .as_array()
        .iter()
        .flat_map(|d| d.get("indexes").as_array())
        .map(|i| i.num("size_bytes"))
        .sum()
}

// ---------------------------------------------------------------------
// select-light

/// Oracle answers memoized by statement, shared by the probe filters and
/// the checks.
struct Answers<'a> {
    summaries: &'a [Doc],
    names: &'a [Doc],
    memo: HashMap<String, Vec<i64>>,
}

impl Answers<'_> {
    fn jaccard(&mut self, probe: &str, delta: f64) -> (String, Vec<i64>) {
        let statement = format!(
            "for $o in dataset AmazonReview where similarity-jaccard(word-tokens($o.summary), \
             word-tokens('{probe}')) >= {delta} return $o.id"
        );
        let docs = self.summaries;
        let ids = self
            .memo
            .entry(statement.clone())
            .or_insert_with(|| oracle::jaccard_select(docs, probe, delta))
            .clone();
        (statement, ids)
    }

    fn edit(&mut self, probe: &str, k: usize) -> (String, Vec<i64>) {
        let statement = format!(
            "for $o in dataset AmazonReview where edit-distance($o.reviewerName, '{probe}') <= {k} \
             return $o.id"
        );
        let docs = self.names;
        let ids = self
            .memo
            .entry(statement.clone())
            .or_insert_with(|| oracle::edit_select(docs, probe, k))
            .clone();
        (statement, ids)
    }
}

/// A selection probe is kept only if its widest variant (Jaccard δ 0.5,
/// edit distance k 2) returns between 1 and this many rows: a light
/// selection, not a bulk export, with result sizes alike across seeds.
const MAX_SELECT_ROWS: usize = 20;

fn light(ids: &[i64]) -> bool {
    (1..=MAX_SELECT_ROWS).contains(&ids.len())
}

fn select_queries(reviews: &[Review], count: usize, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x5E1E);
    let summary_docs = data::summary_docs(reviews);
    let name_docs = data::name_docs(reviews);
    let mut answers = Answers {
        summaries: &summary_docs,
        names: &name_docs,
        memo: HashMap::new(),
    };
    let names = data::edit_probe_column(reviews);
    // Corner-case probes: the first 5 characters of a name, so with k = 2
    // T = |2-grams| - 2k = 0 and the plan must revert to a scan.
    let prefixes: Vec<String> = names.iter().map(|n| n.chars().take(5).collect()).collect();
    let jac = ProbeSource::new(
        data::jaccard_probe_column(reviews),
        HOT_PROBES,
        HOT_SHARE,
        &mut rng,
        &mut |p| light(&answers.jaccard(p, 0.5).1),
    );
    let ed = ProbeSource::new(names, HOT_PROBES, HOT_SHARE, &mut rng, &mut |p| {
        light(&answers.edit(p, 2).1)
    });
    let corner = ProbeSource::new(
        prefixes.iter().map(String::as_str).collect(),
        HOT_PROBES,
        HOT_SHARE,
        &mut rng,
        &mut |p| oracle::edit_distance_t(p, 2, 2) <= 0 && light(&answers.edit(p, 2).1),
    );
    let mut out = Vec::with_capacity(count);
    let mut round: Vec<Slot> = Vec::new();
    for _ in 0..count {
        if round.is_empty() {
            // Index selections go in seeded order; the two scans (last in
            // ROUND) sit half a round apart so they never overlap.
            let scans = ROUND.len() - 2;
            round = ROUND[..scans].to_vec();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.below(i + 1));
            }
            round.insert(0, ROUND[scans]);
            round.insert(ROUND.len() / 2, ROUND[scans + 1]);
            round.reverse();
        }
        let q = match round.pop().expect("refilled above") {
            Slot::Jaccard(delta) => {
                let probe = jac.next(&mut rng, &mut |p| light(&answers.jaccard(p, 0.5).1));
                let (statement, ids) = answers.jaccard(&probe, delta);
                Query {
                    kind: "jaccard",
                    statement,
                    check: Check::Ids(ids),
                }
            }
            Slot::Edit {
                k,
                corner: is_corner,
            } => {
                let source = if is_corner { &corner } else { &ed };
                let probe = source.next(&mut rng, &mut |p| light(&answers.edit(p, 2).1));
                let (statement, ids) = answers.edit(&probe, k);
                Query {
                    kind: if is_corner { "edit-corner" } else { "edit" },
                    statement,
                    check: Check::Ids(ids),
                }
            }
            Slot::Limit => {
                let min_score = 2 + rng.below(4) as i64;
                Query {
                    kind: "limit",
                    statement: format!(
                        "for $o in dataset AmazonReview where $o.score >= {min_score} \
                         limit {LIMIT_ROWS} return $o.id"
                    ),
                    check: Check::Limit {
                        n: LIMIT_ROWS,
                        min_score,
                    },
                }
            }
        };
        out.push(q);
    }
    out
}

/// One request slot of the select-light mix.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Jaccard(f64),
    Edit { k: usize, corner: bool },
    Limit,
}

/// One round of the select-light mix, sent in a seeded order: indexed
/// Jaccard 9/20, indexed edit distance 9/20, one corner-case edit
/// distance probe and one limit scan. Every run sends whole rounds.
const ROUND: [Slot; 20] = {
    const J5: Slot = Slot::Jaccard(0.5);
    const J8: Slot = Slot::Jaccard(0.8);
    const E1: Slot = Slot::Edit {
        k: 1,
        corner: false,
    };
    const E2: Slot = Slot::Edit {
        k: 2,
        corner: false,
    };
    const C2: Slot = Slot::Edit { k: 2, corner: true };
    [
        J5,
        J5,
        J5,
        J5,
        J5,
        J8,
        J8,
        J8,
        J8,
        E1,
        E1,
        E1,
        E1,
        E1,
        E2,
        E2,
        E2,
        E2,
        C2,
        Slot::Limit,
    ]
};

fn review_load(name: &'static str, reviews: &[Review], indexed: bool) -> Load {
    Load {
        name,
        lines: reviews.iter().map(Review::ndjson).collect(),
        indexes: if indexed {
            vec![
                ("summary_kw", "summary", "keyword"),
                ("name_2gram", "reviewerName", "ngram"),
            ]
        } else {
            Vec::new()
        },
    }
}

/// Open loop at `SELECT_RATE` with at most `clients` requests in flight.
pub fn select_light(
    seed: u64,
    seconds: f64,
    clients: usize,
    tracer: &Tracer,
) -> Result<RunData, String> {
    let make = || {
        vec![review_load(
            "AmazonReview",
            &data::reviews(SELECT_RECORDS, seed),
            true,
        )]
    };
    let runs = if tracer.enabled() { 1 } else { SETUPS };
    let Setups {
        server,
        secs: setup_secs,
        feed_rates: ingest_rates,
        batch_ms: ingest_batch_ms,
    } = setup_repeated(&make, runs)?;
    let reviews = data::reviews(SELECT_RECORDS, seed);
    let planned =
        ((SELECT_RATE * seconds / ROUND.len() as f64).ceil() as usize).max(1) * ROUND.len();
    let queries = select_queries(&reviews, planned, seed);
    let addr = server.addr;
    let admin_before = admin_metrics(addr)?;

    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(planned));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= planned {
                    break;
                }
                let due = start + Duration::from_secs_f64(i as f64 / SELECT_RATE);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Whole rounds alternate, so both halves carry the same mix.
                let traced = tracer.enabled() && (i / ROUND.len()) % 2 == 1;
                let q = &queries[i];
                let ex = http::post(addr, "/query", &http::query_body(&q.statement, traced));
                let end = ex.sent + ex.total;
                let sample = Sample {
                    kind: q.kind,
                    query: Some(i),
                    latency: end - due,
                    lag: ex.sent.saturating_duration_since(due),
                    ex,
                    traced,
                    acked_before: 0,
                    sent_after: 0,
                };
                samples.lock().expect("samples lock").push(sample);
            });
        }
    });
    let samples = samples.into_inner().expect("samples lock");
    let window = samples
        .iter()
        .map(|s| s.ex.sent + s.ex.total)
        .max()
        .map_or(Duration::ZERO, |end| end.saturating_duration_since(start));
    let admin_after = admin_metrics(addr)?;
    let peak = server.peak_rss_bytes().unwrap_or(0);
    let stored = stored_bytes(&admin_after) / reviews.len() as f64;
    server.kill();

    let scores: HashMap<i64, i64> = reviews.iter().map(|r| (r.id, r.score)).collect();
    let mismatches = check_samples(&queries, &samples, &scores, &[]);
    let local = tracer
        .enabled()
        .then(|| crate::layers::LocalInputs::select(&reviews, &queries, seed));
    Ok(RunData {
        samples,
        limit_ms: SELECT_LIMIT_MS,
        window,
        setup_secs,
        ingest_rates,
        ingest_batch_ms,
        stored_bytes_per_record: stored,
        peak_rss_bytes: peak,
        admin_before,
        admin_after,
        mismatches,
        fed_records: 0,
        fed_batches: 0,
        local,
    })
}

// ---------------------------------------------------------------------
// join-stream

fn join_queries(reviews: &[Review], posts: &[data::Post], seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x101A);
    let summary_docs = data::summary_docs(reviews);
    let name_docs = data::name_docs(reviews);
    let n = reviews.len();
    let mut out = Vec::new();
    // Window w starts at a seeded offset inside the w-th stripe of ids,
    // so every run spreads its outer windows over the whole dataset.
    let stripe = n / JOIN_WINDOWS;
    for w in 0..JOIN_WINDOWS {
        let (a, pairs) = pick_window(
            &mut rng,
            w * stripe,
            stripe,
            JACCARD_JOIN_OUTER,
            JACCARD_JOIN_ROWS,
            |a| {
                oracle::nested_loop_join(
                    &summary_docs[a..a + JACCARD_JOIN_OUTER],
                    &summary_docs,
                    |o, i| oracle::jaccard(&o.tokens, &i.tokens) >= 0.8,
                )
            },
        );
        let b = a + JACCARD_JOIN_OUTER;
        out.push(Query {
            kind: "jaccard-join",
            statement: format!(
                "for $o in dataset AmazonReview for $i in dataset AmazonReview \
                 where $o.id >= {a} and $o.id < {b} \
                 and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
                 return {{\"o\": $o.id, \"i\": $i.id}}"
            ),
            check: Check::Pairs(pairs),
        });
        let (a, pairs) = pick_window(
            &mut rng,
            w * stripe,
            stripe,
            EDIT_JOIN_OUTER,
            EDIT_JOIN_ROWS,
            |a| {
                oracle::nested_loop_join(&name_docs[a..a + EDIT_JOIN_OUTER], &name_docs, |o, i| {
                    o.chars.abs_diff(i.chars) <= 1 && oracle::levenshtein(&o.text, &i.text) <= 1
                })
            },
        );
        let b = a + EDIT_JOIN_OUTER;
        out.push(Query {
            kind: "edit-join",
            statement: format!(
                "for $o in dataset AmazonReview for $i in dataset AmazonReview \
                 where $o.id >= {a} and $o.id < {b} \
                 and edit-distance($o.reviewerName, $i.reviewerName) <= 1 \
                 return {{\"o\": $o.id, \"i\": $i.id}}"
            ),
            check: Check::Pairs(pairs),
        });
    }
    let titles = data::title_docs(posts);
    out.push(Query {
        kind: "three-stage",
        statement: format!(
            "for $a in dataset Reddit for $b in dataset Reddit \
             where similarity-jaccard(word-tokens($a.title), word-tokens($b.title)) >= {SELF_JOIN_DELTA} \
             and $a.id < $b.id return {{\"o\": $a.id, \"i\": $b.id}}"
        ),
        check: Check::Pairs(oracle::nested_loop_join(&titles, &titles, |o, i| {
            o.id < i.id && oracle::jaccard(&o.tokens, &i.tokens) >= SELF_JOIN_DELTA
        })),
    });
    out
}

/// Pick an outer window `[a, a + outer)` inside `[from, from + stripe)`
/// whose join returns a row count within `band`, so every run streams
/// alike amounts; after `WINDOW_DRAWS` tries the last window is kept.
fn pick_window(
    rng: &mut Rng,
    from: usize,
    stripe: usize,
    outer: usize,
    band: (usize, usize),
    join: impl Fn(usize) -> Vec<(i64, i64)>,
) -> (usize, Vec<(i64, i64)>) {
    let mut last = (from, Vec::new());
    for _ in 0..WINDOW_DRAWS {
        let a = from + rng.below(stripe - outer);
        let pairs = join(a);
        let fits = (band.0..=band.1).contains(&pairs.len());
        last = (a, pairs);
        if fits {
            break;
        }
    }
    last
}

/// The order each client cycles through the join queries: every window's
/// two index joins, with the self-join after every fourth query.
fn join_cycle(queries: &[Query]) -> Vec<usize> {
    let self_join = queries.len() - 1;
    let mut cycle = Vec::new();
    for (i, _) in queries.iter().enumerate().take(self_join) {
        cycle.push(i);
        if i % 4 == 3 {
            cycle.push(self_join);
        }
    }
    cycle
}

/// Closed loop: `clients` clients, each sending its next join as soon as
/// the previous one has streamed its last row. The corpus is the same for
/// every seed (generated from `JOIN_CORPUS_SEED`) and `--seed` picks the
/// outer windows: drawn from the seed, the corpus alone moved the joins'
/// median latency by about ±10 % between seeds, mostly through the cost
/// of the three-stage self-join.
pub fn join_stream(
    seed: u64,
    seconds: f64,
    clients: usize,
    tracer: &Tracer,
) -> Result<RunData, String> {
    let make = || {
        vec![
            review_load(
                "AmazonReview",
                &data::reviews(JOIN_RECORDS, JOIN_CORPUS_SEED),
                true,
            ),
            Load {
                name: "Reddit",
                lines: data::posts(JOIN_POSTS, JOIN_CORPUS_SEED)
                    .iter()
                    .map(data::Post::ndjson)
                    .collect(),
                indexes: Vec::new(),
            },
        ]
    };
    let runs = if tracer.enabled() { 1 } else { SETUPS };
    let Setups {
        server,
        secs: setup_secs,
        feed_rates: ingest_rates,
        batch_ms: ingest_batch_ms,
    } = setup_repeated(&make, runs)?;
    let reviews = data::reviews(JOIN_RECORDS, JOIN_CORPUS_SEED);
    let posts = data::posts(JOIN_POSTS, JOIN_CORPUS_SEED);
    let queries = join_queries(&reviews, &posts, seed);
    let cycle = join_cycle(&queries);
    let addr = server.addr;
    let admin_before = admin_metrics(addr)?;

    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (cycle, queries, samples) = (&cycle, &queries, &samples);
            scope.spawn(move || {
                // Clients start at different points of the cycle.
                let mut pos = c * cycle.len() / clients.max(1);
                while Instant::now() < deadline {
                    let qi = cycle[pos % cycle.len()];
                    // Whole cycles alternate, so both halves carry the same mix.
                    let traced = tracer.enabled() && (pos / cycle.len()) % 2 == 1;
                    pos += 1;
                    let q = &queries[qi];
                    let ex = http::post(addr, "/query", &http::query_body(&q.statement, traced));
                    let sample = Sample {
                        kind: q.kind,
                        query: Some(qi),
                        latency: ex.total,
                        lag: Duration::ZERO,
                        ex,
                        traced,
                        acked_before: 0,
                        sent_after: 0,
                    };
                    samples.lock().expect("samples lock").push(sample);
                }
            });
        }
    });
    let samples = samples.into_inner().expect("samples lock");
    let window = start.elapsed();
    let admin_after = admin_metrics(addr)?;
    let peak = server.peak_rss_bytes().unwrap_or(0);
    let stored = stored_bytes(&admin_after) / (reviews.len() + posts.len()) as f64;
    server.kill();

    let mismatches = check_samples(&queries, &samples, &HashMap::new(), &[]);
    let local = tracer
        .enabled()
        .then(|| crate::layers::LocalInputs::join(&reviews, &posts, &queries, seed));
    Ok(RunData {
        samples,
        limit_ms: JOIN_LIMIT_MS,
        window,
        setup_secs,
        ingest_rates,
        ingest_batch_ms,
        stored_bytes_per_record: stored,
        peak_rss_bytes: peak,
        admin_before,
        admin_after,
        mismatches,
        fed_records: 0,
        fed_batches: 0,
        local,
    })
}

// ---------------------------------------------------------------------
// ingest-mixed

/// Scratch directory for durable instances, inside the working
/// directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".simbench")
}

/// One durable set-up in a fresh directory: spawn to serving.
fn setup_durable(seed: u64, tag: usize) -> Result<(ServerProc, PathBuf, f64), String> {
    let dir = scratch_dir().join(format!("ingest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let started = Instant::now();
    let server = ServerProc::spawn(&Storage::Durable {
        dir: dir.clone(),
        preload: INGEST_PRELOAD,
        seed,
    })?;
    Ok((server, dir, started.elapsed().as_secs_f64()))
}

/// One closed-loop feeder posting NDJSON batches to a durable instance,
/// beside one closed-loop reader running indexed Jaccard selections.
pub fn ingest_mixed(seed: u64, seconds: f64, tracer: &Tracer) -> Result<RunData, String> {
    let runs = if tracer.enabled() { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let mut last = None;
    for tag in 0..runs {
        if let Some((server, dir)) = last.take() {
            drop::<ServerProc>(server);
            let _ = std::fs::remove_dir_all::<PathBuf>(dir);
        }
        let (server, dir, secs) = setup_durable(seed, tag)?;
        setup_secs.push(secs);
        last = Some((server, dir));
    }
    let (server, dir) = last.expect("at least one set-up");
    let result = ingest_run(seed, seconds, tracer, server, &dir, setup_secs);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn ingest_run(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    server: ServerProc,
    dir: &std::path::Path,
    setup_secs: Vec<f64>,
) -> Result<RunData, String> {
    // Enough fed records for ten times today's durable rate.
    let feed_total = INGEST_PRELOAD + (4_000.0 * seconds).ceil() as usize;
    let all = data::reviews(feed_total, seed);
    let preload = &all[..INGEST_PRELOAD];
    let fed = &all[INGEST_PRELOAD..];
    let bodies = data::batches(
        &fed.iter().map(Review::ndjson).collect::<Vec<_>>(),
        INGEST_BATCH,
    );

    let mut rng = Rng::new(seed ^ 0x16E5);
    let preload_docs = data::summary_docs(preload);
    let mut accept = |p: &str| light(&oracle::jaccard_select(&preload_docs, p, 0.5));
    let probes = ProbeSource::new(
        data::jaccard_probe_column(preload),
        HOT_PROBES,
        HOT_SHARE,
        &mut rng,
        &mut accept,
    );
    // Tail probes come from a fixed pool, so filtering and checking them
    // stays cheap however long the run.
    let tail: Vec<String> = (0..READER_TAIL)
        .map(|_| probes.fresh(&mut rng, &mut accept))
        .collect();
    let reader_plan: Vec<(String, f64)> = (0..(READER_PLAN_PER_S * seconds) as usize)
        .map(|i| {
            let probe = if rng.chance(HOT_SHARE) {
                probes.hot()[rng.below(HOT_PROBES)].clone()
            } else {
                tail[i % READER_TAIL].clone()
            };
            (probe, if i % 2 == 0 { 0.5 } else { 0.8 })
        })
        .collect();
    let queries: Vec<Query> = reader_plan
        .iter()
        .map(|(probe, delta)| Query {
            kind: "select",
            statement: format!(
                "for $o in dataset Reviews where similarity-jaccard(word-tokens($o.summary), \
                 word-tokens('{probe}')) >= {delta} return $o.id"
            ),
            check: Check::Growing {
                probe: probe.clone(),
                delta: *delta,
            },
        })
        .collect();

    let addr = server.addr;
    let admin_before = admin_metrics(addr)?;
    let acked = AtomicUsize::new(0);
    let sent = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (b, body) in bodies.iter().enumerate() {
                if Instant::now() >= deadline {
                    break;
                }
                let records = (fed.len() - b * INGEST_BATCH).min(INGEST_BATCH);
                sent.fetch_add(records, Ordering::SeqCst);
                let traced = tracer.enabled() && b % 2 == 1;
                let ex = http::post(addr, "/ingest/Reviews", body);
                if ex.ok() {
                    acked.fetch_add(records, Ordering::SeqCst);
                }
                let latency = ex.total;
                samples.lock().expect("samples lock").push(Sample {
                    kind: "ingest",
                    query: None,
                    latency,
                    lag: Duration::ZERO,
                    ex,
                    traced,
                    acked_before: 0,
                    sent_after: 0,
                });
                if sent.load(Ordering::SeqCst) != acked.load(Ordering::SeqCst) {
                    // A refused batch would leave a gap in the acknowledged
                    // prefix the reader's checks rely on.
                    break;
                }
            }
        });
        scope.spawn(|| {
            let mut i = 0;
            while Instant::now() < deadline {
                // The plan repeats if a fast service runs through it.
                let qi = i % queries.len();
                // Pairs alternate: each pair holds one query per threshold.
                let traced = tracer.enabled() && (i / 2) % 2 == 1;
                let acked_before = acked.load(Ordering::SeqCst);
                let ex = http::post(
                    addr,
                    "/query",
                    &http::query_body(&queries[qi].statement, traced),
                );
                let sent_after = sent.load(Ordering::SeqCst);
                let latency = ex.total;
                samples.lock().expect("samples lock").push(Sample {
                    kind: "select",
                    query: Some(qi),
                    latency,
                    lag: Duration::ZERO,
                    ex,
                    traced,
                    acked_before,
                    sent_after,
                });
                i += 1;
            }
        });
    });
    let samples = samples.into_inner().expect("samples lock");
    let window = start.elapsed();
    let admin_after = admin_metrics(addr)?;
    let peak = server.peak_rss_bytes().unwrap_or(0);
    // Stop the service the hard way; acknowledged batches must survive.
    server.kill();
    let acked = acked.into_inner();
    let sent = sent.into_inner();
    let stored_records = INGEST_PRELOAD + acked;
    let stored = serve::dir_bytes(dir) as f64 / stored_records as f64;

    let ingest: Vec<&Sample> = samples.iter().filter(|s| s.kind == "ingest").collect();
    let fed_batches = ingest.iter().filter(|s| s.ex.ok()).count() as u64;
    let batch_ms: Vec<f64> = ingest
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let ingest_rate = acked as f64 / window.as_secs_f64();

    // Every sent record may be visible to a query, acknowledged or not.
    let docs = data::summary_docs(&all[..INGEST_PRELOAD + sent]);
    let mut mismatches = check_samples(&queries, &samples, &HashMap::new(), &docs);
    mismatches.extend(check_reopened(dir, &all[..stored_records], &probes, seed));
    let local = tracer
        .enabled()
        .then(|| crate::layers::LocalInputs::ingest(preload, fed, &queries));
    Ok(RunData {
        samples,
        limit_ms: INGEST_LIMIT_MS,
        window,
        setup_secs,
        ingest_rates: vec![ingest_rate],
        ingest_batch_ms: batch_ms,
        stored_bytes_per_record: stored,
        peak_rss_bytes: peak,
        admin_before,
        admin_after,
        mismatches,
        fed_records: acked as u64,
        fed_batches,
        local,
    })
}

/// Reopen the durable directory in-process: every acknowledged record is
/// there, and index and scan plans agree with each other and the oracle.
fn check_reopened(
    dir: &std::path::Path,
    stored: &[Review],
    probes: &ProbeSource,
    seed: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let storage = Storage::Durable {
        dir: dir.to_path_buf(),
        preload: 0,
        seed,
    };
    let db = match asterix_core::Instance::open(serve::instance_config(&storage)) {
        Ok(db) => db,
        Err(e) => return vec![format!("reopen failed: {e}")],
    };
    match db.query("for $o in dataset Reviews return $o.id") {
        Ok(r) => {
            let mut ids = r.ids();
            ids.dedup();
            let want: Vec<i64> = stored.iter().map(|r| r.id).collect();
            if ids != want {
                problems.push(format!(
                    "after reopening: {} records, {} acknowledged",
                    ids.len(),
                    want.len()
                ));
            }
        }
        Err(e) => problems.push(format!("scan after reopening failed: {e}")),
    }
    let docs = data::summary_docs(stored);
    let mut scan_opts = asterix_core::QueryOptions::default();
    let mut no_index = db.config().optimizer.clone();
    no_index.enable_index_select = false;
    scan_opts.optimizer = Some(no_index);
    for probe in probes.hot().iter().take(8) {
        let q = format!(
            "for $o in dataset Reviews where similarity-jaccard(word-tokens($o.summary), \
             word-tokens('{probe}')) >= 0.5 return $o.id"
        );
        let want = oracle::jaccard_select(&docs, probe, 0.5);
        let index = db.query(&q).map(|r| r.ids());
        let scan = db.query_with(&q, &scan_opts).map(|r| r.ids());
        match (index, scan) {
            (Ok(i), Ok(s)) if i == want && s == want => {}
            (i, s) => problems.push(format!(
                "after reopening, probe {probe:?}: index {:?} scan {:?} oracle {} ids",
                i.map(|v| v.len()),
                s.map(|v| v.len()),
                want.len()
            )),
        }
    }
    problems
}

// ---------------------------------------------------------------------
// checks

/// Row values as sorted ids.
fn row_ids(rows: &[Json]) -> Option<Vec<i64>> {
    let mut ids: Vec<i64> = rows.iter().map(Json::as_i64).collect::<Option<_>>()?;
    ids.sort_unstable();
    Some(ids)
}

fn row_pairs(rows: &[Json]) -> Option<Vec<(i64, i64)>> {
    let mut pairs: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| Some((r.get("o").as_i64()?, r.get("i").as_i64()?)))
        .collect::<Option<_>>()?;
    pairs.sort_unstable();
    Some(pairs)
}

/// Check every successful query sample against its `Check`. Failed
/// requests are counted elsewhere; a wrong answer is a mismatch.
fn check_samples(
    queries: &[Query],
    samples: &[Sample],
    scores: &HashMap<i64, i64>,
    growing_docs: &[Doc],
) -> Vec<String> {
    let mut problems = Vec::new();
    let by_id: HashMap<i64, &Doc> = growing_docs.iter().map(|d| (d.id, d)).collect();
    let mut preload_matches: HashMap<String, Vec<i64>> = HashMap::new();
    let preload_len = growing_docs.len().min(INGEST_PRELOAD);
    for s in samples {
        let Some(qi) = s.query else { continue };
        if !s.ex.ok() {
            continue;
        }
        let q = &queries[qi];
        let streamed = s.ex.done.as_ref().and_then(|d| d.get("rows").as_i64());
        if streamed != Some(s.ex.rows.len() as i64) {
            problems.push(format!(
                "{}: done line says {:?} rows, {} received",
                q.kind,
                streamed,
                s.ex.rows.len()
            ));
        }
        let ok = match &q.check {
            Check::Ids(want) => row_ids(&s.ex.rows).as_ref() == Some(want),
            Check::Pairs(want) => row_pairs(&s.ex.rows).as_ref() == Some(want),
            Check::Limit { n, min_score } => match row_ids(&s.ex.rows) {
                Some(mut ids) => {
                    let all_match = ids
                        .iter()
                        .all(|id| scores.get(id).is_some_and(|s| s >= min_score));
                    ids.dedup();
                    ids.len() == *n && all_match
                }
                None => false,
            },
            Check::Growing { probe, delta } => match row_ids(&s.ex.rows) {
                Some(ids) => {
                    let q_tokens = oracle::word_tokens(probe);
                    let visible = preload_len + s.sent_after;
                    let each_matches = ids.iter().all(|id| {
                        by_id.get(id).is_some_and(|d| {
                            (d.id as usize) < visible
                                && oracle::jaccard(&d.tokens, &q_tokens) >= *delta
                        })
                    });
                    let must = preload_len + s.acked_before;
                    let mut required = preload_matches
                        .entry(q.statement.clone())
                        .or_insert_with(|| {
                            oracle::jaccard_select(&growing_docs[..preload_len], probe, *delta)
                        })
                        .clone();
                    required.extend(oracle::jaccard_select(
                        &growing_docs[preload_len..must],
                        probe,
                        *delta,
                    ));
                    let mut deduped = ids.clone();
                    deduped.dedup();
                    each_matches
                        && deduped.len() == ids.len()
                        && required.iter().all(|id| ids.binary_search(id).is_ok())
                }
                None => false,
            },
        };
        if !ok {
            problems.push(format!(
                "{}: wrong answer ({} rows) for {}",
                q.kind,
                s.ex.rows.len(),
                q.statement
            ));
        }
    }
    problems
}

/// `(attempted, failed)` per operation kind.
pub type KindCounts = BTreeMap<&'static str, (u64, u64)>;

/// Attempted and failed operations per kind, and responses per status.
pub fn op_counts(samples: &[Sample]) -> (KindCounts, BTreeMap<u16, u64>) {
    let mut kinds: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    for s in samples {
        let e = kinds.entry(s.kind).or_default();
        e.0 += 1;
        if !s.ex.ok() {
            e.1 += 1;
        }
        *statuses.entry(s.ex.status).or_default() += 1;
    }
    (kinds, statuses)
}

/// Milliseconds of a set of durations.
pub fn millis(ds: impl Iterator<Item = Duration>) -> Vec<f64> {
    ds.map(|d| d.as_secs_f64() * 1e3).collect()
}
