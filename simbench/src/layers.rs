//! Per-layer numbers of the traced run.
//!
//! Every number comes from outside the program: from what the service
//! returns (the `done` line and its query profile, `/admin/metrics.json`)
//! or from timing calls into a layer's public functions on an in-process
//! copy of the workload's data. Each such call is recorded as a span.

use crate::data::{self, Review};
use crate::json::Json;
use crate::stats;
use crate::trace::{covered, Tracer};
use crate::workloads::{RunData, Sample};
use crate::Metric;
use asterix_adm::{IndexKind, Value};
use asterix_core::{Instance, QueryOptions};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Statements timed in-process, at most.
const LOCAL_STATEMENTS: usize = 24;
/// Repeats of each parse / explain timing.
const COMPILE_REPEATS: usize = 5;
/// Records inserted one by one to time `Instance::insert`.
const INSERTS: usize = 100;
/// Pairs timed per similarity kernel.
const VERIFY_PAIRS: usize = 20_000;

/// A dataset the in-process instance loads.
struct LocalDataset {
    name: &'static str,
    records: Vec<Value>,
    indexes: Vec<(&'static str, &'static str, IndexKind)>,
}

/// The workload's own material for the in-process layer timings.
pub struct LocalInputs {
    datasets: Vec<LocalDataset>,
    statements: Vec<String>,
    limit_statement: String,
    jaccard_pairs: Vec<(Vec<String>, Vec<String>, f64)>,
    edit_pairs: Vec<(String, String, u32)>,
    ndjson: Vec<String>,
    rows: Vec<Value>,
    inserts: Vec<Value>,
    durable_inserts: bool,
}

fn review_values(rs: &[Review]) -> Vec<Value> {
    rs.iter()
        .map(|r| {
            Value::record(vec![
                ("id".into(), Value::Int64(r.id)),
                ("reviewerName".into(), Value::from(r.name.as_str())),
                ("summary".into(), Value::from(r.summary.as_str())),
                ("score".into(), Value::Int64(r.score)),
            ])
        })
        .collect()
}

fn distinct(statements: impl Iterator<Item = String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for s in statements {
        if !out.contains(&s) {
            out.push(s);
            if out.len() == LOCAL_STATEMENTS {
                break;
            }
        }
    }
    out
}

/// Pairs of a probe with records a query on it would verify: each probe
/// against a spread of the column.
fn text_pairs(probes: &[String], column: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::with_capacity(VERIFY_PAIRS);
    let mut rng = data::Rng::new(probes.len() as u64 ^ column.len() as u64);
    while out.len() < VERIFY_PAIRS && !probes.is_empty() {
        let p = &probes[out.len() % probes.len()];
        out.push((p.clone(), column[rng.below(column.len())].to_string()));
    }
    out
}

fn jaccard_pairs(pairs: Vec<(String, String)>, delta: f64) -> Vec<(Vec<String>, Vec<String>, f64)> {
    pairs
        .into_iter()
        .map(|(a, b)| {
            (
                asterix_simfn::word_tokens(&a),
                asterix_simfn::word_tokens(&b),
                delta,
            )
        })
        .collect()
}

fn edit_pairs(pairs: Vec<(String, String)>, k: u32) -> Vec<(String, String, u32)> {
    pairs.into_iter().map(|(a, b)| (a, b, k)).collect()
}

fn review_indexes() -> Vec<(&'static str, &'static str, IndexKind)> {
    vec![
        ("summary_kw", "summary", IndexKind::Keyword),
        ("name_2gram", "reviewerName", IndexKind::NGram(2)),
    ]
}

impl LocalInputs {
    fn from_reviews(
        dataset: &'static str,
        reviews: &[Review],
        statements: Vec<String>,
        extra: &[Review],
    ) -> LocalInputs {
        let summaries: Vec<&str> = reviews.iter().map(|r| r.summary.as_str()).collect();
        let names: Vec<&str> = reviews.iter().map(|r| r.name.as_str()).collect();
        let probe_summaries: Vec<String> = reviews
            .iter()
            .step_by(97)
            .take(32)
            .map(|r| r.summary.clone())
            .collect();
        let probe_names: Vec<String> = reviews
            .iter()
            .step_by(89)
            .take(32)
            .map(|r| r.name.clone())
            .collect();
        LocalInputs {
            datasets: vec![LocalDataset {
                name: dataset,
                records: review_values(reviews),
                indexes: review_indexes(),
            }],
            statements,
            limit_statement: format!(
                "for $o in dataset {dataset} where $o.score >= 3 limit 10 return $o.id"
            ),
            jaccard_pairs: jaccard_pairs(text_pairs(&probe_summaries, &summaries), 0.5),
            edit_pairs: edit_pairs(text_pairs(&probe_names, &names), 1),
            ndjson: reviews.iter().take(5_000).map(Review::ndjson).collect(),
            rows: Vec::new(),
            inserts: review_values(extra),
            durable_inserts: false,
        }
    }

    pub fn select(
        reviews: &[Review],
        queries: &[crate::workloads::Query],
        seed: u64,
    ) -> LocalInputs {
        let statements = distinct(queries.iter().map(|q| q.statement.clone()));
        let extra = fresh_reviews(reviews.len(), seed);
        let mut local = LocalInputs::from_reviews("AmazonReview", reviews, statements, &extra);
        local.rows = reviews
            .iter()
            .take(5_000)
            .map(|r| Value::Int64(r.id))
            .collect();
        local
    }

    pub fn join(
        reviews: &[Review],
        posts: &[data::Post],
        queries: &[crate::workloads::Query],
        seed: u64,
    ) -> LocalInputs {
        let statements = distinct(queries.iter().map(|q| q.statement.clone()));
        let extra = fresh_reviews(reviews.len(), seed);
        let mut local = LocalInputs::from_reviews("AmazonReview", reviews, statements, &extra);
        local.datasets.push(LocalDataset {
            name: "Reddit",
            records: posts
                .iter()
                .map(|p| {
                    Value::record(vec![
                        ("id".into(), Value::Int64(p.id)),
                        ("author".into(), Value::from(p.author.as_str())),
                        ("title".into(), Value::from(p.title.as_str())),
                    ])
                })
                .collect(),
            indexes: Vec::new(),
        });
        let titles: Vec<&str> = posts.iter().map(|p| p.title.as_str()).collect();
        let probe_titles: Vec<String> = posts
            .iter()
            .step_by(37)
            .take(32)
            .map(|p| p.title.clone())
            .collect();
        local
            .jaccard_pairs
            .extend(jaccard_pairs(text_pairs(&probe_titles, &titles), 0.5));
        local.rows = (0..5_000i64)
            .map(|i| {
                Value::record(vec![
                    ("o".into(), Value::Int64(i)),
                    ("i".into(), Value::Int64(i + 7)),
                ])
            })
            .collect();
        local
    }

    pub fn ingest(
        preload: &[Review],
        fed: &[Review],
        queries: &[crate::workloads::Query],
    ) -> LocalInputs {
        let statements = distinct(queries.iter().map(|q| q.statement.clone()));
        let extra: Vec<Review> = fed.iter().rev().take(INSERTS).cloned().collect();
        let mut local = LocalInputs::from_reviews("Reviews", preload, statements, &extra);
        local.datasets[0].indexes = vec![("summary_kw", "summary", IndexKind::Keyword)];
        local.ndjson = fed.iter().take(5_000).map(Review::ndjson).collect();
        local.rows = preload
            .iter()
            .take(5_000)
            .map(|r| Value::Int64(r.id))
            .collect();
        local.durable_inserts = true;
        local
    }
}

/// Reviews with ids after the workload's own, for insert timing.
fn fresh_reviews(after: usize, seed: u64) -> Vec<Review> {
    data::reviews(after + INSERTS, seed).split_off(after)
}

fn local_instance(local: &LocalInputs) -> Result<Instance, String> {
    let db = Instance::new(crate::serve::instance_config(
        &crate::serve::Storage::Default,
    ));
    for ds in &local.datasets {
        db.create_dataset(ds.name, "id")
            .map_err(|e| e.to_string())?;
        db.load(ds.name, ds.records.clone())
            .map_err(|e| e.to_string())?;
        for (name, field, kind) in &ds.indexes {
            db.create_index(ds.name, name, field, *kind)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(db)
}

fn median_or_zero(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Profile sums over the traced queries.
#[derive(Default)]
struct ProfileTotals {
    queries: f64,
    cache_hits: f64,
    cache_misses: f64,
    postings_hits: f64,
    postings_misses: f64,
    inverted: f64,
    components: f64,
    candidates: f64,
    candidate_results: f64,
    lookups: f64,
    tuples: f64,
    bitparallel: f64,
    gallop: f64,
    scancount: f64,
    skews: Vec<f64>,
}

impl ProfileTotals {
    fn add(&mut self, profile: &Json, rows: usize) {
        self.queries += 1.0;
        self.cache_hits += profile.num("cache.hits");
        self.cache_misses += profile.num("cache.misses");
        self.postings_hits += profile.num("index_search.postings_cache_hits");
        self.postings_misses += profile.num("index_search.postings_cache_misses");
        self.inverted += profile.num("index_search.inverted_elements_read");
        self.components += profile.num("lsm.components_searched");
        let candidates = profile.num("index_search.toccurrence_candidates");
        self.candidates += candidates;
        if candidates > 0.0 {
            self.candidate_results += rows as f64;
        }
        self.lookups += profile.num("index_search.primary_lookups");
        self.bitparallel += profile.num("kernels.bitparallel_ed_calls");
        self.gallop += profile.num("kernels.gallop_probes");
        self.scancount += profile.num("kernels.scancount_fallbacks");
        // Busy time per partition summed over operators; skew is the
        // busiest partition over the mean.
        let mut per_partition: Vec<f64> = Vec::new();
        for op in profile.get("operators").as_array() {
            self.tuples += op.num("output_tuples");
            for pt in op.get("partition_times_us").as_array() {
                let p = pt.as_array();
                if let (Some(p), Some(us)) = (
                    p.first().and_then(Json::as_i64),
                    p.get(1).and_then(Json::as_f64),
                ) {
                    let p = p as usize;
                    if per_partition.len() <= p {
                        per_partition.resize(p + 1, 0.0);
                    }
                    per_partition[p] += us;
                }
            }
        }
        let total: f64 = per_partition.iter().sum();
        if total > 0.0 {
            let mean = total / per_partition.len() as f64;
            let max = per_partition.iter().cloned().fold(0.0, f64::max);
            self.skews.push(max / mean);
        }
    }

    fn per_query(&self, v: f64) -> f64 {
        if self.queries == 0.0 {
            0.0
        } else {
            v / self.queries
        }
    }
}

/// Record the spans of one traced request and return the part of its
/// client time that no child span covers.
fn request_spans(tracer: &Tracer, s: &Sample, done: &Json) -> (Duration, Duration) {
    let ex = &s.ex;
    let req = tracer.request_id();
    let t0 = ex.sent;
    let root = tracer.record(req, None, "client.request", t0, t0 + ex.total, false);
    let mut children = vec![(Duration::ZERO, ex.connected), (ex.connected, ex.written)];
    tracer.record(
        req,
        Some(root),
        "server.connect",
        t0,
        t0 + ex.connected,
        false,
    );
    tracer.record(
        req,
        Some(root),
        "server.send",
        t0 + ex.connected,
        t0 + ex.written,
        false,
    );
    tracer.record(
        req,
        Some(root),
        "server.status_line",
        t0 + ex.written,
        t0 + ex.ttfb,
        false,
    );
    if let Some(first) = ex.first_row {
        tracer.record(
            req,
            Some(root),
            "server.first_row",
            t0 + first,
            t0 + first,
            false,
        );
    }
    if let Some(done_at) = ex.done_at {
        // The service reports durations only; the execution ends when the
        // done line is written, and compilation precedes it.
        let exec = Duration::from_micros(done.num("execute_us") as u64);
        let compile = Duration::from_micros(done.num("compile_us") as u64);
        let exec_start = done_at.saturating_sub(exec);
        let compile_start = exec_start.saturating_sub(compile);
        tracer.record(
            req,
            Some(root),
            "core.compile",
            t0 + compile_start,
            t0 + exec_start,
            true,
        );
        tracer.record(
            req,
            Some(root),
            "hyracks.execute",
            t0 + exec_start,
            t0 + done_at,
            true,
        );
        children.push((compile_start, exec_start));
        children.push((exec_start, done_at));
    }
    let cov = covered(Duration::ZERO, ex.total, &children);
    (ex.total, ex.total - cov)
}

/// Every per-layer metric of one traced run.
pub fn per_layer(run: &RunData, tracer: &Tracer) -> Result<Vec<Metric>, String> {
    let local = run
        .local
        .as_ref()
        .ok_or("the traced run has no in-process inputs")?;
    let queries: Vec<&Sample> = run
        .samples
        .iter()
        .filter(|s| s.query.is_some() && s.ex.ok() && s.ex.done.is_some())
        .collect();
    let traced: Vec<&Sample> = queries.iter().copied().filter(|s| s.traced).collect();
    let untraced: Vec<&Sample> = queries.iter().copied().filter(|s| !s.traced).collect();
    if traced.is_empty() {
        return Err("no traced query completed".into());
    }

    let mut overhead = Vec::new();
    let mut ttfb = Vec::new();
    let mut compile = Vec::new();
    let mut execute = Vec::new();
    let mut bytes = 0.0;
    let mut rows = 0.0;
    let mut totals = ProfileTotals::default();
    let (mut client_time, mut unaccounted) = (Duration::ZERO, Duration::ZERO);
    for s in &traced {
        let done = s.ex.done.as_ref().expect("filtered on done");
        let c = done.num("compile_us");
        let e = done.num("execute_us");
        overhead.push(ms(s.ex.total) - (c + e) / 1e3);
        ttfb.push(ms(s.ex.ttfb));
        compile.push(c);
        execute.push(e / 1e3);
        totals.add(done.get("profile"), s.ex.rows.len());
        let (t, u) = request_spans(tracer, s, done);
        client_time += t;
        unaccounted += u;
    }
    // Wire bytes per row from untraced requests: their done lines carry
    // no profile.
    for s in &untraced {
        bytes += s.ex.body_bytes as f64;
        rows += s.ex.rows.len() as f64;
    }
    let streamed_rows: f64 = queries.iter().map(|s| s.ex.rows.len() as f64).sum();
    let traced_p50 = median_or_zero(&crate::workloads::millis(traced.iter().map(|s| s.latency)));
    let untraced_p50 = median_or_zero(&crate::workloads::millis(
        untraced.iter().map(|s| s.latency),
    ));

    let (before, after) = (&run.admin_before, &run.admin_after);
    let delta = |path: &str| after.num(path) - before.num(path);
    let batches = run.fed_batches as f64;
    let records = run.fed_records as f64;
    let per = |v: f64, n: f64| if n > 0.0 { v / n } else { 0.0 };

    let lm = measure_local(local, tracer)?;

    let mut m = vec![
        Metric::new("server.overhead_ms", median_or_zero(&overhead), "ms"),
        Metric::new("server.ttfb_ms", median_or_zero(&ttfb), "ms"),
        Metric::new("server.bytes_per_row", per(bytes, rows), "bytes"),
        Metric::new(
            "server.rows_per_s",
            per(streamed_rows, run.window.as_secs_f64()),
            "1/s",
        ),
        Metric::new("core.compile_us", median_or_zero(&compile), "us"),
        Metric::new("core.plan_cache_hits", delta("plan_cache.hits"), "count"),
        Metric::new(
            "core.plan_cache_misses",
            delta("plan_cache.misses"),
            "count",
        ),
        Metric::new(
            "core.queue_wait_p50_us",
            after.num("scheduler.queue_wait_us.p50"),
            "us",
        ),
        Metric::new(
            "core.queue_wait_p95_us",
            after.num("scheduler.queue_wait_us.p95"),
            "us",
        ),
        Metric::new("aql.parse_us", lm.parse_us, "us"),
        Metric::new("algebricks.explain_us", lm.explain_us, "us"),
        Metric::new("hyracks.execute_ms", median_or_zero(&execute), "ms"),
        Metric::new("hyracks.first_row_ms", lm.first_row_ms, "ms"),
        Metric::new(
            "hyracks.tuples_total",
            totals.per_query(totals.tuples),
            "count",
        ),
        Metric::new(
            "hyracks.partition_skew",
            median_or_zero(&totals.skews),
            "ratio",
        ),
        Metric::new("hyracks.limit_rows_scanned", lm.limit_rows_scanned, "count"),
        Metric::new(
            "storage.buffer_cache_hits",
            totals.per_query(totals.cache_hits),
            "count",
        ),
        Metric::new(
            "storage.buffer_cache_misses",
            totals.per_query(totals.cache_misses),
            "count",
        ),
        Metric::new(
            "storage.postings_cache_hit_ratio",
            per(
                totals.postings_hits,
                totals.postings_hits + totals.postings_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "storage.inverted_elements_read",
            totals.per_query(totals.inverted),
            "count",
        ),
        Metric::new(
            "storage.lsm_components_searched",
            totals.per_query(totals.components),
            "count",
        ),
        Metric::new(
            "storage.toccurrence_candidates",
            totals.per_query(totals.candidates),
            "count",
        ),
        Metric::new(
            "storage.primary_lookups",
            totals.per_query(totals.lookups),
            "count",
        ),
        Metric::new(
            "storage.candidate_precision",
            per(totals.candidate_results, totals.candidates),
            "ratio",
        ),
        Metric::new("storage.insert_us", lm.insert_us, "us"),
        Metric::new(
            "storage.wal_fsyncs_per_batch",
            per(delta("durability.wal_fsyncs"), batches),
            "count",
        ),
        Metric::new(
            "storage.wal_bytes_per_record",
            per(delta("durability.wal_bytes"), records),
            "bytes",
        ),
        Metric::new("storage.flushes", delta("lsm.flushes"), "count"),
        Metric::new("storage.merges", delta("lsm.merges"), "count"),
        Metric::new("simfn.jaccard_verify_ns", lm.jaccard_ns, "ns"),
        Metric::new("simfn.edit_distance_verify_ns", lm.edit_ns, "ns"),
        Metric::new(
            "simfn.bitparallel_ed_calls",
            totals.per_query(totals.bitparallel),
            "count",
        ),
        Metric::new(
            "simfn.gallop_probes",
            totals.per_query(totals.gallop),
            "count",
        ),
        Metric::new(
            "simfn.scancount_fallbacks",
            totals.per_query(totals.scancount),
            "count",
        ),
        Metric::new("adm.json_encode_ns_per_row", lm.encode_ns, "ns"),
        Metric::new("adm.json_parse_ns_per_record", lm.parse_ns, "ns"),
        Metric::new(
            "trace.unaccounted_pct",
            per(unaccounted.as_secs_f64(), client_time.as_secs_f64()) * 100.0,
            "%",
        ),
        Metric::new(
            "trace.overhead_pct",
            per(traced_p50 - untraced_p50, untraced_p50) * 100.0,
            "%",
        ),
    ];
    m.retain(|x| x.value.is_finite());
    Ok(m)
}

struct LocalMeasures {
    parse_us: f64,
    explain_us: f64,
    first_row_ms: f64,
    limit_rows_scanned: f64,
    insert_us: f64,
    jaccard_ns: f64,
    edit_ns: f64,
    encode_ns: f64,
    parse_ns: f64,
}

/// Time each layer's public functions on the in-process copy.
fn measure_local(local: &LocalInputs, tracer: &Tracer) -> Result<LocalMeasures, String> {
    let req = tracer.request_id();
    let (db, _) = tracer.time(req, None, "local.load", || local_instance(local));
    let db = db?;

    let mut parse = Vec::new();
    let mut explain = Vec::new();
    for _ in 0..COMPILE_REPEATS {
        for st in &local.statements {
            let (r, d) = tracer.time(req, None, "aql.parse", || {
                asterix_aql::parse_query(black_box(st))
            });
            r.map_err(|e| format!("parse failed: {e}"))?;
            parse.push(micros(d));
            let (r, d) = tracer.time(req, None, "algebricks.explain", || {
                db.explain(black_box(st))
            });
            r.map_err(|e| format!("explain failed: {e}"))?;
            explain.push(micros(d));
        }
    }

    let mut first_rows = Vec::new();
    for st in &local.statements {
        let first: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&first);
        let started = Instant::now();
        db.query_streaming(st, &QueryOptions::default(), move |rows| {
            if !rows.is_empty() {
                seen.lock()
                    .expect("first-row lock")
                    .get_or_insert_with(Instant::now);
            }
            Ok(())
        })
        .map_err(|e| format!("streaming query failed: {e}"))?;
        let ended = Instant::now();
        tracer.record(req, None, "hyracks.query_streaming", started, ended, false);
        let first_at = *first.lock().expect("first-row lock");
        if let Some(at) = first_at {
            tracer.record(req, None, "hyracks.first_row", started, at, false);
            first_rows.push(ms(at - started));
        }
    }

    let options = QueryOptions {
        profile: true,
        ..QueryOptions::default()
    };
    let (limit, _) = tracer.time(req, None, "hyracks.limit_query", || {
        db.query_with(&local.limit_statement, &options)
    });
    let limit = limit.map_err(|e| format!("limit query failed: {e}"))?;
    let limit_rows_scanned = limit
        .profile
        .as_ref()
        .and_then(|p| p.operator("dataset-scan"))
        .map_or(0.0, |op| op.output_tuples as f64);

    let insert_us = time_inserts(local, &db, tracer, req)?;

    let mut checks = 0usize;
    let (_, d) = tracer.time(req, None, "simfn.jaccard_check", || {
        for (a, b, delta) in &local.jaccard_pairs {
            if asterix_simfn::jaccard_check(black_box(a), black_box(b), *delta).is_some() {
                checks += 1;
            }
        }
    });
    let jaccard_ns = d.as_secs_f64() * 1e9 / local.jaccard_pairs.len().max(1) as f64;
    let (_, d) = tracer.time(req, None, "simfn.edit_distance_check", || {
        for (a, b, k) in &local.edit_pairs {
            if asterix_simfn::edit_distance_check(black_box(a), black_box(b), *k).is_some() {
                checks += 1;
            }
        }
    });
    black_box(checks);
    let edit_ns = d.as_secs_f64() * 1e9 / local.edit_pairs.len().max(1) as f64;

    let mut encoded = 0usize;
    let (_, d) = tracer.time(req, None, "adm.json_encode", || {
        for row in &local.rows {
            encoded += asterix_adm::json::to_string(black_box(row)).len();
        }
    });
    black_box(encoded);
    let encode_ns = d.as_secs_f64() * 1e9 / local.rows.len().max(1) as f64;
    let (parsed, d) = tracer.time(req, None, "adm.json_parse", || {
        local
            .ndjson
            .iter()
            .map(|l| asterix_adm::json::parse(black_box(l)).map(|_| ()))
            .collect::<Result<Vec<_>, _>>()
    });
    parsed.map_err(|e| format!("record parse failed: {e}"))?;
    let parse_ns = d.as_secs_f64() * 1e9 / local.ndjson.len().max(1) as f64;

    Ok(LocalMeasures {
        parse_us: median_or_zero(&parse),
        explain_us: median_or_zero(&explain),
        first_row_ms: median_or_zero(&first_rows),
        limit_rows_scanned,
        insert_us,
        jaccard_ns,
        edit_ns,
        encode_ns,
        parse_ns,
    })
}

/// Median `Instance::insert` time: durable in a scratch directory for the
/// ingest workload, into the in-process instance otherwise.
fn time_inserts(
    local: &LocalInputs,
    db: &Instance,
    tracer: &Tracer,
    req: u64,
) -> Result<f64, String> {
    let dataset = local.datasets[0].name;
    let timed = |target: &Instance| -> Result<f64, String> {
        let mut times = Vec::new();
        for rec in &local.inserts {
            let (r, d) = tracer.time(req, None, "storage.insert", || {
                target.insert(dataset, rec.clone())
            });
            r.map_err(|e| format!("insert failed: {e}"))?;
            times.push(micros(d));
        }
        Ok(median_or_zero(&times))
    };
    if !local.durable_inserts {
        return timed(db);
    }
    let dir = crate::workloads::scratch_dir().join(format!("insert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let durable = Instance::open(crate::serve::instance_config(
            &crate::serve::Storage::Durable {
                dir: dir.clone(),
                preload: 0,
                seed: 0,
            },
        ))
        .map_err(|e| e.to_string())?;
        durable
            .create_dataset(dataset, "id")
            .map_err(|e| e.to_string())?;
        durable
            .create_index(dataset, "summary_kw", "summary", IndexKind::Keyword)
            .map_err(|e| e.to_string())?;
        timed(&durable)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}
