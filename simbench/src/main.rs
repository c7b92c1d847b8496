//! `simbench` — the benchmark of the similarity service.
//!
//! Runs one workload against `asterix-server` over HTTP on loopback,
//! checks every answer against the benchmark's own oracle, and prints
//! every metric by name with its unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! simbench --workload select-light --seed 1 --seconds 10 --trace 0
//! simbench --workload join-stream --seed 1 --seconds 10 --trace 1
//! simbench --smoke [--seconds 8]
//! ```
//!
//! With `--trace 1` the run reports the per-layer metrics instead of the
//! end-to-end ones and writes its spans as a Chrome trace under
//! `.simbench/traces/`. See `README.md` for the workloads and metrics.

mod data;
mod http;
mod json;
mod layers;
mod oracle;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use trace::Tracer;
use workloads::{RunData, Workload};

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.workload.is_none() && !out.smoke {
        return Err("give --workload <name> or --smoke".into());
    }
    Ok(out)
}

/// Client threads: one per processor, at most two, so the load
/// generator never outnumbers the cores it shares with the service.
fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn run(workload: Workload, seed: u64, seconds: f64, tracer: &Tracer) -> Result<RunData, String> {
    match workload {
        Workload::SelectLight => workloads::select_light(seed, seconds, clients(), tracer),
        Workload::JoinStream => workloads::join_stream(seed, seconds, clients(), tracer),
        Workload::IngestMixed => workloads::ingest_mixed(seed, seconds, tracer),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &RunData) -> Vec<Metric> {
    let window = run.window.as_secs_f64().max(1e-9);
    let ok_queries: Vec<&workloads::Sample> = run
        .samples
        .iter()
        .filter(|s| s.query.is_some() && s.ex.ok())
        .collect();
    let latency = workloads::millis(ok_queries.iter().map(|s| s.latency));
    let ttfr = workloads::millis(ok_queries.iter().filter_map(|s| s.ex.first_row));
    let mut m = Vec::new();
    let mut push = |name, v: Option<f64>, unit| {
        if let Some(v) = v {
            m.push(Metric::new(name, v, unit));
        }
    };
    push("setup_s", stats::median(&run.setup_secs), "s");
    push("query_p50_ms", stats::median(&latency), "ms");
    push("ttfr_p50_ms", stats::median(&ttfr), "ms");
    push(
        "queries_per_s",
        Some(ok_queries.len() as f64 / window),
        "1/s",
    );
    push(
        "ingest_records_per_s",
        stats::median(&run.ingest_rates),
        "1/s",
    );
    push(
        "ingest_batch_p50_ms",
        stats::median(&run.ingest_batch_ms),
        "ms",
    );
    push(
        "stored_bytes_per_record",
        Some(run.stored_bytes_per_record),
        "bytes",
    );
    push("peak_rss_mb", Some(run.peak_rss_bytes as f64 / 1e6), "MB");
    m
}

/// Print the human-readable report and return the result line.
fn report(workload: Workload, seed: u64, run: &RunData, metrics: &[Metric]) -> String {
    let (kinds, statuses) = workloads::op_counts(&run.samples);
    println!(
        "workload {} seed {} window {:.3} s",
        workload.name(),
        seed,
        run.window.as_secs_f64()
    );
    for (kind, (attempted, failed)) in &kinds {
        let ok: Vec<&workloads::Sample> = run
            .samples
            .iter()
            .filter(|s| s.kind == *kind && s.ex.ok())
            .collect();
        let lat = workloads::millis(ok.iter().map(|s| s.latency));
        let rows =
            ok.iter().map(|s| s.ex.rows.len()).sum::<usize>() as f64 / ok.len().max(1) as f64;
        // A failed operation counts as missing the limit.
        let within = stats::Summary::share_within(&lat, *failed, run.limit_ms) * 100.0;
        match stats::Summary::of(&lat, *failed) {
            Some(s) => println!(
                "  {kind:<12} attempted {attempted:>6} failed {failed:>4}  p50 {:.3} ms  q1 {:.3}  q3 {:.3}  {} n={}  rows/op {rows:.1}  within {} ms {within:.1}%",
                s.median,
                s.q1,
                s.q3,
                s.tail.map_or("tail n/a".to_string(), |(p, v)| format!("p{} {:.3} ms", p * 100.0, v)),
                s.count,
                run.limit_ms
            ),
            None => println!("  {kind:<12} attempted {attempted:>6} failed {failed:>4}"),
        }
    }
    let all = workloads::millis(
        run.samples
            .iter()
            .filter(|s| s.query.is_some() && s.ex.ok())
            .map(|s| s.latency),
    );
    if let Some(s) = stats::Summary::of(&all, 0) {
        println!(
            "  all queries  p50 {:.3} ms  {} n={}",
            s.median,
            s.tail.map_or("tail n/a".to_string(), |(p, v)| format!(
                "p{} {:.3} ms",
                p * 100.0,
                v
            )),
            s.count
        );
    }
    let status_line: Vec<String> = statuses.iter().map(|(s, n)| format!("{s}: {n}")).collect();
    println!("  HTTP statuses: {}", status_line.join(", "));
    let lags = workloads::millis(run.samples.iter().map(|s| s.lag));
    if let Some(s) = stats::Summary::of(&lags, 0) {
        if s.tail.is_some_and(|(_, v)| v > 0.0) || s.median > 0.0 {
            println!(
                "  generator lateness: p50 {:.3} ms, {}",
                s.median,
                s.tail.map_or("tail n/a".into(), |(p, v)| format!(
                    "p{} {:.3} ms",
                    p * 100.0,
                    v
                ))
            );
        }
    }
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in run.mismatches.iter().take(10) {
        eprintln!("CHECK FAILED: {p}");
    }
    let attempted = run.samples.len();
    let failed = run.samples.iter().filter(|s| !s.ex.ok()).count();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.mismatches.is_empty(),
        attempted,
        failed,
        body.join(", ")
    )
}

/// Run one workload and return its result line.
fn run_one(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let tracer = Tracer::new(traced);
    let run = run(workload, seed, seconds, &tracer)?;
    let metrics = if traced {
        let m = layers::per_layer(&run, &tracer)?;
        let dir = workloads::scratch_dir().join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}.json", workload.name(), seed));
        std::fs::write(&path, tracer.chrome_json()).map_err(|e| e.to_string())?;
        println!(
            "chrome trace: {} ({} spans)",
            path.display(),
            tracer.spans().len()
        );
        m
    } else {
        end_to_end(&run)
    };
    Ok(report(workload, seed, &run, &metrics))
}

/// Metric names `BENCHMARK.json` lists under `key`.
fn declared(benchmark: &json::Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .as_array()
        .iter()
        .filter_map(|m| m.get("name").as_str().map(str::to_string))
        .collect()
}

/// Run every workload briefly, traced and untraced; fail on a wrong
/// answer or on any metric of `BENCHMARK.json` missing from the output.
fn smoke(seed: u64, seconds: f64) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let benchmark = json::parse(&text)?;
    let mut problems = Vec::new();
    for w in benchmark.get("workloads").as_array() {
        let name = w.get("name").as_str().unwrap_or("");
        let workload = Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?;
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = run_one(workload, seed, seconds, traced)?;
            println!("{line}");
            let result = json::parse(&line)?;
            if result.get("correct") != &json::Json::Bool(true) {
                problems.push(format!("{name}: a correctness check failed"));
            }
            for metric in declared(&benchmark, key) {
                if result
                    .get("metrics")
                    .get(&metric)
                    .get("value")
                    .as_f64()
                    .is_none()
                {
                    problems.push(format!(
                        "{name} (trace {}): metric {metric} missing",
                        traced as u8
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        println!("smoke: every workload correct, every metric present");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return match serve::child_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.smoke {
        smoke(args.seed, args.seconds)
    } else {
        let w = args.workload.expect("checked in parse_args");
        run_one(w, args.seed, args.seconds, args.trace).map(|line| println!("{line}"))
    };
    let _ = std::fs::remove_dir(workloads::scratch_dir());
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
