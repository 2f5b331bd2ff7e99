//! The benchmark of the TERP PMO service: five workloads from socket to
//! fsync, each end-to-end metric attributed to layers by a traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- repeat N [--seed S] [--seconds N]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- list [--json]
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod gen;
mod hist;
mod host;
mod json;
mod measure;
mod metrics;
mod span;
mod sut;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Ctx, Outcome};

const SMOKE_SECONDS: f64 = 0.6;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    json: bool,
    count: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        corrupt: false,
        json: false,
        count: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w}; see `list`"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            // `--trace`, `--trace 1` and `--trace 0` all work.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            "--smoke" => a.smoke = true,
            "--corrupt-expected" => a.corrupt = true,
            "--json" => a.json = true,
            n if a.count.is_none() && n.parse::<usize>().is_ok() => a.count = n.parse().ok(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn units_of(m: &Metric, value: f64) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))])
}

/// Runs one workload, prints its metrics, writes its files. Returns the
/// contract's result object.
fn run_workload(name: &str, args: &Args) -> Json {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        f64::from(metrics::RUN_SECONDS)
    });
    let out = out_dir();
    let data_root = out
        .join("data")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&data_root).expect("create benchmark/out/data");
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        data_root: data_root.clone(),
        corrupt: args.corrupt,
    };
    let mut o: Outcome = match name {
        "wire_rw" => workloads::wire_rw::run(&ctx),
        "wire_durable" => workloads::wire_durable::run(&ctx),
        "inproc_hot" => workloads::inproc_hot::run(&ctx),
        "kv_durable" => workloads::kv_durable::run(&ctx),
        "crash_recover" => workloads::crash_recover::run(&ctx),
        other => unreachable!("validated workload name {other}"),
    };
    let host = host::host_block(
        &o.load,
        &data_root,
        manifest_dir().parent().unwrap_or(manifest_dir()),
        args.seed,
    );
    let _ = std::fs::remove_dir_all(&data_root);

    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    let wanted: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        o.set("fail_frac", fail_frac);
        o.set(
            "bench.threads",
            (o.load.driver_threads + o.load.server_threads) as f64,
        );
        o.set(
            "bench.oversubscribed",
            f64::from(u8::from(o.load.oversubscribed())),
        );
    }
    let mut emitted = Vec::new();
    for m in wanted {
        let value = match o.metrics.get(m.name) {
            Some(v) => *v,
            // A layer the workload does not exercise did no work.
            None if args.trace => 0.0,
            None => panic!("{name} did not report end-to-end metric {}", m.name),
        };
        println!("{name} {} {value} {}", m.name, m.unit);
        emitted.push((m.name, units_of(m, value)));
    }
    // Whatever else the run measured, for the reader; the result line keeps
    // to the contract's set.
    for (other, value) in &o.metrics {
        if !wanted.iter().any(|m| m.name == *other) {
            let unit = metrics::find(other).map_or("", |m| m.unit);
            println!("{name} {other} {value} {unit}");
        }
    }
    if !args.trace {
        println!("{name} fail_frac {fail_frac} ratio");
    }
    for why in &o.failures {
        eprintln!("{name}: FAILED CHECK: {why}");
    }

    let correct = o.failed == 0 && o.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::obj(emitted)),
    ]);
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    let file = Json::obj([
        ("workload", Json::str(name)),
        ("why", Json::str(why)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("flush_policy", Json::str(sut::FLUSH_POLICY)),
        (
            "load",
            Json::str("closed loop: every client waits for its reply before its next request"),
        ),
        ("host", host),
        ("fail_frac", Json::Num(fail_frac)),
        ("result", result.clone()),
        (
            "extra",
            Json::obj(o.extra.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
        ),
        (
            "slices",
            Json::obj(o.slices.iter().map(|(name, each)| {
                let nums = |f: fn(&workloads::SliceNote) -> f64| {
                    Json::Arr(each.iter().map(|s| Json::Num(f(s))).collect())
                };
                (
                    name.clone(),
                    Json::obj([
                        ("ops_s", nums(|s| s.ops_s)),
                        ("p50_us", nums(|s| s.p50_us)),
                        ("ref_work_cost", nums(|s| s.ref_work_cost)),
                        ("disk_calm", nums(|s| f64::from(u8::from(s.disk_calm)))),
                    ]),
                )
            })),
        ),
        (
            "failures",
            Json::Arr(o.failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
    ]);
    let stem = if args.trace {
        format!("{name}.traced")
    } else {
        name.to_string()
    };
    std::fs::write(out.join(format!("{stem}.json")), file.pretty()).expect("write result file");
    if args.trace {
        span::dump_jsonl(&out.join(format!("{name}.spans.jsonl")), &o.spans).expect("write spans");
    }
    result
}

fn cmd_run(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    // Before the first thread starts, so that every thread inherits it.
    host::pin_to_one_cpu();
    println!("# flush policy: {}", sut::FLUSH_POLICY);
    let mut all_correct = true;
    let mut last = Json::Null;
    let mut merged = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for name in &names {
        let result = run_workload(name, args);
        all_correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (k, v) in result.get("metrics").map_or(&[][..], Json::fields) {
            merged.push((format!("{name}.{k}"), v.clone()));
        }
        last = result;
    }
    // The last line is the machine-readable result: the single workload's,
    // or all of them under `workload.metric` names.
    if names.len() > 1 {
        last = Json::obj([
            ("correct", Json::Bool(all_correct)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::Obj(merged)),
        ]);
    }
    println!("{}", last.render());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_list(args: &Args) -> ExitCode {
    if args.json {
        print!("{}", metrics::benchmark_json(metrics::RUN_SECONDS).pretty());
        return ExitCode::SUCCESS;
    }
    for w in WORKLOADS {
        println!("workload {} - {}", w.name, w.why);
    }
    for m in END_TO_END {
        println!(
            "end_to_end {} {} {} bound {} - {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.note
        );
    }
    for m in PER_LAYER {
        println!(
            "per_layer {} {} {} - moves: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        );
    }
    ExitCode::SUCCESS
}

/// Runs the set `n` times as child processes (a fresh process per run, as the
/// driver does), each time with another seed, and holds each end-to-end
/// metric's spread against its bound.
fn cmd_repeat(args: &Args) -> ExitCode {
    let n = args.count.unwrap_or(2).max(1);
    let exe = std::env::current_exe().expect("own path");
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let seconds = args.seconds.unwrap_or(f64::from(metrics::RUN_SECONDS));
    // values[workload][metric] = one value per run
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; names.len()];
    let mut violations = Vec::new();
    for i in 0..n {
        for (w, name) in names.iter().enumerate() {
            let seed = args.seed + i as u64;
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", name, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().expect("run child");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let parsed = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let ok = output.status.success()
                && parsed.as_ref().and_then(|p| p.get("correct")) == Some(&Json::Bool(true));
            if !ok {
                violations.push(format!(
                    "{name} run {i} (seed {seed}) failed or was incorrect"
                ));
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                continue;
            }
            let metrics = parsed.as_ref().and_then(|p| p.get("metrics"));
            for (m, def) in END_TO_END.iter().enumerate() {
                if let Some(v) = metrics
                    .and_then(|ms| ms.get(def.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                {
                    values[w][m].push(v);
                }
            }
            eprintln!("repeat: run {}/{n} {name} seed {seed} done", i + 1);
        }
    }
    println!("workload metric unit n min median max spread bound verdict");
    let mut rows = Vec::new();
    for (w, name) in names.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            if v.is_empty() {
                continue;
            }
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let med = hist::median(v);
            let spread = hist::rel_spread(v);
            let bound = def.bound.unwrap_or(0.0);
            // The set-up time's spread is reported, not gated: only its
            // median may not drift.
            let gated = def.name != "setup_s";
            let over = gated && spread.is_some_and(|s| s > bound);
            if over {
                violations.push(format!(
                    "{name} {}: spread {:.4} exceeds bound {bound}",
                    def.name,
                    spread.unwrap_or(0.0)
                ));
            }
            let verdict = match (spread, over) {
                (None, _) => "n/a",
                (_, true) => "OVER",
                (Some(s), _) if gated && s > bound / 3.0 => "wide",
                _ => "ok",
            };
            println!(
                "{name} {} {} {} {min} {med} {max} {} {bound} {verdict}",
                def.name,
                def.unit,
                v.len(),
                spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
            );
            rows.push(Json::obj([
                ("workload", Json::str(*name)),
                ("metric", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                (
                    "values",
                    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                ),
                ("min", Json::Num(min)),
                ("median", Json::Num(med)),
                ("max", Json::Num(max)),
                ("iqr_over_median", spread.map_or(Json::Null, Json::Num)),
                ("bound", Json::Num(bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }
    let doc = Json::obj([
        ("runs", Json::Num(n as f64)),
        ("first_seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("rows", Json::Arr(rows)),
        (
            "violations",
            Json::Arr(violations.iter().map(|v| Json::str(v.as_str())).collect()),
        ),
    ]);
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    std::fs::write(out_dir().join("repeat.json"), doc.pretty()).expect("write repeat.json");
    for v in &violations {
        eprintln!("repeat: VIOLATION: {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: terp-benchmark run|repeat N|list [options]; see benchmark/README.md");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("terp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "run" => cmd_run(&args),
        "list" => cmd_list(&args),
        "repeat" => cmd_repeat(&args),
        other => {
            eprintln!("terp-benchmark: unknown command {other}");
            ExitCode::from(2)
        }
    }
}
