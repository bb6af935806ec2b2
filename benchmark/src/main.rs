//! `benchmark`: the benchmark of record for perigap. It builds `pgmine`
//! from this checkout, drives it as a user would (child processes, TCP),
//! checks every output, and prints the metrics `BENCHMARK.json` names.
//! See `benchmark/README.md`.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads child peak RSS through Linux's wait4");

mod append;
mod compare;
mod gen;
mod harness;
mod layers;
mod proc;
mod serve;
mod span;
mod spec;
mod stats;
mod tracefile;
mod workloads;

use harness::{Ctx, Gate, Metrics};
use span::Spans;
use spec::{MetricSpec, Spec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const USAGE: &str = "\
usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      run one workload; the last line printed is its JSON result
  benchmark run [--seed <n>] [--seconds <s>] [--passes <p>] --out <R.json>
      every workload untraced, once per pass, with seeds n, n+1, ...
  benchmark trace [--seed <n>] [--seconds <s>] --out <T.json>
      every workload once with tracing on: the per-layer metrics, and the
      benchmark's own spans in benchmark/work/trace.jsonl
  benchmark compare <A.json> <B.json>
      per workload and metric, both medians and quartiles over passes;
      flags a change beyond the metric's bound, or an unresolved one";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(proc::SHIM_ARG) {
        std::process::exit(proc::shim(&args[1..]));
    }
    let code = match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(&spec, Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".into()),
        },
        Some("run") => passes(&spec, &parse_opts(&spec, &args[1..])?, false),
        Some("trace") => passes(&spec, &parse_opts(&spec, &args[1..])?, true),
        Some(_) => {
            let opts = parse_opts(&spec, args)?;
            let workload = opts.workload.clone().ok_or("--workload is required")?;
            single(&spec, &opts, &workload)
        }
        None => Err("no arguments".into()),
    }
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    passes: u64,
    out: Option<PathBuf>,
}

fn parse_opts(spec: &Spec, args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        passes: 1,
        out: None,
    };
    let number = |flag: &str, v: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" if spec.workloads.contains(value) => opts.workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => opts.seed = number(flag, value)?,
            "--seconds" => opts.seconds = number(flag, value)?.max(1),
            "--passes" => opts.passes = number(flag, value)?.max(1),
            "--trace" => opts.trace = number(flag, value)? != 0,
            "--out" => opts.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

/// The checkout the benchmark belongs to.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Build `pgmine` from this checkout and return its path.
fn build_pgmine(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "perigap-cli"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pgmine failed: {status}"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which is `root` here.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    Ok(target.join("release").join("pgmine"))
}

/// One workload run's outcome.
struct Outcome {
    workload: String,
    seed: u64,
    load_avg_1m: f64,
    gate: Gate,
    metrics: Metrics,
}

fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(
    pgmine: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Spans,
) -> Result<(Outcome, Spans), String> {
    let dir = root().join("benchmark").join("work").join(workload);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (file, text) in workloads::inputs(workload, seed) {
        std::fs::write(dir.join(file), text).map_err(|e| format!("cannot write {file}: {e}"))?;
    }
    let load_avg_1m = load_avg_1m();
    let mut ctx = Ctx {
        pgmine: pgmine.to_path_buf(),
        dir,
        seed,
        seconds: Duration::from_secs(seconds),
        spans,
        gate: Gate::default(),
    };
    let id = ctx.spans.open(workload);
    let metrics = match workload {
        "serve_zipf" => serve::run(&mut ctx, trace),
        "append_remine" => append::run(&mut ctx, trace),
        mine => workloads::run_mine(mine, &mut ctx, trace),
    };
    ctx.spans.close(id);
    for problem in &ctx.gate.problems {
        eprintln!("benchmark: {workload}: {problem}");
    }
    let outcome = Outcome {
        workload: workload.to_string(),
        seed,
        load_avg_1m,
        gate: ctx.gate,
        metrics,
    };
    Ok((outcome, ctx.spans))
}

/// The unit a metric prints with: the spec's, or read off the name of an
/// extra metric.
fn unit_of(spec: &Spec, name: &str) -> String {
    if let Some(m) = spec.metric(name) {
        return m.unit.clone();
    }
    let unit = [
        ("_us", "us"),
        ("_ms", "ms"),
        ("_per_s", "1/s"),
        ("_s", "s"),
        ("_ratio", "ratio"),
    ]
    .iter()
    .find(|(suffix, _)| name.ends_with(suffix))
    .map_or("count", |(_, unit)| unit);
    unit.to_string()
}

/// The one-line result of a single workload run: exactly the metrics of
/// `list`, in its order. The flag is false when one of them is missing.
fn result_line(outcome: &Outcome, list: &[MetricSpec]) -> (String, bool) {
    let mut complete = true;
    let mut metrics = Vec::new();
    for m in list {
        match outcome.metrics.get(&m.name) {
            Some(stat) if stat.value.is_finite() => metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, stat.value, m.unit
            )),
            _ => complete = false,
        }
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.gate.correct() && complete,
        outcome.gate.attempted,
        outcome.gate.failed,
        metrics.join(", ")
    );
    (line, complete)
}

/// Every metric an outcome holds, with quartiles and sample counts.
fn outcome_json(spec: &Spec, o: &Outcome) -> String {
    let mut metrics = Vec::new();
    for (name, s) in &o.metrics {
        if s.value.is_finite() {
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                s.value,
                unit_of(spec, name),
                s.q1,
                s.q3,
                s.samples
            ));
        }
    }
    format!(
        "{{\"seed\": {}, \"load_avg_1m\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.seed,
        o.load_avg_1m,
        o.gate.correct(),
        o.gate.attempted,
        o.gate.failed,
        metrics.join(", ")
    )
}

fn describe(spec: &Spec, o: &Outcome) -> String {
    let mut text = format!(
        "{} seed {}: correct {}, {} attempted, {} failed (cpus {}, load {:.2})\n",
        o.workload,
        o.seed,
        o.gate.correct(),
        o.gate.attempted,
        o.gate.failed,
        available_parallelism(),
        o.load_avg_1m
    );
    for (name, s) in &o.metrics {
        let _ = writeln!(
            text,
            "  {name:<34} {:>14.6} {:<6} [q1 {:.6}, q3 {:.6}] n={}",
            s.value,
            unit_of(spec, name),
            s.q1,
            s.q3,
            s.samples
        );
    }
    text
}

/// The single-workload form: the result goes on the last line of
/// standard output.
fn single(spec: &Spec, opts: &Opts, workload: &str) -> Result<i32, String> {
    let pgmine = build_pgmine(&root())?;
    let (outcome, spans) = run_workload(
        &pgmine,
        workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        Spans::default(),
    )?;
    eprint!("{}", describe(spec, &outcome));
    if opts.trace {
        write_spans(&spans)?;
    }
    let (line, complete) = result_line(&outcome, spec.listed(opts.trace));
    println!("{line}");
    Ok(if outcome.gate.correct() && complete {
        0
    } else {
        1
    })
}

fn write_spans(spans: &Spans) -> Result<(), String> {
    let path = root().join("benchmark").join("work").join("trace.jsonl");
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `run` and `trace`: every workload, once per pass, into one file.
fn passes(spec: &Spec, opts: &Opts, trace: bool) -> Result<i32, String> {
    let out = opts.out.clone().ok_or("--out is required")?;
    let pgmine = build_pgmine(&root())?;
    let mut spans = Spans::default();
    let mut all_ok = true;
    let mut rendered = Vec::new();
    for pass in 0..opts.passes {
        let seed = opts.seed + pass;
        let mut workloads = Vec::new();
        for (i, workload) in spec.workloads.iter().enumerate() {
            spans.set_run(pass * spec.workloads.len() as u64 + i as u64);
            let (outcome, back) =
                run_workload(&pgmine, workload, seed, opts.seconds, trace, spans)?;
            spans = back;
            eprint!("{}", describe(spec, &outcome));
            all_ok &= outcome.gate.correct() && result_line(&outcome, spec.listed(trace)).1;
            workloads.push(format!("\"{workload}\": {}", outcome_json(spec, &outcome)));
        }
        rendered.push(format!(
            "{{\"seed\": {seed}, \"workloads\": {{{}}}}}",
            workloads.join(", ")
        ));
    }
    let text = format!(
        "{{\"trace\": {trace}, \"seconds\": {}, \"available_parallelism\": {}, \"load_avg_1m\": {}, \"passes\": [\n{}\n]}}\n",
        opts.seconds,
        available_parallelism(),
        load_avg_1m(),
        rendered.join(",\n")
    );
    std::fs::write(&out, text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    if trace {
        write_spans(&spans)?;
    }
    eprintln!("wrote {}", out.display());
    Ok(if all_ok { 0 } else { 1 })
}
