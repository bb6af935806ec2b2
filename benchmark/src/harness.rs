//! What every workload shares: the program under test, a work
//! directory, the correctness gate, and the metrics it reports.

use crate::proc::{self, Exit};
use crate::span::Spans;
use crate::stats::Stat;
use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// No single `pgmine` process of any workload comes near this; one that
/// does has hung and counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// Metrics by name. Values the benchmark could not take are absent, and
/// the printer refuses to print a result missing a metric.
pub type Metrics = BTreeMap<String, Stat>;

/// Attempts, failures and what went wrong. A failure is a non-zero exit,
/// a timeout, an `"ok": false` answer or a correctness mismatch.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Gate {
    /// Count one operation or check; `problem` describes it if it failed.
    pub fn record(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// One workload run in progress.
pub struct Ctx {
    pub pgmine: PathBuf,
    /// This workload's work directory, emptied before the run.
    pub dir: PathBuf,
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: Duration,
    pub spans: Spans,
    pub gate: Gate,
}

impl Ctx {
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// A `pgmine` command, started through the spawn shim (see
    /// [`proc::shim_command`]) and run in the work directory: its
    /// standard output goes to `stdout`, its standard error to
    /// `stderr.txt`, and its exit is reported in `report`.
    pub fn command<S: AsRef<OsStr>>(
        &self,
        args: &[S],
        stdout: &str,
        report: &str,
        timeout: Duration,
    ) -> std::io::Result<Command> {
        let mut cmd = proc::shim_command(&self.pgmine, args, &self.path(report), timeout)?;
        cmd.current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(std::fs::File::create(self.path(stdout))?)
            .stderr(std::fs::File::create(self.path("stderr.txt"))?);
        Ok(cmd)
    }

    /// Run `pgmine args > stdout` to its exit inside a span named `span`,
    /// counting it at the gate. `None` when it could not be started.
    pub fn pgmine<S: AsRef<OsStr>>(
        &mut self,
        span: &str,
        args: &[S],
        stdout: &str,
    ) -> Option<Exit> {
        let report = self.path("exit.txt");
        let result = self
            .command(args, stdout, "exit.txt", OP_TIMEOUT)
            .and_then(|mut cmd| {
                let id = self.spans.open(span);
                let exit = proc::spawn(&mut cmd).and_then(|r| r.wait_shim(&report, OP_TIMEOUT));
                self.spans.close(id);
                exit
            });
        let stderr = || {
            std::fs::read_to_string(self.dir.join("stderr.txt"))
                .unwrap_or_default()
                .trim()
                .to_string()
        };
        match result {
            Ok(exit) => {
                let detail = (!exit.ok()).then(stderr);
                self.gate.record(exit.ok(), || {
                    format!("{span}: {exit:?}: {}", detail.unwrap_or_default())
                });
                Some(exit)
            }
            Err(e) => {
                self.gate
                    .record(false, || format!("{span}: cannot run pgmine: {e}"));
                None
            }
        }
    }

    /// FNV-1a of a work-directory file, `0` when it cannot be read.
    pub fn digest(&self, file: &str) -> u64 {
        std::fs::read(self.path(file)).map_or(0, |b| crate::gen::fnv1a(&b))
    }

    /// Time an in-process call: run it at least three times and until
    /// half a second has passed (at most fifteen times), inside spans
    /// named `span`; the median seconds and the last result.
    pub fn repeat<T>(&mut self, span: &str, mut f: impl FnMut() -> T) -> (f64, T) {
        let started = Instant::now();
        let mut secs = Vec::new();
        loop {
            let (out, s) = self.spans.time(span, || std::hint::black_box(f()));
            secs.push(s);
            if secs.len() >= 15 || (secs.len() >= 3 && started.elapsed().as_secs_f64() > 0.5) {
                return (crate::stats::median(&secs), out);
            }
        }
    }
}

/// Record a metric.
pub fn put(metrics: &mut Metrics, name: &str, stat: Stat) {
    metrics.insert(name.to_string(), stat);
}

/// Record a single value.
pub fn put1(metrics: &mut Metrics, name: &str, value: f64) {
    put(metrics, name, Stat::single(value));
}

/// The end-to-end operation metrics from per-operation wall times (s),
/// peak RSS readings (MB) and the length of the timed phase.
pub fn op_metrics(metrics: &mut Metrics, walls_s: &[f64], rss_mb: &[f64], phase: Duration) {
    let ms: Vec<f64> = walls_s.iter().map(|s| s * 1e3).collect();
    if let Some(p50) = Stat::of(&ms) {
        put(metrics, "op_p50_ms", p50);
    }
    if let Some(p99) = Stat::tail(&ms, 99.0) {
        put(metrics, "op_p99_ms", p99);
    }
    if let Some(min) = Stat::tail(&ms, 0.0) {
        put(metrics, "op_min_ms", min);
    }
    if !walls_s.is_empty() {
        put(
            metrics,
            "ops_per_s",
            Stat {
                samples: walls_s.len(),
                ..Stat::single(walls_s.len() as f64 / phase.as_secs_f64())
            },
        );
    }
    if let Some(rss) = Stat::of(rss_mb) {
        put(metrics, "peak_rss_mb", rss);
    }
}
