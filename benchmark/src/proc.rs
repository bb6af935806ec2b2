//! Child processes: run one to its exit under a deadline and read its
//! peak resident set from the kernel's accounting (`wait4`).
//!
//! Programs under test are started through a shim: a fresh copy of this
//! executable that spawns the program, waits for it and writes its
//! [`Exit`] to a report file. Linux carries the peak RSS of the address
//! space a process is exec'd from into the new program's `ru_maxrss`, and
//! std spawns with vfork, so a program spawned straight from the
//! benchmark would report at least the benchmark's own peak (tens of MB
//! once it has built an index). The shim's is a few MB, below any
//! program's own.

use std::ffi::OsStr;
use std::io;
use std::os::raw::{c_int, c_long};
use std::os::unix::process::CommandExt as _;
use std::path::Path;
use std::process::{Child, Command};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// The first argument that makes this executable act as the shim.
pub const SHIM_ARG: &str = "__spawn";
/// How much longer than its program's deadline the shim may take.
const SHIM_GRACE: Duration = Duration::from_secs(10);

/// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
    fn waitid(idtype: c_int, id: u32, infop: *mut u64, options: c_int) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;
const SIGKILL: c_int = 9;
/// `siginfo_t` is 128 bytes on Linux.
const SIGINFO_WORDS: usize = 16;

/// How a child ended.
#[derive(Clone, Debug)]
pub struct Exit {
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set of the child, KiB.
    pub peak_rss_kib: u64,
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    /// The deadline passed and the child was killed.
    pub timed_out: bool,
}

impl Exit {
    pub fn ok(&self) -> bool {
        !self.timed_out && self.code == Some(0)
    }

    pub fn rss_mb(&self) -> f64 {
        self.peak_rss_kib as f64 / 1024.0
    }
}

/// A spawned child and when it started.
pub struct Running {
    child: Child,
    started: Instant,
}

pub fn spawn(cmd: &mut Command) -> io::Result<Running> {
    let started = Instant::now();
    let child = cmd.spawn()?;
    Ok(Running { child, started })
}

/// Spawn and wait; see [`Running::wait`].
pub fn run(cmd: &mut Command, timeout: Duration) -> io::Result<Exit> {
    spawn(cmd)?.wait(timeout)
}

/// A command that runs `program args` through the shim, which kills the
/// program after `timeout` and writes its exit to `report`. Wait for it
/// with [`Running::wait_shim`].
pub fn shim_command<S: AsRef<OsStr>>(
    program: &Path,
    args: &[S],
    report: &Path,
    timeout: Duration,
) -> io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    // The shim leads its own process group, so a watchdog that kills the
    // group also takes the program down with it.
    cmd.process_group(0)
        .arg(SHIM_ARG)
        .arg(timeout.as_millis().to_string())
        .arg(report)
        .arg(program)
        .args(args);
    Ok(cmd)
}

/// The shim's side of [`shim_command`]: `args` are the timeout in
/// milliseconds, the report path, the program and its arguments. Returns
/// the shim's exit code.
pub fn shim(args: &[String]) -> i32 {
    let [timeout_ms, report, program, rest @ ..] = args else {
        return 2;
    };
    let Ok(ms) = timeout_ms.parse() else {
        return 2;
    };
    let Ok(exit) = run(Command::new(program).args(rest), Duration::from_millis(ms)) else {
        return 3;
    };
    let line = format!(
        "{} {} {} {}",
        exit.wall.as_nanos(),
        exit.peak_rss_kib,
        exit.code.unwrap_or(-1),
        exit.timed_out
    );
    if std::fs::write(report, line).is_ok() {
        0
    } else {
        3
    }
}

impl Running {
    /// True once the child has exited. An exited child is reaped here, so
    /// call this only while its exit is not yet wanted: after it returns
    /// true, [`Running::wait`] fails.
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Wait for a shim started from [`shim_command`] with the same
    /// `report` and `timeout`, and return its program's exit.
    pub fn wait_shim(self, report: &Path, timeout: Duration) -> io::Result<Exit> {
        let shim = self.wait(timeout + SHIM_GRACE)?;
        let text = std::fs::read_to_string(report);
        // A stale report must never be read for a later run.
        let _ = std::fs::remove_file(report);
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        if !shim.ok() {
            return Err(bad(format!("the spawn shim failed: {shim:?}")));
        }
        let text = text?;
        let fields: Vec<&str> = text.split_whitespace().collect();
        let [wall_ns, rss, code, timed_out] = fields[..] else {
            return Err(bad(format!("malformed shim report {text:?}")));
        };
        let parsed = (|| {
            Some(Exit {
                wall: Duration::from_nanos(wall_ns.parse().ok()?),
                peak_rss_kib: rss.parse().ok()?,
                code: Some(code.parse().ok()?).filter(|&c: &i32| c >= 0),
                timed_out: timed_out.parse().ok()?,
            })
        })();
        parsed.ok_or_else(|| bad(format!("malformed shim report {text:?}")))
    }

    /// Wait for the child to exit, killing it once `timeout` has passed
    /// since the wait began.
    pub fn wait(self, timeout: Duration) -> io::Result<Exit> {
        let pid = c_int::try_from(self.child.id()).expect("Linux pids fit in a c_int");
        let (stop, stopped) = mpsc::channel::<()>();
        let (exited, timed_out) = std::thread::scope(|scope| {
            let watchdog = scope.spawn(move || {
                if stopped.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout) {
                    // SAFETY: plain syscalls. The child is not reaped before
                    // this thread is joined below, so neither `pid` nor a
                    // process group of that id can belong to anyone else;
                    // the group exists only if the child leads one.
                    unsafe {
                        kill(pid, SIGKILL);
                        kill(-pid, SIGKILL);
                    }
                    true
                } else {
                    false
                }
            });
            let exited = wait_exited(pid).map(|()| Instant::now());
            drop(stop);
            (
                exited,
                watchdog.join().expect("the watchdog does not panic"),
            )
        });
        let ended = exited?;
        let mut status: c_int = 0;
        let mut usage = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid out
            // as the kernel expects (`int` and `struct rusage`).
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok(Exit {
            wall: ended - self.started,
            peak_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
            code,
            timed_out,
        })
    }
}

/// Block until `pid` has exited, leaving it waitable (`WNOWAIT`).
fn wait_exited(pid: c_int) -> io::Result<()> {
    let mut info = [0u64; SIGINFO_WORDS];
    loop {
        // SAFETY: `info` is a writable, aligned buffer the size of
        // `siginfo_t`; `pid` is our unreaped child.
        let r = unsafe { waitid(P_PID, pid as u32, info.as_mut_ptr(), WEXITED | WNOWAIT) };
        if r == 0 {
            return Ok(());
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Stdio;

    /// Re-run this test binary as the child, selecting `test` and asking it
    /// to act through `env`.
    fn child(test: &str, env: &str) -> Command {
        let mut cmd = Command::new(std::env::current_exe().unwrap());
        cmd.args(["--exact", test, "--test-threads", "1"])
            .env(env, "1")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd
    }

    #[test]
    fn wait4_reports_the_peak_rss_of_a_child_touching_64_mib() {
        if std::env::var_os("BENCH_TOUCH_64_MIB").is_some() {
            let mut block = vec![0u8; 64 << 20];
            for page in block.iter_mut().step_by(4096) {
                *page = 1;
            }
            std::hint::black_box(&block);
            return;
        }
        let exit = run(
            &mut child(
                "proc::tests::wait4_reports_the_peak_rss_of_a_child_touching_64_mib",
                "BENCH_TOUCH_64_MIB",
            ),
            Duration::from_secs(60),
        )
        .unwrap();
        assert!(exit.ok(), "{exit:?}");
        assert!(exit.peak_rss_kib >= 64 * 1024, "{exit:?}");
        assert!(exit.peak_rss_kib < 1024 * 1024, "{exit:?}");
    }

    #[test]
    fn a_child_past_its_deadline_is_killed_and_reported() {
        if std::env::var_os("BENCH_SLEEP").is_some() {
            std::thread::sleep(Duration::from_secs(30));
            return;
        }
        let exit = run(
            &mut child(
                "proc::tests::a_child_past_its_deadline_is_killed_and_reported",
                "BENCH_SLEEP",
            ),
            Duration::from_millis(200),
        )
        .unwrap();
        assert!(
            exit.timed_out && exit.code.is_none() && !exit.ok(),
            "{exit:?}"
        );
        assert!(exit.wall < Duration::from_secs(10), "{exit:?}");
    }
}
