//! The spawn shim reports the peak RSS of the program it runs, not that of
//! the process that started the shim.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn shim_reports_the_programs_own_peak_rss() {
    if std::env::var_os("BENCH_SHIM_CHILD").is_some() {
        return;
    }
    // A parent holding 128 MiB: a program spawned straight from it would
    // report at least that much.
    let mut block = vec![0u8; 128 << 20];
    for page in block.iter_mut().step_by(4096) {
        *page = 1;
    }
    std::hint::black_box(&block);

    let report = Path::new(env!("CARGO_TARGET_TMPDIR")).join("shim-report.txt");
    let program = std::env::current_exe().unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["__spawn", "60000"])
        .arg(&report)
        .arg(&program)
        .args(["--exact", "shim_reports_the_programs_own_peak_rss"])
        .env("BENCH_SHIM_CHILD", "1")
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let text = std::fs::read_to_string(&report).unwrap();
    let fields: Vec<&str> = text.split_whitespace().collect();
    let rss_kib: u64 = fields[1].parse().unwrap();
    assert_eq!((fields[2], fields[3]), ("0", "false"), "{text}");
    assert!(rss_kib > 0 && rss_kib < 64 * 1024, "{text}");
}
