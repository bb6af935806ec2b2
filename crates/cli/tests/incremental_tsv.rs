//! `pgmine mine --format tsv` through the binary: stdout stays the bare
//! TSV, and the rest goes to stderr: what the result cache did (a
//! corrupt record that a cold mine recovered from included), the
//! `--verify` verdict and the support-saturation warning. The table's
//! `--top` is refused.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory holding the input and the cache record, removed
/// on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pgmine-tsv-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

/// `pgmine mine --format tsv` on `input` with `options`.
fn pgmine_tsv(input: &Path, options: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgmine"))
        .args(["mine", "--input", input.to_str().unwrap()])
        .args(["--format", "tsv"])
        .args(options)
        .output()
        .expect("pgmine runs")
}

/// `pgmine mine --format tsv` on `input` under a rigid gap, with `extra`
/// options; the run must succeed.
fn mine_tsv(input: &Path, extra: &[&str]) -> Output {
    let rigid = [
        "--gap",
        "2:2",
        "--rho",
        "0.5%",
        "--algorithm",
        "mpp",
        "--n",
        "6",
    ];
    let output = pgmine_tsv(input, &[&rigid[..], extra].concat());
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn a_truncated_record_is_reported_on_stderr() {
    let dir = Scratch::new("incremental");
    let input = dir.0.join("grown.fa");
    let cache = dir.0.join("cache.pgrc");
    std::fs::write(
        &input,
        format!(">grown\n{}GGGGGGGGGG\n", "ACGTT".repeat(60)),
    )
    .unwrap();
    let incremental = ["--incremental", "--cache-path", cache.to_str().unwrap()];

    let seeded = mine_tsv(&input, &incremental);
    let stderr = String::from_utf8(seeded.stderr).unwrap();
    assert_eq!(
        stderr,
        "incremental: cold (no usable cache; cache seeded)\n"
    );

    let record = std::fs::read(&cache).unwrap();
    std::fs::write(&cache, &record[..20]).unwrap();
    let faulted = mine_tsv(&input, &incremental);
    let cold = mine_tsv(&input, &[]);
    assert!(cold.stderr.is_empty());
    assert!(cold.stdout.starts_with(b"pattern\t"));
    assert_eq!(faulted.stdout, cold.stdout, "stdout is a cold mine's TSV");
    let stderr = String::from_utf8(faulted.stderr).unwrap();
    assert!(stderr.contains("incremental: cold ("), "{stderr}");
    assert!(
        stderr.contains("cache fault (recovered by cold mine): result cache rejected"),
        "{stderr}"
    );
}

#[test]
fn the_verify_verdict_goes_to_stderr() {
    let dir = Scratch::new("verify");
    let input = dir.0.join("s.fa");
    std::fs::write(&input, format!(">s\n{}\n", "ACGTT".repeat(60))).unwrap();
    let verified = mine_tsv(&input, &["--verify"]);
    let plain = mine_tsv(&input, &[]);
    assert!(plain.stdout.starts_with(b"pattern\t"));
    assert_eq!(verified.stdout, plain.stdout, "stdout is the plain TSV");
    assert_eq!(
        String::from_utf8(verified.stderr).unwrap(),
        "verify: all supports, thresholds and ratios check out\n"
    );
}

/// A homopolymer under a flexible gap: `A^21`'s support is past
/// `u64::MAX`, so its counter saturates.
#[test]
fn the_saturation_warning_goes_to_stderr() {
    let dir = Scratch::new("saturated");
    let input = dir.0.join("a.fa");
    std::fs::write(&input, format!(">a\n{}\n", "A".repeat(200))).unwrap();
    let options = ["--gap", "0:9", "--rho", "50%", "--algorithm", "mpp"];
    let output = pgmine_tsv(&input, &options);
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "{stderr}");
    assert_eq!(
        stderr,
        "warning: a support counter saturated at u64::MAX; reported supports are lower bounds\n"
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.starts_with("pattern\t"), "{stdout}");
    assert!(!stdout.contains("warning"), "{stdout}");
}

#[test]
fn the_table_only_top_is_refused() {
    let dir = Scratch::new("top");
    let input = dir.0.join("s.fa");
    std::fs::write(&input, format!(">s\n{}\n", "ACGTT".repeat(60))).unwrap();
    let output = pgmine_tsv(&input, &["--gap", "1:3", "--rho", "0.5%", "--top", "3"]);
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--top does not apply to --format tsv"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty());
}
