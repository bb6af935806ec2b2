//! `pgmine mine --incremental --format tsv` through the binary: stdout
//! stays the bare TSV, and what the result cache did goes to stderr,
//! a corrupt record that a cold mine recovered from included.

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

/// `pgmine mine --format tsv` on `input` under a rigid gap, with `extra`
/// options.
fn mine_tsv(input: &Path, extra: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_pgmine"))
        .args(["mine", "--input", input.to_str().unwrap()])
        .args([
            "--gap",
            "2:2",
            "--rho",
            "0.5%",
            "--algorithm",
            "mpp",
            "--n",
            "6",
        ])
        .args(["--format", "tsv"])
        .args(extra)
        .output()
        .expect("pgmine runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn a_truncated_record_is_reported_on_stderr() {
    let dir = Scratch(std::env::temp_dir().join(format!("pgmine-incr-tsv-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
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
