//! Gap widths past the input, through the `pgmine` binary. A gap whose
//! `M` exceeds `u32::MAX` (including one where `M + 1` would wrap) is
//! refused with exit 2 and a typed message. A gap far wider than the
//! sequence mines in memory sized by the sequence, not by `M`. Every
//! run is capped at 8 GB of address space (`ulimit -v`), so a
//! regression fails here instead of exhausting the machine.

use std::path::PathBuf;
use std::process::Command;

/// A 24-nt FASTA file, removed on drop.
struct Input(PathBuf);

impl Input {
    fn new(label: &str) -> Input {
        let path = std::env::temp_dir().join(format!(
            "pgmine-gap-widths-{label}-{}.fa",
            std::process::id()
        ));
        std::fs::write(&path, ">r\nACGTACGTTGCAACGTACGTTGCA\n").unwrap();
        Input(path)
    }

    /// `pgmine mine --rho 50%` on the input under the cap, with `extra`
    /// options: the exit code, stdout and stderr.
    fn mine(&self, extra: &[&str]) -> (Option<i32>, String, String) {
        let output = Command::new("sh")
            .arg("-c")
            .arg("ulimit -v 8000000 && exec \"$0\" \"$@\"")
            .arg(env!("CARGO_BIN_EXE_pgmine"))
            .args(["mine", "--input", self.0.to_str().unwrap(), "--rho", "50%"])
            .args(extra)
            .output()
            .expect("sh runs pgmine");
        let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
        (
            output.status.code(),
            text(output.stdout),
            text(output.stderr),
        )
    }
}

impl Drop for Input {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn gaps_past_u32_max_are_refused() {
    let input = Input::new("refused");
    for extra in [
        &["--gap", "0:18446744073709551615"][..],
        &["--gap", "18446744073709551615"],
        &["--gap", "0:4294967296", "--algorithm", "mpp"],
    ] {
        let (code, _, stderr) = input.mine(extra);
        assert_eq!(code, Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("max exceeds 4294967295, the widest gap"),
            "{extra:?}: {stderr}"
        );
    }
}

#[test]
fn gaps_wider_than_the_input_mine_in_bounded_memory() {
    let input = Input::new("wide");
    for gap in ["0:100000000", "0:100000"] {
        let (code, stdout, stderr) = input.mine(&["--gap", gap]);
        assert_eq!(code, Some(0), "{gap}: {stderr}");
        assert!(stdout.contains("\n0 frequent patterns"), "{gap}: {stdout}");
    }
}
