//! A letter outside the alphabet, through the `pgmine` binary: the run
//! exits 2 and names the character the file holds at the letter's byte
//! position, even when that character takes more than one byte.

use std::process::Command;

#[test]
fn a_multibyte_letter_is_named_as_written() {
    let path = std::env::temp_dir().join(format!("pgmine-bad-letter-{}.fa", std::process::id()));
    std::fs::write(&path, ">x\nACGÑT\n").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_pgmine"))
        .args(["stats", "--input", path.to_str().unwrap()])
        .output()
        .expect("pgmine runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("character 'Ñ' at position 3 is not in the alphabet"),
        "{stderr}"
    );
}
