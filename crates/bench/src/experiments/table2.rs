//! Table 2: the `K_r` walk-through on `S = ACGTCCGT`.
//!
//! Gap `[1,2]`, m = 2. The paper's values are
//! `K = [2, 1, 2, 1, 0, 0, 0, 0]` with `e_m = 2`.

use perigap_analysis::report::TextTable;
use perigap_core::em::kr_table;
use perigap_core::GapRequirement;
use perigap_seq::Sequence;

/// The paper's example values.
pub const PAPER_KR: [u64; 8] = [2, 1, 2, 1, 0, 0, 0, 0];

/// Compute the table.
pub fn compute() -> (Vec<u64>, u64) {
    let s = Sequence::dna("ACGTCCGT").expect("static sequence");
    let gap = GapRequirement::new(1, 2).expect("static gap");
    kr_table(&s, gap, 2)
}

/// Print Table 2 with the paper's row for comparison.
pub fn run() {
    println!("Table 2 — K_r of S = ACGTCCGT, gap [1,2], m = 2\n");
    let (krs, em) = compute();
    let mut table = TextTable::new(&["r", "K_r (measured)", "K_r (paper)"]);
    for (i, (&got, &expected)) in krs.iter().zip(PAPER_KR.iter()).enumerate() {
        table.row(&[(i + 1).to_string(), got.to_string(), expected.to_string()]);
    }
    print!("{}", table.render());
    println!("\ne_m = {em} (paper: 2)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_exactly() {
        let (krs, em) = compute();
        assert_eq!(krs, PAPER_KR);
        assert_eq!(em, 2);
    }
}
