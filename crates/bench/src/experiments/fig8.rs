//! Figure 8: MPPm execution time vs subject sequence length `L`.
//!
//! Paper configuration: gap `[9,12]`, m = 10, ρs = 0.003%, L from 1,000
//! to 10,000. Expected shape: linear scaling in L.

use super::{paper, timed_median};
use crate::data::scaling_sequence;
use perigap_analysis::report::{seconds, TextTable};
use perigap_core::mpp::MppConfig;
use perigap_core::mppm::mppm;
use perigap_core::GapRequirement;

/// One Figure 8 measurement.
pub struct Fig8Row {
    /// Sequence length.
    pub len: usize,
    /// Median MPPm time.
    pub time: std::time::Duration,
    /// Frequent patterns found.
    pub patterns: usize,
    /// MPPm's automatic n estimate (pruning strength diagnostic).
    pub n_used: usize,
}

/// Time MPPm for each sequence length.
pub fn sweep(lens: &[usize], m: usize) -> Vec<Fig8Row> {
    let gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).expect("static gap");
    lens.iter()
        .map(|&len| {
            // The homogeneous family: feature density uniform in len, so
            // the expected cost is proportional to length (Figure 8's
            // claim), not to which planted features a prefix contains.
            let seq = scaling_sequence(len);
            let (outcome, t) = timed_median(3, || {
                mppm(&seq, gap, paper::RHO, m, MppConfig::default()).expect("mppm runs")
            });
            Fig8Row {
                len,
                time: t,
                patterns: outcome.frequent.len(),
                n_used: outcome.stats.n_used,
            }
        })
        .collect()
}

/// Print the Figure 8 table with a linearity diagnostic
/// (time per 1,000 characters).
pub fn run(lens: &[usize]) {
    println!("Figure 8 — MPPm time vs sequence length L; gap [9,12], m = 10, rho = 0.003%\n");
    let mut table = TextTable::new(&["L", "time (s)", "s per 1k chars", "patterns", "n(MPPm)"]);
    for row in sweep(lens, paper::M) {
        table.row(&[
            row.len.to_string(),
            seconds(row.time),
            format!("{:.3}", row.time.as_secs_f64() * 1000.0 / row.len as f64),
            row.patterns.to_string(),
            row.n_used.to_string(),
        ]);
    }
    print!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_multiple_lengths() {
        let rows = sweep(&[400, 800], 4);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len, 400);
        assert!(rows.iter().all(|r| r.n_used >= 3));
    }
}
