//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--quick] [--adaptive]
//! repro skew --trace <run.jsonl>
//!
//! experiments:
//!   counts     Section 4.1 N_l table and the N_10 example
//!   table2     Table 2   K_r walk-through on ACGTCCGT
//!   table3     Table 3   candidates per level, four miners
//!   fig4a      Figure 4a MPPm vs MPP(worst) over rho
//!   fig4b      Figure 4b MPPm vs MPP(best) over rho
//!   fig5       Figure 5  MPP time vs user input n
//!   fig6       Figure 6  MPPm time vs gap flexibility W
//!   fig7       Figure 7  MPPm time vs minimum gap N
//!   fig8       Figure 8  MPPm time vs sequence length L
//!   casestudy  Section 7 genome panels
//!   extensions windowed-model loss, collection mining, gap profiles
//!   bench      engine perf baseline -> BENCH_mining.json (not in `all`)
//!   topk       just the top-k pruning section of `bench`, printed as
//!              its JSON fragment (not in `all`)
//!   end-to-end just the end_to_end section of `bench`, printed as its
//!              JSON fragment (not in `all`)
//!   corpus     just the corpus_scale section of `bench` — sharded
//!              corpus mining with a controlled mid-run kill and resume
//!              — printed as its JSON fragment (not in `all`)
//!   skew       per-worker utilization table from a --trace JSONL file
//!   all        everything above except `bench`/`skew`, in order
//!
//! --quick shrinks sweep ranges and sequence lengths so the full run
//! finishes in well under a minute; the default regenerates the paper's
//! exact configurations.
//! ```

use perigap_bench::experiments::{self, paper};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let adaptive = args.iter().any(|a| a == "--adaptive");
    // `--trace <path>`: the path word must not be mistaken for the
    // experiment name.
    let trace = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let which = args
        .iter()
        .find(|a| !a.starts_with("--") && Some(a.as_str()) != trace)
        .map(String::as_str)
        .unwrap_or("all");

    let seq_len = if quick { 600 } else { paper::SEQ_LEN };
    let rhos: Vec<f64> = if quick {
        vec![0.003, 0.004, 0.005]
    } else {
        paper::RHO_SWEEP_PERCENT.to_vec()
    };
    let ns: Vec<usize> = if quick {
        vec![10, 20, 40]
    } else {
        vec![10, 13, 20, 30, 40, 50, 60, 77]
    };
    let ws: Vec<usize> = if quick {
        vec![4, 5, 6]
    } else {
        vec![4, 5, 6, 7, 8]
    };
    let gap_mins: Vec<usize> = vec![8, 9, 10, 11, 12];
    let lens: Vec<usize> = if quick {
        vec![1_000, 2_000, 4_000]
    } else {
        (1..=10).map(|k| k * 1_000).collect()
    };
    let scale = if quick { 0.04 } else { 0.1 };

    let run_one = |name: &str| match name {
        "counts" => experiments::counts::run(seq_len),
        "table2" => experiments::table2::run(),
        "table3" => experiments::table3::run(seq_len),
        "fig4a" => experiments::fig4::run_fig4a(seq_len, &rhos),
        "fig4b" => experiments::fig4::run_fig4b(seq_len, &rhos),
        "fig5" => experiments::fig5::run(seq_len, &ns, adaptive),
        "fig6" => experiments::fig6::run(seq_len, &ws),
        "fig7" => experiments::fig7::run(seq_len, &gap_mins),
        "fig8" => experiments::fig8::run(&lens),
        "casestudy" => experiments::casestudy::run(scale),
        "extensions" => experiments::extensions::run(seq_len),
        "bench" => experiments::bench_mining::run(quick),
        "topk" => {
            let fragment = experiments::bench_mining::top_k_pruning(quick);
            println!("{fragment}");
        }
        "end-to-end" => {
            let fragment = experiments::bench_mining::end_to_end(quick);
            println!("{fragment}");
        }
        "corpus" => {
            let fragment = experiments::bench_mining::corpus_scale(quick);
            println!("{fragment}");
        }
        "skew" => match trace {
            Some(path) => experiments::skew::run(path),
            None => {
                eprintln!("skew needs --trace <run.jsonl> (a pgmine/mpp trace file)");
                std::process::exit(2);
            }
        },
        other => {
            eprintln!("unknown experiment {other:?}; see --help text in the source header");
            std::process::exit(2);
        }
    };

    if which == "all" {
        for name in [
            "counts",
            "table2",
            "table3",
            "fig4a",
            "fig4b",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "casestudy",
            "extensions",
        ] {
            run_one(name);
            println!("\n{}\n", "=".repeat(72));
        }
    } else {
        run_one(which);
    }
}
