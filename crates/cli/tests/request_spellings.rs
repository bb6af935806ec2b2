//! One mine request, spelled two ways: its options in another order,
//! `--k=v` for `--k v`, defaults written out or left out (`--m 4` under
//! MPPm, `--n <l1>` under MPP, `--algorithm mppm`, `--alphabet dna`),
//! and one thread or two. Both spellings seed a byte-identical
//! `--incremental` record, so their `CacheKey`s are equal, and print the
//! same TSV, under a rigid and a flexible gap.

use perigap_cli::commands::run;
use perigap_core::{load_result_cache, GapRequirement};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The most options a spelling writes.
const OPTIONS: usize = 11;

/// A scratch directory per case, removed on drop.
struct Scratch(PathBuf);

static CASE: AtomicUsize = AtomicUsize::new(0);

impl Scratch {
    fn new() -> Scratch {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pgmine-spellings-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How one spelling writes the request.
#[derive(Clone, Debug)]
struct Spelling {
    /// A sort key per option: the options go in key order.
    order: Vec<u32>,
    /// Per option, `--k=v` rather than `--k v`.
    inline: Vec<bool>,
    /// Whether the options left at their defaults are written out.
    defaults: bool,
    threads: usize,
}

fn spelling() -> impl Strategy<Value = Spelling> {
    (
        collection::vec(any::<u32>(), OPTIONS),
        collection::vec(any::<bool>(), OPTIONS),
        any::<bool>(),
        1usize..=2,
    )
        .prop_map(|(order, inline, defaults, threads)| Spelling {
            order,
            inline,
            defaults,
            threads,
        })
}

/// `pgmine mine --incremental --format tsv` of the request on `input`
/// under `gap`, seeding the record at `cache`, spelled as `s` says.
fn words(input: &str, cache: &str, gap: &str, l1: usize, mppm: bool, s: &Spelling) -> Vec<String> {
    let mut options: Vec<(&str, Option<String>)> = vec![
        ("input", Some(input.into())),
        ("gap", Some(gap.into())),
        ("rho", Some("1%".into())),
        ("format", Some("tsv".into())),
        ("incremental", None),
        ("cache-path", Some(cache.into())),
    ];
    if s.threads > 1 || s.defaults {
        options.push(("threads", Some(s.threads.to_string())));
    }
    if s.defaults {
        options.push(("alphabet", Some("dna".into())));
    }
    match mppm {
        true if s.defaults => {
            options.push(("algorithm", Some("mppm".into())));
            options.push(("m", Some("4".into())));
        }
        true => {}
        false => {
            options.push(("algorithm", Some("mpp".into())));
            if s.defaults {
                options.push(("n", Some(l1.to_string())));
            }
        }
    }
    let mut order: Vec<usize> = (0..options.len()).collect();
    order.sort_by_key(|&i| s.order[i]);
    let mut words = vec!["mine".to_string()];
    for i in order {
        match &options[i] {
            (key, None) => words.push(format!("--{key}")),
            (key, Some(value)) if s.inline[i] => words.push(format!("--{key}={value}")),
            (key, Some(value)) => words.extend([format!("--{key}"), value.clone()]),
        }
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spellings_of_one_request_seed_one_record(
        codes in collection::vec(0usize..4, 80..240),
        rigid: bool,
        mppm: bool,
        a in spelling(),
        b in spelling(),
    ) {
        let dir = Scratch::new();
        let input = dir.path("s.fa");
        let text: String = codes.iter().map(|&c| b"ACGT"[c] as char).collect();
        std::fs::write(&input, format!(">s\n{text}\n")).unwrap();
        let (gap, (lo, hi)) = if rigid { ("2:2", (2, 2)) } else { ("1:3", (1, 3)) };
        let l1 = GapRequirement::new(lo, hi).unwrap().l1(codes.len());
        let seed = |name: &str, spelling: &Spelling| {
            let cache = dir.path(name);
            let line = words(&input, &cache, gap, l1, mppm, spelling);
            let tsv = run(line.clone()).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            let record = std::fs::read(&cache).unwrap();
            (tsv, record, load_result_cache(cache.as_ref()).unwrap().key)
        };
        let (tsv_a, record_a, key_a) = seed("a.pgrc", &a);
        let (tsv_b, record_b, key_b) = seed("b.pgrc", &b);
        prop_assert!(tsv_a.starts_with("pattern\t"), "{}", tsv_a);
        prop_assert_eq!(key_a, key_b);
        prop_assert!(record_a == record_b, "the records differ");
        prop_assert_eq!(tsv_a, tsv_b);
    }
}
