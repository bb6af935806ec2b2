//! Seeded input generators. The program under test only ever sees the
//! FASTA files written from these; `--seed` is the only source of
//! randomness, so one seed always gives the same bytes.
//!
//! Structure (block layout, block sizes) is fixed and only the symbols
//! are drawn, so the work the miner does varies little from seed to
//! seed and timings from different seeds are comparable.

/// splitmix64 (Steele, Lea and Flood 2014): small, fast and good enough
/// to drive symbol draws.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for one input of one seed. Streams of one seed differ by
    /// `stream`, so inputs do not share draws.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Index drawn from unnormalised `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let mut x = self.unit() * weights.iter().sum::<f64>();
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// 64-bit FNV-1a, used for input and output digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seeded shuffle of `counts[c]` copies of each of `A`, `C`, `G`, `T`.
fn shuffled_block(rng: &mut SplitMix64, counts: [usize; 4]) -> Vec<u8> {
    let mut block: Vec<u8> = (0..4)
        .flat_map(|c| std::iter::repeat_n(b"ACGT"[c], counts[c]))
        .collect();
    for i in (1..block.len()).rev() {
        block.swap(i, rng.below(i as u64 + 1) as usize);
    }
    block
}

/// A/T-rich DNA built from 20-symbol blocks, each a seeded shuffle of a
/// fixed multiset, so every seed has the same composition and the
/// miner's work (whose PIL sizes grow like a power of the symbol
/// frequencies) barely moves between seeds:
/// - background blocks hold 6 A, 4 C, 4 G, 6 T;
/// - the first 100 bp of every 400 are A/T-skewed: 7 A, 3 C, 3 G, 7 T;
/// - the first 160 bp of every 1000 are a helical ladder, an AA (or, in
///   the next block, TT) rung every 10 bp between shuffled filler.
///
/// The ladders give the flexible-gap miner its long patterns.
pub fn blocked_dna(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::with_capacity(len + 20);
    while out.len() < len {
        let at = out.len();
        if at % 1000 < 160 {
            let rung = if (at / 20).is_multiple_of(2) {
                b'A'
            } else {
                b'T'
            };
            let filler = shuffled_block(rng, [4, 4, 4, 4]);
            for half in filler.chunks(8) {
                out.extend([rung, rung]);
                out.extend(half);
            }
        } else if at % 400 < 100 {
            out.extend(shuffled_block(rng, [7, 3, 3, 7]));
        } else {
            out.extend(shuffled_block(rng, [6, 4, 4, 6]));
        }
    }
    out.truncate(len);
    out
}

/// Amino acids with background frequencies close to UniProt's.
pub fn protein(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    const AA: &[u8; 20] = b"ACDEFGHIKLMNPQRSTVWY";
    const FREQ: [f64; 20] = [
        8.3, 1.4, 5.5, 6.8, 3.9, 7.1, 2.3, 5.9, 5.8, 9.7, 2.4, 4.1, 4.7, 3.9, 5.3, 6.6, 5.3, 6.9,
        1.1, 2.9,
    ];
    (0..len).map(|_| AA[rng.weighted(&FREQ)]).collect()
}

/// DNA made of poly-G runs (4 to 12 long, started with probability 0.15
/// at each step) between uniform A/C/T symbols: under a rigid gap the
/// runs give long frequent patterns that an append keeps extending.
pub fn g_runs(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::with_capacity(len + 12);
    while out.len() < len {
        if rng.unit() < 0.15 {
            let run = 4 + rng.below(9) as usize;
            out.extend(std::iter::repeat_n(b'G', run));
        } else {
            out.push(b"ACT"[rng.below(3) as usize]);
        }
    }
    out.truncate(len);
    out
}

/// One FASTA record, 60 symbols a line.
pub fn fasta(id: &str, symbols: &[u8]) -> String {
    let mut text = format!(">{id}\n");
    for line in symbols.chunks(60) {
        text.push_str(std::str::from_utf8(line).expect("generators emit ASCII"));
        text.push('\n');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_outputs() {
        // First outputs of splitmix64 seeded with 0 (reference C code).
        let mut rng = SplitMix64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn generators_keep_their_alphabets_and_lengths() {
        let mut rng = SplitMix64::new(7, 0);
        let dna = blocked_dna(&mut rng, 2000);
        assert_eq!(dna.len(), 2000);
        assert!(dna.iter().all(|c| b"ACGT".contains(c)));
        let runs = g_runs(&mut rng, 2000);
        assert_eq!(runs.len(), 2000);
        assert!(runs.windows(4).any(|w| w == b"GGGG"));
        let aa = protein(&mut rng, 2000);
        assert!(aa.iter().all(u8::is_ascii_uppercase));
    }
}
