//! Seeded input generation: request lists.
//!
//! Everything here is a pure function of `--seed`, and everything is built
//! before the timed window opens. The generator is the benchmark's own
//! (SplitMix64) so the inputs cannot drift when a vendored crate changes.
//!
//! The work is *fixed*; the seed varies what it contains. A list of `n`
//! lengths takes the `n` evenly spaced quantiles of its distribution in an
//! order that is part of the workload, not of the seed. The seed picks the
//! token ids and the shared prefix. Every seed therefore offers the same
//! total work in the same order, which is what lets the latency percentiles
//! of a hundred-request pass agree across seeds; what the program computes
//! on still differs from seed to seed.

/// One generation request: the program receives only this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub prompt: Vec<usize>,
    pub n_tokens: usize,
}

/// SplitMix64 (Steele et al.), the benchmark's only randomness source.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A length distribution, sampled by quantile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Len {
    Fixed(usize),
    /// Uniform on `lo..=hi`.
    Uniform(usize, usize),
    /// `exp(N(mu, sigma))` rounded and clipped to `lo..=hi`.
    LogNormal {
        mu: f64,
        sigma: f64,
        lo: usize,
        hi: usize,
    },
}

impl Len {
    /// The value at quantile `u` in `(0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        match *self {
            Len::Fixed(n) => n,
            Len::Uniform(lo, hi) => lo + ((u * (hi - lo + 1) as f64) as usize).min(hi - lo),
            Len::LogNormal { mu, sigma, lo, hi } => {
                let v = (mu + sigma * inv_norm_cdf(u)).exp().round() as usize;
                v.clamp(lo, hi)
            }
        }
    }

    pub fn max(&self) -> usize {
        match *self {
            Len::Fixed(n) => n,
            Len::Uniform(_, hi) | Len::LogNormal { hi, .. } => hi,
        }
    }

    pub fn min(&self) -> usize {
        match *self {
            Len::Fixed(n) => n,
            Len::Uniform(lo, _) | Len::LogNormal { lo, .. } => lo,
        }
    }

    /// The same distribution with every length divided by `by` (at least 2).
    fn shrunk(&self, by: usize) -> Len {
        let f = |n: usize| (n / by).max(2);
        match *self {
            Len::Fixed(n) => Len::Fixed(f(n)),
            Len::Uniform(lo, hi) => Len::Uniform(f(lo), f(hi)),
            Len::LogNormal { mu, sigma, lo, hi } => Len::LogNormal {
                mu: mu - (by as f64).ln(),
                sigma,
                lo: f(lo),
                hi: f(hi),
            },
        }
    }

    /// `n` stratified draws in the order `rng` gives.
    fn stratified(&self, n: usize, rng: &mut Rng) -> Vec<usize> {
        let mut xs: Vec<usize> = (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .collect();
        rng.shuffle(&mut xs);
        xs
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error < 1.2e-9 — far below the rounding to whole tokens).
fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.02425 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.02425 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// The shape of a workload's requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Tokens every prompt starts with (one seeded prefix per run); 0 = none.
    pub shared_prefix: usize,
    /// Unshared prompt tokens.
    pub prompt: Len,
    pub gen: Len,
}

impl Shape {
    pub fn max_prompt(&self) -> usize {
        self.shared_prefix + self.prompt.max()
    }

    pub fn min_prompt(&self) -> usize {
        self.shared_prefix + self.prompt.min()
    }

    pub fn max_context(&self) -> usize {
        self.max_prompt() + self.gen.max()
    }

    /// The shape at `1 / by` of every length (`--smoke`).
    pub fn shrunk(&self, by: usize) -> Shape {
        Shape {
            shared_prefix: self.shared_prefix / by,
            prompt: self.prompt.shrunk(by),
            gen: self.gen.shrunk(by),
        }
    }
}

/// Seed of the fixed patterns (a constant of the benchmark).
const PATTERN_SEED: u64 = 0x0DD_BA11;

/// Generator of one of a stream's patterns (`salt` tells lengths from gaps).
fn pattern_rng(stream: u64, salt: u64) -> Rng {
    Rng::new(PATTERN_SEED ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ salt)
}

/// `n` requests of `shape` over a `vocab`-token vocabulary. `stream` keeps
/// independent lists (warm-up, phases) of one seed apart.
pub fn requests(shape: &Shape, n: usize, vocab: usize, seed: u64, stream: u64) -> Vec<Req> {
    repeated(shape, n, 1, vocab, seed, stream)
}

/// `passes` × `n` requests: every pass repeats the lengths of the first in
/// the same order and draws token ids of its own, so the passes are the
/// same work on other content (nothing a prefix cache could reuse).
pub fn repeated(
    shape: &Shape,
    n: usize,
    passes: usize,
    vocab: usize,
    seed: u64,
    stream: u64,
) -> Vec<Req> {
    let mut pattern = pattern_rng(stream, 0);
    let prompts = shape.prompt.stratified(n, &mut pattern);
    let gens = shape.gen.stratified(n, &mut pattern);

    // The shared prefix depends on the seed alone, so every list of a run
    // (warm-up and both phases) shares it.
    let mut prefix_rng = Rng::new(seed ^ 0x005E_ED0F_5A7E_D0C5);
    let prefix: Vec<usize> = (0..shape.shared_prefix)
        .map(|_| prefix_rng.below(vocab))
        .collect();
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    (0..passes * n)
        .map(|i| {
            let mut prompt = prefix.clone();
            prompt.extend((0..prompts[i % n]).map(|_| rng.below(vocab)));
            Req {
                prompt,
                n_tokens: gens[i % n],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAT: Shape = Shape {
        shared_prefix: 0,
        prompt: Len::Uniform(8, 32),
        gen: Len::LogNormal {
            mu: 3.0,
            sigma: 0.7,
            lo: 4,
            hi: 64,
        },
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = requests(&CHAT, 50, 512, 3, 1);
        assert_eq!(a, requests(&CHAT, 50, 512, 3, 1));
        assert_ne!(a, requests(&CHAT, 50, 512, 4, 1));
        assert_ne!(a, requests(&CHAT, 50, 512, 3, 2));
    }

    #[test]
    fn every_seed_offers_the_same_work_with_other_content() {
        let lens = |seed| -> Vec<(usize, usize)> {
            requests(&CHAT, 64, 512, seed, 1)
                .iter()
                .map(|r| (r.prompt.len(), r.n_tokens))
                .collect()
        };
        assert_eq!(lens(1), lens(2));
        assert_ne!(
            lens(1),
            requests(&CHAT, 64, 512, 1, 2)
                .iter()
                .map(|r| (r.prompt.len(), r.n_tokens))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn lengths_stay_in_range_and_prefix_is_shared() {
        let shape = Shape {
            shared_prefix: 12,
            prompt: Len::Uniform(3, 5),
            gen: Len::Fixed(7),
        };
        let rs = requests(&shape, 30, 100, 9, 1);
        for r in &rs {
            assert!((15..=17).contains(&r.prompt.len()));
            assert_eq!(r.n_tokens, 7);
            assert_eq!(r.prompt[..12], rs[0].prompt[..12]);
            assert!(r.prompt.iter().all(|&t| t < 100));
        }
        // Another list of the same run shares the prefix too.
        assert_eq!(
            requests(&shape, 4, 100, 9, 2)[0].prompt[..12],
            rs[0].prompt[..12]
        );
        for u in [0.001, 0.5, 0.999] {
            assert!((4..=64).contains(&CHAT.gen.quantile(u)));
        }
    }

    #[test]
    fn passes_repeat_lengths_on_other_content() {
        let rs = repeated(&CHAT, 20, 3, 512, 5, 1);
        assert_eq!(rs.len(), 60);
        assert_eq!(rs[..20], requests(&CHAT, 20, 512, 5, 1)[..]);
        for i in 0..20 {
            for pass in 1..3 {
                let (a, b) = (&rs[i], &rs[pass * 20 + i]);
                assert_eq!((a.prompt.len(), a.n_tokens), (b.prompt.len(), b.n_tokens));
                assert_ne!(a.prompt, b.prompt);
            }
        }
    }

    #[test]
    fn inverse_normal_matches_known_quantiles() {
        assert!(inv_norm_cdf(0.5).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inv_norm_cdf(0.01) + 2.326348).abs() < 1e-5);
    }
}
