//! Order statistics, the percentile rule, the SLO, and the token digest.

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile rule: a percentile above the median is reported only when
/// at least ten samples lie beyond it; otherwise it is refused.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= 10).then(|| sorted[rank - 1])
}

/// Quantile `p` of `f` over a window's rounds; `f` of the whole window when
/// it was too short to hold four rounds (`--smoke`). A neighbour on the
/// shared host only ever slows a round down, so callers ask for the fast
/// quartile: 0.75 of a rate, 0.25 of a time.
pub fn over_rounds<R>(rounds: &[R], whole: &R, p: f64, f: fn(&R) -> f64) -> f64 {
    if rounds.len() < 4 {
        return f(whole);
    }
    percentile(&sorted(rounds.iter().map(f).collect()), p)
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    xs
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so `--repeat` prints the spread the
/// way the driver computes it.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        // Python: j = i * (n + 1) // 4, clamped to 1..n-1; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Latency limit of one request: a first-token budget plus a budget per
/// output token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    pub first_ms: f64,
    pub per_token_ms: f64,
}

impl Slo {
    pub fn limit_ms(&self, n_tokens: usize) -> f64 {
        self.first_ms + self.per_token_ms * n_tokens as f64
    }

    /// A request that failed or was refused has no latency and misses.
    pub fn met(&self, latency_ms: Option<f64>, n_tokens: usize) -> bool {
        latency_ms.is_some_and(|l| l <= self.limit_ms(n_tokens))
    }
}

/// FNV-1a over token streams: parent and change print the same digest when
/// they emit the same tokens.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn push_tokens(&mut self, index: usize, tokens: &[usize]) {
        self.push(index as u64);
        self.push(tokens.len() as u64);
        for &t in tokens {
            self.push(t as u64);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn percentile_rule_refuses_fewer_than_ten_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.9), Some(90.0));
        assert_eq!(supported_percentile(&s, 0.99), None);
        assert_eq!(supported_percentile(&s[..99], 0.9), None); // 9 beyond
        assert_eq!(supported_percentile(&s[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&s[..19], 0.5), None);
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0]), 2.0);
    }

    #[test]
    fn slo_classifies_by_length_and_counts_failures_as_misses() {
        let slo = Slo {
            first_ms: 1000.0,
            per_token_ms: 15.0,
        };
        assert_eq!(slo.limit_ms(40), 1600.0);
        assert!(slo.met(Some(1600.0), 40));
        assert!(!slo.met(Some(1600.1), 40));
        assert!(slo.met(Some(1100.0), 8));
        assert!(!slo.met(None, 128));
    }

    #[test]
    fn digest_depends_on_tokens_and_order() {
        let d = |reqs: &[(usize, &[usize])]| {
            let mut d = Digest::default();
            for (i, t) in reqs {
                d.push_tokens(*i, t);
            }
            d.hex()
        };
        assert_eq!(d(&[(0, &[1, 2]), (1, &[3])]), d(&[(0, &[1, 2]), (1, &[3])]));
        assert_ne!(d(&[(0, &[1, 2]), (1, &[3])]), d(&[(0, &[1]), (1, &[2, 3])]));
        assert_ne!(d(&[(0, &[1, 2])]), d(&[(0, &[2, 1])]));
    }
}
