//! Small numeric helpers: medians, quantiles, the paired confidence
//! interval of a sampled speedup, FNV-1a digests and a seeded shuffle.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`: the repetition that met the least interference.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).expect("at least one repetition")
}

/// Linear-interpolated quantile `q` in [0, 1] of `xs`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
/// Between table rows the next smaller `df` is used, which widens the
/// interval slightly rather than narrowing it.
fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=39 => 2.042,
        40..=59 => 2.021,
        60..=119 => 2.000,
        _ => 1.980,
    }
}

/// 95% confidence-interval half-width, in percentage points, of the
/// mean paired per-interval speedup `base_cycles[i] / new_cycles[i] - 1`.
/// Both configurations ran the same intervals (same µops), so the cycle
/// ratio of interval `i` is that interval's speedup. Infinite with
/// fewer than two intervals.
///
/// # Panics
///
/// Panics if the slices differ in length or a cycle count is zero.
pub fn paired_speedup_ci_pp(base_cycles: &[u64], new_cycles: &[u64]) -> f64 {
    assert_eq!(base_cycles.len(), new_cycles.len(), "intervals must pair up");
    let d: Vec<f64> = base_cycles
        .iter()
        .zip(new_cycles)
        .map(|(&b, &n)| {
            assert!(b > 0 && n > 0, "an interval simulated zero cycles");
            (b as f64 / n as f64 - 1.0) * 100.0
        })
        .collect();
    let n = d.len();
    if n < 2 {
        return f64::INFINITY;
    }
    let mean = d.iter().sum::<f64>() / n as f64;
    let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    t95(n - 1) * (var / n as f64).sqrt()
}

/// Incremental 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Deterministic xorshift64* stream; the benchmark's seed drives only
/// the order in which points run, never what they simulate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_ci_matches_a_hand_computed_interval_set() {
        // Speedups 10, 20, 5, 0 pp: mean 8.75, sample variance
        // 218.75 / 3, standard error sqrt(72.916_67 / 4) = 4.269_563,
        // times t(0.975, 3) = 3.182 gives 13.585_75 pp.
        let ci = paired_speedup_ci_pp(&[110, 120, 105, 100], &[100, 100, 100, 100]);
        assert!((ci - 13.585_75).abs() < 1e-4, "got {ci}");
    }

    #[test]
    fn paired_ci_is_zero_for_a_constant_speedup_and_infinite_for_one_interval() {
        assert_eq!(paired_speedup_ci_pp(&[200, 300], &[100, 150]), 0.0);
        assert!(paired_speedup_ci_pp(&[200], &[100]).is_infinite());
    }

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 4.8);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }
}
