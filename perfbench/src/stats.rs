//! Small numeric helpers: seed derivation, quantiles, digests.

use std::hash::{DefaultHasher, Hasher};

/// SplitMix64: derives independent 64-bit values from the run seed and
/// an operation's coordinates, so every input of a run is a pure
/// function of `--seed`.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed;
    for &p in parts {
        x = splitmix(x ^ splitmix(p.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    }
    x
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, &[i as u64]) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// A digest of a byte string, computed by the benchmark itself (std's
/// SipHash with fixed keys), so the serve check never trusts the
/// program's own hashing.
pub fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    (bytes.len(), h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn mix_and_shuffle_are_deterministic() {
        assert_eq!(mix(7, &[1, 2]), mix(7, &[1, 2]));
        assert_ne!(mix(7, &[1, 2]), mix(8, &[1, 2]));
        let order = shuffled(15, 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
        assert_eq!(order, shuffled(15, 3));
    }

    #[test]
    fn digest_sees_a_flipped_byte() {
        let mut bytes = vec![1u8, 2, 3, 4];
        let d = digest(&bytes);
        bytes[2] ^= 1;
        assert_ne!(d, digest(&bytes));
    }
}
