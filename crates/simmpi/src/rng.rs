//! Deterministic hash-based randomness for per-message jitter.
//!
//! Jitter must not depend on host thread scheduling, so it is derived by
//! hashing `(experiment seed, src, dst, per-pair sequence number)` rather
//! than drawn from a shared stream. The first three coordinates hash to a
//! per-pair [`hash_prefix`]; one more round adds the sequence number.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The part of [`hash_msg`] that does not depend on the sequence number:
/// a caller pricing many messages between one pair hashes it once.
#[inline]
pub fn hash_prefix(seed: u64, src: u64, dst: u64) -> u64 {
    let h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    let h = splitmix64(h ^ src.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    splitmix64(h ^ dst.wrapping_mul(0x8EBC_6AF0_9C88_C6E3))
}

/// The hash of the `seq`-th message of the pair whose [`hash_prefix`] is
/// `prefix`: the last round of [`hash_msg`].
#[inline]
fn hash_seq(prefix: u64, seq: u64) -> u64 {
    splitmix64(prefix ^ seq)
}

/// Hashes a tuple of message coordinates into a uniform `u64`.
#[inline]
pub fn hash_msg(seed: u64, src: u64, dst: u64, seq: u64) -> u64 {
    hash_seq(hash_prefix(seed, src, dst), seq)
}

/// Maps a `u64` to a uniform sample in `[0, 1)`.
#[inline]
pub fn to_unit(h: u64) -> f64 {
    // 53 high bits -> double in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic multiplicative jitter factor with mean 1.
///
/// Uses a two-point mixture approximating a heavy-tailed delay: with
/// probability `p_spike` the message is slowed by `spike` (straggler VM,
/// hypervisor interference), otherwise it gets a mild uniform perturbation.
/// `sigma = 0` yields exactly 1.0. Mean is kept at ~1 so aggregate bandwidth
/// is unchanged; only variance grows with `sigma`.
///
/// The message is named by its pair's [`hash_prefix`] and its sequence
/// number: the factor of `(seed, src, dst, seq)` is
/// `jitter_factor(hash_prefix(seed, src, dst), seq, sigma)`, hashed as
/// [`hash_msg`] hashes it.
#[inline]
pub fn jitter_factor(prefix: u64, seq: u64, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let h = hash_seq(prefix, seq);
    let u = to_unit(h);
    let p_spike = 0.02;
    let spike = 1.0 + 8.0 * sigma;
    if u < p_spike {
        spike
    } else {
        // Uniform in [1 - sigma/2, 1 + sigma/2], shifted slightly down so the
        // overall mean (including spikes) stays close to 1.
        let v = to_unit(splitmix64(h));
        let base = 1.0 + sigma * (v - 0.5);
        (base - p_spike * (spike - 1.0)).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        // Consecutive seeds should differ in many bits.
        let d = (splitmix64(1) ^ splitmix64(2)).count_ones();
        assert!(d > 16, "poor mixing: {d} bits");
    }

    #[test]
    fn hash_msg_varies_with_each_coordinate() {
        let base = hash_msg(1, 2, 3, 4);
        assert_ne!(base, hash_msg(9, 2, 3, 4));
        assert_ne!(base, hash_msg(1, 9, 3, 4));
        assert_ne!(base, hash_msg(1, 2, 9, 4));
        assert_ne!(base, hash_msg(1, 2, 3, 9));
    }

    #[test]
    fn to_unit_in_range() {
        for i in 0..1000u64 {
            let u = to_unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zero_sigma_means_no_jitter() {
        for seq in 0..100 {
            assert_eq!(jitter_factor(hash_prefix(7, 0, 1), seq, 0.0), 1.0);
        }
    }

    #[test]
    fn jitter_mean_is_near_one() {
        let sigma = 0.3;
        let n = 20_000u64;
        let mean: f64 = (0..n)
            .map(|s| jitter_factor(hash_prefix(11, 3, 5), s, sigma))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn jitter_is_positive_and_bounded() {
        for s in 0..5000u64 {
            let j = jitter_factor(hash_prefix(3, 1, 2), s, 0.5);
            assert!(j > 0.0 && j < 10.0, "j = {j}");
        }
    }

    #[test]
    fn jitter_has_spikes() {
        let sigma = 0.4;
        let spikes = (0..10_000u64)
            .filter(|&s| jitter_factor(hash_prefix(5, 0, 1), s, sigma) > 2.0)
            .count();
        // ~2% spike probability.
        assert!(spikes > 100 && spikes < 400, "spikes = {spikes}");
    }
}
