//! The one integer mixer every seeded stream in the workspace is keyed
//! with: campaign run seeds, per-attempt fault streams and the
//! federation's retry jitter must stay bit-identical across releases,
//! so the constants live in exactly one place.

/// The splitmix64 increment (2⁶⁴ / φ): add it between words so that
/// consecutive keys land far apart before [`mix64`] scrambles them.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijection on `u64` whose every output
/// bit depends on every input bit. `mix64(seed.wrapping_add(GOLDEN))`
/// is the first output of a splitmix64 generator seeded with `seed`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161D_100B_05E5);
        // The reference splitmix64 generator's first output for seed 0.
        assert_eq!(mix64(GOLDEN), 0xE220_A839_7B1D_CDAF);
        // A federation back-off key (seed 7, CAN id 0x123, segment
        // 1 → 2, third attempt), as the retry queue has keyed its
        // jitter since it was introduced.
        let key = 7 ^ (0x123 << 24) ^ (1 << 16) ^ (2 << 8) ^ 3;
        assert_eq!(mix64(key + GOLDEN), 0xD847_BC1A_580D_0BEB);
    }
}
