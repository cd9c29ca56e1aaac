//! The harness's own seeded PRNG (SplitMix64), so that `--seed` alone
//! decides query sequences, run order and job order.

/// SplitMix64: one 64-bit state word, full period, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so that adding a
    /// consumer of randomness does not shift the others' draws.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// the small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A random sequence over {A, C, G, T}.
    pub fn dna(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[self.below(4)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_shuffle_permutes() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        assert_eq!(a.dna(64), b.dna(64));
        let mut v: Vec<usize> = (0..100).collect();
        a.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        assert_ne!(
            Rng::new(1).fork(1).next_u64(),
            Rng::new(1).fork(2).next_u64()
        );
    }
}
