//! Test-run configuration, failure reporting, and the deterministic
//! generator handed to strategies.

use std::fmt;

/// Per-`proptest!` block configuration.
///
/// Only `cases` influences the shim; the other fields exist so struct
/// literals written against real proptest (`ProptestConfig { cases: 24,
/// ..ProptestConfig::default() }`) keep compiling.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated inputs per test.
    pub cases: u32,
    /// Accepted for compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
    /// Accepted for compatibility; the shim rejects inline in `prop_filter`.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, or `PROPTEST_CASES` from the environment, as in real
    /// proptest; [`ProptestConfig::with_cases`] overrides both.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok());
        ProptestConfig {
            cases: cases.unwrap_or(256),
            max_shrink_iters: 0,
            max_global_rejects: 65_536,
        }
    }
}

impl ProptestConfig {
    /// A default config with the given number of cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..ProptestConfig::default() }
    }
}

/// Why a single generated case failed.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    /// Human-readable failure description.
    pub message: String,
}

impl TestCaseError {
    /// An assertion failure.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }

    /// A rejected input (same handling as failure in the shim).
    pub fn reject(message: impl Into<String>) -> Self {
        Self::fail(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator strategies draw from: xoshiro256++, seeded per case so
/// every failure is reproducible from the reported seed.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Builds the generator from a 64-bit seed via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[0, 1]` (both endpoints reachable).
    pub fn f64_unit_inclusive(&mut self) -> f64 {
        self.next_u64() as f64 / u64::MAX as f64
    }

    /// Uniform draw from `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is an empty range");
        // Modulo bias is < 2^-64 * bound; negligible for test generation.
        self.next_u64() % bound
    }
}
