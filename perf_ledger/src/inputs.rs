//! Seeded inputs. The program under test receives only what is generated
//! here; the generator is local so that the inputs of a seed never change
//! when the repository's own random-number shim does.

use rjms_broker::{Message, MessageBuilder};

/// Correlation id every message carries; filters `#0` match it.
pub const CORRELATION_ID: &str = "#0";
/// Application property every message carries with value 0; the selector
/// `key = 0` matches it.
pub const KEY_PROPERTY: &str = "key";
/// Application property holding the message's sequence number.
pub const SEQ_PROPERTY: &str = "seq";
/// Distinct bodies per run; message `seq` carries body `seq % BODY_POOL`,
/// so a body delivered with the wrong message is caught, not only a
/// damaged one.
pub const BODY_POOL: usize = 64;

/// SplitMix64 (Steele, Lea & Flood): a fixed, well-mixed 64-bit stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so its logarithm is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times of a Poisson arrival process, in nanoseconds from the start
/// of the run: exponential gaps with mean `1/rate`.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: SplitMix64,
    mean_gap_ns: f64,
    due_ns: f64,
}

impl PoissonSchedule {
    pub fn new(seed: u64, rate_per_s: f64) -> Self {
        PoissonSchedule { rng: SplitMix64::new(seed), mean_gap_ns: 1e9 / rate_per_s, due_ns: 0.0 }
    }
}

impl Iterator for PoissonSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.due_ns -= self.rng.next_unit().ln() * self.mean_gap_ns;
        Some(self.due_ns as u64)
    }
}

/// `BODY_POOL` bodies of `len` bytes drawn from the seed.
pub fn bodies(seed: u64, len: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed ^ 0x00B0_D1E5);
    (0..BODY_POOL)
        .map(|_| {
            let mut body = Vec::with_capacity(len + 8);
            while body.len() < len {
                body.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            body.truncate(len);
            body
        })
        .collect()
}

/// The messages of a run: one template per body, finished per message
/// with its sequence number, the way a publishing client builds them.
#[derive(Debug, Clone)]
pub struct MessageFactory {
    templates: Vec<MessageBuilder>,
    bodies: Vec<Vec<u8>>,
}

impl MessageFactory {
    pub fn new(seed: u64, body_len: usize) -> Self {
        let bodies = bodies(seed, body_len);
        let templates = bodies
            .iter()
            .map(|b| {
                Message::builder()
                    .correlation_id(CORRELATION_ID)
                    .property(KEY_PROPERTY, 0i64)
                    .body(b.clone())
            })
            .collect();
        MessageFactory { templates, bodies }
    }

    pub fn message(&self, seq: u64) -> Message {
        self.templates[seq as usize % BODY_POOL].clone().property(SEQ_PROPERTY, seq as i64).build()
    }

    /// The body message `seq` was published with.
    pub fn body_of(&self, seq: u64) -> &[u8] {
        &self.bodies[seq as usize % BODY_POOL]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_bodies() {
        let a: Vec<u64> = PoissonSchedule::new(7, 20_000.0).take(1000).collect();
        let b: Vec<u64> = PoissonSchedule::new(7, 20_000.0).take(1000).collect();
        let c: Vec<u64> = PoissonSchedule::new(8, 20_000.0).take(1000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times never go back");
        assert_eq!(bodies(7, 64), bodies(7, 64));
        assert_ne!(bodies(7, 64), bodies(8, 64));
        assert!(bodies(7, 1024).iter().all(|b| b.len() == 1024));
    }

    #[test]
    fn schedule_has_the_asked_rate() {
        let n = 200_000;
        let last = PoissonSchedule::new(1, 200_000.0).nth(n - 1).unwrap();
        let rate = n as f64 / (last as f64 / 1e9);
        assert!((rate / 200_000.0 - 1.0).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn factory_stamps_sequence_and_pooled_body() {
        let f = MessageFactory::new(3, 64);
        let m = f.message(BODY_POOL as u64 + 5);
        assert_eq!(m.correlation_id(), Some(CORRELATION_ID));
        assert_eq!(m.property(SEQ_PROPERTY), Some(&(BODY_POOL as i64 + 5).into()));
        assert_eq!(m.property(KEY_PROPERTY), Some(&0i64.into()));
        assert_eq!(&m.body()[..], f.body_of(5));
        assert_ne!(f.body_of(5), f.body_of(6));
    }
}
