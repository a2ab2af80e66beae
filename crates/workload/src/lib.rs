//! YCSB-style workload generation for the key-value experiments.
//!
//! The paper evaluates on workloads "uniformly generated with YCSB"
//! (128 M key-value pairs, 16-byte keys, 32-byte values by default) plus
//! a skewed variant drawn from a Zipf distribution with parameter 0.99
//! (§4.2). This crate reproduces those generators deterministically:
//!
//! * [`KeyDist`] — uniform or Zipf(θ) key selection ([`zipf::Zipf`]
//!   implements the Gray et al. incremental method YCSB uses),
//! * [`ValueSize`] — fixed or uniformly distributed value sizes,
//! * [`OpMix`] — GET percentage,
//! * [`Generator`] — a seeded stream of [`Op`]s.

pub mod linear;
mod zipf;

pub use linear::{check_history, HistEntry, LinError, RegOp};
pub use zipf::Zipf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Key selection distribution.
#[derive(Clone, Debug)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the given exponent (the paper uses 0.99).
    Zipf(f64),
    /// YCSB's hotspot distribution: `hot_op_fraction` of operations hit
    /// a uniformly chosen key from the hottest `hot_fraction` of the
    /// key space; the rest are uniform over the remainder.
    HotSpot {
        /// Fraction of the key space that is hot, in `(0, 1)`.
        hot_fraction: f64,
        /// Fraction of operations that target the hot set, in `[0, 1]`.
        hot_op_fraction: f64,
    },
}

/// Value size distribution.
#[derive(Copy, Clone, Debug)]
pub enum ValueSize {
    /// All values have this size (the paper's default is 32 B).
    Fixed(usize),
    /// Uniformly distributed in `[min, max]` (the §4.4.3 mixed run uses
    /// 32..8192).
    Uniform {
        /// Smallest value size.
        min: usize,
        /// Largest value size.
        max: usize,
    },
}

impl ValueSize {
    /// Largest size this distribution can produce.
    pub fn max(self) -> usize {
        match self {
            ValueSize::Fixed(n) => n,
            ValueSize::Uniform { max, .. } => max,
        }
    }

    /// Samples of this distribution (for parameter pre-runs).
    pub fn samples(self, count: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| match self {
                ValueSize::Fixed(n) => n,
                ValueSize::Uniform { min, max } => rng.gen_range(min..=max),
            })
            .collect()
    }
}

/// GET/PUT mix.
#[derive(Copy, Clone, Debug)]
pub struct OpMix {
    /// Fraction of operations that are GETs, in `[0, 1]`.
    pub get_fraction: f64,
}

impl OpMix {
    /// The paper's read-intensive mix (95% GET).
    pub const READ_INTENSIVE: OpMix = OpMix { get_fraction: 0.95 };
    /// The balanced mix (50% GET).
    pub const BALANCED: OpMix = OpMix { get_fraction: 0.50 };
    /// The write-intensive mix (5% GET).
    pub const WRITE_INTENSIVE: OpMix = OpMix { get_fraction: 0.05 };
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read the value of `key`.
    Get {
        /// The key, exactly `key_len` bytes.
        key: Vec<u8>,
    },
    /// Store `value` under `key`.
    Put {
        /// The key, exactly `key_len` bytes.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
}

impl Op {
    /// The operation's key bytes.
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Get { key } | Op::Put { key, .. } => key,
        }
    }
}

/// Workload description (one per experiment).
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of distinct keys (the paper pre-generates 128 M).
    pub key_count: u64,
    /// Key length in bytes (the paper uses 16).
    pub key_len: usize,
    /// Key distribution.
    pub keys: KeyDist,
    /// Value sizes.
    pub values: ValueSize,
    /// GET/PUT mix.
    pub mix: OpMix,
}

impl WorkloadSpec {
    /// The paper's default: uniform keys, 16 B keys, 32 B values,
    /// 95% GET.
    pub fn paper_default() -> Self {
        WorkloadSpec {
            key_count: 128 * 1024 * 1024,
            key_len: 16,
            keys: KeyDist::Uniform,
            values: ValueSize::Fixed(32),
            mix: OpMix::READ_INTENSIVE,
        }
    }

    /// The skewed variant: Zipf(0.99) keys.
    pub fn paper_skewed() -> Self {
        WorkloadSpec {
            keys: KeyDist::Zipf(0.99),
            ..Self::paper_default()
        }
    }

    /// Builds a deterministic generator for this spec.
    pub fn generator(&self, seed: u64) -> Generator {
        Generator::new(self.clone(), seed)
    }
}

/// Deterministic operation stream.
///
/// # Examples
///
/// ```
/// use rfp_workload::WorkloadSpec;
///
/// let spec = WorkloadSpec {
///     key_count: 100,
///     ..WorkloadSpec::paper_default()
/// };
/// let mut gen = spec.generator(42);
/// let op = gen.next_op();
/// assert_eq!(op.key().len(), 16); // the paper's 16-byte keys
/// ```
pub struct Generator {
    spec: WorkloadSpec,
    rng: StdRng,
    zipf: Option<Zipf>,
}

impl Generator {
    /// Creates a generator; same `(spec, seed)` ⇒ same stream.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        assert!(spec.key_count > 0, "need at least one key");
        assert!(spec.key_len >= 8, "keys must hold a 64-bit id");
        assert!(
            (0.0..=1.0).contains(&spec.mix.get_fraction),
            "get fraction out of range"
        );
        let zipf = match spec.keys {
            KeyDist::Uniform | KeyDist::HotSpot { .. } => None,
            KeyDist::Zipf(theta) => Some(Zipf::new(spec.key_count, theta)),
        };
        if let KeyDist::HotSpot {
            hot_fraction,
            hot_op_fraction,
        } = spec.keys
        {
            assert!(
                hot_fraction > 0.0 && hot_fraction < 1.0,
                "hot fraction must be in (0, 1)"
            );
            assert!(
                (0.0..=1.0).contains(&hot_op_fraction),
                "hot op fraction out of range"
            );
        }
        Generator {
            spec,
            rng: StdRng::seed_from_u64(seed),
            zipf,
        }
    }

    /// The spec this stream follows.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn key_id(&mut self) -> u64 {
        if let KeyDist::HotSpot {
            hot_fraction,
            hot_op_fraction,
        } = self.spec.keys
        {
            let hot_keys = ((self.spec.key_count as f64 * hot_fraction) as u64).max(1);
            return if self.rng.gen::<f64>() < hot_op_fraction {
                self.rng.gen_range(0..hot_keys)
            } else {
                self.rng
                    .gen_range(hot_keys..self.spec.key_count.max(hot_keys + 1))
            };
        }
        match &self.zipf {
            None => self.rng.gen_range(0..self.spec.key_count),
            Some(z) => z.sample(&mut self.rng),
        }
    }

    /// Materialises key id `id` as `key_len` bytes (id little-endian,
    /// then a deterministic fill — matching how YCSB pads "userNNN"
    /// keys to a fixed width).
    fn key_bytes(&self, id: u64) -> Vec<u8> {
        let mut key = vec![0u8; self.spec.key_len];
        key[..8].copy_from_slice(&id.to_le_bytes());
        for (i, b) in key.iter_mut().enumerate().skip(8) {
            *b = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
        key
    }

    fn value(&mut self) -> Vec<u8> {
        let n = match self.spec.values {
            ValueSize::Fixed(n) => n,
            ValueSize::Uniform { min, max } => self.rng.gen_range(min..=max),
        };
        // Cheap deterministic content; the KV systems verify echo
        // integrity with it.
        let tag = self.rng.gen::<u8>();
        (0..n).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let id = self.key_id();
        let key = self.key_bytes(id);
        if self.rng.gen::<f64>() < self.spec.mix.get_fraction {
            Op::Get { key }
        } else {
            Op::Put {
                key,
                value: self.value(),
            }
        }
    }

    /// Key/value pairs for pre-loading the store (ids `0..count`).
    pub fn preload(&mut self, count: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..count)
            .map(|id| (self.key_bytes(id), self.value()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let spec = WorkloadSpec {
            key_count: 1000,
            ..WorkloadSpec::paper_default()
        };
        let mut a = spec.generator(42);
        let mut b = spec.generator(42);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = spec.generator(43);
        let differs = (0..100).any(|_| a.next_op() != c.next_op());
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn mix_fraction_is_respected() {
        let spec = WorkloadSpec {
            key_count: 1000,
            mix: OpMix::READ_INTENSIVE,
            ..WorkloadSpec::paper_default()
        };
        let mut g = spec.generator(7);
        let gets = (0..10_000)
            .filter(|_| matches!(g.next_op(), Op::Get { .. }))
            .count();
        let frac = gets as f64 / 10_000.0;
        assert!((0.93..0.97).contains(&frac), "{frac}");
    }

    #[test]
    fn keys_have_requested_length_and_unique_ids() {
        let spec = WorkloadSpec {
            key_count: 50,
            key_len: 16,
            ..WorkloadSpec::paper_default()
        };
        let g = spec.generator(0);
        let mut seen = std::collections::HashSet::new();
        for id in 0..50 {
            let k = g.key_bytes(id);
            assert_eq!(k.len(), 16);
            assert!(seen.insert(k));
        }
    }

    #[test]
    fn uniform_value_sizes_stay_in_range() {
        let spec = WorkloadSpec {
            key_count: 10,
            mix: OpMix { get_fraction: 0.0 },
            values: ValueSize::Uniform { min: 32, max: 8192 },
            ..WorkloadSpec::paper_default()
        };
        let mut g = spec.generator(1);
        let mut min_seen = usize::MAX;
        let mut max_seen = 0;
        for _ in 0..2000 {
            if let Op::Put { value, .. } = g.next_op() {
                min_seen = min_seen.min(value.len());
                max_seen = max_seen.max(value.len());
            }
        }
        assert!(min_seen >= 32);
        assert!(max_seen <= 8192);
        assert!(max_seen - min_seen > 4000, "spread looks wrong");
    }

    #[test]
    fn skewed_spec_concentrates_mass() {
        let spec = WorkloadSpec {
            key_count: 100_000,
            ..WorkloadSpec::paper_skewed()
        };
        let mut g = spec.generator(3);
        let mut top = 0u64;
        const N: u64 = 20_000;
        for _ in 0..N {
            let op = g.next_op();
            let id = u64::from_le_bytes(op.key()[..8].try_into().unwrap());
            if id < 100 {
                top += 1;
            }
        }
        // Zipf(.99): the top 100 of 100k keys draw a large share.
        let share = top as f64 / N as f64;
        assert!(share > 0.3, "top-100 share {share}");
    }

    #[test]
    fn preload_covers_requested_ids() {
        let spec = WorkloadSpec {
            key_count: 100,
            ..WorkloadSpec::paper_default()
        };
        let mut g = spec.generator(0);
        let pairs = g.preload(100);
        assert_eq!(pairs.len(), 100);
        assert!(pairs.iter().all(|(k, v)| k.len() == 16 && v.len() == 32));
    }

    #[test]
    fn hotspot_concentrates_configured_mass() {
        let spec = WorkloadSpec {
            key_count: 10_000,
            keys: KeyDist::HotSpot {
                hot_fraction: 0.1,
                hot_op_fraction: 0.8,
            },
            ..WorkloadSpec::paper_default()
        };
        let mut g = spec.generator(9);
        let mut hot = 0u32;
        const N: u32 = 20_000;
        for _ in 0..N {
            let op = g.next_op();
            let id = u64::from_le_bytes(op.key()[..8].try_into().expect("8 bytes"));
            assert!(id < 10_000);
            if id < 1_000 {
                hot += 1;
            }
        }
        let frac = hot as f64 / N as f64;
        assert!((0.77..0.83).contains(&frac), "hot share {frac}");
    }

    #[test]
    #[should_panic(expected = "hot fraction must be in")]
    fn hotspot_rejects_degenerate_fraction() {
        let spec = WorkloadSpec {
            key_count: 100,
            keys: KeyDist::HotSpot {
                hot_fraction: 1.5,
                hot_op_fraction: 0.5,
            },
            ..WorkloadSpec::paper_default()
        };
        let _ = spec.generator(0);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_rejected() {
        let spec = WorkloadSpec {
            key_count: 0,
            ..WorkloadSpec::paper_default()
        };
        let _ = spec.generator(0);
    }
}
