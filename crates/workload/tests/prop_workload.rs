//! Property-based tests of the workload generators.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfp_workload::{KeyDist, Op, OpMix, ValueSize, WorkloadSpec, Zipf};

fn spec(key_count: u64, get_fraction: f64, zipf: bool) -> WorkloadSpec {
    WorkloadSpec {
        key_count,
        key_len: 16,
        keys: if zipf {
            KeyDist::Zipf(0.99)
        } else {
            KeyDist::Uniform
        },
        values: ValueSize::Fixed(32),
        mix: OpMix { get_fraction },
    }
}

proptest! {
    /// Every generated key decodes to an id inside the key space and has
    /// the configured length.
    #[test]
    fn keys_always_in_range(
        key_count in 1u64..100_000,
        zipf in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut g = spec(key_count, 0.5, zipf).generator(seed);
        for _ in 0..200 {
            let op = g.next_op();
            let key = op.key();
            prop_assert_eq!(key.len(), 16);
            let id = u64::from_le_bytes(key[..8].try_into().expect("8 bytes"));
            prop_assert!(id < key_count, "id {id} out of {key_count}");
        }
    }

    /// Same seed ⇒ identical stream; the stream respects the mix within
    /// statistical tolerance.
    #[test]
    fn deterministic_and_mix_bounded(get_fraction in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut a = spec(1000, get_fraction, false).generator(seed);
        let mut b = spec(1000, get_fraction, false).generator(seed);
        let mut gets = 0usize;
        const N: usize = 1000;
        for _ in 0..N {
            let (x, y) = (a.next_op(), b.next_op());
            prop_assert_eq!(&x, &y);
            if matches!(x, Op::Get { .. }) {
                gets += 1;
            }
        }
        let frac = gets as f64 / N as f64;
        prop_assert!((frac - get_fraction).abs() < 0.08, "{frac} vs {get_fraction}");
    }

    /// Drawing over a reused `Op` replays `next_op`'s stream from the
    /// same seed, through both kinds of switch, runs of back-to-back
    /// switches (the generator's spare value buffer handed on) and
    /// values that grow and shrink.
    #[test]
    fn next_op_into_replays_next_op(get_fraction in 0.2f64..0.8, seed in any::<u64>()) {
        let spec = WorkloadSpec {
            values: ValueSize::Uniform { min: 1, max: 64 },
            ..spec(1000, get_fraction, false)
        };
        let (mut fresh, mut reused) = (spec.generator(seed), spec.generator(seed));
        let mut op = Op::Put { key: vec![0xEE; 40], value: vec![0xDD; 100] };
        let (mut to_get, mut to_put) = (0, 0);
        // Draws that switched kind right after a draw that switched: a
        // run Put → Get → Put (or Get → Put → Get), where the spare
        // value buffer is handed on while still dirty.
        let (mut switched, mut runs) = (false, 0);
        for _ in 0..200 {
            let was_get = matches!(op, Op::Get { .. });
            reused.next_op_into(&mut op);
            prop_assert_eq!(&op, &fresh.next_op());
            let switch = was_get != matches!(op, Op::Get { .. });
            runs += (switch && switched) as u32;
            switched = switch;
            match (was_get, switch) {
                (false, true) => to_get += 1,
                (true, true) => to_put += 1,
                _ => {}
            }
        }
        prop_assert!(to_get > 0 && to_put > 0, "{to_get} Put → Get, {to_put} Get → Put");
        prop_assert!(runs > 0, "no back-to-back switches");
    }

    /// Zipf samples are in-range for any (n, θ) in the supported domain,
    /// and the head is at least as heavy as uniform.
    #[test]
    fn zipf_domain(n in 1u64..1_000_000, theta in 0.01f64..0.999, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        prop_assert!(z.top_probability() >= 1.0 / n as f64 - 1e-12);
        // Head mass is monotone in k and reaches 1 at n.
        prop_assert!(z.head_mass(1) <= z.head_mass(n.min(10)) + 1e-12);
        prop_assert!((z.head_mass(n) - 1.0).abs() < 1e-6);
    }

    /// Value sizes stay inside the configured distribution.
    #[test]
    fn value_sizes_in_bounds(min in 1usize..512, extra in 0usize..4096, seed in any::<u64>()) {
        let values = ValueSize::Uniform { min, max: min + extra };
        for s in values.samples(100, seed) {
            prop_assert!(s >= min && s <= min + extra);
        }
        prop_assert_eq!(values.max(), min + extra);
    }
}
