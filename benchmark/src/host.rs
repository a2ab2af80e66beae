//! Host-side instruments: a counting global allocator, the reference
//! kernel wall-clock is normalised by, and the peak-RSS reader.
//!
//! Raw wall-clock on a small shared box moves by tens of percent
//! between two runs of identical code. The reference kernel is a
//! fixed, std-only piece of work shaped like the simulator's hot loop
//! (heap push/pop, small live `Vec`s, a boxed closure call); timing it
//! right before and after each measured window and reporting the
//! *ratio* cancels most of what the neighbours are doing to the CPU.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every allocation made through the global allocator.
///
/// Install with `#[global_allocator]` in the binary. The counters only
/// ever grow; callers bracket an interval with [`AllocSnapshot::now`]
/// and subtract, so work outside the bracket (set-up, the reference
/// kernel) contributes nothing.
pub struct CountingAlloc;

// Relaxed: the counters are statistics and publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is two relaxed atomic adds, which cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The allocator counters at one instant.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Reads the counters.
    pub fn now() -> Self {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocSnapshot {
    fn add_assign(&mut self, rhs: Self) {
        self.allocs += rhs.allocs;
        self.bytes += rhs.bytes;
    }
}

/// Iterations of one reference-kernel run (~10 ms).
pub const REF_ITERS: u64 = 200_000;
const REF_HEAP_DEPTH: usize = 512;
const REF_LIVE_BUFFERS: usize = 256;

/// Runs the reference kernel once and returns nanoseconds per
/// iteration. Each iteration: one xorshift step, one `BinaryHeap`
/// push + pop at depth 512, one 32–511 B `Vec` that replaces the oldest
/// of 256 live ones, one boxed-closure call.
///
/// The buffers stay live in a ring so that the timing averages over
/// many heap addresses. With a buffer freed at once, the allocator
/// hands the same few chunks back every iteration, and the kernel's
/// speed then depends on where those chunks happen to lie relative to
/// the heap array — it ran 20 % slower for minutes at a time while the
/// simulator beside it did not.
pub fn ref_iter_ns() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut heap: BinaryHeap<u64> = (0..REF_HEAP_DEPTH as u64)
        .map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .collect();
    let mut live: Vec<Vec<u8>> = vec![Vec::new(); REF_LIVE_BUFFERS];
    let step: Box<dyn Fn(u64) -> u64> = Box::new(|v| v.rotate_left(7) ^ 0x5555);
    let mut acc = 0u64;
    let t0 = Instant::now();
    for i in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x);
        acc ^= heap.pop().expect("heap holds REF_HEAP_DEPTH entries");
        let buf = vec![x as u8; 32 + (x % 480) as usize];
        acc = acc.wrapping_add(black_box(&buf)[buf.len() / 2] as u64);
        live[i as usize % REF_LIVE_BUFFERS] = buf;
        acc ^= black_box(&step)(x);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box((acc, live));
    ns / REF_ITERS as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a measurement"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range of `values` as a percentage of their median
/// (quartiles by linear interpolation between order statistics).
pub fn iqr_pct(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a measurement"));
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    100.0 * (q(0.75) - q(0.25)) / median(&v)
}

/// Serialises the tests that read the allocation counters. Tests run
/// on parallel threads and the counters are process-wide, so such a
/// test also retries until it sees one pass no other thread disturbed.
#[cfg(test)]
pub fn counting_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A poisoned lock only means another counting test failed.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_fixed_pattern_exactly_and_excludes_what_is_outside() {
        let _serial = counting_test_lock();
        let pattern = || {
            let before = AllocSnapshot::now();
            let a = black_box(Vec::<u8>::with_capacity(100)); // 1 alloc, 100 B
            let b = black_box(Box::new([0u64; 4])); // 1 alloc, 32 B
            let mut c = black_box(Vec::<u8>::with_capacity(10)); // 1 alloc, 10 B
            c.reserve_exact(1000); // 1 realloc, 1000 B
            let d = black_box(vec![0u8; 50]); // 1 alloc_zeroed, 50 B
            let counted = AllocSnapshot::now().since(before);
            drop((a, b, c, d));
            counted
        };
        let want = AllocSnapshot {
            allocs: 5,
            bytes: 100 + 32 + 10 + 1000 + 50,
        };
        assert!(
            (0..100).any(|_| pattern() == want),
            "pattern never counted as {want:?}; last {:?}",
            pattern()
        );

        // Excluded interval: allocate between two brackets; the sum of
        // the brackets sees none of it.
        let quiet = || {
            let mut total = AllocSnapshot::default();
            let s0 = AllocSnapshot::now();
            let keep = black_box(vec![1u8; 8]);
            total += AllocSnapshot::now().since(s0);
            let excluded = black_box(vec![2u8; 4096]); // outside any bracket
            ref_iter_ns(); // the kernel allocates 200 k times
            let s1 = AllocSnapshot::now();
            let keep2 = black_box(vec![3u8; 16]);
            total += AllocSnapshot::now().since(s1);
            drop((keep, excluded, keep2));
            total
        };
        let want = AllocSnapshot {
            allocs: 2,
            bytes: 24,
        };
        assert!((0..100).any(|_| quiet() == want));
    }

    #[test]
    fn reference_kernel_does_real_work() {
        // black_box is a hint: confirm the work is really done, i.e.
        // a run takes a plausible, non-zero time per iteration.
        let ns = ref_iter_ns();
        assert!(ns > 5.0 && ns < 10_000.0, "{ns} ns per iteration");
    }

    #[test]
    fn vm_hwm_parses() {
        let s = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(s), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn median_and_iqr() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // 1..=5: q1 = 2, q3 = 4, median 3.
        assert!((iqr_pct(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 200.0 / 3.0).abs() < 1e-9);
    }
}
