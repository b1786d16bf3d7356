//! A fixed reference kernel that measures how fast the host runs right
//! now, so CPU-bound times can be corrected for the host's drift.
//!
//! The benchmark runs on a few virtual CPUs of a shared host. What the
//! host's other tenants do changes how fast the same code runs — a
//! coverage report of identical work takes anywhere from 36 to 56 ms
//! within minutes — while the benchmark sees only its own wall clock. The
//! probe is code of the benchmark's own, which no change to the program
//! touches, built to slow down and speed up with the host the way the
//! fault simulator does:
//!
//! * a bit-sliced write/read sweep over lane planes — the shape of the
//!   packed kernel: masks, loads and stores on ~100 KiB per core;
//! * a dependent walk through an 8 MiB table — the memory latency the
//!   simulator's universe and arena accesses wait on, which does not
//!   scale with the core's clock.
//!
//! It runs on both threads the measured work runs on, right before each
//! unit of that work. A corrected time is `measured × NOMINAL_MS / probe`:
//! what the work would have taken with the host at its nominal speed.
//! Over runs of one build, corrected coverage times spread a quarter to a
//! third as much as the measured ones.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;
use std::time::Instant;

/// Threads the probe runs on: the workloads' two.
pub const THREADS: usize = 2;

/// The probe's median time, in milliseconds, on the 2-vCPU virtual
/// machine the benchmark was tuned on.
pub const NOMINAL_MS: f64 = 3.0;

/// Lane-plane words per bit slot: initial, current, stuck-at-0,
/// stuck-at-1, blocked rising, blocked falling.
const PLANES: usize = 6;
/// Word slots and bits per word of the sweep's arena.
const SLOTS: usize = 64;
const BITS: usize = 32;
/// March elements per pass, and passes per probe.
const ELEMENTS: u64 = 10;
const PASSES: u64 = 40;

/// Entries of the walk table (4 bytes each) and steps per probe.
const WALK_ENTRIES: usize = 1 << 21;
const WALK_STEPS: usize = 10_000;

/// The walk table: entry `i` holds the next index, a full-period linear
/// congruential step from `i`, so the walk visits every entry in an
/// order no prefetcher follows. Static, so it is not counted as heap.
static WALK: [AtomicU32; WALK_ENTRIES] = [const { AtomicU32::new(0) }; WALK_ENTRIES];
static WALK_FILLED: Once = Once::new();

fn walk_table() -> &'static [AtomicU32] {
    WALK_FILLED.call_once(|| {
        for (index, entry) in WALK.iter().enumerate() {
            // Full period modulo 2^21: odd increment, multiplier ≡ 1 (mod 4).
            let next = (index as u64)
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            entry.store((next as usize % WALK_ENTRIES) as u32, Ordering::Relaxed);
        }
    });
    &WALK
}

/// The lane-plane sweep; returns its duration in milliseconds.
fn sweep() -> f64 {
    let mut planes = [[0u64; PLANES]; SLOTS * BITS];
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for slot in planes.iter_mut() {
        for (plane, word) in slot.iter_mut().enumerate() {
            state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(1);
            // Dense content, sparse fault masks — as in an armed batch.
            *word = if plane >= 2 {
                state & 0x0101_0101_0101_0101
            } else {
                state
            };
        }
    }
    let start = Instant::now();
    let mut detected = 0u64;
    for pass in 0..PASSES {
        for element in 0..ELEMENTS {
            let pattern = if (element + pass) & 1 == 0 { 0 } else { !0u64 };
            let read = element % 3 == 0;
            for slot in 0..SLOTS {
                let mut mismatch = 0u64;
                for bit in 0..BITS {
                    let cell = &mut planes[slot * BITS + bit];
                    let pat = if (pattern >> bit) & 1 == 1 { !0 } else { 0 };
                    let intended = cell[0] ^ pat;
                    if read {
                        mismatch |= cell[1] ^ intended;
                    } else {
                        let old = cell[1];
                        let blocked = (!old & intended & cell[4]) | (old & !intended & cell[5]);
                        let unblocked = (intended & !blocked) | (old & blocked);
                        cell[1] = (unblocked | cell[3]) & !cell[2];
                    }
                }
                detected |= black_box(mismatch);
            }
        }
    }
    black_box(detected);
    start.elapsed().as_secs_f64() * 1e3
}

/// The table walk from entry `from`; returns its duration in
/// milliseconds.
fn walk(from: usize) -> f64 {
    let table = walk_table();
    let start = Instant::now();
    let mut at = from;
    for _ in 0..WALK_STEPS {
        at = table[at].load(Ordering::Relaxed) as usize;
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

/// One thread's probe: the sweep, then the walk from a start of its own.
fn run_once(thread: usize) -> f64 {
    sweep() + walk(thread * WALK_ENTRIES / THREADS)
}

/// Runs the probe on [`THREADS`] threads at once and returns their mean
/// duration in milliseconds.
pub fn measure() -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let others: Vec<_> = (1..THREADS)
            .map(|thread| scope.spawn(move || run_once(thread)))
            .collect();
        let own = run_once(0);
        own + others
            .into_iter()
            .map(|handle| handle.join().expect("probe thread panicked"))
            .sum::<f64>()
    });
    total / THREADS as f64
}

/// `measured` scaled to the nominal host speed, given the probe time
/// taken just before it.
pub fn corrected(measured: f64, probe_ms: f64) -> f64 {
    measured * NOMINAL_MS / probe_ms
}
