//! Adversarial stress test for the shared-memory collective backend: hammer
//! the sense-reversing barrier and chunked all-reduce from concurrently
//! running ranks whose relative timing is deliberately skewed every round
//! (spin delays + forced reschedules from a per-rank LCG), across buffer
//! lengths that exercise every chunking edge case (len < world, len not
//! divisible by world, len == 0). Any missed barrier crossing, stale sense
//! bit, or torn chunk shows up as a wrong sum or a hang.

use dsi_sim::shmem::ShmComm;
use std::thread;

const WORLD: usize = 4;
const ROUNDS: usize = 300;
const MAX_LEN: usize = 67;

/// Deterministic per-rank noise source (no external RNG in dev-deps here,
/// and determinism keeps failures reproducible).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Round-dependent buffer length: sweeps 0..MAX_LEN including values below,
/// equal to, and coprime with WORLD.
fn round_len(round: usize) -> usize {
    (round * 13 + 7) % MAX_LEN
}

fn contribution(rank: usize, round: usize, i: usize) -> f32 {
    // Small integers: the all-reduce sum is exact in f32, so equality is
    // checked with ==, not a tolerance.
    ((rank * 31 + round * 7 + i * 3) % 64) as f32
}

#[test]
fn allreduce_survives_adversarial_interleavings() {
    let ranks = ShmComm::create(WORLD);
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|mut comm| {
            thread::spawn(move || {
                let rank = comm.rank();
                let mut noise = 0x9e3779b97f4a7c15u64 ^ (rank as u64);
                let mut buf = vec![0.0f32; MAX_LEN];
                for round in 0..ROUNDS {
                    let len = round_len(round);
                    for (i, v) in buf[..len].iter_mut().enumerate() {
                        *v = contribution(rank, round, i);
                    }
                    // Adversarial skew: each rank enters the collective at a
                    // different, round-varying offset, so every round samples
                    // a different interleaving of publish/reduce/gather.
                    match lcg(&mut noise) % 4 {
                        0 => {}
                        1 => thread::yield_now(),
                        2 => {
                            for _ in 0..(lcg(&mut noise) % 2000) {
                                std::hint::spin_loop();
                            }
                        }
                        _ => {
                            thread::yield_now();
                            thread::yield_now();
                        }
                    }
                    comm.try_allreduce_sum(&mut buf[..len]).expect("stress all-reduce");
                    for (i, &v) in buf[..len].iter().enumerate() {
                        let want: f32 =
                            (0..WORLD).map(|r| contribution(r, round, i)).sum();
                        assert_eq!(
                            v, want,
                            "rank {rank} round {round} len {len} index {i}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress rank panicked");
    }
}

/// The barrier alone, raced hard: ranks count rounds in relaxed shared
/// counters and every crossing must observe all increments from the round
/// before (the barrier's release/acquire chain is the only synchronization).
#[test]
fn barrier_publishes_prior_round_writes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const ROUNDS: usize = 2000;
    let counters: Arc<Vec<AtomicUsize>> =
        Arc::new((0..WORLD).map(|_| AtomicUsize::new(0)).collect());
    let ranks = ShmComm::create(WORLD);
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|mut comm| {
            let counters = Arc::clone(&counters);
            thread::spawn(move || {
                let rank = comm.rank();
                let mut noise = 0xdeadbeefu64 ^ (rank as u64);
                for round in 0..ROUNDS {
                    counters[rank].store(round + 1, Ordering::Relaxed);
                    if lcg(&mut noise).is_multiple_of(3) {
                        thread::yield_now();
                    }
                    comm.try_barrier().expect("stress barrier");
                    for (r, c) in counters.iter().enumerate() {
                        let seen = c.load(Ordering::Relaxed);
                        assert!(
                            seen > round,
                            "rank {rank} crossed round-{round} barrier but sees rank {r} at {seen}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("barrier rank panicked");
    }
}
