//! Adversarial stress test for the shared-memory rendezvous: race the
//! sense-reversing barrier from concurrently running parties whose relative
//! timing is deliberately skewed every round (spin delays + forced
//! reschedules from a per-party LCG), and ring the doorbell at parked
//! waiters. Any missed barrier crossing, stale sense bit or lost wake-up
//! shows up as a stale counter or a hang.

use dsi_sim::shmem::{Doorbell, SenseBarrier};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const WORLD: usize = 4;

/// Deterministic per-party noise source (no external RNG in dev-deps here,
/// and determinism keeps failures reproducible).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// The barrier alone, raced hard: parties count rounds in relaxed shared
/// counters and every crossing must observe all increments from the round
/// before (the barrier's release/acquire chain is the only synchronization).
#[test]
fn barrier_publishes_prior_round_writes() {
    const ROUNDS: usize = 2000;
    let counters: Arc<Vec<AtomicUsize>> = Arc::new((0..WORLD).map(|_| AtomicUsize::new(0)).collect());
    let barrier = Arc::new(SenseBarrier::new(WORLD));
    let handles: Vec<_> = (0..WORLD)
        .map(|party| {
            let (counters, barrier) = (Arc::clone(&counters), Arc::clone(&barrier));
            thread::spawn(move || {
                let mut noise = 0xdeadbeefu64 ^ (party as u64);
                let mut sense = false;
                for round in 0..ROUNDS {
                    counters[party].store(round + 1, Ordering::Relaxed);
                    match lcg(&mut noise) % 3 {
                        0 => thread::yield_now(),
                        1 => (0..lcg(&mut noise) % 2000).for_each(|_| std::hint::spin_loop()),
                        _ => {}
                    }
                    barrier.try_wait(party, round as u64, &mut sense, Duration::from_secs(10)).expect("stress barrier");
                    for (r, c) in counters.iter().enumerate() {
                        let seen = c.load(Ordering::Relaxed);
                        assert!(seen > round, "party {party} crossed round-{round} barrier but sees party {r} at {seen}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("barrier party panicked");
    }
    assert!((0..WORLD).all(|p| barrier.arrivals(p) == ROUNDS as u64));
}

/// Parked waiters wake for every publication, however the publisher's
/// rings interleave with their parking: each waiter sees every count in
/// order, and the run ends well inside the parked poll's bound per round.
#[test]
fn doorbell_wakes_every_waiter_for_every_publication() {
    const ROUNDS: usize = 300;
    let bell = Arc::new(Doorbell::default());
    let seen: Arc<Vec<AtomicUsize>> = Arc::new((1..WORLD).map(|_| AtomicUsize::new(0)).collect());
    let waiters: Vec<_> = (1..WORLD)
        .map(|w| {
            let (bell, seen) = (Arc::clone(&bell), Arc::clone(&seen));
            thread::spawn(move || {
                let mut noise = 0x9e3779b97f4a7c15u64 ^ (w as u64);
                for round in 0..ROUNDS {
                    bell.wait(round, || false);
                    assert!(bell.published() > round, "waiter {w} woke early at round {round}");
                    seen[w - 1].store(round + 1, Ordering::Release);
                    if lcg(&mut noise).is_multiple_of(2) {
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for round in 1..=ROUNDS {
        bell.ring(round);
        // Publish the next command only once every waiter took this one.
        while seen.iter().any(|s| s.load(Ordering::Acquire) < round) {
            thread::yield_now();
        }
    }
    for w in waiters {
        w.join().expect("waiter panicked");
    }
}
