//! Integration tests for the contention-aware adaptive striped orec table:
//! growth is driven by *false* conflicts, the generation rehash is
//! epoch-safe (a transaction pinned to the old generation still conflicts
//! correctly with new-generation transactions), the old table retires
//! through the grace engine, and no lock state is ever lost across a
//! resize.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use tm_stm::prelude::*;
use tm_stm::runtime::DriverMode;

/// A hair-trigger policy: grow at every window boundary (threshold 0).
fn eager(start: usize, max: usize, window: u64) -> AdaptivePolicy {
    AdaptivePolicy {
        start,
        max,
        threshold: 0,
        window,
    }
}

/// Deterministically force `rounds` *false* conflicts: the reader samples
/// register 0 and parks; the writer commits to register 1 (stripe-sharing
/// under a 1-stripe table); the reader's commit-time validation fails on a
/// stripe whose last committed writer is register 1 — a false conflict by
/// the writer-hint classification. Returns the reader's stats.
fn force_false_conflicts(stm: &Tl2Stm, rounds: u64) -> Stats {
    // Seed a hint for register 1's stripe so the very first forced abort
    // classifies (hints only exist after a commit through the stripe).
    {
        let mut h = stm.handle(0);
        h.atomic(|tx| tx.write(1, 1));
    }
    std::thread::scope(|s| {
        let after_read = Arc::new(Barrier::new(2));
        let after_commit = Arc::new(Barrier::new(2));
        let reader = {
            let stm = stm.clone();
            let (b1, b2) = (Arc::clone(&after_read), Arc::clone(&after_commit));
            s.spawn(move || {
                let mut h = stm.handle(1);
                for _ in 0..rounds {
                    let mut first = true;
                    h.atomic(|tx| {
                        let v = tx.read(0)?;
                        if first {
                            first = false;
                            b1.wait();
                            b2.wait();
                        }
                        tx.write(3, v + 1)
                    });
                }
                h.stats()
            })
        };
        let mut w = stm.handle(0);
        for i in 0..rounds {
            after_read.wait();
            w.atomic(|tx| tx.write(1, 100 + i));
            after_commit.wait();
        }
        reader.join().unwrap()
    })
}

#[test]
fn false_conflicts_are_counted_and_grow_the_table() {
    let stm = Tl2Stm::with_config(StmConfig::new(4, 2).adaptive_stripes(AdaptivePolicy {
        start: 1,
        max: 8,
        threshold: 10,
        window: 4,
    }));
    assert_eq!(stm.nstripes(), 1);
    let stats = force_false_conflicts(&stm, 8);
    assert!(
        stats.false_conflicts >= 1,
        "forced stripe-sharing aborts must classify as false: {stats:?}"
    );
    assert!(
        stats.retries >= 1,
        "the reader must have been forced to retry: {stats:?}"
    );
    assert!(
        stm.stripe_resizes() >= 1,
        "a high false-conflict rate must grow the table (resizes = {}, stats = {stats:?})",
        stm.stripe_resizes()
    );
    assert!(stm.nstripes() > 1, "growth doubles the stripe count");
    assert_eq!(stm.locked_stripes(), 0, "quiescent table holds no locks");
}

/// THE epoch-safety regression: a transaction that pinned the old
/// generation and is still mid-flight when a resize publishes must still
/// conflict with a post-resize writer — the migration window makes every
/// new-generation commit lock and stamp *both* tables, so the pinned
/// transaction's validation still observes it.
#[test]
fn pinned_generation_still_conflicts_across_a_resize() {
    let stm = Tl2Stm::with_config(StmConfig::new(4, 2).adaptive_stripes(eager(1, 16, 2)));
    let parked = Arc::new(Barrier::new(2));
    let resume = Arc::new(Barrier::new(2));
    let observed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        let straddler = {
            let stm = stm.clone();
            let (b1, b2) = (Arc::clone(&parked), Arc::clone(&resume));
            let observed = Arc::clone(&observed);
            s.spawn(move || {
                let mut h = stm.handle(1);
                let mut first = true;
                h.atomic(|tx| {
                    // Read register 0 under the pinned (pre-resize)
                    // generation, then park while the other thread grows
                    // the table and overwrites register 0.
                    let v = tx.read(0)?;
                    if first {
                        first = false;
                        b1.wait();
                        b2.wait();
                    }
                    observed.store(v, Ordering::SeqCst);
                    tx.write(1, v + 1)
                });
                h.stats()
            })
        };
        parked.wait();
        let mut w = stm.handle(0);
        // Enough commits to cross several window boundaries (threshold 0 =>
        // unconditional growth) while the straddler is parked on gen 1...
        for i in 1..=8u64 {
            w.atomic(|tx| tx.write(2, i));
        }
        assert!(
            stm.stripe_resizes() >= 1,
            "growth must have happened while the transaction was parked"
        );
        // ...then commit to the straddler's read register through the NEW
        // generation. The parked transaction must abort and re-read.
        w.atomic(|tx| tx.write(0, 7777));
        resume.wait();
        let stats = straddler.join().unwrap();
        assert!(
            stats.retries >= 1,
            "a post-resize commit must still invalidate a pinned-generation \
             transaction: {stats:?}"
        );
    });
    assert_eq!(
        observed.load(Ordering::SeqCst),
        7777,
        "the retry must observe the new-generation write"
    );
    assert_eq!(stm.peek(1), 7778);
    assert_eq!(stm.locked_stripes(), 0);
}

/// Rehash under live concurrent commit traffic: with an unconditional
/// growth policy the table resizes repeatedly mid-run, and (a) not one
/// committed increment is lost, (b) no lock word in any generation stays
/// held, (c) migrations all retire through the grace engine.
#[test]
fn rehash_under_concurrent_commits_loses_nothing() {
    const THREADS: usize = 4;
    const INCS: u64 = 300;
    let stm =
        Tl2Stm::with_config(StmConfig::new(THREADS, THREADS).adaptive_stripes(eager(1, 64, 8)));
    let mut total = Stats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stm = stm.clone();
                s.spawn(move || {
                    let mut h = stm.handle(t);
                    for _ in 0..INCS {
                        // Disjoint per-thread counters: every cross-thread
                        // abort under the small table is a false conflict.
                        h.atomic(|tx| {
                            let v = tx.read(t)?;
                            tx.write(t, v + 1)
                        });
                    }
                    h.stats()
                })
            })
            .collect();
        for h in handles {
            total.merge(&h.join().unwrap());
        }
    });
    for t in 0..THREADS {
        assert_eq!(stm.peek(t), INCS, "thread {t} lost increments");
    }
    assert_eq!(total.commits, THREADS as u64 * INCS);
    assert!(
        stm.stripe_resizes() >= 2,
        "unconditional growth must resize repeatedly under traffic"
    );
    assert_eq!(
        stm.locked_stripes(),
        0,
        "no lock may be stranded in any generation after a rehash"
    );
    assert!(
        total.current_stripes > 1,
        "the stripe gauge must report the grown table: {total:?}"
    );
    // Migrations retire through the grace engine even with zero fences:
    // plain begins drive the pending ticket home.
    assert!(stm.runtime().grace().issued() >= 1);
    let mut h = stm.handle(0);
    for _ in 0..4 {
        h.atomic(|tx| tx.read(0));
    }
    assert!(
        !stm.migration_pending(),
        "begin-time polling must retire the final migration"
    );
    assert!(
        stm.runtime().grace().scans() >= 1,
        "retirement must ride real epoch-table scans"
    );
}

/// The same growth machinery must behave under the background grace-period
/// driver: the driver retires migration periods with zero pollers, and the
/// stripe gauge/resize counters agree with the cooperative run.
#[test]
fn adaptive_growth_works_under_the_background_driver() {
    let stm = Tl2Stm::with_config(
        StmConfig::new(2, 1)
            .adaptive_stripes(eager(1, 8, 2))
            .grace_driver(DriverMode::Background),
    );
    let mut h = stm.handle(0);
    for i in 0..12u64 {
        h.atomic(|tx| tx.write(0, i + 1));
    }
    assert_eq!(stm.peek(0), 12);
    assert!(stm.stripe_resizes() >= 1);
    // The driver owns migration liveness: wait for it to drain without
    // issuing any more transactions.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while stm.migration_pending() {
        assert!(
            std::time::Instant::now() < deadline,
            "driver must retire the migration with zero pollers"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(stm.locked_stripes(), 0);
    let s = h.stats();
    assert!(s.stripe_resizes >= 1, "{s:?}");
    assert_eq!(s.current_stripes, stm.nstripes() as u64);
}

/// Growth is capped: the table never exceeds `max` stripes, and once at
/// the cap the window machinery stops publishing generations.
#[test]
fn growth_respects_the_configured_cap() {
    let stm = Tl2Stm::with_config(StmConfig::new(2, 1).adaptive_stripes(eager(2, 4, 1)));
    let mut h = stm.handle(0);
    for i in 0..32u64 {
        h.atomic(|tx| tx.write(0, i + 1));
    }
    // Drain any pending migration so nstripes is final.
    for _ in 0..8 {
        h.atomic(|tx| tx.read(0));
    }
    assert_eq!(stm.nstripes(), 4, "the cap bounds growth");
    assert_eq!(stm.stripe_resizes(), 1, "2 -> 4 is the only legal resize");
    assert!(!stm.migration_pending());
}

/// Fixed-storage instances must be entirely unaffected by the new
/// machinery: no resizes, no migrations, gauge = configured stripe count.
#[test]
fn fixed_storage_reports_no_adaptivity() {
    let stm = Tl2Stm::with_config(StmConfig::new(8, 1).striped(4));
    let mut h = stm.handle(0);
    h.atomic(|tx| tx.write(0, 1));
    assert_eq!(stm.stripe_resizes(), 0);
    assert!(!stm.migration_pending());
    let s = h.stats();
    assert_eq!(s.stripe_resizes, 0);
    assert_eq!(s.current_stripes, 4);
    assert_eq!(s.false_conflicts, 0);

    let per_reg = Tl2Stm::new(8, 1);
    let mut h = per_reg.handle(0);
    h.atomic(|tx| tx.write(0, 1));
    assert_eq!(h.stats().current_stripes, 8, "per-register: one per reg");
    for x in 0..8 {
        assert_eq!(per_reg.stripe_of(x), x, "per-register is identity-mapped");
    }

    // A fixed table never resizes, however many false conflicts it sees.
    let one = Tl2Stm::with_config(StmConfig::new(4, 2).striped(1));
    let stats = force_false_conflicts(&one, 4);
    assert!(stats.false_conflicts >= 1, "{stats:?}");
    assert_eq!((one.nstripes(), one.stripe_resizes()), (1, 0));
    assert_eq!(stats.stripe_resizes, 0);
    assert!(!one.migration_pending());
}
