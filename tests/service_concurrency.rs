//! Concurrency integration test for the explanation service: N writer
//! threads publish snapshots while M reader threads explain, and the whole
//! scenario must finish — deadlock-free — under a hard timeout.
//!
//! The timeout guard runs the scenario on a helper thread and fails the
//! test if it does not signal completion in time, so a deadlock in the
//! worker pool / snapshot store shows up as a test failure rather than a
//! hung CI job.

#[path = "common/tier.rs"]
mod tier;
#[path = "common/timeout.rs"]
mod timeout;

use causality::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tier::one_tenant;
use timeout::with_timeout;

const WORKERS: usize = 4;
const WRITERS: usize = 3;
const READERS: usize = 6;
const WRITES_PER_WRITER: usize = 15;
const READS_PER_READER: usize = 25;
const HARD_TIMEOUT: Duration = Duration::from_secs(120);
const TIMED_OUT: &str = "service concurrency scenario timed out — deadlock?";

fn seed_database() -> Database {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    for (x, y) in [("a1", "a5"), ("a2", "a1"), ("a3", "a3"), ("a4", "a3")] {
        db.insert_endo(r, vec![Value::str(x), Value::str(y)]);
    }
    for y in ["a1", "a2", "a3", "a4"] {
        db.insert_endo(s, vec![Value::str(y)]);
    }
    db
}

#[test]
fn writers_and_readers_make_progress_without_deadlock() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let (tier, t) = one_tenant(
            seed_database(),
            ServiceConfig {
                workers: WORKERS,
                queue_capacity: 16,
                batch_max: 8,
                cache_capacity: 256,
                cached_versions: 3,
                rank_parallelism: 2,
                ..ServiceConfig::default()
            },
        );
        let query = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        let served = Arc::new(AtomicU64::new(0));
        let max_version_seen = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            // Writers: copy-on-write updates, each publishing a version
            // that adds a fresh joinable pair R(wN_i, bN_i), S(bN_i).
            for w in 0..WRITERS {
                let tier = &tier;
                scope.spawn(move || {
                    for i in 0..WRITES_PER_WRITER {
                        let version = tier
                            .update(t, |db| {
                                let r = db.relation_id("R").unwrap();
                                let s = db.relation_id("S").unwrap();
                                let x = Value::str(format!("w{w}_{i}"));
                                let b = Value::str(format!("b{w}_{i}"));
                                db.insert_endo(r, vec![x, b.clone()]);
                                db.insert_endo(s, vec![b]);
                            })
                            .unwrap();
                        assert!(version >= 2, "published versions are post-seed");
                    }
                });
            }
            // Readers: a mix of Why-So, Why-No, and top-k requests against
            // whatever snapshot is current when a worker picks them up.
            for rdr in 0..READERS {
                let tier = &tier;
                let query = query.clone();
                let served = Arc::clone(&served);
                let max_version_seen = Arc::clone(&max_version_seen);
                scope.spawn(move || {
                    let answers = ["a2", "a3", "a4"];
                    for i in 0..READS_PER_READER {
                        let answer = vec![Value::str(answers[(rdr + i) % answers.len()])];
                        let request = match i % 3 {
                            0 => ExplainRequest::why_so(query.clone(), answer),
                            1 => ExplainRequest::rank_top_k(query.clone(), answer, 2),
                            _ => ExplainRequest::why_no(query.clone(), answer),
                        };
                        let resp = tier.submit(t, request).unwrap().wait().unwrap();
                        let version = resp.snapshot_version;
                        max_version_seen.fetch_max(version, Ordering::SeqCst);
                        let explanation = resp.result.expect("explain computation succeeds");
                        for cause in &explanation.causes {
                            assert!(
                                cause.rho > 0.0 && cause.rho <= 1.0,
                                "ρ ∈ (0, 1] for every served cause"
                            );
                        }
                        served.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });

        let total = (READERS * READS_PER_READER) as u64;
        assert_eq!(served.load(Ordering::SeqCst), total, "no request lost");
        let final_version = 1 + (WRITERS * WRITES_PER_WRITER) as u64;
        let stats = tier.stats().aggregate();
        assert_eq!(
            stats.snapshot_version, final_version,
            "every writer update published a version"
        );
        assert_eq!(stats.requests, total);
        assert_eq!(stats.batched_requests, total);
        assert!(
            max_version_seen.load(Ordering::SeqCst) >= 1,
            "readers observed published snapshots"
        );

        // Shutdown drains and joins cleanly (a second deadlock hazard).
        tier.shutdown();
    });
}

/// A full queue below the admission limit. With `queue_capacity: 1`
/// under the default admission limit, the capacity is the smaller bound
/// and the channel refuses: the caller gets a counted `Overloaded` with
/// a usable hint, and the refusal is traced.
#[test]
fn full_queue_below_the_admission_limit_is_overloaded() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        const STALL: Duration = Duration::from_millis(300);
        let (tier, t) = one_tenant(
            seed_database(),
            ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                batch_max: 1,
                ..ServiceConfig::default()
            },
        );
        tier.inject_delay(|req| (req.answer == vec![Value::str("a2")]).then_some(STALL));
        let query = ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap();
        let req = |a: &str| ExplainRequest::why_so(query.clone(), vec![Value::str(a)]);

        let stalled = tier.submit(t, req("a2")).unwrap();
        // The worker draws the first chaos ordinal as it starts on a2,
        // after taking it off the queue; a3 then fills the one slot.
        while tier.shard_progress(0) < 1 {
            std::thread::yield_now();
        }
        let queued = tier.submit(t, req("a3")).unwrap();
        match tier.submit(t, req("a4")) {
            Err(ServiceError::Overloaded { retry_after }) => {
                assert!(retry_after >= Duration::from_millis(1), "usable hint")
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        for pending in [stalled, queued] {
            assert!(pending.wait().unwrap().result.is_ok());
        }

        let stats = tier.stats().aggregate();
        assert_eq!(stats.requests, 2, "the refused request was not accepted");
        assert_eq!(stats.admission_rejects, 1, "the refusal is counted");
        assert_eq!(stats.queue_depth, 0);
        assert!(
            tier.recent_traces()
                .iter()
                .any(|trace| trace.outcome == "overloaded"),
            "the refused request left a trace"
        );
        tier.shutdown();
    });
}

#[test]
fn pinned_snapshots_survive_heavy_publishing() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let (tier, t) = one_tenant(seed_database(), ServiceConfig::default());
        let pinned = tier.snapshot(t).unwrap();
        let before = pinned.tuple_count();

        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tier = &tier;
                scope.spawn(move || {
                    for i in 0..20 {
                        tier.update(t, |db| {
                            let s = db.relation_id("S").unwrap();
                            db.insert_endo(s, vec![Value::int(1000 + i)]);
                        })
                        .unwrap();
                    }
                });
            }
        });

        assert_eq!(pinned.version(), 1);
        assert_eq!(pinned.tuple_count(), before, "pinned snapshot immutable");
        assert_eq!(tier.stats().aggregate().snapshot_version, 81);
        // 20 distinct values inserted by 4 writers each: dedup keeps 20.
        let s = tier.snapshot(t).unwrap().relation_id("S").unwrap();
        assert_eq!(tier.snapshot(t).unwrap().relation(s).len(), 4 + 20);
    });
}
