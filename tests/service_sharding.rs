//! Integration tests for the sharded serving tier: stable tenant
//! routing, admission control, deadline budgets, and cross-shard
//! failure isolation — all under hard timeouts, so a deadlock anywhere
//! in the front-end/dispatch/shard stack fails fast instead of hanging
//! CI.

use causality::prelude::*;
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

const HARD_TIMEOUT: Duration = Duration::from_secs(120);

/// Run `scenario` on a helper thread; panic if it exceeds the timeout.
fn with_deadline(scenario: impl FnOnce() + Send + 'static) {
    use std::sync::mpsc::RecvTimeoutError;
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        scenario();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(HARD_TIMEOUT) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = runner.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("sharding scenario exceeded {HARD_TIMEOUT:?} — deadlock?")
        }
    }
}

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

fn query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").unwrap()
}

fn small_tier(shards: usize) -> ShardedService {
    ShardedService::new(TierConfig {
        shards,
        shard: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..TierConfig::default()
    })
}

/// Register numbered tenants until two land on different shards;
/// returns their ids (first tenant registered, first elsewhere).
fn two_tenants_on_different_shards(tier: &ShardedService) -> (TenantId, TenantId) {
    let first = tier.add_tenant("tenant-0", seed_database()).unwrap();
    for i in 1..64 {
        let id = tier
            .add_tenant(&format!("tenant-{i}"), seed_database())
            .unwrap();
        if id.shard() != first.shard() {
            return (first, id);
        }
    }
    panic!("64 FNV-hashed names cannot all land on one of several shards");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routing is a pure function of tenant name and shard count: two
    /// independently built tiers assign every name the same shard, and
    /// writes to any tenant never move any tenant (the property that
    /// keeps per-shard caches warm under write traffic).
    #[test]
    fn tenant_routing_is_stable_across_tiers_and_writes(
        ids in prop::collection::vec(0u16..1000, 1..12),
    ) {
        let mut names: Vec<String> = ids.iter().map(|i| format!("tenant-{i}")).collect();
        names.sort();
        names.dedup();
        let tier_a = small_tier(4);
        let tier_b = small_tier(4);
        let mut registered = Vec::new();
        for name in &names {
            let a = tier_a.add_tenant(name, seed_database()).unwrap();
            let b = tier_b.add_tenant(name, seed_database()).unwrap();
            prop_assert!(a.shard() < 4);
            prop_assert_eq!(a.shard(), b.shard());
            registered.push((name.clone(), a));
        }
        // Write to every tenant; no assignment may move.
        for (_, id) in &registered {
            tier_a.update(*id, |db| {
                let s = db.relation_id("S").unwrap();
                db.insert_endo(s, vec![Value::str("w")]);
            }).unwrap();
        }
        for (name, id) in &registered {
            prop_assert_eq!(tier_a.tenant_id(name), Some(*id));
        }
        tier_a.shutdown();
        tier_b.shutdown();
    }
}

/// One tenant's write traffic must not cool another tenant's shard:
/// per-shard index caches and responsibility LRUs make cross-tenant
/// eviction structurally impossible.
#[test]
fn warm_cache_survives_other_tenants_writes() {
    with_deadline(|| {
        let tier = small_tier(2);
        let (alice, bob) = two_tenants_on_different_shards(&tier);

        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        assert!(!tier.explain(bob, req.clone()).unwrap().cache_hit);
        assert!(tier.explain(bob, req.clone()).unwrap().cache_hit);

        let bob_before = tier.stats().shards[bob.shard()];
        for i in 0..20 {
            tier.update(alice, |db| {
                let s = db.relation_id("S").unwrap();
                db.insert_endo(s, vec![Value::str(format!("w{i}"))]);
            })
            .unwrap();
            // Keep alice's shard actively recomputing her own query too.
            tier.explain(
                alice,
                ExplainRequest::why_so(query(), vec![Value::str("a2")]),
            )
            .unwrap()
            .result
            .unwrap();
        }
        let warm = tier.explain(bob, req).unwrap();
        assert!(
            warm.cache_hit,
            "alice's writes (shard {}) must not evict bob's warm entry (shard {})",
            alice.shard(),
            bob.shard()
        );
        let bob_after = tier.stats().shards[bob.shard()];
        assert_eq!(
            bob_before.index_evictions, bob_after.index_evictions,
            "no index eviction on bob's shard"
        );
        assert_eq!(
            bob_before.cache_misses, bob_after.cache_misses,
            "bob never recomputed"
        );
        tier.shutdown();
    });
}

/// Past the admission limit, submissions come back as `Overloaded`
/// errors — every op is either accepted (and later served) or visibly
/// rejected; nothing blocks, nothing is dropped.
#[test]
fn admission_rejects_are_returned_not_dropped() {
    with_deadline(|| {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            admission_limit: 2,
            shard: ServiceConfig {
                workers: 1,
                batch_max: 1,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let tenant = tier.add_tenant("hot", seed_database()).unwrap();
        tier.inject_delay(|_| Some(Duration::from_millis(25)));

        let req = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..40 {
            match tier.submit(tenant, req.clone()) {
                Ok(pending) => accepted.push(pending),
                Err(ServiceError::Overloaded { retry_after }) => {
                    assert!(
                        retry_after >= Duration::from_millis(1),
                        "the reject carries a usable retry-after hint"
                    );
                    rejected += 1;
                }
                Err(other) => panic!("only Overloaded expected, got {other}"),
            }
        }
        assert_eq!(accepted.len() as u64 + rejected, 40, "no op vanished");
        assert!(rejected > 0, "an open loop of 40 must overrun a limit of 2");
        assert!(!accepted.is_empty(), "admission admits up to the limit");
        for pending in accepted {
            pending.wait().unwrap().result.unwrap();
        }
        let stats = tier.stats().aggregate();
        assert_eq!(stats.admission_rejects, rejected);
        assert_eq!(stats.queue_depth, 0, "queue fully drained");
        tier.shutdown();
    });
}

/// An expired deadline budget yields `DeadlineExceeded` — the job is
/// answered, counted, and never occupies a worker with computation.
#[test]
fn expired_deadline_is_an_error_not_a_computation() {
    with_deadline(|| {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            shard: ServiceConfig {
                workers: 1,
                // One job per pull: FIFO guarantees the stalled blocker
                // is processed (and sleeps) before the doomed job is
                // drained, by which point its budget has expired.
                batch_max: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let tenant = tier.add_tenant("t", seed_database()).unwrap();
        tier.inject_delay(|req| {
            (req.answer == vec![Value::str("a2")]).then_some(Duration::from_millis(150))
        });

        let blocker = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a2")]),
            )
            .unwrap();
        let doomed = tier
            .submit_with_deadline(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str("a3")]),
                Duration::from_millis(10),
            )
            .unwrap();
        assert!(matches!(
            doomed.wait().unwrap().result,
            Err(ServiceError::DeadlineExceeded)
        ));
        blocker.wait().unwrap().result.unwrap();

        let stats = tier.stats().aggregate();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(
            stats.cache_misses, 1,
            "only the blocker computed; the expired job cost a response, not a worker"
        );
        tier.shutdown();
    });
}

/// Chaos: panic every request of one tenant (= one shard) and flood it
/// with more faulting jobs than the pool has workers. The victim shard
/// answers every one with `Panicked`; the other shard keeps serving
/// normally, uncounted and uncooled.
#[test]
fn panicking_one_shard_leaves_the_others_serving() {
    with_deadline(|| {
        // Breakers off: this test is about panic *isolation*; eight
        // straight panics would trip the victim tenant's breaker (its
        // own protection is covered in tests/service_selfheal.rs).
        let tier = ShardedService::new(TierConfig {
            shards: 2,
            breaker: BreakerConfig::disabled(),
            shard: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let (victim, bystander) = two_tenants_on_different_shards(&tier);

        // Warm the bystander first so we can also prove its cache stays.
        let calm = ExplainRequest::why_so(query(), vec![Value::str("a2")]);
        tier.explain(bystander, calm.clone())
            .unwrap()
            .result
            .unwrap();

        // Fault hook matches on a marker only the victim's requests use.
        let poisoned = ExplainRequest::why_so(query(), vec![Value::str("a4")]);
        tier.inject_fault({
            let marker = poisoned.clone();
            move |req| *req == marker
        });

        let pending: Vec<_> = (0..8)
            .map(|_| tier.submit(victim, poisoned.clone()).unwrap())
            .collect();
        for handle in pending {
            assert!(matches!(
                handle.wait().unwrap().result,
                Err(ServiceError::Panicked(_))
            ));
        }

        // The bystander's shard: alive, warm, and panic-free.
        let warm = tier.explain(bystander, calm).unwrap();
        warm.result.clone().unwrap();
        assert!(warm.cache_hit, "bystander's cache survived the blast");
        let stats = tier.stats();
        assert!(stats.shards[victim.shard()].panics_caught >= 1);
        assert_eq!(stats.shards[bystander.shard()].panics_caught, 0);

        // The victim shard itself also survives: clear the hook and serve.
        tier.clear_faults();
        tier.explain(
            victim,
            ExplainRequest::why_so(query(), vec![Value::str("a3")]),
        )
        .unwrap()
        .result
        .unwrap();
        tier.shutdown();
    });
}
