//! Every waiter of a coalesced group gets the whole answer.
//!
//! A worker evaluates each distinct `(tenant, request)` of a batch once
//! and fans the answer out to the group's waiters: the riders get
//! clones, and the last waiter takes the answer itself. These scenarios
//! hold a one-worker shard inside a chaos hook until a group of
//! identical requests has queued behind it, then check each waiter's
//! response on the three routes a group can take: a fresh exact
//! computation, an LRU hit, and an anytime computation under a deadline.

#[path = "common/timeout.rs"]
mod timeout;

use causality::prelude::*;
use causality::service::PendingExplain;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use timeout::with_timeout;

const HARD_TIMEOUT: Duration = Duration::from_secs(120);
const TIMED_OUT: &str = "fan-out scenario timed out — a waiter was never answered?";

/// Identical requests per group; at most the shard's `batch_max`.
const GROUP: usize = 4;

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

/// A worker held inside the chaos hook: the hook blocks on every
/// computation whose answer is a blocker's, until the test releases it.
struct Hold {
    entered: Receiver<()>,
    release: SyncSender<()>,
}

impl Hold {
    /// Arm `tier`'s chaos hook to block on each request whose answer is
    /// one of `blockers`.
    fn arm(tier: &ShardedService, blockers: &'static [&'static str]) -> Hold {
        let (entered_tx, entered) = sync_channel(1);
        let (release, release_rx) = sync_channel::<()>(1);
        let release_rx = Arc::new(Mutex::new(release_rx));
        tier.inject_fault(move |req| {
            if blockers.iter().any(|b| req.answer == vec![Value::str(b)]) {
                let _ = entered_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
            }
            false
        });
        Hold { entered, release }
    }

    /// Submit `blocker` and return once the worker is inside the hook
    /// with it.
    fn hold(&self, tier: &ShardedService, tenant: TenantId, blocker: &str) -> PendingExplain {
        let pending = tier
            .submit(
                tenant,
                ExplainRequest::why_so(query(), vec![Value::str(blocker)]),
            )
            .unwrap();
        self.entered.recv().unwrap();
        pending
    }

    fn release(&self) {
        self.release.send(()).unwrap();
    }
}

/// `GROUP` identical requests queued behind a held worker come back as
/// one group: after one fresh computation every waiter's response
/// equals the `Explainer`'s answer, and `GROUP − 1` of them count as
/// coalesced riders. The same group asked again is served from the LRU,
/// each waiter a hit with the same answer. A group of identical
/// deadline requests on an NP-hard tenant gets one approximate answer,
/// the same for every waiter.
#[test]
fn every_waiter_of_a_coalesced_group_gets_the_whole_answer() {
    with_timeout(HARD_TIMEOUT, TIMED_OUT, || {
        let tier = ShardedService::new(TierConfig {
            shards: 1,
            supervisor: SupervisorConfig::disabled(),
            shard: ServiceConfig {
                workers: 1,
                batch_max: GROUP,
                ..ServiceConfig::default()
            },
            ..TierConfig::default()
        });
        let db = seed_database();
        let tenant = tier.add_tenant("t", db.clone()).unwrap();
        // Each blocker is asked once, so it misses the LRU and reaches
        // the hook.
        let hold = Hold::arm(&tier, &["a1", "a2", "a3"]);
        let asked = vec![Value::str("a4")];
        let expected = Explainer::new(&db, &query()).why(&asked).unwrap();
        let group = |tenant, request: &ExplainRequest, deadline: Option<Duration>| {
            (0..GROUP)
                .map(|_| match deadline {
                    Some(d) => tier.submit_with_deadline(tenant, request.clone(), d),
                    None => tier.submit(tenant, request.clone()),
                })
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
        };

        // A fresh exact computation, fanned out to the whole group.
        let request = ExplainRequest::why_so(query(), asked.clone());
        let before = tier.stats().aggregate();
        let blocker = hold.hold(&tier, tenant, "a1");
        let pending = group(tenant, &request, None);
        hold.release();
        blocker.wait().unwrap().expect_explanation();
        for waiter in pending {
            let response = waiter.wait().unwrap();
            assert!(!response.cache_hit, "a fresh computation");
            assert_eq!(response.expect_explanation(), expected);
        }
        let after = tier.stats().aggregate();
        assert_eq!(after.coalesced - before.coalesced, GROUP as u64 - 1);
        assert_eq!(
            after.cache_misses - before.cache_misses,
            2,
            "blocker + group"
        );

        // The same group again: every waiter is an LRU hit.
        let blocker = hold.hold(&tier, tenant, "a2");
        let pending = group(tenant, &request, None);
        hold.release();
        blocker.wait().unwrap().expect_explanation();
        for waiter in pending {
            let response = waiter.wait().unwrap();
            assert!(response.cache_hit, "served from the LRU");
            assert_eq!(response.expect_explanation(), expected);
        }
        let hits = tier.stats().aggregate().cache_hits - after.cache_hits;
        assert_eq!(hits, GROUP as u64);

        // A group of identical deadline requests on an NP-hard tenant:
        // one anytime computation, the same answer for every waiter.
        let mut triangle = Database::new();
        let r = triangle.add_relation(Schema::new("R", &["x", "y"]));
        let s = triangle.add_relation(Schema::new("S", &["y", "z"]));
        let t = triangle.add_relation(Schema::new("T", &["z", "x"]));
        triangle.insert_endo(r, vec![Value::int(1), Value::int(2)]);
        for i in 0..3 {
            triangle.insert_endo(s, vec![Value::int(2), Value::int(10 + i)]);
            triangle.insert_endo(t, vec![Value::int(10 + i), Value::int(1)]);
        }
        let h2 = ConjunctiveQuery::parse("h2 :- R(x, y), S(y, z), T(z, x)").unwrap();
        // The deadline leaves the refinement all the time it needs, so
        // the brackets are the unlimited budget's.
        let (unlimited, _) = Explainer::new(&triangle, &h2)
            .why_anytime(&[], ApproxBudget::unlimited())
            .unwrap();
        let hard = tier.add_tenant("triangle", triangle).unwrap();
        let request = ExplainRequest::why_so(h2, Vec::<Value>::new());
        let before = tier.stats().aggregate();
        let blocker = hold.hold(&tier, tenant, "a3");
        let pending = group(hard, &request, Some(Duration::from_secs(60)));
        hold.release();
        blocker.wait().unwrap().expect_explanation();
        let answers: Vec<Explanation> = pending
            .into_iter()
            .map(|waiter| waiter.wait().unwrap().expect_explanation())
            .collect();
        for answer in &answers {
            assert!(
                matches!(answer.mode, ExplainMode::Approximate { .. }),
                "{:?}",
                answer.mode
            );
            assert_eq!(answer, &answers[0], "one answer for the whole group");
            assert_eq!(answer.causes, unlimited.causes);
        }
        let after = tier.stats().aggregate();
        assert_eq!(after.approx_requests - before.approx_requests, 1);
        assert_eq!(after.coalesced - before.coalesced, GROUP as u64 - 1);
        tier.shutdown();
    });
}
