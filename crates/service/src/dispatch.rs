//! The dispatch layer: stable tenant → shard routing.
//!
//! Routing must be a pure function of the tenant's *identity*, never of
//! its data: the shard holds the tenant's snapshot store, index cache
//! entries, and responsibility LRU, so a route that moved under writes
//! would orphan every warm cache line. The dispatcher therefore hashes
//! the tenant **name** (FNV-1a) onto a shard once, at registration, and
//! the assignment never changes — requests for untouched relations keep
//! hitting their warm shard no matter how much write traffic other
//! tenants generate. Within the shard, cache entries are keyed by the
//! `(RelId, RelVersion)` content fingerprints of PR 3, which is what
//! makes the per-shard caches sound across that shard's own writes.

use crate::shard::TenantKey;
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

/// Handle to one registered tenant: which shard hosts it, and its key
/// within that shard. Obtained from
/// [`ShardedService::add_tenant`](crate::ShardedService::add_tenant);
/// `Copy`, cheap to pass around, and stable for the tenant's lifetime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TenantId {
    shard: u32,
    key: TenantKey,
}

impl TenantId {
    /// Index of the shard hosting this tenant.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// The tenant's key within its shard.
    pub(crate) fn key(&self) -> TenantKey {
        self.key
    }

    /// The same tenant served from shard `shard` instead of its home —
    /// the route of a retry or hedge.
    pub(crate) fn on_shard(self, shard: usize) -> TenantId {
        TenantId {
            shard: shard as u32,
            ..self
        }
    }
}

/// FNV-1a over the tenant name: deterministic across processes and
/// runs, so a tenant lands on the same shard every time the tier is
/// built with the same shard count.
fn fnv1a(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The tenant registry and routing table of a
/// [`ShardedService`](crate::ShardedService).
pub(crate) struct Dispatcher {
    shards: u32,
    registry: RwLock<HashMap<String, TenantId>>,
    next_key: std::sync::atomic::AtomicU64,
}

impl Dispatcher {
    pub(crate) fn new(shards: usize) -> Self {
        Dispatcher {
            shards: shards.max(1) as u32,
            registry: RwLock::new(HashMap::new()),
            next_key: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The shard a tenant name routes to — stable under everything
    /// except a change of shard count.
    pub(crate) fn route(&self, name: &str) -> usize {
        (fnv1a(name) % u64::from(self.shards)) as usize
    }

    /// Register `name`, returning its new id, or `None` if the name is
    /// already taken.
    pub(crate) fn register(&self, name: &str) -> Option<TenantId> {
        let mut registry = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if registry.contains_key(name) {
            return None;
        }
        let id = TenantId {
            shard: self.route(name) as u32,
            key: self
                .next_key
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        };
        registry.insert(name.to_string(), id);
        Some(id)
    }

    /// Look up a registered tenant by name.
    pub(crate) fn lookup(&self, name: &str) -> Option<TenantId> {
        self.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
    }

    /// Number of registered tenants.
    pub(crate) fn tenant_count(&self) -> usize {
        self.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The fallback shard for a retry or hedge whose home shard is
    /// unhealthy (PR 9): the first shard after `home` (wrapping, home
    /// itself excluded) that `healthy` accepts, or `None` when no other
    /// shard qualifies. Deterministic, so retries of the same request
    /// keep landing on the same fallback and its warmed caches.
    pub(crate) fn fallback_route(
        &self,
        home: usize,
        healthy: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let shards = self.shards as usize;
        (1..shards)
            .map(|offset| (home + offset) % shards)
            .find(|&candidate| healthy(candidate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let d = Dispatcher::new(4);
        for name in ["alice", "bob", "carol", "dave", "erin"] {
            let shard = d.route(name);
            assert!(shard < 4);
            assert_eq!(shard, d.route(name), "same name, same shard");
            let fresh = Dispatcher::new(4);
            assert_eq!(shard, fresh.route(name), "stable across dispatchers");
        }
    }

    #[test]
    fn names_spread_across_shards() {
        let d = Dispatcher::new(4);
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[d.route(&format!("tenant-{i}"))] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 names cover all 4 shards");
    }

    #[test]
    fn register_rejects_duplicates_and_assigns_unique_keys() {
        let d = Dispatcher::new(2);
        let a = d.register("a").unwrap();
        let b = d.register("b").unwrap();
        assert!(d.register("a").is_none(), "duplicate name rejected");
        assert_ne!(a.key(), b.key());
        assert_eq!(d.lookup("a"), Some(a));
        assert_eq!(d.lookup("missing"), None);
        assert_eq!(d.tenant_count(), 2);
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let d = Dispatcher::new(1);
        assert_eq!(d.route("anything"), 0);
        assert_eq!(d.register("anything").unwrap().shard(), 0);
    }

    #[test]
    fn fallback_skips_unhealthy_shards_and_wraps() {
        let d = Dispatcher::new(4);
        // Shards 2 and 3 unhealthy: fallback from 1 wraps past them to 0.
        let healthy = |s: usize| s == 0 || s == 1;
        assert_eq!(d.fallback_route(1, healthy), Some(0));
        assert_eq!(d.fallback_route(0, healthy), Some(1));
    }

    #[test]
    fn fallback_never_returns_home_and_handles_no_healthy_sibling() {
        let d = Dispatcher::new(3);
        assert_eq!(d.fallback_route(1, |_| true), Some(2));
        assert_eq!(d.fallback_route(1, |s| s == 1), None, "home is excluded");
        let single = Dispatcher::new(1);
        assert_eq!(single.fallback_route(0, |_| true), None);
    }
}
