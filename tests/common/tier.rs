//! A one-tenant serving tier for integration tests.

use causality::prelude::*;

/// A one-shard tier with breakers and the supervisor off, serving `db`
/// as its only tenant.
pub fn one_tenant(db: Database, shard: ServiceConfig) -> (ShardedService, TenantId) {
    let tier = ShardedService::new(TierConfig {
        shards: 1,
        breaker: BreakerConfig::disabled(),
        supervisor: SupervisorConfig::disabled(),
        shard,
        ..TierConfig::default()
    });
    let tenant = tier.add_tenant("default", db).unwrap();
    (tier, tenant)
}
