//! # causality-datagen — synthetic data and workloads
//!
//! The paper's running example queries the IMDB dataset (Fig. 1/2), which
//! is proprietary and not distributable. This crate substitutes:
//!
//! * [`imdb`] — the IMDB schema (`Director`, `Movie`, `Movie_Directors`,
//!   `Genre`), the *exact* ten-tuple Fig. 2a micro-instance (three
//!   directors named Burton, six musicals including "Sweeney Todd"), and
//!   a seeded scalable generator with Zipf-skewed genres and director
//!   fan-out. The Fig. 2b ranking depends only on the lineage structure,
//!   which the micro-instance replicates tuple for tuple.
//! * [`workloads`] — parameterized instance families for the benches:
//!   layered chain-join databases (Algorithm 1's PTIME scaling), random
//!   triangle databases (h2*'s hard shape), and random graphs.
//! * [`hard_instances`] — NP-hard responsibility instances with *known*
//!   exact answers by construction (triangle fans, self-join stars) plus
//!   a dense random family for perfbench's `hard_triangles` tenants —
//!   the shared ground truth for the anytime-approximation test layer.
//! * [`tenants`] — multi-tenant serving workloads for perfbench's
//!   `tenant_mix`: per-tenant databases plus a seeded, Zipf-skewed op
//!   stream mixing Why-So / Why-No / rank-top-k reads with
//!   cache-invalidating writes.
//! * [`zipf`] — a seeded Zipf(α) sampler (inverse-CDF table).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hard_instances;
pub mod imdb;
pub mod tenants;
pub mod workloads;
pub mod zipf;

pub use hard_instances::{dense_triangles, selfjoin_star, triangle_fan, HardInstance};
pub use imdb::{fig2a_instance, Fig2aRefs};
pub use tenants::{tenant_workload, TenantOp, TenantSpec, TenantWorkload, TenantWorkloadConfig};
pub use zipf::Zipf;
