//! Multi-tenant workload generation for the serving tier.
//!
//! perfbench's `tenant_mix` workload drives a
//! [`ShardedService`](../causality_service) the way an interactive
//! explanation front end would be driven: many tenants, each with its own
//! database, issuing a skewed mix of Why-So / Why-No / rank-top-k reads
//! interleaved with writes. This module generates that workload
//! deterministically:
//!
//! * **tenants** are Zipf-hot: a few tenants receive most of the traffic
//!   (rank sampled from `Zipf(tenants, tenant_alpha)`);
//! * **answers** within a tenant are Zipf-hot too, so responsibility
//!   caches see realistic re-reference;
//! * **writes** append fresh rows to the written tenant's `S` relation —
//!   bumping its content version (and thus invalidating that tenant's
//!   dependent cache lines) without disturbing any existing answer.
//!
//! Everything is seeded: the same [`TenantWorkloadConfig`] always yields
//! byte-identical databases and op streams, so two benchmark runs
//! measure the same work.

use crate::zipf::Zipf;
use causality_engine::{ConjunctiveQuery, Database, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of the multi-tenant workload.
#[derive(Clone, Debug)]
pub struct TenantWorkloadConfig {
    /// Number of tenants.
    pub tenants: usize,
    /// Join rows per tenant database (`R` rows; half of them join `S`).
    pub rows_per_tenant: usize,
    /// Zipf exponent over tenants (≥ 0; higher ⇒ hotter hot tenants).
    pub tenant_alpha: f64,
    /// Zipf exponent over answers within a tenant.
    pub answer_alpha: f64,
    /// Number of ops to generate.
    pub ops: usize,
    /// Fraction of ops that are writes (appends to `S`).
    pub write_fraction: f64,
    /// Fraction of *reads* that are Why-No questions.
    pub why_no_fraction: f64,
    /// Fraction of *reads* that are rank-top-k questions.
    pub topk_fraction: f64,
    /// The `k` used by rank-top-k reads.
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TenantWorkloadConfig {
    fn default() -> Self {
        TenantWorkloadConfig {
            tenants: 8,
            rows_per_tenant: 24,
            tenant_alpha: 1.2,
            answer_alpha: 1.1,
            ops: 1_000,
            write_fraction: 0.05,
            why_no_fraction: 0.2,
            topk_fraction: 0.1,
            top_k: 3,
            seed: 6,
        }
    }
}

/// One tenant: its name, database, and the query its traffic asks about.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Routing name (`"tenant-{i}"`).
    pub name: String,
    /// The tenant's private database (`R(x, y)`, `S(y)`).
    pub db: Database,
    /// `q(x) :- R(x, y), S(y)` — answers are the even rows.
    pub query: ConjunctiveQuery,
    /// `x` values that are answers (even rows: their `y` is in `S`).
    pub answers: Vec<Value>,
    /// `x` values that are non-answers (odd rows), for Why-No.
    pub non_answers: Vec<Value>,
}

/// One generated operation against the tier.
#[derive(Clone, Debug, PartialEq)]
pub enum TenantOp {
    /// Ask why `answer` is an answer of the tenant's query.
    WhySo {
        /// Tenant index into [`TenantWorkload::tenants`].
        tenant: usize,
        /// The answer tuple to explain.
        answer: Vec<Value>,
    },
    /// Ask why `answer` is *not* an answer.
    WhyNo {
        /// Tenant index.
        tenant: usize,
        /// The non-answer tuple to explain.
        answer: Vec<Value>,
    },
    /// Rank the top-`k` causes of `answer` by responsibility.
    RankTopK {
        /// Tenant index.
        tenant: usize,
        /// The answer tuple to rank causes for.
        answer: Vec<Value>,
        /// How many causes to keep.
        k: usize,
    },
    /// Append a fresh row `S(value)` to the tenant's database — a
    /// content-version bump that invalidates the tenant's dependent
    /// cache lines without changing any existing answer.
    Write {
        /// Tenant index.
        tenant: usize,
        /// The fresh (never-joining) value to insert into `S`.
        value: Value,
    },
}

impl TenantOp {
    /// The tenant this op targets.
    pub fn tenant(&self) -> usize {
        match self {
            TenantOp::WhySo { tenant, .. }
            | TenantOp::WhyNo { tenant, .. }
            | TenantOp::RankTopK { tenant, .. }
            | TenantOp::Write { tenant, .. } => *tenant,
        }
    }
}

/// A fully generated multi-tenant workload: tenant databases plus a
/// deterministic op stream.
#[derive(Clone, Debug)]
pub struct TenantWorkload {
    /// The tenants, index-addressed by the ops.
    pub tenants: Vec<TenantSpec>,
    /// The op stream, in issue order.
    pub ops: Vec<TenantOp>,
}

/// Build one tenant's database: `R(x, y)` with `rows` rows
/// `(t{i}_x{r}, t{i}_y{r})`, and `S(y)` holding the `y` of every even
/// row — so even `x`s are answers of `q(x) :- R(x, y), S(y)` with two
/// causes each (`R` row and `S` row), and odd `x`s are non-answers with
/// a one-insertion Why-No fix. Values embed the tenant index, so no two
/// tenants ever share a request (identical queries over different
/// databases must not coalesce).
fn tenant_spec(i: usize, rows: usize) -> TenantSpec {
    let mut db = Database::new();
    let r = db.add_relation(Schema::new("R", &["x", "y"]));
    let s = db.add_relation(Schema::new("S", &["y"]));
    let mut answers = Vec::new();
    let mut non_answers = Vec::new();
    for row in 0..rows {
        let x = Value::str(format!("t{i}_x{row}"));
        let y = Value::str(format!("t{i}_y{row}"));
        db.insert_endo(r, vec![x.clone(), y.clone()]);
        if row % 2 == 0 {
            db.insert_endo(s, vec![y]);
            answers.push(x);
        } else {
            non_answers.push(x);
        }
    }
    TenantSpec {
        name: format!("tenant-{i}"),
        db,
        query: ConjunctiveQuery::parse("q(x) :- R(x, y), S(y)").expect("workload query parses"),
        answers,
        non_answers,
    }
}

/// Generate the workload described by `cfg`. Deterministic: equal
/// configs yield equal workloads.
///
/// # Panics
/// Panics if `cfg.tenants == 0`, `cfg.rows_per_tenant < 2`, or any
/// fraction is outside `[0, 1]`.
pub fn tenant_workload(cfg: &TenantWorkloadConfig) -> TenantWorkload {
    assert!(cfg.tenants > 0, "need at least one tenant");
    assert!(cfg.rows_per_tenant >= 2, "need answers and non-answers");
    for f in [cfg.write_fraction, cfg.why_no_fraction, cfg.topk_fraction] {
        assert!((0.0..=1.0).contains(&f), "fractions must be in [0, 1]");
    }

    let tenants: Vec<TenantSpec> = (0..cfg.tenants)
        .map(|i| tenant_spec(i, cfg.rows_per_tenant))
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tenant_zipf = Zipf::new(cfg.tenants, cfg.tenant_alpha);
    let answer_zipf = Zipf::new(tenants[0].answers.len(), cfg.answer_alpha);
    let non_answer_zipf = Zipf::new(tenants[0].non_answers.len(), cfg.answer_alpha);

    let mut write_seq = 0usize;
    let ops = (0..cfg.ops)
        .map(|_| {
            let tenant = tenant_zipf.sample(&mut rng);
            let mix: f64 = rng.gen();
            if mix < cfg.write_fraction {
                write_seq += 1;
                return TenantOp::Write {
                    tenant,
                    value: Value::str(format!("t{tenant}_w{write_seq}")),
                };
            }
            let read: f64 = rng.gen();
            if read < cfg.why_no_fraction {
                let pick = non_answer_zipf.sample(&mut rng);
                TenantOp::WhyNo {
                    tenant,
                    answer: vec![tenants[tenant].non_answers[pick].clone()],
                }
            } else if read < cfg.why_no_fraction + cfg.topk_fraction {
                let pick = answer_zipf.sample(&mut rng);
                TenantOp::RankTopK {
                    tenant,
                    answer: vec![tenants[tenant].answers[pick].clone()],
                    k: cfg.top_k,
                }
            } else {
                let pick = answer_zipf.sample(&mut rng);
                TenantOp::WhySo {
                    tenant,
                    answer: vec![tenants[tenant].answers[pick].clone()],
                }
            }
        })
        .collect();

    TenantWorkload { tenants, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causality_engine::{evaluate, Tuple};

    fn small() -> TenantWorkloadConfig {
        TenantWorkloadConfig {
            tenants: 4,
            rows_per_tenant: 8,
            ops: 400,
            ..TenantWorkloadConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tenant_workload(&small());
        let b = tenant_workload(&small());
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.tenants.len(), b.tenants.len());
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.name, tb.name);
            assert_eq!(ta.answers, tb.answers);
        }
    }

    #[test]
    fn declared_answers_match_evaluation() {
        let w = tenant_workload(&small());
        for spec in &w.tenants {
            let result = evaluate(&spec.db, &spec.query).unwrap();
            for x in &spec.answers {
                assert!(
                    result.answers.contains(&Tuple::new(vec![x.clone()])),
                    "{x:?} must be an answer of {}",
                    spec.name
                );
            }
            for x in &spec.non_answers {
                assert!(
                    !result.answers.contains(&Tuple::new(vec![x.clone()])),
                    "{x:?} must be a non-answer of {}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn traffic_is_tenant_skewed_and_mixed() {
        let w = tenant_workload(&TenantWorkloadConfig {
            ops: 4_000,
            ..small()
        });
        assert_eq!(w.ops.len(), 4_000);
        let mut per_tenant = [0usize; 4];
        let (mut writes, mut why_no, mut topk, mut why_so) = (0, 0, 0, 0);
        for op in &w.ops {
            per_tenant[op.tenant()] += 1;
            match op {
                TenantOp::Write { .. } => writes += 1,
                TenantOp::WhyNo { .. } => why_no += 1,
                TenantOp::RankTopK { .. } => topk += 1,
                TenantOp::WhySo { .. } => why_so += 1,
            }
        }
        assert!(
            per_tenant[0] > per_tenant[3],
            "Zipf makes tenant 0 hotter than tenant 3: {per_tenant:?}"
        );
        for count in [writes, why_no, topk, why_so] {
            assert!(count > 0, "every op kind appears in the mix");
        }
        assert!(why_so > why_no && why_no > writes, "mix follows fractions");
    }

    #[test]
    fn writes_never_disturb_existing_answers() {
        let w = tenant_workload(&small());
        let mut spec = w.tenants[0].clone();
        let before = evaluate(&spec.db, &spec.query).unwrap().answers.len();
        let s = spec.db.relation_id("S").unwrap();
        for op in &w.ops {
            if let TenantOp::Write { tenant: 0, value } = op {
                spec.db.insert_endo(s, vec![value.clone()]);
            }
        }
        let after = evaluate(&spec.db, &spec.query).unwrap().answers.len();
        assert_eq!(before, after, "write values never join R");
    }
}
