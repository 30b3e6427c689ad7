//! Seeded workload inputs and the reference answers every response is
//! checked against.
//!
//! Each workload is a set of tenants (one database each), a list of
//! distinct questions, and an op script that the load loops replay
//! cyclically. Writes never change an answer (they append rows that
//! join nothing), so one reference per question holds for the whole run.

use causality_core::explain::{Explainer, Explanation};
use causality_core::ranking::Method;
use causality_datagen::hard_instances::{dense_triangles, triangle_fan};
use causality_datagen::imdb::{burton_genre_query, generate, ImdbConfig};
use causality_datagen::tenants::{tenant_workload, TenantOp, TenantWorkloadConfig};
use causality_engine::{evaluate, ConjunctiveQuery, Database, TupleRef, Value};
use causality_service::{ExplainKind, ExplainRequest};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// The four workloads, named as on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TenantMix,
    ImdbWhySo,
    ImdbWhyNo,
    HardTriangles,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::TenantMix,
        Kind::ImdbWhySo,
        Kind::ImdbWhyNo,
        Kind::HardTriangles,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TenantMix => "tenant_mix",
            Kind::ImdbWhySo => "imdb_whyso",
            Kind::ImdbWhyNo => "imdb_whyno",
            Kind::HardTriangles => "hard_triangles",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Only `tenant_mix` re-asks questions between writes, so it is the
    /// only workload allowed to hit the responsibility LRU.
    pub fn lru_hits_allowed(self) -> bool {
        self == Kind::TenantMix
    }
}

/// `tenant_mix`: 8 Zipf-hot tenants × 24-row `R(x,y), S(y)` databases.
const MIX_TENANTS: usize = 8;
const MIX_ROWS: usize = 24;
/// Length of the op cycle the open loop replays.
const MIX_OPS: usize = 20_000;
/// `imdb_whyso`: tenants of the Fig. 2 generator at this size.
const WHYSO_TENANTS: usize = 4;
const WHYSO_MOVIES: usize = 4_000;
/// `imdb_whyno`: the same generator, five times larger.
const WHYNO_TENANTS: usize = 1;
const WHYNO_MOVIES: usize = 20_000;
/// `hard_triangles`: dense h2* tenants plus one triangle fan.
const DENSE_TENANTS: usize = 24;
const DENSE_NODES: usize = 4;
const DENSE_TUPLES: usize = 64;
const FAN_K: usize = 12;
/// The deadline every `hard_triangles` request carries.
pub const HARD_DEADLINE: Duration = Duration::from_millis(2);

pub struct Tenant {
    pub name: String,
    pub db: Database,
}

pub struct Question {
    pub tenant: usize,
    pub request: ExplainRequest,
    /// Submitted with `submit_with_deadline` when set.
    pub deadline: Option<Duration>,
}

/// What a correct response looks like.
pub enum Reference {
    /// Exact path: the response must equal this explanation bit for bit.
    Exact(Explanation),
    /// Anytime path: exactly these causes, each bracket containing its ρ.
    Bracketed(BTreeMap<TupleRef, f64>),
}

#[derive(Clone, Copy)]
pub enum Op {
    Ask(usize),
    Write(usize),
}

pub struct Inputs {
    pub kind: Kind,
    pub tenants: Vec<Tenant>,
    pub questions: Vec<Question>,
    pub ops: Vec<Op>,
    /// Human-readable input sizes for the result stamp.
    pub sizes: String,
}

/// Per-tenant generator seeds derived from the run seed.
fn tenant_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1)
        .rotate_left(17)
}

/// The generator seed of every tenant, derived from the run seed
/// (`tenant_mix` generates all tenants from the run seed itself).
pub fn tenant_seeds(kind: Kind, seed: u64) -> Vec<u64> {
    let tenants = match kind {
        Kind::TenantMix => return vec![seed],
        Kind::ImdbWhySo => WHYSO_TENANTS,
        Kind::ImdbWhyNo => WHYNO_TENANTS,
        Kind::HardTriangles => DENSE_TENANTS,
    };
    (0..tenants).map(|i| tenant_seed(seed, i)).collect()
}

fn imdb_db(movies: usize, seed: u64) -> Database {
    generate(&ImdbConfig {
        directors: movies / 5,
        movies,
        seed,
        ..ImdbConfig::default()
    })
    .0
}

/// Build the workload's inputs from the run seed and the tenant seeds
/// [`tenant_seeds`] derived from it.
pub fn generate_inputs(kind: Kind, seeds: &[u64]) -> Inputs {
    match kind {
        Kind::TenantMix => tenant_mix(seeds[0]),
        Kind::ImdbWhySo => imdb(kind, seeds, WHYSO_MOVIES),
        Kind::ImdbWhyNo => imdb(kind, seeds, WHYNO_MOVIES),
        Kind::HardTriangles => hard_triangles(seeds),
    }
}

fn tenant_mix(seed: u64) -> Inputs {
    let workload = tenant_workload(&TenantWorkloadConfig {
        tenants: MIX_TENANTS,
        rows_per_tenant: MIX_ROWS,
        ops: MIX_OPS,
        seed,
        ..TenantWorkloadConfig::default()
    });
    let mut questions: Vec<Question> = Vec::new();
    let mut index: HashMap<(usize, ExplainRequest), usize> = HashMap::new();
    let mut ops = Vec::with_capacity(workload.ops.len());
    for op in &workload.ops {
        let tenant = op.tenant();
        let query = workload.tenants[tenant].query.clone();
        let request = match op {
            TenantOp::Write { .. } => {
                ops.push(Op::Write(tenant));
                continue;
            }
            TenantOp::WhySo { answer, .. } => ExplainRequest::why_so(query, answer.clone()),
            TenantOp::WhyNo { answer, .. } => ExplainRequest::why_no(query, answer.clone()),
            TenantOp::RankTopK { answer, k, .. } => {
                ExplainRequest::rank_top_k(query, answer.clone(), *k)
            }
        };
        let next = questions.len();
        let q = *index.entry((tenant, request.clone())).or_insert(next);
        if q == next {
            questions.push(Question {
                tenant,
                request,
                deadline: None,
            });
        }
        ops.push(Op::Ask(q));
    }
    let tenants = workload
        .tenants
        .into_iter()
        .map(|spec| Tenant {
            name: spec.name,
            db: spec.db,
        })
        .collect();
    Inputs {
        kind: Kind::TenantMix,
        tenants,
        sizes: format!(
            "{MIX_TENANTS} tenants x {MIX_ROWS} rows, {} distinct questions, {MIX_OPS}-op cycle",
            questions.len()
        ),
        questions,
        ops,
    }
}

/// IMDB tenants of the Fig. 2 generator. Why-So asks about every genre
/// answer of the Burton query; Why-No about every genre value. Each pass
/// starts with one write per tenant so no request hits the LRU.
fn imdb(kind: Kind, seeds: &[u64], movies: usize) -> Inputs {
    let query = burton_genre_query();
    let mut out_tenants = Vec::new();
    let mut questions = Vec::new();
    let mut ops = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let db = imdb_db(movies, seed);
        let genres: Vec<Value> = match kind {
            Kind::ImdbWhySo => {
                let answers = evaluate(&db, &query).expect("IMDB query evaluates").answers;
                answers.into_iter().map(|t| t[0].clone()).collect()
            }
            _ => {
                let genre = db.relation_id("Genre").expect("IMDB schema");
                let mut values = db.relation(genre).column_values(1);
                values.sort();
                values.dedup();
                values
            }
        };
        ops.push(Op::Write(i));
        for g in genres {
            let request = match kind {
                Kind::ImdbWhySo => ExplainRequest::why_so(query.clone(), vec![g]),
                _ => ExplainRequest::why_no(query.clone(), vec![g]),
            };
            ops.push(Op::Ask(questions.len()));
            questions.push(Question {
                tenant: i,
                request,
                deadline: None,
            });
        }
        out_tenants.push(Tenant {
            name: format!("imdb-{i}"),
            db,
        });
    }
    Inputs {
        kind,
        sizes: format!(
            "{} tenants x {movies} movies ({} directors), {} questions",
            seeds.len(),
            movies / 5,
            questions.len()
        ),
        tenants: out_tenants,
        questions,
        ops,
    }
}

/// Boolean h2* tenants: dense random triangles and a triangle fan. Every
/// request is Why-So under [`HARD_DEADLINE`]. (`selfjoin_star` is left
/// out: the classifier tags its self-join open, not NP-hard, so the
/// router keeps it on the exact path.)
fn hard_triangles(seeds: &[u64]) -> Inputs {
    let mut tenants = Vec::new();
    let mut add = |name: String, db: Database, query: ConjunctiveQuery| {
        tenants.push((Tenant { name, db }, query));
    };
    for (i, &seed) in seeds.iter().enumerate() {
        let inst = dense_triangles(DENSE_NODES, DENSE_TUPLES, seed);
        add(format!("dense-{i}"), inst.db, inst.query);
    }
    let fan = triangle_fan(FAN_K);
    add("fan".to_string(), fan.db, fan.query);

    let mut questions = Vec::new();
    let mut out = Vec::new();
    for (i, (tenant, query)) in tenants.into_iter().enumerate() {
        questions.push(Question {
            tenant: i,
            request: ExplainRequest::why_so(query, Vec::<Value>::new()),
            deadline: Some(HARD_DEADLINE),
        });
        out.push(tenant);
    }
    let ops = (0..questions.len()).map(Op::Ask).collect();
    Inputs {
        kind: Kind::HardTriangles,
        sizes: format!(
            "{DENSE_TENANTS} dense_triangles({DENSE_NODES}, {DENSE_TUPLES}) + triangle_fan({FAN_K}), \
             {}ms deadline",
            HARD_DEADLINE.as_millis()
        ),
        tenants: out,
        questions,
        ops,
    }
}

/// Distinct rows a workload's writes cycle through. Past the first
/// cycle a write re-inserts an existing row: the relation's content
/// stamp still moves (every cache keyed on it misses) while its size
/// stays bounded, so the run is stationary.
const WRITE_POOL: u64 = 16;

/// Write a row that joins nothing the workload asks about: an `S` value
/// for `tenant_mix`, a non-Burton director for the IMDB workloads.
pub fn apply_write(kind: Kind, db: &mut Database, n: u64) {
    let n = n % WRITE_POOL;
    match kind {
        Kind::TenantMix => {
            let s = db.relation_id("S").expect("tenant schema");
            db.insert_endo(s, vec![Value::str(format!("bench_w{n}"))]);
        }
        Kind::ImdbWhySo | Kind::ImdbWhyNo => {
            let d = db.relation_id("Director").expect("IMDB schema");
            db.insert_endo(
                d,
                vec![
                    Value::int(900_000_000 + n as i64),
                    Value::str("Pat"),
                    Value::str("Writer"),
                ],
            );
        }
        Kind::HardTriangles => unreachable!("hard_triangles has no writes"),
    }
}

/// Reference answers computed directly with [`Explainer`] on the inputs.
pub fn references(inputs: &Inputs) -> Vec<Reference> {
    inputs
        .questions
        .iter()
        .map(|q| {
            let tenant = &inputs.tenants[q.tenant];
            let db = &tenant.db;
            let req = &q.request;
            let explainer = Explainer::new(db, &req.query);
            let explanation = match req.kind {
                ExplainKind::WhySo => explainer.why(&req.answer),
                ExplainKind::WhyNo => explainer.why_not(&req.answer),
                ExplainKind::RankTopK(k) => explainer.why_top_k(&req.answer, k).map(|(e, _)| e),
            }
            .expect("reference explanation");
            if inputs.kind != Kind::HardTriangles {
                return Reference::Exact(explanation);
            }
            Reference::Bracketed(hard_reference(&tenant.name, db, &req.query, explanation))
        })
        .collect()
}

/// Reference ρ per cause for a hard tenant: known by construction for
/// the fan (the shared tuple is counterfactual, every other tuple has
/// ρ = 1/k by symmetry), exact branch-and-bound otherwise.
fn hard_reference(
    name: &str,
    db: &Database,
    query: &ConjunctiveQuery,
    explanation: Explanation,
) -> BTreeMap<TupleRef, f64> {
    if name != "fan" {
        let exact = Explainer::new(db, query)
            .with_method(Method::Exact)
            .why(&[])
            .expect("exact reference");
        return exact.causes.iter().map(|c| (c.tuple, c.rho)).collect();
    }
    let inst = triangle_fan(FAN_K);
    let known: BTreeMap<TupleRef, f64> = explanation
        .causes
        .iter()
        .map(|c| {
            let rho = if c.tuple == inst.counterfactual {
                1.0
            } else {
                inst.rho
            };
            (c.tuple, rho)
        })
        .collect();
    assert_eq!(
        known.len(),
        db.tuple_count(),
        "every tuple of a fan is a cause"
    );
    assert_eq!(known.get(&inst.probe), Some(&inst.rho));
    known
}

/// FNV-1a over every tenant's name and rows, for the result stamp.
pub fn input_hash(inputs: &Inputs) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for tenant in &inputs.tenants {
        eat(tenant.name.as_bytes());
        for (_, rel) in tenant.db.relations() {
            eat(rel.name().as_bytes());
            for (_, tuple, endo) in rel.iter() {
                eat(format!("{tuple}{}", u8::from(endo)).as_bytes());
            }
        }
    }
    for q in &inputs.questions {
        eat(format!("{}{:?}{:?}", q.tenant, q.request.kind, q.request.answer).as_bytes());
    }
    h
}
