//! The dichotomy classifier (Corollary 4.14).
//!
//! For a self-join-free conjunctive query with every atom marked `^n` or
//! `^x`:
//!
//! * **weakly linear** ⇒ Why-So responsibility is PTIME — the certificate
//!   is a weakening sequence plus a linear order, which Algorithm 1
//!   consumes directly;
//! * **not weakly linear** ⇒ NP-hard — the certificate is a rewrite chain
//!   ending in h1*, h2* or h3* (Theorems 4.1, 4.13).
//!
//! Queries *with* self-joins fall outside the dichotomy: Prop. 4.16 shows
//! `Rⁿ(x), S(x,y), Rⁿ(y)` is NP-hard, but the paper leaves the general
//! self-join case open ("we do not yet have a full dichotomy"), so the
//! classifier answers [`Complexity::HardSelfJoin`] for the known pattern
//! and [`Complexity::OpenSelfJoin`] otherwise.

use super::aquery::AQuery;
use super::rewrite::{hardness_certificate, HardnessCertificate};
use super::weaken::{weakly_linear_certificate, WeakLinearityCache, WeaklyLinearCertificate};
use crate::error::CoreError;
use causality_engine::ConjunctiveQuery;

/// The classifier's verdict for Why-So responsibility.
#[derive(Clone, Debug)]
pub enum Complexity {
    /// Weakly linear: PTIME via Algorithm 1, with certificate.
    PTime(Box<WeaklyLinearCertificate>),
    /// Not weakly linear: NP-hard, with a rewrite chain to h1*/h2*/h3*.
    NpHard(Box<HardnessCertificate>),
    /// Matches the self-join pattern of Prop. 4.16 — known NP-hard.
    HardSelfJoin,
    /// Contains a self-join not covered by any known result; the paper
    /// leaves this open (Sect. 4.1, "queries with self-joins are harder to
    /// analyze, and we do not yet have a full dichotomy").
    OpenSelfJoin,
}

impl Complexity {
    /// Short label for tables (Fig. 3 style).
    pub fn label(&self) -> &'static str {
        self.tag().label()
    }

    /// Whether the verdict is PTIME.
    pub fn is_ptime(&self) -> bool {
        matches!(self, Complexity::PTime(_))
    }

    /// The certificate-free, `Copy` summary of the verdict, suitable for
    /// stamping on explanations and traces.
    pub fn tag(&self) -> DichotomyTag {
        match self {
            Complexity::PTime(_) => DichotomyTag::PTime,
            Complexity::NpHard(_) => DichotomyTag::NpHard,
            Complexity::HardSelfJoin => DichotomyTag::HardSelfJoin,
            Complexity::OpenSelfJoin => DichotomyTag::OpenSelfJoin,
        }
    }
}

/// A certificate-free summary of a [`Complexity`] verdict. Unlike
/// [`Complexity`] (which boxes the weakening sequence or rewrite chain),
/// this is `Copy` and comparable, so results and traces can carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DichotomyTag {
    /// Weakly linear: PTIME via Algorithm 1.
    PTime,
    /// Not weakly linear: NP-hard (Theorems 4.1, 4.13).
    NpHard,
    /// The Prop. 4.16 self-join pattern — known NP-hard.
    HardSelfJoin,
    /// A self-join outside the dichotomy; complexity open.
    OpenSelfJoin,
    /// The classifier could not analyze the query (e.g. malformed
    /// abstract view); no verdict.
    Unclassified,
}

impl DichotomyTag {
    /// Same labels as [`Complexity::label`], plus `unclassified`.
    pub fn label(self) -> &'static str {
        match self {
            DichotomyTag::PTime => "PTIME",
            DichotomyTag::NpHard => "NP-hard",
            DichotomyTag::HardSelfJoin => "NP-hard (self-join, Prop. 4.16)",
            DichotomyTag::OpenSelfJoin => "open (self-join)",
            DichotomyTag::Unclassified => "unclassified",
        }
    }

    /// Classifies `q`, collapsing classifier errors to
    /// [`DichotomyTag::Unclassified`] instead of failing the request.
    ///
    /// Serving-path queries usually leave atoms unmarked
    /// ([`causality_engine::Nature::Any`]: the *tuples* carry the
    /// endogenous/exogenous split), which the certificate-producing
    /// classifier rejects. For tagging purposes unmarked atoms are
    /// treated as endogenous — the hard direction — so the tag reports
    /// the worst-case complexity the request could have exhibited.
    pub fn of_why_so(q: &ConjunctiveQuery) -> DichotomyTag {
        #[cfg(test)]
        CLASSIFIED.with(|n| n.set(n.get() + 1));
        let needs_marks = q
            .atoms()
            .iter()
            .any(|a| a.nature == causality_engine::Nature::Any);
        let marked;
        let query = if needs_marks {
            let mut m = q.clone();
            for i in 0..m.atoms().len() {
                if m.atoms()[i].nature == causality_engine::Nature::Any {
                    m.atom_mut(i).nature = causality_engine::Nature::Endo;
                }
            }
            marked = m;
            &marked
        } else {
            q
        };
        classify_why_so(query)
            .map(|c| c.tag())
            .unwrap_or(DichotomyTag::Unclassified)
    }
}

#[cfg(test)]
thread_local! {
    /// [`DichotomyTag::of_why_so`] calls on this thread, for tests that
    /// count classifier runs.
    pub(crate) static CLASSIFIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Classify the Why-So responsibility complexity of a Boolean marked
/// query (Corollary 4.14).
pub fn classify_why_so(q: &ConjunctiveQuery) -> Result<Complexity, CoreError> {
    if q.has_self_join() {
        return Ok(if is_prop_4_16_pattern(q) {
            Complexity::HardSelfJoin
        } else {
            Complexity::OpenSelfJoin
        });
    }
    let aq = AQuery::from_query(q)?;
    classify_aquery(&aq)
}

/// Classify an abstract query directly.
pub fn classify_aquery(aq: &AQuery) -> Result<Complexity, CoreError> {
    if let Some(cert) = weakly_linear_certificate(aq)? {
        return Ok(Complexity::PTime(Box::new(cert)));
    }
    let mut cache = WeakLinearityCache::new();
    let cert = hardness_certificate(aq, &mut cache)?
        .expect("non-weakly-linear query must reach a canonical hard query (Thm 4.13)");
    Ok(Complexity::NpHard(Box::new(cert)))
}

/// Why-No responsibility is PTIME for *every* conjunctive query
/// (Theorem 4.17): contingency sets are bounded by the number of subgoals.
pub fn classify_why_no(_q: &ConjunctiveQuery) -> &'static str {
    "PTIME (Theorem 4.17)"
}

/// Detect the Prop. 4.16 shape `Rⁿ(x), S(x,y), Rⁿ(y)` (with `S`
/// endogenous or exogenous): two endogenous unary atoms over the *same*
/// relation bridged by a binary atom.
fn is_prop_4_16_pattern(q: &ConjunctiveQuery) -> bool {
    let atoms = q.atoms();
    if atoms.len() != 3 {
        return false;
    }
    // Find the two unary atoms over the same relation and the binary one.
    let unary: Vec<usize> = (0..3).filter(|&i| atoms[i].arity() == 1).collect();
    let binary: Vec<usize> = (0..3).filter(|&i| atoms[i].arity() == 2).collect();
    if unary.len() != 2 || binary.len() != 1 {
        return false;
    }
    let (u1, u2, b) = (unary[0], unary[1], binary[0]);
    if atoms[u1].relation != atoms[u2].relation {
        return false;
    }
    if atoms[u1].nature != causality_engine::Nature::Endo
        || atoms[u2].nature != causality_engine::Nature::Endo
    {
        return false;
    }
    let x = atoms[u1].vars();
    let y = atoms[u2].vars();
    if x == y || x.len() != 1 || y.len() != 1 {
        return false;
    }
    let bridge = atoms[b].vars();
    bridge.len() == 2 && bridge.is_superset(&x) && bridge.is_superset(&y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn linear_chain_is_ptime() {
        let c = classify_why_so(&q("q :- R^n(x, y), S^n(y, z)")).unwrap();
        assert!(c.is_ptime());
        assert_eq!(c.label(), "PTIME");
    }

    #[test]
    fn canonical_hard_queries_are_np_hard() {
        for text in [
            "h1 :- A^n(x), B^n(y), C^n(z), W^x(x, y, z)",
            "h2 :- R^n(x, y), S^n(y, z), T^n(z, x)",
            "h3 :- A^n(x), B^n(y), C^n(z), R^x(x, y), S^x(y, z), T^x(z, x)",
        ] {
            let c = classify_why_so(&q(text)).unwrap();
            assert!(matches!(c, Complexity::NpHard(_)), "{text}");
        }
    }

    /// Example 4.8's 4-cycle: hard, with a rewrite chain certificate.
    #[test]
    fn four_cycle_certificate_chain() {
        let c = classify_why_so(&q("q :- R^n(x, y), S^n(y, z), T^n(z, u), K^n(u, x)")).unwrap();
        match c {
            Complexity::NpHard(cert) => {
                assert!(!cert.steps.is_empty());
                assert_eq!(cert.target.name(), "h2*");
            }
            other => panic!("expected NP-hard, got {}", other.label()),
        }
    }

    /// Example 4.12's queries: PTIME with weakening certificates.
    #[test]
    fn example_4_12_ptime_certificates() {
        for text in [
            "q :- R^n(x, y), S^x(y, z), T^n(z, x)",
            "q :- R^n(x, y), S^n(y, z), T^n(z, x), V^n(x)",
        ] {
            let c = classify_why_so(&q(text)).unwrap();
            match c {
                Complexity::PTime(cert) => {
                    assert!(!cert.steps.is_empty(), "{text} needs real weakening");
                }
                other => panic!("{text}: expected PTIME, got {}", other.label()),
            }
        }
    }

    #[test]
    fn prop_4_16_self_join_detected() {
        for text in [
            "q :- R^n(x), S^x(x, y), R^n(y)",
            "q :- R^n(x), S^n(x, y), R^n(y)",
        ] {
            let c = classify_why_so(&q(text)).unwrap();
            assert!(matches!(c, Complexity::HardSelfJoin), "{text}");
        }
    }

    #[test]
    fn open_self_join_reported_honestly() {
        // The paper explicitly leaves R(x,y), R(y,z) open.
        let c = classify_why_so(&q("q :- R^n(x, y), R^n(y, z)")).unwrap();
        assert!(matches!(c, Complexity::OpenSelfJoin));
        assert!(c.label().contains("open"));
    }

    #[test]
    fn prop_4_16_near_misses_are_open() {
        // Unary atoms over different relations: no self-join at all —
        // handled by the dichotomy (and in fact weakly linear).
        let c = classify_why_so(&q("q :- A^n(x), S^x(x, y), B^n(y)")).unwrap();
        assert!(c.is_ptime());
        // Same relation but exogenous unaries: not the Prop 4.16 pattern.
        let c = classify_why_so(&q("q :- R^x(x), S^n(x, y), R^x(y)")).unwrap();
        assert!(matches!(c, Complexity::OpenSelfJoin));
    }

    #[test]
    fn why_no_is_always_ptime() {
        assert!(classify_why_no(&q("q :- R^n(x, y)")).contains("PTIME"));
    }

    #[test]
    fn unmarked_query_is_an_error() {
        let err = classify_why_so(&q("q :- R(x, y), S(y)")).unwrap_err();
        assert!(matches!(err, CoreError::UnmarkedAtom { .. }));
    }

    /// Figure 5a's long linear query classifies PTIME with zero steps.
    #[test]
    fn fig5a_is_ptime_without_weakening() {
        let c = classify_why_so(&q(
            "q :- A^n(x), S1^x(x, v), S2^x(v, y), R^n(y, u), S3^x(y, z), T^x(z, w), B^n(z)",
        ))
        .unwrap();
        match c {
            Complexity::PTime(cert) => assert!(cert.steps.is_empty()),
            other => panic!("expected PTIME, got {}", other.label()),
        }
    }
}
