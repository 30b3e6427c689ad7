//! Conjunctive query ASTs.
//!
//! The paper restricts attention to conjunctive queries `q(x̄) :- g1, …, gm`
//! (Sect. 2). Beyond the plain AST this module provides the structural
//! operations the complexity analysis needs:
//!
//! * grounding an answer `ā` into a Boolean query `q[ā/x̄]` (Sect. 2),
//! * variable/atom surgery used by the *rewriting* (Def. 4.6) and
//!   *weakening* (Def. 4.9) relations,
//! * homomorphisms, cores and isomorphism (Theorem 3.4's image queries are
//!   "always minimized", i.e. replaced by their core; the dichotomy search
//!   must recognise the canonical hard queries h1*, h2*, h3* up to
//!   isomorphism).

pub mod homomorphism;
pub mod parser;

use crate::error::EngineError;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A query variable, identified by its index into the query's name table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

/// A term in an atom or head: a variable or a constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A query variable.
    Var(VarId),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// The variable id, if this is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// Whether this term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

/// Which tuples of the underlying relation an atom ranges over.
///
/// The paper writes `Rn` for the endogenous and `Rx` for the exogenous
/// tuples of `R` (Sect. 2). A plain atom (`Any`) ranges over all of `R`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Nature {
    /// All tuples, endogenous and exogenous.
    Any,
    /// Only endogenous tuples (`Rn`).
    Endo,
    /// Only exogenous tuples (`Rx`).
    Exo,
}

impl Nature {
    /// Superscript used in display / parse syntax (`R^n`, `R^x`, `R`).
    pub fn suffix(self) -> &'static str {
        match self {
            Nature::Any => "",
            Nature::Endo => "^n",
            Nature::Exo => "^x",
        }
    }
}

/// One body atom `R^nature(t1, …, tk)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Endogenous / exogenous / unrestricted.
    pub nature: Nature,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(relation: impl Into<String>, nature: Nature, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            nature,
            terms,
        }
    }

    /// The distinct variables of the atom, ascending.
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }

    /// Whether the atom contains variable `v`.
    pub fn contains_var(&self, v: VarId) -> bool {
        self.terms.iter().any(|t| t.as_var() == Some(v))
    }

    /// Atom arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }
}

/// A conjunctive query `name(head) :- atom1, …, atomm`.
///
/// A *Boolean* query has an empty head. Most of the paper's machinery is
/// defined for Boolean queries; [`ConjunctiveQuery::ground`] converts an
/// answer of a non-Boolean query into the Boolean query `q[ā/x̄]`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ConjunctiveQuery {
    name: String,
    head: Vec<Term>,
    atoms: Vec<Atom>,
    var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Create an empty Boolean query with the given name.
    pub fn boolean(name: impl Into<String>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            head: Vec::new(),
            atoms: Vec::new(),
            var_names: Vec::new(),
        }
    }

    /// Parse a query from text, e.g. `q(x) :- R(x, y), S^x(y, 'a')`.
    ///
    /// See [`parser`] for the grammar.
    pub fn parse(input: &str) -> Result<Self, EngineError> {
        parser::parse_query(input)
    }

    /// Query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the query.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Head terms.
    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// Body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Mutable access to a body atom (used by rewriting/weakening).
    pub fn atom_mut(&mut self, i: usize) -> &mut Atom {
        &mut self.atoms[i]
    }

    /// Whether the query is Boolean (empty head).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Whether some relation name occurs in more than one atom.
    pub fn has_self_join(&self) -> bool {
        let mut names: Vec<&str> = self.atoms.iter().map(|a| a.relation.as_str()).collect();
        names.sort_unstable();
        names.windows(2).any(|w| w[0] == w[1])
    }

    /// Number of interned variables (some may no longer occur after surgery).
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// Intern (or find) a variable by name; returns its id.
    pub fn var(&mut self, name: impl AsRef<str>) -> VarId {
        let name = name.as_ref();
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            return VarId(i as u32);
        }
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        id
    }

    /// Find an existing variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Append an atom; terms must use variables interned via [`Self::var`].
    pub fn push_atom(&mut self, atom: Atom) {
        self.atoms.push(atom);
    }

    /// Set the head terms.
    pub fn set_head(&mut self, head: Vec<Term>) {
        self.head = head;
    }

    /// The set of variables occurring in the body (`Var(q)`).
    pub fn body_vars(&self) -> BTreeSet<VarId> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// The set of variables occurring in the head.
    pub fn head_vars(&self) -> BTreeSet<VarId> {
        self.head.iter().filter_map(Term::as_var).collect()
    }

    /// `sg(x)`: the indices of atoms whose variable set contains `x`
    /// (the paper's "set of subgoals containing variable x").
    pub fn atoms_with_var(&self, v: VarId) -> Vec<usize> {
        (0..self.atoms.len())
            .filter(|&i| self.atoms[i].contains_var(v))
            .collect()
    }

    /// Distinct constants occurring anywhere in the query.
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out: BTreeSet<Value> = self
            .atoms
            .iter()
            .flat_map(|a| a.terms.iter())
            .filter_map(|t| match t {
                Term::Const(c) => Some(c.clone()),
                Term::Var(_) => None,
            })
            .collect();
        for t in &self.head {
            if let Term::Const(c) = t {
                out.insert(c.clone());
            }
        }
        out
    }

    /// Ground the query with an answer tuple: substitute head variables by
    /// the answer's constants, producing the Boolean query `q[ā/x̄]`
    /// (Sect. 2, "it suffices to compute the causes of the Boolean query").
    ///
    /// # Panics
    /// Panics if `answer` does not match the head arity, or if a head
    /// constant disagrees with the answer. Serving layers should prefer
    /// the fallible [`ConjunctiveQuery::try_ground`].
    pub fn ground(&self, answer: &[Value]) -> ConjunctiveQuery {
        self.try_ground(answer).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ConjunctiveQuery::ground`]: rejects answers whose arity
    /// or constants disagree with the head instead of panicking.
    pub fn try_ground(&self, answer: &[Value]) -> Result<ConjunctiveQuery, EngineError> {
        self.check_answer(answer)?;
        let mut q = self.clone();
        q.name = format!("{}[{}]", self.name, format_values(answer));
        q.head = Vec::new();
        for term in q.atoms.iter_mut().flat_map(|a| a.terms.iter_mut()) {
            let Term::Var(v) = *term else { continue };
            if let Some(j) = self.head.iter().position(|t| t.as_var() == Some(v)) {
                *term = Term::Const(answer[j].clone());
            }
        }
        Ok(q)
    }

    /// Whether `answer` grounds the query: [`ConjunctiveQuery::try_ground`]
    /// succeeds exactly when this does, and fails with the same
    /// [`EngineError::InvalidAnswer`], but nothing is built.
    pub fn check_answer(&self, answer: &[Value]) -> Result<(), EngineError> {
        let invalid = |message: String| EngineError::InvalidAnswer {
            query: self.to_string(),
            message,
        };
        if answer.len() != self.head.len() {
            return Err(invalid(format!(
                "answer arity mismatch: head has {} terms, answer has {}",
                self.head.len(),
                answer.len()
            )));
        }
        for (i, (term, val)) in self.head.iter().zip(answer).enumerate() {
            match term {
                Term::Var(v) => {
                    // The value this variable's first head position got.
                    let first = self.head[..i]
                        .iter()
                        .position(|t| t.as_var() == Some(*v))
                        .map(|j| &answer[j]);
                    if let Some(prev) = first.filter(|&prev| prev != val) {
                        return Err(invalid(format!(
                            "inconsistent repeated head variable `{}`: {prev} vs {val}",
                            self.var_name(*v)
                        )));
                    }
                }
                Term::Const(c) => {
                    if c != val {
                        return Err(invalid(format!(
                            "head constant disagrees with answer: {c} vs {val}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Substitute variable `v` by the given term everywhere in the body.
    pub fn substitute_var(&mut self, v: VarId, replacement: &Term) {
        for atom in &mut self.atoms {
            for term in &mut atom.terms {
                if term.as_var() == Some(v) {
                    *term = replacement.clone();
                }
            }
        }
        for term in &mut self.head {
            if term.as_var() == Some(v) {
                *term = replacement.clone();
            }
        }
    }

    /// Rewriting rule DELETE x (Def. 4.6): remove the variable from every
    /// atom, decreasing arities.
    pub fn delete_var(&mut self, v: VarId) {
        for atom in &mut self.atoms {
            atom.terms.retain(|t| t.as_var() != Some(v));
        }
    }

    /// Rewriting rule ADD y (Def. 4.6): append `y` to every atom that
    /// contains `x` but not yet `y`. The caller must check the side
    /// condition (some atom contains both `x` and `y`).
    pub fn add_var_where(&mut self, x: VarId, y: VarId) {
        for atom in &mut self.atoms {
            if atom.contains_var(x) && !atom.contains_var(y) {
                atom.terms.push(Term::Var(y));
            }
        }
    }

    /// Rewriting rule DELETE g (Def. 4.6): remove atom `i`.
    pub fn remove_atom(&mut self, i: usize) -> Atom {
        self.atoms.remove(i)
    }

    /// Drop duplicate atoms (same relation, nature and terms), keeping the
    /// first occurrence. Rewriting can produce syntactic duplicates.
    pub fn dedup_atoms(&mut self) {
        let mut seen: Vec<Atom> = Vec::new();
        self.atoms.retain(|a| {
            if seen.contains(a) {
                false
            } else {
                seen.push(a.clone());
                true
            }
        });
    }

    /// A fingerprint invariant under variable renaming, used as a hash
    /// prefilter before full isomorphism checks: the sorted multiset of
    /// (relation, nature, arity, per-position duplicate pattern).
    pub fn signature(&self) -> Vec<(String, Nature, usize, Vec<usize>)> {
        let mut sig: Vec<_> = self
            .atoms
            .iter()
            .map(|a| {
                // For each position, the index of the first position holding
                // the same term — a renaming-invariant equality pattern.
                let pattern: Vec<usize> = a
                    .terms
                    .iter()
                    .enumerate()
                    .map(|(i, t)| a.terms.iter().position(|u| u == t).unwrap_or(i))
                    .collect();
                (a.relation.clone(), a.nature, a.arity(), pattern)
            })
            .collect();
        sig.sort();
        sig
    }
}

fn format_values(vals: &[Value]) -> String {
    vals.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.head.is_empty() {
            write!(f, "(")?;
            for (i, t) in self.head.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                self.fmt_term(f, t)?;
            }
            write!(f, ")")?;
        }
        write!(f, " :- ")?;
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}{}(", atom.relation, atom.nature.suffix())?;
            for (j, t) in atom.terms.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                self.fmt_term(f, t)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl ConjunctiveQuery {
    fn fmt_term(&self, f: &mut fmt::Formatter<'_>, t: &Term) -> fmt::Result {
        match t {
            Term::Var(v) => write!(f, "{}", self.var_name(*v)),
            Term::Const(Value::Int(i)) => write!(f, "{i}"),
            Term::Const(Value::Str(s)) => write!(f, "'{s}'"),
        }
    }
}

pub use homomorphism::{find_homomorphism, is_isomorphic, query_core};

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn builder_api() {
        let mut cq = ConjunctiveQuery::boolean("q");
        let x = cq.var("x");
        let y = cq.var("y");
        assert_eq!(cq.var("x"), x, "interning is idempotent");
        cq.push_atom(Atom::new(
            "R",
            Nature::Endo,
            vec![Term::Var(x), Term::Var(y)],
        ));
        cq.push_atom(Atom::new("S", Nature::Exo, vec![Term::Var(y)]));
        assert!(cq.is_boolean());
        assert_eq!(cq.to_string(), "q :- R^n(x, y), S^x(y)");
        assert_eq!(cq.body_vars().len(), 2);
        assert_eq!(cq.atoms_with_var(y), vec![0, 1]);
    }

    #[test]
    fn grounding_produces_boolean_query() {
        let cq = q("q(x) :- R(x, y), S(y)");
        let g = cq.ground(&[Value::str("a2")]);
        assert!(g.is_boolean());
        assert_eq!(g.to_string(), "q[a2] :- R('a2', y), S(y)");
        assert_eq!(g.constants().len(), 1);
    }

    /// `q(x, x) :- R(x, y)` — rejected by the parser nowadays, but still
    /// constructible through the builder API, and `ground` must handle it.
    fn repeated_head_query() -> ConjunctiveQuery {
        let mut cq = ConjunctiveQuery::boolean("q");
        let x = cq.var("x");
        let y = cq.var("y");
        cq.push_atom(Atom::new(
            "R",
            Nature::Any,
            vec![Term::Var(x), Term::Var(y)],
        ));
        cq.set_head(vec![Term::Var(x), Term::Var(x)]);
        cq
    }

    #[test]
    fn grounding_repeated_head_var() {
        let g = repeated_head_query().ground(&[Value::int(1), Value::int(1)]);
        assert_eq!(g.to_string(), "q[1,1] :- R(1, y)");
    }

    #[test]
    #[should_panic(expected = "inconsistent repeated head variable")]
    fn grounding_rejects_inconsistent_answer() {
        repeated_head_query().ground(&[Value::int(1), Value::int(2)]);
    }

    /// Adversarial answers: wrong arity, head constants that disagree,
    /// repeated head variables bound inconsistently. Grounding fails
    /// with `InvalidAnswer` (never a panic) exactly when `check_answer`
    /// does, and a valid answer substitutes every head variable.
    #[test]
    fn try_ground_fuzz_gives_typed_errors() {
        let mut state = 0xF00D_u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let (mut valid, mut invalid) = (0, 0);
        for round in 0..2000 {
            // A head of up to four terms over two variables and the
            // constants 0 and 1, through the builder (the parser rejects
            // repeated head variables).
            let mut cq = ConjunctiveQuery::boolean("q");
            let x = cq.var("x");
            let y = cq.var("y");
            cq.push_atom(Atom::new(
                "R",
                Nature::Any,
                vec![Term::Var(x), Term::Var(y)],
            ));
            let head: Vec<Term> = (0..draw(5))
                .map(|_| match draw(4) {
                    0 => Term::Var(x),
                    1 => Term::Var(y),
                    c => Term::Const(Value::int(c as i64 - 2)),
                })
                .collect();
            cq.set_head(head.clone());
            let arity = match draw(6) {
                0 => head.len() + 1,
                1 => head.len().saturating_sub(1),
                _ => head.len(),
            };
            let answer: Vec<Value> = (0..arity).map(|_| Value::int(draw(2) as i64)).collect();
            let grounded = std::panic::catch_unwind(|| cq.try_ground(&answer))
                .unwrap_or_else(|_| panic!("round {round}: try_ground panicked on {answer:?}"));
            assert_eq!(
                grounded.as_ref().err(),
                cq.check_answer(&answer).err().as_ref(),
                "round {round}"
            );
            match grounded {
                Ok(g) => {
                    valid += 1;
                    assert!(g.is_boolean());
                    let bound = |v: VarId| head.iter().position(|t| t.as_var() == Some(v));
                    for (term, v) in g.atoms()[0].terms.iter().zip([x, y]) {
                        match bound(v) {
                            Some(i) => assert_eq!(term, &Term::Const(answer[i].clone())),
                            None => assert_eq!(term, &Term::Var(v)),
                        }
                    }
                }
                Err(e) => {
                    invalid += 1;
                    assert!(matches!(e, EngineError::InvalidAnswer { .. }), "{e:?}");
                }
            }
        }
        assert!(
            valid > 200 && invalid > 200,
            "{valid} valid, {invalid} invalid"
        );
    }

    #[test]
    fn self_join_detection() {
        assert!(!q("q :- R(x, y), S(y, z)").has_self_join());
        assert!(q("q :- R(x), S(x, y), R(y)").has_self_join());
    }

    #[test]
    fn rewrite_surgery() {
        // Example 4.8 first step: add x to T in R(x,y),S(y,z),T(z,u),K(u,x).
        let mut cq = q("q :- R(x, y), S(y, z), T(z, u), K(u, x)");
        let x = cq.find_var("x").unwrap();
        let u = cq.find_var("u").unwrap();
        cq.add_var_where(u, x); // atoms containing u: T, K. K already has x.
        assert_eq!(cq.to_string(), "q :- R(x, y), S(y, z), T(z, u, x), K(u, x)");

        let z = cq.find_var("z").unwrap();
        cq.delete_var(z);
        assert_eq!(cq.to_string(), "q :- R(x, y), S(y), T(u, x), K(u, x)");

        cq.remove_atom(3);
        assert_eq!(cq.to_string(), "q :- R(x, y), S(y), T(u, x)");
    }

    #[test]
    fn dedup_atoms_removes_syntactic_duplicates() {
        let mut cq = q("q :- R(x, y), R(x, y), S(y)");
        cq.dedup_atoms();
        assert_eq!(cq.atoms().len(), 2);
    }

    #[test]
    fn signature_is_renaming_invariant() {
        let a = q("q :- R(x, y), S(y, z)");
        let b = q("p :- R(u, v), S(v, w)");
        let c = q("q :- R(x, x), S(y, z)");
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn substitution() {
        let mut cq = q("q :- R(x, y), S(y)");
        let y = cq.find_var("y").unwrap();
        cq.substitute_var(y, &Term::Const(Value::str("a3")));
        assert_eq!(cq.to_string(), "q :- R(x, 'a3'), S('a3')");
    }
}
