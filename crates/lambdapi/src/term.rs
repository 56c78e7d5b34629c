//! Syntax of λπ⩽ terms, values and processes (Fig. 2).
//!
//! Following the paper, processes (`end`, `send`, `recv`, `||`) are a subset of
//! terms, and values include booleans, channel instances, λ-abstractions, the
//! unit value and the error value `err`. The calculus is "routinely extended"
//! (Def. 2.1) with integers, strings and a few arithmetic/comparison operators,
//! which the paper's examples use (payment amounts, `"Hi!"` messages, `x > y`).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::name::{ChanId, Name};
use crate::ty::Type;

/// Primitive binary operators — part of the routine extension of λπ⩽ used by
/// the paper's examples (e.g. `pay.amount > 42000` in Fig. 1, `if x > y` in
/// Ex. 3.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer "greater than" comparison, yielding a boolean.
    Gt,
    /// Equality on integers, booleans, strings and unit, yielding a boolean.
    Eq,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinOp::Add => write!(f, "+"),
            BinOp::Sub => write!(f, "-"),
            BinOp::Gt => write!(f, ">"),
            BinOp::Eq => write!(f, "=="),
        }
    }
}

/// A λπ⩽ value (the set `V` of Fig. 2).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// A boolean constant.
    Bool(bool),
    /// An integer constant (routine extension).
    Int(i64),
    /// A string constant (routine extension).
    Str(String),
    /// The unit value `()`.
    Unit,
    /// A run-time channel instance `a ∈ C`, annotated with its payload type
    /// (rule [t-C] types `a^T : cio[T]`).
    Chan(ChanId, Type),
    /// A λ-abstraction `λx:U.t`; the domain annotation drives rule [t-λ].
    Lambda(Name, Type, Arc<Term>),
    /// The error value `err`, produced by the "go wrong" rules of Fig. 3.
    Err,
}

impl Value {
    /// Returns `true` for the error value.
    pub fn is_err(&self) -> bool {
        matches!(self, Value::Err)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Unit => write!(f, "()"),
            Value::Chan(id, _) => write!(f, "{id}"),
            Value::Lambda(x, ty, body) => write!(f, "λ{x}:{ty}.{body}"),
            Value::Err => write!(f, "err"),
        }
    }
}

/// A λπ⩽ term (the set `T` of Fig. 2), with processes (`P`) folded in as the
/// last four variants.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A variable `x ∈ X`.
    Var(Name),
    /// A value.
    Val(Value),
    /// Boolean negation `¬t`.
    Not(Arc<Term>),
    /// Conditional `if t then t1 else t2`.
    If(Arc<Term>, Arc<Term>, Arc<Term>),
    /// Let binding `let x:U = t in t'`; the annotation `U` drives rule [t-let]
    /// (it is the supertype used to type recursive references and to "forget"
    /// bound channels, cf. Ex. 3.5).
    Let(Name, Type, Arc<Term>, Arc<Term>),
    /// Function application `t t'`.
    App(Arc<Term>, Arc<Term>),
    /// Channel creation `chan()^T` (rule [t-chan] gives it type `cio[T]`).
    Chan(Type),
    /// Binary primitive operation (routine extension).
    BinOp(BinOp, Arc<Term>, Arc<Term>),
    /// The terminated process `end`.
    End,
    /// The output process `send(t, t', t'')`: send `t'` on `t`, continue as the
    /// thunk `t''`.
    Send(Arc<Term>, Arc<Term>, Arc<Term>),
    /// The input process `recv(t, t')`: receive from `t`, continue as the
    /// abstraction `t'` applied to the received value.
    Recv(Arc<Term>, Arc<Term>),
    /// Parallel composition `t || t'`.
    Par(Arc<Term>, Arc<Term>),
}

impl Term {
    // ----- constructors --------------------------------------------------------

    /// A variable term.
    pub fn var(x: impl Into<Name>) -> Term {
        Term::Var(x.into())
    }

    /// A boolean literal.
    pub fn bool(b: bool) -> Term {
        Term::Val(Value::Bool(b))
    }

    /// An integer literal.
    pub fn int(i: i64) -> Term {
        Term::Val(Value::Int(i))
    }

    /// A string literal.
    pub fn str(s: impl Into<String>) -> Term {
        Term::Val(Value::Str(s.into()))
    }

    /// The unit literal.
    pub fn unit() -> Term {
        Term::Val(Value::Unit)
    }

    /// The error value.
    pub fn err() -> Term {
        Term::Val(Value::Err)
    }

    /// A λ-abstraction `λx:ty.body`.
    pub fn lam(x: impl Into<Name>, ty: Type, body: Term) -> Term {
        Term::Val(Value::Lambda(x.into(), ty, Arc::new(body)))
    }

    /// A thunk `λ_:().body` — the shape expected as a `send` continuation.
    pub fn thunk(body: Term) -> Term {
        Term::lam("_", Type::Unit, body)
    }

    /// Function application.
    pub fn app(f: Term, a: Term) -> Term {
        Term::App(Arc::new(f), Arc::new(a))
    }

    /// Curried application to several arguments, left to right.
    pub fn app_all<I: IntoIterator<Item = Term>>(f: Term, args: I) -> Term {
        args.into_iter().fold(f, Term::app)
    }

    /// Boolean negation.
    #[allow(clippy::should_implement_trait)] // constructor convention, like `Formula::not`
    pub fn not(t: Term) -> Term {
        Term::Not(Arc::new(t))
    }

    /// Conditional.
    pub fn ite(c: Term, t: Term, e: Term) -> Term {
        Term::If(Arc::new(c), Arc::new(t), Arc::new(e))
    }

    /// Let binding with a type annotation.
    pub fn let_(x: impl Into<Name>, ty: Type, bound: Term, body: Term) -> Term {
        Term::Let(x.into(), ty, Arc::new(bound), Arc::new(body))
    }

    /// Channel creation `chan()^T`.
    pub fn chan(payload: Type) -> Term {
        Term::Chan(payload)
    }

    /// Binary operation.
    pub fn binop(op: BinOp, a: Term, b: Term) -> Term {
        Term::BinOp(op, Arc::new(a), Arc::new(b))
    }

    /// Output process `send(chan, payload, cont)`.
    pub fn send(chan: Term, payload: Term, cont: Term) -> Term {
        Term::Send(Arc::new(chan), Arc::new(payload), Arc::new(cont))
    }

    /// Input process `recv(chan, cont)`.
    pub fn recv(chan: Term, cont: Term) -> Term {
        Term::Recv(Arc::new(chan), Arc::new(cont))
    }

    /// Parallel composition.
    pub fn par(a: Term, b: Term) -> Term {
        Term::Par(Arc::new(a), Arc::new(b))
    }

    /// N-ary parallel composition (`end` when empty).
    pub fn par_all<I: IntoIterator<Item = Term>>(ts: I) -> Term {
        let mut it = ts.into_iter();
        match it.next() {
            None => Term::End,
            Some(first) => it.fold(first, Term::par),
        }
    }

    // ----- classification ------------------------------------------------------

    /// Returns `Some(v)` if the term is a value.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            Term::Val(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` if the term is a value (element of `V`).
    pub fn is_value(&self) -> bool {
        matches!(self, Term::Val(_))
    }

    /// Returns `true` if the term is a process term (element of `P` in Fig. 2):
    /// `end`, `send(...)`, `recv(...)` or a parallel composition.
    pub fn is_process(&self) -> bool {
        matches!(
            self,
            Term::End | Term::Send(..) | Term::Recv(..) | Term::Par(..)
        )
    }

    /// Returns `true` if the term is a value or a variable (the class `w` used
    /// by evaluation contexts and by the open-term semantics of Fig. 5).
    pub fn is_value_or_var(&self) -> bool {
        self.is_value() || matches!(self, Term::Var(_))
    }

    /// Returns `true` if the term contains `err` as a subterm (i.e. "has an
    /// error" in the sense of Def. 2.4 once it is in evaluation position, and a
    /// conservative syntactic check otherwise).
    pub fn contains_err(&self) -> bool {
        match self {
            Term::Val(Value::Err) => true,
            Term::Val(Value::Lambda(_, _, body)) => body.contains_err(),
            Term::Val(_) | Term::Var(_) | Term::End | Term::Chan(_) => false,
            Term::Not(t) => t.contains_err(),
            Term::If(a, b, c) => a.contains_err() || b.contains_err() || c.contains_err(),
            Term::Let(_, _, a, b) | Term::App(a, b) | Term::Par(a, b) | Term::Recv(a, b) => {
                a.contains_err() || b.contains_err()
            }
            Term::BinOp(_, a, b) => a.contains_err() || b.contains_err(),
            Term::Send(a, b, c) => a.contains_err() || b.contains_err() || c.contains_err(),
        }
    }

    // ----- free variables ------------------------------------------------------

    /// The free term variables of the term (`fv(t)` in Def. 2.1).
    pub fn free_vars(&self) -> BTreeSet<Name> {
        let mut acc = BTreeSet::new();
        self.collect_free_vars(&mut Vec::new(), &mut acc);
        acc
    }

    fn collect_free_vars(&self, bound: &mut Vec<Name>, acc: &mut BTreeSet<Name>) {
        match self {
            Term::Var(x) => {
                if !bound.contains(x) {
                    acc.insert(x.clone());
                }
            }
            Term::Val(Value::Lambda(x, _, body)) => {
                bound.push(x.clone());
                body.collect_free_vars(bound, acc);
                bound.pop();
            }
            Term::Val(_) | Term::End | Term::Chan(_) => {}
            Term::Not(t) => t.collect_free_vars(bound, acc),
            Term::If(a, b, c) => {
                a.collect_free_vars(bound, acc);
                b.collect_free_vars(bound, acc);
                c.collect_free_vars(bound, acc);
            }
            Term::Let(x, _, bound_term, body) => {
                // Note: rule [t-let] allows t to refer to x (recursion), so x is
                // bound in *both* the bound term and the body.
                bound.push(x.clone());
                bound_term.collect_free_vars(bound, acc);
                body.collect_free_vars(bound, acc);
                bound.pop();
            }
            Term::App(a, b) | Term::Par(a, b) | Term::Recv(a, b) => {
                a.collect_free_vars(bound, acc);
                b.collect_free_vars(bound, acc);
            }
            Term::BinOp(_, a, b) => {
                a.collect_free_vars(bound, acc);
                b.collect_free_vars(bound, acc);
            }
            Term::Send(a, b, c) => {
                a.collect_free_vars(bound, acc);
                b.collect_free_vars(bound, acc);
                c.collect_free_vars(bound, acc);
            }
        }
    }

    /// Returns `true` when the term has no free variables.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// The largest run-time channel identifier occurring in the term, if any.
    ///
    /// Rule [R-chan()] uses this to pick a *structurally fresh* instance
    /// (`max + 1`): freshness only has to hold within the reducing term, and
    /// deriving it from the term itself makes reduction a pure function of
    /// the term — the property the memoized open-term semantics and the
    /// deterministic parallel exploration both rest on.
    pub fn max_chan_id(&self) -> Option<ChanId> {
        match self {
            Term::Val(Value::Chan(id, _)) => Some(*id),
            Term::Val(Value::Lambda(_, _, body)) => body.max_chan_id(),
            Term::Var(_) | Term::Val(_) | Term::End | Term::Chan(_) => None,
            Term::Not(t) => t.max_chan_id(),
            Term::If(a, b, c) | Term::Send(a, b, c) => {
                [a, b, c].into_iter().filter_map(|t| t.max_chan_id()).max()
            }
            Term::Let(_, _, a, b)
            | Term::App(a, b)
            | Term::Par(a, b)
            | Term::Recv(a, b)
            | Term::BinOp(_, a, b) => [a, b].into_iter().filter_map(|t| t.max_chan_id()).max(),
        }
    }

    /// Syntactic size (number of constructors).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::End | Term::Chan(_) => 1,
            Term::Val(Value::Lambda(_, _, body)) => 1 + body.size(),
            Term::Val(_) => 1,
            Term::Not(t) => 1 + t.size(),
            Term::If(a, b, c) | Term::Send(a, b, c) => 1 + a.size() + b.size() + c.size(),
            Term::Let(_, _, a, b) => 1 + a.size() + b.size(),
            Term::App(a, b) | Term::Par(a, b) | Term::Recv(a, b) | Term::BinOp(_, a, b) => {
                1 + a.size() + b.size()
            }
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Val(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(x) => write!(f, "{x}"),
            Term::Val(v) => write!(f, "{v}"),
            Term::Not(t) => write!(f, "¬{t}"),
            Term::If(c, t, e) => write!(f, "if {c} then {t} else {e}"),
            Term::Let(x, ty, b, body) => write!(f, "let {x}:{ty} = {b} in {body}"),
            Term::App(a, b) => write!(f, "({a} {b})"),
            Term::Chan(ty) => write!(f, "chan[{ty}]()"),
            Term::BinOp(op, a, b) => write!(f, "({a} {op} {b})"),
            Term::End => write!(f, "end"),
            Term::Send(c, v, k) => write!(f, "send({c}, {v}, {k})"),
            Term::Recv(c, k) => write!(f, "recv({c}, {k})"),
            Term::Par(a, b) => write!(f, "({a} || {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_and_processes_are_classified() {
        assert!(Term::bool(true).is_value());
        assert!(Term::lam("x", Type::Bool, Term::var("x")).is_value());
        assert!(!Term::var("x").is_value());
        assert!(Term::var("x").is_value_or_var());
        assert!(Term::End.is_process());
        assert!(Term::send(Term::var("c"), Term::int(1), Term::thunk(Term::End)).is_process());
        assert!(!Term::int(3).is_process());
    }

    #[test]
    fn free_vars_respect_binders() {
        // λx.x has no free vars; send(c, x, λ_.end) has {c, x}.
        let id = Term::lam("x", Type::Bool, Term::var("x"));
        assert!(id.is_closed());
        let s = Term::send(Term::var("c"), Term::var("x"), Term::thunk(Term::End));
        let fv = s.free_vars();
        assert!(fv.contains(&Name::new("c")));
        assert!(fv.contains(&Name::new("x")));
        assert_eq!(fv.len(), 2);
    }

    #[test]
    fn let_binds_in_bound_term_for_recursion() {
        // let f = λx. f x in f — f is not free (rule [t-let] allows recursion).
        let t = Term::let_(
            "f",
            Type::Top,
            Term::lam("x", Type::Bool, Term::app(Term::var("f"), Term::var("x"))),
            Term::var("f"),
        );
        assert!(t.is_closed());
    }

    #[test]
    fn contains_err_detects_nested_errors() {
        let ok = Term::send(Term::var("c"), Term::int(1), Term::thunk(Term::End));
        assert!(!ok.contains_err());
        let bad = Term::par(Term::End, Term::app(Term::err(), Term::unit()));
        assert!(bad.contains_err());
        let nested = Term::lam("x", Type::Bool, Term::err());
        assert!(nested.contains_err());
    }

    #[test]
    fn display_round_trips_key_syntax() {
        let t = Term::send(
            Term::var("pongc"),
            Term::var("self"),
            Term::thunk(Term::End),
        );
        let s = t.to_string();
        assert!(s.contains("send(pongc, self"));
        assert!(Term::par(Term::End, Term::End).to_string().contains("||"));
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(Term::End.size(), 1);
        assert!(Term::par(Term::End, Term::End).size() >= 3);
    }
}
