//! Syntax of λπ⩽ types (Def. 3.1) and purely syntactic operations on them:
//! free variables, substitution, unfolding of recursive types, the structural
//! congruence ≡, normalisation, and well-formedness side conditions
//! (contractivity, guardedness, negative occurrences).
//!
//! The *judgements* over types (validity, subtyping, typing) live in the
//! `dbt-types` crate; this module only provides the raw syntax they operate on.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::name::{Name, NameGen};

/// A λπ⩽ type (Def. 3.1).
///
/// The first group of variants are the "functional" types: base types, the
/// top/bottom types, union types, dependent function types `Π(x:U)T`,
/// equi-recursive types `µt.T`, term variables used as types (`x`, underlined in
/// the paper) and recursion variables.
///
/// The second group are channel types: `cio[T]` (input *and* output), `ci[T]`
/// (input only) and `co[T]` (output only).
///
/// The third group are process (π-)types: the top process type `proc`, the
/// terminated process `nil`, output `o[S,T,U]`, input `i[S,T]`, and parallel
/// composition `p[T,U]`.
///
/// `Int` and `Str` are the routine extensions mentioned after Def. 2.1 (used by
/// the paper's examples, e.g. the `"Hi!"` message of Ex. 2.2 and the payment
/// amounts of Fig. 1).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Type {
    /// Booleans.
    Bool,
    /// The unit type `()`.
    Unit,
    /// Integers (routine extension).
    Int,
    /// Strings (routine extension).
    Str,
    /// The top type ⊤.
    Top,
    /// The bottom type ⊥.
    Bottom,
    /// Union type `T ∨ U`.
    Union(Arc<Type>, Arc<Type>),
    /// Dependent function type `Π(x:U)T`; binds `x` with scope `T`.
    Pi(Name, Arc<Type>, Arc<Type>),
    /// Equi-recursive type `µt.T`; binds the recursion variable `t` in `T`.
    Rec(Name, Arc<Type>),
    /// A term variable `x` used as a type (the "underlined x" of Def. 3.1).
    Var(Name),
    /// A recursion variable bound by an enclosing [`Type::Rec`].
    RecVar(Name),
    /// Channel type `cio[T]`: values of type `T` may be sent and received.
    ChanIO(Arc<Type>),
    /// Channel type `ci[T]`: input-only endpoint.
    ChanIn(Arc<Type>),
    /// Channel type `co[T]`: output-only endpoint.
    ChanOut(Arc<Type>),
    /// The generic process type `proc` (top of the π-types).
    Proc,
    /// The terminated process type `nil`.
    Nil,
    /// Output type `o[S,T,U]`: send a `T` on an `S`-typed channel, continue as `U`.
    Out(Arc<Type>, Arc<Type>, Arc<Type>),
    /// Input type `i[S,T]`: receive from an `S`-typed channel, continue as `T`
    /// (which is a dependent function type over the received value).
    In(Arc<Type>, Arc<Type>),
    /// Parallel composition type `p[T,U]`.
    Par(Arc<Type>, Arc<Type>),
}

impl Type {
    // ----- convenience constructors ------------------------------------------------

    /// Builds the union type `T ∨ U`.
    pub fn union(t: Type, u: Type) -> Type {
        Type::Union(Arc::new(t), Arc::new(u))
    }

    /// Builds the dependent function type `Π(x:U)T`.
    pub fn pi(x: impl Into<Name>, dom: Type, body: Type) -> Type {
        Type::Pi(x.into(), Arc::new(dom), Arc::new(body))
    }

    /// Builds `Π(_:())T`, written `Π()T` in the paper (a process thunk type).
    pub fn thunk(body: Type) -> Type {
        Type::pi("_", Type::Unit, body)
    }

    /// Builds the recursive type `µt.T`.
    pub fn rec(t: impl Into<Name>, body: Type) -> Type {
        Type::Rec(t.into(), Arc::new(body))
    }

    /// Builds the type variable `x` (a term variable used as a type).
    pub fn var(x: impl Into<Name>) -> Type {
        Type::Var(x.into())
    }

    /// Builds the recursion variable `t`.
    pub fn rec_var(t: impl Into<Name>) -> Type {
        Type::RecVar(t.into())
    }

    /// Builds the channel type `cio[T]`.
    pub fn chan_io(t: Type) -> Type {
        Type::ChanIO(Arc::new(t))
    }

    /// Builds the channel type `ci[T]`.
    pub fn chan_in(t: Type) -> Type {
        Type::ChanIn(Arc::new(t))
    }

    /// Builds the channel type `co[T]`.
    pub fn chan_out(t: Type) -> Type {
        Type::ChanOut(Arc::new(t))
    }

    /// Builds the output process type `o[S,T,U]`.
    pub fn out(subj: Type, payload: Type, cont: Type) -> Type {
        Type::Out(Arc::new(subj), Arc::new(payload), Arc::new(cont))
    }

    /// Builds the input process type `i[S,T]`.
    pub fn inp(subj: Type, cont: Type) -> Type {
        Type::In(Arc::new(subj), Arc::new(cont))
    }

    /// Builds the parallel process type `p[T,U]`.
    pub fn par(t: Type, u: Type) -> Type {
        Type::Par(Arc::new(t), Arc::new(u))
    }

    /// Builds the n-ary parallel composition of `ts`, or `nil` when empty.
    pub fn par_all<I: IntoIterator<Item = Type>>(ts: I) -> Type {
        let mut it = ts.into_iter();
        match it.next() {
            None => Type::Nil,
            Some(first) => it.fold(first, Type::par),
        }
    }

    /// Builds the n-ary union of `ts`.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is empty (the empty union is not a λπ⩽ type).
    pub fn union_all<I: IntoIterator<Item = Type>>(ts: I) -> Type {
        let mut it = ts.into_iter();
        let first = it.next().expect("union_all requires at least one type");
        it.fold(first, Type::union)
    }

    // ----- classification ----------------------------------------------------------

    /// Returns `true` if the top constructor is one of the process-type
    /// constructors (`proc`, `nil`, `o`, `i`, `p`), or a union / recursion /
    /// recursion-variable that may stand for one.
    ///
    /// This is a purely syntactic approximation of the judgement
    /// `Γ ⊢ T π-type`; the real judgement is in the `dbt-types` crate.
    pub fn is_process_shaped(&self) -> bool {
        match self {
            Type::Proc | Type::Nil | Type::Out(..) | Type::In(..) | Type::Par(..) => true,
            Type::Union(a, b) => a.is_process_shaped() && b.is_process_shaped(),
            Type::Rec(_, body) => body.is_process_shaped(),
            Type::RecVar(_) => true,
            _ => false,
        }
    }

    // ----- free variables -----------------------------------------------------------

    /// The set of free *term* variables occurring in the type (the `x` of Def. 3.1).
    ///
    /// `Π(x:U)T` and `µt.T` bind `x` / `t` respectively; recursion variables are
    /// not term variables and are not reported here (see [`Type::free_rec_vars`]).
    pub fn free_vars(&self) -> BTreeSet<Name> {
        let mut acc = BTreeSet::new();
        self.collect_free_vars(&mut Vec::new(), &mut acc);
        acc
    }

    fn collect_free_vars(&self, bound: &mut Vec<Name>, acc: &mut BTreeSet<Name>) {
        match self {
            Type::Var(x) => {
                if !bound.contains(x) {
                    acc.insert(x.clone());
                }
            }
            Type::RecVar(_) => {}
            Type::Bool
            | Type::Unit
            | Type::Int
            | Type::Str
            | Type::Top
            | Type::Bottom
            | Type::Proc
            | Type::Nil => {}
            Type::Union(a, b) | Type::Par(a, b) => {
                a.collect_free_vars(bound, acc);
                b.collect_free_vars(bound, acc);
            }
            Type::Pi(x, dom, body) => {
                dom.collect_free_vars(bound, acc);
                bound.push(x.clone());
                body.collect_free_vars(bound, acc);
                bound.pop();
            }
            Type::Rec(_, body) => body.collect_free_vars(bound, acc),
            Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => t.collect_free_vars(bound, acc),
            Type::Out(s, t, u) => {
                s.collect_free_vars(bound, acc);
                t.collect_free_vars(bound, acc);
                u.collect_free_vars(bound, acc);
            }
            Type::In(s, t) => {
                s.collect_free_vars(bound, acc);
                t.collect_free_vars(bound, acc);
            }
        }
    }

    /// The set of free *recursion* variables (those not bound by a `µ`).
    pub fn free_rec_vars(&self) -> BTreeSet<Name> {
        let mut acc = BTreeSet::new();
        self.collect_free_rec_vars(&mut Vec::new(), &mut acc);
        acc
    }

    fn collect_free_rec_vars(&self, bound: &mut Vec<Name>, acc: &mut BTreeSet<Name>) {
        match self {
            Type::RecVar(t) if !bound.contains(t) => {
                acc.insert(t.clone());
            }
            Type::Rec(t, body) => {
                bound.push(t.clone());
                body.collect_free_rec_vars(bound, acc);
                bound.pop();
            }
            Type::Union(a, b) | Type::Par(a, b) => {
                a.collect_free_rec_vars(bound, acc);
                b.collect_free_rec_vars(bound, acc);
            }
            Type::Pi(_, dom, body) => {
                dom.collect_free_rec_vars(bound, acc);
                body.collect_free_rec_vars(bound, acc);
            }
            Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => {
                t.collect_free_rec_vars(bound, acc)
            }
            Type::Out(s, t, u) => {
                s.collect_free_rec_vars(bound, acc);
                t.collect_free_rec_vars(bound, acc);
                u.collect_free_rec_vars(bound, acc);
            }
            Type::In(s, t) => {
                s.collect_free_rec_vars(bound, acc);
                t.collect_free_rec_vars(bound, acc);
            }
            _ => {}
        }
    }

    /// Returns `true` when the type contains no free term variables.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    // ----- substitution -------------------------------------------------------------

    /// Capture-avoiding substitution `T{S/x}` of type `S` for the free term
    /// variable `x` (Def. 3.1). This is the type-level substitution that gives
    /// dependent function types their power: `(Π(x:U)T) S = T{S/x}`.
    pub fn subst_var(&self, x: &Name, s: &Type) -> Type {
        match self {
            Type::Var(y) if y == x => s.clone(),
            Type::Var(_)
            | Type::RecVar(_)
            | Type::Bool
            | Type::Unit
            | Type::Int
            | Type::Str
            | Type::Top
            | Type::Bottom
            | Type::Proc
            | Type::Nil => self.clone(),
            Type::Union(a, b) => Type::union(a.subst_var(x, s), b.subst_var(x, s)),
            Type::Par(a, b) => Type::par(a.subst_var(x, s), b.subst_var(x, s)),
            Type::Pi(y, dom, body) => {
                let dom2 = dom.subst_var(x, s);
                if y == x {
                    // x is shadowed in the body.
                    Type::Pi(y.clone(), Arc::new(dom2), body.clone())
                } else if s.free_vars().contains(y) {
                    // Avoid capture: α-rename the binder.
                    let gen = NameGen::new();
                    let mut fresh = gen.fresh(y.as_str());
                    let avoid: BTreeSet<Name> =
                        s.free_vars().into_iter().chain(body.free_vars()).collect();
                    while avoid.contains(&fresh) {
                        fresh = gen.fresh(y.as_str());
                    }
                    let body2 = body.subst_var(y, &Type::Var(fresh.clone()));
                    Type::pi(fresh, dom2, body2.subst_var(x, s))
                } else {
                    Type::pi(y.clone(), dom2, body.subst_var(x, s))
                }
            }
            Type::Rec(t, body) => Type::rec(t.clone(), body.subst_var(x, s)),
            Type::ChanIO(t) => Type::chan_io(t.subst_var(x, s)),
            Type::ChanIn(t) => Type::chan_in(t.subst_var(x, s)),
            Type::ChanOut(t) => Type::chan_out(t.subst_var(x, s)),
            Type::Out(a, b, c) => {
                Type::out(a.subst_var(x, s), b.subst_var(x, s), c.subst_var(x, s))
            }
            Type::In(a, b) => Type::inp(a.subst_var(x, s), b.subst_var(x, s)),
        }
    }

    /// Substitution of a type for a *recursion* variable, `T{S/t}` — used by
    /// [`Type::unfold`].
    pub fn subst_rec_var(&self, t: &Name, s: &Type) -> Type {
        match self {
            Type::RecVar(u) if u == t => s.clone(),
            Type::Rec(u, body) if u == t => Type::Rec(u.clone(), body.clone()),
            Type::Rec(u, body) => Type::rec(u.clone(), body.subst_rec_var(t, s)),
            Type::Var(_)
            | Type::RecVar(_)
            | Type::Bool
            | Type::Unit
            | Type::Int
            | Type::Str
            | Type::Top
            | Type::Bottom
            | Type::Proc
            | Type::Nil => self.clone(),
            Type::Union(a, b) => Type::union(a.subst_rec_var(t, s), b.subst_rec_var(t, s)),
            Type::Par(a, b) => Type::par(a.subst_rec_var(t, s), b.subst_rec_var(t, s)),
            Type::Pi(y, dom, body) => {
                Type::pi(y.clone(), dom.subst_rec_var(t, s), body.subst_rec_var(t, s))
            }
            Type::ChanIO(x) => Type::chan_io(x.subst_rec_var(t, s)),
            Type::ChanIn(x) => Type::chan_in(x.subst_rec_var(t, s)),
            Type::ChanOut(x) => Type::chan_out(x.subst_rec_var(t, s)),
            Type::Out(a, b, c) => Type::out(
                a.subst_rec_var(t, s),
                b.subst_rec_var(t, s),
                c.subst_rec_var(t, s),
            ),
            Type::In(a, b) => Type::inp(a.subst_rec_var(t, s), b.subst_rec_var(t, s)),
        }
    }

    /// Unfolds a recursive type once: `µt.T ≡ T{µt.T/t}`. Other types are
    /// returned unchanged.
    pub fn unfold(&self) -> Type {
        match self {
            Type::Rec(t, body) => body.subst_rec_var(t, self),
            _ => self.clone(),
        }
    }

    /// Repeatedly unfolds top-level `µ`s until the head constructor is not a
    /// `µ` (bounded by `limit` unfoldings to stay total on malformed input).
    pub fn unfold_head(&self, limit: usize) -> Type {
        let mut cur = self.clone();
        for _ in 0..limit {
            match cur {
                Type::Rec(..) => cur = cur.unfold(),
                _ => break,
            }
        }
        cur
    }

    // ----- application (dependent function types) -----------------------------------

    /// Type-level application: if `self = Π(x:U')U`, returns `U{S/x}`
    /// (written `T S` in Def. 3.1). Returns `None` for non-Π types.
    pub fn apply(&self, s: &Type) -> Option<Type> {
        match self {
            Type::Pi(x, _, body) => Some(body.subst_var(x, s)),
            _ => None,
        }
    }

    /// Applies a sequence of argument types left-to-right (see Ex. 3.3, where
    /// `Tping y z` instantiates both channel parameters).
    pub fn apply_all(&self, args: &[Type]) -> Option<Type> {
        let mut cur = self.clone();
        for a in args {
            cur = cur.apply(a)?;
        }
        Some(cur)
    }

    // ----- well-formedness side conditions -------------------------------------------

    /// Contractivity check for `µx.T` (side condition of [T-µ]/[π-µ]): the body
    /// must not be (up to further `µ`s and unions) just the recursion variable,
    /// i.e. types like `µt1.µt2.(t1 ∨ U)` are rejected.
    pub fn is_contractive(&self) -> bool {
        fn body_ok(body: &Type, binders: &[Name]) -> bool {
            match body {
                Type::RecVar(t) => !binders.contains(t),
                Type::Union(a, b) => body_ok(a, binders) && body_ok(b, binders),
                Type::Rec(t, inner) => {
                    let mut bs = binders.to_vec();
                    bs.push(t.clone());
                    body_ok(inner, &bs)
                }
                _ => true,
            }
        }
        match self {
            Type::Rec(t, body) => {
                body_ok(body, std::slice::from_ref(t))
                    && !matches!(
                        Self::strip_unions_for_varcheck(body, t),
                        StripResult::BareVar
                    )
            }
            _ => true,
        }
    }

    /// Checks the `T ∉ {U | ∃U', z: U ≡ U' ∨ z}` side condition of [T-µ]:
    /// the body of a recursive type may not be congruent to `U' ∨ z` for a
    /// term variable `z`.
    pub fn rec_body_is_not_union_with_var(&self) -> bool {
        match self {
            Type::Rec(_, body) => !Self::union_members(body)
                .iter()
                .any(|m| matches!(m, Type::Var(_))),
            _ => true,
        }
    }

    fn strip_unions_for_varcheck(body: &Type, t: &Name) -> StripResult {
        match body {
            Type::RecVar(u) if u == t => StripResult::BareVar,
            Type::Union(a, b) => {
                match (
                    Self::strip_unions_for_varcheck(a, t),
                    Self::strip_unions_for_varcheck(b, t),
                ) {
                    (StripResult::BareVar, StripResult::BareVar) => StripResult::BareVar,
                    _ => StripResult::Other,
                }
            }
            _ => StripResult::Other,
        }
    }

    /// Returns the members of the (flattened) top-level union of this type.
    pub fn union_members(&self) -> Vec<Type> {
        let mut out = Vec::new();
        fn go(t: &Type, out: &mut Vec<Type>) {
            match t {
                Type::Union(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                other => out.push(other.clone()),
            }
        }
        go(self, &mut out);
        out
    }

    /// Returns the components of the (flattened) top-level parallel composition,
    /// dropping `nil` components (`p[T,nil] ≡ T`).
    pub fn par_members(&self) -> Vec<Type> {
        let mut out = Vec::new();
        fn go(t: &Type, out: &mut Vec<Type>) {
            match t {
                Type::Par(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                Type::Nil => {}
                other => out.push(other.clone()),
            }
        }
        go(self, &mut out);
        out
    }

    /// Guardedness in the sense of Lemma 4.7: for every π-type subterm `µt.U`,
    /// the recursion variable `t` occurs in `U` only inside an `i[...]` or
    /// `o[...]` constructor. Guarded types have decidable model checking.
    pub fn is_guarded(&self) -> bool {
        fn occurs_unguarded(t: &Name, ty: &Type) -> bool {
            match ty {
                Type::RecVar(u) => u == t,
                Type::Union(a, b) | Type::Par(a, b) => {
                    occurs_unguarded(t, a) || occurs_unguarded(t, b)
                }
                Type::Rec(u, body) => u != t && occurs_unguarded(t, body),
                Type::Pi(_, _, body) => occurs_unguarded(t, body),
                // Inside i[...] / o[...] the occurrence is guarded.
                Type::In(..) | Type::Out(..) => false,
                _ => false,
            }
        }
        fn go(ty: &Type) -> bool {
            match ty {
                Type::Rec(t, body) => !occurs_unguarded(t, body) && go(body),
                Type::Union(a, b) | Type::Par(a, b) => go(a) && go(b),
                Type::Pi(_, dom, body) => go(dom) && go(body),
                Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => go(t),
                Type::Out(a, b, c) => go(a) && go(b) && go(c),
                Type::In(a, b) => go(a) && go(b),
                _ => true,
            }
        }
        go(self)
    }

    /// Returns `true` if the type has a `p[...]` constructor somewhere under a
    /// `µ` binder — the class rejected by the Effpi verifier (known limitation 2,
    /// §5.1), because it yields infinite-state type LTSs.
    pub fn has_par_under_rec(&self) -> bool {
        fn contains_par(ty: &Type) -> bool {
            match ty {
                Type::Par(..) => true,
                Type::Union(a, b) => contains_par(a) || contains_par(b),
                Type::Rec(_, body) => contains_par(body),
                Type::Pi(_, dom, body) => contains_par(dom) || contains_par(body),
                Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => contains_par(t),
                Type::Out(a, b, c) => contains_par(a) || contains_par(b) || contains_par(c),
                Type::In(a, b) => contains_par(a) || contains_par(b),
                _ => false,
            }
        }
        fn go(ty: &Type) -> bool {
            match ty {
                Type::Rec(_, body) => contains_par(body) || go(body),
                Type::Union(a, b) | Type::Par(a, b) => go(a) || go(b),
                Type::Pi(_, dom, body) => go(dom) || go(body),
                Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => go(t),
                Type::Out(a, b, c) => go(a) || go(b) || go(c),
                Type::In(a, b) => go(a) || go(b),
                _ => false,
            }
        }
        go(self)
    }

    /// Whether `proc` occurs syntactically in the type (used by Thm. 4.10,
    /// which requires `proc ∉ T`).
    pub fn mentions_proc(&self) -> bool {
        match self {
            Type::Proc => true,
            Type::Union(a, b) | Type::Par(a, b) => a.mentions_proc() || b.mentions_proc(),
            Type::Pi(_, dom, body) => dom.mentions_proc() || body.mentions_proc(),
            Type::Rec(_, body) => body.mentions_proc(),
            Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => t.mentions_proc(),
            Type::Out(a, b, c) => a.mentions_proc() || b.mentions_proc() || c.mentions_proc(),
            Type::In(a, b) => a.mentions_proc() || b.mentions_proc(),
            _ => false,
        }
    }

    /// Checks that the term variable `x` does not occur in negative position
    /// (`x ∉ fv⁻(T)`, side condition of [T-µ]). Negative positions are the
    /// domains of dependent function types, with polarity flipping at each
    /// domain, as in F<:.
    pub fn not_in_negative_position(&self, x: &Name) -> bool {
        fn go(ty: &Type, x: &Name, positive: bool) -> bool {
            match ty {
                Type::Var(y) => positive || y != x,
                Type::Union(a, b) | Type::Par(a, b) => go(a, x, positive) && go(b, x, positive),
                Type::Pi(y, dom, body) => {
                    let dom_ok = go(dom, x, !positive);
                    let body_ok = if y == x { true } else { go(body, x, positive) };
                    dom_ok && body_ok
                }
                Type::Rec(_, body) => go(body, x, positive),
                Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => go(t, x, positive),
                Type::Out(a, b, c) => {
                    go(a, x, positive) && go(b, x, positive) && go(c, x, positive)
                }
                Type::In(a, b) => go(a, x, positive) && go(b, x, positive),
                _ => true,
            }
        }
        go(self, x, true)
    }

    // ----- structural congruence and normalisation -----------------------------------

    /// Normalises a type with respect to the structural congruence ≡ of
    /// Def. 3.1, *excluding* the `µ`-unfolding rule (handled coinductively by
    /// subtyping and the type LTS): unions are flattened, deduplicated and
    /// sorted; parallel compositions are flattened, `nil` components dropped and
    /// the rest sorted.
    pub fn normalize(&self) -> Type {
        match self {
            // Normalising a member can itself surface a union/par at the top
            // (e.g. `p[T∨U, nil] ≡ T∨U`), so the members are re-flattened
            // after normalisation — otherwise normalisation would not be
            // idempotent.
            Type::Union(..) => {
                let mut members: Vec<Type> = self
                    .union_members()
                    .iter()
                    .flat_map(|m| m.normalize().union_members())
                    .collect();
                members.sort();
                members.dedup();
                Type::union_all(members)
            }
            Type::Par(..) => {
                let mut members: Vec<Type> = self
                    .par_members()
                    .iter()
                    .flat_map(|m| m.normalize().par_members())
                    .collect();
                members.retain(|m| !matches!(m, Type::Nil));
                members.sort();
                Type::par_all(members)
            }
            Type::Pi(x, dom, body) => Type::pi(x.clone(), dom.normalize(), body.normalize()),
            Type::Rec(t, body) => Type::rec(t.clone(), body.normalize()),
            Type::ChanIO(t) => Type::chan_io(t.normalize()),
            Type::ChanIn(t) => Type::chan_in(t.normalize()),
            Type::ChanOut(t) => Type::chan_out(t.normalize()),
            Type::Out(a, b, c) => Type::out(a.normalize(), b.normalize(), c.normalize()),
            Type::In(a, b) => Type::inp(a.normalize(), b.normalize()),
            _ => self.clone(),
        }
    }

    /// Structural congruence test: `T ≡ U` for the non-`µ` rules of Def. 3.1
    /// (commutativity/associativity of ∨ and `p`, `p[T,nil] ≡ T`).
    pub fn cong_eq(&self, other: &Type) -> bool {
        self.normalize() == other.normalize()
    }

    /// Estimated syntactic size (number of constructors), useful as a fuel /
    /// complexity measure in tests and in the verifier's reporting.
    pub fn size(&self) -> usize {
        match self {
            Type::Union(a, b) | Type::Par(a, b) | Type::In(a, b) => 1 + a.size() + b.size(),
            Type::Pi(_, a, b) => 1 + a.size() + b.size(),
            Type::Rec(_, a) | Type::ChanIO(a) | Type::ChanIn(a) | Type::ChanOut(a) => 1 + a.size(),
            Type::Out(a, b, c) => 1 + a.size() + b.size() + c.size(),
            _ => 1,
        }
    }
}

enum StripResult {
    BareVar,
    Other,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Unit => write!(f, "()"),
            Type::Int => write!(f, "int"),
            Type::Str => write!(f, "str"),
            Type::Top => write!(f, "⊤"),
            Type::Bottom => write!(f, "⊥"),
            Type::Union(a, b) => write!(f, "({a} ∨ {b})"),
            Type::Pi(x, dom, body) => write!(f, "Π({x}:{dom}){body}"),
            Type::Rec(t, body) => write!(f, "µ{t}.{body}"),
            Type::Var(x) => write!(f, "{x}"),
            // Recursion variables print like plain identifiers; the parser
            // re-binds them through the enclosing µ, so printing round-trips.
            Type::RecVar(t) => write!(f, "{t}"),
            Type::ChanIO(t) => write!(f, "cio[{t}]"),
            Type::ChanIn(t) => write!(f, "ci[{t}]"),
            Type::ChanOut(t) => write!(f, "co[{t}]"),
            Type::Proc => write!(f, "proc"),
            Type::Nil => write!(f, "nil"),
            Type::Out(s, t, u) => write!(f, "o[{s}, {t}, {u}]"),
            Type::In(s, t) => write!(f, "i[{s}, {t}]"),
            Type::Par(a, b) => write!(f, "p[{a}, {b}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Name {
        Name::new("x")
    }

    #[test]
    fn free_vars_of_dependent_function_type() {
        // Π(x:cio[int]) o[x, int, Π()nil] has no free vars; o[x,...] alone has {x}.
        let body = Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil));
        assert_eq!(body.free_vars().len(), 1);
        let pi = Type::pi("x", Type::chan_io(Type::Int), body);
        assert!(pi.free_vars().is_empty());
    }

    #[test]
    fn pi_domain_vars_are_free() {
        let pi = Type::pi("x", Type::var("y"), Type::var("x"));
        let fv = pi.free_vars();
        assert!(fv.contains(&Name::new("y")));
        assert!(!fv.contains(&Name::new("x")));
    }

    #[test]
    fn substitution_replaces_free_occurrences_only() {
        let t = Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil));
        let s = t.subst_var(&x(), &Type::chan_io(Type::Int));
        assert_eq!(
            s,
            Type::out(Type::chan_io(Type::Int), Type::Int, Type::thunk(Type::Nil))
        );
        // Bound occurrences are untouched.
        let pi = Type::pi("x", Type::Int, Type::var("x"));
        assert_eq!(pi.subst_var(&x(), &Type::Bool), pi);
    }

    #[test]
    fn substitution_avoids_capture() {
        // (Π(y:int)x){y/x} must not capture the free y.
        let pi = Type::pi("y", Type::Int, Type::var("x"));
        let result = pi.subst_var(&x(), &Type::var("y"));
        if let Type::Pi(binder, _, body) = &result {
            assert_ne!(binder, &Name::new("y"));
            assert_eq!(**body, Type::var("y"));
        } else {
            panic!("expected a Pi type");
        }
    }

    #[test]
    fn type_application_substitutes_dependently() {
        // (Π(x:cio[str]) o[x, str, Π()nil]) y  =  o[y, str, Π()nil]
        let tping = Type::pi(
            "x",
            Type::chan_io(Type::Str),
            Type::out(Type::var("x"), Type::Str, Type::thunk(Type::Nil)),
        );
        let applied = tping.apply(&Type::var("y")).unwrap();
        assert_eq!(
            applied,
            Type::out(Type::var("y"), Type::Str, Type::thunk(Type::Nil))
        );
    }

    #[test]
    fn apply_all_matches_example_3_3() {
        // Tpp y z = p[Tping y z, Tpong z] style nested application.
        let t = Type::pi(
            "a",
            Type::chan_io(Type::Str),
            Type::pi(
                "b",
                Type::chan_io(Type::Str),
                Type::out(Type::var("b"), Type::var("a"), Type::thunk(Type::Nil)),
            ),
        );
        let r = t
            .apply_all(&[Type::var("y"), Type::var("z")])
            .expect("application");
        assert_eq!(
            r,
            Type::out(Type::var("z"), Type::var("y"), Type::thunk(Type::Nil))
        );
    }

    #[test]
    fn unfold_recursive_type() {
        // µt.i[x, Π(v:int)'t]  unfolds to  i[x, Π(v:int)µt.i[x, Π(v:int)'t]]
        let rec = Type::rec(
            "t",
            Type::inp(Type::var("x"), Type::pi("v", Type::Int, Type::rec_var("t"))),
        );
        let unfolded = rec.unfold();
        match unfolded {
            Type::In(_, cont) => match cont.as_ref() {
                Type::Pi(_, _, body) => assert_eq!(**body, rec),
                other => panic!("unexpected continuation {other:?}"),
            },
            other => panic!("unexpected unfolding {other:?}"),
        }
    }

    #[test]
    fn contractivity_rejects_unguarded_recursion() {
        let bad = Type::rec("t", Type::rec_var("t"));
        assert!(!bad.is_contractive());
        let bad2 = Type::rec(
            "t1",
            Type::rec("t2", Type::union(Type::rec_var("t1"), Type::Bool)),
        );
        assert!(!bad2.is_contractive());
        let good = Type::rec(
            "t",
            Type::inp(Type::var("x"), Type::pi("v", Type::Int, Type::rec_var("t"))),
        );
        assert!(good.is_contractive());
    }

    #[test]
    fn rec_body_union_with_term_variable_is_rejected() {
        let bad = Type::rec("t", Type::union(Type::Bool, Type::var("z")));
        assert!(!bad.rec_body_is_not_union_with_var());
        let good = Type::rec("t", Type::union(Type::Bool, Type::Int));
        assert!(good.rec_body_is_not_union_with_var());
    }

    #[test]
    fn guardedness_matches_lemma_4_7() {
        // µt. i[x, Π(v:int)'t] is guarded: t occurs under i[...].
        let guarded = Type::rec(
            "t",
            Type::inp(Type::var("x"), Type::pi("v", Type::Int, Type::rec_var("t"))),
        );
        assert!(guarded.is_guarded());
        // µt. ('t ∨ nil) is not guarded.
        let unguarded = Type::rec("t", Type::union(Type::rec_var("t"), Type::Nil));
        assert!(!unguarded.is_guarded());
    }

    #[test]
    fn par_under_rec_is_detected() {
        let t = Type::rec(
            "t",
            Type::inp(
                Type::var("x"),
                Type::pi("v", Type::Int, Type::par(Type::Nil, Type::rec_var("t"))),
            ),
        );
        assert!(t.has_par_under_rec());
        let ok = Type::par(
            Type::rec(
                "t",
                Type::inp(Type::var("x"), Type::pi("v", Type::Int, Type::rec_var("t"))),
            ),
            Type::Nil,
        );
        assert!(!ok.has_par_under_rec());
    }

    #[test]
    fn congruence_identifies_parallel_permutations() {
        let a = Type::par(Type::Nil, Type::par(Type::var("x"), Type::var("y")));
        let b = Type::par(Type::var("y"), Type::var("x"));
        assert!(a.cong_eq(&b));
        assert!(!a.cong_eq(&Type::var("x")));
    }

    #[test]
    fn congruence_identifies_union_permutations() {
        let a = Type::union(Type::Bool, Type::union(Type::Int, Type::Bool));
        let b = Type::union(Type::Int, Type::Bool);
        assert!(a.cong_eq(&b));
    }

    #[test]
    fn negative_occurrence_check() {
        // x occurs negatively in Π(y:x)nil.
        let t = Type::pi("y", Type::var("x"), Type::Nil);
        assert!(!t.not_in_negative_position(&x()));
        // x occurs positively in o[x, int, Π()nil].
        let t2 = Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil));
        assert!(t2.not_in_negative_position(&x()));
        // Double negation: Π(y:Π(z:x)bool)nil puts x back in positive position.
        let t3 = Type::pi("y", Type::pi("z", Type::var("x"), Type::Bool), Type::Nil);
        assert!(t3.not_in_negative_position(&x()));
    }

    #[test]
    fn display_is_readable() {
        let t = Type::pi(
            "p",
            Type::var("pay"),
            Type::out(Type::var("aud"), Type::var("p"), Type::thunk(Type::Nil)),
        );
        let s = t.to_string();
        assert!(s.contains("Π(p:pay)"));
        assert!(s.contains("o[aud, p,"));
    }

    #[test]
    fn mentions_proc_and_size() {
        let t = Type::par(Type::Proc, Type::Nil);
        assert!(t.mentions_proc());
        assert!(!Type::Nil.mentions_proc());
        assert!(t.size() >= 3);
    }
}
