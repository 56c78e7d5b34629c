//! The over-approximating labelled semantics of *open typed terms*
//! (Def. 4.1, Fig. 5).
//!
//! This LTS lets open terms move: a free variable `x` of boolean type can be
//! non-deterministically instantiated, `send`/`recv` on free channel variables
//! fire visible input/output labels, and two parallel components synchronise
//! on a common channel variable (rule [SR-Comm]), which is what makes the
//! conformance statements of Thm. 4.4/4.5 observable.
//!
//! Implementation notes (documented deviations):
//!
//! * Rule [SR-recv] is *early*: the received payload ranges over an infinite
//!   set of values. We enumerate a finite set of candidates — the environment
//!   variables whose type fits the channel payload, plus one canonical literal
//!   per base type — which is sufficient for the conformance checks and for
//!   the Fig. 7 (left column) examples.
//! * Rule [SR-x()] (instantiating an applied *variable* with an arbitrary
//!   function) is not enumerated, for the same reason; applied variables are
//!   treated as stuck.
//! * Context propagation ([SR-E]) is implemented for `let`-bindings of
//!   values/variables and for parallel compositions, which covers the shapes
//!   produced by the paper's examples.
//!
//! ## Hot-path design (hash consing)
//!
//! States are hash-consed references ([`TermRef`]) to terms, mirroring the
//! type side (`TypeLts` over `TyRef`):
//!
//! * seen-set `Eq`/`Hash` are 32-bit id operations — the exploration engine
//!   never re-hashes a term tree;
//! * two per-builder [`Memo`]s keyed by [`lambdapi::TermId`] — the
//!   interner's one sharded memo type, no hit counters on this parallel hot
//!   path — hold the *open* successor list of every state and sub-state (so
//!   a `||` product state reuses its components' transitions) and the
//!   early-input candidate vector of every receive subject; the full list
//!   (the [SR-→] step plus the open list) is not memoized, since exploration
//!   expands each state once;
//! * a `||` state goes through the one parallel-composition rule the type
//!   side uses too (the private `product` module): this builder only says
//!   when a send meets a receive and how components are reassembled;
//! * the ≡-flattening of `||` states and the free-variable queries hit the
//!   process-wide memos of [`lambdapi::intern`]
//!   ([`TermRef::par_components`] / [`TermRef::free_vars`]);
//! * the reducer is a *pure function of the term* (structurally fresh
//!   channels), which is what lets [`mod@crate::explore`] reproduce the
//!   serial state space byte-for-byte on any worker count.
//!
//! Successor lists are sorted by the **structural** order of
//! `(label, target term)` (`product::sorted`) — never by interner ids, whose
//! allocation order is racy under parallel exploration and must not leak
//! into state numbering.

use std::sync::Arc;

use dbt_types::{Checker, TypeEnv};
use lambdapi::intern::Memo;
use lambdapi::{Reducer, Term, TermRef, Type, Value};

use crate::explore::{self, Exploration, ExploreConfig};
use crate::generic::Lts;
use crate::label::TermLabel;
use crate::memory::IdTable;
use crate::product;

/// A successor list, shared between the open-rule memo and its consumers.
type SuccessorList = Arc<[(TermLabel, TermRef)]>;

/// Builder for the open-term LTS of Def. 4.1.
///
/// The memos are shared by every worker of a build (and by clones of the
/// builder).
#[derive(Clone, Debug)]
pub struct TermLts {
    env: TypeEnv,
    checker: Checker,
    reducer: Reducer,
    /// state id → open-rule successors only (the list the `||`
    /// interleaving and [SR-Comm] matching reuse per component).
    open_memo: Arc<Memo<u32, SuccessorList>>,
    /// receive-subject id → early-input payload candidates.
    candidate_memo: Arc<Memo<u32, Arc<[Term]>>>,
}

impl TermLts {
    /// Creates a builder for the given typing environment.
    pub fn new(env: TypeEnv) -> Self {
        Self::with_checker(env, Checker::new())
    }

    /// Creates a builder with a custom checker configuration.
    pub fn with_checker(env: TypeEnv, checker: Checker) -> Self {
        TermLts {
            env,
            checker,
            reducer: Reducer::new(),
            open_memo: Arc::default(),
            candidate_memo: Arc::default(),
        }
    }

    /// The typing environment.
    pub fn env(&self) -> &TypeEnv {
        &self.env
    }

    /// The subtyping checker.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Computes the successors `Γ ⊢ t --α--⇁ t'` of an interned term: the
    /// [SR-→] step plus the memoized open-rule list, in structural order.
    /// The full list is not memoized — exploration expands each state once —
    /// while the open lists are, so a `||` product state reuses its
    /// components' transitions instead of re-deriving them.
    pub fn successors(&self, t: &TermRef) -> SuccessorList {
        let mut out = self.open_successors(t).to_vec();
        // [SR-→]: the concrete reduction, labelled with its base rule.
        if let Some((next, rule)) = self.reducer.step(t.as_term()) {
            out.push((TermLabel::TauRule(rule), TermRef::new(next)));
        }
        product::sorted(out)
    }

    /// Convenience over a plain term (interning it on the way).
    pub fn successors_of(&self, t: &Term) -> Vec<(TermLabel, TermRef)> {
        self.successors(&TermRef::intern(t)).to_vec()
    }

    /// The open-rule successors of a state, memoized per [`lambdapi::TermId`]
    /// (this is the list the `||` case reuses per component, so it excludes
    /// the whole-term [SR-→] step).
    fn open_successors(&self, t: &TermRef) -> SuccessorList {
        let id = t.id().index();
        self.open_memo
            .get_or_insert_with(id, id, || self.compute_open_successors(t))
    }

    fn compute_open_successors(&self, t: &TermRef) -> SuccessorList {
        let mut out: Vec<(TermLabel, TermRef)> = Vec::new();
        match t.as_term() {
            // [SR-¬x]
            Term::Not(inner) => {
                if let Term::Var(x) = &**inner {
                    out.push((TermLabel::TauNeg(x.clone()), TermRef::new(Term::bool(true))));
                    out.push((
                        TermLabel::TauNeg(x.clone()),
                        TermRef::new(Term::bool(false)),
                    ));
                }
            }
            // [SR-if x]
            Term::If(cond, a, b) => {
                if let Term::Var(x) = &**cond {
                    out.push((
                        TermLabel::TauIf(x.clone()),
                        TermRef::from_arc(Arc::clone(a)),
                    ));
                    out.push((
                        TermLabel::TauIf(x.clone()),
                        TermRef::from_arc(Arc::clone(b)),
                    ));
                }
            }
            // [SR-λ()]
            Term::App(f, a) => {
                if let (Term::Val(Value::Lambda(x, _, body)), Term::Var(_)) = (&**f, &**a) {
                    out.push((TermLabel::TauLambdaApp, TermRef::new(body.subst(x, a))));
                }
            }
            // [SR-send]
            Term::Send(chan, payload, cont)
                if chan.is_value_or_var()
                    && payload.is_value_or_var()
                    && cont.is_value_or_var() =>
            {
                out.push((
                    TermLabel::Out {
                        subject: (**chan).clone(),
                        payload: (**payload).clone(),
                    },
                    TermRef::new(Term::app((**cont).clone(), Term::unit())),
                ));
            }
            // [SR-recv]
            Term::Recv(chan, cont) if chan.is_value_or_var() && cont.is_value_or_var() => {
                for candidate in self.receive_candidates(chan).iter() {
                    out.push((
                        TermLabel::In {
                            subject: (**chan).clone(),
                            payload: candidate.clone(),
                        },
                        TermRef::new(Term::app((**cont).clone(), candidate.clone())),
                    ));
                }
            }
            // Interleaving of components ([SR-E] with E || t and ≡) and
            // [SR-Comm]: a ready send and a ready receive on the same subject
            // synchronise; the receive fires with exactly the transmitted
            // payload (which need not be among the finitely enumerated
            // early-input candidates).
            Term::Par(..) => {
                let components = t.par_components();
                let succs: Vec<SuccessorList> =
                    components.iter().map(|c| self.open_successors(c)).collect();
                let sync = |label: &TermLabel, j: usize| match (label, components[j].as_term()) {
                    (TermLabel::Out { subject, payload }, Term::Recv(chan, cont))
                        if chan.is_value_or_var()
                            && cont.is_value_or_var()
                            && **chan == *subject =>
                    {
                        let next = TermRef::new(Term::app((**cont).clone(), payload.clone()));
                        Some((TermLabel::TauComm(subject.clone()), next))
                    }
                    _ => None,
                };
                out = product::par_successors(&components, &succs, sync, TermRef::rebuild_par);
            }
            // [SR-E] for `let x = w in E`, excluding labels that mention the
            // bound variable.
            Term::Let(x, ty, bound, body) if bound.is_value_or_var() => {
                let inner = self.open_successors(&TermRef::from_arc(Arc::clone(body)));
                for (label, next) in inner.iter() {
                    if label_mentions(label, x) {
                        continue;
                    }
                    out.push((
                        label.clone(),
                        TermRef::new(Term::Let(
                            x.clone(),
                            ty.clone(),
                            Arc::clone(bound),
                            Arc::clone(next.as_arc()),
                        )),
                    ));
                }
            }
            _ => {}
        }
        out.into()
    }

    /// Candidate payloads for an early receive on `chan`: environment
    /// variables whose type fits the channel's payload type, plus a canonical
    /// literal for base payload types. Memoized per receive subject, so the
    /// subtype probing of the environment runs once per distinct channel
    /// position instead of once per expansion.
    fn receive_candidates(&self, chan: &Term) -> Arc<[Term]> {
        let id = TermRef::intern(chan).id().index();
        self.candidate_memo.get_or_insert_with(id, id, || {
            let payload_ty = match chan {
                Term::Var(x) => self
                    .env
                    .lookup(x)
                    .and_then(|t| self.checker.resolve_channel(&self.env, t))
                    .map(|(_, p)| p),
                Term::Val(Value::Chan(_, p)) => Some(p.clone()),
                _ => None,
            };
            let mut candidates = Vec::new();
            if let Some(payload_ty) = payload_ty {
                for (x, _) in self.env.iter() {
                    if self
                        .checker
                        .is_subtype(&self.env, &Type::Var(x.clone()), &payload_ty)
                    {
                        candidates.push(Term::Var(x.clone()));
                    }
                }
                match payload_ty.normalize() {
                    Type::Int => candidates.push(Term::int(0)),
                    Type::Bool => candidates.push(Term::bool(true)),
                    Type::Str => candidates.push(Term::str("")),
                    Type::Unit => candidates.push(Term::unit()),
                    _ => {}
                }
            }
            candidates.into()
        })
    }

    /// Builds the explicit LTS reachable from `t`, bounded by `max_states`,
    /// by a serial breadth-first exploration.
    pub fn build(&self, t: &Term, max_states: usize) -> Lts<TermRef, TermLabel> {
        self.build_exploration(t, &ExploreConfig::serial(max_states))
            .lts
    }

    /// Like [`TermLts::build`], run as `config` says, and also reporting how
    /// the exploration ended. As on the type side, a *complete* build
    /// produces an LTS — states, numbering, transitions — identical for
    /// every `config`, by the canonical renumbering of
    /// [`mod@crate::explore`]. States are interner references, so the engine
    /// runs on its bitmap state table.
    pub fn build_exploration(
        &self,
        t: &Term,
        config: &ExploreConfig,
    ) -> Exploration<TermRef, TermLabel> {
        explore::run::<IdTable<TermRef>, _, _, _>(
            TermRef::intern(t),
            |s: &TermRef| self.successors(s).to_vec(),
            config,
        )
    }
}

fn label_mentions(label: &TermLabel, x: &lambdapi::Name) -> bool {
    let term_is_x = |t: &Term| matches!(t, Term::Var(y) if y == x);
    match label {
        TermLabel::Out { subject, payload } | TermLabel::In { subject, payload } => {
            term_is_x(subject) || term_is_x(payload)
        }
        TermLabel::TauComm(w) => term_is_x(w),
        TermLabel::TauNeg(y) | TermLabel::TauIf(y) => y == x,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambdapi::examples;
    use lambdapi::Name;

    #[test]
    fn open_negation_branches_nondeterministically() {
        let env = TypeEnv::new().bind("x", Type::Bool);
        let lts = TermLts::new(env);
        let succ = lts.successors_of(&Term::not(Term::var("x")));
        assert_eq!(succ.len(), 2);
        assert!(succ.iter().all(|(l, _)| matches!(l, TermLabel::TauNeg(_))));
    }

    #[test]
    fn example_3_5_t1_synchronises_on_x() {
        // t1 = send(x, 42, λ_.end) || recv(x, λ_.end) fires τ[x].
        let env = TypeEnv::new().bind("x", Type::chan_io(Type::Int));
        let lts = TermLts::new(env);
        let t1 = Term::par(
            Term::send(Term::var("x"), Term::int(42), Term::thunk(Term::End)),
            Term::recv(Term::var("x"), Term::lam("v", Type::Int, Term::End)),
        );
        let succ = lts.successors_of(&t1);
        assert!(
            succ.iter().any(|(l, _)| l.is_comm_on(&Name::new("x"))),
            "expected τ[x], got {succ:?}"
        );
        // The communication leads (after τ• steps) to end || end ≡ end.
        let (_, next) = succ
            .iter()
            .find(|(l, _)| l.is_comm_on(&Name::new("x")))
            .unwrap();
        let built = lts.build(next.as_term(), 100);
        assert!(built.states().iter().any(|s| *s == Term::End));
    }

    #[test]
    fn sends_and_receives_on_distinct_variables_do_not_synchronise() {
        let env = TypeEnv::new()
            .bind("x", Type::chan_io(Type::Int))
            .bind("y", Type::chan_io(Type::Int));
        let lts = TermLts::new(env);
        let t = Term::par(
            Term::send(Term::var("x"), Term::int(1), Term::thunk(Term::End)),
            Term::recv(Term::var("y"), Term::lam("v", Type::Int, Term::End)),
        );
        let succ = lts.successors_of(&t);
        assert!(!succ.iter().any(|(l, _)| matches!(l, TermLabel::TauComm(_))));
        // Both visible actions are still offered.
        assert!(succ.iter().any(|(l, _)| l.is_output_on(&Name::new("x"))));
        assert!(succ.iter().any(|(l, _)| l.is_input_on(&Name::new("y"))));
    }

    #[test]
    fn example_4_3_term_trace_mirrors_the_type_trace() {
        // Γ ⊢ sys y z  τ[z]⇁ τ•⇁* τ[y]⇁ τ•⇁* end || end
        let env = TypeEnv::new()
            .bind("y", Type::chan_io(Type::Str))
            .bind("z", Type::chan_io(Type::chan_out(Type::Str)));
        let lts = TermLts::new(env);
        let (term, _) = examples::ping_pong_open();
        let built = lts.build(&term, 2000);
        assert!(!built.is_truncated());
        // A communication on z and a communication on y both occur in the LTS.
        assert!(built.labels().any(|l| l.is_comm_on(&Name::new("z"))));
        assert!(built.labels().any(|l| l.is_comm_on(&Name::new("y"))));
        // The terminated process is reachable.
        assert!(built.states().iter().any(|s| *s == Term::End));
    }

    #[test]
    fn receive_candidates_use_environment_variables_of_fitting_type() {
        let env = TypeEnv::new()
            .bind("c", Type::chan_io(Type::Int))
            .bind("n", Type::Int)
            .bind("s", Type::Str);
        let lts = TermLts::new(env);
        let t = Term::recv(Term::var("c"), Term::lam("v", Type::Int, Term::End));
        let succ = lts.successors_of(&t);
        // Candidates: the int-typed variable n and the canonical literal 0 —
        // but not the string variable s.
        assert!(succ.iter().any(
            |(l, _)| matches!(l, TermLabel::In { payload, .. } if *payload == Term::var("n"))
        ));
        assert!(!succ.iter().any(
            |(l, _)| matches!(l, TermLabel::In { payload, .. } if *payload == Term::var("s"))
        ));
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let env = TypeEnv::new()
            .bind("y", Type::chan_io(Type::Str))
            .bind("z", Type::chan_io(Type::chan_out(Type::Str)));
        let (term, _) = examples::ping_pong_open();
        let serial = TermLts::new(env.clone()).build(&term, 10_000);
        for workers in [2, 4] {
            let parallel = TermLts::new(env.clone())
                .build_exploration(&term, &ExploreConfig::new(workers, 10_000))
                .lts;
            assert_eq!(parallel.states(), serial.states(), "workers={workers}");
            assert_eq!(
                parallel.num_transitions(),
                serial.num_transitions(),
                "workers={workers}"
            );
            for i in 0..serial.num_states() {
                assert_eq!(
                    parallel.transitions_from(i),
                    serial.transitions_from(i),
                    "state {i}, workers={workers}"
                );
            }
        }
    }

    #[test]
    fn build_aborts_on_a_cancel_token() {
        let env = TypeEnv::new()
            .bind("y", Type::chan_io(Type::Str))
            .bind("z", Type::chan_io(Type::chan_out(Type::Str)));
        let token = crate::CancelToken::new();
        token.cancel();
        let (term, _) = examples::ping_pong_open();
        let config = ExploreConfig::serial(10_000).with_cancel(token);
        let ex = TermLts::new(env).build_exploration(&term, &config);
        assert_eq!(ex.status, crate::explore::ExploreStatus::Aborted);
    }

    #[test]
    fn memoized_successors_are_stable_across_builds() {
        let env = TypeEnv::new().bind("x", Type::chan_io(Type::Int));
        let lts = TermLts::new(env);
        let t = Term::par(
            Term::send(Term::var("x"), Term::int(42), Term::thunk(Term::End)),
            Term::recv(Term::var("x"), Term::lam("v", Type::Int, Term::End)),
        );
        let first = lts.successors_of(&t);
        let second = lts.successors_of(&t);
        assert_eq!(first, second);
        // And a fresh builder derives the same list (the memo holds pure
        // functions of the term).
        let fresh = TermLts::new(TypeEnv::new().bind("x", Type::chan_io(Type::Int)));
        assert_eq!(fresh.successors_of(&t), first);
    }
}
