//! The labelled transition semantics of λπ⩽ *types* (Def. 4.2, Fig. 6).
//!
//! States are hash-consed references ([`TyRef`]) to (normalised) types;
//! labels are [`TypeLabel`]s. The semantics is what the paper model-checks in
//! place of the program: by Thm. 4.4/4.5 the transitions of a type
//! over-approximate the communications of every well-typed program, so a
//! temporal property decided here transfers to the program (Thm. 4.10).
//!
//! Implementation notes (documented deviations):
//!
//! * The structural congruence ≡ is applied by normalising states
//!   (union/parallel flattening and sorting, `p[T,nil] ≡ T`) and by unfolding
//!   `µ` at the head on demand.
//! * The type-reduction contexts of Def. 4.2 are applied to parallel
//!   components; we do not fire transitions *inside* the subject/payload/
//!   continuation positions of `o[...]`/`i[...]` (for well-formed protocol
//!   types those positions hold channel types, payload types and thunks, none
//!   of which have transitions of their own).
//! * Input transitions ([T→i]) are *early*: the payload is either the domain
//!   type itself or any environment variable that is a subtype of the domain —
//!   exactly the `T' = T or T' ∈ X` side condition.
//!
//! ## Hot-path design (hash consing)
//!
//! Exploration expands each distinct state once, but the *work per state*
//! used to be dominated by redundant tree traversals: a full-tree
//! re-`normalize` per successor, re-hashing whole trees in the seen-set, and
//! re-deriving the successor lists of parallel components for every
//! interleaved product state. With states as [`TyRef`]s:
//!
//! * seen-set `Eq`/`Hash` are 32-bit id operations;
//! * [`TypeLts::canonical_ref`] is a memo hit for every state after its
//!   first canonicalisation (the interner also knows when a type is already
//!   canonical and skips the walk entirely);
//! * two per-builder [`Memo`]s keyed by [`lambdapi::TypeId`] — the
//!   interner's one sharded memo type, no hit counters on this parallel hot
//!   path — hold the full successor list of every state and sub-state (so a
//!   `p[...]` product state reuses its components' transitions) and the
//!   early-input candidate vector of every input domain (so the subtype
//!   probing runs once per domain, not once per expansion);
//! * a `p[...]` state goes through the one parallel-composition rule the
//!   term side uses too (the private `product` module): this builder only
//!   says when an output meets an input and how components are reassembled.
//!
//! Successor lists are sorted by the **structural** order of
//! `(label, target type)` (`product::sorted`) — never by interner ids, whose
//! allocation order is racy under parallel exploration and must not leak
//! into state numbering.

use std::sync::Arc;

use dbt_types::{Checker, TypeEnv};
use lambdapi::intern::Memo;
use lambdapi::{Name, TyRef, Type};

use crate::explore::{self, Exploration, ExploreConfig};
use crate::generic::Lts;
use crate::label::TypeLabel;
use crate::memory::IdTable;
use crate::product;

/// Which environment variables the early input rule [T→i] may use as payload
/// candidates (in addition to the domain type itself).
#[derive(Clone, Debug, Default)]
pub enum CandidatePolicy {
    /// Every environment variable that is a subtype of the input domain — the
    /// letter of rule [T→i] (`T' = T or T' ∈ X`).
    #[default]
    AllEnvVariables,
    /// Only the listed variables (typically the payload probes added by the
    /// verifier). Synchronisations between parallel components are *not*
    /// affected: they are generated directly from the sender's payload, so a
    /// restricted candidate set only prunes stand-alone "open input" branches.
    Only(Vec<Name>),
}

/// A memoized successor list, shared between the cache and its consumers.
type SuccessorList = Arc<[(TypeLabel, TyRef)]>;

/// Builder for the type-level LTS of Def. 4.2.
///
/// The memos are shared by every worker of a build (and by clones of the
/// builder, as long as no cache-relevant knob changes).
#[derive(Clone, Debug)]
pub struct TypeLts {
    env: TypeEnv,
    checker: Checker,
    candidates: CandidatePolicy,
    visible: Option<Vec<Name>>,
    /// input-domain id → early-input payload candidates.
    candidate_memo: Arc<Memo<u32, Arc<[Type]>>>,
    /// canonical-state id → successor transitions.
    successor_memo: Arc<Memo<u32, SuccessorList>>,
}

/// Default bound on the number of explored type states.
pub const DEFAULT_MAX_STATES: usize = 200_000;

impl TypeLts {
    /// Creates a builder for the given typing environment.
    pub fn new(env: TypeEnv) -> Self {
        Self::with_checker(env, Checker::new())
    }

    /// Creates a builder with a custom checker configuration.
    pub fn with_checker(env: TypeEnv, checker: Checker) -> Self {
        TypeLts {
            env,
            checker,
            candidates: CandidatePolicy::default(),
            visible: None,
            candidate_memo: Arc::default(),
            successor_memo: Arc::default(),
        }
    }

    /// Sets the early-input candidate policy (see [`CandidatePolicy`]).
    pub fn with_candidate_policy(mut self, candidates: CandidatePolicy) -> Self {
        self.candidates = candidates;
        // The memoized candidate vectors (and the successor lists derived
        // from them) depend on the policy: start the memos over.
        self.candidate_memo = Arc::default();
        self.successor_memo = Arc::default();
        self
    }

    /// Restricts the *top-level* visible input/output transitions of explored
    /// states to subjects among the given variables; synchronisations between
    /// parallel components are unaffected.
    ///
    /// This corresponds to building the model of a closed composition where
    /// only the probed channels are exposed to the environment (internal
    /// channels only contribute τ-synchronisations), which is how the paper's
    /// Fig. 9 models are set up. `None` (the default) keeps every transition
    /// that Def. 4.2 generates. (The filter is applied per expansion on top
    /// of the cached full successor lists, so it does not key the caches.)
    pub fn with_visible_subjects(mut self, visible: Option<Vec<Name>>) -> Self {
        self.visible = visible;
        self
    }

    /// The typing environment Γ used for subtyping and `▷◁` queries.
    pub fn env(&self) -> &TypeEnv {
        &self.env
    }

    /// The subtyping checker.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Canonicalises an interned type into the representation used for LTS
    /// states — a memo hit for every type seen before (the interner also
    /// short-circuits types it knows to be canonical already).
    pub fn canonical_ref(&self, ty: &TyRef) -> TyRef {
        ty.canonical(self.checker.max_unfold)
    }

    /// Computes the successor transitions `Γ ⊢ T --α--> T'` of a type.
    ///
    /// The result is memoized per canonical state: product states of a
    /// parallel composition reuse their components' lists instead of
    /// re-deriving them.
    pub fn successors(&self, ty: &TyRef) -> SuccessorList {
        let t = self.canonical_ref(ty);
        let id = t.id().index();
        self.successor_memo
            .get_or_insert_with(id, id, || self.compute_successors(&t))
    }

    /// The uncached successor derivation; `t` is canonical.
    fn compute_successors(&self, t: &TyRef) -> SuccessorList {
        let canonical_owned = |ty: Type| TyRef::new(ty).canonical(self.checker.max_unfold);
        let mut out: Vec<(TypeLabel, TyRef)> = Vec::new();
        match t.as_type() {
            Type::Union(..) => {
                for member in t.union_members() {
                    out.push((TypeLabel::Choice, canonical_owned(member)));
                }
            }
            Type::Out(subject, payload, cont) => {
                out.push((
                    TypeLabel::Out {
                        subject: (**subject).clone(),
                        payload: (**payload).clone(),
                    },
                    canonical_owned(continuation_body(cont)),
                ));
            }
            Type::In(subject, cont) => {
                if let Some((x, dom, body)) = self.checker.resolve_pi(&self.env, cont) {
                    for candidate in self.input_candidates(&dom).iter() {
                        let next = body.subst_var(&x, candidate);
                        out.push((
                            TypeLabel::In {
                                subject: (**subject).clone(),
                                payload: candidate.clone(),
                            },
                            canonical_owned(next),
                        ));
                    }
                }
            }
            // The context rule p[E,T] (with commutativity of ≡) and [T→iox] /
            // [T→io]. The receiving side is matched directly against
            // input-shaped components (after head normalisation), so a
            // synchronisation exists whenever the sender's payload fits the
            // receiver's domain — independently of which stand-alone input
            // candidates were enumerated above.
            Type::Par(..) => {
                let components: Vec<TyRef> = t.par_members().iter().map(TyRef::intern).collect();
                let succs: Vec<SuccessorList> =
                    components.iter().map(|c| self.successors(c)).collect();
                let heads: Vec<TyRef> = components.iter().map(|c| self.canonical_ref(c)).collect();
                let sync = |label: &TypeLabel, j: usize| {
                    let TypeLabel::Out { subject, payload } = label else {
                        return None;
                    };
                    let Type::In(s_in, cont) = heads[j].as_type() else {
                        return None;
                    };
                    if !self.checker.might_interact(&self.env, subject, s_in) {
                        return None;
                    }
                    let (x, dom, body) = self.checker.resolve_pi(&self.env, cont)?;
                    // [T→iox] (variable payload) requires the payload variable
                    // to inhabit the domain; [T→io] (non-variable payload)
                    // requires payload ⩽ domain.
                    self.checker.is_subtype(&self.env, payload, &dom).then(|| {
                        let (left, right) = (subject.clone(), (**s_in).clone());
                        let next = canonical_owned(body.subst_var(&x, payload));
                        (TypeLabel::Comm { left, right }, next)
                    })
                };
                out = product::par_successors(&components, &succs, sync, |parts| {
                    canonical_owned(Type::par_all(parts.iter().map(|p| p.as_type().clone())))
                });
            }
            // nil, proc, base types, variables, functions: no transitions.
            _ => {}
        }
        product::sorted(out)
    }

    /// The candidate payloads for an early input transition on a domain type
    /// `dom`: the domain itself, plus the environment variables selected by
    /// the [`CandidatePolicy`] that are subtypes of the domain. Memoized per
    /// domain, so the subtype probing of the environment runs once per
    /// distinct domain instead of once per input expansion.
    fn input_candidates(&self, dom: &Type) -> Arc<[Type]> {
        let id = TyRef::intern(dom).id().index();
        self.candidate_memo.get_or_insert_with(id, id, || {
            let allowed = |x: &Name| match &self.candidates {
                CandidatePolicy::AllEnvVariables => true,
                CandidatePolicy::Only(list) => list.contains(x),
            };
            let mut candidates = vec![dom.clone()];
            for (x, _) in self.env.iter() {
                if !allowed(x) {
                    continue;
                }
                let var = Type::Var(x.clone());
                if self.checker.is_subtype(&self.env, &var, dom) {
                    candidates.push(var);
                }
            }
            candidates.into()
        })
    }

    /// The transitions exploration follows out of `state`: its
    /// [`TypeLts::successors`], minus the bare inputs/outputs hidden by
    /// [`TypeLts::with_visible_subjects`].
    pub fn visible_successors(&self, state: &TyRef) -> Vec<(TypeLabel, TyRef)> {
        let succ = self.successors(state);
        match &self.visible {
            None => succ.to_vec(),
            Some(visible) => succ
                .iter()
                .filter(|(label, _)| match label.subject() {
                    Some(Type::Var(x)) => visible.contains(x),
                    Some(_) => false,
                    None => true,
                })
                .cloned()
                .collect(),
        }
    }

    /// Builds the explicit LTS reachable from `ty`, bounded by `max_states`,
    /// by a serial breadth-first exploration.
    pub fn build(&self, ty: &Type, max_states: usize) -> Lts<TyRef, TypeLabel> {
        self.build_exploration(ty, &ExploreConfig::serial(max_states))
            .lts
    }

    /// Like [`TypeLts::build`], run as `config` says — worker count, state
    /// bound, cancellation, memory budget — and also reporting how the
    /// exploration ended. Thanks to the canonical renumbering of
    /// [`mod@crate::explore`], a *complete* (non-truncated) build produces an
    /// LTS — states, numbering, transitions — identical for every `config`.
    /// Truncated builds respect the same state bound everywhere but may
    /// differ in which prefix was explored (the verifier turns them into the
    /// same clamped error either way). States are interner references, so
    /// the engine runs on its bitmap state table.
    pub fn build_exploration(
        &self,
        ty: &Type,
        config: &ExploreConfig,
    ) -> Exploration<TyRef, TypeLabel> {
        let initial = self.canonical_ref(&TyRef::intern(ty));
        explore::run::<IdTable<TyRef>, _, _, _>(
            initial,
            |s: &TyRef| self.visible_successors(s),
            config,
        )
    }
}

fn continuation_body(cont: &Type) -> Type {
    match cont {
        Type::Pi(_, _, body) => (**body).clone(),
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------------
// Def. 4.8 (input/output uses) and Def. 4.9 (interface limiting)
// ---------------------------------------------------------------------------

/// Returns `true` when `label` is a *potential output use* of `x` in `env`
/// (Def. 4.8): an output label `S'⟨U'⟩` with `Γ ⊢ x ⩽ S'`.
pub fn is_output_use(checker: &Checker, env: &TypeEnv, label: &TypeLabel, x: &Name) -> bool {
    match label {
        TypeLabel::Out { subject, .. } => checker.is_subtype(env, &Type::Var(x.clone()), subject),
        _ => false,
    }
}

/// Returns `true` when `label` is a *potential input use* of `x` in `env`
/// (Def. 4.8): an input label `S'(U')` with `Γ ⊢ x ⩽ S'`.
pub fn is_input_use(checker: &Checker, env: &TypeEnv, label: &TypeLabel, x: &Name) -> bool {
    match label {
        TypeLabel::In { subject, .. } => checker.is_subtype(env, &Type::Var(x.clone()), subject),
        _ => false,
    }
}

/// Returns `true` when `label` belongs to the set `Aτ` of Thm. 4.10: a
/// synchronisation `τ[S,S']` where `S` or `S'` is *not* a variable of the
/// environment (an "imprecise" synchronisation that cannot be related to a
/// program step by type fidelity).
pub fn is_imprecise_comm(env: &TypeEnv, label: &TypeLabel) -> bool {
    match label {
        TypeLabel::Comm { left, right } => {
            let precise = |t: &Type| matches!(t, Type::Var(x) if env.contains(x));
            !(precise(left) && precise(right))
        }
        _ => false,
    }
}

/// Applies the `↑Γ Y` limiting operator of Def. 4.9 to a built type LTS:
/// input/output transitions whose subject is not a variable in `interfaces`
/// are removed; τ-transitions (choice and communication) are kept.
pub fn restrict_to_interfaces<S>(lts: &Lts<S, TypeLabel>, interfaces: &[Name]) -> Lts<S, TypeLabel>
where
    S: Clone + Eq + std::hash::Hash,
{
    lts.filter_edges(|_, label, _| match label {
        TypeLabel::Out { subject, .. } | TypeLabel::In { subject, .. } => {
            matches!(subject, Type::Var(x) if interfaces.contains(x))
        }
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambdapi::examples;

    fn pingpong_env() -> TypeEnv {
        TypeEnv::new()
            .bind("y", Type::chan_io(Type::Str))
            .bind("z", Type::chan_io(Type::chan_out(Type::Str)))
    }

    fn succ_of(builder: &TypeLts, ty: &Type) -> Vec<(TypeLabel, TyRef)> {
        builder.successors(&TyRef::intern(ty)).to_vec()
    }

    /// Example 4.3: the composed ping-pong type performs two communications
    /// (first on z, then on y — the reply channel transmitted over z) and
    /// terminates.
    #[test]
    fn example_4_3_pingpong_type_transitions() {
        let env = pingpong_env();
        let builder = TypeLts::new(env);
        let ty = examples::tpp_type()
            .apply_all(&[Type::var("y"), Type::var("z")])
            .unwrap();
        let lts = builder.build(&ty, 1000);
        assert!(!lts.is_truncated());

        // The initial state must offer a synchronisation on z.
        let first: Vec<_> = lts.transitions_from(lts.initial()).to_vec();
        assert!(
            first.iter().any(|(l, _)| matches!(
                l,
                TypeLabel::Comm { left, right }
                    if *left == Type::var("z") && *right == Type::var("z")
            )),
            "expected τ[z,z] from the initial state, got {first:?}"
        );

        // Somewhere in the LTS there must be a synchronisation on y — the
        // transmitted reply channel, tracked by the dependent substitution.
        assert!(
            lts.labels().any(|l| matches!(
                l,
                TypeLabel::Comm { left, right }
                    if *left == Type::var("y") && *right == Type::var("y")
            )),
            "expected τ[y,y] somewhere in the LTS"
        );

        // The terminated state nil is reachable.
        assert!(lts.states().iter().any(|s| *s == Type::Nil));
    }

    #[test]
    fn output_type_fires_its_subject_and_payload() {
        let env = TypeEnv::new().bind("x", Type::chan_io(Type::Int));
        let builder = TypeLts::new(env);
        let ty = Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil));
        let succ = succ_of(&builder, &ty);
        assert_eq!(succ.len(), 1);
        match &succ[0] {
            (TypeLabel::Out { subject, payload }, next) => {
                assert_eq!(*subject, Type::var("x"));
                assert_eq!(*payload, Type::Int);
                assert_eq!(*next, Type::Nil);
            }
            other => panic!("unexpected successor {other:?}"),
        }
    }

    #[test]
    fn input_type_has_early_candidates_including_environment_variables() {
        let env = TypeEnv::new()
            .bind("x", Type::chan_io(Type::Int))
            .bind("v", Type::Int);
        let builder = TypeLts::new(env);
        let ty = Type::inp(
            Type::var("x"),
            Type::pi(
                "p",
                Type::Int,
                Type::out(Type::var("x"), Type::var("p"), Type::thunk(Type::Nil)),
            ),
        );
        let succ = succ_of(&builder, &ty);
        // One candidate for the domain type int, one for the int-typed variable v.
        assert_eq!(succ.len(), 2);
        // The candidate payload is substituted into the continuation.
        assert!(succ.iter().any(|(l, next)| {
            matches!(l, TypeLabel::In { payload, .. } if *payload == Type::var("v"))
                && *next == Type::out(Type::var("x"), Type::var("v"), Type::thunk(Type::Nil))
        }));
    }

    #[test]
    fn union_types_offer_internal_choices() {
        let env = TypeEnv::new().bind("x", Type::chan_io(Type::Int));
        let builder = TypeLts::new(env);
        let ty = Type::union(
            Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil)),
            Type::Nil,
        );
        let succ = succ_of(&builder, &ty);
        assert_eq!(succ.len(), 2);
        assert!(succ.iter().all(|(l, _)| *l == TypeLabel::Choice));
    }

    #[test]
    fn distinct_variables_do_not_synchronise() {
        let env = TypeEnv::new()
            .bind("x", Type::chan_io(Type::Int))
            .bind("y", Type::chan_io(Type::Int));
        let builder = TypeLts::new(env);
        let ty = Type::par(
            Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil)),
            Type::inp(Type::var("y"), Type::pi("v", Type::Int, Type::Nil)),
        );
        let succ = succ_of(&builder, &ty);
        assert!(
            !succ
                .iter()
                .any(|(l, _)| matches!(l, TypeLabel::Comm { .. })),
            "outputs on x must not synchronise with inputs on y"
        );
    }

    #[test]
    fn imprecise_subjects_synchronise_as_in_example_3_5() {
        // T2 = p[o[cio[int], int, Π()nil], i[x, Π(y:int)nil]]: the left subject
        // is the imprecise cio[int]; it may denote the same channel as x, so a
        // τ[cio[int], x] synchronisation is possible — and it is "imprecise"
        // in the sense of the Aτ set of Thm. 4.10.
        let env = TypeEnv::new().bind("x", Type::chan_io(Type::Int));
        let builder = TypeLts::new(env.clone());
        let ty = Type::par(
            Type::out(Type::chan_io(Type::Int), Type::Int, Type::thunk(Type::Nil)),
            Type::inp(Type::var("x"), Type::pi("y", Type::Int, Type::Nil)),
        );
        let succ = succ_of(&builder, &ty);
        let comm: Vec<_> = succ
            .iter()
            .filter(|(l, _)| matches!(l, TypeLabel::Comm { .. }))
            .collect();
        assert!(!comm.is_empty());
        assert!(is_imprecise_comm(&env, &comm[0].0));
        // By contrast τ[x,x] would be precise.
        let precise = TypeLabel::Comm {
            left: Type::var("x"),
            right: Type::var("x"),
        };
        assert!(!is_imprecise_comm(&env, &precise));
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        // The composed ping-pong type has genuinely interleaved components,
        // so the parallel engine sees shared states along different paths.
        let env = pingpong_env();
        let ty = examples::tpp_type()
            .apply_all(&[Type::var("y"), Type::var("z")])
            .unwrap();
        let serial = TypeLts::new(env.clone()).build(&ty, 10_000);
        for workers in [2, 4] {
            let parallel = TypeLts::new(env.clone())
                .build_exploration(&ty, &ExploreConfig::new(workers, 10_000))
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
    fn recursive_types_yield_finite_lts() {
        // The payment type applied to concrete channel variables loops forever
        // but has finitely many states.
        let env = TypeEnv::new()
            .bind("self", Type::chan_io(Type::Int))
            .bind("aud", Type::chan_out(Type::Int))
            .bind("client", examples::reply_channel_type());
        let builder = TypeLts::new(env);
        let ty = examples::tpayment_type()
            .apply_all(&[Type::var("self"), Type::var("aud"), Type::var("client")])
            .unwrap();
        let lts = builder.build(&ty, 10_000);
        assert!(!lts.is_truncated());
        assert!(lts.num_states() >= 4);
        // Every state has at least one outgoing transition (the protocol never
        // deadlocks in isolation).
        assert!(lts.terminal_states().is_empty());
    }

    #[test]
    fn restriction_drops_foreign_io_but_keeps_synchronisations() {
        let env = pingpong_env();
        let builder = TypeLts::new(env.clone());
        let ty = examples::tpong_type().apply(&Type::var("z")).unwrap();
        let lts = builder.build(&ty, 1000);
        // Unrestricted: the ponger inputs on z and then outputs on the received
        // reply channel.
        assert!(lts.labels().any(|l| matches!(l, TypeLabel::In { .. })));
        let restricted = restrict_to_interfaces(&lts, &[Name::new("z")]);
        // Restricting to {z} keeps the z-input but drops outputs on other
        // subjects (the reply channel variable candidates other than z).
        assert!(restricted
            .labels()
            .all(|l| l.subject().map(|s| *s == Type::var("z")).unwrap_or(true)));
    }

    #[test]
    fn output_and_input_uses_account_for_subtyping() {
        let env = TypeEnv::new().bind("x", Type::chan_io(Type::Int));
        let checker = Checker::new();
        let imprecise = TypeLabel::Out {
            subject: Type::chan_out(Type::Int),
            payload: Type::Int,
        };
        // x ⩽ co[int], so an output on co[int] is a potential output use of x.
        assert!(is_output_use(&checker, &env, &imprecise, &Name::new("x")));
        let other = TypeLabel::Out {
            subject: Type::var("other"),
            payload: Type::Int,
        };
        assert!(!is_output_use(&checker, &env, &other, &Name::new("x")));
        let inp = TypeLabel::In {
            subject: Type::var("x"),
            payload: Type::Int,
        };
        assert!(is_input_use(&checker, &env, &inp, &Name::new("x")));
        assert!(!is_input_use(&checker, &env, &imprecise, &Name::new("x")));
    }

    #[test]
    fn candidate_policy_changes_reset_the_memo_caches() {
        let env = TypeEnv::new()
            .bind("x", Type::chan_io(Type::Int))
            .bind("v", Type::Int);
        let ty = Type::inp(
            Type::var("x"),
            Type::pi(
                "p",
                Type::Int,
                Type::out(Type::var("x"), Type::var("p"), Type::thunk(Type::Nil)),
            ),
        );
        let all = TypeLts::new(env.clone());
        assert_eq!(succ_of(&all, &ty).len(), 2);
        // Narrowing the policy on a clone of the same builder must not replay
        // the cached two-candidate list.
        let only = all
            .clone()
            .with_candidate_policy(CandidatePolicy::Only(vec![]));
        assert_eq!(succ_of(&only, &ty).len(), 1);
        // And the original builder still sees its own cache.
        assert_eq!(succ_of(&all, &ty).len(), 2);
    }

    #[test]
    fn build_aborts_on_a_cancel_token() {
        let env = pingpong_env();
        let token = crate::CancelToken::new();
        token.cancel();
        let ty = examples::tpp_type()
            .apply_all(&[Type::var("y"), Type::var("z")])
            .unwrap();
        let config = ExploreConfig::serial(10_000).with_cancel(token);
        let ex = TypeLts::new(env).build_exploration(&ty, &config);
        assert_eq!(ex.status, crate::explore::ExploreStatus::Aborted);
    }
}
