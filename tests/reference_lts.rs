//! Reference successor relations for both transition semantics.
//!
//! `TypeLts` and `TermLts` derive successor lists through memos, interned
//! states and one shared parallel-composition loop. This suite re-derives
//! every list from the paper's rules directly — Def. 4.2 / Fig. 6 over plain
//! [`Type`]s and Def. 4.1 / Fig. 5 over plain [`Term`]s, with no memo of its
//! own — and compares the two, list for list, on every reachable state of
//! the scale-0 Fig. 9 rows, the mobile-code spec and the open-term corpus.
//! State identity on the type side goes through the public
//! [`TyRef::canonical`] and subtyping through the public [`Checker`], so the
//! only thing the reference shares with the builders is the calculus.

use std::sync::Arc;

use effpi::protocols::{fig9_specs, mobile_code, open_terms};
use effpi::spec::{parse_spec, Spec};
use effpi::{
    Checker, Name, Reducer, Session, Term, TermLabel, TermLts, TyRef, Type, TypeEnv, TypeLabel,
    TypeLts, Value,
};
use lambdapi::{par_components, rebuild_par};
use lts::CandidatePolicy;

const MAX_STATES: usize = 60_000;

/// Def. 4.2 over plain types: the early-input candidates are the domain plus
/// the probe variables that inhabit it, as verification configures them.
struct TypeReference<'a> {
    env: &'a TypeEnv,
    checker: &'a Checker,
    probes: &'a [Name],
}

impl TypeReference<'_> {
    /// The LTS-state form of a type (≡ plus head unfolding).
    fn canon(&self, ty: Type) -> Type {
        TyRef::new(ty)
            .canonical(self.checker.max_unfold)
            .as_type()
            .clone()
    }

    /// Every transition `Γ ⊢ t --α--> t'` of a canonical type `t`, sorted.
    fn successors(&self, t: &Type) -> Vec<(TypeLabel, Type)> {
        let mut out = Vec::new();
        match t {
            // [T→⊔]
            Type::Union(..) => {
                for member in t.union_members() {
                    out.push((TypeLabel::Choice, self.canon(member)));
                }
            }
            // [T→o]
            Type::Out(subject, payload, cont) => {
                let next = match &**cont {
                    Type::Pi(_, _, body) => (**body).clone(),
                    other => other.clone(),
                };
                let label = TypeLabel::Out {
                    subject: (**subject).clone(),
                    payload: (**payload).clone(),
                };
                out.push((label, self.canon(next)));
            }
            // [T→i], early: T' = T or T' ∈ X with Γ ⊢ T' ⩽ T.
            Type::In(subject, cont) => {
                if let Some((x, dom, body)) = self.checker.resolve_pi(self.env, cont) {
                    let mut payloads = vec![dom.clone()];
                    payloads.extend(
                        self.probes
                            .iter()
                            .map(|p| Type::Var(p.clone()))
                            .filter(|v| self.checker.is_subtype(self.env, v, &dom)),
                    );
                    for payload in payloads {
                        let next = self.canon(body.subst_var(&x, &payload));
                        let subject = (**subject).clone();
                        out.push((TypeLabel::In { subject, payload }, next));
                    }
                }
            }
            Type::Par(..) => {
                let parts = t.par_members();
                let heads: Vec<Type> = parts.iter().map(|c| self.canon(c.clone())).collect();
                for (i, head) in heads.iter().enumerate() {
                    for (label, next) in self.successors(head) {
                        // The context rule: component i moves alone.
                        let mut moved = parts.clone();
                        moved[i] = next.clone();
                        out.push((label.clone(), self.canon(Type::par_all(moved.clone()))));
                        // [T→iox] / [T→io]: its output meets a ready input.
                        let TypeLabel::Out { subject, payload } = &label else {
                            continue;
                        };
                        for (j, receiver) in heads.iter().enumerate() {
                            let Type::In(s_in, cont) = receiver else {
                                continue;
                            };
                            if j == i || !self.checker.might_interact(self.env, subject, s_in) {
                                continue;
                            }
                            let Some((x, dom, body)) = self.checker.resolve_pi(self.env, cont)
                            else {
                                continue;
                            };
                            if !self.checker.is_subtype(self.env, payload, &dom) {
                                continue;
                            }
                            let mut both = moved.clone();
                            both[j] = self.canon(body.subst_var(&x, payload));
                            let label = TypeLabel::Comm {
                                left: subject.clone(),
                                right: (**s_in).clone(),
                            };
                            out.push((label, self.canon(Type::par_all(both))));
                        }
                    }
                }
            }
            _ => {}
        }
        out.sort();
        out.dedup();
        out
    }
}

/// The builder verification explores `spec` with: the probed environment,
/// the probes as the only early-input candidates, and the spec's visible
/// channels plus the probes.
fn verification_builder(session: &Session, spec: &Spec) -> (TypeLts, Vec<Name>) {
    let verifier = session.verifier();
    let (env, probes) = verifier.probe_env(&spec.env, spec.ty.as_ref().unwrap());
    let mut visible = spec.visible.clone();
    visible.extend(probes.iter().cloned());
    let builder = TypeLts::with_checker(env, verifier.checker().clone())
        .with_candidate_policy(CandidatePolicy::Only(probes.clone()))
        .with_visible_subjects(Some(visible));
    (builder, probes)
}

#[test]
fn type_successors_match_def_4_2_on_every_reachable_state() {
    let session = Session::builder().max_states(MAX_STATES).build();
    let mut specs: Vec<(String, String)> = fig9_specs(0)
        .into_iter()
        .map(|row| (row.name, row.spec))
        .collect();
    specs.push(("Mobile code".to_string(), mobile_code::spec()));
    for (name, text) in specs {
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (builder, probes) = verification_builder(&session, &spec);
        let reference = TypeReference {
            env: builder.env(),
            checker: builder.checker(),
            probes: &probes,
        };
        let lts = builder.build(spec.ty.as_ref().unwrap(), MAX_STATES);
        assert!(!lts.is_truncated(), "{name}");
        for state in lts.states() {
            let built: Vec<(TypeLabel, Type)> = builder
                .successors(state)
                .iter()
                .map(|(label, next)| (label.clone(), next.as_type().clone()))
                .collect();
            assert_eq!(
                built,
                reference.successors(state.as_type()),
                "{name}: successors of {state}"
            );
        }
    }
}

/// Def. 4.1 over plain terms: [SR-→] plus the open rules, with the same
/// finite early-input candidates as the builder (fitting environment
/// variables and one literal per base payload type).
struct TermReference<'a> {
    env: &'a TypeEnv,
    checker: &'a Checker,
    reducer: Reducer,
}

impl TermReference<'_> {
    fn successors(&self, t: &Term) -> Vec<(TermLabel, Term)> {
        let mut out = self.open(t);
        if let Some((next, rule)) = self.reducer.step(t) {
            out.push((TermLabel::TauRule(rule), next));
        }
        out.sort();
        out.dedup();
        out
    }

    /// The open-term rules of Fig. 5 (everything but [SR-→]).
    fn open(&self, t: &Term) -> Vec<(TermLabel, Term)> {
        let ready = |w: &Term| w.is_value_or_var();
        let mut out = Vec::new();
        match t {
            Term::Not(inner) => {
                if let Term::Var(x) = &**inner {
                    for b in [true, false] {
                        out.push((TermLabel::TauNeg(x.clone()), Term::bool(b)));
                    }
                }
            }
            Term::If(cond, a, b) => {
                if let Term::Var(x) = &**cond {
                    out.push((TermLabel::TauIf(x.clone()), (**a).clone()));
                    out.push((TermLabel::TauIf(x.clone()), (**b).clone()));
                }
            }
            Term::App(f, a) => {
                if let (Term::Val(Value::Lambda(x, _, body)), Term::Var(_)) = (&**f, &**a) {
                    out.push((TermLabel::TauLambdaApp, body.subst(x, a)));
                }
            }
            Term::Send(chan, payload, cont) if ready(chan) && ready(payload) && ready(cont) => {
                let label = TermLabel::Out {
                    subject: (**chan).clone(),
                    payload: (**payload).clone(),
                };
                out.push((label, Term::app((**cont).clone(), Term::unit())));
            }
            Term::Recv(chan, cont) if ready(chan) && ready(cont) => {
                for payload in self.receive_candidates(chan) {
                    let next = Term::app((**cont).clone(), payload.clone());
                    let subject = (**chan).clone();
                    out.push((TermLabel::In { subject, payload }, next));
                }
            }
            Term::Par(..) => {
                let parts = par_components(t);
                for (i, part) in parts.iter().enumerate() {
                    for (label, next) in self.open(part) {
                        // [SR-E] with E || t: component i moves alone.
                        let mut moved = parts.clone();
                        moved[i] = next;
                        out.push((label.clone(), rebuild_par(moved.clone())));
                        // [SR-Comm]: its send meets a ready receive on the
                        // same subject, which takes exactly that payload.
                        let TermLabel::Out { subject, payload } = &label else {
                            continue;
                        };
                        for (j, receiver) in parts.iter().enumerate() {
                            match receiver {
                                Term::Recv(chan, cont)
                                    if j != i
                                        && ready(chan)
                                        && ready(cont)
                                        && **chan == *subject =>
                                {
                                    let mut both = moved.clone();
                                    both[j] = Term::app((**cont).clone(), payload.clone());
                                    let label = TermLabel::TauComm(subject.clone());
                                    out.push((label, rebuild_par(both)));
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
            // [SR-E] under `let x = w in E`, hiding labels that mention x.
            Term::Let(x, ty, bound, body) if ready(bound) => {
                for (label, next) in self.open(body) {
                    if !mentions(&label, x) {
                        let next =
                            Term::Let(x.clone(), ty.clone(), Arc::clone(bound), Arc::new(next));
                        out.push((label, next));
                    }
                }
            }
            _ => {}
        }
        out
    }

    fn receive_candidates(&self, chan: &Term) -> Vec<Term> {
        let payload_ty = match chan {
            Term::Var(x) => self
                .env
                .lookup(x)
                .and_then(|t| self.checker.resolve_channel(self.env, t))
                .map(|(_, p)| p),
            Term::Val(Value::Chan(_, p)) => Some(p.clone()),
            _ => None,
        };
        let Some(payload_ty) = payload_ty else {
            return Vec::new();
        };
        let mut candidates: Vec<Term> = self
            .env
            .iter()
            .filter(|(x, _)| {
                self.checker
                    .is_subtype(self.env, &Type::Var((*x).clone()), &payload_ty)
            })
            .map(|(x, _)| Term::Var(x.clone()))
            .collect();
        match payload_ty.normalize() {
            Type::Int => candidates.push(Term::int(0)),
            Type::Bool => candidates.push(Term::bool(true)),
            Type::Str => candidates.push(Term::str("")),
            Type::Unit => candidates.push(Term::unit()),
            _ => {}
        }
        candidates
    }
}

fn mentions(label: &TermLabel, x: &Name) -> bool {
    let is_x = |t: &Term| matches!(t, Term::Var(y) if y == x);
    match label {
        TermLabel::Out { subject, payload } | TermLabel::In { subject, payload } => {
            is_x(subject) || is_x(payload)
        }
        TermLabel::TauComm(w) => is_x(w),
        TermLabel::TauNeg(y) | TermLabel::TauIf(y) => y == x,
        _ => false,
    }
}

#[test]
fn term_successors_match_def_4_1_on_every_reachable_state() {
    for scenario in open_terms::corpus() {
        let builder = TermLts::new(scenario.env.clone());
        let reference = TermReference {
            env: builder.env(),
            checker: builder.checker(),
            reducer: Reducer::new(),
        };
        let lts = builder.build(&scenario.term, scenario.max_states);
        assert!(!lts.is_truncated(), "{}", scenario.name);
        for state in lts.states() {
            let built: Vec<(TermLabel, Term)> = builder
                .successors(state)
                .iter()
                .map(|(label, next)| (label.clone(), next.as_term().clone()))
                .collect();
            assert_eq!(
                built,
                reference.successors(state.as_term()),
                "{}: successors of {state}",
                scenario.name
            );
        }
    }
}
