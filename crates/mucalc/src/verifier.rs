//! The verification façade — the analogue of the Effpi compiler plugin (§5.1,
//! "type-level model checking").
//!
//! Given a typing environment, a behavioural type and a [`Property`], the
//! [`Verifier`]:
//!
//! 1. checks the applicability conditions of Lemma 4.7 / Thm. 4.10 (the type
//!    must be guarded, must not contain `p[...]` under recursion, and must not
//!    mention `proc`);
//! 2. extends the environment with *payload probe* variables so that every
//!    input type has a variable inhabitant (the footnote-1 precondition of
//!    Thm. 4.10), which is what lets received values be tracked by name;
//! 3. builds the explicit type LTS (Def. 4.2);
//! 4. decides the property and reports the outcome together with the model
//!    size and the verification time (the data reported in Fig. 9).

use std::time::{Duration, Instant};

use dbt_types::{Checker, TypeEnv, TypeKind};
use lambdapi::{Name, TyRef, Type};
use lts::{ExploreConfig, ExploreStatus, Lts, TypeLabel, TypeLts};

use crate::properties::Property;
use crate::witness::Trace;

/// Why a type was rejected before model checking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The type is not a valid π-type in the given environment.
    NotAProcessType(String),
    /// The type is not guarded (Lemma 4.7), so model checking may diverge.
    NotGuarded,
    /// The type has parallel composition under recursion (Effpi limitation 2):
    /// its LTS may be infinite-state.
    ParallelUnderRecursion,
    /// The type mentions `proc`, which Thm. 4.10 excludes (a `proc` component
    /// gives no information about its behaviour).
    MentionsProc,
    /// State-space exploration hit the configured bound.
    StateSpaceTooLarge {
        /// The configured maximum number of states.
        bound: usize,
        /// How many states had been registered when exploration stopped.
        ///
        /// Invariant: `explored <= bound`, always. A frontier — especially a
        /// parallel one, where a whole batch of workers can be mid-expansion
        /// when the bound trips — could overshoot the bound internally, but
        /// the exploration engine never registers more than `bound` states
        /// and this field is clamped on construction, so consumers can rely
        /// on the clamp regardless of the engine's worker count.
        explored: usize,
    },
    /// The exploration was aborted by an external [`lts::CancelToken`] (the
    /// `cancel` hook of `effpi-serve`). The partial LTS is discarded: an
    /// aborted prefix is scheduling-dependent and must never feed a verdict.
    Cancelled,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::NotAProcessType(e) => write!(f, "not a verifiable process type: {e}"),
            VerifyError::NotGuarded => write!(f, "type is not guarded (Lemma 4.7)"),
            VerifyError::ParallelUnderRecursion => {
                write!(f, "parallel composition under recursion is not supported")
            }
            VerifyError::MentionsProc => write!(f, "type mentions proc (excluded by Thm. 4.10)"),
            VerifyError::StateSpaceTooLarge { bound, explored } => {
                write!(
                    f,
                    "state space exceeds the bound of {bound} states \
                     (exploration stopped after {explored})"
                )
            }
            VerifyError::Cancelled => write!(f, "verification cancelled"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The result of verifying one property on one type: the data of one cell of
/// Fig. 9.
#[derive(Clone, Debug)]
pub struct VerificationOutcome {
    /// The property that was checked.
    pub property: Property,
    /// Whether the type satisfies it.
    pub holds: bool,
    /// Number of states of the explored type LTS.
    pub states: usize,
    /// Number of transitions of the explored type LTS.
    pub transitions: usize,
    /// Wall-clock time spent building the LTS and deciding the property.
    pub duration: Duration,
    /// When a *safety* property fails, the shortest replayable path to the
    /// violating transition or state (see [`Trace`]); `None` for satisfied
    /// properties and for failed liveness properties, which have no finite
    /// edge witness.
    pub trace: Option<Trace>,
}

impl std::fmt::Display for VerificationOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} ({} states, {} transitions, {:.3}s)",
            self.property,
            self.holds,
            self.states,
            self.transitions,
            self.duration.as_secs_f64()
        )
    }
}

/// The type-level model checker.
#[derive(Clone, Debug)]
pub struct Verifier {
    checker: Checker,
    /// Whether to add payload-probe variables for input domains automatically.
    pub auto_probe: bool,
    /// When set, only bare input/output transitions on these channel variables
    /// are kept while building the model (internal channels of a closed
    /// composition then contribute only τ-synchronisations). `None` keeps the
    /// full Def. 4.2 transition relation.
    pub visible: Option<Vec<Name>>,
    /// How the LTS construction explores: state bound (exceeding it fails
    /// the run with [`VerifyError::StateSpaceTooLarge`]), worker count,
    /// cancellation token (flipping it fails the run with
    /// [`VerifyError::Cancelled`]), memory budget and spill directory — see
    /// [`ExploreConfig`].
    ///
    /// Only the bound can show in a result: on every successful verification
    /// the LTS — and hence every verdict, state count, transition count and
    /// witness — is the canonical one whatever the worker count or budget,
    /// by the renumbering of `lts::explore`, and bound trips surface as the
    /// same clamped error. Every property is decided on the finished LTS.
    pub explore: ExploreConfig,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier {
            checker: Checker::new(),
            auto_probe: true,
            visible: None,
            explore: ExploreConfig::serial(lts::DEFAULT_MAX_STATES),
        }
    }
}

impl Verifier {
    /// Creates a verifier with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a verifier with a custom state bound.
    pub fn with_max_states(max_states: usize) -> Self {
        Verifier {
            explore: ExploreConfig::serial(max_states),
            ..Self::default()
        }
    }

    /// Creates a verifier that uses the given (possibly custom-limited)
    /// subtyping/typing checker for applicability checks, probing and the LTS
    /// construction.
    pub fn with_checker(checker: Checker) -> Self {
        Verifier {
            checker,
            ..Self::default()
        }
    }

    /// The underlying subtyping/typing checker.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Checks the applicability conditions for type-level model checking.
    pub fn check_applicable(&self, env: &TypeEnv, ty: &Type) -> Result<(), VerifyError> {
        match self.checker.classify(env, ty) {
            Ok(TypeKind::Process) => {}
            Ok(TypeKind::Value) => {
                return Err(VerifyError::NotAProcessType(format!(
                    "{ty} is a value type, not a π-type"
                )))
            }
            Err(e) => return Err(VerifyError::NotAProcessType(e.to_string())),
        }
        if !ty.is_guarded() {
            return Err(VerifyError::NotGuarded);
        }
        if ty.has_par_under_rec() {
            return Err(VerifyError::ParallelUnderRecursion);
        }
        if ty.mentions_proc() {
            return Err(VerifyError::MentionsProc);
        }
        Ok(())
    }

    /// Extends the environment with one fresh probe variable per distinct
    /// input-payload type occurring in `ty`, so that every input has a
    /// variable inhabitant (precondition of Thm. 4.10); returns the extended
    /// environment together with the probe names.
    pub fn probe_env(&self, env: &TypeEnv, ty: &Type) -> (TypeEnv, Vec<Name>) {
        let mut domains = Vec::new();
        collect_input_domains(ty, &mut domains);
        let mut extended = env.clone();
        let mut probes = Vec::new();
        let mut counter = 0usize;
        for dom in domains {
            if dom.free_rec_vars().iter().next().is_some() {
                continue; // domain mentions a recursion variable: skip
            }
            // Skip if the domain is not a valid closed-enough type in Γ.
            if self.checker.check_type(&extended, &dom).is_err() {
                continue;
            }
            let name = Name::new(format!("probe_{counter}"));
            counter += 1;
            extended = extended.bind(name.clone(), dom);
            probes.push(name);
        }
        (extended, probes)
    }

    /// Builds the type LTS used for verification (after probing the
    /// environment) and returns it along with the environment actually used.
    ///
    /// To keep the state space close to the protocol's own behaviour, the
    /// early-input rule is restricted to the probe variables as payload
    /// candidates (synchronisations between parallel components are generated
    /// directly from the sender's payload and are unaffected).
    pub fn build_lts(
        &self,
        env: &TypeEnv,
        ty: &Type,
    ) -> Result<(TypeEnv, Lts<TyRef, TypeLabel>), VerifyError> {
        let (env, probes) = if self.auto_probe {
            self.probe_env(env, ty)
        } else {
            (env.clone(), Vec::new())
        };
        // Payload probes must stay visible even in a closed-composition model:
        // the forwarding/responsiveness targets are outputs on (or of) them.
        let visible = self.visible.as_ref().map(|v| {
            let mut v = v.clone();
            for p in &probes {
                if !v.contains(p) {
                    v.push(p.clone());
                }
            }
            v
        });
        let builder = TypeLts::with_checker(env.clone(), self.checker.clone())
            .with_candidate_policy(lts::CandidatePolicy::Only(probes))
            .with_visible_subjects(visible);
        let exploration = {
            let _span = obs::span("explore");
            builder.build_exploration(ty, &self.explore)
        };
        if exploration.status == ExploreStatus::Aborted {
            return Err(VerifyError::Cancelled);
        }
        let lts = exploration.lts;
        if lts.is_truncated() {
            return Err(VerifyError::StateSpaceTooLarge {
                bound: self.explore.max_states,
                // Clamped so the reported count never exceeds the bound, no
                // matter how far a (parallel) frontier overshot internally.
                explored: lts.num_states().min(self.explore.max_states),
            });
        }
        Ok((env, lts))
    }

    /// Verifies a single property of a type, returning the Fig. 9-style
    /// outcome (verdict, state count, time).
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] when the type is outside the decidable
    /// fragment or the state space exceeds the configured bound.
    pub fn verify(
        &self,
        env: &TypeEnv,
        ty: &Type,
        property: &Property,
    ) -> Result<VerificationOutcome, VerifyError> {
        self.check_applicable(env, ty)?;
        let start = Instant::now();
        let (probed_env, lts) = self.build_lts(env, ty)?;
        let _span = obs::span("check");
        let holds = property.holds(&self.checker, &probed_env, &lts);
        let trace = if holds {
            None
        } else {
            property.witness(&self.checker, &probed_env, &lts)
        };
        Ok(VerificationOutcome {
            property: property.clone(),
            holds,
            states: lts.num_states(),
            transitions: lts.num_transitions(),
            duration: start.elapsed(),
            trace,
        })
    }

    /// Verifies several properties of the same type, re-using a single LTS
    /// construction (the dominant cost); this is how the Fig. 9 rows are
    /// produced.
    pub fn verify_all(
        &self,
        env: &TypeEnv,
        ty: &Type,
        properties: &[Property],
    ) -> Result<Vec<VerificationOutcome>, VerifyError> {
        self.check_applicable(env, ty)?;
        let build_start = Instant::now();
        let (probed_env, lts) = self.build_lts(env, ty)?;
        let build_time = build_start.elapsed();
        let _span = obs::span("check");
        let mut out = Vec::with_capacity(properties.len());
        for p in properties {
            let start = Instant::now();
            let holds = p.holds(&self.checker, &probed_env, &lts);
            let trace = if holds {
                None
            } else {
                p.witness(&self.checker, &probed_env, &lts)
            };
            out.push(VerificationOutcome {
                property: p.clone(),
                holds,
                states: lts.num_states(),
                transitions: lts.num_transitions(),
                duration: start.elapsed() + build_time / (properties.len() as u32).max(1),
                trace,
            });
        }
        Ok(out)
    }
}

fn collect_input_domains(ty: &Type, out: &mut Vec<Type>) {
    match ty {
        Type::In(_, cont) => {
            if let Type::Pi(_, dom, body) = &**cont {
                if !out.contains(dom) {
                    out.push((**dom).clone());
                }
                collect_input_domains(body, out);
            } else {
                collect_input_domains(cont, out);
            }
        }
        Type::Out(a, b, c) => {
            collect_input_domains(a, out);
            collect_input_domains(b, out);
            collect_input_domains(c, out);
        }
        Type::Par(a, b) | Type::Union(a, b) => {
            collect_input_domains(a, out);
            collect_input_domains(b, out);
        }
        Type::Pi(_, dom, body) => {
            collect_input_domains(dom, out);
            collect_input_domains(body, out);
        }
        Type::Rec(_, body) => collect_input_domains(body, out),
        Type::ChanIO(t) | Type::ChanIn(t) | Type::ChanOut(t) => collect_input_domains(t, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambdapi::examples;

    fn payment_env() -> TypeEnv {
        TypeEnv::new()
            .bind("self", Type::chan_io(Type::Int))
            .bind("aud", Type::chan_out(Type::Int))
            .bind("client", examples::reply_channel_type())
    }

    fn payment_applied() -> Type {
        examples::tpayment_type()
            .apply_all(&[Type::var("self"), Type::var("aud"), Type::var("client")])
            .unwrap()
    }

    #[test]
    fn payment_service_properties_match_the_specification() {
        let verifier = Verifier::new();
        let env = payment_env();
        let ty = payment_applied();

        // The payment service never uses its mailbox for output ...
        let non_usage = verifier
            .verify(&env, &ty, &Property::non_usage(["self"]))
            .unwrap();
        assert!(non_usage.holds);
        assert!(non_usage.states > 1);

        // ... but it does use the audit and client channels for output.
        let uses_aud = verifier
            .verify(&env, &ty, &Property::non_usage(["aud"]))
            .unwrap();
        assert!(!uses_aud.holds);

        // Probing all three channels, the service never gets stuck.
        let df = verifier
            .verify(
                &env,
                &ty,
                &Property::deadlock_free(["self", "aud", "client"]),
            )
            .unwrap();
        assert!(df.holds, "{df}");

        // In isolation the service is *not* reactive modulo {self}: restricted
        // to its mailbox alone it blocks on the hidden aud/client outputs
        // (Def. 4.9). Reactiveness holds for the closed composition with an
        // auditor and clients — the scenario actually measured in Fig. 9 (see
        // the effpi crate's protocol library).
        let reactive = verifier
            .verify(&env, &ty, &Property::reactive("self"))
            .unwrap();
        assert!(!reactive.holds, "{reactive}");
    }

    #[test]
    fn unaudited_payment_fails_deadlock_free_shape_but_audited_is_fine() {
        // Sanity check that the two payment specifications are distinguishable
        // by the checker used in §1's motivating example: the audited spec can
        // output on aud, the unaudited one cannot.
        let verifier = Verifier::new();
        let env = payment_env();
        let audited = payment_applied();
        let unaudited = examples::tpayment_unaudited_type()
            .apply_all(&[Type::var("self"), Type::var("aud"), Type::var("client")])
            .unwrap();
        let p = Property::non_usage(["aud"]);
        assert!(!verifier.verify(&env, &audited, &p).unwrap().holds);
        assert!(verifier.verify(&env, &unaudited, &p).unwrap().holds);
    }

    #[test]
    fn ponger_is_responsive_on_its_mailbox_example_4_11() {
        let verifier = Verifier::new();
        let env = TypeEnv::new().bind("z", Type::chan_io(Type::chan_out(Type::Str)));
        let ty = examples::tpong_type().apply(&Type::var("z")).unwrap();
        // The auto-probing adds a co[str]-typed variable so the received reply
        // channel can be tracked (Thm. 4.10's precondition).
        let outcome = verifier
            .verify(&env, &ty, &Property::responsive("z"))
            .unwrap();
        assert!(outcome.holds, "{outcome}");
    }

    #[test]
    fn pingpong_composition_eventually_outputs_on_y_example_4_11() {
        let verifier = Verifier::new();
        let env = TypeEnv::new()
            .bind("y", Type::chan_io(Type::Str))
            .bind("z", Type::chan_io(Type::chan_out(Type::Str)));
        let ty = examples::tpp_type()
            .apply_all(&[Type::var("y"), Type::var("z")])
            .unwrap();
        // The ping-pong composition is closed: all its interactions happen
        // internally on y and z. Checking deadlock-freedom with an empty probe
        // set hides the spurious stand-alone input/output branches (Def. 4.9)
        // and asks exactly "does the composition ever get stuck?" — it does
        // not: it synchronises on z, then on y, then terminates.
        let df = verifier
            .verify(&env, &ty, &Property::DeadlockFree { vars: vec![] })
            .unwrap();
        assert!(df.holds, "{df}");
    }

    #[test]
    fn applicability_conditions_are_enforced() {
        let verifier = Verifier::new();
        let env = TypeEnv::new().bind("x", Type::chan_io(Type::Int));
        // Value types are rejected.
        assert!(matches!(
            verifier.verify(&env, &Type::Bool, &Property::reactive("x")),
            Err(VerifyError::NotAProcessType(_))
        ));
        // proc is rejected.
        let with_proc = Type::par(Type::Proc, Type::Nil);
        assert!(matches!(
            verifier.verify(&env, &with_proc, &Property::reactive("x")),
            Err(VerifyError::MentionsProc)
        ));
        // Parallel under recursion is rejected.
        let par_rec = Type::rec(
            "t",
            Type::inp(
                Type::var("x"),
                Type::pi("v", Type::Int, Type::par(Type::Nil, Type::rec_var("t"))),
            ),
        );
        assert!(matches!(
            verifier.verify(&env, &par_rec, &Property::reactive("x")),
            Err(VerifyError::ParallelUnderRecursion)
        ));
    }

    #[test]
    fn state_bound_is_respected() {
        let verifier = Verifier::with_max_states(3);
        let env = payment_env();
        let ty = payment_applied();
        let err = verifier
            .verify(&env, &ty, &Property::reactive("self"))
            .unwrap_err();
        match err {
            VerifyError::StateSpaceTooLarge { bound, explored } => {
                assert_eq!(bound, 3);
                assert!(explored >= 3, "explored {explored} states before tripping");
                let msg = err.to_string();
                assert!(
                    msg.contains("bound of 3") && msg.contains(&explored.to_string()),
                    "{msg}"
                );
            }
            other => panic!("expected StateSpaceTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn parallel_verification_matches_serial_verdicts_and_state_counts() {
        let mut parallel = Verifier::new();
        parallel.explore.parallelism = 4;
        let serial = Verifier::new();
        let env = payment_env();
        let ty = payment_applied();
        let props = [
            Property::non_usage(["self"]),
            Property::deadlock_free(["self", "aud", "client"]),
            Property::reactive("self"),
        ];
        for p in &props {
            let s = serial.verify(&env, &ty, p).unwrap();
            let q = parallel.verify(&env, &ty, p).unwrap();
            assert_eq!(s.holds, q.holds, "{p}");
            assert_eq!(s.states, q.states, "{p}");
            assert_eq!(s.transitions, q.transitions, "{p}");
        }
    }

    #[test]
    fn state_bound_overshoot_is_clamped_for_every_worker_count() {
        for parallelism in [1, 4] {
            let mut verifier = Verifier::with_max_states(5);
            verifier.explore.parallelism = parallelism;
            let env = payment_env();
            let ty = payment_applied();
            let err = verifier
                .verify(&env, &ty, &Property::reactive("self"))
                .unwrap_err();
            match err {
                VerifyError::StateSpaceTooLarge { bound, explored } => {
                    assert_eq!(bound, 5);
                    assert!(
                        explored <= bound,
                        "explored {explored} overshoots the bound on {parallelism} workers"
                    );
                }
                other => panic!("expected StateSpaceTooLarge, got {other:?}"),
            }
        }
    }

    #[test]
    fn failed_safety_checks_carry_a_replayable_trace() {
        let verifier = Verifier::new();
        let env = payment_env();
        let ty = payment_applied();
        let p = Property::non_usage(["aud"]);
        let outcome = verifier.verify(&env, &ty, &p).unwrap();
        assert!(!outcome.holds);
        let trace = outcome
            .trace
            .expect("failed safety property carries a trace");
        assert!(trace.violation.contains("aud"), "{}", trace.violation);
        // Replay on the LTS the property was decided on (non-usage is decided
        // on the unrestricted LTS, so build_lts reproduces it exactly).
        let (_, lts) = verifier.build_lts(&env, &ty).unwrap();
        let mut at = lts.initial();
        for step in &trace.steps {
            assert_eq!(step.from, at);
            assert!(
                lts.transitions_from(step.from)
                    .iter()
                    .any(|(l, j)| *l == step.label && *j == step.to),
                "step {step:?} is not a transition of the LTS"
            );
            at = step.to;
        }
        // Satisfied properties and failed liveness properties carry none.
        let ok = verifier
            .verify(&env, &ty, &Property::non_usage(["self"]))
            .unwrap();
        assert!(ok.holds && ok.trace.is_none());
        let live_env = TypeEnv::new()
            .bind("x", Type::chan_io(Type::Int))
            .bind("y", Type::chan_io(Type::Int));
        let only_x = Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil));
        let live = verifier
            .verify(&live_env, &only_x, &Property::eventual_output(["y"]))
            .unwrap();
        assert!(!live.holds && live.trace.is_none());
    }

    #[test]
    fn verify_all_reports_one_outcome_per_property() {
        let verifier = Verifier::new();
        let env = payment_env();
        let ty = payment_applied();
        let props = vec![
            Property::non_usage(["self"]),
            Property::deadlock_free(["self", "aud", "client"]),
            Property::eventual_output(["aud"]),
            Property::reactive("self"),
        ];
        let outcomes = verifier.verify_all(&env, &ty, &props).unwrap();
        assert_eq!(outcomes.len(), props.len());
        assert!(outcomes.iter().all(|o| o.states > 0));
    }

    #[test]
    fn a_flipped_cancel_token_fails_verification_with_cancelled() {
        for parallelism in [1, 4] {
            let mut verifier = Verifier::new();
            verifier.explore.parallelism = parallelism;
            let token = lts::CancelToken::new();
            token.cancel();
            verifier.explore.cancel = Some(token);
            let err = verifier
                .verify(
                    &payment_env(),
                    &payment_applied(),
                    &Property::reactive("self"),
                )
                .unwrap_err();
            assert!(
                matches!(err, VerifyError::Cancelled),
                "parallelism={parallelism}: {err:?}"
            );
            assert_eq!(err.to_string(), "verification cancelled");
        }
    }
}
