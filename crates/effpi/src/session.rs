//! The unified verification surface: [`Session`].
//!
//! The paper's toolkit exposes one coherent entry point — the
//! `@effpi.verifier.verify` compiler plugin — for its two-step method:
//! type-check the program (Step 1, §3), then model-check the type (Step 2,
//! §4). A [`Session`] is this reproduction's counterpart: a builder-configured
//! façade that owns the typing [`Checker`] and the model-checking
//! [`Verifier`], caches them across calls, and is the single place where
//! programs, types and `.effpi` [`Spec`]s enter the pipeline.
//!
//! ```
//! use effpi::Session;
//! use effpi::protocols::payment;
//!
//! let session = Session::builder().max_states(50_000).build();
//!
//! // Step 1 — the Fig. 1 payment service implements its audited spec.
//! let term = lambdapi::examples::payment_term();
//! let ty = lambdapi::examples::tpayment_type();
//! session.type_check_closed(&term, &ty).unwrap();
//!
//! // Step 2 — the composed protocol's Fig. 9 row, generated as `.effpi`
//! // text: deadlock-free (col 1) and responsive (col 6), though not
//! // unconditionally forwarding (col 3).
//! let report = session.run_spec_text(&payment::spec(2)).unwrap();
//! assert!(report.first_error().is_none());
//! let verdicts = report.verdicts();
//! assert!(verdicts[0] && verdicts[5] && !verdicts[2]);
//! println!("{}", report.summary());
//! ```
//!
//! Diagnostics from every stage are unified under [`Error`], and every
//! multi-property run produces a structured [`Report`] with per-property
//! outcomes, model sizes, timings, an overall [`Report::passed`] verdict, and
//! a machine-readable [`Report::summary`] for the benchmark harness.

use std::fmt;
use std::time::Duration;

use dbt_types::{Checker, TypeEnv, TypeError};
use lambdapi::{Name, Term, TyRef, Type};
use lts::{CancelToken, ExploreConfig, Lts, TypeLabel};
use mucalc::{Property, VerificationOutcome, Verifier, VerifyError};

use crate::spec::{parse_spec, Spec, SpecError};

// ---------------------------------------------------------------------------
// Unified diagnostics
// ---------------------------------------------------------------------------

/// Any error the verification pipeline can produce, from any stage: typing
/// (Step 1), model checking (Step 2), or `.effpi` specification handling.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Error {
    /// The program does not implement the protocol (Step 1, Fig. 4).
    Type(TypeError),
    /// The protocol type could not be model-checked (Step 2, Lemma 4.7 /
    /// Thm. 4.10 applicability, or the state bound tripped).
    Verify(VerifyError),
    /// A `.effpi` specification is malformed or incomplete.
    Spec(SpecError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Type(e) => write!(f, "type error: {e}"),
            Error::Verify(e) => write!(f, "verification error: {e}"),
            Error::Spec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Type(e) => Some(e),
            Error::Verify(e) => Some(e),
            Error::Spec(e) => Some(e),
        }
    }
}

impl From<TypeError> for Error {
    fn from(e: TypeError) -> Self {
        Error::Type(e)
    }
}

impl From<VerifyError> for Error {
    fn from(e: VerifyError) -> Self {
        Error::Verify(e)
    }
}

impl From<SpecError> for Error {
    fn from(e: SpecError) -> Self {
        Error::Spec(e)
    }
}

// ---------------------------------------------------------------------------
// Configuration and builder
// ---------------------------------------------------------------------------

/// The resolved configuration of a [`Session`] (inspectable via
/// [`Session::config`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionConfig {
    /// Maximum number of LTS states explored before giving up (Step 2).
    pub max_states: usize,
    /// Maximum subtyping/typing derivation depth (Step 1).
    pub max_depth: usize,
    /// Maximum consecutive µ-unfoldings during subtyping (Step 1).
    pub max_unfold: usize,
    /// Whether payload-probe variables are added automatically (Thm. 4.10's
    /// precondition).
    pub auto_probe: bool,
    /// Channels visible to the environment in direct [`Session::verify`] /
    /// [`Session::verify_all`] / [`Session::build_lts`] calls; `None` keeps
    /// the full Def. 4.2 transition relation. Spec runs use the spec's own
    /// `visible` list instead.
    pub visible: Option<Vec<Name>>,
    /// Worker threads used for state-space exploration (Step 2); `1` explores
    /// serially. Reports are identical for every value — see the determinism
    /// guarantee of `lts::explore`.
    pub parallelism: usize,
    /// Cooperative cancellation hook: when set, flipping the token aborts any
    /// in-flight exploration of this session at its next state expansion
    /// (the run then reports [`mucalc::VerifyError::Cancelled`]). Excluded
    /// from [`Session::cache_key`] — it cannot change a *completed* report.
    pub cancel: Option<CancelToken>,
    /// Caps the exploration's resident working set (seen-set pages plus
    /// in-RAM frontier, in bytes, Step 2): past the budget, cold frontier
    /// segments spill to disk and stream back in discovery order. Excluded
    /// from [`Session::cache_key`] — like `parallelism`, it can never change
    /// a report (verdicts, state counts and witnesses are byte-identical to
    /// an unbudgeted run; the budget only trades RAM for disk I/O).
    pub memory_budget: Option<usize>,
    /// Directory for frontier spill segments (default: the system temp
    /// dir). Each run uses its own subdirectory and removes it when done.
    /// Excluded from [`Session::cache_key`] for the same reason.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        let checker = Checker::default();
        SessionConfig {
            max_states: lts::DEFAULT_MAX_STATES,
            max_depth: checker.max_depth,
            max_unfold: checker.max_unfold,
            auto_probe: true,
            visible: None,
            parallelism: 1,
            cancel: None,
            memory_budget: None,
            spill_dir: None,
        }
    }
}

/// Builder for [`Session`]; obtained from [`Session::builder`].
///
/// Every knob defaults to the corresponding [`Checker::default`] /
/// [`Verifier::default`] setting, so `Session::builder().build()` behaves
/// exactly like the pre-`Session` free functions did.
#[derive(Clone, Debug, Default)]
#[must_use = "call .build() to obtain a Session"]
pub struct SessionBuilder {
    config: SessionConfig,
}

impl SessionBuilder {
    /// Sets the maximum number of LTS states explored before
    /// [`VerifyError::StateSpaceTooLarge`] is reported.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.config.max_states = max_states;
        self
    }

    /// Sets the maximum typing/subtyping derivation depth.
    pub fn max_depth(mut self, max_depth: usize) -> Self {
        self.config.max_depth = max_depth;
        self
    }

    /// Sets how many consecutive µ-unfoldings subtyping performs.
    pub fn max_unfold(mut self, max_unfold: usize) -> Self {
        self.config.max_unfold = max_unfold;
        self
    }

    /// Enables or disables automatic payload probing (on by default).
    pub fn auto_probe(mut self, auto_probe: bool) -> Self {
        self.config.auto_probe = auto_probe;
        self
    }

    /// Restricts direct verification calls to the given visible channels
    /// (internal channels then only contribute τ-synchronisations, Def. 4.9).
    pub fn visible<I, N>(mut self, visible: I) -> Self
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        self.config.visible = Some(visible.into_iter().map(Into::into).collect());
        self
    }

    /// Sets how many worker threads state-space exploration uses (default
    /// `1`, i.e. serial; the CLI's `--jobs` flag). Reports are identical for
    /// every value: on success the parallel engine canonically renumbers its
    /// result to match the serial exploration, and state-bound trips surface
    /// as the same clamped error.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.config.parallelism = parallelism.max(1);
        self
    }

    /// Attaches a cooperative cancellation token (see
    /// [`SessionConfig::cancel`]): the way a service aborts an in-flight
    /// verification instead of merely dropping it from its queue.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = Some(cancel);
        self
    }

    /// Caps the resident working set of state-space exploration, in bytes
    /// (the CLI's `--memory-budget-explore` flag): past the budget, cold
    /// frontier segments spill to disk and stream back in discovery order,
    /// so state spaces larger than RAM stay explorable. Reports are
    /// byte-identical with or without a budget — determinism and witness
    /// minimality are preserved; only the RAM/disk trade-off changes.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config.memory_budget = Some(bytes);
        self
    }

    /// Directory for frontier spill segments (default: the system temp
    /// dir). Each run uses its own subdirectory and removes it when done.
    pub fn spill_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.config.spill_dir = Some(dir);
        self
    }

    /// Builds the session, constructing and caching its checker and verifier.
    pub fn build(self) -> Session {
        let checker = Checker::with_limits(self.config.max_depth, self.config.max_unfold);
        let mut verifier = Verifier::with_checker(checker);
        verifier.auto_probe = self.config.auto_probe;
        verifier.visible = self.config.visible.clone();
        // The engine's settings, gathered once: every exploration of the
        // session (type side and term side) runs as this says.
        verifier.explore = ExploreConfig {
            parallelism: self.config.parallelism,
            max_states: self.config.max_states,
            cancel: self.config.cancel.clone(),
            memory_budget: self.config.memory_budget,
            spill_dir: self.config.spill_dir.clone(),
        };
        Session {
            config: self.config,
            verifier,
        }
    }
}

// ---------------------------------------------------------------------------
// The session itself
// ---------------------------------------------------------------------------

/// The single entry point of the verification pipeline.
///
/// A session owns one typing [`Checker`] and one model-checking [`Verifier`],
/// configured once through [`Session::builder`] and reused across calls —
/// every consumer (`.effpi` specs, the Fig. 9 table, the CLI, the daemon,
/// the benchmark harness) routes through it, which is also where future
/// cross-call work (LTS caching, parallel property checking, alternative
/// backends) plugs in.
#[derive(Clone, Debug)]
pub struct Session {
    config: SessionConfig,
    // The Step 1 checker lives inside the verifier (`Verifier::checker`), so
    // both steps always share one identically-configured instance.
    verifier: Verifier,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session with all-default settings (equivalent to
    /// `Session::builder().build()`).
    pub fn new() -> Self {
        Session::default()
    }

    /// The resolved configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The cached typing/subtyping checker (Step 1) — the same instance the
    /// verifier uses for Step 2's applicability checks and probing.
    pub fn checker(&self) -> &Checker {
        self.verifier.checker()
    }

    /// The cached model-checking verifier (Step 2).
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    // ----- Step 1: typing ---------------------------------------------------

    /// Checks that an open λπ⩽ term implements the given behavioural type in
    /// the given environment (`Γ ⊢ t : T`, Fig. 4).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Type`] if the term does not implement the type.
    pub fn type_check(&self, env: &TypeEnv, term: &Term, ty: &Type) -> Result<(), Error> {
        let _span = obs::span("typecheck");
        self.checker()
            .check_term(env, term, ty)
            .map_err(Error::from)
    }

    /// Checks that a closed λπ⩽ term implements the given behavioural type
    /// (`∅ ⊢ t : T`) — the paper's Step 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Type`] if the term does not implement the type.
    pub fn type_check_closed(&self, term: &Term, ty: &Type) -> Result<(), Error> {
        self.type_check(&TypeEnv::new(), term, ty)
    }

    // ----- Step 2: type-level model checking --------------------------------

    /// Verifies one behavioural property of a type (Step 2; the result
    /// transfers to every program implementing the type by Thm. 4.10).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`] when the type is outside the decidable
    /// fragment of Lemma 4.7 or its state space exceeds the configured bound.
    pub fn verify(
        &self,
        env: &TypeEnv,
        ty: &Type,
        property: &Property,
    ) -> Result<VerificationOutcome, Error> {
        self.verifier.verify(env, ty, property).map_err(Error::from)
    }

    /// Verifies several properties of the same type, re-using a single LTS
    /// construction (the dominant cost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`] when the type is outside the decidable
    /// fragment or the state space exceeds the configured bound.
    pub fn verify_all(
        &self,
        env: &TypeEnv,
        ty: &Type,
        properties: &[Property],
    ) -> Result<Vec<VerificationOutcome>, Error> {
        self.verifier
            .verify_all(env, ty, properties)
            .map_err(Error::from)
    }

    /// Builds the type LTS exactly as verification would (probes and
    /// visibility restriction included) and returns it together with the
    /// probed environment — the data behind the CLI's `lts` command.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`] when the LTS cannot be built within the
    /// configured bound.
    pub fn build_lts(
        &self,
        env: &TypeEnv,
        ty: &Type,
    ) -> Result<(TypeEnv, Lts<TyRef, TypeLabel>), Error> {
        self.verifier.build_lts(env, ty).map_err(Error::from)
    }

    /// Builds the *open-term* LTS of Def. 4.1 (Fig. 5) for a term in an
    /// environment, on the same exploration engine and with the same engine
    /// settings as the session's verifier — the term-side counterpart of
    /// [`Session::build_lts`], used by the conformance and determinism
    /// suites.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verify`] when the state space exceeds the configured
    /// bound or the session's cancel token fires.
    pub fn build_term_lts(
        &self,
        env: &TypeEnv,
        term: &Term,
    ) -> Result<Lts<lambdapi::TermRef, lts::TermLabel>, Error> {
        let exploration = lts::TermLts::with_checker(env.clone(), self.checker().clone())
            .build_exploration(term, &self.verifier.explore);
        if exploration.status == lts::ExploreStatus::Aborted {
            return Err(Error::Verify(VerifyError::Cancelled));
        }
        let lts = exploration.lts;
        if lts.is_truncated() {
            return Err(Error::Verify(VerifyError::StateSpaceTooLarge {
                bound: self.config.max_states,
                explored: lts.num_states().min(self.config.max_states),
            }));
        }
        Ok(lts)
    }

    // ----- .effpi specs -----------------------------------------------------

    /// Runs a parsed `.effpi` [`Spec`]: type-checks the optional `term`
    /// statement against the `type` (Step 1) and verifies every `check`
    /// statement (Step 2), using the spec's `visible` channel list.
    ///
    /// All failures are captured inside the returned [`Report`].
    pub fn run_spec(&self, spec: &Spec) -> Report {
        let typecheck = match (&spec.term, &spec.ty) {
            (Some(term), Some(ty)) => Some(self.type_check(&spec.env, term, ty)),
            (Some(_), None) => Some(Err(Error::Spec(SpecError {
                line: 0,
                message: "a `term` statement requires a `type` statement".into(),
            }))),
            _ => None,
        };
        let mut properties = Vec::new();
        let mut error = None;
        if let Some(ty) = &spec.ty {
            if !spec.checks.is_empty() {
                // All checks share one LTS, built with the spec's own
                // `visible` list (it overrides the session default).
                let mut verifier = self.verifier.clone();
                verifier.visible = Some(spec.visible.clone());
                match verifier.verify_all(&spec.env, ty, &spec.checks) {
                    Ok(outcomes) => {
                        properties = (spec.checks.iter().cloned().zip(outcomes))
                            .map(|(property, outcome)| PropertyReport {
                                property,
                                result: Ok(outcome),
                            })
                            .collect();
                    }
                    Err(e) => error = Some(e.into()),
                }
            }
        } else if !spec.checks.is_empty() {
            error = Some(Error::Spec(SpecError {
                line: 0,
                message: "`check` statements require a `type` statement".into(),
            }));
        }
        Report {
            name: None,
            typecheck,
            properties,
            error,
            strategy: Strategy::Bfs,
        }
    }

    /// Parses and runs a `.effpi` specification in one call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] when the text is not a valid specification;
    /// verification failures are captured inside the returned [`Report`].
    pub fn run_spec_text(&self, text: &str) -> Result<Report, Error> {
        let spec = {
            let _span = obs::span("parse");
            parse_spec(text)?
        };
        Ok(self.run_spec(&spec))
    }

    /// The content address of running `spec` on this session — the key under
    /// which a verdict cache (the `effpi-serve` daemon's, or any other) may
    /// store and replay the report of [`Session::run_spec`].
    ///
    /// Normalisation-equivalent specs (alias renaming, re-ordered unions,
    /// whitespace/comment changes) share one key; anything that can change
    /// the report — type, environment, visibility, term, check list, engine
    /// bounds — separates keys. `parallelism` is excluded by the engine's
    /// determinism guarantee. See [`crate::fingerprint`] for the contract.
    pub fn cache_key(&self, spec: &Spec) -> crate::fingerprint::CacheKey {
        crate::fingerprint::spec_cache_key(&self.config, spec)
    }
}

// ---------------------------------------------------------------------------
// Structured reports
// ---------------------------------------------------------------------------

/// The outcome of one `check`/property within a [`Report`].
#[derive(Clone, Debug)]
pub struct PropertyReport {
    /// The property that was checked.
    pub property: Property,
    /// The verification outcome, or the error that prevented it.
    pub result: Result<VerificationOutcome, Error>,
}

impl PropertyReport {
    /// `true` when the property was decided and holds.
    pub fn holds(&self) -> bool {
        matches!(&self.result, Ok(outcome) if outcome.holds)
    }
}

/// A structured report of one pipeline run (a specification): the Step 1
/// typing outcome, one entry per property, and any run-level failure.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// A label for the run. [`Session`] runs are anonymous and leave it
    /// `None`; it is rendered (in the summary, the wire JSON and the human
    /// rendering) only for reports assembled by hand that set it.
    pub name: Option<String>,
    /// The Step 1 outcome, when the run included a term to type-check.
    pub typecheck: Option<Result<(), Error>>,
    /// One entry per property checked (Step 2).
    pub properties: Vec<PropertyReport>,
    /// A failure that aborted the run before per-property outcomes existed.
    pub error: Option<Error>,
    /// Always [`Strategy::Bfs`], the engine's one exploration order, and
    /// never rendered: [`Report::to_wire_json`] writes `"strategy":null`, so
    /// reports stored by earlier releases stay byte-compatible.
    pub strategy: Strategy,
}

/// The exploration order of a [`Report`]. The engine has one — breadth-first,
/// canonically numbered — so this type has one value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Strategy {
    /// Breadth-first.
    #[default]
    Bfs,
}

impl Report {
    /// `true` when nothing failed: no run-level error, the term (if any)
    /// type-checks, and every checked property was decided and holds.
    pub fn passed(&self) -> bool {
        self.error.is_none()
            && matches!(&self.typecheck, None | Some(Ok(())))
            && self.properties.iter().all(PropertyReport::holds)
    }

    /// The verdict of each property, in order (`false` for undecided ones).
    pub fn verdicts(&self) -> Vec<bool> {
        self.properties.iter().map(PropertyReport::holds).collect()
    }

    /// Number of states of the explored type LTS (the largest across
    /// properties, which for a spec run is the one shared LTS).
    pub fn states(&self) -> usize {
        self.properties
            .iter()
            .filter_map(|p| p.result.as_ref().ok().map(|o| o.states))
            .max()
            .unwrap_or(0)
    }

    /// Number of transitions of the explored type LTS (largest across
    /// properties).
    pub fn transitions(&self) -> usize {
        self.properties
            .iter()
            .filter_map(|p| p.result.as_ref().ok().map(|o| o.transitions))
            .max()
            .unwrap_or(0)
    }

    /// Total wall-clock time across all property checks.
    pub fn total_duration(&self) -> Duration {
        self.properties
            .iter()
            .filter_map(|p| p.result.as_ref().ok().map(|o| o.duration))
            .sum()
    }

    /// The first error anywhere in the report (run-level, typing, or
    /// per-property), if any — handy for turning a report back into a
    /// `Result` at API boundaries.
    pub fn first_error(&self) -> Option<&Error> {
        if let Some(e) = &self.error {
            return Some(e);
        }
        if let Some(Err(e)) = &self.typecheck {
            return Some(e);
        }
        self.properties.iter().find_map(|p| p.result.as_ref().err())
    }

    /// A compact, machine-readable one-record summary (stable `key=value`
    /// fields), consumed by the benchmark harness and easy to grep/parse.
    pub fn summary(&self) -> ReportSummary {
        ReportSummary {
            name: self.name.clone().unwrap_or_default(),
            passed: self.passed(),
            states: self.states(),
            transitions: self.transitions(),
            duration: self.total_duration(),
            verdicts: self
                .properties
                .iter()
                .map(|p| (p.property.name().to_string(), p.holds()))
                .collect(),
            error: self.first_error().map(|e| e.to_string()),
        }
    }

    /// Renders the report as the workspace's wire JSON — the body of an
    /// `effpi-serve` `verify` response and the shape cached by its verdict
    /// cache (see `crates/serve/PROTOCOL.md`).
    ///
    /// [`wire::Json`] renders deterministically, so structurally equal
    /// reports produce byte-identical text; the `stable_line` field carries
    /// [`ReportSummary::stable_line`] verbatim so clients can compare runs
    /// without re-deriving it. Durations are wall-clock milliseconds rounded
    /// to 3 decimals — on a cache hit they are the *cold* run's timings,
    /// replayed with the rest of the stored report.
    pub fn to_wire_json(&self) -> wire::Json {
        use wire::Json;
        let _span = obs::span("render");
        let typecheck = match &self.typecheck {
            None => Json::Null,
            Some(Ok(())) => Json::obj([("ok", Json::Bool(true))]),
            Some(Err(e)) => Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::str(e.to_string())),
            ]),
        };
        let properties: Vec<Json> = self
            .properties
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("property".to_string(), Json::str(p.property.to_string())),
                    ("name".to_string(), Json::str(p.property.name())),
                ];
                match &p.result {
                    Ok(o) => {
                        fields.extend([
                            ("holds".to_string(), Json::Bool(o.holds)),
                            ("states".to_string(), Json::Num(o.states as f64)),
                            ("transitions".to_string(), Json::Num(o.transitions as f64)),
                            (
                                "duration_ms".to_string(),
                                Json::num_round3(o.duration.as_secs_f64() * 1e3),
                            ),
                        ]);
                        if let Some(trace) = &o.trace {
                            fields.push((
                                "violation".to_string(),
                                Json::str(trace.violation.clone()),
                            ));
                            fields.push((
                                "trace".to_string(),
                                Json::Arr(
                                    trace
                                        .steps
                                        .iter()
                                        .map(|s| {
                                            Json::obj([
                                                ("from", Json::Num(s.from as f64)),
                                                ("label", Json::str(s.label.to_string())),
                                                ("to", Json::Num(s.to as f64)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ));
                        }
                    }
                    Err(e) => fields.push(("error".to_string(), Json::str(e.to_string()))),
                }
                Json::obj(fields)
            })
            .collect();
        let summary = self.summary();
        Json::obj([
            (
                "name",
                match &self.name {
                    Some(n) => Json::str(n.clone()),
                    None => Json::Null,
                },
            ),
            ("passed", Json::Bool(summary.passed)),
            ("states", Json::Num(summary.states as f64)),
            ("transitions", Json::Num(summary.transitions as f64)),
            (
                "duration_ms",
                Json::num_round3(summary.duration.as_secs_f64() * 1e3),
            ),
            ("typecheck", typecheck),
            ("properties", Json::Arr(properties)),
            (
                "error",
                match &summary.error {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
            // Always null: kept so stored reports stay byte-compatible.
            ("strategy", Json::Null),
            ("stable_line", Json::str(summary.stable_line())),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            writeln!(f, "name: {name}")?;
        }
        match &self.typecheck {
            Some(Ok(())) => writeln!(f, "typecheck: ok")?,
            Some(Err(e)) => writeln!(f, "typecheck: FAILED — {e}")?,
            None => {}
        }
        for p in &self.properties {
            match &p.result {
                Ok(outcome) => writeln!(f, "{outcome}")?,
                Err(e) => writeln!(f, "{}: {e}", p.property)?,
            }
        }
        if let Some(e) = &self.error {
            writeln!(f, "error: {e}")?;
        }
        Ok(())
    }
}

/// Machine-readable summary of a [`Report`]; its [`fmt::Display`] renders one
/// line of stable `key=value` pairs.
#[derive(Clone, Debug)]
pub struct ReportSummary {
    /// The report's [`Report::name`] (empty for anonymous runs).
    pub name: String,
    /// Overall verdict, as in [`Report::passed`].
    pub passed: bool,
    /// States of the explored LTS.
    pub states: usize,
    /// Transitions of the explored LTS.
    pub transitions: usize,
    /// Total verification time.
    pub duration: Duration,
    /// `(property name, holds)` per property, in order.
    pub verdicts: Vec<(String, bool)>,
    /// First error message, if anything failed to run.
    pub error: Option<String>,
}

impl ReportSummary {
    /// The summary as one line of stable `key=value` pairs **without** the
    /// wall-clock duration — every field of this rendering is deterministic,
    /// so two runs of the same artifact must produce byte-identical stable
    /// lines regardless of the session's `parallelism` (the determinism suite
    /// asserts exactly this). [`fmt::Display`] adds the timing back.
    pub fn stable_line(&self) -> String {
        self.line(None)
    }

    /// The `key=value` line, with `duration_ms` after `transitions` when a
    /// duration is given.
    fn line(&self, duration: Option<Duration>) -> String {
        use fmt::Write as _;
        let mut line = format!(
            "name={:?} passed={} states={} transitions={}",
            self.name, self.passed, self.states, self.transitions
        );
        if let Some(duration) = duration {
            let _ = write!(line, " duration_ms={}", duration.as_millis());
        }
        if !self.verdicts.is_empty() {
            let cells: Vec<String> = self
                .verdicts
                .iter()
                .map(|(n, h)| format!("{n}:{h}"))
                .collect();
            let _ = write!(line, " verdicts={}", cells.join(","));
        }
        if let Some(e) = &self.error {
            let _ = write!(line, " error={e:?}");
        }
        line
    }
}

impl fmt::Display for ReportSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.line(Some(self.duration)))
    }
}
