//! `replay-one SPEC`: one verdict, layer by layer, in a fresh process.
//!
//! The traced stand-in for `effpi-cli verify`: the same steps through the
//! same public calls — parse → key → typecheck → build_lts → holds/witness
//! → render — each in a span, in a process of its own so the interner and
//! the checker's memo tables are as cold as the CLI's. It prints one JSON
//! line about itself; [`Child`] is the parent's reading of it.

use std::process::ExitCode;
use std::time::Duration;

use effpi::spec::parse_spec;
use effpi::{PropertyReport, Report, Session, VerificationOutcome};
use wire::flags::parse_flag;
use wire::Json;

use crate::trace::{now_us, Recorder};

/// Span names of the layers a one-shot verdict passes through.
pub const READ: &str = "cli.read";
pub const PARSE: &str = "effpi.spec.parse";
pub const KEY: &str = "effpi.fingerprint.key";
pub const TYPECHECK: &str = "dbt-types.typecheck";
pub const EXPLORE: &str = "lts.explore";
pub const CHECK_SAFETY: &str = "mucalc.check.safety";
pub const CHECK_LIVENESS: &str = "mucalc.check.liveness";
pub const RENDER: &str = "effpi.session.render";
/// A second exploration on a fresh `Session`: same process, warm interner.
pub const REBUILD: &str = "lts.explore.again";

/// Report names of the properties decided by a safety algorithm (the ones a
/// failure of which has a finite witness).
pub fn is_safety(check: &str) -> bool {
    matches!(check, "non-usage" | "deadlock-free" | "reactive")
}

fn session(max_states: usize, jobs: usize, visible: Vec<effpi::Name>) -> Session {
    Session::builder()
        .max_states(max_states)
        .visible(visible)
        .parallelism(jobs)
        .build()
}

pub fn main(args: &[String]) -> ExitCode {
    match replay(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay-one: {e}");
            ExitCode::from(2)
        }
    }
}

fn replay(args: &[String]) -> Result<Json, String> {
    let path = args.get(1).ok_or("missing SPEC")?;
    let jobs = parse_flag(args, "--jobs")?.unwrap_or(1);
    let max_states = parse_flag(args, "--max-states")?.unwrap_or(500_000);
    let again = args.iter().any(|a| a == "--again");
    let mut rec = Recorder::default();
    let op = rec.next_op();

    let text = rec
        .time(READ, None, op, || std::fs::read_to_string(path))
        .map_err(|e| format!("{path}: {e}"))?;
    let spec = rec
        .time(PARSE, None, op, || parse_spec(&text))
        .map_err(|e| format!("{path}: {e}"))?;
    let session = session(max_states, jobs, spec.visible.clone());
    let key = rec.time(KEY, None, op, || session.cache_key(&spec));

    let ty = spec.ty.as_ref().ok_or("the spec has no type")?;
    let typecheck = spec.term.as_ref().map(|term| {
        rec.time(TYPECHECK, None, op, || {
            session.type_check(&spec.env, term, ty)
        })
    });

    let mut properties = Vec::new();
    let (mut states, mut transitions) = (0, 0);
    if !spec.checks.is_empty() {
        let explore_start = now_us();
        let built = rec.time(EXPLORE, None, op, || {
            session
                .verifier()
                .check_applicable(&spec.env, ty)
                .map_err(effpi::Error::from)
                .and_then(|()| session.build_lts(&spec.env, ty))
        });
        let (env, lts) = built.map_err(|e| format!("{path}: {e}"))?;
        let build_us = now_us() - explore_start;
        (states, transitions) = (lts.num_states(), lts.num_transitions());
        for property in &spec.checks {
            let name = if is_safety(property.name()) {
                CHECK_SAFETY
            } else {
                CHECK_LIVENESS
            };
            let check_start = now_us();
            let (holds, trace) = rec.time(name, None, op, || {
                let holds = property.holds(session.checker(), &env, &lts);
                let trace = if holds {
                    None
                } else {
                    property.witness(session.checker(), &env, &lts)
                };
                (holds, trace)
            });
            // A property's duration is its own check plus an even share of
            // the build, as `Verifier::verify_all` accounts it.
            let micros = now_us() - check_start + build_us / spec.checks.len() as f64;
            properties.push(PropertyReport {
                property: property.clone(),
                result: Ok(VerificationOutcome {
                    property: property.clone(),
                    holds,
                    states,
                    transitions,
                    duration: Duration::from_secs_f64(micros / 1e6),
                    trace,
                }),
            });
        }
    }
    let report = Report {
        name: None,
        typecheck,
        properties,
        error: None,
        strategy: effpi::Strategy::default(),
    };
    let rendered = rec.time(RENDER, None, op, || report.to_wire_json().to_string());

    let checker = effpi::checker_stats();
    let intern = effpi::intern_stats();
    if again {
        // The counters above are the first build's; this second build on a
        // fresh session finds the interner warm and the memo tables cold.
        let fresh = self::session(max_states, jobs, spec.visible.clone());
        rec.time(REBUILD, None, op, || fresh.build_lts(&spec.env, ty))
            .map_err(|e| format!("{path}: {e}"))?;
    }

    let spans = rec.spans.iter().map(|span| {
        Json::obj([
            ("name", Json::str(span.name.clone())),
            ("start_us", Json::Num(span.start_us)),
            ("end_us", Json::Num(span.end_us)),
        ])
    });
    let count = |n: u64| Json::Num(n as f64);
    Ok(Json::obj([
        ("key", Json::str(key.to_string())),
        ("states", Json::Num(states as f64)),
        ("transitions", Json::Num(transitions as f64)),
        ("stable_line", Json::str(report.summary().stable_line())),
        ("report", Json::str(rendered)),
        ("subtype_hits", count(checker.subtype_hits)),
        ("subtype_misses", count(checker.subtype_misses)),
        ("interact_hits", count(checker.interact_hits)),
        ("interact_misses", count(checker.interact_misses)),
        ("typing_hits", count(checker.typing_hits)),
        ("typing_misses", count(checker.typing_misses)),
        (
            "intern_nodes",
            Json::Num((intern.types + intern.terms) as f64),
        ),
        ("spans", Json::Arr(spans.collect())),
    ]))
}

/// What a `replay-one` child said about itself.
pub struct Child {
    pub key: String,
    pub states: usize,
    pub transitions: usize,
    pub stable_line: String,
    /// The rendered wire report.
    pub report: String,
    /// Subtyping and might-interact derivations run (memo misses), and memo
    /// lookups that hit and missed across subtyping, interaction and typing.
    pub subtype_derivations: u64,
    pub interact_derivations: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub intern_nodes: u64,
    /// `(name, start_us, end_us)` of each layer span.
    pub spans: Vec<(String, f64, f64)>,
}

impl Child {
    pub fn parse(stdout: &str) -> Result<Child, String> {
        let line = stdout.lines().last().ok_or("replay-one printed nothing")?;
        let json = Json::parse(line)?;
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("replay-one output lacks {key:?}"))
        };
        let number = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("replay-one output lacks {key:?}"))
        };
        let spans = json
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("replay-one output lacks \"spans\"")?
            .iter()
            .map(|span| {
                let at = |key: &str| span.get(key).and_then(Json::as_f64);
                match (
                    span.get("name").and_then(Json::as_str),
                    at("start_us"),
                    at("end_us"),
                ) {
                    (Some(name), Some(start), Some(end)) => Ok((name.to_string(), start, end)),
                    _ => Err("a malformed span".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        let (subtype_misses, interact_misses) =
            (number("subtype_misses")?, number("interact_misses")?);
        Ok(Child {
            key: text("key")?,
            states: number("states")? as usize,
            transitions: number("transitions")? as usize,
            stable_line: text("stable_line")?,
            report: text("report")?,
            subtype_derivations: subtype_misses as u64,
            interact_derivations: interact_misses as u64,
            memo_hits: (number("subtype_hits")? + number("interact_hits")? + number("typing_hits")?)
                as u64,
            memo_misses: (subtype_misses + interact_misses + number("typing_misses")?) as u64,
            intern_nodes: number("intern_nodes")? as u64,
            spans,
        })
    }

    /// Σ duration of this child's spans called `name`, in microseconds.
    pub fn micros(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, ..)| n == name)
            .map(|(_, start, end)| end - start)
            .sum()
    }
}
