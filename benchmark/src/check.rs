//! What makes an operation correct: the pinned cells of `expected.json`, and
//! agreement between the paths a verdict can take (one-shot CLI, daemon
//! cold, LRU hit, disk hit).

use std::collections::HashMap;
use std::path::Path;

use wire::Json;

use crate::specs::GenSpec;

/// The verdict of one verification, whichever surface produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verdict {
    pub passed: bool,
    pub states: usize,
    pub transitions: usize,
    /// One entry per `check`, in statement order.
    pub holds: Vec<bool>,
    /// Step 1 outcome, when the spec has a `term`.
    pub typecheck: Option<bool>,
}

impl Verdict {
    /// Reads the verdict off `effpi-cli verify`'s standard output and exit
    /// code (0 all passed, 1 some check or the typing failed).
    pub fn from_cli(spec: &GenSpec, stdout: &str, code: Option<i32>) -> Result<Verdict, String> {
        let passed = match code {
            Some(0) => true,
            Some(1) => false,
            other => return Err(format!("exit {other:?}")),
        };
        let mut verdict = Verdict {
            passed,
            states: 0,
            transitions: 0,
            holds: Vec::new(),
            typecheck: None,
        };
        let unparsable = |line: &str| format!("unparsable output line {line:?}");
        for line in stdout.lines() {
            if line == "typecheck: ok" {
                verdict.typecheck = Some(true);
            } else if line.starts_with("typecheck: FAILED") {
                verdict.typecheck = Some(false);
            } else if let Some(result) = line.strip_prefix("result: ") {
                if (result == "all checks passed") != passed {
                    return Err(format!("exit {code:?} contradicts {line:?}"));
                }
            } else {
                // "<property>: <bool> (<n> states, <m> transitions, <t>s)"
                let (head, counts) = line.rsplit_once(" (").ok_or_else(|| unparsable(line))?;
                let (_, holds) = head.rsplit_once(": ").ok_or_else(|| unparsable(line))?;
                let mut words = counts.split(' ');
                let states = words.next().and_then(|w| w.parse().ok());
                let transitions = words.nth(1).and_then(|w| w.parse().ok());
                match (holds.parse(), states, transitions) {
                    (Ok(holds), Some(states), Some(transitions)) => {
                        verdict.holds.push(holds);
                        // All checks share one LTS; a report's counts are the
                        // largest across its properties.
                        verdict.states = verdict.states.max(states);
                        verdict.transitions = verdict.transitions.max(transitions);
                    }
                    _ => return Err(unparsable(line)),
                }
            }
        }
        if verdict.holds.len() != spec.checks.len() {
            return Err(format!(
                "{} verdict lines for {} checks",
                verdict.holds.len(),
                spec.checks.len()
            ));
        }
        Ok(verdict)
    }

    /// Reads the verdict off a daemon's decoded `verify` reply.
    pub fn from_wire(spec: &GenSpec, report: &serve::WireReport) -> Result<Verdict, String> {
        if let Some(error) = &report.error {
            return Err(format!("report carries an error: {error}"));
        }
        let names: Vec<&str> = report
            .verdicts
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        if names != spec.checks {
            return Err(format!(
                "reply checks {names:?}, spec checks {:?}",
                spec.checks
            ));
        }
        Ok(Verdict {
            passed: report.passed,
            states: report.states,
            transitions: report.transitions,
            holds: report.verdicts.iter().map(|(_, holds)| *holds).collect(),
            typecheck: report.typecheck.as_ref().map(Result::is_ok),
        })
    }

    /// The `stable_line` an error-free report of this verdict carries.
    pub fn stable_line(&self, spec: &GenSpec) -> String {
        let mut line = format!(
            "name=\"\" passed={} states={} transitions={}",
            self.passed, self.states, self.transitions
        );
        if !self.holds.is_empty() {
            let cells: Vec<String> = spec
                .checks
                .iter()
                .zip(&self.holds)
                .map(|(name, holds)| format!("{name}:{holds}"))
                .collect();
            line.push_str(" verdicts=");
            line.push_str(&cells.join(","));
        }
        line
    }
}

/// The hand-pinned cells of `benchmark/expected.json`.
pub struct Expected {
    cells: HashMap<(String, String), bool>,
    typecheck: HashMap<String, bool>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let rows = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("expected.json: no {key:?} array"))
        };
        let field = |row: &Json, key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("expected.json: a row lacks {key:?}"))
        };
        let flag = |row: &Json, key: &str| {
            row.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("expected.json: a row lacks {key:?}"))
        };
        let mut expected = Expected {
            cells: HashMap::new(),
            typecheck: HashMap::new(),
        };
        for row in rows("cells")? {
            let cell = (field(row, "spec")?, field(row, "check")?);
            expected.cells.insert(cell, flag(row, "holds")?);
        }
        for row in rows("typecheck")? {
            expected
                .typecheck
                .insert(field(row, "spec")?, flag(row, "ok")?);
        }
        Ok(expected)
    }

    /// Refuses a verdict that contradicts a pinned cell.
    pub fn check(&self, spec: &GenSpec, verdict: &Verdict) -> Result<(), String> {
        for (check, holds) in spec.checks.iter().zip(&verdict.holds) {
            let pinned = self.cells.get(&(spec.name.clone(), check.to_string()));
            if pinned.is_some_and(|pinned| pinned != holds) {
                return Err(format!(
                    "{} {check}: got {holds}, pinned {}",
                    spec.name, !holds
                ));
            }
        }
        match (self.typecheck.get(&spec.name), verdict.typecheck) {
            (Some(pinned), got) if got != Some(*pinned) => Err(format!(
                "{} typecheck: got {got:?}, pinned {pinned}",
                spec.name
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs;

    const PAY_OUTPUT: &str = "\
deadlock-freedom modulo : true (2354 states, 14620 transitions, 0.074s)
eventual output on aud: false (2354 states, 14620 transitions, 0.074s)
forwarding from self to aud: false (2354 states, 14620 transitions, 0.076s)
non-usage of aud: false (2354 states, 14620 transitions, 0.074s)
reactiveness on self: false (2354 states, 14620 transitions, 0.075s)
responsiveness on self: true (2354 states, 14620 transitions, 0.076s)
result: some checks failed
";

    fn expected() -> Expected {
        Expected::load(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/expected.json"
        )))
        .expect("expected.json loads")
    }

    #[test]
    fn cli_output_parses_into_a_verdict_and_its_stable_line() {
        let spec = specs::pay_audit(4);
        let verdict = Verdict::from_cli(&spec, PAY_OUTPUT, Some(1)).expect("parses");
        assert_eq!(verdict.holds, [true, false, false, false, false, true]);
        assert_eq!((verdict.states, verdict.transitions), (2_354, 14_620));
        assert_eq!(
            verdict.stable_line(&spec),
            "name=\"\" passed=false states=2354 transitions=14620 verdicts=deadlock-free:true,\
             ev-usage:false,forwarding:false,non-usage:false,reactive:false,responsive:true"
        );
        assert_eq!(expected().check(&spec, &verdict), Ok(()));
    }

    #[test]
    fn bad_exits_and_garbage_are_refused() {
        let spec = specs::pay_audit(4);
        assert!(Verdict::from_cli(&spec, PAY_OUTPUT, Some(2)).is_err());
        assert!(Verdict::from_cli(&spec, PAY_OUTPUT, None).is_err());
        assert!(Verdict::from_cli(&spec, PAY_OUTPUT, Some(0)).is_err());
        assert!(Verdict::from_cli(&spec, "result: some checks failed\n", Some(1)).is_err());
        assert!(Verdict::from_cli(&spec, "what\n", Some(1)).is_err());
    }

    #[test]
    fn a_flipped_cell_is_a_contradiction() {
        let spec = specs::pay_audit(4);
        let mut verdict = Verdict::from_cli(&spec, PAY_OUTPUT, Some(1)).expect("parses");
        verdict.holds[2] = true;
        let complaint = expected().check(&spec, &verdict).expect_err("contradicts");
        assert!(complaint.contains("forwarding"), "{complaint}");
        // An unpinned (disputed) cell may change freely.
        verdict.holds[2] = false;
        verdict.holds[1] = true;
        assert_eq!(expected().check(&spec, &verdict), Ok(()));
    }

    #[test]
    fn every_pinned_cell_names_a_catalogue_check() {
        let catalogue = specs::catalogue();
        let expected = expected();
        for (spec, check) in expected.cells.keys() {
            let found = catalogue
                .iter()
                .find(|s| &s.name == spec)
                .expect("a catalogue spec");
            assert!(found.checks.contains(&check.as_str()), "{spec} {check}");
        }
        for spec in expected.typecheck.keys() {
            assert!(catalogue.iter().any(|s| &s.name == spec), "{spec}");
        }
    }
}
