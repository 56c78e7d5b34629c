//! Protocol specification files.
//!
//! A `.effpi` specification is a small, line-oriented text format that lets
//! protocols be written, type-checked and verified without writing Rust —
//! playing the role of the `@effpi.verifier.verify` annotations of the Dotty
//! plugin (§5.1). A specification consists of statements:
//!
//! ```text
//! // Payment service (Fig. 1), standalone.
//! def Reply   = str | ()
//! env self    : cio[int]
//! env aud     : co[int]
//! env client  : co[str | ()]
//!
//! type rec t . i[self, Pi(pay: int) ( o[client, str, Pi() t]
//!                                   | o[aud, pay, Pi() o[client, (), Pi() t]] )]
//!
//! check non_usage [self]
//! check deadlock_free [self, aud, client]
//! check forwarding self -> aud
//! ```
//!
//! Statements:
//!
//! * `def NAME = TYPE` — a named type alias, usable in later statements;
//!   `NAME` is one identifier;
//! * `env X : TYPE` — a channel (or value) variable of the environment Γ;
//!   `X` is one identifier;
//! * `visible X, Y, ...` — the channels exposed to the environment (defaults
//!   to every `env` variable); each must be declared by some `env` statement
//!   (anywhere in the file);
//! * `type TYPE` — the behavioural type to verify;
//! * `term TERM` — an optional λπ⩽ term to type-check against the `type`;
//! * `check PROPERTY` — a property to verify, one of:
//!   `non_usage [x, ...]`, `deadlock_free [x, ...]`, `eventual_output [x, ...]`,
//!   `forwarding x -> y`, `reactive x`, `responsive x`. Every channel a
//!   check names must be an identifier declared by some `env` statement
//!   (anywhere in the file).
//!
//! Each `def NAME`, each `env X`, the `type` and the `term` bind once: a
//! repeat is an error on its line naming the earlier one, never a silent
//! rebinding.
//!
//! Statements may span several lines; a new statement starts whenever a line
//! begins with one of the keywords above. Lines starting with `//` or `#` are
//! comments.
//!
//! Parse a specification with [`parse_spec`] and execute it with
//! [`crate::Session::run_spec`] (or [`crate::Session::run_spec_text`] to do
//! both in one call).

use std::collections::HashMap;
use std::fmt;

use dbt_types::TypeEnv;
use lambdapi::lexer::{tokenize, Token};
use lambdapi::parser::{parse_term_with, parse_type_with, Definitions};
use lambdapi::{Name, Term, Type};
use mucalc::Property;

/// A parsed protocol specification.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Named type definitions.
    pub definitions: Definitions,
    /// The typing environment Γ.
    pub env: TypeEnv,
    /// The channels exposed to the environment.
    pub visible: Vec<Name>,
    /// The behavioural type to verify.
    pub ty: Option<Type>,
    /// An optional term to check against `ty`.
    pub term: Option<Term>,
    /// The properties to verify.
    pub checks: Vec<Property>,
}

/// An error while parsing a specification file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecError {
    /// 1-based line where the offending statement started.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            // Line 0 marks errors about the specification as a whole (e.g. a
            // `term` statement without a `type`), not about one statement.
            write!(f, "specification error: {}", self.message)
        } else {
            write!(
                f,
                "specification error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for SpecError {}

const KEYWORDS: [&str; 6] = ["def", "env", "visible", "type", "term", "check"];

/// Parses a specification from its textual form.
pub fn parse_spec(input: &str) -> Result<Spec, SpecError> {
    // Group the input into statements: a statement starts at a line whose
    // first word is a keyword and extends until the next such line.
    let mut statements: Vec<(usize, String)> = Vec::new();
    for (idx, raw_line) in input.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with("//") || line.starts_with('#') {
            continue;
        }
        let first_word = line.split_whitespace().next().unwrap_or("");
        if KEYWORDS.contains(&first_word) {
            statements.push((idx + 1, line.to_string()));
        } else if let Some((_, last)) = statements.last_mut() {
            last.push(' ');
            last.push_str(line);
        } else {
            return Err(SpecError {
                line: idx + 1,
                message: format!("expected a statement keyword, found {first_word:?}"),
            });
        }
    }

    let mut spec = Spec {
        definitions: Definitions::new(),
        env: TypeEnv::new(),
        visible: Vec::new(),
        ty: None,
        term: None,
        checks: Vec::new(),
    };
    let mut explicit_visible = false;
    // The line of each `check` and of each `visible` entry, for the
    // declaration check once every `env` statement has been read.
    let mut check_lines = Vec::new();
    let mut visible_lines = Vec::new();
    // The line of each binding statement (`def NAME`, `env NAME`, `type`,
    // `term`): every one is stated once.
    let mut bound: HashMap<String, usize> = HashMap::new();

    for (line, stmt) in statements {
        let (keyword, rest) = stmt
            .split_once(char::is_whitespace)
            .unwrap_or((stmt.as_str(), ""));
        let rest = rest.trim();
        let err = |message: String| SpecError { line, message };
        match keyword {
            "def" => {
                let (name, body) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `def NAME = TYPE`".to_string()))?;
                let name = ident(name.trim()).map_err(err)?;
                bind_once(&mut bound, format!("def {name}"), line)?;
                let ty = parse_type_with(body.trim(), &spec.definitions)
                    .map_err(|e| err(e.to_string()))?;
                spec.definitions.insert(name.to_string(), ty);
            }
            "env" => {
                let (name, ty_text) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `env NAME : TYPE`".to_string()))?;
                let ty = parse_type_with(ty_text.trim(), &spec.definitions)
                    .map_err(|e| err(e.to_string()))?;
                let name = ident(name.trim()).map_err(err)?.to_string();
                bind_once(&mut bound, format!("env {name}"), line)?;
                spec.env = spec.env.bind(name.as_str(), ty);
                if !explicit_visible {
                    spec.visible.push(Name::new(name));
                }
            }
            "visible" => {
                if !explicit_visible {
                    spec.visible.clear();
                    explicit_visible = true;
                }
                for v in rest.split(',') {
                    let v = v.trim();
                    if !v.is_empty() {
                        spec.visible.push(Name::new(v));
                        visible_lines.push(line);
                    }
                }
            }
            "type" => {
                bind_once(&mut bound, "type".to_string(), line)?;
                let ty =
                    parse_type_with(rest, &spec.definitions).map_err(|e| err(e.to_string()))?;
                spec.ty = Some(ty);
            }
            "term" => {
                bind_once(&mut bound, "term".to_string(), line)?;
                let term =
                    parse_term_with(rest, &spec.definitions).map_err(|e| err(e.to_string()))?;
                spec.term = Some(term);
            }
            "check" => {
                spec.checks.push(parse_property(rest).map_err(&err)?);
                check_lines.push(line);
            }
            other => {
                return Err(err(format!("unknown statement keyword {other:?}")));
            }
        }
    }
    // Without a `visible` statement the list is the `env` names themselves
    // and `visible_lines` is empty.
    for (chan, line) in spec.visible.iter().zip(visible_lines) {
        if !spec.env.contains(chan) {
            return Err(SpecError {
                line,
                message: format!("`visible` names `{chan}`, which no `env` statement declares"),
            });
        }
    }
    for (property, line) in spec.checks.iter().zip(check_lines) {
        if let Some(chan) = property
            .interfaces()
            .into_iter()
            .find(|chan| !spec.env.contains(chan))
        {
            return Err(SpecError {
                line,
                message: format!(
                    "`{}` check names `{chan}`, which no `env` statement declares",
                    property.name()
                ),
            });
        }
    }
    Ok(spec)
}

/// Records that the binding statement `key` (`def NAME`, `env NAME`,
/// `type` or `term`) is on `line`, or fails naming the line that stated it
/// first.
fn bind_once(
    bound: &mut HashMap<String, usize>,
    key: String,
    line: usize,
) -> Result<(), SpecError> {
    match bound.get(&key) {
        None => {
            bound.insert(key, line);
            Ok(())
        }
        Some(first) => Err(SpecError {
            line,
            message: format!("`{key}` is already stated on line {first}"),
        }),
    }
}

/// A variable name is one identifier token, as the type syntax spells
/// variables: the server feeds this parser untrusted bytes, and a name like
/// `client aud` or `[self]` could only ever name no variable at all.
fn ident(s: &str) -> Result<&str, String> {
    match tokenize(s).as_deref() {
        Ok([Token::Ident(id), Token::Eof]) if id == s => Ok(s),
        _ => Err(format!("expected one identifier, found {s:?}")),
    }
}

fn parse_property(text: &str) -> Result<Property, String> {
    let (name, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let rest = rest.trim();
    let list = |s: &str| -> Result<Vec<String>, String> {
        let inner = s
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| format!("expected a channel list like [x, y], found {s:?}"))?;
        if inner.trim().is_empty() {
            return Ok(Vec::new());
        }
        inner
            .split(',')
            .map(|v| ident(v.trim()).map(str::to_string))
            .collect()
    };
    match name {
        "non_usage" => Ok(Property::non_usage(list(rest)?)),
        "deadlock_free" => Ok(Property::deadlock_free(list(rest)?)),
        "eventual_output" => Ok(Property::eventual_output(list(rest)?)),
        "forwarding" => {
            let (from, to) = rest
                .split_once("->")
                .ok_or_else(|| "expected `forwarding x -> y`".to_string())?;
            Ok(Property::forwarding(ident(from.trim())?, ident(to.trim())?))
        }
        "reactive" => Ok(Property::reactive(ident(rest)?)),
        "responsive" => Ok(Property::responsive(ident(rest)?)),
        other => Err(format!("unknown property {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    fn session(max_states: usize) -> Session {
        Session::builder().max_states(max_states).build()
    }

    const PAYMENT_SPEC: &str = r#"
        // The Fig. 1 payment service, standalone.
        env self   : cio[int]
        env aud    : co[int]
        env client : co[str | ()]

        type rec t . i[self, Pi(pay: int) ( o[client, str, Pi() t]
                                          | o[aud, pay, Pi() o[client, (), Pi() t]] )]

        check non_usage [self]
        check deadlock_free [self, aud, client]
        check forwarding self -> aud
    "#;

    #[test]
    fn parses_and_runs_the_payment_spec() {
        let spec = parse_spec(PAYMENT_SPEC).expect("spec parses");
        assert_eq!(spec.checks.len(), 3);
        assert_eq!(spec.env.len(), 3);
        assert!(spec.ty.is_some());
        let report = session(50_000).run_spec(&spec);
        assert_eq!(report.properties.len(), 3);
        // non-usage of self and deadlock-freedom hold; unconditional
        // forwarding to the auditor does not (rejections are not audited).
        assert_eq!(report.verdicts(), vec![true, true, false]);
        assert!(!report.passed());
        assert!(report.to_string().contains("deadlock"));
    }

    #[test]
    fn specs_can_typecheck_terms_against_types() {
        let spec_text = r#"
            env unused : cio[int]
            type Pi(c: cio[int]) o[c, int, Pi() nil]
            term fun c: cio[int]. send(c, 42, fun _: (). end)
        "#;
        let report = session(10_000).run_spec_text(spec_text).unwrap();
        assert!(matches!(report.typecheck, Some(Ok(()))));
        assert!(report.passed());

        // A term that violates the protocol is rejected.
        let bad = spec_text.replace("send(c, 42, fun _: (). end)", "end");
        let report = session(10_000).run_spec_text(&bad).unwrap();
        assert!(matches!(report.typecheck, Some(Err(crate::Error::Type(_)))));
        assert!(!report.passed());
    }

    #[test]
    fn definitions_and_visible_lists_are_honoured() {
        let spec_text = r#"
            def Token = ()
            env a : cio[Token]
            env b : cio[Token]
            visible a
            type p[ rec r . i[a, Pi(t: Token) o[b, Token, Pi() r]],
                    rec s . i[b, Pi(t: Token) o[a, Token, Pi() s]] ]
            check deadlock_free []
        "#;
        let spec = parse_spec(spec_text).unwrap();
        assert_eq!(spec.visible, vec![Name::new("a")]);
        assert_eq!(spec.definitions.len(), 1);
        let report = session(20_000).run_spec(&spec);
        // Two processes both waiting to receive first: they deadlock.
        assert!(!report.properties[0].holds());
        assert!(report.properties[0].result.is_ok());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_spec("bogus statement").unwrap_err();
        assert_eq!(err.line, 1);
        let err2 = parse_spec("env x cio[int]").unwrap_err();
        assert!(err2.to_string().contains("env NAME : TYPE"));
        let err3 = parse_spec("check explode [x]").unwrap_err();
        assert!(err3.message.contains("unknown property"));
    }

    /// The declarations of `examples/specs/payment.effpi`, on lines 1-4.
    const PAYMENT_DECLS: &str = "env self : cio[int]\n\
                                 env aud : co[int]\n\
                                 env client : co[str | ()]\n\
                                 type rec t . i[self, Pi(pay: int) ( o[client, str, Pi() t] \
                                 | o[aud, pay, Pi() o[client, (), Pi() t]] )]\n";

    #[test]
    fn checks_name_declared_identifiers_only() {
        for (check, named) in [
            // A missing comma does not make one channel called "client aud".
            ("check non_usage [client aud]", "\"client aud\""),
            // A single-channel property takes no brackets: no "[self]".
            ("check responsive [self]", "\"[self]\""),
            ("check reactive nobody", "`nobody`"),
            ("check forwarding self -> auditor", "`auditor`"),
            // An empty entry names no channel.
            ("check deadlock_free [self, , aud]", "\"\""),
        ] {
            let err = parse_spec(&format!("{PAYMENT_DECLS}{check}\n")).unwrap_err();
            assert_eq!(err.line, 5, "{check}: {err}");
            assert!(err.message.contains(named), "{check}: {err}");
        }
        // Declarations are checked once the whole file is read, and an empty
        // probe list is no entry at all.
        let spec = parse_spec(&format!(
            "check responsive self\ncheck deadlock_free []\n{PAYMENT_DECLS}"
        ))
        .unwrap();
        assert_eq!(
            spec.checks,
            vec![
                Property::responsive("self"),
                Property::deadlock_free(Vec::<Name>::new())
            ]
        );
    }

    #[test]
    fn visible_entries_name_declared_identifiers_only() {
        // A misspelt entry would hide `self` from the model and turn the
        // `responsive self` verdict into a vacuous pass.
        let misspelt = format!("{PAYMENT_DECLS}visible slef, aud, client\ncheck responsive self\n");
        let err = parse_spec(&misspelt).unwrap_err();
        assert_eq!(err.line, 5, "{err}");
        assert!(err.message.contains("`slef`"), "{err}");
        for entry in ["client aud", "[self]"] {
            let err =
                parse_spec(&format!("{PAYMENT_DECLS}visible self,\n  {entry}\n")).unwrap_err();
            assert_eq!(err.line, 5, "{entry}: {err}");
            assert!(err.message.contains(entry), "{entry}: {err}");
        }

        let spelt = format!("{PAYMENT_DECLS}visible self, aud, client\ncheck responsive self\n");
        let spec = parse_spec(&spelt).unwrap();
        assert_eq!(
            spec.visible,
            [Name::new("self"), Name::new("aud"), Name::new("client")]
        );
        let report = session(10_000).run_spec(&spec);
        assert_eq!(report.verdicts(), vec![false]);
        assert_eq!((report.states(), report.transitions()), (7, 10));

        // Declarations are checked once the whole file is read.
        let spec = parse_spec(&format!("visible self\n{PAYMENT_DECLS}")).unwrap();
        assert_eq!(spec.visible, [Name::new("self")]);
    }

    #[test]
    fn env_names_are_one_identifier() {
        let text = "env self : cio[int]\nenv client aud : co[int]\n";
        let err = parse_spec(text).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains("\"client aud\""), "{err}");
        let err = parse_spec("env : cio[int]").unwrap_err();
        assert_eq!(err.line, 1, "{err}");
    }

    #[test]
    fn def_names_are_one_identifier() {
        let text = "def My Int = int\nenv x : cio[int]\ntype o[x, int, Pi() nil]\n";
        let err = parse_spec(text).unwrap_err();
        assert_eq!(err.line, 1, "{err}");
        assert!(err.message.contains("\"My Int\""), "{err}");
    }

    #[test]
    fn every_binding_statement_binds_once() {
        for (text, line, first) in [
            ("def T = int\nenv x : cio[T]\ndef T = str\n", 3, "line 1"),
            (
                "env x : cio[int]\nenv x : co[int]\ntype i[x, Pi(v: int) nil]\n",
                2,
                "line 1",
            ),
            (
                "env x : cio[int]\ntype o[x, int, Pi() nil]\ntype nil\ncheck non_usage [x]\n",
                3,
                "line 2",
            ),
            (
                "env x : cio[int]\ntype nil\nterm end\n\nterm end\n",
                5,
                "line 3",
            ),
        ] {
            let err = parse_spec(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(first), "{text:?}: {err}");
        }
    }
}
