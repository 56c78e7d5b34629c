//! The open-term (Fig. 5) conformance corpus: the *term*-side counterpart
//! of the Fig. 9 spec generators.
//!
//! Where the sibling modules generate `.effpi` specs of behavioural *types*
//! for the Fig. 9 rows, each entry here is an open λπ⩽ *term* with its typing environment,
//! explored through the over-approximating semantics of Def. 4.1
//! (`TermLts` / [`crate::Session::build_term_lts`]). The determinism suite
//! checks each one serial vs parallel byte for byte and pins its state and
//! transition counts — editing a scenario here means updating those pins.

use dbt_types::TypeEnv;
use lambdapi::{examples, Term, Type};

/// One open-term scenario: a typing environment Γ and an open term whose
/// Fig. 5 LTS is explored, with the state bound it is known to fit.
#[derive(Clone, Debug)]
pub struct OpenTermScenario {
    /// The row label.
    pub name: String,
    /// The typing environment Γ.
    pub env: TypeEnv,
    /// The open term to explore.
    pub term: Term,
    /// State bound for the exploration.
    pub max_states: usize,
}

/// The corpus: the paper's running examples plus two synthetic families
/// that scale the interleaving pressure (many parallel components
/// revisiting shared subterms — exactly the shape term interning targets).
pub fn corpus() -> Vec<OpenTermScenario> {
    let pingpong_env = || {
        TypeEnv::new()
            .bind("y", Type::chan_io(Type::Str))
            .bind("z", Type::chan_io(Type::chan_out(Type::Str)))
    };
    let (pingpong, _ty) = examples::ping_pong_open();
    let mut out = vec![
        // Ex. 4.3: the open ping-pong system `sys y z`.
        OpenTermScenario {
            name: "Ping-pong (open)".into(),
            env: pingpong_env(),
            term: pingpong,
            max_states: 20_000,
        },
        // Ex. 4.11: the ponger alone, reacting on its mailbox.
        OpenTermScenario {
            name: "Ponger (open)".into(),
            env: pingpong_env(),
            term: Term::app(examples::ponger_term(), Term::var("z")),
            max_states: 20_000,
        },
        // Ex. 3.5: t1 = send(x, 42, λ_.end) || recv(x, λv.end).
        OpenTermScenario {
            name: "Ex. 3.5 t1".into(),
            env: TypeEnv::new().bind("x", Type::chan_io(Type::Int)),
            term: Term::par(
                Term::send(Term::var("x"), Term::int(42), Term::thunk(Term::End)),
                Term::recv(Term::var("x"), Term::lam("v", Type::Int, Term::End)),
            ),
            max_states: 10_000,
        },
    ];

    // Synthetic: n independent send/recv pairs on distinct channels — the
    // state space is the interleaving product, the classic shape where the
    // seen-set dominates.
    for n in [3usize, 4] {
        out.push(independent_pairs(n));
    }

    // Synthetic: a token ring of n open processes, one token injected — long
    // chains of communications with heavily shared continuations.
    for n in [4usize, 5] {
        out.push(token_ring(n));
    }

    out
}

/// `n` independent send/recv pairs on distinct int channels `x0..x{n-1}`.
pub fn independent_pairs(n: usize) -> OpenTermScenario {
    let mut env = TypeEnv::new();
    let mut parts = Vec::new();
    for i in 0..n {
        env = env.bind(format!("x{i}"), Type::chan_io(Type::Int));
        parts.push(Term::par(
            Term::send(
                Term::var(format!("x{i}")),
                Term::int(i as i64),
                Term::thunk(Term::End),
            ),
            Term::recv(
                Term::var(format!("x{i}")),
                Term::lam("v", Type::Int, Term::End),
            ),
        ));
    }
    OpenTermScenario {
        name: format!("Pairs x{n}"),
        env,
        term: Term::par_all(parts),
        max_states: 60_000,
    }
}

/// A ring of `n` open processes on unit channels `r0..r{n-1}`, each
/// forwarding a token to its successor, with one token injected on `r0`.
pub fn token_ring(n: usize) -> OpenTermScenario {
    let mut env = TypeEnv::new();
    for i in 0..n {
        env = env.bind(format!("r{i}"), Type::chan_io(Type::Unit));
    }
    let member = |i: usize| {
        Term::recv(
            Term::var(format!("r{i}")),
            Term::lam(
                "v",
                Type::Unit,
                Term::send(
                    Term::var(format!("r{}", (i + 1) % n)),
                    Term::unit(),
                    Term::thunk(Term::End),
                ),
            ),
        )
    };
    let mut parts: Vec<Term> = (0..n).map(member).collect();
    parts.push(Term::send(
        Term::var("r0"),
        Term::unit(),
        Term::thunk(Term::End),
    ));
    OpenTermScenario {
        name: format!("Ring x{n}"),
        env,
        term: Term::par_all(parts),
        max_states: 60_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_builds_within_its_bounds() {
        let session = crate::Session::builder().max_states(60_000).build();
        for scenario in corpus() {
            let lts = session
                .build_term_lts(&scenario.env, &scenario.term)
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert!(lts.num_states() > 1, "{}", scenario.name);
        }
    }
}
