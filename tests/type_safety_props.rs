//! Property-based tests for the core invariants of the calculus, the type
//! system and the type LTS:
//!
//! * **type safety** (Thm. 3.6): randomly generated terms that type-check
//!   never reduce to `err`;
//! * **subtyping is a preorder** on randomly generated types, and the
//!   syntactic congruence ≡ implies subtyping in both directions;
//! * **normalisation is idempotent** and preserves free variables and
//!   behaviour-relevant structure;
//! * **substitution** removes the substituted variable;
//! * **the type LTS is deterministic as a function** (same input, same graph).
//!
//! The workspace builds offline with no external dependencies, so instead of
//! `proptest` the cases are drawn by the small deterministic generator below:
//! every test runs a fixed number of cases from fixed seeds, making failures
//! exactly reproducible by seed.

use dbt_types::{Checker, TypeEnv};
use lambdapi::{BinOp, Name, Reducer, Term, Type};
use lts::TypeLts;
use obs::hash::SplitMix64 as Rng;

const CASES: u64 = 128;

/// A SplitMix64 stream per case; the multiply spreads the suites' small
/// consecutive seeds across the state space.
fn seeded(seed: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
}

fn coin(rng: &mut Rng) -> bool {
    rng.next_u64() & 1 == 1
}

fn small_int(rng: &mut Rng) -> i64 {
    (rng.below(200) as i64) - 100
}

/// Simple data expressions of type int or bool (possibly ill-typed on
/// purpose: the mix lets the type checker reject some and accept others).
fn arb_data_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => Term::bool(coin(rng)),
            1 => Term::int(small_int(rng)),
            2 => Term::unit(),
            _ => Term::str("hello"),
        };
    }
    let d = depth - 1;
    match rng.below(6) {
        0 => Term::binop(BinOp::Add, arb_data_term(rng, d), arb_data_term(rng, d)),
        1 => Term::binop(BinOp::Gt, arb_data_term(rng, d), arb_data_term(rng, d)),
        2 => Term::binop(BinOp::Eq, arb_data_term(rng, d), arb_data_term(rng, d)),
        3 => Term::not(arb_data_term(rng, d)),
        4 => Term::ite(
            arb_data_term(rng, d),
            arb_data_term(rng, d),
            arb_data_term(rng, d),
        ),
        _ => {
            // A β-redex binding an int variable.
            let body_seed = arb_data_term(rng, d);
            let body = Term::ite(
                Term::binop(BinOp::Gt, Term::var("x"), Term::int(0)),
                body_seed.clone(),
                body_seed,
            );
            Term::app(Term::lam("x", Type::Int, body), arb_data_term(rng, d))
        }
    }
}

/// Value-level types of the functional + channel fragment.
fn arb_value_type(rng: &mut Rng, depth: usize) -> Type {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(6) {
            0 => Type::Bool,
            1 => Type::Int,
            2 => Type::Str,
            3 => Type::Unit,
            4 => Type::Top,
            _ => Type::Bottom,
        };
    }
    let d = depth - 1;
    match rng.below(5) {
        0 => Type::union(arb_value_type(rng, d), arb_value_type(rng, d)),
        1 => Type::chan_io(arb_value_type(rng, d)),
        2 => Type::chan_in(arb_value_type(rng, d)),
        3 => Type::chan_out(arb_value_type(rng, d)),
        _ => Type::pi("x", arb_value_type(rng, d), arb_value_type(rng, d)),
    }
}

/// Process types over two channel variables `x` (int) and `y` (int), in the
/// guarded fragment accepted by the verifier.
fn arb_process_type(rng: &mut Rng, depth: usize) -> Type {
    if depth == 0 || rng.below(4) == 0 {
        return Type::Nil;
    }
    let d = depth - 1;
    let chan = if coin(rng) { "x" } else { "y" };
    match rng.below(4) {
        0 => Type::out(
            Type::var(chan),
            Type::Int,
            Type::thunk(arb_process_type(rng, d)),
        ),
        1 => Type::inp(
            Type::var(chan),
            Type::pi("v", Type::Int, arb_process_type(rng, d)),
        ),
        2 => Type::union(arb_process_type(rng, d), arb_process_type(rng, d)),
        _ => Type::par(arb_process_type(rng, d), arb_process_type(rng, d)),
    }
}

fn two_channel_env() -> TypeEnv {
    TypeEnv::new()
        .bind("x", Type::chan_io(Type::Int))
        .bind("y", Type::chan_io(Type::Int))
}

/// Theorem 3.6 on the data fragment: if a random term type-checks, running it
/// never reaches `err` (and it terminates, since the fragment has no
/// recursion).
#[test]
fn well_typed_data_terms_are_safe() {
    let checker = Checker::new();
    for seed in 0..CASES {
        let t = arb_data_term(&mut seeded(seed), 4);
        if checker.type_of(&TypeEnv::new(), &t).is_ok() {
            let result = Reducer::new().eval(&t, 10_000);
            assert!(
                result.is_safe(),
                "seed {seed}: well-typed term reached err: {t}"
            );
            assert!(
                result.normal_form,
                "seed {seed}: well-typed data term failed to terminate"
            );
        }
    }
}

/// Evaluation is deterministic on the data fragment: two runs agree.
#[test]
fn evaluation_is_deterministic() {
    let r = Reducer::new();
    for seed in 0..CASES {
        let t = arb_data_term(&mut seeded(seed), 4);
        let a = r.eval(&t, 10_000);
        let b = r.eval(&t, 10_000);
        assert_eq!(a.term, b.term, "seed {seed}");
        assert_eq!(a.steps, b.steps, "seed {seed}");
    }
}

/// Subtyping is reflexive on arbitrary value types.
#[test]
fn subtyping_is_reflexive() {
    let checker = Checker::new();
    let env = TypeEnv::new();
    for seed in 0..CASES {
        let t = arb_value_type(&mut seeded(seed), 3);
        assert!(checker.is_subtype(&env, &t, &t), "seed {seed}: {t} ⩽̸ {t}");
    }
}

/// Subtyping is transitive on the generated value types (checked on related
/// triples built from unions, which are plentiful enough to be meaningful:
/// T ⩽ T∨U ⩽ (T∨U)∨S).
#[test]
fn subtyping_chains_through_unions() {
    let checker = Checker::new();
    let env = TypeEnv::new();
    for seed in 0..CASES {
        let mut rng = seeded(seed);
        let t = arb_value_type(&mut rng, 3);
        let u = arb_value_type(&mut rng, 3);
        let s = arb_value_type(&mut rng, 3);
        let tu = Type::union(t.clone(), u);
        let tus = Type::union(tu.clone(), s);
        assert!(checker.is_subtype(&env, &t, &tu), "seed {seed}");
        assert!(checker.is_subtype(&env, &tu, &tus), "seed {seed}");
        assert!(checker.is_subtype(&env, &t, &tus), "seed {seed}");
    }
}

/// Every generated type is below ⊤, and ⊥ is below every generated type.
#[test]
fn top_and_bottom_bound_everything() {
    let checker = Checker::new();
    let env = TypeEnv::new();
    for seed in 0..CASES {
        let t = arb_value_type(&mut seeded(seed), 3);
        assert!(checker.is_subtype(&env, &t, &Type::Top), "seed {seed}");
        assert!(checker.is_subtype(&env, &Type::Bottom, &t), "seed {seed}");
    }
}

/// Normalisation is idempotent and preserves the free variables.
#[test]
fn normalisation_is_idempotent() {
    for seed in 0..CASES {
        let t = arb_process_type(&mut seeded(seed), 4);
        let n1 = t.normalize();
        let n2 = n1.normalize();
        assert_eq!(&n1, &n2, "seed {seed}");
        assert_eq!(t.free_vars(), n1.free_vars(), "seed {seed}");
    }
}

/// The structural congruence ≡ implies mutual subtyping (both are
/// implementations of "the same protocol").
#[test]
fn congruent_process_types_are_equivalent() {
    let checker = Checker::new();
    let env = two_channel_env();
    for seed in 0..CASES {
        let mut rng = seeded(seed);
        let t = arb_process_type(&mut rng, 4);
        let u = arb_process_type(&mut rng, 4);
        let left = Type::par(t.clone(), u.clone());
        let right = Type::par(u, t);
        assert!(left.cong_eq(&right), "seed {seed}");
        assert!(checker.is_subtype(&env, &left, &right), "seed {seed}");
        assert!(checker.is_subtype(&env, &right, &left), "seed {seed}");
    }
}

/// Substitution eliminates the substituted variable (when the replacement
/// does not itself mention it).
#[test]
fn substitution_removes_the_variable() {
    for seed in 0..CASES {
        let t = arb_process_type(&mut seeded(seed), 4);
        let subst = t.subst_var(&Name::new("x"), &Type::chan_io(Type::Int));
        assert!(!subst.free_vars().contains(&Name::new("x")), "seed {seed}");
        // And it leaves other variables alone.
        let fv_before = t.free_vars().contains(&Name::new("y"));
        let fv_after = subst.free_vars().contains(&Name::new("y"));
        assert_eq!(fv_before, fv_after, "seed {seed}");
    }
}

/// Building the type LTS twice yields the same graph (the semantics of
/// Def. 4.2 is a function of the type and environment).
#[test]
fn type_lts_construction_is_deterministic() {
    let env = two_channel_env();
    let builder = TypeLts::new(env);
    for seed in 0..CASES {
        let t = arb_process_type(&mut seeded(seed), 4);
        let a = builder.build(&t, 2_000);
        let b = builder.build(&t, 2_000);
        assert_eq!(a.num_states(), b.num_states(), "seed {seed}");
        assert_eq!(a.num_transitions(), b.num_transitions(), "seed {seed}");
    }
}

/// Every generated guarded process type is accepted by the validity judgement
/// as a π-type, and every state reachable in its LTS is again a π-type (a
/// semantic counterpart of subject transition at type level).
#[test]
fn process_types_stay_process_types_along_transitions() {
    let checker = Checker::new();
    let env = two_channel_env();
    for seed in 0..CASES {
        let t = arb_process_type(&mut seeded(seed), 4);
        assert!(checker.check_pi_type(&env, &t).is_ok(), "seed {seed}: {t}");
        let lts = TypeLts::new(env.clone()).build(&t, 500);
        for state in lts.states().iter().take(50) {
            assert!(
                checker.check_pi_type(&env, state).is_ok(),
                "seed {seed}: reachable state is not a π-type: {state}"
            );
        }
    }
}
