//! Property suite for the term side of the hash-consing interner
//! (`lambdapi::intern::TermRef`) — the contract the open-term hot path
//! (id-hashing seen-sets, memoized successor lists, par-component
//! flattening, Arc-sharing substitution) rests on. Mirrors
//! `tests/type_intern_props.rs`.
//!
//! The central properties:
//!
//! * `intern(t1) == intern(t2)` **iff** `t1 == t2` — interning collapses
//!   exactly structural equality, nothing more, nothing less;
//! * reduction through [`Reducer::step_ref`] agrees step-for-step with the
//!   tree-based [`Reducer::step`] (term and base rule) — reduction is a pure
//!   function of the term, which is what makes memoizing it per `TermId`
//!   sound;
//! * memoized [`TermRef::par_components`] / [`TermRef::free_vars`] never
//!   change the component sequences / variable sets the plain functions
//!   produce;
//! * Arc-sharing substitution is semantically invisible: shadowing,
//!   free-variable accounting and untouched-subtree identity all hold.
//!
//! Cases come from a deterministic generator (the offline stand-in for
//! proptest, as in the sibling suites), seeded SplitMix64 — exact
//! reproduction by seed.

use std::sync::Arc;

use lambdapi::{par_components, BinOp, Name, Reducer, Term, TermRef, Type};
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

/// Open process terms over the channel variables `x`/`y` — parallel
/// compositions, sends, receives, conditionals, so both the flattening and
/// the reducer have real work to do.
fn arb_process_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(5) == 0 {
        return Term::End;
    }
    let d = depth - 1;
    let chan = if coin(rng) { "x" } else { "y" };
    match rng.below(6) {
        0 => Term::send(
            Term::var(chan),
            Term::int(rng.below(4) as i64),
            Term::thunk(arb_process_term(rng, d)),
        ),
        1 => Term::recv(
            Term::var(chan),
            Term::lam("v", Type::Int, arb_process_term(rng, d)),
        ),
        2 => Term::par(arb_process_term(rng, d), arb_process_term(rng, d)),
        3 => Term::ite(
            Term::bool(coin(rng)),
            arb_process_term(rng, d),
            arb_process_term(rng, d),
        ),
        4 => Term::let_(
            "w",
            Type::Int,
            Term::int(rng.below(8) as i64),
            arb_process_term(rng, d),
        ),
        _ => Term::par(Term::End, Term::par(arb_process_term(rng, d), Term::End)),
    }
}

/// Closed computational terms that actually reduce for several steps
/// (arithmetic, β-redexes, lets, channel creation, communication).
fn arb_reducing_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(4) == 0 {
        return Term::int(rng.below(16) as i64);
    }
    let d = depth - 1;
    match rng.below(6) {
        0 => Term::binop(
            BinOp::Add,
            arb_reducing_term(rng, d),
            arb_reducing_term(rng, d),
        ),
        1 => Term::app(
            Term::lam(
                "a",
                Type::Int,
                Term::binop(BinOp::Add, Term::var("a"), arb_reducing_term(rng, d)),
            ),
            arb_reducing_term(rng, d),
        ),
        2 => Term::ite(
            Term::binop(
                BinOp::Gt,
                arb_reducing_term(rng, d),
                arb_reducing_term(rng, d),
            ),
            arb_reducing_term(rng, d),
            arb_reducing_term(rng, d),
        ),
        3 => Term::let_(
            "b",
            Type::Int,
            arb_reducing_term(rng, d),
            Term::binop(BinOp::Add, Term::var("b"), Term::var("b")),
        ),
        4 => Term::let_(
            "c",
            Type::chan_io(Type::Int),
            Term::chan(Type::Int),
            Term::par(
                Term::send(
                    Term::var("c"),
                    arb_reducing_term(rng, d),
                    Term::thunk(Term::End),
                ),
                Term::recv(Term::var("c"), Term::lam("v", Type::Int, Term::End)),
            ),
        ),
        _ => Term::not(Term::bool(coin(rng))),
    }
}

#[test]
fn intern_identity_iff_structural_identity() {
    for seed in 0..CASES {
        let mut rng = seeded(seed);
        let a = arb_process_term(&mut rng, 4);
        let b = arb_process_term(&mut rng, 4);
        assert_eq!(
            TermRef::intern(&a) == TermRef::intern(&b),
            a == b,
            "seed {seed}: interned identity must coincide with structural equality\n  \
             a = {a}\n  b = {b}"
        );
        // Re-interning the same term always reproduces the id.
        assert_eq!(TermRef::intern(&a).id(), TermRef::new(a.clone()).id());
    }
}

#[test]
fn interned_reduction_agrees_step_for_step_with_the_tree_reducer() {
    let reducer = Reducer::new();
    for seed in 0..CASES {
        let mut rng = seeded(seed ^ 0x51e9);
        let t = arb_reducing_term(&mut rng, 4);
        let mut tree = t.clone();
        let mut interned = TermRef::intern(&t);
        for step in 0..64 {
            let tree_next = reducer.step(&tree);
            let interned_next = reducer.step_ref(&interned);
            match (tree_next, interned_next) {
                (None, None) => break,
                (Some((tn, tr)), Some((in_, ir))) => {
                    assert_eq!(
                        tr, ir,
                        "seed {seed}, step {step}: base rules diverged on {tree}"
                    );
                    assert_eq!(
                        in_, tn,
                        "seed {seed}, step {step}: reducts diverged on {tree}"
                    );
                    tree = tn;
                    interned = in_;
                }
                (a, b) => panic!(
                    "seed {seed}, step {step}: one semantics halted, the other did not \
                     (tree: {a:?}, interned: {b:?})"
                ),
            }
        }
        // Stepping the same interned state twice yields the same reduct —
        // the purity the successor memo relies on.
        if let (Some((n1, r1)), Some((n2, r2))) =
            (reducer.step_ref(&interned), reducer.step_ref(&interned))
        {
            assert_eq!(n1, n2, "seed {seed}: reduction is not deterministic");
            assert_eq!(r1, r2, "seed {seed}");
        }
    }
}

#[test]
fn par_components_memoization_never_changes_component_sequences() {
    for seed in 0..CASES {
        let mut rng = seeded(seed ^ 0xbeef);
        let t = arb_process_term(&mut rng, 5);
        let plain = par_components(&t);
        let interned: Vec<Term> = TermRef::intern(&t)
            .par_components()
            .iter()
            .map(|c| c.as_term().clone())
            .collect();
        assert_eq!(
            interned, plain,
            "seed {seed}: memoized flattening drifted for {t}"
        );
        // Memo stability: the second call returns the identical list.
        let r = TermRef::intern(&t);
        assert_eq!(r.par_components(), r.par_components(), "seed {seed}");
        // Rebuild round-trips up to ≡ (all-end collapses to end).
        let rebuilt = TermRef::rebuild_par(&r.par_components());
        assert_eq!(
            par_components(rebuilt.as_term()),
            plain,
            "seed {seed}: rebuild_par changed the component sequence of {t}"
        );
    }
}

#[test]
fn free_vars_memoization_matches_the_plain_query() {
    for seed in 0..CASES {
        let mut rng = seeded(seed ^ 0xf00d);
        let t = arb_process_term(&mut rng, 5);
        let r = TermRef::intern(&t);
        assert_eq!(*r.free_vars(), t.free_vars(), "seed {seed}: {t}");
    }
}

#[test]
fn sharing_substitution_is_semantically_invisible() {
    let x = Name::new("x");
    for seed in 0..CASES {
        let mut rng = seeded(seed ^ 0x5b57);
        let t = arb_process_term(&mut rng, 4);
        let v = Term::int(seed as i64);
        let s = t.subst(&x, &v);
        // Free-variable accounting: x is gone, nothing else appears (v is
        // closed), everything else is preserved.
        let mut expected = t.free_vars();
        expected.remove(&x);
        assert_eq!(s.free_vars(), expected, "seed {seed}: {t}");
        // No-op substitutions are identities.
        let unused = Name::new("zzz_unused");
        assert_eq!(t.subst(&unused, &v), t, "seed {seed}");
        // Untouched branches of a substituted parallel composition share
        // their allocation with the input term.
        let pair = Term::par(
            t.clone(),
            Term::send(Term::var("x"), Term::int(1), Term::thunk(Term::End)),
        );
        if !t.free_vars().contains(&x) {
            if let (Term::Par(left0, _), Term::Par(left1, _)) = (&pair, &pair.subst(&x, &v)) {
                assert!(
                    Arc::ptr_eq(left0, left1),
                    "seed {seed}: untouched left branch was copied"
                );
            }
        }
    }
}

#[test]
fn substitution_through_interning_respects_shadowing() {
    // let x = 1 in send(x, x, λ_.end) — substituting x from outside is a
    // no-op (the binder scopes over the body), through TermRef and back.
    let inner = Term::send(Term::var("x"), Term::var("x"), Term::thunk(Term::End));
    let t = Term::let_("x", Type::Int, Term::int(1), inner);
    let r = TermRef::intern(&t);
    let substituted = r.as_term().subst(&Name::new("x"), &Term::int(9));
    assert_eq!(
        TermRef::intern(&substituted),
        r,
        "shadowed subst must be identity"
    );
}
