//! Property suite for the hash-consing interner (`lambdapi::intern`): the
//! soundness contract the whole hot path (seen-sets, memoized
//! canonicalisation, cache keys) rests on.
//!
//! The central property is the iff from the interning design:
//!
//! > `intern(a).normalized() == intern(b).normalized()`
//! > **⇔** `a.normalize() == b.normalize()`
//!
//! i.e. two types share an interned normal form exactly when their plain
//! normal forms are structurally equal — interning collapses precisely the
//! structural congruence `normalize` decides, nothing more, nothing less.
//!
//! Cases come from two deterministic generators (the offline stand-ins for
//! proptest, as in `type_safety_props.rs`):
//!
//! * structural generators over the guarded process fragment (plus value
//!   types), seeded SplitMix64 — exact reproduction by seed;
//! * the mutation harness of `tests/spec_fuzz.rs`: valid spec texts with
//!   hostile fragments spliced in, keeping whatever still parses — so the
//!   property is also exercised on parser-shaped types, the ones
//!   `effpi-serve` interns for cache keys.

use effpi::spec::parse_spec;
use lambdapi::{TyRef, Type};
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

/// Process types over channel variables `x`/`y` — unions and parallels
/// included, so normalisation has real flattening/sorting work to do.
fn arb_process_type(rng: &mut Rng, depth: usize) -> Type {
    if depth == 0 || rng.below(4) == 0 {
        return Type::Nil;
    }
    let d = depth - 1;
    let chan = if coin(rng) { "x" } else { "y" };
    match rng.below(5) {
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
        3 => Type::rec(
            "t",
            Type::inp(
                Type::var(chan),
                Type::pi("v", Type::Int, arb_process_type(rng, d)),
            ),
        ),
        _ => Type::par(arb_process_type(rng, d), arb_process_type(rng, d)),
    }
}

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
    match rng.below(4) {
        0 => Type::union(arb_value_type(rng, d), arb_value_type(rng, d)),
        1 => Type::chan_io(arb_value_type(rng, d)),
        2 => Type::chan_out(arb_value_type(rng, d)),
        _ => Type::pi("x", arb_value_type(rng, d), arb_value_type(rng, d)),
    }
}

/// The central iff, checked for one pair of types.
fn assert_intern_iff_normalize(a: &Type, b: &Type, ctx: &str) {
    let interned_equal = TyRef::intern(a).normalized() == TyRef::intern(b).normalized();
    let plain_equal = a.normalize() == b.normalize();
    assert_eq!(
        interned_equal, plain_equal,
        "{ctx}: intern(a).normalized() == intern(b).normalized() is {interned_equal} \
         but a.normalize() == b.normalize() is {plain_equal}\n  a = {a}\n  b = {b}"
    );
}

#[test]
fn interned_normal_forms_agree_with_plain_normalize_structurally() {
    for seed in 0..CASES {
        let mut rng = seeded(seed);
        let t = if seed % 3 == 0 {
            arb_value_type(&mut rng, 5)
        } else {
            arb_process_type(&mut rng, 5)
        };
        // The strong (pointwise) form of the contract: the interned normal
        // form IS the plain normal form, structurally.
        let interned = TyRef::intern(&t).normalized();
        assert_eq!(
            *interned.as_type(),
            t.normalize(),
            "seed {seed}: interned normal form drifted from Type::normalize for {t}"
        );
        // And it is a fixpoint through the memo.
        assert_eq!(interned.normalized(), interned, "seed {seed}");
        assert!(interned.is_normal(), "seed {seed}");
    }
}

#[test]
fn intern_equality_iff_normalize_equality_over_generated_pairs() {
    for seed in 0..CASES {
        let mut rng = seeded(seed);
        let a = arb_process_type(&mut rng, 4);
        let b = arb_process_type(&mut rng, 4);
        assert_intern_iff_normalize(&a, &b, &format!("seed {seed} (independent pair)"));
        // A congruent respelling of `a` (members permuted, nil-padding): the
        // iff must fire on its positive side.
        let respelled = Type::par(Type::Nil, Type::par(b.clone(), a.clone()));
        let original = Type::par(a.clone(), b.clone());
        assert_intern_iff_normalize(
            &respelled,
            &original,
            &format!("seed {seed} (congruent respelling)"),
        );
        assert_eq!(
            TyRef::intern(&respelled).normalized(),
            TyRef::intern(&original).normalized(),
            "seed {seed}: p[nil, p[b, a]] must intern-normalise like p[a, b]"
        );
    }
}

#[test]
fn intern_identity_iff_structural_identity() {
    for seed in 0..CASES {
        let mut rng = seeded(seed);
        let a = arb_process_type(&mut rng, 4);
        let b = arb_process_type(&mut rng, 4);
        assert_eq!(
            TyRef::intern(&a) == TyRef::intern(&b),
            a == b,
            "seed {seed}: interned identity must coincide with structural equality\n  \
             a = {a}\n  b = {b}"
        );
    }
}

#[test]
fn canonical_forms_agree_with_normalize_then_unfold_head() {
    for seed in 0..CASES {
        let mut rng = seeded(seed);
        let t = arb_process_type(&mut rng, 5);
        for max_unfold in [1, 4, 16] {
            assert_eq!(
                *TyRef::intern(&t).canonical(max_unfold).as_type(),
                t.normalize().unfold_head(max_unfold),
                "seed {seed}, max_unfold {max_unfold}: canonical drifted for {t}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Parser-shaped types, via the spec_fuzz mutation harness
// ---------------------------------------------------------------------------

/// Valid seed specs (a subset of `tests/spec_fuzz.rs`'s).
const SEEDS: [&str; 3] = [
    "env self   : cio[int]\n\
     env aud    : co[int]\n\
     env client : co[str | ()]\n\
     type rec t . i[self, Pi(pay: int) ( o[client, str, Pi() t]\n\
                                       | o[aud, pay, Pi() o[client, (), Pi() t]] )]\n",
    "def Token = ()\n\
     env a : cio[Token]\n\
     env b : cio[Token]\n\
     type p[ rec r . i[a, Pi(t: Token) o[b, Token, Pi() r]],\n\
             rec s . i[b, Pi(t: Token) o[a, Token, Pi() s]] ]\n",
    "env z : cio[co[str]]\n\
     type rec t . i[z, Pi(reply: co[str]) o[reply, str, Pi() t]]\n",
];

const HOSTILE: [&str; 12] = [
    "[", "]", "(", ")", "|", "rec", "Pi", "nil", "µ", "Π", ",", " ",
];

/// Every type a parsed spec mentions: the `type` statement plus the
/// environment bindings.
fn spec_types(text: &str) -> Vec<Type> {
    let Ok(spec) = parse_spec(text) else {
        return Vec::new();
    };
    let mut types: Vec<Type> = spec.env.iter().map(|(_, ty)| ty.clone()).collect();
    types.extend(spec.ty);
    types
}

#[test]
fn parser_shaped_types_satisfy_the_intern_contract() {
    // The pristine seeds always parse; mutations contribute whatever still
    // does. Every collected type goes through the pointwise contract, and
    // consecutive ones through the iff.
    let mut collected: Vec<Type> = Vec::new();
    for seed_text in SEEDS {
        collected.extend(spec_types(seed_text));
    }
    for seed in 0..CASES {
        let mut rng = seeded(seed ^ 0xabcdef);
        let base = SEEDS[(seed % SEEDS.len() as u64) as usize];
        let mut mutated = String::new();
        let mut chars = base.chars().collect::<Vec<_>>();
        // Splice up to three hostile fragments at random char positions.
        for _ in 0..=rng.below(3) {
            let at = rng.below(chars.len() as u64 + 1) as usize;
            let frag = HOSTILE[rng.below(HOSTILE.len() as u64) as usize];
            chars.splice(at..at, frag.chars());
        }
        mutated.extend(chars);
        collected.extend(spec_types(&mutated));
    }
    assert!(
        collected.len() >= SEEDS.len() * 2,
        "the harness produced too few parsed types ({})",
        collected.len()
    );
    for t in &collected {
        assert_eq!(
            *TyRef::intern(t).normalized().as_type(),
            t.normalize(),
            "parser-shaped type broke the pointwise contract: {t}"
        );
    }
    for pair in collected.windows(2) {
        assert_intern_iff_normalize(&pair[0], &pair[1], "parser-shaped pair");
    }
}
