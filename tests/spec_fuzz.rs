//! Fuzz-style hardening of the `.effpi` spec parser.
//!
//! `effpi-serve` feeds [`effpi::spec::parse_spec`] **untrusted bytes** from
//! the network, so the parser's contract tightens from "rejects bad specs"
//! to "*returns* an error on every bad input — never panics, never hangs".
//! These tests drive it with the repository's deterministic generator
//! harness (the offline stand-in for proptest, as in
//! `type_safety_props.rs`): every case comes from a fixed seed, so a failure
//! reproduces exactly.
//!
//! Three attack surfaces:
//!
//! * **truncation** — every prefix of valid specs (byte-level, at char
//!   boundaries), the shape a half-written request or a dropped connection
//!   produces;
//! * **mutation** — valid specs with randomly spliced hostile fragments
//!   (brackets, arrows, keywords, NULs, multi-byte unicode);
//! * **synthesis** — statements assembled from a hostile alphabet with no
//!   valid skeleton at all, plus a catalogue of hand-picked nasties
//!   (deep nesting, unterminated lists, keyword-only lines).

use effpi::spec::parse_spec;
use obs::hash::SplitMix64 as Rng;

/// A SplitMix64 stream per case; the multiply spreads the suites' small
/// consecutive seeds across the state space.
fn seeded(seed: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
}

/// Valid seed specs, including every statement kind the grammar has.
const SEEDS: [&str; 4] = [
    "// The Fig. 1 payment service.\n\
     env self   : cio[int]\n\
     env aud    : co[int]\n\
     env client : co[str | ()]\n\
     type rec t . i[self, Pi(pay: int) ( o[client, str, Pi() t]\n\
                                       | o[aud, pay, Pi() o[client, (), Pi() t]] )]\n\
     check non_usage [self]\n\
     check deadlock_free [self, aud, client]\n\
     check forwarding self -> aud\n",
    "def Token = ()\n\
     env a : cio[Token]\n\
     env b : cio[Token]\n\
     visible a\n\
     type p[ rec r . i[a, Pi(t: Token) o[b, Token, Pi() r]],\n\
             rec s . i[b, Pi(t: Token) o[a, Token, Pi() s]] ]\n\
     check deadlock_free []\n",
    "env unused : cio[int]\n\
     type Pi(c: cio[int]) o[c, int, Pi() nil]\n\
     term fun c: cio[int]. send(c, 42, fun _: (). end)\n",
    "env z : cio[co[str]]\n\
     type rec t . i[z, Pi(reply: co[str]) o[reply, str, Pi() t]]\n\
     check reactive z\n\
     check responsive z\n",
];

/// Fragments chosen to stress every delimiter, keyword and operator the
/// grammars (spec statements, types, terms, properties) react to.
const HOSTILE: [&str; 32] = [
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    ",",
    ":",
    ".",
    "|",
    "->",
    "=",
    "µ",
    "Π",
    "⊤",
    "⊥",
    "∨",
    "rec",
    "Pi",
    "fun",
    "send",
    "recv",
    "end",
    "nil",
    "proc",
    "def",
    "env",
    "type",
    "check",
    "\u{0}",
    "\u{1f600}",
    "\t\t",
];

/// The parser must decide (Ok or Err) without panicking; both outcomes are
/// legal for generated input. The returned flag feeds sanity counters.
fn parses(input: &str) -> bool {
    parse_spec(input).is_ok()
}

#[test]
fn every_truncation_of_every_seed_is_decided_without_panicking() {
    for (i, seed) in SEEDS.iter().enumerate() {
        assert!(parses(seed), "seed {i} must be a valid spec");
        for cut in 0..=seed.len() {
            if !seed.is_char_boundary(cut) {
                continue;
            }
            // Both the bare prefix and the prefix of a line that lost its
            // tail mid-statement.
            let prefix = &seed[..cut];
            let _ = parse_spec(prefix);
            let _ = parse_spec(prefix.trim_end());
        }
    }
}

#[test]
fn spliced_mutations_of_valid_specs_are_decided_without_panicking() {
    let mut decided_ok = 0u32;
    let mut decided_err = 0u32;
    for seed_no in 0..SEEDS.len() as u64 {
        for case in 0..256u64 {
            let mut rng = seeded(seed_no * 10_000 + case);
            let base = SEEDS[seed_no as usize];
            let mut mutated = String::with_capacity(base.len() + 16);
            // Splice 1–4 hostile fragments at random char boundaries,
            // sometimes replacing a slice instead of inserting.
            let cuts = 1 + rng.below(4);
            let boundaries: Vec<usize> = (0..=base.len())
                .filter(|&i| base.is_char_boundary(i))
                .collect();
            let mut points: Vec<usize> = (0..cuts)
                .map(|_| boundaries[rng.below(boundaries.len() as u64) as usize])
                .collect();
            points.sort_unstable();
            points.dedup();
            let mut last = 0;
            for point in points {
                if point < last {
                    continue; // a previous deletion already consumed this cut
                }
                mutated.push_str(&base[last..point]);
                mutated.push_str(HOSTILE[rng.below(HOSTILE.len() as u64) as usize]);
                // Occasionally also skip ahead, deleting a chunk.
                last = if rng.below(3) == 0 {
                    let skip_to = boundaries
                        .iter()
                        .copied()
                        .find(|&b| b >= point + 1 + rng.below(8) as usize)
                        .unwrap_or(base.len());
                    skip_to
                } else {
                    point
                };
            }
            mutated.push_str(&base[last..]);
            if parses(&mutated) {
                decided_ok += 1;
            } else {
                decided_err += 1;
            }
        }
    }
    // Sanity: the mutator actually produces both outcomes, i.e. it is
    // neither so destructive that nothing parses nor so timid that
    // everything does.
    assert!(decided_ok > 0, "no mutation survived parsing");
    assert!(decided_err > 0, "no mutation was rejected");
}

#[test]
fn synthesised_keyword_soup_is_decided_without_panicking() {
    for case in 0..512u64 {
        let mut rng = seeded(0xeff1 + case);
        let mut soup = String::new();
        for _ in 0..1 + rng.below(12) {
            for _ in 0..rng.below(10) {
                soup.push_str(HOSTILE[rng.below(HOSTILE.len() as u64) as usize]);
                if rng.below(3) == 0 {
                    soup.push(' ');
                }
            }
            soup.push('\n');
        }
        let _ = parse_spec(&soup);
    }
}

#[test]
fn hand_picked_nasties_return_errors_not_panics() {
    let deep_open = format!("type {}nil", "p[".repeat(2_000));
    let deep_closed = format!("type {}nil{}", "p[nil, ".repeat(512), "]".repeat(512));
    let long_union = format!("type {}nil", "nil | ".repeat(4_096));
    let nasties: Vec<String> = [
        "",
        "   \n\t\n",
        "env",
        "env :",
        "env x :",
        "env : cio[int]",
        "def",
        "def =",
        "def X =",
        "visible",
        "visible ,,,",
        "type",
        "term",
        "check",
        "check forwarding",
        "check forwarding ->",
        "check forwarding x ->",
        "check non_usage [",
        "check non_usage x]",
        "check deadlock_free [x",
        "check responsive",
        "type rec",
        "type rec t",
        "type rec t .",
        "type i[",
        "type o[x, int",
        "type Pi(",
        "type Pi(x:",
        "type cio[cio[cio[",
        "term fun",
        "term send(",
        "env x : cio[int]\ntype \u{0}\u{0}\u{0}",
        "env x\u{a0}y : cio[int]", // non-breaking space inside a name
    ]
    .into_iter()
    .map(String::from)
    .chain([deep_open, deep_closed, long_union])
    .collect();
    for nasty in &nasties {
        // The contract under test is "decided, never panicked" — a few
        // nasties are legal, most are errors (the 512-deep closed nest is
        // well-bracketed but still rejected by the parser's MAX_NESTING
        // guard); either way the call must return.
        let _ = parse_spec(nasty);
    }
    // Pin the polarity of a few: statements cut off mid-shape must be
    // *errors* (with their line number), not silent successes…
    for must_reject in [
        "env x :",
        "def X =",
        "check forwarding x ->",
        "type rec t .",
    ] {
        let err = parse_spec(must_reject).expect_err(must_reject);
        assert_eq!(err.line, 1, "{must_reject}");
    }
    // …while empty input is the empty spec — a request with no statements is
    // well-formed (and runs to an empty report).
    assert!(parse_spec("").is_ok());
    assert!(parse_spec("   \n\t\n").is_ok());
}
