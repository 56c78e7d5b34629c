//! Spec text generators and seeded schedules.
//!
//! Everything the measured program sees is `.effpi` text produced here; the
//! generators are written against the spec grammar alone and share no code
//! with `effpi::protocols`, so a change to the protocol library cannot move
//! the benchmark's inputs. The self-tests pin the state counts the ten
//! Fig. 9 shapes must reproduce.

use std::fmt::Write as _;

/// The six Fig. 7 properties in Fig. 9 column order: the name the reports use
/// (`stable_line`, the `name` field of a wire report).
pub const CHECK_NAMES: [&str; 6] = [
    "deadlock-free",
    "ev-usage",
    "forwarding",
    "non-usage",
    "reactive",
    "responsive",
];

/// All six checks.
const ALL_CHECKS: u8 = 0b11_1111;

/// One generated specification.
#[derive(Clone, Debug)]
pub struct GenSpec {
    pub name: String,
    pub text: String,
    /// Report names of the `check` statements, in statement order.
    pub checks: Vec<&'static str>,
}

/// The channels a Fig. 9 row instantiates its six properties with.
struct Probes<'a> {
    usage: &'a str,
    from: &'a str,
    to: &'a str,
    mailbox: &'a str,
}

/// Left-nested binary parallel composition, the shape `Type::par_all` folds.
fn par(components: &[String]) -> String {
    let mut it = components.iter();
    let first = it.next().expect("a composition has components").clone();
    it.fold(first, |acc, c| format!("p[{acc},\n       {c}]"))
}

fn spec(
    name: String,
    env: &[(String, String)],
    visible: [&str; 2],
    components: &[String],
    probes: &Probes<'_>,
    mask: u8,
) -> GenSpec {
    let mut text = format!("// {name}: generated by benchmark/src/specs.rs\n");
    for (chan, ty) in env {
        let _ = writeln!(text, "env {chan} : {ty}");
    }
    let _ = writeln!(text, "visible {}, {}", visible[0], visible[1]);
    let _ = writeln!(text, "type {}", par(components));
    let statements = [
        "deadlock_free []".to_string(),
        format!("eventual_output [{}]", probes.usage),
        format!("forwarding {} -> {}", probes.from, probes.to),
        format!("non_usage [{}]", probes.usage),
        format!("reactive {}", probes.mailbox),
        format!("responsive {}", probes.mailbox),
    ];
    let mut checks = Vec::new();
    for (i, statement) in statements.iter().enumerate() {
        if mask & (1 << i) != 0 {
            let _ = writeln!(text, "check {statement}");
            checks.push(CHECK_NAMES[i]);
        }
    }
    GenSpec { name, text, checks }
}

/// "Pay & audit + `clients` clients": the §1 payment service (reject, or
/// audit then accept, answering on the reply channel each payment carries),
/// an auditor, and `clients` looping clients.
pub fn pay_audit(clients: usize) -> GenSpec {
    let reply = "str | ()";
    let mut env = vec![
        ("self".to_string(), format!("cio[co[{reply}]]")),
        ("aud".to_string(), "cio[()]".to_string()),
    ];
    let mut components = vec![
        format!(
            "rec t . i[self, Pi(rc: co[{reply}]) ( o[rc, str, Pi() t] \
             | o[aud, (), Pi() o[rc, (), Pi() t]] )]"
        ),
        "rec a . i[aud, Pi(u: ()) a]".to_string(),
    ];
    for i in 0..clients {
        env.push((format!("rc{i}"), format!("cio[{reply}]")));
        components.push(format!(
            "rec c . o[self, rc{i}, Pi() i[rc{i}, Pi(r: {reply}) c]]"
        ));
    }
    let probes = Probes {
        usage: "aud",
        from: "self",
        to: "aud",
        mailbox: "self",
    };
    spec(
        format!("pay{clients}"),
        &env,
        ["self", "aud"],
        &components,
        &probes,
        ALL_CHECKS,
    )
}

/// Dining philosophers over `n` fork channels. With `deadlock`, everyone
/// grabs the left fork first; without, the last philosopher is left-handed.
pub fn dining(n: usize, deadlock: bool) -> GenSpec {
    let env: Vec<_> = (0..n)
        .map(|i| (format!("fork{i}"), "cio[()]".to_string()))
        .collect();
    let mut components: Vec<String> = (0..n)
        .map(|i| format!("rec f . o[fork{i}, (), Pi() i[fork{i}, Pi(back: ()) f]]"))
        .collect();
    for i in 0..n {
        let (left, right) = (i, (i + 1) % n);
        let (first, second) = if deadlock || i + 1 < n {
            (left, right)
        } else {
            (right, left)
        };
        components.push(format!(
            "rec ph . i[fork{first}, Pi(l: ()) i[fork{second}, Pi(r: ()) \
             o[fork{first}, (), Pi() o[fork{second}, (), Pi() ph]]]]"
        ));
    }
    let probes = Probes {
        usage: "fork0",
        from: "fork0",
        to: "fork1",
        mailbox: "fork0",
    };
    let variant = if deadlock { "deadlock" } else { "safe" };
    spec(
        format!("dining{n}_{variant}"),
        &env,
        ["fork0", "fork1"],
        &components,
        &probes,
        ALL_CHECKS,
    )
}

/// `pairs` ping-pong pairs exchanging `payload` replies; every pair is
/// one-shot and unanswered except that, when `responsive`, pair 0 loops and
/// its ponger answers on the reply channel it received.
fn ping_pong_with(
    name: String,
    pairs: usize,
    responsive: bool,
    payload: &str,
    mask: u8,
) -> GenSpec {
    let mut env = Vec::new();
    let mut components = Vec::new();
    for i in 0..pairs {
        env.push((format!("y{i}"), format!("cio[{payload}]")));
        env.push((format!("z{i}"), format!("cio[co[{payload}]]")));
        if responsive && i == 0 {
            components.push(format!(
                "rec pi . o[z{i}, y{i}, Pi() i[y{i}, Pi(reply: {payload}) pi]]"
            ));
            components.push(format!(
                "rec po . i[z{i}, Pi(replyTo: co[{payload}]) o[replyTo, {payload}, Pi() po]]"
            ));
        } else {
            components.push(format!("o[z{i}, y{i}, Pi() nil]"));
            components.push(format!("i[z{i}, Pi(replyTo: co[{payload}]) nil]"));
        }
    }
    let probes = Probes {
        usage: "y0",
        from: "z0",
        to: "y0",
        mailbox: "z0",
    };
    spec(name, &env, ["z0", "y0"], &components, &probes, mask)
}

/// The Fig. 9 "Ping-pong (`pairs` pairs[, responsive])" row.
pub fn ping_pong(pairs: usize, responsive: bool) -> GenSpec {
    let variant = if responsive { "_resp" } else { "" };
    ping_pong_with(
        format!("pingpong{pairs}{variant}"),
        pairs,
        responsive,
        "str",
        ALL_CHECKS,
    )
}

/// A ring of `members` forwarding `payload` tokens, with `tokens` one-shot
/// injectors spread evenly around it.
fn ring_with(name: String, members: usize, tokens: usize, payload: &str, mask: u8) -> GenSpec {
    let env: Vec<_> = (0..members)
        .map(|i| (format!("c{i}"), format!("cio[{payload}]")))
        .collect();
    let mut components: Vec<String> = (0..members)
        .map(|i| {
            let next = (i + 1) % members;
            format!("rec r . i[c{i}, Pi(tok: {payload}) o[c{next}, {payload}, Pi() r]]")
        })
        .collect();
    for t in 0..tokens {
        components.push(format!("o[c{}, {payload}, Pi() nil]", t * members / tokens));
    }
    let probes = Probes {
        usage: "c1",
        from: "c0",
        to: "c1",
        mailbox: "c0",
    };
    spec(name, &env, ["c0", "c1"], &components, &probes, mask)
}

/// The Fig. 9 "Ring (`members` elements[, `tokens` tokens])" row.
pub fn ring(members: usize, tokens: usize) -> GenSpec {
    let name = if tokens == 1 {
        format!("ring{members}")
    } else {
        format!("ring{members}x{tokens}")
    };
    ring_with(name, members, tokens, "()", ALL_CHECKS)
}

/// The one catalogue entry with a `term`, so Step 1 (type-checking a program
/// against its protocol) is exercised; it has no `check`.
pub fn send_once() -> GenSpec {
    GenSpec {
        name: "send_once".to_string(),
        text: "// send_once: generated by benchmark/src/specs.rs\n\
               env unused : cio[int]\n\
               type Pi(c: cio[int]) o[c, int, Pi() nil]\n\
               term fun c: cio[int]. send(c, 42, fun _: (). end)\n"
            .to_string(),
        checks: Vec::new(),
    }
}

/// The 11-spec catalogue: the ten Fig. 9 shapes at the sizes of
/// `fig9_scenarios(1)`, in that order, plus [`send_once`].
pub fn catalogue() -> Vec<GenSpec> {
    vec![
        pay_audit(4),
        pay_audit(6),
        dining(4, true),
        dining(4, false),
        ping_pong(4, false),
        ping_pong(4, true),
        ping_pong(6, false),
        ping_pong(6, true),
        ring(8, 1),
        ring(8, 3),
        send_once(),
    ]
}

/// The catalogue entries with at least 2 000 states — the `cli_fig9_par`
/// workload, where a second exploration thread has work to take.
pub const PAR_SPECS: [&str; 5] = [
    "pay4",
    "pay6",
    "dining4_deadlock",
    "dining4_safe",
    "ring8x3",
];

/// The `i`-th payload type of an unbounded family of pairwise different
/// types: a base type under a stack of channel constructors read off the
/// digits of `i`.
fn payload(mut i: usize) -> String {
    let mut ty = ["str", "int", "bool", "()"][i % 4].to_string();
    i /= 4;
    while i > 0 {
        ty = format!("{}[{ty}]", ["co", "ci", "cio"][(i - 1) % 3]);
        i = (i - 1) / 3;
    }
    ty
}

/// The `i`-th spec of the churn family: small ping-pong and ring shapes ×
/// non-empty check subsets × payload types. Different `i` give semantically
/// different requests (different cache keys), for every `i`.
pub fn churn_spec(i: usize) -> GenSpec {
    const SHAPES: usize = 8;
    const SUBSETS: usize = 63;
    let shape = i % SHAPES;
    let mask = ((i / SHAPES) % SUBSETS + 1) as u8;
    let payload = payload(i / (SHAPES * SUBSETS));
    let name = format!("churn{i}");
    match shape {
        0 => ping_pong_with(name, 2, false, &payload, mask),
        1 => ping_pong_with(name, 2, true, &payload, mask),
        2 => ping_pong_with(name, 3, false, &payload, mask),
        3 => ping_pong_with(name, 3, true, &payload, mask),
        4 => ring_with(name, 3, 1, &payload, mask),
        5 => ring_with(name, 4, 1, &payload, mask),
        6 => ring_with(name, 4, 2, &payload, mask),
        _ => ring_with(name, 5, 1, &payload, mask),
    }
}

/// Churn keys the daemon holds before the window opens: `HOT` stay
/// LRU-resident, `TAIL` are on disk only.
pub const HOT: usize = 32;
pub const TAIL: usize = 512;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁵⁰ for the sizes used).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// The request classes of `serve_churn`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// One of [`HOT`] LRU-resident keys.
    Hot,
    /// Uniform over [`TAIL`] disk-resident keys.
    Tail,
    /// A key nobody has asked for before.
    Fresh,
}

/// One client's seeded draw over the churn classes: 70 % hot, 20 % tail,
/// 10 % fresh. Client `c` of `clients` takes every `clients`-th fresh index,
/// so no fresh key is ever requested twice.
pub struct ChurnDraw {
    rng: Rng,
    next_fresh: usize,
    stride: usize,
}

impl ChurnDraw {
    pub fn new(seed: u64, client: usize, clients: usize) -> ChurnDraw {
        ChurnDraw {
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            next_fresh: HOT + TAIL + client,
            stride: clients,
        }
    }

    /// The next request: its class and its index into [`churn_spec`].
    pub fn next(&mut self) -> (Class, usize) {
        match self.rng.below(10) {
            0..=6 => (Class::Hot, self.rng.below(HOT)),
            7..=8 => (Class::Tail, HOT + self.rng.below(TAIL)),
            _ => {
                let index = self.next_fresh;
                self.next_fresh += self.stride;
                (Class::Fresh, index)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effpi::spec::parse_spec;
    use effpi::Session;
    use std::collections::HashSet;

    #[test]
    fn every_generated_spec_parses() {
        for spec in catalogue().into_iter().chain((0..2_000).map(churn_spec)) {
            let parsed = parse_spec(&spec.text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(parsed.checks.len(), spec.checks.len(), "{}", spec.name);
            for (property, name) in parsed.checks.iter().zip(&spec.checks) {
                assert_eq!(property.name(), *name, "{}", spec.name);
            }
        }
    }

    #[test]
    fn the_fig9_shapes_reproduce_the_listed_state_counts() {
        let listed = [2_354, 24_914, 4_365, 4_770, 32, 112, 128, 448, 1_152, 4_608];
        let session = Session::builder().max_states(500_000).build();
        for (spec, states) in catalogue().iter().zip(listed) {
            let report = session.run_spec_text(&spec.text).expect("parses");
            assert!(report.first_error().is_none(), "{}: {report}", spec.name);
            assert_eq!(report.states(), states, "{}", spec.name);
        }
    }

    #[test]
    fn the_par_workload_is_the_catalogue_entries_over_2000_states() {
        let names: Vec<String> = catalogue().into_iter().map(|s| s.name).collect();
        for name in PAR_SPECS {
            assert!(names.iter().any(|n| n == name), "{name}");
        }
    }

    #[test]
    fn churn_keys_are_pairwise_distinct() {
        // The pre-populated keys plus a fresh stream longer than any window
        // can consume.
        let session = Session::builder().max_states(500_000).build();
        let mut keys = HashSet::new();
        for i in 0..HOT + TAIL + 12_000 {
            let spec = parse_spec(&churn_spec(i).text).expect("parses");
            assert!(
                keys.insert(session.cache_key(&spec)),
                "churn{i} repeats a key"
            );
        }
    }

    #[test]
    fn churn_specs_verify_without_errors() {
        let session = Session::builder().max_states(500_000).build();
        for i in (0..8).chain([8 * 63, 8 * 63 * 5 + 3, 8 * 63 * 40 + 6]) {
            let spec = churn_spec(i);
            let report = session.run_spec_text(&spec.text).expect("parses");
            assert!(report.first_error().is_none(), "{}: {report}", spec.name);
        }
    }

    #[test]
    fn schedules_repeat_for_equal_seeds_and_differ_across_seeds() {
        let render = |seed: u64| {
            let mut out = String::new();
            let mut rng = Rng::new(seed);
            for _ in 0..3 {
                let _ = write!(out, "{:?};", rng.permutation(11));
            }
            for client in 0..2 {
                let mut draw = ChurnDraw::new(seed, client, 2);
                for _ in 0..500 {
                    let _ = write!(out, "{:?};", draw.next());
                }
            }
            out
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }

    #[test]
    fn fresh_draws_never_repeat_across_clients() {
        let mut seen = HashSet::new();
        for client in 0..2 {
            let mut draw = ChurnDraw::new(3, client, 2);
            for _ in 0..5_000 {
                if let (Class::Fresh, index) = draw.next() {
                    assert!(index >= HOT + TAIL);
                    assert!(seen.insert(index));
                }
            }
        }
    }
}
