//! Dijkstra's dining philosophers as behavioural types — the locking/mutex
//! protocol family mentioned in §6 and measured in Fig. 9.
//!
//! Each fork is a process that offers its token on a fork channel and then
//! waits to get it back; each philosopher picks up two forks (by receiving
//! their tokens), then puts them back (by sending), forever. When every
//! philosopher grabs their left fork first, the classic circular wait can
//! occur and the composition can deadlock; having one philosopher grab the
//! right fork first breaks the cycle.

use super::{row_spec, Probes};

/// The "Dining philos. (`n`, …)" row as `.effpi` text: `n` forks on the
/// channels `fork0…` (offer the token, wait to get it back, repeat) and `n`
/// philosophers, each picking up a first and a second fork, then releasing
/// them in the same order, forever.
///
/// With `deadlock = true` every philosopher grabs the left fork first (the
/// composition can deadlock); with `false`, the last philosopher grabs the
/// right fork first and the composition is deadlock-free. The row needs two
/// seats: for `n < 2` the checks name an undeclared fork and the text is
/// rejected by [`crate::spec::parse_spec`].
pub fn spec(n: usize, deadlock: bool) -> String {
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
            // The last philosopher is left-handed: this breaks the cycle.
            (right, left)
        };
        components.push(format!(
            "rec p . i[fork{first}, Pi(l: ()) i[fork{second}, Pi(r: ())\n    \
             o[fork{first}, (), Pi() o[fork{second}, (), Pi() p]]]]"
        ));
    }
    row_spec(
        &env,
        ["fork0", "fork1"],
        &components,
        Probes {
            usage: "fork0",
            from: "fork0",
            to: "fork1",
            mailbox: "fork0",
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::tests::{parsed, run};
    use super::*;
    use dbt_types::Checker;

    #[test]
    fn both_variants_are_valid_process_types() {
        let checker = Checker::new();
        for deadlock in [true, false] {
            let (spec, ty) = parsed(&spec(3, deadlock));
            checker.check_pi_type(&spec.env, &ty).expect("valid π-type");
            assert!(ty.is_guarded());
            assert!(!ty.has_par_under_rec());
        }
    }

    #[test]
    fn the_left_handed_philosopher_makes_the_difference() {
        // The headline distinction of the Fig. 9 dining rows: the grab-left
        // variant can deadlock, the variant with one left-handed philosopher
        // cannot.
        let d = run(&spec(3, true), 60_000).verdicts();
        let s = run(&spec(3, false), 60_000).verdicts();
        assert!(!d[0], "grab-left variant must be able to deadlock");
        assert!(s[0], "left-handed variant must be deadlock-free");
        // Forks are used for output in both variants.
        assert!(!d[3]);
        assert!(!s[3]);
    }

    #[test]
    fn state_space_grows_with_the_table_size() {
        let small = run(&spec(2, true), 60_000).states();
        let large = run(&spec(3, true), 60_000).states();
        assert!(large > small);
    }
}
