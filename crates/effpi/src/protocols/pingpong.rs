//! Parallel ping-pong pairs (Ex. 2.2 / Ex. 4.3), as measured in the
//! "Ping-pong (k pairs)" rows of Fig. 9.
//!
//! The *plain* variant is fire-and-forget: each pinger sends its reply channel
//! once and each ponger consumes the request without answering. In the
//! *responsive* variant the first pair runs the full Ex. 2.2 protocol forever
//! (the ponger answers on the received reply channel), which is what makes
//! the responsiveness property of its mailbox hold.

use super::{row_spec, Probes};

/// The "Ping-pong (`pairs` pairs[, responsive])" row as `.effpi` text: pair
/// `I` is a pinger sending its reply channel `yI` on the ponger's mailbox
/// `zI`, and the ponger receiving it.
///
/// A plain pinger sends once and stops; a plain ponger consumes the request
/// and stops without answering. When `responsive` is true, pair 0 loops
/// instead: its pinger awaits the answer on `y0` before sending again, and
/// its ponger answers every request on the reply channel it received. The
/// row needs a pair: for `pairs = 0` the checks name an undeclared channel
/// and the text is rejected by [`crate::spec::parse_spec`].
pub fn spec(pairs: usize, responsive: bool) -> String {
    let mut env = Vec::new();
    let mut components = Vec::new();
    for i in 0..pairs {
        env.push((format!("y{i}"), "cio[str]".to_string()));
        env.push((format!("z{i}"), "cio[co[str]]".to_string()));
        if responsive && i == 0 {
            components.push(format!(
                "rec p . o[z{i}, y{i}, Pi() i[y{i}, Pi(reply: str) p]]"
            ));
            components.push(format!(
                "rec q . i[z{i}, Pi(replyTo: co[str]) o[replyTo, str, Pi() q]]"
            ));
        } else {
            components.push(format!("o[z{i}, y{i}, Pi() nil]"));
            components.push(format!("i[z{i}, Pi(replyTo: co[str]) nil]"));
        }
    }
    row_spec(
        &env,
        ["z0", "y0"],
        &components,
        Probes {
            usage: "y0",
            from: "z0",
            to: "y0",
            mailbox: "z0",
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
        for responsive in [false, true] {
            let (spec, ty) = parsed(&spec(2, responsive));
            checker.check_pi_type(&spec.env, &ty).expect("valid π-type");
            assert!(ty.is_guarded());
            assert!(!ty.has_par_under_rec());
        }
    }

    #[test]
    fn responsiveness_distinguishes_the_two_variants() {
        // The headline distinction of the ping-pong rows of Fig. 9: the
        // responsive variant satisfies responsiveness on the probed mailbox,
        // the plain variant does not. Both are deadlock-free.
        let plain = run(&spec(2, false), 60_000).verdicts();
        let resp = run(&spec(2, true), 60_000).verdicts();
        assert!(plain[0] && resp[0], "both variants are deadlock-free");
        assert!(!plain[5], "the plain ponger never answers");
        assert!(resp[5], "the responsive ponger answers every request");
    }

    #[test]
    fn adding_pairs_multiplies_the_state_space() {
        let two = run(&spec(2, false), 60_000).states();
        let three = run(&spec(3, false), 60_000).states();
        assert!(three > two);
    }
}
