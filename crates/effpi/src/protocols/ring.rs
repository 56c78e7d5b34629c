//! Token-passing rings — the "Ring (n elements[, m tokens])" rows of Fig. 9.
//!
//! Each member forever receives a unit token on its own channel and forwards
//! it to the next member's channel; one or more injector processes put the
//! initial tokens into circulation. The interesting property here is
//! *forwarding*: whatever a member receives on its channel is passed on to the
//! next channel before the member reads its own channel again.

use super::{row_spec, Probes};

/// The "Ring (`members` elements[, `tokens` tokens])" row as `.effpi` text:
/// member `I` forever receives a token on `cI` and forwards it on the next
/// member's channel, and `tokens` injectors, spread evenly around the ring,
/// each put one token on a member's channel and stop.
///
/// The row needs two members: for `members < 2` the checks name an
/// undeclared channel and the text is rejected by
/// [`crate::spec::parse_spec`].
pub fn spec(members: usize, tokens: usize) -> String {
    let env: Vec<_> = (0..members)
        .map(|i| (format!("c{i}"), "cio[()]".to_string()))
        .collect();
    let mut components: Vec<String> = (0..members)
        .map(|i| {
            let next = (i + 1) % members;
            format!("rec r . i[c{i}, Pi(tok: ()) o[c{next}, (), Pi() r]]")
        })
        .collect();
    for t in 0..tokens {
        components.push(format!("o[c{}, (), Pi() nil]", t * members / tokens));
    }
    row_spec(
        &env,
        ["c0", "c1"],
        &components,
        Probes {
            usage: "c1",
            from: "c0",
            to: "c1",
            mailbox: "c0",
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::tests::{parsed, run};
    use super::*;
    use crate::{Property, Session};
    use dbt_types::Checker;

    #[test]
    fn the_ring_is_a_valid_guarded_process_type() {
        let (spec, ty) = parsed(&spec(4, 1));
        Checker::new()
            .check_pi_type(&spec.env, &ty)
            .expect("valid π-type");
        assert!(ty.is_guarded());
        assert!(!ty.has_par_under_rec());
    }

    #[test]
    fn the_ring_circulates_forever_without_deadlock_and_without_using_foreign_channels() {
        let verdicts = run(&spec(4, 1), 60_000).verdicts();
        assert!(verdicts[0], "deadlock-free");
        assert!(!verdicts[3], "c1 is used for output (non-usage fails)");
        assert!(!verdicts[5], "members never answer on the received token");
        // Non-usage of a channel outside the ring trivially holds. A spec
        // cannot check an undeclared channel, so ask the type directly, on
        // the row's visible channels.
        let (spec, ty) = parsed(&spec(4, 1));
        let outside = Session::builder()
            .max_states(60_000)
            .visible(spec.visible.clone())
            .build()
            .verify(&spec.env, &ty, &Property::non_usage(["c_does_not_exist"]))
            .unwrap();
        assert!(outside.holds);
    }

    #[test]
    fn more_members_and_more_tokens_mean_more_states() {
        let base = run(&spec(3, 1), 60_000).states();
        let more_members = run(&spec(4, 1), 60_000).states();
        let more_tokens = run(&spec(4, 2), 60_000).states();
        assert!(more_members > base);
        assert!(more_tokens >= more_members);
    }
}
