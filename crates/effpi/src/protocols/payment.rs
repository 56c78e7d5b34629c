//! The payment-with-audit protocol of §1 / Fig. 1, composed with an auditor
//! and a configurable number of clients — the "Pay & audit + N clients" rows
//! of Fig. 9.
//!
//! Unlike the standalone service of [`lambdapi::examples`], this composition
//! uses the *channel-passing* formulation closest to the Akka Typed use case:
//! each payment message carries the payer's reply channel (`pay.replyTo` in
//! Fig. 1), so the service answers a different client each time — which is
//! exactly what the dependent function type in the service's input tracks.

use super::{row_spec, Probes};

/// The payload type of a reply channel: a `Rejected` reply carries a string
/// (the reason), an `Accepted` reply carries unit.
const REPLY: &str = "str | ()";

/// The "Pay & audit + `clients` clients" row as `.effpi` text. Its
/// components are:
///
/// * the service — forever receive a reply channel `rc` on `self`, then
///   either reject (answer a string on `rc`) or audit and accept (notify
///   `aud`, then answer unit on `rc`);
/// * the auditor — forever receive audit notifications on `aud`;
/// * one client per reply channel `rcI` — forever send `rcI` to the service,
///   then await the reply on it.
pub fn spec(clients: usize) -> String {
    let mut env = vec![
        ("self".to_string(), format!("cio[co[{REPLY}]]")),
        ("aud".to_string(), "cio[()]".to_string()),
    ];
    let mut components = vec![
        format!(
            "rec t . i[self, Pi(rc: co[{REPLY}]) ( o[rc, str, Pi() t]\n    \
             | o[aud, (), Pi() o[rc, (), Pi() t]] )]"
        ),
        "rec a . i[aud, Pi(u: ()) a]".to_string(),
    ];
    for i in 0..clients {
        env.push((format!("rc{i}"), format!("cio[{REPLY}]")));
        components.push(format!(
            "rec c . o[self, rc{i}, Pi() i[rc{i}, Pi(r: {REPLY}) c]]"
        ));
    }
    row_spec(
        &env,
        ["self", "aud"],
        &components,
        Probes {
            usage: "aud",
            from: "self",
            to: "aud",
            mailbox: "self",
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::tests::{parsed, run};
    use super::*;
    use dbt_types::Checker;

    #[test]
    fn the_composition_is_a_valid_process_type() {
        let (spec, ty) = parsed(&spec(2));
        Checker::new()
            .check_pi_type(&spec.env, &ty)
            .expect("valid π-type");
        assert!(ty.is_guarded());
        assert!(!ty.has_par_under_rec());
    }

    #[test]
    fn key_verdicts_of_the_fig9_row() {
        let verdicts = run(&spec(2), 40_000).verdicts();
        // Column order: deadlock-free, ev-usage, forwarding, non-usage,
        // reactive, responsive.
        assert!(verdicts[0], "the composition never deadlocks");
        assert!(
            !verdicts[2],
            "forwarding self→aud fails: rejected payments are not audited"
        );
        assert!(!verdicts[3], "aud is used for output");
        assert!(
            verdicts[5],
            "the service is responsive: every received reply channel is answered"
        );
    }

    #[test]
    fn state_space_grows_with_the_number_of_clients() {
        let small = run(&spec(1), 40_000).states();
        let large = run(&spec(3), 40_000).states();
        assert!(large > small, "expected growth: {small} -> {large}");
    }
}
