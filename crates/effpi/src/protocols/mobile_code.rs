//! The higher-order "mobile code" protocol of Ex. 3.4 / Ex. 4.11: a data
//! analysis server receives *code* (an abstract process of type `Tm`) from its
//! clients and runs it against two producers, forwarding one of the received
//! values on its output channel.
//!
//! The λπ⩽ terms and the type `Tm` live in [`lambdapi::examples`]; this module
//! adds the verification-oriented view: the behavioural type of the
//! *instantiated* filter (the `T'srv` discussion of Ex. 3.4) and the
//! forwarding property it enjoys (Ex. 4.11).

/// The instantiated mobile code as `.effpi` text: `Tm` applied to two input
/// channels and one output channel (all distinct), with the guarantees that
/// hold whatever code the server receives — it forwards one of its inputs to
/// `out` (Ex. 4.11) and never writes back on its input channels.
///
/// After reading `in2`, the filter immediately forwards one of the received
/// values on `out`. Forwarding from `in1` is *not* immediate: the filter
/// reads `in2` in between, and the strict Fig. 7(4) template, restricted to
/// `{in1, out}`, rejects that.
pub fn spec() -> String {
    "env in1 : cio[int]\n\
     env in2 : cio[int]\n\
     env out : cio[int]\n\
     visible in1, in2, out\n\
     def Tm = Pi(i1: ci[int]) Pi(i2: ci[int]) Pi(o: co[int])\n  \
     rec t . i[i1, Pi(x: int) i[i2, Pi(y: int) o[o, x | y, Pi() t]]]\n\
     type Tm in1 in2 out\n\
     check deadlock_free [in1, in2, out]\n\
     check eventual_output [out]\n\
     check forwarding in2 -> out\n\
     check non_usage [in1, in2]\n\
     check reactive in1\n\
     check responsive in1\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::super::tests::{parsed, run};
    use super::*;
    use crate::Type;
    use dbt_types::Checker;
    use lambdapi::examples;

    #[test]
    fn the_instantiated_filter_is_a_valid_process_type() {
        let (spec, ty) = parsed(&spec());
        Checker::new()
            .check_pi_type(&spec.env, &ty)
            .expect("valid π-type");
        // `Tm` is the type the example terms m1 and m2 implement.
        let applied = examples::tm_type()
            .apply_all(&[Type::var("in1"), Type::var("in2"), Type::var("out")])
            .expect("Tm takes three channel arguments");
        assert_eq!(ty, applied);
    }

    #[test]
    fn mobile_code_guarantees_from_example_4_11() {
        let report = run(&spec(), 20_000);
        let outcomes: Vec<_> = report
            .properties
            .iter()
            .map(|p| p.result.as_ref().expect("decided"))
            .collect();
        // The filter never gets stuck when all three channels are probed.
        assert!(outcomes[0].holds, "deadlock-free: {}", outcomes[0]);
        // It never uses its *input* channels for output — so, in particular,
        // it cannot be a fork bomb flooding its own inputs.
        assert!(outcomes[3].holds, "non-usage of in1/in2: {}", outcomes[3]);
        // Whatever arrives on in2 is immediately forwarded on out (the value
        // sent is x ∨ y, which covers the value just received).
        assert!(outcomes[2].holds, "forwarding in2→out: {}", outcomes[2]);
        // Forwarding from in1 does not satisfy the strict template: the filter
        // must read in2 before it can produce the output, and the ↑Γ{in1,out}
        // restriction of Fig. 7(4) hides that intermediate step.
        let from_in1 = run(&format!("{}check forwarding in1 -> out\n", spec()), 20_000);
        assert!(!from_in1.properties[6].holds());
    }
}
