//! Content-addressed cache keys for verification requests.
//!
//! The `effpi-serve` daemon fronts the [`Session`](crate::Session) pipeline
//! with a verdict cache: two requests that are guaranteed to produce
//! byte-identical reports should hit the same cache entry. This module
//! computes that address — a stable hash of the **semantic content** of a
//! request, not of its surface text:
//!
//! * the behavioural type and every environment binding are hashed in their
//!   [`lambdapi::Type::normalize`]d form, so re-ordered unions, re-flattened parallel
//!   compositions and `p[T, nil]` wrappers collapse to one key;
//! * `def` aliases are inlined by the spec parser before the key is taken, so
//!   renaming an alias (or dropping an unused one) does not change the key;
//! * whitespace, comments and statement line-breaking never reach the key;
//! * environment bindings are keyed **sorted by name** and the `visible` list
//!   as a **sorted set** — both are order-insensitive in the semantics
//!   (Def. 3.2's Γ is a finite map; visibility is a membership test);
//! * the engine knobs that *can* change a report — `max_states`, `max_depth`,
//!   `max_unfold`, `auto_probe` — are part of the key, so tightening a bound
//!   never replays a stale verdict;
//! * [`SessionConfig::parallelism`] is deliberately **excluded**: the
//!   exploration engine guarantees reports identical for every worker count
//!   (see `lts::explore`), so a verdict computed with 8 workers is a valid
//!   hit for a serial request. [`SessionConfig::memory_budget`] and
//!   [`SessionConfig::spill_dir`] are excluded for the same reason: the
//!   engine guarantees byte-identical reports with or without a budget —
//!   they only trade RAM for disk.
//!   [`SessionConfig::visible`] is likewise excluded, because spec runs
//!   always use the spec's own `visible` list.
//!
//! `check` statements are keyed **in order**: a report lists its properties
//! in request order, so re-ordered checks are *not* the same request (their
//! reports differ byte-for-byte).
//!
//! The hash is 128-bit FNV-1a over a versioned canonical rendering — stable
//! across processes, platforms and releases (unlike `DefaultHasher`), and
//! wide enough that collisions are not a practical concern for a bounded
//! cache.

use lambdapi::{TyRef, Type};
use obs::hash::Fnv128;

use crate::session::SessionConfig;
use crate::spec::Spec;

pub use obs::hash::CacheKey;

/// The version tag mixed into every key; bump it whenever the canonical
/// rendering (or anything that feeds it, e.g. `Type::normalize` or the
/// property grammar) changes meaning, so stale caches can never replay.
pub const KEY_SCHEMA: &str = "effpi-cache-key/v1";

/// Computes the content address of running `spec` under `config` — the key
/// under which a verdict cache may store (and replay) the resulting report.
///
/// See the module documentation for exactly what is and is not part of the
/// key. The guarantee: two calls returning equal keys describe runs whose
/// [`Report::summary`](crate::Report::summary) stable lines are
/// byte-identical (the type LTS normalises every state, so congruent inputs
/// explore literally the same model).
pub fn spec_cache_key(config: &SessionConfig, spec: &Spec) -> CacheKey {
    let mut h = Fnv128::new();
    h.write(KEY_SCHEMA);
    h.write("\nmax_states=");
    h.write(&config.max_states.to_string());
    h.write("\nmax_depth=");
    h.write(&config.max_depth.to_string());
    h.write("\nmax_unfold=");
    h.write(&config.max_unfold.to_string());
    h.write("\nauto_probe=");
    h.write(if config.auto_probe { "1" } else { "0" });

    // Γ is a finite map: canonical order is by name. Bindings are normalised
    // so congruent environment types key identically — through the interner's
    // memoized normal forms, so a daemon keying thousands of requests against
    // the same environment normalises each distinct type once, not per key.
    let mut bindings: Vec<(String, String)> = spec
        .env
        .iter()
        .map(|(name, ty)| (name.to_string(), normal_form(ty).to_string()))
        .collect();
    bindings.sort();
    h.write("\nenv=");
    for (name, ty) in &bindings {
        h.write(name);
        h.write(":");
        h.write(ty);
        h.write(";");
    }

    // Visibility is a membership test: canonical form is the sorted set.
    let mut visible: Vec<&str> = spec.visible.iter().map(|n| n.as_str()).collect();
    visible.sort_unstable();
    visible.dedup();
    h.write("\nvisible=");
    for v in visible {
        h.write(v);
        h.write(",");
    }

    h.write("\ntype=");
    match &spec.ty {
        Some(ty) => h.write(&normal_form(ty).to_string()),
        None => h.write("-"),
    }

    // The term is hashed as-is (not normalised): Step 1 type-checks the
    // program the user wrote, and two different programs may differ in
    // whether they type-check at all.
    h.write("\nterm=");
    match &spec.term {
        Some(term) => h.write(&term.to_string()),
        None => h.write("-"),
    }

    // Checks in request order — the report lists them in order.
    h.write("\nchecks=");
    for check in &spec.checks {
        h.write(&check.to_string());
        h.write(";");
    }

    CacheKey(h.finish())
}

/// The canonical rendering source for key material: the interner's memoized
/// [`Type::normalize`] form. Structurally identical to `ty.normalize()` (the
/// intern property suite pins this), so keys are byte-for-byte what they were
/// before hash consing existed — `tests/cache_key.rs` pins known key values.
fn normal_form(ty: &Type) -> TyRef {
    TyRef::intern(ty).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;
    use crate::Session;

    #[test]
    fn keys_render_as_32_hex_digits_and_round_trip() {
        let spec = parse_spec("env x : cio[int]\ntype i[x, Pi(v: int) nil]").unwrap();
        let key = Session::new().cache_key(&spec);
        let text = key.to_string();
        assert_eq!(text.len(), 32);
        assert!(text.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(CacheKey::parse(&text), Ok(key));
        assert!(CacheKey::parse("xyz").is_err());
        assert!(CacheKey::parse(&text[..31]).is_err());
        // Exactly what Display renders — no sign prefixes smuggled past the
        // length check.
        assert!(CacheKey::parse("+000000000000000000000000000000f").is_err());
        // The binary encoding round-trips too, and is byte-stable (LE).
        assert_eq!(CacheKey::from_bytes(key.to_bytes()), key);
        assert_eq!(
            CacheKey(1).to_bytes(),
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn fnv_vectors_are_stable() {
        // Pin the hash itself: a silent change here would invalidate every
        // persisted key without bumping KEY_SCHEMA.
        let mut h = Fnv128::new();
        h.write("");
        assert_eq!(h.finish(), Fnv128::OFFSET);
        let mut h = Fnv128::new();
        h.write("a");
        assert_eq!(h.finish(), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn parallelism_is_not_part_of_the_key() {
        let spec = parse_spec("env x : cio[int]\ntype i[x, Pi(v: int) nil]").unwrap();
        let serial = Session::builder().parallelism(1).build();
        let parallel = Session::builder().parallelism(8).build();
        assert_eq!(serial.cache_key(&spec), parallel.cache_key(&spec));
    }

    #[test]
    fn memory_layer_knobs_are_not_part_of_the_key() {
        // A budgeted, spilling run produces the same report as a default run
        // (the lts::explore determinism guarantee), so it must share the
        // cache entry — operational knobs never split keys.
        let spec = parse_spec("env x : cio[int]\ntype i[x, Pi(v: int) nil]").unwrap();
        let default = Session::builder().build().cache_key(&spec);
        let budgeted = Session::builder()
            .memory_budget(1 << 20)
            .spill_dir(std::env::temp_dir())
            .build()
            .cache_key(&spec);
        assert_eq!(default, budgeted);
    }

    #[test]
    fn engine_bounds_are_part_of_the_key() {
        let spec = parse_spec("env x : cio[int]\ntype i[x, Pi(v: int) nil]").unwrap();
        let a = Session::builder().max_states(10).build().cache_key(&spec);
        let b = Session::builder().max_states(11).build().cache_key(&spec);
        assert_ne!(a, b);
    }
}
