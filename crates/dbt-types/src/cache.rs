//! The id-keyed derivation cache behind the [`Checker`](crate::Checker).
//!
//! The LTS hot paths hammer the checker with the *same* queries over and
//! over: `TypeLts` probes `is_subtype`/`might_interact` for every
//! communication-rule match and every early-input candidate, and `TermLts`
//! re-types candidate payloads on every `[SR-recv]` probe. Before this cache
//! existed every such query re-ran a full coinductive derivation over the
//! two trees; now a derivation runs once per distinct *(environment, type
//! pair)* and every repeat is a hash lookup on interned 32-bit ids.
//!
//! The cache is three [`Memo`] tables — subtyping, `▷◁`, typing — of the
//! interner's one sharded memo type, each sharded by the left id of its key.
//!
//! ## Keys
//!
//! * types and terms are keyed by their interned ids
//!   ([`lambdapi::TypeId`] / [`lambdapi::TermId`]) — structural identity,
//!   O(1) to hash;
//! * the environment is keyed by interning a structural encoding of its
//!   entries (a `Π`-chain), so the key is *exact* — congruent-but-distinct
//!   environments never alias;
//! * the checker's `max_depth`/`max_unfold` knobs are folded into every key,
//!   so mutating the limits of a live checker can never replay a derivation
//!   cached under different limits (the "reset-aware" discipline of the
//!   `TypeLts` successor caches, enforced by keying instead of flushing).
//!
//! The cache is shared by clones of a `Checker` (an `Arc`), which is what
//! lets a `Session`'s verifier, its `TypeLts` builders and its `TermLts`
//! builders all compound on each other's derivations. Process-wide hit/miss
//! counters are exported through [`stats`] for the `effpi-serve` `stats`
//! endpoint.

use std::sync::atomic::{AtomicU64, Ordering};

use lambdapi::intern::Memo;
use lambdapi::{TermRef, TyRef, Type};

use crate::env::TypeEnv;
use crate::error::TypeResult;
use crate::Checker;

/// A `(max_depth, max_unfold, env, left id, right id)` cache key. The ids are
/// `TypeId` indices for the subtype/interact tables and a `TermId` index (with
/// a zero right id) for the typing table.
type Key = (u64, u32, u32, u32);

/// Process-wide hit/miss counters of the checker's derivation caches — the
/// cost-accounting hook for long-running services, next to
/// [`lambdapi::intern::stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckerStats {
    /// Memoized `is_subtype` lookups that hit.
    pub subtype_hits: u64,
    /// Subtyping derivations actually run (memo misses).
    pub subtype_misses: u64,
    /// Memoized `might_interact` lookups that hit.
    pub interact_hits: u64,
    /// `▷◁` derivations actually run (memo misses).
    pub interact_misses: u64,
    /// Memoized typing-judgement lookups that hit.
    pub typing_hits: u64,
    /// Typing derivations actually run (memo misses).
    pub typing_misses: u64,
}

static SUBTYPE_HITS: AtomicU64 = AtomicU64::new(0);
static SUBTYPE_MISSES: AtomicU64 = AtomicU64::new(0);
static INTERACT_HITS: AtomicU64 = AtomicU64::new(0);
static INTERACT_MISSES: AtomicU64 = AtomicU64::new(0);
static TYPING_HITS: AtomicU64 = AtomicU64::new(0);
static TYPING_MISSES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide derivation-cache counters (summed over
/// every live [`Checker`], since the counters track work saved process-wide).
pub fn stats() -> CheckerStats {
    CheckerStats {
        subtype_hits: SUBTYPE_HITS.load(Ordering::Relaxed),
        subtype_misses: SUBTYPE_MISSES.load(Ordering::Relaxed),
        interact_hits: INTERACT_HITS.load(Ordering::Relaxed),
        interact_misses: INTERACT_MISSES.load(Ordering::Relaxed),
        typing_hits: TYPING_HITS.load(Ordering::Relaxed),
        typing_misses: TYPING_MISSES.load(Ordering::Relaxed),
    }
}

/// The memo tables of one checker lineage (shared by clones). Each is
/// sharded by the left id of its key, not the environment: a whole build
/// shares one environment, and sharding on it would serialise every worker.
#[derive(Debug, Default)]
pub(crate) struct DerivationCache {
    subtype: Memo<Key, bool>,
    interact: Memo<Key, bool>,
    typing: Memo<Key, TypeResult<Type>>,
}

impl Checker {
    /// Packs the limit knobs into the key prefix, so a mutated checker can
    /// never replay derivations cached under different limits. Values beyond
    /// the 32-bit packing range saturate instead of wrapping — two huge
    /// limits may share a key (both behave as "effectively unlimited"), but
    /// a huge limit can never alias a small one.
    fn limits_key(&self) -> u64 {
        let clamp = |v: usize| u64::from(u32::try_from(v).unwrap_or(u32::MAX));
        (clamp(self.max_depth) << 32) | clamp(self.max_unfold)
    }

    /// Memoizes a subtyping derivation (see [`Checker::is_subtype`]).
    pub(crate) fn cached_subtype(
        &self,
        env: &TypeEnv,
        t: &Type,
        u: &Type,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let key = (
            self.limits_key(),
            env.intern_key(),
            TyRef::intern(t).id().index(),
            TyRef::intern(u).id().index(),
        );
        self.cache
            .subtype
            .counted(key.2, key, &SUBTYPE_HITS, &SUBTYPE_MISSES, compute)
    }

    /// Memoizes a `▷◁` derivation (see [`Checker::might_interact`]).
    pub(crate) fn cached_interact(
        &self,
        env: &TypeEnv,
        s: &Type,
        t: &Type,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        let key = (
            self.limits_key(),
            env.intern_key(),
            TyRef::intern(s).id().index(),
            TyRef::intern(t).id().index(),
        );
        self.cache
            .interact
            .counted(key.2, key, &INTERACT_HITS, &INTERACT_MISSES, compute)
    }

    /// Memoizes a typing derivation (see [`Checker::type_of`]). The right id
    /// slot is zero: typing keys one term, not a pair.
    pub(crate) fn cached_typing(
        &self,
        env: &TypeEnv,
        t: &TermRef,
        compute: impl FnOnce() -> TypeResult<Type>,
    ) -> TypeResult<Type> {
        let key = (self.limits_key(), env.intern_key(), t.id().index(), 0);
        self.cache
            .typing
            .counted(key.2, key, &TYPING_HITS, &TYPING_MISSES, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_are_part_of_every_key() {
        // `cio[int] ⩽ co[int]` holds under the default limits (the
        // `Checker::is_subtype` doctest), but its payload step recurses past
        // depth 0. A clone with `max_depth = 0` shares the cache, so it must
        // answer like a fresh checker with those limits — never replay the
        // entry cached under the defaults.
        let env = TypeEnv::new();
        let (t, u) = (Type::chan_io(Type::Int), Type::chan_out(Type::Int));
        let checker = Checker::new();
        assert!(checker.is_subtype(&env, &t, &u));
        let mut shallow = checker.clone();
        shallow.max_depth = 0;
        assert!(!Checker::with_limits(0, 16).is_subtype(&env, &t, &u));
        assert!(!shallow.is_subtype(&env, &t, &u));
        assert!(checker.is_subtype(&env, &t, &u));
    }
}
