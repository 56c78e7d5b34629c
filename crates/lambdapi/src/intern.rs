//! Hash-consed interning of [`Type`]s and [`Term`]s, and the one sharded
//! table every cache of the core is built from.
//!
//! The exploration engine (`lts::explore`) treats every state as a λπ⩽
//! [`Type`] (Fig. 6 pipeline) or an open [`Term`] (Fig. 5 pipeline); before
//! interning existed, every seen-set lookup re-hashed and re-compared whole
//! trees, and every successor re-ran full-tree traversals. This module
//! provides:
//!
//! * [`Interned`] — a handle to a hash-consed tree ([`TyRef`] for types,
//!   [`TermRef`] for terms): structurally deduplicated on construction, so
//!   two structurally equal trees **always** share one [`Id`] ([`TypeId`] /
//!   [`TermId`], two disjoint spaces), and `Eq`/`Hash` are O(1) integer
//!   operations;
//! * memoized [`TyRef::normalized`] / [`TyRef::canonical`] and
//!   [`TermRef::par_components`] / [`TermRef::free_vars`], keyed by id: each
//!   distinct (sub)tree is processed once per process, after which every
//!   call is a hash lookup;
//! * the two sharded tables the interner is made of — and that every other
//!   cache of the core (the checker's derivation cache, the LTS builders'
//!   successor memos, the exploration engine's hash state table) is an
//!   instance of. [`Memo`] maps keys to computed values, its shard picked
//!   from a 32-bit id the caller already holds; [`Arena`] maps values to
//!   dense 32-bit ids and back, the id allocated by the caller under the
//!   shard lock. Both have 64 lock shards, so concurrent exploration workers
//!   never meet on a global lock.
//!
//! ## Determinism
//!
//! [`Id`]s are assigned in first-intern order, which is **racy** under
//! concurrent exploration — two runs of the same workload may assign
//! different ids to the same tree. Nothing user-visible may therefore depend
//! on id *values* or id *order*:
//!
//! * `Eq`/`Hash` are sound (equal structure ⇔ equal id, per process);
//! * [`Interned`] deliberately does **not** implement `Ord`, and its `Debug`
//!   delegates to the underlying tree, so sorting by either stays
//!   structural. Consumers that need an order must compare
//!   [`TyRef::as_type`] / [`TermRef::as_term`] (see `TypeLts::successors`).
//!
//! The memo tables are keyed by id but their *values* are pure functions of
//! the tree's structure, so memoisation can never leak allocation order into
//! a result.
//!
//! ## Memory
//!
//! The interner is append-only and process-wide: it retains every distinct
//! tree ever interned (a long-running `effpi-serve` daemon can watch its
//! growth through [`stats`], which the daemon's `stats` request exposes).
//! Each [`Arena`] keeps an id-indexed reverse slab next to its structural
//! map ([`Interned::from_id`]), which is what lets id-keyed consumers — the
//! exploration engine's bitmap seen-sets and disk-spilled frontiers — store
//! bare 32-bit indices instead of references and rehydrate them on demand.
//! Per-run arenas that can be dropped with their request are a known
//! follow-up (see ROADMAP).

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::name::Name;
use crate::term::Term;
use crate::ty::Type;

/// Lock shards per table: comfortably above any plausible worker count, so
/// concurrent callers rarely collide on a lock.
const SHARDS: usize = 64;

/// Panic-free lock: a panicking worker already aborts its run, and every
/// table here is append-only, never left half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// The two tables
// ---------------------------------------------------------------------------

/// A sharded memo table `K → V` for values that are pure functions of their
/// key.
///
/// The shard is picked from a 32-bit id the caller already holds (an
/// interned id), never from a second hash of the key. Values are computed
/// *outside* the lock — a computation may recurse into the same table — so
/// racing callers may each compute, and the first to insert wins: every
/// caller gets the stored value.
pub struct Memo<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

impl<K, V> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo").finish_non_exhaustive()
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value stored under `key` in `shard`'s shard, computing and
    /// inserting it on a miss.
    pub fn get_or_insert_with(&self, shard: u32, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = &self.shards[shard as usize % SHARDS];
        if let Some(hit) = lock(shard).get(&key) {
            return hit.clone();
        }
        let value = compute();
        lock(shard).entry(key).or_insert(value).clone()
    }

    /// [`Memo::get_or_insert_with`], counting the call in `hits` or `misses`.
    pub fn counted(
        &self,
        shard: u32,
        key: K,
        hits: &AtomicU64,
        misses: &AtomicU64,
        compute: impl FnOnce() -> V,
    ) -> V {
        let mut counter = hits;
        let value = self.get_or_insert_with(shard, key, || {
            counter = misses;
            compute()
        });
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Records `value` under `key` unless an entry is already there.
    pub(crate) fn insert(&self, shard: u32, key: K, value: V) {
        lock(&self.shards[shard as usize % SHARDS])
            .entry(key)
            .or_insert(value);
    }
}

/// A sharded, append-only bijection between values and dense 32-bit ids.
///
/// The structural map `value → id` is sharded by the value's hash; the
/// reverse slab `id → value` is striped by the id's low bits
/// (`stripe = id % 64`, `slot = id / 64`). Ids are not drawn here: on a miss
/// [`Arena::register`] asks the caller, under the shard lock, so a caller can
/// refuse (a state bound) and ids stay dense in the caller's own counter.
pub struct Arena<T> {
    hasher: RandomState,
    shards: Vec<Mutex<HashMap<T, u32>>>,
    slabs: Vec<Mutex<Vec<Option<T>>>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            hasher: RandomState::new(),
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            slabs: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

impl<T: Eq + Hash + Clone> Arena<T> {
    /// Looks `value` up, registering it when absent, and hands the *stored*
    /// value and its id to `found` under the shard lock. Returns `found`'s
    /// answer and whether this call registered the value.
    ///
    /// `alloc` is called at most once, only for an absent value, under the
    /// lock that makes lookup-then-insert atomic: it returns the new entry's
    /// id and the value to store, or `None` to refuse — then nothing is
    /// registered and `register` returns `None`.
    pub fn register<Q, R>(
        &self,
        value: &Q,
        alloc: impl FnOnce() -> Option<(u32, T)>,
        found: impl FnOnce(&T, u32) -> R,
    ) -> Option<(R, bool)>
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut shard = lock(&self.shards[self.hasher.hash_one(value) as usize % SHARDS]);
        if let Some((stored, &id)) = shard.get_key_value(value) {
            return Some((found(stored, id), false));
        }
        let (id, stored) = alloc()?;
        let answer = found(&stored, id);
        let mut slab = lock(&self.slabs[id as usize % SHARDS]);
        // Ids of one stripe arrive roughly in order; the `None` padding
        // covers ids still being registered by racing threads.
        let slot = id as usize / SHARDS;
        if slab.len() <= slot {
            slab.resize_with(slot + 1, || None);
        }
        slab[slot] = Some(stored.clone());
        drop(slab);
        shard.insert(stored, id);
        Some((answer, true))
    }

    /// The value registered under `id`, in O(1) (one stripe lock plus an
    /// indexed load); `None` for an id never registered.
    pub fn resolve(&self, id: u32) -> Option<T> {
        lock(&self.slabs[id as usize % SHARDS])
            .get(id as usize / SHARDS)?
            .clone()
    }
}

// ---------------------------------------------------------------------------
// Ids and handles
// ---------------------------------------------------------------------------

/// The identity of an interned tree: a dense 32-bit index. [`TypeId`] and
/// [`TermId`] are two disjoint spaces.
///
/// Two ids are equal **iff** the trees they name are structurally equal
/// (within one process). The numeric value is an allocation-order artifact —
/// never persist it, never order by it where determinism matters.
#[derive(PartialEq, Eq, Hash)]
pub struct Id<T>(u32, PhantomData<fn() -> T>);

/// The identity of an interned [`Type`].
pub type TypeId = Id<Type>;

/// The identity of an interned [`Term`].
pub type TermId = Id<Term>;

impl<T> Id<T> {
    /// The raw index (for diagnostics and for sharding id-keyed side tables).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Reassembles an id from its raw index (the inverse of [`Id::index`],
    /// for id-keyed side tables that store raw `u32`s — e.g. the exploration
    /// engine's spill files). The id is only meaningful within the process
    /// that produced the index; resolving one that was never allocated
    /// yields `None` from [`Interned::from_id`].
    pub fn from_index(index: u32) -> Self {
        Id(index, PhantomData)
    }
}

impl<T> Clone for Id<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Id<T> {}

impl<T> fmt::Debug for Id<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({})", self.0)
    }
}

/// The trees the interner hash-conses: [`Type`] and [`Term`] (sealed).
pub trait Internable:
    sealed::Sealed + Clone + Eq + Hash + fmt::Debug + fmt::Display + 'static
{
}

impl Internable for Type {}
impl Internable for Term {}

mod sealed {
    use super::*;

    pub trait Sealed: Sized {
        /// This tree kind's arena and id counter in the process interner.
        fn table() -> (&'static Arena<Arc<Self>>, &'static AtomicU64);
    }

    impl Sealed for Type {
        fn table() -> (&'static Arena<Arc<Type>>, &'static AtomicU64) {
            (&interner().types, &interner().type_count)
        }
    }

    impl Sealed for Term {
        fn table() -> (&'static Arena<Arc<Term>>, &'static AtomicU64) {
            (&interner().terms, &interner().term_count)
        }
    }
}

/// A handle to an interned tree: cheap to clone, O(1) `Eq`/`Hash` (by
/// [`Id`]), dereferences to the underlying tree. [`TyRef`] and [`TermRef`]
/// are its two instances — the state representations of the type LTS
/// (Def. 4.2, Fig. 6) and the open-term LTS (Def. 4.1, Fig. 5).
///
/// Obtain one with [`Interned::intern`] (borrowed input) or
/// [`Interned::new`] (owned input, avoids one clone on first intern).
#[derive(Clone)]
pub struct Interned<T> {
    id: Id<T>,
    value: Arc<T>,
}

/// A handle to an interned [`Type`].
pub type TyRef = Interned<Type>;

/// A handle to an interned [`Term`].
pub type TermRef = Interned<Term>;

impl<T: Internable> Interned<T> {
    /// Interns a borrowed tree, cloning it only if it was never seen before.
    pub fn intern(value: &T) -> Self {
        Self::register(value, || Arc::new(value.clone()))
    }

    /// Interns an owned tree (no clone on first intern).
    pub fn new(value: T) -> Self {
        Self::from_arc(Arc::new(value))
    }

    /// Interns a tree already behind an [`Arc`], sharing the allocation.
    pub fn from_arc(value: Arc<T>) -> Self {
        Self::register(&value, || Arc::clone(&value))
    }

    /// Looks `value` up; on a miss, registers the `Arc` that `owned` makes.
    fn register(value: &T, owned: impl FnOnce() -> Arc<T>) -> Self {
        let (arena, count) = T::table();
        let alloc = || {
            // The counter is 64-bit so it can never wrap in practice; the
            // assert turns id-space exhaustion into a loud abort instead of
            // silently reassigning a live 32-bit id (which would alias
            // structurally distinct trees and corrupt every id-keyed table
            // downstream).
            let raw = count.fetch_add(1, Ordering::Relaxed);
            assert!(
                raw < u64::from(u32::MAX),
                "interner exhausted its 32-bit id space"
            );
            Some((raw as u32, owned()))
        };
        let found = |arc: &Arc<T>, id| Interned {
            id: Id::from_index(id),
            value: Arc::clone(arc),
        };
        arena
            .register(value, alloc, found)
            .expect("ids are never refused")
            .0
    }

    /// The interned tree's identity.
    pub fn id(&self) -> Id<T> {
        self.id
    }

    /// The underlying shared allocation (lets callers build parent nodes
    /// without re-cloning the subtree).
    pub fn as_arc(&self) -> &Arc<T> {
        &self.value
    }

    /// Resolves an id back to its interned tree — the inverse of
    /// [`Interned::id`], in O(1) (see [`Arena::resolve`]).
    ///
    /// This is what lets id-keyed structures shed the reference itself: the
    /// exploration engine's disk-spilled frontiers persist bare `u32` indices
    /// and rehydrate them through this table when the segment streams back
    /// in. Returns `None` for an id this process never allocated.
    pub fn from_id(id: Id<T>) -> Option<Self> {
        T::table()
            .0
            .resolve(id.0)
            .map(|value| Interned { id, value })
    }
}

impl<T> PartialEq for Interned<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id.0 == other.id.0
    }
}

impl<T> Eq for Interned<T> {}

/// Structural comparison against a plain tree (used heavily in tests).
impl<T: PartialEq> PartialEq<T> for Interned<T> {
    fn eq(&self, other: &T) -> bool {
        *self.value == *other
    }
}

impl<T> Hash for Interned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.0.hash(state);
    }
}

impl<T> Deref for Interned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: fmt::Display> fmt::Display for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

/// Structural, id-free `Debug`: interned states must print (and sort, when a
/// caller sorts by debug text) exactly like the plain trees they stand for.
impl<T: fmt::Debug> fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

impl Interned<Type> {
    /// The underlying type.
    pub fn as_type(&self) -> &Type {
        &self.value
    }

    /// The normalised form of this type (see [`Type::normalize`]), memoized:
    /// the first call per distinct type computes, every later call — from any
    /// thread — is a hash lookup. Subtrees are normalised through the same
    /// memo, so shared components of parallel compositions are normalised
    /// once, not once per enclosing state.
    pub fn normalized(&self) -> TyRef {
        let i = interner();
        let (hits, misses) = (&i.normalize_hits, &i.normalize_misses);
        i.normalized.counted(self.id.0, self.id, hits, misses, || {
            let normal = self.compute_normalized();
            // The normal form is its own normal form (normalisation is
            // idempotent — pinned by `ty.rs` tests): record it so future
            // normalisations of already-normal states are O(1) without a walk.
            if normal.id != self.id {
                i.normalized.insert(normal.id.0, normal.id, normal.clone());
            }
            normal
        })
    }

    /// `true` when this type is already in normal form (which the interner
    /// knows after the first normalisation without re-walking the tree).
    pub fn is_normal(&self) -> bool {
        self.normalized().id == self.id
    }

    /// One level of [`Type::normalize`], recursing through the memo. The
    /// result is structurally identical to `self.as_type().normalize()` (the
    /// property suite asserts this over generated types).
    fn compute_normalized(&self) -> TyRef {
        let child = |arc: &Arc<Type>| TyRef::from_arc(Arc::clone(arc)).normalized();
        match self.as_type() {
            Type::Union(..) => {
                let mut members: Vec<Type> = self
                    .union_members()
                    .iter()
                    .flat_map(|m| TyRef::intern(m).normalized().as_type().union_members())
                    .collect();
                members.sort();
                members.dedup();
                TyRef::new(Type::union_all(members))
            }
            Type::Par(..) => {
                let mut members: Vec<Type> = self
                    .par_members()
                    .iter()
                    .flat_map(|m| TyRef::intern(m).normalized().as_type().par_members())
                    .collect();
                members.retain(|m| !matches!(m, Type::Nil));
                members.sort();
                TyRef::new(Type::par_all(members))
            }
            Type::Pi(x, dom, body) => TyRef::new(Type::Pi(
                x.clone(),
                Arc::clone(child(dom).as_arc()),
                Arc::clone(child(body).as_arc()),
            )),
            Type::Rec(x, body) => {
                TyRef::new(Type::Rec(x.clone(), Arc::clone(child(body).as_arc())))
            }
            Type::ChanIO(inner) => TyRef::new(Type::ChanIO(Arc::clone(child(inner).as_arc()))),
            Type::ChanIn(inner) => TyRef::new(Type::ChanIn(Arc::clone(child(inner).as_arc()))),
            Type::ChanOut(inner) => TyRef::new(Type::ChanOut(Arc::clone(child(inner).as_arc()))),
            Type::Out(a, b, c) => TyRef::new(Type::Out(
                Arc::clone(child(a).as_arc()),
                Arc::clone(child(b).as_arc()),
                Arc::clone(child(c).as_arc()),
            )),
            Type::In(a, b) => TyRef::new(Type::In(
                Arc::clone(child(a).as_arc()),
                Arc::clone(child(b).as_arc()),
            )),
            _ => self.clone(),
        }
    }

    /// The canonical LTS-state form: [`Type::normalize`] followed by
    /// [`Type::unfold_head`] with the given unfold budget. Memoized per
    /// `(type, max_unfold)`; types that are already canonical hit the memo
    /// without any tree walk.
    pub fn canonical(&self, max_unfold: usize) -> TyRef {
        let i = interner();
        let (hits, misses) = (&i.canonical_hits, &i.canonical_misses);
        let key = (self.id, max_unfold as u64);
        i.canonical.counted(self.id.0, key, hits, misses, || {
            let normal = self.normalized();
            if matches!(normal.as_type(), Type::Rec(..)) {
                // An *unfolded* result is not recorded as its own canonical
                // form: `unfold_head` substitutes into sorted unions/pars and
                // can leave them unsorted, so its output is not necessarily
                // normal and has to go through a real normalisation when
                // first canonicalised in its own right.
                return TyRef::new(normal.as_type().unfold_head(max_unfold));
            }
            // With nothing to unfold the canonical form is a *normal* form
            // and hence a fixpoint: record it as its own canonical form so
            // re-canonicalising already-canonical states is an O(1) hit.
            if normal.id != self.id {
                let back_key = (normal.id, max_unfold as u64);
                i.canonical.insert(normal.id.0, back_key, normal.clone());
            }
            normal
        })
    }
}

impl Interned<Term> {
    /// The underlying term.
    pub fn as_term(&self) -> &Term {
        &self.value
    }

    /// The ≡-flattened parallel components of the term (see
    /// [`crate::par_components`]), memoized per [`TermId`]: a `||` state is
    /// flattened once per process, after which every expansion is a hash
    /// lookup. The component multiset is exactly what the plain function
    /// returns (the property suite pins this), reproduced member-by-member
    /// so every distinct `||` subtree lands in the memo too.
    pub fn par_components(&self) -> Arc<[TermRef]> {
        let i = interner();
        let (hits, misses) = (&i.par_hits, &i.par_misses);
        i.par_components
            .counted(self.id.0, self.id, hits, misses, || match self.as_term() {
                Term::Par(a, b) => {
                    let left = TermRef::from_arc(Arc::clone(a)).par_components();
                    let right = TermRef::from_arc(Arc::clone(b)).par_components();
                    let non_end: Vec<TermRef> = left
                        .iter()
                        .chain(right.iter())
                        .filter(|c| !matches!(c.as_term(), Term::End))
                        .cloned()
                        .collect();
                    if non_end.is_empty() {
                        [TermRef::new(Term::End)].into()
                    } else {
                        non_end.into()
                    }
                }
                _ => [self.clone()].into(),
            })
    }

    /// The free term variables `fv(t)` (Def. 2.1), memoized per [`TermId`].
    pub fn free_vars(&self) -> Arc<BTreeSet<Name>> {
        let i = interner();
        let (hits, misses) = (&i.fv_hits, &i.fv_misses);
        i.free_vars.counted(self.id.0, self.id, hits, misses, || {
            Arc::new(self.as_term().free_vars())
        })
    }

    /// Rebuilds a parallel composition from components (inverse of
    /// [`TermRef::par_components`], up to ≡ — `end` components are dropped).
    pub fn rebuild_par(components: &[TermRef]) -> TermRef {
        let non_end: Vec<&TermRef> = components
            .iter()
            .filter(|c| !matches!(c.as_term(), Term::End))
            .collect();
        match non_end.as_slice() {
            [] => TermRef::new(Term::End),
            [only] => (*only).clone(),
            many => TermRef::new(Term::par_all(many.iter().map(|c| c.as_term().clone()))),
        }
    }
}

/// A point-in-time snapshot of the interner (see [`stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InternStats {
    /// Distinct types interned since process start.
    pub types: usize,
    /// Memoized-normalisation lookups that hit.
    pub normalize_hits: u64,
    /// Normalisations actually computed (memo misses).
    pub normalize_misses: u64,
    /// Memoized-canonicalisation lookups that hit.
    pub canonical_hits: u64,
    /// Canonical forms actually computed (memo misses).
    pub canonical_misses: u64,
    /// Distinct terms interned since process start.
    pub terms: usize,
    /// Memoized par-component lookups that hit.
    pub par_hits: u64,
    /// Par-component flattenings actually computed (memo misses).
    pub par_misses: u64,
    /// Memoized free-variable lookups that hit.
    pub fv_hits: u64,
    /// Free-variable sets actually computed (memo misses).
    pub fv_misses: u64,
}

/// A snapshot of the process-wide interner counters — the cost-accounting
/// hook for long-running services.
pub fn stats() -> InternStats {
    let i = interner();
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    InternStats {
        types: load(&i.type_count) as usize,
        normalize_hits: load(&i.normalize_hits),
        normalize_misses: load(&i.normalize_misses),
        canonical_hits: load(&i.canonical_hits),
        canonical_misses: load(&i.canonical_misses),
        terms: load(&i.term_count) as usize,
        par_hits: load(&i.par_hits),
        par_misses: load(&i.par_misses),
        fv_hits: load(&i.fv_hits),
        fv_misses: load(&i.fv_misses),
    }
}

/// The process interner: one [`Arena`] per tree kind (each with the id
/// counter its allocations draw from) and the four id-keyed memos.
#[derive(Default)]
struct Interner {
    types: Arena<Arc<Type>>,
    type_count: AtomicU64,
    terms: Arena<Arc<Term>>,
    term_count: AtomicU64,
    normalized: Memo<TypeId, TyRef>,
    /// Keyed by `(type, max_unfold)`.
    canonical: Memo<(TypeId, u64), TyRef>,
    par_components: Memo<TermId, Arc<[TermRef]>>,
    free_vars: Memo<TermId, Arc<BTreeSet<Name>>>,
    normalize_hits: AtomicU64,
    normalize_misses: AtomicU64,
    canonical_hits: AtomicU64,
    canonical_misses: AtomicU64,
    par_hits: AtomicU64,
    par_misses: AtomicU64,
    fv_hits: AtomicU64,
    fv_misses: AtomicU64,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(Interner::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;

    fn payment_like() -> Type {
        Type::rec(
            "t",
            Type::inp(
                Type::var("self"),
                Type::pi(
                    "pay",
                    Type::Int,
                    Type::union(
                        Type::out(
                            Type::var("client"),
                            Type::Str,
                            Type::thunk(Type::rec_var("t")),
                        ),
                        Type::out(
                            Type::var("aud"),
                            Type::var("pay"),
                            Type::thunk(Type::rec_var("t")),
                        ),
                    ),
                ),
            ),
        )
    }

    #[test]
    fn structurally_equal_types_share_one_id() {
        let a = TyRef::intern(&payment_like());
        let b = TyRef::new(payment_like());
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        let c = TyRef::intern(&Type::par(Type::Nil, payment_like()));
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn hash_and_eq_are_by_id_but_match_structure() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TyRef::intern(&Type::Int));
        set.insert(TyRef::new(Type::Int));
        set.insert(TyRef::intern(&Type::Bool));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn normalized_matches_plain_normalize() {
        let samples = [
            payment_like(),
            Type::par(Type::Nil, Type::par(Type::var("b"), Type::var("a"))),
            Type::union(Type::Bool, Type::union(Type::Int, Type::Bool)),
            Type::par(
                Type::union(Type::var("y"), Type::var("x")),
                Type::par(Type::Nil, Type::Nil),
            ),
            Type::pi(
                "x",
                Type::union(Type::Str, Type::Int),
                Type::par(Type::Nil, Type::var("x")),
            ),
        ];
        for ty in samples {
            let plain = ty.normalize();
            let interned = TyRef::intern(&ty).normalized();
            assert_eq!(*interned.as_type(), plain, "{ty}");
            // Idempotence through the memo.
            assert_eq!(interned.normalized(), interned);
            assert!(interned.is_normal());
        }
    }

    #[test]
    fn canonical_matches_normalize_then_unfold_head() {
        let ty = payment_like();
        let plain = ty.normalize().unfold_head(16);
        let interned = TyRef::intern(&ty).canonical(16);
        assert_eq!(*interned.as_type(), plain);
        // The canonical form of a canonical form is itself.
        assert_eq!(interned.canonical(16), interned);
        // Distinct unfold budgets are distinct memo keys, same result here
        // (one head unfold suffices for this type).
        assert_eq!(*TyRef::intern(&ty).canonical(8).as_type(), plain);
    }

    #[test]
    fn canonical_never_pins_a_non_normal_unfolding_as_its_own_fixpoint() {
        // µt.p[x, t] unfolds to p[x, µt.p[x, t]], which is NOT sorted
        // (Rec orders before Var): canonicalising the recursive type first
        // must not poison the memo entry of its (non-normal) unfolding.
        let rec = Type::rec("t", Type::par(Type::var("x"), Type::rec_var("t")));
        for max_unfold in [1, 4, 16] {
            assert_eq!(
                *TyRef::intern(&rec).canonical(max_unfold).as_type(),
                rec.normalize().unfold_head(max_unfold),
                "max_unfold {max_unfold}"
            );
            let unfolded = rec.unfold();
            assert_eq!(
                *TyRef::intern(&unfolded).canonical(max_unfold).as_type(),
                unfolded.normalize().unfold_head(max_unfold),
                "max_unfold {max_unfold}: the unfolded spelling must go \
                 through a real normalisation"
            );
        }
    }

    #[test]
    fn display_and_debug_are_structural() {
        let ty = Type::out(Type::var("x"), Type::Int, Type::thunk(Type::Nil));
        let r = TyRef::intern(&ty);
        assert_eq!(r.to_string(), ty.to_string());
        assert_eq!(format!("{r:?}"), format!("{ty:?}"));
    }

    #[test]
    fn tyref_compares_against_plain_types() {
        let r = TyRef::intern(&Type::Nil);
        assert_eq!(r, Type::Nil);
        assert!(r != Type::Proc);
    }

    #[test]
    fn interning_is_thread_safe_and_consistent() {
        let ids: Vec<TypeId> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last = None;
                        for _ in 0..200 {
                            let r = TyRef::new(payment_like());
                            let n = r.normalized();
                            assert_eq!(*n.as_type(), payment_like().normalize());
                            last = Some(r.id());
                        }
                        last.unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn structurally_equal_terms_share_one_id() {
        use crate::term::Term;
        let mk = || {
            Term::par(
                Term::send(Term::var("x"), Term::int(1), Term::thunk(Term::End)),
                Term::recv(Term::var("x"), Term::lam("v", Type::Int, Term::End)),
            )
        };
        let a = TermRef::intern(&mk());
        let b = TermRef::new(mk());
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        let c = TermRef::intern(&Term::par(mk(), Term::End));
        assert_ne!(a.id(), c.id());
        assert_eq!(a, mk());
    }

    #[test]
    fn term_par_components_match_the_plain_flattening() {
        use crate::reduce::par_components;
        use crate::term::Term;
        let samples = [
            Term::End,
            Term::var("x"),
            Term::par(Term::End, Term::End),
            Term::par(
                Term::End,
                Term::par(
                    Term::send(Term::var("x"), Term::int(1), Term::thunk(Term::End)),
                    Term::End,
                ),
            ),
            Term::par(
                Term::par(Term::var("a"), Term::var("b")),
                Term::par(Term::var("c"), Term::End),
            ),
        ];
        for t in samples {
            let interned: Vec<Term> = TermRef::intern(&t)
                .par_components()
                .iter()
                .map(|c| c.as_term().clone())
                .collect();
            assert_eq!(interned, par_components(&t), "{t}");
            // The memoized call is stable.
            assert_eq!(
                TermRef::intern(&t).par_components(),
                TermRef::intern(&t).par_components()
            );
        }
    }

    #[test]
    fn term_free_vars_match_the_plain_query() {
        use crate::term::Term;
        let t = Term::send(
            Term::var("c"),
            Term::var("x"),
            Term::thunk(Term::app(Term::var("f"), Term::unit())),
        );
        let interned = TermRef::intern(&t);
        assert_eq!(*interned.free_vars(), t.free_vars());
        // Second call is a memo hit returning the same allocation.
        assert!(Arc::ptr_eq(&interned.free_vars(), &interned.free_vars()));
    }

    #[test]
    fn rebuild_par_refs_apply_the_congruence() {
        use crate::term::Term;
        let x = TermRef::intern(&Term::var("x"));
        let end = TermRef::intern(&Term::End);
        assert_eq!(TermRef::rebuild_par(&[]), Term::End);
        assert_eq!(TermRef::rebuild_par(std::slice::from_ref(&end)), Term::End);
        assert_eq!(TermRef::rebuild_par(&[x.clone(), end]), Term::var("x"));
        let rebuilt = TermRef::rebuild_par(&[x.clone(), x.clone()]);
        assert_eq!(rebuilt, Term::par(Term::var("x"), Term::var("x")));
    }

    #[test]
    fn ids_resolve_back_to_their_interned_trees() {
        let ty = TyRef::intern(&payment_like());
        let resolved = TyRef::from_id(ty.id()).expect("allocated type id resolves");
        assert_eq!(resolved.id(), ty.id());
        assert_eq!(resolved.as_type(), ty.as_type());
        assert_eq!(TypeId::from_index(ty.id().index()), ty.id());

        let term = TermRef::intern(&Term::par(
            Term::var("from_id_probe"),
            Term::var("from_id_probe2"),
        ));
        let resolved = TermRef::from_id(term.id()).expect("allocated term id resolves");
        assert_eq!(resolved.id(), term.id());
        assert_eq!(resolved.as_term(), term.as_term());
        assert_eq!(TermId::from_index(term.id().index()), term.id());

        // An id this process never allocated resolves to nothing.
        assert!(TyRef::from_id(TypeId::from_index(u32::MAX - 1)).is_none());
        assert!(TermRef::from_id(TermId::from_index(u32::MAX - 1)).is_none());
    }

    #[test]
    fn stats_move_forward() {
        let before = stats();
        let unique = Type::out(Type::var("stats_probe"), Type::Int, Type::thunk(Type::Nil));
        let r = TyRef::intern(&unique);
        let _ = r.normalized();
        let _ = r.normalized();
        let after = stats();
        assert!(after.types > 0);
        assert!(
            after.normalize_hits + after.normalize_misses
                > before.normalize_hits + before.normalize_misses
        );
        let term = Term::par(
            Term::var("stats_probe_term"),
            Term::var("stats_probe_term2"),
        );
        let r = TermRef::intern(&term);
        let _ = r.par_components();
        let _ = r.free_vars();
        let after = stats();
        assert!(after.terms > 0);
        assert!(after.par_hits + after.par_misses > 0);
        assert!(after.fv_hits + after.fv_misses > 0);
        let _ = Name::new("keep-name-import");
    }

    #[test]
    fn racing_memo_callers_all_get_the_stored_value() {
        let memo: Memo<u32, Arc<String>> = Memo::default();
        // Every caller waits inside its computation until all eight are
        // computing: nothing can be stored before all eight have missed, so
        // the computation provably runs eight times.
        let all_missed = std::sync::Barrier::new(8);
        let values: Vec<Arc<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        memo.get_or_insert_with(7, 7, || {
                            all_missed.wait();
                            Arc::new("computed".to_string())
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The first insert wins, and every caller — later ones too — gets
        // that one allocation.
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        let later = memo.get_or_insert_with(7, 7, || unreachable!("the key is stored"));
        assert!(Arc::ptr_eq(&later, &values[0]));
    }

    #[test]
    fn a_panicking_computation_leaves_the_memo_usable() {
        let memo: Memo<u32, u32> = Memo::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_insert_with(3, 3, || panic!("compute failed"))
        }));
        assert!(panicked.is_err());
        assert_eq!(memo.get_or_insert_with(3, 3, || 42), 42);
        assert_eq!(
            memo.get_or_insert_with(3, 3, || 0),
            42,
            "the retry was stored"
        );
    }

    #[test]
    fn arena_registers_overlapping_values_once_with_dense_ids() {
        let arena: Arena<u64> = Arena::default();
        let next = AtomicU64::new(0);
        let start = std::sync::Barrier::new(8);
        // Eight threads over overlapping ranges: each value of 0..1100 is
        // registered concurrently by up to four threads.
        let fresh: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let (arena, next, start) = (&arena, &next, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut fresh = Vec::new();
                        for v in t * 100..t * 100 + 400 {
                            let alloc = || Some((next.fetch_add(1, Ordering::Relaxed) as u32, v));
                            let (id, is_fresh) = arena
                                .register(&v, alloc, |stored, id| {
                                    assert_eq!(*stored, v);
                                    id
                                })
                                .unwrap();
                            if is_fresh {
                                fresh.push(v);
                            }
                            assert_eq!(arena.resolve(id), Some(v));
                        }
                        fresh
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut fresh = fresh;
        fresh.sort_unstable();
        let distinct: Vec<u64> = (0..1100).collect();
        assert_eq!(fresh, distinct, "`fresh` exactly once per distinct value");
        let n = next.load(Ordering::Relaxed) as u32;
        assert_eq!(n, 1100, "one allocation per distinct value");
        let mut resolved: Vec<u64> = (0..n)
            .map(|id| arena.resolve(id).expect("ids are dense"))
            .collect();
        resolved.sort_unstable();
        assert_eq!(resolved, distinct);
        assert_eq!(arena.resolve(n), None);
        assert_eq!(arena.resolve(u32::MAX - 1), None);
    }

    #[test]
    fn a_refusing_allocator_registers_nothing_and_sees_no_present_value() {
        let arena: Arena<String> = Arena::default();
        assert_eq!(arena.register("a", || None, |_, id| id), None);
        assert_eq!(arena.resolve(0), None);
        let alloc = || Some((0, "a".to_string()));
        assert_eq!(arena.register("a", alloc, |_, id| id), Some((0, true)));
        let refuse = || unreachable!("the allocator is never called for a present value");
        assert_eq!(arena.register("a", refuse, |_, id| id), Some((0, false)));
        assert_eq!(arena.resolve(0).as_deref(), Some("a"));
    }
}
