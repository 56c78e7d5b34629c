//! The parallel-composition rule both transition semantics share: each
//! component moves alone under the context rule, and an output of one
//! component meets a ready input of another — [SR-Comm] for terms (Def. 4.1,
//! Fig. 5), [T→iox]/[T→io] for types (Def. 4.2, Fig. 6). `TermLts` and
//! `TypeLts` pass [`par_successors`] only what differs between the calculi;
//! [`sorted`] is the one order of every successor list they hand out.

use std::sync::Arc;

use lambdapi::intern::Interned;

/// The transitions of the parallel composition of `components`, given each
/// component's own transitions (`succs[i]` for `components[i]`):
///
/// * interleaving — every move `(label, next)` of component `i` yields
///   `label` to `rebuild` of the components with slot `i` overwritten;
/// * synchronisation — for every such move and every other component `j`,
///   `sync(label, j)` may return the τ label and `j`'s continuation, and then
///   slots `i` and `j` are both overwritten.
///
/// The list comes back in derivation order; [`sorted`] fixes the order.
pub(crate) fn par_successors<S: Clone, L: Clone>(
    components: &[S],
    succs: &[Arc<[(L, S)]>],
    sync: impl Fn(&L, usize) -> Option<(L, S)>,
    rebuild: impl Fn(&[S]) -> S,
) -> Vec<(L, S)> {
    let mut out = Vec::new();
    let mut parts = components.to_vec();
    for (i, moves) in succs.iter().enumerate() {
        for (label, next) in moves.iter() {
            parts[i] = next.clone();
            out.push((label.clone(), rebuild(&parts)));
            for j in (0..components.len()).filter(|&j| j != i) {
                if let Some((tau, received)) = sync(label, j) {
                    parts[j] = received;
                    out.push((tau, rebuild(&parts)));
                    parts[j] = components[j].clone();
                }
            }
        }
        parts[i] = components[i].clone();
    }
    out
}

/// A successor list in its one deterministic order: by the **structure** of
/// `(label, target)`, duplicates dropped. Interner ids are
/// allocation-ordered — racy under parallel exploration — and must not
/// decide anything observable, state numbering included.
pub(crate) fn sorted<L: Ord, T: Ord>(mut out: Vec<(L, Interned<T>)>) -> Arc<[(L, Interned<T>)]> {
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| (*a.1).cmp(&*b.1)));
    out.dedup();
    out.into()
}
