//! A generic explicit-state labelled transition system (LTS), built by
//! exhaustive exploration from an initial state.
//!
//! Both the type semantics (Def. 4.2) and the open-term semantics (Def. 4.1)
//! produce an [`Lts`]; the µ-calculus property checkers in the `mucalc` crate
//! operate on this representation.

use std::collections::VecDeque;
use std::hash::Hash;

/// An explicit-state labelled transition system with states of type `S` and
/// labels of type `L`.
///
/// The state space is produced by the exploration engine of
/// [`mod@crate::explore`], bounded by a maximum number of states (mirroring
/// the paper's note in Fig. 9 that some LTSs are "too big to fit in memory").
#[derive(Clone, Debug)]
pub struct Lts<S, L> {
    states: Vec<S>,
    transitions: Vec<Vec<(L, usize)>>,
    initial: usize,
    truncated: bool,
}

impl<S, L> Lts<S, L>
where
    S: Clone + Eq + Hash,
    L: Clone,
{
    /// Explores the LTS reachable from `initial` using the successor function
    /// `succ`, visiting at most `max_states` states: a plain single-threaded
    /// BFS that shares no code with [`mod@crate::explore`], kept as the
    /// independent oracle this crate's unit tests compare the engine against.
    ///
    /// If the bound is reached, exploration stops and [`Lts::is_truncated`]
    /// returns `true`; transitions out of unexplored frontier states are
    /// dropped (states already discovered keep their index).
    #[cfg(test)]
    pub(crate) fn build<F>(initial: S, mut succ: F, max_states: usize) -> Self
    where
        F: FnMut(&S) -> Vec<(L, S)>,
    {
        use std::collections::HashMap;

        let mut states: Vec<S> = Vec::new();
        let mut index: HashMap<S, usize> = HashMap::new();
        let mut transitions: Vec<Vec<(L, usize)>> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut truncated = false;

        states.push(initial.clone());
        index.insert(initial, 0);
        transitions.push(Vec::new());
        queue.push_back(0);

        let mut explored = 0usize;
        while let Some(i) = queue.pop_front() {
            if explored >= max_states {
                truncated = true;
                break;
            }
            explored += 1;
            let state = states[i].clone();
            let mut out = Vec::new();
            for (label, next) in succ(&state) {
                let j = match index.get(&next) {
                    Some(&j) => j,
                    None => {
                        if states.len() >= max_states {
                            truncated = true;
                            continue;
                        }
                        let j = states.len();
                        states.push(next.clone());
                        index.insert(next, j);
                        transitions.push(Vec::new());
                        queue.push_back(j);
                        j
                    }
                };
                out.push((label, j));
            }
            transitions[i] = out;
        }

        Lts {
            states,
            transitions,
            initial: 0,
            truncated,
        }
    }

    /// Assembles an LTS from pre-built tables (used by the exploration
    /// engine in [`mod@crate::explore`], in canonical numbering).
    /// State `0` is the initial state; `transitions[i]` are the outgoing
    /// edges of state `i`.
    pub(crate) fn from_parts(
        states: Vec<S>,
        transitions: Vec<Vec<(L, usize)>>,
        truncated: bool,
    ) -> Self {
        debug_assert_eq!(states.len(), transitions.len());
        Lts {
            states,
            transitions,
            initial: 0,
            truncated,
        }
    }

    /// The number of discovered states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// The index of the initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The state with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// All states, indexed by their id.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The outgoing transitions of state `i`.
    pub fn transitions_from(&self, i: usize) -> &[(L, usize)] {
        &self.transitions[i]
    }

    /// Iterates over all transitions as `(source, label, target)` triples.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, &L, usize)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |(l, j)| (i, l, *j)))
    }

    /// All labels appearing on some transition (with duplicates).
    pub fn labels(&self) -> impl Iterator<Item = &L> + '_ {
        self.transitions
            .iter()
            .flat_map(|outs| outs.iter().map(|(l, _)| l))
    }

    /// `true` if exploration hit the state bound (the LTS is a prefix of the
    /// real one).
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Indices of states with no outgoing transitions.
    pub fn terminal_states(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| self.transitions[i].is_empty())
            .collect()
    }

    /// Returns a copy of the LTS that keeps only the transitions satisfying
    /// `keep` (states are preserved; this is used to implement the
    /// `↑Γ Y`-limiting operator of Def. 4.9).
    pub fn filter_edges<F>(&self, mut keep: F) -> Self
    where
        F: FnMut(usize, &L, usize) -> bool,
    {
        let transitions = self
            .transitions
            .iter()
            .enumerate()
            .map(|(i, outs)| {
                outs.iter()
                    .filter(|(l, j)| keep(i, l, *j))
                    .cloned()
                    .collect()
            })
            .collect();
        Lts {
            states: self.states.clone(),
            transitions,
            initial: self.initial,
            truncated: self.truncated,
        }
    }

    /// A shortest path (by edge count, BFS) from the initial state to
    /// `target`, as replayable `(source, label, target)` steps. Returns
    /// `Some(vec![])` when `target` *is* the initial state, and `None` when
    /// it is out of range or unreachable (possible after
    /// [`Lts::filter_edges`]).
    ///
    /// This is what turns a violating state found by a property checker into
    /// a minimal witness trace: the path is computed on the *same* (possibly
    /// edge-restricted) LTS the violation was decided on, so every step is a
    /// transition that restriction kept.
    pub fn path_to(&self, target: usize) -> Option<Vec<(usize, L, usize)>> {
        if target >= self.states.len() {
            return None;
        }
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; self.states.len()];
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::new();
        seen[self.initial] = true;
        queue.push_back(self.initial);
        while let Some(i) = queue.pop_front() {
            if i == target {
                break;
            }
            for (edge, (_, j)) in self.transitions[i].iter().enumerate() {
                if !seen[*j] {
                    seen[*j] = true;
                    parent[*j] = Some((i, edge));
                    queue.push_back(*j);
                }
            }
        }
        if !seen[target] {
            return None;
        }
        let mut steps = Vec::new();
        let mut cur = target;
        while let Some((from, edge)) = parent[cur] {
            let (label, to) = &self.transitions[from][edge];
            steps.push((from, label.clone(), *to));
            cur = from;
        }
        steps.reverse();
        Some(steps)
    }

    /// The set of states reachable from the initial state (always all of them
    /// in a freshly explored LTS, but possibly fewer after
    /// [`Lts::filter_edges`]).
    pub fn reachable(&self) -> Vec<usize> {
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::new();
        seen[self.initial] = true;
        queue.push_back(self.initial);
        let mut out = Vec::new();
        while let Some(i) = queue.pop_front() {
            out.push(i);
            for (_, j) in &self.transitions[i] {
                if !seen[*j] {
                    seen[*j] = true;
                    queue.push_back(*j);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy successor function: states are integers counting down to zero.
    fn countdown(n: &u32) -> Vec<(&'static str, u32)> {
        if *n == 0 {
            vec![]
        } else {
            vec![("dec", n - 1)]
        }
    }

    #[test]
    fn builds_a_linear_lts() {
        let lts = Lts::build(3u32, countdown, 100);
        assert_eq!(lts.num_states(), 4);
        assert_eq!(lts.num_transitions(), 3);
        assert!(!lts.is_truncated());
        assert_eq!(lts.terminal_states(), vec![3]);
        assert_eq!(*lts.state(lts.initial()), 3);
    }

    #[test]
    fn shared_states_are_deduplicated() {
        // Diamond: 0 -> {1, 2} -> 3
        let succ = |s: &u8| -> Vec<((), u8)> {
            match s {
                0 => vec![((), 1), ((), 2)],
                1 | 2 => vec![((), 3)],
                _ => vec![],
            }
        };
        let lts = Lts::build(0u8, succ, 100);
        assert_eq!(lts.num_states(), 4);
        assert_eq!(lts.num_transitions(), 4);
    }

    #[test]
    fn truncation_is_reported() {
        let succ = |s: &u64| vec![(("inc"), s + 1)];
        let lts = Lts::build(0u64, succ, 10);
        assert!(lts.is_truncated());
        assert!(lts.num_states() <= 10);
    }

    #[test]
    fn filter_edges_preserves_states() {
        let lts = Lts::build(3u32, countdown, 100);
        let filtered = lts.filter_edges(|_, _, _| false);
        assert_eq!(filtered.num_states(), 4);
        assert_eq!(filtered.num_transitions(), 0);
        assert_eq!(filtered.reachable(), vec![filtered.initial()]);
    }

    #[test]
    fn path_to_finds_shortest_replayable_paths() {
        // Diamond with a slow lane: 0 -> 1 -> 3 and 0 -> 2 -> 2' -> 3 would
        // differ, but on the plain diamond both lanes tie at two steps.
        let succ = |s: &u8| -> Vec<(&'static str, u8)> {
            match s {
                0 => vec![("a", 1), ("b", 2)],
                1 | 2 => vec![("c", 3)],
                _ => vec![],
            }
        };
        let lts = Lts::build(0u8, succ, 100);
        assert_eq!(lts.path_to(lts.initial()), Some(vec![]));
        let path = lts.path_to(3).unwrap();
        assert_eq!(path.len(), 2);
        let mut at = lts.initial();
        for (from, label, to) in &path {
            assert_eq!(*from, at);
            assert!(lts.transitions_from(*from).contains(&(*label, *to)));
            at = *to;
        }
        assert_eq!(at, 3);
        assert_eq!(lts.path_to(99), None);
        // Restricting edges away makes the target unreachable, not panicky.
        let cut = lts.filter_edges(|_, _, _| false);
        assert_eq!(cut.path_to(3), None);
    }

    #[test]
    fn reachable_follows_edges() {
        let lts = Lts::build(2u32, countdown, 100);
        let mut r = lts.reachable();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2]);
    }
}
