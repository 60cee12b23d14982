//! Dense communication reachability: the one row builder behind the
//! binding solver's communication graph and the feasibility checker's
//! per-mode architecture view.
//!
//! Rule 3 of the paper asks whether two resources can exchange data: they
//! are equal, or an undirected path connects them whose **intermediate**
//! vertices are all usable communication resources. Answering that by a
//! search per query is exact but slow inside the binding search, which
//! asks it for every dependence at every assignment. [`ReachRows`] answers
//! it with one bit test from rows built once per vertex set.
//!
//! The rows come from bus components rather than one search per vertex.
//! Group the usable communication vertices into connected components (a
//! union-find over the links between two of them). A path whose interior
//! is communication vertices runs inside one component `K`, so `to` is
//! reachable from `from` exactly when `to` is a direct neighbour of
//! `from`, or both are neighbours of the same component. Writing `N(K)`
//! for the union of the neighbourhoods of `K`'s members, the row of `v` is
//! therefore its own neighbourhood ORed with `N(K)` for every `K` that `v`
//! is adjacent to — and `v` is adjacent to `K` exactly when `v ∈ N(K)`.

use flexplore_hgraph::VertexId;

/// Marks a vertex that has no row.
const NO_ROW: u32 = u32::MAX;

/// Communication reachability among a fixed set of member vertices, as
/// one bit row per member.
#[derive(Debug, Clone)]
pub struct ReachRows {
    /// Row of each vertex by `VertexId::index()`, or [`NO_ROW`].
    row_of: Vec<u32>,
    /// `u64` words per row.
    words: usize,
    /// One row of `words` words per member: bit `j` of row `i` is set
    /// when member `j` is reachable from member `i`.
    bits: Vec<u64>,
}

impl ReachRows {
    /// Builds the rows over `members`, vertices of an arena of `universe`
    /// vertices (members outside it are ignored).
    ///
    /// `links` are undirected edges; those with an endpoint outside the
    /// members are ignored, so callers may pass every edge of the graph.
    /// `forwards(v)` tells whether member `v` relays traffic (is a
    /// communication resource).
    #[must_use]
    pub fn new(
        universe: usize,
        members: impl IntoIterator<Item = VertexId>,
        links: impl IntoIterator<Item = (VertexId, VertexId)>,
        forwards: impl Fn(VertexId) -> bool,
    ) -> Self {
        let mut row_of = vec![NO_ROW; universe];
        let mut relays = Vec::new();
        for v in members {
            if let Some(slot) = row_of.get_mut(v.index()) {
                if *slot == NO_ROW {
                    *slot = relays.len() as u32;
                    relays.push(forwards(v));
                }
            }
        }
        let n = relays.len();
        let words = n.div_ceil(64);

        // Direct adjacency, and the bus components (union-find over the
        // links between two relaying members).
        let mut bits = vec![0u64; n * words];
        let mut parent: Vec<usize> = (0..n).collect();
        let row = |v: VertexId| match row_of.get(v.index()) {
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        };
        for (a, b) in links {
            let (Some(i), Some(j)) = (row(a), row(b)) else {
                continue;
            };
            bits[i * words + j / 64] |= 1 << (j % 64);
            bits[j * words + i / 64] |= 1 << (i % 64);
            if relays[i] && relays[j] {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri.max(rj)] = ri.min(rj);
            }
        }

        // N(K) per component, collected at the component's root row.
        let mut hoods = vec![0u64; n * words];
        for i in (0..n).filter(|&i| relays[i]) {
            let root = find(&mut parent, i);
            for w in 0..words {
                hoods[root * words + w] |= bits[i * words + w];
            }
        }
        // OR each N(K) into the rows of the members adjacent to K.
        for root in (0..n).filter(|&i| relays[i] && parent[i] == i) {
            let hood = &hoods[root * words..(root + 1) * words];
            for x in ones(hood) {
                for (w, &h) in hood.iter().enumerate() {
                    bits[x * words + w] |= h;
                }
            }
        }
        ReachRows {
            row_of,
            words,
            bits,
        }
    }

    /// Returns `true` if `v` is a member (has a row).
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.row(v).is_some()
    }

    /// Returns `true` if data can travel from `from` to `to`: equal
    /// vertices, or two members joined by a link or through relaying
    /// members.
    #[must_use]
    pub fn reaches(&self, from: VertexId, to: VertexId) -> bool {
        if from == to {
            return true;
        }
        let (Some(i), Some(j)) = (self.row(from), self.row(to)) else {
            return false;
        };
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    fn row(&self, v: VertexId) -> Option<usize> {
        match self.row_of.get(v.index()) {
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        }
    }
}

/// Union-find root of `i`, halving paths on the way.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Indices of the set bits of a row.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        (0..64)
            .filter(move |b| word >> b & 1 == 1)
            .map(move |b| w * 64 + b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    /// The search the rows replace: breadth-first from `from`, forwarding
    /// only through relaying members.
    fn bfs(
        members: &BTreeSet<VertexId>,
        links: &[(VertexId, VertexId)],
        relays: &BTreeSet<VertexId>,
        from: VertexId,
        to: VertexId,
    ) -> bool {
        if from == to {
            return true;
        }
        if !members.contains(&from) || !members.contains(&to) {
            return false;
        }
        let mut adj: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
        for &(a, b) in links {
            if members.contains(&a) && members.contains(&b) {
                adj.entry(a).or_default().push(b);
                adj.entry(b).or_default().push(a);
            }
        }
        let mut seen = BTreeSet::from([from]);
        let mut queue = VecDeque::from([from]);
        while let Some(x) = queue.pop_front() {
            for &n in adj.get(&x).map_or(&[][..], Vec::as_slice) {
                if n == to {
                    return true;
                }
                if relays.contains(&n) && seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        false
    }

    #[test]
    fn rows_match_the_search_on_random_graphs() {
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (lcg >> 33) % n
        };
        for _ in 0..200 {
            // Up to 70 vertices, so rows span two words.
            let universe = 2 + next(69) as usize;
            let members: BTreeSet<VertexId> =
                (0..universe).filter(|_| next(5) != 0).map(v).collect();
            let relays: BTreeSet<VertexId> =
                (0..universe).filter(|_| next(3) == 0).map(v).collect();
            let links: Vec<(VertexId, VertexId)> = (0..next(2 * universe as u64))
                .map(|_| {
                    (
                        v(next(universe as u64) as usize),
                        v(next(universe as u64) as usize),
                    )
                })
                .collect();
            let rows = ReachRows::new(
                universe,
                members.iter().copied(),
                links.iter().copied(),
                |x| relays.contains(&x),
            );
            for a in 0..universe {
                for b in 0..universe {
                    assert_eq!(
                        rows.reaches(v(a), v(b)),
                        bfs(&members, &links, &relays, v(a), v(b)),
                        "{a} -> {b}"
                    );
                }
            }
            for x in 0..universe {
                assert_eq!(rows.contains(v(x)), members.contains(&v(x)));
            }
        }
    }

    #[test]
    fn non_members_reach_only_themselves() {
        let rows = ReachRows::new(3, [v(0), v(1)], [(v(0), v(1)), (v(1), v(2))], |_| false);
        assert!(rows.reaches(v(0), v(1)));
        assert!(!rows.reaches(v(1), v(2)));
        assert!(rows.reaches(v(2), v(2)));
        // Ids past the arena have no row either.
        assert!(!rows.reaches(v(0), v(9)));
        assert!(!rows.contains(v(9)));
    }
}
