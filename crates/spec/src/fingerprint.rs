//! Stable content fingerprints of compiled specifications.
//!
//! The warm-start exploration cache keys persisted results by *what the
//! specification says*, not by file identity: two JSON files whose
//! mappings are listed in a different order, or that were produced on
//! different platforms, must hash identically, while any change to a
//! latency, a cost, a mapping edge or the graph structure must change the
//! hash. [`SpecSignature`] therefore hashes **names and sorted value
//! tables**, never arena ids or iteration order, and splits the hash into
//! per-unit layers so the cache can tell *which* allocatable units an
//! edit touched:
//!
//! * `est_sig` — everything the flexibility **estimate** of a submask can
//!   depend on through this unit (its mapping-coverage column and its
//!   estimate-relevance bit). The cache keys nothing on it alone: it
//!   feeds `enum_sig` and the fingerprint.
//! * `enum_sig` — everything the **enumeration** (candidate set, costs,
//!   pruning, analysis facts, every enumerate counter) can depend on:
//!   `est_sig` plus the unit's cost, bus neighborhood, and
//!   comm/unusable flags. If no unit's `enum_sig` changed, the whole
//!   enumeration is replayable byte-for-byte — notably, **latencies are
//!   invisible to the enumeration**, so a pure latency edit keeps every
//!   `enum_sig` intact.
//! * `bind_sig` — everything the **binding solver** sees through this
//!   unit: its mappings *with latencies*, incident architecture edges,
//!   cost and kind. Cached per-candidate bind outcomes stay valid iff
//!   the candidate mask avoids every unit whose `bind_sig` changed.
//!
//! The top-level [`Fingerprint`] folds all layers (plus the problem-graph
//! hash and the non-unit remainder) into one 64-bit value; equality means
//! "same compiled content" and lets the cache replay a full result.

use crate::compiled::{allocatable_units, CompiledSpec, Unit};
use crate::spec::SpecificationGraph;
use flexplore_hgraph::{NodeRef, VertexId};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A 64-bit stable content hash of a compiled specification.
///
/// Displayed and serialized as a fixed-width lowercase hex string so JSON
/// dumps and CI byte-diffs are platform-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Serialize for Fingerprint {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Fingerprint {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => u64::from_str_radix(s, 16)
                .map(Fingerprint)
                .map_err(|_| DeError::new(format!("invalid fingerprint hex: {s:?}"))),
            other => Err(DeError::expected("fingerprint hex string", other)),
        }
    }
}

/// Per-unit hash layers of a [`SpecSignature`], in unit-universe order
/// (see [`allocatable_units`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitSig {
    /// Identity of the unit: kind (vertex/cluster) and name path. Two
    /// signatures whose `ident` columns agree describe the same unit
    /// universe, bit for bit.
    pub ident: u64,
    /// Estimate layer: coverage column + estimate-relevance bit. Only
    /// feeds `enum_sig` and the fingerprint; no cached artifact is keyed
    /// on it alone.
    pub est_sig: u64,
    /// Enumeration layer: `est_sig` + cost + neighborhood + flags.
    pub enum_sig: u64,
    /// Binding layer: mappings with latencies + incident arch edges.
    pub bind_sig: u64,
}

/// The layered content signature of a compiled specification: the global
/// [`Fingerprint`] plus everything the warm-start delta engine needs to
/// scope re-exploration to the units an edit actually touched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecSignature {
    /// Hash of everything — equal signatures mean a full-result replay
    /// is sound.
    pub fingerprint: Fingerprint,
    /// Hash of the entire problem graph (hierarchy, ports, dependences,
    /// periods, negligibility). Any problem change forces a cold run.
    pub problem_hash: u64,
    /// Hash of specification content not attributable to any single unit
    /// (architecture hierarchy skeleton, unattributable mappings). A
    /// mismatch forces a cold run.
    pub extras_hash: u64,
    /// Per-unit layers, indexed like the unit universe.
    pub units: Vec<UnitSig>,
}

/// Streaming 64-bit mixer (SplitMix64 finalizer per word). Not
/// cryptographic — collision resistance is "never by accident", which is
/// all a cache key needs; correctness never depends on it because warm
/// results are byte-compared against cold in the test suite.
struct Mix(u64);

impl Mix {
    fn new(tag: u64) -> Self {
        Mix(tag ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn u64(&mut self, x: u64) {
        let mut z = self.0.wrapping_add(x).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    /// Mixes a multiset of already-hashed items order-independently by
    /// sorting before folding.
    fn sorted(&mut self, mut items: Vec<u64>) {
        items.sort_unstable();
        self.u64(items.len() as u64);
        for item in items {
            self.u64(item);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Domain-separation tags so the same strings hashed under different
/// layers cannot collide structurally.
mod tag {
    pub const IDENT: u64 = 1;
    pub const EST: u64 = 2;
    pub const ENUM: u64 = 3;
    pub const BIND: u64 = 4;
    pub const PROBLEM: u64 = 5;
    pub const EXTRAS: u64 = 6;
    pub const FINGERPRINT: u64 = 7;
}

impl SpecSignature {
    /// Computes the layered signature of a compiled specification.
    #[must_use]
    pub fn of(compiled: &CompiledSpec<'_>) -> Self {
        let spec = compiled.spec();
        let units = allocatable_units(spec);
        let masks = compiled.unit_masks(&units);
        let arch = spec.architecture();
        let agraph = arch.graph();
        let problem = spec.problem();
        let pgraph = problem.graph();

        // Resource leaf -> owning unit index. A top-level vertex owns
        // itself; a design cluster owns its leaves.
        let mut owner: BTreeMap<VertexId, usize> = BTreeMap::new();
        for (k, unit) in units.iter().enumerate() {
            match *unit {
                Unit::Vertex(v) => {
                    owner.insert(v, k);
                }
                Unit::Cluster(c) => {
                    for &leaf in compiled.cluster_leaves(c) {
                        owner.insert(leaf, k);
                    }
                }
            }
        }

        // Unit identities: kind + name path (cluster names are qualified
        // by their interface so same-named designs of different devices
        // stay distinct).
        let idents: Vec<u64> = units
            .iter()
            .map(|unit| {
                let mut m = Mix::new(tag::IDENT);
                match *unit {
                    Unit::Vertex(v) => {
                        m.u64(0);
                        m.str(arch.resource_name(v));
                    }
                    Unit::Cluster(c) => {
                        m.u64(1);
                        m.str(agraph.interface_name(agraph.interface_of(c)));
                        m.str(agraph.cluster_name(c));
                    }
                }
                m.finish()
            })
            .collect();

        // Coverage columns, inverted from the per-vertex masks: for every
        // unit, the (sorted) set of process names it can help implement.
        let mut coverage_names: Vec<Vec<u64>> = vec![Vec::new(); units.len()];
        for v in pgraph.leaves() {
            let column = masks.coverage(v);
            if column.is_empty() {
                continue;
            }
            let mut m = Mix::new(tag::EST);
            m.str(problem.process_name(v));
            let name_hash = m.finish();
            for k in column.iter_ones() {
                coverage_names[k].push(name_hash);
            }
        }

        let relevant = masks.estimate_relevant_mask();
        let est_sigs: Vec<u64> = (0..units.len())
            .map(|k| {
                let mut m = Mix::new(tag::EST);
                m.u64(idents[k]);
                m.u64(u64::from(relevant.test(k)));
                m.sorted(coverage_names[k].clone());
                m.finish()
            })
            .collect();

        let comm = masks.comm_mask();
        let unusable = masks.unusable_mask();
        let enum_sigs: Vec<u64> = (0..units.len())
            .map(|k| {
                let mut m = Mix::new(tag::ENUM);
                m.u64(est_sigs[k]);
                m.u64(masks.cost(k).dollars());
                m.u64(u64::from(comm.test(k)));
                m.u64(u64::from(unusable.test(k)));
                // Neighborhood by neighbor identity, order-independent.
                m.sorted(masks.neighbors(k).iter_ones().map(|n| idents[n]).collect());
                m.finish()
            })
            .collect();

        // Binding layer: mappings with latencies, grouped by owning unit.
        let mut extra = Mix::new(tag::EXTRAS);
        let mut mapping_rows: Vec<Vec<u64>> = vec![Vec::new(); units.len()];
        let mut orphan_mappings: Vec<u64> = Vec::new();
        for mid in spec.mapping_ids() {
            let mapping = spec.mapping(mid);
            let mut m = Mix::new(tag::BIND);
            m.str(problem.process_name(mapping.process));
            m.str(arch.resource_name(mapping.resource));
            m.u64(mapping.latency.as_ns());
            let row = m.finish();
            match owner.get(&mapping.resource) {
                Some(&k) => mapping_rows[k].push(row),
                None => orphan_mappings.push(row),
            }
        }
        extra.sorted(orphan_mappings);

        // Incident architecture edges, described by resolved endpoint
        // leaves (matching how the compiler resolves connectivity).
        let mut edge_rows: Vec<Vec<u64>> = vec![Vec::new(); units.len()];
        for (from, to) in compiled.arch_edge_endpoints() {
            let mut m = Mix::new(tag::BIND);
            m.u64(1);
            let side = |m: &mut Mix, leaves: &[VertexId]| {
                m.sorted(
                    leaves
                        .iter()
                        .map(|&v| {
                            let mut h = Mix::new(tag::BIND);
                            h.str(arch.resource_name(v));
                            h.finish()
                        })
                        .collect(),
                );
            };
            side(&mut m, from);
            side(&mut m, to);
            let row = m.finish();
            let mut touched: Vec<usize> = from
                .iter()
                .chain(to.iter())
                .filter_map(|v| owner.get(v).copied())
                .collect();
            touched.sort_unstable();
            touched.dedup();
            for k in touched {
                edge_rows[k].push(row);
            }
        }

        let bind_sigs: Vec<u64> = (0..units.len())
            .map(|k| {
                let mut m = Mix::new(tag::BIND);
                m.u64(idents[k]);
                m.u64(masks.cost(k).dollars());
                m.u64(u64::from(comm.test(k)));
                m.sorted(mapping_rows[k].clone());
                m.sorted(edge_rows[k].clone());
                m.finish()
            })
            .collect();

        let problem_hash = hash_problem(spec);

        // Non-unit remainder: the architecture hierarchy skeleton
        // (interfaces, ports, clusters and their wiring) — anything a
        // per-unit layer cannot own but the compiler can observe.
        for i in agraph.interface_ids() {
            let mut m = Mix::new(tag::EXTRAS);
            m.str(agraph.interface_name(i));
            m.u64(agraph.ports_of(i).len() as u64);
            for &p in agraph.ports_of(i) {
                m.str(agraph.port_name(p));
            }
            m.u64(agraph.clusters_of(i).len() as u64);
            extra.u64(m.finish());
        }
        let extras_hash = extra.finish();

        let unit_sigs: Vec<UnitSig> = (0..units.len())
            .map(|k| UnitSig {
                ident: idents[k],
                est_sig: est_sigs[k],
                enum_sig: enum_sigs[k],
                bind_sig: bind_sigs[k],
            })
            .collect();

        // Fold the unit layers sorted by identity so the fingerprint is
        // independent of unit-universe order, then the global hashes.
        let mut f = Mix::new(tag::FINGERPRINT);
        f.u64(problem_hash);
        f.u64(extras_hash);
        f.sorted(
            unit_sigs
                .iter()
                .map(|s| {
                    let mut m = Mix::new(tag::FINGERPRINT);
                    m.u64(s.ident);
                    m.u64(s.est_sig);
                    m.u64(s.enum_sig);
                    m.u64(s.bind_sig);
                    m.finish()
                })
                .collect(),
        );

        SpecSignature {
            fingerprint: Fingerprint(f.finish()),
            problem_hash,
            extras_hash,
            units: unit_sigs,
        }
    }

    /// `true` when both signatures describe the same unit universe (same
    /// length, same identity in every position) — the precondition for
    /// any per-unit delta reasoning.
    #[must_use]
    pub fn same_universe(&self, other: &SpecSignature) -> bool {
        self.units.len() == other.units.len()
            && self
                .units
                .iter()
                .zip(&other.units)
                .all(|(a, b)| a.ident == b.ident)
    }
}

/// Convenience: the top-level fingerprint of a compiled specification.
#[must_use]
pub fn fingerprint(compiled: &CompiledSpec<'_>) -> Fingerprint {
    SpecSignature::of(compiled).fingerprint
}

/// Hashes the entire problem graph: hierarchy (interfaces, ports,
/// clusters, port wiring), processes with periods and negligibility, and
/// dependence edges — all by name, order-independently.
fn hash_problem(spec: &SpecificationGraph) -> u64 {
    let problem = spec.problem();
    let graph = problem.graph();
    let mut m = Mix::new(tag::PROBLEM);

    // A stable textual path for any node: scope-qualified by enclosing
    // clusters so same-named processes in different clusters differ.
    let node_path = |node: NodeRef| -> String {
        let scope = graph.scope_of(node);
        let mut path = String::new();
        for c in graph.enclosing_clusters(scope) {
            path.push_str(graph.interface_name(graph.interface_of(c)));
            path.push('/');
            path.push_str(graph.cluster_name(c));
            path.push('/');
        }
        match node {
            NodeRef::Vertex(v) => path.push_str(graph.vertex_name(v)),
            NodeRef::Interface(i) => path.push_str(graph.interface_name(i)),
        }
        path
    };

    let mut vertex_rows: Vec<u64> = Vec::new();
    for v in graph.vertex_ids() {
        let mut row = Mix::new(tag::PROBLEM);
        row.str(&node_path(NodeRef::Vertex(v)));
        row.u64(problem.period(v).map_or(u64::MAX, |t| t.as_ns()));
        row.u64(u64::from(problem.is_negligible(v)));
        vertex_rows.push(row.finish());
    }
    m.sorted(vertex_rows);

    let mut iface_rows: Vec<u64> = Vec::new();
    for i in graph.interface_ids() {
        let mut row = Mix::new(tag::PROBLEM);
        row.str(&node_path(NodeRef::Interface(i)));
        row.sorted(
            graph
                .ports_of(i)
                .iter()
                .map(|&p| {
                    let mut h = Mix::new(tag::PROBLEM);
                    h.str(graph.port_name(p));
                    h.finish()
                })
                .collect(),
        );
        row.sorted(
            graph
                .clusters_of(i)
                .iter()
                .map(|&c| {
                    let mut h = Mix::new(tag::PROBLEM);
                    h.str(graph.cluster_name(c));
                    // Port wiring of the cluster, by port name and target
                    // path.
                    h.sorted(
                        graph
                            .ports_of(i)
                            .iter()
                            .filter_map(|&p| {
                                graph.port_target(c, p).map(|t| {
                                    let mut w = Mix::new(tag::PROBLEM);
                                    w.str(graph.port_name(p));
                                    w.str(&node_path(t.node));
                                    w.finish()
                                })
                            })
                            .collect(),
                    );
                    h.finish()
                })
                .collect(),
        );
        iface_rows.push(row.finish());
    }
    m.sorted(iface_rows);

    let mut edge_rows: Vec<u64> = Vec::new();
    for e in graph.edge_ids() {
        let (from, to) = graph.edge_endpoints(e);
        let mut row = Mix::new(tag::PROBLEM);
        row.str(&node_path(from.node));
        if let Some(p) = from.port {
            row.str(graph.port_name(p));
        }
        row.str(&node_path(to.node));
        if let Some(p) = to.port {
            row.str(graph.port_name(p));
        }
        edge_rows.push(row.finish());
    }
    m.sorted(edge_rows);

    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Cost;
    use crate::problem::ProblemGraph;
    use crate::ArchitectureGraph;
    use flexplore_hgraph::Scope;
    use flexplore_sched::Time;

    fn two_unit_spec(latency_b: u64, cost_b: u64) -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let a = p.add_process(Scope::Top, "a");
        let b = p.add_process(Scope::Top, "b");
        p.add_dependence(a, b).unwrap();

        let mut arch = ArchitectureGraph::new("arch");
        let cpu = arch.add_resource(Scope::Top, "cpu", Cost::new(100));
        let dsp = arch.add_resource(Scope::Top, "dsp", Cost::new(cost_b));
        let bus = arch.add_bus(Scope::Top, "bus", Cost::new(10));
        arch.connect(cpu, bus).unwrap();
        arch.connect(dsp, bus).unwrap();

        let mut spec = SpecificationGraph::new("s", p, arch);
        spec.add_mapping(a, cpu, Time::from_ns(5)).unwrap();
        spec.add_mapping(b, dsp, Time::from_ns(latency_b)).unwrap();
        spec
    }

    #[test]
    fn identical_specs_hash_identically() {
        let s1 = two_unit_spec(7, 50);
        let s2 = two_unit_spec(7, 50);
        let sig1 = SpecSignature::of(&CompiledSpec::new(&s1));
        let sig2 = SpecSignature::of(&CompiledSpec::new(&s2));
        assert_eq!(sig1, sig2);
        assert_eq!(sig1.fingerprint, sig2.fingerprint);
    }

    #[test]
    fn mapping_insertion_order_does_not_matter() {
        let mut p = ProblemGraph::new("p");
        let a = p.add_process(Scope::Top, "a");
        let b = p.add_process(Scope::Top, "b");
        let mut arch = ArchitectureGraph::new("arch");
        let cpu = arch.add_resource(Scope::Top, "cpu", Cost::new(100));

        let mut s1 = SpecificationGraph::new("s", p.clone(), arch.clone());
        s1.add_mapping(a, cpu, Time::from_ns(1)).unwrap();
        s1.add_mapping(b, cpu, Time::from_ns(2)).unwrap();
        let mut s2 = SpecificationGraph::new("s", p, arch);
        s2.add_mapping(b, cpu, Time::from_ns(2)).unwrap();
        s2.add_mapping(a, cpu, Time::from_ns(1)).unwrap();

        assert_eq!(
            fingerprint(&CompiledSpec::new(&s1)),
            fingerprint(&CompiledSpec::new(&s2))
        );
    }

    #[test]
    fn a_latency_edit_changes_only_the_bind_layer_of_its_unit() {
        let s1 = two_unit_spec(7, 50);
        let s2 = two_unit_spec(8, 50);
        let sig1 = SpecSignature::of(&CompiledSpec::new(&s1));
        let sig2 = SpecSignature::of(&CompiledSpec::new(&s2));

        assert_ne!(sig1.fingerprint, sig2.fingerprint);
        assert_eq!(sig1.problem_hash, sig2.problem_hash);
        assert_eq!(sig1.extras_hash, sig2.extras_hash);
        assert!(sig1.same_universe(&sig2));
        let changed: Vec<usize> = (0..sig1.units.len())
            .filter(|&k| sig1.units[k] != sig2.units[k])
            .collect();
        assert_eq!(changed.len(), 1, "exactly one unit changed");
        let k = changed[0];
        assert_eq!(sig1.units[k].est_sig, sig2.units[k].est_sig);
        assert_eq!(sig1.units[k].enum_sig, sig2.units[k].enum_sig);
        assert_ne!(sig1.units[k].bind_sig, sig2.units[k].bind_sig);
    }

    #[test]
    fn a_cost_edit_changes_the_enum_layer() {
        let s1 = two_unit_spec(7, 50);
        let s2 = two_unit_spec(7, 60);
        let sig1 = SpecSignature::of(&CompiledSpec::new(&s1));
        let sig2 = SpecSignature::of(&CompiledSpec::new(&s2));

        assert!(sig1.same_universe(&sig2));
        let changed: Vec<usize> = (0..sig1.units.len())
            .filter(|&k| sig1.units[k].enum_sig != sig2.units[k].enum_sig)
            .collect();
        assert_eq!(changed.len(), 1);
        // Cost is invisible to the estimate layer.
        assert_eq!(
            sig1.units[changed[0]].est_sig,
            sig2.units[changed[0]].est_sig
        );
    }

    #[test]
    fn a_problem_edit_changes_the_problem_hash() {
        let s1 = two_unit_spec(7, 50);
        let mut s2 = two_unit_spec(7, 50);
        let v = s2
            .problem()
            .graph()
            .vertex_by_name(Scope::Top, "a")
            .unwrap();
        s2.problem_mut().set_period(v, Time::from_ns(99));
        let sig1 = SpecSignature::of(&CompiledSpec::new(&s1));
        let sig2 = SpecSignature::of(&CompiledSpec::new(&s2));
        assert_ne!(sig1.problem_hash, sig2.problem_hash);
        assert_ne!(sig1.fingerprint, sig2.fingerprint);
    }

    #[test]
    fn fingerprints_render_as_fixed_width_hex_and_round_trip_serde() {
        let s = two_unit_spec(7, 50);
        let fp = fingerprint(&CompiledSpec::new(&s));
        let text = fp.to_string();
        assert_eq!(text.len(), 16);
        let json = serde_json::to_string(&fp).unwrap();
        let back: Fingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }
}
