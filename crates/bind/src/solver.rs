//! The binding solver: constructing a feasible allocation and binding for
//! one elementary cluster-activation.
//!
//! Binding is NP-complete (the paper cites Blickle et al. for the
//! reduction), so the solver is a backtracking search with
//! most-constrained-variable ordering and pruning rules applied at every
//! partial assignment:
//!
//! * **resource availability** — only mapping edges into the candidate
//!   allocation are considered;
//! * **configuration consistency** — a reconfigurable device holds at most
//!   one design per mode (hierarchical activation rule 1 on the
//!   architecture side);
//! * **communication feasibility** — every dependence between two already
//!   bound processes must be routable ([`CommGraph`]);
//! * **utilization** — the per-resource task sets of the partial binding
//!   must already pass the schedulability policy (all provided policies are
//!   monotone: adding a task never helps).
//!
//! The search allocates nothing per assignment once its buffers have
//! grown. What depends only on the allocation — the design index and the
//! availability-filtered candidate lists — is built once in
//! [`BindKernel::new`], and the verifier's architecture views are cached
//! per device configuration; every activation solved on the allocation
//! shares them. Along the search, the bound resources, the held device
//! configurations and the per-resource demand lists are pushed and popped,
//! and an assignment re-checks only the resource it touched: every other
//! resource's demands are unchanged and passed at the previous depth, so
//! the verdict equals re-checking every resource.

use crate::comm::CommGraph;
use crate::timing::{activation_meets_timing, mode_meets_timing};
use flexplore_hgraph::{ClusterId, FlatEdge, InterfaceId, Selection, VertexId};
use flexplore_sched::{SchedPolicy, Time};
use flexplore_spec::{
    ArchView, Binding, CompiledActivation, CompiledSpec, MappingId, Mode, ResourceAllocation,
    SpecificationGraph,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options controlling the binding search.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BindOptions {
    /// Schedulability test applied per resource (default: the paper's 69 %
    /// limit).
    pub policy: SchedPolicy,
    /// Upper bound on backtracking steps before the search gives up and
    /// reports the activation infeasible. Guards against pathological
    /// instances; the paper-scale models stay far below it.
    pub max_steps: u64,
    /// Re-verify every solution against the declarative binding rules
    /// (`SpecificationGraph::check_binding_rules`, over a per-configuration
    /// architecture view) and the timing test before returning it.
    pub verify: bool,
}

impl Default for BindOptions {
    fn default() -> Self {
        BindOptions {
            policy: SchedPolicy::PaperLimit69,
            max_steps: 1_000_000,
            verify: true,
        }
    }
}

/// Counters describing one binding search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Candidate assignments tried.
    pub assignments: u64,
    /// Assignments undone after a dead end.
    pub backtracks: u64,
}

/// A feasible implementation of one mode: the selections of both graphs
/// plus the binding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeImplementation {
    /// The problem- and architecture-graph selections of this mode.
    pub mode: Mode,
    /// The binding of every activated process.
    pub binding: Binding,
}

/// Searches for a feasible binding of the elementary cluster-activation
/// `eca` on `allocation`, over the resources `comm` was built on.
///
/// Returns `None` when no feasible binding exists (or the step budget is
/// exhausted). On success, the returned mode satisfies the binding
/// feasibility rules *and* the timing policy. Candidate mappings come from
/// the latency-sorted compiled tables, periods from the dense
/// inherited-period table of the (cached or on-demand) activation.
///
/// Solving many activations on one allocation? [`implement_allocation`]
/// builds the per-allocation tables once for all of them.
///
/// [`implement_allocation`]: crate::implement_allocation
///
/// # Panics
///
/// Panics if `eca` references interfaces or clusters that are not part of
/// the specification's problem graph.
pub fn solve_mode(
    compiled: &CompiledSpec<'_>,
    allocation: &ResourceAllocation,
    comm: &CommGraph,
    eca: &Selection,
    options: &BindOptions,
) -> (Option<ModeImplementation>, SolveStats) {
    BindKernel::new(compiled, allocation, comm, options).solve(eca)
}

/// One candidate mapping of a process, with the fields the search reads.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    mapping: MappingId,
    resource: VertexId,
    latency: Time,
}

/// One periodic demand on a resource. The derived order — period, then
/// process — is the rate-monotonic order a `TaskSet` built in process
/// order keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Demand {
    period: Time,
    process: VertexId,
    wcet: Time,
}

/// Marks a problem vertex outside the current activation.
const UNPLACED: u32 = u32::MAX;

/// The binding search over one allocation: tables that depend only on the
/// allocation, built once, plus search state reused by every activation.
#[derive(Debug)]
pub(crate) struct BindKernel<'k, 'a> {
    tables: Tables<'k, 'a>,
    /// Verification views by device configuration (`None`: the
    /// configuration does not flatten).
    views: BTreeMap<Selection, Option<ArchView>>,
    search: Search,
}

/// The read-only part of a [`BindKernel`].
#[derive(Debug)]
struct Tables<'k, 'a> {
    compiled: &'k CompiledSpec<'a>,
    comm: &'k CommGraph,
    options: &'k BindOptions,
    /// Per architecture vertex index: the device and design cluster of an
    /// allocated design leaf.
    design_of: Vec<Option<(InterfaceId, ClusterId)>>,
    /// Candidates of problem vertex `v` are
    /// `candidates[offsets[v]..offsets[v + 1]]`, fastest first, available
    /// resources only.
    offsets: Vec<usize>,
    candidates: Vec<Candidate>,
}

impl Tables<'_, '_> {
    fn candidates_of(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v.index()]..self.offsets[v.index() + 1]
    }
}

/// The per-activation search state, pushed and popped along the search.
#[derive(Debug, Default)]
struct Search {
    /// Processes in search order: most constrained first.
    order: Vec<VertexId>,
    /// Per problem vertex index: its depth in `order`, or [`UNPLACED`].
    depth_of: Vec<u32>,
    /// Per depth: the inherited period of a timed process.
    period_at: Vec<Option<Time>>,
    /// Dependences of depth `d` into earlier depths are
    /// `earlier[earlier_offsets[d]..earlier_offsets[d + 1]]`.
    earlier_offsets: Vec<usize>,
    earlier: Vec<u32>,
    /// Fill cursor per depth while `earlier` is laid out.
    cursor: Vec<usize>,
    /// Per depth: the chosen candidate index and its resource.
    chosen: Vec<usize>,
    resource_at: Vec<VertexId>,
    /// Per device interface index: the design it holds in this mode.
    held: Vec<Option<ClusterId>>,
    /// Per architecture vertex index: the resource's demands, in
    /// rate-monotonic order.
    demands: Vec<Vec<Demand>>,
}

impl<'k, 'a> BindKernel<'k, 'a> {
    /// Builds the per-allocation tables: the dense design index, and the
    /// candidate mappings of every process filtered to the resources
    /// `comm` was built on.
    pub(crate) fn new(
        compiled: &'k CompiledSpec<'a>,
        allocation: &ResourceAllocation,
        comm: &'k CommGraph,
        options: &'k BindOptions,
    ) -> Self {
        let spec = compiled.spec();
        let arch = spec.architecture().graph();
        let mut design_of = vec![None; arch.vertex_count()];
        for &c in &allocation.clusters {
            // Allocations built from user input can name clusters the
            // architecture does not have; such clusters contribute nothing
            // rather than panicking (flexlint reports them as F003/F005).
            if c.index() >= arch.cluster_count() {
                continue;
            }
            let device = arch.interface_of(c);
            for &v in compiled.cluster_leaves(c) {
                design_of[v.index()] = Some((device, c));
            }
        }

        let mut allocated = vec![false; arch.vertex_count()];
        for v in comm.available() {
            if let Some(flag) = allocated.get_mut(v.index()) {
                *flag = true;
            }
        }
        // The compiled lists are latency-stable-sorted, and filtering
        // commutes with a stable sort: candidates stay fastest first, ties
        // in mapping-id order.
        let processes = spec.problem().graph().vertex_count();
        let mut offsets = Vec::with_capacity(processes + 1);
        let mut candidates = Vec::new();
        offsets.push(0);
        for v in 0..processes {
            for &m in compiled.mappings_of(VertexId::from_index(v)) {
                let mapping = spec.mapping(m);
                if allocated.get(mapping.resource.index()) == Some(&true) {
                    candidates.push(Candidate {
                        mapping: m,
                        resource: mapping.resource,
                        latency: mapping.latency,
                    });
                }
            }
            offsets.push(candidates.len());
        }

        let search = Search {
            depth_of: vec![UNPLACED; processes],
            held: vec![None; arch.interface_count()],
            demands: vec![Vec::new(); arch.vertex_count()],
            ..Search::default()
        };
        BindKernel {
            tables: Tables {
                compiled,
                comm,
                options,
                design_of,
                offsets,
                candidates,
            },
            views: BTreeMap::new(),
            search,
        }
    }

    /// Searches a feasible binding of `eca` (see [`solve_mode`]).
    pub(crate) fn solve(&mut self, eca: &Selection) -> (Option<ModeImplementation>, SolveStats) {
        let mut stats = SolveStats::default();
        let compiled = self.tables.compiled;
        let on_demand;
        let activation: &CompiledActivation = match compiled.activation(eca) {
            Some(cached) => cached,
            None => match compiled.compile_activation(eca) {
                Ok(fresh) => {
                    on_demand = fresh;
                    &on_demand
                }
                Err(_) => return (None, stats),
            },
        };
        let placed = self.search.place(&self.tables, activation);
        let found = placed && self.search.backtrack(&self.tables, 0, &mut stats);
        let solution = found.then(|| self.search.solution(&self.tables, eca));
        self.search.clear();
        let Some(implementation) = solution else {
            return (None, stats);
        };
        if self.tables.options.verify && !self.verify(activation, &implementation) {
            // The constructive search and the declarative checker disagree;
            // treat as infeasible rather than return an unverified mode.
            return (None, stats);
        }
        (Some(implementation), stats)
    }

    /// The declarative check of a solved mode: binding rules 1–3 over the
    /// activation's flattened graph and the configuration's cached
    /// architecture view (restricted to the resources the search used),
    /// then timing over the activation's period table.
    fn verify(&mut self, activation: &CompiledActivation, solved: &ModeImplementation) -> bool {
        let spec = self.tables.compiled.spec();
        let available = self.tables.comm.available();
        let configuration = &solved.mode.architecture;
        if !self.views.contains_key(configuration) {
            let view = spec.arch_view(configuration, available).ok();
            self.views.insert(configuration.clone(), view);
        }
        let Some(view) = &self.views[configuration] else {
            return false;
        };
        spec.check_binding_rules(&activation.flat, view, &solved.binding)
            .is_ok()
            && activation_meets_timing(
                spec,
                activation,
                &solved.binding,
                self.tables.options.policy,
            )
    }
}

impl Search {
    /// Lays out the search for `activation`: the most-constrained-first
    /// order, each depth's period and its dependences into earlier depths.
    /// Returns `false` when some process has no candidate.
    fn place(&mut self, tables: &Tables<'_, '_>, activation: &CompiledActivation) -> bool {
        let problem = tables.compiled.spec().problem();
        let flat = &activation.flat;
        // Stable, over the id-sorted flat vertices: (count, id) order.
        self.order.extend_from_slice(&flat.vertices);
        self.order.sort_by_key(|&v| tables.candidates_of(v).len());
        if self
            .order
            .iter()
            .any(|&v| tables.candidates_of(v).is_empty())
        {
            return false;
        }
        let n = self.order.len();
        for (d, &v) in self.order.iter().enumerate() {
            self.depth_of[v.index()] = d as u32;
            let period = activation.periods.get(v.index()).copied().flatten();
            self.period_at
                .push(period.filter(|_| !problem.is_negligible(v)));
        }
        // Only dependences into earlier depths can have both ends bound;
        // a self-loop is always routable.
        let depth_of = &self.depth_of;
        let later_earlier = |e: &FlatEdge| {
            let (a, b) = (depth_of[e.from.index()], depth_of[e.to.index()]);
            (a != b && a != UNPLACED && b != UNPLACED).then(|| (a.max(b) as usize, a.min(b)))
        };
        self.earlier_offsets.resize(n + 1, 0);
        for (later, _) in flat.edges.iter().filter_map(later_earlier) {
            self.earlier_offsets[later + 1] += 1;
        }
        for d in 0..n {
            self.earlier_offsets[d + 1] += self.earlier_offsets[d];
        }
        self.earlier.resize(self.earlier_offsets[n], 0);
        self.cursor.extend_from_slice(&self.earlier_offsets[..n]);
        for (later, earlier) in flat.edges.iter().filter_map(later_earlier) {
            self.earlier[self.cursor[later]] = earlier;
            self.cursor[later] += 1;
        }
        self.chosen.resize(n, 0);
        self.resource_at.resize(n, VertexId::from_index(0));
        true
    }

    /// The mode and binding of the current (complete) assignment.
    fn solution(&self, tables: &Tables<'_, '_>, eca: &Selection) -> ModeImplementation {
        let binding: Binding = self
            .order
            .iter()
            .zip(&self.chosen)
            .map(|(&v, &k)| (v, tables.candidates[k].mapping))
            .collect();
        let configuration: Selection = self
            .held
            .iter()
            .enumerate()
            .filter_map(|(i, held)| held.map(|c| (InterfaceId::from_index(i), c)))
            .collect();
        ModeImplementation {
            mode: Mode::new(eca.clone(), configuration),
            binding,
        }
    }

    /// Tries every candidate of the process at `depth` in order, recursing
    /// on each assignment that passes the pruning rules. Leaves the
    /// assignment in place on success and undoes it otherwise.
    fn backtrack(&mut self, tables: &Tables<'_, '_>, depth: usize, stats: &mut SolveStats) -> bool {
        if depth == self.order.len() {
            return true;
        }
        let options = tables.options;
        if stats.assignments >= options.max_steps {
            return false;
        }
        let process = self.order[depth];
        for k in tables.candidates_of(process) {
            stats.assignments += 1;
            if stats.assignments > options.max_steps {
                return false;
            }
            let candidate = tables.candidates[k];
            let resource = candidate.resource;

            // Configuration consistency for reconfigurable designs.
            let mut claimed = None;
            if let Some((device, cluster)) = tables.design_of[resource.index()] {
                match self.held[device.index()] {
                    Some(held) if held != cluster => continue,
                    Some(_) => {}
                    None => {
                        self.held[device.index()] = Some(cluster);
                        claimed = Some(device);
                    }
                }
            }
            self.chosen[depth] = k;
            self.resource_at[depth] = resource;

            // Communication feasibility against already-bound neighbors.
            let earlier =
                &self.earlier[self.earlier_offsets[depth]..self.earlier_offsets[depth + 1]];
            let mut ok = earlier
                .iter()
                .all(|&d| tables.comm.comm_ok(self.resource_at[d as usize], resource));

            // Utilization of the one resource this assignment loads. A
            // zero period admits no schedule: prune the assignment.
            let mut pushed = None;
            if let (true, Some(period)) = (ok, self.period_at[depth]) {
                if period == Time::ZERO {
                    ok = false;
                } else {
                    let demand = Demand {
                        period,
                        process,
                        wcet: candidate.latency,
                    };
                    let list = &mut self.demands[resource.index()];
                    let at = list.partition_point(|d| *d < demand);
                    list.insert(at, demand);
                    pushed = Some(at);
                    ok = options
                        .policy
                        .accepts_demands(list.iter().map(|d| (d.wcet, d.period)));
                }
            }

            if ok && self.backtrack(tables, depth + 1, stats) {
                return true;
            }

            // Undo.
            stats.backtracks += 1;
            if let Some(at) = pushed {
                self.demands[resource.index()].remove(at);
            }
            if let Some(device) = claimed {
                self.held[device.index()] = None;
            }
        }
        false
    }

    /// Resets the per-activation state, keeping every buffer.
    fn clear(&mut self) {
        for &v in &self.order {
            self.depth_of[v.index()] = UNPLACED;
        }
        for r in &self.resource_at {
            if let Some(list) = self.demands.get_mut(r.index()) {
                list.clear();
            }
        }
        self.held.fill(None);
        self.order.clear();
        self.period_at.clear();
        self.earlier_offsets.clear();
        self.earlier.clear();
        self.cursor.clear();
        self.chosen.clear();
        self.resource_at.clear();
    }
}

/// Convenience wrapper: compiles the specification, solves `eca` on
/// `allocation`, and reports whether a feasible mode exists.
pub fn mode_is_feasible(
    spec: &SpecificationGraph,
    allocation: &ResourceAllocation,
    eca: &Selection,
    options: &BindOptions,
) -> bool {
    let compiled = CompiledSpec::new(spec);
    let available = compiled.available_vertices(allocation);
    let comm = CommGraph::from_compiled(&compiled, &available);
    solve_mode(&compiled, allocation, &comm, eca, options)
        .0
        .is_some()
}

/// Exposes flattened-graph timing acceptance for callers that already
/// hold a solved mode (used by benches to re-score modes under different
/// policies).
pub fn mode_timing_accepts(
    spec: &SpecificationGraph,
    eca: &Selection,
    binding: &Binding,
    policy: SchedPolicy,
) -> bool {
    match spec.problem().flatten(eca) {
        Ok(flat) => mode_meets_timing(spec, &flat, binding, policy),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_hgraph::Scope;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs};

    /// core -> accel, accel period 240. Mappings: core on uP (95) and on
    /// FPGA design G1 (20); accel on uP (90). uP2-style: 95+90 fails, the
    /// FPGA offload passes.
    fn offload_spec() -> (SpecificationGraph, ResourceAllocation, ResourceAllocation) {
        let mut p = ProblemGraph::new("game");
        let core = p.add_process(Scope::Top, "P_G1");
        let accel = p.add_process_with(
            Scope::Top,
            "P_D",
            ProcessAttrs::new().with_period(Time::from_ns(240)),
        );
        p.add_dependence(core, accel).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let up = a.add_resource(Scope::Top, "uP2", Cost::new(100));
        let c1 = a.add_bus(Scope::Top, "C1", Cost::new(10));
        let fpga = a.add_interface(Scope::Top, "FPGA");
        a.connect(up, c1).unwrap();
        a.connect_through(c1, fpga).unwrap();
        let g1 = a.add_design(fpga, "cfg_G1", "G1", Cost::new(60)).unwrap();
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(core, up, Time::from_ns(95)).unwrap();
        spec.add_mapping(core, g1.design, Time::from_ns(20))
            .unwrap();
        spec.add_mapping(accel, up, Time::from_ns(90)).unwrap();
        let up_only = ResourceAllocation::new().with_vertex(up);
        let with_fpga = ResourceAllocation::new()
            .with_vertex(up)
            .with_vertex(c1)
            .with_cluster(g1.cluster);
        (spec, up_only, with_fpga)
    }

    #[test]
    fn allocation_with_unknown_cluster_does_not_panic() {
        let (spec, _, with_fpga) = offload_spec();
        let forged = with_fpga
            .clone()
            .with_cluster(flexplore_hgraph::ClusterId::from_index(999));
        // The unknown cluster is ignored; the mode stays solvable through
        // the real resources.
        assert!(mode_is_feasible(
            &spec,
            &forged,
            &Selection::new(),
            &BindOptions::default()
        ));
    }

    #[test]
    fn up_only_fails_utilization() {
        let (spec, up_only, _) = offload_spec();
        assert!(!mode_is_feasible(
            &spec,
            &up_only,
            &Selection::new(),
            &BindOptions::default()
        ));
    }

    /// Solves `eca` on `allocation` over every resource it makes
    /// available.
    fn solve(
        spec: &SpecificationGraph,
        allocation: &ResourceAllocation,
        eca: &Selection,
        options: &BindOptions,
    ) -> (Option<ModeImplementation>, SolveStats) {
        let compiled = CompiledSpec::new(spec);
        let available = allocation.available_vertices(spec.architecture());
        let comm = CommGraph::new(spec.architecture(), &available);
        solve_mode(&compiled, allocation, &comm, eca, options)
    }

    #[test]
    fn fpga_offload_makes_mode_feasible() {
        let (spec, _, with_fpga) = offload_spec();
        let (solved, stats) = solve(
            &spec,
            &with_fpga,
            &Selection::new(),
            &BindOptions::default(),
        );
        let solved = solved.expect("offloaded mode must be feasible");
        assert!(stats.assignments >= 2);
        // core must have been offloaded to G1.
        let core = spec
            .problem()
            .graph()
            .vertex_by_name(Scope::Top, "P_G1")
            .unwrap();
        let r = solved.binding.resource_for(&spec, core).unwrap();
        assert_eq!(spec.architecture().resource_name(r), "G1");
        // Architecture selection holds the G1 configuration.
        let fpga = spec
            .architecture()
            .graph()
            .interface_by_name(Scope::Top, "FPGA")
            .unwrap();
        assert!(solved.mode.architecture.get(fpga).is_some());
    }

    #[test]
    fn verification_rejects_bindings_onto_excluded_resources() {
        // The offloaded mode binds the core to G1 and routes it over C1.
        // Masking either one out of the resources the search may use must
        // reject that binding in verification too, and leave no solution.
        let (spec, _, with_fpga) = offload_spec();
        let compiled = CompiledSpec::new(&spec);
        let options = BindOptions::default();
        let eca = Selection::new();
        let activation = compiled.compile_activation(&eca).unwrap();
        let allocated = compiled.available_vertices(&with_fpga);
        let comm = CommGraph::from_compiled(&compiled, &allocated);
        let mut kernel = BindKernel::new(&compiled, &with_fpga, &comm, &options);
        let solved = kernel.solve(&eca).0.expect("offloaded mode is feasible");
        assert!(kernel.verify(&activation, &solved));

        let core = spec
            .problem()
            .graph()
            .vertex_by_name(Scope::Top, "P_G1")
            .unwrap();
        let g1 = solved.binding.resource_for(&spec, core).unwrap();
        let c1 = spec
            .architecture()
            .graph()
            .vertex_by_name(Scope::Top, "C1")
            .unwrap();
        for masked in [g1, c1] {
            let mut available = allocated.clone();
            available.remove(&masked);
            let comm = CommGraph::from_compiled(&compiled, &available);
            let mut kernel = BindKernel::new(&compiled, &with_fpga, &comm, &options);
            assert!(
                !kernel.verify(&activation, &solved),
                "a binding using masked {} must be rejected",
                spec.architecture().resource_name(masked)
            );
            assert!(kernel.solve(&eca).0.is_none());
        }
    }

    #[test]
    fn device_holds_one_design_per_mode() {
        // Two processes each requiring a *different* FPGA design, with no
        // alternative: infeasible in a single mode.
        let mut p = ProblemGraph::new("p");
        let t1 = p.add_process(Scope::Top, "t1");
        let t2 = p.add_process(Scope::Top, "t2");
        let mut a = ArchitectureGraph::new("a");
        let fpga = a.add_interface(Scope::Top, "FPGA");
        let d1 = a.add_design(fpga, "cfg1", "D1", Cost::new(1)).unwrap();
        let d2 = a.add_design(fpga, "cfg2", "D2", Cost::new(1)).unwrap();
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(t1, d1.design, Time::from_ns(1)).unwrap();
        spec.add_mapping(t2, d2.design, Time::from_ns(1)).unwrap();
        let alloc = ResourceAllocation::new()
            .with_cluster(d1.cluster)
            .with_cluster(d2.cluster);
        assert!(!mode_is_feasible(
            &spec,
            &alloc,
            &Selection::new(),
            &BindOptions::default()
        ));
    }

    #[test]
    fn communication_constraint_forces_colocation() {
        // t1 -> t2; r1 and r2 unconnected; t1 maps to both, t2 only to r2.
        // Solver must place t1 on r2.
        let mut p = ProblemGraph::new("p");
        let t1 = p.add_process(Scope::Top, "t1");
        let t2 = p.add_process(Scope::Top, "t2");
        p.add_dependence(t1, t2).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let r1 = a.add_resource(Scope::Top, "r1", Cost::new(1));
        let r2 = a.add_resource(Scope::Top, "r2", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        // r1 is faster for t1, tempting the latency-first heuristic.
        spec.add_mapping(t1, r1, Time::from_ns(1)).unwrap();
        let m12 = spec.add_mapping(t1, r2, Time::from_ns(50)).unwrap();
        let m22 = spec.add_mapping(t2, r2, Time::from_ns(1)).unwrap();
        let alloc = ResourceAllocation::new().with_vertex(r1).with_vertex(r2);
        let (solved, stats) = solve(&spec, &alloc, &Selection::new(), &BindOptions::default());
        let solved = solved.expect("colocation on r2 is feasible");
        assert_eq!(solved.binding.mapping_for(t1), Some(m12));
        assert_eq!(solved.binding.mapping_for(t2), Some(m22));
        assert!(stats.backtracks >= 1, "must have retracted the r1 attempt");
    }

    #[test]
    fn unbindable_process_fails_fast() {
        let mut p = ProblemGraph::new("p");
        let _t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let _r = a.add_resource(Scope::Top, "r", Cost::new(1));
        let spec = SpecificationGraph::new("s", p, a);
        // No mapping at all.
        let alloc = ResourceAllocation::new();
        assert!(!mode_is_feasible(
            &spec,
            &alloc,
            &Selection::new(),
            &BindOptions::default()
        ));
    }

    #[test]
    fn step_budget_is_respected() {
        let (spec, _, with_fpga) = offload_spec();
        let options = BindOptions {
            max_steps: 1,
            ..BindOptions::default()
        };
        let (_, stats) = solve(&spec, &with_fpga, &Selection::new(), &options);
        assert!(stats.assignments <= 2);
    }
}
