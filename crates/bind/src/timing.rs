//! Timing validation of modes: period inheritance and per-resource
//! utilization tests.
//!
//! The paper's timing model (Section 5): timing constraints are given as
//! minimal periods of *output* processes (`P_D` every 240 ns, `P_U1`/`P_U2`
//! every 300 ns); the processes feeding an output within its period share
//! that period; negligible processes (authentication, controllers) are
//! excluded from the estimate; and a mode is accepted iff every resource's
//! utilization passes the schedulability test (the 69 % limit by default).

use flexplore_hgraph::{FlatGraph, VertexId};
use flexplore_sched::{SchedError, SchedPolicy, Task, TaskSet, Time};
use flexplore_spec::{Binding, CompiledActivation, SpecificationGraph};
use std::collections::BTreeMap;

/// Computes the *inherited period* of every vertex of a flattened problem
/// graph: the minimum period over all timing-constrained processes
/// reachable from it (including itself). Vertices that reach no constrained
/// process get `None` (unconstrained).
///
/// This realizes the paper's implicit rule that e.g. the decryption process
/// obeys the uncompression process's output period because the output
/// *"depends on data produced by"* it.
#[must_use]
pub fn inherited_periods(
    spec: &SpecificationGraph,
    flat: &FlatGraph,
) -> BTreeMap<VertexId, Option<Time>> {
    let mut periods: BTreeMap<VertexId, Option<Time>> = flat
        .vertices
        .iter()
        .map(|&v| (v, spec.problem().period(v)))
        .collect();
    // Propagate backwards along dependences until a fixed point: a
    // producer inherits the minimum period of its consumers.
    let mut changed = true;
    while changed {
        changed = false;
        for e in &flat.edges {
            let downstream = periods[&e.to];
            let Some(p_down) = downstream else { continue };
            let entry = periods.get_mut(&e.from).expect("edge endpoints in map");
            let better = match *entry {
                None => true,
                Some(p_up) => p_down < p_up,
            };
            if better {
                *entry = Some(p_down);
                changed = true;
            }
        }
    }
    periods
}

/// The timed processes of a bound mode, in flattened-vertex order: every
/// non-negligible bound process with an inherited period (looked up with
/// `period_of`), as `(process, resource, wcet, period)` — the WCET is the
/// bound mapping's latency.
fn timed_processes<'a>(
    spec: &'a SpecificationGraph,
    flat: &'a FlatGraph,
    binding: &'a Binding,
    period_of: impl Fn(VertexId) -> Option<Time> + 'a,
) -> impl Iterator<Item = (VertexId, VertexId, Time, Time)> + 'a {
    flat.vertices.iter().filter_map(move |&v| {
        if spec.problem().is_negligible(v) {
            return None;
        }
        let period = period_of(v)?;
        let mapping = spec.mapping(binding.mapping_for(v)?);
        Some((v, mapping.resource, mapping.latency, period))
    })
}

/// Groups the timed processes by resource and applies `policy` to each
/// resource's rate-monotonic demands. A zero period rejects the mode.
fn timing_accepts(
    spec: &SpecificationGraph,
    flat: &FlatGraph,
    binding: &Binding,
    period_of: impl Fn(VertexId) -> Option<Time>,
    policy: SchedPolicy,
) -> bool {
    let mut demands: BTreeMap<VertexId, Vec<(Time, Time)>> = BTreeMap::new();
    for (_, resource, wcet, period) in timed_processes(spec, flat, binding, period_of) {
        if period == Time::ZERO {
            return false;
        }
        // Rate-monotonic and stable, exactly as `TaskSet::push` orders.
        let list = demands.entry(resource).or_default();
        let at = list.partition_point(|&(_, p)| p <= period);
        list.insert(at, (wcet, period));
    }
    demands
        .values()
        .all(|list| policy.accepts_demands(list.iter().copied()))
}

/// Builds the per-resource periodic task sets induced by a bound mode:
/// every non-negligible process with an inherited period becomes a task
/// (WCET = the bound mapping's latency) on the resource it is bound to.
///
/// # Errors
///
/// Returns [`SchedError::ZeroPeriod`] when a timing-constrained process
/// declares a zero period. Hand-written models reach this path through
/// JSON loading, so the defect is reported as a typed error instead of a
/// panic.
pub fn resource_task_sets(
    spec: &SpecificationGraph,
    flat: &FlatGraph,
    binding: &Binding,
) -> Result<BTreeMap<VertexId, TaskSet>, SchedError> {
    let periods = inherited_periods(spec, flat);
    let mut sets: BTreeMap<VertexId, TaskSet> = BTreeMap::new();
    let timed = timed_processes(spec, flat, binding, |v| periods.get(&v).copied().flatten());
    for (v, resource, wcet, period) in timed {
        let task = Task::try_new(spec.problem().process_name(v), wcet, period)?;
        sets.entry(resource).or_default().push(task);
    }
    Ok(sets)
}

/// Accepts or rejects a bound mode: every resource's task set must pass
/// `policy`. A mode with a zero-period task is rejected outright (no
/// schedule admits it).
///
/// Derives the inherited periods from `flat` itself; a caller holding the
/// compiled activation uses [`activation_meets_timing`] instead.
///
/// # Examples
///
/// The paper's rejection of the game console on µP2 comes out of this test
/// (see the crate-level docs of `flexplore-bind` for the full model).
#[must_use]
pub fn mode_meets_timing(
    spec: &SpecificationGraph,
    flat: &FlatGraph,
    binding: &Binding,
    policy: SchedPolicy,
) -> bool {
    let periods = inherited_periods(spec, flat);
    timing_accepts(
        spec,
        flat,
        binding,
        |v| periods.get(&v).copied().flatten(),
        policy,
    )
}

/// [`mode_meets_timing`] over a compiled activation: its flattened graph
/// and its dense inherited-period table, so no period fixed point runs.
#[must_use]
pub fn activation_meets_timing(
    spec: &SpecificationGraph,
    activation: &CompiledActivation,
    binding: &Binding,
    policy: SchedPolicy,
) -> bool {
    timing_accepts(
        spec,
        &activation.flat,
        binding,
        |v| activation.periods.get(v.index()).copied().flatten(),
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_hgraph::{Scope, Selection};
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs};

    /// The paper's game-console shape: ctrl (negligible) -> core -> accel
    /// with accel period 240.
    fn game_spec(
        core_lat: u64,
        accel_lat: u64,
    ) -> (SpecificationGraph, VertexId, VertexId, VertexId) {
        let mut p = ProblemGraph::new("game");
        let ctrl = p.add_process_with(Scope::Top, "P_CG", ProcessAttrs::new().negligible());
        let core = p.add_process(Scope::Top, "P_G1");
        let accel = p.add_process_with(
            Scope::Top,
            "P_D",
            ProcessAttrs::new().with_period(Time::from_ns(240)),
        );
        p.add_dependence(ctrl, core).unwrap();
        p.add_dependence(core, accel).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let up = a.add_resource(Scope::Top, "uP", Cost::new(100));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(ctrl, up, Time::from_ns(25)).unwrap();
        spec.add_mapping(core, up, Time::from_ns(core_lat)).unwrap();
        spec.add_mapping(accel, up, Time::from_ns(accel_lat))
            .unwrap();
        (spec, ctrl, core, accel)
    }

    fn full_binding(spec: &SpecificationGraph) -> Binding {
        spec.mapping_ids()
            .map(|m| (spec.mapping(m).process, m))
            .collect()
    }

    #[test]
    fn periods_inherit_upstream() {
        let (spec, ctrl, core, accel) = game_spec(95, 90);
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        let periods = inherited_periods(&spec, &flat);
        assert_eq!(periods[&accel], Some(Time::from_ns(240)));
        assert_eq!(periods[&core], Some(Time::from_ns(240)));
        assert_eq!(periods[&ctrl], Some(Time::from_ns(240)));
    }

    #[test]
    fn paper_game_on_up2_is_rejected() {
        // 95 + 90 > 0.69 * 240 (controller negligible).
        let (spec, _, _, _) = game_spec(95, 90);
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        let binding = full_binding(&spec);
        assert!(!mode_meets_timing(
            &spec,
            &flat,
            &binding,
            SchedPolicy::PaperLimit69
        ));
    }

    #[test]
    fn paper_game_on_up1_is_accepted() {
        // 75 + 70 <= 0.69 * 240.
        let (spec, _, _, _) = game_spec(75, 70);
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        let binding = full_binding(&spec);
        assert!(mode_meets_timing(
            &spec,
            &flat,
            &binding,
            SchedPolicy::PaperLimit69
        ));
    }

    #[test]
    fn negligible_processes_are_excluded() {
        let (spec, _, core, accel) = game_spec(75, 70);
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        let binding = full_binding(&spec);
        let sets = resource_task_sets(&spec, &flat, &binding).unwrap();
        let up_set = sets.values().next().unwrap();
        // ctrl excluded: only core + accel.
        assert_eq!(up_set.len(), 2);
        let names: Vec<&str> = up_set.iter().map(Task::name).collect();
        assert!(names.contains(&spec.problem().process_name(core)));
        assert!(names.contains(&spec.problem().process_name(accel)));
    }

    #[test]
    fn unconstrained_chain_has_no_tasks() {
        let mut p = ProblemGraph::new("browser");
        let a = p.add_process(Scope::Top, "parse");
        let b = p.add_process(Scope::Top, "format");
        p.add_dependence(a, b).unwrap();
        let mut arch = ArchitectureGraph::new("a");
        let up = arch.add_resource(Scope::Top, "uP", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, arch);
        spec.add_mapping(a, up, Time::from_ns(1000)).unwrap();
        spec.add_mapping(b, up, Time::from_ns(2000)).unwrap();
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        let binding = full_binding(&spec);
        assert!(resource_task_sets(&spec, &flat, &binding)
            .unwrap()
            .is_empty());
        assert!(mode_meets_timing(
            &spec,
            &flat,
            &binding,
            SchedPolicy::PaperLimit69
        ));
    }

    #[test]
    fn min_period_wins_with_multiple_sinks() {
        // src feeds two sinks with periods 100 and 50: src inherits 50.
        let mut p = ProblemGraph::new("p");
        let src = p.add_process(Scope::Top, "src");
        let s1 = p.add_process_with(
            Scope::Top,
            "s1",
            ProcessAttrs::new().with_period(Time::from_ns(100)),
        );
        let s2 = p.add_process_with(
            Scope::Top,
            "s2",
            ProcessAttrs::new().with_period(Time::from_ns(50)),
        );
        p.add_dependence(src, s1).unwrap();
        p.add_dependence(src, s2).unwrap();
        let arch = {
            let mut a = ArchitectureGraph::new("a");
            a.add_resource(Scope::Top, "uP", Cost::new(1));
            a
        };
        let spec = SpecificationGraph::new("s", p, arch);
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        let periods = inherited_periods(&spec, &flat);
        assert_eq!(periods[&src], Some(Time::from_ns(50)));
    }

    #[test]
    fn tasks_split_across_resources_are_tested_separately() {
        // core on asic, accel on up: each resource tested alone, so the
        // combination passes even though the sum would fail on one CPU.
        let mut p = ProblemGraph::new("p");
        let core = p.add_process(Scope::Top, "core");
        let accel = p.add_process_with(
            Scope::Top,
            "accel",
            ProcessAttrs::new().with_period(Time::from_ns(240)),
        );
        p.add_dependence(core, accel).unwrap();
        let mut a = ArchitectureGraph::new("a");
        let up = a.add_resource(Scope::Top, "uP", Cost::new(1));
        let asic = a.add_resource(Scope::Top, "A", Cost::new(1));
        let bus = a.add_bus(Scope::Top, "bus", Cost::new(1));
        a.connect(up, bus).unwrap();
        a.connect(bus, asic).unwrap();
        let mut spec = SpecificationGraph::new("s", p, a);
        let m_core = spec.add_mapping(core, asic, Time::from_ns(95)).unwrap();
        let m_accel = spec.add_mapping(accel, up, Time::from_ns(90)).unwrap();
        let binding = Binding::new().with(core, m_core).with(accel, m_accel);
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        assert!(mode_meets_timing(
            &spec,
            &flat,
            &binding,
            SchedPolicy::PaperLimit69
        ));
        let sets = resource_task_sets(&spec, &flat, &binding).unwrap();
        assert_eq!(sets.len(), 2);
    }

    #[test]
    fn zero_period_is_a_typed_error_not_a_panic() {
        // A hand-edited model can declare a zero output period; the timing
        // layer must reject it, not crash the explorer.
        let mut p = ProblemGraph::new("p");
        let out = p.add_process_with(
            Scope::Top,
            "out",
            ProcessAttrs::new().with_period(Time::ZERO),
        );
        let mut a = ArchitectureGraph::new("a");
        let up = a.add_resource(Scope::Top, "uP", Cost::new(1));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(out, up, Time::from_ns(10)).unwrap();
        let flat = spec.problem().flatten(&Selection::new()).unwrap();
        let binding = full_binding(&spec);
        let err = resource_task_sets(&spec, &flat, &binding).unwrap_err();
        assert!(matches!(err, SchedError::ZeroPeriod { .. }));
        assert!(!mode_meets_timing(
            &spec,
            &flat,
            &binding,
            SchedPolicy::PaperLimit69
        ));
    }
}
