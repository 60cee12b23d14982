//! Deterministic resource-failure injection and graceful degradation.
//!
//! The paper's flexibility metric counts the behaviors a platform can
//! adopt; this module asks what that headroom buys when the platform
//! starts *losing* resources at run time. A [`FaultPlan`] — scripted or
//! seeded-random — injects transient and permanent resource failures into
//! an [`AdaptiveSystem`]; on each failure the manager re-resolves the
//! running behavior to a feasible mode that avoids the dead resources:
//!
//! 1. **surviving mode** — another precomputed mode of the implementation
//!    realizes the same top-level behavior without the failed resource
//!    (a different cluster alternative: exactly the paper's flexibility);
//! 2. **rebound mode** — the binding solver is re-run over the surviving
//!    resources (the same [`solve_mode`] search used at exploration time,
//!    with the dead set masked out of the communication graph);
//! 3. **policy fallback** — if neither exists, the configured
//!    [`DegradationPolicy`] decides: fail fast, drop the behavior and
//!    carry on, or queue it for bounded retries in simulated time.
//!
//! Everything is deterministic given the seed: same plan, same trace, same
//! timeline, on every platform.

use crate::error::AdaptiveError;
use crate::manager::{AdaptiveStats, AdaptiveSystem, ReconfigCost, SwitchEvent};
use flexplore_bind::{
    implement_allocation, solve_mode, BindOptions, CommGraph, ImplementOptions, Implementation,
    ModeImplementation, ObsSink,
};
use flexplore_hgraph::{Scope, Selection, VertexId};
use flexplore_sched::Time;
use flexplore_spec::{CompiledSpec, SpecificationGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The two failure classes of the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The resource comes back after `outage` of simulated time.
    Transient {
        /// How long the resource stays down.
        outage: Time,
    },
    /// The resource never comes back.
    Permanent,
}

/// One scheduled resource failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedFault {
    /// Simulated time of the failure.
    pub at: Time,
    /// The architecture vertex (processor, bus, or loaded design) that
    /// goes down.
    pub resource: VertexId,
    /// Transient or permanent.
    pub kind: FaultKind,
}

/// Parameters of a seeded-random fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomFaultConfig {
    /// Number of failures to inject.
    pub faults: usize,
    /// Failures are drawn uniformly over `[0, horizon)`.
    pub horizon: Time,
    /// Probability that a failure is transient (vs. permanent).
    pub transient_probability: f64,
    /// Minimum outage of a transient failure.
    pub min_outage: Time,
    /// Maximum outage of a transient failure (inclusive).
    pub max_outage: Time,
}

impl Default for RandomFaultConfig {
    fn default() -> Self {
        RandomFaultConfig {
            faults: 2,
            horizon: Time::from_ns(100_000),
            transient_probability: 0.5,
            min_outage: Time::from_ns(1_000),
            max_outage: Time::from_ns(10_000),
        }
    }
}

/// A schedule of resource failures, kept sorted by time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// Creates an empty plan (no failures — the baseline).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Creates a plan from explicit failures, sorting them by time
    /// (ties broken by resource id, then by kind order in `faults`).
    #[must_use]
    pub fn scripted(mut faults: Vec<PlannedFault>) -> Self {
        faults.sort_by_key(|f| (f.at, f.resource));
        FaultPlan { faults }
    }

    /// Adds one failure, keeping the plan sorted.
    #[must_use]
    pub fn with_fault(mut self, at: Time, resource: VertexId, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault { at, resource, kind });
        self.faults.sort_by_key(|f| (f.at, f.resource));
        self
    }

    /// Generates a seeded-random plan over `candidates` (typically the
    /// allocated resources). Equal seeds and inputs yield identical plans.
    #[must_use]
    pub fn randomized(seed: u64, candidates: &[VertexId], config: &RandomFaultConfig) -> Self {
        if candidates.is_empty() || config.faults == 0 {
            return FaultPlan::new();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = config.horizon.as_ns().max(1);
        let faults = (0..config.faults)
            .map(|_| {
                let resource = candidates[rng.random_range(0..candidates.len())];
                let at = Time::from_ns(rng.random_range(0..horizon));
                let kind = if rng.random_bool(config.transient_probability) {
                    let (lo, hi) = (config.min_outage.as_ns(), config.max_outage.as_ns());
                    FaultKind::Transient {
                        outage: Time::from_ns(rng.random_range(lo..=hi.max(lo))),
                    }
                } else {
                    FaultKind::Permanent
                };
                PlannedFault { at, resource, kind }
            })
            .collect();
        FaultPlan::scripted(faults)
    }

    /// The scheduled failures, in time order.
    #[must_use]
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Returns `true` when the plan schedules no failure.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Details of one resource failure currently in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// When the resource went down.
    pub since: Time,
    /// Scheduled self-recovery time for transient faults; `None` for
    /// permanent failures.
    pub recovers_at: Option<Time>,
}

/// Per-resource health, tracked by [`AdaptiveSystem`]. Healthy resources
/// are simply absent from the map.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceHealth {
    failed: std::collections::BTreeMap<VertexId, FailureRecord>,
}

impl ResourceHealth {
    /// Returns `true` when `resource` is up.
    #[must_use]
    pub fn is_healthy(&self, resource: VertexId) -> bool {
        !self.failed.contains_key(&resource)
    }

    /// Returns `true` when no resource is down.
    #[must_use]
    pub fn all_healthy(&self) -> bool {
        self.failed.is_empty()
    }

    /// The set of currently-failed resources.
    #[must_use]
    pub fn dead(&self) -> BTreeSet<VertexId> {
        self.failed.keys().copied().collect()
    }

    /// The failure record of `resource`, if it is down.
    #[must_use]
    pub fn failure(&self, resource: VertexId) -> Option<&FailureRecord> {
        self.failed.get(&resource)
    }

    /// Marks `resource` failed; returns `false` (and changes nothing) when
    /// it already was.
    pub(crate) fn fail(
        &mut self,
        resource: VertexId,
        since: Time,
        recovers_at: Option<Time>,
    ) -> bool {
        if self.failed.contains_key(&resource) {
            return false;
        }
        self.failed
            .insert(resource, FailureRecord { since, recovers_at });
        true
    }

    /// Marks `resource` healthy again; returns `false` when it was not
    /// failed.
    pub(crate) fn recover(&mut self, resource: VertexId) -> bool {
        self.failed.remove(&resource).is_some()
    }
}

/// What the manager does when a failure leaves the running behavior with
/// no surviving or rebound mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegradationPolicy {
    /// Return a typed error; the scenario aborts at the first unrecoverable
    /// loss.
    FailFast,
    /// Record the loss and keep serving later requests on what is left.
    #[default]
    BestEffort,
    /// Queue the lost behavior and retry it with a fixed backoff in
    /// simulated time, up to a bounded number of attempts, then record the
    /// loss.
    QueuedRetry {
        /// Maximum retry attempts before giving up.
        max_attempts: u32,
        /// Simulated time between attempts.
        backoff: Time,
    },
}

/// One entry of the degradation timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTimelineEvent {
    /// A resource went down.
    ResourceFailed {
        /// Simulated time of the failure.
        at: Time,
        /// The failed resource.
        resource: VertexId,
        /// `true` for permanent failures.
        permanent: bool,
    },
    /// A transiently-failed resource came back.
    ResourceRecovered {
        /// Simulated time of the recovery.
        at: Time,
        /// The recovered resource.
        resource: VertexId,
    },
    /// The running behavior was preserved by switching to a surviving or
    /// rebound mode that avoids the dead resources.
    DegradedSwitch {
        /// Simulated time of the switch.
        at: Time,
        /// The preserved top-level behavior.
        behavior: Selection,
        /// The problem selection of the mode that took over.
        mode: Selection,
        /// `true` when the mode was constructed by re-running the binding
        /// solver (rather than found among the precomputed modes).
        rebound: bool,
        /// Reconfiguration latency paid for the switch.
        reconfig_time: Time,
    },
    /// No surviving or rebound mode preserves the behavior; it is lost.
    BehaviorLost {
        /// Simulated time of the loss.
        at: Time,
        /// The lost top-level behavior.
        behavior: Selection,
    },
}

/// Outcome of one [`AdaptiveSystem::fail_resource`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeOutcome {
    /// The failure did not affect the running behavior (or the resource
    /// was already down).
    Unaffected,
    /// The running behavior was preserved by a degraded switch.
    Degraded,
    /// The behavior was queued for retry
    /// ([`DegradationPolicy::QueuedRetry`]).
    Queued {
        /// The top-level behavior awaiting retry.
        behavior: Selection,
    },
    /// The behavior was lost ([`DegradationPolicy::BestEffort`]).
    Lost {
        /// The lost top-level behavior.
        behavior: Selection,
    },
}

fn matches_behavior(mode: &ModeImplementation, behavior: &Selection) -> bool {
    behavior
        .iter()
        .all(|(i, c)| mode.mode.problem.get(i) == Some(c))
}

impl<'a> AdaptiveSystem<'a> {
    /// The per-resource health map.
    #[must_use]
    pub fn health(&self) -> &ResourceHealth {
        &self.health
    }

    /// The recorded degradation timeline (failures, recoveries, degraded
    /// switches, lost behaviors), separate from the behavior-switch
    /// timeline.
    #[must_use]
    pub fn fault_timeline(&self) -> &[FaultTimelineEvent] {
        &self.fault_timeline
    }

    /// Injects a resource failure at simulated time `at` and re-resolves
    /// the running behavior if the failure takes it down.
    ///
    /// Failing an already-failed resource is a no-op reported as
    /// [`DegradeOutcome::Unaffected`].
    ///
    /// # Errors
    ///
    /// Returns [`AdaptiveError::DegradationFailed`] when the behavior is
    /// unrecoverable and the policy is [`DegradationPolicy::FailFast`].
    pub fn fail_resource(
        &mut self,
        at: Time,
        resource: VertexId,
        kind: FaultKind,
    ) -> Result<DegradeOutcome, AdaptiveError> {
        let recovers_at = match kind {
            FaultKind::Transient { outage } => Some(at + outage),
            FaultKind::Permanent => None,
        };
        if !self.health.fail(resource, at, recovers_at) {
            return Ok(DegradeOutcome::Unaffected);
        }
        self.stats.failures += 1;
        self.fault_timeline
            .push(FaultTimelineEvent::ResourceFailed {
                at,
                resource,
                permanent: recovers_at.is_none(),
            });
        let behavior = match self.current {
            Some(k) if !self.mode_survives(self.mode_at(k)) => {
                self.top_behavior_of(&self.mode_at(k).mode.problem)
            }
            _ => return Ok(DegradeOutcome::Unaffected),
        };
        if self.resume_behavior(at, &behavior) {
            return Ok(DegradeOutcome::Degraded);
        }
        self.current = None;
        match self.policy {
            DegradationPolicy::FailFast => {
                Err(AdaptiveError::DegradationFailed { resource, behavior })
            }
            DegradationPolicy::BestEffort => {
                self.record_behavior_lost(at, behavior.clone());
                Ok(DegradeOutcome::Lost { behavior })
            }
            DegradationPolicy::QueuedRetry { .. } => Ok(DegradeOutcome::Queued { behavior }),
        }
    }

    /// Brings a transiently-failed resource back up at simulated time
    /// `at`. Returns `false` when the resource was not down.
    pub fn recover_resource(&mut self, at: Time, resource: VertexId) -> bool {
        if !self.health.recover(resource) {
            return false;
        }
        self.stats.recoveries += 1;
        self.fault_timeline
            .push(FaultTimelineEvent::ResourceRecovered { at, resource });
        true
    }

    /// Attempts to (re)establish `behavior` (a top-level problem
    /// selection) on the healthy part of the platform: first among the
    /// precomputed and previously-rebound modes, then by re-running the
    /// binding solver with the dead resources masked out. On success the
    /// switch is applied and recorded as a
    /// [`FaultTimelineEvent::DegradedSwitch`].
    pub fn resume_behavior(&mut self, at: Time, behavior: &Selection) -> bool {
        let found = (0..self.mode_count()).find(|&k| {
            let m = self.mode_at(k);
            matches_behavior(m, behavior) && self.mode_survives(m)
        });
        let (index, rebound) = match found {
            Some(k) => (k, false),
            None => match self.rebind_behavior(behavior) {
                Some(k) => (k, true),
                None => return false,
            },
        };
        let (_, reconfig_time) = self.apply_device_state(index);
        self.current = Some(index);
        self.stats.degraded_switches += 1;
        let mode = self.mode_at(index).mode.problem.clone();
        self.fault_timeline
            .push(FaultTimelineEvent::DegradedSwitch {
                at,
                behavior: behavior.clone(),
                mode,
                rebound,
                reconfig_time,
            });
        true
    }

    /// Records a definitive behavior loss on the degradation timeline.
    pub(crate) fn record_behavior_lost(&mut self, at: Time, behavior: Selection) {
        self.stats.behaviors_lost += 1;
        self.fault_timeline
            .push(FaultTimelineEvent::BehaviorLost { at, behavior });
    }

    /// Returns `true` when `mode` runs entirely on healthy resources and
    /// every dependence between its bound processes remains routable over
    /// the surviving communication graph (a dead bus kills a mode even
    /// though no process is bound to it).
    pub(crate) fn mode_survives(&self, mode: &ModeImplementation) -> bool {
        if self.health.all_healthy() {
            return true;
        }
        let available = self.surviving_available();
        if !mode
            .binding
            .iter()
            .all(|(_, m)| available.contains(&self.spec.mapping(m).resource))
        {
            return false;
        }
        let Ok(flat) = self.spec.problem().flatten(&mode.mode.problem) else {
            return false;
        };
        let comm = CommGraph::new(self.spec.architecture(), &available);
        flat.edges.iter().all(|e| {
            match (
                mode.binding.resource_for(self.spec, e.from),
                mode.binding.resource_for(self.spec, e.to),
            ) {
                (Some(rf), Some(rt)) => comm.comm_ok(rf, rt),
                _ => true,
            }
        })
    }

    /// The allocated vertices minus the currently-dead ones.
    fn surviving_available(&self) -> BTreeSet<VertexId> {
        let mut available = self
            .implementation
            .allocation
            .available_vertices(self.spec.architecture());
        for v in self.health.dead() {
            available.remove(&v);
        }
        available
    }

    /// Projects a full problem selection to its top-level interfaces: the
    /// user-visible behavior that degradation tries to preserve (nested
    /// cluster alternatives are free to change — that is the flexibility).
    fn top_behavior_of(&self, problem: &Selection) -> Selection {
        let graph = self.spec.problem().graph();
        graph
            .interfaces_in(Scope::Top)
            .filter_map(|i| problem.get(i).map(|c| (i, c)))
            .collect()
    }

    /// Tries to construct a fresh mode for `behavior` by re-running the
    /// binding solver over the surviving resources (the dead set is masked
    /// out of the communication graph, so the same search that built the
    /// implementation now avoids it). The new mode is appended to the
    /// degraded-mode overlay; its index is returned.
    fn rebind_behavior(&mut self, behavior: &Selection) -> Option<usize> {
        if self.health.all_healthy() {
            return None;
        }
        let available = self.surviving_available();
        let compiled = CompiledSpec::new(self.spec);
        let comm = CommGraph::from_compiled(&compiled, &available);
        let ecas = self.spec.problem().graph().enumerate_selections().ok()?;
        let options = BindOptions::default();
        for eca in &ecas {
            if !behavior.iter().all(|(i, c)| eca.get(i) == Some(c)) {
                continue;
            }
            let allocation = &self.implementation.allocation;
            let (solved, _) = solve_mode(&compiled, allocation, &comm, eca, &options);
            if let Some(mode) = solved {
                return Some(self.adopt_degraded_mode(mode));
            }
        }
        None
    }

    /// Like [`rebind_behavior`](Self::rebind_behavior) but matching the
    /// stricter request semantics of `switch_to` (exact agreement on the
    /// active interfaces of the request).
    pub(crate) fn rebind_for_request(&mut self, requested: &Selection) -> Option<usize> {
        if self.health.all_healthy() {
            return None;
        }
        let active = self.spec.problem().graph().active_under(requested).ok()?;
        let available = self.surviving_available();
        let compiled = CompiledSpec::new(self.spec);
        let comm = CommGraph::from_compiled(&compiled, &available);
        let ecas = self.spec.problem().graph().enumerate_selections().ok()?;
        let options = BindOptions::default();
        for eca in &ecas {
            if !active
                .interfaces
                .iter()
                .all(|&i| eca.get(i) == requested.get(i))
            {
                continue;
            }
            let allocation = &self.implementation.allocation;
            let (solved, _) = solve_mode(&compiled, allocation, &comm, eca, &options);
            if let Some(mode) = solved {
                return Some(self.adopt_degraded_mode(mode));
            }
        }
        None
    }

    /// Stores a rebound mode in the overlay (deduplicating) and returns
    /// its global index.
    fn adopt_degraded_mode(&mut self, mode: ModeImplementation) -> usize {
        let precomputed = self.implementation.modes.len();
        if let Some(k) = self.degraded_modes.iter().position(|m| *m == mode) {
            return precomputed + k;
        }
        self.degraded_modes.push(mode);
        precomputed + self.degraded_modes.len() - 1
    }
}

/// A complete fault scenario: the failure schedule, the degradation
/// policy, and the pacing of behavior requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// The failure schedule.
    pub plan: FaultPlan,
    /// What to do when a behavior cannot be preserved.
    pub policy: DegradationPolicy,
    /// Requests fire at `k * dwell` for the `k`-th trace entry.
    pub dwell: Time,
}

impl Default for FaultScenario {
    fn default() -> Self {
        FaultScenario {
            plan: FaultPlan::new(),
            policy: DegradationPolicy::default(),
            dwell: Time::from_ns(1_000),
        }
    }
}

/// Result of [`run_with_faults`]: the two timelines plus the flexibility
/// the platform retains after the scenario's failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Aggregate statistics (switches, rejections, failures, losses, …).
    pub stats: AdaptiveStats,
    /// The behavior-switch timeline (requests only; degraded switches are
    /// on the fault timeline).
    pub switch_timeline: Vec<SwitchEvent>,
    /// The degradation timeline.
    pub fault_timeline: Vec<FaultTimelineEvent>,
    /// Flexibility of the fault-free implementation (Definition 4).
    pub baseline_flexibility: u64,
    /// Flexibility the platform still implements with the dead resources
    /// masked out, per the same definition (0 when a whole top-level
    /// behavior became unimplementable). Equals the baseline when every
    /// failure recovered.
    pub surviving_flexibility: u64,
}

#[derive(Debug)]
struct PendingRetry {
    behavior: Selection,
    next_at: Time,
    remaining: u32,
    backoff: Time,
}

#[derive(Debug)]
enum QueuedAction {
    Recover { resource: VertexId },
    Fail { fault: PlannedFault },
    Request { index: usize },
}

/// Replays `trace` against `implementation` while injecting the
/// scenario's faults, in one merged simulated-time order: the `k`-th
/// request fires at `k * dwell`; failures and recoveries fire at their
/// scheduled times (recoveries before failures before requests on ties).
/// Rejected requests are recorded, not fatal (as in
/// [`evaluate_platform`](crate::evaluate_platform)).
///
/// With an empty plan this is behavior-for-behavior identical to a plain
/// trace replay — the determinism property tests assert byte-identical
/// switch timelines.
///
/// # Errors
///
/// Returns [`AdaptiveError::DegradationFailed`] under
/// [`DegradationPolicy::FailFast`] at the first unrecoverable loss, and
/// [`AdaptiveError::Rebind`] if the surviving-flexibility computation
/// exceeds a binding bound (practically unreachable at paper scale).
pub fn run_with_faults(
    spec: &SpecificationGraph,
    implementation: &Implementation,
    reconfig: ReconfigCost,
    trace: &[Selection],
    scenario: &FaultScenario,
) -> Result<FaultReport, AdaptiveError> {
    let mut system =
        AdaptiveSystem::new(spec, implementation, reconfig).with_policy(scenario.policy);

    // Merge requests, failures, and derived recoveries into one queue.
    // Class order on equal times: recoveries (0), failures (1), requests
    // (2); insertion order breaks remaining ties.
    let mut queue: Vec<(Time, u8, usize, QueuedAction)> = Vec::new();
    for (k, fault) in scenario.plan.faults().iter().enumerate() {
        queue.push((fault.at, 1, k, QueuedAction::Fail { fault: *fault }));
        if let FaultKind::Transient { outage } = fault.kind {
            queue.push((
                fault.at + outage,
                0,
                k,
                QueuedAction::Recover {
                    resource: fault.resource,
                },
            ));
        }
    }
    for k in 0..trace.len() {
        queue.push((
            scenario.dwell * k as u64,
            2,
            k,
            QueuedAction::Request { index: k },
        ));
    }
    queue.sort_by_key(|&(at, class, seq, _)| (at, class, seq));

    let mut retries: Vec<PendingRetry> = Vec::new();
    for (at, _, _, action) in queue {
        service_due_retries(&mut system, &mut retries, Some(at));
        match action {
            QueuedAction::Recover { resource } => {
                system.recover_resource(at, resource);
            }
            QueuedAction::Fail { fault } => {
                match system.fail_resource(at, fault.resource, fault.kind)? {
                    DegradeOutcome::Queued { behavior } => {
                        if let DegradationPolicy::QueuedRetry {
                            max_attempts,
                            backoff,
                        } = scenario.policy
                        {
                            if max_attempts == 0 {
                                system.record_behavior_lost(at, behavior);
                            } else {
                                retries.push(PendingRetry {
                                    behavior,
                                    next_at: at + backoff,
                                    remaining: max_attempts,
                                    backoff,
                                });
                            }
                        }
                    }
                    DegradeOutcome::Unaffected
                    | DegradeOutcome::Degraded
                    | DegradeOutcome::Lost { .. } => {}
                }
            }
            QueuedAction::Request { index } => {
                // Rejections are part of the measurement.
                let _ = system.switch_to(&trace[index]);
            }
        }
    }
    // Flush retries scheduled past the last event.
    service_due_retries(&mut system, &mut retries, None);

    let baseline_flexibility = implementation.flexibility;
    let surviving_flexibility = if system.health().all_healthy() {
        baseline_flexibility
    } else {
        let options = ImplementOptions::default().with_excluded_resources(system.health().dead());
        implement_allocation(
            &CompiledSpec::new(spec),
            &implementation.allocation,
            &options,
            None,
            &ObsSink::disabled(),
        )?
        .0
        .map_or(0, |i| i.flexibility)
    };
    Ok(FaultReport {
        stats: system.stats(),
        switch_timeline: system.timeline().to_vec(),
        fault_timeline: system.fault_timeline().to_vec(),
        baseline_flexibility,
        surviving_flexibility,
    })
}

/// Services every pending retry due at or before `now` (all of them when
/// `now` is `None`), in schedule order. A failed attempt reschedules with
/// its backoff until its attempt budget runs out, then records the loss.
fn service_due_retries(
    system: &mut AdaptiveSystem<'_>,
    retries: &mut Vec<PendingRetry>,
    now: Option<Time>,
) {
    loop {
        let due = retries
            .iter()
            .enumerate()
            .filter(|(_, r)| now.is_none_or(|t| r.next_at <= t))
            .min_by_key(|(k, r)| (r.next_at, *k))
            .map(|(k, _)| k);
        let Some(k) = due else { return };
        let mut retry = retries.remove(k);
        if system.resume_behavior(retry.next_at, &retry.behavior) {
            continue;
        }
        if retry.remaining <= 1 {
            system.record_behavior_lost(retry.next_at, retry.behavior);
        } else {
            retry.remaining -= 1;
            retry.next_at += retry.backoff;
            retries.push(retry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexplore_bind::implement_default;
    use flexplore_models::set_top_box;
    use flexplore_spec::{ArchitectureGraph, Cost, ProblemGraph, ProcessAttrs, ResourceAllocation};

    /// The $290 platform: µP2 + C1 + all three FPGA designs.
    fn platform() -> (flexplore_models::SetTopBox, Implementation) {
        let stb = set_top_box();
        let allocation = ResourceAllocation::new()
            .with_vertex(stb.resource("uP2"))
            .with_vertex(stb.resource("C1"))
            .with_cluster(stb.design("D3"))
            .with_cluster(stb.design("U2"))
            .with_cluster(stb.design("G1"));
        let implementation = implement_default(&stb.spec, &allocation).expect("feasible");
        (stb, implementation)
    }

    fn tv(stb: &flexplore_models::SetTopBox, d: &str, u: &str) -> Selection {
        Selection::new()
            .with(stb.interfaces["I_app"], stb.cluster("gamma_D"))
            .with(stb.interfaces["I_D"], stb.cluster(d))
            .with(stb.interfaces["I_U"], stb.cluster(u))
    }

    #[test]
    fn permanent_design_failure_degrades_to_surviving_mode() {
        let (stb, implementation) = platform();
        let mut system = AdaptiveSystem::new(&stb.spec, &implementation, ReconfigCost::Free);
        system.switch_to(&tv(&stb, "gamma_D3", "gamma_U1")).unwrap();
        let out = system
            .fail_resource(Time::from_ns(10), stb.resource("D3"), FaultKind::Permanent)
            .unwrap();
        assert_eq!(out, DegradeOutcome::Degraded);
        // TV stays up, on a decoder alternative that avoids the dead design.
        let mode = system.current_mode().expect("still running");
        assert_ne!(
            mode.mode.problem.get(stb.interfaces["I_D"]),
            Some(stb.cluster("gamma_D3"))
        );
        let events = system.fault_timeline();
        assert!(matches!(
            events[0],
            FaultTimelineEvent::ResourceFailed {
                permanent: true,
                ..
            }
        ));
        assert!(matches!(
            &events[1],
            FaultTimelineEvent::DegradedSwitch { rebound: false, .. }
        ));
        assert_eq!(system.stats().degraded_switches, 1);
    }

    #[test]
    fn transient_failure_recovers_and_the_mode_returns() {
        let (stb, implementation) = platform();
        let mut system = AdaptiveSystem::new(&stb.spec, &implementation, ReconfigCost::Free);
        system.switch_to(&tv(&stb, "gamma_D3", "gamma_U1")).unwrap();
        let d3 = stb.resource("D3");
        system
            .fail_resource(
                Time::from_ns(10),
                d3,
                FaultKind::Transient {
                    outage: Time::from_ns(5),
                },
            )
            .unwrap();
        assert!(!system.health().is_healthy(d3));
        assert_eq!(
            system.health().failure(d3).unwrap().recovers_at,
            Some(Time::from_ns(15))
        );
        assert!(system.recover_resource(Time::from_ns(15), d3));
        assert!(system.health().all_healthy());
        // The original D3 mode is eligible again.
        system.switch_to(&tv(&stb, "gamma_D3", "gamma_U1")).unwrap();
        assert_eq!(
            system
                .current_mode()
                .unwrap()
                .mode
                .problem
                .get(stb.interfaces["I_D"]),
            Some(stb.cluster("gamma_D3"))
        );
        assert_eq!(system.stats().recoveries, 1);
        assert_eq!(system.stats().failures, 1);
    }

    #[test]
    fn processor_loss_drops_the_behavior_under_best_effort() {
        let (stb, implementation) = platform();
        let mut system = AdaptiveSystem::new(&stb.spec, &implementation, ReconfigCost::Free);
        system.switch_to(&tv(&stb, "gamma_D1", "gamma_U1")).unwrap();
        let out = system
            .fail_resource(Time::from_ns(10), stb.resource("uP2"), FaultKind::Permanent)
            .unwrap();
        assert!(matches!(out, DegradeOutcome::Lost { .. }));
        assert!(system.current_mode().is_none());
        assert_eq!(system.stats().behaviors_lost, 1);
        assert!(matches!(
            system.fault_timeline().last().unwrap(),
            FaultTimelineEvent::BehaviorLost { .. }
        ));
    }

    #[test]
    fn fail_fast_surfaces_a_typed_error() {
        let (stb, implementation) = platform();
        let mut system = AdaptiveSystem::new(&stb.spec, &implementation, ReconfigCost::Free)
            .with_policy(DegradationPolicy::FailFast);
        system.switch_to(&tv(&stb, "gamma_D1", "gamma_U1")).unwrap();
        let err = system
            .fail_resource(Time::from_ns(10), stb.resource("uP2"), FaultKind::Permanent)
            .unwrap_err();
        assert!(matches!(err, AdaptiveError::DegradationFailed { .. }));
    }

    /// One process, two plain resources: the solver prefers the fast one,
    /// so losing it exercises the rebind path.
    fn two_lane_spec() -> (SpecificationGraph, ResourceAllocation, VertexId, VertexId) {
        let mut p = ProblemGraph::new("p");
        let work = p.add_process_with(
            Scope::Top,
            "P_W",
            ProcessAttrs::new().with_period(Time::from_ns(100)),
        );
        let mut a = ArchitectureGraph::new("a");
        let fast = a.add_resource(Scope::Top, "R_fast", Cost::new(50));
        let slow = a.add_resource(Scope::Top, "R_slow", Cost::new(40));
        let mut spec = SpecificationGraph::new("s", p, a);
        spec.add_mapping(work, fast, Time::from_ns(10)).unwrap();
        spec.add_mapping(work, slow, Time::from_ns(50)).unwrap();
        let allocation = ResourceAllocation::new()
            .with_vertex(fast)
            .with_vertex(slow);
        (spec, allocation, fast, slow)
    }

    #[test]
    fn losing_the_bound_resource_rebinds_onto_the_survivor() {
        let (spec, allocation, fast, slow) = two_lane_spec();
        let implementation = implement_default(&spec, &allocation).expect("feasible");
        assert_eq!(implementation.modes.len(), 1);
        let mut system = AdaptiveSystem::new(&spec, &implementation, ReconfigCost::Free);
        system.switch_to(&Selection::new()).unwrap();
        let out = system
            .fail_resource(Time::from_ns(1), fast, FaultKind::Permanent)
            .unwrap();
        assert_eq!(out, DegradeOutcome::Degraded);
        let work = spec
            .problem()
            .graph()
            .vertex_by_name(Scope::Top, "P_W")
            .unwrap();
        let mode = system.current_mode().expect("rebound");
        assert_eq!(mode.binding.resource_for(&spec, work), Some(slow));
        assert!(matches!(
            system.fault_timeline().last().unwrap(),
            FaultTimelineEvent::DegradedSwitch { rebound: true, .. }
        ));
    }

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let candidates = [
            VertexId::from_index(0),
            VertexId::from_index(1),
            VertexId::from_index(2),
        ];
        let config = RandomFaultConfig {
            faults: 4,
            ..RandomFaultConfig::default()
        };
        let a = FaultPlan::randomized(9, &candidates, &config);
        let b = FaultPlan::randomized(9, &candidates, &config);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 4);
        let c = FaultPlan::randomized(10, &candidates, &config);
        assert_ne!(a, c);
        assert!(FaultPlan::randomized(9, &[], &config).is_empty());
    }

    #[test]
    fn empty_plan_keeps_the_baseline() {
        let (stb, implementation) = platform();
        let trace = vec![tv(&stb, "gamma_D3", "gamma_U1")];
        let report = run_with_faults(
            &stb.spec,
            &implementation,
            ReconfigCost::Free,
            &trace,
            &FaultScenario::default(),
        )
        .unwrap();
        assert!(report.fault_timeline.is_empty());
        assert_eq!(report.surviving_flexibility, report.baseline_flexibility);
        assert_eq!(report.stats.switches, 1);
    }

    #[test]
    fn scenario_runner_reports_degradation_and_surviving_flexibility() {
        let (stb, implementation) = platform();
        let trace = vec![
            tv(&stb, "gamma_D3", "gamma_U1"),
            tv(&stb, "gamma_D3", "gamma_U2"),
            tv(&stb, "gamma_D1", "gamma_U1"),
        ];
        let scenario = FaultScenario {
            plan: FaultPlan::new().with_fault(
                Time::from_ns(1_500),
                stb.resource("D3"),
                FaultKind::Permanent,
            ),
            ..FaultScenario::default()
        };
        let report = run_with_faults(
            &stb.spec,
            &implementation,
            ReconfigCost::Free,
            &trace,
            &scenario,
        )
        .unwrap();
        assert_eq!(report.stats.failures, 1);
        assert_eq!(report.stats.degraded_switches, 1);
        assert!(report.surviving_flexibility < report.baseline_flexibility);
        assert!(report
            .fault_timeline
            .iter()
            .any(|e| matches!(e, FaultTimelineEvent::DegradedSwitch { .. })));
    }

    #[test]
    fn queued_retry_resumes_after_a_transient_outage() {
        let (stb, implementation) = platform();
        let trace = vec![tv(&stb, "gamma_D1", "gamma_U1")];
        let scenario = FaultScenario {
            plan: FaultPlan::new().with_fault(
                Time::from_ns(500),
                stb.resource("uP2"),
                FaultKind::Transient {
                    outage: Time::from_ns(1_000),
                },
            ),
            policy: DegradationPolicy::QueuedRetry {
                max_attempts: 3,
                backoff: Time::from_ns(2_000),
            },
            dwell: Time::from_ns(1_000),
        };
        let report = run_with_faults(
            &stb.spec,
            &implementation,
            ReconfigCost::Free,
            &trace,
            &scenario,
        )
        .unwrap();
        // µP2 is back at t=1500; the queued retry at t=2500 resumes TV.
        assert_eq!(report.stats.behaviors_lost, 0);
        assert_eq!(report.stats.degraded_switches, 1);
        assert_eq!(report.surviving_flexibility, report.baseline_flexibility);
        assert!(report
            .fault_timeline
            .iter()
            .any(|e| matches!(e, FaultTimelineEvent::ResourceRecovered { .. })));
    }
}
