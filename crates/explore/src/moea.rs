//! Evolutionary baseline: an NSGA-II-style multi-objective EA over
//! resource-allocation genotypes.
//!
//! The paper builds on the evolutionary system-synthesis framework of
//! Blickle, Teich & Thiele \[2\]; this module provides that style of
//! explorer as a *baseline* to compare EXPLORE against (solution quality
//! per binding-solver invocation, anytime behavior). It is written from
//! scratch — no MOEA crate — with the standard NSGA-II machinery:
//! non-dominated sorting, crowding distance, binary tournaments, uniform
//! crossover and bit-flip mutation over one-bit-per-unit genotypes.

use crate::allocations::allocatable_units;
use crate::error::ExploreError;
use crate::pareto::{DesignPoint, ParetoFront};
use flexplore_bind::{implement_allocation, ImplementOptions};
use flexplore_flex::{estimate_with_compiled, Flexibility};
use flexplore_obs::ObsSink;
use flexplore_spec::{
    allocation_from_units, CompiledSpec, Cost, ResourceAllocation, SpecificationGraph, UnitMask,
    MAX_UNITS, UNIT_MASK_WORDS,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options for [`moea_explore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MoeaOptions {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Per-bit mutation probability; `None` uses `1/units`.
    pub mutation_rate: Option<f64>,
    /// Per-allocation implementation options.
    pub implement: ImplementOptions,
}

impl Default for MoeaOptions {
    fn default() -> Self {
        MoeaOptions {
            population: 32,
            generations: 25,
            seed: 0x5e7_70b,
            mutation_rate: None,
            implement: ImplementOptions::default(),
        }
    }
}

/// Result of an evolutionary exploration run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MoeaResult {
    /// Archive of feasible non-dominated points discovered.
    pub front: ParetoFront,
    /// Unique genotypes evaluated (= binding-solver invocations, counting
    /// the estimate-infeasible ones that were rejected cheaply).
    pub evaluations: u64,
    /// Of those, evaluations that invoked the binding solver.
    pub implement_attempts: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Objectives {
    cost: Cost,
    flexibility: Flexibility,
}

impl Objectives {
    /// Minimize cost, maximize flexibility; infeasible points (flex 0) are
    /// dominated by every feasible point.
    fn dominates(&self, other: &Objectives) -> bool {
        (self.cost <= other.cost && self.flexibility >= other.flexibility)
            && (self.cost < other.cost || self.flexibility > other.flexibility)
    }
}

/// Draws a uniform genotype of `n` unit bits. Below 64 units this is the
/// single `u64` draw the genotype used before masks went multi-word, so
/// seeded runs on such specs reproduce the historical populations; wider
/// genotypes draw each occupied mask word independently.
fn random_mask(rng: &mut StdRng, n: usize) -> UnitMask {
    let caps = UnitMask::full(n).into_words();
    if n <= 63 {
        UnitMask::from_words([rng.random_range(0..=caps[0]), 0, 0, 0])
    } else {
        let mut words = [0u64; UNIT_MASK_WORDS];
        for (w, &cap) in caps.iter().enumerate() {
            if cap > 0 {
                words[w] = rng.random_range(0..=cap);
            }
        }
        UnitMask::from_words(words)
    }
}

/// Runs the evolutionary baseline on `spec`.
///
/// # Errors
///
/// Returns [`ExploreError::Bind`] if an evaluation exceeds the
/// per-allocation activation bound, and [`ExploreError::TooManyUnits`] if
/// the architecture has more than [`MAX_UNITS`] allocatable units (the
/// genotype is a [`UnitMask`]).
pub fn moea_explore(
    spec: &SpecificationGraph,
    options: &MoeaOptions,
) -> Result<MoeaResult, ExploreError> {
    let units = allocatable_units(spec);
    if units.len() > MAX_UNITS {
        return Err(ExploreError::TooManyUnits {
            units: units.len(),
            max: MAX_UNITS,
        });
    }
    let n = units.len();
    let compiled = CompiledSpec::with_activation_cache(spec);
    let mutation = options.mutation_rate.unwrap_or(1.0 / (n.max(1) as f64));
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut cache: BTreeMap<UnitMask, Objectives> = BTreeMap::new();
    let mut front = ParetoFront::new();
    let mut implement_attempts: u64 = 0;

    let decode = |mask: UnitMask| -> ResourceAllocation { allocation_from_units(&units, mask) };

    // Evaluation with memoization; pushes feasible points into the archive.
    let evaluate = |mask: UnitMask,
                    cache: &mut BTreeMap<UnitMask, Objectives>,
                    front: &mut ParetoFront,
                    implement_attempts: &mut u64|
     -> Result<Objectives, ExploreError> {
        if let Some(&cached) = cache.get(&mask) {
            return Ok(cached);
        }
        let allocation = decode(mask);
        let cost = compiled.allocation_cost(&allocation);
        let available = compiled.available_vertices(&allocation);
        let estimate = estimate_with_compiled(&compiled, &available);
        let objectives = if !estimate.feasible {
            Objectives {
                cost,
                flexibility: 0,
            }
        } else {
            *implement_attempts += 1;
            let (implemented, _) = implement_allocation(
                &compiled,
                &allocation,
                &options.implement,
                None,
                &ObsSink::disabled(),
            )?;
            match implemented {
                None => Objectives {
                    cost,
                    flexibility: 0,
                },
                Some(implementation) => {
                    let objectives = Objectives {
                        cost: implementation.cost,
                        flexibility: implementation.flexibility,
                    };
                    front.insert(DesignPoint::from_implementation(implementation));
                    objectives
                }
            }
        };
        cache.insert(mask, objectives);
        Ok(objectives)
    };

    // Initial population: uniform random masks (plus the full allocation,
    // which anchors the high-flexibility end).
    let full_mask = UnitMask::full(n);
    let mut population: Vec<UnitMask> = (0..options.population.saturating_sub(1))
        .map(|_| random_mask(&mut rng, n))
        .collect();
    population.push(full_mask);

    for _generation in 0..options.generations {
        // Evaluate current population.
        let mut scored: Vec<(UnitMask, Objectives)> = Vec::with_capacity(population.len());
        for &mask in &population {
            let obj = evaluate(mask, &mut cache, &mut front, &mut implement_attempts)?;
            scored.push((mask, obj));
        }
        let ranks = non_dominated_ranks(&scored);
        let crowding = crowding_distances(&scored, &ranks);

        // Binary tournaments -> offspring.
        let mut offspring = Vec::with_capacity(population.len());
        while offspring.len() < population.len() {
            let a = rng.random_range(0..population.len());
            let b = rng.random_range(0..population.len());
            let p1 = tournament_winner(a, b, &ranks, &crowding);
            let c = rng.random_range(0..population.len());
            let d = rng.random_range(0..population.len());
            let p2 = tournament_winner(c, d, &ranks, &crowding);
            // Uniform crossover.
            let (g1, g2) = (population[p1], population[p2]);
            let mix = random_mask(&mut rng, n);
            let mut child = (g1 & mix) | g2.andnot(mix);
            // Bit-flip mutation.
            for bit in 0..n {
                if rng.random_bool(mutation) {
                    child ^= UnitMask::bit(bit);
                }
            }
            offspring.push(child & full_mask);
        }

        // (μ+λ) elitist environmental selection.
        let mut combined: Vec<(UnitMask, Objectives)> = scored;
        for &mask in &offspring {
            let obj = evaluate(mask, &mut cache, &mut front, &mut implement_attempts)?;
            combined.push((mask, obj));
        }
        let ranks = non_dominated_ranks(&combined);
        let crowding = crowding_distances(&combined, &ranks);
        let mut order: Vec<usize> = (0..combined.len()).collect();
        order.sort_by(|&x, &y| {
            ranks[x].cmp(&ranks[y]).then(
                crowding[y]
                    .partial_cmp(&crowding[x])
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        population = order
            .into_iter()
            .take(options.population)
            .map(|idx| combined[idx].0)
            .collect();
    }

    Ok(MoeaResult {
        front,
        evaluations: cache.len() as u64,
        implement_attempts,
    })
}

/// Fast non-dominated sorting: rank 0 = non-dominated, rank k = dominated
/// only by ranks < k.
fn non_dominated_ranks(scored: &[(UnitMask, Objectives)]) -> Vec<usize> {
    let n = scored.len();
    let mut dominated_by: Vec<usize> = vec![0; n];
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if i != j && scored[i].1.dominates(&scored[j].1) {
                dominates[i].push(j);
            }
        }
    }
    for (i, dom) in dominates.iter().enumerate() {
        let _ = i;
        for &j in dom {
            dominated_by[j] += 1;
        }
    }
    let mut ranks = vec![usize::MAX; n];
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    let mut rank = 0;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            ranks[i] = rank;
            for &j in &dominates[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        current = next;
        rank += 1;
    }
    ranks
}

/// NSGA-II crowding distance within each rank (cost and flexibility
/// normalized by the rank's spread; boundary points get `∞`).
fn crowding_distances(scored: &[(UnitMask, Objectives)], ranks: &[usize]) -> Vec<f64> {
    let n = scored.len();
    let mut crowding = vec![0.0f64; n];
    let max_rank = ranks.iter().copied().filter(|&r| r != usize::MAX).max();
    let Some(max_rank) = max_rank else {
        return crowding;
    };
    for rank in 0..=max_rank {
        let members: Vec<usize> = (0..n).filter(|&i| ranks[i] == rank).collect();
        if members.len() <= 2 {
            for &m in &members {
                crowding[m] = f64::INFINITY;
            }
            continue;
        }
        // Cost axis.
        let mut by_cost = members.clone();
        by_cost.sort_by_key(|&i| scored[i].1.cost);
        let span = (scored[*by_cost.last().expect("non-empty")].1.cost.dollars()
            - scored[by_cost[0]].1.cost.dollars()) as f64;
        crowding[by_cost[0]] = f64::INFINITY;
        crowding[*by_cost.last().expect("non-empty")] = f64::INFINITY;
        if span > 0.0 {
            for w in by_cost.windows(3) {
                let delta = (scored[w[2]].1.cost.dollars() - scored[w[0]].1.cost.dollars()) as f64;
                crowding[w[1]] += delta / span;
            }
        }
        // Flexibility axis.
        let mut by_flex = members.clone();
        by_flex.sort_by_key(|&i| scored[i].1.flexibility);
        let span = (scored[*by_flex.last().expect("non-empty")].1.flexibility
            - scored[by_flex[0]].1.flexibility) as f64;
        crowding[by_flex[0]] = f64::INFINITY;
        crowding[*by_flex.last().expect("non-empty")] = f64::INFINITY;
        if span > 0.0 {
            for w in by_flex.windows(3) {
                let delta = (scored[w[2]].1.flexibility - scored[w[0]].1.flexibility) as f64;
                crowding[w[1]] += delta / span;
            }
        }
    }
    crowding
}

fn tournament_winner(a: usize, b: usize, ranks: &[usize], crowding: &[f64]) -> usize {
    if ranks[a] < ranks[b] || (ranks[a] == ranks[b] && crowding[a] > crowding[b]) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreOptions};
    use flexplore_hgraph::Scope;
    use flexplore_sched::Time;
    use flexplore_spec::{ArchitectureGraph, ProblemGraph};

    fn spec() -> SpecificationGraph {
        // Two processes; cpu1 cheap/slow-ok, asic adds an alternative
        // cluster. Reuse a compact spec with a real trade-off.
        let mut p = ProblemGraph::new("p");
        let i = p.add_interface(Scope::Top, "I");
        let c1 = p.add_cluster(i, "c1");
        let v1 = p.add_process(c1.into(), "v1");
        let c2 = p.add_cluster(i, "c2");
        let v2 = p.add_process(c2.into(), "v2");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(100));
        let asic = a.add_resource(Scope::Top, "asic", Cost::new(150));
        let mut s = SpecificationGraph::new("s", p, a);
        s.add_mapping(v1, cpu, Time::from_ns(10)).unwrap();
        s.add_mapping(v2, asic, Time::from_ns(10)).unwrap();
        s
    }

    #[test]
    fn moea_is_deterministic_per_seed() {
        let s = spec();
        let opts = MoeaOptions {
            population: 8,
            generations: 5,
            ..MoeaOptions::default()
        };
        let a = moea_explore(&s, &opts).unwrap();
        let b = moea_explore(&s, &opts).unwrap();
        assert_eq!(a.front.objectives(), b.front.objectives());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn moea_finds_the_exact_front_on_tiny_specs() {
        let s = spec();
        let exact = explore(&s, &ExploreOptions::paper()).unwrap();
        let moea = moea_explore(&s, &MoeaOptions::default()).unwrap();
        assert_eq!(moea.front.objectives(), exact.front.objectives());
    }

    #[test]
    fn archive_contains_only_feasible_points() {
        let s = spec();
        let moea = moea_explore(&s, &MoeaOptions::default()).unwrap();
        for p in &moea.front {
            assert!(p.flexibility > 0);
            assert!(p.implementation.is_some());
        }
        assert!(moea.implement_attempts <= moea.evaluations);
    }

    #[test]
    fn objectives_dominance() {
        let a = Objectives {
            cost: Cost::new(10),
            flexibility: 3,
        };
        let b = Objectives {
            cost: Cost::new(20),
            flexibility: 3,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a));
    }

    #[test]
    fn ranks_and_crowding_basics() {
        let pts = [
            (
                UnitMask::empty(),
                Objectives {
                    cost: Cost::new(10),
                    flexibility: 1,
                },
            ),
            (
                UnitMask::bit(0),
                Objectives {
                    cost: Cost::new(20),
                    flexibility: 2,
                },
            ),
            (
                UnitMask::bit(1),
                Objectives {
                    cost: Cost::new(30),
                    flexibility: 3,
                },
            ),
            (
                UnitMask::full(2),
                Objectives {
                    cost: Cost::new(30),
                    flexibility: 1,
                },
            ), // dominated
        ];
        let ranks = non_dominated_ranks(&pts);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[1], 0);
        assert_eq!(ranks[2], 0);
        assert_eq!(ranks[3], 1);
        let crowding = crowding_distances(&pts, &ranks);
        assert!(crowding[0].is_infinite());
        assert!(crowding[2].is_infinite());
        assert!(crowding[1].is_finite());
    }
}
