//! The three workloads: which specifications each one explores, in which
//! order, and (for `edit-loop`) which edits each watch session applies.
//!
//! Everything here is a pure function of the run seed. The program under
//! test only ever sees the JSON text built here.

use flexplore::models::spec_to_json;
use flexplore::{
    baseband_spec, cloud_fpga_spec, set_top_box, synthetic_spec, BasebandConfig, CloudFpgaConfig,
    SpecificationGraph, SyntheticConfig,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold explores where enumeration dominates.
    ColdLattice,
    /// Cold explores where the binding solver dominates, at 2 threads.
    ColdBind,
    /// Watch-style sessions re-exploring edited specs through the cache.
    EditLoop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdLattice,
        Workload::ColdBind,
        Workload::EditLoop,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLattice => "cold-lattice",
            Workload::ColdBind => "cold-bind",
            Workload::EditLoop => "edit-loop",
        }
    }

    /// Explore threads (both the lattice scheduler and the bind driver).
    pub fn threads(self) -> usize {
        match self {
            Workload::ColdBind => 2,
            Workload::ColdLattice | Workload::EditLoop => 1,
        }
    }
}

/// SplitMix64: a tiny deterministic generator, so inputs depend on the
/// seed and on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of the run `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A family seed: small enough to read in a label.
    fn family_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }
}

/// A generated specification and the JSON text the program is handed.
#[derive(Debug)]
pub struct SpecCase {
    pub label: String,
    pub spec: SpecificationGraph,
    pub json: String,
}

impl SpecCase {
    fn new(label: String, spec: SpecificationGraph) -> SpecCase {
        let json = spec_to_json(&spec).expect("generated specs serialize");
        SpecCase { label, spec, json }
    }
}

/// The cold workloads' inputs: distinct specs plus the request order of
/// one cycle (indices into `specs`). A run repeats whole cycles.
#[derive(Debug)]
pub struct ColdPlan {
    pub specs: Vec<SpecCase>,
    pub cycle: Vec<usize>,
}

/// A bundled spec family.
#[derive(Debug, Clone, Copy)]
enum Family {
    SetTopBox,
    Medium,
    Wide,
    Baseband,
    Cloud,
}

impl Family {
    fn case(self, seed: u64) -> SpecCase {
        let (label, spec) = match self {
            Family::SetTopBox => ("set-top-box".to_owned(), set_top_box().spec),
            Family::Medium => (
                format!("synthetic-medium({seed})"),
                synthetic_spec(&SyntheticConfig::medium(seed)),
            ),
            Family::Wide => (
                format!("synthetic-wide({seed})"),
                synthetic_spec(&SyntheticConfig::wide(seed)),
            ),
            Family::Baseband => (
                format!("baseband-medium({seed})"),
                baseband_spec(&BasebandConfig::medium(seed)),
            ),
            Family::Cloud => (
                format!("cloud-fpga-medium({seed})"),
                cloud_fpga_spec(&CloudFpgaConfig::medium(seed)),
            ),
        };
        SpecCase::new(label, spec)
    }
}

/// Where a group's family seeds come from.
#[derive(Debug, Clone, Copy)]
enum Seeds {
    /// `first`, `first + 1`, …: the same specs on every run.
    Fixed(u64),
    /// Drawn from the run seed.
    Drawn,
}

/// `specs` specs of one family, each requested `weight` times per cycle.
#[derive(Debug, Clone, Copy)]
struct Group {
    family: Family,
    seeds: Seeds,
    specs: usize,
    weight: usize,
}

const fn group(family: Family, seeds: Seeds, specs: usize, weight: usize) -> Group {
    Group {
        family,
        seeds,
        specs,
        weight,
    }
}

/// `cold-lattice`: set-top-box (enumeration is ~88% of its wall time)
/// carries a quarter of the requests and sets the tail; fixed and seeded
/// medium specs fill the rest and hold the median.
const COLD_LATTICE: [Group; 3] = [
    group(Family::SetTopBox, Seeds::Fixed(0), 1, 32),
    group(Family::Medium, Seeds::Fixed(1), 40, 2),
    group(Family::Medium, Seeds::Drawn, 8, 1),
];

/// `cold-bind`: `SyntheticConfig::wide(86)`, the bind-heaviest wide seed
/// of 0–199 (81 bind attempts where the median seed makes about 10),
/// carries a ninth of the requests and sets the tail; fixed and seeded
/// wide, baseband and cloud-fpga specs fill the rest.
const COLD_BIND: [Group; 7] = [
    group(Family::Wide, Seeds::Fixed(86), 1, 12),
    group(Family::Wide, Seeds::Fixed(1), 8, 2),
    group(Family::Baseband, Seeds::Fixed(1), 16, 2),
    group(Family::Cloud, Seeds::Fixed(1), 16, 2),
    group(Family::Wide, Seeds::Drawn, 4, 1),
    group(Family::Baseband, Seeds::Drawn, 6, 1),
    group(Family::Cloud, Seeds::Drawn, 6, 1),
];

/// Builds the `cold-lattice` or `cold-bind` plan for `seed`.
///
/// Each workload mixes a fixed core, requested twice per cycle, with
/// seeded family members requested once. The core keeps the median and
/// the tail from swinging with which specs a seed draws; the seeded part
/// makes every seed a different input. The cycle order is a seeded
/// shuffle.
pub fn cold_plan(workload: Workload, seed: u64) -> ColdPlan {
    let groups: &[Group] = match workload {
        Workload::ColdLattice => &COLD_LATTICE,
        Workload::ColdBind => &COLD_BIND,
        Workload::EditLoop => unreachable!("edit-loop has sessions, not a cold plan"),
    };
    let mut rng = Rng::new(seed, 1);
    let mut specs = Vec::new();
    let mut cycle = Vec::new();
    for g in groups {
        for k in 0..g.specs {
            let family_seed = match g.seeds {
                Seeds::Fixed(first) => first + k as u64,
                Seeds::Drawn => rng.family_seed(),
            };
            cycle.extend(std::iter::repeat_n(specs.len(), g.weight));
            specs.push(g.family.case(family_seed));
        }
    }
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, rng.below(i + 1));
    }
    ColdPlan { specs, cycle }
}

/// One watch session: a base spec and the successive file contents the
/// watcher sees after each single-field edit.
#[derive(Debug)]
pub struct Session {
    pub base: SpecCase,
    /// `edits[i]` is the spec text after edit `i` (edits accumulate).
    pub edits: Vec<String>,
}

/// Edits per session. Fixed, so the cache a session ends with (and the
/// latency growth it causes) is the same from run to run.
pub const SESSION_EDITS: usize = 24;

/// Every fourth edit is a cost edit (enumeration layer, a *seeded*
/// re-walk); the others are latency edits (binding layer, a *replay*).
const COST_EDIT_EVERY: usize = 4;

/// The `edit-loop` sessions: set-top-box three times (with different
/// edit sequences) and one seeded synthetic-medium and cloud-fpga-medium
/// spec. Set-top-box edits are the slower ones (its cache entries are
/// the largest), and with three of five sessions the median falls inside
/// their band instead of in the gap between the two kinds.
const EDIT_SESSIONS: [(Family, Seeds); 5] = [
    (Family::SetTopBox, Seeds::Fixed(0)),
    (Family::Medium, Seeds::Drawn),
    (Family::SetTopBox, Seeds::Fixed(0)),
    (Family::Cloud, Seeds::Drawn),
    (Family::SetTopBox, Seeds::Fixed(0)),
];

/// Builds the `edit-loop` sessions for `seed`.
pub fn edit_sessions(seed: u64) -> Vec<Session> {
    let mut rng = Rng::new(seed, 2);
    EDIT_SESSIONS
        .iter()
        .map(|&(family, seeds)| {
            let base = family.case(match seeds {
                Seeds::Fixed(s) => s,
                Seeds::Drawn => rng.family_seed(),
            });
            let mut text = base.json.clone();
            let edits = (1..=SESSION_EDITS)
                .map(|i| {
                    text = if i % COST_EDIT_EVERY == 0 {
                        edit_field(&text, "cost", 10, &mut rng)
                    } else {
                        edit_field(&text, "latency", 3, &mut rng)
                    };
                    text.clone()
                })
                .collect();
            Session { base, edits }
        })
        .collect()
}

/// Moves one seeded occurrence of the integer field `"key"` by `±step`
/// (downwards only while the value stays above `step`).
fn edit_field(json: &str, key: &str, step: u64, rng: &mut Rng) -> String {
    let needle = format!("\"{key}\":");
    let sites: Vec<usize> = json
        .match_indices(&needle)
        .map(|(at, _)| at + needle.len())
        .collect();
    assert!(!sites.is_empty(), "spec JSON has no {key} field");
    let at = sites[rng.below(sites.len())];
    let start = at
        + json[at..]
            .find(|c: char| c.is_ascii_digit())
            .expect("integer field");
    let end = start
        + json[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(json.len() - start);
    let value: u64 = json[start..end].parse().expect("integer field");
    let down = rng.next_u64() & 1 == 0 && value > step;
    let edited = if down { value - step } else { value + step };
    format!("{}{edited}{}", &json[..start], &json[end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_field_moves_exactly_one_value() {
        let json = r#"{"a": [{"latency": 10}, {"latency": 2}]}"#;
        let mut rng = Rng::new(7, 0);
        for _ in 0..20 {
            let edited = edit_field(json, "latency", 3, &mut rng);
            let ok = [
                r#"{"a": [{"latency": 7}, {"latency": 2}]}"#,
                r#"{"a": [{"latency": 13}, {"latency": 2}]}"#,
                r#"{"a": [{"latency": 10}, {"latency": 5}]}"#,
            ];
            assert!(ok.contains(&edited.as_str()), "{edited}");
        }
    }

    #[test]
    fn plans_depend_on_the_seed_only() {
        let a = cold_plan(Workload::ColdLattice, 1);
        let b = cold_plan(Workload::ColdLattice, 1);
        let c = cold_plan(Workload::ColdLattice, 2);
        let last = a.specs.len() - 1;
        assert_eq!(a.specs[last].json, b.specs[last].json);
        assert_ne!(a.specs[last].json, c.specs[last].json);
        assert_eq!(a.cycle, b.cycle);
        assert_eq!(a.cycle.len(), 120);
    }
}
