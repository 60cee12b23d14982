//! The flexibility metric of *"System Design for Flexibility"* (Haubelt,
//! Teich, Richter, Ernst — DATE 2002).
//!
//! *Flexibility* quantifies the functional richness a system can implement:
//! the number of behavioral alternatives reachable through cluster
//! selection in its hierarchical problem graph (Definition 4 of the paper).
//! The crate provides
//!
//! * [`flexibility`] / [`cluster_flexibility`] / [`max_flexibility`] — the
//!   metric under an arbitrary future-activation indicator `a⁺`,
//! * [`flexibility_def4_raw`] — the literal Definition 4 formula for
//!   cross-checking,
//! * [`weighted_flexibility`] — the weighted-sum variant of footnote 2,
//! * [`estimate_flexibility`] — the upper-bound estimation over a reduced
//!   specification that drives the EXPLORE pruning rule.
//!
//! # Examples
//!
//! The paper's Fig. 3 Set-Top box has maximal flexibility 8; dropping the
//! game-console cluster reduces it to 5:
//!
//! ```
//! use flexplore_flex::{flexibility, max_flexibility};
//! use flexplore_hgraph::{HierarchicalGraph, Scope};
//!
//! let mut g: HierarchicalGraph<(), ()> = HierarchicalGraph::new("set-top");
//! let app = g.add_interface(Scope::Top, "I_app");
//! let browser = g.add_cluster(app, "gamma_I");
//! let game = g.add_cluster(app, "gamma_G");
//! let i_g = g.add_interface(game.into(), "I_G");
//! for k in 1..=3 { g.add_cluster(i_g, format!("gamma_G{k}")); }
//! let tv = g.add_cluster(app, "gamma_D");
//! let i_d = g.add_interface(tv.into(), "I_D");
//! for k in 1..=3 { g.add_cluster(i_d, format!("gamma_D{k}")); }
//! let i_u = g.add_interface(tv.into(), "I_U");
//! for k in 1..=2 { g.add_cluster(i_u, format!("gamma_U{k}")); }
//!
//! assert_eq!(max_flexibility(&g), 8);
//! assert_eq!(flexibility(&g, |c| c != game), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod estimate;
mod incremental;
mod metric;
mod profile;

pub use estimate::{estimate_flexibility, estimate_with_compiled, FlexibilityEstimate};
pub use incremental::{DeltaEstimator, DeltaIndex};
pub use metric::{
    cluster_flexibility, flexibility, flexibility_def4_raw, max_flexibility, weighted_flexibility,
    Flexibility, FlexibilityWeights,
};
pub use profile::{flexibility_profile, ClusterContribution};
