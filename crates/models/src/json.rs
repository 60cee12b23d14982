//! JSON (de)serialization of specification graphs.
//!
//! Models are data: a downstream user dimensioning a platform wants to
//! version their specification, diff it, and feed it to the explorer from
//! a file. All model types derive Serde; this module adds the convenience
//! entry points and guarantees the round-trip.

use flexplore_spec::SpecificationGraph;

/// Serializes a specification graph to pretty-printed JSON.
///
/// # Errors
///
/// Returns the underlying `serde_json` error (practically unreachable for
/// these types).
pub fn spec_to_json(spec: &SpecificationGraph) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(spec)
}

/// Deserializes a specification graph from JSON.
///
/// The graph is re-validated after loading so that hand-edited files with
/// structural defects are rejected eagerly.
///
/// # Errors
///
/// Returns a `serde_json` error for malformed JSON; structural defects are
/// reported as a custom deserialization error.
pub fn spec_from_json(json: &str) -> Result<SpecificationGraph, serde_json::Error> {
    let spec: SpecificationGraph = serde_json::from_str(json)?;
    spec.validate()
        .map_err(<serde_json::Error as serde::de::Error>::custom)?;
    Ok(spec)
}

/// Deserializes a specification graph from JSON **without** re-validating.
///
/// `flexplore lint` wants to load structurally defective files (dangling
/// ids, containment cycles, out-of-range mapping endpoints) and report the
/// defects itself with stable diagnostic codes instead of rejecting the
/// file at parse time. Everything else should keep using
/// [`spec_from_json`], which validates eagerly.
///
/// # Errors
///
/// Returns a `serde_json` error for malformed JSON only.
pub fn spec_from_json_unvalidated(json: &str) -> Result<SpecificationGraph, serde_json::Error> {
    serde_json::from_str(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_top_box::set_top_box;
    use crate::synthetic::{synthetic_spec, SyntheticConfig};
    use crate::tv_decoder::tv_decoder;
    use flexplore_explore::{explore, ExploreOptions};

    #[test]
    fn set_top_box_round_trips() {
        let stb = set_top_box();
        let json = spec_to_json(&stb.spec).unwrap();
        let back = spec_from_json(&json).unwrap();
        assert_eq!(back.mapping_count(), stb.spec.mapping_count());
        assert_eq!(back.vertex_set_size(), stb.spec.vertex_set_size());
        // The reloaded model explores to the same front.
        let a = explore(&stb.spec, &ExploreOptions::paper()).unwrap();
        let b = explore(&back, &ExploreOptions::paper()).unwrap();
        assert_eq!(a.front.objectives(), b.front.objectives());
    }

    #[test]
    fn tv_decoder_round_trips() {
        let tv = tv_decoder();
        let json = spec_to_json(&tv.spec).unwrap();
        let back = spec_from_json(&json).unwrap();
        assert_eq!(back.name(), tv.spec.name());
        assert_eq!(back.mapping_count(), tv.spec.mapping_count());
    }

    #[test]
    fn synthetic_round_trips() {
        let spec = synthetic_spec(&SyntheticConfig::medium(3));
        let json = spec_to_json(&spec).unwrap();
        let back = spec_from_json(&json).unwrap();
        assert_eq!(back.mapping_count(), spec.mapping_count());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(spec_from_json("{not json").is_err());
        assert!(spec_from_json("{}").is_err());
    }

    /// A hostile nesting depth is a parse error, not a stack overflow.
    #[test]
    fn deeply_nested_json_is_rejected() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let err = spec_from_json(&deep).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        assert!(spec_from_json_unvalidated(&deep).is_err());
    }
}
