//! Output digests and the reference digests they are checked against.
//!
//! A digest is `greensprint::checkpoint::fingerprint` over a workload's
//! serialized results, one part per result line. `digests.json` holds the
//! digests of one uninterrupted run of each workload at
//! [`REFERENCE_SEED`]; `gs-bench digests` regenerates it.

use serde_json::Value;

/// The seed whose outputs `digests.json` pins.
pub const REFERENCE_SEED: u64 = 1;

const DIGESTS_JSON: &str = include_str!("../digests.json");

/// Digest of a sequence of result lines.
pub fn digest_lines<S: AsRef<str>>(lines: &[S]) -> String {
    let parts: Vec<&str> = lines.iter().map(AsRef::as_ref).collect();
    greensprint::fingerprint(&parts)
}

/// The pinned digest of `workload` at `seed`, if `digests.json` has one.
pub fn reference(workload: &str, seed: u64) -> Option<String> {
    parse_reference(DIGESTS_JSON, workload, seed)
}

fn parse_reference(text: &str, workload: &str, seed: u64) -> Option<String> {
    let v: Value = serde_json::from_str(text).ok()?;
    let pinned = v.get("seed")?.as_number()?.as_u64()?;
    if pinned != seed {
        return None;
    }
    Some(v.get("digests")?.get(workload)?.as_str()?.to_string())
}

/// Render the `digests.json` text for `digests` taken at `seed`.
pub fn render(seed: u64, digests: &[(&str, String)]) -> String {
    let body: Vec<String> = digests
        .iter()
        .map(|(w, d)| format!("    \"{w}\": \"{d}\""))
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"digests\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    )
}

/// Failed units of a run: every unit when any output digest disagrees
/// with the expected one, else the units that broke an invariant.
pub fn failed_units(attempted: u64, invariant_failures: u64, digests_agree: bool) -> u64 {
    if digests_agree {
        invariant_failures.min(attempted)
    } else {
        attempted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_digests_parse_back_only_for_their_seed() {
        let text = render(
            1,
            &[
                ("paper_grid", "00aa".into()),
                ("serve_fleet", "11bb".into()),
            ],
        );
        assert_eq!(
            parse_reference(&text, "serve_fleet", 1).as_deref(),
            Some("11bb")
        );
        assert_eq!(parse_reference(&text, "serve_fleet", 2), None);
        assert_eq!(parse_reference(&text, "campaign", 1), None);
    }

    #[test]
    fn line_boundaries_are_part_of_the_digest() {
        assert_ne!(digest_lines(&["ab", "c"]), digest_lines(&["a", "bc"]));
        assert_eq!(
            digest_lines(&["ab", "c"]),
            digest_lines(&["ab".to_string(), "c".into()])
        );
    }

    #[test]
    fn a_digest_mismatch_fails_every_unit() {
        assert_eq!(failed_units(72, 0, true), 0);
        assert_eq!(failed_units(72, 3, true), 3);
        assert_eq!(failed_units(72, 3, false), 72);
    }
}
