//! Fixture tests: each known-bad snippet under `tests/fixtures/` must
//! trigger exactly its lint (right code, right count, nothing else), the
//! clean fixtures must pass, and the real workspace must be clean under
//! the checked-in `lint.toml` config.

use std::fs;
use std::path::{Path, PathBuf};

use dragster_lint::{
    lint_files_semantic, lint_source, lint_workspace, parse_config, Finding, RuleSet,
};

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn fixture(name: &str) -> Vec<Finding> {
    lint_source(name, &read_fixture(name), RuleSet::all())
}

/// Runs the full semantic pipeline (token scan + workspace model + every
/// workspace-level pass) over a single fixture file.
fn semantic_fixture(name: &str) -> Vec<Finding> {
    lint_files_semantic(&[(name.to_string(), read_fixture(name))], RuleSet::all())
}

/// Asserts the findings are exactly `count` instances of `code`.
fn assert_findings(name: &str, findings: &[Finding], code: &str, count: usize) {
    assert_eq!(
        findings.len(),
        count,
        "{name}: expected {count} finding(s), got: {findings:#?}"
    );
    for f in findings {
        assert_eq!(f.code, code, "{name}: wrong lint class: {f}");
    }
}

/// Asserts the fixture yields exactly `count` findings, all with `code`.
fn assert_only(name: &str, code: &str, count: usize) {
    let findings = fixture(name);
    assert_findings(name, &findings, code, count);
}

#[test]
fn l5_pub_chain_to_division_is_reported_with_full_chain() {
    let findings = semantic_fixture("l5_reach_pos.rs");
    assert_findings("l5_reach_pos.rs", &findings, "L5", 1);
    let f = &findings[0];
    let tails: Vec<&str> = f
        .chain
        .iter()
        .map(|q| q.rsplit("::").next().unwrap_or(q))
        .collect();
    assert_eq!(
        tails,
        vec!["entry", "middle", "leaf"],
        "chain must walk pub entry -> middle -> leaf: {f:#?}"
    );
    assert!(
        f.message.contains("entry") && f.message.contains("middle") && f.message.contains("leaf"),
        "message must spell out the call chain: {}",
        f.message
    );
}

#[test]
fn l5_unreachable_division_stays_silent() {
    let findings = semantic_fixture("l5_reach_neg.rs");
    assert!(
        findings.is_empty(),
        "l5_reach_neg.rs flagged: {findings:#?}"
    );
}

#[test]
fn l7_rate_plus_time_triggers_exactly_l7() {
    assert_only("l7_units_pos.rs", "L7", 1);
}

#[test]
fn l7_conversion_and_same_dimension_pass() {
    let findings = fixture("l7_units_neg.rs");
    assert!(
        findings.is_empty(),
        "l7_units_neg.rs flagged: {findings:#?}"
    );
}

#[test]
fn l13_wrong_variable_guard_triggers_exactly_l13() {
    let findings = semantic_fixture("l13_div_pos.rs");
    assert_findings("l13_div_pos.rs", &findings, "L13", 1);
    let f = &findings[0];
    assert!(
        f.message.contains("contains zero"),
        "the finding must state the proven hazard: {}",
        f.message
    );
    assert!(
        f.chain.first().is_some_and(|c| c.starts_with("fn ")),
        "chain must open with the enclosing fn: {f:#?}"
    );
    assert!(
        f.chain.iter().any(|c| c.contains("n_slots")),
        "derivation chain must name the divisor's seed: {f:#?}"
    );
}

#[test]
fn l13_right_variable_guard_stays_silent() {
    let findings = semantic_fixture("l13_div_neg.rs");
    assert!(findings.is_empty(), "l13_div_neg.rs flagged: {findings:#?}");
}

#[test]
fn l14_saturating_cast_in_reach_triggers_exactly_l14() {
    let findings = semantic_fixture("l14_cast_pos.rs");
    assert_findings("l14_cast_pos.rs", &findings, "L14", 1);
    let f = &findings[0];
    assert!(
        f.message.contains("2^53"),
        "the finding must state which bound is violated: {}",
        f.message
    );
    assert!(
        f.chain.iter().any(|c| c.contains("scaled")),
        "derivation chain must walk through the intermediate binding: {f:#?}"
    );
}

#[test]
fn l14_clamped_cast_stays_silent() {
    let findings = semantic_fixture("l14_cast_neg.rs");
    assert!(
        findings.is_empty(),
        "l14_cast_neg.rs flagged: {findings:#?}"
    );
}

#[test]
fn l15_violated_posterior_contract_triggers_exactly_l15() {
    let findings = semantic_fixture("l15_contract_pos.rs");
    assert_findings("l15_contract_pos.rs", &findings, "L15", 1);
    let f = &findings[0];
    assert!(
        f.message.contains("GridGp::*::var"),
        "the finding must name the violated contract: {}",
        f.message
    );
    assert!(
        f.chain.iter().any(|c| c.contains("k_xx")),
        "derivation chain must reach the contract's inputs: {f:#?}"
    );
}

#[test]
fn l15_clamped_posterior_satisfies_contract() {
    let findings = semantic_fixture("l15_contract_neg.rs");
    assert!(
        findings.is_empty(),
        "l15_contract_neg.rs flagged: {findings:#?}"
    );
}

#[test]
fn l18_field_forgotten_by_decoder_triggers_exactly_l18() {
    let findings = semantic_fixture("l18_coverage_pos.rs");
    assert_findings("l18_coverage_pos.rs", &findings, "L18", 1);
    let f = &findings[0];
    assert_eq!(f.token, "LearnerState.bias", "wrong field: {f:#?}");
    assert!(
        f.message.contains("decode direction"),
        "the finding must name the missing direction: {}",
        f.message
    );
}

#[test]
fn l18_fully_covered_codec_stays_silent() {
    let findings = semantic_fixture("l18_coverage_neg.rs");
    assert!(
        findings.is_empty(),
        "l18_coverage_neg.rs flagged: {findings:#?}"
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = semantic_fixture("clean.rs");
    assert!(findings.is_empty(), "clean.rs flagged: {findings:#?}");
}

#[test]
fn every_fixture_is_covered_by_a_test() {
    // Guards against someone adding a fixture without an assertion.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures dir readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "clean.rs",
            "l13_div_neg.rs",
            "l13_div_pos.rs",
            "l14_cast_neg.rs",
            "l14_cast_pos.rs",
            "l15_contract_neg.rs",
            "l15_contract_pos.rs",
            "l18_coverage_neg.rs",
            "l18_coverage_pos.rs",
            "l5_reach_neg.rs",
            "l5_reach_pos.rs",
            "l7_units_neg.rs",
            "l7_units_pos.rs",
        ],
        "fixture set changed — update the tests to match"
    );
}

#[test]
fn real_workspace_is_clean_under_checked_in_config() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let cfg = match fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => parse_config(&text).expect("lint.toml must validate"),
        Err(_) => Default::default(),
    };
    let report = lint_workspace(&root, &cfg).expect("workspace scan succeeds");
    assert!(
        report.findings.is_empty(),
        "library crates violate the invariants:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.unused_entries.is_empty(),
        "stale lint.toml entries: {:?}",
        report.unused_entries
    );
    assert!(report.files_scanned >= 30, "suspiciously few files scanned");
}
