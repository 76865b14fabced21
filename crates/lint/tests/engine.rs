//! Integration tests for the interprocedural rules (R6–R8): each
//! good/bad fixture pair under `tests/fixtures/` differs only by the
//! fix — the bad twin must trip its rule and the good twin must not.
//! Good twins cannot go through the `--fixture` harness (it demands an
//! `//@expect:` that fires), so both sides build a [`Context`] directly.

use std::path::Path;

use ossm_lint::regions::FileModel;
use ossm_lint::rules::{run_all, Context};

/// Lints one `tests/fixtures/` file as if it lived at `virtual_path`,
/// returning the rule ids that fired.
fn rules_firing(fixture: &str, virtual_path: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(dir.join(fixture)).expect("fixture readable");
    let files = vec![FileModel::analyze(virtual_path, &src)];
    let ctx = Context {
        root: Path::new("."),
        files: &files,
        registry: &[],
        format_consts: &[],
        all_mode: false,
    };
    run_all(&ctx)
        .into_iter()
        .map(|d| d.rule.to_owned())
        .collect()
}

fn fires(fixture: &str, virtual_path: &str, rule: &str) -> bool {
    rules_firing(fixture, virtual_path)
        .iter()
        .any(|r| r == rule)
}

#[test]
fn r6_flags_reachable_panics_and_accepts_the_proven_twin() {
    assert!(fires("r6_bad.rs", "crates/serve/src/server.rs", "R6"));
    assert!(!fires("r6_good.rs", "crates/serve/src/server.rs", "R6"));
}

#[test]
fn r6_follows_a_field_receiver_to_the_field_types_method() {
    assert!(fires("r6_field_bad.rs", "crates/serve/src/server.rs", "R6"));
    assert!(!fires(
        "r6_field_good.rs",
        "crates/serve/src/server.rs",
        "R6"
    ));
}

#[test]
fn r7_flags_the_ab_ba_cycle_and_accepts_the_consistent_twin() {
    assert!(fires("r7_bad.rs", "crates/serve/src/state.rs", "R7"));
    assert!(!fires("r7_good.rs", "crates/serve/src/state.rs", "R7"));
}

#[test]
fn r8_flags_ack_before_commit_and_accepts_the_ordered_twin() {
    assert!(fires("r8_bad.rs", "crates/serve/src/server.rs", "R8"));
    assert!(!fires("r8_good.rs", "crates/serve/src/server.rs", "R8"));
}

#[test]
fn r8_flags_apply_before_sync_and_accepts_the_group_commit_twin() {
    assert!(fires(
        "r8_group_commit_bad.rs",
        "crates/core/src/durable.rs",
        "R8"
    ));
    assert!(!fires(
        "r8_group_commit_good.rs",
        "crates/core/src/durable.rs",
        "R8"
    ));
}

/// The duplicate re-ack in the good twin is load-bearing: strip its
/// `duplicate: true` and the same shape must trip the rule, proving
/// the exemption is what keeps the good twin clean.
#[test]
fn r8_duplicate_exemption_is_what_spares_the_good_twin() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(dir.join("r8_good.rs")).expect("fixture readable");
    let tampered = src.replacen("duplicate: true", "duplicate: false", 1);
    let files = vec![FileModel::analyze("crates/serve/src/server.rs", &tampered)];
    let ctx = Context {
        root: Path::new("."),
        files: &files,
        registry: &[],
        format_consts: &[],
        all_mode: false,
    };
    assert!(run_all(&ctx).iter().any(|d| d.rule == "R8"));
}
