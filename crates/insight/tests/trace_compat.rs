//! Compatibility rule for retired trace events: a trace written before
//! `task_scheduled`, `task_launched`, `task_speculated` and `dfs_block_read`
//! were retired (and while `task_finished` / `phase_finished` still carried
//! `speculative` / `speculative_wins`), by a run with the deleted
//! streaming merge (its `merge_overlap` credit), or by the deleted traced
//! and quarantining QWS loaders (`ingest_started`, `record_quarantined`,
//! `ingest_finished`), must load, validate, summarize and model exactly
//! like the same trace with the retired lines removed.

use mrsky_trace::event::RETIRED_EVENT_TYPES;
use mrsky_trace::{parse_jsonl, validate_events, RunModel};

const FIXTURE: &str = include_str!("fixtures/pre_retirement_trace.jsonl");

fn is_retired(line: &str) -> bool {
    RETIRED_EVENT_TYPES
        .iter()
        .any(|ty| line.contains(&format!("\"type\":\"{ty}\"")))
}

#[test]
fn fixture_exercises_every_retired_type_and_field() {
    for ty in RETIRED_EVENT_TYPES {
        assert!(
            FIXTURE.contains(&format!("\"type\":\"{ty}\"")),
            "fixture lacks a `{ty}` line"
        );
    }
    assert!(FIXTURE.contains("\"speculative\":true"));
    assert!(FIXTURE.contains("\"speculative_wins\":1"));
}

#[test]
fn pre_retirement_trace_reads_like_the_trace_without_retired_lines() {
    let stripped: String = FIXTURE
        .lines()
        .filter(|line| !is_retired(line))
        .map(|line| format!("{line}\n"))
        .collect();
    assert!(stripped.lines().count() < FIXTURE.lines().count());

    let old = parse_jsonl(FIXTURE).expect("pre-retirement trace parses");
    let new = parse_jsonl(&stripped).expect("stripped trace parses");
    assert_eq!(old, new);
    let problems = validate_events(&old);
    assert!(problems.is_empty(), "{problems:?}");

    let model = RunModel::from_events(&old);
    assert_eq!(model.summary(), RunModel::from_events(&new).summary());
    assert_eq!(model, RunModel::from_events(&new));
    assert_eq!(model.runs.len(), 1);
    assert_eq!(mrsky_insight::check(&model), Ok(()));
}
