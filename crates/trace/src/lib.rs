//! `mrsky-trace`: structured tracing and metrics for the MapReduce
//! skyline suite.
//!
//! Three cooperating pieces, all hand-rolled on the standard library:
//!
//! - **Events** ([`event`]): typed [`TraceEvent`]s with monotonic
//!   sequence numbers, epoch-clock offsets (deterministic [`SimClock`]
//!   by default), and sim-clock payloads, serialized as flat JSONL.
//! - **Sinks** ([`sink`]): the [`Tracer`] handle threaded through
//!   [`JobSpec`](../mrsky_mapreduce/struct.JobSpec.html) and the driver;
//!   disabled tracers cost one branch per site.
//! - **Registry** ([`registry`]): the process-global, sharded
//!   counter/gauge/histogram store that kernel hot paths record into
//!   when enabled ([`metrics`]).
//!
//! A recorded stream is folded once into a [`RunModel`] ([`model`]),
//! which feeds the human summary table ([`RunModel::summary`]), the
//! Chrome trace-event JSON for Perfetto ([`to_chrome_trace`]) and `mrsky
//! insight`. The registry's snapshot renders as Prometheus text
//! exposition ([`MetricsSnapshot::to_prometheus`]).

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;
pub mod model;
pub mod registry;
pub mod sink;
pub mod summary;

pub use chrome::to_chrome_trace;
pub use event::{EventKind, PhaseKind, TraceEvent};
pub use model::RunModel;
pub use registry::{escape_label_value, metrics, Histogram, MetricsRegistry, MetricsSnapshot};
pub use sink::{EpochClock, JsonlWriter, NullSink, SimClock, TraceSink, Tracer, VecSink};
pub use summary::{nearest_rank, validate_events};

/// Parses a JSONL trace document (one event per line, blank lines
/// ignored) into events. Lines of a type in
/// [`RETIRED_EVENT_TYPES`](event::RETIRED_EVENT_TYPES) are skipped, so
/// traces written by older versions still load.
///
/// # Errors
///
/// Reports the 1-based line number and cause of the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev =
            TraceEvent::from_json_or_retired(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.extend(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trip_through_tracer() {
        let tracer = Tracer::in_memory();
        tracer.emit(|| EventKind::JobStarted { job: "j".into() });
        tracer.emit(|| EventKind::JobFinished {
            job: "j".into(),
            sim_total: 1.0,
            wall_seconds: 0.5,
        });
        let events = tracer.drain();
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
        assert!(validate_events(&back).is_empty());
    }

    #[test]
    fn parse_jsonl_reports_line_numbers() {
        let err = parse_jsonl(
            "{\"seq\":0,\"wall_us\":0,\"type\":\"job_started\",\"job\":\"x\"}\nbroken\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
