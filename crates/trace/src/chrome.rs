//! Chrome trace-event export: converts a recorded event stream into the
//! JSON that Perfetto (`ui.perfetto.dev`) and `chrome://tracing` load.
//!
//! Layout decisions:
//!
//! - Each **run** of a MapReduce job (one per `job_started`, see
//!   [`RunModel`]) becomes a process (`pid` 1, 2, … in start order),
//!   named via `process_name` metadata. Jobs inside one trace run
//!   back-to-back on sim time, but every job's own clock starts at 0 —
//!   each run is laid out at its [`JobRun::offset`](crate::model::JobRun::offset)
//!   so the processes sit sequentially.
//! - Each cluster **slot** becomes a thread (`tid = slot + 1`, named per
//!   run); tid 0 carries the phase envelope slices and the run's shuffle
//!   and peak-memory instants. Tasks are `"X"` complete slices.
//! - Driver-level spans ([`SpanBegin`](crate::EventKind::SpanBegin)) and
//!   point records (kernels, partitions, chaos, pruning) live on **pid
//!   0**, which runs on the wall clock (`wall_us`), as `"B"`/`"E"`
//!   duration events and `"i"` instants, one per event.
//! - [`CausalEdge`](crate::EventKind::CausalEdge) events become flow
//!   arrows (`"s"`/`"f"` pairs): the arrow leaves the source node's slice
//!   end and lands on the destination's slice start, so Perfetto draws
//!   shuffle→reduce hand-offs. [`TaskStolen`](crate::EventKind::TaskStolen)
//!   becomes an instant on the stolen task plus a flow arrow from the
//!   phase lane into its slice. Flows are drawn after every slice is
//!   anchored.
//!
//! Timestamps are microseconds as the format requires; sim seconds are
//! scaled by 1e6.

use crate::event::{EventKind, TraceEvent};
use crate::json::{escape, number};
use crate::model::RunModel;
use std::collections::{BTreeMap, BTreeSet};

const DRIVER_PID: u64 = 0;

fn sim_us(offset: f64, sim_seconds: f64) -> f64 {
    (offset + sim_seconds) * 1e6
}

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Self {
        Emitter {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Appends one raw trace-event object (no surrounding braces needed).
    fn push(&mut self, body: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(body);
        self.out.push('}');
    }

    fn metadata(&mut self, pid: u64, tid: Option<u64>, which: &str, name: &str) {
        let tid_part = match tid {
            Some(t) => format!(",\"tid\":{t}"),
            None => String::new(),
        };
        self.push(&format!(
            "\"ph\":\"M\",\"pid\":{pid}{tid_part},\"name\":\"{which}\",\"args\":{{\"name\":\"{}\"}}",
            escape(name)
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Converts a stream of [`TraceEvent`]s into a Chrome trace-event JSON
/// document. Job slices come from the stream's [`RunModel`]; events
/// whose job has no open run draw nothing.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let model = RunModel::from_events(events);
    let mut em = Emitter::new();
    em.metadata(DRIVER_PID, None, "process_name", "driver (wall clock)");

    // Causal-DAG node anchors, keyed by run index and the node-id grammar
    // (`job:`/`phase:`/`task:` — see `EventKind::CausalEdge`):
    // (pid, tid, start_us, end_us) on the run-global sim axis.
    let mut nodes: BTreeMap<(usize, String), (u64, u64, f64, f64)> = BTreeMap::new();
    for (r, (pid, run)) in (1u64..).zip(&model.runs).enumerate() {
        let job = &run.name;
        em.metadata(pid, None, "process_name", &format!("job: {job}"));
        em.metadata(pid, Some(0), "thread_name", "phases");
        let mut slots_seen = BTreeSet::new();
        for phase in [&run.map, &run.reduce] {
            if phase.announced.is_some() && phase.finished {
                let ts = sim_us(run.offset, phase.start);
                let dur = ((phase.end - phase.start) * 1e6).max(0.0);
                nodes.insert(
                    (r, format!("phase:{job}/{}", phase.kind)),
                    (pid, 0, ts, ts + dur),
                );
                em.push(&format!(
                    "\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"name\":\"{} phase\",\"cat\":\"phase\",\"ts\":{},\"dur\":{}",
                    phase.kind,
                    number(ts),
                    number(dur)
                ));
            }
            for t in &phase.tasks {
                let (task, slot) = (t.task, t.slot);
                let tid = slot + 1;
                if slots_seen.insert(slot) {
                    em.metadata(pid, Some(tid), "thread_name", &format!("slot {slot}"));
                }
                let ts = sim_us(run.offset, t.start);
                let dur = ((t.end - t.start) * 1e6).max(0.0);
                nodes.insert(
                    (r, format!("task:{job}/{}/{task}", phase.kind)),
                    (pid, tid, ts, ts + dur),
                );
                em.push(&format!(
                    "\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{} {task}\",\"cat\":\"task\",\"ts\":{},\"dur\":{},\"args\":{{\"task\":{task}}}",
                    phase.kind,
                    number(ts),
                    number(dur)
                ));
            }
        }
        if let Some((sim_total, _)) = run.finished {
            nodes.insert(
                (r, format!("job:{job}")),
                (pid, 0, run.offset * 1e6, (run.offset + sim_total) * 1e6),
            );
        }
        for s in &run.shuffle {
            em.push(&format!(
                "\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"s\":\"t\",\"name\":\"shuffle r{}\",\"cat\":\"shuffle\",\"ts\":{},\"args\":{{\"bytes\":{},\"records\":{},\"segments\":{}}}",
                s.reducer, s.wall_us, s.bytes, s.records, s.segments
            ));
        }
        for m in &run.peak_mem {
            em.push(&format!(
                "\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"s\":\"t\",\"name\":\"peak mem {}\",\"cat\":\"memory\",\"ts\":{},\"args\":{{\"peak_bytes\":{}}}",
                m.phase, m.wall_us, m.peak_bytes
            ));
        }
    }

    for ev in events {
        match &ev.kind {
            EventKind::SpanBegin { name } => {
                em.push(&format!(
                    "\"ph\":\"B\",\"pid\":{DRIVER_PID},\"tid\":0,\"name\":\"{}\",\"cat\":\"driver\",\"ts\":{}",
                    escape(name),
                    ev.wall_us
                ));
            }
            EventKind::SpanEnd { name } => {
                em.push(&format!(
                    "\"ph\":\"E\",\"pid\":{DRIVER_PID},\"tid\":0,\"name\":\"{}\",\"cat\":\"driver\",\"ts\":{}",
                    escape(name),
                    ev.wall_us
                ));
            }
            EventKind::KernelRun {
                kernel,
                input,
                output,
                comparisons,
                passes,
                elapsed_us,
            } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":1,\"s\":\"t\",\"name\":\"kernel {}\",\"cat\":\"kernel\",\"ts\":{},\"args\":{{\"input\":{input},\"output\":{output},\"comparisons\":{comparisons},\"passes\":{passes},\"elapsed_us\":{elapsed_us}}}",
                    escape(kernel),
                    ev.wall_us
                ));
            }
            EventKind::PartitionLocalSkyline {
                partition,
                input,
                output,
                pruned,
                kernel,
            } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":1,\"s\":\"t\",\"name\":\"partition {partition}\",\"cat\":\"partition\",\"ts\":{},\"args\":{{\"input\":{input},\"output\":{output},\"pruned\":{pruned},\"kernel\":\"{}\"}}",
                    ev.wall_us,
                    escape(kernel)
                ));
            }
            EventKind::FaultInjected {
                site,
                fault,
                scope,
                index,
                attempt,
            } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"t\",\"name\":\"fault {}/{}\",\"cat\":\"chaos\",\"ts\":{},\"args\":{{\"scope\":\"{}\",\"index\":{index},\"attempt\":{attempt}}}",
                    escape(site),
                    escape(fault),
                    ev.wall_us,
                    escape(scope)
                ));
            }
            EventKind::TaskRetryExhausted {
                site,
                scope,
                index,
                attempts,
            } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"t\",\"name\":\"retry exhausted {}\",\"cat\":\"chaos\",\"ts\":{},\"args\":{{\"scope\":\"{}\",\"index\":{index},\"attempts\":{attempts}}}",
                    escape(site),
                    ev.wall_us,
                    escape(scope)
                ));
            }
            EventKind::CheckpointWritten { partition, points } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"t\",\"name\":\"checkpoint write p{partition}\",\"cat\":\"checkpoint\",\"ts\":{},\"args\":{{\"points\":{points}}}",
                    ev.wall_us
                ));
            }
            EventKind::CheckpointRestored { partition, points } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"t\",\"name\":\"checkpoint restore p{partition}\",\"cat\":\"checkpoint\",\"ts\":{},\"args\":{{\"points\":{points}}}",
                    ev.wall_us
                ));
            }
            EventKind::RowsFiltered { input, filtered } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":1,\"s\":\"t\",\"name\":\"filter sweep\",\"cat\":\"pruning\",\"ts\":{},\"args\":{{\"input\":{input},\"filtered\":{filtered}}}",
                    ev.wall_us
                ));
            }
            EventKind::SectorPruned { partition, points } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":1,\"s\":\"t\",\"name\":\"sector pruned p{partition}\",\"cat\":\"pruning\",\"ts\":{},\"args\":{{\"points\":{points}}}",
                    ev.wall_us
                ));
            }
            EventKind::BreakerTransition {
                tenant,
                op,
                from,
                to,
            } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"t\",\"name\":\"breaker {} {}->{}\",\"cat\":\"serve\",\"ts\":{},\"args\":{{\"tenant\":\"{}\",\"op\":\"{}\"}}",
                    escape(op),
                    escape(from),
                    escape(to),
                    ev.wall_us,
                    escape(tenant),
                    escape(op)
                ));
            }
            EventKind::Shed { tenant, reason, .. } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"t\",\"name\":\"shed {}\",\"cat\":\"serve\",\"ts\":{},\"args\":{{\"tenant\":\"{}\"}}",
                    escape(reason),
                    ev.wall_us,
                    escape(tenant)
                ));
            }
            EventKind::SkybandRepair {
                tenant,
                promoted,
                underflow,
            } => {
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"t\",\"name\":\"skyband repair\",\"cat\":\"serve\",\"ts\":{},\"args\":{{\"tenant\":\"{}\",\"promoted\":{promoted},\"underflow\":{underflow}}}",
                    ev.wall_us,
                    escape(tenant)
                ));
            }
            EventKind::RunResumed { run } => {
                // Process-scoped: the crash/resume boundary matters to every
                // track, not just the chaos lane.
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{DRIVER_PID},\"tid\":2,\"s\":\"p\",\"name\":\"run resumed (attempt {run})\",\"cat\":\"chaos\",\"ts\":{}",
                    ev.wall_us
                ));
            }
            // Job slices, shuffle and memory instants come from the runs
            // above; causal flows and steals are drawn below. Retry
            // bookkeeping is visible in the summary view.
            // Per-request serve events are too dense for the timeline —
            // the summary's op/outcome table and latency quantiles carry
            // them; only breaker/shed/repair markers surface here.
            EventKind::JobStarted { .. }
            | EventKind::JobFinished { .. }
            | EventKind::PhaseStarted { .. }
            | EventKind::PhaseFinished { .. }
            | EventKind::TaskFinished { .. }
            | EventKind::ShufflePartition { .. }
            | EventKind::PhasePeakMemory { .. }
            | EventKind::CausalEdge { .. }
            | EventKind::TaskStolen { .. }
            | EventKind::TaskRetried { .. }
            | EventKind::Request { .. }
            | EventKind::StaleServed { .. } => {}
        }
    }

    // Every slice is anchored, so causal flows resolve, each endpoint on
    // the run of its job that the edge was emitted in.
    let anchor = |e, node: &String| {
        let run = model.run_of(e, node)?;
        nodes.get(&(run, node.clone())).copied()
    };
    let mut flow_id = 0u64;
    for e in &model.edges {
        let (edge, src, dst) = (&e.edge, &e.src, &e.dst);
        let (Some((spid, stid, _, send)), Some((dpid, dtid, dstart, _))) =
            (anchor(e, src), anchor(e, dst))
        else {
            // An endpoint with no slice (e.g. a pruned task) has nothing
            // to draw to; skip rather than invent anchors.
            continue;
        };
        em.push(&format!(
            "\"ph\":\"s\",\"pid\":{spid},\"tid\":{stid},\"id\":{flow_id},\"cat\":\"causal\",\"name\":\"{}\",\"ts\":{},\"args\":{{\"src\":\"{}\",\"dst\":\"{}\"}}",
            escape(edge),
            number(send),
            escape(src),
            escape(dst)
        ));
        em.push(&format!(
            "\"ph\":\"f\",\"bp\":\"e\",\"pid\":{dpid},\"tid\":{dtid},\"id\":{flow_id},\"cat\":\"causal\",\"name\":\"{}\",\"ts\":{}",
            escape(edge),
            number(dstart)
        ));
        flow_id += 1;
    }
    for (r, run) in model.runs.iter().enumerate() {
        for phase in [&run.map, &run.reduce] {
            for steal in &phase.steals {
                let node = format!("task:{}/{}/{}", run.name, phase.kind, steal.task);
                let Some(&(pid, tid, start, _)) = nodes.get(&(r, node)) else {
                    continue;
                };
                let (thief, victim) = (steal.thief, steal.victim);
                em.push(&format!(
                    "\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"s\":\"t\",\"name\":\"stolen w{victim}->w{thief}\",\"cat\":\"steal\",\"ts\":{},\"args\":{{\"thief\":{thief},\"victim\":{victim}}}",
                    number(start)
                ));
                em.push(&format!(
                    "\"ph\":\"s\",\"pid\":{pid},\"tid\":0,\"id\":{flow_id},\"cat\":\"steal\",\"name\":\"steal\",\"ts\":{}",
                    number(start)
                ));
                em.push(&format!(
                    "\"ph\":\"f\",\"bp\":\"e\",\"pid\":{pid},\"tid\":{tid},\"id\":{flow_id},\"cat\":\"steal\",\"name\":\"steal\",\"ts\":{}",
                    number(start)
                ));
                flow_id += 1;
            }
        }
    }

    em.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseKind;
    use crate::json;

    fn ev(seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            wall_us: seq * 10,
            kind,
        }
    }

    fn sample_run() -> Vec<TraceEvent> {
        use EventKind::*;
        vec![
            ev(0, SpanBegin { name: "run".into() }),
            ev(1, JobStarted { job: "j1".into() }),
            ev(
                2,
                PhaseStarted {
                    job: "j1".into(),
                    phase: PhaseKind::Map,
                    tasks: 1,
                    sim: 0.0,
                },
            ),
            ev(
                3,
                TaskFinished {
                    job: "j1".into(),
                    phase: PhaseKind::Map,
                    task: 0,
                    slot: 2,
                    sim_start: 0.0,
                    sim_end: 1.5,
                },
            ),
            ev(
                4,
                PhaseFinished {
                    job: "j1".into(),
                    phase: PhaseKind::Map,
                    sim: 1.5,
                },
            ),
            ev(
                5,
                JobFinished {
                    job: "j1".into(),
                    sim_total: 2.0,
                    wall_seconds: 0.01,
                },
            ),
            ev(6, JobStarted { job: "j2".into() }),
            ev(
                7,
                TaskFinished {
                    job: "j2".into(),
                    phase: PhaseKind::Reduce,
                    task: 0,
                    slot: 0,
                    sim_start: 0.5,
                    sim_end: 1.0,
                },
            ),
            ev(8, SpanEnd { name: "run".into() }),
        ]
    }

    #[test]
    fn output_is_well_formed_json() {
        let text = to_chrome_trace(&sample_run());
        let value = json::parse(&text).unwrap();
        let events = value.get("traceEvents").unwrap();
        match events {
            json::JsonValue::Arr(items) => assert!(items.len() >= 8),
            other => panic!("traceEvents not an array: {other:?}"),
        }
    }

    #[test]
    fn chained_job_is_rebased_after_the_first() {
        let text = to_chrome_trace(&sample_run());
        let value = json::parse(&text).unwrap();
        let json::JsonValue::Arr(items) = value.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        // j2's task starts at sim 0.5 but job offset is j1's sim_total
        // (2.0), so its slice must sit at ts = 2.5e6 us.
        let task = items
            .iter()
            .find(|e| {
                e.get("cat").and_then(json::JsonValue::as_str) == Some("task")
                    && e.get("pid").and_then(json::JsonValue::as_u64) == Some(2)
            })
            .unwrap();
        assert_eq!(
            task.get("ts").and_then(json::JsonValue::as_f64),
            Some(2.5e6)
        );
    }

    #[test]
    fn slots_become_named_threads() {
        let text = to_chrome_trace(&sample_run());
        assert!(text.contains("slot 2"));
        assert!(text.contains("\"tid\":3"));
    }

    #[test]
    fn chaos_events_become_instants() {
        use EventKind::*;
        let stream = vec![
            ev(
                0,
                FaultInjected {
                    site: "shuffle-fetch".into(),
                    fault: "drop-record".into(),
                    scope: "merge".into(),
                    index: 1,
                    attempt: 0,
                },
            ),
            ev(
                1,
                TaskRetryExhausted {
                    site: "map-task".into(),
                    scope: "locals".into(),
                    index: 3,
                    attempts: 4,
                },
            ),
            ev(
                2,
                CheckpointWritten {
                    partition: 7,
                    points: 12,
                },
            ),
            ev(
                3,
                CheckpointRestored {
                    partition: 7,
                    points: 12,
                },
            ),
            ev(4, RunResumed { run: 2 }),
        ];
        let text = to_chrome_trace(&stream);
        json::parse(&text).unwrap();
        assert!(text.contains("fault shuffle-fetch/drop-record"));
        assert!(text.contains("retry exhausted map-task"));
        assert!(text.contains("checkpoint write p7"));
        assert!(text.contains("checkpoint restore p7"));
        assert!(text.contains("run resumed (attempt 2)"));
    }

    #[test]
    fn causal_edges_become_flow_pairs() {
        use EventKind::*;
        let mut stream = sample_run();
        let base = stream.len() as u64;
        // Emitted after j2 starts but before its reduce slice exists in
        // the stream order the runtime produces (real execution precedes
        // the schedule) — the two-pass export must still resolve both
        // endpoints.
        stream.insert(
            7,
            ev(
                100,
                CausalEdge {
                    edge: "shuffle".into(),
                    src: "task:j1/map/0".into(),
                    dst: "task:j2/reduce/0".into(),
                },
            ),
        );
        stream.push(ev(
            base + 100,
            TaskStolen {
                job: "j2".into(),
                phase: PhaseKind::Reduce,
                task: 0,
                thief: 3,
                victim: 1,
            },
        ));
        // fix seq monotonicity after the insert
        for (i, e) in stream.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        let text = to_chrome_trace(&stream);
        let value = json::parse(&text).unwrap();
        let json::JsonValue::Arr(items) = value.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        let phase_of = |item: &json::JsonValue| {
            item.get("ph")
                .and_then(json::JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let flows: Vec<_> = items
            .iter()
            .filter(|e| e.get("cat").and_then(json::JsonValue::as_str) == Some("causal"))
            .collect();
        assert_eq!(flows.len(), 2, "one s/f pair:\n{text}");
        assert_eq!(phase_of(flows[0]), "s");
        assert_eq!(phase_of(flows[1]), "f");
        // The arrow leaves j1's map task end (1.5e6) and lands on j2's
        // reduce task start (rebased to 2.5e6).
        assert_eq!(
            flows[0].get("ts").and_then(json::JsonValue::as_f64),
            Some(1.5e6)
        );
        assert_eq!(
            flows[1].get("ts").and_then(json::JsonValue::as_f64),
            Some(2.5e6)
        );
        assert!(text.contains("stolen w1->w3"));
        assert!(text.contains("\"cat\":\"steal\""));
    }

    #[test]
    fn a_rerun_job_draws_each_runs_flows_on_its_own_process() {
        use EventKind::*;
        let mut stream = Vec::new();
        for _ in 0..2 {
            let task = |phase, sim_start, sim_end| TaskFinished {
                job: "j".into(),
                phase,
                task: 0,
                slot: 0,
                sim_start,
                sim_end,
            };
            stream.extend([
                JobStarted { job: "j".into() },
                task(PhaseKind::Map, 0.0, 1.0),
                CausalEdge {
                    edge: "shuffle".into(),
                    src: "task:j/map/0".into(),
                    dst: "task:j/reduce/0".into(),
                },
                task(PhaseKind::Reduce, 1.0, 2.0),
                JobFinished {
                    job: "j".into(),
                    sim_total: 2.0,
                    wall_seconds: 0.01,
                },
            ]);
        }
        let stream: Vec<_> = (0u64..).zip(stream).map(|(i, k)| ev(i, k)).collect();
        let text = to_chrome_trace(&stream);
        let value = json::parse(&text).unwrap();
        let json::JsonValue::Arr(items) = value.get("traceEvents").unwrap() else {
            panic!("traceEvents not an array");
        };
        let flows: Vec<(String, u64, f64)> = items
            .iter()
            .filter(|e| e.get("cat").and_then(json::JsonValue::as_str) == Some("causal"))
            .map(|e| {
                let field = |k| e.get(k).unwrap();
                (
                    field("ph").as_str().unwrap().to_string(),
                    field("pid").as_u64().unwrap(),
                    field("ts").as_f64().unwrap(),
                )
            })
            .collect();
        // run 2 sits after run 1's 2 s on the sim axis
        let want = [("s", 1, 1e6), ("f", 1, 1e6), ("s", 2, 3e6), ("f", 2, 3e6)];
        let want: Vec<_> = want
            .iter()
            .map(|&(ph, pid, ts)| (ph.to_string(), pid, ts))
            .collect();
        assert_eq!(flows, want, "{text}");
    }

    #[test]
    fn unresolvable_causal_edges_are_skipped() {
        use EventKind::*;
        let stream = vec![ev(
            0,
            CausalEdge {
                edge: "shuffle".into(),
                src: "task:ghost/map/0".into(),
                dst: "task:ghost/reduce/0".into(),
            },
        )];
        let text = to_chrome_trace(&stream);
        json::parse(&text).unwrap();
        assert!(!text.contains("\"cat\":\"causal\""));
    }

    #[test]
    fn pruning_events_become_instants() {
        use EventKind::*;
        let stream = vec![
            ev(
                0,
                RowsFiltered {
                    input: 1600,
                    filtered: 900,
                },
            ),
            ev(
                1,
                SectorPruned {
                    partition: 5,
                    points: 120,
                },
            ),
        ];
        let text = to_chrome_trace(&stream);
        json::parse(&text).unwrap();
        assert!(text.contains("filter sweep"));
        assert!(text.contains("\"filtered\":900"));
        assert!(text.contains("sector pruned p5"));
    }
}
