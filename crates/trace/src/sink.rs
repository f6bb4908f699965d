//! Sinks and the [`Tracer`] handle.
//!
//! A [`Tracer`] is a cheap clonable handle threaded through the pipeline.
//! The disabled tracer ([`Tracer::disabled`]) holds no allocation and its
//! [`emit`](Tracer::emit) is a branch on a `None` — instrumentation sites
//! pay ~nothing when tracing is off, which the `trace_overhead` bench
//! guards. An enabled tracer stamps each event with a monotonic sequence
//! number and an [`EpochClock`] offset (the deterministic [`SimClock`]
//! unless a wall clock is injected), then hands it to a [`TraceSink`].
//!
//! Sequence stamping and the sink write happen under one mutex, so the
//! order of lines in a JSONL file *is* sequence order — the CI schema
//! validator relies on that.

use crate::event::{EventKind, TraceEvent};
use mrsky_model::sync::{AtomicU64, Mutex, Ordering};
use std::io::{self, BufWriter, Write};
use std::sync::Arc;

/// Source of the microsecond timestamps stamped onto trace events.
///
/// The tracer deliberately does not read the wall clock itself: trace
/// files must be byte-reproducible under checkpoint/resume and in
/// tests, so the default clock is the deterministic [`SimClock`]. A
/// real-time consumer (the CLI) injects its own wall-clock
/// implementation via [`Tracer::with_clock`].
pub trait EpochClock: Send + Sync {
    /// Microseconds elapsed since this clock's epoch.
    fn now_us(&self) -> u64;
}

/// Deterministic default clock: a monotonic tick counter that advances
/// one microsecond per reading, so identical event sequences get
/// identical timestamps on every run.
#[derive(Debug, Default)]
pub struct SimClock {
    ticks: AtomicU64,
}

impl EpochClock for SimClock {
    fn now_us(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

/// Destination for stamped trace events.
pub trait TraceSink: Send {
    /// Accepts one stamped event.
    fn emit(&mut self, event: &TraceEvent);
    /// Flushes any buffered output. Default: no-op.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Hands back buffered events, if the sink retains them ([`VecSink`]
    /// does; streaming sinks return nothing).
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Discards everything. Exists so code can hold a `Box<dyn TraceSink>`
/// unconditionally; prefer [`Tracer::disabled`], which skips even the
/// event construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _event: &TraceEvent) {}
}

/// Collects events in memory; the test workhorse.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Streams events as JSON Lines to any writer (typically a file).
pub struct JsonlWriter<W: Write + Send> {
    out: BufWriter<W>,
    error: Option<io::Error>,
}

impl<W: Write + Send> JsonlWriter<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        Self {
            out: BufWriter::new(out),
            error: None,
        }
    }

    /// The first write error encountered, if any. Writes after an error
    /// are dropped rather than panicking mid-pipeline.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<W: Write + Send> TraceSink for JsonlWriter<W> {
    fn emit(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json();
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

struct TracerInner {
    clock: Box<dyn EpochClock>,
    state: Mutex<SinkState>,
}

struct SinkState {
    next_seq: u64,
    sink: Box<dyn TraceSink>,
}

/// Clonable tracing handle. See the module docs for the cost model.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing and costs one branch per call site.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer feeding the given sink, stamped by the deterministic
    /// [`SimClock`].
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Tracer::with_clock(sink, Box::new(SimClock::default()))
    }

    /// A tracer with an explicit timestamp source — how a real-time
    /// consumer opts back into wall-clock stamps.
    pub fn with_clock(sink: Box<dyn TraceSink>, clock: Box<dyn EpochClock>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                state: Mutex::new(SinkState { next_seq: 0, sink }),
            })),
        }
    }

    /// A tracer backed by an in-memory [`VecSink`]; returns the handle and
    /// a closure-free way to drain what was recorded ([`Tracer::drain`]).
    pub fn in_memory() -> Self {
        Tracer::new(Box::new(VecSink::new()))
    }

    /// Whether events will actually be recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A reading of this tracer's clock (0 for a disabled tracer) —
    /// lets callers derive durations in the same timebase as the
    /// emitted events without touching the wall clock themselves.
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.clock.now_us())
    }

    /// Stamps and emits an event. The payload is built lazily so disabled
    /// tracers skip even the `String` clones inside [`EventKind`].
    pub fn emit(&self, make: impl FnOnce() -> EventKind) {
        let Some(inner) = &self.inner else { return };
        let wall_us = inner.clock.now_us();
        let mut state = inner.state.lock();
        let event = TraceEvent {
            seq: state.next_seq,
            wall_us,
            kind: make(),
        };
        state.next_seq += 1;
        state.sink.emit(&event);
    }

    /// Emits a [`EventKind::SpanBegin`]/[`EventKind::SpanEnd`] pair around
    /// a closure and returns its result.
    pub fn span<T>(&self, name: &str, body: impl FnOnce() -> T) -> T {
        self.emit(|| EventKind::SpanBegin { name: name.into() });
        let result = body();
        self.emit(|| EventKind::SpanEnd { name: name.into() });
        result
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O error (e.g. a full disk under a
    /// [`JsonlWriter`]).
    pub fn flush(&self) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut state = inner.state.lock();
        state.sink.flush()
    }

    /// Drains recorded events from a [`VecSink`]-backed tracer; returns an
    /// empty vec for other sinks or a disabled tracer. Test-oriented, but
    /// also used by the CLI to buffer events for post-run conversion.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut state = inner.state.lock();
        state.sink.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PhaseKind;

    #[test]
    fn disabled_tracer_skips_payload_construction() {
        let tracer = Tracer::disabled();
        let mut built = false;
        tracer.emit(|| {
            built = true;
            EventKind::SpanBegin { name: "x".into() }
        });
        assert!(!built);
        assert!(!tracer.is_enabled());
        assert!(tracer.drain().is_empty());
        assert!(tracer.flush().is_ok());
    }

    #[test]
    fn seq_is_dense_and_monotonic_across_clones() {
        let tracer = Tracer::in_memory();
        let clone = tracer.clone();
        for i in 0..5u64 {
            let t = if i % 2 == 0 { &tracer } else { &clone };
            t.emit(|| EventKind::TaskRetried {
                job: "j".into(),
                phase: PhaseKind::Map,
                task: i,
                attempt: 1,
            });
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 5);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        assert!(tracer.drain().is_empty(), "drain empties the sink");
    }

    #[test]
    fn span_wraps_body_in_begin_end() {
        let tracer = Tracer::in_memory();
        let answer = tracer.span("fit", || 42);
        assert_eq!(answer, 42);
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanBegin { name: "fit".into() });
        assert_eq!(events[1].kind, EventKind::SpanEnd { name: "fit".into() });
    }

    #[test]
    fn sim_clock_timestamps_are_reproducible() {
        let run = || {
            let tracer = Tracer::in_memory();
            tracer.emit(|| EventKind::JobStarted { job: "j".into() });
            tracer.span("phase", || ());
            tracer.emit(|| EventKind::JobFinished {
                job: "j".into(),
                sim_total: 1.0,
                wall_seconds: 0.0,
            });
            tracer
                .drain()
                .into_iter()
                .map(|ev| ev.wall_us)
                .collect::<Vec<u64>>()
        };
        let first = run();
        assert_eq!(first, run(), "identical runs must stamp identical times");
        assert!(
            first.windows(2).all(|w| w[0] < w[1]),
            "sim clock is monotone"
        );
    }

    #[test]
    fn injected_clock_drives_timestamps() {
        struct FixedClock;
        impl EpochClock for FixedClock {
            fn now_us(&self) -> u64 {
                42
            }
        }
        let tracer = Tracer::with_clock(Box::new(VecSink::new()), Box::new(FixedClock));
        assert_eq!(tracer.now_us(), 42);
        tracer.emit(|| EventKind::JobStarted { job: "j".into() });
        assert_eq!(tracer.drain()[0].wall_us, 42);
        assert_eq!(Tracer::disabled().now_us(), 0);
    }

    #[test]
    fn jsonl_writer_produces_parseable_lines() {
        let buffer: Vec<u8> = Vec::new();
        let shared = Arc::new(std::sync::Mutex::new(buffer));
        struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let tracer = Tracer::new(Box::new(JsonlWriter::new(Shared(shared.clone()))));
        tracer.emit(|| EventKind::JobStarted { job: "j".into() });
        tracer.emit(|| EventKind::JobFinished {
            job: "j".into(),
            sim_total: 1.0,
            wall_seconds: 0.1,
        });
        tracer.flush().unwrap();
        let bytes = shared.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let ev = TraceEvent::from_json(line).unwrap();
            assert_eq!(ev.seq, i as u64);
        }
    }
}
