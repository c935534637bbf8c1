//! Structured JSONL sink: one JSON object per event, one per line.
//!
//! Schema (`DESIGN.md` "Observability" documents it in full): every
//! line carries `kind`, `run`, `t_ns` (monotonic nanoseconds since
//! the sink was created) and `thread` (a small per-process thread
//! ordinal shared with the flight recorder). Span lines add
//! `name`/`depth`/`id` plus `parent` when the span has one and `zone`
//! when it is zone-attributed (and `dur_ns` on exit); metric lines
//! add `name`/`value` and, when known, the enclosing `stage`;
//! `post_mortem` lines splice a rendered forensics frame (see
//! [`crate::forensics`]). The first line is a `run_start` header, the
//! last (on drop) a `run_end` trailer carrying `dropped_events` and
//! the flight recorder's `ring_overflow`.
//!
//! Failure policy: a write error must never reach the pipeline. The
//! event is dropped, an atomic `dropped_events` counter is bumped,
//! and the trailer (or the caller, via [`JsonlSink::dropped_events`])
//! reports how many were lost.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::forensics::PostMortem;
use crate::json;
use crate::recorder::{Recorder, SpanMeta};
use crate::ring;

/// A [`Recorder`] that renders every event as one JSON line.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    start: Instant,
    run_id: String,
    dropped: AtomicU64,
}

impl JsonlSink {
    /// Creates a sink writing to the file at `path` (truncated).
    ///
    /// # Errors
    /// Propagates the underlying file-creation error.
    pub fn create(path: &str) -> io::Result<Arc<Self>> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Creates a sink writing to stderr.
    pub fn stderr() -> Arc<Self> {
        Self::from_writer(Box::new(io::stderr()))
    }

    /// Creates a sink over an arbitrary writer (used by the chaos
    /// suite to inject write failures).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Arc<Self> {
        let wall_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_nanos();
        let run_id = format!("{:x}-{:x}", std::process::id(), wall_ns);
        let sink = JsonlSink {
            out: Mutex::new(out),
            start: Instant::now(),
            run_id,
            dropped: AtomicU64::new(0),
        };
        let mut header = String::with_capacity(96);
        header.push_str("{\"kind\":\"run_start\",\"run\":");
        json::escape_into(&mut header, &sink.run_id);
        header.push_str(&format!(
            ",\"pid\":{},\"wall_unix_ns\":{wall_ns}}}",
            std::process::id()
        ));
        sink.emit(&header);
        Arc::new(sink)
    }

    /// How many events have been lost to write errors so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The id stamped on every line of this run.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Writes one line; on failure drops it and counts the loss.
    fn emit(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let ok = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .is_ok();
        if !ok {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Common line prefix: kind, run id, monotonic time, thread.
    fn prefix(&self, kind: &str) -> String {
        let t_ns = self.start.elapsed().as_nanos();
        let thread = ring::thread_ordinal();
        let mut line = String::with_capacity(160);
        line.push_str("{\"kind\":");
        json::escape_into(&mut line, kind);
        line.push_str(",\"run\":");
        json::escape_into(&mut line, &self.run_id);
        line.push_str(&format!(",\"t_ns\":{t_ns},\"thread\":{thread}"));
        line
    }

    fn metric(
        &self,
        kind: &str,
        name: &str,
        stage: Option<&str>,
        render_value: impl FnOnce(&mut String),
    ) {
        let mut line = self.prefix(kind);
        line.push_str(",\"name\":");
        json::escape_into(&mut line, name);
        if let Some(stage) = stage {
            line.push_str(",\"stage\":");
            json::escape_into(&mut line, stage);
        }
        line.push_str(",\"value\":");
        render_value(&mut line);
        line.push('}');
        self.emit(&line);
    }
}

impl JsonlSink {
    /// Renders the shared span fields: name, depth, id, and (when
    /// present) parent link and zone attribution.
    fn span_fields(&self, kind: &str, span: &SpanMeta) -> String {
        let mut line = self.prefix(kind);
        line.push_str(",\"name\":");
        json::escape_into(&mut line, span.name);
        line.push_str(&format!(",\"depth\":{},\"id\":{}", span.depth, span.id));
        if let Some(parent) = span.parent {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        if let Some(zone) = span.zone {
            line.push_str(&format!(",\"zone\":{zone}"));
        }
        line
    }
}

impl Recorder for JsonlSink {
    fn span_enter(&self, span: &SpanMeta) {
        let mut line = self.span_fields("span_enter", span);
        line.push('}');
        self.emit(&line);
    }

    fn span_exit(&self, span: &SpanMeta, dur: Duration) {
        let mut line = self.span_fields("span_exit", span);
        line.push_str(&format!(",\"dur_ns\":{}}}", dur.as_nanos()));
        self.emit(&line);
    }

    fn counter(&self, name: &'static str, delta: u64, stage: Option<&'static str>) {
        self.metric("counter", name, stage, |line| {
            line.push_str(&delta.to_string());
        });
    }

    fn gauge(&self, name: &'static str, value: f64, stage: Option<&'static str>) {
        self.metric("gauge", name, stage, |line| {
            json::number_into(line, value);
        });
    }

    fn observe(&self, name: &'static str, value: u64, stage: Option<&'static str>) {
        self.metric("observe", name, stage, |line| {
            line.push_str(&value.to_string());
        });
    }

    fn timer(&self, name: &'static str, ns: u64, stage: Option<&'static str>) {
        self.metric("timer", name, stage, |line| {
            line.push_str(&ns.to_string());
        });
    }

    fn post_mortem(&self, dump: &PostMortem) {
        let mut line = self.prefix("post_mortem");
        line.push(',');
        line.push_str(dump.fields_json());
        line.push('}');
        self.emit(&line);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let mut trailer = self.prefix("run_end");
        trailer.push_str(&format!(
            ",\"dropped_events\":{},\"ring_overflow\":{}}}",
            self.dropped.load(Ordering::Relaxed),
            ring::overflow_total()
        ));
        self.emit(&trailer);
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared in-memory writer so the test can read back what the
    /// sink wrote after the sink is dropped.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Writer that always fails.
    struct Failing;
    impl Write for Failing {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("injected sink failure"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("injected sink failure"))
        }
    }

    #[test]
    fn every_emitted_line_is_valid_json() {
        let buf = Shared::default();
        let sink = JsonlSink::from_writer(Box::new(buf.clone()));
        let meta = SpanMeta {
            name: "stage",
            depth: 2,
            id: 41,
            parent: Some(40),
            zone: Some(5),
        };
        sink.span_enter(&meta);
        sink.counter("ops", 3, Some("stage"));
        sink.gauge("level", -2.5, None);
        sink.observe("size", 17, Some("stage"));
        sink.timer("wall_ns", 9, Some("stage"));
        sink.span_exit(&meta, Duration::from_micros(12));
        sink.post_mortem(&crate::forensics::render(&crate::Dump {
            class: "worker_panic",
            detail: "boom",
            ..crate::Dump::default()
        }));
        drop(sink);
        let text = String::from_utf8(buf.0.lock().expect("lock").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9); // run_start + 7 events + run_end
        for line in &lines {
            crate::json::validate(line).expect("line must parse");
        }
        assert!(lines[0].contains("\"kind\":\"run_start\""));
        assert!(lines[8].contains("\"kind\":\"run_end\""));
        assert!(lines[8].contains("\"dropped_events\":0"));
        assert!(lines[8].contains("\"ring_overflow\":"));
        assert!(text.contains("\"kind\":\"timer\""));
        assert!(text.contains("\"dur_ns\""));
        assert!(text.contains("\"stage\":\"stage\""));
        assert!(text.contains("\"id\":41"));
        assert!(text.contains("\"parent\":40"));
        assert!(text.contains("\"zone\":5"));
        assert!(text.contains("\"kind\":\"post_mortem\""));
        assert!(text.contains("\"class\":\"worker_panic\""));
    }

    #[test]
    fn write_failures_are_counted_not_raised() {
        let sink = JsonlSink::from_writer(Box::new(Failing));
        assert_eq!(sink.dropped_events(), 1); // run_start already lost
        sink.counter("ops", 1, None);
        sink.gauge("g", 1.0, None);
        assert_eq!(sink.dropped_events(), 3);
        drop(sink); // trailer also fails; still no panic
    }
}
