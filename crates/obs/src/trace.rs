//! Span-based tracing into a bounded per-session event ring.
//!
//! A [`SpanGuard`] samples the monotonic clock when it is created and
//! pushes one [`TraceEvent`] when it drops — so spans record even when
//! the guarded code unwinds or returns early through an interrupt.
//! The ring is bounded: once full, the oldest event is evicted, and
//! because capacity is reserved up front the steady state allocates
//! nothing on the hot path (labels are `&'static str`; the optional
//! `detail` string is reserved for cold paths like guard trips).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json_escape;
use crate::metrics::Histogram;

/// One entry in the trace ring. Timestamps are nanosecond offsets from
/// the tracer's epoch (session construction), so events from one
/// session order totally even across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number within this tracer (monotone, gap-free
    /// until the ring evicts).
    pub seq: u64,
    /// Start offset from the tracer epoch, in nanoseconds.
    pub at_ns: u64,
    /// Span duration in nanoseconds; 0 for instantaneous events.
    pub dur_ns: u64,
    /// Static label, e.g. `"commit.ground"`.
    pub label: &'static str,
    /// Optional cold-path payload (e.g. guard-trip readings).
    pub detail: Option<String>,
}

impl TraceEvent {
    /// Renders the event as one JSON object, following the
    /// `gsls-analyze` diagnostic conventions.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\": {}, \"at_ns\": {}, \"dur_ns\": {}, \"label\": \"{}\"",
            self.seq,
            self.at_ns,
            self.dur_ns,
            json_escape(self.label)
        );
        if let Some(d) = &self.detail {
            out.push_str(&format!(", \"detail\": \"{}\"", json_escape(d)));
        }
        out.push('}');
        out
    }
}

struct Ring {
    events: VecDeque<TraceEvent>,
    cap: usize,
}

/// A bounded ring of [`TraceEvent`]s with a monotonic epoch.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

struct TracerInner {
    on: Arc<AtomicBool>,
    epoch: Instant,
    seq: AtomicU64,
    ring: Mutex<Ring>,
}

impl Tracer {
    pub(crate) fn with_flag(on: Arc<AtomicBool>, cap: usize) -> Self {
        let cap = cap.max(1);
        Tracer {
            inner: Arc::new(TracerInner {
                on,
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                ring: Mutex::new(Ring {
                    events: VecDeque::with_capacity(cap),
                    cap,
                }),
            }),
        }
    }

    /// Ring capacity (events beyond this evict the oldest).
    pub fn capacity(&self) -> usize {
        self.inner.ring.lock().unwrap().cap
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.ring.lock().unwrap().events.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.inner.ring.lock().unwrap().events.drain(..).collect()
    }

    /// Starts an RAII span; the event is pushed when the guard drops.
    /// While recording is disabled the guard is inert (no clock reads).
    pub fn span<'a>(&'a self, label: &'static str, hist: Option<&'a Histogram>) -> SpanGuard<'a> {
        let start = if self.inner.on.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        };
        SpanGuard {
            tracer: self,
            label,
            start,
            hist,
        }
    }

    /// Records an instantaneous event (cold paths: guard trips,
    /// recovery fallbacks). `detail` may allocate; keep it off hot
    /// paths.
    pub fn event(&self, label: &'static str, detail: Option<String>) {
        if !self.inner.on.load(Ordering::Relaxed) {
            return;
        }
        let at_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        self.push(label, at_ns, 0, detail);
    }

    /// Records a completed span measured by the caller (for phases
    /// whose duration is derived, e.g. ground-minus-finalize).
    pub fn span_event(&self, label: &'static str, start: Instant, dur_ns: u64) {
        if self.inner.on.load(Ordering::Relaxed) {
            self.push_span(label, start, dur_ns, None);
        }
    }

    /// [`Tracer::span_event`] with a payload built only while recording
    /// is on (cold paths: what a rollback dropped).
    pub fn span_event_with(
        &self,
        label: &'static str,
        start: Instant,
        dur_ns: u64,
        detail: impl FnOnce() -> String,
    ) {
        if self.inner.on.load(Ordering::Relaxed) {
            self.push_span(label, start, dur_ns, Some(detail()));
        }
    }

    fn push_span(&self, label: &'static str, start: Instant, dur_ns: u64, detail: Option<String>) {
        let at_ns = start
            .checked_duration_since(self.inner.epoch)
            .map_or(0, |d| d.as_nanos() as u64);
        self.push(label, at_ns, dur_ns, detail);
    }

    fn push(&self, label: &'static str, at_ns: u64, dur_ns: u64, detail: Option<String>) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.inner.ring.lock().unwrap();
        if ring.events.len() == ring.cap {
            ring.events.pop_front();
        }
        ring.events.push_back(TraceEvent {
            seq,
            at_ns,
            dur_ns,
            label,
            detail,
        });
    }
}

/// RAII span timer from [`Tracer::span`] / the [`span!`](crate::span)
/// macro: drop pushes a [`TraceEvent`] and, when a histogram was
/// attached, records the duration there too.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    label: &'static str,
    start: Option<Instant>,
    hist: Option<&'a Histogram>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        if let Some(h) = self.hist {
            h.record(dur_ns);
        }
        self.tracer.span_event(self.label, start, dur_ns);
    }
}
