//! Per-request lifecycle spans.
//!
//! A [`RequestTrace`] records the instants a request passes named
//! milestones (issue → posted → dequeued → processed → completed…).
//! Phases are the intervals between consecutive marks, named after the
//! mark that *ends* them — so the phase durations of a trace always sum
//! exactly, in sim-nanoseconds, to its end-to-end latency.
//!
//! A [`SpanRecorder`] keeps a bounded ring of finished traces and can
//! export them in the Chrome trace-event JSON format (load the file in
//! `chrome://tracing` or Perfetto; one row per track).
//!
//! # Examples
//!
//! ```
//! use rfp_simnet::{RequestTrace, SimTime};
//!
//! let t = |ns| SimTime::from_nanos(ns);
//! let mut trace = RequestTrace::begin(1, 0, t(100), "issue");
//! trace.mark(t(250), "write_done");
//! trace.mark(t(400), "completed");
//! let total: u64 = trace.phases().iter().map(|p| p.duration.as_nanos()).sum();
//! assert_eq!(total, trace.end_to_end().as_nanos());
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::rc::Rc;

use crate::metrics::json_string;
use crate::time::{SimSpan, SimTime};

/// One interval of a request's lifetime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// The milestone that ends this phase.
    pub name: &'static str,
    /// When the phase started.
    pub start: SimTime,
    /// How long it lasted.
    pub duration: SimSpan,
}

/// The recorded lifecycle of one request.
///
/// A trace keeps its first eight marks in place and moves them to the
/// heap only when a ninth arrives, so opening, marking, retaining and
/// evicting the trace of an ordinary call allocates nothing.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Caller-chosen request identity (e.g. RFP sequence number).
    pub id: u64,
    /// Display row, e.g. the issuing client's index.
    pub track: u32,
    marks: Marks,
}

/// One milestone: its instant and its label.
type Mark = (SimTime, &'static str);

/// Marks a trace holds without a heap allocation: a whole ordinary call
/// (issue, request written, server dequeue, response posted, a few
/// fetch READs, completed).
const INLINE: usize = 8;

/// A trace's marks in timestamp order: in place up to [`INLINE`] of
/// them, all on the heap past that.
#[derive(Clone)]
enum Marks {
    Inline { len: u8, buf: [Mark; INLINE] },
    Spilled(Vec<Mark>),
}

impl Marks {
    fn as_slice(&self) -> &[Mark] {
        match self {
            Marks::Inline { len, buf } => &buf[..*len as usize],
            Marks::Spilled(marks) => marks,
        }
    }

    /// Inserts `mark` at index `at`, shifting the marks after it.
    fn insert(&mut self, at: usize, mark: Mark) {
        match self {
            Marks::Inline { len, buf } if (*len as usize) < INLINE => {
                buf.copy_within(at..*len as usize, at + 1);
                buf[at] = mark;
                *len += 1;
            }
            Marks::Inline { buf, .. } => {
                let mut marks = Vec::with_capacity(2 * INLINE);
                marks.extend_from_slice(&buf[..at]);
                marks.push(mark);
                marks.extend_from_slice(&buf[at..]);
                *self = Marks::Spilled(marks);
            }
            Marks::Spilled(marks) => marks.insert(at, mark),
        }
    }
}

impl std::fmt::Debug for Marks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl RequestTrace {
    /// Starts a trace for request `id` on display row `track`, with its
    /// first milestone `label` at instant `at`.
    pub fn begin(id: u64, track: u32, at: SimTime, label: &'static str) -> Self {
        let mut buf = [(SimTime::ZERO, ""); INLINE];
        buf[0] = (at, label);
        let marks = Marks::Inline { len: 1, buf };
        RequestTrace { id, track, marks }
    }

    /// Records the next milestone.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous mark — simulated requests
    /// move forward in time.
    pub fn mark(&mut self, at: SimTime, label: &'static str) {
        let marks = self.marks();
        let (last, _) = *marks.last().expect("trace always has marks");
        assert!(at >= last, "span mark moves backwards: {at} < {last}");
        self.marks.insert(marks.len(), (at, label));
    }

    /// Records a milestone that may be observed out of order relative
    /// to marks made elsewhere (e.g. a server dequeue that lands before
    /// the client's ACK-driven WRITE completion): inserts in timestamp
    /// order, after existing marks with the same instant.
    pub fn mark_unordered(&mut self, at: SimTime, label: &'static str) {
        let pos = self.marks().partition_point(|&(t, _)| t <= at);
        self.marks.insert(pos, (at, label));
    }

    /// The recorded milestones, oldest first.
    pub fn marks(&self) -> &[(SimTime, &'static str)] {
        self.marks.as_slice()
    }

    /// When the request was issued.
    fn started_at(&self) -> SimTime {
        self.marks()[0].0
    }

    /// Time from first to last mark. Zero for a trace with one mark.
    pub fn end_to_end(&self) -> SimSpan {
        let marks = self.marks();
        marks[marks.len() - 1].0.since(marks[0].0)
    }

    /// The intervals between consecutive marks. Their durations sum
    /// exactly to [`end_to_end`](RequestTrace::end_to_end) — each is the
    /// difference of adjacent timestamps, so the sum telescopes.
    pub fn phases(&self) -> Vec<Phase> {
        self.marks()
            .windows(2)
            .map(|w| Phase {
                name: w[1].1,
                start: w[0].0,
                duration: w[1].0.since(w[0].0),
            })
            .collect()
    }
}

struct Inner {
    spans: VecDeque<RequestTrace>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

/// A bounded, shareable ring of finished [`RequestTrace`]s.
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Rc<RefCell<Inner>>,
}

impl SpanRecorder {
    /// Creates a recorder keeping the most recent `capacity` traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span capacity must be positive");
        SpanRecorder {
            inner: Rc::new(RefCell::new(Inner {
                spans: VecDeque::new(),
                capacity,
                recorded: 0,
                dropped: 0,
            })),
        }
    }

    /// Stores a finished trace, evicting the oldest when full.
    pub fn record(&self, trace: RequestTrace) {
        let mut inner = self.inner.borrow_mut();
        if inner.spans.capacity() == 0 {
            // Reserved at the first trace, not at `new`: a rig that
            // files none keeps no ring of inline traces.
            let ring = inner.capacity.min(4096);
            inner.spans.reserve_exact(ring);
        }
        if inner.spans.len() == inner.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back(trace);
        inner.recorded += 1;
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorded
    }

    /// Traces evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// A copy of the retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<RequestTrace> {
        self.inner.borrow().spans.iter().cloned().collect()
    }

    /// Discards retained traces and zeroes the cumulative counters.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.spans.clear();
        inner.recorded = 0;
        inner.dropped = 0;
    }

    /// Writes the retained traces as a Chrome trace-event JSON array of
    /// complete (`"ph": "X"`) events — one event per phase, with `ts`
    /// and `dur` in microseconds (fractions keep nanosecond precision),
    /// `tid` the trace's track, and the request id in `args`.
    pub fn write_chrome_trace(&self, w: &mut dyn Write) -> io::Result<()> {
        self.write_chrome_filtered(w, |_| true)
    }

    /// Like [`write_chrome_trace`](SpanRecorder::write_chrome_trace),
    /// but keeps only traces overlapping `[from, to]` — the shape a
    /// dump-on-anomaly bundle wants: just the offending window.
    pub fn write_chrome_trace_window(
        &self,
        w: &mut dyn Write,
        from: SimTime,
        to: SimTime,
    ) -> io::Result<()> {
        self.write_chrome_filtered(w, |tr| {
            let start = tr.started_at();
            let end = SimTime::from_nanos(start.as_nanos() + tr.end_to_end().as_nanos());
            start <= to && end >= from
        })
    }

    fn write_chrome_filtered(
        &self,
        w: &mut dyn Write,
        keep: impl Fn(&RequestTrace) -> bool,
    ) -> io::Result<()> {
        let inner = self.inner.borrow();
        writeln!(w, "[")?;
        let mut first = true;
        for trace in inner.spans.iter().filter(|tr| keep(tr)) {
            for phase in trace.phases() {
                if !first {
                    writeln!(w, ",")?;
                }
                first = false;
                write!(
                    w,
                    "{{\"name\": {}, \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
                     \"ts\": {}, \"dur\": {}, \"args\": {{\"req\": {}}}}}",
                    json_string(phase.name),
                    trace.track,
                    micros(phase.start.as_nanos()),
                    micros(phase.duration.as_nanos()),
                    trace.id,
                )?;
            }
        }
        if !first {
            writeln!(w)?;
        }
        writeln!(w, "]")
    }
}

/// Nanoseconds rendered as a decimal microsecond literal (exact, no
/// floating point — determinism matters more than brevity).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_trace() -> RequestTrace {
        let mut tr = RequestTrace::begin(7, 2, t(1_000), "issue");
        tr.mark(t(1_400), "write_done");
        tr.mark(t(1_400), "dequeued"); // zero-length phase is legal
        tr.mark(t(2_100), "processed");
        tr.mark(t(2_500), "completed");
        tr
    }

    #[test]
    fn phases_telescope_to_end_to_end() {
        let tr = sample_trace();
        let phases = tr.phases();
        assert_eq!(phases.len(), 4);
        assert_eq!(phases[0].name, "write_done");
        assert_eq!(phases[1].duration, SimSpan::ZERO);
        let sum: u64 = phases.iter().map(|p| p.duration.as_nanos()).sum();
        assert_eq!(sum, tr.end_to_end().as_nanos());
        assert_eq!(sum, 1_500);
    }

    #[test]
    fn unordered_marks_keep_timestamps_sorted() {
        let mut tr = RequestTrace::begin(0, 0, t(100), "issue");
        tr.mark(t(900), "completed");
        tr.mark_unordered(t(400), "server_dequeued");
        tr.mark_unordered(t(600), "response_posted");
        let times: Vec<u64> = tr.marks().iter().map(|m| m.0.as_nanos()).collect();
        assert_eq!(times, vec![100, 400, 600, 900]);
        let sum: u64 = tr.phases().iter().map(|p| p.duration.as_nanos()).sum();
        assert_eq!(sum, tr.end_to_end().as_nanos());
    }

    #[test]
    #[should_panic(expected = "moves backwards")]
    fn backwards_mark_rejected() {
        let mut tr = RequestTrace::begin(0, 0, t(500), "issue");
        tr.mark(t(400), "oops");
    }

    #[test]
    fn recorder_ring_bounds() {
        let rec = SpanRecorder::new(2);
        for i in 0..3 {
            rec.record(RequestTrace::begin(i, 0, t(i * 10), "issue"));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.recorded(), 3);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.snapshot()[0].id, 1);
        rec.reset();
        assert!(rec.is_empty());
        assert_eq!((rec.recorded(), rec.dropped()), (0, 0));
    }

    #[test]
    fn chrome_trace_shape_and_determinism() {
        let render = || {
            let rec = SpanRecorder::new(8);
            rec.record(sample_trace());
            let mut out = Vec::new();
            rec.write_chrome_trace(&mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let a = render();
        assert_eq!(a, render());
        assert!(a.starts_with("[\n"), "{a}");
        assert!(a.trim_end().ends_with(']'), "{a}");
        assert!(a.contains("\"name\": \"write_done\""), "{a}");
        assert!(a.contains("\"ph\": \"X\""), "{a}");
        assert!(a.contains("\"ts\": 1.000"), "{a}");
        assert!(a.contains("\"dur\": 0.400"), "{a}");
        assert!(a.contains("\"tid\": 2"), "{a}");
        assert!(a.contains("\"req\": 7"), "{a}");
        // Four phases -> four events.
        assert_eq!(a.matches("\"ph\": \"X\"").count(), 4);
    }

    #[test]
    fn windowed_chrome_trace_filters_by_overlap() {
        let rec = SpanRecorder::new(8);
        rec.record(sample_trace()); // spans 1_000..2_500 ns, id 7
        let mut late = RequestTrace::begin(9, 0, t(10_000), "issue");
        late.mark(t(11_000), "completed");
        rec.record(late);
        let render = |from, to| {
            let mut out = Vec::new();
            rec.write_chrome_trace_window(&mut out, t(from), t(to))
                .unwrap();
            String::from_utf8(out).unwrap()
        };
        // Window covering only the first trace.
        let a = render(0, 5_000);
        assert!(a.contains("\"req\": 7"), "{a}");
        assert!(!a.contains("\"req\": 9"), "{a}");
        // Overlap at the edge counts.
        let b = render(2_500, 3_000);
        assert!(b.contains("\"req\": 7"), "{b}");
        // Disjoint window keeps nothing but stays valid JSON.
        assert_eq!(render(5_000, 6_000), "[\n]\n");
    }

    /// The Chrome-trace bytes of one trace with `marks`, written out by
    /// hand from the format `write_chrome_trace` documents.
    fn chrome_reference(id: u64, track: u32, marks: &[Mark]) -> String {
        let events: Vec<String> = (marks.windows(2))
            .map(|w| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {track}, \
                     \"ts\": {}, \"dur\": {}, \"args\": {{\"req\": {id}}}}}",
                    w[1].1,
                    micros(w[0].0.as_nanos()),
                    micros(w[1].0.since(w[0].0).as_nanos()),
                )
            })
            .collect();
        if events.is_empty() {
            return "[\n]\n".to_string();
        }
        format!("[\n{}\n]\n", events.join(",\n"))
    }

    proptest! {
        /// A trace answers what a plain `Vec` of its marks answers —
        /// marks, phases and Chrome-trace bytes — after every `mark` and
        /// `mark_unordered` of a sequence that outgrows the inline marks.
        #[test]
        fn inline_marks_match_a_vec_reference(
            steps in vec((any::<bool>(), 0u64..400, 0usize..4), INLINE + 1..3 * INLINE),
        ) {
            const LABELS: [&str; 4] =
                ["request_written", "fetch_read", "server_dequeued", "completed"];
            let mut trace = RequestTrace::begin(11, 3, t(1_000), "issue");
            let mut reference: Vec<Mark> = vec![(t(1_000), "issue")];
            for (unordered, offset, label) in steps {
                let label = LABELS[label];
                if unordered {
                    // Anywhere from just before the issue to past the end.
                    let at = t(900 + offset * 8);
                    trace.mark_unordered(at, label);
                    let pos = reference.partition_point(|&(m, _)| m <= at);
                    reference.insert(pos, (at, label));
                } else {
                    let at = t(reference.last().unwrap().0.as_nanos() + offset);
                    trace.mark(at, label);
                    reference.push((at, label));
                }
                prop_assert_eq!(trace.marks(), &reference[..]);
                let phases: Vec<Phase> = (reference.windows(2))
                    .map(|w| Phase { name: w[1].1, start: w[0].0, duration: w[1].0.since(w[0].0) })
                    .collect();
                prop_assert_eq!(trace.phases(), phases);
                let end = reference.last().unwrap().0.since(reference[0].0);
                prop_assert_eq!(trace.end_to_end(), end);
                let rec = SpanRecorder::new(1);
                rec.record(trace.clone());
                let mut out = Vec::new();
                rec.write_chrome_trace(&mut out).unwrap();
                let bytes = String::from_utf8(out).unwrap();
                prop_assert_eq!(bytes, chrome_reference(11, 3, &reference));
            }
            prop_assert!(matches!(trace.marks, Marks::Spilled(_)));
        }
    }

    #[test]
    fn empty_recorder_writes_valid_json() {
        let rec = SpanRecorder::new(1);
        let mut out = Vec::new();
        rec.write_chrome_trace(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "[\n]\n");
    }
}
