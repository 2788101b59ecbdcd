//! Hierarchical spans with a per-thread parent stack.
//!
//! A [`span`] call when tracing is disabled costs one relaxed atomic load
//! and constructs an inert guard — no clock read, no allocation, no lock.
//! When enabled, the guard pushes itself onto a thread-local stack (which
//! is how children discover their parent) and on drop appends a finished
//! [`SpanRecord`] to the global collector.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Process epoch all span timestamps are relative to. Anchored on first
/// use so `start_ns` values are small and monotonically comparable.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static SPANS: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// An active span: its id and the fields accumulated so far.
type Frame = (u64, Vec<(&'static str, String)>);

thread_local! {
    /// Stack of active spans on this thread.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Turns tracing on. Spans, counters and histograms start recording.
pub fn enable() {
    // Anchor the epoch before any span reads it so timestamps stay small.
    let _ = epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off. Already-collected data is retained.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether tracing is currently on. The single relaxed load every
/// instrumentation point pays when observability is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A finished span as stored in the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (process-wide, never reused).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name, dot-namespaced by layer (e.g. `vfs.union.append`).
    pub name: &'static str,
    /// Nanoseconds since the obs epoch at span entry.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// `key=value` annotations attached while the span was open.
    pub fields: Vec<(&'static str, String)>,
}

/// RAII guard returned by [`span`]; records the span on drop.
pub struct SpanGuard {
    /// `None` when tracing was disabled at construction.
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    start_ns: u64,
}

/// Opens a span. Inert (and free) when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|(pid, _)| *pid);
        s.push((id, Vec::new()));
        parent
    });
    let start = Instant::now();
    let start_ns = start.duration_since(epoch()).as_nanos() as u64;
    SpanGuard { active: Some(ActiveSpan { id, parent, name, start, start_ns }) }
}

impl SpanGuard {
    /// True when this guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a `key=value` field to this span.
    pub fn field(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(active) = &self.active {
            push_field(active.id, key, value.into());
        }
    }

    /// Like [`SpanGuard::field`] but the value closure only runs when the
    /// span is recording — use for values that are costly to format.
    pub fn field_with(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if let Some(active) = &self.active {
            push_field(active.id, key, value());
        }
    }
}

/// Attaches a field to the innermost open span on this thread, if any.
/// Lets deep callees annotate their caller's span without plumbing the
/// guard through.
pub fn annotate(key: &'static str, value: String) {
    if !enabled() {
        return;
    }
    STACK.with(|s| {
        if let Some((_, fields)) = s.borrow_mut().last_mut() {
            fields.push((key, value));
        }
    });
}

fn push_field(id: u64, key: &'static str, value: String) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        // The guard's span is almost always the top of the stack, but a
        // caller may hold the guard while children are open.
        if let Some((_, fields)) = s.iter_mut().rev().find(|(sid, _)| *sid == id) {
            fields.push((key, value));
        }
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        let fields = STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop our own entry; tolerate out-of-order drops by searching.
            match s.iter().rposition(|(sid, _)| *sid == active.id) {
                Some(pos) => s.remove(pos).1,
                None => Vec::new(),
            }
        });
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            start_ns: active.start_ns,
            dur_ns,
            fields,
        };
        collector().lock().push(record);
    }
}

pub(crate) fn collected_spans() -> Vec<SpanRecord> {
    collector().lock().clone()
}

pub(crate) fn drain_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *collector().lock())
}
