//! Benchmark-side spans: one record per call into a layer (setup, train,
//! each prediction request, each link send/receive, each calibration
//! call), kept in memory and written out when the run ends.
//!
//! Recording is off unless [`enable`] was called, so untraced runs pay one
//! relaxed atomic load per would-be span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: `(span id, request id)`, innermost last.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// The party this thread acts for (`None` on the main thread).
    static PARTY: RefCell<Option<usize>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub party: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Start recording spans (process-wide).
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag spans opened on this thread with a party id.
pub fn set_party(party: usize) {
    PARTY.with(|p| *p.borrow_mut() = Some(party));
}

/// Closes its span on drop.
pub struct Guard {
    open: Option<(u64, Option<u64>, u64, &'static str, u64)>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, request, name, start_ns)) = self.open.take() else {
            return;
        };
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            request,
            party: PARTY.with(|p| *p.borrow()),
            name,
            start_ns,
            end_ns: now_ns(),
        };
        DONE.lock().expect("span store poisoned").push(span);
    }
}

/// Open a span that inherits the enclosing span's request id.
pub fn open(name: &'static str) -> Guard {
    open_inner(name, None)
}

/// Open a span that starts request `request`; spans opened inside it
/// share the id.
pub fn open_request(name: &'static str, request: u64) -> Guard {
    open_inner(name, Some(request))
}

fn open_inner(name: &'static str, request: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let (parent, request) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, inherited) = match s.last() {
            Some(&(pid, req)) => (Some(pid), req),
            None => (None, 0),
        };
        let request = request.unwrap_or(inherited);
        s.push((id, request));
        (parent, request)
    });
    Guard {
        open: Some((id, parent, request, name, start_ns)),
    }
}

/// Take every span closed so far, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *DONE.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Total duration of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}
