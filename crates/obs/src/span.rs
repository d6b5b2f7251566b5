//! Scoped span timers with exclusive-time attribution.
//!
//! A [`Span`] measures one named phase. Spans nest on a thread-local
//! stack; when a span finishes, the time its *children* spent is
//! subtracted, so each phase is charged only its **exclusive** time and a
//! nest of spans never double-counts a nanosecond. The exclusive time is
//! recorded into the process-wide `wm_phase_seconds{phase=…}` histogram
//! and, when a request context is open on the thread (see
//! [`crate::request`]), appended to that request's segment list.
//!
//! Spans are deliberately cheap: entering is a thread-local push and an
//! `Instant::now()`; finishing is a pop, a subtraction and one histogram
//! record.
//!
//! Spans are `!Send` — a span must finish on the thread that entered it,
//! which the type system enforces. Drop order is LIFO by construction
//! (values drop in reverse declaration order); `finish`/`Drop` on an
//! out-of-order span would mis-attribute time, not corrupt state.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// One open phase on the thread's span stack.
struct Frame {
    phase: &'static str,
    start: Instant,
    /// Total (inclusive) nanoseconds already consumed by finished child
    /// spans of this frame.
    child_nanos: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// A scoped timer for one named phase. Created by [`Span::enter`];
/// recording happens in [`finish`](Span::finish) or on drop.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    /// False once finished.
    active: bool,
    /// Opts out of `Send`/`Sync`: the frame lives in this thread's stack.
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// Opens a span for `phase` on this thread's stack.
    ///
    /// `phase` becomes the `phase` label of `wm_phase_seconds`, so it must
    /// be low-cardinality (a fixed set of compile-time names).
    pub fn enter(phase: &'static str) -> Self {
        STACK.with(|stack| {
            stack.borrow_mut().push(Frame {
                phase,
                start: Instant::now(),
                child_nanos: 0,
            });
        });
        Self {
            active: true,
            _not_send: PhantomData,
        }
    }

    /// Closes the span now and returns its **exclusive** nanoseconds.
    pub fn finish(mut self) -> u64 {
        self.complete()
    }

    fn complete(&mut self) -> u64 {
        if !self.active {
            return 0;
        }
        self.active = false;
        let Some((phase, exclusive)) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop()?;
            let total = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(parent) = stack.last_mut() {
                parent.child_nanos = parent.child_nanos.saturating_add(total);
            }
            Some((frame.phase, total.saturating_sub(frame.child_nanos)))
        }) else {
            return 0;
        };
        crate::record_phase(phase, exclusive);
        exclusive
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.complete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_attribute_exclusive_time() {
        let outer = Span::enter("test_outer");
        std::thread::sleep(Duration::from_millis(10));
        let inner = Span::enter("test_inner");
        std::thread::sleep(Duration::from_millis(20));
        let inner_ns = inner.finish();
        std::thread::sleep(Duration::from_millis(5));
        let outer_ns = outer.finish();
        assert!(
            inner_ns >= Duration::from_millis(20).as_nanos() as u64,
            "inner saw its own sleep: {inner_ns}"
        );
        // Outer is charged only its exclusive ~15ms, never the inner 20ms.
        assert!(
            outer_ns >= Duration::from_millis(15).as_nanos() as u64,
            "outer saw its exclusive sleeps: {outer_ns}"
        );
        assert!(
            outer_ns < Duration::from_millis(20).as_nanos() as u64,
            "outer must not absorb the inner phase: {outer_ns}"
        );
    }
}
