//! Deadline wrapper for futures.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::{SimHandle, Sleep};
use crate::time::SimSpan;

/// Runs `fut` for at most `span` of virtual time.
///
/// Resolves to `Some(output)` if the future completes first, `None` if
/// the deadline fires first. The inner future is dropped either way.
///
/// # Examples
///
/// ```
/// use rfp_simnet::{timeout, SimSpan, Simulation};
///
/// let mut sim = Simulation::new(0);
/// let h = sim.handle();
/// sim.spawn(async move {
///     let never = std::future::pending::<()>();
///     let out = timeout(&h, SimSpan::micros(10), never).await;
///     assert!(out.is_none());
///     assert_eq!(h.now().as_nanos(), 10_000);
/// });
/// sim.run();
/// ```
pub fn timeout<F: Future + Unpin>(handle: &SimHandle, span: SimSpan, fut: F) -> Timeout<F> {
    Timeout {
        fut,
        deadline: handle.sleep(span),
    }
}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    fut: F,
    deadline: Sleep,
}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Option<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Poll::Ready(v) = Pin::new(&mut this.fut).poll(cx) {
            return Poll::Ready(Some(v));
        }
        if Pin::new(&mut this.deadline).poll(cx).is_ready() {
            return Poll::Ready(None);
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Signal, SimSpan, Simulation};
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn completes_before_deadline() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let sig = Signal::new();
        let sig2 = sig.clone();
        let got = Rc::new(Cell::new(false));
        let g = Rc::clone(&got);
        sim.spawn(async move {
            let out = timeout(&h, SimSpan::micros(100), sig.wait()).await;
            g.set(out.is_some());
            assert_eq!(h.now().as_nanos(), 5_000);
        });
        let h2 = sim.handle();
        sim.spawn(async move {
            h2.sleep(SimSpan::micros(5)).await;
            sig2.fire();
        });
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn fires_deadline_when_future_stalls() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let sig = Signal::new(); // never fired
        let timed_out = Rc::new(Cell::new(false));
        let t = Rc::clone(&timed_out);
        sim.spawn(async move {
            let out = timeout(&h, SimSpan::micros(3), sig.wait()).await;
            t.set(out.is_none());
        });
        sim.run();
        assert!(timed_out.get());
        assert_eq!(sim.now().as_nanos(), 3_000);
    }
}
