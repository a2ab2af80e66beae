//! Server-thread entry point and the handler protocol.
//!
//! RFP keeps the server CPU in the request path (that is its deliberate
//! trade against server-bypass): each server thread owns a disjoint set
//! of connections (EREW partitioning, as Jakiro does) and scans their
//! request buffers in round-robin, processing and answering in place.
//! That scan exists once, in the serve [`Reactor`] (see the
//! [`reactor`](crate::reactor) module docs for its order and its two
//! optional stages); [`serve_loop`] is its one-core preset.
//!
//! A handler plugs into the scan at two points. Per request it writes
//! the response into a reply buffer the reactor lends it and returns a
//! [`Reply`]: post that response, **hold** it, or a **refusal** (a
//! [`RespStatus`] verdict posted without executing). The buffer comes
//! from the reactor's pool, the one that recycles request buffers, and
//! goes back once the reply is posted (DESIGN.md "Allocation rule").
//! Per scan it gets one [`commit`](ScanHandler::commit) await, after
//! which the held responses are released into their own ring slots — a
//! replicated primary ships its mutation log there, so no held write is
//! acked before it is replicated, and the scan never names replication.
//! A plain closure is the handler with neither: every reply is posted
//! at once and nothing is ever committed.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use rfp_rnic::ThreadCtx;
use rfp_simnet::SimSpan;

use crate::conn::RfpServerConn;
use crate::header::RespStatus;
use crate::reactor::Reactor;

/// How a server thread produces a response from a request payload.
///
/// Returns the response payload plus the simulated *application*
/// processing time to charge (the paper's `P`; Figure 14 sweeps it).
pub trait RfpHandler {
    /// Handles one request.
    fn handle(&mut self, request: &[u8]) -> (Vec<u8>, SimSpan);
}

impl<F> RfpHandler for F
where
    F: FnMut(&[u8]) -> (Vec<u8>, SimSpan),
{
    fn handle(&mut self, request: &[u8]) -> (Vec<u8>, SimSpan) {
        self(request)
    }
}

/// What the scan does with one request's outcome. The response bytes
/// are the reply buffer the handler wrote.
pub enum Reply {
    /// Post the response now.
    Send,
    /// Executed, but the response waits for this scan's
    /// [`commit`](ScanHandler::commit); it is then posted into the slot
    /// captured at pickup. Dropped if the machine crashes first.
    Hold,
    /// Not executed: answer with this verdict. A refusal is not
    /// service — a scan that only refused still pays its idle spin.
    Refuse(RespStatus),
}

/// The end-of-scan work of a handler that holds replies or defers side
/// effects (log shipping). Owns what it needs: the scan awaits it while
/// the handler itself stays free.
pub type Commit = Pin<Box<dyn Future<Output = ()>>>;

/// The full handler protocol of the server scan. Every [`RfpHandler`]
/// (hence every closure) is one that sends each reply at once and never
/// commits.
pub trait ScanHandler {
    /// Serves one request: writes the response into `reply` (lent
    /// empty by the reactor) and returns what to do with it and the
    /// process time to charge.
    fn serve(&mut self, request: &[u8], reply: &mut Vec<u8>) -> (Reply, SimSpan);

    /// Called once at the end of every scan of the owning core that
    /// picked up a request, crashed or not; `None` (the default) when
    /// there is nothing to commit. Held replies are released when the
    /// returned future completes.
    fn commit(&mut self) -> Option<Commit> {
        None
    }
}

/// A plain handler's response takes the lent buffer's place: the
/// handler's own `Vec` is what the reactor posts and then pools.
impl<H: RfpHandler> ScanHandler for H {
    fn serve(&mut self, request: &[u8], reply: &mut Vec<u8>) -> (Reply, SimSpan) {
        let (resp, process) = self.handle(request);
        *reply = resp;
        (Reply::Send, process)
    }
}

/// Idle pacing of a serve loop.
///
/// Every scan that finds no work charges `spin` of busy CPU (the poll
/// itself). With `max_nap` non-zero the loop additionally *backs off*:
/// consecutive empty scans grow an idle (not busy) nap, doubling from
/// `spin` up to `max_nap`, reset by the first scan that serves work —
/// cutting simulated poll burn at low load without touching saturated
/// throughput (a loaded loop never naps).
///
/// A bare [`SimSpan`] converts into the fixed-pause policy
/// (`max_nap = 0`), which reproduces the classic loop event-for-event.
#[derive(Copy, Clone, Debug)]
pub struct IdlePolicy {
    /// Busy spin cost charged per empty scan.
    pub spin: SimSpan,
    /// Adaptive-backoff nap cap; zero disables backoff.
    pub max_nap: SimSpan,
}

impl From<SimSpan> for IdlePolicy {
    fn from(spin: SimSpan) -> Self {
        IdlePolicy {
            spin,
            max_nap: SimSpan::ZERO,
        }
    }
}

impl IdlePolicy {
    /// Fixed-pause policy (no backoff): the classic loop.
    pub fn fixed(spin: SimSpan) -> Self {
        spin.into()
    }

    /// Adaptive backoff: `spin` per empty scan plus a nap doubling from
    /// `spin` up to `max_nap` while scans stay empty.
    ///
    /// # Panics
    ///
    /// Panics if `spin` is zero: the doubling would stay at zero and the
    /// loop would never nap.
    pub fn adaptive(spin: SimSpan, max_nap: SimSpan) -> Self {
        assert!(
            !spin.is_zero(),
            "adaptive backoff doubles from a non-zero spin"
        );
        IdlePolicy { spin, max_nap }
    }

    /// The nap to take after one more consecutive empty scan, given the
    /// previous nap (zero at first).
    pub(crate) fn next_nap(&self, prev: SimSpan) -> SimSpan {
        if self.max_nap.is_zero() {
            return SimSpan::ZERO;
        }
        if prev.is_zero() {
            self.spin.min(self.max_nap)
        } else {
            SimSpan::nanos(prev.as_nanos().saturating_mul(2)).min(self.max_nap)
        }
    }
}

/// Runs one server thread forever: scan the owned connections, process
/// every pending request, answer through the connection.
///
/// `idle` paces the loop when a full scan found no work; a plain
/// [`SimSpan`] gives the classic fixed spin cost, [`IdlePolicy::adaptive`]
/// adds exponential idle backoff.
///
/// This is the one-core preset of the serve [`Reactor`]: no stealing,
/// the admission stage present iff the connections carry overload
/// control, and an event order that matches the pre-reactor loops
/// exactly (pinned by `tests/reactor_identity.rs`).
pub async fn serve_loop(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    handler: impl ScanHandler + 'static,
    idle: impl Into<IdlePolicy>,
) {
    Reactor::single(thread, conns, handler, idle)
        .run_core(0)
        .await
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-zero spin")]
    fn adaptive_backoff_from_a_zero_spin_is_refused() {
        let _ = IdlePolicy::adaptive(SimSpan::ZERO, SimSpan::micros(10));
    }
}
