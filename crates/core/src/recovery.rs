//! Client-side crash recovery policy and errors.
//!
//! The paper evaluates RFP on a healthy cluster; a production deployment
//! additionally needs the connection to survive server crashes, QP
//! errors and loss bursts. The recovery loop
//! ([`RfpClient::call_with_recovery`](crate::RfpClient::call_with_recovery))
//! layers three mechanisms over the plain protocol:
//!
//! * a **deadline** on each attempt's response wait — a server that
//!   stops answering turns into a retryable failure instead of a hang,
//! * **jittered exponential backoff** between attempts (the schedule
//!   of a [`RetryPolicy`]),
//! * **QP re-establishment** (with buffer re-registration cost) when
//!   the QP is in the error state, via a factory installed with
//!   [`RfpClient::set_reconnect`](crate::RfpClient::set_reconnect),
//! * **idempotent resubmission**: every retry re-deposits the request
//!   under the *same* sequence number, and the server's dedup rule
//!   (accept a request iff its seq differs from the last delivered one)
//!   makes replays harmless — a restarted server recovers the last
//!   answered seq from its response buffer, so an already-served
//!   request is never executed twice after a warm restart.

use rfp_rnic::VerbError;
use rfp_simnet::{RetryPolicy, SimSpan};

use crate::header::RespStatus;

/// Per-attempt deadline on the response wait: an attempt whose response
/// has not arrived within this span of its submission fails (and the
/// call backs off and resubmits). Every rig runs with this value.
pub(crate) const FETCH_DEADLINE: SimSpan = SimSpan::micros(100);

/// Tunables of the client recovery loop.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Attempt budget and backoff schedule across attempts.
    pub retry: RetryPolicy,
    /// Seed of the backoff-jitter stream (independent per client).
    pub seed: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            retry: RetryPolicy::exponential(16, SimSpan::micros(20), SimSpan::millis(2), 0.2),
            seed: 0x5EED_0001,
        }
    }
}

/// Why one recovery attempt failed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// A verb completed with an error (peer down, QP error).
    Verb(VerbError),
    /// The per-attempt deadline expired with no matching response.
    Deadline,
    /// The server's admission control rejected the request
    /// (`Busy`/`Shed`); it was never executed, and the next attempt
    /// resubmits it under a fresh sequence number.
    Rejected(RespStatus),
    /// The attempt's bounded verify-and-refetch budget was exhausted:
    /// every fetch of an otherwise matching response failed integrity
    /// verification (torn DMA, bit flips). The next attempt escalates
    /// to a QP re-establishment and resubmits under the same seq (the
    /// server may well have executed the request — only the fetched
    /// image is suspect — and dedup makes the replay harmless).
    Corrupt,
}

/// A call that exhausted its recovery budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RpcError {
    /// Attempts made (including the first).
    pub attempts: u32,
    /// The failure that ended the final attempt.
    pub last: FailureCause,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "call failed after {} attempts ({:?})",
            self.attempts, self.last
        )
    }
}

impl std::error::Error for RpcError {}
