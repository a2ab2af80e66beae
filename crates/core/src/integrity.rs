//! End-to-end integrity for the remote-fetch path.
//!
//! RFP's fast path guards the response buffer with a single status bit,
//! but a one-sided READ races the server's local write: a large payload
//! DMA is not atomic, and the two-segment fetch for results larger than
//! `F` can straddle a buffer reuse. The integrity layer closes that gap
//! without touching the protocol's op count:
//!
//! * the server stamps every response with a payload **CRC-64** and a
//!   monotonically bumped **buffer generation**
//!   ([`RespIntegrity`](crate::header::RespIntegrity), carried in the
//!   extended 32-byte response header), and writes an 8-byte **canary**
//!   word ([`resp_canary`](crate::header::resp_canary), derived from
//!   seq ⊕ generation) after the payload;
//! * the client verifies header/trailer/CRC agreement on every fetch —
//!   including across the two-segment fetch, where the second READ must
//!   observe the same generation — and silently refetches on mismatch;
//! * on the recovery path the refetch is **bounded**: after
//!   `VERIFY_RETRIES` consecutive corrupt fetches the attempt fails
//!   with [`FailureCause::Corrupt`](crate::FailureCause) and the next
//!   attempt escalates to a QP re-establishment.
//!
//! The layer is on iff [`RfpConfig::integrity`](crate::RfpConfig::integrity)
//! is set; both ends of a connection read the same flag.

use crate::header::{resp_canary, RespHeader, RESP_TRAILER};
use rfp_simnet::crc64;

/// Consecutive corrupt fetches tolerated per recovery attempt before
/// the attempt fails with `FailureCause::Corrupt` (which escalates to a
/// QP re-establishment on the next attempt). A fetch torn by a racing
/// post is clean on the next sample, so a streak means the corruption
/// persists and only a fresh QP can clear it; `tests/integrity.rs` pins
/// absorb → escalate → fail at this value. The plain non-recovery paths
/// refetch without bound — a failed verification is just a failed
/// attempt there.
pub(crate) const VERIFY_RETRIES: u32 = 3;

/// Why a fetched response failed verification.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IntegrityFault {
    /// The trailing canary disagrees with the header's seq/generation:
    /// the fetch straddled a server write (torn DMA or a buffer reuse
    /// across the two-segment fetch).
    Torn,
    /// Header and trailer agree but the payload CRC does not: bytes
    /// were corrupted in flight or in memory.
    CrcMismatch,
}

/// Verifies one fetched response image: `payload` and `trailer` are the
/// bytes found at `hdr.wire_len()..` of the landing zone. Pure — the
/// client calls it in place over the fetched buffer.
///
/// Returns `Ok(())` when the response is intact, or the failure class.
/// A header without integrity fields under an integrity-enabled
/// connection reads as [`IntegrityFault::Torn`]: the server always
/// stamps, so a missing stamp means the fetch observed a partially
/// written (or bit-flipped) header word.
pub fn verify_response(
    hdr: &RespHeader,
    payload: &[u8],
    trailer: &[u8],
) -> Result<(), IntegrityFault> {
    debug_assert_eq!(trailer.len(), RESP_TRAILER);
    let Some(integrity) = hdr.integrity else {
        return Err(IntegrityFault::Torn);
    };
    let expect = resp_canary(hdr.seq, integrity.generation);
    let found = u64::from_le_bytes(trailer.try_into().expect("trailer is 8 bytes"));
    if found != expect {
        return Err(IntegrityFault::Torn);
    }
    if crc64(payload) != integrity.crc {
        return Err(IntegrityFault::CrcMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{RespIntegrity, RespStatus};

    fn stamped(payload: &[u8], seq: u32, generation: u32) -> (RespHeader, Vec<u8>) {
        let hdr = RespHeader {
            valid: true,
            size: payload.len() as u32,
            seq,
            time_us: 1,
            status: RespStatus::Ok,
            credits: 0,
            integrity: Some(RespIntegrity {
                crc: crc64(payload),
                generation,
            }),
            epoch: 0,
        };
        let trailer = resp_canary(seq, generation).to_le_bytes().to_vec();
        (hdr, trailer)
    }

    #[test]
    fn intact_response_verifies() {
        let (hdr, trailer) = stamped(b"payload bytes", 7, 3);
        assert_eq!(verify_response(&hdr, b"payload bytes", &trailer), Ok(()));
    }

    #[test]
    fn generation_mismatch_reads_as_torn() {
        let (hdr, _) = stamped(b"x", 7, 3);
        let stale = resp_canary(7, 2).to_le_bytes();
        assert_eq!(
            verify_response(&hdr, b"x", &stale),
            Err(IntegrityFault::Torn)
        );
    }

    #[test]
    fn payload_corruption_reads_as_crc_mismatch() {
        let (hdr, trailer) = stamped(b"clean", 1, 1);
        assert_eq!(
            verify_response(&hdr, b"cleaM", &trailer),
            Err(IntegrityFault::CrcMismatch)
        );
    }

    #[test]
    fn missing_stamp_reads_as_torn() {
        let (mut hdr, trailer) = stamped(b"", 1, 1);
        hdr.integrity = None;
        assert_eq!(
            verify_response(&hdr, b"", &trailer),
            Err(IntegrityFault::Torn)
        );
    }
}
