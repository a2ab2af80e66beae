//! Buffer headers of the RFP wire protocol (paper Figure 7).
//!
//! Every request carries one fixed 24-byte header ([`REQ_HDR`]); a
//! response carries the paper's 16-byte header ([`RESP_HDR`]), or with
//! the integrity stage on a 32-byte one ([`RESP_HDR_EXT`]) plus an
//! 8-byte trailing canary after the payload ([`RESP_TRAILER`]). Both
//! carry a 32-bit call sequence number — an engineering detail the
//! paper leaves implicit: it tells the client's fetch the response to
//! its current call from a stale one of the previous call, without an
//! extra round trip to clear the remote status bit.
//!
//! Every field sits at a fixed offset; a request that stamps no
//! deadline, tenant or epoch carries the "absent" value of that field,
//! never a shorter header. DESIGN.md's "Wire format" table lists every
//! field and offset, and the golden-bytes tests below are written from
//! it. All fields are little-endian.

use rfp_simnet::SimTime;

/// Size of the request header in bytes, whatever the call stamps.
pub const REQ_HDR: usize = 24;

/// Size of the response header in bytes.
pub const RESP_HDR: usize = 16;

/// Size of the extended response header (base + 8-byte payload CRC +
/// 4-byte generation + 4 spare zero bytes).
pub const RESP_HDR_EXT: usize = 32;

/// Size of the trailing canary word following an integrity-stamped
/// payload.
pub const RESP_TRAILER: usize = 8;

/// Maximum payload size encodable in the 30-bit size field of either
/// header.
pub const MAX_PAYLOAD: usize = (1 << 30) - 1;

const VALID_BIT: u32 = 1 << 31;
const INTEGRITY_BIT: u32 = 1 << 30;
const SIZE_MASK: u32 = (1 << 30) - 1;

/// Wire value of a request that stamps no deadline ("never").
const NO_DEADLINE: u64 = u64::MAX;

/// Wire value of a request that stamps no tenant; tenant id `u32::MAX`
/// is therefore reserved.
const NO_TENANT: u32 = u32::MAX;

/// Salt folded into the trailing canary so a zero-filled (fresh or
/// cold-wiped) buffer never accidentally matches seq 0 / generation 0.
const CANARY_SALT: u64 = 0x5AFE_C0DE_D00D_FEED;

/// The `N` bytes of `buf` at offset `at`.
fn field<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    buf[at..at + N].try_into().expect("slice is N bytes")
}

/// The trailing canary word of an integrity-stamped response: the call
/// sequence and the buffer generation folded into one 8-byte value. A
/// fetch whose header and trailer disagree on it straddled a server
/// write (the DMA tear / buffer-reuse race the integrity layer exists
/// to catch).
pub fn resp_canary(seq: u32, generation: u32) -> u64 {
    (((seq as u64) << 32) | generation as u64) ^ CANARY_SALT
}

/// Ring slot a sequence number occupies in a `window`-slot
/// request/response ring: seq `s` lives in slot `(s − 1) mod window`.
///
/// The mapping is carried entirely by the seq — no extra wire field —
/// because the client allocates seqs so that slot `i`'s calls are
/// exactly the seqs ≡ `i + 1 (mod window)`. It stays consistent across
/// u32 wraparound as long as `window` is a power of two (2³² is then a
/// multiple of `window`), which [`crate::connect`] asserts.
///
/// A single-slot ring maps every seq to slot 0, reproducing today's
/// one-buffer layout exactly.
pub fn slot_of(seq: u32, window: usize) -> usize {
    debug_assert!(window >= 1, "ring needs at least one slot");
    seq.wrapping_sub(1) as usize % window
}

/// Server verdict carried in a response header.
///
/// `Busy`, `Shed` and `Fenced` are rejections: the request was *not*
/// executed (the server either had no queue room, saw the stamped
/// deadline already expired, or fenced a stale-epoch writer), so the
/// client may safely resubmit it under a fresh sequence number — after
/// failing over, for `Fenced`. All rejection verdicts carry an empty
/// payload — the whole point is that a rejection costs the client one
/// in-bound READ, not `R` of them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RespStatus {
    /// The request was executed; the payload is the result.
    Ok,
    /// Admission rejected: the server's bounded queue was full.
    Busy,
    /// Deadline shed: the request's stamped deadline had already passed
    /// when the server picked it up.
    Shed,
    /// Epoch fence: the request was stamped with an epoch older than
    /// the connection's — the sender is a client of a deposed primary
    /// and must fail over before any of its writes are executed.
    Fenced,
}

impl RespStatus {
    /// Wire encoding (one byte).
    fn to_u8(self) -> u8 {
        match self {
            RespStatus::Ok => 0,
            RespStatus::Busy => 1,
            RespStatus::Shed => 2,
            RespStatus::Fenced => 3,
        }
    }

    /// Decodes a wire byte; unknown values read as `Ok`, the verdict a
    /// zero-filled byte carries.
    pub fn from_u8(b: u8) -> Self {
        match b {
            1 => RespStatus::Busy,
            2 => RespStatus::Shed,
            3 => RespStatus::Fenced,
            _ => RespStatus::Ok,
        }
    }
}

/// Decoded request header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReqHeader {
    /// Status bit: the request has fully arrived.
    pub valid: bool,
    /// Payload size in bytes.
    pub size: u32,
    /// Call sequence number.
    pub seq: u32,
    /// Client-stamped absolute deadline, when the overload-control path
    /// stamped one (`SimTime::MAX` reads back as `None`: "never").
    pub deadline: Option<SimTime>,
    /// Tenant id of the issuing logical client, when a multiplexing
    /// layer stamped one.
    pub tenant: Option<u32>,
    /// Replication epoch the issuing client believes is current; 0
    /// before any failover.
    pub epoch: u16,
}

impl ReqHeader {
    /// The header's [`REQ_HDR`] wire bytes; the payload follows them.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds [`MAX_PAYLOAD`] or the tenant is the
    /// reserved `u32::MAX`.
    pub fn encode(&self) -> [u8; REQ_HDR] {
        assert!(self.size as usize <= MAX_PAYLOAD, "payload too large");
        assert_ne!(
            self.tenant,
            Some(NO_TENANT),
            "tenant id u32::MAX is reserved"
        );
        let word = self.size | if self.valid { VALID_BIT } else { 0 };
        let deadline = self.deadline.map_or(NO_DEADLINE, SimTime::as_nanos);
        let mut buf = [0u8; REQ_HDR];
        buf[0..4].copy_from_slice(&word.to_le_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_le_bytes());
        buf[8..16].copy_from_slice(&deadline.to_le_bytes());
        buf[16..20].copy_from_slice(&self.tenant.unwrap_or(NO_TENANT).to_le_bytes());
        buf[20..22].copy_from_slice(&self.epoch.to_le_bytes());
        buf
    }

    /// Decodes from the first [`REQ_HDR`] bytes of `buf`. Any 24 bytes
    /// decode: the reserved bits are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`REQ_HDR`].
    pub fn decode(buf: &[u8]) -> Self {
        let word = u32::from_le_bytes(field(buf, 0));
        let deadline = u64::from_le_bytes(field(buf, 8));
        let tenant = u32::from_le_bytes(field(buf, 16));
        ReqHeader {
            valid: word & VALID_BIT != 0,
            size: word & SIZE_MASK,
            seq: u32::from_le_bytes(field(buf, 4)),
            deadline: (deadline != NO_DEADLINE).then(|| SimTime::from_nanos(deadline)),
            tenant: (tenant != NO_TENANT).then_some(tenant),
            epoch: u16::from_le_bytes(field(buf, 20)),
        }
    }
}

/// Integrity fields of an extended response header (bytes 16..28).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RespIntegrity {
    /// CRC-64 (XZ variant, [`rfp_simnet::crc64`]) of the payload bytes.
    pub crc: u64,
    /// Buffer-generation stamp: the server bumps it on every local post
    /// into this response buffer, so two fetch segments observing
    /// different generations provably straddled a reuse.
    pub generation: u32,
}

/// Decoded response header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RespHeader {
    /// Status bit: the response has been posted by the server.
    pub valid: bool,
    /// Payload size in bytes.
    pub size: u32,
    /// Call sequence number this response answers.
    pub seq: u32,
    /// Server-side process time in microseconds, saturating at
    /// `u16::MAX` (the paper's two-byte `time` field; clients use it to
    /// decide when to switch back from server-reply mode, §3.2).
    pub time_us: u16,
    /// Server verdict: executed, queue-full rejection, or deadline shed.
    pub status: RespStatus,
    /// Admission credits the server currently advertises on this
    /// connection (overload control; 0 when the subsystem is off).
    pub credits: u16,
    /// Payload CRC + buffer generation, when the integrity layer
    /// stamped them. `None` encodes to the 16-byte header.
    pub integrity: Option<RespIntegrity>,
    /// Replication epoch of the answering server (0 before any
    /// failover).
    pub epoch: u16,
}

impl RespHeader {
    /// Bytes this header occupies on the wire ([`RESP_HDR`] or
    /// [`RESP_HDR_EXT`]); the payload starts at this offset.
    pub fn wire_len(&self) -> usize {
        if self.integrity.is_some() {
            RESP_HDR_EXT
        } else {
            RESP_HDR
        }
    }

    /// Encodes into the first [`wire_len`](RespHeader::wire_len) bytes
    /// of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the wire length or `size` exceeds
    /// [`MAX_PAYLOAD`].
    pub fn encode(&self, buf: &mut [u8]) {
        assert!(self.size as usize <= MAX_PAYLOAD, "payload too large");
        let mut word = self.size | if self.valid { VALID_BIT } else { 0 };
        if self.integrity.is_some() {
            word |= INTEGRITY_BIT;
        }
        buf[0..4].copy_from_slice(&word.to_le_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_le_bytes());
        buf[8..10].copy_from_slice(&self.time_us.to_le_bytes());
        buf[10] = self.status.to_u8();
        buf[11..13].copy_from_slice(&self.credits.to_le_bytes());
        buf[13..15].copy_from_slice(&self.epoch.to_le_bytes());
        buf[15] = 0;
        if let Some(integrity) = self.integrity {
            buf[16..24].copy_from_slice(&integrity.crc.to_le_bytes());
            buf[24..28].copy_from_slice(&integrity.generation.to_le_bytes());
            buf[28..32].fill(0);
        }
    }

    /// Decodes from the first [`RESP_HDR`] bytes of `buf` (the first
    /// [`RESP_HDR_EXT`] when the integrity bit is set).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the encoded header.
    pub fn decode(buf: &[u8]) -> Self {
        let word = u32::from_le_bytes(field(buf, 0));
        // The length guard matters under fault injection: a bit flip can
        // set the integrity bit on a 16-byte window, and the decoder must
        // degrade to a (garbage, seq-mismatching) 16-byte header rather
        // than read past the window.
        let integrity =
            (word & INTEGRITY_BIT != 0 && buf.len() >= RESP_HDR_EXT).then(|| RespIntegrity {
                crc: u64::from_le_bytes(field(buf, 16)),
                generation: u32::from_le_bytes(field(buf, 24)),
            });
        RespHeader {
            valid: word & VALID_BIT != 0,
            size: word & SIZE_MASK,
            seq: u32::from_le_bytes(field(buf, 4)),
            time_us: u16::from_le_bytes(field(buf, 8)),
            status: RespStatus::from_u8(buf[10]),
            credits: u16::from_le_bytes(field(buf, 11)),
            integrity,
            epoch: u16::from_le_bytes(field(buf, 13)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request stamping every field.
    const STAMPED: ReqHeader = ReqHeader {
        valid: true,
        size: 300,
        seq: 0x0102_0304,
        deadline: Some(SimTime::from_nanos(0x1122_3344_5566_7788)),
        tenant: Some(0xAABB_CCDD),
        epoch: 0x0E0F,
    };

    /// A 16-byte response setting every field.
    const RESP: RespHeader = RespHeader {
        valid: true,
        size: 17,
        seq: 5,
        time_us: 1200,
        status: RespStatus::Fenced,
        credits: 0x0102,
        integrity: None,
        epoch: 0x0304,
    };

    const INTEGRITY: RespIntegrity = RespIntegrity {
        crc: 0x0123_4567_89AB_CDEF,
        generation: 0xDEAD_0042,
    };

    #[test]
    fn req_header_golden_bytes() {
        // DESIGN.md "Wire format", request: word (size | valid bit 31)
        // at 0, seq at 4, deadline ns at 8, tenant at 16, epoch at 20,
        // two zero bytes at 22.
        #[rustfmt::skip]
        let stamped: [u8; REQ_HDR] = [
            0x2C, 0x01, 0x00, 0x80,
            0x04, 0x03, 0x02, 0x01,
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
            0xDD, 0xCC, 0xBB, 0xAA,
            0x0F, 0x0E,
            0x00, 0x00,
        ];
        assert_eq!(STAMPED.encode(), stamped);
        assert_eq!(ReqHeader::decode(&stamped), STAMPED);
        // Absent deadline and tenant are all ones, epoch 0 is zeros: the
        // same 24 bytes, the same offsets.
        let plain = ReqHeader {
            deadline: None,
            tenant: None,
            epoch: 0,
            ..STAMPED
        };
        #[rustfmt::skip]
        let unstamped: [u8; REQ_HDR] = [
            0x2C, 0x01, 0x00, 0x80,
            0x04, 0x03, 0x02, 0x01,
            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            0xFF, 0xFF, 0xFF, 0xFF,
            0x00, 0x00,
            0x00, 0x00,
        ];
        assert_eq!(plain.encode(), unstamped);
        assert_eq!(ReqHeader::decode(&unstamped), plain);
    }

    #[test]
    fn req_header_round_trip() {
        let h = ReqHeader {
            seq: 0xDEAD_BEEF,
            deadline: None,
            tenant: None,
            ..STAMPED
        };
        assert_eq!(ReqHeader::decode(&h.encode()), h);
    }

    #[test]
    fn req_header_invalid_bit() {
        let h = ReqHeader {
            valid: false,
            size: MAX_PAYLOAD as u32,
            seq: 7,
            ..STAMPED
        };
        let d = ReqHeader::decode(&h.encode());
        assert!(!d.valid);
        assert_eq!(d.size as usize, MAX_PAYLOAD);
    }

    #[test]
    fn req_header_deadline_round_trip() {
        for deadline in [SimTime::ZERO, SimTime::from_nanos(123_456_789)] {
            let h = ReqHeader {
                deadline: Some(deadline),
                tenant: None,
                ..STAMPED
            };
            assert_eq!(ReqHeader::decode(&h.encode()), h);
        }
    }

    #[test]
    fn req_header_tenant_round_trip() {
        for tenant in [0, 7, u32::MAX - 1] {
            let h = ReqHeader {
                deadline: None,
                tenant: Some(tenant),
                ..STAMPED
            };
            assert_eq!(ReqHeader::decode(&h.encode()), h);
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn req_header_reserved_tenant_rejected() {
        ReqHeader {
            tenant: Some(u32::MAX),
            ..STAMPED
        }
        .encode();
    }

    #[test]
    fn req_header_epoch_round_trip() {
        for epoch in [0, 1, 0x0B0C, u16::MAX] {
            let h = ReqHeader { epoch, ..STAMPED };
            let bytes = h.encode();
            assert_eq!(&bytes[20..22], &epoch.to_le_bytes());
            assert_eq!(ReqHeader::decode(&bytes), h);
        }
    }

    #[test]
    fn resp_header_golden_bytes() {
        // DESIGN.md "Wire format", 16-byte response: word (size | valid
        // bit 31) at 0, seq at 4, time_us at 8, status at 10, credits at
        // 11, epoch at 13, one zero byte at 15.
        #[rustfmt::skip]
        let want: [u8; RESP_HDR] = [
            0x11, 0x00, 0x00, 0x80,
            0x05, 0x00, 0x00, 0x00,
            0xB0, 0x04,
            0x03,
            0x02, 0x01,
            0x04, 0x03,
            0x00,
        ];
        let mut buf = [0xFFu8; RESP_HDR];
        RESP.encode(&mut buf);
        assert_eq!(buf, want);
        assert_eq!(RESP.wire_len(), RESP_HDR);
        assert_eq!(RespHeader::decode(&want), RESP);
    }

    #[test]
    fn resp_header_integrity_golden_bytes() {
        // DESIGN.md "Wire format", 32-byte response: the 16-byte layout
        // with bit 30 of the word set, CRC at 16, generation at 24, four
        // zero bytes at 28; after the payload an 8-byte trailer holding
        // ((seq << 32) | generation) ^ 0x5AFE_C0DE_D00D_FEED.
        let h = RespHeader {
            integrity: Some(INTEGRITY),
            ..RESP
        };
        #[rustfmt::skip]
        let want: [u8; RESP_HDR_EXT] = [
            0x11, 0x00, 0x00, 0xC0,
            0x05, 0x00, 0x00, 0x00,
            0xB0, 0x04,
            0x03,
            0x02, 0x01,
            0x04, 0x03,
            0x00,
            0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
            0x42, 0x00, 0xAD, 0xDE,
            0x00, 0x00, 0x00, 0x00,
        ];
        let mut buf = [0xFFu8; RESP_HDR_EXT];
        h.encode(&mut buf);
        assert_eq!(buf, want);
        assert_eq!(h.wire_len(), RESP_HDR_EXT);
        assert_eq!(RespHeader::decode(&want), h);
        // 0x0000_0005_DEAD_0042 ^ 0x5AFE_C0DE_D00D_FEED, little-endian.
        let trailer = [0xAF, 0xFE, 0xA0, 0x0E, 0xDB, 0xC0, 0xFE, 0x5A];
        assert_eq!(resp_canary(5, 0xDEAD_0042).to_le_bytes(), trailer);
    }

    #[test]
    fn resp_header_epoch_round_trip_in_spare_bytes() {
        let h = RespHeader {
            epoch: 0x1234,
            ..RESP
        };
        assert_eq!(h.wire_len(), RESP_HDR);
        let mut buf = [0u8; RESP_HDR];
        h.encode(&mut buf);
        assert_eq!(&buf[13..15], &0x1234u16.to_le_bytes());
        assert_eq!(buf[15], 0);
        assert_eq!(RespHeader::decode(&buf), h);
    }

    #[test]
    fn resp_header_round_trip() {
        let h = RespHeader {
            time_us: u16::MAX,
            ..RESP
        };
        let mut buf = [0u8; RESP_HDR];
        h.encode(&mut buf);
        assert_eq!(RespHeader::decode(&buf), h);
    }

    #[test]
    fn resp_header_status_and_credits_round_trip() {
        for status in [
            RespStatus::Ok,
            RespStatus::Busy,
            RespStatus::Shed,
            RespStatus::Fenced,
        ] {
            let h = RespHeader {
                status,
                credits: 0xBEEF,
                ..RESP
            };
            let mut buf = [0u8; RESP_HDR];
            h.encode(&mut buf);
            let d = RespHeader::decode(&buf);
            assert_eq!(d.status, status);
            assert_eq!(d.credits, 0xBEEF);
            assert_eq!(d, h);
        }
    }

    #[test]
    fn resp_header_integrity_round_trip() {
        let h = RespHeader {
            size: 4096,
            seq: 0xFEED_F00D,
            integrity: Some(INTEGRITY),
            ..RESP
        };
        assert_eq!(h.wire_len(), RESP_HDR_EXT);
        let mut buf = [0u8; RESP_HDR_EXT];
        h.encode(&mut buf);
        assert_eq!(RespHeader::decode(&buf), h);
        // Spare tail bytes stay zero.
        assert_eq!(&buf[28..32], &[0, 0, 0, 0]);
    }

    #[test]
    fn resp_header_without_integrity_is_legacy_sized() {
        assert_eq!(RESP.wire_len(), RESP_HDR);
        // The integrity bit must be clear: decoding sees a 16-byte header.
        let mut buf = [0u8; RESP_HDR];
        RESP.encode(&mut buf);
        let word = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        assert_eq!(word & (1 << 30), 0);
    }

    #[test]
    fn canary_separates_seq_generation_and_zeroed_memory() {
        // Different (seq, generation) pairs must yield different
        // canaries, and no pair may collide with zero-filled memory.
        let mut seen = std::collections::BTreeSet::new();
        for seq in [0u32, 1, 2, 0xFFFF_FFFF] {
            for generation in [0u32, 1, 7, 0xFFFF_FFFF] {
                let c = resp_canary(seq, generation);
                assert_ne!(c, 0, "canary must never look like wiped memory");
                assert!(seen.insert(c), "canary collision at {seq}/{generation}");
            }
        }
        // And the tear signature: same seq, adjacent generations differ.
        assert_ne!(resp_canary(9, 1), resp_canary(9, 2));
    }

    #[test]
    fn status_byte_unknown_values_read_as_ok() {
        assert_eq!(RespStatus::from_u8(0), RespStatus::Ok);
        assert_eq!(RespStatus::from_u8(1), RespStatus::Busy);
        assert_eq!(RespStatus::from_u8(2), RespStatus::Shed);
        assert_eq!(RespStatus::from_u8(3), RespStatus::Fenced);
        assert_eq!(RespStatus::from_u8(200), RespStatus::Ok);
    }

    #[test]
    fn zeroed_buffer_decodes_invalid() {
        assert!(!ReqHeader::decode(&[0u8; REQ_HDR]).valid);
        let resp = RespHeader::decode(&[0u8; RESP_HDR]);
        assert!(!resp.valid);
        assert_eq!(resp.status, RespStatus::Ok);
        assert_eq!(resp.credits, 0);
    }

    #[test]
    fn slot_of_single_slot_ring_is_always_zero() {
        for seq in [1u32, 2, 3, 1000, u32::MAX, 0] {
            assert_eq!(slot_of(seq, 1), 0);
        }
    }

    #[test]
    fn slot_of_round_robins_consecutive_seqs() {
        // Consecutive seqs visit slots 0..W in order, then wrap.
        for window in [2usize, 4, 8, 16] {
            for seq in 1u32..=3 * window as u32 {
                assert_eq!(slot_of(seq, window), (seq as usize - 1) % window);
            }
        }
    }

    #[test]
    fn slot_of_same_slot_survives_seq_wraparound() {
        // A slot's seq counter advances by W per call; the mapping must
        // keep it in the same slot across the u32 wrap (power-of-two W).
        for window in [1usize, 2, 4, 8, 16] {
            for slot in 0..window {
                // Highest seq band ≡ slot + 1 (mod W) before the wrap.
                let near_wrap = (u32::MAX - window as u32 + 1).wrapping_add(slot as u32 + 1);
                assert_eq!(slot_of(near_wrap, window), slot);
                assert_eq!(slot_of(near_wrap.wrapping_add(window as u32), window), slot);
            }
        }
    }

    #[test]
    #[should_panic(expected = "payload too large")]
    fn oversize_payload_rejected() {
        ReqHeader {
            size: u32::MAX,
            ..STAMPED
        }
        .encode();
    }
}
