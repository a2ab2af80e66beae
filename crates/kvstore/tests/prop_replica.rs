//! Satellite wire-compatibility pin: without replication (the plain
//! serve loop — "off" is the absent stage, there is no switch) nothing
//! new reaches the wire — a replication-unaware deployment stamps
//! epoch 0 everywhere, and an epoch-0 header encodes
//! **byte-identically** to the pre-replication (PR 7) wire format. The
//! reference encoders below are written from that format's spec,
//! independently of the production encoder.

use proptest::prelude::*;

use rfp_core::{ReqHeader, RespHeader, RespIntegrity, RespStatus, MAX_PAYLOAD};
use rfp_simnet::SimTime;

const VALID_BIT: u32 = 1 << 31;
const DEADLINE_BIT: u32 = 1 << 30;
const TENANT_BIT: u32 = 1 << 29;
const INTEGRITY_BIT: u32 = 1 << 30;

/// The PR 7 request layout: 8 bytes, extended to 16 by a deadline and
/// to 24 by a tenant — no epoch field anywhere.
fn legacy_req_bytes(
    valid: bool,
    size: u32,
    seq: u32,
    deadline_ns: Option<u64>,
    tenant: Option<u32>,
) -> Vec<u8> {
    let mut word = size;
    if valid {
        word |= VALID_BIT;
    }
    if deadline_ns.is_some() {
        word |= DEADLINE_BIT;
    }
    if tenant.is_some() {
        word |= TENANT_BIT;
    }
    let len = if tenant.is_some() {
        24
    } else if deadline_ns.is_some() {
        16
    } else {
        8
    };
    let mut buf = vec![0u8; len];
    buf[0..4].copy_from_slice(&word.to_le_bytes());
    buf[4..8].copy_from_slice(&seq.to_le_bytes());
    if let Some(d) = deadline_ns {
        buf[8..16].copy_from_slice(&d.to_le_bytes());
    }
    if let Some(t) = tenant {
        buf[16..20].copy_from_slice(&t.to_le_bytes());
    }
    buf
}

/// The PR 7 response layout: 16 bytes (bytes 13..16 spare zeros),
/// extended to 32 by the integrity fields.
fn legacy_resp_bytes(
    valid: bool,
    size: u32,
    seq: u32,
    time_us: u16,
    status: RespStatus,
    credits: u16,
    integrity: Option<(u64, u32)>,
) -> Vec<u8> {
    let mut word = size;
    if valid {
        word |= VALID_BIT;
    }
    if integrity.is_some() {
        word |= INTEGRITY_BIT;
    }
    let len = if integrity.is_some() { 32 } else { 16 };
    let mut buf = vec![0u8; len];
    buf[0..4].copy_from_slice(&word.to_le_bytes());
    buf[4..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..10].copy_from_slice(&time_us.to_le_bytes());
    buf[10] = status.to_u8();
    buf[11..13].copy_from_slice(&credits.to_le_bytes());
    if let Some((crc, generation)) = integrity {
        buf[16..24].copy_from_slice(&crc.to_le_bytes());
        buf[24..28].copy_from_slice(&generation.to_le_bytes());
    }
    buf
}

/// The epoch every header carries when replication is off: no
/// promotion ever happens, so everything stays in epoch 0.
const REPLICATION_OFF_EPOCH: u16 = 0;

proptest! {
    /// Replication-off request headers are byte-for-byte the PR 7 wire
    /// format, across the whole deadline × tenant extension product.
    #[test]
    fn replication_off_req_headers_are_legacy_bytes(
        valid in any::<bool>(),
        size in 0u32..(1 << 28),
        seq in any::<u32>(),
        deadline_ns in prop::option::of(any::<u64>()),
        tenant in prop::option::of(any::<u32>()),
    ) {
        let h = ReqHeader {
            valid,
            size,
            seq,
            deadline: deadline_ns.map(SimTime::from_nanos),
            tenant,
            epoch: REPLICATION_OFF_EPOCH,
        };
        let mut buf = vec![0u8; h.wire_len()];
        h.encode(&mut buf);
        prop_assert_eq!(buf, legacy_req_bytes(valid, size, seq, deadline_ns, tenant));
    }

    /// Replication-off response headers are byte-for-byte the PR 7 wire
    /// format, with and without the integrity extension.
    #[test]
    fn replication_off_resp_headers_are_legacy_bytes(
        valid in any::<bool>(),
        size in 0u32..=MAX_PAYLOAD as u32,
        seq in any::<u32>(),
        time_us in any::<u16>(),
        status in (0u8..4).prop_map(RespStatus::from_u8),
        credits in any::<u16>(),
        integrity in prop::option::of((any::<u64>(), any::<u32>())),
    ) {
        let h = RespHeader {
            valid,
            size,
            seq,
            time_us,
            status,
            credits,
            integrity: integrity.map(|(crc, generation)| RespIntegrity { crc, generation }),
            epoch: REPLICATION_OFF_EPOCH,
        };
        let mut buf = vec![0u8; h.wire_len()];
        h.encode(&mut buf);
        prop_assert_eq!(
            buf,
            legacy_resp_bytes(valid, size, seq, time_us, status, credits, integrity)
        );
    }
}
