//! The self-verifying entry of both server-bypass stores — Pilaf's
//! extents ([`crate::cuckoo`]) and FaRM's inline cells
//! ([`crate::hopscotch`]) — and the client's CRC-checked re-read of it.
//! DESIGN.md "Bypass cell" has the byte layout; nothing else in the
//! crate knows it.
//!
//! The server rewrites an entry in place in two halves with a CPU gap
//! between them ([`write_torn`]), so a one-sided READ inside the gap
//! sees the new head and the old tail. The trailing CRC64 rejects that
//! image and the client reads again ([`BypassGet::read_verified`]):
//! those re-reads are part of a bypass GET's amplification (§2.3).

use std::rc::Rc;

use rfp_paradigms::BypassClient;
use rfp_rnic::{MemRegion, ThreadCtx};
use rfp_simnet::{crc64, SimSpan};

/// `[klen:u16][vlen:u32]` before the key.
const HDR: usize = 6;
/// The trailing CRC64.
const CRC: usize = 8;

/// Give up a GET after this many checksum failures.
const MAX_CRC_RETRIES: u32 = 64;

/// Bytes an entry with a `klen`-byte key and a `vlen`-byte value takes,
/// checksum included.
pub(crate) fn len(klen: usize, vlen: usize) -> usize {
    HDR + klen + vlen + CRC
}

/// Where the key of an entry with a `klen`-byte key lies in it.
pub(crate) fn key_range(klen: usize) -> std::ops::Range<usize> {
    HDR..HDR + klen
}

/// Where the value lies in an entry with these lengths.
pub(crate) fn value_range(klen: usize, vlen: usize) -> std::ops::Range<usize> {
    HDR + klen..HDR + klen + vlen
}

/// Encodes one entry, zero-padded to `size` bytes.
///
/// # Panics
///
/// Panics if the entry does not fit in `size` bytes.
pub(crate) fn encode(key: &[u8], value: &[u8], size: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(size);
    bytes.extend_from_slice(&(key.len() as u16).to_le_bytes());
    bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
    bytes.extend_from_slice(key);
    bytes.extend_from_slice(value);
    bytes.extend_from_slice(&crc64(&bytes).to_le_bytes());
    assert!(bytes.len() <= size, "entry exceeds its cell");
    bytes.resize(size, 0);
    bytes
}

/// The `(klen, vlen)` header at the head of `bytes`, unverified: a
/// torn image carries the header of the newer entry.
pub(crate) fn lengths(bytes: &[u8]) -> Option<(usize, usize)> {
    let klen = u16::from_le_bytes(bytes.get(0..2)?.try_into().ok()?) as usize;
    let vlen = u32::from_le_bytes(bytes.get(2..HDR)?.try_into().ok()?) as usize;
    Some((klen, vlen))
}

/// Decodes the entry at the head of `bytes` into `(key, value)`; `None`
/// when the lengths overrun `bytes` or the checksum fails (a torn
/// image). An empty cell decodes to an empty key and value.
pub(crate) fn decode(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (klen, vlen) = lengths(bytes)?;
    let body = bytes.get(..HDR + klen + vlen)?;
    let crc = bytes.get(body.len()..body.len() + CRC)?;
    if crc64(body).to_le_bytes() != crc {
        return None;
    }
    Some((&body[key_range(klen)], &body[value_range(klen, vlen)]))
}

/// Writes `entry` at `off` of `mr` in two halves with `gap` of the
/// server thread's CPU between them: the torn window racing one-sided
/// GETs must checksum-retry over.
pub(crate) async fn write_torn(
    thread: &ThreadCtx,
    gap: SimSpan,
    mr: &MemRegion,
    off: usize,
    entry: &[u8],
) {
    let half = entry.len() / 2;
    mr.write_local(off, &entry[..half]);
    thread.busy(gap).await;
    mr.write_local(off + half, &entry[half..]);
}

/// Outcome of a client-side bypass GET.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BypassGet {
    /// The value, if the key was present.
    pub value: Option<Vec<u8>>,
    /// One-sided operations this GET cost (the paper's amplification
    /// metric: Pilaf averages 3.2).
    pub ops: u32,
    /// Checksum failures that forced rereads (get-put races).
    pub crc_retries: u32,
}

impl BypassGet {
    /// READs `len` bytes at `off` of `mr` until `check` accepts them,
    /// counting every READ in `ops` and every rejection in
    /// `crc_retries`. `None` once the GET has spent its
    /// `MAX_CRC_RETRIES`.
    pub(crate) async fn read_verified<T>(
        &mut self,
        client: &BypassClient,
        thread: &ThreadCtx,
        mr: &Rc<MemRegion>,
        off: usize,
        len: usize,
        check: impl Fn(&[u8]) -> Option<T>,
    ) -> Option<T> {
        loop {
            self.ops += 1;
            if let Some(found) = check(&client.fetch(thread, mr, off, len).await) {
                return Some(found);
            }
            if !self.reject() {
                return None;
            }
        }
    }

    /// Counts one rejected image in `crc_retries`; `false` once the GET
    /// has spent its `MAX_CRC_RETRIES`.
    pub(crate) fn reject(&mut self) -> bool {
        self.crc_retries += 1;
        self.crc_retries < MAX_CRC_RETRIES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_golden_bytes() {
        // DESIGN.md "Bypass cell": klen at 0, vlen at 2, key at 6, value
        // after it, the CRC-64/XZ of everything before it last.
        #[rustfmt::skip]
        let golden: [u8; 19] = [
            0x02, 0x00,
            0x03, 0x00, 0x00, 0x00,
            b'a', b'b',
            b'x', b'y', b'z',
            0xE7, 0x35, 0x85, 0x99, 0xA3, 0x85, 0xB4, 0x70,
        ];
        assert_eq!(len(2, 3), golden.len());
        assert_eq!(encode(b"ab", b"xyz", golden.len()), golden);
        assert_eq!(decode(&golden), Some((&b"ab"[..], &b"xyz"[..])));
        // A padded cell is the same entry followed by zeros.
        let padded = encode(b"ab", b"xyz", 32);
        assert_eq!(padded[..golden.len()], golden);
        assert!(padded[golden.len()..].iter().all(|&b| b == 0));
        assert_eq!(decode(&padded), Some((&b"ab"[..], &b"xyz"[..])));
    }

    #[test]
    fn empty_cell_round_trips() {
        let empty = encode(b"", b"", 96);
        assert_eq!(decode(&empty), Some((&b""[..], &b""[..])));
    }

    #[test]
    fn torn_image_fails_to_decode() {
        // First half new, second half old: what a READ inside
        // `write_torn`'s gap sees, padded (FaRM) or bare (Pilaf).
        for size in [96, len(2, 80)] {
            let old = encode(b"ab", &[0xAA; 80], size);
            let new = encode(b"ab", &[0xBB; 80], size);
            let half = size / 2;
            let torn = [&new[..half], &old[half..]].concat();
            assert_eq!(decode(&torn), None, "{size} B");
        }
    }

    #[test]
    fn lengths_past_the_buffer_fail_to_decode() {
        let entry = encode(b"ab", b"xyz", len(2, 3));
        assert_eq!(decode(&entry[..entry.len() - 1]), None);
        assert_eq!(decode(&[0xFF; 5]), None);
    }
}
