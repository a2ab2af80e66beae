//! The key-value RPC wire protocol shared by Jakiro, ServerReply-KV and
//! the RDMA-Memcached comparator: GET and PUT, the two ops the paper's
//! workloads send.
//!
//! Requests: `[op:u8][klen:u16][vlen:u32][key][value]` (`vlen` is 0 for
//! a GET).
//! Responses: `[tag:u8][vlen:u32][value]` (`vlen` is 0 unless `Found`).
//! Any other op or tag byte is a [`ProtoError::BadTag`].
//! All integers little-endian. The payloads ride inside RFP (or
//! server-reply) buffers, after the transport headers.

/// Decoding failure.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer is shorter than its headers claim.
    Truncated,
    /// Unknown op / tag byte.
    BadTag(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
        }
    }
}

impl std::error::Error for ProtoError {}

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const TAG_FOUND: u8 = 1;
const TAG_NOT_FOUND: u8 = 2;
const TAG_STORED: u8 = 3;

/// A decoded request, borrowing from the receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum KvRequest<'a> {
    /// Read `key`.
    Get {
        /// The key bytes.
        key: &'a [u8],
    },
    /// Store `value` under `key`.
    Put {
        /// The key bytes.
        key: &'a [u8],
        /// The value bytes.
        value: &'a [u8],
    },
}

impl<'a> KvRequest<'a> {
    /// The request's key.
    pub fn key(&self) -> &'a [u8] {
        match self {
            KvRequest::Get { key } | KvRequest::Put { key, .. } => key,
        }
    }

    /// Serialises into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let (op, key, value): (u8, &[u8], &[u8]) = match self {
            KvRequest::Get { key } => (OP_GET, key, &[]),
            KvRequest::Put { key, value } => (OP_PUT, key, value),
        };
        let mut out = Vec::with_capacity(7 + key.len() + value.len());
        out.push(op);
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(value);
        out
    }

    /// Parses a request from `buf`.
    pub fn decode(buf: &'a [u8]) -> Result<Self, ProtoError> {
        if buf.len() < 7 {
            return Err(ProtoError::Truncated);
        }
        let op = buf[0];
        let klen = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        let vlen = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]) as usize;
        if buf.len() < 7 + klen + vlen {
            return Err(ProtoError::Truncated);
        }
        let key = &buf[7..7 + klen];
        let value = &buf[7 + klen..7 + klen + vlen];
        match op {
            OP_GET => Ok(KvRequest::Get { key }),
            OP_PUT => Ok(KvRequest::Put { key, value }),
            other => Err(ProtoError::BadTag(other)),
        }
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// GET hit, carrying the value.
    Found(Vec<u8>),
    /// GET miss.
    NotFound,
    /// PUT acknowledged.
    Stored,
}

impl KvResponse {
    /// Serialises into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            KvResponse::Found(v) => {
                let mut out = Vec::with_capacity(5 + v.len());
                out.push(TAG_FOUND);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
                out
            }
            KvResponse::NotFound => vec![TAG_NOT_FOUND, 0, 0, 0, 0],
            KvResponse::Stored => vec![TAG_STORED, 0, 0, 0, 0],
        }
    }

    /// Parses a response from `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        if buf.len() < 5 {
            return Err(ProtoError::Truncated);
        }
        let vlen = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
        match buf[0] {
            TAG_FOUND => {
                if buf.len() < 5 + vlen {
                    return Err(ProtoError::Truncated);
                }
                Ok(KvResponse::Found(buf[5..5 + vlen].to_vec()))
            }
            TAG_NOT_FOUND => Ok(KvResponse::NotFound),
            TAG_STORED => Ok(KvResponse::Stored),
            other => Err(ProtoError::BadTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_round_trip() {
        let req = KvRequest::Get { key: b"alpha" };
        let bytes = req.encode();
        assert_eq!(KvRequest::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn put_round_trip() {
        let req = KvRequest::Put {
            key: b"k1",
            value: b"some value bytes",
        };
        let bytes = req.encode();
        assert_eq!(KvRequest::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            KvResponse::Found(vec![9; 300]),
            KvResponse::NotFound,
            KvResponse::Stored,
        ] {
            assert_eq!(KvResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_inputs_error() {
        assert_eq!(KvRequest::decode(&[1, 2]), Err(ProtoError::Truncated));
        let mut bytes = KvRequest::Get { key: b"long-key" }.encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(KvRequest::decode(&bytes), Err(ProtoError::Truncated));
        assert_eq!(
            KvResponse::decode(&[1, 5, 0, 0, 0]),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn bad_tags_error() {
        // The bytes just past the live codes (ops 3 and 4, tags 4 and 5)
        // are unknown, never misparsed.
        for op in [3, 4, 99] {
            assert_eq!(
                KvRequest::decode(&[op, 0, 0, 0, 0, 0, 0]),
                Err(ProtoError::BadTag(op))
            );
        }
        for tag in [4, 5, 77] {
            assert_eq!(
                KvResponse::decode(&[tag, 0, 0, 0, 0]),
                Err(ProtoError::BadTag(tag))
            );
        }
    }

    #[test]
    fn empty_value_put_is_legal() {
        let req = KvRequest::Put {
            key: b"k",
            value: b"",
        };
        assert_eq!(KvRequest::decode(&req.encode()).unwrap(), req);
    }
}
