//! Property-based tests for the store substrates: each structure is
//! checked against a simple reference model under arbitrary operation
//! sequences, and the checksum/serialisation layers under arbitrary
//! bytes.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use rfp_kvstore::{
    BypassStore, KvRequest, KvResponse, KvResponseRef, LruCache, Partition, PilafStore, ProtoError,
};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{crc64, Simulation};

#[derive(Clone, Debug)]
enum KvOp {
    Get(u16),
    Put(u16, Vec<u8>),
}

fn kv_ops() -> impl Strategy<Value = Vec<KvOp>> {
    vec(
        prop_oneof![
            (0u16..64).prop_map(KvOp::Get),
            ((0u16..64), vec(any::<u8>(), 0..40)).prop_map(|(k, v)| KvOp::Put(k, v)),
        ],
        0..300,
    )
}

proptest! {
    /// The Jakiro partition agrees with a HashMap as long as no bucket
    /// overflows (generous sizing here guarantees that).
    #[test]
    fn partition_matches_hashmap(ops in kv_ops()) {
        let mut part = Partition::new(256); // 2048 slots for ≤64 keys
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                KvOp::Get(k) => {
                    let key = k.to_le_bytes().to_vec();
                    prop_assert_eq!(
                        part.get(&key).map(<[u8]>::to_vec),
                        model.get(&key).cloned()
                    );
                }
                KvOp::Put(k, v) => {
                    let key = k.to_le_bytes().to_vec();
                    part.put(&key, &v);
                    model.insert(key, v);
                }
            }
            prop_assert_eq!(part.len(), model.len());
        }
        prop_assert_eq!(part.evictions(), 0, "sizing should prevent eviction");
    }

    /// The cuckoo store (server-local paths) agrees with a HashMap.
    #[test]
    fn cuckoo_matches_hashmap(ops in kv_ops()) {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        // ≤64 keys in 256 buckets: ~25% load, displacement always finds
        // room.
        let store = PilafStore::new(&cluster.machine(0), 256, 256, 128);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                KvOp::Get(k) => {
                    let key = k.to_le_bytes().to_vec();
                    prop_assert_eq!(store.lookup_local(&key), model.get(&key).cloned());
                }
                KvOp::Put(k, v) => {
                    let key = k.to_le_bytes().to_vec();
                    store.insert_local(&key, &v).expect("under-filled table");
                    model.insert(key, v);
                }
            }
        }
        prop_assert_eq!(store.len(), model.len());
    }

    /// The LRU cache matches an order-preserving reference model.
    #[test]
    fn lru_matches_model(cap in 1usize..12, ops in kv_ops()) {
        let mut lru = LruCache::new(cap);
        let mut model: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // MRU first
        for op in ops {
            match op {
                KvOp::Get(k) => {
                    let key = k.to_le_bytes().to_vec();
                    let got = lru.get(&key).cloned();
                    let expect = model.iter().position(|e| e.0 == key).map(|i| {
                        let e = model.remove(i);
                        let v = e.1.clone();
                        model.insert(0, e);
                        v
                    });
                    prop_assert_eq!(got, expect);
                }
                KvOp::Put(k, v) => {
                    let key = k.to_le_bytes().to_vec();
                    let evicted = lru.put(key.clone(), v.clone());
                    if let Some(i) = model.iter().position(|e| e.0 == key) {
                        model.remove(i);
                        prop_assert!(evicted.is_none());
                    } else if model.len() == cap {
                        let victim = model.pop().expect("full");
                        prop_assert_eq!(evicted, Some(victim));
                    } else {
                        prop_assert!(evicted.is_none());
                    }
                    model.insert(0, (key, v));
                }
            }
            prop_assert_eq!(lru.len(), model.len());
        }
    }

    /// CRC64 is collision-sensitive on single flips.
    #[test]
    fn crc64_detects_any_single_flip(data in vec(any::<u8>(), 1..100), idx in any::<prop::sample::Index>(), bit in 0u8..8) {
        let clean = crc64(&data);
        let mut tampered = data.clone();
        let i = idx.index(data.len());
        tampered[i] ^= 1 << bit;
        prop_assert_ne!(crc64(&tampered), clean);
    }

    /// The KV wire protocol round-trips arbitrary payloads.
    #[test]
    fn proto_request_round_trip(key in vec(any::<u8>(), 0..64), value in vec(any::<u8>(), 0..256), put in any::<bool>()) {
        let req = if put {
            KvRequest::Put { key: &key, value: &value }
        } else {
            KvRequest::Get { key: &key }
        };
        let bytes = req.encode();
        prop_assert_eq!(KvRequest::decode(&bytes).expect("round trip"), req);
    }

    /// Encoding over a reused buffer, whatever it held, writes the bytes
    /// a fresh encode does: a request, and a response into the buffer
    /// a server lends.
    #[test]
    fn proto_encode_into_a_dirty_buffer_equals_encode(key in vec(any::<u8>(), 0..64), value in vec(any::<u8>(), 0..256), put in any::<bool>(), dirt in vec(any::<u8>(), 0..512), tag in 0u8..3) {
        let req = if put {
            KvRequest::Put { key: &key, value: &value }
        } else {
            KvRequest::Get { key: &key }
        };
        let mut buf = dirt.clone();
        req.encode_into(&mut buf);
        prop_assert_eq!(buf, req.encode());
        let resp = match tag {
            0 => KvResponseRef::Found(&value),
            1 => KvResponseRef::NotFound,
            _ => KvResponseRef::Stored,
        };
        let mut buf = dirt;
        resp.encode_into(&mut buf);
        prop_assert_eq!(buf, resp.encode());
    }

    /// The in-place parse the drivers book outcomes with agrees with the
    /// owned decode on every tag byte, on truncated and on over-long
    /// buffers, and a hit borrows its value from the buffer.
    #[test]
    fn proto_response_parse_agrees_with_decode(tag in prop_oneof![1u8..=3, any::<u8>()], vlen in 0u32..64, body in vec(any::<u8>(), 0..80), keep in any::<prop::sample::Index>()) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&vlen.to_le_bytes());
        bytes.extend_from_slice(&body);
        let buf = &bytes[..keep.index(bytes.len() + 1)];
        let parsed = KvResponseRef::parse(buf);
        prop_assert_eq!(parsed.map(KvResponseRef::into_owned), KvResponse::decode(buf));
        if let Ok(KvResponseRef::Found(value)) = parsed {
            prop_assert_eq!(value.as_ptr(), buf[5..].as_ptr());
        }
    }

    #[test]
    fn proto_response_round_trip(value in vec(any::<u8>(), 0..512), tag in 0u8..3) {
        let resp = match tag {
            0 => KvResponse::Found(value),
            1 => KvResponse::NotFound,
            _ => KvResponse::Stored,
        };
        let bytes = resp.encode();
        prop_assert_eq!(KvResponse::decode(&bytes).expect("round trip"), resp);
    }

    /// Truncating any encoded request or response never panics — it
    /// errors: every strict prefix drops bytes its header claims.
    #[test]
    fn proto_truncation_is_graceful(key in vec(any::<u8>(), 0..32), value in vec(any::<u8>(), 0..64), keep in any::<prop::sample::Index>()) {
        let req = KvRequest::Put { key: &key, value: &value }.encode();
        let cut = keep.index(req.len());
        prop_assert_eq!(KvRequest::decode(&req[..cut]), Err(ProtoError::Truncated));
        let resp = KvResponse::Found(value).encode();
        let cut = keep.index(resp.len());
        prop_assert_eq!(KvResponse::decode(&resp[..cut]), Err(ProtoError::Truncated));
    }
}
