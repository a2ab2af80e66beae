//! Criterion micro-benchmarks of the substrate hot paths: the data
//! structures and codecs every simulated request crosses. These measure
//! *wall-clock* cost of our implementation (the simulated-time results
//! live in the `figNN_*` harness binaries).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rfp_kvstore::{
    hash_bytes, CompactPartition, KvRequest, KvResponse, LruCache, Partition, PilafStore,
};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{crc64, Simulation};
use rfp_workload::Zipf;

fn bench_crc64(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc64");
    for size in [32usize, 256, 1024, 8192] {
        let data = vec![0xA5u8; size];
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| crc64(black_box(data)));
        });
    }
    g.finish();
}

fn bench_hash(c: &mut Criterion) {
    let key = [7u8; 16];
    c.bench_function("hash_bytes/16B", |b| {
        b.iter(|| hash_bytes(black_box(1), black_box(&key)))
    });
}

fn bench_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("bucket_partition");
    g.bench_function("compact_put_get_mixed", |b| {
        let mut part = CompactPartition::new(4096);
        for i in 0..10_000u32 {
            part.put(&i.to_le_bytes(), b"value-32-bytes-value-32-bytes-vv");
        }
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let key = (i % 10_000).to_le_bytes();
            if i.is_multiple_of(20) {
                part.put(black_box(&key), b"value-32-bytes-value-32-bytes-vv");
            } else {
                black_box(part.get(black_box(&key)));
            }
        });
    });
    g.bench_function("put_get_mixed", |b| {
        let mut part = Partition::new(4096);
        for i in 0..10_000u32 {
            part.put(&i.to_le_bytes(), b"value-32-bytes-value-32-bytes-vv");
        }
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let key = (i % 10_000).to_le_bytes();
            if i.is_multiple_of(20) {
                part.put(black_box(&key), b"value-32-bytes-value-32-bytes-vv");
            } else {
                black_box(part.get(black_box(&key)));
            }
        });
    });
    g.finish();
}

fn bench_cuckoo(c: &mut Criterion) {
    let mut g = c.benchmark_group("cuckoo");
    g.bench_function("lookup_local_75pct", |b| {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let store = PilafStore::new(&cluster.machine(0), 8192, 8192, 128);
        let n = 6144u32; // 75% fill, as the paper quotes for Pilaf
        for i in 0..n {
            store
                .insert_local(&i.to_le_bytes(), b"32B-value-32B-value-32B-value-32")
                .expect("75% fill fits");
        }
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(store.lookup_local(black_box(&(i % n).to_le_bytes())))
        });
    });
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("lru/put_get", |b| {
        let mut lru: LruCache<u32, u64> = LruCache::new(4096);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            lru.put(i % 8192, i as u64);
            black_box(lru.get(&(i % 4096)));
        });
    });
}

fn bench_zipf(c: &mut Criterion) {
    c.bench_function("zipf/sample_128M", |b| {
        let z = Zipf::new(128 * 1024 * 1024, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
}

fn bench_proto(c: &mut Criterion) {
    let key = vec![1u8; 16];
    let value = vec![2u8; 32];
    c.bench_function("proto/put_round_trip", |b| {
        b.iter_batched(
            || {
                KvRequest::Put {
                    key: &key,
                    value: &value,
                }
                .encode()
            },
            |bytes| {
                let req = KvRequest::decode(black_box(&bytes)).expect("well-formed");
                black_box(req.key().len())
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("proto/response_decode", |b| {
        let bytes = KvResponse::Found(vec![9u8; 32]).encode();
        b.iter(|| KvResponse::decode(black_box(&bytes)).expect("well-formed"));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_crc64, bench_hash, bench_partition, bench_cuckoo, bench_lru, bench_zipf, bench_proto
}
criterion_main!(benches);
