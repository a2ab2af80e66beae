//! The RDMA-Memcached comparator store (§4.2, "RDMA-Memcached").
//!
//! OSU's RDMA-Memcached keeps Memcached's architecture: server-reply
//! transport, and server threads that *share* the cache data structures
//! (hash table + LRU lists), coordinating through locking. The paper
//! finds it CPU-bound — 16 threads still cannot saturate the NIC's
//! out-bound capacity — because of that coordination; under skew it
//! speeds up thanks to cache locality on hot keys (Figure 19).
//!
//! The model here is a real capacity-bounded [`LruCache`] guarded by a
//! strictly FIFO one-permit [`Semaphore`] (the serialized LRU
//! maintenance), plus per-thread costs: parse/pack/memory work outside
//! the lock, lock hold time inside it, both reduced when the key hits
//! the thread's hot-key cache (locality). The costs are private constants, calibrated so the
//! modelled system reproduces the paper's measured ceilings (~1.3 MOPS
//! uniform at 16 threads, ~2.1 MOPS under skewed 95% GET).

use std::cell::RefCell;
use std::rc::Rc;

use rfp_rnic::ThreadCtx;
use rfp_simnet::{Semaphore, SimSpan};

use crate::lru::LruCache;

// Per-operation CPU and lock costs of the Memcached-style server.
/// Out-of-lock CPU per GET (parse, hash, memory walk, pack).
const GET_WORK: SimSpan = SimSpan::nanos(4_000);
/// Out-of-lock CPU per PUT (adds allocation).
const PUT_WORK: SimSpan = SimSpan::nanos(6_000);
/// Serialized hold per GET (LRU touch).
const GET_LOCK_HOLD: SimSpan = SimSpan::nanos(700);
/// Serialized hold per PUT (LRU reorder + slab bookkeeping).
const PUT_LOCK_HOLD: SimSpan = SimSpan::nanos(2_500);
/// Out-of-lock CPU per GET that hits the thread's hot-key cache.
const HOT_GET_WORK: SimSpan = SimSpan::nanos(1_000);
/// Serialized hold per hot GET (entry already near the LRU head).
const HOT_GET_LOCK_HOLD: SimSpan = SimSpan::nanos(100);

/// The shared Memcached-style store.
pub struct McdStore {
    data: RefCell<LruCache<Vec<u8>, Vec<u8>>>,
    lock: Semaphore,
}

/// One server thread's private view: the shared store plus its hot-key
/// cache.
pub struct McdThreadView {
    store: Rc<McdStore>,
    hot: RefCell<LruCache<Vec<u8>, ()>>,
}

impl McdStore {
    /// Creates a store bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Rc<Self> {
        Rc::new(McdStore {
            data: RefCell::new(LruCache::new(capacity)),
            lock: Semaphore::new(1),
        })
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zero-cost preload (setup phase, before timing starts).
    pub fn preload(&self, key: Vec<u8>, value: Vec<u8>) {
        self.data.borrow_mut().put(key, value);
    }

    /// Creates a per-server-thread view with its own hot-key cache,
    /// 1/64 of the store capacity (CPU caches cover a small fraction of
    /// the dataset, whatever its absolute size).
    pub fn thread_view(self: &Rc<Self>) -> McdThreadView {
        McdThreadView {
            store: Rc::clone(self),
            hot: RefCell::new(LruCache::new((self.data.borrow().capacity() / 64).max(8))),
        }
    }
}

impl McdThreadView {
    /// Serves a GET with the modelled CPU and lock costs.
    pub async fn get(&self, thread: &ThreadCtx, key: &[u8]) -> Option<Vec<u8>> {
        let hot = self.hot.borrow_mut().get(&key.to_vec()).is_some();
        let (work, hold) = if hot {
            (HOT_GET_WORK, HOT_GET_LOCK_HOLD)
        } else {
            (GET_WORK, GET_LOCK_HOLD)
        };
        thread.busy(work).await;
        let guard = self.store.lock.acquire().await;
        thread.busy(hold).await;
        let value = self.store.data.borrow_mut().get(&key.to_vec()).cloned();
        drop(guard);
        if value.is_some() {
            self.hot.borrow_mut().put(key.to_vec(), ());
        }
        value
    }

    /// Serves a PUT with the modelled CPU and lock costs.
    pub async fn put(&self, thread: &ThreadCtx, key: &[u8], value: Vec<u8>) {
        thread.busy(PUT_WORK).await;
        let guard = self.store.lock.acquire().await;
        thread.busy(PUT_LOCK_HOLD).await;
        self.store.data.borrow_mut().put(key.to_vec(), value);
        drop(guard);
        self.hot.borrow_mut().put(key.to_vec(), ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::Simulation;
    use std::cell::Cell;

    #[test]
    fn get_put_round_trip_with_costs() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let store = McdStore::new(100);
        let view = store.thread_view();
        let t = cluster.machine(0).thread("s");
        let ok = Rc::new(Cell::new(false));
        let o = Rc::clone(&ok);
        sim.spawn(async move {
            view.put(&t, b"key", b"value".to_vec()).await;
            assert_eq!(view.get(&t, b"key").await, Some(b"value".to_vec()));
            assert_eq!(view.get(&t, b"missing").await, None);
            o.set(true);
        });
        sim.run();
        assert!(ok.get());
        assert!(sim.now().as_nanos() > 0, "costs must consume time");
    }

    #[test]
    fn lock_serializes_threads() {
        // Two threads hammer the store; total time must reflect the
        // serialized lock holds (2 × GET_LOCK_HOLD × N) even though
        // out-of-lock work overlaps.
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let store = McdStore::new(100);
        store.preload(b"k".to_vec(), b"v".to_vec());
        const N: u64 = 100;
        for i in 0..2 {
            let view = store.thread_view();
            let t = cluster.machine(0).thread(format!("s{i}"));
            sim.spawn(async move {
                for _ in 0..N {
                    view.get(&t, b"miss-every-time-different").await;
                }
            });
        }
        sim.run();
        // Cold GETs: GET_WORK (parallel) + GET_LOCK_HOLD (serial).
        let floor = GET_LOCK_HOLD * (2 * N);
        assert!(sim.now().as_nanos() >= floor.as_nanos(), "{}", sim.now());
    }

    #[test]
    fn hot_keys_get_cheaper() {
        let mut sim = Simulation::new(0);
        let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
        let store = McdStore::new(100);
        store.preload(b"hot".to_vec(), b"v".to_vec());
        let view = store.thread_view();
        let t = cluster.machine(0).thread("s");
        let timings = Rc::new(RefCell::new(Vec::new()));
        let out = Rc::clone(&timings);
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..3 {
                let t0 = h.now();
                view.get(&t, b"hot").await;
                out.borrow_mut().push((h.now() - t0).as_nanos());
            }
        });
        sim.run();
        let timings = timings.borrow();
        // First access is cold, later ones hit the hot-key cache.
        let (cold, hot) = (GET_WORK + GET_LOCK_HOLD, HOT_GET_WORK + HOT_GET_LOCK_HOLD);
        assert_eq!(timings[0], cold.as_nanos());
        assert_eq!(timings[1], hot.as_nanos());
        assert_eq!(timings[2], hot.as_nanos());
    }

    #[test]
    fn capacity_bound_evicts() {
        let store = McdStore::new(2);
        store.preload(b"a".to_vec(), vec![1]);
        store.preload(b"b".to_vec(), vec![2]);
        store.preload(b"c".to_vec(), vec![3]);
        assert_eq!(store.len(), 2);
    }
}
