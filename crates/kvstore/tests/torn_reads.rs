//! Failure injection: get-put and put-put races on the bypass stores.
//!
//! The whole reason Pilaf checksums its entries (§1) is that a one-sided
//! GET can race a server-side PUT and observe torn bytes. These tests
//! drive that race deliberately: the server updates an entry in two
//! phases with a CPU gap, while a client hammers the same key with
//! bypass GETs. The client must (a) observe at least one checksum
//! failure, and (b) never return a value that is neither the old nor the
//! new one. The server's own PUT threads race each other too: one must
//! never trip over the entry another is tearing.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_kvstore::{BypassStore, FarmStore, PilafStore};
use rfp_paradigms::BypassClient;
use rfp_rnic::{Cluster, ClusterProfile, Machine};
use rfp_simnet::{SimSpan, Simulation};

/// Two PUT pollers of the bypass rig share one store on one machine:
/// the first yields halfway through rewriting its entry, the second
/// PUTs 100 ns later — another key in the same neighborhood, or the
/// same key. The 80 B values put each entry past the midpoint of its
/// 96 B cell, so the first entry really is torn while the second PUT
/// looks for its own. Runs the default 400 ns torn window and wider
/// ones, then checks each key through `lookup`: the later PUT wins a
/// shared key.
fn racing_puts<S: BypassStore>(
    store: impl Fn(&Rc<Machine>, SimSpan) -> S,
    lookup: impl Fn(&S, &[u8]) -> Option<Vec<u8>>,
) {
    const RACES: [[&[u8]; 2]; 2] = [[b"a", b"b"], [b"a", b"a"]];
    for gap in [400, 500, 700, 1_000] {
        for keys in RACES {
            let mut sim = Simulation::new(0);
            let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 1);
            let server = cluster.machine(0);
            let store = Rc::new(store(&server, SimSpan::nanos(gap)));
            for key in keys {
                assert!(store.insert_local(key, &[0; 80]).is_ok(), "preload");
            }
            for (i, key) in keys.into_iter().enumerate() {
                let (s, t, h) = (
                    Rc::clone(&store),
                    server.thread(format!("put{i}")),
                    sim.handle(),
                );
                sim.spawn(async move {
                    h.sleep(SimSpan::nanos(100 * i as u64)).await;
                    assert!(s.put(&t, key, &[i as u8 + 1; 80]).await.is_ok(), "fits");
                });
            }
            sim.run();
            assert_eq!(lookup(&store, keys[1]), Some(vec![2; 80]), "gap {gap} ns");
            if keys[0] != keys[1] {
                assert_eq!(lookup(&store, keys[0]), Some(vec![1; 80]), "gap {gap} ns");
            }
        }
    }
}

#[test]
fn farm_racing_puts_never_decode_a_torn_cell() {
    // One home bucket: both keys share a neighborhood.
    let store = |m: &Rc<Machine>, gap| {
        let mut s = FarmStore::new(m, 1, 96);
        s.update_gap = gap;
        s
    };
    racing_puts(store, FarmStore::lookup_local);
}

#[test]
fn pilaf_racing_puts_never_read_a_torn_slot() {
    let store = |m: &Rc<Machine>, gap| {
        let mut s = PilafStore::new(m, 8, 8, 96);
        s.update_gap = gap;
        s
    };
    racing_puts(store, PilafStore::lookup_local);
}

#[test]
fn torn_update_is_detected_and_never_leaks() {
    let mut sim = Simulation::new(99);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let server_m = cluster.machine(0);

    let mut store = PilafStore::new(&server_m, 64, 64, 128);
    // A wide torn window so reads land inside it.
    store.update_gap = SimSpan::micros(3);
    let store = Rc::new(store);

    let key = b"contended";
    let old_value = vec![0xAAu8; 48];
    let new_value = vec![0xBBu8; 48];
    store.insert_local(key, &old_value).expect("preload");

    // Server: rewrite the value every ~20µs, torn-phase included.
    let st = server_m.thread("server");
    let s2 = Rc::clone(&store);
    let h = sim.handle();
    let old2 = old_value.clone();
    let new2 = new_value.clone();
    sim.spawn(async move {
        let mut flip = false;
        loop {
            h.sleep(SimSpan::micros(20)).await;
            let v = if flip { &old2 } else { &new2 };
            flip = !flip;
            s2.put(&st, key, v).await.expect("update in place");
        }
    });

    // Client: continuous bypass GETs on the same key.
    let client = BypassClient::new(cluster.qp(1, 0), 512);
    let ct = cluster.machine(1).thread("client");
    let view = store.view();
    let retries = Rc::new(Cell::new(0u32));
    let reads = Rc::new(Cell::new(0u32));
    let bad = Rc::new(RefCell::new(Vec::new()));
    let (r2, n2, b2) = (Rc::clone(&retries), Rc::clone(&reads), Rc::clone(&bad));
    let old3 = old_value.clone();
    let new3 = new_value.clone();
    sim.spawn(async move {
        loop {
            let got = PilafStore::get(&client, &ct, &view, key).await;
            r2.set(r2.get() + got.crc_retries);
            n2.set(n2.get() + 1);
            match got.value {
                Some(v) if v == old3 || v == new3 => {}
                other => b2.borrow_mut().push(other),
            }
        }
    });

    sim.run_for(SimSpan::millis(5));

    assert!(reads.get() > 100, "client barely ran: {}", reads.get());
    assert!(
        retries.get() > 0,
        "the torn window was never observed — race injection broken"
    );
    assert!(
        bad.borrow().is_empty(),
        "torn/mixed values leaked: {:?}",
        bad.borrow()
    );
}

/// A PUT that changes the value's length rewrites the extent before
/// the slot: a GET that read the old slot then fetches the extent at
/// the stale length. It must reread the slot, not the extent alone
/// until an entry of the old length comes back.
#[test]
fn resizing_puts_send_gets_back_to_the_slot() {
    let mut sim = Simulation::new(99);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let server_m = cluster.machine(0);
    let mut store = PilafStore::new(&server_m, 64, 64, 128);
    store.update_gap = SimSpan::micros(3);
    let store = Rc::new(store);

    let key = b"resized";
    let values = [vec![0xAAu8; 48], vec![0xBBu8; 16]];
    store.insert_local(key, &values[0]).expect("preload");

    // Server: flip the value's length every ~20 µs.
    let (st, s2, h, v2) = (
        server_m.thread("server"),
        Rc::clone(&store),
        sim.handle(),
        values.clone(),
    );
    sim.spawn(async move {
        for i in 1.. {
            h.sleep(SimSpan::micros(20)).await;
            s2.put(&st, key, &v2[i % 2]).await.expect("fits");
        }
    });

    // Client: continuous bypass GETs, keeping each one's retry count.
    let client = BypassClient::new(cluster.qp(1, 0), 512);
    let (ct, view) = (cluster.machine(1).thread("client"), store.view());
    let gets = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&gets);
    sim.spawn(async move {
        loop {
            let got = PilafStore::get(&client, &ct, &view, key).await;
            g2.borrow_mut().push((got.value, got.crc_retries));
        }
    });

    sim.run_for(SimSpan::millis(5));

    let gets = gets.borrow();
    assert!(gets.len() > 100, "client barely ran: {}", gets.len());
    for (value, _) in gets.iter() {
        let value = value.as_ref().expect("every GET finds the key");
        assert!(values.contains(value), "torn value leaked: {value:?}");
    }
    // A slot reread costs a round trip, and the torn window is 3 µs:
    // a GET whose slot went stale meanwhile retries a handful of times,
    // never for the 20 µs until the old length is written again.
    let worst = gets.iter().map(|&(_, r)| r).max().unwrap_or(0);
    assert!(worst < 8, "a GET took {worst} CRC retries");
}

#[test]
fn interleaved_distinct_keys_never_interfere() {
    // A writer mutating key A must never corrupt reads of key B.
    let mut sim = Simulation::new(5);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let server_m = cluster.machine(0);
    let mut store = PilafStore::new(&server_m, 128, 128, 128);
    store.update_gap = SimSpan::micros(2);
    let store = Rc::new(store);

    store
        .insert_local(b"stable", b"constant-value")
        .expect("preload");
    store.insert_local(b"churny", &[0u8; 32]).expect("preload");

    let st = server_m.thread("server");
    let s2 = Rc::clone(&store);
    let h = sim.handle();
    sim.spawn(async move {
        let mut i = 0u8;
        loop {
            h.sleep(SimSpan::micros(10)).await;
            i = i.wrapping_add(1);
            s2.put(&st, b"churny", &[i; 32]).await.expect("update");
        }
    });

    let client = BypassClient::new(cluster.qp(1, 0), 512);
    let ct = cluster.machine(1).thread("client");
    let view = store.view();
    let ok_reads = Rc::new(Cell::new(0u32));
    let ok2 = Rc::clone(&ok_reads);
    sim.spawn(async move {
        loop {
            let got = PilafStore::get(&client, &ct, &view, b"stable").await;
            assert_eq!(
                got.value.as_deref(),
                Some(&b"constant-value"[..]),
                "stable key corrupted by unrelated churn"
            );
            ok2.set(ok2.get() + 1);
        }
    });

    sim.run_for(SimSpan::millis(3));
    assert!(ok_reads.get() > 100);
}

#[test]
fn missing_keys_return_none_quickly() {
    let mut sim = Simulation::new(1);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 2);
    let server_m = cluster.machine(0);
    let store = PilafStore::new(&server_m, 64, 64, 128);
    store.insert_local(b"present", b"v").expect("preload");

    let client = BypassClient::new(cluster.qp(1, 0), 512);
    let ct = cluster.machine(1).thread("client");
    let view = store.view();
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    sim.spawn(async move {
        let got = PilafStore::get(&client, &ct, &view, b"absent").await;
        assert_eq!(got.value, None);
        // Absence costs at most the three candidate probes.
        assert!(got.ops <= 3, "absence probing used {} ops", got.ops);
        assert_eq!(got.crc_retries, 0);
        d.set(true);
    });
    sim.run();
    assert!(done.get());
}
