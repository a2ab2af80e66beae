//! Primary/backup replication of the bucket-table store.
//!
//! The primary applies every request to its own partition and ships the
//! **ordered mutation log** — its PUTs, as their encoded requests,
//! stamped with a monotone log sequence number (LSN) — to the
//! backup over a dedicated RFP connection, the log link that
//! [`ReplicaPair`] wires with both roles. The backup applies entries
//! in LSN order and acks with the next LSN it expects, so the log
//! channel inherits RFP's exactly-once delivery (seq dedup on the
//! replication connection makes a re-shipped batch harmless).
//!
//! Two ack policies ([`AckPolicy`]):
//!
//! * **`Sync`** — a client's mutating request is answered
//!   only after the backup acked the log batch carrying it:
//!   *acked-write = replicated-write*, the invariant the failover bench
//!   asserts. Entries picked up in the same scan share one batch, so
//!   the replication round trip amortises across concurrent writers.
//! * **`Async`** — the client is answered immediately and the log ships
//!   at the end of the scan. Cheaper per write, but a primary crash
//!   loses the unshipped tail *after it was acked* — the bench
//!   quantifies that trade instead of hiding it.
//!
//! When the backup stops acking (crashed, partitioned away), the
//! primary declares it dead and continues **solo**: clients keep being
//! served from the surviving copy, and replication stops until a new
//! backup is provisioned (resynchronisation is outside this module's
//! scope). The reverse direction — the *primary* dying — is the
//! failover path: a detector promotes the backup
//! ([`BackupRole::promote`]), which bumps the replication epoch on its
//! client-facing connections; from then on it serves clients itself,
//! ignores the log channel, and the epoch fence guarantees the deposed
//! primary can never ack another split-brain write (requests stamped
//! with the new epoch are fenced, its responses carry the old epoch and
//! are discarded client-side).
//!
//! Neither role owns a ring drain: both are presets of the one server
//! scan in [`rfp_core::Reactor`], so ring windows, admission, idle
//! policy and per-core telemetry reach them for free. The primary is a
//! one-core reactor whose handler logs mutations, *holds* their replies
//! under `Sync`, and ships the log in the scan's commit stage; the
//! backup keeps only its log-channel drain and gates by role what the
//! same scan serves on its client connections. Replication "off" is
//! the absent stage: [`serve_loop`](rfp_core::serve_loop) over a
//! [`kv_handler`](crate::kv_handler).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use rfp_core::{
    connect, Commit, Reactor, RecoveryConfig, Reply, RespStatus, RfpClient, RfpConfig,
    RfpServerConn, ScanHandler,
};
use rfp_rnic::{Cluster, ThreadCtx};
use rfp_simnet::{RetryPolicy, SimSpan};

use crate::bucket::Partition;
use crate::proto::{KvRequest, ProtoError};
use crate::systems::{apply_in_place, respond};

/// When the primary acknowledges a mutating request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Ack only after the backup acked the log entry (no acked write
    /// can be lost to a primary crash).
    Sync,
    /// Ack immediately, ship the log at scan end (a primary crash can
    /// lose the acked-but-unshipped tail).
    Async,
}

/// Most log entries shipped per replication call.
const SHIP_BATCH: usize = 8;

/// Recovery policy of the ship calls. The budget is short: a dead
/// backup should demote to solo serving in a bounded span, not stall
/// clients for the full client-side budget.
fn ship_recovery() -> RecoveryConfig {
    RecoveryConfig {
        retry: RetryPolicy::exponential(4, SimSpan::micros(10), SimSpan::micros(200), 0.2),
        ..RecoveryConfig::default()
    }
}

/// Log-batch wire format:
/// `[base_lsn:u64][n:u16]` then per entry `[len:u32][encoded request]`.
fn encode_batch(base_lsn: u64, entries: &[Vec<u8>]) -> Vec<u8> {
    assert!(entries.len() <= u16::MAX as usize, "batch too large");
    let mut out = Vec::with_capacity(10 + entries.iter().map(|e| 4 + e.len()).sum::<usize>());
    out.extend_from_slice(&base_lsn.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&(e.len() as u32).to_le_bytes());
        out.extend_from_slice(e);
    }
    out
}

/// Decodes a log batch into its base LSN and borrowed entries.
fn decode_batch(buf: &[u8]) -> Result<(u64, Vec<&[u8]>), ProtoError> {
    if buf.len() < 10 {
        return Err(ProtoError::Truncated);
    }
    let base_lsn = u64::from_le_bytes(buf[0..8].try_into().expect("len checked"));
    let n = u16::from_le_bytes([buf[8], buf[9]]) as usize;
    let mut entries = Vec::with_capacity(n);
    let mut off = 10;
    for _ in 0..n {
        if buf.len() < off + 4 {
            return Err(ProtoError::Truncated);
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("len checked")) as usize;
        off += 4;
        if buf.len() < off + len {
            return Err(ProtoError::Truncated);
        }
        entries.push(&buf[off..off + len]);
        off += len;
    }
    Ok((base_lsn, entries))
}

/// Ack wire format: `[next_lsn:u64]`.
fn encode_ack(next_lsn: u64) -> Vec<u8> {
    next_lsn.to_le_bytes().to_vec()
}

/// Decodes a replication ack.
fn decode_ack(buf: &[u8]) -> Result<u64, ProtoError> {
    if buf.len() < 8 {
        return Err(ProtoError::Truncated);
    }
    Ok(u64::from_le_bytes(
        buf[0..8].try_into().expect("len checked"),
    ))
}

/// The primary's replication state, shared with its observers.
#[derive(Default)]
pub struct PrimaryRole {
    /// Log entries acked by the backup.
    pub shipped_entries: Cell<u64>,
    /// Set when the backup stopped acking and the primary fell back to
    /// serving solo.
    pub solo: Cell<bool>,
    /// Mutations actually applied to the primary's partition (counted
    /// as the handler applies them) — the duplicate-apply ledger: with
    /// same-seq dedup doing its job this never exceeds the mutations
    /// clients issued, retried or not.
    pub applied_mutations: Cell<u64>,
    next_lsn: Cell<u64>,
}

/// The backup's replication state, shared with the failure detector.
#[derive(Default)]
pub struct BackupRole {
    /// Set by [`promote`](BackupRole::promote): the backup now serves
    /// clients itself and ignores the log channel.
    pub promoted: Cell<bool>,
    /// Log entries applied in order.
    pub applied: Cell<u64>,
    /// Standby read serving (off by default): an **unpromoted** backup
    /// polls its client-facing connections and answers GETs from the
    /// replicated partition, while refusing every mutation with `Busy`
    /// *without executing it* — the contract that makes the gray-failure
    /// router's scored routing safe. Under `Sync` ack
    /// an acked write is applied here before the primary answers, so a
    /// standby read never misses a write its issuer saw acked.
    pub standby_reads: Cell<bool>,
    /// GETs served while in standby.
    pub served_reads: Cell<u64>,
    expected_lsn: Cell<u64>,
}

impl BackupRole {
    /// Promotes this backup into `epoch`: its client-facing connections
    /// fence every request stamped in an older epoch (and teach lagging
    /// clients the new one through the `Fenced` verdict), and its serve
    /// loop flips from log-applying standby to serving clients.
    ///
    /// The log channel is deliberately *not* fenced — a client-style
    /// epoch fence would let the deposed primary adopt the new epoch
    /// and keep shipping. The standby loop just stops draining it, so
    /// a surviving ex-primary times out and demotes itself to solo.
    pub fn promote(&self, client_conns: &[Rc<RfpServerConn>], epoch: u16) {
        for conn in client_conns {
            conn.set_epoch(epoch);
        }
        self.promoted.set(true);
    }
}

fn crashed(thread: &ThreadCtx) -> bool {
    thread.machine().faults().is_crashed()
}

/// The primary's end of the log channel.
struct Shipper {
    thread: Rc<ThreadCtx>,
    ship: Rc<RfpClient>,
    ack: AckPolicy,
    recovery: RecoveryConfig,
    role: Rc<PrimaryRole>,
}

impl Shipper {
    /// Ships `log` to the backup in batches of [`SHIP_BATCH`]; returns
    /// whether every batch was acked.
    async fn ship_log(&self, log: &[Vec<u8>]) -> bool {
        let role = &self.role;
        for chunk in log.chunks(SHIP_BATCH) {
            let base = role.next_lsn.get();
            let msg = encode_batch(base, chunk);
            let call = self
                .ship
                .call_with_recovery(&self.thread, &msg, &self.recovery);
            let Ok(out) = call.await else {
                return false;
            };
            let acked = decode_ack(&out.data).expect("backup sent a well-formed ack");
            debug_assert_eq!(acked, base + chunk.len() as u64, "backup ack out of order");
            role.next_lsn.set(base + chunk.len() as u64);
            role.shipped_entries
                .set(role.shipped_entries.get() + chunk.len() as u64);
        }
        true
    }
}

/// The primary's handler: apply every request to the partition, log
/// mutations, hold their replies under `Sync`, ship the scan's log in
/// `commit`.
struct PrimaryHandler {
    partition: Rc<RefCell<Partition>>,
    shipper: Rc<Shipper>,
    /// This scan's mutation log, in apply order.
    log: Vec<Vec<u8>>,
}

impl ScanHandler for PrimaryHandler {
    fn serve(&mut self, req: &[u8], reply: &mut Vec<u8>) -> (Reply, SimSpan) {
        let parsed = KvRequest::decode(req).expect("client sent well-formed request");
        let work = respond(&self.partition, &parsed, reply);
        let role = &self.shipper.role;
        if matches!(parsed, KvRequest::Put { .. }) {
            role.applied_mutations.set(role.applied_mutations.get() + 1);
            if !role.solo.get() {
                self.log.push(req.to_vec());
                if self.shipper.ack == AckPolicy::Sync {
                    return (Reply::Hold, work);
                }
            }
        }
        (Reply::Send, work)
    }

    fn commit(&mut self) -> Option<Commit> {
        if self.log.is_empty() {
            return None;
        }
        let log = std::mem::take(&mut self.log);
        let shipper = Rc::clone(&self.shipper);
        Some(Box::pin(async move {
            // A crash mid-scan takes the unshipped log (and the held
            // replies) down with the process.
            if !crashed(&shipper.thread)
                && !shipper.ship_log(&log).await
                && !crashed(&shipper.thread)
            {
                // The backup stopped acking: demote to solo serving.
                // The held replies are still released — the primary
                // holds the authoritative copy.
                shipper.role.solo.set(true);
            }
        }))
    }
}

/// The backup's client-facing handler, gated by role. Promoted, it
/// serves everything from the replicated partition. In standby it
/// answers GETs and refuses every mutation with `Busy` *without
/// executing it*: the refusal marks the mutation provably-not-applied,
/// so its issuer resubmits on the primary under a fresh seq — a failed-over
/// write can never double-apply through a standby.
struct BackupHandler {
    partition: Rc<RefCell<Partition>>,
    role: Rc<BackupRole>,
}

impl ScanHandler for BackupHandler {
    fn serve(&mut self, req: &[u8], reply: &mut Vec<u8>) -> (Reply, SimSpan) {
        let parsed = KvRequest::decode(req).expect("client sent well-formed request");
        let role = &self.role;
        if !role.promoted.get() {
            if matches!(parsed, KvRequest::Put { .. }) {
                return (Reply::Refuse(RespStatus::Busy), SimSpan::ZERO);
            }
            role.served_reads.set(role.served_reads.get() + 1);
        }
        let work = respond(&self.partition, &parsed, reply);
        (Reply::Send, work)
    }
}

/// Drains the log channel: applies every pending batch in LSN order and
/// acks it. Returns whether any batch arrived.
async fn drain_log(
    thread: &Rc<ThreadCtx>,
    repl_conn: &RfpServerConn,
    partition: &RefCell<Partition>,
    role: &BackupRole,
) -> bool {
    let mut drained = false;
    while let Some(msg) = repl_conn.try_recv(thread).await {
        drained = true;
        let (base, entries) = decode_batch(&msg).expect("primary sent a well-formed batch");
        let expected = role.expected_lsn.get();
        if base + entries.len() as u64 <= expected {
            // A stale re-ship whose ack was lost: already applied,
            // just re-ack the current frontier.
            repl_conn.send(thread, &encode_ack(expected)).await;
            continue;
        }
        assert_eq!(base, expected, "replication log gap");
        for entry in &entries {
            let parsed = KvRequest::decode(entry).expect("primary shipped well-formed entry");
            let (_, work) = apply_in_place(&mut partition.borrow_mut(), &parsed);
            if !work.is_zero() {
                thread.busy(work).await;
            }
            role.applied.set(role.applied.get() + 1);
        }
        if crashed(thread) {
            break;
        }
        let next = expected + entries.len() as u64;
        role.expected_lsn.set(next);
        repl_conn.send(thread, &encode_ack(next)).await;
    }
    drained
}

/// A primary/backup pair: the log link from machine 0 (the primary) to
/// machine 1 (the backup) and both roles. Every replicated rig wires
/// its pair here, so how the primary reaches its backup is decided in
/// this one place.
pub struct ReplicaPair {
    /// The primary's end of the log link.
    ship: Rc<RfpClient>,
    /// The backup's end of the log link, which a backup restart
    /// rebuilds.
    pub log: Rc<RfpServerConn>,
    /// The primary's replication state.
    pub primary: Rc<PrimaryRole>,
    /// The backup's replication state.
    pub backup: Rc<BackupRole>,
}

impl ReplicaPair {
    /// Connects the log link from machine 0 to machine 1 of `cluster`.
    /// Plain RFP: remote fetch only, with a reconnect factory so a
    /// restarted backup can be reached again. The log channel stays
    /// outside the client-facing epoch fence (see the module docs);
    /// `integrity` arms the checksums that guard the acks the primary
    /// fetches out of the backup's memory.
    pub fn link(cluster: &Cluster, integrity: bool) -> Self {
        let cfg = RfpConfig {
            enable_mode_switch: false,
            integrity,
            ..RfpConfig::default()
        };
        let (ship, log) = connect(
            &cluster.machine(0),
            &cluster.machine(1),
            cluster.qp(0, 1),
            cluster.qp(1, 0),
            cfg,
        );
        ship.set_reconnect(cluster.qp_factory(0, 1));
        ReplicaPair {
            ship: Rc::new(ship),
            log: Rc::new(log),
            primary: Rc::default(),
            backup: Rc::default(),
        }
    }

    /// The primary, forever: the one-core serve reactor (ring windows,
    /// admission if the connections carry overload control, fixed
    /// `spin` idle pacing) over a handler that applies every request to
    /// `partition`, ships each scan's mutations over the log link, and
    /// answers clients per `ack`. The reactor is built on first poll.
    pub fn primary_loop(
        &self,
        thread: Rc<ThreadCtx>,
        conns: Vec<Rc<RfpServerConn>>,
        partition: Rc<RefCell<Partition>>,
        ack: AckPolicy,
        spin: SimSpan,
    ) -> impl Future<Output = ()> {
        let (ship, role) = (Rc::clone(&self.ship), Rc::clone(&self.primary));
        async move {
            let shipper = Rc::new(Shipper {
                thread: Rc::clone(&thread),
                ship,
                ack,
                recovery: ship_recovery(),
                role,
            });
            let handler = PrimaryHandler {
                partition,
                shipper,
                log: Vec::new(),
            };
            Reactor::single(thread, conns, handler, spin)
                .run_core(0)
                .await
        }
    }

    /// The backup, forever. In **standby** it drains the log link,
    /// applies log batches in LSN order and acks them. The
    /// client-facing connections are left unpolled (a client that
    /// fails over early finds no service and bounces back) — unless
    /// [`BackupRole::standby_reads`] is set, in which case standby also
    /// answers GETs from the replicated partition and refuses mutations
    /// with `Busy` without executing them. After
    /// [`BackupRole::promote`] it flips: the log link is ignored and the
    /// client connections are served fully from the replicated
    /// partition. Either way the client connections are drained by the
    /// serve reactor's scan, built on first poll; only the log link is
    /// polled here.
    pub fn backup_loop(
        &self,
        thread: Rc<ThreadCtx>,
        client_conns: Vec<Rc<RfpServerConn>>,
        partition: Rc<RefCell<Partition>>,
        spin: SimSpan,
    ) -> impl Future<Output = ()> {
        let (repl_conn, role) = (Rc::clone(&self.log), Rc::clone(&self.backup));
        async move {
            // A pure log sink (no client connections) has nothing to scan.
            let clients = (!client_conns.is_empty()).then(|| {
                let handler = BackupHandler {
                    partition: Rc::clone(&partition),
                    role: Rc::clone(&role),
                };
                Reactor::single(Rc::clone(&thread), client_conns, handler, spin)
            });
            loop {
                if crashed(&thread) {
                    thread
                        .idle_wait(thread.handle().sleep(spin.max(SimSpan::micros(1))))
                        .await;
                    continue;
                }
                // What this iteration polls follows the role as read
                // here: a promotion that lands mid-drain starts the
                // promoted scan at the next one. (What a scan serves
                // follows the live flag.)
                let standby = !role.promoted.get();
                let mut served_any =
                    standby && drain_log(&thread, &repl_conn, &partition, &role).await;
                if !standby || role.standby_reads.get() {
                    if let Some(clients) = &clients {
                        served_any |= clients.turn(0).await;
                    }
                }
                if !served_any {
                    thread.busy(spin).await;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_codec_round_trips() {
        let entries = vec![
            KvRequest::Put {
                key: b"k1",
                value: b"v1",
            }
            .encode(),
            KvRequest::Put {
                key: b"k2",
                value: b"v2",
            }
            .encode(),
        ];
        let buf = encode_batch(42, &entries);
        let (lsn, decoded) = decode_batch(&buf).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], entries[0].as_slice());
        assert_eq!(decoded[1], entries[1].as_slice());
    }

    #[test]
    fn empty_batch_round_trips() {
        let buf = encode_batch(7, &[]);
        let (lsn, decoded) = decode_batch(&buf).unwrap();
        assert_eq!(lsn, 7);
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_batch_errors() {
        let entries = vec![KvRequest::Get { key: b"k" }.encode()];
        let mut buf = encode_batch(0, &entries);
        buf.truncate(buf.len() - 1);
        assert_eq!(decode_batch(&buf), Err(ProtoError::Truncated));
        assert_eq!(decode_ack(&[1, 2, 3]), Err(ProtoError::Truncated));
    }

    #[test]
    fn ack_codec_round_trips() {
        assert_eq!(decode_ack(&encode_ack(u64::MAX)).unwrap(), u64::MAX);
    }
}
