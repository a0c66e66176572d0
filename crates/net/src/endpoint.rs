//! Endpoints: the per-node handle on the simulated interconnect.
//!
//! An endpoint is split into a shareable [`NetSender`] (the app
//! thread and the comm thread both send) and a single-consumer
//! [`NetReceiver`] (only the comm thread — the paper's SIGIO handler —
//! receives). Large payloads are really fragmented at the sender and
//! really reassembled at the receiver, with virtual-time stamps from the
//! per-link [`LinkClock`]s.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use lots_sim::{Delivery, FaultPlan, NetModel, SchedHandle, SimDuration, SimInstant, Topology};

use crate::droplog::DropLog;
use crate::flow::{LinkClock, Transmission};
use crate::fragment::{split, Fragment, Reassembler};
use crate::message::{Envelope, NodeId, WireSize};
use crate::stats::TrafficStats;

/// What actually travels over a channel: one fragment, with the header
/// riding on fragment 0.
#[derive(Debug, Clone)]
struct Packet<M> {
    src: NodeId,
    header: Option<M>,
    frag: Fragment,
    sent_at: SimInstant,
    arrival: SimInstant,
    wire_bytes: usize,
    fragments: u32,
}

/// Sending half; cheap to clone and share between threads of one node.
pub struct NetSender<M> {
    id: NodeId,
    model: NetModel,
    /// Per-link latency/bandwidth overrides over `model`.
    topo: Arc<Topology>,
    txs: Arc<Vec<Sender<Packet<M>>>>,
    links: Arc<Vec<LinkClock>>,
    seq: Arc<AtomicU64>,
    stats: TrafficStats,
    /// The comm task of each node, woken (with the message's virtual
    /// arrival time) whenever something is sent to it. Empty for a
    /// transport without an engine (see [`cluster`]).
    wakers: Arc<Vec<SchedHandle>>,
    /// Seeded per-message loss/delay/dup/reorder injection.
    faults: Option<Arc<FaultPlan>>,
    /// Messages whose every transmission attempt was lost.
    drops: DropLog,
}

impl<M> Clone for NetSender<M> {
    fn clone(&self) -> Self {
        NetSender {
            id: self.id,
            model: self.model,
            topo: Arc::clone(&self.topo),
            txs: Arc::clone(&self.txs),
            links: Arc::clone(&self.links),
            seq: Arc::clone(&self.seq),
            stats: self.stats.clone(),
            wakers: Arc::clone(&self.wakers),
            faults: self.faults.clone(),
            drops: self.drops.clone(),
        }
    }
}

impl<M: WireSize + Send + 'static> NetSender<M> {
    /// Transmit `msg` + `payload` to `dst`, offered at sender virtual
    /// time `now`. Returns the modeled transmission timing; the caller
    /// decides which parts of it to charge to its clock.
    ///
    /// Under a lossy fault plan the reliable layer is folded in
    /// analytically: the returned `arrival` already includes every
    /// retransmission timeout the seeded loss/partition decisions cost
    /// this message, and a message whose retry budget is exhausted
    /// enqueues nothing at all (the drop is recorded for the deadlock
    /// snapshot). Faults only ever *add* delay, so the conservative
    /// lookahead bound — arrival ≥ send + minimum link latency — holds
    /// under every plan.
    pub fn send(&self, dst: NodeId, msg: M, payload: Bytes, now: SimInstant) -> Transmission {
        assert_ne!(dst, self.id, "node {} sending to itself", self.id);
        let body = msg.wire_size() + payload.len();
        let eff = self.topo.effective(&self.model, self.id, dst);
        let mut tx = self.links[dst].transmit(&eff, now, body);
        self.stats.record_send(tx.wire_bytes, tx.fragments);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut dup_idx = None;
        let mut shift = 0u64;
        if let Some(f) = &self.faults {
            // Injected in-flight jitter and reordering hold-back:
            // stretch the arrival only (the sender's link occupancy is
            // unaffected).
            tx.arrival += f.delay_for(self.id, dst, seq);
            let fallback = SimDuration(4 * eff.latency.0 + 4 * eff.per_fragment.0);
            let reorder = f.reorder_delay_for(self.id, dst, seq, fallback);
            shift = reorder.0;
            tx.arrival += reorder;
            let flight = tx.arrival.saturating_sub(tx.depart);
            match f.delivery(self.id, dst, seq, tx.depart, flight) {
                Delivery::Deliver {
                    arrival,
                    retransmits,
                } => {
                    if retransmits > 0 {
                        self.stats.record_retransmits(retransmits);
                    }
                    tx.arrival = arrival;
                }
                Delivery::Dropped { .. } => {
                    self.stats.record_drop();
                    self.drops.record(self.id, dst, seq);
                    return tx;
                }
            }
            dup_idx = f.dup_index_for(self.id, dst, seq, self.model.fragments(payload.len()));
        }
        let max_frag_payload = self.model.max_datagram;
        let mut frags = split(seq, &payload, max_frag_payload);
        debug_assert_eq!(frags.len() as u32, self.model.fragments(payload.len()));
        let n = frags.len();
        if n > 1 && shift > 0 {
            // Reordered messages also scramble their own fragments'
            // channel order (reassembly is by index, so this only
            // exercises the receive path's out-of-order tolerance).
            frags.rotate_left(shift as usize % n);
        }
        let mut header = Some(msg);
        for frag in frags {
            let copy = (dup_idx == Some(frag.index)).then(|| Packet {
                src: self.id,
                header: None,
                frag: frag.clone(),
                sent_at: now,
                arrival: tx.arrival,
                wire_bytes: tx.wire_bytes / n,
                fragments: tx.fragments,
            });
            let pkt = Packet {
                src: self.id,
                header: header.take(),
                frag,
                sent_at: now,
                arrival: tx.arrival,
                wire_bytes: tx.wire_bytes / n,
                fragments: tx.fragments,
            };
            // Unbounded channel: never blocks, so no deadlock between
            // comm threads that send while servicing.
            self.txs[dst]
                .send(pkt)
                .expect("destination endpoint dropped while cluster running");
            if let Some(c) = copy {
                // Duplicate in flight, right behind the original.
                self.stats.record_dup_sent();
                self.txs[dst]
                    .send(c)
                    .expect("destination endpoint dropped while cluster running");
            }
        }
        if let Some(w) = self.wakers.get(dst) {
            w.wake_at(tx.arrival);
        }
        tx
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.txs.len()
    }

    /// The network model in force.
    pub fn model(&self) -> &NetModel {
        &self.model
    }

    /// Traffic counters for this node.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }
}

/// Receiving half; owned by exactly one thread (the comm thread).
pub struct NetReceiver<M> {
    id: NodeId,
    rx: Receiver<Packet<M>>,
    reasm: Reassembler,
    headers: HashMap<(NodeId, u64), PendingHeader<M>>,
    stats: TrafficStats,
    /// Dedupe filter keyed by the schedule-independent `(src, seq)`
    /// message identity: `Some` only when the fault plan can duplicate
    /// traffic, so fault-free runs pay nothing. Grows with the message
    /// count — acceptable for bounded simulated runs.
    delivered: Option<BTreeSet<(NodeId, u64)>>,
}

struct PendingHeader<M> {
    msg: M,
    sent_at: SimInstant,
    arrival: SimInstant,
    wire_bytes: usize,
    fragments: u32,
}

impl<M: WireSize> NetReceiver<M> {
    /// Non-blocking poll for the next *complete* message. Fragments of
    /// interleaved large messages are absorbed until one message has
    /// all its pieces (§5: no decoding of partial messages). A packet
    /// is in the channel as soon as [`NetSender::send`] returns.
    pub fn try_recv(&mut self) -> Option<Envelope<M>> {
        while let Ok(pkt) = self.rx.try_recv() {
            if let Some(env) = self.absorb(pkt) {
                return Some(env);
            }
        }
        None
    }

    fn absorb(&mut self, pkt: Packet<M>) -> Option<Envelope<M>> {
        let key = (pkt.src, pkt.frag.msg_seq);
        if let Some(done) = &self.delivered {
            // Whole-message duplicate (or a stray fragment of an
            // already-completed message): filter before reassembly so
            // it can neither deliver twice nor leave a ghost partial.
            if done.contains(&key) {
                self.stats.record_dup_filtered();
                return None;
            }
        }
        if self.reasm.already_has(pkt.src, &pkt.frag) {
            // Duplicate fragment of a still-incomplete message.
            self.stats.record_dup_filtered();
            return None;
        }
        if let Some(msg) = pkt.header {
            self.headers.insert(
                key,
                PendingHeader {
                    msg,
                    sent_at: pkt.sent_at,
                    arrival: pkt.arrival,
                    wire_bytes: pkt.wire_bytes * pkt.fragments as usize,
                    fragments: pkt.fragments,
                },
            );
        }
        let seq = pkt.frag.msg_seq;
        let payload = self.reasm.push(pkt.src, pkt.frag)?;
        if let Some(done) = &mut self.delivered {
            done.insert(key);
        }
        let h = self
            .headers
            .remove(&key)
            .expect("header fragment precedes or accompanies completion");
        self.stats.record_recv(h.wire_bytes);
        Some(Envelope {
            src: pkt.src,
            msg: h.msg,
            payload,
            sent_at: h.sent_at,
            arrival: h.arrival,
            wire_bytes: h.wire_bytes,
            fragments: h.fragments,
            seq,
        })
    }

    /// Messages awaiting more fragments (the §5 memory cost).
    pub fn pending_reassemblies(&self) -> usize {
        self.reasm.pending()
    }

    pub fn id(&self) -> NodeId {
        self.id
    }
}

/// Build the two halves of one node's endpoint.
#[allow(clippy::too_many_arguments)]
fn endpoint_pair<M>(
    id: NodeId,
    model: NetModel,
    topo: Arc<Topology>,
    txs: Vec<Sender<Packet<M>>>,
    rx: Receiver<Packet<M>>,
    wakers: Arc<Vec<SchedHandle>>,
    faults: Option<Arc<FaultPlan>>,
    drops: DropLog,
) -> (NetSender<M>, NetReceiver<M>) {
    let stats = TrafficStats::new();
    let links = Arc::new((0..txs.len()).map(|_| LinkClock::new()).collect::<Vec<_>>());
    let dedupe = faults.as_deref().is_some_and(FaultPlan::needs_dedupe);
    (
        NetSender {
            id,
            model,
            topo,
            txs: Arc::new(txs),
            links,
            seq: Arc::new(AtomicU64::new(0)),
            stats: stats.clone(),
            wakers,
            faults,
            drops,
        },
        NetReceiver {
            id,
            rx,
            reasm: Reassembler::new(),
            headers: HashMap::new(),
            stats,
            delivered: dedupe.then(BTreeSet::new),
        },
    )
}

/// A fully built cluster interconnect: the per-node endpoints plus the
/// shared log of irrecoverably dropped messages (for the deadlock
/// detector's diagnostics).
pub struct ClusterNet<M> {
    pub endpoints: Vec<(NetSender<M>, NetReceiver<M>)>,
    pub drops: DropLog,
}

/// Build a fully connected cluster of `n` endpoints with no engine
/// attached: sends wake nobody, and receivers poll with
/// [`NetReceiver::try_recv`]. For transport tests and benches.
pub fn cluster<M: WireSize + Send + 'static>(
    n: usize,
    model: NetModel,
) -> Vec<(NetSender<M>, NetReceiver<M>)> {
    cluster_net(n, model, Topology::uniform(), Vec::new(), None).endpoints
}

/// The cluster constructor the runtimes use. `wakers` holds the
/// scheduler task of each node's receiver (its comm task), woken with
/// the virtual arrival time on every send addressed to it (empty: no
/// engine, as in [`cluster`]); `topology` overrides per-link latency
/// and bandwidth; `faults` injects seeded per-message
/// delays/loss/duplication/reordering. Returns the drop log alongside
/// the endpoints.
pub fn cluster_net<M: WireSize + Send + 'static>(
    n: usize,
    model: NetModel,
    topology: Topology,
    wakers: Vec<SchedHandle>,
    faults: Option<Arc<FaultPlan>>,
) -> ClusterNet<M> {
    assert!(n >= 1, "cluster needs at least one node");
    assert!(
        wakers.is_empty() || wakers.len() == n,
        "one waker per node, or none"
    );
    let wakers = Arc::new(wakers);
    let topo = Arc::new(topology);
    let drops = DropLog::new();
    let mut txs: Vec<Vec<Sender<Packet<M>>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let mut rxs: Vec<Receiver<Packet<M>>> = Vec::with_capacity(n);
    for _dst in 0..n {
        let (tx, rx) = channel::unbounded::<Packet<M>>();
        rxs.push(rx);
        for sender_txs in txs.iter_mut() {
            sender_txs.push(tx.clone());
        }
    }
    let endpoints = txs
        .into_iter()
        .zip(rxs)
        .enumerate()
        .map(|(id, (tx, rx))| {
            endpoint_pair(
                id,
                model,
                Arc::clone(&topo),
                tx,
                rx,
                Arc::clone(&wakers),
                faults.clone(),
                drops.clone(),
            )
        })
        .collect();
    ClusterNet { endpoints, drops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::SimDuration;

    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg(u32);

    impl WireSize for TestMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    fn model() -> NetModel {
        NetModel {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 10_000_000,
            per_fragment: SimDuration::from_micros(10),
            max_datagram: 4096,
            window_frags: 8,
        }
    }

    #[test]
    fn small_message_roundtrip() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = {
            let (s, r) = eps.remove(0);
            (s, r)
        };
        let t = tx1.send(0, TestMsg(42), Bytes::from_static(b"hello"), SimInstant(0));
        assert_eq!(t.fragments, 1);
        let env = rx0.try_recv().expect("expected message");
        assert_eq!(env.src, 1);
        assert_eq!(env.msg, TestMsg(42));
        assert_eq!(&env.payload[..], b"hello");
        assert_eq!(env.arrival, t.arrival);
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let payload: Bytes = (0..20_000u32)
            .map(|i| (i % 256) as u8)
            .collect::<Vec<_>>()
            .into();
        let t = tx1.send(0, TestMsg(7), payload.clone(), SimInstant(0));
        assert!(t.fragments >= 5, "fragments={}", t.fragments);
        let env = rx0.try_recv().expect("expected message");
        assert_eq!(env.payload, payload);
        assert_eq!(env.fragments, t.fragments);
        assert_eq!(rx0.pending_reassemblies(), 0);
    }

    #[test]
    fn messages_from_same_sender_keep_order_and_serialize() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let t1 = tx1.send(0, TestMsg(1), Bytes::from(vec![0u8; 8000]), SimInstant(0));
        let t2 = tx1.send(0, TestMsg(2), Bytes::from(vec![1u8; 100]), SimInstant(0));
        // Link serialization: second departs after first finishes.
        assert!(t2.arrival > t1.arrival);
        let a = rx0.try_recv().expect("first message");
        let b = rx0.try_recv().expect("second message");
        assert_eq!(a.msg, TestMsg(1));
        assert_eq!(b.msg, TestMsg(2));
    }

    #[test]
    fn timeout_when_no_traffic() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (_, mut rx0) = eps.remove(0);
        assert!(rx0.try_recv().is_none(), "nothing was sent");
    }

    #[test]
    fn fault_delays_stretch_arrival_only() {
        use lots_sim::{FaultPlan, SimDuration};
        let max = SimDuration::from_millis(5);
        let plain = cluster::<TestMsg>(2, model());
        let faulty = cluster_net::<TestMsg>(
            2,
            model(),
            Topology::uniform(),
            Vec::new(),
            Some(Arc::new(FaultPlan::delays(7, max))),
        )
        .endpoints;
        let send = |eps: &[(NetSender<TestMsg>, NetReceiver<TestMsg>)]| {
            eps[1]
                .0
                .send(0, TestMsg(1), Bytes::from_static(b"x"), SimInstant(0))
        };
        let a = send(&plain);
        let b = send(&faulty);
        assert_eq!(a.sender_free, b.sender_free, "link occupancy unchanged");
        assert!(b.arrival >= a.arrival);
        assert!(b.arrival.saturating_sub(a.arrival) <= max);
    }

    #[test]
    fn disconnected_when_all_senders_dropped() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (_, mut rx0) = eps.remove(0);
        eps[0]
            .0
            .send(0, TestMsg(5), Bytes::from_static(b"last"), SimInstant(0));
        drop(eps); // drops node 1's sender (and node 0's own sender clone)
                   // What was sent before the disconnect is still delivered, once;
                   // after that the dead channel reads as empty.
        assert_eq!(
            rx0.try_recv().expect("sent before disconnect").msg,
            TestMsg(5)
        );
        assert!(rx0.try_recv().is_none(), "expected disconnect");
    }

    #[test]
    fn stats_count_both_directions() {
        let mut eps = cluster::<TestMsg>(3, model());
        let (tx2, _) = eps.remove(2);
        let (_, mut rx0) = eps.remove(0);
        tx2.send(0, TestMsg(9), Bytes::from(vec![0u8; 1000]), SimInstant(0));
        assert_eq!(tx2.stats().msgs_sent(), 1);
        assert!(tx2.stats().bytes_sent() >= 1000);
        assert!(rx0.try_recv().is_some());
    }

    #[test]
    fn topology_overrides_one_link_only() {
        use lots_sim::LinkParams;
        let slow = LinkParams {
            latency: SimDuration::from_millis(2),
            bandwidth_bps: 1_000_000,
        };
        let topo = Topology::uniform().with_link(1, 0, slow);
        let net = cluster_net::<TestMsg>(3, model(), topo, Vec::new(), None);
        let eps = net.endpoints;
        let t_slow = eps[1]
            .0
            .send(0, TestMsg(1), Bytes::from_static(b"x"), SimInstant(0));
        let t_fast = eps[2]
            .0
            .send(0, TestMsg(1), Bytes::from_static(b"x"), SimInstant(0));
        // Same payload, same offer time: only the overridden link pays
        // the 2 ms latency and the 1 MB/s wire time.
        assert!(t_slow.arrival.0 >= 2_000_000);
        assert!(t_slow.arrival > t_fast.arrival);
        assert!(net.drops.is_empty());
    }

    #[test]
    fn loss_with_retransmission_delays_but_delivers_everything() {
        use lots_sim::FaultPlan;
        let plan = FaultPlan {
            seed: 5,
            loss_permille: 400,
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(
            2,
            model(),
            Topology::uniform(),
            Vec::new(),
            Some(Arc::new(plan)),
        );
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        for k in 0..50u32 {
            tx1.send(
                0,
                TestMsg(k),
                Bytes::from(vec![k as u8; 100]),
                SimInstant(0),
            );
        }
        for _ in 0..50 {
            assert!(
                rx0.try_recv().is_some(),
                "retransmission must deliver every message"
            );
        }
        assert!(tx1.stats().msgs_retransmitted() > 0, "40% loss, 50 msgs");
        assert_eq!(tx1.stats().msgs_dropped(), 0);
        assert!(net.drops.is_empty());
    }

    #[test]
    fn loss_without_retransmission_drops_and_logs() {
        use lots_sim::{FaultPlan, Retransmit};
        let plan = FaultPlan {
            seed: 5,
            loss_permille: 400,
            retransmit: Retransmit {
                enabled: false,
                ..Retransmit::default()
            },
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(
            2,
            model(),
            Topology::uniform(),
            Vec::new(),
            Some(Arc::new(plan)),
        );
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        for k in 0..50u32 {
            tx1.send(0, TestMsg(k), Bytes::from_static(b"y"), SimInstant(0));
        }
        let mut got = 0;
        while rx0.try_recv().is_some() {
            got += 1;
        }
        let dropped = tx1.stats().msgs_dropped();
        assert!(dropped > 0, "40% loss with no retries must drop");
        assert_eq!(got + dropped, 50);
        assert_eq!(net.drops.len() as u64, dropped);
        let rendered = net.drops.render();
        let (src, dst, seq) = net.drops.entries()[0];
        assert!(rendered.contains(&format!("node {src} -> node {dst} seq {seq}")));
    }

    #[test]
    fn duplicates_are_injected_and_filtered() {
        use lots_sim::FaultPlan;
        let plan = FaultPlan {
            seed: 2,
            dup_permille: 900,
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(
            2,
            model(),
            Topology::uniform(),
            Vec::new(),
            Some(Arc::new(plan)),
        );
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        // Mix of single-fragment (whole-message dup) and multi-fragment
        // (duplicate-fragment) messages.
        for k in 0..20u32 {
            let len = if k % 2 == 0 { 64 } else { 9000 };
            tx1.send(
                0,
                TestMsg(k),
                Bytes::from(vec![k as u8; len]),
                SimInstant(0),
            );
        }
        let mut got = 0;
        while let Some(env) = rx0.try_recv() {
            assert_eq!(env.payload[0], env.msg.0 as u8);
            got += 1;
        }
        assert_eq!(got, 20, "each message delivered exactly once");
        assert!(tx1.stats().dups_sent() > 0, "90% dup rate over 20 msgs");
        assert_eq!(rx0.stats.dups_filtered(), tx1.stats().dups_sent());
        assert_eq!(rx0.pending_reassemblies(), 0, "no ghost partials");
    }

    #[test]
    fn reordering_scrambles_arrivals_but_loses_nothing() {
        use lots_sim::FaultPlan;
        let plan = FaultPlan {
            seed: 8,
            reorder_permille: 500,
            reorder_window: SimDuration::from_millis(2),
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(
            2,
            model(),
            Topology::uniform(),
            Vec::new(),
            Some(Arc::new(plan)),
        );
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let mut arrivals = Vec::new();
        for k in 0..40u32 {
            let len = if k % 4 == 0 { 9000 } else { 32 };
            let t = tx1.send(0, TestMsg(k), Bytes::from(vec![0u8; len]), SimInstant(0));
            arrivals.push(t.arrival);
        }
        assert!(
            arrivals.windows(2).any(|w| w[1] < w[0]),
            "hold-back delays must invert some arrival order"
        );
        for _ in 0..40 {
            assert!(
                rx0.try_recv().is_some(),
                "reordering must not lose messages"
            );
        }
        assert_eq!(rx0.pending_reassemblies(), 0);
    }

    #[test]
    fn partition_with_retransmission_delivers_after_heal() {
        use lots_sim::{FaultPlan, Partition};
        let plan = FaultPlan {
            partitions: vec![Partition {
                start: SimInstant(0),
                end: SimInstant(50_000_000),
                islanders: vec![0],
            }],
            ..FaultPlan::default()
        };
        let net = cluster_net::<TestMsg>(
            2,
            model(),
            Topology::uniform(),
            Vec::new(),
            Some(Arc::new(plan)),
        );
        let mut eps = net.endpoints;
        let (tx1, _) = eps.remove(1);
        let (_, mut rx0) = eps.remove(0);
        let t = tx1.send(0, TestMsg(3), Bytes::from_static(b"z"), SimInstant(0));
        assert!(
            t.arrival >= SimInstant(50_000_000),
            "delivery {} must wait out the partition",
            t.arrival
        );
        let env = rx0.try_recv().expect("expected delivery after heal");
        assert_eq!(env.arrival, t.arrival);
        assert!(tx1.stats().msgs_retransmitted() > 0);
    }

    #[test]
    #[should_panic(expected = "sending to itself")]
    fn self_send_rejected() {
        let mut eps = cluster::<TestMsg>(2, model());
        let (tx0, _) = eps.remove(0);
        tx0.send(0, TestMsg(0), Bytes::new(), SimInstant(0));
    }

    #[test]
    fn concurrent_senders_to_one_receiver() {
        let eps = cluster::<TestMsg>(4, model());
        let mut it = eps.into_iter();
        let (_, mut rx0) = it.next().unwrap();
        let senders: Vec<_> = it.map(|(s, _)| s).collect();
        let mut handles = Vec::new();
        for (i, s) in senders.into_iter().enumerate() {
            handles.push(std::thread::spawn(move || {
                for k in 0..25u32 {
                    s.send(
                        0,
                        TestMsg(k),
                        Bytes::from(vec![i as u8; 6000]),
                        SimInstant(0),
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while got < 75 {
            let env = rx0
                .try_recv()
                .unwrap_or_else(|| panic!("lost messages: only {got}"));
            assert_eq!(env.payload.len(), 6000);
            got += 1;
        }
    }
}
