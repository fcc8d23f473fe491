//! Behavioural tests of the simulated cluster: message-delivery guarantees
//! the runners depend on, barrier all-reduce correctness, standby adoption
//! under concurrency, and heartbeat failure detection.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use imitator_cluster::{BarrierOutcome, Cluster, Coordinator, DetectorConfig, NodeId};

#[test]
fn per_sender_fifo_order_is_preserved() {
    let c: Cluster<u64> = Cluster::new(2, 0, Duration::ZERO);
    let a = c.take_ctx(NodeId::new(0));
    let b = c.take_ctx(NodeId::new(1));
    let t = std::thread::spawn(move || {
        for i in 0..1_000u64 {
            b.send(NodeId::new(0), i);
        }
        b.enter_barrier();
    });
    a.enter_barrier();
    let got: Vec<u64> = a.drain().into_iter().map(|e| e.msg).collect();
    assert_eq!(got, (0..1_000).collect::<Vec<_>>());
    t.join().unwrap();
}

#[test]
fn all_pre_barrier_sends_visible_after_barrier() {
    // The BSP delivery guarantee Algorithm 1 relies on: every message sent
    // before the sender entered the barrier is in the inbox afterwards.
    let n = 6;
    let c: Cluster<(u32, u64)> = Cluster::new(n, 0, Duration::ZERO);
    let handles: Vec<_> = (0..n)
        .map(|p| {
            let ctx = c.take_ctx(NodeId::from_index(p));
            std::thread::spawn(move || {
                for round in 0..20u64 {
                    for q in 0..n {
                        if q != p {
                            ctx.send(NodeId::from_index(q), (p as u32, round));
                        }
                    }
                    ctx.enter_barrier();
                    let msgs = ctx.drain();
                    assert_eq!(msgs.len(), n - 1, "round {round} on node {p}");
                    for m in msgs {
                        assert_eq!(m.msg.1, round, "stale message leaked across rounds");
                    }
                    ctx.enter_barrier();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn standby_adoption_is_exclusive() {
    // Two standbys, one dispatch: exactly one thread adopts the identity.
    let c: Cluster<()> = Cluster::new(2, 2, Duration::ZERO);
    let _a = c.take_ctx(NodeId::new(0));
    let b = c.take_ctx(NodeId::new(1));
    b.die();
    c.coordinator().mark_failed(NodeId::new(1));
    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let c = c.clone();
            std::thread::spawn(move || {
                c.wait_standby(Duration::from_millis(400))
                    .map(|ctx| ctx.id())
            })
        })
        .collect();
    assert!(c.dispatch_standby(NodeId::new(1)));
    let adopted: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
    let hits = adopted.iter().flatten().count();
    assert_eq!(hits, 1, "exactly one standby must adopt: {adopted:?}");
}

#[test]
fn heartbeat_detection_blocks_then_fails_barrier() {
    // The default detector: a 60 ms timeout, which the survivor's pumped
    // barrier wait must sit out before the dead node's closed slot is
    // confirmed.
    let c: Cluster<()> = Cluster::new(2, 0, Duration::ZERO);
    let a = c.take_ctx(NodeId::new(0));
    let b = c.take_ctx(NodeId::new(1));
    let start = std::time::Instant::now();
    b.die();
    let outcome = a.enter_barrier();
    assert!(outcome.is_fail());
    assert!(
        start.elapsed() >= Duration::from_millis(60),
        "barrier released before the heartbeat timeout"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// barrier_sum really all-reduces: every participant sees the exact sum
    /// of everyone's contributions, every round.
    #[test]
    fn barrier_sum_allreduce(
        contributions in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000, 1..6), // per-node values, rounds = inner len
            2..5
        )
    ) {
        let nodes = contributions.len();
        let rounds = contributions.iter().map(Vec::len).min().unwrap();
        let coord = Arc::new(Coordinator::new(nodes, 0, DetectorConfig::default(), false));
        let expected: Vec<u64> = (0..rounds)
            .map(|r| contributions.iter().map(|c| c[r]).sum())
            .collect();
        let handles: Vec<_> = contributions
            .iter()
            .enumerate()
            .map(|(p, vals)| {
                let coord = Arc::clone(&coord);
                let vals = vals[..rounds].to_vec();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for (r, v) in vals.into_iter().enumerate() {
                        let (outcome, sum) = coord.barrier_sum(NodeId::from_index(p), v);
                        assert_eq!(outcome, BarrierOutcome::Clean);
                        assert_eq!(sum, expected[r], "round {r} on node {p}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
