//! Layer replays: the benchmark calls each layer's public functions on the
//! workload's own inputs, single-threaded unless the layer is the cluster,
//! and times every call from outside with a span. Replays say what a layer
//! costs alone; the end-to-end metrics say what that is worth to a job.

use std::hint::black_box;
use std::time::Duration;

use imitator::plan::{compute_ft_plan, extra_replica_fraction};
use imitator::wire::{decode_sync_frame, encode_sync_frame, SyncRecEnc};
use imitator::TransportKind;
use imitator_algos::{PageRank, Sssp};
use imitator_cluster::{Cluster, NodeCtx, NodeId, WireCodec};
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, ec_commit, ec_compute, vc_apply,
    vc_partial_gather, Degrees, FtPlan, VertexProgram,
};
use imitator_graph::{Graph, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use imitator_storage::codec::{Decode, Encode};
use imitator_storage::{Dfs, DfsConfig};

use crate::config::{Algo, Engine, Scale, Workload, NODES};
use crate::json::Json;
use crate::op::{metrics_json, ReplayHints, DAMPING};
use crate::stats::median;
use crate::trace::{chrome_events, Tracer};

/// Repetitions of the short kernels (compute, codec, DFS); the median is
/// reported. Set-up calls (gen, cut, plan, build) run once: each is as long
/// as a whole superstep sequence.
const KERNEL_REPS: usize = 5;
const BARRIER_ROUNDS: usize = 1000;
const SYNC_ROUNDS: usize = 100;
/// The seed the runners pass to `compute_ft_plan`.
const PLAN_SEED: u64 = 0xF7;

pub struct ReplayOutcome {
    pub metrics: Vec<(String, f64)>,
    pub trace_events: Vec<Json>,
}

impl ReplayOutcome {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("metrics", metrics_json(&self.metrics)),
            ("trace_events", Json::Arr(self.trace_events.clone())),
        ])
    }
}

struct Replay {
    tr: Tracer,
    metrics: Vec<(String, f64)>,
}

impl Replay {
    fn put(&mut self, name: &str, v: f64) {
        self.metrics.push((name.to_string(), v));
    }

    /// Times `f` `reps` times in spans called `name`; returns the last
    /// result and the median duration in seconds.
    fn timed<T>(
        &mut self,
        name: &str,
        layer: &str,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, f64) {
        let mut last = None;
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps.max(1) {
            let (out, s) = self.tr.span(name, layer, None, &mut f);
            last = Some(black_box(out));
            secs.push(s);
        }
        (
            last.expect("at least one repetition"),
            median(&secs).expect("at least one repetition"),
        )
    }
}

/// Replays every layer on `w`'s inputs.
pub fn replay(w: Workload, scale: Scale, seed: u64, hints: ReplayHints) -> ReplayOutcome {
    let mut rp = Replay {
        tr: Tracer::new(true),
        metrics: Vec::new(),
    };
    let (g, gen_s) = rp.timed("gen", "graph", 1, || w.graph(scale, seed));
    rp.put("graph.gen_s", gen_s);
    rp.put("graph.edges", g.num_edges() as f64);
    match w.algo() {
        Algo::PageRank => engine_and_wire(&mut rp, w, &g, &PageRank::new(DAMPING, 0.0), hints),
        Algo::Sssp => engine_and_wire(&mut rp, w, &g, &Sssp::from_source(Vid::new(0)), hints),
    }
    storage(&mut rp, w, hints);
    let op = format!("{}/replay/seed{seed}", w.name());
    ReplayOutcome {
        trace_events: chrome_events(rp.tr.spans(), 2, &op),
        metrics: rp.metrics,
    }
}

fn engine_and_wire<P>(rp: &mut Replay, w: Workload, g: &Graph, prog: &P, hints: ReplayHints)
where
    P: VertexProgram,
    P::Value: Encode + Decode,
{
    let degrees = Degrees::of(g);
    let edges = g.num_edges() as f64;
    // One encoded value per local copy of node 0, the wire replay's payload.
    let encoded: Vec<Vec<u8>>;
    match w.engine() {
        Engine::EdgeCut => {
            let (cut, cut_s) = rp.timed("partition", "partition", 1, || {
                HashEdgeCut.partition(g, NODES)
            });
            rp.put("partition.cut_s", cut_s);
            rp.put("partition.replication_factor", cut.replication_factor());
            let plan = ft_plan(rp, w, g, &cut, prog);
            let (mut lgs, build_s) = rp.timed("build_graphs", "engine", 1, || {
                build_edge_cut_graphs(g, &cut, &plan, prog, &degrees)
            });
            rp.put("engine.build_s", build_s);
            encoded = encode_values(lgs[0].verts.iter().map(|v| &v.value));

            // One dense superstep over all four local graphs in turn:
            // compute is pure, so it repeats; commit mutates, so it runs once.
            let mut compute_s = 0.0;
            let mut updates = Vec::new();
            for lg in &lgs {
                let (u, s) = rp.timed("ec_compute", "engine", KERNEL_REPS, || {
                    ec_compute(lg, prog, &degrees, 0)
                });
                compute_s += s;
                updates.push(u);
            }
            // What each node's replicas would receive from the other three.
            let mut inbound: Vec<Vec<(u32, P::Value, bool)>> = vec![Vec::new(); lgs.len()];
            for (from, us) in updates.iter().enumerate() {
                for u in us {
                    let vid = lgs[from].verts[u.local as usize].vid;
                    for (to, lg) in lgs.iter().enumerate() {
                        if to == from {
                            continue;
                        }
                        if let Some(pos) = lg.position(vid) {
                            inbound[to].push((pos, u.value.clone(), u.activate));
                        }
                    }
                }
            }
            let mut commit_s = 0.0;
            for ((lg, mine), theirs) in lgs.iter_mut().zip(updates).zip(inbound) {
                let (_, s) = rp.tr.span("ec_commit", "engine", None, || {
                    ec_commit(lg, prog, mine, theirs)
                });
                commit_s += s;
            }
            rp.put("engine.ec_compute_ms", compute_s * 1e3);
            rp.put("engine.ec_commit_ms", commit_s * 1e3);
            rp.put("engine.compute_medges_per_s", edges / 1e6 / compute_s);
        }
        Engine::VertexCut => {
            let (cut, cut_s) = rp.timed("partition", "partition", 1, || {
                RandomVertexCut.partition(g, NODES)
            });
            rp.put("partition.cut_s", cut_s);
            rp.put("partition.replication_factor", cut.replication_factor());
            let plan = ft_plan(rp, w, g, &cut, prog);
            let (lgs, build_s) = rp.timed("build_graphs", "engine", 1, || {
                build_vertex_cut_graphs(g, &cut, &plan, prog, &degrees)
            });
            rp.put("engine.build_s", build_s);
            encoded = encode_values(lgs[0].verts.iter().map(|v| &v.value));

            let (mut gather_s, mut apply_s) = (0.0, 0.0);
            for lg in &lgs {
                let (partials, s) = rp.timed("vc_partial_gather", "engine", KERNEL_REPS, || {
                    vc_partial_gather(lg, prog)
                });
                gather_s += s;
                // Local partials stand in for the merged accumulators: the
                // apply cost does not depend on which contributions arrived.
                let (_, s) = rp.timed("vc_apply", "engine", KERNEL_REPS, || {
                    vc_apply(lg, prog, partials.clone(), &degrees, 0)
                });
                apply_s += s;
            }
            rp.put("engine.vc_gather_ms", gather_s * 1e3);
            rp.put("engine.vc_apply_ms", apply_s * 1e3);
            rp.put("engine.compute_medges_per_s", edges / 1e6 / gather_s);
        }
    }
    let frame_bytes = wire::<P::Value>(rp, &encoded, hints.records_per_node_step);
    cluster(rp, w.transport(), frame_bytes);
}

fn ft_plan<P: VertexProgram>(
    rp: &mut Replay,
    w: Workload,
    g: &Graph,
    view: &dyn imitator::plan::ReplicaView,
    prog: &P,
) -> FtPlan {
    if !w.replicates() {
        return FtPlan::none(g.num_vertices());
    }
    let (plan, s) = rp.timed("compute_ft_plan", "plan", 1, || {
        compute_ft_plan(g, view, 1, true, prog.selfish_compatible(), PLAN_SEED)
    });
    rp.put("plan.ft_plan_s", s);
    rp.put("plan.extra_replica_fraction", extra_replica_fraction(&plan));
    plan
}

fn encode_values<'a, V: Encode + 'a>(values: impl Iterator<Item = &'a V>) -> Vec<Vec<u8>> {
    values
        .map(|v| {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            buf
        })
        .collect()
}

/// Encodes and decodes one sync frame holding the workload's mean records
/// per node per superstep; returns the frame's size in bytes.
fn wire<V: Decode>(rp: &mut Replay, encoded: &[Vec<u8>], records: f64) -> usize {
    let n = (records.round() as usize).max(1);
    let recs: Vec<SyncRecEnc<'_>> = (0..n)
        .map(|i| SyncRecEnc {
            pos: i as u32,
            activate: i % 3 == 0,
            value: &encoded[i % encoded.len()],
            span: None,
        })
        .collect();
    let mut frame = Vec::new();
    let (_, encode_s) = rp.timed("encode_sync_frame", "wire", KERNEL_REPS, || {
        frame.clear();
        encode_sync_frame(&recs, &mut frame);
    });
    let (decoded, decode_s) = rp.timed("decode_sync_frame", "wire", KERNEL_REPS, || {
        decode_sync_frame::<V>(&frame, |_| unreachable!("full frames need no delta base"))
            .expect("self-encoded frame decodes")
            .len()
    });
    assert_eq!(decoded, n, "decode must return every record");
    rp.put("wire.sync_encode_ms", encode_s * 1e3);
    rp.put("wire.sync_decode_ms", decode_s * 1e3);
    rp.put("wire.bytes_per_sync", frame.len() as f64 / n as f64);
    frame.len()
}

/// An opaque encoded sync frame, the unit the runners put on the wire (one
/// coalesced frame per destination per superstep).
#[derive(Clone)]
struct Frame(Vec<u8>);

impl WireCodec for Frame {
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        Some(Frame(bytes.to_vec()))
    }
}

/// Runs `body(node, ctx)` on one thread per node of `cluster` and waits for
/// all of them.
fn on_every_node<M: Send + 'static>(
    cluster: &Cluster<M>,
    body: impl Fn(usize, &NodeCtx<M>) + Sync,
) {
    std::thread::scope(|s| {
        for node in 0..NODES {
            let ctx = cluster.take_ctx(NodeId::from_index(node));
            let body = &body;
            s.spawn(move || body(node, &ctx));
        }
    });
}

fn cluster(rp: &mut Replay, kind: TransportKind, frame_bytes: usize) {
    // The barrier alone: what every superstep pays whatever it ships.
    let (_, s) = rp.timed("barrier x1000", "cluster", 1, || {
        let cluster: Cluster<()> = Cluster::new(NODES, 0, Duration::ZERO);
        on_every_node(&cluster, |_, ctx| {
            for _ in 0..BARRIER_ROUNDS {
                ctx.enter_barrier();
            }
        });
    });
    rp.put("cluster.barrier_us", s * 1e6 / BARRIER_ROUNDS as f64);

    // Bringing the transport up and down: connect cost on TCP, ~0 on
    // channels.
    let (cluster, up_s) = rp.timed("transport up", "cluster", 1, || {
        Cluster::<Frame>::with_transport(NODES, 0, Duration::ZERO, kind)
    });
    // One sync round: every node ships its frame, split over the three
    // peers, then barrier and drain — on the workload's transport.
    let per_peer = Frame(vec![0xA5; (frame_bytes / (NODES - 1)).max(1)]);
    let (_, s) = rp.timed("sync round x100", "cluster", 1, || {
        on_every_node(&cluster, |n, ctx| {
            // A peer that leaves the barrier first may ship its next frame
            // before this node drains, so frames are counted over the whole
            // run, not per round.
            let mut got = 0;
            for _ in 0..SYNC_ROUNDS {
                for peer in (0..NODES).filter(|&p| p != n) {
                    ctx.send_sized(
                        NodeId::from_index(peer),
                        per_peer.clone(),
                        per_peer.0.len() as u64,
                    );
                }
                ctx.enter_barrier();
                got += ctx.drain().len();
            }
            ctx.enter_barrier();
            got += ctx.drain().len();
            assert_eq!(got, SYNC_ROUNDS * (NODES - 1), "pre-barrier delivery");
        });
    });
    rp.put("cluster.sync_round_ms", s * 1e3 / SYNC_ROUNDS as f64);
    let (_, down_s) = rp.timed("transport down", "cluster", 1, || {
        cluster.shutdown_transport()
    });
    rp.put("cluster.connect_s", up_s + down_s);
}

/// DFS write and read of a blob of the workload's mean part size under the
/// HDFS-like cost model (skipped on workloads that never touch the DFS).
fn storage(rp: &mut Replay, w: Workload, hints: ReplayHints) {
    if !w.uses_dfs() || hints.dfs_part_bytes < 1.0 {
        return;
    }
    let dfs = Dfs::new(DfsConfig::hdfs_like());
    let blob = vec![0x5Au8; hints.dfs_part_bytes.round() as usize];
    let (_, write_s) = rp.timed("dfs write", "storage", KERNEL_REPS, || {
        dfs.write("replay/part", blob.clone())
    });
    let (_, read_s) = rp.timed("dfs read", "storage", KERNEL_REPS, || {
        dfs.read("replay/part").map(|b| b.len())
    });
    rp.put("storage.dfs_write_ms", write_s * 1e3);
    rp.put("storage.dfs_read_ms", read_s * 1e3);
}
