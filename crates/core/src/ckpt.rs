//! What checkpoint-based fault tolerance and edge-ckpt files keep on the
//! DFS (§2.2, §4.3), and the full-state codec the wire messages share.
//!
//! Three kinds of DFS content:
//!
//! * **metadata snapshots** — one per node, written after loading: the
//!   Rebirth batch that rebuilds the node's graph ([`encode_meta`]). A
//!   partition has this one serialisation, so a checkpoint newbie — a
//!   standby, or a thread a survivor hosts — rebuilds from the DFS what a
//!   Rebirth newbie rebuilds from its survivors' batches;
//! * **data snapshots** — one per node per checkpoint: the masters' mutable
//!   state (value + activity), written inside the global barrier and
//!   committed by the leader's roster once it is clean ([`write_epoch_part`],
//!   [`commit_epoch`]);
//! * **edge-ckpt files** — vertex-cut only: each node's owned edges, one
//!   file a node in one section per potential receiver, so each Migration
//!   survivor reloads its own section in parallel (§4.3). They are the edges
//!   no batch carries, so a checkpointing node writes its file too; a
//!   rebuild of the node reads it whole.
//!
//! Integers that scale with the graph — vertex IDs, node IDs, array
//! positions, counts — are LEB128 varints ([`crate::columns`], the
//! primitives the wire messages use too), and the position columns of data
//! snapshots are zigzag varints of the step from the previous position
//! (ascending master scans make most steps one byte). Per-master activation
//! flags pack two bits apiece into a bitmap. Values keep their codec
//! encoding unchanged. Decoding stays strict (trailing bytes and
//! out-of-range positions are errors).

use imitator_cluster::{FailPoint, NodeId};
use imitator_engine::{
    take_run, ColumnLens, CopyKind, Degrees, EcLocalGraph, EcVertex, EdgeLists, Episode,
    FullStateBatches, FullStateRef, InEdge, InEdges, List, Locations, LocationsRef, RemoteEdge,
    VcLocalGraph, VcVertex, VertexProgram, MAX_TABLE_NODES,
};
use imitator_graph::Vid;
use imitator_metrics::Stopwatch;
use imitator_storage::codec::{
    join_sections, locate_sections, uvarint_len, ByteCount, Decode, DecodeError, Encode, Reader,
    Sink, SECTION_TABLE_ROOM,
};
use imitator_storage::epoch::{self, EpochError, EpochKind, Sealed};
use imitator_storage::{Dfs, WriteBehind};

use crate::columns::{
    dec_bits, dec_count, dec_delta, dec_deltas, dec_node, dec_u32, dec_u64, enc_bits, enc_count,
    enc_delta, enc_deltas, enc_node, enc_u32, enc_u64,
};
use crate::driver::{ComputeModel, ModelGraph, Shared, St};
use crate::msg::{dec_batch, enc_batch, RebirthBatch, Reborn, StoreCodec};
use crate::rt::NodeState;
use crate::FtMode;

/// The replica-location tables: all of a vertex-cut copy's full state, and
/// the head of an edge-cut copy's.
pub(crate) fn enc_locations<S: Sink>(m: LocationsRef<'_>, buf: &mut S) {
    enc_u32(m.master_pos(), buf);
    enc_count(m.replica_nodes().len(), buf);
    for (n, &p) in m.replica_nodes().iter().zip(m.replica_positions()) {
        enc_node(n, buf);
        enc_u32(p, buf);
    }
    enc_count(m.mirror_nodes().len(), buf);
    for n in m.mirror_nodes() {
        enc_node(n, buf);
    }
}

/// A table's node count: held to the input like every count, and to what a
/// table may name — past that is corruption, not something to wrap.
fn dec_table_count(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let n = dec_count(r)?;
    if n > MAX_TABLE_NODES {
        return Err(DecodeError::Corrupt("location table count"));
    }
    Ok(n)
}

/// Reads [`enc_locations`] back into `m`, reusing its allocation.
pub(crate) fn dec_locations_into(r: &mut Reader<'_>, m: &mut Locations) -> Result<(), DecodeError> {
    let mut words = std::mem::take(m).into_words();
    words.clear();
    let master_pos = dec_u32(r)?;
    let nr = dec_table_count(r)?;
    words.resize(2 * nr, 0);
    for i in 0..nr {
        words[i] = dec_node(r)?.raw();
        words[nr + i] = dec_u32(r)?;
    }
    let nm = dec_table_count(r)?;
    words.reserve_exact(nm);
    for _ in 0..nm {
        words.push(dec_node(r)?.raw());
    }
    *m = Locations::from_words(master_pos, nr, words);
    Ok(())
}

/// The three column totals of a full-state store, ahead of the store itself
/// so that a decoder sizes each column once.
pub(crate) fn enc_column_lens<S: Sink>(lens: ColumnLens, buf: &mut S) {
    for total in [lens.in_edges, lens.out_local, lens.out_remote] {
        enc_count(total, buf);
    }
}

/// Reads [`enc_column_lens`] back. Every column entry costs a byte of its
/// own, so each total — and their sum — is held to the input that remains:
/// what a caller reserves from them is within a constant of the input.
pub(crate) fn dec_column_lens(r: &mut Reader<'_>) -> Result<ColumnLens, DecodeError> {
    let lens = ColumnLens {
        in_edges: dec_count(r)?,
        out_local: dec_count(r)?,
        out_remote: dec_count(r)?,
    };
    if lens.total() > r.remaining() {
        return Err(DecodeError::Corrupt("column totals exceed input"));
    }
    Ok(lens)
}

/// The location tables of `m`, then the edge lists `lists` names, each
/// the run the engine defines for it ([`imitator_engine::Run`]): the
/// in-edges as `(weight, source)` — without the weight when the message
/// writes the one weight all of them have, `uniform`, once — then
/// `out_local_owner`, then `out_remote`. A list held as a run in the same
/// layout is copied, not re-encoded.
pub(crate) fn enc_lists<S: Sink>(
    m: FullStateRef<'_>,
    lists: EdgeLists,
    uniform: Option<f32>,
    buf: &mut S,
) {
    enc_locations(m.locations, buf);
    if lists.contains(EdgeLists::IN_EDGES) {
        m.in_edges.put(uniform, buf);
    }
    if lists.contains(EdgeLists::OUT_LOCAL) {
        m.out_local_owner.put(buf);
    }
    if lists.contains(EdgeLists::OUT_REMOTE) {
        m.out_remote.put(buf);
    }
}

/// The edge lists of one full state as [`dec_lists`] reads them: runs of
/// the input.
pub(crate) type Lists<'a> = (InEdges<'a>, List<'a, u32>, List<'a, RemoteEdge>);

/// Reads the edge lists [`enc_lists`] writes behind a full state's tables:
/// each list `lists` names is a run of the input, checked entry by entry
/// where it enters ([`take_run`]) and kept as it is; a list `lists` does not
/// name comes back empty.
pub(crate) fn dec_lists<'a>(
    r: &mut Reader<'a>,
    lists: EdgeLists,
    uniform: Option<f32>,
) -> Result<Lists<'a>, DecodeError> {
    let carried = |list| lists.contains(list);
    let mut decoded = Lists::default();
    if carried(EdgeLists::IN_EDGES) {
        decoded.0 = InEdges::Run(take_run::<InEdge>(r, uniform)?.0);
    }
    if carried(EdgeLists::OUT_LOCAL) {
        decoded.1 = List::Run(take_run::<u32>(r, uniform)?.0);
    }
    if carried(EdgeLists::OUT_REMOTE) {
        decoded.2 = List::Run(take_run::<RemoteEdge>(r, uniform)?.0);
    }
    Ok(decoded)
}

/// The full state `tables` and `lists` make up.
pub(crate) fn state_of<'a>(tables: &'a Locations, lists: Lists<'a>) -> FullStateRef<'a> {
    FullStateRef {
        locations: tables.view(),
        in_edges: lists.0,
        out_local_owner: lists.1,
        out_remote: lists.2,
    }
}

/// Where `node`'s metadata snapshot lives on the DFS, under the model's
/// prefix ("ec" / "vc").
pub(crate) fn meta_path(prefix: &str, node: NodeId) -> String {
    format!("{prefix}/meta/{}", node.raw())
}

/// The metadata snapshot of `lg`: the Rebirth batch that rebuilds it on an
/// empty graph of its own node ([`ComputeModel::place_reborn`]), as a
/// survivor's batch goes on the wire — every copy at its own position with
/// its kind, scatter bit, master node and value, a plain replica with its
/// consumers by vertex, a master and a mirror with its full state and all
/// three edge lists. What a batch does not carry, a reader takes from
/// elsewhere: the
/// activity bits from the initial state and the snapshot chain, a
/// vertex-cut node's edges from its edge-ckpt files.
pub(crate) fn encode_meta<M: ComputeModel>(model: &M, lg: &M::Graph) -> Vec<u8> {
    let (mut batch, mut held) = (RebirthBatch::new(0, 1), Vec::new());
    for pos in 0..lg.len() as u32 {
        let kind = lg.kind(pos);
        batch.records.push(Reborn {
            vid: lg.vid(pos),
            pos,
            kind,
            last_activate: model.scatter_bit(lg, pos),
            master_node: lg.master_node(pos),
            value: lg.value(pos).clone(),
        });
        if kind == CopyKind::Replica {
            let consumers = lg.consumers(pos);
            batch.replica_lists.push(consumers.len() as u32);
            batch.consumers.extend(consumers.iter().map(|&c| lg.vid(c)));
        } else {
            held.push((pos, EdgeLists::ALL));
        }
    }
    (batch.states, batch.lists) = lg.export_full_states(&held);
    // Sized once: the snapshot of a large partition is megabytes.
    let mut len = ByteCount::default();
    enc_batch::<_, M::Graph, _>(&batch, &mut len);
    let mut buf = Vec::with_capacity(len.0);
    enc_batch::<_, M::Graph, _>(&batch, &mut buf);
    buf
}

/// Writes `lg`'s metadata snapshot ([`encode_meta`]) as `node`'s.
pub(crate) fn write_meta<M: ComputeModel>(model: &M, dfs: &Dfs, lg: &M::Graph, node: NodeId) {
    dfs.write(&meta_path(M::PREFIX, node), encode_meta(model, lg));
}

/// Decodes a metadata snapshot.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input, and on input
/// left over behind the batch.
pub(crate) fn decode_meta<V: Decode, G: StoreCodec>(
    bytes: &[u8],
) -> Result<RebirthBatch<V>, DecodeError> {
    let mut r = Reader::new(bytes);
    let batch = dec_batch::<V, G>(&mut r)?;
    match r.remaining() {
        0 => Ok(batch),
        n => Err(DecodeError::TrailingBytes(n)),
    }
}

/// Under incremental checkpointing, every `FULL_EPOCH_PERIOD`-th epoch is a
/// self-contained full snapshot; the epochs between carry only the vertices
/// dirtied since the previous epoch. The periodic full epochs bound the
/// base+delta chain recovery must replay.
const FULL_EPOCH_PERIOD: u64 = 4;

/// The kind of the checkpoint epoch superstep `iter` ends under `ft`, if it
/// ends one — a pure function of the epoch number, so every node (and every
/// post-abort retry) agrees without coordination. The first epoch of a run
/// is always full.
pub(crate) fn epoch_ending(ft: FtMode, iter: u64) -> Option<EpochKind> {
    let epoch = iter + 1;
    match ft {
        FtMode::Checkpoint { interval, .. } if !epoch.is_multiple_of(interval) => None,
        FtMode::Checkpoint {
            interval,
            incremental: true,
        } if epoch / interval % FULL_EPOCH_PERIOD != 1 => Some(EpochKind::Delta),
        FtMode::Checkpoint { .. } => Some(EpochKind::Full),
        _ => None,
    }
}

/// Writes this node's part of the `kind` epoch superstep `st.iter` ends —
/// every master, or those dirtied since the last epoch — as one file: the
/// prepare step, inside the barrier window. Returns whether the node
/// survived: one that dies here ([`FailPoint::CkptWrite`]) leaves a torn
/// part and fails the barrier, so its epoch is never committed.
pub(crate) fn write_epoch_part<M: ComputeModel>(
    shared: &Shared<M>,
    me: NodeId,
    lg: &M::Graph,
    st: &mut St<M>,
    kind: EpochKind,
) -> bool {
    let sw = Stopwatch::start();
    // Either kind starts the next epoch's dirty set afresh: a full epoch is
    // a new base for the delta chain.
    let mut dirty = std::mem::take(&mut st.dirty);
    let dirty = match kind {
        EpochKind::Full => None,
        EpochKind::Delta => {
            // A stable sort merges the supersteps' ascending runs.
            dirty.sort();
            dirty.dedup();
            Some(&dirty[..])
        }
    };
    let (dfs, epoch) = (&shared.dfs, st.iter + 1);
    let bytes = lg.encode_snapshot(epoch, dirty);
    if shared
        .injector
        .should_fail(me, st.iter, FailPoint::CkptWrite)
    {
        epoch::write_part_torn(dfs, M::PREFIX, epoch, me.raw(), bytes);
        return false;
    }
    epoch::write_part(dfs, M::PREFIX, epoch, me.raw(), bytes);
    book_ckpt(st, sw);
    true
}

/// Commits the `kind` epoch that ended at superstep `st.iter`, once the
/// barrier after its parts returned clean, so every part has landed: the
/// leader writes its roster, the live nodes.
pub(crate) fn commit_epoch<M: ComputeModel>(
    shared: &Shared<M>,
    me: NodeId,
    st: &mut St<M>,
    kind: EpochKind,
) {
    if me != st.leader() {
        return;
    }
    let sw = Stopwatch::start();
    let live = st.alive.iter().enumerate().filter(|&(_, &alive)| alive);
    let members: Vec<u32> = live.map(|(n, _)| n as u32).collect();
    epoch::write_roster(&shared.dfs, M::PREFIX, st.iter, kind, &members);
    book_ckpt(st, sw);
}

/// Books a checkpoint write's time to the run's `ckpt` phase.
fn book_ckpt<T>(st: &mut NodeState<T>, sw: Stopwatch) {
    let d = sw.elapsed();
    st.ckpt_time += d;
    st.phases.record("ckpt", d);
}

/// `node`'s snapshot chain: its part of every epoch a rollback applies,
/// ascending — the newest committed full epoch, then every later committed
/// delta ([`epoch::recovery_chain`]) — or none while no committed epoch
/// lists the node.
///
/// # Panics
///
/// When a roster or part of the chain is missing or fails its trailer: a
/// node rolled back past its peers' epoch would silently diverge.
pub(crate) fn chain<M: ComputeModel>(dfs: &Dfs, node: NodeId) -> Vec<Sealed> {
    match epoch::recovery_chain(dfs, M::PREFIX, node.raw()) {
        Ok(chain) => chain.parts,
        Err(EpochError::NoCommittedEpoch { .. }) => Vec::new(),
        Err(torn) => panic!("{node} cannot roll back: {torn}"),
    }
}

/// Rolls `lg` back to the state its node's snapshot chain ([`chain`])
/// holds and returns its iteration: the initial state under the chain, or
/// alone while the chain is empty. A chain of deltas with no full base is
/// grounded at the initial state too. Every value and flag is written, so
/// an open episode images the value column first.
pub(crate) fn roll_back<M: ComputeModel>(
    shared: &Shared<M>,
    lg: &mut M::Graph,
    chain: &[Sealed],
) -> u64 {
    lg.touch_values();
    shared.model.reset_to_initial(lg, shared);
    let (prog, degrees) = (shared.model.prog(), &shared.degrees);
    let applied = chain
        .iter()
        .map(|part| lg.apply_snapshot(part, prog, degrees));
    applied.last().unwrap_or(0)
}

/// The positions of the masters among `verts`, ascending: what a data
/// snapshot covers.
fn master_positions<T>(verts: &[T], is_master: impl Fn(&T) -> bool) -> Vec<u32> {
    let positions = 0..verts.len() as u32;
    positions
        .filter(|&p| is_master(&verts[p as usize]))
        .collect()
}

/// Appends a position list: its length, then the positions as an ascending
/// delta column.
fn enc_positions(positions: &[u32], buf: &mut Vec<u8>) {
    enc_count(positions.len(), buf);
    enc_deltas(positions.iter().copied(), buf);
}

/// Reads [`enc_positions`] back, holding every position below `len`.
fn dec_positions(r: &mut Reader<'_>, len: usize) -> Result<Vec<u32>, DecodeError> {
    let n = dec_count(r)?;
    let positions = dec_deltas(r, n)?;
    if positions.iter().any(|&pos| pos as usize >= len) {
        return Err(DecodeError::Corrupt("snapshot position"));
    }
    Ok(positions)
}

/// Appends the activation flags of the copies at `positions`, two bits
/// apiece (`active`, `last_activate`), four copies to the byte.
fn enc_flags<V>(lg: &EcLocalGraph<V>, positions: &[u32], buf: &mut Vec<u8>) {
    let flags = positions.iter().map(|&pos| {
        let v = &lg.verts[pos as usize];
        u8::from(v.active) | u8::from(v.last_activate) << 1
    });
    enc_bits(2, flags, buf);
}

/// Reads [`enc_flags`] back into the copies at `positions`.
fn apply_flags<V>(
    lg: &mut EcLocalGraph<V>,
    positions: &[u32],
    r: &mut Reader<'_>,
) -> Result<(), DecodeError> {
    let bitmap = dec_bits(r, 2, positions.len())?;
    for (i, &pos) in positions.iter().enumerate() {
        let flags = bitmap.get(i);
        let v = &mut lg.verts[pos as usize];
        v.active = flags & 1 != 0;
        v.last_activate = flags & 2 != 0;
        v.next_active = false;
    }
    Ok(())
}

/// Encodes an edge-cut data snapshot: the iteration, then the masters at
/// `dirty` (ascending; `None`: every master) — position column, activation
/// flags, values — and, where `dirty` leaves masters out, a tail with their
/// position column and flags: the flags are cheap and may flip without a
/// value change (§2.3). A full snapshot is the delta whose dirty set is
/// every master, and has no tail.
pub fn encode_ec_snapshot<V: Encode>(
    lg: &EcLocalGraph<V>,
    iter: u64,
    dirty: Option<&[u32]>,
) -> Vec<u8> {
    let masters = master_positions(&lg.verts, EcVertex::is_master);
    let (dirty, clean) = match dirty {
        None => (&masters[..], Vec::new()),
        Some(dirty) => {
            let mut rest = dirty;
            let clean = masters.iter().copied().filter(|&p| {
                while rest.first().is_some_and(|&d| d < p) {
                    rest = &rest[1..];
                }
                rest.first() != Some(&p)
            });
            (dirty, clean.collect())
        }
    };
    let mut buf = Vec::new();
    enc_u64(iter, &mut buf);
    enc_positions(dirty, &mut buf);
    enc_flags(lg, dirty, &mut buf);
    for &pos in dirty {
        lg.verts[pos as usize].value.encode(&mut buf);
    }
    if !clean.is_empty() {
        enc_positions(&clean, &mut buf);
        enc_flags(lg, &clean, &mut buf);
    }
    buf
}

/// Applies an edge-cut data snapshot — one link of a chain, or a full one —
/// returning the iteration it was taken at. Values accumulate across links;
/// every link carries every master's flags, so the last applied link's win.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input.
pub fn apply_ec_snapshot<V: Decode>(
    lg: &mut EcLocalGraph<V>,
    bytes: &[u8],
) -> Result<u64, DecodeError> {
    let mut r = Reader::new(bytes);
    let iter = dec_u64(&mut r)?;
    let dirty = dec_positions(&mut r, lg.verts.len())?;
    apply_flags(lg, &dirty, &mut r)?;
    for &pos in &dirty {
        lg.verts[pos as usize].value = V::decode(&mut r)?;
    }
    if r.remaining() > 0 {
        let clean = dec_positions(&mut r, lg.verts.len())?;
        apply_flags(lg, &clean, &mut r)?;
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    lg.rebuild_active_frontier();
    Ok(iter)
}

/// Encodes a vertex-cut data snapshot: the iteration, then the masters at
/// `dirty` (ascending; `None`: every master) as a position column and their
/// values. The dense engine carries no activation state.
pub fn encode_vc_snapshot<V: Encode>(
    lg: &VcLocalGraph<V>,
    iter: u64,
    dirty: Option<&[u32]>,
) -> Vec<u8> {
    let masters;
    let dirty = match dirty {
        Some(dirty) => dirty,
        None => {
            masters = master_positions(&lg.verts, VcVertex::is_master);
            &masters
        }
    };
    let mut buf = Vec::new();
    enc_u64(iter, &mut buf);
    enc_positions(dirty, &mut buf);
    for &pos in dirty {
        lg.verts[pos as usize].value.encode(&mut buf);
    }
    buf
}

/// Applies a vertex-cut data snapshot — one link of a chain, or a full one —
/// returning its iteration.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input.
pub fn apply_vc_snapshot<V: Decode>(
    lg: &mut VcLocalGraph<V>,
    bytes: &[u8],
) -> Result<u64, DecodeError> {
    let mut r = Reader::new(bytes);
    let iter = dec_u64(&mut r)?;
    for pos in dec_positions(&mut r, lg.verts.len())? {
        lg.verts[pos as usize].value = V::decode(&mut r)?;
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(iter)
}

/// A local graph's data snapshot — of its masters' values and activity —
/// on which checkpointing and recovery are generic. Values are written as
/// their codec encodes them, so whatever is read back has every value
/// completed ([`VertexProgram::derive`]) before anyone reads it.
///
/// The decoder panics on bytes no encoder wrote: a recovery reads what this
/// run sealed, and the hostile-bytes tests hold the functions underneath.
pub(crate) trait SnapshotCodec: ModelGraph + Sized {
    /// The data snapshot of the masters at `dirty` (ascending), or of every
    /// master: a full snapshot is the delta whose dirty set is all of them.
    fn encode_snapshot(&self, iter: u64, dirty: Option<&[u32]>) -> Vec<u8>;
    /// Applies a data snapshot of either extent and returns its iteration.
    fn apply_snapshot<P>(&mut self, bytes: &[u8], prog: &P, degrees: &Degrees) -> u64
    where
        P: VertexProgram<Value = Self::Value>;
}

impl<V: Encode + Decode + Clone> SnapshotCodec for EcLocalGraph<V> {
    fn encode_snapshot(&self, iter: u64, dirty: Option<&[u32]>) -> Vec<u8> {
        encode_ec_snapshot(self, iter, dirty)
    }

    fn apply_snapshot<P>(&mut self, bytes: &[u8], prog: &P, degrees: &Degrees) -> u64
    where
        P: VertexProgram<Value = V>,
    {
        let iter = apply_ec_snapshot(self, bytes).expect("snapshot decodes");
        for v in &mut self.verts {
            prog.derive(v.vid, &mut v.value, degrees);
        }
        iter
    }
}

impl<V: Encode + Decode + Clone> SnapshotCodec for VcLocalGraph<V> {
    fn encode_snapshot(&self, iter: u64, dirty: Option<&[u32]>) -> Vec<u8> {
        encode_vc_snapshot(self, iter, dirty)
    }

    fn apply_snapshot<P>(&mut self, bytes: &[u8], prog: &P, degrees: &Degrees) -> u64
    where
        P: VertexProgram<Value = V>,
    {
        let iter = apply_vc_snapshot(self, bytes).expect("snapshot decodes");
        for v in &mut self.verts {
            prog.derive(v.vid, &mut v.value, degrees);
        }
        iter
    }
}

/// One section of an edge-ckpt file, written one edge at a time behind its
/// edge count: global `(src, dst, weight)` triples, IDs as two zigzag delta
/// columns interleaved per record (consecutive edges in a partition share
/// sources, so most steps are one byte) — into a [`ByteCount`] to size the
/// section, then into its bytes of the file.
#[derive(Clone, Default)]
struct EdgeCkptWriter<S> {
    out: S,
    edges: usize,
    prev_src: u32,
    prev_dst: u32,
}

impl<S: Sink> EdgeCkptWriter<S> {
    fn push(&mut self, src: Vid, dst: Vid, weight: f32) {
        self.edges += 1;
        enc_delta(src.raw(), &mut self.prev_src, &mut self.out);
        enc_delta(dst.raw(), &mut self.prev_dst, &mut self.out);
        weight.encode(&mut self.out);
    }
}

/// The edge-ckpt file a vertex-cut node persists: its edges in one section
/// per receiving node, section `r` for node `r` ([`join_sections`]), each
/// in edge-list order; a node that receives no edge has an empty section or
/// none. An edge goes to the node hosting the target's master, or to the
/// master's first mirror when the master is this very node (§4.3), so every
/// target's edges lie in one section. The receiver is looked up once per
/// local copy, not per edge. The sections are sized in a first pass, so
/// the file is allocated once at its length, and every edge is encoded into
/// its section's bytes of it in a second: no list of triples is grown, and
/// no section is copied into place.
///
/// # Panics
///
/// Panics if a local master that is an edge's target carries no location
/// tables.
pub fn edge_ckpt_file<V>(lg: &VcLocalGraph<V>) -> Vec<u8> {
    let me = lg.node;
    // Per copy, its vertex ID and the index of the node that receives the
    // edges it is the target of (`u32::MAX`: a local master without tables,
    // which no edge may point at): one small table both passes read.
    let copies: Vec<(Vid, u32)> = (0u32..)
        .zip(&lg.verts)
        .map(|(pos, v)| match lg.locations(pos) {
            _ if v.master_node != me => (v.vid, v.master_node.raw()),
            Some(t) => (v.vid, t.mirror_nodes().iter().next().unwrap_or(me).raw()),
            None => (v.vid, u32::MAX),
        })
        .collect();
    let edges = lg.edges.iter().map(|e| {
        let ((src, _), (dst, r)) = (copies[e.src as usize], copies[e.dst as usize]);
        (r as usize, src, dst, e.weight)
    });
    let mut sized: Vec<EdgeCkptWriter<ByteCount>> = Vec::new();
    for (r, src, dst, weight) in edges.clone() {
        assert!(r != u32::MAX as usize, "local master {dst} has meta");
        if r >= sized.len() {
            sized.resize(r + 1, Default::default());
        }
        sized[r].push(src, dst, weight);
    }
    // A section's length: its count, then its edges; nothing without edges.
    let len = |s: &EdgeCkptWriter<ByteCount>| match s.edges {
        0 => 0,
        n => uvarint_len(n as u64) + s.out.0,
    };
    let lens: Vec<usize> = sized.iter().map(len).collect();
    let body = lens.iter().sum();
    let mut file = Vec::with_capacity(SECTION_TABLE_ROOM * (lens.len() + 1) + body);
    file.resize(body, 0);
    let mut rest = &mut file[..];
    let mut sections = Vec::with_capacity(lens.len());
    for (s, &len) in sized.iter().zip(&lens) {
        let (mut out, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        if s.edges > 0 {
            enc_count(s.edges, &mut out);
        }
        sections.push(EdgeCkptWriter {
            out,
            ..Default::default()
        });
    }
    for (r, src, dst, weight) in edges {
        sections[r].push(src, dst, weight);
    }
    debug_assert!(sections.iter().all(|s| s.out.is_empty()), "sized exactly");
    join_sections(file, &lens)
}

/// Where `owner` keeps its edge-ckpt file on the DFS.
pub(crate) fn edge_ckpt_path(owner: NodeId) -> String {
    format!("vc/eckpt/{}", owner.raw())
}

/// Persists this node's edge-ckpt file ([`edge_ckpt_file`]), encoded here
/// from the graph as it stands and written behind the caller over the last.
pub(crate) fn persist_edge_ckpt<V>(lg: &VcLocalGraph<V>, dfs: &Dfs) -> WriteBehind {
    dfs.write_behind(edge_ckpt_path(lg.node), edge_ckpt_file(lg))
}

/// Decodes one section of an edge-ckpt file; an empty section holds no
/// edges.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input.
pub fn decode_edge_ckpt(bytes: &[u8]) -> Result<Vec<(Vid, Vid, f32)>, DecodeError> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut r = Reader::new(bytes);
    let n = dec_count(&mut r)?;
    let mut edges = Vec::with_capacity(n);
    let (mut prev_src, mut prev_dst) = (0u32, 0u32);
    for _ in 0..n {
        let s = Vid::new(dec_delta(&mut r, &mut prev_src)?);
        let d = Vid::new(dec_delta(&mut r, &mut prev_dst)?);
        edges.push((s, d, f32::decode(&mut r)?));
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(edges)
}

/// Decodes a whole edge-ckpt file section by section, in section order,
/// handing each section's edges to `take` before decoding the next: what
/// is held at once is one section's edges, not the file's.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the section table or a section is
/// truncated or corrupt; the sections before it were handed over.
pub fn decode_edge_ckpt_file(
    file: &[u8],
    mut take: impl FnMut(Vec<(Vid, Vid, f32)>),
) -> Result<(), DecodeError> {
    for section in locate_sections(file)? {
        take(decode_edge_ckpt(&file[section])?);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plan::{compute_ft_plan, ReplicaView};
    use crate::runner_ec::EcModel;
    use crate::runner_vc::VcModel;
    use imitator_engine::{
        build_edge_cut_graphs, build_vertex_cut_graphs, Degrees, FtPlan, MasterMeta,
    };
    use imitator_graph::{gen, Edge, Graph};
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Only "no committed epoch" is an empty chain, a rollback to the
    /// initial state. A committed epoch whose own part fails its trailer is
    /// a panic naming the file: the node's peers roll back to that epoch,
    /// and a node rolled back past it would diverge silently.
    #[test]
    #[should_panic(expected = "ec/ckpt/4/1")]
    fn a_torn_own_part_in_a_committed_epoch_is_loud() {
        type M = EcModel<P>;
        let dfs = Dfs::new(imitator_storage::DfsConfig::instant());
        let (zero, one) = (NodeId::new(0), NodeId::new(1));
        assert!(chain::<M>(&dfs, one).is_empty());
        epoch::write_part(&dfs, "ec", 4, 0, vec![4; 8]);
        epoch::write_part_torn(&dfs, "ec", 4, 1, vec![4; 8]);
        assert!(chain::<M>(&dfs, one).is_empty(), "uncommitted");
        epoch::write_roster(&dfs, "ec", 4, EpochKind::Full, &[0, 1]);
        assert_eq!(chain::<M>(&dfs, zero).len(), 1);
        chain::<M>(&dfs, one);
    }

    /// Location tables read back alone.
    pub(crate) fn dec_tables(bytes: &[u8]) -> Result<Locations, DecodeError> {
        let mut tables = Locations::default();
        dec_locations_into(&mut Reader::new(bytes), &mut tables).map(|()| tables)
    }

    pub(crate) struct P;
    impl imitator_engine::VertexProgram for P {
        type Value = f64;
        type Accum = f64;
        fn init(&self, vid: Vid, _d: &Degrees) -> f64 {
            f64::from(vid.raw())
        }
        fn gather(&self, _w: f32, s: &f64) -> f64 {
            *s
        }
        fn combine(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: Vid, old: &f64, acc: Option<f64>, _d: &Degrees) -> f64 {
            acc.unwrap_or(*old)
        }
        fn scatter(&self, _v: Vid, _o: &f64, _n: &f64) -> bool {
            true
        }
    }

    /// Small multigraphs: endpoints drawn modulo `n`, so self-loops and
    /// duplicate edges are common and short pair lists leave vertices
    /// isolated; every edge has its own weight.
    pub(crate) fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            1usize..48,
            proptest::collection::vec((any::<u32>(), any::<u32>()), 0..160),
        )
            .prop_map(|(n, pairs)| {
                let mut edges: Vec<Edge> = pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(a, b))| {
                        Edge::weighted(Vid::new(a % n as u32), Vid::new(b % n as u32), i as f32)
                    })
                    .collect();
                edges.push(Edge::weighted(Vid::new(0), Vid::new(0), -1.0));
                let again = edges[0];
                edges.push(again);
                Graph::from_edges(n, edges)
            })
    }

    /// `(parts, tolerance, selfish)`; tolerance `k` needs `k` other nodes.
    pub(crate) fn arb_shape() -> impl Strategy<Value = (usize, usize, bool)> {
        (1usize..=8, 0usize..=3, any::<bool>())
            .prop_map(|(parts, k, selfish)| (parts, k.min(parts - 1), selfish))
    }

    /// The plan the runners load with at tolerance `k` (none at 0).
    pub(crate) fn plan_for(g: &Graph, view: &dyn ReplicaView, k: usize, selfish: bool) -> FtPlan {
        if k == 0 {
            FtPlan::none(g.num_vertices())
        } else {
            compute_ft_plan(&Degrees::of(g), view, k, selfish, true, 0xF7)
        }
    }

    /// What the hostile-bytes tests do to an encoding.
    #[derive(Debug, Clone)]
    pub(crate) enum Damage {
        Truncate(usize),
        FlipBit(usize, u8),
        /// Copy `len` bytes from one offset into the buffer at another.
        Splice {
            from: usize,
            to: usize,
            len: usize,
        },
        /// Put the varint of a count past `u16::MAX` in a byte's place: a
        /// length field inflated beyond what any table or list may hold.
        Inflate(usize),
        /// The same with a count near 2^49: past anything an input can hold.
        InflateWide(usize),
    }

    pub(crate) fn arb_damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            any::<usize>().prop_map(Damage::Truncate),
            (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::FlipBit(at, bit)),
            (any::<usize>(), any::<usize>(), 1usize..24)
                .prop_map(|(from, to, len)| Damage::Splice { from, to, len }),
            any::<usize>().prop_map(Damage::Inflate),
        ]
    }

    pub(crate) fn damaged(mut bytes: Vec<u8>, damage: &[Damage]) -> Vec<u8> {
        for d in damage {
            if bytes.is_empty() {
                break;
            }
            let n = bytes.len();
            match *d {
                Damage::Truncate(at) => bytes.truncate(at % n),
                Damage::FlipBit(at, bit) => bytes[at % n] ^= 1 << bit,
                Damage::Splice { from, to, len } => {
                    let from = from % n;
                    let run = bytes[from..(from + len).min(n)].to_vec();
                    let to = to % n;
                    bytes.splice(to..to, run);
                }
                Damage::Inflate(at) => {
                    let at = at % n;
                    bytes.splice(at..=at, [0xFF, 0xFF, 0x07]);
                }
                Damage::InflateWide(at) => {
                    let at = at % n;
                    bytes.splice(at..=at, [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
                }
            }
        }
        bytes
    }

    proptest! {
        /// An edge-ckpt file is what a reborn node reloads from the DFS, and
        /// one of its sections what a Migration survivor does: damaged —
        /// anywhere in the file, in its section table alone, or in one
        /// section — it comes back as an error or as edges held in a
        /// constant times the input, never a panic, never a list sized by a
        /// count the input merely claims; and a section located in it lies
        /// inside it.
        #[test]
        fn hostile_edge_ckpt_bytes_never_panic(
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(arb_damage(), 1..4),
        ) {
            let cut = RandomVertexCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            let held = |edges: &Vec<(Vid, Vid, f32)>| {
                edges.capacity() * std::mem::size_of::<(Vid, Vid, f32)>()
            };
            for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
                let file = edge_ckpt_file(&lg);
                let sections = locate_sections(&file).expect("a written file locates");
                let table = sections.first().map_or(file.len(), |s| s.start);
                let mut bad_table = damaged(file[..table].to_vec(), &damage);
                bad_table.extend_from_slice(&file[table..]);
                for bad in [damaged(file.clone(), &damage), bad_table] {
                    if let Ok(sections) = locate_sections(&bad) {
                        let mut end = sections.first().map_or(bad.len(), |s| s.start);
                        for s in &sections {
                            prop_assert!(s.start == end && s.end >= s.start);
                            end = s.end;
                        }
                        prop_assert_eq!(end, bad.len());
                    }
                    let mut most = 0;
                    let _ = decode_edge_ckpt_file(&bad, |edges| most = most.max(held(&edges)));
                    prop_assert!(most <= 16 * bad.len());
                }
                for section in sections {
                    let bad = damaged(file[section].to_vec(), &damage);
                    if let Ok(edges) = decode_edge_ckpt(&bad) {
                        prop_assert!(held(&edges) <= 16 * bad.len());
                    }
                }
            }
        }
    }

    /// A table claiming more replicas, or more mirrors, than a slot's head can
    /// count is a typed error — with every claimed byte present, so that it
    /// is the table's limit that refuses it and not the input's length.
    #[test]
    fn a_table_past_u16_max_is_a_decode_error() {
        // Master position 7, then `replicas` (node, position) pairs and
        // `mirrors` nodes, all zero: one byte each.
        let table = |replicas: usize, mirrors: usize| {
            let mut bytes = vec![7];
            enc_count(replicas, &mut bytes);
            bytes.resize(bytes.len() + 2 * replicas, 0);
            enc_count(mirrors, &mut bytes);
            bytes.resize(bytes.len() + mirrors, 0);
            dec_tables(&bytes)
        };
        let refused = Err(DecodeError::Corrupt("location table count"));
        assert_eq!(table(MAX_TABLE_NODES + 1, 0), refused);
        assert_eq!(table(0, MAX_TABLE_NODES + 1), refused);
        let most = table(0, MAX_TABLE_NODES).unwrap();
        assert_eq!(most.view().mirror_nodes().len(), MAX_TABLE_NODES);
    }

    /// FNV-1a over a byte string.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Loader-built graphs' metadata snapshots encode to the recorded bytes,
    /// without fault tolerance and with one and two mirrors a vertex: the
    /// items of every list, and their order, are pinned. What the snapshots
    /// wrote before, each a smaller one than the last, stays beside them:
    /// while a remote out-edge named its consumer's node and position, while
    /// every in-edge also wrote its source's position, and what the
    /// graph codec wrote until a snapshot became the batch that rebuilds its
    /// graph (a batch writes every in-edge's source but a uniform weight
    /// once).
    #[test]
    fn loader_built_graphs_encode_to_the_recorded_bytes() {
        const RECORDED: [[(usize, u64); 4]; 3] = [
            [
                (0xfed9, 0xc3b5_becd_9bd1_76e1),
                (0xfc72, 0x8428_afa0_30d4_2ab7),
                (0x10628, 0x0a42_a0b3_d4aa_22fd),
                (0x10069, 0x2060_1801_7cd7_9484),
            ],
            [
                (0x180f4, 0x040a_577f_b842_a46d),
                (0x17ddd, 0xefcf_4d29_bc39_79ad),
                (0x1836b, 0xaa7e_5314_27d5_0cac),
                (0x18267, 0xfcc5_7797_a7ca_5425),
            ],
            [
                (0x21681, 0x5070_99bf_da38_53d1),
                (0x219f3, 0x4fdf_90aa_e780_7cf0),
                (0x2183c, 0xbf65_2d4e_8c50_08f3),
                (0x21d2b, 0xf725_e120_6ab9_429f),
            ],
        ];
        /// While a remote out-edge named its consumer by node and position
        /// there, and a plain replica's consumer by its position.
        const WITH_CONSUMER_POSITIONS: [[(usize, u64); 4]; 3] = [
            [
                (0x10f79, 0x05f4_d4cf_bf3d_4f0f),
                (0x10c64, 0x8bc6_73fa_cc6f_9966),
                (0x1181b, 0x8e3e_cbaf_c651_49d0),
                (0x110e6, 0xde0e_61d0_34e0_3ae5),
            ],
            [
                (0x1a346, 0xbae3_717d_1eb4_c0cb),
                (0x19f7c, 0x062d_83e6_6597_d14f),
                (0x1a673, 0xe895_fb28_5e1b_eb77),
                (0x1a453, 0x3993_735e_5b3b_013e),
            ],
            [
                (0x248ef, 0x0ede_fb0d_fafa_c828),
                (0x24e0c, 0xf24f_0a83_2465_8fb6),
                (0x24c12, 0x24e2_e897_ddc6_16c1),
                (0x25203, 0xebf1_c264_16af_92e8),
            ],
        ];
        /// While an in-edge wrote its source's owner-local position beside
        /// its vertex ID, and a store announced a fourth column total.
        const WITH_POSITIONS: [[(usize, u64); 4]; 3] = [
            [
                (0x13c7a, 0x231d_1adf_4872_7958),
                (0x1389c, 0xdd54_f7c6_6c76_f086),
                (0x14790, 0x7fa0_5990_62ae_4efe),
                (0x13eb5, 0x554f_17da_cdf4_d63b),
            ],
            [
                (0x1fe3e, 0xb67f_22be_e4b5_1189),
                (0x1f941, 0x5ec8_e520_9264_3edb),
                (0x201e1, 0x130b_70c6_dc79_5d31),
                (0x20172, 0x9288_6b2f_7692_32a8),
            ],
            [
                (0x2d224, 0x428a_0420_c8d5_5a3b),
                (0x2d71b, 0x6af7_6ac8_555f_e75c),
                (0x2d483, 0x9513_834b_b100_2bf8),
                (0x2dd20, 0xbfa4_8c9d_6799_0b3e),
            ],
        ];
        /// The graph codec's: copy after copy, its kind and flags in a
        /// byte, its two edge lists with a weight per in-edge, then its full
        /// state, a master's without the lists its copy already carried.
        const GRAPH_CODEC: [[(usize, u64); 4]; 3] = [
            [
                (0x16b02, 0xeef5_2fc4_cf33_4434),
                (0x1661d, 0x7e61_d1d4_fbe9_b265),
                (0x178bd, 0xfa11_d036_106a_e409),
                (0x16e3a, 0x3315_b3ab_a09f_4744),
            ],
            [
                (0x29a28, 0x50be_8112_a7fc_0a96),
                (0x29324, 0xe2d8_3989_9c4c_76ff),
                (0x29ca3, 0xeeac_070b_86c4_a521),
                (0x2a1a5, 0xec97_4337_455c_fc94),
            ],
            [
                (0x3d8bf, 0xb393_e8ae_71c1_bb01),
                (0x3dee5, 0x4938_3f3a_918a_c3a4),
                (0x3d871, 0x5a13_d10e_7cb9_fbae),
                (0x3e8e4, 0x2211_a753_eaea_03e0),
            ],
        ];
        let g = gen::power_law_selfish(3_000, 2.0, 8, 0.2, 11);
        let cut = HashEdgeCut.partition(&g, 4);
        let d = Degrees::of(&g);
        let model = EcModel { prog: Arc::new(P) };
        for (k, recorded) in RECORDED.iter().enumerate() {
            let plan = plan_for(&g, &cut, k, true);
            let lgs = build_edge_cut_graphs(&g, &cut, &plan, &P, &d);
            let encoded = lgs.iter().map(|lg| {
                let bytes = encode_meta(&model, lg);
                (bytes.len(), fnv(&bytes))
            });
            assert!(encoded.eq(recorded.iter().copied()), "K = {k}");
            let history = [
                &WITH_CONSUMER_POSITIONS[k],
                &WITH_POSITIONS[k],
                &GRAPH_CODEC[k],
            ];
            for before in history {
                assert!(
                    recorded.iter().zip(before).all(|(now, was)| now.0 < was.0),
                    "K = {k}: a snapshot grew"
                );
            }
        }
    }

    /// A loaded mirror keeps its edge lists as the bytes [`enc_lists`]
    /// writes for them, empty ones included, in either weight layout: on a
    /// graph whose edges all weigh the same that weight is written nowhere,
    /// on a weighted one beside every in-edge.
    #[test]
    fn a_mirror_stores_the_runs_enc_lists_writes() {
        let graphs = [
            (gen::power_law(400, 2.0, 6, 3), true),
            (gen::road_like(400, 5), false),
        ];
        for (g, unweighted) in graphs {
            let cut = HashEdgeCut.partition(&g, 3);
            let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, false, true, 0xF7);
            let d = Degrees::of(&g);
            for lg in build_edge_cut_graphs(&g, &cut, &plan, &P, &d) {
                let uniform = lg.full_state_weights().uniform();
                assert_eq!(uniform.is_some(), unweighted);
                let mirrors =
                    (0..lg.len() as u32).filter(|&p| lg.verts[p as usize].kind == CopyKind::Mirror);
                for pos in mirrors {
                    let state = lg.full_state(pos).unwrap();
                    let mut wire = Vec::new();
                    enc_lists(state.to_meta().view(), EdgeLists::ALL, uniform, &mut wire);
                    let (InEdges::Run(ins), List::Run(fed), List::Run(remote)) =
                        (state.in_edges, state.out_local_owner, state.out_remote)
                    else {
                        panic!("a mirror keeps its lists as a block");
                    };
                    let mut stored = Vec::new();
                    enc_locations(state.locations, &mut stored);
                    for run in [ins, fed, remote] {
                        stored.extend_from_slice(run.bytes());
                    }
                    assert_eq!(stored, wire, "mirror at {pos} on {}", lg.node);
                }
            }
        }
    }

    /// What a master exports is the full state the loaders used to build
    /// and box for it — derived here from the input graph alone — byte for
    /// byte on the wire, although its slot stores neither owner-local list.
    #[test]
    fn a_master_exports_the_full_state_it_used_to_store() {
        let g = gen::power_law(300, 2.0, 6, 21);
        let cut = HashEdgeCut.partition(&g, 4);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 2, false, true, 0xF7);
        let d = Degrees::of(&g);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &P, &d);
        for (p, lg) in lgs.iter().enumerate() {
            let mirrors = lg.verts.iter().filter(|v| v.kind == CopyKind::Mirror);
            let mirrored: usize = mirrors
                .map(|v| {
                    let owner = &lgs[v.master_node.index()];
                    let master = owner.position(v.vid).expect("a mirror has a master");
                    owner.in_edges(master).len()
                })
                .sum();
            assert_eq!(lg.full_state_entries().in_edges, mirrored, "mirrors' only");
            for pos in lg.master_positions() {
                let v = lg.verts[pos as usize].vid;
                let mut want = MasterMeta {
                    locations: lg.locations(pos).unwrap().to_owned(),
                    ..MasterMeta::default()
                };
                for e in g.edges() {
                    if e.dst == v {
                        let (weight, src) = (e.weight, e.src);
                        want.in_edges.push(InEdge { weight, src });
                    }
                    if e.src == v && cut.owner(e.dst) == p {
                        want.out_local_owner.push(lg.position(e.dst).unwrap());
                    } else if e.src == v {
                        want.out_remote.push(RemoteEdge { consumer: e.dst });
                    }
                }
                let (mut ours, mut theirs) = (Vec::new(), Vec::new());
                enc_lists(lg.full_state(pos).unwrap(), EdgeLists::ALL, None, &mut ours);
                enc_lists(want.view(), EdgeLists::ALL, None, &mut theirs);
                assert_eq!(ours, theirs, "{v} on node {p}");
            }
        }
    }

    /// A metadata snapshot is allocated once, at the length it encodes to.
    #[test]
    fn a_metadata_snapshot_is_sized_once() {
        let g = gen::power_law(5_000, 2.0, 10, 3);
        let d = Degrees::of(&g);
        let cut = HashEdgeCut.partition(&g, 4);
        let plan = compute_ft_plan(&d, &cut, 1, true, true, 0xF7);
        let model = EcModel { prog: Arc::new(P) };
        for lg in build_edge_cut_graphs(&g, &cut, &plan, &P, &d) {
            let bytes = encode_meta(&model, &lg);
            assert_eq!(bytes.capacity(), bytes.len(), "edge-cut");
        }
        let cut = RandomVertexCut.partition(&g, 4);
        let plan = compute_ft_plan(&d, &cut, 1, true, true, 0xF7);
        let model = VcModel { prog: Arc::new(P) };
        for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
            let bytes = encode_meta(&model, &lg);
            assert_eq!(bytes.capacity(), bytes.len(), "vertex-cut");
        }
    }

    #[test]
    fn ec_snapshot_roundtrips_masters_only() {
        let g = gen::power_law(200, 2.0, 5, 5);
        let cut = HashEdgeCut.partition(&g, 2);
        let plan = FtPlan::none(g.num_vertices());
        let d = Degrees::of(&g);
        let mut lgs = build_edge_cut_graphs(&g, &cut, &plan, &P, &d);
        // mutate masters, snapshot, wreck, restore
        for v in lgs[0].verts.iter_mut().filter(|v| v.is_master()) {
            v.value = 42.0;
        }
        let snap = encode_ec_snapshot(&lgs[0], 7, None);
        for v in lgs[0].verts.iter_mut() {
            v.value = -1.0;
        }
        let iter = apply_ec_snapshot(&mut lgs[0], &snap).unwrap();
        assert_eq!(iter, 7);
        for v in &lgs[0].verts {
            if v.is_master() {
                assert_eq!(v.value, 42.0);
            } else {
                assert_eq!(v.value, -1.0); // replicas untouched
            }
        }
    }

    #[test]
    fn vc_snapshot_roundtrips() {
        let g = gen::power_law(150, 2.0, 4, 11);
        let cut = RandomVertexCut.partition(&g, 3);
        let plan = FtPlan::none(g.num_vertices());
        let d = Degrees::of(&g);
        let mut lgs = build_vertex_cut_graphs(&g, &cut, &plan, &P, &d);
        let snap = encode_vc_snapshot(&lgs[1], 3, None);
        for v in lgs[1].verts.iter_mut() {
            v.value = -5.0;
        }
        assert_eq!(apply_vc_snapshot(&mut lgs[1], &snap).unwrap(), 3);
        for v in lgs[1].verts.iter().filter(|v| v.is_master()) {
            assert_eq!(v.value, f64::from(v.vid.raw()));
        }
    }

    #[test]
    fn ec_sparse_incremental_snapshot_is_smaller_and_roundtrips() {
        let g = gen::power_law(200, 2.0, 5, 5);
        let cut = HashEdgeCut.partition(&g, 2);
        let plan = FtPlan::none(g.num_vertices());
        let d = Degrees::of(&g);
        let mut lgs = build_edge_cut_graphs(&g, &cut, &plan, &P, &d);
        let full = encode_ec_snapshot(&lgs[0], 3, None);
        let masters = master_positions(&lgs[0].verts, EcVertex::is_master);
        // A full snapshot is the delta whose dirty set is every master.
        assert_eq!(encode_ec_snapshot(&lgs[0], 3, Some(&masters)), full);
        // Sparse update: only three masters moved since the last epoch.
        let dirty = masters[..3].to_vec();
        for &pos in &dirty {
            lgs[0].verts[pos as usize].value = 42.0;
        }
        let inc = encode_ec_snapshot(&lgs[0], 4, Some(&dirty));
        assert!(
            inc.len() < full.len(),
            "sparse delta ({} B) must undercut the full snapshot ({} B)",
            inc.len(),
            full.len()
        );
        // Chain full + delta onto a wrecked graph: dirty values come from the
        // delta, the rest from the base.
        let mut target = build_edge_cut_graphs(&g, &cut, &plan, &P, &d).remove(0);
        for v in target.verts.iter_mut() {
            v.value = -1.0;
        }
        assert_eq!(apply_ec_snapshot(&mut target, &full).unwrap(), 3);
        assert_eq!(apply_ec_snapshot(&mut target, &inc).unwrap(), 4);
        for (v, want) in target.verts.iter().zip(&lgs[0].verts) {
            if v.is_master() {
                assert_eq!(
                    (v.value, v.active, v.last_activate),
                    (want.value, want.active, want.last_activate)
                );
            } else {
                assert_eq!(v.value, -1.0); // replicas untouched by data snapshots
            }
        }
    }

    #[test]
    fn vc_sparse_incremental_snapshot_is_smaller_and_roundtrips() {
        let g = gen::power_law(200, 2.0, 5, 7);
        let cut = RandomVertexCut.partition(&g, 3);
        let plan = FtPlan::none(g.num_vertices());
        let d = Degrees::of(&g);
        let mut lgs = build_vertex_cut_graphs(&g, &cut, &plan, &P, &d);
        let full = encode_vc_snapshot(&lgs[1], 3, None);
        let masters = master_positions(&lgs[1].verts, VcVertex::is_master);
        assert_eq!(encode_vc_snapshot(&lgs[1], 3, Some(&masters)), full);
        let dirty = masters[..2].to_vec();
        for &pos in &dirty {
            lgs[1].verts[pos as usize].value = 9.0;
        }
        let inc = encode_vc_snapshot(&lgs[1], 4, Some(&dirty));
        assert!(
            inc.len() < full.len(),
            "sparse delta ({} B) must undercut the full snapshot ({} B)",
            inc.len(),
            full.len()
        );
        let mut target = build_vertex_cut_graphs(&g, &cut, &plan, &P, &d).remove(1);
        for v in target.verts.iter_mut() {
            v.value = -5.0;
        }
        assert_eq!(apply_vc_snapshot(&mut target, &full).unwrap(), 3);
        assert_eq!(apply_vc_snapshot(&mut target, &inc).unwrap(), 4);
        for (v, want) in target.verts.iter().zip(&lgs[1].verts) {
            if v.is_master() {
                assert_eq!(v.value, want.value);
            }
        }
    }

    /// An edge-ckpt section as it was encoded from a list of triples,
    /// before [`EdgeCkptWriter`] took the edges one at a time.
    fn encode_edge_ckpt(edges: &[(Vid, Vid, f32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        enc_count(edges.len(), &mut buf);
        let (mut prev_src, mut prev_dst) = (0u32, 0u32);
        for &(s, d, w) in edges {
            enc_delta(s.raw(), &mut prev_src, &mut buf);
            enc_delta(d.raw(), &mut prev_dst, &mut buf);
            w.encode(&mut buf);
        }
        buf
    }

    #[test]
    fn edge_ckpt_roundtrips() {
        let edges = vec![
            (Vid::new(0), Vid::new(1), 1.5),
            (Vid::new(7), Vid::new(3), -2.0),
        ];
        let mut buf = Vec::new();
        enc_count(edges.len(), &mut buf);
        let mut section = EdgeCkptWriter {
            out: buf,
            ..Default::default()
        };
        for &(s, d, w) in &edges {
            section.push(s, d, w);
        }
        let buf = section.out;
        assert_eq!(buf, encode_edge_ckpt(&edges));
        assert_eq!(decode_edge_ckpt(&buf).unwrap(), edges);
        assert_eq!(decode_edge_ckpt(&[]).unwrap(), [], "an empty section");
        let first = encode_edge_ckpt(&edges[1..]);
        let lens = [first.len(), 0, buf.len()];
        let file = join_sections([first, buf].concat(), &lens);
        let mut sections = Vec::new();
        decode_edge_ckpt_file(&file, |edges| sections.push(edges)).unwrap();
        assert_eq!(sections, [edges[1..].to_vec(), vec![], edges]);
    }

    /// The one file a vertex-cut node writes holds, section for section and
    /// byte for byte, what grouping its edges by receiver in a map of triple
    /// lists and encoding each list produces — section `r` for receiver
    /// `r`, empty for a node that receives nothing — and every target's
    /// edges lie in exactly one section.
    #[test]
    fn edge_ckpt_sections_equal_the_grouped_lists() {
        use std::collections::HashMap;
        let g = gen::power_law_selfish(1_500, 2.0, 7, 0.2, 9);
        let cut = RandomVertexCut.partition(&g, 5);
        let d = Degrees::of(&g);
        for k in 1..=2 {
            let plan = plan_for(&g, &cut, k, true);
            for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
                let me = lg.node;
                let dfs = imitator_storage::Dfs::new(imitator_storage::DfsConfig::instant());
                persist_edge_ckpt(&lg, &dfs).wait();
                assert_eq!(dfs.list("vc/eckpt/"), [edge_ckpt_path(me)], "k={k}");
                assert_eq!(dfs.stats().writes.messages, 1, "k={k}: one write");
                let mut per_receiver: HashMap<NodeId, Vec<(Vid, Vid, f32)>> = HashMap::new();
                for e in &lg.edges {
                    let src = lg.verts[e.src as usize].vid;
                    let dst_v = &lg.verts[e.dst as usize];
                    let receiver = if dst_v.master_node != me {
                        dst_v.master_node
                    } else {
                        let mirrors = lg.locations(e.dst).unwrap().mirror_nodes();
                        mirrors.iter().next().unwrap_or(dst_v.master_node)
                    };
                    let edges = per_receiver.entry(receiver).or_default();
                    edges.push((src, dst_v.vid, e.weight));
                }
                assert!(
                    per_receiver.len() > 1,
                    "k={k}: {me} feeds several receivers"
                );
                let file = dfs.read(&edge_ckpt_path(me)).expect("written");
                let sections = locate_sections(&file).unwrap();
                let mut sections_of: HashMap<Vid, Vec<usize>> = HashMap::new();
                for r in 0..5 {
                    let edges = per_receiver.get(&NodeId::from_index(r));
                    let want = edges.map_or_else(Vec::new, |edges| encode_edge_ckpt(edges));
                    let got = sections.get(r).map_or(&[][..], |s| &file[s.clone()]);
                    assert_eq!(got, want, "k={k}: section {r} of {me}");
                    for (_, dst, _) in decode_edge_ckpt(got).unwrap() {
                        let of = sections_of.entry(dst).or_default();
                        if of.last() != Some(&r) {
                            of.push(r);
                        }
                    }
                }
                assert!(sections.len() <= 5, "k={k}: no section past the last node");
                assert!(
                    sections_of.values().all(|of| of.len() == 1),
                    "k={k}: a target's edges lie in one section"
                );
                assert_eq!(sections_of.len(), {
                    let mut targets: Vec<u32> = lg.edges.iter().map(|e| e.dst).collect();
                    targets.sort_unstable();
                    targets.dedup();
                    targets.len()
                });
            }
        }
    }

    #[test]
    fn varint_snapshots_undercut_fixed_width() {
        // The scalar codec spent 4 bytes per position and 1 per flag; the
        // varint columns must beat ⌈n·(4+1) / (1 + 2/8)⌉ comfortably. Pin the
        // ratio loosely so codec tweaks don't thrash the test.
        let g = gen::power_law(400, 2.0, 6, 13);
        let cut = HashEdgeCut.partition(&g, 2);
        let plan = FtPlan::none(g.num_vertices());
        let d = Degrees::of(&g);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &P, &d);
        let masters = lgs[0].num_masters();
        let snap = encode_ec_snapshot(&lgs[0], 1, None);
        // 8 B value per master + ~1 B position delta + 2 bits of flags,
        // against the old 4 B position + 2 B bools.
        let old_layout = 8 + 4 + (masters as u64) * (4 + 8 + 2);
        assert!(
            (snap.len() as u64) < old_layout,
            "varint snapshot {} B must undercut fixed layout {} B",
            snap.len(),
            old_layout
        );
    }

    /// Truncated files and garbage are errors: an edge-ckpt section cut
    /// short, a metadata snapshot cut short or run on, and an edge-ckpt
    /// section read as a snapshot.
    #[test]
    fn corrupt_snapshot_is_rejected() {
        let bytes = encode_edge_ckpt(&[(Vid::new(0), Vid::new(1), 1.0)]);
        assert!(decode_edge_ckpt(&bytes[..bytes.len() - 1]).is_err());
        let mut garbage = vec![0u8; 3];
        garbage.extend_from_slice(&bytes);
        assert!(decode_meta::<f64, EcLocalGraph<f64>>(&garbage).is_err());
        let g = gen::power_law(200, 2.0, 5, 5);
        let (d, cut) = (Degrees::of(&g), HashEdgeCut.partition(&g, 2));
        let lg = build_edge_cut_graphs(&g, &cut, &FtPlan::none(200), &P, &d).remove(0);
        let mut meta = encode_meta(&EcModel { prog: Arc::new(P) }, &lg);
        assert!(decode_meta::<f64, EcLocalGraph<f64>>(&meta).is_ok());
        assert!(decode_meta::<f64, EcLocalGraph<f64>>(&meta[..meta.len() - 1]).is_err());
        meta.push(0);
        let trailing = decode_meta::<f64, EcLocalGraph<f64>>(&meta);
        assert_eq!(trailing.err(), Some(DecodeError::TrailingBytes(1)));
    }
}
