//! Snapshot encoding for checkpoint-based fault tolerance and edge-ckpt
//! files (§2.2, §4.3).
//!
//! Three kinds of DFS content:
//!
//! * **metadata snapshots** — one per node, written after loading: the
//!   immutable local graph topology (vertex copies, positions, edges, full
//!   state), from which a replacement node reconstructs the crashed node's
//!   layout;
//! * **data snapshots** — one per node per checkpoint: the masters' mutable
//!   state (value + activity), written inside the global barrier;
//! * **edge-ckpt files** — vertex-cut only: each node's owned edges, split
//!   into one file per potential receiver so Migration can reload them in
//!   parallel (§4.3).
//!
//! Integers that scale with the graph — vertex IDs, node IDs, array
//! positions, counts — are LEB128 varints ([`crate::columns`], the
//! primitives the wire messages use too), and the position columns of data
//! snapshots are zigzag varints of the step from the previous position
//! (ascending master scans make most steps one byte). Per-master activation
//! flags pack two bits apiece into a bitmap. Values keep their codec
//! encoding unchanged. Checkpoint payloads shrink several-fold; decoding
//! stays strict (trailing bytes and out-of-range positions are errors).

use imitator_cluster::NodeId;
use imitator_engine::{
    take_run, ColumnLens, CopyKind, Degrees, EcLocalGraph, EcVertex, EdgeLists, FullStateRef,
    InEdge, InEdges, List, Locations, LocationsRef, RemoteEdge, StoreLens, VcEdge, VcLocalGraph,
    VcVertex, VertexProgram, MAX_TABLE_NODES,
};
use imitator_graph::{PosIndex, Vid};
use imitator_storage::codec::{Decode, DecodeError, Encode, Reader, Sink};
use imitator_storage::{Dfs, WriteBehind};

use crate::columns::{
    dec_bits, dec_count, dec_delta, dec_deltas, dec_node, dec_u32, dec_u64, enc_bits, enc_count,
    enc_delta, enc_deltas, enc_node, enc_u32, enc_u64,
};
use crate::driver::ModelGraph;

/// An edge-cut copy's kind and flags in one byte, as a graph snapshot writes
/// them: kind (2 bits) | active | last_activate | has full state.
fn ec_copy_flags(kind: CopyKind, active: bool, last_activate: bool, meta: bool) -> u8 {
    kind.bits() | u8::from(active) << 2 | u8::from(last_activate) << 3 | u8::from(meta) << 4
}

/// Reads a copy's flag byte of `width` bits — its kind in the low two, then
/// flags — rejecting a higher bit set or a kind no copy has.
fn dec_copy_flags(r: &mut Reader<'_>, width: u32) -> Result<(CopyKind, u8), DecodeError> {
    let flags = r.take(1)?[0];
    if flags >> width != 0 {
        return Err(DecodeError::Corrupt("vertex flags"));
    }
    let kind = CopyKind::from_bits(flags & 0b11).ok_or(DecodeError::Corrupt("copy kind"))?;
    Ok((kind, flags))
}

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

/// The four column totals of a full-state store, ahead of the store itself
/// so that a decoder sizes each column once.
pub(crate) fn enc_column_lens<S: Sink>(lens: ColumnLens, buf: &mut S) {
    for total in [lens.in_edges, lens.in_srcs, lens.out_local, lens.out_remote] {
        enc_count(total, buf);
    }
}

/// Reads [`enc_column_lens`] back. Every column entry costs a byte of its
/// own, so each total — and their sum — is held to the input that remains:
/// what a caller reserves from them is within a constant of the input.
pub(crate) fn dec_column_lens(r: &mut Reader<'_>) -> Result<ColumnLens, DecodeError> {
    let lens = ColumnLens {
        in_edges: dec_count(r)?,
        in_srcs: dec_count(r)?,
        out_local: dec_count(r)?,
        out_remote: dec_count(r)?,
    };
    if lens.total() > r.remaining() {
        return Err(DecodeError::Corrupt("column totals exceed input"));
    }
    Ok(lens)
}

/// Decodes a list into `out`, which it empties first and sizes once.
fn dec_list_into<T>(
    r: &mut Reader<'_>,
    out: &mut Vec<T>,
    dec: impl Fn(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<(), DecodeError> {
    let n = dec_count(r)?;
    out.clear();
    out.reserve_exact(n);
    for _ in 0..n {
        out.push(dec(r)?);
    }
    Ok(())
}

/// An edge-cut mirror's full state as a graph snapshot writes it: all of it.
fn enc_meta<S: Sink>(m: FullStateRef<'_>, buf: &mut S) {
    enc_lists(m, EdgeLists::ALL, None, buf);
}

/// The location tables of `m`, then the edge lists `lists` names, each
/// the run the engine defines for it ([`imitator_engine::Run`]): the
/// in-edges as `(position, weight, source)` — without the weight when the
/// message writes the one weight all of them have, `uniform`, once — then
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

/// An edge-cut copy's two edge lists as a graph snapshot carries them:
/// in-edges as `(source position, weight)`, then local out-edge targets.
fn enc_edge_lists<S: Sink>(in_edges: &[(u32, f32)], out_local: &[u32], buf: &mut S) {
    enc_count(in_edges.len(), buf);
    for &(s, w) in in_edges {
        enc_u32(s, buf);
        w.encode(buf);
    }
    enc_count(out_local.len(), buf);
    for &t in out_local {
        enc_u32(t, buf);
    }
}

/// Reads [`enc_edge_lists`] back into the two lists, reusing them.
fn dec_edge_lists_into(
    r: &mut Reader<'_>,
    in_edges: &mut Vec<(u32, f32)>,
    out_local: &mut Vec<u32>,
) -> Result<(), DecodeError> {
    dec_list_into(r, in_edges, |r| Ok((dec_u32(r)?, f32::decode(r)?)))?;
    dec_list_into(r, out_local, dec_u32)
}

/// Bytes a varint position, vertex ID or list length usually takes in a
/// graph snapshot (graphs up to 2M copies per node) — sizing only.
const HINT_VARINT: usize = 3;

/// Roughly what [`encode_ec_graph`] will write, from the list lengths alone:
/// the buffer is allocated once at about its final size instead of regrowing
/// to ~10 MB by doubling. A low guess only costs a regrow.
fn ec_graph_size_hint<V>(lg: &EcLocalGraph<V>) -> usize {
    let fixed = 4 * HINT_VARINT + 2 + std::mem::size_of::<V>();
    let edge = HINT_VARINT + 4;
    // Edge lists and full state from the columns' lengths: a few location
    // entries and list headers per slot, the mirrors' runs as they are — and
    // a weight per in-edge, if they write none — then the masters' remote
    // out-edges.
    let (in_edges, out_local) = lg.edge_list_lens();
    let copies = fixed * lg.len() + edge * in_edges + HINT_VARINT * out_local;
    let StoreLens {
        slots,
        runs,
        remote,
        ..
    } = lg.full_state_lens();
    let weights = match lg.full_state_weights().uniform() {
        Some(_) => 4 * lg.full_state_entries().in_edges,
        None => 0,
    };
    copies + (8 * HINT_VARINT + 3) * slots + runs + weights + (HINT_VARINT + 1) * remote
}

/// Encodes an edge-cut local graph (topology + current state) as a
/// metadata snapshot — every field but `next_active`, which is false
/// whenever a graph is encoded (load, and between supersteps: `ec_commit`
/// clears it before returning) and decodes as false.
///
/// Full state is written as the graph stores it: a mirror's whole (the
/// message form, [`enc_meta`], its runs copied — but for the weight a
/// uniform store leaves out, which a snapshot writes per in-edge), a
/// master's without the two lists that are its own in-edges and consumers,
/// already written, and without the sources its in-edges name through the
/// copies, written too. The format is internal — undo buffers and the
/// `ec/meta/<node>` files of one run.
pub fn encode_ec_graph<V: Encode>(lg: &EcLocalGraph<V>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ec_graph_size_hint(lg));
    enc_node(lg.node, &mut buf);
    enc_count(lg.verts.len(), &mut buf);
    // The prologue: what the decoder's store and hot columns will hold (runs
    // no slot or copy points at any more are not encoded) — slots and the
    // entries of their lists, which the decoder holds the graph it built
    // to — so it sizes the copies and slots once.
    enc_count(lg.live_full_state_lens().slots, &mut buf);
    enc_column_lens(lg.full_state_entries(), &mut buf);
    let positions = 0..lg.verts.len() as u32;
    let in_edges: usize = positions.map(|pos| lg.in_edges(pos).len()).sum();
    enc_count(in_edges, &mut buf);
    let mut prev_vid = 0u32;
    for (pos, v) in lg.verts.iter().enumerate() {
        debug_assert!(!v.next_active, "{} encoded mid-commit", v.vid);
        enc_delta(v.vid.raw(), &mut prev_vid, &mut buf);
        let has_meta = v.meta.is_some();
        buf.push(ec_copy_flags(v.kind, v.active, v.last_activate, has_meta));
        enc_node(v.master_node, &mut buf);
        v.value.encode(&mut buf);
        let pos = pos as u32;
        enc_edge_lists(lg.in_edges(pos), lg.out_local(pos), &mut buf);
        match lg.full_state(pos) {
            Some(state) if v.is_master() => {
                enc_locations(state.locations, &mut buf);
                state.out_remote.put(&mut buf);
            }
            Some(state) => enc_meta(state, &mut buf),
            None => {}
        }
    }
    buf
}

/// Decodes an edge-cut metadata snapshot. The prologue's totals size the
/// copies and slots once; the graph that comes back holds exactly them,
/// every run it stores checked on the way in, and passes
/// [`EcLocalGraph::validate`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input, including input
/// that decodes to a graph breaking a structural invariant.
pub fn decode_ec_graph<V: Decode>(bytes: &[u8]) -> Result<EcLocalGraph<V>, DecodeError> {
    let mut r = Reader::new(bytes);
    let mut lg = EcLocalGraph::empty(dec_node(&mut r)?);
    let n = dec_count(&mut r)?;
    let slots = dec_count(&mut r)?;
    let lens = dec_column_lens(&mut r)?;
    let hot = dec_count(&mut r)?;
    // Every copy and slot costs a byte of its own, like every column entry
    // and every in-edge, so what is reserved below is within a constant of
    // the input's size.
    if n + slots + lens.total() + hot > r.remaining() {
        return Err(DecodeError::Corrupt("counts exceed input"));
    }
    lg.verts.reserve_exact(n);
    lg.reserve_full_state(StoreLens {
        slots,
        ..StoreLens::default()
    });
    // Every in-edge has its consumer entry: exact for a graph as loaded, a
    // first guess for one recovery has rewired.
    lg.reserve_edge_lists(hot, hot);
    let mut pairs = Vec::with_capacity(n);
    let mut prev_vid = 0u32;
    // One copy's lists and tables at a time, their allocations reused.
    let (mut in_edges, mut out_local) = (Vec::new(), Vec::new());
    let mut tables = Locations::default();
    for pos in 0..n as u32 {
        let vid = Vid::new(dec_delta(&mut r, &mut prev_vid)?);
        let (kind, flags) = dec_copy_flags(&mut r, 5)?;
        let master_node = dec_node(&mut r)?;
        let value = V::decode(&mut r)?;
        dec_edge_lists_into(&mut r, &mut in_edges, &mut out_local)?;
        pairs.push((vid, pos));
        let mut copy = EcVertex::new(vid, kind, master_node, value);
        (copy.active, copy.last_activate) = (flags & 0b100 != 0, flags & 0b1000 != 0);
        lg.verts.push(copy);
        lg.set_in_edges(pos, &in_edges);
        lg.set_out_local(pos, &out_local);
        if flags & 0b1_0000 == 0 {
            continue;
        }
        dec_locations_into(&mut r, &mut tables)?;
        let lists = match kind {
            CopyKind::Master => dec_lists(&mut r, EdgeLists::OUT_REMOTE, None)?,
            _ => dec_lists(&mut r, EdgeLists::ALL, None)?,
        };
        lg.set_full_state(pos, state_of(&tables, lists));
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    let held = (lg.live_full_state_lens().slots, lg.full_state_entries());
    if (held, lg.edge_list_lens().0) != ((slots, lens), hot) {
        return Err(DecodeError::Corrupt("prologue totals"));
    }
    lg.index = PosIndex::from_pairs(pairs);
    lg.rebuild_active_frontier();
    if lg.validate().is_err() {
        return Err(DecodeError::Corrupt("graph invariants"));
    }
    Ok(lg)
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

/// Encodes a vertex-cut local graph as a metadata snapshot. The buffer is
/// pre-sized like [`encode_ec_graph`]'s.
pub fn encode_vc_graph<V: Encode>(lg: &VcLocalGraph<V>) -> Vec<u8> {
    let vertex = 3 * HINT_VARINT + 2 + std::mem::size_of::<V>();
    // Per table three varints, per replica a node byte and a position, per
    // mirror a byte: from the store's totals, two bytes a word is that or more.
    let held = lg.full_state_lens();
    let metas = 3 * HINT_VARINT * held.slots + 2 * held.words;
    let hint = vertex * lg.verts.len() + metas + (2 * HINT_VARINT + 4) * lg.edges.len();
    let mut buf = Vec::with_capacity(hint);
    enc_node(lg.node, &mut buf);
    enc_count(lg.verts.len(), &mut buf);
    let mut prev_vid = 0u32;
    for (pos, v) in lg.verts.iter().enumerate() {
        enc_delta(v.vid.raw(), &mut prev_vid, &mut buf);
        buf.push(v.kind.bits() | u8::from(v.meta.is_some()) << 2);
        enc_node(v.master_node, &mut buf);
        v.value.encode(&mut buf);
        if let Some(m) = lg.locations(pos as u32) {
            enc_locations(m, &mut buf);
        }
    }
    enc_count(lg.edges.len(), &mut buf);
    let (mut prev_src, mut prev_dst) = (0u32, 0u32);
    for e in &lg.edges {
        enc_delta(e.src, &mut prev_src, &mut buf);
        enc_delta(e.dst, &mut prev_dst, &mut buf);
        e.weight.encode(&mut buf);
    }
    buf
}

/// Decodes a vertex-cut metadata snapshot. Every count is held to the input
/// that remains before anything is sized from it, and the graph that comes
/// back passes [`VcLocalGraph::validate`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input, including input
/// that decodes to a graph breaking a structural invariant.
pub fn decode_vc_graph<V: Decode>(bytes: &[u8]) -> Result<VcLocalGraph<V>, DecodeError> {
    let mut r = Reader::new(bytes);
    let mut lg = VcLocalGraph::empty(dec_node(&mut r)?);
    let n = dec_count(&mut r)?;
    lg.verts.reserve_exact(n);
    let mut pairs = Vec::with_capacity(n);
    let mut prev_vid = 0u32;
    let mut tables = Locations::default();
    for pos in 0..n as u32 {
        let vid = Vid::new(dec_delta(&mut r, &mut prev_vid)?);
        let (kind, flags) = dec_copy_flags(&mut r, 3)?;
        let master_node = dec_node(&mut r)?;
        let value = V::decode(&mut r)?;
        pairs.push((vid, pos));
        lg.verts.push(VcVertex::new(vid, kind, master_node, value));
        if flags & 0b100 != 0 {
            dec_locations_into(&mut r, &mut tables)?;
            lg.set_locations(pos, tables.view());
        }
    }
    let ne = dec_count(&mut r)?;
    let edges = &mut lg.edges;
    edges.reserve_exact(ne);
    let (mut prev_src, mut prev_dst) = (0u32, 0u32);
    for _ in 0..ne {
        edges.push(VcEdge {
            src: dec_delta(&mut r, &mut prev_src)?,
            dst: dec_delta(&mut r, &mut prev_dst)?,
            weight: f32::decode(&mut r)?,
        });
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    lg.index = PosIndex::from_pairs(pairs);
    if lg.validate().is_err() {
        return Err(DecodeError::Corrupt("graph invariants"));
    }
    Ok(lg)
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

/// A local graph's DFS codec — its metadata snapshot and the data snapshot
/// of its masters — on which checkpointing and recovery are generic. Values
/// are written as their codec encodes them, so whatever is read back has
/// every value completed ([`VertexProgram::derive`]) before anyone reads it.
///
/// The decoders panic on bytes no encoder wrote: a recovery reads what this
/// run sealed, and the hostile-bytes tests hold the functions underneath.
pub(crate) trait GraphCodec: ModelGraph + Sized {
    /// The metadata snapshot: the whole local graph.
    fn encode_graph(&self) -> Vec<u8>;
    /// Reads a metadata snapshot back.
    fn decode_graph<P>(bytes: &[u8], prog: &P, degrees: &Degrees) -> Self
    where
        P: VertexProgram<Value = Self::Value>;
    /// The data snapshot of the masters at `dirty` (ascending), or of every
    /// master: a full snapshot is the delta whose dirty set is all of them.
    fn encode_snapshot(&self, iter: u64, dirty: Option<&[u32]>) -> Vec<u8>;
    /// Applies a data snapshot of either extent and returns its iteration.
    fn apply_snapshot<P>(&mut self, bytes: &[u8], prog: &P, degrees: &Degrees) -> u64
    where
        P: VertexProgram<Value = Self::Value>;
}

impl<V: Encode + Decode> GraphCodec for EcLocalGraph<V> {
    fn encode_graph(&self) -> Vec<u8> {
        encode_ec_graph(self)
    }

    fn decode_graph<P>(bytes: &[u8], prog: &P, degrees: &Degrees) -> Self
    where
        P: VertexProgram<Value = V>,
    {
        let mut lg = decode_ec_graph(bytes).expect("metadata snapshot decodes");
        for v in &mut lg.verts {
            prog.derive(v.vid, &mut v.value, degrees);
        }
        lg
    }

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

impl<V: Encode + Decode> GraphCodec for VcLocalGraph<V> {
    fn encode_graph(&self) -> Vec<u8> {
        encode_vc_graph(self)
    }

    fn decode_graph<P>(bytes: &[u8], prog: &P, degrees: &Degrees) -> Self
    where
        P: VertexProgram<Value = V>,
    {
        let mut lg = decode_vc_graph(bytes).expect("metadata snapshot decodes");
        for v in &mut lg.verts {
            prog.derive(v.vid, &mut v.value, degrees);
        }
        lg
    }

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

/// An edge-ckpt file, written one edge at a time: the edge count, then
/// global `(src, dst, weight)` triples, IDs as two zigzag delta columns
/// interleaved per record (consecutive edges in a partition share sources,
/// so most steps are one byte). The count heads the file, so a writer is
/// told it up front — the caller pushes exactly that many edges — and
/// encodes straight from wherever the edges are, without a list of triples
/// in between.
struct EdgeCkptWriter {
    buf: Vec<u8>,
    prev_src: u32,
    prev_dst: u32,
}

impl EdgeCkptWriter {
    /// A file that will hold `edges` edges.
    fn with_edges(edges: usize) -> Self {
        // Two ID steps of up to three bytes (graphs up to 1M vertices; a
        // vertex-cut's edges come in no order, so steps are long), then the
        // weight: room that is not written is not touched.
        let mut buf = Vec::with_capacity(HINT_VARINT + edges * (2 * HINT_VARINT + 4));
        enc_count(edges, &mut buf);
        EdgeCkptWriter {
            buf,
            prev_src: 0,
            prev_dst: 0,
        }
    }

    fn push(&mut self, src: Vid, dst: Vid, weight: f32) {
        enc_delta(src.raw(), &mut self.prev_src, &mut self.buf);
        enc_delta(dst.raw(), &mut self.prev_dst, &mut self.buf);
        weight.encode(&mut self.buf);
    }
}

/// The edge-ckpt files a vertex-cut node persists: its edges split by
/// receiving node, `(receiver, file)` in node order. An edge goes to the file
/// of the node hosting the target's master, or of the master's first mirror
/// when the master is this very node (§4.3). The receiver is looked up once
/// per local copy, not per edge; each receiver's edges are counted, then
/// every file is encoded straight from the edge list, in its order: files
/// are found by node index, and no list of triples is grown in between.
///
/// # Panics
///
/// Panics if a local master that is an edge's target carries no location
/// tables.
pub fn edge_ckpt_files<V>(lg: &VcLocalGraph<V>) -> Vec<(NodeId, Vec<u8>)> {
    let me = lg.node;
    // Per copy, who receives the edges it is the target of (`None`: a local
    // master without tables, which no edge may point at).
    let receivers: Vec<Option<NodeId>> = (0u32..)
        .zip(&lg.verts)
        .map(|(pos, v)| match lg.locations(pos) {
            _ if v.master_node != me => Some(v.master_node),
            Some(tables) => Some(tables.mirror_nodes().iter().next().unwrap_or(me)),
            None => None,
        })
        .collect();
    let receiver = |dst: u32| {
        let r = receivers[dst as usize];
        r.unwrap_or_else(|| panic!("local master {} has meta", lg.verts[dst as usize].vid))
    };
    let mut counts: Vec<usize> = Vec::new();
    for e in &lg.edges {
        let r = receiver(e.dst).index();
        if r >= counts.len() {
            counts.resize(r + 1, 0);
        }
        counts[r] += 1;
    }
    let file = |&edges: &usize| (edges > 0).then(|| EdgeCkptWriter::with_edges(edges));
    let mut files: Vec<Option<EdgeCkptWriter>> = counts.iter().map(file).collect();
    for e in &lg.edges {
        let file = files[receiver(e.dst).index()].as_mut();
        let (src, dst) = (&lg.verts[e.src as usize], &lg.verts[e.dst as usize]);
        file.expect("counted above")
            .push(src.vid, dst.vid, e.weight);
    }
    let files = files.into_iter().enumerate();
    files
        .filter_map(|(r, file)| Some((NodeId::from_index(r), file?.buf)))
        .collect()
}

/// Where `owner` keeps its edge-ckpt files on the DFS.
pub(crate) fn edge_ckpt_dir(owner: NodeId) -> String {
    format!("vc/eckpt/{}/", owner.raw())
}

/// The edge-ckpt file `owner` keeps for `receiver` to reload.
pub(crate) fn edge_ckpt_path(owner: NodeId, receiver: NodeId) -> String {
    format!("{}{}", edge_ckpt_dir(owner), receiver.raw())
}

/// Persists this node's edges as one edge-ckpt file per receiving node
/// ([`edge_ckpt_files`]), so each survivor reloads exactly one file in
/// parallel during Migration (§4.3). The files are encoded here and now, from
/// the graph as it stands; deleting and writing happen behind the caller.
pub(crate) fn persist_edge_ckpt<V>(lg: &VcLocalGraph<V>, dfs: &Dfs) -> WriteBehind {
    let files = edge_ckpt_files(lg).into_iter();
    let files = files.map(|(receiver, file)| (edge_ckpt_path(lg.node, receiver), file));
    // Receivers shift between rewrites (promotions re-home masters), so a
    // stale per-receiver file from an earlier write must not survive:
    // replace the whole directory.
    dfs.write_behind(dfs.list(&edge_ckpt_dir(lg.node)), files.collect())
}

/// Decodes an edge-ckpt file.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input.
pub fn decode_edge_ckpt(bytes: &[u8]) -> Result<Vec<(Vid, Vid, f32)>, DecodeError> {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plan::{compute_ft_plan, ReplicaView};
    use imitator_engine::{
        build_edge_cut_graphs, build_vertex_cut_graphs, Degrees, FtPlan, MasterMeta,
    };
    use imitator_graph::{gen, Edge, Graph};
    use imitator_metrics::MemSize;
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };
    use proptest::prelude::*;

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

    #[test]
    fn ec_graph_roundtrips() {
        let g = gen::power_law(300, 2.0, 5, 3);
        let cut = HashEdgeCut.partition(&g, 3);
        let plan = FtPlan::none(g.num_vertices());
        let d = Degrees::of(&g);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &P, &d);
        for lg in &lgs {
            let bytes = encode_ec_graph(lg);
            let back: EcLocalGraph<f64> = decode_ec_graph(&bytes).unwrap();
            assert_eq!(&back, lg);
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

    /// What [`hostile_ec_graph_bytes_never_panic`] does to a snapshot.
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
        /// The decoder is the reload path of every checkpoint recovery and
        /// the abort path of the two that snapshot for undo: truncated, bit-flipped and
        /// spliced snapshots of loader-built graphs must come back as an
        /// error or as a graph that holds together — never a panic, never
        /// a span past its column, never memory out of proportion to the
        /// input.
        #[test]
        fn hostile_ec_graph_bytes_never_panic(
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(arb_damage(), 1..4),
        ) {
            let cut = HashEdgeCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            for lg in build_edge_cut_graphs(&g, &cut, &plan, &P, &d) {
                let bad = damaged(encode_ec_graph(&lg), &damage);
                if let Ok(back) = decode_ec_graph::<f64>(&bad) {
                    back.debug_validate();
                    // A slot is the largest thing a counted byte can stand for.
                    prop_assert!(back.mem_bytes() <= 1024 + 128 * bad.len());
                }
            }
        }

        /// The vertex-cut decoder reloads a crashed node's `vc/meta` file
        /// and restores an aborted checkpoint recovery: damaged snapshots of
        /// loader-built graphs come back as an error or as a graph that
        /// holds together, its store sized by what was read and not by a
        /// count the input merely claims.
        #[test]
        fn hostile_vc_graph_bytes_never_panic(
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(arb_damage(), 1..4),
        ) {
            let cut = RandomVertexCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
                let bad = damaged(encode_vc_graph(&lg), &damage);
                if let Ok(back) = decode_vc_graph::<f64>(&bad) {
                    back.debug_validate();
                    prop_assert!(back.mem_bytes() <= 1024 + 128 * bad.len());
                }
            }
        }

        /// An edge-ckpt file is what a Migration survivor and a reborn node
        /// reload from the DFS: a damaged one comes back as an error or as
        /// edges held in a constant times the input — never a panic, never
        /// a list sized by a count the input merely claims.
        #[test]
        fn hostile_edge_ckpt_bytes_never_panic(
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(arb_damage(), 1..4),
        ) {
            let cut = RandomVertexCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
                for (_, file) in edge_ckpt_files(&lg) {
                    let bad = damaged(file, &damage);
                    if let Ok(edges) = decode_edge_ckpt(&bad) {
                        let held = edges.capacity() * std::mem::size_of::<(Vid, Vid, f32)>();
                        prop_assert!(held <= 16 * bad.len());
                    }
                }
            }
        }

        /// The undo snapshot *is* this codec: whatever the loaders build —
        /// any partition count, FT level, selfish flags, duplicate edges,
        /// isolated vertices — must come back equal, field for field.
        #[test]
        fn loader_built_ec_graphs_roundtrip((g, (parts, k, selfish)) in (arb_graph(), arb_shape())) {
            let cut = HashEdgeCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            for lg in build_edge_cut_graphs(&g, &cut, &plan, &P, &d) {
                let back: EcLocalGraph<f64> = decode_ec_graph(&encode_ec_graph(&lg)).unwrap();
                prop_assert_eq!(&back, &lg);
            }
        }

        #[test]
        fn loader_built_vc_graphs_roundtrip((g, (parts, k, selfish)) in (arb_graph(), arb_shape())) {
            let cut = RandomVertexCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
                let back: VcLocalGraph<f64> = decode_vc_graph(&encode_vc_graph(&lg)).unwrap();
                prop_assert_eq!(&back, &lg);
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

    /// A master's in-edge sources are read through its in-edges' positions:
    /// a snapshot with one pointing past the copies must not come back as a
    /// graph.
    #[test]
    fn an_in_edge_past_the_copies_is_a_decode_error() {
        let mut lg: EcLocalGraph<f64> = EcLocalGraph::empty(NodeId::new(0));
        let master = EcVertex::new(Vid::new(3), CopyKind::Master, NodeId::new(0), 0.0);
        lg.insert_at(0, master, &[(7, 1.0)], &[]);
        lg.set_full_state(0, MasterMeta::default().view());
        let back = decode_ec_graph::<f64>(&encode_ec_graph(&lg));
        assert_eq!(back, Err(DecodeError::Corrupt("graph invariants")));
    }

    /// FNV-1a over a byte string.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Loader-built graphs encode to the recorded bytes, without fault
    /// tolerance and with one and two mirrors a vertex: the items of every
    /// list, and their order, are pinned. The lengths recorded at commit
    /// 81ee3c5 — when every copy owned its two edge lists as `Vec`s, a master
    /// wrote the source of each in-edge beside it and a remote out-edge its
    /// target — stay beside them: the snapshot stopped writing what the graph
    /// stopped storing and carries one more count, and may only have shrunk.
    #[test]
    fn loader_built_graphs_encode_to_the_recorded_bytes() {
        const RECORDED: [[(usize, u64); 4]; 3] = [
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
        const WITH_SOURCES_AND_TARGETS: [[usize; 4]; 3] = [
            [0x1bd30, 0x1b66b, 0x1cfe9, 0x1c0fa],
            [0x30f01, 0x305e2, 0x3155e, 0x31696],
            [0x46d0b, 0x475a4, 0x471db, 0x48295],
        ];
        let g = gen::power_law_selfish(3_000, 2.0, 8, 0.2, 11);
        let cut = HashEdgeCut.partition(&g, 4);
        let d = Degrees::of(&g);
        for (k, recorded) in RECORDED.iter().enumerate() {
            let plan = plan_for(&g, &cut, k, true);
            let lgs = build_edge_cut_graphs(&g, &cut, &plan, &P, &d);
            let encoded = lgs.iter().map(|lg| {
                let bytes = encode_ec_graph(lg);
                (bytes.len(), fnv(&bytes))
            });
            assert!(encoded.eq(recorded.iter().copied()), "K = {k}");
            let before = WITH_SOURCES_AND_TARGETS[k].iter();
            assert!(
                recorded.iter().zip(before).all(|(now, &was)| now.0 < was),
                "K = {k}: a snapshot grew"
            );
        }
    }

    /// A graph comes back from a snapshot without the dead runs Migration
    /// left in its store, in columns of exactly the prologue's totals.
    #[test]
    fn decoding_drops_dead_runs() {
        let g = gen::power_law(400, 2.0, 6, 3);
        let cut = HashEdgeCut.partition(&g, 3);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, false, true, 0xF7);
        let d = Degrees::of(&g);
        let mut lg = build_edge_cut_graphs(&g, &cut, &plan, &P, &d).remove(1);
        let loaded = lg.full_state_lens();
        assert_eq!(lg.live_full_state_lens(), loaded, "a fresh store has none");
        // Grow every mirror's remote out-edges by one: each list is a new
        // run at its column's tail and leaves its old run behind.
        let mirrors: Vec<u32> = (0..lg.len() as u32)
            .filter(|&pos| lg.verts[pos as usize].kind == CopyKind::Mirror)
            .collect();
        assert!(!mirrors.is_empty());
        for &pos in &mirrors {
            let mut grown = lg.full_state(pos).unwrap().to_meta();
            grown.out_remote.push(RemoteEdge::default());
            lg.set_full_state(pos, grown.view());
        }
        let live = lg.live_full_state_lens();
        assert_eq!(live.slots, loaded.slots);
        assert!(lg.full_state_lens().runs > live.runs && live.runs > loaded.runs);
        let back: EcLocalGraph<f64> = decode_ec_graph(&encode_ec_graph(&lg)).unwrap();
        assert_eq!(back, lg);
        assert_eq!(back.full_state_weights(), lg.full_state_weights());
        assert_eq!(back.full_state_lens(), live);
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
                        want.in_edges_owner
                            .push((lg.position(e.src).unwrap(), e.weight));
                        want.in_edge_srcs.push(e.src);
                    }
                    if e.src == v && cut.owner(e.dst) == p {
                        want.out_local_owner.push(lg.position(e.dst).unwrap());
                    } else if e.src == v {
                        let node = NodeId::from_index(cut.owner(e.dst));
                        want.out_remote.push(RemoteEdge {
                            node,
                            pos: lgs[node.index()].position(e.dst).unwrap(),
                        });
                    }
                }
                let (mut ours, mut theirs) = (Vec::new(), Vec::new());
                enc_meta(lg.full_state(pos).unwrap(), &mut ours);
                enc_meta(want.view(), &mut theirs);
                assert_eq!(ours, theirs, "{v} on node {p}");
            }
        }
    }

    /// The encoders allocate once: the size guessed from the list lengths
    /// covers the encoding without doubling it.
    #[test]
    fn graph_encoders_presize_their_buffer() {
        let g = gen::power_law(5_000, 2.0, 10, 3);
        let d = Degrees::of(&g);
        let cut = HashEdgeCut.partition(&g, 4);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, true, true, 0xF7);
        for lg in build_edge_cut_graphs(&g, &cut, &plan, &P, &d) {
            let bytes = encode_ec_graph(&lg);
            let hint = ec_graph_size_hint(&lg);
            assert!(
                bytes.len() <= hint && hint < 2 * bytes.len(),
                "edge-cut: guessed {hint} B for {} B",
                bytes.len()
            );
            assert_eq!(bytes.capacity(), hint, "no regrow");
        }
        let cut = RandomVertexCut.partition(&g, 4);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, true, true, 0xF7);
        for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
            let bytes = encode_vc_graph(&lg);
            assert!(
                bytes.len() <= bytes.capacity() && bytes.capacity() < 2 * bytes.len(),
                "vertex-cut: {} B in a {} B buffer",
                bytes.len(),
                bytes.capacity()
            );
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
    fn vc_graph_roundtrips() {
        let g = gen::power_law(300, 2.0, 5, 9);
        let cut = RandomVertexCut.partition(&g, 4);
        let plan = FtPlan::none(g.num_vertices());
        let d = Degrees::of(&g);
        let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &P, &d);
        for lg in &lgs {
            let bytes = encode_vc_graph(lg);
            let back: VcLocalGraph<f64> = decode_vc_graph(&bytes).unwrap();
            assert_eq!(&back, lg);
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

    /// An edge-ckpt file as it was encoded from a list of triples, before
    /// [`EdgeCkptWriter`] took the edges one at a time.
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
        let mut file = EdgeCkptWriter::with_edges(edges.len());
        for &(s, d, w) in &edges {
            file.push(s, d, w);
        }
        assert_eq!(file.buf, encode_edge_ckpt(&edges));
        assert_eq!(decode_edge_ckpt(&file.buf).unwrap(), edges);
    }

    /// The per-receiver files a vertex-cut node writes hold, path for path
    /// and byte for byte, what grouping its edges by receiver in a map of
    /// triple lists and encoding each list used to produce.
    #[test]
    fn edge_ckpt_files_equal_the_grouped_lists() {
        use std::collections::HashMap;
        let g = gen::power_law_selfish(1_500, 2.0, 7, 0.2, 9);
        let cut = RandomVertexCut.partition(&g, 5);
        let d = Degrees::of(&g);
        for k in 1..=2 {
            let plan = plan_for(&g, &cut, k, true);
            for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
                let me = lg.node;
                let dfs = imitator_storage::Dfs::new(imitator_storage::DfsConfig::instant());
                // A stale file from an earlier write must not survive.
                dfs.write(&format!("vc/eckpt/{}/99", me.raw()), vec![1]);
                persist_edge_ckpt(&lg, &dfs).wait();
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
                let mut want: Vec<(String, Vec<u8>)> = per_receiver
                    .iter()
                    .map(|(r, edges)| {
                        let path = format!("vc/eckpt/{}/{}", me.raw(), r.raw());
                        (path, encode_edge_ckpt(edges))
                    })
                    .collect();
                want.sort();
                assert!(want.len() > 1, "k={k}: {me} feeds several receivers");
                let written: Vec<(String, Vec<u8>)> = dfs
                    .list(&format!("vc/eckpt/{}/", me.raw()))
                    .into_iter()
                    .map(|path| {
                        let bytes = dfs.read(&path).expect("listed");
                        (path, bytes.to_vec())
                    })
                    .collect();
                assert_eq!(written, want, "k={k}: files of {me}");
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

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let bytes = encode_edge_ckpt(&[(Vid::new(0), Vid::new(1), 1.0)]);
        assert!(decode_edge_ckpt(&bytes[..bytes.len() - 1]).is_err());
        let mut graph_bytes = vec![0u8; 3];
        graph_bytes.extend_from_slice(&bytes);
        assert!(decode_ec_graph::<f64>(&graph_bytes).is_err());
    }
}
