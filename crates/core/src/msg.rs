//! Wire message types and their codec.
//!
//! The in-process transports move a [`ProtoMsg`] as an owned value; the TCP
//! transport ships its encoding (the [`Encode`] impl below, behind
//! [`WireCodec`]) and reads it back with the [`Decode`] impl, which holds
//! every count to the input and wants all of it consumed. Every message is
//! charged what that encoding writes, [`Encode::encoded_len`]: its encoder
//! run against a counting sink. [`ProtoMsg::Sync`] and [`ProtoMsg::Gather`]
//! are [columnar frames](crate::wire), one per destination per superstep; a
//! recovery message is one tag byte and then the same
//! [column primitives](crate::columns) (DESIGN.md §4.6 has every layout).

use std::marker::PhantomData;

use imitator_cluster::{NodeId, WireCodec};
use imitator_engine::{
    ColumnLens, CopyKind, EcLocalGraph, EdgeLists, FullState, FullStateRef, Locations, StoreLens,
    VcLocalGraph, Weights,
};
use imitator_graph::Vid;
use imitator_storage::codec::{Decode, DecodeError, Encode, Reader, Sink};

use crate::ckpt::{
    dec_column_lens, dec_lists, dec_locations_into, enc_column_lens, enc_lists, enc_locations,
    state_of,
};
use crate::columns::{
    dec_bits, dec_count, dec_deltas, dec_node, dec_u32, dec_u64, enc_bits, enc_count, enc_deltas,
    enc_node, enc_u32, enc_u64,
};
use crate::wire::{
    dec_gather_body, dec_sync_body, encode_gather_frame, put_sync_head, GATHER_FRAME_TAG,
    SYNC_FRAME_TAG,
};

/// One vertex's synchronisation record, master → replica (Algorithm 1
/// line 6). With replication FT on, the same record doubles as the mirror's
/// dynamic-state refresh: `activate` is the scatter bit the mirror stores
/// for activation replay (§5.1.3).
///
/// Position-addressed, like a Rebirth record (§5.1.2): the master knows
/// every replica's array position on its destination node, so the receiver
/// applies the record straight into its vertex array — no per-record
/// ID-to-position lookup on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexSync<V> {
    /// The replica's array position on the destination node.
    pub pos: u32,
    /// Its new committed value.
    pub value: V,
    /// The scatter decision of this update.
    pub activate: bool,
}

/// Migration round 1: a mirror promoted itself to master (§5.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// The vertex whose master moved.
    pub vid: Vid,
    /// The surviving node now mastering it.
    pub new_master: NodeId,
    /// The master's array position there.
    pub new_pos: u32,
    /// The crashed node that used to master it.
    pub old_node: NodeId,
    /// The master's array position on the crashed node — peers use
    /// `(old_node, old_pos)` to rewrite position-addressed consumer tables.
    pub old_pos: u32,
}

/// Migration round 3: a master hands a fresh replica of `vid` to a node
/// that needs one for local-access semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaGrant<V> {
    /// The vertex.
    pub vid: Vid,
    /// Current value.
    pub value: V,
    /// Last committed scatter bit (for activation replay).
    pub last_activate: bool,
    /// The master's node.
    pub master_node: NodeId,
}

/// Migration rounds 5-7: the mirror designations / full-state refreshes one
/// master node sends one destination, as parallel columns — record `i` is
/// `vids[i]`, `last_activate[i]` and the `i`-th full state of `metas`. The
/// receiver upgrades or refreshes its copy of each vertex; where it has none
/// it creates one (a brand new FT replica) from the value `values` carries
/// for that record.
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorBatch<V> {
    /// The vertices, in the sender's position order.
    pub vids: Vec<Vid>,
    /// `(record, value)` for the records whose receiver has no copy yet,
    /// ascending by record.
    pub values: Vec<(u32, V)>,
    /// Last committed scatter bit, per record.
    pub last_activate: Vec<bool>,
    /// The sending masters' node.
    pub master_node: NodeId,
    /// The full states, a slot each (vertex-cut: location tables only, a
    /// store without edge rows). A slot's lists that `lists` does not name
    /// are empty.
    pub metas: FullState,
    /// Which edge lists each record's full state carries: one entry per
    /// record edge-cut — all three for every R5 designation — and none
    /// vertex-cut, whose full state is its tables.
    pub lists: Vec<EdgeLists>,
}

/// The model-generic cluster protocol, parameterized by value `V`, gather
/// accumulator `A` and the engine's local graph `G`, whose [`StoreCodec`]
/// writes the full-state stores a Rebirth and a mirror batch carry.
///
/// Both compute models speak this one protocol; the [`EcMsg`] and [`VcMsg`]
/// aliases pin the type parameters per model (the edge-cut model never
/// sends `Gather` — its gather is fused into local compute).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoMsg<V, A, G> {
    /// Gather phase: partial accumulators, edge holder → master
    /// (vertex-cut only).
    Gather(Vec<(Vid, A)>),
    /// Normal-execution value synchronisation, master → replicas.
    Sync(Vec<VertexSync<V>>),
    /// Rebirth: survivor → newbie reconstruction batch; `G` names the codec
    /// of its store (a type parameter must appear in some variant).
    Rebirth(Box<RebirthBatch<V>>, PhantomData<G>),
    /// Migration R1: promotions performed by the sender.
    Promote(Vec<Promotion>),
    /// Migration R2: the sender needs replicas of these vertices.
    ReplicaRequest(Vec<Vid>),
    /// Migration R3: granted replicas.
    ReplicaGrant(Vec<ReplicaGrant<V>>),
    /// Migration R4/R6: `(vid, pos)` placements to record in master meta.
    ReplicaPlaced(Vec<(Vid, u32)>),
    /// Migration R5/R7: mirror designations / full-state refreshes.
    MirrorUpdate(Box<MirrorBatch<V>>),
}

/// One copy a survivor recovers onto a newbie (§5.1.2): a record of a
/// [`RebirthBatch`], placed straight into its slot of the newbie's vertex
/// array, no lookups, no contention.
#[derive(Debug, Clone, PartialEq)]
pub struct Reborn<V> {
    /// The vertex.
    pub vid: Vid,
    /// Array position on the node being reconstructed.
    pub pos: u32,
    /// Role the copy had there.
    pub kind: CopyKind,
    /// Last synchronised scatter bit, replayed to rebuild activation.
    pub last_activate: bool,
    /// Node mastering the vertex.
    pub master_node: NodeId,
    /// Last committed value.
    pub value: V,
}

/// A survivor's complete contribution to one Rebirth reconstruction: the
/// copies it recovers, what each plain replica among them feeds, and the
/// full states of the masters and mirrors among them as one store — the
/// form a mirror batch ships full state in. A master's in-edges and
/// consumers, and a mirror's consumers, are read from its full state; the
/// newbie finds every source and consumer named by vertex through its own
/// index once it has placed every record.
#[derive(Debug, Clone, PartialEq)]
pub struct RebirthBatch<V> {
    /// Iteration at which the cluster resumes after recovery.
    pub resume_iter: u64,
    /// Number of surviving nodes contributing batches (the newbie counts
    /// arrivals against this).
    pub num_survivors: u32,
    /// Recovered copies.
    pub records: Vec<Reborn<V>>,
    /// How many entries of `consumers` each plain replica record has, in
    /// record order.
    pub replica_lists: Vec<u32>,
    /// The plain replicas' consumers — its master's `out_remote` entries
    /// naming a consumer mastered on the newbie, by vertex — list after
    /// list.
    pub consumers: Vec<Vid>,
    /// The full states of the master and mirror records, a slot each in
    /// record order (vertex-cut: location tables only).
    pub states: FullState,
    /// The edge lists each slot carries ([`FullStateBatches`]: all three
    /// edge-cut, none vertex-cut).
    ///
    /// [`FullStateBatches`]: imitator_engine::FullStateBatches
    pub lists: Vec<EdgeLists>,
}

/// The Rebirth batches that rebuild one node: its survivors', or its
/// metadata snapshot.
pub(crate) type Batches<V> = Vec<RebirthBatch<V>>;

impl<V> RebirthBatch<V> {
    /// A batch of no copy yet, toward a cluster of `num_survivors` senders
    /// that resumes at `resume_iter`.
    pub(crate) fn new(resume_iter: u64, num_survivors: u32) -> Self {
        RebirthBatch {
            resume_iter,
            num_survivors,
            records: Vec::new(),
            replica_lists: Vec::new(),
            consumers: Vec::new(),
            states: FullState::default(),
            lists: Vec::new(),
        }
    }
}

/// Edge-cut cluster messages ([`ProtoMsg`] instantiated for the edge-cut
/// model; the unused `Gather` accumulator is `()`).
pub type EcMsg<V> = ProtoMsg<V, (), EcLocalGraph<V>>;

/// Vertex-cut cluster messages.
pub type VcMsg<V, A> = ProtoMsg<V, A, VcLocalGraph<V>>;

// ---------------------------------------------------------------------------
// On-the-wire codec.
//
// Every message is a tag byte and then columns ([`crate::columns`]). The
// batch-shaped variants are the frames of [`crate::wire`], dispatched by
// their frame tags. A recovery message writes every ID, node, position,
// count and iteration as a uvarint, a list's vertex IDs (and Migration's
// placed and Rebirth's newbie positions) as a delta column, a per-record
// bool or copy kind as bits of a bit column, and full state as one store per
// message, written by the engine's [`StoreCodec`]. Every encoder writes into
// a [`Sink`], so the same walk that fills a socket's buffer counts a
// message's bytes.
// ---------------------------------------------------------------------------

const TAG_REBIRTH: u8 = 0x01;
const TAG_PROMOTE: u8 = 0x02;
const TAG_REPLICA_REQUEST: u8 = 0x03;
const TAG_REPLICA_GRANT: u8 = 0x04;
const TAG_REPLICA_PLACED: u8 = 0x05;
const TAG_MIRROR_UPDATE: u8 = 0x06;

/// A list's count, then its vertex IDs as a delta column: the head of every
/// per-vertex recovery list.
fn enc_vids<S: Sink>(vids: impl ExactSizeIterator<Item = Vid>, out: &mut S) {
    enc_count(vids.len(), out);
    enc_deltas(vids.map(Vid::raw), out);
}

fn dec_vids(r: &mut Reader<'_>) -> Result<Vec<Vid>, DecodeError> {
    let n = dec_count(r)?;
    Ok(dec_deltas(r, n)?.into_iter().map(Vid::new).collect())
}

/// A Rebirth batch on the wire: the resume iteration and the survivor
/// count; the vertex-ID and position delta columns; a four-bit column of
/// kind (two bits) | scatter bit; each record's master node and value; the
/// plain replicas' consumer total, their list lengths — left out when the
/// total is 0, as in every vertex-cut batch — and the consumers' vertex
/// IDs, a uvarint each as a full state's `out_remote` (a list's IDs need
/// not ascend, nor do lists follow one another's); then the store's slot count
/// and the store as the engine writes it ([`StoreCodec::enc_states`]).
pub(crate) fn enc_batch<V: Encode, G: StoreCodec, S: Sink>(b: &RebirthBatch<V>, out: &mut S) {
    enc_u64(b.resume_iter, out);
    enc_u32(b.num_survivors, out);
    enc_vids(b.records.iter().map(|r| r.vid), out);
    enc_deltas(b.records.iter().map(|r| r.pos), out);
    let kinds = b.records.iter();
    let kinds = kinds.map(|r| r.kind.bits() | u8::from(r.last_activate) << 2);
    enc_bits(4, kinds, out);
    for r in &b.records {
        enc_node(r.master_node, out);
        r.value.encode(out);
    }
    enc_count(b.consumers.len(), out);
    if !b.consumers.is_empty() {
        b.replica_lists.iter().for_each(|&n| enc_u32(n, out));
    }
    b.consumers.iter().for_each(|&vid| enc_u32(vid.raw(), out));
    enc_count(b.states.len(), out);
    G::enc_states(&b.states, &b.lists, out);
}

/// Reads a Rebirth batch back, refusing kind bits that name no copy kind,
/// list lengths that do not add up to the consumer total and a store of
/// other than one slot per master and mirror record.
pub(crate) fn dec_batch<V: Decode, G: StoreCodec>(
    r: &mut Reader<'_>,
) -> Result<RebirthBatch<V>, DecodeError> {
    let (resume_iter, num_survivors) = (dec_u64(r)?, dec_u32(r)?);
    let vids = dec_vids(r)?;
    let positions = dec_deltas(r, vids.len())?;
    let bits = dec_bits(r, 4, vids.len())?;
    let mut records = Vec::with_capacity(vids.len());
    for (i, (vid, pos)) in vids.into_iter().zip(positions).enumerate() {
        let bits = bits.get(i);
        let kind = CopyKind::from_bits(bits & 0b11).filter(|_| bits >> 3 == 0);
        records.push(Reborn {
            vid,
            pos,
            kind: kind.ok_or(DecodeError::Corrupt("copy kind"))?,
            last_activate: bits & 0b100 != 0,
            master_node: dec_node(r)?,
            value: V::decode(r)?,
        });
    }
    let replicas = records
        .iter()
        .filter(|r| r.kind == CopyKind::Replica)
        .count();
    let total = dec_count(r)?;
    let replica_lists = match total {
        0 => vec![0; replicas],
        _ => (0..replicas)
            .map(|_| dec_u32(r))
            .collect::<Result<_, _>>()?,
    };
    if replica_lists.iter().map(|&n| u64::from(n)).sum::<u64>() != total as u64 {
        return Err(DecodeError::Corrupt("replica list totals"));
    }
    let consumers = (0..total).map(|_| dec_u32(r).map(Vid::new));
    let consumers = consumers.collect::<Result<_, _>>()?;
    let slots = records.len() - replicas;
    if dec_count(r)? != slots {
        return Err(DecodeError::Corrupt("store slots"));
    }
    let (states, lists) = G::dec_states(r, slots)?;
    Ok(RebirthBatch {
        resume_iter,
        num_survivors,
        records,
        replica_lists,
        consumers,
        states,
        lists,
    })
}

fn enc_promotions<S: Sink>(ps: &[Promotion], out: &mut S) {
    enc_vids(ps.iter().map(|p| p.vid), out);
    for p in ps {
        enc_node(p.new_master, out);
        enc_u32(p.new_pos, out);
        enc_node(p.old_node, out);
        enc_u32(p.old_pos, out);
    }
}

fn dec_promotions(r: &mut Reader<'_>) -> Result<Vec<Promotion>, DecodeError> {
    let vids = dec_vids(r)?.into_iter();
    vids.map(|vid| {
        Ok(Promotion {
            vid,
            new_master: dec_node(r)?,
            new_pos: dec_u32(r)?,
            old_node: dec_node(r)?,
            old_pos: dec_u32(r)?,
        })
    })
    .collect()
}

/// Grants: the vertex-ID column, the scatter-bit column, then each record's
/// master node and value.
fn enc_grants<V: Encode, S: Sink>(gs: &[ReplicaGrant<V>], out: &mut S) {
    enc_vids(gs.iter().map(|g| g.vid), out);
    enc_bits(1, gs.iter().map(|g| u8::from(g.last_activate)), out);
    for g in gs {
        enc_node(g.master_node, out);
        g.value.encode(out);
    }
}

fn dec_grants<V: Decode>(r: &mut Reader<'_>) -> Result<Vec<ReplicaGrant<V>>, DecodeError> {
    let vids = dec_vids(r)?;
    let activate = dec_bits(r, 1, vids.len())?;
    let vids = vids.into_iter().enumerate();
    vids.map(|(i, vid)| {
        Ok(ReplicaGrant {
            vid,
            last_activate: activate.get(i) != 0,
            master_node: dec_node(r)?,
            value: V::decode(r)?,
        })
    })
    .collect()
}

/// Placements: the vertex-ID column, then the position column (positions
/// are handed out in vertex order, so it ascends).
fn enc_placed<S: Sink>(ps: &[(Vid, u32)], out: &mut S) {
    enc_vids(ps.iter().map(|&(v, _)| v), out);
    enc_deltas(ps.iter().map(|&(_, pos)| pos), out);
}

fn dec_placed(r: &mut Reader<'_>) -> Result<Vec<(Vid, u32)>, DecodeError> {
    let vids = dec_vids(r)?;
    let positions = dec_deltas(r, vids.len())?;
    Ok(vids.into_iter().zip(positions).collect())
}

/// A mirror batch on the wire: the sender, the vertex-ID column, a two-bit
/// column (scatter bit | carries a value), the values of the records whose
/// bit says so, then the full-state store and the lists it carries as the
/// engine writes them ([`StoreCodec::enc_states`]).
fn enc_mirror_batch<V: Encode, G: StoreCodec, S: Sink>(b: &MirrorBatch<V>, out: &mut S) {
    enc_node(b.master_node, out);
    enc_vids(b.vids.iter().copied(), out);
    let mut fresh = b.values.iter().map(|&(record, _)| record).peekable();
    let bits = (0u32..)
        .zip(&b.last_activate)
        .map(|(i, &activate)| u8::from(activate) | u8::from(fresh.next_if_eq(&i).is_some()) << 1);
    enc_bits(2, bits, out);
    debug_assert!(fresh.next().is_none(), "values ascend by record, one each");
    for (_, value) in &b.values {
        value.encode(out);
    }
    G::enc_states(&b.metas, &b.lists, out);
}

/// Decodes a mirror batch; [`StoreCodec::dec_states`] is handed the record
/// count and must come back with exactly that many full states (and list
/// masks, if the model writes any).
fn dec_mirror_batch<V: Decode, G: StoreCodec>(
    r: &mut Reader<'_>,
) -> Result<MirrorBatch<V>, DecodeError> {
    let master_node = dec_node(r)?;
    let vids = dec_vids(r)?;
    let n = vids.len();
    let bits = dec_bits(r, 2, n)?;
    let last_activate = (0..n).map(|i| bits.get(i) & 1 != 0).collect();
    let mut values = Vec::new();
    for i in (0..n).filter(|&i| bits.get(i) & 2 != 0) {
        values.push((i as u32, V::decode(r)?));
    }
    let (metas, lists) = G::dec_states(r, n)?;
    Ok(MirrorBatch {
        vids,
        values,
        last_activate,
        master_node,
        metas,
        lists,
    })
}

/// What differs between the two engines' wire protocols: how the
/// full-state store a mirror or Rebirth batch ships, and the edge lists each
/// slot of it carries, are written.
pub(crate) trait StoreCodec {
    fn enc_states<S: Sink>(metas: &FullState, lists: &[EdgeLists], out: &mut S);
    /// Reads back `n` full states and the lists they carry.
    fn dec_states(r: &mut Reader<'_>, n: usize)
        -> Result<(FullState, Vec<EdgeLists>), DecodeError>;
}

/// The entries of each edge list of `metas`, summed, and the weight every
/// in-edge has, to the bit, if it has any — a store in the uniform layout
/// says so without reading its runs.
fn lens_and_weight(metas: &FullState) -> (ColumnLens, Option<f32>) {
    let (mut lens, mut weights) = (ColumnLens::default(), Weights::Unset);
    for i in 0..metas.len() {
        let state = metas.nth(i);
        lens += state.lens();
        if weights != Weights::PerEdge {
            weights = weights.and(state.in_edges.weights());
        }
    }
    (lens, weights.uniform())
}

impl<V> StoreCodec for EcLocalGraph<V> {
    /// The four column totals, so that the decoder sizes each column once;
    /// the lists each slot carries, a four-bit column; the weight column's
    /// flag byte — 1, then the one `f32` every in-edge of the batch weighs
    /// (to the bit), when there is one; 0, when each in-edge carries its
    /// own —; then every slot's tables and the lists it carries
    /// ([`enc_lists`]). A slot that carries all three is its block, one
    /// slice, unless the batch writes weights another way than the store.
    fn enc_states<S: Sink>(metas: &FullState, lists: &[EdgeLists], out: &mut S) {
        debug_assert_eq!(lists.len(), metas.len(), "one list mask per slot");
        let (lens, uniform) = lens_and_weight(metas);
        enc_column_lens(lens, out);
        enc_bits(4, lists.iter().map(|lists| lists.bits()), out);
        out.put_byte(u8::from(uniform.is_some()));
        if let Some(w) = uniform {
            w.encode(out);
        }
        let stored = metas.weights().uniform().map(f32::to_bits);
        let verbatim = lens.in_edges == 0 || stored == uniform.map(f32::to_bits);
        for (i, &carried) in lists.iter().enumerate() {
            match metas.block(i) {
                block if verbatim && carried == EdgeLists::ALL && !block.is_empty() => {
                    enc_locations(metas.tables(i), out);
                    out.put(block);
                }
                _ => enc_lists(metas.nth(i), carried, uniform, out),
            }
        }
    }

    /// Reads the store back, a slot that carries all three lists as one
    /// block of the input's bytes, every run checked entry by entry before
    /// it is kept; refuses a mask bit past the third, a weight flag other
    /// than 0 or 1 and column totals other than what the carried lists add
    /// up to.
    fn dec_states(
        r: &mut Reader<'_>,
        n: usize,
    ) -> Result<(FullState, Vec<EdgeLists>), DecodeError> {
        let lens = dec_column_lens(r)?;
        let bits = dec_bits(r, 4, n)?;
        let mask = |i| EdgeLists::from_bits(bits.get(i)).ok_or(DecodeError::Corrupt("list mask"));
        let lists = (0..n).map(mask).collect::<Result<Vec<_>, _>>()?;
        let uniform = match r.take(1)?[0] {
            0 => None,
            1 => Some(f32::decode(r)?),
            _ => return Err(DecodeError::Corrupt("weight column flag")),
        };
        let mut metas = FullState::with_weights(uniform.map_or(Weights::PerEdge, Weights::Uniform));
        metas.reserve_exact(StoreLens {
            slots: n,
            runs: r.remaining(),
            ..StoreLens::default()
        });
        let (mut tables, mut read) = (Locations::default(), ColumnLens::default());
        for &carried in &lists {
            dec_locations_into(r, &mut tables)?;
            let start = r.clone();
            let state = state_of(&tables, dec_lists(r, carried, uniform)?);
            read += state.lens();
            if carried == EdgeLists::ALL {
                let block = start.clone().take(start.remaining() - r.remaining())?;
                metas.push_block(tables.view(), block);
            } else {
                metas.push(state);
            }
        }
        if read != lens {
            return Err(DecodeError::Corrupt("column totals"));
        }
        Ok((metas, lists))
    }
}

impl<V> StoreCodec for VcLocalGraph<V> {
    /// Every slot's location tables, nothing else.
    fn enc_states<S: Sink>(metas: &FullState, lists: &[EdgeLists], out: &mut S) {
        debug_assert!(lists.is_empty(), "a vertex-cut full state has no lists");
        for i in 0..metas.len() {
            enc_locations(metas.nth(i).locations, out);
        }
    }

    /// Reads the tables back into a store without edge rows. The caller has
    /// held `n` to the input; the table words are not announced and grow
    /// with what is actually read.
    fn dec_states(
        r: &mut Reader<'_>,
        n: usize,
    ) -> Result<(FullState, Vec<EdgeLists>), DecodeError> {
        let mut metas = FullState::default();
        metas.reserve_exact(StoreLens {
            slots: n,
            ..StoreLens::default()
        });
        let mut tables = Locations::default();
        for _ in 0..n {
            dec_locations_into(r, &mut tables)?;
            metas.push(FullStateRef::tables(tables.view()));
        }
        Ok((metas, Vec::new()))
    }
}

/// A message as the TCP transport ships it, and as every transport charges
/// it: into a buffer it is the frame, into a [`ByteCount`] its size.
///
/// [`ByteCount`]: imitator_storage::codec::ByteCount
impl<V: Encode, A: Encode, G: StoreCodec> Encode for ProtoMsg<V, A, G> {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            ProtoMsg::Sync(recs) => {
                put_sync_head(out, recs.len(), |i| (recs[i].pos, recs[i].activate));
                for s in recs {
                    s.value.encode(out);
                }
            }
            ProtoMsg::Gather(recs) => encode_gather_frame(recs.iter().map(|(v, a)| (*v, a)), out),
            ProtoMsg::Rebirth(b, _) => {
                out.put_byte(TAG_REBIRTH);
                enc_batch::<V, G, S>(b, out);
            }
            ProtoMsg::Promote(ps) => {
                out.put_byte(TAG_PROMOTE);
                enc_promotions(ps, out);
            }
            ProtoMsg::ReplicaRequest(vids) => {
                out.put_byte(TAG_REPLICA_REQUEST);
                enc_vids(vids.iter().copied(), out);
            }
            ProtoMsg::ReplicaGrant(gs) => {
                out.put_byte(TAG_REPLICA_GRANT);
                enc_grants(gs, out);
            }
            ProtoMsg::ReplicaPlaced(ps) => {
                out.put_byte(TAG_REPLICA_PLACED);
                enc_placed(ps, out);
            }
            ProtoMsg::MirrorUpdate(b) => {
                out.put_byte(TAG_MIRROR_UPDATE);
                enc_mirror_batch::<V, G, S>(b, out);
            }
        }
    }
}

/// Reads one whole message: the input must end where the message does.
/// Every count is held to the input before anything is sized from it, so
/// what a decode reserves stays within a constant of the input's size.
impl<V: Decode, A: Decode, G: StoreCodec> Decode for ProtoMsg<V, A, G> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let msg = match r.take(1)?[0] {
            SYNC_FRAME_TAG => ProtoMsg::Sync(dec_sync_body(r)?),
            GATHER_FRAME_TAG => ProtoMsg::Gather(dec_gather_body(r)?),
            TAG_REBIRTH => ProtoMsg::Rebirth(Box::new(dec_batch::<V, G>(r)?), PhantomData),
            TAG_PROMOTE => ProtoMsg::Promote(dec_promotions(r)?),
            TAG_REPLICA_REQUEST => ProtoMsg::ReplicaRequest(dec_vids(r)?),
            TAG_REPLICA_GRANT => ProtoMsg::ReplicaGrant(dec_grants(r)?),
            TAG_REPLICA_PLACED => ProtoMsg::ReplicaPlaced(dec_placed(r)?),
            TAG_MIRROR_UPDATE => ProtoMsg::MirrorUpdate(Box::new(dec_mirror_batch::<V, G>(r)?)),
            _ => return Err(DecodeError::Corrupt("message tag")),
        };
        match r.remaining() {
            0 => Ok(msg),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

impl<V, A, G> WireCodec for ProtoMsg<V, A, G>
where
    V: Encode + Decode,
    A: Encode + Decode,
    G: StoreCodec,
{
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        self.encode(buf);
    }

    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        Self::decode(&mut Reader::new(bytes)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::tests::{
        arb_damage, arb_graph, arb_shape, damaged, dec_tables, plan_for, Damage, P,
    };
    use crate::ckpt::{decode_meta, encode_meta};
    use crate::driver::ComputeModel;
    use crate::runner_ec::EcModel;
    use crate::runner_vc::VcModel;
    use imitator_algos::RankValue;
    use imitator_engine::{
        build_edge_cut_graphs, build_vertex_cut_graphs, Degrees, EcVertex, FullStateBatches,
        InEdge, MasterMeta, RemoteEdge, VcVertex,
    };
    use imitator_graph::Graph;
    use imitator_metrics::MemSize;
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };
    use proptest::prelude::*;
    use std::sync::Arc;

    /// A sync frame is charged what the message encodes to, which is what
    /// the frozen `encode_sync_frame` writes for the same records. Run with
    /// a plain `f64` and with PageRank's value, whose codec writes the rank
    /// and leaves the share to the receiver.
    #[test]
    fn accounted_sizes_match_codec() {
        sizes_match_codec([1.5f64, -2.5]);
        let (a, b) = (1.5, -2.5);
        sizes_match_codec([
            RankValue {
                rank: a,
                share: a / 3.0,
            },
            RankValue { rank: b, share: b },
        ]);
    }

    fn sizes_match_codec<V: Encode + Decode + Clone + Send + 'static>(values: [V; 2]) {
        let batch: Vec<VertexSync<V>> = values
            .into_iter()
            .zip([(7, true), (9, false)])
            .map(|(value, (pos, activate))| VertexSync {
                pos,
                value,
                activate,
            })
            .collect();
        let encoded: Vec<Vec<u8>> = batch.iter().map(|s| s.value.to_bytes()).collect();
        let recs: Vec<crate::wire::SyncRecEnc<'_>> = batch
            .iter()
            .zip(&encoded)
            .map(|(s, v)| crate::wire::SyncRecEnc {
                pos: s.pos,
                activate: s.activate,
                value: v,
                span: None,
            })
            .collect();
        let mut frame = Vec::new();
        crate::wire::encode_sync_frame(&recs, &mut frame);
        let msg = EcMsg::Sync(batch);
        let mut wire = Vec::new();
        msg.encode_wire(&mut wire);
        assert_eq!(wire, frame, "one sync layout");
        assert_eq!(msg.encoded_len(), wire.len());
    }

    /// What a node does with an edge-cut store it accepted: adopts it into
    /// mirrors that hold no full state — whole — and then, slot by slot, the
    /// lists each slot carries; adopts it into copies every other one of
    /// which is a master, which decodes their remote out-edges; and reads
    /// every list of every slot back. A run that entered unchecked would
    /// panic here.
    fn ec_adopt(states: &FullState, lists: &[EdgeLists]) {
        let copies = |masters: bool| {
            let mut lg: EcLocalGraph<f64> = EcLocalGraph::empty(NodeId::new(0));
            let kind = |i: u32| match masters && i % 2 == 1 {
                true => CopyKind::Master,
                false => CopyKind::Mirror,
            };
            let copy = |i| EcVertex::new(Vid::new(i), kind(i), NodeId::new(1), 0.0);
            let at: Vec<u32> = (0..states.len() as u32)
                .map(|i| lg.push_copy(copy(i)))
                .collect();
            (lg, at)
        };
        for masters in [false, true] {
            let (mut lg, at) = copies(masters);
            lg.adopt_full_states(&[(&at, states, &[])]);
            lg.adopt_full_states(&[(&at, states, lists)]);
            for &pos in &at {
                drop(lg.full_state(pos).expect("adopted").to_meta());
            }
            lg.rebuild_active_frontier();
            lg.debug_validate();
        }
    }

    /// [`ec_adopt`] for a vertex-cut store: its tables, adopted by mirrors.
    fn vc_adopt(states: &FullState, _: &[EdgeLists]) {
        let mut lg: VcLocalGraph<f64> = VcLocalGraph::empty(NodeId::new(0));
        let copy = |i| VcVertex::new(Vid::new(i), CopyKind::Mirror, NodeId::new(1), 0.0);
        let at: Vec<u32> = (0..states.len() as u32)
            .map(|i| lg.insert_or_position(copy(i)))
            .collect();
        lg.adopt_full_states(&[(&at, states, &[])]);
        for &pos in &at {
            drop(lg.locations(pos).expect("adopted").to_owned());
        }
    }

    fn empty_batch(master_node: NodeId) -> MirrorBatch<f64> {
        MirrorBatch {
            vids: Vec::new(),
            values: Vec::new(),
            last_activate: Vec::new(),
            master_node,
            metas: FullState::default(),
            lists: Vec::new(),
        }
    }

    fn meta(tag: u32, in_edges: u32, mirrors: &[u32]) -> MasterMeta {
        MasterMeta {
            locations: {
                let nodes: Vec<NodeId> = mirrors.iter().map(|&n| NodeId::new(n)).collect();
                let positions: Vec<u32> = mirrors.iter().map(|&n| tag + n).collect();
                Locations::new(tag, &nodes, &positions, &nodes)
            },
            in_edges: (0..in_edges)
                .map(|i| InEdge {
                    weight: i as f32,
                    src: Vid::new(tag * 10 + i),
                })
                .collect(),
            out_local_owner: (0..tag % 3).collect(),
            out_remote: (0..tag % 4)
                .map(|i| RemoteEdge {
                    consumer: Vid::new(tag * 7 + i),
                })
                .collect(),
        }
    }

    proptest! {
        /// A mirror batch off a socket is input like any other: truncated,
        /// bit-flipped and spliced frames of batches built from loader-built
        /// graphs — each record carrying some of its lists, its in-edges
        /// weighing what the graph says or, `uniform`, all the same — decode to `None`
        /// or to a message that holds together — never a panic, never a span
        /// past its column, never a record without its columns or its list
        /// mask, never memory out of proportion to the input.
        #[test]
        fn hostile_mirror_batch_bytes_never_panic(
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(arb_damage(), 1..4),
            uniform in any::<bool>(),
        ) {
            let cut = HashEdgeCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            for lg in build_edge_cut_graphs(&g, &cut, &plan, &P, &d) {
                let mut batch = empty_batch(lg.node);
                for pos in lg.master_positions() {
                    let v = &lg.verts[pos as usize];
                    if pos % 3 == 0 {
                        batch.values.push((batch.vids.len() as u32, v.value));
                    }
                    let carried = EdgeLists::from_bits(pos as u8 % 8).unwrap();
                    batch.vids.push(v.vid);
                    batch.last_activate.push(v.last_activate);
                    let mut m = lg.full_state(pos).unwrap().to_meta();
                    if uniform {
                        m.in_edges.iter_mut().for_each(|edge| edge.weight = 0.5);
                    }
                    batch.metas.push(m.view().carrying(carried));
                    batch.lists.push(carried);
                }
                let msg = EcMsg::MirrorUpdate(Box::new(batch.clone()));
                let mut frame = Vec::new();
                msg.encode_wire(&mut frame);
                prop_assert_eq!(msg.encoded_len(), frame.len());
                prop_assert_eq!(
                    EcMsg::<f64>::decode_wire(&frame),
                    Some(EcMsg::MirrorUpdate(Box::new(batch)))
                );
                let bad = damaged(frame, &damage);
                let Some(EcMsg::<f64>::MirrorUpdate(back)) = EcMsg::decode_wire(&bad) else {
                    continue;
                };
                let n = back.vids.len();
                prop_assert_eq!((back.last_activate.len(), back.metas.len()), (n, n));
                prop_assert_eq!(back.lists.len(), n);
                prop_assert!(back.values.iter().all(|&(i, _)| (i as usize) < n));
                prop_assert!(back.metas.validate().is_ok());
                ec_adopt(&back.metas, &back.lists);
                let held = back.metas.mem_bytes()
                    + back.vids.capacity() * 4
                    + back.last_activate.capacity()
                    + back.values.capacity() * 16;
                prop_assert!(held <= 1024 + 128 * bad.len(), "{held} B for {}", bad.len());
            }
        }
    }

    proptest! {
        /// Location tables reach a node alone (a snapshot)
        /// and by the batch (a vertex-cut mirror frame): damaged, either
        /// decodes to an error or to tables that hold together — never a
        /// panic, never a count past what a slot's head holds, never words
        /// out of proportion to the input.
        #[test]
        fn hostile_locations_bytes_never_panic(
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(arb_damage(), 1..4),
        ) {
            let cut = RandomVertexCut.partition(&g, parts);
            let plan = plan_for(&g, &cut, k, selfish);
            let d = Degrees::of(&g);
            for lg in build_vertex_cut_graphs(&g, &cut, &plan, &P, &d) {
                let held: Vec<u32> = (0..lg.len() as u32)
                    .filter(|&pos| lg.locations(pos).is_some())
                    .collect();
                for &pos in held.iter().take(4) {
                    let tables = lg.locations(pos).unwrap();
                    let mut bytes = Vec::new();
                    enc_locations(tables, &mut bytes);
                    let back = dec_tables(&bytes);
                    prop_assert_eq!(back, Ok(tables.to_owned()));
                    let bad = damaged(bytes, &damage);
                    if let Ok(back) = dec_tables(&bad) {
                        let back = back.view();
                        let named = back.replica_nodes().len() + back.mirror_nodes().len();
                        prop_assert!(named <= bad.len());
                    }
                }
                let mut batch = empty_batch(lg.node);
                batch.vids = held.iter().map(|&pos| lg.verts[pos as usize].vid).collect();
                batch.last_activate = vec![false; held.len()];
                let records: Vec<_> = held.iter().map(|&pos| (pos, EdgeLists::ALL)).collect();
                (batch.metas, batch.lists) = lg.export_full_states(&records);
                let msg = VcMsg::<f64, f64>::MirrorUpdate(Box::new(batch.clone()));
                let mut frame = Vec::new();
                msg.encode_wire(&mut frame);
                prop_assert_eq!(msg.encoded_len(), frame.len());
                prop_assert_eq!(
                    VcMsg::<f64, f64>::decode_wire(&frame),
                    Some(VcMsg::MirrorUpdate(Box::new(batch)))
                );
                let bad = damaged(frame, &damage);
                let Some(VcMsg::<f64, f64>::MirrorUpdate(back)) = VcMsg::decode_wire(&bad) else {
                    continue;
                };
                let n = back.vids.len();
                prop_assert_eq!((back.last_activate.len(), back.metas.len()), (n, n));
                prop_assert!(back.metas.validate().is_ok());
                prop_assert_eq!(back.metas.column_lens().total(), 0, "tables only");
                prop_assert!(back.lists.is_empty(), "no list mask");
                let held = back.metas.mem_bytes() + back.vids.capacity() * 4 + n;
                prop_assert!(held <= 1024 + 128 * bad.len(), "{held} B for {}", bad.len());
            }
        }
    }

    /// A Rebirth batch of `n` records of every kind, drawn from `seed`:
    /// `state` gives each master and mirror record its full state (and,
    /// edge-cut, the lists it carries); the plain replicas feed consumers
    /// under an odd `seed` and none — no length column — under an even one.
    fn rebirth_batch(
        n: u32,
        seed: u32,
        state: &impl Fn(u32, &mut FullState, &mut Vec<EdgeLists>),
    ) -> RebirthBatch<f64> {
        let kinds = [CopyKind::Master, CopyKind::Mirror, CopyKind::Replica];
        let mut batch = RebirthBatch {
            resume_iter: u64::from(seed),
            num_survivors: n,
            records: Vec::new(),
            replica_lists: Vec::new(),
            consumers: Vec::new(),
            states: FullState::default(),
            lists: Vec::new(),
        };
        for i in 0..n {
            let kind = kinds[(i + seed) as usize % 3];
            batch.records.push(Reborn {
                vid: Vid::new(seed % 1000 + i * 7),
                pos: (i * 5 + seed) % 64,
                kind,
                last_activate: (seed >> (i % 32)) & 1 != 0,
                master_node: NodeId::new(i % 4),
                value: f64::from(i) - 2.5,
            });
            if kind != CopyKind::Replica {
                state(seed % 50 + i, &mut batch.states, &mut batch.lists);
            } else if seed % 2 == 1 {
                batch
                    .consumers
                    .extend((0..i % 4).map(|c| Vid::new(c * 9 + i)));
                batch.replica_lists.push(i % 4);
            } else {
                batch.replica_lists.push(0);
            }
        }
        batch
    }

    /// One message of each of the eight variants, each of `n` records drawn
    /// from `seed`; `state` gives the model's full states (with the lists
    /// each carries, edge-cut) for the mirror and the Rebirth batch.
    fn every_variant<A, G>(
        n: u32,
        seed: u32,
        accum: impl Fn(u32) -> A,
        state: impl Fn(u32, &mut FullState, &mut Vec<EdgeLists>),
    ) -> Vec<ProtoMsg<f64, A, G>> {
        let vid = |i: u32| Vid::new(seed % 100_000 + i * (seed % 13 + 1));
        let value = |i: u32| f64::from(i) * 0.5 - f64::from(seed % 7);
        let bit = |i: u32| (seed >> (i % 32)) & 1 != 0;
        let records = 0..n;
        let (mut metas, mut lists) = (FullState::default(), Vec::new());
        for i in records.clone() {
            state(seed % 50 + i, &mut metas, &mut lists);
        }
        let rebirth = rebirth_batch(n, seed, &state);
        vec![
            ProtoMsg::Sync(
                records
                    .clone()
                    .map(|i| VertexSync {
                        pos: vid(i).raw(),
                        value: value(i),
                        activate: bit(i),
                    })
                    .collect(),
            ),
            ProtoMsg::Gather(records.clone().map(|i| (vid(i), accum(i))).collect()),
            ProtoMsg::Rebirth(Box::new(rebirth), PhantomData),
            ProtoMsg::Promote(
                records
                    .clone()
                    .map(|i| Promotion {
                        vid: vid(i),
                        new_master: NodeId::new(i % 5),
                        new_pos: seed ^ i,
                        old_node: NodeId::new(seed % 5),
                        old_pos: i * 3,
                    })
                    .collect(),
            ),
            ProtoMsg::ReplicaRequest(records.clone().map(vid).collect()),
            ProtoMsg::ReplicaGrant(
                records
                    .clone()
                    .map(|i| ReplicaGrant {
                        vid: vid(i),
                        value: value(i),
                        last_activate: bit(i),
                        master_node: NodeId::new(i % 4),
                    })
                    .collect(),
            ),
            ProtoMsg::ReplicaPlaced(
                records
                    .clone()
                    .map(|i| (vid(i), 2 * i + seed % 9))
                    .collect(),
            ),
            ProtoMsg::MirrorUpdate(Box::new(MirrorBatch {
                vids: records.clone().map(vid).collect(),
                values: records
                    .clone()
                    .filter(|i| (i + seed).is_multiple_of(3))
                    .map(|i| (i, value(i)))
                    .collect(),
                last_activate: records.map(bit).collect(),
                master_node: NodeId::new(seed % 6),
                metas,
                lists,
            })),
        ]
    }

    /// Edge-cut variants: the full states of the mirror and the Rebirth
    /// batch carry lists drawn from their tags, and every in-edge of a batch
    /// weighs the same under an even `seed` (one `f32` on the wire) and its
    /// own weight under an odd one.
    fn ec_variants(n: u32, seed: u32) -> Vec<EcMsg<f64>> {
        every_variant(
            n,
            seed,
            |_| (),
            |tag, metas, lists| {
                let mut m = meta(tag, tag % 4, &[1, 3]);
                if seed.is_multiple_of(2) {
                    m.in_edges.iter_mut().for_each(|edge| edge.weight = 0.25);
                }
                let carried = EdgeLists::from_bits((tag % 8) as u8).unwrap();
                metas.push(m.view().carrying(carried));
                lists.push(carried);
            },
        )
    }

    fn vc_variants(n: u32, seed: u32) -> Vec<VcMsg<f64, f64>> {
        every_variant(n, seed, f64::from, |tag, metas, _| {
            metas.push(FullStateRef::tables(meta(tag, 0, &[1, 2]).locations.view()));
        })
    }

    /// An edge-cut batch of two records whose in-edges weigh `weights`, the
    /// first half the first record's — which carries all its lists — and
    /// the rest the second's, which carries its in-edges alone.
    fn weighted_batch(weights: &[f32]) -> MirrorBatch<f64> {
        let mut batch = empty_batch(NodeId::new(1));
        let halves = weights.split_at(weights.len() / 2);
        for (i, (part, carried)) in [(halves.0, EdgeLists::ALL), (halves.1, EdgeLists::IN_EDGES)]
            .into_iter()
            .enumerate()
        {
            let mut m = meta(10 + i as u32, part.len() as u32, &[2]);
            for (edge, &w) in m.in_edges.iter_mut().zip(part) {
                edge.weight = w;
            }
            batch.vids.push(Vid::new(i as u32));
            batch.last_activate.push(false);
            batch.metas.push(m.view().carrying(carried));
            batch.lists.push(carried);
        }
        batch
    }

    /// The in-edge weights of a batch, as bits, in record order.
    fn weight_bits(batch: &MirrorBatch<f64>) -> Vec<u32> {
        let slots = (0..batch.metas.len()).map(|i| batch.metas.nth(i).in_edges);
        slots
            .flat_map(|edges| edges.iter().map(|e| e.weight.to_bits()))
            .collect()
    }

    /// Where the edge-cut store of a two-record batch writes its weight flag:
    /// behind three one-byte column totals and one byte of list masks.
    const WEIGHT_FLAG: usize = 4;

    /// Both weight layouts come back to the bit: one `f32` for a batch whose
    /// in-edges all weigh the same bits — a NaN payload included — and a
    /// weight per in-edge as soon as one differs, `0.0` beside `-0.0` too.
    #[test]
    fn weights_roundtrip_to_the_bit_in_either_layout() {
        let nan = f32::from_bits(0x7FC0_1234);
        let cases: [(&[f32], bool); 5] = [
            (&[1.0; 6], true),
            (&[nan; 4], true),
            (&[1.0, 1.0, 2.0, 1.0, 1.0], false),
            (&[0.0, -0.0, 0.0, 0.0], false),
            (&[0.5, nan, -0.0, f32::INFINITY], false),
        ];
        for (weights, uniform) in cases {
            let batch = weighted_batch(weights);
            let mut states = Vec::new();
            EcLocalGraph::<f64>::enc_states(&batch.metas, &batch.lists, &mut states);
            assert_eq!(states[WEIGHT_FLAG], u8::from(uniform), "{weights:?}");
            let msg = EcMsg::MirrorUpdate(Box::new(batch.clone()));
            let mut frame = Vec::new();
            msg.encode_wire(&mut frame);
            assert_eq!(msg.encoded_len(), frame.len());
            let Some(EcMsg::MirrorUpdate(back)) = EcMsg::<f64>::decode_wire(&frame) else {
                panic!("{weights:?}: the frame does not decode");
            };
            assert_eq!(weight_bits(&back), weight_bits(&batch), "{weights:?}");
            assert_eq!(format!("{back:?}"), format!("{batch:?}"), "{weights:?}");
        }
        // One weight instead of six: five `f32`s fewer.
        let (same, apart) = (
            weighted_batch(&[1.0; 6]),
            weighted_batch(&[1.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
        );
        let len = |b: MirrorBatch<f64>| EcMsg::MirrorUpdate(Box::new(b)).encoded_len();
        assert_eq!(len(same) + 5 * 4, len(apart));
    }

    /// The edge-cut store's decoder refuses what no encoder writes: a weight
    /// flag other than 0 or 1, a list-mask bit past the third, and column
    /// totals other than what the lists the masks name add up to.
    #[test]
    fn mirror_store_decoder_refuses_flags_masks_and_totals_no_encoder_writes() {
        let batch = weighted_batch(&[1.0, 2.0, 3.0]);
        let mut states = Vec::new();
        EcLocalGraph::<f64>::enc_states(&batch.metas, &batch.lists, &mut states);
        let dec = |bytes: &[u8]| {
            let back = EcLocalGraph::<f64>::dec_states(&mut Reader::new(bytes), 2);
            back.map(|(metas, lists)| (metas == batch.metas, lists))
        };
        assert_eq!(dec(&states), Ok((true, batch.lists.clone())));
        let corrupt = |at: usize, byte: u8| {
            let mut bad = states.clone();
            bad[at] = byte;
            dec(&bad)
        };
        for flag in [2, 3, 0x80, 0xFF] {
            let refused = Err(DecodeError::Corrupt("weight column flag"));
            assert_eq!(corrupt(WEIGHT_FLAG, flag), refused, "flag {flag}");
        }
        let mask = states[WEIGHT_FLAG - 1];
        for bit in [0b1000, 0b1000_0000] {
            assert_eq!(
                corrupt(WEIGHT_FLAG - 1, mask | bit),
                Err(DecodeError::Corrupt("list mask"))
            );
        }
        // The first record carries all three lists and the second its
        // in-edges: totals one off in any column disagree with the masks.
        for (column, &total) in states[..3].iter().enumerate() {
            let totals = Err(DecodeError::Corrupt("column totals"));
            assert_eq!(corrupt(column, total + 1), totals, "column {column}");
        }
        // Masks that stop naming a list the totals count.
        let no_remote = mask & !EdgeLists::OUT_REMOTE.bits();
        assert!(corrupt(WEIGHT_FLAG - 1, no_remote).is_err());
    }

    /// An in-edge is its weight and its source's varint: a frame that ends
    /// inside the first in-edge's weight, or whose first source is a varint
    /// past `u32`, is refused where the run is read.
    #[test]
    fn a_mirror_batch_refuses_a_cut_weight_and_a_source_past_u32() {
        let batch = weighted_batch(&[1.5, 2.5, 3.5, 4.5]);
        let mut frame = Vec::new();
        EcMsg::MirrorUpdate(Box::new(batch.clone())).encode_wire(&mut frame);
        let mut run = Vec::new();
        batch.metas.nth(0).in_edges.put(None, &mut run);
        assert_eq!(
            run.len(),
            1 + 2 * (4 + 1),
            "a count, then weight and source"
        );
        let at = frame.windows(run.len()).position(|w| w == run);
        let at = at.expect("the first record's in-edge run is in the frame");
        let dec = |bytes: &[u8]| EcMsg::<f64>::decode(&mut Reader::new(bytes)).err();
        let cut = dec(&frame[..at + 3]);
        assert!(
            matches!(cut, Some(DecodeError::UnexpectedEof { remaining: 2, .. })),
            "{cut:?}"
        );
        let mut wide = frame.clone();
        wide.splice(at + 5..at + 6, [0xFF, 0xFF, 0xFF, 0xFF, 0x10]);
        assert_eq!(dec(&wide), Some(DecodeError::Corrupt("varint exceeds u32")));
    }

    /// A vertex-cut mirror batch writes its tables and nothing else — no list
    /// mask, no weight column: the bytes it wrote before edge-cut batches
    /// learnt to leave lists out.
    #[test]
    fn a_vertex_cut_mirror_batch_encodes_as_it_always_did() {
        const PINNED: [u8; 46] = [
            6, 3, 3, 10, 8, 198, 4, 25, 0, 0, 0, 0, 0, 0, 4, 64, 3, 2, 1, 4, 2, 5, 2, 1, 2, 70, 2,
            1, 71, 2, 72, 2, 1, 2, 188, 5, 2, 1, 189, 5, 2, 190, 5, 2, 1, 2,
        ];
        let tables = [3u32, 70, 700].map(|tag| meta(tag, 0, &[1, 2]).locations);
        let batch = MirrorBatch {
            vids: [5, 9, 300].map(Vid::new).to_vec(),
            values: vec![(1, 2.5f64)],
            last_activate: vec![true, false, true],
            master_node: NodeId::new(3),
            metas: FullState::of(tables.iter().map(|t| FullStateRef::tables(t.view()))),
            lists: Vec::new(),
        };
        let msg = VcMsg::<f64, f64>::MirrorUpdate(Box::new(batch));
        assert_eq!(roundtrip(&msg), PINNED);
    }

    /// An edge-cut mirror batch — one record carrying every list, one its
    /// in-edges alone, one of them with a value — writes the pinned bytes in
    /// either weight layout: a byte for each of its four in-edges' sources
    /// and a weight each in the per-edge layout, a byte for each of its two
    /// remote out-edges' consumers, under three column totals. Beside them,
    /// what it wrote while a remote out-edge also wrote its consumer's node
    /// (a byte more for each), and before that, while an in-edge also wrote
    /// its source's owner-local position and a store announced a fourth
    /// total: a byte more for each again.
    #[test]
    fn an_edge_cut_mirror_batch_encodes_as_pinned() {
        const UNIFORM: [u8; 46] = [
            6, 1, 2, 0, 2, 8, 0, 0, 0, 0, 0, 0, 224, 191, 4, 1, 2, 23, 1, 0, 0, 128, 63, 10, 1, 2,
            12, 1, 2, 2, 100, 101, 1, 0, 2, 70, 71, 11, 1, 2, 13, 1, 2, 2, 110, 111,
        ];
        const WEIGHED: [u8; 58] = [
            6, 1, 2, 0, 2, 8, 0, 0, 0, 0, 0, 0, 224, 191, 4, 1, 2, 23, 0, 10, 1, 2, 12, 1, 2, 2, 0,
            0, 128, 63, 100, 0, 0, 0, 64, 101, 1, 0, 2, 70, 71, 11, 1, 2, 13, 1, 2, 2, 0, 0, 0, 63,
            110, 0, 0, 0, 63, 111,
        ];
        const UNIFORM_WITH_NODES: [u8; 48] = [
            6, 1, 2, 0, 2, 8, 0, 0, 0, 0, 0, 0, 224, 191, 4, 1, 2, 23, 1, 0, 0, 128, 63, 10, 1, 2,
            12, 1, 2, 2, 100, 101, 1, 0, 2, 0, 70, 1, 71, 11, 1, 2, 13, 1, 2, 2, 110, 111,
        ];
        const WEIGHED_WITH_NODES: [u8; 60] = [
            6, 1, 2, 0, 2, 8, 0, 0, 0, 0, 0, 0, 224, 191, 4, 1, 2, 23, 0, 10, 1, 2, 12, 1, 2, 2, 0,
            0, 128, 63, 100, 0, 0, 0, 64, 101, 1, 0, 2, 0, 70, 1, 71, 11, 1, 2, 13, 1, 2, 2, 0, 0,
            0, 63, 110, 0, 0, 0, 63, 111,
        ];
        const UNIFORM_WITH_POSITIONS: [u8; 53] = [
            6, 1, 2, 0, 2, 8, 0, 0, 0, 0, 0, 0, 224, 191, 4, 4, 1, 2, 23, 1, 0, 0, 128, 63, 10, 1,
            2, 12, 1, 2, 2, 10, 100, 11, 101, 1, 0, 2, 0, 70, 1, 71, 11, 1, 2, 13, 1, 2, 2, 11,
            110, 12, 111,
        ];
        const WEIGHED_WITH_POSITIONS: [u8; 65] = [
            6, 1, 2, 0, 2, 8, 0, 0, 0, 0, 0, 0, 224, 191, 4, 4, 1, 2, 23, 0, 10, 1, 2, 12, 1, 2, 2,
            10, 0, 0, 128, 63, 100, 11, 0, 0, 0, 64, 101, 1, 0, 2, 0, 70, 1, 71, 11, 1, 2, 13, 1,
            2, 2, 11, 0, 0, 0, 63, 110, 12, 0, 0, 0, 63, 111,
        ];
        for (weights, pinned, nodes, before) in [
            (
                &[1.0f32; 4][..],
                &UNIFORM[..],
                &UNIFORM_WITH_NODES[..],
                &UNIFORM_WITH_POSITIONS[..],
            ),
            (
                &[1.0, 2.0, 0.5, 0.5],
                &WEIGHED,
                &WEIGHED_WITH_NODES,
                &WEIGHED_WITH_POSITIONS,
            ),
        ] {
            let mut batch = weighted_batch(weights);
            batch.values.push((1, -0.5));
            let msg = EcMsg::MirrorUpdate(Box::new(batch));
            assert_eq!(roundtrip(&msg), pinned, "{weights:?}");
            assert_eq!(nodes.len(), pinned.len() + 2, "{weights:?}");
            assert_eq!(before.len(), nodes.len() + 4 + 1, "{weights:?}");
        }
    }

    /// Values no `==` holds equal to themselves or tells apart: what a
    /// round trip is held to, bit by bit.
    const ODD_VALUES: [f64; 6] = [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF),
    ];

    /// Encodes and decodes a Rebirth batch whose values are [`ODD_VALUES`]:
    /// every record comes back with its value to the bit, and the rest of
    /// the batch as it was. Returns the batch as decoded.
    fn rebirth_roundtrip<G>(mut batch: RebirthBatch<f64>) -> RebirthBatch<f64>
    where
        G: StoreCodec + PartialEq + std::fmt::Debug,
    {
        let values = ODD_VALUES.iter().cycle();
        for (r, &value) in batch.records.iter_mut().zip(values) {
            r.value = value;
        }
        let msg = ProtoMsg::<f64, (), G>::Rebirth(Box::new(batch.clone()), PhantomData);
        let mut frame = Vec::new();
        msg.encode_wire(&mut frame);
        assert_eq!(msg.encoded_len(), frame.len());
        let Some(ProtoMsg::Rebirth(back, _)) = ProtoMsg::<f64, (), G>::decode_wire(&frame) else {
            panic!("the frame does not decode");
        };
        let bits = |b: &RebirthBatch<f64>| {
            let records = b.records.iter().cloned();
            records
                .map(|r| (r.value.to_bits(), Reborn { value: 0.0, ..r }))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&batch));
        assert_eq!(
            (&back.replica_lists, &back.consumers, &back.lists),
            (&batch.replica_lists, &batch.consumers, &batch.lists)
        );
        assert_eq!(
            (back.resume_iter, back.num_survivors),
            (batch.resume_iter, batch.num_survivors)
        );
        assert_eq!(format!("{:?}", back.states), format!("{:?}", batch.states));
        *back
    }

    /// An edge-cut Rebirth batch — masters and mirrors carrying every list,
    /// in-edges weighing the same and not, plain replicas with consumers and
    /// without — round-trips to the bit: values and weights alike.
    #[test]
    fn an_edge_cut_rebirth_batch_roundtrips_to_the_bit() {
        let weights = [-0.0, 0.0, f32::from_bits(0x7FC0_1234), f32::INFINITY];
        for (seed, uniform) in [(1, false), (3, true), (4, false), (6, true)] {
            let batch = rebirth_batch(13, seed, &|tag, metas, lists| {
                let mut m = meta(tag, 4, &[1, 3]);
                for (edge, &w) in m.in_edges.iter_mut().zip(weights.iter().cycle()) {
                    edge.weight = if uniform { weights[2] } else { w };
                }
                metas.push(m.view());
                lists.push(EdgeLists::ALL);
            });
            let back = rebirth_roundtrip::<EcLocalGraph<f64>>(batch.clone());
            let weight_bits = |b: &RebirthBatch<f64>| {
                let slots = (0..b.states.len()).map(|i| b.states.nth(i).in_edges);
                slots
                    .flat_map(|e| e.iter().map(|e| e.weight.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(weight_bits(&back), weight_bits(&batch), "seed {seed}");
        }
    }

    /// A vertex-cut Rebirth batch — tables for its masters and mirrors, no
    /// consumers — round-trips to the bit, and writes no list-length column.
    #[test]
    fn a_vertex_cut_rebirth_batch_roundtrips_to_the_bit() {
        let tables = |tag, metas: &mut FullState, _: &mut Vec<EdgeLists>| {
            metas.push(FullStateRef::tables(meta(tag, 0, &[0, 2]).locations.view()));
        };
        let batch = rebirth_batch(13, 2, &tables);
        assert!(batch.consumers.is_empty() && batch.replica_lists.iter().all(|&n| n == 0));
        let back = rebirth_roundtrip::<VcLocalGraph<f64>>(batch);
        assert_eq!(back.states.column_lens().total(), 0, "tables only");
    }

    /// A master and two plain replicas feeding three consumers, with the one
    /// full state `state` makes: its frame, and where the total, the list
    /// lengths and the store's slot count sit in it.
    fn small_rebirth<G: StoreCodec>(
        state: impl Fn(u32, &mut FullState, &mut Vec<EdgeLists>),
    ) -> (Vec<u8>, usize, usize, usize) {
        let record = |vid, pos, kind, master_node| Reborn {
            vid: Vid::new(vid),
            pos,
            kind,
            last_activate: vid % 2 == 1,
            master_node: NodeId::new(master_node),
            value: f64::from(vid) * 0.5,
        };
        let mut batch = RebirthBatch {
            resume_iter: 5,
            num_survivors: 2,
            records: vec![
                record(3, 1, CopyKind::Master, 0),
                record(5, 2, CopyKind::Replica, 2),
                record(9, 4, CopyKind::Replica, 1),
            ],
            replica_lists: vec![2, 1],
            consumers: [4, 1, 7].map(Vid::new).to_vec(),
            states: FullState::default(),
            lists: Vec::new(),
        };
        state(7, &mut batch.states, &mut batch.lists);
        let mut store = Vec::new();
        G::enc_states(&batch.states, &batch.lists, &mut store);
        let msg = ProtoMsg::<f64, (), G>::Rebirth(Box::new(batch), PhantomData);
        let mut frame = Vec::new();
        msg.encode_wire(&mut frame);
        // Behind the store its slot count, the three consumers, two lengths
        // and the total: a byte each.
        let slots = frame.len() - store.len() - 1;
        (frame, slots - 6, slots - 5, slots)
    }

    /// The Rebirth decoder refuses what no encoder writes, on either engine:
    /// kind bits that name no copy kind (or set the column's spare bit),
    /// list lengths that disagree with the consumer total, and a store of
    /// other than one slot per master and mirror record.
    fn rebirth_decoder_refuses<G>(state: impl Fn(u32, &mut FullState, &mut Vec<EdgeLists>))
    where
        G: StoreCodec + PartialEq + std::fmt::Debug,
    {
        let (frame, total, lengths, slots) = small_rebirth::<G>(state);
        let dec = |at: usize, byte: u8| {
            let mut bad = frame.clone();
            bad[at] = byte;
            ProtoMsg::<f64, (), G>::decode(&mut Reader::new(&bad)).err()
        };
        assert!(ProtoMsg::<f64, (), G>::decode_wire(&frame).is_some());
        assert_eq!((frame[total], frame[lengths], frame[slots]), (3, 2, 1));
        // Tag, iteration, survivor count, record count, three vids and three
        // positions: the kind column's first byte, the master's in its low
        // nibble.
        let kinds = 10;
        assert_eq!(frame[kinds] & 0b1011, CopyKind::Master.bits());
        let corrupt = Some(DecodeError::Corrupt("copy kind"));
        assert_eq!(dec(kinds, frame[kinds] | 0b11), corrupt);
        assert_eq!(dec(kinds, frame[kinds] | 0b1000), corrupt);
        let totals = Some(DecodeError::Corrupt("replica list totals"));
        assert_eq!(dec(lengths, 3), totals);
        assert_eq!(dec(total, 2), totals);
        for count in [0, 2] {
            assert_eq!(dec(slots, count), Some(DecodeError::Corrupt("store slots")));
        }
    }

    #[test]
    fn rebirth_decoder_refuses_kinds_totals_and_slots_no_encoder_writes() {
        rebirth_decoder_refuses::<EcLocalGraph<f64>>(|tag, metas, lists| {
            metas.push(meta(tag, 2, &[1]).view());
            lists.push(EdgeLists::ALL);
        });
        rebirth_decoder_refuses::<VcLocalGraph<f64>>(|tag, metas, _| {
            metas.push(FullStateRef::tables(meta(tag, 0, &[1]).locations.view()));
        });
    }

    /// Encodes, counts and decodes `m`: the counting sink agrees with the
    /// buffer, and the buffer decodes to `m`.
    fn roundtrip<A, G>(m: &ProtoMsg<f64, A, G>) -> Vec<u8>
    where
        A: Encode + Decode + PartialEq + std::fmt::Debug,
        G: StoreCodec + PartialEq + std::fmt::Debug,
    {
        let mut buf = Vec::new();
        m.encode_wire(&mut buf);
        assert_eq!(m.encoded_len(), buf.len(), "{m:?}");
        assert_eq!(ProtoMsg::decode_wire(&buf).as_ref(), Some(m));
        buf
    }

    /// The metadata snapshots of the graphs the loaders build over `g` on
    /// `parts` nodes at tolerance `k`, both engines, as Rebirth messages.
    fn self_batches(
        g: &Graph,
        parts: usize,
        k: usize,
        selfish: bool,
    ) -> (Vec<EcMsg<f64>>, Vec<VcMsg<f64, f64>>) {
        fn msg<M: ComputeModel>(
            model: &M,
            lg: &M::Graph,
        ) -> ProtoMsg<M::Value, M::Accum, M::Graph> {
            let batch = decode_meta::<_, M::Graph>(&encode_meta(model, lg));
            ProtoMsg::Rebirth(Box::new(batch.expect("a snapshot decodes")), PhantomData)
        }
        let d = Degrees::of(g);
        let cut = HashEdgeCut.partition(g, parts);
        let plan = plan_for(g, &cut, k, selfish);
        let model = EcModel { prog: Arc::new(P) };
        let lgs = build_edge_cut_graphs(g, &cut, &plan, &P, &d);
        let ec = lgs.iter().map(|lg| msg(&model, lg)).collect();
        let cut = RandomVertexCut.partition(g, parts);
        let plan = plan_for(g, &cut, k, selfish);
        let model = VcModel { prog: Arc::new(P) };
        let lgs = build_vertex_cut_graphs(g, &cut, &plan, &P, &d);
        (ec, lgs.iter().map(|lg| msg(&model, lg)).collect())
    }

    /// The records `bytes` decode to, if they decode: room for each, as a
    /// list's capacity. A Rebirth batch must hold together: a list length
    /// per plain replica adding up to its consumers, a slot per master and
    /// mirror record, a store that validates. A store either batch brings is
    /// handed to `adopt` with its list masks.
    fn records<A: Decode, G: StoreCodec>(
        bytes: &[u8],
        adopt: fn(&FullState, &[EdgeLists]),
    ) -> Option<usize> {
        Some(
            match ProtoMsg::<f64, A, G>::decode(&mut Reader::new(bytes)).ok()? {
                ProtoMsg::Sync(recs) => recs.capacity(),
                ProtoMsg::Gather(recs) => recs.capacity(),
                ProtoMsg::Rebirth(b, _) => {
                    let replicas = b.records.iter().filter(|r| r.kind == CopyKind::Replica);
                    let replicas = replicas.count();
                    let listed: u32 = b.replica_lists.iter().sum();
                    assert_eq!(b.replica_lists.len(), replicas);
                    assert_eq!(listed as usize, b.consumers.len());
                    assert_eq!(b.states.len(), b.records.len() - replicas);
                    assert!(b.states.validate().is_ok());
                    adopt(&b.states, &b.lists);
                    b.records.capacity().max(b.consumers.capacity())
                }
                ProtoMsg::Promote(ps) => ps.capacity(),
                ProtoMsg::ReplicaRequest(vids) => vids.capacity(),
                ProtoMsg::ReplicaGrant(gs) => gs.capacity(),
                ProtoMsg::ReplicaPlaced(ps) => ps.capacity(),
                ProtoMsg::MirrorUpdate(b) => {
                    adopt(&b.metas, &b.lists);
                    b.vids.capacity().max(b.values.capacity())
                }
            },
        )
    }

    /// Every message at the record counts on both sides of a bit column's
    /// byte boundary: the count is the written length, and the bytes decode
    /// back to the message.
    #[test]
    fn encoded_len_is_the_written_length_at_bit_column_boundaries() {
        for n in [0, 1, 7, 8, 9] {
            for seed in [0, 7, 0xDEAD_BEEF] {
                ec_variants(n, seed).iter().for_each(|m| drop(roundtrip(m)));
                vc_variants(n, seed).iter().for_each(|m| drop(roundtrip(m)));
            }
        }
    }

    proptest! {
        /// Whatever a socket delivers is input like any other: truncated,
        /// bit-flipped, spliced and count-inflated (past `u16::MAX` and
        /// near 2^49) encodings of all eight variants under both models —
        /// edge-cut mirror and Rebirth batches with every list mask and both
        /// weight layouts, Rebirth batches with and without consumer lists —
        /// decode to a `DecodeError` or to a message that holds together, of no more
        /// records than the input has bytes — never a panic, never memory
        /// sized by a count the input merely claims. A store that decodes is
        /// adopted and every run it brings read back: a run is checked where
        /// it enters, not where it is first read. The Rebirth batches
        /// include the metadata snapshots of loader-built graphs: the batch
        /// each node writes to rebuild itself from the DFS.
        #[test]
        fn hostile_proto_msg_bytes_never_panic(
            n in 0u32..24,
            seed in any::<u32>(),
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(
                prop_oneof![arb_damage(), any::<usize>().prop_map(Damage::InflateWide)],
                1..4,
            ),
        ) {
            let (ec_selves, vc_selves) = self_batches(&g, parts, k, selfish);
            for msg in ec_variants(n, seed).into_iter().chain(ec_selves) {
                let bad = damaged(roundtrip(&msg), &damage);
                let n = records::<(), EcLocalGraph<f64>>(&bad, ec_adopt);
                prop_assert!(n.is_none_or(|n| n <= bad.len()), "{n:?} records, {} B", bad.len());
            }
            for msg in vc_variants(n, seed).into_iter().chain(vc_selves) {
                let bad = damaged(roundtrip(&msg), &damage);
                let n = records::<f64, VcLocalGraph<f64>>(&bad, vc_adopt);
                prop_assert!(n.is_none_or(|n| n <= bad.len()), "{n:?} records, {} B", bad.len());
            }
        }
    }

    #[test]
    fn wire_codec_rejects_garbage() {
        assert_eq!(EcMsg::<f64>::decode_wire(&[]), None);
        assert_eq!(EcMsg::<f64>::decode_wire(&[0xFF, 0, 0]), None);
        // Trailing bytes after a well-formed scalar message.
        let mut buf = Vec::new();
        EcMsg::<f64>::ReplicaRequest(vec![Vid::new(1)]).encode_wire(&mut buf);
        buf.push(0);
        assert_eq!(EcMsg::<f64>::decode_wire(&buf), None);
        // Truncated payload.
        buf.pop();
        buf.pop();
        assert_eq!(EcMsg::<f64>::decode_wire(&buf), None);
    }
}
