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

use imitator_cluster::{NodeId, WireCodec};
use imitator_engine::{
    CopyKind, EdgeLists, FullState, FullStateRef, Locations, MasterMeta, StoreLens,
};
use imitator_graph::Vid;
use imitator_storage::codec::{Decode, DecodeError, Encode, Reader, Sink};

use crate::ckpt::{
    dec_column_lens, dec_copy_flags, dec_edge_lists_into, dec_lists_into, dec_locations,
    dec_locations_into, dec_meta, ec_copy_flags, enc_column_lens, enc_edge_lists, enc_lists,
    enc_locations, enc_meta,
};
use crate::columns::{
    dec_bits, dec_count, dec_deltas, dec_node, dec_u32, dec_u64, dec_vid, enc_bits, enc_count,
    enc_deltas, enc_node, enc_u32, enc_u64, enc_vid,
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
/// Position-addressed, like the recovery entries (§5.1.2): the master knows
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

/// One recovered vertex copy, shipped to the node reconstructing it.
///
/// Position-addressed (§5.1.2): the receiver places it straight into its
/// vertex array slot, no lookups, no contention.
#[derive(Debug, Clone, PartialEq)]
pub struct EcRecoverEntry<V> {
    /// The vertex.
    pub vid: Vid,
    /// Array position on the node being reconstructed.
    pub pos: u32,
    /// Role the copy had there.
    pub kind: CopyKind,
    /// Node mastering the vertex (post-recovery view).
    pub master_node: NodeId,
    /// Last committed value.
    pub value: V,
    /// Last synchronised scatter bit, replayed to rebuild activation.
    pub last_activate: bool,
    /// Whether the master considers the vertex active (only meaningful when
    /// `kind` is `Master` and the sender *is* the master's own node — for
    /// mirror-recovered masters activation comes from replay instead).
    pub active: bool,
    /// In-edges in reconstructed-node-local positions (masters only).
    pub in_edges: Vec<(u32, f32)>,
    /// Out-edge targets in reconstructed-node-local positions.
    pub out_local: Vec<u32>,
    /// Full state (masters and mirrors).
    pub meta: Option<Box<MasterMeta>>,
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
/// accumulator `A` and Rebirth recovery entry `E`.
///
/// Both compute models speak this one protocol; the [`EcMsg`] and [`VcMsg`]
/// aliases pin the type parameters per model (the edge-cut model never
/// sends `Gather` — its gather is fused into local compute).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoMsg<V, A, E> {
    /// Gather phase: partial accumulators, edge holder → master
    /// (vertex-cut only).
    Gather(Vec<(Vid, A)>),
    /// Normal-execution value synchronisation, master → replicas.
    Sync(Vec<VertexSync<V>>),
    /// Rebirth: survivor → newbie reconstruction batch.
    Rebirth(Box<RebirthBatch<E>>),
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

/// A survivor's complete contribution to one Rebirth reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct RebirthBatch<E> {
    /// Iteration at which the cluster resumes after recovery.
    pub resume_iter: u64,
    /// Number of surviving nodes contributing batches (the newbie counts
    /// arrivals against this).
    pub num_survivors: u32,
    /// Recovered copies.
    pub entries: Vec<E>,
}

/// Edge-cut cluster messages ([`ProtoMsg`] instantiated for the edge-cut
/// model; the unused `Gather` accumulator is `()`).
pub type EcMsg<V> = ProtoMsg<V, (), EcRecoverEntry<V>>;

/// Vertex-cut cluster messages.
pub type VcMsg<V, A> = ProtoMsg<V, A, VcRecoverEntry<V>>;

/// A vertex-cut recovered copy (no edges — those come from edge-ckpt files).
#[derive(Debug, Clone, PartialEq)]
pub struct VcRecoverEntry<V> {
    /// The vertex.
    pub vid: Vid,
    /// Array position on the node being reconstructed.
    pub pos: u32,
    /// Role the copy had there.
    pub kind: CopyKind,
    /// Node mastering the vertex.
    pub master_node: NodeId,
    /// Last committed value.
    pub value: V,
    /// Full state (masters and mirrors).
    pub meta: Option<Box<Locations>>,
}

// ---------------------------------------------------------------------------
// On-the-wire codec.
//
// Every message is a tag byte and then columns ([`crate::columns`]). The
// batch-shaped variants are the frames of [`crate::wire`], dispatched by
// their frame tags. A recovery message writes every ID, node, position,
// count and iteration as a uvarint, a list's vertex IDs (and Migration's
// placed positions) as a delta column, a per-record bool as a bit of a bit
// column, and a copy's kind and flags as one byte; full replica state is the
// checkpoint meta codec's. Every encoder writes into a [`Sink`], so the same
// walk that fills a socket's buffer counts a message's bytes.
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

fn enc_batch<E: Encode, S: Sink>(b: &RebirthBatch<E>, out: &mut S) {
    enc_u64(b.resume_iter, out);
    enc_u32(b.num_survivors, out);
    enc_count(b.entries.len(), out);
    for e in &b.entries {
        e.encode(out);
    }
}

fn dec_batch<E: Decode>(r: &mut Reader<'_>) -> Result<RebirthBatch<E>, DecodeError> {
    let (resume_iter, num_survivors) = (dec_u64(r)?, dec_u32(r)?);
    let n = dec_count(r)?;
    Ok(RebirthBatch {
        resume_iter,
        num_survivors,
        entries: (0..n).map(|_| E::decode(r)).collect::<Result<_, _>>()?,
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
/// model writes them ([`WireEntry::enc_states`]).
fn enc_mirror_batch<V: Encode, E: WireEntry, S: Sink>(b: &MirrorBatch<V>, out: &mut S) {
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
    E::enc_states(&b.metas, &b.lists, out);
}

/// Decodes a mirror batch; [`WireEntry::dec_states`] is handed the record
/// count and must come back with exactly that many full states (and list
/// masks, if the model writes any).
fn dec_mirror_batch<V: Decode, E: WireEntry>(
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
    let (metas, lists) = E::dec_states(r, n)?;
    Ok(MirrorBatch {
        vids,
        values,
        last_activate,
        master_node,
        metas,
        lists,
    })
}

/// What differs between the two models' wire protocols: a Rebirth recovery
/// entry (its own codec) and how a mirror batch's full-state store, and the
/// edge lists each slot of it carries, are written.
pub(crate) trait WireEntry: Encode + Decode + Clone + Send + 'static {
    fn enc_states<S: Sink>(metas: &FullState, lists: &[EdgeLists], out: &mut S);
    /// Reads back `n` full states and the lists they carry.
    fn dec_states(r: &mut Reader<'_>, n: usize)
        -> Result<(FullState, Vec<EdgeLists>), DecodeError>;
}

/// The copy as a graph snapshot writes it ([`crate::ckpt::encode_ec_graph`]),
/// its position in place of the snapshot's implicit one and its full state
/// always in message form.
impl<V: Encode> Encode for EcRecoverEntry<V> {
    fn encode<S: Sink>(&self, out: &mut S) {
        enc_vid(self.vid, out);
        enc_u32(self.pos, out);
        let meta = self.meta.is_some();
        let flags = ec_copy_flags(self.kind, self.active, self.last_activate, meta);
        out.put_byte(flags);
        enc_node(self.master_node, out);
        self.value.encode(out);
        enc_edge_lists(&self.in_edges, &self.out_local, out);
        if let Some(m) = &self.meta {
            enc_meta(m.view(), out);
        }
    }
}

impl<V: Decode> Decode for EcRecoverEntry<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (vid, pos) = (dec_vid(r)?, dec_u32(r)?);
        let (kind, flags) = dec_copy_flags(r, 5)?;
        let (master_node, value) = (dec_node(r)?, V::decode(r)?);
        let (mut in_edges, mut out_local) = (Vec::new(), Vec::new());
        dec_edge_lists_into(r, &mut in_edges, &mut out_local)?;
        Ok(EcRecoverEntry {
            vid,
            pos,
            kind,
            master_node,
            value,
            last_activate: flags & 0b1000 != 0,
            active: flags & 0b100 != 0,
            in_edges,
            out_local,
            meta: (flags & 0b1_0000 != 0)
                .then(|| dec_meta(r).map(Box::new))
                .transpose()?,
        })
    }
}

/// The weight every in-edge of `metas` has, to the bit, if it has any.
fn uniform_weight(metas: &FullState) -> Option<f32> {
    let slots = (0..metas.len()).map(|i| metas.nth(i).in_edges_owner);
    let mut weights = slots.flat_map(|in_edges| in_edges.iter().map(|&(_, w)| w.to_bits()));
    let first = weights.next()?;
    weights.all(|w| w == first).then(|| f32::from_bits(first))
}

impl<V: Encode + Decode + Clone + Send + 'static> WireEntry for EcRecoverEntry<V> {
    /// The four column totals, so that the decoder sizes each column once;
    /// the lists each slot carries, a four-bit column; the weight column's
    /// flag byte — 1, then the one `f32` every in-edge of the batch weighs
    /// (to the bit), when there is one; 0, when each in-edge carries its
    /// own —; then every slot's tables and the lists it carries
    /// ([`enc_lists`]).
    fn enc_states<S: Sink>(metas: &FullState, lists: &[EdgeLists], out: &mut S) {
        debug_assert_eq!(lists.len(), metas.len(), "one list mask per slot");
        enc_column_lens(metas.column_lens(), out);
        enc_bits(4, lists.iter().map(|lists| lists.bits()), out);
        let uniform = uniform_weight(metas);
        out.put_byte(u8::from(uniform.is_some()));
        if let Some(w) = uniform {
            w.encode(out);
        }
        for (i, &carried) in lists.iter().enumerate() {
            enc_lists(metas.nth(i), carried, uniform, out);
        }
    }

    /// Reads the store back, refusing a mask bit past the third, a weight
    /// flag other than 0 or 1 and column totals other than what the carried
    /// lists add up to.
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
        let mut metas = FullState::default();
        metas.reserve_exact(StoreLens {
            slots: n,
            words: 0,
            edges: lens,
        });
        let mut meta = MasterMeta::default();
        for &carried in &lists {
            dec_lists_into(r, carried, uniform, &mut meta)?;
            metas.push(meta.view());
        }
        if metas.column_lens() != lens {
            return Err(DecodeError::Corrupt("column totals"));
        }
        Ok((metas, lists))
    }
}

/// The copy as a vertex-cut graph snapshot writes it, with its position:
/// kind (2 bits) | has tables in its flag byte.
impl<V: Encode> Encode for VcRecoverEntry<V> {
    fn encode<S: Sink>(&self, out: &mut S) {
        enc_vid(self.vid, out);
        enc_u32(self.pos, out);
        out.put_byte(self.kind.bits() | u8::from(self.meta.is_some()) << 2);
        enc_node(self.master_node, out);
        self.value.encode(out);
        if let Some(m) = &self.meta {
            enc_locations(m.view(), out);
        }
    }
}

impl<V: Decode> Decode for VcRecoverEntry<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (vid, pos) = (dec_vid(r)?, dec_u32(r)?);
        let (kind, flags) = dec_copy_flags(r, 3)?;
        Ok(VcRecoverEntry {
            vid,
            pos,
            kind,
            master_node: dec_node(r)?,
            value: V::decode(r)?,
            meta: (flags & 0b100 != 0)
                .then(|| dec_locations(r).map(Box::new))
                .transpose()?,
        })
    }
}

impl<V: Encode + Decode + Clone + Send + 'static> WireEntry for VcRecoverEntry<V> {
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
impl<V: Encode, A: Encode, E: WireEntry> Encode for ProtoMsg<V, A, E> {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            ProtoMsg::Sync(recs) => {
                put_sync_head(out, recs.len(), |i| (recs[i].pos, recs[i].activate));
                for s in recs {
                    s.value.encode(out);
                }
            }
            ProtoMsg::Gather(recs) => encode_gather_frame(recs.iter().map(|(v, a)| (*v, a)), out),
            ProtoMsg::Rebirth(b) => {
                out.put_byte(TAG_REBIRTH);
                enc_batch(b, out);
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
                enc_mirror_batch::<V, E, S>(b, out);
            }
        }
    }
}

/// Reads one whole message: the input must end where the message does.
/// Every count is held to the input before anything is sized from it, so
/// what a decode reserves stays within a constant of the input's size.
impl<V: Decode, A: Decode, E: WireEntry> Decode for ProtoMsg<V, A, E> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let msg = match r.take(1)?[0] {
            SYNC_FRAME_TAG => ProtoMsg::Sync(dec_sync_body(r)?),
            GATHER_FRAME_TAG => ProtoMsg::Gather(dec_gather_body(r)?),
            TAG_REBIRTH => ProtoMsg::Rebirth(Box::new(dec_batch(r)?)),
            TAG_PROMOTE => ProtoMsg::Promote(dec_promotions(r)?),
            TAG_REPLICA_REQUEST => ProtoMsg::ReplicaRequest(dec_vids(r)?),
            TAG_REPLICA_GRANT => ProtoMsg::ReplicaGrant(dec_grants(r)?),
            TAG_REPLICA_PLACED => ProtoMsg::ReplicaPlaced(dec_placed(r)?),
            TAG_MIRROR_UPDATE => ProtoMsg::MirrorUpdate(Box::new(dec_mirror_batch::<V, E>(r)?)),
            _ => return Err(DecodeError::Corrupt("message tag")),
        };
        match r.remaining() {
            0 => Ok(msg),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

impl<V, A, E> WireCodec for ProtoMsg<V, A, E>
where
    V: Encode + Decode,
    A: Encode + Decode,
    E: WireEntry,
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
    use crate::ckpt::tests::{arb_damage, arb_graph, arb_shape, damaged, plan_for, Damage, P};
    use imitator_algos::RankValue;
    use imitator_engine::{
        build_edge_cut_graphs, build_vertex_cut_graphs, Degrees, FullStateBatches, RemoteEdge,
    };
    use imitator_metrics::MemSize;
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };
    use proptest::prelude::*;

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
            in_edges_owner: (0..in_edges).map(|i| (tag + i, i as f32)).collect(),
            in_edge_srcs: (0..in_edges).map(|i| Vid::new(tag * 10 + i)).collect(),
            out_local_owner: (0..tag % 3).collect(),
            out_remote: (0..tag % 4)
                .map(|i| RemoteEdge {
                    node: NodeId::new(i),
                    pos: tag * 7 + i,
                })
                .collect(),
        }
    }

    proptest! {
        /// A mirror batch off a socket is input like any other: truncated,
        /// bit-flipped and spliced frames of batches built from loader-built
        /// graphs — each record carrying some of its lists — decode to `None`
        /// or to a message that holds together — never a panic, never a span
        /// past its column, never a record without its columns or its list
        /// mask, never memory out of proportion to the input.
        #[test]
        fn hostile_mirror_batch_bytes_never_panic(
            (g, (parts, k, selfish)) in (arb_graph(), arb_shape()),
            damage in proptest::collection::vec(arb_damage(), 1..4),
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
                    batch.metas.push(lg.full_state(pos).unwrap().carrying(carried));
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
                let held = back.metas.mem_bytes()
                    + back.vids.capacity() * 4
                    + back.last_activate.capacity()
                    + back.values.capacity() * 16;
                prop_assert!(held <= 1024 + 128 * bad.len(), "{held} B for {}", bad.len());
            }
        }
    }

    proptest! {
        /// Location tables reach a node alone (a recovery entry, a snapshot)
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
                    let back = dec_locations(&mut Reader::new(&bytes));
                    prop_assert_eq!(back, Ok(tables.to_owned()));
                    let bad = damaged(bytes, &damage);
                    if let Ok(back) = dec_locations(&mut Reader::new(&bad)) {
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

    /// An edge-cut Rebirth entry of every kind and shape, from `i`.
    fn ec_entry(i: u32) -> EcRecoverEntry<f64> {
        let kinds = [CopyKind::Master, CopyKind::Mirror, CopyKind::Replica];
        EcRecoverEntry {
            vid: Vid::new(i * 7 + 3),
            pos: i,
            kind: kinds[i as usize % 3],
            master_node: NodeId::new(i % 4),
            value: f64::from(i) - 2.5,
            last_activate: i.is_multiple_of(2),
            active: i % 4 == 1,
            in_edges: (0..i % 3).map(|e| (e + i, e as f32)).collect(),
            out_local: (0..i % 4).collect(),
            meta: (i % 3 != 2).then(|| Box::new(meta(i, i % 3, &[1, 3]))),
        }
    }

    fn vc_entry(i: u32) -> VcRecoverEntry<f64> {
        let kinds = [CopyKind::Master, CopyKind::Mirror, CopyKind::Replica];
        VcRecoverEntry {
            vid: Vid::new(i * 5 + 1),
            pos: i,
            kind: kinds[i as usize % 3],
            master_node: NodeId::new(i % 3),
            value: f64::from(i) * 0.25,
            meta: (i % 3 != 2).then(|| Box::new(meta(i, 0, &[0, 2]).locations)),
        }
    }

    /// One message of each of the eight variants, each of `n` records drawn
    /// from `seed`; `entry` and `state` give the model's Rebirth entries and
    /// mirror-batch full states (with the lists each carries, edge-cut).
    fn every_variant<A, E>(
        n: u32,
        seed: u32,
        accum: impl Fn(u32) -> A,
        entry: impl Fn(u32) -> E,
        state: impl Fn(u32, &mut FullState, &mut Vec<EdgeLists>),
    ) -> Vec<ProtoMsg<f64, A, E>> {
        let vid = |i: u32| Vid::new(seed % 100_000 + i * (seed % 13 + 1));
        let value = |i: u32| f64::from(i) * 0.5 - f64::from(seed % 7);
        let bit = |i: u32| (seed >> (i % 32)) & 1 != 0;
        let records = 0..n;
        let (mut metas, mut lists) = (FullState::default(), Vec::new());
        for i in records.clone() {
            state(seed % 50 + i, &mut metas, &mut lists);
        }
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
            ProtoMsg::Rebirth(Box::new(RebirthBatch {
                resume_iter: u64::from(seed),
                num_survivors: n,
                entries: records.clone().map(entry).collect(),
            })),
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

    /// Edge-cut variants: the mirror batch's records carry lists drawn from
    /// their tags, and every in-edge of it weighs the same under an even
    /// `seed` (one `f32` on the wire) and its own weight under an odd one.
    fn ec_variants(n: u32, seed: u32) -> Vec<EcMsg<f64>> {
        every_variant(
            n,
            seed,
            |_| (),
            ec_entry,
            |tag, metas, lists| {
                let mut m = meta(tag, tag % 4, &[1, 3]);
                if seed.is_multiple_of(2) {
                    m.in_edges_owner.iter_mut().for_each(|edge| edge.1 = 0.25);
                }
                let carried = EdgeLists::from_bits((tag % 8) as u8).unwrap();
                metas.push(m.view().carrying(carried));
                lists.push(carried);
            },
        )
    }

    fn vc_variants(n: u32, seed: u32) -> Vec<VcMsg<f64, f64>> {
        every_variant(n, seed, f64::from, vc_entry, |tag, metas, _| {
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
            for (edge, &w) in m.in_edges_owner.iter_mut().zip(part) {
                edge.1 = w;
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
        let slots = (0..batch.metas.len()).map(|i| batch.metas.nth(i).in_edges_owner);
        slots
            .flat_map(|edges| edges.iter().map(|e| e.1.to_bits()))
            .collect()
    }

    /// Where the edge-cut store of a two-record batch writes its weight flag:
    /// behind four one-byte column totals and one byte of list masks.
    const WEIGHT_FLAG: usize = 5;

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
            EcRecoverEntry::<f64>::enc_states(&batch.metas, &batch.lists, &mut states);
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
        EcRecoverEntry::<f64>::enc_states(&batch.metas, &batch.lists, &mut states);
        let dec = |bytes: &[u8]| {
            let back = EcRecoverEntry::<f64>::dec_states(&mut Reader::new(bytes), 2);
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
        for (column, &total) in states[..4].iter().enumerate() {
            let totals = Err(DecodeError::Corrupt("column totals"));
            assert_eq!(corrupt(column, total + 1), totals, "column {column}");
        }
        // Masks that stop naming a list the totals count.
        let no_remote = mask & !EdgeLists::OUT_REMOTE.bits();
        assert!(corrupt(WEIGHT_FLAG - 1, no_remote).is_err());
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

    /// Encodes, counts and decodes `m`: the counting sink agrees with the
    /// buffer, and the buffer decodes to `m`.
    fn roundtrip<A, E>(m: &ProtoMsg<f64, A, E>) -> Vec<u8>
    where
        A: Encode + Decode + PartialEq + std::fmt::Debug,
        E: WireEntry + PartialEq + std::fmt::Debug,
    {
        let mut buf = Vec::new();
        m.encode_wire(&mut buf);
        assert_eq!(m.encoded_len(), buf.len(), "{m:?}");
        assert_eq!(ProtoMsg::decode_wire(&buf).as_ref(), Some(m));
        buf
    }

    /// The records `bytes` decode to, if they decode: room for each, as a
    /// list's capacity.
    fn records<A: Decode, E: WireEntry>(bytes: &[u8]) -> Option<usize> {
        Some(
            match ProtoMsg::<f64, A, E>::decode(&mut Reader::new(bytes)).ok()? {
                ProtoMsg::Sync(recs) => recs.capacity(),
                ProtoMsg::Gather(recs) => recs.capacity(),
                ProtoMsg::Rebirth(b) => b.entries.capacity(),
                ProtoMsg::Promote(ps) => ps.capacity(),
                ProtoMsg::ReplicaRequest(vids) => vids.capacity(),
                ProtoMsg::ReplicaGrant(gs) => gs.capacity(),
                ProtoMsg::ReplicaPlaced(ps) => ps.capacity(),
                ProtoMsg::MirrorUpdate(b) => b.vids.capacity().max(b.values.capacity()),
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
        /// edge-cut mirror batches with every list mask and both weight
        /// layouts — decode to a `DecodeError` or to a message of no more
        /// records than the input has bytes — never a panic, never memory
        /// sized by a count the input merely claims.
        #[test]
        fn hostile_proto_msg_bytes_never_panic(
            n in 0u32..24,
            seed in any::<u32>(),
            damage in proptest::collection::vec(
                prop_oneof![arb_damage(), any::<usize>().prop_map(Damage::InflateWide)],
                1..4,
            ),
        ) {
            for msg in ec_variants(n, seed) {
                let bad = damaged(roundtrip(&msg), &damage);
                let n = records::<(), EcRecoverEntry<f64>>(&bad);
                prop_assert!(n.is_none_or(|n| n <= bad.len()), "{n:?} records, {} B", bad.len());
            }
            for msg in vc_variants(n, seed) {
                let bad = damaged(roundtrip(&msg), &damage);
                let n = records::<f64, VcRecoverEntry<f64>>(&bad);
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
