//! Wire message types.
//!
//! Messages travel between simulated nodes as owned values over channels;
//! byte sizes are *accounted* (for the paper's communication-cost numbers)
//! rather than serialised. Only DFS content (checkpoints, edge-ckpt files)
//! goes through the binary codec. Batch-shaped messages — [`ProtoMsg::Sync`],
//! [`ProtoMsg::Gather`], [`ProtoMsg::MirrorUpdate`] — are charged as
//! [columnar frames](crate::wire): one frame header per destination per
//! superstep, positions/IDs as zigzag-varint delta columns. The remaining
//! recovery messages are charged per record against the scalar codec; the
//! `accounted_sizes_match_codec` test pins both equalities.

use imitator_cluster::{NodeId, WireCodec};
use imitator_engine::{CopyKind, FullState, FullStateRef, Locations, MasterMeta, StoreLens};
use imitator_graph::Vid;
use imitator_storage::codec::{read_uvarint, write_uvarint, Decode, DecodeError, Encode, Reader};

use crate::ckpt::{
    dec_column_lens, dec_locations, dec_locations_into, dec_meta, dec_meta_into, enc_column_lens,
    enc_locations, enc_meta, kind_bits, kind_from_bits,
};
use crate::wire::{
    decode_gather_frame, decode_sync_frame, encode_gather_frame, encode_sync_frame, SyncRecEnc,
    GATHER_FRAME_TAG, SYNC_FRAME_TAG,
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

impl<V> EcRecoverEntry<V> {
    /// Accounted wire size of one entry, matching the storage codec's
    /// encoding of every field except `meta` (mirror full state is charged
    /// separately by the meta-refresh estimates): `vid + pos + kind +
    /// master_node + value + last_activate + active + in_edges (length
    /// prefix + 8 per edge) + out_local (length prefix + 4 per target) +
    /// meta presence flag`.
    pub fn wire_bytes(value_bytes: usize, in_edges: usize, out_local: usize) -> usize {
        4 + 4 + 1 + 4 + value_bytes + 1 + 1 + (8 + 8 * in_edges) + (8 + 4 * out_local) + 1
    }
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
    /// store without edge rows).
    pub metas: FullState,
}

impl<V> MirrorBatch<V> {
    /// Accounted bytes of the batch as one mirror frame: frame header,
    /// vertex-ID column (zigzag deltas between consecutive records), and
    /// `meta_bytes(i)` — the model's meta/value payload estimate — per
    /// record. Empty batches — pure barrier traffic — are free.
    pub fn frame_bytes(&self, meta_bytes: impl Fn(usize) -> u64) -> u64 {
        if self.vids.is_empty() {
            return 0;
        }
        let mut prev = 0u32;
        let mut bytes = crate::wire::small_frame_overhead(self.vids.len() as u64);
        for (i, vid) in self.vids.iter().enumerate() {
            bytes += crate::wire::col_delta_bytes(vid.raw(), prev) + meta_bytes(i);
            prev = vid.raw();
        }
        bytes
    }
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

impl<V> VcRecoverEntry<V> {
    /// Accounted wire size of one entry, matching the storage codec's
    /// encoding of every field except `meta` (charged separately): `vid +
    /// pos + kind + master_node + value + meta presence flag`.
    pub fn wire_bytes(value_bytes: usize) -> usize {
        4 + 4 + 1 + 4 + value_bytes + 1
    }
}

// ---------------------------------------------------------------------------
// On-the-wire codec (TCP transport).
//
// In-process transports move `ProtoMsg` as owned values; the TCP backend
// serialises them. The batch-shaped variants go through the columnar
// frame codecs from [`crate::wire`] — the same layouts the byte accounting
// charges — dispatched by their frame tags; the recovery variants get one
// tag byte plus the scalar storage codec, reusing the checkpoint meta
// codecs for full replica state. Sync frames always carry full values on
// the wire (`span: None`): delta payloads need the receiver's base value,
// which a frame decoded off a socket cannot consult.
// ---------------------------------------------------------------------------

const TAG_REBIRTH: u8 = 0x01;
const TAG_PROMOTE: u8 = 0x02;
const TAG_REPLICA_REQUEST: u8 = 0x03;
const TAG_REPLICA_GRANT: u8 = 0x04;
const TAG_REPLICA_PLACED: u8 = 0x05;
const TAG_MIRROR_UPDATE: u8 = 0x06;

fn dec_vid(r: &mut Reader<'_>) -> Result<Vid, DecodeError> {
    Ok(Vid::new(u32::decode(r)?))
}

fn dec_node(r: &mut Reader<'_>) -> Result<NodeId, DecodeError> {
    Ok(NodeId::new(u32::decode(r)?))
}

/// Reads a collection length, rejecting prefixes that exceed the payload
/// (every element encodes to at least one byte).
fn dec_len(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let n = read_uvarint(r)? as usize;
    if n > r.remaining() {
        return Err(DecodeError::Corrupt("length prefix exceeds payload"));
    }
    Ok(n)
}

fn enc_sync<V: Encode>(recs: &[VertexSync<V>], out: &mut Vec<u8>) {
    let values: Vec<Vec<u8>> = recs
        .iter()
        .map(|s| {
            let mut b = Vec::new();
            s.value.encode(&mut b);
            b
        })
        .collect();
    let enc: Vec<SyncRecEnc<'_>> = recs
        .iter()
        .zip(&values)
        .map(|(s, v)| SyncRecEnc {
            pos: s.pos,
            activate: s.activate,
            value: v,
            span: None,
        })
        .collect();
    encode_sync_frame(&enc, out);
}

fn dec_sync<V: Decode>(bytes: &[u8]) -> Result<Vec<VertexSync<V>>, DecodeError> {
    // Wire frames carry full values only, so the base callback is never
    // consulted on well-formed input; a hostile delta flag fails cleanly.
    Ok(decode_sync_frame::<V>(bytes, |_| Vec::new())?
        .into_iter()
        .map(|r| VertexSync {
            pos: r.pos,
            value: r.value,
            activate: r.activate,
        })
        .collect())
}

fn enc_gather<A: Encode + Clone>(recs: &[(Vid, A)], out: &mut Vec<u8>) {
    let raw: Vec<(u32, A)> = recs.iter().map(|(v, a)| (v.raw(), a.clone())).collect();
    encode_gather_frame(&raw, out);
}

fn dec_gather<A: Decode>(bytes: &[u8]) -> Result<Vec<(Vid, A)>, DecodeError> {
    Ok(decode_gather_frame::<A>(bytes)?
        .into_iter()
        .map(|(v, a)| (Vid::new(v), a))
        .collect())
}

fn enc_batch<E>(b: &RebirthBatch<E>, buf: &mut Vec<u8>, enc_e: impl Fn(&E, &mut Vec<u8>)) {
    b.resume_iter.encode(buf);
    b.num_survivors.encode(buf);
    write_uvarint(buf, b.entries.len() as u64);
    for e in &b.entries {
        enc_e(e, buf);
    }
}

fn dec_batch<E>(
    r: &mut Reader<'_>,
    dec_e: impl Fn(&mut Reader<'_>) -> Result<E, DecodeError>,
) -> Result<RebirthBatch<E>, DecodeError> {
    let resume_iter = u64::decode(r)?;
    let num_survivors = u32::decode(r)?;
    let n = dec_len(r)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(dec_e(r)?);
    }
    Ok(RebirthBatch {
        resume_iter,
        num_survivors,
        entries,
    })
}

fn enc_promotions(ps: &[Promotion], buf: &mut Vec<u8>) {
    write_uvarint(buf, ps.len() as u64);
    for p in ps {
        p.vid.raw().encode(buf);
        p.new_master.raw().encode(buf);
        p.new_pos.encode(buf);
        p.old_node.raw().encode(buf);
        p.old_pos.encode(buf);
    }
}

fn dec_promotions(r: &mut Reader<'_>) -> Result<Vec<Promotion>, DecodeError> {
    let n = dec_len(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Promotion {
            vid: dec_vid(r)?,
            new_master: dec_node(r)?,
            new_pos: u32::decode(r)?,
            old_node: dec_node(r)?,
            old_pos: u32::decode(r)?,
        });
    }
    Ok(out)
}

fn enc_grants<V: Encode>(gs: &[ReplicaGrant<V>], buf: &mut Vec<u8>) {
    write_uvarint(buf, gs.len() as u64);
    for g in gs {
        g.vid.raw().encode(buf);
        g.value.encode(buf);
        g.last_activate.encode(buf);
        g.master_node.raw().encode(buf);
    }
}

fn dec_grants<V: Decode>(r: &mut Reader<'_>) -> Result<Vec<ReplicaGrant<V>>, DecodeError> {
    let n = dec_len(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ReplicaGrant {
            vid: dec_vid(r)?,
            value: V::decode(r)?,
            last_activate: bool::decode(r)?,
            master_node: dec_node(r)?,
        });
    }
    Ok(out)
}

/// A mirror batch on the wire: record count, sender, the vertex-ID and
/// scatter-bit columns, the sparse value column, then the full-state store
/// as the model writes it (`enc_s`).
fn enc_mirror_batch<V: Encode>(
    b: &MirrorBatch<V>,
    buf: &mut Vec<u8>,
    enc_s: impl Fn(&FullState, &mut Vec<u8>),
) {
    write_uvarint(buf, b.vids.len() as u64);
    b.master_node.raw().encode(buf);
    for v in &b.vids {
        v.raw().encode(buf);
    }
    for &bit in &b.last_activate {
        bit.encode(buf);
    }
    write_uvarint(buf, b.values.len() as u64);
    for (record, value) in &b.values {
        record.encode(buf);
        value.encode(buf);
    }
    enc_s(&b.metas, buf);
}

/// Decodes a mirror batch; `dec_s` is handed the record count and must come
/// back with exactly that many full states.
fn dec_mirror_batch<V: Decode>(
    r: &mut Reader<'_>,
    dec_s: impl Fn(&mut Reader<'_>, usize) -> Result<FullState, DecodeError>,
) -> Result<MirrorBatch<V>, DecodeError> {
    let n = dec_len(r)?;
    let master_node = dec_node(r)?;
    // Each record costs four bytes of vertex ID, one of scatter bit and at
    // least one of full state: whatever is reserved from here on is within a
    // constant of the input's size.
    if n.saturating_mul(6) > r.remaining() {
        return Err(DecodeError::Corrupt("record count exceeds payload"));
    }
    let mut vids = Vec::with_capacity(n);
    for _ in 0..n {
        vids.push(dec_vid(r)?);
    }
    let mut last_activate = Vec::with_capacity(n);
    for _ in 0..n {
        last_activate.push(bool::decode(r)?);
    }
    let fresh = dec_len(r)?;
    if fresh > n {
        return Err(DecodeError::Corrupt("more values than records"));
    }
    let mut values: Vec<(u32, V)> = Vec::with_capacity(fresh);
    for _ in 0..fresh {
        let record = u32::decode(r)?;
        let in_order = values.last().is_none_or(|&(prev, _)| prev < record);
        if record as usize >= n || !in_order {
            return Err(DecodeError::Corrupt("value column"));
        }
        values.push((record, V::decode(r)?));
    }
    Ok(MirrorBatch {
        vids,
        values,
        last_activate,
        master_node,
        metas: dec_s(r, n)?,
    })
}

fn enc_vids(vids: &[Vid], buf: &mut Vec<u8>) {
    write_uvarint(buf, vids.len() as u64);
    for v in vids {
        v.raw().encode(buf);
    }
}

fn dec_vids(r: &mut Reader<'_>) -> Result<Vec<Vid>, DecodeError> {
    let n = dec_len(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec_vid(r)?);
    }
    Ok(out)
}

fn enc_placed(ps: &[(Vid, u32)], buf: &mut Vec<u8>) {
    write_uvarint(buf, ps.len() as u64);
    for &(v, pos) in ps {
        v.raw().encode(buf);
        pos.encode(buf);
    }
}

fn dec_placed(r: &mut Reader<'_>) -> Result<Vec<(Vid, u32)>, DecodeError> {
    let n = dec_len(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((dec_vid(r)?, u32::decode(r)?));
    }
    Ok(out)
}

/// Finishes a scalar-coded decode: the whole payload must be consumed.
fn settle<T>(r: Reader<'_>, value: T) -> Option<T> {
    (r.remaining() == 0).then_some(value)
}

/// What differs between the two models' wire protocols: how a Rebirth
/// recovery entry and a mirror batch's full-state store are written.
pub(crate) trait WireEntry: Sized {
    fn enc(&self, buf: &mut Vec<u8>);
    fn dec(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
    fn enc_states(metas: &FullState, buf: &mut Vec<u8>);
    /// Reads back `n` full states.
    fn dec_states(r: &mut Reader<'_>, n: usize) -> Result<FullState, DecodeError>;
}

impl<V: Encode + Decode> WireEntry for EcRecoverEntry<V> {
    fn enc(&self, buf: &mut Vec<u8>) {
        self.vid.raw().encode(buf);
        self.pos.encode(buf);
        kind_bits(self.kind).encode(buf);
        self.master_node.raw().encode(buf);
        self.value.encode(buf);
        self.last_activate.encode(buf);
        self.active.encode(buf);
        self.in_edges.encode(buf);
        self.out_local.encode(buf);
        match &self.meta {
            Some(m) => {
                true.encode(buf);
                enc_meta(m.view(), buf);
            }
            None => false.encode(buf),
        }
    }

    fn dec(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EcRecoverEntry {
            vid: dec_vid(r)?,
            pos: u32::decode(r)?,
            kind: kind_from_bits(u8::decode(r)?)?,
            master_node: dec_node(r)?,
            value: V::decode(r)?,
            last_activate: bool::decode(r)?,
            active: bool::decode(r)?,
            in_edges: Vec::<(u32, f32)>::decode(r)?,
            out_local: Vec::<u32>::decode(r)?,
            meta: bool::decode(r)?
                .then(|| dec_meta(r).map(Box::new))
                .transpose()?,
        })
    }

    /// The four column totals, so that the decoder sizes each column once,
    /// then every slot's full state in message form.
    fn enc_states(metas: &FullState, buf: &mut Vec<u8>) {
        enc_column_lens(metas.column_lens(), buf);
        for i in 0..metas.len() {
            enc_meta(metas.nth(i), buf);
        }
    }

    fn dec_states(r: &mut Reader<'_>, n: usize) -> Result<FullState, DecodeError> {
        let lens = dec_column_lens(r)?;
        let mut metas = FullState::default();
        metas.reserve_exact(StoreLens {
            slots: n,
            words: 0,
            edges: lens,
        });
        let mut meta = MasterMeta::default();
        for _ in 0..n {
            dec_meta_into(r, &mut meta)?;
            metas.push(meta.view());
        }
        if metas.column_lens() != lens {
            return Err(DecodeError::Corrupt("column totals"));
        }
        Ok(metas)
    }
}

impl<V: Encode + Decode> WireEntry for VcRecoverEntry<V> {
    fn enc(&self, buf: &mut Vec<u8>) {
        self.vid.raw().encode(buf);
        self.pos.encode(buf);
        kind_bits(self.kind).encode(buf);
        self.master_node.raw().encode(buf);
        self.value.encode(buf);
        match &self.meta {
            Some(m) => {
                true.encode(buf);
                enc_locations(m.view(), buf);
            }
            None => false.encode(buf),
        }
    }

    fn dec(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(VcRecoverEntry {
            vid: dec_vid(r)?,
            pos: u32::decode(r)?,
            kind: kind_from_bits(u8::decode(r)?)?,
            master_node: dec_node(r)?,
            value: V::decode(r)?,
            meta: bool::decode(r)?
                .then(|| dec_locations(r).map(Box::new))
                .transpose()?,
        })
    }

    /// Every slot's location tables, nothing else.
    fn enc_states(metas: &FullState, buf: &mut Vec<u8>) {
        for i in 0..metas.len() {
            enc_locations(metas.nth(i).locations, buf);
        }
    }

    /// Reads the tables back into a store without edge rows. The caller has
    /// held `n` to the input; the table words are not announced and grow
    /// with what is actually read.
    fn dec_states(r: &mut Reader<'_>, n: usize) -> Result<FullState, DecodeError> {
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
        Ok(metas)
    }
}

impl<V, A, E> WireCodec for ProtoMsg<V, A, E>
where
    V: Encode + Decode,
    A: Encode + Decode + Clone,
    E: WireEntry,
{
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        match self {
            ProtoMsg::Sync(recs) => enc_sync(recs, buf),
            ProtoMsg::Gather(recs) => enc_gather(recs, buf),
            ProtoMsg::Rebirth(b) => {
                buf.push(TAG_REBIRTH);
                enc_batch(b, buf, E::enc);
            }
            ProtoMsg::Promote(ps) => {
                buf.push(TAG_PROMOTE);
                enc_promotions(ps, buf);
            }
            ProtoMsg::ReplicaRequest(vids) => {
                buf.push(TAG_REPLICA_REQUEST);
                enc_vids(vids, buf);
            }
            ProtoMsg::ReplicaGrant(gs) => {
                buf.push(TAG_REPLICA_GRANT);
                enc_grants(gs, buf);
            }
            ProtoMsg::ReplicaPlaced(ps) => {
                buf.push(TAG_REPLICA_PLACED);
                enc_placed(ps, buf);
            }
            ProtoMsg::MirrorUpdate(b) => {
                buf.push(TAG_MIRROR_UPDATE);
                enc_mirror_batch(b, buf, E::enc_states);
            }
        }
    }

    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        let tag = *bytes.first()?;
        match tag {
            SYNC_FRAME_TAG => dec_sync(bytes).ok().map(ProtoMsg::Sync),
            GATHER_FRAME_TAG => dec_gather(bytes).ok().map(ProtoMsg::Gather),
            _ => {
                let mut r = Reader::new(&bytes[1..]);
                let msg = match tag {
                    TAG_REBIRTH => ProtoMsg::Rebirth(Box::new(dec_batch(&mut r, E::dec).ok()?)),
                    TAG_PROMOTE => ProtoMsg::Promote(dec_promotions(&mut r).ok()?),
                    TAG_REPLICA_REQUEST => ProtoMsg::ReplicaRequest(dec_vids(&mut r).ok()?),
                    TAG_REPLICA_GRANT => ProtoMsg::ReplicaGrant(dec_grants(&mut r).ok()?),
                    TAG_REPLICA_PLACED => ProtoMsg::ReplicaPlaced(dec_placed(&mut r).ok()?),
                    TAG_MIRROR_UPDATE => {
                        let batch = dec_mirror_batch(&mut r, E::dec_states).ok()?;
                        ProtoMsg::MirrorUpdate(Box::new(batch))
                    }
                    _ => return None,
                };
                settle(r, msg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::tests::{arb_damage, arb_graph, arb_shape, damaged, plan_for, P};
    use crate::driver::ModelGraph;
    use imitator_algos::{PageRank, RankValue};
    use imitator_engine::{
        build_edge_cut_graphs, build_vertex_cut_graphs, Degrees, RemoteEdge, VertexProgram,
    };
    use imitator_metrics::MemSize;
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };
    use imitator_storage::codec::Encode;
    use proptest::prelude::*;

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let m: EcMsg<f64> = EcMsg::Sync(vec![VertexSync {
            pos: 1,
            value: 0.5,
            activate: true,
        }]);
        assert_eq!(m.clone(), m);
    }

    /// The accounted wire sizes must equal the actual encoded sizes of the
    /// corresponding bytes, so the paper's communication-cost numbers can't
    /// silently drift from the byte encoding the fault-tolerance layers
    /// really use. Frame layouts (sizes in bytes):
    ///
    /// | frame  | tag | count      | flags  | id column        | payload column        |
    /// |--------|-----|------------|--------|------------------|-----------------------|
    /// | sync   | 1   | uvarint(n) | ⌈2n/8⌉ | Σ zzvarint(Δpos) | Σ full‖(off,len,span) |
    /// | gather | 1   | uvarint(n) | —      | Σ zzvarint(Δvid) | Σ accum encoding      |
    /// | mirror | 1   | uvarint(n) | —      | Σ zzvarint(Δvid) | Σ meta estimate       |
    ///
    /// Recovery entries, promotions, and grants stay scalar-coded. Run with a
    /// plain `f64` and with PageRank's value, whose codec writes the rank
    /// and leaves the share to the receiver: the program's
    /// `value_wire_bytes` is what every record is charged.
    #[test]
    fn accounted_sizes_match_codec() {
        sizes_match_codec([1.5f64, -2.5], |_| 8);
        let pr = PageRank::default();
        let (a, b) = (1.5, -2.5);
        let ranks = [
            RankValue {
                rank: a,
                share: a / 3.0,
            },
            RankValue { rank: b, share: b },
        ];
        sizes_match_codec(ranks, |v| pr.value_wire_bytes(v));
    }

    fn sizes_match_codec<V: Encode>(values: [V; 2], value_bytes: impl Fn(&V) -> usize) {
        // A VertexSync batch is charged as one columnar sync frame: encode
        // the same records through the real frame codec and compare.
        let batch: Vec<VertexSync<&V>> = values
            .iter()
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
        let mut accounted = crate::wire::sync_frame_overhead(batch.len() as u64);
        let mut prev = 0u32;
        for s in &batch {
            accounted += crate::wire::sync_record_bytes(s.pos, prev, value_bytes(s.value));
            prev = s.pos;
        }
        assert_eq!(accounted, frame.len() as u64);

        // EcRecoverEntry sans meta: vid, pos, kind (one byte), master_node,
        // value, last_activate, active, in_edges, out_local, meta flag.
        let in_edges: Vec<(u32, f32)> = vec![(3, 0.5), (9, 0.25)];
        let out_local: Vec<u32> = vec![1, 2, 3];
        let mut buf = Vec::new();
        4u32.encode(&mut buf); // vid
        2u32.encode(&mut buf); // pos
        0u8.encode(&mut buf); // kind discriminant
        1u32.encode(&mut buf); // master_node
        values[0].encode(&mut buf); // value
        true.encode(&mut buf); // last_activate
        false.encode(&mut buf); // active
        in_edges.encode(&mut buf);
        out_local.encode(&mut buf);
        Option::<u8>::None.encode(&mut buf); // meta presence flag
        let value_len = value_bytes(&values[0]);
        assert_eq!(
            EcRecoverEntry::<V>::wire_bytes(value_len, in_edges.len(), out_local.len()),
            buf.len()
        );

        // VcRecoverEntry sans meta: vid, pos, kind, master_node, value,
        // meta flag.
        let mut buf = Vec::new();
        4u32.encode(&mut buf);
        2u32.encode(&mut buf);
        0u8.encode(&mut buf);
        1u32.encode(&mut buf);
        values[0].encode(&mut buf);
        Option::<u8>::None.encode(&mut buf);
        assert_eq!(VcRecoverEntry::<V>::wire_bytes(value_len), buf.len());
    }

    fn roundtrip_ec(m: &EcMsg<f64>) {
        let mut buf = Vec::new();
        m.encode_wire(&mut buf);
        assert_eq!(EcMsg::<f64>::decode_wire(&buf).as_ref(), Some(m));
    }

    fn roundtrip_vc(m: &VcMsg<f64, f64>) {
        let mut buf = Vec::new();
        m.encode_wire(&mut buf);
        assert_eq!(VcMsg::<f64, f64>::decode_wire(&buf).as_ref(), Some(m));
    }

    #[test]
    fn wire_codec_roundtrips_every_variant() {
        let meta = MasterMeta {
            locations: Locations::new(
                3,
                &[NodeId::new(1), NodeId::new(2)],
                &[9, 11],
                &[NodeId::new(2)],
            ),
            in_edges_owner: vec![(4, 0.5), (6, -1.25)],
            in_edge_srcs: vec![Vid::new(40), Vid::new(60)],
            out_local_owner: vec![1, 2],
            out_remote: vec![],
        };
        let vc_meta = Locations::new(5, &[NodeId::new(3)], &[0], &[NodeId::new(3)]);
        roundtrip_ec(&EcMsg::Sync(vec![
            VertexSync {
                pos: 7,
                value: 1.5,
                activate: true,
            },
            VertexSync {
                pos: 1_000_000,
                value: -0.25,
                activate: false,
            },
        ]));
        roundtrip_ec(&EcMsg::Sync(vec![]));
        roundtrip_ec(&EcMsg::Gather(vec![(Vid::new(3), ()), (Vid::new(900), ())]));
        roundtrip_ec(&EcMsg::Rebirth(Box::new(RebirthBatch {
            resume_iter: 17,
            num_survivors: 3,
            entries: vec![
                EcRecoverEntry {
                    vid: Vid::new(12),
                    pos: 4,
                    kind: CopyKind::Master,
                    master_node: NodeId::new(0),
                    value: 2.5,
                    last_activate: true,
                    active: false,
                    in_edges: vec![(1, 0.5)],
                    out_local: vec![2, 3],
                    meta: Some(Box::new(meta.clone())),
                },
                EcRecoverEntry {
                    vid: Vid::new(13),
                    pos: 5,
                    kind: CopyKind::Replica,
                    master_node: NodeId::new(1),
                    value: -1.0,
                    last_activate: false,
                    active: true,
                    in_edges: vec![],
                    out_local: vec![],
                    meta: None,
                },
            ],
        })));
        roundtrip_ec(&EcMsg::Promote(vec![Promotion {
            vid: Vid::new(8),
            new_master: NodeId::new(2),
            new_pos: 14,
            old_node: NodeId::new(0),
            old_pos: 3,
        }]));
        roundtrip_ec(&EcMsg::ReplicaRequest(vec![Vid::new(1), Vid::new(2)]));
        roundtrip_ec(&EcMsg::ReplicaGrant(vec![ReplicaGrant {
            vid: Vid::new(5),
            value: 0.125,
            last_activate: true,
            master_node: NodeId::new(1),
        }]));
        roundtrip_ec(&EcMsg::ReplicaPlaced(vec![(Vid::new(5), 77)]));
        let mut metas = FullState::default();
        metas.push(meta.view());
        roundtrip_ec(&EcMsg::MirrorUpdate(Box::new(MirrorBatch {
            vids: vec![Vid::new(6)],
            values: vec![(0, 3.5)],
            last_activate: vec![false],
            master_node: NodeId::new(2),
            metas,
        })));
        roundtrip_vc(&VcMsg::Gather(vec![
            (Vid::new(4), 0.75),
            (Vid::new(5), -2.0),
        ]));
        roundtrip_vc(&VcMsg::Rebirth(Box::new(RebirthBatch {
            resume_iter: 2,
            num_survivors: 1,
            entries: vec![VcRecoverEntry {
                vid: Vid::new(9),
                pos: 0,
                kind: CopyKind::Mirror,
                master_node: NodeId::new(3),
                value: 4.5,
                meta: Some(Box::new(vc_meta.clone())),
            }],
        })));
        roundtrip_vc(&VcMsg::MirrorUpdate(Box::new(MirrorBatch {
            vids: vec![Vid::new(10)],
            values: vec![],
            last_activate: vec![true],
            master_node: NodeId::new(3),
            metas: FullState::of([FullStateRef::tables(vc_meta.view())].into_iter()),
        })));
    }

    fn empty_batch(master_node: NodeId) -> MirrorBatch<f64> {
        MirrorBatch {
            vids: Vec::new(),
            values: Vec::new(),
            last_activate: Vec::new(),
            master_node,
            metas: FullState::default(),
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

    /// An edge-cut batch of `(vid, in-edges, value for a fresh copy)`
    /// records, every master mirrored on nodes 1 and 3 (K = 2).
    fn ec_batch(records: &[(u32, u32, Option<f64>)]) -> MirrorBatch<f64> {
        let mut batch = empty_batch(NodeId::new(2));
        for (i, &(vid, in_edges, value)) in records.iter().enumerate() {
            batch.vids.push(Vid::new(vid));
            batch.values.extend(value.map(|v| (i as u32, v)));
            batch.last_activate.push(vid % 2 == 0);
            batch.metas.push(meta(vid, in_edges, &[1, 3]).view());
        }
        batch
    }

    /// Batches cross the TCP backend whole: none at all (an empty round is
    /// still a message), designations of fresh copies mixed with upgrades,
    /// and tables naming two mirrors, for both engines.
    #[test]
    fn mirror_batches_roundtrip() {
        roundtrip_ec(&EcMsg::MirrorUpdate(Box::new(ec_batch(&[]))));
        let mixed = [
            (6, 2, Some(3.5)),
            (300, 0, None),
            (70_000, 5, Some(f64::NAN.copysign(-1.0))),
        ];
        let mut buf = Vec::new();
        let sent = ec_batch(&mixed);
        EcMsg::MirrorUpdate(Box::new(sent.clone())).encode_wire(&mut buf);
        let Some(EcMsg::<f64>::MirrorUpdate(got)) = EcMsg::decode_wire(&buf) else {
            panic!("a mirror batch decodes to a mirror batch");
        };
        // Not `==`: one value is a NaN.
        assert_eq!(got.vids, sent.vids);
        assert_eq!(got.last_activate, sent.last_activate);
        assert_eq!(got.master_node, sent.master_node);
        assert!(got.metas == sent.metas);
        assert_eq!(got.metas.column_lens(), sent.metas.column_lens());
        let bits = |b: &MirrorBatch<f64>| -> Vec<(u32, u64)> {
            b.values.iter().map(|&(i, v)| (i, v.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&sent));
        roundtrip_ec(&EcMsg::MirrorUpdate(Box::new(ec_batch(&[
            (9, 1, None),
            (4, 3, Some(0.25)),
        ]))));

        let vc_batch = |records: &[(u32, Option<f64>)]| {
            let mut batch = empty_batch(NodeId::new(0));
            for (i, &(vid, value)) in records.iter().enumerate() {
                batch.vids.push(Vid::new(vid));
                batch.values.extend(value.map(|v| (i as u32, v)));
                batch.last_activate.push(false);
                let tables = meta(vid, 0, &[1, 2, 5]).locations;
                batch.metas.push(FullStateRef::tables(tables.view()));
            }
            VcMsg::<f64, f64>::MirrorUpdate(Box::new(batch))
        };
        roundtrip_vc(&vc_batch(&[]));
        roundtrip_vc(&vc_batch(&[
            (10, None),
            (11, Some(-1.5)),
            (2_000_000, None),
        ]));
    }

    /// A batch is accounted as the mirror frame of the table above, record
    /// by record: what the per-record messages it replaced were charged.
    /// (End to end, the `rec` totals pinned in
    /// `tests/prop_recovery_equivalence.rs` hold the same sum.)
    #[test]
    fn a_batch_is_accounted_like_its_records() {
        let batch = ec_batch(&[(6, 2, Some(3.5)), (300, 0, None), (70_000, 5, None)]);
        let estimate = |i: usize| 56 + 8 * batch.metas.nth(i).in_edges_owner.len() as u64;
        // Header: tag + count. Vid deltas 6, 294 and 69 700 zigzag to one,
        // two and three varint bytes. Metas: 56 + 8 per in-edge.
        let pinned = (1 + 1) + (1 + 2 + 3) + (72 + 56 + 96);
        assert_eq!(batch.frame_bytes(estimate), pinned);
        let single = |vid, in_edges| ec_batch(&[(vid, in_edges, None)]).frame_bytes(|_| 0);
        assert_eq!(single(6, 2), 2 + 1, "header and one vid byte");
        assert_eq!(
            ec_batch(&[]).frame_bytes(|_| 99),
            0,
            "an empty round is free"
        );
    }

    proptest! {
        /// A mirror batch off a socket is input like any other: truncated,
        /// bit-flipped and spliced frames of batches built from loader-built
        /// graphs decode to `None` or to a message that holds together —
        /// never a panic, never a span past its column, never a record
        /// without its columns, never memory out of proportion to the input.
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
                    batch.vids.push(v.vid);
                    batch.last_activate.push(v.last_activate);
                    batch.metas.push(lg.full_state(pos).unwrap());
                }
                let mut frame = Vec::new();
                EcMsg::MirrorUpdate(Box::new(batch.clone())).encode_wire(&mut frame);
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
                batch.metas = lg.export_metas(&held);
                let mut frame = Vec::new();
                VcMsg::<f64, f64>::MirrorUpdate(Box::new(batch.clone())).encode_wire(&mut frame);
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
                let held = back.metas.mem_bytes() + back.vids.capacity() * 4 + n;
                prop_assert!(held <= 1024 + 128 * bad.len(), "{held} B for {}", bad.len());
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
