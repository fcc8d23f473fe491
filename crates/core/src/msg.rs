//! Wire message types and their codec.
//!
//! The in-process transports move a [`ProtoMsg`] as an owned value; the TCP
//! transport ships its encoding (the [`Encode`] impl below, behind
//! [`WireCodec`]). Every message is charged what that encoding writes,
//! [`Encode::encoded_len`]: its encoder run against a counting sink.
//! [`ProtoMsg::Sync`] and [`ProtoMsg::Gather`] are
//! [columnar frames](crate::wire), one per destination per superstep; a
//! recovery message is one tag byte plus the scalar storage codec
//! (DESIGN.md §4.6).

use imitator_cluster::{NodeId, WireCodec};
use imitator_engine::{CopyKind, FullState, FullStateRef, Locations, MasterMeta, StoreLens};
use imitator_graph::Vid;
use imitator_storage::codec::{
    read_uvarint, write_uvarint, Decode, DecodeError, Encode, Reader, Sink,
};

use crate::ckpt::{
    dec_column_lens, dec_locations, dec_locations_into, dec_meta, dec_meta_into, enc_column_lens,
    enc_locations, enc_meta, kind_bits, kind_from_bits,
};
use crate::wire::{
    decode_gather_frame, decode_sync_frame, encode_gather_frame, put_sync_head, GATHER_FRAME_TAG,
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
    /// store without edge rows).
    pub metas: FullState,
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
// The batch-shaped variants go through the columnar frame layouts of
// [`crate::wire`], dispatched by their frame tags; the recovery variants get
// one tag byte plus the scalar storage codec, reusing the checkpoint meta
// codecs for full replica state. Every encoder writes into a [`Sink`], so
// the same walk that fills a socket's buffer counts a message's bytes.
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

/// A sync frame with every value in full: the layout
/// [`crate::wire::encode_sync_frame`] writes for records without a span,
/// each value encoded straight into `out`.
fn enc_sync<V: Encode, S: Sink>(recs: &[VertexSync<V>], out: &mut S) {
    put_sync_head(out, recs.len(), |i| {
        (recs[i].pos, u8::from(recs[i].activate))
    });
    for s in recs {
        s.value.encode(out);
    }
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

fn dec_gather<A: Decode>(bytes: &[u8]) -> Result<Vec<(Vid, A)>, DecodeError> {
    Ok(decode_gather_frame::<A>(bytes)?
        .into_iter()
        .map(|(v, a)| (Vid::new(v), a))
        .collect())
}

/// A length prefix, then `items` each as `enc` writes it.
fn enc_list<T, S: Sink>(items: &[T], out: &mut S, enc: impl Fn(&T, &mut S)) {
    write_uvarint(out, items.len() as u64);
    for item in items {
        enc(item, out);
    }
}

/// Reads [`enc_list`] back.
fn dec_list<T>(
    r: &mut Reader<'_>,
    dec: impl Fn(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = dec_len(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec(r)?);
    }
    Ok(out)
}

fn enc_batch<E: Encode, S: Sink>(b: &RebirthBatch<E>, out: &mut S) {
    b.resume_iter.encode(out);
    b.num_survivors.encode(out);
    enc_list(&b.entries, out, |e, out| e.encode(out));
}

fn dec_batch<E: Decode>(r: &mut Reader<'_>) -> Result<RebirthBatch<E>, DecodeError> {
    Ok(RebirthBatch {
        resume_iter: u64::decode(r)?,
        num_survivors: u32::decode(r)?,
        entries: dec_list(r, E::decode)?,
    })
}

fn enc_promotion<S: Sink>(p: &Promotion, out: &mut S) {
    p.vid.raw().encode(out);
    p.new_master.raw().encode(out);
    p.new_pos.encode(out);
    p.old_node.raw().encode(out);
    p.old_pos.encode(out);
}

fn dec_promotion(r: &mut Reader<'_>) -> Result<Promotion, DecodeError> {
    Ok(Promotion {
        vid: dec_vid(r)?,
        new_master: dec_node(r)?,
        new_pos: u32::decode(r)?,
        old_node: dec_node(r)?,
        old_pos: u32::decode(r)?,
    })
}

fn enc_grant<V: Encode, S: Sink>(g: &ReplicaGrant<V>, out: &mut S) {
    g.vid.raw().encode(out);
    g.value.encode(out);
    g.last_activate.encode(out);
    g.master_node.raw().encode(out);
}

fn dec_grant<V: Decode>(r: &mut Reader<'_>) -> Result<ReplicaGrant<V>, DecodeError> {
    Ok(ReplicaGrant {
        vid: dec_vid(r)?,
        value: V::decode(r)?,
        last_activate: bool::decode(r)?,
        master_node: dec_node(r)?,
    })
}

/// A mirror batch on the wire: record count, sender, the vertex-ID and
/// scatter-bit columns, the sparse value column, then the full-state store
/// as the model writes it ([`WireEntry::enc_states`]).
fn enc_mirror_batch<V: Encode, E: WireEntry, S: Sink>(b: &MirrorBatch<V>, out: &mut S) {
    write_uvarint(out, b.vids.len() as u64);
    b.master_node.raw().encode(out);
    for v in &b.vids {
        v.raw().encode(out);
    }
    for &bit in &b.last_activate {
        bit.encode(out);
    }
    enc_list(&b.values, out, |(record, value), out| {
        record.encode(out);
        value.encode(out);
    });
    E::enc_states(&b.metas, out);
}

/// Decodes a mirror batch; [`WireEntry::dec_states`] is handed the record
/// count and must come back with exactly that many full states.
fn dec_mirror_batch<V: Decode, E: WireEntry>(
    r: &mut Reader<'_>,
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
        metas: E::dec_states(r, n)?,
    })
}

fn enc_placed<S: Sink>(&(v, pos): &(Vid, u32), out: &mut S) {
    v.raw().encode(out);
    pos.encode(out);
}

fn dec_placed(r: &mut Reader<'_>) -> Result<(Vid, u32), DecodeError> {
    Ok((dec_vid(r)?, u32::decode(r)?))
}

/// Finishes a scalar-coded decode: the whole payload must be consumed.
fn settle<T>(r: Reader<'_>, value: T) -> Option<T> {
    (r.remaining() == 0).then_some(value)
}

/// What differs between the two models' wire protocols: a Rebirth recovery
/// entry (its own codec) and how a mirror batch's full-state store is
/// written.
pub(crate) trait WireEntry: Encode + Decode + Clone + Send + 'static {
    fn enc_states<S: Sink>(metas: &FullState, out: &mut S);
    /// Reads back `n` full states.
    fn dec_states(r: &mut Reader<'_>, n: usize) -> Result<FullState, DecodeError>;
}

impl<V: Encode> Encode for EcRecoverEntry<V> {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.vid.raw().encode(out);
        self.pos.encode(out);
        kind_bits(self.kind).encode(out);
        self.master_node.raw().encode(out);
        self.value.encode(out);
        self.last_activate.encode(out);
        self.active.encode(out);
        self.in_edges.encode(out);
        self.out_local.encode(out);
        match &self.meta {
            Some(m) => {
                true.encode(out);
                enc_meta(m.view(), out);
            }
            None => false.encode(out),
        }
    }
}

impl<V: Decode> Decode for EcRecoverEntry<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
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
}

impl<V: Encode + Decode + Clone + Send + 'static> WireEntry for EcRecoverEntry<V> {
    /// The four column totals, so that the decoder sizes each column once,
    /// then every slot's full state in message form.
    fn enc_states<S: Sink>(metas: &FullState, out: &mut S) {
        enc_column_lens(metas.column_lens(), out);
        for i in 0..metas.len() {
            enc_meta(metas.nth(i), out);
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

impl<V: Encode> Encode for VcRecoverEntry<V> {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.vid.raw().encode(out);
        self.pos.encode(out);
        kind_bits(self.kind).encode(out);
        self.master_node.raw().encode(out);
        self.value.encode(out);
        match &self.meta {
            Some(m) => {
                true.encode(out);
                enc_locations(m.view(), out);
            }
            None => false.encode(out),
        }
    }
}

impl<V: Decode> Decode for VcRecoverEntry<V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
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
}

impl<V: Encode + Decode + Clone + Send + 'static> WireEntry for VcRecoverEntry<V> {
    /// Every slot's location tables, nothing else.
    fn enc_states<S: Sink>(metas: &FullState, out: &mut S) {
        for i in 0..metas.len() {
            enc_locations(metas.nth(i).locations, out);
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

/// A message as the TCP transport ships it, and as every transport charges
/// it: into a buffer it is the frame, into a [`ByteCount`] its size.
///
/// [`ByteCount`]: imitator_storage::codec::ByteCount
impl<V: Encode, A: Encode, E: WireEntry> Encode for ProtoMsg<V, A, E> {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            ProtoMsg::Sync(recs) => enc_sync(recs, out),
            ProtoMsg::Gather(recs) => {
                encode_gather_frame(recs.iter().map(|(v, a)| (v.raw(), a)), out);
            }
            ProtoMsg::Rebirth(b) => {
                out.put_byte(TAG_REBIRTH);
                enc_batch(b, out);
            }
            ProtoMsg::Promote(ps) => {
                out.put_byte(TAG_PROMOTE);
                enc_list(ps, out, enc_promotion);
            }
            ProtoMsg::ReplicaRequest(vids) => {
                out.put_byte(TAG_REPLICA_REQUEST);
                enc_list(vids, out, |v, out| v.raw().encode(out));
            }
            ProtoMsg::ReplicaGrant(gs) => {
                out.put_byte(TAG_REPLICA_GRANT);
                enc_list(gs, out, enc_grant);
            }
            ProtoMsg::ReplicaPlaced(ps) => {
                out.put_byte(TAG_REPLICA_PLACED);
                enc_list(ps, out, enc_placed);
            }
            ProtoMsg::MirrorUpdate(b) => {
                out.put_byte(TAG_MIRROR_UPDATE);
                enc_mirror_batch::<V, E, S>(b, out);
            }
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
        let tag = *bytes.first()?;
        match tag {
            SYNC_FRAME_TAG => dec_sync(bytes).ok().map(ProtoMsg::Sync),
            GATHER_FRAME_TAG => dec_gather(bytes).ok().map(ProtoMsg::Gather),
            _ => {
                let mut r = Reader::new(&bytes[1..]);
                let msg = match tag {
                    TAG_REBIRTH => ProtoMsg::Rebirth(Box::new(dec_batch(&mut r).ok()?)),
                    TAG_PROMOTE => ProtoMsg::Promote(dec_list(&mut r, dec_promotion).ok()?),
                    TAG_REPLICA_REQUEST => {
                        ProtoMsg::ReplicaRequest(dec_list(&mut r, dec_vid).ok()?)
                    }
                    TAG_REPLICA_GRANT => ProtoMsg::ReplicaGrant(dec_list(&mut r, dec_grant).ok()?),
                    TAG_REPLICA_PLACED => {
                        ProtoMsg::ReplicaPlaced(dec_list(&mut r, dec_placed).ok()?)
                    }
                    TAG_MIRROR_UPDATE => {
                        let batch = dec_mirror_batch::<V, E>(&mut r).ok()?;
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
    use imitator_algos::RankValue;
    use imitator_engine::{build_edge_cut_graphs, build_vertex_cut_graphs, Degrees, RemoteEdge};
    use imitator_metrics::MemSize;
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };
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

    /// Encodes, counts and decodes `m`: the counting sink agrees with the
    /// buffer, and the buffer decodes to `m`.
    fn roundtrip_ec(m: &EcMsg<f64>) {
        let mut buf = Vec::new();
        m.encode_wire(&mut buf);
        assert_eq!(m.encoded_len(), buf.len(), "{m:?}");
        assert_eq!(EcMsg::<f64>::decode_wire(&buf).as_ref(), Some(m));
    }

    fn roundtrip_vc(m: &VcMsg<f64, f64>) {
        let mut buf = Vec::new();
        m.encode_wire(&mut buf);
        assert_eq!(m.encoded_len(), buf.len(), "{m:?}");
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
