//! Edge-cut full state (§4.2): the owned form that travels in messages and
//! the per-node columnar store a local graph keeps it in.
//!
//! A node keeps the full state of all its masters and mirrors in one
//! [`FullState`]: a slot per copy — its [`Locations`] and four spans — over
//! four columns shared by every slot. The lists of one slot are runs of
//! those columns, so a hundred thousand mirrors cost a handful of
//! allocations to build and to drop, and snapshotting or exporting walks
//! dense memory.
//!
//! A list changes in one of two ways and the columns are never compacted: it
//! *shrinks in place* (its span narrows; the entries behind it go dead), or
//! it is *appended at the column's tail* and the span repointed (the old run
//! goes dead). Recovery rewrites a small part of a partition once per
//! failure, so dead runs stay a small part of a column, and a graph decoded
//! from a snapshot — an aborted attempt's restore, a checkpoint reload — is
//! rebuilt without any.

use std::num::NonZeroU32;
use std::ops::Range;

use imitator_cluster::NodeId;
use imitator_graph::Vid;
use imitator_metrics::MemSize;

use crate::locations::Locations;

/// An out-edge whose consumer (target master) lives on another node.
///
/// The position is the target's array index on its owner — the *enhanced
/// edge information* of §5.1.2 that makes reconstruction position-addressed
/// and lock-free.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RemoteEdge {
    /// The target vertex.
    pub target: Vid,
    /// The node mastering the target.
    pub node: NodeId,
    /// The target's array position on that node.
    pub pos: u32,
}

/// The full state a master shares with its mirrors (§4.2), owned: the form
/// it takes in recovery messages and on the wire. A local graph stores it in
/// its [`FullState`] columns and hands it out as a [`FullStateRef`].
///
/// Everything needed to rebuild the master (and any of its replicas) *at the
/// same array positions* on a replacement node, plus the replica-location
/// tables that recovery consults to find what was lost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MasterMeta {
    /// Where the master and its copies live.
    pub locations: Locations,
    /// The master's in-edges in owner-local `(source position, weight)`
    /// form (edge-cut replicates edges into the mirror's full state, §4.3).
    pub in_edges_owner: Vec<(u32, f32)>,
    /// Global source IDs of the in-edges (parallel to `in_edges_owner`):
    /// Migration rebuilds the promoted master's edges on a *different* node,
    /// where the owner-local positions mean nothing (§5.2.1).
    pub in_edge_srcs: Vec<Vid>,
    /// Owner-local positions of out-neighbours mastered on the owner.
    pub out_local_owner: Vec<u32>,
    /// Out-edges whose consumer is mastered remotely; grouped by node these
    /// give each replica's local out-edge lists on that node.
    pub out_remote: Vec<RemoteEdge>,
}

impl MasterMeta {
    /// This full state, borrowed.
    pub fn view(&self) -> FullStateRef<'_> {
        FullStateRef {
            locations: &self.locations,
            in_edges_owner: &self.in_edges_owner,
            in_edge_srcs: &self.in_edge_srcs,
            out_local_owner: &self.out_local_owner,
            out_remote: &self.out_remote,
        }
    }
}

/// One copy's full state, borrowed from wherever it is stored: the fields of
/// [`MasterMeta`] as slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullStateRef<'a> {
    /// Where the master and its copies live.
    pub locations: &'a Locations,
    /// See [`MasterMeta::in_edges_owner`].
    pub in_edges_owner: &'a [(u32, f32)],
    /// See [`MasterMeta::in_edge_srcs`].
    pub in_edge_srcs: &'a [Vid],
    /// See [`MasterMeta::out_local_owner`].
    pub out_local_owner: &'a [u32],
    /// See [`MasterMeta::out_remote`].
    pub out_remote: &'a [RemoteEdge],
}

impl FullStateRef<'_> {
    /// The owned form, every list allocated at its length.
    pub fn to_meta(&self) -> MasterMeta {
        MasterMeta {
            locations: self.locations.clone(),
            in_edges_owner: self.in_edges_owner.to_vec(),
            in_edge_srcs: self.in_edge_srcs.to_vec(),
            out_local_owner: self.out_local_owner.to_vec(),
            out_remote: self.out_remote.to_vec(),
        }
    }

    /// Owner-local positions this vertex's replica on `node` feeds
    /// (used to rebuild a replica's `out_local` during recovery).
    pub fn replica_out_local_on(&self, node: NodeId) -> Vec<u32> {
        self.out_remote
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.pos)
            .collect()
    }
}

/// Names one slot of a node's [`FullState`]. Only a store hands these out,
/// so a copy's `meta` is either `None` or a slot of its own graph's store;
/// `Option<SlotId>` is four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(NonZeroU32);

impl SlotId {
    pub(crate) fn from_index(index: usize) -> SlotId {
        let raw = u32::try_from(index)
            .ok()
            .and_then(|i| i.checked_add(1))
            .and_then(NonZeroU32::new)
            .expect("a full-state store holds fewer than u32::MAX slots");
        SlotId(raw)
    }

    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// A run of a column: where one slot's list starts and how long it is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// # Panics
    ///
    /// Panics, rather than wrapping, if the run ends past `u32::MAX`.
    pub(crate) fn new(start: usize, len: usize) -> Span {
        let fits = start
            .checked_add(len)
            .is_some_and(|end| u32::try_from(end).is_ok());
        assert!(
            fits,
            "a full-state column cannot hold more than u32::MAX entries (run of {len} at {start})"
        );
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// One column: the lists of every slot back to back, each found through its
/// slot's [`Span`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Column<T>(pub(crate) Vec<T>);

impl<T: Copy> Column<T> {
    fn get(&self, span: Span) -> &[T] {
        &self.0[span.range()]
    }

    /// Appends `items` at the tail.
    pub(crate) fn append(&mut self, items: impl IntoIterator<Item = T>) -> Span {
        let start = self.0.len();
        self.0.extend(items);
        Span::new(start, self.0.len() - start)
    }

    /// Makes `items` the list behind `span`: over the old run when they fit
    /// in it, at the tail otherwise.
    fn replace(&mut self, span: &mut Span, items: &[T]) {
        if items.len() <= span.len() {
            span.len = items.len() as u32;
            self.0[span.range()].copy_from_slice(items);
        } else {
            *span = self.append(items.iter().copied());
        }
    }

    /// Appends `items` to the list behind `span`, which moves to the tail
    /// first unless it already ends there.
    fn extend(&mut self, span: &mut Span, items: &[T]) {
        if items.is_empty() {
            return;
        }
        if span.range().end != self.0.len() {
            self.0.reserve(span.len() + items.len());
            let moved = self.0.len();
            self.0.extend_from_within(span.range());
            *span = Span::new(moved, span.len());
        }
        self.0.extend_from_slice(items);
        *span = Span::new(span.range().start, span.len() + items.len());
    }

    /// Keeps the items `keep` accepts (it may rewrite them), in order, at
    /// the front of the run; the span narrows to them.
    fn retain_mut(&mut self, span: &mut Span, mut keep: impl FnMut(&mut T) -> bool) {
        let run = &mut self.0[span.range()];
        let mut kept = 0;
        for i in 0..run.len() {
            let mut item = run[i];
            if keep(&mut item) {
                run[kept] = item;
                kept += 1;
            }
        }
        span.len = kept as u32;
    }

    fn capacity_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<T>()
    }
}

/// One copy's entry in the slot table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    pub(crate) loc: Locations,
    pub(crate) in_edges: Span,
    pub(crate) in_srcs: Span,
    pub(crate) out_local: Span,
    pub(crate) out_remote: Span,
}

/// How many entries each column of a [`FullState`] holds, or is to hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnLens {
    /// `(position, weight)` in-edge entries (mirrors only).
    pub in_edges: usize,
    /// In-edge source IDs.
    pub in_srcs: usize,
    /// Owner-local consumer positions (mirrors only).
    pub out_local: usize,
    /// Remote out-edges.
    pub out_remote: usize,
}

/// A node's full-state store: see the module documentation.
#[derive(Debug, Clone, Default)]
pub(crate) struct FullState {
    pub(crate) slots: Vec<Slot>,
    pub(crate) in_edges: Column<(u32, f32)>,
    pub(crate) in_srcs: Column<Vid>,
    pub(crate) out_local: Column<u32>,
    pub(crate) out_remote: Column<RemoteEdge>,
}

impl FullState {
    /// Entries in each column, dead runs included.
    pub(crate) fn column_lens(&self) -> ColumnLens {
        ColumnLens {
            in_edges: self.in_edges.0.len(),
            in_srcs: self.in_srcs.0.len(),
            out_local: self.out_local.0.len(),
            out_remote: self.out_remote.0.len(),
        }
    }

    /// The full state in `slot`, exactly as stored.
    pub(crate) fn get(&self, slot: SlotId) -> FullStateRef<'_> {
        let s = &self.slots[slot.index()];
        FullStateRef {
            locations: &s.loc,
            in_edges_owner: self.in_edges.get(s.in_edges),
            in_edge_srcs: self.in_srcs.get(s.in_srcs),
            out_local_owner: self.out_local.get(s.out_local),
            out_remote: self.out_remote.get(s.out_remote),
        }
    }

    pub(crate) fn locations(&self, slot: SlotId) -> &Locations {
        &self.slots[slot.index()].loc
    }

    pub(crate) fn locations_mut(&mut self, slot: SlotId) -> &mut Locations {
        &mut self.slots[slot.index()].loc
    }

    /// Stores `state` in a new slot, its lists at the column tails.
    pub(crate) fn push(&mut self, state: FullStateRef<'_>) -> SlotId {
        let slot = SlotId::from_index(self.slots.len());
        self.slots.push(Slot {
            loc: state.locations.clone(),
            in_edges: self.in_edges.append(state.in_edges_owner.iter().copied()),
            in_srcs: self.in_srcs.append(state.in_edge_srcs.iter().copied()),
            out_local: self.out_local.append(state.out_local_owner.iter().copied()),
            out_remote: self.out_remote.append(state.out_remote.iter().copied()),
        });
        slot
    }

    /// Replaces what `slot` holds by `state`.
    pub(crate) fn set(&mut self, slot: SlotId, state: FullStateRef<'_>) {
        let s = &mut self.slots[slot.index()];
        s.loc.clone_from(state.locations);
        self.in_edges.replace(&mut s.in_edges, state.in_edges_owner);
        self.in_srcs.replace(&mut s.in_srcs, state.in_edge_srcs);
        self.out_local
            .replace(&mut s.out_local, state.out_local_owner);
        self.out_remote.replace(&mut s.out_remote, state.out_remote);
    }

    /// Empties `slot`'s `(position, weight)` and consumer lists: what a
    /// mirror's slot must lose when the copy becomes a master, whose own
    /// edge lists are those lists from then on.
    pub(crate) fn clear_owner_lists(&mut self, slot: SlotId) {
        let s = &mut self.slots[slot.index()];
        s.in_edges = Span::default();
        s.out_local = Span::default();
    }

    /// Keeps the remote out-edges of `slot` that `keep` accepts (it may
    /// rewrite them), in order.
    pub(crate) fn retain_out_remote(
        &mut self,
        slot: SlotId,
        keep: impl FnMut(&mut RemoteEdge) -> bool,
    ) {
        let s = &mut self.slots[slot.index()];
        self.out_remote.retain_mut(&mut s.out_remote, keep);
    }

    /// Appends `edges` to the remote out-edges of `slot`.
    pub(crate) fn extend_out_remote(&mut self, slot: SlotId, edges: &[RemoteEdge]) {
        let s = &mut self.slots[slot.index()];
        self.out_remote.extend(&mut s.out_remote, edges);
    }

    /// # Errors
    ///
    /// Names the first slot with a span reaching past its column.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let inside = |s: &Slot| {
            s.in_edges.range().end <= self.in_edges.0.len()
                && s.in_srcs.range().end <= self.in_srcs.0.len()
                && s.out_local.range().end <= self.out_local.0.len()
                && s.out_remote.range().end <= self.out_remote.0.len()
        };
        match self.slots.iter().position(|s| !inside(s)) {
            Some(i) => Err(format!("a span of slot {i} reaches past its column")),
            None => Ok(()),
        }
    }

    /// Makes room for `slots` more slots and `lens` more column entries.
    pub(crate) fn reserve_exact(&mut self, slots: usize, lens: ColumnLens) {
        self.slots.reserve_exact(slots);
        self.in_edges.0.reserve_exact(lens.in_edges);
        self.in_srcs.0.reserve_exact(lens.in_srcs);
        self.out_local.0.reserve_exact(lens.out_local);
        self.out_remote.0.reserve_exact(lens.out_remote);
    }
}

impl MemSize for FullState {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<FullState>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.slots.iter().map(|s| s.loc.heap_bytes()).sum::<usize>()
            + self.in_edges.capacity_bytes()
            + self.in_srcs.capacity_bytes()
            + self.out_local.capacity_bytes()
            + self.out_remote.capacity_bytes()
    }
}
