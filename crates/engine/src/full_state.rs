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
//! from a snapshot — a checkpoint reload — is rebuilt without any.
//!
//! Inside a recovery *episode* (see [`crate::episode`]) the entries a column
//! held when the episode began are frozen: every writer below takes that
//! length as its `floor`, leaves a run starting under it untouched, and
//! writes the new list at the tail instead. Undoing the episode is then a
//! truncation plus the saved spans; outside an episode the floor is 0 and
//! lists are overwritten in place as before. The writers keep one more
//! promise the journal relies on: **a span they write inside an episode
//! starts at or past the floor** — so a span that starts under it is the
//! span the episode found, and needs saving exactly when it changes.
//!
//! A store also travels: Migration ships the full state of many copies to
//! one node as one store filled by [`FullState::push`], and the receiver
//! takes it in whole ([`FullState::extend_from`]) or record by record.

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

    /// How many entries this full state adds to each column of a store.
    pub fn lens(&self) -> ColumnLens {
        ColumnLens {
            in_edges: self.in_edges_owner.len(),
            in_srcs: self.in_edge_srcs.len(),
            out_local: self.out_local_owner.len(),
            out_remote: self.out_remote.len(),
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

    /// This run in a column that `base` more entries now precede.
    fn rebased(self, base: usize) -> Span {
        Span::new(self.start as usize + base, self.len())
    }
}

/// One column: the lists of every slot back to back, each found through its
/// slot's [`Span`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Column<T>(pub(crate) Vec<T>);

impl<T: Copy + PartialEq> Column<T> {
    pub(crate) fn get(&self, span: Span) -> &[T] {
        &self.0[span.range()]
    }

    /// Appends `items` at the tail.
    pub(crate) fn append(&mut self, items: impl IntoIterator<Item = T>) -> Span {
        let start = self.0.len();
        self.0.extend(items);
        Span::new(start, self.0.len() - start)
    }

    /// Makes `items` the list behind `span`: over the old run when they fit
    /// in it and it starts at or past `floor`, at the tail otherwise. A run
    /// that already reads `items` is left alone.
    pub(crate) fn replace(&mut self, span: &mut Span, items: &[T], floor: usize) {
        if items.len() <= span.len() && span.range().start >= floor {
            span.len = items.len() as u32;
            self.0[span.range()].copy_from_slice(items);
        } else if self.get(*span) != items {
            *span = self.append(items.iter().copied());
        }
    }

    /// Appends `items` to the list behind `span`, which moves to the tail
    /// first unless it already ends there and starts at or past `floor`.
    pub(crate) fn extend(&mut self, span: &mut Span, items: &[T], floor: usize) {
        if items.is_empty() {
            return;
        }
        if span.range().end != self.0.len() || span.range().start < floor {
            self.0.reserve(span.len() + items.len());
            let moved = self.0.len();
            self.0.extend_from_within(span.range());
            *span = Span::new(moved, span.len());
        }
        self.0.extend_from_slice(items);
        *span = Span::new(span.range().start, span.len() + items.len());
    }

    /// Keeps the items `keep` accepts (it may rewrite them), in order, and
    /// says whether the list changed. Nothing is written up to the first
    /// dropped or rewritten item; a run starting under `floor` is then copied
    /// to the tail, and the kept items move to the front of the run. `keep`
    /// sees every item once, in order.
    fn retain_mut(
        &mut self,
        span: &mut Span,
        floor: usize,
        mut keep: impl FnMut(&mut T) -> bool,
    ) -> bool {
        let mut judge = |item: T| {
            let mut judged = item;
            keep(&mut judged).then_some(judged)
        };
        let run = span.range();
        let mut at = run.start;
        let first = loop {
            if at == run.end {
                return false;
            }
            let judged = judge(self.0[at]);
            if judged != Some(self.0[at]) {
                break judged;
            }
            at += 1;
        };
        let frozen = run.start < floor;
        if frozen {
            let moved = self.0.len();
            self.0.extend_from_within(run.clone());
            *span = Span::new(moved, run.len());
            at += moved - run.start;
        }
        let run = span.range();
        let mut to = at;
        let mut put = |column: &mut Vec<T>, judged: Option<T>| {
            if let Some(judged) = judged {
                column[to] = judged;
                to += 1;
            }
        };
        put(&mut self.0, first);
        for from in at + 1..run.end {
            let judged = judge(self.0[from]);
            put(&mut self.0, judged);
        }
        span.len = (to - run.start) as u32;
        if frozen {
            self.0.truncate(to);
        }
        true
    }

    pub(crate) fn capacity_bytes(&self) -> usize {
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

/// Columns of a [`FullState`], and spans of a [`Slot`].
pub(crate) const COLUMNS: usize = 4;

impl Slot {
    /// The slot's span in every column, in the columns' order.
    pub(crate) fn spans(&self) -> [Span; COLUMNS] {
        [self.in_edges, self.in_srcs, self.out_local, self.out_remote]
    }

    /// The slot's span in the `column`-th column, in the order of
    /// [`Slot::spans`].
    pub(crate) fn span_mut(&mut self, column: usize) -> &mut Span {
        match column {
            0 => &mut self.in_edges,
            1 => &mut self.in_srcs,
            2 => &mut self.out_local,
            3 => &mut self.out_remote,
            _ => panic!("a slot has {COLUMNS} spans, not a {column}th"),
        }
    }
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

impl ColumnLens {
    /// Entries in the four columns together.
    pub fn total(&self) -> usize {
        self.in_edges + self.in_srcs + self.out_local + self.out_remote
    }

    /// The four lengths in the columns' order (that of [`Slot::spans`]).
    pub(crate) fn per_column(&self) -> [usize; COLUMNS] {
        [self.in_edges, self.in_srcs, self.out_local, self.out_remote]
    }
}

impl std::ops::AddAssign for ColumnLens {
    fn add_assign(&mut self, more: ColumnLens) {
        self.in_edges += more.in_edges;
        self.in_srcs += more.in_srcs;
        self.out_local += more.out_local;
        self.out_remote += more.out_remote;
    }
}

/// A full-state store: see the module documentation. A local graph keeps
/// one; a Migration mirror batch carries one, a slot per record.
#[derive(Debug, Clone, Default)]
pub struct FullState {
    pub(crate) slots: Vec<Slot>,
    pub(crate) in_edges: Column<(u32, f32)>,
    pub(crate) in_srcs: Column<Vid>,
    pub(crate) out_local: Column<u32>,
    pub(crate) out_remote: Column<RemoteEdge>,
}

/// Stores are equal when they hold equal full states slot for slot, wherever
/// in the columns each keeps them.
impl PartialEq for FullState {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.nth(i) == other.nth(i))
    }
}

impl FullState {
    /// Slots in the store.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no slot.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Entries in each column, dead runs included.
    pub fn column_lens(&self) -> ColumnLens {
        ColumnLens {
            in_edges: self.in_edges.0.len(),
            in_srcs: self.in_srcs.0.len(),
            out_local: self.out_local.0.len(),
            out_remote: self.out_remote.0.len(),
        }
    }

    /// The full state in the `i`-th slot, exactly as stored.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no such slot.
    pub fn nth(&self, i: usize) -> FullStateRef<'_> {
        self.get(SlotId::from_index(i))
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
    pub fn push(&mut self, state: FullStateRef<'_>) -> SlotId {
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

    /// Appends every slot of `other`, in order, and returns the index the
    /// first of them got: each column grows by `other`'s whole column — one
    /// copy apiece, dead runs and all — and the slots' spans move with it.
    pub fn extend_from(&mut self, other: &FullState) -> usize {
        let (first, base) = (self.slots.len(), self.column_lens());
        self.in_edges.0.extend_from_slice(&other.in_edges.0);
        self.in_srcs.0.extend_from_slice(&other.in_srcs.0);
        self.out_local.0.extend_from_slice(&other.out_local.0);
        self.out_remote.0.extend_from_slice(&other.out_remote.0);
        self.slots.extend(other.slots.iter().map(|s| Slot {
            loc: s.loc.clone(),
            in_edges: s.in_edges.rebased(base.in_edges),
            in_srcs: s.in_srcs.rebased(base.in_srcs),
            out_local: s.out_local.rebased(base.out_local),
            out_remote: s.out_remote.rebased(base.out_remote),
        }));
        first
    }

    /// Replaces what `slot` holds by `state`; runs starting under `floor`
    /// are not overwritten.
    pub(crate) fn set(&mut self, slot: SlotId, state: FullStateRef<'_>, floor: &ColumnLens) {
        let s = &mut self.slots[slot.index()];
        s.loc.clone_from(state.locations);
        self.in_edges
            .replace(&mut s.in_edges, state.in_edges_owner, floor.in_edges);
        self.in_srcs
            .replace(&mut s.in_srcs, state.in_edge_srcs, floor.in_srcs);
        self.out_local
            .replace(&mut s.out_local, state.out_local_owner, floor.out_local);
        self.out_remote
            .replace(&mut s.out_remote, state.out_remote, floor.out_remote);
    }

    /// Empties `slot`'s `(position, weight)` and consumer lists: what a
    /// mirror's slot must lose when the copy becomes a master, whose own
    /// edge lists are those lists from then on. The empty runs are placed at
    /// the column tails (a span written in an episode starts past its floor).
    pub(crate) fn clear_owner_lists(&mut self, slot: SlotId) {
        let s = &mut self.slots[slot.index()];
        s.in_edges = Span::new(self.in_edges.0.len(), 0);
        s.out_local = Span::new(self.out_local.0.len(), 0);
    }

    /// Keeps the remote out-edges of `slot` that `keep` accepts (it may
    /// rewrite them), in order — at the tail if the run starts under
    /// `floor` — and says whether the list changed.
    pub(crate) fn retain_out_remote(
        &mut self,
        slot: SlotId,
        floor: usize,
        keep: impl FnMut(&mut RemoteEdge) -> bool,
    ) -> bool {
        let s = &mut self.slots[slot.index()];
        self.out_remote.retain_mut(&mut s.out_remote, floor, keep)
    }

    /// Appends `edges` to the remote out-edges of `slot`, at the tail if the
    /// run starts under `floor`.
    pub(crate) fn extend_out_remote(&mut self, slot: SlotId, floor: usize, edges: &[RemoteEdge]) {
        let s = &mut self.slots[slot.index()];
        self.out_remote.extend(&mut s.out_remote, edges, floor);
    }

    /// # Errors
    ///
    /// Names the first slot with a span reaching past its column.
    pub fn validate(&self) -> Result<(), String> {
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
    pub fn reserve_exact(&mut self, slots: usize, lens: ColumnLens) {
        self.slots.reserve_exact(slots);
        self.in_edges.0.reserve_exact(lens.in_edges);
        self.in_srcs.0.reserve_exact(lens.in_srcs);
        self.out_local.0.reserve_exact(lens.out_local);
        self.out_remote.0.reserve_exact(lens.out_remote);
    }

    /// Cuts the store back to its first `slots` slots and `lens` column
    /// entries (undoing an episode's appends).
    pub(crate) fn truncate(&mut self, slots: usize, lens: ColumnLens) {
        self.slots.truncate(slots);
        self.in_edges.0.truncate(lens.in_edges);
        self.in_srcs.0.truncate(lens.in_srcs);
        self.out_local.0.truncate(lens.out_local);
        self.out_remote.0.truncate(lens.out_remote);
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
