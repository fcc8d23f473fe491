//! Dense vertex-ID → array-position index.
//!
//! Every local graph keeps a `Vid → position` index on its hot decode and
//! routing paths. [`VidMap`] (a hashed map) is the general answer, but the
//! common case is far more regular: a node holds a constant fraction of a
//! dense `0..n` ID space, so a flat `Vec<u32>` indexed by raw vertex ID —
//! with `u32::MAX` marking absent — answers lookups with one bounds check
//! and no hashing. [`PosIndex`] picks that dense table whenever the ID span
//! is within 8× the entry count (plus slack for small graphs) and falls
//! back to a [`VidMap`] for genuinely sparse ID sets, so worst-case memory
//! stays bounded.

use imitator_metrics::MemSize;

use crate::ids::{Vid, VidMap};

/// Extra dense slots always allowed beyond the 8× load heuristic, so small
/// graphs never bounce to the sparse representation.
const DENSE_SLACK: usize = 1024;

fn dense_ok(max_raw: u32, len: usize) -> bool {
    (max_raw as usize) < len.saturating_mul(8) + DENSE_SLACK
}

#[derive(Debug, Clone)]
enum Repr {
    /// `table[vid.raw()] = position`, `u32::MAX` = absent.
    Dense(Vec<u32>),
    Sparse(VidMap<u32>),
}

/// A `Vid → u32` position map with a dense fast path.
///
/// Positions must be `< u32::MAX` (the dense table's absent sentinel);
/// local-graph positions are array indices, far below it. Equality is
/// logical — two indices holding the same mappings compare equal regardless
/// of representation.
///
/// # Examples
///
/// ```
/// use imitator_graph::{PosIndex, Vid};
///
/// let idx = PosIndex::from_sorted_vids(&[Vid::new(2), Vid::new(5), Vid::new(9)]);
/// assert_eq!(idx.get(Vid::new(5)), Some(1));
/// assert_eq!(idx.get(Vid::new(4)), None);
/// assert_eq!(idx.at(Vid::new(9)), 2);
/// assert_eq!(idx.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PosIndex {
    repr: Repr,
    len: usize,
}

impl Default for PosIndex {
    fn default() -> Self {
        PosIndex::new()
    }
}

impl PosIndex {
    /// Creates an empty index (sparse until a bulk constructor or dense
    /// clone establishes the ID span).
    pub fn new() -> Self {
        PosIndex {
            repr: Repr::Sparse(VidMap::default()),
            len: 0,
        }
    }

    /// Builds the index mapping each vid to its slice position. `vids` must
    /// be strictly ascending (the natural order of partition copy lists).
    /// The table (dense or sparse) is filled straight from the slice.
    pub fn from_sorted_vids(vids: &[Vid]) -> Self {
        debug_assert!(vids.windows(2).all(|w| w[0] < w[1]), "vids not ascending");
        debug_assert!(
            vids.len() < u32::MAX as usize,
            "u32::MAX is the absent sentinel"
        );
        let max_raw = vids.last().map_or(0, |v| v.raw());
        let positions = vids.iter().zip(0u32..);
        let repr = if dense_ok(max_raw, vids.len()) {
            let mut table = vec![u32::MAX; max_raw as usize + 1];
            for (vid, pos) in positions {
                table[vid.index()] = pos;
            }
            Repr::Dense(table)
        } else {
            let mut map = VidMap::with_capacity_and_hasher(vids.len(), Default::default());
            map.extend(positions.map(|(&vid, pos)| (vid, pos)));
            Repr::Sparse(map)
        };
        PosIndex {
            repr,
            len: vids.len(),
        }
    }

    /// Makes room for `additional` more mappings of IDs up to `max_vid`,
    /// as a bulk insert knows them before it starts: an index whose entries
    /// then fit the dense heuristic becomes (or grows into) a table that
    /// covers the span, so the inserts that follow neither hash nor grow it.
    pub fn reserve(&mut self, max_vid: Vid, additional: usize) {
        let len = self.len + additional;
        match &mut self.repr {
            Repr::Dense(t) => {
                if max_vid.index() >= t.len() && dense_ok(max_vid.raw(), len) {
                    t.resize(max_vid.index() + 1, u32::MAX);
                }
            }
            Repr::Sparse(m) => {
                let held = m.keys().map(|vid| vid.raw()).max();
                let max_raw = held.unwrap_or(0).max(max_vid.raw());
                if !dense_ok(max_raw, len) {
                    m.reserve(additional);
                    return;
                }
                let mut table = vec![u32::MAX; max_raw as usize + 1];
                for (vid, &pos) in m.iter() {
                    table[vid.index()] = pos;
                }
                self.repr = Repr::Dense(table);
            }
        }
    }

    /// The position of `vid`, if mapped.
    #[inline]
    pub fn get(&self, vid: Vid) -> Option<u32> {
        match &self.repr {
            Repr::Dense(t) => match t.get(vid.index()) {
                Some(&p) if p != u32::MAX => Some(p),
                _ => None,
            },
            Repr::Sparse(m) => m.get(&vid).copied(),
        }
    }

    /// The position of `vid`.
    ///
    /// # Panics
    ///
    /// Panics if `vid` is not mapped (the callers' invariant: routing only
    /// targets vertices the destination provably hosts).
    #[inline]
    pub fn at(&self, vid: Vid) -> u32 {
        self.get(vid)
            .unwrap_or_else(|| panic!("{vid} not in position index"))
    }

    /// Maps `vid` to `pos`, overwriting any previous mapping. A dense index
    /// grows to cover new IDs while the span heuristic holds and demotes
    /// itself to sparse when an outlier ID would blow the table up.
    pub fn insert(&mut self, vid: Vid, pos: u32) {
        debug_assert_ne!(pos, u32::MAX, "u32::MAX is the absent sentinel");
        match &mut self.repr {
            Repr::Dense(t) => {
                if vid.index() >= t.len() {
                    if dense_ok(vid.raw(), self.len + 1) {
                        t.resize(vid.index() + 1, u32::MAX);
                    } else {
                        let mut map =
                            VidMap::with_capacity_and_hasher(self.len + 1, Default::default());
                        for (raw, &p) in t.iter().enumerate() {
                            if p != u32::MAX {
                                map.insert(Vid::from_index(raw), p);
                            }
                        }
                        map.insert(vid, pos);
                        self.len = map.len();
                        self.repr = Repr::Sparse(map);
                        return;
                    }
                }
                if t[vid.index()] == u32::MAX {
                    self.len += 1;
                }
                t[vid.index()] = pos;
            }
            Repr::Sparse(m) => {
                if m.insert(vid, pos).is_none() {
                    self.len += 1;
                }
            }
        }
    }

    /// Forgets `vid`'s mapping, returning the position it had. The
    /// representation stays as it is: a dense table keeps its length.
    pub fn remove(&mut self, vid: Vid) -> Option<u32> {
        let old = match &mut self.repr {
            Repr::Dense(t) => t
                .get_mut(vid.index())
                .map(|p| std::mem::replace(p, u32::MAX))
                .filter(|&p| p != u32::MAX),
            Repr::Sparse(m) => m.remove(&vid),
        };
        self.len -= usize::from(old.is_some());
        old
    }

    /// Number of mapped vertex IDs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vertex is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(vid, position)` mappings (dense: ascending vid; sparse:
    /// hash order).
    pub fn iter(&self) -> impl Iterator<Item = (Vid, u32)> + '_ {
        let (dense, sparse) = match &self.repr {
            Repr::Dense(t) => (Some(t), None),
            Repr::Sparse(m) => (None, Some(m)),
        };
        dense
            .into_iter()
            .flatten()
            .enumerate()
            .filter(|&(_, &p)| p != u32::MAX)
            .map(|(raw, &p)| (Vid::from_index(raw), p))
            .chain(sparse.into_iter().flatten().map(|(&vid, &pos)| (vid, pos)))
    }
}

impl PartialEq for PosIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(vid, pos)| other.get(vid) == Some(pos))
    }
}

impl MemSize for PosIndex {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<PosIndex>() + self.heap_bytes()
    }

    fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(t) => t.capacity() * std::mem::size_of::<u32>(),
            Repr::Sparse(m) => m.capacity().max(m.len()) * (std::mem::size_of::<(Vid, u32)>() + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_dense(idx: &PosIndex) -> bool {
        matches!(idx.repr, Repr::Dense(_))
    }

    #[test]
    fn sorted_vids_build_a_dense_index() {
        let vids: Vec<Vid> = (0..500).step_by(3).map(Vid::new).collect();
        let idx = PosIndex::from_sorted_vids(&vids);
        assert!(is_dense(&idx), "span 500 / 167 entries fits the heuristic");
        assert_eq!(idx.len(), vids.len());
        for (pos, &vid) in vids.iter().enumerate() {
            assert_eq!(idx.get(vid), Some(pos as u32));
            assert_eq!(idx.at(vid), pos as u32);
        }
        assert_eq!(idx.get(Vid::new(1)), None);
        assert_eq!(idx.get(Vid::new(100_000)), None);
    }

    /// Inserting into an index reserved for the span, in any order, gives
    /// what filling the table from the slice gives, representation and size
    /// included — and an index reserved after a few inserts takes them along.
    #[test]
    fn sorted_vids_equal_their_reserved_inserts() {
        for step in [1usize, 7, 5_000] {
            let vids: Vec<Vid> = (0..40_000).step_by(step).map(Vid::new).collect();
            let direct = PosIndex::from_sorted_vids(&vids);
            let max = *vids.last().unwrap();
            let pairs: Vec<(Vid, u32)> = vids.iter().copied().zip(0u32..).collect();
            let mut reserved = PosIndex::new();
            for &(vid, pos) in &pairs[..2] {
                reserved.insert(vid, pos);
            }
            reserved.reserve(max, vids.len() - 2);
            for &(vid, pos) in pairs[2..].iter().rev() {
                reserved.insert(vid, pos);
            }
            assert_eq!(is_dense(&direct), is_dense(&reserved), "step {step}");
            assert_eq!(direct, reserved);
            assert_eq!(direct.heap_bytes(), reserved.heap_bytes());
        }
    }

    #[test]
    fn wide_id_span_falls_back_to_sparse() {
        let vids = [Vid::new(0), Vid::new(1), Vid::new(4_000_000)];
        let idx = PosIndex::from_sorted_vids(&vids);
        assert!(!is_dense(&idx), "3 entries over 4M span must stay sparse");
        assert_eq!(idx.get(Vid::new(4_000_000)), Some(2));
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn insert_grows_overwrites_and_demotes() {
        let mut idx = PosIndex::from_sorted_vids(&[Vid::new(0), Vid::new(2)]);
        assert!(is_dense(&idx));
        idx.insert(Vid::new(500), 7); // grow within slack
        assert!(is_dense(&idx));
        idx.insert(Vid::new(2), 9); // overwrite keeps len
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.at(Vid::new(2)), 9);
        idx.insert(Vid::new(3_000_000), 1); // outlier → demote
        assert!(!is_dense(&idx));
        assert_eq!(idx.len(), 4);
        for (vid, pos) in [(0, 0), (2, 9), (500, 7), (3_000_000, 1)] {
            assert_eq!(idx.get(Vid::new(vid)), Some(pos), "v{vid} after demotion");
        }
    }

    #[test]
    fn remove_forgets_one_mapping_in_either_representation() {
        let dense = PosIndex::from_sorted_vids(&[Vid::new(1), Vid::new(3), Vid::new(4)]);
        let mut sparse = PosIndex::new();
        for (vid, pos) in dense.iter() {
            sparse.insert(vid, pos);
        }
        for mut idx in [dense, sparse] {
            assert_eq!(idx.remove(Vid::new(3)), Some(1));
            assert_eq!(idx.remove(Vid::new(3)), None, "already gone");
            assert_eq!(idx.remove(Vid::new(900)), None, "never there");
            assert_eq!(idx.len(), 2);
            assert_eq!(idx.get(Vid::new(3)), None);
            assert_eq!(idx.get(Vid::new(4)), Some(2));
            idx.insert(Vid::new(3), 7);
            assert_eq!((idx.len(), idx.get(Vid::new(3))), (3, Some(7)));
        }
    }

    #[test]
    fn equality_is_logical_across_representations() {
        let dense = PosIndex::from_sorted_vids(&[Vid::new(1), Vid::new(3)]);
        let mut sparse = PosIndex::new();
        sparse.insert(Vid::new(1), 0);
        sparse.insert(Vid::new(3), 1);
        assert!(is_dense(&dense));
        assert!(!is_dense(&sparse));
        assert_eq!(dense, sparse);
        sparse.insert(Vid::new(3), 2);
        assert_ne!(dense, sparse);
    }

    #[test]
    fn iter_covers_all_mappings() {
        let mut idx = PosIndex::new();
        idx.insert(Vid::new(8), 1);
        idx.insert(Vid::new(2), 0);
        let mut got: Vec<(u32, u32)> = idx.iter().map(|(v, p)| (v.raw(), p)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(2, 0), (8, 1)]);
    }

    #[test]
    fn empty_index_behaves() {
        let idx = PosIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.get(Vid::new(0)), None);
        assert_eq!(idx.iter().count(), 0);
        assert_eq!(PosIndex::new(), PosIndex::from_sorted_vids(&[]));
    }
}
