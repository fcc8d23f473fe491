//! A short list stored in place of a `Vec`'s three words.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Items an [`InlineList`] holds without a heap allocation: the most that
/// fit in the 24 bytes a `Vec` of 4-byte items occupies anyway.
pub const INLINE_ITEMS: usize = 3;

/// A list of node IDs or array positions that is nearly always a handful
/// long — a vertex has at most `nodes − 1` replicas and `K` mirrors.
///
/// Up to [`INLINE_ITEMS`] items live inside the value; a longer list spills
/// to a `Vec`. Full state carries three such lists per master and mirror,
/// so on a four-node cluster they cost no allocation (and no `free` at
/// teardown) at all. Reads go through the slice it dereferences to; order
/// is the caller's business, as with a `Vec`.
///
/// # Examples
///
/// ```
/// use imitator_engine::InlineList;
///
/// let mut list: InlineList<u32> = [4, 9].into_iter().collect();
/// list.push(7);
/// list.sort_unstable();
/// assert_eq!(*list, [4, 7, 9]);
/// assert_eq!(list.heap_bytes(), 0);
/// list.push(11); // the fourth item spills
/// assert_eq!(*list, [4, 7, 9, 11]);
/// assert!(list.heap_bytes() >= 16);
/// ```
#[derive(Clone)]
pub struct InlineList<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Inline { len: u8, items: [T; INLINE_ITEMS] },
    Heap(Vec<T>),
}

impl<T: Copy + Default> InlineList<T> {
    /// An empty list.
    pub fn new() -> Self {
        InlineList(Repr::Inline {
            len: 0,
            items: [T::default(); INLINE_ITEMS],
        })
    }

    /// An empty list with room for `capacity` items: one exact heap
    /// allocation when that is more than fit inline.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= INLINE_ITEMS {
            InlineList::new()
        } else {
            InlineList(Repr::Heap(Vec::with_capacity(capacity)))
        }
    }

    /// Moves an inline list to the heap, with room for one more item.
    fn spill(&mut self) -> &mut Vec<T> {
        if let Repr::Inline { .. } = self.0 {
            let mut spilled = Vec::with_capacity(2 * INLINE_ITEMS);
            spilled.extend_from_slice(self);
            self.0 = Repr::Heap(spilled);
        }
        let Repr::Heap(items) = &mut self.0 else {
            unreachable!("just spilled")
        };
        items
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        let at = self.len();
        self.insert(at, item);
    }

    /// Inserts `item` at `index`, shifting what follows.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, item: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < INLINE_ITEMS => {
                let n = usize::from(*len);
                assert!(index <= n, "insertion index {index} beyond length {n}");
                items.copy_within(index..n, index + 1);
                items[index] = item;
                *len += 1;
            }
            _ => self.spill().insert(index, item),
        }
    }

    /// Removes and returns the item at `index`, shifting what follows.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let n = usize::from(*len);
                assert!(index < n, "removal index {index} beyond length {n}");
                let item = items[index];
                items.copy_within(index + 1..n, index);
                *len -= 1;
                item
            }
            Repr::Heap(items) => items.remove(index),
        }
    }

    /// Keeps only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Heap(items) => items.retain(keep),
        }
    }

    /// Gives back heap capacity the list does not use.
    pub fn shrink_to_fit(&mut self) {
        if let Repr::Heap(items) = &mut self.0 {
            items.shrink_to_fit();
        }
    }

    /// Heap bytes the list owns (none while it is inline).
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(items) => items.capacity() * std::mem::size_of::<T>(),
        }
    }
}

impl<T: Copy + Default> Default for InlineList<T> {
    fn default() -> Self {
        InlineList::new()
    }
}

impl<T> Deref for InlineList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }
}

impl<T> DerefMut for InlineList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }
}

impl<T: Copy + Default> FromIterator<T> for InlineList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut list = InlineList::with_capacity(iter.size_hint().0);
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<T: Copy + Default> From<&[T]> for InlineList<T> {
    fn from(items: &[T]) -> Self {
        items.iter().copied().collect()
    }
}

impl<'a, T> IntoIterator for &'a InlineList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Lists are equal when their items are, wherever those are stored.
impl<T: PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for InlineList<T> {}

impl<T: fmt::Debug> fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(items: &[u32]) -> InlineList<u32> {
        InlineList::from(items)
    }

    #[test]
    fn no_larger_than_a_vec() {
        assert_eq!(
            std::mem::size_of::<InlineList<u32>>(),
            std::mem::size_of::<Vec<u32>>()
        );
    }

    /// Every mutation agrees with the same mutation of a `Vec`, across the
    /// inline/heap boundary in both directions.
    #[test]
    fn mutations_match_vec() {
        for n in 0..=2 * INLINE_ITEMS as u32 {
            let items: Vec<u32> = (0..n).map(|i| i * 10).collect();
            for at in 0..=items.len() {
                let (mut ours, mut theirs) = (list(&items), items.clone());
                ours.insert(at, 5);
                theirs.insert(at, 5);
                assert_eq!(*ours, *theirs, "insert at {at} into {items:?}");
                assert_eq!(ours.remove(at), theirs.remove(at));
                assert_eq!(*ours, *theirs, "remove at {at}");
            }
            let (mut ours, mut theirs) = (list(&items), items.clone());
            ours.retain(|x| x % 20 == 0);
            theirs.retain(|x| x % 20 == 0);
            assert_eq!(*ours, *theirs, "retain on {items:?}");
            ours.push(1);
            theirs.push(1);
            assert_eq!(*ours, *theirs, "push onto {items:?}");
        }
    }

    #[test]
    fn short_lists_own_no_heap_and_long_ones_are_exact() {
        assert_eq!(list(&[1, 2, 3]).heap_bytes(), 0);
        assert_eq!(list(&[1, 2, 3, 4, 5]).heap_bytes(), 5 * 4);
        let mut spilled = list(&[1, 2, 3]);
        spilled.push(4);
        spilled.shrink_to_fit();
        assert_eq!(spilled.heap_bytes(), 4 * 4);
    }

    #[test]
    fn equality_ignores_representation() {
        let mut spilled = list(&[1, 2, 3, 4]);
        spilled.remove(3);
        assert!(spilled.heap_bytes() > 0);
        assert_eq!(spilled, list(&[1, 2, 3]));
        assert_ne!(spilled, list(&[1, 2]));
        assert_eq!(format!("{spilled:?}"), "[1, 2, 3]");
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn insert_past_the_end_panics() {
        list(&[1]).insert(2, 9);
    }
}
