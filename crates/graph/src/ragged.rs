//! Ragged arrays: one short list per row in two flat allocations.
//!
//! Placement tables answer "which parts hold a copy of `v`" with 0–3 items
//! for almost every vertex. As a `Vec<Vec<_>>` that is a heap block per
//! vertex to allocate, grow, shrink and free; a [`Ragged`] keeps every row
//! back to back behind one offsets array, so a table over 100 k vertices
//! costs two allocations to build and two `free`s to drop. [`BitRows`] is
//! the scratch such a table is collected in when rows are *sets* of small
//! integers found in no particular order: one `|=` per sighting, and the
//! rows read back ascending without a sort.

use imitator_metrics::MemSize;

/// `rows` lists of `T`, row `i` at `items[offsets[i]..offsets[i + 1]]`.
///
/// Rows are appended in order ([`Ragged::push_row`]) and read as slices;
/// a finished table is never edited.
///
/// # Examples
///
/// ```
/// use imitator_graph::Ragged;
///
/// let mut table = Ragged::with_capacity(3, 4);
/// table.push_row([7u32, 9]);
/// table.push_row([]);
/// table.push_row([1, 2]);
/// assert_eq!(table.row(0), &[7, 9]);
/// assert!(table.row(1).is_empty());
/// assert_eq!((table.num_rows(), table.num_items()), (3, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ragged<T> {
    /// `num_rows + 1` ascending offsets into `items`, the first 0.
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Ragged<T> {
    fn default() -> Self {
        Ragged::with_capacity(0, 0)
    }
}

impl<T> Ragged<T> {
    /// An empty table with room for `rows` rows holding `items` items
    /// between them: filled to exactly that, it never reallocates.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Ragged {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// `rows` empty rows (one allocation).
    pub fn empty_rows(rows: usize) -> Self {
        Ragged {
            offsets: vec![0; rows + 1],
            items: Vec::new(),
        }
    }

    /// A table holding a copy of each of `rows`, in order.
    pub fn from_rows<R: AsRef<[T]>>(rows: &[R]) -> Self
    where
        T: Copy,
    {
        let items = rows.iter().map(|row| row.as_ref().len()).sum();
        let mut table = Ragged::with_capacity(rows.len(), items);
        for row in rows {
            table.push_row(row.as_ref().iter().copied());
        }
        table
    }

    /// Appends a row holding `items`.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold more than `u32::MAX` items.
    pub fn push_row(&mut self, items: impl IntoIterator<Item = T>) {
        self.items.extend(items);
        let end = u32::try_from(self.items.len()).expect("a ragged table holds < 2^32 items");
        self.offsets.push(end);
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such row.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length of row `i`, without touching the items.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Rows in the table.
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Items in all rows together.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.items[w[0] as usize..w[1] as usize])
    }
}

impl<T> MemSize for Ragged<T> {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Ragged<T>>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }
}

/// A bitset per row, all rows `width` bits wide, in one allocation: row `i`
/// is the set of small integers (part numbers) seen for item `i`.
///
/// # Examples
///
/// ```
/// use imitator_graph::BitRows;
///
/// let mut seen = BitRows::new(2, 70);
/// for part in [69, 3, 64, 3] {
///     seen.insert(1, part);
/// }
/// seen.remove(1, 64);
/// assert_eq!(seen.to_ragged().row(1), &[3, 69]);
/// assert_eq!(seen.nth(1, 1), Some(69));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRows {
    /// Words per row: `ceil(width / 64)`, at least one.
    stride: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// `rows` empty sets over `0..width`.
    pub fn new(rows: usize, width: usize) -> Self {
        let stride = width.div_ceil(64).max(1);
        BitRows {
            stride,
            words: vec![0; rows * stride],
        }
    }

    /// Adds `bit` to row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is past the rows' width or the row does not exist.
    #[inline]
    pub fn insert(&mut self, row: usize, bit: u32) {
        let word = bit as usize / 64;
        assert!(word < self.stride, "bit {bit} past the row width");
        self.words[row * self.stride + word] |= 1u64 << (bit % 64);
    }

    /// Takes `bit` out of row `row`, if it is there.
    #[inline]
    pub fn remove(&mut self, row: usize, bit: u32) {
        let word = bit as usize / 64;
        if word < self.stride {
            self.words[row * self.stride + word] &= !(1u64 << (bit % 64));
        }
    }

    fn row_words(&self, row: usize) -> &[u64] {
        &self.words[row * self.stride..(row + 1) * self.stride]
    }

    /// Members of row `row`.
    pub fn count(&self, row: usize) -> usize {
        let words = self.row_words(row).iter();
        words.map(|w| w.count_ones() as usize).sum()
    }

    /// The `k`-th smallest member of row `row` (from 0), if it has that
    /// many.
    pub fn nth(&self, row: usize, k: usize) -> Option<u32> {
        members(self.row_words(row)).nth(k)
    }

    /// Every row's members, ascending, as a table: counted, then filled
    /// (two allocations whatever the number of rows).
    pub fn to_ragged(&self) -> Ragged<u32> {
        let rows = self.words.len() / self.stride;
        let items = self.words.iter().map(|w| w.count_ones() as usize).sum();
        let mut table = Ragged::with_capacity(rows, items);
        for row in self.words.chunks_exact(self.stride) {
            table.push_row(members(row));
        }
        table
    }
}

/// The set bits of `words`, ascending.
fn members(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(word, &bits)| {
        let mut left = bits;
        std::iter::from_fn(move || {
            let bit = (left != 0).then(|| left.trailing_zeros())?;
            left &= left - 1;
            Some(word as u32 * 64 + bit)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_read_back_in_order() {
        let rows: [&[u32]; 4] = [&[], &[5, 1], &[], &[9]];
        let table = Ragged::from_rows(&rows);
        assert_eq!(table.num_rows(), 4);
        assert_eq!(table.num_items(), 3);
        assert!(table.rows().eq(rows.iter().copied()));
        assert_eq!(table.row_len(1), 2);
        assert_eq!(table, {
            let mut pushed = Ragged::default();
            rows.iter().for_each(|r| pushed.push_row(r.iter().copied()));
            pushed
        });
    }

    #[test]
    fn empty_rows_are_all_empty() {
        let table: Ragged<u32> = Ragged::empty_rows(3);
        assert_eq!((table.num_rows(), table.num_items()), (3, 0));
        assert!(table.rows().all(<[u32]>::is_empty));
        assert_eq!(Ragged::<u32>::default().num_rows(), 0);
    }

    #[test]
    fn a_table_filled_to_its_capacity_never_reallocates() {
        let mut table = Ragged::with_capacity(2, 3);
        let (offsets, items) = (table.offsets.as_ptr(), table.items.as_ptr());
        table.push_row([1u32, 2]);
        table.push_row([3]);
        assert_eq!(
            (table.offsets.as_ptr(), table.items.as_ptr()),
            (offsets, items)
        );
    }

    #[test]
    fn bit_rows_cross_a_word_and_read_back_ascending() {
        let mut seen = BitRows::new(3, 130);
        for (row, bit) in [(0, 129), (0, 0), (0, 64), (0, 63), (2, 7), (0, 64)] {
            seen.insert(row, bit);
        }
        assert_eq!((seen.count(0), seen.count(1), seen.count(2)), (4, 0, 1));
        assert_eq!(seen.nth(0, 2), Some(64));
        assert_eq!(seen.nth(0, 4), None);
        seen.remove(0, 63);
        seen.remove(1, 5);
        seen.remove(1, 4_000);
        let table = seen.to_ragged();
        assert_eq!(table.row(0), &[0, 64, 129]);
        assert!(table.row(1).is_empty());
        assert_eq!(table.row(2), &[7]);
    }

    #[test]
    fn zero_width_rows_still_exist() {
        let seen = BitRows::new(2, 0);
        assert_eq!(seen.to_ragged().num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "past the row width")]
    fn a_bit_past_the_width_is_refused() {
        BitRows::new(1, 64).insert(0, 64);
    }
}
