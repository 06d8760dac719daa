//! [`RowArena`]: growable adjacency rows that share one allocation.
//!
//! A SAN grows one node and one link at a time (Algorithm 1, §5.3). One
//! `Vec` per row would cost one heap block per node and per adjacency
//! kind, plus a reallocation every time a row doubles. The arena keeps
//! every row of one kind in a single `Vec<T>`; a row is a
//! `(start, len, cap)` span into it:
//!
//! * a row with spare room takes a push (or a sorted insert) in place;
//! * a full row moves to the arena's end with twice the room (at least
//!   4), and its old slots stay behind as dead space (a row that already
//!   ends the arena grows where it is);
//! * [`compact`](RowArena::compact) copies every row, in row order, into
//!   a fresh arena with no spare room, so a finished network costs only
//!   its live entries.
//!
//! Dead space is bounded by the doubling: a row's abandoned copies sum to
//! less than its current room, and that room is under twice its length
//! (or the minimum 4), so before compaction an arena holds fewer than
//! four slots per live entry of every row longer than 4, plus the
//! `Vec`'s own spare capacity. Spans are `u32`, like the
//! CSR offsets; growing an arena past `u32::MAX` entries is an assertion
//! failure, never a silent wrap.

/// One row's place in the arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Rows of `T` in one `Vec<T>`; row `i` is `data[start..start + len]` of
/// its span, in insertion order (or sorted, for rows filled only by
/// [`insert`](RowArena::insert) at a binary-search slot).
#[derive(Debug, Clone)]
pub(crate) struct RowArena<T> {
    data: Vec<T>,
    spans: Vec<Span>,
}

impl<T> Default for RowArena<T> {
    fn default() -> Self {
        RowArena {
            data: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl<T: Copy> RowArena<T> {
    /// An empty arena with room for `rows` spans.
    pub(crate) fn with_rows(rows: usize) -> Self {
        RowArena {
            data: Vec::new(),
            spans: Vec::with_capacity(rows),
        }
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.spans.len()
    }

    /// Appends an empty row.
    pub(crate) fn push_row(&mut self) {
        self.spans.push(Span {
            start: self.data.len() as u32,
            len: 0,
            cap: 0,
        });
    }

    /// Row `i`.
    ///
    /// # Panics
    /// Panics if `i` is not a row.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        let s = self.spans[i];
        &self.data[s.start as usize..][..s.len as usize]
    }

    /// Row `i`, or `None` if there is no such row.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&[T]> {
        let s = *self.spans.get(i)?;
        self.data.get(s.start as usize..)?.get(..s.len as usize)
    }

    /// Every row, in row order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.spans
            .iter()
            .map(|s| &self.data[s.start as usize..][..s.len as usize])
    }

    /// Total entries over all rows.
    pub(crate) fn total_len(&self) -> usize {
        self.spans.iter().map(|s| s.len as usize).sum()
    }

    /// Appends `x` to row `i`.
    pub(crate) fn push(&mut self, i: usize, x: T) {
        let start = self.make_room(i, x);
        let len = self.spans[i].len as usize;
        self.data[start + len] = x;
        self.spans[i].len += 1;
    }

    /// Inserts `x` at position `at` of row `i`, shifting the tail of the
    /// row up by one.
    ///
    /// # Panics
    /// Panics if `at` is past the row's end.
    pub(crate) fn insert(&mut self, i: usize, at: usize, x: T) {
        let len = self.spans[i].len as usize;
        assert!(at <= len, "insert at {at} past row length {len}");
        let start = self.make_room(i, x);
        self.data
            .copy_within(start + at..start + len, start + at + 1);
        self.data[start + at] = x;
        self.spans[i].len += 1;
    }

    /// Makes room for one more entry in row `i` and returns the row's
    /// start. A full row moves to the end of the arena with twice the
    /// room (at least 4), or grows in place when it already ends the
    /// arena; `fill` pads the new spare slots.
    fn make_room(&mut self, i: usize, fill: T) -> usize {
        let s = self.spans[i];
        let (start, len, cap) = (s.start as usize, s.len as usize, s.cap as usize);
        if len < cap {
            return start;
        }
        let new_cap = (2 * cap).max(4);
        let new_start = if start + cap == self.data.len() {
            start
        } else {
            let end = self.data.len();
            self.data.extend_from_within(start..start + len);
            end
        };
        self.data.resize(new_start + new_cap, fill);
        assert!(
            self.data.len() <= u32::MAX as usize,
            "row arena overflows u32 (more than 4.29e9 entries)"
        );
        self.spans[i] = Span {
            start: new_start as u32,
            len: s.len,
            cap: new_cap as u32,
        };
        new_start
    }

    /// Copies every row, in row order, into a fresh arena with no spare
    /// room and frees the old one. Rows keep their contents; the next
    /// push to a compacted row moves it to the end again.
    pub(crate) fn compact(&mut self) {
        let mut data = Vec::with_capacity(self.total_len());
        for s in &mut self.spans {
            let start = data.len() as u32;
            data.extend_from_slice(&self.data[s.start as usize..][..s.len as usize]);
            *s = Span {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.data = data;
        self.spans.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `n` values into each of three interleaved rows, so every
    /// row relocates several times, and checks each row after every push.
    #[test]
    fn interleaved_rows_survive_relocation() {
        let mut a: RowArena<u32> = RowArena::default();
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for _ in 0..3 {
            a.push_row();
        }
        for k in 0..40u32 {
            for i in 0..3 {
                let x = k * 10 + i as u32;
                a.push(i, x);
                want[i].push(x);
                for (j, w) in want.iter().enumerate() {
                    assert_eq!(a.row(j), w.as_slice());
                }
            }
        }
        assert_eq!(a.total_len(), 120);
    }

    #[test]
    fn sorted_insert_and_compaction() {
        let mut a: RowArena<u32> = RowArena::with_rows(2);
        a.push_row();
        a.push_row();
        for x in [5u32, 1, 9, 3, 7, 2, 8] {
            if let Err(at) = a.row(0).binary_search(&x) {
                a.insert(0, at, x);
            }
            a.push(1, x);
        }
        assert_eq!(a.row(0).binary_search(&9), Ok(6));
        assert_eq!(a.row(0), &[1, 2, 3, 5, 7, 8, 9]);
        a.compact();
        assert_eq!(a.data.len(), 14);
        assert_eq!(a.data.capacity(), 14);
        assert_eq!(a.row(0), &[1, 2, 3, 5, 7, 8, 9]);
        assert_eq!(a.row(1), &[5, 1, 9, 3, 7, 2, 8]);
        // A compacted row moves to the end again on its next push.
        a.push(0, 10);
        a.insert(0, 0, 0);
        assert_eq!(a.row(0), &[0, 1, 2, 3, 5, 7, 8, 9, 10]);
        assert_eq!(a.row(1), &[5, 1, 9, 3, 7, 2, 8]);
        assert_eq!(a.get(2), None);
        assert_eq!(a.iter().count(), 2);
    }
}
