//! [`CsrSanView`]: a borrowed, zero-copy [`SanRead`] over the raw bytes of
//! a `SANCSRBF` snapshot — no column is ever deserialised.
//!
//! This module reads the bytes **in place**, and it is the one v1
//! validator: the eager [`CsrSan::from_store_bytes`] builds a view and
//! copies its columns out ([`CsrSanView::to_owned_csr`]), and the mapped
//! open builds one over the file's pages. The columnar format was designed
//! for it: every descriptor in the header carries the column's absolute
//! byte offset, all ten `u32` columns are little-endian and 4-byte
//! aligned relative to the file start, and the single `u8` tag column
//! comes last — so once the buffer has been validated (header through
//! [`StoreHeader`], checksum, then the store's semantic validators), a
//! view is eleven borrowed slices and two counters: O(1)
//! space beyond the underlying buffer, zero heap allocations, and every
//! [`SanRead`] query runs at the same speed as the owned
//! [`CsrSan`] because both dispatch to identical
//! sorted-slice code.
//!
//! The intended buffer is a read-only mapped file
//! ([`MappedSnapshot`](crate::mmap::MappedSnapshot), page-aligned by
//! `mmap(2)`), but any 4-byte-aligned buffer works — [`AlignedBytes`]
//! re-homes an arbitrary byte vector for callers (and tests) that hold
//! snapshots in plain heap memory. A snapshot that is already an owned
//! [`CsrSan`] (a decoded v2 full day, a delta-built day) needs no buffer
//! at all: the mapped handle views its columns directly, in safe code.
//!
//! # Safety boundary
//!
//! The only `unsafe` here is the slice reinterpretation in
//! `cast_column`: `&[u8]` → `&[u32]`/`&[SocialId]`/`&[AttrId]`. It is
//! sound because (1) [`SocialId`] and
//! [`AttrId`] are `repr(transparent)` over `u32`,
//! (2) the construction path rejects buffers whose base address is not
//! 4-byte aligned ([`StoreError::Misaligned`]) and the validated
//! descriptor tiling puts every `u32` column at a file offset divisible
//! by 4, (3) the wire format is little-endian and this module refuses to
//! compile on big-endian targets, and (4) the borrow ties every view to
//! the buffer's lifetime, so a view can never outlive (or mutate) the
//! bytes it reinterprets.

#[cfg(target_endian = "big")]
compile_error!(
    "CsrSanView reinterprets little-endian SANCSRBF columns in place; a \
     big-endian target would read every id byte-swapped. san-graph does \
     not currently support big-endian hosts — porting would mean gating \
     this module (and its mmap/serve consumers) on target_endian."
);

use crate::csr::{row, sorted_intersection_count, CsrSan};
use crate::ids::{AttrId, AttrType, SocialId};
use crate::read::SanRead;
use crate::store::{
    array_at, attr_type_from_tag, check_id_range, check_offsets, elem_bytes, fnv1a64,
    BaseAttrTypes, BaseColumns, StoreError, StoreHeader, ARRAY_NAMES, CHECKSUM_BYTES, HEADER_BYTES,
    NUM_ARRAYS,
};
use std::borrow::Cow;
use std::fmt;

/// Alignment every `u32` column view requires of the buffer base address.
pub const COLUMN_ALIGN: usize = std::mem::align_of::<u32>();

/// Reinterprets a little-endian byte run as a typed 4-byte-element column.
///
/// # Safety
/// `T` must be `u32` or a `repr(transparent)` wrapper around it;
/// `bytes.len()` must be a multiple of 4 and `bytes.as_ptr()` 4-byte
/// aligned. Callers uphold this by validating buffer alignment once at
/// construction and slicing columns on the validated descriptor grid.
unsafe fn cast_column<T>(bytes: &[u8]) -> &[T] {
    debug_assert_eq!(std::mem::size_of::<T>(), 4, "4-byte element type");
    debug_assert_eq!(bytes.len() % 4, 0, "whole elements");
    debug_assert_eq!(bytes.as_ptr() as usize % COLUMN_ALIGN, 0, "aligned base");
    // SAFETY: forwards this fn's `# Safety` contract — the caller
    // guarantees T is (transparently) u32, the byte length is a whole
    // number of elements, and the base pointer is 4-byte aligned, so the
    // raw-parts slice covers exactly the bytes of `bytes`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / 4) }
}

/// A borrowed, zero-copy CSR snapshot view over validated `SANCSRBF`
/// bytes.
///
/// Implements [`SanRead`] with exactly the owned snapshot's algorithms
/// (sorted rows, binary-search membership, zero-allocation `Γs(u)`), so
/// every analytic downstream runs on it unchanged and produces
/// bit-identical results — the `view_equivalence` and
/// `mapped_equivalence` suites lock this down. `Copy`: a view is eleven
/// slices and two counters, nothing owned.
#[derive(Clone, Copy)]
pub struct CsrSanView<'a> {
    out_off: &'a [u32],
    out_dst: &'a [SocialId],
    in_off: &'a [u32],
    in_src: &'a [SocialId],
    ua_off: &'a [u32],
    ua_attr: &'a [AttrId],
    am_off: &'a [u32],
    am_user: &'a [SocialId],
    und_off: &'a [u32],
    und_nbr: &'a [SocialId],
    attr_tags: &'a [u8],
    num_social_links: usize,
    num_attr_links: usize,
}

impl fmt::Debug for CsrSanView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrSanView")
            .field("social_nodes", &(self.out_off.len() - 1))
            .field("attr_nodes", &self.attr_tags.len())
            .field("social_links", &self.num_social_links)
            .field("attr_links", &self.num_attr_links)
            .finish_non_exhaustive()
    }
}

impl<'a> CsrSanView<'a> {
    /// Validates a `SANCSRBF` buffer and builds a zero-copy view over it.
    ///
    /// Runs the full v1 validation — header checks, per-column bounds,
    /// checksum, then the semantic validators (attribute tags,
    /// offset-table monotonicity, id ranges) — once; afterwards every
    /// accessor is an O(1) slice view. This is the only v1 validator: the
    /// eager [`CsrSan::from_store_bytes`] and the mapped open run it too,
    /// so every corrupt buffer comes back as the same typed
    /// [`StoreError`] on every path (never a panic, never UB).
    /// Additionally the buffer base must be 4-byte aligned
    /// ([`StoreError::Misaligned`]) — mapped files always are, heap
    /// buffers can use [`AlignedBytes`], as the eager loader does.
    pub fn new(bytes: &'a [u8]) -> Result<CsrSanView<'a>, StoreError> {
        Self::new_with_header(bytes).map(|(view, _)| view)
    }

    /// [`CsrSanView::new`] that also hands back the parsed [`StoreHeader`],
    /// so callers that cache the column grid
    /// ([`MappedSnapshot::open`](crate::mmap::MappedSnapshot)) validate and
    /// parse exactly once.
    pub(crate) fn new_with_header(
        bytes: &'a [u8],
    ) -> Result<(CsrSanView<'a>, StoreHeader), StoreError> {
        if bytes.len() < HEADER_BYTES {
            return Err(StoreError::Truncated { section: "header" });
        }
        // BOUNDS: the length guard above keeps this untrusted-input
        // read fully in range (array_at zero-fills on a bug).
        let header_bytes: [u8; HEADER_BYTES] = array_at(bytes, 0);
        let header = StoreHeader::parse(&header_bytes)?;
        // Column bounds before touching any payload, in file order, so a
        // short buffer names the first section it cannot hold.
        for (i, &section) in ARRAY_NAMES.iter().enumerate() {
            let end = header.array_offset(i) + header.array_count(i) * elem_bytes(i);
            if (bytes.len() as u64) < end {
                return Err(StoreError::Truncated { section });
            }
        }
        let payload_end = header.payload_end() as usize;
        if bytes.len() < payload_end + CHECKSUM_BYTES {
            return Err(StoreError::Truncated {
                section: "checksum",
            });
        }
        // BOUNDS: the guard above checked
        // bytes.len() >= payload_end + CHECKSUM_BYTES, covering both the
        // payload slice and the trailer slice on untrusted input.
        let expected = fnv1a64(&bytes[..payload_end]);
        let found = u64::from_le_bytes(array_at(bytes, payload_end));
        if expected != found {
            return Err(StoreError::BadChecksum { expected, found });
        }
        if !(bytes.as_ptr() as usize).is_multiple_of(COLUMN_ALIGN) {
            return Err(StoreError::Misaligned {
                required: COLUMN_ALIGN,
            });
        }
        let view = Self::from_trusted(bytes, &header);
        // Semantic validation in the same order as the v2 loader: tags,
        // then offset-table shape, then id ranges.
        for &tag in view.attr_tags {
            attr_type_from_tag(tag)?;
        }
        check_offsets(view.out_off, view.out_dst.len(), ARRAY_NAMES[0])?;
        check_offsets(view.in_off, view.in_src.len(), ARRAY_NAMES[2])?;
        check_offsets(view.ua_off, view.ua_attr.len(), ARRAY_NAMES[4])?;
        check_offsets(view.am_off, view.am_user.len(), ARRAY_NAMES[6])?;
        check_offsets(view.und_off, view.und_nbr.len(), ARRAY_NAMES[8])?;
        let n = view.out_off.len() - 1;
        let m = view.attr_tags.len();
        check_id_range(view.out_dst, n, ARRAY_NAMES[1], |v: SocialId| v.0)?;
        check_id_range(view.in_src, n, ARRAY_NAMES[3], |v: SocialId| v.0)?;
        check_id_range(view.ua_attr, m, ARRAY_NAMES[5], |v: AttrId| v.0)?;
        check_id_range(view.am_user, n, ARRAY_NAMES[7], |v: SocialId| v.0)?;
        check_id_range(view.und_nbr, n, ARRAY_NAMES[9], |v: SocialId| v.0)?;
        Ok((view, header))
    }

    /// Builds the view from a buffer that has **already** passed the full
    /// [`CsrSanView::new`] validation with this exact header — the O(1)
    /// re-view path [`MappedSnapshot`](crate::mmap::MappedSnapshot) uses
    /// after validating its mapping once at open time.
    pub(crate) fn from_trusted(bytes: &'a [u8], header: &StoreHeader) -> CsrSanView<'a> {
        let col = |i: usize| {
            let start = header.array_offset(i) as usize;
            let len = header.array_count(i) as usize * elem_bytes(i) as usize;
            debug_assert!(i == NUM_ARRAYS - 1 || start.is_multiple_of(COLUMN_ALIGN));
            // BOUNDS: from_trusted's contract — this exact header already
            // passed new_with_header's per-array end <= len validation.
            &bytes[start..start + len]
        };
        // SAFETY: the ten u32 columns sit at validated, 4-byte-aligned
        // offsets (header tiling starts at HEADER_BYTES, a multiple of 4,
        // and each u32 column's byte length is a multiple of 4; the tag
        // column is last), the buffer base is 4-byte aligned (checked in
        // `new`, page-aligned for mappings), SocialId/AttrId are
        // repr(transparent) u32 wrappers, and the target is little-endian
        // (compile-time enforced above).
        unsafe {
            CsrSanView {
                out_off: cast_column::<u32>(col(0)),
                out_dst: cast_column::<SocialId>(col(1)),
                in_off: cast_column::<u32>(col(2)),
                in_src: cast_column::<SocialId>(col(3)),
                ua_off: cast_column::<u32>(col(4)),
                ua_attr: cast_column::<AttrId>(col(5)),
                am_off: cast_column::<u32>(col(6)),
                am_user: cast_column::<SocialId>(col(7)),
                und_off: cast_column::<u32>(col(8)),
                und_nbr: cast_column::<SocialId>(col(9)),
                attr_tags: col(10),
                num_social_links: header.num_social_links() as usize,
                num_attr_links: header.num_attr_links() as usize,
            }
        }
    }

    /// Builds the view over an owned snapshot's own columns, with
    /// `attr_tags` holding the on-disk tag of each of its attribute types
    /// — how [`MappedSnapshot`](crate::mmap::MappedSnapshot) serves a v2
    /// full day or a delta-built day with no v1 image behind it. Safe and
    /// O(1): every [`CsrSan`] is valid when built, so nothing is checked.
    pub(crate) fn from_csr(snap: &'a CsrSan, attr_tags: &'a [u8]) -> CsrSanView<'a> {
        debug_assert_eq!(attr_tags.len(), snap.attr_types.len());
        CsrSanView {
            out_off: &snap.out_off,
            out_dst: &snap.out_dst,
            in_off: &snap.in_off,
            in_src: &snap.in_src,
            ua_off: &snap.ua_off,
            ua_attr: &snap.ua_attr,
            am_off: &snap.am_off,
            am_user: &snap.am_user,
            und_off: &snap.und_off,
            und_nbr: &snap.und_nbr,
            attr_tags,
            num_social_links: snap.num_social_links,
            num_attr_links: snap.num_attr_links,
        }
    }

    /// The precomputed sorted undirected neighbourhood `Γs(u)`, borrowed
    /// straight from the buffer (the view analogue of
    /// [`CsrSan::undirected_neighbors`]).
    #[inline]
    pub fn undirected_neighbors(&self, u: SocialId) -> &'a [SocialId] {
        row(self.und_off, self.und_nbr, u.index())
    }

    /// Undirected degree `|Γs(u)|` in O(1).
    #[inline]
    pub fn undirected_degree(&self, u: SocialId) -> usize {
        self.undirected_neighbors(u).len()
    }

    /// Heap bytes owned by the view itself: always **0**. The view
    /// borrows every column from the underlying buffer; its entire
    /// footprint is `size_of::<CsrSanView>()` on the stack (eleven
    /// slices + two counters). Kept as a method so the zero-allocation
    /// guarantee is audited the same way [`CsrSan::heap_bytes`] audits
    /// the owned form.
    pub fn heap_bytes(&self) -> usize {
        0
    }

    /// Materialises the view into an owned [`CsrSan`] — the second half
    /// of the eager [`CsrSan::from_store_bytes`] v1 load, and the seed for
    /// delta-patching forward from a mapped day (a
    /// `SnapshotSource::Mapped` sweep of `san-metrics`' `evolve_metric`).
    /// Each column is copied into an exactly-sized allocation, so the
    /// result's [`CsrSan::heap_bytes`] equals that of the snapshot the
    /// bytes were written from.
    pub fn to_owned_csr(&self) -> CsrSan {
        CsrSan {
            out_off: self.out_off.to_vec(),
            out_dst: self.out_dst.to_vec(),
            in_off: self.in_off.to_vec(),
            in_src: self.in_src.to_vec(),
            ua_off: self.ua_off.to_vec(),
            ua_attr: self.ua_attr.to_vec(),
            am_off: self.am_off.to_vec(),
            am_user: self.am_user.to_vec(),
            und_off: self.und_off.to_vec(),
            und_nbr: self.und_nbr.to_vec(),
            attr_types: self
                .attr_tags
                .iter()
                // Tags were validated at construction; `Other` is the
                // defensive catch-all if that invariant ever breaks.
                .map(|&t| attr_type_from_tag(t).unwrap_or(AttrType::Other))
                .collect(),
            num_social_links: self.num_social_links,
            num_attr_links: self.num_attr_links,
        }
    }
}

impl<'a> From<CsrSanView<'a>> for BaseColumns<'a> {
    /// The view's columns as a delta base, borrowed from the buffer.
    fn from(view: CsrSanView<'a>) -> BaseColumns<'a> {
        BaseColumns {
            out_off: view.out_off,
            out_dst: view.out_dst,
            in_off: view.in_off,
            in_src: view.in_src,
            ua_off: view.ua_off,
            ua_attr: view.ua_attr,
            am_off: view.am_off,
            am_user: view.am_user,
            und_off: view.und_off,
            und_nbr: view.und_nbr,
            attr_types: BaseAttrTypes::Tags(view.attr_tags),
            num_social_links: view.num_social_links,
            num_attr_links: view.num_attr_links,
        }
    }
}

impl SanRead for CsrSanView<'_> {
    #[inline]
    fn num_social_nodes(&self) -> usize {
        self.out_off.len() - 1
    }

    #[inline]
    fn num_attr_nodes(&self) -> usize {
        self.am_off.len() - 1
    }

    #[inline]
    fn num_social_links(&self) -> usize {
        self.num_social_links
    }

    #[inline]
    fn num_attr_links(&self) -> usize {
        self.num_attr_links
    }

    #[inline]
    fn out_neighbors(&self, u: SocialId) -> &[SocialId] {
        row(self.out_off, self.out_dst, u.index())
    }

    #[inline]
    fn in_neighbors(&self, u: SocialId) -> &[SocialId] {
        row(self.in_off, self.in_src, u.index())
    }

    #[inline]
    fn attrs_of(&self, u: SocialId) -> &[AttrId] {
        row(self.ua_off, self.ua_attr, u.index())
    }

    #[inline]
    fn members_of(&self, a: AttrId) -> &[SocialId] {
        row(self.am_off, self.am_user, a.index())
    }

    #[inline]
    fn attr_type(&self, a: AttrId) -> AttrType {
        // Tags were validated at construction; `Other` is the defensive
        // catch-all if that invariant ever breaks.
        attr_type_from_tag(self.attr_tags[a.index()]).unwrap_or(AttrType::Other)
    }

    /// Binary search on the shorter of the two sorted rows (same
    /// algorithm as the owned snapshot).
    fn has_social_link(&self, src: SocialId, dst: SocialId) -> bool {
        let out = self.out_neighbors(src);
        let inc = self.in_neighbors(dst);
        if out.len() <= inc.len() {
            out.binary_search(&dst).is_ok()
        } else {
            inc.binary_search(&src).is_ok()
        }
    }

    fn has_attr_link(&self, user: SocialId, attr: AttrId) -> bool {
        let ua = self.attrs_of(user);
        let am = self.members_of(attr);
        if ua.len() <= am.len() {
            ua.binary_search(&attr).is_ok()
        } else {
            am.binary_search(&user).is_ok()
        }
    }

    /// Zero-allocation: borrows the precomputed union column in place.
    #[inline]
    fn social_neighbors(&self, u: SocialId) -> Cow<'_, [SocialId]> {
        Cow::Borrowed(self.undirected_neighbors(u))
    }

    /// Sorted-merge intersection (no hashing).
    fn common_attrs(&self, u: SocialId, v: SocialId) -> usize {
        sorted_intersection_count(self.attrs_of(u), self.attrs_of(v))
    }

    /// Sorted-merge intersection of the precomputed unions, excluding the
    /// endpoints themselves.
    fn common_social_neighbors(&self, u: SocialId, v: SocialId) -> usize {
        let nu = self.undirected_neighbors(u);
        let nv = self.undirected_neighbors(v);
        let mut count = sorted_intersection_count(nu, nv);
        for x in [u, v] {
            if nu.binary_search(&x).is_ok() && nv.binary_search(&x).is_ok() {
                count -= 1;
            }
        }
        count
    }
}

/// An owned byte buffer whose base address is guaranteed 4-byte aligned
/// (8, in fact), for holding snapshot bytes that [`CsrSanView::new`] can
/// view in place when the source is heap memory rather than a mapping.
///
/// `Vec<u8>` only guarantees 1-byte alignment; this re-homes the bytes
/// into a `u64`-backed allocation. Mapped files never need it (pages are
/// 4 KiB-aligned).
pub struct AlignedBytes {
    storage: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh 8-byte-aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> AlignedBytes {
        let words = bytes.len().div_ceil(8);
        let mut storage = vec![0u64; words];
        // SAFETY: the destination allocation holds `words * 8 >= len`
        // bytes; u64 has no validity constraints on its bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                storage.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        AlignedBytes {
            storage,
            len: bytes.len(),
        }
    }

    /// A zeroed 8-byte-aligned buffer of `len` bytes, for callers that
    /// assemble a snapshot image in place.
    pub fn zeroed(len: usize) -> AlignedBytes {
        AlignedBytes {
            storage: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// The buffer contents (base address 8-byte aligned).
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: the storage allocation is `storage.len() * 8` bytes and
        // `len` never exceeds it; u8 reads of u64 storage are always valid.
        unsafe { std::slice::from_raw_parts(self.storage.as_ptr().cast::<u8>(), self.len) }
    }

    /// Mutable view of the buffer contents, for decoders that assemble a
    /// snapshot image in place.
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        // SAFETY: mirror of `as_bytes` — the storage allocation is
        // `storage.len() * 8 >= len` bytes, the exclusive borrow of `self`
        // makes the mutable slice unique, and any byte pattern is a valid
        // u64, so writes through the u8 view cannot break storage validity.
        unsafe { std::slice::from_raw_parts_mut(self.storage.as_mut_ptr().cast::<u8>(), self.len) }
    }
}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::TimelineBuilder;
    use crate::san::San;

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<CsrSanView<'static>>();

    // The zero-copy contract, statically: ids really are bare u32s and a
    // view really is a handful of slices.
    const _: () = assert!(std::mem::size_of::<SocialId>() == 4);
    const _: () = assert!(std::mem::align_of::<SocialId>() == 4);
    const _: () = assert!(std::mem::size_of::<AttrId>() == 4);
    const _: () = assert!(
        std::mem::size_of::<CsrSanView<'static>>()
            <= 11 * std::mem::size_of::<&[u8]>() + 2 * std::mem::size_of::<usize>()
    );

    fn sample_csr() -> CsrSan {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        let u2 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::City);
        let a1 = tb.add_attr_node(AttrType::Other);
        tb.add_social_link(u0, u1);
        tb.add_social_link(u1, u0);
        tb.add_social_link(u2, u0);
        tb.add_attr_link(u0, a0);
        tb.add_attr_link(u2, a1);
        tb.finish().1.freeze()
    }

    #[test]
    fn view_agrees_with_owned_snapshot() {
        let csr = sample_csr();
        let bytes = AlignedBytes::from_bytes(&csr.to_store_bytes());
        let view = CsrSanView::new(&bytes).expect("valid bytes");
        assert_eq!(view.num_social_nodes(), csr.num_social_nodes());
        assert_eq!(view.num_attr_nodes(), csr.num_attr_nodes());
        assert_eq!(SanRead::num_social_links(&view), csr.num_social_links);
        for u in 0..csr.num_social_nodes() as u32 {
            let u = SocialId(u);
            assert_eq!(view.out_neighbors(u), SanRead::out_neighbors(&csr, u));
            assert_eq!(view.in_neighbors(u), SanRead::in_neighbors(&csr, u));
            assert_eq!(view.attrs_of(u), SanRead::attrs_of(&csr, u));
            assert_eq!(view.undirected_neighbors(u), csr.undirected_neighbors(u));
        }
        for a in 0..csr.num_attr_nodes() as u32 {
            let a = AttrId(a);
            assert_eq!(view.members_of(a), SanRead::members_of(&csr, a));
            assert_eq!(view.attr_type(a), SanRead::attr_type(&csr, a));
        }
        assert_eq!(view.to_owned_csr(), csr);
        assert_eq!(view.heap_bytes(), 0);
    }

    #[test]
    fn empty_graph_views() {
        let empty = San::new().freeze();
        let bytes = AlignedBytes::from_bytes(&empty.to_store_bytes());
        let view = CsrSanView::new(&bytes).expect("empty snapshot is valid");
        assert_eq!(view.num_social_nodes(), 0);
        assert_eq!(view.num_attr_nodes(), 0);
        assert_eq!(view.to_owned_csr(), empty);
    }

    #[test]
    fn misaligned_buffer_is_rejected_typed() {
        let bytes = sample_csr().to_store_bytes();
        // Force a 4-misaligned base by offsetting into a larger buffer:
        // of any four consecutive addresses, three are misaligned.
        let mut padded = vec![0u8; bytes.len() + 8];
        let base = padded.as_ptr() as usize;
        let shift = (0..COLUMN_ALIGN)
            .find(|s| !(base + s).is_multiple_of(COLUMN_ALIGN))
            .expect("three of four offsets are misaligned");
        padded[shift..shift + bytes.len()].copy_from_slice(&bytes);
        let err = CsrSanView::new(&padded[shift..shift + bytes.len()])
            .expect_err("misaligned base must be rejected");
        assert!(
            matches!(err, StoreError::Misaligned { required: 4 }),
            "{err}"
        );
    }

    #[test]
    fn aligned_bytes_roundtrip_and_alignment() {
        for len in [0usize, 1, 7, 8, 9, 204, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let aligned = AlignedBytes::from_bytes(&src);
            assert_eq!(aligned.as_bytes(), src.as_slice());
            assert_eq!(aligned.as_bytes().as_ptr() as usize % 8, 0);
        }
    }

    #[test]
    fn zeroed_buffer_is_writable_in_place() {
        for len in [0usize, 1, 7, 8, 9, 204, 1000] {
            let mut buf = AlignedBytes::zeroed(len);
            assert!(buf.as_bytes().iter().all(|&b| b == 0));
            assert_eq!(buf.as_bytes().len(), len);
            assert_eq!(buf.as_bytes().as_ptr() as usize % 8, 0);
            for (i, b) in buf.as_mut_bytes().iter_mut().enumerate() {
                *b = (i * 37) as u8;
            }
            let expect: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            assert_eq!(buf.as_bytes(), expect.as_slice());
        }
    }

    #[test]
    fn view_is_copy_and_shareable_across_threads() {
        let csr = sample_csr();
        let bytes = AlignedBytes::from_bytes(&csr.to_store_bytes());
        let view = CsrSanView::new(&bytes).expect("valid bytes");
        let totals: Vec<usize> = std::thread::scope(|scope| {
            (0..4)
                .map(|t| {
                    let v = view; // Copy
                    scope.spawn(move || {
                        v.social_nodes()
                            .skip(t)
                            .step_by(4)
                            .map(|u| v.out_degree(u))
                            .sum::<usize>()
                    })
                })
                .map(|h| h.join().expect("no panic"))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            totals.iter().sum::<usize>(),
            SanRead::num_social_links(&csr)
        );
    }
}
