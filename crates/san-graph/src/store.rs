//! Columnar binary snapshot store: persist a [`CsrSan`] and load it back
//! without replaying a single event.
//!
//! # Format (`SANCSRBF`, version 1)
//!
//! A snapshot file is a fixed-size header, eleven contiguous columnar
//! payload arrays, and a trailing checksum — everything little-endian:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic: b"SANCSRBF"
//!      8     4  format version: u32 (currently 1)
//!     12     8  num_social_links: u64
//!     20     8  num_attr_links:   u64
//!     28   176  11 array descriptors, one per payload array, in file order:
//!                 { byte_offset: u64, element_count: u64 }
//!    204     …  payload arrays, contiguous, in descriptor order:
//!                 out_off   u32 × (n+1)   CSR row offsets, Γs,out
//!                 out_dst   u32 × Es      destination ids
//!                 in_off    u32 × (n+1)   CSR row offsets, Γs,in
//!                 in_src    u32 × Es      source ids
//!                 ua_off    u32 × (n+1)   CSR row offsets, user→attr
//!                 ua_attr   u32 × Ea      attribute ids
//!                 am_off    u32 × (m+1)   CSR row offsets, attr→user
//!                 am_user   u32 × Ea      member ids
//!                 und_off   u32 × (n+1)   CSR row offsets, Γs (union)
//!                 und_nbr   u32 × U       undirected neighbour ids
//!                 attr_types u8 × m       attribute-type tags
//!   tail      8  FNV-1a 64-bit checksum of every preceding byte
//! ```
//!
//! Each array is written as raw little-endian elements with **no padding**
//! between arrays, and every descriptor's `byte_offset` is absolute from
//! the start of the snapshot — a future mmap path can view any column in
//! place from the header alone without touching the others.
//!
//! ## Versioning policy
//!
//! The magic identifies the family; `version` is bumped on **any** layout
//! change (array order, element width, header field). Readers reject
//! versions they do not know ([`StoreError::UnsupportedVersion`]) rather
//! than guessing: snapshot files are cheap to regenerate from the event
//! log, so there is no migration machinery — old files are simply
//! re-frozen.
//!
//! ## Validation
//!
//! [`CsrSan::read_from`] never panics on untrusted bytes and never returns
//! a structurally inconsistent graph. Every failure is a typed
//! [`StoreError`]:
//!
//! * short stream anywhere → [`StoreError::Truncated`],
//! * wrong magic / unknown version → [`StoreError::BadMagic`] /
//!   [`StoreError::UnsupportedVersion`],
//! * descriptors that do not tile the payload region exactly →
//!   [`StoreError::OffsetMismatch`],
//! * element counts that disagree with each other or with the header
//!   link counters → [`StoreError::CountMismatch`],
//! * a CSR offset table that does not start at 0, decreases, or does not
//!   end at its payload length → [`StoreError::NonMonotoneOffsets`],
//! * an unknown attribute-type tag → [`StoreError::BadAttrType`],
//! * a neighbour/member id outside the node range →
//!   [`StoreError::IdOutOfRange`],
//! * a checksum mismatch (random corruption anywhere) →
//!   [`StoreError::BadChecksum`].
//!
//! Header-level checks (magic, version, descriptor tiling, cross-array
//! counts — including a hard cap of `u32::MAX` elements per array, which
//! no valid snapshot can exceed since CSR offsets are `u32`) run before
//! any payload is allocated, and payload reservations trust a declared
//! count only up to a fixed bound before the stream has delivered the
//! bytes — so a crafted header can neither panic the reader nor reserve
//! memory the file does not contain. The offset-table and id-range
//! validators run after the checksum has vouched for the bytes,
//! so random corruption surfaces as [`StoreError::BadChecksum`] while a
//! deliberately re-sealed file still cannot smuggle in a non-monotone
//! table or a dangling id.
//!
//! # Vaults
//!
//! [`SnapshotVault`] turns the single-file format into a persisted
//! timeline: a directory of `day-NNNN.csr` files plus a `manifest.txt`
//! index. [`SnapshotVault::save_timeline`] freezes every `step`-th day
//! through the delta pipeline and persists it;
//! [`SanTimeline::resume_from_vault`](crate::SanTimeline::resume_from_vault)
//! then warm-starts any later sweep from the nearest persisted day instead
//! of replaying from day 0.
//!
//! Every persist is two steps: the day is encoded into memory, then
//! committed — a delta day's base checked against the manifest, the bytes
//! written to a temp file and renamed into place, the manifest rewritten,
//! the write meters fed. The `save_day*` methods run both steps on the
//! caller's thread. [`StreamingVaultWriter`], which persists a timeline as
//! it is generated, runs them on two: its worker thread patches and
//! encodes each grid day while the calling thread commits the previous
//! one.
//!
//! # Format (`SANCSRBF`, version 2)
//!
//! Version 2 shares v1's magic, little-endian discipline, and FNV-1a 64
//! trailer, but compresses every `u32` column through the
//! [`codec`] pipeline — 1024-element frame-of-reference
//! blocks whose deltas are zigzag-varint coded — and splits a persisted
//! timeline into **full** days and **delta** days. Byte 12 (directly after
//! the version word) is a kind byte: [`V2_KIND_FULL`] or
//! [`V2_KIND_DELTA`].
//!
//! A **full** day is self-contained, v1's eleven arrays in the same order
//! with compressed payloads:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic: b"SANCSRBF"
//!      8     4  format version: u32 = 2
//!     12     1  kind: u8 = 0 (full)
//!     13     3  padding (zero)
//!     16     8  num_social_links: u64
//!     24     8  num_attr_links:   u64
//!     32   176  11 column descriptors, one per array, in file order:
//!                 { element_count: u64, encoded_byte_len: u64 }
//!    208     …  payloads, contiguous, in descriptor order; u32 arrays are
//!               codec streams, attr_types stays raw u8 × m
//!   tail      8  FNV-1a 64-bit checksum of every preceding byte
//! ```
//!
//! A **delta** day stores only what changed since a named *base day* that
//! must already be persisted in the same vault: appended CSR rows and the
//! adjacency added to each of the five lists, as `(row, value)` pairs
//! split into two codec streams (rows, then values — both monotone-ish and
//! so codec-friendly):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic: b"SANCSRBF"
//!      8     4  format version: u32 = 2
//!     12     1  kind: u8 = 1 (delta)
//!     13     3  padding (zero)
//!     16     4  base_day: u32
//!     20     8  new_social_rows: u64     (rows appended since base)
//!     28     8  new_attr_rows:   u64
//!     36     8  num_social_links: u64    (totals *after* applying)
//!     44     8  num_attr_links:   u64
//!     52   120  5 list descriptors { pair_count: u64, rows_byte_len: u64,
//!                 vals_byte_len: u64 } for out/in/ua/am/und additions
//!    172     8  attr_type_add count: u64
//!    180     …  per list: rows codec stream, then values codec stream;
//!               then raw added attr-type tags (u8 each)
//!   tail      8  FNV-1a 64-bit checksum of every preceding byte
//! ```
//!
//! ## Delta chains
//!
//! A delta day is its base (which may itself be a delta) plus the
//! additions, applied by one merge per link — the
//! [`DeltaFreezer`](crate::DeltaFreezer) merge, so persisted deltas patch
//! bit-identically to live ones. There are two ways to resolve one:
//!
//! * **Standalone** — [`SnapshotVault::load_day`] and
//!   [`map_day`](SnapshotVault::map_day) decode the chain's full ancestor
//!   and replay every delta above it, oldest first: *k* merges for a
//!   chain of *k* links. Any caller can do this with no other day open.
//! * **Onto a resident base** — [`SnapshotVault::map_delta_onto`] takes
//!   the already-open snapshot of the day's manifest base and applies
//!   just this day's delta to its borrowed columns: one read, one merge,
//!   whatever the chain's depth. The serving cache (`san-serve`'s
//!   `SnapshotServer`) opens a cold delta day this way whenever its base
//!   is resident, and standalone otherwise.
//!
//! Both paths serve the result through
//! [`MappedSnapshot::from_owned`](crate::mmap::MappedSnapshot::from_owned),
//! check each delta file's base pointer against the manifest
//! ([`StoreError::BadManifest`]), and meter the links they apply
//! ([`VaultMetrics::record_chain`]). Chains are bounded at
//! [`MAX_DELTA_CHAIN`] links: [`SnapshotVault::save_day_delta`] refuses
//! to extend past the bound, and readers reject deeper chains and
//! dangling bases ([`StoreError::DeltaWithoutBase`]) rather than
//! recursing unboundedly. [`StreamingVaultWriter`] emits the pattern
//! *full, (k−1) deltas, full, …* so any day reconstructs standalone in at
//! most *k* reads — the write-side knob trading vault bytes (deltas are
//! typically 5–20× smaller than fulls) against cold-open latency.
//!
//! ## Choosing full vs delta
//!
//! Writers are free to mix: [`SnapshotVault::save_day`] writes v1,
//! [`SnapshotVault::save_day_v2`] a v2 full, and
//! [`SnapshotVault::save_day_delta`] a v2 delta against any persisted
//! base. All three coexist in one manifest and every read path
//! ([`SnapshotVault::load_day`], [`map_day`](SnapshotVault::map_day),
//! [`SanTimeline::resume_from_vault`](crate::SanTimeline::resume_from_vault))
//! returns bit-identical snapshots regardless of which format a day landed
//! in. v1 stays the interchange format — fixed layout, mmap-viewable in
//! place — while v2 is the archival format: same information, a fraction
//! of the bytes, decoded through a bounds-checked streaming pass.
//!
//! v2 decode failures reuse the v1 taxonomy and add
//! [`StoreError::BadCodec`] (malformed varint/FoR stream, named array) and
//! [`StoreError::DeltaWithoutBase`] (chain root missing). Headers are
//! validated before any payload allocation, exactly as in v1.

use crate::csr::CsrSan;
use crate::ids::{AttrId, AttrType, SocialId};
use crate::meter::VaultMetrics;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// File magic identifying the columnar CsrSan snapshot family.
pub const MAGIC: [u8; 8] = *b"SANCSRBF";

/// The raw-column format version (v1); bumped on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// The compressed/delta format version (v2). v1 and v2 files coexist in
/// the same vault; readers dispatch on the version word.
pub const FORMAT_VERSION_V2: u32 = 2;

/// v2 kind byte: a self-contained day with every column codec-compressed.
pub const V2_KIND_FULL: u8 = 0;

/// v2 kind byte: a delta day holding only the adjacency added since a
/// named base day.
pub const V2_KIND_DELTA: u8 = 1;

/// Magic + version word — the prefix every reader peeks to dispatch.
pub(crate) const VERSION_PREFIX_BYTES: usize = 12;

/// v2 full header: magic, version, kind + 3 pad bytes, the two link
/// counters, then `{count, byte_len}` per payload array.
pub const V2_FULL_HEADER_BYTES: usize = 8 + 4 + 1 + 3 + 8 + 8 + NUM_ARRAYS * 16;

/// v2 delta header: magic, version, kind + 3 pad, base day, new node/attr
/// counts, the two link counters, `{pairs, rows_len, vals_len}` per
/// add-list, then the added-tag count.
pub const V2_DELTA_HEADER_BYTES: usize =
    8 + 4 + 1 + 3 + 4 + 8 + 8 + 8 + 8 + NUM_DELTA_LISTS * 24 + 8;

/// Add-lists in a delta day, in file order (mirrors the five CSRs).
pub const NUM_DELTA_LISTS: usize = 5;

/// Longest base→…→day delta chain a vault will create or resolve. Bounds
/// cold-miss reconstruction cost; a manifest requiring a longer walk is
/// rejected as [`StoreError::BadManifest`].
pub const MAX_DELTA_CHAIN: usize = 16;

/// Number of columnar payload arrays in a snapshot file.
pub const NUM_ARRAYS: usize = 11;

/// Header size in bytes: magic + version + two link counters + one
/// `{u64 offset, u64 count}` descriptor per payload array.
pub const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + NUM_ARRAYS * 16;

/// Trailing checksum size in bytes.
pub const CHECKSUM_BYTES: usize = 8;

/// Payload array names, in file order (descriptor order). Public so tests
/// and tooling can report positions symbolically.
pub const ARRAY_NAMES: [&str; NUM_ARRAYS] = [
    "out_off",
    "out_dst",
    "in_off",
    "in_src",
    "ua_off",
    "ua_attr",
    "am_off",
    "am_user",
    "und_off",
    "und_nbr",
    "attr_types",
];

/// FNV-1a 64-bit over a byte slice — the checksum the format uses.
///
/// Exposed so tests and tooling can re-seal a deliberately patched
/// snapshot (corruption-matrix tests isolate structural errors from
/// checksum errors this way).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Every way persisting or loading a snapshot can fail. No variant is ever
/// a panic: untrusted bytes always come back as one of these.
#[derive(Debug)]
pub enum StoreError {
    /// The stream ended before the named section was complete.
    Truncated {
        /// Which section was being read when the stream ran dry.
        section: &'static str,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 8],
    },
    /// The file's format version is not one this reader understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// An array descriptor's byte offset does not continue the previous
    /// array exactly (the arrays must tile the payload region).
    OffsetMismatch {
        /// Array whose descriptor is inconsistent.
        array: &'static str,
        /// Byte offset the layout requires.
        expected: u64,
        /// Byte offset the header declares.
        found: u64,
    },
    /// Element counts disagree — between offset tables that must share a
    /// row count, or between a payload array and the header link counters.
    CountMismatch {
        /// What disagreed.
        what: &'static str,
        /// The count implied by the rest of the header.
        expected: u64,
        /// The count found.
        found: u64,
    },
    /// A CSR offset table does not start at 0, decreases somewhere, or
    /// does not end at its payload array's length.
    NonMonotoneOffsets {
        /// The offending offset table.
        array: &'static str,
    },
    /// An attribute-type tag byte outside the known range.
    BadAttrType {
        /// The tag found.
        value: u8,
    },
    /// A neighbour/member id at or beyond the declared node count.
    IdOutOfRange {
        /// The array holding the out-of-range id.
        array: &'static str,
    },
    /// The trailing checksum does not match the bytes read.
    BadChecksum {
        /// Checksum recomputed from the stream.
        expected: u64,
        /// Checksum stored in the trailer.
        found: u64,
    },
    /// A vault manifest line could not be parsed.
    BadManifest {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A day was requested that the vault has not persisted.
    DayNotPersisted {
        /// The requested day.
        day: u32,
    },
    /// A v2 compressed column (or delta add-list) byte stream is
    /// malformed: truncated/overlong varint, value outside `u32` range,
    /// stream length disagreeing with the declared count, unsorted or
    /// duplicate delta pairs, or an unknown v2 kind byte.
    BadCodec {
        /// The column or list being decoded.
        array: &'static str,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A v2 delta day was opened standalone — it only describes the
    /// adjacency added since its base day, so there is no snapshot to
    /// reconstruct without the vault resolving the chain.
    DeltaWithoutBase {
        /// The base day the delta patches.
        base_day: u32,
    },
    /// A byte buffer handed to the zero-copy view path
    /// ([`CsrSanView::new`](crate::view::CsrSanView::new)) whose base
    /// address is not aligned for in-place `u32` column views. Mapped
    /// files are always page-aligned; heap buffers can use
    /// [`AlignedBytes`].
    Misaligned {
        /// The alignment the column views require.
        required: usize,
    },
    /// Any other I/O failure (permissions, disk full, …).
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { section } => {
                write!(f, "snapshot truncated while reading {section}")
            }
            StoreError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (expected {MAGIC:?})")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (reader knows \
                     {FORMAT_VERSION} and {FORMAT_VERSION_V2})"
                )
            }
            StoreError::OffsetMismatch {
                array,
                expected,
                found,
            } => write!(
                f,
                "array {array} declared at byte {found}, layout requires {expected}"
            ),
            StoreError::CountMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "count mismatch for {what}: expected {expected}, found {found}"
            ),
            StoreError::NonMonotoneOffsets { array } => {
                write!(
                    f,
                    "offset table {array} is not monotone from 0 to its payload length"
                )
            }
            StoreError::BadAttrType { value } => write!(f, "unknown attribute-type tag {value}"),
            StoreError::IdOutOfRange { array } => {
                write!(
                    f,
                    "array {array} holds an id beyond the declared node count"
                )
            }
            StoreError::BadChecksum { expected, found } => write!(
                f,
                "checksum mismatch: stream hashes to {expected:#018x}, trailer says {found:#018x}"
            ),
            StoreError::BadManifest { line, reason } => {
                write!(f, "vault manifest line {line}: {reason}")
            }
            StoreError::DayNotPersisted { day } => {
                write!(f, "day {day} is not persisted in this vault")
            }
            StoreError::BadCodec { array, reason } => {
                write!(f, "corrupt compressed column {array}: {reason}")
            }
            StoreError::DeltaWithoutBase { base_day } => {
                write!(
                    f,
                    "delta day opened standalone (patches base day {base_day}); \
                     resolve it through its vault"
                )
            }
            StoreError::Misaligned { required } => {
                write!(
                    f,
                    "buffer base address is not {required}-byte aligned for zero-copy column views"
                )
            }
            StoreError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Manual `Clone`: every variant is plain data except [`StoreError::Io`],
/// whose `io::Error` is not `Clone` — that one is rebuilt from its kind
/// and message (the serving layer's single-flight path broadcasts one
/// mapper's failure to every deduplicated waiter, each of which needs an
/// owned error).
impl Clone for StoreError {
    fn clone(&self) -> StoreError {
        match self {
            StoreError::Truncated { section } => StoreError::Truncated { section },
            StoreError::BadMagic { found } => StoreError::BadMagic { found: *found },
            StoreError::UnsupportedVersion { found } => {
                StoreError::UnsupportedVersion { found: *found }
            }
            StoreError::OffsetMismatch {
                array,
                expected,
                found,
            } => StoreError::OffsetMismatch {
                array,
                expected: *expected,
                found: *found,
            },
            StoreError::CountMismatch {
                what,
                expected,
                found,
            } => StoreError::CountMismatch {
                what,
                expected: *expected,
                found: *found,
            },
            StoreError::NonMonotoneOffsets { array } => StoreError::NonMonotoneOffsets { array },
            StoreError::BadAttrType { value } => StoreError::BadAttrType { value: *value },
            StoreError::IdOutOfRange { array } => StoreError::IdOutOfRange { array },
            StoreError::BadChecksum { expected, found } => StoreError::BadChecksum {
                expected: *expected,
                found: *found,
            },
            StoreError::BadManifest { line, reason } => StoreError::BadManifest {
                line: *line,
                reason: reason.clone(),
            },
            StoreError::DayNotPersisted { day } => StoreError::DayNotPersisted { day: *day },
            StoreError::BadCodec { array, reason } => StoreError::BadCodec { array, reason },
            StoreError::DeltaWithoutBase { base_day } => StoreError::DeltaWithoutBase {
                base_day: *base_day,
            },
            StoreError::Misaligned { required } => StoreError::Misaligned {
                required: *required,
            },
            StoreError::Io(e) => StoreError::Io(io::Error::new(e.kind(), e.to_string())),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// `read_exact` that reports a short stream as [`StoreError::Truncated`]
/// with the section being read, instead of a bare I/O error.
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    section: &'static str,
) -> Result<(), StoreError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { section }
        } else {
            StoreError::Io(e)
        }
    })
}

/// A writer that feeds every byte through the running FNV-1a hash on its
/// way out — so `write_to` seals the stream without buffering the file.
struct HashingWriter<'a, W: Write> {
    inner: &'a mut W,
    hash: Fnv1a,
    written: u64,
}

impl<W: Write> HashingWriter<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.hash.update(bytes);
        self.written += bytes.len() as u64;
        self.inner.write_all(bytes).map_err(StoreError::Io)
    }
}

/// Stable `u8` tag for an [`AttrType`] (part of the on-disk format; only
/// append new tags, never renumber).
fn attr_type_tag(ty: AttrType) -> u8 {
    match ty {
        AttrType::School => 0,
        AttrType::Major => 1,
        AttrType::Employer => 2,
        AttrType::City => 3,
        AttrType::Other => 4,
    }
}

pub(crate) fn attr_type_from_tag(tag: u8) -> Result<AttrType, StoreError> {
    match tag {
        0 => Ok(AttrType::School),
        1 => Ok(AttrType::Major),
        2 => Ok(AttrType::Employer),
        3 => Ok(AttrType::City),
        4 => Ok(AttrType::Other),
        value => Err(StoreError::BadAttrType { value }),
    }
}

/// Copies the `N` bytes at `at`, zero-filling anything out of range —
/// the panic-free replacement for `slice[at..at + N].try_into().unwrap()`.
/// Every caller passes in-range offsets (length-guarded, or reading a
/// fixed-size buffer); if a future bug breaks that, the zeros surface as
/// a downstream validation failure instead of a panic on untrusted input.
pub(crate) fn array_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    if let Some(src) = bytes.get(at..at + N) {
        out.copy_from_slice(src);
    }
    out
}

/// Bounded staging buffer for LE encode/decode: arrays stream through this
/// many bytes at a time, so (de)serialisation never allocates proportional
/// to the snapshot — the only heap the store path touches is the final
/// `CsrSan` arrays themselves (see [`CsrSan::heap_bytes`]).
const STAGE_BYTES: usize = 16 * 1024;

/// Writes a column of 4-byte elements as little-endian through the
/// hashing writer; `as_u32` lifts the element type (raw offsets or typed
/// ids) to its wire form.
fn write_col<W: Write, T: Copy>(
    w: &mut HashingWriter<'_, W>,
    data: &[T],
    as_u32: impl Fn(T) -> u32,
) -> Result<(), StoreError> {
    let mut stage = [0u8; STAGE_BYTES];
    for chunk in data.chunks(STAGE_BYTES / 4) {
        let bytes = &mut stage[..chunk.len() * 4];
        for (i, &v) in chunk.iter().enumerate() {
            // BOUNDS: bytes spans chunk.len()*4 and i < chunk.len(), so
            // i*4 + 4 <= len — trusted in-memory data, not reader input.
            bytes[i * 4..i * 4 + 4].copy_from_slice(&as_u32(v).to_le_bytes());
        }
        w.put(bytes)?;
    }
    Ok(())
}

/// Reads a column of `count` little-endian 4-byte elements into an
/// exactly-sized `Vec<T>`, feeding the hash as it goes; `from_u32` lifts
/// the wire form to the element type, so no intermediate `Vec<u32>` is
/// ever staged.
fn read_col<T>(
    r: &mut impl Read,
    hash: &mut Fnv1a,
    count: usize,
    section: &'static str,
    from_u32: impl Fn(u32) -> T,
) -> Result<Vec<T>, StoreError> {
    // Trust the header count only up to a bound: above it the Vec starts
    // small and grows as bytes actually arrive, so a crafted count cannot
    // reserve memory the stream never delivers (a truncated stream fails
    // fast in read_exact instead). Honest oversize columns pay a final
    // shrink to restore the exact-capacity guarantee.
    let mut out: Vec<T> = Vec::with_capacity(count.min(HEADER_TRUST_ELEMS));
    let mut stage = [0u8; STAGE_BYTES];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(STAGE_BYTES / 4);
        let bytes = &mut stage[..take * 4];
        read_exact_or(r, bytes, section)?;
        hash.update(bytes);
        for i in 0..take {
            // BOUNDS: bytes was sliced to exactly take*4 above and
            // i < take, so i*4 + 4 <= len whatever the stream contained.
            out.push(from_u32(u32::from_le_bytes(array_at(bytes, i * 4))));
        }
        remaining -= take;
    }
    if out.capacity() != out.len() {
        out.shrink_to_fit();
    }
    Ok(out)
}

/// How many elements of a header-declared count are pre-reserved before
/// any payload bytes prove the stream is that long (16 MiB of u32s).
/// Larger columns grow incrementally and shrink to exact size at the end.
const HEADER_TRUST_ELEMS: usize = 4 * 1024 * 1024;

/// One parsed array descriptor from the header.
#[derive(Debug, Clone, Copy)]
struct ArrayDesc {
    offset: u64,
    count: u64,
}

/// Byte width of one element of payload array `i` (ten `u32` columns, one
/// `u8` tag column).
#[inline]
pub(crate) fn elem_bytes(i: usize) -> u64 {
    if i == NUM_ARRAYS - 1 {
        1
    } else {
        4
    }
}

/// The parsed, header-validated prefix of a snapshot: magic, version, link
/// counters and the 11 array descriptors, with every header-level
/// consistency check already applied (magic/version, per-array element
/// cap, descriptor tiling, cross-array row counts, link-counter
/// agreement).
///
/// This is the shared front half of both deserialisation paths:
/// [`CsrSan::read_from`] parses it from the stream before allocating
/// anything, and the zero-copy [`CsrSanView`](crate::view::CsrSanView)
/// parses it from the buffer before building column views — so a header
/// that the eager loader rejects is rejected by the view path with the
/// same typed error, by construction.
#[derive(Debug, Clone, Copy)]
pub struct StoreHeader {
    num_social_links: u64,
    num_attr_links: u64,
    descs: [ArrayDesc; NUM_ARRAYS],
}

impl StoreHeader {
    /// Parses and validates the fixed-size header. Every failure is the
    /// same typed [`StoreError`] that [`CsrSan::read_from`] reports for
    /// the same bytes; nothing is allocated.
    pub fn parse(header: &[u8; HEADER_BYTES]) -> Result<StoreHeader, StoreError> {
        let magic: [u8; 8] = array_at(header, 0);
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let u32_at = |i: usize| u32::from_le_bytes(array_at(header, i));
        let u64_at = |i: usize| u64::from_le_bytes(array_at(header, i));
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let num_social_links = u64_at(12);
        let num_attr_links = u64_at(20);
        let mut descs = [ArrayDesc {
            offset: 0,
            count: 0,
        }; NUM_ARRAYS];
        for (i, d) in descs.iter_mut().enumerate() {
            d.offset = u64_at(28 + i * 16);
            d.count = u64_at(28 + i * 16 + 8);
        }
        // CSR offsets are u32, so no valid snapshot holds an array longer
        // than u32::MAX elements; reject absurd counts before anything is
        // allocated — a crafted header must never drive
        // `Vec::with_capacity` into a capacity panic or OOM abort.
        for (i, d) in descs.iter().enumerate() {
            if d.count > u64::from(u32::MAX) {
                return Err(StoreError::CountMismatch {
                    what: ARRAY_NAMES[i],
                    expected: u64::from(u32::MAX),
                    found: d.count,
                });
            }
        }
        // The arrays must tile the payload region exactly, in order.
        let mut expected = HEADER_BYTES as u64;
        for i in 0..NUM_ARRAYS {
            if descs[i].offset != expected {
                return Err(StoreError::OffsetMismatch {
                    array: ARRAY_NAMES[i],
                    expected,
                    found: descs[i].offset,
                });
            }
            expected = descs[i]
                .count
                .checked_mul(elem_bytes(i))
                .and_then(|b| expected.checked_add(b))
                .ok_or(StoreError::CountMismatch {
                    what: ARRAY_NAMES[i],
                    expected: u64::MAX,
                    found: descs[i].count,
                })?;
        }
        // Cross-array count consistency, before any payload allocation.
        let counts: [u64; NUM_ARRAYS] = std::array::from_fn(|i| descs[i].count);
        check_count_relations(&counts, num_social_links, num_attr_links)?;
        Ok(StoreHeader {
            num_social_links,
            num_attr_links,
            descs,
        })
    }

    /// The header's social-link counter `|Es|`.
    pub fn num_social_links(&self) -> u64 {
        self.num_social_links
    }

    /// The header's attribute-link counter `|Ea|`.
    pub fn num_attr_links(&self) -> u64 {
        self.num_attr_links
    }

    /// Absolute byte offset of payload array `i` (file order, see
    /// [`ARRAY_NAMES`]).
    pub fn array_offset(&self, i: usize) -> u64 {
        self.descs[i].offset
    }

    /// Element count of payload array `i`.
    pub fn array_count(&self, i: usize) -> u64 {
        self.descs[i].count
    }

    /// Number of social nodes (`out_off` rows minus the sentinel).
    pub fn social_rows(&self) -> usize {
        self.descs[0].count as usize - 1
    }

    /// Number of attribute nodes (`am_off` rows minus the sentinel).
    pub fn attr_rows(&self) -> usize {
        self.descs[6].count as usize - 1
    }

    /// First byte past the last payload array — where the checksum
    /// trailer starts.
    pub fn payload_end(&self) -> u64 {
        self.descs[NUM_ARRAYS - 1].offset + self.descs[NUM_ARRAYS - 1].count
    }
}

/// The cross-array count checks both format versions share: per-array
/// `u32::MAX` cap, the four social offset tables agreeing on rows, at
/// least one row on both sides of the bipartite graph, the tag column
/// matching the attribute rows, and the id columns matching the header
/// link counters. Runs before anything is allocated.
fn check_count_relations(
    counts: &[u64; NUM_ARRAYS],
    num_social_links: u64,
    num_attr_links: u64,
) -> Result<(), StoreError> {
    for (i, &count) in counts.iter().enumerate() {
        if count > u64::from(u32::MAX) {
            return Err(StoreError::CountMismatch {
                what: ARRAY_NAMES[i],
                expected: u64::from(u32::MAX),
                found: count,
            });
        }
    }
    let rows = counts[0]; // out_off: n + 1
    for i in [2usize, 4, 8] {
        if counts[i] != rows {
            return Err(StoreError::CountMismatch {
                what: ARRAY_NAMES[i],
                expected: rows,
                found: counts[i],
            });
        }
    }
    if rows == 0 || counts[6] == 0 {
        return Err(StoreError::CountMismatch {
            what: "offset table rows",
            expected: 1,
            found: 0,
        });
    }
    if counts[10] != counts[6] - 1 {
        return Err(StoreError::CountMismatch {
            what: "attr_types",
            expected: counts[6] - 1,
            found: counts[10],
        });
    }
    for (i, want) in [
        (1usize, num_social_links),
        (3, num_social_links),
        (5, num_attr_links),
        (7, num_attr_links),
    ] {
        if counts[i] != want {
            return Err(StoreError::CountMismatch {
                what: ARRAY_NAMES[i],
                expected: want,
                found: counts[i],
            });
        }
    }
    Ok(())
}

/// Validates that a CSR offset table starts at 0, never decreases, and
/// ends exactly at `payload_len`.
pub(crate) fn check_offsets(
    off: &[u32],
    payload_len: usize,
    array: &'static str,
) -> Result<(), StoreError> {
    if off.first() != Some(&0) || off.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::NonMonotoneOffsets { array });
    }
    // The first() check above already rejected an empty table.
    let last = off.last().copied().unwrap_or(0) as usize;
    if last != payload_len {
        return Err(StoreError::CountMismatch {
            what: array,
            expected: payload_len as u64,
            found: last as u64,
        });
    }
    Ok(())
}

/// Validates that every id in a payload array indexes a real node.
pub(crate) fn check_id_range<T: Copy>(
    data: &[T],
    bound: usize,
    array: &'static str,
    as_u32: impl Fn(T) -> u32,
) -> Result<(), StoreError> {
    if data.iter().any(|&v| as_u32(v) as usize >= bound) {
        return Err(StoreError::IdOutOfRange { array });
    }
    Ok(())
}

impl CsrSan {
    /// Element counts of the 11 payload arrays, in file order.
    fn array_counts(&self) -> [u64; NUM_ARRAYS] {
        [
            self.out_off.len() as u64,
            self.out_dst.len() as u64,
            self.in_off.len() as u64,
            self.in_src.len() as u64,
            self.ua_off.len() as u64,
            self.ua_attr.len() as u64,
            self.am_off.len() as u64,
            self.am_user.len() as u64,
            self.und_off.len() as u64,
            self.und_nbr.len() as u64,
            self.attr_types.len() as u64,
        ]
    }

    /// Serialises the snapshot in the columnar binary format (see the
    /// module docs for the layout) and returns the total bytes written,
    /// checksum trailer included.
    ///
    /// The stream is produced in one forward pass — header, the eleven
    /// arrays in little-endian, then the FNV-1a trailer — through a
    /// bounded staging buffer, so writing never allocates proportional to
    /// the snapshot. Wrap the destination in a
    /// [`BufWriter`](std::io::BufWriter) when writing to a file.
    pub fn write_to(&self, w: &mut impl Write) -> Result<u64, StoreError> {
        let counts = self.array_counts();
        // Element width per array: ten u32 columns, one u8 tag column.
        let sizes: [u64; NUM_ARRAYS] = {
            let mut s = [4u64; NUM_ARRAYS];
            s[NUM_ARRAYS - 1] = 1;
            s
        };
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&(self.num_social_links as u64).to_le_bytes());
        header.extend_from_slice(&(self.num_attr_links as u64).to_le_bytes());
        let mut offset = HEADER_BYTES as u64;
        for i in 0..NUM_ARRAYS {
            header.extend_from_slice(&offset.to_le_bytes());
            header.extend_from_slice(&counts[i].to_le_bytes());
            offset += counts[i] * sizes[i];
        }
        debug_assert_eq!(header.len(), HEADER_BYTES);
        let mut hw = HashingWriter {
            inner: w,
            hash: Fnv1a::new(),
            written: 0,
        };
        hw.put(&header)?;
        write_col(&mut hw, &self.out_off, |v| v)?;
        write_col(&mut hw, &self.out_dst, |v| v.0)?;
        write_col(&mut hw, &self.in_off, |v| v)?;
        write_col(&mut hw, &self.in_src, |v| v.0)?;
        write_col(&mut hw, &self.ua_off, |v| v)?;
        write_col(&mut hw, &self.ua_attr, |v| v.0)?;
        write_col(&mut hw, &self.am_off, |v| v)?;
        write_col(&mut hw, &self.am_user, |v| v.0)?;
        write_col(&mut hw, &self.und_off, |v| v)?;
        write_col(&mut hw, &self.und_nbr, |v| v.0)?;
        let mut tags = [0u8; STAGE_BYTES];
        for chunk in self.attr_types.chunks(STAGE_BYTES) {
            let bytes = &mut tags[..chunk.len()];
            for (i, &ty) in chunk.iter().enumerate() {
                // BOUNDS: bytes spans chunk.len() and i < chunk.len();
                // trusted in-memory tags, not reader input.
                bytes[i] = attr_type_tag(ty);
            }
            hw.put(bytes)?;
        }
        let checksum = hw.hash.finish();
        let total = hw.written + CHECKSUM_BYTES as u64;
        w.write_all(&checksum.to_le_bytes())?;
        Ok(total)
    }

    /// Deserialises a snapshot written by [`CsrSan::write_to`], validating
    /// structure as the stream is consumed and the checksum at the end.
    ///
    /// Never panics on untrusted bytes and never returns a structurally
    /// inconsistent graph; every failure is a typed [`StoreError`] (see
    /// the module docs for the full validation list). Each column is read
    /// into an exactly-sized allocation through a bounded stack staging
    /// buffer; the only heap staging is the `m`-byte raw tag column held
    /// until the checksum clears, and it is dropped before returning — so
    /// the loaded snapshot's [`CsrSan::heap_bytes`] equals the original's
    /// (no hidden capacity slack, no retained staging), which the
    /// `read_from_allocates_exact_capacity` audit pins down.
    pub fn read_from(r: &mut impl Read) -> Result<CsrSan, StoreError> {
        // Peek magic + version, then dispatch: v1 streams column-by-column
        // through the bounded stage buffer; v2 is block-compressed, so the
        // remaining bytes are collected and decoded in place.
        let mut prefix = [0u8; VERSION_PREFIX_BYTES];
        read_exact_or(r, &mut prefix, "header")?;
        let magic: [u8; 8] = array_at(&prefix, 0);
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        match u32::from_le_bytes(array_at(&prefix, 8)) {
            FORMAT_VERSION => {
                let mut header = [0u8; HEADER_BYTES];
                header[..VERSION_PREFIX_BYTES].copy_from_slice(&prefix);
                read_exact_or(r, &mut header[VERSION_PREFIX_BYTES..], "header")?;
                CsrSan::read_v1_body(r, &header)
            }
            FORMAT_VERSION_V2 => {
                let mut full = prefix.to_vec();
                r.read_to_end(&mut full).map_err(StoreError::Io)?;
                read_v2(&full)
            }
            found => Err(StoreError::UnsupportedVersion { found }),
        }
    }

    /// The v1 payload path: `header` is the complete 204-byte header
    /// (already known to carry the v1 magic + version); the reader is
    /// positioned at the first payload byte.
    fn read_v1_body(r: &mut impl Read, header: &[u8; HEADER_BYTES]) -> Result<CsrSan, StoreError> {
        // Every header-level check (magic/version, element caps, tiling,
        // cross-array counts) lives in the shared parser, so the eager
        // loader and the zero-copy view reject the same headers with the
        // same typed errors.
        let parsed = StoreHeader::parse(header)?;
        let num_social_links = parsed.num_social_links();
        let num_attr_links = parsed.num_attr_links();
        let rows = parsed.array_count(0);
        let mut hash = Fnv1a::new();
        hash.update(header);
        let count = |i: usize| parsed.array_count(i) as usize;
        let out_off = read_col(r, &mut hash, count(0), ARRAY_NAMES[0], |v| v)?;
        let out_dst = read_col(r, &mut hash, count(1), ARRAY_NAMES[1], SocialId)?;
        let in_off = read_col(r, &mut hash, count(2), ARRAY_NAMES[2], |v| v)?;
        let in_src = read_col(r, &mut hash, count(3), ARRAY_NAMES[3], SocialId)?;
        let ua_off = read_col(r, &mut hash, count(4), ARRAY_NAMES[4], |v| v)?;
        let ua_attr = read_col(r, &mut hash, count(5), ARRAY_NAMES[5], AttrId)?;
        let am_off = read_col(r, &mut hash, count(6), ARRAY_NAMES[6], |v| v)?;
        let am_user = read_col(r, &mut hash, count(7), ARRAY_NAMES[7], SocialId)?;
        let und_off = read_col(r, &mut hash, count(8), ARRAY_NAMES[8], |v| v)?;
        let und_nbr = read_col(r, &mut hash, count(9), ARRAY_NAMES[9], SocialId)?;
        // Tags are staged raw and decoded only after the checksum has
        // vouched for them, like every other semantic check. Same bounded
        // trust in the header count as read_col.
        let mut tag_bytes: Vec<u8> = Vec::with_capacity(count(10).min(HEADER_TRUST_ELEMS));
        {
            let mut stage = [0u8; STAGE_BYTES];
            let mut remaining = count(10);
            while remaining > 0 {
                let take = remaining.min(STAGE_BYTES);
                let bytes = &mut stage[..take];
                read_exact_or(r, bytes, ARRAY_NAMES[10])?;
                hash.update(bytes);
                tag_bytes.extend_from_slice(bytes);
                remaining -= take;
            }
        }
        let mut trailer = [0u8; CHECKSUM_BYTES];
        read_exact_or(r, &mut trailer, "checksum")?;
        let found = u64::from_le_bytes(trailer);
        let expected = hash.finish();
        if expected != found {
            return Err(StoreError::BadChecksum { expected, found });
        }
        // Semantic validation after the checksum has vouched for the
        // bytes: tag decoding, offset-table shape, then id ranges.
        let mut attr_types: Vec<AttrType> = Vec::with_capacity(tag_bytes.len());
        for b in tag_bytes {
            attr_types.push(attr_type_from_tag(b)?);
        }
        check_offsets(&out_off, out_dst.len(), ARRAY_NAMES[0])?;
        check_offsets(&in_off, in_src.len(), ARRAY_NAMES[2])?;
        check_offsets(&ua_off, ua_attr.len(), ARRAY_NAMES[4])?;
        check_offsets(&am_off, am_user.len(), ARRAY_NAMES[6])?;
        check_offsets(&und_off, und_nbr.len(), ARRAY_NAMES[8])?;
        let n = rows as usize - 1;
        let m = count(6) - 1;
        check_id_range(&out_dst, n, ARRAY_NAMES[1], |v| v.0)?;
        check_id_range(&in_src, n, ARRAY_NAMES[3], |v| v.0)?;
        check_id_range(&ua_attr, m, ARRAY_NAMES[5], |v| v.0)?;
        check_id_range(&am_user, n, ARRAY_NAMES[7], |v| v.0)?;
        check_id_range(&und_nbr, n, ARRAY_NAMES[9], |v| v.0)?;
        Ok(CsrSan {
            out_off,
            out_dst,
            in_off,
            in_src,
            ua_off,
            ua_attr,
            am_off,
            am_user,
            und_off,
            und_nbr,
            attr_types,
            num_social_links: num_social_links as usize,
            num_attr_links: num_attr_links as usize,
        })
    }

    /// Serialises into a fresh byte vector (convenience over
    /// [`CsrSan::write_to`]).
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Err(err) = self.write_to(&mut buf) {
            // Vec<u8> IO is infallible; reaching this is a serializer bug.
            debug_assert!(false, "in-memory serialisation failed: {err}");
        }
        buf
    }

    /// Deserialises from a byte slice (convenience over
    /// [`CsrSan::read_from`]).
    pub fn from_store_bytes(mut bytes: &[u8]) -> Result<CsrSan, StoreError> {
        CsrSan::read_from(&mut bytes)
    }

    /// Serialised size in bytes, without writing anything.
    pub fn store_bytes_len(&self) -> u64 {
        let counts = self.array_counts();
        let payload: u64 =
            counts[..NUM_ARRAYS - 1].iter().map(|c| c * 4).sum::<u64>() + counts[NUM_ARRAYS - 1];
        HEADER_BYTES as u64 + payload + CHECKSUM_BYTES as u64
    }

    /// Serialises the snapshot as a v2 *full* day: the same eleven columns
    /// as v1, the ten `u32` columns codec-compressed
    /// (see [`crate::codec`]), the tag column raw, sealed by the same
    /// FNV-1a trailer. Returns the total bytes written.
    pub fn write_v2_to(&self, w: &mut impl Write) -> Result<u64, StoreError> {
        let counts = self.array_counts();
        let mut payload = Vec::new();
        let mut byte_lens = [0u64; NUM_ARRAYS];
        {
            let mut mark = 0usize;
            let mut done = |i: usize, payload: &Vec<u8>| {
                byte_lens[i] = (payload.len() - mark) as u64;
                mark = payload.len();
            };
            codec::encode_u32s(&self.out_off, &mut payload);
            done(0, &payload);
            codec::encode_u32s_by(&self.out_dst, |v| v.0, &mut payload);
            done(1, &payload);
            codec::encode_u32s(&self.in_off, &mut payload);
            done(2, &payload);
            codec::encode_u32s_by(&self.in_src, |v| v.0, &mut payload);
            done(3, &payload);
            codec::encode_u32s(&self.ua_off, &mut payload);
            done(4, &payload);
            codec::encode_u32s_by(&self.ua_attr, |v| v.0, &mut payload);
            done(5, &payload);
            codec::encode_u32s(&self.am_off, &mut payload);
            done(6, &payload);
            codec::encode_u32s_by(&self.am_user, |v| v.0, &mut payload);
            done(7, &payload);
            codec::encode_u32s(&self.und_off, &mut payload);
            done(8, &payload);
            codec::encode_u32s_by(&self.und_nbr, |v| v.0, &mut payload);
            done(9, &payload);
            for &ty in &self.attr_types {
                payload.push(attr_type_tag(ty));
            }
            done(10, &payload);
        }
        let mut header = Vec::with_capacity(V2_FULL_HEADER_BYTES);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION_V2.to_le_bytes());
        header.push(V2_KIND_FULL);
        header.extend_from_slice(&[0u8; 3]);
        header.extend_from_slice(&(self.num_social_links as u64).to_le_bytes());
        header.extend_from_slice(&(self.num_attr_links as u64).to_le_bytes());
        for i in 0..NUM_ARRAYS {
            header.extend_from_slice(&counts[i].to_le_bytes());
            header.extend_from_slice(&byte_lens[i].to_le_bytes());
        }
        debug_assert_eq!(header.len(), V2_FULL_HEADER_BYTES);
        let mut hw = HashingWriter {
            inner: w,
            hash: Fnv1a::new(),
            written: 0,
        };
        hw.put(&header)?;
        hw.put(&payload)?;
        let checksum = hw.hash.finish();
        let total = hw.written + CHECKSUM_BYTES as u64;
        w.write_all(&checksum.to_le_bytes())?;
        Ok(total)
    }

    /// v2 serialisation into a fresh byte vector (convenience over
    /// [`CsrSan::write_v2_to`]).
    pub fn to_store_bytes_v2(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Err(err) = self.write_v2_to(&mut buf) {
            // Vec<u8> IO is infallible; reaching this is a serializer bug.
            debug_assert!(false, "in-memory v2 serialisation failed: {err}");
        }
        buf
    }
}

// ---------------------------------------------------------------------------
// SANCSRBF v2: compressed full days and delta days.
// ---------------------------------------------------------------------------

use crate::codec;
use crate::view::AlignedBytes;

/// The kind byte of a v2 buffer (byte 12, right after magic + version).
pub(crate) fn v2_kind(bytes: &[u8]) -> Result<u8, StoreError> {
    bytes
        .get(VERSION_PREFIX_BYTES)
        .copied()
        .ok_or(StoreError::Truncated {
            section: "v2 header",
        })
}

/// Reads a complete v2 byte buffer of either kind into an owned snapshot.
/// A standalone delta day cannot be materialised — only its vault knows
/// the chain — so it reports [`StoreError::DeltaWithoutBase`].
fn read_v2(bytes: &[u8]) -> Result<CsrSan, StoreError> {
    match v2_kind(bytes)? {
        V2_KIND_FULL => read_v2_full(bytes),
        V2_KIND_DELTA => Err(StoreError::DeltaWithoutBase {
            base_day: peek_delta_base_day(bytes)?,
        }),
        _ => Err(StoreError::BadCodec {
            array: "header",
            reason: "unknown v2 kind byte",
        }),
    }
}

/// The parsed, validated header of a v2 full day — the compressed
/// counterpart of [`StoreHeader`]. Counts get the same cross-array checks
/// as v1, and every declared byte length is bounded by the codec's
/// possible range (≥ 1, ≤ [`codec::max_encoded_len`] bytes per value)
/// *before* anything is allocated — so decode-side allocations are always
/// bounded by bytes the file actually delivered.
#[derive(Debug, Clone, Copy)]
pub(crate) struct V2FullHeader {
    num_social_links: u64,
    num_attr_links: u64,
    counts: [u64; NUM_ARRAYS],
    byte_lens: [u64; NUM_ARRAYS],
    col_offsets: [u64; NUM_ARRAYS],
    total_bytes: u64,
}

impl V2FullHeader {
    fn parse(bytes: &[u8]) -> Result<V2FullHeader, StoreError> {
        let Some(header) = bytes.get(..V2_FULL_HEADER_BYTES) else {
            return Err(StoreError::Truncated {
                section: "v2 header",
            });
        };
        let magic: [u8; 8] = array_at(header, 0);
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(array_at(header, 8));
        if version != FORMAT_VERSION_V2 {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        if header.get(VERSION_PREFIX_BYTES).copied() != Some(V2_KIND_FULL) {
            return Err(StoreError::BadCodec {
                array: "header",
                reason: "not a v2 full day",
            });
        }
        let u64_at = |i: usize| u64::from_le_bytes(array_at(header, i));
        let num_social_links = u64_at(16);
        let num_attr_links = u64_at(24);
        let mut counts = [0u64; NUM_ARRAYS];
        let mut byte_lens = [0u64; NUM_ARRAYS];
        for i in 0..NUM_ARRAYS {
            counts[i] = u64_at(32 + i * 16);
            byte_lens[i] = u64_at(32 + i * 16 + 8);
        }
        check_count_relations(&counts, num_social_links, num_attr_links)?;
        for i in 0..NUM_ARRAYS {
            if i == NUM_ARRAYS - 1 {
                // The tag column is raw: one byte per element, exactly.
                if byte_lens[i] != counts[i] {
                    return Err(StoreError::CountMismatch {
                        what: "attr_types bytes",
                        expected: counts[i],
                        found: byte_lens[i],
                    });
                }
            } else {
                // A varint is 1..=5 bytes, so `count` values occupy at
                // least `count` and at most `5 * count` bytes. Anything
                // else is corruption — rejecting it here keeps decode
                // allocations bounded by real file bytes.
                let max = codec::max_encoded_len(counts[i]).unwrap_or(u64::MAX);
                if byte_lens[i] > max {
                    return Err(StoreError::BadCodec {
                        array: ARRAY_NAMES[i],
                        reason: "declared byte length exceeds codec bound",
                    });
                }
                if byte_lens[i] < counts[i] {
                    return Err(StoreError::BadCodec {
                        array: ARRAY_NAMES[i],
                        reason: "declared byte length shorter than value count",
                    });
                }
            }
        }
        let mut col_offsets = [0u64; NUM_ARRAYS];
        let mut offset = V2_FULL_HEADER_BYTES as u64;
        for i in 0..NUM_ARRAYS {
            col_offsets[i] = offset;
            offset = offset
                .checked_add(byte_lens[i])
                .ok_or(StoreError::CountMismatch {
                    what: ARRAY_NAMES[i],
                    expected: u64::MAX,
                    found: byte_lens[i],
                })?;
        }
        let total_bytes = offset + CHECKSUM_BYTES as u64;
        if (bytes.len() as u64) < total_bytes {
            return Err(StoreError::Truncated {
                section: "v2 payload",
            });
        }
        Ok(V2FullHeader {
            num_social_links,
            num_attr_links,
            counts,
            byte_lens,
            col_offsets,
            total_bytes,
        })
    }

    /// Column `i`'s compressed byte slice. In range by construction
    /// (`parse` validated the tiling against the buffer length); the empty
    /// fallback would surface as a typed decode error downstream, never a
    /// panic.
    fn col<'a>(&self, bytes: &'a [u8], i: usize) -> &'a [u8] {
        let start = self.col_offsets[i] as usize;
        bytes
            .get(start..start + self.byte_lens[i] as usize)
            .unwrap_or(&[])
    }
}

/// Verifies the FNV trailer of a v2 buffer whose `total_bytes` has been
/// validated against the buffer length.
fn verify_v2_trailer(bytes: &[u8], total_bytes: u64) -> Result<(), StoreError> {
    let total = total_bytes as usize;
    let body = bytes.get(..total - CHECKSUM_BYTES).unwrap_or(&[]);
    let expected = fnv1a64(body);
    let found = u64::from_le_bytes(array_at(bytes, total - CHECKSUM_BYTES));
    if expected != found {
        return Err(StoreError::BadChecksum { expected, found });
    }
    Ok(())
}

/// Decodes one compressed column into an exactly-sized typed vector. The
/// `count ≤ byte_len ≤ file bytes` bound from header validation keeps the
/// allocation proportional to delivered bytes.
fn decode_col_vec<T>(
    col: &[u8],
    count: usize,
    name: &'static str,
    from_u32: impl Fn(u32) -> T,
) -> Result<Vec<T>, StoreError> {
    let mut out: Vec<T> = Vec::with_capacity(count);
    codec::decode_u32s_with(col, count, name, |_, v| out.push(from_u32(v)))?;
    Ok(out)
}

/// The eager v2 full-day loader: header checks, checksum, per-column
/// decode, then exactly the v1 semantic validation (tags, offset shape,
/// id ranges).
fn read_v2_full(bytes: &[u8]) -> Result<CsrSan, StoreError> {
    let hdr = V2FullHeader::parse(bytes)?;
    verify_v2_trailer(bytes, hdr.total_bytes)?;
    let count = |i: usize| hdr.counts[i] as usize;
    let out_off = decode_col_vec(hdr.col(bytes, 0), count(0), ARRAY_NAMES[0], |v| v)?;
    let out_dst = decode_col_vec(hdr.col(bytes, 1), count(1), ARRAY_NAMES[1], SocialId)?;
    let in_off = decode_col_vec(hdr.col(bytes, 2), count(2), ARRAY_NAMES[2], |v| v)?;
    let in_src = decode_col_vec(hdr.col(bytes, 3), count(3), ARRAY_NAMES[3], SocialId)?;
    let ua_off = decode_col_vec(hdr.col(bytes, 4), count(4), ARRAY_NAMES[4], |v| v)?;
    let ua_attr = decode_col_vec(hdr.col(bytes, 5), count(5), ARRAY_NAMES[5], AttrId)?;
    let am_off = decode_col_vec(hdr.col(bytes, 6), count(6), ARRAY_NAMES[6], |v| v)?;
    let am_user = decode_col_vec(hdr.col(bytes, 7), count(7), ARRAY_NAMES[7], SocialId)?;
    let und_off = decode_col_vec(hdr.col(bytes, 8), count(8), ARRAY_NAMES[8], |v| v)?;
    let und_nbr = decode_col_vec(hdr.col(bytes, 9), count(9), ARRAY_NAMES[9], SocialId)?;
    let mut attr_types: Vec<AttrType> = Vec::with_capacity(count(10));
    for &b in hdr.col(bytes, 10) {
        attr_types.push(attr_type_from_tag(b)?);
    }
    check_offsets(&out_off, out_dst.len(), ARRAY_NAMES[0])?;
    check_offsets(&in_off, in_src.len(), ARRAY_NAMES[2])?;
    check_offsets(&ua_off, ua_attr.len(), ARRAY_NAMES[4])?;
    check_offsets(&am_off, am_user.len(), ARRAY_NAMES[6])?;
    check_offsets(&und_off, und_nbr.len(), ARRAY_NAMES[8])?;
    let n = count(0) - 1;
    let m = count(6) - 1;
    check_id_range(&out_dst, n, ARRAY_NAMES[1], |v| v.0)?;
    check_id_range(&in_src, n, ARRAY_NAMES[3], |v| v.0)?;
    check_id_range(&ua_attr, m, ARRAY_NAMES[5], |v| v.0)?;
    check_id_range(&am_user, n, ARRAY_NAMES[7], |v| v.0)?;
    check_id_range(&und_nbr, n, ARRAY_NAMES[9], |v| v.0)?;
    Ok(CsrSan {
        out_off,
        out_dst,
        in_off,
        in_src,
        ua_off,
        ua_attr,
        am_off,
        am_user,
        und_off,
        und_nbr,
        attr_types,
        num_social_links: hdr.num_social_links as usize,
        num_attr_links: hdr.num_attr_links as usize,
    })
}

/// Decodes a v2 *full* buffer into a sealed v1 image: synthesized v1
/// header, raw little-endian columns, FNV trailer — bit-identical to what
/// [`CsrSan::write_to`] emits for the same snapshot. Each compressed
/// column decodes directly into its slice of the image, so peak memory is
/// the image itself plus O(1) scratch — no O(file) staging.
///
/// The image is structurally complete but **not** semantically validated;
/// callers run [`CsrSanView::new`](crate::view::CsrSanView::new) (or the
/// eager loader) over it, reusing the entire v1 validation stack. A delta
/// buffer reports [`StoreError::DeltaWithoutBase`].
pub fn decode_v2_image(bytes: &[u8]) -> Result<AlignedBytes, StoreError> {
    match v2_kind(bytes)? {
        V2_KIND_FULL => {}
        V2_KIND_DELTA => {
            return Err(StoreError::DeltaWithoutBase {
                base_day: peek_delta_base_day(bytes)?,
            })
        }
        _ => {
            return Err(StoreError::BadCodec {
                array: "header",
                reason: "unknown v2 kind byte",
            })
        }
    }
    let hdr = V2FullHeader::parse(bytes)?;
    verify_v2_trailer(bytes, hdr.total_bytes)?;
    // The v1 layout the image will carry. Counts are capped at u32::MAX
    // and bounded by delivered bytes (count ≤ byte_len), so the image is
    // at most ~4× the file and the arithmetic cannot overflow u64.
    let mut v1_offsets = [0u64; NUM_ARRAYS];
    let mut offset = HEADER_BYTES as u64;
    for (i, slot) in v1_offsets.iter_mut().enumerate() {
        *slot = offset;
        offset += hdr.counts[i] * elem_bytes(i);
    }
    let payload_end = offset as usize;
    let total = payload_end + CHECKSUM_BYTES;
    let mut image = AlignedBytes::zeroed(total);
    {
        let img = image.as_mut_bytes();
        img[0..8].copy_from_slice(&MAGIC);
        img[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        img[12..20].copy_from_slice(&hdr.num_social_links.to_le_bytes());
        img[20..28].copy_from_slice(&hdr.num_attr_links.to_le_bytes());
        for (i, &off) in v1_offsets.iter().enumerate() {
            let at = 28 + i * 16;
            img[at..at + 8].copy_from_slice(&off.to_le_bytes());
            img[at + 8..at + 16].copy_from_slice(&hdr.counts[i].to_le_bytes());
        }
        for i in 0..NUM_ARRAYS - 1 {
            let start = v1_offsets[i] as usize;
            let dst = &mut img[start..start + hdr.counts[i] as usize * 4];
            codec::decode_u32s_with(
                hdr.col(bytes, i),
                hdr.counts[i] as usize,
                ARRAY_NAMES[i],
                |j, v| {
                    dst[j * 4..j * 4 + 4].copy_from_slice(&v.to_le_bytes());
                },
            )?;
        }
        let tag_start = v1_offsets[NUM_ARRAYS - 1] as usize;
        img[tag_start..payload_end].copy_from_slice(hdr.col(bytes, NUM_ARRAYS - 1));
        let seal = fnv1a64(&img[..payload_end]);
        img[payload_end..total].copy_from_slice(&seal.to_le_bytes());
    }
    Ok(image)
}

/// Add-list names of a delta day, in file order (the five CSRs).
const DELTA_LIST_NAMES: [&str; NUM_DELTA_LISTS] =
    ["out_add", "in_add", "ua_add", "am_add", "und_add"];

/// The base day a v2 delta buffer patches, read from the header without
/// decoding anything else. Used to report [`StoreError::DeltaWithoutBase`]
/// with the day the caller must resolve first.
fn peek_delta_base_day(bytes: &[u8]) -> Result<u32, StoreError> {
    if bytes.len() < 20 {
        return Err(StoreError::Truncated {
            section: "v2 delta header",
        });
    }
    Ok(u32::from_le_bytes(array_at(bytes, 16)))
}

/// Everything a SAN gains between two persisted days: the sorted
/// `(row, value)` add-lists [`patch_csr_into`](crate::delta) consumes for
/// each of the five CSRs, the attribute-type tags of new attribute nodes,
/// and the target day's node/link counters. Monotone SAN growth (nodes and
/// links are only ever added) is what makes this complete — a delta day is
/// exactly the adds, never a removal or an in-place edit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DeltaDay {
    base_day: u32,
    /// Social rows of the *target* day (sentinel not counted).
    new_social_rows: u64,
    /// Attribute rows of the target day.
    new_attr_rows: u64,
    num_social_links: u64,
    num_attr_links: u64,
    out_add: Vec<(u32, SocialId)>,
    in_add: Vec<(u32, SocialId)>,
    ua_add: Vec<(u32, AttrId)>,
    am_add: Vec<(u32, SocialId)>,
    und_add: Vec<(u32, SocialId)>,
    attr_type_add: Vec<AttrType>,
}

/// A base snapshot's columns, borrowed: what [`DeltaDay::apply_to`]
/// reads, so a delta patches an owned [`CsrSan`] (the chain replay) and a
/// resident [`CsrSanView`](crate::view::CsrSanView) (a served base day)
/// alike without copying either.
#[derive(Clone, Copy)]
pub(crate) struct BaseColumns<'a> {
    pub(crate) out_off: &'a [u32],
    pub(crate) out_dst: &'a [SocialId],
    pub(crate) in_off: &'a [u32],
    pub(crate) in_src: &'a [SocialId],
    pub(crate) ua_off: &'a [u32],
    pub(crate) ua_attr: &'a [AttrId],
    pub(crate) am_off: &'a [u32],
    pub(crate) am_user: &'a [SocialId],
    pub(crate) und_off: &'a [u32],
    pub(crate) und_nbr: &'a [SocialId],
    pub(crate) attr_types: BaseAttrTypes<'a>,
    pub(crate) num_social_links: usize,
    pub(crate) num_attr_links: usize,
}

/// The attribute-type column of a [`BaseColumns`]: typed for an owned
/// snapshot, raw validated tags for a view.
#[derive(Clone, Copy)]
pub(crate) enum BaseAttrTypes<'a> {
    Types(&'a [AttrType]),
    Tags(&'a [u8]),
}

impl BaseAttrTypes<'_> {
    fn len(&self) -> usize {
        match self {
            BaseAttrTypes::Types(types) => types.len(),
            BaseAttrTypes::Tags(tags) => tags.len(),
        }
    }
}

impl<'a> From<&'a CsrSan> for BaseColumns<'a> {
    fn from(base: &'a CsrSan) -> BaseColumns<'a> {
        BaseColumns {
            out_off: &base.out_off,
            out_dst: &base.out_dst,
            in_off: &base.in_off,
            in_src: &base.in_src,
            ua_off: &base.ua_off,
            ua_attr: &base.ua_attr,
            am_off: &base.am_off,
            am_user: &base.am_user,
            und_off: &base.und_off,
            und_nbr: &base.und_nbr,
            attr_types: BaseAttrTypes::Types(&base.attr_types),
            num_social_links: base.num_social_links,
            num_attr_links: base.num_attr_links,
        }
    }
}

/// Per-row sorted-merge diff of two CSRs of a monotonically growing SAN:
/// every `(row, value)` present in `new` but not in `old`, in `(row,
/// value)` order — exactly the add-list shape
/// [`patch_csr_into`](crate::delta) consumes. Assumes `old ⊆ new` row by
/// row (both sorted), which monotone growth guarantees.
fn csr_diff<T: Copy + Ord>(
    old_off: &[u32],
    old_data: &[T],
    new_off: &[u32],
    new_data: &[T],
) -> Vec<(u32, T)> {
    let old_rows = old_off.len().saturating_sub(1);
    let new_rows = new_off.len().saturating_sub(1);
    let mut adds = Vec::new();
    for i in 0..new_rows {
        let new_row = &new_data[new_off[i] as usize..new_off[i + 1] as usize];
        let old_row: &[T] = if i < old_rows {
            &old_data[old_off[i] as usize..old_off[i + 1] as usize]
        } else {
            &[]
        };
        let mut a = 0usize;
        for &v in new_row {
            if a < old_row.len() && old_row[a] == v {
                a += 1;
            } else {
                adds.push((i as u32, v));
            }
        }
        debug_assert_eq!(a, old_row.len(), "row {i}: old row not a subset of new");
    }
    adds
}

/// Computes the delta from `base` (the snapshot persisted as `base_day`)
/// to `snap`. Both are trusted in-memory snapshots of the same monotone
/// timeline.
fn delta_between(base_day: u32, base: &CsrSan, snap: &CsrSan) -> DeltaDay {
    DeltaDay {
        base_day,
        new_social_rows: snap.num_social_rows() as u64,
        new_attr_rows: snap.attr_types.len() as u64,
        num_social_links: snap.num_social_links as u64,
        num_attr_links: snap.num_attr_links as u64,
        out_add: csr_diff(&base.out_off, &base.out_dst, &snap.out_off, &snap.out_dst),
        in_add: csr_diff(&base.in_off, &base.in_src, &snap.in_off, &snap.in_src),
        ua_add: csr_diff(&base.ua_off, &base.ua_attr, &snap.ua_off, &snap.ua_attr),
        am_add: csr_diff(&base.am_off, &base.am_user, &snap.am_off, &snap.am_user),
        und_add: csr_diff(&base.und_off, &base.und_nbr, &snap.und_off, &snap.und_nbr),
        attr_type_add: snap
            .attr_types
            .get(base.attr_types.len()..)
            .unwrap_or(&[])
            .to_vec(),
    }
}

impl DeltaDay {
    /// The five add-lists as `(name, pairs)` for uniform header/payload
    /// passes; list `i` mirrors CSR `i` of the file order.
    fn list_lens(&self) -> [u64; NUM_DELTA_LISTS] {
        [
            self.out_add.len() as u64,
            self.in_add.len() as u64,
            self.ua_add.len() as u64,
            self.am_add.len() as u64,
            self.und_add.len() as u64,
        ]
    }

    /// Serialises the delta day (kind byte [`V2_KIND_DELTA`]): header,
    /// then per list a codec stream of rows followed by a codec stream of
    /// values, then the raw added tags, sealed by the FNV trailer.
    /// Returns total bytes written.
    fn write_to(&self, w: &mut impl Write) -> Result<u64, StoreError> {
        let mut payload = Vec::new();
        // Per list: (rows_len, vals_len) byte lengths of the two streams.
        let mut stream_lens = [(0u64, 0u64); NUM_DELTA_LISTS];
        {
            macro_rules! put_list {
                ($i:expr, $list:expr, $as_u32:expr) => {{
                    let rows_start = payload.len();
                    codec::encode_u32s_by(&$list, |p| p.0, &mut payload);
                    let vals_start = payload.len();
                    codec::encode_u32s_by(&$list, $as_u32, &mut payload);
                    stream_lens[$i] = (
                        (vals_start - rows_start) as u64,
                        (payload.len() - vals_start) as u64,
                    );
                }};
            }
            put_list!(0, self.out_add, |p: (u32, SocialId)| p.1 .0);
            put_list!(1, self.in_add, |p: (u32, SocialId)| p.1 .0);
            put_list!(2, self.ua_add, |p: (u32, AttrId)| p.1 .0);
            put_list!(3, self.am_add, |p: (u32, SocialId)| p.1 .0);
            put_list!(4, self.und_add, |p: (u32, SocialId)| p.1 .0);
        }
        for &ty in &self.attr_type_add {
            payload.push(attr_type_tag(ty));
        }
        let lens = self.list_lens();
        let mut header = Vec::with_capacity(V2_DELTA_HEADER_BYTES);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION_V2.to_le_bytes());
        header.push(V2_KIND_DELTA);
        header.extend_from_slice(&[0u8; 3]);
        header.extend_from_slice(&self.base_day.to_le_bytes());
        header.extend_from_slice(&self.new_social_rows.to_le_bytes());
        header.extend_from_slice(&self.new_attr_rows.to_le_bytes());
        header.extend_from_slice(&self.num_social_links.to_le_bytes());
        header.extend_from_slice(&self.num_attr_links.to_le_bytes());
        for i in 0..NUM_DELTA_LISTS {
            header.extend_from_slice(&lens[i].to_le_bytes());
            header.extend_from_slice(&stream_lens[i].0.to_le_bytes());
            header.extend_from_slice(&stream_lens[i].1.to_le_bytes());
        }
        header.extend_from_slice(&(self.attr_type_add.len() as u64).to_le_bytes());
        debug_assert_eq!(header.len(), V2_DELTA_HEADER_BYTES);
        let mut hw = HashingWriter {
            inner: w,
            hash: Fnv1a::new(),
            written: 0,
        };
        hw.put(&header)?;
        hw.put(&payload)?;
        let checksum = hw.hash.finish();
        let total = hw.written + CHECKSUM_BYTES as u64;
        w.write_all(&checksum.to_le_bytes())?;
        Ok(total)
    }

    /// Parses and validates a delta-day buffer. Everything checkable
    /// without the base snapshot is checked here: header caps, checksum,
    /// codec streams, strict `(row, value)` ordering of every list, and
    /// row/value bounds against the target day's declared node counts.
    /// Base-dependent consistency lives in [`DeltaDay::apply_to`].
    fn read(bytes: &[u8]) -> Result<DeltaDay, StoreError> {
        let Some(header) = bytes.get(..V2_DELTA_HEADER_BYTES) else {
            return Err(StoreError::Truncated {
                section: "v2 delta header",
            });
        };
        let magic: [u8; 8] = array_at(header, 0);
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(array_at(header, 8));
        if version != FORMAT_VERSION_V2 {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        if header.get(VERSION_PREFIX_BYTES).copied() != Some(V2_KIND_DELTA) {
            return Err(StoreError::BadCodec {
                array: "header",
                reason: "not a v2 delta day",
            });
        }
        let u64_at = |i: usize| u64::from_le_bytes(array_at(header, i));
        let base_day = u32::from_le_bytes(array_at(header, 16));
        let new_social_rows = u64_at(20);
        let new_attr_rows = u64_at(28);
        let num_social_links = u64_at(36);
        let num_attr_links = u64_at(44);
        // The u32::MAX caps mirror v1's: CSR offsets are u32, so no valid
        // day exceeds them — reject before allocating.
        for (what, found) in [
            ("delta social rows", new_social_rows),
            ("delta attr rows", new_attr_rows),
            ("num_social_links", num_social_links),
            ("num_attr_links", num_attr_links),
        ] {
            if found > u64::from(u32::MAX) {
                return Err(StoreError::CountMismatch {
                    what,
                    expected: u64::from(u32::MAX),
                    found,
                });
            }
        }
        let mut pairs = [0u64; NUM_DELTA_LISTS];
        let mut stream_lens = [(0u64, 0u64); NUM_DELTA_LISTS];
        for i in 0..NUM_DELTA_LISTS {
            pairs[i] = u64_at(52 + i * 24);
            stream_lens[i] = (u64_at(52 + i * 24 + 8), u64_at(52 + i * 24 + 16));
            if pairs[i] > u64::from(u32::MAX) {
                return Err(StoreError::CountMismatch {
                    what: DELTA_LIST_NAMES[i],
                    expected: u64::from(u32::MAX),
                    found: pairs[i],
                });
            }
            // Same codec byte-length sanity as full-day columns.
            let max = codec::max_encoded_len(pairs[i]).unwrap_or(u64::MAX);
            for len in [stream_lens[i].0, stream_lens[i].1] {
                if len > max {
                    return Err(StoreError::BadCodec {
                        array: DELTA_LIST_NAMES[i],
                        reason: "declared byte length exceeds codec bound",
                    });
                }
                if len < pairs[i] {
                    return Err(StoreError::BadCodec {
                        array: DELTA_LIST_NAMES[i],
                        reason: "declared byte length shorter than value count",
                    });
                }
            }
        }
        let tag_count = u64_at(52 + NUM_DELTA_LISTS * 24);
        if tag_count > u64::from(u32::MAX) {
            return Err(StoreError::CountMismatch {
                what: "delta attr_types",
                expected: u64::from(u32::MAX),
                found: tag_count,
            });
        }
        // Tile the payload and bound the buffer before touching it.
        let mut offset = V2_DELTA_HEADER_BYTES as u64;
        let mut stream_at = [(0u64, 0u64); NUM_DELTA_LISTS];
        for i in 0..NUM_DELTA_LISTS {
            stream_at[i].0 = offset;
            offset = offset
                .checked_add(stream_lens[i].0)
                .ok_or(StoreError::CountMismatch {
                    what: DELTA_LIST_NAMES[i],
                    expected: u64::MAX,
                    found: stream_lens[i].0,
                })?;
            stream_at[i].1 = offset;
            offset = offset
                .checked_add(stream_lens[i].1)
                .ok_or(StoreError::CountMismatch {
                    what: DELTA_LIST_NAMES[i],
                    expected: u64::MAX,
                    found: stream_lens[i].1,
                })?;
        }
        let tags_at = offset;
        let total_bytes = offset + tag_count + CHECKSUM_BYTES as u64;
        if (bytes.len() as u64) < total_bytes {
            return Err(StoreError::Truncated {
                section: "v2 delta payload",
            });
        }
        verify_v2_trailer(bytes, total_bytes)?;
        // Decode the ten streams into five pair lists, enforcing strict
        // (row, value) order and the target-day bounds as we go.
        #[allow(clippy::too_many_arguments)]
        fn read_list<T: Copy + Ord>(
            bytes: &[u8],
            at: (u64, u64),
            lens: (u64, u64),
            count: usize,
            name: &'static str,
            row_bound: u64,
            val_bound: u64,
            from_u32: impl Fn(u32) -> T,
            as_u32: impl Fn(T) -> u32,
        ) -> Result<Vec<(u32, T)>, StoreError> {
            let rows_col = bytes
                .get(at.0 as usize..(at.0 + lens.0) as usize)
                .unwrap_or(&[]);
            let vals_col = bytes
                .get(at.1 as usize..(at.1 + lens.1) as usize)
                .unwrap_or(&[]);
            let mut out: Vec<(u32, T)> = Vec::with_capacity(count);
            codec::decode_u32s_with(rows_col, count, name, |_, r| out.push((r, from_u32(0))))?;
            codec::decode_u32s_with(vals_col, count, name, |i, v| out[i].1 = from_u32(v))?;
            for (i, &(r, v)) in out.iter().enumerate() {
                if u64::from(r) >= row_bound {
                    return Err(StoreError::IdOutOfRange { array: name });
                }
                if u64::from(as_u32(v)) >= val_bound {
                    return Err(StoreError::IdOutOfRange { array: name });
                }
                if i > 0 && (out[i - 1].0, as_u32(out[i - 1].1)) >= (r, as_u32(v)) {
                    return Err(StoreError::BadCodec {
                        array: name,
                        reason: "pairs not strictly increasing",
                    });
                }
            }
            Ok(out)
        }
        let n = new_social_rows;
        let m = new_attr_rows;
        let lists = |i: usize| (stream_at[i], stream_lens[i], pairs[i] as usize);
        let (at0, ln0, c0) = lists(0);
        let out_add = read_list(
            bytes,
            at0,
            ln0,
            c0,
            DELTA_LIST_NAMES[0],
            n,
            n,
            SocialId,
            |v| v.0,
        )?;
        let (at1, ln1, c1) = lists(1);
        let in_add = read_list(
            bytes,
            at1,
            ln1,
            c1,
            DELTA_LIST_NAMES[1],
            n,
            n,
            SocialId,
            |v| v.0,
        )?;
        let (at2, ln2, c2) = lists(2);
        let ua_add = read_list(
            bytes,
            at2,
            ln2,
            c2,
            DELTA_LIST_NAMES[2],
            n,
            m,
            AttrId,
            |v| v.0,
        )?;
        let (at3, ln3, c3) = lists(3);
        let am_add = read_list(
            bytes,
            at3,
            ln3,
            c3,
            DELTA_LIST_NAMES[3],
            m,
            n,
            SocialId,
            |v| v.0,
        )?;
        let (at4, ln4, c4) = lists(4);
        let und_add = read_list(
            bytes,
            at4,
            ln4,
            c4,
            DELTA_LIST_NAMES[4],
            n,
            n,
            SocialId,
            |v| v.0,
        )?;
        let tag_bytes = bytes
            .get(tags_at as usize..(tags_at + tag_count) as usize)
            .unwrap_or(&[]);
        let mut attr_type_add: Vec<AttrType> = Vec::with_capacity(tag_bytes.len());
        for &b in tag_bytes {
            attr_type_add.push(attr_type_from_tag(b)?);
        }
        // Cross-list counts that need no base: the paired lists mirror
        // each other (every social link lands in out+in, every attr link
        // in ua+am), and the added tags cannot exceed the attr rows.
        if in_add.len() != out_add.len() {
            return Err(StoreError::CountMismatch {
                what: DELTA_LIST_NAMES[1],
                expected: out_add.len() as u64,
                found: in_add.len() as u64,
            });
        }
        if am_add.len() != ua_add.len() {
            return Err(StoreError::CountMismatch {
                what: DELTA_LIST_NAMES[3],
                expected: ua_add.len() as u64,
                found: am_add.len() as u64,
            });
        }
        if attr_type_add.len() as u64 > new_attr_rows {
            return Err(StoreError::CountMismatch {
                what: "delta attr_types",
                expected: new_attr_rows,
                found: attr_type_add.len() as u64,
            });
        }
        Ok(DeltaDay {
            base_day,
            new_social_rows,
            new_attr_rows,
            num_social_links,
            num_attr_links,
            out_add,
            in_add,
            ua_add,
            am_add,
            und_add,
            attr_type_add,
        })
    }

    /// Patches `base` into the target day's snapshot. Every
    /// base-dependent invariant is checked first — row growth, link
    /// counters adding up, tag counts, `u32` data-length headroom, and no
    /// add duplicating an edge the base already holds — so the trusted
    /// merge in [`patch_csr_into`](crate::delta) can never see input that
    /// trips its asserts, whatever the file claimed.
    fn apply_to(&self, base: BaseColumns<'_>) -> Result<CsrSan, StoreError> {
        let base_n = base.out_off.len().saturating_sub(1) as u64;
        let base_m = base.attr_types.len() as u64;
        let n = self.new_social_rows;
        let m = self.new_attr_rows;
        if n < base_n {
            return Err(StoreError::CountMismatch {
                what: "delta social rows",
                expected: base_n,
                found: n,
            });
        }
        if m != base_m + self.attr_type_add.len() as u64 {
            return Err(StoreError::CountMismatch {
                what: "delta attr rows",
                expected: base_m + self.attr_type_add.len() as u64,
                found: m,
            });
        }
        if self.num_social_links != base.num_social_links as u64 + self.out_add.len() as u64 {
            return Err(StoreError::CountMismatch {
                what: "num_social_links",
                expected: base.num_social_links as u64 + self.out_add.len() as u64,
                found: self.num_social_links,
            });
        }
        if self.num_attr_links != base.num_attr_links as u64 + self.ua_add.len() as u64 {
            return Err(StoreError::CountMismatch {
                what: "num_attr_links",
                expected: base.num_attr_links as u64 + self.ua_add.len() as u64,
                found: self.num_attr_links,
            });
        }
        // Patched data arrays must stay under the u32 offset ceiling, and
        // no add may duplicate an edge the base already holds — both
        // would otherwise trip the trusted merge's asserts.
        fn check_adds<T: Copy + Ord>(
            off: &[u32],
            data: &[T],
            adds: &[(u32, T)],
            name: &'static str,
        ) -> Result<(), StoreError> {
            let grown = data.len() as u64 + adds.len() as u64;
            if grown > u64::from(u32::MAX) {
                return Err(StoreError::CountMismatch {
                    what: name,
                    expected: u64::from(u32::MAX),
                    found: grown,
                });
            }
            for &(r, v) in adds {
                if crate::delta::csr_row_contains(off, data, r as usize, v) {
                    return Err(StoreError::BadCodec {
                        array: name,
                        reason: "add duplicates an edge of the base day",
                    });
                }
            }
            Ok(())
        }
        check_adds(
            base.out_off,
            base.out_dst,
            &self.out_add,
            DELTA_LIST_NAMES[0],
        )?;
        check_adds(base.in_off, base.in_src, &self.in_add, DELTA_LIST_NAMES[1])?;
        check_adds(base.ua_off, base.ua_attr, &self.ua_add, DELTA_LIST_NAMES[2])?;
        check_adds(base.am_off, base.am_user, &self.am_add, DELTA_LIST_NAMES[3])?;
        check_adds(
            base.und_off,
            base.und_nbr,
            &self.und_add,
            DELTA_LIST_NAMES[4],
        )?;
        let (n, m) = (n as usize, m as usize);
        let mut snap = CsrSan::default();
        crate::delta::patch_csr_into(
            base.out_off,
            base.out_dst,
            n,
            &self.out_add,
            &mut snap.out_off,
            &mut snap.out_dst,
        );
        crate::delta::patch_csr_into(
            base.in_off,
            base.in_src,
            n,
            &self.in_add,
            &mut snap.in_off,
            &mut snap.in_src,
        );
        crate::delta::patch_csr_into(
            base.ua_off,
            base.ua_attr,
            n,
            &self.ua_add,
            &mut snap.ua_off,
            &mut snap.ua_attr,
        );
        crate::delta::patch_csr_into(
            base.am_off,
            base.am_user,
            m,
            &self.am_add,
            &mut snap.am_off,
            &mut snap.am_user,
        );
        crate::delta::patch_csr_into(
            base.und_off,
            base.und_nbr,
            n,
            &self.und_add,
            &mut snap.und_off,
            &mut snap.und_nbr,
        );
        snap.attr_types.clear();
        snap.attr_types.reserve_exact(m);
        match base.attr_types {
            BaseAttrTypes::Types(types) => snap.attr_types.extend_from_slice(types),
            // Tags of a validated view; `Other` is the defensive
            // catch-all, as in `CsrSanView::to_owned_csr`.
            BaseAttrTypes::Tags(tags) => snap.attr_types.extend(
                tags.iter()
                    .map(|&t| attr_type_from_tag(t).unwrap_or(AttrType::Other)),
            ),
        }
        snap.attr_types.extend_from_slice(&self.attr_type_add);
        snap.num_social_links = self.num_social_links as usize;
        snap.num_attr_links = self.num_attr_links as usize;
        Ok(snap)
    }
}

/// On-disk encoding of one persisted day, as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DayFormat {
    /// v1 raw columnar file (`day <n> <bytes>`).
    V1Full,
    /// v2 codec-compressed full day (`day <n> <bytes> v2`).
    V2Full,
    /// v2 delta day patching `base` (`day <n> <bytes> delta <base>`).
    V2Delta {
        /// The persisted day this delta patches. Always strictly earlier
        /// than the delta's own day, so chains are acyclic by grammar.
        base: u32,
    },
}

/// One manifest entry: the day file's size and how it is encoded.
#[derive(Debug, Clone, Copy)]
pub struct DayEntry {
    /// Serialised bytes on disk.
    pub bytes: u64,
    /// The file's format.
    pub format: DayFormat,
}

/// One day's file image, encoded in memory and not yet in any vault: the
/// first half of every persist. [`SnapshotVault::commit`] is the second,
/// so a day encoded on another thread lands through the same checks,
/// temp-file rename and manifest update as one saved directly.
struct EncodedDay {
    day: u32,
    format: DayFormat,
    bytes: Vec<u8>,
}

impl EncodedDay {
    /// Runs `write` (one of the `write_*` serialisers) into a fresh buffer.
    fn encode(
        day: u32,
        format: DayFormat,
        write: impl FnOnce(&mut Vec<u8>) -> Result<u64, StoreError>,
    ) -> Result<EncodedDay, StoreError> {
        let mut bytes = Vec::new();
        write(&mut bytes)?;
        Ok(EncodedDay { day, format, bytes })
    }
}

/// A directory of persisted daily snapshots: `day-NNNN.csr` files plus a
/// `manifest.txt` index.
///
/// ```text
/// vault/
///   manifest.txt      # "# san-vault v1" then one line per day:
///                     #   day <n> <bytes>              v1 raw full day
///                     #   day <n> <bytes> v2           v2 compressed full day
///                     #   day <n> <bytes> delta <base> v2 delta against <base>
///   day-0000.csr
///   day-0007.csr
///   …
/// ```
///
/// The manifest is the source of truth for which days exist (a partially
/// written snapshot never appears in it: files are written to a temp name
/// and renamed before the manifest is updated) **and** for how to read
/// each one: a delta day names its base, and [`SnapshotVault::load_day`] /
/// [`SnapshotVault::map_day`] walk base chains (bounded by
/// [`MAX_DELTA_CHAIN`]) transparently — or, when the caller already holds
/// the base open, [`SnapshotVault::map_delta_onto`] applies just the one
/// delta — so mixed v1/v2/delta vaults serve
/// every consumer — including
/// [`SnapshotVault::nearest_at_or_before`] warm-starts and
/// [`SanTimeline::resume_from_vault`](crate::SanTimeline::resume_from_vault)
/// — without the caller knowing which days are deltas. A chain that names
/// a missing base or exceeds the bound is a typed
/// [`StoreError::BadManifest`].
#[derive(Debug)]
pub struct SnapshotVault {
    dir: PathBuf,
    /// day → file size + format, mirroring the manifest.
    days: BTreeMap<u32, DayEntry>,
    /// Metered IO: bytes moved + latency per direction (see
    /// [`SnapshotVault::metrics`]).
    metrics: VaultMetrics,
}

const MANIFEST: &str = "manifest.txt";
const MANIFEST_HEADER: &str = "# san-vault v1";

impl SnapshotVault {
    /// Opens a vault directory, creating it (and an empty manifest) if it
    /// does not exist yet. Opening an existing vault loads its manifest.
    pub fn create(dir: impl Into<PathBuf>) -> Result<SnapshotVault, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if dir.join(MANIFEST).exists() {
            return SnapshotVault::open(dir);
        }
        let vault = SnapshotVault {
            dir,
            days: BTreeMap::new(),
            metrics: VaultMetrics::new(),
        };
        vault.write_manifest()?;
        Ok(vault)
    }

    /// Opens an existing vault; fails if the directory or manifest is
    /// missing or malformed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotVault, StoreError> {
        let dir = dir.into();
        let text = fs::read_to_string(dir.join(MANIFEST))?;
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == MANIFEST_HEADER => {}
            other => {
                return Err(StoreError::BadManifest {
                    line: 1,
                    reason: format!(
                        "expected header {MANIFEST_HEADER:?}, found {:?}",
                        other.map(|(_, l)| l).unwrap_or("")
                    ),
                })
            }
        }
        let mut days = BTreeMap::new();
        let mut line_of = BTreeMap::new();
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |reason: &str| StoreError::BadManifest {
                line: i + 1,
                reason: reason.to_string(),
            };
            let parts: Vec<&str> = line.split_whitespace().collect();
            let (d, b, format) = match parts.as_slice() {
                ["day", d, b] => (d, b, DayFormat::V1Full),
                ["day", d, b, "v2"] => (d, b, DayFormat::V2Full),
                ["day", d, b, "delta", base] => {
                    let base: u32 = base.parse().map_err(|_| bad("unparsable base day"))?;
                    (d, b, DayFormat::V2Delta { base })
                }
                _ => return Err(bad("expected 'day <n> <bytes> [v2 | delta <base>]'")),
            };
            let day: u32 = d.parse().map_err(|_| bad("unparsable day"))?;
            let bytes: u64 = b.parse().map_err(|_| bad("unparsable byte count"))?;
            if let DayFormat::V2Delta { base } = format {
                // Bases strictly precede their day, so every chain walks
                // down and terminates — acyclic by grammar.
                if base >= day {
                    return Err(bad("delta base must be an earlier day"));
                }
            }
            days.insert(day, DayEntry { bytes, format });
            line_of.insert(day, i + 1);
        }
        // Second pass: every delta's base must itself be in the manifest.
        for (&day, entry) in &days {
            if let DayFormat::V2Delta { base } = entry.format {
                if !days.contains_key(&base) {
                    return Err(StoreError::BadManifest {
                        line: line_of.get(&day).copied().unwrap_or(0),
                        reason: format!(
                            "delta day {day} patches base day {base}, which is not in the manifest"
                        ),
                    });
                }
            }
        }
        Ok(SnapshotVault {
            dir,
            days,
            metrics: VaultMetrics::new(),
        })
    }

    /// This vault's IO meters: bytes read/written plus a latency
    /// histogram per direction, accumulated over every
    /// [`save_day`](SnapshotVault::save_day) /
    /// [`load_day`](SnapshotVault::load_day) /
    /// [`map_day`](SnapshotVault::map_day) since the vault handle was
    /// created (meters are per-handle, not persisted). The on-disk
    /// footprint itself is [`disk_bytes`](SnapshotVault::disk_bytes).
    pub fn metrics(&self) -> &VaultMetrics {
        &self.metrics
    }

    /// The vault's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persisted days in ascending order.
    pub fn days(&self) -> impl Iterator<Item = u32> + '_ {
        self.days.keys().copied()
    }

    /// Number of persisted days.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// True when no day has been persisted.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// The path of a day's snapshot file.
    pub fn day_path(&self, day: u32) -> PathBuf {
        self.dir.join(format!("day-{day:04}.csr"))
    }

    /// Total bytes the persisted snapshots occupy on disk (manifest
    /// excluded) — the capacity-planning counterpart of
    /// [`CsrSan::heap_bytes`].
    pub fn disk_bytes(&self) -> u64 {
        self.days.values().map(|e| e.bytes).sum()
    }

    /// How a persisted day is encoded, or `None` if it is not persisted.
    pub fn day_format(&self, day: u32) -> Option<DayFormat> {
        self.days.get(&day).map(|e| e.format)
    }

    /// Persists one day's snapshot, returning its serialised size. The
    /// day is encoded in memory, then committed: written to a temporary
    /// name and renamed, then the manifest is rewritten — a crash
    /// mid-save never leaves a registered, half-written day. Saving a day
    /// that already exists overwrites it.
    pub fn save_day(&mut self, day: u32, snap: &CsrSan) -> Result<u64, StoreError> {
        self.commit(EncodedDay::encode(day, DayFormat::V1Full, |w| {
            snap.write_to(w)
        })?)
    }

    /// Persists one day in the v2 compressed full format (see the module
    /// docs); otherwise identical to [`save_day`](SnapshotVault::save_day).
    pub fn save_day_v2(&mut self, day: u32, snap: &CsrSan) -> Result<u64, StoreError> {
        self.commit(EncodedDay::encode(day, DayFormat::V2Full, |w| {
            snap.write_v2_to(w)
        })?)
    }

    /// Persists `day` as a v2 delta against the already-persisted
    /// `base_day` (whose snapshot the caller supplies as `base` — the
    /// streaming writer keeps it resident, so no reload happens here).
    /// Fails with [`StoreError::DayNotPersisted`] when the base is not in
    /// the manifest, and with [`StoreError::BadManifest`] when the base
    /// does not precede `day` or the resulting chain would exceed
    /// [`MAX_DELTA_CHAIN`].
    pub fn save_day_delta(
        &mut self,
        day: u32,
        base_day: u32,
        base: &CsrSan,
        snap: &CsrSan,
    ) -> Result<u64, StoreError> {
        let delta = delta_between(base_day, base, snap);
        self.commit(EncodedDay::encode(
            day,
            DayFormat::V2Delta { base: base_day },
            |w| delta.write_to(w),
        )?)
    }

    /// The second half of every persist, whatever the format and whoever
    /// encoded the day: a delta day's base is checked against the
    /// manifest, then the bytes go to a temporary file that is renamed
    /// into place before the manifest is rewritten. The write meters see
    /// the bytes and this commit's latency (file write + rename +
    /// manifest), not the encode.
    fn commit(&mut self, encoded: EncodedDay) -> Result<u64, StoreError> {
        let EncodedDay { day, format, bytes } = encoded;
        if let DayFormat::V2Delta { base } = format {
            self.check_delta_base(day, base)?;
        }
        let started = Instant::now();
        let tmp = self.dir.join(format!("day-{day:04}.csr.tmp"));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.day_path(day))?;
        let len = bytes.len() as u64;
        self.days.insert(day, DayEntry { bytes: len, format });
        self.write_manifest()?;
        self.metrics.record_write(len, started.elapsed());
        Ok(len)
    }

    /// The checks a delta day passes before it is committed: its base is
    /// persisted, precedes it, and extending the base's chain stays within
    /// [`MAX_DELTA_CHAIN`].
    fn check_delta_base(&self, day: u32, base_day: u32) -> Result<(), StoreError> {
        if !self.days.contains_key(&base_day) {
            return Err(StoreError::DayNotPersisted { day: base_day });
        }
        if base_day >= day {
            return Err(StoreError::BadManifest {
                line: 0,
                reason: format!("delta base day {base_day} must precede day {day}"),
            });
        }
        let (_, base_chain) = self.chain_for(base_day)?;
        if base_chain.len() + 1 > MAX_DELTA_CHAIN {
            return Err(StoreError::BadManifest {
                line: 0,
                reason: format!(
                    "persisting day {day} as a delta on day {base_day} would exceed \
                     the chain bound of {MAX_DELTA_CHAIN}"
                ),
            });
        }
        Ok(())
    }

    /// Freezes every `step`-th day of the timeline (always including the
    /// final day) through the incremental delta pipeline and persists each
    /// one. Returns the persisted days in order.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn save_timeline(
        &mut self,
        timeline: &crate::SanTimeline,
        step: u32,
    ) -> Result<Vec<u32>, StoreError> {
        let mut saved = Vec::new();
        for (day, snap) in timeline.snapshot_stream(step) {
            self.save_day(day, &snap)?;
            saved.push(day);
        }
        Ok(saved)
    }

    /// Loads a persisted day as a shared snapshot handle (eager: every
    /// column is deserialised into owned arrays). A delta day is resolved
    /// through its base chain transparently. For the zero-copy alternative
    /// see [`map_day`](SnapshotVault::map_day).
    pub fn load_day(&self, day: u32) -> Result<Arc<CsrSan>, StoreError> {
        let Some(&entry) = self.days.get(&day) else {
            return Err(StoreError::DayNotPersisted { day });
        };
        match entry.format {
            DayFormat::V1Full | DayFormat::V2Full => {
                let started = Instant::now();
                let file = fs::File::open(self.day_path(day))?;
                let mut r = BufReader::new(file);
                let snap = CsrSan::read_from(&mut r)?;
                self.metrics.record_read(entry.bytes, started.elapsed());
                Ok(Arc::new(snap))
            }
            DayFormat::V2Delta { .. } => self.load_delta_chain(day),
        }
    }

    /// Walks `day`'s base chain down to a full day. Returns that full day
    /// plus the delta days on the way, newest first. Enforces the
    /// [`MAX_DELTA_CHAIN`] bound and surfaces a missing or cyclic base as
    /// [`StoreError::BadManifest`] (the parse-time checks make those
    /// unreachable for a manifest this handle loaded, but the walk stays
    /// total for manifests mutated behind it).
    fn chain_for(&self, day: u32) -> Result<(u32, Vec<u32>), StoreError> {
        let mut chain = Vec::new();
        let mut d = day;
        loop {
            let Some(&entry) = self.days.get(&d) else {
                return Err(StoreError::BadManifest {
                    line: 0,
                    reason: format!("delta chain for day {day} references missing day {d}"),
                });
            };
            match entry.format {
                DayFormat::V1Full | DayFormat::V2Full => return Ok((d, chain)),
                DayFormat::V2Delta { base } => {
                    chain.push(d);
                    if chain.len() > MAX_DELTA_CHAIN {
                        return Err(StoreError::BadManifest {
                            line: 0,
                            reason: format!(
                                "delta chain for day {day} exceeds the bound of {MAX_DELTA_CHAIN}"
                            ),
                        });
                    }
                    if base >= d {
                        return Err(StoreError::BadManifest {
                            line: 0,
                            reason: format!(
                                "delta day {d} names a base ({base}) that does not precede it"
                            ),
                        });
                    }
                    d = base;
                }
            }
        }
    }

    /// Reconstructs a delta day standalone: eager-load its full ancestor,
    /// then apply the chain's deltas oldest → newest, one merge per link.
    /// Metered as one read of the chain's combined bytes, plus the chain
    /// counters ([`VaultMetrics::record_chain`]). A caller that already
    /// holds the base day resident opens the day with one merge instead
    /// ([`map_delta_onto`](SnapshotVault::map_delta_onto)).
    fn load_delta_chain(&self, day: u32) -> Result<Arc<CsrSan>, StoreError> {
        let started = Instant::now();
        let (full_day, chain) = self.chain_for(day)?;
        let mut total_bytes = self.days.get(&full_day).map_or(0, |e| e.bytes);
        let file = fs::File::open(self.day_path(full_day))?;
        let mut r = BufReader::new(file);
        let mut cur = CsrSan::read_from(&mut r)?;
        for &d in chain.iter().rev() {
            let (delta, bytes) = self.read_delta(d)?;
            total_bytes += bytes;
            cur = delta.apply_to((&cur).into())?;
        }
        self.metrics.record_read(total_bytes, started.elapsed());
        self.metrics.record_chain(chain.len() as u64);
        Ok(Arc::new(cur))
    }

    /// Reads and decodes delta day `d`'s file, returning it with its byte
    /// length. Defense in depth: the file's own base pointer must agree
    /// with the manifest's, or the read fails as
    /// [`StoreError::BadManifest`].
    fn read_delta(&self, d: u32) -> Result<(DeltaDay, u64), StoreError> {
        let raw = fs::read(self.day_path(d))?;
        let delta = DeltaDay::read(&raw)?;
        let expected_base = match self.days.get(&d).map(|e| e.format) {
            Some(DayFormat::V2Delta { base }) => base,
            _ => d,
        };
        if delta.base_day != expected_base {
            return Err(StoreError::BadManifest {
                line: 0,
                reason: format!(
                    "day {d}'s file patches base day {}, manifest says {expected_base}",
                    delta.base_day
                ),
            });
        }
        Ok((delta, raw.len() as u64))
    }

    /// Opens delta day `day` onto `base`, a snapshot of the day its
    /// manifest entry names as base (already open — typically resident in
    /// a serving cache): one delta read and one merge, whatever the depth
    /// of the chain below the base. The result is bit-identical to
    /// [`map_day`](SnapshotVault::map_day) and is served from an owned
    /// v1-layout buffer ([`MappedSnapshot::from_owned`](crate::mmap::MappedSnapshot::from_owned)),
    /// like every reconstructed delta day. Metered as a read of the delta
    /// file plus a chain of one link ([`VaultMetrics::record_chain`]).
    ///
    /// Fails with [`StoreError::DayNotPersisted`] for an unknown day, with
    /// [`StoreError::BadManifest`] when `day` is not a delta day, its
    /// chain is broken or too deep, `base` stands in for a different day
    /// than the manifest's base, or the file's base pointer disagrees with
    /// the manifest; decode and consistency failures of the delta surface
    /// as from [`load_day`](SnapshotVault::load_day).
    #[cfg(unix)]
    pub fn map_delta_onto(
        &self,
        day: u32,
        base: &crate::mmap::MappedSnapshot,
    ) -> Result<crate::mmap::MappedSnapshot, StoreError> {
        let Some(&entry) = self.days.get(&day) else {
            return Err(StoreError::DayNotPersisted { day });
        };
        let DayFormat::V2Delta { base: base_day } = entry.format else {
            return Err(StoreError::BadManifest {
                line: 0,
                reason: format!("day {day} is a full day, not a delta"),
            });
        };
        // The whole manifest chain is still walked (a map lookup per
        // link): a chain the standalone path rejects stays rejected here.
        self.chain_for(day)?;
        if base.path() != self.day_path(base_day) {
            return Err(StoreError::BadManifest {
                line: 0,
                reason: format!(
                    "delta day {day} patches day {base_day}, but the base supplied is {}",
                    base.path().display()
                ),
            });
        }
        let started = Instant::now();
        let (delta, bytes) = self.read_delta(day)?;
        let snap = delta.apply_to(base.view().into())?;
        let mapped = crate::mmap::MappedSnapshot::from_owned(&snap, self.day_path(day))?;
        self.metrics.record_read(bytes, started.elapsed());
        self.metrics.record_chain(1);
        Ok(mapped)
    }

    /// Maps a persisted day read-only into memory and validates it once
    /// (header + checksum + structure), without deserialising a single
    /// column — the zero-copy counterpart of
    /// [`load_day`](SnapshotVault::load_day). The returned
    /// [`MappedSnapshot`](crate::mmap::MappedSnapshot) hands out
    /// [`CsrSanView`](crate::view::CsrSanView)s that read the file's pages
    /// in place and is `Send + Sync`, so one mapping can serve many
    /// threads. Metered as a read of the file's full validated length
    /// (the validation pass touches every byte).
    #[cfg(unix)]
    pub fn map_day(&self, day: u32) -> Result<crate::mmap::MappedSnapshot, StoreError> {
        let Some(&entry) = self.days.get(&day) else {
            return Err(StoreError::DayNotPersisted { day });
        };
        match entry.format {
            DayFormat::V1Full | DayFormat::V2Full => {
                let started = Instant::now();
                let mapped = crate::mmap::MappedSnapshot::open(self.day_path(day))?;
                self.metrics.record_read(entry.bytes, started.elapsed());
                Ok(mapped)
            }
            DayFormat::V2Delta { .. } => {
                // A delta day has no standalone on-disk image to map; the
                // chain is reconstructed (metered inside) and served from
                // an owned, v1-layout buffer behind the same handle type.
                let snap = self.load_delta_chain(day)?;
                crate::mmap::MappedSnapshot::from_owned(&snap, self.day_path(day))
            }
        }
    }

    /// The latest persisted day that is `≤ day` — the warm-start point for
    /// a sweep resuming at `day`.
    pub fn nearest_at_or_before(&self, day: u32) -> Option<u32> {
        self.days.range(..=day).next_back().map(|(&d, _)| d)
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        let mut text = String::from(MANIFEST_HEADER);
        text.push('\n');
        for (day, entry) in &self.days {
            let bytes = entry.bytes;
            match entry.format {
                DayFormat::V1Full => text.push_str(&format!("day {day} {bytes}\n")),
                DayFormat::V2Full => text.push_str(&format!("day {day} {bytes} v2\n")),
                DayFormat::V2Delta { base } => {
                    text.push_str(&format!("day {day} {bytes} delta {base}\n"))
                }
            }
        }
        let tmp = self.dir.join("manifest.txt.tmp");
        fs::write(&tmp, text)?;
        fs::rename(tmp, self.dir.join(MANIFEST))?;
        Ok(())
    }
}

/// Streams a synthesized timeline straight into a vault, overlapping the
/// generator with persistence. Days off the grid are only buffered. On a
/// grid day the buffered events move to the writer's one worker thread,
/// which owns the rolling snapshot (a [`DeltaFreezer`](crate::DeltaFreezer)),
/// patches it once with every event since the previous grid day and
/// encodes the day: a compressed v2 full day every `full_every`-th
/// persist, a v2 delta against the previous persisted day otherwise. The
/// calling thread keeps the vault and commits each encoded day in day
/// order (the base checks of [`SnapshotVault::save_day_delta`], temp
/// file, rename, manifest, meters) while the worker patches the next one.
/// The persisted bytes are exactly those of patching every day and saving
/// it through [`SnapshotVault::save_day_v2`] /
/// [`SnapshotVault::save_day_delta`].
///
/// At most one grid day is with the worker: the next grid day's
/// [`apply_day`](StreamingVaultWriter::apply_day) waits for it first, so
/// when `apply_day` returns on a grid day, every earlier grid day is
/// committed or has returned its error. Peak memory is one grid
/// interval's events, plus one in flight, plus the rolling snapshot (and
/// the previous persisted day's `Arc`, which shares storage with it in
/// the steady state, and one encoded day awaiting its commit), however
/// many days the timeline runs.
///
/// # Errors, panics and `Drop`
///
/// A commit error (an I/O failure, a rejected delta base) comes back from
/// the call that commits the day: the next grid day's `apply_day`, or
/// [`finish`](StreamingVaultWriter::finish). A delta day whose base
/// failed to commit then fails the base check in turn
/// ([`StoreError::DayNotPersisted`]), up to the next full day.
///
/// A link to an unknown node panics on the worker when its grid day is
/// patched, before that day is encoded. The panic resumes on the calling
/// thread, with its original payload, at the first call that waits for
/// the worker: the next grid day's `apply_day`,
/// [`snapshot`](StreamingVaultWriter::snapshot),
/// [`v1_equivalent_bytes`](StreamingVaultWriter::v1_equivalent_bytes) or
/// `finish` — or in `Drop`, unless the calling thread is already
/// panicking.
///
/// Dropping the writer without `finish` joins the worker and commits
/// nothing more: the day in flight and a trailing off-grid day are not
/// published.
///
/// ```no_run
/// # use san_graph::store::{SnapshotVault, StreamingVaultWriter};
/// # let events_of_day = |_d: u32| Vec::new();
/// let mut vault = SnapshotVault::create("vault")?;
/// let mut writer = StreamingVaultWriter::new(&mut vault, 7, 4);
/// for day in 0..=98 {
///     writer.apply_day(&events_of_day(day))?;
/// }
/// let saved = writer.finish()?;
/// # Ok::<(), san_graph::store::StoreError>(())
/// ```
pub struct StreamingVaultWriter<'a> {
    vault: &'a mut SnapshotVault,
    /// Batches for the worker (capacity 1); `None` once closed.
    jobs: Option<SyncSender<Job>>,
    /// The worker's answers, one per job, in job order.
    answers: Receiver<Answer>,
    worker: Option<JoinHandle<()>>,
    /// Events of the days applied since the last batch, in log order.
    buffered: Vec<crate::SanEvent>,
    /// How many days `buffered` spans.
    buffered_days: u64,
    step: u32,
    full_every: u32,
    next_day: u32,
    deltas_since_full: u32,
    /// The grid day sent last: the base of the next delta day.
    last_sent: Option<u32>,
    /// A grid day is with the worker and its answer is not back yet.
    in_flight: bool,
    /// The answer for the grid day sent last, back but not yet committed.
    encoded: Option<Result<EncodedDay, StoreError>>,
    saved: Vec<u32>,
    v1_equivalent_bytes: u64,
}

/// One batch for the writer's worker: the events since the previous batch.
struct Job {
    events: Vec<crate::SanEvent>,
    /// How many days `events` spans.
    days: u64,
    /// `Some((day, base))` encodes the patched snapshot as `day`, a delta
    /// on the grid day `base` sent before it or a full day when `base` is
    /// `None`; `None` sends the snapshot itself back.
    persist: Option<(u32, Option<u32>)>,
}

/// The worker's answer to one [`Job`].
enum Answer {
    /// A grid day's encoded file and its v1-equivalent size.
    Day(Result<EncodedDay, StoreError>, u64),
    /// The patched snapshot a `persist: None` job asked for.
    Snapshot(Arc<CsrSan>),
}

/// The writer's worker: owns the freezer and the previous persisted
/// snapshot, answers every job in order, and returns once the writer
/// closes the job channel.
fn patch_and_encode(jobs: Receiver<Job>, answers: Sender<Answer>) {
    let mut freezer = crate::DeltaFreezer::new();
    let mut prev: Option<Arc<CsrSan>> = None;
    for Job {
        events,
        days,
        persist,
    } in jobs
    {
        freezer.apply_days(&events, days);
        drop(events);
        let snap = freezer.snapshot();
        let answer = match persist {
            None => Answer::Snapshot(snap),
            Some((day, base)) => {
                let encoded = match (base, prev.as_deref()) {
                    (Some(base_day), Some(base)) => {
                        let delta = delta_between(base_day, base, &snap);
                        EncodedDay::encode(day, DayFormat::V2Delta { base: base_day }, |w| {
                            delta.write_to(w)
                        })
                    }
                    _ => EncodedDay::encode(day, DayFormat::V2Full, |w| snap.write_v2_to(w)),
                };
                let v1_len = snap.store_bytes_len();
                prev = Some(snap);
                Answer::Day(encoded, v1_len)
            }
        };
        if answers.send(answer).is_err() {
            return;
        }
    }
}

impl<'a> StreamingVaultWriter<'a> {
    /// A writer persisting every `step`-th day (the same grid as
    /// [`SnapshotVault::save_timeline`]: day 0, then multiples of `step`,
    /// plus the final day at [`finish`](StreamingVaultWriter::finish)),
    /// with at most `full_every - 1` consecutive deltas between full
    /// days. Starts the writer's worker thread.
    ///
    /// # Panics
    /// Panics if `step == 0`, if `full_every` is 0 or above
    /// [`MAX_DELTA_CHAIN`], or if the OS cannot start a thread.
    pub fn new(
        vault: &'a mut SnapshotVault,
        step: u32,
        full_every: u32,
    ) -> StreamingVaultWriter<'a> {
        assert!(step > 0, "step must be positive");
        assert!(
            (1..=MAX_DELTA_CHAIN as u32).contains(&full_every),
            "full_every must be in 1..={MAX_DELTA_CHAIN}"
        );
        let (jobs, job_rx) = mpsc::sync_channel(1);
        let (answer_tx, answers) = mpsc::channel();
        let worker = std::thread::spawn(move || patch_and_encode(job_rx, answer_tx));
        StreamingVaultWriter {
            vault,
            jobs: Some(jobs),
            answers,
            worker: Some(worker),
            buffered: Vec::new(),
            buffered_days: 0,
            step,
            full_every,
            next_day: 0,
            deltas_since_full: 0,
            last_sent: None,
            in_flight: false,
            encoded: None,
            saved: Vec::new(),
            v1_equivalent_bytes: 0,
        }
    }

    /// Takes the next day's events (day numbers are implicit and
    /// consecutive from 0). On a grid day, waits for the previous grid day,
    /// hands every event since then to the worker and commits the previous
    /// grid day while the worker patches and encodes this one.
    ///
    /// # Panics
    /// Resumes a panic of the worker (see the type docs), such as a
    /// buffered event that references a node that does not exist yet (the
    /// [`DeltaFreezer`](crate::DeltaFreezer) contract).
    pub fn apply_day(&mut self, events: &[crate::SanEvent]) -> Result<(), StoreError> {
        let day = self.next_day;
        self.buffered.extend_from_slice(events);
        self.buffered_days += 1;
        self.next_day += 1;
        if day.is_multiple_of(self.step) {
            self.persist(day)?;
        }
        Ok(())
    }

    /// Hands grid day `day` to the worker, then commits the grid day
    /// before it.
    fn persist(&mut self, day: u32) -> Result<(), StoreError> {
        self.wait();
        let base = match self.last_sent {
            Some(base) if self.deltas_since_full < self.full_every - 1 => {
                self.deltas_since_full += 1;
                Some(base)
            }
            _ => {
                self.deltas_since_full = 0;
                None
            }
        };
        self.last_sent = Some(day);
        self.send_batch(Some((day, base)));
        self.in_flight = true;
        self.commit()
    }

    /// Moves the buffered days to the worker.
    fn send_batch(&mut self, persist: Option<(u32, Option<u32>)>) {
        let next = Vec::with_capacity(self.buffered.len());
        let job = Job {
            events: mem::replace(&mut self.buffered, next),
            days: mem::take(&mut self.buffered_days),
            persist,
        };
        let sent = self
            .jobs
            .as_ref()
            .is_some_and(|jobs| jobs.send(job).is_ok());
        if !sent {
            self.resume_worker_panic();
        }
    }

    /// Waits for the grid day in flight, if any, and keeps its answer for
    /// [`commit`](StreamingVaultWriter::commit).
    fn wait(&mut self) {
        if mem::take(&mut self.in_flight) {
            if let Answer::Day(encoded, v1_len) = self.receive() {
                self.v1_equivalent_bytes += v1_len;
                self.encoded = Some(encoded);
            }
        }
    }

    /// Commits the grid day the worker answered last, if not done yet.
    fn commit(&mut self) -> Result<(), StoreError> {
        if let Some(encoded) = self.encoded.take() {
            let encoded = encoded?;
            let day = encoded.day;
            self.vault.commit(encoded)?;
            self.saved.push(day);
        }
        Ok(())
    }

    fn receive(&mut self) -> Answer {
        match self.answers.recv() {
            Ok(answer) => answer,
            Err(_) => self.resume_worker_panic(),
        }
    }

    /// The worker hung up mid-job, so it panicked: join it and resume its
    /// panic here.
    fn resume_worker_panic(&mut self) -> ! {
        self.jobs = None;
        let payload: Box<dyn std::any::Any + Send> = match self.worker.take().map(JoinHandle::join)
        {
            Some(Err(payload)) => payload,
            _ => Box::new("the vault writer's worker thread is gone"),
        };
        std::panic::resume_unwind(payload)
    }

    /// The end-of-day snapshot of the last applied day (shared handle, no
    /// copy). Waits for the worker to patch the buffered days, so off the
    /// grid it costs one patch.
    pub fn snapshot(&mut self) -> Arc<CsrSan> {
        self.wait();
        self.send_batch(None);
        loop {
            // After `wait`, the only answer outstanding is this one.
            if let Answer::Snapshot(snap) = self.receive() {
                return snap;
            }
        }
    }

    /// Days applied so far (the next [`apply_day`](StreamingVaultWriter::apply_day)
    /// is this day).
    pub fn days_applied(&self) -> u32 {
        self.next_day
    }

    /// What every grid day applied so far would occupy in the raw v1
    /// format — the denominator of the v2 compression ratio. Waits for the
    /// grid day in flight.
    pub fn v1_equivalent_bytes(&mut self) -> u64 {
        self.wait();
        self.v1_equivalent_bytes
    }

    /// Persists the final day if it is off the grid (matching
    /// [`SnapshotVault::save_timeline`]'s always-include-the-last-day
    /// contract), commits every day still pending, and returns the
    /// persisted days in order. The first commit error is returned after
    /// the remaining days have been tried.
    pub fn finish(mut self) -> Result<Vec<u32>, StoreError> {
        let mut result = Ok(());
        if let Some(last) = self.next_day.checked_sub(1) {
            if last % self.step != 0 {
                result = self.persist(last);
            }
        }
        self.wait();
        result.and(self.commit())?;
        Ok(mem::take(&mut self.saved))
    }
}

impl Drop for StreamingVaultWriter<'_> {
    /// Closes the job channel and joins the worker; the day in flight, if
    /// any, is not committed. Resumes a worker panic unless this thread is
    /// already panicking.
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(worker) = self.worker.take() {
            if let Err(payload) = worker.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::TimelineBuilder;
    use crate::san::San;

    fn small_csr() -> CsrSan {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        let u2 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::City);
        let a1 = tb.add_attr_node(AttrType::Employer);
        tb.add_social_link(u0, u1);
        tb.add_social_link(u1, u0);
        tb.add_social_link(u2, u0);
        tb.add_attr_link(u0, a0);
        tb.add_attr_link(u2, a1);
        tb.finish().1.freeze()
    }

    #[test]
    fn roundtrip_small() {
        let csr = small_csr();
        let bytes = csr.to_store_bytes();
        assert_eq!(bytes.len() as u64, csr.store_bytes_len());
        let back = CsrSan::from_store_bytes(&bytes).unwrap();
        assert_eq!(back, csr);
    }

    #[test]
    fn roundtrip_empty() {
        let csr = San::new().freeze();
        let back = CsrSan::from_store_bytes(&csr.to_store_bytes()).unwrap();
        assert_eq!(back, csr);
    }

    /// `read_from` allocates each column exactly: no capacity slack, so
    /// the loaded snapshot's heap accounting equals the original's and
    /// `heap_bytes` stays an exact per-array audit across the store path.
    #[test]
    fn read_from_allocates_exact_capacity() {
        let csr = small_csr();
        let back = CsrSan::from_store_bytes(&csr.to_store_bytes()).unwrap();
        assert_eq!(back.heap_bytes(), {
            // Recompute the original's accounting from lengths: identical.
            csr.heap_bytes()
        });
        assert_eq!(back.out_off.capacity(), back.out_off.len());
        assert_eq!(back.out_dst.capacity(), back.out_dst.len());
        assert_eq!(back.in_off.capacity(), back.in_off.len());
        assert_eq!(back.in_src.capacity(), back.in_src.len());
        assert_eq!(back.ua_off.capacity(), back.ua_off.len());
        assert_eq!(back.ua_attr.capacity(), back.ua_attr.len());
        assert_eq!(back.am_off.capacity(), back.am_off.len());
        assert_eq!(back.am_user.capacity(), back.am_user.len());
        assert_eq!(back.und_off.capacity(), back.und_off.len());
        assert_eq!(back.und_nbr.capacity(), back.und_nbr.len());
        assert_eq!(back.attr_types.capacity(), back.attr_types.len());
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn id_out_of_range_is_detected() {
        // Hand-corrupt an id beyond the node count, re-seal the checksum:
        // the structural check must catch what the checksum now vouches
        // for.
        let csr = small_csr();
        let mut bytes = csr.to_store_bytes();
        // out_dst is the second array: starts at HEADER_BYTES + (n+1)*4.
        let out_dst_start = HEADER_BYTES + (csr.num_social_rows() + 1) * 4;
        bytes[out_dst_start..out_dst_start + 4].copy_from_slice(&99u32.to_le_bytes());
        let len = bytes.len();
        let seal = fnv1a64(&bytes[..len - CHECKSUM_BYTES]);
        bytes[len - CHECKSUM_BYTES..].copy_from_slice(&seal.to_le_bytes());
        let err = CsrSan::from_store_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::IdOutOfRange { array: "out_dst" }),
            "{err}"
        );
    }

    #[test]
    fn bad_attr_type_tag_is_detected() {
        let csr = small_csr();
        let mut bytes = csr.to_store_bytes();
        let len = bytes.len();
        // attr_types is the final payload array, right before the trailer.
        let tag_pos = len - CHECKSUM_BYTES - csr.attr_types.len();
        bytes[tag_pos] = 250;
        let seal = fnv1a64(&bytes[..len - CHECKSUM_BYTES]);
        bytes[len - CHECKSUM_BYTES..].copy_from_slice(&seal.to_le_bytes());
        let err = CsrSan::from_store_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::BadAttrType { value: 250 }),
            "{err}"
        );
    }

    #[test]
    fn attr_type_tags_are_stable() {
        for (tag, ty) in [
            (0u8, AttrType::School),
            (1, AttrType::Major),
            (2, AttrType::Employer),
            (3, AttrType::City),
            (4, AttrType::Other),
        ] {
            assert_eq!(attr_type_tag(ty), tag);
            assert_eq!(attr_type_from_tag(tag).unwrap(), ty);
        }
        assert!(attr_type_from_tag(5).is_err());
    }

    #[test]
    fn vault_save_load_nearest() {
        let dir = std::env::temp_dir().join(format!("san-vault-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        assert!(vault.is_empty());
        assert_eq!(vault.nearest_at_or_before(10), None);
        let csr = small_csr();
        let bytes = vault.save_day(3, &csr).unwrap();
        assert_eq!(bytes, csr.store_bytes_len());
        vault.save_day(9, &csr).unwrap();
        assert_eq!(vault.days().collect::<Vec<_>>(), vec![3, 9]);
        assert_eq!(vault.disk_bytes(), 2 * bytes);
        assert_eq!(vault.nearest_at_or_before(2), None);
        assert_eq!(vault.nearest_at_or_before(3), Some(3));
        assert_eq!(vault.nearest_at_or_before(8), Some(3));
        assert_eq!(vault.nearest_at_or_before(100), Some(9));
        assert_eq!(*vault.load_day(3).unwrap(), csr);
        assert!(matches!(
            vault.load_day(4).unwrap_err(),
            StoreError::DayNotPersisted { day: 4 }
        ));
        // Reopen: the manifest restores the same view.
        let reopened = SnapshotVault::open(&dir).unwrap();
        assert_eq!(reopened.days().collect::<Vec<_>>(), vec![3, 9]);
        assert_eq!(reopened.disk_bytes(), vault.disk_bytes());
        assert_eq!(*reopened.load_day(9).unwrap(), csr);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn vault_open_missing_and_bad_manifest() {
        let dir = std::env::temp_dir().join(format!("san-vault-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(matches!(
            SnapshotVault::open(&dir).unwrap_err(),
            StoreError::Io(_)
        ));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST), "not a vault\n").unwrap();
        assert!(matches!(
            SnapshotVault::open(&dir).unwrap_err(),
            StoreError::BadManifest { line: 1, .. }
        ));
        fs::write(dir.join(MANIFEST), format!("{MANIFEST_HEADER}\nday x 7\n")).unwrap();
        assert!(matches!(
            SnapshotVault::open(&dir).unwrap_err(),
            StoreError::BadManifest { line: 2, .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_timeline_persists_sampled_grid() {
        let mut tb = TimelineBuilder::new();
        let mut prev = tb.add_social_node();
        for day in 1..=10u32 {
            tb.advance_to_day(day);
            let u = tb.add_social_node();
            tb.add_social_link(u, prev);
            prev = u;
        }
        let (tl, _) = tb.finish();
        let dir = std::env::temp_dir().join(format!("san-vault-tl-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        let saved = vault.save_timeline(&tl, 4).unwrap();
        assert_eq!(saved, vec![0, 4, 8, 10]);
        for day in saved {
            assert_eq!(*vault.load_day(day).unwrap(), tl.snapshot_csr(day));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Metered IO on the eager vault paths: every save/load/map feeds the
    /// byte counters and latency histograms surfaced by
    /// [`SnapshotVault::metrics`], and the written-byte total matches
    /// [`SnapshotVault::disk_bytes`] exactly when nothing is overwritten.
    #[test]
    fn vault_metrics_meter_saves_loads_and_maps() {
        let dir = std::env::temp_dir().join(format!("san-vault-meter-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        assert_eq!(vault.metrics().writes(), 0);
        assert_eq!(vault.metrics().reads(), 0);
        let csr = small_csr();
        let bytes = vault.save_day(2, &csr).unwrap();
        vault.save_day(6, &csr).unwrap();
        assert_eq!(vault.metrics().writes(), 2);
        assert_eq!(vault.metrics().written_bytes(), 2 * bytes);
        assert_eq!(vault.metrics().written_bytes(), vault.disk_bytes());
        assert_eq!(vault.metrics().write_latency().count(), 2);
        // Eager loads meter the read side.
        vault.load_day(2).unwrap();
        vault.load_day(6).unwrap();
        vault.load_day(6).unwrap();
        assert_eq!(vault.metrics().reads(), 3);
        assert_eq!(vault.metrics().read_bytes(), 3 * bytes);
        assert_eq!(vault.metrics().read_latency().count(), 3);
        // Mapped opens meter the same read counters.
        #[cfg(unix)]
        {
            let mapped = vault.map_day(2).unwrap();
            assert_eq!(mapped.mapped_bytes() as u64, bytes);
            assert_eq!(vault.metrics().reads(), 4);
            assert_eq!(vault.metrics().read_bytes(), 4 * bytes);
        }
        // A failed load (unpersisted day) meters nothing.
        assert!(vault.load_day(5).is_err());
        assert_eq!(vault.metrics().reads(), if cfg!(unix) { 4 } else { 3 });
        let _ = fs::remove_dir_all(&dir);
    }

    /// A 7-day growing timeline: one new user + reciprocal links per day,
    /// plus attribute churn — enough structure that every delta list is
    /// non-trivial.
    fn grown_timeline() -> crate::evolve::SanTimeline {
        let mut tb = TimelineBuilder::new();
        let mut users = vec![tb.add_social_node()];
        let a0 = tb.add_attr_node(AttrType::School);
        tb.add_attr_link(users[0], a0);
        for day in 1..=6u32 {
            tb.advance_to_day(day);
            let u = tb.add_social_node();
            let prev = users[day as usize - 1];
            tb.add_social_link(u, prev);
            tb.add_social_link(prev, u);
            if day % 2 == 0 {
                let a = tb.add_attr_node(AttrType::City);
                tb.add_attr_link(u, a);
            } else {
                tb.add_attr_link(u, a0);
            }
            users.push(u);
        }
        tb.finish().0
    }

    #[test]
    fn vault_v2_full_and_delta_days_roundtrip() {
        let tl = grown_timeline();
        let snaps: Vec<CsrSan> = (0..=6).map(|d| tl.snapshot_csr(d)).collect();
        let dir = std::env::temp_dir().join(format!("san-vault-v2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        vault.save_day_v2(0, &snaps[0]).unwrap();
        assert_eq!(vault.day_format(0), Some(DayFormat::V2Full));
        for day in 1..=3u32 {
            vault
                .save_day_delta(day, day - 1, &snaps[day as usize - 1], &snaps[day as usize])
                .unwrap();
            assert_eq!(
                vault.day_format(day),
                Some(DayFormat::V2Delta { base: day - 1 })
            );
        }
        // Every persisted day reconstructs exactly, full or chained.
        for day in 0..=3u32 {
            assert_eq!(*vault.load_day(day).unwrap(), snaps[day as usize]);
        }
        // Chain metering recorded the reconstructions.
        assert_eq!(vault.metrics().delta_chain_loads(), 3);
        assert_eq!(vault.metrics().max_chain_len(), 3);
        assert_eq!(vault.metrics().delta_links_applied(), 1 + 2 + 3);
        // A delta day maps too: served from an owned decoded image.
        #[cfg(unix)]
        {
            let mapped = vault.map_day(3).unwrap();
            assert_eq!(mapped.view().to_owned_csr(), snaps[3]);
            assert_eq!(mapped.mapped_bytes() as u64, snaps[3].store_bytes_len());
        }
        // The deltas must be cheaper on disk than re-persisting fulls.
        let full_bytes: u64 = snaps[1..=3].iter().map(|s| s.store_bytes_len()).sum();
        assert!(vault.disk_bytes() < full_bytes);
        // Reopen: the mixed-format manifest restores formats and chains.
        let reopened = SnapshotVault::open(&dir).unwrap();
        assert_eq!(reopened.day_format(3), Some(DayFormat::V2Delta { base: 2 }));
        assert_eq!(*reopened.load_day(3).unwrap(), snaps[3]);
        assert_eq!(reopened.nearest_at_or_before(5), Some(3));
        // resume_from_vault warm-starts straight off a delta day.
        let (persisted, mut freezer) = crate::DeltaFreezer::resume_from_vault(&reopened, 5)
            .unwrap()
            .expect("vault has days at or before 5");
        assert_eq!(persisted, 3);
        assert_eq!(*freezer.snapshot(), snaps[3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_day_delta_guards() {
        let tl = grown_timeline();
        let snaps: Vec<CsrSan> = (0..=2).map(|d| tl.snapshot_csr(d)).collect();
        let dir = std::env::temp_dir().join(format!("san-vault-guard-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        // The base must already be persisted…
        assert!(matches!(
            vault
                .save_day_delta(1, 0, &snaps[0], &snaps[1])
                .unwrap_err(),
            StoreError::DayNotPersisted { day: 0 }
        ));
        vault.save_day_v2(0, &snaps[0]).unwrap();
        // …and must strictly precede the delta day.
        assert!(matches!(
            vault
                .save_day_delta(0, 0, &snaps[0], &snaps[0])
                .unwrap_err(),
            StoreError::BadManifest { .. }
        ));
        // Chains are bounded at persist time: MAX_DELTA_CHAIN deltas fit,
        // one more is refused (empty deltas keep the content trivial).
        for d in 1..=MAX_DELTA_CHAIN as u32 {
            vault
                .save_day_delta(d, d - 1, &snaps[0], &snaps[0])
                .unwrap();
        }
        let over = MAX_DELTA_CHAIN as u32 + 1;
        assert!(matches!(
            vault
                .save_day_delta(over, over - 1, &snaps[0], &snaps[0])
                .unwrap_err(),
            StoreError::BadManifest { .. }
        ));
        // The longest admitted chain still reconstructs.
        assert_eq!(*vault.load_day(MAX_DELTA_CHAIN as u32).unwrap(), snaps[0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_delta_chains_surface_bad_manifest() {
        let tl = grown_timeline();
        let snaps: Vec<CsrSan> = (0..=2).map(|d| tl.snapshot_csr(d)).collect();
        let dir = std::env::temp_dir().join(format!("san-vault-chain-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        vault.save_day_v2(0, &snaps[0]).unwrap();
        vault.save_day_delta(1, 0, &snaps[0], &snaps[1]).unwrap();
        vault.save_day_delta(2, 1, &snaps[1], &snaps[2]).unwrap();
        assert_eq!(*vault.load_day(2).unwrap(), snaps[2]);
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();

        // A base that never precedes its day is rejected at parse.
        fs::write(dir.join(MANIFEST), manifest.replace("delta 1", "delta 2")).unwrap();
        assert!(matches!(
            SnapshotVault::open(&dir).unwrap_err(),
            StoreError::BadManifest { line: 4, .. }
        ));

        // A base day the manifest never lists is rejected on the second
        // pass, naming the offending line.
        fs::write(dir.join(MANIFEST), manifest.replace("delta 1", "delta 5")).unwrap();
        let err = SnapshotVault::open(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::BadManifest { line: 4, .. }),
            "{err}"
        );

        // A manifest whose chain disagrees with the file's own base
        // pointer opens (both days exist) but fails typed at load.
        fs::write(dir.join(MANIFEST), manifest.replace("delta 1", "delta 0")).unwrap();
        let twisted = SnapshotVault::open(&dir).unwrap();
        let err = twisted.load_day(2).unwrap_err();
        assert!(matches!(err, StoreError::BadManifest { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Hand-built daily event lists: day 0 seeds two users, one attribute
    /// and a link; each later day adds a user, reciprocal links and an
    /// attribute declaration.
    fn event_days(num_days: u32) -> Vec<Vec<crate::SanEvent>> {
        use crate::SanEvent::{AttrLink, AttrNode, SocialLink, SocialNode};
        let mut days = vec![vec![
            SocialNode { day: 0 },
            SocialNode { day: 0 },
            AttrNode {
                day: 0,
                ty: AttrType::School,
            },
            SocialLink {
                day: 0,
                src: SocialId(0),
                dst: SocialId(1),
            },
            AttrLink {
                day: 0,
                user: SocialId(0),
                attr: AttrId(0),
            },
        ]];
        for day in 1..num_days {
            let new = day + 1; // users 0 and 1 arrived on day 0
            days.push(vec![
                SocialNode { day },
                SocialLink {
                    day,
                    src: SocialId(new),
                    dst: SocialId(new - 1),
                },
                SocialLink {
                    day,
                    src: SocialId(new - 1),
                    dst: SocialId(new),
                },
                AttrLink {
                    day,
                    user: SocialId(new),
                    attr: AttrId(0),
                },
            ]);
        }
        days
    }

    #[test]
    fn streaming_vault_writer_persists_grid_with_bounded_chains() {
        let days = event_days(11); // days 0..=10
                                   // Reference replay: the expected snapshot at each grid day.
        let mut reference = crate::DeltaFreezer::new();
        let mut expected = Vec::new();
        for (day, events) in days.iter().enumerate() {
            reference.apply_day(events);
            if day % 2 == 0 {
                expected.push((day as u32, reference.snapshot()));
            }
        }
        let v1_equiv: u64 = expected.iter().map(|(_, s)| s.store_bytes_len()).sum();
        let dir = std::env::temp_dir().join(format!("san-vault-stream-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        {
            let mut writer = StreamingVaultWriter::new(&mut vault, 2, 3);
            for events in &days {
                writer.apply_day(events).unwrap();
            }
            assert_eq!(writer.days_applied(), 11);
            // Grid day 10 is still with the worker here, and counts.
            assert_eq!(writer.v1_equivalent_bytes(), v1_equiv);
            let saved = writer.finish().unwrap();
            assert_eq!(saved, vec![0, 2, 4, 6, 8, 10]);
        }
        // full_every = 3 ⇒ the persist pattern is F D D F D D on the grid.
        assert_eq!(vault.day_format(0), Some(DayFormat::V2Full));
        assert_eq!(vault.day_format(2), Some(DayFormat::V2Delta { base: 0 }));
        assert_eq!(vault.day_format(4), Some(DayFormat::V2Delta { base: 2 }));
        assert_eq!(vault.day_format(6), Some(DayFormat::V2Full));
        assert_eq!(vault.day_format(8), Some(DayFormat::V2Delta { base: 6 }));
        assert_eq!(vault.day_format(10), Some(DayFormat::V2Delta { base: 8 }));
        // Every persisted day matches an independent event replay.
        for (day, snap) in &expected {
            assert_eq!(*vault.load_day(*day).unwrap(), **snap, "day {day}");
        }
        // The whole v2 vault undercuts the v1-equivalent footprint.
        assert!(
            vault.disk_bytes() < v1_equiv,
            "v2 vault {} vs v1-equivalent {}",
            vault.disk_bytes(),
            v1_equiv
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_meters_one_commit_per_persisted_day() {
        let dir = std::env::temp_dir().join(format!("san-vault-wmeter-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();
        let saved = {
            let mut writer = StreamingVaultWriter::new(&mut vault, 3, 2);
            for events in &event_days(11) {
                writer.apply_day(events).unwrap();
            }
            writer.finish().unwrap()
        };
        assert_eq!(saved, vec![0, 3, 6, 9, 10]);
        let m = vault.metrics();
        assert_eq!(m.writes(), saved.len() as u64);
        assert_eq!(m.write_latency().count(), saved.len() as u64);
        assert_eq!(m.written_bytes(), vault.disk_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_errors_surface_as_io() {
        // A writer that always fails must come back as StoreError::Io.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = small_csr().write_to(&mut Broken).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
    }
}
