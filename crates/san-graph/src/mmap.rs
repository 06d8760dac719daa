//! [`MappedSnapshot`]: a read-only `mmap(2)` of a `SANCSRBF` snapshot
//! file, validated once at open and served as zero-copy
//! [`CsrSanView`]s forever after.
//!
//! This is the serving-side read path: where
//! [`SnapshotVault::load_day`](crate::store::SnapshotVault::load_day)
//! deserialises every column into owned arrays (~ms for a 1 MiB day),
//! mapping touches no payload until it is queried — open cost is one
//! `mmap` syscall plus a single validation pass (header + checksum +
//! structure), and after that a snapshot serves any number of threads or
//! processes straight from the page cache with **zero deserialisation and
//! zero per-reader memory**. The kernel shares the physical pages across
//! every process that maps the same day, which is exactly the
//! many-concurrent-readers shape of the Google+ measurement workload.
//!
//! Days that have no v1 bytes on disk — v2 full days and delta days —
//! are served from an owned [`CsrSan`] behind the same handle: the view
//! borrows the snapshot's own columns, so no v1 image is encoded for them.
//!
//! No external crates: the two syscalls are declared as `extern "C"`
//! items directly (the same vendor-shim policy the workspace applies to
//! everything the registry would normally provide).
//!
//! # Safety boundary (the module's `unsafe` contract)
//!
//! All `unsafe` in this module is confined to the `mmap`/`munmap` FFI and
//! the construction of the `&[u8]` over the mapping. The invariants:
//!
//! * **Lifetime** — the byte slice over the mapping is only ever handed
//!   out borrowed from the [`MappedSnapshot`] (`view()`), so borrows
//!   cannot outlive the mapping; `munmap` runs in `Drop`, after every
//!   borrow is gone by construction.
//! * **Alignment** — `mmap` returns page-aligned addresses (≥ 4096), far
//!   stricter than the 4-byte alignment the column views require.
//! * **Immutability** — the mapping is `PROT_READ | MAP_PRIVATE`: nothing
//!   in this process can write through it, so handing `&[u8]` out is
//!   sound and the type is `Send + Sync` (shared read-only memory).
//! * **File stability** — a `MAP_PRIVATE` read-only mapping does not see
//!   in-place writes by other processes as guaranteed-stable data, and
//!   truncating a mapped file can raise `SIGBUS` on access. The snapshot
//!   store never does either: [`SnapshotVault`](crate::store::SnapshotVault)
//!   writes a temp file and `rename(2)`s it over the old name, which
//!   replaces the directory entry while the mapped *inode* (and its
//!   pages) live on until the last mapping is dropped. Mapping files that
//!   other software mutates in place is outside the contract.
//! * **Validation** — a mapped v1 file passes the full
//!   [`CsrSanView::new`] validation (the one v1 validator, which the eager
//!   [`CsrSan::from_store_bytes`] runs too, pinned by the
//!   `store_corruption` matrix) before `open` returns, so a served view
//!   never reinterprets unvalidated bytes. An owned snapshot is valid by
//!   construction: a v2 full file goes through the eager v2 loader
//!   (checksum, tags, offsets, id ranges), and a delta day through the
//!   delta checks before its merge. Its view is built from the columns in
//!   safe code, with nothing left to re-check.

#![cfg(unix)]

use crate::csr::CsrSan;
use crate::store::{
    array_at, attr_type_tag, read_v2_full, StoreError, StoreHeader, FORMAT_VERSION_V2,
    HEADER_BYTES, MAGIC, VERSION_PREFIX_BYTES,
};
use crate::view::CsrSanView;
use std::ffi::{c_int, c_long, c_void};
use std::fmt;
use std::fs;
use std::io::{Read, Seek};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};

// Portable POSIX values for the two flags this module uses (identical on
// Linux, macOS and the BSDs, the unix targets this gate admits).
const PROT_READ: c_int = 0x1;
const MAP_PRIVATE: c_int = 0x2;

extern "C" {
    // `offset` is declared `c_long` to match the platform `off_t` on the
    // targets this module admits (Linux 32/64-bit without LFS remapping,
    // 64-bit macOS/BSD) — a fixed i64 would garble the 32-bit C ABI.
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// What a [`MappedSnapshot`] serves its views from.
///
/// v1 files are served straight from the page cache (`Mapped`). v2 full
/// days and delta days have no v1-layout bytes on disk, so they are held
/// as the owned snapshot they were loaded or built into (`Owned`) and
/// viewed through its own columns. Either way, after construction the
/// snapshot is immutable and every accessor is O(1).
enum Backing {
    /// A live `PROT_READ | MAP_PRIVATE` mapping (unmapped on drop) and its
    /// validated header, cached for O(1) `view()` calls.
    Mapped {
        ptr: *const u8,
        len: usize,
        header: StoreHeader,
    },
    /// An owned snapshot plus the on-disk tag of each attribute type: the
    /// one column whose in-memory form differs from the view's.
    Owned { snap: CsrSan, attr_tags: Vec<u8> },
}

impl fmt::Debug for Backing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backing::Mapped { len, .. } => f.debug_struct("Mapped").field("len", len).finish(),
            Backing::Owned { snap, .. } => f
                .debug_struct("Owned")
                .field("v1_len", &snap.store_bytes_len())
                .finish(),
        }
    }
}

/// A validated, read-only memory-mapped `SANCSRBF` snapshot file.
///
/// Open once, validate once, then [`view`](MappedSnapshot::view) is O(1)
/// and the views are plain borrowed slices over the page cache. The type
/// is `Send + Sync`; the serving layer shares it as `Arc<MappedSnapshot>`
/// so a cache hit is one atomic increment.
///
/// v2 files cannot be viewed in place (their columns are compressed), so
/// [`open`](MappedSnapshot::open) transparently loads a v2 *full* file
/// into an owned [`CsrSan`] behind the same handle — callers see an
/// identical [`CsrSanView`] either way. A standalone v2 *delta* file is
/// not self-contained and reports [`StoreError::DeltaWithoutBase`]; chain
/// resolution lives in
/// [`SnapshotVault::map_day`](crate::store::SnapshotVault::map_day) and
/// [`SnapshotVault::map_delta_onto`](crate::store::SnapshotVault::map_delta_onto).
#[derive(Debug)]
pub struct MappedSnapshot {
    backing: Backing,
    path: PathBuf,
}

// SAFETY: the mapped backing is immutable for its whole lifetime
// (PROT_READ | MAP_PRIVATE, see the module contract): concurrent reads
// from any number of threads race with nothing. The raw pointer is only a
// region handle; no interior mutability exists. The owned backing is
// plain heap memory (`Vec`s), Send + Sync by construction.
unsafe impl Send for MappedSnapshot {}
unsafe impl Sync for MappedSnapshot {}

impl MappedSnapshot {
    /// Maps `path` read-only and validates it as a `SANCSRBF` snapshot —
    /// the full [`CsrSanView::new`] matrix: header, per-column bounds,
    /// checksum, attribute tags, offset monotonicity, id ranges. Every
    /// failure (including all crafted-bytes corruption) is a typed
    /// [`StoreError`]; no code path panics on untrusted file content.
    ///
    /// A v2 *full* file is read through the handle that checked its
    /// prefix and loaded by the eager v2 loader (checksum, tags, offsets,
    /// id ranges), then served from the owned snapshot; a standalone v2
    /// *delta* file is rejected as [`StoreError::DeltaWithoutBase`].
    pub fn open(path: impl AsRef<Path>) -> Result<MappedSnapshot, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = fs::File::open(&path)?;
        let len = file.metadata()?.len();
        if len < VERSION_PREFIX_BYTES as u64 {
            // Too short to even name its format version.
            return Err(StoreError::Truncated { section: "header" });
        }
        // Peek magic + version to route v2 files to the decoding path
        // before committing to a mapping.
        let mut prefix = [0u8; VERSION_PREFIX_BYTES];
        file.read_exact(&mut prefix)?;
        if prefix[0..8] == MAGIC && u32::from_le_bytes(array_at(&prefix, 8)) == FORMAT_VERSION_V2 {
            // Same handle, so the same inode whose prefix was checked,
            // even if a vault commit renames a new file over `path`.
            file.rewind()?;
            let mut raw = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
            file.read_to_end(&mut raw)?;
            return Ok(MappedSnapshot::from_owned(read_v2_full(&raw)?, path));
        }
        if len < HEADER_BYTES as u64 {
            // Too short to even hold a header — and a zero-length mmap is
            // EINVAL, so reject before the syscall.
            return Err(StoreError::Truncated { section: "header" });
        }
        let len = usize::try_from(len).map_err(|_| StoreError::Truncated {
            section: "checksum",
        })?;
        // SAFETY: plain read-only private mapping of an open fd; the
        // result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == usize::MAX as *mut c_void {
            return Err(StoreError::Io(std::io::Error::last_os_error()));
        }
        // Unmap on every early return below; defused once validation has
        // passed and the struct (whose Drop unmaps) takes over ownership.
        struct MapGuard {
            ptr: *mut c_void,
            len: usize,
        }
        impl Drop for MapGuard {
            fn drop(&mut self) {
                // SAFETY: exact addr/len of a successful mmap, unmapped
                // exactly once (the success path forgets the guard).
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
        let guard = MapGuard { ptr, len };
        // SAFETY: ptr/len describe the live mapping the guard owns; the
        // slice does not outlive this function.
        let bytes = unsafe { std::slice::from_raw_parts(ptr.cast_const().cast::<u8>(), len) };
        // One pass does everything: header parse + full corruption-matrix
        // validation; the parsed header is cached for O(1) `view()` calls.
        let (_, header) = CsrSanView::new_with_header(bytes)?;
        std::mem::forget(guard);
        Ok(MappedSnapshot {
            backing: Backing::Mapped {
                ptr: ptr.cast_const().cast::<u8>(),
                len,
                header,
            },
            path,
        })
    }

    /// Wraps an in-memory snapshot in the `MappedSnapshot` handle without
    /// touching the filesystem: the snapshot is moved in and its views
    /// borrow its own columns. Nothing is encoded or re-validated — every
    /// [`CsrSan`] is valid when built (frozen, loaded by a validating
    /// decoder, or merged by a delta day after the delta checks). This is
    /// how a v2 full day from [`open`](MappedSnapshot::open) and both
    /// delta paths — the chain replay of
    /// [`SnapshotVault::map_day`](crate::store::SnapshotVault::map_day)
    /// and the one-merge open of
    /// [`SnapshotVault::map_delta_onto`](crate::store::SnapshotVault::map_delta_onto)
    /// — are served behind the same `Send + Sync` handle the serving layer
    /// caches for plain v1 mappings; `path` records which day file the
    /// snapshot stands in for.
    pub fn from_owned(snap: CsrSan, path: impl AsRef<Path>) -> MappedSnapshot {
        let attr_tags = snap
            .attr_types
            .iter()
            .map(|&ty| attr_type_tag(ty))
            .collect();
        MappedSnapshot {
            backing: Backing::Owned { snap, attr_tags },
            path: path.as_ref().to_path_buf(),
        }
    }

    /// A zero-copy snapshot view. O(1): a mapped file was validated once
    /// in [`open`](MappedSnapshot::open), so this only slices the
    /// already-parsed column grid; an owned snapshot lends its columns.
    #[inline]
    pub fn view(&self) -> CsrSanView<'_> {
        match &self.backing {
            Backing::Mapped { ptr, len, header } => {
                // SAFETY: ptr/len describe a live PROT_READ mapping owned
                // by `self`; the borrow ties the slice to its lifetime.
                let bytes = unsafe { std::slice::from_raw_parts(*ptr, *len) };
                CsrSanView::from_trusted(bytes, header)
            }
            Backing::Owned { snap, attr_tags } => CsrSanView::from_csr(snap, attr_tags),
        }
    }

    /// The snapshot's size in v1 layout: the on-disk file size for a
    /// mapped v1 snapshot, [`CsrSan::store_bytes_len`] for an owned (v2 or
    /// delta-built) one — the same figure either way, so cache budgets and
    /// read meters do not depend on how a day is held.
    pub fn mapped_bytes(&self) -> usize {
        match &self.backing {
            Backing::Mapped { len, .. } => *len,
            Backing::Owned { snap, .. } => snap.store_bytes_len() as usize,
        }
    }

    /// The file this snapshot was mapped (or decoded) from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for MappedSnapshot {
    fn drop(&mut self) {
        if let Backing::Mapped { ptr, len, .. } = self.backing {
            // SAFETY: ptr/len are the exact values a successful mmap
            // returned and every borrow of the mapping has ended (Drop
            // takes &mut). The owned backing frees itself.
            unsafe {
                munmap(ptr.cast_mut().cast::<c_void>(), len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::TimelineBuilder;
    use crate::ids::{AttrType, SocialId};
    use crate::read::SanRead;
    use crate::store::CHECKSUM_BYTES;
    use std::io::Write;

    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<MappedSnapshot>();

    fn sample_csr() -> crate::CsrSan {
        let mut tb = TimelineBuilder::new();
        let u0 = tb.add_social_node();
        let u1 = tb.add_social_node();
        let u2 = tb.add_social_node();
        let a0 = tb.add_attr_node(AttrType::Employer);
        tb.add_social_link(u0, u1);
        tb.add_social_link(u1, u0);
        tb.add_social_link(u2, u1);
        tb.add_attr_link(u1, a0);
        tb.finish().1.freeze()
    }

    fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "san-mmap-{tag}-{}-{}.csr",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&path).expect("create temp snapshot");
        f.write_all(bytes).expect("write temp snapshot");
        path
    }

    #[test]
    fn open_view_matches_owned() {
        let csr = sample_csr();
        let path = temp_file("roundtrip", &csr.to_store_bytes());
        let mapped = MappedSnapshot::open(&path).expect("open mapped");
        assert_eq!(mapped.mapped_bytes() as u64, csr.store_bytes_len());
        assert_eq!(mapped.path(), path.as_path());
        let view = mapped.view();
        assert_eq!(view.num_social_nodes(), csr.num_social_nodes());
        assert_eq!(view.to_owned_csr(), csr);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn from_owned_serves_the_snapshot_columns() {
        for csr in [sample_csr(), crate::CsrSan::default()] {
            let owned = MappedSnapshot::from_owned(csr.clone(), "day-0000.csr");
            assert_eq!(owned.mapped_bytes() as u64, csr.store_bytes_len());
            assert_eq!(owned.path(), Path::new("day-0000.csr"));
            assert_eq!(owned.view().to_owned_csr(), csr);
        }
    }

    #[test]
    fn mapping_is_shared_across_threads() {
        let csr = sample_csr();
        let path = temp_file("threads", &csr.to_store_bytes());
        let mapped = std::sync::Arc::new(MappedSnapshot::open(&path).expect("open"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&mapped);
                std::thread::spawn(move || {
                    let view = m.view();
                    view.social_nodes()
                        .map(|u| view.out_degree(u))
                        .sum::<usize>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("no panic"), csr.num_social_links);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = MappedSnapshot::open("/nonexistent/san-mmap-test.csr")
            .expect_err("missing file must fail");
        assert!(matches!(err, StoreError::Io(_)), "{err}");
    }

    #[test]
    fn short_and_corrupt_files_are_typed_errors() {
        let csr = sample_csr();
        let bytes = csr.to_store_bytes();

        let empty = temp_file("empty", &[]);
        assert!(matches!(
            MappedSnapshot::open(&empty).expect_err("empty"),
            StoreError::Truncated { section: "header" }
        ));
        let _ = fs::remove_file(&empty);

        let cut = temp_file("cut", &bytes[..bytes.len() - CHECKSUM_BYTES - 1]);
        assert!(matches!(
            MappedSnapshot::open(&cut).expect_err("cut"),
            StoreError::Truncated { .. }
        ));
        let _ = fs::remove_file(&cut);

        let mut flipped = bytes.clone();
        // Flip a payload byte (past the header, before the trailer) so the
        // checksum — not a header check — is what must catch it.
        let mid = HEADER_BYTES + (flipped.len() - HEADER_BYTES - CHECKSUM_BYTES) / 2;
        flipped[mid] ^= 0x40;
        let bad = temp_file("flip", &flipped);
        let err = MappedSnapshot::open(&bad).expect_err("flip");
        assert!(
            matches!(
                err,
                StoreError::BadChecksum { .. } | StoreError::NonMonotoneOffsets { .. }
            ),
            "{err}"
        );
        let _ = fs::remove_file(&bad);
    }

    #[test]
    fn rename_over_mapped_file_keeps_old_view_alive() {
        // The vault's tmp+rename overwrite must never invalidate a live
        // mapping: the old inode survives until the mapping drops.
        let csr = sample_csr();
        let path = temp_file("rename", &csr.to_store_bytes());
        let mapped = MappedSnapshot::open(&path).expect("open v1");
        let replacement = crate::San::new().freeze();
        let tmp = temp_file("rename-new", &replacement.to_store_bytes());
        fs::rename(&tmp, &path).expect("rename over mapped file");
        // Old mapping still reads the old content in full.
        assert_eq!(mapped.view().to_owned_csr(), csr);
        assert_eq!(
            mapped.view().out_neighbors(SocialId(0)),
            SanRead::out_neighbors(&csr, SocialId(0))
        );
        // A fresh open sees the replacement.
        let fresh = MappedSnapshot::open(&path).expect("open v2");
        assert_eq!(fresh.view().num_social_nodes(), 0);
        let _ = fs::remove_file(&path);
    }
}
