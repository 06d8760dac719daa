//! Corruption matrix for the columnar snapshot store: every way a
//! snapshot file can be damaged must come back as the **specific typed
//! [`StoreError`] variant** — never a panic, never a silently wrong
//! graph. The matrix truncates the stream at (and inside) every
//! header/array boundary, flips magic/version/checksum bytes, and
//! hand-corrupts structure behind a re-sealed checksum to isolate the
//! structural validators from the checksum.
//!
//! v1 bytes have one validator, [`CsrSanView::new`], and **two read
//! paths** over it: in memory and [`MappedSnapshot::open`] over an actual
//! file. Every crafted case is driven through both, and in memory through
//! both entry points — the eager [`CsrSan::from_store_bytes`] (which
//! checks magic and version itself and copies a misaligned buffer before
//! validating) and the zero-copy view. Each must reject with a typed
//! error (the same variant family; never UB, never a panic on any path).
//!
//! The second half of the file repeats the exercise for the SANCSRBF v2
//! format: truncation at every compressed-column boundary, corrupt codec
//! headers and streams (behind re-sealed trailers), declared byte lengths
//! outside the codec's possible range, unknown kind bytes, and standalone
//! delta files (`DeltaWithoutBase`). v2 full days have one decoder, the
//! eager loader behind [`CsrSan::from_store_bytes`]; every v2 case is
//! driven through it in memory and through [`MappedSnapshot::open`] over
//! a file, which serves v2 days from what that loader returns.

#[cfg(all(unix, not(miri)))]
use san_graph::mmap::MappedSnapshot;
use san_graph::store::{
    self, SnapshotVault, StoreError, CHECKSUM_BYTES, HEADER_BYTES, MAGIC, NUM_ARRAYS,
    V2_DELTA_HEADER_BYTES, V2_FULL_HEADER_BYTES,
};
use san_graph::view::{AlignedBytes, CsrSanView};
use san_graph::{AttrId, AttrType, CsrSan, SocialId, TimelineBuilder};

/// A snapshot with non-trivial content in every column.
fn sample_csr() -> CsrSan {
    let mut tb = TimelineBuilder::new();
    let u0 = tb.add_social_node();
    let u1 = tb.add_social_node();
    let u2 = tb.add_social_node();
    let u3 = tb.add_social_node();
    let a0 = tb.add_attr_node(AttrType::School);
    let a1 = tb.add_attr_node(AttrType::Employer);
    tb.add_social_link(u0, u1);
    tb.add_social_link(u1, u0);
    tb.add_social_link(u2, u0);
    tb.add_social_link(u3, u2);
    tb.add_attr_link(u0, a0);
    tb.add_attr_link(u1, a0);
    tb.add_attr_link(u2, a1);
    tb.finish().1.freeze()
}

/// Parses the 11 array descriptors straight from the documented header
/// layout: `(byte_offset, element_count)` per array, starting at byte 28.
fn descriptors(bytes: &[u8]) -> Vec<(u64, u64)> {
    (0..NUM_ARRAYS)
        .map(|i| {
            let at = 28 + i * 16;
            let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let count = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            (off, count)
        })
        .collect()
}

/// Recomputes and overwrites the trailing checksum so structural
/// corruption can be tested in isolation from [`StoreError::BadChecksum`].
fn reseal(bytes: &mut [u8]) {
    let len = bytes.len();
    let sum = store::fnv1a64(&bytes[..len - CHECKSUM_BYTES]);
    bytes[len - CHECKSUM_BYTES..].copy_from_slice(&sum.to_le_bytes());
}

fn read(bytes: &[u8]) -> Result<CsrSan, StoreError> {
    CsrSan::from_store_bytes(bytes)
}

/// Rejection through the zero-copy in-memory view path.
fn view_err(bytes: &[u8], ctx: &str) -> StoreError {
    let aligned = AlignedBytes::from_bytes(bytes);
    match CsrSanView::new(&aligned) {
        Ok(_) => panic!("{ctx}: view path must reject corrupt bytes"),
        Err(e) => e,
    }
}

/// Rejection through the mmap path: the bytes land in a real file which
/// [`MappedSnapshot::open`] must refuse to serve. Gated off under Miri:
/// the interpreter cannot call the foreign `mmap(2)`; the eager + view
/// legs of `reject_all` still cover every corruption under it.
#[cfg(all(unix, not(miri)))]
fn mapped_err(bytes: &[u8], ctx: &str) -> StoreError {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let path = std::env::temp_dir().join(format!(
        "san-corrupt-{}-{}.csr",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write corrupt snapshot");
    let result = MappedSnapshot::open(&path);
    let _ = std::fs::remove_file(&path);
    match result {
        Ok(_) => panic!("{ctx}: mmap path must reject corrupt bytes"),
        Err(e) => e,
    }
}

/// The same corrupt bytes rejected by every read path (eager + view
/// everywhere, mmap on unix); each caller asserts the variant family on
/// every returned error.
fn reject_all(bytes: &[u8], ctx: &str) -> Vec<StoreError> {
    let mut errors = vec![
        match read(bytes) {
            Ok(_) => panic!("{ctx}: eager path must reject corrupt bytes"),
            Err(e) => e,
        },
        view_err(bytes, ctx),
    ];
    #[cfg(all(unix, not(miri)))]
    errors.push(mapped_err(bytes, ctx));
    errors
}

/// Truncating at every header/array boundary — and one byte inside each
/// section — always yields `Truncated` on every path, never a panic.
#[test]
fn truncation_at_every_boundary() {
    let csr = sample_csr();
    let bytes = csr.to_store_bytes();
    // Section boundaries: header end, each array's end, checksum start.
    let mut cuts: Vec<usize> = vec![0, 1, HEADER_BYTES - 1, HEADER_BYTES];
    let elem_bytes = |i: usize| if i == NUM_ARRAYS - 1 { 1 } else { 4 };
    for (i, (off, count)) in descriptors(&bytes).into_iter().enumerate() {
        let end = off as usize + count as usize * elem_bytes(i);
        cuts.push(end);
        if count > 0 {
            cuts.push(end - 1); // mid-array
        }
    }
    cuts.push(bytes.len() - 1); // inside the checksum trailer
    for cut in cuts {
        assert!(cut < bytes.len(), "cut {cut} inside file");
        for err in reject_all(&bytes[..cut], &format!("cut {cut}")) {
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut at {cut}: expected Truncated, got {err}"
            );
        }
    }
    // The untruncated stream still reads fine on every path (the matrix
    // itself is not poisoning anything).
    assert_eq!(read(&bytes).expect("full stream"), csr);
    let aligned = AlignedBytes::from_bytes(&bytes);
    assert_eq!(
        CsrSanView::new(&aligned).expect("full view").to_owned_csr(),
        csr
    );
}

/// Flipping any magic byte is `BadMagic`, reported with what was found.
#[test]
fn flipped_magic_byte() {
    let bytes = sample_csr().to_store_bytes();
    for i in 0..MAGIC.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xff;
        for err in reject_all(&bad, &format!("magic byte {i}")) {
            match err {
                StoreError::BadMagic { found } => {
                    assert_eq!(found[i], MAGIC[i] ^ 0xff);
                }
                other => panic!("byte {i}: expected BadMagic, got {other}"),
            }
        }
    }
}

/// An unknown version — higher, lower (0), or bit-flipped — is
/// `UnsupportedVersion` with the version that was found.
#[test]
fn unsupported_version() {
    let bytes = sample_csr().to_store_bytes();
    // Version 2 is a real format now, so "one past the current" means one
    // past the whole supported set.
    for version in [0u32, store::FORMAT_VERSION_V2 + 1, 0xdead_beef] {
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&version.to_le_bytes());
        for err in reject_all(&bad, &format!("version {version}")) {
            match err {
                StoreError::UnsupportedVersion { found } => assert_eq!(found, version),
                other => panic!("version {version}: expected UnsupportedVersion, got {other}"),
            }
        }
    }
}

/// Flipping any checksum trailer byte is `BadChecksum`.
#[test]
fn flipped_checksum_byte() {
    let bytes = sample_csr().to_store_bytes();
    let len = bytes.len();
    for i in (len - CHECKSUM_BYTES)..len {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        for err in reject_all(&bad, &format!("trailer byte {i}")) {
            assert!(
                matches!(err, StoreError::BadChecksum { .. }),
                "trailer byte {i}: expected BadChecksum, got {err}"
            );
        }
    }
}

/// Flipping a payload byte without re-sealing is caught by the checksum —
/// the random-corruption case.
#[test]
fn flipped_payload_byte_fails_checksum() {
    let csr = sample_csr();
    let bytes = csr.to_store_bytes();
    let descs = descriptors(&bytes);
    // One probe inside every non-empty payload array.
    for (i, (off, count)) in descs.iter().copied().enumerate() {
        if count == 0 {
            continue;
        }
        let mut bad = bytes.clone();
        bad[off as usize] ^= 0x80;
        for err in reject_all(&bad, &format!("payload array {i}")) {
            assert!(
                matches!(
                    err,
                    StoreError::BadChecksum { .. } | StoreError::NonMonotoneOffsets { .. }
                ),
                "array {i}: expected BadChecksum/NonMonotoneOffsets, got {err}"
            );
        }
    }
}

/// A descriptor whose byte offset does not tile the payload region is
/// `OffsetMismatch` — even with a valid checksum.
#[test]
fn descriptor_offset_mismatch() {
    let bytes = sample_csr().to_store_bytes();
    for array in [0usize, 5, NUM_ARRAYS - 1] {
        let mut bad = bytes.clone();
        let at = 28 + array * 16;
        let off = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap());
        bad[at..at + 8].copy_from_slice(&(off + 4).to_le_bytes());
        reseal(&mut bad);
        for err in reject_all(&bad, &format!("descriptor {array}")) {
            assert!(
                matches!(err, StoreError::OffsetMismatch { .. }),
                "array {array}: expected OffsetMismatch, got {err}"
            );
        }
    }
}

/// Offset tables that must share the row count (out/in/ua/und) disagreeing
/// is `CountMismatch`; so are payload counts disagreeing with the header
/// link counters.
#[test]
fn count_mismatches() {
    let bytes = sample_csr().to_store_bytes();

    // in_off (descriptor 2) claims one more row than out_off. Later
    // descriptors keep their (now inconsistent) offsets, so either the
    // row-count check or the tiling check may fire first — both are typed
    // count/offset errors; assert the specific one the reader reports.
    let mut bad = bytes.clone();
    let at = 28 + 2 * 16 + 8;
    let count = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap());
    bad[at..at + 8].copy_from_slice(&(count + 1).to_le_bytes());
    reseal(&mut bad);
    for err in reject_all(&bad, "row-count mismatch") {
        assert!(
            matches!(
                err,
                StoreError::CountMismatch { .. } | StoreError::OffsetMismatch { .. }
            ),
            "expected CountMismatch/OffsetMismatch, got {err}"
        );
    }

    // Header social-link counter disagreeing with the out_dst count.
    let mut bad = bytes.clone();
    let links = u64::from_le_bytes(bad[12..20].try_into().unwrap());
    bad[12..20].copy_from_slice(&(links + 1).to_le_bytes());
    reseal(&mut bad);
    for err in reject_all(&bad, "link-counter mismatch") {
        assert!(
            matches!(err, StoreError::CountMismatch { .. }),
            "expected CountMismatch, got {err}"
        );
    }
}

/// A CSR offset table that decreases mid-way — behind a valid checksum —
/// is `NonMonotoneOffsets`, not a panic and not a wrong graph.
#[test]
fn non_monotone_offsets_behind_valid_checksum() {
    let csr = sample_csr();
    let bytes = csr.to_store_bytes();
    let descs = descriptors(&bytes);
    // Offset tables are arrays 0, 2, 4, 6, 8.
    for table in [0usize, 2, 4, 6, 8] {
        let (off, count) = descs[table];
        assert!(count >= 2, "offset tables have at least two entries");
        // Blow up a middle entry so the next entry is smaller.
        let mid = off as usize + (count as usize / 2) * 4;
        let mut bad = bytes.clone();
        bad[mid..mid + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bad);
        for err in reject_all(&bad, &format!("offset table {table}")) {
            assert!(
                matches!(
                    err,
                    StoreError::NonMonotoneOffsets { .. } | StoreError::CountMismatch { .. }
                ),
                "table {table}: expected NonMonotoneOffsets/CountMismatch, got {err}"
            );
        }
    }
    // The canonical case — a strictly decreasing interior entry in
    // out_off — reports NonMonotoneOffsets specifically on every path.
    let (off, count) = descs[0];
    assert!(count >= 3);
    let mid = off as usize + ((count as usize - 1) / 2).max(1) * 4;
    let mut bad = bytes.clone();
    bad[mid..mid + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bad);
    for err in reject_all(&bad, "decreasing out_off") {
        assert!(
            matches!(err, StoreError::NonMonotoneOffsets { .. }),
            "{err}"
        );
    }
}

/// An id pointing past the node count — behind a valid checksum — is
/// `IdOutOfRange`; an unknown attribute-type tag is `BadAttrType`.
#[test]
fn payload_semantics_behind_valid_checksum() {
    let csr = sample_csr();
    let bytes = csr.to_store_bytes();
    let descs = descriptors(&bytes);
    // Id arrays are 1 (out_dst), 3 (in_src), 5 (ua_attr), 7 (am_user),
    // 9 (und_nbr).
    for array in [1usize, 3, 5, 7, 9] {
        let (off, count) = descs[array];
        assert!(count > 0, "sample has content in every id array");
        let mut bad = bytes.clone();
        bad[off as usize..off as usize + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bad);
        for err in reject_all(&bad, &format!("id array {array}")) {
            assert!(
                matches!(err, StoreError::IdOutOfRange { .. }),
                "array {array}: expected IdOutOfRange, got {err}"
            );
        }
    }
    let (off, count) = descs[NUM_ARRAYS - 1];
    assert!(count > 0);
    let mut bad = bytes.clone();
    bad[off as usize] = 0xee;
    reseal(&mut bad);
    for err in reject_all(&bad, "attr tag") {
        assert!(
            matches!(err, StoreError::BadAttrType { value: 0xee }),
            "{err}"
        );
    }
}

/// A crafted header declaring an absurd element count (up to 2^61) must
/// be rejected as a typed error **before any allocation** — never a
/// capacity-overflow panic or an OOM abort (and on the view/mmap paths,
/// never an out-of-bounds slice). `und_nbr` is the hardest case: its
/// count is cross-checked against no header counter, only the per-array
/// cap and tiling.
#[test]
fn absurd_header_counts_rejected_before_allocation() {
    let bytes = sample_csr().to_store_bytes();
    for array in [9usize, 0, 10] {
        for huge in [1u64 << 61, u64::from(u32::MAX) + 1, u64::MAX / 16] {
            let mut bad = bytes.clone();
            let at = 28 + array * 16 + 8;
            bad[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            // Keep the descriptor chain self-consistent past the bumped
            // count so the cap check — not tiling — is what must fire.
            let elem = |i: usize| if i == NUM_ARRAYS - 1 { 1u64 } else { 4 };
            let descs = descriptors(&bad);
            let mut offset = descs[array].0 + huge.wrapping_mul(elem(array));
            for (later, desc) in descs.iter().enumerate().skip(array + 1) {
                let at = 28 + later * 16;
                bad[at..at + 8].copy_from_slice(&offset.to_le_bytes());
                offset = offset.wrapping_add(desc.1 * elem(later));
            }
            reseal(&mut bad);
            for err in reject_all(&bad, &format!("array {array} count {huge}")) {
                assert!(
                    matches!(err, StoreError::CountMismatch { .. }),
                    "array {array} count {huge}: expected CountMismatch, got {err}"
                );
            }
        }
    }
}

/// Empty input and random garbage: typed errors on every path, no panics.
#[test]
fn garbage_inputs_never_panic() {
    for err in reject_all(&[], "empty input") {
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    }
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    for err in reject_all(&garbage, "garbage") {
        assert!(
            matches!(
                err,
                StoreError::BadMagic { .. } | StoreError::Truncated { .. }
            ),
            "garbage: got {err}"
        );
    }
}

/// A misaligned buffer is the one failure class unique to the in-memory
/// view path: typed [`StoreError::Misaligned`], while the eager loader
/// (which copies) and the mmap path (page-aligned by construction) never
/// produce it.
#[test]
fn view_rejects_misaligned_base_only() {
    let bytes = sample_csr().to_store_bytes();
    let mut padded = vec![0u8; bytes.len() + 8];
    let base = padded.as_ptr() as usize;
    let shift = (0..4)
        .find(|s| !(base + s).is_multiple_of(4))
        .expect("misaligned offset");
    padded[shift..shift + bytes.len()].copy_from_slice(&bytes);
    let misaligned = &padded[shift..shift + bytes.len()];
    assert!(matches!(
        CsrSanView::new(misaligned).expect_err("misaligned view"),
        StoreError::Misaligned { required: 4 }
    ));
    // The eager loader is alignment-agnostic: same bytes still load.
    assert_eq!(read(misaligned).expect("eager load"), sample_csr());
}

// ---------------------------------------------------------------------------
// SANCSRBF v2: the same matrix over compressed full days and delta days.
// ---------------------------------------------------------------------------

/// [`sample_csr`] with one more day of growth layered on after the shared
/// prefix — the superset shape a real delta day records (monotone SAN
/// growth: rows only ever gain entries).
fn sample_csr_plus() -> CsrSan {
    let mut tb = TimelineBuilder::new();
    let u0 = tb.add_social_node();
    let u1 = tb.add_social_node();
    let u2 = tb.add_social_node();
    let u3 = tb.add_social_node();
    let a0 = tb.add_attr_node(AttrType::School);
    let a1 = tb.add_attr_node(AttrType::Employer);
    tb.add_social_link(u0, u1);
    tb.add_social_link(u1, u0);
    tb.add_social_link(u2, u0);
    tb.add_social_link(u3, u2);
    tb.add_attr_link(u0, a0);
    tb.add_attr_link(u1, a0);
    tb.add_attr_link(u2, a1);
    // The extra day: a new user, new links into existing rows, a new
    // attribute declaration.
    let u4 = tb.add_social_node();
    tb.add_social_link(u0, u2);
    tb.add_social_link(u4, u1);
    tb.add_attr_link(u3, a1);
    tb.finish().1.freeze()
}

/// The v2 analogue of [`reject_all`]: the eager loader and (on unix)
/// [`MappedSnapshot::open`] over a file, which routes v2 files through
/// the same loader after reading them from the handle it checked.
fn reject_all_v2(bytes: &[u8], ctx: &str) -> Vec<StoreError> {
    let mut errors = vec![match read(bytes) {
        Ok(_) => panic!("{ctx}: eager path must reject corrupt bytes"),
        Err(e) => e,
    }];
    #[cfg(all(unix, not(miri)))]
    errors.push(mapped_err(bytes, ctx));
    errors
}

/// v2 descriptor `i`: `(element_count, byte_len)`, read straight from the
/// documented header layout (descriptors start at byte 32).
fn v2_descriptor(bytes: &[u8], i: usize) -> (u64, u64) {
    let at = 32 + i * 16;
    (
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()),
        u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()),
    )
}

/// The v2 positive control, and the acceptance bar in miniature: a v2
/// full day loads to exactly the snapshot that was written, on every read
/// path, while spending fewer bytes than its v1 serialisation.
#[test]
fn v2_full_roundtrips_bit_identical_on_every_path() {
    for csr in [sample_csr(), san_graph::San::new().freeze()] {
        let v1 = csr.to_store_bytes();
        let v2 = csr.to_store_bytes_v2();
        assert!(
            v2.len() < v1.len(),
            "compressed day must beat raw: {} vs {}",
            v2.len(),
            v1.len()
        );
        assert_eq!(read(&v2).expect("eager v2 load"), csr);
        #[cfg(all(unix, not(miri)))]
        {
            use std::sync::atomic::{AtomicU32, Ordering};
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let path = std::env::temp_dir().join(format!(
                "san-v2-roundtrip-{}-{}.csr",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::write(&path, &v2).expect("write v2 snapshot");
            let mapped = MappedSnapshot::open(&path).expect("open v2 mapped");
            // The handle reports the day's v1-equivalent size.
            assert_eq!(mapped.mapped_bytes(), v1.len());
            assert_eq!(mapped.view().to_owned_csr(), csr);
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Truncating a v2 file at (and inside) every header/column/trailer
/// boundary is `Truncated` on every path, never a panic.
#[test]
fn v2_truncation_at_every_boundary() {
    let csr = sample_csr();
    let bytes = csr.to_store_bytes_v2();
    let mut cuts: Vec<usize> = vec![
        0,
        1,
        11,
        12,
        13,
        V2_FULL_HEADER_BYTES - 1,
        V2_FULL_HEADER_BYTES,
    ];
    // Column stream boundaries: the streams tile from the header end in
    // declared order.
    let mut offset = V2_FULL_HEADER_BYTES;
    for i in 0..NUM_ARRAYS {
        let (_, len) = v2_descriptor(&bytes, i);
        offset += len as usize;
        cuts.push(offset);
        if len > 0 {
            cuts.push(offset - 1);
        }
    }
    cuts.push(bytes.len() - 1); // inside the trailer
    for cut in cuts {
        assert!(cut < bytes.len(), "cut {cut} inside file");
        for err in reject_all_v2(&bytes[..cut], &format!("v2 cut {cut}")) {
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "v2 cut {cut}: expected Truncated, got {err}"
            );
        }
    }
    assert_eq!(read(&bytes).expect("full v2 stream"), csr);
}

/// Flipping any v2 trailer byte is `BadChecksum` on every path.
#[test]
fn v2_flipped_trailer_byte() {
    let bytes = sample_csr().to_store_bytes_v2();
    let len = bytes.len();
    for i in (len - CHECKSUM_BYTES)..len {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        for err in reject_all_v2(&bad, &format!("v2 trailer byte {i}")) {
            assert!(
                matches!(err, StoreError::BadChecksum { .. }),
                "v2 trailer byte {i}: expected BadChecksum, got {err}"
            );
        }
    }
}

/// An unknown kind byte — not full, not delta — is a typed codec error
/// even behind a valid trailer.
#[test]
fn v2_unknown_kind_byte() {
    let mut bad = sample_csr().to_store_bytes_v2();
    bad[12] = 9;
    reseal(&mut bad);
    for err in reject_all_v2(&bad, "v2 kind byte") {
        assert!(
            matches!(err, StoreError::BadCodec { .. }),
            "v2 kind byte: expected BadCodec, got {err}"
        );
    }
}

/// Declared column byte lengths outside the codec's possible range — more
/// than 5 bytes/value, fewer than 1 byte/value, or a tag column that is
/// not exactly 1 byte/tag — are rejected at header level, before any
/// allocation or payload access.
#[test]
fn v2_declared_byte_length_violations() {
    let bytes = sample_csr().to_store_bytes_v2();

    // A u32 column claiming more bytes than any varint stream can occupy.
    let mut bad = bytes.clone();
    let (count, _) = v2_descriptor(&bad, 1);
    let at = 32 + 16 + 8;
    bad[at..at + 8].copy_from_slice(&(count * 5 + 1).to_le_bytes());
    for err in reject_all_v2(&bad, "overlong column claim") {
        assert!(
            matches!(err, StoreError::BadCodec { .. }),
            "overlong column claim: got {err}"
        );
    }

    // A u32 column claiming fewer bytes than one varint per value.
    let mut bad = bytes.clone();
    let (count, _) = v2_descriptor(&bad, 0);
    assert!(count >= 2);
    let at = 32 + 8;
    bad[at..at + 8].copy_from_slice(&(count - 1).to_le_bytes());
    for err in reject_all_v2(&bad, "short column claim") {
        assert!(
            matches!(err, StoreError::BadCodec { .. }),
            "short column claim: got {err}"
        );
    }

    // The raw tag column must be exactly one byte per tag.
    let mut bad = bytes.clone();
    let (count, _) = v2_descriptor(&bad, NUM_ARRAYS - 1);
    let at = 32 + (NUM_ARRAYS - 1) * 16 + 8;
    bad[at..at + 8].copy_from_slice(&(count + 1).to_le_bytes());
    for err in reject_all_v2(&bad, "tag byte claim") {
        assert!(
            matches!(err, StoreError::CountMismatch { .. }),
            "tag byte claim: got {err}"
        );
    }
}

/// Corrupting a codec stream behind a re-sealed trailer — so the checksum
/// cannot be what catches it — is still a typed rejection on every path:
/// either the codec (mis-sized stream) or the downstream v1 semantic
/// validators over the decoded values.
#[test]
fn v2_corrupt_codec_stream_behind_valid_trailer() {
    let bytes = sample_csr().to_store_bytes_v2();
    let mut offset = V2_FULL_HEADER_BYTES;
    for i in 0..NUM_ARRAYS - 1 {
        let (_, len) = v2_descriptor(&bytes, i);
        if len == 0 {
            continue;
        }
        let mut bad = bytes.clone();
        // Toggle a continuation bit at the stream head: the varint grid
        // shifts and the declared byte budget no longer parses cleanly.
        bad[offset] ^= 0x80;
        reseal(&mut bad);
        for err in reject_all_v2(&bad, &format!("v2 column {i} stream")) {
            assert!(
                matches!(
                    err,
                    StoreError::BadCodec { .. }
                        | StoreError::NonMonotoneOffsets { .. }
                        | StoreError::OffsetMismatch { .. }
                        | StoreError::CountMismatch { .. }
                        | StoreError::IdOutOfRange { .. }
                        | StoreError::BadAttrType { .. }
                ),
                "v2 column {i}: got {err}"
            );
        }
        offset += len as usize;
    }
}

/// A delta day file is not a snapshot by itself: every direct read path
/// reports `DeltaWithoutBase` (naming the base day a vault would need),
/// while the owning vault reconstructs the chain fine — and a corrupted
/// delta payload surfaces typed through that chain load too.
#[test]
fn standalone_delta_file_is_delta_without_base() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "san-corrupt-vault-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let base = sample_csr();
    let next = sample_csr_plus();
    let mut vault = SnapshotVault::create(&dir).expect("create vault");
    vault.save_day_v2(0, &base).expect("save base day");
    vault
        .save_day_delta(1, 0, &base, &next)
        .expect("save delta day");
    // The vault resolves the chain…
    assert_eq!(*vault.load_day(1).expect("chain load"), next);
    // …but the raw delta file alone is rejected by every direct path.
    let delta_bytes = std::fs::read(vault.day_path(1)).expect("read delta file");
    for err in reject_all_v2(&delta_bytes, "standalone delta") {
        assert!(
            matches!(err, StoreError::DeltaWithoutBase { base_day: 0 }),
            "standalone delta: expected DeltaWithoutBase, got {err}"
        );
    }
    // A continuation-bit flip in the delta payload (trailer re-sealed)
    // must fail typed through the vault's chain loader.
    let mut bad = delta_bytes.clone();
    bad[V2_DELTA_HEADER_BYTES] ^= 0x80;
    reseal(&mut bad);
    std::fs::write(vault.day_path(1), &bad).expect("rewrite delta file");
    let err = vault.load_day(1).expect_err("corrupt delta must not load");
    assert!(
        matches!(
            err,
            StoreError::BadCodec { .. }
                | StoreError::CountMismatch { .. }
                | StoreError::IdOutOfRange { .. }
        ),
        "corrupt delta: got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one positive control: a loaded snapshot answers queries exactly
/// like the original (beyond `PartialEq`, the read path works).
#[test]
fn loaded_snapshot_answers_queries() {
    use san_graph::SanRead;
    let csr = sample_csr();
    let back = read(&csr.to_store_bytes()).expect("roundtrip");
    assert_eq!(back.num_social_nodes(), csr.num_social_nodes());
    for u in 0..csr.num_social_nodes() as u32 {
        let u = SocialId(u);
        assert_eq!(back.out_neighbors(u), csr.out_neighbors(u));
        assert_eq!(back.undirected_neighbors(u), csr.undirected_neighbors(u));
        assert_eq!(back.attrs_of(u), csr.attrs_of(u));
    }
    for a in 0..csr.num_attr_nodes() as u32 {
        assert_eq!(back.members_of(AttrId(a)), csr.members_of(AttrId(a)));
        assert_eq!(back.attr_type(AttrId(a)), csr.attr_type(AttrId(a)));
    }
}
