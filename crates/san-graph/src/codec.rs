//! Column codecs for the SANCSRBF v2 snapshot format: frame-of-reference
//! blocks with zigzag + LEB128-varint deltas over `u32` sequences.
//!
//! Every CSR column the v1 format stores as raw little-endian `u32`s is
//! either an offset table (non-decreasing, small consecutive gaps) or a
//! sorted-per-row id list (small deltas within a row, one negative jump at
//! each row boundary). Both compress the same way: the stream is cut into
//! [`BLOCK`]-value blocks; the first value of each block is written as a
//! plain varint (the *frame*, an absolute restart point), and every later
//! value as the zigzag-encoded varint of its difference from the previous
//! value. Restarts every [`BLOCK`] values bound how much a decoder must
//! process sequentially, which is what lets the mmap path decode one
//! column at a time into an owned buffer without O(file) scratch.
//!
//! The decoder trusts nothing: truncated or overlong varints, frames or
//! deltas outside `u32` range, and streams whose length disagrees with the
//! declared value count are all rejected as typed
//! [`StoreError::BadCodec`] — never a panic, never a wrong value. Byte
//! access goes through `get`-style bounds checks only; there is no direct
//! untrusted indexing in this module.

use crate::store::StoreError;

/// Values per frame-of-reference block. The first value of every block is
/// an absolute varint restart; the remaining `BLOCK - 1` are deltas.
pub const BLOCK: usize = 1024;

/// Varints longer than this many bytes cannot occur in a valid stream:
/// frames are `u32` (≤ 5 × 7 = 35 bits) and zigzag deltas between `u32`s
/// fit 33 bits + sign (≤ 34 bits). A sixth continuation byte is corruption.
const MAX_VARINT_BYTES: usize = 5;

/// Largest value a [`MAX_VARINT_BYTES`]-byte varint may carry: 35 bits.
const MAX_VARINT_VALUE: u64 = (1 << 35) - 1;

/// Upper bound on the encoded size of `count` values (every varint at its
/// `MAX_VARINT_BYTES` worst case), or `None` on overflow. Header
/// validation uses this to reject absurd declared byte lengths before any
/// allocation.
pub fn max_encoded_len(count: u64) -> Option<u64> {
    count.checked_mul(MAX_VARINT_BYTES as u64)
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends the codec stream for `values` to `out`. The encoding of a
/// sequence is a pure function of the sequence — no headers, no padding —
/// so callers record `(count, byte_len)` alongside the stream.
pub fn encode_u32s(values: &[u32], out: &mut Vec<u8>) {
    encode_u32s_by(values, |v| v, out);
}

/// [`encode_u32s`] over any element type with a `u32` wire form (typed
/// newtype id columns encode without staging an intermediate `Vec<u32>`).
pub fn encode_u32s_by<T: Copy>(values: &[T], as_u32: impl Fn(T) -> u32, out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for (i, &v) in values.iter().enumerate() {
        let v = as_u32(v);
        if i % BLOCK == 0 {
            put_varint(u64::from(v), out);
        } else {
            put_varint(zigzag(i64::from(v) - i64::from(prev)), out);
        }
        prev = v;
    }
}

/// One bounds-checked varint starting at `pos`; returns the value and the
/// position after it. Truncation and overlength are typed, never panics.
#[inline]
fn read_varint(
    bytes: &[u8],
    mut pos: usize,
    array: &'static str,
) -> Result<(u64, usize), StoreError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for _ in 0..MAX_VARINT_BYTES {
        let Some(&b) = bytes.get(pos) else {
            return Err(StoreError::BadCodec {
                array,
                reason: "truncated varint",
            });
        };
        pos += 1;
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok((value, pos));
        }
        shift += 7;
    }
    Err(StoreError::BadCodec {
        array,
        reason: "overlong varint",
    })
}

/// Decodes exactly `count` values from `bytes`, handing each `(index,
/// value)` to `emit`. The whole stream must be consumed: trailing bytes
/// are corruption, as is running dry early. `array` names the column in
/// the typed error.
pub fn decode_u32s_with(
    bytes: &[u8],
    count: usize,
    array: &'static str,
    mut emit: impl FnMut(usize, u32),
) -> Result<(), StoreError> {
    let mut pos = 0usize;
    let mut prev = 0i64;
    for i in 0..count {
        let (raw, next) = read_varint(bytes, pos, array)?;
        pos = next;
        let value = if i % BLOCK == 0 {
            if raw > u64::from(u32::MAX) {
                return Err(StoreError::BadCodec {
                    array,
                    reason: "frame out of u32 range",
                });
            }
            raw as i64
        } else {
            if raw > MAX_VARINT_VALUE {
                return Err(StoreError::BadCodec {
                    array,
                    reason: "delta magnitude out of range",
                });
            }
            let v = prev + unzigzag(raw);
            if v < 0 || v > i64::from(u32::MAX) {
                return Err(StoreError::BadCodec {
                    array,
                    reason: "delta leaves u32 range",
                });
            }
            v
        };
        prev = value;
        emit(i, value as u32);
    }
    if pos != bytes.len() {
        return Err(StoreError::BadCodec {
            array,
            reason: "trailing bytes after last value",
        });
    }
    Ok(())
}

/// Decodes exactly `count` values into a fresh `Vec<u32>`.
pub fn decode_u32s(
    bytes: &[u8],
    count: usize,
    array: &'static str,
) -> Result<Vec<u32>, StoreError> {
    let mut out = vec![0u32; count];
    decode_u32s_with(bytes, count, array, |i, v| out[i] = v)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) -> Vec<u8> {
        let mut enc = Vec::new();
        encode_u32s(values, &mut enc);
        let back = decode_u32s(&enc, values.len(), "test").expect("decode");
        assert_eq!(back, values);
        enc
    }

    #[test]
    fn roundtrips_edge_sequences() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[u32::MAX]);
        roundtrip(&[0, u32::MAX, 0, u32::MAX]);
        roundtrip(&(0..5000u32).collect::<Vec<_>>());
        let sawtooth: Vec<u32> = (0..4096u32)
            .map(|i| if i % 2 == 0 { i } else { u32::MAX - i })
            .collect();
        roundtrip(&sawtooth);
    }

    #[test]
    fn monotone_offsets_compress_well() {
        // A typical offset table: ~8 links/row. One byte per delta plus a
        // handful of restart frames — far under the 4 raw bytes.
        let offs: Vec<u32> = (0..100_000u32).map(|i| i * 8).collect();
        let enc = roundtrip(&offs);
        assert!(
            enc.len() * 3 < offs.len() * 4,
            "expected ≥ 3× over raw, got {} vs {}",
            enc.len(),
            offs.len() * 4
        );
    }

    #[test]
    fn block_restarts_are_absolute() {
        // Constant high values: every block restart re-encodes the
        // absolute value; deltas between equal values are single zeros.
        let vals = vec![u32::MAX - 7; BLOCK * 3 + 5];
        let enc = roundtrip(&vals);
        assert!(enc.len() < vals.len() * 2);
    }

    #[test]
    fn truncation_is_typed() {
        let mut enc = Vec::new();
        encode_u32s(&[300, 301, 299], &mut enc);
        for cut in 0..enc.len() {
            let err = decode_u32s(&enc[..cut], 3, "col").expect_err("truncated");
            assert!(
                matches!(err, StoreError::BadCodec { array: "col", .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn overlong_varint_is_typed() {
        let err = decode_u32s(&[0x80; 6], 1, "col").expect_err("overlong");
        assert!(matches!(
            err,
            StoreError::BadCodec {
                reason: "overlong varint",
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_frame_is_typed() {
        // 2^33 as a frame value: a valid varint, not a valid u32.
        let mut enc = Vec::new();
        put_varint(1 << 33, &mut enc);
        let err = decode_u32s(&enc, 1, "col").expect_err("huge frame");
        assert!(matches!(
            err,
            StoreError::BadCodec {
                reason: "frame out of u32 range",
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_delta_is_typed() {
        // Frame 0 followed by delta -1: would decode to -1.
        let mut enc = Vec::new();
        put_varint(0, &mut enc);
        put_varint(zigzag(-1), &mut enc);
        let err = decode_u32s(&enc, 2, "col").expect_err("negative value");
        assert!(matches!(
            err,
            StoreError::BadCodec {
                reason: "delta leaves u32 range",
                ..
            }
        ));
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut enc = Vec::new();
        encode_u32s(&[1, 2, 3], &mut enc);
        enc.push(0x00);
        let err = decode_u32s(&enc, 3, "col").expect_err("trailing");
        assert!(matches!(
            err,
            StoreError::BadCodec {
                reason: "trailing bytes after last value",
                ..
            }
        ));
    }

    #[test]
    fn zigzag_is_involutive_at_extremes() {
        for v in [0i64, -1, 1, i64::from(u32::MAX), -i64::from(u32::MAX)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
