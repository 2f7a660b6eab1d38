//! Durable sketch snapshots: a versioned, length-prefixed,
//! little-endian binary format with a trailing FNV-1a checksum.
//!
//! Linear sketches are exactly the state worth checkpointing: restoring
//! a sketch and replaying the stream from the recorded offset is
//! bit-identical to never having stopped (Definition 1 linearity). This
//! module provides the wire format every estimator in the workspace
//! serializes through; the byte layout and compatibility policy are
//! specified in `docs/ALGORITHMS.md` ("Persistence format").
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HIXS"
//! 4       1     format version (currently 1)
//! 5       1     type tag (one per Snapshot impl; see docs/ALGORITHMS.md)
//! 6       8     payload length `L` (u64, little-endian)
//! 14      L     payload (type-specific, little-endian throughout)
//! 14+L    8     FNV-1a 64 checksum of bytes [0, 14+L) (little-endian)
//! ```
//!
//! Nested structures embed complete child frames inside the parent's
//! payload, so every sub-object is independently checksummed and
//! type-tagged. Decoding is *total*: every failure mode surfaces as a
//! typed [`SnapshotError`] — decoders never panic on hostile bytes and
//! never allocate more than the input length implies (a length prefix
//! is validated against the remaining buffer *before* any allocation).

use std::fmt;

/// The 4-byte frame magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HIXS";

/// The current (and only) format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Bytes of framing around every payload: magic (4) + version (1) +
/// tag (1) + payload length (8) + trailing checksum (8).
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 8;

/// Bytes before the payload: magic + version + tag + length prefix.
const HEADER_LEN: usize = 14;

/// FNV-1a 64-bit hash over a byte slice — the frame checksum. Kept
/// self-contained here (the sketch layer's digest helpers are gated
/// behind `debug_invariants`; persistence must work in every build).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a 64 offset basis (the state of an empty input).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a state over `bytes`.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Continues `N` independent FNV-1a states over the same bytes (a
/// slice of any other length is left as is). Each state is its own
/// multiply chain, so the chains overlap in the pipeline instead of
/// running one after another.
fn fnv1a_group<const N: usize>(lanes: &mut [u64], bytes: &[u8]) {
    let Ok(mut h) = <[u64; N]>::try_from(&*lanes) else { return };
    for &b in bytes {
        for s in &mut h {
            *s = (*s ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    lanes.copy_from_slice(&h);
}

/// Continues every state in `states` over `bytes`, in fixed-width
/// groups of up to four lanes.
fn fnv1a_lanes(states: &mut [u64], bytes: &[u8]) {
    for group in states.chunks_mut(4) {
        match group.len() {
            4 => fnv1a_group::<4>(group, bytes),
            3 => fnv1a_group::<3>(group, bytes),
            2 => fnv1a_group::<2>(group, bytes),
            _ => fnv1a_group::<1>(group, bytes),
        }
    }
}

/// Why a snapshot failed to decode. Every variant is reachable from
/// hostile bytes; none of them panics or over-allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed from the current position.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version byte is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u8),
    /// The frame carries a different type than the caller asked for.
    WrongTag {
        /// The tag of the type being decoded.
        expected: u8,
        /// The tag found in the frame header.
        found: u8,
    },
    /// The trailing FNV-1a checksum does not match the frame bytes.
    ChecksumMismatch,
    /// The payload decoded cleanly but left unread bytes behind.
    TrailingBytes {
        /// Number of payload bytes the decoder did not consume.
        unread: usize,
    },
    /// The bytes parsed but violate a semantic invariant of the type
    /// (out-of-range field element, inconsistent dimensions, …).
    Invalid(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => {
                write!(f, "snapshot truncated: needed {needed} bytes, had {available}")
            }
            SnapshotError::BadMagic => write!(f, "snapshot has bad magic (not an HIXS frame)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::WrongTag { expected, found } => {
                write!(f, "snapshot type tag mismatch: expected {expected}, found {found}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::TrailingBytes { unread } => {
                write!(f, "snapshot payload has {unread} trailing bytes")
            }
            SnapshotError::Invalid(what) => write!(f, "snapshot invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian payload writer used by [`Snapshot::write_payload`].
///
/// Nested frames ([`Writer::put_nested`]) are laid out in place with a
/// zeroed checksum trailer and recorded; [`Snapshot::write_into`] then
/// seals every recorded frame in one forward pass over the bytes.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    /// Start of every frame opened so far, in opening order (so
    /// ascending). A frame's header holds its payload length, which
    /// locates its 8-byte checksum trailer.
    frames: Vec<usize>,
}

impl<'a> Writer<'a> {
    /// Wraps a byte buffer.
    fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf, frames: Vec::new() }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i128`.
    pub fn put_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes (caller writes its own length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a complete child frame for a nested snapshotable value:
    /// header, payload and backpatched length now, the checksum when
    /// the outermost frame is sealed.
    pub fn put_nested<C: Snapshot>(&mut self, child: &C) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        self.buf.push(SNAPSHOT_VERSION);
        self.buf.push(C::TAG);
        self.buf.extend_from_slice(&[0; 8]); // length backpatched
        self.frames.push(start);
        child.write_payload(self);
        let payload_len = (self.buf.len() - start - HEADER_LEN) as u64;
        if let Some(len) = self.buf.get_mut(start + 6..start + HEADER_LEN) {
            len.copy_from_slice(&payload_len.to_le_bytes());
        }
        self.buf.extend_from_slice(&[0; 8]); // checksum sealed by `seal`
    }

    /// Writes every recorded frame's FNV-1a checksum into its trailer
    /// in one forward pass, and returns the digest of the last
    /// outermost frame (its checksum state continued over its own
    /// trailer, i.e. [`fnv1a`] over the whole frame).
    ///
    /// One state per open frame rides along the pass, so each byte is
    /// read once however deeply it is nested. A closing frame's
    /// checksum lands in its trailer before the pass moves on, so the
    /// enclosing frames hash the sealed trailer bytes.
    fn seal(self) -> u64 {
        let Writer { buf, frames } = self;
        let mut states: Vec<u64> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        let mut pos = frames.first().copied().unwrap_or(buf.len());
        let mut digest = FNV_OFFSET;
        let mut frames = frames.into_iter();
        loop {
            let opening = frames.next();
            // Close every open frame whose payload ends before the next
            // frame opens (all of them once no frame is left to open).
            let until = opening.unwrap_or(usize::MAX);
            while let Some(&end) = ends.last().filter(|&&end| end <= until) {
                fnv1a_lanes(&mut states, buf.get(pos..end).unwrap_or_default());
                pos = end;
                ends.pop();
                let checksum = states.pop().unwrap_or(FNV_OFFSET).to_le_bytes();
                if let Some(trailer) = buf.get_mut(end..end + 8) {
                    trailer.copy_from_slice(&checksum);
                }
                if ends.is_empty() {
                    digest = fnv1a_from(u64::from_le_bytes(checksum), &checksum);
                }
            }
            let Some(start) = opening else { break };
            fnv1a_lanes(&mut states, buf.get(pos..start).unwrap_or_default());
            pos = start;
            let payload_len = buf
                .get(start + 6..start + HEADER_LEN)
                .and_then(|len| len.try_into().ok())
                .map_or(0, u64::from_le_bytes);
            states.push(FNV_OFFSET);
            ends.push(start + HEADER_LEN + payload_len as usize);
        }
        digest
    }
}

/// Appends one complete, sealed frame for `value` and returns its
/// digest ([`fnv1a`] over the frame).
fn encode<S: Snapshot>(value: &S, out: &mut Vec<u8>) -> u64 {
    let mut w = Writer::new(out);
    w.put_nested(value);
    w.seal()
}

/// Bounds-checked little-endian payload reader used by
/// [`Snapshot::read_payload`]. Every read either advances the cursor or
/// returns [`SnapshotError::Truncated`]; nothing panics.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload slice.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a little-endian `i128`.
    pub fn get_i128(&mut self) -> Result<i128, SnapshotError> {
        let s = self.take(16)?;
        let mut b = [0u8; 16];
        b.copy_from_slice(s);
        Ok(i128::from_le_bytes(b))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(self.get_i128()? as u128)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an element count that precedes `elem_size`-byte elements,
    /// validating it against the bytes actually remaining so a hostile
    /// length prefix can never force an over-sized allocation: the
    /// decoder may allocate at most `remaining / elem_size` elements,
    /// which is bounded by the input length.
    pub fn get_count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let raw = self.get_u64()?;
        let count = usize::try_from(raw)
            .map_err(|_| SnapshotError::Invalid("element count exceeds address space"))?;
        let elem = elem_size.max(1);
        if count > self.remaining() / elem {
            return Err(SnapshotError::Truncated {
                needed: count.saturating_mul(elem),
                available: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Reads a `usize` stored as `u64` (a dimension, not a count; use
    /// [`Reader::get_count`] when the value sizes an allocation).
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| SnapshotError::Invalid("value exceeds address space"))
    }

    /// Decodes a nested child frame and advances past it.
    pub fn get_nested<C: Snapshot>(&mut self) -> Result<C, SnapshotError> {
        self.get_nested_with(C::read_payload)
    }

    /// Decodes a nested child frame of type `C` with `decode` in place
    /// of `C::read_payload`, and advances past it. The frame is checked
    /// exactly as by [`Reader::get_nested`]; this lets a parent hand
    /// its children state the payload alone cannot carry (a shared
    /// table, say), with the bytes unchanged.
    pub fn get_nested_with<C: Snapshot>(
        &mut self,
        decode: impl FnOnce(&mut Reader<'_>) -> Result<C, SnapshotError>,
    ) -> Result<C, SnapshotError> {
        let (child, used) = read_frame(&self.bytes[self.pos..], C::TAG, decode)?;
        self.pos += used;
        Ok(child)
    }
}

/// Versioned binary serialization for sketch and estimator state.
///
/// Implementors provide the per-type payload codec; the trait supplies
/// the uniform frame (magic, version, tag, length prefix, checksum) via
/// [`Snapshot::write_into`] / [`Snapshot::read_from`]. The contract,
/// pinned by `tests/snapshot_roundtrip.rs` (lint L6):
///
/// * `read_from(write_into(x)) ≡ x` — bit-identical state, as observed
///   by `state_digest()` where available, plus estimates/decodes;
/// * decoding arbitrary bytes returns a typed [`SnapshotError`], never
///   panics, and never allocates beyond what the input length admits.
pub trait Snapshot: Sized {
    /// Type tag stored in the frame header. Tags are a registry
    /// (see `docs/ALGORITHMS.md`) and are never reused across types.
    const TAG: u8;

    /// Writes the payload fields (no framing).
    fn write_payload(&self, w: &mut Writer<'_>);

    /// Decodes the payload fields (no framing), validating every
    /// semantic invariant of the type.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on truncated, corrupt, or invalid bytes.
    fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;

    /// Appends one complete frame (header + payload + checksum).
    ///
    /// The whole tree of nested frames is written first and then
    /// sealed in one pass (see [`Writer::put_nested`]); the bytes are
    /// the same as hashing each frame on its own as it closes.
    fn write_into(&self, out: &mut Vec<u8>) {
        encode(self, out);
    }

    /// Serializes into a fresh buffer.
    #[must_use]
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// [`fnv1a`] over the canonical encoding — a state digest available
    /// in every build (the sketch layer's `state_digest` is gated
    /// behind `debug_invariants`). Bit-identical frames digest equal;
    /// the converse holds only up to 64-bit hash collisions. Chaos runs
    /// compare a faulted run against a clean one this way.
    ///
    /// Computed by the same pass that seals the frame, with no second
    /// encode or hash; equal to `fnv1a(&self.to_bytes())`.
    #[must_use]
    fn frame_digest(&self) -> u64 {
        encode(self, &mut Vec::new())
    }

    /// Decodes one frame from the front of `bytes`, returning the value
    /// and the number of bytes consumed (so frames concatenate).
    ///
    /// The checksum is verified over the whole frame *before* the
    /// payload is interpreted, so random corruption is caught by the
    /// checksum rather than by whichever field it lands in.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] on truncated, corrupt, or invalid bytes.
    fn read_from(bytes: &[u8]) -> Result<(Self, usize), SnapshotError> {
        read_frame(bytes, Self::TAG, Self::read_payload)
    }
}

/// Checks one frame of type `tag` at the front of `bytes` (magic,
/// version, tag, length, checksum) and decodes its payload with
/// `decode`, returning the value and the bytes consumed.
fn read_frame<T>(
    bytes: &[u8],
    tag: u8,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<(T, usize), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes[4] != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(bytes[4]));
    }
    if bytes[5] != tag {
        return Err(SnapshotError::WrongTag {
            expected: tag,
            found: bytes[5],
        });
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&bytes[6..HEADER_LEN]);
    let payload_len = u64::from_le_bytes(len_bytes);
    // Validate the length prefix against the real buffer before any
    // use: a hostile prefix must fail here, not size an allocation.
    let payload_len = usize::try_from(payload_len)
        .ok()
        .filter(|&l| l <= bytes.len().saturating_sub(FRAME_OVERHEAD))
        .ok_or(SnapshotError::Truncated {
            needed: FRAME_OVERHEAD,
            available: bytes.len(),
        })?;
    let frame_end = HEADER_LEN + payload_len;
    let mut ck = [0u8; 8];
    ck.copy_from_slice(&bytes[frame_end..frame_end + 8]);
    if fnv1a(&bytes[..frame_end]) != u64::from_le_bytes(ck) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader::new(&bytes[HEADER_LEN..frame_end]);
    let value = decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            unread: r.remaining(),
        });
    }
    Ok((value, frame_end + 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Pair {
        a: u64,
        b: Vec<u64>,
    }

    impl Snapshot for Pair {
        const TAG: u8 = 250;

        fn write_payload(&self, w: &mut Writer<'_>) {
            w.put_u64(self.a);
            w.put_usize(self.b.len());
            for &v in &self.b {
                w.put_u64(v);
            }
        }

        fn read_payload(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            let a = r.get_u64()?;
            let n = r.get_count(8)?;
            let mut b = Vec::with_capacity(n);
            for _ in 0..n {
                b.push(r.get_u64()?);
            }
            Ok(Self { a, b })
        }
    }

    #[test]
    fn round_trip() {
        let x = Pair { a: 7, b: vec![1, 2, 3] };
        let bytes = x.to_bytes();
        let (y, used) = Pair::read_from(&bytes).unwrap();
        assert_eq!(x, y);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn frames_concatenate() {
        let x = Pair { a: 1, b: vec![] };
        let y = Pair { a: 2, b: vec![9] };
        let mut bytes = x.to_bytes();
        y.write_into(&mut bytes);
        let (gx, used) = Pair::read_from(&bytes).unwrap();
        let (gy, rest) = Pair::read_from(&bytes[used..]).unwrap();
        assert_eq!((gx, gy), (x, y));
        assert_eq!(used + rest, bytes.len());
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = Pair { a: 7, b: vec![1, 2, 3] }.to_bytes();
        for n in 0..bytes.len() {
            let err = Pair::read_from(&bytes[..n]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch),
                "prefix {n}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let bytes = Pair { a: 7, b: vec![1, 2, 3] }.to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(Pair::read_from(&corrupt).is_err(), "byte {i} flip undetected");
        }
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        let mut bytes = Pair { a: 7, b: vec![] }.to_bytes();
        // Claim a multi-exabyte payload.
        bytes[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Pair::read_from(&bytes),
            Err(SnapshotError::Truncated { .. })
        ));
        // Claim a multi-exabyte element count inside a valid frame.
        let mut w = Vec::new();
        {
            let mut buf = Writer::new(&mut w);
            buf.put_u64(1);
            buf.put_u64(u64::MAX); // count
        }
        let mut framed = Vec::new();
        framed.extend_from_slice(&SNAPSHOT_MAGIC);
        framed.push(SNAPSHOT_VERSION);
        framed.push(Pair::TAG);
        framed.extend_from_slice(&(w.len() as u64).to_le_bytes());
        framed.extend_from_slice(&w);
        let ck = fnv1a(&framed);
        framed.extend_from_slice(&ck.to_le_bytes());
        assert!(matches!(
            Pair::read_from(&framed),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_tag_and_version_and_magic() {
        let good = Pair { a: 7, b: vec![] }.to_bytes();
        let mut b = good.clone();
        b[5] = 99;
        assert!(matches!(
            Pair::read_from(&b),
            Err(SnapshotError::WrongTag { expected: 250, found: 99 })
        ));
        let mut b = good.clone();
        b[4] = 2;
        // The checksum covers the version byte, but version is checked
        // first so future formats can evolve the trailer.
        assert_eq!(Pair::read_from(&b).unwrap_err(), SnapshotError::UnsupportedVersion(2));
        let mut b = good;
        b[0] = b'X';
        assert_eq!(Pair::read_from(&b).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // A frame whose payload is one byte longer than the codec reads.
        let mut payload = Vec::new();
        {
            let mut w = Writer::new(&mut payload);
            w.put_u64(1);
            w.put_u64(0); // zero elements
            w.put_u8(0xEE); // stray byte
        }
        let mut framed = Vec::new();
        framed.extend_from_slice(&SNAPSHOT_MAGIC);
        framed.push(SNAPSHOT_VERSION);
        framed.push(Pair::TAG);
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&payload);
        let ck = fnv1a(&framed);
        framed.extend_from_slice(&ck.to_le_bytes());
        assert_eq!(
            Pair::read_from(&framed).unwrap_err(),
            SnapshotError::TrailingBytes { unread: 1 }
        );
    }

    /// The recursive encoder over [`Tree`]: each frame is checksummed
    /// over `out[start..]` as soon as its payload is written, so a
    /// child's bytes are hashed again by every enclosing frame. The
    /// reference the one-pass sealer must match byte for byte.
    fn write_into_recursive(tree: &Tree, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        out.push(Tree::TAG);
        out.extend_from_slice(&0u64.to_le_bytes()); // length backpatched
        for (k, segment) in tree.segments.iter().enumerate() {
            if k > 0 {
                write_into_recursive(&tree.children[k - 1], out);
            }
            out.extend_from_slice(segment);
        }
        let payload_len = (out.len() - start - HEADER_LEN) as u64;
        out[start + 6..start + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// A frame tree: raw payload segments interleaved with child
    /// frames (`segments.len() == children.len() + 1`). Empty segments
    /// put sibling frames back to back.
    #[derive(Debug)]
    struct Tree {
        segments: Vec<Vec<u8>>,
        children: Vec<Tree>,
    }

    impl Snapshot for Tree {
        const TAG: u8 = 251;

        fn write_payload(&self, w: &mut Writer<'_>) {
            for (k, segment) in self.segments.iter().enumerate() {
                if k > 0 {
                    w.put_nested(&self.children[k - 1]);
                }
                w.put_bytes(segment);
            }
        }

        fn read_payload(_: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            Err(SnapshotError::Invalid("encode-only test type"))
        }
    }

    /// SplitMix64 step: a tiny deterministic source for tree shapes.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A tree exactly `depth` frames deep below the root when
    /// `fan_out > 0` (the first child always continues the spine), each
    /// inner node with 1 to `fan_out` children, and segments that are
    /// empty half the time.
    fn tree(rng: &mut u64, depth: usize, fan_out: u64) -> Tree {
        let width = if depth == 0 || fan_out == 0 { 0 } else { 1 + next(rng) % fan_out };
        let children: Vec<Tree> = (0..width)
            .map(|k| {
                let below = if k == 0 { depth - 1 } else { (next(rng) % depth as u64) as usize };
                tree(rng, below, fan_out)
            })
            .collect();
        let segments = (0..=children.len())
            .map(|_| {
                let len = if next(rng).is_multiple_of(2) { 0 } else { next(rng) % 40 };
                (0..len).map(|_| next(rng) as u8).collect()
            })
            .collect();
        Tree { segments, children }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_seal_matches_recursive_encoder(
            seed in proptest::num::u64::ANY,
            depth in 0usize..8,
            fan_out in 0u64..5,
            prefix_len in 1usize..24,
        ) {
            let mut rng = seed;
            let tree = tree(&mut rng, depth, fan_out);
            let mut oracle = Vec::new();
            write_into_recursive(&tree, &mut oracle);
            proptest::prop_assert_eq!(&tree.to_bytes(), &oracle);
            // Appending after a prefix leaves the prefix untouched and
            // seals the frame exactly as in a fresh buffer.
            let prefix: Vec<u8> = (0..prefix_len).map(|_| next(&mut rng) as u8).collect();
            let mut appended = prefix.clone();
            tree.write_into(&mut appended);
            proptest::prop_assert_eq!(&appended[..prefix_len], &prefix[..]);
            proptest::prop_assert_eq!(&appended[prefix_len..], &oracle[..]);
            proptest::prop_assert_eq!(tree.frame_digest(), fnv1a(&oracle));
        }
    }

    #[test]
    fn lanes_match_one_chain_per_state() {
        let bytes: Vec<u8> = (0..=255).collect();
        for n in 0..10 {
            let mut states: Vec<u64> = (0..n).map(|k| FNV_OFFSET ^ k).collect();
            let want: Vec<u64> = states.iter().map(|&h| fnv1a_from(h, &bytes)).collect();
            fnv1a_lanes(&mut states, &bytes);
            assert_eq!(states, want, "{n} lanes");
        }
    }

    #[test]
    fn display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::ChecksumMismatch.to_string().contains("checksum"));
        assert!(SnapshotError::Invalid("x out of range").to_string().contains("x out of range"));
    }
}
