//! A compact binary trace format with integrity checks.
//!
//! Layout (version 2, little-endian):
//!
//! ```text
//! magic    [u8; 4] = b"LLBT"
//! version  u16     = 2
//! name     u16 length + UTF-8 bytes
//! count    u64     number of records
//! records  count × { pc u64, target u64, meta u32 }   20 bytes each
//! checksum u64
//! ```
//!
//! `meta` is [`BranchRecord::packed_meta`]: bits 0..3 the kind, bit 3 the
//! direction, bits 4..32 the non-branch instruction count. The checksum
//! covers everything after the version field. The name length, name and
//! count pass through it zero-padded to whole 32-byte stripes, so the
//! records start on a stripe boundary and move in blocks of 8 records
//! (160 bytes, 5 stripes) through one stack buffer, one `read_exact` or
//! `write_all` per block.
//!
//! The checksum runs four independent 64-bit lanes over the stripes, one
//! word each, with xxHash64's round `acc = rotl(acc + w·P2, 31)·P1`; the
//! lanes are merged by a sum of rotations, then the total length and the
//! tail bytes are folded in and the result is avalanched. Every step is a
//! bijection of the state it updates, so every single-bit flip in the
//! covered bytes changes the checksum. Version 1 used 22-byte records and
//! a byte-serial FNV-1a sum over the records only; it is not read.
//!
//! Traces used by the experiment harness are generated on the fly; file
//! IO caches them between runs and interoperates with external tools.

use crate::record::{BranchKind, BranchRecord, Trace};
use std::io::{Read, Write};

/// Magic bytes identifying a trace file.
pub const MAGIC: [u8; 4] = *b"LLBT";
/// Current format version.
pub const VERSION: u16 = 2;

/// Bytes per stored record: `pc`, `target` and the packed meta word.
const RECORD_BYTES: usize = 20;
/// Records moved per read or write call.
const BLOCK_RECORDS: usize = 8;
const BLOCK_BYTES: usize = BLOCK_RECORDS * RECORD_BYTES;
/// Bytes the checksum's four lanes take per step.
const STRIPE: usize = 32;
const _: () = assert!(BLOCK_BYTES.is_multiple_of(STRIPE));
/// Records reserved up front from the header's count. A larger trace
/// grows past it; a corrupt count cannot make the reader ask the
/// allocator for more before a record has been read.
const MAX_RESERVED_RECORDS: usize = 1 << 20;

/// Errors produced while reading or writing trace files.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The file does not start with the `LLBT` magic.
    BadMagic([u8; 4]),
    /// The file uses an unsupported format version.
    UnsupportedVersion(u16),
    /// A record's kind bits name no branch kind.
    InvalidKind(u8),
    /// A record flags a conditional field inconsistently (e.g. an
    /// unconditional branch marked not-taken).
    InconsistentRecord { index: u64 },
    /// The trailing checksum does not match the covered bytes.
    ChecksumMismatch { expected: u64, found: u64 },
    /// The embedded name is not valid UTF-8.
    BadName(std::string::FromUtf8Error),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace io failure: {e}"),
            TraceIoError::BadMagic(m) => write!(f, "bad trace magic {m:02x?}"),
            TraceIoError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::InvalidKind(k) => write!(f, "invalid branch kind {k}"),
            TraceIoError::InconsistentRecord { index } => {
                write!(f, "inconsistent record at index {index}")
            }
            TraceIoError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: expected {expected:#x}, found {found:#x}")
            }
            TraceIoError::BadName(e) => write!(f, "trace name is not utf-8: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::BadName(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("a 4-byte slice"))
}

/// The four-lane checksum over whole stripes (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Checksum {
    lanes: [u64; 4],
    len: u64,
}

impl Checksum {
    /// Starts the sum with the header fields after the version, zero-padded
    /// to whole stripes.
    fn over_header(name: &[u8], count: u64) -> Self {
        let mut crc = Checksum { lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()], len: 0 };
        let name_len = u16::try_from(name.len()).expect("names are clamped to u16 bytes");
        let mut stripe = [0u8; STRIPE];
        let mut fill = 0;
        for &b in name_len.to_le_bytes().iter().chain(name).chain(&count.to_le_bytes()) {
            stripe[fill] = b;
            fill += 1;
            if fill == STRIPE {
                crc.stripes(&stripe);
                fill = 0;
            }
        }
        if fill > 0 {
            stripe[fill..].fill(0);
            crc.stripes(&stripe);
        }
        crc
    }

    /// Feeds whole stripes, one word to each lane.
    fn stripes(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len().is_multiple_of(STRIPE));
        for stripe in bytes.chunks_exact(STRIPE) {
            for (lane, word) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, le_u64(word));
            }
        }
        self.len += bytes.len() as u64;
    }

    /// Merges the lanes and folds in the total length and the `tail` bytes
    /// that did not fill a stripe: whole records, so whole u32 words.
    fn finish(self, tail: &[u8]) -> u64 {
        debug_assert!(tail.len() < STRIPE && tail.len().is_multiple_of(4));
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18))
            .wrapping_add(self.len + tail.len() as u64);
        for word in tail.chunks_exact(4) {
            h ^= u64::from(le_u32(word)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Writes `records` into `out`, [`RECORD_BYTES`] each.
fn encode(records: &[BranchRecord], out: &mut [u8]) {
    for (r, raw) in records.iter().zip(out.chunks_exact_mut(RECORD_BYTES)) {
        raw[0..8].copy_from_slice(&r.pc().to_le_bytes());
        raw[8..16].copy_from_slice(&r.target().to_le_bytes());
        raw[16..20].copy_from_slice(&r.packed_meta().to_le_bytes());
    }
}

/// Appends the records stored in `bytes` to `records`, checking what the
/// packing does not bound: the kind bits, and that unconditional kinds
/// are taken.
fn decode(bytes: &[u8], records: &mut Vec<BranchRecord>) -> Result<(), TraceIoError> {
    for raw in bytes.chunks_exact(RECORD_BYTES) {
        let meta = le_u32(&raw[16..20]);
        let kind_bits = (meta & 0x7) as u8;
        let kind = BranchKind::from_u8(kind_bits).ok_or(TraceIoError::InvalidKind(kind_bits))?;
        if kind.is_unconditional() && meta & 0x8 == 0 {
            return Err(TraceIoError::InconsistentRecord { index: records.len() as u64 });
        }
        records.push(BranchRecord::from_packed(le_u64(&raw[0..8]), le_u64(&raw[8..16]), meta));
    }
    Ok(())
}

/// Serialises `trace` to `writer`. A buffered writer can be passed by
/// mutable reference (`&mut w` implements [`Write`]).
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on any underlying write failure.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    let name = trace.name().as_bytes();
    let name = &name[..name.len().min(usize::from(u16::MAX))];
    let count = trace.len() as u64;
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(name.len() as u16).to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&count.to_le_bytes())?;
    let mut crc = Checksum::over_header(name, count);
    let mut block = [0u8; BLOCK_BYTES];
    let mut blocks = trace.records().chunks_exact(BLOCK_RECORDS);
    for records in &mut blocks {
        encode(records, &mut block);
        crc.stripes(&block);
        writer.write_all(&block)?;
    }
    let rest = blocks.remainder();
    let last = &mut block[..rest.len() * RECORD_BYTES];
    encode(rest, last);
    let whole = last.len() / STRIPE * STRIPE;
    crc.stripes(&last[..whole]);
    writer.write_all(last)?;
    writer.write_all(&crc.finish(&last[whole..]).to_le_bytes())?;
    Ok(())
}

/// Deserialises a trace from `reader`. A buffered reader can be passed by
/// mutable reference (`&mut r` implements [`Read`]).
///
/// # Errors
///
/// Returns a [`TraceIoError`] describing the first malformation found:
/// wrong magic, unsupported version (a version-1 file included), invalid
/// kind bits, inconsistent records, a short file, or a checksum mismatch.
pub fn read_trace<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    read_trace_into(reader, Vec::new())
}

/// [`read_trace`] into `records`, whose contents it replaces: a buffer a
/// released trace handed back ([`Trace::into_records`]) holds the decoded
/// records without a new allocation when its capacity suffices. On an
/// error the buffer is dropped.
///
/// # Errors
///
/// As [`read_trace`].
pub fn read_trace_into<R: Read>(
    mut reader: R,
    mut records: Vec<BranchRecord>,
) -> Result<Trace, TraceIoError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TraceIoError::BadMagic(magic));
    }
    let version = read_u16(&mut reader)?;
    if version != VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let name_len = read_u16(&mut reader)? as usize;
    let mut name_bytes = vec![0u8; name_len];
    reader.read_exact(&mut name_bytes)?;
    let name = String::from_utf8(name_bytes).map_err(TraceIoError::BadName)?;
    let count = read_u64(&mut reader)?;
    let mut crc = Checksum::over_header(name.as_bytes(), count);
    let reserve =
        usize::try_from(count).map_or(MAX_RESERVED_RECORDS, |n| n.min(MAX_RESERVED_RECORDS));
    records.clear();
    records.reserve(reserve);
    let mut block = [0u8; BLOCK_BYTES];
    for _ in 0..count / BLOCK_RECORDS as u64 {
        reader.read_exact(&mut block)?;
        crc.stripes(&block);
        decode(&block, &mut records)?;
    }
    let last = &mut block[..(count % BLOCK_RECORDS as u64) as usize * RECORD_BYTES];
    reader.read_exact(last)?;
    let whole = last.len() / STRIPE * STRIPE;
    crc.stripes(&last[..whole]);
    decode(last, &mut records)?;
    let found = crc.finish(&last[whole..]);
    let expected = read_u64(&mut reader)?;
    if expected != found {
        return Err(TraceIoError::ChecksumMismatch { expected, found });
    }
    Ok(Trace::from_records(name, records))
}

fn read_u16<R: Read>(reader: &mut R) -> Result<u16, TraceIoError> {
    let mut b = [0u8; 2];
    reader.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u64<R: Read>(reader: &mut R) -> Result<u64, TraceIoError> {
    let mut b = [0u8; 8];
    reader.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BranchKind, BranchRecord, Trace};

    fn sample_trace() -> Trace {
        let mut t = Trace::new("sample");
        t.push(BranchRecord::conditional(0x1000, 0x1100, true, 4));
        t.push(BranchRecord::unconditional(0x1104, 0x2000, BranchKind::DirectCall, 2));
        t.push(BranchRecord::conditional(0x2004, 0x2010, false, 7));
        t.push(BranchRecord::unconditional(0x2008, 0x1108, BranchKind::Return, 0));
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.name(), "sample");
        assert_eq!(back.records(), t.records());
        assert_eq!(back.instructions(), t.instructions());
    }

    #[test]
    fn quick_workloads_roundtrip_exactly() {
        // The 14 paper workloads at quick length under the benchmark's
        // seed-1 derivation (preset seed XOR 0x9E37_79B9_7F4A_7C15).
        for w in crate::Workload::ALL {
            let trace = crate::WorkloadSpec::named(w)
                .with_branches(150_000)
                .with_seed(w.params().seed ^ 0x9E37_79B9_7F4A_7C15)
                .generate();
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).unwrap();
            assert_eq!(buf.len(), 4 + 2 + 2 + trace.name().len() + 8 + trace.len() * 20 + 8);
            let back = read_trace(buf.as_slice()).unwrap();
            assert_eq!(back.name(), trace.name(), "{w}");
            assert_eq!(back.instructions(), trace.instructions(), "{w}");
            assert!(back.records() == trace.records(), "{w}: records differ");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty");
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::BadMagic(_))));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        // Flip a bit inside the first record's PC.
        let header = 4 + 2 + 2 + "sample".len() + 8;
        buf[header] ^= 0x01;
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::ChecksumMismatch { .. })));
    }

    #[test]
    fn name_is_covered_by_checksum() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        // "sample" → "sbmple": still valid UTF-8, so only the sum can tell.
        buf[4 + 2 + 2 + 1] ^= 0x01;
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::ChecksumMismatch { .. })));
    }

    #[test]
    fn invalid_kind_rejected() {
        let header = 4 + 2 + 2 + "sample".len() + 8;
        for kind in [6u8, 7] {
            let mut buf = Vec::new();
            write_trace(&mut buf, &sample_trace()).unwrap();
            // The low three bits of record 0's meta word hold its kind.
            buf[header + 16] = (buf[header + 16] & !0x7) | kind;
            assert!(
                matches!(read_trace(buf.as_slice()), Err(TraceIoError::InvalidKind(k)) if k == kind)
            );
        }
    }

    #[test]
    fn untaken_unconditional_is_inconsistent() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        // Clear the taken bit (bit 3) of record 1, a direct call.
        let header = 4 + 2 + 2 + "sample".len() + 8;
        buf[header + 20 + 16] &= !0x8;
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(TraceIoError::InconsistentRecord { index: 1 })
        ));
    }

    #[test]
    fn oversized_count_is_an_error() {
        // A header claiming 2^40 records followed by one record: the reader
        // must fail on the short file, not reserve memory for the claim.
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::from_records("big", sample_trace().records()[..1].to_vec()))
            .unwrap();
        let count_at = 4 + 2 + 2 + "big".len();
        buf[count_at..count_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::Io(_))));
    }

    #[test]
    fn truncated_file_is_io_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::Io(_))));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf[4] = 0xFF;
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::UnsupportedVersion(_))));
        // Version 1 (22-byte records) has no reader.
        buf[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::UnsupportedVersion(1))));
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceIoError::ChecksumMismatch { expected: 1, found: 2 };
        assert!(e.to_string().contains("checksum"));
        let e = TraceIoError::BadMagic(*b"ABCD");
        assert!(e.to_string().contains("magic"));
    }
}
