//! Randomized property tests for trace records and IO, driven by the
//! in-tree `SplitMix64` PRNG (no external property-testing framework, so
//! the workspace builds with no network access).

use bputil::rng::SplitMix64;
use llbp_trace::record::{BranchKind, BranchRecord, Trace};
use llbp_trace::{read_trace, write_trace, TraceIoError};

fn arb_record(rng: &mut SplitMix64) -> BranchRecord {
    let pc = rng.next_u64();
    let target = rng.next_u64();
    let kind = BranchKind::from_u8(rng.below(6) as u8).expect("in range");
    // Unconditional branches are always taken by construction.
    let taken = rng.chance(1, 2) || kind.is_unconditional();
    let insts = (rng.next_u64() % 1000) as u32;
    BranchRecord::new(pc, target, kind, taken, insts)
}

fn arb_records(rng: &mut SplitMix64, max: u64) -> Vec<BranchRecord> {
    (0..rng.below(max)).map(|_| arb_record(rng)).collect()
}

/// Serialising and deserialising preserves every field and the name.
#[test]
fn trace_io_roundtrip() {
    let mut rng = SplitMix64::new(0x10);
    let names = ["", "a", "workload-x", "Some Name_09"];
    for case in 0..60 {
        let name = names[case % names.len()];
        let trace = Trace::from_records(name, arb_records(&mut rng, 200));
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.name(), name);
        assert_eq!(back.records(), trace.records());
        assert_eq!(back.instructions(), trace.instructions());
    }
}

/// Any single-bit corruption after the version field (name length, name,
/// count, records) is detected (either a structured error or a checksum
/// mismatch) — silent acceptance of a modified file is a bug.
#[test]
fn corruption_is_detected() {
    let mut rng = SplitMix64::new(0x11);
    for _ in 0..120 {
        let mut records = arb_records(&mut rng, 50);
        if records.is_empty() {
            records.push(arb_record(&mut rng));
        }
        let trace = Trace::from_records("x", records);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        // Corrupt anything past magic (4) and version (2), short of the
        // trailing checksum, which its own test covers.
        let payload_start = 4 + 2;
        let payload_end = buf.len() - 8;
        assert!(payload_end > payload_start);
        let pos = payload_start + (rng.next_u64() as usize) % (payload_end - payload_start);
        buf[pos] ^= 1 << rng.below(8);
        match read_trace(buf.as_slice()) {
            Err(_) => {} // detected — good
            Ok(_) => panic!("corruption at byte {pos} silently accepted"),
        }
    }
}

/// Instruction accounting: total instructions equal the sum of
/// per-record contributions.
#[test]
fn instruction_accounting() {
    let mut rng = SplitMix64::new(0x12);
    for _ in 0..60 {
        let records = arb_records(&mut rng, 100);
        let expected: u64 = records.iter().map(|r| u64::from(r.non_branch_insts()) + 1).sum();
        let trace = Trace::from_records("t", records);
        assert_eq!(trace.instructions(), expected);
    }
}

/// Truncating a valid file at *any* byte boundary is detected: the reader
/// returns an error (an IO error for short reads, or a structured error
/// when the truncation point lands after a self-consistent prefix) and
/// never panics or silently returns a shorter trace.
#[test]
fn truncation_at_every_prefix_is_detected() {
    let mut rng = SplitMix64::new(0x13);
    let trace = Trace::from_records("trunc", arb_records(&mut rng, 30));
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();
    for len in 0..buf.len() {
        assert!(
            read_trace(&buf[..len]).is_err(),
            "truncation to {len}/{} bytes was silently accepted",
            buf.len()
        );
    }
}

/// Corrupting any byte of the trailing checksum itself is reported as a
/// checksum mismatch (the payload is intact; the trailer is wrong).
#[test]
fn checksum_trailer_corruption_is_detected() {
    let mut rng = SplitMix64::new(0x14);
    for _ in 0..40 {
        let mut records = arb_records(&mut rng, 40);
        if records.is_empty() {
            records.push(arb_record(&mut rng));
        }
        let trace = Trace::from_records("crc", records);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let pos = buf.len() - 8 + (rng.next_u64() as usize) % 8;
        buf[pos] ^= 1 << rng.below(8);
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::ChecksumMismatch { .. })));
    }
}

/// Every corruption of the magic bytes is rejected as `BadMagic` before
/// anything else is parsed.
#[test]
fn any_bad_magic_is_rejected() {
    let mut rng = SplitMix64::new(0x15);
    let trace = Trace::from_records("magic", arb_records(&mut rng, 10));
    let mut pristine = Vec::new();
    write_trace(&mut pristine, &trace).unwrap();
    for byte in 0..4 {
        let mut buf = pristine.clone();
        buf[byte] ^= 1 << rng.below(8);
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::BadMagic(_))));
    }
}

#[test]
fn reading_garbage_never_panics() {
    // A few deterministic garbage inputs exercising each failure path.
    let inputs: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x4C],
        b"LLBT".to_vec(),
        b"LLBTxxxxxxxxxxxxxxxxxxxxxxxx".to_vec(),
        vec![0xFF; 100],
    ];
    for input in inputs {
        let result = read_trace(input.as_slice());
        assert!(matches!(
            result,
            Err(TraceIoError::Io(_))
                | Err(TraceIoError::BadMagic(_))
                | Err(TraceIoError::UnsupportedVersion(_))
        ));
    }
}
