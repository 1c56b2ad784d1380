//! The length-prefixed TCP framing between `llbp-serve` and its
//! clients.
//!
//! One request, one response, fixed little-endian framing — simple
//! enough that a torn frame (a connection severed mid-write, or the
//! injected `net:torn-write` fault) is always detectable as a short
//! read, never misparsed as a different request:
//!
//! ```text
//! request:  op u8 | fp u128 | aux u32 | len u32 | payload[len]
//! response: status u8                 | len u32 | payload[len]
//! ```
//!
//! `fp` carries a campaign ticket and `aux` the `StreamCells` cursor;
//! both are zero where an op has no use for them. `len` is bounded by
//! [`MAX_FRAME`]; a frame claiming more is rejected before any
//! allocation, so a garbage peer cannot balloon the daemon. Responses
//! are [`Status::Ok`] (payload is the answer), [`Status::Miss`] (no
//! such campaign — an *answer*, not an error) or [`Status::Err`]
//! (payload is the daemon's error text; the client maps it to
//! [`SimError::Network`]).
//!
//! [`SimError::Network`]: crate::error::SimError::Network

use crate::error::SimError;
use llbp_trace::fingerprint::Fingerprint;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (64 MiB — an order of magnitude above
/// the largest response the daemon streams).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Request opcodes. Their wire tags start at 5: tags 1–4 belonged to
/// the object-store operations of an earlier protocol and no longer
/// parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Submit a sweep campaign (payload carries the wire-encoded
    /// [`SweepSpec`](crate::engine::SweepSpec); the `Ok` response
    /// payload is the 16-byte campaign ticket).
    SubmitSweep,
    /// Poll a campaign's progress (`fp` carries the ticket; the `Ok`
    /// response payload is a progress text).
    PollSweep,
    /// Stream completed cells (`fp` carries the ticket, `aux` the cell
    /// cursor; the `Ok` response payload is a batch of cell frames).
    StreamCells,
    /// Scrape the daemon's metrics in Prometheus text format.
    Metrics,
    /// Ask the daemon to shut down cleanly after this response.
    Shutdown,
}

impl Op {
    fn wire(self) -> u8 {
        match self {
            Op::SubmitSweep => 5,
            Op::PollSweep => 6,
            Op::StreamCells => 7,
            Op::Metrics => 8,
            Op::Shutdown => 9,
        }
    }

    fn from_wire(tag: u8) -> Option<Self> {
        match tag {
            5 => Some(Op::SubmitSweep),
            6 => Some(Op::PollSweep),
            7 => Some(Op::StreamCells),
            8 => Some(Op::Metrics),
            9 => Some(Op::Shutdown),
            _ => None,
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The operation succeeded; the payload is the answer.
    Ok,
    /// The addressed campaign does not exist (a clean miss).
    Miss,
    /// The daemon could not serve the request; the payload explains.
    Err,
}

impl Status {
    fn wire(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Miss => 1,
            Status::Err => 2,
        }
    }

    fn from_wire(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Status::Ok),
            1 => Some(Status::Miss),
            2 => Some(Status::Err),
            _ => None,
        }
    }
}

/// One framed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// The campaign ticket of [`Op::PollSweep`] and [`Op::StreamCells`]
    /// (zero otherwise).
    pub fp: Fingerprint,
    /// [`Op::StreamCells`]'s cell cursor (zero otherwise).
    pub aux: u32,
    /// [`Op::SubmitSweep`]'s encoded spec (empty otherwise).
    pub payload: Vec<u8>,
}

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// How the request fared.
    pub status: Status,
    /// The answer ([`Status::Ok`]) or error text ([`Status::Err`]).
    pub payload: Vec<u8>,
}

impl Response {
    /// An `Ok` response carrying `payload`.
    #[must_use]
    pub fn ok(payload: Vec<u8>) -> Self {
        Self { status: Status::Ok, payload }
    }

    /// A clean miss.
    #[must_use]
    pub fn miss() -> Self {
        Self { status: Status::Miss, payload: Vec::new() }
    }

    /// A daemon-side failure described by `detail`.
    #[must_use]
    pub fn err(detail: &str) -> Self {
        Self { status: Status::Err, payload: detail.as_bytes().to_vec() }
    }
}

fn bad_frame(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed frame: {what}"))
}

/// Rejects payloads too large to frame *before* encoding, with a typed
/// error the campaign layer surfaces as a network failure.
///
/// The frame length field is a `u32`: without this check a > 4 GiB
/// payload would silently truncate its length (`len as u32`) and desync
/// the stream — the peer would parse the tail of the payload as the
/// next frame. Anything above [`MAX_FRAME`] is rejected symmetrically
/// with the read side, which already refuses such frames.
///
/// # Errors
///
/// [`SimError::Network`] when `len` exceeds [`MAX_FRAME`]. This is
/// deterministic — retrying the same payload cannot help — so callers
/// must not burn retry budget on it.
fn check_frame_len(op: &'static str, len: usize) -> Result<(), SimError> {
    if len > MAX_FRAME as usize {
        return Err(SimError::Network {
            op,
            detail: format!(
                "payload of {len} bytes exceeds the {MAX_FRAME}-byte frame bound; \
                 refusing to encode a frame the peer would reject"
            ),
        });
    }
    Ok(())
}

/// [`check_frame_len`] as an IO error, for the raw write paths.
fn check_frame_len_io(op: &'static str, len: usize) -> io::Result<()> {
    check_frame_len(op, len).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn read_len(r: &mut impl Read) -> io::Result<usize> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(bad_frame("payload length exceeds MAX_FRAME"));
    }
    Ok(len as usize)
}

fn read_payload(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_len(r)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes one request frame (no flush — the caller owns buffering).
///
/// # Errors
///
/// `InvalidData` when the payload exceeds [`MAX_FRAME`] (checked before
/// any encoding allocation); otherwise the underlying IO error.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    check_frame_len_io("write_request", req.payload.len())?;
    let bytes = encode_request(req);
    w.write_all(&bytes)
}

/// The full wire form of a request (exposed so fault injection can send
/// a deliberately truncated prefix of it).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(25 + req.payload.len());
    bytes.push(req.op.wire());
    bytes.extend_from_slice(&req.fp.0.to_le_bytes());
    bytes.extend_from_slice(&req.aux.to_le_bytes());
    bytes.extend_from_slice(&(req.payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&req.payload);
    bytes
}

/// Reads one request frame.
///
/// # Errors
///
/// `UnexpectedEof` on a severed/torn connection, `InvalidData` on a
/// frame that cannot be a request (unknown opcode, oversized payload).
/// Both mean "close this connection".
pub fn read_request(r: &mut impl Read) -> io::Result<Request> {
    let mut head = [0u8; 21];
    r.read_exact(&mut head)?;
    let op = Op::from_wire(head[0]).ok_or_else(|| bad_frame("unknown opcode"))?;
    let fp = Fingerprint(u128::from_le_bytes(head[1..17].try_into().expect("slice length")));
    let aux = u32::from_le_bytes(head[17..21].try_into().expect("slice length"));
    let payload = read_payload(r)?;
    Ok(Request { op, fp, aux, payload })
}

/// Writes one response frame and flushes it.
///
/// # Errors
///
/// `InvalidData` when the payload exceeds [`MAX_FRAME`] (checked before
/// any encoding allocation); otherwise the underlying IO error.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    check_frame_len_io("write_response", resp.payload.len())?;
    let mut bytes = Vec::with_capacity(5 + resp.payload.len());
    bytes.push(resp.status.wire());
    bytes.extend_from_slice(&(resp.payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&resp.payload);
    w.write_all(&bytes)?;
    w.flush()
}

/// Reads one response frame.
///
/// # Errors
///
/// As [`read_request`].
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    let mut status = [0u8; 1];
    r.read_exact(&mut status)?;
    let status = Status::from_wire(status[0]).ok_or_else(|| bad_frame("unknown status"))?;
    let payload = read_payload(r)?;
    Ok(Response { status, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(payload: Vec<u8>) -> Request {
        Request { op: Op::SubmitSweep, fp: Fingerprint(0), aux: 0, payload }
    }

    #[test]
    fn response_frames_roundtrip() {
        for resp in [Response::ok(b"payload".to_vec()), Response::miss(), Response::err("boom")] {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).expect("write");
            assert_eq!(read_response(&mut wire.as_slice()).expect("read"), resp);
        }
    }

    #[test]
    fn torn_frames_read_as_errors_not_garbage() {
        let wire = encode_request(&submit(vec![0xAA; 100]));
        for cut in [0, 1, 10, 21, 25, wire.len() - 1] {
            let err = read_request(&mut &wire[..cut]).expect_err("torn frame cut={cut}");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut={cut}");
        }
    }

    #[test]
    fn hostile_frames_are_rejected_before_allocation() {
        // Unknown opcode.
        let mut bad = encode_request(&submit(Vec::new()));
        bad[0] = 0xFF;
        assert!(read_request(&mut bad.as_slice()).is_err());
        // A length field claiming 4 GiB on a tiny frame.
        let mut huge = encode_request(&submit(Vec::new()));
        let len_at = huge.len() - 4;
        huge[len_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_request(&mut huge.as_slice()).expect_err("oversized frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn request_frames_roundtrip() {
        for req in [
            Request {
                op: Op::SubmitSweep,
                fp: Fingerprint(0xdead_beef),
                aux: 0,
                payload: b"spec bytes".to_vec(),
            },
            Request {
                op: Op::StreamCells,
                fp: Fingerprint(u128::MAX),
                aux: u32::MAX,
                payload: Vec::new(),
            },
        ] {
            let mut wire = Vec::new();
            write_request(&mut wire, &req).expect("write");
            assert_eq!(wire.len(), 25 + req.payload.len(), "{:?}", req.op);
            assert_eq!(read_request(&mut wire.as_slice()).expect("read"), req);
        }
    }

    #[test]
    fn serve_opcodes_roundtrip_and_unknown_tags_reject() {
        for op in [Op::SubmitSweep, Op::PollSweep, Op::StreamCells, Op::Metrics, Op::Shutdown] {
            assert_eq!(Op::from_wire(op.wire()), Some(op));
            let req = Request { op, fp: Fingerprint(0xABCD), aux: 9, payload: b"x".to_vec() };
            let mut wire = Vec::new();
            write_request(&mut wire, &req).expect("write");
            assert_eq!(read_request(&mut wire.as_slice()).expect("read"), req);
        }
        for tag in [0, 1, 2, 3, 4, 10] {
            assert_eq!(Op::from_wire(tag), None, "tag {tag} is unassigned");
            let mut wire = encode_request(&submit(Vec::new()));
            wire[0] = tag;
            let err = read_request(&mut wire.as_slice()).expect_err("unassigned opcode");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}");
        }
    }

    #[test]
    fn oversized_payloads_reject_at_encode_time() {
        // The typed boundary: exactly MAX_FRAME is fine, one past is a
        // deterministic Network error (never retried, never truncated).
        assert!(check_frame_len("submit", MAX_FRAME as usize).is_ok());
        let err = check_frame_len("submit", MAX_FRAME as usize + 1).expect_err("over the bound");
        assert_eq!(err.class(), "network");
        assert!(err.to_string().contains("frame bound"), "explains the bound: {err}");
        // `len as u32` truncation territory (> 4 GiB) is a fortiori
        // rejected — this is the original desync bug.
        assert!(check_frame_len("submit", u64::MAX as usize).is_err());
        // The raw write paths refuse before allocating the wire buffer;
        // the payload itself is never cloned, so a huge *claimed* vec is
        // cheap to construct for the check… but Vec::with_capacity of
        // 64 MiB+1 is real memory, so exercise the just-over case only.
        let req = submit(vec![0u8; MAX_FRAME as usize + 1]);
        let err = write_request(&mut Vec::new(), &req).expect_err("write refuses");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let resp = Response { status: Status::Ok, payload: vec![0u8; MAX_FRAME as usize + 1] };
        let err = write_response(&mut Vec::new(), &resp).expect_err("response write refuses");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
