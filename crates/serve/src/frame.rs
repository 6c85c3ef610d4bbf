//! The wire protocol: a length-prefixed binary frame codec.
//!
//! Every frame is `len:u32le` followed by `len` payload bytes, of which
//! the first is a type tag. `len` counts the tag, so the smallest legal
//! frame is 5 bytes on the wire. All multi-byte integers are
//! little-endian; row data is raw `f64::to_le_bytes`.
//!
//! The codec here is deliberately pure — no sockets, no clocks, no
//! global state — so the same functions serve the server's read loop,
//! the client, the torture tests, and the `serve_frame` fuzz target.
//! [`decode`] never panics on any input: every malformed byte sequence
//! maps to a structured [`FrameError`] (see `docs/SERVE.md` for the
//! full failure-semantics table).

use std::fmt;

/// Frame type tags (the first payload byte).
pub mod tag {
    /// Client → server: evaluate a batch (graph + rows).
    pub const SUBMIT: u8 = 0x01;
    /// Server → client: evaluation finished; digest + output rows.
    pub const RESULT: u8 = 0x02;
    /// Server → client: request refused; carries an `SV***` code.
    pub const ERROR: u8 = 0x03;
    /// Server → client: load shed; retry after the hinted delay.
    pub const SHED: u8 = 0x04;
    /// Server → client: deadline expired; partial work discarded.
    pub const DEADLINE: u8 = 0x05;
    /// Bidirectional liveness probe; the server echoes the token.
    pub const PING: u8 = 0x06;
    /// Client → server: begin graceful drain (also sent by SIGTERM).
    pub const DRAIN: u8 = 0x07;
    /// Client → server: request a stats snapshot; the server answers
    /// with a STATS frame carrying a JSON document.
    pub const STATS: u8 = 0x08;
}

/// Backend tags inside a `SUBMIT` frame. Any other tag, `1` included,
/// is refused with `SV003`.
pub mod backend {
    /// `TapeBackend::BitAccurate` (the default engine).
    pub const BIT: u8 = 0;
    /// `TapeBackend::Oracle` (trusted scalar soft-float stack).
    pub const ORACLE: u8 = 2;
}

/// Default cap on one frame's payload length (16 MiB). Connections can
/// be configured tighter; the codec refuses anything beyond the cap it
/// is handed before buffering the body.
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 << 20;

/// A decoded protocol frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Evaluate `rows` input vectors of `graph` on `backend`.
    Submit {
        /// One of the [`backend`] tags.
        backend: u8,
        /// Per-request deadline in milliseconds (`0` = server default).
        deadline_ms: u32,
        /// Number of input rows in `data`.
        rows: u32,
        /// UTF-8 datapath source text.
        graph: String,
        /// `rows * num_inputs` f64 values, little-endian.
        data: Vec<f64>,
    },
    /// Evaluation finished.
    Result {
        /// FNV-1a digest over the output doubles (`csfma-run` formula).
        digest: u64,
        /// Output rows that follow.
        rows: u32,
        /// How many of those rows are quarantined NaN rows.
        quarantined: u32,
        /// `rows * num_outputs` f64 values.
        data: Vec<f64>,
    },
    /// Request refused; `code` is the numeric part of an `SV***` id.
    Error {
        /// `1` for SV001, `2` for SV002, …
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Load shed before any work was done.
    Shed {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// Deadline expired at a chunk boundary; partial work discarded.
    Deadline {
        /// Wall time the request had consumed when it was cut off.
        elapsed_ms: u32,
    },
    /// Liveness probe (echoed back verbatim).
    Ping {
        /// Opaque token chosen by the sender.
        token: u64,
    },
    /// Begin graceful drain.
    Drain,
    /// Stats request (empty body) or response (JSON body).
    Stats {
        /// Empty in a request; a JSON document in a response.
        json: String,
    },
}

/// Why a byte sequence failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the connection's frame-size limit
    /// (diagnostic SV001).
    TooLarge {
        /// Declared payload length.
        declared: usize,
        /// The limit it exceeded.
        limit: usize,
    },
    /// The payload's type tag is not in [`tag`] (SV002).
    UnknownType(u8),
    /// The payload is shorter than its type's fixed fields, a contained
    /// length field points past the end, or trailing bytes follow a
    /// fully-parsed body (SV002).
    Malformed(&'static str),
    /// A text field is not valid UTF-8 (SV002).
    BadUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { declared, limit } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, data: &[f64]) {
    let start = out.len();
    out.resize(start + 8 * data.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Encode a frame, length prefix included, into one buffer sized up
/// front; the prefix is patched in once the body is written.
pub fn encode(frame: &Frame) -> Vec<u8> {
    // the variable-length fields, plus room for any kind's fixed ones
    let variable = match frame {
        Frame::Submit { graph, data, .. } => graph.len() + 8 * data.len(),
        Frame::Result { data, .. } => 8 * data.len(),
        Frame::Error { message, .. } => message.len(),
        Frame::Stats { json } => json.len(),
        _ => 0,
    };
    let mut out = Vec::with_capacity(32 + variable);
    put_u32(&mut out, 0);
    match frame {
        Frame::Submit {
            backend,
            deadline_ms,
            rows,
            graph,
            data,
        } => {
            out.push(tag::SUBMIT);
            out.push(*backend);
            put_u32(&mut out, *deadline_ms);
            put_u32(&mut out, *rows);
            put_u32(&mut out, graph.len() as u32);
            out.extend_from_slice(graph.as_bytes());
            put_f64s(&mut out, data);
        }
        Frame::Result {
            digest,
            rows,
            quarantined,
            data,
        } => {
            out.push(tag::RESULT);
            out.extend_from_slice(&digest.to_le_bytes());
            put_u32(&mut out, *rows);
            put_u32(&mut out, *quarantined);
            put_f64s(&mut out, data);
        }
        Frame::Error { code, message } => {
            out.push(tag::ERROR);
            out.extend_from_slice(&code.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Frame::Shed { retry_after_ms } => {
            out.push(tag::SHED);
            put_u32(&mut out, *retry_after_ms);
        }
        Frame::Deadline { elapsed_ms } => {
            out.push(tag::DEADLINE);
            put_u32(&mut out, *elapsed_ms);
        }
        Frame::Ping { token } => {
            out.push(tag::PING);
            out.extend_from_slice(&token.to_le_bytes());
        }
        Frame::Drain => out.push(tag::DRAIN),
        Frame::Stats { json } => {
            out.push(tag::STATS);
            out.extend_from_slice(json.as_bytes());
        }
    }
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Malformed(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn rest_f64s(&mut self, what: &'static str) -> Result<Vec<f64>, FrameError> {
        let rest = &self.buf[self.pos..];
        if !rest.len().is_multiple_of(8) {
            return Err(FrameError::Malformed(what));
        }
        self.pos = self.buf.len();
        Ok(rest
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn rest_utf8(&mut self) -> Result<String, FrameError> {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        String::from_utf8(rest.to_vec()).map_err(|_| FrameError::BadUtf8)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Malformed("trailing bytes after frame body"));
        }
        Ok(())
    }
}

/// Decode one frame's payload (the bytes after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let t = c.u8("empty payload")?;
    let frame = match t {
        tag::SUBMIT => {
            let backend = c.u8("submit backend")?;
            let deadline_ms = c.u32("submit deadline")?;
            let rows = c.u32("submit row count")?;
            let graph_len = c.u32("submit graph length")? as usize;
            let graph = String::from_utf8(c.take(graph_len, "submit graph text")?.to_vec())
                .map_err(|_| FrameError::BadUtf8)?;
            let data = c.rest_f64s("submit row data not a whole number of f64s")?;
            Frame::Submit {
                backend,
                deadline_ms,
                rows,
                graph,
                data,
            }
        }
        tag::RESULT => {
            let digest = c.u64("result digest")?;
            let rows = c.u32("result row count")?;
            let quarantined = c.u32("result quarantine count")?;
            let data = c.rest_f64s("result row data not a whole number of f64s")?;
            Frame::Result {
                digest,
                rows,
                quarantined,
                data,
            }
        }
        tag::ERROR => {
            let code = c.u16("error code")?;
            let message = c.rest_utf8()?;
            Frame::Error { code, message }
        }
        tag::SHED => Frame::Shed {
            retry_after_ms: c.u32("shed retry hint")?,
        },
        tag::DEADLINE => Frame::Deadline {
            elapsed_ms: c.u32("deadline elapsed time")?,
        },
        tag::PING => Frame::Ping {
            token: c.u64("ping token")?,
        },
        tag::DRAIN => Frame::Drain,
        tag::STATS => Frame::Stats {
            json: c.rest_utf8()?,
        },
        other => return Err(FrameError::UnknownType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental decode from a receive buffer.
///
/// Returns `Ok(None)` when `buf` holds only a partial frame (read more
/// bytes), or `Ok(Some((frame, consumed)))` — the caller drains
/// `consumed` bytes and loops. A declared length beyond `max_len` is
/// rejected *before* waiting for the body, so an attacker cannot make
/// the server buffer unbounded data.
pub fn decode(buf: &[u8], max_len: usize) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let declared = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if declared > max_len {
        return Err(FrameError::TooLarge {
            declared,
            limit: max_len,
        });
    }
    if declared == 0 {
        return Err(FrameError::Malformed("zero-length frame"));
    }
    if buf.len() - 4 < declared {
        return Ok(None);
    }
    let frame = decode_payload(&buf[4..4 + declared])?;
    Ok(Some((frame, 4 + declared)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode(&f);
        let (got, consumed) = decode(&bytes, DEFAULT_MAX_FRAME_LEN)
            .expect("decodes")
            .expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(got, f);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::Submit {
            backend: backend::BIT,
            deadline_ms: 250,
            rows: 2,
            graph: "out y = a*b + c;".into(),
            data: vec![1.0, -2.5, f64::NAN.to_bits() as f64, 0.0, 3.25, 9.0],
        });
        roundtrip(Frame::Result {
            digest: 0xDEAD_BEEF_CAFE_F00D,
            rows: 1,
            quarantined: 1,
            data: vec![f64::INFINITY, -0.0],
        });
        roundtrip(Frame::Error {
            code: 3,
            message: "SV003: no sink".into(),
        });
        roundtrip(Frame::Shed { retry_after_ms: 50 });
        roundtrip(Frame::Deadline { elapsed_ms: 107 });
        roundtrip(Frame::Ping { token: 7 });
        roundtrip(Frame::Drain);
        roundtrip(Frame::Stats {
            json: String::new(),
        });
        roundtrip(Frame::Stats {
            json: "{\"accepted\":3}".into(),
        });
    }

    #[test]
    fn partial_frames_ask_for_more_bytes() {
        let bytes = encode(&Frame::Ping { token: 99 });
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut], 1024), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_declaration_is_rejected_before_the_body_arrives() {
        // only the 4-byte prefix has arrived; the limit check must not
        // wait for the (never-coming) body
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1_000_000u32).to_le_bytes());
        assert_eq!(
            decode(&buf, 1024),
            Err(FrameError::TooLarge {
                declared: 1_000_000,
                limit: 1024
            })
        );
    }

    #[test]
    fn malformed_bodies_are_structured_errors_not_panics() {
        // zero-length frame
        assert!(matches!(
            decode(&0u32.to_le_bytes(), 1024),
            Err(FrameError::Malformed(_))
        ));
        // unknown tag
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.push(0x7F);
        assert_eq!(decode(&buf, 1024), Err(FrameError::UnknownType(0x7F)));
        // submit whose graph length points past the end
        let mut body = vec![tag::SUBMIT, backend::BIT];
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&400u32.to_le_bytes()); // graph_len > remaining
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert!(matches!(decode(&buf, 1024), Err(FrameError::Malformed(_))));
        // ping with trailing garbage
        let mut body = vec![tag::PING];
        body.extend_from_slice(&[0u8; 9]);
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert!(matches!(decode(&buf, 1024), Err(FrameError::Malformed(_))));
        // non-utf8 error message
        let mut body = vec![tag::ERROR, 1, 0];
        body.extend_from_slice(&[0xFF, 0xFE]);
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(decode(&buf, 1024), Err(FrameError::BadUtf8));
    }
}
