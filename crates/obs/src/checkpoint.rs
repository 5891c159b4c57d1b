//! Checkpoint sidecars: the JSONL stream *is* the checkpoint format.
//!
//! The determinism contract (DESIGN.md §3.7) makes a recorded stream a
//! pure function of the run's inputs — so a prefix of the stream *is* a
//! serialization of the run's state at that point, and a run killed
//! mid-flight can resume from its last complete prefix instead of
//! restarting from round 0. This module defines the durable pieces of
//! that story:
//!
//! * [`Checkpoint`] — the `#checkpoint ` sidecar record a
//!   [`JsonlRecorder`](crate::JsonlRecorder) emits every N progress
//!   events: the fold digest, logical coordinates (round, step), the
//!   event count, and the byte offset of the sidecar line itself.
//! * [`StreamDigest`] — the rolling FNV-1a 64 digest over event-line
//!   bytes (meta and sidecar lines excluded) that ties a checkpoint to
//!   the exact prefix it summarizes.
//!
//! Sidecar lines start with `#`, which no JSON object can, so the
//! reader ([`schema`](crate::schema)) tells them from events
//! structurally and every fold but [`RunState`](crate::replay::RunState)
//! skips them; the event stream with sidecars stripped is
//! byte-identical to one recorded without checkpointing (schema
//! v2-additive). The state *fold* that consumes a prefix and
//! reconstructs resumable run state lives in
//! [`replay::RunState`](crate::replay::RunState); the offline verifier
//! is `obs-report resume-check`.

use crate::schema::Fields;
use std::fmt;

/// Prefix of a checkpoint sidecar line (including the trailing space).
pub const CHECKPOINT_PREFIX: &str = "#checkpoint ";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A rolling FNV-1a 64-bit digest over the event-line bytes of a
/// stream (each line *including* its terminating newline; meta and
/// sidecar lines excluded). Both the emitting recorder and the reading
/// fold maintain one, so a checkpoint's digest pins the exact event
/// prefix it summarizes — independent of provenance and of whether
/// checkpointing was on.
///
/// It also counts the bytes it has consumed since it was created or
/// resumed. The count is work, not identity: a recorder that digests
/// each event line once consumes exactly the stream's event bytes, so
/// the count exposes a digest that re-reads a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest {
    hash: u64,
    bytes: u64,
}

impl StreamDigest {
    /// The digest of the empty stream.
    pub fn new() -> StreamDigest {
        StreamDigest::from_value(FNV_OFFSET)
    }

    /// A digest resumed from a previously-reported value (its byte count
    /// starts at zero).
    pub fn from_value(v: u64) -> StreamDigest {
        StreamDigest { hash: v, bytes: 0 }
    }

    /// Folds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.hash;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
        self.bytes += bytes.len() as u64;
    }

    /// Folds one event line (without its newline); the newline is
    /// digested unconditionally so a complete final line missing its
    /// `\n` on disk digests the same as a terminated one.
    pub fn update_line(&mut self, line: &str) {
        self.update(line.as_bytes());
        self.update(b"\n");
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// The bytes folded in since this digest was created or resumed.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The digest as the 16-hex-digit form used in checkpoint lines.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl Default for StreamDigest {
    fn default() -> StreamDigest {
        StreamDigest::new()
    }
}

/// One `#checkpoint ` sidecar record.
///
/// Emitted by a checkpointing [`JsonlRecorder`](crate::JsonlRecorder)
/// after every N progress events (`round_end` + `fix_step`), and parsed
/// back by [`Checkpoint::parse`]. `to_line` and `parse` round-trip
/// byte-exactly — resume relies on that to compute where the sidecar
/// line ends in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// `round_end` events folded so far (across all simulator runs).
    pub round: u64,
    /// `fix_step` events folded so far (across all fixer runs).
    pub step: u64,
    /// Event lines folded so far (meta and sidecar lines excluded).
    pub events: u64,
    /// Byte offset of this sidecar line's first byte in the recorder's
    /// own output (meta bytes included — it is a file offset).
    pub offset: u64,
    /// [`StreamDigest`] value over the event prefix, as emitted.
    pub digest: u64,
}

impl Checkpoint {
    /// Renders the sidecar line (no trailing newline). Fixed field
    /// order — part of the schema, like [`Event::to_jsonl`](crate::Event::to_jsonl).
    pub fn to_line(&self) -> String {
        format!(
            "{CHECKPOINT_PREFIX}{{\"round\":{},\"step\":{},\"events\":{},\"offset\":{},\"digest\":\"{:016x}\"}}",
            self.round, self.step, self.events, self.offset, self.digest
        )
    }

    /// The file offset one past this sidecar line's trailing newline —
    /// where a resumed recorder continues writing, and where the resume
    /// driver truncates a longer (possibly torn) file.
    pub fn resume_offset(&self) -> u64 {
        self.offset + self.to_line().len() as u64 + 1
    }

    /// Parses a `#checkpoint ` sidecar line (newline already stripped).
    ///
    /// # Errors
    ///
    /// A description of the malformed line: wrong prefix, invalid JSON
    /// payload, or missing/mistyped fields.
    pub fn parse(line: &str) -> Result<Checkpoint, String> {
        let payload = line
            .strip_prefix(CHECKPOINT_PREFIX)
            .ok_or_else(|| format!("not a checkpoint line: {line:?}"))?;
        let v: serde::Value = serde_json::from_str(payload)
            .map_err(|e| format!("checkpoint payload is not valid JSON: {e}"))?;
        let f = Fields {
            ty: "checkpoint",
            obj: &v,
        };
        let (round, step, events, offset) = (
            f.u64("round")?,
            f.u64("step")?,
            f.u64("events")?,
            f.u64("offset")?,
        );
        let digest = f.string("digest")?;
        let digest = match u64::from_str_radix(&digest, 16) {
            Ok(d) if digest.len() == 16 => d,
            _ => {
                return Err(format!(
                    "checkpoint field \"digest\" must be 16 hex digits, got {digest:?}"
                ))
            }
        };
        Ok(Checkpoint {
            round,
            step,
            events,
            offset,
            digest,
        })
    }
}

impl fmt::Display for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round {} / step {} / {} events / offset {} / digest {:016x}",
            self.round, self.step, self.events, self.offset, self.digest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_newline_normalized() {
        let mut a = StreamDigest::new();
        a.update_line("{\"type\":\"round_start\",\"round\":1,\"running\":2}");
        a.update_line("{\"type\":\"round_end\",\"round\":1}");
        let mut b = StreamDigest::new();
        b.update_line("{\"type\":\"round_end\",\"round\":1}");
        b.update_line("{\"type\":\"round_start\",\"round\":1,\"running\":2}");
        assert_ne!(a.value(), b.value());

        let mut c = StreamDigest::new();
        c.update(b"{\"type\":\"round_start\",\"round\":1,\"running\":2}\n");
        c.update(b"{\"type\":\"round_end\",\"round\":1}\n");
        assert_eq!(a.value(), c.value());
        assert_eq!(a.hex().len(), 16);
        // Each byte counts once, newlines included; a resumed digest
        // counts from zero.
        let line_bytes = b"{\"type\":\"round_end\",\"round\":1}\n".len() as u64;
        assert_eq!(b.bytes(), c.bytes());
        assert_eq!(StreamDigest::new().bytes(), 0);
        let mut r = StreamDigest::from_value(a.value());
        r.update_line("{\"type\":\"round_end\",\"round\":1}");
        assert_eq!(r.bytes(), line_bytes);
    }

    #[test]
    fn checkpoint_line_round_trips_byte_exactly() {
        let ck = Checkpoint {
            round: 12,
            step: 340,
            events: 1077,
            offset: 65_536,
            digest: 0x0123_4567_89ab_cdef,
        };
        let line = ck.to_line();
        assert!(line.starts_with("#checkpoint {\"round\":12,"));
        assert!(line.contains("\"digest\":\"0123456789abcdef\""));
        assert_eq!(Checkpoint::parse(&line).unwrap(), ck);
        assert_eq!(ck.resume_offset(), 65_536 + line.len() as u64 + 1);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Checkpoint::parse("{\"round\":1}").is_err());
        assert!(Checkpoint::parse("#checkpoint {oops").is_err());
        assert!(Checkpoint::parse("#checkpoint {\"round\":1}")
            .unwrap_err()
            .contains("step"));
        assert!(Checkpoint::parse(
            "#checkpoint {\"round\":1,\"step\":0,\"events\":1,\"offset\":0,\"digest\":\"xyz\"}"
        )
        .unwrap_err()
        .contains("digest"));
    }
}
