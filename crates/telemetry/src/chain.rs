//! Sequence numbering, hash chaining, and chain verification.
//!
//! Line format (one JSON object per line, fields in fixed order):
//!
//! ```text
//! {"seq":N,"prev":"<hex64>","type":"…",…payload…,"hash":"<hex64>"}
//! ```
//!
//! The hash is SHA-256 over the line's *head* — everything up to and
//! including the payload, closed with `}` — so `hash` covers `seq`,
//! `prev`, and the full payload. `prev` of event 0 is the 64-zero
//! genesis. Re-walking a stream therefore proves both integrity (no line
//! edited) and completeness (no line dropped or reordered); the chain
//! tip alone pins an entire run, which is what golden snapshots store.

use crate::event::{Event, EventKey};
use crate::json::{field, write_payload};
use crate::sha256::{push_hex, sha256, sha256_hex};
use crate::sink::EventSink;
use std::fmt::Write as _;

/// `prev` of the first event.
pub const GENESIS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// A finalized event: its stream position, the event itself, its line
/// hash, and the exact serialized line the JSONL sink writes.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedEvent {
    pub seq: u64,
    pub event: Event,
    pub hash: String,
    pub line: String,
}

/// What finalization (or a successful verify) reports about a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSummary {
    pub events: u64,
    /// Hash of the last event; [`GENESIS`] for an empty stream.
    pub tip: String,
}

/// `,"hash":"<hex64>"}` — what sealing puts in place of the head's
/// closing brace.
const SEAL_LEN: usize = 9 + 64 + 2;

/// Sort the collected events into canonical order, assign sequence
/// numbers, hash-chain, and emit through `sink`.
///
/// Keys must be unique (the engine's emission discipline guarantees it;
/// debug builds assert it): uniqueness is what makes the serialized
/// stream independent of collection order, and therefore byte-identical
/// between the sequential and sharded engines.
///
/// One [`SequencedEvent`] carries the whole stream: each event is
/// serialized into its reused `line`, and its `hash` is overwritten in
/// place, serving as the next event's `prev`. Sinks see each event only
/// for the duration of [`EventSink::emit`].
pub fn finalize<K: EventSink>(mut events: Vec<(EventKey, Event)>, sink: &mut K) -> ChainSummary {
    events.sort_by_key(|(key, _)| *key);
    debug_assert!(
        events.windows(2).all(|w| w[0].0 < w[1].0),
        "duplicate event key: stream order would be ambiguous"
    );

    let n = events.len() as u64;
    let mut events = events.into_iter().map(|(_, event)| event);
    let mut tip = GENESIS.to_string();
    if let Some(first) = events.next() {
        let mut current = SequencedEvent {
            seq: 0,
            event: first,
            hash: tip,
            line: String::with_capacity(512),
        };
        loop {
            seal_next(&mut current);
            sink.emit(&current);
            let Some(event) = events.next() else { break };
            current.seq += 1;
            current.event = event;
        }
        tip = current.hash;
    }
    sink.flush();
    ChainSummary { events: n, tip }
}

/// Serialize `current.event` into `current.line`, chained to
/// `current.hash` (the previous event's hash, or [`GENESIS`]), and
/// overwrite `current.hash` with this line's hash.
///
/// The hash covers the line's *head* — everything up to and including
/// the payload, closed with `}` — which is then sealed in place by
/// swapping that `}` for `,"hash":"…"}`.
fn seal_next(current: &mut SequencedEvent) {
    let SequencedEvent {
        seq,
        event,
        hash,
        line,
    } = current;
    line.clear();
    line.push_str("{\"seq\":");
    write!(line, "{seq}").expect("writing to a String cannot fail");
    line.push_str(",\"prev\":\"");
    line.push_str(hash);
    line.push_str("\",\"type\":\"");
    line.push_str(event.type_name());
    line.push('"');
    write_payload(event, line);
    line.push('}');

    let digest = sha256(line.as_bytes());
    hash.clear();
    push_hex(hash, &digest);
    line.pop();
    line.push_str(",\"hash\":\"");
    line.push_str(hash);
    line.push_str("\"}");
}

/// Where and why a chain walk failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainError {
    /// Stream position (line number, 0-based) of the offending line.
    pub seq: u64,
    pub reason: String,
    pub line: String,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chain broken at seq {}: {}\n  {}",
            self.seq, self.reason, self.line
        )
    }
}

/// Incremental chain verification: feed lines one at a time as they
/// appear (a live `tail --follow`, a streaming reader) and fail at the
/// first break. [`verify_lines`] is a walk over a complete stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainWalker {
    prev: String,
    count: u64,
}

impl ChainWalker {
    pub fn new() -> Self {
        ChainWalker {
            prev: GENESIS.to_string(),
            count: 0,
        }
    }

    /// Lines verified so far.
    pub fn events(&self) -> u64 {
        self.count
    }

    /// Current chain tip ([`GENESIS`] before the first line).
    pub fn tip(&self) -> &str {
        &self.prev
    }

    /// Verify the next line: re-hash its head, check the embedded hash,
    /// the `prev` linkage against the walker's tip, and the sequence
    /// number. On success the walker advances; on failure it is
    /// unchanged (the same line can be retried after repair).
    pub fn push(&mut self, line: &str) -> Result<(), ChainError> {
        let err = |reason: String| ChainError {
            seq: self.count,
            reason,
            line: line.to_string(),
        };
        if line.len() <= SEAL_LEN || !line.ends_with("\"}") {
            return Err(err("not a sealed event line".into()));
        }
        let embedded = field(line, "hash")
            .and_then(|h| h.strip_prefix('"'))
            .and_then(|h| h.strip_suffix('"'))
            .ok_or_else(|| err("missing hash field".into()))?;
        let mut head = String::with_capacity(line.len());
        head.push_str(&line[..line.len() - SEAL_LEN]);
        head.push('}');
        let recomputed = sha256_hex(head.as_bytes());
        if recomputed != embedded {
            return Err(err(format!(
                "hash mismatch: line claims {embedded}, content hashes to {recomputed}"
            )));
        }
        let claimed_prev = field(line, "prev")
            .and_then(|p| p.strip_prefix('"'))
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| err("missing prev field".into()))?;
        if claimed_prev != self.prev {
            return Err(err(format!(
                "prev linkage broken: line claims {claimed_prev}, chain is at {}",
                self.prev
            )));
        }
        let seq = field(line, "seq")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| err("missing seq field".into()))?;
        if seq != self.count {
            return Err(err(format!(
                "sequence gap: line claims seq {seq}, expected {}",
                self.count
            )));
        }
        self.prev = recomputed;
        self.count += 1;
        Ok(())
    }

    /// Close the walk into the summary a full [`verify_lines`] pass
    /// would have returned.
    pub fn summary(&self) -> ChainSummary {
        ChainSummary {
            events: self.count,
            tip: self.prev.clone(),
        }
    }
}

impl Default for ChainWalker {
    fn default() -> Self {
        ChainWalker::new()
    }
}

/// Re-walk a serialized stream: re-hash every line's head, check the
/// embedded hash, the `prev` linkage, and the sequence numbering.
/// Returns the verified [`ChainSummary`] or the first break.
pub fn verify_lines<'a, I>(lines: I) -> Result<ChainSummary, ChainError>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut walker = ChainWalker::new();
    for line in lines {
        walker.push(line)?;
    }
    Ok(walker.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::lane;
    use crate::sink::CaptureSink;

    fn sample_events() -> Vec<(EventKey, Event)> {
        vec![
            (
                EventKey::new(2, lane::RUN_ENDED, 0, 0),
                Event::RunEnded {
                    invocations: 2,
                    transfers: 0,
                    evictions: 0,
                    revocations: 0,
                    expired: 1,
                },
            ),
            (
                EventKey::new(0, lane::RUN_STARTED, 0, 0),
                Event::RunStarted {
                    invocations: 2,
                    functions: 1,
                    nodes: 2,
                    horizon_ms: 60_000,
                },
            ),
            (
                EventKey::new(1, lane::INVOCATION, 0, 0),
                Event::DecisionMade {
                    index: 1,
                    func: 0,
                    t_ms: 60_000,
                    exec_node: 1,
                    warm: true,
                    ka_node: -1,
                    ka_ms: 0,
                },
            ),
        ]
    }

    #[test]
    fn finalize_sorts_chains_and_verifies() {
        let mut cap = CaptureSink::default();
        let summary = finalize(sample_events(), &mut cap);
        assert_eq!(summary.events, 3);
        assert_eq!(cap.events[0].event.type_name(), "RunStarted");
        assert_eq!(cap.events[2].event.type_name(), "RunEnded");
        assert_eq!(summary.tip, cap.events[2].hash);
        let verified = verify_lines(cap.lines()).expect("fresh stream verifies");
        assert_eq!(verified, summary);
    }

    #[test]
    fn collection_order_does_not_change_bytes() {
        let mut a = CaptureSink::default();
        let mut b = CaptureSink::default();
        finalize(sample_events(), &mut a);
        let mut reversed = sample_events();
        reversed.reverse();
        finalize(reversed, &mut b);
        assert_eq!(a.lines(), b.lines());
    }

    #[test]
    fn tampering_breaks_the_chain_at_the_edited_line() {
        let mut cap = CaptureSink::default();
        finalize(sample_events(), &mut cap);
        let mut lines: Vec<String> = cap.lines().iter().map(|s| s.to_string()).collect();
        lines[1] = lines[1].replace("\"warm\":true", "\"warm\":false");
        let err = verify_lines(lines.iter().map(|s| s.as_str())).unwrap_err();
        assert_eq!(err.seq, 1);
        assert!(err.reason.contains("hash mismatch"), "{}", err.reason);
    }

    #[test]
    fn dropping_a_line_breaks_prev_linkage() {
        let mut cap = CaptureSink::default();
        finalize(sample_events(), &mut cap);
        let lines: Vec<&str> = cap.lines().to_vec();
        let err = verify_lines([lines[0], lines[2]]).unwrap_err();
        assert_eq!(err.seq, 1);
        assert!(err.reason.contains("prev linkage"), "{}", err.reason);
    }

    #[test]
    fn empty_stream_tip_is_genesis() {
        let mut cap = CaptureSink::default();
        let summary = finalize(Vec::new(), &mut cap);
        assert_eq!(summary.tip, GENESIS);
        assert_eq!(verify_lines([]).unwrap().tip, GENESIS);
    }
}
