//! The decision journal: an append-only, checksummed record of every
//! control-plane decision, written by the harness as slots complete.
//!
//! A checkpoint alone can only restore the controller to the last
//! snapshot; the journal closes the gap to the crash point. Each record
//! stores the slot's *raw pre-sanitize* metrics, the deployment the
//! decision saw, the post-projection decision, and the reconfiguration
//! outcome. A restarted controller replays the records after its
//! checkpoint slot — re-running `sanitize` and `decide` on the journaled
//! inputs — which deterministically rebuilds the exact learner and
//! sanitizer state at the crash point (the replay-identity guarantee
//! validated in `tests/recovery.rs`).
//!
//! Records are framed with the same seal as checkpoints
//! ([`crate::checkpoint::seal_into`]); a torn or missing record is detected
//! at replay time and routes recovery to the degraded fallback instead of
//! silently replaying wrong history.
//!
//! The checkpoint store keeps only the newest checkpoint, and a restore
//! replays only the slots after it, so the harness compacts the journal
//! to the records after each checkpoint it writes
//! ([`DecisionJournal::compact_through`]): its size is bounded by the
//! checkpoint cadence, not by the horizon.

use crate::checkpoint::{
    decode_slot_metrics, seal_into, unseal, write_slot_metrics, CheckpointError,
};
use crate::json::{self, Json};
use crate::sanitize::RawSlot;

/// What happened to the reconfiguration decided at a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigOutcome {
    /// The decided deployment was applied.
    Applied,
    /// The attempt failed (injected fault); backoff advanced.
    Failed,
    /// No attempt was made (backoff window or degraded fallback hold).
    Held,
}

impl ReconfigOutcome {
    fn as_str(self) -> &'static str {
        match self {
            ReconfigOutcome::Applied => "applied",
            ReconfigOutcome::Failed => "failed",
            ReconfigOutcome::Held => "held",
        }
    }

    fn from_str(s: &str) -> Option<ReconfigOutcome> {
        match s {
            "applied" => Some(ReconfigOutcome::Applied),
            "failed" => Some(ReconfigOutcome::Failed),
            "held" => Some(ReconfigOutcome::Held),
            _ => None,
        }
    }
}

/// One slot's journal entry.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    pub t: usize,
    /// Raw engine snapshot *before* sanitization — replay re-runs the
    /// sanitizer so its internal history is rebuilt exactly.
    pub raw: RawSlot,
    /// Deployment in effect when the decision was made.
    pub deployment_before: Vec<usize>,
    /// The decided (clamped + budget-projected) target deployment.
    pub decided: Vec<usize>,
    pub outcome: ReconfigOutcome,
}

/// Why a journal range could not be replayed. Like checkpoint failures,
/// these route recovery to the degraded fallback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The record for `slot` failed its checksum or did not decode.
    Corrupt { slot: usize, detail: String },
    /// A slot in the requested range has no record.
    Gap { slot: usize },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Corrupt { slot, detail } => {
                write!(f, "journal record for slot {slot} corrupt: {detail}")
            }
            JournalError::Gap { slot } => {
                write!(f, "journal has no record for slot {slot}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl JournalRecord {
    /// Writes the record's JSON body into `out` without allocating —
    /// byte-identical to the [`Json`] tree this codec originally built
    /// (the journal appends every slot, so the tree construction was on
    /// the controller hot path).
    fn write_body(&self, out: &mut String) {
        out.push_str("{\"t\":");
        json::push_usize(self.t, out);
        out.push_str(",\"raw\":");
        write_slot_metrics(self.raw.unsanitized(), out);
        out.push_str(",\"deployment_before\":[");
        for (i, &x) in self.deployment_before.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_usize(x, out);
        }
        out.push_str("],\"decided\":[");
        for (i, &x) in self.decided.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_usize(x, out);
        }
        out.push_str("],\"outcome\":\"");
        json::escape_into(self.outcome.as_str(), out);
        out.push_str("\"}");
    }

    /// Serializes to a sealed line.
    pub fn encode(&self) -> String {
        let mut line = String::new();
        seal_into(&mut line, |body| self.write_body(body));
        line
    }

    /// Deserializes a sealed line.
    pub fn decode(line: &str) -> Result<JournalRecord, String> {
        let body = unseal(line)?;
        let j = json::parse_json(body)?;
        let field = |k: &str| format!("missing/invalid field `{k}`");
        Ok(JournalRecord {
            t: j.get("t")
                .and_then(Json::as_usize)
                .ok_or_else(|| field("t"))?,
            raw: decode_slot_metrics(j.get("raw").ok_or_else(|| field("raw"))?)
                .map(RawSlot::new)
                .map_err(|e: CheckpointError| e.to_string())?,
            deployment_before: j
                .get("deployment_before")
                .and_then(json::usize_vec)
                .ok_or_else(|| field("deployment_before"))?,
            decided: j
                .get("decided")
                .and_then(json::usize_vec)
                .ok_or_else(|| field("decided"))?,
            outcome: j
                .get("outcome")
                .and_then(Json::as_str)
                .and_then(ReconfigOutcome::from_str)
                .ok_or_else(|| field("outcome"))?,
        })
    }
}

/// The append-only journal. In-memory (the simulator's "durable" log) —
/// one sealed line per slot, never rewritten, dropped once a checkpoint
/// covers it.
#[derive(Clone, Debug, Default)]
pub struct DecisionJournal {
    /// `(slot, sealed line)` pairs in append order: the slot is the
    /// in-memory form of a log's offset index, so a replay finds its
    /// records without decoding any other line.
    lines: Vec<(usize, String)>,
    /// Reusable buffer [`DecisionJournal::append`] seals each line into;
    /// never part of the log itself.
    scratch: String,
}

impl DecisionJournal {
    pub fn new() -> DecisionJournal {
        DecisionJournal::default()
    }

    /// Appends one slot's record. The only allocation is the sealed line
    /// itself (the durable log entry), an exact-size copy of the line
    /// sealed in a reused scratch buffer.
    pub fn append(&mut self, record: &JournalRecord) {
        self.scratch.clear();
        seal_into(&mut self.scratch, |body| record.write_body(body));
        self.lines.push((record.t, self.scratch.clone()));
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Drops every record at or before `slot`: the harness calls this once
    /// the checkpoint of `slot` is written, since the store keeps only that
    /// checkpoint and a restore replays only the slots after it.
    pub fn compact_through(&mut self, slot: usize) {
        self.lines.retain(|&(s, _)| s > slot);
    }

    /// Chaos hook: tear the record for `slot` (truncated tail, as a crash
    /// mid-append would leave). No-op when the journal holds no such
    /// record.
    pub fn corrupt_record(&mut self, slot: usize) {
        if let Some((_, line)) = self.lines.iter_mut().find(|(s, _)| *s == slot) {
            let keep = line.len() / 2;
            line.truncate(keep);
        }
    }

    /// Decodes and returns the records for slots `from_slot..to_slot`
    /// (half-open), in slot order, verifying checksums and completeness.
    /// Only lines indexed under a slot in the range are decoded; a decoded
    /// `t` that disagrees with its index slot counts as corrupt.
    ///
    /// A torn line fails the replay only when the range is incomplete,
    /// and then as [`JournalError::Corrupt`], since the missing slot was
    /// likely inside it. A torn record *outside* the range is never read:
    /// it does not block recovery, and a range that also has a gap reports
    /// [`JournalError::Gap`].
    pub fn replay_range(
        &self,
        from_slot: usize,
        to_slot: usize,
    ) -> Result<Vec<JournalRecord>, JournalError> {
        let mut by_slot: Vec<Option<JournalRecord>> = vec![None; to_slot.saturating_sub(from_slot)];
        let mut first_corrupt: Option<(usize, String)> = None;
        for (slot, line) in &self.lines {
            let Some(cell) = slot
                .checked_sub(from_slot)
                .and_then(|offset| by_slot.get_mut(offset))
            else {
                continue;
            };
            let decoded = JournalRecord::decode(line).and_then(|rec| {
                if rec.t == *slot {
                    Ok(rec)
                } else {
                    Err(format!(
                        "record for slot {} is indexed under slot {slot}",
                        rec.t
                    ))
                }
            });
            match decoded {
                Ok(rec) => *cell = Some(rec),
                Err(detail) => {
                    if first_corrupt.is_none() {
                        first_corrupt = Some((*slot, detail));
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(by_slot.len());
        for (offset, cell) in by_slot.into_iter().enumerate() {
            match cell {
                Some(rec) => out.push(rec),
                None => {
                    // Corruption is the actionable cause when present —
                    // the missing slot was likely inside the torn record.
                    return Err(match first_corrupt {
                        Some((slot, detail)) => JournalError::Corrupt { slot, detail },
                        None => JournalError::Gap {
                            slot: from_slot + offset,
                        },
                    });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{OperatorMetrics, SlotMetrics};

    fn record(t: usize) -> JournalRecord {
        JournalRecord {
            t,
            raw: RawSlot::new(SlotMetrics {
                t,
                sim_time_secs: 600.0 * crate::convert::usize_to_f64(t + 1),
                throughput: 90.5,
                processed_tuples: 54_300.0,
                dropped_tuples: 0.0,
                cost_dollars: 0.05,
                pods: 2,
                source_rates: vec![100.0],
                reconfigured: false,
                pause_secs: 0.0,
                operators: vec![OperatorMetrics {
                    name: "op".to_string(),
                    tasks: 2,
                    input_rate: 100.0,
                    input_rates: vec![100.0],
                    output_rate: 90.5,
                    offered_load: 100.0,
                    cpu_util: 0.55,
                    capacity_sample: f64::NAN, // raw records may carry NaN
                    buffer_tuples: 3.25,
                    latency_estimate_secs: 0.02,
                    backpressure: false,
                    degraded: false,
                }],
            }),
            deployment_before: vec![2],
            decided: vec![3],
            outcome: ReconfigOutcome::Applied,
        }
    }

    #[test]
    fn record_roundtrip_preserves_nan_payloads() {
        let rec = record(4);
        let back = JournalRecord::decode(&rec.encode()).expect("decode");
        assert_eq!(back.t, rec.t);
        assert_eq!(back.decided, rec.decided);
        assert_eq!(back.outcome, rec.outcome);
        // NaN != NaN, so compare bits explicitly.
        assert_eq!(
            back.raw.unsanitized().operators[0]
                .capacity_sample
                .to_bits(),
            rec.raw.unsanitized().operators[0].capacity_sample.to_bits()
        );
    }

    #[test]
    fn append_line_is_byte_identical_to_encode() {
        // `append` seals into a reused scratch buffer; the stored line
        // must stay byte-identical to the allocating `encode()` path (and
        // to the tree-based codec both were derived from — see
        // `checkpoint::tests`).
        let mut journal = DecisionJournal::new();
        for t in 0..4 {
            journal.append(&record(t));
        }
        for t in 0..4 {
            assert_eq!(journal.lines[t], (t, record(t).encode()), "slot {t}");
        }
        // And the wire form still carries the seal frame.
        let tree_body = crate::json::parse_json(
            crate::checkpoint::unseal(&journal.lines[2].1).expect("sealed"),
        );
        assert!(tree_body.is_ok());
    }

    #[test]
    fn replay_range_returns_slots_in_order() {
        let mut journal = DecisionJournal::new();
        for t in 0..10 {
            journal.append(&record(t));
        }
        let recs = journal.replay_range(3, 7).expect("replay");
        assert_eq!(
            recs.iter().map(|r| r.t).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        assert!(journal.replay_range(5, 5).expect("empty range").is_empty());
    }

    #[test]
    fn corrupt_record_fails_replay_loudly() {
        let mut journal = DecisionJournal::new();
        for t in 0..6 {
            journal.append(&record(t));
        }
        journal.corrupt_record(4);
        match journal.replay_range(2, 6) {
            Err(JournalError::Corrupt { slot: 4, .. }) => {}
            other => panic!("expected Corrupt at 4, got {other:?}"),
        }
    }

    #[test]
    fn compaction_keeps_only_the_records_after_the_slot() {
        let mut journal = DecisionJournal::new();
        for t in 0..6 {
            journal.append(&record(t));
        }
        journal.compact_through(3);
        assert_eq!(journal.len(), 2);
        let recs = journal.replay_range(4, 6).expect("the suffix survives");
        assert_eq!(recs.iter().map(|r| r.t).collect::<Vec<_>>(), vec![4, 5]);
        // The chaos hook still finds a record by its slot after the
        // indices moved, and a compacted slot is a gap.
        journal.corrupt_record(5);
        match journal.replay_range(4, 6) {
            Err(JournalError::Corrupt { slot: 5, .. }) => {}
            other => panic!("expected Corrupt at 5, got {other:?}"),
        }
        match journal.replay_range(3, 5) {
            Err(JournalError::Gap { slot: 3 }) => {}
            other => panic!("expected Gap at 3, got {other:?}"),
        }
        journal.corrupt_record(0); // compacted away: a no-op
        journal.compact_through(9);
        assert!(journal.is_empty());
    }

    #[test]
    fn replay_reads_only_the_range() {
        let mut journal = DecisionJournal::new();
        for t in 0..8 {
            journal.append(&record(t));
        }
        // Torn records before and after the range are never decoded.
        journal.corrupt_record(1);
        journal.corrupt_record(7);
        let recs = journal.replay_range(3, 6).expect("range is intact");
        assert_eq!(recs.iter().map(|r| r.t).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn gap_beside_a_torn_record_outside_the_range_is_a_gap() {
        let mut journal = DecisionJournal::new();
        for t in [0usize, 1, 2, 4] {
            journal.append(&record(t));
        }
        journal.corrupt_record(0); // slot 0, outside 2..5
        match journal.replay_range(2, 5) {
            Err(JournalError::Gap { slot: 3 }) => {}
            other => panic!("expected Gap at 3, got {other:?}"),
        }
    }

    #[test]
    fn record_under_the_wrong_slot_is_corrupt() {
        let mut journal = DecisionJournal::new();
        journal.append(&record(0));
        journal.lines.push((1, record(5).encode()));
        match journal.replay_range(0, 2) {
            Err(JournalError::Corrupt { slot: 1, detail }) => {
                assert!(detail.contains("slot 5"), "{detail}")
            }
            other => panic!("expected Corrupt at 1, got {other:?}"),
        }
    }

    #[test]
    fn missing_slot_is_a_gap() {
        let mut journal = DecisionJournal::new();
        journal.append(&record(0));
        journal.append(&record(2)); // slot 1 never journaled
        match journal.replay_range(0, 3) {
            Err(JournalError::Gap { slot: 1 }) => {}
            other => panic!("expected Gap at 1, got {other:?}"),
        }
    }
}
