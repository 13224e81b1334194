//! Controller checkpoints: durable snapshots of all learner state.
//!
//! Dragster's regret guarantee assumes the controller never loses its
//! learned state, but the controller process is as mortal as the pods it
//! manages. A [`Checkpoint`] captures everything the control plane needs
//! to resume mid-run — the autoscaler's exported learner state (GP
//! observation set, saddle/OGD duals, UCB statistics, RNG positions),
//! the sanitizer history, the retry/backoff state, and the deployment in
//! effect — serialized through the workspace's dependency-free
//! [`crate::json`] codec, and sealed with a word-wise checksum
//! ([`seal_into`]) so torn writes are *detected*, never silently restored.
//!
//! The recovery policy lives in [`crate::harness`]: a checkpoint that
//! validates (checksum + version + staleness bound) is restored and the
//! decision journal ([`crate::journal`]) replayed on top; one that does
//! not routes the run to the degraded hold-last-deployment fallback.

use crate::json::{self, Json};
use crate::metrics::{OperatorMetrics, SlotMetrics};
use crate::sanitize::{SanitizeConfig, SanitizerSnapshot};

/// Checkpoint format version; bump on layout changes. Version 2 packs
/// every float vector into one string ([`json::bits_arr`]) and seals with
/// the word-wise checksum of [`seal_into`].
pub const CHECKPOINT_VERSION: usize = 2;

/// Why a checkpoint could not be restored. Every variant routes the
/// harness to the degraded fallback rather than aborting the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// No checkpoint has ever been written.
    Missing,
    /// The blob's checksum does not match (torn/corrupt write).
    Torn { detail: String },
    /// The blob parses but does not decode to a valid checkpoint.
    Malformed { detail: String },
    /// The newest valid checkpoint is older than the staleness bound.
    Stale {
        age_slots: usize,
        max_age_slots: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no checkpoint available"),
            CheckpointError::Torn { detail } => {
                write!(f, "checkpoint torn/corrupt: {detail}")
            }
            CheckpointError::Malformed { detail } => {
                write!(f, "checkpoint malformed: {detail}")
            }
            CheckpointError::Stale {
                age_slots,
                max_age_slots,
            } => write!(
                f,
                "checkpoint stale: {age_slots} slots old (bound {max_age_slots})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Retry/backoff position of the reconfiguration loop (part of the
/// harness state a restarted controller must not forget — otherwise a
/// crash would silently reset an in-progress exponential backoff).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetrySnapshot {
    pub consecutive_failures: usize,
    /// First slot at which the next reconfiguration may be attempted.
    pub next_attempt: usize,
}

/// A complete controller checkpoint taken at the end of `slot`.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub version: usize,
    /// Slot whose decision this checkpoint reflects (taken post-slot).
    pub slot: usize,
    /// Autoscaler scheme name, so a restore onto the wrong policy fails
    /// loudly instead of importing foreign state.
    pub scheme: String,
    /// Deployment in effect when the checkpoint was taken.
    pub deployment: Vec<usize>,
    /// Opaque learner state from
    /// [`Autoscaler::export_state`](crate::harness::Autoscaler::export_state);
    /// `None` for stateless policies.
    pub scaler: Option<Json>,
    pub sanitizer: SanitizerSnapshot,
    pub retry: RetrySnapshot,
}

// ---------------------------------------------------------------------------
// Sealing: `<checksum>\n<body>` framing shared with the journal.
// ---------------------------------------------------------------------------

/// The frame before a sealed body: 16 hex digits of its checksum and `\n`.
const FRAME: &str = "0000000000000000\n";

/// One step of the seal's checksum: FNV-1a's xor-then-multiply, then a
/// rotation. The multiply carries a difference only toward the high bits,
/// so without the rotation a difference that reaches bit 63 stays there
/// and a second flip of bit 63 in any later word cancels it; rotating
/// brings it back down for the next multiply to spread. Each step is a
/// bijection of the state, so a change confined to one word is always
/// detected.
fn checksum_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
}

/// The seal's checksum of `body`: the FNV-1a offset basis, one
/// [`checksum_step`] per little-endian 8-byte word, then one per tail byte,
/// and the byte length last. Eight bytes a step is what makes sealing a
/// long checkpoint cheap; it is not [`json::fnv1a64`], which hashes one
/// byte a step and stays the hash of decision streams and lint findings.
fn checksum(body: &[u8]) -> u64 {
    let mut words = body.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for word in &mut words {
        h = checksum_step(h, u64::from_le_bytes(word.try_into().unwrap_or_default()));
    }
    for &b in words.remainder() {
        h = checksum_step(h, u64::from(b));
    }
    checksum_step(h, u64::try_from(body.len()).unwrap_or(u64::MAX))
}

/// Appends one sealed record to `out`: the checksum of the body as 16 hex
/// digits, `\n`, then the body `write_body` appends. The checksum's place
/// is reserved first and filled in once the body is complete, so the body
/// is written once and never copied. Checkpoints and journal lines are
/// both sealed here.
pub fn seal_into(out: &mut String, write_body: impl FnOnce(&mut String)) {
    let start = out.len();
    out.push_str(FRAME);
    write_body(out);
    let body = out
        .as_bytes()
        .get(start + FRAME.len()..)
        .unwrap_or_default();
    let digits = json::hex_digits(checksum(body));
    out.replace_range(
        start..start + digits.len(),
        std::str::from_utf8(&digits).unwrap_or_default(),
    );
}

/// Verifies and strips the checksum frame added by [`seal_into`].
pub fn unseal(blob: &str) -> Result<&str, String> {
    let Some((crc_hex, body)) = blob.split_once('\n') else {
        return Err("missing checksum frame".to_string());
    };
    let Some(expected) = json::u64_from_hex(crc_hex) else {
        return Err(format!("bad checksum field `{crc_hex}`"));
    };
    let actual = checksum(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checksum mismatch: stored {expected:016x}, computed {actual:016x}"
        ));
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

fn missing(field: &str) -> CheckpointError {
    CheckpointError::Malformed {
        detail: format!("missing/invalid field `{field}`"),
    }
}

/// Encodes one operator reading bit-exactly.
pub fn encode_operator_metrics(om: &OperatorMetrics) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(om.name.clone())),
        ("tasks".to_string(), json::num(om.tasks)),
        ("input_rate".to_string(), json::bits(om.input_rate)),
        ("input_rates".to_string(), json::bits_arr(&om.input_rates)),
        ("output_rate".to_string(), json::bits(om.output_rate)),
        ("offered_load".to_string(), json::bits(om.offered_load)),
        ("cpu_util".to_string(), json::bits(om.cpu_util)),
        (
            "capacity_sample".to_string(),
            json::bits(om.capacity_sample),
        ),
        ("buffer_tuples".to_string(), json::bits(om.buffer_tuples)),
        (
            "latency_estimate_secs".to_string(),
            json::bits(om.latency_estimate_secs),
        ),
        ("backpressure".to_string(), Json::Bool(om.backpressure)),
        ("degraded".to_string(), Json::Bool(om.degraded)),
    ])
}

/// Writes one operator reading directly into `out`, byte-identical to
/// `encode_operator_metrics(om).render()` but without building the
/// intermediate [`Json`] tree. The journal appends one record per slot,
/// which put the tree construction (a dozen `String` key allocations per
/// operator) on the controller hot path; the writer pair keeps the wire
/// format while allocating nothing. Byte-equality with the tree encoder
/// is pinned by tests, so [`decode_operator_metrics`] is the inverse of
/// both.
pub fn write_operator_metrics(om: &OperatorMetrics, out: &mut String) {
    out.push_str("{\"name\":\"");
    json::escape_into(&om.name, out);
    out.push_str("\",\"tasks\":");
    json::push_usize(om.tasks, out);
    out.push_str(",\"input_rate\":\"");
    json::push_f64_hex(om.input_rate, out);
    out.push_str("\",\"input_rates\":\"");
    json::push_bits(&om.input_rates, out);
    out.push_str("\",\"output_rate\":\"");
    json::push_f64_hex(om.output_rate, out);
    out.push_str("\",\"offered_load\":\"");
    json::push_f64_hex(om.offered_load, out);
    out.push_str("\",\"cpu_util\":\"");
    json::push_f64_hex(om.cpu_util, out);
    out.push_str("\",\"capacity_sample\":\"");
    json::push_f64_hex(om.capacity_sample, out);
    out.push_str("\",\"buffer_tuples\":\"");
    json::push_f64_hex(om.buffer_tuples, out);
    out.push_str("\",\"latency_estimate_secs\":\"");
    json::push_f64_hex(om.latency_estimate_secs, out);
    out.push_str("\",\"backpressure\":");
    out.push_str(if om.backpressure { "true" } else { "false" });
    out.push_str(",\"degraded\":");
    out.push_str(if om.degraded { "true" } else { "false" });
    out.push('}');
}

/// Decodes one operator reading (inverse of [`encode_operator_metrics`]).
pub fn decode_operator_metrics(j: &Json) -> Result<OperatorMetrics, CheckpointError> {
    let f = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64_bits)
            .ok_or_else(|| missing(k))
    };
    Ok(OperatorMetrics {
        name: j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("name"))?
            .to_string(),
        tasks: j
            .get("tasks")
            .and_then(Json::as_usize)
            .ok_or_else(|| missing("tasks"))?,
        input_rate: f("input_rate")?,
        input_rates: j
            .get("input_rates")
            .and_then(json::bits_vec)
            .ok_or_else(|| missing("input_rates"))?,
        output_rate: f("output_rate")?,
        offered_load: f("offered_load")?,
        cpu_util: f("cpu_util")?,
        capacity_sample: f("capacity_sample")?,
        buffer_tuples: f("buffer_tuples")?,
        latency_estimate_secs: f("latency_estimate_secs")?,
        backpressure: j
            .get("backpressure")
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("backpressure"))?,
        degraded: j
            .get("degraded")
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("degraded"))?,
    })
}

/// Encodes one raw slot snapshot bit-exactly (used by the journal, whose
/// records store *pre-sanitize* metrics for replay).
pub fn encode_slot_metrics(m: &SlotMetrics) -> Json {
    Json::Obj(vec![
        ("t".to_string(), json::num(m.t)),
        ("sim_time_secs".to_string(), json::bits(m.sim_time_secs)),
        ("throughput".to_string(), json::bits(m.throughput)),
        (
            "processed_tuples".to_string(),
            json::bits(m.processed_tuples),
        ),
        ("dropped_tuples".to_string(), json::bits(m.dropped_tuples)),
        ("cost_dollars".to_string(), json::bits(m.cost_dollars)),
        ("pods".to_string(), json::num(m.pods)),
        ("source_rates".to_string(), json::bits_arr(&m.source_rates)),
        ("reconfigured".to_string(), Json::Bool(m.reconfigured)),
        ("pause_secs".to_string(), json::bits(m.pause_secs)),
        (
            "operators".to_string(),
            Json::Arr(m.operators.iter().map(encode_operator_metrics).collect()),
        ),
    ])
}

/// Writes one raw slot snapshot directly into `out`, byte-identical to
/// `encode_slot_metrics(m).render()` (see [`write_operator_metrics`] for
/// why the allocation-free form exists).
pub fn write_slot_metrics(m: &SlotMetrics, out: &mut String) {
    out.push_str("{\"t\":");
    json::push_usize(m.t, out);
    out.push_str(",\"sim_time_secs\":\"");
    json::push_f64_hex(m.sim_time_secs, out);
    out.push_str("\",\"throughput\":\"");
    json::push_f64_hex(m.throughput, out);
    out.push_str("\",\"processed_tuples\":\"");
    json::push_f64_hex(m.processed_tuples, out);
    out.push_str("\",\"dropped_tuples\":\"");
    json::push_f64_hex(m.dropped_tuples, out);
    out.push_str("\",\"cost_dollars\":\"");
    json::push_f64_hex(m.cost_dollars, out);
    out.push_str("\",\"pods\":");
    json::push_usize(m.pods, out);
    out.push_str(",\"source_rates\":\"");
    json::push_bits(&m.source_rates, out);
    out.push_str("\",\"reconfigured\":");
    out.push_str(if m.reconfigured { "true" } else { "false" });
    out.push_str(",\"pause_secs\":\"");
    json::push_f64_hex(m.pause_secs, out);
    out.push_str("\",\"operators\":[");
    for (i, om) in m.operators.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_operator_metrics(om, out);
    }
    out.push_str("]}");
}

/// Decodes one slot snapshot (inverse of [`encode_slot_metrics`]).
pub fn decode_slot_metrics(j: &Json) -> Result<SlotMetrics, CheckpointError> {
    let f = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64_bits)
            .ok_or_else(|| missing(k))
    };
    let operators = j
        .get("operators")
        .and_then(Json::as_arr)
        .ok_or_else(|| missing("operators"))?
        .iter()
        .map(decode_operator_metrics)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SlotMetrics {
        t: j.get("t")
            .and_then(Json::as_usize)
            .ok_or_else(|| missing("t"))?,
        sim_time_secs: f("sim_time_secs")?,
        throughput: f("throughput")?,
        processed_tuples: f("processed_tuples")?,
        dropped_tuples: f("dropped_tuples")?,
        cost_dollars: f("cost_dollars")?,
        pods: j
            .get("pods")
            .and_then(Json::as_usize)
            .ok_or_else(|| missing("pods"))?,
        source_rates: j
            .get("source_rates")
            .and_then(json::bits_vec)
            .ok_or_else(|| missing("source_rates"))?,
        reconfigured: j
            .get("reconfigured")
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("reconfigured"))?,
        pause_secs: f("pause_secs")?,
        operators,
    })
}

/// Writes the sanitizer snapshot into `out` without building a [`Json`]
/// tree.
fn encode_sanitizer(s: &SanitizerSnapshot, out: &mut String) {
    out.push_str("{\"spike_factor\":\"");
    json::push_f64_hex(s.cfg.spike_factor, out);
    out.push_str("\",\"min_history\":");
    json::num(s.cfg.min_history).render_into(out);
    out.push_str(",\"last_valid\":[");
    for (i, lv) in s.last_valid.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match lv {
            Some(om) => write_operator_metrics(om, out),
            None => out.push_str("null"),
        }
    }
    out.push_str("],\"per_task_max\":\"");
    json::push_bits(&s.per_task_max, out);
    out.push_str("\",\"accepted\":[");
    for (i, &a) in s.accepted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::num(a).render_into(out);
    }
    out.push_str("]}");
}

fn decode_sanitizer(j: &Json) -> Result<SanitizerSnapshot, CheckpointError> {
    let last_valid = j
        .get("last_valid")
        .and_then(Json::as_arr)
        .ok_or_else(|| missing("last_valid"))?
        .iter()
        .map(|lv| match lv {
            Json::Null => Ok(None),
            other => decode_operator_metrics(other).map(Some),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SanitizerSnapshot {
        cfg: SanitizeConfig {
            spike_factor: j
                .get("spike_factor")
                .and_then(Json::as_f64_bits)
                .ok_or_else(|| missing("spike_factor"))?,
            min_history: j
                .get("min_history")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("min_history"))?,
        },
        last_valid,
        per_task_max: j
            .get("per_task_max")
            .and_then(json::bits_vec)
            .ok_or_else(|| missing("per_task_max"))?,
        accepted: j
            .get("accepted")
            .and_then(json::usize_vec)
            .ok_or_else(|| missing("accepted"))?,
    })
}

impl Checkpoint {
    /// Serializes to a sealed blob (`checksum\n{json}`).
    pub fn encode(&self) -> String {
        let mut blob = String::new();
        self.encode_into(&mut blob);
        blob
    }

    /// Appends the sealed blob to `out`. The body is written into `out`
    /// once, behind the checksum's reserved place: the learner state is
    /// rendered by reference, so no part of the state tree is copied, and
    /// counts render through [`json::num`], so the bytes are those of the
    /// equivalent [`Json`] tree.
    fn encode_into(&self, out: &mut String) {
        seal_into(out, |body| {
            body.push_str("{\"version\":");
            json::num(self.version).render_into(body);
            body.push_str(",\"slot\":");
            json::num(self.slot).render_into(body);
            body.push_str(",\"scheme\":\"");
            json::escape_into(&self.scheme, body);
            body.push_str("\",\"deployment\":[");
            for (i, &t) in self.deployment.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                json::num(t).render_into(body);
            }
            body.push_str("],\"scaler\":");
            match &self.scaler {
                Some(state) => state.render_into(body),
                None => body.push_str("null"),
            }
            body.push_str(",\"sanitizer\":");
            encode_sanitizer(&self.sanitizer, body);
            body.push_str(",\"retry_consecutive_failures\":");
            json::num(self.retry.consecutive_failures).render_into(body);
            body.push_str(",\"retry_next_attempt\":");
            json::num(self.retry.next_attempt).render_into(body);
            body.push('}');
        });
    }

    /// Deserializes and validates a sealed blob. Checksum failures come
    /// back as [`CheckpointError::Torn`]; structural problems as
    /// [`CheckpointError::Malformed`]. The learner state is moved out of
    /// the parsed document, not cloned.
    pub fn decode(blob: &str) -> Result<Checkpoint, CheckpointError> {
        let body = unseal(blob).map_err(|detail| CheckpointError::Torn { detail })?;
        let mut j =
            json::parse_json(body).map_err(|detail| CheckpointError::Malformed { detail })?;
        let version = j
            .get("version")
            .and_then(Json::as_usize)
            .ok_or_else(|| missing("version"))?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Malformed {
                detail: format!("unsupported version {version}"),
            });
        }
        let scaler = match j.take("scaler") {
            None | Some(Json::Null) => None,
            other => other,
        };
        Ok(Checkpoint {
            version,
            slot: j
                .get("slot")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("slot"))?,
            scheme: j
                .get("scheme")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("scheme"))?
                .to_string(),
            deployment: j
                .get("deployment")
                .and_then(json::usize_vec)
                .ok_or_else(|| missing("deployment"))?,
            scaler,
            sanitizer: decode_sanitizer(j.get("sanitizer").ok_or_else(|| missing("sanitizer"))?)?,
            retry: RetrySnapshot {
                consecutive_failures: j
                    .get("retry_consecutive_failures")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| missing("retry_consecutive_failures"))?,
                next_attempt: j
                    .get("retry_next_attempt")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| missing("retry_next_attempt"))?,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Store.
// ---------------------------------------------------------------------------

/// The controller's stable storage for checkpoints: keeps the newest
/// sealed blob. In-memory here (the simulator's "durable" store), but the
/// interface — write sealed blobs, validate on load, tolerate torn data —
/// is exactly what a file- or object-store-backed implementation needs.
///
/// It holds two buffers: the newest blob and a spare that the next write
/// encodes into, so the newest stays whole until its successor is
/// complete, and a steady write reuses both allocations.
#[derive(Clone, Debug, Default)]
pub struct CheckpointStore {
    latest: Option<String>,
    /// The blob the last write replaced, kept for its allocation.
    spare: String,
}

impl CheckpointStore {
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// Persists a checkpoint (atomically replaces the previous one): the
    /// blob is encoded into the spare buffer, which then swaps places with
    /// the newest blob.
    pub fn write(&mut self, ckpt: &Checkpoint) {
        self.spare.clear();
        ckpt.encode_into(&mut self.spare);
        let previous = self.latest.replace(std::mem::take(&mut self.spare));
        self.spare = previous.unwrap_or_default();
    }

    /// True once at least one write happened (even a later-corrupted one).
    pub fn has_checkpoint(&self) -> bool {
        self.latest.is_some()
    }

    /// Chaos hook: tear the newest blob, as a crash mid-write would.
    /// Truncation (rather than bit-flipping) models the torn tail of an
    /// interrupted append; the checksum catches both. No-op when nothing
    /// has been written.
    pub fn corrupt_latest(&mut self) {
        if let Some(blob) = self.latest.as_mut() {
            let keep = blob.len() / 2;
            blob.truncate(keep);
        }
    }

    /// Loads, validates, and age-checks the newest checkpoint as of
    /// `now_slot`. Any failure means the caller must degrade, not abort.
    pub fn load_validated(
        &self,
        now_slot: usize,
        max_age_slots: usize,
    ) -> Result<Checkpoint, CheckpointError> {
        let blob = self.latest.as_ref().ok_or(CheckpointError::Missing)?;
        let ckpt = Checkpoint::decode(blob)?;
        let age_slots = now_slot.saturating_sub(ckpt.slot);
        if age_slots > max_age_slots {
            return Err(CheckpointError::Stale {
                age_slots,
                max_age_slots,
            });
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{MetricSanitizer, SanitizeConfig};

    fn sample_op(name: &str) -> OperatorMetrics {
        OperatorMetrics {
            name: name.to_string(),
            tasks: 3,
            input_rate: 120.5,
            input_rates: vec![100.0, 20.5],
            output_rate: 118.25,
            offered_load: 121.0,
            cpu_util: 0.73,
            capacity_sample: 161.071_823,
            buffer_tuples: 12.0,
            latency_estimate_secs: 0.031,
            backpressure: true,
            degraded: false,
        }
    }

    fn sample_slot() -> SlotMetrics {
        SlotMetrics {
            t: 7,
            sim_time_secs: 4800.0,
            throughput: 118.25,
            processed_tuples: 70_950.0,
            dropped_tuples: 1.5,
            cost_dollars: 0.082_5,
            pods: 6,
            source_rates: vec![120.5],
            reconfigured: true,
            pause_secs: 4.2,
            operators: vec![sample_op("src"), sample_op("agg")],
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut san = MetricSanitizer::new(SanitizeConfig::default());
        let _ = san.sanitize(crate::sanitize::RawSlot::new(sample_slot()));
        Checkpoint {
            version: CHECKPOINT_VERSION,
            slot: 7,
            scheme: "dragster-saddle".to_string(),
            deployment: vec![3, 3],
            scaler: Some(Json::Obj(vec![
                ("t".to_string(), json::num(8)),
                ("lambda".to_string(), json::bits_arr(&[0.25, -0.0])),
            ])),
            sanitizer: san.snapshot(),
            retry: RetrySnapshot {
                consecutive_failures: 2,
                next_attempt: 11,
            },
        }
    }

    #[test]
    fn slot_metrics_roundtrip_is_bit_exact() {
        let mut m = sample_slot();
        // include hostile float values
        m.operators[0].capacity_sample = f64::MIN_POSITIVE;
        m.operators[1].latency_estimate_secs = 1.0e-300;
        let j = encode_slot_metrics(&m);
        let text = j.render();
        let back = decode_slot_metrics(&json::parse_json(&text).expect("parse")).expect("decode");
        assert_eq!(back, m);
        assert_eq!(
            back.operators[0].capacity_sample.to_bits(),
            m.operators[0].capacity_sample.to_bits()
        );
    }

    #[test]
    fn textual_writers_match_tree_encoders_byte_for_byte() {
        // Hostile values: NaN payloads, signed zero, subnormals, control
        // characters and escapes in names, empty rate vectors.
        let mut m = sample_slot();
        m.operators[0].name = "weird \"name\"\n\t\\ \u{1} end".to_string();
        m.operators[0].capacity_sample = f64::from_bits(0x7ff8_0000_dead_beef);
        m.operators[0].input_rates = Vec::new();
        m.operators[1].latency_estimate_secs = -0.0;
        m.operators[1].buffer_tuples = f64::MIN_POSITIVE / 2.0; // subnormal
        m.source_rates = vec![f64::INFINITY, f64::NEG_INFINITY, 0.1 + 0.2];
        m.t = 0;
        // Largest exactly-representable integer: beyond 2^53 the tree
        // codec itself falls back to float notation, and pod counts are
        // bounded far below it.
        m.pods = (1usize << 53) - 1;

        let mut streamed = String::new();
        write_operator_metrics(&m.operators[0], &mut streamed);
        assert_eq!(streamed, encode_operator_metrics(&m.operators[0]).render());

        streamed.clear();
        write_slot_metrics(&m, &mut streamed);
        assert_eq!(streamed, encode_slot_metrics(&m).render());
    }

    /// `Checkpoint::encode` as it was before it wrote in place: the
    /// learner state deep-cloned into one [`Json`] tree with the
    /// sanitizer's, rendered, then sealed through `format!` with the
    /// current checksum.
    fn tree_encode(c: &Checkpoint) -> String {
        let s = &c.sanitizer;
        let sanitizer = Json::Obj(vec![
            ("spike_factor".to_string(), json::bits(s.cfg.spike_factor)),
            ("min_history".to_string(), json::num(s.cfg.min_history)),
            (
                "last_valid".to_string(),
                Json::Arr(
                    s.last_valid
                        .iter()
                        .map(|lv| lv.as_ref().map_or(Json::Null, encode_operator_metrics))
                        .collect(),
                ),
            ),
            ("per_task_max".to_string(), json::bits_arr(&s.per_task_max)),
            (
                "accepted".to_string(),
                Json::Arr(s.accepted.iter().map(|&a| json::num(a)).collect()),
            ),
        ]);
        let body = Json::Obj(vec![
            ("version".to_string(), json::num(c.version)),
            ("slot".to_string(), json::num(c.slot)),
            ("scheme".to_string(), Json::Str(c.scheme.clone())),
            (
                "deployment".to_string(),
                Json::Arr(c.deployment.iter().map(|&t| json::num(t)).collect()),
            ),
            ("scaler".to_string(), c.scaler.clone().unwrap_or(Json::Null)),
            ("sanitizer".to_string(), sanitizer),
            (
                "retry_consecutive_failures".to_string(),
                json::num(c.retry.consecutive_failures),
            ),
            (
                "retry_next_attempt".to_string(),
                json::num(c.retry.next_attempt),
            ),
        ])
        .render();
        format!("{}\n{}", json::u64_to_hex(checksum(body.as_bytes())), body)
    }

    #[test]
    fn encode_is_byte_identical_to_the_tree_encoder() {
        // Hostile values: NaN payloads, signed zeros, subnormals, quotes
        // and control characters in scheme and operator names, empty
        // vectors, and a missing learner state. Operator task counts stay
        // below 2^53 (see `textual_writers_match_tree_encoders_byte_for_byte`).
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let subnormal = f64::MIN_POSITIVE / 3.0;
        let mut op = sample_op("op \"q\"\n\t\\ \u{1}\u{1f} é");
        op.capacity_sample = nan;
        op.input_rates = Vec::new();
        op.latency_estimate_secs = -0.0;
        op.buffer_tuples = subnormal;
        let mut ckpt = sample_checkpoint();
        ckpt.scheme = "dragster \"saddle\"\r\n\u{0}\u{7}".to_string();
        ckpt.sanitizer = SanitizerSnapshot {
            cfg: SanitizeConfig {
                spike_factor: -0.0,
                min_history: 0,
            },
            last_valid: vec![None, Some(op), None],
            per_task_max: vec![nan, subnormal, f64::NEG_INFINITY, -0.0],
            accepted: vec![0, 7, (1 << 53) - 1],
        };
        ckpt.retry = RetrySnapshot {
            consecutive_failures: 0,
            // Saturated backoff: beyond 2^53 the number renders in float
            // notation, exactly as the tree encoder wrote it.
            next_attempt: usize::MAX,
        };
        ckpt.scaler = Some(Json::Obj(vec![
            ("neg_zero".to_string(), Json::Num(-0.0)),
            ("neg".to_string(), Json::Num(-3.0)),
            ("frac".to_string(), Json::Num(0.1 + 0.2)),
            ("nan".to_string(), Json::Num(f64::NAN)),
            ("bits".to_string(), json::bits_arr(&[nan, subnormal, -0.0])),
            ("empty".to_string(), Json::Arr(Vec::new())),
            ("obj".to_string(), Json::Obj(Vec::new())),
            ("k\"\u{2}".to_string(), Json::Str("v\\\u{1b}".to_string())),
        ]));
        for deployment in [Vec::new(), vec![1, 10, 3]] {
            ckpt.deployment = deployment;
            assert_eq!(ckpt.encode(), tree_encode(&ckpt));
            let stateless = Checkpoint {
                scaler: None,
                ..ckpt.clone()
            };
            assert_eq!(stateless.encode(), tree_encode(&stateless));
        }
        let stateless = Checkpoint {
            scaler: None,
            ..sample_checkpoint()
        };
        let back = Checkpoint::decode(&stateless.encode()).expect("decode");
        assert_eq!(back, stateless);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut ckpt = sample_checkpoint();
        let back = Checkpoint::decode(&ckpt.encode()).expect("decode");
        assert_eq!(back, ckpt);
        // Non-default sanitizer knobs travel too: a decoder that fell back
        // to `SanitizeConfig::default()` would restore another sanitizer.
        ckpt.sanitizer.cfg = SanitizeConfig {
            spike_factor: 4.5,
            min_history: 7,
        };
        let back = Checkpoint::decode(&ckpt.encode()).expect("decode");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn torn_blob_is_detected() {
        let ckpt = sample_checkpoint();
        let mut store = CheckpointStore::new();
        store.write(&ckpt);
        store.corrupt_latest();
        match store.load_validated(8, 100) {
            Err(CheckpointError::Torn { .. }) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
    }

    #[test]
    fn stale_checkpoint_is_rejected_by_age() {
        let ckpt = sample_checkpoint(); // slot 7
        let mut store = CheckpointStore::new();
        store.write(&ckpt);
        assert!(store.load_validated(10, 8).is_ok()); // age 3 ≤ 8
        match store.load_validated(20, 8) {
            Err(CheckpointError::Stale {
                age_slots: 13,
                max_age_slots: 8,
            }) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn empty_store_reports_missing() {
        let store = CheckpointStore::new();
        assert_eq!(store.load_validated(0, 10), Err(CheckpointError::Missing));
    }

    #[test]
    fn version_mismatch_is_malformed() {
        let mut ckpt = sample_checkpoint();
        ckpt.version = 99;
        let blob = ckpt.encode();
        match Checkpoint::decode(&blob) {
            Err(CheckpointError::Malformed { detail }) => {
                assert!(detail.contains("version"), "detail: {detail}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// Seals `body` into a fresh line.
    fn sealed(body: &str) -> String {
        let mut line = String::new();
        seal_into(&mut line, |out| out.push_str(body));
        line
    }

    #[test]
    fn seal_unseal_roundtrip_and_tamper_detection() {
        let body = "{\"a\":1}";
        let blob = sealed(body);
        assert_eq!(unseal(&blob).expect("unseal"), body);
        let tampered = blob.replace("1", "2");
        assert!(unseal(&tampered).is_err());
        assert!(unseal("nonsense-without-frame").is_err());
        // The frame is uppercase-free hex: an uppercased checksum is torn.
        assert!(unseal(&blob.to_uppercase()).is_err());
        // Sealing appends: what the buffer held before is left alone.
        let mut out = String::from("kept");
        seal_into(&mut out, |b| b.push_str(body));
        assert_eq!(out, format!("kept{blob}"));
    }

    #[test]
    fn checksum_is_word_wise_and_pinned() {
        // Pinned: a different checksum is a new checkpoint layout.
        assert_eq!(checksum(b""), 0x90c0_36fb_f5ec_77a9);
        assert_eq!(checksum(b"a"), 0x381a_bd03_1c64_84cc);
        assert_eq!(checksum(b"0123456789abcdef!"), 0x59b0_f08c_3bee_bfcf);
        // Not the byte-serial hash behind `decisions_fnv`.
        assert_ne!(checksum(b"foobar"), json::fnv1a64(b"foobar"));
        // Zero tail bytes and the length both count.
        assert_ne!(checksum(b"abcdefgh"), checksum(b"abcdefgh\0"));
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 16]));
    }

    #[test]
    fn top_bit_flips_in_two_words_do_not_cancel() {
        // Without the rotation, a flip of bit 63 of one word leaves the
        // state differing in bit 63 only, and a second flip of bit 63 in
        // any later word cancels it.
        let fnv_words = |body: &[u8]| {
            body.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let body = *b"0123456789abcdef0123456789abcdef";
        for (i, j) in [(7, 15), (7, 31), (15, 23)] {
            let mut flipped = body;
            flipped[i] ^= 0x80;
            flipped[j] ^= 0x80;
            assert_eq!(fnv_words(&flipped), fnv_words(&body));
            assert_ne!(checksum(&flipped), checksum(&body), "bytes {i} and {j}");
        }
    }

    #[test]
    fn store_keeps_the_newest_whole_and_reuses_its_buffers() {
        let mut ckpt = sample_checkpoint();
        let mut store = CheckpointStore::new();
        for slot in 7..10 {
            ckpt.slot = slot;
            store.write(&ckpt);
            assert_eq!(store.load_validated(slot, 0), Ok(ckpt.clone()));
        }
        // A torn newest blob is replaced whole by the next write.
        store.corrupt_latest();
        assert!(store.load_validated(9, 0).is_err());
        ckpt.slot = 10;
        store.write(&ckpt);
        assert_eq!(store.load_validated(10, 0), Ok(ckpt));
    }
}
