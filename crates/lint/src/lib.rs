//! `dragster-lint` — a multi-pass static analyzer, depending only on the
//! dependency-free `dragster-json` codec, over the workspace's library
//! crates, enforcing invariants that clippy cannot express and that the
//! paper's regret guarantee silently depends on:
//!
//! * **L5 — panic-reachability.** A semantic pass: the analyzer builds a
//!   workspace model (item index + approximate call graph, see
//!   [`model`]) and walks it from every `pub` item, reporting any path
//!   that reaches an integer division or remainder by a runtime value,
//!   with the full call chain (see [`reach`]).
//! * **L7 — unit consistency.** A declarative `[units]` table in
//!   `lint.toml` maps identifier suffixes (`_tps`, `_secs`, `_usd`,
//!   `_slots`, ...) to dimensions; additive/comparison/assignment
//!   operators between operands of different dimensions are flagged.
//!   Multiplication and division are exempt — they are how annotated
//!   conversions are written (`rate_tps * window_secs`).
//! * **L13 — proven numeric preconditions.** A forward interval
//!   abstract interpreter (see [`absint`], [`domain`]) computes value
//!   ranges; division/modulo/`sqrt`/`ln` operands *proven* able to hit
//!   zero/negative values are reported, and divisors proven nonzero
//!   suppress L5's syntactic div/rem finding at that site.
//! * **L14 — proven-in-range casts and counters.** Values flowing into
//!   `as <int>` casts and `f64_to_usize_saturating` must be proven
//!   finite, NaN-free, and inside the target range; integer arithmetic
//!   on domain-bounded counters must be proven overflow-free.
//! * **L15 — controller contracts.** A `[contracts]` table declares
//!   required output intervals (dual update `lam -> [0, +inf]`, every
//!   `GridGp` posterior `var -> [0, +inf]`);
//!   computed summaries/bindings that violate them are reported with
//!   the full derivation chain. Input assumptions come from the
//!   `[domains]` table (identifier-suffix → range, L7's binding rule).
//! * **L18 — checkpoint state-coverage.** Every named-field struct that
//!   travels through an encode/decode, `export_state`/`import_state`,
//!   or snapshot codec must mention each field in *both* directions —
//!   a forgotten field silently resurrects from defaults on recovery
//!   (see [`coverage`]).
//!
//! Rule numbers L1–L4, L6, L8 and L12 are retired: those checks are
//! clippy lints set in `[workspace.lints.clippy]` and `clippy.toml` (see
//! CONTRIBUTING.md). L16, L17 and L19, a static model of per-slot cost
//! (allocation sites, loop bounds and nesting in functions it believed
//! hot), are retired too: `tests/alloc_budget.rs` counts the allocations
//! of the real slot loop instead (DESIGN §11). So are L9–L11, the
//! name-matching taint passes for sanitization, seed provenance and
//! projection: the sanitizer and projection gates are types
//! (`dragster_sim::RawSlot`, `dragster_sim::Feasible`), and
//! `tests/seed_pin.rs` pins seeded runs across processes (DESIGN §8).
//! Retired numbers are never reused, so a published SARIF fingerprint
//! keeps naming one rule.
//!
//! The scanner strips comments, string/char literals, and `#[cfg(test)]`
//! items before matching, so rule tokens inside those never fire.
//! Findings are suppressible only through the checked-in `lint.toml`
//! allowlist, and every entry there must carry a justification. On top of
//! that, [`report`] provides SARIF output with stable fingerprints.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod absint;
pub mod coverage;
pub mod domain;
pub mod model;
pub mod prep;
pub mod reach;
pub mod report;

pub use prep::{prepare, strip_cfg_test_items, strip_comments_and_literals};

/// Library crates subject to the full invariant set (their `src/` trees).
pub const LIBRARY_CRATES: &[&str] = &["core", "gp", "dag", "sim", "json", "baselines", "workloads"];

/// Harness crates: their `src/` trees (binaries included) are scanned by
/// the per-file L7 pass only, and stay out of the library model the L5,
/// L13–L15 and L18 passes walk.
pub const HARNESS_CRATES: &[&str] = &["bench"];

/// Maximum number of allowlist entries `lint.toml` may carry. Audited
/// exceptions to the clippy-backed rules are site-local `#[expect]`
/// attributes, so this budget covers only the rules clippy cannot
/// express.
pub const MAX_ALLOW_ENTRIES: usize = 3;

/// Which rule classes to run on a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleSet {
    /// L5: call-graph panic-reachability (workspace/model pass).
    pub reachability: bool,
    /// L7: unit-suffix consistency.
    pub units: bool,
    /// L13–L15: interval abstract interpretation (workspace/model pass):
    /// proven div/sqrt/ln preconditions, in-range casts, contracts.
    pub intervals: bool,
    /// L18: checkpoint state-coverage proofs (workspace/model pass).
    pub coverage: bool,
}

impl RuleSet {
    /// Every rule enabled — used for fixtures and ad-hoc file checks.
    pub fn all() -> RuleSet {
        RuleSet {
            reachability: true,
            units: true,
            intervals: true,
            coverage: true,
        }
    }
}

/// One rule violation at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to the scanner (workspace-relative in CLI use).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint code: `"L5"`..`"L18"`.
    pub code: &'static str,
    /// The offending token (e.g. `/ n`, `rate_tps + window_secs`).
    pub token: String,
    /// Human-readable explanation with the suggested replacement.
    pub message: String,
    /// L5 only: the call chain from a public root to the panic site
    /// (qualified item names, root first). Empty for per-site lints.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.file, self.line, self.code, self.token, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Units table (L7).
// ---------------------------------------------------------------------------

/// Maps identifier suffixes to physical dimensions. An identifier carries
/// the dimension of the longest suffix that matches either the whole
/// ident or its trailing `_suffix` segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitsTable {
    /// `(suffix, dimension)` pairs; matched longest-suffix-first.
    pub entries: Vec<(String, String)>,
}

impl Default for UnitsTable {
    /// The built-in table mirrors the `[units]` section of `lint.toml`;
    /// the file may extend or override it.
    fn default() -> Self {
        let mk = |s: &str, d: &str| (s.to_string(), d.to_string());
        UnitsTable {
            entries: vec![
                mk("tps", "rate"),
                mk("secs", "time"),
                mk("sec", "time"),
                mk("ms", "time"),
                mk("usd", "money"),
                mk("dollars", "money"),
                mk("slots", "slots"),
                mk("slot", "slots"),
                mk("tasks", "tasks"),
                mk("tuples", "tuples"),
            ],
        }
    }
}

impl UnitsTable {
    /// Adds or overrides a suffix mapping.
    pub fn set(&mut self, suffix: &str, dimension: &str) {
        if let Some(e) = self.entries.iter_mut().find(|(s, _)| s == suffix) {
            e.1 = dimension.to_string();
        } else {
            self.entries
                .push((suffix.to_string(), dimension.to_string()));
        }
    }

    /// The dimension an identifier carries, if any.
    pub fn dimension_of(&self, ident: &str) -> Option<&str> {
        let lower = ident.to_ascii_lowercase();
        let mut best: Option<(&str, &str)> = None;
        for (suffix, dim) in &self.entries {
            let hits = lower == *suffix || lower.ends_with(&format!("_{suffix}"));
            if hits && best.is_none_or(|(s, _)| suffix.len() > s.len()) {
                best = Some((suffix, dim));
            }
        }
        best.map(|(_, d)| d)
    }
}

// ---------------------------------------------------------------------------
// Rule matching on prepared source.
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn line_of(text: &[char], idx: usize) -> usize {
    1 + text[..idx].iter().filter(|&&c| c == '\n').count()
}

fn prev_nonspace(text: &[char], idx: usize) -> Option<(usize, char)> {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        if !text[j].is_whitespace() {
            return Some((j, text[j]));
        }
    }
    None
}

fn next_nonspace(text: &[char], idx: usize) -> Option<(usize, char)> {
    let mut j = idx;
    while j < text.len() {
        if !text[j].is_whitespace() {
            return Some((j, text[j]));
        }
        j += 1;
    }
    None
}

/// Reads the identifier starting at `idx` (must be an ident char).
fn ident_at(text: &[char], idx: usize) -> (usize, String) {
    let mut j = idx;
    while j < text.len() && is_ident_char(text[j]) {
        j += 1;
    }
    (j, text[idx..j].iter().collect())
}

/// Reads the identifier *ending* at `idx` (inclusive; must be an ident
/// char), returning it with its start index.
fn ident_ending_at(text: &[char], idx: usize) -> (usize, String) {
    let mut j = idx;
    while j > 0 && is_ident_char(text[j - 1]) {
        j -= 1;
    }
    (j, text[j..=idx].iter().collect())
}

/// Runs the enabled per-file rules over prepared (stripped) source text.
///
/// `file` is only used to label findings. The input must already have
/// comments, literals, and `#[cfg(test)]` items blanked out — use
/// [`lint_source`] for the full pipeline. The workspace-level passes
/// (L5, L13–L15, L18) need the model and are not run here.
pub fn scan(file: &str, prepared: &str, rules: RuleSet, units: &UnitsTable) -> Vec<Finding> {
    if !rules.units {
        return Vec::new();
    }
    let text: Vec<char> = prepared.chars().collect();
    scan_units(file, &text, units)
}

/// L7: flags additive/comparison/assignment operators whose operands
/// carry different unit dimensions per the [`UnitsTable`]. `*` and `/`
/// are exempt (they change dimension — that is how conversions are
/// annotated); method-call operands are not resolvable and are skipped.
fn scan_units(file: &str, text: &[char], units: &UnitsTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    let n = text.len();
    let mut i = 0;
    while i < n {
        let c = text[i];
        let next = if i + 1 < n { Some(text[i + 1]) } else { None };
        let prev = if i > 0 { Some(text[i - 1]) } else { None };
        // Identify a binary operator and its width.
        let op_len: usize = match c {
            '+' | '-' => {
                if c == '-' && next == Some('>') {
                    i += 2; // ->
                    continue;
                }
                if next == Some('=') {
                    2 // += -=
                } else {
                    1
                }
            }
            '<' | '>' => {
                if next == Some(c) {
                    i += 2; // shift
                    continue;
                }
                if prev == Some('-') || prev == Some('=') {
                    i += 1; // tail of -> or =>
                    continue;
                }
                if next == Some('=') {
                    2
                } else {
                    1
                }
            }
            '=' => {
                if next == Some('>') {
                    i += 2; // =>
                    continue;
                }
                if matches!(
                    prev,
                    Some('=' | '<' | '>' | '!' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^')
                ) {
                    i += 1; // second char of a compound operator
                    continue;
                }
                if next == Some('=') {
                    2
                } else {
                    1
                }
            }
            '!' if next == Some('=') => 2,
            _ => {
                i += 1;
                continue;
            }
        };
        let op: String = text[i..(i + op_len).min(n)].iter().collect();

        // LHS: the trailing identifier of the left operand. If the ident
        // is itself the right factor of a `*`/`/`, the operand's
        // dimension was transformed by the conversion — skip it.
        let lhs = prev_nonspace(text, i).and_then(|(p, pc)| {
            if is_ident_char(pc) {
                let (start, word) = ident_ending_at(text, p);
                let first = word.chars().next()?;
                if first.is_ascii_digit() {
                    return None;
                }
                if start > 0 {
                    if let Some((_, before)) = prev_nonspace(text, start) {
                        if before == '*' || before == '/' {
                            return None;
                        }
                    }
                }
                Some(word)
            } else {
                None
            }
        });
        // RHS: the trailing identifier of the right operand's leading
        // field chain (`self.cost_usd` -> `cost_usd`); calls disqualify.
        let rhs = rhs_trailing_ident(text, i + op_len);

        if let (Some(l), Some(r)) = (lhs, rhs) {
            let dl = units.dimension_of(&l);
            let dr = units.dimension_of(&r);
            if let (Some(dl), Some(dr)) = (dl, dr) {
                if dl != dr {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: line_of(text, i),
                        code: "L7",
                        token: format!("{l} {op} {r}"),
                        message: format!(
                            "mixes units: `{l}` is {dl} but `{r}` is {dr}; convert \
                             explicitly (multiply/divide by a conversion factor) or rename"
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
        i += op_len;
    }
    findings
}

/// Reads the right operand starting after an operator and returns the
/// trailing identifier of its leading field chain, or `None` if the
/// operand opens with a call, paren, or literal.
fn rhs_trailing_ident(text: &[char], mut j: usize) -> Option<String> {
    let n = text.len();
    while j < n && text[j].is_whitespace() {
        j += 1;
    }
    // Skip leading reference/deref sigils.
    while j < n && (text[j] == '&' || text[j] == '*') {
        j += 1;
    }
    if j >= n || !is_ident_char(text[j]) || text[j].is_ascii_digit() {
        return None;
    }
    let mut last;
    let mut end;
    loop {
        let (e, word) = ident_at(text, j);
        last = word;
        end = e;
        match next_nonspace(text, end) {
            Some((d, '.')) => {
                let Some((k, kc)) = next_nonspace(text, d + 1) else {
                    break;
                };
                if !is_ident_char(kc) || kc.is_ascii_digit() {
                    break;
                }
                j = k;
            }
            Some((_, '(')) => return None, // call — not resolvable
            _ => break,
        }
    }
    if last.is_empty() {
        return None;
    }
    // Skip `as <type>` casts (a cast keeps the unit), then bail if the
    // operand continues with `*`/`/` — the conversion changes dimension.
    let mut k = end;
    loop {
        match next_nonspace(text, k) {
            Some((a, ac)) if is_ident_char(ac) => {
                let (aend, word) = ident_at(text, a);
                if word == "as" {
                    match next_nonspace(text, aend) {
                        Some((t, tc)) if is_ident_char(tc) => {
                            let (tend, _) = ident_at(text, t);
                            k = tend;
                            continue;
                        }
                        _ => break,
                    }
                }
                break;
            }
            Some((_, '*')) | Some((_, '/')) => return None,
            _ => break,
        }
    }
    Some(last)
}

/// Full pipeline for one file's source text: strip, drop `#[cfg(test)]`
/// items, then scan with `rules` and the default units table.
///
/// Note: the workspace-level passes need a model and are run by
/// [`lint_files_semantic`] / [`lint_workspace`], not here.
pub fn lint_source(file: &str, source: &str, rules: RuleSet) -> Vec<Finding> {
    scan(file, &prep::prepare(source), rules, &UnitsTable::default())
}

/// Runs the single-file rules *and* the workspace-level passes over a set
/// of sources (used by file mode and the fixture tests). Each entry is
/// `(label, source)`; all files are modeled as one crate named `fixture`.
pub fn lint_files_semantic(sources: &[(String, String)], rules: RuleSet) -> Vec<Finding> {
    let units = UnitsTable::default();
    let mut findings = Vec::new();
    let mut prepared_set = Vec::new();
    for (label, source) in sources {
        let prepared = prep::prepare(source);
        findings.extend(scan(label, &prepared, rules, &units));
        prepared_set.push((label.clone(), "fixture".to_string(), prepared));
    }
    if rules.reachability || rules.intervals || rules.coverage {
        let model = model::Model::build(prepared_set);
        if rules.reachability {
            findings.extend(reach::panic_reachability(&model));
        }
        if rules.intervals {
            let outcome = absint::interval_analysis(&model, &absint::AbsintConfig::default());
            suppress_resolved_divisors(&mut findings, &outcome.resolved_divs);
            findings.extend(outcome.findings);
        }
        if rules.coverage {
            findings.extend(coverage::coverage_analysis(
                &model,
                &coverage::CoverageConfig::default(),
            ));
        }
    }
    findings
        .sort_by(|a, b| (a.file.clone(), a.line, a.code).cmp(&(b.file.clone(), b.line, b.code)));
    findings
}

/// Drops L5 div/rem findings whose divisor the interval analysis proved
/// nonzero on every path (`resolved` holds `(file, line, divisor)`).
fn suppress_resolved_divisors(
    findings: &mut Vec<Finding>,
    resolved: &std::collections::BTreeSet<(String, usize, String)>,
) {
    if resolved.is_empty() {
        return;
    }
    findings.retain(|f| {
        if f.code != "L5" {
            return true;
        }
        let Some(div) = f
            .token
            .strip_prefix("/ ")
            .or_else(|| f.token.strip_prefix("% "))
        else {
            return true;
        };
        !resolved.contains(&(f.file.clone(), f.line, div.to_string()))
    });
}

// ---------------------------------------------------------------------------
// Configuration (lint.toml): allowlist + units table.
// ---------------------------------------------------------------------------

/// One `[[allow]]` entry from `lint.toml`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path. A value ending in `/` is a directory
    /// prefix and suppresses matching findings in every file under it;
    /// anything else is a suffix match against the finding's path.
    pub path: String,
    /// Lint code this entry suppresses (`"L5"`..`"L18"`).
    pub lint: String,
    /// Optional token filter; when set, only findings whose token
    /// contains this string are suppressed.
    pub token: String,
    /// Mandatory human-readable reason. Entries without one are rejected.
    pub justification: String,
}

impl AllowEntry {
    /// Whether this entry suppresses `f`.
    pub fn matches(&self, f: &Finding) -> bool {
        let file = f.file.replace('\\', "/");
        let path_ok = if self.path.ends_with('/') {
            // Directory entry: anchored at the workspace root or at any
            // path component boundary.
            file.starts_with(&self.path) || file.contains(&format!("/{}", self.path))
        } else {
            file.ends_with(&self.path)
        };
        let lint_ok = f.code == self.lint;
        let token_ok = self.token.is_empty() || f.token.contains(&self.token);
        path_ok && lint_ok && token_ok
    }
}

/// Parsed `lint.toml`: the allowlist, the `[units]` table, the
/// `[domains]` / `[contracts]` tables for the L13–L15 interval passes,
/// and the `[coverage]` markers for L18.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    pub allow: Vec<AllowEntry>,
    pub units: UnitsTable,
    pub absint: absint::AbsintConfig,
    pub coverage: coverage::CoverageConfig,
}

/// Splits one fragment of a `["a", "b"]` array body into its elements.
fn array_elements(fragment: &str, out: &mut Vec<String>) {
    for part in fragment.split(',') {
        let v = part.trim().trim_matches('"');
        if !v.is_empty() {
            out.push(v.to_string());
        }
    }
}

/// Parses the minimal TOML dialect used by `lint.toml`: `[[allow]]`
/// tables, a `[units]` section of `key = "value"` pairs, `[domains]` and
/// `[contracts]` sections of `key = [lo, hi]` pairs, and a `[coverage]`
/// section of `key = ["marker", ...]` arrays (single- or multi-line),
/// with `#` comments and blank lines. Returns the config or a validation
/// error message.
pub fn parse_config(text: &str) -> Result<LintConfig, String> {
    #[derive(Clone, Copy, PartialEq)]
    enum Section {
        None,
        Allow,
        Units,
        Domains,
        Contracts,
        Coverage,
    }
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut units = UnitsTable::default();
    let mut domains = absint::DomainsTable::defaults();
    let mut coverage_cfg = coverage::CoverageConfig::default();
    // Contract bounds may name `[domains]` keys, so they resolve after
    // the whole file is read: (key, lo_raw, hi_raw, line).
    let mut contract_raw: Vec<(String, String, String, usize)> = Vec::new();
    let mut current: Option<AllowEntry> = None;
    let mut section = Section::None;
    // A `[coverage]` array opened with `[` but not yet closed with `]`.
    let mut open_array: Option<(String, Vec<String>)> = None;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, mut vals)) = open_array.take() {
            let closes = line.contains(']');
            array_elements(line.trim_end_matches(']'), &mut vals);
            if closes {
                coverage_cfg
                    .set_key(&key, &vals)
                    .map_err(|e| format!("lint.toml:{}: {e}", ln + 1))?;
            } else {
                open_array = Some((key, vals));
            }
            continue;
        }
        if line == "[[allow]]" {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            current = Some(AllowEntry::default());
            section = Section::Allow;
            continue;
        }
        if line == "[units]" {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            section = Section::Units;
            continue;
        }
        if line == "[domains]" {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            section = Section::Domains;
            continue;
        }
        if line == "[contracts]" {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            section = Section::Contracts;
            continue;
        }
        if line == "[coverage]" {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            section = Section::Coverage;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint.toml:{}: expected `key = \"value\"`", ln + 1));
        };
        let key = key.trim().trim_matches('"');
        let raw_value = value.trim();
        let value = raw_value.trim_matches('"').to_string();
        match section {
            Section::Domains => {
                let (lo_s, hi_s) = split_pair(raw_value).ok_or_else(|| {
                    format!(
                        "lint.toml:{}: [domains] values must be `[lo, hi]` pairs",
                        ln + 1
                    )
                })?;
                let lo =
                    parse_numeric_bound(&lo_s).map_err(|e| format!("lint.toml:{}: {e}", ln + 1))?;
                let hi =
                    parse_numeric_bound(&hi_s).map_err(|e| format!("lint.toml:{}: {e}", ln + 1))?;
                if lo > hi || lo.is_nan() || hi.is_nan() {
                    return Err(format!(
                        "lint.toml:{}: [domains] `{key}` has lo > hi",
                        ln + 1
                    ));
                }
                domains.set(key, lo, hi);
            }
            Section::Contracts => {
                let (lo_s, hi_s) = split_pair(raw_value).ok_or_else(|| {
                    format!(
                        "lint.toml:{}: [contracts] values must be `[lo, hi]` pairs",
                        ln + 1
                    )
                })?;
                if !key.contains("::") && key.trim().is_empty() {
                    return Err(format!("lint.toml:{}: empty contract key", ln + 1));
                }
                contract_raw.push((key.to_string(), lo_s, hi_s, ln + 1));
            }
            Section::Coverage => {
                let Some(body) = raw_value.strip_prefix('[') else {
                    return Err(format!(
                        "lint.toml:{}: values in this section must be string arrays, \
                         got `{raw_value}`",
                        ln + 1
                    ));
                };
                let mut vals = Vec::new();
                if body.contains(']') {
                    array_elements(body.trim_end_matches(']'), &mut vals);
                    coverage_cfg
                        .set_key(key, &vals)
                        .map_err(|e| format!("lint.toml:{}: {e}", ln + 1))?;
                } else {
                    array_elements(body, &mut vals);
                    open_array = Some((key.to_string(), vals));
                }
            }
            Section::Units => {
                if key.is_empty()
                    || !key
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
                {
                    return Err(format!(
                        "lint.toml:{}: unit suffix `{key}` must be lowercase ascii",
                        ln + 1
                    ));
                }
                if value.trim().is_empty() {
                    return Err(format!(
                        "lint.toml:{}: unit suffix `{key}` needs a dimension name",
                        ln + 1
                    ));
                }
                units.set(key, &value);
            }
            Section::Allow => {
                let Some(e) = current.as_mut() else {
                    return Err(format!(
                        "lint.toml:{}: `{key}` outside an [[allow]] table",
                        ln + 1
                    ));
                };
                match key {
                    "path" => e.path = value,
                    "lint" => e.lint = value,
                    "token" => e.token = value,
                    "justification" => e.justification = value,
                    other => {
                        return Err(format!("lint.toml:{}: unknown key `{other}`", ln + 1));
                    }
                }
            }
            Section::None => {
                return Err(format!(
                    "lint.toml:{}: `{key}` outside an [[allow]]/[units] section",
                    ln + 1
                ));
            }
        }
    }
    if let Some((key, _)) = open_array {
        return Err(format!("lint.toml: array `{key}` is never closed with `]`"));
    }
    if let Some(e) = current.take() {
        entries.push(e);
    }
    for (k, e) in entries.iter().enumerate() {
        if e.path.is_empty() {
            return Err(format!("lint.toml allow entry #{}: missing `path`", k + 1));
        }
        if !report::is_rule(&e.lint) {
            return Err(format!(
                "lint.toml allow entry #{} ({}): `lint` must be one of L5, L7, L13–L15 \
                 or L18 (L1–L4, L6, L8 and L12 are clippy lints; audit those with \
                 #[expect(clippy::…, reason = \"…\")])",
                k + 1,
                e.path
            ));
        }
        if e.justification.trim().is_empty() {
            return Err(format!(
                "lint.toml allow entry #{} ({}): a non-empty `justification` is mandatory",
                k + 1,
                e.path
            ));
        }
    }
    if entries.len() > MAX_ALLOW_ENTRIES {
        return Err(format!(
            "lint.toml has {} allow entries; the budget is {} — fix code instead of allowlisting it",
            entries.len(),
            MAX_ALLOW_ENTRIES
        ));
    }
    // Contracts: compiled-in defaults, then file entries override by key
    // or extend.
    let mut contracts = absint::default_contracts();
    for (key, lo_s, hi_s, ln) in contract_raw {
        let lo = parse_contract_bound(&lo_s, &domains, false)
            .map_err(|e| format!("lint.toml:{ln}: {e}"))?;
        let hi = parse_contract_bound(&hi_s, &domains, true)
            .map_err(|e| format!("lint.toml:{ln}: {e}"))?;
        if lo > hi || lo.is_nan() || hi.is_nan() {
            return Err(format!("lint.toml:{ln}: contract `{key}` has lo > hi"));
        }
        let c = absint::Contract::new(&key, domain::Interval::range(lo, hi))
            .map_err(|e| format!("lint.toml:{ln}: {e}"))?;
        if let Some(slot) = contracts.iter_mut().find(|c2| c2.key == key) {
            *slot = c;
        } else {
            contracts.push(c);
        }
    }
    Ok(LintConfig {
        allow: entries,
        units,
        absint: absint::AbsintConfig { domains, contracts },
        coverage: coverage_cfg,
    })
}

/// Splits a `[a, b]` pair value into its two raw elements.
fn split_pair(raw: &str) -> Option<(String, String)> {
    let body = raw.trim().strip_prefix('[')?.strip_suffix(']')?;
    let (a, b) = body.split_once(',')?;
    if b.contains(',') {
        return None;
    }
    Some((a.trim().to_string(), b.trim().to_string()))
}

/// A `[domains]` bound: a number, `inf`, or `-inf`.
fn parse_numeric_bound(s: &str) -> Result<f64, String> {
    let unq = s.trim().trim_matches('"');
    match unq {
        "inf" | "+inf" => return Ok(f64::INFINITY),
        "-inf" => return Ok(f64::NEG_INFINITY),
        _ => {}
    }
    unq.parse::<f64>()
        .map_err(|_| format!("bound `{s}` is not a number or inf/-inf"))
}

/// A `[contracts]` bound: a number, `inf`/`-inf`, or the *name* of a
/// `[domains]` entry (resolves to that domain's lo or hi depending on
/// which position the bound occupies).
fn parse_contract_bound(
    s: &str,
    domains: &absint::DomainsTable,
    hi_position: bool,
) -> Result<f64, String> {
    if let Ok(v) = parse_numeric_bound(s) {
        return Ok(v);
    }
    let unq = s.trim().trim_matches('"');
    if let Some(iv) = domains.exact(unq) {
        return Ok(if hi_position { iv.hi } else { iv.lo });
    }
    Err(format!(
        "bound `{s}` is not a number, inf, or a [domains] key"
    ))
}

/// Back-compat shim: parses `lint.toml` and returns only the allowlist.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    parse_config(text).map(|c| c.allow)
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut names: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        names.push(entry?.path());
    }
    names.sort();
    for path in names {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Result of a workspace run: surviving findings plus allowlist entries
/// that suppressed nothing (stale entries are themselves an error).
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    /// Findings not covered by the allowlist.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched at least one finding.
    pub used_entries: Vec<AllowEntry>,
    /// Allowlist entries that matched nothing (stale).
    pub unused_entries: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Lints every library and harness crate `src/` tree under `root`: the
/// per-file L7 pass over both, and the L5, L13–L15 and L18 passes over
/// the library-crate call graph, then applies the allowlist.
///
/// # Errors
/// Returns `Err` with a message if a source directory cannot be read.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> Result<WorkspaceReport, String> {
    let mut report = WorkspaceReport::default();
    let mut used = vec![false; cfg.allow.len()];
    let mut raw: Vec<Finding> = Vec::new();
    // Prepared sources of library crates, for the library model.
    let mut model_sources: Vec<(String, String, String)> = Vec::new();

    for krate in LIBRARY_CRATES.iter().chain(HARNESS_CRATES) {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)
            .map_err(|e| format!("cannot read {}: {e}", src.display()))?;
        for path in files {
            let source = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            report.files_scanned += 1;
            let prepared = prep::prepare(&source);
            raw.extend(scan(&label, &prepared, RuleSet::all(), &cfg.units));
            if LIBRARY_CRATES.contains(krate) {
                model_sources.push((label, (*krate).to_string(), prepared));
            }
        }
    }

    // L5: div/rem reachability over the library-crate call graph.
    let model = model::Model::build(model_sources);
    raw.extend(reach::panic_reachability(&model));

    // L13–L15: interval abstract interpretation over the library model.
    // Divisors the intervals *prove* nonzero retract the corresponding
    // L5 findings (the syntactic guard check is subsumed by the proof).
    let outcome = absint::interval_analysis(&model, &cfg.absint);
    suppress_resolved_divisors(&mut raw, &outcome.resolved_divs);
    raw.extend(outcome.findings);

    // L18: checkpoint state-coverage proofs over the library model.
    raw.extend(coverage::coverage_analysis(&model, &cfg.coverage));

    for f in raw {
        let mut suppressed = false;
        for (k, e) in cfg.allow.iter().enumerate() {
            if e.matches(&f) {
                used[k] = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            report.findings.push(f);
        }
    }
    report
        .findings
        .sort_by(|a, b| (a.file.clone(), a.line, a.code).cmp(&(b.file.clone(), b.line, b.code)));
    for (k, e) in cfg.allow.iter().enumerate() {
        if used[k] {
            report.used_entries.push(e.clone());
        } else {
            report.unused_entries.push(e.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip_comments_and_literals("a // .unwrap()\nb /* panic! */ c");
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("panic"));
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
    }

    #[test]
    fn strips_nested_block_comments() {
        let s = strip_comments_and_literals("x /* outer /* inner */ still */ y");
        assert!(!s.contains("inner") && !s.contains("still"));
        assert!(s.contains('x') && s.contains('y'));
    }

    #[test]
    fn strips_string_and_char_literals_but_not_lifetimes() {
        let s = strip_comments_and_literals(
            "fn f<'a>(x: &'a str) { let c = '\\''; let s = \"panic! .unwrap()\"; }",
        );
        assert!(!s.contains("panic"));
        assert!(!s.contains("unwrap"));
        assert!(s.contains("'a"));
    }

    #[test]
    fn strips_raw_strings() {
        let s = strip_comments_and_literals("let s = r#\"has \"quotes\" and panic!\"#; done");
        assert!(!s.contains("panic"));
        assert!(s.contains("done"));
    }

    #[test]
    fn strips_multi_hash_raw_strings() {
        // The body contains a `"#` that would close a single-hash raw
        // string; only `"##` may terminate it.
        let s = strip_comments_and_literals("let s = r##\"inner \"# still panic!\"##; done");
        assert!(!s.contains("panic") && !s.contains("still"));
        assert!(s.contains("done"));
    }

    #[test]
    fn strips_byte_and_raw_byte_strings() {
        let s =
            strip_comments_and_literals("let a = b\"panic!\"; let b2 = br#\"x.unwrap()\"#; tail");
        assert!(!s.contains("panic") && !s.contains("unwrap"));
        assert!(s.contains("tail"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        // `var"..."` must be treated as an identifier followed by an
        // ordinary string, not swallowed as a raw literal.
        let s = strip_comments_and_literals("for vbr in xs { vr(\"q\") } done");
        assert!(s.contains("vbr") && s.contains("vr") && s.contains("done"));
        assert!(!s.contains('q'));
    }

    #[test]
    fn nested_block_comments_preserve_line_numbers() {
        let src = "top\n/* outer /* inner\n*/ tail of outer\n*/\nlet x = a_tps < b_usd;\n";
        let f = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(f.len(), 1, "only the real comparison fires: {f:#?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn preserves_line_numbers_through_stripping() {
        let src = "line1\n/* multi\nline\ncomment */\nlet x = a_tps < b_usd;\n";
        let f = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { \
                   let x = a_tps < b_usd; }\n}\n";
        assert!(lint_source("t.rs", src, RuleSet::all()).is_empty());
    }

    #[test]
    fn cfg_test_fn_is_skipped_but_rest_is_not() {
        let src = "#[cfg(test)]\nfn helper() -> bool { a_tps < b_usd }\n\
                   pub fn bad() -> bool { a_tps < b_usd }\n";
        let f = lint_source("t.rs", src, RuleSet::all());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn l7_flags_cross_dimension_comparison() {
        let bad = "pub fn f(rate_tps: f64, budget_usd: f64) -> bool { rate_tps < budget_usd }";
        let f = lint_source("t.rs", bad, RuleSet::all());
        assert_eq!(f.iter().filter(|f| f.code == "L7").count(), 1);
        // Multiplication is the conversion idiom and is exempt.
        let ok = "pub fn g(rate_tps: f64, window_secs: f64) -> f64 { rate_tps * window_secs }";
        assert!(lint_source("t.rs", ok, RuleSet::all())
            .iter()
            .all(|f| f.code != "L7"));
        // Same dimension is fine.
        let same = "pub fn h(a_tps: f64, b_tps: f64) -> bool { a_tps < b_tps }";
        assert!(lint_source("t.rs", same, RuleSet::all())
            .iter()
            .all(|f| f.code != "L7"));
    }

    #[test]
    fn units_table_longest_suffix_wins() {
        let mut t = UnitsTable::default();
        t.set("budget_usd", "budget-money");
        assert_eq!(t.dimension_of("total_budget_usd"), Some("budget-money"));
        assert_eq!(t.dimension_of("cost_usd"), Some("money"));
        assert_eq!(t.dimension_of("plain"), None);
    }

    #[test]
    fn config_parses_units_section() {
        let toml = "[units]\ngb = \"memory\"\n\n[[allow]]\npath = \"a.rs\"\nlint = \"L7\"\n\
                    justification = \"x\"\n";
        let cfg = parse_config(toml).expect("parses");
        assert_eq!(cfg.units.dimension_of("heap_gb"), Some("memory"));
        assert_eq!(cfg.allow.len(), 1);
    }

    #[test]
    fn config_parses_coverage_section_with_multiline_arrays() {
        let toml = "[coverage]\nencode_markers = [\n    \"encode\",\n    # comment\n    \
                    \"write_body\",\n]\n";
        let cfg = parse_config(toml).expect("parses");
        assert_eq!(cfg.coverage.encode_markers, vec!["encode", "write_body"]);
        // Keys not present keep their compiled-in defaults.
        assert!(!cfg.coverage.decode_markers.is_empty());
    }

    #[test]
    fn config_rejects_unknown_coverage_key() {
        let err = parse_config("[coverage]\nbogus = [\"x\"]\n").expect_err("must reject");
        assert!(err.contains("bogus"), "error names the key: {err}");
    }

    #[test]
    fn config_rejects_unterminated_coverage_array() {
        assert!(parse_config("[coverage]\nencode_markers = [\n\"a\",\n").is_err());
    }

    #[test]
    fn allowlist_parses_and_validates() {
        let toml = "# comment\n[[allow]]\npath = \"crates/sim/src/des.rs\"\nlint = \"L7\"\n\
                    token = \"window_secs\"\njustification = \"a documented conversion\"\n";
        let entries = parse_allowlist(toml).expect("parses");
        assert_eq!(entries.len(), 1);
        assert!(entries[0].matches(&Finding {
            file: "crates/sim/src/des.rs".into(),
            line: 3,
            code: "L7",
            token: "window_secs".into(),
            message: String::new(),
            chain: Vec::new(),
        }));
    }

    #[test]
    fn allowlist_rejects_rules_that_moved_to_clippy() {
        let toml = "[[allow]]\npath = \"crates/sim/src/fluid.rs\"\nlint = \"L8\"\n\
                    justification = \"bounded by construction\"\n";
        let err = parse_config(toml).expect_err("L8 is a clippy lint now");
        assert!(
            err.contains("#[expect(clippy::"),
            "error points at the idiom: {err}"
        );
    }

    #[test]
    fn allowlist_rejects_retired_cost_rules_and_their_tables() {
        for rule in ["L16", "L17", "L19"] {
            let toml = format!(
                "[[allow]]\npath = \"crates/core/src/oracle.rs\"\nlint = \"{rule}\"\n\
                 justification = \"sized to the operators\"\n"
            );
            assert!(parse_config(&toml).is_err(), "{rule} is retired");
        }
        for table in ["[cost]", "[bounds]", "[complexity]"] {
            let toml = format!("{table}\n\"greedy_optimal\" = 3\n");
            assert!(parse_config(&toml).is_err(), "{table} is gone");
        }
    }

    #[test]
    fn allowlist_rejects_retired_flow_rules_and_their_table() {
        for rule in ["L9", "L10", "L11"] {
            let toml = format!(
                "[[allow]]\npath = \"crates/sim/src/harness.rs\"\nlint = \"{rule}\"\n\
                 justification = \"sanitized upstream\"\n"
            );
            assert!(parse_config(&toml).is_err(), "{rule} is retired");
        }
        let toml = "[flow]\nmetric_sources = [\"FluidSim::run_slot\"]\n";
        assert!(parse_config(toml).is_err(), "[flow] is gone");
    }

    #[test]
    fn allowlist_rejects_missing_justification_and_overflow() {
        let bad = "[[allow]]\npath = \"a.rs\"\nlint = \"L7\"\n";
        assert!(parse_allowlist(bad).is_err());
        let mut many = String::new();
        for i in 0..(MAX_ALLOW_ENTRIES + 1) {
            many.push_str(&format!(
                "[[allow]]\npath = \"f{i}.rs\"\nlint = \"L7\"\njustification = \"x\"\n"
            ));
        }
        assert!(parse_allowlist(&many).is_err());
    }
}
