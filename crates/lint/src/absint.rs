//! Interprocedural interval abstract interpretation (L13–L15): a forward
//! interpreter over the token model that *proves bounds* on the values
//! flowing through the controller, where L5 reasons syntactically.
//!
//! The engine computes per-function summaries (the interval of the
//! returned value) iterated to a fixpoint over the call graph, then runs
//! a final reporting pass per body. Within a body it
//! is a real abstract interpreter: statements execute over an environment
//! of [`Interval`]s, `if`/`else` joins refined arms, loops run to a local
//! fixpoint with widening at the head and one narrowing pass, and branch
//! conditions refine operand ranges (`if x > 0.0` narrows `x` to
//! `(0, +∞]` — and clears may-NaN, because a NaN comparison is false).
//!
//! **Where knowledge comes from.** Declared `[domains]` entries in
//! `lint.toml` (bound to identifiers by the same unit-suffix rule as L7),
//! parameter/let type annotations (`usize` is `[0, 2^64]`, integer and
//! never NaN), literals, and callee summaries. Everything else is TOP.
//!
//! **Alarm policy.** Checks fire only on intervals with *knowledge* (at
//! least one finite bound): a TOP divisor stays with L5's reachability
//! rule instead of producing an alarm storm, while a divisor *proven*
//! nonzero suppresses L5's finding at that site (the guarded-divisor
//! false positive L5 cannot avoid syntactically). Declared domains are
//! trusted assumptions — the analysis proves the controller's
//! postconditions *relative to them*, which is exactly the shape of
//! Theorem 1 ("the regret bound holds provided the inputs respect the
//! stated ranges").
//!
//! The summary fixpoint starts every unknown callee at TOP and descends:
//! each pass re-evaluates bodies against the previous pass's summaries.
//! Descending Kleene iteration from TOP over-approximates the least
//! fixpoint at every step, so truncating at a fixed pass count (3) is
//! sound — it only costs precision, never soundness.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::domain::{next_down, next_up, Interval};
use crate::model::{Model, Tok};
use crate::Finding;

/// Declared value domains, keyed by identifier suffix (L7's binding
/// rule): `rate_tps` matches the `tps` entry unless a longer `rate_tps`
/// entry exists; an exact-name match always wins.
#[derive(Clone, Debug)]
pub struct DomainsTable {
    entries: Vec<(String, Interval)>,
}

impl DomainsTable {
    /// Compiled-in defaults, mirrored by the `[domains]` table in
    /// `lint.toml` (the file may override or extend them).
    pub fn defaults() -> DomainsTable {
        let mut t = DomainsTable {
            entries: Vec::new(),
        };
        for (k, lo, hi) in [
            ("slots", 0.0, 4096.0),
            ("tasks", 0.0, 65536.0),
            ("pods", 0.0, 65536.0),
            ("budget", 0.0, 1e9),
            ("usd", 0.0, 1e9),
            ("tps", 0.0, 1e8),
            ("rate_tps", 0.0, 1e8),
            ("secs", 0.0, 1e7),
            ("tuples", 0.0, 1e12),
            ("selectivity", 0.0, 1.0),
        ] {
            t.set(k, lo, hi);
        }
        t
    }

    /// An empty table (no assumptions at all).
    pub fn empty() -> DomainsTable {
        DomainsTable {
            entries: Vec::new(),
        }
    }

    /// Inserts or replaces a domain entry.
    pub fn set(&mut self, key: &str, lo: f64, hi: f64) {
        let iv = Interval::range(lo, hi);
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = iv;
        } else {
            self.entries.push((key.to_string(), iv));
        }
    }

    /// Exact-key lookup (used to resolve symbolic contract bounds).
    pub fn exact(&self, key: &str) -> Option<Interval> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, iv)| *iv)
    }

    /// The declared domain for an identifier: exact match, else the
    /// longest suffix entry matching at an `_` boundary.
    pub fn domain_of(&self, ident: &str) -> Option<Interval> {
        if let Some(iv) = self.exact(ident) {
            return Some(iv);
        }
        let mut best: Option<(usize, Interval)> = None;
        for (k, iv) in &self.entries {
            if ident.len() > k.len() && ident.ends_with(k.as_str()) {
                let boundary = ident.as_bytes()[ident.len() - k.len() - 1] == b'_';
                if boundary && best.is_none_or(|(l, _)| k.len() > l) {
                    best = Some((k.len(), *iv));
                }
            }
        }
        best.map(|(_, iv)| iv)
    }
}

/// One controller postcondition: values produced at the contracted point
/// must stay inside `required`. The key is a `::`-path; the last segment
/// may name a *binding* inside the function (`SaddleState::dual_update::
/// lam`), and the whole key is also tried as a function pattern whose
/// return interval is checked (scalar-returning functions only; a
/// postcondition on a struct belongs in its type, as `Feasible` carries
/// Eq. 18's budget box).
#[derive(Clone, Debug)]
pub struct Contract {
    /// The key as written (for messages and allowlisting).
    pub key: String,
    /// Full-key pattern: matches an item's qualified path (fn-level).
    full_pat: Pattern,
    /// Prefix pattern + binding name (binding-level), for keys with ≥ 2
    /// segments.
    binding_pat: Option<(Pattern, String)>,
    /// The required output interval.
    pub required: Interval,
}

impl Contract {
    /// Builds a contract from a parsed key and resolved bounds.
    pub fn new(key: &str, required: Interval) -> Result<Contract, String> {
        let full_pat = Pattern::parse(key).map_err(|e| format!("[contracts] {e}"))?;
        let binding_pat = match key.rsplit_once("::") {
            Some((prefix, last)) if !prefix.is_empty() => {
                let p = Pattern::parse(prefix).map_err(|e| format!("[contracts] {e}"))?;
                Some((p, last.to_string()))
            }
            _ => None,
        };
        Ok(Contract {
            key: key.to_string(),
            full_pat,
            binding_pat,
            required,
        })
    }
}

/// A contract key as a path pattern: `::`-separated segments matched as
/// a suffix of an item's qualified path (`crate::module::Owner::fn`),
/// where a `*` segment matches any one segment. `GridGp::*` therefore
/// matches `gp::grid::GridGp::posterior` and every other `GridGp` method.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pattern {
    segs: Vec<String>,
}

impl Pattern {
    /// Parses and validates a pattern string.
    fn parse(text: &str) -> Result<Pattern, String> {
        let segs: Vec<String> = text.split("::").map(str::to_string).collect();
        if segs.iter().any(String::is_empty) {
            return Err(format!("pattern `{text}` has an empty segment"));
        }
        for s in &segs {
            if s != "*" && !s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!(
                    "pattern `{text}`: segment `{s}` must be an identifier or `*`"
                ));
            }
        }
        Ok(Pattern { segs })
    }

    /// Suffix match against a qualified item path.
    fn matches_qualified(&self, qualified: &str) -> bool {
        let path: Vec<&str> = qualified.split("::").collect();
        if self.segs.len() > path.len() {
            return false;
        }
        let tail = &path[path.len() - self.segs.len()..];
        self.segs
            .iter()
            .zip(tail.iter())
            .all(|(p, s)| p == "*" || p == s)
    }
}

/// Compiled-in contracts, mirrored by `[contracts]` in `lint.toml`: the
/// paper's Theorem-1 preconditions that are locally provable.
pub fn default_contracts() -> Vec<Contract> {
    let mut out = Vec::new();
    for (key, lo, hi) in [
        // Eq. 15: dual variables stay nonnegative.
        ("SaddleState::dual_update::lam", 0.0, f64::INFINITY),
        // Eq. 17: the GP posterior variance is nonnegative.
        ("GridGp::*::var", 0.0, f64::INFINITY),
    ] {
        if let Ok(c) = Contract::new(key, Interval::range(lo, hi)) {
            out.push(c);
        }
    }
    out
}

/// Full configuration for the interval passes.
#[derive(Clone, Debug)]
pub struct AbsintConfig {
    pub domains: DomainsTable,
    pub contracts: Vec<Contract>,
}

impl Default for AbsintConfig {
    fn default() -> Self {
        AbsintConfig {
            domains: DomainsTable::defaults(),
            contracts: default_contracts(),
        }
    }
}

/// Result of the workspace interval pass.
pub struct AbsintOutcome {
    pub findings: Vec<Finding>,
    /// Division/modulo sites the intervals *resolved*: either proven
    /// nonzero (suppresses L5's DivRem finding there) or claimed by an
    /// L13 finding (avoids a double report). Keys are
    /// `(file label, line, divisor token)` — L5's dedupe key.
    pub resolved_divs: BTreeSet<(String, usize, String)>,
    /// Per-function return intervals, keyed by qualified name. Public so
    /// the soundness property test can compare against concrete runs.
    pub summaries: BTreeMap<String, Interval>,
}

/// Number of descending summary passes (see module docs: truncation is
/// sound, it only costs precision).
const SUMMARY_PASSES: usize = 3;
/// Loop-head widening iterations before declaring the local fixpoint.
const LOOP_ITERS: usize = 8;

/// Runs the interval passes (L13/L14/L15) over a built model.
pub fn interval_analysis(model: &Model, cfg: &AbsintConfig) -> AbsintOutcome {
    let n = model.items.len();
    let mut summaries: BTreeMap<usize, Interval> = BTreeMap::new();
    let mut findings = Vec::new();
    let mut resolved = BTreeSet::new();
    for pass in 0..SUMMARY_PASSES {
        let report = pass == SUMMARY_PASSES - 1;
        let mut next: BTreeMap<usize, Interval> = BTreeMap::new();
        for idx in 0..n {
            if model.items[idx].body.is_none() {
                continue;
            }
            let mut fa = FnAnalyzer::new(model, cfg, idx, &summaries, report);
            fa.run();
            if !fa.ret.is_bottom() {
                next.insert(idx, fa.ret);
            }
            if report {
                findings.extend(fa.findings);
                let label = &model.files[model.items[idx].file_idx].label;
                for (line, tok) in fa.resolved_divs {
                    resolved.insert((label.clone(), line, tok));
                }
            }
        }
        summaries = next;
    }
    findings
        .sort_by(|a, b| (a.file.clone(), a.line, a.code).cmp(&(b.file.clone(), b.line, b.code)));
    let by_name = summaries
        .iter()
        .map(|(&i, iv)| (model.items[i].qualified(), *iv))
        .collect();
    AbsintOutcome {
        findings,
        resolved_divs: resolved,
        summaries: by_name,
    }
}

/// Convenience for tests: build a one-file model and return the interval
/// summaries under the default configuration.
pub fn summaries_for_source(label: &str, source: &str) -> BTreeMap<String, Interval> {
    let model = Model::build(vec![(
        label.to_string(),
        "fixture".to_string(),
        crate::prep::prepare(source),
    )]);
    interval_analysis(&model, &AbsintConfig::default()).summaries
}

// ---------------------------------------------------------------------------
// The per-function interpreter.
// ---------------------------------------------------------------------------

type Env = BTreeMap<String, Interval>;

/// Where a name's current value came from (for derivation chains).
#[derive(Clone, Debug)]
struct DefRec {
    line: usize,
    text: String,
    deps: Vec<String>,
    iv: Interval,
}

/// Output of executing a block: its tail value, whether control falls
/// through the end, and the environments at any `break` inside it (owed
/// to the nearest enclosing loop).
struct BlockOut {
    value: Interval,
    falls: bool,
    breaks: Vec<Env>,
    conts: Vec<Env>,
}

struct FnAnalyzer<'a> {
    model: &'a Model,
    cfg: &'a AbsintConfig,
    idx: usize,
    toks: &'a [Tok],
    body: (usize, usize),
    summaries: &'a BTreeMap<usize, Interval>,
    /// Whether this is the reporting pass.
    report: bool,
    /// Nonzero while inside a non-final loop-fixpoint iteration: checks and
    /// recordings are muted there and fire on the post-stabilization run.
    mute: usize,
    findings: Vec<Finding>,
    dedupe: BTreeSet<(&'static str, usize, String)>,
    /// `(line, divisor token)` pairs resolved at div/rem sites.
    resolved_divs: BTreeSet<(usize, String)>,
    /// Joined return interval (BOTTOM until a `return`/tail is seen).
    ret: Interval,
    /// Identifiers feeding the returned value (chain seeds).
    ret_deps: Vec<String>,
    defs: BTreeMap<String, DefRec>,
    /// Contract-relevant binding occurrences: (name, line) -> (interval,
    /// deps). Overwritten per site, so loop sites keep the stabilized
    /// value from the final execution.
    bindings: BTreeMap<(String, usize), (Interval, Vec<String>)>,
}
/// Integer-typed range helpers (all values exactly representable except
/// the 64-bit maxima, which round *up* — conservative for upper bounds).
const U64_MAX_F: f64 = 1.8446744073709552e19;
const I64_MAX_F: f64 = 9.223372036854776e18;
/// Largest f64 with an exact integer successor — the cap above which a
/// float→usize conversion silently loses integer precision (L14).
const F64_EXACT_INT_MAX: f64 = 9007199254740992.0;

/// The numeric range implied by a primitive-type token, if any.
fn type_range(ty: &str) -> Option<Interval> {
    let mut iv = match ty {
        "usize" | "u64" => Interval::range(0.0, U64_MAX_F),
        "u32" => Interval::range(0.0, 4294967295.0),
        "u16" => Interval::range(0.0, 65535.0),
        "u8" => Interval::range(0.0, 255.0),
        "isize" | "i64" => Interval::range(-I64_MAX_F, I64_MAX_F),
        "i32" => Interval::range(-2147483648.0, 2147483647.0),
        "i16" => Interval::range(-32768.0, 32767.0),
        "i8" => Interval::range(-128.0, 127.0),
        _ => return None,
    };
    iv.int = true;
    Some(iv)
}

fn is_int_type(ty: &str) -> bool {
    type_range(ty).is_some()
}

/// True when the interval carries no information beyond a declared
/// integer type — exactly `[T::MIN, T::MAX]` for some primitive `T`.
/// Dividing by such a value is L5's business (panic reachability from
/// the public API), not L13's: the intervals have proven nothing.
fn is_bare_type_range(iv: &Interval) -> bool {
    ["u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64"]
        .iter()
        .any(|t| type_range(t).is_some_and(|tr| tr.lo == iv.lo && tr.hi == iv.hi))
}

fn is_float_type(ty: &str) -> bool {
    ty == "f64" || ty == "f32"
}

/// Whether the item's return type mentions a scalar numeric primitive —
/// the gate for fn-level L15 contracts and for publishing a summary
/// worth consuming (struct-returning functions summarize as TOP anyway).
fn returns_scalar(toks: &[Tok], sig_end: usize, body_start: usize) -> bool {
    toks[sig_end..body_start]
        .iter()
        .any(|t| is_int_type(&t.text) || is_float_type(&t.text))
}

/// Joins two environments pointwise; a name known on only one side joins
/// with TOP (we know nothing about it on the other path).
fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, va) in a {
        let j = match b.get(k) {
            Some(vb) => va.join(vb),
            None => va.join(&Interval::TOP),
        };
        out.insert(k.clone(), j);
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            out.insert(k.clone(), vb.join(&Interval::TOP));
        }
    }
    out
}

impl<'a> FnAnalyzer<'a> {
    fn new(
        model: &'a Model,
        cfg: &'a AbsintConfig,
        idx: usize,
        summaries: &'a BTreeMap<usize, Interval>,
        report: bool,
    ) -> FnAnalyzer<'a> {
        let item = &model.items[idx];
        let toks = &model.files[item.file_idx].tokens;
        FnAnalyzer {
            model,
            cfg,
            idx,
            toks,
            body: item.body.unwrap_or((0, 0)),
            summaries,
            report,
            mute: 0,
            findings: Vec::new(),
            dedupe: BTreeSet::new(),
            resolved_divs: BTreeSet::new(),
            ret: Interval::BOTTOM,
            ret_deps: Vec::new(),
            defs: BTreeMap::new(),
            bindings: BTreeMap::new(),
        }
    }

    fn item(&self) -> &'a crate::model::Item {
        &self.model.items[self.idx]
    }

    fn file_label(&self) -> &str {
        &self.model.files[self.item().file_idx].label
    }

    fn run(&mut self) {
        let mut env = Env::new();
        self.seed_params(&mut env);
        // `body` is the token range *inside* the braces, `[start, end)`.
        let (lo, hi) = self.body;
        let out = self.exec_block(&mut env, lo, hi);
        if out.falls {
            self.accumulate_return(out.value, Vec::new());
        }
        if self.ret.is_bottom() {
            // Unit functions / bodies we could not follow: publish TOP so
            // callers at least know "some value" came back.
            self.ret = Interval::TOP;
        }
        if self.report {
            self.check_contracts();
        }
    }

    /// Seeds parameter intervals from type annotations meet declared
    /// domains. `sig` is the token range *inside* the parens, `[start, end)`.
    fn seed_params(&mut self, env: &mut Env) {
        let item = self.item();
        let (slo, shi) = item.sig;
        let mut j = slo;
        while j < shi {
            // Each parameter: pattern `name : Type` up to a top-level `,`.
            let start = j;
            let mut depth = 0i32;
            let mut colon = None;
            while j < shi {
                match self.toks[j].text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    ":" if depth == 0 && colon.is_none() => colon = Some(j),
                    "," if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(c) = colon {
                // Take the last plain ident before the colon as the name
                // (skips `mut`, `&`, `ref`).
                let name = self.toks[start..c]
                    .iter()
                    .rev()
                    .find(|t| is_ident(&t.text) && t.text != "mut" && t.text != "ref")
                    .map(|t| t.text.clone());
                if let Some(name) = name {
                    let mut iv = Interval::TOP;
                    let mut scalar = false;
                    for t in &self.toks[c + 1..j.min(shi)] {
                        if let Some(tr) = type_range(&t.text) {
                            iv = iv.meet(&tr);
                            scalar = true;
                            break;
                        }
                        if is_float_type(&t.text) {
                            scalar = true;
                            break;
                        }
                    }
                    if let Some(dom) = self.cfg.domains.domain_of(&name) {
                        iv = iv.meet(&dom);
                        scalar = true;
                    }
                    if scalar && !iv.is_top() {
                        env.insert(name.clone(), iv);
                        self.defs.insert(
                            name.clone(),
                            DefRec {
                                line: item.line,
                                text: format!(
                                    "parameter, seeded {} from type/[domains]",
                                    iv.render()
                                ),
                                deps: Vec::new(),
                                iv,
                            },
                        );
                    } else if scalar {
                        // Unbounded scalar (e.g. a bare f64): recorded so
                        // derivation chains can name where the uncertainty
                        // enters, but not seeded into the environment.
                        self.defs.insert(
                            name.clone(),
                            DefRec {
                                line: item.line,
                                text: "parameter (unbounded)".to_string(),
                                deps: Vec::new(),
                                iv: Interval::TOP,
                            },
                        );
                    }
                }
            }
            j += 1; // past the comma
        }
    }

    fn accumulate_return(&mut self, v: Interval, deps: Vec<String>) {
        self.ret = self.ret.join(&v);
        for d in deps {
            if !self.ret_deps.contains(&d) {
                self.ret_deps.push(d);
            }
        }
    }

    /// Looks up a name: environment first (flow-sensitive), then field /
    /// free-ident fallback to the declared domain table.
    fn lookup(&self, env: &Env, name: &str) -> Interval {
        if let Some(iv) = env.get(name) {
            return *iv;
        }
        // `self.field` composite names fall back on the field suffix.
        let tail = name.rsplit('.').next().unwrap_or(name);
        if let Some(dom) = self.cfg.domains.domain_of(tail) {
            return dom;
        }
        Interval::TOP
    }

    // -- findings ----------------------------------------------------------

    fn emit(
        &mut self,
        code: &'static str,
        line: usize,
        token: &str,
        message: String,
        seeds: &[String],
        env: &Env,
    ) {
        if self.mute > 0 || !self.report {
            return;
        }
        if !self.dedupe.insert((code, line, token.to_string())) {
            return;
        }
        let chain = self.build_chain(seeds, env);
        self.findings.push(Finding {
            file: self.file_label().to_string(),
            line,
            code,
            token: token.to_string(),
            message,
            chain,
        });
    }

    /// BFS through the def records from the seed identifiers, producing a
    /// derivation chain from the offending expression back to its inputs.
    fn build_chain(&self, seeds: &[String], env: &Env) -> Vec<String> {
        let mut chain = vec![format!("fn {}", self.item().qualified())];
        let mut seen = BTreeSet::new();
        let mut q: VecDeque<String> = seeds.iter().cloned().collect();
        while let Some(name) = q.pop_front() {
            if chain.len() >= 7 || !seen.insert(name.clone()) {
                continue;
            }
            if let Some(def) = self.defs.get(&name) {
                let iv = env.get(&name).copied().unwrap_or(def.iv);
                chain.push(format!(
                    "{} = {} @ line {} -> {}",
                    name,
                    def.text,
                    def.line,
                    iv.render()
                ));
                for d in &def.deps {
                    q.push_back(d.clone());
                }
            } else if let Some(iv) = env.get(&name) {
                chain.push(format!("{} -> {}", name, iv.render()));
            } else {
                // Unseeded input (e.g. an unbounded f64 parameter): still
                // worth naming — it is where the uncertainty enters.
                chain.push(format!("{name} -> (no recorded bounds)"));
            }
        }
        chain
    }

    /// L15: after the final body execution, match contracts against the
    /// return summary and recorded bindings.
    fn check_contracts(&mut self) {
        let qualified = self.item().qualified();
        let item = self.item();
        let scalar_ret = item
            .body
            .map(|(b, _)| returns_scalar(self.toks, item.sig.1, b))
            .unwrap_or(false);
        let contracts = self.cfg.contracts.clone();
        for c in &contracts {
            // Fn-level: the whole key matches this item's path.
            if scalar_ret && c.full_pat.matches_qualified(&qualified) && !self.ret.is_bottom() {
                let ok = self.ret.within(&c.required);
                if !ok {
                    let seeds = self.ret_deps.clone();
                    let msg = format!(
                        "`{}` violates contract `{}` = {}: computed return interval {}",
                        qualified,
                        c.key,
                        c.required.render(),
                        self.ret.render()
                    );
                    let env = Env::new();
                    self.emit("L15", item.line, &item.name, msg, &seeds, &env);
                }
            }
            // Binding-level: prefix matches the item, last segment names a
            // binding recorded during execution.
            if let Some((prefix, bind)) = &c.binding_pat {
                if prefix.matches_qualified(&qualified) {
                    let hits: Vec<(usize, Interval, Vec<String>)> = self
                        .bindings
                        .iter()
                        .filter(|((n, _), _)| {
                            n == bind || n.rsplit('.').next() == Some(bind.as_str())
                        })
                        .map(|((_, line), (iv, deps))| (*line, *iv, deps.clone()))
                        .collect();
                    for (line, iv, deps) in hits {
                        if !iv.is_bottom() && !iv.within(&c.required) {
                            let msg = format!(
                                "binding `{}` in `{}` violates contract `{}` = {}: computed {}",
                                bind,
                                qualified,
                                c.key,
                                c.required.render(),
                                iv.render()
                            );
                            let env = Env::new();
                            self.emit("L15", line, bind, msg, &deps, &env);
                        }
                    }
                }
            }
        }
    }

    // -- statement walker --------------------------------------------------

    /// Executes the token range `[lo, hi)` as a statement sequence.
    fn exec_block(&mut self, env: &mut Env, lo: usize, hi: usize) -> BlockOut {
        let mut j = lo;
        let mut value = Interval::TOP;
        let mut value_deps: Vec<String> = Vec::new();
        let mut falls = true;
        let mut breaks: Vec<Env> = Vec::new();
        let mut conts: Vec<Env> = Vec::new();
        while j < hi {
            let text = self.toks[j].text.clone();
            match text.as_str() {
                ";" => {
                    j += 1;
                }
                "let" => {
                    j = self.exec_let(env, j, hi);
                }
                "if" => {
                    let (out, next) = self.exec_if(env, j, hi);
                    breaks.extend(out.breaks);
                    conts.extend(out.conts);
                    if !out.falls {
                        falls = false;
                        break;
                    }
                    value = out.value;
                    value_deps.clear();
                    j = next;
                }
                "while" | "loop" | "for" => {
                    let (loop_falls, next) = self.exec_loop(env, j, hi);
                    if !loop_falls {
                        falls = false;
                        break;
                    }
                    value = Interval::TOP;
                    j = next;
                }
                "match" => {
                    j = self.exec_match(env, j, hi);
                    value = Interval::TOP;
                    value_deps.clear();
                }
                "return" => {
                    let end = stmt_end_abs(self.toks, j + 1, hi);
                    let v = if end > j + 1 {
                        self.eval_range(env, j + 1, end)
                    } else {
                        Interval::TOP
                    };
                    let deps = self.deps_in_range(env, j + 1, end);
                    if self.mute == 0 {
                        self.accumulate_return(v, deps);
                    }
                    falls = false;
                    break;
                }
                "break" => {
                    breaks.push(env.clone());
                    falls = false;
                    break;
                }
                "continue" => {
                    conts.push(env.clone());
                    falls = false;
                    break;
                }
                "assert" | "debug_assert" => {
                    // `assert!(cond, "...")` — execute as an assumption.
                    if j + 2 < hi && self.toks[j + 1].text == "!" && self.toks[j + 2].text == "(" {
                        let close = matching_close(self.toks, j + 2, hi);
                        let cend = top_level_comma(self.toks, j + 3, close).unwrap_or(close);
                        self.eval_range(env, j + 3, cend);
                        self.refine_cond(env, j + 3, cend, true);
                        j = stmt_end_abs(self.toks, close, hi);
                    } else {
                        j = stmt_end_abs(self.toks, j + 1, hi);
                    }
                }
                "{" => {
                    let close = matching_close(self.toks, j, hi);
                    let out = self.exec_block(env, j + 1, close);
                    breaks.extend(out.breaks);
                    conts.extend(out.conts);
                    if !out.falls {
                        falls = false;
                        break;
                    }
                    value = out.value;
                    value_deps.clear();
                    j = close + 1;
                }
                _ => {
                    let end = stmt_end_abs(self.toks, j, hi);
                    if let Some((name, op, rhs_from)) = self.parse_assignment(j, end) {
                        let rhs = self.eval_range(env, rhs_from, end);
                        let mut deps = self.deps_in_range(env, rhs_from, end);
                        let line = self.toks[j].line;
                        let new = match op {
                            None => rhs,
                            Some(o) => {
                                let old = self.lookup(env, &name);
                                if !deps.contains(&name) {
                                    deps.push(name.clone());
                                }
                                self.apply_binop(env, o, old, rhs, j, end)
                            }
                        };
                        if let Some(name) = name_if_bindable(&name) {
                            self.record_binding(env, &name, new, line, rhs_from, end, deps);
                        }
                        j = end + 1;
                    } else {
                        let v = self.eval_range(env, j, end);
                        if end >= hi && !self.toks[end.min(hi) - 1].text.eq(";") {
                            value = v;
                            value_deps = self.deps_in_range(env, j, end);
                        }
                        j = end + 1;
                    }
                }
            }
        }
        if falls && !value_deps.is_empty() {
            // Tail expression: its deps seed the return chain.
            for d in value_deps {
                if !self.ret_deps.contains(&d) {
                    self.ret_deps.push(d);
                }
            }
        }
        BlockOut {
            value,
            falls,
            breaks,
            conts,
        }
    }

    /// `let` statement: binds pattern names; single-name patterns get the
    /// evaluated rhs (meet type annotation), multi-name patterns get TOP.
    fn exec_let(&mut self, env: &mut Env, j: usize, hi: usize) -> usize {
        let end = stmt_end_abs(self.toks, j, hi);
        // Find `=` and `:` at depth 0 within the let head.
        let mut depth = 0i32;
        let mut eq = None;
        let mut colon = None;
        let mut k = j + 1;
        while k < end {
            match self.toks[k].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" if depth == 0 && colon.is_none() && eq.is_none() => colon = Some(k),
                "=" if depth == 0
                    && eq.is_none()
                    && self.toks[k + 1].text != "="
                    && !matches!(self.toks[k - 1].text.as_str(), "=" | "<" | ">" | "!") =>
                {
                    eq = Some(k)
                }
                _ => {}
            }
            k += 1;
        }
        let pat_end = colon.or(eq).unwrap_or(end);
        let names: Vec<String> = self.toks[j + 1..pat_end]
            .iter()
            .filter(|t| is_ident(&t.text) && t.text != "mut" && t.text != "ref")
            .map(|t| t.text.clone())
            .collect();
        let Some(eq) = eq else {
            for n in names {
                Self::purge_fields(env, &n);
                env.insert(n, Interval::TOP);
            }
            return end + 1;
        };
        let rhs = self.eval_range(env, eq + 1, end);
        if names.len() == 1 {
            let name = names[0].clone();
            let mut iv = rhs;
            if let Some(c) = colon {
                for t in &self.toks[c + 1..eq] {
                    if let Some(tr) = type_range(&t.text) {
                        iv = iv.meet(&tr);
                        break;
                    }
                }
            }
            let deps = self.deps_in_range(env, eq + 1, end);
            let line = self.toks[j].line;
            self.record_binding(env, &name, iv, line, eq + 1, end, deps);
        } else {
            for n in names {
                Self::purge_fields(env, &n);
                env.insert(n, Interval::TOP);
            }
        }
        end + 1
    }

    /// Drops keys rooted at `name` (`name.len()`, `name.field`): rebinding
    /// the base invalidates every fact recorded about its parts.
    fn purge_fields(env: &mut Env, name: &str) {
        env.retain(|k, _| {
            !(k.len() > name.len() && k.starts_with(name) && k.as_bytes()[name.len()] == b'.')
        });
    }

    /// Binds `name` to `iv`, recording the def text (for chains) and the
    /// binding site (for contracts).
    #[allow(clippy::too_many_arguments)]
    fn record_binding(
        &mut self,
        env: &mut Env,
        name: &str,
        iv: Interval,
        line: usize,
        rhs_from: usize,
        rhs_to: usize,
        deps: Vec<String>,
    ) {
        Self::purge_fields(env, name);
        env.insert(name.to_string(), iv);
        if self.mute == 0 {
            let text = render_range(self.toks, rhs_from, rhs_to, 12);
            self.defs.insert(
                name.to_string(),
                DefRec {
                    line,
                    text,
                    deps: deps.clone(),
                    iv,
                },
            );
            self.bindings.insert((name.to_string(), line), (iv, deps));
        }
    }

    /// `if`/`if let` as statement or expression; returns the joined
    /// fall-through state in `env` and the arm-value join.
    fn exec_if(&mut self, env: &mut Env, j: usize, hi: usize) -> (BlockOut, usize) {
        let is_if_let = self.toks.get(j + 1).map(|t| t.text.as_str()) == Some("let");
        let Some(brace) = find_block_open(self.toks, j + 1, hi) else {
            return (
                BlockOut {
                    value: Interval::TOP,
                    falls: true,
                    breaks: Vec::new(),
                    conts: Vec::new(),
                },
                stmt_end_abs(self.toks, j, hi) + 1,
            );
        };
        let close = matching_close(self.toks, brace, hi);
        let (clo, chi) = (j + 1, brace);
        self.eval_range(env, clo, chi);
        let mut then_env = env.clone();
        let mut else_env = env.clone();
        if !is_if_let {
            self.refine_cond(&mut then_env, clo, chi, true);
            self.refine_cond(&mut else_env, clo, chi, false);
        }
        let then_out = self.exec_block(&mut then_env, brace + 1, close);
        let mut breaks = then_out.breaks;
        let mut conts = then_out.conts;
        let mut next = close + 1;
        let (else_out_value, else_falls) =
            if self.toks.get(next).map(|t| t.text.as_str()) == Some("else") {
                if self.toks.get(next + 1).map(|t| t.text.as_str()) == Some("if") {
                    let (out, n2) = self.exec_if(&mut else_env, next + 1, hi);
                    breaks.extend(out.breaks);
                    conts.extend(out.conts);
                    next = n2;
                    (out.value, out.falls)
                } else if let Some(eb) = find_block_open(self.toks, next + 1, hi) {
                    let eclose = matching_close(self.toks, eb, hi);
                    let out = self.exec_block(&mut else_env, eb + 1, eclose);
                    breaks.extend(out.breaks);
                    conts.extend(out.conts);
                    next = eclose + 1;
                    (out.value, out.falls)
                } else {
                    (Interval::TOP, true)
                }
            } else {
                (Interval::TOP, true)
            };
        let (value, falls) = match (then_out.falls, else_falls) {
            (true, true) => {
                *env = join_env(&then_env, &else_env);
                (then_out.value.join(&else_out_value), true)
            }
            (true, false) => {
                *env = then_env;
                (then_out.value, true)
            }
            (false, true) => {
                *env = else_env;
                (else_out_value, true)
            }
            (false, false) => (Interval::BOTTOM, false),
        };
        (
            BlockOut {
                value,
                falls,
                breaks,
                conts,
            },
            next,
        )
    }

    /// `match`: havoc every assigned name in the arms (we do not follow
    /// arm control flow), conservatively widen the return accumulator if
    /// any arm returns, and continue after the closing brace.
    fn exec_match(&mut self, env: &mut Env, j: usize, hi: usize) -> usize {
        let Some(brace) = find_block_open(self.toks, j + 1, hi) else {
            return stmt_end_abs(self.toks, j, hi) + 1;
        };
        let close = matching_close(self.toks, brace, hi);
        self.eval_range(env, j + 1, brace);
        self.havoc_region(env, brace + 1, close);
        if self.mute == 0
            && self.toks[brace + 1..close]
                .iter()
                .any(|t| t.text == "return")
        {
            self.accumulate_return(Interval::TOP, Vec::new());
        }
        let mut next = close + 1;
        if self.toks.get(next).map(|t| t.text.as_str()) == Some(";") {
            next += 1;
        }
        next
    }

    /// Sets every name assigned anywhere in `[lo, hi)` to TOP.
    fn havoc_region(&mut self, env: &mut Env, lo: usize, hi: usize) {
        let mut k = lo;
        while k + 1 < hi {
            let t = &self.toks[k].text;
            if t == "="
                && self.toks[k + 1].text != "="
                && !matches!(self.toks[k - 1].text.as_str(), "=" | "<" | ">" | "!")
                && self.toks.get(k + 1).map(|t| t.text.as_str()) != Some(">")
            {
                // Walk back over `name`, `self . name`, `* name`, compound op.
                let mut b = k - 1;
                if matches!(self.toks[b].text.as_str(), "+" | "-" | "*" | "/" | "%") && b > lo {
                    b -= 1;
                }
                if is_ident(&self.toks[b].text) {
                    Self::purge_fields(env, &self.toks[b].text);
                    env.insert(self.toks[b].text.clone(), Interval::TOP);
                    if b >= 2 && self.toks[b - 1].text == "." && is_ident(&self.toks[b - 2].text) {
                        let composite = format!("{}.{}", self.toks[b - 2].text, self.toks[b].text);
                        env.insert(composite, Interval::TOP);
                    }
                }
            }
            if t == "let" {
                // Arm-local lets shadow; conservatively havoc their names.
                let end = stmt_end_abs(self.toks, k, hi);
                for tk in &self.toks[k + 1..end.min(hi)] {
                    if tk.text == "=" {
                        break;
                    }
                    if is_ident(&tk.text) && tk.text != "mut" && tk.text != "ref" {
                        Self::purge_fields(env, &tk.text);
                        env.insert(tk.text.clone(), Interval::TOP);
                    }
                }
            }
            k += 1;
        }
    }

    /// `while`/`loop`/`for`: widening fixpoint at the head, one narrowing
    /// pass, then a final reporting execution. Returns (falls, next idx).
    fn exec_loop(&mut self, env: &mut Env, j: usize, hi: usize) -> (bool, usize) {
        let kind = self.toks[j].text.clone();
        let Some(brace) = find_block_open(self.toks, j + 1, hi) else {
            return (true, stmt_end_abs(self.toks, j, hi) + 1);
        };
        let close = matching_close(self.toks, brace, hi);
        let after = close + 1;
        let plain_while =
            kind == "while" && self.toks.get(j + 1).map(|t| t.text.as_str()) != Some("let");
        let (clo, chi) = (j + 1, brace);
        let for_bind = if kind == "for" {
            self.parse_for_binding(env, j + 1, brace)
        } else {
            None
        };

        let mut head = env.clone();
        self.mute += 1;
        for it in 0..LOOP_ITERS {
            let mut cur = head.clone();
            if let Some(binds) = &for_bind {
                for (n, iv) in binds {
                    cur.insert(n.clone(), *iv);
                }
            }
            if plain_while {
                self.refine_cond(&mut cur, clo, chi, true);
            }
            let out = self.exec_block(&mut cur, brace + 1, close);
            let mut new_head = head.clone();
            if out.falls {
                new_head = join_env(&new_head, &cur);
            }
            for c in &out.conts {
                new_head = join_env(&new_head, c);
            }
            if it >= 1 {
                for (k, v) in new_head.iter_mut() {
                    if let Some(old) = head.get(k) {
                        *v = old.widen(v);
                    }
                }
            }
            if new_head == head {
                break;
            }
            head = new_head;
        }
        // One narrowing pass recovers bounds widening threw away where the
        // body immediately re-establishes them.
        {
            let mut cur = head.clone();
            if let Some(binds) = &for_bind {
                for (n, iv) in binds {
                    cur.insert(n.clone(), *iv);
                }
            }
            if plain_while {
                self.refine_cond(&mut cur, clo, chi, true);
            }
            let out = self.exec_block(&mut cur, brace + 1, close);
            if out.falls {
                let mut post = env.clone();
                post = join_env(&post, &cur);
                for c in &out.conts {
                    post = join_env(&post, c);
                }
                for (k, v) in head.iter_mut() {
                    if let Some(p) = post.get(k) {
                        *v = v.narrow(p);
                    }
                }
            }
        }
        self.mute -= 1;
        // Final, unmuted execution: checks and bindings fire against the
        // stabilized head.
        let mut fin = head.clone();
        if let Some(binds) = &for_bind {
            for (n, iv) in binds {
                fin.insert(n.clone(), *iv);
            }
        }
        self.eval_range(&fin, clo, chi);
        if plain_while {
            self.refine_cond(&mut fin, clo, chi, true);
        }
        let out = self.exec_block(&mut fin, brace + 1, close);
        let mut exit = head.clone();
        if plain_while {
            self.refine_cond(&mut exit, clo, chi, false);
        }
        let mut reachable = kind != "loop";
        for b in &out.breaks {
            exit = join_env(&exit, b);
            reachable = true;
        }
        if !reachable {
            return (false, after);
        }
        *env = exit;
        (true, after)
    }

    /// `for NAME in a..b` binds NAME to the (integer) range; any other
    /// iterator binds the pattern names to TOP. When the range end is a
    /// plain ident, a second binding refines it: the body only runs when
    /// the range is non-empty, so `end > a.lo` (or `>=` for `..=`) holds
    /// inside.
    fn parse_for_binding(
        &mut self,
        env: &Env,
        lo: usize,
        brace: usize,
    ) -> Option<Vec<(String, Interval)>> {
        let in_pos = (lo..brace).find(|&k| self.toks[k].text == "in")?;
        let name = self.toks[lo..in_pos]
            .iter()
            .find(|t| is_ident(&t.text) && t.text != "mut" && t.text != "ref")?
            .text
            .clone();
        // Range iterator: `a .. b` / `a ..= b` at depth 0.
        let mut depth = 0i32;
        for k in in_pos + 1..brace.saturating_sub(1) {
            match self.toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "." if depth == 0 && self.toks[k + 1].text == "." => {
                    let a = if k > in_pos + 1 {
                        self.eval_range(env, in_pos + 1, k)
                    } else {
                        Interval::TOP
                    };
                    let mut r = k + 2;
                    let inclusive = self.toks.get(r).map(|t| t.text.as_str()) == Some("=");
                    if inclusive {
                        r += 1;
                    }
                    let b = if r < brace {
                        self.eval_range(env, r, brace)
                    } else {
                        Interval::TOP
                    };
                    let mut iv = Interval::TOP;
                    iv.int = true;
                    iv.nan = false;
                    if !a.is_bottom() {
                        iv.lo = a.lo.floor();
                    }
                    if !b.is_bottom() {
                        // b.hi is a sound cap for `..` and `..=` alike: the
                        // exclusive form only tightens it by one.
                        iv.hi = b.hi;
                    }
                    if iv.lo > iv.hi {
                        iv = Interval::TOP;
                    }
                    let mut binds = vec![(name, iv)];
                    if brace - r == 1
                        && is_ident(&self.toks[r].text)
                        && !crate::model::is_reserved_word(&self.toks[r].text)
                        && !a.is_bottom()
                        && a.lo.is_finite()
                    {
                        // Non-emptiness: concrete end > concrete start
                        // >= a.lo, so end >= a.lo + 1 (ints) inside the
                        // body; `..=` only needs end >= a.lo.
                        let lo_req = if inclusive { a.lo } else { a.lo + 1.0 };
                        let end_iv = b.meet(&Interval::range(lo_req, f64::INFINITY));
                        if !end_iv.is_bottom() {
                            binds.push((self.toks[r].text.clone(), end_iv));
                        }
                    }
                    return Some(binds);
                }
                _ => {}
            }
        }
        Some(vec![(name, Interval::TOP)])
    }

    /// Detects `LHS =` / `LHS op=` at statement start. Returns the bound
    /// name (`""` if the LHS is unbindable, e.g. indexed), the compound
    /// operator, and the rhs start index.
    fn parse_assignment(&self, j: usize, end: usize) -> Option<(String, Option<char>, usize)> {
        let mut depth = 0i32;
        let mut k = j;
        let mut eq = None;
        while k < end {
            match self.toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 && k > j => {
                    let next = self.toks.get(k + 1).map(|t| t.text.as_str());
                    let prev = self.toks[k - 1].text.as_str();
                    let shiftish =
                        (prev == "<" || prev == ">") && k >= 2 && self.toks[k - 2].text == prev;
                    if next != Some("=")
                        && next != Some(">")
                        && (!matches!(prev, "=" | "<" | ">" | "!") || shiftish)
                    {
                        eq = Some(k);
                        break;
                    }
                    // Skip the second half of `==`/`<=`/`>=`/`!=`.
                }
                _ => {}
            }
            k += 1;
        }
        let eq = eq?;
        let prev = self.toks[eq - 1].text.as_str();
        let (op, lhs_end) = match prev {
            "+" | "-" | "*" | "/" | "%" if eq - 1 > j => {
                (Some(prev.chars().next().unwrap_or('+')), eq - 1)
            }
            "<" | ">" => (Some('s'), eq.saturating_sub(2)), // shift-assign: havoc
            _ => (None, eq),
        };
        let lhs = &self.toks[j..lhs_end];
        let name = match lhs {
            [a] if is_ident(&a.text) => a.text.clone(),
            [s, a] if s.text == "*" && is_ident(&a.text) => a.text.clone(),
            [a, d, b] if is_ident(&a.text) && d.text == "." && is_ident(&b.text) => {
                format!("{}.{}", a.text, b.text)
            }
            _ => String::new(),
        };
        Some((name, op, eq + 1))
    }

    /// Applies a compound-assignment operator with the div/overflow checks.
    fn apply_binop(
        &mut self,
        env: &Env,
        op: char,
        a: Interval,
        b: Interval,
        rhs_from: usize,
        rhs_to: usize,
    ) -> Interval {
        let line = self.toks[rhs_from.min(self.toks.len() - 1)].line;
        match op {
            '+' => {
                let r = a.add(&b);
                self.check_overflow(env, line, &a, &b, &r, rhs_from, rhs_to, "+");
                r
            }
            '-' => {
                let r = a.sub(&b);
                self.check_overflow(env, line, &a, &b, &r, rhs_from, rhs_to, "-");
                r
            }
            '*' => {
                let r = a.mul(&b);
                self.check_overflow(env, line, &a, &b, &r, rhs_from, rhs_to, "*");
                r
            }
            '/' => {
                self.check_div(env, line, &a, &b, rhs_from, rhs_to);
                a.div(&b)
            }
            '%' => {
                self.check_div(env, line, &a, &b, rhs_from, rhs_to);
                a.rem(&b)
            }
            _ => {
                // Shift-assign and anything exotic: give up precisely.
                let mut t = Interval::TOP;
                t.nan = false;
                t.int = a.int;
                t
            }
        }
    }

    // -- branch-condition refinement ---------------------------------------

    /// Refines `env` under the condition `[lo, hi)` being `polarity`.
    fn refine_cond(&mut self, env: &mut Env, mut lo: usize, mut hi: usize, polarity: bool) {
        if lo >= hi {
            return;
        }
        // Strip a fully-wrapping paren layer.
        while self.toks[lo].text == "(" && matching_close(self.toks, lo, hi) == hi - 1 {
            lo += 1;
            hi -= 1;
            if lo >= hi {
                return;
            }
        }
        // Conjunction/disjunction split (`&&` / `||` are doubled tokens).
        // This runs before the `!` strip: `!` binds tighter than the
        // connectives, so `!a || b` splits at `||` first.
        let mut depth = 0i32;
        let mut k = lo;
        while k + 1 < hi {
            match self.toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "&" if depth == 0 && self.toks[k + 1].text == "&" => {
                    if polarity {
                        self.refine_cond(env, lo, k, true);
                        self.refine_cond(env, k + 2, hi, true);
                    }
                    return;
                }
                "|" if depth == 0 && self.toks[k + 1].text == "|" => {
                    if !polarity {
                        self.refine_cond(env, lo, k, false);
                        self.refine_cond(env, k + 2, hi, false);
                    }
                    return;
                }
                _ => {}
            }
            k += 1;
        }
        if self.toks[lo].text == "!" {
            self.refine_cond(env, lo + 1, hi, !polarity);
            return;
        }
        // Method-style predicates.
        if hi - lo >= 5
            && self.toks[hi - 1].text == ")"
            && self.toks[hi - 2].text == "("
            && self.toks[hi - 3].text == "is_nan"
            && self.toks[hi - 4].text == "."
        {
            if let Some(name) = self.cond_side_name(lo, hi - 4) {
                let cur = self.lookup(env, &name);
                let refined = if polarity {
                    // NaN-only.
                    Interval {
                        lo: f64::INFINITY,
                        hi: f64::NEG_INFINITY,
                        nan: true,
                        int: false,
                    }
                } else {
                    Interval { nan: false, ..cur }
                };
                env.insert(name, refined);
            }
            return;
        }
        if hi - lo >= 5
            && self.toks[hi - 1].text == ")"
            && self.toks[hi - 2].text == "("
            && self.toks[hi - 3].text == "is_empty"
            && self.toks[hi - 4].text == "."
        {
            if let Some(name) = self.cond_side_name(lo, hi - 4) {
                // Record the container's length under a synthetic key so a
                // later `name.len()` in the same region sees the fact.
                let mut iv = if polarity {
                    Interval::range(0.0, 0.0)
                } else {
                    Interval::range(1.0, U64_MAX_F)
                };
                iv.int = true;
                iv.nan = false;
                env.insert(format!("{name}.len()"), iv);
            }
            return;
        }
        if hi - lo >= 5
            && self.toks[hi - 1].text == ")"
            && self.toks[hi - 2].text == "("
            && self.toks[hi - 3].text == "is_finite"
            && self.toks[hi - 4].text == "."
            && polarity
        {
            if let Some(name) = self.cond_side_name(lo, hi - 4) {
                let cur = self.lookup(env, &name);
                env.insert(
                    name,
                    Interval {
                        nan: false,
                        ..cur.meet(&Interval::range(-f64::MAX, f64::MAX))
                    },
                );
            }
            return;
        }
        // Comparison `A op B`.
        let mut depth = 0i32;
        let mut cmp = None;
        let mut k = lo;
        while k < hi {
            let t = self.toks[k].text.as_str();
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "=" if depth == 0 && self.toks.get(k + 1).map(|t| t.text.as_str()) == Some("=") => {
                    cmp = Some(("==", k, k + 2));
                    break;
                }
                "!" if depth == 0 && self.toks.get(k + 1).map(|t| t.text.as_str()) == Some("=") => {
                    cmp = Some(("!=", k, k + 2));
                    break;
                }
                "<" | ">" if depth == 0 => {
                    // Skip shifts and generics heuristically: `<<`/`>>`.
                    if self.toks.get(k + 1).map(|t| t.text.as_str()) == Some(t) {
                        k += 2;
                        continue;
                    }
                    if self.toks.get(k + 1).map(|t| t.text.as_str()) == Some("=") {
                        cmp = Some((if t == "<" { "<=" } else { ">=" }, k, k + 2));
                    } else {
                        cmp = Some((if t == "<" { "<" } else { ">" }, k, k + 1));
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some((op, opk, rhs_at)) = cmp else {
            return;
        };
        let lhs_iv = self.eval_range(env, lo, opk);
        let rhs_iv = self.eval_range(env, rhs_at, hi);
        let eff = if polarity { op } else { negate_cmp(op) };
        // NaN clearing: a *taken* ordered comparison implies neither side
        // is NaN; `!=` is the exception (NaN != x is true).
        let clears_nan = (polarity && op != "!=") || (!polarity && op == "!=");
        if let Some(name) = self.cond_side_name(lo, opk) {
            self.refine_by_cmp(env, &name, eff, &rhs_iv, clears_nan);
        }
        if let Some(name) = self.cond_side_name(rhs_at, hi) {
            self.refine_by_cmp(env, &name, flip_cmp(eff), &lhs_iv, clears_nan);
        }
    }

    /// The refinable name of one comparison side: a single identifier,
    /// `*x`, or a two-segment field path.
    fn cond_side_name(&self, lo: usize, hi: usize) -> Option<String> {
        let side = &self.toks[lo..hi];
        match side {
            [a] if is_ident(&a.text) => Some(a.text.clone()),
            [s, a] if s.text == "*" && is_ident(&a.text) => Some(a.text.clone()),
            [a, d, b] if is_ident(&a.text) && d.text == "." && is_ident(&b.text) => {
                Some(format!("{}.{}", a.text, b.text))
            }
            _ => None,
        }
    }

    /// Meets `name` with the bound implied by `name eff_op rhs`.
    fn refine_by_cmp(
        &self,
        env: &mut Env,
        name: &str,
        eff: &str,
        rhs: &Interval,
        clears_nan: bool,
    ) {
        if rhs.is_bottom() {
            return;
        }
        let cur = self.lookup(env, name);
        let strict_lt = |b: f64| {
            if !b.is_finite() {
                b
            } else if cur.int {
                b - 1.0
            } else {
                next_down(b)
            }
        };
        let strict_gt = |b: f64| {
            if !b.is_finite() {
                b
            } else if cur.int {
                b + 1.0
            } else {
                next_up(b)
            }
        };
        let mut bound = match eff {
            "<" => Interval::range(f64::NEG_INFINITY, strict_lt(rhs.hi)),
            "<=" => Interval::range(f64::NEG_INFINITY, rhs.hi),
            ">" => Interval::range(strict_gt(rhs.lo), f64::INFINITY),
            ">=" => Interval::range(rhs.lo, f64::INFINITY),
            "==" => {
                let mut b = *rhs;
                b.nan = false;
                b
            }
            "!=" => {
                // Only endpoint trimming is sound.
                let mut b = cur;
                if rhs.lo == rhs.hi && rhs.lo.is_finite() {
                    if b.lo == rhs.lo {
                        b.lo = strict_gt(b.lo);
                    }
                    if b.hi == rhs.lo {
                        b.hi = strict_lt(b.hi);
                    }
                }
                b
            }
            _ => return,
        };
        if !clears_nan {
            bound.nan = true;
        }
        let mut refined = cur.meet(&bound);
        if clears_nan {
            refined.nan = false;
        }
        env.insert(name.to_string(), refined);
    }

    // -- expression evaluation ---------------------------------------------

    /// Evaluates `[lo, hi)` as an expression. If the parser cannot consume
    /// the whole range it keeps walking (so checks still fire on the rest)
    /// but returns TOP — a partial parse must never produce a narrow value.
    fn eval_range(&mut self, env: &Env, lo: usize, hi: usize) -> Interval {
        if lo >= hi {
            return Interval::TOP;
        }
        let (v, np) = self.expr_bp(env, lo, hi, 0);
        if np >= hi {
            return v;
        }
        let mut pos = np.max(lo + 1);
        while pos < hi {
            let (_, q) = self.expr_bp(env, pos, hi, 0);
            pos = q.max(pos + 1);
        }
        Interval::TOP
    }

    /// Pratt parser over the token range; returns (value, next index).
    fn expr_bp(&mut self, env: &Env, pos: usize, end: usize, min_bp: u8) -> (Interval, usize) {
        if pos >= end {
            return (Interval::TOP, pos);
        }
        let t = self.toks[pos].text.clone();
        // Track the name of a plain variable/field path so `.field` access
        // and comparisons can key the environment.
        let mut cur_name: Option<String> = None;
        let (mut value, mut p) = match t.as_str() {
            "(" => {
                let close = matching_close(self.toks, pos, end);
                let v = if top_level_comma(self.toks, pos + 1, close).is_some() {
                    self.eval_range(env, pos + 1, close);
                    Interval::TOP
                } else {
                    self.eval_range(env, pos + 1, close)
                };
                (v, close + 1)
            }
            "-" => {
                let (v, np) = self.expr_bp(env, pos + 1, end, 25);
                (v.neg(), np)
            }
            "!" => {
                let (_, np) = self.expr_bp(env, pos + 1, end, 25);
                let mut b = Interval::TOP;
                b.nan = false;
                (b, np)
            }
            "*" | "&" => {
                // Deref / borrow are numerically transparent. (`&&x` shows
                // up as two `&` tokens and recurses.)
                return self.expr_bp(env, pos + 1, end, min_bp);
            }
            "if" => {
                let mut e2 = env.clone();
                let (out, np) = self.exec_if(&mut e2, pos, end);
                (out.value, np)
            }
            "match" => {
                let mut e2 = env.clone();
                let np = self.exec_match(&mut e2, pos, end);
                (Interval::TOP, np)
            }
            "move" | "|" => {
                // Closure: opaque.
                return (Interval::TOP, end);
            }
            _ if t.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
                self.parse_number(pos, end)
            }
            _ if is_ident(&t) => {
                let (v, np, name) = self.eval_path(env, pos, end);
                cur_name = name;
                (v, np)
            }
            _ => {
                return (Interval::TOP, pos);
            }
        };
        // Postfix / infix loop.
        loop {
            if p >= end {
                break;
            }
            let op = self.toks[p].text.clone();
            match op.as_str() {
                "." => {
                    let next = self
                        .toks
                        .get(p + 1)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    if next == "." {
                        break; // range operator `..`
                    }
                    if next.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                        value = Interval::TOP; // tuple index
                        cur_name = None;
                        p += 2;
                        continue;
                    }
                    if self.toks.get(p + 2).map(|t| t.text.as_str()) == Some("(") {
                        let close = matching_close(self.toks, p + 2, end);
                        let args = self.eval_args(env, p + 3, close);
                        let line = self.toks[p + 1].line;
                        value = self.apply_method(env, &next, value, &args, line, p + 3, close);
                        if next == "len" {
                            if let Some(base) = &cur_name {
                                // `x.is_empty()` refinements live under this
                                // synthetic key (see refine_cond).
                                if let Some(known) = env.get(&format!("{base}.len()")) {
                                    value = value.meet(known);
                                }
                            }
                        }
                        cur_name = None;
                        p = close + 1;
                        continue;
                    }
                    // Field access.
                    cur_name = cur_name.map(|base| format!("{base}.{next}"));
                    value = match &cur_name {
                        Some(full) if env.contains_key(full) => env[full],
                        Some(full) => {
                            let tail = full.rsplit('.').next().unwrap_or(full);
                            self.cfg.domains.domain_of(tail).unwrap_or(Interval::TOP)
                        }
                        None => self.cfg.domains.domain_of(&next).unwrap_or(Interval::TOP),
                    };
                    p += 2;
                }
                "?" => {
                    p += 1;
                }
                "as" => {
                    if min_bp > 27 {
                        break;
                    }
                    let mut q = p + 1;
                    let mut ty = String::new();
                    while q < end && (is_ident(&self.toks[q].text) || self.toks[q].text == ":") {
                        if is_ident(&self.toks[q].text) {
                            ty = self.toks[q].text.clone();
                        }
                        q += 1;
                    }
                    let line = self.toks[p].line;
                    if let Some(tr) = type_range(&ty) {
                        self.check_int_cast(env, line, &value, &ty, &tr, pos, p);
                        value = value.cast_to_int(tr.lo, tr.hi);
                    } else if is_float_type(&ty) {
                        value = value.cast_to_float();
                    } else {
                        value = Interval::TOP;
                    }
                    cur_name = None;
                    p = q;
                }
                "[" => {
                    let close = matching_close(self.toks, p, end);
                    self.eval_range(env, p + 1, close);
                    value = Interval::TOP;
                    cur_name = None;
                    p = close + 1;
                }
                "+" | "-" | "*" | "/" | "%" => {
                    let (lbp, rbp) = if matches!(op.as_str(), "+" | "-") {
                        (10, 11)
                    } else {
                        (20, 21)
                    };
                    if lbp <= min_bp {
                        break;
                    }
                    let rhs_from = p + 1;
                    let line = self.toks[p].line;
                    let (rhs, np) = self.expr_bp(env, rhs_from, end, rbp);
                    value = self.apply_infix(
                        env,
                        op.chars().next().unwrap_or('+'),
                        value,
                        rhs,
                        line,
                        rhs_from,
                        np,
                    );
                    cur_name = None;
                    p = np;
                }
                "<" | ">" | "=" | "&" | "|" => {
                    // Shifts: value becomes an unknown integer.
                    if (op == "<" || op == ">")
                        && self.toks.get(p + 1).map(|t| t.text.as_str()) == Some(op.as_str())
                    {
                        if 15 <= min_bp {
                            break;
                        }
                        let (_, np) = self.expr_bp(env, p + 2, end, 16);
                        let mut v = Interval::TOP;
                        v.nan = false;
                        v.int = true;
                        value = v;
                        cur_name = None;
                        p = np;
                        continue;
                    }
                    // Logical / comparison: evaluate the rest for checks;
                    // the result is boolean-ish [0, 1].
                    let doubled = (op == "&" || op == "|")
                        && self.toks.get(p + 1).map(|t| t.text.as_str()) == Some(op.as_str());
                    let cmp_eq = self.toks.get(p + 1).map(|t| t.text.as_str()) == Some("=");
                    if op == "=" && !cmp_eq {
                        break; // plain `=`: not an expression operator
                    }
                    if 5 <= min_bp {
                        break;
                    }
                    let skip = if doubled || cmp_eq { 2 } else { 1 };
                    let (_, np) = self.expr_bp(env, p + skip, end, 6);
                    let mut b = Interval::range(0.0, 1.0);
                    b.int = true;
                    value = b;
                    cur_name = None;
                    p = np;
                }
                _ => break,
            }
        }
        (value, p)
    }

    /// Infix arithmetic with the L13/L14 checks attached.
    #[allow(clippy::too_many_arguments)]
    fn apply_infix(
        &mut self,
        env: &Env,
        op: char,
        a: Interval,
        b: Interval,
        line: usize,
        rhs_from: usize,
        rhs_to: usize,
    ) -> Interval {
        match op {
            '/' => {
                self.check_div(env, line, &a, &b, rhs_from, rhs_to);
                a.div(&b)
            }
            '%' => {
                self.check_div(env, line, &a, &b, rhs_from, rhs_to);
                a.rem(&b)
            }
            '+' => {
                let r = a.add(&b);
                self.check_overflow(env, line, &a, &b, &r, rhs_from, rhs_to, "+");
                r
            }
            '-' => {
                let r = a.sub(&b);
                self.check_overflow(env, line, &a, &b, &r, rhs_from, rhs_to, "-");
                r
            }
            '*' => {
                let r = a.mul(&b);
                self.check_overflow(env, line, &a, &b, &r, rhs_from, rhs_to, "*");
                r
            }
            _ => Interval::TOP,
        }
    }

    /// Evaluates a path expression: variable, constant, call, or struct
    /// literal. Returns (value, next, refinable-name).
    fn eval_path(
        &mut self,
        env: &Env,
        pos: usize,
        end: usize,
    ) -> (Interval, usize, Option<String>) {
        let mut segs: Vec<String> = vec![self.toks[pos].text.clone()];
        let mut p = pos + 1;
        while p + 1 < end && self.toks[p].text == ":" && self.toks[p + 1].text == ":" {
            // Skip turbofish generics.
            if self.toks.get(p + 2).map(|t| t.text.as_str()) == Some("<") {
                let close = matching_close_angle(self.toks, p + 2, end);
                p = close + 1;
                continue;
            }
            if let Some(t) = self.toks.get(p + 2) {
                if is_ident(&t.text) {
                    segs.push(t.text.clone());
                    p += 3;
                    continue;
                }
            }
            break;
        }
        let last = segs.last().cloned().unwrap_or_default();
        // Known numeric constants.
        if segs.len() >= 2 {
            if let Some(c) = path_constant(&segs) {
                return (c, p, None);
            }
        }
        // Call?
        if self.toks.get(p).map(|t| t.text.as_str()) == Some("(") {
            let close = matching_close(self.toks, p, end);
            let line = self.toks[pos].line;
            match last.as_str() {
                "Ok" | "Some" => {
                    let v = self.eval_range(env, p + 1, close);
                    return (v, close + 1, None);
                }
                "Err" | "None" => {
                    self.eval_range(env, p + 1, close);
                    return (Interval::BOTTOM, close + 1, None);
                }
                _ => {}
            }
            let args = self.eval_args(env, p + 1, close);
            if last == "f64_to_usize_saturating" {
                if let Some(x) = args.first() {
                    self.check_sat_cast(env, line, x, p + 1, close);
                }
                let mut r = Interval::range(0.0, U64_MAX_F);
                r.int = true;
                return (r, close + 1, None);
            }
            if last == "usize_to_f64" {
                // Audited helper (`crate::convert`): a plain `usize as f64`.
                // Passing the call-site interval through keeps this
                // context-sensitive — the function summary would collapse
                // every call to the parameter's full domain.
                let v = args.first().copied().unwrap_or(Interval::TOP);
                let mut r = v.cast_to_float();
                r.nan = false;
                if r.lo < 0.0 {
                    r.lo = 0.0; // the argument is usize
                }
                return (r, close + 1, None);
            }
            let call = crate::model::CallRef {
                name: last.clone(),
                qualifier: if segs.len() >= 2 {
                    segs.get(segs.len() - 2).cloned()
                } else {
                    None
                },
                is_method: false,
            };
            let mut v = Interval::BOTTOM;
            let mut resolved = false;
            for idx in self.model.resolve(&call) {
                if let Some(s) = self.summaries.get(&idx) {
                    v = v.join(s);
                    resolved = true;
                }
            }
            let v = if resolved { v } else { Interval::TOP };
            return (v, close + 1, None);
        }
        // Struct literal? `UpperCamel { field: expr, .. }`
        if self.toks.get(p).map(|t| t.text.as_str()) == Some("{")
            && last.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            let close = matching_close(self.toks, p, end);
            self.eval_struct_literal(env, p + 1, close);
            return (Interval::TOP, close + 1, None);
        }
        if segs.len() == 1 && !crate::model::is_reserved_word(&last) {
            let v = self.lookup(env, &last);
            return (v, p, Some(last));
        }
        (Interval::TOP, p, None)
    }

    /// Struct-literal fields are contract binding sites (`GpPosterior {
    /// var: ... }`): evaluate each initializer and record it.
    fn eval_struct_literal(&mut self, env: &Env, lo: usize, hi: usize) {
        let mut k = lo;
        while k < hi {
            let field_at = k;
            // field ident followed by `:` (not `::`).
            if is_ident(&self.toks[k].text)
                && self.toks.get(k + 1).map(|t| t.text.as_str()) == Some(":")
                && self.toks.get(k + 2).map(|t| t.text.as_str()) != Some(":")
            {
                let name = self.toks[k].text.clone();
                let line = self.toks[k].line;
                let vstart = k + 2;
                let vend = top_level_comma(self.toks, vstart, hi).unwrap_or(hi);
                let iv = self.eval_range(env, vstart, vend);
                if self.mute == 0 {
                    let deps = self.deps_in_range(env, vstart, vend);
                    self.bindings.insert((name, line), (iv, deps));
                }
                k = vend + 1;
            } else if is_ident(&self.toks[k].text)
                && matches!(
                    self.toks.get(k + 1).map(|t| t.text.as_str()),
                    Some(",") | None
                )
            {
                // Shorthand `field,`.
                let name = self.toks[k].text.clone();
                let line = self.toks[k].line;
                let iv = self.lookup(env, &name);
                if self.mute == 0 {
                    self.bindings.insert((name.clone(), line), (iv, vec![name]));
                }
                k += 2;
            } else {
                let _ = field_at;
                k += 1;
            }
        }
    }

    /// Evaluates comma-separated call arguments.
    fn eval_args(&mut self, env: &Env, lo: usize, hi: usize) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut k = lo;
        while k < hi {
            let next = top_level_comma(self.toks, k, hi).unwrap_or(hi);
            out.push(self.eval_range(env, k, next));
            k = next + 1;
        }
        out
    }

    /// Numeric-method transfer function.
    #[allow(clippy::too_many_arguments)]
    fn apply_method(
        &mut self,
        env: &Env,
        name: &str,
        recv: Interval,
        args: &[Interval],
        line: usize,
        arg_lo: usize,
        arg_hi: usize,
    ) -> Interval {
        let a0 = args.first().copied().unwrap_or(Interval::TOP);
        match name {
            "max" => recv.max_of(&a0),
            "min" => recv.min_of(&a0),
            "clamp" => {
                let a1 = args.get(1).copied().unwrap_or(Interval::TOP);
                recv.clamp_to(&a0, &a1)
            }
            "abs" => recv.abs(),
            "sqrt" => {
                self.check_sqrt(env, line, &recv, arg_lo, arg_hi);
                recv.sqrt()
            }
            "ln" | "log2" | "log10" => {
                self.check_ln(env, line, &recv, name, arg_lo, arg_hi);
                let l = recv.ln();
                if name == "ln" {
                    l
                } else {
                    let base = if name == "log2" {
                        std::f64::consts::LN_2
                    } else {
                        std::f64::consts::LN_10
                    };
                    let scale = Interval::range(next_down(1.0 / base), next_up(1.0 / base));
                    l.mul(&scale)
                }
            }
            "exp" => recv.exp(),
            "recip" => {
                self.check_div(env, line, &Interval::constant(1.0), &recv, arg_lo, arg_hi);
                Interval::constant(1.0).div(&recv)
            }
            "powi" => {
                if a0.lo == a0.hi && a0.lo.is_finite() && a0.lo >= 0.0 && a0.lo <= 8.0 {
                    let k = a0.lo as u32;
                    let mut r = Interval::constant(1.0);
                    for _ in 0..k {
                        r = r.mul(&recv);
                    }
                    r
                } else {
                    Interval::TOP
                }
            }
            "floor" | "ceil" | "round" | "trunc" => {
                if recv.is_bottom() {
                    recv
                } else {
                    let (lo, hi) = match name {
                        "floor" => (recv.lo.floor(), recv.hi.floor()),
                        "ceil" => (recv.lo.ceil(), recv.hi.ceil()),
                        "trunc" => (recv.lo.trunc(), recv.hi.trunc()),
                        _ => (recv.lo.floor(), recv.hi.ceil()), // round: 1 wide is sound
                    };
                    let mut r = Interval::range(lo.min(hi), hi.max(lo));
                    r.int = true;
                    r.nan = recv.nan;
                    r
                }
            }
            "mul_add" => {
                let a1 = args.get(1).copied().unwrap_or(Interval::TOP);
                recv.mul(&a0).add(&a1)
            }
            "copied" | "cloned" | "to_owned" => recv,
            "len" => {
                let mut r = Interval::range(0.0, U64_MAX_F);
                r.int = true;
                r
            }
            "signum" => Interval {
                lo: -1.0,
                hi: 1.0,
                nan: recv.nan,
                int: recv.int,
            },
            "saturating_sub" => {
                let mut r = recv.sub(&a0).max_of(&Interval::constant(0.0));
                r.int = true;
                r.nan = false;
                r
            }
            "saturating_add" => {
                let mut r = recv.add(&a0).min_of(&Interval::constant(U64_MAX_F));
                r.int = true;
                r.nan = false;
                r
            }
            "is_nan" | "is_finite" | "is_infinite" | "is_sign_positive" | "is_sign_negative"
            | "is_empty" | "contains" => {
                let mut b = Interval::range(0.0, 1.0);
                b.int = true;
                b
            }
            _ => Interval::TOP,
        }
    }

    /// Reassembles a (possibly multi-token) numeric literal.
    fn parse_number(&self, pos: usize, end: usize) -> (Interval, usize) {
        let mut text = self.toks[pos].text.clone();
        let mut p = pos + 1;
        // `1.5` tokenizes as `1` `.` `5`; `1.0e-3` as `1` `.` `0e` `-` `3`.
        if p + 1 < end
            && self.toks[p].text == "."
            && self.toks[p + 1]
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        {
            text.push('.');
            text.push_str(&self.toks[p + 1].text);
            p += 2;
        }
        if (text.ends_with('e') || text.ends_with('E'))
            && p + 1 < end
            && matches!(self.toks[p].text.as_str(), "+" | "-")
            && self.toks[p + 1]
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        {
            text.push_str(&self.toks[p].text);
            text.push_str(&self.toks[p + 1].text);
            p += 2;
        }
        (literal_interval(&text), p)
    }

    // -- checks (L13/L14) --------------------------------------------------

    /// The display token for an operand range: its identifier if it is
    /// one, else a rendered snippet.
    fn range_token(&self, mut lo: usize, mut hi: usize) -> String {
        while hi > lo + 2
            && self.toks[lo].text == "("
            && matching_close(self.toks, lo, hi) == hi - 1
        {
            lo += 1;
            hi -= 1;
        }
        if hi == lo + 1 && is_ident(&self.toks[lo].text) {
            return self.toks[lo].text.clone();
        }
        render_range(self.toks, lo, hi, 6)
    }

    fn deps_in_range(&self, env: &Env, lo: usize, hi: usize) -> Vec<String> {
        let mut out = Vec::new();
        for k in lo..hi.min(self.toks.len()) {
            let t = &self.toks[k].text;
            if !is_ident(t) || crate::model::is_reserved_word(t) {
                continue;
            }
            if k > 0 && self.toks[k - 1].text == "." {
                // Field/method: contribute the composite name if tracked.
                if let Some(prev) = self.toks.get(k.wrapping_sub(2)) {
                    let composite = format!("{}.{}", prev.text, t);
                    if (env.contains_key(&composite) || self.defs.contains_key(&composite))
                        && !out.contains(&composite)
                    {
                        out.push(composite);
                    }
                }
                continue;
            }
            if self.toks.get(k + 1).map(|t| t.text.as_str()) == Some("(") {
                continue; // call
            }
            if (env.contains_key(t) || self.defs.contains_key(t)) && !out.contains(t) {
                out.push(t.clone());
            }
        }
        out
    }

    /// L13 (division/modulo): a divisor proven nonzero suppresses L5's
    /// syntactic finding; a divisor with knowledge that still straddles
    /// zero is a proven hazard. TOP divisors stay with L5.
    fn check_div(
        &mut self,
        env: &Env,
        line: usize,
        _numer: &Interval,
        b: &Interval,
        rhs_from: usize,
        rhs_to: usize,
    ) {
        if self.mute > 0 || !self.report || b.is_bottom() {
            return;
        }
        let token = self.range_token(rhs_from, rhs_to);
        if b.excludes_zero() {
            self.resolved_divs.insert((line, token));
            return;
        }
        if b.has_knowledge() && !is_bare_type_range(b) && (b.contains_zero() || b.nan) {
            self.resolved_divs.insert((line, token.clone()));
            let seeds = self.deps_in_range(env, rhs_from, rhs_to);
            let msg = format!(
                "divisor `{}` has interval {} which contains zero{} — guard or clamp it before dividing",
                token,
                b.render(),
                if b.nan { " (and may be NaN)" } else { "" }
            );
            self.emit("L13", line, &token, msg, &seeds, env);
        }
    }

    /// L13 (`sqrt`): the operand may be proven negative.
    fn check_sqrt(&mut self, env: &Env, line: usize, recv: &Interval, lo: usize, hi: usize) {
        if recv.is_bottom() {
            return;
        }
        let may_neg = recv.lo.is_finite() && recv.lo < 0.0;
        let all_neg = recv.hi < 0.0;
        if may_neg || all_neg {
            let token = self.range_token(lo, hi);
            let seeds = self.deps_in_range(env, lo, hi);
            let msg = format!(
                "`sqrt` operand `{}` has interval {} which {} zero — the result {} NaN",
                token,
                recv.render(),
                if all_neg {
                    "lies entirely below"
                } else {
                    "extends below"
                },
                if all_neg { "is always" } else { "can be" },
            );
            self.emit("L13", line, &token, msg, &seeds, env);
        }
    }

    /// L13 (`ln`/`log2`/`log10`): the operand may be proven nonpositive.
    fn check_ln(
        &mut self,
        env: &Env,
        line: usize,
        recv: &Interval,
        method: &str,
        lo: usize,
        hi: usize,
    ) {
        if recv.is_bottom() {
            return;
        }
        let may_bad = recv.lo.is_finite() && recv.lo <= 0.0;
        let all_bad = recv.hi.is_finite() && recv.hi <= 0.0;
        if may_bad || all_bad {
            let token = self.range_token(lo, hi);
            let seeds = self.deps_in_range(env, lo, hi);
            let msg = format!(
                "`{}` operand `{}` has interval {} which {} nonpositive values — the result {} -inf/NaN",
                method,
                token,
                recv.render(),
                if all_bad { "contains only" } else { "reaches" },
                if all_bad { "is always" } else { "can be" },
            );
            self.emit("L13", line, &token, msg, &seeds, env);
        }
    }

    /// L14 (`f64_to_usize_saturating`): the audited helper saturates, but
    /// a value *proven* to leave `[0, 2^53]` means the saturation (or the
    /// integer-precision loss) actually happens.
    fn check_sat_cast(&mut self, env: &Env, line: usize, x: &Interval, lo: usize, hi: usize) {
        if x.is_bottom() || !x.has_knowledge() {
            return;
        }
        let bad_nan = x.nan;
        let bad_lo = x.lo.is_finite() && x.lo < 0.0;
        let bad_hi = x.hi > F64_EXACT_INT_MAX;
        if bad_nan || bad_lo || bad_hi {
            let token = self.range_token(lo, hi);
            let seeds = self.deps_in_range(env, lo, hi);
            let mut reasons = Vec::new();
            if bad_nan {
                reasons.push("may be NaN (clamps to 0)");
            }
            if bad_lo {
                reasons.push("may be negative (clamps to 0)");
            }
            if bad_hi {
                reasons.push("exceeds 2^53 (integer precision loss)");
            }
            let msg = format!(
                "`f64_to_usize_saturating({})` receives interval {}: {} — the saturation this helper exists to paper over is reachable here",
                token,
                x.render(),
                reasons.join("; ")
            );
            self.emit("L14", line, &token, msg, &seeds, env);
        }
    }

    /// L14 (`as` to an integer type): the source interval must be proven
    /// finite, NaN-free, and inside the target range.
    #[allow(clippy::too_many_arguments)]
    fn check_int_cast(
        &mut self,
        env: &Env,
        line: usize,
        v: &Interval,
        ty: &str,
        tr: &Interval,
        expr_lo: usize,
        expr_hi: usize,
    ) {
        if v.is_bottom() || !v.has_knowledge() {
            return;
        }
        // NaN casts to 0, which Rust defines; only flag it when 0 lies
        // outside the computed interval (a genuine discontinuity).
        let bad_nan = v.nan && !v.int && !v.contains(0.0);
        let below = v.lo < tr.lo;
        let above = v.hi > tr.hi;
        if bad_nan || below || above {
            let token = self.range_token(expr_lo, expr_hi);
            let seeds = self.deps_in_range(env, expr_lo, expr_hi);
            let mut reasons = Vec::new();
            if bad_nan {
                reasons.push("may be NaN (casts to 0)".to_string());
            }
            if below {
                reasons.push(format!("extends below {}::MIN (saturates)", ty));
            }
            if above {
                reasons.push(format!("extends above {}::MAX (saturates)", ty));
            }
            let msg = format!(
                "cast `{} as {}` from interval {}: {}",
                token,
                ty,
                v.render(),
                reasons.join("; ")
            );
            self.emit("L14", line, &token, msg, &seeds, env);
        }
    }

    /// L14 (counter arithmetic): integer `+`/`-`/`*` on *domain-bounded*
    /// operands whose result interval escapes the machine range. Operands
    /// whose only bound is the type range are exempt — the rule proves
    /// overflow-freedom *within declared domains*, it does not re-lint
    /// every unannotated `x + 1`.
    #[allow(clippy::too_many_arguments)]
    fn check_overflow(
        &mut self,
        env: &Env,
        line: usize,
        a: &Interval,
        b: &Interval,
        r: &Interval,
        rhs_from: usize,
        rhs_to: usize,
        op: &str,
    ) {
        if !(a.int && b.int) || r.is_bottom() {
            return;
        }
        let bounded = |iv: &Interval| iv.hi.is_finite() && iv.hi < U64_MAX_F && iv.lo.is_finite();
        if !(bounded(a) && bounded(b)) {
            return;
        }
        let over = r.hi.is_finite() && r.hi > U64_MAX_F;
        let under_i64 = r.lo.is_finite() && r.lo < -I64_MAX_F;
        let under_zero = op == "-" && a.lo >= 0.0 && r.lo < 0.0;
        if over || under_i64 || under_zero {
            let token = self.range_token(rhs_from, rhs_to);
            let seeds = self.deps_in_range(env, rhs_from, rhs_to);
            let what = if over {
                "may overflow the 64-bit range"
            } else if under_i64 {
                "may underflow the 64-bit range"
            } else {
                "may underflow below zero (panics in debug, wraps in release)"
            };
            let msg = format!(
                "integer `{}` with operand intervals {} {} {} has result interval {} which {}",
                op,
                a.render(),
                op,
                b.render(),
                r.render(),
                what
            );
            self.emit("L14", line, &token, msg, &seeds, env);
        }
    }
}

// ---------------------------------------------------------------------------
// Token-walking helpers.
// ---------------------------------------------------------------------------

fn is_ident(t: &str) -> bool {
    let mut chars = t.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Index of the matching close bracket for the open bracket at `open`;
/// clamps to `hi - 1` when unbalanced.
fn matching_close(toks: &[Tok], open: usize, hi: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(open) {
        if t.text == o {
            depth += 1;
        } else if t.text == c {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    hi.saturating_sub(1)
}

/// Matching `>` for a `<` at `open` (turbofish); unbalanced clamps.
fn matching_close_angle(toks: &[Tok], open: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(open) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    hi.saturating_sub(1)
}

/// First `;` at depth 0 in `[from, hi)` (index of the `;`), else `hi`.
fn stmt_end_abs(toks: &[Tok], from: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(from) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth <= 0 => return k,
            _ => {}
        }
    }
    hi
}

/// First `,` at depth 0 in `[from, hi)`, if any.
fn top_level_comma(toks: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(from) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// First `{` at depth 0 in `[from, hi)` — a block opener after a
/// condition / loop header.
fn find_block_open(toks: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(from) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Renders a token range for messages (capped, with smart spacing).
fn render_range(toks: &[Tok], lo: usize, hi: usize, max: usize) -> String {
    let mut out = String::new();
    let upper = hi.min(toks.len()).min(lo + max);
    for tok in toks.iter().take(upper).skip(lo) {
        let t = &tok.text;
        let no_space = t == "."
            || t == ","
            || t == "("
            || t == ")"
            || t == ";"
            || t == "?"
            || t == ":"
            || out.ends_with('.')
            || out.ends_with('(')
            || out.ends_with(':')
            || out.is_empty()
            || (is_ident_last(&out) && t == "(");
        if !no_space {
            out.push(' ');
        }
        out.push_str(t);
    }
    if hi.min(toks.len()) > upper {
        out.push('…');
    }
    out
}

fn is_ident_last(s: &str) -> bool {
    s.chars()
        .last()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn name_if_bindable(name: &str) -> Option<String> {
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

fn negate_cmp(op: &str) -> &'static str {
    match op {
        "<" => ">=",
        "<=" => ">",
        ">" => "<=",
        ">=" => "<",
        "==" => "!=",
        _ => "==",
    }
}

fn flip_cmp(op: &str) -> &'static str {
    match op {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        "==" => "==",
        _ => "!=",
    }
}

/// Known numeric constants reachable through a `::` path.
fn path_constant(segs: &[String]) -> Option<Interval> {
    let last = segs.last()?.as_str();
    let owner = segs.get(segs.len().checked_sub(2)?)?.as_str();
    let int_const = |v: f64| {
        let mut iv = Interval::range(v, v);
        iv.int = true;
        Some(iv)
    };
    match (owner, last) {
        ("f64" | "f32", "INFINITY") => Some(Interval::range(f64::INFINITY, f64::INFINITY)),
        ("f64" | "f32", "NEG_INFINITY") => {
            Some(Interval::range(f64::NEG_INFINITY, f64::NEG_INFINITY))
        }
        ("f64" | "f32", "NAN") => Some(Interval::constant(f64::NAN)),
        ("f64", "MAX") => Some(Interval::constant(f64::MAX)),
        ("f64", "MIN") => Some(Interval::constant(f64::MIN)),
        ("f64", "MIN_POSITIVE") => Some(Interval::constant(f64::MIN_POSITIVE)),
        ("f64", "EPSILON") => Some(Interval::constant(f64::EPSILON)),
        ("usize" | "u64", "MAX") => int_const(U64_MAX_F),
        ("u32", "MAX") => int_const(4294967295.0),
        ("u16", "MAX") => int_const(65535.0),
        ("u8", "MAX") => int_const(255.0),
        ("i64" | "isize", "MAX") => int_const(I64_MAX_F),
        ("i64" | "isize", "MIN") => int_const(-I64_MAX_F),
        ("i32", "MAX") => int_const(2147483647.0),
        ("i32", "MIN") => int_const(-2147483648.0),
        (_, "MIN") | (_, "MAX") if owner.starts_with('u') || owner.starts_with('i') => None,
        ("consts", "PI") => Some(Interval::constant(std::f64::consts::PI)),
        ("consts", "E") => Some(Interval::constant(std::f64::consts::E)),
        ("consts", "LN_2") => Some(Interval::constant(std::f64::consts::LN_2)),
        ("consts", "LN_10") => Some(Interval::constant(std::f64::consts::LN_10)),
        ("consts", "SQRT_2") => Some(Interval::constant(std::f64::consts::SQRT_2)),
        _ => None,
    }
}

/// Parses a reassembled literal into an interval. Values whose integer
/// part exceeds 2^53 are widened one ulp outward (the f64 the compiler
/// produces may not be the written value).
fn literal_interval(text: &str) -> Interval {
    let mut s: String = text.chars().filter(|&c| c != '_').collect();
    let mut forced_float = false;
    for suf in [
        "usize", "isize", "f64", "f32", "u64", "u32", "u16", "i64", "i32", "i16", "u8", "i8",
    ] {
        if s.len() > suf.len() && s.ends_with(suf) {
            // Suffix must not bite into a hex literal's digits.
            let head = &s[..s.len() - suf.len()];
            let hexish = head.starts_with("0x") || head.starts_with("0X");
            if !hexish || suf.starts_with('u') || suf.starts_with('i') {
                forced_float = suf.starts_with('f');
                s = head.to_string();
                break;
            }
        }
    }
    let radix = if s.starts_with("0x") || s.starts_with("0X") {
        Some(16)
    } else if s.starts_with("0o") || s.starts_with("0O") {
        Some(8)
    } else if s.starts_with("0b") || s.starts_with("0B") {
        Some(2)
    } else {
        None
    };
    let (v, is_int) = if let Some(radix) = radix {
        match u128::from_str_radix(&s[2..], radix) {
            Ok(n) => (n as f64, true),
            Err(_) => return Interval::TOP,
        }
    } else {
        match s.parse::<f64>() {
            Ok(v) => (
                v,
                !forced_float && !s.contains('.') && !s.contains('e') && !s.contains('E'),
            ),
            Err(_) => return Interval::TOP,
        }
    };
    let mut iv = if is_int && v.abs() > F64_EXACT_INT_MAX {
        Interval::range(next_down(v), next_up(v))
    } else {
        Interval::constant(v)
    };
    if is_int {
        iv.int = true;
    }
    iv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_suffix_matches_qualified_paths() {
        let p = Pattern::parse("GpRegressor::posterior").expect("parses");
        assert!(p.matches_qualified("gp::regression::GpRegressor::posterior"));
        assert!(!p.matches_qualified("gp::regression::GpRegressor::observe"));
        assert!(!p.matches_qualified("posterior"));
        let w = Pattern::parse("*::dual_update").expect("parses");
        assert!(w.matches_qualified("core::saddle::SaddleState::dual_update"));
        let bare = Pattern::parse("project_to_budget").expect("parses");
        assert!(bare.matches_qualified("sim::cluster::project_to_budget"));
        let methods = Pattern::parse("GridGp::*").expect("parses");
        assert!(methods.matches_qualified("gp::grid::GridGp::grid_posterior"));
        assert!(!methods.matches_qualified("gp::regression::GpRegressor::posterior"));
    }

    #[test]
    fn bad_patterns_are_rejected() {
        assert!(Pattern::parse("a::::b").is_err());
        assert!(Pattern::parse("a b::c").is_err());
        assert!(Pattern::parse("").is_err());
    }

    fn analyze(src: &str) -> AbsintOutcome {
        let model = Model::build(vec![(
            "test.rs".to_string(),
            "fixture".to_string(),
            crate::prep::prepare(src),
        )]);
        interval_analysis(&model, &AbsintConfig::default())
    }

    fn summary(out: &AbsintOutcome, name: &str) -> Interval {
        *out.summaries
            .iter()
            .find(|(k, _)| k.ends_with(name))
            .map(|(_, v)| v)
            .unwrap_or(&Interval::TOP)
    }

    #[test]
    fn constant_body_summarizes_exactly() {
        let out = analyze("fn f() -> f64 { 1.5 }\n");
        let s = summary(&out, "::f");
        assert_eq!((s.lo, s.hi, s.nan), (1.5, 1.5, false));
    }

    #[test]
    fn branch_refinement_and_join() {
        let out = analyze("fn f(x: f64) -> f64 { if x > 0.0 { x } else { 0.0 } }\n");
        let s = summary(&out, "::f");
        assert_eq!(s.lo, 0.0);
        assert_eq!(s.hi, f64::INFINITY);
        assert!(
            !s.nan,
            "taken comparison clears NaN; else-arm is a constant"
        );
    }

    #[test]
    fn guarded_divisor_is_resolved_not_reported() {
        let out = analyze("fn f(x: f64) -> f64 { let d = x.max(1.0); 1.0 / d }\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(
            out.resolved_divs.iter().any(|(_, _, t)| t == "d"),
            "max(1.0) proves the divisor nonzero: {:?}",
            out.resolved_divs
        );
    }

    #[test]
    fn abs_divisor_still_contains_zero() {
        let out = analyze("fn g(eps: f64) -> f64 { let d = eps.abs(); 1.0 / d }\n");
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].code, "L13");
        assert_eq!(out.findings[0].token, "d");
        assert!(
            out.findings[0].chain.iter().any(|c| c.contains("d = ")),
            "chain should carry the derivation: {:?}",
            out.findings[0].chain
        );
    }

    #[test]
    fn assert_refines_integer_divisor() {
        let out = analyze("fn f(n: usize) -> f64 { assert!(n > 0); 1.0 / (n as f64) }\n");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn negative_reaching_cast_is_l14() {
        let out = analyze(
            "fn h(x: f64) -> usize { let y = x.clamp(-5.0, 10.0); y as usize }\n\
             fn ok(x: f64) -> usize { let y = x.clamp(0.0, 10.0); y as usize }\n",
        );
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].code, "L14");
        assert_eq!(out.findings[0].token, "y");
    }

    #[test]
    fn loop_widens_then_exits() {
        let out = analyze("fn f() -> f64 { let mut s = 0.0; for i in 0..10 { s = s + 1.0; } s }\n");
        let s = summary(&out, "::f");
        assert_eq!(s.lo, 0.0);
        assert!(s.hi >= 10.0);
        assert!(!s.nan);
    }

    #[test]
    fn while_condition_bounds_the_counter() {
        let out = analyze(
            "fn f(n: usize) -> usize { let mut i = 0usize; while i < n { i = i + 1; } i }\n",
        );
        let s = summary(&out, "::f");
        assert_eq!(s.lo, 0.0);
        assert!(s.int);
    }

    /// `src` under one fn-level contract: `clamp_to_budget` returns a value
    /// in `[0, budget]`, the `budget` domain's upper end.
    fn analyze_fn_contract(src: &str) -> AbsintOutcome {
        let budget = DomainsTable::defaults()
            .exact("budget")
            .map_or(1e9, |iv| iv.hi);
        let cfg = AbsintConfig {
            contracts: vec![
                Contract::new("clamp_to_budget", Interval::range(0.0, budget))
                    .unwrap_or_else(|e| panic!("{e}")),
            ],
            ..AbsintConfig::default()
        };
        let model = Model::build(vec![(
            "test.rs".to_string(),
            "fixture".to_string(),
            crate::prep::prepare(src),
        )]);
        interval_analysis(&model, &cfg)
    }

    #[test]
    fn fn_contract_violation_is_l15() {
        let out = analyze_fn_contract("pub fn clamp_to_budget(x: f64, budget: f64) -> f64 { x }\n");
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].code, "L15");
        assert!(out.findings[0].message.contains("clamp_to_budget"));
    }

    #[test]
    fn fn_contract_satisfied_by_clamp() {
        let out = analyze_fn_contract(
            "pub fn clamp_to_budget(x: f64, budget: f64) -> f64 { x.clamp(0.0, budget) }\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn binding_contract_checks_struct_literal_fields() {
        let cfg = AbsintConfig {
            contracts: vec![
                Contract::new("Post::make::var", Interval::range(0.0, f64::INFINITY))
                    .unwrap_or_else(|e| panic!("{e}")),
            ],
            ..AbsintConfig::default()
        };
        let src = "struct Post { var: f64 }\n\
                   impl Post { fn make(x: f64) -> Post { Post { var: x } } }\n\
                   impl Post { fn make_ok(x: f64) -> Post { Post { var: x.max(0.0) } } }\n";
        let model = Model::build(vec![(
            "test.rs".to_string(),
            "fixture".to_string(),
            crate::prep::prepare(src),
        )]);
        let out = interval_analysis(&model, &cfg);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].code, "L15");
        assert_eq!(out.findings[0].token, "var");
    }

    #[test]
    fn callee_summary_feeds_caller() {
        let out = analyze(
            "fn one() -> f64 { 1.0 }\n\
             fn f() -> f64 { let d = one(); 2.0 / d }\n",
        );
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(out.resolved_divs.iter().any(|(_, _, t)| t == "d"));
    }

    #[test]
    fn domain_seeding_applies_by_suffix() {
        let out = analyze("fn f(max_slots: usize) -> usize { max_slots }\n");
        let s = summary(&out, "::f");
        assert_eq!((s.lo, s.hi), (0.0, 4096.0));
    }

    #[test]
    fn match_havocs_assigned_names() {
        let out = analyze(
            "fn f(k: usize) -> f64 { let mut x = 1.0; match k { 0 => { x = -3.0; } _ => {} } x }\n",
        );
        let s = summary(&out, "::f");
        assert!(s.is_top() || s.lo == f64::NEG_INFINITY, "{}", s.render());
    }
}
