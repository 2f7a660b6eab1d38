//! The lint catalogue: the repo-specific rules L1–L12.
//!
//! Lints come in two tiers. The token-level rules (L1, L4, L7, L8)
//! work directly on the lexed streams and document the approximation
//! each one makes. The dataflow rules (L2, L9–L12) consume the
//! [`crate::Analysis`] context — parsed item trees, workspace symbol
//! tables, and the conservative call graph — so they can answer
//! *reachability* and *coverage* questions no single-file scan can.
//!
//! Retired rules: L3 (token-only panic scan) grew into the
//! call-graph-aware L9; L5/L6 (Mergeable test coverage) merged into
//! the structural L11. Their ids are never reused.
//!
//! False positives are expected to be rare and are handled by the
//! committed baseline, never by weakening a rule.

use crate::ast::{Item, ItemKind, Span};
use crate::lexer::{TokKind, Token};
use crate::resolve::{FnInfo, Resolver};
use crate::workspace::{FileKind, SourceFile};
use crate::{Analysis, Finding};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Renders one line's tokens back into a compact, format-insensitive
/// snippet for diagnostics and baseline keys.
fn render(tokens: &[&Token]) -> String {
    let mut s = String::new();
    for t in tokens {
        if !s.is_empty() {
            s.push(' ');
        }
        match t.kind {
            TokKind::Str => {
                s.push('"');
                s.push_str(&t.text);
                s.push('"');
            }
            TokKind::Char => {
                s.push('\'');
                s.push_str(&t.text);
                s.push('\'');
            }
            TokKind::Lifetime => {
                s.push('\'');
                s.push_str(&t.text);
            }
            _ => s.push_str(&t.text),
        }
    }
    s
}

/// Renders a token index range `[lo, hi)` of a file's stream.
fn render_range(tokens: &[Token], lo: usize, hi: usize) -> String {
    let refs: Vec<&Token> = tokens[lo.min(tokens.len())..hi.min(tokens.len())].iter().collect();
    render(&refs)
}

/// Groups a file's tokens by source line, skipping test-only code.
fn live_lines(file: &SourceFile) -> BTreeMap<u32, Vec<&Token>> {
    let mut lines: BTreeMap<u32, Vec<&Token>> = BTreeMap::new();
    for t in &file.tokens {
        if !file.in_test_code(t.line) {
            lines.entry(t.line).or_default().push(t);
        }
    }
    lines
}

/// All identifier texts appearing in a file (used for "is this type
/// referenced from suite X" checks).
fn ident_set(file: Option<&SourceFile>) -> HashSet<&str> {
    file.map(|f| {
        f.tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    })
    .unwrap_or_default()
}

/// Index of the matching close bracket for the open bracket at `open`,
/// scanning no further than `end`.
fn matching_close(tokens: &[Token], open: usize, end: usize) -> Option<usize> {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().take(end.min(tokens.len())).skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the matching open bracket for the close bracket at
/// `close`, scanning back no further than `start`.
fn matching_open(tokens: &[Token], close: usize, start: usize) -> Option<usize> {
    let (o, c) = match tokens[close].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    let mut k = close;
    loop {
        let t = &tokens[k];
        if t.is_punct(c) {
            depth += 1;
        } else if t.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        if k == start {
            return None;
        }
        k -= 1;
    }
}

/// L1 — field arithmetic must go through `hindex-hashing::field`.
///
/// Flags any library-code line (outside `crates/hashing/src/field.rs`)
/// that mentions `MERSENNE_P` together with raw `%`, `*`, or an `as`
/// cast: reductions, products, and narrowing conversions on field
/// elements belong to the checked helpers (`from_u64`, `from_i64`,
/// `mersenne_mul`, `mersenne_reduce`), which carry the canonicality
/// invariants. Line-based: an expression split across lines so that the
/// constant and the operator land on different lines is not caught.
pub struct FieldArithmetic;

impl crate::Lint for FieldArithmetic {
    fn id(&self) -> &'static str {
        "L1"
    }
    fn summary(&self) -> &'static str {
        "raw %/*/`as` arithmetic on MERSENNE_P outside hindex-hashing::field"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        for file in &ctx.ws.files {
            if file.kind != FileKind::Library || file.path == "crates/hashing/src/field.rs" {
                continue;
            }
            for (line, toks) in live_lines(file) {
                let mentions_p = toks.iter().any(|t| t.is_ident("MERSENNE_P"));
                let raw_op = toks
                    .iter()
                    .any(|t| t.is_punct('%') || t.is_punct('*') || t.is_ident("as"));
                if mentions_p && raw_op {
                    out.push(Finding::new(
                        "L1",
                        &file.path,
                        line,
                        &render(&toks),
                        "raw field arithmetic on MERSENNE_P outside hindex-hashing::field"
                            .to_string(),
                        Some(
                            "route through the checked helpers: from_u64 / from_i64 for \
                             canonicalisation, mersenne_mul / mersenne_reduce for products"
                                .to_string(),
                        ),
                    ));
                }
            }
        }
    }
}

/// L2 — every public estimator carries a space contract.
///
/// Any type implementing one of the estimator traits
/// (`AggregateEstimator`, `CashRegisterEstimator`,
/// `TurnstileEstimator`) in `crates/{core,sketch,baseline}` must also
/// implement `SpaceUsage`, and must be referenced from the workspace
/// space-contract suite `tests/space_contracts.rs` so the sublinearity
/// bounds of the paper stay pinned by tests. Since the AST upgrade the
/// impl inventory comes from the resolver's parsed tables rather than
/// a token scan, so generic headers and `#[cfg(test)]` nesting are
/// handled structurally.
pub struct SpaceContract;

/// The estimator traits whose implementors L2 audits.
const ESTIMATOR_TRAITS: &[&str] = &[
    "AggregateEstimator",
    "CashRegisterEstimator",
    "TurnstileEstimator",
];

/// Crates whose estimator types are subject to L2.
const ESTIMATOR_CRATES: &[&str] = &["crates/core/", "crates/sketch/", "crates/baseline/"];

impl crate::Lint for SpaceContract {
    fn id(&self) -> &'static str {
        "L2"
    }
    fn summary(&self) -> &'static str {
        "estimator types must impl SpaceUsage and appear in tests/space_contracts.rs"
    }
    fn cross_file(&self) -> bool {
        true
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        let contract_refs = ident_set(ctx.ws.file("tests/space_contracts.rs"));
        let space_types: HashSet<&str> = ctx
            .resolver
            .impls
            .iter()
            .filter(|i| {
                ctx.ws.files[i.file].kind == FileKind::Library
                    && !i.in_test
                    && i.trait_name.as_deref() == Some("SpaceUsage")
            })
            .map(|i| i.self_ty.as_str())
            .collect();
        let mut reported: HashSet<(String, &str)> = HashSet::new();
        for imp in &ctx.resolver.impls {
            let file = &ctx.ws.files[imp.file];
            if imp.in_test || !ESTIMATOR_CRATES.iter().any(|c| file.path.starts_with(c)) {
                continue;
            }
            let Some(trait_name) = imp.trait_name.as_deref() else {
                continue;
            };
            if !ESTIMATOR_TRAITS.contains(&trait_name) {
                continue;
            }
            let ty = &imp.self_ty;
            if !space_types.contains(ty.as_str()) && reported.insert((ty.clone(), "space")) {
                out.push(Finding::new(
                    "L2",
                    &file.path,
                    imp.line,
                    &format!("{ty} missing SpaceUsage"),
                    format!("estimator `{ty}` does not implement SpaceUsage"),
                    Some(format!(
                        "add `impl SpaceUsage for {ty}` reporting words of state"
                    )),
                ));
            }
            if !contract_refs.contains(ty.as_str()) && reported.insert((ty.clone(), "test")) {
                out.push(Finding::new(
                    "L2",
                    &file.path,
                    imp.line,
                    &format!("{ty} not in space_contracts"),
                    format!("estimator `{ty}` is not referenced from tests/space_contracts.rs"),
                    Some(format!(
                        "add a sublinearity/space assertion for `{ty}` to tests/space_contracts.rs"
                    )),
                ));
            }
        }
    }
}

/// L4 — memory safety and determinism hygiene.
///
/// (a) Every crate root (`src/lib.rs` / `src/main.rs`, vendored shims
/// excepted) must carry `#![forbid(unsafe_code)]`.
/// (b) Library code must not reach for ambient nondeterminism:
/// `thread_rng`, entropy-based RNG constructors, and wall-clock types
/// are banned — estimators take seeds and tick counters from their
/// callers so runs replay bit-identically (the sharded-engine stress
/// tests depend on this).
///
/// One explicit exemption: [`CLOCK_SEAM`], the observability crate's
/// single wall-clock module. Latency profiling needs a real clock;
/// confining it to one audited file (whose durations feed only
/// latency histograms, never estimator state) is the policy, so the
/// exemption is carried here rather than in the baseline.
pub struct ForbidNondeterminism;

/// The one library file allowed to name wall-clock types.
pub const CLOCK_SEAM: &str = "crates/obs/src/clock.rs";

/// The engine's fault-injection module — the second and last seam.
/// Chaos plans are replayable by contract (`FaultPlan::random` is
/// seeded; `rand=N@now` derives a seed once and echoes it), so the
/// module may name `SystemTime` for that one derivation and `panic!`
/// for its injected kills (a supervised worker must die the way a real
/// one does). The exemption is *conditional*: it holds only while the
/// file keeps its seeded-RNG marker (`seed_from_u64`). Strip the
/// seeding and both lints fire again — an unseeded fault module is
/// ambient nondeterminism like any other.
pub const FAULT_SEAM: &str = "crates/engine/src/faults.rs";

/// Whether the fault seam still carries its replayability marker.
fn seam_is_seeded(file: &SourceFile) -> bool {
    file.tokens
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "seed_from_u64")
}

const NONDETERMINISM: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "try_from_os_rng",
    "SystemTime",
    "Instant",
];

impl crate::Lint for ForbidNondeterminism {
    fn id(&self) -> &'static str {
        "L4"
    }
    fn summary(&self) -> &'static str {
        "crate roots forbid unsafe_code; no ambient RNG/clock in library code"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        for file in &ctx.ws.files {
            if file.is_crate_root && matches!(file.kind, FileKind::Library | FileKind::Tool) {
                let toks = &file.tokens;
                let has_forbid = toks.windows(7).any(|w| {
                    w[0].is_punct('#')
                        && w[1].is_punct('!')
                        && w[2].is_punct('[')
                        && w[3].is_ident("forbid")
                        && w[4].is_punct('(')
                        && w[5].is_ident("unsafe_code")
                        && w[6].is_punct(')')
                });
                if !has_forbid {
                    out.push(Finding::new(
                        "L4",
                        &file.path,
                        1,
                        "missing forbid(unsafe_code)",
                        "crate root lacks #![forbid(unsafe_code)]".to_string(),
                        Some(
                            "add `#![forbid(unsafe_code)]` below the crate docs".to_string(),
                        ),
                    ));
                }
            }
            if file.kind != FileKind::Library
                || file.path == CLOCK_SEAM
                || (file.path == FAULT_SEAM && seam_is_seeded(file))
            {
                continue;
            }
            for t in &file.tokens {
                if t.kind == TokKind::Ident
                    && NONDETERMINISM.contains(&t.text.as_str())
                    && !file.in_test_code(t.line)
                {
                    out.push(Finding::new(
                        "L4",
                        &file.path,
                        t.line,
                        &format!("nondeterministic {}", t.text),
                        format!(
                            "`{}` introduces ambient nondeterminism into library code",
                            t.text
                        ),
                        Some(
                            "take a caller-provided seed (SeedableRng::seed_from_u64) or tick \
                             counter instead"
                                .to_string(),
                        ),
                    ));
                }
            }
        }
    }
}

/// L7 — the observability layer stays wired end to end.
///
/// Two completeness checks on the tracing vocabulary:
///
/// (a) every `EventKind` variant declared in `crates/obs/src/trace.rs`
/// must be *recorded* somewhere in `crates/obs/src/observer.rs` — a
/// variant nobody emits is dead vocabulary that silently rots;
///
/// (b) every observer hook (`fn on_*` in `observer.rs`) must be called
/// from at least one file outside `crates/obs/` — a hook the engine
/// and CLI never invoke means an instrumentation point was designed
/// and then dropped on the floor.
///
/// Approximation: both checks are ident-presence, not call-graph
/// analysis; a hook mentioned in a comment token would not count
/// (comments are not lexed), but one mentioned in dead code would.
pub struct ObservabilityWiring;

/// Where the event vocabulary is declared.
const TRACE_FILE: &str = "crates/obs/src/trace.rs";
/// Where events are recorded and hooks are defined.
const OBSERVER_FILE: &str = "crates/obs/src/observer.rs";

/// Scans `enum EventKind { ... }` and returns the variant names.
/// Variants are the idents at brace depth 1 that directly follow the
/// opening brace or a comma (attribute/doc tokens are not emitted by
/// the lexer, so this is exact for fieldless enums).
fn event_kind_variants(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].is_ident("enum") && toks[i + 1].is_ident("EventKind") {
            let mut j = i + 2;
            while let Some(t) = toks.get(j) {
                if t.is_punct('{') {
                    break;
                }
                j += 1;
            }
            let mut depth = 0i64;
            let mut expect_variant = false;
            while let Some(t) = toks.get(j) {
                if t.is_punct('{') {
                    depth += 1;
                    if depth == 1 {
                        expect_variant = true;
                    }
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1 {
                    if t.is_punct(',') {
                        expect_variant = true;
                    } else if expect_variant && t.kind == TokKind::Ident {
                        out.push((t.text.clone(), t.line));
                        expect_variant = false;
                    }
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    out
}

/// Names of `fn on_*` hook definitions in a file, outside test code.
fn hook_defs(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("fn") && !file.in_test_code(t.line) {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident && name.text.starts_with("on_") {
                    out.push((name.text.clone(), name.line));
                }
            }
        }
    }
    out
}

impl crate::Lint for ObservabilityWiring {
    fn id(&self) -> &'static str {
        "L7"
    }
    fn summary(&self) -> &'static str {
        "every EventKind variant is recorded and every observer hook is called"
    }
    fn cross_file(&self) -> bool {
        true
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        let Some(trace) = ctx.ws.file(TRACE_FILE) else {
            return; // no obs crate in this workspace snapshot
        };
        let observer_refs = ident_set(ctx.ws.file(OBSERVER_FILE));
        for (variant, line) in event_kind_variants(trace) {
            if !observer_refs.contains(variant.as_str()) {
                out.push(Finding::new(
                    "L7",
                    TRACE_FILE,
                    line,
                    &format!("EventKind::{variant} never recorded"),
                    format!(
                        "`EventKind::{variant}` is declared but never recorded by \
                         {OBSERVER_FILE}"
                    ),
                    Some(format!(
                        "emit the event from the matching observer hook, or delete \
                         the `{variant}` variant"
                    )),
                ));
            }
        }
        let Some(observer) = ctx.ws.file(OBSERVER_FILE) else {
            return;
        };
        let mut external_refs: HashSet<&str> = HashSet::new();
        for file in &ctx.ws.files {
            if file.path.starts_with("crates/obs/") || file.kind == FileKind::Vendored {
                continue;
            }
            for t in &file.tokens {
                if t.kind == TokKind::Ident && t.text.starts_with("on_") {
                    external_refs.insert(&t.text);
                }
            }
        }
        for (hook, line) in hook_defs(observer) {
            if !external_refs.contains(hook.as_str()) {
                out.push(Finding::new(
                    "L7",
                    OBSERVER_FILE,
                    line,
                    &format!("hook {hook} never called"),
                    format!(
                        "observer hook `{hook}` is never invoked outside crates/obs \
                         — an instrumentation point got designed, then dropped"
                    ),
                    Some(format!(
                        "call `{hook}` from the engine or CLI, or remove the hook"
                    )),
                ));
            }
        }
    }
}

/// L8 — the estimator ingestion vocabulary stays unified.
///
/// The estimator traits expose `ingest` / `ingest_batch`; the legacy
/// verbs (`push`, `update`, `push_batch`, `update_batch`) are gone
/// from the traits entirely. This lint flags any *impl block of an
/// estimator trait* in library code that defines one of the old verbs
/// — and, in `crates/baseline/` (where the exact reference tables
/// *are* the estimators), any non-test impl block at all — so the
/// legacy vocabulary cannot quietly come back.
pub struct LegacyIngestVerbs;

/// The banned method names inside estimator-trait impl blocks.
const LEGACY_VERBS: &[&str] = &["push", "update", "push_batch", "update_batch"];

impl crate::Lint for LegacyIngestVerbs {
    fn id(&self) -> &'static str {
        "L8"
    }
    fn summary(&self) -> &'static str {
        "no push/update/*_batch definitions inside estimator-trait impls"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        for imp in &ctx.resolver.impls {
            let file = &ctx.ws.files[imp.file];
            if file.kind != FileKind::Library || imp.in_test {
                continue;
            }
            let is_estimator = imp
                .trait_name
                .as_deref()
                .is_some_and(|t| ESTIMATOR_TRAITS.contains(&t));
            let in_baseline = file.path.contains("crates/baseline/");
            if !is_estimator && !in_baseline {
                continue;
            }
            for &fid in &imp.fn_ids {
                let f = &ctx.resolver.fns[fid];
                if !LEGACY_VERBS.contains(&f.name.as_str()) || f.in_test {
                    continue;
                }
                let (snippet, message) = if is_estimator {
                    (
                        format!("fn {} in estimator impl", f.name),
                        format!(
                            "estimator-trait impl re-defines legacy verb `{}`; the \
                             unified vocabulary is ingest/ingest_batch",
                            f.name
                        ),
                    )
                } else {
                    (
                        format!("fn {} in baseline impl", f.name),
                        format!(
                            "baseline table defines legacy verb `{}`; the exact \
                             references use the same ingest/ingest_batch vocabulary \
                             as the sketches they calibrate",
                            f.name
                        ),
                    )
                };
                out.push(Finding::new(
                    "L8",
                    &file.path,
                    f.line,
                    &snippet,
                    message,
                    Some(
                        "implement `ingest` (and optionally `ingest_batch`) instead"
                            .to_string(),
                    ),
                ));
            }
        }
    }
}

/// L9 — no panic reachable from an estimator entry point.
///
/// The call-graph-aware successor to the retired token-only L3. Two
/// prongs, both scoped to library code outside test/gated items:
///
/// (a) **panic family** — `.unwrap()`, `.expect(…)`, and the `panic!`
/// / `unreachable!` / `todo!` / `unimplemented!` macros are flagged
/// anywhere in library code (estimators ingest adversarial streams;
/// failures must surface as `hindex-common::error` values). When the
/// containing function is reachable from an entry point (`ingest`,
/// `ingest_batch`, `merge`, `estimate`, `query*`), the diagnostic
/// carries the shortest call chain so the blast radius is explicit.
///
/// (b) **unguarded indexing** — `expr[idx]` inside a function
/// *reachable from an entry point* is flagged unless the index is
/// visibly in-range. Besides the direct forms (a literal or const
/// index, a `%`-/`&`-masked or `min`/`clamp`-bounded expression, a
/// container the function itself `resize`s, an index asserted in the
/// same body), the lint runs a small per-body *bounded-ident*
/// fixpoint: a local is bounded if it is defined from a masking or
/// clamping expression, a length, a right shift, a constant, one of
/// the workspace's bounded-contract APIs ([`BOUNDED_APIS`]), a
/// `for`-loop over such a range (or over a plain `self.field` range —
/// containers here are sized by the fields that bound their loops),
/// or an `enumerate` position. Idents compared in an `if`/`while`
/// condition count as guarded too. An index whose non-field idents
/// are all bounded or guarded is exempt; a bare field index
/// (`arr[self.pos]`) never is.
///
/// The graph is an over-approximation (unknown receivers dispatch to
/// every same-named method), so a reported chain is a *candidate*
/// path; absence of a report is the strong claim.
pub struct PanicReachability;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Entry-point verbs whose bodies start L9's reachability walk.
const ENTRY_NAMES: &[&str] = &["ingest", "ingest_batch", "merge", "estimate"];

fn is_entry(name: &str) -> bool {
    ENTRY_NAMES.contains(&name) || name.starts_with("query")
}

/// The innermost function (by body span) containing token `idx` of
/// file `file`.
fn fn_at(r: &Resolver, file: usize, idx: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (body.lo, fn id)
    for (id, f) in r.fns.iter().enumerate() {
        if f.file != file {
            continue;
        }
        let Some(b) = f.def.body else { continue };
        if b.contains(idx) && best.is_none_or(|(lo, _)| b.lo > lo) {
            best = Some((b.lo, id));
        }
    }
    best.map(|(_, id)| id)
}

/// Idents mentioned inside assert-family macro invocations within a
/// body span — treated as "guarded" index variables by prong (b).
fn asserted_idents(toks: &[Token], body: Span) -> HashSet<String> {
    const ASSERT_MACROS: &[&str] = &[
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
        "debug_assert_eq",
        "debug_assert_ne",
        "debug_invariant",
    ];
    let mut out = HashSet::new();
    let mut k = body.lo;
    while k + 2 < body.hi.min(toks.len()) {
        if toks[k].kind == TokKind::Ident
            && ASSERT_MACROS.contains(&toks[k].text.as_str())
            && toks[k + 1].is_punct('!')
            && toks[k + 2].is_punct('(')
        {
            let close = matching_close(toks, k + 2, body.hi).unwrap_or(body.hi);
            for t in &toks[k + 2..close.min(toks.len())] {
                if t.kind == TokKind::Ident {
                    out.insert(t.text.clone());
                }
            }
            k = close;
        }
        k += 1;
    }
    out
}

/// An ALL_CAPS ident names a const — a compile-time-checked index.
fn is_const_ident(s: &str) -> bool {
    s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Workspace APIs whose return value is bounded by contract: the
/// canonical hash-to-bucket mapper, the engine's shard router, and the
/// level-stack selectors all promise an in-range result. (The repo
/// owns these contracts; that is what makes a repo-specific lint able
/// to trust them.)
const BOUNDED_APIS: &[&str] = &["hash_to_range", "route", "level_of", "level_from_hash"];

/// Methods whose result is no larger than an operand or a container
/// length.
const BOUNDING_METHODS: &[&str] = &[
    "min",
    "clamp",
    "rem_euclid",
    "saturating_sub",
    "leading_zeros",
    "trailing_zeros",
    "len",
];

fn is_primitive_ty(s: &str) -> bool {
    matches!(
        s,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
            | "bool"
            | "char"
            | "str"
    )
}

/// True if the expression at `toks[lo..hi]` visibly produces a
/// bounded value: it masks (`%`, binary `&`, `>>`), clamps
/// ([`BOUNDING_METHODS`]), calls a bounded-contract API
/// ([`BOUNDED_APIS`]), names a const — or every non-field ident in it
/// is already in `known`. A pure-literal expression is bounded; an
/// expression made only of `self.field` paths is bounded only when
/// `field_range` is set (the `for i in 0..self.len_field` idiom —
/// containers here are sized by the fields that bound their loops).
fn expr_bounds(
    toks: &[Token],
    lo: usize,
    hi: usize,
    known: &HashSet<String>,
    field_range: bool,
) -> bool {
    let hi = hi.min(toks.len());
    if lo >= hi {
        return false;
    }
    let mut nonfield: Vec<&str> = Vec::new();
    let mut has_field = false;
    for i in lo..hi {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct => {
                let binary_pos = i > lo
                    && (toks[i - 1].kind == TokKind::Ident
                        || toks[i - 1].kind == TokKind::Number
                        || toks[i - 1].is_punct(')')
                        || toks[i - 1].is_punct(']'));
                if t.is_punct('%') && binary_pos {
                    return true;
                }
                if t.is_punct('&')
                    && binary_pos
                    && !toks.get(i + 1).is_some_and(|n| n.is_punct('&'))
                {
                    return true;
                }
                if t.is_punct('>')
                    && binary_pos
                    && i + 1 < hi
                    && toks[i + 1].is_punct('>')
                {
                    return true;
                }
            }
            TokKind::Ident => {
                let s = t.text.as_str();
                if BOUNDING_METHODS.contains(&s)
                    || BOUNDED_APIS.contains(&s)
                    || is_const_ident(s)
                {
                    return true;
                }
                let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                if s == "self"
                    || is_primitive_ty(s)
                    || is_macro
                    || crate::callgraph::is_non_call_keyword(s)
                {
                    continue;
                }
                // A field-path component follows exactly one `.` — an
                // ident after `..` is a range endpoint, not a field.
                if i > 0
                    && toks[i - 1].is_punct('.')
                    && !(i > 1 && toks[i - 2].is_punct('.'))
                {
                    has_field = true;
                    continue;
                }
                nonfield.push(s);
            }
            _ => {}
        }
    }
    if !nonfield.is_empty() {
        nonfield.iter().all(|s| known.contains(*s))
    } else if has_field {
        field_range
    } else {
        true // literals and punctuation only
    }
}

/// Advances past a balanced-bracket region starting anywhere in a
/// statement, returning the index of the first depth-0 occurrence of
/// a stop punct (or `hi`).
fn scan_to(toks: &[Token], mut j: usize, hi: usize, stops: &[char]) -> usize {
    let mut depth = 0i64;
    while j < hi {
        let t = &toks[j];
        if depth == 0 && stops.iter().any(|&c| t.is_punct(c)) {
            return j;
        }
        bump_depth(t, &mut depth);
        j += 1;
    }
    hi
}

/// The per-body bounded-ident fixpoint backing L9's prong (b): which
/// locals are provably small enough to index with. See the lint doc
/// for the inference rules. Monotone (a later unbounded reassignment
/// does not retract an earlier bounded definition) — a deliberate
/// token-level approximation.
fn bounded_idents(toks: &[Token], body: Span) -> HashSet<String> {
    let hi = body.hi.min(toks.len());
    let mut bounded: HashSet<String> = HashSet::new();
    for _ in 0..8 {
        let before = bounded.len();
        let mut k = body.lo;
        while k < hi {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                // `(range).map(|i| …)` — the single closure parameter
                // of a combinator over a bounding parenthesized range.
                if t.is_punct('|') && k >= body.lo + 4 && toks[k - 1].is_punct('(') {
                    let close_bar = (k + 1..hi).find(|&j| toks[j].is_punct('|'));
                    let params: Vec<usize> = close_bar
                        .map(|cb| {
                            (k + 1..cb)
                                .filter(|&j| {
                                    toks[j].kind == TokKind::Ident
                                        && !matches!(
                                            toks[j].text.as_str(),
                                            "mut" | "ref" | "_" | "move"
                                        )
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    let m = k - 2; // the combinator ident
                    if params.len() == 1
                        && toks[m].kind == TokKind::Ident
                        && toks[m - 1].is_punct('.')
                        && toks[m - 2].is_punct(')')
                    {
                        if let Some(open) = matching_open(toks, m - 2, body.lo) {
                            if expr_bounds(toks, open + 1, m - 2, &bounded, true) {
                                bounded.insert(toks[params[0]].text.clone());
                            }
                        }
                    }
                }
                k += 1;
                continue;
            }
            match t.text.as_str() {
                "let" => {
                    // `let [mut] id [: ty] = rhs ;` — single-ident
                    // patterns only; destructurings stay unbounded.
                    let mut j = k + 1;
                    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    let Some(id) = toks.get(j).filter(|t| t.kind == TokKind::Ident)
                    else {
                        k += 1;
                        continue;
                    };
                    let name = id.text.clone();
                    j += 1;
                    if toks.get(j).is_some_and(|t| t.is_punct(':')) {
                        j = scan_to(toks, j + 1, hi, &['=', ';']);
                    }
                    if toks.get(j).is_some_and(|t| t.is_punct('=')) {
                        let end = scan_to(toks, j + 1, hi, &[';']);
                        if expr_bounds(toks, j + 1, end, &bounded, false) {
                            bounded.insert(name);
                        }
                        // Keep scanning from inside the initializer —
                        // it may contain closures and nested `let`s.
                        k = j;
                    }
                }
                "for" => {
                    // `for pat in range {` — a single-ident pattern
                    // over a bounding range, or the index half of an
                    // `enumerate` tuple.
                    let in_at = scan_to(toks, k + 1, hi, &['{', ';']);
                    let in_kw = (k + 1..in_at).find(|&j| toks[j].is_ident("in"));
                    let Some(in_kw) = in_kw else {
                        k += 1;
                        continue;
                    };
                    let open = scan_to(toks, in_kw + 1, hi, &['{']);
                    let pat: Vec<usize> = (k + 1..in_kw)
                        .filter(|&j| {
                            toks[j].kind == TokKind::Ident
                                && !matches!(toks[j].text.as_str(), "mut" | "ref" | "_")
                        })
                        .collect();
                    let range_enumerates = (in_kw + 1..open)
                        .any(|j| toks[j].is_ident("enumerate"));
                    if (pat.len() == 1
                        && expr_bounds(toks, in_kw + 1, open, &bounded, true))
                        || (pat.len() >= 2 && range_enumerates)
                    {
                        bounded.insert(toks[pat[0]].text.clone());
                    }
                    k = open;
                }
                "enumerate" => {
                    // `….enumerate().map(|(i, _)| …)` — the closure's
                    // first tuple element is a position.
                    let rest = &toks[k + 1..hi.min(k + 8)];
                    if rest.len() >= 7
                        && rest[0].is_punct('(')
                        && rest[1].is_punct(')')
                        && rest[2].is_punct('.')
                        && rest[3].kind == TokKind::Ident
                        && rest[4].is_punct('(')
                        && rest[5].is_punct('|')
                        && rest[6].is_punct('(')
                    {
                        if let Some(id) =
                            toks[k + 8..hi.min(k + 11)].iter().find(|t| {
                                t.kind == TokKind::Ident && !t.is_ident("mut")
                            })
                        {
                            bounded.insert(id.text.clone());
                        }
                    }
                }
                _ => {
                    // `id = rhs ;` / `id op= rhs ;` at statement
                    // position. Compound assignment keeps an already
                    // bounded ident bounded when the rhs is bounding.
                    let stmt_start = k == body.lo
                        || toks[k - 1].is_punct(';')
                        || toks[k - 1].is_punct('{')
                        || toks[k - 1].is_punct('}');
                    if !stmt_start {
                        k += 1;
                        continue;
                    }
                    let (assign_end, compound) = match toks.get(k + 1) {
                        Some(n) if n.is_punct('=')
                            && !toks.get(k + 2).is_some_and(|t| t.is_punct('=')) =>
                        {
                            (k + 1, false)
                        }
                        Some(n)
                            if n.kind == TokKind::Punct
                                && "+-*/%&|^".contains(n.text.as_str())
                                && toks.get(k + 2).is_some_and(|t| t.is_punct('=')) =>
                        {
                            (k + 2, true)
                        }
                        _ => {
                            k += 1;
                            continue;
                        }
                    };
                    let end = scan_to(toks, assign_end + 1, hi, &[';']);
                    if expr_bounds(toks, assign_end + 1, end, &bounded, false)
                        && (!compound || bounded.contains(&t.text))
                    {
                        bounded.insert(t.text.clone());
                    }
                    k = assign_end;
                }
            }
            k += 1;
        }
        if bounded.len() == before {
            break;
        }
    }
    bounded
}

/// Idents mentioned in an `if`/`while` condition that performs a
/// comparison — the body has visibly checked a bound involving them.
fn cmp_guarded_idents(toks: &[Token], body: Span) -> HashSet<String> {
    let hi = body.hi.min(toks.len());
    let mut out = HashSet::new();
    let mut k = body.lo;
    while k < hi {
        if !(toks[k].is_ident("if") || toks[k].is_ident("while")) {
            k += 1;
            continue;
        }
        let open = scan_to(toks, k + 1, hi, &['{']);
        let has_cmp = (k + 1..open).any(|j| {
            let t = &toks[j];
            (t.is_punct('<') || t.is_punct('>'))
                && !(j > 0 && (toks[j - 1].is_punct('-') || toks[j - 1].is_punct('=')))
        });
        if has_cmp {
            for t in &toks[k + 1..open] {
                if t.kind == TokKind::Ident {
                    out.insert(t.text.clone());
                }
            }
        }
        k = open + 1;
    }
    out
}

impl crate::Lint for PanicReachability {
    fn id(&self) -> &'static str {
        "L9"
    }
    fn summary(&self) -> &'static str {
        "no unwrap/expect/panic!-family or unguarded indexing reachable from ingest/merge/query"
    }
    fn cross_file(&self) -> bool {
        true
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        let r = &ctx.resolver;
        let entries: Vec<usize> = r
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                ctx.ws.files[f.file].kind == FileKind::Library
                    && !f.in_test
                    && !f.gated
                    && is_entry(&f.name)
            })
            .map(|(id, _)| id)
            .collect();
        let reach = ctx.graph.reach(&entries);

        // Prong (a): the panic family, everywhere in library code.
        for (file_idx, file) in ctx.ws.files.iter().enumerate() {
            if file.kind != FileKind::Library {
                continue;
            }
            let toks = &file.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident || file.in_test_code(t.line) {
                    continue;
                }
                let after_dot = i > 0 && toks[i - 1].is_punct('.');
                let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                let snippet = if after_dot && called && t.text == "unwrap" {
                    Some("unwrap()".to_string())
                } else if after_dot && called && t.text == "expect" {
                    Some(match toks.get(i + 2) {
                        Some(msg) if msg.kind == TokKind::Str => {
                            format!("expect(\"{}\")", msg.text)
                        }
                        _ => "expect(..)".to_string(),
                    })
                } else if PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    Some(format!("{}!", t.text))
                } else {
                    None
                };
                let Some(snippet) = snippet else { continue };
                if file.path == FAULT_SEAM && snippet == "panic!" && seam_is_seeded(file) {
                    // The seam's `detonate` panic IS the product: an
                    // injected kill must travel the genuine worker
                    // crash path. unwrap/expect stay banned there.
                    continue;
                }
                let owner = fn_at(r, file_idx, i);
                if let Some(fid) = owner {
                    if r.fns[fid].in_test || r.fns[fid].gated {
                        continue;
                    }
                }
                let message = match owner {
                    Some(fid) if reach.contains_key(&fid) => format!(
                        "`{snippet}` can abort on adversarial input and is reachable \
                         from an estimator entry point: {}",
                        ctx.graph.chain(r, &reach, fid)
                    ),
                    _ => format!(
                        "`{snippet}` in library crate can abort on adversarial input"
                    ),
                };
                out.push(Finding::new(
                    "L9",
                    &file.path,
                    t.line,
                    &snippet,
                    message,
                    Some(
                        "return a hindex_common::error value (or degrade and assert the \
                         invariant via debug_invariant!); baseline only with justification"
                            .to_string(),
                    ),
                ));
            }
        }

        // Prong (b): unguarded indexing in reachable functions.
        let mut reachable: Vec<usize> = reach.keys().copied().collect();
        reachable.sort_unstable();
        for fid in reachable {
            let f = &r.fns[fid];
            if f.in_test || f.gated {
                continue;
            }
            let file = &ctx.ws.files[f.file];
            if file.kind != FileKind::Library {
                continue;
            }
            let Some(body) = f.def.body else { continue };
            let toks = &file.tokens;
            let body_idents = {
                let mut s = HashSet::new();
                for t in &toks[body.lo..body.hi.min(toks.len())] {
                    if t.kind == TokKind::Ident {
                        s.insert(t.text.as_str());
                    }
                }
                s
            };
            let resizes = body_idents.contains("resize") || body_idents.contains("resize_with");
            let mut known = bounded_idents(toks, body);
            known.extend(asserted_idents(toks, body));
            known.extend(cmp_guarded_idents(toks, body));
            let mut k = body.lo;
            while k < body.hi.min(toks.len()) {
                if !toks[k].is_punct('[') {
                    k += 1;
                    continue;
                }
                let indexable = k > body.lo
                    && (toks[k - 1].is_punct(')')
                        || toks[k - 1].is_punct(']')
                        || (toks[k - 1].kind == TokKind::Ident
                            && !crate::callgraph::is_non_call_keyword(&toks[k - 1].text)));
                if !indexable {
                    k += 1;
                    continue;
                }
                let close = match matching_close(toks, k, body.hi) {
                    Some(c) => c,
                    None => break,
                };
                let guarded = resizes || expr_bounds(toks, k + 1, close, &known, false);
                if !guarded {
                    let snippet = render_range(toks, k.saturating_sub(1), (close + 1).min(k + 11));
                    out.push(Finding::new(
                        "L9",
                        &file.path,
                        toks[k].line,
                        &format!("index {snippet}"),
                        format!(
                            "unguarded indexing `{snippet}` is reachable from an estimator \
                             entry point: {}",
                            ctx.graph.chain(r, &reach, fid)
                        ),
                        Some(
                            "use .get()/.get_mut() with an error path, mask or clamp the \
                             index, or assert the bound in the same body"
                                .to_string(),
                        ),
                    ));
                }
                k = close + 1;
            }
        }
    }
}

/// L10 — overflow-unsafe arithmetic on stream-derived integers.
///
/// Hash mixing and counter maintenance in `crates/hashing` and
/// `crates/core` run on adversarial 64-bit inputs, where a raw `+`,
/// `*`, or `<<` is a debug-build abort (and a silent wrap in release).
/// This lint runs a small intraprocedural taint pass per function:
///
/// * **sources** — parameters of `ingest`/`ingest_batch`, and any
///   `let` whose right-hand side mentions the field API
///   (`from_u64`, `mersenne_mul`, …) or an already-tainted local;
///   taint flows through closure parameters (when the receiver chain
///   root is tainted) and `for`-loop bindings (when the iterated
///   expression is tainted);
/// * **sinks** — raw `+`/`+=`, binary `*`, `<<`, and narrowing `as`
///   casts whose operands mention a tainted local;
/// * **exemptions** — a statement that widens to `u128`/`i128` or
///   floats, or that uses `wrapping_*`/`checked_*`/`saturating_*`/
///   `overflowing_*`; an additive literal bump (`x + 1`), which needs
///   ~2^64 operations to overflow; casts are additionally cleared by
///   `min`/`clamp`/`try_from`, a `%`/`&` mask, or an assert in the
///   same statement. Index-position arithmetic (inside `[…]`) is L9's
///   concern, not L10's.
///
/// `crates/hashing/src/field.rs` is exempt: it is the one place
/// allowed to implement the modular arithmetic the rest of the
/// workspace must call.
pub struct OverflowUnsafety;

/// The checked field-arithmetic vocabulary: values produced by these
/// are canonical field elements close to `2^61`, where a raw product
/// or sum overflows `u64`.
const FIELD_API: &[&str] = &[
    "from_u64",
    "from_i64",
    "mersenne_mul",
    "mersenne_add",
    "mersenne_reduce",
    "mersenne_pow",
    "pow",
];

/// Crates in scope for L10 (hashing + core arithmetic paths).
const L10_SCOPE: &[&str] = &["crates/hashing/", "crates/core/"];

/// Narrowing cast targets that can truncate or sign-wrap a 64-bit
/// stream value.
const NARROW_CASTS: &[&str] = &["i64", "i32", "i16", "i8", "u32", "u16", "u8"];

fn bump_depth(t: &Token, depth: &mut i64) {
    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
        *depth += 1;
    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
        *depth -= 1;
    }
}

fn is_tainted_name(name: &str, tainted: &HashSet<String>) -> bool {
    tainted.contains(name) || FIELD_API.contains(&name)
}

/// Walks left from a closure's opening `|` to the root identifier of
/// the receiver method chain (`signed.iter().map(|…` → `signed`).
fn receiver_root_tainted(
    toks: &[Token],
    body: Span,
    bar: usize,
    tainted: &HashSet<String>,
) -> bool {
    if bar == body.lo {
        return false;
    }
    let mut j = bar - 1;
    if !toks[j].is_punct('(') || j == body.lo {
        return false; // closure not in method-call position
    }
    j -= 1;
    let mut root: Option<&str> = None;
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            root = Some(&t.text);
        } else if t.is_punct(')') || t.is_punct(']') {
            match matching_open(toks, j, body.lo) {
                Some(open) if open > body.lo => j = open,
                _ => break,
            }
        } else if !t.is_punct('.') {
            break;
        }
        if j == body.lo {
            break;
        }
        j -= 1;
    }
    root.is_some_and(|r| is_tainted_name(r, tainted))
}

/// Computes the function's tainted-local set to a fixpoint.
fn l10_taint(f: &FnInfo, toks: &[Token]) -> HashSet<String> {
    let mut tainted: HashSet<String> = HashSet::new();
    if matches!(f.name.as_str(), "ingest" | "ingest_batch") {
        for p in &f.def.params {
            for n in &p.names {
                if n != "self" {
                    tainted.insert(n.clone());
                }
            }
        }
    }
    let Some(body) = f.def.body else {
        return tainted;
    };
    let hi = body.hi.min(toks.len());
    loop {
        let before = tainted.len();
        let mut i = body.lo;
        while i < hi {
            if toks[i].is_ident("let") {
                // Pattern idents up to the depth-0 `:` or `=`.
                let mut j = i + 1;
                let mut depth = 0i64;
                let mut pat: Vec<String> = Vec::new();
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && (t.is_punct(':') || t.is_punct('=') || t.is_punct(';')) {
                        break;
                    }
                    bump_depth(t, &mut depth);
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                    {
                        pat.push(t.text.clone());
                    }
                    j += 1;
                }
                // Advance to the initialiser `=`.
                depth = 0;
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && (t.is_punct('=') || t.is_punct(';')) {
                        break;
                    }
                    bump_depth(t, &mut depth);
                    j += 1;
                }
                // Scan the right-hand side to the statement end.
                let mut rhs_tainted = false;
                depth = 0;
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                        break;
                    }
                    bump_depth(t, &mut depth);
                    if t.kind == TokKind::Ident && is_tainted_name(&t.text, &tainted) {
                        rhs_tainted = true;
                    }
                    j += 1;
                }
                if rhs_tainted {
                    tainted.extend(pat);
                }
                i = j;
            } else if toks[i].is_punct('|')
                && i > body.lo
                && toks[i - 1].is_punct('(')
            {
                // Closure in call position: `recv.method(|params| …)`.
                let mut params: Vec<String> = Vec::new();
                let mut j = i + 1;
                let mut steps = 0;
                while j < hi && steps < 32 && !toks[j].is_punct('|') {
                    let t = &toks[j];
                    if t.is_punct(';') || t.is_punct('{') {
                        break;
                    }
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "move")
                    {
                        params.push(t.text.clone());
                    }
                    j += 1;
                    steps += 1;
                }
                if !params.is_empty() && receiver_root_tainted(toks, body, i, &tainted) {
                    tainted.extend(params);
                }
                i = j;
            } else if toks[i].is_ident("for") {
                // `for <pat> in <expr> {` — taint the bindings when the
                // iterated expression mentions a tainted value.
                let mut j = i + 1;
                let mut depth = 0i64;
                let mut pat: Vec<String> = Vec::new();
                let mut saw_in = false;
                while j < hi {
                    let t = &toks[j];
                    if depth == 0 && t.is_ident("in") {
                        saw_in = true;
                        break;
                    }
                    if t.is_punct('{') || t.is_punct(';') {
                        break; // `for<'a>` HRTB or malformed input
                    }
                    bump_depth(t, &mut depth);
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                    {
                        pat.push(t.text.clone());
                    }
                    j += 1;
                }
                if saw_in {
                    j += 1;
                    let mut expr_tainted = false;
                    depth = 0;
                    while j < hi {
                        let t = &toks[j];
                        if depth == 0 && t.is_punct('{') {
                            break;
                        }
                        bump_depth(t, &mut depth);
                        if t.kind == TokKind::Ident && is_tainted_name(&t.text, &tainted) {
                            expr_tainted = true;
                        }
                        j += 1;
                    }
                    if expr_tainted {
                        tainted.extend(pat);
                    }
                }
                i = j;
            }
            i += 1;
        }
        if tainted.len() == before {
            break;
        }
    }
    tainted
}

/// Identifiers on the left operand side of the token at `op`.
fn operand_idents_left(toks: &[Token], body: Span, op: usize) -> Vec<&str> {
    let mut out = Vec::new();
    if op == body.lo {
        return out;
    }
    let mut j = op - 1;
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            if matches!(t.text.as_str(), "as" | "return" | "in") {
                break;
            }
            out.push(t.text.as_str());
        } else if t.is_punct(')') || t.is_punct(']') {
            match matching_open(toks, j, body.lo) {
                Some(open) => {
                    for u in &toks[open..=j] {
                        if u.kind == TokKind::Ident {
                            out.push(u.text.as_str());
                        }
                    }
                    j = open;
                }
                None => break,
            }
        } else if t.kind != TokKind::Number && !t.is_punct('.') {
            break;
        }
        if j == body.lo {
            break;
        }
        j -= 1;
    }
    out
}

/// Identifiers on the right operand side of the token at `op_end`
/// (the last token of the operator, for the two-token `<<`).
fn operand_idents_right(toks: &[Token], op_end: usize, hi: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut j = op_end + 1;
    // Compound assignment (`+=`): skip the `=`.
    if toks.get(j).is_some_and(|t| t.is_punct('=')) {
        j += 1;
    }
    while j < hi.min(toks.len()) {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            if t.text == "as" {
                break;
            }
            out.push(t.text.as_str());
        } else if t.is_punct('(') {
            match matching_close(toks, j, hi) {
                Some(close) => {
                    for u in &toks[j..=close] {
                        if u.kind == TokKind::Ident {
                            out.push(u.text.as_str());
                        }
                    }
                    j = close;
                }
                None => break,
            }
        } else if t.kind != TokKind::Number
            && !t.is_punct('.')
            && !t.is_punct('&')
            && !t.is_punct('*')
            && !t.is_punct('-')
        {
            break;
        }
        j += 1;
    }
    out
}

/// The statement containing `at`: tokens between the nearest `;`/`{`/
/// `}` boundaries on either side.
fn stmt_bounds(toks: &[Token], body: Span, at: usize) -> (usize, usize) {
    let hi = body.hi.min(toks.len());
    let mut lo = at;
    while lo > body.lo {
        let t = &toks[lo - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        lo -= 1;
    }
    let mut end = at;
    while end < hi {
        let t = &toks[end];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        end += 1;
    }
    (lo, end)
}

/// True if a statement is overflow-safe by construction: widened to
/// 128-bit/float, or using the explicit-overflow method families.
fn overflow_exempt(stmt: &[Token]) -> bool {
    stmt.iter().any(|t| {
        t.kind == TokKind::Ident
            && (matches!(t.text.as_str(), "u128" | "i128" | "f64" | "f32")
                || t.text.starts_with("wrapping_")
                || t.text.starts_with("checked_")
                || t.text.starts_with("saturating_")
                || t.text.starts_with("overflowing_"))
    })
}

/// True if a narrowing cast's statement proves the value in range.
fn cast_exempt(stmt: &[Token]) -> bool {
    overflow_exempt(stmt)
        || stmt.iter().any(|t| {
            (t.kind == TokKind::Ident
                && (matches!(t.text.as_str(), "min" | "clamp" | "try_from")
                    || t.text.starts_with("assert")
                    || t.text.starts_with("debug_assert")
                    || t.text == "debug_invariant"))
                || t.is_punct('%')
                || t.is_punct('&')
        })
}

impl crate::Lint for OverflowUnsafety {
    fn id(&self) -> &'static str {
        "L10"
    }
    fn summary(&self) -> &'static str {
        "no raw +/*/<< or narrowing casts on stream-derived values in hashing/core"
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        for (file_idx, file) in ctx.ws.files.iter().enumerate() {
            if file.kind != FileKind::Library
                || !L10_SCOPE.iter().any(|p| file.path.starts_with(p))
                || file.path == "crates/hashing/src/field.rs"
            {
                continue;
            }
            let toks = &file.tokens;
            let mut seen: HashSet<(u32, String)> = HashSet::new();
            for f in &ctx.resolver.fns {
                if f.file != file_idx || f.in_test || f.gated {
                    continue;
                }
                let Some(body) = f.def.body else { continue };
                let tainted = l10_taint(f, toks);
                if tainted.is_empty() {
                    continue;
                }
                let hi = body.hi.min(toks.len());
                let mut bracket = 0i64;
                let mut k = body.lo;
                while k < hi {
                    let t = &toks[k];
                    if t.is_punct('[') {
                        bracket += 1;
                        k += 1;
                        continue;
                    }
                    if t.is_punct(']') {
                        bracket -= 1;
                        k += 1;
                        continue;
                    }
                    if bracket > 0 {
                        k += 1;
                        continue;
                    }
                    // Narrowing `as` cast on a tainted operand.
                    if t.is_ident("as") {
                        if toks.get(k + 1).is_some_and(|ty| {
                            ty.kind == TokKind::Ident
                                && NARROW_CASTS.contains(&ty.text.as_str())
                        }) {
                            let lhs = operand_idents_left(toks, body, k);
                            if lhs.iter().any(|s| is_tainted_name(s, &tainted)) {
                                let (slo, shi) = stmt_bounds(toks, body, k);
                                if !cast_exempt(&toks[slo..shi]) {
                                    let snippet = render_range(
                                        toks,
                                        k.saturating_sub(3).max(slo),
                                        (k + 2).min(shi),
                                    );
                                    if seen.insert((t.line, snippet.clone())) {
                                        out.push(Finding::new(
                                            "L10",
                                            &file.path,
                                            t.line,
                                            &snippet,
                                            format!(
                                                "narrowing cast `{snippet}` on a \
                                                 stream-derived value in `fn {}` can \
                                                 truncate or sign-wrap",
                                                f.name
                                            ),
                                            Some(
                                                "prove the range first (min/clamp/mask, \
                                                 try_from, or an assert in the same \
                                                 statement)"
                                                    .to_string(),
                                            ),
                                        ));
                                    }
                                }
                            }
                        }
                        k += 1;
                        continue;
                    }
                    let op: Option<(&str, usize)> = if t.is_punct('+') {
                        Some(("+", 1))
                    } else if t.is_punct('*')
                        && k > body.lo
                        && (toks[k - 1].kind == TokKind::Ident
                            || toks[k - 1].kind == TokKind::Number
                            || toks[k - 1].is_punct(')')
                            || toks[k - 1].is_punct(']'))
                    {
                        Some(("*", 1))
                    } else if t.is_punct('<')
                        && toks.get(k + 1).is_some_and(|n| n.is_punct('<'))
                    {
                        Some(("<<", 2))
                    } else {
                        None
                    };
                    let Some((opname, width)) = op else {
                        k += 1;
                        continue;
                    };
                    // An additive literal bump (`x + 1`, `count += 1`)
                    // overflows only after ~2^64 operations — not a
                    // reachable input budget; multiplication by a
                    // literal stays flagged (it can overflow at once).
                    if opname == "+" {
                        let mut j = k + 1;
                        if toks.get(j).is_some_and(|t| t.is_punct('=')) {
                            j += 1;
                        }
                        let literal_bump = toks
                            .get(j)
                            .is_some_and(|t| t.kind == TokKind::Number)
                            && toks.get(j + 1).is_none_or(|t| {
                                t.kind == TokKind::Punct
                                    && !t.is_punct('(')
                                    && !t.is_punct('.')
                            });
                        if literal_bump {
                            k += width;
                            continue;
                        }
                    }
                    let mut operands = operand_idents_left(toks, body, k);
                    operands.extend(operand_idents_right(toks, k + width - 1, hi));
                    if operands.iter().any(|s| is_tainted_name(s, &tainted)) {
                        let (slo, shi) = stmt_bounds(toks, body, k);
                        if !overflow_exempt(&toks[slo..shi]) {
                            let snippet = render_range(
                                toks,
                                k.saturating_sub(3).max(slo),
                                (k + width + 3).min(shi),
                            );
                            if seen.insert((t.line, snippet.clone())) {
                                out.push(Finding::new(
                                    "L10",
                                    &file.path,
                                    t.line,
                                    &snippet,
                                    format!(
                                        "raw `{opname}` on a stream-derived value in \
                                         `fn {}` can overflow on adversarial input",
                                        f.name
                                    ),
                                    Some(
                                        "use wrapping_*/checked_*/saturating_* or widen \
                                         to u128 for the intermediate"
                                            .to_string(),
                                    ),
                                ));
                            }
                        }
                    }
                    k += width;
                }
            }
        }
    }
}

/// L11 — every `Mergeable` type is digestible, persistable, covered.
///
/// Structural successor to the retired L5/L6. For each non-test
/// `impl Mergeable for T` in library code, four facts must hold:
///
/// 1. `T` has a `Snapshot` impl (the engine checkpoints by
///    snapshotting each shard — a mergeable type without a durable
///    encoding silently excludes itself from crash recovery);
/// 2. `T` has a `state_digest` method (the debug-invariant layer
///    fingerprints shard state around merges; a type without a digest
///    is invisible to the divergence checks);
/// 3. `T` is referenced from `tests/merge_semantics.rs` (merge-vs-
///    concatenated-stream law);
/// 4. `T` is referenced from `tests/snapshot_roundtrip.rs` (round-trip
///    law + corruption totality).
///
/// Unlike the retired token scans, the impl inventory and the
/// `state_digest` lookup come from the resolver, so `#[cfg(test)]`
/// helper types and gated methods are classified correctly.
pub struct DigestSnapshotCoverage;

/// The merge-law suite L11 checks membership against.
const MERGE_SUITE: &str = "tests/merge_semantics.rs";
/// The persistence suite L11 checks membership against.
const ROUNDTRIP_SUITE: &str = "tests/snapshot_roundtrip.rs";

impl crate::Lint for DigestSnapshotCoverage {
    fn id(&self) -> &'static str {
        "L11"
    }
    fn summary(&self) -> &'static str {
        "every Mergeable type has Snapshot + state_digest and is covered by both suites"
    }
    fn cross_file(&self) -> bool {
        true
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        let merge_refs = ident_set(ctx.ws.file(MERGE_SUITE));
        let roundtrip_refs = ident_set(ctx.ws.file(ROUNDTRIP_SUITE));
        let snapshot_types: HashSet<&str> = ctx
            .resolver
            .impls
            .iter()
            .filter(|i| {
                ctx.ws.files[i.file].kind == FileKind::Library
                    && !i.in_test
                    && i.trait_name.as_deref() == Some("Snapshot")
            })
            .map(|i| i.self_ty.as_str())
            .collect();
        let mut reported: HashSet<String> = HashSet::new();
        for imp in &ctx.resolver.impls {
            let file = &ctx.ws.files[imp.file];
            if file.kind != FileKind::Library
                || imp.in_test
                || imp.trait_name.as_deref() != Some("Mergeable")
            {
                continue;
            }
            let ty = imp.self_ty.as_str();
            if !snapshot_types.contains(ty) && reported.insert(format!("snapshot:{ty}")) {
                out.push(Finding::new(
                    "L11",
                    &file.path,
                    imp.line,
                    &format!("{ty} not persistable"),
                    format!(
                        "`Mergeable` impl for `{ty}` has no `Snapshot` impl — the engine \
                         cannot checkpoint shards hosting it"
                    ),
                    Some(format!(
                        "implement `Snapshot` for `{ty}` (versioned frame, total decode)"
                    )),
                ));
            }
            if ctx.resolver.methods_of(ty, "state_digest").is_empty()
                && reported.insert(format!("digest:{ty}"))
            {
                out.push(Finding::new(
                    "L11",
                    &file.path,
                    imp.line,
                    &format!("{ty} missing state_digest"),
                    format!(
                        "`Mergeable` impl for `{ty}` has no `state_digest` method — the \
                         debug-invariant layer cannot fingerprint it around merges"
                    ),
                    Some(format!(
                        "add a `#[cfg(feature = \"debug_invariants\")] pub fn \
                         state_digest(&self) -> u64` (FNV-1a over the logical state) to \
                         an inherent impl of `{ty}`"
                    )),
                ));
            }
            if !merge_refs.contains(ty) && reported.insert(format!("merge:{ty}")) {
                out.push(Finding::new(
                    "L11",
                    &file.path,
                    imp.line,
                    &format!("{ty} missing merge test"),
                    format!(
                        "`Mergeable` impl for `{ty}` is not exercised by {MERGE_SUITE}"
                    ),
                    Some(format!(
                        "add a split-stream merge-vs-concatenation test for `{ty}`"
                    )),
                ));
            }
            if !roundtrip_refs.contains(ty) && reported.insert(format!("roundtrip:{ty}")) {
                out.push(Finding::new(
                    "L11",
                    &file.path,
                    imp.line,
                    &format!("{ty} missing snapshot round-trip test"),
                    format!(
                        "`{ty}` is not referenced by {ROUNDTRIP_SUITE}, the suite \
                         asserting the round-trip law and corruption totality"
                    ),
                    Some(format!(
                        "add a round-trip + corruption case for `{ty}` to \
                         {ROUNDTRIP_SUITE}"
                    )),
                ));
            }
        }
    }
}

/// L12 — feature-gate consistency for the debug-invariant layer.
///
/// The `debug_invariant!` macro self-gates via
/// `#[cfg(feature = "debug_invariants")]` **in its expansion**, which
/// rustc resolves against the *expanding* crate's feature set. A crate
/// that uses the macro without declaring the feature compiles — and
/// silently never checks anything. This lint closes that hole with
/// three manifest-level rules, evaluated per crate (crates without a
/// `Cargo.toml` in the analysed set are skipped):
///
/// * **A (declare)** — a crate whose library code uses
///   `debug_invariant!` or defines `state_digest` must declare a
///   `debug_invariants` feature in its `Cargo.toml`;
/// * **B (forward)** — such a crate must forward the feature to every
///   non-test `hindex_*` dependency that itself declares it
///   (`"hindex-common/debug_invariants"`-style), so enabling the
///   feature at the top enables it transitively;
/// * **C (gate)** — every non-test `fn state_digest` in library code
///   must sit behind `#[cfg(feature = "debug_invariants")]`; an
///   ungated digest silently bloats release builds.
pub struct FeatureGateConsistency;

/// The feature name the debug-invariant layer is gated on.
const GATE_FEATURE: &str = "debug_invariants";

/// Collects the `hindex_*` crates named by non-test `use` items.
fn non_test_use_targets(items: &[Item], in_test: bool, out: &mut BTreeSet<String>) {
    for item in items {
        let in_test = in_test || item.is_cfg_test();
        if let ItemKind::Use { segments } = &item.kind {
            if !in_test {
                if let Some(first) = segments.first() {
                    if first.starts_with("hindex_") {
                        out.insert(first.clone());
                    }
                }
            }
        }
        non_test_use_targets(item.children(), in_test, out);
    }
}

impl crate::Lint for FeatureGateConsistency {
    fn id(&self) -> &'static str {
        "L12"
    }
    fn summary(&self) -> &'static str {
        "debug_invariant!/state_digest usage implies feature declaration, forwarding, gating"
    }
    fn cross_file(&self) -> bool {
        true
    }
    fn run(&self, ctx: &Analysis, out: &mut Vec<Finding>) {
        for m in &ctx.ws.manifests {
            let Some(pkg) = &m.package_name else { continue };
            let manifest_path = if m.dir.is_empty() {
                "Cargo.toml".to_string()
            } else {
                format!("{}/Cargo.toml", m.dir)
            };
            let crate_files: Vec<(usize, &SourceFile)> = ctx
                .ws
                .files
                .iter()
                .enumerate()
                .filter(|(_, f)| f.kind == FileKind::Library && f.crate_dir() == m.dir)
                .collect();
            if crate_files.is_empty() {
                continue;
            }
            let uses_invariant = crate_files.iter().any(|(_, f)| {
                f.tokens.windows(2).any(|w| {
                    w[0].is_ident("debug_invariant")
                        && w[1].is_punct('!')
                        && !f.in_test_code(w[0].line)
                })
            });
            let digest_fns: Vec<&FnInfo> = ctx
                .resolver
                .fns
                .iter()
                .filter(|fi| {
                    fi.name == "state_digest"
                        && !fi.in_test
                        && crate_files.iter().any(|(idx, _)| *idx == fi.file)
                })
                .collect();
            let usage = uses_invariant || !digest_fns.is_empty();
            let declared = m.feature(GATE_FEATURE);

            // Rule A: usage implies declaration.
            if usage && declared.is_none() {
                out.push(Finding::new(
                    "L12",
                    &manifest_path,
                    1,
                    &format!("{pkg} missing {GATE_FEATURE} feature"),
                    format!(
                        "`{pkg}` uses debug_invariant!/state_digest but its Cargo.toml \
                         declares no `{GATE_FEATURE}` feature — the checks can never be \
                         enabled for this crate"
                    ),
                    Some(format!(
                        "add `{GATE_FEATURE} = []` (plus forwarding entries) under \
                         [features] in {manifest_path}"
                    )),
                ));
            }

            // Rule B: forward the feature to declaring dependencies.
            if usage {
                let mut deps = BTreeSet::new();
                for (_, f) in &crate_files {
                    non_test_use_targets(&f.items, false, &mut deps);
                }
                for dep in deps {
                    let dep_pkg = dep.replace('_', "-");
                    if dep_pkg == *pkg {
                        continue;
                    }
                    let dep_declares = ctx.ws.manifests.iter().any(|dm| {
                        dm.package_name.as_deref() == Some(dep_pkg.as_str())
                            && dm.feature(GATE_FEATURE).is_some()
                    });
                    if !dep_declares {
                        continue;
                    }
                    let fwd = format!("{dep_pkg}/{GATE_FEATURE}");
                    if !declared.is_some_and(|l| l.iter().any(|e| e == &fwd)) {
                        out.push(Finding::new(
                            "L12",
                            &manifest_path,
                            1,
                            &format!("{pkg} does not forward {GATE_FEATURE} to {dep_pkg}"),
                            format!(
                                "`{pkg}` uses the debug-invariant layer and depends on \
                                 `{dep_pkg}` (which declares `{GATE_FEATURE}`) but does \
                                 not forward the feature — enabling it at the top leaves \
                                 the dependency's checks off"
                            ),
                            Some(format!(
                                "add \"{fwd}\" to the `{GATE_FEATURE}` list in \
                                 {manifest_path}"
                            )),
                        ));
                    }
                }
            }

            // Rule C: digests are gated.
            for fi in &digest_fns {
                if !fi.gated {
                    let file = &ctx.ws.files[fi.file];
                    out.push(Finding::new(
                        "L12",
                        &file.path,
                        fi.line,
                        "ungated state_digest",
                        "`fn state_digest` is not gated behind \
                         #[cfg(feature = \"debug_invariants\")] — it ships in release \
                         builds where nothing can call it"
                            .to_string(),
                        Some(
                            "add `#[cfg(feature = \"debug_invariants\")]` to the fn (or \
                             its enclosing impl)"
                                .to_string(),
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            sources.iter().map(|(p, c)| ((*p).to_string(), (*c).to_string())).collect(),
        )
    }

    fn run_lint(lint: &dyn crate::Lint, ws: &Workspace) -> Vec<Finding> {
        let ctx = crate::Analysis::build(ws);
        let mut out = Vec::new();
        lint.run(&ctx, &mut out);
        crate::sort_findings(&mut out);
        out
    }

    #[test]
    fn l4_exempts_the_clock_seam_only() {
        let ws = ws(&[
            (CLOCK_SEAM, "#![forbid(unsafe_code)]\nuse std::time::Instant;\n"),
            ("crates/core/src/bad.rs", "use std::time::Instant;\n"),
        ]);
        let findings = run_lint(&ForbidNondeterminism, &ws);
        let clocky: Vec<_> = findings
            .iter()
            .filter(|f| f.snippet.contains("Instant"))
            .collect();
        assert_eq!(clocky.len(), 1, "{findings:?}");
        assert_eq!(clocky[0].file, "crates/core/src/bad.rs");
    }

    #[test]
    fn l4_and_l9_exempt_the_fault_seam_only_while_seeded() {
        let seeded = "use std::time::SystemTime;\n\
                      fn seed() -> u64 { let _ = StdRng::seed_from_u64(0); 7 }\n\
                      pub fn detonate(msg: &str) -> ! { panic!(\"injected fault: {msg}\") }\n";
        let unseeded = "use std::time::SystemTime;\n\
                        pub fn detonate(msg: &str) -> ! { panic!(\"injected fault: {msg}\") }\n";

        // Seeded: both the wall-clock ident and the panic are exempt.
        let ws_ok = ws(&[(FAULT_SEAM, seeded)]);
        assert!(run_lint(&ForbidNondeterminism, &ws_ok).is_empty());
        assert!(run_lint(&PanicReachability, &ws_ok)
            .iter()
            .all(|f| !f.snippet.contains("panic")));

        // Unseeded: the exemption is void and both lints fire.
        let ws_bad = ws(&[(FAULT_SEAM, unseeded)]);
        let l4 = run_lint(&ForbidNondeterminism, &ws_bad);
        assert!(l4.iter().any(|f| f.snippet.contains("SystemTime")), "{l4:?}");
        let l9 = run_lint(&PanicReachability, &ws_bad);
        assert!(l9.iter().any(|f| f.snippet == "panic!"), "{l9:?}");

        // The seeded exemption never leaks to other files.
        let ws_other = ws(&[("crates/core/src/bad.rs", seeded)]);
        let l4 = run_lint(&ForbidNondeterminism, &ws_other);
        assert!(l4.iter().any(|f| f.snippet.contains("SystemTime")), "{l4:?}");
    }

    #[test]
    fn l9_still_flags_unwrap_inside_the_fault_seam() {
        let src = "fn seed() -> u64 { StdRng::seed_from_u64(0); 7 }\n\
                   fn helper(v: Option<u64>) -> u64 { v.unwrap() }\n";
        let ws = ws(&[(FAULT_SEAM, src)]);
        let findings = run_lint(&PanicReachability, &ws);
        assert!(findings.iter().any(|f| f.snippet == "unwrap()"), "{findings:?}");
    }

    #[test]
    fn l7_flags_unrecorded_variant_and_uncalled_hook() {
        let ws = ws(&[
            (
                TRACE_FILE,
                "pub enum EventKind { Flush, Ghost }\n",
            ),
            (
                OBSERVER_FILE,
                "pub fn on_flush(&self) { record(EventKind::Flush); }\n\
                 pub fn on_orphan(&self) {}\n",
            ),
            (
                "crates/engine/src/lib.rs",
                "fn f(o: &EngineObserver) { o.on_flush(); }\n",
            ),
        ]);
        let findings = run_lint(&ObservabilityWiring, &ws);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("Ghost")));
        assert!(findings.iter().any(|f| f.message.contains("on_orphan")));
    }

    #[test]
    fn l7_scan_handles_the_real_trace_file() {
        let contents = std::fs::read_to_string(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../obs/src/trace.rs"),
        )
        .unwrap();
        let f = SourceFile::parse(TRACE_FILE.into(), &contents);
        let names: Vec<String> =
            event_kind_variants(&f).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 16, "{names:?}");
        assert!(names.contains(&"PushBatch".to_string()));
        assert!(names.contains(&"SnapshotDecode".to_string()));
        assert!(names.contains(&"BankBatch".to_string()));
        assert!(names.contains(&"ShardRestart".to_string()));
        assert!(names.contains(&"FaultInjected".to_string()));
        assert!(names.contains(&"ViewPublished".to_string()));
    }

    #[test]
    fn l7_event_variant_scan() {
        let f = SourceFile::parse(
            TRACE_FILE.into(),
            "pub enum EventKind {\n    PushBatch,\n    Flush,\n    Merge,\n}\n\
             pub struct Event { pub kind: EventKind }\n",
        );
        let names: Vec<String> =
            event_kind_variants(&f).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["PushBatch", "Flush", "Merge"]);
    }

    #[test]
    fn l8_flags_legacy_verbs_only_in_estimator_impls() {
        let ws = ws(&[(
            "crates/sketch/src/x.rs",
            "impl AggregateEstimator for Foo {\n\
                 fn ingest(&mut self, v: u64) {}\n\
                 fn push(&mut self, v: u64) { self.ingest(v) }\n\
             }\n\
             impl Ring {\n\
                 fn push(&mut self, v: u64) {}\n\
             }\n\
             impl Iterator for Foo {\n\
                 fn update(&mut self) {}\n\
             }\n",
        )]);
        let findings = run_lint(&LegacyIngestVerbs, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].snippet.contains("fn push"));
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn l8_flags_inherent_legacy_verbs_in_baseline() {
        let ws = ws(&[
            (
                "crates/baseline/src/table.rs",
                "impl Table {\n\
                     pub fn update(&mut self, i: u64, d: i64) {}\n\
                     pub fn h_index(&self) -> u64 { 0 }\n\
                 }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                     impl Helper { fn push(&mut self, v: u64) {} }\n\
                 }\n",
            ),
            // The same inherent verb outside baseline stays legal.
            (
                "crates/sketch/src/ring.rs",
                "impl Ring { pub fn push(&mut self, v: u64) {} }\n",
            ),
        ]);
        let findings = run_lint(&LegacyIngestVerbs, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].snippet.contains("fn update in baseline impl"));
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn l2_audits_estimator_impls_structurally() {
        let ws = ws(&[
            (
                "crates/sketch/src/x.rs",
                "impl AggregateEstimator for Good {}\n\
                 impl SpaceUsage for Good {}\n\
                 impl<T: Clone> CashRegisterEstimator for Bad<T> {}\n\
                 #[cfg(test)]\n\
                 mod tests { impl AggregateEstimator for TestOnly {} }\n",
            ),
            ("tests/space_contracts.rs", "fn t() { let _ = Good::default(); }\n"),
        ]);
        let findings = run_lint(&SpaceContract, &ws);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.message.contains("Bad")));
    }

    #[test]
    fn l9_reports_call_chain_for_reachable_panics() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "pub struct S { v: u64 }\n\
             impl S {\n\
               pub fn ingest(&mut self, x: u64) { self.step(x); }\n\
               fn step(&mut self, x: u64) { helper(x); }\n\
             }\n\
             fn helper(x: u64) { let _ = maybe(x).unwrap(); }\n\
             fn maybe(x: u64) -> Option<u64> { Some(x) }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { maybe(1).unwrap(); } }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("ingest -> step -> helper"),
            "{findings:?}"
        );
    }

    #[test]
    fn l9_unreachable_panic_is_still_flagged_without_chain() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "fn orphan() { panic!(\"boom\"); }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(!findings[0].message.contains("->"));
    }

    #[test]
    fn l9_flags_unguarded_indexing_in_reachable_fns_only() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "pub struct S { v: Vec<u64> }\n\
             impl S {\n\
               pub fn ingest(&mut self, i: usize) {\n\
                 let a = self.v[i];\n\
                 let b = self.v[i % self.v.len()];\n\
                 let c = self.v[3];\n\
                 let _ = (a, b, c);\n\
               }\n\
               pub fn unreached(&self, i: usize) -> u64 { self.v[i] }\n\
             }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("unguarded indexing"));
    }

    #[test]
    fn l9_assert_in_body_guards_the_index() {
        let ws = ws(&[(
            "crates/core/src/x.rs",
            "pub struct S { v: Vec<u64> }\n\
             impl S {\n\
               pub fn ingest(&mut self, i: usize) {\n\
                 debug_invariant!(i < self.v.len(), \"bound\");\n\
                 let _ = self.v[i];\n\
               }\n\
             }\n",
        )]);
        let findings = run_lint(&PanicReachability, &ws);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn l10_taints_field_api_locals_and_flags_raw_ops() {
        let ws = ws(&[(
            "crates/hashing/src/mix.rs",
            "pub fn mix(a: u64) -> u64 {\n\
               let x = from_u64(a);\n\
               let y = x * 3;\n\
               let safe = x.wrapping_mul(3);\n\
               let wide = u128::from(x) * 2;\n\
               let z = y ^ safe ^ (wide as u64);\n\
               z\n\
             }\n",
        )]);
        let findings = run_lint(&OverflowUnsafety, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("raw `*`"));
    }

    #[test]
    fn l10_flags_narrowing_casts_unless_proved() {
        let ws = ws(&[(
            "crates/core/src/c.rs",
            "pub struct S;\n\
             impl S {\n\
               pub fn ingest(&mut self, delta: u64) {\n\
                 let a = delta as i64;\n\
                 let b = delta.min(9) as i64;\n\
                 let _ = (a, b);\n\
               }\n\
             }\n",
        )]);
        let findings = run_lint(&OverflowUnsafety, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("narrowing cast"));
    }

    #[test]
    fn l10_is_scoped_to_hashing_and_core() {
        let ws = ws(&[(
            "crates/engine/src/x.rs",
            "pub fn ingest(v: u64) -> u64 { v + 1 }\n",
        )]);
        let findings = run_lint(&OverflowUnsafety, &ws);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn l11_requires_digest_snapshot_and_both_suites() {
        let ws = ws(&[
            (
                "crates/core/src/x.rs",
                "impl Mergeable for Covered { fn merge(&mut self, o: &Self) {} }\n\
                 impl Snapshot for Covered {}\n\
                 impl Covered {\n\
                   #[cfg(feature = \"debug_invariants\")]\n\
                   pub fn state_digest(&self) -> u64 { 0 }\n\
                 }\n\
                 impl Mergeable for Naked { fn merge(&mut self, o: &Self) {} }\n",
            ),
            (
                "tests/merge_semantics.rs",
                "fn t() { let _ = Covered::default(); }\n",
            ),
            (
                "tests/snapshot_roundtrip.rs",
                "fn t() { let _ = Covered::default(); }\n",
            ),
        ]);
        let findings = run_lint(&DigestSnapshotCoverage, &ws);
        assert_eq!(findings.len(), 4, "{findings:?}");
        assert!(
            findings.iter().all(|f| f.snippet.contains("Naked")),
            "{findings:?}"
        );
    }

    #[test]
    fn l12_checks_declaration_forwarding_and_gating() {
        let ws = ws(&[
            (
                "crates/core/Cargo.toml",
                "[package]\nname = \"hindex-core\"\n\n[features]\ndebug_invariants = []\n",
            ),
            (
                "crates/core/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 use hindex_common::debug_invariant;\n\
                 pub fn go() { debug_invariant!(true, \"x\"); }\n\
                 pub fn state_digest() -> u64 { 0 }\n",
            ),
            (
                "crates/common/Cargo.toml",
                "[package]\nname = \"hindex-common\"\n\n[features]\ndebug_invariants = []\n",
            ),
            ("crates/common/src/lib.rs", "#![forbid(unsafe_code)]\n"),
        ]);
        let findings = run_lint(&FeatureGateConsistency, &ws);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(
            findings.iter().any(|f| f.message.contains("does not forward")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.snippet.contains("ungated state_digest")),
            "{findings:?}"
        );
    }

    #[test]
    fn l12_usage_without_declaration_is_rule_a() {
        let ws = ws(&[
            (
                "crates/stream/Cargo.toml",
                "[package]\nname = \"hindex-stream\"\n",
            ),
            (
                "crates/stream/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn go() { debug_invariant!(true, \"x\"); }\n",
            ),
        ]);
        let findings = run_lint(&FeatureGateConsistency, &ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("declares no"));
        assert_eq!(findings[0].file, "crates/stream/Cargo.toml");
    }
}
