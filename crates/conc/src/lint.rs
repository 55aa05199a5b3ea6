//! # `lint-atomics` — the memory-ordering contract scanner
//!
//! A hand-rolled, zero-dependency static lint (in the spirit of the
//! workspace's other vendored tooling) that enforces the concurrency
//! contract documented in `DESIGN.md` §3.14 across every `.rs` file in
//! the repository:
//!
//! 1. **Orderings are justified.** Every non-`Relaxed` memory ordering
//!    must carry an `// ORD:` comment on the same line or within the
//!    three lines above it, explaining what the ordering synchronizes
//!    with.
//! 2. **Unsafe is justified.** Every occurrence of the unsafe keyword
//!    must carry a `// SAFETY:` comment in the same window.
//! 3. **Fence/store pairs are explicit.** In a file that contains a
//!    memory fence, a `Relaxed` store is part of a fence-based protocol
//!    (e.g. the trace seqlock) and is easy to break by "simplifying" the
//!    ordering — such stores must be `// ORD:`-annotated too.
//! 4. **Atomics stay where they are audited.** Atomic types may only
//!    appear in the whitelisted modules below; introducing an atomic in
//!    a new module fails CI until the module is added here (which is the
//!    code-review hook: the reviewer sees the whitelist diff).
//! 5. **Hot paths use the model-checked facade.** The lock-free hot-path
//!    files (metrics counter/histogram, trace recorder, flow gate) must
//!    import their sync primitives from `rjms_conc::sync`, never from
//!    `std::sync` directly, so the loom models exercise the same code.
//!
//! The scanner is deliberately line-based: it strips line comments
//! before matching (so prose about atomics never triggers it) and skips
//! `shims/` entirely — the shims vendor API-compatible stand-ins for
//! external crates and are out of contract scope, exactly as a
//! crates.io dependency would be. The trade-off is that a token split
//! across lines by a formatter is invisible to it; `rustfmt` never
//! splits a path token, so this does not arise in practice.
//!
//! All trigger tokens in this file are assembled with `concat!` from
//! fragments, so the scanner's own source never contains the byte
//! sequences it searches for and can be scanned like any other file.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Non-`Relaxed` orderings that require an `// ORD:` justification.
const NON_RELAXED: [&str; 4] = [
    concat!("Ordering::", "Acquire"),
    concat!("Ordering::", "Release"),
    concat!("Ordering::", "AcqRel"),
    concat!("Ordering::", "SeqCst"),
];

/// The one ordering that needs no justification outside fence protocols.
const RELAXED: &str = concat!("Ordering::", "Relaxed");

/// Marker comment acknowledging a deliberate memory ordering.
const ORD_MARK: &str = "ORD:";

/// Marker comment justifying an unsafe operation.
const SAFETY_MARK: &str = "SAFETY:";

/// The unsafe keyword, assembled so this file never contains it whole.
const UNSAFE_KW: &str = concat!("un", "safe");

/// A memory-fence call site.
const FENCE_CALL: &str = concat!("fen", "ce(");

/// An atomic store call site.
const STORE_CALL: &str = concat!(".st", "ore(");

/// Substring identifying an atomic type name.
const ATOMIC_TYPE: &str = concat!("Atom", "ic");

/// Substring identifying an atomic module path (std or facade).
const ATOMIC_PATH: &str = concat!("sync::", "atomic");

/// Direct std atomic path, forbidden in facade-required files.
const STD_ATOMIC_PATH: &str = concat!("std::sync", "::atomic");

/// Files allowed to mention atomic types or atomic module paths.
///
/// Adding an atomic anywhere else fails CI until the file is listed
/// here — that diff is the review hook for new lock-free code.
const ALLOWED_ATOMICS: [&str; 25] = [
    "crates/bench/src/bin/ablation_filter_identity.rs",
    "crates/broker/src/broker.rs",
    "crates/broker/src/dispatch.rs",
    "crates/broker/src/message.rs",
    "crates/broker/src/reports.rs",
    "crates/broker/src/stats.rs",
    "crates/broker/src/subscriptions.rs",
    "crates/broker/tests/robustness.rs",
    "crates/conc/src/lib.rs",
    "crates/flow/src/gate.rs",
    "crates/flow/tests/loom.rs",
    "crates/journal/src/lib.rs",
    "crates/metrics/src/counter.rs",
    "crates/metrics/src/histogram.rs",
    "crates/metrics/tests/loom.rs",
    "crates/metrics/tests/stress_minmax.rs",
    "crates/net/src/client.rs",
    "crates/net/src/server.rs",
    "crates/obs/src/engine.rs",
    "crates/trace/src/recorder.rs",
    "crates/trace/tests/loom.rs",
    "examples/broker_saturation.rs",
    "examples/networked_measurement.rs",
    "src/http.rs",
    "tests/end_to_end.rs",
];

/// Files that must import sync primitives through `rjms_conc::sync`
/// (the loom-switchable facade) rather than `std::sync` directly.
const FACADE_REQUIRED: [&str; 4] = [
    "crates/flow/src/gate.rs",
    "crates/metrics/src/counter.rs",
    "crates/metrics/src/histogram.rs",
    "crates/trace/src/recorder.rs",
];

/// Directories never scanned (vendored shims, build output, VCS).
const SKIP_DIRS: [&str; 3] = ["shims", "target", ".git"];

/// How many lines above a site an annotation comment may sit.
const ANNOTATION_WINDOW: usize = 3;

/// One contract violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Short rule identifier, e.g. `ordering-unjustified`.
    pub rule: &'static str,
    /// Human-readable description of what to fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Result of scanning a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations found, in path order.
    pub violations: Vec<Violation>,
}

/// The code portion of a line: empty for comment-only lines, otherwise
/// the text before the first line-comment marker. Annotations live in
/// the comment part and are looked up on the raw line instead.
fn code_part(line: &str) -> &str {
    let trimmed = line.trim_start();
    if trimmed.starts_with("//") {
        return "";
    }
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// True if `lines[idx]` or any of the `ANNOTATION_WINDOW` lines above it
/// contains the marker comment.
fn has_annotation(lines: &[&str], idx: usize, mark: &str) -> bool {
    let start = idx.saturating_sub(ANNOTATION_WINDOW);
    lines[start..=idx].iter().any(|l| l.contains(mark))
}

/// True if the unsafe keyword occurs in `code` as a standalone word
/// (not as part of an identifier like the lint-name tokens, and not
/// directly inside a string literal boundary).
fn contains_unsafe_keyword(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(UNSAFE_KW) {
        let at = from + rel;
        let end = at + UNSAFE_KW.len();
        let prev_ok = at == 0 || {
            let c = bytes[at - 1];
            !(c.is_ascii_alphanumeric() || c == b'_' || c == b'"')
        };
        let next_ok = end >= bytes.len() || {
            let c = bytes[end];
            !(c.is_ascii_alphanumeric() || c == b'_' || c == b'"')
        };
        if prev_ok && next_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Scans one file's contents against the full rule set.
///
/// `rel` is the workspace-relative path with forward slashes; it drives
/// the whitelist rules. Returns violations in line order.
pub fn scan_file(rel: &str, content: &str) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    let mut out = Vec::new();
    let allowed_atomics = ALLOWED_ATOMICS.contains(&rel);
    let facade_required = FACADE_REQUIRED.contains(&rel);
    let file_has_fence = lines.iter().any(|l| code_part(l).contains(FENCE_CALL));
    let mut atomics_reported = false;

    for (idx, raw) in lines.iter().enumerate() {
        let code = code_part(raw);
        if code.is_empty() {
            continue;
        }
        let line_no = idx + 1;

        // Rule 1: non-Relaxed orderings need an ORD: justification.
        for needle in NON_RELAXED {
            if code.contains(needle) && !has_annotation(&lines, idx, ORD_MARK) {
                out.push(Violation {
                    file: rel.to_string(),
                    line: line_no,
                    rule: "ordering-unjustified",
                    message: format!(
                        "{needle} without an `{ORD_MARK}` comment on this line or \
                         within {ANNOTATION_WINDOW} lines above"
                    ),
                });
            }
        }

        // Rule 2: the unsafe keyword needs a SAFETY: justification.
        if contains_unsafe_keyword(code) && !has_annotation(&lines, idx, SAFETY_MARK) {
            out.push(Violation {
                file: rel.to_string(),
                line: line_no,
                rule: "unsafe-unjustified",
                message: format!(
                    "unsafe operation without a `{SAFETY_MARK}` comment on this line \
                     or within {ANNOTATION_WINDOW} lines above"
                ),
            });
        }

        // Rule 3: in fence-carrying files, Relaxed stores are part of a
        // fence protocol and must be explicitly acknowledged.
        if file_has_fence
            && code.contains(STORE_CALL)
            && code.contains(RELAXED)
            && !has_annotation(&lines, idx, ORD_MARK)
        {
            out.push(Violation {
                file: rel.to_string(),
                line: line_no,
                rule: "relaxed-store-near-fence",
                message: format!(
                    "Relaxed store in a fence-carrying file without an `{ORD_MARK}` \
                     comment; fence protocols break silently when store orderings drift"
                ),
            });
        }

        // Rule 4: atomics only in whitelisted modules (one report per file).
        if !allowed_atomics
            && !atomics_reported
            && (code.contains(ATOMIC_TYPE) || code.contains(ATOMIC_PATH))
        {
            atomics_reported = true;
            out.push(Violation {
                file: rel.to_string(),
                line: line_no,
                rule: "atomic-outside-whitelist",
                message: String::from(
                    "atomic primitive in a module not whitelisted in \
                     crates/conc/src/lint.rs; add the file to ALLOWED_ATOMICS \
                     to put the new lock-free code under review",
                ),
            });
        }

        // Rule 5: facade-required hot paths must not bypass rjms_conc.
        if facade_required && code.contains(STD_ATOMIC_PATH) {
            out.push(Violation {
                file: rel.to_string(),
                line: line_no,
                rule: "std-atomic-in-facade-file",
                message: String::from(
                    "direct std atomic import in a loom-modelled hot path; \
                     import through rjms_conc::sync so models cover this code",
                ),
            });
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`, skipping `SKIP_DIRS`
/// at any depth.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let content = fs::read_to_string(&path)?;
        report.files_scanned += 1;
        report.violations.extend(scan_file(&rel, &content));
    }
    Ok(report)
}

/// The workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordering(variant: &str) -> String {
        format!("{}{}", concat!("Ordering", "::"), variant)
    }

    #[test]
    fn unjustified_acquire_is_flagged_and_ord_comment_clears_it() {
        let bad = format!("        let s1 = seq.load({});\n", ordering("Acquire"));
        let v = scan_file("crates/trace/src/recorder.rs", &bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ordering-unjustified");
        assert_eq!(v[0].line, 1);

        let good = format!(
            "        // {} pairs with the writer's final release store\n        let s1 = seq.load({});\n",
            ORD_MARK,
            ordering("Acquire")
        );
        assert!(scan_file("crates/trace/src/recorder.rs", &good).is_empty());
    }

    #[test]
    fn annotation_window_is_three_lines() {
        let too_far =
            format!("// {} far away\n\n\n\nlet x = a.load({});\n", ORD_MARK, ordering("SeqCst"));
        let v = scan_file("crates/net/src/server.rs", &too_far);
        assert_eq!(v.len(), 1, "{v:?}");

        let in_range =
            format!("// {} close enough\n\n\nlet x = a.load({});\n", ORD_MARK, ordering("SeqCst"));
        assert!(scan_file("crates/net/src/server.rs", &in_range).is_empty());
    }

    #[test]
    fn relaxed_alone_is_not_flagged() {
        let content = format!("counter.fetch_add(1, {});\n", ordering("Relaxed"));
        assert!(scan_file("crates/metrics/src/counter.rs", &content).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let kw = String::from(UNSAFE_KW);
        let bad = format!("    {kw} {{ core::arch::x86_64::_rdtsc() }}\n");
        let v = scan_file("crates/metrics/src/clock.rs", &bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsafe-unjustified");

        let good = format!(
            "    // {}: rdtsc has no side effects\n    {kw} {{ core::arch::x86_64::_rdtsc() }}\n",
            SAFETY_MARK
        );
        assert!(scan_file("crates/metrics/src/clock.rs", &good).is_empty());
    }

    #[test]
    fn unsafe_inside_identifiers_and_comments_is_ignored() {
        let kw = String::from(UNSAFE_KW);
        // Lint-name identifiers and prose must not trip the keyword rule.
        let content = format!(
            "#![deny({kw}_op_in_{kw}_fn)]\n// the {kw} keyword is discussed here\nlet {kw}_sites = 0;\n"
        );
        assert!(scan_file("crates/core/src/lib.rs", &content).is_empty());
    }

    #[test]
    fn relaxed_store_near_fence_requires_annotation() {
        let fence = String::from(FENCE_CALL);
        let bad = format!(
            "{}::{}{});\nslot{}x, {});\n",
            STD_ATOMIC_PATH,
            fence,
            ordering("Release"),
            STORE_CALL,
            ordering("Relaxed"),
        );
        let v = scan_file("crates/trace/src/recorder.rs", &bad);
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"relaxed-store-near-fence"), "missing fence rule in {rules:?}");
    }

    #[test]
    fn atomics_outside_whitelist_are_flagged_once() {
        let ty = format!("{}U64", ATOMIC_TYPE);
        let content = format!("static A: {ty} = {ty}::new(0);\nstatic B: {ty} = {ty}::new(0);\n");
        let v = scan_file("crates/queueing/src/lib.rs", &content);
        assert_eq!(v.len(), 1, "one report per file, got {v:?}");
        assert_eq!(v[0].rule, "atomic-outside-whitelist");

        assert!(scan_file("crates/metrics/src/counter.rs", &content).is_empty());
    }

    #[test]
    fn facade_files_must_not_import_std_atomics() {
        let path = String::from(STD_ATOMIC_PATH);
        let content = format!("use {path}::{}U64;\n", ATOMIC_TYPE);
        let v = scan_file("crates/metrics/src/histogram.rs", &content);
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"std-atomic-in-facade-file"), "missing facade rule in {rules:?}");
        // The facade import path is fine.
        let facade = format!("use rjms_conc::{}::{}U64;\n", ATOMIC_PATH, ATOMIC_TYPE);
        assert!(scan_file("crates/metrics/src/histogram.rs", &facade).is_empty());
    }

    /// The real gate: the workspace as checked in must be contract-clean.
    /// This runs in the default `cargo test` pass, so a violation fails
    /// locally long before the dedicated CI job sees it.
    #[test]
    fn workspace_is_lint_clean() {
        let report = scan_workspace(&workspace_root()).expect("scan workspace");
        assert!(
            report.files_scanned > 50,
            "suspiciously few files scanned: {}",
            report.files_scanned
        );
        let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        assert!(
            report.violations.is_empty(),
            "memory-ordering contract violations:\n{}",
            rendered.join("\n")
        );
    }
}
