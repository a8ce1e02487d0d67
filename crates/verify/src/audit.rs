//! Pass 3 — unsafe-kernel source audit.
//!
//! The SIMD kernels (`dsi-kernels::{blocked,fused,simd}`) earn their speed
//! with `unsafe`: raw pointer arithmetic, `get_unchecked`, and
//! `#[target_feature]` intrinsics. The audit enforces the workspace's
//! hygiene contract *textually*, so it catches new unsafe code the moment
//! it is written, before review:
//!
//! * every `unsafe {` block must carry a `// SAFETY:` comment on the same
//!   line or within the few lines directly above it;
//! * every `unsafe fn` must document its preconditions with a `# Safety`
//!   section in its doc comment.
//!
//! This is a lint over source text, not a soundness proof — the proof
//! obligations live in the `// SAFETY:` comments themselves and in the
//! `debug_assert!` contracts the kernels check at their boundaries. The
//! compiler side of the contract is `#![deny(unsafe_op_in_unsafe_fn)]` in
//! `dsi-kernels`, which forces every unsafe operation into an explicit
//! block this audit can see.

use crate::{Diagnostic, Pass};

/// How many lines above an `unsafe {` token a `// SAFETY:` comment may sit.
const SAFETY_LOOKBACK: usize = 4;

/// Strip line comments and string literals from one source line, returning
/// `(code, had_safety_comment, had_safety_doc)`.
///
/// String stripping is line-local (the kernels contain no multi-line string
/// literals) and keeps the audit dependency-free — this is a lint, not a
/// parser.
fn classify_line(line: &str) -> (String, bool, bool) {
    let trimmed = line.trim_start();
    let is_doc = trimmed.starts_with("///") || trimmed.starts_with("//!");
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            if c == '\\' {
                chars.next();
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '/' if chars.peek() == Some(&'/') => {
                comment = chars.collect();
                break;
            }
            _ => code.push(c),
        }
    }
    let has_safety_comment = comment.trim_start().trim_start_matches('/').trim_start().starts_with("SAFETY");
    let has_safety_doc = is_doc && line.contains("# Safety");
    (code, has_safety_comment, has_safety_doc)
}

/// Audit one source file. `path` is used only for diagnostic provenance.
pub fn scan_unsafe(path: &str, text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let classified: Vec<(String, bool, bool)> = lines.iter().map(|l| classify_line(l)).collect();

    for (i, (code, _, _)) in classified.iter().enumerate() {
        let mut rest = code.as_str();
        while let Some(pos) = rest.find("unsafe") {
            // Token boundary: reject identifiers like `not_unsafe`.
            let before_ok = pos == 0
                || !rest[..pos].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = &rest[pos + "unsafe".len()..];
            let after_ok = !after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !(before_ok && after_ok) {
                rest = &rest[pos + "unsafe".len()..];
                continue;
            }
            let tail = after.trim_start();
            if tail.starts_with("fn") {
                // `unsafe fn` — look upward through the contiguous doc/attr
                // block for a `# Safety` section.
                let mut j = i;
                let mut documented = false;
                while j > 0 {
                    j -= 1;
                    let raw = lines[j].trim_start();
                    let is_attached = raw.starts_with("///")
                        || raw.starts_with("//!")
                        || raw.starts_with("#[")
                        || raw.starts_with("//");
                    if !is_attached {
                        break;
                    }
                    if classified[j].2 {
                        documented = true;
                        break;
                    }
                }
                if !documented {
                    diags.push(Diagnostic::new(
                        Pass::Audit,
                        "missing-safety-doc",
                        format!("{path}:{}", i + 1),
                        "`unsafe fn` without a `# Safety` doc section stating its preconditions",
                    ));
                }
            } else if tail.starts_with('{') || tail.is_empty() {
                // `unsafe {` block (brace possibly on the next line) — look
                // for `// SAFETY:` on this line or just above.
                let lo = i.saturating_sub(SAFETY_LOOKBACK);
                let commented = (lo..=i).any(|j| classified[j].1);
                if !commented {
                    diags.push(Diagnostic::new(
                        Pass::Audit,
                        "missing-safety-comment",
                        format!("{path}:{}", i + 1),
                        "`unsafe` block without a `// SAFETY:` comment justifying it",
                    ));
                }
            }
            // `unsafe impl` / `unsafe trait` are not used in this workspace;
            // if they appear they are neither block nor fn and pass through.
            rest = after;
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commented_block_passes() {
        let src = r#"
fn f(x: &[f32]) -> f32 {
    // SAFETY: idx is bounds-checked by the caller contract above.
    unsafe { *x.get_unchecked(0) }
}
"#;
        assert!(scan_unsafe("a.rs", src).is_empty());
    }

    #[test]
    fn uncommented_block_flagged_with_line() {
        let src = "fn f(x: &[f32]) -> f32 {\n    unsafe { *x.get_unchecked(0) }\n}\n";
        let d = scan_unsafe("k.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "missing-safety-comment");
        assert_eq!(d[0].site, "k.rs:2");
    }

    #[test]
    fn safety_comment_too_far_away_flagged() {
        let mut src = String::from("// SAFETY: stale justification.\n");
        for _ in 0..6 {
            src.push_str("let x = 1;\n");
        }
        src.push_str("unsafe { core::hint::unreachable_unchecked() }\n");
        let d = scan_unsafe("k.rs", &src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn documented_unsafe_fn_passes() {
        let src = r#"
/// Does a thing.
///
/// # Safety
/// `p` must be valid for reads of `n` floats.
#[inline]
unsafe fn load(p: *const f32, n: usize) {}
"#;
        assert!(scan_unsafe("a.rs", src).is_empty());
    }

    #[test]
    fn undocumented_unsafe_fn_flagged() {
        let src = "unsafe fn oops(p: *const f32) {}\n";
        let d = scan_unsafe("k.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "missing-safety-doc");
    }

    #[test]
    fn unsafe_inside_comment_or_string_ignored() {
        let src = "// this mentions unsafe { } in prose\nlet s = \"unsafe { }\";\n";
        assert!(scan_unsafe("a.rs", src).is_empty());
    }

    #[test]
    fn identifier_containing_unsafe_ignored() {
        let src = "fn not_unsafe_fn() { let my_unsafe_flag = true; }\n";
        assert!(scan_unsafe("a.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_on_same_line_passes() {
        let src = "let v = unsafe { f() }; // SAFETY: f has no preconditions.\n";
        assert!(scan_unsafe("a.rs", src).is_empty());
    }
}
