//! `qgp-lint`: the repo-wide invariant lint pass.
//!
//! A dependency-free source scanner (no `syn`, the build is offline) that
//! enforces the concurrency-hygiene contract the model checker
//! (`qgp-check`) relies on, and ratchets the library crates' size.  Run
//! from anywhere inside the workspace:
//!
//! ```text
//! cargo run -p qgp-lint            # scan, exit 1 on findings
//! cargo run -p qgp-lint -- --list  # print the rule catalogue
//! ```
//!
//! ## Rules
//!
//! | rule            | contract                                                    |
//! |-----------------|-------------------------------------------------------------|
//! | `thread-raw`    | no `std::thread::spawn` / `std::sync::atomic` outside the `qgp_runtime::sync` facade |
//! | `relaxed-doc`   | every `Ordering::Relaxed` carries a `// relaxed:` justification |
//! | `no-unwrap`     | no `.unwrap()` in non-test runtime/engine code              |
//! | `real-time`     | no `Instant::now` or `std::fs` in model-checked modules (use `sync::now`) |
//! | `forbid-unsafe` | every crate root declares `#![forbid(unsafe_code)]`         |
//! | `engine-lifetime` | no new lifetime-parameterized public types in `qgp_core::engine` (pin `Arc<GraphSnapshot>` instead) |
//! | `typed-error`   | no tuple variant with a bare `String` payload in a crate's `src/error.rs` |
//! | `line-ceiling`  | no library crate's non-test `src` lines above its entry in `LINE_COUNTS` plus 1 % |
//!
//! Test code (`#[cfg(test)]` modules and `tests/` trees) is exempt from
//! the per-line rules: tests may use raw primitives and `.unwrap()`
//! freely.  Doc comments and string literals are stripped before
//! matching, so documentation that *mentions* a forbidden pattern is
//! never a finding.  See `docs/ANALYSIS.md` for the full catalogue and
//! how to justify a `Relaxed`.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A single lint violation, printed `path:line: [rule] message`.
struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Crate roots that must declare `#![forbid(unsafe_code)]`, relative to
/// the workspace root.  `lib.rs` and `main.rs` are separate crate roots
/// even inside one package.
const CRATE_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/bench/src/main.rs",
    "crates/check/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/datasets/src/lib.rs",
    "crates/graph/src/lib.rs",
    "crates/lint/src/main.rs",
    "crates/parallel/src/lib.rs",
    "crates/rules/src/lib.rs",
    "crates/runtime/src/lib.rs",
    "crates/testkit/src/lib.rs",
];

/// Modules ported onto the `qgp_runtime::sync` facade and explored by the
/// model checker: wall-clock reads here would diverge from the virtual
/// clock, so they must go through `sync::now()`; a file read (such as a
/// per-thread CPU clock from `/proc`) diverges from the model the same way.
const MODEL_CHECKED: &[&str] = &[
    "crates/runtime/src/budget.rs",
    "crates/runtime/src/cancel.rs",
    "crates/runtime/src/deque.rs",
    "crates/runtime/src/executor.rs",
    "crates/runtime/src/faults.rs",
];

/// Files allowed to name raw `std::thread`/`std::sync::atomic` items: the
/// facade itself and the model checker that implements its model side.
fn facade_exempt(rel: &str) -> bool {
    rel == "crates/runtime/src/sync.rs"
        || rel.starts_with("crates/check/")
        || rel.starts_with("crates/lint/")
}

/// Scope of the `no-unwrap` rule: the executor stack and the prepared
/// query engine — the code whose failure modes are supposed to surface as
/// structured errors, not panics.
fn unwrap_scoped(rel: &str) -> bool {
    rel.starts_with("crates/runtime/src/") || rel.starts_with("crates/core/src/engine/")
}

/// The engine surface is lifetime-free by design — `Engine`,
/// `PreparedQuery`, `MatchView` and the registry own `Arc<GraphSnapshot>`
/// pins, which is what makes registered queries and cross-epoch serving
/// possible at all.  These are the grandfathered exceptions: the
/// options/execution-mode family borrows a `Runtime` and fragments.
const ENGINE_LIFETIME_ALLOWED: &[&str] = &["ExecOptions", "ExecMode"];

/// Is `rel` a crate's error module, where every variant carries typed data?
fn error_module(rel: &str) -> bool {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, path)| path == "src/error.rs")
}

/// Returns the name of a tuple variant declared on this (stripped) line
/// with a bare `String` among its fields: `Name(String)` or
/// `Name(usize, String)`.  A caller matching on such a variant can only
/// compare text.
fn string_payload_variant(code: &str) -> Option<String> {
    let code = code.trim_start();
    let name: String = code
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if !name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    let fields = code[name.len()..].strip_prefix('(')?;
    let fields = &fields[..fields.find(')')?];
    fields
        .split(',')
        .any(|field| field.trim() == "String")
        .then_some(name)
}

/// Returns the name of a lifetime-parameterized public type declared on
/// this (stripped) line of an engine module, unless allowlisted.
fn engine_lifetime_offender(code: &str) -> Option<String> {
    for kw in ["pub struct ", "pub enum ", "pub type ", "pub trait "] {
        let Some(pos) = code.find(kw) else { continue };
        let rest = &code[pos + kw.len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let after = rest[name.len()..].trim_start();
        if after.starts_with("<'") && !ENGINE_LIFETIME_ALLOWED.contains(&name.as_str()) {
            return Some(name);
        }
    }
    None
}

/// Non-test `src` lines of each library crate: per `.rs` file, the lines
/// before its first `#[cfg(test)]`, summed over the directory, after
/// `cargo fmt`.  A crate whose count exceeds its entry plus
/// [`LINE_SLACK_PERCENT`] is a `line-ceiling` finding.  A change that lowers
/// a count lowers its entry; raising one needs its own reason in
/// CHANGES.md.
const LINE_COUNTS: &[(&str, usize)] = &[
    ("crates/graph/src/", 2243),
    ("crates/core/src/", 4919),
    ("crates/parallel/src/", 761),
    ("crates/rules/src/", 785),
    ("crates/runtime/src/", 1210),
    ("crates/datasets/src/", 817),
    ("crates/check/src/", 1637),
    ("src/", 125),
];

/// Growth a crate may take over its [`LINE_COUNTS`] entry, in percent
/// (rounded up to whole lines).
const LINE_SLACK_PERCENT: usize = 1;

/// Lines of `source` before its first `#[cfg(test)]` line.
fn non_test_lines(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .count()
}

/// Adds `rel`'s non-test lines to the total of the `table` crate it
/// belongs to, if any.
fn count_lines(table: &[(&str, usize)], rel: &str, source: &str, totals: &mut [usize]) {
    if let Some(i) = table.iter().position(|(dir, _)| rel.starts_with(dir)) {
        totals[i] += non_test_lines(source);
    }
}

/// One finding per `table` crate whose total is above its ceiling.
fn check_line_ceilings(table: &[(&str, usize)], totals: &[usize], findings: &mut Vec<Finding>) {
    for (&(dir, count), &total) in table.iter().zip(totals) {
        let ceiling = count + (count * LINE_SLACK_PERCENT).div_ceil(100);
        if total > ceiling {
            findings.push(Finding {
                path: PathBuf::from(dir),
                line: 1,
                rule: "line-ceiling",
                message: format!(
                    "{total} non-test lines, over the ceiling of {ceiling} ({count} in \
                     LINE_COUNTS plus {LINE_SLACK_PERCENT} %); delete code or give the \
                     raise its own reason in CHANGES.md"
                ),
            });
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if let Some(flag) = args.next() {
        match flag.as_str() {
            "--list" => {
                print!("{RULE_CATALOGUE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("qgp-lint: unknown argument `{other}` (try --list)");
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(root) = workspace_root() else {
        eprintln!("qgp-lint: no workspace Cargo.toml found above the current directory");
        return ExitCode::FAILURE;
    };

    let mut findings = Vec::new();
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();

    let mut totals = vec![0; LINE_COUNTS.len()];
    for rel in &files {
        let path = root.join(rel);
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        scan_file(rel, &source, &mut findings);
        count_lines(LINE_COUNTS, rel, &source, &mut totals);
    }
    check_line_ceilings(LINE_COUNTS, &totals, &mut findings);

    for rel in CRATE_ROOTS {
        let path = root.join(rel);
        match fs::read_to_string(&path) {
            Ok(source) if source.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => findings.push(Finding {
                path: PathBuf::from(rel),
                line: 1,
                rule: "forbid-unsafe",
                message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
            }),
            Err(_) => findings.push(Finding {
                path: PathBuf::from(rel),
                line: 1,
                rule: "forbid-unsafe",
                message: "expected crate root not found (update CRATE_ROOTS in qgp-lint)".into(),
            }),
        }
    }

    if findings.is_empty() {
        println!("qgp-lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("qgp-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

const RULE_CATALOGUE: &str = "\
thread-raw     std::thread::spawn / std::sync::atomic outside qgp_runtime::sync
relaxed-doc    Ordering::Relaxed without a `// relaxed:` justification comment
no-unwrap      .unwrap() in non-test runtime/engine code
real-time      Instant::now or std::fs in a model-checked module (use sync::now())
forbid-unsafe  crate root missing #![forbid(unsafe_code)]
engine-lifetime  new lifetime-parameterized public type in qgp_core::engine
typed-error    tuple variant with a bare String payload in crates/*/src/error.rs
line-ceiling   library crate's non-test src lines above LINE_COUNTS plus 1 %
";

/// Walk up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collect workspace `.rs` files as root-relative slash paths,
/// skipping build output and VCS metadata.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Per-line view of a file after comment/string stripping.
struct Line<'a> {
    /// Code with comments and string/char literal contents blanked.
    code: String,
    /// The raw line, used only to look for justification comments.
    raw: &'a str,
    /// True when this line lies inside a `#[cfg(test)]` module.
    in_test: bool,
}

/// Split a source file into stripped lines and track `#[cfg(test)]`
/// module extents by brace depth.
fn prepare(source: &str) -> Vec<Line<'_>> {
    let stripped = strip(source);
    let mut lines = Vec::new();
    let mut depth: i32 = 0;
    // Depth at which each active #[cfg(test)] module was opened; lines are
    // test code while any is active.
    let mut test_depths: Vec<i32> = Vec::new();
    let mut pending_cfg_test = false;

    for (code, raw) in stripped.lines().zip(source.lines()) {
        let in_test_at_start = !test_depths.is_empty();
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        let opens_mod = code.contains("mod ") && code.contains('{');
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_cfg_test && opens_mod {
                        test_depths.push(depth);
                        pending_cfg_test = false;
                    }
                }
                '}' => {
                    if test_depths.last().is_some_and(|d| *d == depth) {
                        test_depths.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        lines.push(Line {
            code: code.to_string(),
            raw,
            in_test: in_test_at_start || !test_depths.is_empty(),
        });
    }
    lines
}

/// Blank out comments and the contents of string/char literals, keeping
/// line structure (newlines survive) so findings carry real line numbers.
fn strip(source: &str) -> String {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let mut out = String::with_capacity(source.len());
    let mut st = St::Code;
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push(' ');
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                }
                'r' if matches!(next, Some('"' | '#')) => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        out.push('"');
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote within a couple of chars ('x', '\n', '\'').
                    let is_char = matches!(
                        (bytes.get(i + 1), bytes.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        st = St::Char;
                    }
                    out.push('\'');
                    i += 1;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                if c == '\n' {
                    out.push('\n');
                    st = St::Code;
                }
                i += 1;
            }
            St::BlockComment(d) => {
                if c == '\n' {
                    out.push('\n');
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(d + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::BlockComment(d - 1)
                    };
                    i += 2;
                } else {
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    out.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    if c == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            St::RawStr(h) => {
                if c == '"' && bytes[i + 1..].iter().take_while(|&&b| b == '#').count() >= h {
                    out.push('"');
                    st = St::Code;
                    i += 1 + h;
                } else {
                    if c == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    out.push('\'');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    out
}

/// True when the `// relaxed:` justification for `lines[idx]` exists: on
/// the same raw line, or anywhere in the contiguous comment/attribute
/// block immediately above it.
fn relaxed_justified(lines: &[Line<'_>], idx: usize) -> bool {
    if lines[idx].raw.contains("// relaxed:") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = lines[j].raw.trim_start();
        if t.starts_with("//") || t.starts_with("#[") {
            if t.contains("// relaxed:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Apply the per-line rules to one file.
fn scan_file(rel: &str, source: &str, findings: &mut Vec<Finding>) {
    let is_test_tree = rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/");
    let lines = prepare(source);

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test || is_test_tree {
            continue;
        }
        let code = line.code.as_str();

        if !facade_exempt(rel)
            && (code.contains("std::thread::spawn") || code.contains("std::sync::atomic"))
        {
            findings.push(Finding {
                path: PathBuf::from(rel),
                line: lineno,
                rule: "thread-raw",
                message: "raw std thread/atomic primitive; go through qgp_runtime::sync".into(),
            });
        }

        if !facade_exempt(rel)
            && code.contains("Ordering::Relaxed")
            && !relaxed_justified(&lines, idx)
        {
            findings.push(Finding {
                path: PathBuf::from(rel),
                line: lineno,
                rule: "relaxed-doc",
                message: "Ordering::Relaxed without a `// relaxed:` justification".into(),
            });
        }

        if unwrap_scoped(rel) && code.contains(".unwrap()") {
            findings.push(Finding {
                path: PathBuf::from(rel),
                line: lineno,
                rule: "no-unwrap",
                message: "unwrap in runtime/engine code; surface a structured error".into(),
            });
        }

        if rel.starts_with("crates/core/src/engine/") {
            if let Some(name) = engine_lifetime_offender(code) {
                findings.push(Finding {
                    path: PathBuf::from(rel),
                    line: lineno,
                    rule: "engine-lifetime",
                    message: format!(
                        "lifetime-parameterized public type `{name}` on the engine \
                         surface; pin an Arc<GraphSnapshot> instead (grandfathered: \
                         ExecOptions/ExecMode)"
                    ),
                });
            }
        }

        if error_module(rel) {
            if let Some(name) = string_payload_variant(code) {
                findings.push(Finding {
                    path: PathBuf::from(rel),
                    line: lineno,
                    rule: "typed-error",
                    message: format!(
                        "error variant `{name}` carries a bare String; hold the typed \
                         error or value it describes"
                    ),
                });
            }
        }

        if MODEL_CHECKED.contains(&rel) {
            for (pattern, what) in [
                ("Instant::now", "wall-clock read"),
                ("std::fs", "file access"),
            ] {
                if code.contains(pattern) {
                    findings.push(Finding {
                        path: PathBuf::from(rel),
                        line: lineno,
                        rule: "real-time",
                        message: format!("{what} in a model-checked module; use sync::now()"),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<String> {
        let mut f = Vec::new();
        scan_file(rel, src, &mut f);
        f.iter().map(|x| x.rule.to_string()).collect()
    }

    #[test]
    fn strip_removes_comments_and_string_contents() {
        let s = strip("let a = \"std::sync::atomic\"; // std::thread::spawn\nlet b = 1;");
        assert!(!s.contains("atomic"));
        assert!(!s.contains("spawn"));
        assert!(s.contains("let b = 1;"));
        assert_eq!(s.lines().count(), 2, "line structure survives");
    }

    #[test]
    fn strip_handles_raw_strings_and_chars() {
        let s = strip("let r = r#\"Ordering::Relaxed\"#; let c = '\"'; let x = 2;");
        assert!(!s.contains("Relaxed"));
        assert!(s.contains("let x = 2;"));
    }

    #[test]
    fn raw_atomic_import_is_flagged_outside_the_facade() {
        assert_eq!(
            scan(
                "crates/core/src/x.rs",
                "use std::sync::atomic::AtomicU64;\n"
            ),
            vec!["thread-raw"]
        );
        assert!(scan(
            "crates/runtime/src/sync.rs",
            "use std::sync::atomic::AtomicU64;\n"
        )
        .is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicBool;\n    fn g(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(scan("crates/runtime/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_requires_justification() {
        let bad = "fn f() { a.load(Ordering::Relaxed); }\n";
        assert_eq!(scan("crates/core/src/x.rs", bad), vec!["relaxed-doc"]);
        let same_line = "fn f() { a.load(Ordering::Relaxed); } // relaxed: stats only\n";
        assert!(scan("crates/core/src/x.rs", same_line).is_empty());
        let above =
            "// relaxed: counter publishes\n// nothing by itself.\na.load(Ordering::Relaxed);\n";
        assert!(scan("crates/core/src/x.rs", above).is_empty());
    }

    #[test]
    fn unwrap_scope_is_runtime_and_engine_only() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
        assert_eq!(scan("crates/runtime/src/x.rs", src), vec!["no-unwrap"]);
        assert_eq!(scan("crates/core/src/engine/x.rs", src), vec!["no-unwrap"]);
        assert!(scan("crates/graph/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_is_flagged_in_model_checked_modules_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(scan("crates/runtime/src/budget.rs", src), vec!["real-time"]);
        assert!(scan("crates/runtime/src/sync.rs", src).is_empty());
        assert!(scan("crates/core/src/engine/exec.rs", src).is_empty());
    }

    #[test]
    fn file_reads_are_flagged_in_model_checked_modules_only() {
        for src in [
            "fn f() { let s = std::fs::read_to_string(\"/proc/x\"); }\n",
            "use std::fs;\n",
        ] {
            assert_eq!(
                scan("crates/runtime/src/executor.rs", src),
                vec!["real-time"]
            );
            assert!(scan("crates/runtime/src/sync.rs", src).is_empty());
        }
    }

    #[test]
    fn engine_lifetimes_are_flagged_outside_the_allowlist() {
        let bad = "pub struct Session<'g> {\n    graph: &'g Graph,\n}\n";
        assert_eq!(
            scan("crates/core/src/engine/x.rs", bad),
            vec!["engine-lifetime"]
        );
        // A `MatchView` owns its snapshot; it must not grow a borrow back.
        assert_eq!(
            scan(
                "crates/core/src/engine/x.rs",
                "pub struct MatchView<'q> {\n"
            ),
            vec!["engine-lifetime"]
        );
        // An execution names its executor as a `&Runtime`; a separate
        // placement enum must not come back.
        assert_eq!(
            scan(
                "crates/core/src/engine/x.rs",
                "pub enum Parallelism<'a> {\n"
            ),
            vec!["engine-lifetime"]
        );
        // The same declaration outside the engine surface is fine.
        assert!(scan("crates/core/src/matching/x.rs", bad).is_empty());
        // Grandfathered types and lifetime-free types are clean.
        for ok in [
            "pub enum ExecMode<'a> {\n",
            "pub struct ExecOptions<'a> {\n",
            "pub struct Engine {\n",
            "pub(crate) struct SessionEntry<'g> {\n",
        ] {
            assert!(
                scan("crates/core/src/engine/x.rs", ok).is_empty(),
                "{ok} must not be flagged"
            );
        }
    }

    #[test]
    fn string_payloads_are_flagged_in_error_modules_only() {
        for bad in [
            "    Parallel(String),\n",
            "    InvalidPattern(String),\n",
            "    Io(usize, String),\n",
        ] {
            assert_eq!(scan("crates/rules/src/error.rs", bad), vec!["typed-error"]);
        }
        for ok in [
            "    Match(MatchError),\n",
            "    InvalidConfidenceThreshold(f64),\n",
            "    FocusLabelMismatch {\n        antecedent: String,\n    },\n",
            "    Name(Vec<String>),\n",
            "    fn label(s: String) {}\n",
            "    /// Was `Parallel(String)` once.\n",
        ] {
            assert!(
                scan("crates/rules/src/error.rs", ok).is_empty(),
                "{ok} must not be flagged"
            );
        }
        // Outside a crate's error module the rule does not apply.
        assert!(scan("crates/rules/src/rule.rs", "    Parallel(String),\n").is_empty());
        assert!(scan("crates/rules/tests/error.rs", "    Parallel(String),\n").is_empty());
    }

    #[test]
    fn line_ceilings_allow_the_slack_and_not_one_line_more() {
        let table = [("crates/x/src/", 200), ("src/", 50)];
        let file = |lines: usize| "fn f() {}\n".repeat(lines);
        let tests = "#[cfg(test)]\nmod tests {\n    fn g() {}\n}\n";
        let ceiling_findings = |sources: &[(&str, String)]| {
            let mut totals = vec![0; table.len()];
            for (rel, source) in sources {
                count_lines(&table, rel, source, &mut totals);
            }
            let mut findings = Vec::new();
            check_line_ceilings(&table, &totals, &mut findings);
            (findings.iter())
                .map(|f| format!("{} {}", f.rule, f.path.display()))
                .collect::<Vec<_>>()
        };
        // 200 + 1 % = 202 lines, split over two files; tests do not count,
        // and neither does a file outside every listed crate.
        let at_ceiling = [
            ("crates/x/src/a.rs", file(150) + tests),
            ("crates/x/src/b/c.rs", file(52)),
            ("src/lib.rs", file(51)),
            ("crates/y/src/lib.rs", file(999)),
        ];
        assert!(ceiling_findings(&at_ceiling).is_empty());
        let one_over = [
            ("crates/x/src/a.rs", file(151) + tests),
            ("crates/x/src/b/c.rs", file(52)),
            ("src/lib.rs", file(52)),
        ];
        assert_eq!(
            ceiling_findings(&one_over),
            ["line-ceiling crates/x/src/", "line-ceiling src/"]
        );
        assert_eq!(non_test_lines(&(file(3) + tests + &file(4))), 3);
    }

    #[test]
    fn doc_comments_mentioning_patterns_are_clean() {
        let src = "//! Talks about std::sync::atomic and Instant::now and .unwrap().\nfn f() {}\n";
        assert!(scan("crates/runtime/src/budget.rs", src).is_empty());
    }
}
