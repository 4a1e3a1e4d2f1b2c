//! Public-API snapshot: the facade's root re-exports, pinned to a golden
//! file so accidental surface breaks (a dropped re-export, a renamed type,
//! a new export nobody reviewed) fail CI instead of shipping.
//!
//! The surface is extracted from the `pub use` items of `src/lib.rs` — the
//! facade root is re-exports only, so those lines *are* the API.  The crate
//! compiling at all proves every listed path resolves; this test proves the
//! set of paths is exactly the reviewed one.
//!
//! To intentionally change the surface, update `tests/api_surface.txt` in
//! the same commit (run with `UPDATE_API_SURFACE=1` to regenerate).

use std::fmt::Write as _;
use std::path::Path;

/// Extracts one normalized line per re-exported item from Rust source:
/// `pub use a::b::{C, D as E};` → `a::b::C` and `a::b::D as E`.
fn extract_re_exports(source: &str) -> Vec<String> {
    // Strip comments so commented-out exports don't count.
    let mut code = String::new();
    for line in source.lines() {
        let line = match line.find("//") {
            Some(idx) => &line[..idx],
            None => line,
        };
        code.push_str(line);
        code.push('\n');
    }

    let mut items = Vec::new();
    let mut rest = code.as_str();
    while let Some(start) = rest.find("pub use ") {
        let after = &rest[start + "pub use ".len()..];
        let end = after.find(';').expect("unterminated `pub use`");
        let decl: String = after[..end]
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        if let Some(brace) = decl.find('{') {
            let prefix = decl[..brace].trim_end_matches([':', ' ']);
            let inner = decl[brace + 1..]
                .trim_end()
                .trim_end_matches('}')
                .trim_end();
            for item in inner.split(',') {
                let item = item.trim();
                if !item.is_empty() {
                    items.push(format!("{prefix}::{item}"));
                }
            }
        } else {
            items.push(decl);
        }
        rest = &after[end + 1..];
    }
    items.sort();
    items
}

#[test]
fn facade_root_re_exports_match_the_golden_file() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(manifest.join("src/lib.rs")).expect("read src/lib.rs");
    let mut current = String::new();
    for item in extract_re_exports(&source) {
        let _ = writeln!(current, "{item}");
    }

    let golden_path = manifest.join("tests/api_surface.txt");
    if std::env::var_os("UPDATE_API_SURFACE").is_some() {
        std::fs::write(&golden_path, &current).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/api_surface.txt missing — run with UPDATE_API_SURFACE=1 to generate it");
    assert_eq!(
        current, golden,
        "\nthe facade's root re-exports changed.\n\
         If intentional, regenerate the snapshot:\n\
         \n    UPDATE_API_SURFACE=1 cargo test --test api_surface\n\
         \nand commit tests/api_surface.txt together with the API change."
    );
}

#[test]
fn extraction_handles_groups_aliases_and_comments() {
    let src = "
        // pub use hidden::Thing;
        pub use a::b::{C, D as E};
        pub use x as y;
        pub use p::q::R;
    ";
    let items = extract_re_exports(src);
    assert_eq!(items, vec!["a::b::C", "a::b::D as E", "p::q::R", "x as y"]);
}
