//! Workspace discovery: find the root `Cargo.toml`, enumerate member
//! crates, and collect each member's non-test Rust sources.
//!
//! The walker is deliberately minimal — it reads the `members = [...]`
//! array of the workspace manifest and each member's `name = "..."` line
//! rather than parsing TOML in general. That is all the audit needs, and
//! it keeps the crate dependency-free.

use std::path::{Path, PathBuf};

/// One workspace member selected for auditing.
#[derive(Debug, Clone)]
pub struct Crate {
    /// Package name from the member's `Cargo.toml` (e.g. `adawave-grid`).
    pub name: String,
    /// Member directory relative to the workspace root (e.g. `crates/grid`).
    pub rel_dir: PathBuf,
    /// The member's `.rs` sources under `src/`, relative to the workspace
    /// root, sorted for deterministic diagnostics. Integration tests
    /// (`tests/`), benches, and examples are intentionally excluded: the
    /// contracts the lints enforce are about shipped code, and test code
    /// uses `unwrap` legitimately.
    pub sources: Vec<PathBuf>,
}

/// Find the workspace root at or above `start`: the nearest ancestor whose
/// `Cargo.toml` contains a `[workspace]` section.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Enumerate the audited members of the workspace rooted at `root`.
///
/// Members under `vendor/` are skipped: they are offline stand-ins for
/// third-party crates and do not carry this repository's contracts.
/// The root package itself (the umbrella crate) is audited when the
/// workspace manifest also declares `[package]`.
pub fn members(root: &Path) -> Result<Vec<Crate>, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;

    let mut dirs: Vec<PathBuf> = member_dirs(&manifest)
        .into_iter()
        .filter(|d| !d.starts_with("vendor"))
        .collect();
    if manifest.lines().any(|l| l.trim() == "[package]") {
        dirs.push(PathBuf::from("."));
    }
    dirs.sort();
    dirs.dedup();

    let mut crates = Vec::with_capacity(dirs.len());
    for rel_dir in dirs {
        let member_manifest = root.join(&rel_dir).join("Cargo.toml");
        let text = std::fs::read_to_string(&member_manifest)
            .map_err(|e| format!("cannot read {}: {e}", member_manifest.display()))?;
        let name = package_name(&text)
            .ok_or_else(|| format!("no package name in {}", member_manifest.display()))?;
        let src_dir = root.join(&rel_dir).join("src");
        let mut sources = Vec::new();
        collect_rs(&src_dir, &mut sources)?;
        sources.sort();
        let sources = sources
            .into_iter()
            .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
            .collect();
        crates.push(Crate {
            name,
            rel_dir,
            sources,
        });
    }
    crates.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(crates)
}

/// The entries of the manifest's `members = [ ... ]` array.
fn member_dirs(manifest: &str) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if !in_members {
            if let Some(rest) = line.strip_prefix("members") {
                let rest = rest
                    .trim_start()
                    .strip_prefix('=')
                    .unwrap_or("")
                    .trim_start();
                if let Some(rest) = rest.strip_prefix('[') {
                    in_members = true;
                    push_quoted(rest, &mut dirs);
                    if rest.contains(']') {
                        break;
                    }
                }
            }
        } else {
            push_quoted(line, &mut dirs);
            if line.contains(']') {
                break;
            }
        }
    }
    dirs
}

/// Append every `"quoted"` path fragment of `line` to `dirs`.
fn push_quoted(line: &str, dirs: &mut Vec<PathBuf>) {
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        dirs.push(PathBuf::from(&rest[open + 1..open + 1 + close]));
        rest = &rest[open + 2 + close..];
    }
}

/// The first `name = "..."` in a member manifest.
fn package_name(manifest: &str) -> Option<String> {
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start().strip_prefix('=')?.trim();
            let rest = rest.strip_prefix('"')?;
            return rest.split('"').next().map(str::to_string);
        }
    }
    None
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        // A member without src/ (nothing to audit) is fine.
        Err(_) => return Ok(()),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot walk {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_array_parsing_handles_comments_and_inline_forms() {
        let manifest = r#"
[workspace]
members = [
    "crates/api",   # the API crate
    "crates/grid",
    "vendor/criterion",
]
"#;
        let dirs = member_dirs(manifest);
        assert_eq!(
            dirs,
            vec![
                PathBuf::from("crates/api"),
                PathBuf::from("crates/grid"),
                PathBuf::from("vendor/criterion")
            ]
        );
        let inline = member_dirs(r#"members = ["a", "b"]"#);
        assert_eq!(inline, vec![PathBuf::from("a"), PathBuf::from("b")]);
    }

    #[test]
    fn package_name_reads_the_first_name_line() {
        let text = "[package]\nname = \"adawave-audit\"\nversion = \"0.1.0\"\n";
        assert_eq!(package_name(text).as_deref(), Some("adawave-audit"));
        assert_eq!(package_name("[package]\n"), None);
    }

    #[test]
    fn live_workspace_discovery_finds_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("audit crate lives in a workspace");
        let crates = members(&root).expect("workspace members parse");
        assert!(crates.iter().any(|c| c.name == "adawave-audit"));
        assert!(crates.iter().any(|c| c.name == "adawave-grid"));
        // vendor stand-ins are excluded from the audit.
        assert!(!crates.iter().any(|c| c.name == "proptest"));
        // Every listed source exists and is a file under the root.
        for c in &crates {
            for s in &c.sources {
                assert!(root.join(s).is_file(), "{}", s.display());
            }
        }
    }
}
