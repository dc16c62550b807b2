//! # hfqo-lint
//!
//! In-repo workspace lint enforcing the concurrency-correctness rules
//! that `hfqo_sync` and the PR 6 determinism contract rely on, and
//! keeping every crate's `pub` surface to what other code uses. Pure
//! std — the container is offline, so no `syn`; scanning is
//! line/token-level over a string-literal- and comment-aware stripped
//! view of each source file.
//!
//! Rules:
//!
//! * **L1** — no `std::sync::{Mutex, RwLock, Condvar}` (or their guard
//!   types) outside `crates/sync`. Everything else must go through the
//!   instrumented `hfqo_sync` wrappers so debug builds get lock-order
//!   checking and unified poison handling. Not allowlistable.
//! * **L2** — no `Instant::now` / `SystemTime` in deterministic paths.
//!   `ExecStats.work` and replayed rewards must never depend on the
//!   host; wall-clock is allowlisted only at bench / serving-latency /
//!   loader sites, each with a justification.
//! * **L3** — every atomic `Ordering::` stronger than `Relaxed`
//!   (`Acquire`, `Release`, `AcqRel`, `SeqCst`) carries a
//!   `// ordering:` justification comment on the same line or in the
//!   contiguous comment block immediately above. Allowlistable
//!   per-file, but annotation is the norm.
//! * **L4** — no `thread::sleep` in tests (flake source: sleeps encode
//!   a hoped-for interleaving instead of forcing one). Not
//!   allowlistable.
//! * **L5** — no `.unwrap()` on lock/channel results in non-test
//!   library code (panic messages without context; locks must use the
//!   site-labelled `hfqo_sync` path, channels an `expect` that names
//!   the protocol). Not allowlistable.
//! * **L7** — no `pub fn`, `pub const` or `pub static` in non-test
//!   library code (`crates/*/src`, binaries excluded) whose name no file
//!   outside that crate's library sources names: rustc's `dead_code`
//!   lint is silent about `pub` items, so an item only its own crate
//!   uses must be `pub(crate)`, where rustc sees whether anything uses
//!   it at all. "Outside" is every other scanned file: the other
//!   crates, the crate's own `tests/` and binaries, the root package's
//!   `src/`, `tests/` and `examples/`, and `perfbench/`. A `pub use`
//!   re-export, on one line or several, names nothing: rustc never
//!   reports one unused, so a facade's prelude would otherwise keep
//!   every item it lists alive. Types and fields are left alone (other
//!   crates reach them without naming them). Allowlistable per item, as
//!   `L7 <path>::<name>`.
//!
//! The scanner is a deliberate approximation: it sees one line at a
//! time after stripping, so a call chain split across lines (e.g.
//! `.lock()\n.unwrap()`) can escape L5. That trade (tiny false-negative
//! window, zero dependencies, trivially auditable scanner) is the right
//! one for a repo-specific gate; rustc and clippy still backstop the
//! rest.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The lint rules. `Display` gives the short code used in reports and
/// in `allow.list`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Raw `std::sync` lock types outside `crates/sync`.
    L1,
    /// Wall-clock (`Instant::now` / `SystemTime`) in deterministic paths.
    L2,
    /// Non-`Relaxed` atomic ordering without a `// ordering:` comment.
    L3,
    /// `thread::sleep` in test code.
    L4,
    /// `.unwrap()` on lock/channel results in non-test library code.
    L5,
    /// A `pub fn`/`const`/`static` that nothing outside its crate names.
    L7,
}

impl Rule {
    /// Rules whose violations may be suppressed via `allow.list`.
    /// L1/L4/L5 violations must be fixed, never allowlisted.
    pub(crate) fn allowlistable(self) -> bool {
        matches!(self, Rule::L2 | Rule::L3 | Rule::L7)
    }

    fn parse(s: &str) -> Option<Rule> {
        match s {
            "L1" => Some(Rule::L1),
            "L2" => Some(Rule::L2),
            "L3" => Some(Rule::L3),
            "L4" => Some(Rule::L4),
            "L5" => Some(Rule::L5),
            "L7" => Some(Rule::L7),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One rule violation at a source location. `path` is workspace-root
/// relative with forward slashes; `item` names the offending item for
/// the per-item rule L7 (and is `None` for the per-file rules).
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    pub path: String,
    pub line: usize,
    pub item: Option<String>,
    pub message: String,
}

impl Violation {
    /// What an `allow.list` entry names to suppress this violation:
    /// the file, or `<file>::<item>` for a per-item rule.
    fn site(&self) -> String {
        match &self.item {
            Some(item) => format!("{}::{item}", self.path),
            None => self.path.clone(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Returns `source` with comments, string literals, and char literals
/// blanked to spaces, preserving line structure (same number of lines,
/// same column positions). Rule matching runs on this view so that a
/// pattern inside a doc comment or a panic message never trips a rule.
/// Handles line/block (nested) comments, plain and raw (`r#"…"#`)
/// strings, byte strings, char literals, and lifetimes.
pub(crate) fn strip_source(source: &str) -> String {
    enum St {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut st = St::Code;
    let mut i = 0;
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => {
                if c == '/' && next == Some('/') {
                    while i < chars.len() && chars[i] != '\n' {
                        out.push(' ');
                        i += 1;
                    }
                } else if c == '/' && next == Some('*') {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && (i == 0 || !is_ident(chars[i - 1]))
                    && raw_string_hashes(&chars, i).is_some()
                {
                    let (skip, hashes) = raw_string_hashes(&chars, i).unwrap();
                    for _ in 0..skip {
                        out.push(' ');
                    }
                    out.push('"');
                    st = St::RawStr(hashes);
                    i += skip as usize + 1;
                } else if c == '\'' {
                    // Char literal vs lifetime: a literal closes within
                    // a couple of chars ('x', '\n', '\u{1F600}'); a
                    // lifetime never has a closing quote before a
                    // non-ident char.
                    if next == Some('\\') {
                        out.push('\'');
                        i += 1;
                        while i < chars.len() && chars[i] != '\'' {
                            out.push(' ');
                            i += if chars[i] == '\\' && i + 1 < chars.len() {
                                out.push(' ');
                                2
                            } else {
                                1
                            };
                        }
                        if i < chars.len() {
                            out.push('\'');
                            i += 1;
                        }
                    } else if chars.get(i + 2) == Some(&'\'') {
                        out.push_str("' '");
                        i += 3;
                    } else {
                        out.push('\''); // lifetime quote; harmless
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Block(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push(' ');
                    i += 1;
                    if i < chars.len() {
                        out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                } else if c == '"' {
                    out.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    st = St::Code;
                    i += 1 + hashes as usize;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// If `chars[i..]` starts a raw (byte) string (`r"`, `r#"`, `br##"` …),
/// returns `(chars before the opening quote, hash count)`.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(u32, u32)> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(((j - i) as u32, hashes))
    } else {
        None
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Does `needle` occur in `haystack` as a full word (no identifier
/// characters adjacent on either side)?
fn word_match(haystack: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = !haystack[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Per-line flags for `#[cfg(test)]` regions, by brace matching on the
/// stripped source. Attribute and `mod tests {` lines count as inside.
fn test_regions(stripped_lines: &[&str]) -> Vec<bool> {
    let n = stripped_lines.len();
    let mut in_test = vec![false; n];
    let mut i = 0;
    while i < n {
        if !stripped_lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < n {
            for c in stripped_lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            in_test[j] = true;
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

const L1_BANNED: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
];

const L3_STRONG: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

const L5_PATTERNS: &[&str] = &[
    ".lock().unwrap()",
    ".read().unwrap()",
    ".write().unwrap()",
    ".recv().unwrap()",
    ".try_recv().unwrap()",
];

/// Scans one file. `rel_path` is the workspace-root-relative path
/// (forward slashes) used both for reporting and for path-based rule
/// scoping (`crates/sync` L1 exemption, `tests/` classification).
pub fn scan_file(rel_path: &str, source: &str) -> Vec<Violation> {
    let stripped = strip_source(source);
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let raw_lines: Vec<&str> = source.lines().collect();
    let in_test = test_regions(&stripped_lines);

    let in_sync_crate = rel_path.starts_with("crates/sync/");
    let is_test_file = rel_path.split('/').any(|c| c == "tests");

    let mut out = Vec::new();
    let mut push = |rule: Rule, line: usize, message: String| {
        out.push(Violation {
            rule,
            path: rel_path.to_string(),
            line,
            item: None,
            message,
        });
    };

    for (idx, line) in stripped_lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test_code = is_test_file || in_test.get(idx).copied().unwrap_or(false);

        // L1: raw std::sync lock types outside crates/sync.
        if !in_sync_crate && line.contains("std::sync") {
            for name in L1_BANNED {
                if word_match(line, name) {
                    push(
                        Rule::L1,
                        lineno,
                        format!(
                            "raw std::sync::{name} outside crates/sync; use the \
                             instrumented hfqo_sync::{name} instead"
                        ),
                    );
                    break;
                }
            }
        }

        // L2: wall-clock reads. Allowlistable for bench/latency/loader
        // sites; everything on a deterministic path must be fixed.
        for pat in ["Instant::now", "SystemTime"] {
            if line.contains(pat) {
                push(
                    Rule::L2,
                    lineno,
                    format!(
                        "wall-clock ({pat}) — deterministic paths must not read the \
                         host clock; allowlist with a justification if this is a \
                         bench/latency/loader site"
                    ),
                );
                break;
            }
        }

        // L3: non-Relaxed atomic orderings need a `// ordering:`
        // justification on the same or preceding raw line.
        let mut search = 0;
        while let Some(pos) = line[search..].find("Ordering::") {
            let at = search + pos + "Ordering::".len();
            let variant: String = line[at..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if L3_STRONG.contains(&variant.as_str()) {
                let same = raw_lines
                    .get(idx)
                    .is_some_and(|l| l.contains("// ordering:"));
                // A multi-line justification counts: walk the contiguous
                // `//` comment block immediately above the site.
                let mut above = false;
                let mut j = idx;
                while j > 0 {
                    j -= 1;
                    let l = raw_lines[j].trim_start();
                    if !l.starts_with("//") {
                        break;
                    }
                    if l.contains("// ordering:") {
                        above = true;
                        break;
                    }
                }
                if !same && !above {
                    push(
                        Rule::L3,
                        lineno,
                        format!(
                            "Ordering::{variant} without a `// ordering:` justification \
                             comment on this line or in the comment block above"
                        ),
                    );
                }
            }
            search = at;
        }

        // L4: sleeps in tests hide interleavings behind timers.
        if in_test_code && line.contains("thread::sleep") {
            push(
                Rule::L4,
                lineno,
                "thread::sleep in test code — force the interleaving with a \
                 barrier/counter/condvar instead of sleeping and hoping"
                    .to_string(),
            );
        }

        // L5: context-free unwraps on lock/channel results in library
        // code. Locks go through hfqo_sync (site-labelled panic);
        // channels use an expect that names the protocol.
        if !in_test_code {
            let hit = L5_PATTERNS.iter().find(|p| line.contains(*p)).copied();
            let send_unwrap = line.contains(".send(") && line.contains(".unwrap()");
            if let Some(pat) = hit {
                push(
                    Rule::L5,
                    lineno,
                    format!("`{pat}` in library code — name the lock site or protocol"),
                );
            } else if send_unwrap {
                push(
                    Rule::L5,
                    lineno,
                    "`.send(..).unwrap()` in library code — use an expect naming the \
                     channel protocol"
                        .to_string(),
                );
            }
        }
    }
    out
}

/// The library crate whose sources `rel_path` is: `crates/<name>/src/**`
/// except the binary roots `src/main.rs` and `src/bin/**`.
fn library_crate(rel_path: &str) -> Option<&str> {
    let mut parts = rel_path.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    let name = parts.next()?;
    if parts.next()? != "src" {
        return None;
    }
    match parts.next()? {
        "main.rs" | "bin" => None,
        _ => Some(name),
    }
}

/// The identifiers (and number literals) of a stripped source.
fn words(stripped: &str) -> impl Iterator<Item = &str> {
    stripped
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The lines of a stripped source outside its `pub use` re-export
/// statements, which run from a line starting `pub use` to the first
/// `;`.
fn naming_lines(stripped: &str) -> impl Iterator<Item = &str> {
    let mut in_reexport = false;
    stripped.lines().filter(move |line| {
        let skip = in_reexport || line.trim_start().starts_with("pub use ");
        if skip {
            in_reexport = !line.contains(';');
        }
        !skip
    })
}

/// The kind and name a stripped line declares when it is a `pub fn`
/// (`const fn`, `unsafe fn` …), a `pub const` or a `pub static`.
fn pub_value_item(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut tokens = words(rest);
    let mut kind = None;
    for word in tokens.by_ref() {
        match word {
            "fn" => {
                kind = Some("fn");
                break;
            }
            "static" => {
                kind = Some("static");
                break;
            }
            "const" => kind = Some("const"),
            "unsafe" | "async" | "extern" => {}
            name => return kind.map(|k| (k, name)),
        }
    }
    let name = tokens.find(|w| *w != "mut")?;
    Some((kind?, name))
}

/// Rule L7 over a set of `(workspace-relative path, source)` files: every
/// `pub fn`/`const`/`static` of non-test library code whose name no file
/// outside its crate's library sources uses as an identifier. Comments,
/// strings and `pub use` re-exports do not count as naming an item; code
/// in `#[cfg(test)]` regions declares nothing but does name (another
/// crate's unit tests compile against the `pub` item).
pub fn scan_unnamed_pub(files: &[(String, String)]) -> Vec<Violation> {
    let stripped: Vec<String> = files.iter().map(|(_, src)| strip_source(src)).collect();
    // For each identifier, the owners of the files it appears in: a
    // library crate, or `None` for every file outside library sources.
    let mut named_by: HashMap<&str, HashSet<Option<&str>>> = HashMap::new();
    for ((path, _), text) in files.iter().zip(&stripped) {
        let owner = library_crate(path);
        for word in naming_lines(text).flat_map(words) {
            named_by.entry(word).or_default().insert(owner);
        }
    }
    let mut out = Vec::new();
    for ((path, _), text) in files.iter().zip(&stripped) {
        let Some(krate) = library_crate(path) else {
            continue;
        };
        let lines: Vec<&str> = text.lines().collect();
        let in_test = test_regions(&lines);
        for (idx, line) in lines.iter().enumerate() {
            let Some((kind, name)) = pub_value_item(line).filter(|_| !in_test[idx]) else {
                continue;
            };
            let named_outside = named_by
                .get(name)
                .is_some_and(|owners| owners.iter().any(|o| *o != Some(krate)));
            if !named_outside {
                out.push(Violation {
                    rule: Rule::L7,
                    path: path.clone(),
                    line: idx + 1,
                    item: Some(name.to_string()),
                    message: format!(
                        "`pub {kind} {name}` is named by no file outside crate `{krate}`'s \
                         library sources; make it `pub(crate)` (and delete it if rustc then \
                         reports it dead), or allowlist `{path}::{name}` with a reason"
                    ),
                });
            }
        }
    }
    out
}

/// Directories never scanned: build output, vendored shims (external
/// API stubs, not part of the concurrency surface), VCS metadata, and
/// the lint's own deliberately-violating fixtures.
fn skip_dir(rel: &str, name: &str) -> bool {
    matches!(name, "target" | "vendor" | ".git" | ".github") || rel == "crates/lint/tests/fixtures"
}

/// Recursively scans every `.rs` file under `root` (per file, then L7
/// across them), returning all violations sorted by path and line.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut paths = Vec::new();
    collect_rs_files(root, "", &mut paths)?;
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    let mut out: Vec<Violation> = files
        .iter()
        .flat_map(|(rel, source)| scan_file(rel, source))
        .collect();
    out.extend(scan_unnamed_pub(&files));
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(out)
}

fn collect_rs_files(root: &Path, rel: &str, out: &mut Vec<String>) -> std::io::Result<()> {
    let dir = if rel.is_empty() {
        root.to_path_buf()
    } else {
        root.join(rel)
    };
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let child_rel = if rel.is_empty() {
            name.to_string()
        } else {
            format!("{rel}/{name}")
        };
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if !skip_dir(&child_rel, &name) {
                collect_rs_files(root, &child_rel, out)?;
            }
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(child_rel);
        }
    }
    Ok(())
}

/// One `allow.list` entry: `<rule> <path> -- <justification>`, where
/// `path` is `<file>::<item>` for L7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: Rule,
    pub path: String,
    pub(crate) justification: String,
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} -- {}", self.rule, self.path, self.justification)
    }
}

/// Parses `allow.list`. Each non-comment line is
/// `<rule> <path> -- <justification>` (`<path>` is `<file>::<item>` for
/// L7); the justification is mandatory, and entries for
/// non-allowlistable rules (L1/L4/L5) are a parse error — those
/// violations must be fixed in code.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        let (head, justification) = line
            .split_once(" -- ")
            .ok_or_else(|| format!("allow.list:{lineno}: missing ` -- <justification>`"))?;
        let justification = justification.trim();
        if justification.is_empty() {
            return Err(format!("allow.list:{lineno}: empty justification"));
        }
        let mut parts = head.split_whitespace();
        let rule = parts
            .next()
            .and_then(Rule::parse)
            .ok_or_else(|| format!("allow.list:{lineno}: expected a rule (L1..L5, L7)"))?;
        let path = parts
            .next()
            .ok_or_else(|| format!("allow.list:{lineno}: expected a file path"))?
            .to_string();
        if parts.next().is_some() {
            return Err(format!(
                "allow.list:{lineno}: unexpected trailing tokens before ` -- `"
            ));
        }
        if !rule.allowlistable() {
            return Err(format!(
                "allow.list:{lineno}: rule {rule} is not allowlistable — fix the code"
            ));
        }
        entries.push(AllowEntry {
            rule,
            path,
            justification: justification.to_string(),
        });
    }
    Ok(entries)
}

/// Splits `violations` into (still-active, suppressed) under
/// `allowlist`, and returns any **stale** entries — allowlist lines
/// that matched no violation. Stale entries are an error at the
/// call site: an allowlist that silently outlives its violations stops
/// being a record of anything.
pub fn apply_allowlist(
    violations: Vec<Violation>,
    allowlist: &[AllowEntry],
) -> (Vec<Violation>, Vec<Violation>, Vec<AllowEntry>) {
    let mut used = vec![false; allowlist.len()];
    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    for v in violations {
        let site = v.site();
        match allowlist
            .iter()
            .position(|e| e.rule == v.rule && e.path == site)
        {
            Some(i) => {
                used[i] = true;
                suppressed.push(v);
            }
            None => active.push(v),
        }
    }
    let stale = allowlist
        .iter()
        .zip(&used)
        .filter(|&(_, u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    (active, suppressed, stale)
}

/// Runs the full lint over the workspace at `root` using the checked-in
/// `crates/lint/allow.list` (absent file = empty allowlist). Returns
/// `Ok((active, suppressed, stale))`.
#[allow(clippy::type_complexity)]
pub fn run(root: &Path) -> Result<(Vec<Violation>, Vec<Violation>, Vec<AllowEntry>), String> {
    let violations = scan_workspace(root).map_err(|e| format!("scan failed: {e}"))?;
    let allow_path: PathBuf = root.join("crates/lint/allow.list");
    let allowlist = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", allow_path.display())),
    };
    Ok(apply_allowlist(violations, &allowlist))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_strings_and_comments() {
        let src = "let a = \"std::sync::Mutex\"; // std::sync::Mutex\nlet b = 1;\n";
        let stripped = strip_source(src);
        assert!(!stripped.contains("Mutex"));
        assert_eq!(stripped.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_raw_strings_and_chars() {
        let src = "let a = r#\"Instant::now\"#; let c = '\\n'; let l: &'static str = x;\nInstant::now();\n";
        let stripped = strip_source(src);
        let lines: Vec<&str> = stripped.lines().collect();
        assert!(!lines[0].contains("Instant::now"));
        assert!(lines[1].contains("Instant::now"));
    }

    #[test]
    fn stripper_handles_nested_block_comments() {
        let src = "/* outer /* SystemTime */ still comment */ let x = 1;\n";
        let stripped = strip_source(src);
        assert!(!stripped.contains("SystemTime"));
        assert!(stripped.contains("let x = 1;"));
    }

    #[test]
    fn l1_exempts_sync_crate_and_matches_word_boundaries() {
        let src = "use std::sync::{Mutex, Condvar};\n";
        assert_eq!(scan_file("crates/serve/src/cache.rs", src).len(), 1);
        assert!(scan_file("crates/sync/src/check.rs", src).is_empty());
        // `AtomicMutexish` is not a banned word.
        let ok = "use std::sync::atomic::AtomicU64;\n";
        assert!(scan_file("crates/serve/src/cache.rs", ok).is_empty());
    }

    #[test]
    fn l3_accepts_same_or_preceding_line_justification() {
        let bare = "x.load(Ordering::Acquire);\n";
        let same = "x.load(Ordering::Acquire); // ordering: pairs with store\n";
        let prev = "// ordering: pairs with store\nx.load(Ordering::Acquire);\n";
        let block = "// ordering: pairs with the Release\n// store in publish().\nx.load(Ordering::Acquire);\n";
        let gap = "// ordering: too far away\nlet y = 1;\nx.load(Ordering::Acquire);\n";
        let relaxed = "x.load(Ordering::Relaxed);\n";
        assert_eq!(scan_file("crates/x/src/a.rs", bare).len(), 1);
        assert!(scan_file("crates/x/src/a.rs", same).is_empty());
        assert!(scan_file("crates/x/src/a.rs", prev).is_empty());
        assert!(scan_file("crates/x/src/a.rs", block).is_empty());
        assert_eq!(scan_file("crates/x/src/a.rs", gap).len(), 1);
        assert!(scan_file("crates/x/src/a.rs", relaxed).is_empty());
    }

    #[test]
    fn l4_fires_only_in_test_code() {
        let src = "std::thread::sleep(d);\n";
        assert_eq!(scan_file("tests/online.rs", src).len(), 1);
        assert!(scan_file("crates/serve/src/online.rs", src).is_empty());
        let cfg_test = "#[cfg(test)]\nmod tests {\n  fn f() { std::thread::sleep(d); }\n}\n";
        assert_eq!(
            scan_file("crates/serve/src/online.rs", cfg_test)
                .iter()
                .filter(|v| v.rule == Rule::L4)
                .count(),
            1
        );
    }

    #[test]
    fn l5_skips_tests() {
        let src = "let g = self.inner.lock().unwrap();\n";
        assert_eq!(scan_file("crates/x/src/a.rs", src).len(), 1);
        assert!(scan_file("tests/a.rs", src).is_empty());
    }

    #[test]
    fn pub_value_items_parse_through_qualifiers() {
        assert_eq!(pub_value_item("    pub fn f<T>(x: T) {"), Some(("fn", "f")));
        assert_eq!(
            pub_value_item("pub const fn g() -> u8 {"),
            Some(("fn", "g"))
        );
        assert_eq!(pub_value_item("pub unsafe fn h() {"), Some(("fn", "h")));
        assert_eq!(
            pub_value_item("pub const N: usize = 3;"),
            Some(("const", "N"))
        );
        assert_eq!(
            pub_value_item("pub static mut S: u8 = 0;"),
            Some(("static", "S"))
        );
        for other in [
            "pub struct T;",
            "pub field: u8,",
            "pub(crate) fn f() {",
            "pub use a::b;",
            "pub mod m;",
        ] {
            assert_eq!(pub_value_item(other), None, "{other}");
        }
    }

    #[test]
    fn library_crates_exclude_binaries_and_tests() {
        assert_eq!(library_crate("crates/exec/src/ops/mod.rs"), Some("exec"));
        assert_eq!(library_crate("crates/bench/src/main.rs"), None);
        assert_eq!(library_crate("crates/bench/src/bin/x.rs"), None);
        assert_eq!(library_crate("crates/lint/tests/fixtures.rs"), None);
        assert_eq!(library_crate("perfbench/src/lib.rs"), None);
        assert_eq!(library_crate("src/lib.rs"), None);
    }

    #[test]
    fn allowlist_rejects_unallowlistable_rules_and_blank_justifications() {
        assert!(parse_allowlist("L2 a.rs -- bench timing is the product\n").is_ok());
        assert!(parse_allowlist("L1 a.rs -- please\n").is_err());
        assert!(parse_allowlist("L4 a.rs -- please\n").is_err());
        assert!(parse_allowlist("L5 a.rs -- please\n").is_err());
        assert!(parse_allowlist("L2 a.rs\n").is_err());
        assert!(parse_allowlist("L2 a.rs -- \n").is_err());
    }

    #[test]
    fn apply_allowlist_reports_stale_entries() {
        let v = vec![Violation {
            rule: Rule::L2,
            path: "a.rs".into(),
            line: 1,
            item: None,
            message: String::new(),
        }];
        let allow = vec![
            AllowEntry {
                rule: Rule::L2,
                path: "a.rs".into(),
                justification: "x".into(),
            },
            AllowEntry {
                rule: Rule::L2,
                path: "gone.rs".into(),
                justification: "x".into(),
            },
        ];
        let (active, suppressed, stale) = apply_allowlist(v, &allow);
        assert!(active.is_empty());
        assert_eq!(suppressed.len(), 1);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "gone.rs");
    }
}
