//! Workspace-wide symbol table and call graph over the lexical model.
//!
//! The interprocedural rules (R6–R8) need to know *who calls whom*, not
//! just what each line looks like. This module recovers that from the
//! token streams alone — no type information, no grammar:
//!
//! * every `fn` definition, with its enclosing `impl` type (so methods
//!   group by the type they are implemented on), whether it takes
//!   `self`, whether its return type is a lock guard, and whether it
//!   carries an `// ENTRYPOINT:` or `// INFALLIBLE:` marker;
//! * every call site inside a body, with the receiver ident chain
//!   (`self.wal.append(…)` → `["self", "wal"]`) and any `::` path
//!   qualifier (`Wal::open(…)` → `Wal`);
//! * every potential panic site: `.unwrap()`/`.expect()`, the panic
//!   macro family, and index/slice expressions (`xs[i]`, `&b[..n]`).
//!
//! Resolution is **name-based and over-approximate**: a call resolves to
//! every known non-test `fn` with that name, narrowed by receiver
//! heuristics (a `self.m()` call prefers methods of the caller's own
//! impl type) and by proximity (same file, else same crate, else the
//! whole workspace). Calls that match no definition are *externs* and
//! are treated as opaque: assumed not to panic and not to take locks.
//! That makes R6/R7 under-approximate at the std boundary — the rules
//! check this workspace's code, and the known-panicking std idioms
//! (`unwrap`, indexing) are modeled as explicit panic sites instead.

use std::collections::HashMap;

use crate::lexer::TokKind;
use crate::regions::FileModel;

/// Rust keywords that look like idents to the lexer but can never be a
/// callee or an indexed value (`if (…)`, `let [a, b] = …`).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

/// Macros whose expansion aborts the thread (mirrors rule R1; the
/// `assert*` family is deliberately excluded — asserts state invariants
/// and flagging them would drown the signal).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One `fn` definition in the workspace.
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token extent: (index of `{`, index of matching `}`).
    pub body: (usize, usize),
    /// Type name of the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Whether the definition sits in test-only code.
    pub in_test: bool,
    /// `// ENTRYPOINT:` marker — an R6 panic-reachability root.
    pub is_entry: bool,
    /// `// INFALLIBLE:` marker — exempts this fn *and its subtree*.
    pub is_infallible: bool,
    /// Return type mentions a `…Guard` — lock-constructor heuristic.
    pub returns_guard: bool,
}

/// One call site inside a function body.
pub struct CallSite {
    /// Callee name (`append`, `lock`, `read_frame`, …).
    pub callee: String,
    /// Whether the callee ident is preceded by `.` — a method call.
    /// Distinct from `recv`, which can be empty for a method call whose
    /// chain roots directly in a call result (`iter().all(…)`).
    pub is_method: bool,
    /// Receiver ident chain for method calls, outermost first
    /// (`self.wal.sync()` → `["self", "wal"]`). Chains rooted in a call
    /// result keep only the trailing idents (`registry().counters.lock()`
    /// → `["counters"]`). Empty for free/path calls.
    pub recv: Vec<String>,
    /// Last `::` path segment before the callee (`persist::save_atomic`
    /// → `persist`; `Wal::open` → `Wal`).
    pub qual: Option<String>,
    /// Trailing ident of the first argument's `&`-chain, when the first
    /// argument is a borrow of a field chain (`lock(&self.published)` →
    /// `published`). Lock-identity input for R7.
    pub arg_chain: Option<String>,
    /// Whether the argument list is empty (`.lock()` vs `.read(buf)`).
    pub zero_args: bool,
    /// Token index of the callee ident.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
}

/// One potential panic site inside a function body.
pub struct PanicSite {
    /// `unwrap` | `expect` | `panic-macro` | `index`.
    pub kind: &'static str,
    /// Short display text (`.unwrap()`, `panic!`, `buf[..]`).
    pub what: String,
    /// Token index.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
}

/// Per-function local facts (parallel to [`CallGraph::fns`]).
pub struct FnFacts {
    /// Every call site in the body, in token order.
    pub calls: Vec<CallSite>,
    /// Every potential panic site in the body, in token order.
    pub panics: Vec<PanicSite>,
}

/// The workspace call graph.
pub struct CallGraph {
    /// Every `fn` definition found.
    pub fns: Vec<FnDef>,
    /// Local facts, parallel to `fns`.
    pub facts: Vec<FnFacts>,
    /// `resolved[f][c]` — fn indices call `c` of fn `f` may target
    /// (empty = extern/opaque).
    pub resolved: Vec<Vec<Vec<usize>>>,
    /// Definition indices by bare name (non-test only).
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the symbol table, extracts per-fn facts, and resolves
    /// every call site.
    pub fn build(files: &[FileModel]) -> CallGraph {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            collect_fns(file, fi, &mut fns);
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !f.in_test {
                by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
        // Attribute tokens to their *innermost* fn, so a nested fn's
        // calls are not also charged to its parent.
        let mut per_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
        for (i, f) in fns.iter().enumerate() {
            per_file[f.file].push(i);
        }
        let mut facts = Vec::with_capacity(fns.len());
        for (i, f) in fns.iter().enumerate() {
            if f.in_test {
                facts.push(FnFacts {
                    calls: Vec::new(),
                    panics: Vec::new(),
                });
                continue;
            }
            let siblings = &per_file[f.file];
            let owner_of = |tok: usize| innermost_owner(&fns, siblings, tok);
            facts.push(extract_facts(&files[f.file], f, i, owner_of));
        }
        let mut graph = CallGraph {
            fns,
            facts,
            resolved: Vec::new(),
            by_name,
        };
        graph.resolved = (0..graph.fns.len())
            .map(|f| {
                graph.facts[f]
                    .calls
                    .iter()
                    .map(|c| graph.resolve(files, f, c))
                    .collect()
            })
            .collect();
        graph
    }

    /// Definitions with an `// ENTRYPOINT:` marker.
    pub fn entries(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].is_entry && !self.fns[i].in_test)
            .collect()
    }

    /// Resolves one call site from fn `caller` to candidate definitions.
    fn resolve(&self, files: &[FileModel], caller: usize, call: &CallSite) -> Vec<usize> {
        let Some(all) = self.by_name.get(&call.callee) else {
            return Vec::new();
        };
        let mut cands: Vec<usize> = all.clone();
        // `Type::method(…)` — keep methods of that impl type when any.
        if let Some(q) = &call.qual {
            let typed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].impl_type.as_deref() == Some(q.as_str()))
                .collect();
            if !typed.is_empty() {
                cands = typed;
            }
        }
        // `self.method(…)` — prefer methods of the caller's own type. Only
        // a bare `self`: `self.inner.method(…)` calls the field's type.
        if call.recv == ["self"] {
            if let Some(ty) = &self.fns[caller].impl_type {
                let own: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].impl_type.as_deref() == Some(ty.as_str()))
                    .collect();
                if !own.is_empty() {
                    cands = own;
                }
            }
        }
        // Strict shape filter: a method call (`x.f()`) can only target
        // defs that take self, a free/path call only defs that do not.
        // Without this, `self.counters.lock()` — the std Mutex method —
        // would resolve to any workspace free fn named `lock`, and
        // `iter().all(…)` — whose chain roots in a call result, leaving
        // `recv` empty — to any free fn named `all`.
        let want_self = call.is_method;
        cands.retain(|&i| self.fns[i].has_self == want_self);
        // `x.m()` inside fn `m` with a non-self receiver is element
        // iteration (`for h in …hists { h.snapshot() }` inside
        // `Registry::snapshot`), not recursion — a self-edge here adds
        // nothing to reachability and fabricates lock-order pairs.
        if want_self && call.recv.first().is_some_and(|r| r != "self") {
            cands.retain(|&i| i != caller);
        }
        // Proximity narrowing: same file, else same crate. A *global*
        // fallback is taken only when the name is unambiguous
        // workspace-wide — a cross-crate call like `map.append_batch()`
        // resolves, while generic container names (`get`, `insert`)
        // from another crate stay extern instead of aliasing to
        // whatever workspace type happens to share the method name.
        let here = self.fns[caller].file;
        let local: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fns[i].file == here)
            .collect();
        if !local.is_empty() {
            return local;
        }
        let crate_of = |fi: usize| crate_prefix(&files[fi].path);
        let my_crate = crate_of(here);
        let near: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| crate_of(self.fns[i].file) == my_crate)
            .collect();
        if !near.is_empty() {
            return near;
        }
        if cands.len() == 1 {
            return cands;
        }
        Vec::new()
    }

    /// Every panic site transitively reachable from `entry`, skipping
    /// `// INFALLIBLE:` subtrees. Returns `(fn, panic-site index, call
    /// chain from entry to fn)` per site.
    pub fn reachable_panics(&self, entry: usize) -> Vec<(usize, usize, Vec<usize>)> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.fns.len()];
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(entry, vec![entry])];
        while let Some((f, chain)) = stack.pop() {
            if visited[f] || self.fns[f].is_infallible {
                continue;
            }
            visited[f] = true;
            for (pi, _) in self.facts[f].panics.iter().enumerate() {
                out.push((f, pi, chain.clone()));
            }
            for targets in &self.resolved[f] {
                for &t in targets {
                    if !visited[t] && !self.fns[t].is_infallible {
                        let mut next = chain.clone();
                        next.push(t);
                        stack.push((t, next));
                    }
                }
            }
        }
        out.sort_by_key(|(f, pi, _)| (self.fns[*f].file, self.facts[*f].panics[*pi].tok));
        out
    }

    /// Human-readable dump of the symbol table and edges (`--graph`).
    pub fn dump(&self, files: &[FileModel]) -> String {
        let mut out = String::new();
        for (i, f) in self.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let mut tags = Vec::new();
            if f.is_entry {
                tags.push("entry");
            }
            if f.is_infallible {
                tags.push("infallible");
            }
            if f.returns_guard {
                tags.push("guard-ctor");
            }
            let tag = if tags.is_empty() {
                String::new()
            } else {
                format!(" [{}]", tags.join(","))
            };
            out.push_str(&format!(
                "{} ({}:{}){}\n",
                self.qualified(i),
                files[f.file].path,
                f.line,
                tag
            ));
            for (c, call) in self.facts[i].calls.iter().enumerate() {
                let targets = &self.resolved[i][c];
                let to = if targets.is_empty() {
                    "extern".to_owned()
                } else {
                    targets
                        .iter()
                        .map(|&t| self.qualified(t))
                        .collect::<Vec<_>>()
                        .join(" | ")
                };
                out.push_str(&format!("  -> {} @{} => {}\n", call.callee, call.line, to));
            }
            for p in &self.facts[i].panics {
                out.push_str(&format!("  !! {} {} @{}\n", p.kind, p.what, p.line));
            }
        }
        out
    }

    /// `Type::name` when the fn sits in an impl block, else `name`.
    pub fn qualified(&self, i: usize) -> String {
        match &self.fns[i].impl_type {
            Some(t) => format!("{t}::{}", self.fns[i].name),
            None => self.fns[i].name.clone(),
        }
    }

    /// Renders a call chain as `a -> b -> c`.
    pub fn chain_text(&self, chain: &[usize]) -> String {
        chain
            .iter()
            .map(|&i| self.qualified(i))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// `crates/<name>` prefix of a repo-relative path.
fn crate_prefix(path: &str) -> &str {
    let mut it = path.match_indices('/');
    match (it.next(), it.next()) {
        (_, Some((second, _))) => &path[..second],
        _ => path,
    }
}

/// Index (among `candidates`, all in one file) of the innermost fn
/// whose body contains token `tok`.
fn innermost_owner(fns: &[FnDef], candidates: &[usize], tok: usize) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .filter(|&i| fns[i].body.0 <= tok && tok <= fns[i].body.1)
        .min_by_key(|&i| fns[i].body.1 - fns[i].body.0)
}

/// Collects every fn definition in one file, with impl context.
fn collect_fns(file: &FileModel, fi: usize, out: &mut Vec<FnDef>) {
    let impls = impl_blocks(file);
    let toks = &file.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        // Skip `fn` in a type position (`fn(u8) -> u8`).
        let Some((ni, name_tok)) = toks
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, t)| !t.is_comment())
        else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let Some(body) = body_extent(file, i) else {
            continue; // bodyless trait method — nothing to analyze
        };
        let impl_type = impls
            .iter()
            .filter(|(s, e, _)| *s <= i && i <= *e)
            .min_by_key(|(s, e, _)| e - s)
            .map(|(_, _, ty)| ty.clone());
        let (has_self, returns_guard) = signature_facts(file, ni, body.0);
        let (is_entry, is_infallible) = markers(file, i, body);
        out.push(FnDef {
            name: name_tok.text.clone(),
            file: fi,
            fn_tok: i,
            line: toks[i].line,
            body,
            impl_type,
            has_self,
            in_test: file.in_test[i],
            is_entry,
            is_infallible,
            returns_guard,
        });
    }
}

/// `(start, end, type-name)` for every `impl` block in the file. The
/// type is the last path segment of the implemented-on type
/// (`impl Display for Wal` → `Wal`; `impl<'a> Reader<'a>` → `Reader`).
fn impl_blocks(file: &FileModel) -> Vec<(usize, usize, String)> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("impl") {
            continue;
        }
        // Header runs to the first `{`; `for` switches to the type
        // side, `where` ends name collection.
        let mut ty = String::new();
        let mut in_where = false;
        let mut angle = 0i64;
        let mut k = i + 1;
        let mut open = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "{" if angle <= 0 => {
                        open = Some(k);
                        break;
                    }
                    ";" if angle <= 0 => break,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && angle <= 0 && !in_where {
                match t.text.as_str() {
                    "for" => ty.clear(),
                    "where" => in_where = true,
                    "dyn" | "mut" => {}
                    // Last path segment on the current side of `for`
                    // wins (`impl fmt::Display for wal::Wal` → `Wal`).
                    name => ty = name.to_owned(),
                }
            }
            k += 1;
        }
        let Some(open) = open else { continue };
        let close = brace_close(file, open);
        if !ty.is_empty() {
            out.push((i, close, ty));
        }
    }
    out
}

/// Matching `}` for the `{` at `open` (or the last token).
fn brace_close(file: &FileModel, open: usize) -> usize {
    let mut depth = 0i64;
    for (idx, t) in file.toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return idx;
            }
        }
    }
    file.toks.len() - 1
}

/// Body extent of the fn whose `fn` keyword is at `fn_tok`.
pub fn body_extent(file: &FileModel, fn_tok: usize) -> Option<(usize, usize)> {
    let toks = &file.toks;
    let mut depth = 0i64;
    let mut k = fn_tok + 1;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some((k, brace_close(file, k))),
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        k += 1;
    }
    None
}

/// `(has_self, returns_guard)` from the signature between the name at
/// `name_tok` and the body `{` at `body_open`.
fn signature_facts(file: &FileModel, name_tok: usize, body_open: usize) -> (bool, bool) {
    let toks = &file.toks;
    // First parameter: scan from the params `(` to the first `,` at
    // depth 1 (or the closing `)`), looking for a bare `self`.
    let mut has_self = false;
    let mut params_close = body_open;
    let mut k = name_tok + 1;
    let mut opened = false;
    let mut depth = 0i64;
    while k < body_open {
        let t = &toks[k];
        if t.is_punct("(") {
            depth += 1;
            opened = true;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                params_close = k;
                break;
            }
        } else if opened && depth == 1 {
            if t.is_punct(",") && has_self {
                break;
            }
            if t.is_punct(",") {
                break; // first parameter was not self
            }
            if t.is_ident("self") {
                has_self = true;
            }
        }
        k += 1;
    }
    // Exactly the std lock-guard types: RAII types that merely *end*
    // in `Guard` (e.g. the obs crate's `SpanGuard` timer) are not lock
    // handles and must not register as acquisitions.
    let returns_guard = toks[params_close..body_open].iter().any(|t| {
        t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
            )
    });
    (has_self, returns_guard)
}

/// `(is_entry, is_infallible)` — marker comments in the leading comment
/// run (back to the previous `;`/`{`/`}`, doc comments included) or
/// anywhere inside the body, same placement discipline as rule R4's
/// `SOUND:`. Unlike R4 the marker must *start* the comment (after doc
/// slashes), so prose that merely mentions `ENTRYPOINT:` — like this
/// sentence — does not tag anything.
fn markers(file: &FileModel, fn_tok: usize, body: (usize, usize)) -> (bool, bool) {
    let toks = &file.toks;
    let mut entry = false;
    let mut infallible = false;
    let mut scan = |text: &str| {
        let t = text.trim_start_matches(['/', '*', '!']).trim_start();
        if t.starts_with("ENTRYPOINT:") {
            entry = true;
        }
        if t.starts_with("INFALLIBLE:") {
            infallible = true;
        }
    };
    let mut k = fn_tok;
    while k > 0 {
        k -= 1;
        let p = &toks[k];
        if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") {
            break;
        }
        if p.is_comment() {
            scan(&p.text);
        }
    }
    for t in &toks[body.0..=body.1] {
        if t.is_comment() {
            scan(&t.text);
        }
    }
    (entry, infallible)
}

/// Extracts call and panic sites from fn `fi`'s body, skipping tokens
/// owned by nested fns.
fn extract_facts(
    file: &FileModel,
    f: &FnDef,
    fi: usize,
    owner_of: impl Fn(usize) -> Option<usize>,
) -> FnFacts {
    let toks = &file.toks;
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    let (open, close) = f.body;
    let mut i = open;
    while i <= close {
        let t = &toks[i];
        if t.is_comment() || owner_of(i) != Some(fi) {
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            let next = next_code(toks, i + 1, close);
            // Panic-family macro.
            if PANIC_MACROS.contains(&t.text.as_str())
                && next.is_some_and(|n| toks[n].is_punct("!"))
            {
                panics.push(PanicSite {
                    kind: "panic-macro",
                    what: format!("{}!", t.text),
                    tok: i,
                    line: t.line,
                });
                i += 1;
                continue;
            }
            if next.is_some_and(|n| toks[n].is_punct("(")) {
                let is_method = prev_code(toks, i).is_some_and(|p| toks[p].is_punct("."));
                // `.unwrap()` / `.expect(…)` are panic sites, not calls.
                if is_method
                    && matches!(
                        t.text.as_str(),
                        "unwrap" | "expect" | "unwrap_err" | "expect_err"
                    )
                {
                    panics.push(PanicSite {
                        kind: if t.text.starts_with("unwrap") {
                            "unwrap"
                        } else {
                            "expect"
                        },
                        what: format!(".{}()", t.text),
                        tok: i,
                        line: t.line,
                    });
                    i += 1;
                    continue;
                }
                let paren = next.unwrap_or(i + 1);
                calls.push(CallSite {
                    callee: t.text.clone(),
                    is_method,
                    recv: if is_method {
                        receiver_chain(file, i)
                    } else {
                        Vec::new()
                    },
                    qual: path_qualifier(file, i),
                    arg_chain: first_arg_chain(file, paren, close),
                    zero_args: next_code(toks, paren + 1, close)
                        .is_some_and(|n| toks[n].is_punct(")")),
                    tok: i,
                    line: t.line,
                });
            }
        } else if t.is_punct("[") {
            // Index/slice expression: `[` directly after a value.
            let value_before = prev_code(toks, i).is_some_and(|p| {
                let pt = &toks[p];
                (pt.kind == TokKind::Ident && !KEYWORDS.contains(&pt.text.as_str()))
                    || pt.is_punct(")")
                    || pt.is_punct("]")
            });
            // `xs[..]` (full-range slice) cannot panic.
            let full_range = next_code(toks, i + 1, close).is_some_and(|n| {
                toks[n].is_punct("..")
                    && next_code(toks, n + 1, close).is_some_and(|m| toks[m].is_punct("]"))
            });
            if value_before && !full_range {
                let base = prev_code(toks, i)
                    .map(|p| toks[p].text.clone())
                    .unwrap_or_default();
                panics.push(PanicSite {
                    kind: "index",
                    what: format!("{base}[…]"),
                    tok: i,
                    line: t.line,
                });
            }
        }
        i += 1;
    }
    FnFacts { calls, panics }
}

/// Next non-comment token index in `[from, close]`.
fn next_code(toks: &[crate::lexer::Tok], from: usize, close: usize) -> Option<usize> {
    (from..=close.min(toks.len().saturating_sub(1))).find(|&k| !toks[k].is_comment())
}

/// Previous non-comment token index before `i`.
fn prev_code(toks: &[crate::lexer::Tok], i: usize) -> Option<usize> {
    (0..i).rev().find(|&k| !toks[k].is_comment())
}

/// Receiver ident chain of the method call whose callee ident is at
/// `callee_tok` (which is preceded by `.`). Walks `ident (. ident)*`
/// backwards; stops (keeping what it has) at anything else.
fn receiver_chain(file: &FileModel, callee_tok: usize) -> Vec<String> {
    let toks = &file.toks;
    let mut chain = Vec::new();
    let Some(mut k) = prev_code(toks, callee_tok) else {
        return chain;
    };
    // k is the `.`; step to the receiver.
    while let Some(r) = prev_code(toks, k) {
        let t = &toks[r];
        let is_link =
            t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) || t.is_ident("self");
        if !is_link {
            break;
        }
        chain.push(t.text.clone());
        let Some(d) = prev_code(toks, r) else { break };
        if !toks[d].is_punct(".") {
            break;
        }
        k = d;
    }
    chain.reverse();
    chain
}

/// Last `::` path segment before the callee ident at `i`, if any
/// (`persist::save_atomic` → `persist`).
fn path_qualifier(file: &FileModel, i: usize) -> Option<String> {
    let toks = &file.toks;
    let p = prev_code(toks, i)?;
    if !toks[p].is_punct("::") {
        return None;
    }
    let q = prev_code(toks, p)?;
    (toks[q].kind == TokKind::Ident).then(|| toks[q].text.clone())
}

/// When the first argument is `&`(`mut`)` a.b.c`, the trailing ident of
/// that chain (`c`) — the lock identity for `lock(&self.published)`.
fn first_arg_chain(file: &FileModel, paren: usize, close: usize) -> Option<String> {
    let toks = &file.toks;
    let mut k = next_code(toks, paren + 1, close)?;
    if !toks[k].is_punct("&") {
        return None;
    }
    k = next_code(toks, k + 1, close)?;
    if toks[k].is_ident("mut") {
        k = next_code(toks, k + 1, close)?;
    }
    let mut last = None;
    loop {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            last = Some(t.text.clone());
        } else if !t.is_punct(".") {
            break;
        }
        k = next_code(toks, k + 1, close)?;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<FileModel>, CallGraph) {
        let files: Vec<FileModel> = sources
            .iter()
            .map(|(p, s)| FileModel::analyze(p, s))
            .collect();
        let g = CallGraph::build(&files);
        (files, g)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        (0..g.fns.len())
            .find(|&i| g.fns[i].name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn resolves_free_and_method_calls() {
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn top() { helper(); }\n\
             fn helper() { }\n\
             struct W; impl W { fn go(&self) { self.step(); } fn step(&self) {} }",
        )]);
        let top = idx(&g, "top");
        assert_eq!(g.resolved[top][0], vec![idx(&g, "helper")]);
        let go = idx(&g, "go");
        assert_eq!(g.resolved[go][0], vec![idx(&g, "step")]);
        assert_eq!(g.fns[idx(&g, "step")].impl_type.as_deref(), Some("W"));
    }

    #[test]
    fn recursion_terminates_and_reports_once() {
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "// ENTRYPOINT: loop root\n\
             fn ping() { pong(); }\n\
             fn pong() { ping(); boom(); }\n\
             fn boom() { let x: Option<u8> = None; x.unwrap(); }",
        )]);
        let sites = g.reachable_panics(idx(&g, "ping"));
        assert_eq!(sites.len(), 1);
        assert_eq!(g.fns[sites[0].0].name, "boom");
        // The chain threads through the cycle without diverging.
        assert_eq!(g.chain_text(&sites[0].2), "ping -> pong -> boom");
    }

    #[test]
    fn trait_method_ambiguity_traverses_all_candidates() {
        // Two impls define `flush`; a call through an unknown receiver
        // must traverse both (over-approximation, never a miss).
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn flush(&self) { } }\n\
             impl B { fn flush(&self) { panic!(\"b\"); } }\n\
             // ENTRYPOINT: dispatch\n\
             fn run(x: &A) { x.flush(); }",
        )]);
        let run = idx(&g, "run");
        assert_eq!(g.resolved[run][0].len(), 2);
        assert_eq!(g.reachable_panics(run).len(), 1);
    }

    #[test]
    fn self_receiver_prefers_own_impl_type() {
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn emit(&self) {} fn run(&self) { self.emit(); } }\n\
             impl B { fn emit(&self) {} }",
        )]);
        let run = idx(&g, "run");
        let targets = &g.resolved[run][0];
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fns[targets[0]].impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn cross_crate_calls_resolve_when_local_misses() {
        let (_, g) = graph_of(&[
            (
                "crates/serve/src/server.rs",
                "fn handle() { read_frame(); }",
            ),
            (
                "crates/serve/src/protocol.rs",
                "pub fn read_frame() { decode(); }",
            ),
            ("crates/data/src/codec.rs", "pub fn decode() { }"),
        ]);
        let handle = idx(&g, "handle");
        assert_eq!(g.resolved[handle][0], vec![idx(&g, "read_frame")]);
        let rf = idx(&g, "read_frame");
        assert_eq!(g.resolved[rf][0], vec![idx(&g, "decode")]);
    }

    #[test]
    fn unknown_externs_are_panic_opaque() {
        // An entry that only calls into std/extern names is clean: the
        // engine models known-panicking idioms as explicit sites instead
        // of guessing about opaque callees.
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "// ENTRYPOINT: externs only\n\
             fn run() { std::fs::remove_file(\"x\").ok(); some_ffi_thing(); }",
        )]);
        let run = idx(&g, "run");
        assert!(g.resolved[run].iter().all(Vec::is_empty));
        assert!(g.reachable_panics(run).is_empty());
    }

    #[test]
    fn infallible_marker_exempts_the_subtree() {
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "// ENTRYPOINT: root\n\
             fn root() { checked(); risky(); }\n\
             // INFALLIBLE: index bounded by construction\n\
             fn checked() { deep(); }\n\
             fn deep() { xs[i]; }\n\
             fn risky() { v.unwrap(); }",
        )]);
        let sites = g.reachable_panics(idx(&g, "root"));
        assert_eq!(sites.len(), 1);
        assert_eq!(g.fns[sites[0].0].name, "risky");
    }

    #[test]
    fn panic_sites_cover_index_and_macros_but_not_full_slices() {
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn f(xs: &[u8], i: usize) -> u8 {\n\
               let _all = &xs[..];\n\
               let _pat = [1u8, 2];\n\
               if i > xs.len() { panic!(\"oob\"); }\n\
               xs[i]\n\
             }",
        )]);
        let f = idx(&g, "f");
        let kinds: Vec<&str> = g.facts[f].panics.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, vec!["panic-macro", "index"]);
    }

    #[test]
    fn guard_ctor_and_entry_markers_are_detected() {
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "/// ENTRYPOINT: accepts connections\n\
             fn serve() { }\n\
             fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap_or_else(e) }",
        )]);
        assert!(g.fns[idx(&g, "serve")].is_entry);
        assert!(g.fns[idx(&g, "lock")].returns_guard);
        assert_eq!(g.entries(), vec![idx(&g, "serve")]);
    }

    #[test]
    fn test_code_is_invisible_to_the_graph() {
        let (_, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn live() { helper(); }\nfn helper() { }\n\
             #[cfg(test)] mod t { fn helper() { panic!(\"test only\"); } }",
        )]);
        let live = idx(&g, "live");
        // The test-mod `helper` is not a resolution candidate.
        assert_eq!(g.resolved[live][0].len(), 1);
        assert!(!g.fns[g.resolved[live][0][0]].in_test);
    }

    #[test]
    fn receiver_chains_and_qualifiers_parse() {
        let (files, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn f(&self) { self.wal.sync(); persist::save(x); registry().counters.lock(); }",
        )]);
        let _ = files;
        let f = idx(&g, "f");
        let calls = &g.facts[f].calls;
        assert_eq!(calls[0].callee, "sync");
        assert_eq!(calls[0].recv, vec!["self", "wal"]);
        assert_eq!(calls[1].callee, "save");
        assert_eq!(calls[1].qual.as_deref(), Some("persist"));
        // `registry()` is itself a call site, then the chain rooted in
        // its result keeps only the trailing idents.
        assert_eq!(calls[2].callee, "registry");
        assert!(calls[2].recv.is_empty());
        assert_eq!(calls[3].callee, "lock");
        assert_eq!(calls[3].recv, vec!["counters"]);
        assert!(calls[3].zero_args);
    }
}
