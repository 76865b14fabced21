//! R8 — durability-protocol statement ordering.
//!
//! The crash-safety story (DESIGN.md §9/§12) is a set of *ordering*
//! protocols: an ack may only follow the group fsync, a checkpoint
//! must write the batch-id sidecar before the snapshot and only then
//! reset the WAL, and an atomic save must fsync before rename. The
//! CRC-sidecar bug that cost half a day in PR 8 was exactly a protocol
//! step out of order. This rule recognizes each protocol's tagged
//! events syntactically and checks their **first occurrences** appear
//! in protocol order inside every non-test function that contains
//! events from at least two stages.
//!
//! First occurrences — not all-pairs — because legitimate code repeats
//! stages (a directory fsync after rename, per-record staging loops).
//! A function touching only one stage is not checked: helpers that
//! just stage records or just ack are fine. The `wal.reset` stage
//! additionally *requires* the sidecar and snapshot stages in the same
//! function — resetting the log without persisting what made it
//! redundant is the unrecoverable direction — and acks constructed
//! with a literal `duplicate: true` are exempt from the fsync-first
//! requirement (replaying an already-durable batch re-acks before the
//! new group commits; that reply's durability was proven on a previous
//! run).

use super::Context;
use crate::callgraph::{CallGraph, CallSite};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::regions::FileModel;

/// How one protocol stage is recognized at a call/construction site.
enum Pat {
    /// Free or path call by callee name.
    Call(&'static str),
    /// Method call whose trailing receiver ident is in the given set
    /// (`self.wal.sync()` → receiver `wal`).
    Method(&'static str, &'static [&'static str]),
}

struct Stage {
    name: &'static str,
    pats: &'static [Pat],
}

struct Protocol {
    name: &'static str,
    stages: &'static [Stage],
    /// Stage index that, when present, requires every earlier stage to
    /// be present too (the point of no return).
    requires_all_before: Option<usize>,
}

const PROTOCOLS: &[Protocol] = &[
    // Checkpoint: sidecar → snapshot → wal.reset. Resetting the WAL is
    // the point of no return, so it demands both prior stages.
    Protocol {
        name: "checkpoint",
        stages: &[
            Stage {
                name: "sidecar",
                pats: &[Pat::Call("save_batch_ids")],
            },
            Stage {
                name: "snapshot",
                pats: &[Pat::Call("save_atomic_bytes"), Pat::Call("save_atomic")],
            },
            Stage {
                name: "wal-reset",
                pats: &[Pat::Method("reset", &["wal"])],
            },
        ],
        requires_all_before: Some(2),
    },
    // Group commit: stage records → fsync → apply in memory.
    Protocol {
        name: "group-commit",
        stages: &[
            Stage {
                name: "stage",
                pats: &[Pat::Method("append_no_sync", &["wal", "self"])],
            },
            Stage {
                name: "sync",
                pats: &[Pat::Method("sync", &["wal", "self"])],
            },
            Stage {
                name: "apply",
                pats: &[Pat::Method("append_aggregate", &["inner"])],
            },
        ],
        requires_all_before: None,
    },
    // Ack order: the durable commit precedes the (non-duplicate) ack.
    Protocol {
        name: "ack-order",
        stages: &[
            Stage {
                name: "commit",
                pats: &[Pat::Method("append_batch", &["*"])],
            },
            Stage {
                name: "ack",
                pats: &[], // special-cased: `Acked` construction sites
            },
        ],
        requires_all_before: None,
    },
    // Atomic save: fsync the file before renaming it into place.
    Protocol {
        name: "atomic-save",
        stages: &[
            Stage {
                name: "fsync",
                pats: &[Pat::Method("sync_all", &["*"]), Pat::Call("sync_all")],
            },
            Stage {
                name: "rename",
                pats: &[Pat::Call("rename")],
            },
        ],
        requires_all_before: None,
    },
];

pub fn check(ctx: &Context<'_>, graph: &CallGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in 0..graph.fns.len() {
        let def = &graph.fns[f];
        if def.in_test {
            continue;
        }
        let file = &ctx.files[def.file];
        for proto in PROTOCOLS {
            // First-occurrence token of each stage, if present.
            let mut first: Vec<Option<(usize, u32)>> = proto
                .stages
                .iter()
                .map(|s| first_event(graph, f, s))
                .collect();
            if proto.name == "ack-order" {
                first[1] = first_ack(file, def.body);
            }
            let present = first.iter().filter(|e| e.is_some()).count();
            if present < 2 {
                continue;
            }
            if let Some(gate) = proto.requires_all_before {
                if first[gate].is_some() {
                    for (si, stage) in proto.stages.iter().enumerate().take(gate) {
                        if first[si].is_none() {
                            let (_, line) = first[gate].expect("gate stage present");
                            out.push(Diagnostic {
                                rule: "R8",
                                path: file.path.clone(),
                                line,
                                key: format!("{}.{}", def.name, proto.name),
                                message: format!(
                                    "`{}` runs the {} `{}` stage without a `{}` stage — the \
                                     documented protocol persists it first",
                                    def.name, proto.name, proto.stages[gate].name, stage.name
                                ),
                            });
                        }
                    }
                }
            }
            // Pairwise first-occurrence ordering over present stages.
            for i in 0..proto.stages.len() {
                for j in i + 1..proto.stages.len() {
                    let (Some((ti, _li)), Some((tj, lj))) = (first[i], first[j]) else {
                        continue;
                    };
                    if tj < ti {
                        out.push(Diagnostic {
                            rule: "R8",
                            path: file.path.clone(),
                            line: lj,
                            key: format!("{}.{}", def.name, proto.name),
                            message: format!(
                                "`{}` violates the {} protocol: `{}` before `{}` — documented \
                                 order is {}",
                                def.name,
                                proto.name,
                                proto.stages[j].name,
                                proto.stages[i].name,
                                proto
                                    .stages
                                    .iter()
                                    .map(|s| s.name)
                                    .collect::<Vec<_>>()
                                    .join(" → "),
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// First call site of fn `f` matching any of the stage's patterns.
fn first_event(graph: &CallGraph, f: usize, stage: &Stage) -> Option<(usize, u32)> {
    graph.facts[f]
        .calls
        .iter()
        .find(|c| stage.pats.iter().any(|p| matches(p, c)))
        .map(|c| (c.tok, c.line))
}

fn matches(pat: &Pat, call: &CallSite) -> bool {
    match pat {
        Pat::Call(name) => call.recv.is_empty() && call.callee == *name,
        Pat::Method(name, recvs) => {
            call.callee == *name
                && !call.recv.is_empty()
                && (recvs.contains(&"*")
                    || call
                        .recv
                        .last()
                        .is_some_and(|r| recvs.contains(&r.as_str())))
        }
    }
}

/// First non-exempt `Acked` construction inside `body`: an `Acked`
/// whose struct literal does not carry a literal `duplicate: true`.
fn first_ack(file: &FileModel, body: (usize, usize)) -> Option<(usize, u32)> {
    let toks = &file.toks;
    let mut k = body.0;
    while k <= body.1 {
        if toks[k].is_ident("Acked") && !file.in_test[k] && !duplicate_true_literal(file, k, body.1)
        {
            return Some((k, toks[k].line));
        }
        k += 1;
    }
    None
}

/// Whether the `Acked { … }` literal starting after `k` contains the
/// token sequence `duplicate : true` at its top level.
fn duplicate_true_literal(file: &FileModel, k: usize, limit: usize) -> bool {
    let toks = &file.toks;
    let mut j = k + 1;
    while j <= limit && toks[j].is_comment() {
        j += 1;
    }
    if j > limit || !toks[j].is_punct("{") {
        return false; // unit-ish ack — not exempt
    }
    let mut depth = 0i64;
    while j <= limit {
        let t = &toks[j];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if depth == 1
            && t.is_ident("duplicate")
            && toks.get(j + 1).is_some_and(|n| n.is_punct(":"))
            && toks
                .get(j + 2)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text == "true")
        {
            return true;
        }
        j += 1;
    }
    false
}
