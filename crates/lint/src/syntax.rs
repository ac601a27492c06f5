//! The syntax layer: brace-matched structure on top of the lossless
//! lexer.
//!
//! The token rules in [`crate::token_rules`] are deliberately flat —
//! they pattern-match short token windows and cannot see function
//! boundaries, `match` arms, or call structure. The invariant rules in
//! [`crate::syntax_rules`] need exactly that structure: *which function
//! is this call in*, *is this `_` arm part of a `match` over a sealed
//! enum*, *what dotted path does this call site spell*. This module
//! recovers those three views from the code token stream (comments
//! already stripped by the engine), with no external crates:
//!
//! * [`parse_items`] — a tree of `fn`/`impl`/`mod`/`trait` items with
//!   brace-matched body ranges, flattened in source order.
//! * [`parse_matches`] — every `match` expression with its arms split
//!   into pattern and body token ranges (guards handled, nested
//!   matches found independently, `match` inside macro arguments
//!   included because macros are just balanced token trees here).
//! * [`call_paths`] — every call site `a.b.c(…)` / `A::b(…)` as its
//!   dotted segment list, so rules can confine an operation to a
//!   wrapper at call-path granularity instead of banning an identifier.
//!
//! This is still not a parser for Rust — it is a *brace-matcher with
//! opinions*, and it over-approximates exactly like the token rules
//! do. The properties it relies on are lexical and stable: `match`,
//! `fn`, `mod`, `impl`, `trait` are reserved words; delimiters inside
//! code tokens are balanced once strings, chars, lifetimes, and
//! comments have been lexed away; a `match` scrutinee cannot contain a
//! bare `{` at depth 0 (struct literals there require parentheses).

use crate::lexer::{Tok, TokKind};

/// Kind of a recovered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(…) { … }` (or a bodiless trait-method declaration).
    Fn,
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `impl Type { … }` / `impl Trait for Type { … }`.
    Impl,
    /// `trait Name { … }`.
    Trait,
}

/// One recovered item, with token-index and line extents.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The item's name: the `fn`/`mod`/`trait` identifier, or for
    /// `impl` blocks the last type-path segment of the implemented-for
    /// type (`impl Foo for Bar` → `Bar`).
    pub name: String,
    /// Token index of the introducing keyword.
    pub kw_ix: usize,
    /// Token range of the body, *excluding* the delimiting braces.
    /// Empty for bodiless items (`mod foo;`, trait-method decls).
    pub body: std::ops::Range<usize>,
    /// 1-based line of the introducing keyword.
    pub line: u32,
}

/// Parses the flat item list of one file, in source order. Nested items
/// (a `fn` inside a `mod`, a test `fn` inside an inline `mod tests`)
/// appear after their parents; [`enclosing_fn`] resolves containment.
pub fn parse_items(code: &[Tok<'_>]) -> Vec<Item> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        let kind = match t.text {
            "fn" if t.kind == TokKind::Ident => Some(ItemKind::Fn),
            "mod" if t.kind == TokKind::Ident => Some(ItemKind::Mod),
            "impl" if t.kind == TokKind::Ident => Some(ItemKind::Impl),
            "trait" if t.kind == TokKind::Ident => Some(ItemKind::Trait),
            _ => None,
        };
        let Some(kind) = kind else {
            i += 1;
            continue;
        };
        // `fn` in a fn-pointer type (`fn(u32) -> u32`) has no name; skip.
        if kind == ItemKind::Fn && !matches!(code.get(i + 1), Some(n) if n.kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        // Header: everything up to the body `{` or a terminating `;` at
        // delimiter depth 0. Generics/where-clauses keep `()[]` balanced.
        let mut depth = 0i32;
        let mut body_open = None;
        let mut header_end = code.len();
        for (j, u) in code.iter().enumerate().skip(i + 1) {
            if u.is_punct('(') || u.is_punct('[') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && u.is_punct('{') {
                body_open = Some(j);
                header_end = j;
                break;
            } else if depth == 0 && u.is_punct(';') {
                header_end = j;
                break;
            }
        }
        let name = item_name(kind, &code[i + 1..header_end]);
        let body = match body_open {
            Some(open) => open + 1..match_brace(code, open),
            None => header_end..header_end,
        };
        out.push(Item {
            kind,
            name,
            kw_ix: i,
            body,
            line: t.line,
        });
        // Step one token, not over the body: the same forward scan then
        // finds items nested inside it (item headers never contain
        // another item keyword, so headers cannot double-report).
        i += 1;
    }
    out
}

/// Name extraction from an item header (keyword already stripped).
fn item_name(kind: ItemKind, header: &[Tok<'_>]) -> String {
    match kind {
        ItemKind::Fn | ItemKind::Mod | ItemKind::Trait => header
            .first()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_owned())
            .unwrap_or_default(),
        ItemKind::Impl => {
            // `impl<G> Trait for Type` → last ident after `for`;
            // `impl Type` → last ident of the first type path (stop at
            // `where`). Either way "the last plain ident before the body
            // that is not a generic parameter" is a good label.
            let mut after_for: Option<&Tok<'_>> = None;
            let mut last: Option<&Tok<'_>> = None;
            let mut seen_for = false;
            let mut angle = 0i32;
            for t in header {
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                } else if t.is_ident("where") {
                    break;
                } else if t.is_ident("for") {
                    seen_for = true;
                } else if t.kind == TokKind::Ident && angle <= 0 {
                    if seen_for {
                        after_for = Some(t);
                    } else {
                        last = Some(t);
                    }
                }
            }
            after_for
                .or(last)
                .map(|t| t.text.to_owned())
                .unwrap_or_default()
        }
    }
}

/// Index one past the brace that closes the `{` at `open`; `code.len()`
/// if unclosed (malformed input — the compiler reports the real error).
fn match_brace(code: &[Tok<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    code.len()
}

/// The innermost `fn` item whose body contains token index `ix`.
pub fn enclosing_fn(items: &[Item], ix: usize) -> Option<&Item> {
    items
        .iter()
        .filter(|it| it.kind == ItemKind::Fn && it.body.contains(&ix))
        .min_by_key(|it| it.body.len())
}

// ---------------------------------------------------------------------------
// match expressions
// ---------------------------------------------------------------------------

/// One arm of a `match`: pattern (including any `if` guard) and body
/// token ranges.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Tokens of the pattern *and* guard (everything left of `=>`).
    pub pat: std::ops::Range<usize>,
    /// Tokens of the arm body (block braces excluded).
    pub body: std::ops::Range<usize>,
}

/// One `match` expression.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// Token index of the `match` keyword.
    pub kw_ix: usize,
    /// Tokens of the scrutinee expression.
    pub scrutinee: std::ops::Range<usize>,
    /// The arms, in source order.
    pub arms: Vec<Arm>,
}

impl MatchExpr {
    /// Whether arm `a`'s pattern is a bare wildcard `_` (no guard).
    pub fn arm_is_wildcard(&self, code: &[Tok<'_>], a: &Arm) -> bool {
        let toks = &code[a.pat.clone()];
        toks.len() == 1 && toks[0].is_ident("_")
    }
}

/// Finds every `match` expression in `code`, including ones nested in
/// arm bodies or inside macro arguments (macro bodies are balanced
/// token trees, so the same brace matching applies).
pub fn parse_matches(code: &[Tok<'_>]) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("match") {
            continue;
        }
        // Scrutinee: to the first `{` at delimiter depth 0. Rust forbids
        // bare struct literals in this position, so that `{` opens the
        // arm block. A `match` followed by `{` directly (macro fragment)
        // parses as an empty scrutinee.
        let mut depth = 0i32;
        let mut open = None;
        for (j, u) in code.iter().enumerate().skip(i + 1) {
            if u.is_punct('(') || u.is_punct('[') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                if depth == 0 {
                    break; // `match` was a macro fragment like `$m:ident match`…
                }
                depth -= 1;
            } else if depth == 0 && u.is_punct('{') {
                open = Some(j);
                break;
            } else if depth == 0 && (u.is_punct(';') || u.is_punct('}')) {
                break;
            }
        }
        let Some(open) = open else { continue };
        let close = match_brace(code, open);
        let arms = parse_arms(code, open + 1, close);
        out.push(MatchExpr {
            kw_ix: i,
            scrutinee: i + 1..open,
            arms,
        });
    }
    out
}

/// Whether tokens `i` and `i+1` spell the `=>` arrow (adjacent `=`, `>`).
fn is_fat_arrow(code: &[Tok<'_>], i: usize) -> bool {
    match (code.get(i), code.get(i + 1)) {
        (Some(a), Some(b)) => {
            a.is_punct('=') && b.is_punct('>') && a.line == b.line && b.col == a.col + 1
        }
        _ => false,
    }
}

/// Splits the arm block `code[from..to]` into arms.
fn parse_arms(code: &[Tok<'_>], from: usize, to: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = from;
    while i < to {
        // Pattern: up to `=>` at depth 0. Depth counts all three
        // delimiter kinds — tuple/slice patterns and guard calls nest.
        let pat_start = i;
        let mut depth = 0i32;
        let mut arrow = None;
        let mut j = i;
        while j < to {
            let u = &code[j];
            if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && is_fat_arrow(code, j) {
                arrow = Some(j);
                break;
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        // Body: a block runs to its matching brace (then an optional
        // `,`); an expression runs to the `,` at depth 0 or the end of
        // the arm block.
        let body_start = arrow + 2;
        let (body, next) = if matches!(code.get(body_start), Some(b) if b.is_punct('{')) {
            let close = match_brace(code, body_start).min(to);
            let mut n = close + 1;
            if matches!(code.get(n), Some(c) if c.is_punct(',')) {
                n += 1;
            }
            (body_start + 1..close, n)
        } else {
            let mut depth = 0i32;
            let mut end = to;
            let mut k = body_start;
            while k < to {
                let u = &code[k];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && u.is_punct(',') {
                    end = k;
                    break;
                }
                k += 1;
            }
            (body_start..end, end + 1)
        };
        arms.push(Arm {
            pat: pat_start..arrow,
            body,
        });
        i = next.max(i + 1);
    }
    arms
}

// ---------------------------------------------------------------------------
// call paths
// ---------------------------------------------------------------------------

/// How the final segment of a [`CallPath`] is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallVia {
    /// `recv.method(…)` — last segment joined by `.`.
    Method,
    /// `path::func(…)` — last segment joined by `::`.
    Path,
    /// A bare `func(…)` call.
    Bare,
}

/// One call site, as its dotted/colon path. `self.acct.add(x)` yields
/// segments `["self", "acct", "add"]` via [`CallVia::Method`];
/// `CpuAccounting::add(…)` yields `["CpuAccounting", "add"]` via
/// [`CallVia::Path`].
#[derive(Debug, Clone)]
pub struct CallPath {
    /// Path segments, outermost receiver first; the called name last.
    pub segments: Vec<String>,
    /// Token index of the *called* segment (for diagnostics).
    pub callee_ix: usize,
    /// How the callee is reached.
    pub via: CallVia,
}

impl CallPath {
    /// The called segment.
    pub fn callee(&self) -> &str {
        self.segments.last().map(String::as_str).unwrap_or("")
    }

    /// Whether the path ends with `segments` (e.g. `["acct", "add"]`
    /// matches `self.acct.add` and `world.acct.add`).
    pub fn ends_with(&self, suffix: &[&str]) -> bool {
        self.segments.len() >= suffix.len()
            && self
                .segments
                .iter()
                .rev()
                .zip(suffix.iter().rev())
                .all(|(a, b)| a == b)
    }
}

/// Extracts every call site: an identifier directly followed by `(`,
/// with its leading `.`/`::` chain walked backwards through plain
/// identifier segments. Chains through expressions (`f(x).g(…)`,
/// indexing, turbofish) stop at the nearest non-ident link, which is
/// exactly the conservative behavior the confinement rules want.
pub fn call_paths(code: &[Tok<'_>]) -> Vec<CallPath> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokKind::Ident || !matches!(code.get(i + 1), Some(n) if n.is_punct('(')) {
            continue;
        }
        // Keyword guards: `if (…)`, `while (…)`, `for`, `match (…)`,
        // `return (…)` are not calls.
        if matches!(
            t.text,
            "if" | "while" | "for" | "match" | "return" | "in" | "loop" | "move" | "fn" | "as"
        ) {
            continue;
        }
        let mut segments = vec![t.text.to_owned()];
        let mut via = CallVia::Bare;
        let mut j = i;
        // Look backwards for `. ident` or `:: ident`.
        while let Some(prev) = j.checked_sub(1).map(|p| &code[p]) {
            if prev.is_punct('.') {
                let Some(recv) = j.checked_sub(2).map(|p| &code[p]) else {
                    break;
                };
                if recv.kind == TokKind::Ident {
                    if via == CallVia::Bare {
                        via = CallVia::Method;
                    }
                    segments.insert(0, recv.text.to_owned());
                    j -= 2;
                    continue;
                }
                // `f(x).g(…)` — expression receiver; still a method call.
                if via == CallVia::Bare {
                    via = CallVia::Method;
                }
                break;
            }
            if prev.is_punct(':')
                && j >= 2
                && code[j - 2].is_punct(':')
                && j >= 3
                && code[j - 3].kind == TokKind::Ident
            {
                if via == CallVia::Bare {
                    via = CallVia::Path;
                }
                segments.insert(0, code[j - 3].text.to_owned());
                j -= 3;
                continue;
            }
            break;
        }
        out.push(CallPath {
            segments,
            callee_ix: i,
            via,
        });
    }
    out
}

/// Whether any token in `range` spells the path head `head ::` (an
/// enum/type path mention like `Stage::…`). Used on match-arm pattern
/// ranges by the sealed-match rule.
pub fn range_mentions_path_head(
    code: &[Tok<'_>],
    range: std::ops::Range<usize>,
    head: &str,
) -> bool {
    let hi = range.end.min(code.len());
    for i in range.start..hi {
        if code[i].is_ident(head)
            && matches!(code.get(i + 1), Some(a) if a.is_punct(':'))
            && matches!(code.get(i + 2), Some(b) if b.is_punct(':'))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn code(src: &str) -> Vec<Tok<'_>> {
        lex(src).into_iter().filter(|t| !t.is_comment()).collect()
    }

    #[test]
    fn items_with_nesting() {
        let src = "mod outer { fn a() { { { } } } impl Foo { fn b(&self) {} } }";
        let toks = code(src);
        let items = parse_items(&toks);
        let names: Vec<(ItemKind, &str)> =
            items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            names,
            vec![
                (ItemKind::Mod, "outer"),
                (ItemKind::Fn, "a"),
                (ItemKind::Impl, "Foo"),
                (ItemKind::Fn, "b"),
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let toks = code("impl<T> Display for Wrapper<T> { fn fmt(&self) {} }");
        let items = parse_items(&toks);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "Wrapper");
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let src = "fn outer() { fn inner() { target(); } }";
        let toks = code(src);
        let items = parse_items(&toks);
        let target_ix = toks.iter().position(|t| t.is_ident("target")).unwrap();
        assert_eq!(enclosing_fn(&items, target_ix).unwrap().name, "inner");
    }

    #[test]
    fn match_arms_split_on_depth_zero_arrow() {
        let src = "match x { A::B { n } => n + 1, C(_, y) if y > 0 => { y }, _ => 0 }";
        let toks = code(src);
        let ms = parse_matches(&toks);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].arms.len(), 3);
        assert!(ms[0].arm_is_wildcard(&toks, &ms[0].arms[2]));
        assert!(!ms[0].arm_is_wildcard(&toks, &ms[0].arms[1]));
        assert!(range_mentions_path_head(
            &toks,
            ms[0].arms[0].pat.clone(),
            "A"
        ));
    }

    #[test]
    fn nested_match_in_arm_body_is_found() {
        let src = "match a { X => match b { Y => 1, _ => 2 }, _ => 0 }";
        let toks = code(src);
        let ms = parse_matches(&toks);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].arms.len(), 2);
        assert_eq!(ms[1].arms.len(), 2);
    }

    #[test]
    fn match_inside_macro_args() {
        let src = "println!(\"{}\", match k { Stage::Cpu { .. } => 1, _ => 0 });";
        let toks = code(src);
        let ms = parse_matches(&toks);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].arms.len(), 2);
        assert!(range_mentions_path_head(
            &toks,
            ms[0].arms[0].pat.clone(),
            "Stage"
        ));
    }

    #[test]
    fn match_text_in_raw_string_is_opaque() {
        let src = "let s = r#\"match x { _ => 0 }\"#; match y { Z => 1, _ => 2 }";
        let toks = code(src);
        let ms = parse_matches(&toks);
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!(ms[0].arms.len(), 2);
    }

    #[test]
    fn guard_with_comparison_does_not_break_arrow_detection() {
        // `y > 0` inside the guard: the `>` must not pair with a stray
        // `=` into a phantom arrow; the real `=>` tokens are adjacent.
        let src = "match x { A if y >= 0 => 1, _ => 2 }";
        let toks = code(src);
        let ms = parse_matches(&toks);
        assert_eq!(ms[0].arms.len(), 2);
    }

    #[test]
    fn lifetimes_vs_char_literals_in_patterns() {
        let src = "fn f<'a>(x: &'a str) { match c { 'x' => 1, '\\n' => 2, _ => 0 }; }";
        let toks = code(src);
        let ms = parse_matches(&toks);
        assert_eq!(ms[0].arms.len(), 3);
        assert!(ms[0].arm_is_wildcard(&toks, &ms[0].arms[2]));
    }

    #[test]
    fn call_path_extraction() {
        let src = "self.acct.add(t, c); CpuAccounting::add(a); world.send_now();";
        let toks = code(src);
        let calls = call_paths(&toks);
        assert_eq!(calls.len(), 3);
        assert!(calls[0].ends_with(&["acct", "add"]));
        assert_eq!(calls[0].via, CallVia::Method);
        assert!(calls[1].ends_with(&["CpuAccounting", "add"]));
        assert_eq!(calls[1].via, CallVia::Path);
        assert!(calls[2].ends_with(&["world", "send_now"]));
    }

    #[test]
    fn expression_receiver_stops_the_chain() {
        let src = "f(x).add(y);";
        let toks = code(src);
        let calls = call_paths(&toks);
        // Both `f(…)` and `.add(…)` are calls; the chain behind `add`
        // stops at the `)` so its path is just ["add"].
        let add = calls.iter().find(|c| c.callee() == "add").unwrap();
        assert_eq!(add.segments, vec!["add"]);
        assert_eq!(add.via, CallVia::Method);
    }
}
