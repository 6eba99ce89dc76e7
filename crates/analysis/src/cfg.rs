//! Control-flow graph construction and the interprocedural must-measured
//! fixpoint behind **QL001 use-after-measurement**.
//!
//! The walk over the checker's resolution in [`crate::dataflow`] records
//! a linear stream of [`Ev`]ents — measures, quantum uses, whole-variable
//! reassignments, user-function calls — bracketed by structured
//! control-flow markers. Variables are [`VarId`]s and callees are
//! function indices, both taken from the resolution, so nothing here is
//! keyed by name. This module turns each stream (the top-level program
//! and every function body) into a basic-block CFG and runs a forward
//! **must** dataflow over it: the lattice value at a program point is the set of
//! variables *definitely* measured on every path reaching it, each
//! tagged with the span of the collapsing `measure`. The meet over
//! control-flow joins is set intersection, so:
//!
//! - a measure on only one arm of an `if` never flags uses after the
//!   join (must-analysis, no false positives);
//! - loop back-edges meet the pre-loop state, so a measure late in a
//!   loop body never flags uses earlier in the body on a later
//!   iteration — the same conservatism the old one-pass walk hard-coded
//!   with snapshot/restore, now falling out of the fixpoint;
//! - a path that `return`s early contributes nothing to the join after
//!   the branch, which is strictly more precise than snapshotting.
//!
//! The analysis is **interprocedural** through function summaries: for
//! each user function the same fixpoint computes which parameters are
//! definitely measured at every exit (and not re-prepared afterwards),
//! and which parameters may be reassigned on some path. At a call site,
//! a plain-variable argument bound to a definitely-measured parameter
//! becomes measured in the caller — with the note span pointing at the
//! `measure` statement *inside the callee* — while an argument bound to
//! a possibly-reassigned parameter is conservatively forgotten.
//! Summaries are computed on demand, bottom-up over the call graph;
//! recursion falls back to the bottom summary (measures nothing, may
//! reassign everything), which can only suppress findings, never invent
//! them.

use crate::lints;
use crate::RawFinding;
use qutes_frontend::Span;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// One variable identity, unique across the whole program: a slot of
/// the resolution (globals, then the main frame, then each function's
/// frame), so each declaration has its own.
pub(crate) type VarId = usize;

/// One dataflow-relevant event, recorded in program order by the
/// dataflow walk. Control-flow markers bracket branch arms and loop
/// bodies so the CFG can be rebuilt without a second traversal.
#[derive(Clone, Debug)]
pub(crate) enum Ev<'a> {
    /// An explicit `measure` collapsed `var`.
    Measure { var: VarId, span: Span },
    /// A quantum operation read `var`'s live state at `span`.
    Use {
        var: VarId,
        name: &'a str,
        span: Span,
    },
    /// A whole-variable assignment replaced `var` with a fresh value.
    Reset { var: VarId },
    /// A call to the user function at index `callee` of the program's
    /// functions; `args[i]` holds the caller variable bound to parameter
    /// `i` when the argument was a plain variable (anything else is
    /// untracked).
    Call {
        callee: u32,
        args: Vec<Option<VarId>>,
    },
    /// `if` statement; followed by one `ArmStart..ArmEnd` group for the
    /// then-arm and, when `has_else`, a second group for the else-arm,
    /// closed by `BranchEnd`.
    BranchStart { has_else: bool },
    /// Opens a branch arm.
    ArmStart,
    /// Closes a branch arm.
    ArmEnd,
    /// Closes an `if` statement.
    BranchEnd,
    /// `while`/`foreach`; header events (the re-evaluated condition)
    /// follow until `BodyStart`, then the body until `LoopEnd`.
    LoopStart,
    /// Separates a loop's header events from its body.
    BodyStart,
    /// Closes a loop.
    LoopEnd,
    /// `return`: control leaves the enclosing function here.
    Ret,
}

/// One analysis unit: the top-level program or one function body.
pub(crate) struct Unit<'a> {
    /// Parameter variable ids, in declaration order (empty for the
    /// top-level unit).
    pub(crate) params: Vec<VarId>,
    /// The recorded event stream.
    pub(crate) events: Vec<Ev<'a>>,
}

/// What a call to a function does to its by-reference parameters.
#[derive(Clone, Debug, Default)]
struct Summary {
    /// Parameter index → span of the `measure` that definitely collapsed
    /// it on every path through the callee, with no later reassignment.
    measures: HashMap<usize, Span>,
    /// Parameter indices the callee may reassign on some path.
    may_reset: HashSet<usize>,
    /// Conservative fallback for recursion: treat every parameter as
    /// possibly reassigned.
    reset_all: bool,
}

/// Basic blocks of a unit's event stream connected by predecessor
/// edges. Each block is a contiguous run of the stream, held as its index
/// range. Block 0 is the entry; `exits` lists every block whose end
/// state reaches the unit's exit (each `Ret` point plus the final
/// fall-through block).
struct Cfg<'e, 'a> {
    events: &'e [Ev<'a>],
    blocks: Vec<Range<usize>>,
    preds: Vec<Vec<usize>>,
    exits: Vec<usize>,
}

impl<'e, 'a> Cfg<'e, 'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(0..0);
        self.preds.push(Vec::new());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.preds[to].push(from);
    }

    /// Appends event `i` to block `b`, whose events so far end at `i`.
    fn push(&mut self, b: usize, i: usize) {
        let r = &mut self.blocks[b];
        if r.start == r.end {
            *r = i..i + 1;
        } else {
            debug_assert_eq!(r.end, i, "a block is a contiguous run of events");
            r.end = i + 1;
        }
    }

    /// The events of block `b`.
    fn block(&self, b: usize) -> &'e [Ev<'a>] {
        &self.events[self.blocks[b].clone()]
    }

    /// Consumes events from `i` filling `cur`, recursing into nested
    /// regions, until a closing marker (left unconsumed for the caller)
    /// or the end of the stream. Returns `(next index, exit block)`.
    fn seq(&mut self, mut i: usize, mut cur: usize) -> (usize, usize) {
        let evs = self.events;
        while i < evs.len() {
            match &evs[i] {
                Ev::Measure { .. } | Ev::Use { .. } | Ev::Reset { .. } | Ev::Call { .. } => {
                    self.push(cur, i);
                    i += 1;
                }
                Ev::Ret => {
                    self.exits.push(cur);
                    // Continue into a predecessor-less block: code after
                    // an unconditional return is unreachable and its
                    // facts never join anything.
                    cur = self.new_block();
                    i += 1;
                }
                Ev::BranchStart { has_else } => {
                    let has_else = *has_else;
                    debug_assert!(matches!(evs.get(i + 1), Some(Ev::ArmStart)));
                    let then_entry = self.new_block();
                    self.edge(cur, then_entry);
                    let (ni, then_exit) = self.seq(i + 2, then_entry);
                    debug_assert!(matches!(evs.get(ni), Some(Ev::ArmEnd)));
                    i = ni + 1;
                    let join = self.new_block();
                    self.edge(then_exit, join);
                    if has_else {
                        debug_assert!(matches!(evs.get(i), Some(Ev::ArmStart)));
                        let else_entry = self.new_block();
                        self.edge(cur, else_entry);
                        let (ni, else_exit) = self.seq(i + 1, else_entry);
                        debug_assert!(matches!(evs.get(ni), Some(Ev::ArmEnd)));
                        i = ni + 1;
                        self.edge(else_exit, join);
                    } else {
                        self.edge(cur, join);
                    }
                    debug_assert!(matches!(evs.get(i), Some(Ev::BranchEnd)));
                    i += 1;
                    cur = join;
                }
                Ev::LoopStart => {
                    let header = self.new_block();
                    self.edge(cur, header);
                    i += 1;
                    // Header events: the condition, re-evaluated every
                    // iteration. Conditions are expressions, so no
                    // nested markers can appear here.
                    while !matches!(evs.get(i), Some(Ev::BodyStart) | None) {
                        self.push(header, i);
                        i += 1;
                    }
                    i += 1;
                    let body_entry = self.new_block();
                    self.edge(header, body_entry);
                    let (ni, body_exit) = self.seq(i, body_entry);
                    debug_assert!(matches!(evs.get(ni), Some(Ev::LoopEnd)));
                    i = ni + 1;
                    self.edge(body_exit, header);
                    let exit = self.new_block();
                    self.edge(header, exit);
                    cur = exit;
                }
                Ev::ArmStart | Ev::ArmEnd | Ev::BranchEnd | Ev::BodyStart | Ev::LoopEnd => {
                    return (i, cur);
                }
            }
        }
        (i, cur)
    }
}

fn build_cfg<'e, 'a>(events: &'e [Ev<'a>]) -> Cfg<'e, 'a> {
    let mut cfg = Cfg {
        events,
        blocks: Vec::new(),
        preds: Vec::new(),
        exits: Vec::new(),
    };
    let entry = cfg.new_block();
    let (_, last) = cfg.seq(0, entry);
    cfg.exits.push(last);
    cfg
}

/// Must-measured facts at a program point: variable → span of the
/// collapsing measure. `None` block states mean "not yet reached" (the
/// top of the lattice), so unreachable code never flags.
type State = HashMap<VarId, Span>;

fn meet(acc: Option<State>, other: &State) -> State {
    match acc {
        None => other.clone(),
        Some(mut s) => {
            s.retain(|k, _| other.contains_key(k));
            s
        }
    }
}

/// Each function's summary, indexed like the program's functions;
/// `None` until computed.
type Summaries = [Option<Summary>];

/// Applies one event to the state (findings are collected separately).
fn transfer_event(state: &mut State, ev: &Ev<'_>, summaries: &Summaries) {
    match ev {
        Ev::Measure { var, span } => {
            state.entry(*var).or_insert(*span);
        }
        Ev::Reset { var } => {
            state.remove(var);
        }
        Ev::Call { callee, args } => {
            let Some(sum) = summaries.get(*callee as usize).and_then(Option::as_ref) else {
                // Unknown callee: forget everything it could touch.
                for v in args.iter().flatten() {
                    state.remove(v);
                }
                return;
            };
            for (i, v) in args.iter().enumerate() {
                let Some(v) = v else { continue };
                if sum.reset_all || sum.may_reset.contains(&i) {
                    state.remove(v);
                }
                if let Some(span) = sum.measures.get(&i) {
                    state.insert(*v, *span);
                }
            }
        }
        _ => {}
    }
}

fn transfer_block(mut state: State, block: &[Ev<'_>], summaries: &Summaries) -> State {
    for ev in block {
        transfer_event(&mut state, ev, summaries);
    }
    state
}

/// A unit's CFG and the entry state of every block (`None` =
/// unreachable), solved once under the summaries of its callees.
struct Solved<'e, 'a> {
    cfg: Cfg<'e, 'a>,
    inb: Vec<Option<State>>,
}

/// Builds and solves the CFG of `unit`.
fn solve_unit<'e, 'a>(unit: &'e Unit<'a>, summaries: &Summaries) -> Solved<'e, 'a> {
    let cfg = build_cfg(&unit.events);
    let inb = solve(&cfg, summaries);
    Solved { cfg, inb }
}

/// Worklist fixpoint: returns the entry state of every block (`None` =
/// unreachable).
fn solve(cfg: &Cfg<'_, '_>, summaries: &Summaries) -> Vec<Option<State>> {
    let n = cfg.blocks.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (to, preds) in cfg.preds.iter().enumerate() {
        for &from in preds {
            succs[from].push(to);
        }
    }
    let mut inb: Vec<Option<State>> = vec![None; n];
    inb[0] = Some(State::new());
    let mut outb: Vec<Option<State>> = vec![None; n];
    let mut work: Vec<usize> = (0..n).collect();
    while let Some(b) = work.pop() {
        let mut state: Option<State> = if b == 0 { Some(State::new()) } else { None };
        for &p in &cfg.preds[b] {
            if let Some(po) = &outb[p] {
                state = Some(meet(state, po));
            }
        }
        let Some(state) = state else { continue };
        inb[b] = Some(state.clone());
        let new_out = transfer_block(state, cfg.block(b), summaries);
        if outb[b].as_ref() != Some(&new_out) {
            outb[b] = Some(new_out);
            for &s in &succs[b] {
                if !work.contains(&s) {
                    work.push(s);
                }
            }
        }
    }
    inb
}

/// Exit state of a solved CFG: the meet over every reachable exit point.
fn exit_state(solved: &Solved<'_, '_>, summaries: &Summaries) -> State {
    let mut acc: Option<State> = None;
    for &b in &solved.cfg.exits {
        if let Some(s) = &solved.inb[b] {
            let out = transfer_block(s.clone(), solved.cfg.block(b), summaries);
            acc = Some(meet(acc, &out));
        }
    }
    acc.unwrap_or_default()
}

/// Computes the summary of function `index`, recursing into callees
/// first, and keeps its solved CFG in `solved[index]`. `on_stack` marks
/// the functions being summarized; a call back into one breaks the
/// recursion cycle with the bottom summary. A summary never changes once
/// set, so the CFG solved here is the one the findings walk.
fn summarize<'e, 'a>(
    index: usize,
    funcs: &'e [Unit<'a>],
    summaries: &mut Summaries,
    solved: &mut [Option<Solved<'e, 'a>>],
    on_stack: &mut [bool],
) {
    let (Some(unit), Some(None)) = (funcs.get(index), summaries.get(index)) else {
        return;
    };
    on_stack[index] = true;
    for ev in &unit.events {
        if let Ev::Call { callee, .. } = ev {
            let callee = *callee as usize;
            match on_stack.get(callee) {
                Some(true) => {
                    summaries[callee].get_or_insert(Summary {
                        reset_all: true,
                        ..Summary::default()
                    });
                }
                Some(false) => summarize(callee, funcs, summaries, solved, on_stack),
                None => {}
            }
        }
    }
    let unit_solved = solve_unit(unit, summaries);
    let exit = exit_state(&unit_solved, summaries);
    solved[index] = Some(unit_solved);
    let param_index = |var: &VarId| unit.params.iter().position(|p| p == var);
    let mut sum = Summary::default();
    for (var, span) in &exit {
        if let Some(i) = param_index(var) {
            sum.measures.insert(i, *span);
        }
    }
    // May-reset is a simple syntactic may-analysis: any reassignment of
    // a parameter anywhere, or passing it to a callee that may reset it.
    for ev in &unit.events {
        match ev {
            Ev::Reset { var } => {
                if let Some(i) = param_index(var) {
                    sum.may_reset.insert(i);
                }
            }
            Ev::Call { callee, args } => {
                for (j, v) in args.iter().enumerate() {
                    let Some(v) = v else { continue };
                    let Some(i) = param_index(v) else {
                        continue;
                    };
                    let callee_resets = summaries
                        .get(*callee as usize)
                        .and_then(Option::as_ref)
                        .map(|s| s.reset_all || s.may_reset.contains(&j))
                        .unwrap_or(true);
                    if callee_resets {
                        sum.may_reset.insert(i);
                    }
                }
            }
            _ => {}
        }
    }
    on_stack[index] = false;
    // A recursion cycle may have installed the bottom summary for this
    // function already; keep the conservative one in that case.
    summaries[index].get_or_insert(sum);
}

/// Emits one QL001 finding for a use of `name` while must-measured,
/// with a note pointing at the collapsing measurement.
fn ql001(name: &str, use_span: Span, measure_span: Span) -> RawFinding {
    RawFinding {
        lint: &lints::USE_AFTER_MEASUREMENT,
        message: format!(
            "quantum variable '{name}' is used in a quantum operation after being \
             measured; the measurement already collapsed its state"
        ),
        span: use_span,
        notes: vec![(
            "the collapsing measurement is here".to_string(),
            measure_span,
        )],
    }
}

fn findings_for_unit(solved: &Solved<'_, '_>, summaries: &Summaries) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    for (b, entry) in solved.inb.iter().enumerate() {
        let Some(entry) = entry else { continue };
        let mut state = entry.clone();
        for ev in solved.cfg.block(b) {
            if let Ev::Use { var, name, span } = ev {
                if let Some(mspan) = state.get(var) {
                    findings.push(ql001(name, *span, *mspan));
                }
            }
            transfer_event(&mut state, ev, summaries);
        }
    }
    findings
}

/// Runs the must-measured analysis over the whole program: summaries
/// for every function, then QL001 findings for the top-level unit and
/// every function body. `funcs` is indexed like the program's functions.
pub(crate) fn must_measured_findings(toplevel: &Unit<'_>, funcs: &[Unit<'_>]) -> Vec<RawFinding> {
    let mut summaries = vec![None; funcs.len()];
    let mut solved: Vec<Option<Solved>> = funcs.iter().map(|_| None).collect();
    let mut on_stack = vec![false; funcs.len()];
    for index in 0..funcs.len() {
        summarize(index, funcs, &mut summaries, &mut solved, &mut on_stack);
    }
    let mut findings = findings_for_unit(&solve_unit(toplevel, &summaries), &summaries);
    for s in solved.iter().flatten() {
        findings.extend(findings_for_unit(s, &summaries));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(var: VarId, at: usize) -> Ev<'static> {
        Ev::Measure {
            var,
            span: Span::new(at, at + 1),
        }
    }

    fn quse(var: VarId, at: usize) -> Ev<'static> {
        Ev::Use {
            var,
            name: "v",
            span: Span::new(at, at + 1),
        }
    }

    fn unit(events: Vec<Ev<'static>>) -> Unit<'static> {
        Unit {
            params: Vec::new(),
            events,
        }
    }

    fn run_top(events: Vec<Ev<'static>>) -> Vec<RawFinding> {
        must_measured_findings(&unit(events), &[])
    }

    #[test]
    fn straight_line_measure_then_use_flags_with_note() {
        let f = run_top(vec![measure(0, 10), quse(0, 20)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].span, Span::new(20, 21));
        assert_eq!(
            f[0].notes,
            vec![(
                "the collapsing measurement is here".to_string(),
                Span::new(10, 11)
            )]
        );
    }

    #[test]
    fn reset_kills_the_measured_fact() {
        let f = run_top(vec![measure(0, 10), Ev::Reset { var: 0 }, quse(0, 20)]);
        assert!(f.is_empty());
    }

    #[test]
    fn one_armed_measure_does_not_survive_the_join() {
        let f = run_top(vec![
            Ev::BranchStart { has_else: true },
            Ev::ArmStart,
            measure(0, 10),
            Ev::ArmEnd,
            Ev::ArmStart,
            Ev::ArmEnd,
            Ev::BranchEnd,
            quse(0, 20),
        ]);
        assert!(f.is_empty());
    }

    #[test]
    fn both_arms_measuring_survives_the_join() {
        let f = run_top(vec![
            Ev::BranchStart { has_else: true },
            Ev::ArmStart,
            measure(0, 10),
            Ev::ArmEnd,
            Ev::ArmStart,
            measure(0, 12),
            Ev::ArmEnd,
            Ev::BranchEnd,
            quse(0, 20),
        ]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn returning_arm_does_not_veto_the_other_arms_measure() {
        // if c { return } else { measure q }; h q  — every path reaching
        // the use measured q, so this is a true positive the old
        // snapshot-based walk missed.
        let f = run_top(vec![
            Ev::BranchStart { has_else: true },
            Ev::ArmStart,
            Ev::Ret,
            Ev::ArmEnd,
            Ev::ArmStart,
            measure(0, 12),
            Ev::ArmEnd,
            Ev::BranchEnd,
            quse(0, 20),
        ]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn loop_back_edge_meets_the_preloop_state() {
        // while c { h q; measure q; }  — the use precedes the measure in
        // the body; the back edge must not carry the measure around.
        let f = run_top(vec![
            Ev::LoopStart,
            Ev::BodyStart,
            quse(0, 10),
            measure(0, 20),
            Ev::LoopEnd,
        ]);
        assert!(f.is_empty());
        // ...and after the loop the state is clean too (zero-trip path).
        let f = run_top(vec![
            Ev::LoopStart,
            Ev::BodyStart,
            measure(0, 20),
            Ev::LoopEnd,
            quse(0, 30),
        ]);
        assert!(f.is_empty());
    }

    #[test]
    fn callee_measuring_its_param_propagates_to_the_call_site() {
        let callee = Unit {
            params: vec![7],
            events: vec![measure(7, 50)],
        };
        let top = unit(vec![
            Ev::Call {
                callee: 0,
                args: vec![Some(0)],
            },
            quse(0, 20),
        ]);
        let f = must_measured_findings(&top, &[callee]);
        assert_eq!(f.len(), 1);
        // The note points into the callee body.
        assert_eq!(f[0].notes[0].1, Span::new(50, 51));
    }

    #[test]
    fn callee_that_reassigns_its_param_clears_the_fact() {
        let callee = Unit {
            params: vec![7],
            events: vec![Ev::Reset { var: 7 }],
        };
        let top = unit(vec![
            measure(0, 10),
            Ev::Call {
                callee: 0,
                args: vec![Some(0)],
            },
            quse(0, 20),
        ]);
        let f = must_measured_findings(&top, &[callee]);
        assert!(f.is_empty());
    }

    #[test]
    fn callee_measuring_on_one_path_only_does_not_propagate() {
        let callee = Unit {
            params: vec![7],
            events: vec![
                Ev::BranchStart { has_else: false },
                Ev::ArmStart,
                measure(7, 50),
                Ev::ArmEnd,
                Ev::BranchEnd,
            ],
        };
        let top = unit(vec![
            Ev::Call {
                callee: 0,
                args: vec![Some(0)],
            },
            quse(0, 20),
        ]);
        let f = must_measured_findings(&top, &[callee]);
        assert!(f.is_empty());
    }

    #[test]
    fn recursion_falls_back_to_the_bottom_summary() {
        let a = Unit {
            params: vec![7],
            events: vec![
                measure(7, 50),
                Ev::Call {
                    callee: 0,
                    args: vec![Some(7)],
                },
            ],
        };
        let top = unit(vec![
            Ev::Call {
                callee: 0,
                args: vec![Some(0)],
            },
            quse(0, 20),
        ]);
        // The recursive call's bottom summary resets the param, so the
        // measure before it does not survive to the exit: no finding.
        let f = must_measured_findings(&top, &[a]);
        assert!(f.is_empty());
    }

    #[test]
    fn summary_chains_through_a_wrapper_function() {
        // outer(p) { inner(p) }  inner(p) { measure p }
        let inner = Unit {
            params: vec![8],
            events: vec![measure(8, 60)],
        };
        let outer = Unit {
            params: vec![7],
            events: vec![Ev::Call {
                callee: 0,
                args: vec![Some(7)],
            }],
        };
        let top = unit(vec![
            Ev::Call {
                callee: 1,
                args: vec![Some(0)],
            },
            quse(0, 20),
        ]);
        let f = must_measured_findings(&top, &[inner, outer]);
        assert_eq!(f.len(), 1, "the measure must chain through the wrapper");
        assert_eq!(f[0].notes[0].1, Span::new(60, 61));
    }

    #[test]
    fn code_after_return_is_unreachable_and_never_flags() {
        let f = run_top(vec![measure(0, 10), Ev::Ret, quse(0, 20)]);
        assert!(f.is_empty());
    }
}
