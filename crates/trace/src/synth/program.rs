//! The synthetic program skeleton and its trace-emitting interpreter.
//!
//! A [`Program`] is a DAG of functions (callees always have a higher index
//! than their callers, so execution terminates). The first
//! `request_types` functions are *entry points* — each generated "request"
//! dispatches to one of them with a Zipf-like popularity skew, imitating a
//! server handling a stream of heterogeneous requests. The trailing
//! `shared_functions` form a "library" tier reached from many distinct
//! call chains; their context-dependent branches are the complex branches
//! of §II-D / §IV.

use super::behavior::{Behavior, BehaviorState};
use super::catalog::WorkloadParams;
use super::{NoSink, ProgressSink, GEN_POLL_INTERVAL};
use crate::record::{BranchKind, BranchRecord, Trace};
use bputil::hash::mix64;
use bputil::rng::SplitMix64;

/// Address of the first function; functions are packed contiguously (as a
/// real binary's text section is), 64-byte aligned.
const CODE_BASE: u64 = 0x0040_0000;
const FUNC_ALIGN: u64 = 64;
/// Hard bound on dynamic call depth (defence against degenerate layouts).
const MAX_DEPTH: usize = 192;

/// One statement of a function body.
#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    /// A conditional branch with an assigned outcome behaviour.
    Cond { pc: u64, target: u64, behavior: Behavior },
    /// A direct call to `callee`.
    Call { pc: u64, callee: usize },
    /// An indirect call choosing between several callees; `entropy` is the
    /// probability of picking uniformly at random instead of the
    /// context-determined target.
    IndirectCall { pc: u64, callees: Vec<usize>, entropy: f64 },
    /// A counted loop: run `body`, then a backwards conditional branch at
    /// `backedge_pc` that is taken while iterations remain.
    Loop { backedge_pc: u64, target: u64, body: Vec<Stmt>, trips: TripCount },
}

/// How a loop's iteration count is chosen per visit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TripCount {
    /// Always the same count — the loop predictor's bread and butter.
    Fixed(u32),
    /// Uniform in `[min, max]`, drawn from the run's PRNG.
    Uniform { min: u32, max: u32 },
    /// Determined by the calling context (predictable given the context).
    Context { min: u32, max: u32 },
}

/// A generated function: a body of statements in an 8 KiB code region.
#[derive(Debug, Clone, PartialEq)]
struct Function {
    base_pc: u64,
    stmts: Vec<Stmt>,
    /// PC of the return instruction.
    ret_pc: u64,
    /// First address past the function (for contiguous packing).
    end_pc: u64,
    /// Static call sites in the body (including inside loops); used to
    /// scale the per-site execution probability so the *expected* number
    /// of executed calls per invocation is `params.call_fanout`.
    static_calls: usize,
}

fn count_calls(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Call { .. } | Stmt::IndirectCall { .. } => 1,
            Stmt::Loop { body, .. } => count_calls(body),
            Stmt::Cond { .. } => 0,
        })
        .sum()
}

/// A complete synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    functions: Vec<Function>,
    params: WorkloadParams,
    /// Cumulative Zipf weights over entry functions.
    entry_cdf: Vec<f64>,
}

impl Program {
    /// Number of functions in the program.
    #[must_use]
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Total number of static conditional branch sites (including loop
    /// back-edges).
    #[must_use]
    pub fn static_conditionals(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Cond { .. } => 1,
                    Stmt::Loop { body, .. } => 1 + count(body),
                    _ => 0,
                })
                .sum()
        }
        self.functions.iter().map(|f| count(&f.stmts)).sum()
    }

    /// Maps every static conditional branch PC to its behaviour (loop
    /// back-edges map to `None`). Useful for analysis tooling that wants
    /// to attribute mispredictions to behaviour classes.
    #[must_use]
    pub fn behavior_map(&self) -> std::collections::HashMap<u64, Option<Behavior>> {
        fn walk(stmts: &[Stmt], out: &mut std::collections::HashMap<u64, Option<Behavior>>) {
            for s in stmts {
                match s {
                    Stmt::Cond { pc, behavior, .. } => {
                        out.insert(*pc, Some(*behavior));
                    }
                    Stmt::Loop { backedge_pc, body, .. } => {
                        out.insert(*backedge_pc, None);
                        walk(body, out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = std::collections::HashMap::new();
        for f in &self.functions {
            walk(&f.stmts, &mut out);
        }
        out
    }

    /// Interprets the program, emitting `branches` records.
    #[must_use]
    pub fn execute(&self, name: &str, branches: usize) -> Trace {
        self.execute_with_sink(name, branches, &NoSink).expect("NoSink never aborts")
    }

    /// [`Program::execute`] with a cancellation hook: `sink` is polled
    /// once up front and then every [`GEN_POLL_INTERVAL`] emitted
    /// records. Returns `None` when the sink aborts, never a truncated
    /// trace.
    #[must_use]
    pub fn execute_with_sink(
        &self,
        name: &str,
        branches: usize,
        sink: &dyn ProgressSink,
    ) -> Option<Trace> {
        // XOR a constant so the execution RNG stream differs from the
        // build-time RNG stream even for seed 0.
        let mut run = Run {
            program: self,
            rng: SplitMix64::new(self.params.seed ^ 0x5ca1_ab1e),
            state: BehaviorState::new(),
            records: Vec::new(),
            limit: branches,
            fuel: 0,
            call_stack: Vec::with_capacity(MAX_DEPTH + 1),
            sink,
            emitted: 0,
            aborted: false,
        };
        // The up-front poll catches a deadline that expired before
        // generation even started (e.g. an injected pre-generation delay).
        run.aborted = !sink.on_progress(0);
        while !run.done() {
            let entry = run.pick_entry();
            run.fuel = 150 + run.rng.below(2350);
            run.call_stack.clear();
            run.call_stack.push(mix64(0xE117_u64 ^ entry as u64));
            // Requests "return" to a fixed dispatcher address.
            run.call_function(entry, CODE_BASE - 0x100, 0);
        }
        if run.aborted {
            return None;
        }
        sink.on_complete(run.emitted);
        // Hand over the run's own records. Growth by doubling can leave
        // up to twice the length in capacity; shrinking before trimming the
        // last request's overshoot leaves at most 64 records spare, and the
        // system allocator shrinks in place, without a copy.
        let mut records = run.records;
        records.shrink_to_fit();
        records.truncate(branches);
        Some(Trace::from_records(name, records))
    }
}

/// Per-invocation call-site execution control (see [`Run::take_call`]).
struct CallCtl {
    /// Running index of call sites encountered during this invocation.
    next_site: u64,
    /// The site index (mod static sites) guaranteed to execute.
    forced_site: u64,
    /// Whether the forced site has executed yet.
    forced_done: bool,
}

/// How many trailing call-chain frames define a branch's behavioural
/// context. Keeping this *windowed* (rather than hashing the entire chain)
/// mirrors real code, where behaviour localises to the recent callers —
/// the property LLBP's finite context window exploits (§IV).
const CONTEXT_FRAMES: usize = 3;

/// Interpreter state for one trace generation run.
struct Run<'p> {
    program: &'p Program,
    rng: SplitMix64,
    state: BehaviorState,
    records: Vec<BranchRecord>,
    limit: usize,
    /// Remaining record budget for the current request. Bounds request
    /// size so a single deep loop-nest cannot monopolise the trace and the
    /// request mix stays server-like.
    fuel: u64,
    /// Call-site PCs of the live call chain (innermost last).
    call_stack: Vec<u64>,
    /// Cancellation hook, polled every [`GEN_POLL_INTERVAL`] emits.
    sink: &'p dyn ProgressSink,
    /// Records emitted so far (unlike `records.len()`, never capped), the
    /// poll-point counter.
    emitted: usize,
    /// Set once the sink aborts; [`Run::done`] then unwinds the
    /// interpreter at the next statement boundary.
    aborted: bool,
}

impl Run<'_> {
    fn pick_entry(&mut self) -> usize {
        let cdf = &self.program.entry_cdf;
        let total = *cdf.last().expect("at least one entry function");
        let x = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        cdf.iter().position(|&c| x < c).unwrap_or(cdf.len() - 1)
    }

    fn gap(&mut self) -> u32 {
        let mean = self.program.params.mean_block_insts.max(1);
        self.rng.below(u64::from(2 * mean) + 1) as u32
    }

    fn emit(&mut self, record: BranchRecord) {
        self.fuel = self.fuel.saturating_sub(1);
        if self.records.len() < self.limit + 64 {
            self.records.push(record);
        }
        self.emitted += 1;
        if self.emitted.is_multiple_of(GEN_POLL_INTERVAL) && !self.sink.on_progress(self.emitted) {
            self.aborted = true;
        }
    }

    fn done(&self) -> bool {
        self.aborted || self.records.len() >= self.limit
    }

    /// Decides whether a call site in function `fidx` is executed this
    /// visit. One uniformly chosen call site per invocation always
    /// executes (keeping call chains — and thus context diversity and
    /// call-graph coverage — alive); additional sites execute with a
    /// probability targeting `call_fanout` expected calls per invocation.
    fn take_call(&mut self, fidx: usize, ctl: &mut CallCtl) -> bool {
        let site = ctl.next_site;
        ctl.next_site += 1;
        if self.fuel == 0 {
            return false;
        }
        let statics = self.program.functions[fidx].static_calls.max(1) as u64;
        if !ctl.forced_done && site % statics == ctl.forced_site {
            ctl.forced_done = true;
            return true;
        }
        let extra = (self.program.params.call_fanout - 1.0).max(0.0);
        let p = (extra / statics as f64).clamp(0.0, 1.0);
        let roll = (self.rng.next_u64() >> 40) as f64 / (1u64 << 24) as f64;
        roll < p
    }

    /// The behavioural context signature: a positional fold of the last
    /// [`CONTEXT_FRAMES`] call-chain entries.
    fn ctx_sig(&self) -> u64 {
        self.call_stack
            .iter()
            .rev()
            .take(CONTEXT_FRAMES)
            .enumerate()
            .fold(0u64, |acc, (i, &pc)| acc ^ mix64(pc).rotate_left(7 * i as u32))
    }

    fn call_function(&mut self, idx: usize, ret_to: u64, depth: usize) {
        let f = &self.program.functions[idx];
        let statics = f.static_calls.max(1) as u64;
        // Control flow in real code is highly repetitive: most invocations
        // take the function's hot path. 90% of invocations execute the
        // function's (fixed) hot call site; the rest pick uniformly, which
        // keeps the whole static call graph covered over time.
        let hot_site = bputil::hash::mix64(f.base_pc) % statics;
        let forced_site = if self.rng.chance(9, 10) { hot_site } else { self.rng.below(statics) };
        let mut ctl = CallCtl { next_site: 0, forced_site, forced_done: false };
        self.run_stmts(&f.stmts, depth, idx, &mut ctl);
        // Function return: control transfers back to the instruction after
        // the call site (so a return-address stack predicts it).
        let gap = self.gap();
        self.emit(BranchRecord::unconditional(f.ret_pc, ret_to, BranchKind::Return, gap));
    }

    fn run_stmts(&mut self, stmts: &[Stmt], depth: usize, fidx: usize, ctl: &mut CallCtl) {
        for stmt in stmts {
            if self.done() {
                return;
            }
            match stmt {
                Stmt::Cond { pc, target, behavior } => {
                    let ctx = self.ctx_sig();
                    let taken = self.state.evaluate(*behavior, *pc, ctx, &mut self.rng);
                    let gap = self.gap();
                    self.emit(BranchRecord::conditional(*pc, *target, taken, gap));
                }
                Stmt::Call { pc, callee } => {
                    if depth >= MAX_DEPTH || !self.take_call(fidx, ctl) {
                        continue;
                    }
                    let target = self.program.functions[*callee].base_pc;
                    let gap = self.gap();
                    self.emit(BranchRecord::unconditional(
                        *pc,
                        target,
                        BranchKind::DirectCall,
                        gap,
                    ));
                    self.call_stack.push(*pc);
                    self.call_function(*callee, *pc + 4, depth + 1);
                    self.call_stack.pop();
                }
                Stmt::IndirectCall { pc, callees, entropy } => {
                    if depth >= MAX_DEPTH || callees.is_empty() || !self.take_call(fidx, ctl) {
                        continue;
                    }
                    let roll = (self.rng.next_u64() >> 40) as f64 / (1u64 << 24) as f64;
                    let random_pick = roll < *entropy;
                    let which = if random_pick {
                        self.rng.below(callees.len() as u64) as usize
                    } else {
                        (mix64(self.ctx_sig() ^ *pc) % callees.len() as u64) as usize
                    };
                    let callee = callees[which];
                    let target = self.program.functions[callee].base_pc;
                    let gap = self.gap();
                    self.emit(BranchRecord::unconditional(
                        *pc,
                        target,
                        BranchKind::IndirectCall,
                        gap,
                    ));
                    // The callee's context differs per selected target.
                    // Distinguish the selected target in the chain context.
                    self.call_stack.push(*pc ^ (callee as u64) << 3);
                    self.call_function(callee, *pc + 4, depth + 1);
                    self.call_stack.pop();
                }
                Stmt::Loop { backedge_pc, target, body, trips } => {
                    let n = match *trips {
                        TripCount::Fixed(n) => n,
                        TripCount::Uniform { min, max } => {
                            min + self.rng.below(u64::from(max - min) + 1) as u32
                        }
                        TripCount::Context { min, max } => {
                            min + (mix64(self.ctx_sig() ^ *backedge_pc) % u64::from(max - min + 1))
                                as u32
                        }
                    }
                    .max(1);
                    for iter in 0..n {
                        if self.done() {
                            return;
                        }
                        if self.fuel == 0 && iter > 0 {
                            break;
                        }
                        self.run_stmts(body, depth, fidx, ctl);
                        let taken = iter + 1 < n; // back-edge taken while looping
                        let gap = self.gap();
                        self.emit(BranchRecord::conditional(*backedge_pc, *target, taken, gap));
                    }
                }
            }
        }
    }
}

/// Builds a [`Program`] from workload parameters. Construction is
/// deterministic in `params.seed`.
#[derive(Debug)]
pub struct ProgramBuilder {
    params: WorkloadParams,
    rng: SplitMix64,
}

impl ProgramBuilder {
    /// Creates a builder for the given parameters.
    #[must_use]
    pub fn new(params: WorkloadParams) -> Self {
        let rng = SplitMix64::new(params.seed);
        Self { params, rng }
    }

    /// Generates the program skeleton.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (no functions, no entry
    /// points, or more shared functions than functions).
    #[must_use]
    pub fn build(mut self) -> Program {
        let p = self.params.clone();
        assert!(p.functions >= 4, "need at least 4 functions");
        assert!(p.request_types >= 1, "need at least one request type");
        assert!(p.shared_functions < p.functions, "shared tier larger than program");

        let n = p.functions;
        let shared_start = n - p.shared_functions.max(1);
        let mut functions = Vec::with_capacity(n);
        let mut cursor = CODE_BASE;
        for idx in 0..n {
            let f = self.build_function(idx, n, shared_start, cursor);
            cursor = (f.end_pc + FUNC_ALIGN) & !(FUNC_ALIGN - 1);
            functions.push(f);
        }

        // Zipf-ish popularity over entry functions: weight 1/sqrt(rank+1),
        // a mild skew so no single handler dominates the trace.
        let entries = p.request_types.min(shared_start.max(1));
        let mut acc = 0.0;
        let entry_cdf = (0..entries)
            .map(|i| {
                acc += 1.0 / (i as f64 + 1.0).sqrt();
                acc
            })
            .collect();

        Program { functions, params: p, entry_cdf }
    }

    fn build_function(
        &mut self,
        idx: usize,
        n: usize,
        shared_start: usize,
        base_pc: u64,
    ) -> Function {
        let p = self.params.clone();
        let mut pc = base_pc;
        let mut next_pc = |step: u64| {
            let cur = pc;
            pc += 4 * step;
            cur
        };

        let in_shared = idx >= shared_start;
        let conds = p.conds_min + (self.rng.below((p.conds_max - p.conds_min + 1) as u64) as usize);
        let calls = if idx + 1 >= n {
            0
        } else {
            p.calls_min + (self.rng.below((p.calls_max - p.calls_min + 1) as u64) as usize)
        };

        // Interleave conditionals and calls; optionally wrap a suffix of
        // the body in a loop.
        let mut stmts: Vec<Stmt> = Vec::new();
        for _ in 0..conds {
            let bpc = next_pc(2);
            let behavior = self.pick_behavior(in_shared);
            let target = bpc + 4 * (2 + self.rng.below(12));
            stmts.push(Stmt::Cond { pc: bpc, target, behavior });
        }
        for _ in 0..calls {
            let cpc = next_pc(2);
            let lo = idx + 1;
            // Calls target either the next tier (locality) or the shared
            // library at the end.
            let call_shared = self.rng.chance((p.shared_call_permille) as u64, 1000);
            // Callees always have a strictly greater index than the caller
            // so the call graph stays a DAG and every request terminates.
            let callee = if call_shared || lo >= shared_start {
                let lo2 = lo.max(shared_start);
                lo2 + self.rng.below((n - lo2) as u64) as usize
            } else {
                let hi = (lo + p.call_span).min(shared_start);
                lo + self.rng.below((hi - lo) as u64) as usize
            };
            let indirect = self.rng.chance((p.icall_permille) as u64, 1000);
            if indirect {
                // 2-6 possible targets drawn near the chosen callee.
                let fan = 2 + self.rng.below(5) as usize;
                let mut callees = Vec::with_capacity(fan);
                for k in 0..fan {
                    let c = (callee + k) % n;
                    if c > idx {
                        callees.push(c);
                    }
                }
                if callees.is_empty() {
                    callees.push(callee.max(idx + 1).min(n - 1));
                }
                stmts.push(Stmt::IndirectCall { pc: cpc, callees, entropy: p.icall_entropy });
            } else {
                stmts.push(Stmt::Call { pc: cpc, callee });
            }
        }
        // Shuffle statement order (Fisher-Yates) so calls and branches
        // interleave differently per function.
        for i in (1..stmts.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            stmts.swap(i, j);
        }

        // Optionally wrap the tail of the body in a loop.
        if self.rng.chance((p.loop_permille) as u64, 1000) && !stmts.is_empty() {
            let split = stmts.len() - 1 - self.rng.below(stmts.len() as u64) as usize;
            let body: Vec<Stmt> = stmts.split_off(split);
            let backedge_pc = next_pc(2);
            let trips = match self.rng.below(8) {
                0 => TripCount::Uniform {
                    min: 1 + self.rng.below(2) as u32,
                    max: 3 + self.rng.below(6) as u32,
                },
                1 | 2 => TripCount::Context {
                    min: 1 + self.rng.below(2) as u32,
                    max: 3 + self.rng.below(6) as u32,
                },
                _ => TripCount::Fixed(2 + self.rng.below(8) as u32),
            };
            stmts.push(Stmt::Loop { backedge_pc, target: base_pc, body, trips });
        }

        let ret_pc = next_pc(1);
        let static_calls = count_calls(&stmts);
        Function { base_pc, stmts, ret_pc, end_pc: pc, static_calls }
    }

    fn pick_behavior(&mut self, in_shared: bool) -> Behavior {
        let p = &self.params;
        let roll = self.rng.below(1000) as f64 / 1000.0;
        if in_shared && roll < p.context_fraction {
            let k = 1 + self.rng.below(u64::from(p.ctx_max_len.clamp(1, 3))) as u32;
            return Behavior::ContextTable { k };
        }
        let roll = self.rng.below(1000) as f64 / 1000.0;
        if roll < p.noise_fraction {
            let p_taken = 0.2 + (self.rng.below(600) as f64) / 1000.0;
            return Behavior::Random { p_taken };
        }
        if roll < p.noise_fraction + p.hard_global_fraction {
            // Long-but-learnable correlation: needs ≈2^lookback patterns,
            // feasible only with generous capacity (the Inf TAGE headroom).
            let lookback = 8 + self.rng.below(3) as u32;
            return Behavior::GlobalParity { lookback };
        }
        match self.rng.below(5) {
            0 | 1 => {
                // Strongly biased either way.
                let toward_taken = self.rng.chance(1, 2);
                let eps = (self.rng.below(20) as f64) / 1000.0;
                Behavior::Biased { p_taken: if toward_taken { 1.0 - eps } else { eps } }
            }
            2 | 3 => Behavior::PathTable { k: 1 + self.rng.below(3) as u32 },
            _ => Behavior::GlobalParity { lookback: 2 + self.rng.below(2) as u32 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::catalog::Workload;

    fn small_params() -> WorkloadParams {
        let mut p = Workload::NodeApp.params();
        p.functions = 32;
        p.shared_functions = 8;
        p.request_types = 4;
        p
    }

    #[test]
    fn builder_is_deterministic() {
        let a = ProgramBuilder::new(small_params()).build();
        let b = ProgramBuilder::new(small_params()).build();
        assert_eq!(a, b);
    }

    #[test]
    fn execute_emits_exact_count() {
        let prog = ProgramBuilder::new(small_params()).build();
        let t = prog.execute("x", 1234);
        assert_eq!(t.len(), 1234);
    }

    #[test]
    fn trace_contains_calls_and_returns() {
        let prog = ProgramBuilder::new(small_params()).build();
        let t = prog.execute("x", 5000);
        let stats = t.stats();
        assert!(stats.count(BranchKind::DirectCall) > 0);
        assert!(stats.count(BranchKind::Return) > 0);
        assert!(stats.conditional > 0);
    }

    #[test]
    fn static_conditionals_counted() {
        let prog = ProgramBuilder::new(small_params()).build();
        assert!(prog.static_conditionals() > 32, "each function has branches");
    }

    #[test]
    fn pcs_are_packed_above_code_base() {
        let prog = ProgramBuilder::new(small_params()).build();
        let t = prog.execute("x", 2000);
        for r in &t {
            assert!(r.pc() >= CODE_BASE);
            // 32 small functions pack into well under 64 KiB.
            assert!(r.pc() < CODE_BASE + 0x1_0000);
        }
    }
}
