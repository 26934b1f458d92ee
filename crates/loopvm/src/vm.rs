//! The virtual machine: buffer storage and the CPU executors.
//!
//! Programs run on the optimized register bytecode ([`crate::opt`]), or on
//! native code compiled from it ([`crate::jit`]). The bytecode interpreter
//! is generic over one observer hook: unobserved runs compile with no
//! checks, `TIRAMISU_PROFILE` runs feed the sampled loop profiler, and
//! [`Machine::run_with_stats`] prices every instruction with the
//! [`CostModel`] and its cache simulator. Three execution paths give the
//! substrate its performance texture:
//!
//! - **serial**: straightforward interpretation,
//! - **parallel** ([`LoopKind::Parallel`]): the iteration range is split
//!   across OS threads (`std::thread::scope`) — buffers are shared;
//!   legality (no cross-iteration dependences) is the *compiler's*
//!   responsibility, exactly as with real parallel codegen,
//! - **vector** ([`LoopKind::Vectorize`]): the body is evaluated over
//!   lanes of [`LANES`] iterations at once, amortizing interpreter dispatch
//!   the way SIMD amortizes instruction issue.
//!
//! A small stack-code tree-walk over the source statements
//! ([`Machine::run_tree_walk`]) is kept as the differential oracle every
//! backend is tested against.

use crate::bytecode::{BCode, BcProgram, BcStmt, Inst, InstClassCounts};
use crate::cost::{CacheSim, CostModel};
use crate::expr::{BinOp, Expr, Ty, UnOp};
use crate::program::{BufId, LoopKind, Program, Stmt};
use crate::{Error, Result};
use std::cell::UnsafeCell;

/// Vector lane width of the VM (iterations evaluated per dispatch in
/// vectorized loops).
pub const LANES: usize = 8;

/// Execution statistics gathered by [`Machine::run_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Innermost statement executions.
    pub stores: u64,
    /// Buffer element reads.
    pub loads: u64,
    /// Floating-point binary operations.
    pub flops: u64,
    /// Loop iterations entered (all levels).
    pub iterations: u64,
    /// Modeled execution cycles under the machine's [`CostModel`]:
    /// arithmetic dispatch + cache-simulated memory costs, with `parallel`
    /// loop bodies divided by the modeled core count and vector operations
    /// amortized per lane group.
    pub cycles: f64,
    /// L1 misses observed by the cache simulator.
    pub l1_misses: u64,
    /// L2 misses observed by the cache simulator.
    pub l2_misses: u64,
}

impl RunStats {
    /// Adds another run's counts and cycles to these (e.g. to total the
    /// compute chunks of one distributed rank).
    pub fn add(&mut self, o: &RunStats) {
        self.stores += o.stores;
        self.loads += o.loads;
        self.flops += o.flops;
        self.iterations += o.iterations;
        self.cycles += o.cycles;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
    }

    /// Multi-line human-readable rendering (one metric per row), for
    /// examples and observability demos.
    #[must_use]
    pub fn report(&self) -> String {
        format!(
            "cpu run stats\n  modeled cycles   {:>14.0}\n  iterations       {:>14}\n  flops            {:>14}\n  loads            {:>14}\n  stores           {:>14}\n  L1 misses        {:>14}\n  L2 misses        {:>14}\n",
            self.cycles,
            self.iterations,
            self.flops,
            self.loads,
            self.stores,
            self.l1_misses,
            self.l2_misses
        )
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} cycles, {} iters, {} flops, {} loads, {} stores, {} L1m, {} L2m",
            self.cycles,
            self.iterations,
            self.flops,
            self.loads,
            self.stores,
            self.l1_misses,
            self.l2_misses
        )
    }
}

// ---------------------------------------------------------------------------
// Stack code (the tree-walk oracle and scalar thunks)
// ---------------------------------------------------------------------------

/// One stack-code operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Push an `f32` constant.
    PushF(f32),
    /// Push an `i64` constant.
    PushI(i64),
    /// Push the value of a variable slot.
    LoadVar(u32),
    /// Pop an index, push `buffer[index]`.
    Load(u32),
    /// `f32` binary operation.
    BinF(BinOp),
    /// `i64` binary operation.
    BinI(BinOp),
    /// `f32` comparison (pushes `i64` 0/1).
    CmpF(BinOp),
    /// `i64` comparison (pushes `i64` 0/1).
    CmpI(BinOp),
    /// `f32` unary operation.
    UnF(UnOp),
    /// `i64` unary operation.
    UnI(UnOp),
    /// `f32` select (pops b, a, cond).
    SelF,
    /// `i64` select.
    SelI,
    /// Cast `i64` → `f32`.
    CastIF,
    /// Cast `f32` → `i64`.
    CastFI,
}

/// A compiled expression: a flat operation sequence plus its result type.
#[derive(Debug, Clone)]
pub(crate) struct Code {
    /// The operations, in evaluation order.
    ops: Vec<Op>,
    /// Result type.
    ty: Ty,
}

/// Compiles an expression tree into stack code; [`Error::Type`] on
/// operand mismatches.
fn compile(e: &Expr) -> Result<Code> {
    let mut ops = Vec::new();
    let ty = compile_into(e, &mut ops)?;
    Ok(Code { ops, ty })
}

fn compile_into(e: &Expr, ops: &mut Vec<Op>) -> Result<Ty> {
    match e {
        Expr::ConstF(v) => {
            ops.push(Op::PushF(*v));
            Ok(Ty::F32)
        }
        Expr::ConstI(v) => {
            ops.push(Op::PushI(*v));
            Ok(Ty::I64)
        }
        Expr::Var(v) => {
            ops.push(Op::LoadVar(v.0));
            Ok(Ty::I64)
        }
        Expr::Load(b, idx) => {
            let t = compile_into(idx, ops)?;
            if t != Ty::I64 {
                return Err(Error::Type("load index must be i64".into()));
            }
            ops.push(Op::Load(b.0));
            Ok(Ty::F32)
        }
        Expr::Bin(op, a, b) => {
            let ta = compile_into(a, ops)?;
            let tb = compile_into(b, ops)?;
            if ta != tb {
                return Err(Error::Type(format!("operands of {op:?} disagree")));
            }
            match op {
                BinOp::Lt | BinOp::Le | BinOp::EqCmp => {
                    ops.push(if ta == Ty::F32 { Op::CmpF(*op) } else { Op::CmpI(*op) });
                    Ok(Ty::I64)
                }
                BinOp::And | BinOp::Or => {
                    if ta != Ty::I64 {
                        return Err(Error::Type("logical ops need i64".into()));
                    }
                    ops.push(Op::BinI(*op));
                    Ok(Ty::I64)
                }
                _ => {
                    ops.push(if ta == Ty::F32 { Op::BinF(*op) } else { Op::BinI(*op) });
                    Ok(ta)
                }
            }
        }
        Expr::Un(op, a) => {
            let t = compile_into(a, ops)?;
            match (op, t) {
                (UnOp::Sqrt | UnOp::Exp, Ty::I64) => {
                    Err(Error::Type(format!("{op:?} needs f32")))
                }
                (UnOp::Not, Ty::F32) => Err(Error::Type("not needs i64".into())),
                (_, Ty::F32) => {
                    ops.push(Op::UnF(*op));
                    Ok(Ty::F32)
                }
                (_, Ty::I64) => {
                    ops.push(Op::UnI(*op));
                    Ok(Ty::I64)
                }
            }
        }
        Expr::Select(c, a, b) => {
            let tc = compile_into(c, ops)?;
            if tc != Ty::I64 {
                return Err(Error::Type("select condition must be i64".into()));
            }
            let ta = compile_into(a, ops)?;
            let tb = compile_into(b, ops)?;
            if ta != tb {
                return Err(Error::Type("select arms disagree".into()));
            }
            ops.push(if ta == Ty::F32 { Op::SelF } else { Op::SelI });
            Ok(ta)
        }
        Expr::Cast(t, a) => {
            let ta = compile_into(a, ops)?;
            match (ta, t) {
                (Ty::I64, Ty::F32) => ops.push(Op::CastIF),
                (Ty::F32, Ty::I64) => ops.push(Op::CastFI),
                _ => {}
            }
            Ok(*t)
        }
    }
}

#[derive(Debug, Clone)]
enum CStmt {
    For { var: u32, lower: Code, upper: Code, kind: LoopKind, body: Vec<CStmt> },
    If { cond: Code, then: Vec<CStmt>, else_: Vec<CStmt> },
    Store { buf: u32, index: Code, value: Code },
    Let { var: u32, value: Code },
}

fn compile_stmt(s: &Stmt) -> Result<CStmt> {
    Ok(match s {
        Stmt::For { var, lower, upper, kind, body } => CStmt::For {
            var: var.0,
            lower: compile(lower)?,
            upper: compile(upper)?,
            kind: *kind,
            body: body.iter().map(compile_stmt).collect::<Result<_>>()?,
        },
        Stmt::If { cond, then, else_ } => CStmt::If {
            cond: compile(cond)?,
            then: then.iter().map(compile_stmt).collect::<Result<_>>()?,
            else_: else_.iter().map(compile_stmt).collect::<Result<_>>()?,
        },
        Stmt::Store { buf, index, value } => {
            let index = compile(index)?;
            let value = compile(value)?;
            if index.ty != Ty::I64 {
                return Err(Error::Type("store index must be i64".into()));
            }
            if value.ty != Ty::F32 {
                return Err(Error::Type("store value must be f32".into()));
            }
            CStmt::Store { buf: buf.0, index, value }
        }
        Stmt::Let { var, value } => {
            let value = compile(value)?;
            if value.ty != Ty::I64 {
                return Err(Error::Type("let binds i64 values".into()));
            }
            CStmt::Let { var: var.0, value }
        }
    })
}

// ---------------------------------------------------------------------------
// Buffers (shared across worker threads)
// ---------------------------------------------------------------------------

pub(crate) struct SharedBuf {
    name: String,
    data: UnsafeCell<Box<[f32]>>,
}

// SAFETY: buffers are raced only inside `Parallel` loops; the compilers
// targeting this VM are responsible for parallelizing only dependence-free
// loops, exactly as with native codegen. Disjoint iterations touch disjoint
// elements; simultaneous writes to one element would be a compiler bug, the
// same class of bug that native OpenMP codegen would exhibit.
unsafe impl Sync for SharedBuf {}

impl SharedBuf {
    #[inline]
    fn get(&self, idx: i64) -> Result<f32> {
        let data = unsafe { &*self.data.get() };
        if idx < 0 || idx as usize >= data.len() {
            return Err(Error::OutOfBounds {
                buffer: self.name.clone(),
                index: idx,
                size: data.len(),
            });
        }
        Ok(unsafe { *data.get_unchecked(idx as usize) })
    }

    #[inline]
    fn set(&self, idx: i64, v: f32) -> Result<()> {
        let data = unsafe { &mut *self.data.get() };
        if idx < 0 || idx as usize >= data.len() {
            return Err(Error::OutOfBounds {
                buffer: self.name.clone(),
                index: idx,
                size: data.len(),
            });
        }
        unsafe {
            *data.get_unchecked_mut(idx as usize) = v;
        }
        Ok(())
    }

    /// Buffer name, as reported in [`Error::OutOfBounds`].
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Element count.
    pub(crate) fn len(&self) -> usize {
        unsafe { &*self.data.get() }.len()
    }

    /// Raw element pointer for the JIT's buffer descriptor table. Aliasing
    /// follows the same rules as `get`/`set` (see the `Sync` safety note).
    pub(crate) fn data_ptr(&self) -> *mut f32 {
        unsafe { &mut *self.data.get() }.as_mut_ptr()
    }
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

/// Which executor [`Machine::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The optimized register bytecode ([`crate::opt`]) on the
    /// interpreter.
    #[default]
    Bytecode,
    /// The stack-code tree-walk over the source statements: the oracle
    /// the other executors are differentially tested against. It is only
    /// selected explicitly ([`Machine::set_exec_mode`]), and it does not
    /// gather statistics.
    TreeWalk,
    /// Native x86-64 code generated by [`crate::jit`]: the default on
    /// supported targets (opt out with `LOOPVM_JIT=0`). Programs the JIT
    /// cannot compile — and all programs on unsupported targets — run on
    /// the bytecode interpreter instead, with identical observable
    /// behavior.
    Jit,
}

impl ExecMode {
    /// The one place executor-mode environment variables are interpreted
    /// (per [`telemetry::env_flag`] semantics).
    ///
    /// When the target supports the native tier, `Jit` is selected
    /// unless `LOOPVM_JIT` is set to an off value (`0` or empty);
    /// everything else resolves to `Bytecode`.
    #[must_use]
    pub fn from_env() -> ExecMode {
        if crate::jit::supported()
            && (std::env::var_os("LOOPVM_JIT").is_none() || telemetry::env_flag("LOOPVM_JIT"))
        {
            ExecMode::Jit
        } else {
            ExecMode::Bytecode
        }
    }
}

/// An execution machine holding the buffer storage for a [`Program`].
pub struct Machine {
    bufs: Vec<SharedBuf>,
    threads: usize,
    cost: CostModel,
    /// Modeled base address of every buffer (for the cache simulator).
    bases: Vec<u64>,
    mode: ExecMode,
}

/// Always-on process-wide VM metrics: whether [`Machine::run`] found its
/// program already compiled (`vm.bc_cache.hits`) or compiled it
/// (`vm.bc_cache.misses`), JIT compile outcomes, and per-tier run latency
/// histograms.
pub(crate) struct VmMetrics {
    bc_cache_hits: std::sync::Arc<telemetry::metrics::Counter>,
    bc_cache_misses: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_compiles: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_fallbacks: std::sync::Arc<telemetry::metrics::Counter>,
    pub(crate) jit_compile_us: std::sync::Arc<telemetry::metrics::Histogram>,
    run_jit_us: std::sync::Arc<telemetry::metrics::Histogram>,
    run_bytecode_us: std::sync::Arc<telemetry::metrics::Histogram>,
    run_tree_walk_us: std::sync::Arc<telemetry::metrics::Histogram>,
}

pub(crate) fn vm_metrics() -> &'static VmMetrics {
    static M: std::sync::OnceLock<VmMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| VmMetrics {
        bc_cache_hits: telemetry::metrics::counter("vm.bc_cache.hits"),
        bc_cache_misses: telemetry::metrics::counter("vm.bc_cache.misses"),
        jit_compiles: telemetry::metrics::counter("vm.jit.compiles"),
        jit_fallbacks: telemetry::metrics::counter("vm.jit.fallbacks"),
        jit_compile_us: telemetry::metrics::histogram("vm.jit.compile_us"),
        run_jit_us: telemetry::metrics::histogram("vm.run.jit_us"),
        run_bytecode_us: telemetry::metrics::histogram("vm.run.bytecode_us"),
        run_tree_walk_us: telemetry::metrics::histogram("vm.run.tree_walk_us"),
    })
}

struct ExecCtx<'a> {
    bufs: &'a [SharedBuf],
    threads: usize,
    frame: Vec<i64>,
    istack: Vec<i64>,
    fstack: Vec<f32>,
    vistack: Vec<[i64; LANES]>,
    vfstack: Vec<[f32; LANES]>,
}

impl<'a> ExecCtx<'a> {
    fn new(bufs: &'a [SharedBuf], threads: usize, frame: Vec<i64>) -> ExecCtx<'a> {
        ExecCtx {
            bufs,
            threads,
            frame,
            istack: Vec::with_capacity(16),
            fstack: Vec::with_capacity(16),
            vistack: Vec::with_capacity(16),
            vfstack: Vec::with_capacity(16),
        }
    }
}

impl Machine {
    /// Allocates zero-initialized storage for every buffer of `p`.
    pub fn new(p: &Program) -> Machine {
        let bufs: Vec<SharedBuf> = p
            .buffers
            .iter()
            .map(|(name, size)| SharedBuf {
                name: name.clone(),
                data: UnsafeCell::new(vec![0.0f32; *size].into_boxed_slice()),
            })
            .collect();
        // Distinct, line-aligned modeled base addresses per buffer.
        let mut bases = Vec::with_capacity(bufs.len());
        let mut next: u64 = 0;
        for (_, size) in &p.buffers {
            bases.push(next);
            next += ((*size as u64 * 4).div_ceil(64) + 1) * 64;
        }
        Machine {
            bufs,
            threads: default_threads(),
            cost: CostModel::default(),
            bases,
            mode: ExecMode::from_env(),
        }
    }

    /// Sets the cost model used by [`Machine::run_with_stats`].
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// The current cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Overrides the worker thread count used by parallel loops.
    ///
    /// A count of `0` is silently clamped to `1` (serial execution):
    /// parallel loops always run with at least one worker, so
    /// `set_threads(0)` and `set_threads(1)` are equivalent. The clamp is
    /// pinned by a regression test.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// The worker thread count parallel loops will use (after clamping).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Selects the executor used by [`Machine::run`]. The statistics
    /// paths ([`Machine::run_with_stats`],
    /// [`Machine::run_bytecode_with_stats`]) always run the program's
    /// bytecode on the interpreter, whatever the mode.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The executor [`Machine::run`] currently uses.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Read access to a buffer's storage.
    pub fn buffer(&self, b: BufId) -> &[f32] {
        unsafe { &*self.bufs[b.index()].data.get() }
    }

    /// Mutable access to a buffer's storage (e.g. to set inputs).
    pub fn buffer_mut(&mut self, b: BufId) -> &mut [f32] {
        unsafe { &mut *self.bufs[b.index()].data.get() }
    }

    /// Runs the program with the configured executor (by default native
    /// code where the JIT tier exists, else the optimized register
    /// bytecode; see [`Machine::set_exec_mode`]).
    ///
    /// The machine keeps no compiled code: it runs the code the program
    /// owns ([`Program::compiled`]). A program compiled by the pipeline or
    /// decoded from an artifact already carries bytecode; otherwise the
    /// first run compiles it. The first native run JIT-compiles it. Either
    /// way the code is shared by every clone of the program, on every
    /// machine, until a builder such as [`Program::set_body`] changes it.
    ///
    /// # Errors
    ///
    /// Type errors at bytecode compilation and out-of-bounds accesses at
    /// runtime.
    pub fn run(&mut self, p: &Program) -> Result<()> {
        match self.mode {
            ExecMode::Bytecode | ExecMode::Jit => {
                let m = vm_metrics();
                let compiled_now = p.bytecode().is_none();
                let code = p.compiled()?;
                if compiled_now {
                    m.bc_cache_misses.inc();
                } else {
                    m.bc_cache_hits.inc();
                }
                // The bytecode profiler lives in the interpreter, so
                // profiled runs stay on bytecode even in Jit mode.
                let native = if self.mode == ExecMode::Jit && !telemetry::profile_enabled() {
                    code.native()
                } else {
                    None
                };
                match native {
                    Some(j) => self.run_jit(j),
                    None => self.run_bytecode(code.bytecode()),
                }
            }
            ExecMode::TreeWalk => {
                let t0 = std::time::Instant::now();
                let r = self.run_tree_walk(p);
                vm_metrics().run_tree_walk_us.record_duration(t0.elapsed());
                r
            }
        }
    }

    /// Runs compiled native code (see [`crate::jit::compile`]) against
    /// this machine's buffers — the JIT analog of
    /// [`Machine::run_bytecode`] for callers that amortize compilation.
    /// The program must have been compiled from bytecode for the same
    /// [`Program`] this machine was built for.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses at runtime, identical to the interpreter's.
    pub fn run_jit(&mut self, j: &crate::jit::JitProgram) -> Result<()> {
        let _sp = telemetry::span("vm", "run_jit");
        let t0 = std::time::Instant::now();
        let r = j.run(&self.bufs, self.threads, &[]);
        vm_metrics().run_jit_us.record_duration(t0.elapsed());
        r
    }

    /// Runs the program on the stack-code tree-walk regardless of the
    /// configured mode: the differential oracle.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_tree_walk(&mut self, p: &Program) -> Result<()> {
        let compiled: Vec<CStmt> = p.body.iter().map(compile_stmt).collect::<Result<_>>()?;
        let mut ctx = ExecCtx::new(&self.bufs, self.threads, vec![0i64; p.n_vars()]);
        exec_block(&compiled, &mut ctx)
    }

    /// Runs a precompiled bytecode program (see
    /// [`crate::opt::compile_program`]); [`Machine::run`] compiles and
    /// runs in one step, this entry point amortizes compilation across
    /// runs.
    ///
    /// The program must have been compiled from the same [`Program`] this
    /// machine was built for (buffer and variable spaces must match).
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses at runtime.
    pub fn run_bytecode(&mut self, bc: &BcProgram) -> Result<()> {
        self.run_bytecode_with_frame(bc, &[])
    }

    /// Like [`Machine::run_bytecode`], but seeds the variable frame with
    /// the given bindings before the prologue runs. This lets one compiled
    /// program serve many parameterizations — e.g. the distributed
    /// simulator compiles a rank chunk once and seeds each rank's `rank`
    /// variable, instead of baking the rank into the program and
    /// compiling per rank.
    ///
    /// Unbound variables start at `0`, matching [`Machine::run_bytecode`].
    /// Under `TIRAMISU_PROFILE` the run feeds the bytecode profiler.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses at runtime.
    pub fn run_bytecode_with_frame(
        &mut self,
        bc: &BcProgram,
        seed: &[(crate::expr::Var, i64)],
    ) -> Result<()> {
        let _sp = telemetry::span("vm", "run_bytecode");
        let t0 = std::time::Instant::now();
        let r = if telemetry::profile_enabled() {
            let (r, prof) = self.exec_bytecode(bc, seed, self.threads, BcProf::default());
            prof.emit(&bc.var_names);
            r
        } else {
            self.exec_bytecode(bc, seed, self.threads, ()).0
        };
        vm_metrics().run_bytecode_us.record_duration(t0.elapsed());
        r
    }

    /// Runs the program's bytecode ([`Program::compiled`]) under the
    /// machine's [`CostModel`], gathering [`RunStats`]: one `alu` per
    /// integer or float binary operation, a flop per float one, every
    /// load and store through the cache simulator, one dispatch per lane
    /// group in vectorized loops, and parallel loops run serially with the
    /// outermost one's cycles divided by `min(cores, extent)`. Buffers end
    /// up exactly as after [`Machine::run`].
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    pub fn run_with_stats(&mut self, p: &Program) -> Result<RunStats> {
        let code = p.compiled()?;
        self.run_bytecode_with_stats(code.bytecode(), &[])
    }

    /// [`Machine::run_bytecode_with_frame`] priced like
    /// [`Machine::run_with_stats`]. Each call starts with cold caches.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses at runtime.
    pub fn run_bytecode_with_stats(
        &mut self,
        bc: &BcProgram,
        seed: &[(crate::expr::Var, i64)],
    ) -> Result<RunStats> {
        let cost = CostObs {
            bases: &self.bases,
            cache: CacheSim::new(self.cost),
            stats: RunStats::default(),
            parallel_depth: 0,
        };
        // One thread: parallel loops run serially so the cache simulation
        // is deterministic; `CostObs` credits the modeled cores instead.
        let (r, mut cost) = self.exec_bytecode(bc, seed, 1, cost);
        r?;
        cost.stats.l1_misses = cost.cache.l1_misses;
        cost.stats.l2_misses = cost.cache.l2_misses;
        Ok(cost.stats)
    }

    /// Runs `bc` on the interpreter under observer `obs`, which is handed
    /// back whether or not the run succeeds.
    fn exec_bytecode<O: Observer>(
        &self,
        bc: &BcProgram,
        seed: &[(crate::expr::Var, i64)],
        threads: usize,
        obs: O,
    ) -> (Result<()>, O) {
        let mut frame = vec![0i64; bc.n_vars];
        for (v, val) in seed {
            frame[v.index()] = *val;
        }
        let ir = vec![0; bc.n_iregs as usize];
        let fr = vec![0.0; bc.n_fregs as usize];
        let mut ctx = BcCtx::new(&self.bufs, threads, frame, ir, fr, obs);
        let r = bc_run_insts(&bc.prologue, &mut ctx)
            .and_then(|()| bc_exec_block(&bc.body, &mut ctx));
        (r, ctx.obs)
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Tree-walk execution (the differential oracle)
// ---------------------------------------------------------------------------

#[inline]
fn eval(code: &Code, ctx: &mut ExecCtx<'_>) -> Result<()> {
    ctx.istack.clear();
    ctx.fstack.clear();
    eval_keep(code, ctx)
}

/// Evaluates without clearing the stacks (caller manages stack discipline).
fn eval_keep(code: &Code, ctx: &mut ExecCtx<'_>) -> Result<()> {
    for op in &code.ops {
        match *op {
            Op::PushF(v) => ctx.fstack.push(v),
            Op::PushI(v) => ctx.istack.push(v),
            Op::LoadVar(v) => ctx.istack.push(ctx.frame[v as usize]),
            Op::Load(b) => {
                let idx = ctx.istack.pop().unwrap();
                let v = ctx.bufs[b as usize].get(idx)?;
                ctx.fstack.push(v);
            }
            Op::BinF(op) => {
                let b = ctx.fstack.pop().unwrap();
                let a = ctx.fstack.pop().unwrap();
                ctx.fstack.push(apply_f(op, a, b));
            }
            Op::BinI(op) => {
                let b = ctx.istack.pop().unwrap();
                let a = ctx.istack.pop().unwrap();
                ctx.istack.push(apply_i(op, a, b));
            }
            Op::CmpF(op) => {
                let b = ctx.fstack.pop().unwrap();
                let a = ctx.fstack.pop().unwrap();
                ctx.istack.push(cmp_f(op, a, b));
            }
            Op::CmpI(op) => {
                let b = ctx.istack.pop().unwrap();
                let a = ctx.istack.pop().unwrap();
                ctx.istack.push(cmp_i(op, a, b));
            }
            Op::UnF(op) => {
                let a = ctx.fstack.pop().unwrap();
                ctx.fstack.push(apply_un_f(op, a));
            }
            Op::UnI(op) => {
                let a = ctx.istack.pop().unwrap();
                ctx.istack.push(apply_un_i(op, a));
            }
            Op::SelF => {
                let b = ctx.fstack.pop().unwrap();
                let a = ctx.fstack.pop().unwrap();
                let c = ctx.istack.pop().unwrap();
                ctx.fstack.push(if c != 0 { a } else { b });
            }
            Op::SelI => {
                let b = ctx.istack.pop().unwrap();
                let a = ctx.istack.pop().unwrap();
                let c = ctx.istack.pop().unwrap();
                ctx.istack.push(if c != 0 { a } else { b });
            }
            Op::CastIF => {
                let a = ctx.istack.pop().unwrap();
                ctx.fstack.push(a as f32);
            }
            Op::CastFI => {
                let a = ctx.fstack.pop().unwrap();
                ctx.istack.push(a as i64);
            }
        }
    }
    Ok(())
}

#[inline(always)]
/// Applies an `f32` binary operation (shared by every executor and the
/// optimizer's constant folding).
pub fn apply_f(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        _ => unreachable!("comparison handled elsewhere"),
    }
}

#[inline(always)]
/// Applies an `i64` binary operation.
pub fn apply_i(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.div_euclid(b),
        BinOp::Rem => a.rem_euclid(b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
        _ => unreachable!("comparison handled elsewhere"),
    }
}

#[inline(always)]
/// `f32` comparison yielding 0/1.
pub fn cmp_f(op: BinOp, a: f32, b: f32) -> i64 {
    (match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::EqCmp => a == b,
        _ => unreachable!(),
    }) as i64
}

#[inline(always)]
/// `i64` comparison yielding 0/1.
pub fn cmp_i(op: BinOp, a: i64, b: i64) -> i64 {
    (match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::EqCmp => a == b,
        _ => unreachable!(),
    }) as i64
}

#[inline(always)]
/// Applies an `f32` unary operation.
pub fn apply_un_f(op: UnOp, a: f32) -> f32 {
    match op {
        UnOp::Neg => -a,
        UnOp::Abs => a.abs(),
        UnOp::Sqrt => a.sqrt(),
        UnOp::Exp => a.exp(),
        UnOp::Not => unreachable!(),
    }
}

#[inline(always)]
/// Applies an `i64` unary operation.
pub fn apply_un_i(op: UnOp, a: i64) -> i64 {
    match op {
        UnOp::Neg => -a,
        UnOp::Abs => a.abs(),
        UnOp::Not => (a == 0) as i64,
        UnOp::Sqrt | UnOp::Exp => unreachable!(),
    }
}

fn exec_block(body: &[CStmt], ctx: &mut ExecCtx<'_>) -> Result<()> {
    for s in body {
        exec_stmt(s, ctx)?;
    }
    Ok(())
}

fn eval_i64(code: &Code, ctx: &mut ExecCtx<'_>) -> Result<i64> {
    eval(code, ctx)?;
    Ok(ctx.istack.pop().unwrap())
}

fn exec_stmt(s: &CStmt, ctx: &mut ExecCtx<'_>) -> Result<()> {
    match s {
        CStmt::Let { var, value } => {
            let v = eval_i64(value, ctx)?;
            ctx.frame[*var as usize] = v;
            Ok(())
        }
        CStmt::Store { buf, index, value } => {
            let idx = eval_i64(index, ctx)?;
            eval(value, ctx)?;
            let v = ctx.fstack.pop().unwrap();
            ctx.bufs[*buf as usize].set(idx, v)
        }
        CStmt::If { cond, then, else_ } => {
            let c = eval_i64(cond, ctx)?;
            if c != 0 {
                exec_block(then, ctx)
            } else {
                exec_block(else_, ctx)
            }
        }
        CStmt::For { var, lower, upper, kind, body } => {
            let lo = eval_i64(lower, ctx)?;
            let hi = eval_i64(upper, ctx)?;
            match kind {
                LoopKind::Parallel if ctx.threads > 1 && hi - lo > 1 => {
                    exec_parallel(*var, lo, hi, body, ctx)
                }
                LoopKind::Vectorize(_) if body_vectorizable(body) => {
                    exec_vector(*var, lo, hi, body, ctx)
                }
                _ => {
                    for v in lo..hi {
                        ctx.frame[*var as usize] = v;
                        exec_block(body, ctx)?;
                    }
                    Ok(())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------------

fn exec_parallel(
    var: u32,
    lo: i64,
    hi: i64,
    body: &[CStmt],
    ctx: &mut ExecCtx<'_>,
) -> Result<()> {
    let n = (hi - lo) as usize;
    let workers = ctx.threads.min(n.max(1));
    let chunk = n.div_ceil(workers);
    let bufs = ctx.bufs;
    let frame_proto = &ctx.frame;
    let results = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let start = lo + (w * chunk) as i64;
            let end = (lo + ((w + 1) * chunk) as i64).min(hi);
            if start >= end {
                continue;
            }
            handles.push(scope.spawn(move || -> Result<()> {
                // Nested parallel loops run serially inside a worker.
                let mut sub = ExecCtx::new(bufs, 1, frame_proto.clone());
                for v in start..end {
                    sub.frame[var as usize] = v;
                    exec_block(body, &mut sub)?;
                }
                Ok(())
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect::<Vec<_>>()
    });
    results.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Vector execution
// ---------------------------------------------------------------------------

/// A body is lane-executable when it contains only stores and lets (the
/// shape produced by vectorizing an innermost loop).
fn body_vectorizable(body: &[CStmt]) -> bool {
    body.iter().all(|s| matches!(s, CStmt::Store { .. } | CStmt::Let { .. }))
}

fn exec_vector(
    var: u32,
    lo: i64,
    hi: i64,
    body: &[CStmt],
    ctx: &mut ExecCtx<'_>,
) -> Result<()> {
    let mut v = lo;
    while v + (LANES as i64) <= hi {
        exec_vector_chunk(var, v, body, ctx)?;
        v += LANES as i64;
    }
    // Scalar remainder.
    while v < hi {
        ctx.frame[var as usize] = v;
        exec_block(body, ctx)?;
        v += 1;
    }
    Ok(())
}

/// Per-lane variable overlays: the vector frame is the scalar frame plus a
/// lane-varying overlay for the vector var and vector lets.
fn exec_vector_chunk(
    var: u32,
    base: i64,
    body: &[CStmt],
    ctx: &mut ExecCtx<'_>,
) -> Result<()> {
    // Lane-varying slots: map var slot -> [i64; LANES].
    let mut overlay: Vec<(u32, [i64; LANES])> = Vec::with_capacity(4);
    let mut lanes = [0i64; LANES];
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = base + l as i64;
    }
    overlay.push((var, lanes));
    for s in body {
        match s {
            CStmt::Let { var, value } => {
                let mut out = [0i64; LANES];
                veval_i(value, ctx, &overlay, &mut out)?;
                overlay.retain(|(v, _)| v != var);
                overlay.push((*var, out));
            }
            CStmt::Store { buf, index, value } => {
                let mut idx = [0i64; LANES];
                veval_i(index, ctx, &overlay, &mut idx)?;
                let mut val = [0f32; LANES];
                veval_f(value, ctx, &overlay, &mut val)?;
                let b = &ctx.bufs[*buf as usize];
                for l in 0..LANES {
                    b.set(idx[l], val[l])?;
                }
            }
            _ => unreachable!("checked by body_vectorizable"),
        }
    }
    Ok(())
}

fn veval_i(
    code: &Code,
    ctx: &mut ExecCtx<'_>,
    overlay: &[(u32, [i64; LANES])],
    out: &mut [i64; LANES],
) -> Result<()> {
    veval(code, ctx, overlay)?;
    *out = ctx.vistack.pop().unwrap();
    Ok(())
}

fn veval_f(
    code: &Code,
    ctx: &mut ExecCtx<'_>,
    overlay: &[(u32, [i64; LANES])],
    out: &mut [f32; LANES],
) -> Result<()> {
    veval(code, ctx, overlay)?;
    *out = ctx.vfstack.pop().unwrap();
    Ok(())
}

fn veval(
    code: &Code,
    ctx: &mut ExecCtx<'_>,
    overlay: &[(u32, [i64; LANES])],
) -> Result<()> {
    ctx.vistack.clear();
    ctx.vfstack.clear();
    for op in &code.ops {
        match *op {
            Op::PushF(v) => ctx.vfstack.push([v; LANES]),
            Op::PushI(v) => ctx.vistack.push([v; LANES]),
            Op::LoadVar(v) => {
                if let Some((_, lanes)) = overlay.iter().rev().find(|(ov, _)| *ov == v) {
                    ctx.vistack.push(*lanes);
                } else {
                    ctx.vistack.push([ctx.frame[v as usize]; LANES]);
                }
            }
            Op::Load(b) => {
                let idx = ctx.vistack.pop().unwrap();
                let mut out = [0f32; LANES];
                let buf = &ctx.bufs[b as usize];
                for l in 0..LANES {
                    out[l] = buf.get(idx[l])?;
                }
                ctx.vfstack.push(out);
            }
            Op::BinF(op) => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.last_mut().unwrap();
                for l in 0..LANES {
                    a[l] = apply_f(op, a[l], b[l]);
                }
            }
            Op::BinI(op) => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.last_mut().unwrap();
                for l in 0..LANES {
                    a[l] = apply_i(op, a[l], b[l]);
                }
            }
            Op::CmpF(op) => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = cmp_f(op, a[l], b[l]);
                }
                ctx.vistack.push(out);
            }
            Op::CmpI(op) => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = cmp_i(op, a[l], b[l]);
                }
                ctx.vistack.push(out);
            }
            Op::UnF(op) => {
                let a = ctx.vfstack.last_mut().unwrap();
                for x in a.iter_mut() {
                    *x = apply_un_f(op, *x);
                }
            }
            Op::UnI(op) => {
                let a = ctx.vistack.last_mut().unwrap();
                for x in a.iter_mut() {
                    *x = apply_un_i(op, *x);
                }
            }
            Op::SelF => {
                let b = ctx.vfstack.pop().unwrap();
                let a = ctx.vfstack.pop().unwrap();
                let c = ctx.vistack.pop().unwrap();
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
                ctx.vfstack.push(out);
            }
            Op::SelI => {
                let b = ctx.vistack.pop().unwrap();
                let a = ctx.vistack.pop().unwrap();
                let c = ctx.vistack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = if c[l] != 0 { a[l] } else { b[l] };
                }
                ctx.vistack.push(out);
            }
            Op::CastIF => {
                let a = ctx.vistack.pop().unwrap();
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = a[l] as f32;
                }
                ctx.vfstack.push(out);
            }
            Op::CastFI => {
                let a = ctx.vfstack.pop().unwrap();
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = a[l] as i64;
                }
                ctx.vistack.push(out);
            }
        }
    }
    Ok(())
}

/// Evaluates a load-free integer expression with the given variable
/// bindings (used by runtimes to evaluate message sizes, ranks and
/// offsets): [`ScalarThunk::compile`] then [`ScalarThunk::eval`].
///
/// # Errors
///
/// [`Error::Type`] for non-integer expressions and
/// [`Error::Structure`] when the expression loads from a buffer.
///
/// # Panics
///
/// Division/remainder by zero panics.
pub fn eval_scalar(e: &Expr, bindings: &[(crate::expr::Var, i64)]) -> Result<i64> {
    Ok(ScalarThunk::compile(e)?.eval(bindings))
}

/// A pre-compiled load-free integer expression: [`eval_scalar`] split
/// into a compile-once / evaluate-many pair.
///
/// Runtimes that evaluate the same address expressions repeatedly (the
/// distributed simulator re-derives send/recv destination, offset and
/// count per message) compile the expression once with
/// [`ScalarThunk::compile`] and then call [`ScalarThunk::eval`] per use,
/// skipping the per-call expression walk and validation.
#[derive(Debug, Clone)]
pub struct ScalarThunk {
    ops: Vec<Op>,
}

impl ScalarThunk {
    /// Compiles a load-free integer expression into a reusable thunk.
    ///
    /// # Errors
    ///
    /// [`Error::Type`] for non-integer expressions and
    /// [`Error::Structure`] when the expression loads from a buffer.
    pub fn compile(e: &Expr) -> Result<ScalarThunk> {
        let code = compile(e)?;
        if code.ty != Ty::I64 {
            return Err(Error::Type("eval_scalar needs an integer expression".into()));
        }
        // Validate eagerly, in evaluation order (stack code is
        // straight-line: every op always executes). A float constant is
        // not itself an error: in an integer-typed expression some later
        // float op or cast consumes it, and that op is the one reported.
        for op in &code.ops {
            match op {
                Op::PushF(_) | Op::PushI(_) | Op::LoadVar(_) | Op::BinI(_) | Op::CmpI(_)
                | Op::UnI(_) | Op::SelI => {}
                Op::Load(_) => {
                    return Err(Error::Structure("eval_scalar cannot load buffers".into()))
                }
                _ => {
                    return Err(Error::Type(
                        "eval_scalar needs a pure integer expression".into(),
                    ))
                }
            }
        }
        Ok(ScalarThunk { ops: code.ops })
    }

    /// Evaluates the thunk. Variables not present in `bindings` read as
    /// `0`.
    ///
    /// # Panics
    ///
    /// Division/remainder by zero panics.
    #[must_use]
    pub fn eval(&self, bindings: &[(crate::expr::Var, i64)]) -> i64 {
        let mut istack: Vec<i64> = Vec::with_capacity(8);
        for op in &self.ops {
            match *op {
                Op::PushI(v) => istack.push(v),
                Op::LoadVar(v) => istack.push(
                    bindings
                        .iter()
                        .find(|(var, _)| var.0 == v)
                        .map_or(0, |(_, val)| *val),
                ),
                Op::BinI(op) => {
                    let b = istack.pop().unwrap();
                    let a = istack.pop().unwrap();
                    istack.push(apply_i(op, a, b));
                }
                Op::CmpI(op) => {
                    let b = istack.pop().unwrap();
                    let a = istack.pop().unwrap();
                    istack.push(cmp_i(op, a, b));
                }
                Op::UnI(op) => {
                    let a = istack.pop().unwrap();
                    istack.push(apply_un_i(op, a));
                }
                Op::SelI => {
                    let b = istack.pop().unwrap();
                    let a = istack.pop().unwrap();
                    let c = istack.pop().unwrap();
                    istack.push(if c != 0 { a } else { b });
                }
                // `compile` admits only the ops above.
                _ => unreachable!("ScalarThunk::compile admits integer ops only"),
            }
        }
        istack.pop().unwrap()
    }
}

// ---------------------------------------------------------------------------
// Register-bytecode execution (the optimized fast path)
// ---------------------------------------------------------------------------

/// The interpreter's one observer hook. The interpreter is generic over
/// it, so every observer gets its own compiled copy: `()` is the
/// unobserved path, whose empty hooks compile away; [`BcProf`] is the
/// sampled profiler and [`CostObs`] the CPU cost model.
pub(crate) trait Observer: Send + Sized {
    /// What [`Observer::loop_enter`] hands to the matching
    /// [`Observer::loop_exit`].
    type Mark;
    /// A fresh observer for one worker of a threaded parallel loop.
    fn fork(&self) -> Self;
    /// Folds a worker's observations back in, in spawn order, after the
    /// join.
    fn join(&mut self, worker: Self);
    /// One dispatch of an instruction list: scalar, or one lane group.
    fn insts(&mut self, _insts: &[Inst]) {}
    /// A binary operation over `lanes` lanes (`float` for `BinF`).
    fn arith(&mut self, _float: bool, _lanes: u64) {}
    /// A load or store of `buf` at `idx` (one index, or one per lane),
    /// reported once its bounds checks passed.
    fn access(&mut self, _buf: u32, _idx: &[i64], _store: bool) {}
    /// Entry to a `For` loop of `trip` iterations.
    fn loop_enter(&mut self, var: u32, trip: u64, kind: LoopKind) -> Self::Mark;
    /// Exit from the loop `mark` was entered with.
    fn loop_exit(&mut self, var: u32, mark: Self::Mark);
}

impl Observer for () {
    type Mark = ();
    fn fork(&self) {}
    fn join(&mut self, _worker: ()) {}
    fn loop_enter(&mut self, _var: u32, _trip: u64, _kind: LoopKind) {}
    fn loop_exit(&mut self, _var: u32, _mark: ()) {}
}

/// Execution context for the register bytecode: two scalar register
/// files, a lane-vector shadow of each (used inside vectorized loops),
/// the variable frame and the observer.
struct BcCtx<'a, O: Observer> {
    bufs: &'a [SharedBuf],
    threads: usize,
    frame: Vec<i64>,
    ir: Vec<i64>,
    fr: Vec<f32>,
    /// Lane-vector shadows: `vir[r]` is meaningful iff `vset[r]`.
    vir: Vec<[i64; LANES]>,
    vfr: Vec<[f32; LANES]>,
    vset: Vec<bool>,
    vfset: Vec<bool>,
    obs: O,
}

impl<'a, O: Observer> BcCtx<'a, O> {
    fn new(
        bufs: &'a [SharedBuf],
        threads: usize,
        frame: Vec<i64>,
        ir: Vec<i64>,
        fr: Vec<f32>,
        obs: O,
    ) -> BcCtx<'a, O> {
        BcCtx {
            bufs,
            threads,
            frame,
            vir: vec![[0i64; LANES]; ir.len()],
            vfr: vec![[0f32; LANES]; fr.len()],
            vset: vec![false; ir.len()],
            vfset: vec![false; fr.len()],
            ir,
            fr,
            obs,
        }
    }
}

/// Every how many entries of a given loop statement one execution is
/// wall-timed. Sampling keeps the profiled path from drowning tight
/// inner loops in clock reads; totals are scaled back up at emission.
const PROF_SAMPLE_PERIOD: u64 = 16;

/// Per-loop profile: how often a `For` statement was entered, total trip
/// count, and a sampled wall-time estimate.
#[derive(Default)]
struct LoopProf {
    entries: u64,
    iters: u64,
    sampled: u64,
    sampled_ns: u64,
}

/// The bytecode profiler (`TIRAMISU_PROFILE`): per-loop attribution plus
/// instruction-class totals, one count per dispatch.
#[derive(Default)]
struct BcProf {
    loops: std::collections::HashMap<u32, LoopProf>,
    classes: InstClassCounts,
}

impl BcProf {
    /// Emits the profile as telemetry counters, labelling loops with
    /// their source variable names. `est_us` counters scale the sampled
    /// wall time back to the full entry count and are inclusive (an
    /// outer loop's estimate contains its inner loops').
    fn emit(&self, var_names: &[String]) {
        let mut loops: Vec<_> = self.loops.iter().collect();
        loops.sort_by_key(|(v, _)| **v);
        for (v, lp) in loops {
            let name = var_names
                .get(*v as usize)
                .cloned()
                .unwrap_or_else(|| format!("v{v}"));
            telemetry::counter("vm", format!("loop {name} iters"), lp.iters as f64);
            if lp.sampled > 0 {
                let est_us = (lp.sampled_ns as f64 / 1000.0)
                    * (lp.entries as f64 / lp.sampled as f64);
                telemetry::counter("vm", format!("loop {name} est_us"), est_us);
            }
        }
        for (class, n) in self.classes.iter() {
            if n > 0 {
                telemetry::counter("vm", format!("inst {class}"), n as f64);
            }
        }
    }
}

impl Observer for BcProf {
    /// Start time of a sampled loop entry.
    type Mark = Option<std::time::Instant>;

    fn fork(&self) -> BcProf {
        BcProf::default()
    }

    fn join(&mut self, worker: BcProf) {
        for (var, lp) in worker.loops {
            let dst = self.loops.entry(var).or_default();
            dst.entries += lp.entries;
            dst.iters += lp.iters;
            dst.sampled += lp.sampled;
            dst.sampled_ns += lp.sampled_ns;
        }
        self.classes.merge(&worker.classes);
    }

    fn insts(&mut self, insts: &[Inst]) {
        self.classes.count(insts);
    }

    fn loop_enter(&mut self, var: u32, trip: u64, _kind: LoopKind) -> Self::Mark {
        // Count every entry and trip, wall-time one entry in
        // PROF_SAMPLE_PERIOD.
        let lp = self.loops.entry(var).or_default();
        lp.entries += 1;
        lp.iters += trip;
        (lp.entries % PROF_SAMPLE_PERIOD == 1).then(std::time::Instant::now)
    }

    fn loop_exit(&mut self, var: u32, mark: Self::Mark) {
        if let Some(t0) = mark {
            let lp = self.loops.entry(var).or_default();
            lp.sampled += 1;
            lp.sampled_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

/// The CPU cost model ([`Machine::run_with_stats`]): counts work and
/// prices it under a [`CostModel`], with every memory access going
/// through the cache simulator. Runs are single-threaded.
struct CostObs<'a> {
    /// Modeled base address of every buffer.
    bases: &'a [u64],
    cache: CacheSim,
    stats: RunStats,
    /// Depth of enclosing parallel loops (cycles are divided by the
    /// modeled core count only at the outermost one).
    parallel_depth: u32,
}

impl Observer for CostObs<'_> {
    /// For a parallel loop: the cycle count at entry and the modeled
    /// cores it is credited.
    type Mark = Option<(f64, f64)>;

    fn fork(&self) -> Self {
        unreachable!("cost-model runs use one thread")
    }

    fn join(&mut self, _worker: Self) {
        unreachable!("cost-model runs use one thread")
    }

    fn arith(&mut self, float: bool, lanes: u64) {
        self.stats.cycles += self.cache.model().alu;
        if float {
            self.stats.flops += lanes;
        }
    }

    /// Scalar accesses cost their cache latency. Lane groups cost the sum
    /// over lanes amortized to one dispatch when the lanes are contiguous,
    /// times the gather penalty when they are not.
    fn access(&mut self, buf: u32, idx: &[i64], store: bool) {
        let base = self.bases[buf as usize];
        if store {
            self.stats.stores += idx.len() as u64;
        } else {
            self.stats.loads += idx.len() as u64;
        }
        if let [i] = idx {
            self.stats.cycles += self.cache.access(base + (*i as u64) * 4);
            return;
        }
        let contiguous = idx.windows(2).all(|w| w[1] == w[0] + 1);
        let mut total = 0.0;
        for &i in idx {
            total += self.cache.access(base + (i as u64) * 4);
        }
        let lanes = idx.len() as f64;
        self.stats.cycles += if contiguous {
            total / lanes
        } else {
            total * self.cache.model().gather_penalty / lanes
        };
    }

    fn loop_enter(&mut self, _var: u32, trip: u64, kind: LoopKind) -> Self::Mark {
        self.stats.iterations += trip;
        matches!(kind, LoopKind::Parallel).then(|| {
            self.parallel_depth += 1;
            let cores = (self.cache.model().cores as u64).min(trip.max(1));
            (self.stats.cycles, cores as f64)
        })
    }

    fn loop_exit(&mut self, _var: u32, mark: Self::Mark) {
        if let Some((before, cores)) = mark {
            self.parallel_depth -= 1;
            if self.parallel_depth == 0 {
                let region = self.stats.cycles - before;
                self.stats.cycles = before + region / cores;
            }
        }
    }
}

fn bc_run_insts<O: Observer>(insts: &[Inst], ctx: &mut BcCtx<'_, O>) -> Result<()> {
    ctx.obs.insts(insts);
    for inst in insts {
        match *inst {
            Inst::ConstI { dst, v } => ctx.ir[dst as usize] = v,
            Inst::ConstF { dst, v } => ctx.fr[dst as usize] = v,
            Inst::ReadVar { dst, var } => ctx.ir[dst as usize] = ctx.frame[var as usize],
            Inst::Load { dst, buf, idx } => {
                let i = ctx.ir[idx as usize];
                ctx.fr[dst as usize] = ctx.bufs[buf as usize].get(i)?;
                ctx.obs.access(buf, &[i], false);
            }
            Inst::BinI { dst, op, a, b } => {
                ctx.ir[dst as usize] = apply_i(op, ctx.ir[a as usize], ctx.ir[b as usize]);
                ctx.obs.arith(false, 1);
            }
            Inst::BinF { dst, op, a, b } => {
                ctx.fr[dst as usize] = apply_f(op, ctx.fr[a as usize], ctx.fr[b as usize]);
                ctx.obs.arith(true, 1);
            }
            Inst::CmpI { dst, op, a, b } => {
                ctx.ir[dst as usize] = cmp_i(op, ctx.ir[a as usize], ctx.ir[b as usize]);
            }
            Inst::CmpF { dst, op, a, b } => {
                ctx.ir[dst as usize] = cmp_f(op, ctx.fr[a as usize], ctx.fr[b as usize]);
            }
            Inst::UnI { dst, op, a } => {
                ctx.ir[dst as usize] = apply_un_i(op, ctx.ir[a as usize]);
            }
            Inst::UnF { dst, op, a } => {
                ctx.fr[dst as usize] = apply_un_f(op, ctx.fr[a as usize]);
            }
            Inst::SelI { dst, c, a, b } => {
                ctx.ir[dst as usize] = if ctx.ir[c as usize] != 0 {
                    ctx.ir[a as usize]
                } else {
                    ctx.ir[b as usize]
                };
            }
            Inst::SelF { dst, c, a, b } => {
                ctx.fr[dst as usize] = if ctx.ir[c as usize] != 0 {
                    ctx.fr[a as usize]
                } else {
                    ctx.fr[b as usize]
                };
            }
            Inst::CastIF { dst, a } => ctx.fr[dst as usize] = ctx.ir[a as usize] as f32,
            Inst::CastFI { dst, a } => ctx.ir[dst as usize] = ctx.fr[a as usize] as i64,
        }
    }
    Ok(())
}

fn bc_exec_block<O: Observer>(body: &[BcStmt], ctx: &mut BcCtx<'_, O>) -> Result<()> {
    for s in body {
        bc_exec_stmt(s, ctx)?;
    }
    Ok(())
}

fn bc_eval_bound<O: Observer>(code: &BCode, ctx: &mut BcCtx<'_, O>) -> Result<i64> {
    bc_run_insts(&code.insts, ctx)?;
    Ok(ctx.ir[code.reg as usize])
}

fn bc_exec_stmt<O: Observer>(s: &BcStmt, ctx: &mut BcCtx<'_, O>) -> Result<()> {
    match s {
        BcStmt::Let { code, var, reg } => {
            bc_run_insts(code, ctx)?;
            ctx.frame[*var as usize] = ctx.ir[*reg as usize];
            Ok(())
        }
        BcStmt::Store { code, buf, idx, val } => {
            bc_run_insts(code, ctx)?;
            let i = ctx.ir[*idx as usize];
            let v = ctx.fr[*val as usize];
            ctx.bufs[*buf as usize].set(i, v)?;
            ctx.obs.access(*buf, &[i], true);
            Ok(())
        }
        BcStmt::If { code, cond, then, else_ } => {
            bc_run_insts(code, ctx)?;
            if ctx.ir[*cond as usize] != 0 {
                bc_exec_block(then, ctx)
            } else {
                bc_exec_block(else_, ctx)
            }
        }
        BcStmt::For { var, lower, upper, kind, preamble, body } => {
            let lo = bc_eval_bound(lower, ctx)?;
            let hi = bc_eval_bound(upper, ctx)?;
            let mark = ctx.obs.loop_enter(*var, hi.saturating_sub(lo).max(0) as u64, *kind);
            let r = match kind {
                LoopKind::Parallel if ctx.threads > 1 && hi - lo > 1 => {
                    bc_exec_parallel(*var, lo, hi, preamble, body, ctx)
                }
                LoopKind::Vectorize(_) if bc_body_vectorizable(body) => {
                    bc_exec_vector(*var, lo, hi, preamble, body, ctx)
                }
                _ => {
                    for v in lo..hi {
                        ctx.frame[*var as usize] = v;
                        bc_run_insts(preamble, ctx)?;
                        bc_exec_block(body, ctx)?;
                    }
                    Ok(())
                }
            };
            ctx.obs.loop_exit(*var, mark);
            r
        }
    }
}

fn bc_exec_parallel<O: Observer>(
    var: u32,
    lo: i64,
    hi: i64,
    preamble: &[Inst],
    body: &[BcStmt],
    ctx: &mut BcCtx<'_, O>,
) -> Result<()> {
    let n = (hi - lo) as usize;
    let workers = ctx.threads.min(n.max(1));
    let chunk = n.div_ceil(workers);
    let bufs = ctx.bufs;
    // Workers snapshot the scalar state (registers computed in outer
    // preambles / the prologue stay readable) and run their range with a
    // private context and observer; buffers are the only shared state.
    let frame_proto = &ctx.frame;
    let ir_proto = &ctx.ir;
    let fr_proto = &ctx.fr;
    let parent = &ctx.obs;
    let results = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let start = lo + (w * chunk) as i64;
            let end = (lo + ((w + 1) * chunk) as i64).min(hi);
            if start >= end {
                continue;
            }
            let obs = parent.fork();
            handles.push(scope.spawn(move || -> (Result<()>, O) {
                // Nested parallel loops run serially inside a worker.
                let mut sub = BcCtx::new(
                    bufs,
                    1,
                    frame_proto.clone(),
                    ir_proto.clone(),
                    fr_proto.clone(),
                    obs,
                );
                let mut r = Ok(());
                for v in start..end {
                    sub.frame[var as usize] = v;
                    if let Err(e) = bc_run_insts(preamble, &mut sub)
                        .and_then(|()| bc_exec_block(body, &mut sub))
                    {
                        r = Err(e);
                        break;
                    }
                }
                (r, sub.obs)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect::<Vec<_>>()
    });
    let mut first_err = None;
    for (r, obs) in results {
        ctx.obs.join(obs);
        if first_err.is_none() {
            first_err = r.err();
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Whether a loop body runs lane-grouped: only stores and lets (the shape
/// produced by vectorizing an innermost loop), the tree-walk's criterion
/// too. Also the JIT's criterion for lane-grouped `Vectorize` loops, so
/// every tier vectorizes exactly the same loops.
pub(crate) fn bc_body_vectorizable(body: &[BcStmt]) -> bool {
    body.iter().all(|s| matches!(s, BcStmt::Store { .. } | BcStmt::Let { .. }))
}

fn bc_exec_vector<O: Observer>(
    var: u32,
    lo: i64,
    hi: i64,
    preamble: &[Inst],
    body: &[BcStmt],
    ctx: &mut BcCtx<'_, O>,
) -> Result<()> {
    let mut v = lo;
    while v + (LANES as i64) <= hi {
        bc_exec_vector_chunk(var, v, preamble, body, ctx)?;
        v += LANES as i64;
    }
    // Scalar remainder (writes the frame, like the tree-walk remainder).
    while v < hi {
        ctx.frame[var as usize] = v;
        bc_run_insts(preamble, ctx)?;
        bc_exec_block(body, ctx)?;
        v += 1;
    }
    Ok(())
}

/// Runs one lane group: the preamble and the flat store/let body evaluate
/// lane-wise; registers written here are lane-vectors (`vset`), registers
/// from outer scopes broadcast their scalar value. Like the tree-walk's
/// overlay, lets do not write the scalar frame.
fn bc_exec_vector_chunk<O: Observer>(
    var: u32,
    base: i64,
    preamble: &[Inst],
    body: &[BcStmt],
    ctx: &mut BcCtx<'_, O>,
) -> Result<()> {
    for f in ctx.vset.iter_mut() {
        *f = false;
    }
    for f in ctx.vfset.iter_mut() {
        *f = false;
    }
    bc_run_vector_insts(preamble, var, base, ctx)?;
    for s in body {
        match s {
            BcStmt::Let { code, .. } => {
                bc_run_vector_insts(code, var, base, ctx)?;
                // Reads of the let variable resolve to its register at
                // compile time; the scalar frame is left untouched.
            }
            BcStmt::Store { code, buf, idx, val } => {
                bc_run_vector_insts(code, var, base, ctx)?;
                let idxs = read_vi(ctx, *idx);
                let vals = read_vf(ctx, *val);
                let b = &ctx.bufs[*buf as usize];
                for l in 0..LANES {
                    b.set(idxs[l], vals[l])?;
                }
                ctx.obs.access(*buf, &idxs, true);
            }
            _ => unreachable!("checked by bc_body_vectorizable"),
        }
    }
    Ok(())
}

fn read_vi<O: Observer>(ctx: &BcCtx<'_, O>, r: u16) -> [i64; LANES] {
    if ctx.vset[r as usize] {
        ctx.vir[r as usize]
    } else {
        [ctx.ir[r as usize]; LANES]
    }
}

fn read_vf<O: Observer>(ctx: &BcCtx<'_, O>, r: u16) -> [f32; LANES] {
    if ctx.vfset[r as usize] {
        ctx.vfr[r as usize]
    } else {
        [ctx.fr[r as usize]; LANES]
    }
}

fn bc_run_vector_insts<O: Observer>(
    insts: &[Inst],
    loop_var: u32,
    base: i64,
    ctx: &mut BcCtx<'_, O>,
) -> Result<()> {
    // One dispatch per lane group, mirroring how the vector path
    // amortizes interpretation.
    ctx.obs.insts(insts);
    for inst in insts {
        match *inst {
            Inst::ConstI { dst, v } => {
                ctx.vir[dst as usize] = [v; LANES];
                ctx.vset[dst as usize] = true;
            }
            Inst::ConstF { dst, v } => {
                ctx.vfr[dst as usize] = [v; LANES];
                ctx.vfset[dst as usize] = true;
            }
            Inst::ReadVar { dst, var } => {
                let out = if var == loop_var {
                    let mut lanes = [0i64; LANES];
                    for (l, lane) in lanes.iter_mut().enumerate() {
                        *lane = base + l as i64;
                    }
                    lanes
                } else {
                    [ctx.frame[var as usize]; LANES]
                };
                ctx.vir[dst as usize] = out;
                ctx.vset[dst as usize] = true;
            }
            Inst::Load { dst, buf, idx } => {
                let idxs = read_vi(ctx, idx);
                let mut out = [0f32; LANES];
                let b = &ctx.bufs[buf as usize];
                for l in 0..LANES {
                    out[l] = b.get(idxs[l])?;
                }
                ctx.vfr[dst as usize] = out;
                ctx.vfset[dst as usize] = true;
                ctx.obs.access(buf, &idxs, false);
            }
            Inst::BinI { dst, op, a, b } => {
                let x = read_vi(ctx, a);
                let y = read_vi(ctx, b);
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = apply_i(op, x[l], y[l]);
                }
                ctx.vir[dst as usize] = out;
                ctx.vset[dst as usize] = true;
                ctx.obs.arith(false, LANES as u64);
            }
            Inst::BinF { dst, op, a, b } => {
                let x = read_vf(ctx, a);
                let y = read_vf(ctx, b);
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = apply_f(op, x[l], y[l]);
                }
                ctx.vfr[dst as usize] = out;
                ctx.vfset[dst as usize] = true;
                ctx.obs.arith(true, LANES as u64);
            }
            Inst::CmpI { dst, op, a, b } => {
                let x = read_vi(ctx, a);
                let y = read_vi(ctx, b);
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = cmp_i(op, x[l], y[l]);
                }
                ctx.vir[dst as usize] = out;
                ctx.vset[dst as usize] = true;
            }
            Inst::CmpF { dst, op, a, b } => {
                let x = read_vf(ctx, a);
                let y = read_vf(ctx, b);
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = cmp_f(op, x[l], y[l]);
                }
                ctx.vir[dst as usize] = out;
                ctx.vset[dst as usize] = true;
            }
            Inst::UnI { dst, op, a } => {
                let x = read_vi(ctx, a);
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = apply_un_i(op, x[l]);
                }
                ctx.vir[dst as usize] = out;
                ctx.vset[dst as usize] = true;
            }
            Inst::UnF { dst, op, a } => {
                let x = read_vf(ctx, a);
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = apply_un_f(op, x[l]);
                }
                ctx.vfr[dst as usize] = out;
                ctx.vfset[dst as usize] = true;
            }
            Inst::SelI { dst, c, a, b } => {
                let cs = read_vi(ctx, c);
                let x = read_vi(ctx, a);
                let y = read_vi(ctx, b);
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = if cs[l] != 0 { x[l] } else { y[l] };
                }
                ctx.vir[dst as usize] = out;
                ctx.vset[dst as usize] = true;
            }
            Inst::SelF { dst, c, a, b } => {
                let cs = read_vi(ctx, c);
                let x = read_vf(ctx, a);
                let y = read_vf(ctx, b);
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = if cs[l] != 0 { x[l] } else { y[l] };
                }
                ctx.vfr[dst as usize] = out;
                ctx.vfset[dst as usize] = true;
            }
            Inst::CastIF { dst, a } => {
                let x = read_vi(ctx, a);
                let mut out = [0f32; LANES];
                for l in 0..LANES {
                    out[l] = x[l] as f32;
                }
                ctx.vfr[dst as usize] = out;
                ctx.vfset[dst as usize] = true;
            }
            Inst::CastFI { dst, a } => {
                let x = read_vf(ctx, a);
                let mut out = [0i64; LANES];
                for l in 0..LANES {
                    out[l] = x[l] as i64;
                }
                ctx.vir[dst as usize] = out;
                ctx.vset[dst as usize] = true;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::{Program, Stmt};

    fn saxpy_program(kind: LoopKind, n: usize) -> (Program, BufId, BufId) {
        let mut p = Program::new();
        let x = p.buffer("x", n);
        let y = p.buffer("y", n);
        let i = p.var("i");
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(n as i64),
            kind,
            vec![Stmt::store(
                y,
                Expr::var(i),
                Expr::f32(2.0) * Expr::load(x, Expr::var(i)) + Expr::load(y, Expr::var(i)),
            )],
        ));
        (p, x, y)
    }

    fn run_saxpy(kind: LoopKind) -> Vec<f32> {
        let n = 100;
        let (p, x, y) = saxpy_program(kind, n);
        let mut m = Machine::new(&p);
        for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
            *v = k as f32;
        }
        for v in m.buffer_mut(y).iter_mut() {
            *v = 1.0;
        }
        m.run(&p).unwrap();
        m.buffer(y).to_vec()
    }

    #[test]
    fn saxpy_serial_parallel_vector_agree() {
        let serial = run_saxpy(LoopKind::Serial);
        assert_eq!(serial[10], 21.0);
        assert_eq!(run_saxpy(LoopKind::Parallel), serial);
        assert_eq!(run_saxpy(LoopKind::Vectorize(8)), serial);
        assert_eq!(run_saxpy(LoopKind::Unroll(4)), serial);
    }

    #[test]
    fn stats_count_work() {
        let (p, _, _) = saxpy_program(LoopKind::Serial, 10);
        let mut m = Machine::new(&p);
        let stats = m.run_with_stats(&p).unwrap();
        assert_eq!(stats.stores, 10);
        assert_eq!(stats.loads, 20);
        assert_eq!(stats.flops, 20); // mul + add per element
        assert_eq!(stats.iterations, 10);
    }

    #[test]
    fn nested_loops_and_let() {
        // A[i*4 + j] = i + j via a let-bound row base.
        let mut p = Program::new();
        let a = p.buffer("A", 16);
        let i = p.var("i");
        let j = p.var("j");
        let base = p.var("base");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(4),
            vec![
                Stmt::let_(base, Expr::var(i) * Expr::i64(4)),
                Stmt::serial(
                    j,
                    Expr::i64(0),
                    Expr::i64(4),
                    vec![Stmt::store(
                        a,
                        Expr::var(base) + Expr::var(j),
                        Expr::to_f32(Expr::var(i) + Expr::var(j)),
                    )],
                ),
            ],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.buffer(a)[0], 0.0);
        assert_eq!(m.buffer(a)[5], 2.0); // i=1, j=1
        assert_eq!(m.buffer(a)[15], 6.0);
    }

    #[test]
    fn conditional_guard() {
        // Only even indices written.
        let mut p = Program::new();
        let a = p.buffer("A", 8);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(8),
            vec![Stmt::if_then(
                Expr::eq(Expr::var(i) % Expr::i64(2), Expr::i64(0)),
                vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
            )],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.buffer(a), &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut p = Program::new();
        let a = p.buffer("A", 4);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(8),
            vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
        ));
        let mut m = Machine::new(&p);
        let err = m.run(&p).unwrap_err();
        assert!(matches!(err, Error::OutOfBounds { index: 4, size: 4, .. }));
    }

    #[test]
    fn vector_with_clamped_loads() {
        // y[i] = x[clamp(i-1, 0, 7)] — boundary clamping in vector mode.
        let mut p = Program::new();
        let x = p.buffer("x", 8);
        let y = p.buffer("y", 8);
        let i = p.var("i");
        p.push(Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(8),
            LoopKind::Vectorize(8),
            vec![Stmt::store(
                y,
                Expr::var(i),
                Expr::load(
                    x,
                    Expr::clamp(Expr::var(i) - Expr::i64(1), Expr::i64(0), Expr::i64(7)),
                ),
            )],
        ));
        let mut m = Machine::new(&p);
        for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
            *v = k as f32 * 10.0;
        }
        m.run(&p).unwrap();
        assert_eq!(m.buffer(y), &[0.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
    }

    #[test]
    fn reduction_in_serial_loop() {
        // acc[0] += x[i] — a reduction expressed as load+store.
        let mut p = Program::new();
        let x = p.buffer("x", 32);
        let acc = p.buffer("acc", 1);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(32),
            vec![Stmt::store(
                acc,
                Expr::i64(0),
                Expr::load(acc, Expr::i64(0)) + Expr::load(x, Expr::var(i)),
            )],
        ));
        let mut m = Machine::new(&p);
        for v in m.buffer_mut(x).iter_mut() {
            *v = 1.0;
        }
        m.run(&p).unwrap();
        assert_eq!(m.buffer(acc)[0], 32.0);
    }

    #[test]
    fn dynamic_bounds_from_outer_var() {
        // Triangular: for i in 0..4 { for j in 0..=i { A[i*4+j] = 1 } }
        let mut p = Program::new();
        let a = p.buffer("A", 16);
        let i = p.var("i");
        let j = p.var("j");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(4),
            vec![Stmt::serial(
                j,
                Expr::i64(0),
                Expr::var(i) + Expr::i64(1),
                vec![Stmt::store(a, Expr::var(i) * Expr::i64(4) + Expr::var(j), Expr::f32(1.0))],
            )],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        let total: f32 = m.buffer(a).iter().sum();
        assert_eq!(total, 10.0); // 1 + 2 + 3 + 4
    }

    #[test]
    fn set_threads_zero_clamps_to_one() {
        let (p, _, _) = saxpy_program(LoopKind::Parallel, 8);
        let mut m = Machine::new(&p);
        m.set_threads(0);
        assert_eq!(m.threads(), 1, "set_threads(0) must clamp to serial execution");
        // A clamped machine still runs parallel loops (serially).
        m.run(&p).unwrap();
        m.set_threads(5);
        assert_eq!(m.threads(), 5);
    }

    #[test]
    fn parallel_results_identical_across_thread_counts() {
        let run_with = |threads: usize, mode: ExecMode| {
            let n = 97; // prime, so no thread count divides the range evenly
            let (p, x, y) = saxpy_program(LoopKind::Parallel, n);
            let mut m = Machine::new(&p);
            m.set_threads(threads);
            m.set_exec_mode(mode);
            for (k, v) in m.buffer_mut(x).iter_mut().enumerate() {
                *v = (k as f32).sin();
            }
            for (k, v) in m.buffer_mut(y).iter_mut().enumerate() {
                *v = 0.25 * k as f32;
            }
            m.run(&p).unwrap();
            m.buffer(y).to_vec()
        };
        let reference = run_with(1, ExecMode::TreeWalk);
        for threads in [1, 2, 7] {
            for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
                assert_eq!(
                    run_with(threads, mode),
                    reference,
                    "{threads} threads / {mode:?} diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_respects_frame_values() {
        // Outer serial loop sets `base`; inner parallel loop uses it.
        let mut p = Program::new();
        let a = p.buffer("A", 8);
        let o = p.var("o");
        let i = p.var("i");
        p.push(Stmt::serial(
            o,
            Expr::i64(0),
            Expr::i64(2),
            vec![Stmt::for_(
                i,
                Expr::i64(0),
                Expr::i64(4),
                LoopKind::Parallel,
                vec![Stmt::store(
                    a,
                    Expr::var(o) * Expr::i64(4) + Expr::var(i),
                    Expr::to_f32(Expr::var(o) * Expr::i64(100) + Expr::var(i)),
                )],
            )],
        ));
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.buffer(a), &[0.0, 1.0, 2.0, 3.0, 100.0, 101.0, 102.0, 103.0]);
    }
}
