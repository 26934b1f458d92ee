//! Bytecode → x86-64 code generation.
//!
//! One native function is emitted for the program (prologue + body) plus
//! one per `Parallel` loop (its per-iteration preamble + body, invoked by
//! worker threads through [`super::runtime::jit_par_dispatch`]). All
//! functions share one code buffer; loop back-edges are direct `jmp`s.
//!
//! # Conventions
//!
//! - `r15` = `JitCtx` pointer, `r14` = variable frame, `r13` = buffer
//!   descriptor table; `rax`/`rcx`/`rdx` and `xmm0`/`xmm1` are statement
//!   scratch. Everything else is allocated by [`super::regalloc`].
//! - Every function returns a `u64` status: `0` ok, `1`/`2` error/panic
//!   already recorded in the host, `id + 3` for deopt stub `id`.
//! - Trapping instructions (loads/stores, `div`/`rem`, checked `neg`/
//!   `abs`) compare inline and jump to an out-of-line stub that writes the
//!   operand values into the ctx deopt slots and returns the stub's code;
//!   the host then *replays* the operation through the interpreter's own
//!   scalar helpers, so error payloads and panic messages are identical
//!   to bytecode execution by construction.
//! - Vectorized loops are compiled as lane-grouped straight-line code:
//!   each instruction of the chunk is unrolled across the 8 lanes
//!   (inst-major, exactly the interpreter's dispatch order) with per-lane
//!   stack arrays standing in for the interpreter's vector register file;
//!   the scalar remainder loop is emitted separately and is the only part
//!   that writes the loop variable's frame slot.

use super::asm::{Asm, Cc, Gpr, Label, Mem, Xmm};
use super::regalloc::{allocate, compute_pins, FnAlloc, FnCode, Home};
use super::runtime::{
    self, Deopt, JitProgram, CTX_BUFS, CTX_DEOPT_A, CTX_DEOPT_B, CTX_FRAME, CTX_IPIN,
};
use crate::bytecode::{BcProgram, BcStmt, File, Inst, Reg};
use crate::expr::{BinOp, UnOp};
use crate::program::LoopKind;
use crate::vm::{bc_body_vectorizable, LANES};

/// Compiles a bytecode program to native code. Returns `None` when the
/// program uses a register pattern the allocator does not model (the
/// caller falls back to the bytecode interpreter).
pub fn compile(bc: &BcProgram) -> Option<JitProgram> {
    let (mut e, main_off, par_fns) = emit(bc)?;
    JitProgram::new(
        std::mem::take(&mut e.a.code),
        main_off,
        par_fns,
        e.deopts,
        bc.n_vars,
        bc.n_iregs as usize,
        bc.n_fregs as usize,
    )
}

/// The per-instruction textual listing of the code [`compile`] generates
/// for `bc` (the golden-test disassembly format; helper addresses print
/// symbolically, so it is deterministic), or `None` where the allocator
/// declines `bc`. Rendered on request rather than kept with the code,
/// which lives as long as its program.
pub fn listing(bc: &BcProgram) -> Option<String> {
    emit(bc).map(|(e, _, _)| e.a.listing())
}

/// Generates the code for `bc`: the emitter holding the finished code
/// buffer and listing, the main function's offset, and the
/// `(offset, loop variable)` of each `Parallel` loop function.
#[allow(clippy::type_complexity)]
fn emit(bc: &BcProgram) -> Option<(Emit<'_>, usize, Vec<(usize, u32)>)> {
    let pins = compute_pins(bc);
    let main_alloc =
        allocate(bc, &FnCode::Main { prologue: &bc.prologue, body: &bc.body }, &pins)?;
    let mut e = Emit {
        a: Asm::new(),
        bc,
        alloc: main_alloc,
        next_slot: 0,
        exit: Label::INVALID,
        stubs: Vec::new(),
        deopts: Vec::new(),
        pending: Vec::new(),
        next_par_id: 0,
        lane: None,
        chunk: None,
        chunk_def_i: vec![false; bc.n_iregs as usize],
        chunk_def_f: vec![false; bc.n_fregs as usize],
    };
    let main_off = e.a.here();
    e.emit_fn(None);
    let mut par_fns = Vec::new();
    let mut i = 0;
    while i < e.pending.len() {
        let w = e.pending[i];
        let alloc = allocate(bc, &FnCode::ParBody { preamble: w.preamble, body: w.body }, &pins)?;
        e.alloc = alloc;
        let off = e.a.here();
        e.emit_fn(Some((i, w)));
        par_fns.push((off, w.var));
        i += 1;
    }
    e.a.finish();
    Some((e, main_off, par_fns))
}

/// A `Parallel` loop queued for emission as its own function.
#[derive(Clone, Copy)]
struct ParWork<'a> {
    var: u32,
    preamble: &'a [Inst],
    body: &'a [BcStmt],
}

/// Active vector-chunk context (lane-grouped emission).
#[derive(Clone, Copy)]
struct ChunkCtx {
    /// Loop variable of the vectorized loop.
    var: u32,
    /// Stack slot holding the chunk's base iteration value.
    v_slot: i32,
}

struct Emit<'a> {
    a: Asm,
    bc: &'a BcProgram,
    /// Allocation of the function currently being emitted.
    alloc: FnAlloc,
    /// Next `loop_slots` pair to hand out (walk order, matches regalloc).
    next_slot: usize,
    /// The current function's shared epilogue (expects the status in rax).
    exit: Label,
    /// Deopt stubs to emit after the current function's `ret`.
    stubs: Vec<(Label, usize)>,
    /// Program-wide deopt table (ids are stub return code − 3).
    deopts: Vec<Deopt>,
    /// Parallel loops discovered so far, in dispatch-id order.
    pending: Vec<ParWork<'a>>,
    next_par_id: usize,
    /// Current lane when unrolling a vector chunk.
    lane: Option<usize>,
    chunk: Option<ChunkCtx>,
    /// Registers defined so far in the current chunk (the static mirror of
    /// the interpreter's `vset` flags — chunks are straight-line, so the
    /// dynamic and static def sets coincide).
    chunk_def_i: Vec<bool>,
    chunk_def_f: Vec<bool>,
}

const SAVED: [Gpr; 6] = [Gpr::Rbx, Gpr::Rbp, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15];

impl<'a> Emit<'a> {
    fn emit_fn(&mut self, par: Option<(usize, ParWork<'a>)>) {
        match par {
            None => self.a.comment("fn main(ctx)"),
            Some((id, _)) => self.a.comment(&format!("fn par{id}(ctx, lo, hi)")),
        }
        self.next_slot = 0;
        for r in SAVED {
            self.a.push_r(r);
        }
        let frame = self.alloc.frame_size;
        self.a.sub_ri(Gpr::Rsp, frame);
        self.a.mov_rr(Gpr::R15, Gpr::Rdi);
        self.a.mov_rm(Gpr::R14, Mem::base(Gpr::R15, CTX_FRAME));
        self.a.mov_rm(Gpr::R13, Mem::base(Gpr::R15, CTX_BUFS));
        self.exit = self.a.new_label();
        match par {
            None => {
                let prologue = &self.bc.prologue;
                let body = &self.bc.body;
                self.emit_insts(prologue);
                self.emit_block(body);
            }
            Some((_, w)) => {
                // Bounds arrive in rsi/rdx; iterate like the interpreter's
                // per-worker range loop.
                let (vs, hs) = self.alloc.loop_slots[0];
                self.next_slot = 1;
                self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rsi);
                self.a.mov_mr(Mem::base(Gpr::Rsp, hs), Gpr::Rdx);
                self.emit_counted_loop(vs, hs, w.var, w.preamble, w.body);
            }
        }
        self.a.xor_rr(Gpr::Rax, Gpr::Rax);
        self.a.bind(self.exit);
        self.a.add_ri(Gpr::Rsp, frame);
        for r in SAVED.iter().rev() {
            self.a.pop_r(*r);
        }
        self.a.ret();
        for (label, id) in std::mem::take(&mut self.stubs) {
            self.a.bind(label);
            self.a.mov_mr(Mem::base(Gpr::R15, CTX_DEOPT_A), Gpr::Rax);
            self.a.mov_mr(Mem::base(Gpr::R15, CTX_DEOPT_B), Gpr::Rcx);
            self.a.mov_ri(Gpr::Rax, (id + 3) as i64);
            self.a.jmp(self.exit);
        }
    }

    // -- operand access ------------------------------------------------------

    /// Reads i-register `r` into `dst` (uses `dst` itself for the ctx
    /// pin-array indirection, so any scratch register works).
    fn read_i(&mut self, dst: Gpr, r: Reg) {
        if let (Some(l), true) = (self.lane, self.chunk_def_i[r as usize]) {
            let off = self.alloc.lanes_i[r as usize] + (l * 8) as i32;
            self.a.mov_rm(dst, Mem::base(Gpr::Rsp, off));
            return;
        }
        match self.alloc.homes_i[r as usize] {
            Home::Gpr(g) => self.a.mov_rr(dst, g),
            Home::Stack(off) => self.a.mov_rm(dst, Mem::base(Gpr::Rsp, off)),
            Home::Ctx => {
                self.a.mov_rm(dst, Mem::base(Gpr::R15, CTX_IPIN));
                self.a.mov_rm(dst, Mem::base(dst, r as i32 * 8));
            }
            Home::Xmm(_) | Home::Unused => unreachable!("i-reg read from {:?}", r),
        }
    }

    /// Writes rax to i-register `r` (clobbers rcx for ctx homes).
    fn write_i(&mut self, r: Reg) {
        if let Some(l) = self.lane {
            let off = self.alloc.lanes_i[r as usize] + (l * 8) as i32;
            self.a.mov_mr(Mem::base(Gpr::Rsp, off), Gpr::Rax);
            return;
        }
        match self.alloc.homes_i[r as usize] {
            Home::Gpr(g) => self.a.mov_rr(g, Gpr::Rax),
            Home::Stack(off) => self.a.mov_mr(Mem::base(Gpr::Rsp, off), Gpr::Rax),
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R15, CTX_IPIN));
                self.a.mov_mr(Mem::base(Gpr::Rcx, r as i32 * 8), Gpr::Rax);
            }
            Home::Xmm(_) | Home::Unused => unreachable!("i-reg write to {:?}", r),
        }
    }

    /// Reads f-register `r` into `dst` (clobbers rdx for ctx homes).
    fn read_f(&mut self, dst: Xmm, r: Reg) {
        if let (Some(l), true) = (self.lane, self.chunk_def_f[r as usize]) {
            let off = self.alloc.lanes_f[r as usize] + (l * 4) as i32;
            self.a.movss_xm(dst, Mem::base(Gpr::Rsp, off));
            return;
        }
        match self.alloc.homes_f[r as usize] {
            Home::Xmm(x) => self.a.movss_xx(dst, x),
            Home::Stack(off) => self.a.movss_xm(dst, Mem::base(Gpr::Rsp, off)),
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rdx, Mem::base(Gpr::R15, runtime::CTX_FPIN));
                self.a.movss_xm(dst, Mem::base(Gpr::Rdx, r as i32 * 4));
            }
            Home::Gpr(_) | Home::Unused => unreachable!("f-reg read from {:?}", r),
        }
    }

    /// Writes xmm0 to f-register `r` (clobbers rdx for ctx homes).
    fn write_f(&mut self, r: Reg) {
        if let Some(l) = self.lane {
            let off = self.alloc.lanes_f[r as usize] + (l * 4) as i32;
            self.a.movss_mx(Mem::base(Gpr::Rsp, off), Xmm(0));
            return;
        }
        match self.alloc.homes_f[r as usize] {
            Home::Xmm(x) => self.a.movss_xx(x, Xmm(0)),
            Home::Stack(off) => self.a.movss_mx(Mem::base(Gpr::Rsp, off), Xmm(0)),
            Home::Ctx => {
                self.a.mov_rm(Gpr::Rdx, Mem::base(Gpr::R15, runtime::CTX_FPIN));
                self.a.movss_mx(Mem::base(Gpr::Rdx, r as i32 * 4), Xmm(0));
            }
            Home::Gpr(_) | Home::Unused => unreachable!("f-reg write to {:?}", r),
        }
    }

    /// Registers a deopt stub; guards jump to the returned label with the
    /// first operand in rax and (when meaningful) the second in rcx.
    fn trap(&mut self, d: Deopt) -> Label {
        let id = self.deopts.len();
        self.deopts.push(d);
        let l = self.a.new_label();
        self.stubs.push((l, id));
        l
    }

    fn call_helper(&mut self, addr: u64, sym: &str) {
        self.a.mov_ri_sym(Gpr::Rax, addr, sym);
        self.a.call_r(Gpr::Rax);
    }

    // -- statements ----------------------------------------------------------

    fn emit_block(&mut self, body: &'a [BcStmt]) {
        for s in body {
            self.emit_stmt(s);
        }
    }

    fn emit_stmt(&mut self, s: &'a BcStmt) {
        match s {
            BcStmt::Let { code, var, reg } => {
                self.emit_insts(code);
                self.read_i(Gpr::Rax, *reg);
                self.a.mov_mr(Mem::base(Gpr::R14, *var as i32 * 8), Gpr::Rax);
            }
            BcStmt::Store { code, buf, idx, val } => {
                self.emit_insts(code);
                self.emit_store(*buf, *idx, *val);
            }
            BcStmt::If { code, cond, then, else_ } => {
                self.emit_insts(code);
                self.read_i(Gpr::Rax, *cond);
                self.a.test_rr(Gpr::Rax, Gpr::Rax);
                if else_.is_empty() {
                    let end = self.a.new_label();
                    self.a.jcc(Cc::E, end);
                    self.emit_block(then);
                    self.a.bind(end);
                } else {
                    let els = self.a.new_label();
                    let end = self.a.new_label();
                    self.a.jcc(Cc::E, els);
                    self.emit_block(then);
                    self.a.jmp(end);
                    self.a.bind(els);
                    self.emit_block(else_);
                    self.a.bind(end);
                }
            }
            BcStmt::For { var, lower, upper, kind, preamble, body } => {
                self.emit_insts(&lower.insts);
                self.emit_insts(&upper.insts);
                if *kind == LoopKind::Parallel {
                    self.emit_par_call(*var, lower.reg, upper.reg, preamble, body);
                    return;
                }
                let (vs, hs) = self.alloc.loop_slots[self.next_slot];
                self.next_slot += 1;
                self.read_i(Gpr::Rax, lower.reg);
                self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rax);
                self.read_i(Gpr::Rax, upper.reg);
                self.a.mov_mr(Mem::base(Gpr::Rsp, hs), Gpr::Rax);
                if matches!(kind, LoopKind::Vectorize(_)) && bc_body_vectorizable(body) {
                    self.emit_vector_loop(vs, hs, *var, preamble, body);
                } else {
                    self.emit_counted_loop(vs, hs, *var, preamble, body);
                }
            }
        }
    }

    /// `while [vs] < [hs]: frame[var] = [vs]; preamble; body; [vs] += 1`
    /// with the back edge as a direct conditional jump.
    fn emit_counted_loop(
        &mut self,
        vs: i32,
        hs: i32,
        var: u32,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        self.a.comment(&format!("loop v{var}"));
        let top = self.a.new_label();
        let done = self.a.new_label();
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, hs));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        self.a.jcc(Cc::Ge, done);
        self.a.bind(top);
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.mov_mr(Mem::base(Gpr::R14, var as i32 * 8), Gpr::Rax);
        self.emit_insts(preamble);
        self.emit_block(body);
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.add_ri(Gpr::Rax, 1);
        self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rax);
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, hs));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        self.a.jcc(Cc::L, top);
        self.a.bind(done);
    }

    /// Lane groups of [`LANES`] while `v + LANES <= hi`, then the scalar
    /// remainder (which alone writes the frame slot, like the
    /// interpreter's vector path).
    fn emit_vector_loop(
        &mut self,
        vs: i32,
        hs: i32,
        var: u32,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        self.a.comment(&format!("vector loop v{var}"));
        let chk = self.a.new_label();
        let rem = self.a.new_label();
        self.a.bind(chk);
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.add_ri(Gpr::Rax, LANES as i32);
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::Rsp, hs));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        self.a.jcc(Cc::G, rem);
        self.emit_chunk(var, vs, preamble, body);
        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, vs));
        self.a.add_ri(Gpr::Rax, LANES as i32);
        self.a.mov_mr(Mem::base(Gpr::Rsp, vs), Gpr::Rax);
        self.a.jmp(chk);
        self.a.bind(rem);
        self.emit_counted_loop(vs, hs, var, preamble, body);
    }

    /// One lane group: every instruction unrolled across the 8 lanes
    /// (inst-major), then stores write all lanes per statement. Lets do
    /// not write the frame; nothing here touches scalar register homes.
    fn emit_chunk(&mut self, var: u32, v_slot: i32, preamble: &'a [Inst], body: &'a [BcStmt]) {
        self.chunk_def_i.iter_mut().for_each(|f| *f = false);
        self.chunk_def_f.iter_mut().for_each(|f| *f = false);
        self.chunk = Some(ChunkCtx { var, v_slot });
        self.emit_insts_lanes(preamble);
        for s in body {
            match s {
                BcStmt::Let { code, .. } => self.emit_insts_lanes(code),
                BcStmt::Store { code, buf, idx, val } => {
                    self.emit_insts_lanes(code);
                    for l in 0..LANES {
                        self.lane = Some(l);
                        self.emit_store(*buf, *idx, *val);
                    }
                    self.lane = None;
                }
                _ => unreachable!("checked by bc_body_vectorizable"),
            }
        }
        self.chunk = None;
    }

    fn emit_insts_lanes(&mut self, insts: &'a [Inst]) {
        for inst in insts {
            for l in 0..LANES {
                self.lane = Some(l);
                self.emit_inst(inst);
            }
            self.lane = None;
            let (file, dst) = inst.dst();
            match file {
                File::I => self.chunk_def_i[dst as usize] = true,
                File::F => self.chunk_def_f[dst as usize] = true,
            }
        }
    }

    /// `buf[i[idx]] = f[val]` with the bounds check jumping to a deopt
    /// stub (idx in rax at the guard).
    fn emit_store(&mut self, buf: u32, idx: Reg, val: Reg) {
        self.read_i(Gpr::Rax, idx);
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16 + 8));
        self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
        let stub = self.trap(Deopt::StoreOob { buf });
        self.a.jcc(Cc::Ae, stub);
        self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16));
        self.read_f(Xmm(0), val);
        self.a.movss_mx(Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0), Xmm(0));
    }

    /// Evaluates bounds into arg registers and calls the parallel
    /// dispatch trampoline; a nonzero status propagates to the epilogue.
    fn emit_par_call(
        &mut self,
        var: u32,
        lo_reg: Reg,
        hi_reg: Reg,
        preamble: &'a [Inst],
        body: &'a [BcStmt],
    ) {
        let id = self.next_par_id;
        self.next_par_id += 1;
        self.pending.push(ParWork { var, preamble, body });
        self.a.comment(&format!("parallel v{var} -> par{id}"));
        self.read_i(Gpr::Rax, lo_reg);
        self.read_i(Gpr::Rcx, hi_reg);
        self.a.mov_rr(Gpr::Rdi, Gpr::R15);
        self.a.mov_ri(Gpr::Rsi, id as i64);
        self.a.mov_rr(Gpr::Rdx, Gpr::Rax);
        self.call_helper(runtime::jit_par_dispatch as *const () as usize as u64, "jit_par_dispatch");
        self.a.test_rr(Gpr::Rax, Gpr::Rax);
        self.a.jcc(Cc::Ne, self.exit);
    }

    // -- instructions --------------------------------------------------------

    fn emit_insts(&mut self, insts: &'a [Inst]) {
        for inst in insts {
            self.emit_inst(inst);
        }
    }

    fn emit_inst(&mut self, inst: &Inst) {
        match *inst {
            Inst::ConstI { dst, v } => {
                self.a.mov_ri(Gpr::Rax, v);
                self.write_i(dst);
            }
            Inst::ConstF { dst, v } => {
                self.a.mov_ri32(Gpr::Rax, v.to_bits());
                self.a.movd_xr(Xmm(0), Gpr::Rax);
                self.write_f(dst);
            }
            Inst::ReadVar { dst, var } => {
                match (self.lane, self.chunk) {
                    (Some(l), Some(c)) if c.var == var => {
                        // The vectorized loop variable: lane value is the
                        // chunk base plus the lane index.
                        self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::Rsp, c.v_slot));
                        if l > 0 {
                            self.a.add_ri(Gpr::Rax, l as i32);
                        }
                    }
                    _ => self.a.mov_rm(Gpr::Rax, Mem::base(Gpr::R14, var as i32 * 8)),
                }
                self.write_i(dst);
            }
            Inst::Load { dst, buf, idx } => {
                self.read_i(Gpr::Rax, idx);
                self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16 + 8));
                self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
                let stub = self.trap(Deopt::LoadOob { buf });
                self.a.jcc(Cc::Ae, stub);
                self.a.mov_rm(Gpr::Rcx, Mem::base(Gpr::R13, buf as i32 * 16));
                self.a.movss_xm(Xmm(0), Mem::sib(Gpr::Rcx, Gpr::Rax, 4, 0));
                self.write_f(dst);
            }
            Inst::BinI { dst, op, a, b } => {
                self.emit_bin_i(dst, op, a, b);
            }
            Inst::BinF { dst, op, a, b } => {
                self.read_f(Xmm(0), a);
                self.read_f(Xmm(1), b);
                match op {
                    BinOp::Add => self.a.addss(Xmm(0), Xmm(1)),
                    BinOp::Sub => self.a.subss(Xmm(0), Xmm(1)),
                    BinOp::Mul => self.a.mulss(Xmm(0), Xmm(1)),
                    BinOp::Div => self.a.divss(Xmm(0), Xmm(1)),
                    // Rust `f32::min`/`max`/`%` NaN semantics via helpers.
                    BinOp::Min => self.call_helper(runtime::jit_fminf as *const () as usize as u64, "jit_fminf"),
                    BinOp::Max => self.call_helper(runtime::jit_fmaxf as *const () as usize as u64, "jit_fmaxf"),
                    BinOp::Rem => self.call_helper(runtime::jit_fmodf as *const () as usize as u64, "jit_fmodf"),
                    _ => unreachable!("comparison handled elsewhere"),
                }
                self.write_f(dst);
            }
            Inst::CmpI { dst, op, a, b } => {
                self.read_i(Gpr::Rax, a);
                self.read_i(Gpr::Rcx, b);
                self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
                let cc = match op {
                    BinOp::Lt => Cc::L,
                    BinOp::Le => Cc::Le,
                    BinOp::EqCmp => Cc::E,
                    _ => unreachable!(),
                };
                self.a.setcc_r8(cc, Gpr::Rax);
                self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                self.write_i(dst);
            }
            Inst::CmpF { dst, op, a, b } => {
                match op {
                    // `a < b` as `b > a` so unordered (NaN) reads false:
                    // after ucomiss, CF/ZF/PF are all set when unordered
                    // and `a`/`ae` require CF clear.
                    BinOp::Lt | BinOp::Le => {
                        self.read_f(Xmm(0), a);
                        self.read_f(Xmm(1), b);
                        self.a.ucomiss(Xmm(1), Xmm(0));
                        let cc = if op == BinOp::Lt { Cc::A } else { Cc::Ae };
                        self.a.setcc_r8(cc, Gpr::Rax);
                        self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                    }
                    BinOp::EqCmp => {
                        self.read_f(Xmm(0), a);
                        self.read_f(Xmm(1), b);
                        self.a.ucomiss(Xmm(0), Xmm(1));
                        // ZF is set for equal *and* unordered; mask with
                        // "ordered" (no parity).
                        self.a.setcc_r8(Cc::E, Gpr::Rax);
                        self.a.setcc_r8(Cc::Np, Gpr::Rcx);
                        self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                        self.a.movzx_r64_r8(Gpr::Rcx, Gpr::Rcx);
                        self.a.and_rr(Gpr::Rax, Gpr::Rcx);
                    }
                    _ => unreachable!(),
                }
                self.write_i(dst);
            }
            Inst::UnI { dst, op, a } => {
                self.read_i(Gpr::Rax, a);
                match op {
                    UnOp::Neg => {
                        self.guard_min(Deopt::NegAbs { op });
                        self.a.neg_r(Gpr::Rax);
                    }
                    UnOp::Abs => {
                        self.guard_min(Deopt::NegAbs { op });
                        // Branchless |a| (wraps MIN like release `abs`).
                        self.a.mov_rr(Gpr::Rcx, Gpr::Rax);
                        self.a.sar_ri(Gpr::Rcx, 63);
                        self.a.xor_rr(Gpr::Rax, Gpr::Rcx);
                        self.a.sub_rr(Gpr::Rax, Gpr::Rcx);
                    }
                    UnOp::Not => {
                        self.a.test_rr(Gpr::Rax, Gpr::Rax);
                        self.a.setcc_r8(Cc::E, Gpr::Rax);
                        self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                    }
                    UnOp::Sqrt | UnOp::Exp => unreachable!(),
                }
                self.write_i(dst);
            }
            Inst::UnF { dst, op, a } => {
                self.read_f(Xmm(0), a);
                match op {
                    UnOp::Neg => {
                        self.a.mov_ri32(Gpr::Rax, 0x8000_0000);
                        self.a.movd_xr(Xmm(1), Gpr::Rax);
                        self.a.xorps(Xmm(0), Xmm(1));
                    }
                    UnOp::Abs => {
                        self.a.mov_ri32(Gpr::Rax, 0x7FFF_FFFF);
                        self.a.movd_xr(Xmm(1), Gpr::Rax);
                        self.a.andps(Xmm(0), Xmm(1));
                    }
                    UnOp::Sqrt => self.a.sqrtss(Xmm(0), Xmm(0)),
                    UnOp::Exp => self.call_helper(runtime::jit_expf as *const () as usize as u64, "jit_expf"),
                    UnOp::Not => unreachable!(),
                }
                self.write_f(dst);
            }
            Inst::SelI { dst, c, a, b } => {
                self.read_i(Gpr::Rax, a);
                self.read_i(Gpr::Rcx, b);
                self.read_i(Gpr::Rdx, c);
                self.a.test_rr(Gpr::Rdx, Gpr::Rdx);
                self.a.cmov_rr(Cc::E, Gpr::Rax, Gpr::Rcx);
                self.write_i(dst);
            }
            Inst::SelF { dst, c, a, b } => {
                self.read_f(Xmm(0), a);
                self.read_f(Xmm(1), b);
                self.read_i(Gpr::Rax, c);
                self.a.test_rr(Gpr::Rax, Gpr::Rax);
                let keep = self.a.new_label();
                self.a.jcc(Cc::Ne, keep);
                self.a.movss_xx(Xmm(0), Xmm(1));
                self.a.bind(keep);
                self.write_f(dst);
            }
            Inst::CastIF { dst, a } => {
                self.read_i(Gpr::Rax, a);
                self.a.cvtsi2ss(Xmm(0), Gpr::Rax);
                self.write_f(dst);
            }
            Inst::CastFI { dst, a } => {
                // Rust's saturating `f32 as i64` through a helper.
                self.read_f(Xmm(0), a);
                self.call_helper(runtime::jit_f2i as *const () as usize as u64, "jit_f2i");
                self.write_i(dst);
            }
        }
    }

    /// Deopts when rax == i64::MIN — only in builds where the
    /// interpreter's `-a`/`a.abs()` would panic (overflow checks on).
    fn guard_min(&mut self, d: Deopt) {
        if cfg!(debug_assertions) {
            self.a.mov_ri(Gpr::Rcx, i64::MIN);
            self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
            let stub = self.trap(d);
            self.a.jcc(Cc::E, stub);
        }
    }

    fn emit_bin_i(&mut self, dst: Reg, op: BinOp, a: Reg, b: Reg) {
        self.read_i(Gpr::Rax, a);
        self.read_i(Gpr::Rcx, b);
        match op {
            BinOp::Add => self.a.add_rr(Gpr::Rax, Gpr::Rcx),
            BinOp::Sub => self.a.sub_rr(Gpr::Rax, Gpr::Rcx),
            BinOp::Mul => self.a.imul_rr(Gpr::Rax, Gpr::Rcx),
            BinOp::Min => {
                self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
                self.a.cmov_rr(Cc::G, Gpr::Rax, Gpr::Rcx);
            }
            BinOp::Max => {
                self.a.cmp_rr(Gpr::Rax, Gpr::Rcx);
                self.a.cmov_rr(Cc::L, Gpr::Rax, Gpr::Rcx);
            }
            BinOp::And | BinOp::Or => {
                self.a.test_rr(Gpr::Rax, Gpr::Rax);
                self.a.setcc_r8(Cc::Ne, Gpr::Rax);
                self.a.movzx_r64_r8(Gpr::Rax, Gpr::Rax);
                self.a.test_rr(Gpr::Rcx, Gpr::Rcx);
                self.a.setcc_r8(Cc::Ne, Gpr::Rcx);
                self.a.movzx_r64_r8(Gpr::Rcx, Gpr::Rcx);
                if op == BinOp::And {
                    self.a.and_rr(Gpr::Rax, Gpr::Rcx);
                } else {
                    self.a.or_rr(Gpr::Rax, Gpr::Rcx);
                }
            }
            BinOp::Div | BinOp::Rem => {
                // Guards: b == 0, then MIN / -1 — both replayed through
                // `apply_i` so the panic messages match the interpreter.
                self.a.test_rr(Gpr::Rcx, Gpr::Rcx);
                let stub = self.trap(Deopt::DivRem { op });
                self.a.jcc(Cc::E, stub);
                self.a.cmp_ri(Gpr::Rcx, -1);
                let go = self.a.new_label();
                self.a.jcc(Cc::Ne, go);
                self.a.mov_ri(Gpr::Rdx, i64::MIN);
                self.a.cmp_rr(Gpr::Rax, Gpr::Rdx);
                let stub2 = self.trap(Deopt::DivRem { op });
                self.a.jcc(Cc::E, stub2);
                self.a.bind(go);
                self.a.cqo();
                self.a.idiv_r(Gpr::Rcx);
                // Truncated -> Euclidean fixups (rax = q, rdx = r).
                let done = self.a.new_label();
                if op == BinOp::Div {
                    // r < 0: q -= sign(b) i.e. q - (2*(b>>63) + 1).
                    self.a.test_rr(Gpr::Rdx, Gpr::Rdx);
                    self.a.jcc(Cc::Ns, done);
                    self.a.mov_rr(Gpr::Rdx, Gpr::Rcx);
                    self.a.sar_ri(Gpr::Rdx, 63);
                    self.a.add_rr(Gpr::Rdx, Gpr::Rdx);
                    self.a.add_ri(Gpr::Rdx, 1);
                    self.a.sub_rr(Gpr::Rax, Gpr::Rdx);
                    self.a.bind(done);
                } else {
                    // r < 0: r += |b| (wrapping, like `rem_euclid`).
                    self.a.test_rr(Gpr::Rdx, Gpr::Rdx);
                    self.a.jcc(Cc::Ns, done);
                    self.a.mov_rr(Gpr::Rax, Gpr::Rcx);
                    self.a.sar_ri(Gpr::Rcx, 63);
                    self.a.xor_rr(Gpr::Rax, Gpr::Rcx);
                    self.a.sub_rr(Gpr::Rax, Gpr::Rcx);
                    self.a.add_rr(Gpr::Rdx, Gpr::Rax);
                    self.a.bind(done);
                    self.a.mov_rr(Gpr::Rax, Gpr::Rdx);
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::EqCmp => unreachable!("comparison is CmpI"),
        }
        self.write_i(dst);
    }
}
