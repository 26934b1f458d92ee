//! Program structure: buffers, statements, loop annotations.

use crate::bytecode::BcProgram;
use crate::expr::{Expr, Var};
use crate::jit::JitProgram;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Identifier of a flat `f32` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub(crate) u32);

impl BufId {
    /// The raw buffer table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a loop maps to hardware — the lowered form of the paper's space
/// tags (`cpu`, `vec(s)`, `unroll`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Ordinary sequential loop.
    Serial,
    /// Iterations distributed over OS threads (the `cpu` tag /
    /// `parallelize()` command).
    Parallel,
    /// Iterations evaluated in lanes (the `vec(s)` tag / `vectorize()`),
    /// with the requested vector width.
    Vectorize(usize),
    /// Unrolled by the given factor (the `unroll` tag); the VM executes it
    /// with the loop-overhead-free pre-expanded path when possible.
    Unroll(usize),
}

/// A statement of the VM program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for var in lower..upper { body }` (upper exclusive).
    For {
        /// Loop variable slot.
        var: Var,
        /// Inclusive lower bound (`i64` expression).
        lower: Expr,
        /// Exclusive upper bound (`i64` expression).
        upper: Expr,
        /// Hardware mapping.
        kind: LoopKind,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if cond { then } else { else_ }` — `cond` is an `i64` predicate.
    If {
        /// Predicate.
        cond: Expr,
        /// Taken branch.
        then: Vec<Stmt>,
        /// Fallback branch.
        else_: Vec<Stmt>,
    },
    /// `buf[index] = value`.
    Store {
        /// Destination buffer.
        buf: BufId,
        /// Flat element index (`i64`).
        index: Expr,
        /// Stored value (`f32`).
        value: Expr,
    },
    /// Binds a scalar `i64` variable for the remainder of the block.
    Let {
        /// Destination slot.
        var: Var,
        /// Bound value (`i64`).
        value: Expr,
    },
}

impl Stmt {
    /// Convenience constructor for a loop.
    pub fn for_(var: Var, lower: Expr, upper: Expr, kind: LoopKind, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var, lower, upper, kind, body }
    }

    /// Convenience constructor for a serial loop.
    pub fn serial(var: Var, lower: Expr, upper: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var, lower, upper, kind: LoopKind::Serial, body }
    }

    /// Convenience constructor for a store.
    pub fn store(buf: BufId, index: Expr, value: Expr) -> Stmt {
        Stmt::Store { buf, index, value }
    }

    /// Convenience constructor for a conditional without else.
    pub fn if_then(cond: Expr, then: Vec<Stmt>) -> Stmt {
        Stmt::If { cond, then, else_: Vec::new() }
    }

    /// Convenience constructor for a let binding.
    pub fn let_(var: Var, value: Expr) -> Stmt {
        Stmt::Let { var, value }
    }
}

/// A complete VM program: buffer table, variable slots, statement list.
///
/// `PartialEq` is structural (and bitwise on `f32` constants apart from
/// NaN, which never compares equal). Every construction path
/// ([`Program::push`], [`Program::set_body`], the declaration builders)
/// also folds the added structure into a 64-bit [`Program::fingerprint`],
/// so caches (the compile service's tiers, artifact keys) can compare
/// programs with one integer comparison instead of an O(program)
/// structural walk.
///
/// The program also owns the code compiled from it ([`Program::compiled`]):
/// derived state like the fingerprint, shared by every clone, reset by
/// every `&mut` builder, and ignored by `PartialEq`, `Debug`, the
/// fingerprint and the codec.
#[derive(Clone, Default)]
pub struct Program {
    pub(crate) buffers: Vec<(String, usize)>,
    pub(crate) vars: Vec<String>,
    /// Top-level statements, executed in order. Mutations go through
    /// [`Program::push`] / [`Program::set_body`] so the fingerprint stays
    /// in sync.
    pub(crate) body: Vec<Stmt>,
    /// Running hash of the buffer table. Kept separate from `fp_vars` so
    /// the fingerprint is truly structural: interleaving `buffer()` and
    /// `var()` calls differently (as codec replay does) must not change
    /// the fingerprint of a structurally equal program.
    fp_bufs: u64,
    /// Running hash of the variable table.
    fp_vars: u64,
    /// Running hash of the statement list.
    fp_body: u64,
    /// Code compiled (or decoded) from exactly this structure; emptied by
    /// every builder so it can never describe a different program.
    code: OnceLock<Arc<Compiled>>,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("buffers", &self.buffers)
            .field("vars", &self.vars)
            .field("body", &self.body)
            .field("fp_bufs", &self.fp_bufs)
            .field("fp_vars", &self.fp_vars)
            .field("fp_body", &self.fp_body)
            .finish()
    }
}

/// The code compiled from one [`Program`]: its optimized bytecode and,
/// compiled on first request, native code. It lives exactly as long as
/// the last clone of that program, and native code is freed with it.
pub struct Compiled {
    bc: BcProgram,
    native: OnceLock<Option<JitProgram>>,
}

impl Compiled {
    /// The optimized register bytecode.
    pub fn bytecode(&self) -> &BcProgram {
        &self.bc
    }

    /// Native code for the bytecode, JIT-compiled on the first call;
    /// `None` where the JIT tier is unavailable or declines the program
    /// (the attempt is made once). The compile is counted in the
    /// `vm.jit.compiles` / `vm.jit.fallbacks` metrics and timed in
    /// `vm.jit.compile_us`.
    pub fn native(&self) -> Option<&JitProgram> {
        self.native
            .get_or_init(|| {
                let m = crate::vm::vm_metrics();
                let t0 = std::time::Instant::now();
                let j = crate::jit::compile(&self.bc);
                if j.is_some() { m.jit_compiles.inc() } else { m.jit_fallbacks.inc() }
                m.jit_compile_us.record_duration(t0.elapsed());
                j
            })
            .as_ref()
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        // Structural equality only; the fingerprints are derived state.
        self.buffers == other.buffers && self.vars == other.vars && self.body == other.body
    }
}

/// Deterministic 64-bit fold (FNV-style mixing of SipHash'd items): the
/// fingerprint must be stable for a given construction sequence within a
/// process, and incremental so builders stay O(added structure).
fn fp_mix(acc: u64, item: u64) -> u64 {
    (acc ^ item).wrapping_mul(0x100_0000_01b3).rotate_left(29)
}

fn fp_item(f: impl FnOnce(&mut std::collections::hash_map::DefaultHasher)) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    f(&mut h);
    h.finish()
}

fn hash_expr(e: &Expr, h: &mut impl Hasher) {
    std::mem::discriminant(e).hash(h);
    match e {
        // f32 constants hash by bit pattern (NaN payloads included), like
        // the bytecode compiler's constant table.
        Expr::ConstF(v) => v.to_bits().hash(h),
        Expr::ConstI(v) => v.hash(h),
        Expr::Var(v) => v.0.hash(h),
        Expr::Load(b, i) => {
            b.0.hash(h);
            hash_expr(i, h);
        }
        Expr::Bin(op, a, b) => {
            op.hash(h);
            hash_expr(a, h);
            hash_expr(b, h);
        }
        Expr::Un(op, a) => {
            op.hash(h);
            hash_expr(a, h);
        }
        Expr::Select(c, a, b) => {
            hash_expr(c, h);
            hash_expr(a, h);
            hash_expr(b, h);
        }
        Expr::Cast(t, a) => {
            t.hash(h);
            hash_expr(a, h);
        }
    }
}

fn hash_stmt(s: &Stmt, h: &mut impl Hasher) {
    std::mem::discriminant(s).hash(h);
    match s {
        Stmt::For { var, lower, upper, kind, body } => {
            var.0.hash(h);
            hash_expr(lower, h);
            hash_expr(upper, h);
            match kind {
                LoopKind::Serial => 0u8.hash(h),
                LoopKind::Parallel => 1u8.hash(h),
                LoopKind::Vectorize(w) => {
                    2u8.hash(h);
                    w.hash(h);
                }
                LoopKind::Unroll(w) => {
                    3u8.hash(h);
                    w.hash(h);
                }
            }
            body.len().hash(h);
            for s in body {
                hash_stmt(s, h);
            }
        }
        Stmt::If { cond, then, else_ } => {
            hash_expr(cond, h);
            then.len().hash(h);
            for s in then {
                hash_stmt(s, h);
            }
            else_.len().hash(h);
            for s in else_ {
                hash_stmt(s, h);
            }
        }
        Stmt::Store { buf, index, value } => {
            buf.0.hash(h);
            hash_expr(index, h);
            hash_expr(value, h);
        }
        Stmt::Let { var, value } => {
            var.0.hash(h);
            hash_expr(value, h);
        }
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Declares a buffer of `size` `f32` elements.
    pub fn buffer(&mut self, name: &str, size: usize) -> BufId {
        self.code = OnceLock::new();
        self.buffers.push((name.to_string(), size));
        self.fp_bufs = fp_mix(
            self.fp_bufs,
            fp_item(|h| {
                b"buf".hash(h);
                name.hash(h);
                size.hash(h);
            }),
        );
        BufId((self.buffers.len() - 1) as u32)
    }

    /// Declares a scalar variable slot.
    pub fn var(&mut self, name: &str) -> Var {
        self.code = OnceLock::new();
        self.vars.push(name.to_string());
        self.fp_vars = fp_mix(
            self.fp_vars,
            fp_item(|h| {
                b"var".hash(h);
                name.hash(h);
            }),
        );
        Var((self.vars.len() - 1) as u32)
    }

    /// Appends a top-level statement.
    pub fn push(&mut self, s: Stmt) {
        self.code = OnceLock::new();
        self.fp_body = fp_mix(self.fp_body, fp_item(|h| hash_stmt(&s, h)));
        self.body.push(s);
    }

    /// The top-level statements.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Replaces the whole statement list (lowering pipelines build bodies
    /// out-of-line). The fingerprint is recomputed from the new body.
    pub fn set_body(&mut self, body: Vec<Stmt>) {
        self.code = OnceLock::new();
        self.fp_body = 0;
        for s in &body {
            self.fp_body = fp_mix(self.fp_body, fp_item(|h| hash_stmt(s, h)));
        }
        self.body = body;
    }

    /// A 64-bit structural fingerprint of the program (declarations and
    /// statements, `f32` constants by bit pattern), maintained
    /// incrementally by the builders. Two structurally equal programs
    /// always have equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        fp_mix(fp_mix(fp_mix(0x7472_616d_6973_7531, self.fp_bufs), self.fp_vars), self.fp_body)
    }

    /// The program's compiled code, optimizing it to bytecode now if no
    /// code is attached yet (see [`crate::opt::compile_program`]). Later
    /// calls return the same code, as do clones made from now on.
    ///
    /// # Errors
    ///
    /// The bytecode compiler's errors.
    pub fn compiled(&self) -> crate::Result<&Compiled> {
        if let Some(c) = self.code.get() {
            return Ok(c);
        }
        let c = Compiled { bc: crate::opt::compile_program(self)?, native: OnceLock::new() };
        Ok(self.code.get_or_init(|| Arc::new(c)))
    }

    /// The attached bytecode, if the program has been compiled or its
    /// code decoded; never compiles.
    pub fn bytecode(&self) -> Option<&BcProgram> {
        self.code.get().map(|c| &c.bc)
    }

    /// Attaches bytecode decoded and validated against this program
    /// ([`crate::codec::decode_bc_into`]). Keeps code already attached.
    pub(crate) fn attach(&self, bc: BcProgram) {
        let _ = self.code.set(Arc::new(Compiled { bc, native: OnceLock::new() }));
    }

    /// Number of declared buffers.
    pub fn n_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Number of declared scalar slots.
    pub fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// Name and size of a buffer.
    pub fn buffer_info(&self, b: BufId) -> (&str, usize) {
        let (n, s) = &self.buffers[b.index()];
        (n, *s)
    }

    /// The `i`-th declared buffer (declaration order).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn nth_buffer(&self, i: usize) -> BufId {
        assert!(i < self.buffers.len(), "buffer index {i} out of range");
        BufId(i as u32)
    }

    /// Looks up a buffer by name.
    pub fn buffer_by_name(&self, name: &str) -> Option<BufId> {
        self.buffers.iter().position(|(n, _)| n == name).map(|i| BufId(i as u32))
    }

    /// Pretty-prints the program as pseudo-C (for tests and docs).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        for s in &self.body {
            self.pretty_stmt(s, 0, &mut out);
        }
        out
    }

    /// Pretty-prints a statement slice using this program's buffer and
    /// variable names, at the given starting indent. Used by consumers
    /// that hold statements outside `body` (kernel phases, rank programs,
    /// compile-trace snapshots).
    pub fn pretty_stmts(&self, stmts: &[Stmt], indent: usize) -> String {
        let mut out = String::new();
        for s in stmts {
            self.pretty_stmt(s, indent, &mut out);
        }
        out
    }

    /// Pretty-prints a single expression using this program's names.
    pub fn pretty_expr_str(&self, e: &Expr) -> String {
        self.pretty_expr(e)
    }

    fn pretty_stmt(&self, s: &Stmt, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match s {
            Stmt::For { var, lower, upper, kind, body } => {
                let tag = match kind {
                    LoopKind::Serial => "",
                    LoopKind::Parallel => "parallel ",
                    LoopKind::Vectorize(w) => {
                        out.push_str(&format!("{pad}// vectorize x{w}\n"));
                        ""
                    }
                    LoopKind::Unroll(u) => {
                        out.push_str(&format!("{pad}// unroll x{u}\n"));
                        ""
                    }
                };
                out.push_str(&format!(
                    "{pad}{tag}for ({} = {}; {} < {}; {}++) {{\n",
                    self.vars[var.index()],
                    self.pretty_expr(lower),
                    self.vars[var.index()],
                    self.pretty_expr(upper),
                    self.vars[var.index()],
                ));
                for b in body {
                    self.pretty_stmt(b, indent + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::If { cond, then, else_ } => {
                out.push_str(&format!("{pad}if ({}) {{\n", self.pretty_expr(cond)));
                for b in then {
                    self.pretty_stmt(b, indent + 1, out);
                }
                if !else_.is_empty() {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    for b in else_ {
                        self.pretty_stmt(b, indent + 1, out);
                    }
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Store { buf, index, value } => {
                out.push_str(&format!(
                    "{pad}{}[{}] = {};\n",
                    self.buffers[buf.index()].0,
                    self.pretty_expr(index),
                    self.pretty_expr(value)
                ));
            }
            Stmt::Let { var, value } => {
                out.push_str(&format!(
                    "{pad}let {} = {};\n",
                    self.vars[var.index()],
                    self.pretty_expr(value)
                ));
            }
        }
    }

    fn pretty_expr(&self, e: &Expr) -> String {
        use crate::expr::{BinOp, UnOp};
        match e {
            Expr::ConstF(v) => format!("{v}"),
            Expr::ConstI(v) => format!("{v}"),
            Expr::Var(v) => self.vars[v.index()].clone(),
            Expr::Load(b, i) => {
                format!("{}[{}]", self.buffers[b.index()].0, self.pretty_expr(i))
            }
            Expr::Bin(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Min => return format!("min({}, {})", self.pretty_expr(a), self.pretty_expr(b)),
                    BinOp::Max => return format!("max({}, {})", self.pretty_expr(a), self.pretty_expr(b)),
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::EqCmp => "==",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                format!("({} {} {})", self.pretty_expr(a), sym, self.pretty_expr(b))
            }
            Expr::Un(op, a) => {
                let name = match op {
                    UnOp::Neg => "-",
                    UnOp::Abs => "abs",
                    UnOp::Sqrt => "sqrt",
                    UnOp::Exp => "exp",
                    UnOp::Not => "!",
                };
                format!("{name}({})", self.pretty_expr(a))
            }
            Expr::Select(c, a, b) => format!(
                "({} ? {} : {})",
                self.pretty_expr(c),
                self.pretty_expr(a),
                self.pretty_expr(b)
            ),
            Expr::Cast(t, a) => format!("({t:?})({})", self.pretty_expr(a)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn builder_assigns_ids() {
        let mut p = Program::new();
        let a = p.buffer("A", 10);
        let b = p.buffer("B", 20);
        assert_ne!(a, b);
        assert_eq!(p.buffer_info(b), ("B", 20));
        assert_eq!(p.buffer_by_name("A"), Some(a));
        assert_eq!(p.buffer_by_name("zzz"), None);
        let i = p.var("i");
        let j = p.var("j");
        assert_ne!(i, j);
    }

    #[test]
    fn fingerprint_tracks_structure() {
        let build = |c: f32| {
            let mut p = Program::new();
            let a = p.buffer("A", 10);
            let i = p.var("i");
            p.push(Stmt::serial(
                i,
                Expr::i64(0),
                Expr::i64(10),
                vec![Stmt::store(a, Expr::var(i), Expr::f32(c))],
            ));
            p
        };
        // Equal structure => equal fingerprint (the cache-hit direction).
        assert_eq!(build(1.0), build(1.0));
        assert_eq!(build(1.0).fingerprint(), build(1.0).fingerprint());
        // Different constants, names, or bodies => different fingerprints.
        assert_ne!(build(1.0).fingerprint(), build(2.0).fingerprint());
        let mut renamed = Program::new();
        renamed.buffer("B", 10);
        renamed.var("i");
        assert_ne!(
            build(1.0).fingerprint(),
            {
                renamed.push(build(1.0).body()[0].clone());
                renamed.fingerprint()
            }
        );
        // set_body keeps the fingerprint in sync with the new statements.
        let mut p = build(1.0);
        let q = build(2.0);
        p.set_body(q.body().to_vec());
        assert_eq!(p.fingerprint(), q.fingerprint());
        assert_ne!(p.fingerprint(), build(1.0).fingerprint());
    }

    #[test]
    fn pretty_prints_loops() {
        let mut p = Program::new();
        let a = p.buffer("A", 10);
        let i = p.var("i");
        p.push(Stmt::serial(
            i,
            Expr::i64(0),
            Expr::i64(10),
            vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
        ));
        let text = p.pretty();
        assert!(text.contains("for (i = 0; i < 10; i++)"));
        assert!(text.contains("A[i] = 1;"));
    }
}
