//! The SIMT executor: lockstep warp execution with masks, a memory model
//! and a per-SM scheduler.
//!
//! Each barrier-delimited kernel phase is compiled once to optimized
//! register bytecode (`loopvm::opt`) and executed by the warp-level
//! masked interpreter ([`loopvm::simt`]); this module supplies the block
//! and warp scheduling and prices every instruction and memory access
//! through [`WarpHost`]. Kernels are differentially tested against the
//! CPU tree-walk oracle (`loopvm::Machine::run_tree_walk`).

use crate::{GpuModel, Kernel, MemSpace};
use loopvm::{BcProgram, Error, Result, WarpHost};

/// Warp width (lanes executing in lockstep).
pub const WARP: usize = 32;

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchStats {
    /// Modeled device cycles (max over SMs of their block queues).
    pub cycles: f64,
    /// Warp-level instructions issued.
    pub warp_instructions: u64,
    /// 128-byte global memory segment transactions.
    pub global_transactions: u64,
    /// Shared-memory accesses (bank-conflict degree accumulated).
    pub shared_accesses: u64,
    /// Excess cycles lost to shared-memory bank conflicts.
    pub bank_conflict_degree: u64,
    /// Constant-memory broadcasts.
    pub constant_broadcasts: u64,
    /// Branches (or loops) that diverged within a warp.
    pub divergent_branches: u64,
    /// Warps executed.
    pub warps: u64,
}

impl LaunchStats {
    fn add(&mut self, o: &LaunchStats) {
        self.warp_instructions += o.warp_instructions;
        self.global_transactions += o.global_transactions;
        self.shared_accesses += o.shared_accesses;
        self.bank_conflict_degree += o.bank_conflict_degree;
        self.constant_broadcasts += o.constant_broadcasts;
        self.divergent_branches += o.divergent_branches;
        self.warps += o.warps;
    }

    /// Multi-line human-readable rendering (one metric per row), for
    /// examples and observability demos.
    #[must_use]
    pub fn report(&self) -> String {
        format!(
            "gpu launch stats\n  modeled cycles      {:>14.0}\n  warps               {:>14}\n  warp instructions   {:>14}\n  global transactions {:>14}\n  shared accesses     {:>14}\n  bank-conflict cost  {:>14}\n  constant broadcasts {:>14}\n  divergent branches  {:>14}\n",
            self.cycles,
            self.warps,
            self.warp_instructions,
            self.global_transactions,
            self.shared_accesses,
            self.bank_conflict_degree,
            self.constant_broadcasts,
            self.divergent_branches
        )
    }
}

impl std::fmt::Display for LaunchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} cycles, {} warps, {} insts, {} gmem tx, {} smem, {} divergent",
            self.cycles,
            self.warps,
            self.warp_instructions,
            self.global_transactions,
            self.shared_accesses,
            self.divergent_branches
        )
    }
}

/// Allocates zeroed storage for every buffer of a kernel's program.
pub fn alloc_buffers(kernel: &Kernel) -> Vec<Vec<f32>> {
    (0..kernel.program.n_buffers())
        .map(|b| {
            let (_, size) = kernel.program.buffer_info(kernel.program.nth_buffer(b));
            vec![0.0f32; size]
        })
        .collect()
}

/// Modeled cost of a host↔device copy of `bytes` bytes.
pub fn copy_cost(model: &GpuModel, bytes: usize) -> f64 {
    model.copy_latency + model.copy_per_byte * bytes as f64
}

/// Splits a kernel body of `len` statements into barrier-delimited phase
/// ranges.
fn phase_ranges(len: usize, barriers: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut cuts: Vec<usize> = barriers.to_vec();
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let end = (cut + 1).min(len);
        if end > start {
            ranges.push(start..end);
        }
        start = end;
    }
    if start < len {
        ranges.push(start..len);
    }
    if ranges.is_empty() {
        ranges.push(0..len);
    }
    ranges
}

/// Compiles each barrier-delimited phase of a kernel to optimized
/// register bytecode (one [`BcProgram`] per phase, against the kernel
/// program's buffer/variable space). [`launch`] does this internally;
/// this entry point lets a driver compile once and launch many times via
/// [`launch_precompiled`].
///
/// # Errors
///
/// Type errors at bytecode compilation.
pub fn compile_phases(kernel: &Kernel) -> Result<Vec<BcProgram>> {
    let body = kernel.program.body();
    phase_ranges(body.len(), &kernel.barriers)
        .into_iter()
        .map(|r| loopvm::opt::compile_body(&kernel.program, &body[r]))
        .collect()
}

/// Seeds per-warp variable frames and active masks for one block.
fn seed_warps(
    kernel: &Kernel,
    threads: usize,
    n_warps: usize,
    bx: i64,
    by: i64,
) -> (Vec<Vec<[i64; WARP]>>, Vec<[bool; WARP]>) {
    let mut warp_vars: Vec<Vec<[i64; WARP]>> =
        vec![vec![[0i64; WARP]; kernel.program.n_vars()]; n_warps];
    let mut warp_masks: Vec<[bool; WARP]> = vec![[false; WARP]; n_warps];
    for (w, (vars, mask)) in warp_vars.iter_mut().zip(&mut warp_masks).enumerate() {
        let warp_start = w * WARP;
        let lanes = (threads - warp_start).min(WARP);
        for l in 0..lanes {
            mask[l] = true;
            let tid = warp_start + l;
            let tx = tid as i64 % kernel.block[0];
            let ty = tid as i64 / kernel.block[0];
            if let Some(v) = kernel.block_vars[0] {
                vars[v.index()][l] = bx;
            }
            if let Some(v) = kernel.block_vars[1] {
                vars[v.index()][l] = by;
            }
            if let Some(v) = kernel.thread_vars[0] {
                vars[v.index()][l] = tx;
            }
            if let Some(v) = kernel.thread_vars[1] {
                vars[v.index()][l] = ty;
            }
        }
    }
    (warp_vars, warp_masks)
}

fn buffer_names(kernel: &Kernel) -> Vec<String> {
    (0..kernel.program.n_buffers())
        .map(|b| kernel.program.buffer_info(kernel.program.nth_buffer(b)).0.to_string())
        .collect()
}

/// Launches a kernel on the modeled device. `buffers` must match the
/// kernel program's buffer declarations (see [`alloc_buffers`]); global
/// and constant buffers persist across blocks, shared buffers are cleared
/// at each block start.
///
/// Each kernel phase is compiled to optimized register bytecode first
/// ([`compile_phases`]), then launched with [`launch_precompiled`].
///
/// # Errors
///
/// Type errors at bytecode compilation and out-of-bounds accesses.
pub fn launch(
    kernel: &Kernel,
    buffers: &mut [Vec<f32>],
    model: &GpuModel,
) -> Result<LaunchStats> {
    let phases = compile_phases(kernel)?;
    launch_precompiled(kernel, buffers, model, &phases)
}

/// Always-on launch metrics, accumulated across every launch in the
/// process (the per-launch numbers stay on the returned [`LaunchStats`]).
fn record_launch_metrics(total: &LaunchStats) {
    struct GpuMetrics {
        launches: std::sync::Arc<telemetry::metrics::Counter>,
        divergent_branches: std::sync::Arc<telemetry::metrics::Counter>,
        bank_conflicts: std::sync::Arc<telemetry::metrics::Counter>,
    }
    static M: std::sync::OnceLock<GpuMetrics> = std::sync::OnceLock::new();
    let m = M.get_or_init(|| GpuMetrics {
        launches: telemetry::metrics::counter("gpu.launches"),
        divergent_branches: telemetry::metrics::counter("gpu.divergent_branches"),
        bank_conflicts: telemetry::metrics::counter("gpu.bank_conflicts"),
    });
    m.launches.inc();
    m.divergent_branches.add(total.divergent_branches);
    m.bank_conflicts.add(total.bank_conflict_degree);
}

/// Host adapter pricing warp bytecode execution with the simulator's
/// memory model: per-instruction issue cost, coalescing/bank-conflict/
/// broadcast pricing on loads and stores, divergence counting.
struct BcHost<'a> {
    model: &'a GpuModel,
    spaces: &'a [MemSpace],
    buffers: &'a mut [Vec<f32>],
    buffer_names: &'a [String],
    stats: LaunchStats,
    cycles: f64,
}

impl WarpHost<WARP> for BcHost<'_> {
    fn issue(&mut self) {
        self.stats.warp_instructions += 1;
        self.cycles += self.model.alu;
    }

    fn load(&mut self, buf: u32, idx: &[i64; WARP], mask: &[bool; WARP]) -> Result<[f32; WARP]> {
        mem_access(self.model, self.spaces, &mut self.stats, &mut self.cycles, buf, idx, *mask);
        let b = &self.buffers[buf as usize];
        let mut out = [0f32; WARP];
        for l in 0..WARP {
            if mask[l] {
                let i = idx[l];
                if i < 0 || i as usize >= b.len() {
                    return Err(Error::OutOfBounds {
                        buffer: self.buffer_names[buf as usize].clone(),
                        index: i,
                        size: b.len(),
                    });
                }
                out[l] = b[i as usize];
            }
        }
        Ok(out)
    }

    fn store(
        &mut self,
        buf: u32,
        idx: &[i64; WARP],
        val: &[f32; WARP],
        mask: &[bool; WARP],
    ) -> Result<()> {
        mem_access(self.model, self.spaces, &mut self.stats, &mut self.cycles, buf, idx, *mask);
        let b = &mut self.buffers[buf as usize];
        for l in 0..WARP {
            if mask[l] {
                let i = idx[l];
                if i < 0 || i as usize >= b.len() {
                    return Err(Error::OutOfBounds {
                        buffer: self.buffer_names[buf as usize].clone(),
                        index: i,
                        size: b.len(),
                    });
                }
                b[i as usize] = val[l];
            }
        }
        Ok(())
    }

    fn divergence(&mut self) {
        self.stats.divergent_branches += 1;
    }
}

/// Like [`launch`], but reuses phase bytecode compiled earlier with
/// [`compile_phases`] (the driver pattern: compile once at module
/// optimization, launch many times). Blocks run in order, round-robin
/// over the SMs; within a block every warp finishes phase `k` before any
/// warp starts phase `k + 1` (barrier semantics).
///
/// # Errors
///
/// Out-of-bounds accesses at runtime.
pub fn launch_precompiled(
    kernel: &Kernel,
    buffers: &mut [Vec<f32>],
    model: &GpuModel,
    phases: &[BcProgram],
) -> Result<LaunchStats> {
    assert_eq!(buffers.len(), kernel.program.n_buffers(), "buffer count mismatch");
    let buffer_names = buffer_names(kernel);

    let threads = kernel.threads_per_block();
    let mut sm_cycles = vec![0.0f64; model.sms.max(1)];
    let mut total = LaunchStats::default();

    // Per-kernel-phase profile, aggregated across blocks and warps
    // (the launch iterates blocks outermost). Allocated only under
    // `TIRAMISU_PROFILE`.
    let _sp = telemetry::span("gpu", "launch");
    let mut prof: Option<Vec<PhaseProf>> = telemetry::profile_enabled()
        .then(|| vec![PhaseProf::default(); phases.len()]);

    let n_warps = threads.div_ceil(WARP);
    for block_id in 0..kernel.n_blocks() {
        let bx = block_id as i64 % kernel.grid[0];
        let by = block_id as i64 / kernel.grid[0];
        // Shared memory is per-block: clear it.
        for (b, space) in kernel.spaces.iter().enumerate() {
            if *space == MemSpace::Shared || *space == MemSpace::Local {
                buffers[b].iter_mut().for_each(|v| *v = 0.0);
            }
        }
        let mut block_cycles = 0.0f64;
        // Per-warp variable frames persist across phases (registers).
        let (mut warp_vars, warp_masks) = seed_warps(kernel, threads, n_warps, bx, by);
        // Barrier semantics: every warp finishes phase k before any warp
        // starts phase k+1.
        for (pi, phase) in phases.iter().enumerate() {
            let phase_t0 = prof.is_some().then(std::time::Instant::now);
            for w in 0..n_warps {
                let mut host = BcHost {
                    model,
                    spaces: &kernel.spaces,
                    buffers,
                    buffer_names: &buffer_names,
                    stats: LaunchStats::default(),
                    cycles: 0.0,
                };
                match prof.as_deref_mut() {
                    Some(pp) => loopvm::exec_warp_profiled(
                        phase,
                        &mut warp_vars[w],
                        &warp_masks[w],
                        &mut host,
                        &mut pp[pi].classes,
                    )?,
                    None => {
                        loopvm::exec_warp(phase, &mut warp_vars[w], &warp_masks[w], &mut host)?;
                    }
                }
                if let Some(pp) = prof.as_deref_mut() {
                    pp[pi].stats.add(&host.stats);
                }
                block_cycles += host.cycles;
                total.add(&host.stats);
            }
            if let (Some(t0), Some(pp)) = (phase_t0, prof.as_deref_mut()) {
                pp[pi].wall += t0.elapsed();
            }
        }
        total.warps += n_warps as u64;
        // Round-robin block scheduling over SMs.
        let sm = block_id % sm_cycles.len();
        sm_cycles[sm] += block_cycles;
    }
    total.cycles = sm_cycles.iter().cloned().fold(0.0, f64::max);
    if let Some(pp) = prof {
        emit_phase_prof(&pp);
    }
    record_launch_metrics(&total);
    Ok(total)
}

/// Per-phase profile accumulated by the profiling launch path: wall time
/// across all blocks, divergence/coalescing statistics and
/// instruction-class totals.
#[derive(Debug, Clone, Default)]
struct PhaseProf {
    wall: std::time::Duration,
    stats: LaunchStats,
    classes: loopvm::InstClassCounts,
}

/// Emits one span per kernel phase (wall time summed over every block's
/// execution of that phase) plus divergence/coalescing counters and the
/// warp instruction-class profile.
fn emit_phase_prof(phases: &[PhaseProf]) {
    for (pi, p) in phases.iter().enumerate() {
        telemetry::span_with_wall("gpu", format!("phase {pi}"), p.wall);
        telemetry::counter("gpu", format!("phase {pi} divergent"), p.stats.divergent_branches as f64);
        telemetry::counter(
            "gpu",
            format!("phase {pi} gmem tx"),
            p.stats.global_transactions as f64,
        );
        telemetry::counter(
            "gpu",
            format!("phase {pi} bank conflicts"),
            p.stats.bank_conflict_degree as f64,
        );
        for (class, n) in p.classes.iter() {
            if n > 0 {
                telemetry::counter("gpu", format!("phase {pi} inst {class}"), n as f64);
            }
        }
    }
}

/// Prices one warp memory access (4-byte elements): coalescing for
/// global, bank conflicts for shared, broadcast/serialization for
/// constant, flat cost for local.
fn mem_access(
    model: &GpuModel,
    spaces: &[MemSpace],
    stats: &mut LaunchStats,
    cycles: &mut f64,
    b: u32,
    idx: &[i64; WARP],
    mask: [bool; WARP],
) {
    let space = spaces.get(b as usize).copied().unwrap_or_default();
    match space {
        MemSpace::Global => {
            // Coalescing: distinct 128-byte segments among active lanes
            // (at most WARP of them — a stack scratch avoids per-access
            // allocation on this very hot path).
            let mut segs = [0i64; WARP];
            let mut n_segs = 0usize;
            for l in 0..WARP {
                if mask[l] {
                    let seg = (idx[l] * 4).div_euclid(128);
                    if !segs[..n_segs].contains(&seg) {
                        segs[n_segs] = seg;
                        n_segs += 1;
                    }
                }
            }
            stats.global_transactions += n_segs as u64;
            *cycles += n_segs as f64 * model.global_segment;
        }
        MemSpace::Shared => {
            // Bank conflicts: 32 banks of 4 bytes; conflict degree =
            // max distinct-address count per bank.
            let mut per_bank = [0u32; 32];
            let mut seen = [0i64; WARP];
            let mut n_seen = 0usize;
            for l in 0..WARP {
                if mask[l] && !seen[..n_seen].contains(&idx[l]) {
                    seen[n_seen] = idx[l];
                    n_seen += 1;
                    per_bank[(idx[l].rem_euclid(32)) as usize] += 1;
                }
            }
            let degree = per_bank.iter().copied().max().unwrap_or(1).max(1);
            stats.shared_accesses += 1;
            stats.bank_conflict_degree += (degree - 1) as u64;
            *cycles += degree as f64 * model.shared_access;
        }
        MemSpace::Constant => {
            let mut distinct = [0i64; WARP];
            let mut n_distinct = 0usize;
            for l in 0..WARP {
                if mask[l] && !distinct[..n_distinct].contains(&idx[l]) {
                    distinct[n_distinct] = idx[l];
                    n_distinct += 1;
                }
            }
            if n_distinct <= 1 {
                stats.constant_broadcasts += 1;
                *cycles += model.constant_broadcast;
            } else {
                *cycles += n_distinct as f64 * model.constant_serial;
            }
        }
        MemSpace::Local => {
            *cycles += model.local_access;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopvm::{Expr, Program, Stmt};

    /// y[gid] = x[gid] + 1 with gid = (bx * blockdim + tx).
    fn saxpy_kernel(stride: i64) -> (Kernel, usize, usize) {
        let n = 256usize;
        let mut p = Program::new();
        let x = p.buffer("x", n * stride as usize);
        let y = p.buffer("y", n * stride as usize);
        let bx = p.var("bx");
        let tx = p.var("tx");
        let gid = p.var("gid");
        p.push(Stmt::let_(gid, Expr::var(bx) * Expr::i64(64) + Expr::var(tx)));
        p.push(Stmt::store(
            y,
            Expr::var(gid) * Expr::i64(stride),
            Expr::load(x, Expr::var(gid) * Expr::i64(stride)) + Expr::f32(1.0),
        ));
        let mut k = Kernel::new(p, [4, 1], [64, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        (k, x.index(), y.index())
    }

    #[test]
    fn functional_vector_add() {
        let (k, x, y) = saxpy_kernel(1);
        let mut bufs = alloc_buffers(&k);
        for (i, v) in bufs[x].iter_mut().enumerate() {
            *v = i as f32;
        }
        let stats = launch(&k, &mut bufs, &GpuModel::default()).unwrap();
        assert_eq!(bufs[y][10], 11.0);
        assert_eq!(bufs[y][255], 256.0);
        assert_eq!(stats.warps, 8); // 4 blocks * 64 threads / 32
        assert_eq!(stats.divergent_branches, 0);
    }

    #[test]
    fn coalescing_contiguous_beats_strided() {
        let (k1, _, _) = saxpy_kernel(1);
        let (k32, _, _) = saxpy_kernel(32);
        let mut b1 = alloc_buffers(&k1);
        let mut b32 = alloc_buffers(&k32);
        let s1 = launch(&k1, &mut b1, &GpuModel::default()).unwrap();
        let s32 = launch(&k32, &mut b32, &GpuModel::default()).unwrap();
        // Contiguous: 1 segment per warp per access; strided by 32 floats:
        // each lane touches its own segment.
        assert!(s32.global_transactions >= 8 * s1.global_transactions);
        assert!(s32.cycles > s1.cycles);
    }

    #[test]
    fn divergence_counted_and_costed() {
        // if (tx % 2) y[tx] = 1 else y[tx] = 2
        let mut p = Program::new();
        let y = p.buffer("y", 64);
        let tx = p.var("tx");
        p.push(Stmt::If {
            cond: Expr::eq(Expr::var(tx) % Expr::i64(2), Expr::i64(0)),
            then: vec![Stmt::store(y, Expr::var(tx), Expr::f32(1.0))],
            else_: vec![Stmt::store(y, Expr::var(tx), Expr::f32(2.0))],
        });
        let mut k = Kernel::new(p, [1, 1], [64, 1]);
        k.thread_vars[0] = Some(tx);
        let mut bufs = alloc_buffers(&k);
        let stats = launch(&k, &mut bufs, &GpuModel::default()).unwrap();
        assert_eq!(stats.divergent_branches, 2); // one per warp
        assert_eq!(bufs[0][0], 1.0);
        assert_eq!(bufs[0][1], 2.0);
    }

    #[test]
    fn shared_memory_bank_conflicts() {
        // Each lane reads sh[tx * stride]: stride 1 = conflict-free,
        // stride 32 = all lanes hit bank 0.
        let build = |stride: i64| {
            let mut p = Program::new();
            let sh = p.buffer("sh", 32 * 32);
            let y = p.buffer("y", 32);
            let tx = p.var("tx");
            p.push(Stmt::store(
                y,
                Expr::var(tx),
                Expr::load(sh, Expr::var(tx) * Expr::i64(stride)),
            ));
            let mut k = Kernel::new(p, [1, 1], [32, 1]);
            k.thread_vars[0] = Some(tx);
            k.spaces[0] = MemSpace::Shared;
            k
        };
        let k1 = build(1);
        let k32 = build(32);
        let mut b1 = alloc_buffers(&k1);
        let mut b32 = alloc_buffers(&k32);
        let s1 = launch(&k1, &mut b1, &GpuModel::default()).unwrap();
        let s32 = launch(&k32, &mut b32, &GpuModel::default()).unwrap();
        assert_eq!(s1.bank_conflict_degree, 0);
        assert!(s32.bank_conflict_degree >= 31);
        assert!(s32.cycles > s1.cycles);
    }

    #[test]
    fn constant_broadcast_is_cheap() {
        // All lanes read w[0] (uniform) vs w[tx] (diverging constant read).
        let build = |uniform: bool| {
            let mut p = Program::new();
            let w = p.buffer("w", 32);
            let y = p.buffer("y", 32);
            let tx = p.var("tx");
            let idx = if uniform { Expr::i64(0) } else { Expr::var(tx) };
            p.push(Stmt::store(y, Expr::var(tx), Expr::load(w, idx)));
            let mut k = Kernel::new(p, [1, 1], [32, 1]);
            k.thread_vars[0] = Some(tx);
            k.spaces[0] = MemSpace::Constant;
            k
        };
        let ku = build(true);
        let kd = build(false);
        let mut bu = alloc_buffers(&ku);
        let mut bd = alloc_buffers(&kd);
        let su = launch(&ku, &mut bu, &GpuModel::default()).unwrap();
        let sd = launch(&kd, &mut bd, &GpuModel::default()).unwrap();
        assert_eq!(su.constant_broadcasts, 1);
        assert!(sd.cycles > su.cycles);
    }

    #[test]
    fn blocks_spread_over_sms() {
        // 30 identical blocks on 15 SMs: device time ~ 2 blocks' cycles.
        let mut p = Program::new();
        let y = p.buffer("y", 32 * 30);
        let (bx, tx) = (p.var("bx"), p.var("tx"));
        p.push(Stmt::store(
            y,
            Expr::var(bx) * Expr::i64(32) + Expr::var(tx),
            Expr::f32(1.0),
        ));
        let mut k = Kernel::new(p, [30, 1], [32, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        let mut bufs = alloc_buffers(&k);
        let model = GpuModel::default();
        let stats = launch(&k, &mut bufs, &model).unwrap();
        // One-block kernel for reference.
        let mut p1 = Program::new();
        let y1 = p1.buffer("y", 32);
        let tx1 = p1.var("tx");
        p1.push(Stmt::store(y1, Expr::var(tx1), Expr::f32(1.0)));
        let mut k1 = Kernel::new(p1, [1, 1], [32, 1]);
        k1.thread_vars[0] = Some(tx1);
        let mut bufs1 = alloc_buffers(&k1);
        let s1 = launch(&k1, &mut bufs1, &model).unwrap();
        assert!(stats.cycles <= 2.5 * s1.cycles, "{} vs {}", stats.cycles, s1.cycles);
        assert!(bufs[0].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn divergent_loop_bounds_execute_correctly() {
        // for j in 0..tx { y[tx] += 1 }: triangular per-lane trip counts.
        let mut p = Program::new();
        let y = p.buffer("y", 32);
        let tx = p.var("tx");
        let j = p.var("j");
        p.push(Stmt::serial(
            j,
            Expr::i64(0),
            Expr::var(tx),
            vec![Stmt::store(
                y,
                Expr::var(tx),
                Expr::load(y, Expr::var(tx)) + Expr::f32(1.0),
            )],
        ));
        let mut k = Kernel::new(p, [1, 1], [32, 1]);
        k.thread_vars[0] = Some(tx);
        let mut bufs = alloc_buffers(&k);
        let stats = launch(&k, &mut bufs, &GpuModel::default()).unwrap();
        assert!(stats.divergent_branches >= 1);
        for (t, v) in bufs[0].iter().enumerate().take(32) {
            assert_eq!(*v, t as f32, "lane {t}");
        }
    }

    #[test]
    fn copy_cost_scales_with_bytes() {
        let m = GpuModel::default();
        assert!(copy_cost(&m, 1 << 20) > copy_cost(&m, 1 << 10));
        assert!(copy_cost(&m, 0) >= m.copy_latency);
    }

    /// A barrier-phased kernel touching loops, redundant subexpressions
    /// and shared memory: staging then consuming through a barrier.
    fn phased_kernel() -> Kernel {
        let mut p = Program::new();
        let x = p.buffer("x", 64);
        let sh = p.buffer("sh", 64);
        let y = p.buffer("y", 64);
        let (bx, tx, j) = (p.var("bx"), p.var("tx"), p.var("j"));
        let gid = p.var("gid");
        p.push(Stmt::let_(gid, Expr::var(bx) * Expr::i64(32) + Expr::var(tx)));
        p.push(Stmt::store(sh, Expr::var(tx), Expr::load(x, Expr::var(gid))));
        p.push(Stmt::serial(
            j,
            Expr::i64(0),
            Expr::i64(4),
            vec![Stmt::store(
                y,
                Expr::var(gid),
                Expr::load(y, Expr::var(gid))
                    + Expr::load(sh, Expr::var(tx)) * Expr::f32(0.5)
                    + Expr::load(sh, Expr::var(tx)) * Expr::f32(0.5),
            )],
        ));
        let mut k = Kernel::new(p, [2, 1], [32, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        k.spaces[1] = MemSpace::Shared;
        k.barriers = vec![1];
        k
    }

    #[test]
    fn phased_kernel_values_and_stats_are_exact() {
        let k = phased_kernel();
        let mut bufs = alloc_buffers(&k);
        for (i, v) in bufs[0].iter_mut().enumerate() {
            *v = (i as f32).sin();
        }
        let phases = compile_phases(&k).unwrap();
        let stats = launch_precompiled(&k, &mut bufs, &GpuModel::default(), &phases).unwrap();
        for (gid, y) in bufs[2].iter().enumerate() {
            let s = (gid as f32).sin();
            let mut want = 0.0f32;
            for _ in 0..4 {
                want = want + s * 0.5 + s * 0.5;
            }
            assert_eq!(y.to_bits(), want.to_bits(), "y[{gid}]");
        }
        // One warp per block. Per warp: phase 0 loads x (one 128-byte
        // segment) and stores sh; each of phase 1's four iterations loads
        // and stores y and loads sh once (CSE shares the two reads).
        assert_eq!(stats.warps, 2);
        assert_eq!(stats.global_transactions, 2 * (1 + 4 * 2));
        assert_eq!(stats.shared_accesses, 2 * (1 + 4));
        assert_eq!(stats.bank_conflict_degree, 0);
        assert_eq!(stats.divergent_branches, 0);
        // Pinned: the optimized phases' issue count, and the busier SM's
        // cycles (the two blocks run on different SMs).
        assert_eq!(stats.warp_instructions, 76);
        assert_eq!(stats.cycles, 336.0);
    }

    #[test]
    fn out_of_bounds_store_faults_with_the_first_bad_lane() {
        // Block 1 stores y[32..64) into a 32-element buffer.
        let mut p = Program::new();
        let y = p.buffer("y", 32);
        let (bx, tx) = (p.var("bx"), p.var("tx"));
        p.push(Stmt::store(
            y,
            Expr::var(bx) * Expr::i64(32) + Expr::var(tx),
            Expr::f32(1.0),
        ));
        let mut k = Kernel::new(p, [2, 1], [32, 1]);
        k.block_vars[0] = Some(bx);
        k.thread_vars[0] = Some(tx);
        let mut bufs = alloc_buffers(&k);
        let err = launch(&k, &mut bufs, &GpuModel::default()).unwrap_err();
        assert_eq!(err, Error::OutOfBounds { buffer: "y".into(), index: 32, size: 32 });
        // Block 0 completed before the fault.
        assert!(bufs[0].iter().all(|&v| v == 1.0));
    }
}
