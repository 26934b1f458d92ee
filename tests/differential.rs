//! Cross-backend differential test harness.
//!
//! Random small Layer-I algorithms (one- or two-stage stencils over a
//! padded input) are combined with random *legal* schedule-command
//! sequences, then compiled and executed every way the repo can:
//!
//! - CPU bytecode (the optimizing register-VM path, `Machine::run`),
//! - CPU native code (the JIT tier, where the target has one),
//! - CPU bytecode under the cost model (`Machine::run_with_stats`),
//! - the GPU backend (`tile_gpu` + SIMT simulator),
//! - the distributed backend (`split` + `distribute` over 2 ranks).
//!
//! Every path must produce buffers **bit-identical** to the CPU tree-walk
//! oracle (`Machine::run_tree_walk`), on every buffer the modules share
//! by name. Deliberately illegal
//! schedules (consumer ordered before its producer) must be rejected at
//! compile time, never miscompiled into a runnable module.
//!
//! The vendored proptest stub is deterministic (seeded per test name), so
//! CI runs a fixed sequence; `TIRAMISU_DIFF_CASES` overrides the case
//! count (e.g. to shrink the suite under a tight timeout).

use mpisim::{CommModel, RunOptions};
use proptest::prelude::*;
use std::sync::Mutex;
use tiramisu::{
    compile_cpu, compile_dist, compile_gpu, At, CompId, CpuOptions, DistOptions, Expr as E,
    Function, GpuOptions,
};

const N: i64 = 8; // stage-1 rows
const M: i64 = 8; // columns
const RANKS: usize = 2;

fn diff_cases() -> u32 {
    std::env::var("TIRAMISU_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Deterministic pseudo-random fill (same as `tests/pipeline_golden.rs`),
/// identical on every backend and rank.
fn fill(buf: &mut [f32], seed: u64) {
    for (k, v) in buf.iter_mut().enumerate() {
        let x = (k as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
        *v = ((x >> 33) % 1009) as f32 / 16.0;
    }
}

// ------------------------------------------------ random Layer-I algebra --

#[derive(Debug, Clone, Copy)]
enum FOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

fn fop() -> impl Strategy<Value = FOp> {
    prop_oneof![Just(FOp::Add), Just(FOp::Sub), Just(FOp::Mul), Just(FOp::Min), Just(FOp::Max)]
}

fn combine(op: FOp, a: E, b: E) -> E {
    match op {
        FOp::Add => a + b,
        FOp::Sub => a - b,
        FOp::Mul => a * b,
        FOp::Min => E::min(a, b),
        FOp::Max => E::max(a, b),
    }
}

/// A random one- or two-stage stencil. Stage 1 (`bx`) combines three
/// in-bounds taps of the padded input; stage 2 (`by`, optional) combines
/// three row-taps of `bx` over a 2-row-smaller domain, creating a
/// bx -> by flow dependence the legality checker must respect.
#[derive(Debug, Clone)]
struct RAlg {
    taps: [(i64, i64); 3], // (di, dj) in 0..=2: always inside the padding
    ops1: [FOp; 2],
    scale: i8,
    stage2: Option<[FOp; 2]>,
}

fn ralg() -> impl Strategy<Value = RAlg> {
    (
        [(0i64..=2, 0i64..=2), (0i64..=2, 0i64..=2), (0i64..=2, 0i64..=2)],
        [fop(), fop()],
        any::<i8>(),
        proptest::option::of([fop(), fop()]),
    )
        .prop_map(|(taps, ops1, scale, stage2)| RAlg { taps, ops1, scale, stage2 })
}

/// A random schedule-command sequence for one computation, shaped so
/// every generated sequence is legal (the commands never reorder the
/// two stages against their dependence).
#[derive(Debug, Clone)]
struct RSched {
    tile: Option<(i64, i64)>,
    interchange: bool,
    shift: i8,
    par: bool,
    inner: u8, // 0 = plain, 1 = vectorize(4), 2 = unroll(2)
}

fn rsched() -> impl Strategy<Value = RSched> {
    (
        proptest::option::of((2i64..=4, 2i64..=4)),
        any::<bool>(),
        -2i8..=2,
        any::<bool>(),
        0u8..=2,
    )
        .prop_map(|(tile, interchange, shift, par, inner)| RSched {
            tile,
            interchange,
            shift,
            par,
            inner,
        })
}

fn apply_sched(f: &mut Function, c: CompId, s: &RSched) {
    if let Some((t1, t2)) = s.tile {
        f.tile(c, "i", "j", t1, t2, ("i0", "j0", "i1", "j1")).unwrap();
        if s.interchange {
            f.interchange(c, "i0", "j0").unwrap();
        }
        if s.shift != 0 {
            f.shift(c, "i1", s.shift as i64).unwrap();
        }
        match s.inner {
            1 => drop(f.vectorize(c, "j1", 4).unwrap()),
            2 => drop(f.unroll(c, "j1", 2).unwrap()),
            _ => {}
        }
        if s.par {
            f.parallelize(c, "i0").unwrap();
        }
    } else {
        if s.interchange {
            f.interchange(c, "i", "j").unwrap();
        }
        if s.shift != 0 {
            f.shift(c, "i", s.shift as i64).unwrap();
        }
        match s.inner {
            1 => drop(f.vectorize(c, "j", 4).unwrap()),
            2 => drop(f.unroll(c, "j", 2).unwrap()),
            _ => {}
        }
        if s.par {
            f.parallelize(c, "i").unwrap();
        }
    }
}

/// Builds the Layer-I function. Returns `(f, bx, by)`; `by` is `None`
/// for single-stage algorithms.
fn build(alg: &RAlg) -> (Function, CompId, Option<CompId>) {
    let mut f = Function::new("diff", &["N", "M"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("M"));
    let input = f
        .input(
            "in",
            &[
                f.var("i", 0, E::param("N") + E::i64(2)),
                f.var("j", 0, E::param("M") + E::i64(2)),
            ],
        )
        .unwrap();
    let tap = |k: usize, alg: &RAlg| {
        E::Access(
            input,
            vec![
                E::iter("i") + E::i64(alg.taps[k].0),
                E::iter("j") + E::i64(alg.taps[k].1),
            ],
        )
    };
    let e1 = combine(
        alg.ops1[1],
        combine(alg.ops1[0], tap(0, alg), tap(1, alg)),
        tap(2, alg) * E::f32(alg.scale as f32 / 8.0),
    );
    let bx = f.computation("bx", &[i, j.clone()], e1).unwrap();
    let bxb = f.buffer("bxb", &[E::param("N"), E::param("M")]);
    f.store_in(bx, bxb, &[E::iter("i"), E::iter("j")]);
    let by = alg.stage2.map(|ops2| {
        let bxa = |d: i64| E::Access(bx, vec![E::iter("i") + E::i64(d), E::iter("j")]);
        let i2 = f.var("i", 0, E::param("N") - E::i64(2));
        let e2 = combine(ops2[1], combine(ops2[0], bxa(0), bxa(1)), bxa(2));
        f.computation("by", &[i2, j], e2).unwrap()
    });
    (f, bx, by)
}

/// Runs the CPU module in one execution mode, returning every buffer's
/// bit pattern.
/// Shared compile service with a disk store for the cached↔fresh lane.
/// One instance (and store directory) per test process.
fn diff_service() -> &'static tiramisu::CompileService {
    static SVC: std::sync::OnceLock<tiramisu::CompileService> = std::sync::OnceLock::new();
    SVC.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("tiramisu-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        tiramisu::CompileService::new(tiramisu::ServiceConfig {
            cache_dir: Some(dir),
            ..Default::default()
        })
    })
}

fn run_cpu(module: &tiramisu::CpuModule, mode: loopvm::ExecMode) -> Vec<Vec<u32>> {
    run_cpu_with(module, |m, p| {
        m.set_exec_mode(mode);
        m.run(p).unwrap();
    })
}

/// Runs the CPU module through `run` on a fresh 2-thread machine with the
/// input filled, returning every buffer's bit pattern.
fn run_cpu_with(
    module: &tiramisu::CpuModule,
    run: impl FnOnce(&mut loopvm::Machine, &loopvm::Program),
) -> Vec<Vec<u32>> {
    let mut m = module.machine();
    m.set_threads(2);
    fill(m.buffer_mut(module.vm_buffer("in").unwrap()), 7);
    run(&mut m, &module.program);
    (0..module.program.n_buffers())
        .map(|b| bits(m.buffer(module.program.nth_buffer(b))))
        .collect()
}

fn bits(buf: &[f32]) -> Vec<u32> {
    buf.iter().map(|v| v.to_bits()).collect()
}

/// The names of every buffer of a CPU module's program.
fn buffer_names(module: &tiramisu::CpuModule) -> Vec<String> {
    (0..module.program.n_buffers())
        .map(|b| module.program.buffer_info(module.program.nth_buffer(b)).0.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    /// The full differential: evaluators agree bit-for-bit, backends
    /// agree bit-for-bit, illegal orderings are rejected.
    #[test]
    fn random_programs_agree_everywhere(
        alg in ralg(),
        sched1 in rsched(),
        sched2 in rsched(),
        illegal_order in any::<bool>(),
    ) {
        // --- illegal schedules must be rejected, not miscompiled -------
        if illegal_order && alg.stage2.is_some() {
            let (mut f, bx, by) = build(&alg);
            // Order the producer *after* its consumer: bx -> by flow
            // dependence now points backwards in time.
            f.after(bx, by.unwrap(), At::Root).unwrap();
            let r = compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default());
            prop_assert!(
                r.is_err(),
                "consumer-before-producer schedule was accepted: {alg:?}"
            );
            return Ok(());
        }

        // --- CPU: scheduled, jit vs bytecode vs stats vs tree-walk -----
        let (mut f, bx, by) = build(&alg);
        apply_sched(&mut f, bx, &sched1);
        if let Some(by) = by {
            apply_sched(&mut f, by, &sched2);
        }
        let module = compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        let fast = run_cpu(&module, loopvm::ExecMode::Bytecode);
        let reference = run_cpu(&module, loopvm::ExecMode::TreeWalk);
        prop_assert_eq!(&fast, &reference, "bytecode vs tree-walk: {:?}", &alg);
        // The native tier must agree bit-for-bit too. Off x86-64/Linux
        // Jit mode falls back to the interpreter, so this lane still
        // passes (trivially) with zero changes.
        let jitted = run_cpu(&module, loopvm::ExecMode::Jit);
        prop_assert_eq!(&fast, &jitted, "bytecode vs jit: {:?}", &alg);
        // The cost-model observer must not change what the program does.
        let priced = run_cpu_with(&module, |m, p| {
            m.run_with_stats(p).unwrap();
        });
        prop_assert_eq!(&fast, &priced, "bytecode vs run_with_stats: {:?}", &alg);

        // The unscheduled program must compute the same values (schedule
        // commands are semantics-preserving by construction).
        let (f0, _, _) = build(&alg);
        let module0 = compile_cpu(&f0, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        let unscheduled = run_cpu(&module0, loopvm::ExecMode::Bytecode);
        let out_name = if alg.stage2.is_some() { "by" } else { "bxb" };
        let out_idx = |m: &tiramisu::CpuModule| m.vm_buffer(out_name).unwrap().index();
        prop_assert_eq!(
            &fast[out_idx(&module)],
            &unscheduled[out_idx(&module0)],
            "schedule changed values: {:?} / {:?} {:?}", &alg, &sched1, &sched2
        );
        let cpu_out = &fast[out_idx(&module)];

        // --- CPU cached lane: disk artifact vs fresh compile -----------
        // First request compiles (or hits a prior case's artifact); after
        // clearing the memory tier the second request must be served by
        // decoding the on-disk artifact, bit-exact vs the direct compile.
        let svc = diff_service();
        svc.compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        svc.clear_memory();
        let disk_hits_before = svc.stats().disk_hits;
        let cached = svc.compile_cpu(&f, &[("N", N), ("M", M)], CpuOptions::default()).unwrap();
        prop_assert_eq!(
            svc.stats().disk_hits,
            disk_hits_before + 1,
            "second request did not decode from disk: {:?}", &alg
        );
        prop_assert_eq!(&cached.program, &module.program, "decoded program differs: {:?}", &alg);
        // The decoded program carries the artifact's bytecode, so both
        // lanes execute decoded code rather than re-optimizing.
        prop_assert!(cached.bytecode().is_some(), "disk hit attached no bytecode: {:?}", &alg);
        let cached_bc = run_cpu(&cached, loopvm::ExecMode::Bytecode);
        prop_assert_eq!(&fast, &cached_bc, "cached bytecode vs fresh execution: {:?}", &alg);
        let cached_run = run_cpu(&cached, loopvm::ExecMode::Jit);
        prop_assert_eq!(&fast, &cached_run, "cached vs fresh execution: {:?}", &alg);

        // --- GPU backend ----------------------------------------------
        let (mut fg, bxg, byg) = build(&alg);
        fg.tile_gpu(bxg, "i", "j", 4, 4).unwrap();
        if let Some(byg) = byg {
            fg.tile_gpu(byg, "i", "j", 4, 4).unwrap();
        }
        let gm = compile_gpu(&fg, &[("N", N), ("M", M)], GpuOptions::default()).unwrap();
        let mut bufs = gm.alloc_buffers();
        fill(&mut bufs[gm.buffer_index("in").unwrap()], 7);
        gm.run(&mut bufs, &gpusim::GpuModel::default()).unwrap();
        let gpu_out: Vec<u32> =
            bufs[gm.buffer_index(out_name).unwrap()].iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(cpu_out, &gpu_out, "CPU vs GPU: {:?}", &alg);

        // GPU lane: the stored warp bytecode must match the CPU oracle on
        // every buffer the two modules share by name.
        let names = buffer_names(&module);
        let mut shared = 0;
        for (cb, name) in names.iter().enumerate() {
            if let Some(gb) = gm.buffer_index(name) {
                shared += 1;
                prop_assert_eq!(
                    &reference[cb], &bits(&bufs[gb]),
                    "GPU vs CPU oracle (buffer {}): {:?}", name, &alg
                );
            }
        }
        prop_assert!(shared >= 2, "GPU module shares only {} buffers", shared);

        // --- distributed backend --------------------------------------
        // Distribute the final stage's rows over 2 ranks; earlier stages
        // are computed redundantly per rank, so no communication is
        // needed and every rank's owned rows must match the CPU result.
        let (mut fd, bxd, byd) = build(&alg);
        let (dist_comp, rows) = match byd {
            Some(byd) => (byd, N - 2),
            None => (bxd, N),
        };
        let chunk = rows / RANKS as i64;
        fd.split(dist_comp, "i", chunk, "i0", "i1").unwrap();
        fd.distribute(dist_comp, "i0").unwrap();
        let dm = compile_dist(&fd, &[("N", N), ("M", M)], DistOptions::default()).unwrap();
        // Each rank's buffers by CPU buffer index (`None` where the dist
        // module has no buffer of that name).
        let rank_bufs: Mutex<Vec<Vec<Option<Vec<u32>>>>> = Mutex::new(vec![vec![]; RANKS]);
        mpisim::run_with_opts(
            &dm.dist,
            RANKS,
            &CommModel::default(),
            &RunOptions::default(),
            |_rank, machine| {
                fill(machine.buffer_mut(dm.vm_buffer("in").unwrap()), 7);
            },
            |rank, machine| {
                rank_bufs.lock().unwrap()[rank] = names
                    .iter()
                    .map(|n| dm.vm_buffer(n).map(|b| bits(machine.buffer(b))))
                    .collect();
            },
        )
        .unwrap();
        // Dist lane: every rank owns `chunk` rows of the distributed
        // computation's buffer and must hold the whole of every other
        // shared buffer, all bit-identical to the CPU oracle.
        let row_len = M as usize;
        for (rank, bufs) in rank_bufs.into_inner().unwrap().iter().enumerate() {
            for (cb, (name, buf)) in names.iter().zip(bufs).enumerate() {
                let Some(buf) = buf else { continue };
                let (lo, hi) = if name == out_name {
                    let n = chunk as usize * row_len;
                    (rank * n, (rank + 1) * n)
                } else {
                    (0, buf.len())
                };
                prop_assert_eq!(
                    &reference[cb][lo..hi], &buf[lo..hi],
                    "dist rank {} vs CPU oracle (buffer {}): {:?}", rank, name, &alg
                );
            }
        }
    }
}

// ----------------------------------------------------- trap differential --

/// Runs `p` under `mode` (`None`: [`loopvm::Machine::run_with_stats`])
/// and reduces the observable outcome to a string: `ok`, the runtime
/// `Error`'s display text, or the panic payload text. The JIT deopts to
/// the interpreter's scalar helpers on every trapping instruction, so
/// every executor must produce the *same* string.
fn trap_outcome(p: &loopvm::Program, mode: Option<loopvm::ExecMode>) -> String {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut m = loopvm::Machine::new(p);
    m.set_threads(2);
    let run = || match mode {
        Some(mode) => {
            m.set_exec_mode(mode);
            m.run(p)
        }
        None => m.run_with_stats(p).map(|_| ()),
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(())) => "ok".to_string(),
        Ok(Err(e)) => format!("err: {e}"),
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            format!("panic: {text}")
        }
    }
}

/// Traps (out-of-bounds accesses, division by zero) must produce the
/// identical error or panic on the JIT, bytecode, cost-model and
/// tree-walk tiers — values agreeing is not enough, the failure paths
/// must agree too.
#[test]
fn traps_agree_across_executors() {
    use loopvm::{Expr, LoopKind, Program, Stmt};

    // Panics from the deliberately-trapping programs below are expected;
    // silence the default hook's backtrace spew for this test.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut cases: Vec<(&str, Program, &str)> = Vec::new();

    // Store past the end of a buffer inside a serial loop.
    let mut p = Program::new();
    let a = p.buffer("A", 4);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        Expr::i64(0),
        Expr::i64(8),
        vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push(("serial store oob", p, "err: out of bounds: A[4] (size 4)"));

    // Load past the end inside a vectorized loop (the JIT's unrolled
    // 8-lane chunk must trap on the same lane the interpreter does).
    let mut p = Program::new();
    let a = p.buffer("A", 8);
    let b = p.buffer("B", 8);
    let i = p.var("i");
    p.push(Stmt::for_(
        i,
        Expr::i64(0),
        Expr::i64(8),
        LoopKind::Vectorize(8),
        vec![Stmt::store(b, Expr::var(i), Expr::load(a, Expr::var(i) + Expr::i64(1)))],
    ));
    cases.push(("vector load oob", p, "err: out of bounds: A[8] (size 8)"));

    // Store out of bounds inside a parallel loop: the host must surface
    // the first failing worker's error (spawn order), on every tier.
    let mut p = Program::new();
    let a = p.buffer("A", 4);
    let i = p.var("i");
    p.push(Stmt::for_(
        i,
        Expr::i64(0),
        Expr::i64(8),
        LoopKind::Parallel,
        vec![Stmt::store(a, Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push(("parallel store oob", p, "err: out of bounds: A[4] (size 4)"));

    // Integer division by zero panics (4 / i at i = 0), with the exact
    // libcore message on every tier.
    let mut p = Program::new();
    let a = p.buffer("A", 8);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        Expr::i64(0),
        Expr::i64(4),
        vec![Stmt::store(a, Expr::i64(4) / Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push(("div by zero", p, "panic: attempt to divide by zero"));

    // Remainder by zero ((i + 1) % i at i = 0).
    let mut p = Program::new();
    let a = p.buffer("A", 8);
    let i = p.var("i");
    p.push(Stmt::serial(
        i,
        Expr::i64(0),
        Expr::i64(4),
        vec![Stmt::store(a, (Expr::var(i) + Expr::i64(1)) % Expr::var(i), Expr::f32(1.0))],
    ));
    cases.push((
        "rem by zero",
        p,
        "panic: attempt to calculate the remainder with a divisor of zero",
    ));

    let mut failures = Vec::new();
    for (name, p, expected) in &cases {
        let jit = trap_outcome(p, Some(loopvm::ExecMode::Jit));
        let bc = trap_outcome(p, Some(loopvm::ExecMode::Bytecode));
        let tw = trap_outcome(p, Some(loopvm::ExecMode::TreeWalk));
        let stats = trap_outcome(p, None);
        if bc != *expected {
            failures.push(format!("{name}: bytecode produced {bc:?}, expected {expected:?}"));
        }
        if jit != bc {
            failures.push(format!("{name}: jit produced {jit:?}, bytecode {bc:?}"));
        }
        if tw != bc {
            failures.push(format!("{name}: tree-walk produced {tw:?}, bytecode {bc:?}"));
        }
        if stats != bc {
            failures.push(format!("{name}: run_with_stats produced {stats:?}, bytecode {bc:?}"));
        }
    }

    std::panic::set_hook(prev_hook);
    assert!(failures.is_empty(), "trap outcomes diverged:\n{}", failures.join("\n"));
}
