//! Compiled code belongs to the `Program` it was compiled from: the
//! pipeline's optimize pass and artifact decode attach bytecode to the
//! program, `Machine::run` compiles nothing for such a program and
//! JIT-compiles it once, clones share that code, and builders reset it.
//!
//! The counts come from the process-wide `vm.*` metrics, so this file is
//! its own test binary and its tests serialize on one lock.

use loopvm::{ExecMode, Machine, Program};
use std::sync::Mutex;
use telemetry::metrics::counter;
use tiramisu::{compile_cpu, CompileService, CpuModule, CpuOptions, Expr as E, Function, ServiceConfig};

static METRICS: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    METRICS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const N: i64 = 64;

/// `out[i] = in[i] * scale`.
fn scaled(scale: f32) -> Function {
    let mut f = Function::new("scaled", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let input = f.input("in", std::slice::from_ref(&i)).unwrap();
    f.computation("out", &[i], f.access(input, &[E::iter("i")]) * E::f32(scale)).unwrap();
    f
}

fn compile(scale: f32) -> CpuModule {
    compile_cpu(&scaled(scale), &[("N", N)], CpuOptions::default()).unwrap()
}

/// What one run compiled: bytecode compiles, runs that found their
/// program already compiled, and JIT compiles.
#[derive(Debug, PartialEq)]
struct Compiles {
    bytecode: u64,
    reused: u64,
    native: u64,
}

/// Runs `p` on a fresh machine, returning what the run compiled and the
/// output buffer.
fn run_fresh(p: &Program) -> (Compiles, Vec<f32>) {
    let read = || {
        [counter("vm.bc_cache.misses"), counter("vm.bc_cache.hits"), counter("vm.jit.compiles")]
            .map(|c| c.get())
    };
    let mut m = Machine::new(p);
    let input = p.buffer_by_name("in").unwrap();
    m.buffer_mut(input).iter_mut().enumerate().for_each(|(k, v)| *v = k as f32);
    let before = read();
    m.run(p).unwrap();
    let after = read();
    let compiles = Compiles {
        bytecode: after[0] - before[0],
        reused: after[1] - before[1],
        native: after[2] - before[2],
    };
    (compiles, m.buffer(p.buffer_by_name("out").unwrap()).to_vec())
}

/// JIT compiles one first run performs: one where `Machine::run` takes
/// the native tier (x86-64 Linux, no `LOOPVM_JIT=0`, no profiling).
fn native_runs(p: &Program) -> u64 {
    u64::from(Machine::new(p).exec_mode() == ExecMode::Jit && !telemetry::profile_enabled())
}

fn expect_values(out: &[f32], scale: f32) {
    let want: Vec<f32> = (0..N).map(|k| k as f32 * scale).collect();
    assert_eq!(out, want);
}

#[test]
fn compiled_and_disk_served_modules_run_without_recompiling() {
    let _g = locked();
    let module = compile(2.0);
    let native = native_runs(&module.program);
    let (c, out) = run_fresh(&module.program);
    assert_eq!(c, Compiles { bytecode: 0, reused: 1, native }, "pipeline module");
    expect_values(&out, 2.0);

    let dir = std::env::temp_dir().join(format!("tiramisu-ownership-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = CompileService::new(ServiceConfig { cache_dir: Some(dir.clone()), ..Default::default() });
    svc.compile_cpu(&scaled(2.0), &[("N", N)], CpuOptions::default()).unwrap();
    svc.clear_memory();
    let disk = svc.compile_cpu(&scaled(2.0), &[("N", N)], CpuOptions::default()).unwrap();
    assert_eq!(svc.stats().disk_hits, 1, "the second request must decode from disk");
    let (c, out) = run_fresh(&disk.program);
    assert_eq!(c, Compiles { bytecode: 0, reused: 1, native }, "disk-served module");
    expect_values(&out, 2.0);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clones_share_code_and_builders_reset_it() {
    let _g = locked();
    let module = compile(2.0);
    let native = native_runs(&module.program);
    let (c, _) = run_fresh(&module.program);
    assert_eq!(c, Compiles { bytecode: 0, reused: 1, native });

    // A clone run on a second machine reuses the bytecode and the native
    // code the first run compiled.
    let clone = module.program.clone();
    let (c, out) = run_fresh(&clone);
    assert_eq!(c, Compiles { bytecode: 0, reused: 1, native: 0 }, "clone");
    expect_values(&out, 2.0);

    // `set_body` drops the clone's code: the next run compiles and
    // executes the new body, while the original keeps its own code.
    let mut changed = clone;
    changed.set_body(compile(3.0).program.body().to_vec());
    let (c, out) = run_fresh(&changed);
    assert_eq!(c, Compiles { bytecode: 1, reused: 0, native }, "changed body");
    expect_values(&out, 3.0);
    let (c, out) = run_fresh(&module.program);
    assert_eq!(c, Compiles { bytecode: 0, reused: 1, native: 0 }, "original after the change");
    expect_values(&out, 2.0);
}
