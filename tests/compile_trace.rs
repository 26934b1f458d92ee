//! CompileTrace coverage: pass order, per-pass counts, report content,
//! and the zero-allocation guarantee when tracing is disabled.

use std::sync::Mutex;
use tiramisu::pipeline::trace::snapshot_renders;
use tiramisu::{
    compile_cpu, compile_dist, compile_gpu, CompId, CpuOptions, DistOptions, Expr as E,
    Function, GpuOptions,
};

/// Every test here either reads the global `snapshot_renders` counter,
/// advances it (any `trace: true` compile renders snapshots), or touches
/// the `TIRAMISU_TRACE`/`TIRAMISU_DISASM` environment variables, so all of
/// them serialize on this.
static TRACE_COUNTER: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TRACE_COUNTER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Two-stage 2-D blur (bx then by consuming bx): has flow dependences,
/// fused nests, and loop tags — every pass has real work to report.
fn blur2() -> Function {
    let mut f = Function::new("blur2", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f
        .input(
            "in",
            &[
                f.var("i", 0, E::param("N") + E::i64(2)),
                f.var("j", 0, E::param("N") + E::i64(2)),
            ],
        )
        .unwrap();
    let at = |di: i64| {
        E::Access(input, vec![E::iter("i") + E::i64(di), E::iter("j")])
    };
    let bx = f
        .computation("bx", &[i.clone(), j.clone()], (at(0) + at(1) + at(2)) / E::f32(3.0))
        .unwrap();
    let bxa = |dj: i64| E::Access(bx, vec![E::iter("i"), E::iter("j") + E::i64(dj)]);
    let by = f
        .computation("by", &[i, j], (bxa(0) + bxa(0) + bxa(0)) / E::f32(3.0))
        .unwrap();
    let bx_buf = f.buffer("bxb", &[E::param("N") + E::i64(2), E::param("N") + E::i64(2)]);
    f.store_in(bx, bx_buf, &[E::iter("i"), E::iter("j")]);
    let _ = by;
    f.parallelize(bx, "i").unwrap();
    f
}

/// The gemm shape from the golden tests: init + k-contracted update.
fn gemm() -> Function {
    let mut f = Function::new("gemm", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let k = f.var("k", 0, E::param("N"));
    let a = f.input("A", &[i.clone(), j.clone()]).unwrap();
    let b = f.input("B", &[i.clone(), j.clone()]).unwrap();
    let c_in = f.input("Cin", &[i.clone(), j.clone()]).unwrap();
    let c_buf = f.buffer("C", &[E::param("N"), E::param("N")]);
    let c_init = f
        .computation("c_init", &[i.clone(), j.clone()], f.access(c_in, &[E::iter("i"), E::iter("j")]))
        .unwrap();
    let self_id = CompId::from_raw(4);
    let upd = E::Access(self_id, vec![E::iter("i"), E::iter("j"), E::iter("k") - E::i64(1)])
        + f.access(a, &[E::iter("i"), E::iter("k")]) * f.access(b, &[E::iter("k"), E::iter("j")]);
    let c_upd = f.computation("c_upd", &[i, j, k], upd).unwrap();
    assert_eq!(c_upd, self_id);
    f.store_in(c_init, c_buf, &[E::iter("i"), E::iter("j")]);
    f.store_in(c_upd, c_buf, &[E::iter("i"), E::iter("j")]);
    f
}

const PASSES: [&str; 6] = ["lower", "legality", "astgen", "tag-resolve", "emit", "optimize"];

#[test]
fn trace_records_passes_in_pipeline_order() {
    let _guard = locked();
    let f = blur2();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().expect("tracing was requested");
    assert_eq!(trace.pass_names(), PASSES);
    assert_eq!(trace.target, "cpu");
    assert_eq!(trace.function, "blur2");
}

#[test]
fn every_pass_reports_nonzero_counts_on_nontrivial_kernel() {
    let _guard = locked();
    let f = blur2();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    for p in &trace.passes {
        assert!(p.stmts > 0, "pass {} reports zero statements", p.name);
        assert!(p.nodes > 0, "pass {} reports zero nodes", p.name);
        assert!(!p.ir.is_empty(), "pass {} has an empty IR snapshot", p.name);
    }
    // The two-stage blur has a bx -> by flow dependence...
    let legality = &trace.passes[1];
    assert!(legality.ir.contains("bx -> by"), "{}", legality.ir);
    // ...and the parallel tag survives to the resolved tree.
    let tree = &trace.passes[3];
    assert!(tree.ir.contains("Parallel"), "{}", tree.ir);
}

#[test]
fn gemm_trace_reports_six_timed_passes() {
    let _guard = locked();
    let f = gemm();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { check_legality: false, trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    let mut names: Vec<_> = trace.pass_names();
    names.dedup();
    assert!(names.len() >= 6, "expected >=6 distinct passes, got {names:?}");
    let report = trace.report();
    for p in PASSES {
        assert!(report.contains(p), "report lacks pass {p}:\n{report}");
    }
    // Every row carries a formatted duration and the total line sums them.
    assert!(report.contains("== compile trace: gemm -> cpu =="), "{report}");
    assert!(report.contains("total"), "{report}");
    assert!(report.matches("s ").count() > 0, "no timings in:\n{report}");
    assert!(report.contains("-- IR after lower --"), "{report}");
    assert!(report.contains("-- IR after emit --"), "{report}");
}

#[test]
fn gpu_and_dist_modules_carry_traces_too() {
    let _guard = locked();
    let mut f = Function::new("scale", &["N"]);
    let i = f.var("i", 0, E::param("N"));
    let j = f.var("j", 0, E::param("N"));
    let input = f.input("in", &[i.clone(), j.clone()]).unwrap();
    let out = f
        .computation(
            "out",
            &[i.clone(), j.clone()],
            f.access(input, &[E::iter("i"), E::iter("j")]) * E::f32(2.0),
        )
        .unwrap();
    f.tile_gpu(out, "i", "j", 8, 8).unwrap();
    let module = compile_gpu(
        &f,
        &[("N", 16)],
        GpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    assert_eq!(trace.pass_names(), PASSES);
    assert_eq!(trace.target, "gpu");

    let mut f = Function::new("dscale", &["Nodes"]);
    let r = f.var("r", 0, E::param("Nodes"));
    let c = f.computation("C", &[r], E::f32(1.0)).unwrap();
    f.distribute(c, "r").unwrap();
    let module = compile_dist(
        &f,
        &[("Nodes", 4)],
        DistOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    assert_eq!(trace.pass_names(), PASSES);
    assert_eq!(trace.target, "dist");
}

#[test]
fn optimize_pass_runs_last_and_reports_instruction_counts() {
    let _guard = locked();
    let f = blur2();
    let module = compile_cpu(
        &f,
        &[("N", 8)],
        CpuOptions { trace: true, ..Default::default() },
    )
    .unwrap();
    let trace = module.compile_trace().unwrap();
    let opt = trace.passes.last().unwrap();
    assert_eq!(opt.name, "optimize");
    // The stmts column carries source expression-tree nodes, the nodes
    // column the emitted instruction count; folding/CSE/hoisting must
    // leave strictly less work than the tree walk performed.
    assert!(opt.stmts > 0 && opt.nodes > 0);
    assert!(
        opt.nodes < opt.stmts,
        "bytecode ({} insts) not smaller than the tree ({} nodes)",
        opt.nodes,
        opt.stmts
    );
    let bc = module.bytecode().expect("CPU modules carry optimized bytecode");
    assert_eq!(bc.n_insts(), opt.nodes);
    assert_eq!(bc.stats().tree_nodes, opt.stmts);
}

#[test]
fn disassembly_is_off_by_default_and_env_gated() {
    let _guard = locked();
    std::env::remove_var("TIRAMISU_DISASM");
    let f = blur2();
    let opts = || CpuOptions { trace: true, ..Default::default() };
    let module = compile_cpu(&f, &[("N", 8)], opts()).unwrap();
    let summary = &module.compile_trace().unwrap().passes.last().unwrap().ir;
    assert!(summary.contains("tree nodes ->"), "{summary}");
    assert!(!summary.contains("store"), "default snapshot leaks disassembly:\n{summary}");

    std::env::set_var("TIRAMISU_DISASM", "1");
    let module = compile_cpu(&f, &[("N", 8)], opts()).unwrap();
    std::env::remove_var("TIRAMISU_DISASM");
    let dis = &module.compile_trace().unwrap().passes.last().unwrap().ir;
    assert!(dis.contains("store"), "TIRAMISU_DISASM=1 snapshot has no stores:\n{dis}");
    assert_eq!(dis, &module.disasm().unwrap());
}

#[test]
fn disabled_tracing_materializes_nothing() {
    let _guard = locked();
    std::env::remove_var("TIRAMISU_TRACE");
    let before = snapshot_renders();
    for _ in 0..3 {
        let f = blur2();
        let module = compile_cpu(&f, &[("N", 8)], CpuOptions::default()).unwrap();
        assert!(module.compile_trace().is_none());
    }
    assert_eq!(
        snapshot_renders(),
        before,
        "tracing-disabled compilation materialized trace records"
    );
}

#[test]
fn env_var_enables_tracing_globally() {
    let _guard = locked();
    std::env::set_var("TIRAMISU_TRACE", "1");
    let f = blur2();
    let module = compile_cpu(&f, &[("N", 8)], CpuOptions::default()).unwrap();
    std::env::remove_var("TIRAMISU_TRACE");
    let trace = module.compile_trace().expect("TIRAMISU_TRACE=1 enables tracing");
    assert_eq!(trace.pass_names(), PASSES);
}
