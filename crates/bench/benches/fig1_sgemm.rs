//! Figure 1: sgemm wall-clock across the five CPU frameworks and the GPU
//! variants (the modeled-time version of this figure is printed by
//! `cargo run -p bench --bin figures -- fig1`).

use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let (n, tile) = (48i64, 16i64);
    let mut g = c.benchmark_group("fig1_sgemm_cpu");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    for prep in [
        kernels::sgemm::vendor(n, tile),
        kernels::sgemm::tiramisu_best(n, tile).unwrap(),
        kernels::sgemm::alphaz_like(n, tile).unwrap(),
        kernels::sgemm::pluto_like(n).unwrap(),
        kernels::sgemm::polly_like(n).unwrap(),
    ] {
        let mut machine = prep.machine();
        g.bench_function(&prep.name, |b| {
            b.iter(|| machine.run(&prep.program).unwrap());
        });
    }
    g.finish();

    // Executor ablation on the best Tiramisu schedule: the optimizing
    // register-bytecode path vs the reference tree-walk evaluator
    // (numbers recorded in EXPERIMENTS.md). Bytecode is compiled once,
    // outside the timed region, as `CpuModule` consumers do.
    let mut g = c.benchmark_group("fig1_sgemm_execmode");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    let prep = kernels::sgemm::tiramisu_best(n, tile).unwrap();
    let bc = loopvm::opt::compile_program(&prep.program).unwrap();
    let mut machine = prep.machine();
    // The native tier, compiled once outside the timed region like the
    // bytecode; the row only exists where the JIT backend does.
    if let Some(jit) = loopvm::jit::compile(&bc) {
        g.bench_function("jit", |b| {
            b.iter(|| machine.run_jit(&jit).unwrap());
        });
    }
    g.bench_function("bytecode", |b| {
        b.iter(|| machine.run_bytecode(&bc).unwrap());
    });
    g.bench_function("tree-walk", |b| {
        b.iter(|| machine.run_tree_walk(&prep.program).unwrap());
    });
    g.finish();

    let mut g = c.benchmark_group("fig1_sgemm_gpu");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    for (name, module) in [
        ("cuBLAS-Tiramisu", kernels::sgemm::gpu_tiled(n, 8).unwrap()),
        ("PENCIL", kernels::sgemm::gpu_naive(n).unwrap()),
    ] {
        let mut bufs = module.alloc_buffers();
        g.bench_function(name, |b| {
            b.iter(|| module.run(&mut bufs, &gpusim::GpuModel::default()).unwrap());
        });
    }
    g.finish();

    // The tiled GPU sgemm on the warp-bytecode path (`GpuModule::run`,
    // phase bytecode compiled once by the pipeline).
    let mut g = c.benchmark_group("fig1_sgemm_gpu_execmode");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    let module = kernels::sgemm::gpu_tiled(n, 8).unwrap();
    let mut bufs = module.alloc_buffers();
    g.bench_function("bytecode", |b| {
        b.iter(|| module.run(&mut bufs, &gpusim::GpuModel::default()).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
