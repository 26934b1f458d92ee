//! Figure 6 (bottom block): distributed image benchmarks, Tiramisu vs
//! distributed Halide, on the message-passing simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use kernels::image::{ImgSize, IMAGE_BENCHMARKS};
use tiramisu::{DistOptions, Expr as E, Function, Var};

/// The paper's Figure 3(c) distributed blur (`examples/blur_distributed.rs`),
/// compiled for the executor ablation below.
fn fig3c_blur(rows: i64, cols: i64, nodes: i64) -> tiramisu::DistModule {
    let chunk = rows / nodes;
    let mut f = Function::new("dblur", &["N", "M", "Nodes"]);
    let i = f.var("i", 0, E::param("N") - E::i64(2));
    let j = f.var("j", 0, E::param("M") - E::i64(2));
    let lin = f
        .input("lin", &[f.var("i", 0, E::param("N")), f.var("j", 0, E::param("M"))])
        .unwrap();
    let at = |di: i64, dj: i64| {
        E::Access(lin, vec![E::iter("i") + E::i64(di), E::iter("j") + E::i64(dj)])
    };
    let bx = f
        .computation("bx", &[i, j], (at(0, 0) + at(1, 0) + at(0, 1)) / E::f32(3.0))
        .unwrap();
    f.split(bx, "i", chunk, "i0", "i1").unwrap();
    f.parallelize(bx, "i1").unwrap();
    f.distribute(bx, "i0").unwrap();
    let is = Var::new("is", E::i64(1), E::param("Nodes"));
    let ir = Var::new("ir", E::i64(0), E::param("Nodes") - E::i64(1));
    let s = f.send(
        is,
        "lin",
        E::iter("is") * E::i64(chunk) * E::param("M"),
        E::i64(2) * E::param("M"),
        E::iter("is") - E::i64(1),
        true,
    );
    let r = f.receive(
        ir,
        "lin",
        (E::iter("ir") + E::i64(1)) * E::i64(chunk) * E::param("M"),
        E::i64(2) * E::param("M"),
        E::iter("ir") + E::i64(1),
    );
    f.comm_before(s, bx);
    f.comm_before(r, bx);
    tiramisu::compile_dist(
        &f,
        &[("N", rows), ("M", cols), ("Nodes", nodes)],
        DistOptions::default(),
    )
    .unwrap()
}

fn bench(c: &mut Criterion) {
    let s = ImgSize::small();
    let ranks = 4i64;
    let mut g = c.benchmark_group("fig6_dist");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    for name in IMAGE_BENCHMARKS {
        let t = kernels::image_dist::tiramisu_dist(name, s, ranks).unwrap();
        g.bench_function(format!("{name}/Tiramisu"), |b| {
            b.iter(|| t.run(false).unwrap())
        });
        if let Ok((hd, r)) = kernels::image_dist::halide_dist(name, s, ranks) {
            g.bench_function(format!("{name}/Dist-Halide"), |b| {
                b.iter(|| {
                    mpisim::run(&hd, r, &mpisim::CommModel::default(), false).unwrap()
                })
            });
        }
    }
    g.finish();

    // Memoized rank-chunk bytecode on the distributed conv2D and the
    // Fig. 3(c) blur.
    let mut g = c.benchmark_group("fig6_dist_execmode");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
    let t = kernels::image_dist::tiramisu_dist("conv2D", s, ranks).unwrap();
    g.bench_function("conv2D/bytecode", |b| {
        b.iter(|| {
            mpisim::run(&t.module.dist, t.ranks, &mpisim::CommModel::default(), false).unwrap()
        })
    });
    let blur = fig3c_blur(64, 48, ranks);
    g.bench_function("blur (Fig 3c)/bytecode", |b| {
        b.iter(|| {
            mpisim::run(&blur.dist, ranks as usize, &mpisim::CommModel::default(), false).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
