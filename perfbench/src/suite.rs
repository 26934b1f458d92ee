//! The kernel suite, its seeded inputs and its references.
//!
//! The CPU suite is Fig. 1 sgemm, the seven Fig. 6 image kernels and the
//! Fig. 5 conv. The simulated suite is the GPU tiled sgemm and conv2D
//! plus nb distributed over two ranks. Input buffer `k` of every
//! kernel is filled with `kernels::fill_buffer(.., seed + k)`, so the
//! default seed reproduces the inputs the `kernels` crate uses.
//!
//! No reference comes from the code path under test:
//!
//! - sgemm and conv: plain Rust, checked bit for bit against
//!   `sgemm::reference_result` and `dnn::conv_reference` at the default
//!   seed on every start;
//! - cvtColor, conv2D, gaussian, nb: the `halide_lite` variants, run on
//!   the tree-walk evaluator;
//! - edgeDetector, warpAffine, ticket #2373: the Tiramisu program itself
//!   on the tree-walk evaluator (not the bytecode or the JIT);
//! - GPU and distributed outputs: the same CPU references.

use kernels::dnn::ConvSize;
use kernels::image::ImgSize;
use kernels::image_dist::DistPrep;
use kernels::Prepared;
use loopvm::{BufId, Machine, Program};
use std::sync::{Arc, Mutex};

/// The seed `kernels::fill_buffer` callers use throughout the repository.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Problem sizes. No kernel takes more than half of a hot pass.
pub const SGEMM_N: i64 = 64;
pub const SGEMM_TILE: i64 = 32;
pub const IMG: ImgSize = ImgSize { h: 96, w: 128 };
pub const CONV: ConvSize = ConvSize {
    batch: 2,
    feat: 4,
    img: 16,
    k: 3,
};
pub const GPU_N: i64 = 32;
pub const GPU_TILE: i64 = 8;
pub const DIST_IMG: ImgSize = ImgSize { h: 64, w: 96 };
pub const RANKS: usize = 2;

/// The CPU suite, in request order.
pub const CPU_SUITE: [&str; 9] = [
    "sgemm",
    "edgeDetector",
    "cvtColor",
    "conv2D",
    "warpAffine",
    "gaussian",
    "nb",
    "ticket #2373",
    "conv",
];

/// The distributed kernels of the simulated suite: conv2D exchanges halo
/// rows, nb runs four fused stages without communication. (The 2-stage
/// gaussian is left out: `image_dist::tiramisu_dist("gaussian", ..)`
/// exchanges input rows but not the distributed first stage, so the last
/// four rows of each rank's block read uncomputed values.)
pub const DIST_SUITE: [&str; 2] = ["conv2D", "nb"];

pub type Result<T> = std::result::Result<T, String>;

/// Compiles one CPU suite kernel through its `kernels` entry point.
pub fn build_cpu(name: &str) -> Result<Prepared> {
    match name {
        "sgemm" => kernels::sgemm::tiramisu_best(SGEMM_N, SGEMM_TILE),
        "conv" => kernels::dnn::conv_tiramisu(CONV),
        image => kernels::image::tiramisu_cpu(image, IMG),
    }
    .map_err(|e| format!("{name}: {e}"))
}

/// Compiles the GPU tiled sgemm.
pub fn build_gpu() -> Result<Arc<tiramisu::GpuModule>> {
    kernels::sgemm::gpu_tiled(GPU_N, GPU_TILE).map_err(|e| format!("gpu sgemm: {e}"))
}

/// Compiles one distributed kernel for [`RANKS`] ranks.
pub fn build_dist(name: &str) -> Result<DistPrep> {
    kernels::image_dist::tiramisu_dist(name, DIST_IMG, RANKS as i64)
        .map_err(|e| format!("dist {name}: {e}"))
}

/// Input `k` of the given lengths, filled from `seed + k`.
pub fn seeded(lens: &[usize], seed: u64) -> Vec<Vec<f32>> {
    lens.iter()
        .enumerate()
        .map(|(k, &n)| {
            let mut v = vec![0f32; n];
            kernels::fill_buffer(&mut v, seed + k as u64);
            v
        })
        .collect()
}

fn lens(p: &Program, bufs: &[BufId]) -> Vec<usize> {
    bufs.iter().map(|b| p.buffer_info(*b).1).collect()
}

/// Copies `data[k]` into buffer `bufs[k]`.
pub fn load(m: &mut Machine, bufs: &[BufId], data: &[Vec<f32>]) {
    for (b, d) in bufs.iter().zip(data) {
        m.buffer_mut(*b).copy_from_slice(d);
    }
}

/// Whether `got` matches `expect` within `tol` relative error.
pub fn matches(got: &[f32], expect: &[f32], tol: f32) -> bool {
    got.len() == expect.len()
        && got
            .iter()
            .zip(expect)
            .all(|(g, e)| (g - e).abs() <= tol * (1.0 + e.abs()))
}

/// Tolerance of a suite kernel against its reference.
pub fn tolerance(name: &str) -> f32 {
    match name {
        "sgemm" | "conv" => 1e-4,
        _ => 1e-3,
    }
}

/// `C = Cin + A * B` in the loop order of `sgemm::reference_result`.
pub fn sgemm_ref(n: i64, inputs: &[Vec<f32>]) -> Vec<f32> {
    let (a, b, c) = (&inputs[0], &inputs[1], &inputs[2]);
    let n = n as usize;
    let mut out = c.clone();
    for i in 0..n {
        for j in 0..n {
            let mut acc = out[i * n + j];
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// The convolution in the loop order of `dnn::conv_reference`.
pub fn conv_ref(s: ConvSize, inputs: &[Vec<f32>]) -> Vec<f32> {
    let (input, w, bias) = (&inputs[0], &inputs[1], &inputs[2]);
    let (bsz, feat, img, k) = (
        s.batch as usize,
        s.feat as usize,
        s.img as usize,
        s.k as usize,
    );
    let in_h = img + 4;
    let mut out = vec![0f32; bsz * feat * img * img];
    for b in 0..bsz {
        for f in 0..feat {
            for y in 0..img {
                for x in 0..img {
                    let mut acc = bias[f];
                    for c in 0..feat {
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += input[((b * feat + c) * in_h + y + ky) * in_h + x + kx]
                                    * w[((f * feat + c) * k + ky) * k + kx];
                            }
                        }
                    }
                    out[((b * feat + f) * img + y) * img + x] = acc;
                }
            }
        }
    }
    out
}

/// Checks the plain-Rust references against the `kernels` crate's own at
/// the default seed, bit for bit.
pub fn check_rust_references() -> Result<()> {
    let nn = (SGEMM_N * SGEMM_N) as usize;
    let ours = sgemm_ref(SGEMM_N, &seeded(&[nn, nn, nn], DEFAULT_SEED));
    if ours != kernels::sgemm::reference_result(SGEMM_N) {
        return Err("sgemm reference disagrees with sgemm::reference_result".into());
    }
    let (b, f, img, k) = (CONV.batch, CONV.feat, CONV.img, CONV.k);
    let conv_lens = [
        (b * f * (img + 4) * (img + 4)) as usize,
        (f * f * k * k) as usize,
        f as usize,
    ];
    if conv_ref(CONV, &seeded(&conv_lens, DEFAULT_SEED)) != kernels::dnn::conv_reference(CONV) {
        return Err("conv reference disagrees with dnn::conv_reference".into());
    }
    Ok(())
}

/// Runs `p` on the tree-walk evaluator with `inputs` loaded.
fn tree_walk(p: &Prepared, inputs: &[Vec<f32>]) -> Result<Vec<f32>> {
    let mut m = Machine::new(&p.program);
    load(&mut m, &p.inputs, inputs);
    m.run_tree_walk(&p.program)
        .map_err(|e| format!("{}: {e}", p.name))?;
    Ok(m.buffer(p.output).to_vec())
}

/// The `halide_lite` variant of an image kernel, on the tree-walk
/// evaluator.
fn halide_ref(name: &str, s: ImgSize, inputs: &[Vec<f32>]) -> Result<Vec<f32>> {
    let h = kernels::image::halide_cpu(name, s).map_err(|e| format!("halide {name}: {e}"))?;
    tree_walk(&h, inputs)
}

/// One compiled CPU suite kernel with its inputs and reference output.
pub struct CpuCase {
    pub name: &'static str,
    pub prep: Prepared,
    pub inputs: Vec<Vec<f32>>,
    pub reference: Vec<f32>,
}

impl CpuCase {
    /// Compiles `name`, seeds its inputs and computes its reference.
    pub fn new(name: &'static str, seed: u64) -> Result<CpuCase> {
        let prep = build_cpu(name)?;
        let inputs = seeded(&lens(&prep.program, &prep.inputs), seed);
        let reference = match name {
            "sgemm" => sgemm_ref(SGEMM_N, &inputs),
            "conv" => conv_ref(CONV, &inputs),
            "cvtColor" | "conv2D" | "gaussian" | "nb" => halide_ref(name, IMG, &inputs)?,
            _ => tree_walk(&prep, &inputs)?,
        };
        Ok(CpuCase {
            name,
            prep,
            inputs,
            reference,
        })
    }

    /// A fresh machine with this kernel's inputs loaded.
    pub fn machine(&self) -> Machine {
        let mut m = Machine::new(&self.prep.program);
        load(&mut m, &self.prep.inputs, &self.inputs);
        m
    }

    /// Whether `m`'s output buffer matches the reference.
    pub fn check(&self, m: &Machine) -> bool {
        matches(
            m.buffer(self.prep.output),
            &self.reference,
            tolerance(self.name),
        )
    }
}

/// The GPU tiled sgemm with its inputs and reference.
pub struct GpuCase {
    pub module: Arc<tiramisu::GpuModule>,
    inputs: Vec<(usize, Vec<f32>)>,
    out: usize,
    pub reference: Vec<f32>,
}

impl GpuCase {
    pub fn new(seed: u64) -> Result<GpuCase> {
        let module = build_gpu()?;
        let idx = |b: &str| {
            module
                .buffer_index(b)
                .ok_or(format!("gpu sgemm: no buffer {b}"))
        };
        let ins = [idx("A")?, idx("B")?, idx("Cin")?];
        let alloc = module.alloc_buffers();
        let data = seeded(&ins.map(|i| alloc[i].len()), seed);
        let reference = sgemm_ref(GPU_N, &data);
        let out = idx("C")?;
        Ok(GpuCase {
            module,
            inputs: ins.into_iter().zip(data).collect(),
            out,
            reference,
        })
    }

    /// Device buffers with the inputs copied in.
    pub fn buffers(&self) -> Vec<Vec<f32>> {
        let mut bufs = self.module.alloc_buffers();
        for (i, d) in &self.inputs {
            bufs[*i].copy_from_slice(d);
        }
        bufs
    }

    pub fn check(&self, bufs: &[Vec<f32>]) -> bool {
        matches(&bufs[self.out], &self.reference, tolerance("sgemm"))
    }
}

/// One distributed kernel with its inputs and reference. Its output is
/// the `out` buffer, split by rows over the ranks.
pub struct DistCase {
    pub name: &'static str,
    pub prep: DistPrep,
    inputs: Vec<(BufId, Vec<f32>)>,
    out: BufId,
    reference: Vec<f32>,
}

impl DistCase {
    pub fn new(name: &'static str, seed: u64) -> Result<DistCase> {
        let prep = build_dist(name)?;
        let m = &prep.module;
        let bufs: Vec<BufId> = prep
            .inputs
            .iter()
            .map(|b| m.vm_buffer(b).ok_or(format!("dist {name}: no buffer {b}")))
            .collect::<Result<_>>()?;
        let data = seeded(&lens(&m.dist.program, &bufs), seed);
        let reference = halide_ref(name, DIST_IMG, &data)?;
        let out = m
            .vm_buffer("out")
            .ok_or(format!("dist {name}: no buffer out"))?;
        if reference.len() != (DIST_IMG.h * DIST_IMG.w) as usize {
            return Err(format!(
                "dist {name}: reference has {} values",
                reference.len()
            ));
        }
        Ok(DistCase {
            name,
            prep,
            inputs: bufs.into_iter().zip(data).collect(),
            out,
            reference,
        })
    }

    /// Runs on the simulated cluster and gathers each rank's rows.
    pub fn run(&self) -> std::result::Result<(mpisim::DistStats, Vec<f32>), mpisim::DistError> {
        let (rows, row_len) = (DIST_IMG.h as usize, DIST_IMG.w as usize);
        let chunk = rows.div_ceil(RANKS);
        let gathered = Mutex::new(vec![0f32; rows * row_len]);
        let stats = mpisim::run_with_opts(
            &self.prep.module.dist,
            RANKS,
            &mpisim::CommModel::default(),
            &mpisim::RunOptions::default(),
            |_rank, m| {
                for (b, d) in &self.inputs {
                    m.buffer_mut(*b).copy_from_slice(d);
                }
            },
            |rank, m| {
                let lo = (rank * chunk).min(rows) * row_len;
                let hi = ((rank + 1) * chunk).min(rows) * row_len;
                gathered.lock().expect("no rank panicked holding the lock")[lo..hi]
                    .copy_from_slice(&m.buffer(self.out)[lo..hi]);
            },
        )?;
        Ok((
            stats,
            gathered
                .into_inner()
                .expect("no rank panicked holding the lock"),
        ))
    }

    pub fn check(&self, out: &[f32]) -> bool {
        matches(out, &self.reference, tolerance(self.name))
    }
}

/// Shifts one reference value, so the check against it must fail (the
/// benchmark's negative case).
pub fn corrupt(reference: &mut [f32]) {
    if let Some(v) = reference.first_mut() {
        *v += 1.0;
    }
}

/// A fingerprint of every program of a GPU module.
pub fn gpu_fingerprint(m: &tiramisu::GpuModule) -> u64 {
    m.kernels.iter().fold(m.program.fingerprint(), |h, k| {
        h.rotate_left(7) ^ k.program.fingerprint()
    })
}

pub fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}
