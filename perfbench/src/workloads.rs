//! The four workloads. A request is one pass over the workload's whole
//! kernel list in a fixed order, so request latency has a single mode.
//!
//! | Workload | One request |
//! |---|---|
//! | `compile_cold` | compiles the CPU suite, the GPU sgemm and a 2-rank conv2D from scratch |
//! | `first_run` | per CPU kernel: a disk-tier module, a fresh `Machine`, `Machine::run`, a check |
//! | `hot_run` | runs every CPU kernel once on the `Machine` built in set-up, then checks |
//! | `sim_run` | GPU sgemm on `gpusim`, conv2D and nb on two `mpisim` ranks, with checks |

use crate::suite::{self, CpuCase, DistCase, GpuCase, Result, CPU_SUITE, DIST_SUITE};
use crate::trace::{FlightSpan, Interval, Tracer};
use loopvm::Machine;
use std::collections::BTreeMap;
use std::sync::Arc;
use telemetry::metrics::{Counter, Histogram};

/// Per-request counts a traced request adds to.
pub type Counts = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CompileCold,
    FirstRun,
    HotRun,
    SimRun,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::CompileCold,
        Kind::FirstRun,
        Kind::HotRun,
        Kind::SimRun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CompileCold => "compile_cold",
            Kind::FirstRun => "first_run",
            Kind::HotRun => "hot_run",
            Kind::SimRun => "sim_run",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The always-on process-wide metrics the traced run reads deltas of.
struct Registry {
    jit_compiles: Arc<Counter>,
    bc_misses: Arc<Counter>,
    bc_hits: Arc<Counter>,
    deopts_fired: Arc<Counter>,
    jit_compile_us: Arc<Histogram>,
}

impl Registry {
    fn new() -> Registry {
        use telemetry::metrics::{counter, histogram};
        Registry {
            jit_compiles: counter("vm.jit.compiles"),
            bc_misses: counter("vm.bc_cache.misses"),
            bc_hits: counter("vm.bc_cache.hits"),
            deopts_fired: counter("jit.deopts_fired"),
            jit_compile_us: histogram("vm.jit.compile_us"),
        }
    }
}

/// Point-in-time readings of the counters a request may move.
#[derive(Clone, Copy)]
pub struct Readings {
    service: tiramisu::ServiceStats,
    queue_wait_us: u64,
    jit_compiles: u64,
    bc_misses: u64,
    bc_hits: u64,
    deopts_fired: u64,
}

pub struct Workload {
    pub kind: Kind,
    reg: Registry,
    cpu: Vec<CpuCase>,
    machines: Vec<Machine>,
    gpu: Option<GpuCase>,
    dist: Vec<DistCase>,
    /// Program fingerprints of the verified compile (compile_cold).
    fingerprints: Vec<u64>,
    /// `(start, end, jit compile µs)` of each `Machine::run` in the last
    /// traced first_run request.
    runs: Vec<(f64, f64, f64)>,
    /// CPU programs compiled by the last traced compile_cold request.
    compiled: Vec<loopvm::Program>,
}

impl Workload {
    /// Everything before the first timed request: the cold compile of the
    /// workload's suite, its references and a verified warm-up.
    pub fn setup(kind: Kind, seed: u64) -> Result<Workload> {
        suite::check_rust_references()?;
        let cpu = match kind {
            Kind::SimRun => Vec::new(),
            _ => CPU_SUITE
                .iter()
                .map(|n| CpuCase::new(n, seed))
                .collect::<Result<_>>()?,
        };
        let gpu = matches!(kind, Kind::CompileCold | Kind::SimRun)
            .then(|| GpuCase::new(seed))
            .transpose()?;
        let dist = match kind {
            Kind::CompileCold => vec![DistCase::new("conv2D", seed)?],
            Kind::SimRun => DIST_SUITE
                .iter()
                .map(|n| DistCase::new(n, seed))
                .collect::<Result<_>>()?,
            _ => Vec::new(),
        };
        let mut w = Workload {
            kind,
            reg: Registry::new(),
            cpu,
            machines: Vec::new(),
            gpu,
            dist,
            fingerprints: Vec::new(),
            runs: Vec::new(),
            compiled: Vec::new(),
        };
        match kind {
            Kind::CompileCold => {
                // The cold compiles below must reproduce these programs,
                // whose outputs are checked here once.
                for c in &w.cpu {
                    let mut m = c.machine();
                    m.run(&c.prep.program).map_err(suite::err_str)?;
                    if !c.check(&m) {
                        return Err(format!("{}: output differs from the reference", c.name));
                    }
                    w.fingerprints.push(c.prep.program.fingerprint());
                }
                let g = w.gpu.as_ref().expect("gpu case");
                let mut bufs = g.buffers();
                g.module
                    .run(&mut bufs, &gpusim::GpuModel::default())
                    .map_err(suite::err_str)?;
                if !g.check(&bufs) {
                    return Err("gpu sgemm: output differs from the reference".into());
                }
                w.fingerprints.push(suite::gpu_fingerprint(&g.module));
                let d = &w.dist[0];
                let (_, out) = d.run().map_err(suite::err_str)?;
                if !d.check(&out) {
                    return Err(format!(
                        "dist {}: output differs from the reference",
                        d.name
                    ));
                }
                w.fingerprints
                    .push(d.prep.module.dist.program.fingerprint());
            }
            Kind::HotRun => {
                w.machines = w.cpu.iter().map(CpuCase::machine).collect();
            }
            Kind::FirstRun | Kind::SimRun => {}
        }
        let mut tr = Tracer::new();
        let mut counts = Counts::new();
        for _ in 0..2 {
            if w.request(&mut tr, &mut counts)? != 0 {
                return Err("warm-up request failed its reference check".into());
            }
        }
        Ok(w)
    }

    /// Corrupts one reference, so every request must fail its check. The
    /// references of compile_cold are the verified programs.
    pub fn corrupt_reference(&mut self) {
        if let Some(f) = self.fingerprints.first_mut() {
            *f ^= 1;
        } else if let Some(c) = self.cpu.first_mut() {
            suite::corrupt(&mut c.reference);
        } else if let Some(g) = &mut self.gpu {
            suite::corrupt(&mut g.reference);
        }
    }

    /// Runs one request. Returns the number of kernels whose output (or,
    /// for compile_cold, whose program) differs from the verified one.
    pub fn request(&mut self, tr: &mut Tracer, counts: &mut Counts) -> Result<usize> {
        match self.kind {
            Kind::CompileCold => self.compile_cold(tr),
            Kind::FirstRun => self.first_run(tr),
            Kind::HotRun => self.hot_run(tr),
            Kind::SimRun => self.sim_run(tr, counts),
        }
    }

    fn compile_cold(&mut self, tr: &mut Tracer) -> Result<usize> {
        let svc = tiramisu::service::global();
        let mut bad = 0;
        let mut compiled = Vec::with_capacity(CPU_SUITE.len());
        for (k, name) in CPU_SUITE.iter().enumerate() {
            svc.clear_memory();
            let prep = tr.span("kernels.schedule", || suite::build_cpu(name))?;
            bad += usize::from(prep.program.fingerprint() != self.fingerprints[k]);
            if tr.is_on() {
                compiled.push(prep.program);
            }
        }
        svc.clear_memory();
        let gpu = tr.span("kernels.schedule", suite::build_gpu)?;
        bad += usize::from(suite::gpu_fingerprint(&gpu) != self.fingerprints[CPU_SUITE.len()]);
        svc.clear_memory();
        let dist = tr.span("kernels.schedule", || suite::build_dist("conv2D"))?;
        bad += usize::from(
            dist.module.dist.program.fingerprint() != self.fingerprints[CPU_SUITE.len() + 1],
        );
        self.compiled = compiled;
        Ok(bad)
    }

    fn first_run(&mut self, tr: &mut Tracer) -> Result<usize> {
        let svc = tiramisu::service::global();
        let mut bad = 0;
        self.runs.clear();
        for c in &self.cpu {
            svc.clear_memory();
            let prep = tr.span("kernels.schedule", || suite::build_cpu(c.name))?;
            let mut m = tr.span("vm.setup", || {
                let mut m = Machine::new(&prep.program);
                suite::load(&mut m, &prep.inputs, &c.inputs);
                m
            });
            let jit_before = tr.is_on().then(|| self.reg.jit_compile_us.snapshot().sum);
            let start = tr.now();
            tr.span("opt.compile", || m.run(&prep.program))
                .map_err(suite::err_str)?;
            if let Some(before) = jit_before {
                let jit_us = self.reg.jit_compile_us.snapshot().sum - before;
                self.runs.push((start, tr.now(), jit_us as f64));
            }
            bad += usize::from(!tr.span("bench.check", || {
                suite::matches(
                    m.buffer(prep.output),
                    &c.reference,
                    suite::tolerance(c.name),
                )
            }));
        }
        Ok(bad)
    }

    fn hot_run(&mut self, tr: &mut Tracer) -> Result<usize> {
        let mut bad = 0;
        for (c, m) in self.cpu.iter().zip(&mut self.machines) {
            tr.span("bench.inputs", || suite::load(m, &c.prep.inputs, &c.inputs));
            tr.span("vm.dispatch", || m.run(&c.prep.program))
                .map_err(suite::err_str)?;
            bad += usize::from(!tr.span("bench.check", || c.check(m)));
        }
        Ok(bad)
    }

    fn sim_run(&mut self, tr: &mut Tracer, counts: &mut Counts) -> Result<usize> {
        let mut bad = 0;
        let g = self.gpu.as_ref().expect("gpu case");
        let mut bufs = tr.span("bench.inputs", || g.buffers());
        let run = tr
            .span("gpusim.launch", || {
                g.module.run(&mut bufs, &gpusim::GpuModel::default())
            })
            .map_err(suite::err_str)?;
        bad += usize::from(!tr.span("bench.check", || g.check(&bufs)));
        if tr.is_on() {
            let sum =
                |f: fn(&gpusim::LaunchStats) -> u64| run.kernels.iter().map(f).sum::<u64>() as f64;
            *counts.entry("gpusim.modeled_cycles").or_default() += run.total_cycles;
            *counts.entry("gpusim.divergent_branches").or_default() +=
                sum(|k| k.divergent_branches);
            *counts.entry("gpusim.bank_conflicts").or_default() += sum(|k| k.bank_conflict_degree);
        }
        for d in &self.dist {
            let (stats, out) = tr.span("mpisim.run", || d.run()).map_err(suite::err_str)?;
            bad += usize::from(!tr.span("bench.check", || d.check(&out)));
            if tr.is_on() {
                let total = |v: &[u64]| v.iter().sum::<u64>() as f64;
                *counts.entry("mpisim.messages").or_default() += total(&stats.messages);
                *counts.entry("mpisim.bytes_sent").or_default() += total(&stats.bytes_sent);
                *counts.entry("mpisim.retries").or_default() += total(&stats.retries);
                *counts.entry("mpisim.modeled_cycles").or_default() += stats.modeled_cycles;
            }
        }
        Ok(bad)
    }

    pub fn readings(&self) -> Readings {
        let svc = tiramisu::service::global();
        Readings {
            service: svc.stats(),
            queue_wait_us: svc.latency_snapshots().0.sum,
            jit_compiles: self.reg.jit_compiles.get(),
            bc_misses: self.reg.bc_misses.get(),
            bc_hits: self.reg.bc_hits.get(),
            deopts_fired: self.reg.deopts_fired.get(),
        }
    }

    /// Turns a traced request's spans into layer intervals and adds the
    /// request's counts; runs after the request's timer has stopped.
    pub fn finish_traced(
        &mut self,
        flight: &[FlightSpan],
        before: Readings,
        after: Readings,
        counts: &mut Counts,
    ) -> Vec<Interval> {
        let mut ivs = Vec::new();
        for s in flight {
            let in_compile = |prefix: &str| {
                flight
                    .iter()
                    .any(|o| o.cat == "service" && o.name.starts_with(prefix) && o.contains(s))
            };
            let (layer, depth) = match (s.cat, s.name.as_str()) {
                ("service", n) if n.starts_with("request:") => match self.kind {
                    Kind::FirstRun => ("artifacts.disk_hit".to_string(), 1),
                    _ => ("service.miss".to_string(), 1),
                },
                ("service", n) if n.starts_with("compile:") => ("service.worker".to_string(), 2),
                ("compile", "optimize") if in_compile("compile:gpu") => {
                    ("gpusim.compile_phases".to_string(), 3)
                }
                ("compile", pass) => {
                    if pass == "legality" && in_compile("compile:") {
                        *counts.entry("legality.check_ms").or_default() += (s.end - s.start) / 1e3;
                    }
                    (format!("pipeline.{pass}"), 3)
                }
                ("vm", "run_jit") => match self.kind {
                    Kind::FirstRun => ("vm.first_run".to_string(), 1),
                    _ => ("vm.run_jit".to_string(), 1),
                },
                ("vm", "run_bytecode") => ("vm.run_bytecode".to_string(), 1),
                _ => continue,
            };
            ivs.push(Interval {
                start: s.start,
                end: s.end,
                layer,
                depth,
            });
        }
        // `Machine::run` compiles native code just before it runs it: the
        // JIT-compile histogram's delta ends where the run_jit span starts.
        for &(a, b, jit_us) in &self.runs {
            if let Some(run) = flight
                .iter()
                .find(|s| s.name == "run_jit" && s.start >= a && s.end <= b + 1.0)
            {
                let start = (run.start - jit_us).max(a);
                ivs.push(Interval {
                    start,
                    end: run.start,
                    layer: "jit.compile".into(),
                    depth: 1,
                });
            }
        }
        let mut add = |k: &'static str, v: f64| *counts.entry(k).or_default() += v;
        let d = |f: fn(&Readings) -> u64| (f(&after) - f(&before)) as f64;
        add("service.compiles", d(|r| r.service.compiles));
        add("service.disk_hits", d(|r| r.service.disk_hits));
        add("service.queue_wait_ms", d(|r| r.queue_wait_us) / 1e3);
        add("vm.jit_compiles", d(|r| r.jit_compiles));
        add("vm.bc_cache.misses", d(|r| r.bc_misses));
        add("vm.bc_cache.hits", d(|r| r.bc_hits));
        add("jit.deopts_fired", d(|r| r.deopts_fired));
        if self.kind == Kind::CompileCold {
            // The optimize pass runs the bytecode optimizer and the JIT
            // back to back; replay both on the programs it produced to
            // split its time and count what it generated.
            for p in std::mem::take(&mut self.compiled) {
                let t = std::time::Instant::now();
                let Ok(bc) = loopvm::opt::compile_program(&p) else {
                    continue;
                };
                add("opt.compile_ms", t.elapsed().as_secs_f64() * 1e3);
                add("opt.bc_insts", bc.n_insts() as f64);
                let t = std::time::Instant::now();
                if let Some(j) = loopvm::jit::compile(&bc) {
                    add("jit.compile_ms", t.elapsed().as_secs_f64() * 1e3);
                    add("jit.code_bytes", j.code_len() as f64);
                    add("jit.deopt_stubs", j.n_deopts() as f64);
                }
            }
        }
        ivs
    }

    /// `Machine::threads()` of the machines the workload runs on.
    pub fn machine_threads(&self) -> usize {
        self.machines.first().map_or_else(
            || Machine::new(&loopvm::Program::new()).threads(),
            Machine::threads,
        )
    }
}
