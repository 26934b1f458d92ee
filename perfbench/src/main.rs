//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <compile_cold|first_run|hot_run|sim_run> --seed <n>
//!           --seconds <s> --trace <0|1> [--requests <n>] [--scratch <dir>]
//!           [--corrupt-reference]
//! ```
//!
//! A single closed-loop client sends requests for `--seconds` (or exactly
//! `--requests`). The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is non-zero when any output differs from its reference.
//! See `README.md` next to this crate.

mod suite;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Counts, Kind, Workload};

/// Fresh processes whose set-up is timed; `setup_s` is their median.
/// One runs after each measurement window (the loop is paused), so the
/// samples spread over the run instead of sharing one moment of the host.
const SETUP_SAMPLES: usize = 9;

/// Every per-layer metric with its unit, in output order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("kernels.schedule_ms", "ms"),
    ("service.miss_ms", "ms"),
    ("service.worker_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.compiles", "count"),
    ("service.disk_hits", "count"),
    ("pipeline.lower_ms", "ms"),
    ("pipeline.legality_ms", "ms"),
    ("pipeline.astgen_ms", "ms"),
    ("pipeline.tag-resolve_ms", "ms"),
    ("pipeline.emit_ms", "ms"),
    ("pipeline.optimize_ms", "ms"),
    ("legality.check_ms", "ms"),
    ("opt.compile_ms", "ms"),
    ("opt.bc_insts", "count"),
    ("jit.compile_ms", "ms"),
    ("jit.code_bytes", "bytes"),
    ("jit.deopt_stubs", "count"),
    ("gpusim.compile_phases_ms", "ms"),
    ("artifacts.disk_hit_ms", "ms"),
    ("vm.setup_ms", "ms"),
    ("vm.first_run_ms", "ms"),
    ("vm.jit_compiles", "count"),
    ("vm.bc_cache.misses", "count"),
    ("vm.bc_cache.hits", "count"),
    ("vm.dispatch_ms", "ms"),
    ("vm.run_jit_ms", "ms"),
    ("jit.deopts_fired", "count"),
    ("vm.run_bytecode_ms", "ms"),
    ("gpusim.launch_ms", "ms"),
    ("gpusim.modeled_cycles", "cycles"),
    ("gpusim.divergent_branches", "count"),
    ("gpusim.bank_conflicts", "count"),
    ("mpisim.run_ms", "ms"),
    ("mpisim.messages", "count"),
    ("mpisim.bytes_sent", "bytes"),
    ("mpisim.retries", "count"),
    ("mpisim.modeled_cycles", "cycles"),
    ("bench.inputs_ms", "ms"),
    ("bench.check_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    requests: Option<usize>,
    scratch: PathBuf,
    corrupt: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::HotRun,
        seed: suite::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        requests: None,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
        corrupt: false,
        setup_probe: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--requests" => {
                args.requests = Some(value()?.parse().map_err(|e| format!("--requests: {e}"))?);
            }
            "--scratch" => args.scratch = PathBuf::from(value()?),
            "--corrupt-reference" => args.corrupt = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    args.kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    Ok(args)
}

/// Pins the environment the system reads, before any thread starts: no
/// profiling (it turns the JIT off), no compile tracing, default
/// executors, and a disk tier only for first_run, in `store`.
fn pin_environment(kind: Kind, store: &std::path::Path) {
    for var in [
        "TIRAMISU_PROFILE",
        "TIRAMISU_TRACE",
        "TIRAMISU_DISASM",
        "TIRAMISU_CACHE_DIR",
        "LOOPVM_JIT",
        "LOOPVM_TREEWALK",
        "GPUSIM_TREEWALK",
    ] {
        std::env::remove_var(var);
    }
    if kind == Kind::FirstRun {
        std::env::set_var("TIRAMISU_CACHE_DIR", store);
    }
    telemetry::set_profiling(Some(false));
    // The traced run reads each request's spans back from the flight
    // recorder, so it must be on, with rings that hold a whole request.
    telemetry::flight::set_flight(Some(true));
    telemetry::flight::set_ring_capacity(4096);
}

/// Times one fresh process of the benchmark from spawn until its set-up
/// is done, in seconds.
fn setup_sample(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(suite::err_str)?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            args.kind.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--scratch")
        .arg(&args.scratch)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(suite::err_str)?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(suite::err_str)?;
    let elapsed = t.elapsed().as_secs_f64();
    let status = child.wait().map_err(suite::err_str)?;
    if !status.success() || line.trim() != "ready" {
        return Err("set-up probe failed".into());
    }
    Ok(elapsed)
}

/// Median, interpolated between the middle two values.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Sums over all traced requests, for the per-layer report.
#[derive(Default)]
struct TraceTotals {
    requests: usize,
    latency_us: f64,
    self_us: BTreeMap<String, f64>,
    unattributed_us: f64,
    counts: Counts,
    traced_latency: Vec<f64>,
    plain_latency: Vec<f64>,
    /// Every traced request's intervals, keyed by request number.
    spans: Vec<(usize, trace::Interval)>,
}

/// The run is cut into windows of this length; each end-to-end time
/// metric is the median over windows of the window's own value, so a few
/// slow seconds on a shared host move it less than a whole-run figure.
const WINDOW: Duration = Duration::from_secs(1);

struct Window {
    start: Instant,
    latencies_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

/// One window's figures.
struct WindowStats {
    requests_per_s: f64,
    latency_p50_ms: f64,
    cpu_ms_per_request: f64,
}

impl Window {
    fn open() -> Window {
        Window {
            start: Instant::now(),
            latencies_ms: Vec::new(),
            cpu_ms: Vec::new(),
        }
    }

    fn close(mut self) -> WindowStats {
        let wall = self.start.elapsed().as_secs_f64();
        WindowStats {
            requests_per_s: self.latencies_ms.len() as f64 / wall,
            latency_p50_ms: median(&mut self.latencies_ms),
            cpu_ms_per_request: median(&mut self.cpu_ms),
        }
    }
}

struct Outcome {
    setup_s: Vec<f64>,
    attempted: usize,
    failed: usize,
    elapsed: Duration,
    windows: Vec<WindowStats>,
    trace: TraceTotals,
}

/// The closed loop: one request at a time until the time or request
/// budget is spent. In trace mode requests alternate untraced and traced.
fn measure(w: &mut Workload, args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let mut out = Outcome {
        setup_s: Vec::new(),
        attempted: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        windows: Vec::new(),
        trace: TraceTotals::default(),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let want = args.requests.map(|n| if args.trace { 2 * n } else { n });
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut window = Window::open();
    loop {
        let done = match want {
            Some(n) => out.attempted >= n,
            None => {
                start.elapsed() >= budget + paused
                    && out.attempted >= if args.trace { 2 } else { 1 }
            }
        };
        if done {
            break;
        }
        let traced = args.trace && out.attempted % 2 == 1;
        tr.set_on(traced);
        let before = traced.then(|| w.readings());
        let mut counts = Counts::new();
        let cpu0 = sys::cpu_time();
        let t0 = tr.now();
        let result = w.request(&mut tr, &mut counts);
        let t1 = tr.now();
        window
            .cpu_ms
            .push(sys::cpu_time().saturating_sub(cpu0).as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok(0) => {}
            Ok(_) => out.failed += 1,
            Err(e) => {
                eprintln!("perfbench: request failed: {e}");
                out.failed += 1;
            }
        }
        let latency_us = t1 - t0;
        window.latencies_ms.push(latency_us / 1e3);
        if window.start.elapsed() >= WINDOW {
            out.windows.push(window.close());
            if !args.trace && out.setup_s.len() < SETUP_SAMPLES {
                let t = Instant::now();
                out.setup_s.push(setup_sample(args)?);
                paused += t.elapsed();
            }
            window = Window::open();
        }
        if args.trace {
            let t = &mut out.trace;
            if let Some(before) = before {
                let flight = tr.flight_spans(t0, t1);
                let mut ivs = tr.take_spans();
                ivs.extend(w.finish_traced(&flight, before, w.readings(), &mut counts));
                let (layers, rest) = trace::attribute(&ivs, t0, t1);
                t.spans
                    .extend(ivs.into_iter().map(|iv| (out.attempted, iv)));
                for (k, v) in layers {
                    *t.self_us.entry(k).or_default() += v;
                }
                for (k, v) in counts {
                    *t.counts.entry(k).or_default() += v;
                }
                t.unattributed_us += rest;
                t.latency_us += latency_us;
                t.requests += 1;
                t.traced_latency.push(latency_us);
            } else {
                t.plain_latency.push(latency_us);
            }
        }
    }
    // A short last window only counts when it is the only one.
    if out.windows.is_empty() || window.start.elapsed() >= WINDOW / 2 {
        out.windows.push(window.close());
    }
    out.elapsed = start.elapsed().saturating_sub(paused);
    while !args.trace && out.setup_s.len() < SETUP_SAMPLES {
        out.setup_s.push(setup_sample(args)?);
    }
    Ok(out)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn end_to_end(o: &mut Outcome) -> Vec<String> {
    let over_windows =
        |f: fn(&WindowStats) -> f64| median(&mut o.windows.iter().map(f).collect::<Vec<_>>());
    vec![
        json_metric("requests_per_s", over_windows(|w| w.requests_per_s), "1/s"),
        json_metric("latency_p50_ms", over_windows(|w| w.latency_p50_ms), "ms"),
        json_metric(
            "cpu_ms_per_request",
            over_windows(|w| w.cpu_ms_per_request),
            "ms",
        ),
        json_metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        json_metric("setup_s", median(&mut o.setup_s), "s"),
        json_metric(
            "success_rate",
            1.0 - o.failed as f64 / o.attempted as f64,
            "ratio",
        ),
    ]
}

/// The per-layer report: per-request means of self times and counts,
/// plus the trace's own overhead. Also prints the self-time breakdown on
/// a `trace:` line so the layer sum can be checked against the latency.
fn per_layer(o: &mut Outcome) -> Vec<String> {
    let t = &mut o.trace;
    let n = t.requests.max(1) as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in &t.self_us {
        values.insert(format!("{k}_ms"), v / 1e3 / n);
    }
    for (k, v) in &t.counts {
        *values.entry((*k).to_string()).or_default() += v / n;
    }
    let unattributed = t.unattributed_us / 1e3 / n;
    let overhead = (median(&mut t.traced_latency) / median(&mut t.plain_latency) - 1.0) * 100.0;
    let self_ms: Vec<String> = t
        .self_us
        .iter()
        .map(|(k, v)| format!("\"{k}_ms\": {}", v / 1e3 / n))
        .collect();
    println!(
        "trace: {{\"requests\": {}, \"latency_ms\": {}, \"unattributed_ms\": {unattributed}, \"self_ms\": {{{}}}}}",
        t.requests,
        t.latency_us / 1e3 / n,
        self_ms.join(", ")
    );
    let mut out = Vec::new();
    for &(name, unit) in LAYER_METRICS {
        let v = match name {
            "trace.unattributed_ms" => unattributed,
            "trace.overhead_pct" => overhead,
            _ => values.remove(name).unwrap_or(0.0),
        };
        out.push(json_metric(name, v, unit));
    }
    for k in values.keys() {
        eprintln!("perfbench: layer {k} is not a listed metric");
    }
    out
}

/// Writes every traced request's intervals as JSON lines.
fn write_spans(path: &std::path::Path, spans: &[(usize, trace::Interval)]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (request, iv) in spans {
        writeln!(
            f,
            "{{\"request\": {request}, \"layer\": \"{}\", \"depth\": {}, \"start_us\": {}, \"end_us\": {}}}",
            iv.layer, iv.depth, iv.start, iv.end
        )?;
    }
    f.flush()
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    let store = args.scratch.join(format!("store-{}", std::process::id()));
    pin_environment(args.kind, &store);
    let result = run_with_store(&args);
    let _ = std::fs::remove_dir_all(&store);
    result
}

fn run_with_store(args: &Args) -> Result<bool, String> {
    if args.setup_probe {
        Workload::setup(args.kind, args.seed)?;
        println!("ready");
        return Ok(true);
    }
    let mut w = Workload::setup(args.kind, args.seed)?;
    if args.corrupt {
        w.corrupt_reference();
    }
    let mut o = measure(&mut w, args)?;
    println!(
        "perfbench: {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"machine_threads\": {}, \"ranks\": {}, \"requests\": {}, \"seconds\": {}}}",
        args.kind.name(),
        args.seed,
        sys::nproc(),
        w.machine_threads(),
        suite::RANKS,
        o.attempted,
        o.elapsed.as_secs_f64()
    );
    if args.trace {
        let path = args
            .scratch
            .join(format!("trace-{}.jsonl", args.kind.name()));
        write_spans(&path, &o.trace.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let metrics = if args.trace {
        per_layer(&mut o)
    } else {
        end_to_end(&mut o)
    };
    let correct = o.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: outputs differ from their references");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
