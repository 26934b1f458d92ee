//! Telemetry coverage: span nesting, thread interleaving, the Chrome
//! trace-event export shape, and the zero-overhead-when-off guarantee on
//! the Figure 1 sgemm path.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use telemetry::{
    drain, records_materialized, set_profiling, set_thread_name, span, EventKind,
};

/// Tests here flip the process-wide profiling override and drain the
/// global recorder; serialize them.
static PROFILE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    PROFILE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn nested_spans_are_contained_in_their_parent() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    {
        let _outer = span("t", "outer");
        std::thread::sleep(Duration::from_millis(2));
        {
            let _inner = span("t", "inner");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let tl = drain();
    set_profiling(None);
    let find = |name: &str| {
        tl.events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("span {name} not recorded"))
    };
    let (outer, inner) = (find("outer"), find("inner"));
    assert_eq!(outer.tid, inner.tid, "same-thread spans share a tid");
    let dur = |e: &telemetry::Event| match e.kind {
        EventKind::Span { dur_us } => dur_us,
        k => panic!("expected a span, got {k:?}"),
    };
    assert!(inner.ts_us >= outer.ts_us, "inner starts inside outer");
    assert!(
        inner.ts_us + dur(inner) <= outer.ts_us + dur(outer),
        "inner ({}..{}) escapes outer ({}..{})",
        inner.ts_us,
        inner.ts_us + dur(inner),
        outer.ts_us,
        outer.ts_us + dur(outer),
    );
    assert!(dur(outer) > dur(inner), "outer encloses more wall time");
}

#[test]
fn threads_interleave_with_distinct_tids() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    let workers = 3;
    std::thread::scope(|s| {
        for w in 0..workers {
            s.spawn(move || {
                set_thread_name(format!("worker {w}"));
                let _sp = span("t", format!("work {w}"));
                std::thread::sleep(Duration::from_millis(1));
            });
        }
    });
    let tl = drain();
    set_profiling(None);
    let mut span_tids = Vec::new();
    let mut names = Vec::new();
    for e in &tl.events {
        match e.kind {
            EventKind::Span { .. } => span_tids.push(e.tid),
            EventKind::ThreadName => names.push(e.name.to_string()),
            _ => {}
        }
    }
    span_tids.sort_unstable();
    span_tids.dedup();
    assert_eq!(span_tids.len(), workers, "each worker records under its own tid");
    names.sort();
    assert_eq!(names, ["worker 0", "worker 1", "worker 2"]);
    // Joined workers' buffers retire into the global list, so the drain
    // on this (fourth) thread observed all of them.
    for e in &tl.events {
        if let EventKind::ThreadName = e.kind {
            let work = tl.events.iter().find(|o| {
                o.tid == e.tid && matches!(o.kind, EventKind::Span { .. })
            });
            assert!(work.is_some(), "thread {} has a name but no span", e.tid);
        }
    }
}

#[test]
fn chrome_export_is_valid_json_with_monotonic_timestamps() {
    let _g = locked();
    set_profiling(Some(true));
    let _ = drain();
    {
        let _sp = span("t", "escape \"quotes\" and\nnewlines");
        telemetry::counter("t", "c", 1.5);
        telemetry::instant("t", "i");
        set_thread_name("main \\ test");
    }
    let tl = drain();
    set_profiling(None);
    let json = tl.to_chrome_json();
    json_validate(&json).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{json}"));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    // Drained timelines are timestamp-ordered, so the exported events
    // (metadata aside) are monotonic.
    let ts: Vec<u64> = tl.events.iter().map(|e| e.ts_us).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps not monotonic: {ts:?}");
}

#[test]
fn profiling_off_materializes_nothing_and_costs_under_two_percent() {
    let _g = locked();
    set_profiling(Some(false));
    let _ = drain();
    let prep = kernels::sgemm::tiramisu_best(64, 16).expect("sgemm compile");

    // Zero-records: the whole compile + run pipeline, instrumented
    // end-to-end, must not materialize a single telemetry event while
    // profiling is off.
    let before = records_materialized();
    prep.run_wall().expect("sgemm run");
    assert_eq!(
        records_materialized(),
        before,
        "profiling-off run materialized telemetry records"
    );

    // Overhead bound: the default off path (flight recorder on) against
    // the path with the recorder off too, where every entry point returns
    // after two relaxed checks. Rounds interleave two default arms (A, A')
    // and the recorder-off arm (B) in rotating order, so drift hits all
    // three alike. The estimate is the median of the per-round log ratios
    // A/B; the noise floor is the median |log A/A'| of the same rounds,
    // i.e. this host's spread for two identical arms right now.
    let sample = |flight: bool| {
        telemetry::flight::set_flight(Some(flight));
        let best = (0..3)
            .map(|_| {
                let t = Instant::now();
                prep.run_wall().expect("sgemm run");
                t.elapsed()
            })
            .min()
            .expect("three runs");
        best.as_secs_f64()
    };
    sample(true);
    let rounds = 21;
    let mut overhead = Vec::with_capacity(rounds);
    let mut noise = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut t = [0.0f64; 3];
        for k in 0..3 {
            let arm = (r + k) % 3;
            t[arm] = sample(arm != 2);
        }
        overhead.push((t[0] / t[2]).ln());
        noise.push((t[0] / t[1]).ln().abs());
    }
    telemetry::flight::set_flight(None);
    set_profiling(None);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (overhead, floor) = (median(&mut overhead), median(&mut noise));
    assert!(
        overhead < 0.02 + floor,
        "off-path overhead {:.2}% exceeds 2% plus the A/A noise floor {:.2}%",
        overhead * 100.0,
        floor * 100.0
    );
}

// ---------------------------------------------------------------------------
// Minimal JSON validator (the workspace has no serde, so the shape
// check parses by hand).
// ---------------------------------------------------------------------------

fn json_validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0;
    json_value(b, &mut pos)?;
    json_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn json_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    json_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            json_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                json_ws(b, pos);
                json_string(b, pos)?;
                json_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                json_value(b, pos)?;
                json_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            json_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                json_value(b, pos)?;
                json_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => json_string(b, pos),
        Some(b't') => json_lit(b, pos, "true"),
        Some(b'f') => json_lit(b, pos, "false"),
        Some(b'n') => json_lit(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            Ok(())
        }
        _ => Err(format!("unexpected byte at {pos}")),
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            0x00..=0x1f => return Err(format!("unescaped control byte at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn json_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}
