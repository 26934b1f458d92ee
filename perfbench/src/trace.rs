//! The traced run's span recorder.
//!
//! Spans come from two places and share one clock:
//!
//! - the benchmark's own spans around each public call it makes
//!   ([`Tracer::span`]), timed with `Instant`;
//! - the spans the system itself records in its always-on flight
//!   recorder (`telemetry::flight`): service requests and compile jobs,
//!   pipeline passes, VM runs, on whichever thread they ran. Their
//!   microsecond timestamps are mapped onto the tracer's clock with an
//!   offset measured once at start-up.
//!
//! Every interval carries a layer name and a depth (deeper = more
//! specific). [`attribute`] sweeps the request window and gives each
//! instant to the deepest layer active on any thread, so the layers' self
//! times plus the unattributed rest add up to the request latency
//! exactly, parallel helpers included.

use std::collections::BTreeMap;
use std::time::Instant;

/// One labelled time interval on the tracer's clock (microseconds).
#[derive(Debug, Clone)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
    pub layer: String,
    pub depth: u8,
}

/// A span the system recorded in its flight recorder, on the tracer's
/// clock.
#[derive(Debug, Clone)]
pub struct FlightSpan {
    pub cat: &'static str,
    pub name: String,
    pub tid: u64,
    pub start: f64,
    pub end: f64,
}

impl FlightSpan {
    /// Whether `other` ran inside this span on the same thread.
    pub fn contains(&self, other: &FlightSpan) -> bool {
        self.tid == other.tid && self.start <= other.start + 1.0 && other.end <= self.end + 1.0
    }
}

/// Records the benchmark's spans for one request at a time. When off,
/// [`Tracer::span`] only runs its closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Flight-recorder timestamp minus tracer time, in microseconds.
    offset_us: f64,
    spans: Vec<Interval>,
}

impl Tracer {
    pub fn new() -> Tracer {
        let origin = Instant::now();
        let before = origin.elapsed().as_nanos() as f64 / 1e3;
        telemetry::instant("perfbench", "clock-sync");
        let after = origin.elapsed().as_nanos() as f64 / 1e3;
        let ts = telemetry::flight::snapshot_events()
            .into_iter()
            .rev()
            .find(|e| e.cat == "perfbench" && e.name == "clock-sync")
            .map(|e| e.ts_us as f64)
            .expect("the flight recorder is on");
        Tracer {
            on: false,
            origin,
            offset_us: ts - (before + after) / 2.0,
            spans: Vec::new(),
        }
    }

    /// Turns span recording on or off for the next request.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        self.spans.clear();
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Microseconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    /// Runs `f` inside a depth-0 span named `layer`.
    pub fn span<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.now();
        let r = f();
        let end = self.now();
        self.spans.push(Interval {
            start,
            end,
            layer: layer.to_string(),
            depth: 0,
        });
        r
    }

    /// Takes the spans recorded since the last call.
    pub fn take_spans(&mut self) -> Vec<Interval> {
        std::mem::take(&mut self.spans)
    }

    /// The flight-recorder spans that ran within `[t0, t1]` (tracer
    /// clock), oldest first.
    pub fn flight_spans(&self, t0: f64, t1: f64) -> Vec<FlightSpan> {
        // Flight timestamps are whole microseconds, truncated.
        const SLACK: f64 = 2.0;
        telemetry::flight::snapshot_events()
            .into_iter()
            .filter_map(|e| {
                let telemetry::EventKind::Span { dur_us } = e.kind else {
                    return None;
                };
                let start = e.ts_us as f64 - self.offset_us;
                let end = start + dur_us as f64;
                (start >= t0 - SLACK && end <= t1 + SLACK).then(|| FlightSpan {
                    cat: e.cat,
                    name: e.name.into_owned(),
                    tid: e.tid,
                    start,
                    end,
                })
            })
            .collect()
    }
}

/// Splits the window `[t0, t1]` among `ivs`: each instant goes to the
/// deepest interval covering it (the latest-starting one on a tie).
/// Returns each layer's self time and the time no interval covers, all in
/// microseconds; together they sum to `t1 - t0`.
pub fn attribute(ivs: &[Interval], t0: f64, t1: f64) -> (BTreeMap<String, f64>, f64) {
    let clipped: Vec<Interval> = ivs
        .iter()
        .map(|iv| Interval {
            start: iv.start.clamp(t0, t1),
            end: iv.end.clamp(t0, t1),
            ..iv.clone()
        })
        .filter(|iv| iv.end > iv.start)
        .collect();
    let mut points: Vec<f64> = vec![t0, t1];
    for iv in &clipped {
        points.push(iv.start);
        points.push(iv.end);
    }
    points.sort_by(f64::total_cmp);
    points.dedup();
    let mut self_us: BTreeMap<String, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mid = (a + b) / 2.0;
        let owner = clipped
            .iter()
            .filter(|iv| iv.start <= mid && mid < iv.end)
            .max_by(|x, y| x.depth.cmp(&y.depth).then(x.start.total_cmp(&y.start)));
        match owner {
            Some(iv) => *self_us.entry(iv.layer.clone()).or_default() += b - a,
            None => unattributed += b - a,
        }
    }
    (self_us, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: f64, end: f64, layer: &str, depth: u8) -> Interval {
        Interval {
            start,
            end,
            layer: layer.into(),
            depth,
        }
    }

    #[test]
    fn self_times_and_unattributed_sum_to_the_window() {
        let ivs = [
            iv(10.0, 90.0, "outer", 0),
            iv(20.0, 40.0, "inner", 1),
            // Two threads in the same layer at once count once.
            iv(50.0, 70.0, "rank", 1),
            iv(55.0, 80.0, "rank", 1),
            iv(95.0, 120.0, "late", 0),
        ];
        let (layers, rest) = attribute(&ivs, 0.0, 100.0);
        assert_eq!(layers["inner"], 20.0);
        assert_eq!(layers["rank"], 30.0);
        assert_eq!(layers["outer"], 30.0);
        assert_eq!(layers["late"], 5.0);
        assert_eq!(rest, 15.0);
        assert_eq!(layers.values().sum::<f64>() + rest, 100.0);
    }
}
