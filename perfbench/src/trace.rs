//! The benchmark's own per-layer timing. Timed runs keep it off; a
//! traced run turns it on for every other round and wraps the calls into
//! each layer's public functions. Nothing is added inside the program.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use crate::stats::{mean, quantile};

/// Samples per layer name, recorded only while tracing is on.
pub struct Tracer {
    enabled: bool,
    on: Cell<bool>,
    samples: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    /// A tracer for a run with `--trace 1` (`enabled`) or `--trace 0`.
    /// It starts on in a traced run, so set-up is traced too.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            on: Cell::new(enabled),
            samples: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn on(&self) -> bool {
        self.on.get()
    }

    fn set(&self, on: bool) {
        self.on.set(self.enabled && on);
    }

    /// Runs `f`, recording its wall time in milliseconds under `layer`
    /// when tracing is on.
    pub fn time<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.record(layer, t.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// Records one sample under `layer` when tracing is on.
    pub fn record(&self, layer: &'static str, value: f64) {
        if self.on() {
            self.samples
                .borrow_mut()
                .entry(layer)
                .or_default()
                .push(value);
        }
    }

    pub fn samples(&self, layer: &str) -> Vec<f64> {
        self.samples
            .borrow()
            .get(layer)
            .cloned()
            .unwrap_or_default()
    }

    /// Copies `other`'s samples for every layer this tracer lacks, and
    /// returns the names copied.
    pub fn fill_from(&self, other: &Tracer) -> Vec<&'static str> {
        let mut mine = self.samples.borrow_mut();
        let mut copied = Vec::new();
        for (&layer, values) in other.samples.borrow().iter() {
            if !mine.contains_key(layer) {
                mine.insert(layer, values.clone());
                copied.push(layer);
            }
        }
        copied
    }
}

/// The timed phase of a run: whole rounds of operations, with the time
/// of each operation and of each round.
#[derive(Default)]
pub struct Phase {
    /// Wall time of every operation, in milliseconds.
    op_ms: Vec<f64>,
    /// Wall time of the whole phase, in seconds, including the
    /// benchmark's own work between operations.
    wall_s: f64,
    /// Summed operation time of every round, in seconds, with whether
    /// the round was traced.
    rounds: Vec<(f64, bool)>,
    /// Variants completed in every round.
    done: Vec<u64>,
    /// Index in `op_ms` of every round's first operation.
    first_op: Vec<usize>,
}

impl Phase {
    /// Runs `rounds` rounds. In a traced run odd rounds are traced and
    /// even rounds are not, so the two kinds interleave and the tracing
    /// overhead can be read off their mean round times. `round` returns
    /// its operations' summed time in seconds, which excludes any replay
    /// a traced round does between operations.
    pub fn run(
        tracer: &Tracer,
        rounds: usize,
        mut round: impl FnMut(usize, &mut Phase) -> f64,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        for r in 0..rounds {
            tracer.set(r % 2 == 1);
            phase.done.push(0);
            phase.first_op.push(phase.op_ms.len());
            let secs = round(r, &mut phase);
            phase.rounds.push((secs, tracer.on()));
        }
        tracer.set(true);
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    /// Times one operation, recording its latency.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.op_ms.push(secs * 1e3);
        (r, secs)
    }

    /// Credits `n` completed variants to the current round.
    pub fn done(&mut self, n: u64) {
        *self.done.last_mut().expect("inside a round") += n;
    }

    /// Up to ten equal blocks of consecutive rounds. Figures are taken
    /// per block and reported as the median over blocks, so that a burst
    /// of interference from outside the process moves one block, not the
    /// figure.
    fn blocks(&self) -> Vec<Range<usize>> {
        let n = self.rounds.len();
        let blocks = n.min(10);
        (0..blocks)
            .map(|b| b * n / blocks..(b + 1) * n / blocks)
            .collect()
    }

    /// Variants per second of operation time, the median over blocks.
    pub fn variants_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .blocks()
            .into_iter()
            .map(|range| {
                let secs: f64 = self.rounds[range.clone()].iter().map(|(s, _)| s).sum();
                let done: u64 = self.done[range].iter().sum();
                done as f64 / secs
            })
            .collect();
        quantile(&rates, 0.5)
    }

    /// The `q`-quantile of operation latency in milliseconds: taken over
    /// each block's operations, and the median over blocks.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let per_block: Vec<f64> = self
            .blocks()
            .into_iter()
            .map(|range| {
                let start = self.first_op[range.start];
                let end = self
                    .first_op
                    .get(range.end)
                    .copied()
                    .unwrap_or(self.op_ms.len());
                quantile(&self.op_ms[start..end], q)
            })
            .collect();
        quantile(&per_block, 0.5)
    }

    /// Time spent inside operations, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.rounds.iter().map(|(s, _)| s).sum()
    }

    fn round_secs(&self, traced: bool) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Mean traced round time over mean untraced round time, minus one,
    /// in percent.
    pub fn trace_overhead_pct(&self) -> f64 {
        let t = mean(&self.round_secs(true));
        let u = mean(&self.round_secs(false));
        if u > 0.0 {
            100.0 * (t / u - 1.0)
        } else {
            0.0
        }
    }

    /// The phase's shape, as a JSON object for the run's detail line.
    pub fn summary(&self) -> String {
        let all: Vec<f64> = self.rounds.iter().map(|(s, _)| *s).collect();
        format!(
            "{{\"rounds\": {}, \"ops\": {}, \"wall_s\": {:.3}, \"busy_s\": {:.3}, \
             \"round_s_min\": {:.4}, \"round_s_median\": {:.4}, \"round_s_max\": {:.4}}}",
            all.len(),
            self.op_ms.len(),
            self.wall_s,
            self.busy_s(),
            quantile(&all, 0.0),
            quantile(&all, 0.5),
            quantile(&all, 1.0),
        )
    }
}
