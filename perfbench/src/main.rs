//! End-to-end and per-layer benchmark of the pgsd toolchain.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload evaluate|populate|serve|fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run does a fixed number of whole rounds of operations, drawn
//! from `--seed`; `--seconds` sets how many (the rounds one reference
//! host finishes in that time), and no run is cut off by a clock. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the host's conditions and the run's details.

mod checks;
mod evaluate;
mod fuzz;
mod host;
mod kernels;
mod populate;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pgsd_analysis::{check_images, check_images_mapped};
use pgsd_cache::artifact::{decode_image, encode_image};
use pgsd_cache::Cache;
use pgsd_cc::emit::Image;
use pgsd_core::driver::DEFAULT_GAS;
use pgsd_core::{BuildConfig, Input, RunOutcome, Session, Strategy};
use pgsd_gadget::{survivor, ScanConfig};
use pgsd_profile::Profile;
use pgsd_workloads::Workload;
use pgsd_x86::nop::NopTable;

use crate::stats::{mean, median};
use crate::trace::{Phase, Tracer};

const WORKLOADS: [&str; 4] = ["evaluate", "populate", "serve", "fuzz"];

/// End-to-end metrics (name, unit), as in BENCHMARK.json.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("variants_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cycle_overhead_pct", "%"),
    ("survivors_pct", "%"),
    ("size_overhead_pct", "%"),
];

/// Per-layer metrics (name, unit), as in BENCHMARK.json.
const PER_LAYER: [(&str, &str); 19] = [
    ("cc.frontend_ms", "ms"),
    ("cc.lower_ms", "ms"),
    ("profile.train_ms", "ms"),
    ("emu.minst_per_s", "Minst/s"),
    ("emu.run_ms", "ms"),
    ("emu.minst_per_variant", "Minst"),
    ("core.build_ms", "ms"),
    ("analysis.map_ms", "ms"),
    ("analysis.divcheck_ms", "ms"),
    ("gadget.survivor_ms", "ms"),
    ("gadget.survivors", "count"),
    ("cache.encode_ms", "ms"),
    ("cache.decode_ms", "ms"),
    ("cache.mem_mb", "MiB"),
    ("workloads.by_name_ms", "ms"),
    ("serve.health_rtt_ms", "ms"),
    ("serve.payload_kb", "KiB"),
    ("fuzz.gen_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

impl Ctx {
    /// Rounds in this run: as many as the reference host finishes in
    /// `--seconds`, and at least two in a traced run so that traced and
    /// untraced rounds can be compared.
    pub fn rounds(&self, round_seconds: f64) -> usize {
        let n = (self.seconds / round_seconds).round().max(1.0) as usize;
        if self.tracer.enabled() {
            n.max(2)
        } else {
            n
        }
    }
}

/// What a workload hands back: operation counts, check failures, and its
/// end-to-end metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    problem_count: usize,
    metrics: BTreeMap<&'static str, f64>,
    /// The suite program the off-path layer probes use.
    pub probe_program: Option<&'static str>,
    phase: String,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, message: String) {
        self.problem_count += 1;
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }

    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problem(e);
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.fail_many(1, message);
    }

    pub fn fail_many(&mut self, n: u64, message: String) {
        self.failed += n;
        eprintln!("perfbench: operation failed: {message}");
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The metrics every workload derives from its phase alike.
    pub fn finish_phase(&mut self, phase: &Phase, tr: &Tracer, setup: &[f64], peak_rss_mb: f64) {
        self.metric("setup_s", median(setup));
        self.metric("variants_per_s", phase.variants_per_s());
        self.metric("latency_p50_ms", phase.latency_ms(0.5));
        self.metric("latency_p90_ms", phase.latency_ms(0.9));
        self.metric("peak_rss_mb", peak_rss_mb);
        tr.record("trace.overhead_pct", phase.trace_overhead_pct());
        let setup: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
        self.phase = format!(
            "{{\"setup_s\": [{}], \"timed\": {}}}",
            setup.join(", "),
            phase.summary()
        );
    }
}

/// Repeats a cold set-up `reps` times, retiring each result but the
/// last, and returns the last with every set-up's time in seconds. A single cold
/// set-up is too short to time steadily on a shared host.
pub fn setup_reps<T>(
    reps: usize,
    mut make: impl FnMut() -> T,
    mut retire: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            retire(previous);
        }
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// A suite program compiled cold: looked up, compiled, lowered, trained
/// on its train inputs, and its baseline built, each step traced as its
/// layer.
pub struct Compiled {
    pub w: Workload,
    pub session: Session,
    pub profile: Arc<Profile>,
    pub baseline: Image,
}

pub fn compile(tr: &Tracer, cache: &Cache, name: &str) -> Compiled {
    let w = tr
        .time("workloads.by_name_ms", || pgsd_workloads::by_name(name))
        .expect("suite program");
    let session = Session::from_source(w.name, &w.source)
        .threads(1)
        .cache(cache.clone());
    tr.time("cc.frontend_ms", || session.module().map(|_| ()))
        .expect("suite program compiles");
    tr.time("cc.lower_ms", || session.lowered(None))
        .expect("suite program lowers");
    let profile = tr
        .time("profile.train_ms", || session.train(&w.train, DEFAULT_GAS))
        .expect("training run exits");
    let baseline = tr
        .time("core.build_ms", || {
            session.build_with(&BuildConfig::baseline())
        })
        .expect("baseline builds");
    Compiled {
        w,
        session,
        profile,
        baseline,
    }
}

/// One emulator run through `Session::run`, traced as the `emu` layer.
pub fn run_traced(tr: &Tracer, session: &Session, image: &Image, input: &Input) -> RunOutcome {
    let out = tr.time("emu.run_ms", || {
        session.run(image, input, DEFAULT_GAS, "bench")
    });
    tr.record("emu.minst_per_variant", out.stats.instructions as f64 / 1e6);
    out
}

/// Measures the layers a workload's own path does not reach, on one
/// suite program, so that every traced run reports every layer.
fn probe_layers(tr: &Tracer, name: &str, seed: u64) {
    let cache = Cache::in_memory();
    let Compiled {
        w,
        session,
        baseline,
        ..
    } = compile(tr, &cache, name);
    let config = BuildConfig::diversified(Strategy::range(0.0, 0.3), seed);
    let variant = tr
        .time("core.build_ms", || session.build_with(&config))
        .expect("builds");
    let t = config.transforms();
    let _ = tr.time("analysis.map_ms", || {
        check_images_mapped(&baseline, &variant, &t)
    });
    let _ = tr.time("analysis.divcheck_ms", || {
        check_images(&baseline, &variant, &t)
    });
    let report = tr.time("gadget.survivor_ms", || {
        survivor(
            &baseline.text,
            &variant.text,
            &NopTable::new(),
            &ScanConfig::default(),
        )
    });
    tr.record("gadget.survivors", report.count() as f64);
    let bytes = tr.time("cache.encode_ms", || encode_image(&variant));
    tr.record("serve.payload_kb", bytes.len() as f64 / 1024.0);
    let _ = tr.time("cache.decode_ms", || decode_image(&bytes));
    run_traced(tr, &session, &variant, &w.train[0]);
    tr.record(
        "cache.mem_mb",
        cache.stats().mem_bytes as f64 / (1024.0 * 1024.0),
    );
    for i in 0..16 {
        tr.time("fuzz.gen_ms", || {
            pgsd_fuzz::gen::generate(
                stats::mix(seed, &[i]),
                &pgsd_fuzz::gen::GenOptions::default(),
            )
        });
    }
    let handle = pgsd_serve::serve(
        "127.0.0.1:0",
        pgsd_serve::ServeConfig {
            workers: Some(1),
            ..pgsd_serve::ServeConfig::default()
        },
    )
    .expect("daemon binds a local port");
    let addr = handle.addr().to_string();
    let rtt: Vec<f64> = (0..16)
        .map(|_| {
            let t = Instant::now();
            pgsd_serve::client::health(&addr).expect("idle daemon answers health");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    tr.record("serve.health_rtt_ms", median(&rtt));
    handle.request_shutdown();
    handle.join();
}

/// Reduces a traced run's samples to the per-layer metrics.
fn per_layer(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let s = tr.samples(name);
        let value = match name {
            "emu.minst_per_s" => {
                let ms: f64 = tr.samples("emu.run_ms").iter().sum();
                1e3 * tr.samples("emu.minst_per_variant").iter().sum::<f64>() / ms
            }
            "cache.mem_mb" | "trace.overhead_pct" => s.last().copied().unwrap_or(0.0),
            "serve.health_rtt_ms" => median(&s),
            _ => mean(&s),
        };
        m.insert(name, value);
    }
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metrics(metrics: &BTreeMap<&'static str, f64>, spec: &[(&str, &str)]) -> String {
    let fields: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".to_owned()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::start();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
    };
    let outcome = match args.workload.as_str() {
        "evaluate" => evaluate::run(&ctx),
        "populate" => populate::run(&ctx),
        "serve" => serve::run(&ctx),
        _ => fuzz::run(&ctx),
    };
    let (metrics, spec, probed) = if args.trace {
        let probe = Tracer::new(true);
        probe_layers(
            &probe,
            outcome.probe_program.unwrap_or("470.lbm"),
            args.seed,
        );
        let probed = ctx.tracer.fill_from(&probe);
        (per_layer(&ctx.tracer), &PER_LAYER[..], probed)
    } else {
        (outcome.metrics.clone(), &END_TO_END[..], Vec::new())
    };
    let correct = outcome.problem_count == 0
        && metrics.len() >= spec.len()
        && spec
            .iter()
            .all(|(n, _)| metrics.get(n).is_some_and(|v| v.is_finite()));
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_str(p)).collect();
    let probed: Vec<String> = probed.iter().map(|p| json_str(p)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"phase\": {}, \"problems\": {}, \"problem_list\": [{}], \"probed_layers\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.finish(),
        outcome.phase,
        outcome.problem_count,
        problems.join(", "),
        probed.join(", "),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics, spec)
    );
    ExitCode::SUCCESS
}
