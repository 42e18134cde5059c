//! `fuzz`: `pgsd_fuzz::fuzz` at one thread. Every round is one fuzzing
//! session over one generated program: compile it, build two variants
//! under each transform set, run baseline and variants briefly, and
//! cross-check them against the static validator.

use pgsd_analysis::check_images;
use pgsd_cache::Cache;
use pgsd_core::{BuildConfig, Input, Session};
use pgsd_fuzz::diff::inputs_for;
use pgsd_fuzz::gen::{generate, GenOptions};
use pgsd_fuzz::{fuzz, FuzzConfig};
use pgsd_gadget::{survivor, ScanConfig};
use pgsd_telemetry::Telemetry;
use pgsd_x86::nop::NopTable;

use crate::stats::{geomean, mean, mix};
use crate::trace::{Phase, Tracer};
use crate::{checks, run_traced, setup_reps, Ctx, Outcome};

/// Seconds one round takes on the reference host (see README).
pub const ROUND_SECONDS: f64 = 0.0085;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Programs whose cases are rebuilt and run after the phase for the
/// overhead and gadget metrics.
const QUALITY_PROGRAMS: usize = 768;

fn config(ctx: &Ctx, round: usize) -> FuzzConfig {
    FuzzConfig {
        iters: 1,
        seed: mix(ctx.seed, &[round as u64]),
        threads: 1,
        ..FuzzConfig::default()
    }
}

// `pgsd_fuzz` derives program and variant seeds this way; the replay
// mirrors it so that it rebuilds the cases the session ran.
fn program_seed(session_seed: u64) -> u64 {
    session_seed.wrapping_mul(1_000_003)
}

fn variant_seed(program_seed: u64, ti: usize, k: usize) -> u64 {
    program_seed
        .wrapping_mul(31)
        .wrapping_add(97 * ti as u64 + k as u64 + 1)
}

#[derive(Default)]
struct Quality {
    ratios: Vec<f64>,
    survivors: Vec<f64>,
    size_growth: Vec<f64>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tr = &ctx.tracer;
    let mut out = Outcome::default();
    let rounds = ctx.rounds(ROUND_SECONDS);
    let configs: Vec<FuzzConfig> = (0..rounds).map(|r| config(ctx, r)).collect();

    // Set-up: generate the run's programs and compile each baseline
    // cold, as every session's first case does.
    let ((), setup_s) = setup_reps(
        SETUP_REPS,
        || {
            for c in &configs {
                let program = generate(program_seed(c.seed), &c.gen);
                let session = Session::from_source("fuzzcase", &program.emit()).threads(1);
                session
                    .build_with(&BuildConfig::baseline())
                    .expect("generated program compiles");
            }
        },
        drop,
    );

    let mut quality = Quality::default();
    let tel = Telemetry::disabled();
    let phase = Phase::run(tr, rounds, |r, phase| {
        let c = &configs[r];
        let cases = c.iters * c.transforms.len() as u64 * c.variants_per_set as u64;
        out.attempted += cases;
        let (result, secs) = phase.op(|| fuzz(c, None, &tel));
        match result {
            Ok(report) => {
                phase.done(report.cases - report.build_errors);
                out.failed += report.build_errors;
                out.check(checks::fuzz_report(&report, c));
            }
            Err(e) => out.fail_many(cases, format!("fuzz seed {}: {e}", c.seed)),
        }
        if tr.on() {
            replay(tr, c, &mut quality, &mut out);
        }
        secs
    });
    let peak = crate::host::peak_rss_mb();

    if !tr.enabled() {
        for c in configs.iter().take(QUALITY_PROGRAMS) {
            replay(tr, c, &mut quality, &mut out);
        }
    }

    out.finish_phase(&phase, tr, &setup_s, peak);
    out.metric(
        "cycle_overhead_pct",
        100.0 * (geomean(&quality.ratios) - 1.0),
    );
    out.metric("survivors_pct", 100.0 * mean(&quality.survivors));
    out.metric("size_overhead_pct", 100.0 * mean(&quality.size_growth));
    out.probe_program = Some(crate::evaluate::PROGRAMS[0]);
    out
}

/// Rebuilds one session's cases through the layer calls the fuzzer
/// composes (generation, compile prefix, builds, validator, runs), and
/// scores each variant's overhead, surviving gadgets and growth.
fn replay(tr: &Tracer, c: &FuzzConfig, q: &mut Quality, out: &mut Outcome) {
    let ps = program_seed(c.seed);
    let program = tr.time("fuzz.gen_ms", || generate(ps, &GenOptions::default()));
    let cache = Cache::in_memory();
    let session = Session::from_source("fuzzcase", &program.emit())
        .threads(1)
        .cache(cache.clone());
    tr.time("cc.frontend_ms", || session.module().map(|_| ()))
        .expect("generated program compiles");
    tr.time("cc.lower_ms", || session.lowered(None))
        .expect("generated program lowers");
    let baseline = tr
        .time("core.build_ms", || {
            session.build_with(&BuildConfig::baseline())
        })
        .expect("generated program builds");
    let inputs: Vec<Input> = inputs_for(ps).iter().map(|a| Input::args(a)).collect();
    let base_cycles: u64 = inputs
        .iter()
        .map(|i| run_traced(tr, &session, &baseline, i).stats.cycles)
        .sum();
    let nops = NopTable::new();
    let scan = ScanConfig::default();
    for (ti, tset) in c.transforms.iter().enumerate() {
        for k in 0..c.variants_per_set {
            let config = tset.config(variant_seed(ps, ti, k));
            let variant = match tr.time("core.build_ms", || session.build_with(&config)) {
                Ok(v) => v,
                Err(e) => return out.problem(format!("fuzz replay build: {e}")),
            };
            if tr.on()
                && tr
                    .time("analysis.divcheck_ms", || {
                        check_images(&baseline, &variant, &config.transforms())
                    })
                    .is_err()
            {
                out.problem(format!(
                    "fuzz replay: validator rejected a {} variant",
                    tset.label()
                ));
            }
            let cycles: u64 = inputs
                .iter()
                .map(|i| run_traced(tr, &session, &variant, i).stats.cycles)
                .sum();
            q.ratios.push(cycles as f64 / base_cycles as f64);
            let report = tr.time("gadget.survivor_ms", || {
                survivor(&baseline.text, &variant.text, &nops, &scan)
            });
            tr.record("gadget.survivors", report.count() as f64);
            q.survivors.push(report.surviving_fraction());
            q.size_growth
                .push(variant.text.len() as f64 / baseline.text.len() as f64 - 1.0);
        }
    }
    tr.record(
        "cache.mem_mb",
        cache.stats().mem_bytes as f64 / (1024.0 * 1024.0),
    );
}
