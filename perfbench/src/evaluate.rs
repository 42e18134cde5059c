//! `evaluate`: the Figure 4 loop. Every round builds each program under
//! each of the paper's five configurations with a fresh seed, runs the
//! variant on its ref input and compares it with the baseline.

use std::sync::Arc;

use pgsd_cache::Cache;
use pgsd_cc::emit::Image;
use pgsd_core::{BuildConfig, RunOutcome, Session, Strategy};
use pgsd_gadget::{survivor, ScanConfig};
use pgsd_workloads::Workload;
use pgsd_x86::nop::NopTable;

use crate::stats::{geomean, mean, mix};
use crate::trace::{Phase, Tracer};
use crate::{checks, compile, kernels, run_traced, setup_reps, Ctx, Outcome};

/// Short-running suite programs with kernels small enough to have an
/// independent reference: recursive search, pointer chasing, and a
/// memory-streaming stencil.
pub const PROGRAMS: [&str; 3] = ["458.sjeng", "429.mcf", "470.lbm"];

/// Seconds one round takes on the reference host (see README).
pub const ROUND_SECONDS: f64 = 5.9;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// A compiled program with its baseline's ref-input run.
pub struct Prog {
    pub w: Workload,
    pub session: Session,
    pub baseline: Image,
    pub base_out: RunOutcome,
}

/// Cold set-up: compile every program on the fresh `cache` and run its
/// baseline on the ref input.
pub fn setup(tr: &Tracer, cache: &Cache, names: &[&str]) -> Vec<Prog> {
    names
        .iter()
        .map(|name| {
            let c = compile(tr, cache, name);
            let base_out = run_traced(tr, &c.session, &c.baseline, &c.w.reference);
            Prog {
                w: c.w,
                session: c.session,
                baseline: c.baseline,
                base_out,
            }
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tr = &ctx.tracer;
    let mut out = Outcome::default();
    let ((progs, cache), setup_s) = setup_reps(
        SETUP_REPS,
        || {
            let cache = Cache::in_memory();
            (setup(tr, &cache, &PROGRAMS), cache)
        },
        drop,
    );

    let configs = Strategy::paper_configs();
    let mut ratios = Vec::new();
    let mut size_growth = Vec::new();
    let mut texts: Vec<(usize, Arc<Vec<u8>>)> = Vec::new();
    let phase = Phase::run(tr, ctx.rounds(ROUND_SECONDS), |r, phase| {
        let mut secs = 0.0;
        // One operation is one configuration applied to every program, as
        // in `populate`: the three programs differ in run time several
        // fold, and a quantile over single variants would fall on
        // whichever program sits at that rank.
        for (ci, (_, strategy)) in configs.iter().enumerate() {
            let config_of = |pi: usize| {
                BuildConfig::diversified(
                    *strategy,
                    mix(ctx.seed, &[r as u64, pi as u64, ci as u64]),
                )
            };
            out.attempted += progs.len() as u64;
            let (results, s) = phase.op(|| {
                progs
                    .iter()
                    .enumerate()
                    .map(|(pi, p)| {
                        let config = config_of(pi);
                        let image = tr.time("core.build_ms", || p.session.build_with(&config))?;
                        let run = run_traced(tr, &p.session, &image, &p.w.reference);
                        Ok::<_, pgsd_cc::error::CompileError>((image, run))
                    })
                    .collect::<Vec<_>>()
            });
            secs += s;
            for (pi, (p, result)) in progs.iter().zip(results).enumerate() {
                match result {
                    Ok((image, run)) => {
                        phase.done(1);
                        out.check(checks::same_behaviour(&p.base_out, &run));
                        ratios.push(run.stats.cycles as f64 / p.base_out.stats.cycles as f64);
                        size_growth
                            .push(image.text.len() as f64 / p.baseline.text.len() as f64 - 1.0);
                        texts.push((pi, Arc::clone(&image.text)));
                    }
                    Err(e) => out.fail(format!("{} build: {e}", p.w.name)),
                }
            }
        }
        secs
    });
    let peak = crate::host::peak_rss_mb();
    tr.record(
        "cache.mem_mb",
        cache.stats().mem_bytes as f64 / (1024.0 * 1024.0),
    );

    // After the peak is read: independent references and gadget scoring.
    for p in &progs {
        let n = p.w.reference.args[0];
        let expected =
            kernels::expected(p.w.name, n).expect("every evaluate program has a reference");
        out.check(checks::matches_reference(&p.base_out, &expected));
    }
    let nops = NopTable::new();
    let scan = ScanConfig::default();
    let survivors: Vec<f64> = texts
        .iter()
        .map(|(pi, text)| {
            let base = &progs[*pi].baseline.text;
            let report = tr.time("gadget.survivor_ms", || survivor(base, text, &nops, &scan));
            tr.record("gadget.survivors", report.count() as f64);
            report.surviving_fraction()
        })
        .collect();

    out.finish_phase(&phase, tr, &setup_s, peak);
    out.metric("cycle_overhead_pct", 100.0 * (geomean(&ratios) - 1.0));
    out.metric("survivors_pct", 100.0 * mean(&survivors));
    out.metric("size_overhead_pct", 100.0 * mean(&size_growth));
    out.probe_program = Some(PROGRAMS[0]);
    out
}
