//! `populate`: the Table 2 loop as batch production. Every round makes
//! one ledgered `Session::population` per program and paper
//! configuration, with a fresh seed, and scores each variant with
//! `gadget::survivor` against the baseline. Nothing is emulated after
//! set-up.

use std::sync::Arc;

use pgsd_analysis::check_images_mapped;
use pgsd_cache::Cache;
use pgsd_cc::emit::Image;
use pgsd_core::{variant_id, BuildConfig, Session, Strategy};
use pgsd_gadget::{survivor, ScanConfig};
use pgsd_profile::Profile;
use pgsd_workloads::Workload;
use pgsd_x86::nop::NopTable;

use crate::stats::{geomean, mean, mix};
use crate::trace::{Phase, Tracer};
use crate::{checks, compile, run_traced, setup_reps, Ctx, Outcome};

/// The four largest suite programs (Table 2's high end).
pub const PROGRAMS: [&str; 4] = ["483.xalancbmk", "403.gcc", "471.omnetpp", "445.gobmk"];

/// Variants per `Session::population` call.
const BATCH: usize = 1;

/// Seconds one round takes on the reference host (see README).
pub const ROUND_SECONDS: f64 = 1.85;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Prog {
    w: Workload,
    profile: Arc<Profile>,
    baseline: Image,
    /// A session on a cache of its own, for the traced replay: its
    /// builds must not hit the images `population` stored.
    replay: Option<Session>,
}

fn setup(tr: &Tracer, cache: &Cache) -> Vec<Prog> {
    PROGRAMS
        .iter()
        .map(|name| {
            let c = compile(tr, cache, name);
            Prog {
                w: c.w,
                profile: c.profile,
                baseline: c.baseline,
                replay: None,
            }
        })
        .collect()
}

fn session(p: &Prog, cache: &Cache) -> Session {
    Session::from_source(p.w.name, &p.w.source)
        .threads(1)
        .cache(cache.clone())
        .profile(Arc::clone(&p.profile))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tr = &ctx.tracer;
    let mut out = Outcome::default();
    let ((mut progs, cache), setup_s) = setup_reps(
        SETUP_REPS,
        || {
            let cache = Cache::in_memory();
            (setup(tr, &cache), cache)
        },
        drop,
    );
    if tr.enabled() {
        for p in &mut progs {
            let replay = session(p, &Cache::in_memory());
            replay.lowered(None).expect("suite program lowers");
            p.replay = Some(replay);
        }
    }

    let configs = Strategy::paper_configs();
    let nops = NopTable::new();
    let scan = ScanConfig::default();
    let mut survivors = Vec::new();
    let mut size_growth = Vec::new();
    // (program, variant id, build seed) of every populated variant, for
    // the ledger check after the peak is read.
    let mut ledgered = Vec::new();
    let phase = Phase::run(tr, ctx.rounds(ROUND_SECONDS), |r, phase| {
        let mut secs = 0.0;
        // One operation is a release: a population of every program
        // under one configuration. Per-program latencies would mix four
        // sizes, and their median would fall between two of them.
        for (ci, (_, strategy)) in configs.iter().enumerate() {
            let config_of = |pi: usize| {
                BuildConfig::diversified(
                    *strategy,
                    mix(ctx.seed, &[r as u64, pi as u64, ci as u64]),
                )
            };
            out.attempted += (BATCH * progs.len()) as u64;
            let (results, s) = phase.op(|| {
                progs
                    .iter()
                    .enumerate()
                    .map(|(pi, p)| {
                        let images = session(p, &cache)
                            .ledger(true)
                            .config(config_of(pi))
                            .population(BATCH)?;
                        let reports: Vec<_> = images
                            .iter()
                            .map(|v| {
                                tr.time("gadget.survivor_ms", || {
                                    survivor(&p.baseline.text, &v.text, &nops, &scan)
                                })
                            })
                            .collect();
                        Ok::<_, pgsd_cc::error::CompileError>((images, reports))
                    })
                    .collect::<Vec<_>>()
            });
            secs += s;
            for (pi, (p, result)) in progs.iter().zip(results).enumerate() {
                let (images, reports) = match result {
                    Ok(ok) => ok,
                    Err(e) => {
                        out.fail_many(BATCH as u64, format!("{} population: {e}", p.w.name));
                        continue;
                    }
                };
                phase.done(images.len() as u64);
                let seed = config_of(pi).seed;
                for (k, (v, report)) in images.iter().zip(&reports).enumerate() {
                    let (bl, vl) = (p.baseline.text.len(), v.text.len());
                    out.check(checks::populated_variant(bl, vl, report));
                    ledgered.push((pi, variant_id(v), seed + k as u64));
                    tr.record("gadget.survivors", report.count() as f64);
                    survivors.push(report.surviving_fraction());
                    size_growth.push(vl as f64 / bl as f64 - 1.0);
                    if let (true, Some(replay)) = (tr.on(), &p.replay) {
                        let seeded = BuildConfig {
                            seed: seed + k as u64,
                            ..config_of(pi)
                        };
                        replay_variant(tr, replay, p, &seeded, v, &mut out);
                    }
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

    // After the peak is read: every populated variant has its provenance
    // in the ledger.
    for (pi, id, seed) in &ledgered {
        out.check(
            checks::ledgered_variant(cache.ledger_get(id).as_ref(), *seed)
                .map_err(|e| format!("{}: {e}", progs[*pi].w.name)),
        );
    }

    // Then run the first round's variants and their
    // baselines on the train input (the ref input would cost seconds).
    let mut ratios = Vec::new();
    for (pi, p) in progs.iter().enumerate() {
        let s = session(p, &cache);
        let input = &p.w.train[0];
        let base = run_traced(tr, &s, &p.baseline, input);
        for (ci, (_, strategy)) in configs.iter().enumerate() {
            let config =
                BuildConfig::diversified(*strategy, mix(ctx.seed, &[0, pi as u64, ci as u64]));
            match s.build_with(&config) {
                Ok(v) => {
                    let run = run_traced(tr, &s, &v, input);
                    out.check(checks::same_behaviour(&base, &run));
                    ratios.push(run.stats.cycles as f64 / base.stats.cycles as f64);
                }
                Err(e) => out.problem(format!("{} rebuild: {e}", p.w.name)),
            }
        }
    }

    out.finish_phase(&phase, tr, &setup_s, peak);
    out.metric("cycle_overhead_pct", 100.0 * (geomean(&ratios) - 1.0));
    out.metric("survivors_pct", 100.0 * mean(&survivors));
    out.metric("size_overhead_pct", 100.0 * mean(&size_growth));
    out.probe_program = Some(PROGRAMS[0]);
    out
}

/// The traced replay of one populated variant through the layer calls
/// `population` composes: an unledgered build, which must reproduce the
/// variant's bytes, and the ledger's map recovery.
fn replay_variant(
    tr: &Tracer,
    replay: &Session,
    p: &Prog,
    config: &BuildConfig,
    variant: &Image,
    out: &mut Outcome,
) {
    match tr.time("core.build_ms", || replay.build_with(config)) {
        Ok(image) if image == *variant => {}
        Ok(_) => out.problem(format!(
            "{}: unledgered rebuild differs from the population's variant",
            p.w.name
        )),
        Err(e) => out.problem(format!("{} replay build: {e}", p.w.name)),
    }
    let mapped = tr.time("analysis.map_ms", || {
        check_images_mapped(&p.baseline, variant, &config.transforms())
    });
    if mapped.is_err() {
        out.problem(format!("{}: map recovery rejected a variant", p.w.name));
    }
}
