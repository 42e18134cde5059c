//! `serve`: the app-store path. One closed-loop client fetches variants
//! of small suite programs from an in-process daemon configured as
//! `pgsd serve` configures it, except for the address and the single
//! worker. The server assigns every seed.

use std::time::{Duration, Instant};

use pgsd_analysis::check_images_mapped;
use pgsd_cache::artifact::{decode_image, encode_image};
use pgsd_cache::Cache;
use pgsd_core::{BuildConfig, RunOutcome, Strategy};
use pgsd_gadget::{survivor, ScanConfig};
use pgsd_proto::{DiversifyRequest, Target};
use pgsd_serve::{client, serve, ServeConfig, ServerHandle};
use pgsd_x86::nop::NopTable;

use crate::evaluate::{self, Prog};
use crate::stats::{digest, geomean, mean, median, mix, shuffled};
use crate::trace::{Phase, Tracer};
use crate::{checks, run_traced, setup_reps, Ctx, Outcome};

/// Small suite programs; 470.lbm ships a 128 KiB data segment.
pub const TARGETS: [&str; 3] = ["470.lbm", "458.sjeng", "429.mcf"];

/// The paper's five configurations as request `pnop` specs.
const PNOP_SPECS: [&str; 5] = ["0.5", "0.25-0.5", "0.1-0.5", "0.3", "0.0-0.3"];

/// Seconds one round (every target under every spec) takes on the
/// reference host (see README).
pub const ROUND_SECONDS: f64 = 0.39;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

const HEALTH_PINGS: usize = 30;

/// Longest think time between fetches, in microseconds. Fetching back
/// to back would lock every request to the same phase of the daemon's
/// accept poll; a random pause lets requests arrive at any phase, as
/// independent users' requests do.
const THINK_MAX_US: u64 = 10_000;

/// Rounds whose variants also run, for `cycle_overhead_pct`.
const RUN_ROUNDS: usize = 8;

struct Daemon {
    handle: ServerHandle,
    addr: String,
}

impl Daemon {
    fn start(cache: &Cache) -> Daemon {
        let handle = serve(
            "127.0.0.1:0",
            ServeConfig {
                workers: Some(1),
                cache: cache.clone(),
                ..ServeConfig::default()
            },
        )
        .expect("daemon binds a local port");
        let addr = handle.addr().to_string();
        Daemon { handle, addr }
    }

    fn stop(self) {
        self.handle.request_shutdown();
        self.handle.join();
    }
}

fn request(target: &str, spec: Option<&str>) -> DiversifyRequest {
    DiversifyRequest {
        pnop: spec.map(str::to_owned),
        ..DiversifyRequest::new(Target::Workload(target.to_owned()))
    }
}

/// What the client keeps of a fetch: no payload, only its digest.
struct Served {
    target: usize,
    spec: usize,
    seed: u64,
    digest: (usize, u64),
    text_bytes: u64,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tr = &ctx.tracer;
    let mut out = Outcome::default();
    // The offline references; in a timed run they are built after the
    // peak is read, in a traced run before the phase, for the replay.
    let refs: Option<Vec<Prog>> = tr
        .enabled()
        .then(|| evaluate::setup(tr, &Cache::in_memory(), &TARGETS));

    let strategies: Vec<Strategy> = PNOP_SPECS
        .iter()
        .map(|s| Strategy::parse(s).expect("valid spec"))
        .collect();
    let mut served = Vec::new();
    let requests = TARGETS.len() * PNOP_SPECS.len();
    // Set-up and the timed phase run beside idle-priority spinners (see
    // `host::with_idle_spinners`); the reference work after them does not.
    let (setup_s, phase, peak) = crate::host::with_idle_spinners(|| {
        let ((daemon, cache), setup_s) = setup_reps(
            SETUP_REPS,
            || {
                let cache = Cache::in_memory();
                let daemon = Daemon::start(&cache);
                for target in TARGETS {
                    if let Err(e) = client::fetch(&daemon.addr, &request(target, None)) {
                        panic!("first fetch of {target} failed: {e}");
                    }
                }
                (daemon, cache)
            },
            |(daemon, _)| daemon.stop(),
        );
        let phase = Phase::run(tr, ctx.rounds(ROUND_SECONDS), |r, phase| {
            let mut secs = 0.0;
            for i in shuffled(requests, mix(ctx.seed, &[r as u64])) {
                let (target, spec) = (i / PNOP_SPECS.len(), i % PNOP_SPECS.len());
                out.attempted += 1;
                let req = request(TARGETS[target], Some(PNOP_SPECS[spec]));
                let think = mix(ctx.seed, &[r as u64, i as u64, 1]) % THINK_MAX_US;
                std::thread::sleep(Duration::from_micros(think));
                let (result, s) = phase.op(|| client::fetch(&daemon.addr, &req));
                secs += s;
                match result {
                    Ok(f) if f.info.seed_pinned => out.fail(format!(
                        "{}: server reported a pinned seed",
                        TARGETS[target]
                    )),
                    Ok(f) => {
                        phase.done(1);
                        tr.record("serve.payload_kb", f.payload.len() as f64 / 1024.0);
                        served.push(Served {
                            target,
                            spec,
                            seed: f.info.seed,
                            digest: digest(&f.payload),
                            text_bytes: f.info.text_bytes,
                        });
                        if let (true, Some(refs)) = (tr.on(), &refs) {
                            replay_fetch(
                                tr,
                                &refs[target],
                                &strategies[spec],
                                f.info.seed,
                                &mut out,
                            );
                        }
                    }
                    Err(e) => out.fail(format!("{} fetch: {e}", TARGETS[target])),
                }
            }
            secs
        });
        let peak = crate::host::peak_rss_mb();
        tr.record(
            "cache.mem_mb",
            cache.stats().mem_bytes as f64 / (1024.0 * 1024.0),
        );
        if tr.enabled() {
            let rtt: Vec<f64> = (0..HEALTH_PINGS)
                .map(|_| {
                    let t = Instant::now();
                    client::health(&daemon.addr).expect("idle daemon answers health");
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            tr.record("serve.health_rtt_ms", median(&rtt));
        }
        daemon.stop();
        (setup_s, phase, peak)
    });

    // After the peak is read: rebuild every served variant offline from
    // the server-reported seed and compare the bytes.
    let refs = refs.unwrap_or_else(|| evaluate::setup(tr, &Cache::in_memory(), &TARGETS));
    for p in &refs {
        let expected = crate::kernels::expected(p.w.name, p.w.reference.args[0])
            .expect("every target has a reference");
        out.check(checks::matches_reference(&p.base_out, &expected));
    }
    let base_train: Vec<RunOutcome> = refs
        .iter()
        .map(|p| run_traced(tr, &p.session, &p.baseline, &p.w.train[0]))
        .collect();
    let nops = NopTable::new();
    let scan = ScanConfig::default();
    let mut survivors = Vec::new();
    let mut size_growth = Vec::new();
    let mut ratios = Vec::new();
    for (k, s) in served.iter().enumerate() {
        let p = &refs[s.target];
        let config = BuildConfig::diversified(strategies[s.spec], s.seed);
        let image = match p.session.build_with(&config) {
            Ok(image) => image,
            Err(e) => {
                out.problem(format!("{} offline build: {e}", p.w.name));
                continue;
            }
        };
        out.check(checks::served_payload(s.digest, &image));
        if s.text_bytes != image.text.len() as u64 {
            out.problem(format!(
                "{}: announced text size differs from the image",
                p.w.name
            ));
        }
        let report = tr.time("gadget.survivor_ms", || {
            survivor(&p.baseline.text, &image.text, &nops, &scan)
        });
        tr.record("gadget.survivors", report.count() as f64);
        survivors.push(report.surviving_fraction());
        size_growth.push(image.text.len() as f64 / p.baseline.text.len() as f64 - 1.0);
        // The first rounds' variants also run, on the train input.
        if k < RUN_ROUNDS * requests {
            let base = &base_train[s.target];
            let run = run_traced(tr, &p.session, &image, &p.w.train[0]);
            out.check(checks::same_behaviour(base, &run));
            ratios.push(run.stats.cycles as f64 / base.stats.cycles as f64);
        }
    }

    out.finish_phase(&phase, tr, &setup_s, peak);
    out.metric("cycle_overhead_pct", 100.0 * (geomean(&ratios) - 1.0));
    out.metric("survivors_pct", 100.0 * mean(&survivors));
    out.metric("size_overhead_pct", 100.0 * mean(&size_growth));
    out.probe_program = Some(TARGETS[0]);
    out
}

/// The traced replay of one fetch through the layers the daemon's
/// request path composes: the suite lookup, the build, the ledger's map
/// recovery, the encoding, and the client's decode.
fn replay_fetch(tr: &Tracer, p: &Prog, strategy: &Strategy, seed: u64, out: &mut Outcome) {
    tr.time("workloads.by_name_ms", || pgsd_workloads::by_name(p.w.name));
    let config = BuildConfig::diversified(*strategy, seed);
    let image = match tr.time("core.build_ms", || p.session.build_with(&config)) {
        Ok(image) => image,
        Err(e) => return out.problem(format!("{} replay build: {e}", p.w.name)),
    };
    if tr
        .time("analysis.map_ms", || {
            check_images_mapped(&p.baseline, &image, &config.transforms())
        })
        .is_err()
    {
        out.problem(format!(
            "{}: map recovery rejected a served variant",
            p.w.name
        ));
    }
    let bytes = tr.time("cache.encode_ms", || encode_image(&image));
    if tr.time("cache.decode_ms", || decode_image(&bytes)).as_ref() != Ok(&image) {
        out.problem(format!(
            "{}: replayed payload does not decode to its image",
            p.w.name
        ));
    }
}
