//! The correctness checks every run applies. Each compares a result with
//! an independent computation or a property of the method, never with a
//! stored copy of an earlier output, and returns a message naming what
//! differed.

use pgsd_analysis::AddrMap;
use pgsd_cache::artifact::{decode_image, encode_image};
use pgsd_cache::LedgerRecord;
use pgsd_cc::emit::Image;
use pgsd_core::RunOutcome;
use pgsd_fuzz::corpus::FuzzReport;
use pgsd_fuzz::FuzzConfig;
use pgsd_gadget::SurvivorReport;

use crate::stats::digest;

/// A baseline run must end as the program's reference kernel says.
pub fn matches_reference(out: &RunOutcome, expected: &(i32, Vec<i32>)) -> Result<(), String> {
    if out.status() != Some(expected.0) {
        return Err(format!(
            "baseline ended with {:?}, the reference kernel gives status {}",
            out.exit, expected.0
        ));
    }
    if out.stats.output != expected.1 {
        return Err(format!(
            "baseline printed {:?}, the reference kernel prints {:?}",
            out.stats.output, expected.1
        ));
    }
    Ok(())
}

/// A variant must exit with the baseline's status and print the same
/// words (the method's equivalence guarantee).
pub fn same_behaviour(baseline: &RunOutcome, variant: &RunOutcome) -> Result<(), String> {
    if variant.status().is_none() || variant.status() != baseline.status() {
        return Err(format!(
            "variant ended with {:?}, baseline with {:?}",
            variant.exit, baseline.exit
        ));
    }
    if variant.stats.output != baseline.stats.output {
        return Err("variant printed different words from the baseline".to_owned());
    }
    Ok(())
}

/// NOP insertion only adds bytes, and a variant cannot keep more of the
/// baseline's gadgets than the baseline has.
pub fn populated_variant(
    baseline_len: usize,
    variant_len: usize,
    report: &SurvivorReport,
) -> Result<(), String> {
    if variant_len < baseline_len {
        return Err(format!(
            "variant text {variant_len} B is shorter than the baseline's {baseline_len} B"
        ));
    }
    if report.count() > report.baseline {
        return Err(format!(
            "{} survivors exceed the baseline's {} gadgets",
            report.count(),
            report.baseline
        ));
    }
    Ok(())
}

/// A ledgered variant has a provenance record, made with the seed it was
/// built with, whose address map decodes and maps at least one function.
pub fn ledgered_variant(record: Option<&LedgerRecord>, seed: u64) -> Result<(), String> {
    let record = record.ok_or("variant has no ledger record")?;
    if record.seed != seed {
        return Err(format!(
            "ledger record {} has seed {}, the variant was built with {seed}",
            record.variant_id, record.seed
        ));
    }
    match AddrMap::decode(&record.addr_map) {
        Ok(map) if !map.funcs.is_empty() => Ok(()),
        Ok(_) => Err(format!(
            "ledger record {} maps no function",
            record.variant_id
        )),
        Err(e) => Err(format!(
            "address map of ledger record {} does not decode: {e}",
            record.variant_id
        )),
    }
}

/// A served payload (known by its digest) must be byte-identical to the
/// offline build of the same target, strategy and seed, and those bytes
/// must decode back to that image.
pub fn served_payload(served: (usize, u64), reference: &Image) -> Result<(), String> {
    let bytes = encode_image(reference);
    if digest(&bytes) != served {
        return Err(format!(
            "served payload ({} B) differs from the offline build ({} B)",
            served.0,
            bytes.len()
        ));
    }
    match decode_image(&bytes) {
        Ok(image) if image == *reference => Ok(()),
        Ok(_) => Err("payload decodes to a different image".to_owned()),
        Err(e) => Err(format!("payload does not decode: {e}")),
    }
}

/// A healthy fuzz session passes with no divergence, no static
/// rejection and no build error, and runs every case it was asked for.
pub fn fuzz_report(report: &FuzzReport, config: &FuzzConfig) -> Result<(), String> {
    let want = config.iters * config.transforms.len() as u64 * config.variants_per_set as u64;
    if !report.findings.is_empty()
        || report.divergences != 0
        || report.static_rejections != 0
        || report.build_errors != 0
    {
        return Err(format!(
            "fuzz seed {}: {} findings, {} divergences, {} static rejections, {} build errors",
            config.seed,
            report.findings.len(),
            report.divergences,
            report.static_rejections,
            report.build_errors
        ));
    }
    if report.programs != config.iters || report.cases != want {
        return Err(format!(
            "fuzz seed {}: {} programs and {} cases, expected {} and {want} \
             ({} skipped out of gas)",
            config.seed, report.programs, report.cases, config.iters, report.skipped_out_of_gas
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgsd_cache::Cache;
    use pgsd_core::driver::DEFAULT_GAS;
    use pgsd_core::{variant_id, BuildConfig, Input, Session, Strategy};
    use pgsd_emu::Exit;
    use pgsd_gadget::{survivor, ScanConfig};
    use pgsd_x86::nop::NopTable;

    const SRC: &str = "int main(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } \
                       if (s > 40) { print(s); } return s; }";

    fn session() -> Session {
        Session::from_source("t", SRC).threads(1)
    }

    #[test]
    fn reference_check_rejects_a_wrong_status_or_output() {
        let s = session();
        let out = s.build_and_run(&Input::args(&[10]), DEFAULT_GAS).unwrap();
        assert!(matches_reference(&out, &(45, vec![45])).is_ok());
        assert!(matches_reference(&out, &(46, vec![45])).is_err());
        assert!(matches_reference(&out, &(45, vec![])).is_err());
    }

    #[test]
    fn behaviour_check_rejects_a_wrong_status_output_or_fault() {
        let s = session();
        let base = s.build_and_run(&Input::args(&[10]), DEFAULT_GAS).unwrap();
        let variant = s
            .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 3))
            .unwrap();
        let mut out = s.run(&variant, &Input::args(&[10]), DEFAULT_GAS, "t");
        assert!(same_behaviour(&base, &out).is_ok());
        out.stats.output[0] ^= 1;
        assert!(same_behaviour(&base, &out).is_err());
        out.stats.output = base.stats.output.clone();
        out.exit = Exit::Exited(44);
        assert!(same_behaviour(&base, &out).is_err());
        out.exit = Exit::OutOfGas;
        assert!(same_behaviour(&base, &out).is_err());
    }

    #[test]
    fn populate_check_rejects_short_text_and_excess_survivors() {
        let s = session();
        let base = s.build().unwrap();
        let v = s
            .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 9))
            .unwrap();
        let report = survivor(
            &base.text,
            &v.text,
            &NopTable::new(),
            &ScanConfig::default(),
        );
        let (bl, vl) = (base.text.len(), v.text.len());
        assert!(populated_variant(bl, vl, &report).is_ok());
        assert!(populated_variant(bl, bl - 1, &report).is_err());
        let mut inflated = report.clone();
        inflated.survivors = (0..=report.baseline).collect();
        assert!(populated_variant(bl, vl, &inflated).is_err());
    }

    #[test]
    fn ledger_check_rejects_a_missing_record_wrong_seed_or_corrupt_map() {
        let cache = Cache::in_memory();
        let images = session()
            .cache(cache.clone())
            .ledger(true)
            .config(BuildConfig::diversified(Strategy::uniform(0.5), 21))
            .population(1)
            .unwrap();
        let record = cache.ledger_get(&variant_id(&images[0])).unwrap();
        assert!(ledgered_variant(Some(&record), 21).is_ok());
        assert!(ledgered_variant(None, 21).is_err());
        assert!(ledgered_variant(Some(&record), 22).is_err());
        let mut corrupt = record;
        corrupt.addr_map[4] ^= 1;
        assert!(ledgered_variant(Some(&corrupt), 21).is_err());
    }

    #[test]
    fn payload_check_rejects_a_flipped_byte() {
        let s = session();
        let v = s
            .build_with(&BuildConfig::diversified(Strategy::uniform(0.5), 4))
            .unwrap();
        let mut payload = encode_image(&v);
        assert!(served_payload(digest(&payload), &v).is_ok());
        let last = payload.len() - 1;
        payload[last] ^= 0x40;
        assert!(served_payload(digest(&payload), &v).is_err());
        payload.pop();
        assert!(served_payload(digest(&payload), &v).is_err());
    }

    #[test]
    fn fuzz_check_rejects_findings_and_missing_cases() {
        let config = FuzzConfig {
            iters: 1,
            seed: 11,
            threads: 1,
            ..FuzzConfig::default()
        };
        let report = pgsd_fuzz::fuzz(&config, None, &pgsd_telemetry::Telemetry::disabled())
            .expect("no corpus directory, no I/O");
        assert!(fuzz_report(&report, &config).is_ok());
        let mut bad = report.clone();
        bad.divergences = 1;
        assert!(fuzz_report(&bad, &config).is_err());
        let mut bad = report.clone();
        bad.static_rejections = 1;
        assert!(fuzz_report(&bad, &config).is_err());
        let mut bad = report.clone();
        bad.build_errors = 1;
        assert!(fuzz_report(&bad, &config).is_err());
        let mut bad = report;
        bad.cases -= 1;
        bad.skipped_out_of_gas = 1;
        assert!(fuzz_report(&bad, &config).is_err());
    }
}
