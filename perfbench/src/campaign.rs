//! `campaign`: `engine::run(experiments::all())` at a reduced budget.
//! Set-up runs the campaign cold, each time into a fresh store
//! (simulate, publish, merge); the measured region reruns it warm
//! against the last of those stores (load, merge).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tvp_bench::engine::{self, EngineReport, RunOptions};
use tvp_bench::experiments::{self, ExpContext};
use tvp_bench::jobs::Job;
use tvp_bench::prepare_suite;
use tvp_bench::store::{LoadOutcome, ResultStore, StoreConfig};
use tvp_bench::telemetry::Telemetry;
use tvp_core::pipeline::Core;
use tvp_workloads::suite::suite;

use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::{fastest, median, quantile, Fnv};
use crate::{rounds, Ctx};

/// Architectural instructions per workload trace.
const INSTS: u64 = 2_000;

/// Engine worker threads: the host's two vCPUs, fixed so the work
/// split does not depend on the machine the benchmark lands on.
const WORKERS: usize = 2;

/// Cold campaigns in set-up; their median wall time is `setup_s`.
const COLD_RUNS: usize = 3;

/// One engine invocation's outputs.
struct Campaign {
    report: EngineReport,
    wall_s: f64,
    /// Every `results/*.json` file, by name.
    results: BTreeMap<String, Vec<u8>>,
}

/// Every regular file directly under `dir`, by name (empty if absent).
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir) else { return BTreeMap::new() };
    entries
        .map(|e| e.expect("read directory entry").path())
        .filter(|p| p.is_file())
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read file"))
        })
        .collect()
}

/// Runs the whole campaign with explicit options: every path lives
/// under `dir`, so no run touches the repository's `results/` or
/// telemetry file, and no `TVP_*` variable is consulted.
fn campaign(spans: &mut Spans, dir: &Path, store: &Path) -> Campaign {
    let results_dir = dir.join("results");
    let opts = RunOptions {
        workers: Some(WORKERS),
        insts: INSTS,
        smoke: false,
        progress: false,
        per_job: false,
        store_dir: Some(store.to_path_buf()),
        store_kill_after: None,
        results_dir: Some(results_dir.display().to_string()),
        telemetry_path: Some(dir.join("telemetry.json").display().to_string()),
    };
    let t = Instant::now();
    let report = spans.time("engine::run", || engine::run(&experiments::all(), &opts));
    let wall_s = t.elapsed().as_secs_f64();
    Campaign { report, wall_s, results: files(&results_dir) }
}

/// Enumerate plus store plus merge: the engine's total minus its
/// prepare and simulate phases, never negative.
fn rest(t: &Telemetry) -> Duration {
    rest_of(t.total_wall, t.prepare, t.sim_wall)
}

fn rest_of(total: Duration, prepare: Duration, sim: Duration) -> Duration {
    total.saturating_sub(prepare).saturating_sub(sim)
}

/// µops the campaign's simulated points retired (each job's CPI stack
/// credits one base slot per retired µop).
fn simulated_uops(t: &Telemetry) -> u64 {
    t.per_job.iter().map(|j| j.cpi.base).sum()
}

/// Checks one engine run: no failed job, merged results byte-identical
/// to the reference campaign's, nothing quarantined; a cold run
/// simulates the reference's points, a warm run loads every one of them
/// and simulates none.
fn check(c: &Campaign, warm: bool, reference: Option<&Campaign>) -> Vec<String> {
    let t = &c.report.telemetry;
    let mut problems = Vec::new();
    if !c.report.failures.is_empty() || !c.report.skipped.is_empty() || t.jobs_failed != 0 {
        problems.push(format!("{} failed job(s)", c.report.failures.len()));
    }
    if t.quarantined != 0 {
        problems.push(format!("{} blob(s) quarantined", t.quarantined));
    }
    let Some(reference) = reference else {
        if c.results.is_empty() || t.jobs_unique == 0 {
            problems.push("cold campaign produced no results".to_owned());
        }
        return problems;
    };
    let r = &reference.report.telemetry;
    if c.results.is_empty() || c.results != reference.results {
        problems.push("results/*.json differ from the reference campaign".to_owned());
    }
    if t.campaign_fingerprint != r.campaign_fingerprint {
        problems.push("campaign fingerprint differs".to_owned());
    }
    if warm && (t.store_warm_hits != r.jobs_unique || t.jobs_unique != 0) {
        problems.push(format!(
            "warm rerun loaded {} of {} points and simulated {}",
            t.store_warm_hits, r.jobs_unique, t.jobs_unique
        ));
    }
    if !warm && (t.jobs_unique != r.jobs_unique || simulated_uops(t) != simulated_uops(r)) {
        problems.push("cold campaign simulated different work".to_owned());
    }
    problems
}

pub fn run(ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::default();

    // Set-up: cold campaigns into fresh stores. The last one is the
    // reference every later run must reproduce byte for byte, and its
    // store is the one the warm reruns read.
    let mut cold_walls = Vec::new();
    let mut reference: Option<Campaign> = None;
    for i in 0..COLD_RUNS {
        let dir = ctx.tmp.join(format!("cold{i}"));
        let c = campaign(spans, &dir, &dir.join("store"));
        cold_walls.push(c.wall_s);
        report.op(&format!("campaign/cold{i}"), &check(&c, false, reference.as_ref()));
        if reference.replace(c).is_some() {
            let _ = std::fs::remove_dir_all(ctx.tmp.join(format!("cold{}", i - 1)));
        }
    }
    let reference = reference.expect("at least one cold campaign");
    let ref_store = ctx.tmp.join(format!("cold{}", COLD_RUNS - 1)).join("store");
    report.end_to_end.insert("setup_s", median(&cold_walls));
    let campaign_uops = simulated_uops(&reference.report.telemetry);

    // Measured rounds: warm reruns, each merging into its own results
    // directory. In the traced run, rounds alternate between spans on
    // and off so the difference gives the tracing overhead.
    let mut walls = [Vec::new(), Vec::new()];
    let mut warm = Vec::new();
    let n = rounds(ctx, 3, |r| {
        let traced_round = ctx.traced && r % 2 == 0;
        spans.set_enabled(traced_round);
        let dir = ctx.tmp.join(format!("warm{r}"));
        let c = campaign(spans, &dir, &ref_store);
        walls[usize::from(traced_round)].push(c.wall_s);
        report.op(&format!("campaign/warm{r}"), &check(&c, true, Some(&reference)));
        if traced_round {
            warm.push(c.report.telemetry);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    spans.set_enabled(ctx.traced);

    // uops_per_s: the campaign's simulated µops over the fastest warm
    // rerun, start to merged results. The cold wall time is setup_s.
    report.end_to_end.insert("uops_per_s", campaign_uops as f64 / fastest(&walls[0]));
    println!(
        "campaign_uops {campaign_uops}, cold wall {:.4} s (median), warm rerun {:.4} s (fastest)",
        median(&cold_walls),
        fastest(&walls[0])
    );

    let mut digest = Fnv::new();
    digest.u64(reference.report.telemetry.campaign_fingerprint);
    for (file, bytes) in reference.results.iter().chain(&files(&ref_store.join("blobs"))) {
        digest.bytes(file.as_bytes());
        digest.bytes(bytes);
    }
    println!(
        "sim_digest {:016x} (campaign fingerprint {:016x}, {} unique points, {n} rounds)",
        digest.finish(),
        reference.report.telemetry.campaign_fingerprint,
        reference.report.telemetry.jobs_unique
    );

    if ctx.traced {
        layers(ctx, spans, &mut report, &reference.report.telemetry, &ref_store, &warm);
        report.set("trace.overhead_share", fastest(&walls[1]) / fastest(&walls[0]) - 1.0);
    }
    report
}

/// Per-layer metrics of the traced run: the simulate-side layers from
/// the last cold campaign's telemetry, the engine phases from the
/// traced warm reruns, and the layers inside `engine::run` by calling
/// their public functions directly on the campaign's own inputs.
fn layers(
    ctx: &Ctx,
    spans: &mut Spans,
    report: &mut Report,
    cold: &Telemetry,
    ref_store: &Path,
    warm: &[Telemetry],
) {
    let med = |f: &dyn Fn(&Telemetry) -> f64| median(&warm.iter().map(f).collect::<Vec<_>>());
    report.set("bench.engine.prepare_s", med(&|t| t.prepare.as_secs_f64()));
    report.set("bench.engine.sim_wall_s", med(&|t| t.sim_wall.as_secs_f64()));
    report.set("bench.engine.rest_s", med(&|t| rest(t).as_secs_f64()));
    report.set("bench.store.warm_hits", warm[0].store_warm_hits as f64);
    let quarantined: u64 = warm.iter().map(|t| t.quarantined).sum::<u64>() + cold.quarantined;
    report.set("bench.store.quarantined", quarantined as f64);

    report.set("bench.cache.requested", cold.jobs_requested as f64);
    report.set("bench.cache.unique", cold.jobs_unique as f64);
    report.set("bench.cache.hit_rate", cold.cache_hit_rate);
    let jobs: Vec<f64> = cold.per_job.iter().map(|j| j.wall.as_secs_f64()).collect();
    report.set("bench.runner.job_p50_s", quantile(&jobs, 0.5));
    report.set("bench.runner.job_p95_s", quantile(&jobs, 0.95));
    let cpu_s = cold.cpu_time.as_secs_f64();
    report.set(
        "bench.runner.busy_share",
        cpu_s / (cold.workers as f64 * cold.sim_wall.as_secs_f64()),
    );
    report.set("bench.runner.retries", cold.retries as f64);
    let uops = simulated_uops(cold) as f64;
    report.set("core.sim_s", cpu_s);
    report.set("core.uops_retired", uops);
    report.set("core.cycles", cold.simulated_cycles as f64);
    report.set("core.host_ns_per_uop", cpu_s * 1e9 / uops);
    report.set("core.host_ns_per_cycle", cpu_s * 1e9 / cold.simulated_cycles as f64);
    report.set_cpi_shares(cold.per_job.iter().map(|j| &j.cpi));

    let ctx_exp =
        spans.time("prepare_suite", || ExpContext { insts: INSTS, prepared: prepare_suite(INSTS) });
    let mut jobs: BTreeMap<_, Job> = BTreeMap::new();
    for exp in experiments::all() {
        for job in exp.jobs(&ctx_exp) {
            jobs.entry(job.key.clone()).or_insert(job);
        }
    }
    drop(ctx_exp);
    let workloads = suite();
    for w in &workloads {
        let mut m = spans.time("Workload::machine", || w.machine());
        let _ = spans.time("Machine::run", || m.run(INSTS));
    }
    let gen = spans.agg("Machine::run");
    report.set("workloads.machine_build_s", spans.agg("Workload::machine").total_s);
    report.set("workloads.machine_builds", workloads.len() as f64);
    report.set("workloads.trace_gen_s", gen.total_s);
    report.set(
        "workloads.trace_gen_insts_per_s",
        (INSTS * workloads.len() as u64) as f64 / gen.total_s,
    );
    for job in jobs.values() {
        let _ = spans.time("Core::new", || Core::new(job.cfg.clone()));
    }
    report.set("core.new_s", spans.agg("Core::new").total_s);
    report.set("core.new_count", jobs.len() as f64);

    let mut store = ResultStore::open(StoreConfig::at(ref_store)).expect("open reference store");
    let mut points = Vec::with_capacity(jobs.len());
    for key in jobs.keys() {
        match spans.time("ResultStore::load", || store.load(key)) {
            LoadOutcome::Hit(point) => points.push((key, *point)),
            _ => {
                report.op("campaign/store-load", &[format!("{} did not load warm", key.display())])
            }
        }
    }
    let mut fresh = ResultStore::open(StoreConfig::at(ctx.tmp.join("publish-store")))
        .expect("open fresh store");
    for (key, point) in &points {
        spans.time("ResultStore::publish", || fresh.publish(key, point)).expect("publish blob");
    }
    let bytes: usize = files(&ref_store.join("blobs")).values().map(Vec::len).sum();
    report.set("bench.store.load_s", spans.agg("ResultStore::load").total_s);
    report.set("bench.store.publish_s", spans.agg("ResultStore::publish").total_s);
    report.set("bench.store.bytes", bytes as f64);
    for (metric, how) in [
        ("core.sim_s", "sum of the cold campaign's Telemetry.per_job wall times"),
        ("bench.runner.busy_share", "cold campaign's Telemetry"),
        ("bench.store.load_s", "direct ResultStore::load of every campaign key"),
        ("bench.store.publish_s", "direct ResultStore::publish of every campaign point"),
        ("workloads.machine_build_s", "direct Workload::machine for every suite workload"),
        ("workloads.trace_gen_s", "direct Machine::run for every suite workload"),
        ("core.new_s", "direct Core::new for every unique campaign point"),
    ] {
        report.labels.push((metric, how));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rest_is_never_negative() {
        let ms = Duration::from_millis;
        assert_eq!(rest_of(ms(100), ms(20), ms(30)), ms(50));
        assert_eq!(rest_of(ms(100), ms(70), ms(50)), Duration::ZERO);
        assert_eq!(rest_of(ms(10), ms(70), ms(0)), Duration::ZERO);
    }
}
