//! `sampled`: `sampling::run_sampled` over long instruction streams,
//! DSR baseline and TVP+SpSR on the same spec (paired intervals), no
//! store. Fast-forward does most of the work; the core simulates only
//! the short detailed windows.

use std::time::Instant;

use tvp_bench::sampling::{run_sampled, SampleRunOptions, SampleSpec, SampledRun};
use tvp_bench::sampling::{FUNCTIONAL_WARMING_CAP, FUNCTIONAL_WARMING_CHUNK};
use tvp_core::pipeline::Core;
use tvp_workloads::stream::TraceSource;
use tvp_workloads::suite::{by_name, Workload};
use tvp_workloads::trace::Trace;

use crate::detailed::configs;
use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::{fastest, paired_speedup_ci_pp, Fnv, Rng};
use crate::{rounds, timed_setup, Ctx};

const KERNELS: [&str; 3] = ["mc_playout", "image_filter", "pointer_chase"];

/// Architectural instructions per stream (a whole number of periods).
const INSTS: u64 = 4_000_000;

/// Period, warmup and measured instructions per interval. The period
/// is several times the functional-warming cap, so most of each period
/// is raw fast-forward.
const SPEC: (u64, u64, u64) = (400_000, 10_000, 10_000);

fn spec() -> SampleSpec {
    SampleSpec::new(SPEC.0, SPEC.1, SPEC.2).expect("valid sampling spec")
}

struct Point {
    kernel: usize,
    cfg_name: &'static str,
    cfg: tvp_core::config::CoreConfig,
    times: Vec<f64>,
    first: Option<SampledRun>,
}

/// Replays `run_sampled`'s stream schedule for one point, calling the
/// layers it hides directly: `MachineSource::skip` over the same skip
/// lengths, and `Core::functional_warm` over the same warming chunks on
/// a fresh core per interval. Detailed windows are filled but not
/// simulated. Returns (raw skipped, functionally warmed) instructions.
fn replay(spans: &mut Spans, w: &Workload, cfg: &tvp_core::config::CoreConfig) -> (u64, u64) {
    let (period, warmup, measured) = SPEC;
    let skip = period - warmup - measured;
    let fwarm = skip.min(FUNCTIONAL_WARMING_CAP);
    let mut source = spans.time("Workload::source", || w.source());
    let (mut skipped, mut warmed) = (0, 0);
    let mut chunk = Trace::default();
    for _ in 0..INSTS / period {
        let mut core = spans.time("Core::new", || Core::new(cfg.clone()));
        skipped += spans.time("MachineSource::skip", || {
            source.skip(skip - fwarm).expect("machine source cannot fail")
        });
        let mut done = 0;
        while done < fwarm {
            chunk.uops.clear();
            chunk.arch_insts = 0;
            let want = (fwarm - done).min(FUNCTIONAL_WARMING_CHUNK);
            done += source.fill(want, &mut chunk).expect("machine source cannot fail");
            spans.time("Core::functional_warm", || core.functional_warm(&chunk));
        }
        warmed += done;
        chunk.uops.clear();
        source.fill(warmup + measured, &mut chunk).expect("machine source cannot fail");
    }
    (skipped, warmed)
}

pub fn run(ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let spec = spec();

    // Set-up: resolve the kernels and run one untimed period of each
    // point, so allocator and page-cache warm-up stay out of the
    // measured rounds.
    let (workloads, setup_s, _) = timed_setup(|| {
        let ws: Vec<Workload> =
            KERNELS.iter().map(|k| by_name(k).expect("kernel is in the suite")).collect();
        for w in &ws {
            for (_, cfg) in configs() {
                let _ = run_sampled(w, &cfg, spec.period, spec, SampleRunOptions::default());
            }
        }
        ws
    });
    report.end_to_end.insert("setup_s", setup_s);

    let mut points: Vec<Point> = (0..KERNELS.len())
        .flat_map(|kernel| {
            configs().into_iter().map(move |(cfg_name, cfg)| Point {
                kernel,
                cfg_name,
                cfg,
                times: Vec::new(),
                first: None,
            })
        })
        .collect();

    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut round_s = [Vec::new(), Vec::new()];
    let n = rounds(ctx, 3, |r| {
        rng.shuffle(&mut order);
        let traced_round = ctx.traced && r % 2 == 0;
        spans.set_enabled(traced_round);
        let mut sum = 0.0;
        for &i in &order {
            let p = &mut points[i];
            let w = &workloads[p.kernel];
            let t = Instant::now();
            let run = spans.time("sampling::run_sampled", || {
                run_sampled(w, &p.cfg, INSTS, spec, SampleRunOptions::default())
            });
            let dt = t.elapsed().as_secs_f64();
            sum += dt;
            p.times.push(dt);
            let mut problems = Vec::new();
            if run.halted || run.total_insts != INSTS {
                problems.push(format!("halted after {} of {INSTS} insts", run.total_insts));
            }
            match &p.first {
                None => p.first = Some(run),
                Some(first) if *first != run => {
                    problems.push("output differs from round 0".to_owned());
                }
                Some(_) => {}
            }
            report.op(&format!("sampled/{}/{}", KERNELS[p.kernel], p.cfg_name), &problems);
        }
        round_s[usize::from(traced_round)].push(sum);
    });
    spans.set_enabled(ctx.traced);

    // Pairing check, the paired speedup interval of each kernel, and
    // the digest, all from this workload's own round-0 runs.
    let runs: Vec<&SampledRun> =
        points.iter().map(|p| p.first.as_ref().expect("every point ran")).collect();
    let mut worst_ci = 0.0f64;
    for (k, kernel) in KERNELS.iter().enumerate() {
        let (base, tvp) = (runs[2 * k], runs[2 * k + 1]);
        let starts = |r: &SampledRun| r.intervals.iter().map(|iv| iv.start_seq).collect::<Vec<_>>();
        let mut problems = Vec::new();
        if starts(base) != starts(tvp) {
            problems.push("base and tvp_spsr intervals start at different µops".to_owned());
        }
        report.op(&format!("sampled/{kernel}/pairing"), &problems);
        let cycles =
            |r: &SampledRun| r.intervals.iter().map(|iv| iv.stats.cycles).collect::<Vec<_>>();
        let ci = paired_speedup_ci_pp(&cycles(base), &cycles(tvp));
        println!("speedup_ci_pp {kernel} {ci:.4}");
        worst_ci = worst_ci.max(ci);
    }
    println!("speedup_ci_pp worst {worst_ci:.4}");

    // uops_per_s: µops the streams stand for (the weighted estimate
    // over every interval, fast-forwarded parts included) over the sum
    // of each point's fastest repetition.
    let represented: f64 = runs.iter().map(|r| r.estimate().uops).sum();
    let best_round_s: f64 = points.iter().map(|p| fastest(&p.times)).sum();
    report.end_to_end.insert("uops_per_s", represented / best_round_s);

    let mut digest = Fnv::new();
    for r in &runs {
        digest.u64(r.fingerprint());
        for iv in &r.intervals {
            digest.u64(iv.fingerprint);
            digest.bytes(format!("{:?}", iv.stats).as_bytes());
        }
    }
    println!("sim_digest {:016x} ({} points, {n} rounds)", digest.finish(), points.len());

    if ctx.traced {
        let intervals: usize = runs.iter().map(|r| r.intervals.len()).sum();
        let total: u64 = runs.iter().map(|r| r.total_insts).sum();
        let detailed: u64 = runs.iter().map(|r| r.warmup_insts + r.measured_insts).sum();
        let sum = |f: &dyn Fn(&tvp_bench::sampling::IntervalResult) -> u64| -> f64 {
            runs.iter().flat_map(|r| &r.intervals).map(f).sum::<u64>() as f64
        };
        report.set("bench.sampling.intervals", intervals as f64);
        report.set("bench.sampling.detail_fraction", detailed as f64 / total as f64);
        report.set("bench.sampling.measured_uops", sum(&|iv| iv.measured_uops));
        report.set("bench.sampling.speedup_ci_pp", worst_ci);
        report.set("core.uops_retired", sum(&|iv| iv.stats.uops_retired));
        report.set("core.cycles", sum(&|iv| iv.stats.cycles));
        report.set("vp.used", sum(&|iv| iv.stats.vp.used));
        report.set("flush.branch_mispredicts", sum(&|iv| iv.stats.flush.branch_mispredicts));
        report.set("rename.spsr", sum(&|iv| iv.stats.rename.spsr));
        report.set("core.new_count", intervals as f64);
        report.set("workloads.machine_builds", points.len() as f64);
        report.set("trace.overhead_share", fastest(&round_s[1]) / fastest(&round_s[0]) - 1.0);

        // Layers hidden inside run_sampled, measured by replaying its
        // schedule once per point.
        let (mut skipped, mut warmed) = (0, 0);
        for p in &points {
            let (s, w) = replay(spans, &workloads[p.kernel], &p.cfg);
            skipped += s;
            warmed += w;
        }
        let ff = spans.agg("MachineSource::skip");
        report.set("workloads.fastforward_insts_per_s", skipped as f64 / ff.total_s);
        report.set("workloads.machine_build_s", spans.agg("Workload::source").total_s);
        report.set("core.functional_warm_s", spans.agg("Core::functional_warm").total_s);
        report.set("core.functional_warm_insts", warmed as f64);
        report.set("core.new_s", spans.agg("Core::new").total_s);
        report.labels.push((
            "workloads.fastforward_insts_per_s",
            "direct MachineSource::skip replay of run_sampled's skip lengths",
        ));
        report.labels.push((
            "core.functional_warm_s",
            "direct Core::functional_warm replay of run_sampled's warming chunks",
        ));
        report.labels.push(("core.new_s", "direct Core::new, one per replayed interval"));
        report.labels.push(("workloads.machine_build_s", "direct Workload::source per point"));
    }
    report
}
