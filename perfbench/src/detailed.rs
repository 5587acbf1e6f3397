//! `detailed` and `memstall`: full cycle-level simulation through
//! `Core::run` of pre-generated traces, one thread, under the DSR
//! baseline and TVP+SpSR.

use std::time::Instant;

use tvp_bench::experiments::{baseline_cfg, vp_cfg};
use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::pipeline::Core;
use tvp_core::stats::SimStats;
use tvp_workloads::suite::by_name;
use tvp_workloads::trace::Trace;

use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::{fastest, Fnv, Rng};
use crate::{rounds, timed_setup, Ctx};

/// One detailed-simulation workload: kernels and trace length.
pub struct Shape {
    pub name: &'static str,
    pub kernels: &'static [&'static str],
    /// Architectural instructions per trace.
    pub insts: u64,
}

/// Compute-bound kernels (IPC 1.5-2.5): the issue, rename, VP and SpSR
/// paths of the core do most of the work.
pub const DETAILED: Shape = Shape {
    name: "detailed",
    kernels: &["image_filter", "pixel_encode", "expr_tree", "mc_playout"],
    insts: 200_000,
};

/// Stall-bound kernels: most cycles have nothing to retire, so the
/// cost of an empty cycle dominates.
pub const MEMSTALL: Shape = Shape {
    name: "memstall",
    kernels: &["sparse_graph", "climate_ocean", "pointer_chase"],
    insts: 100_000,
};

/// Registry counters reported as per-layer work counts.
const COUNTERS: [&str; 8] = [
    "mem.l1d.misses",
    "mem.l2.misses",
    "mem.l3.misses",
    "mem.stride_issued",
    "mem.ampm_issued",
    "vp.used",
    "flush.branch_mispredicts",
    "rename.spsr",
];

/// The two configurations every workload compares.
pub fn configs() -> [(&'static str, CoreConfig); 2] {
    [("base", baseline_cfg()), ("tvp_spsr", vp_cfg(VpMode::Tvp, true))]
}

struct Point {
    kernel: usize,
    cfg_name: &'static str,
    cfg: CoreConfig,
    times: Vec<f64>,
    /// Round-0 output every later round must reproduce.
    first: Option<(SimStats, u64)>,
}

/// Simulates one point: `Core::new` + `Core::run`, timed.
fn simulate(spans: &mut Spans, cfg: &CoreConfig, trace: &Trace) -> (Core, SimStats, f64) {
    let t = Instant::now();
    let mut core = spans.time("Core::new", || Core::new(cfg.clone()));
    let stats = spans.time("Core::run", || core.run(std::hint::black_box(trace)));
    (core, stats, t.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx, spans: &mut Spans, shape: &Shape) -> Report {
    let mut report = Report::default();

    // Set-up: build each kernel's machine and generate its trace.
    let (traces, setup_s, reps) = timed_setup(|| {
        shape
            .kernels
            .iter()
            .map(|name| {
                let w = by_name(name).expect("kernel is in the suite");
                let mut m = spans.time("Workload::machine", || w.machine());
                spans.time("Machine::run", || m.run(shape.insts))
            })
            .collect::<Vec<Trace>>()
    });
    report.end_to_end.insert("setup_s", setup_s);

    let mut points: Vec<Point> = (0..shape.kernels.len())
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

    // Measured rounds. Each round runs every point once in a seeded
    // order, so a slow host phase slows all points alike. In the
    // traced run, rounds alternate between spans on and off so the
    // difference gives the tracing overhead.
    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut round_s = [Vec::new(), Vec::new()];
    let mut cpi = Vec::new();
    let mut counters = [0u64; COUNTERS.len()];
    let n = rounds(ctx, 3, |r| {
        rng.shuffle(&mut order);
        let traced_round = ctx.traced && r % 2 == 0;
        spans.set_enabled(traced_round);
        let mut sum = 0.0;
        for &i in &order {
            let p = &mut points[i];
            let trace = &traces[p.kernel];
            let (core, stats, dt) = simulate(spans, &p.cfg, trace);
            sum += dt;
            p.times.push(dt);
            let fp = core.commit_fingerprint();
            let mut problems = Vec::new();
            if stats.uops_retired != trace.uops.len() as u64 {
                problems.push(format!(
                    "retired {} of {} µops",
                    stats.uops_retired,
                    trace.uops.len()
                ));
            }
            if let Some(d) = core.watchdog_diagnostic() {
                problems.push(format!("watchdog: {d:?}"));
            }
            match &p.first {
                None => {
                    p.first = Some((stats, fp));
                    if ctx.traced {
                        cpi.push(spans.time("Core::cpi_stack", || core.cpi_stack()));
                        let reg = spans.time("Core::export_registry", || core.export_registry());
                        for (slot, name) in counters.iter_mut().zip(COUNTERS) {
                            *slot += reg
                                .counters()
                                .iter()
                                .find(|(n, _)| n == name)
                                .map_or(0, |(_, v)| *v);
                        }
                    }
                }
                Some(first) if *first != (stats, fp) => {
                    problems.push("output differs from round 0".to_owned());
                }
                Some(_) => {}
            }
            let what = format!("{}/{}/{}", shape.name, shape.kernels[p.kernel], p.cfg_name);
            report.op(&what, &problems);
        }
        round_s[usize::from(traced_round)].push(sum);
    });
    spans.set_enabled(ctx.traced);

    // uops_per_s: a round's µops over the sum of each point's fastest
    // repetition. Co-tenants' cache and memory traffic stretch single
    // repetitions by up to 2x (README.md, "Host noise"); the fastest
    // one is the point's own cost.
    let uops: u64 = points.iter().map(|p| traces[p.kernel].uops.len() as u64).sum();
    let best_round_s: f64 = points.iter().map(|p| fastest(&p.times)).sum();
    report.end_to_end.insert("uops_per_s", uops as f64 / best_round_s);

    let mut digest = Fnv::new();
    let mut cycles = 0;
    for p in &points {
        let (stats, fp) = p.first.as_ref().expect("every point ran");
        digest.u64(*fp);
        digest.bytes(format!("{stats:?}").as_bytes());
        cycles += stats.cycles;
    }
    println!("sim_digest {:016x} ({} points, {n} rounds)", digest.finish(), points.len());

    if ctx.traced {
        let traced_rounds = round_s[1].len() as f64;
        let kernels = shape.kernels.len() as f64;
        let reps = reps as f64;
        let build = spans.agg("Workload::machine");
        let gen = spans.agg("Machine::run");
        report.set("workloads.machine_build_s", build.total_s / reps);
        report.set("workloads.machine_builds", kernels);
        report.set("workloads.trace_gen_s", gen.self_s / reps);
        report.set(
            "workloads.trace_gen_insts_per_s",
            shape.insts as f64 * kernels * reps / gen.self_s,
        );
        let sim_s = spans.agg("Core::run").total_s / traced_rounds;
        report.set("core.sim_s", sim_s);
        report.set("core.host_ns_per_uop", sim_s * 1e9 / uops as f64);
        report.set("core.host_ns_per_cycle", sim_s * 1e9 / cycles as f64);
        report.set("core.new_s", spans.agg("Core::new").total_s / traced_rounds);
        report.set("core.new_count", points.len() as f64);
        report.set("core.uops_retired", uops as f64);
        report.set("core.cycles", cycles as f64);
        report.set_cpi_shares(&cpi);
        for (name, v) in COUNTERS.into_iter().zip(counters) {
            report.set(name, v as f64);
        }
        report.set("trace.overhead_share", fastest(&round_s[1]) / fastest(&round_s[0]) - 1.0);
    }
    report
}
