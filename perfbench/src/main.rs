//! `perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <detailed|memstall|sampled|campaign>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (scratch files go under
//! `.perfbench_tmp/`, the traced run's spans under `.perfbench_out/`).
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The workloads,
//! the metrics and the reasons behind the run shapes are described in
//! `perfbench/README.md`.

mod campaign;
mod detailed;
mod metrics;
mod sampled;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use spans::Spans;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// Private scratch directory, removed when the run ends.
    pub tmp: PathBuf,
}

/// Set-up runs at least this many times and for at least
/// [`SETUP_MIN_S`]; the median repetition is reported as `setup_s`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 5.0;

/// Runs measured rounds until `ctx.seconds` have elapsed and at least
/// `min_rounds` have run. `round(i)` runs round `i`.
pub fn rounds(ctx: &Ctx, min_rounds: usize, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min_rounds || start.elapsed() < ctx.seconds {
        round(n);
        n += 1;
    }
    n
}

/// Repeats the set-up `f`; returns the last result, the median
/// repetition time and the number of repetitions.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, f64, usize) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), stats::median(&times), times.len())
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Removes the scratch directory however the run ends.
struct TmpGuard(PathBuf);

impl Drop for TmpGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    // The simulator reads a few `TVP_*` variables (trace ring, store,
    // budget, result paths). None may change the measured work, so the
    // benchmark drops every one of them before any thread starts.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("TVP_") {
            std::env::remove_var(&k);
        }
    }

    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seed = seed.unwrap_or_else(|| usage("--seed <u64> is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds <positive integer> is required"));
    let traced = traced.unwrap_or_else(|| usage("--trace <0|1> is required"));

    let tmp = PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create scratch directory");
    let guard = TmpGuard(tmp.clone());
    let ctx = Ctx { seed, seconds: Duration::from_secs(seconds), traced, tmp };
    let mut spans = Spans::new(traced);

    println!(
        "perfbench: workload {workload}, seed {seed}, {seconds} s, trace {}, {} host thread(s)",
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let mut report = match workload.as_str() {
        "detailed" => detailed::run(&ctx, &mut spans, &detailed::DETAILED),
        "memstall" => detailed::run(&ctx, &mut spans, &detailed::MEMSTALL),
        "sampled" => sampled::run(&ctx, &mut spans),
        "campaign" => campaign::run(&ctx, &mut spans),
        _ => unreachable!("workload validated above"),
    };
    report.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    drop(guard);

    if traced {
        let dir = PathBuf::from(".perfbench_out");
        std::fs::create_dir_all(&dir).expect("create span output directory");
        let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
        std::fs::write(&path, spans.to_json(&workload, seed, &report.labels))
            .expect("write span file");
        println!("spans written to {}", path.display());
    }
    println!("{}", report.to_json(traced));
}
