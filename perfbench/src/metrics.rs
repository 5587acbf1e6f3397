//! Metric names and units (mirrored in `BENCHMARK.json`), and the
//! per-run report printed as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tvp_obs::cpi::CpiStack;

pub const WORKLOADS: [&str; 4] = ["detailed", "memstall", "sampled", "campaign"];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("uops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.machine_build_s", "s"),
    ("workloads.machine_builds", "count"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.trace_gen_insts_per_s", "1/s"),
    ("workloads.fastforward_insts_per_s", "1/s"),
    ("core.sim_s", "s"),
    ("core.host_ns_per_uop", "ns"),
    ("core.host_ns_per_cycle", "ns"),
    ("core.new_s", "s"),
    ("core.new_count", "count"),
    ("core.functional_warm_s", "s"),
    ("core.functional_warm_insts", "count"),
    ("core.uops_retired", "count"),
    ("core.cycles", "count"),
    ("obs.cpi.base_share", "share"),
    ("obs.cpi.memory_share", "share"),
    ("obs.cpi.frontend_share", "share"),
    ("obs.cpi.flush_share", "share"),
    ("mem.l1d.misses", "count"),
    ("mem.l2.misses", "count"),
    ("mem.l3.misses", "count"),
    ("mem.stride_issued", "count"),
    ("mem.ampm_issued", "count"),
    ("vp.used", "count"),
    ("flush.branch_mispredicts", "count"),
    ("rename.spsr", "count"),
    ("bench.engine.prepare_s", "s"),
    ("bench.engine.sim_wall_s", "s"),
    ("bench.engine.rest_s", "s"),
    ("bench.cache.requested", "count"),
    ("bench.cache.unique", "count"),
    ("bench.cache.hit_rate", "share"),
    ("bench.store.publish_s", "s"),
    ("bench.store.load_s", "s"),
    ("bench.store.warm_hits", "count"),
    ("bench.store.quarantined", "count"),
    ("bench.store.bytes", "bytes"),
    ("bench.runner.job_p50_s", "s"),
    ("bench.runner.job_p95_s", "s"),
    ("bench.runner.busy_share", "share"),
    ("bench.runner.retries", "count"),
    ("bench.sampling.intervals", "count"),
    ("bench.sampling.detail_fraction", "share"),
    ("bench.sampling.measured_uops", "count"),
    ("bench.sampling.speedup_ci_pp", "pp"),
    ("trace.overhead_share", "share"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations run (simulation points, sampled runs, campaigns).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// How numbers no span could wrap were measured (span file only).
    pub labels: Vec<(&'static str, &'static str)>,
}

impl Report {
    /// Counts one operation; `problems` lists its failed checks.
    pub fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: CHECK FAILED in {what}: {p}");
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.layer.insert(name, value);
    }

    /// Sets the `obs.cpi.*` shares of the CPI stacks in `stacks`, summed.
    pub fn set_cpi_shares<'a>(&mut self, stacks: impl IntoIterator<Item = &'a CpiStack>) {
        let mut sum = CpiStack::default();
        for c in stacks {
            sum.base += c.base;
            sum.frontend += c.frontend;
            sum.branch_mispredict += c.branch_mispredict;
            sum.vp_mispredict_flush += c.vp_mispredict_flush;
            sum.memory += c.memory;
            sum.backend_structural += c.backend_structural;
        }
        self.set("obs.cpi.base_share", sum.fraction(sum.base));
        self.set("obs.cpi.memory_share", sum.fraction(sum.memory));
        self.set("obs.cpi.frontend_share", sum.fraction(sum.frontend));
        self.set(
            "obs.cpi.flush_share",
            sum.fraction(sum.branch_mispredict + sum.vp_mispredict_flush),
        );
    }

    /// The result line: every metric of the requested kind, in table
    /// order, with its unit.
    pub fn to_json(&self, traced: bool) -> String {
        let (table, values): (&[(&str, &str)], _) =
            if traced { (&PER_LAYER, &self.layer) } else { (&END_TO_END, &self.end_to_end) };
        let mut m = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = values.get(name).copied().unwrap_or_else(|| {
                assert!(traced, "end-to-end metric {name} was not measured");
                0.0
            });
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The list under `key` in `BENCHMARK.json`, one entry per object,
    /// with the string value of each of `fields`.
    fn section(json: &str, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\"")).expect("field present") + k.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            rest[open..open + rest[open..].find('"').expect("closed")].to_owned()
        };
        body.split('{').skip(1).map(|obj| fields.iter().map(|f| field(obj, f)).collect()).collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<Vec<String>> {
        table.iter().map(|(n, u)| vec![(*n).to_owned(), (*u).to_owned()]).collect()
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(section(json, "end_to_end", &["name", "unit"]), owned(&END_TO_END));
        assert_eq!(section(json, "per_layer", &["name", "unit"]), owned(&PER_LAYER));
        let workloads: Vec<Vec<String>> = WORKLOADS.iter().map(|w| vec![(*w).to_owned()]).collect();
        assert_eq!(section(json, "workloads", &["name"]), workloads);
    }

    #[test]
    fn result_line_prints_every_metric_of_its_kind() {
        let mut r = Report::default();
        r.op("p", &[]);
        for (name, _) in END_TO_END {
            r.end_to_end.insert(name, 1.5);
        }
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = r.to_json(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        r.op("q", &["broken".to_owned()]);
        assert!(r.to_json(false).contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
