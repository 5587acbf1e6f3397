//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the simulator's public
//! API (no probes live inside the program). Each span has a name, a
//! start, an end and the span that was open when it began. When
//! recording is off, `enter` and `exit` cost one branch each.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Per-name aggregate of recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Spans::enter`].
#[must_use = "every entered span must be exited"]
pub struct Open(usize);

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Turns recording on or off (between rounds, never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(open.0), "spans must nest");
        self.spans[open.0].end = self.t0.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Count, total and self time of every span called `name`. Self
    /// time is a span's duration minus the time its children cover.
    pub fn agg(&self, name: &str) -> Agg {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end - s.start;
            }
        }
        let mut a = Agg::default();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            a.count += 1;
            a.total_s += s.end - s.start;
            a.self_s += s.end - s.start - child_s[i];
        }
        a
    }

    /// Every span plus a per-name self-time table, as JSON. `labels`
    /// records how numbers that no span could wrap were measured.
    pub fn to_json(&self, workload: &str, seed: u64, labels: &[(&str, &str)]) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"labels\":{{");
        for (i, (k, v)) in labels.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":\"{v}\"");
        }
        out.push_str("},\"self_times\":[");
        for (i, name) in names.iter().enumerate() {
            let a = self.agg(name);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{name}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                a.count, a.total_s, a.self_s
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_spans_record_nothing() {
        let mut sp = Spans::new(true);
        let outer = sp.enter("outer");
        sp.time("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        sp.exit(outer);
        let (o, i) = (sp.agg("outer"), sp.agg("inner"));
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.total_s >= 0.02);
        assert!(o.total_s >= i.total_s);
        assert!((o.self_s - (o.total_s - i.total_s)).abs() < 1e-12);
        assert!(sp.to_json("w", 1, &[]).contains("\"parent\":0"));

        let mut off = Spans::new(false);
        off.time("inner", || ());
        assert_eq!(off.agg("inner").count, 0);
    }
}
