//! Prometheus text exposition (version 0.0.4): deterministic rendering of
//! one or more [`Registry`] instances, and a parser for the same format so
//! scrapers (perfbench, the `/metrics` tests) can read it back without
//! an external client library.
//!
//! Rendering is deterministic by construction: entries sort by
//! `(name, labels)`, `# HELP` / `# TYPE` appear exactly once per family,
//! histogram bucket lines appear only for buckets that hold data (plus the
//! mandatory `+Inf`), and all numbers format through `Display` (fixed
//! notation, shortest round-trip). Two registries holding equal values
//! therefore render byte-identical bodies; the unit tests below pin that
//! determinism.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::metrics::{bucket_bounds, Histogram};
use crate::registry::{Entry, Metric, Registry};

/// Content-Type for the rendered exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Renders `registries` merged into one exposition body. Families with the
/// same name across registries merge into one `HELP`/`TYPE` block.
pub fn render(registries: &[&Registry]) -> String {
    let mut entries: Vec<Arc<Entry>> = Vec::new();
    for reg in registries {
        entries.extend(reg.entries());
    }
    entries.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));

    let mut out = String::new();
    let mut prev_family: Option<&str> = None;
    for entry in &entries {
        if prev_family != Some(entry.name) {
            let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
            let _ = writeln!(out, "# TYPE {} {}", entry.name, entry.metric.type_name());
            prev_family = Some(entry.name);
        }
        match &entry.metric {
            Metric::Counter(c) => {
                sample_line(
                    &mut out,
                    entry.name,
                    &entry.labels,
                    &[],
                    &c.get().to_string(),
                );
            }
            Metric::CounterFn(f) => {
                sample_line(&mut out, entry.name, &entry.labels, &[], &f().to_string());
            }
            Metric::Gauge(g) => {
                sample_line(
                    &mut out,
                    entry.name,
                    &entry.labels,
                    &[],
                    &g.get().to_string(),
                );
            }
            Metric::GaugeFn(f) => {
                sample_line(&mut out, entry.name, &entry.labels, &[], &f().to_string());
            }
            Metric::Histogram(h) => render_histogram(&mut out, entry, h),
        }
    }
    out
}

fn render_histogram(out: &mut String, entry: &Entry, h: &Histogram) {
    let snap = h.snapshot();
    let total = snap.count();
    let mut cumulative = 0u64;
    let bucket_name = format!("{}_bucket", entry.name);
    for (idx, &c) in snap.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let (_, hi) = bucket_bounds(idx);
        let le = (hi as f64 / 1e9).to_string();
        sample_line(
            out,
            &bucket_name,
            &entry.labels,
            &[("le", &le)],
            &cumulative.to_string(),
        );
    }
    sample_line(
        out,
        &bucket_name,
        &entry.labels,
        &[("le", "+Inf")],
        &total.to_string(),
    );
    let sum = (snap.sum_ns() as f64 / 1e9).to_string();
    sample_line(
        out,
        &format!("{}_sum", entry.name),
        &entry.labels,
        &[],
        &sum,
    );
    sample_line(
        out,
        &format!("{}_count", entry.name),
        &entry.labels,
        &[],
        &total.to_string(),
    );
}

fn sample_line(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name (`family`, `family_bucket`, `family_sum`, ...).
    pub name: String,
    /// Label pairs in source order, including `le` on bucket lines.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` parses as `f64::INFINITY`).
    pub value: f64,
}

/// A parsed exposition body.
#[derive(Debug, Default)]
pub struct Scrape {
    /// All sample lines in source order.
    pub samples: Vec<Sample>,
    /// `(family, text)` for each `# HELP` line, in source order.
    pub helps: Vec<(String, String)>,
    /// `(family, type)` for each `# TYPE` line, in source order.
    pub types: Vec<(String, String)>,
}

impl Scrape {
    /// Parses an exposition body. Returns `Err` with the offending line on
    /// anything malformed.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut scrape = Scrape::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                scrape.helps.push((name.to_string(), help.to_string()));
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, ty) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad TYPE line: {line}"))?;
                scrape.types.push((name.to_string(), ty.to_string()));
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            scrape.samples.push(parse_sample(line)?);
        }
        Ok(scrape)
    }

    /// Value of the series `(name, labels)` with exact label match.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels.iter())
                        .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
            })
            .map(|s| s.value)
    }

    /// Estimated `q`-quantile in **seconds** of the scraped histogram
    /// `name` with label set `labels` (excluding `le`), reconstructed from
    /// its cumulative bucket lines. The estimate is the upper bound of the
    /// bucket holding the requested rank, so it is conservative: at most
    /// one bucket width (≤ 12.5% relative) above the true value. Returns
    /// `None` when the histogram is absent or empty, and `None` when all
    /// mass sits in the `+Inf` bucket (no finite upper bound exists —
    /// reporting 0.0 there would under-state an over-range latency).
    /// `q` outside `[0, 1]` clamps to the extreme ranks.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        let bucket_name = format!("{name}_bucket");
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for s in &self.samples {
            if s.name != bucket_name {
                continue;
            }
            let mut le = None;
            let mut rest: Vec<(&str, &str)> = Vec::new();
            for (k, v) in &s.labels {
                if k == "le" {
                    le = Some(v.as_str());
                } else {
                    rest.push((k.as_str(), v.as_str()));
                }
            }
            let matches = rest.len() == labels.len()
                && rest
                    .iter()
                    .zip(labels.iter())
                    .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv);
            if !matches {
                continue;
            }
            let le = match le? {
                "+Inf" => f64::INFINITY,
                v => v.parse().ok()?,
            };
            buckets.push((le, s.value));
        }
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total = buckets.last().map(|&(_, c)| c)?;
        if total <= 0.0 {
            return None;
        }
        let rank = (q * total).ceil().clamp(1.0, total);
        let mut best_finite = None;
        for &(le, cum) in &buckets {
            if le.is_finite() {
                best_finite = Some(le);
            }
            if cum >= rank {
                // Rank falls in +Inf: fall back to the largest finite
                // bound, or admit there is none.
                return if le.is_finite() {
                    Some(le)
                } else {
                    best_finite
                };
            }
        }
        best_finite
    }
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let bad = || format!("bad sample line: {line}");
    let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().map_err(|_| bad())?,
    };
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').ok_or_else(bad)?;
            let mut labels = Vec::new();
            let mut chars = body.chars().peekable();
            while chars.peek().is_some() {
                let mut key = String::new();
                for c in chars.by_ref() {
                    if c == '=' {
                        break;
                    }
                    key.push(c);
                }
                if chars.next() != Some('"') {
                    return Err(bad());
                }
                let mut val = String::new();
                loop {
                    match chars.next().ok_or_else(bad)? {
                        '"' => break,
                        '\\' => match chars.next().ok_or_else(bad)? {
                            'n' => val.push('\n'),
                            c => val.push(c),
                        },
                        c => val.push(c),
                    }
                }
                if let Some(&',') = chars.peek() {
                    chars.next();
                }
                labels.push((key, val));
            }
            (name.to_string(), labels)
        }
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Exposition-format lint used by tests and the smoke harness: every
/// family has at most one `HELP` and one `TYPE` line, every `TYPE` names a
/// known type, and no sample line repeats an exact series. Returns the
/// first violation.
pub fn lint(text: &str) -> Result<(), String> {
    let scrape = Scrape::parse(text)?;
    for meta in [&scrape.helps, &scrape.types] {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in meta {
            if !seen.insert(name.clone()) {
                return Err(format!("duplicate HELP/TYPE for family {name}"));
            }
        }
    }
    for (_, ty) in &scrape.types {
        if !matches!(ty.as_str(), "counter" | "gauge" | "histogram") {
            return Err(format!("unknown TYPE {ty}"));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for s in &scrape.samples {
        let key = format!("{}|{:?}", s.name, s.labels);
        if !seen.insert(key) {
            return Err(format!("duplicate series {}", s.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn render_parse_roundtrip_and_lint() {
        let reg = Registry::new();
        reg.counter("a_total", "events").add(3);
        reg.gauge_with("b", &[("kind", "x")], "depth").set(-2);
        let h = reg.histogram("lat_seconds", "latency");
        h.record(100);
        h.record(2_000);
        let text = render(&[&reg]);
        lint(&text).expect("rendered exposition must pass its own lint");
        let scrape = Scrape::parse(&text).unwrap();
        assert_eq!(scrape.value("a_total", &[]), Some(3.0));
        assert_eq!(scrape.value("b", &[("kind", "x")]), Some(-2.0));
        assert_eq!(scrape.value("lat_seconds_count", &[]), Some(2.0));
        assert_eq!(
            scrape.value("lat_seconds_bucket", &[("le", "+Inf")]),
            Some(2.0)
        );
        let p50 = scrape.histogram_quantile("lat_seconds", &[], 0.5).unwrap();
        assert!((5e-8..2e-7).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn families_render_once_and_in_sorted_order() {
        let reg = Registry::new();
        reg.counter_with("f_total", &[("site", "b")], "f").inc();
        reg.counter_with("f_total", &[("site", "a")], "f").inc();
        reg.counter("e_total", "e");
        let text = render(&[&reg]);
        let helps: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP")).collect();
        assert_eq!(helps, ["# HELP e_total e", "# HELP f_total f"]);
        let a = text.find("site=\"a\"").unwrap();
        let b = text.find("site=\"b\"").unwrap();
        assert!(a < b, "series sort by labels inside a family");
        // Determinism: rendering twice is byte-identical.
        assert_eq!(text, render(&[&reg]));
    }

    #[test]
    fn empty_histograms_render_compact_and_identical() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.histogram("h_seconds", "h");
        r2.histogram("h_seconds", "h");
        assert_eq!(render(&[&r1]), render(&[&r2]));
        assert!(render(&[&r1]).contains("h_seconds_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn histogram_quantile_of_empty_or_absent_histogram_is_none() {
        let text = "\
# TYPE h_seconds histogram
h_seconds_bucket{le=\"0.5\"} 0
h_seconds_bucket{le=\"+Inf\"} 0
h_seconds_sum 0
h_seconds_count 0
";
        let scrape = Scrape::parse(text).unwrap();
        assert_eq!(scrape.histogram_quantile("h_seconds", &[], 0.5), None);
        assert_eq!(scrape.histogram_quantile("missing_seconds", &[], 0.5), None);
    }

    #[test]
    fn histogram_quantile_with_all_mass_in_inf_bucket_is_none() {
        // Every observation exceeded the largest finite bound: there is
        // no finite upper estimate, and 0.0 would be a lie.
        let text = "\
# TYPE h_seconds histogram
h_seconds_bucket{le=\"+Inf\"} 5
h_seconds_sum 50
h_seconds_count 5
";
        let scrape = Scrape::parse(text).unwrap();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(
                scrape.histogram_quantile("h_seconds", &[], q),
                None,
                "q={q}"
            );
        }
    }

    #[test]
    fn histogram_quantile_single_finite_bucket_answers_every_quantile() {
        let text = "\
# TYPE h_seconds histogram
h_seconds_bucket{le=\"0.25\"} 7
h_seconds_bucket{le=\"+Inf\"} 7
h_seconds_sum 1
h_seconds_count 7
";
        let scrape = Scrape::parse(text).unwrap();
        for q in [0.0, 0.01, 0.5, 0.999, 1.0] {
            assert_eq!(
                scrape.histogram_quantile("h_seconds", &[], q),
                Some(0.25),
                "q={q}"
            );
        }
    }

    #[test]
    fn histogram_quantile_clamps_extreme_quantiles_to_extreme_ranks() {
        let text = "\
# TYPE h_seconds histogram
h_seconds_bucket{le=\"0.1\"} 2
h_seconds_bucket{le=\"0.2\"} 3
h_seconds_bucket{le=\"0.4\"} 9
h_seconds_bucket{le=\"+Inf\"} 10
h_seconds_sum 3
h_seconds_count 10
";
        let scrape = Scrape::parse(text).unwrap();
        // q=0.0 clamps to rank 1 → first non-empty bucket; q=1.0 is rank
        // 10, which falls in +Inf → the largest finite bound. Values
        // outside [0, 1] clamp the same way instead of panicking.
        assert_eq!(scrape.histogram_quantile("h_seconds", &[], 0.0), Some(0.1));
        assert_eq!(scrape.histogram_quantile("h_seconds", &[], -3.0), Some(0.1));
        assert_eq!(scrape.histogram_quantile("h_seconds", &[], 1.0), Some(0.4));
        assert_eq!(scrape.histogram_quantile("h_seconds", &[], 7.5), Some(0.4));
        // Interior sanity: rank 5 (q=0.5) lands in the 0.4 bucket.
        assert_eq!(scrape.histogram_quantile("h_seconds", &[], 0.5), Some(0.4));
    }
}
