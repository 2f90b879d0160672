//! Job records, the end-to-end metrics computed from them, and the
//! result line.

use retime_serve::json::{obj, Json};

use crate::stats::{geomean_of_class_medians, median, tail};

/// One timed public call (batch) or request (serve).
#[derive(Debug, Clone)]
pub struct Job {
    /// Latency class: `circuit/flow/c` for batch jobs, the request kind
    /// for serve requests.
    pub class: String,
    /// Reused earlier state: a warm slot (batch, `c` after the first of
    /// the sweep) or a cache entry (serve).
    pub hit: bool,
    /// Call (batch) or submit→result (serve) latency, seconds.
    pub latency_s: f64,
    /// Whether every output check passed.
    pub ok: bool,
}

/// One round of a workload: a fixed, seeded list of jobs run back to
/// back. Batch rounds are one pass over the suite.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time the round's timed jobs cover, seconds.
    pub wall_s: f64,
    /// Its jobs, in run order.
    pub jobs: Vec<Job>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What every workload reports besides its rounds.
#[derive(Debug, Clone, Copy)]
pub struct RunFacts {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Mean G-RAR sequential-area improvement over base, percent.
    pub grar_impr_pct: f64,
    /// Serve latency limit for goodput, seconds (`None` for batch).
    pub latency_limit_s: Option<f64>,
    /// Rounds per tail sample: the tail is taken over each block of this
    /// many consecutive rounds (a fixed number of jobs, so the percentile
    /// does not move with throughput or run length), then the median
    /// over blocks is reported. A partial last block is dropped unless
    /// it is the only one.
    pub tail_rounds: usize,
}

/// A job's class and latency in ms.
fn ms(j: &Job) -> (&str, f64) {
    (j.class.as_str(), j.latency_s * 1e3)
}

/// The eight end-to-end metrics of a set of rounds.
///
/// * `jobs_per_s` — median over rounds of correct jobs (within the
///   latency limit, if any) per second of round wall.
/// * `job_geomean_ms` — geometric mean over classes of class medians.
/// * `job_tail_ms` — the eleventh-largest latency (the highest
///   percentile with ten samples beyond it) of each block of
///   `tail_rounds` rounds, median over blocks.
/// * `hit_p50_ms` / `miss_p50_ms` — `job_geomean_ms` restricted to hit /
///   miss jobs.
pub fn end_to_end(rounds: &[Round], facts: RunFacts) -> Vec<Metric> {
    let limit = facts.latency_limit_s.unwrap_or(f64::INFINITY);
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|r| r.wall_s > 0.0)
        .map(|r| {
            let good = r
                .jobs
                .iter()
                .filter(|j| j.ok && j.latency_s <= limit)
                .count();
            good as f64 / r.wall_s
        })
        .collect();
    let jobs = || rounds.iter().flat_map(|r| &r.jobs);
    let geo = geomean_of_class_medians(jobs().map(ms)).unwrap_or(0.0);
    let hit = geomean_of_class_medians(jobs().filter(|j| j.hit).map(ms)).unwrap_or(0.0);
    let miss = geomean_of_class_medians(jobs().filter(|j| !j.hit).map(ms)).unwrap_or(0.0);
    let mut blocks: Vec<&[Round]> = rounds.chunks_exact(facts.tail_rounds.max(1)).collect();
    if blocks.is_empty() {
        blocks.push(rounds);
    }
    let tails: Vec<f64> = blocks
        .iter()
        .filter_map(|block| {
            let latencies: Vec<f64> = block
                .iter()
                .flat_map(|r| &r.jobs)
                .map(|j| j.latency_s * 1e3)
                .collect();
            tail(&latencies)
        })
        .collect();
    vec![
        Metric::new("setup_s", "s", facts.setup_s),
        Metric::new("jobs_per_s", "1/s", median(&rates).unwrap_or(0.0)),
        Metric::new("job_geomean_ms", "ms", geo),
        Metric::new("job_tail_ms", "ms", median(&tails).unwrap_or(0.0)),
        Metric::new("hit_p50_ms", "ms", hit),
        Metric::new("miss_p50_ms", "ms", miss),
        Metric::new("grar_impr_pct", "%", facts.grar_impr_pct),
        Metric::new("peak_rss_mib", "MiB", peak_rss_mib()),
    ]
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// by name with its unit.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(latencies_ms: &[f64]) -> Round {
        Round {
            wall_s: 1.0,
            jobs: latencies_ms
                .iter()
                .map(|&ms| Job {
                    class: "c".into(),
                    hit: false,
                    latency_s: ms / 1e3,
                    ok: true,
                })
                .collect(),
        }
    }

    fn tail_ms(rounds: &[Round], tail_rounds: usize) -> f64 {
        let facts = RunFacts {
            setup_s: 1.0,
            grar_impr_pct: 0.0,
            latency_limit_s: None,
            tail_rounds,
        };
        let metrics = end_to_end(rounds, facts);
        metrics
            .iter()
            .find(|m| m.name == "job_tail_ms")
            .unwrap()
            .value
    }

    #[test]
    fn tail_is_taken_per_block_of_rounds_and_ignores_a_partial_block() {
        // Rounds of six jobs: a block of two rounds holds twelve, so its
        // tail is its second-smallest latency.
        let r = |base: f64| round(&[base, base + 1.0, 50.0, 50.0, 50.0, 50.0]);
        let rounds = [r(1.0), r(3.0), r(5.0), r(7.0)];
        // Block tails 2.0 and 6.0; their median is 4.0.
        assert_eq!(tail_ms(&rounds, 2), 4.0);
        // A fifth round (a partial block) does not move it.
        let mut more = rounds.to_vec();
        more.push(r(100.0));
        assert_eq!(tail_ms(&more, 2), 4.0);
        // With too few rounds for one block, all of them form one.
        assert_eq!(tail_ms(&rounds[..1], 2), 0.0);
        assert_eq!(tail_ms(&rounds[..2], 3), 2.0);
    }
}
