//! Per-layer metrics from a traced run.
//!
//! Self time (span duration minus the part its child spans cover) is
//! summed per layer. A layer is named by the crate that owns the work:
//! the flow stages map to the crate that implements them (`classify` →
//! `core`, `solve` → `flow`, `commit` → `retime`, `seed`/`swap` → `vl`),
//! program spans map to the crate that opens them, and the benchmark's
//! own `round`/`job` spans are `bench`. On the daemon's connection
//! (reactor) threads the only traced work is submission resolution, so
//! everything there is `convert` (EDIF parsing and the conversion
//! pipeline).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use retime_engine::PhaseTimings;
use retime_trace::{SpanRecord, Value};

use crate::report::Metric;

/// Which thread a span ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The benchmark's own thread (batch flows, the serve client).
    Bench,
    /// A daemon worker.
    Worker,
    /// A daemon connection thread.
    Reactor,
}

/// The layer (owning crate) of a span.
fn layer(name: &str, role: Role) -> &'static str {
    if role == Role::Reactor {
        return "convert";
    }
    match name {
        "round" => "bench",
        "job" if role == Role::Bench => "bench",
        "job" | "execute" | "queue_wait" => "serve",
        "classify" | "grar" => "core",
        "reference_ssp" => "verify",
        "solve"
        | "network_simplex"
        | "network_simplex_warm"
        | "pivot_batch"
        | "solve_warm"
        | "ssp"
        | "ssp_delta"
        | "ssp_phase" => "flow",
        "sta" | "sta_full_pass" | "cut_timing" | "sta_repair_pure" | "sta_repair_cut" => "sta",
        "commit" | "base_retime" => "retime",
        "seed" | "swap" | "vl_retime" => "vl",
        "convert" | "edif_parse" | "edif_write" => "convert",
        "stat_cut_arrivals" => "stat",
        n if n == "verify" || n.starts_with("verify_") => "verify",
        _ => "other",
    }
}

/// Self time per span plus thread roles, from one traced window.
pub struct Profile {
    records: Vec<SpanRecord>,
    self_us: Vec<u64>,
    roles: Vec<Role>,
}

impl Profile {
    /// Indexes a traced window's records.
    pub fn new(records: Vec<SpanRecord>) -> Profile {
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for r in &records {
            if r.parent != 0 {
                *child_us.entry(r.parent).or_insert(0) += r.dur_us;
            }
        }
        let self_us = records
            .iter()
            .map(|r| {
                r.dur_us
                    .saturating_sub(child_us.get(&r.id).copied().unwrap_or(0))
            })
            .collect();
        let bench: BTreeSet<u32> = records
            .iter()
            .filter(|r| r.name == "round")
            .map(|r| r.tid)
            .collect();
        let workers: BTreeSet<u32> = records
            .iter()
            .filter(|r| r.name == "execute")
            .map(|r| r.tid)
            .collect();
        let roles = records
            .iter()
            .map(|r| {
                if bench.contains(&r.tid) {
                    Role::Bench
                } else if workers.contains(&r.tid) {
                    Role::Worker
                } else {
                    Role::Reactor
                }
            })
            .collect();
        Profile {
            records,
            self_us,
            roles,
        }
    }

    /// The raw records (for the Chrome-trace export).
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    fn iter(&self) -> impl Iterator<Item = (&SpanRecord, u64, Role)> {
        self.records
            .iter()
            .zip(&self.self_us)
            .zip(&self.roles)
            .map(|((r, &s), &role)| (r, s, role))
    }

    /// Total self time of all spans, ms.
    fn total_ms(&self) -> f64 {
        self.self_us.iter().sum::<u64>() as f64 / 1e3
    }

    /// Self time of spans matching `pred(name, layer, role)`, ms.
    fn self_ms(&self, pred: impl Fn(&str, &str) -> bool) -> f64 {
        self.iter()
            .filter(|(r, _, role)| pred(r.name, layer(r.name, *role)))
            .map(|(_, s, _)| s)
            .sum::<u64>() as f64
            / 1e3
    }

    /// The per-layer self-time table: one row per layer with its share,
    /// then its span names.
    pub fn table(&self) -> String {
        let total = self.total_ms().max(1e-9);
        let mut by_layer: BTreeMap<&str, BTreeMap<&str, (u64, u64)>> = BTreeMap::new();
        for (r, s, role) in self.iter() {
            let e = by_layer
                .entry(layer(r.name, role))
                .or_default()
                .entry(r.name)
                .or_insert((0, 0));
            e.0 += 1;
            e.1 += s;
        }
        let layer_ms = |names: &BTreeMap<&str, (u64, u64)>| {
            names.values().map(|v| v.1).sum::<u64>() as f64 / 1e3
        };
        let mut rows: Vec<_> = by_layer.iter().collect();
        rows.sort_by(|a, b| layer_ms(b.1).total_cmp(&layer_ms(a.1)).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<10} {:<22} {:>9} {:>12} {:>7}\n",
            "crate", "span", "count", "self(ms)", "share"
        );
        for (l, names) in rows {
            let ms = layer_ms(names);
            out.push_str(&format!(
                "{l:<10} {:<22} {:>9} {ms:>12.3} {:>6.2}%\n",
                "*",
                "",
                100.0 * ms / total
            ));
            for (name, (count, us)) in names {
                let ms = *us as f64 / 1e3;
                out.push_str(&format!(
                    "{:<10} {name:<22} {count:>9} {ms:>12.3} {:>6.2}%\n",
                    "",
                    100.0 * ms / total
                ));
            }
        }
        out
    }

    /// Daemon-side queue wait and execute time of each job, by job id, µs.
    fn serve_split(&self) -> HashMap<u64, (u64, u64)> {
        let mut job_of: HashMap<u64, u64> = HashMap::new();
        for (r, _, role) in self.iter() {
            if r.name == "job" && role == Role::Worker {
                let id = r.attrs.iter().find_map(|(k, v)| match (k, v) {
                    (&"job_id", Value::Str(s)) => s.parse::<u64>().ok(),
                    _ => None,
                });
                if let Some(id) = id {
                    job_of.insert(r.id, id);
                }
            }
        }
        let mut split: HashMap<u64, (u64, u64)> = HashMap::new();
        for r in &self.records {
            let Some(&id) = job_of.get(&r.parent) else {
                continue;
            };
            let e = split.entry(id).or_default();
            match r.name {
                "queue_wait" => e.0 += r.dur_us,
                "execute" => e.1 += r.dur_us,
                _ => {}
            }
        }
        split
    }
}

/// Serve-side observations of a traced window.
#[derive(Debug, Clone, Default)]
pub struct ServeObs {
    /// `(job id, round-trip µs)` of every request.
    pub requests: Vec<(u64, f64)>,
    /// Daemon counter deltas over the window, by Prometheus family.
    pub counters: HashMap<String, f64>,
    /// Mean cache-key computation time of a hit submission, ms.
    pub key_ms: f64,
}

/// Everything besides the spans the per-layer metrics draw on.
pub struct LayerInputs<'a> {
    /// Rounds in the traced window (metrics are per round).
    pub rounds: usize,
    /// Wall of the traced window ÷ wall of the untraced one.
    pub overhead_ratio: f64,
    /// Circuit generation and calibration time of one set-up, ms.
    pub build_ms: f64,
    /// Program counters merged from `PhaseTimings` (batch workloads).
    pub counters: &'a PhaseTimings,
    /// Serve-side observations (`serve_mix`).
    pub serve: &'a ServeObs,
}

/// The per-layer metrics (see `perfbench/METRICS.md`). Times and counts
/// are per round of the traced window; shares are of all traced self
/// time.
pub fn per_layer(p: &Profile, inp: &LayerInputs<'_>) -> Vec<Metric> {
    let per = 1.0 / inp.rounds.max(1) as f64;
    let total = p.total_ms().max(1e-9);
    let by_layer = |l: &'static str| move |_: &str, layer: &str| layer == l;
    let by_name = |n: &'static str| move |name: &str, layer: &str| name == n && layer != "convert";
    let classify = p.self_ms(by_name("classify"));
    let solve = p.self_ms(by_layer("flow"));
    let verify = p.self_ms(by_layer("verify"));
    let counter = |name: &str| inp.counters.counter(name) as f64;
    let serve = inp.serve;
    let fam = |name: &str| serve.counters.get(name).copied().unwrap_or(0.0);
    let (warm_hits, deltas, colds, resumes) = if serve.counters.is_empty() {
        (
            counter("warm_hits"),
            counter("demand_deltas"),
            counter("cold_solves"),
            counter("cost_resumes"),
        )
    } else {
        (
            fam("retime_serve_warm_hits_total"),
            fam("retime_serve_warm_demand_deltas_total"),
            fam("retime_serve_warm_cold_solves_total"),
            fam("retime_serve_warm_cost_resumes_total"),
        )
    };
    let probes = warm_hits + deltas + colds + resumes;
    let split = p.serve_split();
    let n_req = serve.requests.len().max(1) as f64;
    let (mut queue_us, mut exec_us, mut io_us) = (0.0, 0.0, 0.0);
    for (id, rtt_us) in &serve.requests {
        let (q, e) = split
            .get(id)
            .map_or((0.0, 0.0), |&(q, e)| (q as f64, e as f64));
        queue_us += q;
        exec_us += e;
        io_us += (rtt_us - q - e).max(0.0);
    }
    let executed = split.len().max(1) as f64;
    vec![
        Metric::new("circuits.build_ms", "ms", inp.build_ms),
        Metric::new("core.classify_ms", "ms", classify * per),
        Metric::new("core.classify_share", "ratio", classify / total),
        Metric::new("core.targets", "count", counter("targets") * per),
        Metric::new("flow.solve_ms", "ms", solve * per),
        Metric::new("flow.solve_share", "ratio", solve / total),
        Metric::new("flow.warm_hits", "count", warm_hits * per),
        Metric::new("flow.demand_deltas", "count", deltas * per),
        Metric::new("flow.cold_solves", "count", colds * per),
        Metric::new(
            "flow.warm_hit_ratio",
            "ratio",
            if probes > 0.0 {
                warm_hits / probes
            } else {
                0.0
            },
        ),
        Metric::new("sta.ms", "ms", p.self_ms(by_layer("sta")) * per),
        Metric::new("sta.reevaluated", "count", counter("sta_reevaluated") * per),
        Metric::new("retime.commit_ms", "ms", p.self_ms(by_name("commit")) * per),
        Metric::new("vl.seed_ms", "ms", p.self_ms(by_name("seed")) * per),
        Metric::new("vl.swap_ms", "ms", p.self_ms(by_name("swap")) * per),
        Metric::new("verify.ms", "ms", verify * per),
        Metric::new("verify.share", "ratio", verify / total),
        Metric::new(
            "verify.reference_ms",
            "ms",
            p.self_ms(by_name("reference_ssp")) * per,
        ),
        Metric::new(
            "verify.equivalence_ms",
            "ms",
            p.self_ms(by_name("verify_equivalence")) * per,
        ),
        Metric::new(
            "verify.labels_ms",
            "ms",
            p.self_ms(by_name("verify_labels")) * per,
        ),
        Metric::new("serve.queue_wait_ms", "ms", queue_us / executed / 1e3),
        Metric::new("serve.execute_ms", "ms", exec_us / executed / 1e3),
        Metric::new("serve.io_ms", "ms", io_us / n_req / 1e3),
        Metric::new("serve.key_ms", "ms", serve.key_ms),
        Metric::new(
            "serve.memory_hits",
            "count",
            fam("retime_serve_cache_memory_hits_total") * per,
        ),
        Metric::new(
            "serve.disk_hits",
            "count",
            fam("retime_serve_cache_disk_hits_total") * per,
        ),
        Metric::new(
            "serve.misses",
            "count",
            fam("retime_serve_cache_misses_total") * per,
        ),
        Metric::new(
            "serve.warm_resumes",
            "count",
            fam("retime_serve_warm_resumed_jobs_total") * per,
        ),
        Metric::new(
            "serve.overloaded",
            "count",
            fam("retime_serve_rejected_overload_total") * per,
        ),
        Metric::new(
            "convert.parse_ms",
            "ms",
            p.self_ms(|n, l| n == "edif_parse" && l == "convert") * per,
        ),
        Metric::new(
            "convert.convert_ms",
            "ms",
            p.self_ms(|n, l| n != "edif_parse" && l == "convert") * per,
        ),
        Metric::new("trace.overhead_ratio", "ratio", inp.overhead_ratio),
    ]
}
