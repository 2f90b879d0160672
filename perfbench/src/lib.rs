//! `perfbench` — the end-to-end and per-layer benchmark of the retiming
//! workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table4_full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads, each from one process with one worker thread
//! (`RETIME_THREADS=1`):
//!
//! * `table4_full` — the paper's Table IV sweep: 12 suite circuits × 3
//!   flows × `c` ∈ {0.5, 1, 2}, repeated in passes (batch).
//! * `certify_small` — the same sweep on the ≤ 200-flop suite with every
//!   outcome certified by `retime-verify` (batch).
//! * `serve_mix` — a `retime-serve` daemon driven in a closed loop over
//!   two connections by a seeded mix of cache hits, misses, ECO re-spins
//!   and EDIF conversions.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` the same workload runs once untraced and once traced
//! and the line reports the per-layer metrics, while the Chrome trace and
//! a per-crate self-time table land in `perfbench/out/`. Only public
//! entry points are driven; every output is checked, and a failed check
//! counts as a failed operation. See `perfbench/METRICS.md` for the
//! metric definitions and which layer should move which end-to-end
//! metric.

pub mod batch;
pub mod gen;
pub mod layers;
pub mod report;
pub mod serve_mix;
pub mod stats;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use retime_engine::PhaseTimings;
use retime_liberty::Library;

use crate::layers::{per_layer, LayerInputs, Profile, ServeObs};
use crate::report::{end_to_end, Metric, Round, RunFacts};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-suite Table IV sweep.
    Table4Full,
    /// Certified small-suite sweep.
    CertifySmall,
    /// Closed-loop serve traffic.
    ServeMix,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Errors
    /// Names the accepted values.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "table4_full" => Ok(Workload::Table4Full),
            "certify_small" => Ok(Workload::CertifySmall),
            "serve_mix" => Ok(Workload::ServeMix),
            other => Err(format!(
                "unknown workload {other:?} (table4_full | certify_small | serve_mix)"
            )),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Full => "table4_full",
            Workload::CertifySmall => "certify_small",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (rounds run until their walls reach this; at
    /// least one round).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Tiny inputs and one set-up (the benchmark's own tests).
    pub smoke: bool,
    /// Where traces, layer tables, and the serve cache go.
    pub out_dir: PathBuf,
}

impl Config {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
    /// plus the test-only `--smoke` and `--out <dir>`.
    ///
    /// # Errors
    /// Describes a missing or malformed argument.
    pub fn from_args(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut smoke = false;
        let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value()?)?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--smoke" => smoke = true,
                "--out" => out_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            smoke,
            out_dir,
        })
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations whose output check failed (refusals included).
    pub failed: usize,
    /// End-to-end (`trace` off) or per-layer (`trace` on) metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Pins the program's knobs so the caller's environment cannot change
/// what is measured: every `RETIME_*` variable is cleared and
/// `RETIME_THREADS=1` set. Call before any thread starts.
pub fn pin_environment() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RETIME_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("RETIME_THREADS", "1");
}

/// Runs rounds `0, 1, …` via `next(round)` (which returns the round's
/// wall) until their walls sum to at least `seconds`; at least one.
fn run_for<E>(seconds: f64, mut next: impl FnMut(usize) -> Result<f64, E>) -> Result<(), E> {
    let (mut n, mut wall) = (0, 0.0);
    while n == 0 || wall < seconds {
        wall += next(n)?;
        n += 1;
    }
    Ok(())
}

/// What a traced run measured.
struct TracedRun {
    /// Traced rounds (as many as untraced ones).
    rounds: usize,
    /// Wall of the traced rounds ÷ wall of the untraced ones.
    overhead_ratio: f64,
    /// Spans recorded during the traced rounds.
    records: Vec<retime_trace::SpanRecord>,
}

/// The traced run's schedule: one warm-up round (the first round of a
/// process pays for growing the heap), then untraced and traced rounds
/// alternately, until the untraced ones reach `seconds / 2`. Alternating
/// keeps machine-speed drift out of the overhead ratio. `prepare(r)`
/// builds round `r`'s inputs outside the trace; `run(input, traced)`
/// runs it and returns its wall.
fn traced_run<P, E>(
    seconds: f64,
    mut prepare: impl FnMut(usize) -> P,
    mut run: impl FnMut(P, bool) -> Result<f64, E>,
) -> Result<TracedRun, E> {
    run(prepare(0), false)?;
    let _ = retime_trace::take_records();
    let (mut n, mut untraced, mut traced) = (0, 0.0, 0.0);
    while n == 0 || untraced < seconds / 2.0 {
        untraced += run(prepare(1 + 2 * n), false)?;
        let input = prepare(2 + 2 * n);
        retime_trace::set_enabled(true);
        {
            let _round = retime_trace::span("round");
            traced += run(input, true)?;
        }
        retime_trace::set_enabled(false);
        n += 1;
    }
    Ok(TracedRun {
        rounds: n,
        overhead_ratio: traced / untraced,
        records: retime_trace::take_records(),
    })
}

/// Writes the Chrome trace and the per-crate table of a traced run.
fn export(cfg: &Config, profile: &Profile, notes: &mut Vec<String>) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let stem = cfg
        .out_dir
        .join(format!("{}-seed{}", cfg.workload.name(), cfg.seed));
    let trace_path = stem.with_extension("trace.json");
    let table_path = stem.with_extension("layers.txt");
    std::fs::write(&trace_path, retime_trace::chrome_trace(profile.records()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let table = profile.table();
    std::fs::write(&table_path, &table).map_err(|e| format!("{}: {e}", table_path.display()))?;
    notes.push(format!("trace: {}", trace_path.display()));
    notes.push(format!("layers: {}", table_path.display()));
    notes.extend(table.lines().map(str::to_string));
    Ok(())
}

/// Share of the timed wall a batch run spends on further set-ups
/// between rounds.
const SETUP_SHARE: f64 = 0.05;
/// Least wall of one batch set-up sample. A batch set-up takes a few
/// (`certify_small`) to a few dozen (`table4_full`) milliseconds, while
/// the host's speed changes in steps of up to 1.5× that last a quarter
/// of a second to a few seconds: a sample that averages over such a
/// stretch moves in proportion to the share of slow time, where the
/// median of single set-ups would flip between the two speeds.
const BATCH_SAMPLE_S: f64 = 0.5;

/// The set-up samples of a run. Because the host's speed drifts, a
/// median over one burst of set-ups reports whatever the host did during
/// that burst, so the samples are spread over the run: one before the
/// first round, more between rounds (batch runs, until [`SETUP_SHARE`]
/// of the timed wall has gone to them), and the rest after the run, up
/// to at least five samples (one for smoke runs). A serve set-up starts a daemon, so serve runs take no samples
/// between rounds: a second daemon would compete with the measured one.
/// Each sample is the mean time per set-up of set-ups run back to back
/// for at least `sample_s`, each after the previous one's product is
/// dropped.
struct Setups<F> {
    once: F,
    sample_s: f64,
    times: Vec<f64>,
    smoke: bool,
    between_s: f64,
}

impl<T, F: FnMut() -> Result<(f64, T), String>> Setups<F> {
    /// Takes the first sample; returns the last set-up's product.
    fn first(cfg: &Config, sample_s: f64, once: F) -> Result<(Setups<F>, T), String> {
        let mut setups = Setups {
            once,
            sample_s,
            times: Vec::new(),
            smoke: cfg.smoke,
            between_s: 0.0,
        };
        let product = setups.sample()?;
        Ok((setups, product))
    }

    /// Takes one sample; returns the last set-up's product.
    fn sample(&mut self) -> Result<T, String> {
        let (mut n, mut total) = (0, 0.0);
        loop {
            let (t, product) = (self.once)()?;
            n += 1;
            total += t;
            if self.smoke || total >= self.sample_s {
                self.times.push(total / f64::from(n));
                return Ok(product);
            }
        }
    }

    /// Takes further samples after `timed_s` seconds of timed rounds
    /// (batch runs).
    fn between(&mut self, timed_s: f64) -> Result<(), String> {
        while !self.smoke && self.between_s < SETUP_SHARE * timed_s {
            let t0 = Instant::now();
            self.sample()?;
            self.between_s += t0.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Takes the samples still missing after the run.
    fn finish(&mut self) -> Result<(), String> {
        while !self.smoke && self.times.len() < 5 {
            self.sample()?;
        }
        Ok(())
    }

    /// Median set-up time, seconds.
    fn median(&self) -> f64 {
        stats::median(&self.times).unwrap_or(0.0)
    }
}

/// [`run_for`] with set-up samples taken between rounds.
fn run_for_with_setups<T, F: FnMut() -> Result<(f64, T), String>>(
    seconds: f64,
    setups: &mut Setups<F>,
    mut next: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(), String> {
    let mut timed_s = 0.0;
    run_for(seconds, |r| {
        let wall = next(r)?;
        timed_s += wall;
        setups.between(timed_s)?;
        Ok(wall)
    })
}

fn count(rounds: &[Round]) -> (usize, usize) {
    let jobs = rounds.iter().flat_map(|r| &r.jobs);
    (jobs.clone().count(), jobs.filter(|j| !j.ok).count())
}

fn run_batch(cfg: &Config, certify: bool) -> Result<Outcome, String> {
    let lib = Library::fdsoi28();
    let specs = batch::suite(certify, cfg.smoke);
    let (mut setups, cases) = Setups::first(cfg, BATCH_SAMPLE_S, || {
        let t0 = Instant::now();
        let cases = batch::setup(&specs, &lib);
        Ok((t0.elapsed().as_secs_f64(), cases))
    })?;
    let mut rounds = Vec::new();
    let mut impr = Vec::new();
    let mut counters = PhaseTimings::new();
    let mut step = |r: usize, count: bool| {
        let br = batch::run_round(&cases, &lib, cfg.seed, r, certify);
        if impr.is_empty() {
            impr = br.grar_impr.clone();
        }
        if count {
            counters.merge(&br.counters);
        }
        let wall = br.round.wall_s;
        rounds.push(br.round);
        Ok::<f64, String>(wall)
    };
    let mut notes = vec![format!(
        "perfbench workload={} seed={} suite={} circuits",
        cfg.workload.name(),
        cfg.seed,
        cases.len(),
    )];
    let metrics = if cfg.trace {
        let t = traced_run(cfg.seconds, |r| r, &mut step)?;
        setups.finish()?;
        let profile = Profile::new(t.records);
        export(cfg, &profile, &mut notes)?;
        per_layer(
            &profile,
            &LayerInputs {
                rounds: t.rounds,
                overhead_ratio: t.overhead_ratio,
                build_ms: setups.median() * 1e3,
                counters: &counters,
                serve: &ServeObs::default(),
            },
        )
    } else {
        run_for_with_setups(cfg.seconds, &mut setups, |r| step(r, false))?;
        setups.finish()?;
        notes.push(format!("set-up samples: {}", setups.times.len()));
        end_to_end(
            &rounds,
            RunFacts {
                setup_s: setups.median(),
                grar_impr_pct: batch::mean_impr(&impr),
                latency_limit_s: None,
                tail_rounds: 1,
            },
        )
    };
    notes.push(format!("rounds={}", rounds.len()));
    let (attempted, failed) = count(&rounds);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn run_serve(cfg: &Config) -> Result<Outcome, String> {
    use crate::gen::{RoundMix, ServeOp, ServePlan};
    use crate::serve_mix::{Oracle, ServeEnv};

    let lib = Library::fdsoi28();
    let mix = if cfg.smoke {
        RoundMix::SMOKE
    } else {
        RoundMix::FULL
    };
    let io = |e: std::io::Error| format!("serve: {e}");
    let build_times = std::cell::RefCell::new(Vec::new());
    let (mut setups, (mut env, plan)) = Setups::first(cfg, 0.0, || {
        let n = build_times.borrow().len();
        let dir = cfg
            .out_dir
            .join(format!("serve-cache-{}-{n}", std::process::id()));
        let t0 = Instant::now();
        let plan = ServePlan::new(cfg.seed, mix);
        build_times.borrow_mut().push(t0.elapsed().as_secs_f64());
        let env = ServeEnv::start(&plan, &dir).map_err(io)?;
        Ok((t0.elapsed().as_secs_f64(), (env, plan)))
    })?;
    // Untraced rounds are checked as soon as they finish (outside the
    // timed round wall), so the run holds no request text and its peak
    // memory does not grow with the number of rounds.
    let mut oracle = Oracle::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut check_s = 0.0;
    let mut check = |ops: &[ServeOp], wall: f64, replies: &[serve_mix::Reply]| {
        let t0 = Instant::now();
        rounds.push(serve_mix::to_round(ops, wall, replies, &mut oracle, &lib));
        check_s += t0.elapsed().as_secs_f64();
    };
    let mut notes = vec![format!(
        "perfbench workload=serve_mix seed={} round={} requests",
        cfg.seed,
        mix.len(),
    )];
    let mut traced_window = None;
    if cfg.trace {
        // Traced rounds are checked after the run, so the trace holds
        // only program work.
        let mut window = Vec::new();
        let mut deltas: HashMap<String, f64> = HashMap::new();
        let t = traced_run(
            cfg.seconds,
            |r| plan.round(r),
            |ops, traced| {
                if !traced {
                    let (wall, replies) = env.run_round(&ops).map_err(io)?;
                    check(&ops, wall, &replies);
                    return Ok(wall);
                }
                let before = env.counters().map_err(io)?;
                let (wall, replies) = env.run_round(&ops).map_err(io)?;
                for (k, v) in env.counters().map_err(io)? {
                    *deltas.entry(k.clone()).or_insert(0.0) +=
                        v - before.get(&k).copied().unwrap_or(0.0);
                }
                window.push((ops, wall, replies));
                Ok::<f64, String>(wall)
            },
        )?;
        for (ops, wall, replies) in &window {
            check(ops, *wall, replies);
        }
        traced_window = Some((t, deltas, window));
    } else {
        run_for(cfg.seconds, |r| {
            let ops = plan.round(r);
            let (wall, replies) = env.run_round(&ops).map_err(io)?;
            check(&ops, wall, &replies);
            Ok::<f64, String>(wall)
        })?;
    }
    let grar_impr_pct = serve_mix::grar_impr(&env.hot_areas);
    drop(env);
    setups.finish()?;
    notes.push(format!("set-up samples: {}", setups.times.len()));
    notes.push(format!("output check: {check_s:.1} s"));
    for kind in crate::gen::OpKind::ALL {
        let xs: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.jobs)
            .filter(|j| j.class == kind.name())
            .map(|j| j.latency_s * 1e3)
            .collect();
        notes.push(format!(
            "class {:<10} n={:<5} p50={:.3} ms",
            kind.name(),
            xs.len(),
            stats::median(&xs).unwrap_or(0.0)
        ));
    }
    let metrics = match traced_window {
        Some((t, counters, window)) => {
            let requests = window
                .iter()
                .flat_map(|(_, _, replies)| replies.iter().map(|r| (r.job_id, r.latency_s * 1e6)))
                .collect();
            let hits: Vec<&ServeOp> = window
                .iter()
                .flat_map(|(ops, _, replies)| {
                    ops.iter()
                        .zip(replies)
                        .filter(|(_, r)| r.cached)
                        .map(|(op, _)| op)
                })
                .collect();
            let key_ms = serve_mix::key_ms(&hits, &lib)?;
            let profile = Profile::new(t.records);
            export(cfg, &profile, &mut notes)?;
            per_layer(
                &profile,
                &LayerInputs {
                    rounds: t.rounds,
                    overhead_ratio: t.overhead_ratio,
                    build_ms: stats::median(&build_times.borrow()).unwrap_or(0.0) * 1e3,
                    counters: &PhaseTimings::new(),
                    serve: &ServeObs {
                        requests,
                        counters,
                        key_ms,
                    },
                },
            )
        }
        None => end_to_end(
            &rounds,
            RunFacts {
                setup_s: setups.median(),
                grar_impr_pct,
                latency_limit_s: Some(serve_mix::LATENCY_LIMIT_S),
                tail_rounds: serve_mix::TAIL_ROUNDS,
            },
        ),
    };
    notes.push(format!("rounds={}", rounds.len()));
    let (attempted, failed) = count(&rounds);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Runs one benchmark invocation.
///
/// # Errors
/// Set-up, socket, and output-file failures (failed output checks are
/// counted, not errors).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Table4Full => run_batch(cfg, false),
        Workload::CertifySmall => run_batch(cfg, true),
        Workload::ServeMix => run_serve(cfg),
    }
}
