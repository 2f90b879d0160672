//! The batch workloads: the Table IV flow sweep (`table4_full`) and the
//! same sweep under certification (`certify_small`).
//!
//! A round is one pass over the suite in a seeded circuit order. Per
//! circuit, one set of warm slots carries across `c` ∈ {0.5, 1, 2} (so
//! the `c` order stays fixed), and at each `c` the three flows run in
//! the order `retime_bench::run_approaches_with` uses. Each flow call is
//! timed on its own so that a job is one circuit × flow × `c`; under
//! certification the job also covers the independent certificate check
//! and the warm/cold cross-check of that flow's slot.

use std::time::Instant;

use retime_bench::{build_case, pct_impr, BenchCase, Certification, WarmSlots};
use retime_circuits::{paper_suite, CircuitSpec};
use retime_core::{grar_with_sweep, GrarConfig};
use retime_engine::PhaseTimings;
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::CombCloud;
use retime_retime::{base_retime_sweep, RetimeOutcome, RetimingSweep};
use retime_sta::DelayModel;
use retime_verify::{check_warm_solution, FlowKind};
use retime_vl::{vl_retime_with_sweep, VlConfig, VlVariant};

use crate::gen::circuit_order;
use crate::report::{Job, Round};

/// The three flows, in sweep order.
pub const FLOWS: [FlowKind; 3] = [FlowKind::Base, FlowKind::Vl, FlowKind::Grar];

/// Which suite slice a batch workload runs.
pub fn suite(small: bool, smoke: bool) -> Vec<CircuitSpec> {
    let specs = paper_suite();
    if smoke {
        specs.into_iter().take(2).collect()
    } else if small {
        specs.into_iter().filter(|s| s.flops <= 200).collect()
    } else {
        specs
    }
}

/// Builds and calibrates the suite.
pub fn setup(specs: &[CircuitSpec], lib: &Library) -> Vec<BenchCase> {
    specs.iter().map(|s| build_case(s, lib)).collect()
}

/// Checks one batch outcome: the placement must be a legal cut of the
/// circuit and its timing feasible.
///
/// # Errors
/// Describes the first violated check.
fn check_outcome(cloud: &CombCloud, outcome: &RetimeOutcome) -> Result<(), String> {
    outcome
        .cut
        .validate(cloud)
        .map_err(|e| format!("illegal cut: {e}"))?;
    if !outcome.timing.is_feasible() {
        return Err("infeasible timing".into());
    }
    Ok(())
}

/// Checks that G-RAR's sequential area is no larger than base
/// retiming's at the same `c`.
///
/// # Errors
/// Reports both areas.
fn check_grar_vs_base(base_seq: f64, grar_seq: f64) -> Result<(), String> {
    if grar_seq <= base_seq * (1.0 + 1e-12) + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "G-RAR sequential area {grar_seq} exceeds base {base_seq}"
        ))
    }
}

/// All output checks of one job: a legal, feasible outcome and, for
/// G-RAR, no more sequential area than base retiming at the same `c`
/// (`base_seq`).
///
/// # Errors
/// Describes the first violated check.
pub fn check_job(
    cloud: &CombCloud,
    flow: FlowKind,
    outcome: &RetimeOutcome,
    base_seq: f64,
) -> Result<(), String> {
    check_outcome(cloud, outcome)?;
    if flow == FlowKind::Grar {
        check_grar_vs_base(base_seq, outcome.seq.total())?;
    }
    Ok(())
}

/// The per-round result of a batch workload.
pub struct BatchRound {
    /// Timed jobs.
    pub round: Round,
    /// `[case][c]` G-RAR improvement over base, percent.
    pub grar_impr: Vec<[f64; 3]>,
    /// Program-side counters of every outcome (`PhaseTimings`).
    pub counters: PhaseTimings,
}

/// Runs one flow of one job, with certification when asked. This is the
/// body of `retime_bench::run_approaches_with` split per flow (and, with
/// `certify`, of its `RETIME_VERIFY=1` branch); `tests/parity.rs` keeps
/// the two in step.
///
/// # Errors
/// Flow failures and rejected certificates.
pub fn run_flow(
    case: &BenchCase,
    lib: &Library,
    c: EdlOverhead,
    flow: FlowKind,
    slots: &mut WarmSlots,
    certify: bool,
) -> Result<RetimeOutcome, String> {
    let cloud = &case.circuit.cloud;
    let (outcome, slot) = match flow {
        FlowKind::Base => (
            base_retime_sweep(
                cloud,
                lib,
                case.clock,
                DelayModel::PathBased,
                c,
                &mut slots.base,
            ),
            &slots.base,
        ),
        FlowKind::Vl => (
            vl_retime_with_sweep(
                cloud,
                lib,
                case.clock,
                &VlConfig::new(VlVariant::Rvl, c),
                &mut slots.rvl,
            )
            .map(|r| r.outcome),
            &slots.rvl,
        ),
        FlowKind::Grar => (
            grar_with_sweep(cloud, lib, case.clock, &GrarConfig::new(c), &mut slots.grar)
                .map(|r| r.outcome),
            &slots.grar,
        ),
    };
    let mut outcome = outcome.map_err(|e| format!("flow failed: {e}"))?;
    if certify {
        Certification::of_case(case, c, flow, flow.name())
            .run(lib, &mut outcome)
            .map_err(|e| e.to_string())?;
        certify_slot(slot)?;
    }
    Ok(outcome)
}

/// The warm/cold cross-check `WarmSlots::certify` applies, for one slot.
fn certify_slot(slot: &Option<RetimingSweep>) -> Result<(), String> {
    let Some(sweep) = slot else { return Ok(()) };
    let Some(warm) = sweep.warm_solution() else {
        return Ok(());
    };
    let cold = sweep
        .flow()
        .solve_reference()
        .map_err(|e| format!("warm reference solve: {e}"))?;
    check_warm_solution(sweep.flow(), warm, &cold)
        .map_err(|e| format!("warm certificate rejected: {e}"))
}

/// Runs round `round`: every case in the seeded order, the full `c`
/// sweep, all three flows. Failed checks are reported on stderr and
/// counted against the job.
pub fn run_round(
    cases: &[BenchCase],
    lib: &Library,
    seed: u64,
    round: usize,
    certify: bool,
) -> BatchRound {
    let mut jobs = Vec::with_capacity(cases.len() * 9);
    let mut grar_impr = vec![[0.0; 3]; cases.len()];
    let mut counters = PhaseTimings::new();
    let mut wall_s = 0.0;
    for idx in circuit_order(seed, round, cases.len()) {
        let case = &cases[idx];
        let name = case.circuit.spec.name;
        let mut slots = WarmSlots::default();
        for (k, c) in EdlOverhead::SWEEP.into_iter().enumerate() {
            let mut seq = [0.0f64; 3];
            for (f, flow) in FLOWS.into_iter().enumerate() {
                let c_label = format!("{}", c.value());
                let t0 = Instant::now();
                let result = {
                    let _job = retime_trace::span("job");
                    if retime_trace::enabled() {
                        retime_trace::attr_str("circuit", name);
                        retime_trace::attr_str("flow", flow.name());
                        retime_trace::attr_str("c", &c_label);
                    }
                    run_flow(case, lib, c, flow, &mut slots, certify)
                };
                let latency_s = t0.elapsed().as_secs_f64();
                wall_s += latency_s;
                let checked = result.and_then(|o| {
                    check_job(&case.circuit.cloud, flow, &o, seq[0])?;
                    seq[f] = o.seq.total();
                    counters.merge(&o.phases);
                    Ok(())
                });
                if let Err(e) = &checked {
                    eprintln!("perfbench: {name} {} c={c_label}: {e}", flow.name());
                }
                jobs.push(Job {
                    class: format!("{name}/{}/{c_label}", flow.name()),
                    hit: k > 0,
                    latency_s,
                    ok: checked.is_ok(),
                });
            }
            grar_impr[idx][k] = pct_impr(seq[0], seq[2]);
        }
    }
    BatchRound {
        round: Round { wall_s, jobs },
        grar_impr,
        counters,
    }
}

/// Mean of `[case][c]` improvements, summed in case order so the value
/// does not depend on the seeded circuit order.
pub fn mean_impr(grar_impr: &[[f64; 3]]) -> f64 {
    let all: Vec<f64> = grar_impr.iter().flatten().copied().collect();
    all.iter().sum::<f64>() / all.len().max(1) as f64
}
