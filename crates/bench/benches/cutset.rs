//! g(t) cut-set construction cost per target master.
//!
//! Modes:
//!
//! * default — criterion group classifying every sink of the largest
//!   small-suite circuit;
//! * `--json [--max-gates N]` — the runtime-vs-size curve: classifies
//!   every master sink of `circuits::synth` netlists of growing gate
//!   count (1k, 2k, … up to `N`, default 32k) on one thread, min of
//!   three rounds, and writes `BENCH_classify.json` in the repository
//!   root. Per size it records the cloud size `n`, the mean fan-in cone
//!   `|cone(t)|` over the targets, and the milliseconds per target; for
//!   a cone-local classifier the time per target tracks `mean_cone`, not
//!   `n`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use retime_circuits::{small_suite, CircuitSpec};
use retime_core::{classify_and_cut_set, classify_many};
use retime_liberty::Library;
use retime_netlist::{ConeWalker, NodeId, NodeKind};
use retime_sta::{DelayModel, TimingAnalysis};

const ROUNDS: usize = 3;

fn bench_cutset(c: &mut Criterion) {
    let lib = Library::fdsoi28();
    let spec = small_suite().into_iter().last().expect("non-empty");
    let circuit = spec.build().expect("builds");
    let clock = circuit
        .calibrated_clock(&lib, DelayModel::PathBased)
        .expect("calibrates");
    let sta = TimingAnalysis::new(&circuit.cloud, &lib, clock, DelayModel::PathBased).expect("sta");
    let sinks: Vec<_> = circuit.cloud.sinks().to_vec();
    let mut g = c.benchmark_group("cutset");
    g.sample_size(10);
    g.bench_function("classify_and_cut_set_all_sinks", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &t in &sinks {
                let bp = sta.backward(t);
                let (_, g) = classify_and_cut_set(&sta, &bp);
                total += g.len();
            }
            total
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cutset);

/// A suite-shaped synthetic circuit of `gates` combinational gates: one
/// flop per three gates, a sixth of the flops on deep tails, a few hard
/// ones, so the calibrated clock yields never, target, and always
/// endpoints like the paper suite.
fn synth_spec(gates: usize) -> CircuitSpec {
    let flops = (gates / 3).max(8);
    CircuitSpec {
        name: "synth",
        flops,
        nce: flops / 6,
        hard: 2,
        paper_p: 0.0,
        paper_area: 0.0,
        gates,
        inputs: 32,
        outputs: 64,
        levels: 60,
        seed: 0x5eed_0000 + gates as u64,
    }
}

/// One size's JSON object.
fn size_json(gates: usize, lib: &Library) -> String {
    let circuit = synth_spec(gates).build().expect("synth circuit builds");
    let cloud = &circuit.cloud;
    let model = DelayModel::PathBased;
    let clock = circuit.calibrated_clock(lib, model).expect("calibrates");
    let sta = TimingAnalysis::new(cloud, lib, clock, model).expect("sta");
    let targets: Vec<NodeId> = cloud
        .sinks()
        .iter()
        .copied()
        .filter(|&t| matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }))
        .collect();
    let mut walker = ConeWalker::new(cloud);
    let cone_nodes: usize = targets
        .iter()
        .map(|&t| walker.walk(cloud, &[t]).len())
        .sum();
    let mean_cone = cone_nodes as f64 / targets.len().max(1) as f64;
    let mut best = Duration::MAX;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let classified = classify_many(&sta, &targets, 1);
        best = best.min(t0.elapsed());
        assert_eq!(classified.len(), targets.len());
    }
    let ms = best.as_secs_f64() * 1e3;
    let per_target = ms / targets.len().max(1) as f64;
    format!(
        "    {{\"gates\": {gates}, \"n\": {}, \"targets\": {}, \"mean_cone\": {mean_cone:.1}, \
         \"classify_ms\": {ms:.3}, \"ms_per_target\": {per_target:.5}, \
         \"ns_per_cone_node\": {:.2}}}",
        cloud.len(),
        targets.len(),
        per_target * 1e6 / mean_cone.max(1.0),
    )
}

/// The runtime-vs-size curve, written to `BENCH_classify.json`.
fn run_json(max_gates: usize) {
    let lib = Library::fdsoi28();
    let sizes: Vec<usize> = std::iter::successors(Some(1024usize), |&g| Some(g * 2))
        .take_while(|&g| g <= max_gates)
        .collect();
    assert!(!sizes.is_empty(), "--max-gates must be at least 1024");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bodies: Vec<String> = sizes.iter().map(|&g| size_json(g, &lib)).collect();
    let json = format!(
        "{{\n  \"circuit\": \"synth\",\n  \"rounds\": {ROUNDS},\n  \"threads\": 1,\n  \
         \"nproc\": {nproc},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        bodies.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_classify.json");
    std::fs::write(&out, &json).expect("writes json");
    print!("{json}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--json") {
        let max_gates = args
            .iter()
            .position(|a| a == "--max-gates")
            .map(|i| {
                args.get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .expect("--max-gates takes a gate count")
            })
            .unwrap_or(32 * 1024);
        run_json(max_gates);
    } else {
        benches();
    }
}
