//! The batch workloads time each flow on its own instead of calling
//! `retime_bench::run_approaches_with`, which runs all three. This test
//! runs one circuit through the whole `c` sweep both ways, uncertified
//! and certified, and requires the same cuts and sequential areas, so a
//! change to `run_approaches_with` that the benchmark does not follow
//! fails here instead of going unmeasured.
//!
//! It is the only test of this binary because it sets `RETIME_VERIFY`.

use perfbench::batch::{run_flow, FLOWS};
use retime_bench::{build_case, run_approaches_with, WarmSlots};
use retime_circuits::paper_suite;
use retime_liberty::{EdlOverhead, Library};
use retime_retime::RetimeOutcome;
use retime_verify::FlowKind;

fn sweep_both_ways(certify: bool) {
    let lib = Library::fdsoi28();
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "s1488")
        .unwrap();
    let case = build_case(&spec, &lib);
    let (mut whole, mut split) = (WarmSlots::default(), WarmSlots::default());
    for c in EdlOverhead::SWEEP {
        let all = run_approaches_with(&case, &lib, c, &mut whole).unwrap();
        for flow in FLOWS {
            let reference: &RetimeOutcome = match flow {
                FlowKind::Base => &all.base,
                FlowKind::Vl => &all.rvl.outcome,
                FlowKind::Grar => &all.grar.outcome,
            };
            let ours = run_flow(&case, &lib, c, flow, &mut split, certify).unwrap();
            let what = format!("{} at c={} (certify={certify})", flow.name(), c.value());
            assert_eq!(ours.cut, reference.cut, "cut of {what}");
            assert_eq!(
                ours.seq.total().to_bits(),
                reference.seq.total().to_bits(),
                "sequential area of {what}"
            );
        }
    }
}

#[test]
fn per_flow_calls_match_run_approaches_with() {
    std::env::remove_var("RETIME_VERIFY");
    sweep_both_ways(false);
    std::env::set_var("RETIME_VERIFY", "1");
    sweep_both_ways(true);
}
