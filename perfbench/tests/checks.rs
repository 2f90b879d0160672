//! The benchmark's output checks count corrupted outcomes and tampered
//! serve payloads as failed operations.

use perfbench::batch::check_job;
use perfbench::gen::{submit_line, suite_spec, OpKind, ServeOp};
use perfbench::report::{result_line, Job, Metric, Round};
use perfbench::serve_mix::{check_reply, to_round, Oracle, Reply};
use retime_bench::{build_case, WarmSlots};
use retime_circuits::paper_suite;
use retime_liberty::{EdlOverhead, Library};
use retime_retime::base_retime_sweep;
use retime_sta::DelayModel;
use retime_verify::FlowKind;

fn s1488() -> retime_bench::BenchCase {
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "s1488")
        .unwrap();
    build_case(&spec, &Library::fdsoi28())
}

#[test]
fn corrupted_outcome_fails_its_check() {
    let lib = Library::fdsoi28();
    let case = s1488();
    let cloud = &case.circuit.cloud;
    let mut slots = WarmSlots::default();
    let mut outcome = base_retime_sweep(
        cloud,
        &lib,
        case.clock,
        DelayModel::PathBased,
        EdlOverhead::MEDIUM,
        &mut slots.base,
    )
    .unwrap();
    let seq = outcome.seq.total();
    assert_eq!(check_job(cloud, FlowKind::Base, &outcome, seq), Ok(()));
    // A G-RAR result larger than base fails even when it is legal.
    assert!(check_job(cloud, FlowKind::Grar, &outcome, seq * 0.5).is_err());
    // Moving a latch through a (fixed) master sink is illegal.
    outcome.cut.set_moved(cloud.sinks()[0], true);
    assert!(check_job(cloud, FlowKind::Base, &outcome, seq).is_err());
}

#[test]
fn failed_jobs_are_counted_in_the_result_line() {
    let job = |ok| Job {
        class: "c".into(),
        hit: false,
        latency_s: 0.001,
        ok,
    };
    let round = Round {
        wall_s: 1.0,
        jobs: vec![job(true), job(false)],
    };
    let failed = round.jobs.iter().filter(|j| !j.ok).count();
    let line = result_line(round.jobs.len(), failed, &[Metric::new("x", "ms", 1.0)]);
    assert!(
        line.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#),
        "{line}"
    );
}

#[test]
fn tampered_serve_payload_is_a_failed_request() {
    let lib = Library::fdsoi28();
    let spec = suite_spec("s1488", FlowKind::Grar, 1.0);
    let op = ServeOp {
        kind: OpKind::SuiteHit,
        line: submit_line(&spec),
        spec,
    };
    let mut oracle = Oracle::default();
    let expected = oracle.expected(&op, &lib).unwrap();
    let good = Reply {
        op: 0,
        latency_s: 0.001,
        job_id: 1,
        cached: true,
        sha: Some(expected.clone()),
        ..Reply::default()
    };
    assert_eq!(check_reply(&good, &expected), Ok(()));
    let mut tampered = good.clone();
    tampered.sha = Some(format!("0{}", &expected[1..]));
    let overloaded = Reply {
        error: Some("overloaded".into()),
        ..Reply::default()
    };
    let ops = vec![op.clone(), op.clone(), op];
    let round = to_round(&ops, 1.0, &[good, tampered, overloaded], &mut oracle, &lib);
    let ok: Vec<bool> = round.jobs.iter().map(|j| j.ok).collect();
    assert_eq!(ok, [true, false, false]);
}
