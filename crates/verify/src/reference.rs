//! A deliberately naive reference for the endpoint classification of
//! Eqs. (8)–(9), so the label check does not certify the flows with the
//! code it is certifying.
//!
//! The fast classifier in `retime-core` works cone-locally: one reused
//! backward pass over `cone(t)`, one closure walk, a local validity test,
//! and an arrival propagated over the cone only. This reference keeps the
//! plain full-circuit formulation instead:
//!
//! * a backward sweep over the **whole** reverse topological order, with
//!   its own `D^b(·, t)` arrays and its own Eq. (5) arithmetic;
//! * `g(t)` from the frontier test over [`CombCloud::fanin_cone`];
//! * the canonical cut built by unioning `fanin_cone(gv)` for every
//!   `gv ∈ g(t)`, checked with [`Cut::validate`];
//! * the arrival at `t` read off a full [`TimingAnalysis::cut_timing`].
//!
//! It costs `O(n)` per target, which is fine for certification. The
//! statistical mode mirrors the same steps on `retime-stat`'s canonical
//! backward pass and full canonical cut propagation.

use retime_liberty::{DelayArc, Sense};
use retime_netlist::{CombCloud, Cut, NodeId};
use retime_sta::{relaunch, DelayModel, SinkClass, TimingAnalysis};
use retime_stat::{StatBackward, StatTiming};

/// Tolerance against `Π`, the classifier's own.
const EPS: f64 = 1e-9;

/// Classifies every sink of `targets` with the full-circuit reference,
/// one target per work item on `threads` workers (`0` = auto). Results
/// are index-aligned with `targets`.
pub(crate) fn reference_classify_many(
    sta: &TimingAnalysis<'_>,
    targets: &[NodeId],
    threads: usize,
) -> Vec<(SinkClass, Vec<NodeId>)> {
    if matches!(sta.delays().model(), DelayModel::Statistical(_)) {
        let st = StatTiming::new(sta.cloud(), sta.delays(), *sta.clock());
        return retime_engine::parallel_map(threads, targets, |&t| {
            reference_classify_stat(&st, &st.backward(t))
        });
    }
    retime_engine::parallel_map(threads, targets, |&t| reference_classify(sta, t))
}

/// `D^b(·, t)` over the whole cloud: `from_output[v]` is the worst delay
/// from `v`'s output to `t`, `through[v]` from `v`'s inputs through `v`
/// to `t`, both per polarity; `None` off the cone.
struct FullBackward {
    sink: NodeId,
    from_output: Vec<Option<DelayArc>>,
    through: Vec<Option<DelayArc>>,
}

fn full_backward(sta: &TimingAnalysis<'_>, t: NodeId) -> FullBackward {
    let cloud = sta.cloud();
    let delays = sta.delays();
    let mut from_output: Vec<Option<DelayArc>> = vec![None; cloud.len()];
    let mut through: Vec<Option<DelayArc>> = vec![None; cloud.len()];
    through[t.index()] = Some(DelayArc::default());
    for &v in cloud.topo().iter().rev() {
        if v == t {
            continue;
        }
        let node = cloud.node(v);
        let mut best: Option<DelayArc> = None;
        for &w in &node.fanout {
            if let Some(thr) = through[w.index()] {
                best = Some(match best {
                    None => thr,
                    Some(acc) => DelayArc {
                        rise: acc.rise.max(thr.rise),
                        fall: acc.fall.max(thr.fall),
                    },
                });
            }
        }
        let Some(fo) = best else { continue };
        from_output[v.index()] = Some(fo);
        if node.is_gate() {
            let arc = delays.arc(v);
            through[v.index()] = Some(match delays.sense(v) {
                Sense::Positive => DelayArc {
                    rise: arc.rise + fo.rise,
                    fall: arc.fall + fo.fall,
                },
                Sense::Negative => DelayArc {
                    rise: arc.fall + fo.fall,
                    fall: arc.rise + fo.rise,
                },
                Sense::NonUnate => {
                    DelayArc::symmetric((arc.rise + fo.rise).max(arc.fall + fo.fall))
                }
            });
        }
    }
    FullBackward {
        sink: t,
        from_output,
        through,
    }
}

/// Eq. (5): the arrival at `t` with the slave on edge `(u, v)`.
fn a_value(sta: &TimingAnalysis<'_>, u: NodeId, v: NodeId, bw: &FullBackward) -> Option<f64> {
    let through = bw.through[v.index()]?;
    let delays = sta.delays();
    let open = sta.clock().slave_open() + delays.latch_ckq();
    let dq = delays.latch_dq();
    let dfu = sta.df_arc(u);
    let window_term = open + through.max();
    let rise_term = dfu.rise + dq + through.rise;
    let fall_term = dfu.fall + dq + through.fall;
    Some(window_term.max(rise_term).max(fall_term))
}

/// The arrival at `t` with the slave at source `s` (the initial place).
fn a_host(sta: &TimingAnalysis<'_>, s: NodeId, bw: &FullBackward) -> Option<f64> {
    if s == bw.sink {
        return None;
    }
    let fo = bw.from_output[s.index()]?;
    let launch = DelayArc::symmetric(sta.delays().launch());
    let re = relaunch(launch, sta.clock(), sta.delays());
    Some((re.rise + fo.rise).max(re.fall + fo.fall))
}

/// The reference classification of sink `t`: never / target with its
/// `g(t)` / always, by the same rule as the fast classifier.
fn reference_classify(sta: &TimingAnalysis<'_>, t: NodeId) -> (SinkClass, Vec<NodeId>) {
    let cloud = sta.cloud();
    let pi = sta.clock().period();
    let bw = full_backward(sta, t);
    let worst_initial = cloud
        .sources()
        .iter()
        .filter_map(|&s| a_host(sta, s, &bw))
        .fold(f64::NEG_INFINITY, f64::max);
    if worst_initial <= pi + EPS {
        return (SinkClass::NeverErrorDetecting, Vec::new());
    }
    let mut g = Vec::new();
    for v in cloud.fanin_cone(t) {
        if v == t {
            continue;
        }
        let node = cloud.node(v);
        let ok_beyond = node
            .fanout
            .iter()
            .any(|&n| matches!(a_value(sta, v, n, &bw), Some(a) if a <= pi + EPS));
        let bad_before = if node.is_source() {
            matches!(a_host(sta, v, &bw), Some(a) if a > pi + EPS)
        } else {
            node.fanin
                .iter()
                .any(|&k| matches!(a_value(sta, k, v, &bw), Some(a) if a > pi + EPS))
        };
        if ok_beyond && bad_before {
            g.push(v);
        }
    }
    g.sort_unstable();
    if g.is_empty() {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    let Some(cut) = canonical_cut(cloud, &g) else {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    };
    let arrival = sta.cut_timing(&cut).sink_arrivals[sink_index(cloud, t)];
    if arrival <= pi + EPS {
        (SinkClass::Target, g)
    } else {
        (SinkClass::AlwaysErrorDetecting, Vec::new())
    }
}

/// Statistical reference: the same steps on margined arrivals, over the
/// full canonical backward pass and a full canonical cut propagation.
fn reference_classify_stat(st: &StatTiming<'_>, sb: &StatBackward) -> (SinkClass, Vec<NodeId>) {
    let cloud = st.cloud();
    let pi = st.period();
    let t = sb.sink();
    if st.worst_initial_margined(sb) <= pi + EPS {
        return (SinkClass::NeverErrorDetecting, Vec::new());
    }
    let mut g = Vec::new();
    for v in cloud.fanin_cone(t) {
        if v == t {
            continue;
        }
        let node = cloud.node(v);
        let ok_beyond = node
            .fanout
            .iter()
            .any(|&n| matches!(st.a_value_margined(v, n, sb), Some(a) if a <= pi + EPS));
        let bad_before = if node.is_source() {
            matches!(st.a_host_margined(v, sb), Some(a) if a > pi + EPS)
        } else {
            node.fanin
                .iter()
                .any(|&k| matches!(st.a_value_margined(k, v, sb), Some(a) if a > pi + EPS))
        };
        if ok_beyond && bad_before {
            g.push(v);
        }
    }
    g.sort_unstable();
    if g.is_empty() {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    let Some(cut) = canonical_cut(cloud, &g) else {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    };
    let canons = st.cut_sink_canons(&cut);
    if st.margined(&canons[sink_index(cloud, t)]) <= pi + EPS {
        (SinkClass::Target, g)
    } else {
        (SinkClass::AlwaysErrorDetecting, Vec::new())
    }
}

/// The cut moving the union of `fanin_cone(gv)` over `g`, or `None` when
/// [`Cut::validate`] rejects it.
fn canonical_cut(cloud: &CombCloud, g: &[NodeId]) -> Option<Cut> {
    let mut cut = Cut::initial(cloud);
    for &gv in g {
        for u in cloud.fanin_cone(gv) {
            cut.set_moved(u, true);
        }
    }
    cut.validate(cloud).ok().map(|()| cut)
}

fn sink_index(cloud: &CombCloud, t: NodeId) -> usize {
    cloud
        .sinks()
        .iter()
        .position(|&x| x == t)
        .expect("t is a sink")
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use retime_circuits::SynthConfig;
    use retime_core::classify_many;
    use retime_liberty::Library;
    use retime_sta::{StatParams, TwoPhaseClock};

    use super::*;

    fn small_config() -> impl Strategy<Value = SynthConfig> {
        (
            2usize..14,  // flops
            20usize..90, // gates
            2usize..6,   // inputs
            1usize..4,   // outputs
            0usize..4,   // deep sinks
            any::<u64>(),
        )
            .prop_map(|(flops, gates, inputs, outputs, deep, seed)| SynthConfig {
                name: "ref".into(),
                flops,
                gates,
                inputs,
                outputs,
                levels: 10,
                deep_sinks: deep.min(flops),
                hard_sinks: 0,
                seed,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The cone-local fast classifier equals the full-circuit
        /// reference on every sink, at one and at four threads, under
        /// both deterministic delay models and the statistical one, at
        /// clocks spanning never / target / always endpoints.
        #[test]
        fn classify_many_matches_reference(cfg in small_config(), scale_pct in 70u32..160) {
            let n = cfg.generate().expect("generates");
            let cloud = CombCloud::extract(&n).expect("extracts");
            let lib = Library::fdsoi28();
            let unit = TwoPhaseClock::from_max_delay(1.0);
            let probe = TimingAnalysis::new(&cloud, &lib, unit, DelayModel::PathBased)
                .expect("sta builds");
            let crit = cloud.sinks().iter().map(|&t| probe.df(t)).fold(0.0f64, f64::max);
            let clock = TwoPhaseClock::from_max_delay(crit * f64::from(scale_pct) / 100.0 + 0.02);
            let sinks = cloud.sinks().to_vec();
            for model in [
                DelayModel::PathBased,
                DelayModel::GateBased,
                DelayModel::Statistical(StatParams::new(0.05, 0.01, 0.9987, 7)),
            ] {
                let sta = TimingAnalysis::new(&cloud, &lib, clock, model).expect("sta builds");
                let reference = reference_classify_many(&sta, &sinks, 1);
                for threads in [1, 4] {
                    let fast = classify_many(&sta, &sinks, threads);
                    for (i, (got, want)) in fast.iter().zip(&reference).enumerate() {
                        prop_assert_eq!(
                            got, want,
                            "sink {} ({}) under {:?} at {} threads",
                            i, &cloud.node(sinks[i]).name, model, threads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reference_sees_every_class() {
        // A deep chain into one flop, swept across the period: the
        // reference must produce never, target, and always somewhere, so
        // the proptest's agreement is not vacuous.
        let cfg = SynthConfig {
            name: "classes".into(),
            flops: 8,
            gates: 80,
            inputs: 4,
            outputs: 2,
            levels: 12,
            deep_sinks: 3,
            hard_sinks: 0,
            seed: 11,
        };
        let cloud = CombCloud::extract(&cfg.generate().unwrap()).unwrap();
        let lib = Library::fdsoi28();
        let unit = TwoPhaseClock::from_max_delay(1.0);
        let probe = TimingAnalysis::new(&cloud, &lib, unit, DelayModel::PathBased).unwrap();
        let crit = cloud
            .sinks()
            .iter()
            .map(|&t| probe.df(t))
            .fold(0.0f64, f64::max);
        let mut seen = [false; 3];
        for pct in (60..=200).step_by(5) {
            let clock = TwoPhaseClock::from_max_delay(crit * f64::from(pct) / 100.0);
            let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
            let sinks = cloud.sinks().to_vec();
            let reference = reference_classify_many(&sta, &sinks, 1);
            assert_eq!(classify_many(&sta, &sinks, 2), reference, "period {pct}%");
            for (class, _) in reference {
                seen[match class {
                    SinkClass::NeverErrorDetecting => 0,
                    SinkClass::Target => 1,
                    SinkClass::AlwaysErrorDetecting => 2,
                }] = true;
            }
        }
        assert_eq!(seen, [true; 3], "never / target / always all occur");
    }
}
