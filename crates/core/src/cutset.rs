//! The target-master cut-set `g(t)` of Eqs. (8)–(9), in both the
//! deterministic and the statistical (margined-arrival) formulations.

use retime_liberty::DelayArc;
use retime_netlist::{CombCloud, ConeWalker, Cut, NodeId};
use retime_sta::{BackwardPass, DelayModel, SinkClass, TimingAnalysis};
use retime_stat::{StatBackward, StatTiming};

/// Small tolerance absorbing floating-point noise against `Π`.
const EPS: f64 = 1e-9;

/// Computes `g(t)` for the sink of `bp`:
///
/// ```text
/// g(t) = { v | ∃ n ∈ FO(v): A(v, n, t) ≤ Π   ∧   ∃ k ∈ FI(v): A(k, v, t) > Π }
/// ```
///
/// i.e. the frontier of gates beyond which a slave latch keeps the master
/// non-error-detecting. For a source node the "fanin" side is the host
/// edge: the latch sitting at the source itself
/// ([`TimingAnalysis::a_host`]).
///
/// Returns an empty set when the master is unconditionally error-detecting
/// (even the latest placements exceed `Π`) or unconditionally safe (even
/// the source placements meet `Π`) — callers should have classified the
/// sink first ([`TimingAnalysis::classify_sink`]).
pub fn cut_set(sta: &TimingAnalysis<'_>, bp: &BackwardPass) -> Vec<NodeId> {
    let t = bp.sink();
    let pi = sta.clock().period();
    let cloud = sta.cloud();
    let mut out = Vec::new();
    for &v in bp.cone() {
        if v == t {
            continue;
        }
        let node = cloud.node(v);
        // ∃ fanout edge whose latch placement meets Π.
        let ok_beyond = node
            .fanout
            .iter()
            .any(|&n| matches!(sta.a_value(v, n, bp), Some(a) if a <= pi + EPS));
        if !ok_beyond {
            continue;
        }
        // ∃ fanin-side placement that violates Π.
        let bad_before = if node.is_source() {
            matches!(sta.a_host(v, bp), Some(a) if a > pi + EPS)
        } else {
            node.fanin
                .iter()
                .any(|&k| matches!(sta.a_value(k, v, bp), Some(a) if a > pi + EPS))
        };
        if bad_before {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

/// Authoritative endpoint classification for G-RAR, refining
/// [`TimingAnalysis::classify_sink`] with the full Eq. (5) model:
///
/// * **never** error-detecting: even the initial (source) placements meet
///   `Π`;
/// * **target**: `g(t)` is non-empty *and separates every source from
///   `t`* — only then does "all slaves beyond `g(t)`" guarantee a
///   non-error-detecting master, making the pseudo-node reward sound;
/// * **always** error-detecting otherwise (including the case where the
///   latch D-to-Q delay alone pushes every placement past `Π`, which the
///   coarse pure-path test misses).
pub fn classify_and_cut_set(
    sta: &TimingAnalysis<'_>,
    bp: &BackwardPass,
) -> (SinkClass, Vec<NodeId>) {
    classify_in_cone(sta, bp, &mut ConeWalker::new(sta.cloud()), &mut Vec::new())
}

/// [`classify_and_cut_set`] with caller-owned scratch: `closure` walks
/// the fan-in closure of `g(t)` and `arrivals` holds the cone-local
/// propagation, so the work per target is `O(|cone(t)| + edges in it)`.
fn classify_in_cone(
    sta: &TimingAnalysis<'_>,
    bp: &BackwardPass,
    closure: &mut ConeWalker,
    arrivals: &mut Vec<DelayArc>,
) -> (SinkClass, Vec<NodeId>) {
    let pi = sta.clock().period();
    let cloud = sta.cloud();
    // Sources outside the cone have no `a_host`, so the cone's sources
    // give the circuit-wide maximum.
    let worst_initial = bp
        .cone()
        .iter()
        .filter(|&&s| cloud.node(s).is_source())
        .filter_map(|&s| sta.a_host(s, bp))
        .fold(f64::NEG_INFINITY, f64::max);
    if worst_initial <= pi + EPS {
        return (SinkClass::NeverErrorDetecting, Vec::new());
    }
    let g = cut_set(sta, bp);
    if g.is_empty() {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    // Soundness check for the pseudo-node reward: evaluate the *canonical*
    // cut that moves exactly the fan-in closure of g(t) (the minimal
    // movement past the frontier) and verify the arrival at t actually
    // meets Π under the full timing model. This is exact for the cut the
    // pseudo node promises, including tap branches whose safe positions
    // lie beyond the frontier.
    if !walk_canonical_closure(cloud, &g, closure) {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    if sta.sink_arrival_with_moved(bp, closure, arrivals) <= pi + EPS {
        (SinkClass::Target, g)
    } else {
        (SinkClass::AlwaysErrorDetecting, Vec::new())
    }
}

/// Walks the fan-in closure of `g` — the nodes the canonical cut moves
/// the latches through — and reports whether that cut is valid. A
/// fan-in closure satisfies [`Cut::validate`]'s edge rule by
/// construction, so the cut is invalid exactly when it moves a sink.
fn walk_canonical_closure(cloud: &CombCloud, g: &[NodeId], closure: &mut ConeWalker) -> bool {
    !closure
        .walk(cloud, g)
        .iter()
        .any(|&v| cloud.node(v).is_sink())
}

/// Statistical mirror of [`cut_set`]: the same frontier construction with
/// every placement arrival replaced by its *margined* value
/// `m + Φ⁻¹(yield target)·σ_tot`, so "beyond the frontier" means "meets
/// the period at the target yield". At sigma = 0 the margined arrivals
/// are bitwise the deterministic ones and the two frontiers coincide.
pub fn cut_set_stat(st: &StatTiming<'_>, sb: &StatBackward) -> Vec<NodeId> {
    let t = sb.sink();
    let pi = st.period();
    let cloud = st.cloud();
    let mut out = Vec::new();
    for v in cloud.fanin_cone(t) {
        if v == t {
            continue;
        }
        let node = cloud.node(v);
        let ok_beyond = node
            .fanout
            .iter()
            .any(|&n| matches!(st.a_value_margined(v, n, sb), Some(a) if a <= pi + EPS));
        if !ok_beyond {
            continue;
        }
        let bad_before = if node.is_source() {
            matches!(st.a_host_margined(v, sb), Some(a) if a > pi + EPS)
        } else {
            node.fanin
                .iter()
                .any(|&k| matches!(st.a_value_margined(k, v, sb), Some(a) if a > pi + EPS))
        };
        if bad_before {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

/// Statistical mirror of [`classify_and_cut_set`]: classification by
/// margined arrivals — **never** error-detecting means even the initial
/// placements meet `Π` *at the target yield*, and the canonical-cut
/// soundness check re-propagates the cut in canonical arithmetic and
/// tests the margined with-cut sink arrival.
pub fn classify_and_cut_set_stat(
    st: &StatTiming<'_>,
    sb: &StatBackward,
) -> (SinkClass, Vec<NodeId>) {
    classify_stat_with(st, sb, &mut ConeWalker::new(st.cloud()))
}

/// [`classify_and_cut_set_stat`] with a caller-owned closure walker.
/// Only the closure walk and the validity check are local; the canonical
/// re-propagation of the cut stays full-circuit.
fn classify_stat_with(
    st: &StatTiming<'_>,
    sb: &StatBackward,
    closure: &mut ConeWalker,
) -> (SinkClass, Vec<NodeId>) {
    let t = sb.sink();
    let pi = st.period();
    let cloud = st.cloud();
    let worst_initial = st.worst_initial_margined(sb);
    if worst_initial <= pi + EPS {
        return (SinkClass::NeverErrorDetecting, Vec::new());
    }
    let g = cut_set_stat(st, sb);
    if g.is_empty() {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    if !walk_canonical_closure(cloud, &g, closure) {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    let mut cut = Cut::initial(cloud);
    for &u in closure.nodes() {
        cut.set_moved(u, true);
    }
    let canons = st.cut_sink_canons(&cut);
    let sink_idx = cloud
        .sinks()
        .iter()
        .position(|&x| x == t)
        .expect("t is a sink");
    if st.margined(&canons[sink_idx]) <= pi + EPS {
        (SinkClass::Target, g)
    } else {
        (SinkClass::AlwaysErrorDetecting, Vec::new())
    }
}

/// Batch form of [`classify_and_cut_set`]: classifies every target sink,
/// fanning the per-target backward pass and the cut-set construction out
/// across `threads` workers (`0` = auto, honoring `RETIME_THREADS`).
/// Each worker owns one scratch — a [`BackwardPass`] it re-runs per
/// target, a closure walker, and an arrival buffer — so a target costs
/// `O(|cone(t)| + edges in it)` and nothing of size `O(n)` is allocated
/// or swept per target.
///
/// Results are index-aligned with `targets`; parallel and sequential runs
/// produce bit-identical classes and cut-sets (asserted by the
/// `parallel_classify_matches_sequential` property test), and both equal
/// the full-circuit reference classifier in `retime-verify`.
///
/// Under [`DelayModel::Statistical`] the statistical mirrors run
/// instead: one shared [`StatTiming`] (the canonical pure arrivals are
/// common to every target) and one fused canonical backward pass +
/// margined classification per target.
///
/// # Panics
/// Panics if any target is not a sink.
pub fn classify_many(
    sta: &TimingAnalysis<'_>,
    targets: &[NodeId],
    threads: usize,
) -> Vec<(SinkClass, Vec<NodeId>)> {
    let cloud = sta.cloud();
    if matches!(sta.delays().model(), DelayModel::Statistical(_)) {
        let st = StatTiming::new(cloud, sta.delays(), *sta.clock());
        return retime_engine::parallel_map_with(
            threads,
            targets,
            || ConeWalker::new(cloud),
            |closure, &t| {
                let sb = st.backward(t);
                classify_stat_with(&st, &sb, closure)
            },
        );
    }
    retime_engine::parallel_map_with(
        threads,
        targets,
        || (None::<BackwardPass>, ConeWalker::new(cloud), Vec::new()),
        |(bp, closure, arrivals), &t| {
            let bp = match bp {
                Some(bp) => {
                    bp.rerun(cloud, sta.delays(), t);
                    bp
                }
                None => bp.insert(sta.backward(t)),
            };
            classify_in_cone(sta, bp, closure, arrivals)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

    fn chain(len: usize) -> CombCloud {
        let mut src = String::from("INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\n");
        for i in 2..=len {
            src.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
        }
        src.push_str(&format!("z = BUFF(g{len})\n"));
        CombCloud::extract(&bench::parse("c", &src).unwrap()).unwrap()
    }

    #[test]
    fn cut_set_on_target_is_frontier() {
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        // Clock between the never-ED and always-ED extremes.
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        // Π = 0.7 P must sit above the best achievable arrival, which
        // includes the latch D-to-Q: pick Π ≈ 1.1 × (crit + d_q).
        let p = 1.1 * (crit + lib.latch().d_to_q) / 0.7;
        let clock = TwoPhaseClock::from_max_delay(p);
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let bp = sta.backward(t);
        let (class, g) = classify_and_cut_set(&sta, &bp);
        assert_eq!(class, SinkClass::Target);
        assert!(!g.is_empty(), "a target must have a non-empty frontier");
        // On a pure chain the frontier is a single node, and placing the
        // latch just beyond it meets Π while just before violates it.
        assert_eq!(g.len(), 1);
        let v = g[0];
        let pi = sta.clock().period();
        let n = cloud.node(v).fanout[0];
        assert!(sta.a_value(v, n, &bp).unwrap() <= pi + 1e-9);
    }

    #[test]
    fn relaxed_clock_never_needs_frontier() {
        let cloud = chain(6);
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(100.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let bp = sta.backward(t);
        assert_eq!(sta.classify_sink(t, &bp), SinkClass::NeverErrorDetecting);
        assert!(cut_set(&sta, &bp).is_empty());
    }

    #[test]
    fn overconstrained_clock_has_empty_frontier() {
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        // Π < pure path: always error-detecting, no frontier.
        let clock = TwoPhaseClock::from_max_delay(crit * 0.8);
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let bp = sta.backward(t);
        assert_eq!(sta.classify_sink(t, &bp), SinkClass::AlwaysErrorDetecting);
        assert!(cut_set(&sta, &bp).is_empty());
    }

    #[test]
    fn sigma_zero_stat_classification_matches_gate_based() {
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::GateBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        let zero = DelayModel::Statistical(retime_sta::StatParams::new(0.0, 0.0, 0.9987, 3));
        // Sweep periods crossing never/target/always so every class is hit.
        for scale in [0.8, 1.0, 1.3, 1.8, 4.0] {
            let clock = TwoPhaseClock::from_max_delay(scale * (crit + lib.latch().d_to_q) / 0.7);
            let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
            let sat = TimingAnalysis::new(&cloud, &lib, clock, zero).unwrap();
            let bp = det.backward(t);
            let st = StatTiming::new(sat.cloud(), sat.delays(), clock);
            let sb = st.backward(t);
            assert_eq!(
                classify_and_cut_set(&det, &bp),
                classify_and_cut_set_stat(&st, &sb),
                "scale {scale}"
            );
            assert_eq!(
                classify_many(&det, &[t], 1),
                classify_many(&sat, &[t], 1),
                "classify_many dispatch at scale {scale}"
            );
        }
    }

    #[test]
    fn margins_shrink_or_keep_target_window() {
        // With real sigma, "never" endpoints can only become targets or
        // always-ED — margins never make a sink look *safer*.
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::GateBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        let model = DelayModel::Statistical(retime_sta::StatParams::new(0.05, 0.0, 0.9987, 3));
        for scale in [1.0, 1.3, 1.8, 4.0] {
            let clock = TwoPhaseClock::from_max_delay(scale * (crit + lib.latch().d_to_q) / 0.7);
            let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
            let sat = TimingAnalysis::new(&cloud, &lib, clock, model).unwrap();
            let bp = det.backward(t);
            let st = StatTiming::new(sat.cloud(), sat.delays(), clock);
            let sb = st.backward(t);
            let (dc, _) = classify_and_cut_set(&det, &bp);
            let (sc, _) = classify_and_cut_set_stat(&st, &sb);
            let rank = |c: SinkClass| match c {
                SinkClass::NeverErrorDetecting => 0,
                SinkClass::Target => 1,
                SinkClass::AlwaysErrorDetecting => 2,
            };
            assert!(rank(sc) >= rank(dc), "scale {scale}: {dc:?} -> {sc:?}");
        }
    }

    #[test]
    fn frontier_separates_source_from_sink() {
        // Every source→t path must pass through g(t) when non-empty.
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        let p = 1.1 * (crit + lib.latch().d_to_q) / 0.7;
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(p),
            DelayModel::PathBased,
        )
        .unwrap();
        let bp = sta.backward(t);
        let (_, g) = classify_and_cut_set(&sta, &bp);
        assert!(!g.is_empty());
        // Walk the chain from the source; we must encounter a g(t) node
        // before reaching t.
        let mut v = cloud.sources()[0];
        let mut crossed = false;
        loop {
            if g.contains(&v) {
                crossed = true;
            }
            let node = cloud.node(v);
            let next = node
                .fanout
                .iter()
                .copied()
                .find(|&w| bp.in_cone(w))
                .unwrap_or(t);
            if next == t {
                break;
            }
            v = next;
        }
        assert!(crossed, "the frontier must separate sources from the sink");
    }
}
