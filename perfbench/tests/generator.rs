//! The workload generator is deterministic for a fixed seed and varies
//! its synthetic netlists with the seed.

use perfbench::gen::{circuit_order, OpKind, RoundMix, ServePlan};

fn stream(seed: u64) -> Vec<String> {
    let plan = ServePlan::new(seed, RoundMix::SMOKE);
    (0..3)
        .flat_map(|r| plan.round(r))
        .map(|op| op.line)
        .chain((0..3).map(|i| plan.fill_line(i)))
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_stream_and_order() {
    assert_eq!(stream(7), stream(7));
    assert_eq!(circuit_order(7, 0, 12), circuit_order(7, 0, 12));
    let mut sorted = circuit_order(7, 1, 12);
    sorted.sort_unstable();
    assert_eq!(sorted, (0..12).collect::<Vec<_>>());
}

#[test]
fn different_seed_gives_different_netlists() {
    let fresh = |seed| {
        let plan = ServePlan::new(seed, RoundMix::SMOKE);
        plan.round(0)
            .into_iter()
            .filter(|op| matches!(op.kind, OpKind::Miss | OpKind::Convert))
            .map(|op| op.line)
            .collect::<Vec<_>>()
    };
    let (a, b) = (fresh(1), fresh(2));
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    assert_ne!(circuit_order(1, 0, 12), circuit_order(2, 0, 12));
}

#[test]
fn every_eco_follows_a_miss() {
    let plan = ServePlan::new(3, RoundMix::FULL);
    for r in 0..4 {
        let (mut misses, mut ecos) = (0, 0);
        for op in plan.round(r) {
            match op.kind {
                OpKind::Miss => misses += 1,
                OpKind::Eco => {
                    ecos += 1;
                    assert!(ecos <= misses, "round {r}: ECO before its miss");
                }
                _ => {}
            }
        }
    }
}
