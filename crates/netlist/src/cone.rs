//! Fan-in closures on a [`CombCloud`], walked locally.
//!
//! Per-endpoint analysis only ever looks at the fan-in cone of one sink
//! `t` (the paper's `FIC(t)`) or at the fan-in closure of a frontier
//! `g(t)` inside it. Both are small next to the circuit, so a
//! [`ConeWalker`] finds them with a marked reverse DFS whose marks are
//! epoch stamps: a walk costs `O(|closure| + edges into it)` and starting
//! the next walk clears nothing. One walker is built per cloud (and per
//! worker thread) and reused across all its walks.

use crate::cloud::{CombCloud, NodeId};

/// A reusable marked reverse-DFS walker over one [`CombCloud`].
///
/// [`ConeWalker::walk`] collects the fan-in closure of a set of roots —
/// the roots and every node with a path into one of them — and returns
/// it in the cloud's topological order ([`CombCloud::topo`] restricted to
/// the closure), so forward sweeps can run over it front to back and
/// backward sweeps back to front. Membership of the last walk is an
/// `O(1)` [`ConeWalker::contains`] query.
#[derive(Debug, Clone)]
pub struct ConeWalker {
    /// Per-node epoch stamp; a node is in the last walk iff its stamp
    /// equals `epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    nodes: Vec<NodeId>,
}

impl ConeWalker {
    /// A walker for `cloud` with an empty last walk.
    pub fn new(cloud: &CombCloud) -> ConeWalker {
        ConeWalker {
            stamp: vec![0; cloud.len()],
            epoch: 1,
            stack: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Walks the fan-in closure of `roots` (roots included) and returns
    /// it in topological order. Duplicate roots are harmless.
    ///
    /// # Panics
    /// Panics if the walker was built for a cloud of another size.
    pub fn walk(&mut self, cloud: &CombCloud, roots: &[NodeId]) -> &[NodeId] {
        assert_eq!(
            self.stamp.len(),
            cloud.len(),
            "walker was built for another cloud"
        );
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.nodes.clear();
        for &r in roots {
            if self.stamp[r.index()] != epoch {
                self.stamp[r.index()] = epoch;
                self.stack.push(r);
            }
        }
        while let Some(u) = self.stack.pop() {
            self.nodes.push(u);
            for &p in &cloud.node(u).fanin {
                if self.stamp[p.index()] != epoch {
                    self.stamp[p.index()] = epoch;
                    self.stack.push(p);
                }
            }
        }
        self.nodes.sort_unstable_by_key(|&v| cloud.topo_pos(v));
        &self.nodes
    }

    /// The last walk's closure, in topological order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether `v` lies in the last walk's closure.
    pub fn contains(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::cell::{CellId, Gate};
    use crate::netlist::Netlist;

    /// Builds a cloud from named cells listed in dependency order:
    /// primary inputs, then `(name, gate, fanin names)` gates, then
    /// `(output name, driver name)` primary outputs. A duplicate or
    /// undeclared name is a bug in the test and panics.
    fn make_cloud(
        inputs: &[&'static str],
        gates: &[(&'static str, Gate, &[&'static str])],
        outputs: &[(&'static str, &'static str)],
    ) -> CombCloud {
        fn declare(ids: &mut HashMap<&'static str, CellId>, name: &'static str, id: CellId) {
            assert!(ids.insert(name, id).is_none(), "duplicate cell {name}");
        }
        let lookup = |ids: &HashMap<&'static str, CellId>, name: &str| {
            *ids.get(name)
                .unwrap_or_else(|| panic!("cell {name} used before it is declared"))
        };
        let mut n = Netlist::new("walker");
        let mut ids: HashMap<&'static str, CellId> = HashMap::new();
        for &name in inputs {
            let id = n.add_input(name);
            declare(&mut ids, name, id);
        }
        for &(name, gate, fanin) in gates {
            let fanin: Vec<CellId> = fanin.iter().map(|f| lookup(&ids, f)).collect();
            let id = n.add_gate(name, gate, &fanin).expect("legal gate");
            declare(&mut ids, name, id);
        }
        for &(name, driver) in outputs {
            let id = n
                .add_output(name, lookup(&ids, driver))
                .expect("fresh output");
            declare(&mut ids, name, id);
        }
        CombCloud::extract(&n).expect("acyclic")
    }

    /// Two outputs sharing a middle gate:
    ///
    /// ```text
    /// a ─┬─ g1 ─┬─ g3 ── y
    /// b ─┘      │
    /// c ── g2 ──┴─ g4 ── z
    /// ```
    fn diamond() -> CombCloud {
        make_cloud(
            &["a", "b", "c"],
            &[
                ("g1", Gate::And, &["a", "b"]),
                ("g2", Gate::Not, &["c"]),
                ("g3", Gate::Not, &["g1"]),
                ("g4", Gate::Or, &["g1", "g2"]),
            ],
            &[("y", "g3"), ("z", "g4")],
        )
    }

    fn names(cloud: &CombCloud, nodes: &[NodeId]) -> Vec<String> {
        let mut v: Vec<String> = nodes.iter().map(|&n| cloud.node(n).name.clone()).collect();
        v.sort();
        v
    }

    fn assert_topological(cloud: &CombCloud, nodes: &[NodeId]) {
        for pair in nodes.windows(2) {
            assert!(cloud.topo_pos(pair[0]) < cloud.topo_pos(pair[1]));
        }
        for (i, &v) in nodes.iter().enumerate() {
            for &p in &cloud.node(v).fanin {
                if let Some(j) = nodes.iter().position(|&x| x == p) {
                    assert!(j < i, "fanin listed after its reader");
                }
            }
        }
    }

    #[test]
    fn cone_of_sink_in_topological_order() {
        let cloud = diamond();
        let y = cloud.find("y").unwrap();
        let mut w = ConeWalker::new(&cloud);
        let cone = w.walk(&cloud, &[y]).to_vec();
        assert_eq!(names(&cloud, &cone), ["a", "b", "g1", "g3", "y"]);
        assert_topological(&cloud, &cone);
        assert_eq!(*cone.last().unwrap(), y, "the root is the cone's last node");
        assert!(w.contains(cloud.find("g1").unwrap()));
        assert!(!w.contains(cloud.find("g2").unwrap()));
        assert!(!w.contains(cloud.find("z").unwrap()));
    }

    #[test]
    fn multi_root_closure_is_union_of_cones() {
        let cloud = diamond();
        let roots = [cloud.find("g3").unwrap(), cloud.find("g2").unwrap()];
        let mut w = ConeWalker::new(&cloud);
        let closure = w.walk(&cloud, &roots).to_vec();
        assert_eq!(names(&cloud, &closure), ["a", "b", "c", "g1", "g2", "g3"]);
        assert_topological(&cloud, &closure);
        let mut union: Vec<NodeId> = roots.iter().flat_map(|&r| cloud.fanin_cone(r)).collect();
        union.sort_unstable();
        union.dedup();
        let mut got = closure.clone();
        got.sort_unstable();
        assert_eq!(got, union);
        // Duplicated and nested roots change nothing.
        let again = w.walk(
            &cloud,
            &[roots[0], roots[1], roots[0], cloud.find("a").unwrap()],
        );
        assert_eq!(again, closure.as_slice());
    }

    #[test]
    fn scratch_reuse_forgets_the_previous_walk() {
        let cloud = diamond();
        let (y, z) = (cloud.find("y").unwrap(), cloud.find("z").unwrap());
        let mut w = ConeWalker::new(&cloud);
        assert!(w.nodes().is_empty());
        assert!(!w.contains(y), "a fresh walker holds nothing");
        w.walk(&cloud, &[y]);
        let z_cone = w.walk(&cloud, &[z]).to_vec();
        assert_eq!(
            names(&cloud, &z_cone),
            ["a", "b", "c", "g1", "g2", "g4", "z"]
        );
        // Nodes only y's cone held are gone.
        assert!(!w.contains(cloud.find("g3").unwrap()));
        assert!(!w.contains(y));
        // A fresh walker agrees with the reused one on every sink.
        for &t in cloud.sinks() {
            let reused = w.walk(&cloud, &[t]).to_vec();
            let fresh = ConeWalker::new(&cloud).walk(&cloud, &[t]).to_vec();
            assert_eq!(reused, fresh);
        }
        // An empty root set is an empty closure.
        assert!(w.walk(&cloud, &[]).is_empty());
        assert!(!w.contains(cloud.find("a").unwrap()));
    }

    #[test]
    fn epoch_wraparound_clears_stale_marks() {
        let cloud = diamond();
        let (y, z) = (cloud.find("y").unwrap(), cloud.find("z").unwrap());
        let mut w = ConeWalker::new(&cloud);
        w.walk(&cloud, &[y]);
        // Jump to the last epoch: the next walk must wrap and still see
        // only its own closure.
        w.epoch = u32::MAX;
        w.stamp.iter_mut().for_each(|s| {
            if *s != 0 {
                *s = u32::MAX - 1;
            }
        });
        let cone = w.walk(&cloud, &[z]).to_vec();
        assert_eq!(names(&cloud, &cone), ["a", "b", "c", "g1", "g2", "g4", "z"]);
        assert!(!w.contains(y));
    }
}
