//! Seeded, deterministic workload generator.
//!
//! Everything a run feeds the program derives from `--seed` through
//! [`SplitMix64`] streams keyed by `(seed, round, slot)`: the same seed
//! gives a byte-identical circuit order and serve request stream, a
//! different seed gives different synthetic netlists.

use retime_circuits::SynthConfig;
use retime_liberty::EdlOverhead;
use retime_netlist::{bench, Netlist};
use retime_serve::json::{obj, Json};
use retime_serve::{CircuitRef, InputFormat, JobSpec};
use retime_sta::DelayModel;
use retime_verify::FlowKind;

/// A small, fast, well-mixed 64-bit generator (Steele/Lea/Flood
/// SplitMix64). Independent of the program's own RNG so the inputs do
/// not move when the program's generator changes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream keyed by several words (seed, round, slot, …).
    pub fn keyed(words: &[u64]) -> SplitMix64 {
        let mut s = SplitMix64(0x6a09_e667_f3bc_c908);
        for &w in words {
            s.0 ^= w;
            s.0 = s.next_u64();
        }
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}

/// The circuit order of one batch pass: a seeded permutation of
/// `0..n`, different per pass.
pub fn circuit_order(seed: u64, round: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SplitMix64::keyed(&[seed, 0x7461_6231, round as u64]).shuffle(&mut order);
    order
}

/// The `j`-th netlist size of a run: a golden-ratio (low-discrepancy)
/// walk over `lo..=hi`, so every run and every seed covers the size
/// range evenly and size-dependent costs do not drift with the seed.
pub fn stratified(lo: usize, hi: usize, j: usize) -> usize {
    let frac = (j as f64 * 0.618_033_988_749_895).fract();
    lo + (frac * (hi - lo + 1) as f64) as usize
}

/// A seeded synthetic edge-triggered netlist with `flops` flip-flops,
/// shaped like the paper suite's mid-size circuits; the seed picks its
/// structure.
pub fn synth_config(rng: &mut SplitMix64, name: String, flops: usize) -> SynthConfig {
    SynthConfig {
        name,
        flops,
        gates: flops * 3 + rng.range(0, flops / 4),
        inputs: rng.range(16, 32),
        outputs: rng.range(16, 32),
        levels: rng.range(28, 36),
        deep_sinks: flops / 4 + rng.range(0, flops / 16),
        hard_sinks: rng.range(0, 2),
        seed: rng.next_u64(),
    }
}

/// Generates a synthetic netlist.
///
/// # Panics
/// Panics if the generator rejects the configuration (a bug in
/// [`synth_config`]).
pub fn synth(cfg: &SynthConfig) -> Netlist {
    cfg.generate().expect("synthetic configuration generates")
}

/// `.bench` text of `n` with its gate statements in a seeded order —
/// the same circuit, so the same serve cache key, in different bytes.
pub fn shuffled_bench(n: &Netlist, rng: &mut SplitMix64) -> String {
    let text = bench::write(n);
    let (mut head, mut gates) = (Vec::new(), Vec::new());
    for line in text.lines() {
        if line.contains(" = ") {
            gates.push(line);
        } else {
            head.push(line);
        }
    }
    rng.shuffle(&mut gates);
    head.extend(gates);
    let mut out = head.join("\n");
    out.push('\n');
    out
}

/// The request kinds of the `serve_mix` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Memory-tier hit on a named suite circuit.
    SuiteHit,
    /// Memory-tier hit on inline `.bench` text (pays canonicalization
    /// and SHA-256 on every submission).
    InlineHit,
    /// Hit answered by the disk tier (evicted from memory between
    /// visits).
    DiskHit,
    /// Cold miss on a fresh synthetic netlist.
    Miss,
    /// The netlist of an earlier miss re-submitted at a new `c` (served
    /// from the serve warm pool when it still holds the basis).
    Eco,
    /// A fresh edge-triggered EDIF netlist submitted with
    /// `"convert":true`.
    Convert,
}

impl OpKind {
    /// All kinds, in report order.
    pub const ALL: [OpKind; 6] = [
        OpKind::SuiteHit,
        OpKind::InlineHit,
        OpKind::DiskHit,
        OpKind::Miss,
        OpKind::Eco,
        OpKind::Convert,
    ];

    /// Stable class name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::SuiteHit => "suite_hit",
            OpKind::InlineHit => "inline_hit",
            OpKind::DiskHit => "disk_hit",
            OpKind::Miss => "miss",
            OpKind::Eco => "eco",
            OpKind::Convert => "convert",
        }
    }
}

/// One request of the serve stream: its kind, the job it asks for, and
/// the exact `submit` line sent.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOp {
    /// Request class.
    pub kind: OpKind,
    /// The job the line asks for (what the output check executes).
    pub spec: JobSpec,
    /// The NDJSON `submit` line.
    pub line: String,
}

impl ServeOp {
    fn new(kind: OpKind, spec: JobSpec) -> ServeOp {
        let line = submit_line(&spec);
        ServeOp { kind, spec, line }
    }
}

/// How many requests of each kind one serve round holds, and the
/// netlist sizes of its fresh circuits.
#[derive(Debug, Clone, Copy)]
pub struct RoundMix {
    /// Named suite hits.
    pub suite_hits: usize,
    /// Inline `.bench` hits.
    pub inline_hits: usize,
    /// Disk-tier hits.
    pub disk_hits: usize,
    /// Cold misses.
    pub misses: usize,
    /// ECO re-spins (≤ `misses`).
    pub ecos: usize,
    /// EDIF convert submissions.
    pub converts: usize,
    /// Fresh-netlist flop range.
    pub flops: (usize, usize),
}

impl RoundMix {
    /// The benchmark's round: 32 requests.
    pub const FULL: RoundMix = RoundMix {
        suite_hits: 12,
        inline_hits: 6,
        disk_hits: 4,
        misses: 4,
        ecos: 3,
        converts: 3,
        flops: (100, 200),
    };

    /// A tiny round for smoke tests.
    pub const SMOKE: RoundMix = RoundMix {
        suite_hits: 2,
        inline_hits: 2,
        disk_hits: 1,
        misses: 1,
        ecos: 1,
        converts: 1,
        flops: (20, 40),
    };

    /// Requests per round.
    pub fn len(&self) -> usize {
        self.suite_hits
            + self.inline_hits
            + self.disk_hits
            + self.misses
            + self.ecos
            + self.converts
    }

    /// Whether the round is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The fixed hit working set of a serve run: the keys the set-up primes.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Named suite submissions kept hot in memory.
    pub suite: Vec<ServeOp>,
    /// Inline `.bench` submissions kept hot: per circuit, several
    /// statement orders of the same netlist.
    pub inline: Vec<Vec<ServeOp>>,
    /// Named submissions visited rarely enough to fall out of memory.
    pub disk: Vec<ServeOp>,
    /// Request counts per round.
    pub mix: RoundMix,
    /// The run seed.
    pub seed: u64,
}

/// Circuits of the named hot set.
pub const SUITE_HOT: [&str; 4] = ["s1196", "s1238", "s1423", "s1488"];
/// Circuits of the disk set.
const SUITE_DISK: [&str; 2] = ["s1488", "s1196"];
/// Overheads of the disk set (none is a hot-set overhead).
const DISK_C: [f64; 8] = [0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4];
/// Flop range of the fresh netlists that fill the serve warm pool during
/// set-up (small, so filling is cheap).
const FILL_FLOPS: (usize, usize) = (20, 40);
/// Inline hot circuits and statement orders of each.
const INLINE_CIRCUITS: usize = 4;
const INLINE_VARIANTS: usize = 4;

/// A job on a named suite circuit.
pub fn suite_spec(circuit: &str, flow: FlowKind, c: f64) -> JobSpec {
    JobSpec {
        circuit: CircuitRef::Suite(circuit.to_string()),
        flow,
        overhead: EdlOverhead::new(c),
        model: DelayModel::PathBased,
        clock: None,
        verify: false,
        format: InputFormat::Bench,
        convert: false,
    }
}

/// A G-RAR job on inline netlist text: `.bench`, or edge-triggered EDIF
/// to be converted first.
pub fn inline_spec(name: &str, text: String, c: f64, edif: bool) -> JobSpec {
    JobSpec {
        circuit: CircuitRef::Inline {
            name: name.to_string(),
            text,
        },
        flow: FlowKind::Grar,
        overhead: EdlOverhead::new(c),
        model: DelayModel::PathBased,
        clock: None,
        verify: false,
        format: if edif {
            InputFormat::Edif
        } else {
            InputFormat::Bench
        },
        convert: edif,
    }
}

/// The `submit` line of a job (path-based model, derived clock, no
/// verification — the fields the benchmark's jobs use).
pub fn submit_line(spec: &JobSpec) -> String {
    let mut fields = vec![("cmd", Json::Str("submit".into()))];
    match &spec.circuit {
        CircuitRef::Suite(name) => fields.push(("circuit", Json::Str(name.clone()))),
        CircuitRef::Inline { name, text } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("netlist", Json::Str(text.clone())));
        }
    }
    fields.push(("flow", Json::Str(spec.flow_name().into())));
    fields.push(("c", Json::Num(spec.overhead.value())));
    if spec.format == InputFormat::Edif {
        fields.push(("format", Json::Str("edif".into())));
    }
    if spec.convert {
        fields.push(("convert", Json::Bool(true)));
    }
    obj(fields).render()
}

impl ServePlan {
    /// The hit working set for `seed`.
    pub fn new(seed: u64, mix: RoundMix) -> ServePlan {
        let mut suite = Vec::new();
        for circuit in SUITE_HOT {
            for flow in [FlowKind::Base, FlowKind::Grar] {
                suite.push(ServeOp::new(
                    OpKind::SuiteHit,
                    suite_spec(circuit, flow, 1.0),
                ));
            }
        }
        let mut disk = Vec::new();
        for circuit in SUITE_DISK {
            for flow in [FlowKind::Base, FlowKind::Grar] {
                for c in DISK_C {
                    disk.push(ServeOp::new(OpKind::DiskHit, suite_spec(circuit, flow, c)));
                }
            }
        }
        SplitMix64::keyed(&[seed, 0x6469_736b]).shuffle(&mut disk);
        let inline = (0..INLINE_CIRCUITS)
            .map(|i| {
                let mut rng = SplitMix64::keyed(&[seed, 0x696e_6c6e, i as u64]);
                let name = format!("inl{i}");
                let flops = stratified(mix.flops.0, mix.flops.1, i);
                let n = synth(&synth_config(&mut rng, name.clone(), flops));
                (0..INLINE_VARIANTS)
                    .map(|_| {
                        let text = shuffled_bench(&n, &mut rng);
                        ServeOp::new(OpKind::InlineHit, inline_spec(&name, text, 1.0, false))
                    })
                    .collect()
            })
            .collect();
        ServePlan {
            suite,
            inline,
            disk,
            mix,
            seed,
        }
    }

    /// Every distinct hit key's first submission line (what the set-up
    /// primes).
    pub fn prime_lines(&self) -> Vec<&str> {
        self.disk
            .iter()
            .chain(&self.suite)
            .chain(self.inline.iter().map(|v| &v[0]))
            .map(|op| op.line.as_str())
            .collect()
    }

    /// The lines that must sit in the memory tier when timing starts.
    pub fn hot_lines(&self) -> Vec<&str> {
        self.suite
            .iter()
            .chain(self.inline.iter().map(|v| &v[0]))
            .map(|op| op.line.as_str())
            .collect()
    }

    /// The `i`-th warm-pool filler of the set-up: a fresh small netlist,
    /// so its job misses the cache and leaves a warm basis behind.
    pub fn fill_line(&self, i: usize) -> String {
        let mut rng = SplitMix64::keyed(&[self.seed, 0x6669_6c6c, i as u64]);
        let name = format!("f{i}");
        let flops = stratified(FILL_FLOPS.0, FILL_FLOPS.1, i);
        let n = synth(&synth_config(&mut rng, name.clone(), flops));
        submit_line(&inline_spec(&name, bench::write(&n), 0.5, false))
    }

    /// The requests of round `round`, in send order.
    ///
    /// Hit keys cycle through their sets across rounds (every named key
    /// comes back within a round, every disk key only after
    /// `disk.len() / disk_hits` rounds), fresh netlists are keyed
    /// by `(seed, round, slot)`, and an ECO request always follows the
    /// miss whose netlist it re-submits.
    pub fn round(&self, round: usize) -> Vec<ServeOp> {
        let mix = self.mix;
        let mut rng = SplitMix64::keyed(&[self.seed, 0x726f_756e, round as u64]);
        let mut kinds = Vec::with_capacity(mix.len());
        for (kind, n) in [
            (OpKind::SuiteHit, mix.suite_hits),
            (OpKind::InlineHit, mix.inline_hits),
            (OpKind::DiskHit, mix.disk_hits),
            (OpKind::Miss, mix.misses),
            (OpKind::Eco, mix.ecos),
            (OpKind::Convert, mix.converts),
        ] {
            kinds.extend(std::iter::repeat_n(kind, n));
        }
        rng.shuffle(&mut kinds);
        // An ECO re-spins an earlier miss of its round, so every ECO
        // must follow at least one miss not yet re-spun.
        let (mut misses, mut ecos) = (0, 0);
        for i in 0..kinds.len() {
            if kinds[i] == OpKind::Eco && ecos >= misses {
                let j = (i + 1..kinds.len())
                    .find(|&j| kinds[j] == OpKind::Miss)
                    .expect("a round holds at least as many misses as ECOs");
                kinds.swap(i, j);
            }
            match kinds[i] {
                OpKind::Miss => misses += 1,
                OpKind::Eco => ecos += 1,
                _ => {}
            }
        }

        let mut counters = [0usize; 6];
        let mut miss_specs: Vec<JobSpec> = Vec::new();
        let mut ops = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let k = counters[kind as usize];
            counters[kind as usize] += 1;
            let op = match kind {
                OpKind::SuiteHit => {
                    let i = round * mix.suite_hits + k;
                    self.suite[i % self.suite.len()].clone()
                }
                OpKind::InlineHit => {
                    let i = round * mix.inline_hits + k;
                    let variants = &self.inline[i % self.inline.len()];
                    variants[(i / self.inline.len()) % variants.len()].clone()
                }
                OpKind::DiskHit => {
                    let i = round * mix.disk_hits + k;
                    self.disk[i % self.disk.len()].clone()
                }
                OpKind::Miss => {
                    let mut r =
                        SplitMix64::keyed(&[self.seed, 0x6d69_7373, round as u64, k as u64]);
                    let name = format!("m{round}_{k}");
                    let flops = stratified(mix.flops.0, mix.flops.1, round * mix.misses + k);
                    let n = synth(&synth_config(&mut r, name.clone(), flops));
                    let spec = inline_spec(&name, bench::write(&n), 0.5, false);
                    miss_specs.push(spec.clone());
                    ServeOp::new(kind, spec)
                }
                OpKind::Eco => {
                    let mut spec = miss_specs[k].clone();
                    spec.overhead = if k % 2 == 0 {
                        EdlOverhead::MEDIUM
                    } else {
                        EdlOverhead::HIGH
                    };
                    ServeOp::new(kind, spec)
                }
                OpKind::Convert => {
                    let mut r =
                        SplitMix64::keyed(&[self.seed, 0x6564_6966, round as u64, k as u64]);
                    let name = format!("e{round}_{k}");
                    let flops = stratified(mix.flops.0, mix.flops.1, round * mix.converts + k);
                    let n = synth(&synth_config(&mut r, name.clone(), flops));
                    ServeOp::new(
                        kind,
                        inline_spec(&name, retime_convert::edif::write(&n), 1.0, true),
                    )
                }
            };
            ops.push(op);
        }
        ops
    }
}
