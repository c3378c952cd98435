//! Calls into the `hcc`, `ir`, `sim` and `ring-cache` layers with spans
//! around each one, and the per-layer metrics built from those spans and
//! from the simulators' own counters.

use crate::trace::{self_time_by_name, Tracer};
use crate::{Metric, Run};
use helix_hcc::{CompiledProgram, HccConfig};
use helix_ir::cfg::LoopForest;
use helix_ir::interp::Env;
use helix_ir::Program;
use helix_sim::{Bucket, MachineConfig, RunReport};
use std::collections::BTreeMap;

/// Compile `program` under `hcc` inside an `hcc.compile` span. With
/// tracing on, the training-input profile and loop selection are also
/// called on their own first, in `hcc.profile` and `hcc.select` spans,
/// so the rest of compile (the transform) is compile minus both.
pub fn compile(
    t: &mut Tracer,
    program: &Program,
    hcc: &HccConfig,
) -> Result<CompiledProgram, String> {
    if t.is_on() {
        let forest = LoopForest::compute(&program.graph, program.graph.entry);
        let mut env = Env::for_program(program);
        let profile = t
            .span("hcc.profile", |_| {
                helix_hcc::profile(program, &forest, &mut env, hcc.profile_fuel)
            })
            .map_err(|e| format!("profile: {e}"))?;
        let selection = t.span("hcc.select", |_| {
            helix_hcc::select_loops(program, &forest, &profile, hcc.dep, &hcc.selection)
        });
        std::hint::black_box(selection);
    }
    t.span("hcc.compile", |_| helix_hcc::compile(program, hcc))
        .map_err(|e| format!("compile: {e}"))
}

/// Decode `program` inside an `ir.decode` span.
pub fn decode(t: &mut Tracer, program: &Program) {
    let decoded = t.span("ir.decode", |_| helix_ir::decode::decode(program));
    std::hint::black_box(decoded);
}

/// One of the three machines every simulation layer metric is kept for:
/// the original program on the conventional machine (`sequential-N`),
/// and the HCCv3 program on the conventional machine and on HELIX-RC.
#[derive(Clone, Debug)]
pub struct Machine {
    pub label: String,
    pub parallel: bool,
    pub cfg: MachineConfig,
}

pub fn machines(cores: usize) -> [Machine; 3] {
    [
        Machine {
            label: format!("sequential-{cores}"),
            parallel: false,
            cfg: MachineConfig::conventional(cores),
        },
        Machine {
            label: format!("conventional-{cores}"),
            parallel: true,
            cfg: MachineConfig::conventional(cores),
        },
        Machine {
            label: format!("helix-rc-{cores}"),
            parallel: true,
            cfg: MachineConfig::helix_rc(cores),
        },
    ]
}

/// Simulate on `m` inside a `sim.run.<label>` span: the original
/// program sequentially, or the compiled one in parallel.
pub fn simulate(
    t: &mut Tracer,
    m: &Machine,
    original: &Program,
    compiled: &CompiledProgram,
    fuel: u64,
) -> Result<RunReport, String> {
    let name = format!("sim.run.{}", m.label);
    let report = t.span(&name, |_| {
        if m.parallel {
            helix_sim::simulate(compiled, &m.cfg, fuel)
        } else {
            helix_sim::simulate_sequential(original, &m.cfg, fuel)
        }
    });
    let report = report.map_err(|e| format!("{}: {e}", m.label))?;
    clean(&report).map_err(|e| format!("{}: {e}", m.label))?;
    Ok(report)
}

/// A run must show no races and no ring protocol errors.
pub fn clean(r: &RunReport) -> Result<(), String> {
    if !r.race_violations.is_empty() {
        return Err(format!("{} race violations", r.race_violations.len()));
    }
    if !r.protocol_errors.is_empty() {
        return Err(format!("protocol errors: {:?}", r.protocol_errors));
    }
    Ok(())
}

/// Snake-case metric name of a stall bucket.
fn bucket_name(b: Bucket) -> String {
    b.label()
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The simulators' deterministic counters, summed over runs.
#[derive(Default)]
pub struct SimCounts {
    cycles: BTreeMap<String, u64>,
    dyn_insts: BTreeMap<String, u64>,
    /// Stall cycles of the HELIX-RC runs, by bucket.
    stalls: [u64; 9],
    l1_hits: u64,
    l1_accesses: u64,
    l2_misses: u64,
    forwards: u64,
    signals: u64,
    loads: u64,
    load_hits: u64,
    credit_stalls: u64,
    backpressure: u64,
}

impl SimCounts {
    pub fn add(&mut self, m: &Machine, r: &RunReport) {
        *self.cycles.entry(m.label.clone()).or_default() += r.cycles;
        *self.dyn_insts.entry(m.label.clone()).or_default() += r.dyn_insts;
        self.l1_hits += r.mem_stats.l1_hits;
        self.l1_accesses += r.mem_stats.l1_hits + r.mem_stats.l1_misses;
        self.l2_misses += r.mem_stats.l2_misses;
        if let Some(ring) = &r.ring_stats {
            for (slot, b) in self.stalls.iter_mut().zip(Bucket::ALL) {
                *slot += r.attribution.total(b);
            }
            self.forwards += ring.forwards;
            self.signals += ring.signals;
            self.loads += ring.loads;
            self.load_hits += ring.load_hits;
            self.credit_stalls += ring.credit_stalls;
            self.backpressure += ring.injection_backpressure;
        }
    }

    /// Push the `sim.*` and `ring-cache.*` metrics for `machines`, with
    /// host times from the `sim.run.<label>` spans.
    pub fn push_metrics(&self, run: &mut Run, machines: &[Machine]) {
        let by_name = self_time_by_name(run.tracer.spans());
        let run_s = |label: &str| span_s(&by_name, &format!("sim.run.{label}"));
        for m in machines {
            run.push(Metric::value(
                format!("sim.run_s.{}", m.label),
                "s",
                run_s(&m.label),
            ));
        }
        for m in machines {
            let c = self.cycles.get(&m.label).copied().unwrap_or(0);
            run.push(Metric::value(
                format!("sim.cycles.{}", m.label),
                "count",
                c as f64,
            ));
        }
        for m in machines {
            let c = self.dyn_insts.get(&m.label).copied().unwrap_or(0);
            run.push(Metric::value(
                format!("sim.dyn_insts.{}", m.label),
                "count",
                c as f64,
            ));
        }
        let helix = &machines[2].label;
        for (b, cycles) in Bucket::ALL.into_iter().zip(self.stalls) {
            let name = format!("sim.stall.{}.{helix}", bucket_name(b));
            run.push(Metric::value(name, "count", cycles as f64));
        }
        let l1 = self.l1_hits as f64 / self.l1_accesses.max(1) as f64;
        run.push(Metric::value("sim.memsys.l1_hit_rate", "ratio", l1));
        run.push(Metric::value(
            "sim.memsys.l2_misses",
            "count",
            self.l2_misses as f64,
        ));
        let added = run_s(helix) - run_s(&machines[1].label);
        run.push(Metric::value("ring-cache.added_s", "s", added));
        for (name, v) in [
            ("forwards", self.forwards),
            ("signals", self.signals),
            ("loads", self.loads),
            ("credit_stalls", self.credit_stalls),
            ("injection_backpressure", self.backpressure),
        ] {
            run.push(Metric::value(
                format!("ring-cache.{name}"),
                "count",
                v as f64,
            ));
        }
        let hit = self.load_hits as f64 / self.loads.max(1) as f64;
        run.push(Metric::value("ring-cache.load_hit_rate", "ratio", hit));
    }
}

/// Summed self time of the spans named `name`, in seconds.
pub fn span_s(by_name: &BTreeMap<String, (f64, usize)>, name: &str) -> f64 {
    by_name.get(name).map_or(0.0, |(s, _)| *s)
}

/// Number of spans named `name`.
pub fn span_n(by_name: &BTreeMap<String, (f64, usize)>, name: &str) -> usize {
    by_name.get(name).map_or(0, |(_, n)| *n)
}

/// Push the time metrics of the `workloads`, `hcc` and `ir` layers.
pub fn push_front_end_metrics(run: &mut Run) {
    let by_name = self_time_by_name(run.tracer.spans());
    for name in ["workloads.parse", "workloads.lower"] {
        if by_name.contains_key(name) {
            run.push(Metric::value(
                format!("{name}_s"),
                "s",
                span_s(&by_name, name),
            ));
        }
    }
    let [compile, profile, select] =
        ["hcc.compile", "hcc.profile", "hcc.select"].map(|n| span_s(&by_name, n));
    run.push(Metric::value("hcc.compile_s", "s", compile));
    run.push(Metric::value("hcc.profile_s", "s", profile));
    run.push(Metric::value("hcc.select_s", "s", select));
    run.push(Metric::value(
        "hcc.transform_s",
        "s",
        compile - profile - select,
    ));
    run.push(Metric::value(
        "ir.decode_s",
        "s",
        span_s(&by_name, "ir.decode"),
    ));
    run.push(Metric::value(
        "ir.decodes",
        "count",
        span_n(&by_name, "ir.decode") as f64,
    ));
}

/// Tracing overhead: median traced op time minus median untraced.
pub fn push_overhead(run: &mut Run, traced: &[f64], untraced: &[f64]) {
    if traced.is_empty() || untraced.is_empty() {
        return;
    }
    let (t, u) = (crate::trace::median(traced), crate::trace::median(untraced));
    run.push(Metric::value("trace.overhead_s", "s", t - u));
    run.push(Metric::value("trace.overhead_frac", "ratio", (t - u) / u));
}
