//! The sequential baseline does not depend on the core count. The
//! original program has no parallel plans, so every core but the first
//! idles from the first cycle to the last; a campaign therefore
//! simulates each scenario's baseline once, on one core
//! (`experiment::baseline_cycles`), and divides every core count's
//! parallel run by it. These tests pin that invariance for every
//! committed scenario at Test scale, on the in-order core and both
//! out-of-order models, with the fast-forward on and off: the run on
//! 2, 4, 8 and 16 cores matches the one-core run in every observable
//! the baseline stands for. The fast-forward path also runs 65 cores,
//! which crosses a word of its sleeping-core bitset; the naive loop
//! keeps no such set and visits every core every cycle, so it skips
//! that (slowest) count.

mod common;

use helix_rc::sim::{simulate_sequential, Bucket, CoreModel, MachineConfig, RunReport};
use helix_rc::workloads::{workload_from_spec, Scale, Workload};

const FUEL: u64 = 1 << 27;
const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];
/// One core past the first 64-core bitset word.
const WORD_CROSSING: usize = 65;

fn committed_workloads() -> Vec<Workload> {
    common::committed_specs()
        .into_iter()
        .map(|(path, spec)| {
            workload_from_spec(&spec, Scale::Test)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect()
}

fn assert_same_baseline(one: &RunReport, many: &RunReport, what: &str) {
    assert_eq!(one.cycles, many.cycles, "{what}: cycles");
    assert_eq!(
        one.dyn_insts, many.dyn_insts,
        "{what}: dynamic instructions"
    );
    assert_eq!(one.mem_digest, many.mem_digest, "{what}: memory digest");
    assert_eq!(
        format!("{:?}", one.mem_stats),
        format!("{:?}", many.mem_stats),
        "{what}: memory-system statistics"
    );
    assert_eq!(
        format!("{:?}", one.final_regs),
        format!("{:?}", many.final_regs),
        "{what}: final registers"
    );
    for b in Bucket::ALL {
        assert_eq!(
            one.attribution.of_core(0, b),
            many.attribution.of_core(0, b),
            "{what}: core 0 bucket {b:?}"
        );
    }
}

fn check_model(core: CoreModel, fast_forward: bool) {
    for w in committed_workloads() {
        let machine = |cores: usize| {
            let mut cfg = MachineConfig::conventional(cores);
            cfg.core = core;
            cfg.fast_forward = fast_forward;
            cfg
        };
        let one = simulate_sequential(&w.program, &machine(1), FUEL).expect(&w.name);
        let counts = CORE_COUNTS
            .into_iter()
            .chain(fast_forward.then_some(WORD_CROSSING));
        for cores in counts {
            let many = simulate_sequential(&w.program, &machine(cores), FUEL).expect(&w.name);
            let what = format!("{} {core:?} ff={fast_forward} on {cores} cores", w.name);
            assert_same_baseline(&one, &many, &what);
        }
    }
}

#[test]
fn in_order_baseline_is_core_count_invariant() {
    check_model(CoreModel::InOrder { width: 2 }, true);
}

#[test]
fn in_order_baseline_is_core_count_invariant_on_the_naive_loop() {
    check_model(CoreModel::InOrder { width: 2 }, false);
}

#[test]
fn narrow_ooo_baseline_is_core_count_invariant() {
    check_model(CoreModel::OutOfOrder { width: 2, rob: 48 }, true);
}

#[test]
fn narrow_ooo_baseline_is_core_count_invariant_on_the_naive_loop() {
    check_model(CoreModel::OutOfOrder { width: 2, rob: 48 }, false);
}

#[test]
fn wide_ooo_baseline_is_core_count_invariant() {
    check_model(CoreModel::OutOfOrder { width: 4, rob: 96 }, true);
}

#[test]
fn wide_ooo_baseline_is_core_count_invariant_on_the_naive_loop() {
    check_model(CoreModel::OutOfOrder { width: 4, rob: 96 }, false);
}
