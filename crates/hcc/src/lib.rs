//! # helix-hcc
//!
//! The HCC parallelizing compiler family of the HELIX-RC reproduction
//! (paper §2.1, §4). Three configurations mirror the paper's compilers:
//!
//! * **HCCv1** — baseline analysis, one merged sequential segment per
//!   loop, conservative synchronization on every path, analytical loop
//!   selection assuming expensive conventional synchronization;
//! * **HCCv2** — full dependence/induction analysis and predictable
//!   variable re-computation, still conservative splitting and
//!   synchronization (communication remains expensive);
//! * **HCCv3** — the HELIX-RC compiler: aggressive segment splitting,
//!   wait elimination with early signals, and profile-driven loop
//!   selection that assumes ring-cache-class communication latency.
//!
//! [`compile`] takes a sequential [`Program`] and produces a
//! [`CompiledProgram`]: the transformed program (demoted shared scalars,
//! tagged shared accesses, `wait`/`signal` instructions, per-iteration
//! re-computation prologues) plus one [`LoopPlan`] per parallelized loop
//! for the `helix-sim` runtime.

#![warn(missing_docs)]

pub mod demote;
pub mod placement;
pub mod plan;
pub mod profile;
pub mod segments;
pub mod select;
pub mod tlp;

pub use placement::PlacementStyle;
pub use plan::{
    reduction_identity, CompileStats, InductionPlan, LiveOutPlan, LiveOutResolve, LoopPlan,
    Poly2Plan, ReductionPlan, SegmentPlan,
};
pub use profile::{profile, LoopProfile, ProgramProfile};
pub use segments::SplitPolicy;
pub use select::{select_loops, CandidateEstimate, RejectReason, Selection, SelectionParams};

use helix_analysis::{analyze_loop, classify_registers, DepConfig, PointsTo, PredictableKind};
use helix_ir::cfg::{recognize_counted_loop, LoopForest, NaturalLoop};
use helix_ir::interp::{Env, InterpError};
use helix_ir::{
    AddrExpr, BinOp, BlockId, Inst, Operand, Program, Reg, RegionDecl, RegionId, Terminator, Ty,
    ValidateError,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Which generation of the compiler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompilerVersion {
    /// First-generation HELIX compiler.
    V1,
    /// Improved analysis and transformations, compiler-only (paper §2.1).
    V2,
    /// The HELIX-RC co-designed compiler (paper §4).
    V3,
}

impl fmt::Display for CompilerVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompilerVersion::V1 => f.write_str("HCCv1"),
            CompilerVersion::V2 => f.write_str("HCCv2"),
            CompilerVersion::V3 => f.write_str("HCCv3"),
        }
    }
}

/// Complete compiler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HccConfig {
    /// Which compiler generation this configuration models.
    pub version: CompilerVersion,
    /// Dependence-analysis precision.
    pub dep: DepConfig,
    /// Segment splitting policy.
    pub split: SplitPolicy,
    /// `wait`/`signal` placement style.
    pub placement: PlacementStyle,
    /// Loop-selection machine model.
    pub selection: SelectionParams,
    /// Interpreter step budget for the training-input profile run.
    pub profile_fuel: u64,
}

impl HccConfig {
    /// HCCv1 targeting `cores` cores.
    pub fn v1(cores: u32) -> HccConfig {
        HccConfig {
            version: CompilerVersion::V1,
            dep: DepConfig::baseline(),
            split: SplitPolicy::MaxSegments(1),
            placement: PlacementStyle::Conservative,
            selection: SelectionParams {
                cores,
                sync_cost: 100.0,
                min_speedup: 1.15,
                min_trip: 2.0,
                max_segments: 1,
            },
            profile_fuel: 500_000_000,
        }
    }

    /// HCCv2 targeting `cores` cores.
    pub fn v2(cores: u32) -> HccConfig {
        HccConfig {
            version: CompilerVersion::V2,
            dep: DepConfig::full(),
            split: SplitPolicy::MaxSegments(2),
            placement: PlacementStyle::Conservative,
            selection: SelectionParams {
                cores,
                sync_cost: 100.0,
                min_speedup: 1.15,
                min_trip: 2.0,
                max_segments: 2,
            },
            profile_fuel: 500_000_000,
        }
    }

    /// HCCv3 (HELIX-RC) targeting `cores` cores.
    pub fn v3(cores: u32) -> HccConfig {
        HccConfig {
            version: CompilerVersion::V3,
            dep: DepConfig::full(),
            split: SplitPolicy::Aggressive,
            placement: PlacementStyle::EarlySignal,
            selection: SelectionParams {
                cores,
                sync_cost: 8.0,
                min_speedup: 1.15,
                min_trip: 2.0,
                max_segments: 64,
            },
            profile_fuel: 500_000_000,
        }
    }
}

/// Compilation failure.
#[derive(Debug)]
pub enum CompileError {
    /// The input program is structurally invalid.
    Validate(ValidateError),
    /// The training-input profile run faulted.
    Profile(InterpError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Validate(e) => write!(f, "invalid program: {e}"),
            CompileError::Profile(e) => write!(f, "profiling failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ValidateError> for CompileError {
    fn from(e: ValidateError) -> Self {
        CompileError::Validate(e)
    }
}

impl From<InterpError> for CompileError {
    fn from(e: InterpError) -> Self {
        CompileError::Profile(e)
    }
}

/// Output of [`compile`].
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The transformed program (run it sequentially and it behaves
    /// exactly like the input; run it under `helix-sim` with the plans
    /// and the selected loops execute in parallel).
    pub program: Program,
    /// One plan per parallelized loop.
    pub plans: Vec<LoopPlan>,
    /// Compile-time statistics (Table 1 / §6.2 reporting).
    pub stats: CompileStats,
    /// The configuration used.
    pub version: CompilerVersion,
    /// The selection decisions, for reporting.
    pub selection: Selection,
}

impl CompiledProgram {
    /// Profiled coverage and plan count of the parallelized loops whose
    /// header block lies in the half-open block-id range
    /// `[first_block, end_block)`.
    ///
    /// Loop headers keep their original block ids through compilation
    /// (transformation rewrites blocks in place and appends new ones at
    /// the end), so callers holding block ranges of the *input* program
    /// — e.g. the per-nest boundaries a multi-nest scenario records at
    /// generation time — can attribute each plan to its source range.
    /// The returned coverage is the fraction of whole-program profiled
    /// execution, not of the range itself.
    pub fn coverage_in_blocks(&self, first_block: usize, end_block: usize) -> (f64, usize) {
        let mut coverage = 0.0;
        let mut plans = 0;
        for plan in &self.plans {
            let header = plan.header.index();
            if (first_block..end_block).contains(&header) {
                coverage += plan.coverage;
                plans += 1;
            }
        }
        (coverage, plans)
    }
}

fn fresh_reg(p: &mut Program) -> Reg {
    let r = Reg(p.n_regs);
    p.n_regs += 1;
    r
}

/// Compile `program` with `config`: [`training_profile`] under
/// `config.profile_fuel`, then [`compile_with_profile`].
///
/// # Errors
///
/// Fails if the program is invalid or the profiling run faults. A loop
/// that cannot be transformed is skipped, not an error.
pub fn compile(program: &Program, config: &HccConfig) -> Result<CompiledProgram, CompileError> {
    let prof = training_profile(program, config.profile_fuel)?;
    compile_with_profile(program, config, &prof)
}

/// Profile `program` on its training input, at most `fuel` steps. The
/// result depends only on the program and `fuel`, so callers compiling
/// one program under many configurations can profile once and hand it
/// to [`compile_with_profile`].
///
/// # Errors
///
/// Fails if the program is invalid or the profiling run faults.
pub fn training_profile(program: &Program, fuel: u64) -> Result<ProgramProfile, CompileError> {
    program.validate()?;
    let forest = LoopForest::compute(&program.graph, program.graph.entry);
    let mut env = Env::for_program(program);
    Ok(profile::profile(program, &forest, &mut env, fuel)?)
}

/// Compile `program` with `config` against a precomputed training
/// profile (a [`training_profile`] of this program under
/// `config.profile_fuel`). Identical to [`compile`] for that profile.
///
/// # Errors
///
/// Fails if the program is invalid.
pub fn compile_with_profile(
    program: &Program,
    config: &HccConfig,
    prof: &ProgramProfile,
) -> Result<CompiledProgram, CompileError> {
    program.validate()?;
    let forest = LoopForest::compute(&program.graph, program.graph.entry);
    let selection = select_loops(program, &forest, prof, config.dep, &config.selection);

    let mut working = program.clone();
    // Shared-variable region (created even if unused by some loops; 8KB
    // is ample for every workload's demoted scalars).
    let shared_region = if selection.selected.is_empty() {
        None
    } else {
        let id = RegionId(working.regions.len() as u32);
        working.regions.push(RegionDecl {
            name: "__shared_vars".into(),
            size: 8192,
            elem: Ty::I64,
        });
        Some(id)
    };

    let mut plans = Vec::new();
    let mut next_slot: i64 = 0;
    let mut next_seg_id: u32 = 0;
    for &idx in &selection.selected {
        let lp = forest.loops[idx].lp.clone();
        let estimate = selection
            .candidates
            .iter()
            .find(|c| c.loop_idx == idx)
            .expect("selected loops have estimates");
        let scratch = working.clone();
        match transform_loop(
            scratch,
            &lp,
            config,
            shared_region.expect("region exists when loops selected"),
            &mut next_slot,
            &mut next_seg_id,
            estimate,
            plans.len(),
        ) {
            Ok((transformed, plan)) => {
                working = transformed;
                plans.push(plan);
            }
            Err(_) => {
                // Transformation discovered an obstruction the estimate
                // missed (e.g. an untaggable shared access); leave the
                // loop sequential.
            }
        }
    }

    debug_assert_eq!(working.validate(), Ok(()));
    let sync_insts = working.sync_inst_count();
    let added_insts = working
        .graph
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| i.is_added())
        .count();
    let seg_total: usize = plans.iter().map(|p| p.segments.len()).sum();
    let mean_segment_size = if seg_total == 0 {
        0.0
    } else {
        let mut sum = 0usize;
        for plan in &plans {
            let lp = NaturalLoop {
                header: plan.header,
                latches: vec![],
                blocks: plan.blocks.clone(),
                exits: BTreeSet::new(),
            };
            for seg in &plan.segments {
                sum += placement::segment_region_size(&working, &lp, seg.id);
            }
        }
        sum as f64 / seg_total as f64
    };

    let stats = CompileStats {
        coverage: selection.coverage,
        candidates: selection.candidates.len() + selection.rejected.len(),
        selected: plans.len(),
        segments: seg_total,
        sync_insts,
        added_insts,
        mean_segment_size,
    };
    Ok(CompiledProgram {
        program: working,
        plans,
        stats,
        version: config.version,
        selection,
    })
}

/// Errors internal to one loop's transformation (the loop is skipped).
#[derive(Debug)]
#[allow(dead_code)]
enum LoopTransformError {
    Demote(demote::DemoteError),
    Segment(segments::SegmentError),
    Shape,
}

impl From<demote::DemoteError> for LoopTransformError {
    fn from(e: demote::DemoteError) -> Self {
        LoopTransformError::Demote(e)
    }
}

impl From<segments::SegmentError> for LoopTransformError {
    fn from(e: segments::SegmentError) -> Self {
        LoopTransformError::Segment(e)
    }
}

#[allow(clippy::too_many_arguments)]
fn transform_loop(
    mut p: Program,
    lp: &NaturalLoop,
    config: &HccConfig,
    shared_region: RegionId,
    next_slot: &mut i64,
    next_seg_id: &mut u32,
    estimate: &CandidateEstimate,
    plan_index: usize,
) -> Result<(Program, LoopPlan), LoopTransformError> {
    let counted = recognize_counted_loop(&p.graph, lp).ok_or(LoopTransformError::Shape)?;

    // --- Classify registers ---
    let classes = classify_registers(&p.graph, lp);
    let mut inductions: Vec<InductionPlan> = Vec::new();
    let mut poly2: Vec<Poly2Plan> = Vec::new();
    let mut reductions: Vec<ReductionPlan> = Vec::new();
    let mut must_comm: Vec<Reg> = Vec::new();
    let mut liveouts: Vec<LiveOutPlan> = Vec::new();

    // First pass: affine inductions (poly2 validation needs them).
    for c in &classes {
        if let Some(PredictableKind::InductionAffine { step }) = c.predictable {
            let init_copy = fresh_reg(&mut p);
            inductions.push(InductionPlan {
                reg: c.reg,
                init_copy,
                step,
            });
        }
    }
    let affine_of = |r: Reg, inds: &[InductionPlan]| inds.iter().find(|i| i.reg == r).copied();

    for c in &classes {
        match c.predictable {
            Some(PredictableKind::InductionAffine { .. }) => {
                if c.live_out {
                    liveouts.push(LiveOutPlan {
                        reg: c.reg,
                        resolve: LiveOutResolve::InductionFinal,
                    });
                }
            }
            Some(PredictableKind::InductionPoly2) => {
                // Re-derive the step register from the update site.
                let step_reg = find_poly2_step(&p, lp, c.reg);
                match step_reg.and_then(|s| affine_of(s, &inductions).map(|i| (s, i.step))) {
                    Some((s, dd)) => {
                        let init_copy = fresh_reg(&mut p);
                        poly2.push(Poly2Plan {
                            reg: c.reg,
                            init_copy,
                            step_reg: s,
                            step_step: dd,
                        });
                        if c.live_out {
                            liveouts.push(LiveOutPlan {
                                reg: c.reg,
                                resolve: LiveOutResolve::InductionFinal,
                            });
                        }
                    }
                    None => must_comm.push(c.reg),
                }
            }
            Some(PredictableKind::Reduction { op }) => match reduction_identity(op) {
                Some(identity) => {
                    reductions.push(ReductionPlan {
                        reg: c.reg,
                        op,
                        identity,
                    });
                    if c.live_out {
                        liveouts.push(LiveOutPlan {
                            reg: c.reg,
                            resolve: LiveOutResolve::ReductionCombine,
                        });
                    }
                }
                None => must_comm.push(c.reg),
            },
            Some(PredictableKind::NotUsedInLoop) | Some(PredictableKind::SetBeforeUse) => {
                if c.live_out {
                    liveouts.push(LiveOutPlan {
                        reg: c.reg,
                        resolve: LiveOutResolve::LastWriter,
                    });
                }
            }
            None => must_comm.push(c.reg),
        }
    }

    // --- Demote communicated registers ---
    let demotion =
        demote::demote_registers(&mut p, &lp.blocks, &must_comm, shared_region, next_slot)?;

    // --- Seed slots on entry edges; read them back on the exit edge ---
    let preds = p.graph.predecessors();
    let entry_preds: Vec<BlockId> = preds[lp.header.index()]
        .iter()
        .copied()
        .filter(|b| !lp.blocks.contains(b))
        .collect();
    for pred in entry_preds {
        let nb = p.graph.split_edge(pred, lp.header);
        let block = p.graph.block_mut(nb);
        for (&reg, &slot) in &demotion.slots {
            block.insts.push(Inst::Store {
                src: reg.into(),
                addr: AddrExpr::region(shared_region, slot),
                ty: demotion.tys[&reg],
                shared: None,
                origin: helix_ir::InstOrigin::Added,
            });
        }
    }
    // Exit edge: header -> first successor outside the loop.
    let exit_target = p
        .graph
        .block(lp.header)
        .term
        .successors()
        .into_iter()
        .find(|s| !lp.blocks.contains(s))
        .ok_or(LoopTransformError::Shape)?;
    let exit_resume = p.graph.split_edge(lp.header, exit_target);
    {
        let block = p.graph.block_mut(exit_resume);
        for (&reg, &slot) in &demotion.slots {
            block.insts.push(Inst::Load {
                dst: reg,
                addr: AddrExpr::region(shared_region, slot),
                ty: demotion.tys[&reg],
                shared: None,
                origin: helix_ir::InstOrigin::Added,
            });
        }
    }

    // --- Re-analyze the transformed loop and form segments ---
    let pts = PointsTo::analyze(&p, config.dep.tier);
    let deps = analyze_loop(&p, lp, config.dep, &pts);
    let segment_plans = segments::assign_segments(&mut p, lp, &deps, config.split, next_seg_id)?;

    // --- Place wait/signal ---
    // Each segment's placement may split edges, and the new blocks belong
    // to the loop; later segments must see them as loop members or their
    // reachability analysis treats the split edge as a loop exit and
    // skips bypass synchronization (a shared access in the other branch
    // of a guard would then run outside its window).
    let mut loop_blocks = lp.blocks.clone();
    let mut sync_lp = lp.clone();
    for seg in &segment_plans {
        let added = placement::place_sync(&mut p, &sync_lp, seg.id, config.placement);
        loop_blocks.extend(added.iter().copied());
        sync_lp.blocks.extend(added);
    }

    // --- Per-iteration re-computation prologue ---
    let iter_reg = fresh_reg(&mut p);
    let tmp = fresh_reg(&mut p);
    let mut prologue = Vec::new();
    for ind in &inductions {
        if ind.step == 1 {
            prologue.push(Inst::Bin {
                dst: ind.reg,
                op: BinOp::Add,
                lhs: ind.init_copy.into(),
                rhs: iter_reg.into(),
            });
        } else {
            prologue.push(Inst::Bin {
                dst: tmp,
                op: BinOp::Mul,
                lhs: iter_reg.into(),
                rhs: Operand::imm(ind.step),
            });
            prologue.push(Inst::Bin {
                dst: ind.reg,
                op: BinOp::Add,
                lhs: ind.init_copy.into(),
                rhs: tmp.into(),
            });
        }
    }
    let tmp2 = fresh_reg(&mut p);
    for p2 in &poly2 {
        let s_init = inductions
            .iter()
            .find(|i| i.reg == p2.step_reg)
            .expect("poly2 validated against inductions")
            .init_copy;
        // r = r0 + k*s0 + dd*k(k-1)/2
        prologue.extend([
            Inst::Bin {
                dst: tmp,
                op: BinOp::Sub,
                lhs: iter_reg.into(),
                rhs: Operand::imm(1),
            },
            Inst::Bin {
                dst: tmp,
                op: BinOp::Mul,
                lhs: tmp.into(),
                rhs: iter_reg.into(),
            },
            Inst::Bin {
                dst: tmp,
                op: BinOp::Shr,
                lhs: tmp.into(),
                rhs: Operand::imm(1),
            },
            Inst::Bin {
                dst: tmp,
                op: BinOp::Mul,
                lhs: tmp.into(),
                rhs: Operand::imm(p2.step_step),
            },
            Inst::Bin {
                dst: tmp2,
                op: BinOp::Mul,
                lhs: iter_reg.into(),
                rhs: s_init.into(),
            },
            Inst::Bin {
                dst: tmp2,
                op: BinOp::Add,
                lhs: tmp2.into(),
                rhs: tmp.into(),
            },
            Inst::Bin {
                dst: p2.reg,
                op: BinOp::Add,
                lhs: p2.init_copy.into(),
                rhs: tmp2.into(),
            },
        ]);
    }
    let iteration_entry = p.graph.push_block(helix_ir::Block {
        label: Some(format!("par_prologue_{plan_index}")),
        insts: prologue,
        term: Terminator::Jump(lp.header),
    });
    loop_blocks.insert(iteration_entry);

    debug_assert_eq!(p.validate(), Ok(()));

    let plan = LoopPlan {
        name: format!("parallel_loop_{plan_index}"),
        header: lp.header,
        blocks: loop_blocks,
        iteration_entry,
        iter_reg,
        counter: counted.counter,
        step: counted.step,
        bound: counted.bound,
        segments: segment_plans,
        inductions,
        poly2,
        reductions,
        liveouts,
        exit_resume,
        shared_region: if demotion.slots.is_empty() {
            None
        } else {
            Some(shared_region)
        },
        est_speedup: estimate.est_speedup,
        coverage: estimate.coverage,
        insts_per_iter: estimate.insts_per_iter,
    };
    Ok((p, plan))
}

/// Find the step register `s` of a poly2 update `r = r + s` inside `lp`.
fn find_poly2_step(p: &Program, lp: &NaturalLoop, r: Reg) -> Option<Reg> {
    for &b in &lp.blocks {
        for inst in &p.graph.block(b).insts {
            if let Inst::Bin {
                dst,
                op: BinOp::Add,
                lhs,
                rhs,
            } = inst
            {
                if *dst == r {
                    match (lhs, rhs) {
                        (Operand::Reg(a), Operand::Reg(s)) if *a == r && *s != r => {
                            return Some(*s)
                        }
                        (Operand::Reg(s), Operand::Reg(a)) if *a == r && *s != r => {
                            return Some(*s)
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::interp::run_to_completion;
    use helix_ir::{AddrExpr, ProgramBuilder};

    /// A program with one hot loop carrying a memory dependence plus an
    /// unpredictable register.
    fn hot_program() -> Program {
        let mut b = ProgramBuilder::new("hot");
        let cell = b.region("cell", 64, Ty::I64);
        let data = b.region("data", 1 << 16, Ty::I64);
        let out = b.region("out", 64, Ty::I64);
        let state = b.reg();
        b.const_i(state, 1);
        b.counted_loop(0, 500, 1, |b, i| {
            let x = b.reg();
            b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
            b.alu_chain(x, 10);
            // Unpredictable register chain.
            let c = b.reg();
            b.bin(c, BinOp::And, x, 7i64);
            b.if_then(c, |b| {
                b.bin(state, BinOp::Xor, state, x);
            });
            // Shared memory accumulator.
            let t = b.reg();
            b.load(t, AddrExpr::region(cell, 0), Ty::I64);
            b.bin(t, BinOp::Add, t, x);
            b.store(t, AddrExpr::region(cell, 0), Ty::I64);
            b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        });
        b.store(state, AddrExpr::region(out, 0), Ty::I64);
        b.finish()
    }

    #[test]
    fn v3_compiles_hot_loop() {
        let p = hot_program();
        let compiled = compile(&p, &HccConfig::v3(16)).unwrap();
        assert_eq!(compiled.plans.len(), 1);
        let plan = &compiled.plans[0];
        assert!(!plan.segments.is_empty());
        assert!(plan.inductions.iter().any(|i| i.reg == plan.counter));
        assert!(compiled.stats.sync_insts > 0);
        assert!(compiled.stats.coverage > 0.8);
        assert!(compiled.program.validate().is_ok());
    }

    /// One training profile serves every configuration: compiling
    /// against it is output-identical to [`compile`].
    #[test]
    fn shared_profile_compiles_identically() {
        let p = hot_program();
        let configs = [HccConfig::v1(4), HccConfig::v2(8), HccConfig::v3(16)];
        let prof = training_profile(&p, configs[0].profile_fuel).unwrap();
        for config in &configs {
            assert_eq!(config.profile_fuel, configs[0].profile_fuel);
            let direct = compile(&p, config).unwrap();
            let shared = compile_with_profile(&p, config, &prof).unwrap();
            assert_eq!(format!("{direct:?}"), format!("{shared:?}"));
        }
    }

    /// The transformed program, run sequentially, computes exactly what
    /// the original does.
    #[test]
    fn transform_preserves_sequential_semantics() {
        let p = hot_program();
        let mut env_ref = Env::for_program(&p);
        run_to_completion(&p, &mut env_ref).unwrap();

        for config in [HccConfig::v1(16), HccConfig::v2(16), HccConfig::v3(16)] {
            let compiled = compile(&p, &config).unwrap();
            let mut env = Env::for_program(&compiled.program);
            run_to_completion(&compiled.program, &mut env).unwrap();
            // Compare the original static regions' contents.
            for (i, _) in p.regions.iter().enumerate() {
                let a = env_ref.mem.region(helix_ir::RegionId(i as u32));
                let c = env.mem.region(helix_ir::RegionId(i as u32));
                assert_eq!(a, c, "region {i} differs under {}", config.version);
            }
        }
    }

    #[test]
    fn v1_merges_into_single_segment() {
        let mut b = ProgramBuilder::new("two_cells");
        let ca = b.region("a", 64, Ty::I64);
        let cb = b.region("b", 64, Ty::I64);
        b.counted_loop(0, 400, 1, |b, i| {
            let x = b.reg();
            b.alu_chain(x, 12);
            let t = b.reg();
            b.load(t, AddrExpr::region(ca, 0), Ty::I64);
            b.bin(t, BinOp::Add, t, i);
            b.store(t, AddrExpr::region(ca, 0), Ty::I64);
            let u = b.reg();
            b.load(u, AddrExpr::region(cb, 0), Ty::I64);
            b.bin(u, BinOp::Xor, u, i);
            b.store(u, AddrExpr::region(cb, 0), Ty::I64);
        });
        let p = b.finish();
        // Force selection to accept despite the serial segments by using
        // v3-style selection with v1 splitting: compare plans directly.
        let mut cfg1 = HccConfig::v1(16);
        cfg1.selection.sync_cost = 4.0; // make it profitable so we can see the split
        let mut cfg3 = HccConfig::v3(16);
        cfg3.selection.sync_cost = 4.0;
        let c1 = compile(&p, &cfg1).unwrap();
        let c3 = compile(&p, &cfg3).unwrap();
        if c1.plans.len() == 1 {
            assert_eq!(c1.plans[0].segments.len(), 1, "v1 merges segments");
        }
        assert_eq!(c3.plans.len(), 1);
        assert!(
            c3.plans[0].segments.len() >= 2,
            "v3 splits disjoint shared data"
        );
    }

    #[test]
    fn reduction_loop_has_no_segments() {
        let mut b = ProgramBuilder::new("red");
        let data = b.region("data", 1 << 16, Ty::I64);
        let out = b.region("out", 64, Ty::I64);
        let acc = b.reg();
        b.const_i(acc, 0);
        b.counted_loop(0, 800, 1, |b, i| {
            let x = b.reg();
            b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
            b.alu_chain(x, 6);
            b.bin(acc, BinOp::Add, acc, x);
        });
        b.store(acc, AddrExpr::region(out, 0), Ty::I64);
        let p = b.finish();
        let compiled = compile(&p, &HccConfig::v3(16)).unwrap();
        assert_eq!(compiled.plans.len(), 1);
        let plan = &compiled.plans[0];
        assert!(plan.segments.is_empty(), "pure reduction needs no segment");
        assert_eq!(plan.reductions.len(), 1);
        assert!(plan
            .liveouts
            .iter()
            .any(|l| l.resolve == LiveOutResolve::ReductionCombine));
    }

    #[test]
    fn sequential_program_compiles_to_no_plans() {
        let mut b = ProgramBuilder::new("seq");
        let r = b.reg();
        b.const_i(r, 1);
        b.alu_chain(r, 20);
        let p = b.finish();
        let compiled = compile(&p, &HccConfig::v3(16)).unwrap();
        assert!(compiled.plans.is_empty());
        assert_eq!(compiled.stats.coverage, 0.0);
    }
}
