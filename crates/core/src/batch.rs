//! Per-scenario simulation cache: the one batching mechanism.
//!
//! A campaign grid simulates one scenario under many overlapping
//! (compiler, machine, fuel) combinations: every experiment needs the
//! sequential baseline, most share the HCCv3 compile, and several cells
//! repeat the exact HELIX-RC simulation. A [`SimCache`] — scoped to
//! **one** workload (one generated program) — memoizes training
//! profiles, compiles, decodes, sequential baseline cycles, and
//! successful run reports under deterministic keys, so a campaign
//! performs each distinct unit of work once. A campaign runs each
//! scenario as one work unit against its own cache and drops the cache
//! when the unit ends.
//!
//! Everything cached is deterministic: a hit returns byte-for-byte the
//! value a recompute would produce, which is why campaign reports stay
//! byte-identical to uncached experiment calls (pinned by
//! `tests/lane_exactness.rs`). Failed simulations are deliberately
//! *not* cached — [`SimError`](helix_sim::SimError) is not clonable,
//! and failures must stay visible to the resilient retry layer.

use crate::experiment::ExpError;
use helix_hcc::{
    compile_with_profile, training_profile, CompiledProgram, HccConfig, ProgramProfile,
};
use helix_ir::decode::DecodedProgram;
use helix_ir::Program;
use helix_sim::RunReport;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Decode-cache key for the original (uncompiled) program.
pub const SEQ_KEY: &str = "seq";

/// A training profile computed at most once, or its (deterministic)
/// failure.
type ProfileSlot = OnceLock<Result<Arc<ProgramProfile>, ExpError>>;

/// Sequential baseline cycles, filled by the first successful run;
/// concurrent askers wait on the slot instead of simulating again.
type BaselineSlot = Mutex<Option<u64>>;

/// Memoized profile/compile/decode/simulate results for one workload's
/// program.
///
/// Shareable across threads (`Arc<SimCache>`): all maps sit behind
/// mutexes. A race between two threads computing the same compile,
/// decode, or report is benign — both compute the same deterministic
/// value and one insert wins. Training profiles and sequential
/// baselines, which every cell of a scenario asks for at once, are
/// computed once per key even under races.
#[derive(Debug, Default)]
pub struct SimCache {
    profiles: Mutex<HashMap<u64, Arc<ProfileSlot>>>,
    baselines: Mutex<HashMap<String, Arc<BaselineSlot>>>,
    compiled: Mutex<HashMap<String, Arc<CompiledProgram>>>,
    decoded: Mutex<HashMap<String, Arc<DecodedProgram>>>,
    reports: Mutex<HashMap<String, RunReport>>,
}

/// Poison-tolerant lock: a panicking cell (chaos injection, bugs) must
/// not wedge every other cell of the scenario — cached values are
/// deterministic, so the map is never left in an inconsistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SimCache {
    /// Fresh, empty cache.
    pub fn new() -> SimCache {
        SimCache::default()
    }

    /// Cache key of a compiler configuration (its `Debug` rendering —
    /// deterministic and collision-free over the config space).
    pub fn compile_key(cfg: &HccConfig) -> String {
        format!("{cfg:?}")
    }

    /// The training profile of `program` under `fuel` steps, computed
    /// on first use. The profile depends only on the program and the
    /// fuel, so every compiler configuration of the scenario shares it.
    fn profile(&self, program: &Program, fuel: u64) -> Result<Arc<ProgramProfile>, ExpError> {
        let slot = lock(&self.profiles).entry(fuel).or_default().clone();
        slot.get_or_init(|| Ok(Arc::new(training_profile(program, fuel)?)))
            .clone()
    }

    /// How many training profiles this cache has computed.
    #[cfg(test)]
    fn profiles_computed(&self) -> usize {
        lock(&self.profiles)
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// The sequential baseline cycles stored under `key`, or `run`'s
    /// result, stored on success. Concurrent callers with the same key
    /// wait for the first; a failure is not stored, so the next caller
    /// (a retry) runs again.
    pub fn baseline(
        &self,
        key: String,
        run: impl FnOnce() -> Result<u64, ExpError>,
    ) -> Result<u64, ExpError> {
        let slot = lock(&self.baselines).entry(key).or_default().clone();
        let mut cycles = lock(&slot);
        if let Some(hit) = *cycles {
            return Ok(hit);
        }
        let computed = run()?;
        *cycles = Some(computed);
        Ok(computed)
    }

    /// How many sequential baselines this cache has simulated.
    #[cfg(test)]
    fn baselines_computed(&self) -> usize {
        lock(&self.baselines)
            .values()
            .filter(|slot| lock(slot).is_some())
            .count()
    }

    /// Compile `program` under `cfg`, memoized, against the cached
    /// training profile. Compilation is deterministic, so a concurrent
    /// duplicate compute is harmless.
    pub fn compile(
        &self,
        program: &Program,
        cfg: &HccConfig,
    ) -> Result<Arc<CompiledProgram>, ExpError> {
        let key = SimCache::compile_key(cfg);
        if let Some(hit) = lock(&self.compiled).get(&key) {
            return Ok(hit.clone());
        }
        let profile = self.profile(program, cfg.profile_fuel)?;
        let computed = Arc::new(compile_with_profile(program, cfg, &profile)?);
        Ok(lock(&self.compiled).entry(key).or_insert(computed).clone())
    }

    /// The shared decode of the program identified by `key` (a compile
    /// key, or [`SEQ_KEY`] for the original program), decoding on first
    /// use.
    pub fn decoded(&self, key: &str, program: &Program) -> Arc<DecodedProgram> {
        if let Some(hit) = lock(&self.decoded).get(key) {
            return hit.clone();
        }
        let computed = Arc::new(helix_ir::decode::decode(program));
        lock(&self.decoded)
            .entry(key.to_string())
            .or_insert(computed)
            .clone()
    }

    /// A previously stored run report, if any.
    pub fn report(&self, key: &str) -> Option<RunReport> {
        lock(&self.reports).get(key).cloned()
    }

    /// Store a successful run report under its key.
    pub fn store_report(&self, key: String, report: &RunReport) {
        lock(&self.reports)
            .entry(key)
            .or_insert_with(|| report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_hcc::compile;
    use helix_ir::{AddrExpr, ProgramBuilder, Ty};

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let data = b.region("data", 1 << 12, Ty::I64);
        b.counted_loop(0, 64, 1, |b, i| {
            let x = b.reg();
            b.load(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
            b.alu_chain(x, 2);
            b.store(x, AddrExpr::region_indexed(data, i, 8, 0), Ty::I64);
        });
        b.finish()
    }

    #[test]
    fn compile_is_memoized_per_config() {
        let program = tiny();
        let cache = SimCache::new();
        let a = cache.compile(&program, &HccConfig::v3(4)).unwrap();
        let b = cache.compile(&program, &HccConfig::v3(4)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same config must hit");
        let c = cache.compile(&program, &HccConfig::v2(4)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different config must miss");
    }

    /// Every compiler generation and core count of a scenario compiles
    /// against one training profile, and the result equals a direct
    /// compile.
    #[test]
    fn one_profile_per_scenario_cache() {
        let program = tiny();
        let cache = SimCache::new();
        for cores in [2, 4, 16] {
            for cfg in [
                HccConfig::v1(cores),
                HccConfig::v2(cores),
                HccConfig::v3(cores),
            ] {
                let cached = cache.compile(&program, &cfg).unwrap();
                let direct = compile(&program, &cfg).unwrap();
                assert_eq!(format!("{cached:?}"), format!("{direct:?}"));
            }
        }
        assert_eq!(cache.profiles_computed(), 1);
        let mut cheap = HccConfig::v3(4);
        cheap.profile_fuel /= 2;
        cache.compile(&program, &cheap).unwrap();
        assert_eq!(cache.profiles_computed(), 2, "the key includes the fuel");
    }

    /// The generations, coupled_vs_ring, overheads and core_sweep cells
    /// of a grid at 2, 4, 8 and 16 cores share one sequential baseline
    /// simulation; each further core model adds one.
    #[test]
    fn one_sequential_baseline_per_scenario_cache() {
        use crate::experiment::*;
        use helix_workloads::{Kind, PaperRow, Workload};
        let w = Workload {
            name: "tiny".into(),
            kind: Kind::Int,
            program: tiny(),
            paper: PaperRow::UNPUBLISHED,
            nests: Vec::new(),
        };
        let cache = Arc::new(SimCache::new());
        let opts = ExperimentOptions::default().with_cache(cache.clone());
        let counts = [2, 4, 8, 16];
        for cores in counts {
            compiler_generations(&w, cores, &opts).unwrap();
            coupled_vs_ring(&w, cores, &opts).unwrap();
            overhead_breakdown(&w, cores, &opts).unwrap();
        }
        sweep_core_count(&w, &counts, &opts).unwrap();
        assert_eq!(cache.baselines_computed(), 1);
        let uncached = baseline_cycles(
            &w,
            &helix_sim::MachineConfig::conventional(8),
            &ExperimentOptions::default(),
        )
        .unwrap();
        let row = compiler_generations(&w, 8, &opts).unwrap();
        assert_eq!(row.seq_cycles, uncached, "a hit equals a fresh run");
        core_type_sweep(&w, 4, &opts).unwrap();
        assert_eq!(cache.baselines_computed(), 3, "one per core model");
    }

    #[test]
    fn decode_is_memoized_per_key() {
        let program = tiny();
        let cache = SimCache::new();
        let a = cache.decoded(SEQ_KEY, &program);
        let b = cache.decoded(SEQ_KEY, &program);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn reports_round_trip() {
        let program = tiny();
        let cache = SimCache::new();
        assert!(cache.report("k").is_none());
        let report =
            helix_sim::Machine::new(&program, &[], helix_sim::MachineConfig::conventional(1))
                .run(1 << 22)
                .unwrap();
        cache.store_report("k".into(), &report);
        let hit = cache.report("k").unwrap();
        assert_eq!(hit.cycles, report.cycles);
        assert_eq!(hit.mem_digest, report.mem_digest);
    }
}
