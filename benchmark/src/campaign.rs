//! `campaign-full` and `campaign-paper-journal`: a committed campaign
//! run cold into a fresh journal through `helix_rc::api::execute`, as
//! `helix campaign --journal` runs it, then answered again from that
//! journal.
//!
//! The traced run also replays the layers one call at a time: every
//! experiment family over every scenario of the campaign, every compile
//! the grid implies, a decode of every distinct program, and the HCCv3
//! programs simulated on the three machines of [`layers::machines`].

use crate::check::{against, fnv1a64, Checker};
use crate::layers::{self, SimCounts};
use crate::speed::Scaler;
use crate::trace::{self_time_by_name, Tracer};
use crate::{closed_loop, paper, setups, sys, Ctx, Metric, Run, Timings, MIN_OPS};
use helix_hcc::HccConfig;
use helix_rc::api::{execute, CampaignSource, Request, Response, RunOptions};
use helix_rc::experiment::{
    compiler_generations, coupled_vs_ring, decoupling_lattice, link_latency_settings,
    node_memory_settings, overhead_breakdown, signal_bandwidth_settings, sweep_core_count,
    sweep_ring, ExperimentOptions, LatticePoint, FUEL,
};
use helix_rc::{CampaignReport, CampaignRunStats};
use helix_workloads::{
    workload_from_spec, CampaignExperiment, CampaignSpec, ScenarioSpec, Workload,
};
use std::collections::BTreeSet;
use std::path::Path;

pub const FULL: &str = "campaigns/full.toml";
pub const PAPER: &str = "campaigns/paper.toml";

/// Resumes from the journal after each cold run: at least
/// `RESUMES_MIN`, then more until `RESUME_SECONDS` have gone into them.
const RESUMES_MIN: usize = 10;
const RESUME_SECONDS: f64 = 0.5;

/// Set-ups: at least `SETUP_MIN` before the first op, then more for
/// `SETUP_SECONDS` before it and after every op, so that `setup_s`, their
/// median, samples the host over the whole run as the ops do. A set-up
/// of a millisecond or two timed in one block reads up to a third apart
/// from run to run on a shared host. A traced run sets up once.
const SETUP_MIN: usize = 5;
const SETUP_SECONDS: f64 = 0.25;

/// A campaign loaded and lowered: the set-up of both workloads.
struct Input {
    spec: CampaignSpec,
    /// The campaign TOML with the benchmark seed as its seed offset.
    campaign_toml: String,
    scenario_tomls: Vec<String>,
    /// The scenarios, reseeded as the campaign reseeds them, lowered at
    /// the campaign's scale, sorted by name.
    workloads: Vec<Workload>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn load(root: &Path, file: &str, seed: u64, t: &mut Tracer) -> Result<Input, String> {
    let path = root.join(file);
    let (spec, scenario_tomls, scenarios) = t.span("workloads.parse", |_| {
        let mut spec =
            CampaignSpec::from_toml(&read(&path)?).map_err(|e| format!("{file}: {e}"))?;
        spec.seed = i64::try_from(seed).map_err(|_| format!("seed {seed} exceeds i64"))?;
        let base = path.parent().unwrap_or(root);
        let files = spec
            .resolve_scenarios(base)
            .map_err(|e| format!("{file}: {e}"))?;
        let texts = files
            .iter()
            .map(|f| read(f))
            .collect::<Result<Vec<_>, _>>()?;
        let scenarios = texts
            .iter()
            .zip(&files)
            .map(|(text, f)| {
                ScenarioSpec::from_toml(text).map_err(|e| format!("{}: {e}", f.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((spec, texts, scenarios))
    })?;
    let mut workloads = t.span("workloads.lower", |_| {
        scenarios
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.seed = s.seed.wrapping_add(spec.seed);
                workload_from_spec(&s, spec.scale).map_err(|e| format!("{}: {e}", s.name))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    workloads.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Input {
        campaign_toml: spec.to_toml(),
        spec,
        scenario_tomls,
        workloads,
    })
}

/// One answered campaign request.
struct Answer {
    json: String,
    stats: CampaignRunStats,
    report: CampaignReport,
}

fn execute_campaign(input: &Input, journal: Option<&Path>, resume: bool) -> Result<Answer, String> {
    let mut options = RunOptions::new();
    if let Some(dir) = journal {
        options = options.with_journal(dir).with_resume(resume);
    }
    let request = Request::RunCampaign {
        source: CampaignSource::Inline {
            campaign: input.campaign_toml.clone(),
            scenarios: input.scenario_tomls.clone(),
        },
        options,
    };
    match execute(request) {
        Response::Campaign {
            json,
            stats,
            report: Some(report),
            ..
        } => Ok(Answer {
            json,
            stats,
            report: *report,
        }),
        Response::Error(e) => Err(format!("campaign error: {e}")),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// Files and bytes in a journal directory.
fn journal_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries.flatten().fold((0, 0), |(files, bytes), e| {
        let len = e.metadata().map_or(0, |m| m.len());
        (files + 1, bytes + len)
    })
}

/// What the ops of one run have measured and seen so far.
#[derive(Default)]
struct Seen {
    /// Reads the host's speed between every two timed blocks of an
    /// untraced run.
    scaler: Option<Scaler>,
    cold: Timings,
    resume: Timings,
    digest: Option<u64>,
    paper_err: Option<f64>,
    stats: Option<CampaignRunStats>,
    resume_stats: Option<CampaignRunStats>,
    journal: (u64, u64),
}

fn check_cold(ctx: &Ctx, seen: &mut Seen, a: &Answer) -> Result<(), String> {
    if a.stats.failed > 0 || !a.report.failures.is_empty() {
        return Err(format!(
            "{} failed cells",
            a.report.failures.len().max(a.stats.failed)
        ));
    }
    let digest = fnv1a64(a.json.as_bytes());
    against(&ctx.refs, ctx.seed, "report", &format!("{digest:016x}"))?;
    if seen.digest.is_some_and(|d| d != digest) {
        return Err("report bytes differ from the previous run's".into());
    }
    seen.digest = Some(digest);
    let (err, _) = paper::paper_err(&a.report)?;
    seen.paper_err = Some(err);
    Ok(())
}

fn check_resume(
    cold: &Answer,
    resumed: &Answer,
    before: (u64, u64),
    after: (u64, u64),
) -> Result<(), String> {
    if resumed.json != cold.json {
        return Err("resumed report differs from the cold report".into());
    }
    let s = resumed.stats;
    if !s.fully_cached() || s.journal_hits != s.cells {
        return Err(format!("resume was not answered from the journal: {s:?}"));
    }
    if after != before {
        return Err(format!("journal grew on resume: {before:?} -> {after:?}"));
    }
    Ok(())
}

/// Read the host's speed, when the run scales its timings, and scale the
/// samples `block` took since the last reading.
fn settle(scaler: &mut Option<Scaler>, block: &mut Timings) {
    if let Some(s) = scaler {
        s.settle(block);
    }
}

/// One op: a cold run into a fresh journal, then the resumes.
fn op(ctx: &Ctx, input: &Input, t: &mut Tracer, checker: &mut Checker, seen: &mut Seen) {
    let id = t.next_op();
    let dir = ctx
        .work
        .join(format!("journal-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = seen.cold.time(|| {
        t.span("core.campaign", |_| {
            execute_campaign(input, Some(&dir), false)
        })
    });
    settle(&mut seen.scaler, &mut seen.cold);
    let cold = cold.and_then(|a| check_cold(ctx, seen, &a).map(|()| a));
    let cold = match cold {
        Ok(a) => {
            checker.record("cold campaign", Ok(()));
            seen.stats = Some(a.stats);
            a
        }
        Err(e) => {
            checker.record("cold campaign", Err(e));
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    };
    seen.journal = journal_size(&dir);
    closed_loop(RESUME_SECONDS, RESUMES_MIN, || {
        let resumed = seen.resume.time(|| {
            t.span("core.campaign.resume", |_| {
                execute_campaign(input, Some(&dir), true)
            })
        });
        let outcome = resumed.and_then(|r| {
            seen.resume_stats = Some(r.stats);
            check_resume(&cold, &r, seen.journal, journal_size(&dir))
        });
        checker.record("resume", outcome);
    });
    settle(&mut seen.scaler, &mut seen.resume);
    let _ = std::fs::remove_dir_all(&dir);
}

pub fn run(ctx: &Ctx, run: &mut Run, file: &str) -> Result<(), String> {
    let setup = |t: &mut Tracer| load(&ctx.root, file, ctx.seed, t);
    let mut setup_s = Timings::default();
    if ctx.trace || ctx.record {
        let input = setups(&mut run.tracer, &mut setup_s, 1, 0.0, setup)?;
        return if ctx.record {
            record(ctx, file, &input)
        } else {
            traced(ctx, run, &input)
        };
    }
    let mut seen = Seen {
        scaler: Some(Scaler::start()),
        ..Seen::default()
    };
    let input = setups(
        &mut run.tracer,
        &mut setup_s,
        SETUP_MIN,
        SETUP_SECONDS,
        setup,
    )?;
    settle(&mut seen.scaler, &mut setup_s);
    closed_loop(ctx.seconds, MIN_OPS, || {
        op(ctx, &input, &mut run.tracer, &mut run.checker, &mut seen);
        let more = setups(&mut run.tracer, &mut setup_s, 1, SETUP_SECONDS, setup);
        run.checker.record("set-up", more.map(drop));
        settle(&mut seen.scaler, &mut setup_s);
    });
    let readings = &seen.scaler.as_ref().expect("set above").speed.readings;
    run.info
        .push(Metric::median("speed.slice_cpu_s", "s", readings));
    run.push_timings("setup_s", &setup_s);
    run.push_timings("campaign_s", &seen.cold);
    run.push_timings("resume_s", &seen.resume);
    if let Some(err) = seen.paper_err {
        run.push(Metric::value("paper_err", "ratio", err));
    }
    Ok(())
}

/// The traced run: untraced and traced ops, then the layer replay.
fn traced(ctx: &Ctx, run: &mut Run, input: &Input) -> Result<(), String> {
    // Ops alternate untraced and traced as off, on, on, off, so that
    // neither side alone gets the first, cold op or a drift of the host.
    let mut seen = Seen::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut n = 0;
    closed_loop(ctx.seconds, 4, || {
        let on = matches!(n % 4, 1 | 2);
        run.tracer.set_on(on);
        op(ctx, input, &mut run.tracer, &mut run.checker, &mut seen);
        let cpu = seen.cold.last().map_or(0.0, |(cpu, _)| cpu);
        if on {
            traced.push(cpu)
        } else {
            untraced.push(cpu)
        }
        n += 1;
    });
    run.tracer.set_on(true);
    let counts = replay(input, &mut run.tracer, &mut run.checker);

    layers::push_front_end_metrics(run);
    let machines = layers::machines(max_cores(&input.spec));
    counts.push_metrics(run, &machines);

    if let Some(s) = seen.stats {
        for (name, v) in [
            ("cells", s.cells),
            ("simulated", s.simulated),
            ("journal_hits", s.journal_hits),
            ("derived_computed", s.derived_computed),
        ] {
            run.push(Metric::value(
                format!("core.campaign.{name}"),
                "count",
                v as f64,
            ));
        }
    }
    if let Some((cpu, wall)) = seen.cold.last() {
        run.push(Metric::value("core.campaign.cpu_s", "s", cpu));
        let util = cpu / (wall * sys::nproc() as f64);
        run.push(Metric::value("core.campaign.cpu_util", "ratio", util));
    }
    let by_name = self_time_by_name(run.tracer.spans());
    for fam in CampaignExperiment::ALL {
        let name = format!("core.experiment.{}", fam.render());
        run.push(Metric::value(
            format!("{name}_s"),
            "s",
            layers::span_s(&by_name, &name),
        ));
    }
    run.push(Metric::value(
        "core.journal.files",
        "count",
        seen.journal.0 as f64,
    ));
    run.push(Metric::value(
        "core.journal.bytes",
        "B",
        seen.journal.1 as f64,
    ));
    if let Some(s) = seen.resume_stats {
        run.push(Metric::value(
            "core.campaign.resume.journal_hits",
            "count",
            s.journal_hits as f64,
        ));
        run.push(Metric::value(
            "core.campaign.resume.simulated",
            "count",
            s.simulated as f64,
        ));
    }
    layers::push_overhead(run, &traced, &untraced);
    Ok(())
}

fn max_cores(spec: &CampaignSpec) -> usize {
    spec.grid.cores.iter().copied().max().unwrap_or(16) as usize
}

fn sweep(spec: &CampaignSpec) -> Vec<usize> {
    let axis = if spec.grid.sweep_cores.is_empty() {
        &spec.grid.cores
    } else {
        &spec.grid.sweep_cores
    };
    axis.iter().map(|&c| c as usize).collect()
}

/// Run one experiment family on one scenario, as a campaign cell does
/// (default options: no cache, one lane).
fn run_family(
    fam: CampaignExperiment,
    w: &Workload,
    cores: usize,
    sweep: &[usize],
) -> Result<(), String> {
    let o = &ExperimentOptions::default();
    let r = match fam {
        CampaignExperiment::Generations => compiler_generations(w, cores, o).map(drop),
        CampaignExperiment::CoupledVsRing => coupled_vs_ring(w, cores, o).map(drop),
        CampaignExperiment::Overheads => overhead_breakdown(w, cores, o).map(drop),
        CampaignExperiment::Lattice => decoupling_lattice(w, cores, o).map(drop),
        CampaignExperiment::CoreSweep => sweep_core_count(w, sweep, o).map(drop),
        CampaignExperiment::RingLatency => {
            sweep_ring(w, cores, &link_latency_settings(), o).map(drop)
        }
        CampaignExperiment::RingBandwidth => {
            sweep_ring(w, cores, &signal_bandwidth_settings(), o).map(drop)
        }
        CampaignExperiment::RingMemory => {
            sweep_ring(w, cores, &node_memory_settings(), o).map(drop)
        }
    };
    r.map_err(|e| format!("{} {}: {e}", w.name, fam.render()))
}

/// Core counts of the cells a family runs: the whole sweep as one cell,
/// or one cell per grid core count.
fn cell_cores(fam: CampaignExperiment, spec: &CampaignSpec) -> Vec<usize> {
    if fam == CampaignExperiment::CoreSweep {
        vec![*sweep(spec).iter().max().expect("validated non-empty sweep")]
    } else {
        spec.grid.cores.iter().map(|&c| c as usize).collect()
    }
}

/// The layer replay of a traced run. Every experiment family runs over
/// the campaign's scenarios, also the families the campaign leaves out,
/// so that both campaigns time all eight. Returns the simulators'
/// counters.
fn replay(input: &Input, t: &mut Tracer, checker: &mut Checker) -> SimCounts {
    t.next_op();
    t.span("replay", |t| {
        let sweep = sweep(&input.spec);
        for fam in CampaignExperiment::ALL {
            let name = format!("core.experiment.{}", fam.render());
            let outcome = t.span(&name, |_| {
                input.workloads.iter().try_for_each(|w| {
                    cell_cores(fam, &input.spec)
                        .into_iter()
                        .try_for_each(|cores| run_family(fam, w, cores, &sweep))
                })
            });
            checker.record(&name, outcome);
        }

        let cores = max_cores(&input.spec);
        let machines = layers::machines(cores);
        let mut counts = SimCounts::default();
        for w in &input.workloads {
            let outcome = (|| -> Result<(), String> {
                let mut v3 = None;
                layers::decode(t, &w.program);
                for hcc in distinct_compiles(&input.spec, &sweep) {
                    let compiled = layers::compile(t, &w.program, &hcc)?;
                    layers::decode(t, &compiled.program);
                    if hcc == HccConfig::v3(cores as u32) {
                        v3 = Some(compiled);
                    }
                }
                let v3 = v3.ok_or("the grid never compiles HCCv3 at its core count")?;
                for m in &machines {
                    let report = layers::simulate(t, m, &w.program, &v3, FUEL)?;
                    counts.add(m, &report);
                }
                Ok(())
            })();
            checker.record(&format!("replay {}", w.name), outcome);
        }
        counts
    })
}

/// The compiler configurations `helix_rc::experiment` compiles one cell
/// of `fam` at `cores` under.
fn family_compiles(fam: CampaignExperiment, cores: usize, sweep: &[usize]) -> Vec<HccConfig> {
    let c = cores as u32;
    match fam {
        CampaignExperiment::Generations => {
            vec![HccConfig::v1(c), HccConfig::v2(c), HccConfig::v3(c)]
        }
        CampaignExperiment::Lattice => vec![
            LatticePoint::Hccv2.compiler(c),
            LatticePoint::All.compiler(c),
        ],
        CampaignExperiment::CoreSweep => sweep.iter().map(|&k| HccConfig::v3(k as u32)).collect(),
        _ => vec![HccConfig::v3(c)],
    }
}

/// Every distinct compiler configuration the grid implies, in a stable
/// order.
fn distinct_compiles(spec: &CampaignSpec, sweep: &[usize]) -> Vec<HccConfig> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for &fam in &spec.grid.experiments {
        for cores in cell_cores(fam, spec) {
            for hcc in family_compiles(fam, cores, sweep) {
                if seen.insert(format!("{hcc:?}")) {
                    out.push(hcc);
                }
            }
        }
    }
    out
}

/// Record the seed's reference report digest, after checking the run
/// is clean and that a resume reproduces it.
fn record(ctx: &Ctx, file: &str, input: &Input) -> Result<(), String> {
    let dir = ctx
        .work
        .join(format!("journal-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = execute_campaign(input, Some(&dir), false)?;
    if cold.stats.failed > 0 || !cold.report.failures.is_empty() {
        return Err("campaign has failed cells; not recording".into());
    }
    let before = journal_size(&dir);
    let resumed = execute_campaign(input, Some(&dir), true)?;
    check_resume(&cold, &resumed, before, journal_size(&dir))?;
    let _ = std::fs::remove_dir_all(&dir);
    let digest = format!("{:016x}", fnv1a64(cold.json.as_bytes()));
    let (err, n) = paper::paper_err(&cold.report)?;
    println!(
        "seed {}: report {digest}, paper_err {err} over {n} stand-ins",
        ctx.seed
    );
    let mut refs = ctx.refs.clone();
    refs.replace_seed(ctx.seed, vec![("report".into(), digest)]);
    refs.write(
        &ctx.refs_path,
        &format!("FNV-1a 64 digests of the {} report, by seed offset.\nRecord with --record; see README.md.", file),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Refs;
    use std::path::PathBuf;

    /// One SPEC stand-in, the headline family at the paper's core count,
    /// at Test scale: the smallest campaign `paper_err` is defined on.
    const TINY: &str = r#"
name = "tiny"
description = "one stand-in, headline family"
scenarios = ["scenarios/175.vpr.toml"]
scale = "test"
seed = 0

[grid]
cores = [16]
experiments = ["generations"]
"#;

    fn tiny() -> Input {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let spec = CampaignSpec::from_toml(TINY).unwrap();
        let scenario_tomls = spec
            .resolve_scenarios(root)
            .unwrap()
            .iter()
            .map(|f| std::fs::read_to_string(f).unwrap())
            .collect();
        Input {
            campaign_toml: spec.to_toml(),
            spec,
            scenario_tomls,
            workloads: Vec::new(),
        }
    }

    fn op_against(input: &Input, refs: Refs) -> Checker {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let work = root.join(".bench_work");
        std::fs::create_dir_all(&work).unwrap();
        let ctx = Ctx {
            root: root.to_path_buf(),
            work,
            seed: 0,
            seconds: 1.0,
            trace: false,
            record: false,
            refs,
            refs_path: PathBuf::new(),
        };
        let mut checker = Checker::default();
        let mut t = Tracer::new(false);
        op(&ctx, input, &mut t, &mut checker, &mut Seen::default());
        checker
    }

    #[test]
    fn corrupted_reference_raises_fail_frac() {
        let input = tiny();
        // The reference comes from a run without a journal.
        let cold = execute_campaign(&input, None, false).unwrap();
        let digest = fnv1a64(cold.json.as_bytes());
        let mut refs = Refs::default();
        refs.replace_seed(0, vec![("report".into(), format!("{digest:016x}"))]);
        let clean = op_against(&input, refs.clone());
        assert_eq!(clean.failed, 0, "{:?}", clean.notes);
        assert!(clean.attempted > RESUMES_MIN as u64);

        // The same reference with one bit flipped.
        let corrupted = format!("{:016x}", digest ^ 1);
        refs.replace_seed(0, vec![("report".into(), corrupted)]);
        let bad = op_against(&input, refs);
        assert_eq!((bad.attempted, bad.failed), (1, 1));
        assert!(bad.fail_frac() > 0.0);
        assert!(bad.notes[0].contains("report"), "{:?}", bad.notes);
    }
}
