//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! Runs one workload of `BENCHMARK.json` as a closed loop with one
//! client (one op at a time, the next only after the previous one
//! completes) for `--seconds`, checks every output, prints each metric
//! with its unit, and ends with one JSON line. `--trace 0` reports the
//! end-to-end metrics with tracing off; `--trace 1` records spans around
//! every layer call and reports the per-layer metrics instead.
//! `--record` writes the seed's reference outputs into `refs/`. See
//! README.md in this directory.

mod campaign;
mod check;
mod layers;
mod paper;
mod speed;
mod sys;
mod trace;

use check::{Checker, Refs};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Everything a workload needs from the command line and the checkout.
pub struct Ctx {
    pub root: PathBuf,
    /// Scratch space for journals and span files, inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: bool,
    pub refs: Refs,
    pub refs_path: PathBuf,
}

/// One reported metric: a value with its unit, and for timings the
/// sample count and the highest percentile with ten samples beyond it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 1,
            tail: None,
        }
    }

    /// Median of `samples`, with the tail percentile when there are
    /// enough samples for one.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            value: trace::median(samples),
            unit,
            samples: samples.len(),
            tail: trace::tail_percentile(samples.len()).map(|p| (p, trace::percentile(samples, p))),
        }
    }
}

/// What a workload run hands back.
pub struct Run {
    pub tracer: Tracer,
    pub checker: Checker,
    pub metrics: Vec<Metric>,
    /// Figures printed with the metrics but left out of the result line.
    pub info: Vec<Metric>,
}

impl Run {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Report `name` as the median scaled CPU time of `t`, and print its
    /// raw CPU and wall medians beside it as `<stem>_cpu_s` and
    /// `<stem>_wall_s`.
    pub fn push_timings(&mut self, name: &str, t: &Timings) {
        self.push(Metric::median(name, "s", &t.scaled));
        let stem = name.trim_end_matches("_s");
        self.info
            .push(Metric::median(format!("{stem}_cpu_s"), "s", &t.cpu));
        self.info
            .push(Metric::median(format!("{stem}_wall_s"), "s", &t.wall));
    }
}

/// CPU and wall seconds of every sample of one timed step, and the CPU
/// seconds scaled to the reference host's speed (see `speed.rs`).
#[derive(Default)]
pub struct Timings {
    pub cpu: Vec<f64>,
    pub wall: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl Timings {
    /// Run `f` and push the CPU seconds the process spent in it, all
    /// threads, and its wall seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (cpu0, t0) = (sys::cpu_seconds(), Instant::now());
        let out = f();
        self.wall.push(secs(t0));
        self.cpu.push(sys::cpu_seconds() - cpu0);
        out
    }

    /// Scale the CPU samples taken since the last call by `factor`.
    pub fn settle(&mut self, factor: f64) {
        let done = self.scaled.len();
        self.scaled
            .extend(self.cpu[done..].iter().map(|cpu| cpu * factor));
    }

    /// The last sample as (CPU seconds, wall seconds).
    pub fn last(&self) -> Option<(f64, f64)> {
        Some((*self.cpu.last()?, *self.wall.last()?))
    }
}

/// Ops an untraced run makes at least: the median of three still reads
/// true when one op was slowed by something else on the host.
pub const MIN_OPS: usize = 3;

/// Run `op` back to back, the next only after the previous one
/// completes: at least `min_ops` times, then while another op of the
/// mean length so far still ends within `seconds` of the start. Each op
/// times and checks itself.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut()) {
    let t0 = Instant::now();
    let mut ops = 0;
    loop {
        let elapsed = secs(t0);
        if ops >= min_ops.max(1) && elapsed + elapsed / ops as f64 > seconds {
            return;
        }
        op();
        ops += 1;
    }
}

/// Run `setup` at least `min` times and until `seconds` have gone into
/// this call, dropping each result before the next, and return the last.
/// Each set-up is timed into `times`.
pub fn setups<T>(
    tracer: &mut Tracer,
    times: &mut Timings,
    min: usize,
    seconds: f64,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let t0 = Instant::now();
    let mut last = None;
    let mut n = 0;
    while n < min.max(1) || secs(t0) < seconds {
        drop(last.take());
        last = Some(times.time(|| tracer.span("setup", &mut setup))?);
        n += 1;
    }
    Ok(last.expect("at least one set-up"))
}

/// Seconds as a number for the report.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    CampaignFull,
    CampaignPaperJournal,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::CampaignFull, Workload::CampaignPaperJournal];

    fn name(self) -> &'static str {
        match self {
            Workload::CampaignFull => "campaign-full",
            Workload::CampaignPaperJournal => "campaign-paper-journal",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

const USAGE: &str = "usage: helix-benchmark --workload <campaign-full|campaign-paper-journal> --seed <n> --seconds <s> --trace <0|1> [--record]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, false);
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("helix-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .ok_or("benchmark directory has no parent")?
        .to_path_buf();
    for needed in ["campaigns", "scenarios", "crates"] {
        if !root.join(needed).is_dir() {
            return Err(format!("{needed}/ is missing: run from a full checkout"));
        }
    }
    let work = root.join(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let name = args.workload.name();
    let refs_path = bench_dir.join("refs").join(format!("{name}.txt"));
    let refs = Refs::parse(&std::fs::read_to_string(&refs_path).unwrap_or_default())?;
    let ctx = Ctx {
        root,
        work,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        record: args.record,
        refs,
        refs_path,
    };
    let mut run = Run {
        tracer: Tracer::new(args.trace),
        checker: Checker::default(),
        metrics: Vec::new(),
        info: Vec::new(),
    };
    let t0 = Instant::now();
    match args.workload {
        Workload::CampaignFull => campaign::run(&ctx, &mut run, campaign::FULL)?,
        Workload::CampaignPaperJournal => campaign::run(&ctx, &mut run, campaign::PAPER)?,
    }
    if ctx.record {
        println!(
            "recorded references for seed {} in {}",
            ctx.seed,
            ctx.refs_path.display()
        );
        return Ok(());
    }
    if !ctx.trace {
        run.push(Metric::value("peak_rss_mb", "MB", sys::peak_rss_mb()));
    } else {
        run.push(Metric::value(
            "trace.spans",
            "count",
            run.tracer.spans().len() as f64,
        ));
        let path = ctx.work.join(format!("spans-{name}-{}.jsonl", ctx.seed));
        run.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    print_report(&ctx, name, &run, secs(t0))
}

fn print_report(ctx: &Ctx, name: &str, run: &Run, wall: f64) -> Result<(), String> {
    let c = &run.checker;
    println!(
        "workload {name}  seed {}  trace {}  seconds {}  wall {wall:.1}s",
        ctx.seed, ctx.trace as u8, ctx.seconds
    );
    println!(
        "stamp: nproc {}  {}  commit {}  references {}",
        sys::nproc(),
        env!("BENCH_RUSTC_VERSION"),
        commit(&ctx.root),
        if ctx.refs.has_seed(ctx.seed) {
            "recorded for this seed"
        } else {
            "none for this seed (seed-independent checks only)"
        }
    );
    let info = run.info.iter().map(|m| (m, " (printed only)"));
    for (m, tag) in run.metrics.iter().map(|m| (m, "")).chain(info) {
        let mut line = format!(
            "  {:<44} {:>16} {:<8}",
            m.name,
            format_value(m.value),
            m.unit
        );
        if m.samples > 1 {
            let _ = write!(line, " median of {}", m.samples);
        }
        if let Some((p, v)) = m.tail {
            let _ = write!(line, ", p{p} {}", format_value(v));
        }
        println!("{line}{tag}");
    }
    println!(
        "  {:<44} {:>16} {:<8} {} of {} ops failed",
        "fail_frac",
        format_value(c.fail_frac()),
        "ratio",
        c.failed,
        c.attempted
    );
    for note in &c.notes {
        println!("  FAILED {note}");
    }
    let mut json = String::from("{\"correct\": ");
    let _ = write!(
        json,
        "{}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0,
        c.attempted.max(1),
        c.failed
    );
    for (i, m) in run.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// The checkout's git commit, when it is a git work tree of its own.
fn commit(root: &Path) -> String {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    let Ok(out) = out else {
        return "unknown".into();
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    match (lines.next(), lines.next()) {
        (Some(top), Some(sha))
            if out.status.success()
                && Path::new(top).canonicalize().ok() == root.canonicalize().ok() =>
        {
            sha.to_string()
        }
        _ => "unknown (not a git work tree)".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_and_reject() {
        let a =
            parse("--workload campaign-paper-journal --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::CampaignPaperJournal);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.record),
            (7, 2.5, true, false)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload campaign-full --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload campaign-full --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload campaign-full --seconds 1 --trace 0").is_err());
        assert!(parse("--workload campaign-full --seed -1 --seconds 1 --trace 0").is_err());
    }
}
