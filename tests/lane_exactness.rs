//! Cache-exactness pins. Every campaign shares one simulation cache per
//! scenario (memoized profiles, compiles, decodes, and run reports);
//! that is a pure performance feature. These tests hold it to that:
//! the committed smoke and paper campaigns keep their report bytes
//! (digests recorded before the lane layer was deleted, when the cache
//! was still opt-in), every campaign row equals the uncached experiment
//! call it lowers to, the engine axis stays invisible, and under the
//! chaos harness fault-injected cells stay isolated from the cache
//! their neighbours share. The former `lanes` option is still accepted
//! on both front doors.

mod common;

use common::repo_path;
use helix_rc::api::{decode_request, execute, Request, Response, RunOptions, SpecSource};
use helix_rc::campaign::{load_campaign, run_campaign_with, CampaignRunOptions, LoweredCampaign};
use helix_rc::experiment::ExperimentOptions;
use helix_rc::resilient::FaultPlan;
use helix_rc::sim::EngineSel;
use helix_rc::workloads::{CampaignSpec, ScenarioSpec};
use helix_rc::{CampaignReport, CampaignSource};
use std::sync::OnceLock;

/// FNV-1a (64-bit) of a report's JSON bytes.
fn digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn smoke() -> &'static (CampaignSpec, Vec<ScenarioSpec>) {
    static SMOKE: OnceLock<(CampaignSpec, Vec<ScenarioSpec>)> = OnceLock::new();
    SMOKE.get_or_init(|| {
        load_campaign(&repo_path("campaigns/smoke.toml")).expect("smoke campaign loads")
    })
}

/// The smoke campaign run once with default options, shared by every
/// test that compares against it.
fn smoke_report() -> &'static CampaignReport {
    static REPORT: OnceLock<CampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let (spec, scenarios) = smoke();
        let report =
            run_campaign_with(spec, scenarios, &CampaignRunOptions::default()).expect("smoke run");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        report
    })
}

/// The smoke campaign's report bytes are those of the per-cell,
/// uncached runs that preceded the always-on cache.
#[test]
fn smoke_campaign_report_bytes_are_pinned() {
    assert_eq!(digest(&smoke_report().to_json()), 0x1b97_635b_60a8_8322);
}

/// The committed paper campaign — every committed scenario through
/// every experiment family — keeps its report bytes too.
#[test]
fn paper_campaign_report_bytes_are_pinned() {
    let (spec, scenarios) =
        load_campaign(&repo_path("campaigns/paper.toml")).expect("paper campaign loads");
    let report =
        run_campaign_with(&spec, &scenarios, &CampaignRunOptions::default()).expect("paper run");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(digest(&report.to_json()), 0x5bbd_f393_dc5d_d4c6);
}

/// Run every smoke cell on its own, uncached, under `opts`, and check
/// each renders the same row as the cached campaign.
fn assert_cells_match_the_campaign(opts: &ExperimentOptions) {
    let (spec, scenarios) = smoke();
    let lowered = LoweredCampaign::new(spec, scenarios).expect("smoke lowers");
    let report = smoke_report();
    assert_eq!(lowered.cells.len(), report.rows.len());
    for (cell, row) in lowered.cells.iter().zip(&report.rows) {
        let direct = lowered.run_cell(*cell, opts).expect("uncached cell");
        assert_eq!(&direct, row, "cell {cell:?} differs under {opts:?}");
    }
}

/// Every campaign row equals the uncached experiment call its cell
/// lowers to, run with `ExperimentOptions::default()`.
#[test]
fn campaign_rows_match_uncached_experiment_calls() {
    assert_cells_match_the_campaign(&ExperimentOptions::default());
}

/// The engine axis is invisible in reports: every smoke cell run on
/// the tree interpreter, or on the naive cycle loop, renders the same
/// row as the cached, decoded, fast-forwarding campaign.
#[test]
fn engine_selection_never_changes_report_bytes() {
    assert_cells_match_the_campaign(&ExperimentOptions::default().with_engine(EngineSel::Tree));
    assert_cells_match_the_campaign(&ExperimentOptions::default().without_fast_forward());
}

/// Failure isolation holds with the shared cache: a chaos plan
/// injecting panics into a deterministic subset of cells fails exactly
/// those cells, and every surviving row — grid and derived — is byte
/// for byte the clean run's. Fault-injected cells run without the
/// scenario's cache, so a panicking cell can neither corrupt nor seed
/// its neighbours.
#[test]
fn chaos_failure_isolation_holds_with_the_shared_cache() {
    let (spec, scenarios) = smoke();
    let plan = FaultPlan {
        seed: 7,
        panics: 2,
        stalls: 0,
        blowouts: 0,
        stall_ms: 0,
        transient: false,
    };
    let chaos = run_campaign_with(
        spec,
        scenarios,
        &CampaignRunOptions {
            faults: Some(plan),
            ..CampaignRunOptions::default()
        },
    )
    .expect("chaos run");
    assert_eq!(chaos.failures.len(), 2, "exactly the injected panics");
    let clean = smoke_report();
    assert_eq!(chaos.rows.len() + 2, clean.rows.len());
    let mut survivors = chaos.rows.iter().peekable();
    for row in &clean.rows {
        if survivors.peek() == Some(&row) {
            survivors.next();
        } else {
            assert!(
                chaos.failures.iter().any(|f| f.scenario == row.scenario
                    && f.experiment == row.experiment
                    && f.cores == row.cores),
                "row {}/{} missing without a failure",
                row.scenario,
                row.experiment
            );
        }
    }
    assert!(survivors.next().is_none(), "chaos rows out of grid order");
    for d in &chaos.derived {
        assert!(
            clean.derived.contains(d),
            "derived row {} differs",
            d.scenario
        );
    }
}

/// `lanes = 0` is rejected as a typed usage error at the API layer —
/// for both scenario and campaign requests — before any source is
/// loaded or any cell runs.
#[test]
fn lanes_zero_is_a_typed_usage_error() {
    let requests = [
        Request::RunScenario {
            source: SpecSource::Inline(String::new()),
            options: RunOptions::default().with_lanes(0),
        },
        Request::RunCampaign {
            source: CampaignSource::Inline {
                campaign: String::new(),
                scenarios: Vec::new(),
            },
            options: RunOptions::default().with_lanes(0),
        },
    ];
    for request in requests {
        match execute(request) {
            Response::Error(e) => {
                assert_eq!(e.kind.code(), "E_USAGE");
                assert!(
                    e.message.contains("lanes"),
                    "unexpected message: {}",
                    e.message
                );
            }
            other => panic!("lanes=0 must fail, got {other:?}"),
        }
    }
}

/// The same guard on the service wire: a request line carrying
/// `"lanes": 0` fails to decode with a typed protocol error.
#[test]
fn wire_lanes_zero_is_a_typed_protocol_error() {
    for line in [
        r#"{"v": 1, "type": "run_scenario", "spec": "", "options": {"lanes": 0}}"#,
        r#"{"v": 1, "type": "run_campaign", "campaign": "", "scenarios": [], "options": {"lanes": 0}}"#,
    ] {
        let err = decode_request(line).expect_err("lanes=0 must not decode");
        assert_eq!(err.kind.code(), "E_PROTOCOL");
        assert!(
            err.message.contains("lanes"),
            "unexpected message: {}",
            err.message
        );
    }
}

/// v1 clients that still send a lane width keep working: the field
/// decodes and round-trips, it just no longer changes execution.
#[test]
fn wire_lanes_is_still_accepted() {
    let line = r#"{"v": 1, "type": "run_campaign", "campaign": "", "scenarios": [], "options": {"lanes": 4}}"#;
    match decode_request(line).expect("lanes=4 decodes") {
        Request::RunCampaign { options, .. } => assert_eq!(options.lanes, Some(4)),
        other => panic!("decoded to {other:?}"),
    }
}
