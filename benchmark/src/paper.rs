//! `paper_err`: how far the measured HELIX-RC speedups sit from the
//! paper's Fig. 7, as a geometric mean of symmetric ratios.
//!
//! This is an in-sample figure. The SPEC stand-in scenarios were shaped
//! after the published numbers, and the model is otherwise unvalidated.

use helix_rc::CampaignReport;
use helix_workloads::paper_row;

/// Core count of the paper's headline speedups.
pub const PAPER_CORES: usize = 16;

/// Geometric mean over `(measured, published)` pairs of
/// `max(m/p, p/m)`. 1 means every speedup matches the paper.
pub fn symmetric_error(pairs: &[(f64, f64)]) -> Result<f64, String> {
    if pairs.is_empty() {
        return Err("no speedups to compare".into());
    }
    let mut log_sum = 0.0;
    for &(m, p) in pairs {
        if !(m > 0.0 && p > 0.0 && m.is_finite() && p.is_finite()) {
            return Err(format!("speedup pair ({m}, {p}) is not positive"));
        }
        log_sum += (m / p).max(p / m).ln();
    }
    Ok((log_sum / pairs.len() as f64).exp())
}

/// `paper_err` of a campaign report: every 16-core `generations` row of
/// a scenario the paper measured, against [`paper_row`]. Returns the
/// error and how many stand-ins it covers.
pub fn paper_err(report: &CampaignReport) -> Result<(f64, usize), String> {
    let pairs: Vec<(f64, f64)> = report
        .rows
        .iter()
        .filter(|r| r.experiment == "generations" && r.cores == PAPER_CORES)
        .filter_map(|r| {
            let published = paper_row(&r.scenario)?.helix_speedup;
            Some((r.helix_speedup?, published))
        })
        .collect();
    Ok((symmetric_error(&pairs)?, pairs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example() {
        // 2x against a published 4x is off by 2; 9x against 3x by 3;
        // an exact match by 1. The geometric mean is (2·3·1)^(1/3).
        let err = symmetric_error(&[(2.0, 4.0), (9.0, 3.0), (5.0, 5.0)]).unwrap();
        assert!((err - 6f64.powf(1.0 / 3.0)).abs() < 1e-12, "{err}");
        assert_eq!(symmetric_error(&[(1.5, 1.5)]).unwrap(), 1.0);
        assert!(symmetric_error(&[]).is_err());
        assert!(symmetric_error(&[(0.0, 2.0)]).is_err());
    }

    #[test]
    fn published_numbers_come_from_paper_row() {
        // 175.vpr is a SPEC stand-in; a measured speedup equal to its
        // published one gives no error, and twice it gives 2.
        let published = paper_row("175.vpr")
            .expect("vpr is published")
            .helix_speedup;
        let row = |speedup: f64, cores: usize, name: &str| helix_rc::CampaignRow {
            scenario: name.into(),
            kind: "int".into(),
            experiment: "generations".into(),
            cores,
            helix_speedup: Some(speedup),
            paper_speedup: None,
            seq_cycles: None,
            helix_cycles: None,
            comm_frac: None,
            overheads: None,
            points: Vec::new(),
        };
        let mut report = CampaignReport {
            name: "t".into(),
            description: String::new(),
            scale: "Test".into(),
            seed: 0,
            scenarios: Vec::new(),
            rows: vec![
                row(2.0 * published, 16, "175.vpr"),
                // Ignored: not 16 cores, and not a published scenario.
                row(100.0, 8, "175.vpr"),
                row(100.0, 16, "900.chase"),
            ],
            derived: Vec::new(),
            failures: Vec::new(),
        };
        let (err, n) = paper_err(&report).unwrap();
        assert_eq!(n, 1);
        assert!((err - 2.0).abs() < 1e-12);
        report.rows[0].helix_speedup = Some(published);
        assert_eq!(paper_err(&report).unwrap(), (1.0, 1));
    }
}
