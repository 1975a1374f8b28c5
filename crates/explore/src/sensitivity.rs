//! Budget-sensitivity analysis.
//!
//! Table 1 fixes one area budget per application, but the §5
//! over-allocation phenomenon only bites in a *regime* of budgets: too
//! small and nothing fits either way, too large and the waste is
//! absorbed. This module sweeps the budget and reports, per point, the
//! heuristic / iterated / sampled-best speed-ups — showing how wide
//! the interesting regime is and how robust the design iteration is.

use crate::apply_iteration;
use crate::flow::Fetched;
use crate::random::sample_best;
use lycos_apps::BenchmarkApp;
use lycos_core::{allocate, AllocConfig, Restrictions};
use lycos_hwlib::{Area, HwLibrary};
use lycos_pace::{PaceConfig, PaceError};

/// One budget point of the sensitivity sweep.
#[derive(Clone, Debug)]
pub struct SensitivityPoint {
    /// The total hardware area of this point.
    pub budget: u64,
    /// Speed-up of the automatic allocation.
    pub heuristic_su: f64,
    /// Speed-up after the app's design iteration (heuristic if none).
    pub iterated_su: f64,
    /// Best speed-up among the random samples (lower bound on best).
    pub sampled_best_su: f64,
}

/// Sweeps budgets `lo..=hi` in `step` increments for one application.
///
/// `samples` random allocations per point approximate the best
/// (exhaustive search at every point would dominate the runtime).
/// Every point partitions over one artifact set, prepared once for the
/// application.
///
/// # Errors
///
/// Propagates [`PaceError`] from any evaluation.
///
/// # Panics
///
/// Panics if `step` is zero or `lo > hi`.
pub fn budget_sensitivity(
    app: &BenchmarkApp,
    lib: &HwLibrary,
    pace: &PaceConfig,
    lo: u64,
    hi: u64,
    step: u64,
    samples: usize,
) -> Result<Vec<SensitivityPoint>, PaceError> {
    assert!(step > 0, "step must be positive");
    assert!(lo <= hi, "empty budget range");
    let bsbs = app.bsbs();
    let restr = Restrictions::from_asap(&bsbs, lib)?;
    let mut eval = Fetched::new(&bsbs, lib, &restr, pace, None)?;
    let mut out = Vec::new();
    let mut budget = lo;
    while budget <= hi {
        let area = Area::new(budget);
        let outcome = allocate(&bsbs, lib, &pace.eca, area, &restr, &AllocConfig::default())?;
        let heuristic_su = eval
            .partition(&bsbs, lib, &outcome.allocation, area, pace)?
            .speedup_pct();
        let iterated_su = match app.iteration {
            Some(hint) => {
                let adjusted = apply_iteration(&outcome.allocation, hint, lib);
                eval.partition(&bsbs, lib, &adjusted, area, pace)?
                    .speedup_pct()
            }
            None => heuristic_su,
        };
        let sampled = sample_best(&mut eval, &bsbs, lib, area, &restr, pace, samples, budget)?;
        out.push(SensitivityPoint {
            budget,
            heuristic_su,
            iterated_su,
            sampled_best_su: sampled.best_partition.speedup_pct().max(heuristic_su),
        });
        budget += step;
    }
    Ok(out)
}

/// Renders the sweep as an aligned text table.
pub fn format_sensitivity(points: &[SensitivityPoint]) -> String {
    let mut out = String::new();
    out.push_str("budget     heuristic   iterated   sampled best\n");
    out.push_str("-------    ---------   --------   ------------\n");
    for p in points {
        out.push_str(&format!(
            "{:>7}    {:>8.0}%   {:>7.0}%   {:>11.0}%\n",
            p.budget, p.heuristic_su, p.iterated_su, p.sampled_best_su
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_requested_points() {
        let app = lycos_apps::hal();
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let points = budget_sensitivity(&app, &lib, &pace, 6_000, 8_000, 1_000, 8).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].budget, 6_000);
        assert_eq!(points[2].budget, 8_000);
        for p in &points {
            assert!(p.sampled_best_su >= p.heuristic_su * 0.999);
        }
    }

    #[test]
    fn iteration_never_tracked_below_heuristic_for_apps_without_hint() {
        let app = lycos_apps::straight();
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let points = budget_sensitivity(&app, &lib, &pace, 9_000, 10_000, 1_000, 4).unwrap();
        for p in &points {
            assert_eq!(p.iterated_su, p.heuristic_su, "no hint: identical");
        }
    }

    #[test]
    fn format_contains_columns() {
        let text = format_sensitivity(&[SensitivityPoint {
            budget: 7_000,
            heuristic_su: 100.0,
            iterated_su: 150.0,
            sampled_best_su: 200.0,
        }]);
        assert!(text.contains("7000"));
        assert!(text.contains("150%"));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let app = lycos_apps::hal();
        let _ = budget_sensitivity(
            &app,
            &HwLibrary::standard(),
            &PaceConfig::standard(),
            1,
            2,
            0,
            1,
        );
    }
}
