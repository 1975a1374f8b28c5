//! Rendering the Pareto frontier of the time×area trade-off.
//!
//! One [`lycos_pace::search_pareto`] sweep replaces the N per-budget
//! searches a trade-off study would otherwise run; this module turns
//! its [`ParetoResult`] into the two outputs the CLI and the
//! allocation service share — a canonical machine-readable CSV and a
//! human-readable staircase listing. Both render points area-ascending
//! (time strictly descending), exactly as the engine emits them.

use lycos_pace::{ParetoPoint, ParetoResult};

/// Header of the canonical machine-readable Pareto CSV (no trailing
/// newline). Shared by the `lycos pareto` command and the allocation
/// service's `pareto` verb so the two outputs cannot drift.
pub const PARETO_CSV_HEADER: &str = "name,area,time_cycles,speedup_pct,hw_blocks,index";

/// One canonical CSV row (no trailing newline). Every column is a
/// pure function of the frontier point, so rows are byte-identical
/// across runs, thread counts and transports — the engine's
/// deterministic reduce guarantees the same points in the same order.
pub fn pareto_csv_row(name: &str, p: &ParetoPoint) -> String {
    format!(
        "{},{},{},{:.2},{},{}",
        name,
        p.area.gates(),
        p.time().count(),
        p.partition.speedup_pct(),
        p.partition.in_hw.iter().filter(|&&hw| hw).count(),
        p.index,
    )
}

/// Renders the complete CSV document: header plus one line per
/// frontier point, each `\n`-terminated.
pub fn format_pareto_csv(name: &str, front: &ParetoResult) -> String {
    let mut out = String::from(PARETO_CSV_HEADER);
    out.push('\n');
    for p in &front.points {
        out.push_str(&pareto_csv_row(name, p));
        out.push('\n');
    }
    out
}

/// Renders the frontier as a human-readable staircase, one line per
/// point, with a one-line effort summary underneath.
pub fn format_pareto(name: &str, front: &ParetoResult) -> String {
    let mut out = format!(
        "{name}: {} Pareto point{}\n",
        front.points.len(),
        if front.points.len() == 1 { "" } else { "s" },
    );
    out.push_str("     area GE   time cyc        SU\n");
    out.push_str("  ---------- ---------- ---------\n");
    for p in &front.points {
        out.push_str(&format!(
            "  {:>10} {:>10} {:>8.0}%\n",
            p.area.gates(),
            p.time().count(),
            p.partition.speedup_pct(),
        ));
    }
    out.push_str(&format!(
        "  ({} evaluated, {} skipped, {} bounded ({} by the controller budget) of {} \
         allocations{})\n",
        front.evaluated,
        front.skipped,
        front.stats.bounded,
        front.stats.budget_pruned,
        front.space_size,
        if front.truncated { ", truncated" } else { "" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos_core::Restrictions;
    use lycos_hwlib::{Area, HwLibrary};
    use lycos_ir::{Bsb, BsbArray, BsbId, BsbOrigin, Dfg, OpKind};
    use lycos_pace::{search_pareto, PaceConfig, SearchOptions};
    use std::collections::BTreeSet;

    fn front() -> ParetoResult {
        let mut dfg = Dfg::new();
        for _ in 0..3 {
            dfg.add_op(OpKind::Mul);
        }
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![Bsb {
                id: BsbId(0),
                name: "b0".into(),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile: 400,
                origin: BsbOrigin::Body,
            }],
        );
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        search_pareto(
            &bsbs,
            &lib,
            Area::new(8_000),
            &restr,
            &PaceConfig::standard(),
            &SearchOptions::sequential(),
        )
        .unwrap()
    }

    #[test]
    fn csv_document_has_header_and_one_line_per_point() {
        let f = front();
        let doc = format_pareto_csv("t", &f);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines[0], PARETO_CSV_HEADER);
        assert_eq!(lines.len(), 1 + f.points.len());
        assert!(doc.ends_with('\n'));
        let cols = PARETO_CSV_HEADER.split(',').count();
        for (line, p) in lines[1..].iter().zip(&f.points) {
            assert_eq!(line.split(',').count(), cols);
            assert!(line.starts_with(&format!("t,{},{},", p.area.gates(), p.time().count())));
        }
    }

    #[test]
    fn csv_rows_are_byte_stable_across_engine_shapes() {
        let f = front();
        // Same frontier under a parallel bounded sweep — the reduce is
        // deterministic, so the CSV is byte-identical.
        let mut dfg = Dfg::new();
        for _ in 0..3 {
            dfg.add_op(OpKind::Mul);
        }
        let bsbs = BsbArray::from_bsbs(
            "t",
            vec![Bsb {
                id: BsbId(0),
                name: "b0".into(),
                dfg,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                profile: 400,
                origin: BsbOrigin::Body,
            }],
        );
        let lib = HwLibrary::standard();
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let parallel = search_pareto(
            &bsbs,
            &lib,
            Area::new(8_000),
            &restr,
            &PaceConfig::standard(),
            &SearchOptions::new().threads(3).bound(true),
        )
        .unwrap();
        for (a, b) in f.points.iter().zip(&parallel.points) {
            assert_eq!(pareto_csv_row("t", a), pareto_csv_row("t", b));
        }
        assert_eq!(f.points.len(), parallel.points.len());
    }

    #[test]
    fn text_listing_shows_every_point_and_the_effort_line() {
        let f = front();
        let text = format_pareto("t", &f);
        assert!(text.starts_with(&format!("t: {} Pareto point", f.points.len())));
        for p in &f.points {
            assert!(text.contains(&format!("{:>10}", p.area.gates())));
        }
        assert!(text.contains(&format!("of {} allocations", f.space_size)));
    }
}
