//! Answer checking: a cold, storeless, single-threaded in-process
//! reference for one request line, and the comparator that holds a
//! served answer against it on the winner columns only.

use lycos::explore::{format_table1_csv, pareto_csv_row, Table1Options, PARETO_CSV_HEADER};
use lycos::hwlib::Area;
use lycos::pace::SearchOptions;
use lycos::Pipeline;
use lycos_serve::{Job, JobSource, Request};

/// Table 1 columns that measure effort or carry telemetry rather than
/// the answer: they depend on thread timing, warm seeds and store
/// history, so a correct served row may differ from the reference in
/// any of them.
pub const IGNORED_COLUMNS: [&str; 11] = [
    "alloc_seconds",
    "evaluated",
    "skipped",
    "bounded",
    "dirty_ratio",
    "artifact_hits",
    "artifact_misses",
    "warm_reseeded",
    "blocks_reused",
    "blocks_rederived",
    "incremental_hits",
];

/// The pipelines a request's jobs name, at their budgets, exactly as
/// the server builds them (bundled apps reuse their compiled CDFG).
fn pipelines(jobs: &[Job], apps: &[lycos::apps::BenchmarkApp]) -> Result<Vec<Pipeline>, String> {
    jobs.iter()
        .map(|job| {
            let pipeline = match &job.source {
                JobSource::App(name) => apps
                    .iter()
                    .find(|a| a.name == *name)
                    .map(Pipeline::for_app)
                    .ok_or_else(|| format!("no bundled app `{name}`"))?,
                JobSource::Inline(source) => Pipeline::new(source.clone()),
            };
            Ok(match job.budget {
                Some(gates) => pipeline.with_budget(Area::new(gates)),
                None => pipeline,
            })
        })
        .collect()
}

/// The body lines a correct server answers to `line`, computed cold
/// (no artifact store, so no warm seeds) on one search thread, under
/// the same knob merge over `defaults` the server applies.
///
/// # Errors
///
/// When the line is not a `table1`/`pareto` request or a stage fails.
pub fn reference(
    line: &str,
    defaults: &SearchOptions,
    apps: &[lycos::apps::BenchmarkApp],
) -> Result<Vec<String>, String> {
    let request = Request::parse(line).map_err(|e| e.to_string())?;
    let (jobs, knobs) = match &request {
        Request::Table1(r) => (&r.jobs, &r.knobs),
        Request::Pareto(r) => (&r.jobs, &r.knobs),
        other => return Err(format!("not a search request: {other:?}")),
    };
    let mut options = knobs.apply_to(defaults);
    options.threads = 1;
    let pipelines = pipelines(jobs, apps)?;
    let body = match &request {
        Request::Table1(r) => {
            let rows =
                Pipeline::table1_batch(&pipelines, &Table1Options::from_search_options(&options))
                    .map_err(|e| e.to_string())?;
            format_table1_csv(&rows, r.timing)
        }
        _ => {
            let mut body = format!("{PARETO_CSV_HEADER}\n");
            for pipeline in pipelines {
                let allocated = pipeline
                    .with_search_options(options.clone())
                    .allocate()
                    .map_err(|e| e.to_string())?;
                let front = allocated.pareto_with(&options).map_err(|e| e.to_string())?;
                for point in &front.points {
                    body.push_str(&pareto_csv_row(allocated.cdfg.name(), point));
                    body.push('\n');
                }
            }
            body
        }
    };
    Ok(body.lines().map(str::to_owned).collect())
}

/// Compares a served CSV body with the reference: same header, same
/// row count, and equal cells in every column outside
/// [`IGNORED_COLUMNS`]. Pareto rows carry no such column, so they must
/// match whole.
///
/// # Errors
///
/// The first difference, described.
pub fn compare(expected: &[String], actual: &[String]) -> Result<(), String> {
    let (Some(header), Some(served_header)) = (expected.first(), actual.first()) else {
        return Err("empty body".to_owned());
    };
    if header != served_header {
        return Err(format!("header `{served_header}`, expected `{header}`"));
    }
    if expected.len() != actual.len() {
        return Err(format!(
            "{} rows, expected {}",
            actual.len() - 1,
            expected.len() - 1
        ));
    }
    let columns: Vec<&str> = header.split(',').collect();
    for (row, (want, got)) in expected.iter().zip(actual).enumerate().skip(1) {
        if want.split(',').count() != got.split(',').count() {
            return Err(format!("row {row} has the wrong number of cells"));
        }
        let cells = want.split(',').zip(got.split(','));
        for (column, (w, g)) in columns.iter().zip(cells) {
            if w != g && !IGNORED_COLUMNS.contains(column) {
                return Err(format!(
                    "row {row} column `{column}`: `{g}`, expected `{w}`"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lycos::explore::TABLE1_CSV_HEADER;

    fn body(row: &str) -> Vec<String> {
        vec![TABLE1_CSV_HEADER.to_owned(), row.to_owned()]
    }

    const ROW: &str =
        "eigen,289,60.63,60.69,0.03,0.6241,0.0370,,3057,758,48025,,51840,false,,,,,,,complete,0";

    #[test]
    fn comparator_ignores_effort_and_store_columns() {
        // alloc_seconds, evaluated, skipped, bounded, dirty_ratio and
        // all six store counters differ; the winner columns do not.
        let served = "eigen,289,60.63,60.69,0.03,0.6241,0.0370,0.000123,9999,1,7,0.5,51840,false,1,0,true,12,3,1,complete,0";
        assert_eq!(compare(&body(ROW), &body(served)), Ok(()));
    }

    #[test]
    fn comparator_catches_a_winner_column() {
        let served = ROW.replace("60.69", "60.70");
        let err = compare(&body(ROW), &body(&served)).unwrap_err();
        assert!(err.contains("best_su_pct"), "{err}");
        let served = ROW.replace("complete,0", "deadline,10");
        assert!(compare(&body(ROW), &body(&served)).is_err());
    }

    #[test]
    fn comparator_checks_shape_and_whole_pareto_rows() {
        assert!(compare(&body(ROW), &[TABLE1_CSV_HEADER.to_owned()]).is_err());
        assert!(compare(&body(ROW), &[]).is_err());
        let pareto = |row: &str| vec![PARETO_CSV_HEADER.to_owned(), row.to_owned()];
        assert!(compare(
            &pareto("eigen,7280,48511,60.69,3,67"),
            &pareto("eigen,7280,48511,60.69,3,67")
        )
        .is_ok());
        assert!(compare(
            &pareto("eigen,7280,48511,60.69,3,67"),
            &pareto("eigen,7280,48511,60.69,3,68")
        )
        .is_err());
    }

    #[test]
    fn reference_matches_a_served_bundled_row() {
        let apps = lycos::apps::all();
        let defaults = lycos_serve::ServeConfig::default().defaults;
        let lines = reference("table1 app=hal format=csv", &defaults, &apps).unwrap();
        assert_eq!(lines[0], TABLE1_CSV_HEADER);
        assert!(lines[1].starts_with("hal,"), "{}", lines[1]);
    }
}
