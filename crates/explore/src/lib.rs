//! Design-space exploration for the LYCOS reproduction.
//!
//! The crates below this one implement the mechanisms (allocation,
//! scheduling, partitioning); this crate implements the *experiments*:
//!
//! * [`table1_row`] / [`format_table1`] — the paper's Table 1 flow:
//!   heuristic allocation vs exhaustive best, with the `Size`, `HW/SW`
//!   and `CPU sec` columns;
//! * [`apply_iteration`] — the manual design iteration of §5 for `man`
//!   and `eigen`;
//! * [`tradeoff_sweep`] — Figure 3 as data: best speed-up per
//!   data-path-size bucket;
//! * [`optimism_report`] / [`reduce_only_walk`] — the §5.1 ablation on
//!   the optimistic controller estimate;
//! * [`random_search`] — sampling fallback for allocation spaces too
//!   large to exhaust (the paper's `eigen` footnote);
//! * [`format_pareto`] / [`format_pareto_csv`] — the time×area
//!   frontier of one [`flow::pareto`] sweep, rendered for humans and
//!   machines.
//!
//! # Examples
//!
//! ```no_run
//! use lycos_explore::{format_table1, table1_row, Table1Options};
//! use lycos_hwlib::HwLibrary;
//! use lycos_pace::PaceConfig;
//!
//! let lib = HwLibrary::standard();
//! let pace = PaceConfig::standard();
//! let mut rows = Vec::new();
//! for app in lycos_apps::all() {
//!     rows.push(table1_row(&app, &lib, &pace, &Table1Options::default())?);
//! }
//! println!("{}", format_table1(&rows));
//! # Ok::<(), lycos_pace::PaceError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flow;
mod iteration;
mod optimism;
mod pareto;
mod random;
mod sensitivity;
mod synthetic;
mod table1;
mod tradeoff;

pub use flow::{allocate_and_partition, FlowOutcome};
pub use iteration::apply_iteration;
pub use optimism::{format_optimism, optimism_report, reduce_only_walk, OptimismPoint};
pub use pareto::{format_pareto, format_pareto_csv, pareto_csv_row, PARETO_CSV_HEADER};
pub use random::{random_search, RandomSearchResult};
pub use sensitivity::{budget_sensitivity, format_sensitivity, SensitivityPoint};
pub use synthetic::SyntheticSpec;
pub use table1::{
    format_table1, format_table1_csv, table1_csv_row, table1_row, table1_row_for, Table1Options,
    Table1Row, Table1Subject, TABLE1_CSV_HEADER,
};
pub use tradeoff::{format_tradeoff, tradeoff_sweep, TradeoffPoint};
