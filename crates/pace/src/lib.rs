//! PACE — the hardware/software partitioning substrate of the LYCOS
//! reproduction.
//!
//! The DATE 1998 allocation paper evaluates its allocations by running
//! the PACE partitioner (Knudsen & Madsen 1996, reference 7) on each
//! candidate data path. This crate reimplements that evaluation chain:
//!
//! * [`compute_metrics`] — per-BSB software/hardware times and
//!   *realistic* (list-schedule based) controller areas under a given
//!   allocation;
//! * [`run_traffic`] — boundary communication estimates for runs of
//!   adjacent hardware blocks;
//! * [`partition`] — the dynamic program choosing which blocks move to
//!   hardware within the area left over by the data path. Its hot path
//!   is allocation-free: a reusable [`DpScratch`] workspace carries
//!   flat run tables and DP rows across evaluations
//!   ([`partition_with_artifacts`], [`partition_from_metrics`]), and
//!   each row is stored as the staircase of its `(level, time,
//!   choice)` steps, merged from earlier rows in time proportional to
//!   their steps rather than to the level count;
//! * [`exhaustive_best`] — the paper's baseline: PACE over *every*
//!   allocation, marking the best one;
//! * [`search_best`] — the same search, memoised and parallel: per-BSB
//!   schedule lengths read from one [`ScheduleTable`] per artifact set
//!   (one slot per projection onto each block's unit kinds), metrics
//!   stepped incrementally along the odometer, the range
//!   cut into subtree-aligned chunks that scoped worker threads steal
//!   off one cursor, results bit-identical to the sequential walk —
//!   and, with `SearchOptions::bound`, driven by branch-and-bound over
//!   the admissible, communication-floored lower bounds of
//!   [`SearchBounds`] and, per candidate, the controller-budget
//!   knapsack of [`BudgetRelaxation`], returning the field-exact
//!   optimum while visiting a fraction of the space;
//! * [`search_pareto`] — the same engine under a Pareto-front
//!   objective: one sweep emits the entire Pareto frontier of the
//!   time×area trade-off instead of one point per budget. The
//!   incumbent/record/reduce seam both searches share is a
//!   crate-internal `Objective` trait, run only through these entry
//!   points. Every walk evaluates the all-software point first, so a
//!   stopped search still answers a feasible, DP-exact point;
//! * [`SearchArtifacts`] / [`ArtifactStore`] — the staged-artifact
//!   seam: everything a search precomputes per application (BSB
//!   statics, the schedule table, the read-only run-traffic table, the
//!   lazy bound tables) built once behind a content fingerprint
//!   ([`ArtifactKey`]) and shared across requests through a bounded
//!   LRU store. The search and partition engines take
//!   `&SearchArtifacts` ([`search_best_with_stop`],
//!   [`search_pareto_with_stop`], [`partition_with_artifacts`]) and
//!   borrow its one traffic table; [`partition`], [`exhaustive_best`]
//!   and [`greedy_partition`] build one-shot artifacts. Every build
//!   — one-shot, from scratch or diffed against a resident donor —
//!   goes through one constructor, and everything a search learns is
//!   kept on the artifacts themselves: a store entry is only artifacts
//!   plus an LRU stamp. On a warm hit the store also offers previously
//!   recorded winners
//!   ([`WarmSeed`]) to reseed the branch-and-bound incumbent — results
//!   stay field-identical, the prune just starts tight. A completed
//!   Pareto sweep's staircase ([`StoredFront`]) answers later bounded
//!   searches at every budget up to its cap without a sweep, and an
//!   exact repeat of a complete best-under-budget search (same budget,
//!   limit and bound) is served the result its walk recorded.
//!
//! # Examples
//!
//! ```
//! use lycos_core::{allocate, AllocConfig, Restrictions};
//! use lycos_hwlib::{Area, EcaModel, HwLibrary};
//! use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
//! use lycos_pace::{partition, PaceConfig};
//!
//! // Build a hot loop, pre-allocate a data path, then partition.
//! let mut b = DfgBuilder::new();
//! let m = b.binary(OpKind::Mul, "a".into(), "b".into());
//! b.assign("x", m);
//! let cdfg = Cdfg::new(
//!     "app",
//!     CdfgNode::Loop {
//!         label: "l".into(),
//!         test: None,
//!         body: Box::new(CdfgNode::block("body", b.finish())),
//!         trip: TripCount::Fixed(1000),
//!     },
//! );
//! let bsbs = extract_bsbs(&cdfg, None)?;
//! let lib = HwLibrary::standard();
//! let area = Area::new(4000);
//! let restr = Restrictions::from_asap(&bsbs, &lib)?;
//! let alloc = allocate(&bsbs, &lib, &EcaModel::standard(), area, &restr,
//!                      &AllocConfig::default())?.allocation;
//! let part = partition(&bsbs, &lib, &alloc, area, &PaceConfig::standard())?;
//! println!("speed-up: {:.0}%", part.speedup_pct());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod artifacts;
mod bounds;
mod comm;
mod config;
mod dp;
mod error;
mod exhaustive;
mod greedy;
mod knobs;
mod metrics;
mod search;
mod stop;

pub use artifacts::{
    ArtifactKey, ArtifactStore, BlockKey, SearchArtifacts, StoreOutcome, StoreStats, WarmSeed,
};
pub use bounds::{BudgetRelaxation, SearchBounds};
pub use comm::{run_traffic, CommCosts, RunTraffic};
pub use config::PaceConfig;
#[doc(hidden)]
pub use dp::reference_partition_from_metrics;
pub use dp::{partition, partition_from_metrics, partition_with_artifacts, DpScratch, Partition};
pub use error::PaceError;
pub use exhaustive::{exhaustive_best, search_space, space_size, SearchResult};
pub use greedy::greedy_partition;
pub use knobs::{
    search_knob, search_knob_by_wire, KnobKind, KnobOverrides, KnobSetting, SearchKnob,
    SEARCH_KNOBS,
};
pub use metrics::{compute_metrics, BsbMetrics, MetricsCache, ScheduleTable};
pub use search::{
    search_best, search_best_with_stop, search_pareto, search_pareto_with_stop, ParetoPoint,
    ParetoResult, SearchOptions, SearchStats, StairEntry, StoredFront,
};
pub use stop::{Completion, StopReason, StopSignal, STOP_CHECK_INTERVAL};
