//! The LYCOS hardware resource allocation algorithm (DATE 1998).
//!
//! This crate is the paper's primary contribution: given an application
//! as an array of Basic Scheduling Blocks (from [`lycos_ir`]), a hardware
//! library and an area budget, [`allocate`] pre-allocates the functional
//! units of the ASIC data path *before* hardware/software partitioning,
//! so that the later partitioner (PACE, in `lycos-pace`) only pays
//! controller area for each block it moves to hardware.
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`RMap`] — resource maps with `∪` and `\` (Definition 1);
//! * [`FuroTable`] — Functional Unit Request Overlap (Definition 2);
//! * [`urgency`] / [`prioritize`] — dynamic urgencies `U(o,Bk)` and the
//!   priority order (Definitions 3–4, Example 2);
//! * [`Restrictions`] — ASAP-parallelism allocation caps (§4.3);
//! * [`allocate`] — Algorithm 1, with [`AllocConfig`] selecting the
//!   controller state estimate (§4.2/§5.1) and optional tracing;
//!   [`allocate_with_furo`] runs the same loop over a FURO table the
//!   caller built once;
//! * [`select_modules`] — the module-selection future-work extension
//!   (§6) choosing among alternative units for the same operation;
//! * [`allocate_multi_asic`] — the multi-ASIC future-work extension (§6).
//!
//! # Examples
//!
//! ```
//! use lycos_core::{allocate, AllocConfig, Restrictions};
//! use lycos_hwlib::{Area, EcaModel, HwLibrary};
//! use lycos_ir::{extract_bsbs, Cdfg, CdfgNode, DfgBuilder, OpKind, TripCount};
//!
//! // A hot loop with two independent multiplies.
//! let mut b = DfgBuilder::new();
//! let m1 = b.binary(OpKind::Mul, "a".into(), "b".into());
//! b.assign("x", m1);
//! let m2 = b.binary(OpKind::Mul, "c".into(), "d".into());
//! b.assign("y", m2);
//! let cdfg = Cdfg::new(
//!     "hot",
//!     CdfgNode::Loop {
//!         label: "l".into(),
//!         test: None,
//!         body: Box::new(CdfgNode::block("body", b.finish())),
//!         trip: TripCount::Fixed(1000),
//!     },
//! );
//! let bsbs = extract_bsbs(&cdfg, None)?;
//! let lib = HwLibrary::standard();
//! let restr = Restrictions::from_asap(&bsbs, &lib)?;
//! let out = allocate(&bsbs, &lib, &EcaModel::standard(), Area::new(8000),
//!                    &restr, &AllocConfig::default())?;
//! println!("allocated: {}", out.allocation.display_with(&lib));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algorithm;
mod error;
mod furo;
mod multi_asic;
mod priority;
mod restrict;
mod rmap;
mod selection;

pub use algorithm::{
    allocate, allocate_with_furo, most_urgent_resource, required_resources, AllocConfig,
    AllocOutcome, StateEstimate, TraceEvent,
};
pub use error::AllocError;
pub use furo::FuroTable;
pub use multi_asic::{allocate_multi_asic, AsicPlan, MultiAsicOutcome};
pub use priority::{max_urgency, prioritize, urgency};
pub use restrict::Restrictions;
pub use rmap::{kind_position, kind_positions, RMap};
pub use selection::{select_modules, SelectionStrategy};
