//! # lycos — a reproduction of the DATE 1998 LYCOS allocation paper
//!
//! This facade crate ties together the whole reproduction of *Hardware
//! Resource Allocation for Hardware/Software Partitioning in the LYCOS
//! System* (Grode, Knudsen, Madsen — DATE 1998):
//!
//! * [`ir`] — operations, DFGs, CDFGs, BSBs, profiling (paper §3);
//! * [`frontend`] — the LYC mini-language (the paper's VHDL/C input);
//! * [`hwlib`] — functional units, gate/ECA/processor/bus cost models
//!   (§4.2);
//! * [`sched`] — ASAP/ALAP frames, mobility/overlap, list scheduling
//!   (§4.1, §5.1);
//! * [`core`] — **the contribution**: RMap, FURO, urgencies,
//!   restrictions and Algorithm 1, plus the §6 future-work extensions;
//! * [`pace`] — the PACE partitioner and exhaustive search used for
//!   evaluation (§5);
//! * [`apps`] — the four Table 1 benchmarks in LYC;
//! * [`explore`] — the experiments themselves (Table 1, Figure 3,
//!   §5.1 ablation, randomised search).
//!
//! The crate's own contribution is the [`Pipeline`] builder — one
//! end-to-end entry point over those layers — and [`LycosError`], the
//! unified error every per-crate error converts into.
//!
//! # Quickstart
//!
//! ```
//! use lycos::hwlib::{Area, HwLibrary};
//! use lycos::Pipeline;
//!
//! // Compile a LYC program, pre-allocate the data path within 6000
//! // gate equivalents (Algorithm 1), then partition with PACE.
//! let allocated = lycos::Pipeline::new(
//!     "app demo;
//!      loop l times 500 {
//!        y = y + u * dx;
//!        u = u - 3 * y * dx;
//!      }",
//! )
//! .with_library(HwLibrary::standard())
//! .with_budget(Area::new(6_000))
//! .allocate()?;
//!
//! println!("data path: {}", allocated.allocation().display_with(allocated.library()));
//!
//! let part = allocated.partition()?;
//! assert!(part.speedup_pct() > 0.0);
//! # Ok::<(), lycos::LycosError>(())
//! ```
//!
//! The individual layers stay available for flows the builder does not
//! cover (exhaustive search, module selection, multi-ASIC allocation):
//!
//! ```
//! use lycos::core::{allocate, AllocConfig, Restrictions};
//! use lycos::hwlib::{Area, EcaModel, HwLibrary};
//! use lycos::ir::extract_bsbs;
//!
//! let cdfg = lycos::frontend::compile("app tiny; y = a * b + c;")?;
//! let bsbs = extract_bsbs(&cdfg, None)?;
//! let lib = HwLibrary::standard();
//! let restr = Restrictions::from_asap(&bsbs, &lib)?;
//! let out = allocate(&bsbs, &lib, &EcaModel::standard(), Area::new(6_000),
//!                    &restr, &AllocConfig::default())?;
//! assert!(out.remaining <= Area::new(6_000));
//! # Ok::<(), lycos::LycosError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod pipeline;

pub use error::LycosError;
pub use pipeline::{Allocated, Compiled, Partitioned, Pipeline, Restricted};

pub use lycos_apps as apps;
pub use lycos_core as core;
pub use lycos_explore as explore;
pub use lycos_frontend as frontend;
pub use lycos_hwlib as hwlib;
pub use lycos_ir as ir;
pub use lycos_pace as pace;
pub use lycos_sched as sched;
