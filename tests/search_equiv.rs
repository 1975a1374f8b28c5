//! ISSUE 2/4/5 acceptance: every engine configuration returns a
//! [`SearchResult`] identical to the *seed* sequential walk on all
//! four bundled benchmarks — best allocation, best partition, and the
//! `evaluated`/`skipped`/`truncated` accounting. The ISSUE 5
//! branch-and-bound engine is additionally pinned *field-exact* on the
//! winner (allocation, partition, time, area — the full tie-break)
//! with its `bounded` effort bucket closing the accounting identity
//! at every worker count.
//!
//! The seed is reproduced here verbatim (`reference_best`): a plain
//! odometer walk evaluating every candidate through fresh metrics and
//! the retained PR 3 DP core (`reference_partition_from_metrics` —
//! nested `Vec` tables, `continue`-based run scan). Everything the
//! optimised stack does — scratch reuse, monotone pruning, run-table
//! truncation, metric memoisation and candidate-level fan-out — must
//! be invisible against it, in every combination.
//!
//! `eigen`'s space is the one the paper calls "impossible" to exhaust
//! (footnote 1); its equivalence runs under an evaluation limit so the
//! suite stays quick, which also exercises the engine's skip-aware
//! truncation pre-walk.

use lycos::core::{RMap, Restrictions};
use lycos::hwlib::{Area, HwLibrary};
use lycos::pace::{
    compute_metrics, exhaustive_best, reference_partition_from_metrics, search_best, CommCosts,
    PaceConfig, Partition, SearchOptions, SearchResult, SearchStats,
};

/// The seed partition path: fresh metrics, a fresh comm table and the
/// retained pre-optimisation DP core, per call.
fn reference_partition(
    bsbs: &lycos::ir::BsbArray,
    lib: &HwLibrary,
    allocation: &RMap,
    total_area: Area,
    pace: &PaceConfig,
) -> Partition {
    let datapath = allocation.area(lib);
    let ctl = total_area.checked_sub(datapath).expect("candidate fits");
    let metrics = compute_metrics(bsbs, lib, allocation, pace).expect("schedulable");
    let comm = CommCosts::priced(bsbs, &pace.comm);
    reference_partition_from_metrics(bsbs, &metrics, &comm, datapath, ctl, pace)
}

/// The seed exhaustive walk, reproduced from the pre-optimisation
/// engine: sequential odometer, skip-on-area, truncate-on-limit,
/// strict `(time, area)` improvement.
fn reference_best(
    bsbs: &lycos::ir::BsbArray,
    lib: &HwLibrary,
    total_area: Area,
    restrictions: &Restrictions,
    pace: &PaceConfig,
    limit: Option<usize>,
) -> SearchResult {
    let dims: Vec<_> = restrictions.iter().collect();
    let space: u128 = dims.iter().map(|&(_, cap)| cap as u128 + 1).product();

    let mut best_allocation = RMap::new();
    let mut best_partition = reference_partition(bsbs, lib, &best_allocation, total_area, pace);
    let mut best_area = best_allocation.area(lib);
    let mut best_index = 0u128;
    let mut evaluated = 1usize;
    let mut skipped = 0usize;
    let mut truncated = false;

    let mut counts = vec![0u32; dims.len()];
    let mut index = 0u128;
    'outer: loop {
        let mut pos = 0;
        loop {
            if pos == dims.len() {
                break 'outer;
            }
            counts[pos] += 1;
            if counts[pos] <= dims[pos].1 {
                break;
            }
            counts[pos] = 0;
            pos += 1;
        }
        index += 1;
        let candidate: RMap = dims
            .iter()
            .zip(&counts)
            .map(|(&(fu, _), &c)| (fu, c))
            .collect();
        let candidate_area = candidate.area(lib);
        if candidate_area > total_area {
            skipped += 1;
            continue;
        }
        if let Some(max) = limit {
            if evaluated >= max {
                truncated = true;
                break;
            }
        }
        let p = reference_partition(bsbs, lib, &candidate, total_area, pace);
        evaluated += 1;
        let better = p.total_time < best_partition.total_time
            || (p.total_time == best_partition.total_time && candidate_area < best_area);
        if better {
            best_allocation = candidate;
            best_partition = p;
            best_area = candidate_area;
            best_index = index;
        }
    }

    SearchResult {
        best_allocation,
        best_partition,
        best_gates: best_area.gates(),
        best_index,
        evaluated,
        skipped,
        space_size: space,
        truncated,
        stats: SearchStats::default(),
    }
}

/// Every engine configuration the optimised stack offers, against the
/// seed: the (new-core) exhaustive walk, the memoised sequential
/// engine and the candidate-parallel engine.
fn check_app(name: &str, limit: Option<usize>) -> (SearchResult, SearchResult) {
    let app = lycos::apps::all()
        .into_iter()
        .find(|a| a.name == name)
        .expect("bundled app");
    check_engines(name, &app.bsbs(), Area::new(app.area_budget), limit)
}

/// The engine cross-product against the seed walk, for any
/// application — bundled benchmarks and the synthetic hardness corpus
/// alike.
fn check_engines(
    name: &str,
    bsbs: &lycos::ir::BsbArray,
    area: Area,
    limit: Option<usize>,
) -> (SearchResult, SearchResult) {
    let bsbs = bsbs.clone();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();

    let seed = reference_best(&bsbs, &lib, area, &restr, &pace, limit);
    let walk = exhaustive_best(&bsbs, &lib, area, &restr, &pace, limit).unwrap();
    assert_eq!(walk, seed, "{name}: new-core exhaustive != seed walk");

    let memoised = search_best(
        &bsbs,
        &lib,
        area,
        &restr,
        &pace,
        &SearchOptions {
            limit,
            ..SearchOptions::sequential()
        },
    )
    .unwrap();

    // Unbounded engines must be *identical* to the seed: the chunked
    // scheduler keeps the accounting at any worker count.
    let variants = [("parallel", 4usize), ("parallel-3", 3), ("parallel-2", 2)];
    let mut engines = vec![("memoised", memoised.clone())];
    for (label, threads) in variants {
        let got = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &pace,
            &SearchOptions {
                threads,
                limit,
                bound: false,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        engines.push((label, got));
    }

    // The branch-and-bound engine: field-exact winner (allocation,
    // partition, time, area — the full tie-break), while `evaluated`/
    // `skipped`/`bounded` become engine-effort telemetry that must
    // still account for every point of the space. Samples the
    // bound × threads cross-product.
    for (label, threads) in [
        ("bounded", 1usize),
        ("bounded,parallel", 4),
        ("bounded,parallel-2", 2),
    ] {
        let got = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &pace,
            &SearchOptions {
                threads,
                limit,
                bound: true,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            got.best_allocation, seed.best_allocation,
            "{name}/{label}: winner allocation"
        );
        assert_eq!(
            got.best_partition, seed.best_partition,
            "{name}/{label}: winner partition (time, area, placement)"
        );
        assert_eq!(got.space_size, seed.space_size, "{name}/{label}");
        assert_eq!(got.truncated, seed.truncated, "{name}/{label}");
        assert!(
            got.evaluated <= seed.evaluated,
            "{name}/{label}: bounding never evaluates more"
        );
        assert_eq!(
            got.points_accounted(),
            got.space_size,
            "{name}/{label}: evaluated + skipped + bounded + truncated == space"
        );
    }

    // Identity is field-exact, not just PartialEq-close.
    for (label, engine) in &engines {
        assert_eq!(engine, &seed, "{name}/{label} != sequential seed");
        assert_eq!(
            engine.best_allocation, seed.best_allocation,
            "{name}/{label}"
        );
        assert_eq!(
            engine.best_partition.in_hw, seed.best_partition.in_hw,
            "{name}/{label}"
        );
        assert_eq!(
            engine.best_partition.total_time, seed.best_partition.total_time,
            "{name}/{label}"
        );
        assert_eq!(
            engine.best_partition.comm_time, seed.best_partition.comm_time,
            "{name}/{label}"
        );
        assert_eq!(
            engine.best_partition.controller_area, seed.best_partition.controller_area,
            "{name}/{label}"
        );
        assert_eq!(
            engine.best_partition.runs, seed.best_partition.runs,
            "{name}/{label}"
        );
        assert_eq!(engine.evaluated, seed.evaluated, "{name}/{label}");
        assert_eq!(engine.skipped, seed.skipped, "{name}/{label}");
        assert_eq!(engine.space_size, seed.space_size, "{name}/{label}");
        assert_eq!(engine.truncated, seed.truncated, "{name}/{label}");
    }
    (seed, memoised)
}

#[test]
fn straight_search_is_engine_invariant() {
    let (seed, memo) = check_app("straight", None);
    assert!(!seed.truncated);
    assert!(memo.stats.hit_rate() > 0.5, "odometer locality");
    // Keys are only allocated on insert, never per probe.
    assert_eq!(memo.stats.key_allocs, memo.stats.cache_misses);
}

#[test]
fn hal_search_is_engine_invariant() {
    let (seed, _) = check_app("hal", None);
    assert_eq!(seed.evaluated as u128, seed.space_size);
}

#[test]
fn man_search_is_engine_invariant() {
    let (seed, _) = check_app("man", None);
    assert!(seed.skipped > 0, "man's tight budget skips allocations");
}

/// The bound must genuinely bite on the bundled spaces: a sequential
/// bounded run (deterministic — no incumbent-sharing races) prunes a
/// large share of each space while returning the field-exact winner
/// (already asserted app-by-app above).
#[test]
fn bounded_engine_prunes_most_of_the_bundled_spaces() {
    for (name, limit) in [
        ("straight", None),
        ("hal", None),
        ("man", None),
        ("eigen", Some(2_000usize)),
    ] {
        let app = lycos::apps::all()
            .into_iter()
            .find(|a| a.name == name)
            .expect("bundled app");
        let bsbs = app.bsbs();
        let lib = HwLibrary::standard();
        let pace = PaceConfig::standard();
        let area = Area::new(app.area_budget);
        let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
        let bounded = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &pace,
            &SearchOptions {
                limit,
                bound: true,
                ..SearchOptions::sequential()
            },
        )
        .unwrap();
        let unbounded = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &pace,
            &SearchOptions {
                limit,
                ..SearchOptions::sequential()
            },
        )
        .unwrap();
        assert_eq!(bounded.best_allocation, unbounded.best_allocation, "{name}");
        assert_eq!(bounded.best_partition, unbounded.best_partition, "{name}");
        assert!(bounded.stats.bounded > 0, "{name}: nothing pruned");
        assert!(
            bounded.evaluated * 2 <= unbounded.evaluated,
            "{name}: bound should spare at least half the evaluations \
             ({} vs {})",
            bounded.evaluated,
            unbounded.evaluated
        );
        assert_eq!(bounded.points_accounted(), bounded.space_size, "{name}");
    }
}

/// ISSUE 6 corpus: fixed-seed synthetic applications from the two
/// hardness profiles run the whole engine cross-product against the
/// seed walk. `comm_dominated` stresses the segmented communication
/// floor (wide read fans, software barriers every fourth block);
/// `plateau_heavy` stresses tie-breaking on a flat time landscape
/// where many allocations share the optimum time.
#[test]
fn hardness_corpus_is_engine_invariant() {
    use lycos::explore::SyntheticSpec;
    for (label, spec, seeds) in [
        (
            "comm_dominated",
            SyntheticSpec::comm_dominated(),
            [7u64, 19],
        ),
        ("plateau_heavy", SyntheticSpec::plateau_heavy(), [3, 23]),
    ] {
        for seed in seeds {
            let bsbs = spec.generate(seed);
            let (seed_result, _) =
                check_engines(&format!("{label}#{seed}"), &bsbs, Area::new(8_000), None);
            assert!(
                !seed_result.truncated,
                "{label}#{seed}: corpus spaces are exhausted in full"
            );
        }
    }
}

#[test]
fn eigen_search_is_engine_invariant_under_limit() {
    let (seed, _) = check_app("eigen", Some(150));
    assert!(seed.truncated, "the limit must bite on eigen's space");
    assert_eq!(seed.evaluated, 150);
}

/// The ≥2× per-candidate claim of ISSUE 2, on the space that motivated
/// the engine — now measured against the *retained PR 3 seed walk*
/// (`reference_best`), because `exhaustive_best` itself adopted the
/// scratch-reuse core in ISSUE 4 and is no longer the slow baseline
/// it once was (the DP-core half of that win has its own 1.5× gate in
/// `bench_pace`). Seed and memoised runs are *interleaved* and their
/// totals compared, so background load slows both sides and preserves
/// the ratio. Ignored in the default suite — a wall-clock assertion
/// does not belong in the functional gate where sibling tests compete
/// for cores; CI's perf-smoke job runs it explicitly, in release, with
/// nothing else scheduled:
/// `cargo test --release --test search_equiv -- --ignored`.
#[test]
#[ignore = "perf tripwire: run explicitly in release (CI perf-smoke job)"]
fn eigen_memoised_engine_is_at_least_twice_as_fast() {
    use std::time::Instant;
    let app = lycos::apps::eigen();
    let bsbs = app.bsbs();
    let lib = HwLibrary::standard();
    let pace = PaceConfig::standard();
    let area = Area::new(app.area_budget);
    let restr = Restrictions::from_asap(&bsbs, &lib).unwrap();
    let limit = Some(150);

    let mut seed_secs = 0.0f64;
    let mut memo_secs = 0.0f64;
    for _ in 0..2 {
        let started = Instant::now();
        let seed = reference_best(&bsbs, &lib, area, &restr, &pace, limit);
        seed_secs += started.elapsed().as_secs_f64();
        let memo = search_best(
            &bsbs,
            &lib,
            area,
            &restr,
            &pace,
            &SearchOptions {
                limit,
                ..SearchOptions::sequential()
            },
        )
        .unwrap();
        memo_secs += memo.stats.elapsed.as_secs_f64();
        assert_eq!(memo, seed);
    }
    let ratio = seed_secs / memo_secs.max(f64::EPSILON);
    assert!(
        ratio >= 2.0,
        "memoised engine only {ratio:.2}x faster than the seed walk on eigen"
    );
}
