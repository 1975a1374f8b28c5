//! Timing and JSON helpers shared by the `bench_*` snapshot binaries.

use std::time::{Duration, Instant};

/// Runs `f` repeatedly for at least `window` (and at least 16 calls),
/// returning the mean seconds per call.
pub fn time_per_call(window: Duration, mut f: impl FnMut()) -> f64 {
    // Warm up: buffers, memo tables, branch predictors.
    f();
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        f();
        calls += 1;
        if calls >= 16 && start.elapsed() >= window {
            break;
        }
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Runs `f` `reps` times, returning the fastest wall time and the last
/// result (identical across reps — the engines are deterministic in
/// everything the reports keep).
pub fn best_of<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let res = f();
        best = best.min(started.elapsed().as_secs_f64());
        last = Some(res);
    }
    (best, last.expect("at least one rep"))
}

/// Median of a few values (the upper one of an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Nearest-rank quantile of ascending samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// JSON number that degrades to `null` for non-finite values (a zero
/// wall clock makes a rate +∞, which JSON cannot carry).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_owned()
    }
}

/// Parses the `--check-… <number>` gate flags of binary `bin`: one
/// value per name in `flags`, in order, `None` when not given. An
/// unknown flag or a missing number exits with status 2.
pub fn check_flags<const N: usize>(bin: &str, flags: [&str; N]) -> [Option<f64>; N] {
    let mut values = [None; N];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let Some(slot) = flags.iter().position(|&flag| flag == arg) else {
            let expected: Vec<String> = flags.iter().map(|flag| format!("{flag} <x>")).collect();
            eprintln!(
                "{bin}: unknown argument `{arg}` (expected {})",
                expected.join(" / ")
            );
            std::process::exit(2);
        };
        match args.next().and_then(|s| s.parse::<f64>().ok()) {
            Some(v) => values[slot] = Some(v),
            None => {
                eprintln!("{bin}: {arg} needs a number");
                std::process::exit(2);
            }
        }
    }
    values
}

/// Exits with status 1 when the `label` speedup `actual` misses the
/// `min` gate (no gate when `min` is `None`).
pub fn gate(bin: &str, label: &str, actual: f64, min: Option<f64>) {
    let Some(min) = min else { return };
    if actual < min {
        eprintln!("{bin}: {label} speedup {actual:.2}x is below the {min:.2}x gate");
        std::process::exit(1);
    }
    eprintln!("{bin}: {label} speedup {actual:.2}x meets the {min:.2}x gate");
}
