//! The two timed workloads (`--trace 0`).

use crate::golden;
use crate::{Args, Report, THREADS};
use mom3d_bench::sweep::{self, SweepReport};
use mom3d_bench::tune::{tune, LocalExec, TuneConfig, TuneReport};
use mom3d_bench::{Runner, SimKey, WorkloadCache};
use mom3d_cpu::Metrics;
use mom3d_emu::checksum64;
use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh evaluations per (workload, family) of every design-tune pass.
pub const TUNE_BUDGET: usize = 6;

/// Memoized re-runs of the search after each design-tune pass.
pub const WARM_TUNES: usize = 3;

/// Every (workload, ISA variant) pair: the 15 workloads of the grid.
pub fn all_pairs() -> Vec<(WorkloadKind, IsaVariant)> {
    WorkloadKind::ALL
        .into_iter()
        .flat_map(|k| IsaVariant::ALL.map(|v| (k, v)))
        .collect()
}

/// The design-tune search for `seed`: every non-ideal family, all five
/// workloads, L2 latencies {20, 40, 60}, [`TUNE_BUDGET`].
pub fn tune_config(seed: u64) -> TuneConfig {
    TuneConfig {
        seed,
        tune_seed: seed,
        budget: TUNE_BUDGET,
        l2_latencies: vec![20, 40, 60],
        workloads: WorkloadKind::ALL.to_vec(),
        ..TuneConfig::default()
    }
}

/// Builds and verifies all 15 workloads on [`THREADS`] workers.
pub fn prebuilt(seed: u64) -> Vec<Arc<Workload>> {
    let mut runner = Runner::new(seed);
    sweep::prebuild_workloads(&mut runner, &all_pairs(), THREADS);
    all_pairs()
        .into_iter()
        .map(|(k, v)| runner.workload_arc(k, v))
        .collect()
}

/// A runner holding already-built workloads, so nothing rebuilds.
pub fn seeded_runner(seed: u64, workloads: &[Arc<Workload>]) -> Runner {
    let mut runner = Runner::new(seed);
    for wl in workloads {
        runner.insert_workload(Arc::clone(wl));
    }
    runner
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn open_cache(dir: &Path) -> Result<WorkloadCache, String> {
    WorkloadCache::open(dir).ok_or_else(|| format!("cannot open image cache {}", dir.display()))
}

/// Compares a sweep's cells against the reference lines, recording
/// every differing cell.
fn check_cells(report: &mut Report, what: &str, sweep: &SweepReport, reference: &[String]) {
    if sweep.cells.len() != reference.len() {
        report.mismatch(
            reference.len() as u64,
            format!(
                "{what}: {} cells, expected {}",
                sweep.cells.len(),
                reference.len()
            ),
        );
        return;
    }
    for (cell, want) in sweep.cells.iter().zip(reference) {
        let got = golden::cell_line(&cell.key, &cell.metrics);
        if &got != want {
            report.mismatch(1, format!("{what}: {got} != {want}"));
        }
    }
}

/// One paper-sweep set-up: builds and verifies the 15 workloads on
/// [`THREADS`] workers into a fresh image cache at `dir`. Returns its
/// wall time in seconds.
fn fill_cache(seed: u64, dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut runner = Runner::new(seed).with_cache(Some(open_cache(dir)?));
    sweep::prebuild_workloads(&mut runner, &all_pairs(), THREADS);
    Ok(secs(t0.elapsed()))
}

/// paper-sweep: cold passes (no image cache) alternate with warm passes
/// (an image cache filled during set-up), each a fresh `Runner` running
/// the full grid on [`THREADS`] workers. A set-up follows every cold and
/// warm pair, so `setup_s` samples the same stretch of time as the
/// passes.
pub fn paper_sweep(args: &Args) -> Result<Report, String> {
    let grid = sweep::full_grid();
    let pairs = all_pairs();
    let mut report = Report::default();
    let cache_dir = args.work.join("image-cache");
    let spare_dir = args.work.join("setup");
    let mut setup = vec![fill_cache(args.seed, &cache_dir)?];

    let mut reference: Option<Vec<String>> =
        golden::paper_sweep(args.seed).map(|lines| lines.into_iter().map(str::to_string).collect());
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while cold.len() + warm.len() == 0 || start.elapsed() < args.seconds {
        for is_warm in [false, true] {
            report.attempted += grid.len() as u64;
            let pass = catch_unwind(AssertUnwindSafe(|| {
                let t0 = Instant::now();
                let mut runner = Runner::new(args.seed);
                if is_warm {
                    runner = runner.with_cache(WorkloadCache::open(&cache_dir));
                }
                let sweep = sweep::run(&mut runner, &grid, THREADS);
                let wall = t0.elapsed();
                (sweep, wall, runner)
            }));
            let what = if is_warm { "warm pass" } else { "cold pass" };
            let Ok((sweep, wall, runner)) = pass else {
                report.mismatch(grid.len() as u64, format!("{what} panicked"));
                continue;
            };
            drop(runner);
            if is_warm {
                let hits = sweep.workload_cache.map_or(0, |c| c.hits);
                if hits != pairs.len() as u64 {
                    report.mismatch(
                        grid.len() as u64,
                        format!("{what}: {hits} image-cache hits, expected {}", pairs.len()),
                    );
                    continue;
                }
                warm.push(secs(wall));
            } else {
                cold.push(secs(wall));
            }
            match &reference {
                Some(r) => check_cells(&mut report, what, &sweep, r),
                None => {
                    reference = Some(
                        sweep
                            .cells
                            .iter()
                            .map(|c| golden::cell_line(&c.key, &c.metrics))
                            .collect(),
                    )
                }
            }
        }
        setup.push(fill_cache(args.seed, &spare_dir)?);
        let _ = std::fs::remove_dir_all(&spare_dir);
    }
    report.median("setup_s", "s", &setup, 1.0)?;
    report.median("cold_ms", "ms", &cold, 1e3)?;
    report.median("warm_ms", "ms", &warm, 1e3)?;
    Ok(report)
}

/// design-tune: passes of a full-geometry `tune()` on a fresh `Runner`
/// seeded with the workloads built at set-up. The set-up is timed again
/// before every pass, so `setup_s` samples the same stretch of time as
/// the passes.
pub fn design_tune(args: &Args) -> Result<Report, String> {
    let cfg = tune_config(args.seed);
    let mut report = Report::default();
    let t0 = Instant::now();
    let workloads = prebuilt(args.seed);
    let mut setup = vec![secs(t0.elapsed())];

    let recorded = golden::design_tune(args.seed);
    let mut first: Option<String> = None;
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while report.attempted == 0 || start.elapsed() < args.seconds {
        let t0 = Instant::now();
        black_box(prebuilt(args.seed));
        setup.push(secs(t0.elapsed()));
        report.attempted += 1 + WARM_TUNES as u64;
        let pass = catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let mut runner = seeded_runner(args.seed, &workloads);
            let out = tune(
                &cfg,
                &mut LocalExec {
                    runner: &mut runner,
                    threads: THREADS,
                },
            );
            let wall = t0.elapsed();
            // The same search again on the runner that now holds every
            // point: only the tuner's own work and the memo lookups.
            let mut again = Vec::new();
            for _ in 0..WARM_TUNES {
                let t0 = Instant::now();
                let out = tune(
                    &cfg,
                    &mut LocalExec {
                        runner: &mut runner,
                        threads: THREADS,
                    },
                );
                again.push((out, t0.elapsed()));
            }
            (out, wall, again)
        }));
        let Ok((out, wall, again)) = pass else {
            report.mismatch(1 + WARM_TUNES as u64, "tune pass panicked".into());
            continue;
        };
        let tuned = match out {
            Ok(t) => t,
            Err(e) => {
                report.mismatch(1 + WARM_TUNES as u64, format!("tune pass failed: {e}"));
                continue;
            }
        };
        cold.push(secs(wall));
        let json = tuned.to_json();
        let digest = checksum64(json.as_bytes());
        if let Some(want) = recorded.filter(|&w| w != digest) {
            report.mismatch(
                1,
                format!("tune report digest {digest:016x} != recorded {want:016x}"),
            );
        } else if first.as_ref().is_some_and(|f| *f != json) {
            report.mismatch(1, "tune report differs from the first pass".into());
        }
        first.get_or_insert(json);
        for (out, wall) in again {
            match out {
                Ok(t) if same_points(&t, &tuned) => warm.push(secs(wall)),
                Ok(_) => report.mismatch(1, "memoized tune visited different points".into()),
                Err(e) => report.mismatch(1, format!("memoized tune failed: {e}")),
            }
        }
    }
    report.median("setup_s", "s", &setup, 1.0)?;
    report.median("cold_ms", "ms", &cold, 1e3)?;
    report.median("warm_ms", "ms", &warm, 1e3)?;
    Ok(report)
}

/// True when two searches visited the same points with bit-identical
/// metrics (memo flags aside).
fn same_points(a: &TuneReport, b: &TuneReport) -> bool {
    let points = |t: &TuneReport| -> Vec<(SimKey, Metrics)> {
        t.workloads
            .iter()
            .flat_map(|w| w.visited.iter().map(|e| (e.key, e.metrics)))
            .collect()
    };
    points(a) == points(b)
}

/// Prints the bit-identity reference of `args.workload` at `args.seed`
/// (how the files under `golden/` are recorded).
pub fn print_golden(args: &Args) -> Result<(), String> {
    match args.workload {
        crate::Workload::PaperSweep => {
            let mut runner = Runner::new(args.seed);
            for cell in sweep::run(&mut runner, &sweep::full_grid(), THREADS).cells {
                println!("{}", golden::cell_line(&cell.key, &cell.metrics));
            }
        }
        crate::Workload::DesignTune => {
            let mut runner = seeded_runner(args.seed, &prebuilt(args.seed));
            let tuned = tune(
                &tune_config(args.seed),
                &mut LocalExec {
                    runner: &mut runner,
                    threads: THREADS,
                },
            )?;
            println!("{:016x}", checksum64(tuned.to_json().as_bytes()));
        }
    }
    Ok(())
}
