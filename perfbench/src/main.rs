//! `perfbench`: the end-to-end and per-layer benchmark of the mom3d
//! simulator stack.
//!
//! ```text
//! perfbench --workload <paper-sweep|design-tune>
//!           [--seed N] [--seconds S] [--trace 0|1] [--print-golden]
//! ```
//!
//! `--seed` is the workload seed (default 7, the `RESULTS.md` seed); it
//! also seeds the tuner. With `--trace 0` the run measures the
//! workload for `--seconds` and prints every end-to-end metric; with
//! `--trace 1` it replays the workload layer by layer and prints the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `GLOSSARY.md` defines every workload and metric.

mod alloc;
mod golden;
mod replay;
mod stats;
mod trace;
mod workloads;

use stats::Summary;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Worker threads and connections of every workload (the core count
/// of the 2-core machine the benchmark was designed on).
pub const THREADS: usize = 2;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold and warm passes of the full 46-cell paper grid.
    PaperSweep,
    /// Passes of a full-geometry design-space search.
    DesignTune,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-sweep" => Some(Workload::PaperSweep),
            "design-tune" => Some(Workload::DesignTune),
            _ => None,
        }
    }

    /// The workload's name on the command line and in file names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::DesignTune => "design-tune",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Run the traced layer replay instead of the timed window.
    pub trace: bool,
    /// Print the bit-identity reference lines for the seed and exit.
    pub print_golden: bool,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <paper-sweep|design-tune> \
                     [--seed N] [--seconds S] [--trace 0|1] [--print-golden]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut print_golden = false;
    while let Some(flag) = it.next() {
        if flag == "--print-golden" {
            print_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = PathBuf::from("perfbench/work").join(std::process::id().to_string());
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        print_golden,
        work,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples behind a timing (median, quartiles, count).
    pub summary: Option<Summary>,
    /// The samples behind a timing, in measurement order.
    pub samples: Vec<f64>,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells or searches).
    pub attempted: u64,
    /// Operations that failed: a panicked or failed pass, or a result
    /// that was not bit-identical to its reference.
    pub failed: u64,
    /// Bit-identity violations, described.
    pub mismatches: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a plain value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
            samples: Vec::new(),
        });
    }

    /// Adds a timing reported as the median of `samples` (scaled by
    /// `scale` into `unit`); fails the run when there are none.
    pub fn median(
        &mut self,
        name: &str,
        unit: &'static str,
        samples: &[f64],
        scale: f64,
    ) -> Result<(), String> {
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        let summary =
            Summary::of(&scaled).ok_or_else(|| format!("{name}: no operation succeeded"))?;
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: summary.median,
            summary: Some(summary),
            samples: scaled,
        });
        Ok(())
    }

    /// Records a bit-identity violation affecting `ops` operations.
    pub fn mismatch(&mut self, ops: u64, what: String) {
        self.failed += ops;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// `ok_ratio`: share of attempted operations that succeeded and were
    /// correct.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
        }
    }

    fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Writes every timing's samples, in measurement order, as JSON.
    fn write_samples(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::from("{");
        for (i, m) in self
            .metrics
            .iter()
            .filter(|m| !m.samples.is_empty())
            .enumerate()
        {
            let values: Vec<String> = m.samples.iter().map(f64::to_string).collect();
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\": [{}]", m.name, values.join(", "));
        }
        s.push_str("}\n");
        std::fs::write(path, s)
    }

    fn print(&self) {
        for m in &self.metrics {
            let Some(s) = m.summary else {
                println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
                continue;
            };
            let tail = stats::highest_supported(s.n)
                .and_then(|p| Some((p, stats::tail(&m.samples, p)?)))
                .map_or("no tail supported".to_string(), |(p, v)| {
                    format!("p{p} {v:.4}")
                });
            println!(
                "{:<28} {:>14.4} {:<6} median {:.4}  q1 {:.4}  q3 {:.4}  {tail}  n {}",
                m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n
            );
        }
        for what in &self.mismatches {
            println!("MISMATCH {what}");
        }
        println!("{}", self.result_line());
    }
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    if args.print_golden {
        workloads::print_golden(args)?;
        return Ok(Report::default());
    }
    let mut report = if args.trace {
        replay::run(args)?
    } else {
        match args.workload {
            Workload::PaperSweep => workloads::paper_sweep(args)?,
            Workload::DesignTune => workloads::design_tune(args)?,
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a number: {}", m.name, m.value));
    }
    if !args.trace {
        let path = args
            .work
            .with_file_name(format!("samples-{}.json", args.workload.name()));
        report
            .write_samples(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.value("ok_ratio", "ratio", report.ok_ratio());
        report.value("peak_heap_mb", "MiB", alloc::peak_mb());
    }
    Ok(report)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    // Spans and other artifacts are kept one level up; the per-run
    // scratch (image caches, the replay server's socket) goes.
    let _ = std::fs::remove_dir_all(&args.work);
    match outcome {
        Ok(report) if !args.print_golden => report.print(),
        Ok(_) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
