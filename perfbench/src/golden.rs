//! Bit-identity references: per-cell `Metrics` digests and recorded
//! digests for the default workload seed.

use mom3d_bench::protocol::put_metrics;
use mom3d_bench::SimKey;
use mom3d_cpu::Metrics;
use mom3d_emu::checksum64;

/// The workload seed the recorded digests were taken at.
pub const GOLDEN_SEED: u64 = 7;

/// Per-cell digests of the full 46-cell paper grid at [`GOLDEN_SEED`],
/// one `key digest` line per cell (see [`cell_line`]).
const PAPER_SWEEP: &str = include_str!("../golden/paper-sweep-seed7.txt");

/// Digest of `TuneReport::to_json()` of one design-tune pass at
/// [`GOLDEN_SEED`] and the benchmark's tune budget.
const DESIGN_TUNE: &str = include_str!("../golden/design-tune-seed7.txt");

/// Digest of all 18 counters of one simulation.
pub fn metrics_digest(m: &Metrics) -> u64 {
    let mut bytes = Vec::with_capacity(18 * 8);
    put_metrics(&mut bytes, m);
    checksum64(&bytes)
}

/// The stable text name of a cell.
pub fn cell_name(key: &SimKey) -> String {
    format!(
        "{}/{}/{}/l2={}",
        key.kind,
        key.variant,
        key.memory.as_str(),
        key.l2_latency
    )
    .replace(' ', "_")
}

/// One line of a per-cell digest file.
pub fn cell_line(key: &SimKey, m: &Metrics) -> String {
    format!("{} {:016x}", cell_name(key), metrics_digest(m))
}

/// The recorded paper-sweep lines for `seed`, when one was recorded.
pub fn paper_sweep(seed: u64) -> Option<Vec<&'static str>> {
    (seed == GOLDEN_SEED).then(|| PAPER_SWEEP.lines().filter(|l| !l.is_empty()).collect())
}

/// The recorded design-tune report digest for `seed`, when recorded.
pub fn design_tune(seed: u64) -> Option<u64> {
    let hex = DESIGN_TUNE.trim();
    (seed == GOLDEN_SEED).then(|| u64::from_str_radix(hex, 16).expect("recorded digest is hex"))
}
