//! The shared schema of `BENCH_perf.json`.
//!
//! `perf_triage` measures the prefix-memoized reduction engine against the
//! serial budget-0 reference on a real triage workload (campaign bugs from
//! the clean target catalog, probed on the fast pre-decoded interpreter)
//! and records the result here. CI re-runs the binary in smoke mode and
//! asserts the invariants the file encodes — strictly fewer transformation
//! applications for the cached engine, byte-identical reduction artifacts
//! across all engine configurations, and the probe-accounting balance
//! `cache.lookups == probes_journaled + unprobed_lookups` on the serial
//! row (seeded rows journal one extra initial record per bug with no
//! lookup).

use serde::{Deserialize, Serialize};

use trx_reducer::EngineStats;

/// Aggregate metrics for one reduction-engine configuration, summed over
/// every bug in the benchmark's triage set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineBaseline {
    /// Configuration name (`serial`, `cached`, `shared`).
    pub name: String,
    /// Journaled probe invocations (replayed + live + memo hits) — equal
    /// across configurations by the equivalence invariant.
    pub probes_journaled: u64,
    /// Oracle invocations that actually ran: journaled probes the verdict
    /// memo did not answer.
    pub live_probes: u64,
    /// Engine work counters summed over all bugs: prefix-cache
    /// applications/saves, memo hits, unprobed lookups.
    pub engine: EngineStats,
    /// Wall-clock for reducing every bug back to back, in milliseconds.
    pub wall_ms: u64,
}

/// The machine-readable reduction-performance baseline (`BENCH_perf.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfBaseline {
    /// Tool whose campaign produced the triage set.
    pub tool: String,
    /// Campaign tests scanned for bugs.
    pub tests: usize,
    /// Chained fuzzer rounds per test (longer rounds → longer
    /// transformation sequences → more quadratic replay to save).
    pub rounds: usize,
    /// First campaign seed.
    pub seed_base: u64,
    /// Worker threads for the per-bug-parallel run: the host's available
    /// parallelism.
    pub threads: usize,
    /// Distinct `(target, signature)` bugs reduced.
    pub bugs_reduced: usize,
    /// Total transformation-sequence length over all bugs (the `n` that
    /// delta debugging replays quadratically without the cache).
    pub sequence_transformations: usize,
    /// The byte budget of the shared sharded prefix cache (the `shared`
    /// row), in bytes.
    pub cache_budget_bytes: usize,
    /// Shard count of the shared sharded prefix cache.
    pub cache_shards: usize,
    /// The budget-0, memo-off reference engine.
    pub serial: EngineBaseline,
    /// Per-reduction prefix cache + verdict memo, serial probing.
    pub cached: EngineBaseline,
    /// One shared sharded byte-budgeted prefix cache across all bugs
    /// (sequential probing): sibling reductions reuse each other's
    /// transition chains instead of re-warming private caches.
    pub shared: EngineBaseline,
    /// Wall-clock for the cached engine reducing bugs concurrently across
    /// the worker pool (the pipeline's `reduction_threads` mode), in
    /// milliseconds.
    pub parallel_wall_ms: u64,
    /// `serial` transformation applications divided by `cached` ones — how
    /// many times fewer per-instruction applications the cache performs.
    pub apply_reduction_factor: f64,
    /// `serial.wall_ms` divided by `parallel_wall_ms`.
    pub parallel_speedup: f64,
    /// Whether every configuration produced byte-identical logs, reduced
    /// sequences, search stats, and final modules.
    pub equivalent: bool,
}

impl PerfBaseline {
    /// Loads the baseline from `path`, returning `None` when the file is
    /// missing or does not parse.
    #[must_use]
    pub fn load(path: &str) -> Option<Self> {
        let text = std::fs::read_to_string(path).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Writes the baseline to `path` as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns the serializer's or filesystem's error message.
    pub fn save(&self, path: &str) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| e.to_string())
    }
}

/// Adds every counter of `delta` into `total` (the schema aggregates
/// engine stats over all bugs of a run).
pub fn accumulate(total: &mut EngineStats, delta: &EngineStats) {
    total.cache.lookups += delta.cache.lookups;
    total.cache.hits += delta.cache.hits;
    total.cache.transformations_applied += delta.cache.transformations_applied;
    total.cache.transformations_saved += delta.cache.transformations_saved;
    total.cache.evictions += delta.cache.evictions;
    total.memo_hits += delta.memo_hits;
    total.unprobed_lookups += delta.unprobed_lookups;
}
