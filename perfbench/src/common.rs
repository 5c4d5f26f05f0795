//! Pieces every workload shares: sizes, seeds, digests, the timed phase's
//! bookkeeping and the correctness ledger.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;

/// How much work one round of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark is defined at.
    Standard,
    /// A seconds-long smoke size for the benchmark's own tests.
    Tiny,
}

impl Size {
    pub fn parse(text: &str) -> Option<Size> {
        match text {
            "standard" => Some(Size::Standard),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Standard => "standard",
            Size::Tiny => "tiny",
        }
    }
}

/// The seed whose output digests are pinned in `expected/digests.txt`.
pub const DEFAULT_SEED: u64 = 0;

/// Seed of every set-up's warm-up op. The warm-up does not depend on the
/// run's seed, so set-up is the same amount of work in every run.
pub const WARMUP_SEED: u64 = 0x5eed;

/// SplitMix64: derives decorrelated sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over byte strings; a digest of program output, not a security
/// boundary.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn digest_of(parts: &[&[u8]]) -> String {
    let mut d = Digest::default();
    for part in parts {
        d.update(part);
    }
    d.hex()
}

/// Digests pinned for one `(workload, size, seed)`, keyed by output name.
#[derive(Debug, Clone, Default)]
pub struct Expected(BTreeMap<String, String>);

impl Expected {
    /// Parses lines of `workload size seed name digest`; `#` starts a
    /// comment. Only the lines for this run are kept.
    pub fn parse(text: &str, workload: &str, size: Size, seed: u64) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [w, s, seed_text, name, digest] = fields[..] else {
                return Err(format!("expected digests line {}: want 5 fields", n + 1));
            };
            let line_seed: u64 = seed_text
                .parse()
                .map_err(|_| format!("expected digests line {}: bad seed", n + 1))?;
            if w == workload && s == size.name() && line_seed == seed {
                map.insert(name.to_owned(), digest.to_owned());
            }
        }
        Ok(Expected(map))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }
}

/// Output checks of one run: every op attempted, every failure with why.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `name digest` lines of every pinnable output, for `--print-digests`.
    pub digests: Vec<(String, String)>,
}

impl Checks {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Compares a digest with its pinned value, if one is pinned.
    pub fn pin(&mut self, expected: &Expected, name: &str, got: &str) {
        self.digests.push((name.to_owned(), got.to_owned()));
        if let Some(want) = expected.get(name) {
            if want != got {
                self.fail(format!("digest {name}: got {got}, pinned {want}"));
            }
        }
    }
}

/// Measured facts of one timed phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Ops completed.
    pub ops: u64,
    /// Ops in one round, the workload's stated size.
    pub ops_per_round: u64,
    pub wall_ns: u64,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    /// Per-op latency samples, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall-clock seconds of each completed round.
    pub round_s: Vec<f64>,
    /// Share of all CPU time on the host that the hypervisor stole
    /// during the phase.
    pub steal_share: f64,
    /// `VmHWM` in MiB once [`MEM_ROUNDS`] rounds were done (or at the end
    /// of a shorter phase): a fixed amount of work, so a faster program
    /// that retains state per op does not read as using more memory.
    pub peak_rss_mb: f64,
}

/// Rounds of the timed phase after which `peak_rss_mb` is read.
pub const MEM_ROUNDS: usize = 4;

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Rounds' worth of work done: per-layer totals are divided by this.
    pub fn rounds(&self) -> f64 {
        self.ops as f64 / self.ops_per_round.max(1) as f64
    }

    /// Process CPU seconds per round.
    pub fn cpu_per_round(&self) -> f64 {
        self.cpu_s / self.rounds().max(f64::MIN_POSITIVE)
    }
}

/// Wall-clock and CPU at the start of a timed phase.
pub struct Clock {
    started: Instant,
    lap: Instant,
    cpu: f64,
    steal: (u64, u64),
}

impl Clock {
    pub fn start() -> Clock {
        let now = Instant::now();
        Clock {
            started: now,
            lap: now,
            cpu: host::process_cpu_s(),
            steal: host::steal_ticks(),
        }
    }

    /// Records the end of a round in `phase`.
    pub fn lap(&mut self, phase: &mut Phase) {
        let now = Instant::now();
        phase
            .round_s
            .push(now.duration_since(self.lap).as_secs_f64());
        self.lap = now;
        if phase.round_s.len() == MEM_ROUNDS {
            phase.peak_rss_mb = host::peak_rss_mb();
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Closes the phase: wall-clock and CPU since [`Clock::start`].
    pub fn finish(&self, phase: &mut Phase) {
        phase.wall_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        phase.cpu_s = host::process_cpu_s() - self.cpu;
        if phase.round_s.len() < MEM_ROUNDS {
            phase.peak_rss_mb = host::peak_rss_mb();
        }
        let (steal, total) = host::steal_ticks();
        phase.steal_share = ratio((steal - self.steal.0) as f64, (total - self.steal.1) as f64);
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced phase, by name, plus human-readable lines
/// for the ones that are not single numbers on every workload.
#[derive(Debug, Default)]
pub struct LayerMetrics {
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_digests_select_their_run() {
        let text = "# comment\ncampaign-wide standard 0 report abc\n\
                    campaign-wide tiny 0 report def # trailing\n\
                    triage-deep standard 0 verdict 123\n";
        let e = Expected::parse(text, "campaign-wide", Size::Tiny, 0).unwrap();
        assert_eq!(e.get("report"), Some("def"));
        let e = Expected::parse(text, "campaign-wide", Size::Standard, 7).unwrap();
        assert_eq!(e.get("report"), None);
        assert!(Expected::parse("a b c", "x", Size::Tiny, 0).is_err());
    }

    #[test]
    fn pinned_mismatch_fails_and_unpinned_passes() {
        let e = Expected::parse("w tiny 0 out aaaa\n", "w", Size::Tiny, 0).unwrap();
        let mut checks = Checks::default();
        checks.pin(&e, "out", "aaaa");
        checks.pin(&e, "other", "bbbb");
        assert!(checks.failures.is_empty());
        checks.pin(&e, "out", "cccc");
        assert_eq!(checks.failures.len(), 1);
    }

    #[test]
    fn digest_separates_fields() {
        assert_ne!(digest_of(&[b"ab", b"c"]), digest_of(&[b"a", b"bc"]));
        assert_eq!(digest_of(&[b"x"]), digest_of(&[b"x"]));
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
