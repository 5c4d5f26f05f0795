//! Durable cross-job state for the triage daemon.
//!
//! A long-lived daemon should not re-reduce a signature it has already
//! triaged. This module keeps the cross-job knowledge — a signature
//! corpus plus the [`IncrementalDedup`] accumulator that orders the
//! global verdict — alive across jobs *and* across daemon restarts, with
//! the same crash discipline the pipeline WAL established in PR 2:
//!
//! * **Snapshot + append-only WAL.** The folded [`CorpusState`] is
//!   checkpointed to a snapshot file; every job commit appends exactly
//!   one JSON line to the WAL. A crash can tear at most the final WAL
//!   line, which recovery drops — a commit is all-or-nothing because it
//!   is one line.
//! * **Idempotent replay.** Every record carries a sequence number and
//!   the snapshot records how many it has folded in, so a crash between
//!   "write snapshot" and "truncate WAL" (compaction's two steps) never
//!   double-applies a record.
//! * **Repair before append.** A failed append may leave a torn tail;
//!   appending after it would corrupt the *middle* of the log. The store
//!   therefore rewrites the WAL from its parseable prefix before
//!   retrying, the same rewrite-then-append discipline
//!   `run_pipeline_on_file` uses.
//!
//! Storage is abstracted behind [`StateStorage`] so the recovery contract
//! can be proven without a filesystem: [`MemStorage`] models durable
//! versus merely-written bytes (a crash drops the unsynced suffix), and
//! [`FaultyStorage`] injects short writes, torn records, fsync loss and
//! disk-full failures from a seeded [`StorageFaultPlan`] — the
//! `FaultyTarget`/`FaultPlan` idiom applied to the storage layer. The
//! kill-at-every-append and injected-fault matrices in this module's
//! tests (and in the `chaos_state` bench) assert that whatever survives
//! is byte-identical to a golden store fed the same surviving commits.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use trx_core::TransformationKind;
use trx_dedup::IncrementalDedup;
use trx_harness::pipeline::KnownSignatures;

/// A typed failure of the durable state layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The storage backend failed an operation.
    Io(String),
    /// A non-final record (or the snapshot) failed to parse — real
    /// corruption, not the footprint of a crash.
    Corrupt {
        /// Which file is corrupt.
        file: StateFile,
        /// The parser's message.
        reason: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io(m) => write!(f, "state storage error: {m}"),
            StateError::Corrupt { file, reason } => {
                write!(f, "state {} is corrupt: {reason}", file.name())
            }
        }
    }
}

impl std::error::Error for StateError {}

/// The two files a state store keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateFile {
    /// The folded-state checkpoint, replaced atomically by compaction.
    Snapshot,
    /// The append-only commit log since the last snapshot.
    Wal,
}

impl StateFile {
    /// Stable file name inside a `state_dir`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StateFile::Snapshot => "state.snapshot.json",
            StateFile::Wal => "state.wal.jsonl",
        }
    }
}

/// The storage operations the store needs, with their durability
/// contracts: `append` must flush-and-sync before reporting success, and
/// `replace` must be atomic (old bytes or new bytes, never a mix).
pub trait StateStorage: Send {
    /// The file's current content, `None` if it does not exist yet.
    fn read(&mut self, file: StateFile) -> Result<Option<Vec<u8>>, StateError>;
    /// Appends `bytes` and makes them durable.
    fn append(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError>;
    /// Atomically replaces the file's whole content.
    fn replace(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError>;
}

/// Real-filesystem storage rooted at a `state_dir`.
///
/// Appends open-write-sync per call (commits are per job, not per probe,
/// so the sync cost is negligible); replace writes a temp file, syncs it,
/// and renames over the target — the only torn state a kill can leave is
/// an invisible temp file.
pub struct DiskStorage {
    dir: PathBuf,
}

impl DiskStorage {
    /// Opens (creating if needed) a state directory.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<DiskStorage, StateError> {
        std::fs::create_dir_all(dir).map_err(|e| StateError::Io(e.to_string()))?;
        Ok(DiskStorage { dir: dir.to_path_buf() })
    }

    fn path(&self, file: StateFile) -> PathBuf {
        self.dir.join(file.name())
    }
}

impl StateStorage for DiskStorage {
    fn read(&mut self, file: StateFile) -> Result<Option<Vec<u8>>, StateError> {
        match std::fs::read(self.path(file)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StateError::Io(e.to_string())),
        }
    }

    fn append(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError> {
        use std::io::Write;
        let io = |e: std::io::Error| StateError::Io(e.to_string());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(file))
            .map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_data().map_err(io)
    }

    fn replace(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError> {
        use std::io::Write;
        let io = |e: std::io::Error| StateError::Io(e.to_string());
        let tmp = self.dir.join(format!("{}.tmp", file.name()));
        {
            let mut f = std::fs::File::create(&tmp).map_err(io)?;
            f.write_all(bytes).map_err(io)?;
            f.sync_data().map_err(io)?;
        }
        std::fs::rename(&tmp, self.path(file)).map_err(io)?;
        // Make the rename itself durable; best-effort (some filesystems
        // refuse to open directories).
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

#[derive(Default)]
struct MemFile {
    /// The file content as the running process sees it (reads and
    /// subsequent appends), including not-yet-synced bytes.
    bytes: Vec<u8>,
    /// How much of `bytes` has reached "disk": a simulated crash
    /// truncates to this length.
    durable: usize,
}

/// In-memory storage with an explicit durability line per file.
///
/// Cloning shares the underlying files, so a test can keep a handle,
/// drop the store ("kill the process"), call [`MemStorage::crash`] to
/// discard unsynced bytes, and open a new store over the same handle
/// ("restart").
#[derive(Clone, Default)]
pub struct MemStorage {
    files: Arc<Mutex<BTreeMap<&'static str, MemFile>>>,
}

impl MemStorage {
    /// Empty storage.
    #[must_use]
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<&'static str, MemFile>) -> R) -> R {
        let mut files = self.files.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut files)
    }

    /// Simulates a process kill: every byte past each file's durability
    /// line is lost.
    pub fn crash(&self) {
        self.with(|files| {
            for file in files.values_mut() {
                file.bytes.truncate(file.durable);
                file.durable = file.bytes.len();
            }
        });
    }

    /// The raw current content of `file` (tests cut and corrupt this).
    #[must_use]
    pub fn raw(&self, file: StateFile) -> Vec<u8> {
        self.with(|files| files.get(file.name()).map(|f| f.bytes.clone()).unwrap_or_default())
    }

    /// Overwrites `file` with `bytes`, fully durable (tests simulate
    /// arbitrary on-disk states with this).
    pub fn set_raw(&self, file: StateFile, bytes: Vec<u8>) {
        self.with(|files| {
            let f = files.entry(file.name()).or_default();
            f.durable = bytes.len();
            f.bytes = bytes;
        });
    }
}

impl StateStorage for MemStorage {
    fn read(&mut self, file: StateFile) -> Result<Option<Vec<u8>>, StateError> {
        Ok(self.with(|files| files.get(file.name()).map(|f| f.bytes.clone())))
    }

    fn append(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError> {
        self.with(|files| {
            let f = files.entry(file.name()).or_default();
            f.bytes.extend_from_slice(bytes);
            // A clean append syncs, which makes everything written so far
            // durable — fsync covers the whole file, not just this write.
            f.durable = f.bytes.len();
        });
        Ok(())
    }

    fn replace(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError> {
        self.with(|files| {
            let f = files.entry(file.name()).or_default();
            f.bytes = bytes.to_vec();
            f.durable = f.bytes.len();
        });
        Ok(())
    }
}

impl MemStorage {
    fn append_unsynced(&self, file: StateFile, bytes: &[u8]) {
        self.with(|files| {
            let f = files.entry(file.name()).or_default();
            f.bytes.extend_from_slice(bytes);
        });
    }

    fn append_torn(&self, file: StateFile, bytes: &[u8]) {
        self.with(|files| {
            let f = files.entry(file.name()).or_default();
            f.bytes.extend_from_slice(bytes);
            // The prefix hit the platter before the crash.
            f.durable = f.bytes.len();
        });
    }
}

/// The kinds of storage fault [`FaultyStorage`] injects on appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageFault {
    /// Only a prefix of the record was written; the call reports an
    /// error. The tail is torn until repaired.
    ShortWrite,
    /// The process dies mid-append: a prefix is durable, and every later
    /// operation fails until the storage is reopened after a crash.
    TornRecord,
    /// The call reports success but the bytes never reach the platter —
    /// they vanish at the next crash.
    SyncLoss,
    /// Nothing is written and the call reports an error.
    DiskFull,
}

/// A deterministic, seeded schedule of storage faults — `FaultPlan` for
/// the storage layer. Each append draws one uniform value from
/// `mix(seed, op_index)`; cumulative probability thresholds pick the
/// fault, so the same plan over the same operation sequence always
/// faults identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageFaultPlan {
    /// Seed decorrelating this plan from others.
    pub seed: u64,
    /// Probability of [`StorageFault::ShortWrite`] per append.
    pub short_write_probability: f64,
    /// Probability of [`StorageFault::TornRecord`] per append.
    pub torn_record_probability: f64,
    /// Probability of [`StorageFault::SyncLoss`] per append.
    pub sync_loss_probability: f64,
    /// Probability of [`StorageFault::DiskFull`] per append (also applied
    /// to `replace`).
    pub disk_full_probability: f64,
}

impl StorageFaultPlan {
    /// A plan that never faults.
    #[must_use]
    pub fn none(seed: u64) -> StorageFaultPlan {
        StorageFaultPlan {
            seed,
            short_write_probability: 0.0,
            torn_record_probability: 0.0,
            sync_loss_probability: 0.0,
            disk_full_probability: 0.0,
        }
    }

    /// The fault (if any) for operation number `op`.
    #[must_use]
    pub fn fault_for(&self, op: u64) -> Option<StorageFault> {
        let draw = uniform(mix(self.seed ^ 0x9e37_79b9_7f4a_7c15, op));
        let mut threshold = self.short_write_probability;
        if draw < threshold {
            return Some(StorageFault::ShortWrite);
        }
        threshold += self.torn_record_probability;
        if draw < threshold {
            return Some(StorageFault::TornRecord);
        }
        threshold += self.sync_loss_probability;
        if draw < threshold {
            return Some(StorageFault::SyncLoss);
        }
        threshold += self.disk_full_probability;
        if draw < threshold {
            return Some(StorageFault::DiskFull);
        }
        None
    }

    /// Where the injected tear cuts a record of `len` bytes: somewhere
    /// strictly inside it (deterministic per operation).
    #[must_use]
    pub fn cut_for(&self, op: u64, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        (mix(self.seed ^ 0x1357_9bdf_2468_ace0, op) as usize) % (len - 1)
    }
}

/// SplitMix64-style mixer (the `FaultPlan` idiom).
fn mix(seed: u64, value: u64) -> u64 {
    let mut z = seed.wrapping_add(value.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a mixed value to `[0, 1)` with 53 bits of precision.
fn uniform(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// [`MemStorage`] wrapped in a seeded fault injector.
pub struct FaultyStorage {
    inner: MemStorage,
    plan: StorageFaultPlan,
    ops: u64,
    crashed: bool,
    faults: Vec<(u64, StorageFault)>,
}

impl FaultyStorage {
    /// Wraps `inner` with `plan`.
    #[must_use]
    pub fn new(inner: MemStorage, plan: StorageFaultPlan) -> FaultyStorage {
        FaultyStorage { inner, plan, ops: 0, crashed: false, faults: Vec::new() }
    }

    /// Whether an injected [`StorageFault::TornRecord`] has "killed the
    /// process": every further operation fails until reopened.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The faults injected so far, as `(operation index, fault)`.
    #[must_use]
    pub fn faults(&self) -> &[(u64, StorageFault)] {
        &self.faults
    }

    /// A handle to the underlying storage (for crash-and-reopen tests).
    #[must_use]
    pub fn storage(&self) -> MemStorage {
        self.inner.clone()
    }
}

impl StateStorage for FaultyStorage {
    fn read(&mut self, file: StateFile) -> Result<Option<Vec<u8>>, StateError> {
        if self.crashed {
            return Err(StateError::Io("simulated crash".to_owned()));
        }
        self.inner.read(file)
    }

    fn append(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError> {
        if self.crashed {
            return Err(StateError::Io("simulated crash".to_owned()));
        }
        let op = self.ops;
        self.ops += 1;
        match self.plan.fault_for(op) {
            None => self.inner.append(file, bytes),
            Some(StorageFault::ShortWrite) => {
                self.faults.push((op, StorageFault::ShortWrite));
                let cut = self.plan.cut_for(op, bytes.len());
                self.inner.append_unsynced(file, &bytes[..cut]);
                Err(StateError::Io("short write (injected)".to_owned()))
            }
            Some(StorageFault::TornRecord) => {
                self.faults.push((op, StorageFault::TornRecord));
                let cut = self.plan.cut_for(op, bytes.len());
                self.inner.append_torn(file, &bytes[..cut]);
                self.crashed = true;
                Err(StateError::Io("simulated crash during append".to_owned()))
            }
            Some(StorageFault::SyncLoss) => {
                self.faults.push((op, StorageFault::SyncLoss));
                self.inner.append_unsynced(file, bytes);
                Ok(())
            }
            Some(StorageFault::DiskFull) => {
                self.faults.push((op, StorageFault::DiskFull));
                Err(StateError::Io("disk full (injected)".to_owned()))
            }
        }
    }

    fn replace(&mut self, file: StateFile, bytes: &[u8]) -> Result<(), StateError> {
        if self.crashed {
            return Err(StateError::Io("simulated crash".to_owned()));
        }
        let op = self.ops;
        self.ops += 1;
        if matches!(self.plan.fault_for(op), Some(StorageFault::DiskFull)) {
            self.faults.push((op, StorageFault::DiskFull));
            return Err(StateError::Io("disk full (injected)".to_owned()));
        }
        // Replace is tmp-write-then-rename underneath: it either lands
        // whole or not at all, so only disk-full applies.
        self.inner.replace(file, bytes)
    }
}

/// What the store knows about one signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureEntry {
    /// Interesting transformation kinds of the reduced sequence — the
    /// dedup key (§3.5).
    pub kinds: BTreeSet<TransformationKind>,
    /// Job that first reduced this signature.
    pub first_job: u64,
    /// Length of that job's reduced sequence.
    pub reduced_length: usize,
}

/// One signature a job contributed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NovelSignature {
    /// The cross-job signature key
    /// ([`trx_harness::pipeline::signature_key`]).
    pub key: String,
    /// What the job learned about it.
    pub entry: SignatureEntry,
}

/// One WAL line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum StateRecord {
    /// A completed job committed its novel signatures, atomically.
    Committed {
        /// Monotonic record number (snapshot idempotence key).
        seq: u64,
        /// The committing job's id.
        job: u64,
        /// The signatures it reduced that the store did not yet know.
        novel: Vec<NovelSignature>,
    },
}

/// The folded store state. Byte-identical canonical JSON is the
/// equivalence currency of every recovery matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusState {
    /// WAL records folded in so far (snapshot idempotence bound).
    pub applied: u64,
    /// Jobs that contributed at least one novel signature.
    pub jobs_committed: u64,
    /// Everything ever reduced, by signature key.
    pub signatures: BTreeMap<String, SignatureEntry>,
    /// Signature keys in dedup arrival (commit) order — index `i` is the
    /// dedup accumulator's arrival `i`.
    pub arrivals: Vec<String>,
    /// The global Figure 6 accumulator over all committed signatures.
    pub dedup: IncrementalDedup,
}

/// What recovery found while opening a store.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryInfo {
    /// Records already folded into the snapshot.
    pub snapshot_applied: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Whether a torn final WAL line was dropped (and repaired).
    pub torn_tail_dropped: bool,
}

/// Cumulative store health counters (monotonic over the store's life in
/// this process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Commits durably appended.
    pub commits: u64,
    /// Commits that failed even after tail repair and retry.
    pub commit_failures: u64,
    /// Successful snapshot-and-truncate compactions.
    pub compactions: u64,
    /// Compactions that failed (snapshot or truncate step).
    pub compaction_failures: u64,
}

/// The outcome of one [`StateStore::commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Novel signatures durably recorded (0 = the job was fully known and
    /// no WAL record was written).
    pub novel: usize,
    /// Whether this commit triggered a successful compaction.
    pub compacted: bool,
}

/// The crash-safe signature store: snapshot + WAL over a
/// [`StateStorage`], with explicit compaction.
pub struct StateStore {
    storage: Box<dyn StateStorage>,
    state: CorpusState,
    /// Valid records currently in the WAL file (compaction trigger).
    wal_records: usize,
    snapshot_every: usize,
    recovery: RecoveryInfo,
    counters: StoreCounters,
    /// A failed append may have left a torn tail that repair could not
    /// clean (the repair write itself failed). While set, no append may
    /// land — it would corrupt the *middle* of the log.
    tail_dirty: bool,
}

impl StateStore {
    /// Opens (recovering if needed) a store over `storage`.
    /// `snapshot_every` is the WAL record count that triggers automatic
    /// compaction after a commit; 0 compacts only on explicit
    /// [`StateStore::compact`] calls.
    ///
    /// Recovery loads the snapshot, replays every WAL record past the
    /// snapshot's `applied` bound, drops (and repairs) a torn final line,
    /// and rejects corruption anywhere else.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] from the backend, [`StateError::Corrupt`] for a
    /// snapshot or non-final WAL record that does not parse, or a WAL
    /// sequence gap.
    pub fn open(
        mut storage: Box<dyn StateStorage>,
        snapshot_every: usize,
    ) -> Result<StateStore, StateError> {
        let state = match storage.read(StateFile::Snapshot)? {
            None => CorpusState::default(),
            Some(bytes) if bytes.is_empty() => CorpusState::default(),
            Some(bytes) => {
                let text = std::str::from_utf8(&bytes).map_err(|e| StateError::Corrupt {
                    file: StateFile::Snapshot,
                    reason: e.to_string(),
                })?;
                serde_json::from_str(text).map_err(|e| StateError::Corrupt {
                    file: StateFile::Snapshot,
                    reason: e.to_string(),
                })?
            }
        };
        let mut store = StateStore {
            storage,
            state,
            wal_records: 0,
            snapshot_every,
            recovery: RecoveryInfo::default(),
            counters: StoreCounters::default(),
            tail_dirty: false,
        };
        store.recovery.snapshot_applied = store.state.applied;
        store.replay_wal()?;
        Ok(store)
    }

    fn replay_wal(&mut self) -> Result<(), StateError> {
        let bytes = self.storage.read(StateFile::Wal)?.unwrap_or_default();
        let text = String::from_utf8_lossy(&bytes);
        let lines: Vec<&str> = text.lines().collect();
        let mut valid: Vec<&str> = Vec::new();
        let mut torn = false;
        for (i, line) in lines.iter().enumerate() {
            match serde_json::from_str::<StateRecord>(line) {
                Ok(record) => {
                    let StateRecord::Committed { seq, .. } = &record;
                    if *seq <= self.state.applied {
                        // Pre-snapshot leftovers: compaction crashed
                        // between snapshot and truncate. Skip, idempotent.
                    } else if *seq == self.state.applied + 1 {
                        self.apply(record.clone());
                        self.recovery.wal_records_replayed += 1;
                    } else {
                        return Err(StateError::Corrupt {
                            file: StateFile::Wal,
                            reason: format!(
                                "sequence gap: record {seq} after applied {}",
                                self.state.applied
                            ),
                        });
                    }
                    valid.push(line);
                }
                Err(_) if i + 1 == lines.len() => {
                    torn = true;
                    break;
                }
                Err(e) => {
                    return Err(StateError::Corrupt {
                        file: StateFile::Wal,
                        reason: format!("record {}: {e}", i + 1),
                    });
                }
            }
        }
        self.wal_records = valid.len();
        if torn {
            // Repair now: appending after a torn tail would corrupt the
            // middle of the log.
            let mut clean = String::with_capacity(bytes.len());
            for line in &valid {
                clean.push_str(line);
                clean.push('\n');
            }
            self.storage.replace(StateFile::Wal, clean.as_bytes())?;
            self.recovery.torn_tail_dropped = true;
        }
        Ok(())
    }

    fn apply(&mut self, record: StateRecord) {
        let StateRecord::Committed { seq, novel, .. } = record;
        for sig in novel {
            self.state.dedup.observe(sig.entry.kinds.clone());
            self.state.arrivals.push(sig.key.clone());
            self.state.signatures.insert(sig.key, sig.entry);
        }
        self.state.applied = seq;
        self.state.jobs_committed += 1;
    }

    /// What recovery found at open time.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// Health counters.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The folded state (read-only).
    #[must_use]
    pub fn state(&self) -> &CorpusState {
        &self.state
    }

    /// Signatures known so far, in the map shape
    /// [`trx_harness::pipeline::run_pipeline_with_known_observed_cached`]
    /// consumes.
    #[must_use]
    pub fn known(&self) -> KnownSignatures {
        self.state
            .signatures
            .iter()
            .map(|(key, entry)| (key.clone(), entry.kinds.clone()))
            .collect()
    }

    /// What the store knows about `key`.
    #[must_use]
    pub fn lookup(&self, key: &str) -> Option<&SignatureEntry> {
        self.state.signatures.get(key)
    }

    /// The global dedup verdict over every committed signature: the kept
    /// signature keys, in Figure 6 selection order.
    #[must_use]
    pub fn verdict(&self) -> Vec<String> {
        self.state
            .dedup
            .recommend()
            .into_iter()
            .filter_map(|arrival| self.state.arrivals.get(arrival).cloned())
            .collect()
    }

    /// Canonical pretty JSON of the folded state — the byte-equivalence
    /// artifact of every recovery matrix. Independent of how the state is
    /// split between snapshot and WAL.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] if serialisation fails (it cannot for states
    /// this store builds).
    pub fn canonical_json(&self) -> Result<String, StateError> {
        serde_json::to_string_pretty(&self.state).map_err(|e| StateError::Io(e.to_string()))
    }

    /// Commits a completed job's novel signatures in one atomic WAL
    /// record. Signatures the store already knows are skipped (first
    /// writer wins); if nothing is novel, nothing is written and the
    /// store is unchanged.
    ///
    /// On an append failure the tail is repaired (rewritten from its
    /// parseable prefix) and the append retried once; only then does the
    /// commit fail — and a failed commit leaves the in-memory state
    /// untouched, so memory never runs ahead of what recovery can
    /// rebuild, except through an (acknowledged-lost) fsync.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] when the backend refuses both attempts,
    /// [`StateError::Corrupt`] if repair finds mid-log corruption.
    pub fn commit(
        &mut self,
        job: u64,
        novel: Vec<NovelSignature>,
    ) -> Result<CommitOutcome, StateError> {
        let fresh: Vec<NovelSignature> = novel
            .into_iter()
            .filter(|sig| !self.state.signatures.contains_key(&sig.key))
            .collect();
        if fresh.is_empty() {
            return Ok(CommitOutcome { novel: 0, compacted: false });
        }
        let record =
            StateRecord::Committed { seq: self.state.applied + 1, job, novel: fresh };
        let mut line = serde_json::to_string(&record)
            .map_err(|e| StateError::Io(e.to_string()))?;
        line.push('\n');
        if let Err(e) = self.append_clean(line.as_bytes()) {
            self.counters.commit_failures += 1;
            return Err(e);
        }
        let StateRecord::Committed { novel: fresh, .. } = &record;
        let novel_count = fresh.len();
        self.apply(record);
        self.wal_records += 1;
        self.counters.commits += 1;
        let mut compacted = false;
        if self.snapshot_every > 0 && self.wal_records >= self.snapshot_every {
            // The commit above is already durable; a failed compaction
            // must not fail it.
            match self.compact() {
                Ok(()) => compacted = true,
                Err(_) => self.counters.compaction_failures += 1,
            }
        }
        Ok(CommitOutcome { novel: novel_count, compacted })
    }

    /// Appends one record line, guaranteeing it never lands after an
    /// unrepaired torn tail: a dirty tail is repaired first, a failed
    /// append marks the tail dirty, repairs, and retries exactly once.
    fn append_clean(&mut self, line: &[u8]) -> Result<(), StateError> {
        if self.tail_dirty {
            self.repair_tail()?; // still dirty if this fails
            self.tail_dirty = false;
        }
        if self.storage.append(StateFile::Wal, line).is_ok() {
            return Ok(());
        }
        self.tail_dirty = true;
        self.repair_tail()?;
        self.tail_dirty = false;
        self.storage.append(StateFile::Wal, line).inspect_err(|_| {
            self.tail_dirty = true;
            // Leave the tail clean for the next caller when possible.
            if self.repair_tail().is_ok() {
                self.tail_dirty = false;
            }
        })
    }

    /// Rewrites the WAL from its parseable prefix, dropping a torn tail.
    fn repair_tail(&mut self) -> Result<(), StateError> {
        let bytes = self.storage.read(StateFile::Wal)?.unwrap_or_default();
        let text = String::from_utf8_lossy(&bytes);
        let lines: Vec<&str> = text.lines().collect();
        let mut clean = String::with_capacity(bytes.len());
        for (i, line) in lines.iter().enumerate() {
            if serde_json::from_str::<StateRecord>(line).is_ok() {
                clean.push_str(line);
                clean.push('\n');
            } else if i + 1 == lines.len() {
                break;
            } else {
                return Err(StateError::Corrupt {
                    file: StateFile::Wal,
                    reason: format!("record {} unparseable during repair", i + 1),
                });
            }
        }
        self.storage.replace(StateFile::Wal, clean.as_bytes())
    }

    /// Checkpoints the folded state into the snapshot and truncates the
    /// WAL. Crash-safe in both halves: the snapshot lands atomically, and
    /// a crash before the truncate leaves only already-applied records,
    /// which recovery skips by sequence number.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] if either step fails. When the snapshot step
    /// succeeded, the store still counts the WAL as logically empty —
    /// its leftover records are dead weight recovery ignores.
    pub fn compact(&mut self) -> Result<(), StateError> {
        let json = self.canonical_json()?;
        self.storage.replace(StateFile::Snapshot, json.as_bytes())?;
        // Past this point the WAL's records are all <= applied: dead.
        self.wal_records = 0;
        self.storage.replace(StateFile::Wal, b"")?;
        self.tail_dirty = false;
        self.counters.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(picks: &[TransformationKind]) -> BTreeSet<TransformationKind> {
        picks.iter().copied().collect()
    }

    /// A deterministic synthetic commit stream: job `j` contributes one
    /// or two signatures drawn from a small kind pool, with every third
    /// job repeating an earlier signature (which the store must skip).
    fn commit_stream(jobs: u64) -> Vec<(u64, Vec<NovelSignature>)> {
        use TransformationKind as K;
        let pool = [
            K::AddDeadBlock,
            K::CopyObject,
            K::AddLoad,
            K::AddStore,
            K::MoveBlockDown,
            K::InlineFunction,
        ];
        (0..jobs)
            .map(|j| {
                let a = pool[(j as usize) % pool.len()];
                let b = pool[(j as usize * 5 + 2) % pool.len()];
                let mut novel = vec![NovelSignature {
                    key: format!("target-{}|crash: sig-{j}", j % 3),
                    entry: SignatureEntry {
                        kinds: kinds(&[a, b]),
                        first_job: j,
                        reduced_length: 1 + (j as usize % 4),
                    },
                }];
                if j % 3 == 2 {
                    // Repeat an earlier job's signature: must be skipped.
                    novel.push(NovelSignature {
                        key: format!("target-{}|crash: sig-{}", (j - 1) % 3, j - 1),
                        entry: SignatureEntry {
                            kinds: kinds(&[a]),
                            first_job: j,
                            reduced_length: 9,
                        },
                    });
                }
                (j, novel)
            })
            .collect()
    }

    /// Golden fingerprints: canonical JSON after each prefix of commits,
    /// built on fault-free storage.
    fn golden_fingerprints(stream: &[(u64, Vec<NovelSignature>)]) -> Vec<String> {
        let mut store =
            StateStore::open(Box::new(MemStorage::new()), 0).expect("open clean");
        let mut prints = vec![store.canonical_json().expect("fingerprint")];
        for (job, novel) in stream {
            store.commit(*job, novel.clone()).expect("clean commit");
            prints.push(store.canonical_json().expect("fingerprint"));
        }
        prints
    }

    #[test]
    fn commit_lookup_and_verdict_round_trip() {
        let stream = commit_stream(6);
        let mem = MemStorage::new();
        let mut store = StateStore::open(Box::new(mem.clone()), 0).expect("open");
        for (job, novel) in &stream {
            store.commit(*job, novel.clone()).expect("commit");
        }
        assert_eq!(store.state().jobs_committed, 6);
        assert!(store.lookup("target-0|crash: sig-0").is_some());
        assert!(store.lookup("missing").is_none());
        // First writer wins: job 2's repeat of job 1's key kept job 1's entry.
        assert_eq!(store.lookup("target-1|crash: sig-1").unwrap().first_job, 1);
        let verdict = store.verdict();
        assert!(!verdict.is_empty());
        for key in &verdict {
            assert!(store.lookup(key).is_some());
        }
        // Reopen without a crash: identical bytes.
        let print = store.canonical_json().unwrap();
        drop(store);
        let reopened = StateStore::open(Box::new(mem), 0).expect("reopen");
        assert_eq!(reopened.canonical_json().unwrap(), print);
        assert_eq!(reopened.recovery().wal_records_replayed, 6);
    }

    #[test]
    fn kill_after_every_commit_recovers_byte_identically() {
        let stream = commit_stream(8);
        let golden = golden_fingerprints(&stream);
        for k in 0..=stream.len() {
            let mem = MemStorage::new();
            let mut store = StateStore::open(Box::new(mem.clone()), 0).expect("open");
            for (job, novel) in &stream[..k] {
                store.commit(*job, novel.clone()).expect("commit");
            }
            drop(store); // kill
            mem.crash();
            let recovered = StateStore::open(Box::new(mem), 0).expect("recover");
            assert_eq!(
                recovered.canonical_json().unwrap(),
                golden[k],
                "state diverged recovering after commit {k}"
            );
        }
    }

    #[test]
    fn truncating_the_wal_at_every_byte_recovers_a_golden_prefix() {
        let stream = commit_stream(5);
        let golden = golden_fingerprints(&stream);
        let mem = MemStorage::new();
        let mut store = StateStore::open(Box::new(mem.clone()), 0).expect("open");
        for (job, novel) in &stream {
            store.commit(*job, novel.clone()).expect("commit");
        }
        drop(store);
        let wal = mem.raw(StateFile::Wal);
        for cut in 0..=wal.len() {
            let torn = MemStorage::new();
            torn.set_raw(StateFile::Wal, wal[..cut].to_vec());
            let recovered =
                StateStore::open(Box::new(torn.clone()), 0).expect("recover from cut");
            let fingerprint = recovered.canonical_json().unwrap();
            let records = recovered.state().jobs_committed as usize;
            assert_eq!(
                fingerprint, golden[records],
                "cut at byte {cut} is not a golden prefix"
            );
            // The repaired WAL is clean: reopening changes nothing.
            drop(recovered);
            let again = StateStore::open(Box::new(torn), 0).expect("reopen repaired");
            assert_eq!(again.canonical_json().unwrap(), fingerprint);
        }
    }

    #[test]
    fn compaction_preserves_state_and_survives_mid_compaction_crash() {
        let stream = commit_stream(7);
        let golden = golden_fingerprints(&stream);

        // Auto-compaction every 2 records: state identical to never
        // compacting.
        let mem = MemStorage::new();
        let mut store = StateStore::open(Box::new(mem.clone()), 2).expect("open");
        let mut compactions = 0;
        for (job, novel) in &stream {
            if store.commit(*job, novel.clone()).expect("commit").compacted {
                compactions += 1;
            }
        }
        assert!(compactions >= 2, "snapshot_every=2 over 7 commits must compact");
        assert_eq!(store.canonical_json().unwrap(), golden[stream.len()]);
        drop(store);
        mem.crash();
        let recovered = StateStore::open(Box::new(mem), 2).expect("recover");
        assert_eq!(recovered.canonical_json().unwrap(), golden[stream.len()]);

        // Crash between snapshot and truncate: WAL still holds applied
        // records; recovery must skip them by sequence number.
        let mem = MemStorage::new();
        let mut store = StateStore::open(Box::new(mem.clone()), 0).expect("open");
        for (job, novel) in &stream[..4] {
            store.commit(*job, novel.clone()).expect("commit");
        }
        let snapshot = store.canonical_json().unwrap();
        let wal_before = mem.raw(StateFile::Wal);
        drop(store);
        mem.set_raw(StateFile::Snapshot, snapshot.into_bytes());
        mem.set_raw(StateFile::Wal, wal_before); // truncate never happened
        let mut recovered = StateStore::open(Box::new(mem.clone()), 0).expect("recover");
        assert_eq!(recovered.canonical_json().unwrap(), golden[4]);
        assert_eq!(recovered.recovery().wal_records_replayed, 0, "all were in the snapshot");
        // And the store keeps working past the leftovers.
        for (job, novel) in &stream[4..] {
            recovered.commit(*job, novel.clone()).expect("commit after recovery");
        }
        assert_eq!(recovered.canonical_json().unwrap(), golden[stream.len()]);
    }

    #[test]
    fn injected_fault_matrix_recovers_a_golden_prefix() {
        let stream = commit_stream(10);
        let golden = golden_fingerprints(&stream);
        let plans = [
            ("short-write", StorageFaultPlan {
                short_write_probability: 0.3,
                ..StorageFaultPlan::none(11)
            }),
            ("torn-record", StorageFaultPlan {
                torn_record_probability: 0.25,
                ..StorageFaultPlan::none(12)
            }),
            ("sync-loss", StorageFaultPlan {
                sync_loss_probability: 0.3,
                ..StorageFaultPlan::none(13)
            }),
            ("disk-full", StorageFaultPlan {
                disk_full_probability: 0.3,
                ..StorageFaultPlan::none(14)
            }),
            ("chaos-mix", StorageFaultPlan {
                seed: 15,
                short_write_probability: 0.1,
                torn_record_probability: 0.1,
                sync_loss_probability: 0.1,
                disk_full_probability: 0.1,
            }),
        ];
        // golden[] is unused here directly: with per-commit failures the
        // surviving state is a prefix of the *acknowledged* commits, so
        // the oracle replays exactly those on clean storage.
        let _ = golden;
        for (name, plan) in plans {
            for seed_shift in 0..6u64 {
                let plan =
                    StorageFaultPlan { seed: plan.seed + 100 * seed_shift, ..plan.clone() };
                // Acked commits may silently miss durability only when the
                // plan can lose acknowledged bytes.
                let lossy_acks =
                    plan.sync_loss_probability > 0.0 || plan.torn_record_probability > 0.0;
                let faulty = FaultyStorage::new(MemStorage::new(), plan.clone());
                let mem = faulty.storage();
                let mut store = StateStore::open(Box::new(faulty), 0).expect("open");
                let mut acked: Vec<(u64, Vec<NovelSignature>)> = Vec::new();
                for (job, novel) in &stream {
                    if store.commit(*job, novel.clone()).is_ok() {
                        acked.push((*job, novel.clone()));
                    }
                }
                drop(store);
                mem.crash();
                let recovered =
                    StateStore::open(Box::new(mem), 0).expect("recover after faults");
                let records = recovered.state().jobs_committed as usize;
                assert!(
                    records <= acked.len(),
                    "plan {name} seed-shift {seed_shift}: recovered more commits than \
                     were acknowledged"
                );
                // The oracle: a clean store fed the first `records` acked
                // commits must be byte-identical.
                let oracle_fingerprints = golden_fingerprints(&acked[..records]);
                assert_eq!(
                    recovered.canonical_json().unwrap(),
                    oracle_fingerprints[records],
                    "plan {name} seed-shift {seed_shift}: not a prefix of the \
                     acknowledged commits"
                );
                if !lossy_acks {
                    assert_eq!(
                        records,
                        acked.len(),
                        "plan {name} seed-shift {seed_shift}: an acknowledged durable \
                         commit was lost"
                    );
                }
            }
        }
    }

    #[test]
    fn torn_record_crash_recovers_and_resumes() {
        // Force a torn record on the 3rd append, crash, reopen, recommit
        // the lost suffix: final state is golden.
        let stream = commit_stream(6);
        let golden = golden_fingerprints(&stream);
        // Find a seed whose first fault is TornRecord within the stream.
        let mut chosen = None;
        for seed in 0..1000 {
            let candidate = StorageFaultPlan {
                torn_record_probability: 0.3,
                ..StorageFaultPlan::none(seed)
            };
            let first = (0..stream.len() as u64).find(|op| candidate.fault_for(*op).is_some());
            if let Some(op) = first {
                if op >= 1 && (op as usize) < stream.len() - 1 {
                    chosen = Some((candidate, op as usize));
                    break;
                }
            }
        }
        let (plan, fault_at) = chosen.expect("a seed with a mid-stream torn record");

        let faulty = FaultyStorage::new(MemStorage::new(), plan);
        let mem = faulty.storage();
        let mut store = StateStore::open(Box::new(faulty), 0).expect("open");
        let mut committed = 0usize;
        for (job, novel) in &stream {
            match store.commit(*job, novel.clone()) {
                Ok(_) => committed += 1,
                Err(_) => break, // the torn record "killed the process"
            }
        }
        assert_eq!(committed, fault_at);
        drop(store);
        mem.crash();
        let mut recovered = StateStore::open(Box::new(mem), 0).expect("recover");
        assert_eq!(recovered.canonical_json().unwrap(), golden[committed]);
        for (job, novel) in &stream[committed..] {
            recovered.commit(*job, novel.clone()).expect("recommit");
        }
        assert_eq!(recovered.canonical_json().unwrap(), golden[stream.len()]);
    }

    #[test]
    fn disk_storage_round_trips_through_a_real_directory() {
        let dir = std::env::temp_dir()
            .join(format!("trx-state-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stream = commit_stream(4);
        let golden = golden_fingerprints(&stream);
        {
            let disk = DiskStorage::open(&dir).expect("create state dir");
            let mut store = StateStore::open(Box::new(disk), 2).expect("open");
            for (job, novel) in &stream {
                store.commit(*job, novel.clone()).expect("commit");
            }
            assert_eq!(store.canonical_json().unwrap(), golden[stream.len()]);
        }
        // "Restart": a new store over the same directory.
        let disk = DiskStorage::open(&dir).expect("reopen state dir");
        let store = StateStore::open(Box::new(disk), 2).expect("recover");
        assert_eq!(store.canonical_json().unwrap(), golden[stream.len()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error_not_a_panic() {
        let stream = commit_stream(4);
        let mem = MemStorage::new();
        let mut store = StateStore::open(Box::new(mem.clone()), 0).expect("open");
        for (job, novel) in &stream {
            store.commit(*job, novel.clone()).expect("commit");
        }
        drop(store);
        let mut wal = mem.raw(StateFile::Wal);
        // Corrupt a byte inside the second record (not the final line).
        let second_line_start =
            wal.iter().position(|&b| b == b'\n').expect("one line") + 1;
        wal[second_line_start + 3] = b'!';
        mem.set_raw(StateFile::Wal, wal);
        match StateStore::open(Box::new(mem), 0) {
            Err(StateError::Corrupt { file: StateFile::Wal, .. }) => {}
            Err(other) => panic!("expected WAL corruption error, got {other:?}"),
            Ok(_) => panic!("expected WAL corruption error, got a clean store"),
        }
    }
}
