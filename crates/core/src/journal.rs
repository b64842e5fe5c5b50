//! Durable accounting: an append-only write-ahead charge journal with
//! crash recovery.
//!
//! A [`BudgetRegistry`](crate::BudgetRegistry) that forgets spends on a
//! crash is not a privacy accountant — restarting the process would reset
//! every principal's ledger and let the whole budget be spent again.
//! [`DurableRegistry`] closes the hole with the classic write-ahead
//! discipline, specialised to the one invariant that matters for DP:
//! **recovered spend is never less than real spend.**
//!
//! # The write-ahead ordering
//!
//! Every durable charge performs, in order:
//!
//! 1. **check** — the admission check against the principal's allowance
//!    (refusals stop here; nothing is written);
//! 2. **append + sync** — the charge record is appended to the journal
//!    and fsynced, in one batch with any concurrent charges' records
//!    (see "Group commit" below); a failure here rejects the charge
//!    *without* applying it: **degrade-to-reject**, never
//!    degrade-to-serve-uncharged;
//! 3. **apply** — only now is the in-memory ledger updated and the caller
//!    told to release the noised answer.
//!
//! A crash between 2 and 3 therefore replays a charge whose answer was
//! never released — an over-report, which is the allowed direction. A
//! crash during 2 leaves a **torn tail**; the rules below keep even that
//! sound.
//!
//! # Failure latching
//!
//! A failed append may leave a torn fragment in the log (a partial
//! `write(2)`, ENOSPC mid-frame), and a failed fsync leaves the
//! durability of the tail unknown. In either case, appending *past* the
//! damage would turn a recoverable torn tail into mid-log corruption
//! that [`replay`] must refuse — losing every charge after it. The
//! journal therefore **latches closed** on the first append or sync
//! failure: the failing charge is rejected (degrade-to-reject, as
//! always) and every later charge is refused with a `"latched"`
//! [`JournalError`] without touching storage.
//! [`journal_error`](DurableRegistry::journal_error) reports the
//! original failure; recovery is a restart —
//! [`open_with_options`](DurableRegistry::open_with_options) over the
//! surviving bytes, whose tail the torn-tail rule handles.
//!
//! # Group commit
//!
//! Every charge is group-committed, so concurrent chargers do not each
//! pay their own fsync. A charger runs its admission check
//! against committed spend **plus** the spend of every record already
//! enqueued but not yet durable (a *reservation* — without it, two
//! concurrent chargers could both pass the check and together overshoot
//! the allowance), enqueues its framed record with a log sequence number
//! (LSN), and blocks. One charger becomes the **leader**: it takes the
//! whole queue, appends every frame, pays a **single fsync**, and only
//! then applies the batch to the ledger and advances the stable LSN.
//! Followers are acknowledged exactly when the stable LSN reaches their
//! record's LSN — *ack only at stable LSN*; no answer is released on the
//! strength of an unsynced append. A failed batch append/fsync refuses
//! **every** charge in that batch (their reservations are dropped, the
//! ledger never moved — degrade-to-reject, batched) and latches the
//! journal. A lone charger leads a batch of one, so its log is the
//! plain sequence of its records.
//!
//! # Compaction
//!
//! Checkpoints bound *replay time* but the log still grows without
//! bound. [`compact_now`](DurableRegistry::compact_now) (and the
//! size/record-count [`CompactionPolicy`]) rewrites the log as a fresh
//! header plus a chunked registry snapshot, through the crash-safe
//! [`JournalStorage::replace_with`] primitive: write a temp file, fsync
//! it, atomically rename it over the log, fsync the parent directory.
//! The swap invariant: **at every instant exactly one complete journal —
//! old or new — is the log**, and both replay to ledgers that
//! never under-report acknowledged spend (the snapshot is taken with the
//! group queue drained, so it covers precisely the committed records it
//! replaces). A compaction that fails mid-swap latches the journal — the
//! handle can no longer tell which file survives — and either surviving
//! file recovers soundly at restart. Snapshot records (`SNAPSHOT`) are
//! written *only* inside atomically-replaced files and their count is
//! declared in the header, so a torn or shortened snapshot prefix is
//! [`RecoveryError::Corrupt`], never a silently-dropped tail: dropping a
//! record that summarizes vanished history would under-report.
//!
//! # Record format
//!
//! The journal is a header record followed by charge and checkpoint
//! records, each framed as
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [crc32(payload): u32 LE]
//! ```
//!
//! with payloads (first byte is the record kind):
//!
//! ```text
//! HEADER     = 0x00  "SCJL"  version: u16 LE  carrier_len: u8  carrier
//!                    (snapshot_records: u32 LE — only in compacted logs)
//! CHARGE     = 0x01  principal: u64 LE  charge: B::to_bytes
//! CHECKPOINT = 0x02  count: u32 LE  (principal: u64 LE,
//!                                    len: u32 LE, spent: B::to_bytes)*
//! SNAPSHOT   = 0x03  same layout as CHECKPOINT; compaction-only — the
//!                    header-declared chunks at the head of a compacted
//!                    log (first resets state, the rest extend it)
//! ```
//!
//! Charges are lossless ([`Budget::to_bytes`] round-trips bit-for-bit on
//! both carriers), so replay on the [`Dyadic`](sampcert_arith::Dyadic)
//! carrier reconstructs spend **exactly** — recovery is provable equality,
//! not approximation. The header pins the carrier name; replaying a
//! journal under a different carrier is refused
//! ([`RecoveryError::CarrierMismatch`]) rather than silently re-rounded.
//!
//! # The torn-tail rule
//!
//! Recovery parses frames sequentially. At the first frame that is
//! incomplete or fails its checksum, exactly one of three things
//! happens:
//!
//! - the frame is **incomplete** (the log ends before its checksum does)
//!   and the fragment is a plausible torn write — a complete, decodable
//!   `CHARGE` payload whose surviving checksum bytes (0–3 of them) are a
//!   prefix of the payload's real checksum: it replays **as charged** —
//!   the conservative reading of an ambiguous record;
//! - the frame is **incomplete** and the fragment is consistent with a
//!   tear but not chargeable (truncated mid-payload, or a torn
//!   checkpoint — which only summarizes records still in the log): it is
//!   dropped. This cannot under-report: the sync for that record never
//!   returned, so step 3 never ran and no answer was released;
//! - the frame is **complete but its checksum mismatches**, its
//!   incomplete tail carries checksum bytes that contradict its payload
//!   (a tear persists a prefix of the true frame — a contradiction is
//!   rot, not a tear), its length field exceeds the record size cap, or
//!   the damage is *not* at the tail: recovery refuses
//!   ([`RecoveryError::Corrupt`]). A write torn by a crash leaves a
//!   *prefix* of a frame, never a full frame with a wrong checksum —
//!   that is bit rot, and a rotted payload cannot be trusted to name
//!   the right principal or amount (on the `f64` carrier nearly any
//!   byte pattern decodes), so it is surfaced, not repaired silently.
//!
//! Either accepted outcome is reported in [`RecoveryReport::torn_tail`].
//!
//! # Checkpoints
//!
//! Every [`checkpoint_every`](DurableOptions::checkpoint_every) charges
//! the registry appends a `CHECKPOINT` record: a consistent snapshot of
//! every principal's composed spend (consistent because the batch leader
//! takes it after applying its batch, before any later batch can apply).
//! On replay a checkpoint is **authoritative** — state resets to the
//! snapshot and subsequent charges compose on top — which both bounds the
//! work a future log-compaction step needs and makes replay insensitive
//! to anything before the last intact checkpoint. A snapshot too large to
//! fit one record (past the payload size cap, ~50k principals) is skipped
//! rather than written: checkpoints only summarize charges that are
//! already individually journaled, so skipping costs replay time, never
//! spend — and the cap is enforced at write time precisely so that replay
//! may treat an oversized frame as corruption instead of guessing.
//!
//! Recovery is **idempotent**: [`replay`] is a pure function of the
//! journal bytes (nothing is written during replay), so replaying twice —
//! or on two machines — yields identical ledgers.
//! [`DurableRegistry::open_with_options`] additionally performs **tail
//! repair** when it recovers a log: a torn fragment is truncated away
//! (one that replayed as charged is first re-journaled as a proper
//! record, keeping the conservative charge durable), so the recovered
//! registry's own appends never land after damage. Repair preserves
//! spend exactly — re-recovering a repaired log yields the same ledgers
//! the repairing recovery did.
//!
//! # Example
//!
//! ```
//! use sampcert_core::{Budget, DurableOptions, DurableRegistry, MemStorage, PureDp};
//! use sampcert_arith::Dyadic;
//!
//! type Book = DurableRegistry<PureDp, Dyadic, MemStorage>;
//! let budget = Dyadic::budget_from_f64(1.0);
//! let storage = MemStorage::new();
//! let reg = Book::create_with_budget(budget.clone(), 4, storage.clone()).unwrap();
//! reg.charge(7, 0.625).unwrap();
//! drop(reg); // crash
//!
//! let (back, report) =
//!     Book::open_with_options(budget, 4, storage.reopen(), DurableOptions::default()).unwrap();
//! assert_eq!(back.spent_exact(7), Dyadic::from_f64_ceil(0.625));
//! assert!(!report.torn_tail);
//! ```

use crate::abstract_dp::AbstractDp;
use crate::accountant::BudgetExceeded;
use crate::budget::Budget;
use crate::registry::{BudgetRegistry, RegistryView};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Seek, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Record kinds (first payload byte).
const KIND_HEADER: u8 = 0x00;
const KIND_CHARGE: u8 = 0x01;
const KIND_CHECKPOINT: u8 = 0x02;
const KIND_SNAPSHOT: u8 = 0x03;

/// Journal file magic, inside the header payload.
const MAGIC: &[u8; 4] = b"SCJL";
/// On-disk format version.
const VERSION: u16 = 1;
/// Cap on a single record payload, enforced at **write time** (charges
/// are refused, checkpoints skipped) so that replay may treat a complete
/// frame claiming a larger length as corruption — and so a corrupt
/// length field can never drive a multi-gigabyte scan during recovery.
const MAX_PAYLOAD: u32 = 1 << 20;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven, no dependencies.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A journal I/O failure (append, sync, or read).
///
/// Stores the failing operation and a rendered detail string rather than
/// the raw `io::Error` so the type stays `Clone + PartialEq` — the shape
/// session errors need for testable equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// The journal operation that failed (`"append"`, `"sync"`, …).
    pub op: &'static str,
    /// Human-readable failure detail.
    pub detail: String,
}

impl JournalError {
    /// A failure of `op` with the given detail.
    pub fn new(op: &'static str, detail: impl Into<String>) -> Self {
        JournalError {
            op,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal {} failed: {}", self.op, self.detail)
    }
}

impl std::error::Error for JournalError {}

/// Why a journal could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// Reading the journal bytes failed.
    Io(JournalError),
    /// The journal is damaged somewhere other than its tail — a valid
    /// frame follows the damage, so this is not a crash artefact.
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The header is missing or malformed (not a journal, or truncated at
    /// birth).
    BadHeader(String),
    /// The journal was written under a different budget carrier; replaying
    /// it here would re-round every charge.
    CarrierMismatch {
        /// The carrier this recovery was asked to produce.
        expected: &'static str,
        /// The carrier named in the journal header.
        found: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "journal recovery failed: {e}"),
            RecoveryError::Corrupt { offset, detail } => {
                write!(f, "journal corrupt at byte {offset}: {detail}")
            }
            RecoveryError::BadHeader(detail) => write!(f, "journal header invalid: {detail}"),
            RecoveryError::CarrierMismatch { expected, found } => write!(
                f,
                "journal carrier mismatch: journal is {found}, accountant is {expected}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A refusal from a durable charge: either the principal's allowance said
/// no, or the journal could not durably record the spend — in which case
/// the charge is rejected **without** being applied (degrade-to-reject).
#[derive(Debug, Clone, PartialEq)]
pub enum DurableChargeError<B = f64> {
    /// The admission check refused the charge.
    Budget(BudgetExceeded<B>),
    /// The write-ahead append or fsync failed; the charge was not applied
    /// and no answer may be released.
    Journal(JournalError),
}

impl<B: std::fmt::Display> std::fmt::Display for DurableChargeError<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableChargeError::Budget(e) => e.fmt(f),
            DurableChargeError::Journal(e) => write!(f, "charge rejected: {e}"),
        }
    }
}

impl<B: std::fmt::Display + std::fmt::Debug> std::error::Error for DurableChargeError<B> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableChargeError::Budget(_) => None,
            DurableChargeError::Journal(e) => Some(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

/// The byte-level backend a journal writes through.
///
/// Deliberately tiny — append, sync, read — so a fault-injecting
/// implementation ([`MemStorage`]) can stand in for a file and exercise
/// every failure the durability argument depends on. An `append` is
/// allowed to write a *prefix* of its bytes and then fail (a torn write);
/// the recovery rules are designed around exactly that.
///
/// `'static` because a [`DurableRegistry`] with an automatic
/// [`CompactionPolicy`] hands the storage (inside its shared core) to a
/// background compactor thread.
pub trait JournalStorage: Send + 'static {
    /// Appends bytes at the end of the log. May fail after writing only a
    /// prefix.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] on I/O failure.
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError>;

    /// Durably flushes everything appended so far.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] when durability cannot be confirmed —
    /// the caller must then treat the preceding appends as *not*
    /// committed.
    fn sync(&mut self) -> Result<(), JournalError>;

    /// Reads the entire log from the beginning.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] on I/O failure.
    fn read_all(&mut self) -> Result<Vec<u8>, JournalError>;

    /// Discards everything after the first `len` bytes — the tail-repair
    /// primitive: recovery truncates a torn fragment before the next
    /// generation appends, so new records never land after damage.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] on I/O failure.
    fn truncate(&mut self, len: u64) -> Result<(), JournalError>;

    /// Atomically replaces the entire log with `bytes` — the compaction
    /// primitive. The contract is all-or-nothing *under crashes*: after a
    /// kill at any point, a reader sees either the complete old log or
    /// the complete new one, never a mixture or a prefix. File backends
    /// get this from the classic sequence: write a temp file, fsync it,
    /// `rename(2)` it over the log, fsync the parent directory.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] when the replacement cannot be
    /// confirmed. The caller must then assume nothing about which of the
    /// two logs survives (the error may have struck before or after the
    /// rename) — [`DurableRegistry`] latches on any `replace_with`
    /// failure and leaves both possible survivors replayable.
    fn replace_with(&mut self, bytes: &[u8]) -> Result<(), JournalError>;

    /// Number of bytes currently in the log (committed or not).
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] on I/O failure.
    fn len(&mut self) -> Result<u64, JournalError> {
        Ok(self.read_all()?.len() as u64)
    }

    /// Whether the log is empty ([`len`](Self::len) == 0).
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] on I/O failure.
    fn is_empty(&mut self) -> Result<bool, JournalError> {
        Ok(self.len()? == 0)
    }
}

/// File-backed [`JournalStorage`]: append-mode writes, `sync_data` on
/// commit.
#[derive(Debug)]
pub struct FileStorage {
    file: std::fs::File,
    path: std::path::PathBuf,
}

impl FileStorage {
    /// Opens (creating if absent) the journal file at `path` for
    /// appending, then fsyncs the parent directory — without that, a
    /// crash shortly after creation can drop the directory entry and
    /// with it the whole journal, header and synced charges included.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] if the file cannot be opened or the
    /// parent directory cannot be durably synced.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| JournalError::new("open", e.to_string()))?;
        Self::sync_parent(path).map_err(|e| JournalError::new("open", e))?;
        Ok(FileStorage {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Fsyncs the directory containing `path`, durably pinning its
    /// directory entries (a freshly created file, or a rename).
    fn sync_parent(path: &std::path::Path) -> Result<(), String> {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => std::path::Path::new("."),
        };
        std::fs::File::open(parent)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| format!("fsync parent directory: {e}"))
    }

    /// The sibling path compaction stages the replacement log at.
    fn tmp_path(&self) -> std::path::PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(".compact-tmp");
        std::path::PathBuf::from(os)
    }
}

impl JournalStorage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.file
            .write_all(bytes)
            .map_err(|e| JournalError::new("append", e.to_string()))
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.file
            .sync_data()
            .map_err(|e| JournalError::new("sync", e.to_string()))
    }

    fn read_all(&mut self) -> Result<Vec<u8>, JournalError> {
        let mut buf = Vec::new();
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut buf))
            .map_err(|e| JournalError::new("read", e.to_string()))?;
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> Result<(), JournalError> {
        self.file
            .set_len(len)
            .map_err(|e| JournalError::new("truncate", e.to_string()))
    }

    fn len(&mut self) -> Result<u64, JournalError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| JournalError::new("len", e.to_string()))
    }

    fn replace_with(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        // 1. Stage the new log beside the old one and make its *contents*
        //    durable before it can possibly become the log.
        let tmp = self.tmp_path();
        let staged = std::fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        });
        if let Err(e) = staged {
            let _ = std::fs::remove_file(&tmp);
            return Err(JournalError::new(
                "replace",
                format!("stage temp file: {e}"),
            ));
        }
        // 2. The atomic point: after rename(2) the directory entry refers
        //    to the new (already-synced) log; before it, to the old one.
        //    No intermediate state is observable across a crash.
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| JournalError::new("replace", format!("rename into place: {e}")))?;
        // 3. Durably pin the new directory entry.
        Self::sync_parent(&self.path).map_err(|e| JournalError::new("replace", e))?;
        // 4. The old fd still points at the unlinked inode — reopen so
        //    subsequent appends land in the new log, not the orphan.
        self.file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| JournalError::new("replace", format!("reopen after rename: {e}")))?;
        Ok(())
    }
}

/// What a [`MemStorage`] should break, and when — the fault-injection
/// half of the crash-consistency harness.
///
/// Counters are per-storage-instance (a [`reopen`](MemStorage::reopen)
/// starts a fresh, fault-free handle over the same bytes, like a process
/// restart over the same file).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail every append once this many appends have succeeded.
    pub fail_append_after: Option<u64>,
    /// At append number `.0` (0-based), write only the first `.1` bytes,
    /// then fail — a torn write.
    pub torn_append: Option<(u64, usize)>,
    /// Fail every sync once this many syncs have succeeded.
    pub fail_sync_after: Option<u64>,
    /// At replace number `.0` (0-based), fail with the given surviving
    /// state — a crash during compaction's atomic swap.
    pub fail_replace: Option<(u64, ReplaceFault)>,
}

/// Which complete log survives an injected [`replace_with`] crash.
///
/// The rename-based swap is atomic, so a kill leaves exactly one of two
/// observable states — there is deliberately no "mixed" variant.
///
/// [`replace_with`]: JournalStorage::replace_with
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaceFault {
    /// The crash struck before the rename (temp-file write, temp fsync):
    /// the staged bytes are invisible and the **old** log survives intact.
    KeepOld,
    /// The crash struck after the rename (during the parent-directory
    /// fsync or the handle reopen): the **new** log is fully in place but
    /// the caller never heard the confirmation.
    KeepNew,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Fails every append after `n` successful ones.
    pub fn fail_append_after(n: u64) -> Self {
        FaultPlan {
            fail_append_after: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Tears append number `n` (0-based) to its first `keep` bytes.
    pub fn torn_append(n: u64, keep: usize) -> Self {
        FaultPlan {
            torn_append: Some((n, keep)),
            ..FaultPlan::default()
        }
    }

    /// Fails every sync after `n` successful ones.
    pub fn fail_sync_after(n: u64) -> Self {
        FaultPlan {
            fail_sync_after: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Crashes replace number `n` (0-based), leaving `outcome` on disk.
    pub fn fail_replace(n: u64, outcome: ReplaceFault) -> Self {
        FaultPlan {
            fail_replace: Some((n, outcome)),
            ..FaultPlan::default()
        }
    }
}

/// In-memory [`JournalStorage`] with injectable faults.
///
/// The byte buffer is shared (`Arc`) between clones, so a test can hand a
/// faulty handle to the system under test, "crash" it by dropping, and
/// [`reopen`](Self::reopen) a clean handle over the surviving bytes —
/// exactly a process restart over the same file.
#[derive(Debug, Clone)]
pub struct MemStorage {
    buf: Arc<Mutex<Vec<u8>>>,
    plan: FaultPlan,
    appends: u64,
    syncs: u64,
    replaces: u64,
}

impl MemStorage {
    /// Empty, fault-free storage.
    pub fn new() -> Self {
        MemStorage {
            buf: Arc::new(Mutex::new(Vec::new())),
            plan: FaultPlan::none(),
            appends: 0,
            syncs: 0,
            replaces: 0,
        }
    }

    /// Replaces this handle's fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// A fresh fault-free handle over the same bytes (a restart).
    pub fn reopen(&self) -> Self {
        MemStorage {
            buf: Arc::clone(&self.buf),
            plan: FaultPlan::none(),
            appends: 0,
            syncs: 0,
            replaces: 0,
        }
    }

    /// The current log contents.
    pub fn contents(&self) -> Vec<u8> {
        self.buf.lock().expect("mem journal poisoned").clone()
    }

    /// Truncates the log to `len` bytes — for tests that damage the log
    /// directly.
    pub fn truncate(&self, len: usize) {
        self.buf.lock().expect("mem journal poisoned").truncate(len);
    }

    /// Overwrites the byte at `offset` — for tests that corrupt the log
    /// directly.
    pub fn corrupt_byte(&self, offset: usize) {
        let mut buf = self.buf.lock().expect("mem journal poisoned");
        buf[offset] ^= 0xFF;
    }
}

impl Default for MemStorage {
    fn default() -> Self {
        MemStorage::new()
    }
}

impl JournalStorage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        let n = self.appends;
        self.appends += 1;
        if let Some((at, keep)) = self.plan.torn_append {
            if n == at {
                let keep = keep.min(bytes.len());
                self.buf
                    .lock()
                    .expect("mem journal poisoned")
                    .extend_from_slice(&bytes[..keep]);
                return Err(JournalError::new(
                    "append",
                    format!("injected torn write ({keep}/{} bytes)", bytes.len()),
                ));
            }
        }
        if let Some(limit) = self.plan.fail_append_after {
            if n >= limit {
                return Err(JournalError::new("append", "injected append failure"));
            }
        }
        self.buf
            .lock()
            .expect("mem journal poisoned")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        let n = self.syncs;
        self.syncs += 1;
        if let Some(limit) = self.plan.fail_sync_after {
            if n >= limit {
                return Err(JournalError::new("sync", "injected fsync failure"));
            }
        }
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, JournalError> {
        Ok(self.contents())
    }

    fn truncate(&mut self, len: u64) -> Result<(), JournalError> {
        MemStorage::truncate(self, len as usize);
        Ok(())
    }

    fn len(&mut self) -> Result<u64, JournalError> {
        Ok(self.buf.lock().expect("mem journal poisoned").len() as u64)
    }

    fn replace_with(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        let n = self.replaces;
        self.replaces += 1;
        if let Some((at, outcome)) = self.plan.fail_replace {
            if n == at {
                return match outcome {
                    ReplaceFault::KeepOld => Err(JournalError::new(
                        "replace",
                        "injected crash before rename (old log survives)",
                    )),
                    ReplaceFault::KeepNew => {
                        *self.buf.lock().expect("mem journal poisoned") = bytes.to_vec();
                        Err(JournalError::new(
                            "replace",
                            "injected crash after rename (new log survives)",
                        ))
                    }
                };
            }
        }
        *self.buf.lock().expect("mem journal poisoned") = bytes.to_vec();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// The header payload. `snapshot_records > 0` appends the compacted-log
/// extension: the number of `SNAPSHOT` records that MUST immediately
/// follow, completely intact — declared up front so a shortened snapshot
/// prefix is provable corruption instead of a droppable tail (dropping a
/// record that summarizes vanished history would under-report).
fn header_payload<B: Budget>(snapshot_records: u32) -> Vec<u8> {
    let name = B::NAME.as_bytes();
    let mut p = Vec::with_capacity(12 + name.len());
    p.push(KIND_HEADER);
    p.extend_from_slice(MAGIC);
    p.extend_from_slice(&VERSION.to_le_bytes());
    p.push(name.len() as u8);
    p.extend_from_slice(name);
    if snapshot_records > 0 {
        p.extend_from_slice(&snapshot_records.to_le_bytes());
    }
    p
}

fn charge_payload<B: Budget>(principal: u64, charge: &B) -> Vec<u8> {
    let bytes = charge.to_bytes();
    let mut p = Vec::with_capacity(9 + bytes.len());
    p.push(KIND_CHARGE);
    p.extend_from_slice(&principal.to_le_bytes());
    p.extend_from_slice(&bytes);
    p
}

fn entries_payload<B: Budget>(kind: u8, entries: &[(u64, B)]) -> Vec<u8> {
    let mut p = vec![kind];
    p.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (principal, spent) in entries {
        let bytes = spent.to_bytes();
        p.extend_from_slice(&principal.to_le_bytes());
        p.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        p.extend_from_slice(&bytes);
    }
    p
}

fn checkpoint_payload<B: Budget>(entries: &[(u64, B)]) -> Vec<u8> {
    entries_payload(KIND_CHECKPOINT, entries)
}

/// Splits a registry snapshot into `SNAPSHOT` record payloads, each
/// within [`MAX_PAYLOAD`] — a million-principal snapshot does not fit
/// one record (the cap exists so replay can refuse huge length fields),
/// so compacted logs carry it chunked. Always returns at least one chunk
/// (an empty registry still writes one empty `SNAPSHOT`), so a compacted
/// log's declared prefix count is never zero.
fn snapshot_chunks<B: Budget>(entries: &[(u64, B)]) -> Result<Vec<Vec<u8>>, JournalError> {
    // kind byte + u32 entry count.
    const CHUNK_HEADER: usize = 5;
    let mut chunks = Vec::new();
    let mut current: Vec<(u64, B)> = Vec::new();
    let mut current_size = CHUNK_HEADER;
    for (principal, spent) in entries {
        let entry_size = 12 + spent.to_bytes().len();
        if CHUNK_HEADER + entry_size > MAX_PAYLOAD as usize {
            return Err(JournalError::new(
                "compact",
                format!("snapshot entry for principal {principal} exceeds the maximum record size"),
            ));
        }
        if current_size + entry_size > MAX_PAYLOAD as usize {
            chunks.push(entries_payload(KIND_SNAPSHOT, &current));
            current.clear();
            current_size = CHUNK_HEADER;
        }
        current.push((*principal, spent.clone()));
        current_size += entry_size;
    }
    chunks.push(entries_payload(KIND_SNAPSHOT, &current));
    Ok(chunks)
}

fn decode_charge<B: Budget>(payload: &[u8]) -> Option<(u64, B)> {
    if payload.len() < 10 || payload[0] != KIND_CHARGE {
        return None;
    }
    let principal = u64::from_le_bytes(payload[1..9].try_into().expect("8 principal bytes"));
    let charge = B::from_bytes(&payload[9..])?;
    if !charge.is_valid() {
        return None;
    }
    Some((principal, charge))
}

/// Decodes a `CHECKPOINT` or `SNAPSHOT` payload (same wire layout; the
/// caller names which kind it expects).
fn decode_entries<B: Budget>(payload: &[u8], kind: u8) -> Option<Vec<(u64, B)>> {
    if payload.len() < 5 || payload[0] != kind {
        return None;
    }
    let count = u32::from_le_bytes(payload[1..5].try_into().expect("4 count bytes"));
    let mut at = 5usize;
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        if payload.len() < at + 12 {
            return None;
        }
        let principal = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(payload[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
        at += 12;
        if payload.len() < at + len {
            return None;
        }
        let spent = B::from_bytes(&payload[at..at + len])?;
        if !spent.is_valid() {
            return None;
        }
        at += len;
        entries.push((principal, spent));
    }
    if at != payload.len() {
        return None;
    }
    Some(entries)
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What [`replay`] reconstructed from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery<B> {
    /// Each principal's composed spend, sorted by principal id.
    pub spent: Vec<(u64, B)>,
    /// The tail fragment's conservative decoding, when the torn-tail
    /// rule replayed it as charged (already folded into
    /// [`spent`](Self::spent)) — what tail repair re-journals as a
    /// proper record.
    pub torn_charge: Option<(u64, B)>,
    /// How the replay went — for logging and tests.
    pub report: RecoveryReport,
}

/// Summary statistics of a recovery.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Intact records replayed (header and checkpoints included).
    pub records: usize,
    /// `CHARGE` records replayed, a torn-tail charge included — the
    /// number of charge records in the log once tail repair has
    /// re-journaled that charge.
    pub charges: usize,
    /// Bytes of the log covered by intact frames — everything before the
    /// torn tail, or the whole log when there is none. Tail repair
    /// truncates to this offset.
    pub valid_len: usize,
    /// Whether the journal ended in a torn tail (either variant of the
    /// torn-tail rule).
    pub torn_tail: bool,
    /// Whether a torn tail was conservatively replayed as a charge.
    pub torn_tail_charged: bool,
}

/// One parsed frame, or the reason parsing stopped.
enum Frame<'a> {
    Complete(&'a [u8]),
    /// Complete bytes, checksum mismatch.
    BadCrc,
    /// A complete frame whose length field exceeds [`MAX_PAYLOAD`] — the
    /// writer never emits one, so this is not a crash artefact.
    Oversized,
    /// Ran off the end of the log.
    Truncated,
}

/// Parses the frame at `bytes[at..]`; returns the frame and the offset of
/// the next one (unchanged for `Truncated`).
fn parse_frame(bytes: &[u8], at: usize) -> (Frame<'_>, usize) {
    let rest = &bytes[at..];
    if rest.len() < 4 {
        return (Frame::Truncated, at);
    }
    let len = u32::from_le_bytes(rest[..4].try_into().expect("4 length bytes"));
    let need = 4 + len as usize + 4;
    if len > MAX_PAYLOAD {
        // A length past the write-time cap: if the claimed frame runs off
        // the end of the log it is indistinguishable from a torn length
        // field (tail rule applies); if the log actually contains that
        // many more bytes, something other than this writer produced the
        // frame and replay must refuse rather than silently skip to EOF.
        if rest.len() < need {
            return (Frame::Truncated, at);
        }
        return (Frame::Oversized, at + need);
    }
    if rest.len() < need {
        return (Frame::Truncated, at);
    }
    let payload = &rest[4..4 + len as usize];
    let crc = u32::from_le_bytes(
        rest[4 + len as usize..need]
            .try_into()
            .expect("4 crc bytes"),
    );
    if crc32(payload) != crc {
        return (Frame::BadCrc, at + need);
    }
    (Frame::Complete(payload), at + need)
}

/// How the torn-tail rule reads a tail fragment.
enum TailFragment<B> {
    /// A plausible torn write carrying a complete, decodable `CHARGE`
    /// payload: replay it as charged (the conservative reading).
    Charged(u64, B),
    /// Torn mid-payload, or a complete non-charge payload (e.g. a torn
    /// checkpoint, which only summarizes records still in the log):
    /// drop it — the sync never returned, so nothing was released.
    Dropped,
    /// Provably *not* a torn write (carries the refusal detail): the
    /// surviving checksum bytes contradict the payload — a tear persists
    /// a prefix of the true frame, so an inconsistent prefix is bit rot —
    /// or the fragment claims a record kind the writer never appends
    /// (`SNAPSHOT` lives only in atomically-replaced compacted prefixes).
    /// Refuse rather than guess off untrusted bytes.
    Rotted(&'static str),
}

/// Classifies a tail fragment (an incomplete frame extending to EOF) for
/// the torn-tail rule: the fragment carries the length field, possibly
/// all `len` payload bytes, and fewer than four checksum bytes (four
/// present-and-wrong ones are [`Frame::BadCrc`], refused upstream).
fn classify_tail<B: Budget>(fragment: &[u8]) -> TailFragment<B> {
    if fragment.len() < 4 {
        return TailFragment::Dropped;
    }
    let len = u32::from_le_bytes(fragment[..4].try_into().expect("4 length bytes"));
    // When the kind byte survived, a fragment claiming to be a SNAPSHOT
    // record is provably not a torn append: the writer only ever appends
    // charges and checkpoints (snapshots exist solely inside
    // atomically-replaced compacted prefixes, which replay checks
    // separately). Dropping it could forget compacted history — refuse.
    if len >= 1 && fragment.len() >= 5 && fragment[4] == KIND_SNAPSHOT {
        return TailFragment::Rotted("snapshot record fragment outside the compacted prefix");
    }
    if len > MAX_PAYLOAD || fragment.len() < 4 + len as usize {
        return TailFragment::Dropped;
    }
    let payload = &fragment[4..4 + len as usize];
    let crc = crc32(payload).to_le_bytes();
    let survived = &fragment[4 + len as usize..];
    if survived.len() >= 4 || survived != &crc[..survived.len()] {
        return TailFragment::Rotted("tail fragment checksum inconsistent with its payload");
    }
    match decode_charge(payload) {
        Some((principal, charge)) => TailFragment::Charged(principal, charge),
        None => TailFragment::Dropped,
    }
}

/// Replays journal bytes into per-principal spend, applying the torn-tail
/// rule (see the module docs).
///
/// Pure: reads only its argument, writes nothing — recovery is therefore
/// idempotent by construction.
///
/// # Errors
///
/// Returns a [`RecoveryError`] for a missing/malformed header, a carrier
/// mismatch, or damage that is not at the tail.
pub fn replay<D: AbstractDp, B: Budget>(bytes: &[u8]) -> Result<Recovery<B>, RecoveryError> {
    // Header first.
    let (first, mut at) = parse_frame(bytes, 0);
    let header = match first {
        Frame::Complete(payload) => payload,
        Frame::BadCrc | Frame::Oversized | Frame::Truncated => {
            return Err(RecoveryError::BadHeader(
                "missing or damaged header record".into(),
            ));
        }
    };
    if header.len() < 8 || header[0] != KIND_HEADER || &header[1..5] != MAGIC {
        return Err(RecoveryError::BadHeader("bad magic".into()));
    }
    let version = u16::from_le_bytes(header[5..7].try_into().expect("2 version bytes"));
    if version != VERSION {
        return Err(RecoveryError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }
    let name_len = header[7] as usize;
    // Two header shapes: the plain one, and the compacted-log one with a
    // trailing u32 declaring how many SNAPSHOT records follow.
    let expected_snapshots = if header.len() == 8 + name_len {
        0u32
    } else if header.len() == 12 + name_len {
        u32::from_le_bytes(
            header[8 + name_len..]
                .try_into()
                .expect("4 snapshot-count bytes"),
        )
    } else {
        return Err(RecoveryError::BadHeader("carrier name truncated".into()));
    };
    let found = String::from_utf8_lossy(&header[8..8 + name_len]).into_owned();
    if found != B::NAME {
        return Err(RecoveryError::CarrierMismatch {
            expected: B::NAME,
            found,
        });
    }

    let mut spent: BTreeMap<u64, B> = BTreeMap::new();
    let mut torn_charge = None;
    let mut report = RecoveryReport {
        records: 1,
        ..RecoveryReport::default()
    };
    // The compacted snapshot prefix. It was written in one atomic
    // replace, so every declared chunk must be complete and intact: any
    // damage or shortfall here is refused outright — the torn-tail rule
    // must NOT apply, because dropping a snapshot record would forget the
    // compacted-away history it stands in for.
    for part in 0..expected_snapshots {
        let offset = at;
        let (frame, next) = parse_frame(bytes, at);
        let payload = match frame {
            Frame::Complete(p) if p.first() == Some(&KIND_SNAPSHOT) => p,
            _ => {
                return Err(RecoveryError::Corrupt {
                    offset,
                    detail: format!(
                        "compacted snapshot prefix damaged \
                         (part {}/{expected_snapshots})",
                        part + 1
                    ),
                });
            }
        };
        let entries =
            decode_entries::<B>(payload, KIND_SNAPSHOT).ok_or_else(|| RecoveryError::Corrupt {
                offset,
                detail: "undecodable snapshot record".into(),
            })?;
        // The first chunk starts from the (empty) reset state; later
        // chunks extend it. Chunks carry disjoint principals, so this is
        // a plain union.
        for (principal, total) in entries {
            spent.insert(principal, total);
        }
        report.records += 1;
        at = next;
    }
    while at < bytes.len() {
        let offset = at;
        let (frame, next) = parse_frame(bytes, at);
        match frame {
            Frame::Complete(payload) => {
                match payload.first() {
                    Some(&KIND_CHARGE) => {
                        let (principal, charge) =
                            decode_charge::<B>(payload).ok_or_else(|| RecoveryError::Corrupt {
                                offset,
                                detail: "undecodable charge record".into(),
                            })?;
                        let entry = spent.entry(principal).or_insert_with(B::zero);
                        *entry = B::compose::<D>(entry, &charge);
                        report.charges += 1;
                    }
                    Some(&KIND_CHECKPOINT) => {
                        let entries =
                            decode_entries::<B>(payload, KIND_CHECKPOINT).ok_or_else(|| {
                                RecoveryError::Corrupt {
                                    offset,
                                    detail: "undecodable checkpoint record".into(),
                                }
                            })?;
                        // Authoritative: replay state resets to the snapshot.
                        spent = entries.into_iter().collect();
                    }
                    Some(&KIND_SNAPSHOT) => {
                        // SNAPSHOT records exist only inside the
                        // header-declared prefix of an atomically-replaced
                        // log; the writer never *appends* one. Skipping it
                        // could under-report, charging it could double —
                        // refuse.
                        return Err(RecoveryError::Corrupt {
                            offset,
                            detail: "snapshot record outside the compacted prefix".into(),
                        });
                    }
                    kind => {
                        return Err(RecoveryError::Corrupt {
                            offset,
                            detail: format!("unknown record kind {kind:?}"),
                        });
                    }
                }
                report.records += 1;
                at = next;
            }
            Frame::Oversized => {
                // The writer refuses charges and skips checkpoints past
                // MAX_PAYLOAD, so a complete frame claiming more is not
                // this writer's crash artefact — refuse rather than
                // silently skipping to EOF and dropping what follows.
                return Err(RecoveryError::Corrupt {
                    offset,
                    detail: "record length exceeds the maximum payload size".into(),
                });
            }
            Frame::BadCrc => {
                // All four checksum bytes are present and wrong, at the
                // tail or not. A write torn by a crash persists a prefix
                // of the frame, never a complete frame with a mismatched
                // checksum — this is bit rot, and a rotted payload cannot
                // be trusted to name the right principal or amount.
                return Err(RecoveryError::Corrupt {
                    offset,
                    detail: "checksum mismatch".into(),
                });
            }
            Frame::Truncated => {
                // The log ends mid-frame: a torn tail by construction.
                match classify_tail::<B>(&bytes[offset..]) {
                    TailFragment::Charged(principal, charge) => {
                        report.torn_tail = true;
                        let entry = spent.entry(principal).or_insert_with(B::zero);
                        *entry = B::compose::<D>(entry, &charge);
                        report.torn_tail_charged = true;
                        report.charges += 1;
                        torn_charge = Some((principal, charge));
                    }
                    TailFragment::Dropped => report.torn_tail = true,
                    TailFragment::Rotted(detail) => {
                        return Err(RecoveryError::Corrupt {
                            offset,
                            detail: detail.into(),
                        });
                    }
                }
                break;
            }
        }
    }
    // The loop leaves `at` at the end of the last intact frame: the
    // clean-log exit has consumed every byte, the torn-tail break left
    // `at` at the fragment's first byte.
    report.valid_len = at;
    Ok(Recovery {
        spent: spent.into_iter().collect(),
        torn_charge,
        report,
    })
}

// ---------------------------------------------------------------------------
// DurableRegistry
// ---------------------------------------------------------------------------

struct JournalInner<S> {
    storage: S,
    /// Charges appended since the last checkpoint record.
    since_checkpoint: u64,
}

/// The failure latch, shared lock-free between the group-commit path,
/// checkpoints and compaction: set on the first append/sync/replace
/// failure, after which every charge is refused without touching storage
/// (see "Failure latching" in the module docs). Cleared only by a
/// restart. Lives outside the storage mutex so group-commit enqueuers can
/// check it without queueing behind the leader's fsync.
struct Latch {
    tripped: AtomicBool,
    err: Mutex<Option<JournalError>>,
}

impl Latch {
    fn new() -> Self {
        Latch {
            tripped: AtomicBool::new(false),
            err: Mutex::new(None),
        }
    }

    /// The original failure, if latched.
    fn get(&self) -> Option<JournalError> {
        if !self.tripped.load(Ordering::Acquire) {
            return None;
        }
        self.err.lock().expect("latch poisoned").clone()
    }

    /// Latches on `err`; the first failure wins.
    fn set(&self, err: JournalError) {
        let mut slot = self.err.lock().expect("latch poisoned");
        if slot.is_none() {
            *slot = Some(err);
        }
        self.tripped.store(true, Ordering::Release);
    }

    /// The refusal every charge gets while the journal is latched.
    fn latched_error(err: &JournalError) -> JournalError {
        JournalError::new(
            "latched",
            format!("journal disabled by earlier failure ({err}); reopen to recover"),
        )
    }
}

/// Group-commit state: the queue of framed records awaiting a leader,
/// the reservation set, and the LSN watermarks. Lock order is **group
/// lock before journal (storage) lock**, never the reverse.
struct GroupState<B> {
    /// Framed records enqueued but not yet taken by a leader.
    queue: Vec<Vec<u8>>,
    /// `(lsn, principal, charge)` for every enqueued record not yet
    /// applied to the ledger. The admission check counts these as spent
    /// (a *reservation*): without it two concurrent chargers could both
    /// pass against committed spend and jointly overshoot the allowance.
    /// Applied (and removed) by the leader only after the batch's fsync
    /// returns; dropped unapplied when a batch fails — so the ledger
    /// never moves for a refused charge.
    reserved: VecDeque<(u64, u64, B)>,
    /// LSN of the most recently enqueued record.
    enqueued: u64,
    /// Highest LSN taken by a leader (appended or failed).
    taken: u64,
    /// Stable LSN: every record at or below it is fsynced **and**
    /// applied. A charger is acknowledged exactly when `durable` reaches
    /// its LSN.
    durable: u64,
    /// Whether a leader currently owns the storage for a batch.
    leader_active: bool,
    /// Compaction gate: while set, new chargers wait before enqueueing
    /// so the queue can drain and the snapshot be exact.
    paused: bool,
}

impl<B> GroupState<B> {
    fn new() -> Self {
        GroupState {
            queue: Vec::new(),
            reserved: VecDeque::new(),
            enqueued: 0,
            taken: 0,
            durable: 0,
            leader_active: false,
            paused: false,
        }
    }
}

/// When a [`DurableRegistry`] should compact its journal (rewrite it as
/// header + snapshot via [`JournalStorage::replace_with`]).
///
/// The default policy is disabled — compaction runs only through
/// [`compact_now`](DurableRegistry::compact_now). Thresholds are checked
/// after each acknowledged charge; the first one crossed wakes a
/// background compactor thread, so the acknowledging charger never pays
/// for the rewrite itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact once the log exceeds this many bytes.
    pub max_bytes: Option<u64>,
    /// Compact once the log holds this many charge records since the
    /// last compaction, as counted by
    /// [`journal_records`](DurableRegistry::journal_records) — a restart
    /// keeps counting the charges already in the log.
    pub max_records: Option<u64>,
}

impl CompactionPolicy {
    /// Never compact automatically (the default).
    pub fn disabled() -> Self {
        CompactionPolicy::default()
    }

    /// Compact once the log exceeds `n` bytes.
    pub fn max_bytes(n: u64) -> Self {
        CompactionPolicy {
            max_bytes: Some(n),
            max_records: None,
        }
    }

    /// Compact once the log holds `n` charge records since the last
    /// compaction.
    pub fn max_records(n: u64) -> Self {
        CompactionPolicy {
            max_bytes: None,
            max_records: Some(n),
        }
    }

    fn enabled(&self) -> bool {
        self.max_bytes.is_some() || self.max_records.is_some()
    }

    fn due(&self, bytes: u64, records: u64) -> bool {
        self.max_bytes.is_some_and(|m| bytes >= m) || self.max_records.is_some_and(|m| records >= m)
    }
}

/// Tunables for a [`DurableRegistry`], applied at
/// [`open_with_options`](DurableRegistry::open_with_options) or through
/// the session builder's `.durable_with_options(storage, options)`.
///
/// The default is the recommended serving configuration, and the one
/// [`create_with_budget`](DurableRegistry::create_with_budget) and the
/// session builder's `.durable(path)` use: the standard checkpoint
/// cadence, compaction off (opt in with a [`CompactionPolicy`]). Every
/// charge is group-committed whatever the options (see "Group commit" in
/// the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOptions {
    /// Charges between periodic checkpoint records.
    pub checkpoint_every: u64,
    /// When to compact the journal automatically.
    pub compaction: CompactionPolicy,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            compaction: CompactionPolicy::disabled(),
        }
    }
}

impl DurableOptions {
    /// Sets the periodic checkpoint cadence.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Sets the automatic compaction policy.
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = policy;
        self
    }
}

/// The state a [`DurableRegistry`] shares with its background compactor
/// thread, which holds an `Arc` of it so policy-triggered compaction can
/// run off the charge path, plus the commit and compaction machinery
/// over that state.
///
/// All storage work serializes on one journal lock (fsync is the
/// bottleneck regardless); reads (`spent_exact`, …) go straight to the
/// sharded registry.
struct DurableCore<D: AbstractDp, B: Budget, S: JournalStorage> {
    registry: BudgetRegistry<D, B>,
    journal: Mutex<JournalInner<S>>,
    /// Group-commit queue + watermarks.
    group: Mutex<GroupState<B>>,
    group_cv: Condvar,
    latch: Latch,
    checkpoint_every: u64,
    compaction: CompactionPolicy,
    /// Best-effort log size / charge-record counters feeding the
    /// compaction policy (reset by compaction, seeded from the log at
    /// recovery).
    log_bytes: AtomicU64,
    log_records: AtomicU64,
}

/// Default charge count between checkpoint snapshots.
const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// How many times a group-commit leader yields its scheduler slice to let
/// peers enqueue behind it before it takes the batch.
const GATHER_YIELDS: u32 = 4;

impl<D: AbstractDp, B: Budget, S: JournalStorage> DurableCore<D, B, S> {
    /// The group-commit path: check against committed **plus reserved**
    /// spend, enqueue, and wait for the stable LSN to cover the record —
    /// leading a batch (append all + one fsync, then apply) when no
    /// leader is active. See "Group commit" in the module docs.
    fn charge_grouped(
        &self,
        principal: u64,
        gamma: B,
        record: Vec<u8>,
    ) -> Result<(), DurableChargeError<B>> {
        let mut g = self.group.lock().expect("group state poisoned");
        // Compaction drains the queue before snapshotting; wait it out.
        while g.paused {
            g = self.group_cv.wait(g).expect("group state poisoned");
        }
        if let Some(err) = self.latch.get() {
            return Err(DurableChargeError::Journal(Latch::latched_error(&err)));
        }
        // Admission: committed spend ⊕ this principal's reservations ⊕
        // gamma must fit the allowance. Consistent because both
        // reservations and applies happen under this group lock.
        let mut reserved_sum = B::zero();
        for (_, p, pending) in g.reserved.iter() {
            if *p == principal {
                reserved_sum = B::compose::<D>(&reserved_sum, pending);
            }
        }
        self.registry
            .check_exact_reserved(principal, &reserved_sum, &gamma)
            .map_err(DurableChargeError::Budget)?;
        g.enqueued += 1;
        let my_lsn = g.enqueued;
        g.queue.push(record);
        g.reserved.push_back((my_lsn, principal, gamma));
        loop {
            // Ack only at stable LSN: the record is fsynced and applied.
            if g.durable >= my_lsn {
                return Ok(());
            }
            if let Some(err) = self.latch.get() {
                // Enqueued before the latch tripped, never became
                // durable: this charge was in (or behind) the failing
                // batch. Its reservation is already dropped and the
                // ledger never moved — refuse with the original failure,
                // like every other charge in the failing batch.
                return Err(DurableChargeError::Journal(err));
            }
            if !g.leader_active && g.taken < g.enqueued {
                g = self.lead_batch(g);
            } else {
                g = self.group_cv.wait(g).expect("group state poisoned");
            }
        }
    }

    /// Takes the queue as one batch, appends every frame under the
    /// journal lock, pays a single fsync, then (back under the group
    /// lock) applies the batch and advances the stable LSN — or, on
    /// failure, latches and drops every outstanding reservation
    /// unapplied.
    fn lead_batch<'a>(
        &'a self,
        mut g: MutexGuard<'a, GroupState<B>>,
    ) -> MutexGuard<'a, GroupState<B>> {
        g.leader_active = true;
        // Gather window: leadership is claimed but the batch is not yet
        // taken, so peers get a window to enqueue behind it — in
        // particular the members of the *previous* batch, which were
        // woken a moment ago and are about to charge again. Without
        // this, the leader races ahead of its just-woken peers and the
        // steady state degenerates into two half batches per cycle
        // (each paying a full fsync). The leader yields its scheduler
        // slice, closing as soon as a yield passes with no new arrivals,
        // capped so a steady stream of enqueuers cannot hold the batch
        // open; the few-µs cost is noise against the ~100µs fsync it
        // amortizes.
        for _ in 0..GATHER_YIELDS {
            let before = g.enqueued;
            drop(g);
            std::thread::yield_now();
            g = self.group.lock().expect("group state poisoned");
            if g.enqueued == before {
                break;
            }
        }
        let frames = std::mem::take(&mut g.queue);
        let hi = g.enqueued;
        g.taken = hi;
        drop(g);
        // Storage work without the group lock: enqueuers must be able to
        // keep queueing behind this fsync — that concurrency is the whole
        // win.
        let outcome = {
            let mut inner = self.journal.lock().expect("journal poisoned");
            let mut appended = Ok(());
            for frame_bytes in &frames {
                if let Err(e) = inner.storage.append(frame_bytes) {
                    appended = Err(e);
                    break;
                }
            }
            appended.and_then(|()| inner.storage.sync())
        };
        let mut g = self.group.lock().expect("group state poisoned");
        match outcome {
            Ok(()) => {
                let batch_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
                self.log_bytes.fetch_add(batch_bytes, Ordering::Relaxed);
                self.log_records
                    .fetch_add(frames.len() as u64, Ordering::Relaxed);
                // Apply the whole batch before anyone is acknowledged —
                // and before any checkpoint, whose snapshot must already
                // include these records (a checkpoint resets replay
                // state, so snapshotting *before* applying would lose
                // the batch on recovery).
                while g.reserved.front().is_some_and(|(lsn, _, _)| *lsn <= hi) {
                    let (_, principal, pending) =
                        g.reserved.pop_front().expect("front checked above");
                    self.registry.apply_unchecked(principal, &pending);
                }
                g.durable = hi;
                let mut inner = self.journal.lock().expect("journal poisoned");
                inner.since_checkpoint += frames.len() as u64;
                if inner.since_checkpoint >= self.checkpoint_every {
                    match self.write_checkpoint(&mut inner.storage) {
                        Ok(_) => inner.since_checkpoint = 0,
                        Err(e) => self.latch.set(e),
                    }
                }
            }
            Err(e) => {
                // A failed batch refuses every charge in it: latch, and
                // drop all outstanding reservations without applying —
                // the ledger never moved for any of them, so there is no
                // rollback arithmetic. Waiters see the latch and error
                // out; post-latch arrivals are refused at the gate.
                self.latch.set(e);
                g.queue.clear();
                g.reserved.clear();
            }
        }
        g.leader_active = false;
        self.group_cv.notify_all();
        g
    }

    /// The pause-and-drain step under checkpoints and compaction: gates
    /// new enqueues, waits until no batch is queued or in flight (so every
    /// appended record is applied and a snapshot covers exactly the
    /// records in the log), runs `work` under the journal lock, and
    /// reopens the gate. One pause at a time, so racing automatic
    /// triggers collapse into an explicit call.
    ///
    /// # Errors
    ///
    /// The latch, if the journal is latched (a latched journal never
    /// drains: refused records can sit in the queue with no leader
    /// coming); otherwise whatever `work` returns.
    fn drained(
        &self,
        work: impl FnOnce(&mut JournalInner<S>) -> Result<(), JournalError>,
    ) -> Result<(), JournalError> {
        let mut g = self.group.lock().expect("group state poisoned");
        while g.paused {
            g = self.group_cv.wait(g).expect("group state poisoned");
        }
        g.paused = true;
        // Chargers already enqueued keep leading batches (the gate only
        // stops *new* enqueues), so this terminates.
        while self.latch.get().is_none() && (g.leader_active || !g.queue.is_empty()) {
            g = self.group_cv.wait(g).expect("group state poisoned");
        }
        let result = if let Some(err) = self.latch.get() {
            Err(Latch::latched_error(&err))
        } else {
            work(&mut self.journal.lock().expect("journal poisoned"))
        };
        g.paused = false;
        self.group_cv.notify_all();
        result
    }

    fn checkpoint_locked(&self, inner: &mut JournalInner<S>) -> Result<(), JournalError> {
        match self.write_checkpoint(&mut inner.storage) {
            Ok(true) => {
                inner.since_checkpoint = 0;
                Ok(())
            }
            Ok(false) => Err(JournalError::new(
                "checkpoint",
                "snapshot exceeds the maximum record size; skipped \
                 (charges remain individually journaled)",
            )),
            Err(e) => {
                self.latch.set(e.clone());
                Err(e)
            }
        }
    }

    /// Appends a checkpoint if it fits the record size cap; `Ok(false)`
    /// means the snapshot was too large and nothing was written.
    fn write_checkpoint(&self, storage: &mut S) -> Result<bool, JournalError> {
        let snapshot = self.registry.snapshot();
        let payload = checkpoint_payload(&snapshot);
        if payload.len() > MAX_PAYLOAD as usize {
            return Ok(false);
        }
        let record = frame(&payload);
        storage.append(&record)?;
        storage.sync()?;
        self.log_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        Ok(true)
    }

    fn compact_locked(&self, inner: &mut JournalInner<S>) -> Result<(), JournalError> {
        let snapshot = self.registry.snapshot();
        // Refusal before any write (oversized single entry): no latch.
        let chunks = snapshot_chunks(&snapshot)?;
        let mut bytes = frame(&header_payload::<B>(chunks.len() as u32));
        for chunk in &chunks {
            bytes.extend_from_slice(&frame(chunk));
        }
        match inner.storage.replace_with(&bytes) {
            Ok(()) => {
                inner.since_checkpoint = 0;
                self.log_bytes.store(bytes.len() as u64, Ordering::Relaxed);
                self.log_records.store(0, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                // Mid-swap failure: old log? new log? valid handle? All
                // unknown — latch. Either complete survivor replays to
                // the same ledgers after a restart.
                self.latch.set(e.clone());
                Err(e)
            }
        }
    }

    /// Whether the compaction policy's thresholds are crossed.
    fn compaction_due(&self) -> bool {
        self.compaction.enabled()
            && self.compaction.due(
                self.log_bytes.load(Ordering::Relaxed),
                self.log_records.load(Ordering::Relaxed),
            )
    }
}

/// What the compactor thread is waiting on: a charge crossed the policy
/// threshold ([`requested`](CompactorFlags::requested)) or the owning
/// registry is going away (`shutdown`).
struct CompactorFlags {
    requested: bool,
    shutdown: bool,
}

/// The wrapper ↔ compactor-thread rendezvous.
struct CompactorSignal {
    flags: Mutex<CompactorFlags>,
    cv: Condvar,
}

/// Owns the background compaction thread of a [`DurableRegistry`] whose
/// [`CompactionPolicy`] is enabled. Dropping the handle shuts the thread
/// down and joins it (finishing any in-flight compaction first).
struct CompactorHandle {
    signal: Arc<CompactorSignal>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    /// Spawns the compactor loop over a shared core: park until kicked,
    /// then run one compaction. Errors latch (swap failures) or were
    /// already latched — auto mode has no caller to hand them to;
    /// `journal_error` reports latched states.
    fn spawn<D: AbstractDp, B: Budget, S: JournalStorage>(core: Arc<DurableCore<D, B, S>>) -> Self {
        let signal = Arc::new(CompactorSignal {
            flags: Mutex::new(CompactorFlags {
                requested: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let parked = Arc::clone(&signal);
        let thread = std::thread::Builder::new()
            .name("sampcert-compactor".into())
            .spawn(move || loop {
                let mut flags = parked.flags.lock().expect("compactor signal poisoned");
                while !flags.requested && !flags.shutdown {
                    flags = parked.cv.wait(flags).expect("compactor signal poisoned");
                }
                if flags.shutdown {
                    break;
                }
                flags.requested = false;
                drop(flags);
                let _ = core.drained(|inner| core.compact_locked(inner));
            })
            .expect("spawn compactor thread");
        CompactorHandle {
            signal,
            thread: Some(thread),
        }
    }

    /// Non-blocking wake-up; coalesces with any request already pending.
    fn request(&self) {
        let mut flags = self.signal.flags.lock().expect("compactor signal poisoned");
        flags.requested = true;
        drop(flags);
        self.signal.cv.notify_one();
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        {
            let mut flags = self.signal.flags.lock().expect("compactor signal poisoned");
            flags.shutdown = true;
        }
        self.signal.cv.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A [`BudgetRegistry`] whose every accepted charge is durably journaled
/// before it is applied.
///
/// See the module docs for the write-ahead ordering, group commit, record
/// format, torn-tail rule and checkpoint semantics. Reads
/// ([`spent_exact`](Self::spent_exact), …) go straight to the sharded
/// registry, never through the journal lock.
///
/// When an automatic [`CompactionPolicy`] is set, policy-triggered
/// compaction runs on a dedicated background thread: the acknowledging
/// charge only *kicks* the compactor (a mutex-protected flag flip) and
/// returns, so no charge ever pays for a log rewrite. Dropping the
/// registry joins the compactor.
pub struct DurableRegistry<D: AbstractDp, B: Budget, S: JournalStorage> {
    core: Arc<DurableCore<D, B, S>>,
    /// Present exactly when the compaction policy is enabled.
    compactor: Option<CompactorHandle>,
}

impl<D: AbstractDp, B: Budget, S: JournalStorage> std::fmt::Debug for DurableRegistry<D, B, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableRegistry")
            .field("registry", &self.core.registry)
            .field("checkpoint_every", &self.core.checkpoint_every)
            .field("compaction", &self.core.compaction)
            .finish()
    }
}

impl<D: AbstractDp, B: Budget, S: JournalStorage> DurableRegistry<D, B, S> {
    /// Creates a fresh durable registry over empty storage with the
    /// default [`DurableOptions`], writing and syncing the journal
    /// header.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] if the header cannot be durably
    /// written, or if the storage is not empty (use
    /// [`open_with_options`](Self::open_with_options) for existing
    /// journals).
    ///
    /// # Panics
    ///
    /// Panics if `per_principal` is not a valid budget quantity or
    /// `shards` is zero.
    pub fn create_with_budget(
        per_principal: B,
        shards: usize,
        mut storage: S,
    ) -> Result<Self, JournalError> {
        if !storage.is_empty()? {
            return Err(JournalError::new(
                "create",
                "storage not empty; recover it instead",
            ));
        }
        let log_bytes = Self::write_header(&mut storage)?;
        Ok(Self::assemble(
            BudgetRegistry::with_budget(per_principal, shards),
            storage,
            log_bytes,
            0,
            DurableOptions::default(),
        ))
    }

    /// Creates over empty storage, recovers otherwise — the restartable
    /// entry point behind [`Session`](crate::Session)'s `.durable(path)`
    /// — and returns the registry with how the replay went (the default
    /// report when the storage was empty).
    ///
    /// Recovered spend is applied **without** admission checks — a
    /// principal whose replayed (possibly conservatively over-reported)
    /// spend exceeds the allowance simply has nothing left.
    ///
    /// # Errors
    ///
    /// Returns a [`RecoveryError`] on I/O failure or if the journal
    /// cannot be replayed (see [`replay`]).
    ///
    /// # Panics
    ///
    /// Panics if `per_principal` is not a valid budget quantity, `shards`
    /// is zero, or `options.checkpoint_every` is zero.
    pub fn open_with_options(
        per_principal: B,
        shards: usize,
        mut storage: S,
        options: DurableOptions,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let registry = BudgetRegistry::with_budget(per_principal, shards);
        if storage.is_empty().map_err(RecoveryError::Io)? {
            let log_bytes = Self::write_header(&mut storage).map_err(RecoveryError::Io)?;
            let created = Self::assemble(registry, storage, log_bytes, 0, options);
            return Ok((created, RecoveryReport::default()));
        }
        let bytes = storage.read_all().map_err(RecoveryError::Io)?;
        let recovery = replay::<D, B>(&bytes)?;
        // Tail repair: a torn fragment must not survive into this
        // generation, or its first append would land after damage and
        // make the whole log unrecoverable at the *next* restart. The
        // fragment is truncated away; one the torn-tail rule replayed as
        // charged is re-journaled as a proper record first, so the
        // conservative charge stays durable. Spend is unchanged either
        // way — repair makes re-recovery agree with this one.
        if recovery.report.torn_tail {
            storage
                .truncate(recovery.report.valid_len as u64)
                .map_err(RecoveryError::Io)?;
            if let Some((principal, charge)) = &recovery.torn_charge {
                storage
                    .append(&frame(&charge_payload(*principal, charge)))
                    .and_then(|()| storage.sync())
                    .map_err(RecoveryError::Io)?;
            }
        }
        for (principal, spent) in &recovery.spent {
            registry.apply_unchecked(*principal, spent);
        }
        let log_bytes = storage.len().map_err(RecoveryError::Io)?;
        let log_records = recovery.report.charges as u64;
        Ok((
            Self::assemble(registry, storage, log_bytes, log_records, options),
            recovery.report,
        ))
    }

    /// Appends and syncs the header of a fresh journal; returns its
    /// length in bytes.
    fn write_header(storage: &mut S) -> Result<u64, JournalError> {
        let header = frame(&header_payload::<B>(0));
        storage.append(&header)?;
        storage.sync()?;
        Ok(header.len() as u64)
    }

    /// Wires a registry + storage into a shared core and spawns the
    /// compactor iff the policy asks for one.
    fn assemble(
        registry: BudgetRegistry<D, B>,
        storage: S,
        log_bytes: u64,
        log_records: u64,
        options: DurableOptions,
    ) -> Self {
        assert!(
            options.checkpoint_every > 0,
            "checkpoint cadence must be positive"
        );
        let core = Arc::new(DurableCore {
            registry,
            journal: Mutex::new(JournalInner {
                storage,
                since_checkpoint: 0,
            }),
            group: Mutex::new(GroupState::new()),
            group_cv: Condvar::new(),
            latch: Latch::new(),
            checkpoint_every: options.checkpoint_every,
            compaction: options.compaction,
            log_bytes: AtomicU64::new(log_bytes),
            log_records: AtomicU64::new(log_records),
        });
        let compactor = core
            .compaction
            .enabled()
            .then(|| CompactorHandle::spawn(Arc::clone(&core)));
        DurableRegistry { core, compactor }
    }

    /// Returns this registry with a different checkpoint cadence (a
    /// snapshot record every `every` charges; `u64::MAX` effectively
    /// disables them).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero, or if the registry runs a background
    /// compactor (opened with an enabled [`CompactionPolicy`]), which
    /// shares its state — pass the cadence in
    /// [`DurableOptions::checkpoint_every`] there.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        Arc::get_mut(&mut self.core)
            .expect("set the cadence through DurableOptions when compaction is enabled")
            .checkpoint_every = every;
        self
    }

    /// A read-only view of the underlying in-memory registry (reads are
    /// lock-free of the journal). The view exposes no mutation: every
    /// durable charge must go through [`charge`](Self::charge) and
    /// friends so that it hits the write-ahead journal — spend recorded
    /// behind the journal's back would vanish on recovery.
    pub fn registry(&self) -> RegistryView<'_, D, B> {
        RegistryView::new(&self.core.registry)
    }

    /// The failure that latched the journal closed, if any. While this is
    /// `Some`, every charge is refused without touching storage (see
    /// "Failure latching" in the module docs); recovery is a restart over
    /// the surviving bytes ([`open_with_options`](Self::open_with_options)).
    pub fn journal_error(&self) -> Option<JournalError> {
        self.core.latch.get()
    }

    /// Current journal size in bytes (best-effort counter: exact while
    /// running, reset by compaction, initialized from the storage length
    /// at recovery).
    pub fn journal_bytes(&self) -> u64 {
        self.core.log_bytes.load(Ordering::Relaxed)
    }

    /// Charge records in the log since the last compaction: counted as
    /// they are appended, and seeded at recovery with the charge records
    /// in the repaired log (header, checkpoint and snapshot records never
    /// count).
    pub fn journal_records(&self) -> u64 {
        self.core.log_records.load(Ordering::Relaxed)
    }

    /// Total spent by `principal`, in the carrier.
    pub fn spent_exact(&self, principal: u64) -> B {
        self.core.registry.spent_exact(principal)
    }

    /// Remaining allowance of `principal`, in the carrier.
    pub fn remaining_exact(&self, principal: u64) -> B {
        self.core.registry.remaining_exact(principal)
    }

    /// Durably records a release by `principal` costing `gamma`
    /// (converted **upward** into the carrier): check, append + fsync,
    /// then apply.
    ///
    /// # Errors
    ///
    /// [`DurableChargeError::Budget`] if the allowance refuses;
    /// [`DurableChargeError::Journal`] if the write-ahead record cannot
    /// be durably written — the charge is then **not** applied and no
    /// answer may be released (degrade-to-reject).
    pub fn charge(&self, principal: u64, gamma: f64) -> Result<(), DurableChargeError<B>> {
        assert!(gamma.is_finite() && gamma >= 0.0, "invalid charge");
        self.charge_exact(principal, B::charge_from_f64(gamma))
    }

    /// Durably records a batch of `count` releases of `gamma_each` as a
    /// single composed journal record; all-or-nothing.
    ///
    /// # Errors
    ///
    /// As for [`charge`](Self::charge).
    pub fn charge_batch(
        &self,
        principal: u64,
        gamma_each: f64,
        count: u64,
    ) -> Result<(), DurableChargeError<B>> {
        assert!(
            gamma_each.is_finite() && gamma_each >= 0.0,
            "invalid charge"
        );
        let total = B::compose_n::<D>(&B::charge_from_f64(gamma_each), count);
        if !total.is_valid() {
            let remaining = self.core.registry.remaining_exact(principal);
            return Err(DurableChargeError::Budget(
                BudgetExceeded::new(total, remaining).for_principal(principal),
            ));
        }
        self.charge_exact(principal, total)
    }

    /// Durably records a charge already in the carrier.
    ///
    /// # Errors
    ///
    /// As for [`charge`](Self::charge).
    pub fn charge_exact(&self, principal: u64, gamma: B) -> Result<(), DurableChargeError<B>> {
        assert!(gamma.is_valid(), "invalid charge");
        let payload = charge_payload(principal, &gamma);
        if payload.len() > MAX_PAYLOAD as usize {
            // Nothing was written, so no latch — but the record cannot be
            // framed within the cap replay enforces.
            return Err(DurableChargeError::Journal(JournalError::new(
                "append",
                "charge record exceeds the maximum payload size",
            )));
        }
        let result = self.core.charge_grouped(principal, gamma, frame(&payload));
        if result.is_ok() {
            self.kick_compactor();
        }
        result
    }

    /// Appends a checkpoint snapshot immediately, once in-flight batches
    /// have drained (queued-but-unappended charges follow it and compose
    /// on top — still sound).
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] if the journal is latched, if the
    /// snapshot is too large to fit one record (nothing is written; the
    /// charges it would summarize are already individually journaled), or
    /// if the write fails — the last case latches the journal, since the
    /// failed append may have torn the log.
    pub fn checkpoint_now(&self) -> Result<(), JournalError> {
        self.core
            .drained(|inner| self.core.checkpoint_locked(inner))
    }

    /// Compacts the journal now, on the calling thread: rewrites it as a
    /// fresh header plus a chunked snapshot of every principal's spend,
    /// through the crash-safe [`JournalStorage::replace_with`] swap.
    /// Bounds the log at (snapshot size + subsequently appended tail)
    /// while preserving exactly the ledgers a replay of the full history
    /// would produce.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalError`] if the journal is latched, if a single
    /// snapshot entry cannot fit a record (nothing written, no latch), or
    /// if the swap fails — which **latches** the journal: mid-swap, the
    /// handle can no longer tell which complete log survives (both
    /// recover soundly at restart).
    pub fn compact_now(&self) -> Result<(), JournalError> {
        self.core.drained(|inner| self.core.compact_locked(inner))
    }

    /// After an acknowledged charge: wake the background compactor if the
    /// policy's thresholds are crossed. Never blocks on journal work —
    /// that is the point of the background thread.
    fn kick_compactor(&self) {
        if let Some(handle) = &self.compactor {
            if self.core.compaction_due() {
                handle.request();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_dp::PureDp;
    use sampcert_arith::Dyadic;
    use std::time::{Duration, Instant};

    type Exact = DurableRegistry<PureDp, Dyadic, MemStorage>;
    type Float = DurableRegistry<PureDp, f64, MemStorage>;

    /// A fresh registry with the default options over empty `storage`.
    fn create(per_principal: f64, shards: usize, storage: MemStorage) -> Exact {
        Exact::create_with_budget(Dyadic::budget_from_f64(per_principal), shards, storage).unwrap()
    }

    /// Creates over empty `storage`, recovers otherwise — a restart with
    /// the default options.
    fn reopen(
        per_principal: f64,
        shards: usize,
        storage: MemStorage,
    ) -> Result<(Exact, RecoveryReport), RecoveryError> {
        Exact::open_with_options(
            Dyadic::budget_from_f64(per_principal),
            shards,
            storage,
            DurableOptions::default(),
        )
    }

    /// A fresh registry over empty `storage` with explicit options.
    fn create_with(
        per_principal: f64,
        shards: usize,
        storage: MemStorage,
        options: DurableOptions,
    ) -> Exact {
        let budget = Dyadic::budget_from_f64(per_principal);
        Exact::open_with_options(budget, shards, storage, options)
            .unwrap()
            .0
    }

    #[test]
    fn create_charge_recover_is_exact() {
        let storage = MemStorage::new();
        let reg = create(1.0, 4, storage.clone());
        reg.charge(1, 0.25).unwrap();
        reg.charge(2, 0.5).unwrap();
        reg.charge(1, 0.125).unwrap();
        drop(reg);
        let (back, report) = reopen(1.0, 4, storage.reopen()).unwrap();
        assert_eq!(back.spent_exact(1), Dyadic::from_f64_ceil(0.375));
        assert_eq!(back.spent_exact(2), Dyadic::from_f64_ceil(0.5));
        assert_eq!(report.records, 4, "header + 3 charges");
        assert_eq!(report.charges, 3);
        assert!(!report.torn_tail);
    }

    #[test]
    fn recovery_is_idempotent() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage.clone());
        for p in 0..10 {
            reg.charge(p, 0.0625).unwrap();
        }
        let bytes = storage.contents();
        let once = replay::<PureDp, Dyadic>(&bytes).unwrap();
        let twice = replay::<PureDp, Dyadic>(&bytes).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn fsync_failure_rejects_without_applying() {
        let storage = MemStorage::new();
        // Header sync (1) succeeds; the first charge's sync fails.
        let faulty = storage.clone().with_plan(FaultPlan::fail_sync_after(1));
        let reg = create(1.0, 2, faulty);
        let err = reg.charge(7, 0.25).unwrap_err();
        assert!(matches!(err, DurableChargeError::Journal(_)));
        // Degrade-to-reject: the in-memory ledger did not move.
        assert_eq!(reg.spent_exact(7), Dyadic::zero());
        // And whatever bytes were buffered, recovery only over-reports:
        let (back, _) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert!(back.spent_exact(7) >= Dyadic::zero());
    }

    #[test]
    fn torn_tail_with_decodable_charge_replays_as_charged() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage.clone());
        reg.charge(1, 0.25).unwrap();
        reg.charge(2, 0.5).unwrap();
        drop(reg);
        // Chop the last record's checksum off: payload intact, crc gone.
        let bytes = storage.contents();
        storage.truncate(bytes.len() - 4);
        let (back, report) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert!(report.torn_tail);
        assert!(report.torn_tail_charged);
        assert_eq!(back.spent_exact(2), Dyadic::from_f64_ceil(0.5));
        // Both charges count, the torn one re-journaled by repair.
        assert_eq!(back.journal_records(), 2);
        // Tail repair re-journaled the fragment as a proper record: a
        // second recovery sees a clean log with the same spend.
        drop(back);
        let (again, report) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert!(!report.torn_tail, "repair left a torn tail");
        assert_eq!(again.journal_records(), 2);
        assert_eq!(again.spent_exact(1), Dyadic::from_f64_ceil(0.25));
        assert_eq!(again.spent_exact(2), Dyadic::from_f64_ceil(0.5));
    }

    #[test]
    fn torn_tail_fragment_is_dropped_soundly() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage.clone());
        reg.charge(1, 0.25).unwrap();
        let full = storage.contents().len();
        reg.charge(2, 0.5).unwrap();
        drop(reg);
        // Keep only 3 bytes of the second charge record: undecodable.
        storage.truncate(full + 3);
        let (back, report) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert!(report.torn_tail);
        assert!(!report.torn_tail_charged);
        assert_eq!(back.spent_exact(1), Dyadic::from_f64_ceil(0.25));
        assert_eq!(back.spent_exact(2), Dyadic::zero());
        // Tail repair truncated the fragment, so the recovered registry's
        // own appends do not land after damage: charge, crash, recover.
        back.charge(2, 0.125).unwrap();
        drop(back);
        let (again, report) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(again.spent_exact(1), Dyadic::from_f64_ceil(0.25));
        assert_eq!(again.spent_exact(2), Dyadic::from_f64_ceil(0.125));
    }

    #[test]
    fn tail_checksum_mismatch_is_bit_rot_and_refused() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage.clone());
        reg.charge(1, 0.25).unwrap();
        reg.charge(2, 0.5).unwrap();
        drop(reg);
        // Flip a payload byte of the LAST record: all four checksum bytes
        // are present and now wrong. A torn write cannot produce that —
        // refusing beats charging whatever the rotted bytes decode to.
        let len = storage.contents().len();
        storage.corrupt_byte(len - 6);
        let err = reopen(1.0, 2, storage.reopen()).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn torn_tail_with_inconsistent_crc_prefix_is_refused() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage.clone());
        reg.charge(1, 0.25).unwrap();
        reg.charge(2, 0.5).unwrap();
        drop(reg);
        // Keep two checksum bytes of the last record but flip one: a tear
        // persists a prefix of the true frame, so the fragment is
        // provably rot — refused, like a full checksum mismatch, rather
        // than charged off untrusted bytes.
        let bytes = storage.contents();
        storage.truncate(bytes.len() - 2);
        storage.corrupt_byte(bytes.len() - 3);
        let err = reopen(1.0, 2, storage.reopen()).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn append_failure_latches_the_journal() {
        let storage = MemStorage::new();
        // Appends: 0 = header, 1 = first charge, torn after 3 bytes.
        let faulty = storage.clone().with_plan(FaultPlan::torn_append(1, 3));
        let reg = create(1.0, 2, faulty);
        let err = reg.charge(1, 0.25).unwrap_err();
        assert!(matches!(err, DurableChargeError::Journal(_)));
        // The tear latches the journal: the next charge is refused
        // without touching storage, even though storage would accept it.
        let before = storage.contents().len();
        match reg.charge(2, 0.25).unwrap_err() {
            DurableChargeError::Journal(e) => {
                assert_eq!(e.op, "latched");
                assert!(e.detail.contains("torn write"), "{e}");
            }
            other => panic!("expected a latched journal error, got {other:?}"),
        }
        assert_eq!(
            storage.contents().len(),
            before,
            "a latched journal wrote bytes"
        );
        assert_eq!(reg.spent_exact(1), Dyadic::zero());
        assert_eq!(reg.spent_exact(2), Dyadic::zero());
        assert_eq!(reg.journal_error().map(|e| e.op), Some("append"));
        assert!(reg.checkpoint_now().is_err(), "latched checkpoint allowed");
        drop(reg);
        // Nothing was written past the fragment, so the log is exactly
        // header + a 3-byte tail fragment: recoverable, fragment dropped.
        let (back, report) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert!(report.torn_tail);
        assert!(!report.torn_tail_charged);
        assert!(back.journal_error().is_none(), "restart clears the latch");
        back.charge(1, 0.25).unwrap();
        drop(back);
        let (again, report) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(again.spent_exact(1), Dyadic::from_f64_ceil(0.25));
    }

    #[test]
    fn complete_oversized_frame_is_refused_truncated_one_is_a_tail() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage.clone());
        reg.charge(1, 0.25).unwrap();
        drop(reg);
        // A complete frame claiming more than MAX_PAYLOAD: the writer
        // never emits one, so replay must refuse rather than silently
        // treating it (and everything after it) as a torn tail.
        let big = vec![KIND_CHARGE; (MAX_PAYLOAD + 1) as usize];
        let mut raw = storage.reopen();
        raw.append(&frame(&big)).unwrap();
        let err = replay::<PureDp, Dyadic>(&storage.contents()).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
        // The same frame cut short runs off the end of the log — that is
        // indistinguishable from a torn length field, so the tail rule
        // applies and the intact prefix still replays.
        let full = storage.contents().len();
        storage.truncate(full - 1000);
        let recovery = replay::<PureDp, Dyadic>(&storage.contents()).unwrap();
        assert!(recovery.report.torn_tail);
        assert!(!recovery.report.torn_tail_charged);
        assert_eq!(
            recovery.spent,
            vec![(1, Dyadic::from_f64_ceil(0.25))],
            "intact prefix lost"
        );
    }

    #[test]
    fn oversized_checkpoint_is_skipped_never_written() {
        // ~53k f64 entries push the checkpoint payload past MAX_PAYLOAD
        // (1 + 4 + n * 20 bytes). The snapshot must be skipped, not
        // written: an oversized frame would refuse recovery outright.
        let storage = MemStorage::new();
        let reg = Float::create_with_budget(1.0, 8, storage.clone())
            .unwrap()
            .with_checkpoint_every(u64::MAX);
        let n = (MAX_PAYLOAD as u64 / 20) + 2;
        for p in 0..n {
            reg.charge(p, 0.5).unwrap();
        }
        let err = reg.checkpoint_now().unwrap_err();
        assert_eq!(err.op, "checkpoint");
        // Skipping is not a storage failure: the journal is not latched
        // and keeps accepting charges.
        assert!(reg.journal_error().is_none());
        reg.charge(0, 0.25).unwrap();
        drop(reg);
        let (back, report) =
            Float::open_with_options(1.0, 8, storage.reopen(), DurableOptions::default()).unwrap();
        assert!(!report.torn_tail, "skipped checkpoint damaged the log");
        assert_eq!(report.records as u64, 1 + n + 1);
        assert_eq!(back.spent_exact(0), 0.75);
        assert_eq!(back.spent_exact(n - 1), 0.5);
    }

    #[test]
    fn mid_log_corruption_is_refused() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage.clone());
        reg.charge(1, 0.25).unwrap();
        let first_end = storage.contents().len();
        reg.charge(2, 0.5).unwrap();
        drop(reg);
        // Flip a payload byte of the FIRST charge: its crc now fails while
        // a valid record follows — not a crash artefact.
        storage.corrupt_byte(first_end - 6);
        let err = reopen(1.0, 2, storage.reopen()).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn carrier_mismatch_is_refused() {
        let storage = MemStorage::new();
        let reg = Float::create_with_budget(1.0, 2, storage.clone()).unwrap();
        reg.charge(1, 0.25).unwrap();
        drop(reg);
        let err = reopen(1.0, 2, storage.reopen()).unwrap_err();
        assert_eq!(
            err,
            RecoveryError::CarrierMismatch {
                expected: "dyadic",
                found: "f64".into()
            }
        );
    }

    #[test]
    fn checkpoints_are_authoritative_and_replay_equal() {
        let storage = MemStorage::new();
        let reg = create(10.0, 4, storage.clone()).with_checkpoint_every(3);
        for i in 0..10u64 {
            reg.charge(i % 4, 0.25).unwrap();
        }
        let live: Vec<_> = (0..4u64).map(|p| reg.spent_exact(p)).collect();
        drop(reg);
        let (back, report) = reopen(10.0, 4, storage.reopen()).unwrap();
        for p in 0..4u64 {
            assert_eq!(back.spent_exact(p), live[p as usize], "principal {p}");
        }
        // 1 header + 10 charges + 3 checkpoints (after charges 3, 6, 9).
        assert_eq!(report.records, 14);
    }

    #[test]
    fn open_creates_then_recovers() {
        let storage = MemStorage::new();
        let (reg, report) = reopen(1.0, 2, storage.clone()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        reg.charge(5, 0.5).unwrap();
        drop(reg);
        let (back, report) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(back.spent_exact(5), Dyadic::from_f64_ceil(0.5));
        // A third generation keeps appending to the same log.
        back.charge(5, 0.25).unwrap();
        drop(back);
        let (last, _) = reopen(1.0, 2, storage.reopen()).unwrap();
        assert_eq!(last.spent_exact(5), Dyadic::from_f64_ceil(0.75));
    }

    #[test]
    fn journal_records_counts_only_charge_records_across_restarts() {
        // A compacted log holds a header and a snapshot prefix but no
        // charge record: a restart must read 0, not the frame count.
        let storage = MemStorage::new();
        let reg = create(10.0, 4, storage.clone());
        for p in 0..3u64 {
            reg.charge(p, 0.5).unwrap();
        }
        reg.compact_now().unwrap();
        assert_eq!(reg.journal_records(), 0);
        drop(reg);
        let (back, _) = reopen(10.0, 4, storage.reopen()).unwrap();
        assert_eq!(back.journal_records(), 0, "compacted log reopened");
        // k charges then a checkpoint: k charge records, running and
        // after a restart alike.
        let k = 5;
        for i in 0..k {
            back.charge(i % 3, 0.125).unwrap();
        }
        back.checkpoint_now().unwrap();
        assert_eq!(back.journal_records(), k);
        drop(back);
        let (again, report) = reopen(10.0, 4, storage.reopen()).unwrap();
        assert_eq!(report.charges as u64, k);
        assert_eq!(again.journal_records(), k, "checkpointed log reopened");
    }

    #[test]
    fn create_refuses_nonempty_storage() {
        let storage = MemStorage::new();
        let _ = create(1.0, 2, storage.clone());
        let err = Exact::create_with_budget(Dyadic::budget_from_f64(1.0), 2, storage.reopen())
            .unwrap_err();
        assert_eq!(err.op, "create");
    }

    #[test]
    fn refusals_and_journal_failures_render_distinctly() {
        let storage = MemStorage::new();
        let reg = create(1.0, 2, storage);
        reg.charge(3, 1.0).unwrap();
        let err = reg.charge(3, 0.5).unwrap_err();
        assert!(err.to_string().contains("principal: 3"), "{err}");
        let io = DurableChargeError::<Dyadic>::Journal(JournalError::new("sync", "disk gone"));
        assert_eq!(
            io.to_string(),
            "charge rejected: journal sync failed: disk gone"
        );
        use std::error::Error;
        assert!(io.source().is_some());
    }

    #[test]
    fn empty_and_headerless_logs_are_bad_headers() {
        assert!(matches!(
            replay::<PureDp, Dyadic>(&[]),
            Err(RecoveryError::BadHeader(_))
        ));
        assert!(matches!(
            replay::<PureDp, Dyadic>(b"not a journal at all"),
            Err(RecoveryError::BadHeader(_))
        ));
    }

    // -----------------------------------------------------------------
    // Group commit
    // -----------------------------------------------------------------

    #[test]
    fn one_charger_writes_the_wire_byte_stream() {
        // With one charger every batch holds one record, so the log is
        // the wire encoders' output in charge order: the header, one
        // CHARGE frame per charge, and a CHECKPOINT after every third
        // charge carrying the snapshot a plain in-memory registry
        // replaying the same charges reaches. Pins the layout byte for
        // byte.
        let storage = MemStorage::new();
        let reg = create(10.0, 4, storage.clone()).with_checkpoint_every(3);
        let plain: BudgetRegistry<PureDp, Dyadic> =
            BudgetRegistry::with_budget(Dyadic::budget_from_f64(10.0), 4);
        let gamma = Dyadic::charge_from_f64(0.25);
        let mut expected = frame(&header_payload::<Dyadic>(0));
        for i in 0..10u64 {
            reg.charge(i % 4, 0.25).unwrap();
            plain.charge_exact(i % 4, gamma.clone()).unwrap();
            expected.extend_from_slice(&frame(&charge_payload(i % 4, &gamma)));
            if (i + 1) % 3 == 0 {
                expected.extend_from_slice(&frame(&checkpoint_payload(&plain.snapshot())));
            }
        }
        assert_eq!(storage.contents(), expected);
    }

    #[test]
    fn concurrent_group_charges_recover_exactly() {
        let storage = MemStorage::new();
        let reg = create(8.0, 4, storage.clone());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..25 {
                        reg.charge(t, 0.25).unwrap();
                    }
                });
            }
        });
        let expected = Dyadic::from_f64_ceil(6.25);
        for t in 0..8u64 {
            assert_eq!(reg.spent_exact(t), expected, "principal {t}");
        }
        drop(reg);
        let (back, _) = reopen(8.0, 4, storage.reopen()).unwrap();
        for t in 0..8u64 {
            assert_eq!(back.spent_exact(t), expected, "recovered principal {t}");
        }
    }

    #[test]
    fn group_commit_reservations_never_jointly_overshoot() {
        // 8 threads hammer ONE principal whose budget admits only 4 of
        // their 80 quarter-charges. Reservation-counting admission must
        // keep the final spend at exactly the budget, never past it —
        // and recovery must agree.
        let storage = MemStorage::new();
        let reg = create(1.0, 4, storage.clone());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..10 {
                        let _ = reg.charge(3, 0.25);
                    }
                });
            }
        });
        assert_eq!(reg.spent_exact(3), Dyadic::from(1u64));
        let (back, _) = reopen(1.0, 4, storage.reopen()).unwrap();
        assert_eq!(back.spent_exact(3), Dyadic::from(1u64));
    }

    #[test]
    fn failed_batch_fsync_refuses_every_enqueued_charge_and_latches() {
        let storage = MemStorage::new();
        // Header sync succeeds; every later sync fails, so the first
        // batch — whatever subset of the 8 charges it gathered — fails,
        // and everything behind it is refused off the latch.
        let faulty = storage.clone().with_plan(FaultPlan::fail_sync_after(1));
        let reg = create(4.0, 4, faulty);
        let refusals = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let reg = &reg;
                    s.spawn(move || reg.charge(t, 0.25).is_err())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("charger panicked"))
                .filter(|refused| *refused)
                .count()
        });
        assert_eq!(refusals, 8, "every charge in or behind the failed batch");
        for t in 0..8u64 {
            assert_eq!(reg.spent_exact(t), Dyadic::zero(), "ledger moved for {t}");
        }
        assert_eq!(reg.journal_error().map(|e| e.op), Some("sync"));
        // Later charges are refused at the gate without touching storage.
        let before = storage.contents().len();
        assert!(matches!(
            reg.charge(9, 0.25).unwrap_err(),
            DurableChargeError::Journal(e) if e.op == "latched"
        ));
        assert_eq!(storage.contents().len(), before);
        // A latched journal still answers checkpoint/compact with the
        // latch instead of deadlocking on a queue that will never drain.
        assert_eq!(reg.checkpoint_now().unwrap_err().op, "latched");
        assert_eq!(reg.compact_now().unwrap_err().op, "latched");
        drop(reg);
        // Restart: the appended-but-unsynced bytes may replay — pure
        // over-report, which is the allowed direction.
        let (back, _) = reopen(4.0, 4, storage.reopen()).unwrap();
        assert!(back.journal_error().is_none());
    }

    // -----------------------------------------------------------------
    // replace_with (storage-level, independent of compaction)
    // -----------------------------------------------------------------

    #[test]
    fn file_storage_replace_with_swaps_atomically_and_appends_land_in_new_log() {
        let dir =
            std::env::temp_dir().join(format!("sampcert-replace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("swap.wal");
        let _ = std::fs::remove_file(&path);
        let mut storage = FileStorage::open(&path).unwrap();
        storage.append(b"old old old").unwrap();
        storage.sync().unwrap();
        storage.replace_with(b"new contents").unwrap();
        // The temp staging file must not survive a successful swap.
        assert!(!storage.tmp_path().exists(), "staging file left behind");
        assert_eq!(storage.read_all().unwrap(), b"new contents");
        // The handle was reopened onto the new inode: appends land in
        // the renamed file, not the unlinked orphan.
        storage.append(b" + tail").unwrap();
        storage.sync().unwrap();
        drop(storage);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"new contents + tail",
            "append went to the orphaned inode"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mem_storage_replace_faults_leave_exactly_one_complete_log() {
        for (outcome, expect) in [
            (ReplaceFault::KeepOld, b"old".as_slice()),
            (ReplaceFault::KeepNew, b"new".as_slice()),
        ] {
            let storage = MemStorage::new();
            let mut handle = storage
                .clone()
                .with_plan(FaultPlan::fail_replace(0, outcome));
            handle.append(b"old").unwrap();
            let err = handle.replace_with(b"new").unwrap_err();
            assert_eq!(err.op, "replace");
            assert_eq!(storage.contents(), expect, "{outcome:?}");
        }
    }

    // -----------------------------------------------------------------
    // Compaction
    // -----------------------------------------------------------------

    #[test]
    fn compaction_bounds_the_log_and_preserves_spend_exactly() {
        let storage = MemStorage::new();
        let reg = create(100.0, 4, storage.clone()).with_checkpoint_every(u64::MAX);
        for _ in 0..50 {
            for p in 0..5u64 {
                reg.charge(p, 0.125).unwrap();
            }
        }
        let live: Vec<_> = (0..5u64).map(|p| reg.spent_exact(p)).collect();
        let before = storage.contents().len();
        assert_eq!(reg.journal_bytes(), before as u64);
        reg.compact_now().unwrap();
        let after = storage.contents().len();
        assert!(
            after < before / 10,
            "compaction barely shrank the log: {before} -> {after}"
        );
        assert_eq!(reg.journal_bytes(), after as u64);
        assert_eq!(reg.journal_records(), 0);
        // The live registry is untouched and keeps accepting charges
        // that append after the compacted prefix.
        reg.charge(2, 0.25).unwrap();
        drop(reg);
        let (back, report) = reopen(100.0, 4, storage.reopen()).unwrap();
        for p in 0..5u64 {
            let expect = if p == 2 {
                &live[p as usize] + &Dyadic::from_f64_ceil(0.25)
            } else {
                live[p as usize].clone()
            };
            assert_eq!(back.spent_exact(p), expect, "principal {p}");
        }
        assert!(!report.torn_tail);
        // Idempotent: replaying the compacted log twice agrees.
        let once = replay::<PureDp, Dyadic>(&storage.contents()).unwrap();
        let twice = replay::<PureDp, Dyadic>(&storage.contents()).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn compaction_chunks_snapshots_past_the_record_cap() {
        // Enough f64 principals that one snapshot record cannot hold
        // them: the compacted log must carry several SNAPSHOT chunks and
        // still replay exactly.
        let storage = MemStorage::new();
        let reg = Float::create_with_budget(1.0, 8, storage.clone())
            .unwrap()
            .with_checkpoint_every(u64::MAX);
        let n = (MAX_PAYLOAD as u64 / 20) + 2;
        for p in 0..n {
            reg.charge(p, 0.5).unwrap();
        }
        reg.compact_now().unwrap();
        drop(reg);
        let recovery = replay::<PureDp, f64>(&storage.contents()).unwrap();
        // header + at least 2 snapshot chunks, nothing else.
        assert!(recovery.report.records >= 3, "{}", recovery.report.records);
        assert_eq!(recovery.spent.len(), n as usize);
        assert!(recovery.spent.iter().all(|(_, s)| *s == 0.5));
        let (back, _) =
            Float::open_with_options(1.0, 8, storage.reopen(), DurableOptions::default()).unwrap();
        assert_eq!(back.spent_exact(0), 0.5);
        assert_eq!(back.spent_exact(n - 1), 0.5);
    }

    #[test]
    fn snapshot_prefix_damage_is_refused_not_dropped() {
        let storage = MemStorage::new();
        let reg = create(10.0, 4, storage.clone());
        for p in 0..6u64 {
            reg.charge(p, 0.5).unwrap();
        }
        reg.compact_now().unwrap();
        drop(reg);
        let compacted = storage.contents();
        // Truncating into the snapshot record is NOT a droppable torn
        // tail — the snapshot stands in for vanished history.
        storage.truncate(compacted.len() - 4);
        let err = reopen(10.0, 4, storage.reopen()).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn snapshot_record_appended_outside_prefix_is_refused() {
        let storage = MemStorage::new();
        let reg = create(10.0, 4, storage.clone());
        reg.charge(1, 0.5).unwrap();
        drop(reg);
        // Forge an appended SNAPSHOT record on a non-compacted log: the
        // writer never does this, and replaying it would let a forged
        // snapshot rewrite history.
        let forged = entries_payload(KIND_SNAPSHOT, &[(1u64, Dyadic::from_f64_ceil(0.125))]);
        let mut raw = storage.reopen();
        raw.append(&frame(&forged)).unwrap();
        let err = replay::<PureDp, Dyadic>(&storage.contents()).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
        // And a torn fragment of one is refused too, not dropped.
        let full = storage.contents().len();
        storage.truncate(full - 6);
        let err = replay::<PureDp, Dyadic>(&storage.contents()).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn failed_swap_latches_and_both_survivors_recover() {
        for outcome in [ReplaceFault::KeepOld, ReplaceFault::KeepNew] {
            let storage = MemStorage::new();
            let faulty = storage
                .clone()
                .with_plan(FaultPlan::fail_replace(0, outcome));
            let reg = create(10.0, 4, faulty);
            for p in 0..4u64 {
                reg.charge(p, 0.5).unwrap();
            }
            let err = reg.compact_now().unwrap_err();
            assert_eq!(err.op, "replace");
            // Mid-swap failure latches: which log survives is unknown.
            assert_eq!(reg.journal_error().map(|e| e.op), Some("replace"));
            assert!(matches!(
                reg.charge(9, 0.25).unwrap_err(),
                DurableChargeError::Journal(e) if e.op == "latched"
            ));
            drop(reg);
            // Both possible survivors replay to the same ledgers.
            let (back, report) = reopen(10.0, 4, storage.reopen()).unwrap();
            assert!(!report.torn_tail, "{outcome:?}");
            for p in 0..4u64 {
                assert_eq!(
                    back.spent_exact(p),
                    Dyadic::from_f64_ceil(0.5),
                    "{outcome:?} principal {p}"
                );
            }
        }
    }

    #[test]
    fn compaction_policy_triggers_automatically() {
        let storage = MemStorage::new();
        let reg = create_with(
            100.0,
            4,
            storage.clone(),
            DurableOptions::default()
                .checkpoint_every(u64::MAX)
                .compaction(CompactionPolicy::max_records(10)),
        );
        for i in 0..10u64 {
            reg.charge(i % 3, 0.125).unwrap();
        }
        // The 10th acknowledged charge crossed the record threshold and
        // kicked the background compactor; wait for it to rewrite the
        // log as header + snapshot (the counter resets when it does).
        wait_for(|| reg.journal_records() == 0, "compaction never ran");
        assert!(reg.journal_error().is_none());
        let recovery = replay::<PureDp, Dyadic>(&storage.contents()).unwrap();
        assert_eq!(recovery.report.records, 2, "header + one snapshot chunk");
        let (back, _) = reopen(100.0, 4, storage.reopen()).unwrap();
        for p in 0..3u64 {
            assert_eq!(back.spent_exact(p), reg.spent_exact(p), "principal {p}");
        }
    }

    /// Spins (with yields) until `done` holds, panicking after 30s — for
    /// asserting on work the background compactor performs.
    fn wait_for(done: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    /// [`MemStorage`] whose `replace_with` parks on a test-held gate,
    /// reporting when the compactor reaches it.
    #[derive(Clone)]
    struct GatedStorage {
        inner: MemStorage,
        gate: Arc<(Mutex<GateState>, Condvar)>,
    }

    struct GateState {
        open: bool,
        entered: u32,
    }

    impl GatedStorage {
        fn new(inner: MemStorage) -> Self {
            GatedStorage {
                inner,
                gate: Arc::new((
                    Mutex::new(GateState {
                        open: false,
                        entered: 0,
                    }),
                    Condvar::new(),
                )),
            }
        }
    }

    impl JournalStorage for GatedStorage {
        fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> Result<(), JournalError> {
            self.inner.sync()
        }
        fn read_all(&mut self) -> Result<Vec<u8>, JournalError> {
            self.inner.read_all()
        }
        fn truncate(&mut self, len: u64) -> Result<(), JournalError> {
            JournalStorage::truncate(&mut self.inner, len)
        }
        fn replace_with(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
            let (lock, cv) = &*self.gate;
            let mut state = lock.lock().unwrap();
            state.entered += 1;
            cv.notify_all();
            while !state.open {
                state = cv.wait(state).unwrap();
            }
            drop(state);
            self.inner.replace_with(bytes)
        }
    }

    #[test]
    fn charges_are_never_blocked_behind_a_compaction() {
        // Pin the satellite invariant: policy-triggered compaction runs
        // on the background thread, never on the acknowledging charger's.
        // The gate keeps `replace_with` stuck indefinitely; under the old
        // inline scheme the threshold-crossing charge would wedge inside
        // the swap and this test would hang.
        let storage = MemStorage::new();
        let gated = GatedStorage::new(storage.clone());
        let gate = Arc::clone(&gated.gate);
        let (reg, _) = DurableRegistry::<PureDp, Dyadic, GatedStorage>::open_with_options(
            Dyadic::budget_from_f64(100.0),
            4,
            gated,
            DurableOptions::default()
                .checkpoint_every(u64::MAX)
                .compaction(CompactionPolicy::max_records(4)),
        )
        .unwrap();
        // All four charges — including the one that crosses the record
        // threshold — acknowledge while the gate is still closed.
        for i in 0..4u64 {
            reg.charge(i, 0.125).unwrap();
        }
        assert_eq!(reg.journal_records(), 4, "no compaction completed yet");
        // The compactor reaches the gated swap on its own thread…
        {
            let (lock, cv) = &*gate;
            let mut state = lock.lock().unwrap();
            while state.entered == 0 {
                let (next, timeout) = cv.wait_timeout(state, Duration::from_secs(30)).unwrap();
                state = next;
                assert!(!timeout.timed_out(), "compactor never reached replace_with");
            }
            // …and only once released does the rewrite land.
            state.open = true;
            cv.notify_all();
        }
        wait_for(
            || reg.journal_records() == 0,
            "gated compaction never completed",
        );
        assert!(reg.journal_error().is_none());
        // The compacted log carries the exact acknowledged spend.
        reg.charge(0, 0.125).unwrap();
        assert_eq!(reg.spent_exact(0), Dyadic::from_f64_ceil(0.125).mul_u64(2));
        drop(reg);
        let (back, _) = reopen(100.0, 4, storage.reopen()).unwrap();
        assert_eq!(back.spent_exact(0), Dyadic::from_f64_ceil(0.125).mul_u64(2));
        for p in 1..4u64 {
            assert_eq!(
                back.spent_exact(p),
                Dyadic::from_f64_ceil(0.125),
                "principal {p}"
            );
        }
    }

    #[test]
    fn grouped_compaction_runs_against_concurrent_chargers() {
        // Chargers and an auto-compacting policy race: every acknowledged
        // charge must survive every compaction, exactly.
        let storage = MemStorage::new();
        let reg = create_with(
            100.0,
            4,
            storage.clone(),
            DurableOptions::default()
                .checkpoint_every(u64::MAX)
                .compaction(CompactionPolicy::max_records(16)),
        );
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..50 {
                        reg.charge(t, 0.0625).unwrap();
                    }
                });
            }
        });
        assert!(reg.journal_error().is_none());
        let live: Vec<_> = (0..4u64).map(|p| reg.spent_exact(p)).collect();
        let expected = Dyadic::from_f64_ceil(0.0625).mul_u64(50);
        drop(reg);
        let (back, _) = reopen(100.0, 4, storage.reopen()).unwrap();
        for p in 0..4u64 {
            assert_eq!(back.spent_exact(p), live[p as usize], "principal {p}");
            assert_eq!(back.spent_exact(p), expected, "principal {p} count");
        }
    }

    #[test]
    fn file_storage_roundtrips() {
        let dir =
            std::env::temp_dir().join(format!("sampcert-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("charges.wal");
        let _ = std::fs::remove_file(&path);
        {
            let storage = FileStorage::open(&path).unwrap();
            let reg: DurableRegistry<PureDp, Dyadic, _> =
                DurableRegistry::create_with_budget(Dyadic::budget_from_f64(1.0), 2, storage)
                    .unwrap();
            reg.charge(11, 0.375).unwrap();
        }
        let storage = FileStorage::open(&path).unwrap();
        let (back, report) = DurableRegistry::<PureDp, Dyadic, _>::open_with_options(
            Dyadic::budget_from_f64(1.0),
            2,
            storage,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(back.spent_exact(11), Dyadic::from_f64_ceil(0.375));
        assert!(!report.torn_tail);
        let _ = std::fs::remove_file(&path);
    }
}
