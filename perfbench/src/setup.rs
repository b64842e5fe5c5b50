//! Run configuration and the pre-populated principal book.

use sampcert_core::{Budget, DurableRegistry, Dyadic, MemStorage, PureDp};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Res<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Measured seconds of the main phase.
    pub seconds: f64,
    pub trace: bool,
    /// Directory for this run's journals, inside the checkout.
    pub work: PathBuf,
    pub nproc: usize,
    /// A shortened probe, run inside another workload's traced run to
    /// fill in the per-layer metrics this workload owns.
    pub mini: bool,
    /// Time origin of every span.
    pub epoch: Instant,
}

pub fn dyadic(x: f64) -> Dyadic {
    <Dyadic as Budget>::charge_from_f64(x)
}

/// Writes a compacted journal in which principal `p` has spent
/// `spend(p)`, for every `p < principals`: the book a service restarts
/// from. Built through the program's own journal, so the file is exactly
/// what a compacting registry leaves on disk. Opening it writes nothing,
/// so a set-up can be repeated on the same file.
pub fn write_book(
    path: &Path,
    budget: &Dyadic,
    principals: u64,
    spend: impl Fn(u64) -> Dyadic,
) -> Res<()> {
    let storage = MemStorage::new();
    let book: DurableRegistry<PureDp, Dyadic, MemStorage> =
        DurableRegistry::create_with_budget(budget.clone(), 8, storage.clone())
            .map_err(err)?
            .with_checkpoint_every(u64::MAX);
    for p in 0..principals {
        book.charge_exact(p, spend(p)).map_err(err)?;
    }
    book.compact_now().map_err(err)?;
    drop(book);
    let bytes = storage.contents();
    // Synced, so that its write-back cannot land in a timed set-up.
    let mut file = std::fs::File::create(path).map_err(err)?;
    file.write_all(&bytes)
        .and_then(|()| file.sync_all())
        .map_err(err)
}
