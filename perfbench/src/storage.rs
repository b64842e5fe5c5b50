//! Test doubles the benchmark plugs into the program's public seams.

use sampcert_core::{JournalError, JournalStorage};
use sampcert_slang::ByteSource;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// A journal file whose `sync` does nothing: `FileStorage` as it behaves
/// on tmpfs, where fsync is free but every append is still a `write(2)`
/// into the page cache. The benchmark may write only inside its
/// checkout, which need not be on tmpfs, so this is how the front door's
/// journal measures the program rather than the disk.
#[derive(Debug)]
pub struct PageCacheStorage {
    file: std::fs::File,
    path: PathBuf,
}

fn io_err(op: &'static str, e: std::io::Error) -> JournalError {
    JournalError::new(op, e.to_string())
}

fn open_append(path: &Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

impl PageCacheStorage {
    pub fn open(path: &Path) -> Result<Self, JournalError> {
        Ok(PageCacheStorage {
            file: open_append(path).map_err(|e| io_err("open", e))?,
            path: path.to_path_buf(),
        })
    }
}

impl JournalStorage for PageCacheStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        self.file.write_all(bytes).map_err(|e| io_err("append", e))
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, JournalError> {
        let mut buf = Vec::new();
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut buf))
            .map_err(|e| io_err("read", e))?;
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> Result<(), JournalError> {
        self.file.set_len(len).map_err(|e| io_err("truncate", e))
    }

    fn replace_with(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        std::fs::write(&tmp, bytes)
            .and_then(|()| std::fs::rename(&tmp, &self.path))
            .and_then(|()| open_append(&self.path))
            .map(|file| self.file = file)
            .map_err(|e| io_err("replace", e))
    }

    fn len(&mut self) -> Result<u64, JournalError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| io_err("len", e))
    }
}

/// A byte source that counts what it hands out. Only the run's total is
/// reported: bytes per draw depend on the drawn values, so a per-request
/// figure would be a timing side channel.
pub struct CountingSource<S> {
    pub inner: S,
    pub bytes: u64,
}

impl<S: ByteSource> ByteSource for CountingSource<S> {
    fn next_byte(&mut self) -> u8 {
        self.bytes += 1;
        self.inner.next_byte()
    }

    fn fill(&mut self, out: &mut [u8]) {
        self.bytes += out.len() as u64;
        self.inner.fill(out);
    }
}
