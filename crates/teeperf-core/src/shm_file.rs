//! File-backed shared-log transport: the cross-process form of the shared
//! log, written through ordinary file I/O.
//!
//! The in-process [`crate::log::SharedLog`] lives in a [`tee_sim::SharedMem`]
//! region that only threads of one process can share. To profile genuinely
//! separate OS processes without `unsafe` (no `mmap`), each writer process
//! materializes the *exact same* log layout — the 104-byte header of
//! [`crate::layout`] followed by 24-byte slots — in a regular file under
//! `/dev/shm` (tmpfs, so "file I/O" is still memory traffic) or any other
//! registration directory, and a [`FileShmSource`] in the daemon process
//! polls it through the standard [`EventSource`] contract.
//!
//! # Publication by tail
//!
//! Each positioned write is a system call, so the writer makes as few as
//! the discipline allows: **two per event**. There is exactly one writer
//! per file, so the live protocol's reserve → write → publish collapses to
//! its single-writer form, with the tail word doing the publishing:
//!
//! 1. **write** — store the whole 24-byte slot at the writer's private
//!    tail index in one positioned write (the reservation is the writer's
//!    own counter; nobody else appends to the file);
//! 2. **publish** — store the bumped tail word in the header.
//!
//! A reader only ever reads slots below the tail it observed, and the slot
//! write completes before the tail write starts, so a reader can never see
//! a half-written slot. Overflow still bumps the tail and writes no slot,
//! so dropped events stay visible as `tail - capacity`.
//!
//! A writer that crashes mid-event leaves its slot *beyond* the tail:
//! invisible to the reader, neither a phantom record nor a hole, and never
//! counted. Holes ([`EntryValidity::Unpublished`] slots below the tail)
//! and torn slots can therefore only come from a writer that breaks this
//! order — a hostile one, or one using the old reserve-first order that
//! bumped the tail before the slot. The reader keeps the live drain's
//! [`EntryValidity`] rules for them and the salvage accounting
//! ([`SalvageReport`]) carries over unchanged: torn entries are dropped and
//! counted, holes are closed after a stall deadline, truncated files are
//! clamped and accounted, corrupt headers kill the source instead of the
//! daemon. [`FileShmWriter::crash_after_reserve`] and
//! [`FileShmWriter::write_torn`] inject exactly those two states.
//!
//! # Chunked reads
//!
//! The reader drains `[cursor, tail)` in chunks of at most 4096 slots
//! (96 KiB): one positioned read per chunk rather than one per slot, and a
//! fixed bound on both the read buffer and what a single read asks of the
//! file. Each slot of a chunk is classified exactly as above; the drain
//! stops at the first unpublished slot it must wait for. A source whose
//! writer has finished and whose cursor has reached the tail releases its
//! file handle and never reads the file again.
//!
//! Simplifications relative to the in-memory log, both forced by the
//! transport: there is exactly **one writer per file** (each process
//! registers its own log, keyed by pid — no cross-process tail CAS), and
//! there is **no epoch rotation** (rotation needs the writers-in-flight
//! handshake on the control word, which file I/O cannot do atomically;
//! instead the file is sized for the session and overflow is accounted via
//! the tail, exactly like a batch log). The fidelity regime word is also
//! not carried over this transport: the consumer opens the file read-only,
//! so [`FileShmSource`] keeps the [`EventSource`] regime defaults and a
//! file-backed session is always pinned to `Full` (zero-filled regions
//! decode as `Full` at regime epoch 0 by construction).
//!
//! # Registration protocol
//!
//! Writers never expose a half-initialized header: the log is created
//! under a dot-prefixed temporary name, fully initialized, then renamed to
//! `<pid>.tplog` — the rename is the registration. An optional `<pid>.sym`
//! sidecar (mcvm `DebugInfo` text) published the same way gives the
//! daemon symbol names; without it, addresses render as raw hex. A writer
//! that finishes cleanly clears the header's ACTIVE flag; one that is
//! killed leaves it set, which the consumer surfaces as a stalled source
//! for the registry watchdog to quarantine.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::faults::{SalvageReason, SalvageReport};
use crate::layout::{
    EntryValidity, LogEntry, LogHeader, ENTRY_BYTES, FLAG_ACTIVE, HEADER_BYTES, LOG_MAGIC,
    LOG_VERSION, OFF_CONTROL, OFF_DROPPED, OFF_MAGIC, OFF_PID, OFF_SIZE, OFF_TAIL, PID_UNSET,
};
use crate::source::{EventSource, SourceBatch};

/// File extension of a registered log (`<pid>.tplog`).
pub const LOG_EXT: &str = "tplog";
/// File extension of the optional debug-info sidecar (`<pid>.sym`).
pub const SYM_EXT: &str = "sym";

/// The preferred registration directory: tmpfs when the platform has it
/// mounted (so the "file" I/O is shared-memory traffic), else the system
/// temp dir.
pub fn default_shm_dir() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

/// Path of pid's registered log inside `dir`.
pub fn log_path(dir: &Path, pid: u64) -> PathBuf {
    dir.join(format!("{pid}.{LOG_EXT}"))
}

/// Path of pid's debug-info sidecar inside `dir`.
pub fn sym_path(dir: &Path, pid: u64) -> PathBuf {
    dir.join(format!("{pid}.{SYM_EXT}"))
}

/// Publish `contents` at `dir/<pid>.<ext>` atomically (temp name + rename),
/// so a scanner never observes a half-written file.
pub fn publish_sidecar(dir: &Path, pid: u64, ext: &str, contents: &str) -> io::Result<PathBuf> {
    let tmp = dir.join(format!(".{pid}.{ext}.tmp"));
    std::fs::write(&tmp, contents)?;
    let dest = dir.join(format!("{pid}.{ext}"));
    std::fs::rename(&tmp, &dest)?;
    Ok(dest)
}

fn read_word(file: &File, off: u64) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    file.read_exact_at(&mut buf, off)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_word(file: &File, off: u64, word: u64) -> io::Result<()> {
    file.write_all_at(&word.to_le_bytes(), off)
}

/// The on-disk bytes of one slot: its three words, little-endian.
fn slot_bytes(entry: &LogEntry) -> [u8; ENTRY_BYTES as usize] {
    let mut slot = [0u8; ENTRY_BYTES as usize];
    for (bytes, word) in slot.chunks_exact_mut(8).zip(entry.pack()) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    slot
}

/// Decode one slot's bytes (the inverse of [`slot_bytes`]).
fn slot_entry(slot: &[u8]) -> LogEntry {
    let word = |i: usize| u64::from_le_bytes(slot[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    LogEntry::unpack([word(0), word(1), word(2)])
}

/// Why a log file could not be opened (or stopped being trusted).
#[derive(Debug)]
pub enum ShmFileError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The magic word is not `TPERFLOG` — not a log, or a destroyed one.
    BadMagic(u64),
    /// The header's version field does not match [`LOG_VERSION`].
    BadVersion(u16),
    /// The pid word is [`PID_UNSET`]; a registered log must identify its
    /// writer.
    NoPid,
    /// The file is smaller than a log header.
    TooSmall(u64),
    /// The declared capacity is zero (an empty log can hold nothing).
    ZeroCapacity,
}

impl fmt::Display for ShmFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmFileError::Io(e) => write!(f, "log file I/O failed: {e}"),
            ShmFileError::BadMagic(w) => write!(f, "bad log magic {w:#018x}"),
            ShmFileError::BadVersion(v) => {
                write!(f, "log version {v} (this build speaks {LOG_VERSION})")
            }
            ShmFileError::NoPid => write!(f, "log header has no pid"),
            ShmFileError::TooSmall(n) => {
                write!(
                    f,
                    "file is {n} bytes, smaller than a {HEADER_BYTES}-byte header"
                )
            }
            ShmFileError::ZeroCapacity => write!(f, "log declares zero capacity"),
        }
    }
}

impl From<io::Error> for ShmFileError {
    fn from(e: io::Error) -> ShmFileError {
        ShmFileError::Io(e)
    }
}

/// The producer half: one process's log file, written by its single
/// writer with the publish-by-tail discipline (see the module docs).
#[derive(Debug)]
pub struct FileShmWriter {
    file: File,
    path: PathBuf,
    size: u64,
    tail: u64,
}

impl FileShmWriter {
    /// Create and register a log for `header.pid` inside `dir`: the file
    /// is fully initialized under a temporary name and only then renamed
    /// to `<pid>.tplog`, so a directory scanner never attaches to a
    /// half-built header.
    ///
    /// # Errors
    /// Propagates file-system failures; rejects a header without a pid or
    /// without capacity (such a log could never be registered or drained).
    pub fn create(dir: &Path, header: &LogHeader) -> Result<FileShmWriter, ShmFileError> {
        if header.pid == PID_UNSET {
            return Err(ShmFileError::NoPid);
        }
        if header.size == 0 {
            return Err(ShmFileError::ZeroCapacity);
        }
        let tmp = dir.join(format!(".{}.{LOG_EXT}.tmp", header.pid));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.set_len(HEADER_BYTES + header.size * ENTRY_BYTES)?;
        write_word(&file, OFF_CONTROL, header.pack_control() | FLAG_ACTIVE)?;
        write_word(&file, OFF_PID, header.pid)?;
        write_word(&file, OFF_SIZE, header.size)?;
        write_word(&file, OFF_TAIL, 0)?;
        write_word(&file, crate::layout::OFF_ANCHOR, header.anchor)?;
        write_word(&file, crate::layout::OFF_SHM_ADDR, header.shm_addr)?;
        write_word(&file, crate::layout::OFF_COUNTER, 0)?;
        write_word(&file, crate::layout::OFF_EPOCH, 0)?;
        write_word(&file, OFF_DROPPED, 0)?;
        write_word(&file, OFF_MAGIC, LOG_MAGIC)?;
        file.sync_all()?;
        let path = log_path(dir, header.pid);
        std::fs::rename(&tmp, &path)?;
        Ok(FileShmWriter {
            file,
            path,
            size: header.size,
            tail: 0,
        })
    }

    /// Where the registered log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> u64 {
        self.size
    }

    /// Next-write index (beyond `capacity` once entries have been dropped).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Entries dropped on overflow so far.
    pub fn dropped(&self) -> u64 {
        self.tail.saturating_sub(self.size)
    }

    /// Publish by tail: store the bumped tail word, making every slot
    /// below it readable. Returns the index the bump covered (`None` past
    /// capacity — the bump still happens, so overflow is accounted, not
    /// silent).
    fn bump_tail(&mut self) -> io::Result<Option<u64>> {
        let index = self.tail;
        write_word(&self.file, OFF_TAIL, index + 1)?;
        self.tail = index + 1;
        Ok((index < self.size).then_some(index))
    }

    /// Append one entry: the whole slot in one positioned write, then the
    /// tail bump that publishes it (see the module docs). Returns the slot
    /// index, or `None` if the log is full (no slot is written; the drop
    /// is visible to the consumer via the tail).
    ///
    /// # Errors
    /// Propagates file-system failures (disk full, file deleted under us).
    pub fn write(&mut self, entry: &LogEntry) -> io::Result<Option<u64>> {
        if self.tail < self.size {
            self.file
                .write_all_at(&slot_bytes(entry), LogEntry::offset_of(self.tail))?;
        }
        self.bump_tail()
    }

    /// Bump the tail over a slot that was never written — the on-disk
    /// state a writer using the old reserve-first order leaves when it
    /// dies between reserve and publish (this writer's own crashes leave
    /// the slot beyond the tail instead). Fault-injection entry point for
    /// the matrix tests; a correct writer never calls this.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn crash_after_reserve(&mut self) -> io::Result<()> {
        self.bump_tail()?;
        Ok(())
    }

    /// Publish a slot holding only word 0 (kind + counter) with its address
    /// word zero — the torn record a hostile writer produces.
    /// Fault-injection entry point for the matrix tests.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn write_torn(&mut self, entry: &LogEntry) -> io::Result<()> {
        if self.tail < self.size {
            let off = LogEntry::offset_of(self.tail);
            write_word(&self.file, off, entry.pack()[0].max(1))?;
        }
        self.bump_tail()?;
        Ok(())
    }

    /// Overwrite the magic word — the state of a log destroyed by a buggy
    /// or hostile writer. Fault-injection entry point for the matrix tests.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn corrupt_header(&mut self) -> io::Result<()> {
        write_word(&self.file, OFF_MAGIC, 0xbad0_bad0_bad0_bad0)
    }

    /// Finish the session cleanly: clear the header's ACTIVE flag so the
    /// consumer knows no further entry will ever be published and can
    /// report the source exhausted.
    ///
    /// # Errors
    /// Propagates file-system failures.
    pub fn finish(&mut self) -> io::Result<()> {
        let control = read_word(&self.file, OFF_CONTROL)?;
        write_word(&self.file, OFF_CONTROL, control & !FLAG_ACTIVE)?;
        self.file.sync_all()
    }
}

/// How many consecutive pumps an unpublished hole may block the cursor
/// before the consumer closes it (skips the slot and accounts the drop).
/// File writers are real OS processes that may be descheduled mid-write;
/// the default matches [`crate::SourceResilience`]'s patience.
pub const DEFAULT_HOLE_PUMPS: u64 = 64;

/// Slots per positioned read while draining (96 KiB): bounds the reader's
/// buffer and what one read asks of the file.
const READ_CHUNK_SLOTS: u64 = 4096;

/// Fill `buf` from `off` as far as the file allows and return the byte
/// count. A short count means end of file (or a failed read): the caller
/// classifies only the whole slots it got.
fn read_up_to(file: &File, buf: &mut [u8], off: u64) -> usize {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read_at(&mut buf[filled..], off + filled as u64) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    filled
}

/// Re-read and distrust-check the header: the file length, whether the
/// writer is still ACTIVE, and the tail — or why the header can no longer
/// be trusted. The control word is read before the tail, so a tail read
/// after observing a finished writer is final.
fn read_header(file: &File) -> Result<(u64, bool, u64), SalvageReason> {
    let corrupt = |_| SalvageReason::CorruptHeader;
    let len = file.metadata().map_err(corrupt)?.len();
    if len < HEADER_BYTES {
        return Err(SalvageReason::TruncatedFile);
    }
    if read_word(file, OFF_MAGIC).map_err(corrupt)? != LOG_MAGIC {
        return Err(SalvageReason::CorruptHeader);
    }
    let control = read_word(file, OFF_CONTROL).map_err(corrupt)?;
    let (active, _, _, _, version) = LogHeader::unpack_control(control);
    if version != LOG_VERSION {
        return Err(SalvageReason::CorruptHeader);
    }
    let tail = read_word(file, OFF_TAIL).map_err(corrupt)?;
    Ok((len, active, tail))
}

/// The consumer half: an [`EventSource`] polling one registered log file.
/// At most one source should drain a given file (the cursor is local).
#[derive(Debug)]
pub struct FileShmSource {
    /// `None` once the source is exhausted or dead: such a log is never
    /// read again, so its handle (and the file's storage) is released.
    file: Option<File>,
    path: PathBuf,
    pid: u64,
    size: u64,
    cursor: u64,
    hole_pumps: u64,
    stalled: u64,
    writer_done: bool,
    dead: bool,
    dropped_seen: u64,
    truncated_at: Option<u64>,
    salvage: SalvageReport,
}

impl FileShmSource {
    /// Attach to a registered log file, verifying the header the same way
    /// [`crate::log::SharedLog::verify_header`] does: magic first (is this
    /// a log at all?), then version, then the capacity and pid sanity
    /// checks.
    ///
    /// # Errors
    /// Returns the first failed check; an unreadable or alien file must be
    /// rejected at attach time, not quarantined later.
    pub fn open(path: &Path) -> Result<FileShmSource, ShmFileError> {
        let file = OpenOptions::new().read(true).open(path)?;
        let len = file.metadata()?.len();
        if len < HEADER_BYTES {
            return Err(ShmFileError::TooSmall(len));
        }
        let magic = read_word(&file, OFF_MAGIC)?;
        if magic != LOG_MAGIC {
            return Err(ShmFileError::BadMagic(magic));
        }
        let control = read_word(&file, OFF_CONTROL)?;
        let (_, _, _, _, version) = LogHeader::unpack_control(control);
        if version != LOG_VERSION {
            return Err(ShmFileError::BadVersion(version));
        }
        let pid = read_word(&file, OFF_PID)?;
        if pid == PID_UNSET {
            return Err(ShmFileError::NoPid);
        }
        let size = read_word(&file, OFF_SIZE)?;
        if size == 0 {
            return Err(ShmFileError::ZeroCapacity);
        }
        Ok(FileShmSource {
            file: Some(file),
            path: path.to_path_buf(),
            pid,
            size,
            cursor: 0,
            hole_pumps: DEFAULT_HOLE_PUMPS,
            stalled: 0,
            writer_done: false,
            dead: false,
            dropped_seen: 0,
            truncated_at: None,
            salvage: SalvageReport::default(),
        })
    }

    /// Override the hole-closing patience (tests use small values to
    /// exercise the recovery path in a handful of pumps).
    #[must_use]
    pub fn with_hole_pumps(mut self, pumps: u64) -> FileShmSource {
        self.hole_pumps = pumps;
        self
    }

    /// The file this source drains.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Declared capacity in entries.
    pub fn capacity(&self) -> u64 {
        self.size
    }

    /// Whether the writer has cleared the header's ACTIVE flag (observed
    /// as of the last pump). A liveness prober uses this to distinguish
    /// "finished cleanly" from "stopped publishing".
    pub fn writer_finished(&self) -> bool {
        self.writer_done
    }

    /// Re-read the header; returns the tail, or `None` after marking the
    /// source dead (corrupt or vanished header).
    fn reread_header(&mut self, file: &File) -> Option<u64> {
        let (len, active, tail) = match read_header(file) {
            Ok(header) => header,
            Err(reason) => {
                self.salvage.incident(reason);
                self.dead = true;
                return None;
            }
        };
        self.writer_done = !active;
        // Entries actually backed by bytes on disk. A file cut below what
        // the tail promises lost records: clamp, account them exactly
        // once, and stop trusting the file to ever grow them back.
        let on_disk = (len - HEADER_BYTES) / ENTRY_BYTES;
        let avail = tail.min(self.size);
        if avail > on_disk && self.truncated_at.is_none() {
            self.truncated_at = Some(on_disk);
            self.salvage.drop_n(
                SalvageReason::TruncatedFile,
                avail.saturating_sub(on_disk.max(self.cursor)),
            );
        }
        Some(tail)
    }

    /// Drain published entries from the cursor up to `limit`, one chunk
    /// read at a time, applying the validity rules per slot. `close_holes`
    /// short-circuits the stall deadline (the final drain: nothing will
    /// ever publish them).
    fn poll_published(&mut self, file: &File, limit: u64, close_holes: bool) -> Vec<LogEntry> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while self.cursor < limit {
            let want = (limit - self.cursor).min(READ_CHUNK_SLOTS);
            buf.resize((want * ENTRY_BYTES) as usize, 0);
            let got = read_up_to(file, &mut buf, LogEntry::offset_of(self.cursor));
            for slot in buf[..got].chunks_exact(ENTRY_BYTES as usize) {
                let entry = slot_entry(slot);
                match entry.validity() {
                    EntryValidity::Valid => {
                        self.stalled = 0;
                        self.cursor += 1;
                        self.salvage.kept += 1;
                        out.push(entry);
                    }
                    EntryValidity::Torn => {
                        // Published-looking but impossible: skip and account.
                        self.stalled = 0;
                        self.cursor += 1;
                        self.salvage.drop_n(SalvageReason::TornEntry, 1);
                    }
                    EntryValidity::Unpublished => {
                        // A slot below the tail nobody published. Wait for
                        // the writer (bounded), then close the hole and
                        // move on — a dead writer must not wedge the
                        // cursor forever.
                        if close_holes || self.writer_done || self.stalled >= self.hole_pumps {
                            self.stalled = 0;
                            self.cursor += 1;
                            self.salvage.drop_n(SalvageReason::UnpublishedSlot, 1);
                        } else {
                            self.stalled += 1;
                            return out;
                        }
                    }
                }
            }
            if got < buf.len() {
                // Bytes vanished mid-drain; the header re-read accounted
                // the loss (or will on the next pump) — stop here.
                break;
            }
        }
        out
    }

    fn step(&mut self, close_holes: bool) -> SourceBatch {
        if self.dead {
            return SourceBatch::default();
        }
        // Released: exhausted, nothing more will ever be published.
        let Some(file) = self.file.take() else {
            return SourceBatch::default();
        };
        let Some(tail) = self.reread_header(&file) else {
            return SourceBatch::default();
        };
        let mut limit = tail.min(self.size);
        if let Some(cut) = self.truncated_at {
            limit = limit.min(cut);
        }
        let entries = self.poll_published(&file, limit, close_holes);
        if self.truncated_at.is_some() {
            // Everything salvageable below the cut is out; the file is no
            // longer a faithful log.
            self.dead = true;
        }
        // Overflow accounting: report each newly-observed drop exactly
        // once, on the batch where it became visible.
        let overflowed = tail.saturating_sub(self.size);
        let newly_dropped = overflowed.saturating_sub(self.dropped_seen);
        self.dropped_seen = overflowed;
        // The tail was read after the writer was seen finished, so it is
        // final: once the cursor reaches it the source is exhausted and,
        // like a dead one, never reads the file again.
        let exhausted = self.writer_done && self.cursor >= tail.min(self.size);
        if !self.dead && !exhausted {
            self.file = Some(file);
        }
        SourceBatch {
            entries,
            rotated: false,
            dropped: newly_dropped,
            epoch: 0,
        }
    }
}

impl EventSource for FileShmSource {
    fn pid(&self) -> u64 {
        self.pid
    }

    fn pump(&mut self) -> SourceBatch {
        self.step(false)
    }

    fn drain_to_end(&mut self) -> SourceBatch {
        self.step(true)
    }

    fn dropped_total(&self) -> u64 {
        self.dropped_seen
    }

    fn epoch(&self) -> u64 {
        0
    }

    fn is_exhausted(&self) -> bool {
        // Exhausted only when the writer declared itself done AND the
        // cursor has consumed everything it promised (the file is then
        // released). A dead source is not exhausted — it is quarantined
        // by the watchdog instead.
        !self.dead && self.file.is_none()
    }

    fn salvage(&self) -> SalvageReport {
        self.salvage.clone()
    }

    fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EventKind;
    use crate::log::make_header;
    use proptest::prelude::*;

    /// A unique scratch registration dir per test (removed on drop).
    struct ScratchDir(PathBuf);

    fn scratch(label: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("teeperf-shmfile-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn entry(counter: u64) -> LogEntry {
        LogEntry {
            kind: EventKind::Call,
            counter,
            addr: 0x40_0000 + counter,
            tid: 0,
        }
    }

    fn header(pid: u64, size: u64) -> LogHeader {
        make_header(pid, size, true, 0, 0)
    }

    #[test]
    fn round_trips_entries_through_a_file() {
        let dir = scratch("roundtrip");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 16)).unwrap();
        for k in 1..=5 {
            assert!(w.write(&entry(k)).unwrap().is_some());
        }
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        assert_eq!(src.pid(), 7);
        let b = src.pump();
        assert_eq!(b.entries.len(), 5);
        assert_eq!(b.entries[0], entry(1));
        assert_eq!(b.dropped, 0);
        assert!(src.pump().entries.is_empty(), "no re-reads");
        assert!(!src.is_exhausted(), "writer still active");
        assert!(src.salvage().is_clean());
    }

    #[test]
    fn finish_makes_the_source_exhausted() {
        let dir = scratch("finish");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.finish().unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        let b = src.pump();
        assert_eq!(b.entries.len(), 1);
        assert!(src.is_exhausted());
        assert!(!src.is_dead());
    }

    #[test]
    fn overflow_is_accounted_exactly_once() {
        let dir = scratch("overflow");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 4)).unwrap();
        for k in 1..=7 {
            w.write(&entry(k)).unwrap();
        }
        assert_eq!(w.dropped(), 3);
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        let b = src.pump();
        assert_eq!(b.entries.len(), 4);
        assert_eq!(b.dropped, 3);
        assert_eq!(src.pump().dropped, 0, "drops reported once");
        assert_eq!(src.dropped_total(), 3);
    }

    #[test]
    fn unpublished_hole_blocks_then_closes() {
        let dir = scratch("hole");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.crash_after_reserve().unwrap();
        w.write(&entry(3)).unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7))
            .unwrap()
            .with_hole_pumps(2);
        assert_eq!(src.pump().entries, vec![entry(1)], "stops at the hole");
        assert!(src.pump().entries.is_empty(), "still waiting");
        let b = src.pump();
        assert_eq!(
            b.entries,
            vec![entry(3)],
            "deadline hit: hole closed, drain resumes"
        );
        assert_eq!(src.salvage().count(SalvageReason::UnpublishedSlot), 1);
    }

    #[test]
    fn writer_done_closes_holes_immediately() {
        let dir = scratch("donehole");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.crash_after_reserve().unwrap();
        w.write(&entry(3)).unwrap();
        w.finish().unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1), entry(3)]);
        assert!(src.is_exhausted());
        assert_eq!(src.salvage().count(SalvageReason::UnpublishedSlot), 1);
    }

    #[test]
    fn torn_entry_is_dropped_and_counted() {
        let dir = scratch("torn");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.write_torn(&entry(2)).unwrap();
        w.write(&entry(3)).unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        let b = src.pump();
        assert_eq!(b.entries, vec![entry(1), entry(3)]);
        let s = src.salvage();
        assert_eq!(s.count(SalvageReason::TornEntry), 1);
        assert_eq!(s.kept, 2);
    }

    #[test]
    fn corrupt_header_kills_the_source_not_the_process() {
        let dir = scratch("corrupt");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        assert_eq!(src.pump().entries.len(), 1);
        w.corrupt_header().unwrap();
        let b = src.pump();
        assert!(b.entries.is_empty());
        assert!(src.is_dead());
        assert!(!src.is_exhausted());
        assert_eq!(src.salvage().count(SalvageReason::CorruptHeader), 1);
        // Dead means dead: pumps stay empty, no panic, no hang.
        assert!(src.pump().entries.is_empty());
    }

    #[test]
    fn truncation_mid_drain_is_clamped_and_accounted() {
        let dir = scratch("truncate");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 16)).unwrap();
        for k in 1..=10 {
            w.write(&entry(k)).unwrap();
        }
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        // Cut the file to 4 entries' worth between pumps.
        let keep = HEADER_BYTES + 4 * ENTRY_BYTES;
        OpenOptions::new()
            .write(true)
            .open(log_path(&dir.0, 7))
            .unwrap()
            .set_len(keep)
            .unwrap();
        let b = src.pump();
        assert_eq!(b.entries.len(), 4, "salvages the readable prefix");
        assert!(src.is_dead(), "a cut file is no longer a faithful log");
        assert_eq!(src.salvage().count(SalvageReason::TruncatedFile), 6);
    }

    #[test]
    fn truncation_below_header_goes_dead() {
        let dir = scratch("beheaded");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        OpenOptions::new()
            .write(true)
            .open(log_path(&dir.0, 7))
            .unwrap()
            .set_len(10)
            .unwrap();
        let b = src.pump();
        assert!(b.entries.is_empty());
        assert!(src.is_dead());
        assert_eq!(src.salvage().count(SalvageReason::TruncatedFile), 1);
    }

    #[test]
    fn open_rejects_alien_and_broken_files() {
        let dir = scratch("reject");
        std::fs::write(dir.0.join("9.tplog"), b"not a log").unwrap();
        assert!(matches!(
            FileShmSource::open(&dir.0.join("9.tplog")),
            Err(ShmFileError::TooSmall(_))
        ));
        std::fs::write(dir.0.join("10.tplog"), vec![0u8; 200]).unwrap();
        assert!(matches!(
            FileShmSource::open(&dir.0.join("10.tplog")),
            Err(ShmFileError::BadMagic(0))
        ));
        assert!(matches!(
            FileShmSource::open(&dir.0.join("missing.tplog")),
            Err(ShmFileError::Io(_))
        ));
    }

    #[test]
    fn create_rejects_unkeyed_or_empty_logs() {
        let dir = scratch("badcreate");
        assert!(matches!(
            FileShmWriter::create(&dir.0, &header(PID_UNSET, 8)),
            Err(ShmFileError::NoPid)
        ));
        assert!(matches!(
            FileShmWriter::create(&dir.0, &header(7, 0)),
            Err(ShmFileError::ZeroCapacity)
        ));
    }

    #[test]
    fn registration_is_atomic_no_temp_name_visible() {
        let dir = scratch("atomic");
        let _w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["7.tplog".to_string()]);
    }

    #[test]
    fn sidecar_publish_is_atomic() {
        let dir = scratch("sidecar");
        let p = publish_sidecar(&dir.0, 7, SYM_EXT, "fn main 4 1\n").unwrap();
        assert_eq!(p, sym_path(&dir.0, 7));
        assert_eq!(std::fs::read_to_string(p).unwrap(), "fn main 4 1\n");
    }

    #[test]
    fn live_writes_are_visible_between_pumps() {
        let dir = scratch("live");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 64)).unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7)).unwrap();
        assert!(src.pump().entries.is_empty());
        w.write(&entry(1)).unwrap();
        assert_eq!(src.pump().entries.len(), 1);
        w.write(&entry(2)).unwrap();
        w.write(&entry(3)).unwrap();
        let b = src.drain_to_end();
        assert_eq!(b.entries.len(), 2);
    }

    /// Whether this process still holds a descriptor on `path`.
    fn holds_open(path: &Path) -> bool {
        let Ok(fds) = std::fs::read_dir("/proc/self/fd") else {
            return false;
        };
        fds.flatten()
            .any(|fd| std::fs::read_link(fd.path()).is_ok_and(|target| target == path))
    }

    #[test]
    fn exhausted_source_releases_its_file() {
        let dir = scratch("release");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 4)).unwrap();
        for k in 1..=6 {
            w.write(&entry(k)).unwrap();
        }
        w.finish().unwrap();
        drop(w);
        let path = log_path(&dir.0, 7);
        let mut src = FileShmSource::open(&path).unwrap();
        assert!(holds_open(&path));
        let b = src.pump();
        assert_eq!((b.entries.len(), b.dropped), (4, 2));
        assert!(src.is_exhausted());
        assert!(!holds_open(&path), "an exhausted source drops its File");
        let before = (src.salvage(), src.dropped_total());

        // Neither a cut nor a deleted file reaches a released source.
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(0)
            .unwrap();
        assert_eq!(src.pump(), SourceBatch::default());
        std::fs::remove_file(&path).unwrap();
        assert_eq!(src.pump(), SourceBatch::default());
        assert_eq!(src.drain_to_end(), SourceBatch::default());
        assert!(src.is_exhausted());
        assert!(!src.is_dead());
        assert_eq!((src.salvage(), src.dropped_total()), before);
    }

    #[test]
    fn active_or_undrained_sources_keep_reading() {
        let dir = scratch("keep");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.crash_after_reserve().unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7))
            .unwrap()
            .with_hole_pumps(8);
        assert_eq!(src.pump().entries, vec![entry(1)]);
        assert!(!src.is_exhausted(), "writer still active");
        w.write(&entry(3)).unwrap();
        w.finish().unwrap();
        // The finished writer's hole is closed and the drain completes.
        assert_eq!(src.pump().entries, vec![entry(3)]);
        assert!(src.is_exhausted());
        assert_eq!(src.salvage().count(SalvageReason::UnpublishedSlot), 1);
    }

    #[test]
    fn slot_written_without_its_tail_bump_is_invisible() {
        // A writer that dies between the slot write and the tail bump: the
        // slot sits beyond the tail, fully written.
        let dir = scratch("beyondtail");
        let mut w = FileShmWriter::create(&dir.0, &header(7, 8)).unwrap();
        w.write(&entry(1)).unwrap();
        w.write(&entry(2)).unwrap();
        w.file
            .write_all_at(&slot_bytes(&entry(3)), LogEntry::offset_of(w.tail()))
            .unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7))
            .unwrap()
            .with_hole_pumps(0);
        assert_eq!(src.pump().entries, vec![entry(1), entry(2)]);
        for _ in 0..4 {
            assert!(src.pump().entries.is_empty());
        }
        assert!(src.drain_to_end().entries.is_empty());
        w.finish().unwrap();
        assert!(src.drain_to_end().entries.is_empty());
        assert!(src.is_exhausted());
        let report = src.salvage();
        assert!(
            report.is_clean(),
            "never delivered, never counted: {report:?}"
        );
        assert_eq!(report.kept, 2);
        assert_eq!(src.dropped_total(), 0);
    }

    /// Fill slots `0..n` with valid entries numbered from 1.
    fn write_valid(w: &mut FileShmWriter, n: u64) {
        for k in 1..=n {
            w.write(&entry(k)).unwrap();
        }
    }

    #[test]
    fn torn_slot_ends_a_chunk_and_hole_starts_the_next() {
        let dir = scratch("boundary1");
        let c = READ_CHUNK_SLOTS;
        let mut w = FileShmWriter::create(&dir.0, &header(7, 3 * c)).unwrap();
        write_valid(&mut w, c - 1);
        w.write_torn(&entry(c)).unwrap(); // slot c - 1: last of chunk 0
        w.crash_after_reserve().unwrap(); // slot c: first of chunk 1
        w.write(&entry(c + 2)).unwrap();
        let mut src = FileShmSource::open(&log_path(&dir.0, 7))
            .unwrap()
            .with_hole_pumps(1);
        let b = src.pump();
        assert_eq!(b.entries.len() as u64, c - 1, "stops at the hole");
        assert_eq!(b.entries.last(), Some(&entry(c - 1)));
        assert_eq!(src.salvage().count(SalvageReason::TornEntry), 1);
        assert_eq!(src.pump().entries, vec![entry(c + 2)], "hole closed");
        let report = src.salvage();
        assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1);
        assert_eq!(report.kept, c);
    }

    #[test]
    fn hole_ends_a_chunk_and_torn_slot_starts_the_next() {
        let dir = scratch("boundary2");
        let c = READ_CHUNK_SLOTS;
        let mut w = FileShmWriter::create(&dir.0, &header(7, 3 * c)).unwrap();
        write_valid(&mut w, c - 1);
        w.crash_after_reserve().unwrap(); // slot c - 1: last of chunk 0
        w.write_torn(&entry(c + 1)).unwrap(); // slot c: first of chunk 1
        for k in c + 2..=2 * c + 1 {
            w.write(&entry(k)).unwrap(); // through the next boundary
        }
        let mut src = FileShmSource::open(&log_path(&dir.0, 7))
            .unwrap()
            .with_hole_pumps(1);
        assert_eq!(src.pump().entries.len() as u64, c - 1);
        let b = src.pump();
        assert_eq!(b.entries.len() as u64, c);
        assert_eq!(b.entries.first(), Some(&entry(c + 2)));
        assert_eq!(b.entries.last(), Some(&entry(2 * c + 1)));
        let report = src.salvage();
        assert_eq!(report.count(SalvageReason::UnpublishedSlot), 1);
        assert_eq!(report.count(SalvageReason::TornEntry), 1);
        assert_eq!(report.kept, 2 * c - 1);
    }

    /// What one slot below the tail holds, per the writer's fault entry
    /// points.
    #[derive(Clone, Copy)]
    enum Slot {
        Valid(LogEntry),
        Torn,
        Hole,
    }

    /// The reference reader: the validity rules applied to an in-memory
    /// slot list, one slot at a time.
    struct Model {
        slots: Vec<Slot>,
        tail: u64,
        size: u64,
        cursor: usize,
        stalled: u64,
        hole_pumps: u64,
        torn: u64,
        holes: u64,
        dropped_seen: u64,
    }

    impl Model {
        fn append(&mut self, slot: Slot) {
            if self.tail < self.size {
                self.slots.push(slot);
            }
            self.tail += 1;
        }

        fn pump(&mut self, close_holes: bool) -> (Vec<LogEntry>, u64) {
            let mut out = Vec::new();
            while self.cursor < self.slots.len() {
                match self.slots[self.cursor] {
                    Slot::Valid(e) => out.push(e),
                    Slot::Torn => self.torn += 1,
                    Slot::Hole if close_holes || self.stalled >= self.hole_pumps => {
                        self.holes += 1;
                    }
                    Slot::Hole => {
                        self.stalled += 1;
                        break;
                    }
                }
                self.stalled = 0;
                self.cursor += 1;
            }
            let overflowed = self.tail.saturating_sub(self.size);
            let dropped = overflowed - self.dropped_seen;
            self.dropped_seen = overflowed;
            (out, dropped)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random runs of writes, torn slots, crash holes and pumps over a
        /// log longer than two read chunks: every pump, then the final
        /// drain, must deliver and account exactly what the per-slot
        /// model does.
        #[test]
        fn prop_chunked_reader_matches_the_per_slot_model(
            extra in 0u64..2 * READ_CHUNK_SLOTS,
            hole_pumps in 0u64..3,
            ops in proptest::collection::vec((0u8..8, 1u64..4000), 2..16),
        ) {
            let dir = scratch("prop");
            let size = 2 * READ_CHUNK_SLOTS + extra;
            let mut w = FileShmWriter::create(&dir.0, &header(7, size)).unwrap();
            let mut src = FileShmSource::open(&log_path(&dir.0, 7))
                .unwrap()
                .with_hole_pumps(hole_pumps);
            let mut model = Model {
                slots: Vec::new(),
                tail: 0,
                size,
                cursor: 0,
                stalled: 0,
                hole_pumps,
                torn: 0,
                holes: 0,
                dropped_seen: 0,
            };
            let mut next = 1u64;
            for (op, n) in ops {
                match op {
                    0..=3 => {
                        for _ in 0..n {
                            w.write(&entry(next)).unwrap();
                            model.append(Slot::Valid(entry(next)));
                            next += 1;
                        }
                    }
                    4 => {
                        for _ in 0..n % 3 + 1 {
                            w.write_torn(&entry(next)).unwrap();
                            model.append(Slot::Torn);
                            next += 1;
                        }
                    }
                    5 => {
                        for _ in 0..n % 3 + 1 {
                            w.crash_after_reserve().unwrap();
                            model.append(Slot::Hole);
                        }
                    }
                    _ => {
                        let b = src.pump();
                        let (entries, dropped) = model.pump(false);
                        prop_assert_eq!(b.entries, entries);
                        prop_assert_eq!(b.dropped, dropped);
                    }
                }
            }
            w.finish().unwrap();
            let b = src.drain_to_end();
            let (entries, dropped) = model.pump(true);
            prop_assert_eq!(b.entries, entries);
            prop_assert_eq!(b.dropped, dropped);
            prop_assert!(src.is_exhausted());
            let report = src.salvage();
            let valid = model.slots.iter().filter(|s| matches!(s, Slot::Valid(_))).count();
            prop_assert_eq!(report.kept, valid as u64);
            prop_assert_eq!(report.count(SalvageReason::TornEntry), model.torn);
            prop_assert_eq!(report.count(SalvageReason::UnpublishedSlot), model.holes);
            prop_assert_eq!(report.dropped, model.torn + model.holes);
            prop_assert_eq!(src.dropped_total(), model.tail.saturating_sub(size));
        }
    }
}
