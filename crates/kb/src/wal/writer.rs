//! The write-ahead-log writer: rotating segments, fsync policy,
//! fault-aware appends.
//!
//! [`WalWriter::append_batch`] is all-or-nothing per batch: every frame
//! of the batch is written (and synced according to policy) or the
//! segment is physically rolled back to its pre-batch length and the
//! error returned (or the panic resumed), so the log never acknowledges
//! a record it may lose and never leaves its *own* torn bytes behind
//! for recovery to clean up. Torn tails still happen — a crash between
//! `write` and the rollback, or an injected [`FaultKind::ShortWrite`] —
//! and those are exactly what [`recover`](crate::wal::recover()) repairs.
//!
//! [`FaultKind::ShortWrite`]: openbi_faults::FaultKind::ShortWrite

use crate::error::{KbError, Result};
use crate::record::ExperimentRecord;
use crate::serving::DurableOptions;
use crate::wal::checkpoint::latest_checkpoint;
use crate::wal::segment::{
    encode_frame, list_segments, segment_file_name, sync_dir, SEGMENT_MAGIC,
};
use crate::wal::{APPEND_FAULT_POINT, SYNC_FAULT_POINT};
use openbi_faults::{Corruption, FaultPlan};
use openbi_obs as obs;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Default segment size before rotation: 8 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Smallest accepted segment size — big enough for the magic plus a
/// frame header, small enough that tests can force rotation.
pub const MIN_SEGMENT_BYTES: u64 = 64;

/// When the log flushes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every frame. Strongest guarantee, slowest.
    Always,
    /// `fdatasync` once per appended batch (the default): a crash can
    /// lose only the batch being written, never an acknowledged one.
    #[default]
    Batch,
    /// Never sync; the OS flushes when it pleases. Fastest, and a
    /// power loss may drop acknowledged records — fine for benchmarks
    /// and rerunnable experiment sweeps, wrong for anything else.
    Never,
}

impl FsyncPolicy {
    /// Parse the CLI spelling (`always` | `batch` | `never`).
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        })
    }
}

/// Appends checksummed record frames to rotating segment files.
///
/// Not internally synchronised — wrap in a mutex (as the serving
/// store does) to share across threads.
pub struct WalWriter {
    pub(crate) dir: PathBuf,
    pub(crate) segment_bytes: u64,
    pub(crate) fsync: FsyncPolicy,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    /// The segment being written; `None` until the first frame or
    /// checkpoint starts one.
    pub(crate) file: Option<File>,
    /// Generation of the segment being written, or of the one the first
    /// frame or checkpoint starts.
    pub(crate) generation: u64,
    /// Bytes written to the current segment, magic included.
    pub(crate) offset: u64,
    /// Frames acknowledged over the writer's lifetime; doubles as the
    /// deterministic fault key for the next frame.
    pub(crate) frames: u64,
    /// Consecutive failed attempts of the pending operation — lets
    /// `times=N` fault rules exhaust under retry.
    pub(crate) attempt: u32,
    /// Whether unsynced bytes sit in the current segment.
    pub(crate) dirty: bool,
    /// Segment files currently on disk (updated on rotate/compact).
    pub(crate) live_segments: u64,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("offset", &self.offset)
            .field("frames", &self.frames)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

/// Rolls a batch back when `try_append` unwinds. A panic (an injected
/// `kb.wal.append` fault, say) skips the `Err` arm of
/// [`WalWriter::append_batch`]; without this guard the frames written
/// before it would stay in the segment while the batch stays pending,
/// and the retry would log them twice.
struct UnwindRollback<'w> {
    writer: &'w mut WalWriter,
    offset: u64,
    frames: u64,
    /// Cleared once `try_append` returns.
    armed: bool,
}

impl Drop for UnwindRollback<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // The unwound attempt is spent, as a failed one is, so retry
        // budgets (`times=N`) run out.
        self.writer.attempt = self.writer.attempt.saturating_add(1);
        obs::counter_add("kb.wal.append_failures_total", 1);
        // Already unwinding: propagating (or panicking on) a rollback
        // error would abort the process, so it is ignored.
        let _ = self.writer.rollback_to(self.offset, self.frames);
    }
}

fn io_err(e: std::io::Error) -> KbError {
    KbError::Io(e.to_string())
}

impl WalWriter {
    /// Open the log at `options`' directory. Nothing is created or
    /// written until the first frame or checkpoint starts a segment,
    /// strictly after every existing segment and checkpoint. Existing
    /// segments are never appended to — recovery replays them,
    /// checkpointing compacts them.
    pub fn open(options: DurableOptions) -> Result<WalWriter> {
        let segments = list_segments(&options.wal_dir).map_err(io_err)?;
        let max_segment = segments.last().map(|(generation, _)| *generation);
        let max_checkpoint = latest_checkpoint(&options.wal_dir)
            .map_err(io_err)?
            .map(|(watermark, _)| watermark);
        let live_segments = segments.len() as u64;
        obs::gauge_set("kb.wal.segments", live_segments as f64);
        Ok(WalWriter {
            dir: options.wal_dir,
            segment_bytes: options.segment_bytes,
            fsync: options.fsync,
            fault_plan: options.fault_plan,
            file: None,
            generation: max_segment.max(max_checkpoint).map_or(0, |max| max + 1),
            offset: 0,
            frames: 0,
            attempt: 0,
            dirty: false,
            live_segments,
        })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generation of the segment being written, or of the one the first
    /// frame or checkpoint starts.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Frames acknowledged since this writer opened.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    fn plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan.clone().or_else(openbi_faults::active)
    }

    /// Append `records` as one atomic batch and return the total frame
    /// count. On any error, and on a panic that unwinds out of the
    /// append, the segment is rolled back to its pre-batch length:
    /// either every record of the batch is durable (per the fsync
    /// policy) or none is.
    pub fn append_batch(&mut self, records: &[ExperimentRecord]) -> Result<u64> {
        if records.is_empty() {
            return Ok(self.frames);
        }
        if self.file.is_none() || self.offset >= self.segment_bytes {
            self.rotate()?;
        }
        let rollback_offset = self.offset;
        let rollback_frames = self.frames;
        let attempt = self.attempt;
        let outcome = {
            let mut guard = UnwindRollback {
                writer: self,
                offset: rollback_offset,
                frames: rollback_frames,
                armed: true,
            };
            let outcome = guard.writer.try_append(records, attempt);
            guard.armed = false;
            outcome
        };
        match outcome {
            Ok(bytes) => {
                self.attempt = 0;
                obs::counter_add("kb.wal.appends_total", records.len() as u64);
                obs::counter_add("kb.wal.bytes_total", bytes);
                Ok(self.frames)
            }
            Err(e) => {
                self.attempt = self.attempt.saturating_add(1);
                obs::counter_add("kb.wal.append_failures_total", 1);
                self.rollback_to(rollback_offset, rollback_frames)?;
                Err(e)
            }
        }
    }

    fn try_append(&mut self, records: &[ExperimentRecord], attempt: u32) -> Result<u64> {
        let plan = self.plan();
        let mut bytes = 0u64;
        for record in records {
            let payload =
                serde_json::to_string(record).map_err(|e| KbError::Serde(e.to_string()))?;
            let mut frame = encode_frame(payload.as_bytes());
            if let Some(plan) = &plan {
                match plan.corrupt_buffer(APPEND_FAULT_POINT, self.frames, attempt, &mut frame) {
                    // A bit flip is *silent* storage corruption: the
                    // damaged frame goes to disk and only recovery's
                    // checksum pass can call it out.
                    Ok(None) | Ok(Some(Corruption::BitFlip { .. })) => {}
                    Ok(Some(Corruption::ShortWrite { kept })) => {
                        // A short write persists a torn prefix and then
                        // fails, exactly like a crash mid-`write`. The
                        // batch rollback truncates it away.
                        self.write(&frame)?;
                        return Err(KbError::Wal(format!(
                            "injected short write at frame {} (kept {kept} bytes)",
                            self.frames
                        )));
                    }
                    Err(e) => return Err(KbError::Wal(e.to_string())),
                }
            }
            self.write(&frame)?;
            self.offset += frame.len() as u64;
            self.frames += 1;
            bytes += frame.len() as u64;
            if self.fsync == FsyncPolicy::Always {
                self.sync_inner(attempt)?;
            }
        }
        if self.fsync == FsyncPolicy::Batch {
            self.sync_inner(attempt)?;
        }
        Ok(bytes)
    }

    /// Write `bytes` at the end of the current segment.
    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        let file = self
            .file
            .as_mut()
            .expect("append_batch starts a segment before it writes");
        file.write_all(bytes).map_err(io_err)?;
        self.dirty = true;
        Ok(())
    }

    /// Flush buffered frames to stable storage regardless of policy
    /// (checkpointing calls this).
    pub fn sync(&mut self) -> Result<()> {
        let attempt = self.attempt;
        match self.sync_inner(attempt) {
            Ok(()) => {
                self.attempt = 0;
                Ok(())
            }
            Err(e) => {
                self.attempt = self.attempt.saturating_add(1);
                Err(e)
            }
        }
    }

    fn sync_inner(&mut self, attempt: u32) -> Result<()> {
        let (true, Some(file)) = (self.dirty, &self.file) else {
            return Ok(());
        };
        if let Some(plan) = self.plan() {
            plan.fire(SYNC_FAULT_POINT, self.generation, attempt)
                .map_err(|e| KbError::Wal(e.to_string()))?;
        }
        let start = Instant::now();
        file.sync_data().map_err(io_err)?;
        obs::observe_duration("kb.wal.fsync.seconds", start.elapsed());
        self.dirty = false;
        Ok(())
    }

    /// Truncate the current segment back to `offset` after a failed
    /// batch, wiping any partially written frames.
    fn rollback_to(&mut self, offset: u64, frames: u64) -> Result<()> {
        if let Some(file) = &mut self.file {
            file.set_len(offset).map_err(io_err)?;
            file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
            // The truncation itself must reach disk before the caller
            // retries, or a crash could resurrect the wiped bytes.
            if self.fsync != FsyncPolicy::Never {
                file.sync_data().map_err(io_err)?;
            }
        }
        self.offset = offset;
        self.frames = frames;
        self.dirty = false;
        Ok(())
    }

    /// Seal the current segment and start the next generation; with no
    /// segment started yet, start the pending one.
    pub(crate) fn rotate(&mut self) -> Result<()> {
        if self.file.is_none() {
            return self.start_segment(self.generation);
        }
        if self.fsync != FsyncPolicy::Never {
            self.sync()?;
        }
        self.start_segment(self.generation + 1)
    }

    /// Create segment `generation` holding only the magic, synced with
    /// its directory entry before any frame lands in it, and make it the
    /// current segment.
    fn start_segment(&mut self, generation: u64) -> Result<()> {
        std::fs::create_dir_all(&self.dir).map_err(io_err)?;
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(self.dir.join(segment_file_name(generation)))
            .map_err(io_err)?;
        file.write_all(&SEGMENT_MAGIC).map_err(io_err)?;
        if self.fsync != FsyncPolicy::Never {
            file.sync_data().map_err(io_err)?;
            sync_dir(&self.dir).map_err(io_err)?;
        }
        self.file = Some(file);
        self.generation = generation;
        self.offset = SEGMENT_MAGIC.len() as u64;
        self.dirty = false;
        self.live_segments += 1;
        obs::gauge_set("kb.wal.segments", self.live_segments as f64);
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best-effort flush on clean shutdown; no fault injection here
        // (a drop during unwinding must not panic or inject).
        if self.dirty && self.fsync != FsyncPolicy::Never {
            if let Some(file) = &self.file {
                let _ = file.sync_data();
            }
        }
    }
}
