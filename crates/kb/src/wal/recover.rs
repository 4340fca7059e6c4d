//! Crash recovery: rebuild a [`KnowledgeBase`] from the newest
//! checkpoint plus a checksum-verified replay of every later segment.
//!
//! The contract, proven by the truncation fuzz and SIGKILL tests in
//! `tests/tests/wal_recovery.rs`:
//!
//! * every acknowledged record (per the fsync policy in force) is
//!   replayed, bit for bit;
//! * a *torn tail* — the file ends inside the final frame of the final
//!   segment, the only shape a crashed `write` can leave — is
//!   physically truncated away and reported, never treated as data; a
//!   final segment torn inside its magic is deleted;
//! * anything else (checksum mismatch, impossible length, damage
//!   before the end of the log) is a hard [`KbError::WalCorrupt`]
//!   naming the segment file and byte offset, because silently
//!   skipping verified-bad data is how knowledge bases diverge.

use crate::error::{KbError, Result};
use crate::store::KnowledgeBase;
use crate::wal::checkpoint::latest_checkpoint;
use crate::wal::segment::{decode_frame, list_segments, sync_dir, FrameDecode, SEGMENT_MAGIC};
use crate::wal::RECOVER_FAULT_POINT;
use openbi_faults::FaultPlan;
use openbi_obs as obs;
use std::path::Path;
use std::time::Instant;

/// What [`recover()`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Checksum-verified frames replayed from segments.
    pub frames_replayed: u64,
    /// Torn-tail bytes truncated from the final segment.
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Records loaded from the checkpoint snapshot, if any.
    pub checkpoint_records: u64,
    /// Watermark of the checkpoint the replay started from.
    pub checkpoint_watermark: Option<u64>,
    /// Wall-clock seconds the recovery pass took.
    pub seconds: f64,
}

fn io_err(e: std::io::Error) -> KbError {
    KbError::Io(e.to_string())
}

/// Recover the knowledge base persisted in `dir`, consulting the
/// process-global fault plan (if any) for the `kb.wal.recover` point.
pub fn recover(dir: impl AsRef<Path>) -> Result<(KnowledgeBase, RecoveryReport)> {
    recover_with(dir, openbi_faults::active().as_deref())
}

/// [`recover()`] with an explicit fault plan (a durable store's own,
/// or a test's).
pub(crate) fn recover_with(
    dir: impl AsRef<Path>,
    plan: Option<&FaultPlan>,
) -> Result<(KnowledgeBase, RecoveryReport)> {
    let dir = dir.as_ref();
    let start = Instant::now();
    if let Some(plan) = plan {
        plan.fire(
            RECOVER_FAULT_POINT,
            openbi_faults::key(&dir.to_string_lossy()),
            0,
        )
        .map_err(|e| KbError::Wal(e.to_string()))?;
    }

    let (checkpoint_watermark, mut kb, checkpoint_records) =
        match latest_checkpoint(dir).map_err(io_err)? {
            Some((watermark, path)) => {
                let kb = KnowledgeBase::load(&path)?;
                let records = kb.len() as u64;
                (Some(watermark), kb, records)
            }
            None => (None, KnowledgeBase::new(), 0),
        };

    // Only segments at or above the watermark matter: the checkpoint
    // invariant is that every record in older segments is contained in
    // the snapshot.
    let segments: Vec<_> = list_segments(dir)
        .map_err(io_err)?
        .into_iter()
        .filter(|(generation, _)| checkpoint_watermark.is_none_or(|w| *generation >= w))
        .collect();

    // The replayable suffix must be contiguous: a missing generation
    // means acknowledged data is gone, which no replay can paper over.
    if let (Some(watermark), Some((first, _))) = (checkpoint_watermark, segments.first()) {
        if *first != watermark {
            return Err(KbError::Wal(format!(
                "segment wal-{first:020}.seg follows checkpoint {watermark} \
                 but generations {watermark}..{first} are missing"
            )));
        }
    }
    for pair in segments.windows(2) {
        let (prev, next) = (pair[0].0, pair[1].0);
        if next != prev + 1 {
            return Err(KbError::Wal(format!(
                "segment generations jump from {prev} to {next}: \
                 the log is missing acknowledged data"
            )));
        }
    }

    let mut frames_replayed = 0u64;
    let mut truncated_bytes = 0u64;
    let last_index = segments.len().saturating_sub(1);
    for (index, (_, path)) in segments.iter().enumerate() {
        let is_last = index == last_index;
        let segment_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let data = std::fs::read(path).map_err(io_err)?;

        if data.len() < SEGMENT_MAGIC.len() {
            // Crash while writing the 8-byte magic itself: a torn tail
            // at offset zero. Only tolerable in the final segment, which
            // holds no frame and goes, so the next writer starts its
            // generation afresh instead of leaving it headerless before
            // the next segment.
            if is_last {
                truncated_bytes += data.len() as u64;
                std::fs::remove_file(path).map_err(io_err)?;
                sync_dir(dir).map_err(io_err)?;
                break;
            }
            return Err(KbError::WalCorrupt {
                segment: segment_name,
                offset: 0,
                detail: format!("segment header is {} bytes, need {}", data.len(), 8),
            });
        }
        if data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(KbError::WalCorrupt {
                segment: segment_name,
                offset: 0,
                detail: "bad segment magic".into(),
            });
        }

        let mut offset = SEGMENT_MAGIC.len();
        loop {
            match decode_frame(&data[offset..]) {
                FrameDecode::Complete { payload, consumed } => {
                    let text = std::str::from_utf8(payload).map_err(|_| KbError::WalCorrupt {
                        segment: segment_name.clone(),
                        offset: offset as u64,
                        detail: "checksummed payload is not UTF-8".into(),
                    })?;
                    let record = serde_json::from_str(text).map_err(|e| KbError::WalCorrupt {
                        segment: segment_name.clone(),
                        offset: offset as u64,
                        detail: format!("checksummed payload is not a record: {e}"),
                    })?;
                    kb.add(record);
                    frames_replayed += 1;
                    offset += consumed;
                }
                FrameDecode::Incomplete => {
                    let torn = data.len() - offset;
                    if torn == 0 {
                        break; // clean end of segment
                    }
                    if is_last {
                        truncated_bytes += torn as u64;
                        truncate_file(path, offset as u64)?;
                        break;
                    }
                    return Err(KbError::WalCorrupt {
                        segment: segment_name,
                        offset: offset as u64,
                        detail: format!(
                            "torn frame ({torn} trailing bytes) in a non-final segment"
                        ),
                    });
                }
                FrameDecode::Corrupt { detail } => {
                    return Err(KbError::WalCorrupt {
                        segment: segment_name,
                        offset: offset as u64,
                        detail,
                    });
                }
            }
        }
    }

    let seconds = start.elapsed().as_secs_f64();
    obs::counter_add("kb.recovery.frames_replayed", frames_replayed);
    obs::counter_add("kb.recovery.truncated_bytes", truncated_bytes);
    obs::observe("kb.recovery.seconds", seconds);

    let report = RecoveryReport {
        frames_replayed,
        truncated_bytes,
        segments_scanned: segments.len() as u64,
        checkpoint_records,
        checkpoint_watermark,
        seconds,
    };
    Ok((kb, report))
}

/// Physically cut a torn tail off `path` so the next writer and the
/// next recovery see a clean log.
fn truncate_file(path: &Path, len: u64) -> Result<()> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io_err)?;
    file.set_len(len).map_err(io_err)?;
    file.sync_data().map_err(io_err)?;
    Ok(())
}
