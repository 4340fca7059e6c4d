//! Crash-durable persistence for the knowledge base: a checksummed
//! write-ahead log, recovery replay, and checkpoint compaction.
//!
//! The executor streams experiment records into the serving layer; a
//! SIGKILL, OOM, or power cut must not cost hours of grid results.
//! This module makes the KB crash-durable with the classic WAL
//! discipline (DESIGN.md §15):
//!
//! * [`WalWriter`] appends each record as a length-prefixed,
//!   CRC32C-checksummed frame to rotating `wal-<gen>.seg` files
//!   ([`segment`] defines the format), with a configurable
//!   [`FsyncPolicy`];
//! * [`recover()`] rebuilds a [`KnowledgeBase`] byte-identically from
//!   the newest checkpoint plus a verified replay, repairing a torn
//!   tail by truncation and refusing (with segment + offset) anything
//!   actually corrupt;
//! * [`WalWriter::checkpoint`] folds the log into a
//!   `checkpoint-<W>.jsonl` snapshot and deletes the segments it
//!   supersedes.
//!
//! Fault injection reaches every durability edge through three
//! dedicated points — [`APPEND_FAULT_POINT`], [`SYNC_FAULT_POINT`],
//! [`RECOVER_FAULT_POINT`] — and the corruption kinds
//! `short_write` / `bit_flip` exercise torn and silently damaged
//! frames end to end.
//!
//! [`KnowledgeBase`]: crate::store::KnowledgeBase

pub mod checkpoint;
pub mod recover;
pub mod segment;
pub mod writer;

pub use checkpoint::{checkpoint_file_name, CheckpointReport};
pub use recover::{recover, RecoveryReport};
pub use writer::{FsyncPolicy, WalWriter, DEFAULT_SEGMENT_BYTES, MIN_SEGMENT_BYTES};

/// Fault point fired (with [`corrupt_buffer`]) for every frame append;
/// keyed by the global frame index.
///
/// [`corrupt_buffer`]: openbi_faults::FaultPlan::corrupt_buffer
pub const APPEND_FAULT_POINT: &str = "kb.wal.append";

/// Fault point fired before each `fdatasync`; keyed by the segment
/// generation.
pub const SYNC_FAULT_POINT: &str = "kb.wal.sync";

/// Fault point fired once at the start of recovery; keyed by the FNV
/// hash of the log directory path.
pub const RECOVER_FAULT_POINT: &str = "kb.wal.recover";

#[cfg(test)]
mod tests {
    use super::recover::recover_with;
    use super::*;
    use crate::record::{ExperimentRecord, PerfMetrics};
    use crate::serving::DurableOptions;
    use crate::store::KnowledgeBase;
    use crate::KbError;
    use openbi_faults::{FaultPlan, FaultRule};
    use openbi_quality::QualityProfile;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn fresh_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "openbi-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn record(dataset: &str, algorithm: &str, seed: u64) -> ExperimentRecord {
        ExperimentRecord {
            dataset: dataset.into(),
            degradations: vec!["MCAR 0.2".into()],
            profile: QualityProfile::default(),
            algorithm: algorithm.into(),
            metrics: PerfMetrics {
                accuracy: 0.9,
                macro_f1: 0.8,
                minority_f1: 0.7,
                kappa: 0.6,
                train_ms: 0.0,
                model_size: 3.0,
            },
            seed,
        }
    }

    fn records(n: usize) -> Vec<ExperimentRecord> {
        (0..n)
            .map(|i| record(&format!("ds{}", i % 3), &format!("algo{}", i % 4), i as u64))
            .collect()
    }

    /// Order-independent fingerprint of a knowledge base's contents.
    fn fingerprint(kb: &KnowledgeBase) -> Vec<String> {
        let mut lines: Vec<String> = kb
            .records()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        lines.sort();
        lines
    }

    fn last_segment(dir: &Path) -> PathBuf {
        segment::list_segments(dir).unwrap().pop().unwrap().1
    }

    #[test]
    fn missing_dir_recovers_to_an_empty_kb() {
        let dir = fresh_dir("empty");
        let (kb, report) = recover(&dir).unwrap();
        assert!(kb.is_empty());
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(report.checkpoint_watermark, None);
    }

    #[test]
    fn write_then_recover_is_fingerprint_identical() {
        let dir = fresh_dir("round-trip");
        let expected = records(10);
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            writer.append_batch(&expected[..4]).unwrap();
            writer.append_batch(&expected[4..]).unwrap();
            assert_eq!(writer.frames(), 10);
        }
        let mut reference = KnowledgeBase::new();
        reference.add_batch(expected);
        let (kb, report) = recover(&dir).unwrap();
        assert_eq!(fingerprint(&kb), fingerprint(&reference));
        assert_eq!(report.frames_replayed, 10);
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spreads_the_log_and_recovery_stitches_it() {
        let dir = fresh_dir("rotate");
        let expected = records(12);
        {
            let mut writer =
                WalWriter::open(DurableOptions::new(&dir).segment_bytes(MIN_SEGMENT_BYTES))
                    .unwrap();
            for chunk in expected.chunks(2) {
                writer.append_batch(chunk).unwrap();
            }
        }
        let segments = segment::list_segments(&dir).unwrap();
        assert!(
            segments.len() >= 3,
            "tiny segments should rotate, got {}",
            segments.len()
        );
        let (kb, report) = recover(&dir).unwrap();
        assert_eq!(kb.len(), 12);
        assert_eq!(report.segments_scanned, segments.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_starts_a_fresh_generation_and_keeps_old_data() {
        let dir = fresh_dir("reopen");
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            writer.append_batch(&records(3)).unwrap();
            assert_eq!(writer.generation(), 0);
        }
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            assert_eq!(writer.generation(), 1);
            writer.append_batch(&records(2)).unwrap();
        }
        let (kb, report) = recover(&dir).unwrap();
        assert_eq!(kb.len(), 5);
        assert_eq!(report.frames_replayed, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_once_and_stays_repaired() {
        let dir = fresh_dir("torn");
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            writer.append_batch(&records(3)).unwrap();
        }
        // Simulate a crash mid-write: append half a frame by hand.
        let torn_frame = segment::encode_frame(br#"{"never":"lands"}"#);
        let path = last_segment(&dir);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.write_all(&torn_frame[..torn_frame.len() / 2]).unwrap();
        }
        let (kb, report) = recover(&dir).unwrap();
        assert_eq!(kb.len(), 3, "acknowledged records survive the torn tail");
        assert_eq!(report.truncated_bytes, (torn_frame.len() / 2) as u64);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "the torn tail is physically removed"
        );
        let (_, second) = recover(&dir).unwrap();
        assert_eq!(second.truncated_bytes, 0, "repair happens exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_segment_magic_is_removed_and_its_generation_restarts() {
        let dir = fresh_dir("torn-magic");
        let expected = records(3);
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            writer.append_batch(&expected[..2]).unwrap();
        }
        // Simulate a crash while the next segment's magic was written.
        let torn = dir.join(segment::segment_file_name(1));
        std::fs::write(&torn, &segment::SEGMENT_MAGIC[..3]).unwrap();
        let (kb, report) = recover(&dir).unwrap();
        assert_eq!(kb.len(), 2);
        assert_eq!(report.truncated_bytes, 3);
        assert!(!torn.exists(), "the headerless segment is removed");
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            assert_eq!(writer.generation(), 1, "the torn generation starts afresh");
            writer.append_batch(&expected[2..]).unwrap();
        }
        let (kb, report) = recover(&dir).unwrap();
        let mut reference = KnowledgeBase::new();
        reference.add_batch(expected);
        assert_eq!(fingerprint(&kb), fingerprint(&reference));
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_point_of_the_last_segment_recovers() {
        let dir = fresh_dir("fuzz");
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            writer.append_batch(&records(3)).unwrap();
        }
        let path = last_segment(&dir);
        let full = std::fs::read(&path).unwrap();
        for keep in 0..=full.len() {
            std::fs::write(&path, &full[..keep]).unwrap();
            let (kb, report) = recover(&dir)
                .unwrap_or_else(|e| panic!("recovery must absorb a {keep}-byte truncation: {e}"));
            assert!(kb.len() <= 3);
            assert_eq!(
                report.truncated_bytes > 0,
                keep != full.len() && !is_frame_boundary(&full, keep),
                "keep={keep}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Whether `keep` lands exactly between frames (or on the magic
    /// boundary) in a fully intact segment image.
    fn is_frame_boundary(full: &[u8], keep: usize) -> bool {
        let mut offset = segment::SEGMENT_MAGIC.len();
        if keep < offset {
            return keep == 0;
        }
        loop {
            if keep == offset {
                return true;
            }
            match segment::decode_frame(&full[offset..]) {
                segment::FrameDecode::Complete { consumed, .. } => offset += consumed,
                _ => return false,
            }
        }
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error_naming_the_offset() {
        let dir = fresh_dir("corrupt");
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
            writer.append_batch(&records(3)).unwrap();
        }
        let path = last_segment(&dir);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        match recover(&dir) {
            Err(KbError::WalCorrupt {
                segment,
                offset,
                detail,
            }) => {
                assert!(segment.starts_with("wal-") && segment.ends_with(".seg"));
                assert!((offset as usize) <= mid, "offset {offset} names the frame");
                assert!(!detail.is_empty());
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_and_recovery_starts_from_it() {
        let dir = fresh_dir("checkpoint");
        let all = records(9);
        let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
        writer.append_batch(&all[..6]).unwrap();

        let mut kb = KnowledgeBase::new();
        kb.add_batch(all[..6].to_vec());
        let report = writer.checkpoint(&kb).unwrap();
        assert_eq!(report.records, 6);
        assert!(report.compacted_segments >= 1);

        writer.append_batch(&all[6..]).unwrap();
        drop(writer);

        for (generation, _) in segment::list_segments(&dir).unwrap() {
            assert!(
                generation >= report.watermark,
                "segment {generation} should have been compacted (watermark {})",
                report.watermark
            );
        }

        let mut reference = KnowledgeBase::new();
        reference.add_batch(all);
        let (recovered, recovery) = recover(&dir).unwrap();
        assert_eq!(fingerprint(&recovered), fingerprint(&reference));
        assert_eq!(recovery.checkpoint_watermark, Some(report.watermark));
        assert_eq!(recovery.checkpoint_records, 6);
        assert_eq!(recovery.frames_replayed, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_checkpoint_removes_the_first() {
        let dir = fresh_dir("checkpoint-chain");
        let mut writer = WalWriter::open(DurableOptions::new(&dir)).unwrap();
        let mut kb = KnowledgeBase::new();

        writer.append_batch(&records(2)).unwrap();
        kb.add_batch(records(2));
        let first = writer.checkpoint(&kb).unwrap();

        writer.append_batch(&records(4)[2..]).unwrap();
        kb.add_batch(records(4)[2..].to_vec());
        let second = writer.checkpoint(&kb).unwrap();
        assert!(second.watermark > first.watermark);
        assert_eq!(second.removed_checkpoints, 1);
        drop(writer);

        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(recovered.len(), 4);
        assert_eq!(report.checkpoint_watermark, Some(second.watermark));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_short_write_fails_the_batch_then_retry_succeeds() {
        let dir = fresh_dir("short-write");
        let plan =
            Arc::new(FaultPlan::new(7).with(FaultRule::short_write(APPEND_FAULT_POINT).times(1)));
        let batch = records(4);
        {
            let mut writer =
                WalWriter::open(DurableOptions::new(&dir).fault_plan(plan.clone())).unwrap();
            let err = writer.append_batch(&batch).unwrap_err();
            assert!(matches!(err, KbError::Wal(_)), "{err}");
            assert_eq!(writer.frames(), 0, "failed batch acknowledges nothing");
            writer.append_batch(&batch).unwrap();
            assert_eq!(writer.frames(), 4);
        }
        let (kb, report) = recover(&dir).unwrap();
        assert_eq!(kb.len(), 4, "the retried batch lands exactly once");
        assert_eq!(report.truncated_bytes, 0, "rollback left no torn bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_bit_flip_is_silent_on_append_and_caught_by_recovery() {
        let dir = fresh_dir("bit-flip");
        let plan =
            Arc::new(FaultPlan::new(21).with(FaultRule::bit_flip(APPEND_FAULT_POINT).times(1)));
        {
            let mut writer = WalWriter::open(DurableOptions::new(&dir).fault_plan(plan)).unwrap();
            // The flip hits frame 0; the frames after it make the
            // damage mid-log, where recovery must hard-error.
            writer.append_batch(&records(5)).unwrap();
            assert_eq!(writer.frames(), 5, "bit flips are silent at append time");
        }
        match recover(&dir) {
            Err(KbError::WalCorrupt { offset, .. }) => {
                assert_eq!(offset, segment::SEGMENT_MAGIC.len() as u64);
            }
            other => panic!("recovery must detect the flipped frame, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_sync_fault_rolls_back_and_surfaces() {
        let dir = fresh_dir("sync-fault");
        let plan = Arc::new(FaultPlan::new(3).with(FaultRule::error(SYNC_FAULT_POINT).times(1)));
        let mut writer = WalWriter::open(DurableOptions::new(&dir).fault_plan(plan)).unwrap();
        let err = writer.append_batch(&records(2)).unwrap_err();
        assert!(matches!(err, KbError::Wal(_)), "{err}");
        writer.append_batch(&records(2)).unwrap();
        drop(writer);
        let (kb, _) = recover(&dir).unwrap();
        assert_eq!(kb.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_fault_point_fires() {
        let dir = fresh_dir("recover-fault");
        let plan = FaultPlan::new(1).with(FaultRule::error(RECOVER_FAULT_POINT));
        let err = recover_with(&dir, Some(&plan)).unwrap_err();
        assert!(matches!(err, KbError::Wal(_)), "{err}");
    }

    #[test]
    fn fsync_policies_produce_identical_logs() {
        let mut fingerprints = Vec::new();
        let expected = records(6);
        for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            let dir = fresh_dir("policy");
            {
                let mut writer = WalWriter::open(DurableOptions::new(&dir).fsync(policy)).unwrap();
                writer.append_batch(&expected).unwrap();
            }
            let (kb, _) = recover(&dir).unwrap();
            fingerprints.push(fingerprint(&kb));
            std::fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[1], fingerprints[2]);
    }

    #[test]
    fn fsync_policy_parses_its_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::Batch));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Batch);
    }

    #[test]
    fn checkpoint_file_names_round_trip() {
        assert_eq!(
            checkpoint_file_name(7),
            "checkpoint-00000000000000000007.jsonl"
        );
        assert_eq!(
            checkpoint::parse_checkpoint_watermark(&checkpoint_file_name(7)),
            Some(7)
        );
        assert_eq!(checkpoint::parse_checkpoint_watermark("kb.jsonl"), None);
        assert_eq!(
            checkpoint::parse_checkpoint_watermark("checkpoint-7.jsonl"),
            None
        );
    }
}
