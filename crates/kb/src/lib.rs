//! # openbi-kb
//!
//! The **DQ4DM knowledge base** of the paper's Figure 2: experiment
//! records pairing measured data-quality profiles with observed
//! algorithm performance, JSON-lines persistence, a similarity-weighted
//! **advisor** ("the best option is ALGORITHM X"), explainable guidance
//! rules, leave-one-dataset-out advisor evaluation, the one concurrent
//! store ([`SnapshotKnowledgeBase`], in [`serving`]) that the
//! experiment grid writes and the advisor reads, and a crash-durable
//! [`wal`] tier — checksummed write-ahead log, recovery replay,
//! checkpoint compaction — so a killed run loses nothing it
//! acknowledged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod error;
pub mod record;
pub mod regret;
pub mod rules;
pub mod serving;
pub mod store;
pub mod wal;

pub use advisor::{Advice, Advisor, Recommendation};
pub use error::{KbError, Result};
pub use record::{ExperimentRecord, PerfMetrics};
pub use regret::{leave_one_dataset_out, AdvisorEvaluation};
pub use rules::{extract_rules, GuidanceRule};
pub use serving::{
    AdvisorService, DurableOptions, KbSnapshot, ServedAdvice, SnapshotKnowledgeBase,
};
pub use store::{KbView, KnowledgeBase};
pub use wal::{recover, CheckpointReport, FsyncPolicy, RecoveryReport, WalWriter};

/// The store under the name the benchmark in `perfbench/` uses for it.
/// New code names [`SnapshotKnowledgeBase`] directly.
pub type SharedKnowledgeBase = SnapshotKnowledgeBase;
