//! The knowledge-base store: snapshot serving, publishing under one
//! writer lock, and optional write-ahead durability (DESIGN.md §13).
//!
//! * [`SnapshotKnowledgeBase`] — the one store the experiment grid
//!   writes and the advisor reads. The current [`KnowledgeBase`] is an
//!   immutable `Arc` snapshot with a **generation number**, held in an
//!   `RwLock`. One writer mutex holds everything a publisher changes —
//!   the pending records, the `kb.publish` attempt counter and the
//!   optional write-ahead log. `add_batch` and
//!   `flush` take it, build the next snapshot (clone + append) and swap
//!   it in under the write lock; readers clone the `Arc` under the read
//!   lock, so they wait at most for one pointer-sized swap and never
//!   clone a record.
//! * [`KbSnapshot`] — a pinned generation: cheap to clone, `Deref`s to
//!   [`KnowledgeBase`], immutable forever.
//! * [`AdvisorService`] — pins exactly one snapshot per query, so every
//!   ranking is computed against a single internally consistent
//!   generation even mid-publish. A caller that wants several answers
//!   from one generation pins once and calls [`Advisor::advise`] on
//!   [`KbSnapshot::kb`] per profile.
//!
//! ## Observability
//!
//! With an `openbi-obs` registry installed the store records
//! `kb.snapshot.generation` (gauge), `kb.publish.failed_total`,
//! `kb.publish.seconds` and `kb.publish.batch_records`. A service query
//! is timed by the advisor's own `advisor.advise.seconds`.
//!
//! ## Fault injection
//!
//! Every publish checks the `kb.publish` injection point (keyed by the
//! generation it is trying to create, with a per-generation attempt
//! counter) against the store's plan or the process-global slot, before
//! the records leave the pending list. An injected error or panic
//! leaves them pending — pinned snapshots and the serving generation
//! are untouched, nothing is lost, and a later publish (or
//! [`SnapshotKnowledgeBase::flush`]) retries. On a durable store a
//! batch the write-ahead log refuses is handled the same way: it stays
//! pending and is never served.

use crate::advisor::{Advice, Advisor};
use crate::error::{KbError, Result};
use crate::record::ExperimentRecord;
use crate::store::KnowledgeBase;
use crate::wal::{
    CheckpointReport, FsyncPolicy, RecoveryReport, WalWriter, DEFAULT_SEGMENT_BYTES,
    MIN_SEGMENT_BYTES,
};
use openbi_obs as obs;
use openbi_quality::QualityProfile;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// The publish injection point: fires once per publish attempt, keyed
/// by the generation the publisher is trying to create.
pub const PUBLISH_FAULT_POINT: &str = "kb.publish";

/// A pinned, immutable knowledge-base generation.
///
/// Cloning is one reference-count bump; the underlying records are
/// shared, never copied. A snapshot stays valid (and bitwise unchanged)
/// for as long as it is held, regardless of how many generations the
/// store publishes after it.
///
/// # Examples
///
/// ```
/// use openbi_kb::{ExperimentRecord, SnapshotKnowledgeBase};
///
/// let store = SnapshotKnowledgeBase::default();
/// let pinned = store.pin();
/// store.add_batch(vec![ExperimentRecord::default()]);
/// store.flush().unwrap();
/// // The pin still serves its original generation…
/// assert_eq!(pinned.generation(), 0);
/// assert!(pinned.is_empty());
/// // …while a fresh pin sees the published record.
/// assert_eq!(store.pin().len(), 1);
/// ```
#[derive(Clone)]
pub struct KbSnapshot {
    generation: u64,
    kb: Arc<KnowledgeBase>,
}

impl KbSnapshot {
    /// The generation number this snapshot pins (0 = initial contents).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pinned knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }
}

impl std::ops::Deref for KbSnapshot {
    type Target = KnowledgeBase;

    fn deref(&self) -> &KnowledgeBase {
        &self.kb
    }
}

impl std::fmt::Debug for KbSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KbSnapshot")
            .field("generation", &self.generation)
            .field("records", &self.kb.len())
            .finish()
    }
}

/// Instrument handles for the publish path, fetched once per
/// `add_batch`/`flush` call (the usual `openbi-obs` bundle pattern).
struct PublishMetrics {
    /// `kb.snapshot.generation`: the serving generation, set on every
    /// successful publish.
    generation: Arc<obs::Gauge>,
    /// `kb.publish.failed_total`: publish attempts vetoed by the
    /// `kb.publish` injection point or refused by the write-ahead log.
    failed: Arc<obs::Counter>,
    /// `kb.publish.seconds`: write-ahead append, snapshot build + swap.
    seconds: Arc<obs::Histogram>,
    /// `kb.publish.batch_records`: records folded into one generation.
    batch_records: Arc<obs::Histogram>,
}

impl PublishMetrics {
    fn fetch() -> Option<PublishMetrics> {
        let registry = obs::global()?;
        Some(PublishMetrics {
            generation: registry.gauge("kb.snapshot.generation"),
            failed: registry.counter("kb.publish.failed_total"),
            seconds: registry.histogram("kb.publish.seconds"),
            batch_records: registry
                .histogram_with("kb.publish.batch_records", obs::default_count_buckets()),
        })
    }
}

/// Configuration for a crash-durable serving store
/// ([`SnapshotKnowledgeBase::open_durable`]) and its write-ahead log
/// ([`WalWriter::open`]): where the log lives and how eagerly it syncs.
/// The log is checkpointed by an explicit
/// [`SnapshotKnowledgeBase::checkpoint`] call.
///
/// # Examples
///
/// ```no_run
/// use openbi_kb::{DurableOptions, FsyncPolicy, SnapshotKnowledgeBase};
///
/// let options = DurableOptions::new("run/wal").fsync(FsyncPolicy::Always);
/// let (store, recovery) = SnapshotKnowledgeBase::open_durable(options).unwrap();
/// println!("recovered {} frames", recovery.frames_replayed);
/// # drop(store);
/// ```
#[derive(Debug, Clone)]
pub struct DurableOptions {
    pub(crate) wal_dir: std::path::PathBuf,
    pub(crate) segment_bytes: u64,
    pub(crate) fsync: FsyncPolicy,
    pub(crate) fault_plan: Option<Arc<openbi_faults::FaultPlan>>,
}

impl DurableOptions {
    /// Durability rooted at `wal_dir`, with the default segment size and
    /// fsync policy.
    pub fn new(wal_dir: impl Into<std::path::PathBuf>) -> DurableOptions {
        DurableOptions {
            wal_dir: wal_dir.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::default(),
            fault_plan: None,
        }
    }

    /// Rotate to a fresh segment once the current one reaches `bytes`
    /// (clamped to [`MIN_SEGMENT_BYTES`]).
    pub fn segment_bytes(mut self, bytes: u64) -> DurableOptions {
        self.segment_bytes = bytes.max(MIN_SEGMENT_BYTES);
        self
    }

    /// When appended frames reach stable storage.
    pub fn fsync(mut self, policy: FsyncPolicy) -> DurableOptions {
        self.fsync = policy;
        self
    }

    /// One explicit fault plan for both the `kb.publish` point and the
    /// `kb.wal.*` points (tests; production uses the global slot).
    pub fn fault_plan(mut self, plan: Arc<openbi_faults::FaultPlan>) -> DurableOptions {
        self.fault_plan = Some(plan);
        self
    }
}

/// The durability side-car of a [`SnapshotKnowledgeBase`]: the log
/// writer and the count of batches it refused.
struct DurableState {
    wal: WalWriter,
    wal_failures: u64,
}

/// Everything a publisher changes, behind the store's one writer lock.
/// The `kb.publish` point fires before the pending records are touched,
/// so a panic there poisons the lock with this state intact.
#[derive(Default)]
struct Writer {
    /// Records accepted but not yet folded into a snapshot.
    pending: Vec<ExperimentRecord>,
    /// `kb.publish` attempts made at creating `attempt_generation`.
    attempt_generation: u64,
    attempts: u32,
    /// Write-ahead logging, when opened via
    /// [`open_durable`](SnapshotKnowledgeBase::open_durable).
    durable: Option<DurableState>,
}

/// The knowledge-base store.
///
/// Readers ([`pin`](SnapshotKnowledgeBase::pin)) hold the read lock
/// only to clone an `Arc` and never clone a record; writers take the
/// writer lock, fold the pending records into a freshly built immutable
/// snapshot and swap it in under the write lock. See the
/// [module docs](self) for the full lifecycle and DESIGN.md §13 for the
/// consistency guarantees.
///
/// # Examples
///
/// ```
/// use openbi_kb::{ExperimentRecord, SnapshotKnowledgeBase};
///
/// let store = SnapshotKnowledgeBase::default();
/// assert_eq!(store.generation(), 0);
/// store.add_batch(vec![ExperimentRecord::default(), ExperimentRecord::default()]);
/// let generation = store.flush().unwrap();
/// assert!(generation >= 1);
/// assert_eq!(store.pin().len(), 2);
/// ```
pub struct SnapshotKnowledgeBase {
    /// The serving generation. Held only for an `Arc` clone (readers)
    /// or a swap (the publisher); the previous snapshot is dropped
    /// after the write lock is released.
    current: RwLock<KbSnapshot>,
    /// The writer state; its holder is the only thread that swaps
    /// `current`.
    writer: Mutex<Writer>,
    /// Explicit fault plan; falls back to the process-global slot.
    fault_plan: Option<Arc<openbi_faults::FaultPlan>>,
}

impl Default for SnapshotKnowledgeBase {
    fn default() -> Self {
        SnapshotKnowledgeBase::new(KnowledgeBase::new())
    }
}

impl std::fmt::Debug for SnapshotKnowledgeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotKnowledgeBase")
            .field("generation", &self.generation())
            .field("records", &self.pin().len())
            .field("pending", &self.pending_len())
            .field("durable", &self.is_durable())
            .finish()
    }
}

impl SnapshotKnowledgeBase {
    /// Serve `kb` as generation 0.
    pub fn new(kb: KnowledgeBase) -> Self {
        SnapshotKnowledgeBase {
            current: RwLock::new(KbSnapshot {
                generation: 0,
                kb: Arc::new(kb),
            }),
            writer: Mutex::new(Writer::default()),
            fault_plan: None,
        }
    }

    /// Open a **crash-durable** serving store: recover whatever the
    /// write-ahead log in `options.wal_dir` holds (checkpoint +
    /// verified replay, torn tail repaired), serve the recovered
    /// records as generation 0, and log every batch published from now
    /// on *before* its snapshot swap — write-ahead ordering, so a
    /// record is never visible to readers unless it would survive a
    /// crash (under the configured [`FsyncPolicy`]). The log gains a
    /// segment only when the first batch or checkpoint lands, so a
    /// store dropped before either leaves every file as it found it.
    ///
    /// Returns the store together with the [`RecoveryReport`] so
    /// callers can surface what was replayed, truncated, or
    /// checkpointed.
    pub fn open_durable(options: DurableOptions) -> Result<(Self, RecoveryReport)> {
        let (kb, report) = match &options.fault_plan {
            Some(plan) => crate::wal::recover::recover_with(&options.wal_dir, Some(plan))?,
            None => crate::wal::recover(&options.wal_dir)?,
        };
        let plan = options.fault_plan.clone();
        let wal = WalWriter::open(options)?;
        let mut store = SnapshotKnowledgeBase::new(kb);
        store.fault_plan = plan;
        store.lock_writer().durable = Some(DurableState {
            wal,
            wal_failures: 0,
        });
        Ok((store, report))
    }

    /// Attach an explicit fault plan for the `kb.publish` injection
    /// point. Without one, the process-global plan (if installed)
    /// applies.
    pub fn with_fault_plan(mut self, plan: Arc<openbi_faults::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Pin the current snapshot: one `Arc` clone under the read lock,
    /// no record is cloned.
    pub fn pin(&self) -> KbSnapshot {
        // Nothing can panic while the lock is held (a clone or a swap),
        // so a poisoned lock still guards a whole snapshot.
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// An owned deep copy of the serving generation, for callers that
    /// need a `KnowledgeBase` of their own (to save it, say). Prefer
    /// [`pin`](Self::pin) when a borrow suffices.
    pub fn snapshot(&self) -> KnowledgeBase {
        self.pin().kb().clone()
    }

    /// The serving generation (0 until the first publish).
    pub fn generation(&self) -> u64 {
        self.pin().generation
    }

    /// Records visible in the serving snapshot (pending records are not
    /// counted until published).
    pub fn len(&self) -> usize {
        self.pin().len()
    }

    /// True iff the serving snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.pin().is_empty()
    }

    /// Records accepted but not yet folded into a snapshot.
    pub fn pending_len(&self) -> usize {
        self.lock_writer().pending.len()
    }

    /// Append one record and publish.
    pub fn add(&self, record: ExperimentRecord) {
        self.add_batch(vec![record]);
    }

    /// Append a batch and publish it, together with anything left
    /// pending, as one new generation.
    ///
    /// The batch is always accepted. A publish vetoed by the
    /// `kb.publish` fault point, or a batch the write-ahead log
    /// refused, stays pending for a later attempt;
    /// [`flush`](SnapshotKnowledgeBase::flush) surfaces such errors,
    /// this fire-and-forget path only counts them.
    pub fn add_batch(&self, records: Vec<ExperimentRecord>) {
        if records.is_empty() {
            return;
        }
        let metrics = PublishMetrics::fetch();
        let mut writer = self.lock_writer();
        writer.pending.extend(records);
        let _ = self.publish(&mut writer, metrics.as_ref());
    }

    /// Publish everything pending; returns the serving generation.
    ///
    /// Unlike [`add_batch`](SnapshotKnowledgeBase::add_batch) this
    /// surfaces an injected `kb.publish` fault or a refused write-ahead
    /// append as an error — records stay pending and a later `flush`
    /// retries them. Call it after a grid run to guarantee every
    /// accepted record is visible.
    pub fn flush(&self) -> Result<u64> {
        let metrics = PublishMetrics::fetch();
        self.publish(&mut self.lock_writer(), metrics.as_ref())?;
        Ok(self.generation())
    }

    /// Flush everything pending, then fold the serving snapshot into a
    /// `checkpoint-<W>.jsonl` snapshot and compact the log segments it
    /// supersedes (see [`WalWriter::checkpoint`]). Returns `None` on a
    /// store opened without [`open_durable`](Self::open_durable).
    pub fn checkpoint(&self) -> Result<Option<CheckpointReport>> {
        let metrics = PublishMetrics::fetch();
        let mut writer = self.lock_writer();
        self.publish(&mut writer, metrics.as_ref())?;
        let Some(durable) = &mut writer.durable else {
            return Ok(None);
        };
        Ok(Some(durable.wal.checkpoint(&self.pin())?))
    }

    /// Whether this store write-ahead logs its publishes.
    pub fn is_durable(&self) -> bool {
        self.lock_writer().durable.is_some()
    }

    /// Batches that failed to reach the write-ahead log (each failure
    /// left its records pending and surfaced an error).
    pub fn wal_failures(&self) -> u64 {
        self.lock_writer()
            .durable
            .as_ref()
            .map_or(0, |d| d.wal_failures)
    }

    /// Take the writer lock. A panic at the `kb.publish` point poisons
    /// it with the writer state intact (see [`Writer`]), so the next
    /// writer carries on from there.
    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold every pending record into one new generation. On an
    /// injected fault — or, for a durable store, a write-ahead-log
    /// failure — the records stay pending and the serving snapshot is
    /// left untouched.
    fn publish(&self, writer: &mut Writer, metrics: Option<&PublishMetrics>) -> Result<()> {
        if writer.pending.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        // Only the writer-lock holder swaps, so `current` stays the
        // serving generation until the swap below.
        let current = self.pin();
        let next_generation = current.generation + 1;
        if let Err(e) = self.write_ahead(writer, next_generation) {
            if let Some(m) = metrics {
                m.failed.inc();
            }
            return Err(e);
        }
        let batch = std::mem::take(&mut writer.pending);
        let records = batch.len();
        let mut next = KnowledgeBase::clone(current.kb());
        next.add_batch(batch);
        let next = KbSnapshot {
            generation: next_generation,
            kb: Arc::new(next),
        };
        // The write guard is a temporary: it is released at the end of
        // this statement, before `previous` (and `current`) are dropped,
        // so no reader ever waits on a free.
        let previous = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(PoisonError::into_inner),
            next,
        );
        drop(previous);
        if let Some(m) = metrics {
            m.generation.set(next_generation as f64);
            m.batch_records.record(records as f64);
            m.seconds.record(start.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Fire `kb.publish` for `next_generation`, then — write-ahead
    /// ordering — append the pending records to the log (and, per the
    /// fsync policy, the disk) before any reader can see them. The log
    /// rolls a failed batch back physically, so no retry ever
    /// double-logs a record.
    fn write_ahead(&self, writer: &mut Writer, next_generation: u64) -> Result<()> {
        if let Some(plan) = self.fault_plan.clone().or_else(openbi_faults::active) {
            if writer.attempt_generation != next_generation {
                writer.attempt_generation = next_generation;
                writer.attempts = 0;
            }
            // Counted before firing, so a panicking attempt is spent
            // too and retry budgets (`times=N`) run out.
            let attempt = writer.attempts;
            writer.attempts = attempt.saturating_add(1);
            plan.fire(PUBLISH_FAULT_POINT, next_generation, attempt)
                .map_err(|e| KbError::Publish(e.to_string()))?;
        }
        if let Some(durable) = &mut writer.durable {
            if let Err(e) = durable.wal.append_batch(&writer.pending) {
                durable.wal_failures += 1;
                return Err(KbError::Publish(format!(
                    "write-ahead log rejected batch: {e}"
                )));
            }
        }
        Ok(())
    }
}

/// One advisor answer together with the generation it was computed on.
#[derive(Debug, Clone)]
pub struct ServedAdvice {
    /// The ranking and explanation.
    pub advice: Advice,
    /// The knowledge-base generation the ranking was computed against.
    pub generation: u64,
}

/// The serving front-end: an [`Advisor`] bound to a
/// [`SnapshotKnowledgeBase`], pinning exactly one snapshot per query so
/// every ranking is internally consistent even while publishes land
/// concurrently.
///
/// # Examples
///
/// ```
/// use openbi_kb::{Advisor, AdvisorService, ExperimentRecord, SnapshotKnowledgeBase};
/// use openbi_quality::QualityProfile;
/// use std::sync::Arc;
///
/// let store = Arc::new(SnapshotKnowledgeBase::default());
/// store.add_batch(vec![ExperimentRecord {
///     algorithm: "NaiveBayes".into(),
///     ..ExperimentRecord::default()
/// }]);
/// store.flush().unwrap();
///
/// let service = AdvisorService::new(Advisor::default(), Arc::clone(&store));
/// let served = service.advise(&QualityProfile::default()).unwrap();
/// assert_eq!(served.advice.best(), "NaiveBayes");
/// assert_eq!(served.generation, store.generation());
/// ```
#[derive(Clone)]
pub struct AdvisorService {
    advisor: Advisor,
    store: Arc<SnapshotKnowledgeBase>,
}

impl AdvisorService {
    /// Bind an advisor configuration to a snapshot store.
    pub fn new(advisor: Advisor, store: Arc<SnapshotKnowledgeBase>) -> Self {
        AdvisorService { advisor, store }
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &SnapshotKnowledgeBase {
        &self.store
    }

    /// The advisor configuration.
    pub fn advisor(&self) -> &Advisor {
        &self.advisor
    }

    /// Answer one query against a freshly pinned snapshot.
    pub fn advise(&self, profile: &QualityProfile) -> Result<ServedAdvice> {
        let snapshot = self.store.pin();
        let advice = self.advisor.advise(snapshot.kb(), profile)?;
        Ok(ServedAdvice {
            advice,
            generation: snapshot.generation(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PerfMetrics;
    use openbi_faults::{FaultPlan, FaultRule};

    fn record(dataset: &str, algorithm: &str, acc: f64) -> ExperimentRecord {
        ExperimentRecord {
            dataset: dataset.into(),
            degradations: vec![],
            profile: QualityProfile::default(),
            algorithm: algorithm.into(),
            metrics: PerfMetrics {
                accuracy: acc,
                macro_f1: acc,
                minority_f1: acc,
                kappa: acc,
                train_ms: 1.0,
                model_size: 5.0,
            },
            seed: 1,
        }
    }

    /// Queue a record without publishing it.
    fn enqueue(store: &SnapshotKnowledgeBase, record: ExperimentRecord) {
        store.lock_writer().pending.push(record);
    }

    #[test]
    fn empty_batches_do_not_publish() {
        let store = SnapshotKnowledgeBase::default();
        store.add_batch(vec![]);
        assert_eq!(store.generation(), 0);
        assert_eq!(store.pending_len(), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn add_batch_publishes_a_new_generation() {
        let store = SnapshotKnowledgeBase::default();
        store.add_batch(vec![record("d1", "a", 0.5), record("d1", "b", 0.6)]);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.pending_len(), 0);
        let pinned = store.pin();
        assert_eq!(pinned.generation(), 1);
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned.algorithms(), vec!["a", "b"]);
    }

    #[test]
    fn pinned_snapshots_are_immutable_across_publishes() {
        let store = SnapshotKnowledgeBase::default();
        store.add(record("d1", "a", 0.5));
        let pinned = store.pin();
        store.add(record("d2", "b", 0.6));
        store.add(record("d3", "c", 0.7));
        assert_eq!(pinned.generation(), 1);
        assert_eq!(pinned.len(), 1, "a pin must never see later publishes");
        assert_eq!(store.pin().len(), 3);
        assert_eq!(store.generation(), 3);
    }

    #[test]
    fn snapshot_contents_match_a_sequential_store() {
        let store = SnapshotKnowledgeBase::default();
        let mut sequential = KnowledgeBase::new();
        for i in 0..10 {
            let r = record(&format!("d{}", i % 3), "a", i as f64 / 10.0);
            sequential.add(r.clone());
            store.add(r);
        }
        store.flush().unwrap();
        assert_eq!(store.pin().records(), sequential.records());
        assert_eq!(
            store.pin().to_jsonl().unwrap(),
            sequential.to_jsonl().unwrap()
        );
    }

    #[test]
    fn flush_is_a_no_op_when_nothing_is_pending() {
        let store = SnapshotKnowledgeBase::default();
        assert_eq!(store.flush().unwrap(), 0);
        store.add(record("d", "a", 0.5));
        assert_eq!(store.flush().unwrap(), 1, "already published by add");
    }

    #[test]
    fn injected_publish_fault_preserves_pending_and_serving_state() {
        let plan = Arc::new(FaultPlan::new(7).with(FaultRule::error(PUBLISH_FAULT_POINT)));
        let store = SnapshotKnowledgeBase::default().with_fault_plan(plan);
        let pinned = store.pin();

        // The fire-and-forget path degrades: records stay pending.
        store.add_batch(vec![record("d1", "a", 0.5)]);
        assert_eq!(store.generation(), 0, "faulted publish must not swap");
        assert_eq!(store.pending_len(), 1, "faulted batch must stay queued");
        assert_eq!(pinned.len(), 0, "pinned snapshot untouched");

        // flush() surfaces the second attempt… which the times(1)
        // budget no longer vetoes, so the batch lands.
        let generation = store.flush().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(store.pin().len(), 1);
        assert_eq!(store.pending_len(), 0);
    }

    #[test]
    fn unbudgeted_publish_fault_surfaces_from_flush() {
        let plan =
            Arc::new(FaultPlan::new(7).with(FaultRule::error(PUBLISH_FAULT_POINT).times(u32::MAX)));
        let store = SnapshotKnowledgeBase::default().with_fault_plan(plan);
        store.add_batch(vec![record("d1", "a", 0.5)]);
        let err = store.flush().expect_err("every attempt is vetoed");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(matches!(err, KbError::Publish(_)));
        assert_eq!(store.pending_len(), 1, "records are never dropped");
        assert_eq!(store.generation(), 0);
    }

    #[test]
    fn faulted_batch_keeps_its_place_in_append_order() {
        let plan = Arc::new(FaultPlan::new(7).with(FaultRule::error(PUBLISH_FAULT_POINT)));
        let store = SnapshotKnowledgeBase::default().with_fault_plan(plan);
        store.add_batch(vec![record("d1", "a", 0.1)]); // faulted, stays pending
        store.add_batch(vec![record("d2", "b", 0.2)]); // the retry publishes both
        assert_eq!(store.generation(), 1);
        let pinned = store.pin();
        assert_eq!(pinned.records()[0].dataset, "d1");
        assert_eq!(pinned.records()[1].dataset, "d2");
    }

    #[test]
    fn panicking_publish_keeps_the_batch_pending() {
        let plan = Arc::new(FaultPlan::new(7).with(FaultRule::panic(PUBLISH_FAULT_POINT).times(1)));
        let store = SnapshotKnowledgeBase::default().with_fault_plan(plan);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.add_batch(vec![record("d1", "a", 0.5)])
        }));
        assert!(outcome.is_err(), "the injected panic escapes add_batch");
        assert_eq!(store.generation(), 0, "nothing was served");
        assert_eq!(store.pending_len(), 1, "the batch survives the panic");
        assert_eq!(store.flush().unwrap(), 1);
        assert_eq!(store.pin().len(), 1);
    }

    #[test]
    fn snapshot_is_an_owned_copy_of_the_serving_generation() {
        let store = SnapshotKnowledgeBase::default();
        store.add(record("d1", "a", 0.5));
        let copy = store.snapshot();
        store.add(record("d2", "b", 0.6));
        assert_eq!(copy.len(), 1);
        assert_eq!(copy.records(), &store.pin().records()[..1]);
    }

    #[test]
    fn concurrent_appends_publish_one_generation_each() {
        let store = SnapshotKnowledgeBase::default();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..25 {
                        store.add_batch(vec![record(&format!("d{t}"), "a", i as f64 / 25.0)]);
                    }
                });
            }
        });
        assert_eq!(store.pending_len(), 0, "no batch is stranded");
        let pinned = store.pin();
        assert_eq!(pinned.len(), 100);
        assert_eq!(pinned.datasets().len(), 4);
        assert_eq!(store.generation(), 100);
    }

    #[test]
    fn service_answers_from_the_pinned_generation() {
        let store = Arc::new(SnapshotKnowledgeBase::default());
        store.add_batch(vec![record("d1", "a", 0.9), record("d1", "b", 0.4)]);
        let service = AdvisorService::new(Advisor::default(), Arc::clone(&store));
        // advise() agrees with the plain Advisor on the pinned KB.
        let served = service.advise(&QualityProfile::default()).unwrap();
        let direct = Advisor::default()
            .advise(store.pin().kb(), &QualityProfile::default())
            .unwrap();
        assert_eq!(served.advice, direct);
        assert_eq!(served.advice.best(), "a");
        assert_eq!(served.generation, 1);
        assert_eq!(service.advisor().neighbors, Advisor::default().neighbors);
        assert_eq!(service.store().generation(), 1);
    }

    #[test]
    fn service_errors_on_an_empty_store() {
        let service = AdvisorService::new(
            Advisor::default(),
            Arc::new(SnapshotKnowledgeBase::default()),
        );
        assert!(matches!(
            service.advise(&QualityProfile::default()),
            Err(KbError::EmptyKnowledgeBase)
        ));
    }

    /// Readers hammering `pin` while a writer publishes must always see
    /// monotone generations whose record count matches the generation
    /// (each publish appends exactly one record here).
    #[test]
    fn concurrent_pins_see_monotone_consistent_generations() {
        const PUBLISHES: u64 = 200;
        let store = SnapshotKnowledgeBase::default();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let store = &store;
                s.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let pinned = store.pin();
                        assert_eq!(
                            pinned.len() as u64,
                            pinned.generation(),
                            "every generation holds exactly its generation-count of records"
                        );
                        assert!(pinned.generation() >= last, "generations are monotone");
                        last = pinned.generation();
                        if last == PUBLISHES {
                            return;
                        }
                    }
                });
            }
            let store = &store;
            s.spawn(move || {
                for i in 0..PUBLISHES {
                    store.add(record("d", "a", i as f64));
                }
            });
        });
        assert_eq!(store.generation(), PUBLISHES);
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "openbi-serving-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn durable_store_logs_before_it_serves_and_recovers_identically() {
        let dir = durable_dir("round-trip");
        {
            let (store, recovery) =
                SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir)).unwrap();
            assert!(store.is_durable());
            assert_eq!(recovery.frames_replayed, 0);
            store.add_batch(vec![record("d1", "a", 0.5), record("d1", "b", 0.6)]);
            store.add_batch(vec![record("d2", "a", 0.7)]);
            store.flush().unwrap();
            assert_eq!(store.len(), 3);
        }
        let (reopened, recovery) =
            SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir)).unwrap();
        assert_eq!(recovery.frames_replayed, 3);
        assert_eq!(
            reopened.generation(),
            0,
            "recovered contents are generation 0"
        );
        let pinned = reopened.pin();
        assert_eq!(pinned.len(), 3);
        assert_eq!(pinned.algorithms(), vec!["a", "b"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file in `dir` by name, with its bytes.
    fn log_files(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                (
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_durable_store_that_publishes_nothing_leaves_the_log_as_it_was() {
        let dir = durable_dir("untouched");
        let (store, _) = SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir)).unwrap();
        drop(store);
        assert!(!dir.exists(), "opening a missing log creates nothing");
        {
            let (store, _) =
                SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir)).unwrap();
            store.add(record("d1", "a", 0.5));
            store.checkpoint().unwrap();
            store.add(record("d2", "b", 0.6));
        }
        let logged = log_files(&dir);
        let (store, recovery) =
            SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir)).unwrap();
        assert_eq!((recovery.frames_replayed, store.len()), (1, 2));
        store.flush().unwrap();
        drop(store);
        assert_eq!(
            log_files(&dir),
            logged,
            "no publish and no checkpoint: every file keeps its name and bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_failure_keeps_the_batch_pending_and_readers_unharmed() {
        let dir = durable_dir("wal-fault");
        let plan = Arc::new(
            FaultPlan::new(7).with(FaultRule::error(crate::wal::SYNC_FAULT_POINT).times(1)),
        );
        let (store, _) =
            SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir).fault_plan(plan))
                .unwrap();
        enqueue(&store, record("d", "a", 0.5));
        let err = store.flush();
        assert!(matches!(err, Err(KbError::Publish(_))), "{err:?}");
        assert_eq!(store.wal_failures(), 1);
        assert_eq!(store.generation(), 0, "nothing was served");
        assert_eq!(store.pending_len(), 1, "the batch is preserved");
        // The injected fault was times=1: the retry lands.
        store.flush().unwrap();
        assert_eq!(store.pin().len(), 1);
        drop(store);
        let (kb, _) = crate::wal::recover(&dir).unwrap();
        assert_eq!(kb.len(), 1, "exactly one copy reached the log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_panic_mid_batch_rolls_back_so_the_retry_logs_each_record_once() {
        use crate::wal::APPEND_FAULT_POINT;
        let dir = durable_dir("wal-panic");
        // A plan whose panic rule passes frame 0 and fires on frame 1, so
        // the batch's first frame is already written when the panic
        // unwinds.
        let plan = (0..)
            .map(|seed| FaultPlan::new(seed).with(FaultRule::panic(APPEND_FAULT_POINT).ratio(0.5)))
            .find(|plan| {
                plan.decide(APPEND_FAULT_POINT, 0, 0).is_none()
                    && plan.decide(APPEND_FAULT_POINT, 1, 0).is_some()
            })
            .unwrap();
        let (store, _) = SnapshotKnowledgeBase::open_durable(
            DurableOptions::new(&dir).fault_plan(Arc::new(plan)),
        )
        .unwrap();
        let batch = vec![
            record("d1", "a", 0.1),
            record("d2", "b", 0.2),
            record("d3", "c", 0.3),
        ];
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.add_batch(batch)));
        assert!(outcome.is_err(), "the injected panic escapes add_batch");
        assert_eq!(store.generation(), 0, "nothing was served");
        assert_eq!(store.pending_len(), 3, "the batch stays pending");
        // The panic spent attempt 0, and the rule fires on attempt 0 only.
        store.flush().unwrap();
        assert_eq!(store.pin().len(), 3);
        drop(store);
        let (kb, _) = crate::wal::recover(&dir).unwrap();
        let mut datasets: Vec<&str> = kb.records().iter().map(|r| r.dataset.as_str()).collect();
        datasets.sort_unstable();
        assert_eq!(datasets, ["d1", "d2", "d3"], "each record logged once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_checkpoint_flushes_then_compacts() {
        let dir = durable_dir("explicit-checkpoint");
        let (store, _) = SnapshotKnowledgeBase::open_durable(DurableOptions::new(&dir)).unwrap();
        enqueue(&store, record("d", "a", 0.5));
        let report = store.checkpoint().unwrap().expect("durable store");
        assert_eq!(report.records, 1, "pending records are flushed first");
        drop(store);
        let (kb, recovery) = crate::wal::recover(&dir).unwrap();
        assert_eq!(kb.len(), 1);
        assert_eq!(recovery.checkpoint_watermark, Some(report.watermark));
        assert_eq!(
            recovery.frames_replayed, 0,
            "everything lives in the checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_durable_store_answers_the_durable_accessors() {
        let store = SnapshotKnowledgeBase::default();
        assert!(!store.is_durable());
        assert_eq!(store.checkpoint().unwrap(), None);
        assert_eq!(store.wal_failures(), 0);
    }
}
