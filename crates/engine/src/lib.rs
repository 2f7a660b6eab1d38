//! Sharded, batched, multi-threaded ingestion engine.
//!
//! The paper's estimators are small — a few kilowords — but the streams
//! they are meant for (every citation event of a corpus) are firehoses.
//! This crate turns any [`Mergeable`] estimator into a parallel
//! ingestion pipeline, structured as explicit layers:
//!
//! ```text
//!   routing layer   router.rs     item→shard assignment, batching, tick
//!   runtime core    runtime.rs    the one worker loop + lifecycle
//!   engine          lib.rs        ShardedEngine: every verb, once
//!   recovery        supervisor.rs frames, replay, heal, faults
//!   read plane      read_plane.rs epoch-published views, ReadHandle
//! ```
//!
//! ```text
//!             ┌────────────┐   bounded    ┌──────────┐
//!  updates →  │ router     │── channel ──▶│ shard 0  │ estimator clone
//!             │ (batches,  │── channel ──▶│ shard 1  │ estimator clone
//!             │  by author)│── channel ──▶│   ...    │
//!             └────────────┘              └─────┬────┘
//!                          query: snapshot + merge
//!                          publish: epoch views ─▶ aggregator ─▶ ReadHandle
//! ```
//!
//! * The caller owns a [`ShardedEngine`] and feeds items one at a time
//!   ([`ShardedEngine::ingest`]) or in slices
//!   ([`ShardedEngine::ingest_batch`]). Items accumulate in per-shard
//!   batches and are handed to worker threads over bounded channels,
//!   so a slow shard exerts backpressure instead of ballooning memory.
//! * Cash-register updates route by a hash of the paper index, so all
//!   updates to one paper land on one shard; aggregate values route
//!   round-robin. Routing is the [`Routable`] trait — any partition is
//!   correct for a [`Mergeable`] estimator, these defaults just keep
//!   related work together.
//! * Each worker owns a **clone of one seeded prototype** estimator.
//!   Cloning (rather than building per shard) is what satisfies
//!   [`Mergeable`]'s shared-randomness precondition: the linear
//!   sketches inside then merge to exactly the single-stream state.
//! * Queries are *anytime*: [`ShardedEngine::query`] flushes pending
//!   batches, snapshots every shard in place, and merges the snapshots
//!   into one estimator without stopping ingestion.
//!   [`ShardedEngine::finish`] retires the workers and returns the
//!   final merged estimator.
//! * There is **one engine type**. What happens when a worker dies is
//!   a [`Supervision`] value chosen at construction:
//!   [`Supervision::FailHard`] ([`ShardedEngine::new`]) loses the
//!   shard, [`Supervision::Restart`]
//!   ([`ShardedEngine::with_policy`]) heals it. Every verb is written
//!   once; the policy only decides what a shard's death leads to. The
//!   [`Engine`] trait names the verb set for code that must stay
//!   generic over it.
//!
//! Estimators plug in through [`BatchIngest`], which is implemented
//! automatically for every
//! [`CashRegisterEstimator`](hindex_common::CashRegisterEstimator)
//! (over `(u64, u64)` items), every
//! [`TurnstileEstimator`](hindex_common::TurnstileEstimator) (over
//! signed `(u64, i64)` items — retraction streams), and every
//! [`AggregateEstimator`](hindex_common::AggregateEstimator) (over
//! `u64` items) — including their `ingest_batch` fast paths, which is
//! where the engine's throughput comes from on key-skewed streams.
//!
//! # The read plane
//!
//! An engine built with
//! [`EngineConfigBuilder::publish_interval`] additionally *publishes*:
//! every `interval` routed items the router flushes its partial
//! batches and threads an epoch marker through every shard's channel;
//! the shards' state clones are merged off-thread and swapped into an
//! epoch-versioned cell that any number of cloned [`ReadHandle`]s
//! query with `&self` — concurrent readers never block the router or
//! each other, and every published view is bit-identical to an
//! on-demand merge at the view's recorded offset. See
//! [`read_plane`](crate::ReadHandle) and `docs/ENGINE.md` for the
//! epoch/staleness contract.
//!
//! # Concurrency audit
//!
//! The engine's correctness argument has exactly three legs, each
//! checked mechanically (see `tests/engine_schedules.rs` and the
//! Miri/TSan stages in `scripts/check.sh`):
//!
//! 1. **Per-shard FIFO.** Each shard's channel delivers its batches in
//!    send order, so a shard's estimator sees a deterministic
//!    sub-stream: routing is a pure function of `(item, tick)` and the
//!    router runs single-threaded. Read-plane markers ride the same
//!    FIFO, so a shard's epoch contribution covers exactly the batches
//!    dispatched before the marker.
//! 2. **Cross-shard order freedom.** Shards interleave arbitrarily, but
//!    every pluggable estimator is [`Mergeable`] over *commutative,
//!    exact* state (field addition, counter addition), so any
//!    interleaving of per-shard prefixes merges to the same bits. The
//!    deterministic-schedule stress test replays seeded interleavings
//!    single-threaded and asserts bit-identical merged state.
//! 3. **No shared mutable state.** Workers own their estimator clones;
//!    the only cross-thread traffic is by-value message passing
//!    (`sync_channel`) plus the read plane's epoch cell (a monotone
//!    atomic over `Arc`-swapped immutable views), queries clone a
//!    snapshot rather than lock, and `#![forbid(unsafe_code)]` (lint
//!    L4) rules out hand-rolled sharing. A worker that panics poisons
//!    nothing: under [`Supervision::FailHard`] the engine marks the
//!    shard dead, harvests the panic payload, and `finish`/`query`
//!    return [`EngineError::ShardDead`] carrying it — the shard's
//!    updates are lost, so no exact answer exists. Callers that prefer
//!    a lossy answer over none opt in explicitly via
//!    [`ShardedEngine::query_degraded`] /
//!    [`ShardedEngine::finish_degraded`], which merge the surviving
//!    shards and report which ones are missing.
//!
//! # Crash recovery
//!
//! [`ShardedEngine::checkpoint`] flushes, snapshots every shard, and
//! packages the states with the engine geometry and the stream offset
//! (items routed so far) into an [`EngineCheckpoint`] — a
//! [`Snapshot`]-serialisable value when the estimator is.
//! [`ShardedEngine::restore`] validates the checkpoint and respawns the
//! workers from those states; replaying the stream from
//! [`EngineCheckpoint::stream_offset`] then reproduces the never-killed
//! run bit for bit (routing is a pure function of `(item, tick)` and
//! the tick is part of the checkpoint).
//!
//! # Self-healing
//!
//! Under [`Supervision::Restart`] each shard carries a recovery
//! record: per-shard micro-checkpoints every
//! [`SupervisorConfig::checkpoint_interval`] batches (encoded on the
//! worker thread, so the router never stalls), a bounded replay log of
//! batches since the shard's last micro-checkpoint, and restart and
//! fault state. On worker death the engine respawns the shard from its
//! checkpoint and replays the log — bit-identical to an uninterrupted
//! run. A deterministic, seeded [`FaultPlan`] injects worker kills,
//! send failures, stalls, and checkpoint corruption for chaos testing
//! (`hindex engine --faults`). See `docs/RECOVERY.md` for the
//! supervision state machine and the degradation ladder.
//!
//! # Observability
//!
//! Attach an [`EngineObserver`](hindex_obs::EngineObserver) via
//! [`EngineConfig::builder`] and the engine reports per-shard item
//! counts and queue depths, batch-size statistics, routing skew,
//! degraded-query counts, and checkpoint/restore timings — plus a
//! deterministic event trace with logical timestamps. Every hook is
//! fired from the router thread (never from workers), so for a fixed
//! input and seed the counters and the event sequence are
//! bit-reproducible; wall-clock durations live only in latency
//! histograms, which the determinism suite ignores. (The read plane's
//! completion gauge and reader counters are the documented exception:
//! they fire from the aggregator and reader threads and are excluded
//! from determinism diffs, like queue depths.) An uninstrumented
//! engine pays one branch-on-`None` per batch boundary — the
//! `obs_overhead` bench group holds this under 5%.
//! [`ShardedEngine::report`] packages a query, the approximation
//! contract, space, degradation, and the metrics snapshot into one
//! typed [`QueryReport`] for CLI/bench boundaries.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checkpoint;
mod config;
mod error;
pub mod faults;
mod read_plane;
mod replay;
mod router;
mod runtime;
mod supervisor;

pub use checkpoint::EngineCheckpoint;
pub use config::{EngineConfig, EngineConfigBuilder, SupervisorConfig};
pub use error::{EngineError, QueryReport};
pub use faults::{FaultKind, FaultPlan};
pub use hindex_common::{Degraded, Engine};
pub use read_plane::{ReadHandle, ReadView};
pub use router::{mix64, Routable};
pub use supervisor::{SupervisedEngine, Supervision};

use error::panic_message;
use hindex_common::{
    AggregateEstimator, BankCounters, CashRegisterEstimator, Estimate, Guarantee, Mergeable,
    Snapshot, SpaceUsage, TurnstileEstimator,
};
use hindex_obs::Stopwatch;
use read_plane::ReadPlane;
use router::Router;
use runtime::{merge_all, spawn_worker, Command, Lineage, WorkerCtx};
use std::sync::mpsc::{Receiver, SyncSender};
use std::thread::JoinHandle;
use supervisor::{Frame, Recovery, Supervisor};

/// Batched ingestion of stream items of type `T`.
///
/// Blanket-implemented for the workspace's estimator traits; implement
/// it directly only for custom item types.
pub trait BatchIngest<T> {
    /// Ingests one batch, semantically equivalent to ingesting each
    /// item in order.
    fn apply_batch(&mut self, batch: &[T]);

    /// Bank-kernel telemetry the estimator accumulated, if it exposes
    /// any — surfaced through the attached
    /// [`EngineObserver`](hindex_obs::EngineObserver) when a query
    /// merges shard states. Default: none.
    fn bank_counters(&self) -> Option<BankCounters> {
        None
    }
}

impl<E: CashRegisterEstimator> BatchIngest<(u64, u64)> for E {
    fn apply_batch(&mut self, batch: &[(u64, u64)]) {
        self.ingest_batch(batch);
    }

    fn bank_counters(&self) -> Option<BankCounters> {
        CashRegisterEstimator::bank_counters(self)
    }
}

impl<E: AggregateEstimator> BatchIngest<u64> for E {
    fn apply_batch(&mut self, batch: &[u64]) {
        self.ingest_batch(batch);
    }
}

impl<E: TurnstileEstimator> BatchIngest<(u64, i64)> for E {
    fn apply_batch(&mut self, batch: &[(u64, i64)]) {
        self.ingest_batch(batch);
    }
}

/// A multi-threaded sharded ingestion pipeline around a [`Mergeable`]
/// estimator. What a worker's death leads to is the [`Supervision`]
/// policy it was built with: [`ShardedEngine::new`] fails hard,
/// [`ShardedEngine::with_policy`] takes either policy.
///
/// ```
/// use hindex_common::{CashRegisterEstimator, Estimate, SpaceUsage};
/// use hindex_baseline::CashTable;
/// use hindex_engine::{EngineConfig, ShardedEngine};
///
/// let config = EngineConfig::builder().shards(4).build().unwrap();
/// let mut engine = ShardedEngine::new(config, CashTable::new());
/// for k in 0..10_000u64 {
///     engine.ingest((k % 300, 1));
/// }
/// let snapshot = engine.query().unwrap(); // anytime: ingestion keeps running
/// assert!(snapshot.estimate() > 0);
/// let exact = engine.finish().unwrap();
/// assert_eq!(exact.estimate(), 34); // 100 papers at 34, 200 at 33
/// ```
///
/// Attach an [`EngineObserver`](hindex_obs::EngineObserver) through
/// the builder to get metrics, traces, and a [`QueryReport`] — see the
/// crate docs and `docs/OBSERVABILITY.md`. Configure a
/// `publish_interval` and clone [`ShardedEngine::read_handle`] into
/// reader threads for lock-free concurrent queries.
pub struct ShardedEngine<E, T> {
    config: EngineConfig,
    /// Routing + batching + stream offset.
    router: Router<T>,
    shards: Vec<Shard<E, T>>,
    /// Engine-wide supervision state; `None` = [`Supervision::FailHard`].
    supervisor: Option<Supervisor<E>>,
    /// The read plane, when `publish_interval` is configured. Dropped
    /// after the workers are joined (see `Drop`), which is what lets
    /// the aggregator drain and exit.
    plane: Option<ReadPlane<E>>,
}

/// One shard: its current worker lineage and its fate.
struct Shard<E, T> {
    /// The live lineage's command channel; `None` while the lineage is
    /// down, retired, or the shard is dead.
    sender: Option<SyncSender<Command<E, T>>>,
    handle: Option<JoinHandle<E>>,
    /// Worker deaths harvested so far (panics, not clean retirements).
    deaths: u64,
    /// The most recent harvested panic payload.
    panic: Option<String>,
    /// Whether the shard is gone for good: its updates are lost and
    /// strict verbs refuse to answer.
    dead: bool,
    /// What strict verbs report for a dead shard, when it is known.
    reason: Option<String>,
    /// Micro-checkpoints, replay log, and restart/fault state; `None`
    /// under [`Supervision::FailHard`].
    recovery: Option<Recovery<T>>,
}

/// Indices of the shards a snapshot round or retirement got no state
/// from.
fn missing<E>(states: &[Option<E>]) -> Vec<usize> {
    states
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect()
}

impl<E, T> ShardedEngine<E, T>
where
    E: BatchIngest<T> + Mergeable + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    /// Spawns a [`Supervision::FailHard`] engine: worker shards each
    /// owning a clone of `prototype`.
    ///
    /// The prototype carries the randomness every shard shares — build
    /// it once from a seeded RNG (e.g. via
    /// [`EstimatorParams::build`](hindex_common::EstimatorParams::build))
    /// and hand it over.
    ///
    /// # Panics
    ///
    /// Panics if any [`EngineConfig`] field is zero.
    #[must_use]
    pub fn new(config: EngineConfig, prototype: E) -> Self {
        let states = (0..config.shards.max(1)).map(|_| prototype.clone()).collect();
        Self::spawn(config, None, states, 0)
    }

    /// Spawns an engine under the given [`Supervision`] policy. The
    /// `Snapshot` bound is what [`Supervision::Restart`] encodes its
    /// micro-checkpoints with.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when the engine config or the
    /// policy's [`SupervisorConfig`] fails validation (this
    /// constructor never panics on geometry).
    pub fn with_policy(
        config: EngineConfig,
        supervision: Supervision,
        prototype: E,
    ) -> Result<Self, EngineError>
    where
        E: Snapshot,
    {
        config.validate()?;
        let supervisor = supervision.supervisor()?;
        let states = (0..config.shards).map(|_| prototype.clone()).collect();
        Ok(Self::spawn(config, supervisor, states, 0))
    }

    /// Respawns a [`Supervision::FailHard`] engine from a
    /// [`ShardedEngine::checkpoint`]: one worker per checkpointed shard
    /// state, with the stream offset restored, so replaying the input
    /// from [`EngineCheckpoint::stream_offset`] continues the original
    /// run bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] when the checkpoint's
    /// geometry is hostile (zero fields, a shard-state count that
    /// disagrees with it) or a re-attached observer is sized for a
    /// different shard count. That validation happens before any
    /// thread is spawned. It does not compare the shard states'
    /// estimator parameters: states built under different parameters
    /// still panic at the first merge (a query, publish, or `finish`).
    pub fn restore(checkpoint: EngineCheckpoint<E>) -> Result<Self, EngineError> {
        let sw = Stopwatch::start();
        checkpoint.validate()?;
        let shard_states = checkpoint.shards.len() as u64;
        let engine = Self::spawn(checkpoint.config, None, checkpoint.shards, checkpoint.tick);
        if let Some(o) = &engine.config.observer {
            o.on_restore(engine.router.tick(), shard_states, sw.elapsed_nanos());
        }
        Ok(engine)
    }

    fn spawn(
        config: EngineConfig,
        supervisor: Option<Supervisor<E>>,
        states: Vec<E>,
        tick: u64,
    ) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch_size >= 1, "batch_size must be positive");
        assert!(config.queue_depth >= 1, "queue_depth must be positive");
        assert_eq!(states.len(), config.shards, "one state per shard");
        let plane = config
            .publish_interval
            .map(|interval| ReadPlane::new(config.shards, interval, config.observer.clone()));
        let mut engine = Self {
            router: Router::new(config.shards, config.batch_size, tick),
            shards: Vec::with_capacity(config.shards),
            supervisor,
            plane,
            config,
        };
        for (shard, state) in states.into_iter().enumerate() {
            let (lineage, frames) = engine.spawn_lineage(shard, state, 0);
            let recovery = frames.zip(engine.supervisor.as_ref()).map(|(frames, sup)| {
                Recovery::new(frames, sup.config.max_replay_words)
            });
            engine.shards.push(Shard {
                sender: Some(lineage.sender),
                handle: Some(lineage.handle),
                deaths: 0,
                panic: None,
                dead: false,
                reason: None,
                recovery,
            });
        }
        engine
    }

    /// Spawns one worker lineage for `shard` on the shared runtime,
    /// `base` batches into its stream. Under [`Supervision::Restart`]
    /// the lineage also emits micro-checkpoint frames, returned here as
    /// the channel to drain.
    fn spawn_lineage(
        &self,
        shard: usize,
        state: E,
        base: u64,
    ) -> (Lineage<E, T>, Option<Receiver<Frame>>) {
        let (on_applied, frames) = match &self.supervisor {
            Some(sup) => {
                let (hook, frames) = sup.frame_hook(base);
                (Some(hook), Some(frames))
            }
            None => (None, None),
        };
        let ctx = WorkerCtx {
            shard,
            on_applied,
            views: self.plane.as_ref().and_then(ReadPlane::view_sender),
        };
        (spawn_worker(self.config.queue_depth, state, base, ctx), frames)
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Routes one item to its shard; hands the shard's batch to the
    /// worker when it reaches `batch_size` (blocking if that shard's
    /// queue is full), and publishes a read-plane epoch when one is
    /// due.
    pub fn ingest(&mut self, item: T) {
        if let Some((shard, batch)) = self.router.push(item) {
            self.dispatch(shard, batch);
        }
        if self.plane.as_ref().is_some_and(|p| p.due(self.router.tick())) {
            let _ = self.publish_now();
        }
    }

    /// Ingests every item of a slice, then notes the batch in the
    /// observer (one `PushBatch` event per call, not per item).
    pub fn ingest_batch(&mut self, items: &[T])
    where
        T: Copy,
    {
        for &item in items {
            self.ingest(item);
        }
        if let Some(o) = &self.config.observer {
            o.on_push_batch(self.router.tick(), items.len() as u64);
        }
    }

    /// Sends all pending partial batches to their shards. Under
    /// [`Supervision::Restart`] it also fires due faults on shards with
    /// nothing pending, so a planned kill fires even on a shard that
    /// gets no further traffic.
    pub fn flush(&mut self) {
        for shard in 0..self.config.shards {
            if let Some(o) = &self.config.observer {
                o.on_queue_depth(shard, self.router.pending(shard) as u64);
            }
            match self.router.take(shard) {
                Some(batch) => self.dispatch(shard, batch),
                None if !self.shards[shard].dead => self.apply_faults(shard),
                None => {}
            }
        }
        if let Some(plane) = &self.plane {
            plane.note_offset(self.router.tick());
        }
    }

    /// A cloneable, `&self` handle onto the engine's published views,
    /// or `None` when the engine was built without a
    /// `publish_interval`. Clone it into as many reader threads as you
    /// like; see [`ReadHandle`].
    #[must_use]
    pub fn read_handle(&self) -> Option<ReadHandle<E>> {
        self.plane.as_ref().map(ReadPlane::handle)
    }

    /// Forces a read-plane publish at the current stream offset and
    /// returns the epoch issued, or `None` when the engine has no read
    /// plane. The epoch completes asynchronously — pair with
    /// [`ReadHandle::wait_for_epoch`] when the completed view is
    /// needed. Flushes first, so the published view covers exactly
    /// [`Self::stream_offset`] items.
    ///
    /// Under [`Supervision::Restart`] down lineages are healed first,
    /// and the publish is skipped (`None`) while any shard is terminal:
    /// a supervised engine never publishes a degraded view.
    pub fn publish_now(&mut self) -> Option<u64> {
        self.plane.as_ref()?;
        self.flush();
        if self.supervisor.is_some() {
            for shard in 0..self.config.shards {
                self.ensure_live(shard);
            }
            if self.shards.iter().any(|s| s.dead) {
                return None;
            }
        }
        let offset = self.router.tick();
        let epoch = self.plane.as_mut()?.begin_epoch(offset);
        for shard in 0..self.config.shards {
            // Dead shards have no sender: an incomplete epoch is never
            // published.
            let Some(tx) = &self.shards[shard].sender else { continue };
            // A failed send means the worker died holding the marker:
            // the epoch stays incomplete and the aggregator discards
            // it. Fail-hard loses the shard here; a supervised engine
            // heals it at the next dispatch.
            if tx.send(Command::Publish { epoch, offset }).is_err() && self.supervisor.is_none() {
                self.lose_worker(shard);
            }
        }
        Some(epoch)
    }

    /// Anytime query: flushes, snapshots every shard *in place* (the
    /// workers keep running), and merges the snapshots into a single
    /// estimator equivalent to one that ingested everything pushed so
    /// far. Returns [`EngineError::ShardDead`] if any shard's updates
    /// are lost — an exact answer no longer exists; see
    /// [`Self::query_degraded`] for the explicit lossy alternative.
    pub fn query(&mut self) -> Result<E, EngineError> {
        self.flush();
        let states = self.snapshot_states();
        self.strict(&states)?;
        if let Some(o) = &self.config.observer {
            o.on_merge(self.router.tick(), self.config.shards as u64);
        }
        let merged = merge_all(states).ok_or(EngineError::AllShardsDead)?;
        self.observe_bank(&merged);
        Ok(merged)
    }

    /// Surfaces the merged estimator's bank-kernel totals to the
    /// observer (router thread, query boundary). A no-op for
    /// estimators without a bank path or when the kernel never ran.
    fn observe_bank(&self, merged: &E) {
        if let Some(o) = &self.config.observer {
            if let Some(bank) = merged.bank_counters() {
                if !bank.is_empty() {
                    o.on_bank_batch(self.router.tick(), &bank);
                }
            }
        }
    }

    /// Lossy anytime query: merges whatever shards still answer and
    /// reports the missing ones. Only errs when *no* shard survives.
    pub fn query_degraded(&mut self) -> Result<Degraded<E>, EngineError> {
        self.flush();
        let states = self.snapshot_states();
        self.merge_degraded(states)
    }

    fn merge_degraded(&mut self, states: Vec<Option<E>>) -> Result<Degraded<E>, EngineError> {
        let dead_shards = missing(&states);
        if let Some(o) = &self.config.observer {
            let live = self.config.shards - dead_shards.len();
            o.on_merge(self.router.tick(), live as u64);
            if !dead_shards.is_empty() {
                o.on_query_degraded(self.router.tick(), dead_shards.len() as u64);
            }
        }
        let estimator = merge_all(states).ok_or(EngineError::AllShardsDead)?;
        self.observe_bank(&estimator);
        Ok(Degraded { estimator, dead_shards })
    }

    /// Lossy anytime query packaged as a typed [`QueryReport`]:
    /// estimate, contract, space, degradation, and (when an observer
    /// is attached) a metrics snapshot — the one value reporting
    /// boundaries should hand on. `contract` is the guarantee the
    /// prototype estimator was built under; pass `None` for exact
    /// baselines. One snapshot round serves both the merge and the
    /// space figure. Always a *fresh* synchronous merge; for the
    /// published-view flavour (with epoch and staleness filled in) see
    /// [`ReadHandle::report`].
    pub fn report(&mut self, contract: Option<Guarantee>) -> Result<QueryReport, EngineError>
    where
        E: Estimate + SpaceUsage,
    {
        self.flush();
        let states = self.snapshot_states();
        let space_words = self.space_of(&states);
        let degraded = self.merge_degraded(states)?;
        Ok(QueryReport {
            estimate: degraded.estimator.estimate(),
            approx_contract: contract,
            space_words,
            degraded: degraded.dead_shards,
            epoch: None,
            staleness: 0,
            obs: self.config.observer.as_ref().map(|o| Box::new(o.snapshot())),
        })
    }

    /// Checkpoint for crash recovery: flushes, snapshots every shard,
    /// and returns the per-shard states together with the geometry and
    /// the stream offset. Strict like [`Self::query`] — a checkpoint
    /// taken after a shard died would silently drop that shard's
    /// history on restore. Supervision state (replay logs, restart
    /// budgets) is transient and not persisted, so a checkpoint of
    /// either policy restores through [`Self::restore`].
    pub fn checkpoint(&mut self) -> Result<EngineCheckpoint<E>, EngineError> {
        let sw = Stopwatch::start();
        self.flush();
        let states = self.snapshot_states();
        self.strict(&states)?;
        let shards: Vec<E> = states.into_iter().flatten().collect();
        if let Some(o) = &self.config.observer {
            o.on_checkpoint(self.router.tick(), shards.len() as u64, sw.elapsed_nanos());
        }
        Ok(EngineCheckpoint {
            config: self.config.clone(),
            tick: self.router.tick(),
            shards,
        })
    }

    /// Items routed so far (pushed, whether or not yet ingested). After
    /// a [`Self::restore`], replay the input stream from this offset.
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.router.tick()
    }

    /// Retires the engine: flushes, joins all workers, and returns the
    /// merged final estimator. Returns [`EngineError::ShardDead`] if
    /// any shard's updates were lost along the way (see
    /// [`Self::finish_degraded`]).
    pub fn finish(mut self) -> Result<E, EngineError> {
        let states = self.join_workers();
        self.strict(&states)?;
        merge_all(states).ok_or(EngineError::AllShardsDead)
    }

    /// Lossy retirement: merges the shards that survived and reports
    /// the dead ones. Only errs when no shard survives.
    pub fn finish_degraded(mut self) -> Result<Degraded<E>, EngineError> {
        let states = self.join_workers();
        let dead_shards = missing(&states);
        let estimator = merge_all(states).ok_or(EngineError::AllShardsDead)?;
        Ok(Degraded { estimator, dead_shards })
    }

    /// Flushes, heals what can be healed, closes every channel (so the
    /// workers drain their queues concurrently), and joins the workers
    /// in shard order (`None` = dead).
    fn join_workers(&mut self) -> Vec<Option<E>> {
        self.flush();
        for shard in 0..self.config.shards {
            self.ensure_live(shard);
        }
        for s in &mut self.shards {
            s.sender = None;
        }
        (0..self.config.shards).map(|shard| self.final_state(shard)).collect()
    }

    /// Joins `shard`'s retiring worker for its final state. A worker
    /// that dies on its last batches is healed and retired again under
    /// [`Supervision::Restart`] (until the budget gives out); under
    /// fail-hard the shard is lost.
    fn final_state(&mut self, shard: usize) -> Option<E> {
        debug_assert!(shard < self.shards.len(), "shard index within the geometry");
        loop {
            if self.shards[shard].dead {
                return None;
            }
            let s = &mut self.shards[shard];
            s.sender = None; // a healed lineage retires too
            let Some(handle) = s.handle.take() else {
                self.terminal(shard, "worker lineage unavailable at finish");
                return None;
            };
            match handle.join() {
                Ok(state) => {
                    self.drain_frames(shard); // final frame accounting
                    return Some(state);
                }
                Err(payload) => {
                    self.note_panic(shard, panic_message(payload.as_ref()));
                    self.drain_frames(shard);
                    if !self.recover(shard) {
                        return None;
                    }
                }
            }
        }
    }

    /// Items buffered locally, not yet handed to any worker.
    #[must_use]
    pub fn buffered_items(&self) -> usize {
        self.router.buffered_items()
    }

    /// Indices of shards whose updates are lost for good.
    #[must_use]
    pub fn dead_shard_indices(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.dead.then_some(i))
            .collect()
    }

    /// The strict verbs' gate: the first dead shard as a
    /// reason-carrying error, or the first shard the round got no state
    /// from.
    fn strict(&self, states: &[Option<E>]) -> Result<(), EngineError> {
        if let Some(shard) = self.shards.iter().position(|s| s.dead) {
            let reason = self.shards.get(shard).and_then(|s| s.reason.clone());
            return Err(EngineError::ShardDead { shard, reason });
        }
        match states.iter().position(Option::is_none) {
            Some(shard) => Err(EngineError::shard_dead(shard)),
            None => Ok(()),
        }
    }

    /// Records a harvested panic payload and traces the death.
    fn note_panic(&mut self, shard: usize, reason: String) {
        debug_assert!(shard < self.shards.len(), "shard index within the geometry");
        let s = &mut self.shards[shard];
        s.deaths += 1;
        s.panic = Some(reason);
        if let Some(o) = &self.config.observer {
            o.on_shard_panicked(self.router.tick(), shard, s.deaths);
        }
    }

    /// Closes `shard`'s channel and joins its worker, harvesting the
    /// panic payload, then drains the frames it emitted. Call only once
    /// a send or receive on the channel has failed (or a poison or
    /// retirement was queued): the worker has exited or is about to,
    /// so the join cannot block.
    fn join_lineage(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index within the geometry");
        let s = &mut self.shards[shard];
        s.sender = None;
        if let Some(handle) = s.handle.take() {
            // A clean exit (an injected send failure retires the
            // lineage) leaves nothing to harvest; the frames and the
            // log carry its history.
            if let Err(payload) = handle.join() {
                self.note_panic(shard, panic_message(payload.as_ref()));
            }
        }
        self.drain_frames(shard);
    }

    /// What a harvested death leads to: a heal under
    /// [`Supervision::Restart`] (`true` once live again), and under
    /// fail-hard straight to terminal with the harvested panic message
    /// as the reason.
    fn recover(&mut self, shard: usize) -> bool {
        debug_assert!(shard < self.shards.len(), "shard index within the geometry");
        if self.supervisor.is_some() {
            return self.heal(shard);
        }
        let s = &mut self.shards[shard];
        s.dead = true;
        s.reason = s.panic.clone();
        false
    }

    /// A send or receive on `shard`'s channel failed, so its worker has
    /// exited: harvest it and [`Self::recover`].
    fn lose_worker(&mut self, shard: usize) -> bool {
        self.join_lineage(shard);
        self.recover(shard)
    }

    /// Hands a batch to a worker. The flush is recorded **only after**
    /// the handoff succeeds — a batch dropped on a dead shard fires
    /// `on_batch_lost` instead, so flushed-item telemetry never counts
    /// updates that no estimator ingested.
    fn dispatch(&mut self, shard: usize, batch: Vec<T>) {
        // Callers pass either a loop index over `0..config.shards` or
        // a `route(shards, …)` result; both are < shards by contract.
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let len = batch.len() as u64;
        let full = batch.len() >= self.config.batch_size;
        if self.shards[shard].dead {
            if let Some(o) = &self.config.observer {
                o.on_batch_lost(self.router.tick(), shard, len);
            }
            return;
        }
        let Some(batch) = self.log_batch(shard, batch) else { return };
        let sent = self.shards[shard]
            .sender
            .as_ref()
            .is_some_and(|tx| tx.send(Command::Batch(batch)).is_ok());
        if sent {
            self.mark_delivered(shard);
            if let Some(o) = &self.config.observer {
                o.on_flush(self.router.tick(), shard, len, full);
            }
            if let Some(plane) = &self.plane {
                plane.note_offset(self.router.tick());
            }
        } else if !self.lose_worker(shard) && self.supervisor.is_none() {
            // Fail-hard: the batch is lost with its shard. (Supervised,
            // the heal's replay redelivered this logged batch, or the
            // terminal rung counted it lost.)
            if let Some(o) = &self.config.observer {
                o.on_batch_lost(self.router.tick(), shard, len);
            }
        }
    }

    /// Requests an in-place snapshot from `shard`'s live worker; `None`
    /// when the shard is dead, down, or the request could not be sent.
    fn request_snapshot(&self, shard: usize) -> Option<Receiver<E>> {
        let tx = self.shards.get(shard)?.sender.as_ref()?;
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        tx.send(Command::Snapshot(reply_tx)).ok()?;
        Some(reply_rx)
    }

    /// Snapshots every shard in place, in shard order (`None` = no
    /// state). Requests are *pipelined*: all go out before any reply is
    /// awaited, so the shards clone concurrently and a query stalls
    /// ingestion for one clone's worth of time, not `shards` of them.
    fn collect_states(&self) -> Vec<Option<E>> {
        let replies: Vec<_> =
            (0..self.config.shards).map(|shard| self.request_snapshot(shard)).collect();
        replies
            .into_iter()
            .map(|rx| rx.and_then(|rx| rx.recv().ok()))
            .collect()
    }

    /// One snapshot round for both policies: heal down lineages, collect
    /// every state, then deal with shards whose reply failed — their
    /// worker died. Under [`Supervision::Restart`] such a shard is
    /// healed and asked once more; under fail-hard it is marked dead.
    fn snapshot_states(&mut self) -> Vec<Option<E>> {
        for shard in 0..self.config.shards {
            self.ensure_live(shard);
        }
        let mut states = self.collect_states();
        for (shard, state) in states.iter_mut().enumerate() {
            if state.is_none() && !self.shards[shard].dead && self.lose_worker(shard) {
                *state = self.request_snapshot(shard).and_then(|rx| rx.recv().ok());
            }
        }
        states
    }

    /// Space of the pipeline given one snapshot round's `states`.
    ///
    /// * Fail-hard: the live shard states, plus the latest published
    ///   read-plane view, if any.
    /// * Restart: the retained micro-checkpoint frames stand in for the
    ///   shard states (`states` is ignored); the replay logs are
    ///   [`SpaceUsage::scratch_words`], not space.
    ///
    /// Both add the bounded channel capacity and the router's local
    /// buffers, one word per item slot.
    fn space_of(&self, states: &[Option<E>]) -> usize
    where
        E: SpaceUsage,
    {
        let item_words = std::mem::size_of::<T>().div_ceil(std::mem::size_of::<u64>());
        let channel_words =
            self.config.shards * self.config.queue_depth * self.config.batch_size * item_words;
        let pipeline_words = channel_words + self.buffered_items() * item_words;
        if self.supervisor.is_some() {
            let frame_words: usize = self
                .shards
                .iter()
                .filter_map(|s| s.recovery.as_ref())
                .map(Recovery::frame_words)
                .sum();
            return frame_words + pipeline_words;
        }
        let shard_words: usize = states.iter().flatten().map(SpaceUsage::space_words).sum();
        let view_words = self
            .plane
            .as_ref()
            .and_then(|p| p.handle().query())
            .map_or(0, |v| v.estimator().space_words());
        shard_words + pipeline_words + view_words
    }
}

/// The [`Engine`] verb set, delegating to the inherent methods.
impl<E, T> Engine<T> for ShardedEngine<E, T>
where
    E: BatchIngest<T> + Mergeable + Estimate + SpaceUsage + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    type Output = E;
    type Error = EngineError;
    type Checkpoint = EngineCheckpoint<E>;
    type Report = QueryReport;

    fn ingest(&mut self, item: T) {
        ShardedEngine::ingest(self, item);
    }

    fn ingest_batch(&mut self, items: &[T])
    where
        T: Copy,
    {
        ShardedEngine::ingest_batch(self, items);
    }

    fn flush(&mut self) {
        ShardedEngine::flush(self);
    }

    fn query(&mut self) -> Result<E, EngineError> {
        ShardedEngine::query(self)
    }

    fn query_degraded(&mut self) -> Result<Degraded<E>, EngineError> {
        ShardedEngine::query_degraded(self)
    }

    fn report(&mut self, contract: Option<Guarantee>) -> Result<QueryReport, EngineError> {
        ShardedEngine::report(self, contract)
    }

    fn checkpoint(&mut self) -> Result<EngineCheckpoint<E>, EngineError> {
        ShardedEngine::checkpoint(self)
    }

    fn finish(self) -> Result<E, EngineError> {
        ShardedEngine::finish(self)
    }

    fn finish_degraded(self) -> Result<Degraded<E>, EngineError> {
        ShardedEngine::finish_degraded(self)
    }

    fn stream_offset(&self) -> u64 {
        ShardedEngine::stream_offset(self)
    }

    fn dead_shard_indices(&self) -> Vec<usize> {
        ShardedEngine::dead_shard_indices(self)
    }
}

/// Space of the whole pipeline, by the policy's formula (see
/// `space_of`): steady-state space in `space_words`, the supervised
/// replay logs — bounded transient state that exists only to make
/// recovery exact — in `scratch_words`.
impl<E, T> SpaceUsage for ShardedEngine<E, T>
where
    E: BatchIngest<T> + Mergeable + Clone + Send + Sync + SpaceUsage + 'static,
    T: Routable + Clone + Send + 'static,
{
    fn space_words(&self) -> usize {
        // Only the fail-hard formula reads the shard states.
        let states = match self.supervisor {
            Some(_) => Vec::new(),
            None => self.collect_states(),
        };
        self.space_of(&states)
    }

    fn scratch_words(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.recovery.as_ref())
            .map(Recovery::log_words)
            .sum()
    }
}

impl<E, T> Drop for ShardedEngine<E, T> {
    fn drop(&mut self) {
        for s in &mut self.shards {
            s.sender = None;
        }
        for s in &mut self.shards {
            if let Some(handle) = s.handle.take() {
                let _ = handle.join();
            }
        }
        // `plane` drops with the struct, after the joins above — its
        // Drop joins the aggregator, which by then has no live sender.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_baseline::CashTable;
    use hindex_common::{Epsilon, Estimate, Snapshot};
    use hindex_core::ExponentialHistogram;

    fn staircase_updates(papers: u64, rounds: u64) -> Vec<(u64, u64)> {
        // Interleaved unit updates: paper p ends with `rounds` total.
        (0..rounds)
            .flat_map(|_| (0..papers).map(|p| (p, 1)))
            .collect()
    }

    #[test]
    fn cash_engine_matches_serial_exactly() {
        let updates = staircase_updates(50, 40); // h* = 40
        let mut serial = CashTable::new();
        for &(i, z) in &updates {
            serial.ingest(i, z);
        }
        for shards in [1usize, 2, 3, 8] {
            let config = EngineConfig {
                shards,
                batch_size: 64,
                queue_depth: 2,
                ..EngineConfig::default()
            };
            let mut engine = ShardedEngine::new(config, CashTable::new());
            engine.ingest_batch(&updates);
            let merged = engine.finish().unwrap();
            assert_eq!(merged.estimate(), serial.estimate(), "{shards} shards");
            assert_eq!(merged.distinct(), serial.distinct(), "{shards} shards");
        }
    }

    #[test]
    fn aggregate_engine_matches_serial() {
        let values: Vec<u64> = (0..500u64).map(|k| k % 97).collect();
        let mut serial = ExponentialHistogram::new(Epsilon::new(0.2).unwrap());
        serial.ingest_batch(&values);
        let mut engine = ShardedEngine::new(
            EngineConfig::with_shards(4),
            ExponentialHistogram::new(Epsilon::new(0.2).unwrap()),
        );
        engine.ingest_batch(&values);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.estimate(), serial.estimate());
        assert_eq!(merged.counters(), serial.counters());
    }

    #[test]
    fn anytime_query_sees_everything_pushed() {
        let mut engine = ShardedEngine::new(EngineConfig::with_shards(2), CashTable::new());
        for k in 0..990u64 {
            engine.ingest((k % 30, 1));
        }
        let early = engine.query().unwrap();
        // 30 papers × 33 citations: h = 30.
        assert_eq!(early.estimate(), 30);
        // Engine still ingests after a query.
        for k in 0..2_000u64 {
            engine.ingest((1_000 + k % 40, 1));
        }
        let done = engine.finish().unwrap();
        assert_eq!(done.estimate(), 40); // 40 papers @ 50 + 30 @ 33 → h = 40
    }

    #[test]
    fn turnstile_engine_matches_serial_exactly() {
        use hindex_common::{Delta, Epsilon, TurnstileEstimator};
        use hindex_core::TurnstileHIndex;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let proto = TurnstileHIndex::with_sampler_count(
            Epsilon::new(0.3).unwrap(),
            Delta::new(0.2).unwrap(),
            9,
            &mut StdRng::seed_from_u64(77),
        );
        // 30 papers at 20 citations, then 10 fully retracted — the
        // retraction may land on a different batch than the inserts.
        let mut updates: Vec<(u64, i64)> = (0..30u64).map(|p| (p, 20)).collect();
        updates.extend((0..10u64).map(|p| (p, -20)));
        let mut serial = proto.clone();
        for &(i, d) in &updates {
            TurnstileEstimator::ingest(&mut serial, i, d);
        }
        for shards in [1usize, 2, 4] {
            let config = EngineConfig {
                shards,
                batch_size: 16,
                queue_depth: 2,
                ..EngineConfig::default()
            };
            let mut engine = ShardedEngine::new(config, proto.clone());
            engine.ingest_batch(&updates);
            let merged = engine.finish().unwrap();
            // Linear sketches: merged state is bit-identical to the
            // serial stream, so estimates agree exactly.
            assert_eq!(merged.estimate(), serial.estimate(), "{shards} shards");
        }
    }

    #[test]
    fn space_accounts_for_shards_and_buffers() {
        let config = EngineConfig {
            shards: 2,
            batch_size: 8,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, CashTable::new());
        for k in 0..100u64 {
            engine.ingest((k, 1));
        }
        // `report` takes one snapshot round for both the merge and the
        // space figure; it must agree with a separate `space_words` at
        // the same offset (the report flushed, so nothing is buffered).
        let reported = engine.report(None).unwrap().space_words;
        let words = engine.space_words();
        assert_eq!(reported, words);
        let merged = engine.finish().unwrap();
        // Engine space at least covers the merged estimator's state
        // (shard duplication and channel capacity only add).
        assert!(words >= merged.space_words());
    }

    /// Exact table that panics on the poison paper id `u64::MAX` —
    /// a stand-in for any worker-side fault.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct Exploding {
        pub(crate) table: CashTable,
    }

    impl BatchIngest<(u64, u64)> for Exploding {
        fn apply_batch(&mut self, batch: &[(u64, u64)]) {
            for &(i, z) in batch {
                assert!(i != u64::MAX, "poison update");
                self.table.ingest(i, z);
            }
        }
    }

    impl Mergeable for Exploding {
        fn merge(&mut self, other: &Self) {
            self.table.merge(&other.table);
        }
    }

    impl Snapshot for Exploding {
        const TAG: u8 = CashTable::TAG;

        fn write_payload(&self, w: &mut hindex_common::snapshot::Writer<'_>) {
            self.table.write_payload(w);
        }

        fn read_payload(
            r: &mut hindex_common::snapshot::Reader<'_>,
        ) -> Result<Self, hindex_common::snapshot::SnapshotError> {
            Ok(Self { table: CashTable::read_payload(r)? })
        }
    }

    #[test]
    fn dead_shard_is_a_typed_error_not_a_panic() {
        let config = EngineConfig {
            shards: 4,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, Exploding::default());
        for k in 0..40u64 {
            engine.ingest((k, 1));
        }
        let poison_shard = (u64::MAX, 1u64).route(4, 0);
        engine.ingest((u64::MAX, 1));
        // Strict query refuses; the degraded query answers and names
        // the lost shard.
        let err = engine.query().unwrap_err();
        assert!(
            matches!(err, EngineError::ShardDead { shard, .. } if shard == poison_shard),
            "{err:?}"
        );
        // The worker's panic payload is harvested and surfaced.
        assert!(err.to_string().contains("poison update"), "{err}");
        let degraded = engine.query_degraded().unwrap();
        assert_eq!(degraded.dead_shards, vec![poison_shard]);
        assert!(degraded.estimator.table.estimate() > 0);
        // Checkpointing a wounded engine is refused too.
        assert!(matches!(engine.checkpoint(), Err(EngineError::ShardDead { .. })));
        let err = engine.finish().unwrap_err();
        assert!(
            matches!(err, EngineError::ShardDead { shard, .. } if shard == poison_shard),
            "{err:?}"
        );
        assert!(err.to_string().contains("poison update"), "{err}");
    }

    #[test]
    fn all_shards_dead_reported() {
        let config = EngineConfig {
            shards: 1,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, Exploding::default());
        engine.ingest((u64::MAX, 1));
        assert_eq!(engine.query_degraded().unwrap_err(), EngineError::AllShardsDead);
        assert_eq!(engine.finish_degraded().unwrap_err(), EngineError::AllShardsDead);
    }

    #[test]
    fn pushes_after_death_do_not_panic() {
        let config = EngineConfig {
            shards: 2,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, Exploding::default());
        engine.ingest((u64::MAX, 1));
        // Give the worker time to die, then keep pushing to both
        // shards: sends to the dead one are dropped, not panicked on.
        std::thread::sleep(std::time::Duration::from_millis(20));
        for k in 0..100u64 {
            engine.ingest((k, 1));
        }
        assert!(engine.finish().is_err());
    }

    #[test]
    fn checkpoint_restore_resumes_exactly() {
        let updates = staircase_updates(40, 30);
        let mut serial = CashTable::new();
        for &(i, z) in &updates {
            serial.ingest(i, z);
        }
        let config = EngineConfig {
            shards: 3,
            batch_size: 32,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, CashTable::new());
        let cut = updates.len() / 2;
        engine.ingest_batch(&updates[..cut]);
        let checkpoint = engine.checkpoint().unwrap();
        assert_eq!(checkpoint.stream_offset(), cut as u64);
        drop(engine); // the crash
        // Round-trip the checkpoint through its binary form, as a real
        // recovery would.
        let bytes = checkpoint.to_bytes();
        let (restored, used) = EngineCheckpoint::<CashTable>::read_from(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        let mut engine = ShardedEngine::restore(restored).unwrap();
        assert_eq!(engine.stream_offset(), cut as u64);
        engine.ingest_batch(&updates[cut..]);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.estimate(), serial.estimate());
        assert_eq!(merged.distinct(), serial.distinct());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::<CashTable, (u64, u64)>::new(
            EngineConfig {
                shards: 0,
                batch_size: 1,
                queue_depth: 1,
                ..EngineConfig::default()
            },
            CashTable::new(),
        );
    }

    #[test]
    fn published_views_are_bit_identical_to_serial_prefixes() {
        let interval = 256u64;
        let config = EngineConfig {
            shards: 3,
            batch_size: 16,
            queue_depth: 2,
            publish_interval: Some(interval),
            ..EngineConfig::default()
        };
        let mut engine = ShardedEngine::new(config, CashTable::new());
        let reader = engine.read_handle().unwrap();
        // Serial prefix digests at every possible publish offset.
        let mut serial = CashTable::new();
        let mut prefix = std::collections::HashMap::new();
        prefix.insert(0u64, serial.frame_digest());
        for k in 0..2_000u64 {
            serial.ingest(k % 90, 1);
            prefix.insert(k + 1, serial.frame_digest());
        }
        for k in 0..2_000u64 {
            engine.ingest((k % 90, 1));
        }
        let epoch = engine.publish_now().unwrap();
        assert!(reader.wait_for_epoch(epoch, 5_000), "aggregator stalled");
        let view = reader.query().unwrap();
        assert_eq!(view.offset(), 2_000);
        assert_eq!(view.staleness(), 0);
        assert_eq!(view.estimator().frame_digest(), prefix[&view.offset()]);
        // The engine also auto-published along the way; every epoch is
        // at an interval boundary and the final query agrees with the
        // last published view.
        assert!(reader.epoch() >= 2_000 / interval);
        let final_digest = engine.finish().unwrap().frame_digest();
        assert_eq!(final_digest, prefix[&2_000]);
    }

    #[test]
    fn engine_without_read_plane_has_no_handle() {
        let engine = ShardedEngine::new(EngineConfig::with_shards(2), CashTable::new());
        assert!(engine.read_handle().is_none());
        let _ = engine.finish().unwrap();
    }

    /// Drive both policies through the [`Engine`] trait: the generic
    /// driver below cannot name the concrete engine.
    fn drive_generic<N>(mut engine: N) -> (u64, u64)
    where
        N: Engine<(u64, u64), Output = CashTable, Error = EngineError>,
    {
        for k in 0..900u64 {
            engine.ingest((k % 30, 1));
        }
        engine.flush();
        let h = engine.query().unwrap().estimate();
        let offset = engine.stream_offset();
        assert!(engine.dead_shard_indices().is_empty());
        let fin = engine.finish().unwrap();
        assert_eq!(fin.estimate(), h);
        (h, offset)
    }

    #[test]
    fn both_policies_speak_the_engine_trait() {
        let plain = ShardedEngine::new(EngineConfig::with_shards(2), CashTable::new());
        let supervised = ShardedEngine::with_policy(
            EngineConfig::with_shards(2),
            Supervision::Restart(SupervisorConfig::default(), FaultPlan::none()),
            CashTable::new(),
        )
        .unwrap();
        assert_eq!(drive_generic(plain), drive_generic(supervised));
    }
}
