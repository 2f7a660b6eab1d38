//! The self-healing supervision policy: micro-checkpoint frames,
//! bounded replay logs, heal, and fault injection.
//!
//! An engine built with [`Supervision::Restart`] runs the *same*
//! [`ShardedEngine`] verbs and the same worker loop as a fail-hard one;
//! what this module adds is what happens around a worker's death:
//!
//! 1. **Micro-checkpoints.** Every worker encodes its estimator state
//!    (a [`Snapshot`] frame) once at spawn and then every
//!    [`SupervisorConfig::checkpoint_interval`] applied batches, on the
//!    *worker* thread — the router never stalls for encoding. Frame
//!    emission is the `on_applied` hook of the shared runtime (see
//!    [`WorkerCtx`]); a fail-hard engine passes no hook and pays
//!    nothing. Frames flow to the router over an unbounded channel and
//!    are drained opportunistically at dispatch boundaries and
//!    synchronously after every join.
//! 2. **Replay logs.** Every batch dispatched to a shard is also
//!    appended to that shard's bounded [`ReplayLog`]; a frame at batch
//!    ordinal *n* lets the log discard everything below *n*.
//! 3. **Heal.** When a worker dies (panic, injected kill, failed
//!    send), the engine joins it, harvests the panic payload, decodes
//!    the newest checksum-valid frame, respawns the shard from it, and
//!    replays the log suffix — FIFO order makes the healed shard
//!    **bit-identical** to one that never crashed.
//!
//! The degradation ladder when healing cannot proceed (restart budget
//! exhausted, replay log overflowed past the newest frame, no
//! decodable frame) is *honest*: the shard goes terminal
//! ([`EngineError::ShardDead`] with the harvested reason), its
//! never-delivered updates are counted as lost, and strict queries
//! refuse rather than silently under-count. See `docs/RECOVERY.md`.
//!
//! # Determinism
//!
//! Fault decisions, heal points, frame contents, and replay suffixes
//! are all pure functions of the input stream and the
//! [`FaultPlan`] — worker scheduling only affects *when* frames are
//! drained, never which frame is newest at a join (joins synchronise
//! the drain, because a dead worker's frames are all already in its
//! channel). Identical seeded runs therefore produce identical merged
//! states, restart counts, and event traces; the only racy observables
//! are gauge readings taken mid-run, same as queue depths.
//!
//! # The read plane under supervision
//!
//! A supervised engine **skips** a publish entirely while any shard is
//! terminal — a published view is *never* degraded. Epoch markers are
//! not replay-logged: a worker that dies holding its marker takes the
//! epoch down with it (the aggregator discards the incomplete epoch),
//! so a kill-and-heal can delay publication but can never surface a
//! non-healed view. `tests/engine_faults.rs` pins this.
//!
//! [`WorkerCtx`]: crate::runtime::WorkerCtx

use crate::config::{EngineConfig, SupervisorConfig};
use crate::error::EngineError;
use crate::faults::{self, Fault, FaultKind, FaultPlan};
use crate::replay::ReplayLog;
use crate::runtime::{AppliedHook, Command};
use crate::{BatchIngest, Routable, ShardedEngine};
use hindex_common::snapshot::fnv1a;
use hindex_common::{Mergeable, Snapshot};
use hindex_obs::Stopwatch;
use std::sync::mpsc::{channel, Receiver};

/// How a [`ShardedEngine`] treats a worker that dies — chosen once, at
/// construction ([`ShardedEngine::with_policy`]).
///
/// ```
/// use hindex_baseline::CashTable;
/// use hindex_common::Estimate;
/// use hindex_engine::{EngineConfig, FaultPlan, ShardedEngine, Supervision, SupervisorConfig};
///
/// let config = EngineConfig::builder().shards(2).batch(8).build().unwrap();
/// // Kill both workers mid-stream; recovery is exact.
/// let plan = FaultPlan::kill_sweep(2, 100, 200);
/// let policy = Supervision::Restart(SupervisorConfig::default(), plan);
/// let mut engine = ShardedEngine::with_policy(config, policy, CashTable::new()).unwrap();
/// for k in 0..1_000u64 {
///     engine.ingest((k % 40, 1));
/// }
/// assert_eq!(engine.finish().unwrap().estimate(), 25);
/// ```
#[derive(Debug)]
pub enum Supervision {
    /// A dead worker's shard is lost for good, with the harvested
    /// panic message as the reason: strict verbs refuse with
    /// [`EngineError::ShardDead`] until the caller opts into the
    /// `_degraded` variants.
    FailHard,
    /// Self-healing: micro-checkpoints, bounded replay, and
    /// restart-from-checkpoint on worker death, bounded by the
    /// [`SupervisorConfig`]; the [`FaultPlan`] injects deterministic
    /// chaos ([`FaultPlan::none`] for none).
    Restart(SupervisorConfig, FaultPlan),
}

/// Constructor shim for the self-healing policy. It exists only
/// because the end-to-end benchmark in `hbench/`, which must keep
/// building unmodified, names it; new code calls
/// [`ShardedEngine::with_policy`] with [`Supervision::Restart`].
pub struct SupervisedEngine;

impl SupervisedEngine {
    /// A [`Supervision::Restart`] engine without injected faults.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when either config fails
    /// validation.
    #[allow(clippy::new_ret_no_self)] // the shim names the one engine type
    pub fn new<E, T>(
        config: EngineConfig,
        sup: SupervisorConfig,
        prototype: E,
    ) -> Result<ShardedEngine<E, T>, EngineError>
    where
        E: BatchIngest<T> + Mergeable + Snapshot + Clone + Send + Sync + 'static,
        T: Routable + Clone + Send + 'static,
    {
        ShardedEngine::with_policy(config, Supervision::Restart(sup, FaultPlan::none()), prototype)
    }
}

/// One micro-checkpoint: the estimator's frame bytes after `applied`
/// batches.
pub(crate) struct Frame {
    applied: u64,
    bytes: Vec<u8>,
}

/// Whether an encoded frame's trailing FNV-1a checksum matches its
/// body — the cheap validity test the drain runs on every frame, and
/// what catches injected (or real torn-write) corruption.
fn frame_checksum_ok(bytes: &[u8]) -> bool {
    if bytes.len() < 8 {
        return false;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(tail);
    fnv1a(body) == u64::from_le_bytes(checksum)
}

/// Engine-wide state of [`Supervision::Restart`]: the knobs, the fault
/// plan, and `E`'s frame codec — captured here, where `E: Snapshot` is
/// known, so no other engine verb needs that bound.
pub(crate) struct Supervisor<E> {
    pub(crate) config: SupervisorConfig,
    plan: Vec<Fault>,
    fired: Vec<bool>,
    encode: fn(&E) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<E>,
}

/// A frame's estimator state, when the frame decodes.
fn decode_frame<E: Snapshot>(bytes: &[u8]) -> Option<E> {
    E::read_from(bytes).ok().map(|(state, _)| state)
}

impl Supervision {
    /// The engine-side state of this policy; `None` for fail-hard.
    pub(crate) fn supervisor<E: Snapshot>(self) -> Result<Option<Supervisor<E>>, EngineError> {
        match self {
            Supervision::FailHard => Ok(None),
            Supervision::Restart(config, plan) => {
                config.validate()?;
                Ok(Some(Supervisor {
                    config,
                    fired: vec![false; plan.faults.len()],
                    plan: plan.faults,
                    encode: E::to_bytes,
                    decode: decode_frame::<E>,
                }))
            }
        }
    }
}

impl<E: 'static> Supervisor<E> {
    /// The worker hook that makes a lineage supervised: encode a frame
    /// on the worker thread at spawn (`applied == base`) and every
    /// `checkpoint_interval` applied batches after it.
    pub(crate) fn frame_hook(&self, base: u64) -> (AppliedHook<E>, Receiver<Frame>) {
        let (frame_tx, frames) = channel::<Frame>();
        let interval = self.config.checkpoint_interval;
        let encode = self.encode;
        let hook = Box::new(move |estimator: &E, applied: u64| {
            if (applied - base).is_multiple_of(interval) {
                let _ = frame_tx.send(Frame { applied, bytes: encode(estimator) });
            }
        });
        (hook, frames)
    }
}

/// A shard's recovery record under [`Supervision::Restart`].
pub(crate) struct Recovery<T> {
    /// Frames emitted by the shard's current lineage.
    frames: Receiver<Frame>,
    /// Newest checksum-valid frame seen (corrupt frames are dropped).
    frame: Option<Frame>,
    log: ReplayLog<T>,
    /// Restarts consumed from [`SupervisorConfig::max_restarts`].
    restarts: u32,
    /// Injected send failures still owed.
    fail_remaining: u64,
    /// Corrupt the first frame with `applied ≥` this ordinal.
    corrupt_after: Option<u64>,
}

impl<T: Clone> Recovery<T> {
    pub(crate) fn new(frames: Receiver<Frame>, max_replay_words: usize) -> Self {
        Self {
            frames,
            frame: None,
            log: ReplayLog::new(max_replay_words),
            restarts: 0,
            fail_remaining: 0,
            corrupt_after: None,
        }
    }

    /// Words of the retained micro-checkpoint frame.
    pub(crate) fn frame_words(&self) -> usize {
        self.frame
            .as_ref()
            .map_or(0, |f| f.bytes.len().div_ceil(std::mem::size_of::<u64>()))
    }

    /// Words held by the replay log (scratch, not paper space).
    pub(crate) fn log_words(&self) -> usize {
        self.log.words()
    }
}

impl<E, T> ShardedEngine<E, T>
where
    E: BatchIngest<T> + Mergeable + Clone + Send + Sync + 'static,
    T: Routable + Clone + Send + 'static,
{
    /// The supervised half of dispatch: drain frames, fire due faults,
    /// then log the batch (the log is recovery's source of truth, so
    /// the batch is durable before any delivery attempt). Returns the
    /// batch for direct delivery, or `None` when it was handled here:
    /// the shard went terminal, an injected send failure swallowed it,
    /// or a heal's replay delivered it. Fail-hard shards get their
    /// batch straight back.
    pub(crate) fn log_batch(&mut self, shard: usize, batch: Vec<T>) -> Option<Vec<T>> {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        if self.shards[shard].recovery.is_none() {
            return Some(batch);
        }
        self.drain_frames(shard);
        self.apply_faults(shard);
        let tick = self.router.tick();
        let s = &mut self.shards[shard];
        let r = s.recovery.as_mut()?;
        let evicted = r.log.push(batch.clone());
        if evicted.entries > 0 {
            if let Some(o) = &self.config.observer {
                o.on_replay_overflow(tick, shard, evicted.entries);
            }
            if evicted.undelivered_items > 0 {
                // Updates that never reached any worker just left the
                // log: the shard can no longer become correct. Honest
                // degradation, never a silently wrong answer.
                if let Some(o) = &self.config.observer {
                    o.on_batch_lost(tick, shard, evicted.undelivered_items);
                }
                self.terminal(shard, "replay log overflowed past undelivered batches");
                return None;
            }
        }
        if r.fail_remaining > 0 {
            r.fail_remaining -= 1;
            // The batch stays logged and undelivered; the lineage is
            // retired so the eventual heal replays a contiguous
            // suffix (delivering around a dropped send would fork the
            // shard's stream).
            self.join_lineage(shard);
            return None;
        }
        if s.sender.is_none() {
            self.heal(shard); // the replay delivers (and flushes) the batch
            return None;
        }
        Some(batch)
    }

    /// Notes a successful direct delivery of the newest logged batch.
    pub(crate) fn mark_delivered(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        if let Some(r) = self.shards[shard].recovery.as_mut() {
            r.log.mark_newest_delivered();
        }
    }

    /// Fires every not-yet-fired planned fault targeting `shard` whose
    /// tick has arrived. Pure function of (plan, tick): deterministic.
    pub(crate) fn apply_faults(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let tick = self.router.tick();
        let Some(sup) = self.supervisor.as_mut() else { return };
        let due: Vec<Fault> = sup
            .plan
            .iter()
            .zip(sup.fired.iter_mut())
            .filter(|(f, fired)| !**fired && f.shard == shard && f.tick <= tick)
            .map(|(f, fired)| {
                *fired = true;
                *f
            })
            .collect();
        for fault in due {
            if let Some(o) = &self.config.observer {
                o.on_fault_injected(tick, u32::try_from(shard).ok(), fault.kind.code());
            }
            let s = &mut self.shards[shard];
            match fault.kind {
                FaultKind::Kill => {
                    if let Some(tx) = &s.sender {
                        // Queued behind every in-flight batch: the
                        // worker applies them all, then panics — the
                        // genuine crash path, FIFO-deterministic.
                        let _ = tx.send(Command::Poison(format!(
                            "kill shard {shard} at tick {}",
                            fault.tick
                        )));
                    }
                    self.join_lineage(shard);
                }
                FaultKind::FailSends => {
                    if let Some(r) = s.recovery.as_mut() {
                        r.fail_remaining = r.fail_remaining.saturating_add(fault.arg);
                    }
                }
                FaultKind::Stall => {
                    if let Some(tx) = &s.sender {
                        let _ = tx.send(Command::Stall(fault.arg));
                    }
                }
                FaultKind::Corrupt => {
                    // Corrupt the first micro-checkpoint covering every
                    // batch dispatched before the fault fired: the
                    // retained frame when it already is that frame,
                    // otherwise the next one drained. Which frame that
                    // is depends only on the stream and the plan, not
                    // on how far the drain has got.
                    if let Some(r) = s.recovery.as_mut() {
                        let target = r.log.next();
                        match &mut r.frame {
                            Some(frame) if frame.applied >= target => {
                                faults::corrupt_frame(&mut frame.bytes);
                            }
                            _ => r.corrupt_after = Some(target),
                        }
                    }
                }
            }
        }
    }

    /// Non-blocking drain of `shard`'s frame channel: validate, apply
    /// armed corruption, keep the newest good frame, trim the log. A
    /// no-op for fail-hard shards.
    pub(crate) fn drain_frames(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let Some(r) = self.shards[shard].recovery.as_mut() else { return };
        let obs = &self.config.observer;
        while let Ok(mut frame) = r.frames.try_recv() {
            if let Some(o) = obs {
                o.on_micro_checkpoint(shard, frame.bytes.len() as u64);
            }
            if let Some(min) = r.corrupt_after {
                if frame.applied >= min {
                    faults::corrupt_frame(&mut frame.bytes);
                    r.corrupt_after = None;
                }
            }
            // A corrupt frame (injected or a real torn write) fails its
            // checksum and is dropped — recovery falls back to the
            // previous good frame, which the log still covers because
            // trimming only follows *accepted* frames.
            if frame_checksum_ok(&frame.bytes)
                && r.frame.as_ref().is_none_or(|f| frame.applied >= f.applied)
            {
                r.log.trim_to(frame.applied);
                r.frame = Some(frame);
            }
        }
        if let Some(o) = obs {
            o.on_replay_words(shard, r.log.words() as u64);
        }
    }

    /// Declares `shard` terminally dead at rung `what` of the
    /// degradation ladder and counts its never-delivered updates as
    /// lost.
    pub(crate) fn terminal(&mut self, shard: usize, what: &str) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let tick = self.router.tick();
        let s = &mut self.shards[shard];
        s.sender = None;
        s.dead = true;
        s.reason = Some(match &s.panic {
            Some(panic) => format!("{panic} ({what})"),
            None => what.to_string(),
        });
        let lost = s.recovery.as_ref().map_or(0, |r| r.log.undelivered_items());
        if lost > 0 {
            if let Some(o) = &self.config.observer {
                o.on_batch_lost(tick, shard, lost);
            }
        }
    }

    /// Restart-from-checkpoint with replay. Returns `true` when the
    /// shard is live again; `false` means it went terminal (or the
    /// engine is fail-hard, which never heals).
    ///
    /// Loops because a replayed batch can re-kill the worker (a
    /// deterministic estimator bug): each attempt consumes one restart
    /// from the budget until the budget, the frame, or the log gives
    /// out — the degradation ladder's last rungs.
    pub(crate) fn heal(&mut self, shard: usize) -> bool {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let Some(sup) = &self.supervisor else { return false };
        let (max_restarts, backoff_ms, decode) =
            (sup.config.max_restarts, sup.config.backoff_ms, sup.decode);
        let sw = Stopwatch::start();
        loop {
            let s = &self.shards[shard];
            debug_assert!(s.sender.is_none());
            let Some(r) = s.recovery.as_ref().filter(|_| !s.dead) else {
                return false;
            };
            if r.restarts >= max_restarts {
                self.terminal(shard, "restart budget exhausted");
                return false;
            }
            let Some(frame) = &r.frame else {
                self.terminal(shard, "no usable micro-checkpoint");
                return false;
            };
            if frame.applied < r.log.start() {
                self.terminal(shard, "replay log overflowed past the newest micro-checkpoint");
                return false;
            }
            let base = frame.applied;
            let Some(state) = decode(&frame.bytes) else {
                self.terminal(shard, "micro-checkpoint failed to decode");
                return false;
            };
            let restarts = r.restarts + 1;
            if backoff_ms > 0 {
                // Exponential backoff, capped at 64× the base.
                let shift = (restarts - 1).min(6);
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms << shift));
            }
            let (lineage, frames) = self.spawn_lineage(shard, state, base);
            let s = &mut self.shards[shard];
            let Some(r) = s.recovery.as_mut() else { return false };
            r.restarts = restarts;
            if let Some(frames) = frames {
                r.frames = frames;
            }
            s.handle = Some(lineage.handle);
            // Only batches are replayed — epoch markers are not logged,
            // so a healed lineage never re-contributes to an old epoch.
            let mut newly_flushed: Vec<u64> = Vec::new();
            let mut replayed = 0u64;
            let mut died_mid_replay = false;
            for (_, batch, delivered) in r.log.replay_from(base) {
                let len = batch.len() as u64;
                if lineage.sender.send(Command::Batch(batch)).is_err() {
                    died_mid_replay = true;
                    break;
                }
                replayed += 1;
                if !delivered {
                    newly_flushed.push(len);
                }
            }
            if died_mid_replay {
                // The replay re-killed the worker: harvest, try again.
                drop(lineage.sender);
                self.join_lineage(shard);
                continue;
            }
            s.sender = Some(lineage.sender);
            r.log.mark_all_delivered();
            let words = r.log.words() as u64;
            if let Some(o) = &self.config.observer {
                // First-successful-handoff accounting: batches the dead
                // lineage already flushed are not re-counted; batches
                // delivered for the first time by this replay are.
                let tick = self.router.tick();
                for len in newly_flushed {
                    o.on_flush(tick, shard, len, len >= self.config.batch_size as u64);
                }
                o.on_shard_restart(tick, shard, replayed, sw.elapsed_nanos());
                o.on_replay_words(shard, words);
            }
            return true;
        }
    }

    /// Brings a down-but-healable lineage back up before a snapshot,
    /// publish, or retirement. Terminal shards stay down.
    pub(crate) fn ensure_live(&mut self, shard: usize) {
        debug_assert!(shard < self.shards.len(), "shard index computed by the router");
        let s = &self.shards[shard];
        if !s.dead && s.sender.is_none() {
            self.heal(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Exploding;
    use hindex_baseline::CashTable;
    use hindex_common::{CashRegisterEstimator, Estimate, SpaceUsage};

    fn staircase(papers: u64, rounds: u64) -> Vec<(u64, u64)> {
        (0..rounds).flat_map(|_| (0..papers).map(|p| (p, 1))).collect()
    }

    fn small_config(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            batch_size: 16,
            queue_depth: 2,
            ..EngineConfig::default()
        }
    }

    fn restart(sup: SupervisorConfig, plan: FaultPlan) -> Supervision {
        Supervision::Restart(sup, plan)
    }

    fn supervised<E>(
        config: EngineConfig,
        sup: SupervisorConfig,
        proto: E,
    ) -> ShardedEngine<E, (u64, u64)>
    where
        E: BatchIngest<(u64, u64)> + Mergeable + Snapshot + Clone + Send + Sync + 'static,
    {
        ShardedEngine::with_policy(config, restart(sup, FaultPlan::none()), proto).unwrap()
    }

    /// Serial reference: merge-equivalent state for a staircase run.
    fn serial(updates: &[(u64, u64)]) -> CashTable {
        let mut t = CashTable::new();
        for &(i, z) in updates {
            t.ingest(i, z);
        }
        t
    }

    #[test]
    fn fault_free_supervised_run_matches_plain() {
        let updates = staircase(40, 30);
        let plain = serial(&updates);
        let mut engine = supervised(small_config(3), SupervisorConfig::default(), CashTable::new());
        engine.ingest_batch(&updates);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.frame_digest(), plain.frame_digest());
        // Anytime queries work too.
        let mut engine = supervised(small_config(3), SupervisorConfig::default(), CashTable::new());
        engine.ingest_batch(&updates);
        assert_eq!(engine.query().unwrap().estimate(), plain.estimate());
    }

    #[test]
    fn kill_sweep_recovers_bit_identically() {
        let updates = staircase(40, 40);
        let clean = serial(&updates);
        for shards in [1usize, 2, 4] {
            let plan = FaultPlan::kill_sweep(shards, 100, 317);
            assert!(plan.kills_every_shard(shards));
            let policy = restart(SupervisorConfig::default(), plan);
            let mut engine =
                ShardedEngine::with_policy(small_config(shards), policy, CashTable::new()).unwrap();
            engine.ingest_batch(&updates);
            assert_eq!(engine.dead_shard_indices(), Vec::<usize>::new());
            let merged = engine.finish().unwrap();
            assert_eq!(
                merged.frame_digest(),
                clean.frame_digest(),
                "{shards} shards: healed state must be bit-identical"
            );
        }
    }

    #[test]
    fn every_fault_kind_recovers_exactly() {
        let updates = staircase(40, 40);
        let clean = serial(&updates);
        let plan = FaultPlan::parse(
            "kill@100:0, fail@300:1=2, stall@200:2=5, corrupt@400:0, kill@900:0",
            3,
            updates.len() as u64,
        )
        .unwrap();
        let policy = restart(SupervisorConfig::default(), plan);
        let mut engine =
            ShardedEngine::with_policy(small_config(3), policy, CashTable::new()).unwrap();
        engine.ingest_batch(&updates);
        let merged = engine.finish().unwrap();
        assert_eq!(merged.frame_digest(), clean.frame_digest());
    }

    #[test]
    fn restart_budget_exhaustion_is_honest() {
        // Poison the estimator itself: every heal replays the poison
        // batch and dies again until the budget gives out.
        let config = EngineConfig {
            shards: 1,
            batch_size: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        };
        let sup = SupervisorConfig { max_restarts: 2, ..SupervisorConfig::default() };
        let mut engine = supervised(config, sup, Exploding::default());
        for k in 0..8u64 {
            engine.ingest((k, 1));
        }
        engine.ingest((u64::MAX, 1)); // the deterministic bug
        engine.ingest((1, 1)); // forces death detection + heal attempts
        engine.flush();
        let err = engine.finish().unwrap_err();
        assert!(
            matches!(err, EngineError::ShardDead { shard: 0, .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("poison update"), "{msg}");
        assert!(msg.contains("restart budget exhausted"), "{msg}");
    }

    #[test]
    fn replay_overflow_degrades_honestly() {
        // A replay budget of 1 word with fail-faults forces undelivered
        // batches out of the log: terminal, never silently wrong.
        let config = EngineConfig {
            shards: 1,
            batch_size: 4,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        let sup = SupervisorConfig {
            max_replay_words: 1,
            checkpoint_interval: 1,
            ..SupervisorConfig::default()
        };
        let plan = FaultPlan::parse("fail@0:0=1000", 1, 10_000).unwrap();
        let mut engine =
            ShardedEngine::with_policy(config, restart(sup, plan), CashTable::new()).unwrap();
        for k in 0..200u64 {
            engine.ingest((k, 1));
        }
        engine.flush();
        assert_eq!(engine.dead_shard_indices(), vec![0]);
        let err = engine.finish().unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn corrupted_only_frame_goes_terminal_not_wrong() {
        // Corrupt the spawn frame before any other exists, then kill:
        // no usable checkpoint → terminal, with max_restarts > 0.
        let config = EngineConfig {
            shards: 1,
            batch_size: 8,
            queue_depth: 2,
            ..EngineConfig::default()
        };
        // Interval so large only the spawn frame is ever emitted.
        let sup = SupervisorConfig { checkpoint_interval: 1 << 40, ..SupervisorConfig::default() };
        let plan = FaultPlan::parse("corrupt@0:0, kill@50:0", 1, 10_000).unwrap();
        let mut engine =
            ShardedEngine::with_policy(config, restart(sup, plan), CashTable::new()).unwrap();
        for k in 0..200u64 {
            engine.ingest((k % 10, 1));
        }
        engine.flush();
        assert_eq!(engine.dead_shard_indices(), vec![0]);
        assert!(matches!(
            engine.finish_degraded().unwrap_err(),
            EngineError::AllShardsDead
        ));
    }

    #[test]
    fn replay_log_reports_as_scratch_not_space() {
        let sup = SupervisorConfig { checkpoint_interval: 1 << 40, ..SupervisorConfig::default() };
        let mut engine = supervised(small_config(2), sup, CashTable::new());
        for k in 0..500u64 {
            engine.ingest((k, 1));
        }
        engine.flush();
        // With an astronomically large interval nothing trims the log,
        // so dispatched batches are all held as scratch.
        assert!(engine.scratch_words() > 0);
        assert!(engine.space_words() > 0);
        assert!(engine.finish().is_ok());
    }

    #[test]
    fn supervised_checkpoint_restores_into_fail_hard_engine() {
        let updates = staircase(40, 30);
        let serial = serial(&updates);
        let mut engine = supervised(small_config(3), SupervisorConfig::default(), CashTable::new());
        let cut = updates.len() / 2;
        engine.ingest_batch(&updates[..cut]);
        let checkpoint = engine.checkpoint().unwrap();
        assert_eq!(checkpoint.stream_offset(), cut as u64);
        drop(engine);
        // Cross-policy recovery: a supervised checkpoint resumes on a
        // fail-hard engine (same format, same routing, same offset).
        let mut resumed = ShardedEngine::restore(checkpoint).unwrap();
        resumed.ingest_batch(&updates[cut..]);
        let merged = resumed.finish().unwrap();
        assert_eq!(merged.frame_digest(), serial.frame_digest());
    }

    #[test]
    fn supervised_read_plane_publishes_clean_views() {
        let updates = staircase(40, 40);
        let serial = serial(&updates);
        let config = EngineConfig {
            publish_interval: Some(300),
            ..small_config(2)
        };
        let mut engine = supervised(config, SupervisorConfig::default(), CashTable::new());
        let reader = engine.read_handle().unwrap();
        engine.ingest_batch(&updates);
        let epoch = engine.publish_now().unwrap();
        assert!(reader.wait_for_epoch(epoch, 5_000), "aggregator stalled");
        let view = reader.query().unwrap();
        assert_eq!(view.offset(), updates.len() as u64);
        assert_eq!(view.estimator().frame_digest(), serial.frame_digest());
        assert_eq!(engine.finish().unwrap().frame_digest(), serial.frame_digest());
    }
}
