//! The single-threaded baseline: the engine's exact per-shard batches
//! applied serially into prototype clones, then merged in shard order.
//!
//! This is the worker-apply layer timed from outside the engine
//! (`BatchIngest::apply_batch` on the sketch or the exact table), and
//! its merged digest is the reference every engine answer must match.

use hindex_common::Snapshot;
use hindex_common::{BankCounters, Estimate, Mergeable, SpaceUsage};
use hindex_engine::BatchIngest;
use std::time::Instant;

/// What the benchmark needs from an estimator: everything the engine
/// needs, plus a canonical encoding for digests.
pub trait Est:
    BatchIngest<(u64, u64)>
    + Mergeable
    + Estimate
    + SpaceUsage
    + Snapshot
    + Clone
    + Send
    + Sync
    + 'static
{
}

impl<E> Est for E where
    E: BatchIngest<(u64, u64)>
        + Mergeable
        + Estimate
        + SpaceUsage
        + Snapshot
        + Clone
        + Send
        + Sync
        + 'static
{
}

/// The serial replay's result.
pub struct Replay<E> {
    /// Final per-shard states, bit-identical to the engine's workers'.
    pub shards: Vec<E>,
    /// The shard states merged in shard order.
    pub merged: E,
    /// Wall seconds each shard's batches took to apply.
    pub shard_s: Vec<f64>,
}

impl<E: Est> Replay<E> {
    /// Applies each shard's batches to its own clone of `prototype`,
    /// timing each shard, then merges.
    pub fn run(prototype: &E, routed: &[Vec<Vec<(u64, u64)>>]) -> Self {
        let mut shards = Vec::with_capacity(routed.len());
        let mut shard_s = Vec::with_capacity(routed.len());
        for batches in routed {
            let mut state = prototype.clone();
            let start = Instant::now();
            for batch in batches {
                state.apply_batch(std::hint::black_box(batch));
            }
            shard_s.push(start.elapsed().as_secs_f64());
            shards.push(state);
        }
        let merged = merge(&shards);
        Self {
            merged,
            shards,
            shard_s,
        }
    }

    /// Frame digest of the merged state.
    pub fn digest(&self) -> u64 {
        self.merged.frame_digest()
    }

    /// Takes the out-of-engine figures (timings are medians of
    /// `repeats`).
    pub fn offline(&self, repeats: usize) -> Offline {
        let frame_bytes = self
            .shards
            .iter()
            .map(|s| s.to_bytes().len())
            .sum::<usize>() as f64
            / self.shards.len() as f64;
        let encode_ms =
            1e3 * median_secs(repeats, || {
                for state in &self.shards {
                    std::hint::black_box(state.to_bytes());
                }
            }) / self.shards.len() as f64;
        let clone_merge_ms = 1e3
            * median_secs(repeats, || {
                let mut clones = self.shards.iter().cloned();
                if let Some(mut merged) = clones.next() {
                    for state in clones {
                        merged.merge(&state);
                    }
                    std::hint::black_box(&merged);
                }
            });
        Offline {
            serial_s: self.shard_s.iter().sum(),
            max_shard_s: self.shard_s.iter().copied().fold(0.0, f64::max),
            bank: self.merged.bank_counters().unwrap_or_default(),
            frame_bytes,
            encode_ms,
            clone_merge_ms,
        }
    }
}

/// Out-of-engine figures taken on the serial replay's shard states,
/// which are bit-identical to the workers' (the digest gate proves it).
pub struct Offline {
    /// Seconds to apply every shard's batches, one shard after another.
    pub serial_s: f64,
    /// Seconds of the slowest shard: the apply critical path.
    pub max_shard_s: f64,
    /// Bank-kernel counters of the merged state (zero for the table).
    pub bank: BankCounters,
    /// Mean encoded size of one shard state: one micro-checkpoint frame.
    pub frame_bytes: f64,
    /// Milliseconds to encode one shard state (`Snapshot::to_bytes`).
    pub encode_ms: f64,
    /// Milliseconds to clone every shard state and merge the clones —
    /// the work behind one read-plane publish or one query.
    pub clone_merge_ms: f64,
}

/// Median wall seconds of `repeats` runs of `f`.
fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&runs)
}

/// Clones the first state and folds the rest in, in shard order — the
/// order the engine merges in.
fn merge<E: Mergeable + Clone>(states: &[E]) -> E {
    let (first, rest) = states.split_first().expect("at least one shard");
    let mut merged = first.clone();
    for state in rest {
        merged.merge(state);
    }
    merged
}
