//! The engine abstraction: the verb set of a sharded ingestion
//! pipeline.
//!
//! `hindex-engine` has one engine type, `ShardedEngine`, whose
//! behaviour on worker death is a supervision policy chosen at
//! construction (fail hard, or heal from micro-checkpoints). The
//! [`Engine`] trait names its verb set so code that must stay generic
//! over the engine (the end-to-end benchmark, generic test helpers)
//! can be written against it; `ShardedEngine` is its one
//! implementation.
//!
//! The trait lives in `hindex-common` — below the engine crate — so it
//! can be named by any crate without a dependency on the engine
//! implementation. Engine-specific vocabulary (errors, checkpoints,
//! reports) enters through associated types.

use crate::approx::Guarantee;

/// Result of an explicit lossy query over an engine with dead shards.
#[derive(Debug, Clone)]
pub struct Degraded<E> {
    /// The merge of every surviving shard's state.
    pub estimator: E,
    /// Indices of the dead shards whose updates are missing from
    /// `estimator` (empty when nothing was lost).
    pub dead_shards: Vec<usize>,
}

/// The whole verb set of a sharded ingestion engine over items of type
/// `T`: feed, flush, query (strict, lossy, or reported), persist, and
/// retire. Implemented by `hindex-engine`'s `ShardedEngine`, under
/// either supervision policy.
///
/// Semantics every implementation must honour:
///
/// * **Anytime queries.** [`Engine::query`] and friends may be called
///   mid-stream; ingestion continues afterwards.
/// * **Strict vs. degraded.** `query`/`finish` refuse when data was
///   lost; the `_degraded` variants answer from the surviving shards
///   and name the dead ones.
/// * **Offset accounting.** [`Engine::stream_offset`] counts items
///   routed so far; a checkpoint taken at offset *k* resumes exactly
///   when the input is replayed from *k*.
pub trait Engine<T> {
    /// The merged estimator a query returns.
    type Output;
    /// The engine's failure type.
    type Error: std::error::Error;
    /// The serialisable frozen-engine type [`Engine::checkpoint`]
    /// produces.
    type Checkpoint;
    /// The typed query report [`Engine::report`] produces.
    type Report;

    /// Routes one item to its shard.
    fn ingest(&mut self, item: T);

    /// Ingests every item of a slice.
    fn ingest_batch(&mut self, items: &[T])
    where
        T: Copy;

    /// Sends all pending partial batches to their shards.
    fn flush(&mut self);

    /// Strict anytime query: the merge of every shard's state, or an
    /// error when any shard's updates were lost.
    ///
    /// # Errors
    ///
    /// Implementation-defined; see the implementing engine.
    fn query(&mut self) -> Result<Self::Output, Self::Error>;

    /// Lossy anytime query: merges the surviving shards and names the
    /// dead ones.
    ///
    /// # Errors
    ///
    /// Only when no shard survives.
    fn query_degraded(&mut self) -> Result<Degraded<Self::Output>, Self::Error>;

    /// Lossy anytime query packaged as a typed report for CLI/bench
    /// boundaries. `contract` is the guarantee the estimator was built
    /// under (`None` for exact baselines).
    ///
    /// # Errors
    ///
    /// Only when no shard survives.
    fn report(&mut self, contract: Option<Guarantee>) -> Result<Self::Report, Self::Error>;

    /// Freezes the engine into a serialisable checkpoint (strict: all
    /// shards must be intact).
    ///
    /// # Errors
    ///
    /// When any shard's updates were lost.
    fn checkpoint(&mut self) -> Result<Self::Checkpoint, Self::Error>;

    /// Retires the engine and returns the final merged estimator
    /// (strict).
    ///
    /// # Errors
    ///
    /// When any shard's updates were lost.
    fn finish(self) -> Result<Self::Output, Self::Error>
    where
        Self: Sized;

    /// Lossy retirement: merges the survivors and names the dead.
    ///
    /// # Errors
    ///
    /// Only when no shard survives.
    fn finish_degraded(self) -> Result<Degraded<Self::Output>, Self::Error>
    where
        Self: Sized;

    /// Items routed so far (pushed, whether or not yet ingested).
    fn stream_offset(&self) -> u64;

    /// Indices of shards whose updates are lost for good.
    fn dead_shard_indices(&self) -> Vec<usize>;
}
