//! The open-loop job: updates are offered to a `ShardedEngine` over the
//! exact table on a fixed schedule, whatever the engine does, while one
//! reader polls a `ReadHandle` at a fixed rate.
//!
//! Every time is taken from when the work was *due*: an update is due
//! when the schedule offers it, an epoch when its last update is due.
//! A stall therefore shows as lateness and staleness on everything
//! behind it instead of slowing the offered load.

use crate::spec::{self, BATCH, LIVE_RATE, PUBLISH_INTERVAL, SHARDS};
use crate::trace::Tracer;
use hindex_baseline::CashTable;
use hindex_common::{Estimate, Snapshot, SpaceUsage};
use hindex_engine::{EngineConfig, ReadHandle, ShardedEngine};
use hindex_obs::{EngineObserver, MetricsSnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Updates the driver hands in per call; divides the publish interval,
/// so every epoch boundary ends a call.
const CHUNK: usize = 512;
/// The reader polls once per this period (1 kHz).
const READ_PERIOD: Duration = Duration::from_millis(1);
/// Grace beyond the schedule's length before a job is declared stuck.
const GRACE: Duration = Duration::from_secs(10);

/// One open-loop job's answer and timings.
pub struct LiveJob {
    /// The final view's h-index.
    pub estimate: u64,
    /// Frame digest of the final view's state.
    pub digest: u64,
    /// The final view's state size, in words.
    pub space_words: u64,
    /// The retired engine's own h-index (must equal the view's).
    pub finished_estimate: u64,
    /// Last update due → final view visible to the reader, in ms.
    pub answer_ms: f64,
    /// Per epoch: last update due → reader first sees it, in ms.
    pub fresh_ms: Vec<f64>,
    /// Reader `query()` + `estimate()` latency, in µs.
    pub read_us: Vec<f64>,
    /// Per driver call: how late it started against its due time, in ms.
    pub late_ms: Vec<f64>,
    /// Seconds from the first update's due time to the final view.
    pub wall_s: f64,
    /// The attached observer's final counters (traced jobs only).
    pub observed: Option<MetricsSnapshot>,
    /// The driver-thread spans (empty when untraced).
    pub tracer: Tracer,
}

/// What the reader saw.
struct Reader {
    /// `(seconds since the schedule's origin, offset)` each time a view
    /// covering more of the stream became visible.
    seen: Vec<(f64, u64)>,
    read_us: Vec<f64>,
}

/// Runs job number `job` over `updates`. Untraced, the engine
/// publishes by itself every [`PUBLISH_INTERVAL`] items. Traced, it
/// never publishes by itself and the driver calls `publish_now` at the
/// same offsets, so each publish is a span; the epochs and their
/// contents are the same.
///
/// The reader's polling grid is shifted by [`spec::job_phase`] of its
/// period: with one fixed phase, the wait for the next poll after the
/// final epoch would depend on where the seed's stream length puts that
/// epoch on the grid, and `answer_ms` would differ by seed instead of
/// by engine.
pub fn live_job(updates: &[(u64, u64)], traced: bool, job: u32) -> Result<LiveJob, String> {
    let total = updates.len() as u64;
    let mut tr = Tracer::new(traced);
    let observer = traced.then(|| Arc::new(EngineObserver::new(SHARDS)));
    let interval = if traced { u64::MAX } else { PUBLISH_INTERVAL };
    let mut builder = EngineConfig::builder()
        .shards(SHARDS)
        .batch(BATCH)
        .publish_interval(interval);
    if let Some(o) = &observer {
        builder = builder.observer(Arc::clone(o));
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let mut engine = tr.time("engine.spawn", || {
        ShardedEngine::new(config, CashTable::new())
    });
    let handle = engine
        .read_handle()
        .ok_or("engine built without a read plane")?;

    let origin = Instant::now() + Duration::from_millis(5);
    let due = |offset: u64| origin + Duration::from_secs_f64(offset as f64 / LIVE_RATE);
    let deadline = due(total) + GRACE;
    let mut late_ms = Vec::with_capacity(updates.len() / CHUNK + 1);

    let phase = READ_PERIOD.mul_f64(spec::job_phase(job));
    let reader = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(&handle, origin, phase, total, deadline));
        let mut offset = 0u64;
        for chunk in updates.chunks(CHUNK) {
            offset += chunk.len() as u64;
            let due_at = due(offset);
            tr.time("driver.wait", || sleep_until(due_at));
            late_ms.push(
                Instant::now()
                    .saturating_duration_since(due_at)
                    .as_secs_f64()
                    * 1e3,
            );
            tr.time("router.ingest", || engine.ingest_batch(chunk));
            if traced && offset.is_multiple_of(PUBLISH_INTERVAL) {
                tr.time("plane.publish", || engine.publish_now());
            }
        }
        tr.time("answer.flush", || engine.flush());
        tr.time("plane.publish", || engine.publish_now());
        tr.time("answer.wait", || reader.join())
    });
    let reader = reader.map_err(|_| "reader thread panicked".to_string())?;

    let view = handle.query().ok_or("no view was ever published")?;
    let (estimate, digest, space_words) = tr.time("answer.digest", || {
        let state = view.estimator();
        (
            state.estimate(),
            state.frame_digest(),
            state.space_words() as u64,
        )
    });
    let final_offset = view.offset();
    drop(view);
    let finished = tr
        .time("engine.finish", || engine.finish())
        .map_err(|e| e.to_string())?;

    let final_seen = reader
        .seen
        .last()
        .filter(|&&(_, off)| off == total)
        .map(|&(t, _)| t);
    let Some(final_seen) = final_seen else {
        return Err(format!(
            "the reader never saw the final view (offset {final_offset} of {total})"
        ));
    };
    let due_s = |offset: u64| offset as f64 / LIVE_RATE;
    let fresh_ms = (1..=total / PUBLISH_INTERVAL)
        .map(|k| {
            let boundary = k * PUBLISH_INTERVAL;
            let seen = reader
                .seen
                .iter()
                .find(|&&(_, off)| off >= boundary)
                .map_or(final_seen, |&(t, _)| t);
            (seen - due_s(boundary)) * 1e3
        })
        .collect();
    Ok(LiveJob {
        estimate,
        digest,
        space_words,
        finished_estimate: finished.estimate(),
        answer_ms: (final_seen - due_s(total)) * 1e3,
        fresh_ms,
        read_us: reader.read_us,
        late_ms,
        wall_s: final_seen,
        observed: observer.map(|o| o.snapshot()),
        tracer: tr,
    })
}

/// Polls the handle every [`READ_PERIOD`] from `origin + phase`
/// (skipping missed periods rather than bursting) until the view covers
/// the whole stream or the deadline passes.
fn read_loop(
    handle: &ReadHandle<CashTable>,
    origin: Instant,
    phase: Duration,
    total: u64,
    deadline: Instant,
) -> Reader {
    let mut seen = Vec::new();
    let mut read_us = Vec::new();
    let mut covered = 0u64;
    let mut next = origin + phase;
    loop {
        sleep_until(next);
        let start = Instant::now();
        let view = handle.query();
        let estimate = view.as_ref().map(|v| v.estimator().estimate());
        let end = Instant::now();
        std::hint::black_box(estimate);
        read_us.push((end - start).as_secs_f64() * 1e6);
        if let Some(v) = &view {
            if v.offset() > covered {
                covered = v.offset();
                seen.push((end.saturating_duration_since(origin).as_secs_f64(), covered));
            }
        }
        if covered >= total || end > deadline {
            return Reader { seen, read_us };
        }
        next += READ_PERIOD;
        if next < end {
            let behind = (end - next).as_nanos() / READ_PERIOD.as_nanos() + 1;
            next += READ_PERIOD * u32::try_from(behind).unwrap_or(u32::MAX);
        }
    }
}

/// Sleeps until `at` (returns at once when it has passed).
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Replay;
    use crate::run::COVERAGE_MIN;
    use crate::spec;
    use hindex_stream::generator::planted_h_corpus;

    #[test]
    fn traced_and_untraced_jobs_publish_the_same_views() {
        // ~0.2 s of offered load over 2 000 papers.
        let input = spec::from_corpus(&planted_h_corpus(150, 2_000, 9), 9, false);
        let replay = Replay::run(
            &CashTable::new(),
            &spec::route(&input.updates, Some(PUBLISH_INTERVAL)),
        );
        for traced in [false, true] {
            let job = live_job(&input.updates, traced, 0).unwrap();
            assert_eq!(job.digest, replay.digest(), "traced {traced}");
            assert_eq!(job.estimate, input.h);
            assert_eq!(job.finished_estimate, input.h);
            assert_eq!(
                job.fresh_ms.len() as u64,
                input.updates.len() as u64 / PUBLISH_INTERVAL
            );
            assert!(job.fresh_ms.iter().all(|&f| f > 0.0));
            assert!(!job.read_us.is_empty());
            if traced {
                let coverage = job.tracer.coverage();
                assert!(
                    (COVERAGE_MIN..=1.0).contains(&coverage),
                    "coverage {coverage}"
                );
                let publishes = job.tracer.durations("plane.publish").len() as u64;
                assert_eq!(publishes, input.updates.len() as u64 / PUBLISH_INTERVAL + 1);
            }
        }
    }
}
