//! Closed-loop jobs: the whole stream goes in, then the answer comes
//! out.
//!
//! * [`cli_job`] is the user's path: `hindex engine` through
//!   `hindex_cli::run`, from input bytes to the printed answer. It
//!   gives `job_ups` and the answer the correctness gate checks.
//! * [`mirror_job`] makes the same calls `hindex engine` makes, one
//!   public function at a time — `io::read_updates`, the engine's
//!   `ingest_batch` per fixed chunk, `flush`, `query` (merge),
//!   `estimate`, `frame_digest` — so the answer phase and anytime
//!   reads can be timed. With tracing on, each call is a span.

use crate::replay::Est;
use crate::spec::{self, Input, Workload, BATCH, SHARDS};
use crate::trace::Tracer;
use hindex_engine::{
    Engine, EngineConfig, EngineError, QueryReport, ShardedEngine, SupervisedEngine,
    SupervisorConfig,
};
use hindex_obs::{EngineObserver, MetricsSnapshot};
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Items per `ingest_batch` call in the mirror job: one router batch.
const CHUNK: usize = BATCH;
/// Anytime reads spread evenly through the stream in the mirror job.
const MID_READS: usize = 8;
/// Reads of the drained engine after the answer.
const QUIET_READS: usize = 16;

/// One `hindex engine` invocation, as its output reports it.
#[derive(Debug, Clone)]
pub struct CliJob {
    /// Seconds from handing in the input bytes to the returned answer.
    pub wall_s: f64,
    /// The printed h-index.
    pub estimate: u64,
    /// The printed state digest.
    pub digest: u64,
    /// The printed state size, in words.
    pub space_words: u64,
    /// Whether the answer is degraded (a shard was lost).
    pub degraded: bool,
    /// Worker restarts (supervised runs only).
    pub restarts: u64,
}

/// The `hindex engine` arguments a workload runs with: two shards, the
/// derived sketch seed, every other flag at its default.
pub fn cli_args(workload: Workload, seed: u64) -> Vec<String> {
    let mut argv = vec![
        "engine".to_string(),
        "--shards".into(),
        SHARDS.to_string(),
        "--seed".into(),
        spec::sketch_seed(seed).to_string(),
    ];
    if !workload.sketch() {
        argv.extend(["--algorithm".into(), "exact".into()]);
    }
    if workload.supervised() {
        argv.extend(["--supervise".into(), "on".into()]);
    }
    argv
}

/// Runs `hindex engine` over `text` in this process; returns what it
/// printed and the wall seconds from handing in the bytes to the
/// returned answer.
pub fn run_cli(argv: &[String], text: &str) -> Result<(String, f64), String> {
    let start = Instant::now();
    let out = hindex_cli::run(argv, &mut text.as_bytes())?;
    Ok((out, start.elapsed().as_secs_f64()))
}

/// One `hindex engine` job in a fresh child process of this
/// executable (`--child 1`): the text goes in on its standard input,
/// and the child prints the engine's output, the job's wall seconds and
/// its peak resident set. Returns the job and that peak, in MiB.
///
/// A fresh process per job is what a user running `hindex engine`
/// gets, and it starts every job from the same allocator state instead
/// of whatever the jobs before it left behind.
pub fn cli_job_in_child(
    workload: Workload,
    seed: u64,
    text: &str,
) -> Result<(CliJob, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--child",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("job process did not start: {e}"))?;
    // Dropping the pipe after the write closes the child's input; the
    // child is waited for on every path.
    let written = child
        .stdin
        .take()
        .map(|mut stdin| stdin.write_all(text.as_bytes()));
    let out = child
        .wait_with_output()
        .map_err(|e| format!("job process was lost: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "job process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    if let Some(Err(e)) = written {
        return Err(format!("job process input: {e}"));
    }
    let tagged = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key)?.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("job process printed no `{key}` line:\n{stdout}"))
    };
    let job = parse_cli(&stdout, tagged(CHILD_WALL)?)?;
    Ok((job, tagged(CHILD_RSS)?))
}

/// The line prefix of a child job's wall seconds.
pub const CHILD_WALL: &str = "hbench wall_s ";
/// The line prefix of a child job's peak resident MiB.
pub const CHILD_RSS: &str = "hbench rss_peak_mb ";

/// Reads what `hindex engine` printed.
pub fn parse_cli(out: &str, wall_s: f64) -> Result<CliJob, String> {
    let field = |key: &str| {
        out.lines()
            .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
            .map(str::trim)
            .ok_or_else(|| format!("`hindex engine` printed no `{key}` line:\n{out}"))
    };
    let first_number = |s: &str| {
        s.split_whitespace()
            .next()
            .and_then(|t| t.parse::<u64>().ok())
    };
    let bad = |key: &str| format!("`hindex engine` printed a malformed `{key}` line:\n{out}");
    let estimate = field("h-index")?.parse().map_err(|_| bad("h-index"))?;
    let digest = field("digest")?
        .strip_prefix("0x")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| bad("digest"))?;
    let space_words = first_number(field("space")?).ok_or_else(|| bad("space"))?;
    let degraded = !field("degraded")?.starts_with("no");
    let restarts = match field("restarts") {
        Ok(v) => first_number(v).ok_or_else(|| bad("restarts"))?,
        Err(_) => 0,
    };
    Ok(CliJob {
        wall_s,
        estimate,
        digest,
        space_words,
        degraded,
        restarts,
    })
}

/// One mirror job's answer and timings.
pub struct MirrorJob {
    /// The answer's h-index.
    pub estimate: u64,
    /// Frame digest of the answering (merged) state.
    pub digest: u64,
    /// Whether any shard was lost.
    pub degraded: bool,
    /// Last update handed in → answer ready: flush + merge + estimate
    /// + digest, in milliseconds.
    pub answer_ms: f64,
    /// Anytime reads mid-stream: chunk handed in → estimate ready, in
    /// milliseconds (includes draining the queued batches).
    pub fresh_ms: Vec<f64>,
    /// Reads of the drained engine: `query()` + `estimate()`, in
    /// microseconds.
    pub read_us: Vec<f64>,
    /// Seconds from input bytes to the retired engine.
    pub wall_s: f64,
    /// The attached observer's final counters (traced jobs only).
    pub observed: Option<MetricsSnapshot>,
    /// The driver-thread spans (empty when untraced).
    pub tracer: Tracer,
}

/// Runs mirror job number `job`; `traced` records spans and attaches an
/// [`EngineObserver`].
///
/// The anytime reads sit at offsets shifted by [`spec::job_phase`].
/// Each read flushes the partial batches, so the shift also moves how
/// many batches every shard has applied when the stream ends — and with
/// it, on the supervised engine, whether a micro-checkpoint is being
/// encoded when the answer is asked for. Fixed offsets would let the
/// seed's stream length decide that for every job of a run.
pub fn mirror_job<E: Est>(
    workload: Workload,
    prototype: &E,
    input: &Input,
    traced: bool,
    job: u32,
) -> Result<MirrorJob, String> {
    let mut tr = Tracer::new(traced);
    let observer = traced.then(|| Arc::new(EngineObserver::new(SHARDS)));
    let start = Instant::now();
    let raw = tr.time("io.parse", || {
        hindex_cli::io::read_updates(&mut input.text.as_bytes())
    })?;
    let updates = tr
        .time("io.convert", || {
            raw.iter()
                .map(|&(p, d)| u64::try_from(d).map(|d| (p, d)))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| "negative delta in a cash-register stream".to_string())?;
    drop(raw);
    let shift = spec::job_phase(job);
    let read_at: Vec<usize> = (1..=MID_READS)
        .map(|k| ((2 * k - 1) as f64 + shift) / (2 * MID_READS + 1) as f64)
        .map(|at| (at * updates.len() as f64) as usize)
        .collect();
    let mut builder = EngineConfig::builder().shards(SHARDS).batch(BATCH);
    if let Some(o) = &observer {
        builder = builder.observer(Arc::clone(o));
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let mut job = if workload.supervised() {
        // The `hindex engine --supervise on` defaults.
        let sup = SupervisorConfig {
            max_restarts: 8,
            ..SupervisorConfig::default()
        };
        let engine = tr
            .time("engine.spawn", || {
                SupervisedEngine::new(config, sup, prototype.clone())
            })
            .map_err(|e| e.to_string())?;
        drive(engine, &updates, &read_at, &mut tr)?
    } else {
        let engine = tr.time("engine.spawn", || {
            ShardedEngine::new(config, prototype.clone())
        });
        drive(engine, &updates, &read_at, &mut tr)?
    };
    job.wall_s = start.elapsed().as_secs_f64();
    job.observed = observer.map(|o| o.snapshot());
    job.tracer = tr;
    Ok(job)
}

/// Feeds the stream chunk by chunk with an anytime read after the chunk
/// that reaches each offset in `read_at`, answers, reads the drained
/// engine, and retires it.
fn drive<N, E>(
    mut engine: N,
    updates: &[(u64, u64)],
    read_at: &[usize],
    tr: &mut Tracer,
) -> Result<MirrorJob, String>
where
    N: Engine<(u64, u64), Output = E, Error = EngineError, Report = QueryReport>,
    E: Est,
{
    let err = |e: EngineError| e.to_string();
    let mut fresh_ms = Vec::with_capacity(read_at.len());
    let mut offset = 0;
    for chunk in updates.chunks(CHUNK) {
        tr.time("router.ingest", || engine.ingest_batch(chunk));
        let before = offset;
        offset += chunk.len();
        if read_at.iter().any(|&at| before < at && at <= offset) {
            let handed = Instant::now();
            let snapshot = tr.time("read.query", || engine.query()).map_err(err)?;
            tr.time("read.estimate", || {
                std::hint::black_box(snapshot.estimate())
            });
            fresh_ms.push(handed.elapsed().as_secs_f64() * 1e3);
        }
    }

    let handed = Instant::now();
    tr.time("answer.flush", || engine.flush());
    let merged = tr.time("answer.merge", || engine.query()).map_err(err)?;
    let estimate = tr.time("answer.estimate", || merged.estimate());
    let digest = tr.time("answer.digest", || merged.frame_digest());
    let answer_ms = handed.elapsed().as_secs_f64() * 1e3;
    drop(merged);

    let mut read_us = Vec::with_capacity(QUIET_READS);
    for _ in 0..QUIET_READS {
        let start = Instant::now();
        let snapshot = tr.time("read.query", || engine.query()).map_err(err)?;
        tr.time("read.estimate", || {
            std::hint::black_box(snapshot.estimate())
        });
        read_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let retired = tr
        .time("engine.finish", || engine.finish_degraded())
        .map_err(err)?;
    Ok(MirrorJob {
        estimate,
        digest,
        degraded: !retired.dead_shards.is_empty(),
        answer_ms,
        fresh_ms,
        read_us,
        wall_s: 0.0,
        observed: None,
        tracer: Tracer::new(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Replay;
    use crate::run::COVERAGE_MIN;

    use hindex_baseline::CashTable;
    use hindex_common::{Delta, Epsilon};
    use hindex_core::{CashRegisterHIndex, CashRegisterParams};
    use hindex_stream::generator::planted_h_corpus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The traced-run consistency checks on a small stream: the spans
    /// cover the traced wall, and the engine's digest is the serial
    /// replay's, so the apply timings timed the same work.
    fn traced_job_is_consistent<E: Est>(workload: Workload, prototype: &E, input: &Input) {
        let replay = Replay::run(prototype, &spec::route(&input.updates, None));
        let job = mirror_job(workload, prototype, input, true, 0).unwrap();
        assert_eq!(job.digest, replay.digest());
        assert!(!job.degraded);
        assert_eq!(job.fresh_ms.len(), MID_READS);
        assert_eq!(job.read_us.len(), QUIET_READS);
        let coverage = job.tracer.coverage();
        assert!(
            (COVERAGE_MIN..=1.0).contains(&coverage),
            "coverage {coverage}"
        );
        assert!(job.observed.is_some());
    }

    #[test]
    fn traced_exact_job_is_consistent() {
        let input = spec::from_corpus(&planted_h_corpus(200, 2_000, 5), 5, true);
        traced_job_is_consistent(Workload::BulkExact, &CashTable::new(), &input);
    }

    #[test]
    fn traced_supervised_sketch_job_is_consistent() {
        let input = spec::from_corpus(&planted_h_corpus(120, 240, 6), 6, true);
        let params = CashRegisterParams::Additive {
            epsilon: Epsilon::new(0.3).unwrap(),
            delta: Delta::new(0.2).unwrap(),
        };
        let prototype = CashRegisterHIndex::new(params, &mut StdRng::seed_from_u64(6));
        traced_job_is_consistent(Workload::HotSupervised, &prototype, &input);
    }

    #[test]
    fn cli_output_fields_parse() {
        let input = Input {
            updates: vec![(1, 1), (1, 1), (2, 1)],
            text: "1 1\n1 1\n2 1\n".into(),
            papers: 2,
            h: 1,
        };
        let argv = cli_args(Workload::BulkExact, 0);
        let (out, wall_s) = run_cli(&argv, &input.text).unwrap();
        let job = parse_cli(&out, wall_s).unwrap();
        assert_eq!(job.estimate, 1);
        assert!(!job.degraded);
        assert_eq!(job.restarts, 0);
        assert!(job.space_words > 0);
    }
}
