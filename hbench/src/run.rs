//! One workload, one phase: set up, gate the input, take the serial
//! reference, run jobs for the measuring time, check every answer, and
//! reduce the samples to the contract's metrics.

use crate::closed::{self, CliJob, MirrorJob};
use crate::env;
use crate::live::{self, LiveJob};
use crate::replay::{Est, Offline, Replay};
use crate::spec::{self, Input, Workload, DELTA, EPSILON, PUBLISH_INTERVAL};
use crate::stats::{beyond, median, quantile, Metrics};
use crate::trace::Tracer;
use hindex_baseline::CashTable;
use hindex_common::{ApproxKind, Delta, Epsilon, Guarantee};
use hindex_core::{CashRegisterHIndex, CashRegisterParams};
use hindex_obs::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up (generating the input) is timed at least this many times a
/// run, besides the generation that makes the run's input.
const SETUP_MIN_REPEATS: usize = 3;
/// Between the iterations of an untraced run, set-up is repeated while
/// the repetitions so far took under this share of the elapsed time…
const SETUP_SHARE: f64 = 0.05;
/// …and ran fewer than this many times per run, pro rata: so `setup_s`
/// is the median of repetitions spread over the whole run, as the jobs
/// are, and not of a burst at its start.
const SETUP_MAX_REPEATS: usize = 40;
/// Iterations at the start of a run whose jobs are checked but add no
/// samples: they fill the caches and settle the allocator.
const WARM_UP_ITERATIONS: u32 = 1;
/// Iterations a run makes even when the measuring time is short.
const MIN_ITERATIONS: u32 = WARM_UP_ITERATIONS + 2;
/// The traced run's driver-thread spans must cover at least this share
/// of its wall time (the rest is the driver's own bookkeeping).
pub const COVERAGE_MIN: f64 = 0.95;
/// Repetitions of the out-of-engine encode and clone+merge timings.
const OFFLINE_REPEATS: usize = 3;
/// Fresh processes that measure `rss_peak_mb` per untraced
/// `live_exact` run.
const RSS_PROBES: usize = 3;

/// The outcome of one workload phase.
pub struct Report {
    /// Whether this was the traced phase.
    pub traced: bool,
    /// Checked operations: every job's answer, the serial reference,
    /// set-up determinism, the input bands, the memory probes and
    /// (traced) the span coverage.
    pub attempted: u64,
    /// Checked operations that failed, one per failed check.
    pub failed: u64,
    /// What failed, in words.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable lines: input characterisation, sample counts,
    /// the span table.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; records `problem` when it failed.
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// Runs `workload` for about `seconds` of measuring time.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut rep = Report {
        traced,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Metrics::default(),
        notes: Vec::new(),
    };
    let input = spec::generate(workload, seed);
    let mut setup = SetUp {
        workload,
        seed,
        fingerprint: input.fingerprint(),
        times: Vec::new(),
        deterministic: true,
    };
    let routed = spec::route(
        &input.updates,
        (!workload.closed_loop()).then_some(PUBLISH_INTERVAL),
    );
    let dup = spec::dup_ratio(&routed);
    rep.notes.push(format!(
        "input: papers {}  updates {}  exact h {}  input.dup_ratio {dup:.4}",
        input.papers,
        input.updates.len(),
        input.h
    ));
    let violations = spec::band_violations(workload, &input, dup);
    rep.check(violations.is_empty(), || {
        format!("band: {}", violations.join("; "))
    });
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        input: &input,
        dup,
    };
    if workload.sketch() {
        let params = CashRegisterParams::Additive {
            epsilon: Epsilon::new(EPSILON).expect("valid ε"),
            delta: Delta::new(DELTA).expect("valid δ"),
        };
        let mut rng = StdRng::seed_from_u64(spec::sketch_seed(seed));
        measure(
            &mut rep,
            &ctx,
            &CashRegisterHIndex::new(params, &mut rng),
            routed,
            &mut setup,
        );
    } else {
        measure(&mut rep, &ctx, &CashTable::new(), routed, &mut setup);
    }
    rep
}

/// The timed set-up repetitions of a run. The generation that makes
/// the run's input is not among them: it runs in a fresh process, while
/// every repetition runs beside a held input after the previous
/// repetition was dropped, so all of them start from one allocator state.
struct SetUp {
    workload: Workload,
    seed: u64,
    /// Fingerprint of the run's input.
    fingerprint: u64,
    /// Seconds each repetition took.
    times: Vec<f64>,
    /// Whether every repetition generated the run's input again.
    deterministic: bool,
}

impl SetUp {
    /// Generates the input once more, timed, and checks it against the
    /// run's.
    fn repeat(&mut self) {
        let start = Instant::now();
        let again = spec::generate(self.workload, self.seed);
        self.times.push(start.elapsed().as_secs_f64());
        self.deterministic &= again.fingerprint() == self.fingerprint;
    }

    /// Seconds the repetitions took in all.
    fn total(&self) -> f64 {
        self.times.iter().sum()
    }
}

/// Everything a phase shares across its jobs.
struct Ctx<'a> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    input: &'a Input,
    dup: f64,
}

impl Ctx<'_> {
    /// Whether `estimate` is an acceptable answer: within the sketch's
    /// (ε, δ) contract at scale `papers`, or exactly h for the table.
    fn answer_ok(&self, estimate: u64) -> bool {
        if self.workload.sketch() {
            let eps = Epsilon::new(EPSILON).expect("valid ε");
            let delta = Delta::new(DELTA).expect("valid δ");
            Guarantee::randomized(ApproxKind::Additive, eps, delta).holds(
                self.input.h,
                estimate,
                self.input.papers,
            )
        } else {
            estimate == self.input.h
        }
    }
}

/// The jobs a phase completed and checked.
#[derive(Default)]
struct Samples {
    cli: Vec<CliJob>,
    /// Peak resident MiB of each `cli` job's process.
    cli_rss_mb: Vec<f64>,
    mirror: Vec<MirrorJob>,
    traced_mirror: Vec<MirrorJob>,
    live: Vec<LiveJob>,
    traced_live: Vec<LiveJob>,
}

fn measure<E: Est>(
    rep: &mut Report,
    ctx: &Ctx<'_>,
    prototype: &E,
    routed: Vec<Vec<Vec<(u64, u64)>>>,
    setup: &mut SetUp,
) {
    let replay = Replay::run(prototype, &routed);
    drop(routed);
    let reference = replay.digest();
    let serial = replay.merged.estimate();
    rep.check(ctx.answer_ok(serial), || {
        format!("serial replay answered {serial} (exact h {})", ctx.input.h)
    });
    rep.notes.push(format!(
        "serial replay digest {reference:#018x} (every answer must match it)"
    ));
    let offline = rep.traced.then(|| replay.offline(OFFLINE_REPEATS));
    drop(replay);

    let mut s = Samples::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let w = ctx.workload;
    let mut iterations = 0u32;
    loop {
        // The first iteration warms the caches and the allocator up: its
        // jobs are checked but add no samples.
        let keep = iterations >= WARM_UP_ITERATIONS;
        if w.closed_loop() && !rep.traced {
            let (job, rss_mb) = match closed::cli_job_in_child(w, ctx.seed, &ctx.input.text) {
                Ok((job, rss_mb)) => (Ok(job), Some(rss_mb)),
                Err(e) => (Err(e), None),
            };
            if let Some(job) = checked(rep, ctx, reference, job).filter(|_| keep) {
                s.cli.push(job);
                s.cli_rss_mb.extend(rss_mb);
            }
        }
        if w.closed_loop() {
            let job = closed::mirror_job(w, prototype, ctx.input, false, iterations);
            s.mirror
                .extend(checked(rep, ctx, reference, job).filter(|_| keep));
        } else {
            let job = live::live_job(&ctx.input.updates, false, iterations);
            s.live
                .extend(checked(rep, ctx, reference, job).filter(|_| keep));
        }
        if rep.traced && w.closed_loop() {
            let job = closed::mirror_job(w, prototype, ctx.input, true, iterations);
            s.traced_mirror
                .extend(checked(rep, ctx, reference, job).filter(|_| keep));
        } else if rep.traced {
            let job = live::live_job(&ctx.input.updates, true, iterations);
            s.traced_live
                .extend(checked(rep, ctx, reference, job).filter(|_| keep));
        }
        iterations += 1;
        if !rep.traced {
            let elapsed = start.elapsed().as_secs_f64();
            let allowed = SETUP_MAX_REPEATS as f64 * elapsed / ctx.seconds;
            while setup.total() < SETUP_SHARE * elapsed && (setup.times.len() as f64) < allowed {
                setup.repeat();
            }
        }
        // Stop before an iteration of the average length would overrun.
        let elapsed = start.elapsed();
        if iterations >= MIN_ITERATIONS && elapsed + elapsed / iterations > budget {
            break;
        }
    }
    rep.notes.push(format!(
        "{iterations} iterations in {:.1} s ({WARM_UP_ITERATIONS} of them warm-up)",
        start.elapsed().as_secs_f64()
    ));
    while setup.times.len() < SETUP_MIN_REPEATS {
        setup.repeat();
    }
    rep.check(setup.deterministic, || {
        "set-up gave different inputs for one seed".into()
    });
    rep.notes.push(format!(
        "set-up: {} timed repetitions over the run, {:.2}–{:.2} ms",
        setup.times.len(),
        1e3 * quantile(&mut setup.times.clone(), 0.0),
        1e3 * quantile(&mut setup.times.clone(), 1.0)
    ));
    let setup_s = median(&setup.times);
    match offline {
        Some(offline) => layer_metrics(rep, ctx, &s, &offline),
        None => {
            let rss_mb = if w.closed_loop() {
                std::mem::take(&mut s.cli_rss_mb)
            } else {
                probe_rss(rep, ctx)
            };
            end_to_end_metrics(rep, ctx, &s, &rss_mb, setup_s);
        }
    }
}

/// One job of `workload` in this process, which must be fresh (the
/// `--child 1` mode): returns what the process prints.
///
/// * Closed loop: `hindex engine` over the text read from standard
///   input — the engine's output, then the job's wall seconds
///   ([`closed::CHILD_WALL`]) and peak resident MiB
///   ([`closed::CHILD_RSS`]).
/// * `live_exact`: generates the input, drops what the job does not
///   read and runs one open-loop job; prints the peak resident MiB.
///
/// The peak mark is reset just before the job, once the input is held.
/// Measured in the benchmark's own process the figure would mostly show
/// what its allocator kept from earlier set-ups and jobs.
pub fn child_job(workload: Workload, seed: u64) -> Result<String, String> {
    if workload.closed_loop() {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading the job's input: {e}"))?;
        env::reset_peak_rss();
        let (out, wall_s) = closed::run_cli(&closed::cli_args(workload, seed), &text)?;
        let rss = env::peak_rss_mb();
        Ok(format!(
            "{out}\n{}{wall_s}\n{}{rss}",
            closed::CHILD_WALL,
            closed::CHILD_RSS
        ))
    } else {
        let Input { updates, .. } = spec::generate(workload, seed);
        env::reset_peak_rss();
        live::live_job(&updates, false, 0)?;
        Ok(format!("{}{}", closed::CHILD_RSS, env::peak_rss_mb()))
    }
}

/// Runs [`child_job`] for `live_exact` in `RSS_PROBES` fresh child
/// processes of this executable, one after another, and returns their
/// peaks. (The closed-loop workloads run every `hindex engine` job in a
/// child and take the peak from each.)
fn probe_rss(rep: &mut Report, ctx: &Ctx<'_>) -> Vec<f64> {
    let mut peaks = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let seed = ctx.seed.to_string();
        let out = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args([
                    "--workload",
                    ctx.workload.name(),
                    "--seed",
                    &seed,
                    "--child",
                    "1",
                ])
                .stdin(Stdio::null())
                .output()
        });
        let peak = match &out {
            Ok(o) if o.status.success() => {
                String::from_utf8_lossy(&o.stdout).lines().find_map(|l| {
                    l.strip_prefix(closed::CHILD_RSS)?
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            }
            _ => None,
        };
        rep.check(peak.is_some(), || match &out {
            Ok(o) => format!(
                "rss probe failed: {}",
                String::from_utf8_lossy(&o.stderr).trim()
            ),
            Err(e) => format!("rss probe did not start: {e}"),
        });
        peaks.extend(peak);
    }
    peaks
}

/// A job the correctness gate can check.
trait Job {
    /// The answer's h-index and frame digest.
    fn answer(&self) -> (u64, u64);
    /// Path-specific faults (degraded answer, restarts, …).
    fn faults(&self) -> Vec<String>;
}

impl Job for CliJob {
    fn answer(&self) -> (u64, u64) {
        (self.estimate, self.digest)
    }
    fn faults(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.degraded {
            out.push("answer is degraded".to_string());
        }
        if self.restarts != 0 {
            out.push(format!("{} restarts on a fault-free run", self.restarts));
        }
        out
    }
}

impl Job for MirrorJob {
    fn answer(&self) -> (u64, u64) {
        (self.estimate, self.digest)
    }
    fn faults(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.degraded {
            out.push("answer is degraded".to_string());
        }
        if let Some(restarts) = self
            .observed
            .as_ref()
            .map(|m| m.restarts)
            .filter(|&r| r != 0)
        {
            out.push(format!("{restarts} restarts on a fault-free run"));
        }
        out
    }
}

impl Job for LiveJob {
    fn answer(&self) -> (u64, u64) {
        (self.estimate, self.digest)
    }
    fn faults(&self) -> Vec<String> {
        if self.finished_estimate == self.estimate {
            Vec::new()
        } else {
            vec![format!(
                "final view says {} but the engine finished at {}",
                self.estimate, self.finished_estimate
            )]
        }
    }
}

/// The per-run correctness gate: one checked operation per job. A job
/// that errors, answers outside its contract, disagrees with the
/// serial replay's digest, or reports a fault counts as failed; its
/// samples stay out of the metrics but it is never dropped from the
/// count.
fn checked<J: Job>(
    rep: &mut Report,
    ctx: &Ctx<'_>,
    reference: u64,
    job: Result<J, String>,
) -> Option<J> {
    let problems = match &job {
        Err(e) => vec![e.clone()],
        Ok(job) => {
            let (estimate, digest) = job.answer();
            let mut problems = job.faults();
            if !ctx.answer_ok(estimate) {
                problems.push(format!("answered {estimate} (exact h {})", ctx.input.h));
            }
            if digest != reference {
                problems.push(format!("digest {digest:#018x} is not the serial replay's"));
            }
            problems
        }
    };
    let ok = problems.is_empty();
    rep.check(ok, || problems.join("; "));
    job.ok().filter(|_| ok)
}

/// The median over jobs of `f`.
fn med<J>(jobs: &[J], f: impl Fn(&J) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>())
}

/// Every job's samples, pooled.
fn pool<J>(jobs: &[J], f: impl Fn(&J) -> &[f64]) -> Vec<f64> {
    jobs.iter().flat_map(|j| f(j).iter().copied()).collect()
}

/// Notes how many samples a percentile rests on.
fn note_tail(rep: &mut Report, name: &str, samples: &[f64]) {
    let tail = beyond(samples, 0.99);
    let caveat = if tail < 10 {
        " (fewer than 10: p99 is a high percentile, not a tail)"
    } else {
        ""
    };
    rep.notes.push(format!(
        "{name}: {} samples, {tail} beyond p99{caveat}",
        samples.len()
    ));
}

/// Pooled p50, and the median over jobs of each job's p99, of per-job
/// samples. Taking p99 job by job keeps one disturbed job (a stolen CPU,
/// a neighbour's burst) from moving the run's figure.
fn percentiles(rep: &mut Report, name: &str, per_job: &[&[f64]]) -> (f64, f64) {
    let mut pooled: Vec<f64> = per_job.iter().flat_map(|s| s.iter().copied()).collect();
    let p99s: Vec<f64> = per_job
        .iter()
        .map(|s| quantile(&mut s.to_vec(), 0.99))
        .collect();
    let fewest = per_job.iter().map(|s| s.len()).min().unwrap_or(0);
    rep.notes.push(format!(
        "{name}: {} samples over {} jobs (at least {fewest} a job); p50 pooled, p99 the median of the jobs' p99",
        pooled.len(),
        per_job.len()
    ));
    (quantile(&mut pooled, 0.5), median(&p99s))
}

/// A job's answer latency and read samples, wherever they were taken.
trait Timings {
    /// `(answer_ms, fresh_ms samples, read_us samples)`.
    fn timings(&self) -> (f64, &[f64], &[f64]);
}

impl Timings for MirrorJob {
    fn timings(&self) -> (f64, &[f64], &[f64]) {
        (self.answer_ms, &self.fresh_ms, &self.read_us)
    }
}

impl Timings for LiveJob {
    fn timings(&self) -> (f64, &[f64], &[f64]) {
        (self.answer_ms, &self.fresh_ms, &self.read_us)
    }
}

/// Answer latency and read percentiles over a phase's jobs.
struct ReadFigures {
    answer_ms: f64,
    fresh_p50_ms: f64,
    fresh_p99_ms: f64,
    read_p50_us: f64,
    read_p99_us: f64,
}

fn read_figures<J: Timings>(rep: &mut Report, jobs: &[J]) -> ReadFigures {
    let answer: Vec<f64> = jobs.iter().map(|j| j.timings().0).collect();
    let fresh: Vec<&[f64]> = jobs.iter().map(|j| j.timings().1).collect();
    let read: Vec<&[f64]> = jobs.iter().map(|j| j.timings().2).collect();
    let (fresh_p50_ms, fresh_p99_ms) = percentiles(rep, "fresh", &fresh);
    let (read_p50_us, read_p99_us) = percentiles(rep, "read", &read);
    ReadFigures {
        answer_ms: median(&answer),
        fresh_p50_ms,
        fresh_p99_ms,
        read_p50_us,
        read_p99_us,
    }
}

/// The read figures of a phase's untraced jobs of the workload's kind.
fn phase_read_figures(rep: &mut Report, ctx: &Ctx<'_>, s: &Samples) -> ReadFigures {
    if ctx.workload.closed_loop() {
        read_figures(rep, &s.mirror)
    } else {
        read_figures(rep, &s.live)
    }
}

fn end_to_end_metrics(rep: &mut Report, ctx: &Ctx<'_>, s: &Samples, rss_mb: &[f64], setup_s: f64) {
    let n = ctx.input.updates.len() as f64;
    // Throughput and size come from the user's path; the answer and
    // the reads from the jobs that time them.
    let (ups, space): (Vec<f64>, Vec<f64>) = if ctx.workload.closed_loop() {
        s.cli
            .iter()
            .map(|j| (n / j.wall_s, j.space_words as f64))
            .unzip()
    } else {
        let mut late = pool(&s.live, |j| &j.late_ms);
        rep.notes.push(format!(
            "driver lateness: p99 {:.3} ms, max {:.3} ms over {} calls",
            quantile(&mut late, 0.99),
            quantile(&mut late, 1.0),
            late.len()
        ));
        s.live
            .iter()
            .map(|j| (n / j.wall_s, j.space_words as f64))
            .unzip()
    };
    let lowest = ups.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = ups.iter().copied().fold(0.0, f64::max);
    rep.notes.push(format!(
        "job_ups over {} jobs: min {lowest:.0}, max {highest:.0}",
        ups.len()
    ));
    let reads = phase_read_figures(rep, ctx, s);
    // Bounded figures only: the freshness p99 and the sub-microsecond
    // read p50 move with the shared box's load by more than any bound
    // allows, so they are per-layer figures (`plane.*`) instead.
    rep.notes.push(format!(
        "unbounded: fresh p99 {:.4} ms, read p50 {:.4} us",
        reads.fresh_p99_ms, reads.read_p50_us
    ));
    let m = &mut rep.metrics;
    m.put("job_ups", median(&ups), "1/s");
    m.put("answer_ms", reads.answer_ms, "ms");
    m.put("fresh_p50_ms", reads.fresh_p50_ms, "ms");
    m.put("read_p99_us", reads.read_p99_us, "us");
    m.put("space_words", median(&space), "words");
    m.put("rss_peak_mb", median(rss_mb), "MB");
    m.put("setup_s", setup_s, "s");
}

fn layer_metrics(rep: &mut Report, ctx: &Ctx<'_>, s: &Samples, offline: &Offline) {
    let n = ctx.input.updates.len() as f64;
    // The traced jobs' spans and observers, and the traced and
    // untraced walls of the same job kind.
    let (tracers, observed, traced_wall, plain_wall): (
        Vec<&Tracer>,
        Vec<&MetricsSnapshot>,
        f64,
        f64,
    ) = if ctx.workload.closed_loop() {
        (
            s.traced_mirror.iter().map(|j| &j.tracer).collect(),
            s.traced_mirror
                .iter()
                .filter_map(|j| j.observed.as_ref())
                .collect(),
            med(&s.traced_mirror, |j| j.wall_s),
            med(&s.mirror, |j| j.wall_s),
        )
    } else {
        (
            s.traced_live.iter().map(|j| &j.tracer).collect(),
            s.traced_live
                .iter()
                .filter_map(|j| j.observed.as_ref())
                .collect(),
            med(&s.traced_live, |j| j.wall_s),
            med(&s.live, |j| j.wall_s),
        )
    };
    let mut late = pool(&s.traced_live, |j| &j.late_ms);
    let total = |layer: &str| med(&tracers, |t| t.total(layer));
    let obs = |f: &dyn Fn(&MetricsSnapshot) -> f64| med(&observed, |m| f(m));
    let spans = |layer: &str| {
        tracers
            .iter()
            .flat_map(|t| t.durations(layer))
            .collect::<Vec<f64>>()
    };
    let mut calls = spans("router.ingest");
    let coverage = med(&tracers, |t| t.coverage());
    rep.check((COVERAGE_MIN..=1.0).contains(&coverage), || {
        format!("trace.coverage {coverage:.4} outside [{COVERAGE_MIN}, 1]")
    });
    if let Some(t) = tracers.last() {
        let wall = t.wall();
        rep.notes
            .push(format!("spans of the last traced job ({wall:.3} s wall):"));
        for (layer, secs, count) in t.summary() {
            rep.notes.push(format!(
                "  {layer:<16} {secs:>10.4} s {:>6.1}%  {count} calls",
                100.0 * secs / wall
            ));
        }
    }
    note_tail(rep, "router.call", &calls);

    let reads = phase_read_figures(rep, ctx, s);
    let bank = &offline.bank;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let micro_checkpoints = obs(&|m| m.micro_checkpoints as f64);
    let m = &mut rep.metrics;
    m.put("io.parse_s", total("io.parse"), "s");
    m.put("io.ns_per_line", 1e9 * total("io.parse") / n, "ns");
    m.put("router.call_s", total("router.ingest"), "s");
    m.put("router.call_p50_us", 1e6 * quantile(&mut calls, 0.5), "us");
    m.put("router.call_p99_us", 1e6 * quantile(&mut calls, 0.99), "us");
    m.put(
        "router.full_batch_rate",
        obs(&|m| m.full_batch_rate),
        "ratio",
    );
    m.put("router.batch_mean", obs(&|m| m.batch_mean as f64), "items");
    m.put(
        "router.queue_depth_peak",
        obs(&|m| m.queue_depth_peaks.iter().copied().max().unwrap_or(0) as f64),
        "items",
    );
    m.put("router.skew", obs(&|m| m.routing_skew), "ratio");
    m.put("apply.serial_s", offline.serial_s, "s");
    m.put("apply.max_shard_s", offline.max_shard_s, "s");
    m.put("apply.ns_per_update", 1e9 * offline.serial_s / n, "ns");
    m.put(
        "apply.ns_per_item",
        1e9 * offline.serial_s * ctx.dup / n,
        "ns",
    );
    m.put(
        "bank.dup_ratio",
        ratio(bank.raw_updates, bank.tile_items),
        "ratio",
    );
    m.put(
        "bank.tile_fill",
        ratio(bank.tile_items, bank.tile_capacity),
        "ratio",
    );
    m.put(
        "bank.touches_per_item",
        ratio(bank.level_touches, bank.tile_items),
        "ratio",
    );
    m.put(
        "bank.pow_reuse",
        ratio(bank.pow_reused, bank.pow_evals + bank.pow_reused),
        "ratio",
    );
    m.put("answer.flush_ms", 1e3 * total("answer.flush"), "ms");
    m.put("merge.ms", 1e3 * total("answer.merge"), "ms");
    m.put("estimate.ms", 1e3 * total("answer.estimate"), "ms");
    m.put("answer.digest_ms", 1e3 * total("answer.digest"), "ms");
    m.put("supervisor.micro_checkpoints", micro_checkpoints, "count");
    m.put("supervisor.frame_bytes", offline.frame_bytes, "B");
    m.put("supervisor.encode_ms", offline.encode_ms, "ms");
    m.put(
        "supervisor.ckpt_s",
        micro_checkpoints * offline.encode_ms / 1e3,
        "s",
    );
    m.put(
        "supervisor.replay_words_peak",
        obs(&|m| m.replay_words_peaks.iter().copied().max().unwrap_or(0) as f64),
        "words",
    );
    m.put(
        "plane.publish_call_us",
        1e6 * median(&spans("plane.publish")),
        "us",
    );
    m.put(
        "plane.publish_mean_us",
        obs(&|m| m.publish_ns.mean_ns as f64 / 1e3),
        "us",
    );
    m.put(
        "plane.publish_p99_us",
        obs(&|m| m.publish_ns.p99_ns as f64 / 1e3),
        "us",
    );
    m.put("plane.clone_merge_ms", offline.clone_merge_ms, "ms");
    m.put(
        "plane.views_published",
        obs(&|m| m.views_published as f64),
        "count",
    );
    m.put(
        "plane.reader_misses",
        obs(&|m| m.reader_misses as f64),
        "count",
    );
    m.put("plane.fresh_p99_ms", reads.fresh_p99_ms, "ms");
    m.put("plane.read_p50_us", reads.read_p50_us, "us");
    m.put("driver.late_p99_ms", quantile(&mut late, 0.99), "ms");
    m.put("driver.late_max_ms", quantile(&mut late, 1.0), "ms");
    m.put("input.papers", ctx.input.papers as f64, "count");
    m.put("input.updates", n, "count");
    m.put("input.h", ctx.input.h as f64, "count");
    m.put("input.dup_ratio", ctx.dup, "ratio");
    m.put("trace.coverage", coverage, "ratio");
    m.put("trace.overhead", traced_wall / plain_wall, "ratio");
}
