//! `flexbench` — the end-to-end benchmark of flexplore.
//!
//! ```text
//! flexbench --workload <cold-lattice|cold-bind|edit-loop> --seed N
//!           --seconds S --trace <0|1> [--work-dir DIR]
//! ```
//!
//! One closed-loop client sends requests back to back. A request is
//! spec JSON in, Pareto front out:
//!
//! * cold (`cold-lattice`, `cold-bind`): `spec_from_json`, `lint_spec`
//!   (the CLI's pre-flight), `CompiledSpec::with_activation_cache`,
//!   `explore_compiled_obs`;
//! * edit (`edit-loop`): `spec_from_json`, then
//!   `ExploreCache::explore_compiled` over a per-session cache directory,
//!   which is what `flexplore watch` does on every file change.
//!
//! Inputs are generated from `--seed` and every front is checked against
//! a reference computed before timing. With `--trace 0` the run reports
//! the end-to-end metrics with `ObsSink::disabled()`; with `--trace 1` it
//! alternates plain and traced passes and reports the per-layer metrics.
//! The last line of standard output is the JSON result.

mod counting;
mod measure;
mod reference;
mod workload;

use flexplore::ExploreOptions;
use measure::{cold_pass, edit_pass, explore_options, Pass, PassKind, DETERMINISTIC};
use reference::{matches_paper_table, par_map, reference_front, self_test, Objectives};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{cold_plan, edit_sessions, ColdPlan, Session, Workload};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Warm-up passes of a cold workload; `setup_s` is their median.
const COLD_SETUP_REPS: usize = 3;

/// Fewest chunks the tail is taken over.
const TAIL_CHUNKS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                seconds = Some(s).filter(|s| *s > 0.0);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds needs a positive number")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// A workload's generated inputs and their reference fronts.
enum Inputs {
    Cold {
        plan: ColdPlan,
        references: Vec<Objectives>,
    },
    Edit {
        sessions: Vec<Session>,
        references: Vec<(Objectives, Vec<Objectives>)>,
    },
}

fn session_texts(sessions: &[Session]) -> Vec<&str> {
    sessions
        .iter()
        .flat_map(|s| std::iter::once(&s.base.json).chain(&s.edits))
        .map(String::as_str)
        .collect()
}

impl Inputs {
    /// Generates the inputs and computes every reference front.
    fn build(workload: Workload, seed: u64, threads: usize) -> Result<Inputs, String> {
        if workload != Workload::EditLoop {
            let plan = cold_plan(workload, seed);
            let references = par_map(&plan.specs, threads, |case| reference_front(&case.spec))
                .into_iter()
                .collect::<Result<_, _>>()?;
            return Ok(Inputs::Cold { plan, references });
        }
        let sessions = edit_sessions(seed);
        let fronts = par_map(&session_texts(&sessions), threads, |json| {
            let spec = flexplore::models::spec_from_json(json).map_err(|e| e.to_string())?;
            reference_front(&spec)
        });
        let mut fronts = fronts.into_iter();
        let mut references = Vec::new();
        for session in &sessions {
            let base = fronts.next().expect("one front per text")?;
            let edits = fronts
                .by_ref()
                .take(session.edits.len())
                .collect::<Result<_, _>>()?;
            references.push((base, edits));
        }
        Ok(Inputs::Edit {
            sessions,
            references,
        })
    }

    fn texts(&self) -> Vec<&str> {
        match self {
            Inputs::Cold { plan, .. } => plan.specs.iter().map(|c| c.json.as_str()).collect(),
            Inputs::Edit { sessions, .. } => session_texts(sessions),
        }
    }

    /// Checks the front checker itself on every base reference, and
    /// set-top-box against the paper's table. Returns the references
    /// checked.
    fn self_test(&self) -> Result<usize, String> {
        let bases: Vec<(&str, &Objectives)> = match self {
            Inputs::Cold { plan, references } => plan
                .specs
                .iter()
                .map(|c| c.label.as_str())
                .zip(references)
                .collect(),
            Inputs::Edit {
                sessions,
                references,
            } => sessions
                .iter()
                .map(|s| s.base.label.as_str())
                .zip(references.iter().map(|(base, _)| base))
                .collect(),
        };
        for (label, front) in &bases {
            self_test(front)?;
            if *label == "set-top-box" && !matches_paper_table(front) {
                return Err(format!(
                    "set-top-box reference {front:?} is not the paper's table"
                ));
            }
        }
        Ok(bases.len())
    }

    /// One pass: a cycle of a cold plan, or every session once.
    fn pass(&self, options: &ExploreOptions, work_dir: &Path, kind: PassKind) -> Pass {
        match self {
            Inputs::Cold { plan, references } => {
                cold_pass(plan, &plan.cycle, references, options, kind)
            }
            Inputs::Edit {
                sessions,
                references,
            } => edit_pass(sessions, references, options, work_dir, kind),
        }
    }

    /// A cold workload's one-time work before the first timed request:
    /// one explore of each distinct spec. Returns its wall time.
    fn warm_up(&self, options: &ExploreOptions, out: &mut Outcome) -> Duration {
        let Inputs::Cold { plan, references } = self else {
            return Duration::ZERO;
        };
        let start = Instant::now();
        let order: Vec<usize> = (0..plan.specs.len()).collect();
        let mut pass = cold_pass(plan, &order, references, options, PassKind::Plain);
        let elapsed = start.elapsed();
        out.absorb(&mut pass);
        elapsed
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least 10 samples beyond it, capped at
/// p99: `(rank, value)` over `latencies`, rank counted from 1.
fn tail(latencies: &mut [f64]) -> (usize, f64) {
    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n.saturating_sub(10)).max(1);
    (rank, latencies[rank - 1])
}

/// `latency_tail_ms` and how it was taken.
struct Tail {
    value: f64,
    chunks: usize,
    /// Requests in, percentile of and samples beyond a middle chunk.
    chunk_len: usize,
    percentile: f64,
    beyond: usize,
}

/// The tail of each of [`TAIL_CHUNKS`] or more consecutive chunks of
/// passes (about 1000 requests each when the run is long enough), and the
/// median over chunks: a burst of host noise then moves one chunk's tail,
/// not the result.
fn chunked_tail(passes: &[Vec<f64>]) -> Tail {
    let n: usize = passes.iter().map(Vec::len).sum();
    let chunks = (n / 1000).max(TAIL_CHUNKS).min(passes.len());
    let mut tails = Vec::with_capacity(chunks);
    let mut middle = (0, 0);
    for c in 0..chunks {
        let mut chunk = passes[c * passes.len() / chunks..(c + 1) * passes.len() / chunks].concat();
        let (rank, value) = tail(&mut chunk);
        if c == chunks / 2 {
            middle = (chunk.len(), rank);
        }
        tails.push(value);
    }
    let (chunk_len, rank) = middle;
    Tail {
        value: median(&mut tails),
        chunks,
        chunk_len,
        percentile: 100.0 * rank as f64 / chunk_len as f64,
        beyond: chunk_len - rank,
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS, so the peak excludes the reference
/// computations. Linux-specific; returns whether it worked.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn fnv1a(texts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for b in text.bytes().chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

type Metric = (&'static str, f64, &'static str);

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts a pass's requests as attempted.
    fn absorb(&mut self, pass: &mut Pass) {
        self.attempted += pass.latencies.len() as u64;
        self.failed += pass.failed;
        if self.first_failure.is_none() {
            self.first_failure = pass.first_failure.take();
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `--trace 0`: the end-to-end metrics, untraced.
fn end_to_end(inputs: &Inputs, args: &Args, options: &ExploreOptions) -> Outcome {
    let rss_reset = reset_peak_rss();
    let mut out = Outcome::default();
    // Cold: the median of repeated warm-ups. Edit-loop: the median over
    // passes of the sessions' priming explores.
    let mut setups: Vec<f64> = (0..COLD_SETUP_REPS)
        .map(|_| inputs.warm_up(options, &mut out).as_secs_f64())
        .filter(|s| *s > 0.0)
        .collect();
    // Host noise comes in bursts of a second or so; the median over
    // passes of each pass's median and rate (a pass has a fixed request
    // mix) shrugs off a burst that pooling would average in.
    let mut passes = Vec::new();
    let mut pass_p50 = Vec::new();
    let mut pass_rate = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let mut pass = inputs.pass(options, &args.work_dir, PassKind::Plain);
        if pass.setup > Duration::ZERO {
            setups.push(pass.setup.as_secs_f64());
        }
        let mut pass_ms: Vec<f64> = pass.latencies.iter().map(|d| ms(*d)).collect();
        pass_rate.push(pass_ms.len() as f64 / pass.busy().as_secs_f64());
        pass_p50.push(median(&mut pass_ms));
        passes.push(pass_ms);
        out.absorb(&mut pass);
        if Instant::now() >= deadline {
            break;
        }
    }
    let tail = chunked_tail(&passes);
    println!(
        "latency: {} passes of {} requests; tail is the median over {} chunks of p{:.2} \
         ({} of {} samples beyond it)",
        passes.len(),
        passes[0].len(),
        tail.chunks,
        tail.percentile,
        tail.beyond,
        tail.chunk_len,
    );
    if !rss_reset {
        println!("note: cannot reset VmHWM; peak_rss_mb includes the reference computations");
    }
    println!(
        "failed_share: {} ({} of {} requests)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    out.metrics = vec![
        ("latency_p50_ms", median(&mut pass_p50), "ms"),
        ("latency_tail_ms", tail.value, "ms"),
        ("throughput_rps", median(&mut pass_rate), "1/s"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    out
}

/// `--trace 1`: plain and traced passes alternate; the per-layer metrics
/// are medians over the traced passes.
fn per_layer(inputs: &Inputs, args: &Args, options: &ExploreOptions) -> Outcome {
    let mut out = Outcome::default();
    inputs.warm_up(options, &mut out);
    let mut counting = inputs.pass(options, &args.work_dir, PassKind::Counting);
    out.absorb(&mut counting);

    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let mut plain = inputs.pass(options, &args.work_dir, PassKind::Plain);
        plain_ms.push(ms(plain.busy()));
        out.absorb(&mut plain);
        let mut pass = inputs.pass(options, &args.work_dir, PassKind::Traced);
        traced_ms.push(ms(pass.busy()));
        out.absorb(&mut pass);
        traced.push(pass.layers.metrics());
        if Instant::now() >= deadline {
            break;
        }
    }

    let first = &traced[0];
    let mut metrics: Vec<Metric> = first
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let mut values: Vec<f64> = traced.iter().map(|m| m[i].1).collect();
            (*name, median(&mut values), *unit)
        })
        .collect();
    let drifted: Vec<&str> = first
        .iter()
        .enumerate()
        .filter(|(i, (name, _, _))| {
            DETERMINISTIC.contains(name) && traced.iter().any(|m| m[*i].1 != first[*i].1)
        })
        .map(|(_, (name, _, _))| *name)
        .collect();
    if !drifted.is_empty() {
        println!("warning: counters differ between traced passes: {drifted:?}");
    }
    metrics.extend(counting.layers.allocation_metrics());
    let plain = median(&mut plain_ms);
    let overhead = 100.0 * (median(&mut traced_ms) / plain - 1.0);
    metrics.push(("trace.overhead_pct", overhead, "%"));

    // The counters that must repeat exactly for the same seed; allocation
    // counts only at one thread, where no other thread allocates.
    let single_thread = args.workload.threads() == 1;
    let deterministic: Vec<String> = metrics
        .iter()
        .filter(|(name, _, _)| {
            DETERMINISTIC.contains(name) || (single_thread && name.starts_with("alloc."))
        })
        .map(|(name, value, _)| format!("\"{name}\": {value}"))
        .collect();
    println!("deterministic: {{{}}}", deterministic.join(", "));

    let request_ms = plain / counting.latencies.len().max(1) as f64;
    let share = |name: &str| {
        let value = metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v);
        100.0 * value / request_ms
    };
    // bind.solve is busy time summed over workers, so on cold-bind it can
    // exceed the request's wall time; bind.total is the driver's wall.
    println!(
        "shares of a {request_ms:.3} ms plain request: explore.enumerate {:.1}%, \
         bind.total {:.1}%, bind.solve {:.1}%, cache.self {:.1}%",
        share("explore.enumerate_ms"),
        share("bind.total_ms"),
        share("bind.solve_ms"),
        share("cache.self_ms"),
    );
    out.metrics = metrics;
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = args.workload.threads();
    println!(
        "host: available_parallelism={cores} workload={} explore_threads={threads} seed={} \
         seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if threads > cores {
        let notice = format!(
            "notice: refusing {}: it explores with {threads} threads but this host has {cores} \
             core(s)",
            args.workload.name()
        );
        println!("{notice}");
        eprintln!("{notice}");
        return ExitCode::from(3);
    }

    let started = Instant::now();
    let inputs = match Inputs::build(args.workload, args.seed, cores.min(2)) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("error: reference computation failed: {e}");
            return ExitCode::from(1);
        }
    };
    let texts = inputs.texts();
    println!(
        "inputs: {} spec texts, hash {:016x}; references took {:.2} s",
        texts.len(),
        fnv1a(&texts),
        started.elapsed().as_secs_f64()
    );
    match inputs.self_test() {
        Ok(n) => println!("self-test: perturbed fronts rejected for {n} references"),
        Err(e) => {
            eprintln!("error: self-test failed: {e}");
            return ExitCode::from(1);
        }
    }

    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(1);
    }
    let options = explore_options(threads);
    let outcome = if args.trace {
        per_layer(&inputs, &args, &options)
    } else {
        end_to_end(&inputs, &args, &options)
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);

    if let Some(e) = &outcome.first_failure {
        println!("first failure: {e}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
