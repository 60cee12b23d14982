//! Command implementations of the `flexplore` CLI.
//!
//! Everything is a pure function from parsed arguments to an output
//! string, so the whole surface is unit-testable without spawning
//! processes; `main.rs` is a thin shell around [`run`].
//!
//! ```text
//! flexplore explore <spec.json> [--csv] [--threads N]   Pareto front of a specification
//! flexplore resilience <spec.json> [--k K] [--threads N]  cost/flexibility/resilience front
//! flexplore flexibility <spec.json>                     flexibility metric + per-cluster profile
//! flexplore query <spec.json> (--min-flex K | --budget D)
//! flexplore dot <spec.json>                             Graphviz export (Fig. 2 view)
//! flexplore info <spec.json>                            size statistics
//! flexplore demo [--json]                               built-in Set-Top box case study
//! flexplore faults <spec.json> [--kill R@NS[+NS]]...    fault-injection scenario + resilience
//! flexplore lint <spec.json> [--format json] [--deny ..] static analysis (codes F001–F016)
//! flexplore analyze <spec.json|MODEL> [--format json]    spec-level lattice facts (F014–F016)
//! flexplore profile <spec.json|MODEL> [--top K]         instrumented EXPLORE, hottest phases
//! flexplore fuzz [--seed S] [--iterations N] [--profile FAMILY] differential invariant fuzzing
//! ```
//!
//! The long-running commands (`explore`, `resilience`, `faults`, `lint`)
//! also accept `--profile [text|json]`, which runs the same engine with
//! the observability sink enabled: `text` appends a phase/counter table
//! to the normal output, `json` replaces the output with the aggregated
//! [`RunReport`](flexplore::RunReport).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flexplore::adaptive::{generate_trace, FaultTimelineEvent, TraceConfig};
use flexplore::lint::is_known_code;
use flexplore::models::{spec_from_json, spec_from_json_unvalidated, spec_to_json};
use flexplore::obs::phase;
use flexplore::{
    analyze_spec_obs, dual_slot_fpga, explore, explore_compiled_obs, explore_resilient,
    fingerprint, flexibility_profile, k_resilient_flexibility, lint_spec_obs,
    max_flexibility_under_budget, min_cost_for_flexibility, resolve_threads, run_with_faults,
    set_top_box, synthetic_spec, tv_decoder, AllocationOptions, CompiledSpec, Cost,
    DegradationPolicy, ExploreCache, ExploreOptions, FaultKind, FaultPlan, FaultScenario,
    ImplementOptions, ObsSink, ParetoFront, ReconfigCost, Selection, SpecificationGraph,
    SyntheticConfig, Time, VertexId, WarmSummary,
};
use flexplore_fuzz::{replay_dir, run_fuzz, DomainProfile, FuzzOptions};
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

/// Error type of the CLI: a user-facing message plus the exit code.
///
/// The exit-code scheme is machine-readable:
///
/// | code | meaning |
/// |---|---|
/// | 0 | success (the `Ok` path; never carried by a `CliError`) |
/// | 1 | lint findings denied by `--deny`, or fuzz invariant violations |
/// | 2 | errors: bad arguments, defective specifications, infeasible queries |
/// | 3 | internal fault of `lint`/`fuzz` (unreadable/unparsable input) |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The message printed to stderr.
    pub message: String,
    /// Machine-readable payload (a rendered lint report) printed to stdout
    /// before exiting, so `--format json` consumers can parse findings even
    /// on failure.
    pub output: Option<String>,
    /// The process exit code.
    pub code: u8,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        output: None,
        code: 2,
    }
}

/// The usage text printed for `--help` and argument errors.
pub const USAGE: &str = "\
flexplore — flexibility/cost design-space exploration (Haubelt et al., DATE 2002)

USAGE:
    flexplore explore (<spec.json> | <MODEL>) [--csv] [--json] [--threads N]
                      [--analysis on|off] [--cache-dir <DIR>]
                      [--profile [text|json]]
    flexplore watch <spec.json> [--cache-dir <DIR>] [--threads N]
                    [--poll-ms <MS>] [--max-polls <N>]
    flexplore export <MODEL>
    flexplore resilience <spec.json> [--k <K>] [--threads N]
                         [--profile [text|json]]
    flexplore flexibility <spec.json>
    flexplore query <spec.json> --min-flex <K>
    flexplore query <spec.json> --budget <DOLLARS>
    flexplore dot <spec.json>
    flexplore info <spec.json>
    flexplore demo [--json]
    flexplore faults <spec.json> [--kill <RESOURCE>@<NS>[+<OUTAGE>]]...
                     [--seed <N>] [--count <N>] [--policy <POLICY>]
                     [--budget <DOLLARS>] [--k <K>] [--trace <N>]
                     [--threads <N>] [--profile [text|json]]
    flexplore lint (<spec.json> | --builtin <MODEL>) [--format text|json]
                   [--deny (warnings|<CODE>)]... [--profile [text|json]]
    flexplore analyze (<spec.json> | <MODEL>) [--format text|json]
                      [--deny (warnings|<CODE>)]... [--profile [text|json]]
    flexplore profile (<spec.json> | <MODEL>) [--top <K>] [--threads <N>]
                      [--format text|json] [--events <PATH>]
    flexplore fuzz [--seed <S>] [--iterations <N>] [--profile <FAMILY>]
                   [--threads <N>] [--corpus-dir <DIR>]
    flexplore fuzz --replay <DIR>

COMMANDS:
    explore       print the Pareto-optimal flexibility/cost front of a
                  specification file or a bundled model name
                  (--threads N runs the deterministic parallel engine;
                  0 = all cores; output is identical for every N).
                  --json dumps the front alone as JSON (byte-identical
                  across thread counts).
                  --analysis off disables the static lattice-fact
                  pruning of the lattice search (on by default;
                  candidates and fronts are byte-identical either way).
                  --cache-dir persists the run's front, candidate list
                  and bind outcomes keyed by a content hash of the spec;
                  a later run warm-starts from them: a latency edit
                  replays the candidate list, a cost edit re-walks the
                  lattice, and either way only the bind outcomes the edit
                  touched are recomputed. Fronts and counters stay
                  byte-identical to a cold run; corrupt or
                  version-mismatched cache files degrade to a cold run
                  with a warning. --json emits {fingerprint, front}
    watch         poll a specification file (default every 500 ms) and
                  re-explore it through the warm-start cache whenever its
                  mtime changes, printing the front delta, the warm level
                  (exact/replay/seeded/cold) and the wall-clock next to
                  the last cold time. --max-polls bounds the loop (0 =
                  forever); --cache-dir defaults to .flexplore-cache next
                  to the watched file
    export        print a bundled model as specification JSON (the same
                  format explore/watch read), for seeding edit-replay
                  workflows and CI fixtures
    resilience    print the three-objective cost / flexibility /
                  k-resilient-flexibility front (--k bounds the failures,
                  default 1; --threads as for explore)
    flexibility   print the flexibility metric and the per-cluster profile
    query         answer a single design question (cheapest-for-target or
                  best-under-budget)
    dot           print the specification graph in Graphviz format
    info          print size statistics of a specification
    demo          run the paper's Set-Top box case study (--json dumps the
                  model instead)
    faults        replay a behavior trace while injecting resource failures,
                  print the degradation timeline and the flexibility that
                  survives. --kill schedules a failure of a named resource at
                  a time in ns (append +<NS> for a transient outage); without
                  --kill a seeded-random plan is used (--seed, --count).
                  --policy is fail-fast, best-effort (default) or retry;
                  --budget picks the platform (most flexible one affordable),
                  --k bounds the k-resilience analysis (default 1),
                  --threads parallelizes the kill-set sweep (same result)
    lint          statically analyze a specification without running any
                  exploration; print diagnostics with stable codes
                  F001..F016 (the file is loaded unvalidated so structural
                  defects are reported as findings, not parse errors).
                  --format json emits a machine-readable report;
                  --deny warnings / --deny <CODE> make those findings
                  fatal; --builtin lints a bundled model (set_top_box,
                  tv_decoder, dual_slot_fpga, synthetic-small,
                  synthetic-medium, synthetic-large, synthetic-wide).
                  exit codes: 0 clean (or findings not denied), 1 findings
                  denied by --deny, 2 error-level findings, 3 internal
                  fault (unreadable file, malformed JSON, bad flags)
    analyze       lint, then prove spec-level lattice facts without
                  enumerating any subset: mandatory units (F014), dominated
                  units (F015) and symmetry classes of interchangeable
                  units (F016), reported as note-level diagnostics plus a
                  facts section (machine-readable under --format json).
                  Accepts a file path or a bundled model name. --deny works
                  as for lint, except --deny warnings denies only
                  warning-level findings (the facts themselves are notes).
                  exit codes as for lint
    profile       run an instrumented EXPLORE of a file or bundled model
                  and print the hottest phases (--top K, default 8).
                  --format json dumps the full run report, --events PATH
                  writes the JSON-lines event log to a file
    fuzz          seeded differential fuzzing: generate random small
                  specifications and cross-check the pipeline invariants
                  (lint/explore agreement, flat-scan equivalence, MOEA
                  and resilience subset, thread invariance, JSON round
                  trip, static lattice facts vs a prune-free flat
                  enumeration). Fully deterministic: equal --seed means a
                  byte-identical report. --iterations is per profile
                  (default 100); --profile picks the domain family (stb,
                  automotive, baseband, cloud-fpga, wide or all, the
                  default);
                  --corpus-dir writes minimized repros of any violation;
                  --replay DIR re-checks every stored repro instead of
                  generating. NOTE: unlike the other commands, fuzz's
                  --profile selects the generator family, not the
                  observability mode.
                  exit codes: 0 clean, 1 invariant violations found,
                  2 bad flags, 3 internal fault (unreadable corpus)

PROFILING:
    explore, resilience, faults and lint accept --profile [text|json]:
    text appends a phase/counter table to the normal output; json
    replaces the output with the aggregated run report. Counter totals
    are byte-identical for every --threads value; only *_ns durations
    and the speculation section vary between runs.
";

/// Runs one CLI invocation; `args` excludes the program name.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on bad arguments,
/// unreadable files, malformed models, or infeasible queries.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("explore") => cmd_explore(&args.collect::<Vec<_>>()),
        Some("watch") => cmd_watch(&args.collect::<Vec<_>>()),
        Some("export") => cmd_export(&args.collect::<Vec<_>>()),
        Some("resilience") => cmd_resilience(&args.collect::<Vec<_>>()),
        Some("flexibility") => cmd_flexibility(&args.collect::<Vec<_>>()),
        Some("query") => cmd_query(&args.collect::<Vec<_>>()),
        Some("dot") => cmd_dot(&args.collect::<Vec<_>>()),
        Some("info") => cmd_info(&args.collect::<Vec<_>>()),
        Some("demo") => cmd_demo(&args.collect::<Vec<_>>()),
        Some("faults") => cmd_faults(&args.collect::<Vec<_>>()),
        Some("lint") => cmd_lint(&args.collect::<Vec<_>>()),
        Some("analyze") => cmd_analyze(&args.collect::<Vec<_>>()),
        Some("profile") => cmd_profile(&args.collect::<Vec<_>>()),
        Some("fuzz") => cmd_fuzz(&args.collect::<Vec<_>>()),
        Some("--help" | "-h" | "help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn load_spec(path: &str) -> Result<SpecificationGraph, CliError> {
    let json =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    spec_from_json(&json).map_err(|e| err(format!("invalid specification {path}: {e}")))
}

/// How `--profile` reports the observability data collected by a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    /// Instrumentation disabled — the sink records nothing and the hot
    /// paths pay a single branch per probe.
    Off,
    /// Append the human-readable phase/counter table to the normal output.
    Text,
    /// Replace the normal output with the aggregated run report as JSON.
    Json,
}

impl ProfileMode {
    /// The sink matching the mode: disabled for [`ProfileMode::Off`],
    /// enabled (clock starts now) otherwise.
    fn sink(self) -> ObsSink {
        if self == ProfileMode::Off {
            ObsSink::disabled()
        } else {
            ObsSink::enabled()
        }
    }
}

/// Splits `--profile [text|json]` out of an argument list so every
/// command shares one syntax; the value is optional and defaults to
/// `text` (a bare `--profile` before another flag does what it looks
/// like it does).
fn take_profile<'a>(args: &[&'a str]) -> (ProfileMode, Vec<&'a str>) {
    let mut mode = ProfileMode::Off;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter().copied().peekable();
    while let Some(arg) = it.next() {
        if arg == "--profile" {
            mode = match it.peek().copied() {
                Some("json") => {
                    it.next();
                    ProfileMode::Json
                }
                Some("text") => {
                    it.next();
                    ProfileMode::Text
                }
                _ => ProfileMode::Text,
            };
        } else {
            rest.push(arg);
        }
    }
    (mode, rest)
}

/// Renders a command's final output under its profile mode: untouched
/// when off, with the report table appended for `text`, replaced by the
/// report JSON for `json` (machine-readable, like `--csv`).
fn profiled_output(
    mode: ProfileMode,
    obs: &ObsSink,
    run: &str,
    spec_name: &str,
    threads: usize,
    normal: String,
) -> Result<String, CliError> {
    match mode {
        ProfileMode::Off => Ok(normal),
        ProfileMode::Text => {
            let report = obs.report(run, spec_name, threads);
            Ok(format!("{normal}{}", report.render_text(8)))
        }
        ProfileMode::Json => {
            let report = obs.report(run, spec_name, threads);
            let mut json = report
                .to_json()
                .map_err(|e| err(format!("cannot render run report: {e}")))?;
            json.push('\n');
            Ok(json)
        }
    }
}

/// Pre-flight lint gate run by the expensive commands (`explore`,
/// `resilience`, `faults`) before any enumeration starts.
///
/// Error-level findings abort the run (exit code 2) with the full report
/// on stderr — a degenerate specification would otherwise only manifest as
/// a silently empty front. `F013` aborts too, even though it is only a
/// warning, because its own message is a promise that the run will fail;
/// rejecting here turns an opaque overflow error into a diagnostic. Other
/// warning/note findings are surfaced as a banner line the command
/// prepends to its output; clean specifications get an empty banner so
/// their output is unchanged.
fn preflight_lint(spec: &SpecificationGraph, obs: &ObsSink) -> Result<String, CliError> {
    let timer = obs.start();
    let report = lint_spec_obs(spec, obs);
    obs.finish(phase::LINT, timer);
    if report.has_errors() || report.has_code("F013") {
        return Err(err(format!(
            "specification rejected by pre-flight lint:\n{}",
            report.render_text()
        )));
    }
    if report.is_clean() {
        Ok(String::new())
    } else {
        Ok(format!(
            "lint: {} warning(s), {} note(s) — run `flexplore lint` for details\n",
            report.warnings(),
            report.notes()
        ))
    }
}

/// Compiles `spec` for the engines, recording the `compile` phase.
fn compile<'a>(spec: &'a SpecificationGraph, obs: &ObsSink) -> CompiledSpec<'a> {
    let timer = obs.start();
    let compiled = CompiledSpec::with_activation_cache(spec);
    obs.finish(phase::COMPILE, timer);
    compiled
}

/// A bundled model by CLI name, for `lint --builtin`.
fn builtin_spec(name: &str) -> Option<SpecificationGraph> {
    Some(match name {
        "set_top_box" => set_top_box().spec,
        "tv_decoder" => tv_decoder().spec,
        "dual_slot_fpga" => dual_slot_fpga().spec,
        "synthetic-small" => synthetic_spec(&SyntheticConfig::small(7)),
        "synthetic-medium" => synthetic_spec(&SyntheticConfig::medium(11)),
        "synthetic-large" => synthetic_spec(&SyntheticConfig::large(11)),
        "synthetic-wide" => synthetic_spec(&SyntheticConfig::wide(13)),
        _ => return None,
    })
}

/// The bundled model names, for error messages and usage text.
const BUILTIN_NAMES: &str = "set_top_box, tv_decoder, dual_slot_fpga, synthetic-small, \
     synthetic-medium, synthetic-large, synthetic-wide";

fn cmd_lint(args: &[&str]) -> Result<String, CliError> {
    // Internal faults of the lint command itself (bad flags, unreadable
    // or unparsable input) exit with 3 so scripts can tell "the tool
    // broke" from "the specification has defects" (2) or "findings were
    // denied" (1).
    let fault = |message: String| CliError {
        message,
        output: None,
        code: 3,
    };
    let (profile, args) = take_profile(args);
    let mut path: Option<&str> = None;
    let mut builtin: Option<&str> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut deny_codes: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--format" => match it.next().copied() {
                Some("text") => json = false,
                Some("json") => json = true,
                other => return Err(fault(format!("--format needs text or json, got {other:?}"))),
            },
            "--deny" => match it.next().copied() {
                Some("warnings") => deny_warnings = true,
                // A well-formed but unknown code is a user error (exit 2),
                // not an internal fault: silently accepting it would make
                // a typo like `--deny F010` vs `F001` pass every gate.
                Some(code) if code.starts_with('F') => {
                    if !is_known_code(code) {
                        return Err(err(format!(
                            "unknown lint code {code:?}; known codes are F001..F016"
                        )));
                    }
                    deny_codes.push(code);
                }
                other => {
                    return Err(fault(format!(
                        "--deny needs `warnings` or a diagnostic code (F001..F016), got {other:?}"
                    )))
                }
            },
            "--builtin" => {
                builtin = Some(
                    it.next()
                        .copied()
                        .ok_or_else(|| fault("--builtin needs a model name".to_owned()))?,
                );
            }
            flag if flag.starts_with('-') => return Err(fault(format!("unknown flag {flag:?}"))),
            positional if path.is_none() && builtin.is_none() => path = Some(positional),
            positional => return Err(fault(format!("unexpected argument {positional:?}"))),
        }
    }
    let obs = profile.sink();
    let timer = obs.start();
    let spec = match (path, builtin) {
        (Some(path), None) => {
            // Deliberately unvalidated: structural defects become lint
            // findings with stable codes instead of a load-time rejection.
            let text = std::fs::read_to_string(path)
                .map_err(|e| fault(format!("cannot read {path}: {e}")))?;
            spec_from_json_unvalidated(&text)
                .map_err(|e| fault(format!("cannot parse {path}: {e}")))?
        }
        (None, Some(name)) => builtin_spec(name)
            .ok_or_else(|| fault(format!("unknown builtin model {name:?} ({BUILTIN_NAMES})")))?,
        _ => {
            return Err(fault(format!(
                "lint needs a <spec.json> path or --builtin <MODEL>\n\n{USAGE}"
            )))
        }
    };
    obs.finish(phase::PARSE, timer);

    let timer = obs.start();
    let report = lint_spec_obs(&spec, &obs);
    obs.finish(phase::LINT, timer);
    let rendered = if json {
        report.render_json()
    } else {
        report.render_text()
    };
    if report.has_errors() {
        return Err(CliError {
            message: format!(
                "lint found {} error(s) in {}",
                report.errors(),
                report.spec_name
            ),
            output: Some(rendered),
            code: 2,
        });
    }
    let denied_code = deny_codes.iter().find(|c| report.has_code(c)).copied();
    if (deny_warnings && !report.is_clean()) || denied_code.is_some() {
        let message = match denied_code {
            Some(code) => format!("lint: {code} denied by --deny {code}"),
            None => format!(
                "lint: {} warning(s), {} note(s) denied by --deny warnings",
                report.warnings(),
                report.notes()
            ),
        };
        return Err(CliError {
            message,
            output: Some(rendered),
            code: 1,
        });
    }
    // Failure paths above keep their rendered-report payload untouched:
    // the profile only decorates successful runs.
    profiled_output(profile, &obs, "lint", spec.name(), 1, rendered)
}

/// `flexplore analyze <target>` — lint, then run the static lattice
/// analysis (DESIGN.md §15) and print the proven facts: mandatory units
/// (`F014`), dominated units (`F015`) and symmetry classes (`F016`).
///
/// The exit-code scheme mirrors `lint`: 0 clean or findings not denied,
/// 1 findings denied by `--deny`, 2 error-level findings, 3 internal
/// fault. Unlike `lint`, `--deny warnings` denies only warning-level
/// findings — the facts themselves are notes, so a clean specification
/// with provable facts still passes the gate.
fn cmd_analyze(args: &[&str]) -> Result<String, CliError> {
    let fault = |message: String| CliError {
        message,
        output: None,
        code: 3,
    };
    let (profile, args) = take_profile(args);
    let mut target: Option<&str> = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut deny_codes: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match *arg {
            "--format" => match it.next().copied() {
                Some("text") => json = false,
                Some("json") => json = true,
                other => return Err(fault(format!("--format needs text or json, got {other:?}"))),
            },
            "--deny" => match it.next().copied() {
                Some("warnings") => deny_warnings = true,
                Some(code) if code.starts_with('F') => {
                    if !is_known_code(code) {
                        return Err(err(format!(
                            "unknown lint code {code:?}; known codes are F001..F016"
                        )));
                    }
                    deny_codes.push(code);
                }
                other => {
                    return Err(fault(format!(
                        "--deny needs `warnings` or a diagnostic code (F001..F016), got {other:?}"
                    )))
                }
            },
            flag if flag.starts_with('-') => return Err(fault(format!("unknown flag {flag:?}"))),
            positional if target.is_none() => target = Some(positional),
            positional => return Err(fault(format!("unexpected argument {positional:?}"))),
        }
    }
    let Some(target) = target else {
        return Err(fault(format!(
            "analyze needs a <spec.json> path or a bundled model name\n\n{USAGE}"
        )));
    };
    let obs = profile.sink();
    let timer = obs.start();
    // A file if one exists at the path, else a bundled model name — like
    // `profile`. Files are loaded unvalidated, like `lint`, so structural
    // defects become findings instead of parse errors.
    let spec = if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target)
            .map_err(|e| fault(format!("cannot read {target}: {e}")))?;
        spec_from_json_unvalidated(&text)
            .map_err(|e| fault(format!("cannot parse {target}: {e}")))?
    } else {
        builtin_spec(target).ok_or_else(|| {
            fault(format!(
                "{target:?} is neither a readable file nor a bundled model ({BUILTIN_NAMES})"
            ))
        })?
    };
    obs.finish(phase::PARSE, timer);

    let analysis = analyze_spec_obs(&spec, &obs);
    let rendered = if json {
        analysis.render_json()
    } else {
        analysis.render_text()
    };
    let report = &analysis.report;
    if report.has_errors() {
        return Err(CliError {
            message: format!(
                "analyze found {} error(s) in {}",
                report.errors(),
                report.spec_name
            ),
            output: Some(rendered),
            code: 2,
        });
    }
    let denied_code = deny_codes.iter().find(|c| report.has_code(c)).copied();
    if (deny_warnings && report.warnings() > 0) || denied_code.is_some() {
        let message = match denied_code {
            Some(code) => format!("analyze: {code} denied by --deny {code}"),
            None => format!(
                "analyze: {} warning(s) denied by --deny warnings",
                report.warnings()
            ),
        };
        return Err(CliError {
            message,
            output: Some(rendered),
            code: 1,
        });
    }
    profiled_output(profile, &obs, "analyze", spec.name(), 1, rendered)
}

/// `flexplore profile <target>` — run a fully instrumented EXPLORE of a
/// specification file or bundled model and print where the time went.
fn cmd_profile(args: &[&str]) -> Result<String, CliError> {
    let (target, rest) = split_path(args)?;
    let mut top = 8usize;
    let mut threads = 1usize;
    let mut json = false;
    let mut events_path: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match *flag {
            "--top" => {
                top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--top needs a positive integer"))?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--threads needs a positive integer"))?;
            }
            "--format" => match it.next().copied() {
                Some("text") => json = false,
                Some("json") => json = true,
                other => return Err(err(format!("--format needs text or json, got {other:?}"))),
            },
            "--events" => {
                events_path = Some(
                    it.next()
                        .copied()
                        .ok_or_else(|| err("--events needs a file path"))?,
                );
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    // Resolve `--threads 0` once, here: the engines re-resolve
    // idempotently, and the recorded report then shows the worker count
    // the scheduler actually ran with instead of the raw `0`.
    let threads = resolve_threads(threads);

    let obs = ObsSink::enabled();
    let timer = obs.start();
    // A file if one exists at the path, else a bundled model name — so
    // `flexplore profile set_top_box` works without shipping a JSON file.
    let spec = if std::path::Path::new(target).exists() {
        load_spec(target)?
    } else {
        builtin_spec(target).ok_or_else(|| {
            err(format!(
                "{target:?} is neither a readable file nor a bundled model ({BUILTIN_NAMES})"
            ))
        })?
    };
    obs.finish(phase::PARSE, timer);
    preflight_lint(&spec, &obs)?;

    let compiled = compile(&spec, &obs);
    explore_compiled_obs(&compiled, &threaded_options(threads), &obs)
        .map_err(|e| err(e.to_string()))?;
    let report = obs.report("explore", spec.name(), threads);
    if let Some(path) = events_path {
        std::fs::write(path, obs.events_jsonl(&report))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    if json {
        let mut out = report
            .to_json()
            .map_err(|e| err(format!("cannot render run report: {e}")))?;
        out.push('\n');
        Ok(out)
    } else {
        Ok(report.render_text(top))
    }
}

fn cmd_explore(args: &[&str]) -> Result<String, CliError> {
    let (path, rest) = split_path(args)?;
    let (profile, rest) = take_profile(rest);
    let mut csv = false;
    let mut json = false;
    let mut threads = 1usize;
    let mut analysis = true;
    let mut cache_dir: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match *flag {
            "--csv" => csv = true,
            "--json" => json = true,
            "--cache-dir" => {
                cache_dir = Some(
                    it.next()
                        .map(|v| (*v).to_owned())
                        .ok_or_else(|| err("--cache-dir needs a directory path"))?,
                );
            }
            "--analysis" => {
                analysis = match it.next().copied() {
                    Some("on") => true,
                    Some("off") => false,
                    other => return Err(err(format!("--analysis needs on or off, got {other:?}"))),
                };
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--threads needs a positive integer"))?;
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    // Resolved once so the threads line and the recorded obs report show
    // the actual worker count in the `--threads 0` case.
    let threads = resolve_threads(threads);
    let obs = profile.sink();
    let timer = obs.start();
    // A file if one exists at the path, else a bundled model name — so CI
    // determinism diffs can run `flexplore explore synthetic-wide` without
    // shipping a JSON file. Unknown names keep the file-load error.
    let spec = if std::path::Path::new(path).exists() {
        load_spec(path)?
    } else if let Some(spec) = builtin_spec(path) {
        spec
    } else {
        load_spec(path)?
    };
    obs.finish(phase::PARSE, timer);
    let banner = preflight_lint(&spec, &obs)?;
    let mut options = threaded_options(threads);
    options.allocation.analysis = analysis;
    let started = Instant::now();
    let (result, warm) = match &cache_dir {
        Some(dir) => {
            let outcome = ExploreCache::new(dir)
                .explore(&spec, &options, &obs)
                .map_err(|e| err(e.to_string()))?;
            (outcome.result, Some(outcome.summary))
        }
        None => (
            explore_compiled_obs(&compile(&spec, &obs), &options, &obs)
                .map_err(|e| err(e.to_string()))?,
            None,
        ),
    };
    let elapsed = started.elapsed();
    if json && profile != ProfileMode::Json {
        // The fingerprint plus the front: thread- and warm-level-
        // independent, so a warm run diffs byte-for-byte against a cold
        // one.
        let fp = warm
            .as_ref()
            .map_or_else(|| fingerprint(&CompiledSpec::new(&spec)), |s| s.fingerprint);
        let mut out = serde_json::to_string_pretty(&ExploreJson {
            fingerprint: fp.to_string(),
            front: result.front.clone(),
        })
        .map_err(|e| err(format!("cannot render front: {e}")))?;
        out.push('\n');
        return Ok(out);
    }
    if csv && profile != ProfileMode::Json {
        // CSV stays machine-readable: the lint banner is omitted (errors
        // still abort above) and a text profile table would corrupt it.
        return Ok(result.front.to_csv());
    }
    let mut out = banner;
    let _ = writeln!(
        out,
        "Pareto front of {} ({} points):",
        spec.name(),
        result.front.len()
    );
    for point in &result.front {
        let resources = point
            .implementation
            .as_ref()
            .map(|i| i.allocation.display_names(spec.architecture()))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:>8}  f={:<3} [{resources}]",
            point.cost.to_string(),
            point.flexibility
        );
    }
    let s = &result.stats;
    let _ = writeln!(
        out,
        "search: 2^{} raw, {} subsets, {} possible, {} solver calls",
        s.vertex_set_size, s.allocations.subsets, s.allocations.kept, s.implement_attempts
    );
    let _ = writeln!(
        out,
        "threads: {threads} worker(s), {} chunks speculated, {} wasted attempts",
        s.chunks_speculated, s.speculative_waste
    );
    let _ = writeln!(out, "time: {:.3} ms", elapsed.as_secs_f64() * 1e3);
    if let Some(summary) = &warm {
        let _ = writeln!(
            out,
            "warm-start: {} (fingerprint {}) — {} replayed, {} invalidated, {} changed unit(s)",
            summary.mode,
            summary.fingerprint,
            summary.warm_hits,
            summary.warm_invalidated,
            summary.delta_units
        );
        for warning in &summary.warnings {
            let _ = writeln!(out, "warning: {warning}");
        }
    }
    profiled_output(profile, &obs, "explore", spec.name(), threads, out)
}

/// The `explore --json` payload: the spec's content fingerprint plus its
/// Pareto front. Byte-identical across thread counts and warm-start
/// levels.
#[derive(Serialize)]
struct ExploreJson {
    fingerprint: String,
    front: ParetoFront,
}

/// `flexplore export <MODEL>` — print a bundled model as specification
/// JSON, so warm-start workflows can seed an editable file from a known
/// model.
fn cmd_export(args: &[&str]) -> Result<String, CliError> {
    let [name] = args else {
        return Err(err(format!(
            "export needs exactly one bundled model name ({BUILTIN_NAMES})\n\n{USAGE}"
        )));
    };
    let spec = builtin_spec(name).ok_or_else(|| {
        err(format!(
            "unknown model {name:?} (expected one of {BUILTIN_NAMES})"
        ))
    })?;
    let mut out = spec_to_json(&spec).map_err(|e| err(format!("cannot render model: {e}")))?;
    out.push('\n');
    Ok(out)
}

/// `flexplore watch <spec.json>` — poll-based re-exploration through the
/// warm-start cache. Lines stream to stdout as they happen; the returned
/// string is empty.
fn cmd_watch(args: &[&str]) -> Result<String, CliError> {
    use std::io::Write as _;
    watch_loop(args, &mut |line| {
        println!("{line}");
        let _ = std::io::stdout().flush();
    })?;
    Ok(String::new())
}

/// The watch engine behind [`cmd_watch`], emitting each output line through
/// `emit` so tests can capture the stream.
fn watch_loop(args: &[&str], emit: &mut dyn FnMut(&str)) -> Result<(), CliError> {
    let (path, rest) = split_path(args)?;
    let mut cache_dir: Option<String> = None;
    let mut threads = 1usize;
    let mut poll_ms = 500u64;
    let mut max_polls = 0u64; // 0 = forever
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match *flag {
            "--cache-dir" => {
                cache_dir = Some(
                    it.next()
                        .map(|v| (*v).to_owned())
                        .ok_or_else(|| err("--cache-dir needs a directory path"))?,
                );
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--threads needs a positive integer"))?;
            }
            "--poll-ms" => {
                poll_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|ms| *ms > 0)
                    .ok_or_else(|| err("--poll-ms needs a positive integer"))?;
            }
            "--max-polls" => {
                max_polls = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--max-polls needs an integer"))?;
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    let file = std::path::Path::new(path);
    if !file.is_file() {
        return Err(err(format!(
            "watch needs a specification file, {path} is not one"
        )));
    }
    let cache_dir = cache_dir.unwrap_or_else(|| {
        file.parent()
            .unwrap_or_else(|| std::path::Path::new("."))
            .join(".flexplore-cache")
            .display()
            .to_string()
    });
    let cache = ExploreCache::new(&cache_dir);
    let options = threaded_options(resolve_threads(threads));
    emit(&format!(
        "watching {path} (cache {cache_dir}, poll {poll_ms} ms)"
    ));

    let mut last_front: Option<Vec<(Cost, u64)>> = None;
    let mut last_cold_ms: Option<f64> = None;
    let mut last_mtime = None;
    let mut polls = 0u64;
    loop {
        let mtime = std::fs::metadata(file).and_then(|m| m.modified()).ok();
        let changed = mtime.is_some() && mtime != last_mtime;
        if changed {
            last_mtime = mtime;
            match std::fs::read_to_string(file)
                .map_err(|e| e.to_string())
                .and_then(|json| spec_from_json(&json).map_err(|e| e.to_string()))
            {
                Err(e) => emit(&format!("warning: cannot load {path}: {e} (will retry)")),
                Ok(spec) => {
                    let started = Instant::now();
                    match cache.explore(&spec, &options, &ObsSink::disabled()) {
                        Err(e) => emit(&format!("warning: exploration failed: {e}")),
                        Ok(outcome) => {
                            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                            for warning in &outcome.summary.warnings {
                                emit(&format!("warning: {warning}"));
                            }
                            let front: Vec<(Cost, u64)> = outcome.result.front.objectives();
                            emit(&render_watch_cycle(
                                &outcome.summary,
                                &front,
                                last_front.as_deref(),
                                wall_ms,
                                last_cold_ms,
                            ));
                            if outcome.summary.mode == flexplore::WarmMode::Cold {
                                last_cold_ms = Some(wall_ms);
                            }
                            last_front = Some(front);
                        }
                    }
                }
            }
        }
        polls += 1;
        if max_polls != 0 && polls >= max_polls {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// One watch-cycle report: warm level, wall clock (against the last cold
/// run), and the front delta against the previous cycle.
fn render_watch_cycle(
    summary: &WarmSummary,
    front: &[(Cost, u64)],
    previous: Option<&[(Cost, u64)]>,
    wall_ms: f64,
    last_cold_ms: Option<f64>,
) -> String {
    let mut line = format!(
        "re-explored: {} in {:.3} ms ({} points",
        summary.mode,
        wall_ms,
        front.len()
    );
    match previous {
        None => line.push(')'),
        Some(prev) => {
            let added = front.iter().filter(|p| !prev.contains(p)).count();
            let removed = prev.iter().filter(|p| !front.contains(p)).count();
            if added == 0 && removed == 0 {
                line.push_str(", unchanged)");
            } else {
                let _ = write!(line, ", +{added}/-{removed})");
            }
        }
    }
    if summary.mode != flexplore::WarmMode::Cold {
        let _ = write!(
            line,
            " — {} replayed, {} invalidated, {} changed unit(s)",
            summary.warm_hits, summary.warm_invalidated, summary.delta_units
        );
        if let Some(cold_ms) = last_cold_ms {
            let _ = write!(line, "; cold was {cold_ms:.3} ms");
        }
    }
    line
}

/// Explore options with the requested thread count applied to both the
/// candidate scan and the EXPLORE driver (0 = all cores; any value
/// produces the same output).
fn threaded_options(threads: usize) -> ExploreOptions {
    ExploreOptions {
        allocation: AllocationOptions {
            threads,
            ..AllocationOptions::default()
        },
        ..ExploreOptions::paper()
    }
    .with_threads(threads)
}

fn cmd_resilience(args: &[&str]) -> Result<String, CliError> {
    let (path, rest) = split_path(args)?;
    let (profile, rest) = take_profile(rest);
    let mut k = 1usize;
    let mut threads = 1usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match *flag {
            "--k" => {
                k = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--k needs a non-negative integer"))?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--threads needs a positive integer"))?;
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    let threads = resolve_threads(threads);
    let obs = profile.sink();
    let timer = obs.start();
    let spec = load_spec(path)?;
    obs.finish(phase::PARSE, timer);
    let banner = preflight_lint(&spec, &obs)?;
    let options = threaded_options(threads);
    let started = Instant::now();
    let front = explore_resilient(&compile(&spec, &obs), k, &options, &obs)
        .map_err(|e| err(e.to_string()))?;
    let elapsed = started.elapsed();
    let mut out = banner;
    let _ = writeln!(
        out,
        "{k}-resilient front of {} ({} points):",
        spec.name(),
        front.len()
    );
    for point in &front {
        let _ = writeln!(
            out,
            "  {:>8}  f={:<3} r={:<3} [{}]",
            point.cost.to_string(),
            point.flexibility,
            point.resilience,
            point
                .implementation
                .allocation
                .display_names(spec.architecture())
        );
    }
    let _ = writeln!(out, "threads: {threads} worker(s)");
    let _ = writeln!(out, "time: {:.3} ms", elapsed.as_secs_f64() * 1e3);
    profiled_output(profile, &obs, "resilience", spec.name(), threads, out)
}

fn cmd_flexibility(args: &[&str]) -> Result<String, CliError> {
    let (path, rest) = split_path(args)?;
    if !rest.is_empty() {
        return Err(err(format!("unexpected arguments: {rest:?}")));
    }
    let spec = load_spec(path)?;
    let graph = spec.problem().graph();
    let (total, profile) = flexibility_profile(graph);
    let mut out = String::new();
    let _ = writeln!(out, "maximal flexibility of {}: {total}", spec.name());
    let _ = writeln!(out, "per-cluster marginal losses:");
    for entry in &profile {
        let _ = writeln!(
            out,
            "  -{:<3} {}",
            entry.loss,
            graph.cluster_name(entry.cluster)
        );
    }
    Ok(out)
}

fn cmd_query(args: &[&str]) -> Result<String, CliError> {
    let (path, rest) = split_path(args)?;
    let spec = load_spec(path)?;
    let options = ExploreOptions::paper();
    let point = match rest {
        ["--min-flex", k] => {
            let target = k
                .parse()
                .map_err(|_| err("--min-flex needs a non-negative integer"))?;
            min_cost_for_flexibility(&spec, target, &options)
        }
        ["--budget", d] => {
            let budget: u64 = d
                .parse()
                .map_err(|_| err("--budget needs a dollar amount"))?;
            max_flexibility_under_budget(&spec, Cost::new(budget), &options)
        }
        _ => {
            return Err(err(format!(
                "query needs --min-flex <K> or --budget <D>\n\n{USAGE}"
            )))
        }
    }
    .map_err(|e| err(e.to_string()))?;
    match point {
        None => Ok("no feasible platform satisfies the query\n".to_owned()),
        Some(point) => {
            let resources = point
                .implementation
                .as_ref()
                .map(|i| i.allocation.display_names(spec.architecture()))
                .unwrap_or_default();
            Ok(format!(
                "{} with flexibility {} [{resources}]\n",
                point.cost, point.flexibility
            ))
        }
    }
}

fn cmd_dot(args: &[&str]) -> Result<String, CliError> {
    let (path, rest) = split_path(args)?;
    if !rest.is_empty() {
        return Err(err(format!("unexpected arguments: {rest:?}")));
    }
    Ok(load_spec(path)?.to_dot())
}

fn cmd_info(args: &[&str]) -> Result<String, CliError> {
    let (path, rest) = split_path(args)?;
    if !rest.is_empty() {
        return Err(err(format!("unexpected arguments: {rest:?}")));
    }
    let spec = load_spec(path)?;
    let stats = spec.statistics();
    let mut out = String::new();
    let _ = writeln!(out, "specification {}:", spec.name());
    let _ = writeln!(out, "  processes           : {}", stats.processes);
    let _ = writeln!(out, "  problem interfaces  : {}", stats.problem_interfaces);
    let _ = writeln!(out, "  problem clusters    : {}", stats.problem_clusters);
    let _ = writeln!(out, "  dependences         : {}", stats.dependences);
    let _ = writeln!(out, "  resources           : {}", stats.resources);
    let _ = writeln!(out, "  reconfig devices    : {}", stats.devices);
    let _ = writeln!(out, "  loadable designs    : {}", stats.designs);
    let _ = writeln!(out, "  links               : {}", stats.links);
    let _ = writeln!(out, "  mapping edges       : {}", stats.mappings);
    let _ = writeln!(out, "  raw design points   : 2^{}", stats.vertex_set_size);
    let _ = writeln!(
        out,
        "  behaviors (ECAs)    : {}",
        spec.problem().graph().count_selections()
    );
    Ok(out)
}

fn cmd_demo(args: &[&str]) -> Result<String, CliError> {
    let stb = set_top_box();
    match args {
        [] => {
            let result =
                explore(&stb.spec, &ExploreOptions::paper()).map_err(|e| err(e.to_string()))?;
            let mut out = String::from("Set-Top box case study (DATE 2002, Section 5):\n");
            for point in &result.front {
                let resources = point
                    .implementation
                    .as_ref()
                    .map(|i| i.allocation.display_names(stb.spec.architecture()))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  {:>8}  f={:<3} [{resources}]",
                    point.cost.to_string(),
                    point.flexibility
                );
            }
            Ok(out)
        }
        ["--json"] => flexplore::models::spec_to_json(&stb.spec).map_err(|e| err(e.to_string())),
        other => Err(err(format!("unexpected arguments: {other:?}"))),
    }
}

fn cmd_faults(args: &[&str]) -> Result<String, CliError> {
    let (path, rest) = split_path(args)?;
    let (profile, rest) = take_profile(rest);
    let mut kills: Vec<(String, Time, Option<Time>)> = Vec::new();
    let mut seed = 1u64;
    let mut count = 2usize;
    let mut policy = DegradationPolicy::BestEffort;
    let mut budget = u64::MAX;
    let mut k = 1usize;
    let mut trace_length = 20usize;
    let mut threads = 1usize;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .copied()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        match *flag {
            "--kill" => kills.push(parse_kill(value("--kill")?)?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| err("--seed needs an integer"))?;
            }
            "--count" => {
                count = value("--count")?
                    .parse()
                    .map_err(|_| err("--count needs an integer"))?;
            }
            "--policy" => {
                policy = match value("--policy")? {
                    "fail-fast" => DegradationPolicy::FailFast,
                    "best-effort" => DegradationPolicy::BestEffort,
                    "retry" => DegradationPolicy::QueuedRetry {
                        max_attempts: 3,
                        backoff: Time::from_ns(2_000),
                    },
                    other => {
                        return Err(err(format!(
                            "unknown policy {other:?} (fail-fast, best-effort, retry)"
                        )))
                    }
                };
            }
            "--budget" => {
                budget = value("--budget")?
                    .parse()
                    .map_err(|_| err("--budget needs a dollar amount"))?;
            }
            "--k" => {
                k = value("--k")?
                    .parse()
                    .map_err(|_| err("--k needs an integer"))?;
            }
            "--trace" => {
                trace_length = value("--trace")?
                    .parse()
                    .map_err(|_| err("--trace needs an integer"))?;
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|_| err("--threads needs a positive integer"))?;
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    let threads = resolve_threads(threads);

    let obs = profile.sink();
    let timer = obs.start();
    let spec = load_spec(path)?;
    obs.finish(phase::PARSE, timer);
    let banner = preflight_lint(&spec, &obs)?;
    let timer = obs.start();
    let point = max_flexibility_under_budget(&spec, Cost::new(budget), &threaded_options(1))
        .map_err(|e| err(e.to_string()))?
        .ok_or_else(|| err("no feasible platform within the budget"))?;
    obs.finish(phase::SELECT, timer);
    let implementation = point
        .implementation
        .ok_or_else(|| err("the selected design point carries no implementation"))?;
    let arch = spec.architecture();

    let plan = if kills.is_empty() {
        let candidates: Vec<VertexId> = implementation
            .allocation
            .available_vertices(arch)
            .into_iter()
            .collect();
        FaultPlan::randomized(
            seed,
            &candidates,
            &flexplore::adaptive::RandomFaultConfig {
                faults: count,
                ..flexplore::adaptive::RandomFaultConfig::default()
            },
        )
    } else {
        let mut plan = FaultPlan::new();
        for (name, at, outage) in &kills {
            let resource = arch
                .graph()
                .vertex_ids()
                .find(|&v| arch.resource_name(v) == name)
                .ok_or_else(|| err(format!("unknown resource {name:?}")))?;
            let kind = match outage {
                Some(outage) => FaultKind::Transient { outage: *outage },
                None => FaultKind::Permanent,
            };
            plan = plan.with_fault(*at, resource, kind);
        }
        plan
    };

    let timer = obs.start();
    let trace = generate_trace(
        &spec,
        &TraceConfig {
            seed: 7,
            length: trace_length,
            skewed: false,
        },
    );
    obs.finish(phase::TRACE, timer);
    let scenario = FaultScenario {
        plan,
        policy,
        dwell: Time::from_ns(1_000),
    };
    let timer = obs.start();
    let report = run_with_faults(
        &spec,
        &implementation,
        ReconfigCost::Uniform(Time::from_ns(1_000)),
        &trace,
        &scenario,
    )
    .map_err(|e| err(e.to_string()))?;
    obs.finish(phase::REPLAY, timer);

    let behavior_names = |s: &Selection| -> String {
        let g = spec.problem().graph();
        s.iter()
            .map(|(_, c)| g.cluster_name(c).to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = banner;
    let _ = writeln!(
        out,
        "platform [{}] cost {} flexibility {}",
        implementation.allocation.display_names(arch),
        implementation.cost,
        implementation.flexibility
    );
    let _ = writeln!(
        out,
        "scenario: {} requests, {} scheduled faults",
        trace.len(),
        scenario.plan.faults().len()
    );
    let _ = writeln!(out, "degradation timeline:");
    if report.fault_timeline.is_empty() {
        let _ = writeln!(out, "  (no faults fired)");
    }
    for event in &report.fault_timeline {
        match event {
            FaultTimelineEvent::ResourceFailed {
                at,
                resource,
                permanent,
            } => {
                let _ = writeln!(
                    out,
                    "  {at:>8}  FAIL    {} ({})",
                    arch.resource_name(*resource),
                    if *permanent { "permanent" } else { "transient" }
                );
            }
            FaultTimelineEvent::ResourceRecovered { at, resource } => {
                let _ = writeln!(out, "  {at:>8}  RECOVER {}", arch.resource_name(*resource));
            }
            FaultTimelineEvent::DegradedSwitch {
                at,
                behavior,
                mode,
                rebound,
                reconfig_time,
            } => {
                let _ = writeln!(
                    out,
                    "  {at:>8}  DEGRADE kept [{}] via [{}] ({}, reconfig {reconfig_time})",
                    behavior_names(behavior),
                    behavior_names(mode),
                    if *rebound {
                        "rebound by solver"
                    } else {
                        "surviving mode"
                    }
                );
            }
            FaultTimelineEvent::BehaviorLost { at, behavior } => {
                let _ = writeln!(out, "  {at:>8}  LOST    [{}]", behavior_names(behavior));
            }
        }
    }
    let s = &report.stats;
    let _ = writeln!(
        out,
        "served {} rejected {} | failures {} recoveries {} degraded switches {} behaviors lost {}",
        s.switches, s.rejected, s.failures, s.recoveries, s.degraded_switches, s.behaviors_lost
    );
    let _ = writeln!(
        out,
        "flexibility: baseline {} surviving {}",
        report.baseline_flexibility, report.surviving_flexibility
    );
    // The kill-set sweep is byte-identical for every thread count, so the
    // seeded-run determinism of this command is unaffected (no timing is
    // printed here for the same reason).
    let resilience = k_resilient_flexibility(
        &compile(&spec, &obs),
        &implementation,
        k,
        &ImplementOptions::default(),
        threads,
        &obs,
    )
    .map_err(|e| err(e.to_string()))?;
    let _ = writeln!(
        out,
        "{k}-resilient flexibility: {} (worst case: {})",
        resilience.resilient_flexibility,
        if resilience.worst_case.is_empty() {
            "none".to_owned()
        } else {
            resilience.worst_case.join(" + ")
        }
    );
    profiled_output(profile, &obs, "faults", spec.name(), threads, out)
}

/// Parses `NAME@AT` or `NAME@AT+OUTAGE` (times in ns).
fn parse_kill(arg: &str) -> Result<(String, Time, Option<Time>), CliError> {
    let invalid = || err(format!("--kill expects NAME@NS or NAME@NS+NS, got {arg:?}"));
    let (name, times) = arg.split_once('@').ok_or_else(invalid)?;
    if name.is_empty() {
        return Err(invalid());
    }
    let (at, outage) = match times.split_once('+') {
        Some((at, outage)) => (at, Some(outage)),
        None => (times, None),
    };
    let at: u64 = at.parse().map_err(|_| invalid())?;
    let outage = outage
        .map(|o| o.parse::<u64>().map(Time::from_ns).map_err(|_| invalid()))
        .transpose()?;
    Ok((name.to_owned(), Time::from_ns(at), outage))
}

fn cmd_fuzz(args: &[&str]) -> Result<String, CliError> {
    // Unlike the long-running analysis commands, `--profile` here selects
    // the generator's domain family, so `take_profile` must NOT run first.
    let mut options = FuzzOptions {
        iterations: 100,
        ..FuzzOptions::default()
    };
    let mut replay: Option<&str> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match *flag {
            "--seed" => {
                options.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--seed needs an unsigned integer"))?;
            }
            "--iterations" => {
                options.iterations = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--iterations needs an unsigned integer"))?;
            }
            "--threads" => {
                options.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err("--threads needs a positive integer"))?;
            }
            "--profile" => {
                let family = it.next().copied().ok_or_else(|| {
                    err("--profile needs stb, automotive, baseband, cloud-fpga, wide or all")
                })?;
                options.profiles = if family == "all" {
                    DomainProfile::all().to_vec()
                } else {
                    vec![family.parse().map_err(err)?]
                };
            }
            "--corpus-dir" => {
                options.corpus_dir = Some(std::path::PathBuf::from(
                    it.next()
                        .copied()
                        .ok_or_else(|| err("--corpus-dir needs a directory path"))?,
                ));
            }
            "--replay" => {
                replay = Some(
                    it.next()
                        .copied()
                        .ok_or_else(|| err("--replay needs a corpus directory path"))?,
                );
            }
            other => return Err(err(format!("unknown flag {other:?}"))),
        }
    }
    options.threads = resolve_threads(options.threads);

    if let Some(dir) = replay {
        let report = replay_dir(std::path::Path::new(dir)).map_err(|e| CliError {
            message: format!("fuzz: corpus replay failed: {e}"),
            output: None,
            code: 3,
        })?;
        let text = report.render_text();
        if report.is_clean() {
            return Ok(text);
        }
        return Err(CliError {
            message: "fuzz: corpus replay found invariant violations".to_owned(),
            output: Some(text),
            code: 1,
        });
    }

    let report = run_fuzz(&options);
    let text = report.render_text();
    if report.is_clean() {
        Ok(text)
    } else {
        Err(CliError {
            message: format!(
                "fuzz: {} invariant violation(s) found",
                report.violations.len()
            ),
            output: Some(text),
            code: 1,
        })
    }
}

fn split_path<'a>(args: &'a [&'a str]) -> Result<(&'a str, &'a [&'a str]), CliError> {
    match args.split_first() {
        Some((path, rest)) if !path.starts_with('-') => Ok((path, rest)),
        _ => Err(err(format!("expected a <spec.json> path\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run(&owned)
    }

    /// Drops the wall-clock and thread-count lines, which legitimately
    /// vary between runs and thread counts; everything else must be
    /// byte-identical.
    fn strip_runtime_lines(out: &str) -> String {
        out.lines()
            .filter(|line| !line.starts_with("time:") && !line.starts_with("threads:"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_strs(&["--help"]).unwrap().contains("USAGE"));
        assert!(run_strs(&[]).unwrap().contains("USAGE"));
        let e = run_strs(&["frobnicate"]).unwrap_err();
        assert!(e.message.contains("unknown command"));
    }

    #[test]
    fn fuzz_small_campaign_is_clean_and_deterministic() {
        let out = run_strs(&["fuzz", "--seed", "42", "--iterations", "2"]).unwrap();
        assert!(out.contains("fuzzed 10 spec(s)"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
        let again = run_strs(&["fuzz", "--seed", "42", "--iterations", "2"]).unwrap();
        assert_eq!(out, again, "fuzz reports must be byte-reproducible");
        let threaded = run_strs(&[
            "fuzz",
            "--seed",
            "42",
            "--iterations",
            "2",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(out, threaded, "thread count must not change the report");
    }

    #[test]
    fn fuzz_profile_selects_the_domain_family() {
        let out = run_strs(&["fuzz", "--iterations", "1", "--profile", "baseband"]).unwrap();
        assert!(out.contains("fuzzed 1 spec(s)"), "{out}");
        let out = run_strs(&["fuzz", "--iterations", "1", "--profile", "all"]).unwrap();
        assert!(out.contains("fuzzed 5 spec(s)"), "{out}");
        let e = run_strs(&["fuzz", "--profile", "mainframe"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown domain profile"), "{e:?}");
    }

    #[test]
    fn fuzz_rejects_malformed_numeric_flags_with_exit_2() {
        for args in [
            ["fuzz", "--seed", "not-a-number"],
            ["fuzz", "--iterations", "-3"],
            ["fuzz", "--threads", "many"],
        ] {
            let e = run_strs(&args).unwrap_err();
            assert_eq!(e.code, 2, "{args:?} -> {e:?}");
            assert!(e.message.contains("needs"), "{e:?}");
        }
        let e = run_strs(&["fuzz", "--seed"]).unwrap_err();
        assert_eq!(e.code, 2);
        let e = run_strs(&["fuzz", "--frobnicate"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown flag"));
    }

    #[test]
    fn fuzz_replay_of_missing_corpus_is_clean() {
        let out = run_strs(&["fuzz", "--replay", "/nonexistent/fuzz-corpus"]).unwrap();
        assert!(out.contains("replayed 0 corpus case(s)"), "{out}");
    }

    #[test]
    fn fuzz_replay_of_a_malformed_corpus_is_an_internal_fault() {
        let dir = std::env::temp_dir().join("flexplore-cli-test-bad-corpus");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.json"), "not json").unwrap();
        let e = run_strs(&["fuzz", "--replay", dir.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 3, "{e:?}");
        assert!(e.message.contains("corpus replay failed"), "{e:?}");
    }

    #[test]
    fn demo_prints_the_paper_front() {
        let out = run_strs(&["demo"]).unwrap();
        for needle in ["$100", "$120", "$230", "$290", "$360", "$430", "f=8"] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
    }

    #[test]
    fn demo_json_round_trips_through_explore() {
        let json = run_strs(&["demo", "--json"]).unwrap();
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stb.json");
        std::fs::write(&path, &json).unwrap();
        let path = path.to_str().unwrap();

        let out = run_strs(&["explore", path]).unwrap();
        assert!(out.contains("$430"));
        assert!(out.contains("solver calls"));
        assert!(out.contains("time:"));
        assert!(out.contains("chunks speculated"));

        let csv = run_strs(&["explore", path, "--csv"]).unwrap();
        assert!(csv.starts_with("cost,flexibility"));
        assert_eq!(csv.lines().count(), 7); // header + 6 points

        let threaded = run_strs(&["explore", path, "--threads", "4"]).unwrap();
        assert_eq!(
            strip_runtime_lines(&threaded),
            strip_runtime_lines(&out),
            "threaded exploration must be deterministic"
        );

        let flex = run_strs(&["flexibility", path]).unwrap();
        assert!(flex.contains("maximal flexibility"));
        assert!(flex.contains("gamma_D"));

        let q = run_strs(&["query", path, "--min-flex", "5"]).unwrap();
        assert!(q.contains("$290"));
        let q = run_strs(&["query", path, "--budget", "250"]).unwrap();
        assert!(q.contains("flexibility 4"));
        let q = run_strs(&["query", path, "--min-flex", "99"]).unwrap();
        assert!(q.contains("no feasible platform"));

        let dot = run_strs(&["dot", path]).unwrap();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("cluster_problem"));

        let info = run_strs(&["info", path]).unwrap();
        assert!(info.contains("processes           : 15"));
        assert!(info.contains("mapping edges       : 47"));
        assert!(info.contains("behaviors (ECAs)    : 10"));
        assert!(info.contains("2^47"));
    }

    /// `json` with the number after every `key` replaced by `value`.
    fn set_every_number(json: &str, key: &str, value: &str) -> String {
        let mut parts = json.split(key);
        let mut out = parts.next().unwrap_or_default().to_owned();
        for part in parts {
            out.push_str(key);
            let rest = part.trim_start_matches(|c: char| c.is_ascii_digit());
            if rest.len() < part.len() {
                out.push_str(value);
            }
            out.push_str(rest);
        }
        out
    }

    /// Hostile magnitudes: every cost at `u64::MAX` is a typed error, and
    /// every period at `u64::MAX` explores to the usual front. The debug
    /// build's overflow checks panic on a wrapped cost sum or period
    /// product, so this also guards against a silent wrap in release.
    #[test]
    fn u64_max_costs_and_periods_never_wrap() {
        let json = run_strs(&["demo", "--json"]).unwrap();
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let max = u64::MAX.to_string();

        let costs = dir.join("stb-max-costs.json");
        std::fs::write(&costs, set_every_number(&json, "\"cost\": ", &max)).unwrap();
        let costs = costs.to_str().unwrap();
        assert!(run_strs(&["lint", costs]).is_ok());
        let e = run_strs(&["explore", costs]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("exceeds u64"), "{e}");

        let periods = dir.join("stb-max-periods.json");
        let edited = set_every_number(&json, "\"period\": ", &max);
        assert_eq!(edited.matches(&max).count(), 3);
        std::fs::write(&periods, edited).unwrap();
        let out = run_strs(&["explore", periods.to_str().unwrap()]).unwrap();
        assert!(out.contains("$430  f=8"), "{out}");
    }

    #[test]
    fn resilience_front_is_printed_and_thread_invariant() {
        let json = run_strs(&["demo", "--json"]).unwrap();
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stb-resilience.json");
        std::fs::write(&path, &json).unwrap();
        let path = path.to_str().unwrap();

        let out = run_strs(&["resilience", path]).unwrap();
        assert!(out.contains("1-resilient front"), "{out}");
        assert!(out.contains("r="), "{out}");
        assert!(out.contains("time:"), "{out}");

        let threaded = run_strs(&["resilience", path, "--threads", "3"]).unwrap();
        assert_eq!(
            strip_runtime_lines(&threaded),
            strip_runtime_lines(&out),
            "threaded resilience sweep must be deterministic"
        );

        let e = run_strs(&["resilience", path, "--wat"]).unwrap_err();
        assert!(e.message.contains("unknown flag"));
    }

    #[test]
    fn faults_prints_timeline_and_resilience() {
        let json = run_strs(&["demo", "--json"]).unwrap();
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stb-faults.json");
        std::fs::write(&path, &json).unwrap();
        let path = path.to_str().unwrap();

        // A scripted kill of the D3 design on the $290 platform, timed to
        // interrupt the D3 decoder requested at t=6000 in the seed-7 trace.
        let out = run_strs(&[
            "faults", path, "--budget", "290", "--kill", "D3@6500", "--trace", "10",
        ])
        .unwrap();
        assert!(out.contains("cost $290"), "{out}");
        assert!(out.contains("FAIL    D3 (permanent)"), "{out}");
        assert!(out.contains("DEGRADE"), "{out}");
        assert!(out.contains("flexibility: baseline"), "{out}");
        assert!(out.contains("1-resilient flexibility: 0"), "{out}");

        // Seeded plans are deterministic, and the thread count of the
        // kill-set sweep never changes the output.
        let a = run_strs(&["faults", path, "--seed", "3", "--trace", "10"]).unwrap();
        let b = run_strs(&["faults", path, "--seed", "3", "--trace", "10"]).unwrap();
        assert_eq!(a, b);
        let c = run_strs(&[
            "faults",
            path,
            "--seed",
            "3",
            "--trace",
            "10",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(a, c);

        // A transient kill recovers.
        let out = run_strs(&[
            "faults",
            path,
            "--budget",
            "290",
            "--kill",
            "D3@6500+2000",
            "--trace",
            "10",
        ])
        .unwrap();
        assert!(out.contains("FAIL    D3 (transient)"), "{out}");
        assert!(out.contains("RECOVER D3"), "{out}");

        let e = run_strs(&["faults", path, "--kill", "NOPE@10"]).unwrap_err();
        assert!(e.message.contains("unknown resource"));
        let e = run_strs(&["faults", path, "--kill", "D3"]).unwrap_err();
        assert!(e.message.contains("--kill expects"));
        let e = run_strs(&["faults", path, "--policy", "wat"]).unwrap_err();
        assert!(e.message.contains("unknown policy"));
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(run_strs(&["explore"])
            .unwrap_err()
            .message
            .contains("spec.json"));
        assert!(run_strs(&["explore", "/nonexistent.json"])
            .unwrap_err()
            .message
            .contains("cannot read"));
        assert!(run_strs(&["query", "x.json"]).is_err());
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{").unwrap();
        let e = run_strs(&["explore", bad.to_str().unwrap()]).unwrap_err();
        assert!(e.message.contains("invalid specification"));
        assert_eq!(e.code, 2);
    }

    use flexplore::models::spec_to_json;
    use flexplore::{ArchitectureGraph, ProblemGraph, Scope};

    fn write_spec(file: &str, spec: &SpecificationGraph) -> String {
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        std::fs::write(&path, spec_to_json(spec).unwrap()).unwrap();
        path.to_str().unwrap().to_owned()
    }

    /// A top-level process with no mapping edge: lint error F004.
    fn orphan_spec() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        p.add_process(Scope::Top, "orphan");
        SpecificationGraph::new("orphaned", p, ArchitectureGraph::new("a"))
    }

    /// An exact duplicate mapping edge: lint note F006, nothing worse.
    fn noted_spec() -> SpecificationGraph {
        let mut p = ProblemGraph::new("p");
        let t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        let mut spec = SpecificationGraph::new("noted", p, a);
        spec.add_mapping(t, cpu, Time::from_ns(1)).unwrap();
        spec.add_mapping(t, cpu, Time::from_ns(1)).unwrap();
        spec
    }

    #[test]
    fn lint_clean_spec_and_builtins() {
        let json = run_strs(&["demo", "--json"]).unwrap();
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stb-lint.json");
        std::fs::write(&path, &json).unwrap();
        let path = path.to_str().unwrap();

        let out = run_strs(&["lint", path]).unwrap();
        assert!(out.contains(": clean"), "{out}");
        let out = run_strs(&["lint", path, "--format", "json", "--deny", "warnings"]).unwrap();
        assert!(out.contains("\"diagnostics\": []"), "{out}");
        assert!(out.contains("\"errors\": 0"), "{out}");

        for name in [
            "set_top_box",
            "tv_decoder",
            "dual_slot_fpga",
            "synthetic-small",
            "synthetic-medium",
            "synthetic-large",
            "synthetic-wide",
        ] {
            let out = run_strs(&["lint", "--builtin", name, "--deny", "warnings"]).unwrap();
            assert!(out.contains(": clean"), "{name}: {out}");
        }
    }

    #[test]
    fn explore_accepts_bundled_model_names_and_wide_is_thread_invariant() {
        // The 102-unit model is far past the one-word mask ceiling; the
        // JSON front must be byte-identical for every worker count.
        let one = run_strs(&["explore", "synthetic-wide", "--json", "--threads", "1"]).unwrap();
        let two = run_strs(&["explore", "synthetic-wide", "--json", "--threads", "2"]).unwrap();
        let four = run_strs(&["explore", "synthetic-wide", "--json", "--threads", "4"]).unwrap();
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert!(one.contains("\"flexibility\""), "{one}");
        // Unknown names still report the file-load error.
        let e = run_strs(&["explore", "no-such-model.json"]).unwrap_err();
        assert!(e.message.contains("cannot read"), "{}", e.message);
    }

    #[test]
    fn lint_error_specs_exit_2_and_preflight_rejects_them() {
        let path = write_spec("orphan.json", &orphan_spec());
        let e = run_strs(&["lint", &path]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(
            e.message.contains("lint found 1 error(s) in orphaned"),
            "{}",
            e.message
        );
        let report = e.output.expect("failing lint still renders the report");
        assert!(report.contains("error[F004]"), "{report}");

        let e = run_strs(&["lint", &path, "--format", "json"]).unwrap_err();
        assert_eq!(e.code, 2);
        let report = e.output.unwrap();
        assert!(report.contains("\"code\": \"F004\""), "{report}");

        // The expensive commands refuse the same specification up front.
        for cmd in ["explore", "resilience", "faults"] {
            let e = run_strs(&[cmd, &path]).unwrap_err();
            assert_eq!(e.code, 2, "{cmd}");
            assert!(
                e.message.contains("pre-flight lint"),
                "{cmd}: {}",
                e.message
            );
            assert!(e.message.contains("F004"), "{cmd}: {}", e.message);
        }
    }

    #[test]
    fn lint_deny_exits_1_and_banner_surfaces_findings() {
        let path = write_spec("noted.json", &noted_spec());

        // Not denied: findings are printed but the run succeeds (exit 0).
        let out = run_strs(&["lint", &path]).unwrap();
        assert!(out.contains("note[F006]"), "{out}");
        assert!(out.contains("1 note(s)"), "{out}");

        let e = run_strs(&["lint", &path, "--deny", "warnings"]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.output.unwrap().contains("note[F006]"));
        let e = run_strs(&["lint", &path, "--deny", "F006"]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("F006"), "{}", e.message);
        // Denying an absent code changes nothing.
        assert!(run_strs(&["lint", &path, "--deny", "F001"]).is_ok());

        // Warning-level findings surface as a banner on explore output.
        let out = run_strs(&["explore", &path]).unwrap();
        assert!(
            out.starts_with("lint: 0 warning(s), 1 note(s)"),
            "missing banner: {out}"
        );
        assert!(out.contains("Pareto front"), "{out}");
        // CSV output stays machine-readable (no banner).
        let csv = run_strs(&["explore", &path, "--csv"]).unwrap();
        assert!(csv.starts_with("cost,flexibility"), "{csv}");
    }

    #[test]
    fn lint_internal_faults_exit_3() {
        assert_eq!(run_strs(&["lint"]).unwrap_err().code, 3);
        assert_eq!(
            run_strs(&["lint", "/nonexistent.json"]).unwrap_err().code,
            3
        );
        assert_eq!(
            run_strs(&["lint", "--builtin", "nope"]).unwrap_err().code,
            3
        );
        assert_eq!(run_strs(&["lint", "--wat"]).unwrap_err().code, 3);
        assert_eq!(run_strs(&["lint", "--format", "yaml"]).unwrap_err().code, 3);
        assert_eq!(run_strs(&["lint", "--deny", "nope"]).unwrap_err().code, 3);
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad-lint.json");
        std::fs::write(&bad, "{").unwrap();
        let e = run_strs(&["lint", bad.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 3);
        assert!(e.message.contains("cannot parse"), "{}", e.message);
        // Every non-lint failure keeps the historical exit code 2.
        assert_eq!(run_strs(&["frobnicate"]).unwrap_err().code, 2);
    }

    #[test]
    fn analyze_prints_facts_and_mirrors_lint_exit_codes() {
        // A bundled model name works without a file; a clean model with no
        // provable facts still prints the (empty) facts section.
        let out = run_strs(&["analyze", "set_top_box"]).unwrap();
        assert!(out.contains("facts:"), "{out}");
        assert!(out.contains("mandatory units: (none)"), "{out}");
        assert!(out.contains("0 error(s), 0 warning(s), 0 note(s)"), "{out}");

        // The wide synthetic model proves facts: every dedicated DSP is
        // mandatory (F014) and the spare processors are dominated (F015).
        let out = run_strs(&["analyze", "synthetic-wide"]).unwrap();
        assert!(out.contains("note[F014]"), "{out}");
        assert!(out.contains("note[F015]"), "{out}");
        assert!(out.contains("mandatory units (94):"), "{out}");

        // --format json exposes the machine-readable facts section.
        let out = run_strs(&["analyze", "synthetic-wide", "--format", "json"]).unwrap();
        assert!(out.contains("\"analyzed\": true"), "{out}");
        assert!(out.contains("\"mandatory\": [5, 6,"), "{out}");
        assert!(out.contains("\"code\": \"F014\""), "{out}");

        // Facts are notes: --deny warnings passes, --deny F014 denies.
        run_strs(&["analyze", "synthetic-wide", "--deny", "warnings"]).unwrap();
        let e = run_strs(&["analyze", "synthetic-wide", "--deny", "F014"]).unwrap_err();
        assert_eq!(e.code, 1, "{e:?}");
        assert!(e.output.unwrap().contains("note[F014]"));

        // Error-level findings exit 2 and skip the fact extraction.
        let path = write_spec("orphan-analyze.json", &orphan_spec());
        let e = run_strs(&["analyze", &path]).unwrap_err();
        assert_eq!(e.code, 2, "{e:?}");
        assert!(e.message.contains("analyze found 1 error(s)"), "{e:?}");
        let report = e.output.unwrap();
        assert!(report.contains("facts: skipped"), "{report}");

        // Internal faults exit 3, exactly like lint.
        assert_eq!(run_strs(&["analyze"]).unwrap_err().code, 3);
        assert_eq!(run_strs(&["analyze", "no-such-model"]).unwrap_err().code, 3);
        assert_eq!(
            run_strs(&["analyze", "set_top_box", "--wat"])
                .unwrap_err()
                .code,
            3
        );
        assert_eq!(
            run_strs(&["analyze", "set_top_box", "--format", "yaml"])
                .unwrap_err()
                .code,
            3
        );

        // --profile json replaces the output with the run report.
        let out = run_strs(&["analyze", "synthetic-wide", "--profile", "json"]).unwrap();
        let report = RunReport::from_json(&out).unwrap();
        assert_eq!(report.run, "analyze");
        assert_eq!(report.counter("analysis_mandatory"), Some(94));
        assert_eq!(report.counter("analysis_dominated"), Some(3));
        let names = phase_names(&report);
        for needle in ["parse", "lint.structural", "analyze", "analyze.mandatory"] {
            assert!(names.contains(&needle), "missing phase {needle}: {names:?}");
        }
    }

    #[test]
    fn deny_rejects_unknown_codes_with_exit_2() {
        // A well-formed but unknown code is a user error (2), not an
        // internal fault (3) — and is rejected before any work happens.
        for cmd in ["lint", "analyze"] {
            let args: Vec<&str> = if cmd == "lint" {
                vec![cmd, "--builtin", "set_top_box", "--deny", "F099"]
            } else {
                vec![cmd, "set_top_box", "--deny", "F099"]
            };
            let e = run_strs(&args).unwrap_err();
            assert_eq!(e.code, 2, "{cmd}: {e:?}");
            assert!(e.message.contains("unknown lint code"), "{cmd}: {e:?}");
            assert!(e.message.contains("F001..F016"), "{cmd}: {e:?}");
        }
        // Known codes (even ones that cannot fire) still parse.
        run_strs(&["lint", "--builtin", "set_top_box", "--deny", "F016"]).unwrap();
    }

    #[test]
    fn preflight_gate_rejects_specs_past_the_mask_capacity() {
        // 257 units overflow the lattice search's subset masks: the gate
        // must reject with the F013 lint diagnostic instead of letting the
        // enumeration fail with an opaque overflow error later.
        let mut p = ProblemGraph::new("p");
        let t = p.add_process(Scope::Top, "t");
        let mut a = ArchitectureGraph::new("a");
        let cpu = a.add_resource(Scope::Top, "cpu", Cost::new(1));
        for k in 0..flexplore::spec::MAX_UNITS {
            a.add_resource(Scope::Top, format!("r{k}"), Cost::new(1));
        }
        let mut spec = SpecificationGraph::new("too-wide", p, a);
        spec.add_mapping(t, cpu, Time::from_ns(1)).unwrap();
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("too-wide.json");
        std::fs::write(&path, spec_to_json(&spec).unwrap()).unwrap();
        let e = run_strs(&["explore", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.code, 2, "{e:?}");
        assert!(e.message.contains("pre-flight lint"), "{e:?}");
        assert!(e.message.contains("F013"), "{e:?}");
        assert!(e.message.contains("256-unit"), "{e:?}");
    }

    #[test]
    fn analysis_flag_toggles_pruning_but_never_the_front() {
        let on = run_strs(&["explore", "synthetic-wide", "--json", "--analysis", "on"]).unwrap();
        let off = run_strs(&["explore", "synthetic-wide", "--json", "--analysis", "off"]).unwrap();
        assert_eq!(on, off, "analysis pruning must not change the front");
        let e = run_strs(&["explore", "synthetic-wide", "--analysis", "maybe"]).unwrap_err();
        assert!(e.message.contains("on or off"), "{}", e.message);
    }

    use flexplore::RunReport;

    fn stb_path(file: &str) -> String {
        let json = run_strs(&["demo", "--json"]).unwrap();
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        std::fs::write(&path, &json).unwrap();
        path.to_str().unwrap().to_owned()
    }

    fn phase_names(report: &RunReport) -> Vec<&str> {
        report.phases.iter().map(|p| p.phase.as_str()).collect()
    }

    #[test]
    fn profile_text_appends_and_json_replaces_output() {
        let path = stb_path("stb-profile.json");

        // Bare --profile (before another flag) defaults to text: the
        // normal output survives with the table appended.
        let out = run_strs(&["explore", &path, "--profile", "--threads", "1"]).unwrap();
        assert!(out.contains("Pareto front"), "{out}");
        assert!(out.contains("profile: explore on set-top-box"), "{out}");
        assert!(out.contains("counters (thread-invariant):"), "{out}");

        let out = run_strs(&["explore", &path, "--profile", "json"]).unwrap();
        let report = RunReport::from_json(&out).expect("--profile json must parse");
        assert_eq!(report.run, "explore");
        assert_eq!(report.spec, "set-top-box");
        assert_eq!(report.counter("pareto_points"), Some(6));
        let names = phase_names(&report);
        for needle in ["parse", "lint", "compile", "enumerate", "bind", "pareto"] {
            assert!(names.contains(&needle), "missing phase {needle}: {names:?}");
        }
        // The top-level phases tile the run: their sum accounts for (at
        // least) half the wall-clock even on this fast model.
        assert!(report.wall_ns > 0);
        assert!(
            report.top_level_wall_ns() <= report.wall_ns,
            "phases cannot exceed wall-clock"
        );

        // --profile json beats --csv (both are machine-readable; json
        // carries strictly more), --profile text yields to it.
        let out = run_strs(&["explore", &path, "--csv", "--profile", "json"]).unwrap();
        assert!(RunReport::from_json(&out).is_ok(), "{out}");
        let out = run_strs(&["explore", &path, "--csv", "--profile", "text"]).unwrap();
        assert!(out.starts_with("cost,flexibility"), "{out}");
    }

    #[test]
    fn profile_counters_are_thread_invariant() {
        let path = stb_path("stb-profile-threads.json");
        let a = run_strs(&["explore", &path, "--profile", "json", "--threads", "1"]).unwrap();
        let b = run_strs(&["explore", &path, "--profile", "json", "--threads", "4"]).unwrap();
        let a = RunReport::from_json(&a).unwrap();
        let b = RunReport::from_json(&b).unwrap();
        assert_eq!(
            a.counters_json().unwrap(),
            b.counters_json().unwrap(),
            "counter totals must be byte-identical across thread counts"
        );
        assert!(b.speculation.chunks_speculated > 0, "threads=4 speculates");
    }

    #[test]
    fn profile_covers_resilience_faults_and_lint() {
        let path = stb_path("stb-profile-cmds.json");

        let out = run_strs(&["resilience", &path, "--profile", "json"]).unwrap();
        let report = RunReport::from_json(&out).unwrap();
        assert_eq!(report.run, "resilience");
        assert!(report.counter("kill_evaluations").is_some(), "{out}");
        assert!(phase_names(&report).contains(&"resilience"), "{out}");

        let out = run_strs(&[
            "faults",
            &path,
            "--budget",
            "290",
            "--kill",
            "D3@6500",
            "--trace",
            "10",
            "--profile",
            "json",
        ])
        .unwrap();
        let report = RunReport::from_json(&out).unwrap();
        assert_eq!(report.run, "faults");
        let names = phase_names(&report);
        for needle in ["parse", "lint", "select", "trace", "replay", "resilience"] {
            assert!(names.contains(&needle), "missing phase {needle}: {names:?}");
        }

        let out = run_strs(&["lint", &path, "--profile", "json"]).unwrap();
        let report = RunReport::from_json(&out).unwrap();
        assert_eq!(report.run, "lint");
        assert_eq!(report.counter("lint_errors"), Some(0));
        let names = phase_names(&report);
        for needle in ["parse", "lint", "lint.structural", "lint.semantic"] {
            assert!(names.contains(&needle), "missing phase {needle}: {names:?}");
        }
        // Text mode appends the table to the normal lint report.
        let out = run_strs(&["lint", &path, "--profile"]).unwrap();
        assert!(out.contains(": clean"), "{out}");
        assert!(out.contains("profile: lint on set-top-box"), "{out}");
    }

    #[test]
    fn lattice_counters_surface_and_the_enumerator_flag_is_gone() {
        let path = stb_path("stb-lattice-counters.json");

        // The lattice counters surface in the text profile table.
        let out = run_strs(&["explore", &path, "--profile", "text"]).unwrap();
        for needle in ["nodes_visited", "subtrees_pruned", "estimate_memo_hits"] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }

        // And carry the expected values in the JSON report: the lattice
        // search prunes subtrees and visits a fraction of the subsets.
        let out = run_strs(&["explore", &path, "--profile", "json"]).unwrap();
        let report = RunReport::from_json(&out).unwrap();
        assert!(report.counter("subtrees_pruned").unwrap() > 0, "{out}");
        assert!(report.counter("nodes_visited") < report.counter("subsets"));

        // The flat scan is a test oracle, not an engine choice.
        let e = run_strs(&["explore", &path, "--enumerator", "flat"]).unwrap_err();
        assert_eq!(e.code, 2, "{e:?}");
        assert!(e.message.contains("unknown flag"), "{}", e.message);
    }

    #[test]
    fn profile_subcommand_prints_hottest_phases() {
        // A bundled model name works without any file on disk.
        let out = run_strs(&["profile", "set_top_box"]).unwrap();
        assert!(out.contains("profile: explore on set-top-box"), "{out}");
        assert!(out.contains("bind"), "{out}");

        // --top truncates the table and says how much is hidden.
        let out = run_strs(&["profile", "set_top_box", "--top", "2"]).unwrap();
        assert!(out.contains("more phase(s))"), "{out}");

        // A spec file path works too, and --format json round-trips.
        let path = stb_path("stb-profile-sub.json");
        let out = run_strs(&["profile", &path, "--format", "json", "--threads", "2"]).unwrap();
        let report = RunReport::from_json(&out).unwrap();
        assert_eq!(report.run, "explore");
        assert_eq!(report.threads, 2);
        assert_eq!(report.counter("pareto_points"), Some(6));

        // --events writes the JSON-lines log.
        let dir = std::env::temp_dir().join("flexplore-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("stb-events.jsonl");
        let events = events.to_str().unwrap();
        run_strs(&["profile", "set_top_box", "--events", events]).unwrap();
        let log = std::fs::read_to_string(events).unwrap();
        assert!(log.starts_with("{\"ev\":\"run\""), "{log}");
        assert!(log.contains("\"ev\":\"span\""), "{log}");
        assert!(log.lines().last().unwrap().starts_with("{\"ev\":\"end\""));

        let e = run_strs(&["profile", "no-such-model"]).unwrap_err();
        assert!(
            e.message.contains("neither a readable file"),
            "{}",
            e.message
        );
        let e = run_strs(&["profile", "set_top_box", "--wat"]).unwrap_err();
        assert!(e.message.contains("unknown flag"));
    }

    /// Bumps the first `"latency"` value in `json` by one nanosecond —
    /// the minimal watch-mode edit.
    fn bump_first_latency(json: &str) -> String {
        let at = json.find("\"latency\"").expect("model has latencies") + "\"latency\"".len();
        let digits_at = at
            + json[at..]
                .find(|c: char| c.is_ascii_digit())
                .expect("latency has a value");
        let digits_end = digits_at
            + json[digits_at..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(json.len() - digits_at);
        let value: u64 = json[digits_at..digits_end].parse().unwrap();
        format!("{}{}{}", &json[..digits_at], value + 1, &json[digits_end..])
    }

    fn scratch_dir(label: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flexplore-cli-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn export_prints_a_reloadable_model() {
        let out = run_strs(&["export", "set_top_box"]).unwrap();
        let spec = flexplore::models::spec_from_json(out.trim()).unwrap();
        assert_eq!(spec.name(), "set-top-box");

        let e = run_strs(&["export"]).unwrap_err();
        assert_eq!(e.code, 2);
        let e = run_strs(&["export", "no-such-model"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown model"), "{}", e.message);
    }

    #[test]
    fn explore_cache_dir_warms_and_keeps_output_identical() {
        let dir = scratch_dir("cache");
        let dir_str = dir.to_str().unwrap();

        let plain = run_strs(&["explore", "set_top_box"]).unwrap();
        let cold = run_strs(&["explore", "set_top_box", "--cache-dir", dir_str]).unwrap();
        assert!(cold.contains("warm-start: cold"), "{cold}");
        let warm = run_strs(&["explore", "set_top_box", "--cache-dir", dir_str]).unwrap();
        assert!(warm.contains("warm-start: exact"), "{warm}");
        // The front table is byte-identical with and without the cache;
        // only the warm-start trailer differs.
        let table = |out: &str| {
            strip_runtime_lines(out)
                .lines()
                .filter(|l| !l.starts_with("warm-start:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&plain), table(&cold));
        assert_eq!(table(&plain), table(&warm));

        // --json carries the fingerprint either way, byte-identically.
        let plain_json = run_strs(&["explore", "set_top_box", "--json"]).unwrap();
        let warm_json =
            run_strs(&["explore", "set_top_box", "--json", "--cache-dir", dir_str]).unwrap();
        assert_eq!(plain_json, warm_json);
        assert!(plain_json.contains("\"fingerprint\""), "{plain_json}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_streams_cold_then_warm_cycles() {
        let dir = scratch_dir("watch");
        let spec_path = dir.join("model.json");
        let cache_dir = dir.join("cache");
        let json = run_strs(&["export", "set_top_box"]).unwrap();
        std::fs::write(&spec_path, &json).unwrap();

        let args = |p: &str, c: &str| -> Vec<String> {
            ["--cache-dir", c, "--poll-ms", "1", "--max-polls", "1"]
                .iter()
                .fold(vec![p.to_owned()], |mut v, s| {
                    v.push((*s).to_owned());
                    v
                })
        };
        let run_watch = |spec_path: &std::path::Path, cache_dir: &std::path::Path| {
            let owned = args(spec_path.to_str().unwrap(), cache_dir.to_str().unwrap());
            let refs: Vec<&str> = owned.iter().map(String::as_str).collect();
            let mut lines = Vec::new();
            watch_loop(&refs, &mut |line| lines.push(line.to_owned())).unwrap();
            lines
        };

        let first = run_watch(&spec_path, &cache_dir);
        assert!(first[0].starts_with("watching "), "{first:?}");
        assert!(
            first.iter().any(|l| l.starts_with("re-explored: cold")),
            "{first:?}"
        );

        // A one-latency edit between watch invocations replays the cache.
        std::fs::write(&spec_path, bump_first_latency(&json)).unwrap();
        let second = run_watch(&spec_path, &cache_dir);
        assert!(
            second.iter().any(|l| l.starts_with("re-explored: replay")),
            "{second:?}"
        );

        // A broken edit degrades to a warning and the loop keeps polling.
        std::fs::write(&spec_path, "{ not json").unwrap();
        let third = run_watch(&spec_path, &cache_dir);
        assert!(
            third.iter().any(|l| l.starts_with("warning: cannot load")),
            "{third:?}"
        );

        let e = watch_loop(&["/no/such/file.json"], &mut |_| {}).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("not one"), "{}", e.message);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
