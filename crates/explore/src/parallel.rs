//! Deterministic work-stealing fan-out shared by the exploration engines.
//!
//! The EXPLORE engines evaluate tasks with an expensive, pure function
//! (subtree walks of the lattice search, binding constructions of the
//! candidate scan). Parallelism here is a **work-stealing scheduler with a
//! deterministic merge**: every task carries its index in the input slice
//! as a stable *sequence id*, workers pull tasks from per-worker deques
//! and steal from neighbours when theirs runs dry, and the results are
//! returned **in sequence order** regardless of which worker executed
//! what. Callers consume the result vector exactly like a sequential map,
//! so candidates, fronts, counters and obs reports are byte-identical at
//! any `--threads` value.
//!
//! Determinism argument (the property tests assert this byte-for-byte):
//!
//! * The task set and each task's *content* are fixed before the fan-out
//!   starts (a fixed-depth DFS prefix for the lattice search, a
//!   bound-surviving candidate chunk for the EXPLORE driver). Scheduling
//!   decides only *where* and *when* a task runs, never *what* it
//!   computes: tasks share nothing mutable except caches of pure
//!   functions, whose hit pattern can change timing but not values.
//! * Results are scattered into a slot vector indexed by sequence id, so
//!   the caller's in-order merge replays the sequential schedule whatever
//!   interleaving the steals produced.
//! * The initial deal is deterministic too (heaviest-first round-robin
//!   over the caller's weight estimates), so even the *dispatch* order is
//!   a pure function of the input — only steals are timing-dependent.
//!
//! Only the scheduling counters (tasks stolen, empty steal probes) and
//! per-lane busy times depend on the thread count and on runtime timing;
//! they are reported through the thread-variant section of the obs report
//! and excluded from the equality the engines guarantee.
//!
//! # Stress knob
//!
//! Setting `FLEXPLORE_TEST_STEAL_JITTER=<seed>` makes every worker sleep
//! a short, seed-dependent time before its first pull, shuffling the
//! wake (and therefore steal) order between runs. Output must not change
//! — the CI scheduler-stress job byte-diffs explore output across thread
//! counts under several seeds to enforce exactly that.

use flexplore_obs::ObsSink;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Candidates dispatched per worker thread in one speculative chunk.
///
/// Larger chunks amortize thread spawns but speculate further past the
/// pruning bound; 4 keeps the waste small on the paper's workloads while
/// giving every worker a few candidates to level out uneven solve times.
pub(crate) const SPECULATION_DEPTH: usize = 4;

/// Resolves a user-facing thread count: `0` means "all available cores".
///
/// Resolve **once** at the outermost entry point (the CLI does, right
/// after flag parsing) and pass the resolved value down, so recorded
/// reports show the worker count the scheduler actually ran with; the
/// function is idempotent, so engines may re-apply it defensively.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// The test-only wake-order jitter (microseconds) for worker `worker`,
/// from the `FLEXPLORE_TEST_STEAL_JITTER` seed. `None` when the knob is
/// unset or unparsable — the hot path then never sleeps.
fn steal_jitter(worker: usize) -> Option<Duration> {
    let seed: u64 = std::env::var("FLEXPLORE_TEST_STEAL_JITTER")
        .ok()?
        .parse()
        .ok()?;
    // SplitMix64: decorrelates consecutive worker indices under any seed.
    let mut x = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(worker as u64 + 1));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    Some(Duration::from_micros(x % 1_500))
}

/// Deals task indices to `workers` deques: heaviest first (ties toward
/// the lower sequence id), round-robin. Every worker starts with its
/// heaviest tasks at the *front* of its deque; steals take the *back*,
/// i.e. the victim's lightest remaining task — the classic LPT-flavoured
/// split that keeps skewed subtrees from serializing on one worker.
fn deal(weights: &[u64], workers: usize) -> Vec<Mutex<VecDeque<usize>>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (j, &i) in order.iter().enumerate() {
        deques[j % workers].push_back(i);
    }
    deques.into_iter().map(Mutex::new).collect()
}

/// Evaluates `work` over `items` on up to `threads` work-stealing workers
/// and returns the results **in item (sequence-id) order**.
/// `weight(index, item)` is the caller's relative cost estimate used only
/// for the initial deal — any values produce correct output.
///
/// With one worker (or at most one item) the work runs inline on the
/// caller's stack in item order and nothing is recorded. A real fan-out
/// records, when `obs` is enabled, one chunk event with each worker
/// lane's task count and busy wall-clock, plus the thread-variant steal
/// counters; with a disabled sink no clocks are read. Results are
/// identical either way.
pub(crate) fn run_stealing<T, R, W, F>(
    items: &[T],
    threads: usize,
    obs: &ObsSink,
    weight: W,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(usize, &T) -> u64,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().map(&work).collect();
    }
    let observe = obs.is_enabled();
    let weights: Vec<u64> = items
        .iter()
        .enumerate()
        .map(|(i, item)| weight(i, item))
        .collect();
    let deques = deal(&weights, workers);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let (mut tasks_stolen, mut steal_failures) = (0u64, 0u64);
    let mut lanes: Vec<(u64, Duration)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let work = &work;
                scope.spawn(move || {
                    if let Some(jitter) = steal_jitter(w) {
                        std::thread::sleep(jitter);
                    }
                    let started = observe.then(Instant::now);
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let (mut stolen, mut failures) = (0u64, 0u64);
                    loop {
                        let mut next = deques[w].lock().expect("deque poisoned").pop_front();
                        if next.is_none() {
                            // Own deque dry: probe victims in a fixed scan
                            // order, taking the lightest remaining task.
                            for v in 1..workers {
                                let victim = (w + v) % workers;
                                let got = deques[victim].lock().expect("deque poisoned").pop_back();
                                if got.is_some() {
                                    stolen += 1;
                                    next = got;
                                    break;
                                }
                                failures += 1;
                            }
                        }
                        let Some(index) = next else { break };
                        out.push((index, work(&items[index])));
                    }
                    let lane = started.map(|s| (out.len() as u64, s.elapsed()));
                    (out, stolen, failures, lane)
                })
            })
            .collect();
        for handle in handles {
            let (out, stolen, failures, lane) = handle.join().expect("steal worker");
            for (index, result) in out {
                slots[index] = Some(result);
            }
            tasks_stolen += stolen;
            steal_failures += failures;
            lanes.extend(lane);
        }
    });
    obs.chunk(&lanes);
    obs.scheduler(tasks_stolen, steal_failures);
    slots
        .into_iter()
        .map(|r| r.expect("every task index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform-weight fan-out with a disabled sink.
    fn run<R: Send>(items: &[usize], threads: usize, work: impl Fn(&usize) -> R + Sync) -> Vec<R> {
        run_stealing(items, threads, &ObsSink::disabled(), |_, _| 1, work)
    }

    #[test]
    fn results_keep_item_order() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = run(&items, threads, |&i| i * 2);
            assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<usize> = Vec::new();
        assert!(run(&items, 4, |&i| i).is_empty());
    }

    #[test]
    fn zero_threads_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        // Idempotent: resolving a resolved count is a no-op.
        assert_eq!(resolve_threads(resolve_threads(0)), resolve_threads(0));
    }

    #[test]
    fn weighted_deal_keeps_sequence_order_in_the_output() {
        // Strongly skewed weights: the heaviest task has the highest
        // index, so the deal order differs maximally from the sequence
        // order — the output must still be sequence-ordered.
        let items: Vec<u64> = (0..23).collect();
        for threads in [2, 5, 23, 40] {
            let out = run_stealing(
                &items,
                threads,
                &ObsSink::disabled(),
                |_, &v| v,
                |&v| v + 100,
            );
            assert_eq!(out, (0..23).map(|v| v + 100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once_under_stealing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let items: Vec<usize> = (0..101).collect();
        let calls = AtomicU64::new(0);
        let sink = ObsSink::enabled();
        let out = run_stealing(
            &items,
            7,
            &sink,
            |_, _| 1,
            |&i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 101);
        assert_eq!(out, items);
        // Steal accounting never exceeds the task count.
        assert!(sink.report("steal", "t", 7).speculation.tasks_stolen <= 101);
    }

    #[test]
    fn deal_is_heaviest_first_round_robin() {
        let weights = [5u64, 1, 9, 9, 2];
        let deques = deal(&weights, 2);
        let d0: Vec<usize> = deques[0].lock().unwrap().iter().copied().collect();
        let d1: Vec<usize> = deques[1].lock().unwrap().iter().copied().collect();
        // Sorted by (desc weight, asc index): 2, 3, 0, 4, 1.
        assert_eq!(d0, vec![2, 0, 1]);
        assert_eq!(d1, vec![3, 4]);
    }

    #[test]
    fn jitter_seed_changes_delay_but_never_results() {
        // The jitter helper is a pure function of (env seed, worker).
        assert_eq!(steal_jitter(0).is_some(), steal_jitter(1).is_some());
        let items: Vec<usize> = (0..29).collect();
        let baseline = run(&items, 4, |&i| i * 3);
        // Even racing env readers only ever see timing change, not output.
        std::env::set_var("FLEXPLORE_TEST_STEAL_JITTER", "42");
        let jittered = run(&items, 4, |&i| i * 3);
        std::env::remove_var("FLEXPLORE_TEST_STEAL_JITTER");
        assert_eq!(baseline, jittered);
    }

    #[test]
    fn obs_variant_matches_plain_and_records_lanes() {
        let items: Vec<usize> = (0..10).collect();
        for threads in [1, 3] {
            let sink = ObsSink::enabled();
            let out = run_stealing(&items, threads, &sink, |_, _| 1, |&i| i + 1);
            assert_eq!(out, run(&items, threads, |&i| i + 1));
            let report = sink.report("chunk", "t", threads);
            let lane_items: u64 = report.speculation.workers.iter().map(|w| w.items).sum();
            // Lanes describe a real fan-out; an inline run records none.
            let expected = if threads > 1 { 10 } else { 0 };
            assert_eq!(lane_items, expected, "every fanned-out item is in a lane");
        }
        // Disabled sink: same results, nothing recorded.
        let sink = ObsSink::disabled();
        let out = run_stealing(&items, 3, &sink, |_, _| 1, |&i| i + 1);
        assert_eq!(out.len(), 10);
        assert!(sink.report("chunk", "t", 3).speculation.workers.is_empty());
    }
}
