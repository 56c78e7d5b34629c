//! Regenerates the paper's Figure 8: the Savina-derived runtime benchmarks on
//! the two Effpi-style schedulers and the thread-per-process baseline.
//!
//! For every benchmark of §5.2 (chameneos, counting, fork-join creation,
//! fork-join throughput, ping-pong, ring, streaming ring), the sweep runs the
//! workload at a series of sizes on three schedulers — Effpi default, Effpi
//! channel-FSM, and the thread-per-process baseline standing in for Akka
//! Typed — and prints the two quantities plotted in the paper's figure:
//! execution time vs. size, and memory pressure vs. size.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example fig8 -- [--scale N] [--jobs J]
//! ```
//!
//! * `--scale 0` — smoke test (seconds);
//! * `--scale 1` — small sweep, default (tens of seconds);
//! * `--scale 2` — sizes up to 10^6 processes (minutes);
//! * `--jobs J` — pin the Effpi scheduler pools to `J` workers. `0` means
//!   one per hardware thread (as on the other `--jobs` surfaces); absent
//!   keeps the scheduler's own default, which is also one per hardware
//!   thread (unlike fig9/effpi-cli, where absent means serial exploration —
//!   a scheduler pool has no serial mode worth defaulting to).

use std::process::ExitCode;
use std::time::Duration;

use runtime::savina::{
    chameneos, counting, fork_join_create, fork_join_throughput, ping_pong, ring, streaming_ring,
    Workload,
};
use runtime::{EffpiRuntime, Policy, RunStats, Scheduler, ThreadRuntime};
use wire::flags::parse_flag;

/// The benchmark families of Fig. 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Benchmark {
    /// n chameneos meeting through a broker.
    Chameneos,
    /// One actor streaming n numbers to an adder.
    Counting,
    /// Creation of n processes (fork-join, creation).
    ForkJoinCreate,
    /// n processes each receiving a stream of messages (fork-join, throughput).
    ForkJoinThroughput,
    /// n request/response pairs.
    PingPong,
    /// n processes passing one token around a ring.
    Ring,
    /// n processes passing several tokens around a ring.
    StreamingRing,
}

impl Benchmark {
    /// All seven benchmarks, in the order of the paper's figure.
    const ALL: [Benchmark; 7] = [
        Benchmark::Chameneos,
        Benchmark::Counting,
        Benchmark::ForkJoinCreate,
        Benchmark::ForkJoinThroughput,
        Benchmark::PingPong,
        Benchmark::Ring,
        Benchmark::StreamingRing,
    ];

    /// The panel name used in the figure.
    fn name(&self) -> &'static str {
        match self {
            Benchmark::Chameneos => "chameneos",
            Benchmark::Counting => "counting",
            Benchmark::ForkJoinCreate => "fork-join (creation)",
            Benchmark::ForkJoinThroughput => "fork-join (throughput)",
            Benchmark::PingPong => "ping-pong",
            Benchmark::Ring => "ring",
            Benchmark::StreamingRing => "streaming ring",
        }
    }

    /// Builds the workload at the given size parameter (the x-axis of Fig. 8).
    fn workload(&self, size: usize) -> Workload {
        match self {
            Benchmark::Chameneos => chameneos(size.max(2), size.max(2) * 4),
            Benchmark::Counting => counting(size),
            Benchmark::ForkJoinCreate => fork_join_create(size),
            Benchmark::ForkJoinThroughput => fork_join_throughput(size.max(1), 32),
            Benchmark::PingPong => ping_pong(size.max(1), 16),
            Benchmark::Ring => ring(size.max(2), size.max(2) * 4),
            Benchmark::StreamingRing => streaming_ring(size.max(2), 4, size.max(2) * 2),
        }
    }

    /// The sizes measured for this benchmark, scaled down from the paper's
    /// ranges by `scale` (0 = smoke test, 1 = small, 2 = full-ish).
    fn sizes(&self, scale: usize) -> Vec<usize> {
        let caps: &[usize] = match scale {
            0 => &[16, 64],
            1 => &[100, 1_000, 10_000],
            _ => &[100, 1_000, 10_000, 100_000, 1_000_000],
        };
        let per_bench_cap = match self {
            // Rings and chameneos are quadratic-ish in messages; keep them smaller.
            Benchmark::Ring | Benchmark::StreamingRing | Benchmark::Chameneos => 100_000,
            _ => usize::MAX,
        };
        caps.iter()
            .copied()
            .filter(|&s| s <= per_bench_cap)
            .collect()
    }
}

/// Which scheduler a measurement used.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Runner {
    /// Effpi-style scheduler, default delivery policy.
    EffpiDefault,
    /// Effpi-style scheduler, channel-FSM delivery policy.
    EffpiChannelFsm,
    /// Thread-per-process baseline (the Akka Typed stand-in).
    BaselineThreads,
}

impl Runner {
    /// The three runners, in the legend order of Fig. 8.
    const ALL: [Runner; 3] = [
        Runner::BaselineThreads,
        Runner::EffpiChannelFsm,
        Runner::EffpiDefault,
    ];

    /// Legend name.
    fn name(&self) -> &'static str {
        match self {
            Runner::EffpiDefault => "effpi-default",
            Runner::EffpiChannelFsm => "effpi-channel-fsm",
            Runner::BaselineThreads => "baseline-threads",
        }
    }

    /// Instantiates the scheduler, pinning the Effpi-style pools to `jobs`
    /// workers (`None`: one per hardware thread). The thread-per-process
    /// baseline has no pool, so the knob does not apply.
    fn scheduler(&self, jobs: Option<usize>) -> Box<dyn Scheduler> {
        let policy = match self {
            Runner::EffpiDefault => Policy::Default,
            Runner::EffpiChannelFsm => Policy::ChannelFsm,
            Runner::BaselineThreads => return Box::new(ThreadRuntime::with_small_stacks()),
        };
        match jobs {
            None => Box::new(EffpiRuntime::new(policy)),
            Some(n) => Box::new(EffpiRuntime::with_workers(policy, n)),
        }
    }

    /// The largest workload size this runner is asked to attempt. The
    /// thread-per-process baseline stops early — exactly the "plots end early"
    /// behaviour of the heavyweight runtime in the paper's figure.
    fn max_size(&self) -> usize {
        match self {
            Runner::BaselineThreads => 4_000,
            _ => usize::MAX,
        }
    }
}

/// One measured point of Fig. 8.
#[derive(Clone, Debug)]
struct Fig8Point {
    /// The benchmark family.
    benchmark: &'static str,
    /// The scheduler used.
    runner: &'static str,
    /// The size parameter (x-axis).
    size: usize,
    /// The measured statistics (time and memory proxies); `None` when the
    /// size is beyond the runner's limit.
    stats: Option<RunStats>,
}

impl Fig8Point {
    /// Formats the point as a table row.
    fn row(&self) -> String {
        match &self.stats {
            Some(s) => format!(
                "{:<22} {:<18} {:>9} {:>12.3?} {:>12} {:>10} {:>14}",
                self.benchmark,
                self.runner,
                self.size,
                s.duration,
                s.messages_sent,
                s.peak_live_processes,
                s.peak_bookkeeping_bytes,
            ),
            None => format!(
                "{:<22} {:<18} {:>9} {:>12} {:>12} {:>10} {:>14}",
                self.benchmark, self.runner, self.size, "skipped", "-", "-", "-"
            ),
        }
    }
}

/// The table header matching [`Fig8Point::row`].
fn header() -> String {
    format!(
        "{:<22} {:<18} {:>9} {:>12} {:>12} {:>10} {:>14}",
        "benchmark", "runtime", "size", "time", "messages", "peak-procs", "peak-bytes"
    )
}

/// Runs a single (benchmark, runner, size) measurement; sizes beyond the
/// runner's limit are skipped (reported as `None`).
fn run_point(bench: Benchmark, runner: Runner, size: usize, jobs: Option<usize>) -> Fig8Point {
    let stats = (size <= runner.max_size()).then(|| {
        bench
            .workload(size)
            .run_on(runner.scheduler(jobs).as_ref())
            .expect("workload validation")
    });
    Fig8Point {
        benchmark: bench.name(),
        runner: runner.name(),
        size,
        stats,
    }
}

/// For each benchmark, the ratio of baseline time to Effpi (channel-FSM)
/// time at the largest size both completed — the "who wins, by what factor"
/// shape of Fig. 8.
fn speedup_summary(points: &[Fig8Point]) -> Vec<(String, f64)> {
    let time = |bench: &str, runner: Runner, size: usize| -> Option<Duration> {
        points
            .iter()
            .find(|p| p.benchmark == bench && p.runner == runner.name() && p.size == size)
            .and_then(|p| p.stats.as_ref())
            .map(|s| s.duration)
    };
    let mut out = Vec::new();
    for bench in Benchmark::ALL {
        let largest = points
            .iter()
            .filter(|p| p.benchmark == bench.name())
            .filter_map(|p| {
                let baseline = time(p.benchmark, Runner::BaselineThreads, p.size)?;
                let effpi = time(p.benchmark, Runner::EffpiChannelFsm, p.size)?;
                Some((p.size, baseline, effpi))
            })
            .max_by_key(|&(size, _, _)| size);
        if let Some((size, baseline, effpi)) = largest {
            let ratio = baseline.as_secs_f64() / effpi.as_secs_f64().max(1e-9);
            out.push((format!("{} (size {})", bench.name(), size), ratio));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (scale, jobs) = match (parse_flag(&args, "--scale"), parse_flag(&args, "--jobs")) {
        (Ok(scale), Ok(jobs)) => (
            scale.unwrap_or(1),
            // 0 = one worker per hardware thread (the scheduler's default).
            jobs.filter(|&j| j > 0),
        ),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("Figure 8 reproduction — Savina runtime benchmarks (scale {scale})");
    println!("{}", header());
    println!("{}", "-".repeat(110));

    let mut points = Vec::new();
    for bench in Benchmark::ALL {
        for size in bench.sizes(scale) {
            for runner in Runner::ALL {
                let point = run_point(bench, runner, size, jobs);
                println!("{}", point.row());
                points.push(point);
            }
        }
        println!();
    }

    println!("baseline-threads time / effpi-channel-fsm time (largest common size):");
    for (name, ratio) in speedup_summary(&points) {
        println!("  {name:<40} {ratio:>8.2}x");
    }
    println!(
        "\nNote: absolute numbers depend on the machine; the shape to compare against the\n\
         paper is (a) the Effpi-style schedulers keep scaling to very large process counts\n\
         while the thread-per-process baseline stops early, and (b) the memory-pressure\n\
         proxy grows with size far more steeply for the baseline."
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_has_sizes_and_a_workload() {
        for b in Benchmark::ALL {
            assert!(!b.sizes(0).is_empty());
            assert!(!b.name().is_empty());
            let w = b.workload(8);
            assert!(!w.procs.is_empty());
        }
    }

    #[test]
    fn smoke_sweep_at_scale_zero_validates_all_points() {
        let mut points = Vec::new();
        for bench in Benchmark::ALL {
            for size in bench.sizes(0) {
                for runner in Runner::ALL {
                    // Panics unless the workload validates.
                    points.push(run_point(bench, runner, size, None));
                }
            }
        }
        assert!(!points.is_empty());
        for p in &points {
            assert!(!p.row().is_empty());
        }
        assert!(!header().is_empty());
        // Every benchmark has a common size on both compared runners.
        assert_eq!(speedup_summary(&points).len(), Benchmark::ALL.len());
    }

    #[test]
    fn baseline_skips_oversized_workloads() {
        let p = run_point(
            Benchmark::ForkJoinCreate,
            Runner::BaselineThreads,
            1_000_000,
            None,
        );
        assert!(p.stats.is_none());
        assert!(p.row().contains("skipped"));
    }
}
