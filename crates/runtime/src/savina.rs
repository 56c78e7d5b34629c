//! The Savina-derived benchmark workloads of §5.2 / Fig. 8.
//!
//! Each function builds one workload (a set of initial processes) plus
//! self-validation data, so the same code serves the unit tests and the
//! `fig8` example's table. The seven workloads are the ones listed in the
//! paper:
//!
//! * **chameneos** — n chameneos meet each other through a central broker that
//!   pairs requests and hands each peer the other's reference;
//! * **counting** — one actor sends n numbers to another, which adds them up;
//! * **fork-join (creation)** — create n processes that each signal readiness;
//! * **fork-join (throughput)** — n processes each receive a stream of
//!   messages;
//! * **ping-pong** — n pairs of actors exchange a request/response `r` times;
//! * **ring** — n processes in a ring forward a single token for `h` hops;
//! * **streaming ring** — like ring, but with `m` tokens in flight.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::channel::ChanRef;
use crate::msg::Msg;
use crate::process::Proc;
use crate::sched::{RunStats, Scheduler};

/// A runnable benchmark workload with built-in validation.
pub struct Workload {
    /// Human-readable name (matches the Fig. 8 panel names).
    pub name: &'static str,
    /// The size parameter the workload was built with.
    pub size: usize,
    /// The initial processes to hand to a [`Scheduler`].
    pub procs: Vec<Proc>,
    checks: Vec<Check>,
}

struct Check {
    what: &'static str,
    counter: Arc<AtomicU64>,
    expected: u64,
}

impl Workload {
    fn new(name: &'static str, size: usize) -> Self {
        Workload {
            name,
            size,
            procs: Vec::new(),
            checks: Vec::new(),
        }
    }

    fn expect(&mut self, what: &'static str, expected: u64) -> Arc<AtomicU64> {
        let counter = Arc::new(AtomicU64::new(0));
        self.checks.push(Check {
            what,
            counter: Arc::clone(&counter),
            expected,
        });
        counter
    }

    /// Runs the workload on the given scheduler and returns its statistics.
    pub fn run_on(self, scheduler: &dyn Scheduler) -> Result<RunStats, String> {
        let Workload {
            name,
            procs,
            checks,
            ..
        } = self;
        let stats = scheduler.run(procs);
        for check in &checks {
            let got = check.counter.load(Ordering::SeqCst);
            if got != check.expected {
                return Err(format!(
                    "{name}: {} — expected {}, got {got}",
                    check.what, check.expected
                ));
            }
        }
        Ok(stats)
    }
}

// ---------------------------------------------------------------------------
// ping-pong
// ---------------------------------------------------------------------------

/// `pairs` pairs of actors exchange `rounds` request/response round-trips.
pub fn ping_pong(pairs: usize, rounds: usize) -> Workload {
    let mut w = Workload::new("ping-pong", pairs);
    let responses = w.expect("pong responses", (pairs * rounds) as u64);

    for _ in 0..pairs {
        let ping_ch = ChanRef::new();
        let pong_ch = ChanRef::new();

        fn pinger(self_ch: ChanRef, peer: ChanRef, remaining: usize) -> Proc {
            if remaining == 0 {
                // Tell the ponger to stop.
                return Proc::send_end(&peer, Msg::Int(0));
            }
            let self2 = self_ch.clone();
            let peer2 = peer.clone();
            Proc::send(
                &peer,
                Msg::pair(Msg::Int(remaining as i64), Msg::Chan(self_ch.clone())),
                move || {
                    Proc::recv(&self2.clone(), move |_reply| {
                        pinger(self2, peer2, remaining - 1)
                    })
                },
            )
        }

        fn ponger(self_ch: ChanRef, responses: Arc<AtomicU64>) -> Proc {
            let self2 = self_ch.clone();
            Proc::recv(&self_ch, move |msg| match msg {
                Msg::Pair(_, reply_to) => match reply_to.as_chan() {
                    Some(r) => {
                        responses.fetch_add(1, Ordering::Relaxed);
                        Proc::send(&r, Msg::Unit, move || ponger(self2, responses))
                    }
                    None => Proc::End,
                },
                _ => Proc::End,
            })
        }

        w.procs.push(pinger(ping_ch, pong_ch.clone(), rounds));
        w.procs.push(ponger(pong_ch, Arc::clone(&responses)));
    }
    w
}

// ---------------------------------------------------------------------------
// counting
// ---------------------------------------------------------------------------

/// Actor A sends the numbers `1..=n` to actor B, which adds them; the final
/// sum is validated against `n(n+1)/2`.
pub fn counting(n: usize) -> Workload {
    let mut w = Workload::new("counting", n);
    let expected_sum = (n as u64) * (n as u64 + 1) / 2;
    let sum = w.expect("sum of received numbers", expected_sum);

    let chan = ChanRef::new();

    fn producer(chan: ChanRef, i: usize, n: usize) -> Proc {
        if i > n {
            return Proc::send_end(&chan, Msg::Int(-1));
        }
        let c2 = chan.clone();
        Proc::send(&chan, Msg::Int(i as i64), move || producer(c2, i + 1, n))
    }

    fn adder(chan: ChanRef, acc: u64, sum: Arc<AtomicU64>) -> Proc {
        let c2 = chan.clone();
        Proc::recv(&chan, move |msg| match msg.as_int() {
            Some(-1) | None => {
                sum.store(acc, Ordering::SeqCst);
                Proc::End
            }
            Some(i) => adder(c2, acc + i as u64, sum),
        })
    }

    w.procs.push(producer(chan.clone(), 1, n));
    w.procs.push(adder(chan, 0, sum));
    w
}

// ---------------------------------------------------------------------------
// fork-join (creation)
// ---------------------------------------------------------------------------

/// Creates `n` processes; each signals its readiness to a collector.
pub fn fork_join_create(n: usize) -> Workload {
    let mut w = Workload::new("fork-join-creation", n);
    let ready = w.expect("readiness signals collected", n as u64);

    let collector_ch = ChanRef::new();

    fn collector(chan: ChanRef, remaining: usize, ready: Arc<AtomicU64>) -> Proc {
        if remaining == 0 {
            return Proc::End;
        }
        let c2 = chan.clone();
        Proc::recv(&chan, move |_| {
            ready.fetch_add(1, Ordering::Relaxed);
            collector(c2, remaining - 1, ready)
        })
    }

    let workers: Vec<Proc> = (0..n)
        .map(|_| Proc::send_end(&collector_ch, Msg::Unit))
        .collect();

    w.procs.push(collector(collector_ch, n, ready));
    w.procs.push(Proc::par(workers));
    w
}

// ---------------------------------------------------------------------------
// fork-join (throughput)
// ---------------------------------------------------------------------------

/// Creates `actors` processes and sends each of them `messages` messages.
pub fn fork_join_throughput(actors: usize, messages: usize) -> Workload {
    let mut w = Workload::new("fork-join-throughput", actors);
    let processed = w.expect("messages processed", (actors * messages) as u64);

    let mut worker_channels = Vec::with_capacity(actors);
    for _ in 0..actors {
        let ch = ChanRef::new();
        worker_channels.push(ch.clone());

        fn worker(ch: ChanRef, remaining: usize, processed: Arc<AtomicU64>) -> Proc {
            if remaining == 0 {
                return Proc::End;
            }
            let c2 = ch.clone();
            Proc::recv(&ch, move |_| {
                processed.fetch_add(1, Ordering::Relaxed);
                worker(c2, remaining - 1, processed)
            })
        }
        w.procs.push(worker(ch, messages, Arc::clone(&processed)));
    }

    // The driver sends `messages` rounds to every worker, round-robin.
    fn driver(channels: Arc<Vec<ChanRef>>, round: usize, idx: usize, rounds: usize) -> Proc {
        if round == rounds {
            return Proc::End;
        }
        let (next_round, next_idx) = if idx + 1 == channels.len() {
            (round + 1, 0)
        } else {
            (round, idx + 1)
        };
        let target = channels[idx].clone();
        let channels2 = Arc::clone(&channels);
        Proc::send(&target, Msg::Int(round as i64), move || {
            driver(channels2, next_round, next_idx, rounds)
        })
    }
    w.procs
        .push(driver(Arc::new(worker_channels), 0, 0, messages));
    w
}

// ---------------------------------------------------------------------------
// chameneos
// ---------------------------------------------------------------------------

/// `n` chameneos repeatedly request a meeting from a central broker; the
/// broker pairs two requests at a time and sends each peer the other's
/// reference, for a total of `meetings` meetings.
pub fn chameneos(n: usize, meetings: usize) -> Workload {
    assert!(n >= 2, "chameneos needs at least two participants");
    let mut w = Workload::new("chameneos", n);
    // Each meeting is counted by both participants.
    let met = w.expect("meetings counted by participants", 2 * meetings as u64);

    let broker_ch = ChanRef::new();

    fn chameneo(self_ch: ChanRef, broker: ChanRef, met: Arc<AtomicU64>) -> Proc {
        let self2 = self_ch.clone();
        let broker2 = broker.clone();
        Proc::send(&broker, Msg::Chan(self_ch.clone()), move || {
            Proc::recv(&self2.clone(), move |msg| match msg {
                Msg::Chan(_peer) => {
                    met.fetch_add(1, Ordering::Relaxed);
                    chameneo(self2, broker2, met)
                }
                _ => Proc::End,
            })
        })
    }

    fn broker(chan: ChanRef, remaining_meetings: usize, remaining_stops: usize) -> Proc {
        if remaining_meetings > 0 {
            let c2 = chan.clone();
            return Proc::recv(&chan, move |first| {
                let c3 = c2.clone();
                Proc::recv(&c2.clone(), move |second| {
                    match (first.as_chan(), second.as_chan()) {
                        (Some(a), Some(b)) => {
                            let a2 = a.clone();
                            let b2 = b.clone();
                            Proc::send(&a, Msg::Chan(b.clone()), move || {
                                Proc::send(&b2, Msg::Chan(a2), move || {
                                    broker(c3, remaining_meetings - 1, remaining_stops)
                                })
                            })
                        }
                        _ => Proc::End,
                    }
                })
            });
        }
        if remaining_stops == 0 {
            return Proc::End;
        }
        let c2 = chan.clone();
        Proc::recv(&chan, move |msg| match msg.as_chan() {
            Some(requester) => Proc::send(&requester, Msg::Str("stop"), move || {
                broker(c2, 0, remaining_stops - 1)
            }),
            None => Proc::End,
        })
    }

    for _ in 0..n {
        let ch = ChanRef::new();
        w.procs
            .push(chameneo(ch, broker_ch.clone(), Arc::clone(&met)));
    }
    w.procs.push(broker(broker_ch, meetings, n));
    w
}

// ---------------------------------------------------------------------------
// ring
// ---------------------------------------------------------------------------

/// `n` processes connected in a ring pass a single token for `hops` hops.
pub fn ring(n: usize, hops: usize) -> Workload {
    assert!(n >= 2, "ring needs at least two members");
    let mut w = Workload::new("ring", n);
    let forwarded = w.expect("token hops", hops as u64);
    build_ring(&mut w, n, vec![hops], forwarded);
    w
}

/// The streaming variant: `tokens` tokens circulate simultaneously, each for
/// `hops` hops.
pub fn streaming_ring(n: usize, tokens: usize, hops: usize) -> Workload {
    assert!(n >= 2, "ring needs at least two members");
    let mut w = Workload::new("streaming-ring", n);
    let forwarded = w.expect("token hops", (tokens * hops) as u64);
    build_ring(&mut w, n, vec![hops; tokens], forwarded);
    w
}

fn build_ring(w: &mut Workload, n: usize, tokens: Vec<usize>, forwarded: Arc<AtomicU64>) {
    let channels: Vec<ChanRef> = (0..n).map(|_| ChanRef::new()).collect();
    let num_tokens = tokens.len();

    // Message encoding: a positive integer is a live token carrying its
    // remaining hop count; a negative integer `-m` is a finished token's stop
    // marker that must still visit `m` members. The TTL makes every marker
    // visit each member exactly once — an unbounded marker (the previous
    // encoding) can lap the ring ahead of still-live tokens under scheduling
    // contention, making members terminate early and drop token hops.
    fn member(
        self_ch: ChanRef,
        next: ChanRef,
        stops_remaining: usize,
        forwarded: Arc<AtomicU64>,
        ring_size: usize,
    ) -> Proc {
        let self2 = self_ch.clone();
        let next2 = next.clone();
        Proc::recv(&self_ch, move |msg| {
            let next3 = next2.clone();
            match msg.as_int() {
                Some(k) if k > 0 => {
                    forwarded.fetch_add(1, Ordering::Relaxed);
                    // On the token's last hop, turn it into a stop marker that
                    // visits all `ring_size` members (ending back here).
                    let outgoing = if k == 1 { -(ring_size as i64) } else { k - 1 };
                    Proc::send(&next2, Msg::Int(outgoing), move || {
                        member(self2, next3, stops_remaining, forwarded, ring_size)
                    })
                }
                Some(m) if m < 0 => {
                    let keep_forwarding = m < -1; // more members left to visit
                    if stops_remaining <= 1 {
                        // Saw every token's marker: this member is done.
                        if keep_forwarding {
                            Proc::send_end(&next2, Msg::Int(m + 1))
                        } else {
                            Proc::End
                        }
                    } else if keep_forwarding {
                        Proc::send(&next2, Msg::Int(m + 1), move || {
                            member(self2, next3, stops_remaining - 1, forwarded, ring_size)
                        })
                    } else {
                        // The marker finished its loop here; absorb it.
                        member(self2, next3, stops_remaining - 1, forwarded, ring_size)
                    }
                }
                _ => Proc::End,
            }
        })
    }

    for i in 0..n {
        let next = channels[(i + 1) % n].clone();
        w.procs.push(member(
            channels[i].clone(),
            next,
            num_tokens,
            Arc::clone(&forwarded),
            n,
        ));
    }
    // Inject the tokens at evenly spaced members (a 0-hop token is born as a
    // full-loop stop marker).
    for (t, hops) in tokens.iter().enumerate() {
        let at = (t * n / num_tokens.max(1)) % n;
        let initial = if *hops == 0 {
            -(n as i64)
        } else {
            *hops as i64
        };
        w.procs
            .push(Proc::send_end(&channels[at], Msg::Int(initial)));
    }
}

/// Builds the full Fig. 8 suite at a small, test-friendly size.
pub fn all_benchmarks_small() -> Vec<Workload> {
    vec![
        chameneos(8, 20),
        counting(500),
        fork_join_create(100),
        fork_join_throughput(16, 50),
        ping_pong(16, 10),
        ring(16, 200),
        streaming_ring(16, 3, 100),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{EffpiRuntime, Policy, ThreadRuntime};

    fn schedulers() -> Vec<Box<dyn Scheduler>> {
        vec![
            Box::new(EffpiRuntime::with_workers(Policy::Default, 4)),
            Box::new(EffpiRuntime::with_workers(Policy::ChannelFsm, 4)),
        ]
    }

    #[test]
    fn ping_pong_counts_all_responses() {
        for s in schedulers() {
            let stats = ping_pong(8, 5).run_on(s.as_ref()).expect("validation");
            assert!(stats.messages_sent >= 8 * 5 * 2);
        }
    }

    #[test]
    fn counting_adds_all_numbers() {
        for s in schedulers() {
            counting(200).run_on(s.as_ref()).expect("validation");
        }
    }

    #[test]
    fn fork_join_creation_collects_all_signals() {
        for s in schedulers() {
            let stats = fork_join_create(300)
                .run_on(s.as_ref())
                .expect("validation");
            assert!(stats.processes_spawned >= 300);
            assert!(stats.peak_live_processes >= 2);
        }
    }

    #[test]
    fn fork_join_throughput_processes_every_message() {
        for s in schedulers() {
            fork_join_throughput(8, 25)
                .run_on(s.as_ref())
                .expect("validation");
        }
    }

    #[test]
    fn chameneos_completes_the_requested_meetings() {
        for s in schedulers() {
            chameneos(6, 15).run_on(s.as_ref()).expect("validation");
        }
    }

    #[test]
    fn ring_passes_the_token_for_the_requested_hops() {
        for s in schedulers() {
            ring(10, 100).run_on(s.as_ref()).expect("validation");
        }
    }

    #[test]
    fn streaming_ring_keeps_multiple_tokens_in_flight() {
        for s in schedulers() {
            streaming_ring(10, 3, 40)
                .run_on(s.as_ref())
                .expect("validation");
        }
    }

    #[test]
    fn baseline_thread_runtime_agrees_on_small_sizes() {
        let baseline = ThreadRuntime::with_small_stacks();
        counting(100).run_on(&baseline).expect("counting");
        ping_pong(4, 5).run_on(&baseline).expect("ping-pong");
        ring(6, 30).run_on(&baseline).expect("ring");
        fork_join_create(40).run_on(&baseline).expect("fj-c");
    }

    #[test]
    fn the_whole_small_suite_validates() {
        let rt = EffpiRuntime::with_workers(Policy::ChannelFsm, 4);
        for w in all_benchmarks_small() {
            let name = w.name;
            w.run_on(&rt).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn effpi_scales_to_a_hundred_thousand_processes() {
        // The headline capability: creating 100k lightweight processes is fine.
        let rt = EffpiRuntime::with_workers(Policy::ChannelFsm, 4);
        let stats = fork_join_create(100_000).run_on(&rt).expect("validation");
        assert!(stats.processes_spawned >= 100_000);
    }
}
