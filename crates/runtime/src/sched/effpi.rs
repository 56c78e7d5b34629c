//! The Effpi-style non-preemptive scheduler (§5.1, "An efficient Effpi
//! interpreter").
//!
//! Logical processes are continuations; a small pool of worker threads (one
//! per CPU core by default) executes them. A process yields control both when
//! waiting for an input (its continuation is parked on the channel) *and*
//! conceptually when sending (the delivery may resume another process), which
//! is the scheduling discipline the paper describes. Two delivery policies are
//! provided, mirroring the two Effpi configurations measured in Fig. 8.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obs::sync::{Condvar, Mutex};

use crate::channel::Waiter;
use crate::msg::Msg;
use crate::process::Proc;
use crate::sched::{RunStats, Scheduler};

/// Delivery policy of the Effpi-style scheduler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// When a send finds a parked receiver, the receiver's continuation is
    /// pushed onto the shared run queue ("Effpi default" in Fig. 8).
    Default,
    /// When a send finds a parked receiver, the delivering worker executes the
    /// receiver's continuation immediately, treating the channel as a small
    /// finite-state machine ("Effpi with channel FSM" in Fig. 8).
    ChannelFsm,
}

/// Rough per-process bookkeeping footprint (control block + queue slot), used
/// for the memory-pressure estimate of [`RunStats`].
const PROCESS_FOOTPRINT_BYTES: u64 = 96;

enum Task {
    Run(Proc),
    Resume(Waiter, Msg),
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
    /// Number of live (not yet terminated) logical processes.
    live: AtomicUsize,
    done: AtomicBool,
    spawned: AtomicU64,
    messages: AtomicU64,
    peak_live: AtomicU64,
}

impl Shared {
    fn new() -> Self {
        Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            live: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            spawned: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            peak_live: AtomicU64::new(0),
        }
    }

    fn spawn_process(&self) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(1, Ordering::Relaxed) as u64 + 1;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
    }

    fn terminate_process(&self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Under the queue lock: a worker in `pop` checks `done` and then
            // waits while holding it, so a wake-up sent between its check and
            // its wait would be lost and leave it blocked forever.
            let _queue = self.queue.lock();
            self.done.store(true, Ordering::Release);
            self.ready.notify_all();
        }
    }

    fn push(&self, task: Task) {
        self.queue.lock().push_back(task);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Task> {
        let mut q = self.queue.lock();
        loop {
            if let Some(task) = q.pop_front() {
                return Some(task);
            }
            if self.done.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q);
        }
    }
}

/// The Effpi-style scheduler: a fixed pool of workers executing continuation
/// processes from a shared run queue.
#[derive(Clone, Debug)]
pub struct EffpiRuntime {
    workers: usize,
    policy: Policy,
}

impl EffpiRuntime {
    /// Creates a scheduler with the given policy and one worker per available
    /// CPU core.
    pub fn new(policy: Policy) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        EffpiRuntime { workers, policy }
    }

    /// Creates a scheduler with an explicit worker count.
    pub fn with_workers(policy: Policy, workers: usize) -> Self {
        EffpiRuntime {
            workers: workers.max(1),
            policy,
        }
    }

    /// The delivery policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    fn worker_loop(shared: &Shared, policy: Policy) {
        while let Some(task) = shared.pop() {
            let proc = match task {
                Task::Run(p) => p,
                Task::Resume(k, msg) => k(msg),
            };
            Self::run_proc(shared, policy, proc);
        }
    }

    /// Runs one process until it terminates or parks.
    fn run_proc(shared: &Shared, policy: Policy, mut p: Proc) {
        loop {
            match p {
                Proc::End => {
                    shared.terminate_process();
                    return;
                }
                Proc::Par(children) => {
                    for child in children {
                        shared.spawn_process();
                        shared.push(Task::Run(child));
                    }
                    shared.terminate_process();
                    return;
                }
                Proc::Send(chan, msg, k) => {
                    shared.messages.fetch_add(1, Ordering::Relaxed);
                    match chan.deliver(msg) {
                        Some((waiter, msg)) => match policy {
                            Policy::Default => {
                                shared.push(Task::Resume(waiter, msg));
                                p = k();
                            }
                            Policy::ChannelFsm => {
                                // Fuse with the receiver: the sender's own
                                // continuation goes to the queue, the worker
                                // keeps driving the channel's receiver.
                                shared.push(Task::Run(k()));
                                p = waiter(msg);
                            }
                        },
                        None => {
                            p = k();
                        }
                    }
                }
                Proc::Recv(chan, k) => match chan.take_or_park(k) {
                    Some((k, msg)) => {
                        p = k(msg);
                    }
                    None => {
                        // Parked: the process is still live, but this worker
                        // is free to pick up other work.
                        return;
                    }
                },
            }
        }
    }
}

impl Scheduler for EffpiRuntime {
    fn name(&self) -> &'static str {
        match self.policy {
            Policy::Default => "effpi-default",
            Policy::ChannelFsm => "effpi-channel-fsm",
        }
    }

    fn run(&self, initial: Vec<Proc>) -> RunStats {
        let shared = Arc::new(Shared::new());
        let start = Instant::now();

        for p in initial {
            shared.spawn_process();
            shared.push(Task::Run(p));
        }
        if shared.live.load(Ordering::Acquire) == 0 {
            // Nothing to run.
            shared.done.store(true, Ordering::Release);
        }

        let mut handles = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let shared = Arc::clone(&shared);
            let policy = self.policy;
            handles.push(std::thread::spawn(move || {
                EffpiRuntime::worker_loop(&shared, policy)
            }));
        }
        for h in handles {
            let _ = h.join();
        }

        let peak_live = shared.peak_live.load(Ordering::Relaxed);
        RunStats {
            duration: start.elapsed(),
            processes_spawned: shared.spawned.load(Ordering::Relaxed),
            messages_sent: shared.messages.load(Ordering::Relaxed),
            peak_live_processes: peak_live,
            peak_bookkeeping_bytes: peak_live * PROCESS_FOOTPRINT_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChanRef;
    use std::sync::atomic::AtomicI64;

    fn both_policies() -> Vec<EffpiRuntime> {
        vec![
            EffpiRuntime::with_workers(Policy::Default, 4),
            EffpiRuntime::with_workers(Policy::ChannelFsm, 4),
        ]
    }

    #[test]
    fn a_single_message_is_delivered() {
        for rt in both_policies() {
            let c = ChanRef::new();
            let got = Arc::new(AtomicI64::new(0));
            let got2 = Arc::clone(&got);
            let receiver = Proc::recv(&c, move |msg| {
                got2.store(msg.as_int().unwrap_or(-1), Ordering::SeqCst);
                Proc::End
            });
            let sender = Proc::send_end(&c, Msg::Int(77));
            let stats = rt.run(vec![receiver, sender]);
            assert_eq!(got.load(Ordering::SeqCst), 77, "policy {:?}", rt.policy());
            assert_eq!(stats.messages_sent, 1);
            assert_eq!(stats.processes_spawned, 2);
        }
    }

    #[test]
    fn ordering_of_spawn_does_not_matter() {
        // Sender first: the message is buffered until the receiver arrives.
        for rt in both_policies() {
            let c = ChanRef::new();
            let got = Arc::new(AtomicI64::new(0));
            let got2 = Arc::clone(&got);
            let stats = rt.run(vec![
                Proc::send_end(&c, Msg::Int(5)),
                Proc::recv(&c, move |msg| {
                    got2.store(msg.as_int().unwrap_or(-1), Ordering::SeqCst);
                    Proc::End
                }),
            ]);
            assert_eq!(got.load(Ordering::SeqCst), 5);
            assert!(stats.peak_live_processes >= 1);
        }
    }

    #[test]
    fn par_forks_children_that_all_run() {
        for rt in both_policies() {
            let counter = Arc::new(AtomicI64::new(0));
            let children: Vec<Proc> = (0..50)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    let c = ChanRef::new();
                    // Each child sends itself one message and receives it.
                    Proc::par(vec![
                        Proc::send_end(&c, Msg::Unit),
                        Proc::recv(&c, move |_| {
                            counter.fetch_add(1, Ordering::SeqCst);
                            Proc::End
                        }),
                    ])
                })
                .collect();
            let stats = rt.run(vec![Proc::par(children)]);
            assert_eq!(counter.load(Ordering::SeqCst), 50);
            // 1 root + 50 pairs + 100 leaves.
            assert_eq!(stats.processes_spawned, 151);
        }
    }

    #[test]
    fn long_chain_of_messages_counts_them_all() {
        for rt in both_policies() {
            let c = ChanRef::new();
            let n: i64 = 1000;
            let sum = Arc::new(AtomicI64::new(0));
            // Receiver: sums n integers.
            fn receiver(c: &ChanRef, remaining: i64, sum: Arc<AtomicI64>) -> Proc {
                if remaining == 0 {
                    return Proc::End;
                }
                let c2 = c.clone();
                Proc::recv(c, move |msg| {
                    sum.fetch_add(msg.as_int().unwrap_or(0), Ordering::SeqCst);
                    receiver(&c2, remaining - 1, sum)
                })
            }
            // Sender: sends 1..=n.
            fn sender(c: &ChanRef, i: i64, n: i64) -> Proc {
                if i > n {
                    return Proc::End;
                }
                let c2 = c.clone();
                Proc::send(c, Msg::Int(i), move || sender(&c2, i + 1, n))
            }
            let stats = rt.run(vec![receiver(&c, n, Arc::clone(&sum)), sender(&c, 1, n)]);
            assert_eq!(sum.load(Ordering::SeqCst), n * (n + 1) / 2);
            assert_eq!(stats.messages_sent as i64, n);
        }
    }

    #[test]
    fn empty_run_terminates_immediately() {
        let rt = EffpiRuntime::with_workers(Policy::Default, 2);
        let stats = rt.run(vec![]);
        assert_eq!(stats.processes_spawned, 0);
    }
}
