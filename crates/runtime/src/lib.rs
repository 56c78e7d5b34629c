//! # runtime — an Effpi-style runtime system for message-passing processes
//!
//! This crate implements the execution half of the paper (*"Verifying
//! Message-Passing Programs with Dependent Behavioural Types"*, PLDI 2019,
//! §5.1–§5.2): a runtime able to run very large numbers of lightweight
//! processes, in the style of the Effpi interpreter, together with the
//! workloads used for its evaluation.
//!
//! * [`Proc`] — resumable processes whose continuations are closures (the
//!   executable counterpart of λπ⩽ process terms);
//! * [`ChanRef`] / [`Msg`] — buffered channels and the messages they carry
//!   (including channel references, i.e. actor references);
//! * [`ActorRef`] / [`Mailbox`] — the thin actor façade (plus [`forever`]);
//! * [`EffpiRuntime`] — the non-preemptive scheduler with its two policies
//!   ([`Policy::Default`] and [`Policy::ChannelFsm`]), plus the
//!   [`ThreadRuntime`] thread-per-process baseline standing in for Akka;
//! * [`savina`] — the seven Savina-derived benchmarks of Fig. 8, with
//!   built-in validation.
//!
//! ## Example
//!
//! ```
//! use runtime::{new_actor, EffpiRuntime, Msg, Policy, Proc, Scheduler};
//!
//! let (echo_ref, echo_mb) = new_actor();
//! let (client_ref, client_mb) = new_actor();
//!
//! // An echo actor: replies to the sender with the number it received.
//! let echo = echo_mb.read(|msg| match msg {
//!     Msg::Pair(n, reply) => match (n.as_int(), reply.as_chan()) {
//!         (Some(n), Some(reply)) => Proc::send_end(&reply, Msg::Int(n)),
//!         _ => Proc::End,
//!     },
//!     _ => Proc::End,
//! });
//! let client = echo_ref.tell(
//!     Msg::pair(Msg::Int(41), Msg::Chan(client_ref.channel())),
//!     move || client_mb.read(|_reply| Proc::End),
//! );
//!
//! let stats = EffpiRuntime::new(Policy::ChannelFsm).run(vec![echo, client]);
//! assert_eq!(stats.messages_sent, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod channel;
mod msg;
mod process;
mod sched;

pub mod savina;

pub use actor::{forever, new_actor, ActorRef, Mailbox};
pub use channel::ChanRef;
pub use msg::Msg;
pub use process::Proc;
pub use sched::{EffpiRuntime, Policy, RunStats, Scheduler, ThreadRuntime};
