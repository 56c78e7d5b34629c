//! A thin actor layer over channels, mirroring Effpi's simplified actor API
//! (§5.1): an actor is a process with a unique input channel (its *mailbox*);
//! other processes address it through an [`ActorRef`], which is just the
//! output endpoint of that channel (the runtime counterpart of the `co[T]`
//! typing of actor references).

use std::sync::Arc;

use crate::channel::ChanRef;
use crate::msg::Msg;
use crate::process::Proc;

/// The sending endpoint of an actor's mailbox (an `ActorRef` in Akka/Effpi
/// terms; typed `co[T]` at the λπ⩽ level).
#[derive(Clone, Debug)]
pub struct ActorRef {
    chan: ChanRef,
}

/// The receiving endpoint of an actor's mailbox (typed `ci[T]` at the λπ⩽
/// level); held only by the actor itself.
#[derive(Clone, Debug)]
pub struct Mailbox {
    chan: ChanRef,
}

/// Creates a fresh mailbox and its associated actor reference.
pub fn new_actor() -> (ActorRef, Mailbox) {
    let chan = ChanRef::new();
    (ActorRef { chan: chan.clone() }, Mailbox { chan })
}

impl ActorRef {
    /// Sends a message to the actor and continues with `then`
    /// (the `send(ref, msg) >> ...` idiom of Fig. 1).
    pub fn tell(&self, msg: Msg, then: impl FnOnce() -> Proc + Send + 'static) -> Proc {
        Proc::send(&self.chan, msg, then)
    }

    /// Sends a message and terminates.
    pub fn tell_end(&self, msg: Msg) -> Proc {
        Proc::send_end(&self.chan, msg)
    }

    /// The underlying channel (e.g. to embed the reference in a [`Msg::Chan`]).
    pub fn channel(&self) -> ChanRef {
        self.chan.clone()
    }

    /// Builds an actor reference from a raw channel (e.g. one received in a
    /// message — the channel-passing pattern of Remark 2.3).
    pub fn from_channel(chan: ChanRef) -> Self {
        ActorRef { chan }
    }
}

impl Mailbox {
    /// Reads one message from the mailbox (the `read { ... }` of Fig. 1).
    pub fn read(&self, k: impl FnOnce(Msg) -> Proc + Send + 'static) -> Proc {
        Proc::recv(&self.chan, k)
    }

    /// The underlying channel.
    pub fn channel(&self) -> ChanRef {
        self.chan.clone()
    }
}

/// The `forever { read { ... } }` combinator of Fig. 1: handles messages one
/// at a time, forever. The handler receives the message and a thunk producing
/// the "loop again" process, which it must include in the process it returns
/// (e.g. as the continuation of its last send).
pub fn forever<F>(mailbox: Mailbox, handler: F) -> Proc
where
    F: Fn(Msg, Box<dyn FnOnce() -> Proc + Send + 'static>) -> Proc + Send + Sync + 'static,
{
    forever_inner(mailbox, Arc::new(handler))
}

fn forever_inner<F>(mailbox: Mailbox, handler: Arc<F>) -> Proc
where
    F: Fn(Msg, Box<dyn FnOnce() -> Proc + Send + 'static>) -> Proc + Send + Sync + 'static,
{
    let mb = mailbox.clone();
    let h = Arc::clone(&handler);
    mailbox.read(move |msg| {
        let again: Box<dyn FnOnce() -> Proc + Send + 'static> = {
            let mb = mb.clone();
            let h = Arc::clone(&h);
            Box::new(move || forever_inner(mb, h))
        };
        h(msg, again)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{EffpiRuntime, Policy, Scheduler};
    use std::sync::atomic::{AtomicI64, Ordering};

    #[test]
    fn tell_and_read_round_trip() {
        let rt = EffpiRuntime::with_workers(Policy::Default, 2);
        let (aref, mailbox) = new_actor();
        let got = Arc::new(AtomicI64::new(0));
        let got2 = Arc::clone(&got);
        let actor = mailbox.read(move |msg| {
            got2.store(msg.as_int().unwrap_or(-1), Ordering::SeqCst);
            Proc::End
        });
        rt.run(vec![actor, aref.tell_end(Msg::Int(3))]);
        assert_eq!(got.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn forever_handles_a_stream_of_messages_until_told_to_stop() {
        let rt = EffpiRuntime::with_workers(Policy::ChannelFsm, 2);
        let (aref, mailbox) = new_actor();
        let sum = Arc::new(AtomicI64::new(0));
        let sum2 = Arc::clone(&sum);
        let service = forever(mailbox, move |msg, again| match msg {
            Msg::Int(n) => {
                sum2.fetch_add(n, Ordering::SeqCst);
                again()
            }
            _ => Proc::End,
        });
        // Send 1..=10 then a stop signal.
        fn sender(aref: ActorRef, i: i64) -> Proc {
            if i > 10 {
                return aref.tell_end(Msg::Unit);
            }
            let next = aref.clone();
            aref.tell(Msg::Int(i), move || sender(next, i + 1))
        }
        rt.run(vec![service, sender(aref, 1)]);
        assert_eq!(sum.load(Ordering::SeqCst), 55);
    }

    #[test]
    fn actor_references_travel_in_messages() {
        // The ping-pong pattern of Remark 2.3: the pinger sends its own
        // reference, the ponger replies on it.
        let rt = EffpiRuntime::with_workers(Policy::Default, 2);
        let (pong_ref, pong_mb) = new_actor();
        let (ping_ref, ping_mb) = new_actor();
        let replied = Arc::new(AtomicI64::new(0));
        let replied2 = Arc::clone(&replied);

        let ponger = pong_mb.read(|msg| match msg.as_chan() {
            Some(reply_to) => ActorRef::from_channel(reply_to).tell_end(Msg::Str("Hi!")),
            None => Proc::End,
        });
        let pinger = pong_ref.tell(Msg::Chan(ping_ref.channel()), move || {
            ping_mb.read(move |_reply| {
                replied2.store(1, Ordering::SeqCst);
                Proc::End
            })
        });
        rt.run(vec![ponger, pinger]);
        assert_eq!(replied.load(Ordering::SeqCst), 1);
    }
}
