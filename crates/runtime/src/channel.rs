//! Runtime channels.
//!
//! A [`ChanRef`] is a cheap, clonable reference to a buffered (asynchronous)
//! channel, playing the role of both λπ⩽ channel instances and Effpi actor
//! mailboxes / `ActorRef`s. The same channel supports the two execution modes
//! of this crate:
//!
//! * the Effpi-style schedulers park a *continuation* on an empty channel and
//!   resume it when a message arrives (non-blocking, millions of channels are
//!   fine);
//! * the thread-per-process baseline blocks the calling OS thread on a
//!   condition variable.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::sync::{Condvar, Mutex};

use crate::msg::Msg;

/// A continuation waiting for a message on a channel (used by the Effpi-style
/// schedulers).
pub type Waiter = Box<dyn FnOnce(Msg) -> crate::process::Proc + Send + 'static>;

static NEXT_CHANNEL_ID: AtomicU64 = AtomicU64::new(0);

#[derive(Default)]
pub(crate) struct ChanState {
    pub(crate) queue: VecDeque<Msg>,
    pub(crate) waiters: Vec<Waiter>,
}

pub(crate) struct ChanInner {
    pub(crate) id: u64,
    pub(crate) state: Mutex<ChanState>,
    pub(crate) ready: Condvar,
}

/// A reference to a runtime channel (or, seen through the actor API, to an
/// actor's mailbox).
///
/// Cloning a `ChanRef` is cheap and yields a reference to the *same* channel.
#[derive(Clone)]
pub struct ChanRef {
    inner: Arc<ChanInner>,
}

impl Default for ChanRef {
    fn default() -> Self {
        Self::new()
    }
}

impl ChanRef {
    /// Creates a fresh, empty channel.
    pub fn new() -> Self {
        ChanRef {
            inner: Arc::new(ChanInner {
                id: NEXT_CHANNEL_ID.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(ChanState::default()),
                ready: Condvar::new(),
            }),
        }
    }

    /// A unique identifier for the channel (stable across clones).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Returns `true` if both references point to the same channel.
    pub fn same_channel(&self, other: &ChanRef) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of buffered (not yet consumed) messages.
    pub fn pending(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    // ----- operations used by the Effpi-style (continuation) schedulers -----

    /// Delivers a message: if a continuation is parked on the channel it is
    /// handed the message and returned to the caller (to be scheduled),
    /// otherwise the message is buffered and `None` is returned.
    pub(crate) fn deliver(&self, msg: Msg) -> Option<(Waiter, Msg)> {
        let mut st = self.inner.state.lock();
        match st.waiters.pop() {
            Some(w) => Some((w, msg)),
            None => {
                st.queue.push_back(msg);
                None
            }
        }
    }

    /// Tries to take a buffered message; if none is available, parks the given
    /// continuation on the channel and returns `None`.
    pub(crate) fn take_or_park(&self, k: Waiter) -> Option<(Waiter, Msg)> {
        let mut st = self.inner.state.lock();
        match st.queue.pop_front() {
            Some(msg) => Some((k, msg)),
            None => {
                st.waiters.push(k);
                None
            }
        }
    }

    // ----- operations used by the thread-per-process baseline -----

    /// Sends a message, waking one blocked receiver if any.
    pub(crate) fn blocking_send(&self, msg: Msg) {
        let mut st = self.inner.state.lock();
        st.queue.push_back(msg);
        drop(st);
        self.inner.ready.notify_one();
    }

    /// Receives a message, blocking the calling thread until one is available.
    pub(crate) fn blocking_recv(&self) -> Msg {
        let mut st = self.inner.state.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                return msg;
            }
            st = self.inner.ready.wait(st);
        }
    }
}

impl std::fmt::Debug for ChanRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChanRef#{}", self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Proc;

    #[test]
    fn channels_have_stable_identity() {
        let a = ChanRef::new();
        let b = a.clone();
        let c = ChanRef::new();
        assert!(a.same_channel(&b));
        assert!(!a.same_channel(&c));
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn deliver_buffers_when_no_waiter_is_parked() {
        let c = ChanRef::new();
        assert!(c.deliver(Msg::Int(1)).is_none());
        assert_eq!(c.pending(), 1);
        // A later receive picks up the buffered message immediately.
        let taken = c.take_or_park(Box::new(|_| Proc::End));
        assert!(taken.is_some());
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn take_or_park_parks_the_continuation() {
        let c = ChanRef::new();
        assert!(c.take_or_park(Box::new(|_| Proc::End)).is_none());
        // A later send hands the message to the parked continuation.
        let resumed = c.deliver(Msg::Int(9));
        assert!(resumed.is_some());
        let (_, msg) = resumed.unwrap();
        assert_eq!(msg.as_int(), Some(9));
    }

    #[test]
    fn blocking_send_and_recv_round_trip() {
        let c = ChanRef::new();
        c.blocking_send(Msg::Int(5));
        assert_eq!(c.blocking_recv().as_int(), Some(5));
    }

    #[test]
    fn blocking_recv_wakes_up_on_cross_thread_send() {
        let c = ChanRef::new();
        let c2 = c.clone();
        let handle = std::thread::spawn(move || c2.blocking_recv().as_int());
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.blocking_send(Msg::Int(11));
        assert_eq!(handle.join().unwrap(), Some(11));
    }
}
