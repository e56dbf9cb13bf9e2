//! The in-memory message fabric.
//!
//! One mailbox per rank, guarded by a `parking_lot` mutex + condvar pair
//! (see *Rust Atomics and Locks* ch. 5 for the pattern). Sends never
//! block; receives block with a timeout and support `(src, tag)` matching
//! with out-of-order buffering, like MPI's unexpected-message queue.
//!
//! # Wake protocol
//!
//! A mailbox has exactly one receiver, its owning rank, and a send wakes
//! that receiver only for the message it is blocked on:
//!
//! * before a receive waits, it records the `(src, tag)` it is waiting
//!   for in the mailbox, under the mailbox lock, and it clears the record
//!   under the same lock on every exit (match, [`MpiError::FabricDead`]
//!   or [`MpiError::RecvTimeout`]);
//! * a send pushes its envelope and reads the record under the lock, then
//!   calls `notify_one` *after* unlocking, and only if the record names
//!   its `(src, tag)`. Messages the receiver is not waiting for are only
//!   buffered: no syscall, no wake-up, no lock hand-off.
//!
//! No wake-up is lost. The receiver checks its queue and sets the record
//! in one critical section, and the condvar wait releases the lock
//! atomically with blocking. A sender that pushes the awaited message
//! therefore either runs before that critical section (the receiver
//! finds the message and never waits) or after it (the sender reads the
//! record and notifies a receiver that is already waiting). A stale
//! notify that lands after the receiver moved on is a spurious wake-up,
//! which the receive loop absorbs by re-checking its queue.
//!
//! When a rank dies, the fabric is *poisoned*: every pending and future
//! receive fails fast with [`MpiError::FabricDead`], so one rank's crash
//! tears the whole job down instead of hanging it — the behaviour of
//! `MPI_Abort`. Poisoning wakes every receiver whatever it waits for.

use crate::error::MpiError;
use crate::payload::Payload;
use parking_lot::{Condvar, Mutex};
#[cfg(feature = "obs")]
use resilim_obs as obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Count a delivered (matched) message. Taint scanning only happens with
/// the recorder on, so the disabled path never touches the payload.
#[cfg(feature = "obs")]
fn note_recv(payload: &Payload) {
    if obs::enabled() {
        obs::count(obs::Counter::MsgsRecvd, 1);
        obs::count(
            obs::Counter::TaintedElemsRecvd,
            payload.tainted_elems() as u64,
        );
    }
}

/// A planned wire fault (`--fault-model msg`): flip `bit` of one element
/// of the `msg_index`-th numeric message sent by rank `src`.
///
/// The corruption happens *on the wire*: the sender's replica compare
/// point ([`resilim_inject::ctx::note_msg_send`]) sees the payload before
/// the flip, so only the receiver can observe it. The element is selected
/// as `elem_sel % len`, so one uniform draw covers payloads of any length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgFault {
    /// Sending rank whose message is corrupted.
    pub src: usize,
    /// Zero-based index among that rank's numeric sends.
    pub msg_index: u64,
    /// Element selector, reduced modulo the payload length.
    pub elem_sel: u64,
    /// Bit to flip in the element's IEEE-754 representation (0..64).
    pub bit: u8,
}

/// A message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload.
    pub payload: Payload,
}

/// A mailbox's lock-protected state.
struct Inbox {
    /// Buffered messages, in arrival order.
    queue: VecDeque<Envelope>,
    /// The `(src, tag)` the owning rank is blocked on, if it is blocked
    /// (see the module docs' wake protocol).
    waiting: Option<(usize, u64)>,
}

impl Inbox {
    /// Remove the first buffered message from `src` with `tag`.
    fn take(&mut self, src: usize, tag: u64) -> Option<Payload> {
        let pos = self
            .queue
            .iter()
            .position(|e| e.src == src && e.tag == tag)?;
        self.queue.remove(pos).map(|e| e.payload)
    }
}

struct Mailbox {
    inbox: Mutex<Inbox>,
    arrived: Condvar,
}

/// The shared fabric connecting all ranks of one [`World`](crate::World)
/// run.
pub struct Fabric {
    boxes: Vec<Mailbox>,
    dead: AtomicBool,
    timeout: Duration,
    msg_fault: Option<MsgFault>,
}

impl Fabric {
    /// A fabric for `size` ranks with the given receive timeout.
    pub fn new(size: usize, timeout: Duration) -> Fabric {
        Fabric::with_fault(size, timeout, None)
    }

    /// A fabric with an armed wire fault (see [`MsgFault`]).
    pub fn with_fault(size: usize, timeout: Duration, msg_fault: Option<MsgFault>) -> Fabric {
        Fabric {
            boxes: (0..size)
                .map(|_| Mailbox {
                    inbox: Mutex::new(Inbox {
                        queue: VecDeque::new(),
                        waiting: None,
                    }),
                    arrived: Condvar::new(),
                })
                .collect(),
            dead: AtomicBool::new(false),
            timeout,
            msg_fault,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the fabric has been poisoned.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Poison the fabric and wake every waiting receiver.
    pub fn poison(&self) {
        self.dead.store(true, Ordering::Release);
        for mb in &self.boxes {
            // Acquire the lock so a receiver between its dead-check and its
            // wait cannot miss the wake-up.
            let _guard = mb.inbox.lock();
            mb.arrived.notify_all();
        }
    }

    /// Route an outgoing payload through the sender-side hooks: count the
    /// numeric send into the rank's profile (and replica-compare it), then
    /// apply the armed wire fault if this is its message. Order matters —
    /// the replica compare must see the pre-corruption payload.
    fn outbound(&self, src: usize, payload: Payload) -> Payload {
        match payload {
            Payload::F64(mut values) => {
                let idx = resilim_inject::ctx::note_msg_send(&values);
                if let (Some(idx), Some(fault)) = (idx, self.msg_fault) {
                    if fault.src == src && fault.msg_index == idx && !values.is_empty() {
                        let e = (fault.elem_sel % values.len() as u64) as usize;
                        let v = values[e];
                        let corrupted =
                            f64::from_bits(v.value().to_bits() ^ (1u64 << (fault.bit & 63)));
                        values[e] = resilim_inject::Tf64::from_parts(corrupted, v.shadow());
                        resilim_inject::ctx::note_wire_fired(idx, fault.bit & 63);
                    }
                }
                Payload::F64(values)
            }
            p => p,
        }
    }

    /// Deliver a message to `dst`'s mailbox. Never blocks.
    pub fn send(&self, src: usize, dst: usize, tag: u64, payload: Payload) -> Result<(), MpiError> {
        if self.is_dead() {
            return Err(MpiError::FabricDead);
        }
        let mb = self.boxes.get(dst).ok_or(MpiError::InvalidRank {
            rank: dst,
            size: self.size(),
        })?;
        let payload = self.outbound(src, payload);
        #[cfg(feature = "obs")]
        if obs::enabled() {
            obs::count(obs::Counter::MsgsSent, 1);
            obs::count(obs::Counter::BytesSent, payload.wire_bytes() as u64);
        }
        let wake = {
            let mut inbox = mb.inbox.lock();
            inbox.queue.push_back(Envelope { src, tag, payload });
            inbox.waiting == Some((src, tag))
        };
        if wake {
            mb.arrived.notify_one();
        }
        Ok(())
    }

    /// Blocking receive of the first message matching `(src, tag)` in
    /// `me`'s mailbox. Non-matching messages stay buffered. Only rank `me`
    /// may receive from its mailbox (the wake protocol has one waiter).
    pub fn recv(&self, me: usize, src: usize, tag: u64) -> Result<Payload, MpiError> {
        let mb = self.boxes.get(me).ok_or(MpiError::InvalidRank {
            rank: me,
            size: self.size(),
        })?;
        let mut inbox = mb.inbox.lock();
        debug_assert!(
            inbox.waiting.is_none(),
            "two receivers on rank {me}'s mailbox"
        );
        let mut deadline = None;
        let mut timed_out = false;
        let result = loop {
            if let Some(payload) = inbox.take(src, tag) {
                break Ok(payload);
            }
            if self.is_dead() {
                break Err(MpiError::FabricDead);
            }
            // A wait that timed out still re-checks the queue and the
            // poison flag above: the message may have raced the deadline.
            if timed_out {
                break Err(MpiError::RecvTimeout { rank: me, src, tag });
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.timeout);
            inbox.waiting = Some((src, tag));
            #[cfg(feature = "obs")]
            obs::count(obs::Counter::RecvWaits, 1);
            timed_out = mb.arrived.wait_until(&mut inbox, deadline).timed_out();
        };
        inbox.waiting = None;
        drop(inbox);
        #[cfg(feature = "obs")]
        if let Ok(payload) = &result {
            note_recv(payload);
        }
        result
    }

    /// Number of buffered (undelivered) messages across all mailboxes.
    /// Useful for leak checks in tests: a clean SPMD program ends with an
    /// empty fabric.
    pub fn pending_messages(&self) -> usize {
        self.boxes
            .iter()
            .map(|mb| mb.inbox.lock().queue.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilim_inject::Tf64;
    use std::sync::Arc;
    use std::time::Duration;

    fn fabric(n: usize) -> Arc<Fabric> {
        Arc::new(Fabric::new(n, Duration::from_millis(200)))
    }

    #[test]
    fn send_then_recv() {
        let f = fabric(2);
        f.send(0, 1, 7, Payload::F64(vec![Tf64::new(1.5)])).unwrap();
        let p = f.recv(1, 0, 7).unwrap();
        assert_eq!(p.into_f64().unwrap()[0].value(), 1.5);
        assert_eq!(f.pending_messages(), 0);
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let f = fabric(2);
        f.send(0, 1, 1, Payload::Bytes(vec![1])).unwrap();
        f.send(0, 1, 2, Payload::Bytes(vec![2])).unwrap();
        // Receive tag 2 first; tag 1 stays buffered.
        assert_eq!(f.recv(1, 0, 2).unwrap().into_bytes().unwrap(), vec![2]);
        assert_eq!(f.recv(1, 0, 1).unwrap().into_bytes().unwrap(), vec![1]);
    }

    #[test]
    fn src_matching() {
        let f = fabric(3);
        f.send(2, 0, 9, Payload::Bytes(vec![2])).unwrap();
        f.send(1, 0, 9, Payload::Bytes(vec![1])).unwrap();
        assert_eq!(f.recv(0, 1, 9).unwrap().into_bytes().unwrap(), vec![1]);
        assert_eq!(f.recv(0, 2, 9).unwrap().into_bytes().unwrap(), vec![2]);
    }

    #[test]
    fn recv_timeout() {
        let f = Arc::new(Fabric::new(2, Duration::from_millis(30)));
        let err = f.recv(0, 1, 0).unwrap_err();
        assert!(matches!(
            err,
            MpiError::RecvTimeout {
                rank: 0,
                src: 1,
                tag: 0
            }
        ));
    }

    #[test]
    fn recv_across_threads() {
        let f = fabric(2);
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || f2.recv(1, 0, 5));
        std::thread::sleep(Duration::from_millis(20));
        f.send(0, 1, 5, Payload::Bytes(vec![42])).unwrap();
        assert_eq!(h.join().unwrap().unwrap().into_bytes().unwrap(), vec![42]);
    }

    #[test]
    fn poison_wakes_receivers() {
        let f = Arc::new(Fabric::new(2, Duration::from_secs(10)));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || f2.recv(1, 0, 5));
        std::thread::sleep(Duration::from_millis(20));
        f.poison();
        assert!(matches!(
            h.join().unwrap().unwrap_err(),
            MpiError::FabricDead
        ));
        assert!(f.send(0, 1, 5, Payload::Bytes(vec![])).is_err());
    }

    /// A message that lands while the receiver's wait is timing out is
    /// delivered, and counted like any other: the test holds the inbox
    /// lock across the deadline, pushes the message, and only then lets
    /// the timed-out receiver re-acquire the lock.
    #[cfg(feature = "obs")]
    #[test]
    fn message_racing_the_deadline_is_delivered_and_counted() {
        const TAINTED: usize = 4096;
        let f = Arc::new(Fabric::new(2, Duration::from_millis(40)));
        let was_enabled = obs::enabled();
        obs::set_enabled(true);
        let before = obs::MetricsSnapshot::capture();
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || f2.recv(1, 0, 5));
        while f.boxes[1].inbox.lock().waiting.is_none() {
            std::thread::yield_now();
        }
        {
            let mut inbox = f.boxes[1].inbox.lock();
            // Past the receiver's deadline: its wait has timed out and is
            // now blocked re-acquiring this lock.
            std::thread::sleep(Duration::from_millis(120));
            let values = (0..TAINTED)
                .map(|i| Tf64::from_parts(i as f64 + 0.5, i as f64))
                .collect();
            inbox.queue.push_back(Envelope {
                src: 0,
                tag: 5,
                payload: Payload::F64(values),
            });
        }
        let got = h.join().unwrap().expect("raced message is delivered");
        let d = obs::MetricsSnapshot::capture().delta(&before);
        obs::set_enabled(was_enabled);
        assert_eq!(got.tainted_elems(), TAINTED);
        assert_eq!(f.pending_messages(), 0);
        // Other unit tests may pass messages while the recorder is on, so
        // the counters are lower bounds; this message alone is `TAINTED`.
        assert!(d.counter(obs::Counter::MsgsRecvd) >= 1);
        assert!(d.counter(obs::Counter::TaintedElemsRecvd) >= TAINTED as u64);
        assert!(f.boxes[1].inbox.lock().waiting.is_none());
    }

    #[test]
    fn invalid_rank() {
        let f = fabric(2);
        assert!(matches!(
            f.send(0, 5, 0, Payload::Bytes(vec![])),
            Err(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
    }

    #[test]
    fn armed_wire_fault_corrupts_the_indexed_message_only() {
        use resilim_inject::{ctx, RankCtx};
        let fault = MsgFault {
            src: 0,
            msg_index: 1,
            elem_sel: 5,
            bit: 52,
        };
        let f = Arc::new(Fabric::with_fault(
            2,
            Duration::from_millis(200),
            Some(fault),
        ));
        let prev = ctx::install(RankCtx::profiling(0));
        assert!(prev.is_none(), "leaked context from another test");
        let msg = || Payload::F64(vec![Tf64::new(1.0), Tf64::new(2.0)]);
        f.send(0, 1, 0, msg()).unwrap(); // send 0: clean
        f.send(0, 1, 1, msg()).unwrap(); // send 1: corrupted on the wire
        f.send(0, 1, 2, Payload::Bytes(vec![9])).unwrap(); // not numeric: uncounted
        let report = ctx::take().unwrap().into_report();
        assert_eq!(report.profile.msgs_sent, 2);
        assert_eq!(report.wire_fired, 1);
        // The sender never saw the corruption (it happened on the wire).
        assert!(!report.detected);

        let clean = f.recv(1, 0, 0).unwrap().into_f64().unwrap();
        assert!(clean.iter().all(|v| !v.is_tainted()));
        let bad = f.recv(1, 0, 1).unwrap().into_f64().unwrap();
        // elem_sel 5 % len 2 = element 1; shadow keeps the true value.
        assert!(!bad[0].is_tainted());
        assert!(bad[1].is_tainted());
        assert_eq!(bad[1].shadow(), 2.0);
        assert_eq!(bad[1].value(), f64::from_bits(2.0f64.to_bits() ^ (1 << 52)));
    }

    #[test]
    fn wire_fault_without_context_stays_unarmed() {
        // Golden (profiling-free) sends outside a rank context must not
        // consume the fault: there is no message index to match.
        let fault = MsgFault {
            src: 0,
            msg_index: 0,
            elem_sel: 0,
            bit: 52,
        };
        let f = Arc::new(Fabric::with_fault(
            2,
            Duration::from_millis(200),
            Some(fault),
        ));
        f.send(0, 1, 0, Payload::F64(vec![Tf64::new(1.0)])).unwrap();
        let p = f.recv(1, 0, 0).unwrap().into_f64().unwrap();
        assert!(!p[0].is_tainted());
    }
}
