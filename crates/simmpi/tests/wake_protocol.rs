//! The fabric's directed-wakeup protocol: a send wakes a blocked receiver
//! only when it carries the `(src, tag)` that receiver waits for, and no
//! wake-up is ever lost.
//!
//! A lost wake-up would leave a receiver blocked until its timeout, so
//! the stress test runs with a short `recv_timeout`: a lost wake-up fails
//! loudly as `RecvTimeout` instead of hanging.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resilim_simmpi::fabric::Fabric;
use resilim_simmpi::{MpiError, Payload};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests in this file: the obs recorder is process-global,
/// so a test counting `RecvWaits` must not see another test's waits.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A receiver's expected messages from one `(src, tag)`, in send order.
type Group = ((usize, u64), Vec<Vec<u8>>);

/// One message of the stress plan, identified by its payload.
fn body(round: usize, src: usize, k: usize) -> Vec<u8> {
    [round as u64, src as u64, k as u64]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect()
}

/// Every rank, round by round, sends a random batch of messages to
/// random peers and then receives its own incoming messages of that round
/// in a random `(src, tag)` order. Fast ranks run ahead into later rounds,
/// so receivers see messages of other rounds and tags arrive while they
/// wait; tags repeat within a round, so same-`(src, tag)` messages must
/// also keep their send order.
fn stress(ranks: usize, rounds: usize, seed: u64) {
    // plan[round][src] = (dst, tag) of every message src sends that round.
    let mut rng = SmallRng::seed_from_u64(seed);
    let plan: Vec<Vec<Vec<(usize, u64)>>> = (0..rounds)
        .map(|round| {
            (0..ranks)
                .map(|_| {
                    (0..rng.gen_range(0..6usize))
                        .map(|_| {
                            let dst = rng.gen_range(0..ranks);
                            (dst, (round * 4 + rng.gen_range(0..3usize)) as u64)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let fabric = Fabric::new(ranks, Duration::from_secs(2));
    std::thread::scope(|scope| {
        for me in 0..ranks {
            let (plan, fabric) = (&plan, &fabric);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ ((me as u64 + 1) << 32));
                for (round, sends) in plan.iter().enumerate() {
                    for (k, &(dst, tag)) in sends[me].iter().enumerate() {
                        fabric
                            .send(me, dst, tag, Payload::Bytes(body(round, me, k)))
                            .unwrap();
                    }
                    // Incoming messages grouped by (src, tag), each group
                    // in send order; the groups are drained shuffled.
                    let mut groups: Vec<Group> = Vec::new();
                    for (src, msgs) in sends.iter().enumerate() {
                        for (k, &(dst, tag)) in msgs.iter().enumerate() {
                            if dst != me {
                                continue;
                            }
                            match groups.iter_mut().find(|(key, _)| *key == (src, tag)) {
                                Some((_, bodies)) => bodies.push(body(round, src, k)),
                                None => groups.push(((src, tag), vec![body(round, src, k)])),
                            }
                        }
                    }
                    shuffle(&mut groups, &mut rng);
                    for ((src, tag), bodies) in groups {
                        for want in bodies {
                            let got = fabric
                                .recv(me, src, tag)
                                .unwrap_or_else(|e| {
                                    panic!("rank {me} round {round} ({src}, {tag}): {e}")
                                })
                                .into_bytes()
                                .unwrap();
                            assert_eq!(got, want, "rank {me} round {round} ({src}, {tag})");
                        }
                    }
                }
            });
        }
    });
    assert_eq!(fabric.pending_messages(), 0, "every message was received");
}

#[test]
fn no_wakeup_is_lost_under_out_of_order_traffic() {
    let _serial = serial();
    for seed in 0..4 {
        stress(24, 40, 0x5eed + seed);
    }
}

#[test]
fn poison_wakes_every_blocked_receiver() {
    let _serial = serial();
    let ranks = 16;
    let fabric = Fabric::new(ranks, Duration::from_secs(60));
    let start = Instant::now();
    std::thread::scope(|scope| {
        let receivers: Vec<_> = (1..ranks)
            .map(|me| {
                let fabric = &fabric;
                // Each waits for a message nobody sends.
                scope.spawn(move || fabric.recv(me, 0, 1000 + me as u64))
            })
            .collect();
        // Traffic the receivers are not waiting for neither wakes nor
        // satisfies them.
        for dst in 1..ranks {
            fabric.send(0, dst, 7, Payload::Bytes(vec![1])).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        fabric.poison();
        for h in receivers {
            assert!(matches!(h.join().unwrap(), Err(MpiError::FabricDead)));
        }
    });
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "poison must wake receivers long before their timeout"
    );
    // A receive that starts after the poison fails fast too.
    assert!(matches!(fabric.recv(0, 1, 0), Err(MpiError::FabricDead)));
}

#[test]
fn unawaited_traffic_does_not_end_a_wait() {
    let _serial = serial();
    let fabric = Fabric::new(3, Duration::from_millis(150));
    std::thread::scope(|scope| {
        let waiter = scope.spawn(|| fabric.recv(0, 1, 9));
        for tag in 0..9 {
            fabric
                .send(1, 0, tag, Payload::Bytes(vec![tag as u8]))
                .unwrap();
            fabric.send(2, 0, 9, Payload::Bytes(vec![2])).unwrap();
        }
        assert!(matches!(
            waiter.join().unwrap(),
            Err(MpiError::RecvTimeout {
                rank: 0,
                src: 1,
                tag: 9
            })
        ));
    });
    // Everything stayed buffered, in order, for later receives.
    assert_eq!(fabric.pending_messages(), 18);
    for tag in 0..9 {
        let got = fabric.recv(0, 1, tag).unwrap().into_bytes().unwrap();
        assert_eq!(got, vec![tag as u8]);
    }
}

/// A gather root blocks on rank 1 while ranks 2..p-1 post their
/// contributions; only rank 1's message wakes it, so it blocks exactly
/// once for the whole gather.
#[cfg(feature = "obs")]
#[test]
fn gather_root_blocks_once_when_rank_one_posts_last() {
    use resilim_inject::Tf64;
    use resilim_obs as obs;
    use resilim_simmpi::Comm;
    let _serial = serial();
    let p = 16;
    let fabric = Fabric::new(p, Duration::from_secs(30));
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    let before = obs::MetricsSnapshot::capture();
    let waits = || {
        obs::MetricsSnapshot::capture()
            .delta(&before)
            .counter(obs::Counter::RecvWaits)
    };
    let gathered = std::thread::scope(|scope| {
        let root = scope.spawn(|| Comm::new(0, &fabric).gather(0, &[Tf64::new(0.0)]));
        // The root has recorded what it waits for and is blocking on it.
        let start = Instant::now();
        while waits() == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "root never blocked"
            );
            std::thread::yield_now();
        }
        for r in 2..p {
            let sent = Comm::new(r, &fabric).gather(0, &[Tf64::new(r as f64)]);
            assert!(sent.is_none());
        }
        // Give a wrongly woken root time to wake and block again.
        std::thread::sleep(Duration::from_millis(20));
        assert!(Comm::new(1, &fabric).gather(0, &[Tf64::new(1.0)]).is_none());
        root.join().unwrap().expect("root gathers")
    });
    let d = obs::MetricsSnapshot::capture().delta(&before);
    obs::set_enabled(was_enabled);
    for (r, v) in gathered.iter().enumerate() {
        assert_eq!(v[0].value(), r as f64, "rank-indexed");
    }
    assert_eq!(d.counter(obs::Counter::RecvWaits), 1);
    assert_eq!(d.counter(obs::Counter::MsgsRecvd), (p - 1) as u64);
    assert_eq!(fabric.pending_messages(), 0);
}
