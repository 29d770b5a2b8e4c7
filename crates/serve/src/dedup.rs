//! In-flight request deduplication.
//!
//! A thundering herd of identical requests — the wire protocol's duplicate
//! storm, or a batch that repeats one kernel across many grid points —
//! should cost one simulation, not N.  The [`PendingMap`] coalesces them:
//! the first submission of a canonical hash claims *leadership* and runs
//! the simulation; every concurrent submission of the same hash becomes a
//! *follower* that blocks on the leader's pending slot and receives a
//! clone of the leader's result (bit-identical report, or the same error).
//!
//! The map holds only in-flight keys: the leader removes its slot when it
//! publishes, so completed requests leave no residue (the report cache is
//! the long-lived store).

use engine::{EngineError, SimReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

type Outcome = Result<SimReport, EngineError>;

/// One in-flight simulation: followers block on `done` until the leader
/// publishes into `result`.
struct Slot {
    result: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl Slot {
    fn publish(&self, outcome: Outcome) {
        let mut result = self.result.lock().expect("slot not poisoned");
        *result = Some(outcome);
        self.done.notify_all();
    }
}

type SlotMap = Arc<Mutex<HashMap<u128, Arc<Slot>>>>;

/// The leader's obligation to publish: consumed by [`PendingMap::complete`].
/// Dropping it unpublished (a leader unwinding past the service's panic
/// boundary) still removes the in-flight slot and wakes followers, with an
/// error instead of leaving them blocked forever.
pub struct LeaderToken {
    key: u128,
    slot: Arc<Slot>,
    slots: SlotMap,
    published: bool,
}

impl LeaderToken {
    fn publish(&mut self, outcome: Outcome) {
        {
            let mut slots = self.slots.lock().expect("pending map not poisoned");
            slots.remove(&self.key);
        }
        self.slot.publish(outcome);
        self.published = true;
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        if !self.published {
            self.publish(Err(EngineError::Panicked(
                "the serving worker aborted before publishing a result".to_string(),
            )));
        }
    }
}

/// What a submission got from the pending map.
pub enum Claim {
    /// No identical request is in flight: the caller must simulate and
    /// [`complete`](PendingMap::complete) the token.
    Leader(LeaderToken),
    /// An identical request is in flight: the caller should
    /// [`wait`](Follower::wait).
    Follower(Follower),
}

/// A handle on another submission's in-flight simulation.
pub struct Follower {
    slot: Arc<Slot>,
}

impl Follower {
    /// Blocks until the leader publishes, then returns a clone of its
    /// outcome.
    pub fn wait(self) -> Outcome {
        let mut result = self.slot.result.lock().expect("slot not poisoned");
        loop {
            if let Some(outcome) = result.as_ref() {
                return outcome.clone();
            }
            result = self.slot.done.wait(result).expect("slot not poisoned");
        }
    }
}

/// The map of in-flight canonical hashes.
pub struct PendingMap {
    slots: SlotMap,
    coalesced: AtomicU64,
}

impl PendingMap {
    /// An empty map.
    pub fn new() -> Self {
        PendingMap {
            slots: Arc::new(Mutex::new(HashMap::new())),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Claims `key`: leadership if no identical request is in flight,
    /// otherwise a follower handle on the one that is.  The coalesced
    /// counter is incremented *before* this returns a follower, so a
    /// leader can observe how many submissions are already waiting on it.
    pub fn claim(&self, key: u128) -> Claim {
        let mut slots = self.slots.lock().expect("pending map not poisoned");
        if let Some(slot) = slots.get(&key) {
            let follower = Follower { slot: slot.clone() };
            self.coalesced.fetch_add(1, Ordering::SeqCst);
            return Claim::Follower(follower);
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        slots.insert(key, slot.clone());
        Claim::Leader(LeaderToken {
            key,
            slot,
            slots: self.slots.clone(),
            published: false,
        })
    }

    /// Publishes the leader's outcome: removes the in-flight slot (later
    /// submissions of the key claim fresh leadership — by then the report
    /// cache answers them) and wakes every follower with a clone.
    pub fn complete(&self, mut token: LeaderToken, outcome: Outcome) {
        token.publish(outcome);
    }

    /// Number of submissions that coalesced onto another request's
    /// in-flight simulation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::SeqCst)
    }

    /// Number of keys currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.lock().expect("pending map not poisoned").len()
    }
}

impl Default for PendingMap {
    fn default() -> Self {
        PendingMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn error(tag: &str) -> EngineError {
        EngineError::InvalidOptions(tag.to_string())
    }

    #[test]
    fn leader_then_followers_then_release() {
        let map = Arc::new(PendingMap::new());
        let Claim::Leader(token) = map.claim(7) else {
            panic!("first claim must lead");
        };
        const FOLLOWERS: usize = 4;
        let arrived = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..FOLLOWERS)
            .map(|_| {
                let map = map.clone();
                let arrived = arrived.clone();
                thread::spawn(move || {
                    let Claim::Follower(follower) = map.claim(7) else {
                        panic!("in-flight claims must follow");
                    };
                    arrived.fetch_add(1, Ordering::SeqCst);
                    follower.wait()
                })
            })
            .collect();
        // Coalescing is counted at claim time, so the leader can wait for
        // every follower to be parked before publishing.
        while map.coalesced() < FOLLOWERS as u64 {
            thread::yield_now();
        }
        map.complete(token, Err(error("published")));
        for handle in handles {
            let outcome = handle.join().expect("follower thread");
            assert_eq!(outcome.unwrap_err(), error("published"));
        }
        assert_eq!(map.coalesced(), FOLLOWERS as u64);
        assert_eq!(map.in_flight(), 0);
    }

    #[test]
    fn completion_frees_the_key() {
        let map = PendingMap::new();
        let Claim::Leader(token) = map.claim(1) else {
            panic!()
        };
        map.complete(token, Err(error("done")));
        assert!(matches!(map.claim(1), Claim::Leader(_)));
    }

    #[test]
    fn dropped_leadership_unblocks_followers() {
        let map = Arc::new(PendingMap::new());
        let Claim::Leader(token) = map.claim(9) else {
            panic!()
        };
        let Claim::Follower(follower) = map.claim(9) else {
            panic!()
        };
        drop(token);
        let outcome = follower.wait();
        assert!(matches!(outcome, Err(EngineError::Panicked(_))));
        // The aborted leadership must not wedge the key.
        assert_eq!(map.in_flight(), 0);
        assert!(matches!(map.claim(9), Claim::Leader(_)));
    }
}
