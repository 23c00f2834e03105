//! Differential test of the timer wheel against a reference scheduler.
//!
//! The one oracle for timer order: a plain `BinaryHeap` popping strict
//! `(time, seq)` minima is obviously correct, so the wheel must agree with
//! it on *every* operation of a randomized schedule/cancel/advance stream —
//! pop order, peeked deadlines, cancel results, and lengths. That covers
//! the wheel's idle-skip refill too: on sparse schedules a pop jumps the
//! cursor across long runs of empty slots, and a jump past a pending
//! deadline shows up as a pop or peek that disagrees with the heap. (A
//! jump that stops short of the earliest deadline costs only time: the
//! cascade finishes the walk.) Streams come from
//! `shrimp-testkit` choice sources, so failures replay and shrink
//! deterministically.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use shrimp_sim::wheel::{TimerId, TimerWheel};
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};

/// The obviously-correct scheduler: a binary min-heap on `(time, seq)` with
/// lazy cancellation, mirroring the executor's pre-wheel implementation.
#[derive(Default)]
struct RefSched {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    pending: BTreeSet<u64>,
    cancelled: BTreeSet<u64>,
    next_seq: u64,
}

impl RefSched {
    fn insert(&mut self, at: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.pending.insert(seq);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        if self.pending.remove(&seq) {
            self.cancelled.insert(seq);
            true
        } else {
            false
        }
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.pending.remove(&seq);
            return Some((at, seq));
        }
        None
    }

    fn peek(&mut self) -> Option<u64> {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if self.cancelled.contains(&seq) {
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some(at);
        }
        None
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// Maps one `(selector, value)` choice pair to a deadline. The buckets pin
/// every wheel region: same-slot, low levels, sparse deadlines ~256 K ps
/// apart (so pops idle-skip across empty slots on several levels), high
/// levels, and the overflow heap (beyond the 2^36 ps horizon); small
/// absolute deadlines late in a run also land behind the cursor,
/// exercising the `pre` path.
fn deadline(selector: u64, value: u64) -> u64 {
    match selector % 5 {
        0 => value % 64,
        1 => value % 4096,
        2 => (value % 1024) << 18,
        3 => value % (1 << 36),
        _ => value % (1 << 40),
    }
}

/// Op codes: `op % 100` picks the operation, `op / 100` the deadline bucket.
const OPS: u64 = 500;

/// Runs one op stream through both schedulers, asserting agreement at every
/// step. Returns the number of operations executed.
fn run_differential(ops: &[(u64, u64)]) -> usize {
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut oracle = RefSched::default();
    // Ids of inserted timers (wheel handle + oracle seq); deliberately kept
    // after fire/cancel so stale handles are exercised too.
    let mut ids: Vec<(TimerId, u64)> = Vec::new();

    for &(op, value) in ops {
        match op % 100 {
            // Schedule (45%)
            0..=44 => {
                let at = deadline(op / 100, value);
                let id = wheel.insert(at, oracle.next_seq);
                let seq = oracle.insert(at);
                ids.push((id, seq));
                if ids.len() > 256 {
                    ids.remove(0);
                }
            }
            // Pop / advance (25%)
            45..=69 => {
                let got = wheel.pop();
                let want = oracle.pop();
                assert_eq!(
                    got,
                    want,
                    "pop disagreed after {} live timers",
                    oracle.len()
                );
            }
            // Cancel a (possibly stale) id (15%)
            70..=84 => {
                if ids.is_empty() {
                    continue;
                }
                let (id, seq) = ids[(value as usize) % ids.len()];
                let got = wheel.cancel(id);
                let want = oracle.cancel(seq);
                assert_eq!(got, want, "cancel({seq}) disagreed");
            }
            // Peek, which may advance the wheel's internal cursor without
            // firing — the hazard the `pre` heap exists for (15%)
            _ => {
                assert_eq!(wheel.peek_deadline(), oracle.peek(), "peek disagreed");
            }
        }
        assert_eq!(wheel.len(), oracle.len(), "live-count disagreed");
    }

    // Full drain must agree to the last entry.
    loop {
        let got = wheel.pop();
        let want = oracle.pop();
        assert_eq!(got, want, "drain disagreed");
        if want.is_none() {
            break;
        }
    }
    ops.len()
}

/// The headline oracle run: 6 independent choice streams of 8192 operations
/// each (49k total), covering every wheel region.
#[test]
fn wheel_matches_reference_over_49k_random_ops() {
    let mut total = 0;
    for seed in [
        0x5eed_0001u64,
        0xdead_beef,
        0x7777_1234,
        0x5eed_0002,
        0xfeed_f00d,
        0x1d1e_5c1b,
    ] {
        let mut src = Source::record(seed);
        let ops: Vec<(u64, u64)> = (0..8192)
            .map(|_| (src.draw_below(OPS), src.draw()))
            .collect();
        total += run_differential(&ops);
    }
    assert!(total >= 49_000, "ran only {total} ops");
}

/// A deterministic worst case for the refill: lone timers 2^0 ..= 2^39 ps
/// out, each popped before the next is inserted, so every pop idle-skips
/// across the widest run of empty slots its level allows, up to and past
/// the overflow horizon.
#[test]
fn lone_timers_across_maximal_gaps_agree() {
    let ops: Vec<(u64, u64)> = (0..40)
        .flat_map(|i| [(400, 1u64 << i), (50, 0)]) // insert (top bucket), then pop
        .collect();
    run_differential(&ops);
}

props! {
    cases = 32;

    /// Shrinkable version of the oracle: any small op stream keeps the wheel
    /// and the reference heap in lock-step.
    fn wheel_matches_reference(
        ops in vec_of(zip(u64_in(0..OPS), any_u64()), 1..600),
    ) {
        let n = run_differential(&ops);
        prop_assert!(n == ops.len());
    }

    /// Same-deadline bursts: heavy seq-order pressure inside single slots.
    fn same_deadline_bursts_stay_in_seq_order(
        deadlines in vec_of(u64_in(0..8), 2..200),
    ) {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut oracle = RefSched::default();
        for &d in &deadlines {
            wheel.insert(d, oracle.next_seq);
            oracle.insert(d);
        }
        let mut last: Option<(u64, u64)> = None;
        while let Some(got) = wheel.pop() {
            prop_assert_eq!(Some(got), oracle.pop());
            if let Some(prev) = last {
                prop_assert!(prev < got, "pop order not strictly (time, seq)");
            }
            last = Some(got);
        }
        prop_assert_eq!(oracle.pop(), None);
    }
}
