//! An indexed hierarchical timer wheel: the simulator's event queue.
//!
//! The DES hot path pops pending timers in exact `(time, seq)` order, where
//! `seq` is a monotonically increasing sequence number assigned at insert
//! time. A binary heap does this in `O(log n)` per operation with an
//! allocation per entry; the wheel does it in amortized `O(1)` per
//! operation with slab-recycled nodes, so steady-state scheduling performs
//! no heap allocation at all.
//!
//! # Structure
//!
//! * `LEVELS` levels of `SLOTS` slots each. A slot at level `k` spans
//!   `64^k` picoseconds; level 0 slots are exact timestamps. Deadlines
//!   further than `64^LEVELS` ps (≈ 68.7 ms) from the cursor wait in an
//!   overflow heap and are promoted once the cursor gets close.
//! * Entries live in a slab (`Vec` + intrusive free list); slots chain
//!   entries by slab index, so inserting, cascading and cancelling never
//!   allocate once the slab has warmed up.
//! * A 64-bit occupancy bitmap per level finds the next non-empty slot
//!   with one `trailing_zeros`.
//!
//! # Exact ordering
//!
//! The wheel maintains a cursor `elapsed` that never exceeds the earliest
//! pending deadline (of the wheel/overflow population). Every entry at
//! level `k` agrees with the cursor on all bits above block `k`, which
//! yields two load-bearing invariants:
//!
//! 1. All entries in one level-0 slot share *exactly* the same deadline,
//!    so popping a level-0 slot in ascending `seq` order is globally
//!    correct.
//! 2. Every entry at level `k` expires strictly before every entry at
//!    level `k+1`, so the earliest entry is always found by scanning
//!    levels bottom-up.
//!
//! Rarely, a caller peeks at the next deadline (which may advance the
//! cursor without firing anything) and then schedules an earlier event —
//! legal, since simulated time has not moved. Such entries go to a small
//! `pre` heap that always wins over the wheel; steady-state runs never
//! touch it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// Slot-index bits per level.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Number of wheel levels; deadlines beyond `64^LEVELS` ps from the cursor
/// overflow to a heap.
const LEVELS: usize = 6;
/// Distance (in ps) from the cursor beyond which an entry overflows.
const HORIZON: u64 = 1 << (BITS * LEVELS as u32);

type Idx = u32;
const NIL: Idx = u32::MAX;

/// Where [`TimerWheel::settle`] found the next live entry.
enum Head {
    Pre,
    Current,
}

/// Handle to a pending timer, for [`TimerWheel::cancel`].
///
/// Ids are generation-tagged: cancelling after the timer fired (or after a
/// previous cancel) is a detectable no-op, never a misfire on a recycled
/// slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    idx: Idx,
    gen: u32,
}

struct Node<T> {
    at: Time,
    seq: u64,
    gen: u32,
    /// Slot chain / free-list link.
    next: Idx,
    cancelled: bool,
    payload: Option<T>,
}

/// The timer wheel. See the [module docs](self) for the design.
pub struct TimerWheel<T> {
    /// Cursor: never exceeds the earliest deadline held by the wheel
    /// levels or the overflow heap.
    elapsed: Time,
    next_seq: u64,
    /// Pending, non-cancelled entries.
    live: usize,
    slots: [[Idx; SLOTS]; LEVELS],
    occupied: [u64; LEVELS],
    slab: Vec<Node<T>>,
    free: Idx,
    /// Drained level-0 slot, ascending `seq`; all entries share one
    /// deadline. Consumed before the levels are consulted again.
    current: VecDeque<Idx>,
    /// Entries scheduled behind the cursor after a non-firing peek.
    pre: BinaryHeap<Reverse<(Time, u64, Idx)>>,
    /// Entries beyond [`HORIZON`].
    overflow: BinaryHeap<Reverse<(Time, u64, Idx)>>,
    /// Reusable sort buffer for slot drains.
    scratch: Vec<(u64, Idx)>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            elapsed: 0,
            next_seq: 0,
            live: 0,
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            slab: Vec::new(),
            free: NIL,
            current: VecDeque::new(),
            pre: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of pending (non-cancelled) timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` at absolute time `at`. Entries inserted earlier
    /// fire first among equal deadlines (sequence order).
    pub fn insert(&mut self, at: Time, payload: T) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(at, seq, payload);
        let gen = self.slab[idx as usize].gen;
        self.place(idx);
        self.live += 1;
        TimerId { idx, gen }
    }

    /// Cancels a pending timer. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        match self.slab.get_mut(id.idx as usize) {
            Some(node) if node.gen == id.gen && !node.cancelled => {
                node.cancelled = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// The deadline of the earliest pending timer, without firing it.
    ///
    /// May advance the internal cursor (never past that deadline); entries
    /// scheduled earlier afterwards are still honored in order.
    pub fn peek_deadline(&mut self) -> Option<Time> {
        self.settle().map(|(at, _)| at)
    }

    /// Removes and returns the earliest pending timer as `(deadline,
    /// payload)`; ties on the deadline fire in insertion order.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let (at, head) = self.settle()?;
        let idx = match head {
            Head::Pre => self.pre.pop().expect("settle found an entry").0 .2,
            Head::Current => self.current.pop_front().expect("settle found an entry"),
        };
        let payload = self.slab[idx as usize].payload.take().expect("live node");
        self.recycle(idx);
        self.live -= 1;
        Some((at, payload))
    }

    // -- internals ---------------------------------------------------------

    /// Ensures the next live entry sits at the head of `pre` or `current`
    /// and returns its deadline and which of the two holds it; `None` when
    /// nothing pends.
    fn settle(&mut self) -> Option<(Time, Head)> {
        loop {
            // Drop cancelled heads lazily.
            if let Some(&Reverse((at, _, idx))) = self.pre.peek() {
                if self.slab[idx as usize].cancelled {
                    self.pre.pop();
                    self.release(idx);
                    continue;
                }
                // `pre` entries are strictly earlier than the cursor, and
                // the cursor bounds everything else from below.
                return Some((at, Head::Pre));
            }
            if let Some(&idx) = self.current.front() {
                let node = &self.slab[idx as usize];
                if node.cancelled {
                    self.current.pop_front();
                    self.release(idx);
                    continue;
                }
                return Some((node.at, Head::Current));
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// Advances the cursor to the earliest populated level-0 slot and
    /// drains it into `current` (sorted by seq). Returns `false` when the
    /// wheel and overflow are both structurally empty.
    fn refill(&mut self) -> bool {
        self.promote();
        loop {
            let Some(level) = (0..LEVELS).find(|&k| self.occupied[k] != 0) else {
                // Only far-future entries remain: jump the cursor to the
                // earliest and let promotion pull it in.
                let Some(&Reverse((at, _, _))) = self.overflow.peek() else {
                    return false;
                };
                self.elapsed = at;
                self.promote();
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // All entries in a level-0 slot share one exact deadline.
                let deadline = (self.elapsed & !(SLOTS as u64 - 1)) | slot as u64;
                debug_assert!(deadline >= self.elapsed);
                self.elapsed = deadline;
                // Same-deadline stragglers in the overflow join the slot.
                self.promote();
                self.drain_slot_sorted(slot);
                return true;
            }
            // Idle-skip: this slot holds the earliest wheel entries (its
            // level-`k` population agrees with the cursor above block `k`
            // and occupies the lowest occupied slot of the lowest occupied
            // level; every overflow deadline is later still, since it
            // differs from the cursor above the horizon). Jump the cursor
            // straight to the slot's earliest live deadline in one hop
            // instead of cascading a level at a time through empty slots.
            // All chain entries share the cursor's bits at block `k` and
            // above after the jump, so re-placing them lands at level
            // `k - 1` or lower — the earliest one at level 0 exactly.
            let head = self.take_slot(level, slot);
            let lone = &self.slab[head as usize];
            if lone.next == NIL && !lone.cancelled {
                // A chain of one is the earliest entry itself: jump to it
                // and hand it out. Levels below `k` are empty, and every
                // overflow deadline lies in a later horizon block, so no
                // other entry shares its deadline.
                let at = lone.at;
                debug_assert!(at > self.elapsed);
                self.elapsed = at;
                self.promote();
                debug_assert_eq!(self.occupied[0], 0);
                self.current.push_back(head);
                return true;
            }
            let mut target: Option<Time> = None;
            let mut cur = head;
            while cur != NIL {
                let node = &self.slab[cur as usize];
                if !node.cancelled {
                    target = Some(target.map_or(node.at, |t: Time| t.min(node.at)));
                }
                cur = node.next;
            }
            let Some(target) = target else {
                // The chain was entirely cancelled entries; free them and
                // rescan without moving the cursor.
                let mut cur = head;
                while cur != NIL {
                    let next = self.slab[cur as usize].next;
                    self.release(cur);
                    cur = next;
                }
                continue;
            };
            debug_assert!(target > self.elapsed);
            self.elapsed = target;
            self.promote();
            let mut cur = head;
            while cur != NIL {
                let next = self.slab[cur as usize].next;
                if self.slab[cur as usize].cancelled {
                    self.release(cur);
                } else {
                    self.place(cur);
                }
                cur = next;
            }
        }
    }

    /// Moves overflow entries that now fit under the horizon into the
    /// wheel levels.
    fn promote(&mut self) {
        while let Some(&Reverse((at, _, idx))) = self.overflow.peek() {
            if at ^ self.elapsed >= HORIZON {
                break;
            }
            self.overflow.pop();
            if self.slab[idx as usize].cancelled {
                self.release(idx);
            } else {
                self.place(idx);
            }
        }
    }

    /// Links a slab node into the structure that matches its deadline's
    /// distance from the cursor.
    fn place(&mut self, idx: Idx) {
        let (at, seq) = {
            let n = &self.slab[idx as usize];
            (n.at, n.seq)
        };
        if at < self.elapsed {
            self.pre.push(Reverse((at, seq, idx)));
            return;
        }
        let dist = at ^ self.elapsed;
        if dist >= HORIZON {
            self.overflow.push(Reverse((at, seq, idx)));
            return;
        }
        let level = ((63 - (dist | 1).leading_zeros()) / BITS) as usize;
        let slot = ((at >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let head = self.slots[level][slot];
        self.slab[idx as usize].next = head;
        self.slots[level][slot] = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// Detaches and returns a slot's chain head, clearing its occupancy bit.
    fn take_slot(&mut self, level: usize, slot: usize) -> Idx {
        let head = self.slots[level][slot];
        self.slots[level][slot] = NIL;
        self.occupied[level] &= !(1u64 << slot);
        head
    }

    /// Drains a level-0 slot into `current` in ascending `seq` order,
    /// freeing cancelled entries on the way.
    fn drain_slot_sorted(&mut self, slot: usize) {
        let mut head = self.take_slot(0, slot);
        if self.slab[head as usize].next == NIL {
            // One entry: nothing to sort.
            if self.slab[head as usize].cancelled {
                self.release(head);
            } else {
                self.current.push_back(head);
            }
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        while head != NIL {
            let node = &self.slab[head as usize];
            let next = node.next;
            if node.cancelled {
                self.release(head);
            } else {
                scratch.push((node.seq, head));
            }
            head = next;
        }
        scratch.sort_unstable();
        self.current.extend(scratch.iter().map(|&(_, idx)| idx));
        self.scratch = scratch;
    }

    fn alloc(&mut self, at: Time, seq: u64, payload: T) -> Idx {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.slab[idx as usize];
            self.free = node.next;
            node.at = at;
            node.seq = seq;
            node.next = NIL;
            node.cancelled = false;
            node.payload = Some(payload);
            idx
        } else {
            let idx = self.slab.len() as Idx;
            assert!(idx != NIL, "timer slab exhausted");
            self.slab.push(Node {
                at,
                seq,
                gen: 0,
                next: NIL,
                cancelled: false,
                payload: Some(payload),
            });
            idx
        }
    }

    /// Returns a node to the free list, bumping its generation so stale
    /// [`TimerId`]s can never act on the recycled slot.
    fn release(&mut self, idx: Idx) {
        self.slab[idx as usize].payload = None;
        self.recycle(idx);
    }

    /// [`TimerWheel::release`] for a node whose payload was taken.
    fn recycle(&mut self, idx: Idx) {
        let free = self.free;
        let node = &mut self.slab[idx as usize];
        debug_assert!(node.payload.is_none());
        node.gen = node.gen.wrapping_add(1);
        node.cancelled = false;
        node.next = free;
        self.free = idx;
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("live", &self.live)
            .field("elapsed", &self.elapsed)
            .field("slab", &self.slab.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut TimerWheel<u32>) -> Vec<(Time, u32)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut w = TimerWheel::new();
        for (at, tag) in [(50u64, 0u32), (10, 1), (50, 2), (10, 3), (0, 4)] {
            w.insert(at, tag);
        }
        assert_eq!(w.len(), 5);
        assert_eq!(
            drain_all(&mut w),
            vec![(0, 4), (10, 1), (10, 3), (50, 0), (50, 2)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn spans_levels_and_overflow() {
        let mut w = TimerWheel::new();
        // One deadline per level, one just inside the horizon and four past
        // it, two of them equal.
        let deadlines = [
            HORIZON + 5,
            3u64,
            100,
            5_000,
            300_000,
            20_000_000,
            1 << 33,
            HORIZON - 1,
            HORIZON + 7,
            1 << 40,
            HORIZON + 5,
        ];
        for (i, &at) in deadlines.iter().enumerate() {
            w.insert(at, i as u32);
        }
        // Tags follow insertion order, so `(time, tag)` order is
        // `(time, seq)` order.
        let mut want: Vec<(Time, u32)> = (0u32..).zip(deadlines).map(|(i, at)| (at, i)).collect();
        want.sort_unstable();
        assert_eq!(drain_all(&mut w), want);
    }

    #[test]
    fn same_deadline_across_containers_interleaves_by_seq() {
        let mut w = TimerWheel::new();
        let t = HORIZON + 5;
        w.insert(t, 0); // overflow at insert time
        w.insert(1, 1); // near-term
        assert_eq!(w.pop(), Some((1, 1)));
        // Cursor has advanced; a same-deadline insert now fits the wheel
        // while seq 0 still sits in the overflow. Order must be by seq.
        w.insert(t, 2);
        assert_eq!(drain_all(&mut w), vec![(t, 0), (t, 2)]);
    }

    #[test]
    fn cancel_prevents_fire_and_is_one_shot() {
        let mut w = TimerWheel::new();
        let a = w.insert(10, 0);
        let b = w.insert(10, 1);
        w.insert(20, 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel must report false");
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop(), Some((10, 1)));
        assert!(!w.cancel(b), "cancel after fire must report false");
        assert_eq!(w.pop(), Some((20, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn stale_id_on_recycled_slot_is_inert() {
        let mut w = TimerWheel::new();
        let fired = w.insert(5, 0);
        let cancelled = w.insert(7, 1);
        assert!(w.cancel(cancelled));
        assert_eq!(w.pop(), Some((5, 0)));
        assert_eq!(w.pop(), None, "popping sweeps the cancelled residue");
        // Both slab slots are recycled for fresh timers; neither stale id
        // may act on them.
        let fresh = [w.insert(6, 2), w.insert(8, 3)];
        assert!(!fresh.contains(&fired) && !fresh.contains(&cancelled));
        assert!(!w.cancel(fired));
        assert!(!w.cancel(cancelled));
        assert_eq!(drain_all(&mut w), vec![(6, 2), (8, 3)]);
    }

    #[test]
    fn peek_then_earlier_insert_stays_ordered() {
        let mut w = TimerWheel::new();
        // Peeking a far deadline advances the cursor internally.
        w.insert(1_000_000, 0);
        assert_eq!(w.peek_deadline(), Some(1_000_000));
        // An earlier insert (legal: simulated time has not moved) lands
        // behind the cursor, in the pre heap, and must still fire first.
        w.insert(10, 1);
        assert_eq!(w.pre.len(), 1);
        assert_eq!(w.peek_deadline(), Some(10));
        assert_eq!(drain_all(&mut w), vec![(10, 1), (1_000_000, 0)]);
    }

    #[test]
    fn interleaved_insert_while_draining_same_deadline() {
        let mut w = TimerWheel::new();
        w.insert(10, 0);
        w.insert(10, 1);
        assert_eq!(w.pop(), Some((10, 0)));
        // Scheduled "now" mid-drain: fires after the already-pending
        // same-deadline entry, in seq order.
        w.insert(10, 2);
        assert_eq!(w.pop(), Some((10, 1)));
        assert_eq!(w.pop(), Some((10, 2)));
    }

    #[test]
    fn slab_recycles_nodes() {
        let mut w = TimerWheel::new();
        for round in 0..100u64 {
            for i in 0..8 {
                w.insert(round * 1000 + i, i as u32);
            }
            for _ in 0..8 {
                w.pop().unwrap();
            }
        }
        assert!(
            w.slab.len() <= 8,
            "slab grew to {} nodes for 8 concurrent timers",
            w.slab.len()
        );
    }
}
