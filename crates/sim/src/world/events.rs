//! Calendar-wheel event queue for the simulation's main loop.
//!
//! The scheduler's event traffic is dominated by short delays — quantum
//! re-wakes, message latencies, brief sleeps — so a ring of FIFO buckets
//! indexed by `time % WHEEL` turns almost every push and pop into O(1)
//! slot operations instead of `BinaryHeap` sifts over ~50-byte entries.
//! Delays beyond the wheel horizon overflow into a heap.
//!
//! Buckets are intrusive lists threaded through one shared node pool, so
//! the queue performs no per-slot allocation: a whole run touches the
//! allocator only when the pool itself grows, which settles after the
//! first few slices (the pool's high-water mark is the maximum number of
//! simultaneously queued events, not the event count).
//!
//! Ordering is byte-identical to the `BinaryHeap<Reverse<EventEntry>>` it
//! replaces: events pop in `(time, seq)` order. Within a slot, FIFO order
//! *is* `seq` order (pushes happen with monotonically increasing `seq`),
//! and a slot never mixes two wheel epochs because only times within
//! `[cursor, cursor + WHEEL)` are admitted and `cursor` never moves
//! backwards. On a time tie between wheel and overflow, the overflow event
//! pops first: it was necessarily scheduled earlier (while the time was
//! still beyond the horizon), so it carries the smaller `seq`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{EventEntry, EventKind};

/// Number of wheel slots. Delays shorter than this are the overwhelmingly
/// common case; longer ones take the overflow heap.
const WHEEL: usize = 256;

/// Null link / empty slot marker in the node pool.
const NIL: u32 = u32::MAX;

/// One pooled event plus its intra-slot FIFO link.
struct Node {
    entry: EventEntry,
    next: u32,
}

pub(super) struct EventQueue {
    /// Per-slot FIFO list heads/tails, indexing into `pool`; `NIL` = empty.
    head: [u32; WHEEL],
    tail: [u32; WHEEL],
    /// Backing store for queued events; freed nodes go on `free`.
    pool: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    /// Scan start: no queued event is earlier than this time.
    cursor: u64,
    /// Events scheduled past the wheel horizon.
    overflow: BinaryHeap<Reverse<EventEntry>>,
    /// Total queued events across wheel and overflow.
    len: usize,
}

impl EventQueue {
    pub(super) fn new() -> Self {
        EventQueue {
            head: [NIL; WHEEL],
            tail: [NIL; WHEEL],
            pool: Vec::new(),
            free: NIL,
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Queues an event. `entry.time` must be `>=` the time of the last
    /// popped event (the simulation clock never schedules into the past).
    pub(super) fn push(&mut self, entry: EventEntry) {
        debug_assert!(entry.time >= self.cursor, "event scheduled in the past");
        self.len += 1;
        if entry.time - self.cursor >= WHEEL as u64 {
            self.overflow.push(Reverse(entry));
            return;
        }
        let slot = (entry.time % WHEEL as u64) as usize;
        let idx = match self.free {
            NIL => {
                self.pool.push(Node { entry, next: NIL });
                (self.pool.len() - 1) as u32
            }
            i => {
                self.free = self.pool[i as usize].next;
                self.pool[i as usize] = Node { entry, next: NIL };
                i
            }
        };
        match self.tail[slot] {
            NIL => self.head[slot] = idx,
            t => self.pool[t as usize].next = idx,
        }
        self.tail[slot] = idx;
    }

    /// Pops the earliest event in `(time, seq)` order.
    pub(super) fn pop(&mut self) -> Option<EventEntry> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // The earliest overflow time bounds the wheel scan: a wheel event
        // at the same time was scheduled later and must pop after it.
        let limit = self.overflow.peek().map(|Reverse(e)| e.time);
        let end = self.cursor + WHEEL as u64;
        let mut t = self.cursor;
        while t < end && limit.is_none_or(|lim| t < lim) {
            let slot = (t % WHEEL as u64) as usize;
            let idx = self.head[slot];
            if idx != NIL {
                let node = &mut self.pool[idx as usize];
                debug_assert_eq!(node.entry.time, t, "stale wheel epoch");
                // Move the entry out; the freed node keeps a cheap dummy.
                let entry = std::mem::replace(
                    &mut node.entry,
                    EventEntry {
                        time: 0,
                        seq: 0,
                        kind: EventKind::Wake {
                            tid: 0,
                            token: 0,
                            expired: false,
                        },
                    },
                );
                self.head[slot] = node.next;
                if self.head[slot] == NIL {
                    self.tail[slot] = NIL;
                }
                node.next = self.free;
                self.free = idx;
                self.cursor = t;
                return Some(entry);
            }
            t += 1;
        }
        let Reverse(e) = self
            .overflow
            .pop()
            .expect("len counted an event the scan could not find");
        self.cursor = e.time;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::super::EventKind;
    use super::*;

    fn entry(time: u64, seq: u64) -> EventEntry {
        EventEntry {
            time,
            seq,
            kind: EventKind::Wake {
                tid: 0,
                token: 0,
                expired: false,
            },
        }
    }

    /// The wheel must pop in exactly the `(time, seq)` order the old
    /// `BinaryHeap<Reverse<_>>` produced, across slot reuse and overflow.
    #[test]
    fn pops_in_heap_order() {
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<EventEntry>> = BinaryHeap::new();
        // A deterministic scramble of near and far delays, interleaved with
        // pops so the cursor advances and slots get reused across epochs.
        let mut clock = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        // One push per round, so the round number doubles as the `seq`.
        for round in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = match x % 10 {
                0..=5 => x % 16,        // short: stays in the wheel
                6..=8 => x % 200,       // mid: still wheel
                _ => 250 + (x % 2_000), // far: overflow
            };
            q.push(entry(clock + delay, round));
            heap.push(Reverse(entry(clock + delay, round)));
            if round % 3 == 0 {
                if let Some(e) = q.pop() {
                    clock = e.time;
                    popped.push((e.time, e.seq));
                }
                if let Some(Reverse(e)) = heap.pop() {
                    expected.push((e.time, e.seq));
                }
            }
        }
        while let Some(e) = q.pop() {
            popped.push((e.time, e.seq));
        }
        while let Some(Reverse(e)) = heap.pop() {
            expected.push((e.time, e.seq));
        }
        assert_eq!(popped, expected);
        assert!(q.pop().is_none());
    }
}
