//! Always-on lock-free flight recorder.
//!
//! Every thread that calls [`note`] owns a fixed-size ring of the most
//! recent [`RingEntry`] records. The owner thread is the only writer; each
//! slot is protected by a seqlock stamp (odd while a write is in flight), so
//! a crash-dump snapshot taken from *any* thread — including a panic hook —
//! reads the rings without locks and detects torn slots instead of
//! publishing them. Old entries are overwritten; overwritten and torn
//! entries are *counted*, never silently lost.
//!
//! The recorder has no on/off switch and produces **zero output**: with
//! `--obs off` nothing ever reads it except a crash dump. A `note` costs a
//! few atomic stores into thread-owned cache lines, cheap enough for the
//! coarse hook points that feed it (worker lifecycle, job starts, span
//! transitions while a session records, panics).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Entries retained per thread.
pub const RING_CAPACITY: usize = 128;

/// How a ring entry was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RingKind {
    /// A span opened (`a` = span id).
    SpanOpen = 0,
    /// A span closed (`a` = span id, `b` = duration in ns).
    SpanClose = 1,
    /// A point event inside a span (`a` = span id).
    Point = 2,
    /// An executor job started (`a` = job index).
    Job = 3,
    /// A worker thread started or stopped (`a` = 1 start / 0 stop).
    Worker = 4,
    /// A panic was recorded (`a` = job index when known).
    Panic = 5,
    /// Free-form marker.
    Note = 6,
}

impl RingKind {
    fn from_u8(v: u8) -> RingKind {
        match v {
            0 => RingKind::SpanOpen,
            1 => RingKind::SpanClose,
            2 => RingKind::Point,
            3 => RingKind::Job,
            4 => RingKind::Worker,
            5 => RingKind::Panic,
            _ => RingKind::Note,
        }
    }

    /// Stable lower-snake name, used in crash dumps.
    pub fn name(self) -> &'static str {
        match self {
            RingKind::SpanOpen => "span_open",
            RingKind::SpanClose => "span_close",
            RingKind::Point => "point",
            RingKind::Job => "job",
            RingKind::Worker => "worker",
            RingKind::Panic => "panic",
            RingKind::Note => "note",
        }
    }
}

/// One flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEntry {
    /// Global stamp order (allocation order across all threads).
    pub seq: u64,
    /// Nanoseconds since the recorder's first use in this process.
    pub ts_ns: u64,
    /// Worker tag of the recording thread (0 = untagged / main).
    pub worker: u32,
    /// Entry kind.
    pub kind: RingKind,
    /// Event or span name.
    pub name: &'static str,
    /// Kind-specific payload (see [`RingKind`]).
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

/// A merged snapshot of every thread's ring, oldest first.
#[derive(Debug, Clone, Default)]
pub struct RingSnapshot {
    /// Surviving entries across all rings, sorted by `seq`.
    pub entries: Vec<RingEntry>,
    /// Entries overwritten before the snapshot (summed over rings).
    pub dropped: u64,
    /// Slots skipped because a concurrent write could not be read cleanly.
    pub torn: u64,
}

#[derive(Clone, Copy)]
struct Pod {
    seq: u64,
    ts_ns: u64,
    worker: u32,
    kind: u8,
    name: &'static str,
    a: u64,
    b: u64,
}

const EMPTY: Pod = Pod {
    seq: 0,
    ts_ns: 0,
    worker: 0,
    kind: 0,
    name: "",
    a: 0,
    b: 0,
};

struct Slot {
    /// Seqlock stamp: odd while the owner thread is writing the slot.
    stamp: AtomicU64,
    data: UnsafeCell<Pod>,
}

struct ThreadRing {
    /// Number of entries ever written; the next write lands in
    /// `head % RING_CAPACITY`.
    head: AtomicU64,
    slots: Vec<Slot>,
}

// SAFETY: `data` is written only by the ring's owner thread, bracketed by
// odd/even `stamp` transitions; concurrent readers validate the stamp around
// each read and discard torn values. See `ThreadRing::push` / `read_slot`.
unsafe impl Sync for ThreadRing {}
unsafe impl Send for ThreadRing {}

impl ThreadRing {
    fn new() -> ThreadRing {
        ThreadRing {
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    stamp: AtomicU64::new(0),
                    data: UnsafeCell::new(EMPTY),
                })
                .collect(),
        }
    }

    /// Owner-thread write: claim the slot (odd stamp), store, release (even
    /// stamp), then publish the new head.
    fn push(&self, pod: Pod) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % RING_CAPACITY as u64) as usize];
        slot.stamp.fetch_add(1, Ordering::Release);
        // SAFETY: single writer (this is the owner thread), and the odd
        // stamp above tells every reader the slot is in flux.
        unsafe { *slot.data.get() = pod };
        slot.stamp.fetch_add(1, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Cross-thread read of one slot; `None` when the slot stayed torn
    /// across the retry budget.
    fn read_slot(&self, idx: usize) -> Option<Pod> {
        let slot = &self.slots[idx];
        for _ in 0..8 {
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: the matching-even-stamp check below rejects any value
            // the owner thread overwrote while we copied it.
            let pod = unsafe { *slot.data.get() };
            if slot.stamp.load(Ordering::Acquire) == s1 {
                return Some(pod);
            }
        }
        None
    }

    /// Surviving entries (oldest first), entries lost to overwrite, and
    /// slots lost to tearing.
    fn snapshot(&self) -> (Vec<RingEntry>, u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let kept = head.min(RING_CAPACITY as u64);
        let dropped = head - kept;
        let mut torn = 0u64;
        let mut entries = Vec::with_capacity(kept as usize);
        for i in 0..kept {
            let idx = ((head - kept + i) % RING_CAPACITY as u64) as usize;
            match self.read_slot(idx) {
                Some(pod) => entries.push(RingEntry {
                    seq: pod.seq,
                    ts_ns: pod.ts_ns,
                    worker: pod.worker,
                    kind: RingKind::from_u8(pod.kind),
                    name: pod.name,
                    a: pod.a,
                    b: pod.b,
                }),
                None => torn += 1,
            }
        }
        (entries, dropped, torn)
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static START: OnceLock<Instant> = OnceLock::new();
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    static TL_RING: OnceLock<Arc<ThreadRing>> = const { OnceLock::new() };
    static TL_WORKER: AtomicU32 = const { AtomicU32::new(0) };
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

fn ts_ns() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tags the calling thread's future ring entries with `worker` (0 = main;
/// `diam-par` workers use `index + 1`). Unlike the session-scoped
/// `set_worker`, this sticks even with `--obs off` so crash dumps can name
/// the worker.
pub fn set_ring_worker(worker: u32) {
    let _ = TL_WORKER.try_with(|w| w.store(worker, Ordering::Relaxed));
}

/// The calling thread's ring worker tag.
pub fn ring_worker() -> u32 {
    TL_WORKER
        .try_with(|w| w.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Appends an entry to the calling thread's ring (registering the ring on
/// first use). Never blocks other note-takers; never produces output.
pub fn note(kind: RingKind, name: &'static str, a: u64, b: u64) {
    let pod = Pod {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        ts_ns: ts_ns(),
        worker: ring_worker(),
        kind: kind as u8,
        name,
        a,
        b,
    };
    let _ = TL_RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(ThreadRing::new());
            unpoison(RINGS.lock()).push(ring.clone());
            ring
        });
        ring.push(pod);
    });
}

/// Merges every registered ring into one seq-ordered snapshot. Safe to call
/// from any thread at any time, including a panic hook.
pub fn snapshot_all() -> RingSnapshot {
    let rings: Vec<Arc<ThreadRing>> = unpoison(RINGS.lock()).clone();
    let mut snap = RingSnapshot::default();
    for ring in rings {
        let (entries, dropped, torn) = ring.snapshot();
        snap.entries.extend(entries);
        snap.dropped += dropped;
        snap.torn += torn;
    }
    snap.entries.sort_by_key(|e| e.seq);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_survive_in_order_and_count_overwrites() {
        let ring = ThreadRing::new();
        let n = RING_CAPACITY as u64 + 17;
        for i in 0..n {
            ring.push(Pod {
                seq: i,
                ts_ns: i,
                worker: 0,
                kind: RingKind::Note as u8,
                name: "t",
                a: i,
                b: 0,
            });
        }
        let (entries, dropped, torn) = ring.snapshot();
        assert_eq!(torn, 0);
        assert_eq!(dropped, 17);
        assert_eq!(entries.len(), RING_CAPACITY);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        let expect: Vec<u64> = (17..n).collect();
        assert_eq!(seqs, expect, "oldest surviving entry is seq 17");
    }

    #[test]
    fn thread_notes_land_in_global_snapshot() {
        note(RingKind::Note, "ring.test.marker", 41, 42);
        let snap = snapshot_all();
        assert!(snap
            .entries
            .iter()
            .any(|e| e.name == "ring.test.marker" && e.a == 41 && e.b == 42));
    }
}
