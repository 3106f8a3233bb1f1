//! Flight-recorder ring under concurrent writers: property-tests the
//! per-thread rings against a sequential model. The contract: readers
//! never observe a torn entry, each
//! thread's surviving entries are exactly the most recent suffix of what it
//! pushed (in order), and anything lost to overwrite is *counted*, never
//! silently dropped.
//!
//! Single test in this file: the drop/torn accounting below works on global
//! snapshot deltas, which assumes no unrelated ring traffic in the process.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use diam_obs::ring::{self, RingKind, RING_CAPACITY};
use proptest::prelude::*;

static NONCE: AtomicU64 = AtomicU64::new(1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn concurrent_writers_match_the_sequential_model(
        counts in proptest::collection::vec(1u16..400, 1..=4)
    ) {
        let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
        let before = ring::snapshot_all();
        let stop = AtomicBool::new(false);

        std::thread::scope(|s| {
            for (tid, &count) in counts.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..count as u64 {
                        ring::note(RingKind::Note, "ring.prop", nonce << 32 | tid as u64, i);
                    }
                });
            }
            // A concurrent reader hammering snapshots mid-write: every entry
            // it sees must be internally consistent — the seqlock turns
            // would-be torn reads into counted skips, never garbage.
            let stop = &stop;
            let counts = &counts;
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for e in ring::snapshot_all().entries {
                        if e.name != "ring.prop" || e.a >> 32 != nonce {
                            continue;
                        }
                        let tid = (e.a & 0xffff_ffff) as usize;
                        assert!(tid < counts.len(), "unknown writer {tid}");
                        assert!(e.b < counts[tid] as u64, "payload out of range");
                        assert_eq!(e.kind, RingKind::Note);
                    }
                    std::thread::yield_now();
                }
            });
            // scope joins the writers, then we release the reader.
            for _ in 0..3 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);
        });

        let after = ring::snapshot_all();
        // Quiescent: nothing is mid-write, so no slot may read torn.
        prop_assert_eq!(after.torn, before.torn);
        // Loss accounting: each writer loses
        // exactly max(0, pushed - capacity) entries to overwrite.
        let expect_dropped: u64 = counts
            .iter()
            .map(|&c| (c as u64).saturating_sub(RING_CAPACITY as u64))
            .sum();
        prop_assert_eq!(after.dropped - before.dropped, expect_dropped);
        // Sequential model per writer: the surviving entries are the most
        // recent min(pushed, capacity) payloads, in push order.
        for (tid, &count) in counts.iter().enumerate() {
            let got: Vec<u64> = after
                .entries
                .iter()
                .filter(|e| e.name == "ring.prop" && e.a == nonce << 32 | tid as u64)
                .map(|e| e.b)
                .collect();
            let kept = (count as u64).min(RING_CAPACITY as u64);
            let expect: Vec<u64> = (count as u64 - kept..count as u64).collect();
            prop_assert_eq!(&got, &expect, "writer {} suffix mismatch", tid);
        }
    }
}
