//! Stress test of the flight recorder's per-slot seqlock
//! (`race_logic::telemetry::flight`): writers race around the global
//! ring while readers snapshot it, and no snapshot may hold a record
//! whose fields come from two different writes. It is a test binary of
//! its own, so no other test writes into the process-global ring while
//! it runs.
//!
//! It guards the protocol against regressions: it is not known to
//! reproduce a failure of the protocol the fence form replaced, but it
//! fails at once when a reader skips its second sequence check.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use race_logic::telemetry::{self, flight, TraceEvent, TraceHandle};

const WRITERS: u64 = 6;
const READERS: usize = 2;
const RUN: Duration = Duration::from_secs(1);

#[test]
fn concurrent_snapshots_never_mix_two_writes() {
    telemetry::set_enabled(true);
    let running = AtomicBool::new(true);
    let checked = AtomicU64::new(0);
    std::thread::scope(|s| {
        for writer in 1..=WRITERS {
            let running = &running;
            s.spawn(move || {
                // Each record carries its writer three times: as the
                // trace's query id, in the top bits of `a`, and in `b`,
                // which is `!a`.
                let trace = TraceHandle::new(writer);
                let mut n = 0_u64;
                while running.load(Ordering::Relaxed) {
                    let a = writer << 48 | n;
                    trace.record(TraceEvent::ShedConsidered {
                        queued_cells: a,
                        victims: !a,
                    });
                    n += 1;
                }
            });
        }
        for _ in 0..READERS {
            let (running, checked) = (&running, &checked);
            s.spawn(move || {
                while running.load(Ordering::Relaxed) {
                    let records = flight::snapshot();
                    for rec in &records {
                        assert_eq!(rec.kind, "shed-considered", "{rec:?}");
                        assert_eq!(rec.b, !rec.a, "torn record {rec:?}");
                        assert_eq!(rec.query, rec.a >> 48, "torn record {rec:?}");
                    }
                    checked.fetch_add(records.len() as u64, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(RUN);
        running.store(false, Ordering::Relaxed);
    });
    assert!(checked.load(Ordering::Relaxed) > 0, "no record was read");
}
