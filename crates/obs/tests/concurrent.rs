//! Multi-threaded writer storm over `Obs::child()` handles sharing one
//! trace collector: per-child metric counts must be exact (isolated
//! registries lose nothing), and the shared collector must stay bounded
//! at `TRACE_CAPACITY` with every event it dropped counted.

use casa_obs::{MetricValue, Obs, FLIGHT_EVENTS, TRACE_CAPACITY};

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 600;

#[test]
fn writer_storm_keeps_registries_exact_and_the_collector_bounded() {
    let parent = Obs::enabled();
    let children: Vec<Obs> = (0..WRITERS).map(|_| parent.child()).collect();
    std::thread::scope(|s| {
        for (t, child) in children.iter().enumerate() {
            s.spawn(move || {
                for j in 0..OPS_PER_WRITER {
                    let _span = child.span("storm.span");
                    child.instant("storm.tick", Vec::new());
                    child.add("storm.count", 1);
                    child.record("storm.hist", j + 1);
                    if j % 64 == 0 {
                        child.gauge_set("storm.gauge", t as f64);
                    }
                }
            });
        }
    });

    // No lost increments: every child registry holds exactly its own
    // writes, unpolluted by its siblings.
    for child in &children {
        let snap = child.snapshot();
        assert_eq!(
            snap.get("storm.count"),
            Some(&MetricValue::Counter(OPS_PER_WRITER))
        );
        match snap.get("storm.hist") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, OPS_PER_WRITER);
                assert_eq!(h.sum, OPS_PER_WRITER * (OPS_PER_WRITER + 1) / 2);
            }
            other => panic!("histogram expected, got {other:?}"),
        }
    }

    // One shared collector, bounded, with every evicted event counted:
    // a span and an instant per iteration from each writer, and no
    // metric update among them.
    let pushed = WRITERS as u64 * OPS_PER_WRITER * 2;
    assert!(
        pushed > TRACE_CAPACITY as u64,
        "the storm overflows the ring"
    );
    let collector = parent.collector().unwrap();
    assert_eq!(collector.len(), TRACE_CAPACITY);
    assert_eq!(collector.len() as u64 + collector.dropped(), pushed);
    // Every child sees the same timeline, and its dump carries the
    // newest events, numbered contiguously up to the last one pushed.
    assert_eq!(children[3].events().len(), TRACE_CAPACITY);
    let (newest, dropped) = collector.newest(FLIGHT_EVENTS);
    assert_eq!(dropped, pushed - TRACE_CAPACITY as u64);
    let seqs: Vec<u64> = newest.iter().map(|(seq, _)| *seq).collect();
    let expect: Vec<u64> = (pushed - FLIGHT_EVENTS as u64..pushed).collect();
    assert_eq!(seqs, expect);
}
