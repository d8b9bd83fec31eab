//! Multi-threaded writer storm over `Obs::child()` registries sharing
//! one flight ring: per-child metric counts must be exact (isolated
//! registries lose nothing) and the shared ring must stay bounded at
//! `CASA_FLIGHT_CAP` with honest drop accounting.

use casa_obs::{MetricValue, Obs};

const FLIGHT_CAP: usize = 64;
const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 500;

#[test]
fn writer_storm_keeps_registries_exact_and_ring_bounded() {
    // Sized via env because `Obs::enabled()` builds its recorder with
    // `FlightRecorder::from_env()`. This is the only test in this
    // integration binary, so nothing races the variable.
    std::env::set_var("CASA_FLIGHT_CAP", FLIGHT_CAP.to_string());
    let parent = Obs::enabled();
    assert_eq!(parent.flight().unwrap().capacity(), FLIGHT_CAP);

    let children: Vec<Obs> = (0..WRITERS).map(|_| parent.child()).collect();
    std::thread::scope(|s| {
        for (t, child) in children.iter().enumerate() {
            s.spawn(move || {
                for j in 0..OPS_PER_WRITER {
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

    // One shared ring, bounded at CASA_FLIGHT_CAP, with every evicted
    // event counted. Gauge writes fire every 64th iteration from each
    // writer (including j == 0).
    let gauge_writes = WRITERS as u64 * OPS_PER_WRITER.div_ceil(64);
    let total_pushes = WRITERS as u64 * OPS_PER_WRITER * 2 + gauge_writes;
    let flight = parent.flight().unwrap();
    assert_eq!(flight.len(), FLIGHT_CAP);
    assert_eq!(flight.dropped(), total_pushes - FLIGHT_CAP as u64);
    // The surviving tail is contiguous: sequence numbers are the last
    // FLIGHT_CAP of the total push count, in order.
    let events = parent.flight_events();
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let expect: Vec<u64> = (total_pushes - FLIGHT_CAP as u64..total_pushes).collect();
    assert_eq!(seqs, expect);
}
