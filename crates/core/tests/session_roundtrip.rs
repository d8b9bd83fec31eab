//! Property tests for the `.casa-session` binary codec:
//!
//! 1. Write → read is the identity for arbitrary sessions — including
//!    f64 bit patterns (NaN payloads travel as bits) and strings with
//!    quotes, control characters and non-ASCII.
//! 2. Truncated input is always a clean `Format` error, never a panic
//!    and never a silently shorter session.
//! 3. Forward compatibility: a reader presented with sections it does
//!    not know skips them and still reconstructs the session; a newer
//!    schema number is refused.
//! 4. Mutated recordings of real solves (byte flips, deletions,
//!    truncations, insertions) decode to a session or a clean `Format`
//!    error, and every mutant that decodes replays and diffs without a
//!    panic.

mod common;

use casa_core::session::{BoundUpdate, DecisionLog, Incumbent};
use casa_core::{Session, SessionError, SESSION_SCHEMA};
use common::{captured, mutate};
use proptest::prelude::*;
use proptest::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Printable-ish characters plus quotes, backslashes, control
/// characters and non-ASCII.
const ALPHABET: [char; 8] = ['a', '"', '\\', '\n', '\t', '\u{1}', 'µ', '→'];

/// A node id or node count; bit-pattern fields (`*_bits`) draw from
/// the full u64 range instead.
fn count(rng: &mut TestRng) -> u64 {
    (0u64..(1 << 53)).sample(rng)
}

fn wild_string(rng: &mut TestRng) -> String {
    let len = (0usize..12).sample(rng);
    (0..len)
        .map(|_| ALPHABET[(0usize..ALPHABET.len()).sample(rng)])
        .collect()
}

fn opt_string(rng: &mut TestRng) -> Option<String> {
    if any::<bool>().sample(rng) {
        Some(wild_string(rng))
    } else {
        None
    }
}

fn decision_log(rng: &mut TestRng) -> DecisionLog {
    DecisionLog {
        order: prop::collection::vec(any::<u32>(), 0..16).sample(rng),
        incumbents: (0..(0usize..4).sample(rng))
            .map(|_| Incumbent {
                node: count(rng),
                objective_bits: any::<u64>().sample(rng),
                on_spm: prop::collection::vec(any::<bool>(), 0..10).sample(rng),
            })
            .collect(),
        bounds: (0..(0usize..4).sample(rng))
            .map(|_| BoundUpdate {
                node: count(rng),
                value_bits: any::<u64>().sample(rng),
            })
            .collect(),
        stop: opt_string(rng),
        nodes: count(rng),
    }
}

/// An arbitrary syntactically-wild session. The vendored proptest
/// stand-in has no combinators (`prop_map` etc.), so this is a direct
/// [`Strategy`] implementation assembling the struct field by field.
struct ArbSession;

impl Strategy for ArbSession {
    type Value = Session;

    fn sample(&self, rng: &mut TestRng) -> Session {
        Session {
            schema: SESSION_SCHEMA,
            meta: (0..(0usize..3).sample(rng))
                .map(|_| (wild_string(rng), wild_string(rng)))
                .collect(),
            request: wild_string(rng),
            log: decision_log(rng),
            layout: prop::collection::vec(any::<bool>(), 0..10).sample(rng),
            energy_bits: any::<u64>().sample(rng),
            status: wild_string(rng),
            gap_bits: any::<u64>().sample(rng),
            stopped_by: opt_string(rng),
            reason: opt_string(rng),
            nodes: count(rng),
            report: wild_string(rng),
        }
    }
}

/// One recording per allocator, plus node-budgeted searches that stop
/// early. Every recording replays cleanly before it is mutated.
fn recorded_sessions() -> &'static [Vec<u8>] {
    static SESSIONS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SESSIONS.get_or_init(|| {
        [
            ("casa-bb", None),
            ("casa-ilp-paper", None),
            ("casa-ilp-tight", None),
            ("casa-greedy", None),
            ("steinke", None),
            ("none", None),
            ("casa-bb", Some(1)),
            ("casa-ilp-tight", Some(1)),
        ]
        .iter()
        .map(|&(allocator, budget)| {
            let session = captured(allocator, budget, false).session;
            session
                .replay()
                .unwrap_or_else(|e| panic!("{allocator} fixture does not replay: {e}"));
            session.to_binary()
        })
        .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn binary_round_trip_is_identity(s in ArbSession) {
        let bytes = s.to_binary();
        prop_assert_eq!(Session::from_binary(&bytes).expect("reads back"), s);
    }

    #[test]
    fn truncated_binary_is_a_clean_format_error(s in ArbSession, k in 1usize..=9) {
        // Every section ends with at least its own 10-byte header, so
        // shaving 1..=9 bytes always cuts *inside* the final section.
        let bytes = s.to_binary();
        prop_assert!(matches!(
            Session::from_binary(&bytes[..bytes.len() - k]),
            Err(SessionError::Format(_))
        ));
    }

    #[test]
    fn unknown_binary_sections_are_skipped(s in ArbSession, payload in prop::collection::vec(any::<u8>(), 0..32)) {
        // A section tag this build has never heard of, spliced onto the
        // end exactly as a future writer would: u16 tag, u64 length,
        // payload — all little-endian.
        let mut bytes = s.to_binary();
        bytes.extend_from_slice(&999u16.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        prop_assert_eq!(Session::from_binary(&bytes).expect("tolerant reader"), s);
    }

    #[test]
    fn newer_schema_is_refused(s in ArbSession, bump in 1u32..5) {
        let mut s = s;
        s.schema = SESSION_SCHEMA + bump;
        prop_assert!(Session::from_binary(&s.to_binary()).is_err());
    }
}

proptest! {
    // Decoding and replaying a small solve is cheap: 6,000 mutants
    // take well under a second in a debug build.
    #![proptest_config(ProptestConfig::with_cases(6000))]

    #[test]
    fn mutated_recordings_decode_cleanly_and_replay_without_panic(
        pick in any::<u32>(),
        kind in 0u8..4,
        edits in prop::collection::vec((any::<u32>(), any::<u8>()), 1..=8),
    ) {
        let sessions = recorded_sessions();
        let mut bytes = sessions[pick as usize % sessions.len()].clone();
        mutate(&mut bytes, kind, &edits);
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            let decoded = Session::from_binary(&bytes);
            if let Ok(s) = &decoded {
                // Any replay verdict is fine (a mutant usually fails
                // to replay); a panic is not.
                let _ = s.replay();
                let _ = s.divergence();
            }
            decoded.map(|_| ())
        }));
        prop_assert!(
            matches!(verdict, Ok(Ok(()) | Err(SessionError::Format(_)))),
            "{:?}",
            verdict
        );
    }
}
