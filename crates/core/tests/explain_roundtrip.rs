//! Property tests for the explain-document codec (satellite of the
//! explainability PR), mirroring the session-codec suite:
//!
//! 1. Write → read is the identity for arbitrary documents — floats
//!    travel as shortest-round-trip decimals, strings through the JSON
//!    escaper.
//! 2. The writer is NaN-free: whatever the assembler produces, the
//!    serialized text is strict JSON with no `NaN`/`inf` tokens.
//! 3. Truncated input is always a clean error, never a panic and never
//!    a silently shorter document.
//! 4. Forward compatibility: unknown keys are skipped; documents
//!    stamped with a newer schema are refused.
//! 5. Mutated explain and search-tree documents of real solves (byte
//!    flips, deletions, truncations, insertions) parse to a document or
//!    an error in both readers, and a parsed explain mutant renders,
//!    all without a panic.

mod common;

use casa_core::explain::{ExplainDoc, FixedBy, ObjectExplain, ProbeResult};
use casa_core::{explain_json, parse_explain, render_explain, EXPLAIN_SCHEMA};
use casa_ilp::tree::{parse_tree_log, tree_log_json};
use common::{captured, mutate};
use proptest::prelude::*;
use proptest::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Printable-ish characters plus the ones that stress the JSON
/// escaper: quotes, backslashes, control characters, non-ASCII.
const ALPHABET: [char; 8] = ['a', '"', '\\', '\n', '\t', '\u{1}', 'µ', '→'];

fn wild_string(rng: &mut TestRng) -> String {
    let len = (0usize..12).sample(rng);
    (0..len)
        .map(|_| ALPHABET[(0usize..ALPHABET.len()).sample(rng)])
        .collect()
}

/// Finite f64 from arbitrary bits: every finite double survives the
/// shortest-round-trip `{}` formatting exactly, so identity holds.
fn finite(rng: &mut TestRng) -> f64 {
    let v = f64::from_bits(any::<u64>().sample(rng));
    if v.is_finite() {
        v
    } else {
        -0.5
    }
}

fn opt_finite(rng: &mut TestRng) -> Option<f64> {
    if any::<bool>().sample(rng) {
        Some(finite(rng))
    } else {
        None
    }
}

fn object(rng: &mut TestRng, index: usize) -> ObjectExplain {
    ObjectExplain {
        index,
        on_spm: any::<bool>().sample(rng),
        size: any::<u32>().sample(rng),
        density_rank: if any::<bool>().sample(rng) {
            Some(any::<u32>().sample(rng) as usize)
        } else {
            None
        },
        linear_saving: finite(rng),
        conflict_saving: finite(rng),
        root_value: opt_finite(rng),
        reduced_cost: opt_finite(rng),
        fixed_by: [FixedBy::Root, FixedBy::Branch, FixedBy::Heuristic][(0usize..3).sample(rng)],
        regret: finite(rng),
        flip_capacity: if any::<bool>().sample(rng) {
            Some(any::<u32>().sample(rng))
        } else {
            None
        },
    }
}

fn probe(rng: &mut TestRng) -> ProbeResult {
    ProbeResult {
        target: any::<u32>().sample(rng) as usize,
        capacity: any::<u32>().sample(rng),
        flipped: (0..(0usize..6).sample(rng))
            .map(|_| any::<u32>().sample(rng) as usize)
            .collect(),
        target_flipped: any::<bool>().sample(rng),
    }
}

/// An arbitrary syntactically-wild explain document. The vendored
/// proptest stand-in has no combinators (`prop_map` etc.), so this is
/// a direct [`Strategy`] implementation assembling the struct field by
/// field.
struct ArbDoc;

impl Strategy for ArbDoc {
    type Value = ExplainDoc;

    fn sample(&self, rng: &mut TestRng) -> ExplainDoc {
        let n = (0usize..8).sample(rng);
        ExplainDoc {
            allocator: wild_string(rng),
            capacity: any::<u32>().sample(rng),
            spm_used: any::<u32>().sample(rng),
            root_objective: opt_finite(rng),
            shadow_price: opt_finite(rng),
            probes: (0..(0usize..3).sample(rng)).map(|_| probe(rng)).collect(),
            objects: (0..n).map(|i| object(rng, i)).collect(),
        }
    }
}

/// A document the assembler could never emit: non-finite floats
/// everywhere they fit. The writer must still produce strict JSON.
struct ArbPoisonedDoc;

impl Strategy for ArbPoisonedDoc {
    type Value = ExplainDoc;

    fn sample(&self, rng: &mut TestRng) -> ExplainDoc {
        let mut doc = ArbDoc.sample(rng);
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let pick = |rng: &mut TestRng| poison[(0usize..3).sample(rng)];
        doc.root_objective = Some(pick(rng));
        doc.shadow_price = Some(pick(rng));
        for o in &mut doc.objects {
            o.regret = pick(rng);
            o.linear_saving = pick(rng);
            o.reduced_cost = Some(pick(rng));
        }
        doc
    }
}

/// Largest prefix of `text` with `cut` bytes removed that is still a
/// valid UTF-8 boundary (wild allocator strings are multi-byte).
fn truncate(text: &str, cut: usize) -> &str {
    let mut end = text.len().saturating_sub(cut);
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// The explain and search-tree documents of real captured solves:
/// explain for a tree search, an ILP and a heuristic, trees for the
/// searches, one of them stopped by a node budget.
fn real_documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mut docs = Vec::new();
        for (allocator, budget) in [
            ("casa-bb", None),
            ("casa-ilp-tight", None),
            ("steinke", None),
            ("casa-bb", Some(1)),
        ] {
            let c = captured(allocator, budget, true);
            docs.extend(c.explain);
            docs.extend(c.tree);
        }
        assert_eq!(docs.len(), 7, "four explain documents, three trees");
        docs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_round_trip_is_identity(d in ArbDoc) {
        let text = explain_json(&d);
        let back = parse_explain(&text).expect("parses back");
        prop_assert_eq!(&back, &d);
        // Re-serialization is byte-stable (sorted keys, shortest
        // round-trip floats).
        prop_assert_eq!(explain_json(&back), text);
    }

    #[test]
    fn writer_is_nan_free(d in ArbPoisonedDoc) {
        let text = explain_json(&d);
        prop_assert!(!text.contains("NaN"), "{}", text);
        prop_assert!(!text.contains("inf"), "{}", text);
        // Non-finite floats degrade to null, which the reader either
        // accepts (optional fields) or refuses cleanly (required
        // fields) — it never panics and never fabricates a number.
        if let Ok(back) = parse_explain(&text) {
            prop_assert!(back.root_objective.is_none());
            prop_assert!(back.shadow_price.is_none());
        }
    }

    #[test]
    fn truncation_is_a_clean_error(d in ArbDoc, cut in 1usize..32) {
        let text = explain_json(&d);
        let cut = cut.min(text.len());
        prop_assert!(parse_explain(truncate(&text, cut)).is_err());
    }

    #[test]
    fn unknown_keys_are_ignored(d in ArbDoc, n in any::<u64>()) {
        let text = explain_json(&d);
        let extended = format!(
            "{{\"added_by_a_future_writer\":{{\"x\":{n},\"y\":[1,2]}},{}",
            &text[1..]
        );
        prop_assert_eq!(parse_explain(&extended).expect("tolerant reader"), d);
    }

    #[test]
    fn newer_schema_is_refused(d in ArbDoc, bump in 1u32..5) {
        let text = explain_json(&d);
        let old = format!("\"casa_explain\":{EXPLAIN_SCHEMA}");
        let newer = text.replace(&old, &format!("\"casa_explain\":{}", EXPLAIN_SCHEMA + bump));
        prop_assert!(parse_explain(&newer).is_err());
    }
}

proptest! {
    // Parsing a document this size is cheap: 6,000 mutants take well
    // under a second in a debug build.
    #![proptest_config(ProptestConfig::with_cases(6000))]

    #[test]
    fn mutated_documents_parse_or_fail_without_panic(
        pick in any::<u32>(),
        kind in 0u8..4,
        edits in prop::collection::vec((any::<u32>(), any::<u8>()), 1..=8),
    ) {
        let docs = real_documents();
        let mut bytes = docs[pick as usize % docs.len()].clone().into_bytes();
        mutate(&mut bytes, kind, &edits);
        let text = String::from_utf8_lossy(&bytes);
        // Both readers see every mutant; any verdict but a panic is
        // fine.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(doc) = parse_explain(&text) {
                let _ = render_explain(&doc, 5);
            }
            if let Ok(log) = parse_tree_log(&text) {
                let _ = tree_log_json(&log);
            }
        }));
        prop_assert!(ran.is_ok(), "panic on {}", text);
    }
}
