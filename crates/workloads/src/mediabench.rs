//! Synthetic stand-ins for the paper's Mediabench programs.
//!
//! Each function below builds a [`BenchmarkSpec`] whose *code size*
//! matches the figure the paper reports (adpcm ≈ 1 kB, g721 ≈
//! 4.7 kB, mpeg ≈ 19.5 kB), and whose loop-nest / call structure and
//! hot-spot distribution follow the real program's shape: adpcm is one
//! tight per-sample kernel, g721 is a cluster of mid-sized predictor
//! routines called from a sample loop, and mpeg2 decode is a wide
//! program with a few very hot kernels (VLD, dequant, IDCT, motion
//! compensation) amid a large body of lukewarm and cold code.
//!
//! Tests pin the code sizes to ±15% of the paper's figures.

use crate::spec::{BenchmarkSpec, Element, FunctionSpec};
use casa_ir::IsaMode;
use Element::{Call, Straight};

fn lp(trips: u64, body: Vec<Element>) -> Element {
    Element::loop_of(trips, body)
}

fn cond(p: f64, t: Vec<Element>, e: Vec<Element>) -> Element {
    Element::cond(p, t, e)
}

/// adpcm (rawcaudio): ≈1 kB of code with a compact hot kernel — the
/// per-sample encode loop and its step-size helper — while the
/// decoder (unused in an encode run) and the I/O code stay cold, as
/// in the real Mediabench run.
pub fn adpcm() -> BenchmarkSpec {
    BenchmarkSpec::new(
        "adpcm",
        IsaMode::Arm,
        vec![
            // 0: main — sample loop; the decoder runs only for rare
            // spot checks, so the hot set is main + coder + stepsize.
            FunctionSpec::new(
                "main",
                vec![
                    Straight(10),
                    lp(1200, vec![Call(1), cond(0.02, vec![Call(2)], vec![])]),
                    Straight(8),
                ],
            )
            .with_data(2048),
            // 1: adpcm_coder — the hot quantization kernel.
            FunctionSpec::new(
                "adpcm_coder",
                vec![
                    Straight(10),
                    cond(0.5, vec![Straight(5)], vec![Straight(5)]),
                    Call(3),
                    Straight(8),
                ],
            )
            .with_data(64),
            // 2: adpcm_decoder — cold in an encode run.
            FunctionSpec::new(
                "adpcm_decoder",
                vec![
                    Straight(30),
                    cond(0.5, vec![Straight(13)], vec![Straight(13)]),
                    Call(3),
                    Straight(26),
                ],
            )
            .with_data(64),
            // 3: step-size table lookup + clamp (hot).
            FunctionSpec::new(
                "stepsize",
                vec![
                    Straight(8),
                    cond(0.06, vec![Straight(6)], vec![]),
                    Straight(6),
                ],
            )
            .with_data(356),
            // 4: file I/O / setup — cold bulk.
            FunctionSpec::new(
                "io_setup",
                vec![
                    Straight(26),
                    cond(0.5, vec![Straight(11)], vec![Straight(11)]),
                    Straight(22),
                ],
            ),
        ],
    )
}

/// g721 (CCITT G.721 ADPCM): ≈4.7 kB, a sample loop over a cluster of
/// predictor-update routines of middling size.
pub fn g721() -> BenchmarkSpec {
    BenchmarkSpec::new(
        "g721",
        IsaMode::Arm,
        vec![
            // 0: main — per-sample encode loop; the decode path runs
            // only for rare spot checks, as in the Mediabench encode
            // run, so the hot set is the encoder cluster.
            FunctionSpec::new(
                "main",
                vec![
                    Straight(41),
                    lp(
                        700,
                        vec![Call(1), cond(0.03, vec![Call(2)], vec![Straight(2)])],
                    ),
                    Straight(29),
                ],
            ),
            // 1: g721_encoder.
            FunctionSpec::new(
                "g721_encoder",
                vec![
                    Straight(19),
                    Call(3), // predictor_zero
                    Call(4), // predictor_pole
                    Call(5), // step_size
                    Call(6), // quantize
                    Call(8), // update
                    Straight(15),
                ],
            ),
            // 2: g721_decoder.
            FunctionSpec::new(
                "g721_decoder",
                vec![
                    Straight(15),
                    Call(3),
                    Call(4),
                    Call(5),
                    Call(7), // reconstruct
                    Call(8),
                    Straight(12),
                ],
            ),
            // 3: predictor_zero — 6-tap FIR via fmult.
            FunctionSpec::new(
                "predictor_zero",
                vec![Straight(9), lp(6, vec![Call(9), Straight(6)]), Straight(8)],
            ),
            // 4: predictor_pole — 2 poles.
            FunctionSpec::new(
                "predictor_pole",
                vec![Straight(8), Call(9), Call(9), Straight(6)],
            ),
            // 5: step_size.
            FunctionSpec::new(
                "step_size",
                vec![
                    Straight(12),
                    cond(0.5, vec![Straight(9)], vec![Straight(19)]),
                    Straight(9),
                ],
            ),
            // 6: quantize — table search loop.
            FunctionSpec::new(
                "quantize",
                vec![
                    Straight(12),
                    lp(4, vec![Straight(8), cond(0.4, vec![Straight(3)], vec![])]),
                    Straight(9),
                ],
            ),
            // 7: reconstruct.
            FunctionSpec::new(
                "reconstruct",
                vec![
                    Straight(15),
                    cond(0.5, vec![Straight(8)], vec![Straight(8)]),
                    Straight(9),
                ],
            ),
            // 8: update — the big state-update routine.
            FunctionSpec::new(
                "update",
                vec![
                    Straight(30),
                    cond(0.3, vec![Straight(15)], vec![Straight(12)]),
                    lp(6, vec![Straight(12)]),
                    cond(0.5, vec![Straight(14)], vec![Straight(11)]),
                    cond(0.2, vec![Straight(19)], vec![Straight(6)]),
                    Straight(27),
                ],
            ),
            // 9: fmult — floating-point-ish multiply helper.
            FunctionSpec::new(
                "fmult",
                vec![
                    Straight(14),
                    cond(0.5, vec![Straight(6)], vec![Straight(6)]),
                    Straight(11),
                ],
            ),
            // 10: tandem_adjust — cold correctness path.
            FunctionSpec::new(
                "tandem_adjust",
                vec![
                    Straight(219),
                    cond(0.5, vec![Straight(131)], vec![Straight(131)]),
                    Straight(176),
                ],
            ),
        ],
    )
}

/// mpeg2 decode: ≈19.5 kB, a wide program whose runtime concentrates
/// in VLD, dequantize, IDCT and motion compensation kernels, with a
/// long tail of header-parsing and error-handling code that is
/// executed rarely or never.
pub fn mpeg() -> BenchmarkSpec {
    // Large cold straights model table-driven / error-path code that
    // contributes size but few fetches.
    BenchmarkSpec::new(
        "mpeg",
        IsaMode::Arm,
        vec![
            // 0: main — frame loop.
            FunctionSpec::new(
                "main",
                vec![
                    Straight(30),
                    Call(14), // sequence header parse (once per run)
                    lp(
                        3, // frames
                        vec![
                            Call(13), // picture header
                            Call(1),  // decode_picture
                            Call(12), // store_frame
                        ],
                    ),
                    Straight(20),
                ],
            ),
            // 1: decode_picture — macroblock loop.
            FunctionSpec::new(
                "decode_picture",
                vec![
                    Straight(24),
                    lp(
                        40, // macroblocks per frame
                        vec![
                            Call(2),  // vld
                            Call(3),  // dequant
                            Call(4),  // idct
                            Call(9),  // motion compensation
                            Call(10), // add_block
                            Call(11), // mb_writeback
                        ],
                    ),
                    Straight(16),
                ],
            ),
            // 2: vld — very branchy Huffman decode.
            FunctionSpec::new(
                "vld",
                vec![
                    Straight(14),
                    lp(
                        8, // coefficients per block
                        vec![
                            cond(
                                0.6,
                                vec![Straight(8)],
                                vec![cond(0.5, vec![Straight(11)], vec![Straight(19)])],
                            ),
                            cond(0.15, vec![Straight(11)], vec![Straight(2)]),
                        ],
                    ),
                    cond(0.05, vec![Straight(40)], vec![]), // escape codes
                    Straight(11),
                ],
            ),
            // 3: dequant — coefficient loop.
            FunctionSpec::new(
                "dequant",
                vec![
                    Straight(11),
                    lp(32, vec![Straight(8), cond(0.3, vec![Straight(4)], vec![])]),
                    Straight(8),
                ],
            ),
            // 4: idct — row passes then column passes.
            FunctionSpec::new(
                "idct",
                vec![
                    Straight(8),
                    lp(8, vec![Call(5)]),      // rows
                    lp(8, vec![Straight(46)]), // columns, inlined kernel
                    Straight(8),
                ],
            ),
            // 5: idct_row — shortcut test plus full butterfly.
            FunctionSpec::new(
                "idct_row",
                vec![
                    Straight(8),
                    cond(0.3, vec![Straight(5)], vec![Straight(52)]),
                    Straight(5),
                ],
            ),
            // 6: ed_error_recovery — cold.
            FunctionSpec::new(
                "error_recovery",
                vec![
                    Straight(60),
                    cond(0.5, vec![Straight(40)], vec![Straight(40)]),
                    Straight(50),
                ],
            ),
            // 7: option_tables — cold table-driven setup.
            FunctionSpec::new(
                "option_tables",
                vec![
                    Straight(120),
                    cond(0.5, vec![Straight(60)], vec![Straight(60)]),
                    Straight(100),
                ],
            ),
            // 8: cold utility bulk to reach 19.5 kB of code.
            FunctionSpec::new(
                "util_a",
                vec![
                    Straight(144),
                    cond(0.5, vec![Straight(81)], vec![Straight(81)]),
                    Straight(108),
                ],
            ),
            // 9: motion_comp — forward/backward/bidirectional forms.
            FunctionSpec::new(
                "motion_comp",
                vec![
                    Straight(18),
                    cond(
                        0.5,
                        vec![lp(8, vec![Straight(20)])], // field pred
                        vec![cond(
                            0.5,
                            vec![lp(8, vec![Straight(24)])],
                            vec![lp(8, vec![Straight(30)])],
                        )],
                    ),
                    Straight(14),
                ],
            ),
            // 10: add_block — saturation loop.
            FunctionSpec::new(
                "add_block",
                vec![
                    Straight(10),
                    lp(16, vec![Straight(11), cond(0.1, vec![Straight(3)], vec![])]),
                    Straight(8),
                ],
            ),
            // 11: mb_writeback — warm straight-line per-macroblock
            // bookkeeping. Sits right after the tight kernels, so its
            // image wraps the 2 kB cache and thrashes against the
            // macroblock loop's entry code. High miss-to-fetch ratio,
            // low fetch density: invisible to a fetch-count knapsack,
            // prime CASA material.
            FunctionSpec::new(
                "mb_writeback",
                vec![
                    Straight(46),
                    cond(0.5, vec![Straight(20)], vec![Straight(20)]),
                    Straight(32),
                ],
            ),
            // 12: store_frame — output conversion loop.
            FunctionSpec::new(
                "store_frame",
                vec![Straight(10), lp(24, vec![Straight(9)]), Straight(8)],
            ),
            // 13: picture_header — lukewarm parse code.
            FunctionSpec::new(
                "picture_header",
                vec![
                    Straight(40),
                    cond(0.4, vec![Straight(25)], vec![Straight(20)]),
                    cond(0.2, vec![Straight(30)], vec![]),
                    Straight(30),
                ],
            ),
            // 14: sequence_header — run-once parse + table init.
            FunctionSpec::new(
                "sequence_header",
                vec![
                    Straight(50),
                    lp(4, vec![Straight(16)]),
                    Call(7),
                    cond(0.3, vec![Call(6)], vec![]),
                    Straight(40),
                ],
            ),
            FunctionSpec::new(
                "util_b",
                vec![
                    Straight(135),
                    cond(0.5, vec![Straight(90)], vec![Straight(72)]),
                    Straight(126),
                ],
            ),
            FunctionSpec::new(
                "util_c",
                vec![
                    Straight(153),
                    cond(0.5, vec![Straight(76)], vec![Straight(86)]),
                    Straight(99),
                ],
            ),
            FunctionSpec::new(
                "util_d",
                vec![
                    Straight(126),
                    cond(0.5, vec![Straight(68)], vec![Straight(76)]),
                    Straight(117),
                ],
            ),
            FunctionSpec::new(
                "util_e",
                vec![
                    Straight(140),
                    cond(0.5, vec![Straight(86)], vec![Straight(68)]),
                    Straight(112),
                ],
            ),
            FunctionSpec::new(
                "util_f",
                vec![
                    Straight(130),
                    cond(0.5, vec![Straight(72)], vec![Straight(81)]),
                    Straight(122),
                ],
            ),
            FunctionSpec::new(
                "util_g",
                vec![
                    Straight(117),
                    cond(0.5, vec![Straight(63)], vec![Straight(68)]),
                    Straight(94),
                ],
            ),
            FunctionSpec::new(
                "util_h",
                vec![
                    Straight(112),
                    cond(0.5, vec![Straight(58)], vec![Straight(63)]),
                    Straight(90),
                ],
            ),
        ],
    )
}

/// epic (image compression, **beyond the paper's evaluation**): ≈8 kB
/// of code dominated by separable wavelet-filter passes — long
/// strided loops with strong burst locality — plus quantization and
/// run-length coding. Included as a fourth program for users; the
/// reproduced tables use only the paper's three.
pub fn epic() -> BenchmarkSpec {
    BenchmarkSpec::new(
        "epic",
        IsaMode::Arm,
        vec![
            // 0: main — pyramid levels.
            FunctionSpec::new(
                "main",
                vec![
                    Straight(24),
                    lp(
                        4, // pyramid levels
                        vec![Call(1), Call(2), Call(3)],
                    ),
                    Call(4),
                    Straight(18),
                ],
            )
            .with_data(4096),
            // 1: filter_rows — horizontal wavelet pass.
            FunctionSpec::new(
                "filter_rows",
                vec![
                    Straight(12),
                    lp(32, vec![Straight(26), cond(0.1, vec![Straight(6)], vec![])]),
                    Straight(10),
                ],
            )
            .with_data(512),
            // 2: filter_cols — vertical wavelet pass (strided).
            FunctionSpec::new(
                "filter_cols",
                vec![Straight(12), lp(32, vec![Straight(30)]), Straight(10)],
            )
            .with_data(512),
            // 3: quantize_band — branchy quantization.
            FunctionSpec::new(
                "quantize_band",
                vec![
                    Straight(10),
                    lp(
                        24,
                        vec![
                            Straight(8),
                            cond(0.5, vec![Straight(5)], vec![Straight(4)]),
                            cond(0.2, vec![Straight(6)], vec![]),
                        ],
                    ),
                    Straight(8),
                ],
            )
            .with_data(128),
            // 4: run_length_encode — output pass.
            FunctionSpec::new(
                "run_length_encode",
                vec![
                    Straight(14),
                    lp(48, vec![cond(0.6, vec![Straight(4)], vec![Straight(9)])]),
                    Straight(12),
                ],
            )
            .with_data(256),
            // 5: bit_io — cold buffered output helpers.
            FunctionSpec::new(
                "bit_io",
                vec![
                    Straight(90),
                    cond(0.5, vec![Straight(45)], vec![Straight(45)]),
                    Straight(70),
                ],
            ),
            // 6: header + setup — cold.
            FunctionSpec::new(
                "setup",
                vec![
                    Straight(170),
                    cond(0.5, vec![Straight(90)], vec![Straight(80)]),
                    Straight(150),
                ],
            ),
            // 7: error paths — cold bulk.
            FunctionSpec::new(
                "error_paths",
                vec![
                    Straight(260),
                    cond(0.5, vec![Straight(130)], vec![Straight(120)]),
                    Straight(210),
                ],
            ),
        ],
    )
}

/// All three paper benchmarks, in Table 1 order.
pub fn all() -> Vec<BenchmarkSpec> {
    vec![adpcm(), g721(), mpeg()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Walker;

    fn code_size(spec: &BenchmarkSpec) -> u32 {
        spec.compile().program.code_size()
    }

    #[test]
    fn adpcm_size_matches_paper() {
        let s = code_size(&adpcm());
        // Paper: 1 kB. Accept ±15%.
        assert!((870..=1180).contains(&s), "adpcm code size {s} B");
    }

    #[test]
    fn g721_size_matches_paper() {
        let s = code_size(&g721());
        // Paper: 4.7 kB ≈ 4813 B. Accept ±15%.
        assert!((4090..=5530).contains(&s), "g721 code size {s} B");
    }

    #[test]
    fn mpeg_size_matches_paper() {
        let s = code_size(&mpeg());
        // Paper: 19.5 kB ≈ 19968 B. Accept ±15%.
        assert!((16970..=22960).contains(&s), "mpeg code size {s} B");
    }

    #[test]
    fn all_benchmarks_execute_and_conserve_flow() {
        for spec in all() {
            let w = spec.compile();
            let walker = Walker::new(&w.program, &w.behaviors);
            let (exec, profile) = walker
                .run(7)
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.program.name()));
            exec.check(&w.program)
                .unwrap_or_else(|e| panic!("{}: {e}", w.program.name()));
            profile
                .check_flow(&w.program)
                .unwrap_or_else(|e| panic!("{}: {e}", w.program.name()));
            assert!(
                profile.total_fetches(&w.program) > 10_000,
                "{} too short: {} fetches",
                w.program.name(),
                profile.total_fetches(&w.program)
            );
        }
    }

    #[test]
    fn all_natural_loops_is_the_per_function_concatenation() {
        use casa_ir::loops::{all_natural_loops, natural_loops};
        for spec in all() {
            for scale in [1, 2] {
                let mut spec = spec.clone();
                spec.scale_trips(scale);
                let p = spec.compile().program;
                let per_function: Vec<_> = p
                    .functions()
                    .iter()
                    .flat_map(|f| natural_loops(&p, f.id()))
                    .collect();
                assert!(!per_function.is_empty(), "{} has loops", p.name());
                assert_eq!(
                    all_natural_loops(&p),
                    per_function,
                    "{} at scale {scale}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn mpeg_has_hot_and_cold_code() {
        let w = mpeg().compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        let (_, profile) = walker.run(3).unwrap();
        let executed: usize = w
            .program
            .blocks()
            .iter()
            .filter(|b| profile.block_count(b.id()) > 0)
            .count();
        let total = w.program.blocks().len();
        // Wide program: a sizeable fraction of blocks is cold.
        assert!(
            executed < total,
            "expected cold blocks: {executed}/{total} executed"
        );
        // And the hottest block dominates the coldest executed one.
        let max = w
            .program
            .blocks()
            .iter()
            .map(|b| profile.block_count(b.id()))
            .max()
            .unwrap();
        assert!(max > 1000, "hot spot expected, max count {max}");
    }

    #[test]
    fn epic_extra_benchmark_runs() {
        let spec = epic();
        let w = spec.compile();
        let size = w.program.code_size();
        assert!((6000..=10000).contains(&size), "epic code size {size} B");
        assert_eq!(w.data_objects.len(), 5);
        let walker = Walker::new(&w.program, &w.behaviors);
        let (exec, profile, data) = walker.run_with_data(&w, 7).unwrap();
        exec.check(&w.program).expect("legal");
        profile.check_flow(&w.program).expect("flow conserved");
        assert!(!data.is_empty());
        // epic is deliberately NOT part of the paper set.
        assert!(!all().iter().any(|s| s.name == "epic"));
    }

    #[test]
    fn benchmarks_have_distinct_names() {
        let names: Vec<String> = all().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["adpcm", "g721", "mpeg"]);
    }
}
