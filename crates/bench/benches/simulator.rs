//! Substrate throughput: raw cache accesses, full fetch-engine
//! replay (the memsim substitute), the execution walk (the ARMulator
//! substitute), and trace formation.

use casa_bench::experiments::LOOP_CACHE_SLOTS;
use casa_bench::runner::prepared;
use casa_core::flow::{run_spm_flow, AllocatorKind, FlowConfig, FlowCtx, FlowReport};
use casa_core::ross::allocate_loop_cache;
use casa_ir::Profile;
use casa_mem::cache::{Cache, CacheConfig, ReplacementPolicy};
use casa_mem::{
    simulate, simulate_stream, simulate_stream_observed, HierarchyConfig, LineStream, NullRecorder,
};
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::Layout;
use casa_workloads::{mediabench, Walker};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache/access");
    let addrs: Vec<u32> = (0..4096u32).map(|i| (i * 52) % 16384).collect();
    // A replay's common case: each line is visited several times in a
    // row (one address per 4-byte fetch) and loops revisit it soon, so
    // most lookups repeat the line their set touched last.
    let repeats: Vec<u32> = (0..4096u32)
        .map(|i| ((i / 4) % 96) * 16 + (i % 4) * 4 + (i / 384) * 1024)
        .collect();
    group.throughput(Throughput::Elements(addrs.len() as u64));
    let configs = [
        ("dm_2k", CacheConfig::direct_mapped(2048, 16)),
        (
            "4way_2k_lru",
            CacheConfig {
                size: 2048,
                line_size: 16,
                associativity: 4,
                policy: ReplacementPolicy::Lru,
            },
        ),
        (
            "4way_2k_rr",
            CacheConfig {
                size: 2048,
                line_size: 16,
                associativity: 4,
                policy: ReplacementPolicy::RoundRobin,
            },
        ),
    ];
    for (suffix, stream) in [("", &addrs), ("_repeat_last_line", &repeats)] {
        for (label, cfg) in configs {
            group.bench_function(format!("{label}{suffix}"), |b| {
                b.iter(|| {
                    let mut cache = Cache::new(cfg);
                    for &a in stream {
                        black_box(cache.access(a));
                    }
                    cache.misses()
                })
            });
        }
    }
    group.finish();
}

fn bench_workload_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_walk");
    group.sample_size(10);
    for (label, mut spec) in [
        ("g721_scale2", mediabench::g721()),
        ("mpeg_scale2", mediabench::mpeg()),
    ] {
        spec.scale_trips(2);
        let w = spec.compile();
        let walker = Walker::new(&w.program, &w.behaviors);
        group.bench_function(label, |b| {
            b.iter(|| black_box(walker.run(2004).expect("walk exits")))
        });
    }
    group.finish();
}

fn bench_fetch_engine(c: &mut Criterion) {
    let w = prepared(mediabench::g721(), 1, 2004);
    let traces = form_traces(
        &w.program,
        &w.profile,
        TraceConfig::new(1024, 16),
        &casa_obs::Obs::disabled(),
    );
    let layout = Layout::initial(&w.program, &traces);
    let dm = CacheConfig::direct_mapped(1024, 16);
    let cfg = HierarchyConfig::spm_system(dm, 1024);
    // The loop-cache flow's final run: Ross's preload at 256 B, where
    // runs also end at preload-range bounds.
    let lc_traces = form_traces(
        &w.program,
        &w.profile,
        TraceConfig::new(256, 16),
        &casa_obs::Obs::disabled(),
    );
    let lc_layout = Layout::initial(&w.program, &lc_traces);
    let preload = allocate_loop_cache(
        &w.program,
        &w.profile,
        &lc_traces,
        &lc_layout,
        256,
        LOOP_CACHE_SLOTS,
    );
    let lc_cfg = HierarchyConfig::loop_cache_system(dm, 256, LOOP_CACHE_SLOTS, preload.ranges());
    // The set-associative victim path the direct-mapped ids never take.
    let lru_cfg = HierarchyConfig::spm_system(
        CacheConfig {
            associativity: 4,
            ..dm
        },
        1024,
    );
    // The scratchpad cells' final simulations: the layouts CASA (copy)
    // and Steinke (move) produce at g721@1024, whose scratchpad-resident
    // blocks the replay folds in from block counts.
    let final_flow = |allocator| -> FlowReport {
        run_spm_flow(
            &w.program,
            &w.profile,
            &w.exec,
            &FlowConfig::new(dm, 1024, allocator),
            &FlowCtx::default(),
        )
        .expect("g721@1024 flow runs")
    };
    let copy = final_flow(AllocatorKind::CasaBb);
    let moved = final_flow(AllocatorKind::Steinke);
    let mut group = c.benchmark_group("fetch_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(w.profile.total_fetches(&w.program)));
    let cases = [
        ("g721_full_replay", &traces, &layout, &cfg),
        ("g721_loop_cache_replay", &lc_traces, &lc_layout, &lc_cfg),
        ("g721_4way_lru_replay", &traces, &layout, &lru_cfg),
        ("g721_copy_final_replay", &copy.traces, &copy.layout, &cfg),
        ("g721_move_final_replay", &moved.traces, &moved.layout, &cfg),
    ];
    // `simulate` compiles a line stream and replays it once.
    for (label, traces, layout, cfg) in cases {
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(simulate(&w.program, traces, layout, &w.exec, cfg).expect("simulates"))
            })
        });
    }
    // The two halves apart: the compile, and each layout replayed from
    // one stream compiled for its trace set beforehand (the 1024 B
    // traces' stream, compiled for the 4-way cache, the one with the
    // fewest sets, serves four of the five; the loop-cache run's 256 B
    // traces have their own). As in the flow, the initial layout's
    // replay is the profiling run, which attributes conflicts, and the
    // other four are final runs, which only count.
    group.bench_function("g721_compile", |b| {
        b.iter(|| black_box(LineStream::compile(&w.program, &traces, &w.exec, &lru_cfg)))
    });
    let stream = LineStream::compile(&w.program, &traces, &w.exec, &lru_cfg);
    let lc_stream = LineStream::compile(&w.program, &lc_traces, &w.exec, &lc_cfg);
    for (label, traces, layout, cfg) in cases {
        let stream = if std::ptr::eq(traces, &lc_traces) {
            &lc_stream
        } else {
            &stream
        };
        let profiling = label == "g721_full_replay";
        group.bench_function(format!("{label}_from_stream"), |b| {
            b.iter(|| {
                let out = if profiling {
                    simulate_stream(stream, traces, layout, cfg)
                } else {
                    simulate_stream_observed(stream, traces, layout, cfg, NullRecorder).map(|r| r.0)
                };
                black_box(out.expect("replays"))
            })
        });
    }
    group.finish();
}

fn bench_trace_formation(c: &mut Criterion) {
    let w = prepared(mediabench::mpeg(), 1, 2004);
    let mut group = c.benchmark_group("trace_formation");
    group.bench_function("mpeg_19k", |b| {
        b.iter(|| {
            black_box(form_traces(
                &w.program,
                &w.profile,
                TraceConfig::new(1024, 16),
                &casa_obs::Obs::disabled(),
            ))
        })
    });
    // Cold profile: formation must behave with all-zero counts too.
    let empty = Profile::new();
    group.bench_function("mpeg_19k_cold_profile", |b| {
        b.iter(|| {
            black_box(form_traces(
                &w.program,
                &empty,
                TraceConfig::new(1024, 16),
                &casa_obs::Obs::disabled(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_access,
    bench_fetch_engine,
    bench_workload_walk,
    bench_trace_formation
);
criterion_main!(benches);
