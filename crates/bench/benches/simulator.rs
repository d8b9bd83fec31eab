//! Substrate throughput: raw cache accesses, full fetch-engine
//! replay (the memsim substitute), and trace formation.

use casa_bench::experiments::LOOP_CACHE_SLOTS;
use casa_bench::runner::prepared;
use casa_core::ross::allocate_loop_cache;
use casa_ir::Profile;
use casa_mem::cache::{Cache, CacheConfig, ReplacementPolicy};
use casa_mem::{simulate, HierarchyConfig};
use casa_trace::trace::{form_traces, TraceConfig};
use casa_trace::Layout;
use casa_workloads::mediabench;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache/access");
    let addrs: Vec<u32> = (0..4096u32).map(|i| (i * 52) % 16384).collect();
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for (label, cfg) in [
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
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut cache = Cache::new(cfg);
                for &a in &addrs {
                    black_box(cache.access(a));
                }
                cache.misses()
            })
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
    let mut group = c.benchmark_group("fetch_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(w.profile.total_fetches(&w.program)));
    for (label, traces, layout, cfg) in [
        ("g721_full_replay", &traces, &layout, &cfg),
        ("g721_loop_cache_replay", &lc_traces, &lc_layout, &lc_cfg),
        ("g721_4way_lru_replay", &traces, &layout, &lru_cfg),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(simulate(&w.program, traces, layout, &w.exec, cfg).expect("simulates"))
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
    bench_trace_formation
);
criterion_main!(benches);
