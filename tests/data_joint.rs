//! Integration tests for the joint code + data extension on the real
//! adpcm workload (which carries its sample buffer, coder state and
//! step-size table as data objects).

use casa::core::data_alloc::run_joint_flow;
use casa::energy::TechParams;
use casa::mem::cache::CacheConfig;
use casa::workloads::{mediabench, Walker};

struct Setup {
    workload: casa::workloads::Workload,
    exec: casa::mem::ExecutionTrace,
    profile: casa::ir::Profile,
    data: casa::mem::DataTrace,
    sizes: Vec<u32>,
}

fn setup() -> Setup {
    let workload = mediabench::adpcm().compile();
    let walker = Walker::new(&workload.program, &workload.behaviors);
    let (exec, profile, data) = walker
        .run_with_data(&workload, 2004)
        .expect("adpcm runs with data");
    let sizes: Vec<u32> = workload.data_objects.iter().map(|d| d.size).collect();
    Setup {
        workload,
        exec,
        profile,
        data,
        sizes,
    }
}

#[test]
fn adpcm_carries_its_real_data_objects() {
    let s = setup();
    let names: Vec<&str> = s
        .workload
        .data_objects
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    assert!(names.contains(&"stepsize.data"), "{names:?}");
    assert!(names.contains(&"main.data"));
    assert!(!s.data.is_empty(), "loads/stores must touch the arrays");
}

#[test]
fn joint_never_loses_to_code_only_in_the_model() {
    let s = setup();
    let cache = CacheConfig::direct_mapped(128, 16);
    for spm in [128u32, 256, 512] {
        let code_only = run_joint_flow(
            &s.workload.program,
            &s.profile,
            &s.exec,
            &s.data,
            &s.sizes,
            cache,
            spm,
            false,
            &TechParams::default(),
        )
        .expect("code-only");
        let joint = run_joint_flow(
            &s.workload.program,
            &s.profile,
            &s.exec,
            &s.data,
            &s.sizes,
            cache,
            spm,
            true,
            &TechParams::default(),
        )
        .expect("joint");
        // Exactness in the model: the joint search space contains the
        // code-only solution.
        assert!(
            joint.predicted_energy <= code_only.predicted_energy + 1e-6,
            "spm {spm}: joint predicted {} vs code-only {}",
            joint.predicted_energy,
            code_only.predicted_energy
        );
        assert!(joint.code_sim.check_fetch_identity());
        assert!(joint.data_sim.check_access_identity());
        // Shared capacity respected.
        let code_bytes: u32 = joint
            .traces
            .traces()
            .iter()
            .enumerate()
            .filter(|(i, _)| joint.code_on_spm[*i])
            .map(|(_, t)| t.code_size())
            .sum();
        let data_bytes: u32 = s
            .sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| joint.data_on_spm[*i])
            .map(|(_, &b)| b)
            .sum();
        assert!(code_bytes + data_bytes <= spm, "spm {spm}");
    }
}

#[test]
fn data_stream_is_deterministic() {
    let s1 = setup();
    let s2 = setup();
    assert_eq!(s1.data, s2.data);
    assert_eq!(s1.exec, s2.exec);
}

#[test]
fn data_accesses_respect_object_bounds() {
    let s = setup();
    for a in s.data.accesses() {
        assert!(a.object < s.sizes.len());
        assert!(a.offset < s.sizes[a.object]);
        assert_eq!(a.offset % 4, 0, "word-aligned sweeps");
    }
}
