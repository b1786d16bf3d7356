//! `report`, `verdicts` and `compare` resolve every fault class from the
//! verdict table and never touch an arena, while `injection_detected`
//! sweeps on a pooled one; the engine's process-wide counters say so. The
//! only test in its binary, so no other test moves the counters while it
//! reads them.

use twm_coverage::universe::{CouplingScope, UniverseBuilder};
use twm_coverage::{CoverageEngine, Strategy};
use twm_march::algorithms::march_c_minus;
use twm_mem::MemoryConfig;

fn counter(name: &str) -> u64 {
    twm_obs::global().counter(name, &[]).get()
}

fn idle_arenas() -> i64 {
    twm_obs::global()
        .gauge("twm_coverage_pool_idle_arenas", &[])
        .get()
}

/// A mixed SAF/TF/CF report counts every fault and chunk as
/// table-resolved and leaves the arena pools alone; the `verdicts` stream
/// and a `compare` over the same universe add their faults to the same
/// counters, and only `injection_detected` returns an arena to the pool.
#[test]
fn table_paths_count_every_fault_and_check_out_no_arena() {
    let config = MemoryConfig::new(8, 8).unwrap();
    let faults = UniverseBuilder::new(config)
        .all_classes()
        .coupling_scope(CouplingScope::SameWordAndAdjacent)
        .sample_per_class(100, 3)
        .build();
    assert!(faults.iter().any(|fault| fault.aggressor().is_some()));
    assert!(faults.iter().any(|fault| fault.aggressor().is_none()));
    let engine = CoverageEngine::builder(config)
        .test(&march_c_minus())
        .strategy(Strategy::Parallel { threads: 2 })
        .build()
        .unwrap();
    let chunks = faults.len().div_ceil(64) as u64;
    let table_counts = || {
        (
            counter("twm_coverage_packed_faults_total"),
            counter("twm_coverage_packed_batches_total"),
        )
    };

    let (packed, batches) = table_counts();
    let idle = idle_arenas();
    let report = engine.report(&faults).unwrap();
    assert_eq!(report.total_faults(), faults.len());
    assert_eq!(
        table_counts(),
        (packed + faults.len() as u64, batches + chunks)
    );
    assert_eq!(idle_arenas(), idle, "a report checks no arena in or out");

    // The stream fits one window here: one resolver pass.
    let (packed, batches) = table_counts();
    assert_eq!(engine.verdicts(&faults).count(), faults.len());
    assert_eq!(
        table_counts(),
        (packed + faults.len() as u64, batches + chunks)
    );
    let (packed, batches) = table_counts();
    assert!(engine
        .compare(&engine, &faults)
        .unwrap()
        .disagreements
        .is_empty());
    assert_eq!(
        table_counts(),
        (packed + 2 * faults.len() as u64, batches + 2 * chunks)
    );
    assert_eq!(idle_arenas(), idle, "no table path checks an arena out");

    let (packed, batches) = table_counts();
    assert!(engine.injection_detected(&faults[..3]).unwrap());
    assert_eq!(table_counts(), (packed, batches));
    assert_eq!(
        idle_arenas(),
        idle + 1,
        "an injection's arena returns to the pool"
    );
}
