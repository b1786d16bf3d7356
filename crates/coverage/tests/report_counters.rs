//! `report` resolves every fault class from the verdict table and never
//! touches the scalar fault-local arena; the engine's process-wide
//! counters say so. The only test in its binary, so no other test moves
//! the counters while it reads them.

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

/// A mixed SAF/TF/CF report counts every fault as table-resolved, adds
/// no scalar fault and leaves the arena pools alone; the `verdicts`
/// stream over the same universe runs every fault on the scalar arena.
#[test]
fn a_mixed_report_runs_no_fault_on_the_scalar_arena() {
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

    let (packed, batches, scalar, idle) = (
        counter("twm_coverage_packed_faults_total"),
        counter("twm_coverage_packed_batches_total"),
        counter("twm_coverage_scalar_faults_total"),
        idle_arenas(),
    );
    let report = engine.report(&faults).unwrap();
    assert_eq!(report.total_faults(), faults.len());
    assert_eq!(
        counter("twm_coverage_packed_faults_total") - packed,
        faults.len() as u64
    );
    assert_eq!(
        counter("twm_coverage_packed_batches_total") - batches,
        faults.len().div_ceil(64) as u64
    );
    assert_eq!(counter("twm_coverage_scalar_faults_total"), scalar);
    assert_eq!(idle_arenas(), idle, "a report checks no arena in or out");

    assert_eq!(engine.verdicts(&faults).count(), faults.len());
    assert_eq!(
        counter("twm_coverage_scalar_faults_total") - scalar,
        faults.len() as u64
    );
    assert!(
        idle_arenas() > idle,
        "the stream's arenas return to the pool"
    );
}
