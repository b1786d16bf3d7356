//! Integration tests for the fleet service: wire round-trips for every
//! request/response variant, dictionary persistence, batched diagnosis
//! determinism (parallel vs serial, interleaved vs sequential) and the
//! verdict taxonomy.

use std::sync::Arc;

use proptest::prelude::*;
use twm_bist::run_scheme_session_staged;
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_fleet::{
    wire, BatchReport, CacheMetrics, DeviceOutcome, DeviceReport, DeviceVerdict, Diagnosis,
    DictionaryStore, FleetConfig, FleetService, FleetStatistics, PersistedShard, Request, Response,
    ShardInfo, ShardKey, SignatureDictionary, SignatureTrail, UniverseSpec,
};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::{Fault, FaultSet, FaultyMemory, MemoryConfig, Word};
use twm_repair::DictionaryOptions;

const SEED: u64 = 0xF1EE7;

fn config() -> MemoryConfig {
    MemoryConfig::new(6, 4).unwrap()
}

fn content() -> ContentPolicy {
    ContentPolicy::Random { seed: SEED }
}

fn build_dictionary(scheme: SchemeId, source: &MarchTest) -> SignatureDictionary {
    let registry = SchemeRegistry::all(config().width()).unwrap();
    let engine = CoverageEngine::for_scheme(registry.get(scheme).unwrap(), source, config())
        .unwrap()
        .content(content())
        .strategy(Strategy::Serial)
        .build()
        .unwrap();
    let universe = UniverseBuilder::new(config())
        .stuck_at()
        .transition()
        .build();
    SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap()
}

/// What a fielded device would report: the staged-session trail of its
/// (possibly faulty) memory under the shard's scheme.
fn device_trail(scheme: SchemeId, source: &MarchTest, faults: &[Fault]) -> SignatureTrail {
    let registry = SchemeRegistry::all(config().width()).unwrap();
    let transform = registry.get(scheme).unwrap().transform(source).unwrap();
    let mut memory =
        FaultyMemory::with_faults(config(), FaultSet::from_faults(faults.iter().copied())).unwrap();
    memory.fill_random(SEED);
    let misr = twm_bist::Misr::standard(config().width());
    let staged = run_scheme_session_staged(&transform, &mut memory, misr).unwrap();
    SignatureTrail::new(staged.signature_trail())
}

/// A mixed 2-shard fleet: clean devices, single faults, an unknown-shard
/// report and an off-dictionary trail.
fn fleet_reports(devices: usize) -> Vec<DeviceReport> {
    let shard_a = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let shard_b = ShardKey::new(config(), SchemeId::Scheme1, &mats_plus());
    let ghost = ShardKey::new(config(), SchemeId::Tomt, &march_c_minus());
    (0..devices)
        .map(|index| {
            let (shard, scheme, source): (ShardKey, SchemeId, MarchTest) = if index % 2 == 0 {
                (shard_a, SchemeId::TwmTa, march_c_minus())
            } else {
                (shard_b, SchemeId::Scheme1, mats_plus())
            };
            let words = config().words();
            let width = config().width();
            let (shard, trail) = match index % 5 {
                // A healthy device.
                0 => (shard, device_trail(scheme, &source, &[])),
                // A report for a shard nobody registered.
                1 => (ghost, device_trail(SchemeId::Tomt, &march_c_minus(), &[])),
                // A trail no indexed injection produces (wrong content
                // seed drifts every signature).
                2 => {
                    let mut drifted: Vec<Word> =
                        device_trail(scheme, &source, &[]).iter().collect();
                    for word in &mut drifted {
                        *word = word.with_bit(0, !word.bit(0));
                    }
                    (shard, SignatureTrail::new(drifted))
                }
                // Single stuck-at / transition defects.
                3 => {
                    let cell = twm_mem::BitAddress::new(index % words, index % width);
                    (
                        shard,
                        device_trail(scheme, &source, &[Fault::stuck_at(cell, index % 3 == 0)]),
                    )
                }
                _ => {
                    let cell = twm_mem::BitAddress::new((index * 3) % words, (index * 7) % width);
                    (
                        shard,
                        device_trail(
                            scheme,
                            &source,
                            &[Fault::transition(cell, twm_mem::Transition::Rising)],
                        ),
                    )
                }
            };
            DeviceReport {
                device: format!("dev-{index:03}"),
                shard,
                trail,
                spares: 1 + index % 2,
            }
        })
        .collect()
}

fn service(strategy: Strategy) -> FleetService {
    let service = FleetService::new(FleetConfig {
        strategy,
        ..FleetConfig::default()
    })
    .unwrap();
    let registered = service.handle(Request::RegisterDictionary {
        source: march_c_minus(),
        dictionary: build_dictionary(SchemeId::TwmTa, &march_c_minus()),
    });
    assert!(matches!(registered, Response::Registered { .. }));
    let registered = service.handle(Request::RegisterDictionary {
        source: mats_plus(),
        dictionary: build_dictionary(SchemeId::Scheme1, &mats_plus()),
    });
    assert!(matches!(registered, Response::Registered { .. }));
    service
}

fn wire_round_trip_request(request: &Request) {
    let bytes = wire::to_bytes(request);
    let back: Request = wire::from_bytes(&bytes).unwrap();
    assert_eq!(&back, request);
}

fn wire_round_trip_response(response: &Response) {
    let bytes = wire::to_bytes(response);
    let back: Response = wire::from_bytes(&bytes).unwrap();
    assert_eq!(&back, response);
}

/// Satellite: every request and response variant survives the wire
/// format, including a full `SignatureDictionary` payload.
#[test]
fn every_request_and_response_variant_round_trips_on_the_wire() {
    let dictionary = build_dictionary(SchemeId::TwmTa, &march_c_minus());
    let shard = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let reports = fleet_reports(6);

    wire_round_trip_request(&Request::RegisterDictionary {
        source: march_c_minus(),
        dictionary: dictionary.clone(),
    });
    wire_round_trip_request(&Request::BuildDictionary {
        scheme: SchemeId::Scheme1,
        source: mats_plus(),
        config: config(),
        content: content(),
        universe: UniverseSpec::default(),
    });
    wire_round_trip_request(&Request::EvictDictionary { shard });
    wire_round_trip_request(&Request::ListShards);
    wire_round_trip_request(&Request::DiagnoseBatch {
        reports: reports.clone(),
    });
    wire_round_trip_request(&Request::ExportShard { shard });
    wire_round_trip_request(&Request::ImportShard {
        bytes: vec![1, 2, 3],
    });
    wire_round_trip_request(&Request::Statistics);
    wire_round_trip_request(&Request::CacheMetrics);

    // Responses: take real ones from a live service where possible.
    let service = service(Strategy::Serial);
    let batch = service.handle(Request::DiagnoseBatch { reports });
    assert!(matches!(batch, Response::Batch(_)));
    wire_round_trip_response(&batch);
    wire_round_trip_response(&service.handle(Request::ListShards));
    wire_round_trip_response(&service.handle(Request::ExportShard { shard }));
    wire_round_trip_response(&service.handle(Request::Statistics));
    wire_round_trip_response(&service.handle(Request::CacheMetrics));
    wire_round_trip_response(&service.handle(Request::EvictDictionary { shard }));
    wire_round_trip_response(&Response::Registered {
        shard,
        classes: dictionary.classes().len(),
        indexed: dictionary.stats().indexed,
    });
    wire_round_trip_response(&Response::Error {
        message: "boom".to_string(),
    });
}

/// Satellite: a dictionary registered, exported, dropped and re-imported
/// is the same dictionary — and diagnoses identically.
#[test]
fn shard_export_import_round_trips_the_dictionary() {
    let mut store = DictionaryStore::new();
    let dictionary = build_dictionary(SchemeId::TwmTa, &march_c_minus());
    let key = store
        .register(march_c_minus(), Arc::new(dictionary.clone()))
        .unwrap();
    let bytes = store.export(key).unwrap();

    // The persisted form itself round-trips value-identically.
    let persisted: PersistedShard = wire::from_bytes(&bytes).unwrap();
    assert_eq!(persisted.dictionary, dictionary);
    assert_eq!(persisted.source, march_c_minus());

    let mut restored = DictionaryStore::new();
    let restored_key = restored.import(&bytes).unwrap();
    assert_eq!(restored_key, key);
    assert_eq!(
        &**restored
            .get(key)
            .unwrap()
            .dictionary
            .resident()
            .expect("imports register resident"),
        &dictionary
    );

    // Duplicate registration is rejected, eviction makes room.
    assert!(restored.import(&bytes).is_err());
    assert!(restored.evict(key));
    assert!(restored.import(&bytes).is_ok());
}

/// Acceptance: a `DiagnoseBatch` over 80 devices across 2 shards is
/// bit-identical between the serial and parallel fan-out paths.
#[test]
fn batched_diagnosis_is_bit_identical_to_serial() {
    let reports = fleet_reports(80);
    let serial = service(Strategy::Serial).handle(Request::DiagnoseBatch {
        reports: reports.clone(),
    });
    for threads in [2usize, 3, 8] {
        let parallel = service(Strategy::Parallel { threads }).handle(Request::DiagnoseBatch {
            reports: reports.clone(),
        });
        assert_eq!(parallel, serial, "batch drifted at {threads} threads");
    }

    // The batch exercises every verdict arm.
    let Response::Batch(BatchReport {
        outcomes,
        statistics,
    }) = serial
    else {
        panic!("expected a batch response");
    };
    assert_eq!(outcomes.len(), 80);
    assert!(statistics.clean > 0);
    assert!(statistics.unknown_shard > 0);
    assert!(statistics.unknown_trail > 0);
    assert!(statistics.diagnosed > 0);
    assert!(statistics.verified_clean > 0);
    assert!(!statistics.fault_classes.is_empty());
    assert!(!statistics.repair_rate_curve().is_empty());
    // Outcomes come back in submission order.
    for (index, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.device, format!("dev-{index:03}"));
    }
}

/// Single-fault devices with a spare get a fully-repairing, re-verified
/// plan whose assignment covers the faulty word.
#[test]
fn diagnosed_devices_get_verified_repair_plans() {
    let service = service(Strategy::Serial);
    let source = march_c_minus();
    let shard = ShardKey::new(config(), SchemeId::TwmTa, &source);
    let cell = twm_mem::BitAddress::new(3, 2);
    let report = DeviceReport {
        device: "unit".to_string(),
        shard,
        trail: device_trail(SchemeId::TwmTa, &source, &[Fault::stuck_at(cell, true)]),
        spares: 2,
    };
    let Response::Batch(batch) = service.handle(Request::DiagnoseBatch {
        reports: vec![report],
    }) else {
        panic!("expected a batch response");
    };
    let DeviceVerdict::Diagnosed(Diagnosis {
        defects,
        ambiguity,
        plan,
        predicted_clean,
    }) = &batch.outcomes[0].verdict
    else {
        panic!("expected a diagnosis, got {:?}", batch.outcomes[0].verdict);
    };
    assert!(*ambiguity >= 1);
    assert!(defects.iter().any(|defect| defect.cell.word == cell.word));
    assert!(plan.fully_repairs());
    assert!(plan
        .assignments
        .iter()
        .any(|assignment| assignment.word == cell.word));
    assert!(
        *predicted_clean,
        "repair plan failed simulated verification"
    );
}

/// The LRU bound evicts and rebuilds runtimes without changing verdicts.
#[test]
fn lru_cache_evictions_do_not_change_verdicts() {
    let reports = fleet_reports(20);
    let reference = service(Strategy::Serial).handle(Request::DiagnoseBatch {
        reports: reports.clone(),
    });

    let tight = FleetService::new(FleetConfig {
        strategy: Strategy::Serial,
        cache_capacity: 1,
        ..FleetConfig::default()
    })
    .unwrap();
    for (source, scheme) in [
        (march_c_minus(), SchemeId::TwmTa),
        (mats_plus(), SchemeId::Scheme1),
    ] {
        let dictionary = build_dictionary(scheme, &source);
        assert!(matches!(
            tight.handle(Request::RegisterDictionary { source, dictionary }),
            Response::Registered { .. }
        ));
    }
    // Two batches: the second re-resolves both shards after evictions.
    for _ in 0..2 {
        let outcome = tight.handle(Request::DiagnoseBatch {
            reports: reports.clone(),
        });
        let (Response::Batch(got), Response::Batch(want)) = (&outcome, &reference) else {
            panic!("expected batch responses");
        };
        assert_eq!(got.outcomes, want.outcomes);
    }
    let Response::CacheMetrics(metrics) = tight.handle(Request::CacheMetrics) else {
        panic!("expected cache metrics");
    };
    assert!(metrics.evictions > 0, "capacity 1 never evicted");
    assert!(metrics.misses > metrics.evictions);
}

/// Satellite: interleaved concurrent batches produce the same per-batch
/// responses as a serial service, and cumulative statistics converge to
/// the same totals regardless of interleaving.
#[test]
fn concurrent_batches_match_serial_bit_for_bit() {
    let batches: Vec<Vec<DeviceReport>> = (0..6)
        .map(|batch| {
            fleet_reports(16)
                .into_iter()
                .map(|mut report| {
                    report.device = format!("b{batch}-{}", report.device);
                    report
                })
                .collect()
        })
        .collect();

    // Serial reference: one service, batches in order.
    let reference = service(Strategy::Serial);
    let expected: Vec<Response> = batches
        .iter()
        .map(|reports| {
            reference.handle(Request::DiagnoseBatch {
                reports: reports.clone(),
            })
        })
        .collect();
    let Response::Statistics(mut expected_totals) = reference.handle(Request::Statistics) else {
        panic!("expected statistics");
    };

    // Concurrent: one shared service, every batch on its own thread.
    let shared = Arc::new(service(Strategy::Parallel { threads: 2 }));
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .iter()
            .map(|reports| {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    shared.handle(Request::DiagnoseBatch {
                        reports: reports.clone(),
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("batch thread panicked"))
            .collect()
    });
    for (got, want) in responses.iter().zip(&expected) {
        assert_eq!(got, want, "interleaved batch drifted from serial");
    }
    let Response::Statistics(mut totals) = shared.handle(Request::Statistics) else {
        panic!("expected statistics");
    };
    // The cumulative view attaches wall-clock latency histograms, which
    // are explicitly outside the determinism contract — strip them and
    // compare the deterministic aggregates.
    expected_totals.latency.clear();
    totals.latency.clear();
    assert_eq!(totals, expected_totals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any single stuck-at fault's trail diagnoses to its own word with a
    /// repairing plan, identically on the serial and parallel services.
    #[test]
    fn any_single_fault_diagnoses_identically(
        word in 0usize..6,
        bit in 0usize..4,
        value in any::<bool>(),
    ) {
        let source = march_c_minus();
        let shard = ShardKey::new(config(), SchemeId::TwmTa, &source);
        let cell = twm_mem::BitAddress::new(word, bit);
        let report = DeviceReport {
            device: "prop".to_string(),
            shard,
            trail: device_trail(SchemeId::TwmTa, &source, &[Fault::stuck_at(cell, value)]),
            spares: 1,
        };
        let request = |reports| Request::DiagnoseBatch { reports };
        let serial = service(Strategy::Serial).handle(request(vec![report.clone()]));
        let parallel =
            service(Strategy::Parallel { threads: 3 }).handle(request(vec![report]));
        prop_assert_eq!(&serial, &parallel);
        let Response::Batch(batch) = serial else {
            panic!("expected a batch response");
        };
        match &batch.outcomes[0].verdict {
            // An undetectable injection (masked by content) reports clean
            // or unknown; a detected one must localise its own word.
            DeviceVerdict::Diagnosed(diagnosis) => {
                prop_assert!(diagnosis.defects.iter().any(|defect| defect.cell.word == word));
                prop_assert!(diagnosis.plan.fully_repairs());
            }
            DeviceVerdict::Clean | DeviceVerdict::UnknownTrail => {}
            other => prop_assert!(false, "unexpected verdict {other:?}"),
        }
    }
}

// Silence "unused import" pedantry for items only used in some cfgs.
#[allow(dead_code)]
fn _type_checks(_: &ShardInfo, _: &DeviceOutcome, _: &FleetStatistics, _: &CacheMetrics) {}
