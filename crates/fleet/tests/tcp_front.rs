//! Loopback integration tests for the TCP front and the spill path:
//! the framed transport answers exactly like in-process `handle`, and a
//! shard demoted to its spill file keeps diagnosing bit-identically.

use std::sync::Arc;

use twm_bist::run_scheme_session_staged;
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_fleet::{
    DeviceReport, DeviceVerdict, FleetClient, FleetConfig, FleetService, Request, Response,
    ShardKey, SignatureDictionary, SignatureTrail, SpillConfig, StoreOptions, TcpFront,
};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::{Fault, FaultSet, FaultyMemory, MemoryConfig};
use twm_repair::DictionaryOptions;

const SEED: u64 = 0x7C9;

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

fn reports(shard: ShardKey, scheme: SchemeId, source: &MarchTest) -> Vec<DeviceReport> {
    let faulty = Fault::stuck_at(twm_mem::BitAddress::new(2, 1), true);
    vec![
        DeviceReport {
            device: "clean".into(),
            shard,
            trail: device_trail(scheme, source, &[]),
            spares: 1,
        },
        DeviceReport {
            device: "stuck".into(),
            shard,
            trail: device_trail(scheme, source, &[faulty]),
            spares: 1,
        },
    ]
}

/// Satellite: every request/response crossing the loopback TCP front is
/// identical to the in-process `handle` path.
#[test]
fn loopback_round_trip_matches_in_process_handling() {
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let dictionary = build_dictionary(SchemeId::TwmTa, &march_c_minus());
    let register = Request::RegisterDictionary {
        source: march_c_minus(),
        dictionary,
    };
    let shard = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let batch = Request::DiagnoseBatch {
        reports: reports(shard, SchemeId::TwmTa, &march_c_minus()),
    };

    // Reference: a twin service handled in-process.
    let twin = FleetService::new(FleetConfig::default()).unwrap();
    let expected_register = twin.handle(register.clone());
    let expected_batch = twin.handle(batch.clone());
    let expected_shards = twin.handle(Request::ListShards);

    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());

    let mut client = FleetClient::connect(addr).unwrap();
    assert_eq!(client.request(&register).unwrap(), expected_register);
    assert_eq!(client.request(&batch).unwrap(), expected_batch);
    assert_eq!(
        client.request(&Request::ListShards).unwrap(),
        expected_shards
    );
    // One more frame after several proves per-connection framing holds.
    let Response::Statistics(stats) = client.request(&Request::Statistics).unwrap() else {
        panic!("expected statistics");
    };
    assert_eq!(stats.devices, 2);
    drop(client);
    server.join().unwrap().unwrap();
}

/// A malformed request frame is answered with `Response::Error` and the
/// connection keeps serving.
#[test]
fn malformed_frames_get_error_responses_not_disconnects() {
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let front = TcpFront::bind("127.0.0.1:0", service).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());

    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let junk = [9u8, 9, 9];
    stream
        .write_all(&u32::try_from(junk.len()).unwrap().to_le_bytes())
        .unwrap();
    stream.write_all(&junk).unwrap();
    stream.flush().unwrap();
    let payload = twm_fleet::tcp::read_frame(&mut stream).unwrap().unwrap();
    let response: Response = twm_fleet::wire::from_bytes(&payload).unwrap();
    assert!(matches!(response, Response::Error { .. }));

    // The stream still answers well-formed requests.
    twm_fleet::tcp::write_frame(
        &mut stream,
        &twm_fleet::wire::to_bytes(&Request::ListShards),
    )
    .unwrap();
    let payload = twm_fleet::tcp::read_frame(&mut stream).unwrap().unwrap();
    let response: Response = twm_fleet::wire::from_bytes(&payload).unwrap();
    assert_eq!(response, Response::Shards(Vec::new()));
    drop(stream);
    server.join().unwrap().unwrap();
}

/// Sequential small round trips do not wait on the loopback stack's
/// delayed-acknowledgement timer. With a frame sent as two writes and
/// Nagle on, each trip waits for one or both ends' ~40 ms timer (2.6 to
/// 5.6 s for 64 trips on Linux loopback); one write per frame on
/// no-delay streams takes milliseconds, so the 1 s bound leaves ample
/// headroom on a loaded host.
#[test]
fn sequential_round_trips_do_not_stall_on_acknowledgement_timers() {
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let front = TcpFront::bind("127.0.0.1:0", service).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());

    let mut client = FleetClient::connect(addr).unwrap();
    let start = std::time::Instant::now();
    for _ in 0..64 {
        assert_eq!(
            client.request(&Request::ListShards).unwrap(),
            Response::Shards(Vec::new())
        );
    }
    let elapsed = start.elapsed();
    drop(client);
    server.join().unwrap().unwrap();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "64 round trips took {elapsed:?}"
    );
}

/// Tentpole integration: with a 1-slot runtime cache and a spill
/// directory, the cold shard demotes to its paged file — and its next
/// diagnosis, served from disk, is bit-identical to the resident one.
#[test]
fn evicted_shards_spill_to_disk_and_keep_diagnosing_identically() {
    let dir = std::env::temp_dir().join(format!("twm-fleet-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spill = SpillConfig {
        dir: dir.clone(),
        options: StoreOptions {
            page_size: 256,
            cache_budget: 2048,
        },
    };
    let service = FleetService::new(FleetConfig {
        cache_capacity: 1,
        spill: Some(spill),
        ..FleetConfig::default()
    })
    .unwrap();

    let shard_a = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let shard_b = ShardKey::new(config(), SchemeId::Scheme1, &mats_plus());
    for (scheme, source) in [
        (SchemeId::TwmTa, march_c_minus()),
        (SchemeId::Scheme1, mats_plus()),
    ] {
        let response = service.handle(Request::RegisterDictionary {
            source: source.clone(),
            dictionary: build_dictionary(scheme, &source),
        });
        assert!(matches!(response, Response::Registered { .. }));
    }

    let batch_a = Request::DiagnoseBatch {
        reports: reports(shard_a, SchemeId::TwmTa, &march_c_minus()),
    };
    // Resident baseline for shard A.
    let Response::Batch(resident) = service.handle(batch_a.clone()) else {
        panic!("diagnosis failed");
    };
    // Diagnosing shard B evicts A's runtime from the 1-slot cache,
    // demoting A's dictionary to its spill file.
    let Response::Batch(batch_b) = service.handle(Request::DiagnoseBatch {
        reports: reports(shard_b, SchemeId::Scheme1, &mats_plus()),
    }) else {
        panic!("diagnosis failed");
    };
    assert!(matches!(batch_b.outcomes[0].verdict, DeviceVerdict::Clean));
    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .expect("spill dir exists")
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(spilled.len(), 1, "exactly shard A spilled: {spilled:?}");

    // Shard A now serves from disk — same verdicts, bit for bit.
    let Response::Batch(paged) = service.handle(batch_a) else {
        panic!("diagnosis failed");
    };
    assert_eq!(paged.outcomes, resident.outcomes);
    assert_eq!(paged.statistics, resident.statistics);
    assert!(matches!(paged.outcomes[0].verdict, DeviceVerdict::Clean));
    assert!(matches!(
        paged.outcomes[1].verdict,
        DeviceVerdict::Diagnosed(_)
    ));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spill that cannot be written fails no batch: the evicted shard
/// stays resident, keeps answering with the reference verdicts, and the
/// failure is counted in `twm_fleet_cache_spill_failures_total`.
#[test]
fn a_failed_spill_leaves_the_shard_resident_and_is_counted() {
    let failures = || {
        twm_obs::global()
            .counter("twm_fleet_cache_spill_failures_total", &[])
            .get()
    };
    // The spill directory's parent is a regular file, so creating the
    // directory fails on every spill.
    let blocker = std::env::temp_dir().join(format!("twm-fleet-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let broken = FleetService::new(FleetConfig {
        cache_capacity: 1,
        spill: Some(SpillConfig::new(blocker.join("spill"))),
        ..FleetConfig::default()
    })
    .unwrap();
    let reference = FleetService::new(FleetConfig::default()).unwrap();

    let shard_a = ShardKey::new(config(), SchemeId::TwmTa, &march_c_minus());
    let shard_b = ShardKey::new(config(), SchemeId::Scheme1, &mats_plus());
    for (scheme, source) in [
        (SchemeId::TwmTa, march_c_minus()),
        (SchemeId::Scheme1, mats_plus()),
    ] {
        for service in [&broken, &reference] {
            let response = service.handle(Request::RegisterDictionary {
                source: source.clone(),
                dictionary: build_dictionary(scheme, &source),
            });
            assert!(matches!(response, Response::Registered { .. }));
        }
    }
    let batch_a = Request::DiagnoseBatch {
        reports: reports(shard_a, SchemeId::TwmTa, &march_c_minus()),
    };
    let batch_b = Request::DiagnoseBatch {
        reports: reports(shard_b, SchemeId::Scheme1, &mats_plus()),
    };
    let answer = |service: &FleetService, batch: &Request| match service.handle(batch.clone()) {
        Response::Batch(report) => report,
        other => panic!("diagnosis failed: {other:?}"),
    };

    assert_eq!(answer(&broken, &batch_a), answer(&reference, &batch_a));
    assert_eq!(failures(), 0);
    // B's cold build evicts A from the 1-slot cache; A's spill fails.
    assert_eq!(answer(&broken, &batch_b), answer(&reference, &batch_b));
    assert_eq!(failures(), 1);
    // A stayed resident and still answers; evicting B fails once more.
    assert_eq!(answer(&broken, &batch_a), answer(&reference, &batch_a));
    assert_eq!(failures(), 2);
    assert!(!blocker.join("spill").exists());
    std::fs::remove_file(&blocker).unwrap();
}

/// A [`serde::Value`] tree sent as it is.
struct Raw(serde::Value);

impl serde::Serialize for Raw {
    fn serialize(&self) -> serde::Value {
        self.0.clone()
    }
}

/// The field `name` of a record value.
fn field<'a>(value: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
    let serde::Value::Record(fields) = value else {
        panic!("expected a record, found {}", value.kind());
    };
    &mut fields.iter_mut().find(|(key, _)| key == name).unwrap().1
}

/// Item `at` of a sequence value.
fn item(value: &mut serde::Value, at: usize) -> &mut serde::Value {
    let serde::Value::Seq(items) = value else {
        panic!("expected a sequence, found {}", value.kind());
    };
    &mut items[at]
}

/// The signature words of a serialised `SignatureTrail`.
fn trail_words(trail: &mut serde::Value) -> &mut Vec<serde::Value> {
    let serde::Value::Seq(words) = item(trail, 0) else {
        panic!("a trail wraps one sequence");
    };
    words
}

/// Sends one request frame and reads its response.
fn exchange(stream: &mut std::net::TcpStream, request: &serde::Value) -> Response {
    twm_fleet::tcp::write_frame(stream, &twm_fleet::wire::to_bytes(&Raw(request.clone()))).unwrap();
    let payload = twm_fleet::tcp::read_frame(stream).unwrap().unwrap();
    twm_fleet::wire::from_bytes(&payload).unwrap()
}

/// Dictionaries and trails arriving over the wire are checked like
/// `SignatureDictionary::from_parts`' parts: a dictionary with an empty
/// class (which once panicked the first device diagnosed against it),
/// unsorted classes or a trail of the wrong width, registered or
/// imported, and a device trail of mixed widths each get a typed
/// `Response::Error`, and the service keeps answering.
#[test]
fn tampered_dictionaries_and_trails_get_typed_errors() {
    let source = march_c_minus();
    let dictionary = build_dictionary(SchemeId::TwmTa, &source);
    assert!(dictionary.classes().len() >= 2);
    let pristine = serde::to_value(&dictionary);

    let mut empty_class = pristine.clone();
    let dropped = dictionary.classes()[0].injections.len();
    *field(item(field(&mut empty_class, "classes"), 0), "injections") =
        serde::Value::Seq(Vec::new());
    *field(&mut empty_class, "indexed") = serde::to_value(&(dictionary.stats().indexed - dropped));
    let mut unsorted = pristine.clone();
    let serde::Value::Seq(classes) = field(&mut unsorted, "classes") else {
        panic!("classes are a sequence");
    };
    classes.swap(0, 1);
    let mut wide = pristine.clone();
    let class = item(field(&mut wide, "classes"), 0);
    for word in trail_words(field(class, "trail")) {
        *field(word, "width") = serde::to_value(&8u8);
    }

    let shard = ShardKey::new(config(), SchemeId::TwmTa, &source);
    let service = Arc::new(FleetService::new(FleetConfig::default()).unwrap());
    let front = TcpFront::bind("127.0.0.1:0", service).unwrap();
    let addr = front.local_addr().unwrap();
    let server = std::thread::spawn(move || front.accept_one());
    let mut stream = std::net::TcpStream::connect(addr).unwrap();

    let register = |dictionary: serde::Value| {
        serde::Value::Variant(
            "RegisterDictionary".into(),
            Box::new(serde::Value::Record(vec![
                ("source".into(), serde::to_value(&source)),
                ("dictionary".into(), dictionary),
            ])),
        )
    };
    for (name, tampered) in [
        ("empty class", empty_class),
        ("unsorted classes", unsorted),
        ("wrong-width trail", wide),
    ] {
        let response = exchange(&mut stream, &register(tampered.clone()));
        assert!(
            matches!(response, Response::Error { .. }),
            "{name}: registering answered {response:?}"
        );
        let persisted = serde::Value::Record(vec![
            ("source".into(), serde::to_value(&source)),
            ("dictionary".into(), tampered),
        ]);
        let import = serde::to_value(&Request::ImportShard {
            bytes: twm_fleet::wire::to_bytes(&Raw(persisted)),
        });
        let response = exchange(&mut stream, &import);
        assert!(
            matches!(response, Response::Error { .. }),
            "{name}: importing answered {response:?}"
        );
    }
    assert_eq!(
        exchange(&mut stream, &serde::to_value(&Request::ListShards)),
        Response::Shards(Vec::new())
    );

    // The pristine dictionary registers; a device trail of mixed widths
    // is refused, and the class-0 device is diagnosed.
    assert!(matches!(
        exchange(&mut stream, &register(pristine)),
        Response::Registered { .. }
    ));
    let device = DeviceReport {
        device: "class-0".into(),
        shard,
        trail: dictionary.classes()[0].trail.clone(),
        spares: 2,
    };
    let mut mixed = serde::to_value(&Request::DiagnoseBatch {
        reports: vec![device.clone()],
    });
    let serde::Value::Variant(_, batch) = &mut mixed else {
        panic!("a request is a variant");
    };
    let report = item(field(batch, "reports"), 0);
    *field(&mut trail_words(field(report, "trail"))[1], "width") = serde::to_value(&8u8);
    assert!(matches!(
        twm_fleet::wire::from_bytes::<Request>(&twm_fleet::wire::to_bytes(&Raw(mixed.clone()))),
        Err(twm_fleet::FleetError::Wire(_))
    ));
    let response = exchange(&mut stream, &mixed);
    assert!(
        matches!(response, Response::Error { .. }),
        "a mixed-width trail answered {response:?}"
    );
    let response = exchange(
        &mut stream,
        &serde::to_value(&Request::DiagnoseBatch {
            reports: vec![device],
        }),
    );
    let Response::Batch(batch) = response else {
        panic!("expected a batch, found {response:?}");
    };
    assert!(matches!(
        batch.outcomes[0].verdict,
        DeviceVerdict::Diagnosed(_)
    ));
    drop(stream);
    server.join().unwrap().unwrap();
}
