//! The fleet workloads: devices send their MISR signature trails in
//! 64-device `DiagnoseBatch` frames to a `TcpFront` on loopback.
//!
//! * `fleet_warm` — two 1K×32 shards, both cached; two connections in a
//!   closed loop. Framing, codec, dispatch, localisation and repair
//!   verification do the work.
//! * `fleet_churn` — four 1K×32 shards and one 32×32 shard behind a
//!   two-runtime cache with spill to disk; one connection whose batches
//!   rotate across the shards, re-provisioning the small shard
//!   (`EvictDictionary` + server-side `BuildDictionary`) once per cycle.
//!   Cold runtime builds, spill writes, paged lookups and dictionary
//!   builds run beside the reads.
//!
//! Every response is checked against the response a serial in-process
//! service gave the same request at set-up.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use twm_bist::run_scheme_session_staged;
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
use twm_fleet::tcp::{read_frame, write_frame};
use twm_fleet::{
    wire, DeviceOutcome, DeviceReport, DeviceVerdict, Diagnosis, DictionaryStore, Dispatcher,
    FleetClient, FleetConfig, FleetService, Request, Response, RuntimeCache, ShardKey,
    ShardRuntime, SignatureDictionary, SignatureTrail, SpillConfig, TcpFront, UniverseSpec,
};
use twm_march::algorithms::{march_c_minus, march_x, march_y, mats_plus};
use twm_march::MarchTest;
use twm_mem::{
    BitAddress, Fault, FaultSet, FaultyMemory, MemoryConfig, RepairableMemory, SplitMix64,
};
use twm_repair::{
    localise_trail, verify_repair, DictionaryOptions, RepairAllocator, RepairPlan, TrailLookup,
};

use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{breakdown, now_ns, ProgramSpans, SpanRecord, Tracer};
use crate::{faults, Counts, Error, Outcome, Result};

/// Spare words every device reports.
const SPARES: usize = 2;
/// Threads of the batch fan-out and of the `Dispatcher` pool.
const THREADS: usize = 2;
/// SAF and TF faults sampled (each) into a 1K×32 shard's dictionary.
const SAMPLE_PER_CLASS: usize = 128;
/// Distinct faulty and unknown-trail devices simulated per shard.
const FAULTY_POOL: usize = 24;
const UNKNOWN_POOL: usize = 12;
/// Distinct batches each `fleet_warm` connection cycles through.
const WARM_BATCHES_PER_CONNECTION: usize = 8;
/// Cycles (one batch per shard each) in one `fleet_churn` round.
const CHURN_CYCLES_PER_ROUND: usize = 2;
/// The largest share of traced batch wall time the layer spans may
/// leave uncovered.
pub const ACCOUNTING_MARGIN: f64 = 0.05;

/// Which fleet workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Churn,
}

impl Kind {
    fn connections(self) -> usize {
        match self {
            Kind::Warm => 2,
            Kind::Churn => 1,
        }
    }

    fn cache_capacity(self) -> usize {
        match self {
            Kind::Warm => 4,
            Kind::Churn => 2,
        }
    }
}

/// A deployment triple plus the content policy devices run against.
#[derive(Debug, Clone)]
struct Deployment {
    scheme: SchemeId,
    source: MarchTest,
    config: MemoryConfig,
    content: ContentPolicy,
}

impl Deployment {
    fn key(&self) -> ShardKey {
        ShardKey::new(self.config, self.scheme, &self.source)
    }

    /// The dictionary the service's `BuildDictionary` path would build
    /// for this deployment over `universe`: a base engine per
    /// (config, content) and its scheme sibling.
    fn build_dictionary(&self, universe: &[Fault]) -> Result<SignatureDictionary> {
        let registry = SchemeRegistry::all(self.config.width())?;
        let scheme = registry
            .get(self.scheme)
            .ok_or("scheme missing from the registry")?;
        let engine = CoverageEngine::builder(self.config)
            .test(&self.source)
            .content(self.content)
            .strategy(Strategy::Parallel { threads: THREADS })
            .build()?
            .with_scheme(scheme, &self.source)?;
        Ok(SignatureDictionary::build(
            &engine,
            universe,
            &DictionaryOptions {
                strategy: Strategy::Parallel { threads: THREADS },
                ..DictionaryOptions::default()
            },
        )?)
    }

    /// The trail a device of this deployment reports with `faults`.
    fn device_trail(
        &self,
        dictionary: &SignatureDictionary,
        faults: &[Fault],
    ) -> Result<SignatureTrail> {
        let registry = SchemeRegistry::all(self.config.width())?;
        let transform = registry.transform(self.scheme, &self.source)?;
        let mut memory =
            FaultyMemory::with_faults(self.config, FaultSet::from_faults(faults.iter().copied()))?;
        if let ContentPolicy::Random { seed } = self.content {
            memory.fill_random(seed);
        }
        let staged = run_scheme_session_staged(&transform, &mut memory, dictionary.misr().clone())?;
        Ok(SignatureTrail::new(staged.signature_trail()))
    }
}

/// A registered shard and the device trails simulated against it.
struct Shard {
    deployment: Deployment,
    key: ShardKey,
    dictionary: Arc<SignatureDictionary>,
    /// Single SAF/TF faults the dictionary indexes, with their trails.
    faulty: Vec<(Fault, SignatureTrail)>,
    /// Trails of coupling defects the dictionary does not index.
    unknown: Vec<SignatureTrail>,
}

/// A simulated device's condition.
#[derive(Debug, Clone, Copy)]
enum Health {
    Clean,
    /// One SAF/TF fault the shard's dictionary indexes.
    Faulty,
    /// A coupling defect the dictionary does not index.
    Unknown,
}

/// The devices of one `DiagnoseBatch` frame by health: 54 clean (84%),
/// 7 faulty (11%) and 3 with an unknown trail (5%), 64 in all. Fixed
/// counts keep the work per batch the same for every seed.
const MIX: [(Health, usize); 3] = [
    (Health::Clean, 54),
    (Health::Faulty, 7),
    (Health::Unknown, 3),
];

/// What a device's verdict must be.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Clean,
    Injected(BitAddress),
    Unknown,
}

/// One precomputed `DiagnoseBatch` and the reference response to it.
struct Batch {
    request: Request,
    expected: Response,
    devices: usize,
}

/// One request of a connection's schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Batch(usize),
    Evict,
    Build,
}

/// The re-provisioned small shard of `fleet_churn`.
struct Small {
    shard: usize,
    build: Request,
    evict: Request,
    built: Response,
    evicted: Response,
}

/// Everything a fleet run needs, built by [`setup`].
pub struct Fleet {
    kind: Kind,
    shards: Vec<Shard>,
    small: Option<Small>,
    batches: Vec<Batch>,
    /// One round of requests per connection, repeated until time is up.
    rounds: Vec<Vec<Op>>,
    service: Arc<FleetService>,
    spill_dir: Option<PathBuf>,
    /// `SignatureDictionary::build` time per injection of the builds the
    /// workload's server performs (µs).
    pub trail_us: f64,
    /// Seconds spent in each phase of the set-up.
    phases: Vec<(&'static str, f64)>,
    /// Wrong answers the set-up saw: reference verdicts that miss a
    /// device's expectation, or warm-up responses that differ from them.
    problems: Vec<String>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn deployments(kind: Kind, content: ContentPolicy) -> Result<Vec<Deployment>> {
    let big = MemoryConfig::new(1024, 32)?;
    let mut sources = vec![march_c_minus(), mats_plus()];
    if kind == Kind::Churn {
        sources.extend([march_x(), march_y()]);
    }
    let mut deployments: Vec<Deployment> = sources
        .into_iter()
        .map(|source| Deployment {
            scheme: SchemeId::TwmTa,
            source,
            config: big,
            content,
        })
        .collect();
    if kind == Kind::Churn {
        deployments.push(Deployment {
            scheme: SchemeId::TwmTa,
            source: march_c_minus(),
            config: MemoryConfig::new(32, 32)?,
            content,
        });
    }
    Ok(deployments)
}

impl Shard {
    fn new(
        deployment: Deployment,
        dictionary: SignatureDictionary,
        rng: &mut SplitMix64,
    ) -> Result<Self> {
        let detected: Vec<Fault> = dictionary
            .classes()
            .iter()
            .flat_map(|class| &class.injections)
            .filter(|injection| injection.len() == 1)
            .map(|injection| injection[0])
            .collect();
        let mut faulty = Vec::with_capacity(FAULTY_POOL);
        for _ in 0..FAULTY_POOL {
            let fault = detected[rng.next_below(detected.len())];
            faulty.push((fault, deployment.device_trail(&dictionary, &[fault])?));
        }
        let mut unknown = Vec::with_capacity(UNKNOWN_POOL);
        let mut attempts = 0;
        while unknown.len() < UNKNOWN_POOL {
            attempts += 1;
            if attempts > 50 * UNKNOWN_POOL {
                return Err("too few detected coupling defects outside the dictionary".into());
            }
            let fault = faults::coupling(deployment.config, rng);
            let trail = deployment.device_trail(&dictionary, &[fault])?;
            if &trail != dictionary.fault_free_trail() && dictionary.lookup(&trail).is_none() {
                unknown.push(trail);
            }
        }
        Ok(Self {
            key: deployment.key(),
            deployment,
            dictionary: Arc::new(dictionary),
            faulty,
            unknown,
        })
    }

    /// One device of the given health; faulty and unknown-trail devices
    /// are drawn from the shard's pools.
    fn device(&self, name: String, health: Health, rng: &mut SplitMix64) -> (DeviceReport, Expect) {
        let (trail, expect) = match health {
            Health::Clean => (self.dictionary.fault_free_trail().clone(), Expect::Clean),
            Health::Faulty => {
                let (fault, trail) = &self.faulty[rng.next_below(self.faulty.len())];
                (trail.clone(), Expect::Injected(fault.victim()))
            }
            Health::Unknown => {
                let trail = &self.unknown[rng.next_below(self.unknown.len())];
                (trail.clone(), Expect::Unknown)
            }
        };
        let report = DeviceReport {
            device: name,
            shard: self.key,
            trail,
            spares: SPARES,
        };
        (report, expect)
    }
}

/// Which shard each device of a batch reports to, and its health: the
/// [`MIX`] in seeded order, with `shard_of(j)` the shard of the j-th
/// device before shuffling.
fn batch_plan(shard_of: impl Fn(usize) -> usize, rng: &mut SplitMix64) -> Vec<(usize, Health)> {
    let mut plan: Vec<(usize, Health)> = MIX
        .iter()
        .flat_map(|&(health, count)| std::iter::repeat_n(health, count))
        .enumerate()
        .map(|(j, health)| (shard_of(j), health))
        .collect();
    for at in (1..plan.len()).rev() {
        plan.swap(at, rng.next_below(at + 1));
    }
    plan
}

/// Checks a reference batch response against the devices' expectations.
fn check_expectations(response: &Response, expects: &[Expect]) -> Result<()> {
    let Response::Batch(batch) = response else {
        return Err(format!("reference service answered {response:?}").into());
    };
    for (outcome, expect) in batch.outcomes.iter().zip(expects) {
        let ok = match (expect, &outcome.verdict) {
            (Expect::Clean, DeviceVerdict::Clean)
            | (Expect::Unknown, DeviceVerdict::UnknownTrail) => true,
            (Expect::Injected(cell), DeviceVerdict::Diagnosed(diagnosis)) => {
                diagnosis.defects.iter().any(|defect| defect.cell == *cell)
            }
            _ => false,
        };
        if !ok {
            return Err(format!(
                "device {} expected {expect:?}, reference verdict {:?}",
                outcome.device, outcome.verdict
            )
            .into());
        }
    }
    if batch.outcomes.len() != expects.len() {
        return Err("reference batch lost devices".into());
    }
    Ok(())
}

fn new_service(kind: Kind, strategy: Strategy, spill: Option<&Path>) -> Result<FleetService> {
    Ok(FleetService::new(FleetConfig {
        strategy,
        cache_capacity: if strategy == Strategy::Serial {
            8
        } else {
            kind.cache_capacity()
        },
        verify_repairs: true,
        spill: spill.map(SpillConfig::new),
        metrics_http: None,
    })?)
}

fn register(service: &FleetService, shard: &Shard) -> Result<()> {
    match service.handle(Request::RegisterDictionary {
        source: shard.deployment.source.clone(),
        dictionary: (*shard.dictionary).clone(),
    }) {
        Response::Registered { shard: key, .. } if key == shard.key => Ok(()),
        other => Err(format!("registering {} failed: {other:?}", shard.key).into()),
    }
}

/// Builds the shards, simulates the devices, computes the reference
/// responses and warms the service with one in-process round.
pub fn setup(kind: Kind, seed: u64, run_dir: &Path) -> Result<Fleet> {
    let mut rng = SplitMix64::new(seed ^ 0x00F1_EE70);
    let content = ContentPolicy::Random {
        seed: rng.next_u64(),
    };
    let mut shards = Vec::new();
    let mut trail_us = 0.0;
    let (mut build_s, mut sessions_s) = (0.0, 0.0);
    for deployment in deployments(kind, content)? {
        let universe = if deployment.config.words() == 1024 {
            UniverseBuilder::new(deployment.config)
                .stuck_at()
                .transition()
                .sample_per_class(SAMPLE_PER_CLASS, rng.next_u64())
                .build()
        } else {
            UniverseBuilder::new(deployment.config)
                .stuck_at()
                .transition()
                .build()
        };
        let start = Instant::now();
        let dictionary = deployment.build_dictionary(&universe)?;
        let built = start.elapsed().as_secs_f64();
        build_s += built;
        // The server builds the small shard in `fleet_churn` and nothing
        // in `fleet_warm`, whose dictionaries are built here.
        if kind == Kind::Warm || deployment.config.words() != 1024 {
            trail_us = built * 1e6 / universe.len() as f64;
        }
        let start = Instant::now();
        shards.push(Shard::new(deployment, dictionary, &mut rng)?);
        sessions_s += start.elapsed().as_secs_f64();
    }

    let spill_dir = match kind {
        Kind::Warm => None,
        Kind::Churn => Some(run_dir.join(format!("spill-{}-{}", std::process::id(), now_ns()))),
    };
    let service = Arc::new(new_service(
        kind,
        Strategy::Parallel { threads: THREADS },
        spill_dir.as_deref(),
    )?);
    let reference = new_service(kind, Strategy::Serial, None)?;
    for shard in &shards {
        register(&service, shard)?;
        register(&reference, shard)?;
    }

    let small = (kind == Kind::Churn).then(|| {
        let at = shards.len() - 1;
        let shard = &shards[at];
        let stats = shard.dictionary.stats();
        Small {
            shard: at,
            build: Request::BuildDictionary {
                scheme: shard.deployment.scheme,
                source: shard.deployment.source.clone(),
                config: shard.deployment.config,
                content: shard.deployment.content,
                universe: UniverseSpec::default(),
            },
            evict: Request::EvictDictionary { shard: shard.key },
            built: Response::Registered {
                shard: shard.key,
                classes: stats.classes,
                indexed: stats.indexed,
            },
            evicted: Response::Evicted {
                shard: shard.key,
                existed: true,
            },
        }
    });

    let mut plans: Vec<Vec<(usize, Health)>> = Vec::new();
    let mut rounds = Vec::new();
    match kind {
        Kind::Warm => {
            for connection in 0..kind.connections() {
                let mut round = Vec::new();
                for _ in 0..WARM_BATCHES_PER_CONNECTION {
                    round.push(Op::Batch(plans.len()));
                    plans.push(batch_plan(|j| j % shards.len(), &mut rng));
                }
                debug_assert_eq!(rounds.len(), connection);
                rounds.push(round);
            }
        }
        Kind::Churn => {
            // The small shard first, then the big ones: with two cached
            // runtimes every primary shard misses, and the 1/8 of devices
            // reporting to the previous batch's shard mostly hit.
            let small_at = shards.len() - 1;
            let order: Vec<usize> = std::iter::once(small_at).chain(0..small_at).collect();
            let mut round = Vec::new();
            for _ in 0..CHURN_CYCLES_PER_ROUND {
                round.extend([Op::Evict, Op::Build]);
                for (at, &primary) in order.iter().enumerate() {
                    let previous = order[(at + order.len() - 1) % order.len()];
                    round.push(Op::Batch(plans.len()));
                    plans.push(batch_plan(
                        |j| if j % 8 == 7 { previous } else { primary },
                        &mut rng,
                    ));
                }
            }
            rounds.push(round);
        }
    }

    let start = Instant::now();
    let mut problems = Vec::new();
    let mut batches = Vec::with_capacity(plans.len());
    for (index, plan) in plans.iter().enumerate() {
        let (reports, expects): (Vec<DeviceReport>, Vec<Expect>) = plan
            .iter()
            .enumerate()
            .map(|(slot, &(shard, health))| {
                shards[shard].device(format!("b{index}-d{slot}"), health, &mut rng)
            })
            .unzip();
        let request = Request::DiagnoseBatch { reports };
        let expected = reference.handle(request.clone());
        if let Err(problem) = check_expectations(&expected, &expects) {
            problems.push(problem.to_string());
        }
        batches.push(Batch {
            request,
            expected,
            devices: plan.len(),
        });
    }

    let reference_s = start.elapsed().as_secs_f64();

    let mut fleet = Fleet {
        kind,
        shards,
        small,
        batches,
        rounds,
        service,
        spill_dir,
        trail_us,
        phases: Vec::new(),
        problems,
    };
    // Warm the service in-process: fill the cache, spill, rebuild.
    let start = Instant::now();
    let mut warm_problems = Vec::new();
    for &op in fleet.rounds.iter().flatten() {
        let (request, expected) = fleet.request(op);
        if fleet.service.handle(request.clone()) != *expected {
            warm_problems.push(format!("in-process warm-up answered {op:?} differently"));
        }
    }
    fleet.problems.extend(warm_problems);
    fleet.phases = vec![
        ("dictionary builds", build_s),
        ("device sessions", sessions_s),
        ("reference responses", reference_s),
        ("warm-up round", start.elapsed().as_secs_f64()),
    ];
    Ok(fleet)
}

impl Fleet {
    /// The request `op` sends and the reference response it must get.
    fn request(&self, op: Op) -> (&Request, &Response) {
        match op {
            Op::Batch(index) => (&self.batches[index].request, &self.batches[index].expected),
            Op::Evict => {
                let small = self.small.as_ref().expect("only churn evicts");
                (&small.evict, &small.evicted)
            }
            Op::Build => {
                let small = self.small.as_ref().expect("only churn builds");
                (&small.build, &small.built)
            }
        }
    }
}

/// What one connection's client saw.
#[derive(Debug, Default)]
struct Log {
    /// `DiagnoseBatch` round trips, ms.
    batch_ms: Vec<f64>,
    devices: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(injections indexed, round trip s)` per `BuildDictionary`.
    builds: Vec<(usize, f64)>,
    /// Program counter deltas of each complete round.
    rounds: Vec<Counts>,
    end: Option<Instant>,
}

impl Log {
    fn absorb(&mut self, other: Log) {
        self.batch_ms.extend(other.batch_ms);
        self.devices += other.devices;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.builds.extend(other.builds);
        self.rounds.extend(other.rounds);
        self.end = self.end.max(other.end);
    }

    /// Scores one response against its reference.
    fn check(
        &mut self,
        fleet: &Fleet,
        op: Op,
        response: std::result::Result<Response, String>,
        seconds: f64,
    ) {
        self.attempted += 1;
        let (_, expected) = fleet.request(op);
        let response = match response {
            Ok(response) => response,
            Err(error) => {
                self.failed += 1;
                self.problems
                    .push(format!("{op:?}: transport error: {error}"));
                return;
            }
        };
        let failed_devices = match &response {
            Response::Batch(batch) => batch
                .outcomes
                .iter()
                .filter(|outcome| matches!(outcome.verdict, DeviceVerdict::Failed { .. }))
                .count(),
            _ => 0,
        };
        if matches!(response, Response::Error { .. }) || failed_devices > 0 {
            self.failed += 1;
        }
        if response != *expected {
            if self.problems.len() < 8 {
                self.problems.push(format!(
                    "{op:?}: response differs from the serial reference ({failed_devices} failed devices)"
                ));
            }
            return;
        }
        match op {
            Op::Batch(index) => {
                self.batch_ms.push(seconds * 1e3);
                self.devices += fleet.batches[index].devices as u64;
            }
            Op::Build => {
                if let Response::Registered { indexed, .. } = response {
                    self.builds.push((indexed, seconds));
                }
            }
            Op::Evict => {}
        }
    }
}

/// Runs `round` repeatedly on one connection until `deadline` (or for
/// `rounds` complete rounds), recording counter deltas per round. A
/// transport error ends the connection's run.
fn drive(
    fleet: &Fleet,
    mut send: impl FnMut(Op) -> (std::result::Result<Response, String>, f64),
    round: &[Op],
    deadline: Option<Instant>,
    rounds: Option<usize>,
) -> Log {
    let mut log = Log::default();
    let mut done = 0;
    'rounds: while rounds.is_none_or(|limit| done < limit) {
        let before = Counts::read();
        for &op in round {
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                break 'rounds;
            }
            let (response, seconds) = send(op);
            let connected = response.is_ok();
            log.check(fleet, op, response, seconds);
            if !connected {
                break 'rounds;
            }
        }
        log.rounds.push(Counts::read().since(&before));
        done += 1;
    }
    log.end = Some(Instant::now());
    log
}

/// Serves `fleet` through the real `TcpFront` (`accept_pooled` over a
/// 2-worker `Dispatcher`) and drives it from one `FleetClient` per
/// connection: one untimed round each, then closed loops until
/// `seconds` have passed.
fn run_front(fleet: &Fleet, seconds: f64) -> Result<(Log, f64)> {
    let front = TcpFront::bind("127.0.0.1:0", Arc::clone(&fleet.service))?;
    let addr = front.local_addr()?;
    let dispatcher = Dispatcher::new(Arc::clone(&fleet.service), THREADS);
    let connections = fleet.kind.connections();
    let barrier = Barrier::new(connections);
    let (start, deadline) = (Mutex::new(None), Mutex::new(None));
    std::thread::scope(|scope| {
        let server = scope.spawn(|| front.accept_pooled(&dispatcher, connections));
        let clients = (0..connections)
            .map(|_| FleetClient::connect(addr))
            .collect::<std::result::Result<Vec<_>, _>>();
        let result = clients.map_err(Error::from).map(|clients| {
            let workers: Vec<_> = clients
                .into_iter()
                .zip(&fleet.rounds)
                .map(|(mut client, round)| {
                    let (barrier, start, deadline) = (&barrier, &start, &deadline);
                    scope.spawn(move || {
                        let mut send = |op: Op| {
                            let (request, _) = fleet.request(op);
                            let begin = Instant::now();
                            let response = client.request(request).map_err(|e| e.to_string());
                            (response, begin.elapsed().as_secs_f64())
                        };
                        let warm = drive(fleet, &mut send, round, None, Some(1));
                        if barrier.wait().is_leader() {
                            let now = Instant::now();
                            *start.lock().expect("start poisoned") = Some(now);
                            *deadline.lock().expect("deadline poisoned") =
                                Some(now + Duration::from_secs_f64(seconds));
                        }
                        barrier.wait();
                        let until = deadline
                            .lock()
                            .expect("deadline poisoned")
                            .expect("set by the leader");
                        let mut log = drive(fleet, &mut send, round, Some(until), None);
                        log.problems.extend(warm.problems);
                        log
                    })
                })
                .collect();
            let mut log = Log::default();
            for worker in workers {
                log.absorb(worker.join().expect("client thread panicked"));
            }
            let start = start
                .lock()
                .expect("start poisoned")
                .expect("set by the leader");
            let wall = log
                .end
                .expect("clients ran")
                .duration_since(start)
                .as_secs_f64();
            (log, wall)
        });
        // The server returns once every client has hung up.
        let served = server.join().expect("server thread panicked");
        let (log, wall) = result?;
        served?;
        Ok((log, wall))
    })
}

/// The end-to-end run: tracing off, every metric from the client side.
pub fn run(fleet: &Fleet, seconds: f64, outcome: &mut Outcome) -> Result<()> {
    let phases: Vec<String> = fleet
        .phases
        .iter()
        .map(|(name, s)| format!("{name} {s:.3} s"))
        .collect();
    outcome.line(format!("last set-up: {}", phases.join(", ")));
    outcome.problems.extend(fleet.problems.iter().cloned());
    let (log, wall) = run_front(fleet, seconds)?;
    let devices_per_s = log.devices as f64 / wall;
    let batches = log.batch_ms.len();
    outcome.attempted += log.attempted;
    outcome.failed += log.failed;
    outcome.problems.extend(log.problems.iter().cloned());
    outcome.set("throughput_per_s", devices_per_s);
    outcome.set("latency_p90_ms", quantile(&log.batch_ms, 0.9));
    let samples = format!("{batches} batches, {} devices, {wall:.2} s", log.devices);
    outcome.row("devices_per_s", devices_per_s, "devices/s", &samples);
    for (name, q) in [
        ("batch_p50_ms", 0.5),
        ("batch_p90_ms", 0.9),
        ("batch_p95_ms", 0.95),
        ("batch_p99_ms", 0.99),
    ] {
        let beyond = ((1.0 - q) * batches as f64).floor();
        outcome.row(
            name,
            quantile(&log.batch_ms, q),
            "ms",
            &format!("{batches} batches, {beyond} beyond"),
        );
    }
    if fleet.kind == Kind::Churn {
        let injections: usize = log.builds.iter().map(|(indexed, _)| indexed).sum();
        let build_s: f64 = log.builds.iter().map(|(_, seconds)| seconds).sum();
        outcome.row(
            "build_injections_per_s",
            injections as f64 / build_s,
            "injections/s",
            &format!("{} BuildDictionary round trips", log.builds.len()),
        );
        outcome.exact_counts(
            &log.rounds,
            "round",
            &[
                ("cache_hits", |c| c.hits),
                ("cache_misses", |c| c.misses),
                ("evictions", |c| c.evictions),
                ("spills", |c| c.spills),
                ("page_reads", |c| c.page_reads),
                ("frames", |c| c.frames),
            ],
        );
    }
    Ok(())
}

/// Per-connection hand-off from a traced client to the server thread
/// serving it: the batch's trace id and the client span the server's
/// spans nest under.
type Slot = Arc<Mutex<(u64, u64)>>;

/// The server half of a traced connection: the pieces `TcpFront` runs —
/// `read_frame` → `wire::from_bytes` → `Dispatcher::submit().wait()` →
/// `wire::to_bytes` → `write_frame` — each under a span.
fn serve_traced(
    mut stream: TcpStream,
    slot: &Slot,
    dispatcher: &Dispatcher,
    tracer: &Tracer,
    program: &ProgramSpans,
) -> Result<()> {
    loop {
        // The read starts while the previous response is still on its
        // way; clipping to the client's read span leaves only the part
        // after the request was written.
        let s0 = now_ns();
        let Some(payload) = read_frame(&mut stream)? else {
            break;
        };
        let s1 = now_ns();
        let (trace, parent) = *slot.lock().expect("slot poisoned");
        let decoded = wire::from_bytes::<Request>(&payload);
        let s2 = now_ns();
        let response = match decoded {
            Ok(request) => dispatcher.submit(request).wait(),
            Err(error) => Response::Error {
                message: error.to_string(),
            },
        };
        let s3 = now_ns();
        let encoded = wire::to_bytes(&response);
        let s4 = now_ns();
        write_frame(&mut stream, &encoded)?;
        let s5 = now_ns();
        let dispatch = tracer.id();
        for (name, id, start_ns, end_ns) in [
            ("server.read", tracer.id(), s0, s1),
            ("server.decode", tracer.id(), s1, s2),
            ("dispatch", dispatch, s2, s3),
            ("server.encode", tracer.id(), s3, s4),
            ("server.write", tracer.id(), s4, s5),
        ] {
            tracer.record(SpanRecord {
                trace,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
        if let Some((start_ns, end_ns)) = program.claim("fleet.request", s2, s3) {
            tracer.record(SpanRecord {
                trace,
                id: tracer.id(),
                parent: dispatch,
                name: "service.handle",
                start_ns,
                end_ns,
            });
        }
    }
    Ok(())
}

/// The client half of a traced request: `FleetClient::request`'s pieces,
/// each under a span of the request's trace.
fn request_traced(
    stream: &mut TcpStream,
    slot: &Slot,
    tracer: &Tracer,
    request: &Request,
    root: &'static str,
) -> (std::result::Result<Response, String>, f64, u64) {
    let (trace, top, read) = (tracer.id(), tracer.id(), tracer.id());
    *slot.lock().expect("slot poisoned") = (trace, read);
    let c0 = now_ns();
    let bytes = wire::to_bytes(request);
    let c1 = now_ns();
    let written = write_frame(stream, &bytes);
    let c2 = now_ns();
    let read_back = written.and_then(|()| read_frame(stream));
    let c3 = now_ns();
    let response =
        read_back.and_then(|payload| {
            wire::from_bytes::<Response>(&payload.ok_or_else(|| {
                twm_fleet::FleetError::Wire("server closed before responding".into())
            })?)
        });
    let c4 = now_ns();
    for (name, id, parent, start_ns, end_ns) in [
        (root, top, 0, c0, c4),
        ("client.encode", tracer.id(), top, c0, c1),
        ("client.write", tracer.id(), top, c1, c2),
        ("client.read", read, top, c2, c3),
        ("client.decode", tracer.id(), top, c3, c4),
    ] {
        tracer.record(SpanRecord {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }
    (
        response.map_err(|e| e.to_string()),
        (c4 - c0) as f64 / 1e9,
        trace,
    )
}

/// A traced pass over the same connections and schedule: returns the
/// client log and every `(trace id, op)` sent, in order.
fn run_traced_pass(
    fleet: &Fleet,
    seconds: f64,
    tracer: &Tracer,
    program: &ProgramSpans,
) -> Result<(Log, Vec<(u64, Op)>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let dispatcher = Dispatcher::new(Arc::clone(&fleet.service), THREADS);
    let connections = fleet.kind.connections();
    let mut streams = Vec::new();
    let mut slots: Vec<(SocketAddr, Slot)> = Vec::new();
    for _ in 0..connections {
        let stream = TcpStream::connect(addr)?;
        slots.push((stream.local_addr()?, Slot::default()));
        streams.push(stream);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let mut servers = Vec::new();
        for _ in 0..connections {
            let (stream, peer) = listener.accept()?;
            let slot = &slots
                .iter()
                .find(|(local, _)| *local == peer)
                .ok_or("accepted an unknown peer")?
                .1;
            let dispatcher = &dispatcher;
            servers
                .push(scope.spawn(move || serve_traced(stream, slot, dispatcher, tracer, program)));
        }
        let clients: Vec<_> = streams
            .into_iter()
            .zip(&slots)
            .zip(&fleet.rounds)
            .map(|((mut stream, (_, slot)), round)| {
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    let mut send = |op: Op| {
                        let (request, _) = fleet.request(op);
                        let root = if matches!(op, Op::Batch(_)) {
                            "batch"
                        } else {
                            "op"
                        };
                        let (response, seconds, trace) =
                            request_traced(&mut stream, slot, tracer, request, root);
                        sent.push((trace, op));
                        (response, seconds)
                    };
                    let log = drive(fleet, &mut send, round, Some(deadline), None);
                    (log, sent)
                })
            })
            .collect();
        let mut log = Log::default();
        let mut sent = Vec::new();
        for client in clients {
            let (client_log, client_sent) = client.join().expect("client thread panicked");
            log.absorb(client_log);
            sent.extend(client_sent);
        }
        for server in servers {
            server.join().expect("server thread panicked")?;
        }
        Ok((log, sent))
    })
}

/// Per-layer timings of replaying the traced batches through the public
/// functions `FleetService::handle` calls, on a mirror store and cache.
#[derive(Default)]
struct Replay {
    problems: Vec<String>,
    diagnosed: u64,
    verified: u64,
}

/// Replays `sent` serially: shard resolve through a `RuntimeCache`,
/// spill through a `DictionaryStore`, then per device `localise_trail`,
/// `RepairAllocator::allocate` and `plan.apply` + `verify_repair`. Each
/// device's rebuilt verdict must equal the reference verdict.
fn replay(fleet: &Fleet, sent: &[(u64, Op)], tracer: &Tracer, mirror_dir: &Path) -> Result<Replay> {
    let mut store = match fleet.kind {
        Kind::Warm => DictionaryStore::new(),
        Kind::Churn => DictionaryStore::with_spill(SpillConfig::new(mirror_dir)),
    };
    for shard in &fleet.shards {
        store.register(
            shard.deployment.source.clone(),
            Arc::clone(&shard.dictionary),
        )?;
    }
    let mut cache = RuntimeCache::new(
        fleet.kind.cache_capacity(),
        Strategy::Parallel { threads: THREADS },
    )?;
    let mut result = Replay::default();
    // One untimed round first, so the mirror starts where the service did.
    let warm: Vec<(u64, Op)> = fleet.rounds.iter().flatten().map(|&op| (0, op)).collect();
    for (pass, ops) in [(0, warm.as_slice()), (1, sent)] {
        let scratch = Tracer::default();
        let tracer = if pass == 0 { &scratch } else { tracer };
        for &(trace, op) in ops {
            let small = fleet.small.as_ref().map(|small| &fleet.shards[small.shard]);
            match op {
                Op::Evict => {
                    let shard = small.expect("only churn evicts");
                    store.evict(shard.key);
                    cache.invalidate(shard.key);
                }
                Op::Build => {
                    let shard = small.expect("only churn builds");
                    store.register(
                        shard.deployment.source.clone(),
                        Arc::clone(&shard.dictionary),
                    )?;
                }
                Op::Batch(index) => {
                    let batch = &fleet.batches[index];
                    tracer.span(trace, 0, "replay", |top| {
                        replay_batch(
                            batch,
                            &mut store,
                            &mut cache,
                            tracer,
                            trace,
                            top,
                            &mut result,
                        )
                    })?;
                }
            }
        }
        if pass == 0 {
            result = Replay::default();
        }
    }
    Ok(result)
}

fn replay_batch(
    batch: &Batch,
    store: &mut DictionaryStore,
    cache: &mut RuntimeCache,
    tracer: &Tracer,
    trace: u64,
    top: u64,
    result: &mut Replay,
) -> Result<()> {
    let Request::DiagnoseBatch { reports } = &batch.request else {
        unreachable!("batches hold DiagnoseBatch requests")
    };
    let Response::Batch(expected) = &batch.expected else {
        unreachable!("reference batches answered with Batch")
    };
    let keys: BTreeSet<ShardKey> = reports.iter().map(|report| report.shard).collect();
    let mut runtimes: BTreeMap<ShardKey, Arc<ShardRuntime>> = BTreeMap::new();
    for key in keys {
        let entry = store.get(key).ok_or("replayed shard is not registered")?;
        let hits = cache.metrics().hits;
        let id = tracer.id();
        let start_ns = now_ns();
        let runtime = cache.runtime(key, entry)?;
        let end_ns = now_ns();
        let name = if cache.metrics().hits > hits {
            "cache.warm"
        } else {
            "cache.cold"
        };
        tracer.record(SpanRecord {
            trace,
            id,
            parent: top,
            name,
            start_ns,
            end_ns,
        });
        runtimes.insert(key, runtime);
    }
    for evicted in cache.take_evicted() {
        tracer.span(trace, top, "store.spill", |_| store.spill(evicted))?;
    }
    for (report, reference) in reports.iter().zip(&expected.outcomes) {
        let runtime = &runtimes[&report.shard];
        let verdict = tracer.span(trace, top, "device", |device| {
            replay_device(runtime, report, tracer, trace, device)
        })?;
        if let DeviceVerdict::Diagnosed(diagnosis) = &verdict {
            result.diagnosed += 1;
            result.verified += u64::from(diagnosis.predicted_clean);
        }
        let rebuilt = DeviceOutcome {
            device: report.device.clone(),
            verdict,
        };
        if rebuilt != *reference && result.problems.len() < 8 {
            result.problems.push(format!(
                "replayed verdict of {} differs from the reference",
                report.device
            ));
        }
    }
    Ok(())
}

/// `diagnose_device`'s steps, each under a span.
fn replay_device(
    runtime: &ShardRuntime,
    report: &DeviceReport,
    tracer: &Tracer,
    trace: u64,
    parent: u64,
) -> Result<DeviceVerdict> {
    if runtime.dictionary.is_paged() {
        tracer.span(trace, parent, "store.paged_find", |_| {
            runtime.dictionary.find(&report.trail)
        })?;
    }
    let diagnosis = tracer.span(trace, parent, "repair.localise", |_| {
        localise_trail(&runtime.dictionary, &report.trail)
    })?;
    if diagnosis.clean {
        return Ok(DeviceVerdict::Clean);
    }
    if !diagnosis.dictionary_hit {
        return Ok(DeviceVerdict::UnknownTrail);
    }
    let plan = tracer.span(trace, parent, "repair.allocate", |_| {
        RepairAllocator::default().allocate(&diagnosis.defects, report.spares)
    });
    let predicted_clean = if plan.fully_repairs() && report.spares > 0 {
        tracer.span(trace, parent, "repair.verify", |_| {
            verify_plan(runtime, &report.trail, report.spares, &plan)
        })?
    } else {
        false
    };
    Ok(DeviceVerdict::Diagnosed(Diagnosis {
        defects: diagnosis.defects,
        ambiguity: diagnosis.ambiguity,
        plan,
        predicted_clean,
    }))
}

/// Applies `plan` to the matched class's representative injection and
/// re-runs the scheme session through the remap table.
fn verify_plan(
    runtime: &ShardRuntime,
    trail: &SignatureTrail,
    spares: usize,
    plan: &RepairPlan,
) -> Result<bool> {
    let class = runtime
        .dictionary
        .find(trail)?
        .ok_or("a diagnosed trail has a class")?;
    let mut memory =
        FaultyMemory::with_faults(runtime.dictionary.config(), class.injections[0].clone())?;
    if let ContentPolicy::Random { seed } = runtime.dictionary.content() {
        memory.fill_random(seed);
    }
    let mut repairable = RepairableMemory::new(memory, spares)?;
    plan.apply(&mut repairable)?;
    Ok(verify_repair(&runtime.probe, &mut repairable, runtime.misr.clone())?.clean())
}

/// Durations of the spans named `name`, in nanoseconds.
fn durations_ns(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| (span.end_ns - span.start_ns) as f64)
        .collect()
}

/// Mean duration of the spans named `name`, in nanoseconds (0 if none).
fn mean_span_ns(spans: &[SpanRecord], name: &str) -> f64 {
    let durations = durations_ns(spans, name);
    if durations.is_empty() {
        0.0
    } else {
        mean(&durations)
    }
}

/// March operations per second of `run_scheme_session_staged` on a
/// fault-free memory of the first shard's shape.
fn session_ops_per_s(fleet: &Fleet) -> Result<f64> {
    let shard = &fleet.shards[0];
    let deployment = &shard.deployment;
    let registry = SchemeRegistry::all(deployment.config.width())?;
    let transform = registry.transform(deployment.scheme, &deployment.source)?;
    let (mut ops, start) = (0, Instant::now());
    for _ in 0..8 {
        let mut memory = FaultyMemory::fault_free(deployment.config);
        if let ContentPolicy::Random { seed } = deployment.content {
            memory.fill_random(seed);
        }
        let staged =
            run_scheme_session_staged(&transform, &mut memory, shard.dictionary.misr().clone())?;
        ops += staged.outcome.total_operations();
    }
    Ok(ops as f64 / start.elapsed().as_secs_f64())
}

/// The traced run: an untraced pass through the real front (program
/// counters, and the baseline for the tracing overhead), a traced pass
/// through the benchmark's own server loop, then a replay of the traced
/// batches through the in-handle layers.
pub fn run_trace(
    fleet: &Fleet,
    seconds: f64,
    run_dir: &Path,
    trace_path: &Path,
    outcome: &mut Outcome,
) -> Result<()> {
    outcome.problems.extend(fleet.problems.iter().cloned());
    let before = Counts::read();
    let (plain, _) = run_front(fleet, seconds / 2.0)?;
    let counts = Counts::read().since(&before);

    let tracer = Tracer::default();
    let program = Arc::new(ProgramSpans::new(&["fleet.request"]));
    twm_obs::trace::set_sink(program.clone());
    twm_obs::trace::set_enabled(true);
    let traced = run_traced_pass(fleet, seconds / 2.0, &tracer, &program);
    twm_obs::trace::set_enabled(false);
    twm_obs::trace::set_sink(Arc::new(twm_obs::NoopSink));
    let (traced, sent) = traced?;
    for log in [&plain, &traced] {
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
        outcome.problems.extend(log.problems.iter().cloned());
    }

    let mirror_dir = run_dir.join(format!("mirror-{}-{}", std::process::id(), now_ns()));
    let replayed = replay(fleet, &sent, &tracer, &mirror_dir);
    let _ = std::fs::remove_dir_all(&mirror_dir);
    let replayed = replayed?;
    outcome.problems.extend(replayed.problems.iter().cloned());
    tracer.write_jsonl(trace_path)?;

    let spans = tracer.spans();
    let layers = breakdown(&spans, "batch");
    let self_us = |name: &str| layers.mean_self_ns(name) / 1e3;
    let handles = durations_ns(&spans, "service.handle").len();
    let plain_ms = median(&plain.batch_ms);
    let traced_ms = median(&traced.batch_ms);
    let unattributed = ratio(
        layers.self_ns.get("batch").copied().unwrap_or(0) as f64,
        layers.wall_ns as f64,
    );
    let devices = plain.devices as f64;

    outcome.set("tcp.wait_ms", self_us("client.read") / 1e3);
    outcome.set("tcp.read_us", self_us("server.read"));
    outcome.set(
        "tcp.write_us",
        self_us("client.write") + self_us("server.write"),
    );
    outcome.set(
        "tcp.bytes_per_device",
        ratio((counts.bytes_in + counts.bytes_out) as f64, devices),
    );
    outcome.set(
        "wire.encode_us",
        self_us("client.encode") + self_us("server.encode"),
    );
    outcome.set(
        "wire.decode_us",
        self_us("server.decode") + self_us("client.decode"),
    );
    outcome.set("dispatch.queue_us", self_us("dispatch"));
    outcome.set("service.handle_ms", self_us("service.handle") / 1e3);
    outcome.set("cache.warm_us", mean_span_ns(&spans, "cache.warm") / 1e3);
    outcome.set("cache.cold_ms", mean_span_ns(&spans, "cache.cold") / 1e6);
    outcome.set(
        "cache.hit_ratio",
        ratio(counts.hits as f64, (counts.hits + counts.misses) as f64),
    );
    outcome.set("store.spill_ms", mean_span_ns(&spans, "store.spill") / 1e6);
    outcome.set(
        "store.paged_find_us",
        mean_span_ns(&spans, "store.paged_find") / 1e3,
    );
    outcome.set(
        "store.page_hit_ratio",
        ratio(counts.page_hits as f64, counts.page_reads as f64),
    );
    outcome.set(
        "store.page_reads_per_device",
        ratio(counts.page_reads as f64, devices),
    );
    outcome.set(
        "repair.localise_us",
        mean_span_ns(&spans, "repair.localise") / 1e3,
    );
    outcome.set(
        "repair.allocate_us",
        mean_span_ns(&spans, "repair.allocate") / 1e3,
    );
    outcome.set(
        "repair.verify_ms",
        mean_span_ns(&spans, "repair.verify") / 1e6,
    );
    outcome.set(
        "repair.verified_frac",
        ratio(replayed.verified as f64, replayed.diagnosed as f64),
    );
    outcome.set("repair.trail_us", fleet.trail_us);
    outcome.set("bist.session_ops_per_s", session_ops_per_s(fleet)?);
    outcome.set("obs.trace_overhead_frac", (traced_ms - plain_ms) / plain_ms);
    outcome.set("unattributed_frac", unattributed);
    let total_ns = |name: &str| durations_ns(&spans, name).iter().sum::<f64>();
    outcome.set(
        "obs.program_span_frac",
        ratio(total_ns("service.handle"), total_ns("dispatch")),
    );

    outcome.line(format!(
        "layer self time per traced batch ({} batches, {:.3} ms mean wall; {handles} handle spans matched):",
        layers.traces,
        layers.wall_ns as f64 / layers.traces.max(1) as f64 / 1e6
    ));
    for (name, &self_ns) in &layers.self_ns {
        let label = if *name == "batch" {
            "(unattributed)"
        } else {
            name
        };
        outcome.line(format!(
            "  {label:<16} {:>12.1} us  {:>6.2}%",
            self_ns as f64 / layers.traces.max(1) as f64 / 1e3,
            100.0 * ratio(self_ns as f64, layers.wall_ns as f64)
        ));
    }
    outcome.line(format!(
        "layer accounting: spans cover {:.2}% of batch wall time (margin {:.0}%); untraced p50 {plain_ms:.3} ms, traced p50 {traced_ms:.3} ms",
        100.0 * (1.0 - unattributed),
        100.0 * ACCOUNTING_MARGIN
    ));
    if layers.traces == 0 {
        outcome.problems.push("no traced batch completed".into());
    } else if unattributed > ACCOUNTING_MARGIN {
        outcome.problems.push(format!(
            "layer spans leave {:.2}% of batch wall time unattributed (margin {:.0}%)",
            100.0 * unattributed,
            100.0 * ACCOUNTING_MARGIN
        ));
    }
    Ok(())
}
