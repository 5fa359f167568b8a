//! The `fleet` workload: a `serve_fleet` daemon on loopback driven
//! open-loop at a fixed light rate, and the wire pieces the `recover`
//! workload shares.
//!
//! With `--trace 1` the same schedules are replayed in-process through the
//! daemon's public pieces (see [`crate::pipeline`]) and the recorded
//! batches again on a twin deployment (see [`crate::twin`]) to split the
//! engine's time by layer.

use crate::deploy::{self, Fleet, FLEET_CLASSES, FLEET_FEATURES};
use crate::openloop::{Answer, Client, PhaseResult, Schedule};
use crate::pipeline::{self, PipelineRun};
use crate::report::{self, Report};
use crate::stats::{mean, median, percentile, sorted, Rng};
use crate::trace::{self, Tracer};
use crate::twin::{self, Twin, TwinStats};
use robusthd::{BatchConfig, ServeConfig};
use robusthd_serve::engine::{FleetEngine, QueryAnswer};
use robusthd_serve::protocol::{encode_request, Request};
use robusthd_serve::server::{serve_fleet, ServerHandle};
use robusthd_serve::{FleetTenant, TenantMix};
use std::collections::HashMap;
use std::time::Instant;

/// The measured phases run in this many interleaved rounds, each ending
/// with one more timed set-up, so `setup_s` samples the whole run too.
pub const ROUNDS: usize = 10;
/// Share of `--seconds` spent in the `light` phase.
const LIGHT_SHARE: f64 = 0.9;
/// Full set-ups before the rounds (each round times one more); `setup_s`
/// is the median of all of them.
pub const SETUPS: usize = 5;
/// Requests of each in-process burst that prices tracing overhead (below
/// the default admission queue depth, so nothing is shed).
const BURST: usize = 1000;

/// Offered load of the `light` phase, requests/s.
pub const LIGHT_QPS: f64 = 200.0;
/// Offered load of the traced run's `busy` phase, requests/s: far below
/// what the daemon answers saturated, so the traced run never sheds.
const BUSY_QPS: f64 = 3000.0;

/// Every distinct request the workload sends, serialized once with its
/// pool index as id, and the answer it must get.
#[derive(Debug, Default)]
pub struct Pool {
    pub lines: Vec<Vec<u8>>,
    pub expected: Vec<Answer>,
    pub labels: Vec<usize>,
    pub rows: Vec<Vec<f64>>,
    /// Fleet tenant of each line.
    pub model: Vec<Option<String>>,
    /// Fleet tenant index of each line.
    pub tenant: Vec<usize>,
}

impl Pool {
    pub fn push(&mut self, model: Option<String>, row: &[f64], label: usize, tenant: usize) {
        let mut line = encode_request(&Request::Classify {
            id: self.lines.len() as u64,
            model: model.clone(),
            features: row.to_vec(),
        });
        line.push('\n');
        self.lines.push(line.into_bytes());
        self.model.push(model);
        self.labels.push(label);
        self.rows.push(row.to_vec());
        self.tenant.push(tenant);
    }
}

pub fn answer(a: &QueryAnswer) -> Answer {
    Answer {
        label: a.label,
        bits: a.confidence.to_bits(),
    }
}

/// How the workload picks each request's pool line.
pub type Pick = Box<dyn Fn(usize, &mut Rng) -> usize>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn count(rate: f64, seconds: f64) -> usize {
    (rate * seconds).round().max(1.0) as usize
}

/// The deployment under load and what the phases need from it.
struct Deployment {
    /// The daemon under load.
    daemon: ServerHandle<FleetEngine>,
    /// A second, identically built engine for the traced run's in-process
    /// replay; only a traced run builds it.
    spare: Option<FleetEngine>,
    setup_s: Vec<f64>,
    pool: Pool,
    pick: Pick,
    gate: Schedule,
    /// Times one more full set-up (torn down at once); runs between rounds
    /// so `setup_s` samples the whole run too.
    resetup: Box<dyn Fn() -> Result<f64, String>>,
}

/// One full fleet set-up: every tenant trained, registered and calibrated,
/// daemon bound.
fn fleet_once(
    batch: &BatchConfig,
    cfg: ServeConfig,
) -> Result<(ServerHandle<FleetEngine>, Vec<FleetTenant>, f64), String> {
    let t = Instant::now();
    let fleet = Fleet::build(batch);
    let handle =
        serve_fleet(("127.0.0.1", 0), cfg, FleetEngine::new(fleet.registry)).map_err(err)?;
    Ok((handle, fleet.tenants, t.elapsed().as_secs_f64()))
}

/// Times one more set-up and tears it down.
fn timed_setup(batch: &BatchConfig, cfg: ServeConfig) -> Result<f64, String> {
    let (handle, _, seconds) = fleet_once(batch, cfg)?;
    handle
        .shutdown()
        .0
        .ok_or("drain thread died during set-up")?;
    Ok(seconds)
}

fn tenant_index(tenants: &[FleetTenant]) -> HashMap<String, usize> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.id.clone(), i))
        .collect()
}

/// Builds the deployment. The first `SETUPS - 1` set-ups are timed one at
/// a time, each torn down before the next is built, and the spare engine
/// and the daemon under load come last, so the peak resident set holds one
/// deployment plus the run rather than every repetition.
fn setup(
    seed: u64,
    batch: &BatchConfig,
    cfg: ServeConfig,
    traced: bool,
) -> Result<Deployment, String> {
    let resetup = {
        let batch = batch.clone();
        Box::new(move || timed_setup(&batch, cfg))
    };
    let mut setup_s = (1..SETUPS)
        .map(|_| resetup())
        .collect::<Result<Vec<_>, _>>()?;
    let spare = traced.then(|| FleetEngine::new(Fleet::build(batch).registry));
    let (daemon, tenants, seconds) = fleet_once(batch, cfg)?;
    setup_s.push(seconds);

    // The reference answers: every tenant's rows served one at a time by
    // a standalone supervisor calibrated like the registry's.
    let mut pool = Pool::default();
    let rows_per_tenant = tenants[0].rows.len();
    for (t, tenant) in tenants.iter().enumerate() {
        assert_eq!(
            tenant.rows.len(),
            rows_per_tenant,
            "tenants share one shape"
        );
        let (encoder, mut model, mut supervisor) = deploy::solo_tenant(tenant, batch);
        for (row, &label) in tenant.rows.iter().zip(&tenant.labels) {
            pool.push(Some(tenant.id.clone()), row, label, t);
            let (report, scores) =
                supervisor.serve_raw_batch_with_scores(&encoder, &mut model, &[row.as_slice()]);
            pool.expected.push(Answer {
                label: report.answers[0],
                bits: scores[0].confidence.confidence.to_bits(),
            });
        }
    }
    let mix = TenantMix::zipf(tenants.iter().map(|t| t.id.clone()).collect(), 1.0, seed);
    let index = tenant_index(&tenants);
    let pick: Pick = Box::new(move |_, rng| {
        let tenant = index[mix.pick(rng.next_u64())];
        tenant * rows_per_tenant + rng.below(rows_per_tenant)
    });
    // A quarter of the admission queue per second: a host stall of up to a
    // second cannot make the daemon shed a gate request.
    let gate = Schedule::poisson(seed ^ 0x6A7E, 1000.0, 2000, &pick);
    Ok(Deployment {
        daemon,
        spare,
        setup_s,
        pool,
        pick,
        gate,
        resetup,
    })
}

/// Runs the bit-exact gate over the wire: every answer must equal the
/// reference's, bit for bit. No timing happens before it passes.
pub fn gate(
    client: &mut Client,
    d_gate: &Schedule,
    pool: &Pool,
    report: &mut Report,
) -> Result<(), String> {
    let r = client
        .run_phase("gate", 0.0, d_gate, &pool.lines, &pool.expected)
        .map_err(err)?;
    if r.succeeded != r.sent || r.changed > 0 {
        return Err(format!(
            "bit-exact gate failed: {} of {} wire answers matched the reference \
             ({} differed, {} were invalid, {} overloaded, {} errors)",
            r.succeeded - r.changed,
            r.sent,
            r.changed,
            r.mismatched,
            r.overloaded,
            r.errors
        ));
    }
    report.phase(&r);
    Ok(())
}

pub fn phase(
    client: &mut Client,
    name: &str,
    seed: u64,
    (rate, n): (f64, usize),
    pool: &Pool,
    pick: &Pick,
) -> Result<(Schedule, PhaseResult), String> {
    let schedule = Schedule::poisson(seed, rate, n, pick);
    let r = client
        .run_phase(name, rate, &schedule, &pool.lines, &pool.expected)
        .map_err(err)?;
    Ok((schedule, r))
}

/// The share of answers with the request's true label, and the answers.
fn accuracy(phases: &[(Schedule, PhaseResult)], pool: &Pool) -> (f64, usize) {
    let mut right = 0;
    let mut total = 0;
    for (schedule, r) in phases {
        for (&pick, label) in schedule.picks.iter().zip(&r.labels) {
            total += 1;
            right += usize::from(*label == Some(pool.labels[pick]));
        }
    }
    (right as f64 / total.max(1) as f64, total)
}

/// The `light` phase of round `r`: [`LIGHT_QPS`] for `seconds`, reported
/// per phase.
pub fn light_round(
    client: &mut Client,
    r: u64,
    seed: u64,
    seconds: f64,
    pool: &Pool,
    pick: &Pick,
    report: &mut Report,
) -> Result<(Schedule, PhaseResult), String> {
    let light = phase(
        client,
        &format!("light.{r}"),
        seed ^ (0x1100 + r),
        (LIGHT_QPS, count(LIGHT_QPS, seconds)),
        pool,
        pick,
    )?;
    report.phase(&light.1);
    println!("round {r}: light p50 {:.3} ms", light.1.latency_p(50.0));
    Ok(light)
}

/// `light.p50_ms` and `light.p99_ms` over every round's `light` phase.
pub fn light_metrics(report: &mut Report, lights: &[(Schedule, PhaseResult)]) {
    let light = PhaseResult::concat("light", lights.iter().map(|(_, p)| p));
    report.metric("light.p50_ms", light.robust_p(50.0), "ms", light.sent);
    report.metric("light.p99_ms", light.robust_p(99.0), "ms", light.sent);
}

/// Runs the `fleet` workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let batch = BatchConfig::default();
    let cfg = ServeConfig::default();
    let d = setup(seed, &batch, cfg, traced)?;
    let mut report = Report::new("fleet", seed, traced, report::host_record(&cfg, &batch));
    let Deployment {
        daemon,
        spare,
        setup_s,
        pool,
        pick,
        gate: gate_schedule,
        resetup,
    } = d;
    let mut setup_s = setup_s;
    let mut client = Client::connect(daemon.addr(), report::cores(), FLEET_CLASSES).map_err(err)?;
    gate(&mut client, &gate_schedule, &pool, &mut report)?;
    if let Some(spare) = spare {
        return traced_run(
            seed, seconds, report, client, daemon, spare, &batch, cfg, &pool, &pick,
        );
    }

    let light_s = seconds * LIGHT_SHARE / ROUNDS as f64;
    let mut lights = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS as u64 {
        lights.push(light_round(
            &mut client,
            r,
            seed,
            light_s,
            &pool,
            &pick,
            &mut report,
        )?);
        setup_s.push(resetup()?);
    }
    drop(client);
    let (_, stats) = daemon.shutdown();
    let (acc, acc_n) = accuracy(&lights, &pool);
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    light_metrics(&mut report, &lights);
    report.metric("accuracy", acc, "ratio", acc_n);
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB", 1);
    println!(
        "daemon stats: results={} overloaded={} errors={} batches={} coalesced={}",
        stats.results, stats.overloaded, stats.errors, stats.batches, stats.coalesced
    );
    Ok(report)
}

/// The per-layer run: one light and one busy phase over the wire, the same
/// schedules replayed in-process with spans, and the recorded batches
/// replayed on a twin.
#[allow(clippy::too_many_arguments)] // the untraced run's state, handed over once
fn traced_run(
    seed: u64,
    seconds: f64,
    mut report: Report,
    mut client: Client,
    daemon: ServerHandle<FleetEngine>,
    spare: FleetEngine,
    batch: &BatchConfig,
    cfg: ServeConfig,
    pool: &Pool,
    pick: &Pick,
) -> Result<Report, String> {
    // Half the run's time on the wire, split between the two rates: the
    // in-process replays that follow take as long again, since they keep
    // the schedules' due times.
    let light_n = count(LIGHT_QPS, seconds / 4.0);
    let busy_n = count(BUSY_QPS, seconds / 4.0);
    let (light_s, light) = phase(
        &mut client,
        "light",
        seed ^ 0x11,
        (LIGHT_QPS, light_n),
        pool,
        pick,
    )?;
    report.phase(&light);
    let (busy_s, busy) = phase(
        &mut client,
        "busy",
        seed ^ 0x22,
        (BUSY_QPS, busy_n),
        pool,
        pick,
    )?;
    report.phase(&busy);

    // Traced run: the wire numbers above price the socket path; now the
    // same schedules in-process, traced, on the spare engine.
    drop(client);
    drop(daemon.shutdown());
    let epoch = Instant::now();
    let (spare, light_run) = pipeline::replay(spare, cfg, &light_s, &pool.lines, true, epoch);
    let (mut spare, busy_run) = pipeline::replay(spare, cfg, &busy_s, &pool.lines, true, epoch);
    for run in [&light_run, &busy_run] {
        let unanswered = run.answers.iter().filter(|a| a.is_none()).count();
        if unanswered > 0 {
            report.wrong(format!(
                "in-process pipeline: {unanswered} requests were shed"
            ));
        }
    }

    // Tracing overhead: in-process bursts, untraced and traced alternately.
    let mut rng = Rng::new(seed ^ 0xB0B5);
    let burst = Schedule {
        offsets_ns: vec![0; BURST],
        picks: (0..BURST).map(|i| pick(i, &mut rng)).collect(),
    };
    let (mut plain, mut with) = (Vec::new(), Vec::new());
    for round in 0..9 {
        // Round 0 warms up and is discarded; the rest alternate.
        let on = round % 2 == 0;
        let (e, run) = pipeline::replay(spare, cfg, &burst, &pool.lines, on, Instant::now());
        spare = e;
        let qps = BURST as f64 / run.elapsed_s;
        if round == 0 {
            continue;
        }
        if on {
            with.push(qps);
        } else {
            plain.push(qps);
        }
    }

    let decode = mean_of(
        &[&light_run.client, &busy_run.client],
        "protocol.decode_request",
    );
    let encode = mean_of(
        &[&light_run.writer, &busy_run.writer],
        "protocol.encode_response",
    );
    report.metric("protocol.decode_us", decode.0, "us", decode.1);
    report.metric("protocol.encode_us", encode.0, "us", encode.1);
    let bytes: Vec<f64> = busy_s
        .picks
        .iter()
        .map(|&p| pool.lines[p].len() as f64)
        .collect();
    report.metric("protocol.request_bytes", mean(&bytes), "bytes", bytes.len());
    let waits = sorted(light_run.wait_us.clone());
    report.metric(
        "coalescer.wait_p50_us",
        percentile(&waits, 50.0),
        "us",
        waits.len(),
    );
    report.metric(
        "coalescer.wait_p99_us",
        percentile(&waits, 99.0),
        "us",
        waits.len(),
    );
    let accepted = busy_run.answers.iter().filter(|a| a.is_some()).count();
    let batches = busy_run.batches.len();
    report.metric(
        "coalescer.batch_mean",
        accepted as f64 / batches.max(1) as f64,
        "count",
        batches,
    );
    report.metric("coalescer.batches", batches as f64, "count", 1);
    report.metric("coalescer.shed", busy_run.shed as f64, "count", 1);
    report.metric(
        "server.unattributed_ms",
        light.mean_latency_ms() - mean(&light_run.latency_ms),
        "ms",
        light.sent,
    );
    report.metric("loadgen.lag_p99_ms", busy.lag_p(99.0), "ms", busy.sent);
    report.metric(
        "trace.overhead",
        median(&with) / median(&plain),
        "ratio",
        with.len(),
    );

    let twin_tracer = fleet_twin(
        Fleet::build(batch),
        batch,
        &[(&light_s, &light_run), (&busy_s, &busy_run)],
        pool,
        &mut report,
    );
    let path = std::path::PathBuf::from(format!(".bench_trace/fleet-seed{seed}.jsonl"));
    trace::write_spans(
        &path,
        &[
            ("light.client", &light_run.client),
            ("light.drain", &light_run.drain),
            ("light.writer", &light_run.writer),
            ("busy.client", &busy_run.client),
            ("busy.drain", &busy_run.drain),
            ("busy.writer", &busy_run.writer),
            ("twin", &twin_tracer),
        ],
    )
    .map_err(err)?;
    println!("spans written to {}", path.display());
    Ok(report)
}

fn mean_of(tracers: &[&Tracer], name: &str) -> (f64, usize) {
    let all: Vec<f64> = tracers.iter().flat_map(|t| t.durations_us(name)).collect();
    (mean(&all), all.len())
}

/// The requests of each recorded batch, as pool indices, with the answers
/// the in-process pipeline gave them, in serving order.
fn recorded(runs: &[(&Schedule, &PipelineRun)]) -> Vec<(u64, Vec<usize>, Vec<QueryAnswer>)> {
    let mut out = Vec::new();
    for (schedule, run) in runs {
        for b in &run.batches {
            let picks = b.iter().map(|&i| schedule.picks[i]).collect();
            let answers = b
                .iter()
                .map(|&i| run.answers[i].expect("batched requests were answered"))
                .collect();
            out.push((b[0] as u64, picks, answers));
        }
    }
    out
}

fn check_twin(report: &mut Report, what: &str, got: &[Answer], want: &[QueryAnswer]) {
    let wrong = got
        .iter()
        .zip(want)
        .filter(|(g, w)| **g != answer(w))
        .count();
    if wrong > 0 {
        report.wrong(format!(
            "{what}: {wrong} answers differ from the in-process pipeline"
        ));
    }
}

fn fleet_twin(
    mut fleet: Fleet,
    batch: &BatchConfig,
    runs: &[(&Schedule, &PipelineRun)],
    pool: &Pool,
    report: &mut Report,
) -> Tracer {
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut stats = TwinStats::default();
    let mut solos = HashMap::new();
    let (mut serve_us, mut tenants_per_batch) = (Vec::new(), Vec::new());
    let (mut groups, mut resident, mut requests) = (0usize, 0usize, 0usize);
    let before = fleet.registry.stats();
    for (request, picks, want) in recorded(runs) {
        let pairs: Vec<(&str, &[f64])> = picks
            .iter()
            .map(|&p| {
                let id = pool.model[p].as_deref().expect("fleet lines name a tenant");
                (id, pool.rows[p].as_slice())
            })
            .collect();
        // Tenant groups in first-appearance order, as the registry groups.
        let mut order: Vec<usize> = Vec::new();
        for &p in &picks {
            if !order.contains(&pool.tenant[p]) {
                order.push(pool.tenant[p]);
            }
        }
        groups += order.len();
        resident += order
            .iter()
            .filter(|&&t| fleet.registry.is_resident(&fleet.tenants[t].id))
            .count();
        tenants_per_batch.push(order.len() as f64);
        requests += picks.len();
        let t0 = tracer.now_ns();
        let answers = fleet.registry.serve_supervised(&pairs);
        let t1 = tracer.now_ns();
        tracer.record("fleet.serve_supervised", t0, t1, None, Some(request));
        serve_us.push((t1 - t0) as f64 / 1e3);
        match answers {
            Ok(answers) => {
                let got: Vec<Answer> = answers
                    .iter()
                    .map(|a| Answer {
                        label: a.label,
                        bits: a.confidence.to_bits(),
                    })
                    .collect();
                check_twin(report, "fleet registry twin", &got, &want);
            }
            Err(e) => report.wrong(format!("fleet registry twin failed: {e}")),
        }

        // The same groups on standalone per-tenant supervisors, split by
        // layer.
        for t in order {
            let members: Vec<usize> = (0..picks.len())
                .filter(|&k| pool.tenant[picks[k]] == t)
                .collect();
            let rows: Vec<&[f64]> = members
                .iter()
                .map(|&k| pool.rows[picks[k]].as_slice())
                .collect();
            let (encoder, model, supervisor) = solos
                .entry(t)
                .or_insert_with(|| deploy::solo_tenant(&fleet.tenants[t], batch));
            let mut twin = Twin {
                encoder,
                model,
                supervisor,
            };
            let (rep, scores) = twin.serve(&mut tracer, &mut stats, Some(request), &rows);
            let want: Vec<QueryAnswer> = members.iter().map(|&k| want[k]).collect();
            check_twin(
                report,
                "per-tenant supervisor twin",
                &twin::answers(&rep, &scores),
                &want,
            );
        }
    }
    let after = fleet.registry.stats();
    let tenant = &fleet.tenants[0];
    let persist = twin::time_persist(
        &mut tracer,
        &tenant.config,
        FLEET_FEATURES,
        &tenant.model,
        16,
    );
    twin::report_metrics(report, &stats, FLEET_FEATURES, persist);
    let per_kreq = |n: u64| n as f64 * 1000.0 / requests.max(1) as f64;
    report.metric(
        "fleet.rehydrations_per_kreq",
        per_kreq(after.rehydrations - before.rehydrations),
        "count",
        requests,
    );
    report.metric(
        "fleet.evictions_per_kreq",
        per_kreq(after.evictions - before.evictions),
        "count",
        requests,
    );
    report.metric(
        "fleet.resident_hit_share",
        resident as f64 / groups.max(1) as f64,
        "ratio",
        groups,
    );
    report.metric(
        "fleet.tenants_per_batch",
        mean(&tenants_per_batch),
        "count",
        tenants_per_batch.len(),
    );
    report.metric(
        "fleet.serve_us_per_batch",
        mean(&serve_us),
        "us",
        serve_us.len(),
    );
    tracer
}
