//! The `recover` workload: the paper's scenario on the ucihar-shaped solo
//! deployment.
//!
//! A `serve` daemon over the solo deployment answers an open-loop `light`
//! phase on loopback, exactly as the `fleet` workload's daemon does. In
//! between, identically built deployments serve 64-row batches in-process
//! through `ResilienceSupervisor::serve_raw_batch_with_scores` while
//! `faultsim::Attacker::random_flips` corrupts 0.3 % of the model's bits
//! before every batch, so the supervisor's repair path (recovery, re-score,
//! escalation, rollback through `persist`) does a large share of the work;
//! their answers give `accuracy`. Injection is never timed. Batch counts
//! follow from `--seconds` alone, so `accuracy` is a pure function of the
//! seed and the run length.

use crate::daemon::{self, Pick, Pool};
use crate::deploy::{Solo, SOLO_CLASSES};
use crate::openloop::{Client, Schedule};
use crate::report::{self, Report};
use crate::stats::{median, percentile, sorted, Rng};
use crate::trace::{self, Tracer};
use crate::twin::{self, Twin, TwinStats};
use faultsim::Attacker;
use robusthd::{BatchConfig, BatchReport, BatchScore, Encoder, ServeConfig, TrainedModel};
use robusthd_serve::engine::ServeEngine;
use robusthd_serve::server::{self, ServerHandle};
use std::time::Instant;

const BATCH_ROWS: usize = 64;
/// Share of the model's bits flipped before each faulty batch.
pub const FAULT_RATE: f64 = 0.003;
/// Faulty batches per second of `--seconds`: about 15 ms each, so they
/// take about a tenth of the run.
const FAULTY_PER_SECOND: f64 = 6.0;
/// Share of `--seconds` spent in the `light` phase.
const LIGHT_SHARE: f64 = 0.7;
/// Batches whose reports must be identical at one thread and at the
/// default thread count before anything is timed.
const GATE_BATCHES: usize = 8;
/// Independent fault sequences in the faulty phase, each on its own
/// deployment, served round-robin. Repair outcomes are correlated over long
/// stretches of one sequence, so several shorter sequences give a steadier
/// `accuracy` than one long one.
const CHAINS: usize = 3;
/// Bursts, and batches per burst, of the tracing-overhead measurement.
const OVERHEAD_BURSTS: usize = 9;
const OVERHEAD_BATCHES: usize = 20;

fn corrupt(model: &mut TrainedModel, attacker: &mut Attacker) {
    let mut image = model.to_memory_image();
    let bits = image.len();
    attacker.random_flips(image.words_mut(), bits, FAULT_RATE);
    image.mask_tail();
    model.load_memory_image(&image);
}

/// The rows of batch `k`: a seeded permutation of the served rows, walked
/// in order.
struct Batches {
    order: Vec<usize>,
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

impl Batches {
    fn new(seed: u64, solo: &Solo) -> Self {
        let n = solo.rows.len();
        let mut rng = Rng::new(seed ^ 0xBA7C);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Self {
            order,
            rows: solo.rows.clone(),
            labels: solo.labels.clone(),
        }
    }

    fn index(&self, k: usize, j: usize) -> usize {
        self.order[(k * BATCH_ROWS + j) % self.order.len()]
    }

    fn rows(&self, k: usize) -> Vec<&[f64]> {
        (0..BATCH_ROWS)
            .map(|j| self.rows[self.index(k, j)].as_slice())
            .collect()
    }

    fn labels(&self, k: usize) -> Vec<usize> {
        (0..BATCH_ROWS)
            .map(|j| self.labels[self.index(k, j)])
            .collect()
    }
}

fn serve(solo: &mut Solo, rows: &[&[f64]]) -> (BatchReport, Vec<BatchScore>) {
    solo.supervisor
        .serve_raw_batch_with_scores(&solo.encoder, &mut solo.model, rows)
}

/// The bit-exact gate: the first batches' reports and scores at one thread
/// must equal those at the default thread count.
fn gate(seed: u64, single: &mut Solo, default: &mut Solo, batches: &Batches) -> Result<(), String> {
    let mut a1 = Attacker::seed_from(seed ^ 0xFA17);
    let mut a2 = Attacker::seed_from(seed ^ 0xFA17);
    for k in 0..GATE_BATCHES {
        corrupt(&mut single.model, &mut a1);
        corrupt(&mut default.model, &mut a2);
        let (r1, s1) = serve(single, &batches.rows(k));
        let (r2, s2) = serve(default, &batches.rows(k));
        let same_scores = s1.len() == s2.len()
            && s1.iter().zip(&s2).all(|(a, b)| {
                a.predicted == b.predicted
                    && a.confidence.confidence.to_bits() == b.confidence.confidence.to_bits()
            });
        if r1 != r2 || !same_scores {
            return Err(format!(
                "bit-exact gate failed: batch {k} differs between threads=1 and threads={}",
                default.supervisor.batch_engine().config().threads
            ));
        }
    }
    Ok(())
}

/// Builds one deployment per config, in order.
fn setups(configs: &[BatchConfig]) -> Vec<Solo> {
    configs.iter().map(Solo::build).collect()
}

/// A bound solo daemon, its served rows and labels, and its set-up seconds.
type SoloSetup = (ServerHandle<ServeEngine>, Vec<Vec<f64>>, Vec<usize>, f64);

/// One full solo set-up: data, training, calibration, daemon bind.
fn solo_once(batch: &BatchConfig, cfg: ServeConfig) -> Result<SoloSetup, String> {
    let t = Instant::now();
    let (engine, rows, labels) = Solo::build(batch).into_engine();
    let handle = server::serve(("127.0.0.1", 0), cfg, engine).map_err(daemon::err)?;
    Ok((handle, rows, labels, t.elapsed().as_secs_f64()))
}

/// Times one more solo set-up and tears it down.
fn timed_setup(batch: &BatchConfig, cfg: ServeConfig) -> Result<f64, String> {
    let (handle, _, _, seconds) = solo_once(batch, cfg)?;
    handle
        .shutdown()
        .0
        .ok_or("drain thread died during set-up")?;
    Ok(seconds)
}

/// The daemon's request pool: every served row once, with the answer an
/// identically built engine gives it served alone.
fn pool(rows: &[Vec<f64>], labels: &[usize], reference: &mut ServeEngine) -> Pool {
    let mut pool = Pool::default();
    for (row, &label) in rows.iter().zip(labels) {
        pool.push(None, row, label, 0);
        pool.expected
            .push(daemon::answer(&reference.serve(&[row.as_slice()])[0]));
    }
    pool
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let batch = BatchConfig::default();
    let single = BatchConfig::builder()
        .threads(1)
        .build()
        .expect("valid batch config");
    let cfg = ServeConfig::default();
    let n = (FAULTY_PER_SECOND * seconds).round().max(1.0) as usize;
    let mut report = Report::new("recover", seed, traced, report::host_record(&cfg, &batch));
    // The gate's two deployments are dropped before the measured ones are
    // built, so the peak resident set holds only what the run serves.
    let mut pair = setups(&[single, batch.clone()]);
    let batches = Batches::new(seed, &pair[0]);
    {
        let (a, b) = pair.split_at_mut(1);
        gate(seed, &mut a[0], &mut b[0], &batches)?;
    }
    drop(pair);
    report.attempted += 2 * GATE_BATCHES * BATCH_ROWS;

    if traced {
        let mut solos = setups(&[batch.clone(), batch]);
        let mut reference = solos.pop().expect("reference set-up");
        let mut twin_solo = solos.pop().expect("twin set-up");
        return Ok(traced_run(
            seed,
            n / 2,
            &batches,
            &mut twin_solo,
            &mut reference,
            report,
        ));
    }

    // Timed set-ups one at a time, each torn down before the next; then
    // the faulty chains, the reference engine and the daemon under load.
    let mut setup_s = (1..daemon::SETUPS)
        .map(|_| timed_setup(&batch, cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let mut chains: Vec<(Solo, Attacker)> = setups(&vec![batch.clone(); CHAINS])
        .into_iter()
        .zip(0u64..)
        .map(|(solo, c)| (solo, Attacker::seed_from(seed ^ 0xFA17 ^ (c << 32))))
        .collect();
    let (mut reference, _, _) = Solo::build(&batch).into_engine();
    let (handle, rows, labels, seconds_once) = solo_once(&batch, cfg)?;
    setup_s.push(seconds_once);
    let pool = pool(&rows, &labels, &mut reference);
    drop(reference);
    let lines = pool.lines.len();
    let pick: Pick = Box::new(move |_, rng: &mut Rng| rng.below(lines));

    // The wire gate: every row once, answered bit-exactly as the reference
    // engine answered it.
    let mut client =
        Client::connect(handle.addr(), report::cores(), SOLO_CLASSES).map_err(daemon::err)?;
    let gate_schedule = Schedule::poisson(seed ^ 0x6A7E, 1000.0, lines, |i, _| i);
    daemon::gate(&mut client, &gate_schedule, &pool, &mut report)?;

    let light_s = seconds * LIGHT_SHARE / daemon::ROUNDS as f64;
    let mut lights = Vec::with_capacity(daemon::ROUNDS);
    let (mut faulty_s, mut healthy_ms, mut repair_ms) = (0.0, Vec::new(), Vec::new());
    let (mut right, mut served) = (0usize, 0usize);
    for round in 0..daemon::ROUNDS {
        lights.push(daemon::light_round(
            &mut client,
            round as u64,
            seed,
            light_s,
            &pool,
            &pick,
            &mut report,
        )?);
        for k in round * n / daemon::ROUNDS..(round + 1) * n / daemon::ROUNDS {
            let (solo, attacker) = &mut chains[k % CHAINS];
            corrupt(&mut solo.model, attacker);
            let rows = batches.rows(k);
            let t = Instant::now();
            let (r, _) = serve(solo, &rows);
            let elapsed = t.elapsed().as_secs_f64();
            faulty_s += elapsed;
            if r.verdict == robusthd::diagnostics::HealthVerdict::Degraded {
                repair_ms.push(elapsed * 1e3);
            } else {
                healthy_ms.push(elapsed * 1e3);
            }
            for (answer, label) in r.answers.iter().zip(batches.labels(k)) {
                right += usize::from(*answer == Some(label));
                served += 1;
            }
        }
        setup_s.push(timed_setup(&batch, cfg)?);
    }
    drop(client);
    let (_, stats) = handle.shutdown();
    report.attempted += served;
    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    daemon::light_metrics(&mut report, &lights);
    report.metric("accuracy", right as f64 / served as f64, "ratio", served);
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB", 1);
    println!(
        "daemon stats: results={} overloaded={} errors={} batches={}",
        stats.results, stats.overloaded, stats.errors, stats.batches
    );
    println!(
        "faulty batches: {:.0} rows/s; {} healthy p50 {:.3} ms, {} degraded p50 {:.3} ms",
        served as f64 / faulty_s,
        healthy_ms.len(),
        percentile(&sorted(healthy_ms.clone()), 50.0),
        repair_ms.len(),
        percentile(&sorted(repair_ms.clone()), 50.0),
    );
    for (solo, _) in &chains {
        println!(
            "supervisor: rollbacks={} escalations={} level={} quarantined={:?}",
            solo.supervisor.rollbacks(),
            solo.supervisor.escalations(),
            solo.supervisor.level(),
            solo.supervisor.quarantined_classes()
        );
    }
    Ok(report)
}

/// The faulty phase on a twin split by layer, against an untraced
/// reference fed the same faults; the two must answer identically.
fn traced_run(
    seed: u64,
    n: usize,
    batches: &Batches,
    twin_solo: &mut Solo,
    reference: &mut Solo,
    mut report: Report,
) -> Report {
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut stats = TwinStats::default();
    let mut a_twin = Attacker::seed_from(seed ^ 0xFA17);
    let mut a_ref = Attacker::seed_from(seed ^ 0xFA17);
    let mut wrong = 0;
    for k in 0..n {
        corrupt(&mut reference.model, &mut a_ref);
        corrupt(&mut twin_solo.model, &mut a_twin);
        let rows = batches.rows(k);
        let (want, want_scores) = serve(reference, &rows);
        let mut twin = Twin {
            encoder: &twin_solo.encoder,
            model: &mut twin_solo.model,
            supervisor: &mut twin_solo.supervisor,
        };
        let (got, got_scores) = twin.serve(&mut tracer, &mut stats, Some(k as u64), &rows);
        let same = twin::answers(&got, &got_scores) == twin::answers(&want, &want_scores);
        wrong += usize::from(!same);
    }
    report.attempted += 2 * n * BATCH_ROWS;
    if wrong > 0 {
        report.wrong(format!(
            "recover twin: {wrong} batches differ from the reference"
        ));
    }

    // Tracing overhead: the same twin replay on two identically built
    // deployments fed the same faults, one with the tracer on and one with
    // it off, burst by burst, alternating which goes first. Burst 0 warms
    // up and is discarded.
    let config = twin_solo.supervisor.batch_engine().config().clone();
    let mut pair = setups(&[config.clone(), config]);
    let mut attackers = [0, 1].map(|_| Attacker::seed_from(seed ^ 0x0E4D));
    let (mut with, mut plain) = (Vec::new(), Vec::new());
    let mut scratch = TwinStats::default();
    for burst in 0..OVERHEAD_BURSTS {
        let first = burst % 2;
        for side in [first, 1 - first] {
            let on = side == 0;
            let solo = &mut pair[side];
            let mut burst_tracer = Tracer::new(Instant::now(), on);
            let mut busy_s = 0.0;
            for j in 0..OVERHEAD_BATCHES {
                let k = burst * OVERHEAD_BATCHES + j;
                corrupt(&mut solo.model, &mut attackers[side]);
                let rows = batches.rows(k);
                let t = Instant::now();
                let mut twin = Twin {
                    encoder: &solo.encoder,
                    model: &mut solo.model,
                    supervisor: &mut solo.supervisor,
                };
                std::hint::black_box(twin.serve(
                    &mut burst_tracer,
                    &mut scratch,
                    Some(k as u64),
                    &rows,
                ));
                busy_s += t.elapsed().as_secs_f64();
            }
            report.attempted += OVERHEAD_BATCHES * BATCH_ROWS;
            if burst > 0 {
                let rows_per_s = (OVERHEAD_BATCHES * BATCH_ROWS) as f64 / busy_s;
                if on {
                    with.push(rows_per_s);
                } else {
                    plain.push(rows_per_s);
                }
            }
        }
    }
    let features = twin_solo.encoder.features();
    let persist = twin::time_persist(
        &mut tracer,
        &twin_solo.config,
        features,
        &twin_solo.model,
        16,
    );
    twin::report_metrics(&mut report, &stats, features, persist);
    report.metric(
        "trace.overhead",
        median(&with) / median(&plain),
        "ratio",
        with.len() + plain.len(),
    );
    for (name, unit, why) in [
        (
            "protocol.decode_us",
            "us",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "protocol.encode_us",
            "us",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "protocol.request_bytes",
            "bytes",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "coalescer.wait_p50_us",
            "us",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "coalescer.wait_p99_us",
            "us",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "coalescer.batch_mean",
            "count",
            "traced on fleet: in-process batches hold 64 rows",
        ),
        (
            "coalescer.batches",
            "count",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "coalescer.shed",
            "count",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "server.unattributed_ms",
            "ms",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
        (
            "loadgen.lag_p99_ms",
            "ms",
            "traced on fleet: this run traces the faulty in-process phase",
        ),
    ] {
        report.omit(name, unit, why);
    }
    for (name, unit) in twin::FLEET_METRICS {
        report.omit(name, unit, "one model served in-process: no model registry");
    }
    let path = std::path::PathBuf::from(format!(".bench_trace/recover-seed{seed}.jsonl"));
    match trace::write_spans(&path, &[("twin", &tracer)]) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => report.wrong(format!("could not write spans: {e}")),
    }
    report
}
