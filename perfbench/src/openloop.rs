//! The open-loop load generator.
//!
//! Independent users make an open loop: request `i` is due at a fixed
//! offset from the phase start, whether or not earlier requests have been
//! answered, so a stalled daemon keeps receiving load and its queue grows.
//! Every latency is timed from the request's *due* time, not from when the
//! generator managed to send it, so one stall is charged to every request
//! queued behind it; how late the generator itself ran is reported as lag.
//!
//! The generator is one sender thread and the calling (receiver) thread
//! over one connection. The daemon answers a connection in request order,
//! so responses are matched to requests first-in first-out, and the echoed
//! id (the request's pool index) is checked against the expectation.

use crate::stats::{block_percentiles, median, percentile, sorted, Rng};
use robusthd_serve::protocol::{self, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// Threads of the generator: one sender plus the calling thread as
/// receiver, over one connection. The benchmark refuses a host with fewer
/// cores, so the client cannot crowd out the daemon it measures.
pub const GENERATOR_THREADS: usize = 2;

/// When each request of a phase is due and which pooled request line it
/// sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Due time of request `i`, in nanoseconds after the phase start.
    pub offsets_ns: Vec<u64>,
    /// Pool index of request `i`.
    pub picks: Vec<usize>,
}

impl Schedule {
    /// Poisson arrivals at `rate` per second: exponential gaps drawn from a
    /// generator seeded with `seed`, and `pick` choosing each request's pool
    /// line from the same generator. A pure function of its arguments.
    pub fn poisson(
        seed: u64,
        rate: f64,
        count: usize,
        mut pick: impl FnMut(usize, &mut Rng) -> usize,
    ) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        let mut rng = Rng::new(seed);
        let mut t = 0.0f64;
        let mut offsets_ns = Vec::with_capacity(count);
        let mut picks = Vec::with_capacity(count);
        for i in 0..count {
            t += -rng.unit_open().ln() / rate;
            offsets_ns.push((t * 1e9) as u64);
            picks.push(pick(i, &mut rng));
        }
        Self { offsets_ns, picks }
    }

    pub fn len(&self) -> usize {
        self.picks.len()
    }
}

/// The answer a `result` response must carry: label and the confidence's
/// `f64::to_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub label: Option<usize>,
    pub bits: u64,
}

/// What one phase observed.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub name: String,
    pub rate: f64,
    pub sent: usize,
    /// Well-formed `result` responses to the right request.
    pub succeeded: usize,
    pub overloaded: usize,
    pub errors: usize,
    /// `result` responses with the wrong id, a label outside the model's
    /// classes, or a confidence outside `[0, 1]`.
    pub mismatched: usize,
    /// Successful answers that differ from the reference answer: the
    /// supervisor changed the model (a repair) since the reference was
    /// taken.
    pub changed: usize,
    /// Per request, in schedule order: latency from due time to response,
    /// in ms; `INFINITY` for a request that was not answered with a result.
    pub latency_ms: Vec<f64>,
    /// Per request: how late the generator sent it, in ms.
    pub lag_ms: Vec<f64>,
    /// Per request: the label of a successful answer.
    pub labels: Vec<Option<usize>>,
}

/// Requests per block of [`PhaseResult::robust_p`]: the smallest count
/// whose p99 still has ten samples beyond it.
pub const BLOCK: usize = 1000;

impl PhaseResult {
    /// The segments of one phase as one result, in order.
    pub fn concat<'a>(name: &str, parts: impl IntoIterator<Item = &'a PhaseResult>) -> Self {
        let mut all = PhaseResult {
            name: name.to_owned(),
            rate: 0.0,
            sent: 0,
            succeeded: 0,
            overloaded: 0,
            errors: 0,
            mismatched: 0,
            changed: 0,
            latency_ms: Vec::new(),
            lag_ms: Vec::new(),
            labels: Vec::new(),
        };
        for p in parts {
            all.rate = p.rate;
            all.sent += p.sent;
            all.succeeded += p.succeeded;
            all.overloaded += p.overloaded;
            all.errors += p.errors;
            all.mismatched += p.mismatched;
            all.changed += p.changed;
            all.latency_ms.extend(&p.latency_ms);
            all.lag_ms.extend(&p.lag_ms);
            all.labels.extend(&p.labels);
        }
        all
    }

    /// Requests answered with `overloaded` or `error`: failures, which also
    /// count as missing every latency limit.
    pub fn failed(&self) -> usize {
        self.overloaded + self.errors
    }

    /// Nearest-rank percentile over every request, failures included as
    /// infinitely late.
    pub fn latency_p(&self, p: f64) -> f64 {
        percentile(&sorted(self.latency_ms.clone()), p)
    }

    /// The median, over consecutive blocks of [`BLOCK`] requests, of each
    /// block's nearest-rank percentile `p` (failures infinitely late). A
    /// phase shorter than two blocks is one block. A host hiccup spoils the
    /// few blocks it overlaps, not the phase.
    pub fn robust_p(&self, p: f64) -> f64 {
        median(&block_percentiles(&self.latency_ms, BLOCK, p))
    }

    pub fn lag_p(&self, p: f64) -> f64 {
        percentile(&sorted(self.lag_ms.clone()), p)
    }

    pub fn mean_latency_ms(&self) -> f64 {
        crate::stats::mean(&self.latency_ms)
    }
}

/// One client connection to the daemon, kept across phases.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Class count of the served models: a valid label is below it.
    classes: usize,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr, cores: usize, classes: usize) -> io::Result<Self> {
        if cores < GENERATOR_THREADS {
            return Err(io::Error::other(format!(
                "the load generator needs {GENERATOR_THREADS} threads, host has {cores} cores"
            )));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            classes,
        })
    }

    /// Sends `schedule` open-loop (line `lines[picks[i]]` at its due time)
    /// and collects every response. Each line carries its pool index as its
    /// id; `expected[p]` is the reference answer of pool line `p`.
    pub fn run_phase(
        &mut self,
        name: &str,
        rate: f64,
        schedule: &Schedule,
        lines: &[Vec<u8>],
        expected: &[Answer],
    ) -> io::Result<PhaseResult> {
        let n = schedule.len();
        let start = Instant::now() + Duration::from_millis(2);
        let mut writer = self.writer.try_clone()?;
        let mut result = PhaseResult {
            name: name.to_owned(),
            rate,
            sent: n,
            succeeded: 0,
            overloaded: 0,
            errors: 0,
            mismatched: 0,
            changed: 0,
            latency_ms: Vec::with_capacity(n),
            lag_ms: Vec::new(),
            labels: Vec::with_capacity(n),
        };
        let lags = thread::scope(|scope| -> io::Result<Vec<f64>> {
            let sender = scope.spawn(move || -> io::Result<Vec<f64>> {
                let mut lags = Vec::with_capacity(n);
                for (&offset, &pick) in schedule.offsets_ns.iter().zip(&schedule.picks) {
                    let due = start + Duration::from_nanos(offset);
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    writer.write_all(&lines[pick])?;
                    lags.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                Ok(lags)
            });
            let received = self.receive(schedule, start, expected, &mut result);
            let lags = sender
                .join()
                .map_err(|_| io::Error::other("sender thread panicked"))?;
            received?;
            lags
        })?;
        result.lag_ms = lags;
        Ok(result)
    }

    fn receive(
        &mut self,
        schedule: &Schedule,
        start: Instant,
        expected: &[Answer],
        result: &mut PhaseResult,
    ) -> io::Result<()> {
        let mut line = String::new();
        for (&offset, &pick) in schedule.offsets_ns.iter().zip(&schedule.picks) {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            let done = Instant::now();
            let due = start + Duration::from_nanos(offset);
            let latency = done.saturating_duration_since(due).as_secs_f64() * 1e3;
            let mut label = None;
            let latency = match protocol::decode_response(line.trim_end()) {
                Ok(Response::Result {
                    id,
                    label: got,
                    confidence,
                }) => {
                    let valid = id == pick as u64
                        && got.is_none_or(|l| l < self.classes)
                        && (0.0..=1.0).contains(&confidence);
                    if valid {
                        result.succeeded += 1;
                        let want = expected[pick];
                        if got != want.label || confidence.to_bits() != want.bits {
                            result.changed += 1;
                        }
                        label = got;
                        latency
                    } else {
                        result.mismatched += 1;
                        f64::INFINITY
                    }
                }
                Ok(Response::Overloaded { .. }) => {
                    result.overloaded += 1;
                    f64::INFINITY
                }
                _ => {
                    result.errors += 1;
                    f64::INFINITY
                }
            };
            result.latency_ms.push(latency);
            result.labels.push(label);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robusthd_serve::protocol::{decode_request, encode_request, encode_response, Request};
    use std::net::TcpListener;

    fn line(id: usize) -> Vec<u8> {
        let mut s = encode_request(&Request::Classify {
            id: id as u64,
            model: None,
            features: vec![0.25, 0.5],
        });
        s.push('\n');
        s.into_bytes()
    }

    /// A fake daemon: answers each request in order with `respond(index,
    /// id)`, after sleeping `stall` before the request at `stall_at`.
    fn fake_server(
        stall_at: usize,
        stall: Duration,
        respond: fn(usize, u64) -> Response,
    ) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut writer = stream.try_clone().expect("clone");
            let reader = BufReader::new(stream);
            for (index, request) in reader.lines().enumerate() {
                let Ok(request) = request else { return };
                let Ok(Request::Classify { id, .. }) = decode_request(&request) else {
                    return;
                };
                if index == stall_at {
                    thread::sleep(stall);
                }
                let mut out = encode_response(&respond(index, id));
                out.push('\n');
                if writer.write_all(out.as_bytes()).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    fn ok(_: usize, id: u64) -> Response {
        Response::Result {
            id,
            label: Some(1),
            confidence: 0.5,
        }
    }

    fn expected(n: usize) -> Vec<Answer> {
        vec![
            Answer {
                label: Some(1),
                bits: 0.5f64.to_bits(),
            };
            n
        ]
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_rate_and_count() {
        let pick = |i: usize, rng: &mut Rng| (i + rng.below(7)) % 5;
        let a = Schedule::poisson(7, 1000.0, 500, pick);
        let b = Schedule::poisson(7, 1000.0, 500, pick);
        assert_eq!(a, b);
        assert_ne!(a, Schedule::poisson(8, 1000.0, 500, pick));
        let slower = Schedule::poisson(7, 500.0, 500, pick);
        assert_eq!(slower.picks, a.picks, "picks do not depend on the rate");
        assert_ne!(slower.offsets_ns, a.offsets_ns);
        // The prefix of a longer schedule is the shorter schedule.
        let longer = Schedule::poisson(7, 1000.0, 800, pick);
        assert_eq!(longer.offsets_ns[..500], a.offsets_ns[..]);
        assert!(a.offsets_ns.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap close to 1/rate.
        let mean_gap = a.offsets_ns[499] as f64 / 1e9 / 500.0;
        assert!((mean_gap - 1e-3).abs() < 2e-4, "mean gap {mean_gap}");
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        let stall_at = 5;
        let stall = Duration::from_millis(120);
        let (addr, server) = fake_server(stall_at, stall, ok);
        let mut client = Client::connect(addr, 2, 3).expect("connect");
        let schedule = Schedule::poisson(3, 1000.0, 60, |_, _| 0);
        let lines = vec![line(0)];
        let r = client
            .run_phase("stall", 1000.0, &schedule, &lines, &expected(1))
            .expect("phase runs");
        drop(client);
        server.join().expect("server");
        assert_eq!(r.succeeded, 60);
        let stall_ms = stall.as_secs_f64() * 1e3;
        let t0 = schedule.offsets_ns[stall_at] as f64 / 1e6;
        let mut queued = 0;
        for (i, &latency) in r.latency_ms.iter().enumerate().skip(stall_at) {
            let due = schedule.offsets_ns[i] as f64 / 1e6;
            // Due before the stall ended: waited at least until it ended.
            if due < t0 + stall_ms {
                queued += 1;
                assert!(
                    latency >= t0 + stall_ms - due - 1.0,
                    "request {i} due {due:.1} ms saw {latency:.1} ms"
                );
            }
        }
        assert!(queued > 20, "the stall must cover many due requests");
        // Sending never waited on the stall: the loop is open.
        assert!(r.lag_p(99.0) < stall_ms / 2.0, "lag {}", r.lag_p(99.0));
    }

    #[test]
    fn overloaded_and_error_answers_are_failures_and_misses() {
        fn mixed(index: usize, id: u64) -> Response {
            match index % 10 {
                3 => Response::Overloaded { id },
                7 => Response::Error {
                    message: "nope".into(),
                    id: Some(id),
                },
                _ => ok(index, id),
            }
        }
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO, mixed);
        let mut client = Client::connect(addr, 2, 3).expect("connect");
        let schedule = Schedule::poisson(4, 2000.0, 200, |_, _| 0);
        let r = client
            .run_phase("mixed", 2000.0, &schedule, &[line(0)], &expected(1))
            .expect("phase runs");
        drop(client);
        server.join().expect("server");
        assert_eq!((r.overloaded, r.errors, r.succeeded), (20, 20, 160));
        assert_eq!(r.failed(), 40);
        assert_eq!(r.latency_ms.iter().filter(|l| l.is_infinite()).count(), 40);
        assert!(r.latency_p(99.0).is_infinite(), "failures miss p99");
        assert!(
            r.robust_p(99.0).is_infinite(),
            "failures miss the block p99"
        );
    }

    #[test]
    fn invalid_answers_are_mismatches_and_changed_answers_are_counted() {
        fn odd(index: usize, id: u64) -> Response {
            match index % 4 {
                // Wrong id, label out of range, confidence out of range.
                0 => ok(index, id + 1),
                1 => Response::Result {
                    id,
                    label: Some(3),
                    confidence: 0.5,
                },
                2 => Response::Result {
                    id,
                    label: None,
                    confidence: 1.5,
                },
                // Valid, but not the reference answer.
                _ => Response::Result {
                    id,
                    label: None,
                    confidence: 0.25,
                },
            }
        }
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO, odd);
        let mut client = Client::connect(addr, 2, 3).expect("connect");
        let schedule = Schedule::poisson(5, 2000.0, 20, |_, _| 0);
        let r = client
            .run_phase("odd", 2000.0, &schedule, &[line(0)], &expected(1))
            .expect("phase runs");
        drop(client);
        server.join().expect("server");
        assert_eq!((r.mismatched, r.succeeded, r.changed), (15, 5, 5));
    }

    fn phase_with(latency_ms: Vec<f64>) -> PhaseResult {
        let n = latency_ms.len();
        PhaseResult {
            name: "synthetic".into(),
            rate: 1.0,
            sent: n,
            succeeded: n,
            overloaded: 0,
            errors: 0,
            mismatched: 0,
            changed: 0,
            lag_ms: vec![0.0; n],
            labels: vec![None; n],
            latency_ms,
        }
    }

    #[test]
    fn block_percentiles_shrug_off_one_hiccup() {
        // Five blocks at 2 ms with one block stalled at 80 ms.
        let mut lat = vec![2.0; 5 * BLOCK];
        lat[2 * BLOCK..3 * BLOCK].iter_mut().for_each(|l| *l = 80.0);
        let r = phase_with(lat);
        assert_eq!(r.robust_p(99.0), 2.0);
        assert_eq!(r.latency_p(99.0), 80.0);
        // A short phase is one block.
        assert_eq!(phase_with(vec![1.0, 9.0]).robust_p(100.0), 9.0);
    }

    #[test]
    fn thread_and_connection_cap_is_enforced() {
        // One connection and two threads: a host with fewer cores than the
        // generator has threads is refused before anything is sent.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let err = Client::connect(addr, 1, 3).unwrap_err();
        assert!(err.to_string().contains("host has 1 cores"), "{err}");
        assert!(Client::connect(addr, GENERATOR_THREADS, 3).is_ok());
    }
}
