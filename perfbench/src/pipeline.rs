//! The traced in-process replay of a daemon schedule through the daemon's
//! public pieces: `protocol::decode_request`, `Coalescer::submit_routed`,
//! a drain loop on `Coalescer::next_batch` and `DrainEngine::serve_pending`,
//! then `protocol::encode_response`. It has the daemon's thread roles (a
//! reader, the drain thread and an ordered writer) but no sockets, so the
//! client-observed latency minus this pipeline's is the socket and thread
//! path that no public function exposes.

use crate::openloop::Schedule;
use crate::trace::Tracer;
use robusthd::ServeConfig;
use robusthd_serve::coalescer::Coalescer;
use robusthd_serve::engine::{DrainEngine, QueryAnswer};
use robusthd_serve::protocol::{decode_request, encode_response, Request, Response};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct PipelineRun {
    /// Per request: due time to encoded response, in ms.
    pub latency_ms: Vec<f64>,
    /// Per request: the answer, `None` when shed at admission.
    pub answers: Vec<Option<QueryAnswer>>,
    /// Schedule positions of the requests each drained batch held.
    pub batches: Vec<Vec<usize>>,
    /// Per accepted request: submit to `next_batch` returning its batch, µs.
    pub wait_us: Vec<f64>,
    pub shed: usize,
    pub elapsed_s: f64,
    pub client: Tracer,
    pub drain: Tracer,
    pub writer: Tracer,
}

/// Replays `schedule` (a schedule whose offsets are all zero is a burst)
/// through `engine`, with spans when `traced`, and hands the engine back.
pub fn replay<E: DrainEngine>(
    engine: E,
    config: ServeConfig,
    schedule: &Schedule,
    lines: &[Vec<u8>],
    traced: bool,
    epoch: Instant,
) -> (E, PipelineRun) {
    let n = schedule.len();
    let coalescer = Coalescer::new(config);
    let start = Instant::now() + Duration::from_millis(2);
    let start_ns = start.duration_since(epoch).as_nanos() as u64;
    let (tx, rx) = mpsc::channel::<(usize, Option<mpsc::Receiver<QueryAnswer>>)>();
    let (engine, drain, batch_marks, writer, done_ns, answers, client, accepted, shed) =
        thread::scope(|s| {
            let coalescer = &coalescer;
            let drain = s.spawn(move || {
                let mut engine = engine;
                let mut t = Tracer::new(epoch, traced);
                let mut marks = Vec::new();
                while let Some(batch) = coalescer.next_batch() {
                    let taken = t.now_ns();
                    let answers = t.span("serve.serve_pending", None, None, || {
                        engine.serve_pending(&batch)
                    });
                    marks.push((taken, batch.len()));
                    for (query, answer) in batch.into_iter().zip(answers) {
                        let _ = query.answer_tx.send(answer);
                    }
                }
                (engine, t, marks)
            });
            let writer = s.spawn(move || {
                let mut t = Tracer::new(epoch, traced);
                let mut done = vec![0u64; n];
                let mut answers = vec![None; n];
                for (i, answer_rx) in rx {
                    let response = match answer_rx.map(|r| r.recv()) {
                        Some(Ok(a)) => {
                            answers[i] = Some(a);
                            Response::Result {
                                id: i as u64,
                                label: a.label,
                                confidence: a.confidence,
                            }
                        }
                        _ => Response::Overloaded { id: i as u64 },
                    };
                    let line = t.span("protocol.encode_response", None, Some(i as u64), || {
                        encode_response(&response)
                    });
                    std::hint::black_box(line);
                    done[i] = t.now_ns();
                }
                (t, done, answers)
            });

            let mut t = Tracer::new(epoch, traced);
            let mut accepted = Vec::with_capacity(n);
            let mut shed = 0;
            for (i, (&offset, &pick)) in schedule.offsets_ns.iter().zip(&schedule.picks).enumerate()
            {
                let due = start + Duration::from_nanos(offset);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let request = Some(i as u64);
                let root = t.open("request", request);
                let text = std::str::from_utf8(&lines[pick]).expect("request lines are UTF-8");
                let decoded = t.span("protocol.decode_request", root, request, || {
                    decode_request(text.trim_end())
                });
                let Ok(Request::Classify {
                    model, features, ..
                }) = decoded
                else {
                    panic!("pooled request line {pick} does not decode");
                };
                let submitted = t.span("coalescer.submit_routed", root, request, || {
                    coalescer.submit_routed(model, features)
                });
                let answer_rx = match submitted {
                    Ok(answer_rx) => {
                        accepted.push((i, t.now_ns()));
                        Some(answer_rx)
                    }
                    Err(_) => {
                        shed += 1;
                        None
                    }
                };
                t.close(root);
                if tx.send((i, answer_rx)).is_err() {
                    break;
                }
            }
            drop(tx);
            coalescer.begin_drain();
            let (engine, drain, marks) = drain.join().expect("drain thread");
            let (writer, done, answers) = writer.join().expect("writer thread");
            (
                engine, drain, marks, writer, done, answers, t, accepted, shed,
            )
        });

    // Accepted queries drain first-in first-out, so the k-th accepted
    // query sits in the batch whose cumulative size first exceeds k.
    let mut batches = Vec::with_capacity(batch_marks.len());
    let mut wait_us = Vec::with_capacity(accepted.len());
    let mut cursor = 0;
    for &(taken, size) in &batch_marks {
        let members = &accepted[cursor..cursor + size];
        batches.push(members.iter().map(|&(i, _)| i).collect());
        wait_us.extend(
            members
                .iter()
                .map(|&(_, submitted)| taken.saturating_sub(submitted) as f64 / 1e3),
        );
        cursor += size;
    }
    let latency_ms = schedule
        .offsets_ns
        .iter()
        .zip(&done_ns)
        .map(|(&offset, &done)| done.saturating_sub(start_ns + offset) as f64 / 1e6)
        .collect();
    let mut client = client;
    // Fill in each request span's end: the response was encoded.
    for span in client.spans.iter_mut().filter(|s| s.name == "request") {
        if let Some(i) = span.request {
            span.start_ns = start_ns + schedule.offsets_ns[i as usize];
            span.end_ns = done_ns[i as usize];
        }
    }
    let last_done = done_ns.iter().copied().max().unwrap_or(start_ns);
    (
        engine,
        PipelineRun {
            latency_ms,
            answers,
            batches,
            wait_us,
            shed,
            elapsed_s: last_done.saturating_sub(start_ns) as f64 / 1e9,
            client,
            drain,
            writer,
        },
    )
}
