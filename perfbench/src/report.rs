//! Host and configuration record, metric collection and the result lines.

use crate::openloop::PhaseResult;
use robusthd::{BatchConfig, ServeConfig};
use robusthd_serve::json::Json;

/// Refuses to run when any `ROBUSTHD_*` variable is set: each one retunes
/// a layer, so a stray flag would change what is measured.
pub fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ROBUSTHD_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: unset every ROBUSTHD_* variable",
            set.join(", ")
        ))
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_flags() -> Vec<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split(':').nth(1))
        .map(|f| f.split_whitespace().map(str::to_owned).collect())
        .unwrap_or_default()
}

/// The commit the checkout was built from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn num(v: usize) -> Json {
    Json::Number(v as f64)
}

/// Cores, ISA, build target, git rev, and the effective serving, batch and
/// kernel configuration.
pub fn host_record(serve: &ServeConfig, batch: &BatchConfig) -> Json {
    let flags = cpu_flags();
    let has = |f: &str| Json::Bool(flags.iter().any(|x| x == f));
    let target = if cfg!(target_feature = "avx2") {
        "native"
    } else {
        "baseline"
    };
    Json::Object(vec![
        ("cores_detected".into(), num(cores())),
        (
            "isa".into(),
            Json::Object(vec![
                ("avx2".into(), has("avx2")),
                ("avx512_vpopcntdq".into(), has("avx512_vpopcntdq")),
            ]),
        ),
        ("target_cpu".into(), Json::String(target.into())),
        ("git_rev".into(), Json::String(git_rev())),
        (
            "serve_config".into(),
            Json::Object(vec![
                ("window_us".into(), num(serve.window_us as usize)),
                ("max_batch".into(), num(serve.max_batch)),
                ("queue_depth".into(), num(serve.queue_depth)),
            ]),
        ),
        (
            "batch_config".into(),
            Json::Object(vec![
                ("threads".into(), num(batch.threads)),
                ("shard_size".into(), num(batch.shard_size)),
            ]),
        ),
        (
            "kernel_tier".into(),
            Json::String(hypervector::tier::active().name().into()),
        ),
    ])
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub host: Json,
    pub metrics: Vec<Metric>,
    /// Metrics the workload cannot measure, with the reason; they are
    /// reported as 0.
    pub omitted: Vec<(&'static str, &'static str, String)>,
    pub phases: Vec<Json>,
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool, host: Json) -> Self {
        Self {
            workload,
            seed,
            traced,
            host,
            metrics: Vec::new(),
            omitted: Vec::new(),
            phases: Vec::new(),
            correct: true,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn omit(&mut self, name: &'static str, unit: &'static str, reason: impl Into<String>) {
        self.omitted.push((name, unit, reason.into()));
    }

    /// Records a correctness failure found after the gate.
    pub fn wrong(&mut self, problem: impl Into<String>) {
        self.correct = false;
        self.problems.push(problem.into());
    }

    /// Records one open-loop phase; its `overloaded` and `error` answers
    /// are failed operations.
    pub fn phase(&mut self, p: &PhaseResult) {
        self.attempted += p.sent;
        self.failed += p.failed();
        if p.mismatched > 0 {
            self.wrong(format!("{}: {} answers were invalid", p.name, p.mismatched));
        }
        let finite = |v: f64| {
            if v.is_finite() {
                Json::Number(v)
            } else {
                Json::Null
            }
        };
        self.phases.push(Json::Object(vec![
            ("phase".into(), Json::String(p.name.clone())),
            ("offered_qps".into(), Json::Number(p.rate)),
            ("sent".into(), num(p.sent)),
            ("succeeded".into(), num(p.succeeded)),
            ("failed".into(), num(p.failed())),
            ("overloaded".into(), num(p.overloaded)),
            ("errors".into(), num(p.errors)),
            ("invalid".into(), num(p.mismatched)),
            ("changed_from_reference".into(), num(p.changed)),
            ("p50_ms".into(), finite(p.robust_p(50.0))),
            ("p99_ms".into(), finite(p.robust_p(99.0))),
            ("pooled_p99_ms".into(), finite(p.latency_p(99.0))),
            ("lag_p99_ms".into(), finite(p.lag_p(99.0))),
        ]));
    }

    /// Prints the detail record, then the result line the driver reads.
    pub fn print(&self) {
        let metric_json = |m: &Metric| {
            Json::Object(vec![
                ("name".into(), Json::String(m.name.into())),
                ("value".into(), Json::Number(m.value)),
                ("unit".into(), Json::String(m.unit.into())),
                ("samples".into(), num(m.samples)),
            ])
        };
        let detail = Json::Object(vec![
            ("workload".into(), Json::String(self.workload.into())),
            ("seed".into(), Json::Number(self.seed as f64)),
            ("traced".into(), Json::Bool(self.traced)),
            ("host".into(), self.host.clone()),
            ("phases".into(), Json::Array(self.phases.clone())),
            (
                "metrics".into(),
                Json::Array(self.metrics.iter().map(metric_json).collect()),
            ),
            (
                "omitted".into(),
                Json::Array(
                    self.omitted
                        .iter()
                        .map(|(n, _, why)| {
                            Json::Object(vec![
                                ("name".into(), Json::String((*n).into())),
                                ("reason".into(), Json::String(why.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "problems".into(),
                Json::Array(
                    self.problems
                        .iter()
                        .map(|p| Json::String(p.clone()))
                        .collect(),
                ),
            ),
        ]);
        for m in &self.metrics {
            println!(
                "{:<34} {:>14.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for (name, _, why) in &self.omitted {
            println!("{name:<34} {:>14} omitted: {why}", "-");
        }
        println!("detail: {}", detail.to_string_compact());
        let mut metrics: Vec<(String, Json)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Object(vec![
                        ("value".into(), Json::Number(m.value)),
                        ("unit".into(), Json::String(m.unit.into())),
                    ]),
                )
            })
            .collect();
        for (name, unit, _) in &self.omitted {
            metrics.push((
                (*name).to_owned(),
                Json::Object(vec![
                    ("value".into(), Json::Number(0.0)),
                    ("unit".into(), Json::String((*unit).into())),
                ]),
            ));
        }
        let result = Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), num(self.attempted.max(1))),
            ("failed".into(), num(self.failed)),
            ("metrics".into(), Json::Object(metrics)),
        ]);
        println!("{}", result.to_string_compact());
    }
}
