//! `serve-joint` and `serve-classifier`: a bundle saved, reloaded and
//! served by `Engine`, driven through `snia serve`'s own JSONL path
//! (saturated phase) and by a seeded Poisson open loop.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use snia_core::train::{feature_matrix, joint_batch, joint_examples};
use snia_core::{JointModel, LightCurveClassifier};
use snia_dataset::{Dataset, DatasetConfig};
use snia_serve::{
    parse_request_line, serve_lines, Engine, EngineConfig, ModelBundle, ModelKind, ServeError,
    Ticket,
};

use crate::stats::{median, ms, quantile, us};
use crate::{Bench, Outcome, Phase};

/// One serve workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    pub kind: ModelKind,
    /// Samples in the generated dataset the requests come from.
    pub samples: usize,
    /// Distinct request lines; the phases cycle through them.
    pub unique_requests: usize,
    pub crop: usize,
    pub hidden: usize,
    pub workers: usize,
    pub max_batch: usize,
    pub max_wait_us: u64,
    pub queue_cap: usize,
    /// Lines per `serve_lines` call in the saturated phase.
    pub chunk_lines: usize,
    /// Share of the run spent in the saturated phase (the rest is open loop).
    pub saturated_share: f64,
    /// Open-loop Poisson arrival rate, requests per second.
    pub open_rate: f64,
    /// The open loop is valid only while the generator's p99 lateness
    /// stays within this bound.
    pub lag_bound_ms: f64,
    /// Distinct requests (the first lines, which every phase reaches)
    /// whose served scores are checked bit for bit against a direct
    /// `ServedModel::score_batch`.
    pub checked: usize,
}

impl ServeConfig {
    pub fn joint(smoke: bool) -> Self {
        ServeConfig {
            kind: ModelKind::Joint,
            samples: if smoke { 2 } else { 16 },
            unique_requests: if smoke { 8 } else { 64 },
            crop: 60,
            hidden: 100,
            workers: 2,
            max_batch: 16,
            max_wait_us: 1000,
            queue_cap: 1024,
            chunk_lines: if smoke { 8 } else { 96 },
            saturated_share: 0.3,
            open_rate: 8.0,
            lag_bound_ms: 50.0,
            checked: if smoke { 2 } else { 8 },
        }
    }

    pub fn classifier(smoke: bool) -> Self {
        ServeConfig {
            kind: ModelKind::Classifier,
            samples: if smoke { 16 } else { 1024 },
            unique_requests: if smoke { 64 } else { 4096 },
            crop: 0,
            hidden: 100,
            workers: 1,
            max_batch: 64,
            max_wait_us: 1000,
            queue_cap: 1024,
            chunk_lines: if smoke { 256 } else { 4096 },
            saturated_share: 0.5,
            open_rate: 1000.0,
            lag_bound_ms: 5.0,
            checked: if smoke { 4 } else { 32 },
        }
    }

    pub fn describe(&self) -> Value {
        serde_json::json!({
            "model": (format!("{:?}", self.kind)),
            "samples": (self.samples),
            "unique_requests": (self.unique_requests),
            "crop": (self.crop),
            "hidden": (self.hidden),
            "workers": (self.workers),
            "max_batch": (self.max_batch),
            "max_wait_us": (self.max_wait_us),
            "queue_cap": (self.queue_cap),
            "chunk_lines": (self.chunk_lines),
            "saturated_share": (self.saturated_share),
            "open_rate_per_s": (self.open_rate),
            "lag_bound_ms": (self.lag_bound_ms)
        })
    }

    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_batch: self.max_batch,
            max_wait: Duration::from_micros(self.max_wait_us),
            queue_cap: self.queue_cap,
            workers: self.workers,
        }
    }
}

fn fmt_row(values: &[f32]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// JSONL request lines (`id` = position) for the workload's model kind.
pub fn request_lines(cfg: &ServeConfig, ds: &Dataset) -> Vec<String> {
    match cfg.kind {
        ModelKind::Classifier => {
            let idx: Vec<usize> = (0..ds.len()).collect();
            let (x, _, _) = feature_matrix(ds, &idx, 1);
            let dim = x.shape()[1];
            x.data()
                .chunks(dim)
                .cycle()
                .take(cfg.unique_requests)
                .enumerate()
                .map(|(i, row)| format!("{{\"id\":{i},\"features\":[{}]}}", fmt_row(row)))
                .collect()
        }
        ModelKind::Joint => {
            let idx: Vec<usize> = (0..ds.len()).collect();
            let examples = joint_examples(&idx);
            let examples = &examples[..cfg.unique_requests.min(examples.len())];
            let (images, dates, _, _) = joint_batch(ds, examples, cfg.crop);
            let ilen = 5 * cfg.crop * cfg.crop;
            (0..examples.len())
                .map(|i| {
                    format!(
                        "{{\"id\":{i},\"images\":[{}],\"dates\":[{}]}}",
                        fmt_row(&images.data()[i * ilen..(i + 1) * ilen]),
                        fmt_row(&dates.data()[i * 5..(i + 1) * 5])
                    )
                })
                .collect()
        }
    }
}

/// The bundle a serve workload runs: an untrained model with seeded
/// weights (serving cost does not depend on the weight values).
fn make_bundle(cfg: &ServeConfig, seed: u64) -> ModelBundle {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E);
    match cfg.kind {
        ModelKind::Classifier => {
            ModelBundle::from_classifier(&LightCurveClassifier::new(1, cfg.hidden, &mut rng))
        }
        ModelKind::Joint => {
            ModelBundle::from_joint(&JointModel::from_scratch(cfg.crop, cfg.hidden, &mut rng))
        }
    }
}

pub struct ServeBench {
    cfg: ServeConfig,
    seed: u64,
    engine: Engine,
    lines: Vec<String>,
    /// `chunk_lines` lines cycling through `lines`, newline-joined.
    chunk: String,
    /// Direct-scoring reference for the checked request ids.
    expected: BTreeMap<u64, f64>,
}

/// Generates the inputs, saves and reloads the bundle, starts the engine
/// and scores the checked requests directly.
pub fn setup(cfg: ServeConfig, seed: u64, dir: &Path) -> ServeBench {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: cfg.samples,
        catalog_size: 500,
        seed,
    });
    let lines = request_lines(&cfg, &ds);
    let chunk = lines
        .iter()
        .cycle()
        .take(cfg.chunk_lines)
        .cloned()
        .collect::<Vec<_>>()
        .join("\n");
    make_bundle(&cfg, seed)
        .save(dir)
        .expect("bundle saves into the work directory");
    let bundle = ModelBundle::load(dir).expect("saved bundle reloads");
    let engine = Engine::from_bundle(&bundle, cfg.engine_config()).expect("bundle instantiates");
    let mut direct = bundle.instantiate().expect("bundle instantiates");
    let expected = (0..cfg.checked.min(lines.len()))
        .map(|id| {
            let req = parse_request_line(&lines[id]).expect("generated line parses");
            (id as u64, direct.score_batch(&[&req.input])[0])
        })
        .collect();
    ServeBench {
        cfg,
        seed,
        engine,
        lines,
        chunk,
        expected,
    }
}

impl ServeBench {
    /// Times `Engine::submit` of `n` pre-parsed requests (fewer than the
    /// queue capacity); returns the per-call microseconds and how many
    /// requests were answered.
    pub fn submit_times_us(&self, n: usize) -> (Vec<f64>, usize) {
        let requests: Vec<_> = self
            .lines
            .iter()
            .cycle()
            .take(n)
            .map(|l| parse_request_line(l).expect("generated line parses"))
            .collect();
        let mut times = Vec::with_capacity(n);
        let tickets: Vec<_> = requests
            .into_iter()
            .map(|r| {
                let t0 = Instant::now();
                let ticket = self.engine.submit(r).expect("queue has room");
                times.push(us(t0.elapsed()));
                ticket
            })
            .collect();
        let answered = tickets.into_iter().filter_map(|t| t.wait().ok()).count();
        (times, answered)
    }

    fn unique(&self, id: u64) -> u64 {
        id % self.lines.len() as u64
    }

    /// Counts answers whose score differs from the direct reference.
    fn mismatches(&self, answers: impl IntoIterator<Item = (u64, f64)>) -> (u64, u64) {
        let (mut checked, mut wrong) = (0, 0);
        for (id, score) in answers {
            if let Some(want) = self.expected.get(&self.unique(id)) {
                checked += 1;
                if want.to_bits() != score.to_bits() {
                    wrong += 1;
                }
            }
        }
        (checked, wrong)
    }

    /// Saturated phase: chunks of JSONL through `serve_lines`.
    fn saturated(&mut self, budget: Duration, out: &mut Outcome) {
        let mut phase = Phase::new("saturated");
        let mut busy = Duration::ZERO;
        let mut chunk_rates = Vec::new();
        let (mut checked, mut wrong) = (0, 0);
        let mut output = Vec::new();
        while busy < budget || phase.sent == 0 {
            output.clear();
            phase.sent += self.cfg.chunk_lines as u64;
            let t0 = Instant::now();
            let result = serve_lines(&self.engine, self.chunk.as_bytes(), &mut output);
            let dt = t0.elapsed();
            busy += dt;
            match result {
                Ok(summary) => {
                    phase.answered += summary.requests as u64;
                    chunk_rates.push(summary.requests as f64 / dt.as_secs_f64());
                    let text = String::from_utf8_lossy(&output);
                    let answers = text.lines().filter_map(|l| {
                        let v: Value = serde_json::from_str(l).ok()?;
                        Some((v.get("id")?.as_u64()?, v.get("score")?.as_f64()?))
                    });
                    let (c, w) = self.mismatches(answers);
                    checked += c;
                    wrong += w;
                }
                Err(e) => {
                    eprintln!("serve_lines failed: {e}");
                    phase.failed += self.cfg.chunk_lines as u64;
                }
            }
        }
        out.check("saturated_scores_match_direct", checked > 0 && wrong == 0);
        out.detail("saturated_scores_checked", Value::U64(checked));
        out.throughput = if chunk_rates.is_empty() {
            0.0
        } else {
            median(&chunk_rates)
        };
        out.detail(
            "saturated_overall_per_s",
            Value::F64(phase.answered as f64 / busy.as_secs_f64()),
        );
        out.phases.push(phase);
    }

    /// Open loop: seeded Poisson arrivals, each line parsed with
    /// `parse_request_line` and submitted at its due time; an in-order
    /// collector thread times each answer from the due time.
    fn open_loop(&mut self, duration: Duration, out: &mut Outcome) {
        let offsets = arrivals(self.cfg.open_rate, duration, self.seed);
        let mut phase = Phase::new("open_loop");
        let mut lags_ms = Vec::with_capacity(offsets.len());
        let (tx, rx) = mpsc::channel::<(u64, Instant, Ticket)>();
        let engine = &self.engine;
        let lines = &self.lines;
        let answers = thread::scope(|s| {
            let expected = offsets.len();
            let collector = s.spawn(move || {
                let mut got = Vec::with_capacity(expected);
                for (id, due, ticket) in rx {
                    let result = ticket.wait();
                    got.push((id, ms(due.elapsed()), result));
                }
                got
            });
            let start = Instant::now() + Duration::from_millis(2);
            for (i, off) in offsets.iter().enumerate() {
                let due = start + *off;
                wait_until(due);
                lags_ms.push(ms(due.elapsed()));
                phase.sent += 1;
                let req = match parse_request_line(&lines[i % lines.len()]) {
                    Ok(mut r) => {
                        r.id = i as u64;
                        r
                    }
                    Err(_) => {
                        phase.failed += 1;
                        continue;
                    }
                };
                match engine.submit(req) {
                    Ok(ticket) => tx.send((i as u64, due, ticket)).expect("collector alive"),
                    Err(ServeError::Overloaded { .. }) => phase.shed += 1,
                    Err(_) => phase.failed += 1,
                }
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        let mut scores = Vec::with_capacity(answers.len());
        out.latencies_ms.reserve(answers.len());
        for (id, latency, result) in answers {
            match result {
                Ok(resp) if resp.id == id => {
                    phase.answered += 1;
                    out.latencies_ms.push(latency);
                    scores.push((id, resp.score));
                }
                _ => phase.failed += 1,
            }
        }
        let (checked, wrong) = self.mismatches(scores);
        out.check("open_loop_scores_match_direct", checked > 0 && wrong == 0);
        // Lateness is the load generator's, not the program's: a late run
        // is flagged in the record, not counted as a wrong output.
        let lag_p99 = quantile(&lags_ms, 0.99);
        let on_time = lag_p99 <= self.cfg.lag_bound_ms;
        if !on_time {
            eprintln!(
                "open loop: generator p99 lateness {lag_p99:.3} ms exceeds {} ms; latencies flagged invalid",
                self.cfg.lag_bound_ms
            );
        }
        out.detail("open_loop_latencies_valid", Value::Bool(on_time));
        out.detail("open_loop_lag_p99_ms", Value::F64(lag_p99));
        out.detail(
            "open_loop_achieved_rate_per_s",
            Value::F64(phase.sent as f64 / duration.as_secs_f64()),
        );
        out.loadgen_lag_p99_ms = Some(lag_p99);
        out.phases.push(phase);
    }
}

/// Poisson arrival times at `rate` over `duration`, stratified: the
/// inter-arrival gaps are the exponential distribution's quantiles at
/// `(i + 0.5) / n`, in seeded random order. Every seed then offers the
/// same burstiness and only its order differs, so the latency tail does
/// not swing with how many short gaps one seed happened to draw.
fn arrivals(rate: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    let n = ((rate * duration.as_secs_f64()).round() as usize).max(1);
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    gaps.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x09E7_100B));
    gaps.iter()
        .scan(0.0, |t, gap| {
            *t += gap;
            Some(Duration::from_secs_f64(*t))
        })
        .collect()
}

/// Spins, yielding, until `due`. A generator that slept between arrivals
/// woke up to 20 ms late on a shared two-vCPU virtual machine; a spinning
/// one stays within a fraction of a millisecond. The open-loop rates leave
/// the engine a core while the generator spins.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        thread::yield_now();
    }
}

impl Bench for ServeBench {
    fn measure(&mut self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let saturated = Duration::from_secs_f64(seconds * self.cfg.saturated_share);
        self.saturated(saturated, &mut out);
        let open = Duration::from_secs_f64(seconds * (1.0 - self.cfg.saturated_share));
        self.open_loop(open, &mut out);
        out
    }
}
