//! The micro-batching inference engine.
//!
//! Requests enter through [`Engine::submit`], which validates them against
//! the served model, rejects them with [`ServeError::Overloaded`] when the
//! bounded queue is full, and otherwise returns a [`Ticket`] the caller
//! blocks on. Worker threads (one bit-identical model replica each) drain
//! the queue in dynamic batches, and batching is work-conserving:
//!
//! * a worker that found the queue empty and parked (or has not scored a
//!   batch yet) cuts a batch of up to `max_batch` requests as soon as it
//!   sees pending work, so a request that finds a worker idle is scored
//!   at once;
//! * a worker that comes back from a batch to pending requests lingers
//!   for batch-mates until `max_batch` are pending or the *oldest* has
//!   waited `max_wait`, so requests queued behind busy workers amortise
//!   into full batches while their wait stays bounded.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use snia_telemetry::{counter_add, gauge_set, observe};

use crate::bundle::{BundleError, ModelBundle, ModelKind, ServedModel};

/// Batching and backpressure policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Flush a batch as soon as this many requests are pending.
    pub max_batch: usize,
    /// How long requests queued behind busy workers wait for batch-mates:
    /// a worker returning from a batch flushes once the oldest pending
    /// request has waited this long. A worker that was idle when work
    /// arrived does not wait at all.
    pub max_wait: std::time::Duration,
    /// Submissions beyond this many queued requests are shed with
    /// [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Worker threads, each holding its own model replica.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 32,
            max_wait: std::time::Duration::from_millis(2),
            queue_cap: 1024,
            workers: 1,
        }
    }
}

/// Typed serving failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The queue was full; the request was shed, not enqueued.
    Overloaded {
        /// Requests pending when the submission arrived.
        depth: usize,
        /// The configured queue capacity.
        cap: usize,
    },
    /// The request does not fit the served model.
    BadRequest {
        /// What was wrong with it.
        reason: String,
    },
    /// The engine is shutting down and no longer accepts or answers work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, cap } => {
                write!(f, "overloaded: {depth} requests pending (capacity {cap})")
            }
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The payload of a classification request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestInput {
    /// A flattened light-curve feature row for the classifier
    /// (`10 · epochs` values).
    Features(Vec<f32>),
    /// Image cutouts plus observation dates for the joint model.
    Cutouts {
        /// `5 · crop · crop` pixels: five difference-image cutouts,
        /// row-major, concatenated in band order.
        images: Vec<f32>,
        /// Five normalised observation dates.
        dates: Vec<f32>,
    },
}

/// One classification request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the [`Response`].
    pub id: u64,
    /// The payload.
    pub input: RequestInput,
}

/// One scored answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's identifier.
    pub id: u64,
    /// SNIa probability in `(0, 1)`.
    pub score: f64,
}

struct Job {
    req: Request,
    enqueued: Instant,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    nonempty: Condvar,
}

/// A handle to one in-flight request. Dropping it abandons the answer
/// (the worker still scores the batch; the send is simply discarded).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is scored.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] when the engine stopped before
    /// answering.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// The answer if it has arrived, without blocking; as [`Ticket::wait`]
    /// otherwise. Call it again only after it returned `None`.
    pub(crate) fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        match self.rx.try_recv() {
            Ok(answer) => Some(answer),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// What the served model expects of a request; captured before the model
/// moves into the worker threads so validation needs no lock.
#[derive(Debug, Clone, Copy)]
struct InputSpec {
    kind: ModelKind,
    feature_len: usize,
    crop: usize,
}

impl InputSpec {
    fn validate(&self, input: &RequestInput) -> Result<(), ServeError> {
        let bad = |reason: String| Err(ServeError::BadRequest { reason });
        match (self.kind, input) {
            (ModelKind::Classifier, RequestInput::Features(f)) => {
                if f.len() != self.feature_len {
                    return bad(format!(
                        "expected {} features, got {}",
                        self.feature_len,
                        f.len()
                    ));
                }
                finite("features", f)
            }
            (ModelKind::Classifier, RequestInput::Cutouts { .. }) => {
                bad("this bundle serves feature requests, not cutouts".into())
            }
            (ModelKind::Joint, RequestInput::Cutouts { images, dates }) => {
                let want = 5 * self.crop * self.crop;
                if images.len() != want {
                    return bad(format!(
                        "expected {want} pixels (5 bands of {0}x{0}), got {1}",
                        self.crop,
                        images.len()
                    ));
                }
                if dates.len() != 5 {
                    return bad(format!("expected 5 dates, got {}", dates.len()));
                }
                finite("pixels", images)?;
                finite("dates", dates)
            }
            (ModelKind::Joint, RequestInput::Features(_)) => {
                bad("this bundle serves cutout requests, not feature rows".into())
            }
        }
    }
}

/// Rejects a NaN or infinite input value, which the model would turn into
/// a meaningless score.
fn finite(what: &str, values: &[f32]) -> Result<(), ServeError> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(ServeError::BadRequest {
            reason: format!("{what} must be finite, got {} at index {i}", values[i]),
        }),
        None => Ok(()),
    }
}

/// The batched inference engine: a bounded queue plus a worker pool.
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    spec: InputSpec,
    cfg: EngineConfig,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.handles.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl Engine {
    /// Starts the worker pool around an already-instantiated model.
    ///
    /// Workers beyond the first score on bit-identical replicas built via
    /// [`ServedModel::replica`].
    ///
    /// # Panics
    ///
    /// Panics when `cfg.max_batch`, `cfg.queue_cap`, or `cfg.workers` is 0.
    pub fn start(model: ServedModel, cfg: EngineConfig) -> Engine {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        assert!(cfg.workers > 0, "workers must be positive");
        let mut engine = Engine::without_workers(&model, cfg);
        for _ in 1..cfg.workers {
            engine.add_worker(model.replica());
        }
        engine.add_worker(model);
        engine
    }

    /// An engine that accepts submissions but has nobody scoring them yet.
    fn without_workers(model: &ServedModel, cfg: EngineConfig) -> Engine {
        Engine {
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                nonempty: Condvar::new(),
            }),
            handles: Vec::with_capacity(cfg.workers),
            spec: InputSpec {
                kind: model.kind(),
                feature_len: model.feature_len(),
                crop: model.crop(),
            },
            cfg,
        }
    }

    /// Starts one more worker thread scoring on `model`.
    fn add_worker(&mut self, mut model: ServedModel) {
        let shared = Arc::clone(&self.shared);
        let cfg = self.cfg;
        let handle = thread::Builder::new()
            .name(format!("snia-serve-{}", self.handles.len()))
            .spawn(move || worker_loop(&shared, &cfg, &mut model))
            .expect("spawn serve worker");
        self.handles.push(handle);
    }

    /// Loads, instantiates, and starts serving a bundle.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError`] when the weights do not fit the manifest's
    /// architecture.
    pub fn from_bundle(bundle: &ModelBundle, cfg: EngineConfig) -> Result<Engine, BundleError> {
        Ok(Engine::start(bundle.instantiate()?, cfg))
    }

    /// The policy this engine runs under.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Enqueues a request, returning a [`Ticket`] to block on.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the input does not fit the model,
    /// [`ServeError::Overloaded`] when the queue is at capacity (the
    /// request is shed, never enqueued), [`ServeError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.spec.validate(&req.input)?;
        let (tx, rx) = mpsc::channel();
        let mut q = self.shared.queue.lock().expect("serve queue poisoned");
        if q.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if q.jobs.len() >= self.cfg.queue_cap {
            let depth = q.jobs.len();
            drop(q);
            counter_add("serve.shed_total", 1);
            return Err(ServeError::Overloaded {
                depth,
                cap: self.cfg.queue_cap,
            });
        }
        q.jobs.push_back(Job {
            req,
            enqueued: Instant::now(),
            tx,
        });
        let depth = q.jobs.len();
        drop(q);
        gauge_set("serve.queue_depth", depth as f64);
        self.shared.nonempty.notify_one();
        Ok(Ticket { rx })
    }

    /// Submits and waits — the one-call path for callers that don't
    /// pipeline.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`] and [`Ticket::wait`].
    pub fn score(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Stops accepting work, lets the workers drain what is already
    /// queued, and joins them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("serve queue poisoned");
            q.shutdown = true;
        }
        self.shared.nonempty.notify_all();
        for handle in self.handles.drain(..) {
            handle.join().expect("serve worker panicked");
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Pulls the next batch off the queue `q` guards, or `None` once shutdown
/// has begun and the queue is drained.
///
/// `idle` says the worker has not scored a batch yet; a worker that parks
/// on the empty queue becomes idle too. A batch is cut when any of: the
/// worker is idle, `max_batch` requests are pending, the oldest pending
/// request has aged past `max_wait`, or shutdown was requested (drain
/// without waiting out the budget). Otherwise — the worker came back from
/// a batch to a partial queue — it sleeps on the condvar until the
/// deadline of the oldest request.
fn next_batch<'a>(
    shared: &'a Shared,
    mut q: MutexGuard<'a, QueueState>,
    cfg: &EngineConfig,
    mut idle: bool,
) -> Option<Vec<Job>> {
    loop {
        if q.jobs.is_empty() {
            if q.shutdown {
                return None;
            }
            idle = true;
            q = shared.nonempty.wait(q).expect("serve queue poisoned");
            continue;
        }
        let now = Instant::now();
        let deadline = q.jobs.front().expect("nonempty").enqueued + cfg.max_wait;
        if idle || q.jobs.len() >= cfg.max_batch || q.shutdown || now >= deadline {
            let n = q.jobs.len().min(cfg.max_batch);
            let batch: Vec<Job> = q.jobs.drain(..n).collect();
            let depth = q.jobs.len();
            drop(q);
            gauge_set("serve.queue_depth", depth as f64);
            if depth > 0 {
                // More work remains; wake a sibling instead of hoarding it.
                shared.nonempty.notify_one();
            }
            return Some(batch);
        }
        let (guard, _timed_out) = shared
            .nonempty
            .wait_timeout(q, deadline - now)
            .expect("serve queue poisoned");
        q = guard;
    }
}

fn run_batch(model: &mut ServedModel, batch: Vec<Job>) {
    let started = Instant::now();
    let inputs: Vec<&RequestInput> = batch.iter().map(|j| &j.req.input).collect();
    let scores = model.score_batch(&inputs);
    let done = Instant::now();
    observe("serve.batch_size", batch.len() as f64);
    observe(
        "serve.batch_ns",
        done.duration_since(started).as_nanos() as f64,
    );
    counter_add("serve.batches_total", 1);
    counter_add("serve.requests_total", batch.len() as u64);
    for (job, score) in batch.into_iter().zip(scores) {
        observe(
            "serve.queue_wait_ns",
            started.duration_since(job.enqueued).as_nanos() as f64,
        );
        observe(
            "serve.latency_ns",
            done.duration_since(job.enqueued).as_nanos() as f64,
        );
        // A dropped ticket just means nobody is listening any more.
        let _ = job.tx.send(Ok(Response {
            id: job.req.id,
            score,
        }));
    }
}

fn worker_loop(shared: &Shared, cfg: &EngineConfig, model: &mut ServedModel) {
    let mut idle = true;
    while let Some(batch) = next_batch(
        shared,
        shared.queue.lock().expect("serve queue poisoned"),
        cfg,
        idle,
    ) {
        run_batch(model, batch);
        idle = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snia_core::{JointModel, LightCurveClassifier};
    use std::time::Duration;

    fn tiny_model(seed: u64) -> ServedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        ServedModel::Classifier(LightCurveClassifier::new(1, 8, &mut rng))
    }

    fn feature_request(id: u64, seed: u64) -> Request {
        let mut rng = StdRng::seed_from_u64(seed);
        let row = snia_nn::init::randn_tensor(&mut rng, vec![10], 1.0);
        Request {
            id,
            input: RequestInput::Features(row.data().to_vec()),
        }
    }

    #[test]
    fn lone_request_is_answered_bit_identically() {
        let engine = Engine::start(
            tiny_model(1),
            EngineConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(5),
                ..EngineConfig::default()
            },
        );
        let req = feature_request(7, 100);
        let mut direct = tiny_model(1);
        let expected = direct.score_batch(&[&req.input])[0];
        let got = engine.score(req).unwrap();
        assert_eq!(got.id, 7);
        assert_eq!(got.score.to_bits(), expected.to_bits());
        engine.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // No worker runs until the queue has been overfilled, so the
        // queued jobs sit untouched whatever the thread timing.
        let cfg = EngineConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(1),
            queue_cap: 4,
            workers: 1,
        };
        let model = tiny_model(2);
        let mut engine = Engine::without_workers(&model, cfg);
        let mut tickets = Vec::new();
        for i in 0..4 {
            tickets.push(engine.submit(feature_request(i, 200 + i)).unwrap());
        }
        match engine.submit(feature_request(99, 299)) {
            Err(ServeError::Overloaded { depth, cap }) => {
                assert_eq!(depth, 4);
                assert_eq!(cap, 4);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        engine.add_worker(model);
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap().id, i as u64);
        }
        engine.shutdown();
    }

    /// An engine with no workers, so a test can drive `next_batch` itself.
    fn unstarted(max_batch: usize, max_wait: Duration) -> Engine {
        let cfg = EngineConfig {
            max_batch,
            max_wait,
            ..EngineConfig::default()
        };
        Engine::without_workers(&tiny_model(0), cfg)
    }

    fn push(engine: &Engine, id: u64) {
        engine.submit(feature_request(id, id)).unwrap();
    }

    fn pull(engine: &Engine, idle: bool) -> Option<Vec<u64>> {
        let q = engine.shared.queue.lock().unwrap();
        let batch = next_batch(&engine.shared, q, &engine.cfg, idle)?;
        Some(batch.iter().map(|j| j.req.id).collect())
    }

    #[test]
    fn parked_worker_cuts_a_batch_as_soon_as_work_arrives() {
        let engine = unstarted(64, Duration::from_secs(10));
        let started = Instant::now();
        let batch = thread::scope(|s| {
            // The pusher needs the lock, which this thread holds until
            // `next_batch` parks on the empty queue and releases it.
            let q = engine.shared.queue.lock().unwrap();
            s.spawn(|| push(&engine, 7));
            next_batch(&engine.shared, q, &engine.cfg, false)
        });
        assert_eq!(batch.unwrap()[0].req.id, 7);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn fresh_worker_cuts_pending_work_at_once() {
        let engine = unstarted(64, Duration::from_secs(10));
        push(&engine, 3);
        push(&engine, 4);
        let started = Instant::now();
        assert_eq!(pull(&engine, true).unwrap(), [3, 4]);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn returning_worker_lingers_for_batch_mates() {
        let max_wait = Duration::from_millis(50);
        let engine = unstarted(3, max_wait);
        let before_push = Instant::now();
        for id in 0..5 {
            push(&engine, id);
        }
        // A full batch is cut at once; the remainder waits out `max_wait`.
        assert_eq!(pull(&engine, false).unwrap(), [0, 1, 2]);
        assert_eq!(pull(&engine, false).unwrap(), [3, 4]);
        assert!(before_push.elapsed() >= max_wait);
    }

    #[test]
    fn shutdown_cuts_without_waiting_and_then_ends() {
        let engine = unstarted(64, Duration::from_secs(10));
        push(&engine, 1);
        push(&engine, 2);
        engine.shared.queue.lock().unwrap().shutdown = true;
        let started = Instant::now();
        assert_eq!(pull(&engine, false).unwrap(), [1, 2]);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(pull(&engine, false).is_none());

        // A worker parked on the empty queue is released by shutdown too.
        let engine = unstarted(64, Duration::from_secs(10));
        let end = thread::scope(|s| {
            let q = engine.shared.queue.lock().unwrap();
            s.spawn(|| {
                engine.shared.queue.lock().unwrap().shutdown = true;
                engine.shared.nonempty.notify_all();
            });
            next_batch(&engine.shared, q, &engine.cfg, false)
        });
        assert!(end.is_none());
    }

    #[test]
    fn malformed_requests_are_rejected_at_submit() {
        let engine = Engine::start(tiny_model(3), EngineConfig::default());
        let short = Request {
            id: 1,
            input: RequestInput::Features(vec![0.0; 3]),
        };
        assert!(matches!(
            engine.submit(short),
            Err(ServeError::BadRequest { .. })
        ));
        let cutout = Request {
            id: 2,
            input: RequestInput::Cutouts {
                images: vec![0.0; 5 * 36 * 36],
                dates: vec![0.0; 5],
            },
        };
        assert!(matches!(
            engine.submit(cutout),
            Err(ServeError::BadRequest { .. })
        ));
        engine.shutdown();
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_submit() {
        let engine = Engine::start(tiny_model(3), EngineConfig::default());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut req = feature_request(1, 5);
            let RequestInput::Features(f) = &mut req.input else {
                unreachable!()
            };
            f[4] = bad;
            match engine.submit(req) {
                Err(ServeError::BadRequest { reason }) => {
                    assert!(reason.contains("features must be finite"), "{reason}")
                }
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        assert!(engine.score(feature_request(2, 5)).is_ok());
        engine.shutdown();

        let crop = 16;
        let mut rng = StdRng::seed_from_u64(6);
        let joint = ServedModel::Joint(JointModel::from_scratch(crop, 8, &mut rng));
        let engine = Engine::start(joint, EngineConfig::default());
        let cutout = |pixel: f32, date: f32| {
            let mut images = vec![0.25; 5 * crop * crop];
            images[crop] = pixel;
            Request {
                id: 3,
                input: RequestInput::Cutouts {
                    images,
                    dates: vec![0.1, 0.2, date, 0.4, 0.5],
                },
            }
        };
        for (req, what) in [
            (cutout(f32::NAN, 0.3), "pixels"),
            (cutout(0.0, f32::INFINITY), "dates"),
        ] {
            match engine.submit(req) {
                Err(ServeError::BadRequest { reason }) => {
                    assert!(
                        reason.contains(&format!("{what} must be finite")),
                        "{reason}"
                    )
                }
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        assert!(engine.score(cutout(0.0, 0.3)).is_ok());
        engine.shutdown();
    }

    #[test]
    fn worker_pool_scores_bit_identically_to_direct_calls() {
        let engine = Engine::start(
            tiny_model(4),
            EngineConfig {
                max_batch: 3,
                max_wait: Duration::from_millis(2),
                workers: 2,
                ..EngineConfig::default()
            },
        );
        let requests: Vec<Request> = (0..17).map(|i| feature_request(i, 400 + i)).collect();
        let mut direct = tiny_model(4);
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).unwrap())
            .collect();
        for (req, ticket) in requests.iter().zip(tickets) {
            let got = ticket.wait().unwrap();
            assert_eq!(got.id, req.id);
            let expected = direct.score_batch(&[&req.input])[0];
            assert_eq!(got.score.to_bits(), expected.to_bits());
        }
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let engine = Engine::start(
            tiny_model(5),
            EngineConfig {
                max_batch: 64,
                max_wait: Duration::from_secs(5),
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| engine.submit(feature_request(i, 500 + i)).unwrap())
            .collect();
        engine.shutdown(); // must answer the queued six, not strand them
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap().id, i as u64);
        }
    }
}
