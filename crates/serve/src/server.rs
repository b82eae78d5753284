//! The resident legalization server.
//!
//! A [`Server`] owns a registry of resident cases (each a warm
//! [`flow3d_core::EcoEngine`]), a bounded FIFO request queue, and a
//! dispatcher thread that executes queued requests in **waves**: every
//! wave holds at most one request per case, and the wave's requests run
//! concurrently on the `flow3d-par` pool. Independent cases therefore
//! shard across workers while each case's engine sees a strictly
//! serialized request stream — which is what keeps its warm caches and
//! the determinism contract intact.
//!
//! Connection handling is transport-agnostic: [`Server::handle_connection`]
//! speaks the frame protocol over any `Read + Write` stream, and
//! [`Server::serve_tcp`] / [`Server::serve_unix`] provide the usual
//! listeners. A server is cheaply cloneable (it is an [`Arc`] over its
//! shared state), so tests can drive it over an in-process socket pair
//! while a listener thread serves real clients.
//!
//! Lifecycle: `load` → any number of `eco`/`legalize` → `shutdown`. A
//! `shutdown` request closes admission immediately (later queued
//! requests are refused with [`codes::SHUTTING_DOWN`]), drains every
//! previously admitted request, answers the shutdown itself, and stops
//! the dispatcher. See `SERVING.md` for the operational details.

use crate::protocol::{
    codes, error_response, ok_response, read_frame, request_id, write_frame, FrameError, MoveSpec,
    Request,
};
use flow3d_core::{CellMove, EcoEngine, Flow3dConfig, Flow3dLegalizer, LegalizeStats, Legalizer};
use flow3d_db::DieId;
use flow3d_geom::Point;
use flow3d_obs::{
    hist_keys, keys, log_record, peak_rss_bytes, EventLog, FlightRecorder, Json, LogLevel, Profile,
    RequestSample, RollingWindow, RunReport,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults favour predictability:
/// single-threaded engines plus two wave workers that overlap
/// independent cases. Results *and* search telemetry are
/// bit-identical at every setting, so these knobs trade wall-clock
/// only.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queued requests executed concurrently per wave (each on
    /// a distinct case). `0` resolves like `flow3d_par::resolve_threads`.
    pub workers: usize,
    /// Bounded queue depth; requests beyond it are refused with
    /// [`codes::OVERLOADED`] instead of buffering without limit.
    pub queue_depth: usize,
    /// Engine threads for cases loaded without an explicit `threads`
    /// field. Results and search telemetry are bit-identical at any
    /// value; `1` (the default) avoids oversubscribing the wave
    /// workers on small cases.
    pub default_threads: usize,
    /// JSONL event-log path (`--log` / `FLOW3D_LOG`). `None` disables
    /// structured logging; the event path then costs one branch.
    pub log_path: Option<String>,
    /// Minimum severity written to the event log.
    pub log_level: LogLevel,
    /// Flight-recorder sidecar path. When set, recent events and the
    /// last few per-request reports are retained in memory and dumped
    /// here on a request error and at shutdown.
    pub flight_path: Option<String>,
    /// Directory for per-request Chrome traces (`--trace`). Every
    /// queued request records a trace and writes
    /// `<dir>/<case>_r<id>.trace.json`, span process tagged
    /// `case#r<id>`.
    pub trace_dir: Option<String>,
    /// Sample capacity of the rolling metrics window.
    pub window_capacity: usize,
    /// Length of the rolling metrics window, in seconds.
    pub window_secs: u64,
    /// Flight-recorder event-ring capacity.
    pub recorder_events: usize,
    /// Flight-recorder per-request report-ring capacity.
    pub recorder_reports: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            default_threads: 1,
            log_path: None,
            log_level: LogLevel::Info,
            flight_path: None,
            trace_dir: None,
            window_capacity: 1024,
            window_secs: 60,
            recorder_events: 256,
            recorder_reports: 8,
        }
    }
}

/// One resident case: the warm engine plus per-case request counters.
struct CaseSlot {
    engine: EcoEngine,
    ecos: u64,
    legalizes: u64,
}

/// A queued request together with its response channel.
struct Job {
    id: u64,
    span: u64,
    request: Request,
    respond: mpsc::Sender<Json>,
}

/// The portion of a job that crosses into the wave workers. Split from
/// [`Job`] because [`mpsc::Sender`] is not `Sync`: the dispatcher keeps
/// the senders and only the `(id, span, request)` triples are shared.
struct Work {
    id: u64,
    span: u64,
    request: Request,
}

/// What a wave worker produces: the wire response plus the request's
/// profile, merged into the server-level telemetry by the dispatcher.
struct Executed {
    response: Json,
    profile: Option<Profile>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// Aggregated server telemetry: request/error counts plus a [`Profile`]
/// holding merged per-request phases, counters, and the
/// [`hist_keys::SERVE_REQUEST_MICROS`] latency histogram.
struct ServerStats {
    profile: Profile,
    requests: u64,
    errors: u64,
}

/// Live-telemetry state behind one mutex: the rolling metrics window
/// (always fed — it is what the `metrics` command reads) and the flight
/// recorder (fed only when a dump path is configured).
struct Telemetry {
    window: RollingWindow,
    recorder: FlightRecorder,
}

struct Shared {
    config: ServerConfig,
    registry: Mutex<BTreeMap<String, Arc<Mutex<CaseSlot>>>>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    next_span: AtomicU64,
    next_event: AtomicU64,
    started: Instant,
    telemetry: Mutex<Telemetry>,
    log: Option<EventLog>,
    stats: Mutex<ServerStats>,
    done: Mutex<bool>,
    done_cv: Condvar,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Requests read off a connection whose response is not written yet
    /// (see [`Answering`]).
    answering: Mutex<usize>,
    answered_cv: Condvar,
}

/// Counts one connection request as unanswered from the moment its
/// frame is read until the guard drops after the response is written,
/// so [`Server::join`] can wait for the shutdown answer to leave the
/// process before a listener returns and the process exits.
struct Answering<'a>(&'a Shared);

impl<'a> Answering<'a> {
    fn start(shared: &'a Shared) -> Self {
        *lock(&shared.answering) += 1;
        Answering(shared)
    }
}

impl Drop for Answering<'_> {
    fn drop(&mut self) {
        *lock(&self.0.answering) -= 1;
        self.0.answered_cv.notify_all();
    }
}

/// How long [`Server::join`] waits for responses still being written
/// once the dispatcher has stopped: ample for any reply a reading peer
/// accepts, and a bound on a peer that stopped reading.
const ANSWER_GRACE: Duration = Duration::from_secs(5);

/// The resident legalization service. Cheap to clone; all clones share
/// one registry, queue, and dispatcher. See the module docs for the
/// execution model.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Starts a server: opens the configured telemetry sinks, spawns
    /// the dispatcher thread, and returns a handle ready for
    /// [`handle_connection`](Self::handle_connection) or the listener
    /// loops.
    ///
    /// Dropping every clone without sending a `shutdown` request leaves
    /// the dispatcher parked on its queue until process exit; send
    /// `shutdown` (and [`join`](Self::join)) for a clean stop.
    ///
    /// # Errors
    ///
    /// Fails if the event-log file cannot be created or the trace
    /// directory cannot be made. A default config opens no sinks and
    /// cannot fail.
    pub fn new(config: ServerConfig) -> std::io::Result<Server> {
        let log = match &config.log_path {
            Some(path) => Some(EventLog::to_file(path, config.log_level)?),
            None => None,
        };
        if let Some(dir) = &config.trace_dir {
            std::fs::create_dir_all(dir)?;
        }
        let telemetry = Telemetry {
            window: RollingWindow::new(
                config.window_capacity,
                config.window_secs.saturating_mul(1_000_000),
            ),
            recorder: FlightRecorder::new(config.recorder_events, config.recorder_reports),
        };
        let server = Server {
            shared: Arc::new(Shared {
                config,
                registry: Mutex::new(BTreeMap::new()),
                queue: Mutex::new(QueueState::default()),
                queue_cv: Condvar::new(),
                next_id: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                next_event: AtomicU64::new(0),
                started: Instant::now(),
                telemetry: Mutex::new(telemetry),
                log,
                stats: Mutex::new(ServerStats {
                    profile: Profile::new(),
                    requests: 0,
                    errors: 0,
                }),
                done: Mutex::new(false),
                done_cv: Condvar::new(),
                dispatcher: Mutex::new(None),
                answering: Mutex::new(0),
                answered_cv: Condvar::new(),
            }),
        };
        let worker = server.clone();
        let handle = std::thread::spawn(move || worker.dispatch_loop());
        *lock(&server.shared.dispatcher) = Some(handle);
        Ok(server)
    }

    /// Microseconds since the server started — the epoch for metrics
    /// samples and event timestamps.
    fn uptime_micros(&self) -> u64 {
        self.shared.started.elapsed().as_micros() as u64
    }

    /// Whether any structured-event sink (JSONL log or flight
    /// recorder) is configured. When neither is, the whole event path
    /// collapses to this one branch.
    fn events_on(&self) -> bool {
        self.shared.log.is_some() || self.shared.config.flight_path.is_some()
    }

    /// Emits one structured event to the log and the flight recorder.
    fn emit(&self, level: LogLevel, event: &str, fields: Vec<(String, Json)>) {
        if !self.events_on() {
            return;
        }
        let seq = self.shared.next_event.fetch_add(1, Ordering::Relaxed);
        let record = log_record(seq, self.uptime_micros(), level, event, fields);
        if self.shared.config.flight_path.is_some() {
            lock(&self.shared.telemetry)
                .recorder
                .note_event(record.clone());
        }
        if let Some(log) = &self.shared.log {
            log.write(level, &record);
        }
    }

    /// Writes the flight-recorder dump to the configured sidecar path.
    /// A no-op without a path; a failed write becomes a warn event
    /// rather than an error — telemetry must not take the service down.
    fn flight_dump(&self, reason: &str) {
        let Some(path) = &self.shared.config.flight_path else {
            return;
        };
        let uptime = self.shared.started.elapsed().as_secs_f64();
        let dump = lock(&self.shared.telemetry).recorder.dump(reason, uptime);
        if std::fs::write(path, format!("{dump}\n")).is_err() {
            self.emit(
                LogLevel::Warn,
                "flight_dump_failed",
                vec![("path".into(), Json::Str(path.clone()))],
            );
        }
    }

    /// Whether a `shutdown` request has fully drained the queue and
    /// stopped the dispatcher.
    pub fn is_done(&self) -> bool {
        *lock(&self.shared.done)
    }

    /// Blocks until the server is done (see [`is_done`](Self::is_done)),
    /// joins the dispatcher thread, and waits (up to a grace period) for
    /// connection threads to finish writing responses they already hold
    /// — the shutdown answer among them. The listener loops return only
    /// after this, so a process that exits when they return does not cut
    /// off its last replies.
    pub fn join(&self) {
        let mut done = lock(&self.shared.done);
        while !*done {
            done = self
                .shared
                .done_cv
                .wait(done)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        let handle = lock(&self.shared.dispatcher).take();
        if let Some(handle) = handle {
            // The dispatcher only signals `done` on its way out; a join
            // failure would mean it panicked, which merge/execute paths
            // do not do.
            let _ = handle.join();
        }
        let answering = lock(&self.shared.answering);
        let _ = self
            .shared
            .answered_cv
            .wait_timeout_while(answering, ANSWER_GRACE, |n| *n > 0);
    }

    /// Serves connections from `listener` until shutdown. Each
    /// connection gets its own thread running
    /// [`handle_connection`](Self::handle_connection).
    ///
    /// # Errors
    ///
    /// Propagates listener `accept` errors other than shutdown.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        // Breaking a blocking accept loop needs a poke: once the
        // dispatcher drains, this helper self-connects so accept()
        // returns and the loop observes `done`.
        let poker = self.clone();
        std::thread::spawn(move || {
            poker.join();
            let _ = TcpStream::connect(addr);
        });
        loop {
            let (stream, _) = listener.accept()?;
            if self.is_done() {
                return Ok(());
            }
            let server = self.clone();
            std::thread::spawn(move || server.handle_connection(stream));
        }
    }

    /// Binds `addr` and serves TCP connections until shutdown.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept errors.
    pub fn serve_tcp(&self, addr: impl ToSocketAddrs) -> std::io::Result<()> {
        self.serve_listener(TcpListener::bind(addr)?)
    }

    /// Binds `path` and serves Unix-domain connections until shutdown.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept errors.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::{UnixListener, UnixStream};
        let listener = UnixListener::bind(path)?;
        let poke_path = path.to_path_buf();
        let poker = self.clone();
        std::thread::spawn(move || {
            poker.join();
            let _ = UnixStream::connect(&poke_path);
        });
        loop {
            let (stream, _) = listener.accept()?;
            if self.is_done() {
                std::fs::remove_file(path).ok();
                return Ok(());
            }
            let server = self.clone();
            std::thread::spawn(move || server.handle_connection(stream));
        }
    }

    /// Speaks the frame protocol over `stream` until the peer closes,
    /// a malformed frame arrives (answered once, then the connection is
    /// dropped — framing is unrecoverable after garbage), or a
    /// `shutdown` response is written.
    ///
    /// Requests on one connection are handled strictly in order;
    /// concurrency comes from opening several connections.
    pub fn handle_connection<S: Read + Write>(&self, mut stream: S) {
        loop {
            let json = match read_frame(&mut stream) {
                Ok(Some(json)) => json,
                Ok(None) => return,
                Err(FrameError::Io(_)) => return,
                Err(err) => {
                    let response = error_response(0, codes::MALFORMED_FRAME, &err.to_string());
                    self.note_outcome(&response);
                    self.emit(
                        LogLevel::Error,
                        "request_failed",
                        vec![
                            ("code".into(), Json::Str(codes::MALFORMED_FRAME.into())),
                            ("message".into(), Json::Str(err.to_string())),
                        ],
                    );
                    self.flight_dump("request_error");
                    let _ = write_frame(&mut stream, &response);
                    return;
                }
            };
            let _answering = Answering::start(&self.shared);
            let rid = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
            let id = request_id(&json).unwrap_or(rid);
            let is_shutdown = matches!(json.get("cmd").and_then(Json::as_str), Some("shutdown"));
            let response = match Request::parse(&json) {
                Ok(request) => self.process(id, request),
                Err(msg) => error_response(id, codes::BAD_REQUEST, &msg),
            };
            let accepted_shutdown = is_shutdown && response.get("ok") == Some(&Json::Bool(true));
            if write_frame(&mut stream, &response).is_err() {
                return;
            }
            if accepted_shutdown {
                return;
            }
        }
    }

    /// Handles one parsed request end to end and returns the response.
    /// Inline commands answer immediately; queued commands block until
    /// the dispatcher executes them, so the recorded latency covers the
    /// queue wait.
    pub fn process(&self, id: u64, request: Request) -> Json {
        let admitted = Instant::now();
        let span = self.shared.next_span.fetch_add(1, Ordering::Relaxed);
        if self.events_on() {
            let mut fields = vec![
                ("span".into(), Json::num(span as f64)),
                ("id".into(), Json::num(id as f64)),
                ("cmd".into(), Json::Str(request.cmd().to_string())),
            ];
            if let Some(case) = request.case_name() {
                fields.push(("case".into(), Json::Str(case.to_string())));
            }
            fields.push((
                "queue_depth".into(),
                Json::num(lock(&self.shared.queue).jobs.len() as f64),
            ));
            self.emit(LogLevel::Info, "request_admitted", fields);
        }
        let response = match request {
            Request::Ping => ok_response(id, vec![("pong".into(), Json::Bool(true))]),
            Request::Stats => self.stats_response(id),
            Request::Metrics => self.metrics_response(id),
            Request::Unload { name } => {
                let removed = lock(&self.shared.registry).remove(&name).is_some();
                self.emit(
                    LogLevel::Info,
                    "engine_unloaded",
                    vec![
                        ("span".into(), Json::num(span as f64)),
                        ("case".into(), Json::Str(name.clone())),
                        ("was_resident".into(), Json::Bool(removed)),
                    ],
                );
                ok_response(
                    id,
                    vec![
                        ("name".into(), Json::Str(name)),
                        ("unloaded".into(), Json::Bool(removed)),
                    ],
                )
            }
            queued => self.enqueue_and_wait(id, span, queued),
        };
        let micros = admitted.elapsed().as_secs_f64() * 1e6;
        let ok = response.get("ok") == Some(&Json::Bool(true));
        let mut stats = lock(&self.shared.stats);
        stats
            .profile
            .record(hist_keys::SERVE_REQUEST_MICROS, micros);
        drop(stats);
        lock(&self.shared.telemetry).window.record(RequestSample {
            end_micros: self.uptime_micros(),
            latency_micros: micros as u64,
            ok,
        });
        self.note_outcome(&response);
        if self.events_on() {
            let mut fields = vec![
                ("span".into(), Json::num(span as f64)),
                ("id".into(), Json::num(id as f64)),
                ("latency_micros".into(), Json::num(micros)),
            ];
            if ok {
                self.emit(LogLevel::Info, "request_completed", fields);
            } else {
                if let Some(code) = response
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                {
                    fields.push(("code".into(), Json::Str(code.to_string())));
                }
                self.emit(LogLevel::Error, "request_failed", fields);
            }
        }
        if !ok {
            self.flight_dump("request_error");
        }
        response
    }

    /// Rolling-window gauges, answered inline. The snapshot is taken
    /// *before* this request's own sample is recorded, so the counts a
    /// test observes are exactly the requests completed beforehand.
    fn metrics_response(&self, id: u64) -> Json {
        let now = self.uptime_micros();
        let queue_depth = lock(&self.shared.queue).jobs.len();
        let snapshot = lock(&self.shared.telemetry)
            .window
            .snapshot(now, queue_depth);
        ok_response(
            id,
            vec![
                ("window".into(), snapshot.to_json()),
                ("prometheus".into(), Json::Str(snapshot.to_prometheus())),
                (
                    "uptime_secs".into(),
                    Json::num(self.shared.started.elapsed().as_secs_f64()),
                ),
            ],
        )
    }

    fn note_outcome(&self, response: &Json) {
        let mut stats = lock(&self.shared.stats);
        stats.requests += 1;
        if response.get("ok") != Some(&Json::Bool(true)) {
            stats.errors += 1;
        }
    }

    fn enqueue_and_wait(&self, id: u64, span: u64, request: Request) -> Json {
        let (respond, receive) = mpsc::channel();
        {
            let mut queue = lock(&self.shared.queue);
            if queue.shutting_down {
                return error_response(
                    id,
                    codes::SHUTTING_DOWN,
                    "the server is draining and admits no new work",
                );
            }
            if queue.jobs.len() >= self.shared.config.queue_depth {
                return error_response(
                    id,
                    codes::OVERLOADED,
                    &format!(
                        "request queue is full ({} pending)",
                        self.shared.config.queue_depth
                    ),
                );
            }
            if matches!(request, Request::Shutdown) {
                // Close admission under the same lock that admits the
                // shutdown job: nothing can slip in behind it.
                queue.shutting_down = true;
            }
            queue.jobs.push_back(Job {
                id,
                span,
                request,
                respond,
            });
            self.shared.queue_cv.notify_all();
        }
        receive.recv().unwrap_or_else(|_| {
            error_response(id, codes::SHUTTING_DOWN, "the server stopped mid-request")
        })
    }

    /// The dispatcher: pops waves off the queue and runs each wave on
    /// the `flow3d-par` pool. Exits after answering a shutdown job.
    fn dispatch_loop(&self) {
        let mut wave_index: u64 = 0;
        loop {
            let wave = self.next_wave();
            if wave.len() == 1 && matches!(wave[0].request, Request::Shutdown) {
                let job = &wave[0];
                let _ = job.respond.send(ok_response(
                    job.id,
                    vec![("stopped".into(), Json::Bool(true))],
                ));
                break;
            }
            let mut senders = Vec::with_capacity(wave.len());
            let mut work = Vec::with_capacity(wave.len());
            for job in wave {
                senders.push(job.respond);
                work.push(Work {
                    id: job.id,
                    span: job.span,
                    request: job.request,
                });
            }
            if self.events_on() {
                self.emit(
                    LogLevel::Debug,
                    "wave_start",
                    vec![
                        ("wave".into(), Json::num(wave_index as f64)),
                        ("size".into(), Json::num(work.len() as f64)),
                    ],
                );
                for w in &work {
                    let mut fields = vec![
                        ("span".into(), Json::num(w.span as f64)),
                        ("id".into(), Json::num(w.id as f64)),
                        ("wave".into(), Json::num(wave_index as f64)),
                        ("cmd".into(), Json::Str(w.request.cmd().to_string())),
                    ];
                    if let Some(case) = w.request.case_name() {
                        fields.push(("case".into(), Json::Str(case.to_string())));
                    }
                    self.emit(LogLevel::Info, "request_dispatched", fields);
                }
            }
            let workers = flow3d_par::resolve_threads(self.shared.config.workers);
            let executed = flow3d_par::par_map(workers, work.len(), |i| self.execute(&work[i]));
            self.emit(
                LogLevel::Debug,
                "wave_end",
                vec![
                    ("wave".into(), Json::num(wave_index as f64)),
                    ("size".into(), Json::num(work.len() as f64)),
                ],
            );
            wave_index += 1;
            let mut stats = lock(&self.shared.stats);
            for (done, respond) in executed.into_iter().zip(senders) {
                if let Some(profile) = &done.profile {
                    stats.profile.merge_nested(profile);
                }
                let _ = respond.send(done.response);
            }
        }
        self.emit(
            LogLevel::Info,
            "server_stopped",
            vec![("waves".into(), Json::num(wave_index as f64))],
        );
        self.flight_dump("shutdown");
        let mut done = lock(&self.shared.done);
        *done = true;
        self.shared.done_cv.notify_all();
    }

    /// Builds the next wave: the longest queue prefix holding at most
    /// one request per case. A second request for a case already in the
    /// wave — and everything FIFO-behind it for that case — stays
    /// queued, preserving per-case order. A shutdown job only forms a
    /// wave once it is alone at the front, i.e. once every request
    /// admitted before it has completed.
    fn next_wave(&self) -> Vec<Job> {
        let mut queue = lock(&self.shared.queue);
        loop {
            if !queue.jobs.is_empty() {
                let mut wave: Vec<Job> = Vec::new();
                let mut skipped: Vec<Job> = Vec::new();
                while let Some(job) = queue.jobs.pop_front() {
                    if matches!(job.request, Request::Shutdown) {
                        if wave.is_empty() && skipped.is_empty() {
                            wave.push(job);
                        } else {
                            skipped.push(job);
                        }
                        break;
                    }
                    let name = job.request.case_name().unwrap_or("");
                    if wave
                        .iter()
                        .any(|w| w.request.case_name().unwrap_or("") == name)
                    {
                        skipped.push(job);
                    } else {
                        wave.push(job);
                    }
                }
                for job in skipped.into_iter().rev() {
                    queue.jobs.push_front(job);
                }
                if !wave.is_empty() {
                    return wave;
                }
            }
            queue = self
                .shared
                .queue_cv
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn execute(&self, work: &Work) -> Executed {
        match &work.request {
            Request::Load {
                name,
                case,
                legal,
                global,
                threads,
            } => self.execute_load(work.id, name, case, legal.as_deref(), global.as_deref(), {
                if *threads == 0 {
                    self.shared.config.default_threads
                } else {
                    *threads
                }
            }),
            Request::Legalize {
                name,
                global,
                commit,
            } => self.execute_legalize(work.id, name, global, *commit),
            Request::Eco {
                name,
                moves,
                commit,
                trace,
            } => self.execute_eco(work.id, name, moves, *commit, *trace),
            // Inline and shutdown requests never reach the wave.
            other => Executed {
                response: error_response(
                    work.id,
                    codes::BAD_REQUEST,
                    &format!("request {other:?} cannot be queued"),
                ),
                profile: None,
            },
        }
    }

    fn execute_load(
        &self,
        id: u64,
        name: &str,
        case: &str,
        legal: Option<&str>,
        global: Option<&str>,
        threads: usize,
    ) -> Executed {
        let fail = |code: &str, msg: &str| Executed {
            response: error_response(id, code, msg),
            profile: None,
        };
        let design = match flow3d_io::parse_case(case) {
            Ok(d) => d,
            Err(e) => return fail(codes::PARSE_FAILED, &format!("case: {e}")),
        };
        let cfg = Flow3dConfig {
            threads,
            ..Flow3dConfig::default()
        };
        let mut profile = Profile::new();
        if self.shared.config.trace_dir.is_some() {
            profile.enable_tracing();
        }
        profile.begin("load");
        let base = if let Some(text) = legal {
            match flow3d_io::parse_legal(&design, text) {
                Ok(p) => p,
                Err(e) => return fail(codes::PARSE_FAILED, &format!("legal: {e}")),
            }
        } else {
            let text = global.unwrap_or_default();
            let gp = match flow3d_io::parse_placement3d(&design, text) {
                Ok(p) => p,
                Err(e) => return fail(codes::PARSE_FAILED, &format!("global: {e}")),
            };
            let legalizer = Flow3dLegalizer::new(cfg.clone());
            match legalizer.legalize_observed(&design, &gp, Some(&mut profile)) {
                Ok(outcome) => outcome.placement,
                Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
            }
        };
        let cells = design.num_cells();
        let engine = match EcoEngine::new(cfg, design, base) {
            Ok(e) => e,
            Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
        };
        profile.end("load");
        let slot = Arc::new(Mutex::new(CaseSlot {
            engine,
            ecos: 0,
            legalizes: 0,
        }));
        lock(&self.shared.registry).insert(name.to_string(), slot);
        self.emit(
            LogLevel::Info,
            "engine_loaded",
            vec![
                ("id".into(), Json::num(id as f64)),
                ("case".into(), Json::Str(name.to_string())),
                ("cells".into(), Json::num(cells as f64)),
                ("threads".into(), Json::num(threads as f64)),
            ],
        );
        self.export_trace(name, id, &profile);
        Executed {
            response: ok_response(
                id,
                vec![
                    ("name".into(), Json::Str(name.to_string())),
                    ("cells".into(), Json::num(cells as f64)),
                    ("threads".into(), Json::num(threads as f64)),
                ],
            ),
            profile: Some(profile),
        }
    }

    /// Writes a request's Chrome trace into the configured trace
    /// directory as `<case>_r<id>.trace.json`, process tagged
    /// `case#r<id>`. A no-op unless `--trace` armed the directory.
    fn export_trace(&self, name: &str, id: u64, profile: &Profile) {
        let Some(dir) = &self.shared.config.trace_dir else {
            return;
        };
        let Some(trace_json) = profile.to_chrome_trace(&format!("flow3d-serve {name}#r{id}"))
        else {
            return;
        };
        let file: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = std::path::Path::new(dir).join(format!("{file}_r{id}.trace.json"));
        if std::fs::write(&path, trace_json).is_err() {
            self.emit(
                LogLevel::Warn,
                "trace_export_failed",
                vec![(
                    "path".into(),
                    Json::Str(path.to_string_lossy().into_owned()),
                )],
            );
        }
    }

    /// Retains a per-request report in the flight recorder (no-op
    /// without a dump path).
    fn note_report(&self, tag: &str, report: &Json) {
        if self.shared.config.flight_path.is_some() {
            lock(&self.shared.telemetry)
                .recorder
                .note_report(tag, report.clone());
        }
    }

    fn case_slot(&self, name: &str) -> Option<Arc<Mutex<CaseSlot>>> {
        lock(&self.shared.registry).get(name).cloned()
    }

    fn execute_legalize(&self, id: u64, name: &str, global: &str, commit: bool) -> Executed {
        let fail = |code: &str, msg: &str| Executed {
            response: error_response(id, code, msg),
            profile: None,
        };
        let Some(slot) = self.case_slot(name) else {
            return fail(codes::UNKNOWN_CASE, &format!("no resident case `{name}`"));
        };
        let mut slot = lock(&slot);
        let gp = match flow3d_io::parse_placement3d(slot.engine.design(), global) {
            Ok(p) => p,
            Err(e) => return fail(codes::PARSE_FAILED, &format!("global: {e}")),
        };
        let mut profile = Profile::new();
        if self.shared.config.trace_dir.is_some() {
            profile.enable_tracing();
        }
        profile.begin("legalize");
        let legalizer = Flow3dLegalizer::new(slot.engine.config().clone());
        let outcome =
            match legalizer.legalize_observed(slot.engine.design(), &gp, Some(&mut profile)) {
                Ok(o) => o,
                Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
            };
        profile.end("legalize");
        slot.legalizes += 1;
        let legal_text = match placement_text(&slot.engine, &outcome.placement) {
            Ok(t) => t,
            Err(e) => return fail(codes::LEGALIZE_FAILED, &e),
        };
        let commit_stats = if commit {
            profile.begin("commit");
            let cs = match slot.engine.commit(outcome.placement.clone()) {
                Ok(cs) => cs,
                Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
            };
            profile.end("commit");
            profile.bump(keys::COMMIT_RESEEDED, cs.reseeded as u64);
            profile.bump(keys::COMMIT_SEEDS, cs.total as u64);
            Some(cs)
        } else {
            None
        };
        let tag = format!("{name}#r{id}");
        let report = RunReport::from_profile(&tag, "flow3d-serve", &profile);
        let mut fields = vec![
            ("name".into(), Json::Str(name.to_string())),
            ("legal".into(), Json::Str(legal_text)),
            ("committed".into(), Json::Bool(commit)),
            ("stats".into(), stats_json(&outcome.stats)),
        ];
        if let Some(cs) = commit_stats {
            fields.push(("commit_reseeded".into(), Json::num(cs.reseeded as f64)));
            fields.push(("commit_total".into(), Json::num(cs.total as f64)));
        }
        let report = report.to_json_value();
        self.note_report(&tag, &report);
        fields.push(("report".into(), report));
        self.export_trace(name, id, &profile);
        Executed {
            response: ok_response(id, fields),
            profile: Some(profile),
        }
    }

    fn execute_eco(
        &self,
        id: u64,
        name: &str,
        moves: &[MoveSpec],
        commit: bool,
        trace: bool,
    ) -> Executed {
        let fail = |code: &str, msg: &str| Executed {
            response: error_response(id, code, msg),
            profile: None,
        };
        let Some(slot) = self.case_slot(name) else {
            return fail(codes::UNKNOWN_CASE, &format!("no resident case `{name}`"));
        };
        let mut slot = lock(&slot);
        let cell_moves = match resolve_moves(&slot.engine, moves) {
            Ok(m) => m,
            Err(msg) => return fail(codes::BAD_REQUEST, &msg),
        };
        let mut profile = Profile::new();
        if trace || self.shared.config.trace_dir.is_some() {
            profile.enable_tracing();
        }
        profile.begin("eco");
        let outcome = match slot.engine.eco_observed(&cell_moves, Some(&mut profile)) {
            Ok(o) => o,
            Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
        };
        profile.end("eco");
        slot.ecos += 1;
        let legal_text = match placement_text(&slot.engine, &outcome.placement) {
            Ok(t) => t,
            Err(e) => return fail(codes::LEGALIZE_FAILED, &e),
        };
        let commit_stats = if commit {
            profile.begin("commit");
            let cs = match slot.engine.commit(outcome.placement.clone()) {
                Ok(cs) => cs,
                Err(e) => return fail(codes::LEGALIZE_FAILED, &e.to_string()),
            };
            profile.end("commit");
            profile.bump(keys::COMMIT_RESEEDED, cs.reseeded as u64);
            profile.bump(keys::COMMIT_SEEDS, cs.total as u64);
            Some(cs)
        } else {
            None
        };
        let tag = format!("{name}#r{id}");
        let report = RunReport::from_profile(&tag, "flow3d-serve", &profile);
        let mut fields = vec![
            ("name".into(), Json::Str(name.to_string())),
            ("legal".into(), Json::Str(legal_text)),
            ("committed".into(), Json::Bool(commit)),
            ("stats".into(), stats_json(&outcome.stats)),
            (
                "requests_served".into(),
                Json::num(slot.engine.requests_served() as f64),
            ),
        ];
        if let Some(cs) = commit_stats {
            fields.push(("commit_reseeded".into(), Json::num(cs.reseeded as f64)));
            fields.push(("commit_total".into(), Json::num(cs.total as f64)));
        }
        let report = report.to_json_value();
        self.note_report(&tag, &report);
        fields.push(("report".into(), report));
        if trace {
            if let Some(trace_json) = profile.to_chrome_trace(&format!("flow3d-serve {tag}")) {
                fields.push(("trace".into(), Json::Str(trace_json)));
            }
        }
        self.export_trace(name, id, &profile);
        Executed {
            response: ok_response(id, fields),
            profile: Some(profile),
        }
    }

    fn stats_response(&self, id: u64) -> Json {
        let cases: Vec<Json> = lock(&self.shared.registry)
            .iter()
            .map(|(name, slot)| {
                let slot = lock(slot);
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    (
                        "cells".into(),
                        Json::num(slot.engine.design().num_cells() as f64),
                    ),
                    ("ecos".into(), Json::num(slot.ecos as f64)),
                    ("legalizes".into(), Json::num(slot.legalizes as f64)),
                    (
                        "requests_served".into(),
                        Json::num(slot.engine.requests_served() as f64),
                    ),
                ])
            })
            .collect();
        let pending = lock(&self.shared.queue).jobs.len();
        let stats = lock(&self.shared.stats);
        let report = RunReport::from_profile("flow3d-serve", "flow3d-serve", &stats.profile);
        let mut fields = vec![
            ("cases".into(), Json::Arr(cases)),
            ("requests".into(), Json::num(stats.requests as f64)),
            ("errors".into(), Json::num(stats.errors as f64)),
            ("pending".into(), Json::num(pending as f64)),
            (
                "uptime_secs".into(),
                Json::num(self.shared.started.elapsed().as_secs_f64()),
            ),
            (
                "peak_rss_bytes".into(),
                match peak_rss_bytes() {
                    Some(bytes) => Json::num(bytes as f64),
                    None => Json::Null,
                },
            ),
        ];
        fields.push(("report".into(), report.to_json_value()));
        ok_response(id, fields)
    }
}

/// Resolves wire move specs against the resident design. Any unknown
/// cell or out-of-range die fails the whole request — a partial ECO
/// would silently diverge from what the client asked for.
fn resolve_moves(engine: &EcoEngine, moves: &[MoveSpec]) -> Result<Vec<CellMove>, String> {
    let design = engine.design();
    moves
        .iter()
        .map(|m| {
            let cell = design
                .cell_by_name(&m.cell)
                .ok_or_else(|| format!("unknown cell `{}`", m.cell))?;
            let die = match m.die {
                None => None,
                Some(d) if d < design.num_dies() => Some(DieId::new(d)),
                Some(d) => {
                    return Err(format!(
                        "die {d} out of range for `{}` (design has {})",
                        m.cell,
                        design.num_dies()
                    ))
                }
            };
            Ok(CellMove {
                cell,
                target: Point::new(m.x, m.y),
                die,
            })
        })
        .collect()
}

fn placement_text(
    engine: &EcoEngine,
    placement: &flow3d_db::LegalPlacement,
) -> Result<String, String> {
    let mut buf = String::new();
    flow3d_io::write_legal(engine.design(), placement, &mut buf)
        .map_err(|e| format!("serializing placement: {e}"))?;
    Ok(buf)
}

fn stats_json(stats: &LegalizeStats) -> Json {
    Json::Obj(vec![
        (
            "augmentations".into(),
            Json::num(stats.augmentations as f64),
        ),
        (
            "nodes_expanded".into(),
            Json::num(stats.nodes_expanded as f64),
        ),
        (
            "cross_die_moves".into(),
            Json::num(stats.cross_die_moves as f64),
        ),
        ("post_passes".into(), Json::num(stats.post_passes as f64)),
        (
            "fallback_moves".into(),
            Json::num(stats.fallback_moves as f64),
        ),
        ("cells_moved".into(), Json::num(stats.cells_moved as f64)),
    ])
}

/// Locks a mutex, riding through poisoning: a panic in another request
/// must not wedge the whole server, and every guarded structure is
/// valid at rest (counters, maps, queues).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}
