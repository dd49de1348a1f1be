//! The streaming TCP transport: the [`jsonl`] protocol
//! over a real wire (`fecim-serve serve --listen ADDR`).
//!
//! One OS thread per connection reads [`RequestLine`]s as they arrive
//! and executes them against a scheduler shared by every connection.
//! Unlike the staged stdin transport, execution is *live*:
//!
//! * terminal [`ResponseLine`]s are emitted **as jobs finish**, tagged
//!   by id, not in submission order;
//! * `Status`/`Progress` queries are answered immediately with the
//!   job's current state;
//! * a `Cancel` races the worker pool — trials that finished before it
//!   lands are kept in the `Cancelled` line's partial response;
//! * admission control pushes back: once the scheduler's open-job count
//!   reaches the configured limit, further submissions get a `Rejected`
//!   line and never enter the queue (the check is serialized across
//!   connections, so the limit is hard);
//! * submission ids are unique server-wide — a `Submit` reusing an id
//!   from ANY connection (ids key the journal) fails deterministically;
//! * a `Campaign` line runs its multi-round spec on a dedicated thread,
//!   concurrently with everything else on the shared scheduler, and
//!   answers with one `Campaign` (or `Failed`) line when the last round
//!   settles. Admission control applies to the campaign line itself at
//!   arrival; its per-round sub-jobs then enter the queue directly
//!   (each round keeps at most one window-set in flight).
//!
//! On the wire, each response line is one `write_all` of the JSON and
//! its `\n` together, and every accepted socket has `TCP_NODELAY` set.
//! Written as two pieces with Nagle on, the newline would wait for the
//! client's delayed ACK (~40 ms): every closed-loop round trip, a
//! `Status` query included, would stall that long. Request lines are
//! read with a byte cap, [`MAX_REQUEST_LINE_BYTES`]; the rest of a
//! longer line is skipped up to its newline without being buffered,
//! and the line is answered like an unparsable one, with a `Failed`
//! line for id `line-N`.
//!
//! A connection answers `Status`, `Progress` and `Cancel` for every id
//! it submitted, for as long as it is open, but it does not keep a
//! settled job alive for that. Each waiter thread, having written its
//! job's terminal line, reports the id on a per-connection channel.
//! Before each request line the connection drains the channel, joins
//! the reported waiters, and keeps of each settled job only the status
//! and progress its queries keep answering.
//!
//! A connection's jobs keep running after the client stops sending;
//! the server half-closes only after every job submitted on that
//! connection has been answered. Combined with a journal
//! ([`SchedulerConfig::with_journal`]), a crashed server replays
//! unfinished jobs on restart — deterministic seeds make the replayed
//! responses bit-identical, they just can no longer be delivered to the
//! original (dead) connection.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::campaign;
use crate::jsonl::{
    self, CappedLine, JsonlSummary, RequestLine, ResponseLine, MAX_REQUEST_LINE_BYTES,
};
use crate::scheduler::{lock, Scheduler, SchedulerConfig};
use crate::{JobHandle, JobProgress, JobStatus};

/// Configuration of a [`TcpServer`].
#[derive(Debug, Clone, Default)]
pub struct TcpServerConfig {
    /// The scheduler every connection shares (journal included).
    pub scheduler: SchedulerConfig,
    /// Admission-control limit: submissions arriving while
    /// `Scheduler::open_jobs()` is at or above this are answered with a
    /// `Rejected` line instead of entering the queue. The check and the
    /// submit are serialized across connections, so this is a hard
    /// limit, not a high-water mark. `None` = accept everything.
    pub max_open_jobs: Option<usize>,
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    scheduler: Scheduler,
    max_open_jobs: Option<usize>,
    /// Connection threads, joined at shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// One clone per live connection socket, keyed by connection id;
    /// shutdown half-closes their read sides so a reader blocked on an
    /// idle client unblocks. Each handler removes its own entry on exit
    /// — a lingering clone would hold the fd open (the peer would never
    /// see EOF) and leak one fd per connection. Ordered map so shutdown
    /// half-closes in connection-id order, not hash order.
    socks: Mutex<BTreeMap<u64, TcpStream>>,
    /// Every id ever submitted on ANY connection. Ids key the journal
    /// (and the `recover` subcommand's output lines), so uniqueness is
    /// server-wide, not per-connection; the same lock also serializes
    /// the admission check against the submit, making `max_open_jobs` a
    /// hard limit rather than a per-connection high-water mark.
    submitted: Mutex<HashSet<String>>,
}

/// A running TCP front-end: an accept loop plus one thread per
/// connection, all sharing one [`Scheduler`].
///
/// ```no_run
/// use fecim_serve::{TcpServer, TcpServerConfig};
///
/// let server = TcpServer::bind("127.0.0.1:0", TcpServerConfig::default())?;
/// println!("listening on {}", server.local_addr());
/// // ... connect clients, speak the JSONL protocol ...
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    recovered: usize,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .field("recovered", &self.recovered)
            .finish()
    }
}

impl TcpServer {
    /// Bind `addr` and start accepting connections.
    ///
    /// If the scheduler config names a journal that already exists, the
    /// crashed run's unfinished jobs are recovered *before* the first
    /// connection is accepted (staged on a paused scheduler so replayed
    /// cancellations settle deterministically); their responses are
    /// recomputed bit-identically and journaled, but — the original
    /// connections being gone — not delivered anywhere.
    ///
    /// # Errors
    ///
    /// Binding/listening errors, journal-open errors, and a corrupt
    /// journal (as [`std::io::ErrorKind::InvalidData`]).
    pub fn bind(addr: impl ToSocketAddrs, config: TcpServerConfig) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let recover_from = config
            .scheduler
            .journal
            .clone()
            .filter(|path| path.exists());
        let mut scheduler_config = config.scheduler;
        let resume_after_recover = !scheduler_config.paused && recover_from.is_some();
        if recover_from.is_some() {
            scheduler_config.paused = true;
        }
        let scheduler = Scheduler::try_with_config(scheduler_config)?;
        let recovered = match recover_from {
            Some(path) => scheduler
                .recover(&path)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
                .len(),
            None => 0,
        };
        if resume_after_recover {
            scheduler.resume();
        }
        let shared = Arc::new(Shared {
            scheduler,
            max_open_jobs: config.max_open_jobs,
            conns: Mutex::new(Vec::new()),
            socks: Mutex::new(BTreeMap::new()),
            submitted: Mutex::new(HashSet::new()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fecim-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, stop))?
        };
        Ok(TcpServer {
            addr: local,
            stop,
            accept: Some(accept),
            shared,
            recovered,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs replayed from the journal at startup.
    pub fn recovered_jobs(&self) -> usize {
        self.recovered
    }

    /// Open jobs on the shared scheduler right now.
    pub fn open_jobs(&self) -> usize {
        self.shared.scheduler.open_jobs()
    }

    /// Stop accepting, half-close every connection's read side, wait
    /// for the jobs already submitted to finish and their responses to
    /// be delivered, then drain the scheduler. Request lines still in
    /// flight on the wire when shutdown begins may go unanswered — but
    /// an idle client that keeps its connection open can never stall
    /// shutdown.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop has exited, so the socket list is final.
        // Half-close each read side: readers blocked on clients that
        // never half-closed see EOF and fall through to the waiter
        // joins, which still deliver every in-flight job's response
        // over the (untouched) write sides.
        for sock in lock(&self.shared.socks).values() {
            let _ = sock.shutdown(Shutdown::Read);
        }
        loop {
            // Connection threads may still be registering; drain until
            // the list stays empty.
            let conns: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.shared.conns));
            if conns.is_empty() {
                break;
            }
            for conn in conns {
                let _ = conn.join();
            }
        }
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.scheduler.join(),
            Err(_) => unreachable!("all server threads joined before teardown"),
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Per socket, so the clones below inherit it.
        let _ = stream.set_nodelay(true);
        next_conn += 1;
        let conn_id = next_conn;
        // Registered before the handler spawns, so shutdown (which runs
        // only after this loop exits) always sees every live socket.
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.socks).insert(conn_id, clone);
        }
        let shared_for_conn = Arc::clone(&shared);
        let conn = std::thread::Builder::new()
            .name("fecim-serve-conn".into())
            .spawn(move || handle_connection(stream, &shared_for_conn, conn_id))
            // audit:allow(panic-path): thread spawn fails only on OS resource exhaustion; the accept loop has no error channel to the peer, and limping on with a silently dropped connection is worse than aborting
            .expect("spawn connection thread");
        lock(&shared.conns).push(conn);
    }
}

/// One response line as it goes on the wire: the JSON and its `\n`,
/// written with one `write_all` (a separate `\n` write would be a
/// second segment; see the module doc).
fn encode(line: &ResponseLine) -> String {
    // audit:allow(panic-path): ResponseLine is plain structs/enums with string keys throughout, so serialization is infallible by construction
    let mut json = serde_json::to_string(line).expect("response lines serialize");
    json.push('\n');
    json
}

/// Serialize and send one line; a failed write means the peer is gone,
/// which is not the server's problem — jobs keep running (and, with a
/// journal, stay replayable).
fn send(writer: &Mutex<TcpStream>, line: &ResponseLine) {
    let json = encode(line);
    let _ = lock(writer).write_all(json.as_bytes());
}

/// [`send`] a waiter's terminal line, then report its id on `settled`
/// before releasing the writer. Every later line waits for the writer,
/// so a request line the client sends after reading any later line
/// finds the report when the connection drains the channel.
fn send_settled(writer: &Mutex<TcpStream>, line: &ResponseLine, settled: &Sender<String>) {
    let json = encode(line);
    let mut stream = lock(writer);
    let _ = stream.write_all(json.as_bytes());
    // The connection thread may have gone, and its receiver with it.
    let _ = settled.send(line.id().to_string());
}

/// What a connection keeps of an id it submitted.
enum Submitted {
    /// The job has not settled, or its waiter has not reported yet.
    Live(JobHandle),
    /// The job settled: the status and progress its queries answer from
    /// now on. Neither changes once a settled job has no trial in
    /// flight.
    Settled(JobStatus, JobProgress),
}

/// Join every waiter that reported on `settled` and keep of its job
/// only what its queries answer, dropping the handle and with it the
/// job's request and response. A trial that fails settles its job while
/// sibling trials may still run, and their ends still move its progress;
/// such a job keeps its handle.
fn settle(
    settled: &Receiver<String>,
    waiters: &mut BTreeMap<String, JoinHandle<()>>,
    registry: &mut HashMap<String, Submitted>,
) {
    for id in settled.try_iter() {
        if let Some(waiter) = waiters.remove(&id) {
            let _ = waiter.join();
        }
        let Some(entry) = registry.get_mut(&id) else {
            continue;
        };
        if let Submitted::Live(handle) = entry {
            let (status, progress) = (handle.status(), handle.progress());
            if progress.in_flight == 0 {
                *entry = Submitted::Settled(status, progress);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, conn_id: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    // Every id this connection submitted, kept for the connection's
    // lifetime so queries keep working after a job finishes: the handle
    // until the job settles, then what its queries answer. Duplicate
    // detection is server-wide (`Shared::submitted`);
    // `Cancel`/`Status`/`Progress` remain scoped to the submitting
    // connection, which is the only place the handle lives.
    let mut registry: HashMap<String, Submitted> = HashMap::new();
    // One waiter thread per submission delivers its terminal line the
    // moment the job settles — completion order, not submission order —
    // and then reports its id on `settled`.
    let mut waiters: BTreeMap<String, JoinHandle<()>> = BTreeMap::new();
    let (settled_tx, settled) = mpsc::channel();
    let mut reader = BufReader::new(read_half);
    let mut line_no = 0;
    while let Ok(Some(line)) = jsonl::read_capped_line(&mut reader, MAX_REQUEST_LINE_BYTES) {
        line_no += 1;
        settle(&settled, &mut waiters, &mut registry);
        // Streaming cannot abort the whole stream on one bad line
        // (peers' jobs are already running): synthesize an id and keep
        // serving.
        let line = match line {
            CappedLine::Text(line) => line,
            CappedLine::TooLong => {
                send(
                    &writer,
                    &ResponseLine::Failed {
                        id: format!("line-{line_no}"),
                        error: jsonl::too_long_message(),
                    },
                );
                continue;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let parsed: RequestLine = match serde_json::from_str(trimmed) {
            Ok(parsed) => parsed,
            Err(e) => {
                send(
                    &writer,
                    &ResponseLine::Failed {
                        id: format!("line-{line_no}"),
                        error: format!("unparsable request line: {e}"),
                    },
                );
                continue;
            }
        };
        match parsed {
            RequestLine::Submit {
                id,
                request,
                options,
            } => {
                // Duplicate detection and admission both run under the
                // server-wide `submitted` lock: a duplicate id on a
                // DIFFERENT connection is as much a duplicate as one on
                // this connection (ids key the journal), and holding
                // the lock across the check and the submit makes
                // `max_open_jobs` a hard limit — N racing connections
                // cannot each pass the check and overshoot.
                let mut submitted = lock(&shared.submitted);
                if submitted.contains(&id) {
                    drop(submitted);
                    send(
                        &writer,
                        &ResponseLine::Failed {
                            error: format!("duplicate submission id `{id}`"),
                            id,
                        },
                    );
                    continue;
                }
                if let Some(limit) = shared.max_open_jobs {
                    let open_jobs = shared.scheduler.open_jobs();
                    if open_jobs >= limit {
                        drop(submitted);
                        // Backpressure: the id never enters the queue
                        // (or the registries — the client may retry it).
                        send(
                            &writer,
                            &ResponseLine::Rejected {
                                id,
                                open_jobs,
                                limit,
                            },
                        );
                        continue;
                    }
                }
                let handle = shared.scheduler.submit_named(Some(&id), request, options);
                submitted.insert(id.clone());
                drop(submitted);
                registry.insert(id.clone(), Submitted::Live(handle.clone()));
                let (writer, settled) = (Arc::clone(&writer), settled_tx.clone());
                waiters.insert(
                    id.clone(),
                    std::thread::Builder::new()
                        .name("fecim-serve-waiter".into())
                        .spawn(move || {
                            let outcome = handle.wait();
                            let mut tally = JsonlSummary::default();
                            let line = jsonl::terminal_line(id, outcome, &mut tally);
                            send_settled(&writer, &line, &settled);
                        })
                        // audit:allow(panic-path): thread spawn fails only on OS resource exhaustion; the job is already submitted and journaled, so limping on without a waiter would silently swallow its terminal line
                        .expect("spawn waiter thread"),
                );
            }
            RequestLine::Campaign { id, spec, options } => {
                // Same server-wide duplicate + admission discipline as
                // `Submit`; the id is burned even though campaigns have
                // no handle (they cannot be cancelled or queried).
                let mut submitted = lock(&shared.submitted);
                if submitted.contains(&id) {
                    drop(submitted);
                    send(
                        &writer,
                        &ResponseLine::Failed {
                            error: format!("duplicate submission id `{id}`"),
                            id,
                        },
                    );
                    continue;
                }
                if let Some(limit) = shared.max_open_jobs {
                    let open_jobs = shared.scheduler.open_jobs();
                    if open_jobs >= limit {
                        drop(submitted);
                        send(
                            &writer,
                            &ResponseLine::Rejected {
                                id,
                                open_jobs,
                                limit,
                            },
                        );
                        continue;
                    }
                }
                submitted.insert(id.clone());
                drop(submitted);
                let (writer, settled) = (Arc::clone(&writer), settled_tx.clone());
                let shared = Arc::clone(shared);
                waiters.insert(
                    id.clone(),
                    std::thread::Builder::new()
                        .name("fecim-serve-campaign".into())
                        .spawn(move || {
                            let response =
                                match campaign::run_campaign(&shared.scheduler, &spec, &options) {
                                    Ok(outcome) => ResponseLine::Campaign { id, outcome },
                                    Err(e) => ResponseLine::Failed {
                                        id,
                                        error: e.to_string(),
                                    },
                                };
                            send_settled(&writer, &response, &settled);
                        })
                        // audit:allow(panic-path): thread spawn fails only on OS resource exhaustion; the id is already burned in `submitted`, so limping on would silently swallow the campaign's response
                        .expect("spawn campaign thread"),
                );
            }
            RequestLine::Cancel { id } => match registry.get(&id) {
                // The job's terminal line (Cancelled, or Completed if
                // the cancel lost the race) is the response.
                Some(Submitted::Live(handle)) => {
                    handle.cancel();
                }
                // That line is already out.
                Some(Submitted::Settled(..)) => {}
                None => send(
                    &writer,
                    &ResponseLine::Failed {
                        error: format!("cancel for unknown id `{id}`"),
                        id,
                    },
                ),
            },
            RequestLine::Status { id } => {
                let response = match registry.get(&id) {
                    Some(Submitted::Live(handle)) => ResponseLine::Status {
                        id,
                        status: handle.status(),
                    },
                    Some(&Submitted::Settled(status, _)) => ResponseLine::Status { id, status },
                    None => ResponseLine::Failed {
                        error: format!("status for unknown id `{id}`"),
                        id,
                    },
                };
                send(&writer, &response);
            }
            RequestLine::Progress { id } => {
                let response = match registry.get(&id) {
                    Some(Submitted::Live(handle)) => ResponseLine::Progress {
                        id,
                        progress: handle.progress(),
                    },
                    Some(&Submitted::Settled(_, progress)) => {
                        ResponseLine::Progress { id, progress }
                    }
                    None => ResponseLine::Failed {
                        error: format!("progress for unknown id `{id}`"),
                        id,
                    },
                };
                send(&writer, &response);
            }
        }
    }
    // Client closed its write side (or the connection died): deliver
    // what is still in flight, then let the socket close.
    for waiter in waiters.into_values() {
        let _ = waiter.join();
    }
    // Drop the shutdown registry's clone along with the locals below,
    // so the last fd closes here and the peer sees EOF now, not at
    // server shutdown.
    lock(&shared.socks).remove(&conn_id);
}

/// Drive a server as a client: send every request line of `input`,
/// half-close the write side, and copy response lines to `output` until
/// the server closes the connection (which it does once every job
/// submitted on it has been answered). Returns the number of response
/// lines received.
///
/// # Errors
///
/// Connection and i/o errors; response *content* is not validated
/// (pipe the output through [`check_responses_against`] for that).
///
/// [`check_responses_against`]: crate::check_responses_against
pub fn drive(
    addr: impl ToSocketAddrs,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<usize> {
    let requests: Vec<String> = input.lines().collect::<Result<_, _>>()?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut write_half = BufWriter::new(stream.try_clone()?);
    // Writer thread + reader loop, so a server streaming large
    // responses early can never deadlock against an unread send buffer.
    let sender = std::thread::spawn(move || -> std::io::Result<()> {
        for request in requests {
            writeln!(write_half, "{request}")?;
        }
        write_half.flush()?;
        write_half.get_ref().shutdown(std::net::Shutdown::Write)
    });
    let mut received = 0usize;
    for line in BufReader::new(stream).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(output, "{line}")?;
        received += 1;
    }
    sender
        .join()
        .map_err(|_| std::io::Error::other("request sender thread panicked"))??;
    Ok(received)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubmitOptions;
    use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};

    fn ring(n: usize, iterations: usize, trials: usize) -> SolveRequest {
        SolveRequest::new(
            ProblemSpec::MaxCut {
                vertices: n,
                edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
            },
            SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1)),
        )
        .with_run(RunPlan::Ensemble {
            trials,
            base_seed: 3,
            threads: None,
        })
    }

    fn submit(id: &str, request: SolveRequest) -> RequestLine {
        RequestLine::Submit {
            id: id.into(),
            request,
            options: SubmitOptions::default(),
        }
    }

    /// A client of one connection: request lines out, response lines in.
    struct Client {
        out: TcpStream,
        lines: std::io::Lines<BufReader<TcpStream>>,
    }

    impl Client {
        fn send(&mut self, line: &RequestLine) {
            let json = serde_json::to_string(line).unwrap();
            self.out.write_all(format!("{json}\n").as_bytes()).unwrap();
        }

        fn recv(&mut self) -> String {
            self.lines.next().unwrap().unwrap()
        }

        fn recv_terminal(&mut self, count: usize) -> HashMap<String, ResponseLine> {
            (0..count)
                .map(|_| {
                    let line: ResponseLine = serde_json::from_str(&self.recv()).unwrap();
                    (line.id().to_string(), line)
                })
                .collect()
        }
    }

    #[test]
    fn settled_jobs_answer_queries_as_before_and_are_dropped() {
        // One worker, paused until every job is queued, so the test can
        // take a weak reference to each job before it runs.
        let config = TcpServerConfig {
            scheduler: SchedulerConfig {
                paused: true,
                ..SchedulerConfig::workers(1)
            },
            max_open_jobs: None,
        };
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut client = Client {
            out: stream.try_clone().unwrap(),
            lines: BufReader::new(stream).lines(),
        };
        client.send(&submit("a", ring(10, 200, 2)));
        client.send(&submit("b", ring(12, 200, 1)));
        client.send(&submit("c", ring(12, 200, 3)));
        client.send(&RequestLine::Status { id: "a".into() });
        let queued = ResponseLine::Status {
            id: "a".into(),
            status: JobStatus::Queued,
        };
        assert_eq!(client.recv(), serde_json::to_string(&queued).unwrap());
        let jobs = server.shared.scheduler.open_job_refs();
        assert_eq!(jobs.len(), 3);

        // `c` is cancelled before it runs: the cancel settles it at once,
        // and its terminal line races the answer to a query about it.
        client.send(&RequestLine::Cancel { id: "c".into() });
        client.send(&RequestLine::Status { id: "c".into() });
        let cancelled = ResponseLine::Status {
            id: "c".into(),
            status: JobStatus::Cancelled,
        };
        let mut lines = [client.recv(), client.recv()];
        lines.sort_by_key(|line| *line != serde_json::to_string(&cancelled).unwrap());
        assert_eq!(lines[0], serde_json::to_string(&cancelled).unwrap());
        let terminal: ResponseLine = serde_json::from_str(&lines[1]).unwrap();
        assert!(matches!(terminal, ResponseLine::Cancelled { ref id, .. } if id == "c"));

        // `a` and `b` complete.
        server.shared.scheduler.resume();
        let terminal = client.recv_terminal(2);
        let ResponseLine::Completed { response, .. } = &terminal["a"] else {
            panic!("a completes: {:?}", terminal["a"]);
        };
        let best_a = response
            .reports
            .iter()
            .map(|r| r.best_energy)
            .reduce(f64::min);
        let ResponseLine::Completed { response, .. } = &terminal["b"] else {
            panic!("b completes: {:?}", terminal["b"]);
        };
        let best_b = Some(response.reports[0].best_energy);

        // The one worker runs `z` only after it let go of the others, and
        // `z`'s line is written only after their waiters reported, so the
        // next request line finds every report.
        client.send(&submit("z", ring(8, 50, 1)));
        assert!(matches!(
            client.recv_terminal(1)["z"],
            ResponseLine::Completed { .. }
        ));

        let progress = |done, total, best_energy| JobProgress {
            trials_completed: done,
            trials_total: total,
            in_flight: 0,
            best_energy,
        };
        let asked_and_answered = [
            (
                RequestLine::Status { id: "a".into() },
                Some(ResponseLine::Status {
                    id: "a".into(),
                    status: JobStatus::Completed,
                }),
            ),
            (
                RequestLine::Progress { id: "a".into() },
                Some(ResponseLine::Progress {
                    id: "a".into(),
                    progress: progress(2, 2, best_a),
                }),
            ),
            // A cancel of a settled job answers nothing.
            (RequestLine::Cancel { id: "a".into() }, None),
            (
                submit("a", ring(10, 200, 2)),
                Some(ResponseLine::Failed {
                    id: "a".into(),
                    error: "duplicate submission id `a`".into(),
                }),
            ),
            (
                RequestLine::Progress { id: "b".into() },
                Some(ResponseLine::Progress {
                    id: "b".into(),
                    progress: progress(1, 1, best_b),
                }),
            ),
            (
                RequestLine::Status { id: "c".into() },
                Some(ResponseLine::Status {
                    id: "c".into(),
                    status: JobStatus::Cancelled,
                }),
            ),
            (
                RequestLine::Progress { id: "c".into() },
                Some(ResponseLine::Progress {
                    id: "c".into(),
                    progress: progress(0, 3, None),
                }),
            ),
            (RequestLine::Cancel { id: "c".into() }, None),
            (
                RequestLine::Status { id: "b".into() },
                Some(ResponseLine::Status {
                    id: "b".into(),
                    status: JobStatus::Completed,
                }),
            ),
        ];
        for (request, _) in &asked_and_answered {
            client.send(request);
        }
        for (request, answer) in asked_and_answered {
            if let Some(answer) = answer {
                let want = serde_json::to_string(&answer).unwrap();
                assert_eq!(client.recv(), want, "answer to {request:?}");
            }
        }
        // Nothing holds the settled jobs any more: not the connection,
        // not their joined waiters, not the worker or the queue.
        for (job, id) in jobs.iter().zip(["a", "b", "c"]) {
            assert!(job.upgrade().is_none(), "job `{id}` is still held");
        }
        drop(client);
        server.shutdown();
    }
}
