//! The load generator: a `fecim-serve serve --listen` child process and a
//! closed-loop client over at most two connections.
//!
//! Closed loop: each connection keeps exactly one `Submit` outstanding
//! and sends the next only after that job's terminal line arrives (plus,
//! when asked, one `Status` round trip after each completion). Jobs are
//! handed to connections from one shared cursor, so a pass's jobs are
//! each sent once whatever the interleaving.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fecim_serve::{RequestLine, ResponseLine, SubmitOptions};

use fecim::SolveRequest;

/// A running server process.
#[derive(Debug)]
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawn `bin serve --listen 127.0.0.1:<free port> --workers N
    /// [--journal PATH]` and wait until it accepts a connection. Returns
    /// the server, the first accepted connection and the time from spawn
    /// to that acceptance.
    pub fn spawn(
        bin: &Path,
        workers: usize,
        journal: Option<&Path>,
    ) -> std::io::Result<(Server, TcpStream, Duration)> {
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0")?;
            probe.local_addr()?.port()
        };
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let mut command = Command::new(bin);
        command
            .arg("serve")
            .arg("--listen")
            .arg(addr.to_string())
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(journal) = journal {
            command.arg("--journal").arg(journal);
        }
        let started = Instant::now();
        let child = command.spawn()?;
        let mut server = Server { child, addr };
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok((server, stream, started.elapsed())),
                Err(e) => {
                    if started.elapsed() > Duration::from_secs(20) {
                        server.stop();
                        return Err(e);
                    }
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(std::io::Error::other(format!(
                            "server exited before listening: {status}"
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// A further connection.
    pub fn connect(&self) -> std::io::Result<TcpStream> {
        TcpStream::connect(self.addr)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Kill the process and wait for it to end.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One connection with a line reader.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Wrap a connected stream.
    pub fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }
}

/// The wire lines of one or more passes: `Submit` lines with unique ids.
#[derive(Debug, Clone)]
pub struct PassLines {
    /// Job ids, in offer order.
    pub ids: Vec<String>,
    /// `Submit` lines, in offer order.
    pub submits: Vec<String>,
}

/// Encode `passes` of the jobs, pass after pass, as `Submit` lines with
/// ids `p<pass>-j<index>`.
pub fn pass_lines(jobs: &[SolveRequest], passes: Range<usize>) -> PassLines {
    let ids: Vec<String> = passes
        .flat_map(|pass| (0..jobs.len()).map(move |i| format!("p{pass}-j{i}")))
        .collect();
    let submits = jobs
        .iter()
        .cycle()
        .zip(&ids)
        .map(|(job, id)| {
            serde_json::to_string(&RequestLine::Submit {
                id: id.clone(),
                request: job.clone(),
                options: SubmitOptions::default(),
            })
            .expect("request lines serialize")
        })
        .collect();
    PassLines { ids, submits }
}

/// The `Status` query line for `id`.
pub fn status_line(id: &str) -> String {
    serde_json::to_string(&RequestLine::Status { id: id.to_string() })
        .expect("request lines serialize")
}

/// What one job's exchange produced.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the line within the offered stream.
    pub index: usize,
    /// `Submit` written → terminal line read.
    pub latency: Duration,
    /// Every line read for this job, terminal line first.
    pub lines: Vec<String>,
    /// The terminal line, parsed (`None` if it never came or did not
    /// parse, or answered another id).
    pub terminal: Option<ResponseLine>,
    /// `Status` round trip, when one was sent.
    pub status_rtt: Option<Duration>,
}

/// Offer `lines` in closed loop over `conns` (one thread each); the
/// exchanges come back sorted by line index.
///
/// # Errors
///
/// The first I/O error of any connection.
pub fn run_pass(
    conns: &mut [Conn],
    lines: &PassLines,
    send_status: bool,
) -> std::io::Result<Vec<Exchange>> {
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Exchange>> = Mutex::new(Vec::with_capacity(lines.ids.len()));
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                let results = &results;
                scope.spawn(move || -> std::io::Result<()> {
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= lines.ids.len() {
                            return Ok(());
                        }
                        let exchange = exchange(conn, lines, index, send_status)?;
                        results
                            .lock()
                            .expect("result list is never poisoned")
                            .push(exchange);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread does not panic"))
            .collect::<std::io::Result<Vec<()>>>()
    })?;
    let mut results = results.into_inner().expect("result list is never poisoned");
    results.sort_by_key(|e| e.index);
    Ok(results)
}

fn exchange(
    conn: &mut Conn,
    lines: &PassLines,
    index: usize,
    send_status: bool,
) -> std::io::Result<Exchange> {
    let id = &lines.ids[index];
    let sent = Instant::now();
    conn.send(&lines.submits[index])?;
    // One job is outstanding on this connection, so the next line is its
    // terminal line (a non-terminal or foreign line is a contract error,
    // caught by the checks).
    let first = conn.recv()?;
    let latency = sent.elapsed();
    let terminal = serde_json::from_str::<ResponseLine>(first.trim())
        .ok()
        .filter(|line| line.is_terminal() && line.id() == id);
    let mut received = vec![first];
    let mut status_rtt = None;
    if send_status {
        let query = status_line(id);
        let asked = Instant::now();
        conn.send(&query)?;
        received.push(conn.recv()?);
        status_rtt = Some(asked.elapsed());
    }
    Ok(Exchange {
        index,
        latency,
        lines: received,
        terminal,
        status_rtt,
    })
}

/// A scratch file path under `dir`, unique per process and tag.
pub fn scratch_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("{tag}-{}.jsonl", std::process::id()))
}
