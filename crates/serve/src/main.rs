//! The `fecim-serve` binary: the JSONL protocol over stdin/stdout or a
//! TCP socket, plus journal recovery and response validation.
//!
//! ```text
//! fecim-serve serve --stdin-jsonl [--journal PATH] [--workers N] [--grid-stripes N]
//! fecim-serve serve --listen ADDR [--journal PATH] [--workers N] [--grid-stripes N]
//!                   [--max-open-jobs N]
//! fecim-serve drive --connect ADDR [FILE]
//! fecim-serve recover --journal PATH [--workers N] [--grid-stripes N]
//! fecim-serve journal compact IN OUT
//! fecim-serve check-responses [FILE] [--requests FILE]
//! ```
//!
//! `serve --stdin-jsonl` stages the whole stream and answers in
//! submission order; `serve --listen` streams responses as jobs finish
//! (see [`fecim_serve::jsonl`] and [`fecim_serve::tcp`]). Both accept
//! `--journal PATH`; a listening server additionally *replays* an
//! existing journal's unfinished jobs before accepting connections.
//! `drive` is the matching client: it sends FILE (or stdin) to a
//! server and prints every response line until the server closes the
//! connection. `recover` replays a journal standalone and prints the
//! recovered jobs' terminal response lines in original submission
//! order. `journal compact` rewrites a journal without the records of
//! settled jobs — recovery from the compacted file is bit-identical to
//! recovery from the original, the file is just smaller. `check-responses`
//! re-parses emitted response lines and exits
//! nonzero on syntax errors or double-answered ids; with `--requests`
//! it also flags ids that got no (or a spurious) response.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::time::{Duration, Instant};

use fecim_serve::{
    check_responses, check_responses_against, compact_records, read_journal, run_jsonl,
    terminal_line, JsonlSummary, Scheduler, SchedulerConfig, TcpServer, TcpServerConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: fecim-serve serve --stdin-jsonl [--journal PATH] [--workers N] [--grid-stripes N]\n       \
         fecim-serve serve --listen ADDR [--journal PATH] [--workers N] [--grid-stripes N] [--max-open-jobs N]\n       \
         fecim-serve drive --connect ADDR [FILE]\n       \
         fecim-serve recover --journal PATH [--workers N] [--grid-stripes N]\n       \
         fecim-serve journal compact IN OUT\n       \
         fecim-serve check-responses [FILE] [--requests FILE]"
    );
    std::process::exit(2);
}

fn parse_usize(args: &[String], flag: &str) -> Option<usize> {
    parse_value(args, flag).map(|value| match value.parse::<usize>() {
        Ok(v) if v > 0 => v,
        _ => {
            eprintln!("error: {flag} needs a positive integer (got {value:?})");
            std::process::exit(2);
        }
    })
}

fn parse_value(args: &[String], flag: &str) -> Option<String> {
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            match args.get(i + 1) {
                Some(next) => return Some(next.clone()),
                None => {
                    eprintln!("error: {flag} needs a value");
                    std::process::exit(2);
                }
            }
        }
        if let Some(value) = a.strip_prefix(&format!("{flag}=")) {
            return Some(value.to_string());
        }
    }
    None
}

fn scheduler_config(args: &[String]) -> SchedulerConfig {
    let mut config = SchedulerConfig::default();
    if let Some(workers) = parse_usize(args, "--workers") {
        config.workers = workers;
    }
    if let Some(stripes) = parse_usize(args, "--grid-stripes") {
        config.grid_stripes = stripes;
    }
    if let Some(journal) = parse_value(args, "--journal") {
        config = config.with_journal(journal);
    }
    config
}

/// Flags that take a value, so positional-argument scanning can skip
/// the value token.
const VALUE_FLAGS: &[&str] = &[
    "--workers",
    "--grid-stripes",
    "--journal",
    "--max-open-jobs",
    "--listen",
    "--connect",
    "--requests",
];

/// The positional arguments after the subcommand: not flags, not a
/// flag's value.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut found = Vec::new();
    let mut skip_value = false;
    for a in args.iter().skip(1) {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a.starts_with("--") {
            skip_value = VALUE_FLAGS.contains(&a.as_str()) && !a.contains('=');
            continue;
        }
        found.push(a);
    }
    found
}

/// The first positional argument after the subcommand.
fn positional(args: &[String]) -> Option<&String> {
    positionals(args).into_iter().next()
}

fn open_input(path: Option<&String>) -> Box<dyn BufRead> {
    match path {
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(BufReader::new(file)),
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                std::process::exit(1);
            }
        },
        None => Box::new(BufReader::new(std::io::stdin())),
    }
}

fn serve_stdin(args: &[String]) {
    let config = scheduler_config(args);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match run_jsonl(stdin.lock(), stdout.lock(), config) {
        Ok(summary) => {
            eprintln!(
                "served {} jobs: {} completed, {} cancelled, {} deadline-exceeded, {} failed",
                summary.submitted,
                summary.completed,
                summary.cancelled,
                summary.deadline_exceeded,
                summary.failed
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn serve_listen(args: &[String], addr: &str) {
    let config = TcpServerConfig {
        scheduler: scheduler_config(args),
        max_open_jobs: parse_usize(args, "--max-open-jobs"),
    };
    let server = match TcpServer::bind(addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    if server.recovered_jobs() > 0 {
        eprintln!(
            "fecim-serve: recovered {} unfinished jobs from the journal",
            server.recovered_jobs()
        );
    }
    eprintln!("fecim-serve: listening on {}", server.local_addr());
    // The accept loop owns the process from here; Ctrl-C tears it down.
    loop {
        std::thread::park();
    }
}

fn drive(args: &[String], addr: &str) {
    let mut requests = String::new();
    if let Err(e) = open_input(positional(args)).read_to_string(&mut requests) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // Retry the connect so CI can launch the server in the background
    // without a readiness handshake.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stdout = std::io::stdout();
    loop {
        match fecim_serve::drive(
            addr,
            std::io::Cursor::new(requests.as_bytes()),
            stdout.lock(),
        ) {
            Ok(received) => {
                eprintln!("received {received} response lines");
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                if Instant::now() >= deadline {
                    eprintln!("error: cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn recover(args: &[String]) {
    let Some(journal) = parse_value(args, "--journal") else {
        eprintln!("error: `recover` needs --journal PATH");
        usage();
    };
    let mut config = scheduler_config(args);
    config.paused = true;
    // Recovery appends to the same journal (Superseded + replayed
    // lifecycles), keeping the file authoritative for the next replay.
    config = config.with_journal(&journal);
    let scheduler = match Scheduler::try_with_config(config) {
        Ok(scheduler) => scheduler,
        Err(e) => {
            eprintln!("error: cannot open journal {journal}: {e}");
            std::process::exit(1);
        }
    };
    let recovered = match scheduler.recover(&journal) {
        Ok(recovered) => recovered,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    scheduler.resume();
    let mut summary = JsonlSummary::default();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for job in recovered {
        let id = job
            .name
            .unwrap_or_else(|| format!("job-{}", job.crashed_id));
        let line = terminal_line(id, job.handle.wait(), &mut summary);
        let json = serde_json::to_string(&line).expect("response lines serialize");
        if writeln!(out, "{json}").is_err() {
            std::process::exit(1);
        }
    }
    scheduler.join();
    eprintln!(
        "recovered {} jobs: {} completed, {} cancelled, {} deadline-exceeded, {} failed",
        summary.completed + summary.cancelled + summary.deadline_exceeded + summary.failed,
        summary.completed,
        summary.cancelled,
        summary.deadline_exceeded,
        summary.failed
    );
}

fn journal_compact(args: &[String]) {
    let arguments = positionals(args);
    let (input, output) = match arguments.as_slice() {
        [verb, input, output] if verb.as_str() == "compact" => (input, output),
        _ => {
            eprintln!("error: `journal` needs `compact IN OUT`");
            usage();
        }
    };
    let records = match read_journal(input) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let total = records.len();
    let compacted = compact_records(records);
    let kept = compacted.len();
    let mut file = match std::fs::File::create(output) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("error: cannot create {output}: {e}");
            std::process::exit(1);
        }
    };
    let write = |file: &mut std::fs::File| -> std::io::Result<()> {
        for record in &compacted {
            let json = serde_json::to_string(record).expect("journal records serialize");
            writeln!(file, "{json}")?;
        }
        file.sync_all()
    };
    if let Err(e) = write(&mut file) {
        eprintln!("error: cannot write {output}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "compacted {total} records to {kept} ({} settled-job records dropped)",
        total - kept
    );
}

fn check(args: &[String]) {
    let responses = open_input(positional(args));
    let result = match parse_value(args, "--requests") {
        Some(requests_path) => {
            let requests = open_input(Some(&requests_path));
            check_responses_against(requests, responses)
        }
        None => check_responses(responses),
    };
    match result {
        Ok(lines) => {
            let mut out = std::io::stdout();
            let _ = writeln!(out, "{} response lines parsed", lines.len());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Fix glibc's mmap threshold at 1 MiB for the life of the process, so
/// a job's multi-megabyte buffers are always mapped on their own and go
/// back to the kernel when the job drops them.
///
/// By default glibc moves the threshold as the program runs: freeing a
/// mapped block raises it to that block's size, and the heap trim
/// threshold to twice that (mallopt(3), `M_MMAP_THRESHOLD`). The first
/// dense job's buffers (edge list, coupling and cell store, 2.2–3.4 MB
/// each at n = 896) are mapped. Once it ends, later ones come from the
/// worker thread's heap. Whether their pages go back to the kernel when
/// the job ends then depends on which small blocks the worker's trials
/// hold above them, which is thread timing. On a loaded 2-CPU host the
/// same `mvm_ideal` benchmark requests peaked at 19 MB in some runs and
/// 28 MB in others. Setting the threshold turns the adjustment off: it
/// stays at 1 MiB, and the trim threshold at glibc's 128 KiB default.
/// Smaller blocks stay in the heaps.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
// The workspace's one unsafe code: std has no safe way to set a malloc
// parameter, and the FFI call below is the whole of it.
#[allow(unsafe_code)]
fn fix_mmap_threshold() {
    use std::os::raw::c_int;
    /// `M_MMAP_THRESHOLD` in glibc's `<malloc.h>`.
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` takes two plain integers, touches no memory of
    // ours and is thread-safe (it holds the main arena's lock). A
    // rejected value returns 0 and leaves glibc's default in place.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() {
    fix_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            if let Some(addr) = parse_value(&args, "--listen") {
                serve_listen(&args, &addr);
            } else if args.iter().any(|a| a == "--stdin-jsonl") {
                serve_stdin(&args);
            } else {
                eprintln!("error: `serve` needs --stdin-jsonl or --listen ADDR");
                usage();
            }
        }
        Some("drive") => {
            let Some(addr) = parse_value(&args, "--connect") else {
                eprintln!("error: `drive` needs --connect ADDR");
                usage();
            };
            drive(&args, &addr);
        }
        Some("recover") => recover(&args),
        Some("journal") => journal_compact(&args),
        Some("check-responses") => check(&args),
        _ => usage(),
    }
}
