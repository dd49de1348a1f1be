//! The JSON-lines transport: the wire protocol of `fecim-serve serve
//! --stdin-jsonl`, factored as library functions so tests and future
//! transports (HTTP, a message queue) reuse the exact same semantics —
//! swapping the byte stream is the only change.
//!
//! ## Protocol
//!
//! Input: one [`RequestLine`] per line (externally tagged JSON, blank
//! lines ignored). In the batch transport ([`run_jsonl`], the
//! `--stdin-jsonl` binary mode) all submissions and cancellations are
//! staged into a *paused* scheduler first; execution starts at end of
//! input, and one [`ResponseLine`] per submission is emitted in
//! submission order. That makes a fixture file fully deterministic: a
//! `Cancel` anywhere in the stream reliably beats the worker pool to
//! the job. The streaming TCP transport ([`crate::tcp`]) uses the same
//! line types but executes live and emits responses as jobs finish.
//!
//! ```text
//! {"Submit":{"id":"ring","request":{...SolveRequest...},"options":{"priority":5,"deadline_ms":null,"tags":[]}}}
//! {"Campaign":{"id":"big","spec":{...CampaignSpec...},"options":{"priority":0,"deadline_ms":null,"tags":[]}}}
//! {"Cancel":{"id":"ring"}}
//! {"Status":{"id":"ring"}}
//! {"Progress":{"id":"ring"}}
//! ```
//!
//! `Campaign` lines run a whole multi-round
//! [`CampaignSpec`] (warm-started rounds, optional
//! windowed decomposition) whose sub-jobs go through the same scheduler
//! queue; the answer is a single `Campaign` response line carrying the
//! [`CampaignOutcome`]. In the batch transport
//! campaigns execute *after* every staged `Submit` settles (their rounds
//! are inherently sequential), in stream order; over TCP they run live,
//! concurrently with everything else. Campaign ids share the submission
//! id namespace and cannot be cancelled or queried.
//!
//! Terminal output lines mirror [`JobHandle::wait`]; `Status` and
//! `Progress` answers are point-in-time observations:
//!
//! ```text
//! {"Completed":{"id":"ring","response":{...SolveResponse...}}}
//! {"Campaign":{"id":"big","outcome":{...CampaignOutcome...}}}
//! {"Cancelled":{"id":"ring","completed_trials":0,"partial":null}}
//! {"DeadlineExceeded":{"id":"ring","completed_trials":2,"partial":{...}}}
//! {"Failed":{"id":"ring","error":"invalid request: ..."}}
//! {"Rejected":{"id":"ring","open_jobs":128,"limit":128}}
//! {"Status":{"id":"ring","status":"Running"}}
//! {"Progress":{"id":"ring","progress":{...JobProgress...}}}
//! ```
//!
//! The contract both transports honor: **every actionable input line
//! gets exactly one response** — a duplicate `Submit` id and a `Cancel`
//! / `Status` / `Progress` for an id the stream has not submitted each
//! yield a deterministic `Failed` line instead of silence.
//!
//! [`JobHandle::wait`]: crate::JobHandle::wait

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, Read as _, Write};

use serde::{Deserialize, Serialize};

use fecim::{SolveRequest, SolveResponse};

use crate::campaign::{run_campaign, CampaignOutcome, CampaignSpec};
use crate::job::{JobProgress, JobStatus, SchedulerError, SubmitOptions};
use crate::scheduler::{Scheduler, SchedulerConfig};

/// One input line of the JSONL protocol.
// The variants ARE the wire format; boxing `Submit`'s request would
// change nothing on the wire and only add indirection in memory.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestLine {
    /// Queue a request under a client-chosen id.
    Submit {
        /// Client-chosen job id (must be unique within the stream).
        id: String,
        /// The job to run.
        request: SolveRequest,
        /// Priority/deadline/tags.
        options: SubmitOptions,
    },
    /// Run a multi-round campaign under a client-chosen id (same
    /// namespace as `Submit` ids). Every sub-job the campaign submits
    /// carries `options`. Campaigns cannot be cancelled or queried.
    Campaign {
        /// Client-chosen campaign id (must be unique within the stream).
        id: String,
        /// The campaign to run.
        spec: CampaignSpec,
        /// Priority/deadline/tags of every sub-job.
        options: SubmitOptions,
    },
    /// Cancel a previously submitted id.
    Cancel {
        /// The id to cancel.
        id: String,
    },
    /// Query the lifecycle state of a previously submitted id.
    Status {
        /// The id to query.
        id: String,
    },
    /// Query trial progress of a previously submitted id.
    Progress {
        /// The id to query.
        id: String,
    },
}

/// One output line of the JSONL protocol.
// Same wire-format rationale as `RequestLine` for the inline payloads.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ResponseLine {
    /// The job ran every trial.
    Completed {
        /// The client's id.
        id: String,
        /// The full response.
        response: SolveResponse,
    },
    /// A campaign ran every round.
    Campaign {
        /// The client's id.
        id: String,
        /// Per-round trajectory and the best solution found.
        outcome: CampaignOutcome,
    },
    /// The job was cancelled; completed trials are summarized.
    Cancelled {
        /// The client's id.
        id: String,
        /// Trials that finished before cancellation.
        completed_trials: usize,
        /// Response over the completed trials, if any.
        partial: Option<SolveResponse>,
    },
    /// The job's deadline elapsed mid-run; completed trials are
    /// summarized.
    DeadlineExceeded {
        /// The client's id.
        id: String,
        /// Trials that finished before the deadline elapsed.
        completed_trials: usize,
        /// Response over the completed trials, if any.
        partial: Option<SolveResponse>,
    },
    /// The job (or the line itself) failed.
    Failed {
        /// The client's id (or a synthesized one for unparsable lines).
        id: String,
        /// Human-readable error.
        error: String,
    },
    /// Admission control refused the submission: the scheduler's open
    /// job count is at the transport's limit. The job never entered the
    /// queue — resubmit later.
    Rejected {
        /// The client's id.
        id: String,
        /// Open jobs at the moment of rejection.
        open_jobs: usize,
        /// The admission limit that was hit.
        limit: usize,
    },
    /// Point-in-time answer to a `Status` query.
    Status {
        /// The client's id.
        id: String,
        /// Lifecycle state at the moment of the query.
        status: JobStatus,
    },
    /// Point-in-time answer to a `Progress` query.
    Progress {
        /// The client's id.
        id: String,
        /// Trial progress at the moment of the query.
        progress: JobProgress,
    },
}

impl ResponseLine {
    /// The id this line answers.
    pub fn id(&self) -> &str {
        match self {
            ResponseLine::Completed { id, .. }
            | ResponseLine::Campaign { id, .. }
            | ResponseLine::Cancelled { id, .. }
            | ResponseLine::DeadlineExceeded { id, .. }
            | ResponseLine::Failed { id, .. }
            | ResponseLine::Rejected { id, .. }
            | ResponseLine::Status { id, .. }
            | ResponseLine::Progress { id, .. } => id,
        }
    }

    /// Whether this line settles its id (one terminal line per
    /// actionable input line), as opposed to a `Status`/`Progress`
    /// observation that may repeat.
    pub fn is_terminal(&self) -> bool {
        !matches!(
            self,
            ResponseLine::Status { .. } | ResponseLine::Progress { .. }
        )
    }
}

/// Error of a [`run_jsonl`] / [`check_responses`] call.
#[derive(Debug)]
pub enum JsonlError {
    /// Reading input or writing output failed.
    Io(std::io::Error),
    /// An input line was not valid protocol JSON.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// The response stream violates the protocol contract: an id got
    /// two terminal lines, or (when checked against the request stream)
    /// an expected response never arrived.
    Contract {
        /// Human-readable description of the violation.
        message: String,
    },
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "i/o error: {e}"),
            JsonlError::Parse { line, message } => write!(f, "line {line}: {message}"),
            JsonlError::Contract { message } => write!(f, "protocol contract: {message}"),
        }
    }
}

impl std::error::Error for JsonlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JsonlError::Io(e) => Some(e),
            JsonlError::Parse { .. } | JsonlError::Contract { .. } => None,
        }
    }
}

impl From<std::io::Error> for JsonlError {
    fn from(e: std::io::Error) -> JsonlError {
        JsonlError::Io(e)
    }
}

/// Aggregate outcome of a [`run_jsonl`] stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Submissions read.
    pub submitted: usize,
    /// Jobs that completed every trial.
    pub completed: usize,
    /// Campaigns that ran every round.
    pub campaigns: usize,
    /// Jobs that ended cancelled.
    pub cancelled: usize,
    /// Jobs stopped by their submit-time deadline.
    pub deadline_exceeded: usize,
    /// Jobs (or lines) that failed.
    pub failed: usize,
    /// `Status`/`Progress` queries answered.
    pub observations: usize,
}

/// Longest request line either transport buffers (defined with the
/// request API, which bounds generated specs by it too).
pub use fecim::MAX_REQUEST_LINE_BYTES;

/// One line read by [`read_capped_line`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CappedLine {
    /// The line, without its `\n`.
    Text(String),
    /// The line was longer than the cap; the rest of it was skipped up
    /// to its newline without being buffered.
    TooLong,
}

/// Read the next line of `input`, buffering at most `cap + 1` bytes of
/// it. `Ok(None)` at end of input. Like [`BufRead::lines`], a line that
/// is not UTF-8 is an [`std::io::ErrorKind::InvalidData`] error.
pub(crate) fn read_capped_line(
    input: &mut impl BufRead,
    cap: usize,
) -> std::io::Result<Option<CappedLine>> {
    let mut line = Vec::new();
    // One byte past the cap tells a `cap`-byte line cut at its newline
    // from a longer one.
    let limit = (cap as u64).saturating_add(1);
    if input.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > cap {
        input.skip_until(b'\n')?;
        return Ok(Some(CappedLine::TooLong));
    }
    String::from_utf8(line)
        .map(|text| Some(CappedLine::Text(text)))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// The error message for a request line over [`MAX_REQUEST_LINE_BYTES`].
pub(crate) fn too_long_message() -> String {
    format!("request line exceeds the {MAX_REQUEST_LINE_BYTES}-byte limit")
}

/// Serve one JSONL stream: stage every line into a paused scheduler,
/// execute, and emit one response line per submission in submission
/// order.
///
/// # Errors
///
/// [`JsonlError::Io`] on read/write failures and [`JsonlError::Parse`]
/// when an input line is not valid protocol JSON or is longer than
/// [`MAX_REQUEST_LINE_BYTES`] (malformed *requests* inside a valid line
/// are per-job failures, reported on the job's response line instead).
pub fn run_jsonl(
    mut input: impl BufRead,
    mut output: impl Write,
    config: SchedulerConfig,
) -> Result<JsonlSummary, JsonlError> {
    let scheduler = Scheduler::with_config(SchedulerConfig {
        paused: true,
        ..config
    });
    let mut summary = JsonlSummary::default();
    // (id, handle) in submission order; a duplicate id (of a job or a
    // campaign) has no handle and is answered by a `Failed` line.
    let mut ids: HashSet<String> = HashSet::new();
    let mut jobs: Vec<(String, Option<crate::JobHandle>)> = Vec::new();
    // Campaigns are staged too, but execute only after every staged job
    // settles: their rounds are sequential submit→wait cycles, which
    // would deadlock a paused scheduler and interleave
    // non-deterministically with a running one.
    let mut campaigns: Vec<(String, Option<(CampaignSpec, SubmitOptions)>)> = Vec::new();
    let mut cancels: Vec<String> = Vec::new();
    let mut line_no = 0;
    while let Some(line) = read_capped_line(&mut input, MAX_REQUEST_LINE_BYTES)? {
        line_no += 1;
        let CappedLine::Text(line) = line else {
            return Err(JsonlError::Parse {
                line: line_no,
                message: too_long_message(),
            });
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed: RequestLine = serde_json::from_str(line).map_err(|e| JsonlError::Parse {
            line: line_no,
            message: e.to_string(),
        })?;
        match parsed {
            RequestLine::Submit {
                id,
                request,
                options,
            } => {
                let handle = ids
                    .insert(id.clone())
                    .then(|| scheduler.submit_named(Some(&id), request, options));
                jobs.push((id, handle));
            }
            RequestLine::Campaign { id, spec, options } => {
                let staged = ids.insert(id.clone()).then_some((spec, options));
                campaigns.push((id, staged));
            }
            RequestLine::Cancel { id } => cancels.push(id),
            // Point-in-time queries are answered where they stand in
            // the stream. Staging precedes execution, so in this batch
            // transport the answer is deterministic: `Queued` for ids
            // submitted earlier in the stream, `Failed` otherwise. The
            // streaming TCP transport answers the same lines live.
            RequestLine::Status { id } => {
                let response = match jobs.iter().find(|(existing, _)| existing == &id) {
                    Some((_, Some(handle))) => {
                        summary.observations += 1;
                        ResponseLine::Status {
                            id,
                            status: handle.status(),
                        }
                    }
                    _ => {
                        summary.failed += 1;
                        unknown_id("status", id)
                    }
                };
                write_line(&mut output, &response)?;
            }
            RequestLine::Progress { id } => {
                let response = match jobs.iter().find(|(existing, _)| existing == &id) {
                    Some((_, Some(handle))) => {
                        summary.observations += 1;
                        ResponseLine::Progress {
                            id,
                            progress: handle.progress(),
                        }
                    }
                    _ => {
                        summary.failed += 1;
                        unknown_id("progress", id)
                    }
                };
                write_line(&mut output, &response)?;
            }
        }
    }
    // The whole stream is staged before execution starts, so a cancel
    // applies wherever it appears relative to its submission; only ids
    // the stream never submits are errors.
    let mut errors: Vec<ResponseLine> = Vec::new();
    for id in cancels {
        match jobs.iter().find(|(existing, _)| existing == &id) {
            Some((_, Some(handle))) => {
                handle.cancel();
            }
            _ => errors.push(unknown_id("cancel", id)),
        }
    }

    scheduler.resume();
    summary.submitted = jobs.iter().filter(|(_, h)| h.is_some()).count();
    for (id, handle) in jobs {
        let response = match handle {
            None => {
                summary.failed += 1;
                duplicate_id(id)
            }
            Some(handle) => terminal_line(id, handle.wait(), &mut summary),
        };
        write_line(&mut output, &response)?;
    }
    // Every staged job has settled; now the scheduler is free for the
    // campaigns' own submit→wait rounds, one campaign at a time in
    // stream order (fully deterministic at any worker count).
    for (id, staged) in campaigns {
        let response = match staged {
            None => {
                summary.failed += 1;
                duplicate_id(id)
            }
            Some((spec, options)) => match run_campaign(&scheduler, &spec, &options) {
                Ok(outcome) => {
                    summary.campaigns += 1;
                    ResponseLine::Campaign { id, outcome }
                }
                Err(e) => {
                    summary.failed += 1;
                    ResponseLine::Failed {
                        id,
                        error: e.to_string(),
                    }
                }
            },
        };
        write_line(&mut output, &response)?;
    }
    for error in errors {
        summary.failed += 1;
        write_line(&mut output, &error)?;
    }
    scheduler.join();
    Ok(summary)
}

/// The `Failed` line for a `what` (`cancel`, `status` or `progress`)
/// naming an id its asker never submitted. Shared by both transports.
pub(crate) fn unknown_id(what: &str, id: String) -> ResponseLine {
    ResponseLine::Failed {
        error: format!("{what} for unknown id `{id}`"),
        id,
    }
}

/// The `Failed` line for a reused submission id. Shared by both
/// transports.
pub(crate) fn duplicate_id(id: String) -> ResponseLine {
    ResponseLine::Failed {
        error: format!("duplicate submission id `{id}`"),
        id,
    }
}

fn write_line(output: &mut impl Write, response: &ResponseLine) -> Result<(), JsonlError> {
    // audit:allow(panic-path): ResponseLine is plain structs/enums with string keys throughout, so serialization is infallible by construction
    let json = serde_json::to_string(response).expect("response lines serialize");
    writeln!(output, "{json}")?;
    Ok(())
}

/// Map a [`JobHandle::wait`](crate::JobHandle::wait) outcome to its
/// terminal response line, tallying the summary. Shared by the batch
/// and streaming transports (and the `recover` subcommand) so one job
/// outcome always serializes the same way.
pub fn terminal_line(
    id: String,
    outcome: Result<SolveResponse, SchedulerError>,
    summary: &mut JsonlSummary,
) -> ResponseLine {
    match outcome {
        Ok(response) => {
            summary.completed += 1;
            ResponseLine::Completed { id, response }
        }
        Err(SchedulerError::Cancelled { completed, partial }) => {
            summary.cancelled += 1;
            ResponseLine::Cancelled {
                id,
                completed_trials: completed,
                partial: partial.map(|b| *b),
            }
        }
        Err(SchedulerError::DeadlineExceeded { completed, partial }) => {
            summary.deadline_exceeded += 1;
            ResponseLine::DeadlineExceeded {
                id,
                completed_trials: completed,
                partial: partial.map(|b| *b),
            }
        }
        Err(e) => {
            summary.failed += 1;
            ResponseLine::Failed {
                id,
                error: e.to_string(),
            }
        }
    }
}

/// Validate a response stream: every line must parse as a
/// [`ResponseLine`], and no id may *settle* twice — at most one
/// `Completed`/`Campaign`/`Cancelled`/`DeadlineExceeded` line per id —
/// so the CI
/// smoke catches double-answered jobs, not just syntax errors. Returns
/// the parsed lines.
///
/// `Failed` and `Rejected` lines may legitimately repeat an id without
/// the request stream being wrong (a duplicate `Submit` fails next to
/// the original's response; a backpressure-rejected id may be
/// resubmitted), and `Status`/`Progress` observations always may. To
/// also catch *dropped* responses and spurious failures, validate
/// against the request stream with [`check_responses_against`].
///
/// # Errors
///
/// [`JsonlError::Io`] on read failures, [`JsonlError::Parse`] on the
/// first unparsable line, [`JsonlError::Contract`] on a
/// double-settled id.
pub fn check_responses(input: impl BufRead) -> Result<Vec<ResponseLine>, JsonlError> {
    let lines = parse_responses(input)?;
    // Ordered map: the double-settle error below reports the first
    // offending id deterministically, not in hash order.
    let mut settled: BTreeMap<&str, usize> = BTreeMap::new();
    for line in &lines {
        if matches!(
            line,
            ResponseLine::Completed { .. }
                | ResponseLine::Campaign { .. }
                | ResponseLine::Cancelled { .. }
                | ResponseLine::DeadlineExceeded { .. }
        ) {
            *settled.entry(line.id()).or_default() += 1;
        }
    }
    if let Some((id, count)) = settled.iter().find(|(_, &count)| count > 1) {
        return Err(JsonlError::Contract {
            message: format!("id `{id}` settled by {count} response lines"),
        });
    }
    Ok(lines)
}

/// Validate a response stream *against the request stream that produced
/// it*: beyond [`check_responses`]' parse check, every actionable
/// request line must be answered by exactly one terminal response —
/// each `Submit` (duplicates included: the duplicate's `Failed` line is
/// expected), plus one `Failed` for every `Cancel` whose id the stream
/// never submits and every `Status`/`Progress` whose id no *earlier*
/// line submits (the staged transport resolves cancels against the
/// whole stream, so a forward cancel is answered by its job's terminal
/// line, not a failure). This is what lets the CI smoke catch
/// *dropped* jobs, and it is transport-agnostic: streaming responses
/// arrive in completion order, so only counts per id are checked,
/// never ordering.
///
/// # Errors
///
/// [`JsonlError::Io`] / [`JsonlError::Parse`] as in
/// [`check_responses`], [`JsonlError::Contract`] listing the first
/// missing or over-answered id.
pub fn check_responses_against(
    requests: impl BufRead,
    responses: impl BufRead,
) -> Result<Vec<ResponseLine>, JsonlError> {
    let mut parsed_requests = Vec::new();
    for (line_no, line) in requests.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request: RequestLine =
            serde_json::from_str(trimmed).map_err(|e| JsonlError::Parse {
                line: line_no + 1,
                message: format!("request stream: {e}"),
            })?;
        parsed_requests.push(request);
    }
    let ever_submitted: Vec<&str> = parsed_requests
        .iter()
        .filter_map(|r| match r {
            RequestLine::Submit { id, .. } => Some(id.as_str()),
            _ => None,
        })
        .collect();
    // Expected terminal responses per id, from the request stream.
    let mut expected: BTreeMap<String, usize> = BTreeMap::new();
    let mut submitted_so_far: Vec<&str> = Vec::new();
    for request in &parsed_requests {
        match request {
            RequestLine::Submit { id, .. } => {
                *expected.entry(id.clone()).or_default() += 1;
                submitted_so_far.push(id);
            }
            // A campaign is answered by exactly one terminal line
            // (`Campaign` or `Failed`), but its id is not cancellable or
            // queryable, so it joins neither submitted list.
            RequestLine::Campaign { id, .. } => {
                *expected.entry(id.clone()).or_default() += 1;
            }
            // A cancel for a submitted id (anywhere in the stream — the
            // staged transport applies forward cancels) is answered by
            // that job's terminal line; a cancel for an id the stream
            // never submits gets its own `Failed` line.
            RequestLine::Cancel { id } => {
                if !ever_submitted.contains(&id.as_str()) {
                    *expected.entry(id.clone()).or_default() += 1;
                }
            }
            // Queries on earlier-submitted ids are observations; on
            // unknown ids they fail, in both transports.
            RequestLine::Status { id } | RequestLine::Progress { id } => {
                if !submitted_so_far.contains(&id.as_str()) {
                    *expected.entry(id.clone()).or_default() += 1;
                }
            }
        }
    }
    let lines = parse_responses(responses)?;
    let mut got: BTreeMap<&str, usize> = BTreeMap::new();
    for line in &lines {
        if line.is_terminal() {
            *got.entry(line.id()).or_default() += 1;
        }
    }
    for (id, want) in &expected {
        let have = got.get(id.as_str()).copied().unwrap_or(0);
        if have != *want {
            return Err(JsonlError::Contract {
                message: format!("id `{id}` expected {want} terminal response line(s), got {have}"),
            });
        }
    }
    if let Some((id, count)) = got.iter().find(|(id, _)| !expected.contains_key(**id)) {
        return Err(JsonlError::Contract {
            message: format!("unexpected terminal response id `{id}` ({count} line(s))"),
        });
    }
    Ok(lines)
}

fn parse_responses(input: impl BufRead) -> Result<Vec<ResponseLine>, JsonlError> {
    let mut lines = Vec::new();
    for (line_no, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let parsed: ResponseLine =
            serde_json::from_str(trimmed).map_err(|e| JsonlError::Parse {
                line: line_no + 1,
                message: e.to_string(),
            })?;
        lines.push(parsed);
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line of `input` through [`read_capped_line`], read through
    /// a `capacity`-byte buffer so lines straddle many refills.
    fn read_all(input: &[u8], capacity: usize, cap: usize) -> Vec<CappedLine> {
        let mut reader = std::io::BufReader::with_capacity(capacity, input);
        let mut lines = Vec::new();
        while let Some(line) = read_capped_line(&mut reader, cap).expect("in-memory read") {
            lines.push(line);
        }
        lines
    }

    fn text(s: &str) -> CappedLine {
        CappedLine::Text(s.to_string())
    }

    #[test]
    fn capped_reader_discards_only_the_over_long_lines() {
        let input = b"abcd\nabcde\n\nabcdefghijklmnop\nxy\r\nlast";
        for capacity in [1, 2, 3, 7, 64] {
            assert_eq!(
                read_all(input, capacity, 4),
                vec![
                    text("abcd"),
                    CappedLine::TooLong,
                    text(""),
                    CappedLine::TooLong,
                    text("xy\r"),
                    text("last"),
                ],
                "buffer capacity {capacity}"
            );
        }
    }

    #[test]
    fn capped_reader_handles_end_of_input_and_bad_utf8() {
        assert!(read_all(b"", 8, 4).is_empty());
        assert_eq!(read_all(b"\n", 8, 4), vec![text("")]);
        assert_eq!(read_all(b"toolong", 2, 4), vec![CappedLine::TooLong]);
        let mut reader = std::io::BufReader::new(&b"\xff\xfe\nok\n"[..]);
        let err = read_capped_line(&mut reader, 16).expect_err("not UTF-8");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The bad line was consumed; the stream goes on.
        assert_eq!(
            read_capped_line(&mut reader, 16).expect("next line"),
            Some(text("ok"))
        );
    }
}
