//! The durable job journal: an append-only JSONL file recording every
//! scheduler lifecycle transition, so a crashed server replays its
//! pending and in-flight jobs on restart.
//!
//! ## Format
//!
//! One [`JournalRecord`] per line, externally tagged JSON, appended (and
//! flushed) as the transition happens:
//!
//! ```text
//! {"Submitted":{"job":1,"name":"ring","request":{...},"options":{...}}}
//! {"Started":{"job":1}}
//! {"TrialDone":{"job":1,"trial":0}}
//! {"Finalized":{"job":1,"status":"Completed"}}
//! ```
//!
//! ## Replay semantics
//!
//! [`Scheduler::recover`] reads the journal and resubmits every job
//! whose `Submitted` record has no matching `Finalized` (or
//! `Superseded`) record. Because every trial derives all of its
//! randomness from `base_seed + trial`, the recovered responses are
//! **bit-identical** to the ones an uncrashed run would have produced —
//! `Started`/`TrialDone` records are progress observations, not
//! checkpoints; replay simply re-runs the job from trial zero and
//! recomputes the same bits. A `CancelRequested` record without a
//! `Finalized` replays as an immediate cancellation, and a torn final
//! line (the crash interrupting a write) is tolerated and ignored.
//!
//! Two deliberate non-goals: a [`SchedulerError::Shutdown`] finalization
//! is *not* journaled (an aborted scheduler leaves its open jobs
//! replayable — that is the crash the journal exists for), and
//! deadlines restart from the moment of re-submission (wall-clock
//! deadlines cannot meaningfully survive a crash of unknown duration).
//!
//! [`Scheduler::recover`]: crate::Scheduler::recover
//! [`SchedulerError::Shutdown`]: crate::SchedulerError::Shutdown

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use fecim::SolveRequest;

use crate::job::{JobStatus, SubmitOptions};
use crate::scheduler::lock;

/// One append-only record of the job journal.
// The variants ARE the on-disk format; boxing `Submitted`'s request
// would change nothing on disk and only add indirection in memory.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A job entered the queue.
    Submitted {
        /// Scheduler-assigned job id.
        job: u64,
        /// Client-chosen name (the JSONL front-ends' line id), if any.
        name: Option<String>,
        /// The submitted request.
        request: SolveRequest,
        /// The submit-time options.
        options: SubmitOptions,
    },
    /// The job's first trial was claimed.
    Started {
        /// Scheduler-assigned job id.
        job: u64,
    },
    /// One trial finished.
    TrialDone {
        /// Scheduler-assigned job id.
        job: u64,
        /// Trial index within the ensemble.
        trial: usize,
    },
    /// A client requested cancellation.
    CancelRequested {
        /// Scheduler-assigned job id.
        job: u64,
    },
    /// The job reached a terminal state (never written for
    /// scheduler-shutdown aborts, so those jobs stay replayable).
    Finalized {
        /// Scheduler-assigned job id.
        job: u64,
        /// The terminal status.
        status: JobStatus,
    },
    /// Recovery resubmitted this job under a new id; the old id is
    /// terminal for every later replay.
    Superseded {
        /// The crashed run's job id.
        job: u64,
        /// The replaying run's job id.
        by: u64,
    },
}

impl JournalRecord {
    /// The job id this record concerns.
    pub fn job(&self) -> u64 {
        match self {
            JournalRecord::Submitted { job, .. }
            | JournalRecord::Started { job }
            | JournalRecord::TrialDone { job, .. }
            | JournalRecord::CancelRequested { job }
            | JournalRecord::Finalized { job, .. }
            | JournalRecord::Superseded { job, .. } => *job,
        }
    }
}

/// Error of a journal read or replay.
#[derive(Debug)]
pub enum JournalError {
    /// Opening, reading, or appending the journal file failed.
    Io(std::io::Error),
    /// A non-final line was not a valid [`JournalRecord`] (a torn
    /// *final* line is tolerated as the crash's interrupted write).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// The append side: a mutex-guarded file every lifecycle transition is
/// written (and flushed) to. The mutex is a leaf lock — appends happen
/// under job/queue locks, never the reverse.
pub(crate) struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Open (or create) the journal at `path` for appending.
    pub(crate) fn open(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Append one record, newline included, to the OS in one write — a
    /// crash after `append` returns never loses the record, and a crash
    /// mid-append cannot leave a whole record without its newline.
    pub(crate) fn append(&self, record: &JournalRecord) {
        // audit:allow(panic-path): JournalRecord is plain structs/enums of serializable fields — no maps with non-string keys, no NaN-able floats in keys — so serialization is infallible by construction
        let mut line = serde_json::to_string(record).expect("journal records serialize");
        line.push('\n');
        // Journal writes are best-effort durability: an un-writable
        // journal must not take down in-flight solves, so failures are
        // reported on stderr instead of panicking a worker.
        if let Err(e) = lock(&self.file).write_all(line.as_bytes()) {
            eprintln!("fecim-serve: journal append failed: {e}");
        }
    }
}

/// Read every record of the journal at `path`.
///
/// A torn final line — the crash interrupting an append — is ignored;
/// corruption anywhere else is an error.
///
/// # Errors
///
/// [`JournalError::Io`] when the file cannot be opened or read, and
/// [`JournalError::Corrupt`] when a non-final line does not parse.
pub fn read_journal(path: impl AsRef<Path>) -> Result<Vec<JournalRecord>, JournalError> {
    let reader = BufReader::new(File::open(path.as_ref())?);
    let lines: Vec<String> = reader.lines().collect::<Result<_, _>>()?;
    let mut records = Vec::new();
    for (line_no, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match serde_json::from_str::<JournalRecord>(trimmed) {
            Ok(record) => records.push(record),
            Err(_) if line_no + 1 == lines.len() => break, // torn tail
            Err(e) => {
                return Err(JournalError::Corrupt {
                    line: line_no + 1,
                    message: e.to_string(),
                })
            }
        }
    }
    Ok(records)
}

/// Compact a journal's records: drop every record of *settled*
/// lifecycles — a [`JournalRecord::Submitted`] closed by a matching
/// [`JournalRecord::Finalized`] or [`JournalRecord::Superseded`] —
/// keeping everything else in its original order.
///
/// Settlement is tracked per *lifecycle*, not per bare job id: a
/// journal appended to by successive server runs reuses ids (each run
/// counts from 1 unless it recovered first), so a `Finalized` must
/// only erase the records back to its matching `Submitted`, never a
/// later submission that happens to share the id. Terminal records
/// with no open lifecycle, like a `CancelRequested` with no pending
/// submission, are replay no-ops and compact away too.
///
/// Replay ([`Scheduler::recover`](crate::Scheduler::recover)) acts only
/// on submissions without a terminal record, and a settled lifecycle's
/// records can never influence another job's replay, so recovery from
/// the compacted journal is **bit-identical** to recovery from the
/// original. Compaction exists purely to bound the append-only file's
/// growth; the `fecim-serve journal compact <in> <out>` subcommand
/// wraps this.
pub fn compact_records(records: Vec<JournalRecord>) -> Vec<JournalRecord> {
    use std::collections::{HashMap, HashSet};
    // `open` maps a job id to its currently-open lifecycle ordinal;
    // every record is tagged with the lifecycle it belongs to, then the
    // settled lifecycles are filtered out in one pass.
    let mut open: HashMap<u64, usize> = HashMap::new();
    let mut ordinals: HashMap<u64, usize> = HashMap::new();
    let mut settled: HashSet<(u64, usize)> = HashSet::new();
    let mut tagged: Vec<(Option<(u64, usize)>, JournalRecord)> = Vec::new();
    for record in records {
        let job = record.job();
        match &record {
            JournalRecord::Submitted { .. } => {
                let ordinal = ordinals.entry(job).or_insert(0);
                *ordinal += 1;
                open.insert(job, *ordinal);
                tagged.push((Some((job, *ordinal)), record));
            }
            JournalRecord::Finalized { .. } | JournalRecord::Superseded { .. } => {
                // Settles the open lifecycle (and is dropped with it);
                // with no open lifecycle it is a replay no-op.
                if let Some(ordinal) = open.remove(&job) {
                    settled.insert((job, ordinal));
                }
            }
            _ => tagged.push((open.get(&job).map(|ordinal| (job, *ordinal)), record)),
        }
    }
    tagged
        .into_iter()
        .filter(|(tag, _)| !tag.is_some_and(|key| settled.contains(&key)))
        .map(|(_, record)| record)
        .collect()
}

/// A job a crashed run left unfinished, as replayed by
/// [`Scheduler::recover`](crate::Scheduler::recover).
#[derive(Debug)]
pub struct RecoveredJob {
    /// The crashed run's job id.
    pub crashed_id: u64,
    /// The client-chosen name recorded at the original submission.
    pub name: Option<String>,
    /// Whether the crashed run had a cancellation on record (the
    /// replayed job is cancelled again before it runs).
    pub cancel_requested: bool,
    /// The replaying run's handle onto the resubmitted job.
    pub handle: crate::JobHandle,
}

/// The replay-relevant distillation of a journal: every submission
/// without a terminal record, in original submission order.
pub(crate) fn pending_jobs(
    records: Vec<JournalRecord>,
) -> Vec<(u64, Option<String>, SolveRequest, SubmitOptions, bool)> {
    let mut pending: Vec<(u64, Option<String>, SolveRequest, SubmitOptions, bool)> = Vec::new();
    for record in records {
        match record {
            JournalRecord::Submitted {
                job,
                name,
                request,
                options,
            } => pending.push((job, name, request, options, false)),
            JournalRecord::CancelRequested { job } => {
                if let Some(entry) = pending.iter_mut().find(|(id, ..)| *id == job) {
                    entry.4 = true;
                }
            }
            JournalRecord::Finalized { job, .. } | JournalRecord::Superseded { job, .. } => {
                pending.retain(|(id, ..)| *id != job);
            }
            JournalRecord::Started { .. } | JournalRecord::TrialDone { .. } => {}
        }
    }
    pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim::{CimAnnealer, ProblemSpec, SolveRequest, SolverSpec};

    fn submitted(job: u64) -> JournalRecord {
        JournalRecord::Submitted {
            job,
            name: Some(format!("job-{job}")),
            request: SolveRequest::new(
                ProblemSpec::MaxCut {
                    vertices: 4,
                    edges: vec![(0, 1, 1.0), (1, 2, 1.0)],
                },
                SolverSpec::Cim(CimAnnealer::new(10)),
            ),
            options: SubmitOptions::default(),
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            submitted(1),
            submitted(2),
            JournalRecord::Started { job: 1 },
            JournalRecord::TrialDone { job: 1, trial: 0 },
            JournalRecord::Finalized {
                job: 1,
                status: JobStatus::Completed,
            },
            submitted(3),
            JournalRecord::CancelRequested { job: 3 },
            JournalRecord::Started { job: 2 },
            JournalRecord::Superseded { job: 2, by: 4 },
            submitted(4),
        ]
    }

    #[test]
    fn compaction_drops_exactly_the_settled_jobs() {
        let compacted = compact_records(sample_records());
        assert!(compacted.iter().all(|r| r.job() != 1 && r.job() != 2));
        let jobs: Vec<u64> = compacted.iter().map(JournalRecord::job).collect();
        // Unsettled jobs keep every record, in original order.
        assert_eq!(jobs, vec![3, 3, 4]);
        assert!(matches!(
            compacted[1],
            JournalRecord::CancelRequested { .. }
        ));
    }

    #[test]
    fn compaction_preserves_the_replay_distillation() {
        let original = pending_jobs(sample_records());
        let compacted = pending_jobs(compact_records(sample_records()));
        assert_eq!(compacted.len(), original.len());
        for (a, b) in original.iter().zip(&compacted) {
            assert_eq!(a.0, b.0, "job id");
            assert_eq!(a.1, b.1, "name");
            assert_eq!(a.2, b.2, "request");
            assert_eq!(a.4, b.4, "cancel flag");
        }
    }

    #[test]
    fn compaction_survives_job_id_reuse_across_server_runs() {
        // A second server run appending to the same journal without
        // recovering first counts ids from 1 again: the first run's
        // Finalized{1} must not erase the second run's Submitted{1}.
        let records = vec![
            submitted(1),
            JournalRecord::Finalized {
                job: 1,
                status: JobStatus::Completed,
            },
            submitted(1),
            JournalRecord::Started { job: 1 },
        ];
        let compacted = compact_records(records.clone());
        assert_eq!(compacted.len(), 2, "the open second lifecycle survives");
        assert_eq!(compacted[0], records[2]);
        assert_eq!(compacted[1], records[3]);
        assert_eq!(pending_jobs(compacted).len(), 1);
    }

    #[test]
    fn compaction_of_a_fully_settled_journal_is_empty() {
        let records = vec![
            submitted(7),
            JournalRecord::Finalized {
                job: 7,
                status: JobStatus::Cancelled,
            },
        ];
        assert!(compact_records(records).is_empty());
    }
}
