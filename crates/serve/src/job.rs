//! Jobs and their client-facing handles.
//!
//! A submitted request becomes a [`Job`]: the request, its submit
//! options, and a mutex-guarded [`JobState`] tracking which trials have
//! been claimed, finished, or abandoned. Clients hold [`JobHandle`]s —
//! cheap clones that expose [`status`](JobHandle::status),
//! [`progress`](JobHandle::progress), [`cancel`](JobHandle::cancel) and
//! the blocking [`wait`](JobHandle::wait).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use fecim::{PreparedJob, SessionError, SolveReport, SolveRequest, SolveResponse};

use crate::scheduler::{lock, Core};

/// Submit-time options of a job.
///
/// Priority is the primary scheduling key (higher runs first); the
/// optional deadline is *enforced* at trial granularity — among equal
/// priorities, earlier deadlines run first (EDF), and a job whose
/// deadline elapses mid-ensemble stops after its in-flight trials and
/// finalizes as [`JobStatus::DeadlineExceeded`] with the completed
/// prefix as a partial response (mirroring the cancel path; no trial is
/// ever aborted mid-anneal); tags are free-form labels echoed back
/// through [`JobHandle::tags`] for the client's own bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubmitOptions {
    /// Scheduling priority: higher runs first (default 0).
    pub priority: i64,
    /// Optional enforced deadline, milliseconds from submission; among
    /// equal priorities, earlier deadlines run first, and elapsing
    /// mid-ensemble stops the job after the current trial.
    pub deadline_ms: Option<u64>,
    /// Free-form labels echoed back to the client.
    pub tags: Vec<String>,
}

impl SubmitOptions {
    /// Options with the given priority (deadline unset, no tags).
    pub fn priority(priority: i64) -> SubmitOptions {
        SubmitOptions {
            priority,
            ..SubmitOptions::default()
        }
    }

    /// Set the deadline hint, milliseconds from submission.
    // audit:allow(dead-pub): test seam: the scheduler deadline tests and serde_roundtrips set deadlines through it
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> SubmitOptions {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Append a tag.
    pub fn with_tag(mut self, tag: impl Into<String>) -> SubmitOptions {
        self.tags.push(tag.into());
        self
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Submitted, no trial has started yet.
    Queued,
    /// At least one trial has started.
    Running,
    /// All trials finished; [`JobHandle::wait`] returns the response.
    Completed,
    /// Cancelled before every trial finished; completed trials are
    /// reported as a partial response.
    Cancelled,
    /// The submit-time deadline elapsed before every trial finished;
    /// completed trials are reported as a partial response.
    DeadlineExceeded,
    /// The request was rejected or a trial failed;
    /// [`JobHandle::wait`] returns the error.
    Failed,
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed
                | JobStatus::Cancelled
                | JobStatus::DeadlineExceeded
                | JobStatus::Failed
        )
    }
}

/// Point-in-time progress of a job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobProgress {
    /// Trials that have finished.
    pub trials_completed: usize,
    /// Trials the run plan schedules.
    pub trials_total: usize,
    /// Trials currently executing on workers.
    pub in_flight: usize,
    /// Best exact Ising energy over finished trials (`None` before the
    /// first trial lands).
    pub best_energy: Option<f64>,
}

/// Why [`JobHandle::wait`] did not return a complete response.
#[derive(Debug, Clone)]
pub enum SchedulerError {
    /// The job was cancelled; completed trials (possibly zero) are
    /// summarized in `partial`.
    Cancelled {
        /// Trials that finished before the cancellation took effect.
        completed: usize,
        /// Response over the completed trials (`None` when none
        /// completed or post-processing failed).
        partial: Option<Box<SolveResponse>>,
    },
    /// The job's deadline elapsed before every trial finished;
    /// completed trials (possibly zero) are summarized in `partial`.
    DeadlineExceeded {
        /// Trials that finished before the deadline elapsed.
        completed: usize,
        /// Response over the completed trials (`None` when none
        /// completed or post-processing failed).
        partial: Option<Box<SolveResponse>>,
    },
    /// The request failed validation, preparation, or execution.
    Rejected(SessionError),
    /// The scheduler shut down before the job finished.
    Shutdown,
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::Cancelled { completed, .. } => {
                write!(f, "job cancelled after {completed} completed trials")
            }
            SchedulerError::DeadlineExceeded { completed, .. } => {
                write!(f, "deadline exceeded after {completed} completed trials")
            }
            SchedulerError::Rejected(e) => write!(f, "{e}"),
            SchedulerError::Shutdown => write!(f, "scheduler shut down before the job finished"),
        }
    }
}

impl std::error::Error for SchedulerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedulerError::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

/// One submitted request and its execution state.
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) priority: i64,
    /// Absolute deadline instant (submit time + `deadline_ms`).
    pub(crate) deadline: Option<Instant>,
    pub(crate) tags: Vec<String>,
    pub(crate) request: SolveRequest,
    pub(crate) state: Mutex<JobState>,
    pub(crate) done_cv: Condvar,
    /// Set by [`JobHandle::cancel`]; workers check it before claiming
    /// each trial, so a cancelled ensemble stops between trials.
    pub(crate) cancel_flag: AtomicBool,
}

pub(crate) struct JobState {
    pub(crate) status: JobStatus,
    pub(crate) prepared: Option<Arc<PreparedJob>>,
    /// Next unclaimed trial index.
    pub(crate) next_trial: usize,
    /// Trials currently executing.
    pub(crate) in_flight: usize,
    /// Finished reports, trial-indexed (`None` = not finished).
    pub(crate) reports: Vec<Option<SolveReport>>,
    pub(crate) done: usize,
    pub(crate) total: usize,
    pub(crate) best_energy: Option<f64>,
    /// Event ordinal of the first trial claim.
    pub(crate) started_event: Option<u64>,
    /// Event ordinal of finalization.
    pub(crate) finished_event: Option<u64>,
    /// Terminal outcome; present exactly when `status.is_terminal()`.
    pub(crate) outcome: Option<Result<SolveResponse, SchedulerError>>,
    /// Run once by `Core::finalize` (see [`JobHandle::on_settle`]).
    pub(crate) on_settle: Option<Box<dyn FnOnce() + Send>>,
}

impl Job {
    pub(crate) fn new(id: u64, request: SolveRequest, options: SubmitOptions) -> Job {
        let total = request.run.trials();
        Job {
            id,
            priority: options.priority,
            deadline: options
                .deadline_ms
                // audit:allow(wall-clock): deadline arithmetic is inherently wall-clock; a deadline decides *whether* trials run, never what any trial computes
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            tags: options.tags,
            request,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                prepared: None,
                next_trial: 0,
                in_flight: 0,
                reports: Vec::new(),
                done: 0,
                total,
                best_energy: None,
                started_event: None,
                finished_event: None,
                outcome: None,
                on_settle: None,
            }),
            done_cv: Condvar::new(),
            cancel_flag: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_cancel_requested(&self) -> bool {
        self.cancel_flag.load(Ordering::Relaxed)
    }

    /// Whether the enforced deadline (if any) has already passed.
    /// Checked by workers before claiming each trial, so an elapsed
    /// deadline stops the ensemble at the next trial boundary.
    pub(crate) fn is_deadline_elapsed(&self) -> bool {
        // audit:allow(wall-clock): deadline *enforcement* point; affects which trials run (like a cancel), never the bits any completed trial produces
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Client handle onto a submitted job. Cheap to clone; all methods are
/// safe to call from any thread at any point in the job's lifecycle.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) job: Arc<Job>,
    pub(crate) core: Arc<Core>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.job.id)
            .field("priority", &self.job.priority)
            .field("status", &self.status())
            .finish()
    }
}

impl JobHandle {
    /// Scheduler-assigned job id (submission order).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The job's scheduling priority.
    pub fn priority(&self) -> i64 {
        self.job.priority
    }

    /// The job's submit-time tags.
    pub fn tags(&self) -> &[String] {
        &self.job.tags
    }

    /// The request this job executes.
    pub fn request(&self) -> &SolveRequest {
        &self.job.request
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        lock(&self.job.state).status
    }

    /// Trials completed / total, plus the best energy seen so far.
    pub fn progress(&self) -> JobProgress {
        let st = lock(&self.job.state);
        JobProgress {
            trials_completed: st.done,
            trials_total: st.total,
            in_flight: st.in_flight,
            best_energy: st.best_energy,
        }
    }

    /// Request cancellation. Unstarted trials will not run; in-flight
    /// trials finish and are kept in the partial response. Returns
    /// `false` when the job had already reached a terminal state.
    pub fn cancel(&self) -> bool {
        self.core.cancel(&self.job)
    }

    /// Block until the job reaches a terminal state and return its
    /// outcome (cloned — `wait` can be called repeatedly and from
    /// several threads).
    ///
    /// # Errors
    ///
    /// [`SchedulerError::Cancelled`] (with the partial response),
    /// [`SchedulerError::DeadlineExceeded`] when the submit-time
    /// deadline elapsed mid-run (also with the partial response),
    /// [`SchedulerError::Rejected`] for invalid or failing requests, and
    /// [`SchedulerError::Shutdown`] when the scheduler was dropped
    /// first.
    pub fn wait(&self) -> Result<SolveResponse, SchedulerError> {
        let mut st = lock(&self.job.state);
        loop {
            if let Some(outcome) = &st.outcome {
                return outcome.clone();
            }
            st = self
                .job
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Run `hook` once the job settles: from `Core::finalize` after the
    /// outcome is stored, or now if it already has. It runs under the
    /// job's state lock and must capture no `JobHandle` (the job would
    /// hold itself alive).
    pub(crate) fn on_settle(&self, hook: impl FnOnce() + Send + 'static) {
        let mut st = lock(&self.job.state);
        if st.outcome.is_some() {
            hook();
        } else {
            st.on_settle = Some(Box::new(hook));
        }
    }

    /// The job's terminal outcome if it has one, without blocking.
    pub fn outcome(&self) -> Option<Result<SolveResponse, SchedulerError>> {
        lock(&self.job.state).outcome.clone()
    }

    /// Event ordinal at which the job's first trial was claimed
    /// (`None` while queued). Event ordinals are a scheduler-global
    /// monotone counter — comparable across jobs, which is what the
    /// admission tests and the `queue_sweep` trace rely on.
    pub fn started_event(&self) -> Option<u64> {
        lock(&self.job.state).started_event
    }

    /// Event ordinal at which the job reached its terminal state
    /// (`None` while open).
    pub fn finished_event(&self) -> Option<u64> {
        lock(&self.job.state).finished_event
    }
}
