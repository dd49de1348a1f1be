//! The [`Scheduler`]: a worker pool draining a priority queue of
//! [`SolveRequest`]s, one *trial* at a time.
//!
//! ## Execution model
//!
//! The unit of work is a single seeded trial, not a whole request. A
//! worker repeatedly pops the highest-priority job with unclaimed
//! trials, claims the next trial, and — because every trial derives all
//! of its randomness from `base_seed + trial` — produces exactly the
//! report [`Session::run`] would, regardless of which worker runs it,
//! when, or what else is running. That is the determinism contract:
//! with any fixed worker count, scheduled results are bit-identical to
//! `Session::run` of the same requests (pinned by the `scheduler_api`
//! tests at 1 and 8 workers). It holds in *every* fidelity: each
//! batched trial programs its own array from the trial seed
//! ([`CrossbarConfig::for_trial`]), so live-grid placement and
//! admission order never leak into results.
//!
//! Trial granularity is also what makes priorities responsive: a
//! higher-priority submission preempts a long ensemble at its next
//! trial boundary (no trial is ever aborted mid-anneal), and
//! cancellation and deadline enforcement take effect the same way — a
//! job whose `deadline_ms` elapses mid-ensemble stops claiming trials
//! and finalizes as
//! [`JobStatus::DeadlineExceeded`](crate::JobStatus::DeadlineExceeded)
//! with the completed prefix as a partial response.
//!
//! ## Durability
//!
//! With [`SchedulerConfig::with_journal`], every lifecycle transition
//! is appended to a JSONL journal and [`Scheduler::recover`] replays a
//! crashed run's unfinished jobs — bit-identically, thanks to the
//! per-trial seed discipline (see [`crate::journal`]).
//!
//! ## Live-grid admission
//!
//! Trials of [`BackendPlan::Batched`](fecim::BackendPlan::Batched)
//! jobs run as replicas on shared grids (one [`TileGrid`] per tile
//! height). Each trial reserves its stripe span right before annealing
//! and retires it right after, so heterogeneous jobs pack
//! block-diagonally onto one grid and queued jobs slide into freed
//! stripe spans as replicas finish — the grid stays saturated instead
//! of waiting for cohort barriers. The grid only allocates spans: the
//! trial programs and reads its own array on the worker with no lock
//! held, and hands its activity back at retirement.
//!
//! [`TileGrid`]: fecim_crossbar::TileGrid

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use fecim::{Session, SessionError, SolveReport, SolveRequest};
use fecim_crossbar::{ActivityStats, CrossbarConfig};

use crate::grid::{Admission, GridPool, LiveGridStats};
use crate::job::{Job, JobHandle, JobState, JobStatus, SchedulerError, SubmitOptions};
use crate::journal::{self, Journal, JournalError, JournalRecord, RecoveredJob};

/// Lock a mutex, surviving peers that panicked while holding it (jobs
/// and queues are plain data — a poisoned guard is still consistent).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads draining the queue (≥ 1).
    pub workers: usize,
    /// Stripe capacity of each live grid: how many column stripes a
    /// shared grid may span before admissions start waiting. Bounds the
    /// simulated silicon the scheduler may occupy per tile height.
    pub grid_stripes: usize,
    /// Crossbar override for device-backed requests (the
    /// [`Session::with_crossbar`] setting); `None` = paper defaults.
    pub crossbar: Option<CrossbarConfig>,
    /// Start with workers idle; submissions queue up until
    /// [`Scheduler::resume`]. Lets a client stage a whole batch (and
    /// cancellations) before execution starts — the JSONL front-end and
    /// the deterministic tests rely on it.
    pub paused: bool,
    /// Append-only job journal path; every submit / start /
    /// trial-complete / cancel / finalize transition is recorded so
    /// [`Scheduler::recover`] can replay unfinished jobs after a crash.
    /// `None` = no durability.
    pub journal: Option<PathBuf>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: 2,
            grid_stripes: 64,
            crossbar: None,
            paused: false,
            journal: None,
        }
    }
}

impl SchedulerConfig {
    /// Config with the given worker count.
    pub fn workers(workers: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            ..SchedulerConfig::default()
        }
    }

    /// Set the per-grid stripe capacity.
    pub fn with_grid_stripes(mut self, grid_stripes: usize) -> SchedulerConfig {
        self.grid_stripes = grid_stripes;
        self
    }

    /// Override the crossbar configuration of device-backed requests.
    pub fn with_crossbar(mut self, config: CrossbarConfig) -> SchedulerConfig {
        self.crossbar = Some(config);
        self
    }

    /// Start paused (see [`SchedulerConfig::paused`]).
    pub fn start_paused(mut self) -> SchedulerConfig {
        self.paused = true;
        self
    }

    /// Journal every job transition to the append-only file at `path`
    /// (see [`SchedulerConfig::journal`]).
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> SchedulerConfig {
        self.journal = Some(path.into());
        self
    }
}

/// Queue entry ordering: priority desc, then deadline asc (absent
/// deadlines last), then submission order. `BinaryHeap` pops the
/// maximum, so "greater" means "runs first".
struct QueueEntry {
    job: Arc<Job>,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &QueueEntry) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &QueueEntry) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &QueueEntry) -> CmpOrdering {
        self.job
            .priority
            .cmp(&other.job.priority)
            .then_with(|| match (self.job.deadline, other.job.deadline) {
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => CmpOrdering::Greater,
                (None, Some(_)) => CmpOrdering::Less,
                (None, None) => CmpOrdering::Equal,
            })
            .then_with(|| other.job.id.cmp(&self.job.id))
    }
}

enum Mode {
    /// Accepting and executing work.
    Running,
    /// `join()` called: finish everything queued, then exit.
    Draining,
    /// Dropped: exit after the current trial.
    Abort,
}

struct QueueState {
    heap: BinaryHeap<QueueEntry>,
    /// Jobs submitted but not yet finalized (includes parked and
    /// in-flight jobs that have no heap entry right now).
    open_jobs: usize,
    paused: bool,
    mode: Mode,
}

/// Shared scheduler state (workers + handles hold an `Arc` each).
pub(crate) struct Core {
    session: Session,
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    grids: Mutex<GridPool>,
    next_id: AtomicU64,
    /// Global monotone event counter (job starts/finishes) — the
    /// ordinals behind [`JobHandle::started_event`].
    events: AtomicU64,
    /// Jobs submitted and not yet finalized, for shutdown finalization.
    /// Finalize removes entries, so a long-lived scheduler does not
    /// accumulate terminal jobs (clients keep theirs via `JobHandle`).
    /// Ordered map so shutdown finalizes in submission-id order — the
    /// `finished_event` ordinals of aborted jobs are deterministic.
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    /// Durable job journal (leaf lock: appended to under job/queue
    /// locks, never the reverse).
    journal: Option<Journal>,
}

impl Core {
    fn next_event(&self) -> u64 {
        self.events.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Finalize under the job's state lock: record the outcome, stamp
    /// the event ordinal, wake waiters, and release the job's slot in
    /// the open-job count. (Lock order: `job.state` may be held while
    /// taking `queue`, never the reverse.)
    fn finalize(
        &self,
        job: &Job,
        st: &mut JobState,
        status: JobStatus,
        outcome: Result<fecim::SolveResponse, SchedulerError>,
    ) {
        debug_assert!(st.outcome.is_none(), "finalize must run once");
        // A shutdown abort is deliberately NOT journaled as terminal:
        // the whole point of the journal is that those jobs replay.
        if !matches!(&outcome, Err(SchedulerError::Shutdown)) {
            self.journal(&JournalRecord::Finalized {
                job: job.id,
                status,
            });
        }
        st.status = status;
        st.finished_event = Some(self.next_event());
        st.outcome = Some(outcome);
        // A terminal job never runs another trial, and handles outlive it
        // (a TCP connection keeps one per id), so drop the programmed job
        // now. In-flight sibling trials hold their own `Arc` and still
        // write `st.reports`, so the reports stay.
        st.prepared = None;
        job.done_cv.notify_all();
        let mut q = lock(&self.queue);
        q.open_jobs -= 1;
        drop(q);
        lock(&self.jobs).remove(&job.id);
        self.work_cv.notify_all();
    }

    fn journal(&self, record: &JournalRecord) {
        if let Some(journal) = &self.journal {
            journal.append(record);
        }
    }

    /// Response over the trials that completed before a cancellation or
    /// deadline stopped the job (`None` when none did).
    fn partial_response(st: &JobState) -> Option<Box<fecim::SolveResponse>> {
        let prepared = st.prepared.as_ref()?;
        if st.done == 0 {
            return None;
        }
        let reports: Vec<SolveReport> = st.reports.iter().flatten().cloned().collect();
        prepared.finish(reports, Vec::new()).ok().map(Box::new)
    }

    fn finalize_cancelled(&self, job: &Job, st: &mut JobState) {
        let completed = st.done;
        let partial = Self::partial_response(st);
        self.finalize(
            job,
            st,
            JobStatus::Cancelled,
            Err(SchedulerError::Cancelled { completed, partial }),
        );
    }

    /// The deadline twin of [`Core::finalize_cancelled`]: same partial
    /// semantics, distinct terminal status so clients (and the journal)
    /// can tell an explicit cancel from an elapsed deadline.
    fn finalize_deadline(&self, job: &Job, st: &mut JobState) {
        let completed = st.done;
        let partial = Self::partial_response(st);
        self.finalize(
            job,
            st,
            JobStatus::DeadlineExceeded,
            Err(SchedulerError::DeadlineExceeded { completed, partial }),
        );
    }

    /// Settle a job that should stop claiming trials (cancelled or past
    /// its deadline) once nothing is in flight. Explicit cancellation
    /// wins when both apply.
    fn settle_stopped(&self, job: &Job, st: &mut JobState) {
        if st.outcome.is_some() || st.in_flight != 0 {
            return;
        }
        if job.is_cancel_requested() {
            self.finalize_cancelled(job, st);
        } else if job.is_deadline_elapsed() {
            self.finalize_deadline(job, st);
        }
    }

    /// [`JobHandle::cancel`]: flag the job; if nothing is in flight,
    /// finalize immediately (otherwise the last in-flight trial's
    /// completion handler does).
    pub(crate) fn cancel(&self, job: &Arc<Job>) -> bool {
        job.cancel_flag.store(true, Ordering::Relaxed);
        let mut st = lock(&job.state);
        if st.outcome.is_some() {
            return false;
        }
        self.journal(&JournalRecord::CancelRequested { job: job.id });
        if st.in_flight == 0 {
            self.finalize_cancelled(job, &mut st);
        }
        true
    }

    fn requeue(&self, job: Arc<Job>) {
        let mut q = lock(&self.queue);
        q.heap.push(QueueEntry { job });
        drop(q);
        self.work_cv.notify_one();
    }

    /// One scheduling step: claim and run at most one trial of `job`.
    fn process(self: &Arc<Core>, job: Arc<Job>) {
        // Prepare once, under the job lock (peers querying status block
        // briefly; the queue stays untouched).
        let prepared = {
            let mut st = lock(&job.state);
            if st.outcome.is_some() {
                return; // stale heap entry for a finalized job
            }
            if job.is_cancel_requested() || job.is_deadline_elapsed() {
                // Checked before `prepare`, so a job submitted with an
                // already-elapsed deadline never touches a backend.
                self.settle_stopped(&job, &mut st);
                return;
            }
            match &st.prepared {
                Some(prepared) => Arc::clone(prepared),
                None => match self.session.prepare(&job.request) {
                    Ok(prepared) => {
                        st.reports = (0..prepared.trials()).map(|_| None).collect();
                        let prepared = Arc::new(prepared);
                        st.prepared = Some(Arc::clone(&prepared));
                        prepared
                    }
                    Err(e) => {
                        self.finalize(
                            &job,
                            &mut st,
                            JobStatus::Failed,
                            Err(SchedulerError::Rejected(e)),
                        );
                        return;
                    }
                },
            }
        };

        // Batched trials reserve their grid slot before claiming, so a
        // full grid parks the job instead of burning its trial.
        let admission = if let Some(placement) = prepared.batch_placement() {
            // Bind the attempt first: a `match` on the locked pool would
            // keep the guard alive across the arms, and the Impossible
            // arm locks the pool again.
            let attempt = { lock(&self.grids).admit(&job, placement) };
            match attempt {
                Admission::Granted(slot) => Some((placement.0, slot)),
                Admission::Parked => return,
                Admission::Impossible { needed } => {
                    let mut st = lock(&job.state);
                    if st.outcome.is_none() {
                        let limit = lock(&self.grids).stripe_limit();
                        self.finalize(
                            &job,
                            &mut st,
                            JobStatus::Failed,
                            Err(SchedulerError::Rejected(SessionError::InvalidRequest(
                                format!(
                                    "instance needs {needed} stripes but the grid capacity \
                                     is {limit}"
                                ),
                            ))),
                        );
                    }
                    return;
                }
            }
        } else {
            None
        };

        // Claim the next trial. An elapsed deadline blocks the claim —
        // that is the enforcement point: the ensemble stops at the next
        // trial boundary, exactly like a cancellation.
        let claimed = {
            let mut st = lock(&job.state);
            if st.outcome.is_some()
                || job.is_cancel_requested()
                || job.is_deadline_elapsed()
                || st.next_trial >= st.total
            {
                None
            } else {
                let trial = st.next_trial;
                st.next_trial += 1;
                st.in_flight += 1;
                if st.status == JobStatus::Queued {
                    st.status = JobStatus::Running;
                    st.started_event = Some(self.next_event());
                    self.journal(&JournalRecord::Started { job: job.id });
                }
                if st.next_trial < st.total {
                    // More trials to claim: stay in the queue so other
                    // workers pick them up (priority order preserved).
                    self.requeue(Arc::clone(&job));
                }
                Some(trial)
            }
        };
        let Some(trial) = claimed else {
            // Nothing to run: release the unused grid slot and, if a
            // cancellation or deadline raced in, settle it.
            if let Some((tile_rows, slot)) = admission {
                self.retire(tile_rows, slot, &ActivityStats::new());
            }
            let mut st = lock(&job.state);
            self.settle_stopped(&job, &mut st);
            return;
        };

        // Run the trial with no scheduler locks held; a batched trial
        // programs and owns its array here, on the worker.
        let result = prepared.run_trial(trial);
        if let Some((tile_rows, slot)) = admission {
            let activity = result
                .as_ref()
                .ok()
                .and_then(|report| report.run.activity)
                .unwrap_or_default();
            self.retire(tile_rows, slot, &activity);
        }

        // Record the outcome and finalize when the job is settled.
        let mut st = lock(&job.state);
        st.in_flight -= 1;
        match result {
            Ok(report) => {
                st.best_energy = Some(
                    st.best_energy
                        .map_or(report.best_energy, |b| b.min(report.best_energy)),
                );
                st.reports[trial] = Some(report);
                st.done += 1;
                self.journal(&JournalRecord::TrialDone { job: job.id, trial });
            }
            Err(e) => {
                if st.outcome.is_none() {
                    self.finalize(
                        &job,
                        &mut st,
                        JobStatus::Failed,
                        Err(SchedulerError::Rejected(e)),
                    );
                }
                return;
            }
        }
        if st.outcome.is_some() {
            return;
        }
        if st.done == st.total {
            let reports: Vec<SolveReport> = st
                .reports
                .iter_mut()
                // audit:allow(panic-path): st.done == st.total implies every slot is Some; a None here is a trial-accounting bug that must abort loudly, not ship a partial response
                .map(|slot| slot.take().expect("all trials done"))
                .collect();
            match prepared.finish(reports, Vec::new()) {
                Ok(response) => {
                    self.finalize(&job, &mut st, JobStatus::Completed, Ok(response));
                }
                Err(e) => self.finalize(
                    &job,
                    &mut st,
                    JobStatus::Failed,
                    Err(SchedulerError::Rejected(e)),
                ),
            }
        } else {
            self.settle_stopped(&job, &mut st);
        }
    }

    /// Retire a trial's grid slot (on the grid for `tile_rows`) with the
    /// trial's activity and wake every parked job.
    fn retire(&self, tile_rows: usize, slot: usize, activity: &ActivityStats) {
        let waiters = lock(&self.grids).retire(tile_rows, slot, activity);
        for job in waiters {
            self.requeue(job);
        }
    }
}

fn worker_loop(core: Arc<Core>) {
    loop {
        let job = {
            let mut q = lock(&core.queue);
            loop {
                if matches!(q.mode, Mode::Abort) {
                    return;
                }
                if !q.paused {
                    if let Some(entry) = q.heap.pop() {
                        break entry.job;
                    }
                    if matches!(q.mode, Mode::Draining) && q.open_jobs == 0 {
                        return;
                    }
                }
                q = core.work_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        core.process(job);
    }
}

/// The queued execution service: submit [`SolveRequest`]s, get
/// [`JobHandle`]s back, let the worker pool keep the grids saturated.
///
/// ```
/// use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};
/// use fecim_serve::{Scheduler, SchedulerConfig, SubmitOptions};
///
/// let scheduler = Scheduler::with_config(SchedulerConfig::workers(2));
/// let request = SolveRequest::new(
///     ProblemSpec::MaxCut {
///         vertices: 8,
///         edges: (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect(),
///     },
///     SolverSpec::Cim(CimAnnealer::new(800).with_flips(1)),
/// )
/// .with_run(RunPlan::Ensemble { trials: 4, base_seed: 1, threads: None });
/// let job = scheduler.submit(request, SubmitOptions::priority(5));
/// let response = job.wait()?;
/// assert_eq!(response.reports.len(), 4);
/// # Ok::<(), fecim_serve::SchedulerError>(())
/// ```
pub struct Scheduler {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Default for Scheduler {
    fn default() -> Scheduler {
        Scheduler::new()
    }
}

impl Scheduler {
    /// A scheduler with [`SchedulerConfig::default`] (2 workers,
    /// 64-stripe grids, paper-default crossbar, running).
    pub fn new() -> Scheduler {
        Scheduler::with_config(SchedulerConfig::default())
    }

    /// A scheduler with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`, `config.grid_stripes == 0`, or
    /// the configured journal file cannot be opened (use
    /// [`Scheduler::try_with_config`] to handle that as an error).
    pub fn with_config(config: SchedulerConfig) -> Scheduler {
        // audit:allow(panic-path): panicking on journal-open failure is this constructor's documented contract; try_with_config is the fallible path
        Scheduler::try_with_config(config).expect("open the configured journal")
    }

    /// A scheduler with explicit configuration, surfacing journal-open
    /// failures as errors.
    ///
    /// # Errors
    ///
    /// The [`std::io::Error`] of opening `config.journal` for append, or
    /// of spawning a worker thread.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0` or `config.grid_stripes == 0`.
    pub fn try_with_config(config: SchedulerConfig) -> std::io::Result<Scheduler> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.grid_stripes > 0, "need at least one grid stripe");
        let journal = config.journal.as_deref().map(Journal::open).transpose()?;
        let session = match &config.crossbar {
            Some(crossbar) => Session::new().with_crossbar(crossbar.clone()),
            None => Session::new(),
        };
        let core = Arc::new(Core {
            session,
            queue: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                open_jobs: 0,
                paused: config.paused,
                mode: Mode::Running,
            }),
            work_cv: Condvar::new(),
            grids: Mutex::new(GridPool::new(config.grid_stripes)),
            next_id: AtomicU64::new(0),
            events: AtomicU64::new(0),
            jobs: Mutex::new(BTreeMap::new()),
            journal,
        });
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let core = Arc::clone(&core);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fecim-serve-worker-{i}"))
                    .spawn(move || worker_loop(core))?,
            );
        }
        Ok(Scheduler { core, workers })
    }

    /// Queue a request. Returns immediately; validation happens on a
    /// worker, and any error surfaces through [`JobHandle::wait`].
    pub fn submit(&self, request: SolveRequest, options: SubmitOptions) -> JobHandle {
        self.submit_named(None, request, options)
    }

    /// Queue a request under a client-chosen name. The name has no
    /// scheduling meaning — it is recorded in the journal's `Submitted`
    /// record so crash recovery can re-associate replayed jobs with the
    /// ids a wire protocol handed out.
    pub fn submit_named(
        &self,
        name: Option<&str>,
        request: SolveRequest,
        options: SubmitOptions,
    ) -> JobHandle {
        let id = self.core.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        // Journal before the job becomes runnable: a crash right after
        // the client learns its id must still replay the job. The record
        // holds the request while it is written, then hands it on.
        let record = JournalRecord::Submitted {
            job: id,
            name: name.map(str::to_string),
            request,
            options,
        };
        if let Some(journal) = &self.core.journal {
            journal.append(&record);
        }
        let JournalRecord::Submitted {
            request, options, ..
        } = record
        else {
            unreachable!("the record was built as `Submitted` above")
        };
        let job = Arc::new(Job::new(id, request, options));
        lock(&self.core.jobs).insert(id, Arc::clone(&job));
        let mut q = lock(&self.core.queue);
        q.open_jobs += 1;
        q.heap.push(QueueEntry {
            job: Arc::clone(&job),
        });
        drop(q);
        self.core.work_cv.notify_one();
        JobHandle {
            job,
            core: Arc::clone(&self.core),
        }
    }

    /// Replay a crashed run's journal: every job whose `Submitted`
    /// record has no terminal record is resubmitted (original
    /// submission order, original options), and jobs with a
    /// `CancelRequested` on record are cancelled again. Deterministic
    /// seeds make the recovered responses **bit-identical** to the ones
    /// the uncrashed run would have produced.
    ///
    /// Call this on a paused scheduler ([`SchedulerConfig::paused`])
    /// before [`Scheduler::resume`] so replayed cancellations settle
    /// before any trial runs, exactly like the staged JSONL front-end.
    /// If this scheduler journals (typically to the same file), each
    /// resubmission appends a `Superseded` record, so recovering twice
    /// — or crashing again mid-recovery — never duplicates finished
    /// work. Replayed jobs are assigned ids strictly greater than any
    /// id in the journal being recovered, so a `Superseded` record can
    /// never name a replayed job: a crash between a resubmission and
    /// its `Superseded` record degrades to duplicate work on the next
    /// recovery, never to a lost job.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the journal cannot be read and
    /// [`JournalError::Corrupt`] when a non-final line does not parse
    /// (a torn final line is tolerated as the crash's interrupted
    /// write).
    pub fn recover(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Vec<RecoveredJob>, JournalError> {
        let records = journal::read_journal(path)?;
        // Replayed jobs must never reuse a crashed run's id: this
        // scheduler's ids also start at 1, so without reseeding, the
        // replay of crashed job 1 would itself be job 1 and its
        // `Superseded { job: 1, by: 1 }` record would erase BOTH
        // `Submitted` entries from a later replay — a crash before the
        // replayed job finalizes would silently lose it. Seeding past
        // the journal's maximum id makes collisions impossible.
        let max_id = records
            .iter()
            .map(|record| match record {
                JournalRecord::Superseded { job, by } => (*job).max(*by),
                other => other.job(),
            })
            .max()
            .unwrap_or(0);
        self.core.next_id.fetch_max(max_id, Ordering::Relaxed);
        let mut recovered = Vec::new();
        for (crashed_id, name, request, options, cancel_requested) in journal::pending_jobs(records)
        {
            let handle = self.submit_named(name.as_deref(), request, options);
            if let Some(journal) = &self.core.journal {
                journal.append(&JournalRecord::Superseded {
                    job: crashed_id,
                    by: handle.id(),
                });
            }
            if cancel_requested {
                handle.cancel();
            }
            recovered.push(RecoveredJob {
                crashed_id,
                name,
                cancel_requested,
                handle,
            });
        }
        Ok(recovered)
    }

    /// Start executing (no-op unless the scheduler was built paused).
    pub fn resume(&self) {
        lock(&self.core.queue).paused = false;
        self.core.work_cv.notify_all();
    }

    /// Jobs submitted and not yet finalized.
    pub fn open_jobs(&self) -> usize {
        lock(&self.core.queue).open_jobs
    }

    /// Weak references to the jobs submitted and not yet finalized, in
    /// id order, so a test can see when the last holder drops a job.
    #[cfg(test)]
    pub(crate) fn open_job_refs(&self) -> Vec<std::sync::Weak<Job>> {
        lock(&self.core.jobs).values().map(Arc::downgrade).collect()
    }

    /// Statistics of every live grid, smallest tile height first.
    pub fn grid_stats(&self) -> Vec<LiveGridStats> {
        lock(&self.core.grids).stats()
    }

    /// Drain gracefully: resume if paused, run every submitted job to a
    /// terminal state, then stop the workers.
    pub fn join(mut self) {
        {
            let mut q = lock(&self.core.queue);
            q.paused = false;
            q.mode = Mode::Draining;
        }
        self.core.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    /// Abort: workers stop after their current trial; unfinished jobs
    /// finalize as [`SchedulerError::Shutdown`] so `wait()` never
    /// hangs. Call [`Scheduler::join`] instead for a graceful drain.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // `join()` already drained
        }
        lock(&self.core.queue).mode = Mode::Abort;
        self.core.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Snapshot first: finalize takes the registry lock itself, and a
        // client thread may be cancelling concurrently (lock order is
        // always job.state → registry). The registry is a BTreeMap, so
        // aborted jobs finalize in submission-id order and their
        // `finished_event` ordinals are deterministic.
        let open: Vec<Arc<Job>> = lock(&self.core.jobs).values().cloned().collect();
        for job in open {
            let mut st = lock(&job.state);
            if st.outcome.is_none() {
                self.core.finalize(
                    &job,
                    &mut st,
                    JobStatus::Failed,
                    Err(SchedulerError::Shutdown),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolverSpec};

    fn ring(trials: usize) -> SolveRequest {
        let vertices = 16;
        let edges = (0..vertices)
            .map(|u| (u, (u + 1) % vertices, 1.0))
            .collect();
        SolveRequest::new(
            ProblemSpec::MaxCut { vertices, edges },
            SolverSpec::Cim(CimAnnealer::new(200)),
        )
        .with_run(RunPlan::Ensemble {
            trials,
            base_seed: 3,
            threads: None,
        })
    }

    #[test]
    fn terminal_jobs_hold_no_prepared_job() {
        let scheduler = Scheduler::with_config(SchedulerConfig::workers(1));
        let completed = scheduler.submit(ring(3), SubmitOptions::default());
        assert!(completed.wait().is_ok());
        // Far more trials than fit in the deadline: the job stops with a
        // partial response, which needs the prepared job until finalize.
        let stopped = scheduler.submit(
            ring(100_000),
            SubmitOptions::default().with_deadline_ms(100),
        );
        match stopped.wait() {
            Err(SchedulerError::DeadlineExceeded { partial, .. }) => assert!(partial.is_some()),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        for handle in [&completed, &stopped] {
            assert!(handle.status().is_terminal());
            assert!(lock(&handle.job.state).prepared.is_none());
        }
        scheduler.join();
    }
}
