//! # fecim-serve
//!
//! The next-generation execution API of the fecim workspace: a
//! [`Scheduler`] that queues many [`SolveRequest`](fecim::SolveRequest)s,
//! runs them on a worker pool at trial granularity, and keeps shared
//! [`TileGrid`](fecim_crossbar::TileGrid)s saturated by admitting queued
//! jobs into freed stripe spans as
//! replicas finish — the software half of the paper's array-parallelism
//! co-design, applied to heterogeneous traffic.
//!
//! Where [`Session::run`](fecim::Session::run) is a blocking one-shot
//! call, [`Scheduler::submit`] returns a [`JobHandle`] immediately:
//!
//! * [`JobHandle::status`] / [`JobHandle::progress`] — lifecycle and
//!   trials-completed / best-energy-so-far observation;
//! * [`JobHandle::cancel`] — stop between trials, keeping what finished;
//! * [`JobHandle::wait`] — block for the final
//!   [`SolveResponse`](fecim::SolveResponse).
//!
//! ## Determinism
//!
//! Trials derive all randomness from `base_seed + trial`, so at any
//! worker count scheduled results are **bit-identical** to
//! `Session::run` of the same requests — queueing, priorities and
//! live-grid placement change *when and where* a trial runs, never
//! *what it computes*. (The one scheduler-visible difference: responses
//! report live-grid placement through [`Scheduler::grid_stats`] instead
//! of per-chunk [`BatchGridSummary`](fecim::BatchGridSummary)s, whose
//! chunk shapes are a `Session`-only concept.) This holds in every
//! fidelity: in [`Fidelity::DeviceAccurate`](fecim_crossbar::Fidelity)
//! mode a batched trial's variation map follows its trial seed
//! ([`CrossbarConfig::for_trial`](fecim_crossbar::CrossbarConfig::for_trial)),
//! not its grid slot, and read noise is counter-based, so results do
//! not depend on placement.
//!
//! ## Campaigns
//!
//! [`run_campaign`] layers multi-round orchestration on top of the
//! queue: warm-started whole-problem refinement, or qbsolv-style
//! windowed decomposition ([`CampaignSpec::with_decompose`]) that
//! solves beyond-grid-capacity QUBOs as concurrent clamped sub-problems
//! stitched between rounds — deterministic at any worker count.
//!
//! ## Transports
//!
//! The `fecim-serve` binary speaks the [`jsonl`] protocol over two
//! byte streams with identical semantics:
//!
//! * **Batch** — `fecim-serve serve --stdin-jsonl`: the whole stream is
//!   staged on a paused scheduler, responses come back in submission
//!   order ([`run_jsonl`]).
//! * **Streaming TCP** — `fecim-serve serve --listen ADDR`: a
//!   thread-per-connection [`TcpServer`] executes jobs as they arrive
//!   and emits responses as jobs finish (tagged by id, not submission
//!   order), answers `Status`/`Progress` queries live, and pushes back
//!   with `Rejected` lines once `open_jobs` reaches a configurable hard
//!   limit.
//!
//! ## Durability
//!
//! [`SchedulerConfig::with_journal`] appends every job transition to a
//! JSONL journal; [`Scheduler::recover`] replays a crashed run's
//! unfinished jobs bit-identically (see [`journal`]). Deadlines are
//! *enforced* at trial granularity: a job whose `deadline_ms` elapses
//! finalizes as [`JobStatus::DeadlineExceeded`] with partial results.

// `missing_docs` (and `deny(unsafe_code)`) come from `[workspace.lints]`.
#![warn(missing_debug_implementations)]

pub mod campaign;
mod grid;
mod job;
pub mod journal;
pub mod jsonl;
mod scheduler;
pub mod tcp;

pub use campaign::{
    run_campaign, CampaignError, CampaignOutcome, CampaignSpec, DecomposePlan, RoundReport,
    ScheduleVariant,
};
pub use grid::LiveGridStats;
pub use job::{JobHandle, JobProgress, JobStatus, SchedulerError, SubmitOptions};
pub use journal::{compact_records, read_journal, JournalError, JournalRecord, RecoveredJob};
pub use jsonl::{
    check_responses, check_responses_against, run_jsonl, terminal_line, JsonlError, JsonlSummary,
    RequestLine, ResponseLine,
};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use tcp::{drive, TcpServer, TcpServerConfig};
