//! The result digest: every simulated statistic of a pass folded into one
//! 64-bit FNV-1a hash. A change that only makes the simulator faster
//! must leave it identical.

use fecim::SolveResponse;
use fecim_serve::ResponseLine;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Feed bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feed a value's JSON form.
    pub fn write_json<T: serde::Serialize>(&mut self, value: &T) {
        let json = serde_json::to_string(value).expect("result types serialize");
        self.write(json.as_bytes());
        self.write(b"\n");
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one response: per trial the best energy, best spins,
/// modeled energy and time breakdowns and the measured `ActivityStats`,
/// plus the run summary. Placement-only fields (shared-grid summaries)
/// are left out, so the scheduler and `Session` paths hash alike.
pub fn response_digest(response: &SolveResponse) -> u64 {
    let mut h = Fnv::default();
    for report in &response.reports {
        h.write(&report.best_energy.to_bits().to_le_bytes());
        h.write_json(&report.best_spins);
        h.write_json(&report.energy);
        h.write_json(&report.time);
        h.write_json(&report.run.activity);
    }
    h.write_json(&response.normalized);
    h.write_json(&response.summary);
    h.finish()
}

/// Digest of one terminal line, ignoring the client-chosen id (ids carry
/// the pass number, results must not).
pub fn line_digest(line: &ResponseLine) -> u64 {
    match line {
        ResponseLine::Completed { response, .. } => response_digest(response),
        other => {
            let mut h = Fnv::default();
            let json = serde_json::to_string(other).expect("response lines serialize");
            let id = other.id();
            h.write(json.replace(id, "").as_bytes());
            h.finish()
        }
    }
}

/// Fold per-job digests, in job order, into the pass digest.
pub fn fold(job_digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for d in job_digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim::{CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec};

    fn ring_request(seed: u64) -> SolveRequest {
        SolveRequest::new(
            ProblemSpec::MaxCut {
                vertices: 12,
                edges: (0..12).map(|i| (i, (i + 1) % 12, 1.0)).collect(),
            },
            SolverSpec::Cim(CimAnnealer::new(200)),
        )
        .with_run(RunPlan::Ensemble {
            trials: 3,
            base_seed: seed,
            threads: None,
        })
    }

    #[test]
    fn digest_is_stable_across_repetitions_and_ids() {
        let session = Session::new();
        let a = session.run(&ring_request(5)).expect("runs");
        let b = session.run(&ring_request(5)).expect("runs");
        assert_eq!(response_digest(&a), response_digest(&b));
        let la = ResponseLine::Completed {
            id: "p0-j0".into(),
            response: a.clone(),
        };
        let lb = ResponseLine::Completed {
            id: "p7-j0".into(),
            response: b,
        };
        assert_eq!(line_digest(&la), line_digest(&lb));
        // A round trip through the wire format keeps every bit.
        let wire = serde_json::to_string(&la).expect("serializes");
        let back: ResponseLine = serde_json::from_str(&wire).expect("parses");
        assert_eq!(line_digest(&back), line_digest(&la));
        // A different seed is a different result.
        let c = session.run(&ring_request(6)).expect("runs");
        assert_ne!(response_digest(&a), response_digest(&c));
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
    }
}
