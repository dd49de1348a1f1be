//! Serde round-trips for the workspace's persistence surface: experiment
//! configs, results, device parameters and graphs all serialize to JSON
//! (the harness artifact format) and deserialize back unchanged.

use fecim::experiment::{ExperimentConfig, Scale};
use fecim_crossbar::{ActivityStats, CrossbarConfig};
use fecim_device::{DgFefetParams, FefetParams, PreisachParams, VariationConfig};
use fecim_gset::{suite_instance, GeneratorConfig, SizeGroup};
use fecim_ising::{CsrCoupling, MaxCut, Qubo, SpinVector};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn spin_vector_roundtrip() {
    let v = SpinVector::from_signs(&[1, -1, 1, 1, -1]);
    assert_eq!(roundtrip(&v), v);
}

#[test]
fn coupling_roundtrip_preserves_energies() {
    let j = CsrCoupling::from_triplets(5, &[(0, 1, 1.5), (2, 4, -0.25), (1, 3, 0.75)]).unwrap();
    let back = roundtrip(&j);
    assert_eq!(back, j);
    use fecim_ising::Coupling;
    let s = SpinVector::all_up(5);
    assert_eq!(back.energy(&s), j.energy(&s));
}

#[test]
fn problem_roundtrips() {
    let mc = MaxCut::new(4, vec![(0, 1, 1.0), (2, 3, -2.0)]).unwrap();
    assert_eq!(roundtrip(&mc), mc);
    let mut q = Qubo::new(3);
    q.add_term(0, 1, 2.0);
    q.add_term(2, 2, -1.0);
    assert_eq!(roundtrip(&q), q);
    let raw =
        fecim_ising::RawIsing::new(vec![0.5, -0.5], &[vec![0.0, -1.0], vec![-1.0, 0.0]]).unwrap();
    assert_eq!(roundtrip(&raw), raw);
}

#[test]
fn raw_payload_specs_roundtrip_and_rebuild_identical_models() {
    use fecim::ProblemSpec;
    use fecim_ising::SpinVector;
    let qubo = ProblemSpec::Qubo {
        q: vec![
            vec![-1.0, 2.0, 0.25],
            vec![0.5, -1.0, 0.0],
            vec![0.25, 0.0, 3.0],
        ],
    };
    let back = roundtrip(&qubo);
    assert_eq!(back, qubo);
    // The deserialized spec builds a model with identical energies.
    let a = qubo.build().unwrap().to_ising().unwrap();
    let b = back.build().unwrap().to_ising().unwrap();
    for bits in 0u32..8 {
        let x: Vec<u8> = (0..3).map(|i| ((bits >> i) & 1) as u8).collect();
        let s = SpinVector::from_binaries(&x);
        assert_eq!(a.energy(&s), b.energy(&s));
    }

    let ising = ProblemSpec::Ising {
        h: vec![0.1, -0.2, 0.0],
        j: vec![
            vec![0.0, 0.5, -0.25],
            vec![0.5, 0.0, 0.75],
            vec![-0.25, 0.75, 0.0],
        ],
    };
    let back = roundtrip(&ising);
    assert_eq!(back, ising);
    let a = ising.build().unwrap().to_ising().unwrap();
    let b = back.build().unwrap().to_ising().unwrap();
    let s = SpinVector::from_signs(&[1, -1, 1]);
    assert_eq!(a.energy(&s), b.energy(&s));
}

#[test]
fn raw_payload_validation_errors_are_not_serialization_errors() {
    // Malformed payloads still *round-trip* (they are valid JSON) — the
    // error surfaces at build time, which is what lets a server answer
    // with a per-job failure instead of a protocol failure.
    use fecim::ProblemSpec;
    use fecim_ising::IsingError;
    let nonsquare = ProblemSpec::Qubo {
        q: vec![vec![1.0, 2.0], vec![0.0]],
    };
    let back = roundtrip(&nonsquare);
    assert!(matches!(
        back.build(),
        Err(IsingError::DimensionMismatch {
            expected: 2,
            found: 1
        })
    ));
    let mismatched = ProblemSpec::Ising {
        h: vec![0.0; 4],
        j: vec![vec![0.0; 3]; 3],
    };
    assert!(matches!(
        roundtrip(&mismatched).build(),
        Err(IsingError::DimensionMismatch {
            expected: 4,
            found: 3
        })
    ));
}

#[test]
fn scheduler_wire_types_roundtrip() {
    use fecim_serve::{JobProgress, JobStatus, SubmitOptions};
    let options = SubmitOptions::priority(-3)
        .with_deadline_ms(1500)
        .with_tag("sweep")
        .with_tag("nightly");
    assert_eq!(roundtrip(&options), options);
    for status in [
        JobStatus::Queued,
        JobStatus::Running,
        JobStatus::Completed,
        JobStatus::Cancelled,
        JobStatus::DeadlineExceeded,
        JobStatus::Failed,
    ] {
        assert_eq!(roundtrip(&status), status);
    }
    let progress = JobProgress {
        trials_completed: 3,
        trials_total: 8,
        in_flight: 2,
        best_energy: Some(-12.5),
    };
    assert_eq!(roundtrip(&progress), progress);
}

#[test]
fn device_params_roundtrip() {
    assert_eq!(
        roundtrip(&FefetParams::paper_reference()),
        FefetParams::paper_reference()
    );
    assert_eq!(
        roundtrip(&DgFefetParams::paper_reference()),
        DgFefetParams::paper_reference()
    );
    assert_eq!(
        roundtrip(&PreisachParams::paper_reference()),
        PreisachParams::paper_reference()
    );
    assert_eq!(
        roundtrip(&VariationConfig::typical()),
        VariationConfig::typical()
    );
}

#[test]
fn crossbar_config_and_stats_roundtrip() {
    let cfg = CrossbarConfig::paper_defaults();
    assert_eq!(roundtrip(&cfg), cfg);
    let stats = ActivityStats {
        array_ops: 10,
        adc_conversions: 320,
        ..Default::default()
    };
    assert_eq!(roundtrip(&stats), stats);
}

#[test]
fn gset_instances_roundtrip_and_regenerate_identically() {
    let inst = suite_instance(SizeGroup::N800, 3);
    let back = roundtrip(&inst);
    assert_eq!(back, inst);
    // The config fully determines the graph.
    assert_eq!(back.graph(), inst.graph());
    let gen = GeneratorConfig::new(64, 9);
    assert_eq!(roundtrip(&gen), gen);
}

#[test]
fn experiment_config_roundtrip() {
    let cfg = ExperimentConfig::new(Scale::Paper);
    let back = roundtrip(&cfg);
    assert_eq!(back, cfg);
}

#[test]
fn solve_report_serializes_for_artifacts() {
    // End-to-end: a real report must serialize (the harness writes these).
    let mc = MaxCut::new(6, (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect()).unwrap();
    let report = fecim::CimAnnealer::new(200).solve(&mc, 1).unwrap();
    let json = serde_json::to_value(&report).expect("report serializes");
    assert!(json.get("best_energy").is_some());
    assert!(json.get("energy").is_some());
}

#[test]
fn sb_solve_request_roundtrips_and_replays_bit_identically() {
    use fecim::sb::{PressureSchedule, SbVariant};
    use fecim::{BackendPlan, ProblemSpec, RunPlan, SbAnnealer, Session, SolveRequest, SolverSpec};
    let request = SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: 12,
            edges: (0..12).map(|i| (i, (i + 1) % 12, 1.0)).collect(),
        },
        SolverSpec::Sb(
            SbAnnealer::new(SbVariant::Discrete, 150)
                .with_dt(0.2)
                .with_pressure_schedule(PressureSchedule::DelayedLinear {
                    onset: 0.1,
                    end: 1.0,
                })
                .with_coupling_strength(1.25)
                .with_in_bits(5),
        ),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: fecim_crossbar::Fidelity::Ideal,
        tile_rows: Some(4),
    })
    .with_run(RunPlan::Ensemble {
        trials: 3,
        base_seed: 9,
        threads: None,
    })
    .with_reference(12.0);
    assert_eq!(roundtrip(&request), request);
    // A deserialized SB request produces bit-identical results — the
    // same wire contract the annealers honor.
    let session = Session::new();
    let a = session.run(&request).expect("valid request");
    let b = session.run(&roundtrip(&request)).expect("valid request");
    assert_eq!(
        serde_json::to_string(&a.reports).expect("reports serialize"),
        serde_json::to_string(&b.reports).expect("reports serialize"),
    );
}

#[test]
fn wire_deserialized_sb_misconfigurations_are_rejected_as_invalid_requests() {
    use fecim::{
        BackendPlan, ProblemSpec, SbAnnealer, Session, SessionError, SolveRequest, SolverSpec,
    };
    // Device-in-the-loop, so the input-DAC width reaches the bit-serial
    // drive if validation lets it through.
    let valid = SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: 6,
            edges: (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect(),
        },
        SolverSpec::Sb(SbAnnealer::ballistic(50)),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: fecim_crossbar::Fidelity::Ideal,
        tile_rows: None,
    });
    // Navigate the parsed map tree to a named field (the shim's `Value`
    // has no JSON-pointer helpers).
    fn field_mut<'a>(value: &'a mut serde_json::Value, path: &[&str]) -> &'a mut serde_json::Value {
        let mut current = value;
        for key in path {
            current = match current {
                serde_json::Value::Map(entries) => {
                    &mut entries
                        .iter_mut()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("field `{key}` exists"))
                        .1
                }
                _ => panic!("expected an object at `{key}`"),
            };
        }
        current
    }

    let json = valid.to_json().expect("serializes");
    let session = Session::new();
    // The builders panic on these values, but wire payloads never run
    // the builders — `Session::prepare` re-validates instead. (JSON has
    // no NaN/Infinity literal, so the non-finite schedule case arrives
    // as an out-of-domain finite value.)
    let cases: Vec<(&[&str], serde_json::Value)> = vec![
        (&["solver", "Sb", "steps"], serde_json::json!(0u64)),
        (&["solver", "Sb", "dt"], serde_json::json!(-0.5f64)),
        (&["solver", "Sb", "in_bits"], serde_json::json!(0u64)),
        // Wider than the 31-bit input code: `1 << in_bits` would wrap.
        (&["solver", "Sb", "in_bits"], serde_json::json!(32u64)),
        (&["solver", "Sb", "in_bits"], serde_json::json!(40u64)),
        (&["solver", "Sb", "in_bits"], serde_json::json!(255u64)),
        (
            &["solver", "Sb", "coupling_strength"],
            serde_json::json!(-2.0f64),
        ),
        (
            &["solver", "Sb", "pressure_schedule"],
            serde_json::json!({"DelayedLinear": serde_json::json!({"onset": 1.5f64, "end": 1.0f64})}),
        ),
    ];
    for (path, bad) in cases {
        let mut tree: serde_json::Value = serde_json::from_str(&json).expect("parses");
        *field_mut(&mut tree, path) = bad;
        let mutated = serde_json::to_string(&tree).expect("tree serializes");
        let request = SolveRequest::from_json(&mutated).expect("mutation still parses");
        match session.run(&request) {
            Err(SessionError::InvalidRequest(_)) => {}
            other => panic!("{path:?}: expected InvalidRequest, got {other:?}"),
        }
    }
}

#[test]
fn requests_predating_the_sb_family_parse_unchanged() {
    use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};
    let request = SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: 4,
            edges: vec![(0, 1, 1.0), (2, 3, 1.0)],
        },
        SolverSpec::Cim(CimAnnealer::new(120).with_flips(1)),
    )
    .with_run(RunPlan::Single { seed: 7 });
    let wire = request.to_json().expect("serializes");
    // `SolverSpec` grew the `Sb` variant, which external tagging keeps
    // backward compatible: pre-SB payloads neither mention the new
    // variant nor gain required fields, so old JSON parses unchanged.
    assert!(!wire.contains("Sb"), "legacy encodings are SB-free: {wire}");
    assert_eq!(SolveRequest::from_json(&wire).expect("parses"), request);
}

#[test]
fn solve_request_and_response_roundtrip() {
    use fecim::{
        BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolveResponse,
        SolverSpec,
    };
    let request = SolveRequest::new(
        ProblemSpec::Generated(GeneratorConfig::new(24, 4)),
        SolverSpec::Cim(CimAnnealer::new(120).with_flips(1)),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: fecim_crossbar::Fidelity::Ideal,
        tile_rows: Some(8),
    })
    .with_run(RunPlan::Ensemble {
        trials: 2,
        base_seed: 6,
        threads: None,
    })
    .with_reference(20.0);
    assert_eq!(roundtrip(&request), request);

    let response = Session::new().run(&request).expect("valid request");
    let back: SolveResponse = roundtrip(&response);
    assert_eq!(back.summary, response.summary);
    assert_eq!(back.normalized, response.normalized);
    assert_eq!(back.reports.len(), response.reports.len());
}
