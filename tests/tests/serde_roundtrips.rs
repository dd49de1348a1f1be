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

/// The field at `path` in a parsed map tree (the shim's `Value` has no
/// JSON-pointer helpers).
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

/// `value` with the named wire fields replaced: how a client sets the
/// solver fields that have no builder.
fn with_wire_fields<T>(value: &T, fields: &[(&str, serde_json::Value)]) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let mut tree = serde_json::to_value(value).expect("serializes");
    for (key, replacement) in fields {
        *field_mut(&mut tree, &[key]) = replacement.clone();
    }
    serde_json::from_value(&tree).expect("deserializes")
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
    let report = fecim::Solver::solve(&fecim::CimAnnealer::new(200), &mc, 1).unwrap();
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
        SolverSpec::Sb(with_wire_fields(
            &SbAnnealer::new(SbVariant::Discrete, 150),
            &[
                ("dt", serde_json::json!(0.2f64)),
                (
                    "pressure_schedule",
                    serde_json::json!(PressureSchedule::DelayedLinear {
                        onset: 0.1,
                        end: 1.0,
                    }),
                ),
                ("coupling_strength", serde_json::json!(1.25f64)),
                ("in_bits", serde_json::json!(5u8)),
            ],
        )),
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
fn wire_deserialized_solver_misconfigurations_are_rejected_as_invalid_requests() {
    use fecim::{
        BackendPlan, CimAnnealer, DirectAnnealer, MesaAnnealer, ProblemSpec, SbAnnealer, Session,
        SessionError, SolveRequest, SolverSpec,
    };
    use serde_json::json;
    let request = |solver| {
        SolveRequest::new(
            ProblemSpec::MaxCut {
                vertices: 6,
                edges: (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect(),
            },
            solver,
        )
    };
    // Device-in-the-loop for SB, so the input-DAC width reaches the
    // bit-serial drive if validation lets it through.
    let sb = request(SolverSpec::Sb(SbAnnealer::ballistic(50))).with_backend(
        BackendPlan::DeviceInLoop {
            fidelity: fecim_crossbar::Fidelity::Ideal,
            tile_rows: None,
        },
    );
    let cim = request(SolverSpec::Cim(CimAnnealer::new(50)));
    let direct = request(SolverSpec::Direct(DirectAnnealer::cim_asic(50)));
    let mesa = request(SolverSpec::Mesa(MesaAnnealer::new(50)));
    let session = Session::new();
    for base in [&sb, &cim, &direct, &mesa] {
        session.run(base).expect("the unmutated request is valid");
    }
    // Wire payloads never run the builders (which are plain setters
    // anyway): `Session::prepare` is the one gate, and each of these
    // values would trip an engine assertion past it. (JSON has no
    // NaN/Infinity literal, so the non-finite schedule case arrives as
    // an out-of-domain finite value.)
    let cases: Vec<(&SolveRequest, &[&str], serde_json::Value)> = vec![
        (&sb, &["solver", "Sb", "steps"], json!(0u64)),
        (&sb, &["solver", "Sb", "dt"], json!(-0.5f64)),
        (&sb, &["solver", "Sb", "in_bits"], json!(0u64)),
        // Wider than the 31-bit input code: `1 << in_bits` would wrap.
        (&sb, &["solver", "Sb", "in_bits"], json!(32u64)),
        (&sb, &["solver", "Sb", "in_bits"], json!(40u64)),
        (&sb, &["solver", "Sb", "in_bits"], json!(255u64)),
        (&sb, &["solver", "Sb", "coupling_strength"], json!(-2.0f64)),
        (
            &sb,
            &["solver", "Sb", "pressure_schedule"],
            json!({"DelayedLinear": json!({"onset": 1.5f64, "end": 1.0f64})}),
        ),
        (&cim, &["solver", "Cim", "flips"], json!(0u64)),
        (
            &cim,
            &["solver", "Cim", "factor"],
            json!({"Table": json!([])}),
        ),
        // The denominator 1 − T crosses zero at T = 1 < 700.
        (
            &cim,
            &["solver", "Cim", "factor"],
            json!({"Fractional": json!({"a": 1.0f64, "b": -1.0f64, "c": 1.0f64, "d": 0.0f64, "t_max": 700.0f64})}),
        ),
        (&cim, &["solver", "Cim", "einc_scale"], json!(-1.0f64)),
        (&direct, &["solver", "Direct", "flips"], json!(0u64)),
        (&direct, &["solver", "Direct", "t0"], json!(-2.5f64)),
        (
            &direct,
            &["solver", "Direct", "t_end_fraction"],
            json!(-1.0f64),
        ),
        // The boundary: T_end = T0 does not cool at all.
        (
            &direct,
            &["solver", "Direct", "t_end_fraction"],
            json!(1.0f64),
        ),
        (&mesa, &["solver", "Mesa", "epochs"], json!(0u64)),
    ];
    for (base, path, bad) in cases {
        let mut tree: serde_json::Value =
            serde_json::from_str(&base.to_json().expect("serializes")).expect("parses");
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

// ---------------------------------------------------------------------------
// The codec corpus: the committed bytes of every wire line and edge value,
// and the decoded result of every edge-case input.
// ---------------------------------------------------------------------------

mod corpus {
    use std::fmt::Write as _;
    use std::path::Path;

    use fecim::anneal::Acceptance;
    use fecim::sb::{PressureSchedule, SbVariant};
    use fecim::{
        BackendPlan, CimAnnealer, DirectAnnealer, FactorChoice, MesaAnnealer, ProblemSpec, RunPlan,
        SbAnnealer, Session, SolveRequest, SolverSpec,
    };
    use fecim_crossbar::Fidelity;
    use fecim_gset::GeneratorConfig;
    use fecim_serve::{
        run_campaign, CampaignSpec, JobProgress, JobStatus, JournalRecord, RequestLine,
        ResponseLine, ScheduleVariant, Scheduler, SchedulerConfig, SubmitOptions,
    };
    use serde::de::DeserializeOwned;
    use serde::Serialize;

    use super::with_wire_fields;

    /// A struct whose fields each show one decoding rule: a float, an
    /// optional and a required integer, a sequence and a nested struct.
    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    struct Probe {
        x: f64,
        maybe: Option<u8>,
        count: u64,
        signed: i64,
        items: Vec<u8>,
        inner: Inner,
    }

    /// A struct every field of which accepts `null`.
    #[derive(Debug, serde::Serialize, serde::Deserialize)]
    struct Inner {
        y: f64,
        tag: Option<String>,
    }

    #[derive(Default)]
    pub(super) struct Corpus {
        pub(super) text: String,
    }

    impl Corpus {
        /// Record the compact and pretty encodings of `value`, and what
        /// each decodes to (re-encoded compactly).
        fn encode<T: Serialize + DeserializeOwned>(&mut self, name: &str, value: &T) {
            for (style, json) in [
                ("compact", serde_json::to_string(value)),
                ("pretty", serde_json::to_string_pretty(value)),
            ] {
                let json = json.expect("corpus values serialize");
                writeln!(self.text, "### {name} {style}\n{json}").unwrap();
                self.decode::<T>(&format!("{name} {style}"), &json);
            }
        }

        /// Record what `input` decodes to as a `T`, re-encoded compactly,
        /// or `error`.
        fn decode<T: Serialize + DeserializeOwned>(&mut self, label: &str, input: &str) {
            let out = match serde_json::from_str::<T>(input) {
                Ok(v) => serde_json::to_string(&v).expect("decoded values serialize"),
                Err(_) => "error".to_string(),
            };
            writeln!(self.text, "### decode {label}\n{out}").unwrap();
        }
    }

    fn ring(n: usize) -> ProblemSpec {
        ProblemSpec::MaxCut {
            vertices: n,
            edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
        }
    }

    /// Requests covering every `ProblemSpec`, `SolverSpec`, `BackendPlan`
    /// and `RunPlan` variant.
    fn requests() -> Vec<SolveRequest> {
        let problems = vec![
            ring(6),
            ProblemSpec::Generated(GeneratorConfig::new(10, 3)),
            ProblemSpec::Knapsack {
                values: vec![3, 4, 5],
                weights: vec![2, 3, 4],
                capacity: 5,
            },
            ProblemSpec::Coloring {
                vertices: 4,
                colors: 2,
                edges: vec![(0, 1), (1, 2), (2, 3)],
            },
            ProblemSpec::Qubo {
                q: vec![
                    vec![-1.0, 0.125, -0.0],
                    vec![0.0, 1e-7, 2.5e10],
                    vec![-0.333, 0.0, 1e21],
                ],
            },
            ProblemSpec::Ising {
                h: vec![0.1, -0.2, 5e-324],
                j: vec![
                    vec![0.0, 0.5, -0.25],
                    vec![0.5, 0.0, 0.75],
                    vec![-0.25, 0.75, 0.0],
                ],
            },
        ];
        let solvers = [
            SolverSpec::Cim(
                CimAnnealer::new(40)
                    .with_flips(1)
                    .with_factor(FactorChoice::Device)
                    .with_einc_scale(0.5)
                    .with_trace(10)
                    .with_target_energy(-3.0),
            ),
            SolverSpec::Direct(with_wire_fields(
                &DirectAnnealer::cim_fpga(30),
                &[
                    ("acceptance", serde_json::json!(Acceptance::LinearApprox)),
                    ("t0", serde_json::json!(2.5f64)),
                ],
            )),
            SolverSpec::Mesa(with_wire_fields(
                &MesaAnnealer::new(30),
                &[("epochs", serde_json::json!(2u64))],
            )),
            SolverSpec::Sb(with_wire_fields(
                &SbAnnealer::new(SbVariant::Discrete, 20),
                &[
                    (
                        "pressure_schedule",
                        serde_json::json!(PressureSchedule::DelayedLinear {
                            onset: 0.1,
                            end: 1.0,
                        }),
                    ),
                    ("in_bits", serde_json::json!(5u8)),
                ],
            )),
        ];
        let backends = [
            BackendPlan::Analytic,
            BackendPlan::DeviceInLoop {
                fidelity: Fidelity::DeviceAccurate,
                tile_rows: Some(4),
            },
            BackendPlan::Batched {
                tile_rows: 8,
                instances: 2,
            },
        ];
        let runs = [
            RunPlan::Single { seed: u64::MAX },
            RunPlan::Ensemble {
                trials: 2,
                base_seed: 7,
                threads: Some(1),
            },
        ];
        problems
            .into_iter()
            .enumerate()
            .map(|(i, problem)| {
                let mut request = SolveRequest::new(problem, solvers[i % 4].clone())
                    .with_backend(backends[i % 3])
                    .with_run(runs[i % 2]);
                if i % 2 == 1 {
                    request = request.with_reference(f64::NAN);
                }
                request
            })
            .collect()
    }

    fn options() -> SubmitOptions {
        SubmitOptions::priority(i64::MIN)
            .with_deadline_ms(u64::MAX)
            .with_tag("quote \" backslash \\ slash /")
            .with_tag("ctl \n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}")
            .with_tag("é ü 中 😀 \u{2028}")
    }

    /// Every wire line of the corpus.
    fn wire(corpus: &mut Corpus) {
        let requests = requests();
        for (i, request) in requests.iter().enumerate() {
            corpus.encode(
                &format!("RequestLine::Submit/{i}"),
                &RequestLine::Submit {
                    id: format!("job-{i}"),
                    request: request.clone(),
                    options: options(),
                },
            );
            corpus.encode(
                &format!("JournalRecord::Submitted/{i}"),
                &JournalRecord::Submitted {
                    job: i as u64 + 1,
                    name: (i % 2 == 0).then(|| format!("job-{i}")),
                    request: request.clone(),
                    options: SubmitOptions::default(),
                },
            );
        }
        let campaign = CampaignSpec::new(
            ProblemSpec::Qubo {
                q: vec![vec![-1.0, 2.0], vec![0.0, -1.0]],
            },
            2,
            vec![
                ScheduleVariant::new(SolverSpec::Cim(CimAnnealer::new(30).with_flips(1)))
                    .with_trials(2),
            ],
        )
        .with_base_seed(5);
        corpus.encode(
            "RequestLine::Campaign",
            &RequestLine::Campaign {
                id: "camp".into(),
                spec: campaign.clone(),
                options: SubmitOptions::priority(3).with_tag("c"),
            },
        );
        for (name, line) in [
            ("Cancel", RequestLine::Cancel { id: "a".into() }),
            ("Status", RequestLine::Status { id: "b".into() }),
            ("Progress", RequestLine::Progress { id: "c".into() }),
        ] {
            corpus.encode(&format!("RequestLine::{name}"), &line);
        }

        // Real responses: small analytic and device-in-the-loop runs.
        let session = Session::new();
        let solved = SolveRequest::new(
            ring(8),
            SolverSpec::Cim(CimAnnealer::new(60).with_flips(1).with_trace(20)),
        )
        .with_run(RunPlan::Ensemble {
            trials: 2,
            base_seed: 3,
            threads: None,
        })
        .with_reference(8.0);
        let response = session.run(&solved).expect("corpus request runs");
        let device = SolveRequest::new(ring(6), SolverSpec::Sb(SbAnnealer::ballistic(20)))
            .with_backend(BackendPlan::DeviceInLoop {
                fidelity: Fidelity::Ideal,
                tile_rows: Some(4),
            });
        let device_response = session.run(&device).expect("corpus request runs");
        let scheduler = Scheduler::with_config(SchedulerConfig::workers(1));
        let outcome = run_campaign(&scheduler, &campaign, &SubmitOptions::default())
            .expect("corpus campaign runs");
        scheduler.join();
        let lines = [
            ResponseLine::Completed {
                id: "done".into(),
                response: response.clone(),
            },
            ResponseLine::Completed {
                id: "device".into(),
                response: device_response,
            },
            ResponseLine::Campaign {
                id: "camp".into(),
                outcome,
            },
            ResponseLine::Cancelled {
                id: "x".into(),
                completed_trials: 1,
                partial: Some(response),
            },
            ResponseLine::DeadlineExceeded {
                id: "y".into(),
                completed_trials: 0,
                partial: None,
            },
            ResponseLine::Failed {
                id: "line 3".into(),
                error: "expected `,` or `}` at byte 17 — \"quoted\"".into(),
            },
            ResponseLine::Rejected {
                id: "r".into(),
                open_jobs: 128,
                limit: 128,
            },
            ResponseLine::Status {
                id: "s".into(),
                status: JobStatus::DeadlineExceeded,
            },
            ResponseLine::Progress {
                id: "p".into(),
                progress: JobProgress {
                    trials_completed: 1,
                    trials_total: 4,
                    in_flight: 2,
                    best_energy: Some(-0.0),
                },
            },
        ];
        for (i, line) in lines.iter().enumerate() {
            corpus.encode(&format!("ResponseLine/{i}"), line);
        }
        let mut records = vec![
            JournalRecord::Started { job: 1 },
            JournalRecord::TrialDone { job: 1, trial: 0 },
            JournalRecord::CancelRequested { job: 2 },
            JournalRecord::Superseded { job: 3, by: 9 },
        ];
        for status in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Completed,
            JobStatus::Cancelled,
            JobStatus::DeadlineExceeded,
            JobStatus::Failed,
        ] {
            records.push(JournalRecord::Finalized { job: 4, status });
        }
        for (i, record) in records.iter().enumerate() {
            corpus.encode(&format!("JournalRecord/{i}"), record);
        }
    }

    /// Edge values, each encoded on its own.
    fn edges(corpus: &mut Corpus) {
        let floats = [
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            -0.333,
            1.0,
            1e15,
            1e16,
            1e21,
            1e-7,
            123456789.125,
            9007199254740993.0,
            2f64.powi(63),
            2f64.powi(64),
        ];
        for x in floats {
            corpus.encode(&format!("f64 {x:e}"), &x);
        }
        corpus.encode("Vec<f64>", &floats.to_vec());
        corpus.encode("u64::MAX", &u64::MAX);
        corpus.encode("i64::MIN", &i64::MIN);
        corpus.encode("i64::MAX", &i64::MAX);
        corpus.encode("u8", &200u8);
        corpus.encode("i8", &-128i8);
        corpus.encode("f32", &0.1f32);
        corpus.encode("bool", &true);
        corpus.encode("char", &'😀');
        corpus.encode("Option<u8> None", &None::<u8>);
        corpus.encode("tuple", &(1usize, -2i64, 0.5f64, "t".to_string(), false));
        corpus.encode("[u8; 3]", &[1u8, 2, 3]);
        corpus.encode("Vec<Vec<f64>> empty rows", &vec![Vec::<f64>::new(), vec![]]);
        corpus.encode("escapes", &"quote \" backslash \\ slash /".to_string());
        corpus.encode(
            "control characters",
            &(0u8..0x20)
                .map(char::from)
                .chain(['\u{7f}'])
                .collect::<String>(),
        );
        corpus.encode("non-ASCII", &"é ü 中 😀 \u{2028}\u{fffd}".to_string());
        corpus.encode("SubmitOptions", &options());
        corpus.encode(
            "Probe",
            &Probe {
                x: f64::NAN,
                maybe: None,
                count: 0,
                signed: -1,
                items: vec![],
                inner: Inner {
                    y: -0.0,
                    tag: Some(String::new()),
                },
            },
        );
    }

    /// Edge-case inputs and what the codec decodes them to.
    fn inputs(corpus: &mut Corpus) {
        let probe_rows: &[(&str, &str)] = &[
            (
                "all fields",
                r#"{"x":1.5,"maybe":3,"count":4,"signed":-5,"items":[1],"inner":{"y":2,"tag":"t"}}"#,
            ),
            ("missing keys", r#"{"count":4,"signed":-5,"items":[]}"#),
            ("missing required", r#"{"x":1.5,"signed":-5,"items":[]}"#),
            (
                "unknown keys",
                r#"{"count":4,"signed":0,"items":[],"zzz":[1,{"a":[null]}],"inner":{"q":1}}"#,
            ),
            (
                "duplicate keys",
                r#"{"count":4,"count":5,"signed":0,"items":[],"items":"bad"}"#,
            ),
            (
                "duplicate, first bad",
                r#"{"count":"bad","count":5,"signed":0,"items":[]}"#,
            ),
            (
                "inner null",
                r#"{"count":1,"signed":0,"items":[],"inner":null}"#,
            ),
            (
                "inner number",
                r#"{"count":1,"signed":0,"items":[],"inner":5}"#,
            ),
            (
                "inner array",
                r#"{"count":1,"signed":0,"items":[],"inner":[1,2]}"#,
            ),
            (
                "inner string",
                r#"{"count":1,"signed":0,"items":[],"inner":"s"}"#,
            ),
            ("struct null", "null"),
            ("struct number", "7"),
            ("items null", r#"{"count":1,"signed":0,"items":null}"#),
            (
                "integral float count",
                r#"{"count":3.0,"signed":-2.0,"items":[1.0]}"#,
            ),
            (
                "exponent count",
                r#"{"count":1e2,"signed":-1E1,"items":[]}"#,
            ),
            ("fractional count", r#"{"count":2.5,"signed":0,"items":[]}"#),
            (
                "negative zero count",
                r#"{"count":-0.0,"signed":-0,"items":[]}"#,
            ),
            (
                "count u64::MAX",
                r#"{"count":18446744073709551615,"signed":0,"items":[]}"#,
            ),
            (
                "count 2^64 float",
                r#"{"count":18446744073709551616.0,"signed":0,"items":[]}"#,
            ),
            (
                "count 2^64 integer",
                r#"{"count":18446744073709551616,"signed":0,"items":[]}"#,
            ),
            ("count negative", r#"{"count":-1,"signed":0,"items":[]}"#),
            (
                "signed i64::MIN",
                r#"{"count":0,"signed":-9223372036854775808,"items":[]}"#,
            ),
            (
                "signed 2^63 float",
                r#"{"count":0,"signed":9223372036854775808.0,"items":[]}"#,
            ),
            (
                "signed 2^63 integer",
                r#"{"count":0,"signed":9223372036854775808,"items":[]}"#,
            ),
            (
                "signed below i64::MIN",
                r#"{"count":0,"signed":-9223372036854775809,"items":[]}"#,
            ),
            (
                "signed -2^63 float",
                r#"{"count":0,"signed":-9223372036854775808.0,"items":[]}"#,
            ),
            (
                "items out of range",
                r#"{"count":0,"signed":0,"items":[256]}"#,
            ),
            (
                "x as string",
                r#"{"x":"1","count":0,"signed":0,"items":[]}"#,
            ),
            ("x as bool", r#"{"x":true,"count":0,"signed":0,"items":[]}"#),
            ("x huge", r#"{"x":1e400,"count":0,"signed":0,"items":[]}"#),
            ("x tiny", r#"{"x":-1e-400,"count":0,"signed":0,"items":[]}"#),
            (
                "x negative zero",
                r#"{"x":-0,"count":0,"signed":0,"items":[]}"#,
            ),
            (
                "x negative zero float",
                r#"{"x":-0.0,"count":0,"signed":0,"items":[]}"#,
            ),
            (
                "x many digits",
                r#"{"x":0.30000000000000004441,"count":0,"signed":0,"items":[]}"#,
            ),
            (
                "x long mantissa",
                r#"{"x":123456789012345678901234567890,"count":0,"signed":0,"items":[]}"#,
            ),
            (
                "whitespace",
                " \t\r\n{ \"count\" : 1 , \"signed\" : 0 , \"items\" : [ ] } \n",
            ),
            (
                "trailing characters",
                r#"{"count":1,"signed":0,"items":[]} x"#,
            ),
            ("trailing comma", r#"{"count":1,"signed":0,"items":[],}"#),
            ("key not a string", r#"{count:1,"signed":0,"items":[]}"#),
            ("missing colon", r#"{"count" 1,"signed":0,"items":[]}"#),
        ];
        for (label, input) in probe_rows {
            corpus.decode::<Probe>(&format!("Probe {label}"), input);
        }
        let value_rows: &[(&str, &str)] = &[
            ("integer", "5"),
            ("negative integer", "-5"),
            ("negative zero", "-0"),
            ("negative zero float", "-0.0"),
            ("integral float", "2.0"),
            ("exponent", "1e5"),
            ("upper exponent", "1E+2"),
            ("negative exponent", "25e-1"),
            ("u64::MAX", "18446744073709551615"),
            ("2^64", "18446744073709551616"),
            ("i64::MIN", "-9223372036854775808"),
            ("below i64::MIN", "-9223372036854775809"),
            ("huge", "1e400"),
            ("tiny", "1e-400"),
            ("leading plus", "+5"),
            ("leading zero", "01"),
            ("negative leading zero", "-01"),
            ("bare dot", "1."),
            ("leading dot", ".5"),
            ("lone minus", "-"),
            ("bare exponent", "1e"),
            ("exponent sign only", "1e+"),
            ("NaN", "NaN"),
            ("Infinity", "Infinity"),
            ("null", "null"),
            ("true", "true"),
            ("false", "false"),
            ("truncated literal", "nul"),
            ("literal with suffix", "nullx"),
            ("empty", ""),
            ("whitespace only", " \n"),
            ("empty string", r#""""#),
            ("escapes", r#""\"\\\/\b\f\n\r\t""#),
            ("unicode escape", r#""\u00e9\u4E2D""#),
            ("escaped control", r#""\u0000\u001f""#),
            ("surrogate pair", r#""job-\ud83d\ude00""#),
            ("lone high surrogate", r#""\ud83d""#),
            ("lone low surrogate", r#""\ude00""#),
            ("high surrogate then letter", r#""\ud83dx""#),
            ("two high surrogates", r#""\ud83d\ud83d""#),
            ("short unicode escape", r#""\u00e""#),
            ("signed unicode escape", r#""\u+0e9""#),
            ("unknown escape", r#""\x""#),
            ("raw tab in string", "\"a\tb\""),
            ("raw newline in string", "\"a\nb\""),
            ("raw NUL in string", "\"a\u{0}b\""),
            ("raw DEL in string", "\"a\u{7f}b\""),
            ("non-ASCII", "\"é 中 😀\""),
            ("unterminated string", r#""abc"#),
            ("empty array", "[]"),
            ("empty object", "{}"),
            ("nested", r#"{"a":[1,{"b":null}],"c":{}}"#),
            ("duplicate keys", r#"{"a":1,"a":2}"#),
            ("trailing comma array", "[1,]"),
            ("leading comma array", "[,1]"),
            ("double comma", "[1,,2]"),
            ("missing comma", "[1 2]"),
            ("unclosed array", "[1"),
            ("unclosed object", r#"{"a":1"#),
            ("trailing characters", "{} x"),
            ("two values", "1 2"),
        ];
        for (label, input) in value_rows {
            corpus.decode::<serde_json::Value>(&format!("Value {label}"), input);
        }
        for depth in [127usize, 128, 129] {
            let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            corpus.decode::<serde_json::Value>(&format!("Value arrays depth {depth}"), &arrays);
            let objects = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
            corpus.decode::<serde_json::Value>(&format!("Value objects depth {depth}"), &objects);
            let inside = format!(
                r#"{{"count":1,"signed":0,"items":[],"deep":{}{}}}"#,
                "[".repeat(depth - 1),
                "]".repeat(depth - 1)
            );
            corpus.decode::<Probe>(&format!("Probe ignored key depth {depth}"), &inside);
        }
        let enum_rows: &[(&str, &str)] = &[
            ("unit", r#""Analytic""#),
            ("unit as map", r#"{"Analytic":null}"#),
            ("struct as string", r#""Batched""#),
            ("struct", r#"{"Batched":{"tile_rows":8,"instances":2}}"#),
            ("struct missing field", r#"{"Batched":{"tile_rows":8}}"#),
            (
                "two entries",
                r#"{"Batched":{"tile_rows":8,"instances":2},"Analytic":null}"#,
            ),
            ("empty map", "{}"),
            ("unknown variant", r#""Quantum""#),
            ("unknown map variant", r#"{"Quantum":1}"#),
            ("number", "3"),
            ("null", "null"),
        ];
        for (label, input) in enum_rows {
            corpus.decode::<BackendPlan>(&format!("BackendPlan {label}"), input);
        }
        let tuple_rows: &[(&str, &str)] = &[
            ("exact", "[1,2,0.5]"),
            ("short", "[1,2]"),
            ("long", "[1,2,0.5,4]"),
            ("not a sequence", r#"{"0":1}"#),
            ("null third", "[1,2,null]"),
        ];
        for (label, input) in tuple_rows {
            corpus.decode::<(usize, usize, f64)>(&format!("tuple {label}"), input);
        }
        let array_rows = [
            ("exact", "[1,2,3]"),
            ("short", "[1,2]"),
            ("long", "[1,2,3,4]"),
        ];
        for (label, input) in array_rows {
            corpus.decode::<[u8; 3]>(&format!("[u8; 3] {label}"), input);
        }
        for (label, input) in [
            ("char", r#""é""#),
            ("two chars", r#""ab""#),
            ("empty", r#""""#),
        ] {
            corpus.decode::<char>(&format!("char {label}"), input);
        }
        for (label, input) in [("null", "null"), ("number", "1.5"), ("string", r#""1.5""#)] {
            corpus.decode::<f64>(&format!("f64 {label}"), input);
            corpus.decode::<Option<f64>>(&format!("Option<f64> {label}"), input);
        }
        let line_rows: &[(&str, &str)] = &[
            ("cancel", r#"{"Cancel":{"id":"a"}}"#),
            ("cancel extra key", r#"{"Cancel":{"id":"a","why":"now"}}"#),
            ("cancel missing id", r#"{"Cancel":{}}"#),
            (
                "cancel surrogate id",
                r#"{"Cancel":{"id":"job-\uD83D\uDE00"}}"#,
            ),
            ("status null", r#"{"Status":null}"#),
            ("unit form", r#""Cancel""#),
        ];
        for (label, input) in line_rows {
            corpus.decode::<RequestLine>(&format!("RequestLine {label}"), input);
        }
    }

    pub(super) fn build() -> Corpus {
        let mut corpus = Corpus::default();
        wire(&mut corpus);
        edges(&mut corpus);
        inputs(&mut corpus);
        corpus
    }

    pub(super) fn path() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/serde_corpus.txt")
    }
}

/// Every encoding and every decode in the corpus is byte-identical to the
/// committed fixture. Regenerate (only for an intended codec change, and
/// review the diff) with
/// `GOLDEN_REGEN=1 cargo test -p fecim-tests --test serde_roundtrips`.
#[test]
fn codec_corpus_matches_fixture() {
    let corpus = corpus::build();
    let path = corpus::path();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &corpus.text).expect("write the corpus fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("the corpus fixture is committed");
    let (mut ours, mut theirs) = (corpus.text.split("\n### "), committed.split("\n### "));
    loop {
        match (ours.next(), theirs.next()) {
            (None, None) => break,
            (a, b) => assert_eq!(a, b, "the codec corpus drifted"),
        }
    }
}

/// The codec's number fast paths agree with `Display` and `str::parse` on
/// random doubles, short decimals and integers alike.
#[test]
fn float_fast_paths_match_display_and_parse() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..200_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let scale = 10f64.powi((state % 23) as i32);
        let x = match i % 4 {
            0 => f64::from_bits(state),
            1 => (state % 2_000_001) as f64 / 1000.0 - 1000.0,
            2 => (state >> 11) as f64 / scale,
            _ => (state % 100_000) as f64 * scale / 1e4,
        };
        if !x.is_finite() {
            continue;
        }
        let text = serde_json::to_string(&x).unwrap();
        assert_eq!(text, x.to_string(), "{x:e}");
        assert_eq!(
            serde_json::from_str::<f64>(&text).unwrap().to_bits(),
            x.to_bits()
        );
        let sci = format!("{x:e}");
        let parsed: f64 = serde_json::from_str(&sci).unwrap();
        assert_eq!(
            parsed.to_bits(),
            sci.parse::<f64>().unwrap().to_bits(),
            "{sci}"
        );
    }
}
