//! The sequential timing subsystem's determinism contract, end to end.
//!
//! * Per-path-group setup slack on an ISCAS-89 circuit loaded from
//!   `data/` is **bit-identical at every pool width** for all four
//!   engines — the width is a throughput knob, never an answer knob
//!   (CI re-runs this suite at the built-in 1/2/8 widths plus a
//!   16-wide pool via `VARTOL_SIZER_THREADS`).
//! * A warm workspace — one that has already analyzed, resized, and
//!   re-clocked — answers sequential queries byte-equal to a fresh
//!   workspace at the same sizes and clock.
//! * `SetClock` is exact: moving the period by Δ moves every reg→reg
//!   slack by Δ (same uncertainty), because the clock enters the slack
//!   as a pure budget offset.
//! * The serve layer preserves all of it: `Register` +
//!   `SetClock` + `GroupSlack`/`Wns`/`Tns` return identical payloads
//!   at every shard count, warm (cached) answers byte-equal cold ones.

use vartol::liberty::Library;
use vartol::netlist::iscas::parse_bench;
use vartol::ssta::EngineKind;
use vartol::workspace::{Answer, Request, Workspace, WorkspaceConfig};
use vartol_serve::{ServeConfig, ServeRequest, ServeResponse, Service};

/// The compared pool widths: 1 (serial reference), 2, 8, plus any extra
/// width from `VARTOL_SIZER_THREADS` (the same knob the other
/// determinism suites use for the 16-wide CI rows).
fn widths() -> Vec<usize> {
    let mut widths = vec![1, 2, 8];
    if let Ok(extra) = std::env::var("VARTOL_SIZER_THREADS") {
        widths.push(
            extra
                .parse()
                .expect("VARTOL_SIZER_THREADS must be a thread count"),
        );
    }
    widths
}

fn bench_text(name: &str) -> String {
    let path = format!("{}/data/{name}.bench", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A workspace holding the two shipped sequential `.bench` circuits
/// plus the sequential generator preset, all clocked.
fn sequential_workspace(threads: usize) -> Workspace {
    let mut ws = Workspace::new(
        Library::synthetic_90nm(),
        WorkspaceConfig::default()
            .with_threads(threads)
            .with_mc_samples(400)
            .with_mc_seed(0xDA7E_2005),
    );
    for name in ["s27", "s344_like"] {
        let netlist = parse_bench(&bench_text(name), name).expect("shipped bench parses");
        assert!(netlist.is_sequential(), "{name} must carry registers");
        ws.register(name, netlist).expect("registers");
    }
    ws.register_preset("pipeline_adder_16")
        .expect("known preset");
    for (circuit, period) in [
        ("s27", 600.0),
        ("s344_like", 500.0),
        ("pipeline_adder_16", 700.0),
    ] {
        let response = ws.query(Request::SetClock {
            circuit: circuit.into(),
            period,
            uncertainty: 25.0,
        });
        assert!(
            matches!(response.answer, Answer::ClockSet { .. }),
            "{circuit}: {:?}",
            response.answer
        );
    }
    ws
}

/// Every sequential query on every circuit under every engine.
fn sequential_batch() -> Vec<Request> {
    let mut requests = Vec::new();
    for circuit in ["s27", "s344_like", "pipeline_adder_16"] {
        for kind in EngineKind::ALL {
            requests.push(Request::GroupSlack {
                circuit: circuit.into(),
                kind,
            });
            requests.push(Request::Wns {
                circuit: circuit.into(),
                kind,
            });
            requests.push(Request::Tns {
                circuit: circuit.into(),
                kind,
            });
        }
    }
    requests
}

fn answers(ws: &mut Workspace, requests: &[Request]) -> Vec<Answer> {
    ws.submit(requests)
        .into_iter()
        .map(|r| {
            assert!(
                !matches!(r.answer, Answer::Error { .. }),
                "sequential query failed: {:?}",
                r.answer
            );
            r.answer
        })
        .collect()
}

/// Acceptance: group slacks from a `data/` circuit are bit-identical
/// at every pool width, for all four engines. `Answer` derives
/// `PartialEq` over raw `f64`s, so equality here is bitwise up to NaN
/// (and the batch asserts no errors, so no NaNs hide behind variants).
#[test]
fn group_slacks_are_bit_identical_at_every_pool_width() {
    let requests = sequential_batch();
    let reference = answers(&mut sequential_workspace(1), &requests);
    // The serial reference must actually cover registers: the first
    // group-slack answer is s27's, whose three clocked groups all
    // carry endpoints.
    let s27_rows = reference
        .iter()
        .find_map(|a| match a {
            Answer::GroupSlack { groups, .. } => Some(groups.clone()),
            _ => None,
        })
        .expect("batch contains group-slack answers");
    assert_eq!(s27_rows.len(), 4);
    assert!(s27_rows.iter().take(3).all(|g| g.endpoints > 0));
    for width in widths().into_iter().skip(1) {
        let wide = answers(&mut sequential_workspace(width), &requests);
        assert_eq!(
            reference, wide,
            "sequential answers diverged at pool width {width}"
        );
    }
}

/// Acceptance: a warm workspace (analyses ran, a gate was resized, the
/// clock was replaced) answers sequential queries exactly like a fresh
/// workspace brought to the same sizes and clock.
#[test]
fn warm_workspace_matches_a_fresh_one() {
    let mut warm = sequential_workspace(2);
    // Warm it up: full analyses, a resize, and a clock replacement.
    for kind in EngineKind::ALL {
        let _ = warm.query(Request::Analyze {
            circuit: "s344_like".into(),
            kind,
        });
    }
    warm.netlist("s344_like")
        .expect("registered")
        .gate_by_name("A0")
        .expect("generated gate A0");
    let resized = warm.query(Request::Resize {
        circuit: "s344_like".into(),
        gate: "A0".into(),
        size: 4,
    });
    assert!(
        !matches!(resized.answer, Answer::Error { .. }),
        "{:?}",
        resized.answer
    );
    let _ = warm.query(Request::SetClock {
        circuit: "s344_like".into(),
        period: 800.0,
        uncertainty: 10.0,
    });

    let mut fresh = sequential_workspace(2);
    let _ = fresh.query(Request::Resize {
        circuit: "s344_like".into(),
        gate: "A0".into(),
        size: 4,
    });
    let _ = fresh.query(Request::SetClock {
        circuit: "s344_like".into(),
        period: 800.0,
        uncertainty: 10.0,
    });

    let requests: Vec<Request> = EngineKind::ALL
        .into_iter()
        .flat_map(|kind| {
            [
                Request::GroupSlack {
                    circuit: "s344_like".into(),
                    kind,
                },
                Request::Wns {
                    circuit: "s344_like".into(),
                    kind,
                },
                Request::Tns {
                    circuit: "s344_like".into(),
                    kind,
                },
            ]
        })
        .collect();
    assert_eq!(
        answers(&mut warm, &requests),
        answers(&mut fresh, &requests),
        "warm sequential answers must equal a from-scratch workspace"
    );
}

/// Acceptance: the clock is a pure budget offset — replacing it moves
/// every clocked group's slack by exactly the budget delta.
#[test]
fn set_clock_shifts_clocked_slack_by_the_budget_delta() {
    let mut ws = sequential_workspace(1);
    let slack_at = |ws: &mut Workspace, period: f64, uncertainty: f64| -> Vec<(String, f64)> {
        let _ = ws.query(Request::SetClock {
            circuit: "s344_like".into(),
            period,
            uncertainty,
        });
        match ws
            .query(Request::GroupSlack {
                circuit: "s344_like".into(),
                kind: EngineKind::Dsta,
            })
            .answer
        {
            Answer::GroupSlack { groups, .. } => {
                groups.into_iter().map(|g| (g.group, g.wns)).collect()
            }
            other => panic!("unexpected answer {other:?}"),
        }
    };
    let before = slack_at(&mut ws, 500.0, 25.0);
    // Same uncertainty, period +250: budget moves by exactly +250.
    let after = slack_at(&mut ws, 750.0, 25.0);
    for ((group, wns_before), (group_after, wns_after)) in before.iter().zip(&after) {
        assert_eq!(group, group_after);
        assert!(
            (wns_after - wns_before - 250.0).abs() < 1e-9,
            "{group}: {wns_before} -> {wns_after}, want an exact +250 shift"
        );
    }
}

/// Acceptance: the wire layer preserves the whole contract — identical
/// sequential payloads at every shard count, and cached (warm) answers
/// byte-equal the computed (cold) ones.
#[test]
fn serve_answers_are_identical_at_every_shard_count() {
    let library = Library::synthetic_90nm();
    let run = |shards: usize| -> Vec<ServeResponse> {
        let service = Service::new(
            &library,
            ServeConfig::default()
                .with_shards(shards)
                .with_workspace(WorkspaceConfig::default().with_mc_samples(400)),
        );
        let mut payloads = Vec::new();
        for name in ["s27", "s344_like"] {
            let frames = service.call(ServeRequest::Register {
                circuit: name.into(),
                preset: None,
                bench: Some(bench_text(name)),
            });
            match frames.first().map(|f| &f.payload) {
                Some(ServeResponse::Registered { registers, .. }) => {
                    assert!(*registers > 0, "{name} must report its registers");
                }
                other => panic!("{name}: registration failed: {other:?}"),
            }
            let frames = service.call(ServeRequest::SetClock {
                circuit: name.into(),
                period: 650.0,
                uncertainty: 15.0,
            });
            assert!(
                matches!(
                    frames.first().map(|f| &f.payload),
                    Some(ServeResponse::ClockSet { .. })
                ),
                "{name}: SetClock failed: {frames:?}"
            );
            for kind in EngineKind::ALL {
                for request in [
                    ServeRequest::GroupSlack {
                        circuit: name.into(),
                        kind,
                    },
                    ServeRequest::Wns {
                        circuit: name.into(),
                        kind,
                    },
                    ServeRequest::Tns {
                        circuit: name.into(),
                        kind,
                    },
                ] {
                    let cold = service.call(request.clone());
                    let warm = service.call(request);
                    assert_eq!(
                        cold.first().map(|f| &f.payload),
                        warm.first().map(|f| &f.payload),
                        "{name}: cached payload diverged from the computed one"
                    );
                    payloads.push(cold.into_iter().next().expect("one frame").payload);
                }
            }
        }
        payloads
    };
    let reference = run(1);
    assert!(reference
        .iter()
        .all(|p| !matches!(p, ServeResponse::Error { .. })));
    for shards in [2, 4] {
        assert_eq!(
            reference,
            run(shards),
            "serve sequential payloads diverged at {shards} shards"
        );
    }
}
