//! Wire replay: a fixed script of request lines, answered byte for byte
//! as the fixture `tests/fixtures/wire_replay.txt` records.
//!
//! The fixture pins the deterministic part of every frame the service
//! sends for every verb except `Stats` (whose `propagation_threads`
//! depends on the host): registration in every shape, each cacheable
//! query with its cache hit, the mutating verbs each followed by the
//! query they invalidate, all four optimizers and the `Size` parameter
//! errors in check order, protocol-v4 `RegisterSequential` lines, and
//! malformed lines.
//!
//! # Format
//!
//! * `> <line>` — a request line, decoded with
//!   [`ServeRequest::from_line`] and routed through [`Service::call`] on
//!   a 1-shard service. A line that fails to decode answers the
//!   `bad-request` frame `serve_lines` would send.
//! * `>! <line>` — the same, for a line whose answer changed when
//!   protocol v5 removed EDIF input: a `RegisterSequential` line with a
//!   non-null `edif`, or one without `bench`. The comment below each
//!   records its protocol-v4 answer.
//! * `< <frame>` — one expected frame, `wall_us` stripped
//!   ([`deterministic_part`]).
//! * `#` lines are comments.
//!
//! On a mismatch the whole actual transcript is written next to the
//! test binary's scratch directory (the path is in the panic message).

use vartol::liberty::Library;
use vartol_serve::protocol::deterministic_part;
use vartol_serve::{Frame, ServeConfig, ServeRequest, ServeResponse, Service};

const FIXTURE: &str = include_str!("fixtures/wire_replay.txt");

/// Whether a marked line is one protocol v5 may answer differently: a
/// `RegisterSequential` with a non-null `edif` or without `bench` text.
fn may_change(request: &str) -> bool {
    request.starts_with(r#"{"RegisterSequential":"#)
        && (request.contains(r#""edif":""#) || !request.contains(r#""bench":""#))
}

#[test]
fn every_wire_line_answers_the_recorded_bytes() {
    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect();
    let service = Service::new(
        Library::synthetic_90nm(),
        ServeConfig::default().with_shards(1),
    );
    let mut actual: Vec<String> = Vec::new();
    for line in &expected {
        let (marker, request) = line.split_once(' ').expect("`<marker> <text>` lines");
        match marker {
            "<" => continue,
            ">" => {}
            ">!" => assert!(may_change(request), "wrongly marked: {request}"),
            other => panic!("unknown marker `{other}`"),
        }
        actual.push((*line).to_owned());
        // A line that fails to decode answers what `serve_lines` sends.
        let frames = match ServeRequest::from_line(request) {
            Ok(request) => service.call(request),
            Err(message) => vec![Frame::new(ServeResponse::error(message), 0)],
        };
        actual.extend(
            frames
                .iter()
                .map(|frame| format!("< {}", deterministic_part(&frame.to_line()))),
        );
    }
    assert!(actual.len() >= 190, "the fixture lost its script");
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_replay.actual.txt");
        std::fs::write(&path, actual.join("\n") + "\n").expect("write the actual transcript");
        let (want, got) = expected
            .iter()
            .zip(&actual)
            .find(|(want, got)| **want != got.as_str())
            .map_or(("<end>", "<end>"), |(want, got)| (*want, got.as_str()));
        panic!(
            "the answers differ from the fixture (actual transcript: {}):\n\
             expected {want}\n     got {got}",
            path.display()
        );
    }
}
