//! A registration whose initial analysis panics answers a typed error
//! and leaves its shard serving.
//!
//! The circuit is a 320-gate random DAG with 159 levels; at the default
//! sizes its FULLSSTA session build panics on a NaN. Registration must
//! contain that panic the way `Workspace::query` does: nothing is
//! registered, the answer carries code `panic`, and the shard's worker
//! stays alive for the next request.

use vartol::liberty::Library;
use vartol::netlist::generators::{random_dag, RandomDagConfig};
use vartol::netlist::iscas::write_bench;
use vartol_serve::{ServeConfig, ServeRequest, ServeResponse, Service};

#[test]
fn a_panicking_registration_answers_panic_and_the_shard_keeps_serving() {
    let library = Library::synthetic_90nm();
    let config = RandomDagConfig {
        inputs: 6,
        gates: 320,
        window: 5,
    };
    let deep = write_bench(&random_dag(config, 0, &library));
    let service = Service::new(library, ServeConfig::default().with_shards(1));
    let register = |circuit: &str, preset: Option<&str>, bench: Option<String>| {
        let frames = service.call(ServeRequest::Register {
            circuit: circuit.into(),
            preset: preset.map(Into::into),
            bench,
        });
        assert_eq!(frames.len(), 1, "{frames:?}");
        frames[0].payload.clone()
    };

    let ServeResponse::Error { code, message } = register("deep", None, Some(deep)) else {
        panic!("the deep registration must answer an error");
    };
    assert_eq!(code, "panic", "{message}");
    assert!(message.contains("`deep`"), "{message}");

    let registered = register("adder_8", Some("adder_8"), None);
    assert!(
        matches!(&registered, ServeResponse::Registered { circuit, .. } if circuit == "adder_8"),
        "{registered:?}"
    );
    assert_eq!(
        service.call(ServeRequest::ListCircuits)[0].payload,
        ServeResponse::Circuits {
            circuits: vec!["adder_8".to_owned()]
        }
    );
}
