//! Throughput of the `.bench` reader, the first layer of every served
//! `Register` and of each suite loader.
//!
//! The `parse_bench` group times one parse of two texts: `dag_25k`, the
//! `random_dag` (256 inputs, 25,000 gates, window 2048, seed 7) written
//! as `.bench`, and the shipped ISCAS-89 stand-in `data/s1196_like.bench`.
//! Each timed parse includes dropping the netlist it built.
//!
//! `netlist_clone/dag_25k` times one clone (and drop) of that DAG's
//! netlist, what every session, fork and sizer worker copy pays, and
//! `check_invariants/fanout_40k` the structural check `Register` runs,
//! on one input feeding 40,000 inverters.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vartol_liberty::{Library, LogicFunction};
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_netlist::iscas::{parse_bench, write_bench};
use vartol_netlist::NetlistBuilder;

fn bench_parse(c: &mut Criterion) {
    let dag = RandomDagConfig {
        inputs: 256,
        gates: 25_000,
        window: 2048,
    };
    let dag_25k = write_bench(&random_dag(dag, 7, &Library::synthetic_90nm()));
    let s1196 = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../data/s1196_like.bench"
    ))
    .expect("shipped data/s1196_like.bench");

    let mut group = c.benchmark_group("parse_bench");
    group.sample_size(20);
    for (name, text) in [("dag_25k", &dag_25k), ("s1196_like", &s1196)] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(parse_bench(text, name).expect("valid").node_count()));
        });
    }
    group.finish();

    let netlist = parse_bench(&dag_25k, "dag_25k").expect("valid");
    let mut group = c.benchmark_group("netlist_clone");
    group.sample_size(20);
    group.bench_function("dag_25k", |b| {
        b.iter(|| black_box(netlist.clone()).node_count());
    });
    group.finish();

    let mut fanout = NetlistBuilder::new("fanout_40k");
    let a = fanout.input("a");
    for i in 0..40_000 {
        let g = fanout.gate(format!("g{i}"), LogicFunction::Inv, &[a]);
        fanout.mark_output(g);
    }
    let fanout = fanout.build().expect("valid");
    let mut group = c.benchmark_group("check_invariants");
    group.sample_size(20);
    group.bench_function("fanout_40k", |b| {
        b.iter(|| black_box(fanout.check_invariants()).is_ok());
    });
    group.finish();
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
