//! The example goldens, diffed in-process: each of the four examples whose
//! output is pinned renders into a buffer, which must equal
//! `examples/golden/<name>.txt` byte for byte. The examples' `main`s print
//! the same `render`, so `cargo run --example <name>` and this test read
//! one code path. The recovery demo runs here too; its output names a
//! temporary directory, so it is checked by its own asserts, not diffed.

#[allow(dead_code)]
#[path = "../examples/distributed_pipeline.rs"]
mod distributed_pipeline;
#[allow(dead_code)]
#[path = "../examples/fault_regions.rs"]
mod fault_regions;
#[allow(dead_code)]
#[path = "../examples/figure5.rs"]
mod figure5;
#[allow(dead_code)]
#[path = "../examples/recovery_demo.rs"]
mod recovery_demo;
#[allow(dead_code)]
#[path = "../examples/torus_routing.rs"]
mod torus_routing;

fn assert_matches_golden(name: &str, render: fn(&mut Vec<u8>) -> std::io::Result<()>) {
    let mut printed = Vec::new();
    render(&mut printed).expect("writing to a buffer cannot fail");
    let path = format!("{}/examples/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let printed = String::from_utf8(printed).expect("examples print UTF-8");
    assert!(
        printed == golden,
        "example {name} drifted from {path}; it now prints:\n{printed}"
    );
}

#[test]
fn figure5_matches_its_golden() {
    assert_matches_golden("figure5", figure5::render);
}

#[test]
fn fault_regions_matches_its_golden() {
    assert_matches_golden("fault_regions", fault_regions::render);
}

#[test]
fn distributed_pipeline_matches_its_golden() {
    assert_matches_golden("distributed_pipeline", distributed_pipeline::render);
}

#[test]
fn torus_routing_matches_its_golden() {
    assert_matches_golden("torus_routing", torus_routing::render);
}

/// The demo asserts the crash's typed error, the recovered generation and
/// fault count, and the restart's generation; it must run to its end.
#[test]
fn recovery_demo_recovers_and_restarts() {
    let mut printed = Vec::new();
    recovery_demo::render(&mut printed).expect("writing to a buffer cannot fail");
    let printed = String::from_utf8(printed).expect("examples print UTF-8");
    assert!(
        printed.contains("shard killed") && printed.contains("process restart resumed at gen"),
        "recovery demo stopped early; it printed:\n{printed}"
    );
}
