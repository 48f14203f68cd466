//! Integration tests for the declarative scenario layer: TOML round-trips,
//! the shipped scenario files, and deterministic table generation.

use mcc_bench::runner::{run_scenario, TableRows};
use mcc_bench::scenario::{MeshDims, RouterChoice, Scenario, TableKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every scenario file shipped under `scenarios/` must parse, validate,
/// and survive a serialize → parse round-trip unchanged.
#[test]
fn shipped_scenarios_parse_and_round_trip() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let scenario = Scenario::load(&path)
            .unwrap_or_else(|e| panic!("{} must be valid: {e}", path.display()));
        let back = Scenario::from_toml(&scenario.to_toml())
            .unwrap_or_else(|e| panic!("{} must round-trip: {e}", path.display()));
        assert_eq!(
            scenario,
            back,
            "{} round-trip changed the scenario",
            path.display()
        );
        seen += 1;
    }
    assert!(
        seen >= 10,
        "expected the E1–E8 scenario files, found {seen}"
    );
}

/// The two scenario files named by the experiment map must describe what
/// EXPERIMENTS.md says they describe.
#[test]
fn named_scenarios_have_expected_shape() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let e1 = Scenario::load(format!("{root}/e1_regions_2d.toml")).unwrap();
    assert_eq!(e1.table, TableKind::Regions);
    assert_eq!(
        e1.dims,
        MeshDims::D2 {
            width: 32,
            height: 32
        }
    );

    let e3 = Scenario::load(format!("{root}/e3_routing_3d.toml")).unwrap();
    assert_eq!(e3.table, TableKind::Routing);
    assert_eq!(
        e3.dims,
        MeshDims::D3 {
            x: 16,
            y: 16,
            z: 16
        }
    );
    assert_eq!(e3.router, RouterChoice::All);
    assert_eq!(e3.min_dist_frac, 1.0);

    // The protocol-layer scenarios added with the flat-engine refactor.
    let e6 = Scenario::load(format!("{root}/e6_overhead_3d.toml")).unwrap();
    assert_eq!(e6.table, TableKind::Overhead);
    assert_eq!(
        e6.dims,
        MeshDims::D3 {
            x: 16,
            y: 16,
            z: 16
        }
    );

    let e7 = Scenario::load(format!("{root}/e7_labelling_2d.toml")).unwrap();
    assert_eq!(e7.table, TableKind::Labelling);
    assert_eq!(
        e7.dims,
        MeshDims::D2 {
            width: 32,
            height: 32
        }
    );

    // The incremental-maintenance churn scenario (E12).
    let e12 = Scenario::load(format!("{root}/e12_churn_2d.toml")).unwrap();
    assert_eq!(e12.table, TableKind::Churn);
    assert_eq!(
        e12.dims,
        MeshDims::D2 {
            width: 16,
            height: 16
        }
    );
    assert_eq!(e12.churn_rounds, 12);
    assert_eq!(e12.churn_rate, 0.25);
}

/// A small labelling scenario runs the protocol layer through the runner
/// deterministically, and its rows carry the convergence metrics.
#[test]
fn labelling_scenario_runs_deterministically() {
    let text = r#"
        name = "smoke labelling"
        table = "labelling"

        [mesh]
        dims = [12, 12]

        [faults]
        counts = [5, 20]

        [run]
        seeds = [0, 8]
    "#;
    let scenario = Scenario::from_toml(text).unwrap();
    let a = run_scenario(&scenario).unwrap();
    let b = run_scenario(&scenario).unwrap();
    let rows = match &a.rows {
        TableRows::Labelling(rows) => rows,
        _ => panic!("labelling scenario must yield labelling rows"),
    };
    assert_eq!(rows.len(), 2);
    for r in rows {
        assert_eq!(r.converged, 1.0, "labelling must reach quiescence");
        // Round 0 alone sends one announcement per directed edge.
        assert!(r.messages >= (2 * (2 * 12 * 11)) as f64);
        assert!(r.rounds >= 2.0);
        assert!(r.max_inflight <= r.messages);
    }
    assert_eq!(a.render(), b.render());
    assert!(a.render().contains("max-inflight"));
}

/// The large-mesh E9 scenario (128×128, E4 fault ramp, 48 pairs batched
/// per fault configuration) runs through the prepared-mesh pipeline in
/// quick mode, deterministically, and its rows respect the model
/// orderings. Without pair batching this sweep would rebuild the
/// 16k-node models once per pair and be unusable as a smoke test.
#[test]
fn e9_large_scenario_quick_runs_batched() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let e9 = Scenario::load(format!("{root}/e9_routing_2d_large.toml")).unwrap();
    assert_eq!(e9.table, TableKind::Routing);
    assert_eq!(
        e9.dims,
        MeshDims::D2 {
            width: 128,
            height: 128
        }
    );
    assert_eq!(e9.pairs_per_seed, 48);
    let quick = e9.quick();
    let a = run_scenario(&quick).unwrap();
    let b = run_scenario(&quick).unwrap();
    let rows = match &a.rows {
        TableRows::Routing(rows) => rows,
        _ => panic!("routing scenario must yield routing rows"),
    };
    assert_eq!(rows.len(), e9.fault_counts.len());
    for r in rows {
        // The MCC condition is exact and the block model conservative on
        // every one of the seeds × pairs trials behind this row.
        assert!((r.mcc - r.oracle).abs() < 1e-12, "row {}", r.faults);
        assert!(r.rfb <= r.mcc + 1e-12, "row {}", r.faults);
        assert!(r.greedy <= r.oracle + 1e-12, "row {}", r.faults);
    }
    assert_eq!(a.render(), b.render(), "batched rows must be deterministic");
}

/// The torus scenarios run through the batched prepared-mesh path in
/// quick mode, deterministically, with the model orderings intact (the
/// MCC condition stays exact on tori; the block model stays
/// conservative).
#[test]
fn torus_scenarios_quick_run_batched() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    for (file, expect_2d) in [("e10_torus_2d.toml", true), ("e11_torus_3d.toml", false)] {
        let sc = Scenario::load(format!("{root}/{file}")).unwrap();
        assert_eq!(sc.table, TableKind::Routing, "{file}");
        assert!(sc.wrap, "{file} must be a torus scenario");
        assert!(sc.pairs_per_seed > 1, "{file} must batch pairs");
        match (sc.dims, expect_2d) {
            (MeshDims::D2 { .. }, true) | (MeshDims::D3 { .. }, false) => {}
            other => panic!("{file}: unexpected dims {other:?}"),
        }
        let quick = sc.quick();
        let a = run_scenario(&quick).unwrap();
        let b = run_scenario(&quick).unwrap();
        let rows = match &a.rows {
            TableRows::Routing(rows) => rows,
            _ => panic!("routing scenario must yield routing rows"),
        };
        assert_eq!(rows.len(), sc.fault_counts.len(), "{file}");
        for r in rows {
            assert!((r.mcc - r.oracle).abs() < 1e-12, "{file} row {}", r.faults);
            assert!(r.rfb <= r.mcc + 1e-12, "{file} row {}", r.faults);
            assert!(r.greedy <= r.oracle + 1e-12, "{file} row {}", r.faults);
        }
        assert_eq!(a.render(), b.render(), "{file} rows must be deterministic");
    }
}

/// The wrap knob parses, round-trips, and rejects the combinations the
/// runner cannot execute.
#[test]
fn wrap_knob_parses_and_validates() {
    let torus = "name = \"t\"\ntable = \"routing\"\n[mesh]\ndims = [8, 8]\nwrap = true\n\
                 [faults]\ncounts = [4]\n[run]\nseeds = [0, 2]\n";
    let sc = Scenario::from_toml(torus).unwrap();
    assert!(sc.wrap);
    let back = Scenario::from_toml(&sc.to_toml()).unwrap();
    assert_eq!(sc, back, "wrap must round-trip");

    // Torus extents below 3 are rejected.
    let tiny = torus.replace("dims = [8, 8]", "dims = [2, 8]");
    let err = Scenario::from_toml(&tiny).unwrap_err();
    assert!(err.to_string().contains(">= 3"), "got: {err}");
    // Overhead tables refuse wrap at load time, like every other
    // unexecutable knob combination.
    let overhead = torus
        .replace("table = \"routing\"", "table = \"overhead\"")
        .replace("dims = [8, 8]", "dims = [8, 8, 8]");
    let err = Scenario::from_toml(&overhead).unwrap_err();
    assert!(
        err.to_string().contains("identification-walk"),
        "got: {err}"
    );
    // A separation requirement beyond the torus diameter can never be
    // satisfied: reject instead of spinning the pair sampler forever.
    let undark = torus.replace("dims = [8, 8]", "dims = [32, 4]");
    let far = format!("{undark}min_dist_frac = 1.0\n");
    let err = Scenario::from_toml(&far).unwrap_err();
    assert!(err.to_string().contains("diameter"), "got: {err}");
}

/// Malformed scenario TOML surfaces a typed parse error carrying the
/// offending line, through `Scenario::from_toml` and `Scenario::load`.
#[test]
fn malformed_toml_reports_the_offending_line() {
    use mcc_bench::scenario::ScenarioError;
    let text = "name = \"x\"\ntable = \"routing\"\n\n[mesh\ndims = [8, 8]\n";
    let err = Scenario::from_toml(text).unwrap_err();
    assert_eq!(err.line(), Some(4), "got: {err:?}");
    assert!(matches!(err, ScenarioError::Parse(_)));
    assert!(
        err.to_string().contains("line 4"),
        "message must carry the line: {err}"
    );

    // Through a file too (what the tables binary prints before exiting
    // nonzero).
    let dir = std::env::temp_dir().join("mcc_bench_scenario_err_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.toml");
    std::fs::write(&path, "name = \"x\"\nbroken line\n").unwrap();
    let err = Scenario::load(&path).unwrap_err();
    assert_eq!(err.line(), Some(2), "got: {err:?}");

    // Knob violations keep the Invalid flavor (no line).
    let err = Scenario::from_toml(
        "name = \"x\"\ntable = \"routing\"\n[mesh]\ndims = [8, 8]\n\
         [faults]\ncounts = [63]\n[run]\nseeds = [0, 2]\n",
    )
    .unwrap_err();
    assert!(matches!(err, ScenarioError::Invalid(_)));
    assert_eq!(err.line(), None);
    assert!(err.to_string().contains("fault rate"), "got: {err}");
}

/// Knob validation also guards programmatically assembled scenarios at
/// run time (the public-fields path the TOML layer never sees).
#[test]
fn runner_revalidates_programmatic_scenarios() {
    let mut sc = Scenario::routing_2d(10, &[4], 4);
    sc.pairs_per_seed = 0;
    let err = run_scenario(&sc).unwrap_err();
    assert!(err.to_string().contains("pairs_per_seed"), "got: {err}");

    let mut sc = Scenario::routing_2d(10, &[4], 4);
    sc.min_dist_frac = 1.5;
    let err = run_scenario(&sc).unwrap_err();
    assert!(err.to_string().contains("min_dist_frac"), "got: {err}");

    let mut sc = Scenario::routing_2d(10, &[4], 4);
    sc.dims = MeshDims::D2 {
        width: 0,
        height: 10,
    };
    let err = run_scenario(&sc).unwrap_err();
    assert!(err.to_string().contains("2..=4096"), "got: {err}");

    let mut sc = Scenario::routing_2d(10, &[4], 4);
    sc.seed_end = sc.seed_start;
    let err = run_scenario(&sc).unwrap_err();
    assert!(err.to_string().contains("seeds"), "got: {err}");
}

/// A tiny 8×8 scenario produces bit-identical table rows for a fixed seed
/// range, run after run — the determinism contract of the runner.
#[test]
fn tiny_scenario_is_deterministic() {
    let text = r#"
        name = "smoke 8x8"
        table = "routing"

        [mesh]
        dims = [8, 8]

        [faults]
        counts = [4, 8]
        pattern = "uniform"
        border = "safe"

        [run]
        seeds = [0, 16]
        router = "all"
        min_dist_frac = 0.5
    "#;
    let scenario = Scenario::from_toml(text).unwrap();
    let a = run_scenario(&scenario).unwrap();
    let b = run_scenario(&scenario).unwrap();
    let (ra, rb) = match (&a.rows, &b.rows) {
        (TableRows::Routing(ra), TableRows::Routing(rb)) => (ra, rb),
        _ => panic!("routing scenario must yield routing rows"),
    };
    assert_eq!(ra.len(), 2);
    for (x, y) in ra.iter().zip(rb.iter()) {
        assert_eq!(x.faults, y.faults);
        assert_eq!(
            x.oracle.to_bits(),
            y.oracle.to_bits(),
            "oracle column must be identical"
        );
        assert_eq!(x.mcc.to_bits(), y.mcc.to_bits());
        assert_eq!(x.rfb.to_bits(), y.rfb.to_bits());
        assert_eq!(x.greedy.to_bits(), y.greedy.to_bits());
        assert_eq!(x.mcc_adaptivity.to_bits(), y.mcc_adaptivity.to_bits());
        assert_eq!(x.detection_cost.to_bits(), y.detection_cost.to_bits());
    }
    // The rendered table is likewise byte-identical.
    assert_eq!(a.render(), b.render());
    // And the MCC condition stays exact on the sampled trials.
    for r in ra {
        assert!((r.mcc - r.oracle).abs() < 1e-12);
    }
}

/// Determinism also holds for region tables on a 3-D mesh, and rows track
/// the requested fault ramp.
#[test]
fn region_rows_follow_the_ramp() {
    let text = r#"
        name = "smoke regions"
        table = "regions"

        [mesh]
        dims = [6, 6, 6]

        [faults]
        counts = [2, 6, 12]
        pattern = "clustered"
        clusters = 2
        border = "safe"

        [run]
        seeds = [3, 11]
    "#;
    let scenario = Scenario::from_toml(text).unwrap();
    let a = run_scenario(&scenario).unwrap();
    let b = run_scenario(&scenario).unwrap();
    let rows = match &a.rows {
        TableRows::Regions(rows) => rows,
        _ => panic!("regions scenario must yield region rows"),
    };
    assert_eq!(
        rows.iter().map(|r| r.faults).collect::<Vec<_>>(),
        vec![2, 6, 12]
    );
    for r in rows {
        assert!(
            r.mcc <= r.rfb + 1e-12,
            "MCC must sacrifice no more than RFB"
        );
    }
    assert_eq!(a.render(), b.render());
}

/// Tokens the mutation battery splices into scenario text: TOML
/// structure, and numbers at the edges of the value parser.
const TOKENS: [&str; 10] = [
    "[",
    "]",
    "\"",
    "=",
    "\n",
    "#",
    "-",
    "nan",
    "1e400",
    "9999999999999999999999",
];

/// One to two byte-level edits of `text`: delete a byte, insert a token,
/// overwrite with a token, or cut a span of up to 16 bytes.
fn mutate(text: &str, rng: &mut SmallRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=2) {
        let at = rng.gen_range(0..=bytes.len());
        let token = TOKENS[rng.gen_range(0..TOKENS.len())].bytes();
        match rng.gen_range(0..4) {
            0 => {
                if at < bytes.len() {
                    bytes.remove(at);
                }
            }
            1 => {
                bytes.splice(at..at, token);
            }
            2 => {
                let end = (at + token.len()).min(bytes.len());
                bytes.splice(at..end, token);
            }
            _ => {
                let end = (at + rng.gen_range(1..=16)).min(bytes.len());
                bytes.drain(at..end);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Deterministic mutation battery over every shipped scenario: parsing
/// never panics, and whatever parses is valid and survives a
/// `to_toml` → `from_toml` round trip unchanged.
#[test]
fn mutated_scenarios_parse_or_fail_cleanly() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    let (mut accepted, mut total) = (0, 0);
    for (seed, path) in paths.iter().enumerate() {
        let text = std::fs::read_to_string(path).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed as u64);
        for _ in 0..700 {
            let mutated = mutate(&text, &mut rng);
            total += 1;
            let Ok(scenario) = Scenario::from_toml(&mutated) else {
                continue;
            };
            accepted += 1;
            let ctx = || format!("{} mutated to:\n{mutated}", path.display());
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{e}: {}", ctx()));
            let back = Scenario::from_toml(&scenario.to_toml())
                .unwrap_or_else(|e| panic!("round trip failed ({e}): {}", ctx()));
            assert_eq!(scenario, back, "round trip changed {}", ctx());
        }
    }
    assert!(
        0 < accepted && accepted < total,
        "the battery must exercise both outcomes ({accepted} of {total} parsed)"
    );
}

/// The same scenario passed twice (the second time through a respelled
/// path) must print exactly one table.
#[test]
fn tables_binary_runs_a_repeated_path_once() {
    let dir = std::env::temp_dir().join(format!("mcc-tables-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dedupe.toml");
    std::fs::write(&path, Scenario::regions_2d(8, &[2], 2).to_toml()).expect("write scenario");
    let respelled = dir.join(".").join("dedupe.toml");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg(&path)
        .arg(&path)
        .arg(&respelled)
        .output()
        .expect("run tables");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(
        stdout.matches("== ").count(),
        1,
        "deduped run prints one table: {stdout}"
    );
}

/// A valid routing scenario so faulty that no healthy pair meets the
/// separation: 34 faults leave two healthy nodes on a 6x6 mesh.
const DENSE: &str = "\
name = \"dense\"
table = \"routing\"
[mesh]
dims = [6, 6]
[faults]
counts = [34]
[run]
seeds = [0, 4]
pairs_per_seed = 2
min_dist_frac = 1.0
";

/// Running out of healthy pairs is a scenario error naming the fault
/// count, the batch size and the separation, never a panic: in process
/// and through the `tables` binary.
#[test]
fn overfaulted_routing_scenario_is_an_error_not_a_panic() {
    let sc = Scenario::from_toml(DENSE).expect("the scenario is valid");
    let err = run_scenario(&sc).expect_err("no healthy pair can be drawn");
    let msg = err.to_string();
    for part in ["34 faults", "6 hops", "pairs_per_seed = 2"] {
        assert!(msg.contains(part), "`{part}` missing from: {msg}");
    }

    let dir = std::env::temp_dir().join(format!("mcc-tables-dense-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dense.toml");
    std::fs::write(&path, DENSE).expect("write scenario");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg(&path)
        .output()
        .expect("run tables");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "tables accepted it: {stderr}");
    assert!(stderr.contains("34 faults"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
