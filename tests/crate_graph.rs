//! The crate graph as a test: which workspace crates may depend on which.
//!
//! ARCHITECTURE.md draws the graph; this suite reads it from the manifests
//! (`crates/*/Cargo.toml`, no `cargo metadata`) and pins the edges that keep
//! the paper's two halves separable — the verifier (`lts`, `mucalc`, `serve`,
//! `store`, `cli`) never reaches the actor runtime, and the base crates stay
//! dependency-free. Crates are named by directory, as in the drawing.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// Every crate directory with the sibling crates its manifest names as path
/// dependencies (any section: build, dev and plain dependencies alike).
fn graph() -> BTreeMap<String, BTreeSet<String>> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut graph = BTreeMap::new();
    for entry in fs::read_dir(crates).unwrap() {
        let dir = entry.unwrap().path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        // `name = { path = "../sibling" }`; target entries point further up
        // (`path = "../../tests/x.rs"`) and are not dependencies.
        let deps = manifest
            .lines()
            .filter(|line| !line.trim_start().starts_with('#'))
            .filter_map(|line| line.split_once("path = \"../")?.1.split_once('"'))
            .map(|(sibling, _)| sibling.to_string())
            .filter(|sibling| !sibling.contains('/'))
            .collect();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        graph.insert(name, deps);
    }
    graph
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|n| n.to_string()).collect()
}

#[test]
fn the_base_crates_have_no_workspace_dependencies() {
    let graph = graph();
    for base in ["lambdapi", "obs", "wire"] {
        assert_eq!(graph[base], set(&[]), "{base} must stay dependency-free");
    }
}

#[test]
fn runtime_and_store_sit_directly_on_the_base() {
    let graph = graph();
    assert_eq!(graph["runtime"], set(&["obs"]));
    assert_eq!(graph["store"], set(&["obs"]));
}

#[test]
fn only_the_front_door_and_the_bench_harness_reach_the_runtime() {
    // `effpi` re-exports the runtime DSL for the examples; `bench::fig8`
    // measures it. Nothing on the verification path may pull it in.
    let dependents: BTreeSet<String> = graph()
        .into_iter()
        .filter(|(_, deps)| deps.contains("runtime"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(dependents, set(&["bench", "effpi"]));
}
