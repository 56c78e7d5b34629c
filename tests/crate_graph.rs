//! The crate graph as a test: which workspace crates may depend on which.
//!
//! ARCHITECTURE.md draws the graph; this suite reads it from the manifests
//! (`crates/*/Cargo.toml`, no `cargo metadata`) and pins the edges that keep
//! the paper's two halves separable — the verifier (`lts`, `mucalc`, `serve`,
//! `store`, `cli`) never reaches the actor runtime, and the base crates stay
//! dependency-free. Crates are named by directory, as in the drawing. It also
//! pins that `cli` is the only crate with a binary, and reads the crates'
//! sources for two rules the manifests cannot show: the core's sharded
//! tables have one definition, and so does the parallel-composition rule of
//! the two transition semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

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
fn only_the_front_door_reaches_the_runtime() {
    // `effpi` re-exports the runtime DSL for the examples (the Fig. 8 sweep
    // among them). Nothing on the verification path may pull it in.
    let dependents: BTreeSet<String> = graph()
        .into_iter()
        .filter(|(_, deps)| deps.contains("runtime"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(dependents, set(&["effpi"]));
}

#[test]
fn only_the_cli_builds_binaries() {
    // One binary, `effpi-cli`; measurements live in the standalone
    // `benchmark/` package, tables and walkthroughs in `examples/`, checks
    // in tests. A per-question harness binary or bench target would grow a
    // second measuring system beside the benchmark.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut offenders = Vec::new();
    for entry in fs::read_dir(crates).unwrap() {
        let dir = entry.unwrap().path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        if name == "cli" {
            continue;
        }
        // Declared targets, and the ones cargo discovers by file layout.
        let declares = |table: &str| manifest.lines().any(|line| line.trim() == table);
        let discovered = ["src/main.rs", "src/bin", "benches"]
            .iter()
            .any(|path| dir.join(path).exists());
        if declares("[[bin]]") || declares("[[bench]]") || discovered {
            offenders.push(name);
        }
    }
    offenders.sort();
    assert!(
        offenders.is_empty(),
        "crates other than cli with a binary or bench target: {offenders:?}"
    );
}

#[test]
fn sharded_tables_have_one_definition() {
    // Every sharded cache or id table of the core is a `Memo` or an `Arena`
    // from `lambdapi::intern`, the lowest crate its users depend on. The one
    // exemption is `obs`'s registry: a name-keyed handle registry in a base
    // crate that `lambdapi` does not depend on, so it cannot use them.
    const EXEMPT: [&str; 2] = ["lambdapi/src/intern.rs", "obs/src/registry.rs"];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut pending: Vec<PathBuf> = fs::read_dir(crates)
        .unwrap()
        .map(|entry| entry.unwrap().path().join("src"))
        .collect();
    let mut offenders = Vec::new();
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            pending.extend(fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
            continue;
        }
        let rel = path.strip_prefix(crates).unwrap().to_string_lossy();
        if !rel.ends_with(".rs") || EXEMPT.contains(&rel.as_ref()) {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        if text.contains("Vec<Mutex<HashMap")
            || text.contains("Vec<Mutex<Vec<Option")
            || text
                .lines()
                .any(|line| line.contains("const ") && line.contains("SHARDS:"))
        {
            offenders.push(rel.into_owned());
        }
    }
    offenders.sort();
    assert!(
        offenders.is_empty(),
        "hand-rolled sharded tables (use lambdapi::intern::{{Memo, Arena}}): {offenders:?}"
    );
}

#[test]
fn parallel_composition_has_one_definition() {
    // Terms (Def. 4.1, Fig. 5) and types (Def. 4.2, Fig. 6) compose in
    // parallel by the same rule: interleave one component's move, or let one
    // component's output meet another's input. `lts`'s private
    // `product::par_successors` is its one implementation and both builders'
    // `Par` arms call it. Overwriting component slot `i` or `j`, or guarding
    // an ordered pair `(i, j)`, anywhere else in the crate's non-test code is
    // a second copy of that loop.
    const MARKS: [&str; 5] = ["[i] =", "[j] =", "i == j", "i != j", "j != i"];
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .join("lts/src");
    let code = |file: &str| {
        let text = fs::read_to_string(src.join(file)).unwrap();
        text.split("#[cfg(test)]").next().unwrap().to_string()
    };
    let mut loops: Vec<String> = fs::read_dir(&src)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|file| file.ends_with(".rs"))
        .filter(|file| {
            code(file)
                .lines()
                .any(|l| MARKS.iter().any(|m| l.contains(m)))
        })
        .collect();
    loops.sort();
    assert_eq!(loops, ["product.rs"], "parallel-composition loops");
    assert!(code("product.rs").contains("pub(crate) fn par_successors"));
    for (file, arm) in [
        ("type_lts.rs", "Type::Par(..) =>"),
        ("term_lts.rs", "Term::Par(..) =>"),
    ] {
        let code = code(file);
        let start = code
            .find(arm)
            .unwrap_or_else(|| panic!("{file}: no `{arm}` arm"));
        // The arm's block: from its opening brace to the matching close.
        let mut depth = 0;
        let end = code[start..]
            .char_indices()
            .find_map(|(at, c)| {
                match c {
                    '{' => depth += 1,
                    '}' if depth == 1 => return Some(start + at),
                    '}' => depth -= 1,
                    _ => {}
                }
                None
            })
            .unwrap_or_else(|| panic!("{file}: unbalanced `{arm}` arm"));
        assert!(
            code[start..end].contains("product::par_successors("),
            "{file}: the `{arm}` arm does not call product::par_successors"
        );
    }
}
