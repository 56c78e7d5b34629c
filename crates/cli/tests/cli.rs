//! The `effpi-cli` binary, driven as a user drives it: exit codes (0 pass,
//! 1 checks failed, 2 usage or spec error) and the lines that explain them.

use std::path::PathBuf;
use std::process::Output;

/// Runs the built binary with `args`.
fn cli(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_effpi-cli"))
        .args(args)
        .output()
        .expect("effpi-cli runs")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("effpi-cli exits, not killed")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn payment() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/payment.effpi"
    )
    .to_string()
}

/// Writes `text` to a spec file of its own under the temp dir.
fn spec_file(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("effpi-cli-{tag}-{}.effpi", std::process::id()));
    std::fs::write(&path, text).expect("write spec file");
    path
}

#[test]
fn a_passing_spec_exits_zero() {
    let out = cli(&["verify", &payment()]);
    assert_eq!(code(&out), 0, "{}{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("non-usage of self: true (7 states, 10 transitions"),
        "{text}"
    );
    assert!(text.contains("result: all checks passed"), "{text}");
}

#[test]
fn a_tripped_state_bound_exits_one_with_the_bound_error() {
    let out = cli(&["verify", &payment(), "--max-states", "3"]);
    assert_eq!(code(&out), 1, "{}{}", stdout(&out), stderr(&out));
    assert!(
        stdout(&out).contains(
            "error: verification error: state space exceeds the bound of 3 states \
             (exploration stopped after 3)"
        ),
        "{}",
        stdout(&out)
    );
}

#[test]
fn unknown_flags_and_bad_values_exit_two() {
    for (args, says) in [
        // A misspelt bound must not verify under the default one.
        (vec!["--max-state", "3"], "unknown flag --max-state"),
        (
            vec!["--jobs", "four"],
            "--jobs requires a non-negative integer value",
        ),
        (vec!["--strategy", "dfs"], "unknown flag --strategy"),
    ] {
        let payment = payment();
        let mut full = vec!["verify", payment.as_str()];
        full.extend(&args);
        let out = cli(&full);
        assert_eq!(code(&out), 2, "{args:?}: {}", stdout(&out));
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage: effpi-cli"), "{args:?}");
    }
}

#[test]
fn every_command_rejects_flags_outside_its_own_list() {
    // Each of these fails on the flag alone: no server starts, no
    // connection is made, no store is opened.
    let store = std::env::temp_dir().join(format!("effpi-cli-store-{}", std::process::id()));
    let store = store.to_str().expect("utf-8 temp dir");
    for args in [
        vec!["typecheck", "spec.effpi", "--workers", "2"],
        vec!["serve", "--listen", "127.0.0.1:0", "--max-state", "3"],
        vec![
            "client",
            "127.0.0.1:1",
            "verify",
            "spec.effpi",
            "--jobs",
            "2",
        ],
        vec!["client", "127.0.0.1:1", "ping", "--text"],
        vec!["store", "stats", store, "--store", store],
    ] {
        let out = cli(&args);
        assert_eq!(code(&out), 2, "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("unknown flag --"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    assert!(!std::path::Path::new(store).exists(), "no store was opened");
}

#[test]
fn a_second_type_statement_is_a_line_numbered_spec_error() {
    let path = spec_file(
        "two-types",
        "env x : cio[int]\ntype o[x, int, Pi() nil]\ntype nil\ncheck non_usage [x]\n",
    );
    let out = cli(&["verify", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code(&out), 2, "{}", stdout(&out));
    assert!(
        stderr(&out).contains("specification error at line 3"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
}

#[test]
fn client_usage_errors_exit_two_before_connecting() {
    // Nothing listens on port 1: a usage error must not surface as a
    // connection failure.
    for args in [
        vec!["client", "127.0.0.1:1", "verify"],
        vec!["client", "127.0.0.1:1", "bogus"],
    ] {
        let out = cli(&args);
        assert_eq!(code(&out), 2, "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage: effpi-cli"),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(
            !stderr(&out).contains("cannot connect"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}
