//! End-to-end tests of the compiled `hindex` binary: real process,
//! real pipes, real exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_hindex");

fn run(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hindex");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_exits_zero() {
    let (stdout, _, ok) = run(&["help"], "");
    assert!(ok);
    assert!(stdout.contains("usage: hindex"));
}

#[test]
fn no_args_exits_nonzero_with_usage() {
    let (_, stderr, ok) = run(&[], "");
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn agg_exact_pipeline() {
    let (stdout, _, ok) = run(&["agg", "--algorithm", "heap"], "10\n8\n5\n4\n3\n");
    assert!(ok);
    assert!(stdout.contains("h-index   : 4"), "{stdout}");
}

#[test]
fn gen_to_agg_pipe() {
    // Generate with one invocation, feed to another — the documented
    // shell workflow.
    let (counts, _, ok) = run(&["gen", "--kind", "planted", "--n", "300", "--h", "70"], "");
    assert!(ok);
    let (stdout, _, ok) = run(&["agg", "--algorithm", "heap"], &counts);
    assert!(ok);
    assert!(stdout.contains("h-index   : 70"), "{stdout}");
}

#[test]
fn gen_heavy_to_hh_pipe() {
    let (papers, _, ok) = run(
        &["gen", "--kind", "heavy", "--n", "50", "--h", "60", "--seed", "4"],
        "",
    );
    assert!(ok);
    let (stdout, _, ok) = run(&["hh", "--eps", "0.2", "--seed", "2"], &papers);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("author 0"), "{stdout}");
}

#[test]
fn malformed_input_fails_with_line_number() {
    let (_, stderr, ok) = run(&["agg"], "1\nnot-a-number\n");
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn unknown_flag_value_fails() {
    let (_, stderr, ok) = run(&["agg", "--eps"], "");
    assert!(!ok);
    assert!(stderr.contains("missing its value"), "{stderr}");
}

#[test]
fn cash_turnstile_detection() {
    let (stdout, _, ok) = run(
        &["cash", "--algorithm", "exact"],
        "1 5\n2 5\n3 5\n3 -5\n",
    );
    assert!(ok);
    assert!(stdout.contains("turnstile"), "{stdout}");
    assert!(stdout.contains("h-index   : 2"), "{stdout}");
}

#[test]
fn engine_digest_ignores_line_endings_tabs_and_comments() {
    let updates: Vec<(u64, u64)> = (0..400u64).map(|k| (k % 37, 1 + k % 3)).collect();
    let plain: String = updates.iter().map(|(p, d)| format!("{p} {d}\n")).collect();
    let mut decorated = String::from("# paper delta\r\n\r\n");
    for (i, (p, d)) in updates.iter().enumerate() {
        let comment = if i % 5 == 0 { " # note" } else { "" };
        decorated.push_str(&format!("\t{p}\t \t{d}{comment}\r\n"));
    }
    let digest = |stdin: &str| {
        let (stdout, stderr, ok) = run(&["engine", "--seed", "3", "--shards", "2"], stdin);
        assert!(ok, "{stderr}");
        stdout
            .lines()
            .find(|l| l.starts_with("digest"))
            .map(str::to_owned)
            .expect("digest line")
    };
    assert_eq!(digest(&plain), digest(&decorated));
}
