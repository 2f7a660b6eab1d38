//! End-to-end tests of the `hindex-analysis` binary: stale-baseline
//! enforcement, report formats, and the baseline/deny workflow — each against a throwaway workspace under
//! the system temp dir, so the real repository is never touched.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A conforming library crate root (no findings under any lint).
const CLEAN: &str = "//! Crate docs.\n\
                     #![forbid(unsafe_code)]\n\
                     \n\
                     /// Canonicalise via the checked helper.\n\
                     pub fn residue(delta: i64) -> u64 {\n\
                         hindex_hashing::from_i64(delta)\n\
                     }\n";

/// A seeded L10 violation: raw `+` on a stream-carried counter.
const OVERFLOWY: &str = "#![forbid(unsafe_code)]\n\
                         pub struct Acc { total: u64 }\n\
                         impl Acc {\n\
                             pub fn ingest(&mut self, delta: u64) {\n\
                                 self.total = self.total + delta;\n\
                             }\n\
                         }\n";

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hindex-analysis-cli-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, contents).unwrap();
}

/// Runs the binary; returns (success, stdout, stderr).
fn run(root: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hindex-analysis"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn stale_baseline_entry_fails_full_run_and_warns_quick() {
    let root = temp_root("stale");
    write(&root, "crates/sketch/src/lib.rs", CLEAN);
    write(
        &root,
        "crates/analysis/baseline.txt",
        "L9|crates/sketch/src/lib.rs|unwrap()  # fixed ages ago\n",
    );

    // Full run: hard failure, with an actionable message.
    let (ok, _stdout, stderr) = run(&root, &[]);
    assert!(!ok, "stale suppression must fail the run: {stderr}");
    assert!(
        stderr.contains("remove stale suppression"),
        "stderr should say what to do: {stderr}"
    );

    // Quick run: the same entry only warns (cross-file findings are
    // invisible, so stale detection is unreliable there).
    let (ok, _stdout, stderr) = run(&root, &["--quick"]);
    assert!(ok, "quick run must not fail on stale entries: {stderr}");
    assert!(stderr.contains("possibly stale"), "{stderr}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sarif_report_is_written_to_output_file() {
    let root = temp_root("sarif");
    write(&root, "crates/core/src/acc.rs", OVERFLOWY);

    let sarif_path = root.join("target/analysis.sarif");
    let (ok, _stdout, stderr) = run(
        &root,
        &["--format", "sarif", "--output", sarif_path.to_str().unwrap()],
    );
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&sarif_path).unwrap();
    assert!(text.contains("sarif-2.1.0"), "schema pointer present");
    assert!(text.contains("\"ruleId\": \"L10\""), "{text}");
    assert!(text.contains("crates/core/src/acc.rs"), "{text}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deny_fails_then_baseline_with_justification_clears() {
    let root = temp_root("deny");
    write(&root, "crates/core/src/acc.rs", OVERFLOWY);

    let (ok, stdout, _) = run(&root, &["--deny"]);
    assert!(!ok, "--deny must fail on a new finding");
    assert!(stdout.contains("[L10]"), "{stdout}");

    // Lift the printed baseline key into a justified suppression.
    let key = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("baseline key: "))
        .expect("report prints the key")
        .to_string();
    write(
        &root,
        "crates/analysis/baseline.txt",
        &format!("{key}  # seeded fixture, audited\n"),
    );
    let (ok, stdout, stderr) = run(&root, &["--deny"]);
    assert!(ok, "baselined finding must pass --deny: {stdout}{stderr}");
    assert!(stdout.contains("1 baselined"), "{stdout}");

    // An unjustified entry is itself a --deny failure.
    write(&root, "crates/analysis/baseline.txt", &format!("{key}\n"));
    let (ok, _stdout, stderr) = run(&root, &["--deny"]);
    assert!(!ok, "unjustified entries must fail --deny");
    assert!(stderr.contains("no justification"), "{stderr}");

    std::fs::remove_dir_all(&root).ok();
}
