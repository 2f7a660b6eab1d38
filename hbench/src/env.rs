//! The environment header every result carries, and peak resident
//! memory.

use crate::spec;
use hindex_common::snapshot::fnv1a;
use std::path::Path;

/// `key: value` lines identifying the box, the toolchain and the code.
pub fn header(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", env!("HBENCH_RUSTC").to_string()),
        (
            "git_sha",
            git_sha().unwrap_or_else(|| "none (not a git checkout)".into()),
        ),
        (
            "src_digest",
            source_digest().map_or_else(|| "unavailable".into(), |d| format!("{d:#018x}")),
        ),
        ("cpu", cpu),
        (
            "seed",
            match seed {
                spec::DEFAULT_SEED => format!("{seed} (default)"),
                spec::HELD_OUT_SEED => format!("{seed} (held out for gain claims)"),
                _ => seed.to_string(),
            },
        ),
    ]
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// FNV-1a over every file under `crates/` (sorted paths and contents):
/// names the code under test where there is no git metadata.
fn source_digest() -> Option<u64> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files).ok()?;
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(&file).ok()?);
    }
    Some(fnv1a(&bytes))
}

/// Resets the kernel's peak-resident-set mark to the current resident
/// set, so the next [`peak_rss_mb`] covers only what follows. Where the
/// kernel refuses, the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:")
}

/// A `kB` field of `/proc/self/status`, in MiB (0 when unreadable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
