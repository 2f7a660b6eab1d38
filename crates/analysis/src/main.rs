//! CLI driver for the hindex workspace lint pass.
//!
//! ```text
//! cargo run -p hindex-analysis --                       # report findings
//! cargo run -p hindex-analysis -- --deny                # exit 1 on new findings (CI)
//! cargo run -p hindex-analysis -- --quick               # file-local lints only
//! cargo run -p hindex-analysis -- --format sarif \
//!     --output target/analysis.sarif                    # machine-readable report
//! cargo run -p hindex-analysis -- --list                # print the lint catalogue
//! ```
#![forbid(unsafe_code)]

use hindex_analysis::baseline::{apply, Baseline};
use hindex_analysis::emit::{render_json, render_sarif, render_text, Format};
use hindex_analysis::workspace::Workspace;
use hindex_analysis::{all_lints, run_lints};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hindex-analysis: repo-specific lint pass for the hindex workspace

USAGE:
    hindex-analysis [OPTIONS]

OPTIONS:
    --root <DIR>       Repository root to analyse (default: .)
    --baseline <FILE>  Baseline file (default: <root>/crates/analysis/baseline.txt)
    --deny             Exit nonzero on new findings or unjustified baseline entries
    --quick            Run only file-local lints (skips cross-file L2/L7/L9/L11/L12)
    --format <FMT>     Report format: text (default), json, or sarif
    --output <FILE>    Write the report to FILE instead of stdout
    --list             Print the lint catalogue and exit
    --help             Show this help

Stale baseline entries are a hard error on full runs: a key that no
longer matches any finding must be deleted, not carried. `--quick`
downgrades this to a warning (cross-file findings are invisible to a
quick run, so their baseline entries would look stale).

See docs/ANALYSIS.md for lint rationale and the baseline policy.";

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    deny: bool,
    quick: bool,
    list: bool,
    format: Format,
    output: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        baseline: None,
        deny: false,
        quick: false,
        list: false,
        format: Format::Text,
        output: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory argument")?;
                opts.root = PathBuf::from(v);
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a file argument")?;
                opts.baseline = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = it.next().ok_or("--format needs an argument")?;
                opts.format = Format::parse(v)?;
            }
            "--output" => {
                let v = it.next().ok_or("--output needs a file argument")?;
                opts.output = Some(PathBuf::from(v));
            }
            "--deny" => opts.deny = true,
            "--quick" => opts.quick = true,
            "--list" => opts.list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list {
        println!("hindex-analysis lint catalogue:");
        for lint in all_lints() {
            let scope = if lint.cross_file() {
                "cross-file"
            } else {
                "file-local"
            };
            println!("  {:<3} [{:>10}] {}", lint.id(), scope, lint.summary());
        }
        return ExitCode::SUCCESS;
    }

    let ws = match Workspace::load(&opts.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: cannot read workspace at {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("crates/analysis/baseline.txt"));
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(_) => Baseline::default(),
    };
    let applied = apply(&baseline, run_lints(&ws, opts.quick));

    let report = match opts.format {
        Format::Text => render_text(&applied),
        Format::Json => render_json(&applied, ws.files.len()),
        Format::Sarif => render_sarif(&applied),
    };
    if let Some(path) = &opts.output {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    } else {
        print!("{report}");
    }

    // Baseline hygiene. Stale entries are a hard error on full runs:
    // the finding was fixed, so the suppression must go too. Quick
    // runs cannot see cross-file findings, so they only warn.
    for e in &applied.stale {
        if opts.quick {
            eprintln!(
                "warning: possibly stale baseline entry at {}:{} (quick run): {}",
                baseline_path.display(),
                e.line,
                e.key
            );
        } else {
            eprintln!(
                "error: baseline entry at {}:{} matches no finding — remove stale suppression: {}",
                baseline_path.display(),
                e.line,
                e.key
            );
        }
    }
    for e in &applied.unjustified {
        eprintln!(
            "error: baseline entry at {}:{} has no justification (append ` # why`): {}",
            baseline_path.display(),
            e.line,
            e.key
        );
    }

    let mode = if opts.quick { " (quick: file-local lints only)" } else { "" };
    println!(
        "hindex-analysis: {} file(s), {} new finding(s), {} baselined, {} stale entr(ies){mode}",
        ws.files.len(),
        applied.new.len(),
        applied.silenced,
        applied.stale.len(),
    );

    let stale_failure = !opts.quick && !applied.stale.is_empty();
    let deny_failure = opts.deny && (!applied.new.is_empty() || !applied.unjustified.is_empty());
    if stale_failure || deny_failure {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
