//! gs-bench — the GreenSprint reproduction's benchmark.
//!
//! ```text
//! gs-bench run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--out RUNS.jsonl]
//! gs-bench trace   --workload NAME [--seed N] [--seconds S] --out SPANS.jsonl
//! gs-bench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! gs-bench digests [--seed N]
//! ```
//!
//! `run` without `--workload` runs every workload, each in its own child
//! process. A run prints its metrics by name and unit and, as its last
//! stdout line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Files go under `.gs-bench/` in the working directory.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

use gsbench::compare::{compare, load_bounds, parse_runs};
use gsbench::digest::{self, REFERENCE_SEED};
use gsbench::workloads::{run, RunArgs, Workload};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Where runs keep their files, relative to the working directory.
const WORK_ROOT: &str = ".gs-bench";

const USAGE: &str = "usage:
  gs-bench run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                   [--out RUNS.jsonl]
  gs-bench trace   --workload NAME [--seed N] [--seconds S] --out SPANS.jsonl
  gs-bench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
  gs-bench digests [--seed N]
workloads: paper_grid, campaign, site_faults, serve_fleet";

fn usage(err: &str) -> ! {
    eprintln!("error: {err}\n{USAGE}");
    exit(2)
}

fn fatal(err: &str) -> ! {
    eprintln!("error: {err}");
    exit(1)
}

/// `--key value` flags after the positional arguments; only `allowed`
/// keys are accepted.
fn parse(args: &[String], allowed: &[&str]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(key) => {
                if !allowed.contains(&key) {
                    usage(&format!("unknown flag --{key}"));
                }
                let value = it
                    .next()
                    .unwrap_or_else(|| usage(&format!("--{key} needs a value")));
                flags.insert(key.to_string(), value.clone());
            }
            None => positional.push(a.clone()),
        }
    }
    (positional, flags)
}

fn seed(flags: &HashMap<String, String>) -> u64 {
    flags.get("seed").map_or(REFERENCE_SEED, |s| {
        s.parse()
            .unwrap_or_else(|_| usage(&format!("--seed must be a whole number, got {s}")))
    })
}

fn seconds(flags: &HashMap<String, String>) -> f64 {
    flags
        .get("seconds")
        .map_or(DEFAULT_SECONDS, |s| match s.parse::<f64>() {
            Ok(v) if v > 0.0 && v.is_finite() => v,
            _ => usage(&format!("--seconds must be a positive number, got {s}")),
        })
}

fn workload(name: &str) -> Workload {
    Workload::parse(name).unwrap_or_else(|| usage(&format!("unknown workload {name}")))
}

fn main() {
    // serve_fleet injects rack-worker panics that the daemon recovers
    // from. Report each in one line: the default hook's backtrace (when
    // RUST_BACKTRACE is set) would add seconds of symbolization to the
    // measured run.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage("missing command")
    };
    match cmd.as_str() {
        "run" => run_cmd(rest),
        "trace" => trace_cmd(rest),
        "compare" => compare_cmd(rest),
        "digests" => digests_cmd(rest),
        other => usage(&format!("unknown command {other}")),
    }
}

fn run_cmd(args: &[String]) {
    let (positional, flags) = parse(args, &["workload", "seed", "seconds", "trace", "out"]);
    if !positional.is_empty() {
        usage(&format!("unexpected argument {}", positional[0]));
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => usage(&format!("--trace takes 0 or 1, got {other}")),
    };
    let out = flags.get("out").map(PathBuf::from);
    match flags.get("workload") {
        Some(name) => {
            let w = workload(name);
            let spans = trace.then(|| {
                Path::new(WORK_ROOT).join(format!("spans-{}-{}.jsonl", w.name(), seed(&flags)))
            });
            run_one(
                w,
                seed(&flags),
                seconds(&flags),
                trace,
                spans,
                out.as_deref(),
            );
        }
        None => run_all(&flags),
    }
}

/// Run one workload in this process and print its result.
fn run_one(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<&Path>,
) {
    let work_dir = Path::new(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
    let result = run(&RunArgs {
        workload: w,
        seed,
        seconds,
        trace,
        spans_out: spans,
        work_dir: work_dir.clone(),
    });
    let _ = std::fs::remove_dir_all(&work_dir);
    let (report, notes) = result.unwrap_or_else(|e| fatal(&format!("{}: {e}", w.name())));
    for n in &notes {
        println!("{n}");
    }
    print!("{}", report.table());
    let json = report.json();
    if let Some(path) = out {
        append_run(path, w.name(), seed, trace, &json);
    }
    println!("{json}");
}

/// Record one run in a runs file for `compare`: the result object with
/// the workload, seed and trace flag in front.
fn append_run(path: &Path, workload: &str, seed: u64, trace: bool, json: &str) {
    let body = json.strip_prefix('{').unwrap_or(json);
    let line = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},{body}\n",
        u8::from(trace)
    );
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        fatal(&format!("cannot append to {}: {e}", path.display()));
    }
}

/// Every workload, each in a child process of its own so set-up time and
/// peak memory are per workload.
fn run_all(flags: &HashMap<String, String>) {
    let exe =
        std::env::current_exe().unwrap_or_else(|e| fatal(&format!("cannot find gs-bench: {e}")));
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name()]);
        for key in ["seed", "seconds", "trace", "out"] {
            if let Some(v) = flags.get(key) {
                cmd.args([format!("--{key}"), v.clone()]);
            }
        }
        let status = cmd
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit())
            .status()
            .unwrap_or_else(|e| fatal(&format!("cannot start {}: {e}", exe.display())));
        all_correct &= status.success();
        if !status.success() {
            eprintln!("error: workload {} exited with {status}", w.name());
        }
    }
    if !all_correct {
        exit(1);
    }
}

fn trace_cmd(args: &[String]) {
    let (positional, flags) = parse(args, &["workload", "seed", "seconds", "out"]);
    if !positional.is_empty() {
        usage(&format!("unexpected argument {}", positional[0]));
    }
    let w = workload(
        flags
            .get("workload")
            .unwrap_or_else(|| usage("trace needs --workload")),
    );
    let spans = flags
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| usage("trace needs --out SPANS.jsonl"));
    run_one(w, seed(&flags), seconds(&flags), true, Some(spans), None);
}

fn compare_cmd(args: &[String]) {
    let (positional, flags) = parse(args, &["benchmark"]);
    let [parent, change] = positional.as_slice() else {
        usage("compare needs PARENT.jsonl CHANGE.jsonl")
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| usage(&format!("cannot read {p}: {e}")))
    };
    let bench = flags
        .get("benchmark")
        .map_or("BENCHMARK.json", String::as_str);
    let bounds = load_bounds(&read(bench)).unwrap_or_else(|e| usage(&e));
    let parent = parse_runs(&read(parent)).unwrap_or_else(|e| usage(&format!("{parent}: {e}")));
    let change = parse_runs(&read(change)).unwrap_or_else(|e| usage(&format!("{change}: {e}")));
    let rows = compare(&bounds, &parent, &change);
    if rows.is_empty() {
        usage("no (workload, metric) appears in both files");
    }
    for row in &rows {
        println!("{}", row.render());
    }
}

fn digests_cmd(args: &[String]) {
    let (positional, flags) = parse(args, &["seed"]);
    if !positional.is_empty() {
        usage(&format!("unexpected argument {}", positional[0]));
    }
    let seed = seed(&flags);
    let mut digests = Vec::new();
    for w in Workload::ALL {
        let dir = Path::new(WORK_ROOT).join(format!("digests-{}-{}", w.name(), std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            fatal(&format!("cannot create {}: {e}", dir.display()));
        }
        let d = w.runner(seed, &dir).reference();
        let _ = std::fs::remove_dir_all(&dir);
        let d = d.unwrap_or_else(|e| fatal(&format!("{}: {e}", w.name())));
        eprintln!("{}: {d}", w.name());
        digests.push((w.name(), d));
    }
    print!("{}", digest::render(seed, &digests));
}
