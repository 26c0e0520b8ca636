//! The benchmark's correctness check works: it accepts outputs that are
//! right for reasons other than luck, and fails a run whose outputs were
//! tampered with. Small sizes keep these fast.

use std::path::PathBuf;

use gsbench::digest::digest_lines;
use gsbench::trace::Tracer;
use gsbench::workloads::serve_fleet::ServeFleet;
use gsbench::workloads::sweeps::{result_lines, timed_sweep, SweepBench};
use gsbench::workloads::{judge, Runner};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("gsbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn serve_drain_plus_resume_reproduces_the_uninterrupted_stream() {
    let dir = scratch("serve");
    let mut serve = ServeFleet::new(3, 2, 60, &dir);
    let reference = serve.reference().expect("uninterrupted serve runs");
    let rep = serve.rep(&mut Tracer::off()).expect("drain + resume runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rep.digests.len(), 2, "metrics file and subscriber lines");
    assert_eq!(
        rep.digests[0], reference,
        "metrics file after drain + resume"
    );
    assert_eq!(
        rep.digests[1], reference,
        "subscriber lines across both legs"
    );
    assert_eq!(rep.attempted, 60);
    assert_eq!(rep.failed, 0, "every tick frame arrived once, in order");
    assert_eq!(judge(&[rep], Some(&reference)).failed, 0);
}

#[test]
fn sweep_digest_is_the_same_at_one_and_two_jobs() {
    let grid = SweepBench::paper_grid(5, &[1]);
    assert_eq!(grid.digest_at(1), grid.digest_at(2));
}

#[test]
fn a_corrupted_result_line_fails_every_unit() {
    let mut campaign = SweepBench::campaign(2, 1);
    let good = campaign.rep(&mut Tracer::off()).expect("campaign runs");
    let pinned = good.digests[0].clone();
    assert_eq!(judge(std::slice::from_ref(&good), Some(&pinned)).failed, 0);

    // Re-derive the same outputs, flip one byte of one result line, and
    // hand the check a rep carrying that digest.
    let mut lines = result_lines(&timed_sweep(campaign.points(), 2, 1).results);
    assert_eq!(digest_lines(&lines), pinned, "the outputs are reproducible");
    lines[1] = lines[1].replacen("\"days\":1", "\"days\":2", 1);
    let mut bad = good.clone();
    bad.digests = vec![digest_lines(&lines)];

    for pinned in [Some(pinned.as_str()), None] {
        let verdict = judge(&[good.clone(), bad.clone()], pinned);
        assert!(!verdict.agree);
        assert_eq!(verdict.failed, verdict.attempted, "failed_frac is 1");
        assert_eq!(verdict.attempted, 4);
    }
}
