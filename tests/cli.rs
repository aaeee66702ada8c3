//! End-to-end tests of the `ccmm` CLI binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ccmm"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ccmm-cli-test-{name}-{}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("ccmm models"));
    assert!(text.contains("Frigo & Luchangco"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("unknown command"));
}

#[test]
fn check_exit_codes_reflect_membership() {
    let c = write_temp("c", "n0: W(0)\nn1: R(0) <- n0\n");
    let member = write_temp("m", "l0: n0 n0\n");
    let stale = write_temp("s", "l0: n0 _\n");

    let ok = bin().args(["check", "--model", "sc"]).arg(&c).arg(&member).output().unwrap();
    assert_eq!(ok.status.code(), Some(0));
    assert!(String::from_utf8(ok.stdout).unwrap().contains("member"));

    let bad = bin().args(["check", "--model", "ww"]).arg(&c).arg(&stale).output().unwrap();
    assert_eq!(bad.status.code(), Some(1));

    let any = bin().args(["check", "--model", "any"]).arg(&c).arg(&stale).output().unwrap();
    assert_eq!(any.status.code(), Some(0), "validity alone accepts the stale observer");
}

#[test]
fn check_prints_the_qdag_violation_certificate() {
    // W -> R(sees W) -> R(sees ⊥): the initial value resurfaces, so the
    // triple (⊥, n0, n2) fails under every predicate.
    let c = write_temp("chain", "n0: W(0)\nn1: R(0) <- n0\nn2: R(0) <- n1\n");
    let stale = write_temp("resurface", "l0: n0 n0 _\n");
    for m in ["nn", "nw", "wn", "ww"] {
        let out = bin().args(["check", "--model", m]).arg(&c).arg(&stale).output().unwrap();
        assert_eq!(out.status.code(), Some(1));
        let text = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                format!("{}: NOT a member", m.to_ascii_uppercase()).as_str(),
                "violation at l0: (u, v, w) = (⊥, n0, n2) observe (⊥, n0, ⊥)",
            ]
        );
    }
    // Members and the other models keep the one-line answer.
    let steady = write_temp("steady", "l0: n0 n0 n0\n");
    let ok = bin().args(["check", "--model", "ww"]).arg(&c).arg(&steady).output().unwrap();
    assert_eq!(ok.status.code(), Some(0));
    assert_eq!(String::from_utf8(ok.stdout).unwrap(), "WW: member\n");
    let lc = bin().args(["check", "--model", "lc"]).arg(&c).arg(&stale).output().unwrap();
    assert_eq!(lc.status.code(), Some(1));
    assert_eq!(String::from_utf8(lc.stdout).unwrap(), "LC: NOT a member\n");
}

#[test]
fn models_reads_stdin() {
    let obs = write_temp("o", "l0: n0 n0\n");
    let mut child = bin()
        .args(["models", "-"])
        .arg(&obs)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"n0: W(0)\nn1: R(0) <- n0\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SC"), "{text}");
    assert!(text.contains("∈"));
}

#[test]
fn witness_fig4_not_in_lc() {
    let out = bin().args(["witness", "fig4"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("NN   ∈"));
    assert!(text.contains("LC   ∉"));
}

#[test]
fn backer_reports_lc() {
    let out = bin()
        .args(["backer", "--workload", "fib:6", "--procs", "2", "--runs", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("LC 3"), "{text}");
}

#[test]
fn lattice_rejects_unknown_flags_and_points_large_bounds_at_sweep() {
    let out = bin().args(["lattice", "--node", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("unknown flag `--node`"));

    let out = bin().args(["lattice", "--nodes", "5"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("ccmm sweep --bound N --canonical --engine lane64"), "{err}");

    let out = bin().args(["lattice", "--nodes", "2"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().next(), Some("      SC  LC  NN  NW  WN  WW"), "{text}");
    assert_eq!(text.lines().count(), 7, "{text}");
}

#[test]
fn dot_renders_graphviz() {
    let c = write_temp("dot", "n0: W(0)\nn1: R(0) <- n0\n");
    let out = bin().arg("dot").arg(&c).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("digraph"));
    assert!(text.contains("0 -> 1;"));
}

#[test]
fn parse_errors_surface_with_line_numbers() {
    let c = write_temp("bad", "n0: W(0)\nn7: R(0)\n");
    let obs = write_temp("bad-o", "l0: n0 n0\n");
    let out = bin().args(["models"]).arg(&c).arg(&obs).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("line 2"));
}

#[test]
fn multibyte_garbage_in_a_corpus_file_exits_2_with_a_line_number() {
    // `Ω` begins with a non-ASCII byte; the parser must reject it as an
    // unknown op (with the offending line number), never split the token
    // mid-character and panic.
    let c = write_temp("mb", "n0: Ω(0)\n");
    let obs = write_temp("mb-o", "l0: n0\n");
    let out = bin().args(["models"]).arg(&c).arg(&obs).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "parse errors are usage errors, not crashes");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 1"), "error must carry the line number: {err}");
    assert!(err.contains('Ω'), "error must name the offending token: {err}");
}

#[test]
fn conformance_smoke_passes_and_exits_zero() {
    let out = bin()
        .args(["conformance", "--nodes", "3", "--random", "30", "--no-harvest", "--threads", "2"])
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("all fast checkers agree"), "{text}");
    assert!(text.contains("exhaustive"), "{text}");
    assert!(text.contains("lane differential:"), "{text}");
    let fix = text.lines().find(|l| l.starts_with("fixpoint differential:")).expect(&text);
    assert!(fix.contains("0 mismatch(es)"), "{fix}");
}

#[test]
fn conformance_keeps_its_injected_handler_panic_off_stderr() {
    // The serve differential injects a handler panic that the handler
    // quarantines by design; the run must not report it as a crash.
    let out = bin().args(["conformance", "--nodes", "3"]).output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(!err.contains("panicked at"), "stderr: {err}");
    let text = String::from_utf8(out.stdout).unwrap();
    let serve = text.lines().find(|l| l.starts_with("serve differential:")).expect(&text);
    assert!(serve.contains("0 mismatch(es)"), "{serve}");
}

#[test]
fn conformance_self_test_reports_the_pipeline_is_live() {
    let dir = std::env::temp_dir().join(format!("ccmm-conf-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args(["conformance", "--nodes", "3", "--random", "0", "--no-harvest", "--self-test"])
        .args(["--out".as_ref(), dir.as_os_str()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("self-test"), "{text}");
    // No disagreements on the healthy checkers, so no witness files.
    assert!(!dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conformance_rejects_oversized_bounds() {
    let out = bin().args(["conformance", "--nodes", "9"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("too slow"));
}

fn sweep_cmd() -> Command {
    let mut cmd = bin();
    cmd.arg("sweep");
    cmd
}

/// The `"  SC   361"`-style membership count lines — the bit-identity
/// fingerprint the kill/resume round trip compares.
fn membership_counts(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("memberships over"))
        .skip(1)
        .take(6)
        .map(str::to_string)
        .collect()
}

#[test]
fn sweep_injected_panic_degrades_but_completes() {
    let mut cmd = sweep_cmd();
    let out = cmd
        .args(["--bound", "3", "--canonical", "--threads", "2", "--fault", "panic-at-task=1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "degraded exit code");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("quarantined: memberships task 1"), "{text}");
    // The lattice is one pass over the task list: task 1 is quarantined
    // once there, not once per model pair.
    let lattice_quarantines =
        text.lines().filter(|l| l.starts_with("quarantined: lattice task")).count();
    assert_eq!(lattice_quarantines, 1, "{text}");
    assert!(text.contains("(degraded)"), "{text}");
    assert!(text.contains("sweep status: degraded"), "{text}");
    // The sweep still ran to the end: all phases reported, and the
    // fixpoint's Stage A saw the same fault.
    assert!(text.contains("quarantined: fixpoint task 1"), "{text}");
    let fixpoint = text.lines().find(|l| l.starts_with("NN* scalar fixpoint")).expect(&text);
    assert!(fixpoint.ends_with("(degraded)"), "{text}");
}

#[test]
fn sweep_kill_and_resume_round_trip_is_bit_identical() {
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let shape = ["--bound", "4", "--canonical", "--threads", "2"];

    // Uninterrupted reference run.
    let mut cmd = sweep_cmd();
    let clean = cmd.args(shape).output().unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let clean_counts = membership_counts(&String::from_utf8(clean.stdout).unwrap());
    assert_eq!(clean_counts.len(), 6);

    // Killed run: checkpoint every task, crash after two journal records.
    let mut cmd = sweep_cmd();
    let killed = cmd
        .args(shape)
        .args(["--ckpt-every", "1", "--fault", "kill-after-ckpt=2", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(70), "killed-by-fault-plan exit code");
    let text = String::from_utf8(killed.stdout).unwrap();
    assert!(text.contains("killed by fault plan"), "{text}");
    assert!(text.contains("--resume"), "{text}");

    // Resume: bit-identical membership counts, clean exit.
    let mut cmd = sweep_cmd();
    let resumed = cmd.args(shape).arg("--resume").arg(&ckpt).output().unwrap();
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_text = String::from_utf8(resumed.stdout).unwrap();
    assert!(resumed_text.contains("resuming from"), "{resumed_text}");
    assert_eq!(
        membership_counts(&resumed_text),
        clean_counts,
        "resumed counts must be bit-identical to the uninterrupted run"
    );
    for p in [&ckpt, &ckpt.with_extension("fixpoint")] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sweep_lane64_counts_match_scalar() {
    let shape = ["--bound", "4", "--canonical", "--threads", "2"];
    let mut cmd = sweep_cmd();
    let scalar = cmd.args(shape).output().unwrap();
    assert_eq!(scalar.status.code(), Some(0));
    let scalar_counts = membership_counts(&String::from_utf8(scalar.stdout).unwrap());
    assert_eq!(scalar_counts.len(), 6);

    let mut cmd = sweep_cmd();
    let lane = cmd.args(shape).args(["--engine", "lane64"]).output().unwrap();
    assert_eq!(lane.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&lane.stderr));
    let text = String::from_utf8(lane.stdout).unwrap();
    assert!(text.contains("lane64 enumeration"), "{text}");
    assert_eq!(
        membership_counts(&text),
        scalar_counts,
        "lane64 membership counts must be bit-identical to the scalar engine"
    );
    // The lattice phase ran through the lane kernels and still agrees.
    assert!(text.contains("lattice"), "{text}");
}

#[test]
fn sweep_lane64_flag_validation() {
    // lane64 rides the canonical task list.
    let mut cmd = sweep_cmd();
    let out = cmd.args(["--bound", "3", "--engine", "lane64"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("requires --canonical"));
    // The allocating baseline engine is gone.
    let mut cmd = sweep_cmd();
    let out = cmd.args(["--bound", "3", "--canonical", "--alloc"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("unknown flag `--alloc`"));
    // Unknown engines are rejected with the valid set.
    let mut cmd = sweep_cmd();
    let out = cmd.args(["--bound", "3", "--canonical", "--engine", "warp"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("scalar | lane64"));
    // Bound 6 stays out of reach for the labelled scalar engine (the
    // canonical one runs it); the error names the phases each engine
    // supports and points at the lane fixpoint.
    let mut cmd = sweep_cmd();
    let out = cmd.args(["--bound", "6"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("memberships, lattice, fixpoint, constructibility"),
        "the error must name the scalar engine's phases: {err}"
    );
    assert!(err.contains("up to --bound 5"), "{err}");
    assert!(err.contains("--canonical --engine lane64"), "{err}");
    assert!(err.contains("every phase through --bound 6"), "{err}");
    // The canonical scalar engine stops at bound 6.
    let mut cmd = sweep_cmd();
    let out = cmd.args(["--bound", "7", "--canonical"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("canonical scalar engine") && err.contains("up to --bound 6"), "{err}");
}

#[test]
fn sweep_lane64_fixpoint_matches_scalar_engine() {
    // The bound-4 Δ* fixpoint and constructibility verdicts must be
    // bit-identical across engines — same survivors, deletions, passes.
    let fixpoint_line = |text: &str| {
        text.lines()
            .find(|l| l.contains("fixpoint:"))
            .map(|l| l.split_once("fixpoint:").unwrap().1.split('[').next().unwrap().to_string())
            .expect("fixpoint line present")
    };
    let shape = ["--bound", "4", "--canonical", "--threads", "2"];
    let mut cmd = sweep_cmd();
    let scalar = cmd.args(shape).output().unwrap();
    assert_eq!(scalar.status.code(), Some(0));
    let scalar_text = String::from_utf8(scalar.stdout).unwrap();
    assert!(scalar_text.contains("NN* scalar fixpoint:"), "{scalar_text}");

    let mut cmd = sweep_cmd();
    let lane = cmd.args(shape).args(["--engine", "lane64"]).output().unwrap();
    assert_eq!(lane.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&lane.stderr));
    let lane_text = String::from_utf8(lane.stdout).unwrap();
    assert!(lane_text.contains("NN* lane64 fixpoint:"), "{lane_text}");
    assert_eq!(
        fixpoint_line(&scalar_text),
        fixpoint_line(&lane_text),
        "lane64 fixpoint survivors/deleted/passes must be bit-identical to scalar"
    );
    let verdicts = |text: &str| -> Vec<String> {
        text.lines().filter(|l| l.contains("constructible")).map(str::to_string).collect()
    };
    assert_eq!(verdicts(&scalar_text), verdicts(&lane_text));
}

#[test]
fn sweep_lane64_kill_and_resume_round_trip_is_bit_identical() {
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-lane-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let shape = ["--bound", "4", "--canonical", "--engine", "lane64", "--threads", "2"];

    let mut cmd = sweep_cmd();
    let clean = cmd.args(shape).output().unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let clean_counts = membership_counts(&String::from_utf8(clean.stdout).unwrap());
    assert_eq!(clean_counts.len(), 6);

    let mut cmd = sweep_cmd();
    let killed = cmd
        .args(shape)
        .args(["--ckpt-every", "1", "--fault", "kill-after-ckpt=2", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(70), "killed-by-fault-plan exit code");

    let mut cmd = sweep_cmd();
    let resumed = cmd.args(shape).arg("--resume").arg(&ckpt).output().unwrap();
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_text = String::from_utf8(resumed.stdout).unwrap();
    assert!(resumed_text.contains("resuming from"), "{resumed_text}");
    assert_eq!(
        membership_counts(&resumed_text),
        clean_counts,
        "resumed lane64 counts must be bit-identical to the uninterrupted run"
    );
    let fix = ckpt.with_extension("fixpoint");
    for p in [&ckpt, &fix] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sweep_lane64_refuses_a_v1_fixpoint_journal() {
    // A v1 `<ckpt>.fixpoint` holds mask groups for every labelled task
    // and a v2 one an entry for every labelling of the involved tasks;
    // v3 masks one entry per write pattern, so resuming from either
    // older journal must fail cleanly on the fingerprint, never reach
    // the decoder.
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-fix-v1-{}", std::process::id()));
    let fix = ckpt.with_extension("fixpoint");
    let shape = ["--bound", "3", "--canonical", "--engine", "lane64", "--threads", "2"];
    for old in
        ["ccmm-fixpoint-v1 bound=3 locs=1 model=nn", "ccmm-fixpoint-v2 bound=3 locs=1 model=nn"]
    {
        let mut cmd = sweep_cmd();
        let clean = cmd.args(shape).arg("--ckpt").arg(&ckpt).output().unwrap();
        let stderr = String::from_utf8_lossy(&clean.stderr);
        assert_eq!(clean.status.code(), Some(0), "stderr: {stderr}");
        assert!(fix.exists(), "the lane run journals its fixpoint beside --ckpt");

        let mut writer = ccmm::core::ckpt::CkptWriter::create(&fix, old).unwrap();
        writer.append(&[0; 16]).unwrap();
        drop(writer);
        let mut cmd = sweep_cmd();
        let resumed = cmd.args(shape).arg("--resume").arg(&ckpt).output().unwrap();
        assert_eq!(resumed.status.code(), Some(2), "a refused journal is an I/O-class error");
        let err = String::from_utf8(resumed.stderr).unwrap();
        assert!(err.contains("fixpoint checkpoint fingerprint mismatch"), "{err}");
        assert!(err.contains(old), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        for p in [&ckpt, &fix] {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn sweep_zero_deadline_exits_partial_with_resume_frontier() {
    let mut cmd = sweep_cmd();
    let out = cmd.args(["--bound", "4", "--canonical", "--deadline-secs", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(4), "partial (deadline) exit code");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("deadline hit"), "{text}");
    assert!(text.contains("resume frontier"), "{text}");
    assert!(text.contains("(partial)"), "{text}");
}

#[test]
fn sweep_fixpoint_deadline_stops_cleanly_under_both_engines() {
    // Task 6 is a non-canonical labelled 3-node poset, so only the
    // fixpoint's Stage A scans it: the delay overruns the deadline there
    // and nowhere else.
    for engine in ["scalar", "lane64"] {
        let out = sweep_cmd()
            .args(["--bound", "4", "--canonical", "--threads", "1", "--engine", engine])
            .args(["--deadline-secs", "1", "--fault", "delay-at-task=6:1500"])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(!err.contains("panicked"), "{engine}: {err}");
        assert_eq!(out.status.code(), Some(4), "{engine}: partial (deadline) exit code");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("deadline hit during fixpoint"), "{engine}: {text}");
    }
}

#[test]
fn sweep_degraded_constructibility_check_is_undecided_not_constructible() {
    // Task 21 holds NW's only bound-5 dead ends. With it quarantined, no
    // dead end is found for NW, which is still not constructible: the
    // verdict must be undecided. Witnesses found elsewhere stand.
    let shape = ["--bound", "5", "--canonical", "--engine", "lane64", "--threads", "2"];
    let clean = sweep_cmd().args(shape).output().unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let clean = String::from_utf8(clean.stdout).unwrap();
    let out = sweep_cmd().args(shape).args(["--fault", "panic-at-task=21"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "degraded exit code");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!text.contains("NW   constructible"), "{text}");
    assert!(text.contains("  NW   undecided: no dead end outside 1 quarantined task(s)"), "{text}");
    let verdict = |text: &str, model: &str| {
        let prefix = format!("  {model:<4} ");
        let mut lines = text.lines();
        lines.find(|l| l.starts_with(&prefix) && l.contains("constructible")).map(str::to_string)
    };
    for model in ["NN", "WN"] {
        assert!(verdict(&text, model).is_some(), "{text}");
        assert_eq!(verdict(&text, model), verdict(&clean, model), "{text}");
    }
}

#[test]
fn sweep_metrics_and_trace_files_report_the_work_done() {
    let tmp = std::env::temp_dir();
    let metrics = tmp.join(format!("ccmm-cli-metrics-{}.json", std::process::id()));
    let trace = tmp.join(format!("ccmm-cli-trace-{}.jsonl", std::process::id()));
    let mut cmd = sweep_cmd();
    let out = cmd
        .args(["--bound", "3", "--canonical", "--metrics"])
        .arg(&metrics)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"schema\":\"ccmm-metrics-v1\""), "{m}");
    for phase in ["memberships", "lattice", "fixpoint", "constructibility"] {
        assert!(m.contains(&format!("\"name\":\"{phase}\"")), "missing phase {phase}: {m}");
    }
    assert!(m.contains("\"pairs_checked\":"), "memberships phase must count pairs: {m}");
    assert!(!m.contains("\"pairs_checked\":0"), "pair count must be non-zero: {m}");

    let t = std::fs::read_to_string(&trace).unwrap();
    for span in ["sweep/memberships", "sweep/lattice", "sweep/fixpoint", "sweep/constructibility"] {
        assert!(t.contains(&format!("\"span\":\"{span}\"")), "missing span {span}: {t}");
    }
    for p in [&metrics, &trace] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn sweep_resume_rejects_a_mismatched_fingerprint() {
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-fpmm-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let mut cmd = sweep_cmd();
    let killed = cmd
        .args(["--bound", "4", "--canonical", "--ckpt-every", "1"])
        .args(["--fault", "kill-after-ckpt=1", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(70));
    // Same journal, different universe: refused before any work runs.
    let mut cmd = sweep_cmd();
    let out = cmd.args(["--bound", "3", "--canonical", "--resume"]).arg(&ckpt).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("fingerprint mismatch"));
    let _ = std::fs::remove_file(&ckpt);
}

/// The deterministic half of a `ccmm stress` report: the completed/
/// checks line (wall-clock stripped) plus any failure lines. The
/// "timing-dependent:" line is deliberately excluded — distinct
/// observer and SC tallies vary with OS scheduling.
fn stress_deterministic_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| {
            l.starts_with("completed ")
                || l.starts_with("CONFORMANCE FAILURE")
                || l.starts_with("failing seed:")
                || l.starts_with("shrunk trace")
        })
        .map(|l| match (l.find(" ["), l.find(']')) {
            (Some(a), Some(b)) if a < b => format!("{}{}", &l[..a], &l[b + 1..]),
            _ => l.to_string(),
        })
        .collect()
}

#[test]
fn stress_is_deterministic_per_seed_iters_threads() {
    let shape = ["stress", "--seed", "11", "--iters", "20", "--threads", "2"];
    let a = bin().args(shape).output().unwrap();
    let b = bin().args(shape).output().unwrap();
    assert_eq!(a.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(b.status.code(), Some(0));
    let la = stress_deterministic_lines(&String::from_utf8(a.stdout).unwrap());
    let lb = stress_deterministic_lines(&String::from_utf8(b.stdout).unwrap());
    assert!(!la.is_empty(), "report must include the completed line");
    assert_eq!(la, lb, "same (seed, iters, threads) must report identical deterministic lines");
}

#[test]
fn stress_kill_and_resume_respects_the_seed_frontier() {
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-stress-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let shape = ["--seed", "5", "--iters", "12", "--threads", "2"];

    // Uninterrupted reference run.
    let clean = bin().arg("stress").args(shape).output().unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let clean_lines = stress_deterministic_lines(&String::from_utf8(clean.stdout).unwrap());

    // Killed run: checkpoint every iteration, crash after three records.
    let killed = bin()
        .arg("stress")
        .args(shape)
        .args(["--ckpt-every", "1", "--fault", "kill-after-ckpt=3", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(70), "killed-by-fault-plan exit code");
    let text = String::from_utf8(killed.stdout).unwrap();
    assert!(text.contains("killed by fault plan"), "{text}");
    assert!(text.contains("--resume"), "{text}");

    // Resume: skips the journalled iterations, finishes the rest, and
    // the deterministic report matches the uninterrupted run exactly.
    let resumed = bin().arg("stress").args(shape).arg("--resume").arg(&ckpt).output().unwrap();
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let rtext = String::from_utf8(resumed.stdout).unwrap();
    let already: usize = rtext
        .lines()
        .find(|l| l.starts_with("resuming from"))
        .and_then(|l| l.split(": ").nth(1))
        .and_then(|s| s.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("resume line reports the journalled frontier");
    assert!(
        (1..12).contains(&already),
        "resume must start from a non-empty, incomplete frontier, got {already}"
    );
    assert_eq!(
        stress_deterministic_lines(&rtext),
        clean_lines,
        "resumed totals must match the uninterrupted run"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn stress_self_test_catches_a_seeded_mutation() {
    let out =
        bin().args(["stress", "--self-test", "--iters", "2", "--threads", "2"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("caught, and clean executor passes"), "{text}");
}

#[test]
fn stress_mutated_run_reports_a_reproducible_failing_seed() {
    let mutated = bin()
        .args(["stress", "--seed", "3", "--iters", "30", "--threads", "2"])
        .args(["--mutate", "skip-reconcile"])
        .output()
        .unwrap();
    assert_eq!(mutated.status.code(), Some(1), "conformance failure exit code");
    let text = String::from_utf8(mutated.stdout).unwrap();
    assert!(text.contains("CONFORMANCE FAILURE"), "{text}");
    let seed: u64 = text
        .lines()
        .find(|l| l.starts_with("failing seed: "))
        .and_then(|l| l.split(' ').nth(2).map(|s| s.trim_end_matches(',')))
        .and_then(|n| n.parse().ok())
        .expect("failure report names the failing seed");
    let trace: Vec<&str> = text.lines().skip_while(|l| !l.starts_with("shrunk trace")).collect();
    assert!(trace.len() > 1, "failure report includes the shrunk trace: {text}");

    // The printed rerun command reproduces the identical shrunk trace.
    let rerun = bin()
        .args(["stress", "--seed", &seed.to_string(), "--iters", "1", "--threads", "2"])
        .args(["--mutate", "skip-reconcile"])
        .output()
        .unwrap();
    assert_eq!(rerun.status.code(), Some(1));
    let rtext = String::from_utf8(rerun.stdout).unwrap();
    let rtrace: Vec<&str> = rtext.lines().skip_while(|l| !l.starts_with("shrunk trace")).collect();
    assert_eq!(trace, rtrace, "rerun from the printed seed must shrink to the same trace");
}

/// Spawns a `ccmm serve` child on an ephemeral port and parses the
/// `listening on <addr>` line. Returns the child, the buffered stdout
/// reader (positioned after the listening line), and the address.
#[cfg(unix)]
#[allow(clippy::zombie_processes)] // every caller kills or TERMs the child and then waits on it
fn spawn_serve(
    extra: &[&str],
) -> (std::process::Child, std::io::BufReader<std::process::ChildStdout>, String) {
    use std::io::BufRead;
    let mut child = bin()
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    for _ in 0..10 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "serve exited before listening");
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            return (child, reader, addr.to_string());
        }
    }
    panic!("serve never printed its listening line");
}

#[cfg(unix)]
#[test]
fn serve_round_trips_queries_then_drains_cleanly_on_sigterm() {
    use std::io::Read as _;
    let (mut child, mut reader, addr) = spawn_serve(&[]);
    let c = write_temp("srv-c", "n0: W(0)\nn1: R(0) <- n0\n");
    let member = write_temp("srv-m", "l0: n0 n0\n");
    let stale = write_temp("srv-s", "l0: n0 _\n");

    let ping = bin().args(["query", "--addr", &addr, "--ping"]).output().unwrap();
    assert_eq!(ping.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&ping.stderr));
    assert_eq!(String::from_utf8_lossy(&ping.stdout).trim(), "pong");

    // `query --model` mirrors `ccmm check` exit codes over the wire.
    let ok = bin()
        .args(["query", "--addr", &addr, "--model", "sc"])
        .arg(&c)
        .arg(&member)
        .output()
        .unwrap();
    assert_eq!(ok.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&ok.stdout).trim(), "SC: in");
    let bad = bin()
        .args(["query", "--addr", &addr, "--model", "ww"])
        .arg(&c)
        .arg(&stale)
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert_eq!(String::from_utf8_lossy(&bad.stdout).trim(), "WW: out");

    // All six verdicts; a repeat of the same pair is answered by the cache.
    let all =
        bin().args(["query", "--addr", &addr, "--models"]).arg(&c).arg(&member).output().unwrap();
    assert_eq!(all.status.code(), Some(0));
    let text = String::from_utf8_lossy(&all.stdout).to_string();
    for m in ["SC", "LC", "NN", "NW", "WN", "WW"] {
        assert!(text.contains(&format!("{m}: ")), "{text}");
    }
    let again =
        bin().args(["query", "--addr", &addr, "--models"]).arg(&c).arg(&member).output().unwrap();
    assert_eq!(again.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&again.stdout), text, "cached verdicts are bit-identical");
    assert!(String::from_utf8_lossy(&again.stderr).contains("(cached)"));

    let lit = bin().args(["query", "--addr", &addr, "--litmus", "MP"]).output().unwrap();
    assert_eq!(lit.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&lit.stdout).contains("SC: "), "litmus outcome lines");

    // SIGTERM → graceful drain: stats printed, exit 0, no leaked connections.
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    let status = child.wait().unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert_eq!(status.code(), Some(0), "graceful drain exits 0: {rest}");
    assert!(rest.contains("drain requested"), "{rest}");
    assert!(rest.contains("drained: "), "{rest}");
    assert!(rest.contains("cache: "), "{rest}");
    let conns = rest.lines().find(|l| l.starts_with("connections: ")).expect(&rest);
    assert!(conns.contains("accepted"), "{conns}");
}

#[cfg(unix)]
#[test]
fn serve_metrics_extend_the_v1_schema() {
    let metrics =
        std::env::temp_dir().join(format!("ccmm-cli-serve-metrics-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&metrics);
    let (mut child, mut reader, addr) = spawn_serve(&["--metrics", metrics.to_str().unwrap()]);
    let ping = bin().args(["query", "--addr", &addr, "--ping"]).output().unwrap();
    assert_eq!(ping.status.code(), Some(0));
    std::process::Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(0));
    use std::io::Read as _;
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();

    // Same schema tag existing readers key on, plus the serve counters.
    let m = std::fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"schema\":\"ccmm-metrics-v1\""), "{m}");
    assert!(m.contains("\"name\":\"serve\""), "{m}");
    for counter in ["serve_requests", "serve_served", "serve_connections"] {
        assert!(m.contains(&format!("\"{counter}\":")), "missing {counter}: {m}");
    }
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn serve_self_test_proves_request_granular_quarantine() {
    let out = bin().args(["serve", "--self-test"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("caught: "), "{text}");
    assert!(text.contains("injected fault"), "{text}");
    assert!(text.contains("same connection served normally"), "{text}");
}

#[test]
fn query_against_nothing_exits_with_the_transport_code() {
    let out = bin()
        .args(["query", "--addr", "127.0.0.1:1", "--ping", "--retries", "1", "--timeout-ms", "100"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "dedicated exit code for no-reply-at-all");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no reply"), "names the failure");
}

#[test]
fn sweep_ckpt_io_error_degrades_but_keeps_every_verdict() {
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-ioerr-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let mut cmd = sweep_cmd();
    let out = cmd
        .args(["--bound", "3", "--canonical", "--ckpt-every", "1"])
        .args(["--fault", "io-error-at-record=2", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "ckpt I/O failure degrades, never crashes");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("checkpoint journalling failed"), "{err}");
    assert!(err.contains("injected fault: io error at ckpt record 2"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    // The sweep itself still ran to completion with full results.
    assert_eq!(membership_counts(&text).len(), 6, "{text}");
    assert!(text.contains("sweep status: degraded"), "{text}");
    for p in [&ckpt, &ckpt.with_extension("fixpoint")] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn stress_ckpt_io_error_degrades_but_keeps_every_verdict() {
    // The same journal fault `ccmm sweep` reports as degraded: every
    // iteration still runs and conforms, but resumability is gone, so
    // the run must warn and exit 3 rather than claim a clean pass.
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-stress-ioerr-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let shape = ["stress", "--seed", "1", "--iters", "4", "--threads", "2"];
    let clean = bin().args(shape).output().unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let out = bin()
        .args(shape)
        .args(["--ckpt-every", "1", "--fault", "io-error-at-record=1", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "ckpt I/O failure degrades, never passes");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("checkpoint journalling failed"), "{err}");
    assert!(err.contains("injected fault: io error at ckpt record 1"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("completed 4/4 iteration(s)"), "{text}");
    assert!(text.contains("(degraded)"), "{text}");
    // Same iterations, same checks: only the status word differs.
    let degraded = stress_deterministic_lines(&text).join("\n").replace("(degraded)", "(complete)");
    let clean = stress_deterministic_lines(&String::from_utf8(clean.stdout).unwrap()).join("\n");
    assert_eq!(degraded, clean);
    let _ = std::fs::remove_file(&ckpt);
}

fn watch_cmd() -> Command {
    let mut cmd = bin();
    cmd.arg("watch");
    cmd
}

/// The deterministic verdict + conformance lines a resume round trip
/// must reproduce bit-for-bit (throughput lines are timing-dependent).
fn watch_verdict_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with("streamed ") || l.starts_with("conformance:"))
        .map(str::to_string)
        .collect()
}

#[test]
fn watch_streams_a_fib_trace_and_reports_lc() {
    let mut cmd = watch_cmd();
    let out = cmd.args(["--workload", "fib:10"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("streamed 441/441 node(s): valid true | SC true | LC true"), "{text}");
    assert!(text.contains("0 divergence(s)"), "{text}");
}

#[test]
fn watch_faulted_run_detects_the_lc_violation_with_batch_agreement() {
    let mut cmd = watch_cmd();
    let out = cmd
        .args(["--workload", "fib:10", "--fault", "skip-reconcile", "--sample-every", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "an LC violation is a failed check");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("LC false"), "{text}");
    assert!(text.contains("0 divergence(s)"), "batch checkers must agree on every prefix: {text}");
}

#[test]
fn watch_deadline_exits_partial_and_resume_lands_on_identical_verdicts() {
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-watch-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);

    // Uninterrupted reference run.
    let mut full = watch_cmd();
    let full_out = full.args(["--workload", "fib:16"]).output().unwrap();
    assert_eq!(full_out.status.code(), Some(0));
    let reference = watch_verdict_lines(&String::from_utf8(full_out.stdout).unwrap());

    // Deadline kill: exit 4 with a node frontier and a journal.
    let mut part = watch_cmd();
    let out = part
        .args(["--workload", "fib:16", "--deadline-secs", "0", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "deadline exit code");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("deadline hit:"), "{text}");
    assert!(text.contains("resume frontier: [(0, "), "node frontier printed: {text}");
    assert!(text.contains("resume with --resume"), "{text}");

    // Resume: completes and reproduces the reference verdicts exactly.
    let mut res = watch_cmd();
    let out = res.args(["--workload", "fib:16", "--resume"]).arg(&ckpt).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("resuming from"), "{text}");
    assert_eq!(
        watch_verdict_lines(&text),
        reference,
        "resumed verdicts must be identical to an uninterrupted run"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn watch_resume_rejects_a_mismatched_fingerprint() {
    let ckpt = std::env::temp_dir().join(format!("ccmm-cli-watch-ckpt-fp-{}", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let mut part = watch_cmd();
    let out = part
        .args(["--workload", "fib:16", "--deadline-secs", "0", "--ckpt"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    // Same journal, different protocol config ⇒ the replay would not be
    // deterministic, so the fingerprint must refuse it.
    let mut res = watch_cmd();
    let out =
        res.args(["--workload", "fib:16", "--procs", "2", "--resume"]).arg(&ckpt).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8(out.stderr).unwrap().contains("fingerprint mismatch"),
        "mismatched config must be rejected"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn sweep_and_watch_runs_leave_no_file_behind() {
    let dir = std::env::temp_dir().join(format!("ccmm-cli-clean-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir(&dir).unwrap();
    let out = sweep_cmd().args(["--bound", "3", "--canonical"]).current_dir(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = watch_cmd().args(["--workload", "fib:10"]).current_dir(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "a plain run wrote into its working directory: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
