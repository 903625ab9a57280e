//! Integration tests for the `symplfied` command-line front-end.

use std::io::Write;
use std::process::Command;

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("symplfied-cli-test-{name}"));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_symplfied"))
}

#[test]
fn run_executes_a_program() {
    let prog = write_temp("run.sasm", "read $1\naddi $2, $1, 1\nprint $2\nhalt\n");
    let out = cli()
        .args(["run", prog.to_str().unwrap(), "--input", "41"])
        .output()
        .expect("spawn CLI");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("status: halted"), "{stdout}");
    assert!(stdout.contains("output: 42"), "{stdout}");
}

#[test]
fn disasm_lists_instructions() {
    let prog = write_temp("disasm.sasm", "mov $1, 3\nloop: jmp loop\n");
    let out = cli()
        .args(["disasm", prog.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("loop:"), "{stdout}");
    assert!(stdout.contains("jmp"), "{stdout}");
}

#[test]
fn verify_reports_escaping_errors() {
    let prog = write_temp("verify.sasm", "read $1\nprint $1\nhalt\n");
    let out = cli()
        .args([
            "verify",
            prog.to_str().unwrap(),
            "--input",
            "7",
            "--class",
            "register",
            "--max-steps",
            "500",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("escaping error"), "{stdout}");
    assert!(stdout.contains("trace:"), "{stdout}");
}

#[test]
fn verify_with_detectors_file() {
    let prog = write_temp(
        "verify-det.sasm",
        "mov $1, 7\ncheck 1\nst $1, 100($0)\nprints \"ok\"\nhalt\n",
    );
    let dets = write_temp("verify-det.txt", "det(1, $(1), ==, (7))\n");
    let out = cli()
        .args([
            "verify",
            prog.to_str().unwrap(),
            "--detectors",
            dets.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PROOF"), "{stdout}");
}

#[test]
fn ssim_prints_outcome_histogram() {
    let prog = write_temp("ssim.sasm", "read $1\nmult $2, $1, $1\nprint $2\nhalt\n");
    let out = cli()
        .args([
            "ssim",
            prog.to_str().unwrap(),
            "--input",
            "3",
            "--random",
            "1",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("runs"), "{stdout}");
    assert!(stdout.contains("output"), "{stdout}");
}

#[test]
fn mips_flag_translates() {
    let prog = write_temp(
        "mips.s",
        "main:\n  li $v0, 5\n  syscall\n  move $a0, $v0\n  li $v0, 1\n  syscall\n  li $v0, 10\n  syscall\n",
    );
    let out = cli()
        .args(["run", prog.to_str().unwrap(), "--mips", "--input", "9"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("output: 9"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_message() {
    for args in [
        vec!["run"],
        vec!["frobnicate", "/nonexistent"],
        vec!["run", "/nonexistent-file.sasm"],
        vec!["verify", "/nonexistent-file.sasm", "--class", "quantum"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn repro_refuses_arguments() {
    let out = cli().args(["repro", "--quick"]).output().unwrap();
    assert!(!out.status.success(), "repro takes no arguments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("repro takes no arguments"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("symplfied repro"), "{stderr}");
}

#[test]
fn serve_join_refuses_listen_mode_flags() {
    // Refused before any connection is attempted, whichever order the
    // flags come in.
    for args in [
        vec!["serve", "--join", "127.0.0.1:1", "--listen", "127.0.0.1:0"],
        vec!["serve", "--max-clients", "4", "--join", "127.0.0.1:1"],
        vec!["serve", "--join", "127.0.0.1:1", "--status-interval", "5"],
    ] {
        let out = cli().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--join cannot be combined with"),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn campaign_refuses_flags_that_would_check_nothing() {
    // Each is refused before any worker is spawned or any search runs.
    let fleet = "needs a worker fleet";
    for (args, expected) in [
        (vec![], "campaign needs --workload"),
        (
            vec!["--workload", "factorial"],
            "unknown workload `factorial`",
        ),
        (
            vec!["--workload", "spin", "--quick"],
            "spin has no --quick preset",
        ),
        (
            vec!["--workload", "tcas", "--verify-locl"],
            "unknown argument `--verify-locl`",
        ),
        (
            vec!["--workload", "tcas", "--tasks", "x"],
            "bad --tasks `x`",
        ),
        (
            vec!["--workload", "tcas", "--tasks"],
            "--tasks expects a value",
        ),
        (
            vec!["--workload", "tcas", "--spawn-workers", "two"],
            "bad --spawn-workers `two`",
        ),
        (
            vec!["--workload", "tcas", "--expect-memo-warm"],
            "--expect-memo-warm needs --memo-path",
        ),
        (
            vec!["--workload", "tcas", "--expect-stale-memo"],
            "--expect-stale-memo needs --memo-path",
        ),
        (vec!["--workload", "tcas", "--verify-local"], fleet),
        (vec!["--workload", "tcas", "--checkpoint", "c.sycp"], fleet),
        (vec!["--workload", "tcas", "--resume", "c.sycp"], fleet),
        (
            vec!["--workload", "tcas", "--heartbeat-interval", "30"],
            fleet,
        ),
        (vec!["--workload", "tcas", "--chaos-kill-one"], fleet),
        (
            vec!["--workload", "tcas", "--chaos-abort-after", "2"],
            fleet,
        ),
        (vec!["--workload", "tcas", "--split-idle"], fleet),
        (vec!["--workload", "tcas", "--expect-split"], fleet),
        (vec!["--workload", "tcas", "--expect-join"], fleet),
        (vec!["--workload", "tcas", "--client-label", "a"], fleet),
        (vec!["--workload", "tcas", "--client-priority", "2"], fleet),
        (
            vec![
                "--workload",
                "tcas",
                "--spawn-workers",
                "1",
                "--chaos-kill-one",
            ],
            "--chaos-kill-one needs --spawn-workers 2",
        ),
        (
            vec![
                "--workload",
                "tcas",
                "--workers-at",
                "127.0.0.1:1",
                "--chaos-kill-one",
            ],
            "--chaos-kill-one needs --spawn-workers 2",
        ),
        (
            vec![
                "--workload",
                "tcas",
                "--spawn-workers",
                "2",
                "--expect-join",
            ],
            "--expect-join needs --allow-join",
        ),
        (
            vec![
                "--workload",
                "tcas",
                "--memo-path",
                "m.symo",
                "--spawn-workers",
                "2",
            ],
            "--memo-path runs in-process only",
        ),
    ] {
        let out = cli().arg("campaign").args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "args {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn campaign_on_self_spawned_serve_workers_reproduces_the_local_run() {
    let out = cli()
        .args([
            "campaign",
            "--workload",
            "tcas",
            "--quick",
            "--tasks",
            "4",
            "--spawn-workers",
            "2",
            "--verify-local",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("distributed outcome digest"), "{stdout}");
    assert!(stdout.contains("verify-local:"), "{stdout}");
}
