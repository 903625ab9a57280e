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
