//! `sympl-benchmark`: the repo benchmark. See `README.md` beside this
//! package for usage, the workload and metric glossary, and the rules.
//!
//! Process model: this program is a thin parent that re-executes itself
//! once per (workload, trace mode) as a `--child`, so peak RSS and
//! allocator state are per workload and the daemons' stderr chatter goes
//! to `out/daemon.log` instead of the metric stream.

mod compare;
mod json;
mod layers;
mod metrics;
mod net;
mod run;
mod stats;
mod trace;
mod workloads;

use std::fs::OpenOptions;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use run::{bench_dir, out_dir, RunArgs};
use workloads::{concurrency, host_cpus, WORKLOADS};

/// The time box of one run; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  sympl-benchmark [--seed N] [--workload NAME]... [--seconds S] [--no-trace] [--quick] [--record]
      every workload untraced (end-to-end metrics), then traced (per-layer
      metrics); writes out/result.json and out/trace.json
  sympl-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last line of output is the result object
  sympl-benchmark compare A.json[,A2.json...] B.json[,B2.json...]
      before/after table; exits non-zero on a regression or a changed count";

#[derive(Default)]
struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `--trace 0|1`: one run of one workload, result object last.
    trace: Option<bool>,
    no_trace: bool,
    quick: bool,
    record: bool,
    child: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} expects a value"));
        match arg.as_str() {
            "--workload" => cli.workloads.push(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                });
            }
            "--no-trace" => cli.no_trace = true,
            "--quick" => cli.quick = true,
            "--record" => cli.record = true,
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    for name in &cli.workloads {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}` (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(cli)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn header(cli: &Cli, seconds: f64) -> Json {
    Json::obj([
        ("host_cpus", Json::count(host_cpus())),
        ("W", Json::count(concurrency())),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Num(cli.seed as f64)),
        ("box_seconds", Json::Num(seconds)),
    ])
}

/// Runs one (workload, trace mode) in a child process and returns its
/// result document. The child's stderr is appended to `out/daemon.log`.
fn spawn_child(workload: &str, cli: &Cli, seconds: f64, trace: bool) -> Result<Json, String> {
    let log_path = out_dir().join("daemon.log");
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log);
    if cli.record {
        cmd.arg("--record");
    }
    // `output()` waits for the child and reaps it.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {} — see {}",
            u8::from(trace),
            if last.is_empty() { "no output" } else { last },
            log_path.display()
        ));
    }
    Json::parse(last).map_err(|e| format!("{workload} child printed no result object: {e}"))
}

fn print_result(doc: &Json) {
    let text = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "== {} (trace {}) correct={} attempted={} failed={} failed_share={} host_steal_share={:.3}",
        text("workload"),
        u8::from(doc.get("trace").and_then(Json::as_bool) == Some(true)),
        doc.get("correct").and_then(Json::as_bool) == Some(true),
        num("attempted"),
        num("failed"),
        num("failed") / num("attempted").max(1.0),
        num("host_steal_share"),
    );
    if let Some(counts) = doc.get("counts") {
        println!("   counts {}", counts.render());
    }
    for key in ["rep_wall_s", "turnaround_ms", "setup_breakdown_us"] {
        if let Some(v) = doc.get(key).filter(|v| **v != Json::Null) {
            println!("   {key} {}", v.render());
        }
    }
    for problem in doc.get("problems").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("   PROBLEM {}", problem.as_str().unwrap_or("?"));
    }
    for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "   {name:<40} {:>18.6} {:<6} n={}",
            f("value"),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
            f("samples"),
        );
    }
}

/// The result object the contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics` (each `{value, unit}`).
fn contract_line(doc: &Json) -> String {
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            let keep = |k: &str| (k.to_string(), m.get(k).cloned().unwrap_or(Json::Null));
            (name.clone(), Json::Obj(vec![keep("value"), keep("unit")]))
        })
        .collect();
    Json::obj([
        (
            "correct",
            doc.get("correct").cloned().unwrap_or(Json::Bool(false)),
        ),
        (
            "attempted",
            doc.get("attempted").cloned().unwrap_or(Json::Num(1.0)),
        ),
        (
            "failed",
            doc.get("failed").cloned().unwrap_or(Json::Num(0.0)),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn is_correct(doc: &Json) -> bool {
    doc.get("correct").and_then(Json::as_bool) == Some(true)
}

/// One run of one workload; the result object is the last line.
fn single_run(cli: &Cli, trace: bool) -> Result<bool, String> {
    let [workload] = &cli.workloads[..] else {
        return Err("--trace runs exactly one --workload".into());
    };
    let seconds = cli.seconds.unwrap_or(RUN_SECONDS);
    println!("header {}", header(cli, seconds).render());
    let doc = spawn_child(workload, cli, seconds, trace)?;
    print_result(&doc);
    println!("{}", contract_line(&doc));
    Ok(is_correct(&doc))
}

fn write_out(name: &str, doc: &Json) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Every selected workload, untraced then traced.
fn full_run(cli: &Cli) -> Result<bool, String> {
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        QUICK_SECONDS
    } else {
        RUN_SECONDS
    });
    let head = header(cli, seconds);
    println!("header {}", head.render());
    if cli.quick {
        println!("--quick: smoke run, numbers are not comparable");
    }
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| cli.workloads.is_empty() || cli.workloads.iter().any(|s| s == n))
        .collect();

    let mut ok = true;
    let mut results = Vec::new();
    let mut traces = Vec::new();
    for def in WORKLOADS.iter().filter(|d| selected.contains(&d.name)) {
        let workload = def.name;
        println!("-- {workload}: {}", def.why);
        if workload == "tcas_sweep_nw" && concurrency() < 2 {
            println!("== {workload} skipped: W=1");
            results.push((
                workload.to_string(),
                Json::obj([("skipped", Json::str("W=1"))]),
            ));
            continue;
        }
        for trace in [false, true] {
            if trace && cli.no_trace {
                continue;
            }
            let doc = spawn_child(workload, cli, seconds, trace)?;
            print_result(&doc);
            ok &= is_correct(&doc);
            if trace { &mut traces } else { &mut results }.push((workload.to_string(), doc));
        }
    }

    // The exhausting sweep covers the truncated one's space: it must have
    // seen at least as many states and findings.
    let count_of = |name: &str, key: &str| {
        results
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, d)| d.get("counts")?.get(key)?.as_f64())
    };
    for key in ["states_explored", "findings"] {
        if let (Some(seq), Some(par)) = (
            count_of("tcas_sweep_1w", key),
            count_of("tcas_sweep_nw", key),
        ) {
            if par < seq {
                println!("PROBLEM tcas_sweep_nw {key} {par} is below tcas_sweep_1w's {seq}");
                ok = false;
            }
        }
    }

    if cli.record {
        if cli.seed != 0 || !ok || selected.len() != WORKLOADS.len() {
            return Err("--record needs a correct full run of every workload at seed 0".into());
        }
        let expected = Json::Obj(
            results
                .iter()
                .filter_map(|(n, d)| Some((n.clone(), d.get("counts")?.clone())))
                .collect(),
        );
        let path = bench_dir().join("expected.json");
        std::fs::write(&path, expected.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("recorded {}", path.display());
    }
    let file = |workloads: Vec<(String, Json)>| {
        Json::obj([
            ("header", head.clone()),
            ("seed", Json::Num(cli.seed as f64)),
            ("comparable", Json::Bool(!cli.quick)),
            ("workloads", Json::Obj(workloads)),
        ])
    };
    write_out("result.json", &file(results))?;
    if !cli.no_trace {
        write_out("trace.json", &file(traces))?;
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &args[..] else {
            return Err(USAGE.into());
        };
        return compare::compare(a, b);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let cli = parse_cli(&args)?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    if cli.child {
        let [workload] = &cli.workloads[..] else {
            return Err("--child runs exactly one --workload".into());
        };
        let doc = run::run(&RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds.unwrap_or(RUN_SECONDS),
            trace: cli.trace.unwrap_or(false),
            record: cli.record,
        })?;
        println!("{}", doc.render());
        return Ok(true);
    }
    match cli.trace {
        Some(trace) => single_run(&cli, trace),
        None => full_run(&cli),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            println!("FAILED: the correctness gate or the comparison did not pass");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sympl-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn cli_parses_the_contract_invocation() {
        let cli = parse_cli(&strings(&[
            "--workload",
            "tcas_campaign",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workloads, ["tcas_campaign"]);
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (7, Some(10.0), Some(true))
        );
        assert!(parse_cli(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&strings(&["--trace", "2"])).is_err());
        assert!(parse_cli(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&strings(&["--seed"])).is_err());
        assert!(parse_cli(&strings(&["--frobnicate"])).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let doc = Json::obj([
            ("workload", Json::str("w")),
            ("correct", Json::Bool(true)),
            ("attempted", Json::count(12)),
            ("failed", Json::count(0)),
            ("counts", Json::obj([("points", Json::count(1))])),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([
                        ("value", Json::Num(0.25)),
                        ("unit", Json::str("s")),
                        ("samples", Json::count(7)),
                        ("q1", Json::Num(0.2)),
                    ]),
                )]),
            ),
        ]);
        let line = contract_line(&doc);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(metric.as_obj().unwrap().len(), 2, "value and unit only");
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(0.25));
    }

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
