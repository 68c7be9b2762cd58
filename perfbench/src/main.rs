//! The Pivot benchmark: one workload per invocation, the three parties as
//! threads over an in-process probe mesh, every call into the program
//! timed from outside.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--commit <sha>] [--rustc <version>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes one
//! untraced and one traced session plus a crypto calibration pass and
//! reports the per-layer metrics. The last line of standard output is the
//! result object; a human summary goes to standard error and the full
//! record (metadata, sample counts, failures) to `<out-dir>`.

mod calib;
mod json;
mod probe;
mod report;
mod session;
mod spans;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--out-dir <dir>] [--commit <sha>] [--rustc <version>]";

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub setup_probe: bool,
    pub out_dir: PathBuf,
    pub commit: String,
    pub rustc: String,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut commit = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            "--commit" => commit = value,
            "--rustc" => rustc = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(Duration::from_secs(20)),
        trace: trace.unwrap_or(false),
        setup_probe,
        out_dir,
        commit,
        rustc,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        report::setup_probe(args.workload, args.seed);
        return;
    }
    let started = Instant::now();
    let result = if args.trace {
        report::traced_run(&args)
    } else {
        report::untraced_run(&args)
    };
    let record = Json::obj()
        .with("meta", meta(&args, started.elapsed().as_secs_f64()))
        .with("correct", result.correct())
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with("failures", result.failures.clone())
        .with("metrics", result.metrics_json(true))
        .with("details", result.details.clone());
    if let Err(e) = write_record(&args, &record) {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    eprint!("{}", result.summary(args.workload.name));
    let line = Json::obj()
        .with("correct", result.correct())
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with("metrics", result.metrics_json(false));
    println!("{}", line.render());
}

fn meta(args: &Args, wall_s: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .with("commit", args.commit.clone())
        .with("rustc", args.rustc.clone())
        .with("nproc", nproc)
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
        .with("seed", args.seed)
        .with("seconds", args.seconds.as_secs())
        .with("trace", args.trace)
        .with("wall_s", wall_s)
        .with("workload", args.workload.to_json())
}

fn write_record(args: &Args, record: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(path, record.render() + "\n")
}
