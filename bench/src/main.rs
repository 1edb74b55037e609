//! `pimdl-benchmark` — the repository's one benchmark. See `bench/README.md`.
//!
//! ```text
//! pimdl-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! pimdl-benchmark run   [--workload NAME]... [--seed N] [--out FILE] [--append] [--smoke]
//! pimdl-benchmark trace [--workload NAME]... [--seed N] [--out FILE] [--append] [--smoke]
//! pimdl-benchmark compare A.json B.json
//! ```
//!
//! The first form is what the driver named in `BENCHMARK.json` calls; its
//! last line of output is one JSON object. `run` and `trace` execute that
//! form once per workload in a fresh child process (so set-up time, peak
//! memory and the global worker pool are per workload) and collect the
//! results into one file.

mod compare;
mod load;
mod offline;
mod reference;
mod replay;
mod serving;
mod spec;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use reference::Reference;
use spec::{Metrics, Spec};
use trace::Recorder;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Where run output goes unless `--out` says otherwise (git-ignored).
const OUT_DIR: &str = "bench/out";

/// Marks the line on which a child prints its full result for `run`.
const RESULT_MARK: &str = "#result ";

/// Window of the traced pass: the ledger's run counters settle within it,
/// and the replay that follows is what the pass is for.
const TRACE_WINDOW_S: f64 = 2.0;

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Unmeasured warm-up before it (serving workloads).
    pub warm_s: f64,
    pub trace: bool,
    /// `--smoke`: set up once.
    pub smoke: bool,
    /// Share of the workload's time that is bound by the core, the rest by
    /// the shared cache and memory: how the two reference kernels are
    /// weighted when its times are put in nominal-machine time.
    pub core_share: f64,
    pub out_dir: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Lines for the reader: sample counts, reference values.
    pub notes: Vec<String>,
    pub trace: Option<Recorder>,
}

/// Set-up time over the repeats of one run, in nominal-machine seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    pub median_s: f64,
    /// The first repeat, which alone pays one-off process costs (page
    /// faults, worker-pool spawn).
    pub first_s: f64,
}

/// How much of each workload's time follows the reference's core kernel,
/// the rest following its memory kernel: fitted once on this box, to the
/// nearest quarter, as the share under which ten runs' results spread
/// least (bench/README.md, *Noise*, says how to refit it from the
/// `# slice` lines). `http_rt` uses its share for `setup_s` only.
fn core_share(name: &str) -> f64 {
    match name {
        "infer_host" => 1.0,
        "fabric_small" | "calibrate" => 0.75,
        _ => 0.5,
    }
}

/// Sets the system up several times — at least three, then until half a
/// second has gone — timing each, tearing down all but the last, and
/// reports the median: a cheap set-up is measured often enough to be
/// steady, an expensive one three times. The reference is read between
/// repeats (the system just set up is idle then), and each repeat is
/// divided by the readings either side of it, like a slice of a window.
pub fn repeat_set_up<T>(opts: &RunOpts, mut set_up: impl FnMut() -> Res<T>) -> Res<(T, SetUp)> {
    let reference = Reference::global();
    let started = Instant::now();
    let mut times = Vec::new();
    let mut before = reference.read_steady().factor(opts.core_share);
    loop {
        let t = Instant::now();
        let system = set_up()?;
        let took_s = t.elapsed().as_secs_f64();
        let after = reference.read_steady().factor(opts.core_share);
        times.push(took_s / ((before + after) / 2.0));
        before = after;
        let enough = times.len() >= 3 && started.elapsed().as_secs_f64() >= 0.5;
        if enough || opts.smoke {
            let set_up = SetUp {
                median_s: util::median(&times),
                first_s: times[0],
            };
            return Ok((system, set_up));
        }
        drop(system);
    }
}

fn run_workload(name: &str, opts: &RunOpts) -> Res<Outcome> {
    match name {
        "line_small" => serving::run(serving::Kind::LineSmall, opts),
        "fabric_small" => serving::run(serving::Kind::FabricSmall, opts),
        "line_large" => serving::run(serving::Kind::LineLarge, opts),
        "http_rt" => serving::run(serving::Kind::HttpRt, opts),
        "infer_host" => offline::infer_host(opts),
        "tune_sim" => offline::tune_sim(opts),
        "calibrate" => offline::calibrate(opts),
        other => Err(format!(
            "unknown workload {other:?}; one of {:?}",
            Spec::load().workloads
        )
        .into()),
    }
}

fn num(v: f64) -> Value {
    Value::Float(v)
}

/// Runs one workload in this process and prints its metrics; the last
/// line is the driver's JSON object. Returns whether every operation
/// verified.
fn single(name: &str, opts: &RunOpts) -> Res<bool> {
    let spec = Spec::load();
    let mut out = run_workload(name, opts)?;
    out.metrics.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    if let Some(rec) = &out.trace {
        std::fs::create_dir_all(&opts.out_dir)?;
        let path = opts.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, serde_json::to_string(&rec.to_json(name))?)?;
        println!(
            "# {} spans in {}; parents cover their children: {}",
            rec.spans().len(),
            path.display(),
            rec.consistent()
        );
        if !rec.consistent() {
            return Err("trace inconsistent: a span's children outlast it".into());
        }
    }
    for note in &out.notes {
        println!("# {name}: {note}");
    }
    for (metric, value) in &out.metrics.0 {
        let decl = spec
            .decl(metric)
            .ok_or_else(|| format!("metric {metric:?} is not declared in BENCHMARK.json"))?;
        println!("{name} {metric} {value} {}", decl.unit);
    }
    if out.metrics.get("client.slice_iqr_share").unwrap_or(0.0) > compare::NOISY_SLICE_IQR {
        println!("# {name}: noisy — rates of the window's slices spread more than 35 %");
    }

    let full = Value::Map(vec![
        ("workload".into(), Value::Str(name.to_string())),
        ("attempted".into(), Value::UInt(out.attempted)),
        ("failed".into(), Value::UInt(out.failed)),
        (
            "metrics".into(),
            Value::Map(
                out.metrics
                    .0
                    .iter()
                    .map(|(k, &v)| (k.clone(), num(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{RESULT_MARK}{}", serde_json::to_string(&full)?);

    // The driver's line: every end-to-end metric untraced, every ledger
    // metric traced. A layer this workload never enters did no work: 0.
    let declared = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = declared
        .iter()
        .map(|d| {
            let value = out.metrics.get(&d.name).unwrap_or(0.0);
            let entry = Value::Map(vec![
                ("value".into(), num(value)),
                ("unit".into(), Value::Str(d.unit.clone())),
            ]);
            (d.name.clone(), entry)
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(out.failed == 0)),
        ("attempted".into(), Value::UInt(out.attempted.max(1))),
        ("failed".into(), Value::UInt(out.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line)?);
    Ok(out.failed == 0)
}

/// Parsed command line of every form but `compare`.
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    append: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        append: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads.push(value()?.clone()),
            "--seed" => a.seed = value()?.parse()?,
            "--seconds" => a.seconds = Some(value()?.parse()?),
            "--trace" => a.trace = value()? == "1",
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--append" => a.append = true,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if a.seconds.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
        return Err("--seconds must be a positive number".into());
    }
    Ok(a)
}

impl Args {
    /// The measured window: `--seconds`, else 1 s under `--smoke`, else
    /// `run_seconds` of `BENCHMARK.json`.
    fn window_s(&self, spec: &Spec) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.0 } else { spec.run_seconds })
    }
}

fn opts_of(a: &Args, spec: &Spec, workload: &str) -> RunOpts {
    let seconds = a.window_s(spec);
    let (seconds, warm_s) = if a.trace {
        (seconds.min(TRACE_WINDOW_S), 0.25)
    } else {
        (seconds, if a.smoke { 0.2 } else { 1.0 })
    };
    RunOpts {
        seed: a.seed,
        seconds,
        warm_s,
        trace: a.trace,
        smoke: a.smoke,
        core_share: core_share(workload),
        out_dir: a.out.clone().unwrap_or_else(|| PathBuf::from(OUT_DIR)),
    }
}

/// `run` / `trace`: each workload in a fresh child process, results
/// collected into one file.
fn orchestrate(mode: &str, a: &Args) -> Res<bool> {
    let spec = Spec::load();
    let names: Vec<String> = if a.workloads.is_empty() {
        spec.workloads.clone()
    } else {
        a.workloads.clone()
    };
    let out_file = a
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{mode}.json")));
    let out_dir = out_file.parent().unwrap_or(Path::new(".")).to_path_buf();
    std::fs::create_dir_all(&out_dir)?;
    let seconds = a.window_s(&spec);

    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for name in &names {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if mode == "trace" { "1" } else { "0" }])
            .arg("--out")
            .arg(&out_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if a.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut result = None;
        let mut lines = stdout.lines().peekable();
        while let Some(line) = lines.next() {
            if let Some(json) = line.strip_prefix(RESULT_MARK) {
                result = Some(serde_json::from_str::<Value>(json)?);
            } else if lines.peek().is_some() {
                println!("{line}");
            }
        }
        all_ok &= output.status.success();
        match result {
            Some(r) => workloads.push((name.clone(), r)),
            None => println!("# {name}: FAILED without a result ({})", output.status),
        }
    }
    if mode == "trace" {
        print_three_views(&workloads);
    }

    let run = Value::Map(vec![
        ("mode".into(), Value::Str(mode.to_string())),
        ("seed".into(), Value::UInt(a.seed)),
        ("seconds".into(), num(seconds)),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    let mut runs = Vec::new();
    if a.append {
        if let Ok(text) = std::fs::read_to_string(&out_file) {
            if let Some(Value::Seq(old)) = serde_json::from_str::<Value>(&text)?.get("runs") {
                runs = old.clone();
            }
        }
    }
    runs.push(run);
    let doc = Value::Map(vec![
        ("machine".into(), util::machine_block()),
        ("runs".into(), Value::Seq(runs)),
    ]);
    std::fs::write(&out_file, serde_json::to_string_pretty(&doc)?)?;
    println!("# wrote {}", out_file.display());
    Ok(all_ok)
}

/// ROADMAP's per-operator table: the tuner's analytical model and the
/// simulator (both simulated seconds on UPMEM, from `tune_sim`) beside the
/// measured host kernel (from `infer_host`), all at 256 rows.
fn print_three_views(workloads: &[(String, Value)]) {
    let metric = |workload: &str, name: &str| {
        workloads
            .iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, r)| r.get("metrics")?.get(name))
            .and_then(spec::as_f64)
    };
    println!("# operator  tuner_model_s  simulator_s  host_kernel_ms  (BERT-base layer, 256 rows, V=4, CT=16)");
    for op in ["qkv", "o", "ffn1", "ffn2"] {
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
        println!(
            "# {op:<8}  {:>13}  {:>11}  {:>14}",
            cell(metric("tune_sim", &format!("tuner.op.{op}_s"))),
            cell(metric("tune_sim", &format!("sim.op.{op}_s"))),
            cell(metric("infer_host", &format!("lutnn.kernels.{op}_ms"))),
        );
    }
}

fn fabric_worker(args: &[String]) -> Res<()> {
    let [addr, shard_id, speedup, spec_json] = args else {
        return Err(format!(
            "{} needs <addr> <shard_id> <speedup> <spec-json>",
            serving::WORKER_SUBCOMMAND
        )
        .into());
    };
    pimdl_serve::fabric::shard_worker_main(addr, shard_id.parse()?, speedup.parse()?, spec_json)?;
    Ok(())
}

fn real_main() -> Res<bool> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(serving::WORKER_SUBCOMMAND) => fabric_worker(&args[1..]).map(|()| true),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("compare needs two result files".into()),
        },
        Some(mode @ ("run" | "trace")) => orchestrate(mode, &parse_args(&args[1..])?),
        _ => {
            let a = parse_args(&args)?;
            let [name] = a.workloads.as_slice() else {
                return Err(
                    "give exactly one --workload, or use `run` / `trace` / `compare`".into(),
                );
            };
            single(name, &opts_of(&a, &Spec::load(), name))
        }
    }
}

fn main() -> ExitCode {
    // Everything that measures runs on one processor (`util::pinned_exit_code`
    // says why); fabric workers inherit it from the pinned process.
    let measures = !matches!(
        std::env::args().nth(1).as_deref(),
        Some("compare" | serving::WORKER_SUBCOMMAND)
    );
    if let Some(code) = measures.then(util::pinned_exit_code).flatten() {
        return ExitCode::from(code);
    }
    // Every guard (server handles, worker processes) has been dropped by
    // the time `real_main` returns, on the error path too.
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pimdl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
