//! `pimdl` — command-line front end to the PIM-DL reproduction.
//!
//! ```text
//! pimdl platforms
//!     List the modeled DRAM-PIM platforms and their headline numbers.
//!
//! pimdl tune --n N --cb CB --ct CT --f F [--platform upmem|hbm-pim|aim]
//!     Auto-tune a LUT workload (Algorithm 1) and print the winning mapping
//!     with its predicted and simulated latency.
//!
//! pimdl serve --model bert-base|bert-large|vit-huge|hHIDDEN
//!             [--platform P] [--batch B] [--seq S] [--v V] [--ct CT]
//!     Estimate end-to-end PIM-DL serving latency/energy with the operator
//!     breakdown, next to the CPU/GPU/PIM-GEMM baselines.
//!
//! pimdl trace --n N --cb CB --ct CT --f F [--platform P] [--skew AMP]
//!     Show the per-PE load-balance picture of the tuned kernel under a PE
//!     speed-variation model (limitation L3).
//!
//! pimdl compile --n N --cb CB --ct CT --f F [--platform P] [--limit K]
//!     Tune a workload, lower the winning mapping to the PE instruction
//!     set, and disassemble the resulting PIM binary.
//!
//! pimdl export [--platform P]
//!     Print a platform configuration as JSON; edit it and pass it back
//!     anywhere via `--platform my-platform.json`.
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use pimdl::engine::baseline::{host_inference, pim_gemm_inference, HostModel};
use pimdl::engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl::engine::shapes::TransformerShape;
use pimdl::sim::cost::estimate_cost;
use pimdl::sim::trace::{trace_kernel, PeVariation};
use pimdl::sim::{LutWorkload, PlatformConfig};
use pimdl::tuner::tune;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pimdl: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliError = Box<dyn std::error::Error>;

fn run() -> Result<(), CliError> {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return Err("usage: pimdl <platforms|tune|serve|trace|compile|export> [flags]".into());
    };
    let flags = parse_flags(args)?;
    match cmd.as_str() {
        "platforms" => platforms(),
        "tune" => tune_cmd(&flags),
        "serve" => serve_cmd(&flags),
        "trace" => trace_cmd(&flags),
        "compile" => compile_cmd(&flags),
        "export" => export_cmd(&flags),
        other => Err(format!("unknown command: {other}").into()),
    }
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected --flag, got {arg}").into());
        };
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn flag_usize(
    flags: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> Result<usize, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => Ok(v.parse()?),
    }
}

fn flag_platform(flags: &HashMap<String, String>) -> Result<PlatformConfig, CliError> {
    match flags.get("platform").map(String::as_str) {
        None | Some("upmem") => Ok(PlatformConfig::upmem()),
        Some("hbm-pim") => Ok(PlatformConfig::hbm_pim()),
        Some("aim") => Ok(PlatformConfig::aim()),
        Some("upmem-adder-only") => Ok(PlatformConfig::upmem_adder_only()),
        // A path to a JSON file gives a fully custom platform (the schema
        // is `PlatformConfig`'s serde form; dump one with `pimdl export`).
        Some(path) if path.ends_with(".json") => {
            let body = std::fs::read_to_string(path)?;
            let platform: PlatformConfig = serde_json::from_str(&body)?;
            platform.validate()?;
            Ok(platform)
        }
        Some(other) => Err(format!(
            "unknown platform {other} (expected upmem|hbm-pim|aim|upmem-adder-only|<file.json>)"
        )
        .into()),
    }
}

fn platforms() -> Result<(), CliError> {
    println!(
        "{:<10} {:>6} {:>12} {:>14} {:>12} {:>10}",
        "platform", "PEs", "WRAM (KiB)", "int BW (GB/s)", "peak GOP/s", "power (W)"
    );
    for p in PlatformConfig::all() {
        println!(
            "{:<10} {:>6} {:>12} {:>14.1} {:>12.1} {:>10.1}",
            p.kind.name(),
            p.num_pes,
            p.wram_bytes / 1024,
            p.peak_internal_bw_gbps,
            p.peak_gops,
            p.pim_power_w
        );
    }
    Ok(())
}

/// Tunes a workload and disassembles the resulting PIM binary.
fn compile_cmd(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let platform = flag_platform(flags)?;
    let workload = workload_from_flags(flags)?;
    let limit = flag_usize(flags, "limit", 32)?;
    let tuned = tune(&platform, &workload)?;
    let program = pimdl::sim::isa::compile(&workload, &tuned.mapping)?;
    let (idx, out_in, out_st, lut, acc) = program.instruction_mix();
    println!(
        "PIM binary for (N,CB,CT,F)=({},{},{},{}) | mapping N_s={} F_s={} {} {}",
        workload.n,
        workload.cb,
        workload.ct,
        workload.f,
        tuned.mapping.n_stile,
        tuned.mapping.f_stile,
        tuned.mapping.kernel.traversal,
        tuned.mapping.kernel.load_scheme.name()
    );
    println!(
        "{} instructions: {idx} index loads, {out_in} output loads, {out_st} output stores, {lut} LUT loads, {acc} accumulates\n",
        program.len()
    );
    print!("{}", program.disassemble(limit));
    Ok(())
}

/// Dumps a built-in platform's JSON so users can edit and reload it with
/// `--platform file.json`.
fn export_cmd(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let platform = flag_platform(flags)?;
    println!("{}", serde_json::to_string_pretty(&platform)?);
    Ok(())
}

fn workload_from_flags(flags: &HashMap<String, String>) -> Result<LutWorkload, CliError> {
    let n = flag_usize(flags, "n", 4096)?;
    let cb = flag_usize(flags, "cb", 192)?;
    let ct = flag_usize(flags, "ct", 16)?;
    let f = flag_usize(flags, "f", 768)?;
    Ok(LutWorkload::new(n, cb, ct, f)?)
}

fn tune_cmd(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let platform = flag_platform(flags)?;
    let workload = workload_from_flags(flags)?;
    let started = std::time::Instant::now();
    let result = tune(&platform, &workload)?;
    let sim = estimate_cost(&platform, &workload, &result.mapping)?;
    let m = result.mapping;
    println!(
        "workload (N, CB, CT, F) = ({}, {}, {}, {}) on {} ({} PEs)",
        workload.n,
        workload.cb,
        workload.ct,
        workload.f,
        platform.kind.name(),
        platform.num_pes
    );
    println!(
        "searched {} candidates in {:.2} s",
        result.evaluated,
        started.elapsed().as_secs_f64()
    );
    println!(
        "mapping: N_s={} F_s={} | N_m={} F_m={} CB_m={} | {} | {}",
        m.n_stile,
        m.f_stile,
        m.kernel.n_mtile,
        m.kernel.f_mtile,
        m.kernel.cb_mtile,
        m.kernel.traversal,
        m.kernel.load_scheme.name()
    );
    println!(
        "predicted {:.3} ms | simulated {:.3} ms | WRAM {} B | host<->PIM {} KiB",
        result.predicted_total_s * 1e3,
        sim.time.total_s() * 1e3,
        sim.wram_bytes,
        sim.host_pim_bytes / 1024
    );
    Ok(())
}

fn shape_from_flags(flags: &HashMap<String, String>) -> Result<TransformerShape, CliError> {
    match flags.get("model").map(String::as_str) {
        None | Some("bert-base") => Ok(TransformerShape::bert_base()),
        Some("bert-large") => Ok(TransformerShape::bert_large()),
        Some("vit-huge") => Ok(TransformerShape::vit_huge()),
        Some(s) if s.starts_with('h') => {
            let hidden: usize = s[1..].parse()?;
            Ok(TransformerShape::with_hidden(hidden, 24))
        }
        Some(other) => Err(format!(
            "unknown model {other} (expected bert-base|bert-large|vit-huge|h<hidden>)"
        )
        .into()),
    }
}

fn serve_cmd(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let platform = flag_platform(flags)?;
    let shape = shape_from_flags(flags)?;
    let cfg = ServingConfig {
        batch: flag_usize(flags, "batch", 64)?,
        seq_len: flag_usize(flags, "seq", 512)?,
        v: flag_usize(flags, "v", 4)?,
        ct: flag_usize(flags, "ct", 16)?,
    };
    let engine = PimDlEngine::new(platform.clone());
    let report = engine.serve(&shape, &cfg)?;
    println!(
        "{} on {} | batch {} x seq {} | V={} CT={}",
        shape.name,
        platform.kind.name(),
        cfg.batch,
        cfg.seq_len,
        cfg.v,
        cfg.ct
    );
    println!("total      {:>10.3} s", report.total_s);
    println!(
        "  LUT      {:>10.3} s ({:.1} %)",
        report.lut_s,
        100.0 * report.lut_s / report.total_s
    );
    println!(
        "  CCS      {:>10.3} s ({:.1} %)",
        report.ccs_s,
        100.0 * report.ccs_s / report.total_s
    );
    println!(
        "  attn     {:>10.3} s ({:.1} %)",
        report.attention_s,
        100.0 * report.attention_s / report.total_s
    );
    println!(
        "  other    {:>10.3} s ({:.1} %)",
        report.other_s,
        100.0 * report.other_s / report.total_s
    );
    println!("energy     {:>10.1} J", report.energy.total_j());

    let fp32 = host_inference(&HostModel::cpu_fp32(), &shape, cfg.batch, cfg.seq_len, 4).total_s();
    let int8 = host_inference(&HostModel::cpu_int8(), &shape, cfg.batch, cfg.seq_len, 1).total_s();
    let gemm = pim_gemm_inference(&platform, &shape, cfg.batch, cfg.seq_len).total_s();
    println!(
        "\nspeedups: {:.2}x vs CPU FP32 | {:.2}x vs CPU INT8 | {:.2}x vs GEMM-on-PIM",
        fp32 / report.total_s,
        int8 / report.total_s,
        gemm / report.total_s
    );
    Ok(())
}

fn trace_cmd(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let platform = flag_platform(flags)?;
    let workload = workload_from_flags(flags)?;
    let amplitude: f64 = match flags.get("skew") {
        None => 0.15,
        Some(v) => v.parse()?,
    };
    let tuned = tune(&platform, &workload)?;
    let trace = trace_kernel(
        &platform,
        &workload,
        &tuned.mapping,
        1.0 / workload.ct as f64,
        PeVariation { amplitude, seed: 1 },
    )?;
    println!(
        "kernel on {} PEs | PE speed variation amplitude {:.0} %",
        trace.entries.len(),
        amplitude * 100.0
    );
    println!(
        "per-PE kernel time: min {:.3} ms | mean {:.3} ms | max {:.3} ms",
        trace.min_kernel_s * 1e3,
        trace.mean_kernel_s * 1e3,
        trace.max_kernel_s * 1e3
    );
    println!(
        "finish time {:.3} ms (straggler penalty {:.2}x, idle fraction {:.1} %)",
        trace.total_s * 1e3,
        trace.straggler_penalty(),
        100.0 * trace.imbalance
    );
    // A tiny textual histogram of the per-PE times.
    let buckets = 8;
    let span = (trace.max_kernel_s - trace.min_kernel_s).max(1e-18);
    let mut hist = vec![0usize; buckets];
    for e in &trace.entries {
        let b =
            (((e.kernel_s - trace.min_kernel_s) / span) * (buckets - 1) as f64).round() as usize;
        hist[b.min(buckets - 1)] += 1;
    }
    println!("\nper-PE time distribution (fast -> slow):");
    for (i, count) in hist.iter().enumerate() {
        println!("  [{i}] {}", "#".repeat(*count));
    }
    Ok(())
}
