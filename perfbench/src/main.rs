//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <deep_catchup|live_release|recover_verify|all|describe> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, starts the `tred` daemon in
//! this process with the program's defaults, drives one workload for
//! the given time, checks every output, and prints a report followed by
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from a traced phase plus layer probes) with `--trace 1`.
//! Scratch files live under `.perfbench/` in the working directory.
//! `--workload all` runs the three in turn in one process, so its later
//! `peak_rss_mb` readings carry the earlier workloads' high-water mark.

mod deep;
mod live;
mod net;
mod phase;
mod probe;
mod recover;
mod spans;
mod spec;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::phase::Phase;
use crate::probe::ProbeInput;
use crate::spans::Tracer;
use crate::stats::Samples;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SCRATCH: &str = ".perfbench";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(bad("a time in (0, 120]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Everything one run measured.
struct Outcome {
    setup_s: Samples,
    phase: Phase,
    /// Trace mode: the same workload untraced, for the overhead figure.
    reference: Option<Phase>,
    layers: BTreeMap<&'static str, f64>,
    tracer: Tracer,
}

type SetupFn<S> = fn(&Path, u64, f64) -> io::Result<S>;
type PhaseFn<S> = fn(&S, u64, f64, &Tracer) -> io::Result<Phase>;
type ProbeFn<S, const L: usize> = for<'a> fn(&'a S, u64) -> ProbeInput<'a, L>;

fn fresh_dir(dir: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
}

fn drive<S, const L: usize>(
    opts: &Opts,
    work: &Path,
    setup: SetupFn<S>,
    phase: PhaseFn<S>,
    probe_input: ProbeFn<S, L>,
) -> io::Result<Outcome> {
    let mut setup_s = Samples::new();
    let mut build = |rep: usize| -> io::Result<(S, PathBuf)> {
        let dir = work.join(format!("setup-{rep}"));
        fresh_dir(&dir)?;
        let t = Instant::now();
        let s = setup(&dir.join(probe::ARCHIVE_DIR), opts.seed, opts.seconds)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok((s, dir))
    };
    if !opts.trace {
        let mut kept = build(0)?;
        for rep in 1..SETUP_REPS {
            let next = build(rep)?;
            let (old, old_dir) = std::mem::replace(&mut kept, next);
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let tracer = Tracer::new(false);
        let measured = phase(&kept.0, opts.seed, opts.seconds, &tracer)?;
        return Ok(Outcome {
            setup_s,
            phase: measured,
            reference: None,
            layers: BTreeMap::new(),
            tracer,
        });
    }
    let (s, dir) = build(0)?;
    let reference = phase(&s, opts.seed, opts.seconds, &Tracer::new(false))?;
    drop(s);
    let _ = std::fs::remove_dir_all(dir);
    let (s, dir) = build(1)?;
    let tracer = Tracer::new(true);
    let measured = phase(&s, opts.seed, opts.seconds, &tracer)?;
    let mut layers = measured.layer.clone();
    probe::run(&probe_input(&s, opts.seed), &dir, &tracer, &mut layers)?;
    let mut base = reference.op_ms.clone();
    let mut traced = measured.op_ms.clone();
    if let (Some(b), Some(t)) = (base.median(), traced.median()) {
        layers.insert("trace.overhead_pct", (t / b - 1.0) * 100.0);
    }
    Ok(Outcome {
        setup_s,
        phase: measured,
        reference: Some(reference),
        layers,
        tracer,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(opts: &Opts) -> io::Result<bool> {
    let spec = spec::WORKLOADS
        .iter()
        .find(|w| w.name == opts.workload)
        .ok_or_else(|| io::Error::other(format!("unknown workload {:?}", opts.workload)))?;
    let work = PathBuf::from(SCRATCH).join(format!("work-{}-{}", spec.name, std::process::id()));
    fresh_dir(&work)?;
    let outcome = match spec.name {
        "deep_catchup" => drive(opts, &work, deep::setup, deep::phase, deep::probe_input),
        "live_release" => drive(opts, &work, live::setup, live::phase, live::probe_input),
        _ => drive(
            opts,
            &work,
            recover::setup,
            recover::phase,
            recover::probe_input,
        ),
    };
    let _ = std::fs::remove_dir_all(&work);
    let Outcome {
        mut setup_s,
        mut phase,
        reference,
        layers,
        tracer,
    } = outcome?;
    if let Some(r) = reference {
        phase.errors.absorb(r.errors);
    }

    println!(
        "== perfbench {} seed={} seconds={} trace={}",
        spec.name, opts.seed, opts.seconds, opts.trace as u8
    );
    println!("curve {}; {}", spec.curve, spec.shape);
    println!("why: {}", spec.why);
    for line in &phase.lines {
        println!("{line}");
    }
    let attempted = phase.attempted.max(1);
    let fail_ratio = phase.failed as f64 / attempted as f64;
    println!(
        "fail_ratio = {fail_ratio:.4} ({} failed of {} operations)",
        phase.failed, phase.attempted
    );
    let rss = sys::peak_rss_mb();
    println!("peak_rss_mb = {rss:.1} MB");
    println!("setup_s: {}", setup_s.describe(99.0, "s"));
    let correct = phase.errors.count == 0 && phase.attempted > 0;
    if !correct {
        println!("OUTPUT CHECK FAILED: {} mismatches", phase.errors.count);
        for e in &phase.errors.first {
            println!("  {e}");
        }
    }

    let metrics: Vec<(&str, &str, f64)> = if opts.trace {
        let dump =
            PathBuf::from(SCRATCH).join(format!("spans-{}-seed{}.jsonl", spec.name, opts.seed));
        let written = tracer.dump(&dump)?;
        println!("spans: {written} written to {}", dump.display());
        println!("self time by layer (spans, total ms, self ms):");
        for (layer, (n, total, own)) in tracer.self_times() {
            println!("  {layer:<10} {n:>8} {total:>12.1} {own:>12.1}");
        }
        println!("per-layer metrics (0 = not exercised by this workload):");
        let metrics = spec::PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = layers.get(name).copied().unwrap_or(0.0);
                println!("  {name} = {v:.4} {unit}");
                (*name, *unit, v)
            })
            .collect();
        spec::print_predictions();
        metrics
    } else {
        let p50 = phase.op_ms.median().unwrap_or(0.0);
        vec![
            ("setup_s", "s", setup_s.median().unwrap_or(0.0)),
            ("peak_rss_mb", "MB", rss),
            ("goodput_per_s", "1/s", phase.goodput),
            ("op_p50_ms", "ms", p50),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <deep_catchup|live_release|recover_verify|all|describe> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if opts.workload == "describe" {
        spec::describe();
        return;
    }
    let names: Vec<String> = if opts.workload == "all" {
        spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect()
    } else {
        vec![opts.workload.clone()]
    };
    let mut all_correct = true;
    for name in names {
        let opts = Opts {
            workload: name,
            ..opts
        };
        match run(&opts) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}
