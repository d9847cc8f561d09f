//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --hsa <path>`, run from the root of a checkout.
//!
//! Runs one workload against the `hsa` binary at `--hsa` and prints every
//! metric by name and unit, then the result line. Exits 0 when every
//! result was correct, 1 when any was wrong or refused (the result line
//! says `"correct": false`), and 2 without a result line when the run
//! could not be carried out. `run.py` builds both binaries and calls this.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{batch, serve, Ctx, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    ctx: Ctx,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut hsa = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let v = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(v > 0.0 && v.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(v));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--hsa" => hsa = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let out = PathBuf::from("perfbench/out");
    let work = out.join(format!("work-{}", std::process::id()));
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            hsa: hsa.ok_or("--hsa is required")?,
            work,
            out,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
        },
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.ctx.hsa.is_file() {
        eprintln!("perfbench: no hsa binary at {}", args.ctx.hsa.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.ctx.work.display());
        return ExitCode::from(2);
    }
    let work = WorkDir(args.ctx.work.clone());
    let w = args.workload;
    let result = match (w, args.trace) {
        (Workload::ServeMixed, false) => serve::run(&args.ctx),
        (Workload::ServeMixed, true) => serve::run_traced(&args.ctx),
        (_, false) => batch::run(&args.ctx, w),
        (_, true) => batch::run_traced(&args.ctx, w),
    };
    drop(work);
    let out: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let mode = if args.trace { "traced" } else { "untraced" };
    println!("workload {} · seed {} · {mode}", w.name(), args.ctx.seed);
    for note in &out.notes {
        println!("  {note}");
    }
    for e in &out.errors {
        println!("  FAILED {e}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  error_rate {error_rate} ({} of {} operations)", out.failed, out.attempted);
    if catalog.iter().any(|d| out.values.get(d.name).is_none()) {
        eprintln!("perfbench: {}: no operation succeeded, nothing to report", w.name());
        return ExitCode::from(1);
    }
    print!("{}", out.values.render(catalog));
    let correct = out.failed == 0;
    println!("{}", out.values.result_line(catalog, correct, out.attempted, out.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
