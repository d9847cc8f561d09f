//! `hsa` binary: GROUP BY over CSV from the shell.
//!
//! Failures print a one-line `error: <class>: <detail>` to stderr and
//! exit with the class's code: 1 internal, 2 budget, 3 timeout, 4 I/O,
//! 5 invalid input (including usage errors). `--help` exits 0.

use hsa_cli::{
    parse_args, parse_serve_args, run_on_csv_text, serve, CliError, ErrorClass, UsageError,
    SERVE_USAGE, USAGE,
};
use std::io::Write as _;
use std::process::ExitCode;

fn fail(e: &CliError) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(e.class.exit_code())
}

fn serve_main(argv: impl Iterator<Item = String>) -> ExitCode {
    let args = match parse_serve_args(argv) {
        Ok(a) => a,
        Err(UsageError(msg)) => {
            if msg == SERVE_USAGE {
                println!("{msg}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}");
            return ExitCode::from(ErrorClass::InvalidInput.exit_code());
        }
    };
    match serve(&args) {
        // serve() only returns on a bind/setup failure.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        return serve_main(argv);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(UsageError(msg)) => {
            // --help is not an error: usage on stdout, exit 0.
            if msg == USAGE {
                println!("{msg}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}");
            return ExitCode::from(ErrorClass::InvalidInput.exit_code());
        }
    };
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            return fail(&CliError::new(ErrorClass::Io, format!("cannot read {}: {e}", args.file)))
        }
    };
    let run = match run_on_csv_text(&text, &args) {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    // A closed stdout (`hsa … | head -1`) is an I/O failure, not a panic.
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(run.rendered.as_bytes()).and_then(|()| stdout.flush()) {
        return fail(&CliError::new(ErrorClass::Io, format!("cannot write output: {e}")));
    }
    if let Some(path) = &args.stats_json {
        let json = run.report.to_json().to_string_pretty(2);
        if let Err(e) = std::fs::write(path, json) {
            return fail(&CliError::new(ErrorClass::Io, format!("cannot write {path}: {e}")));
        }
    }
    if let Some(path) = &args.trace {
        let trace = run.report.trace_json.as_deref().unwrap_or("{\"traceEvents\":[]}");
        if let Err(e) = std::fs::write(path, trace) {
            return fail(&CliError::new(ErrorClass::Io, format!("cannot write {path}: {e}")));
        }
    }
    ExitCode::SUCCESS
}
