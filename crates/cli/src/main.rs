//! `octocache` — build, inspect, query and diff occupancy maps from the
//! command line. See `octocache help` for usage.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match octocache_cli::run(&args) {
        Ok(output) => match writeln!(std::io::stdout().lock(), "{output}") {
            // A reader that closed the pipe (`octocache … | head -1`) has
            // what it wanted; that is not a failure, let alone a panic.
            Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                eprintln!("error: cannot write to stdout: {e}");
                ExitCode::from(3)
            }
            _ => ExitCode::SUCCESS,
        },
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, octocache_cli::CliError::Usage(_)) {
                eprintln!("run `octocache help` for usage");
            }
            ExitCode::from(e.exit_code())
        }
    }
}
