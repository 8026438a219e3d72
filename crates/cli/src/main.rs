//! The `canely` binary: scenario runner for the CANELy stack.

use canely_cli::Failure;
use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Every command writes through this one buffer as it renders.
    let mut stdout = BufWriter::with_capacity(1 << 16, std::io::stdout().lock());
    let done = canely_cli::run_into(&argv, &mut stdout).and_then(|()| Ok(stdout.flush()?));
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Message(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
        // The reader went away (`| head`): it has what it wanted.
        Err(Failure::Write(error)) if error.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Write(error)) => {
            eprintln!("error: writing to stdout: {error}");
            ExitCode::FAILURE
        }
    }
}
