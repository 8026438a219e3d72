//! Where a command's output goes, and why a command failed.

use crate::Args;
use std::io::{self, Write};

/// Why a command wrote nothing, or not all of its output.
#[derive(Debug)]
pub enum Failure {
    /// A refused invocation or input, or a run that broke an
    /// invariant: the message for stderr. Nothing was written.
    Message(String),
    /// The sink refused a write: the reader went away, the disk is
    /// full.
    Write(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Message(message.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(error: io::Error) -> Self {
        Failure::Write(error)
    }
}

/// Where a command's output goes. It opens only once every argument
/// has been read and checked ([`Sink::open`]), so a refused invocation
/// writes nothing.
pub struct Sink<'o>(&'o mut dyn Write);

impl<'o> Sink<'o> {
    /// A sink over `out`.
    pub fn new(out: &'o mut dyn Write) -> Self {
        Sink(out)
    }

    /// Refuses any argument the command did not read
    /// ([`Args::reject_unused`]), then hands out the writer.
    ///
    /// # Errors
    ///
    /// The unknown option or flag.
    pub fn open(self, args: &Args) -> Result<&'o mut dyn Write, Failure> {
        args.reject_unused()?;
        Ok(self.0)
    }

    /// [`Sink::open`], then writes `text`: the whole output of a
    /// command that renders a report.
    ///
    /// # Errors
    ///
    /// The unknown option or flag, or the failed write.
    pub fn text(self, args: &Args, text: &str) -> Result<(), Failure> {
        self.open(args)?.write_all(text.as_bytes())?;
        Ok(())
    }
}
