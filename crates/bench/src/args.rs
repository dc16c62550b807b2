//! The run arguments every experiment takes.

/// Common run arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    /// Master seed.
    pub seed: u64,
    /// Paper-scale run (`--full`) vs quick run (default).
    pub full: bool,
    /// Episode-collection worker threads (`--workers N`; 1 = the
    /// legacy sequential trainer). Only the experiments built on the
    /// plain training loop take it; the phase-interleaved trainers
    /// (bootstrap/LfD/incremental) collect sequentially.
    pub workers: usize,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            seed: 42,
            full: false,
            workers: 1,
        }
    }
}
