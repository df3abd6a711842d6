//! Trace-output wiring for the `exp` binary.
//!
//! When `FFS_TRACE=<dir>` is set, every simulation run executed through
//! [`crate::runner::run_system`] records its control-plane decisions into a
//! per-run [`ffs_obs::Recorder`] and exports two artifacts on completion:
//!
//! * `<dir>/<tag>.jsonl` — one JSON object per event, plus a final
//!   counters line;
//! * `<dir>/<tag>.chrome.json` — Chrome trace-event format, loadable in
//!   Perfetto / `chrome://tracing`, one track per GPU slice.
//!
//! Tags are `<system>_<NNNN>` with a process-wide counter per system name,
//! so the many runs of a sweep never collide. Recorders are thread-local
//! (installed around each run), so the parallel harness traces concurrent
//! runs into disjoint buffers.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// The resolved trace output directory (`FFS_TRACE`), if tracing is
/// active. The first call creates the directory and flips the global
/// recording switch on.
pub fn trace_dir() -> Option<&'static Path> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = PathBuf::from(std::env::var_os("FFS_TRACE")?);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("trace: cannot create {}: {e}", dir.display());
        }
        ffs_obs::set_enabled(true);
        Some(dir)
    })
    .as_deref()
}

/// Allocates the next unique tag for `system` (e.g. `fluidfaas_0003`).
fn next_tag(system: &str) -> String {
    static SEQ: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    let seq = SEQ.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = seq.lock().expect("tag sequence");
    let n = map.entry(system.to_string()).or_insert(0);
    let tag = format!("{}_{:04}", system.to_lowercase(), *n);
    *n += 1;
    tag
}

/// RAII guard installing a fresh recorder for one run; exports both trace
/// flavours when dropped. A no-op when tracing is inactive.
pub struct RunTrace {
    system: &'static str,
}

impl RunTrace {
    /// Begins tracing one run of `system` (no-op unless tracing is
    /// active).
    pub fn begin(system: &'static str) -> Self {
        if trace_dir().is_some() {
            ffs_obs::install(std::sync::Arc::new(ffs_obs::Recorder::new()));
        }
        RunTrace { system }
    }
}

impl Drop for RunTrace {
    fn drop(&mut self) {
        let Some(dir) = trace_dir() else { return };
        let Some(rec) = ffs_obs::uninstall() else {
            return;
        };
        let _fold = ffs_telemetry::span(ffs_telemetry::Phase::ObsFold);
        let recording = rec.drain();
        if recording.events.is_empty() {
            return;
        }
        let tag = next_tag(self.system);
        if let Err(e) = export(dir, &tag, &recording) {
            eprintln!("trace: export of {tag} failed: {e}");
        }
    }
}

fn export(
    dir: &Path,
    tag: &str,
    recording: &ffs_obs::Recording,
) -> Result<(), ffs_obs::ExportError> {
    ffs_obs::export_jsonl(&dir.join(format!("{tag}.jsonl")), recording)?;
    ffs_obs::export_chrome_trace(&dir.join(format!("{tag}.chrome.json")), recording)
}

#[cfg(test)]
mod tests {
    use super::next_tag;

    #[test]
    fn tags_are_unique_and_per_system() {
        let a0 = next_tag("Alpha");
        let b0 = next_tag("Beta");
        let a1 = next_tag("Alpha");
        assert!(a0.starts_with("alpha_"));
        assert!(b0.starts_with("beta_"));
        assert_ne!(a0, a1);
    }
}
