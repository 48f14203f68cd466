//! Snapshot-file writing for the `loadgen` binary.
//!
//! The binary's only I/O failure mode is writing its `--out` JSON
//! snapshot; a bare `expect` there dies with a panic backtrace that does
//! not even name the file. [`write_snapshot`] turns the failure into an
//! error message carrying the offending path, so the binary can print
//! `error: cannot write <path>: <why>` and exit nonzero (pinned by the
//! CLI exit-path tests in `tests/loadgen.rs`).

/// Render the `"fault_regime"` snapshot field. Every loadgen/service
/// snapshot names the sampling law its fault populations were drawn from
/// (taken from the scenario's regime), so snapshots measured under
/// different regimes are never compared by accident.
pub fn fault_regime_field(regime: &str) -> String {
    format!("  \"fault_regime\": \"{regime}\",\n")
}

/// Write `contents` to `path`; on failure the error names the path.
pub fn write_snapshot(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::write_snapshot;

    #[test]
    fn failure_names_the_offending_path() {
        let path = "/nonexistent-dir-for-mcc-bench-tests/snap.json";
        let err = write_snapshot(path, "{}").unwrap_err();
        assert!(err.contains(path), "error must name the path: {err}");
        assert!(err.starts_with("cannot write"), "got: {err}");
    }

    #[test]
    fn success_writes_the_contents() {
        let path = std::env::temp_dir().join(format!("mcc-report-{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        write_snapshot(&path_str, "{\"ok\": true}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\": true}\n");
        let _ = std::fs::remove_file(&path);
    }
}
