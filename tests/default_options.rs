//! `PipelineOptions::default()` with no `SCDB_*` override in the
//! environment. Alone in its own test binary: it scrubs process-wide
//! state, which tests sharing a process must not do.

use smartchaindb::core::pipeline::PipelineOptions;
use smartchaindb::store::FsyncLevel;

#[test]
fn default_options_under_a_scrubbed_environment() {
    for name in ["SCDB_DURABLE", "SCDB_FSYNC", "SCDB_TELEMETRY"] {
        std::env::remove_var(name);
    }
    let options = PipelineOptions::default();
    assert!(!options.durable);
    assert_eq!(options.fsync, FsyncLevel::None);
    assert!(!options.telemetry.is_enabled());
    assert!(options.fail_apply.is_empty());
}
