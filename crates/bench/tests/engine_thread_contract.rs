//! The cycle engine is one serial loop with no thread setting. The
//! `sim_threads` names survive only for the frozen `hostbench` harness,
//! which requires them to read 1; this pins that contract.

use ggpu_core::{GpuConfig, Scale, SuiteRunner};

#[test]
fn engine_reports_one_thread_whatever_the_environment_says() {
    // The variable older builds read their default thread count from; it
    // must now be ignored.
    std::env::set_var("GGPU_SIM_THREADS", "4");
    let config = GpuConfig::rtx3070();
    assert_eq!(config.sim_threads, 1);
    assert_eq!(config.resolved_sim_threads(), 1);
    let r = SuiteRunner::new(Scale::Tiny).run_one("SW", false);
    assert!(r.verified, "SW must verify");
    assert_eq!(r.sim_threads, 1);
}
