//! The typed harness configuration.
//!
//! Every knob the property engine and the bench harness read from
//! `SHRIMP_*` environment variables lives here as a plain field on
//! [`HarnessConfig`]. Code paths take a `&HarnessConfig` (or fall back to
//! [`HarnessConfig::global`]), so a caller can configure them
//! programmatically with a builder:
//!
//! ```
//! use shrimp_testkit::HarnessConfig;
//! let cfg = HarnessConfig::new().with_prop_cases(8).with_bench_iters(3);
//! assert_eq!(cfg.prop_case_count(48), 8);
//! assert_eq!(cfg.bench_iters, 3);
//! ```
//!
//! Experiment scale is not here: the `shrimp-harness` sweep runner's
//! `--smoke`/`--full` and `--nodes` flags are the one way to set it.
//!
//! The environment variables remain supported as a thin compatibility
//! shim: [`HarnessConfig::from_env`] parses them all, and
//! [`HarnessConfig::global`] does so exactly once per process.

use std::path::PathBuf;
use std::sync::OnceLock;

/// All harness knobs, parsed once at entry.
///
/// | Field | Env shim | Default |
/// |---|---|---|
/// | `prop_cases` | `SHRIMP_PROP_CASES` | `None` (use declared count) |
/// | `prop_seed` | `SHRIMP_PROP_SEED` | `None` (0) |
/// | `bench_iters` | `SHRIMP_BENCH_ITERS` | 10 |
/// | `bench_warmup` | `SHRIMP_BENCH_WARMUP` | 3 |
/// | `bench_json` | `SHRIMP_BENCH_JSON=0` disables | `true` |
/// | `bench_dir` | `SHRIMP_BENCH_DIR` | `None` (nearest `results/`) |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Property-test case count override (`None`: each suite's declared count).
    pub prop_cases: Option<u32>,
    /// Extra seed perturbation for property tests.
    pub prop_seed: Option<u64>,
    /// Timed iterations per benchmark.
    pub bench_iters: u32,
    /// Warmup iterations per benchmark.
    pub bench_warmup: u32,
    /// Write the per-suite JSON artifact from bench harnesses.
    pub bench_json: bool,
    /// Bench JSON output directory (`None`: nearest `results/`).
    pub bench_dir: Option<PathBuf>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl HarnessConfig {
    /// The defaults, with no environment involved.
    pub fn new() -> Self {
        HarnessConfig {
            prop_cases: None,
            prop_seed: None,
            bench_iters: 10,
            bench_warmup: 3,
            bench_json: true,
            bench_dir: None,
        }
    }

    /// The environment-variable compatibility shim: the defaults overlaid
    /// with every `SHRIMP_*` knob present in the process environment
    /// (unparsable values fall back to the default, as before).
    pub fn from_env() -> Self {
        HarnessConfig {
            prop_cases: env_parse("SHRIMP_PROP_CASES"),
            prop_seed: env_parse("SHRIMP_PROP_SEED"),
            bench_iters: env_parse("SHRIMP_BENCH_ITERS").unwrap_or(10),
            bench_warmup: env_parse("SHRIMP_BENCH_WARMUP").unwrap_or(3),
            bench_json: std::env::var("SHRIMP_BENCH_JSON")
                .map(|v| v != "0")
                .unwrap_or(true),
            bench_dir: std::env::var("SHRIMP_BENCH_DIR").ok().map(PathBuf::from),
        }
    }

    /// The process-wide configuration, parsed from the environment exactly
    /// once (entry points that take no explicit config use this).
    pub fn global() -> &'static HarnessConfig {
        static GLOBAL: OnceLock<HarnessConfig> = OnceLock::new();
        GLOBAL.get_or_init(HarnessConfig::from_env)
    }

    /// Resolves the property-test case count for a suite declaring
    /// `declared` cases.
    pub fn prop_case_count(&self, declared: u32) -> u32 {
        self.prop_cases.unwrap_or(declared)
    }

    /// Builder: property-test case count override.
    pub fn with_prop_cases(mut self, cases: u32) -> Self {
        self.prop_cases = Some(cases);
        self
    }

    /// Builder: property-test seed perturbation.
    pub fn with_prop_seed(mut self, seed: u64) -> Self {
        self.prop_seed = Some(seed);
        self
    }

    /// Builder: timed bench iterations.
    pub fn with_bench_iters(mut self, iters: u32) -> Self {
        self.bench_iters = iters.max(1);
        self
    }

    /// Builder: bench warmup iterations.
    pub fn with_bench_warmup(mut self, warmup: u32) -> Self {
        self.bench_warmup = warmup;
        self
    }

    /// Builder: bench JSON artifact on/off.
    pub fn with_bench_json(mut self, json: bool) -> Self {
        self.bench_json = json;
        self
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documented_values() {
        let c = HarnessConfig::new();
        assert_eq!(c.bench_iters, 10);
        assert_eq!(c.bench_warmup, 3);
        assert!(c.bench_json);
        assert_eq!(c.prop_case_count(48), 48);
    }

    #[test]
    fn builder_overrides_compose() {
        let c = HarnessConfig::new()
            .with_prop_cases(7)
            .with_prop_seed(99)
            .with_bench_iters(0) // clamps to 1
            .with_bench_warmup(0)
            .with_bench_json(false);
        assert_eq!(c.prop_case_count(48), 7);
        assert_eq!(c.prop_seed, Some(99));
        assert_eq!(c.bench_iters, 1);
        assert_eq!(c.bench_warmup, 0);
        assert!(!c.bench_json);
    }

    #[test]
    fn env_shim_matches_defaults_when_unset() {
        // CI never exports SHRIMP_* for unit tests; when some are set by a
        // user we only check the ones that are not.
        let env = HarnessConfig::from_env();
        if std::env::var("SHRIMP_PROP_CASES").is_err() {
            assert_eq!(env.prop_cases, None);
        }
    }
}
