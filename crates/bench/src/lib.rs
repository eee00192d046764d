//! # efactory-bench — benchmark harness
//!
//! One binary, `bench`, serves two kinds of output ([`cli`] has the
//! command line):
//!
//! * **Figures** ([`figures`]: `fig1`, `fig2`, `fig9`, `fig10`, `fig11`,
//!   `ablations`) regenerate every table of the paper's evaluation section
//!   and its headline ratios. Run e.g.
//!   `cargo run --release -p efactory-bench -- fig9`.
//! * **Gated probes** ([`probes`]: `put_get`, `txn`, `sim`, ...) are data:
//!   labelled full-scale runs plus acceptance bounds, executed by one
//!   runner ([`probe`]). Each writes a `BENCH_<name>.json` report, which
//!   `bench gate` compares exactly against a fresh run ([`gate`]).
//!
//! Results are deterministic (virtual-time measurement on a seeded
//! simulator). The `EF_OPS_SCALE` environment variable scales the
//! per-client operation counts ([`Scale`]; default 1.0, smaller = faster,
//! noisier).

use efactory_harness::ExperimentSpec;
use efactory_ycsb::Mix;

pub mod cli;
pub mod figures;
pub mod gate;
pub mod probe;
pub mod probes;

/// The value sizes the paper sweeps in Figures 1, 2, and 9.
pub const VALUE_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// The `EF_OPS_SCALE` factor on every run's per-client op count: finite
/// and positive by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(f64);

impl Scale {
    /// The op counts each run declares.
    pub const FULL: Scale = Scale(1.0);

    /// Parse the value of `EF_OPS_SCALE`; unset means [`Scale::FULL`].
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        let Some(text) = value else {
            return Ok(Scale::FULL);
        };
        match text.trim().parse::<f64>() {
            Ok(f) if f.is_finite() && f > 0.0 => Ok(Scale(f)),
            _ => Err(format!(
                "EF_OPS_SCALE must be a positive number, got {text:?}"
            )),
        }
    }

    /// `base` ops scaled, with a floor of 50 so every run measures
    /// something.
    pub fn ops(self, base: usize) -> usize {
        ((base as f64 * self.0) as usize).max(50)
    }

    /// `spec` with its per-client op count scaled.
    pub fn spec(self, spec: ExperimentSpec) -> ExperimentSpec {
        ExperimentSpec {
            ops_per_client: self.ops(spec.ops_per_client),
            ..spec
        }
    }
}

/// Pretty size label (64B / 1KB / ...).
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// Mix label used in figure tables.
pub fn mix_tag(mix: Mix) -> &'static str {
    match mix {
        Mix::C => "YCSB-C 100%GET",
        Mix::B => "YCSB-B 95%GET",
        Mix::A => "YCSB-A 50%GET",
        Mix::UpdateOnly => "Update-only",
        Mix::T => "YCSB-T 50%TXN",
        Mix::TxnOnly => "Txn-only",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(64), "64B");
        assert_eq!(size_label(1024), "1KB");
        assert_eq!(size_label(4096), "4KB");
        assert_eq!(size_label(100), "100B");
    }

    #[test]
    fn scale_parses_positive_numbers_only() {
        assert_eq!(Scale::parse(None), Ok(Scale::FULL));
        assert_eq!(Scale::parse(Some("0.25")), Ok(Scale(0.25)));
        assert_eq!(Scale::parse(Some("2")), Ok(Scale(2.0)));
        // A decimal comma, junk, or nothing at all is malformed, not 1.0.
        for bad in ["0,25", "fast", "", "0", "-0.5", "NaN", "inf"] {
            let err = Scale::parse(Some(bad)).unwrap_err();
            assert!(err.contains("EF_OPS_SCALE"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn scale_multiplies_ops_with_a_floor() {
        assert_eq!(Scale::FULL.ops(2000), 2000);
        assert_eq!(Scale(0.05).ops(2000), 100);
        assert_eq!(Scale(0.05).ops(64), 50);
    }
}
