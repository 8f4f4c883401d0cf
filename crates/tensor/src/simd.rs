//! Runtime SIMD dispatch for the tier-compiled kernel bodies.
//!
//! The compute plane used to be compiled `-C target-cpu=native`, which
//! made the binary fast on exactly one microarchitecture and illegal
//! (SIGILL) everywhere newer instructions were missing. Instead, each
//! [`TierBody`] — the GEMM macro-kernel (`gemm::MacroKernel`), the
//! depthwise stencil (`stencil::Depthwise`) and the direct dense
//! convolutions (`direct::Direct`) — exists in three
//! [`SimdTier`]s, one compiled body per instruction-set level, selected
//! **once at startup** by probing the CPU ([`run_tiered`] is the only
//! caller of the `#[target_feature]` wrappers):
//!
//! | tier | `#[target_feature]` | GEMM microkernel shape |
//! |------|---------------------|-------------------|
//! | [`SimdTier::Avx512`] | `avx512f,avx512vl,avx512dq,avx512bw,avx2,fma` | 8×32 tile in zmm registers |
//! | [`SimdTier::Fma`] | `avx2,fma` | same tile in ymm registers |
//! | [`SimdTier::Scalar`] | none (baseline x86-64 / any arch) | autovectorized to SSE2 or scalar, `fmaf` via libm |
//!
//! Every tier runs the **same Rust source**; only the enabled
//! instruction set differs. Because the kernels' inner update is
//! `f32::mul_add` — a *fused* multiply-add with a single rounding on
//! every tier, hardware FMA or software `fmaf` alike — and each output
//! element's fma chain is identical regardless of vector width, **all
//! tiers produce bitwise-identical results**. The reductions that are
//! not a single chain, the stencil's and the direct kernels' grad-weight,
//! keep 16 partial sums per element: the source, not the register width,
//! says which lane a product joins (`ox % 16`), and `reduce::fold` the
//! order in which the 16 are added, so they too are the same arithmetic on
//! every tier. The scalar tier is therefore slow
//! (a libm call per multiply-add on pre-FMA hardware) but
//! everywhere-correct; the tier tests assert the bitwise claim directly.
//!
//! Selection, in precedence order:
//!
//! 1. programmatic: [`set_simd_tier`] (validated — unsupported tiers are
//!    rejected, not deferred to a SIGILL);
//! 2. environment: `PIPEBD_SIMD=scalar|fma|avx512|auto`, read once on
//!    first use. A bad value here **panics** instead of
//!    warning-and-falling-back: a run benchmarked
//!    under a typo'd tier would mislabel recorded scaling artifacts, so
//!    the failure must be loud;
//! 3. probe: the best tier the CPU supports.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// An instruction-set level the kernel bodies are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdTier {
    /// Baseline code generation; runs on every CPU the binary targets.
    Scalar,
    /// AVX2 + FMA (x86-64-v3 class machines).
    Fma,
    /// AVX-512 (F/VL/DQ/BW) + AVX2 + FMA.
    Avx512,
}

impl SimdTier {
    /// All tiers, best first — probe order.
    pub const ALL: [SimdTier; 3] = [SimdTier::Avx512, SimdTier::Fma, SimdTier::Scalar];

    fn as_u8(self) -> u8 {
        match self {
            SimdTier::Scalar => 0,
            SimdTier::Fma => 1,
            SimdTier::Avx512 => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => SimdTier::Scalar,
            1 => SimdTier::Fma,
            _ => SimdTier::Avx512,
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn is_supported(self) -> bool {
        match self {
            SimdTier::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdTier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && SimdTier::Fma.is_supported()
            }
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The best tier the running CPU supports — the startup probe.
    pub fn probe() -> SimdTier {
        *SimdTier::ALL
            .iter()
            .find(|t| t.is_supported())
            .expect("scalar tier is always supported")
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdTier::Scalar => write!(f, "scalar"),
            SimdTier::Fma => write!(f, "fma"),
            SimdTier::Avx512 => write!(f, "avx512"),
        }
    }
}

impl std::str::FromStr for SimdTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(SimdTier::Scalar),
            "fma" => Ok(SimdTier::Fma),
            "avx512" => Ok(SimdTier::Avx512),
            other => Err(format!(
                "unknown SIMD tier `{other}` (expected \"scalar\", \"fma\", \"avx512\", or \"auto\")"
            )),
        }
    }
}

/// 0/1/2 = a [`SimdTier`], u8::MAX = unset (fall back to env/probe).
static TIER: AtomicU8 = AtomicU8::new(u8::MAX);
static ENV_TIER: OnceLock<SimdTier> = OnceLock::new();

/// Resolves a `PIPEBD_SIMD`-style override against the running CPU.
/// `None` or `"auto"` probes; anything else must name a supported tier.
///
/// # Errors
///
/// Returns a diagnostic if the value is not a tier name, or names a tier
/// this CPU cannot execute — the caller decides how loudly to fail
/// (the env path panics, [`set_simd_tier`] returns the error).
pub fn resolve_simd_override(spec: Option<&str>) -> Result<SimdTier, String> {
    let spec = match spec {
        None => return Ok(SimdTier::probe()),
        Some(s) if s.trim().eq_ignore_ascii_case("auto") => return Ok(SimdTier::probe()),
        Some(s) => s,
    };
    let tier: SimdTier = spec.parse()?;
    if !tier.is_supported() {
        return Err(format!(
            "SIMD tier `{tier}` is not supported by this CPU (best supported: `{}`)",
            SimdTier::probe()
        ));
    }
    Ok(tier)
}

fn env_tier() -> SimdTier {
    *ENV_TIER.get_or_init(|| {
        let var = std::env::var("PIPEBD_SIMD").ok();
        match resolve_simd_override(var.as_deref()) {
            Ok(t) => t,
            // Fail loudly: a typo'd or unsupported tier silently falling
            // back would mislabel every recorded kernel/scaling artifact
            // in this process.
            Err(e) => panic!("pipebd_tensor: invalid PIPEBD_SIMD: {e}"),
        }
    })
}

/// The process-global SIMD tier currently in effect.
///
/// Resolution order: the last successful [`set_simd_tier`] call, else the
/// `PIPEBD_SIMD` environment variable (panicking on an unknown or
/// unsupported value), else the CPU probe.
pub fn simd_tier() -> SimdTier {
    match TIER.load(Ordering::Relaxed) {
        u8::MAX => env_tier(),
        v => SimdTier::from_u8(v),
    }
}

/// Overrides the process-global SIMD tier.
///
/// # Errors
///
/// Rejects a tier the running CPU cannot execute (the global is left
/// unchanged) — dispatch never holds a tier that would SIGILL.
pub fn set_simd_tier(tier: SimdTier) -> Result<(), String> {
    if !tier.is_supported() {
        return Err(format!(
            "SIMD tier `{tier}` is not supported by this CPU (best supported: `{}`)",
            SimdTier::probe()
        ));
    }
    TIER.store(tier.as_u8(), Ordering::Relaxed);
    Ok(())
}

/// A kernel body compiled once per [`SimdTier`]. Implement `run` as
/// `#[inline(always)]`: each `#[target_feature]` wrapper below then holds
/// its own copy, generated under that wrapper's instruction set.
pub(crate) trait TierBody {
    /// Runs the kernel.
    fn run(self);
}

/// Runs `body` in the code compiled for `tier` — the one dispatch point
/// every tier-compiled kernel goes through.
#[allow(unsafe_code)]
pub(crate) fn run_tiered(tier: SimdTier, body: impl TierBody) {
    match tier {
        SimdTier::Scalar => body.run(),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `simd_tier()` only ever yields a tier that passed
        // `SimdTier::is_supported` on this CPU (the probe, the validated
        // setter, or the panicking env parse), so the required features
        // are present at runtime.
        SimdTier::Fma => unsafe { run_fma(body) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as above — Avx512 is unreachable on CPUs lacking it.
        SimdTier::Avx512 => unsafe { run_avx512(body) },
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        _ => unreachable!("non-scalar tiers are never supported off x86"),
    }
}

/// `body` compiled with AVX2 + FMA enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports `avx2` and `fma`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
unsafe fn run_fma(body: impl TierBody) {
    body.run();
}

/// `body` compiled with AVX-512 (F/VL/DQ/BW) enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports the enabled AVX-512 subsets.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw,avx2,fma")]
#[allow(unsafe_code)]
unsafe fn run_avx512(body: impl TierBody) {
    body.run();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        for t in SimdTier::ALL {
            assert_eq!(t.to_string().parse::<SimdTier>(), Ok(t));
        }
    }

    #[test]
    fn unknown_override_is_an_error_not_a_fallback() {
        let err = resolve_simd_override(Some("avx1024")).unwrap_err();
        assert!(err.contains("unknown SIMD tier"), "{err}");
        let err = resolve_simd_override(Some("")).unwrap_err();
        assert!(err.contains("unknown SIMD tier"), "{err}");
    }

    #[test]
    fn auto_and_unset_probe_a_supported_tier() {
        let probed = resolve_simd_override(None).unwrap();
        assert!(probed.is_supported());
        assert_eq!(resolve_simd_override(Some("auto")).unwrap(), probed);
        assert_eq!(resolve_simd_override(Some("AUTO")).unwrap(), probed);
        assert_eq!(SimdTier::probe(), probed);
    }

    #[test]
    fn scalar_is_always_supported_and_resolvable() {
        assert!(SimdTier::Scalar.is_supported());
        assert_eq!(
            resolve_simd_override(Some("scalar")).unwrap(),
            SimdTier::Scalar
        );
    }

    #[test]
    fn unsupported_tier_is_rejected_by_setter() {
        // Find a tier the CPU lacks, if any; the setter must refuse it.
        for t in SimdTier::ALL {
            if !t.is_supported() {
                assert!(set_simd_tier(t).is_err(), "{t} must be rejected");
            }
        }
        // The resolver agrees with the setter on unsupported tiers.
        for t in SimdTier::ALL {
            let resolved = resolve_simd_override(Some(&t.to_string()));
            assert_eq!(resolved.is_ok(), t.is_supported());
        }
    }

    #[test]
    fn roundtrip_u8() {
        for t in SimdTier::ALL {
            assert_eq!(SimdTier::from_u8(t.as_u8()), t);
        }
    }
}
