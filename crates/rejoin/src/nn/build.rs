//! The CPU builds of the network kernels, and the one dispatch into
//! them.
//!
//! Every kernel of this module's siblings is one body compiled twice: a
//! portable build for the target's baseline (SSE2 on `x86_64`, 4 lanes)
//! and, on `x86_64`, an AVX2 build (8 lanes). [`Build::host`] names the
//! widest build the CPU runs, and [`Build::run`] runs a body in it —
//! the crate's one `unsafe` call. Inference
//! ([`Mlp::logits_at`](crate::nn::Mlp)), the forward and backward
//! passes, gradient scaling and clipping, Adam's step and the
//! transposed head all run through it, so REINFORCE, the reward model
//! and imitation train at the CPU's vector width.
//!
//! The vector width is therefore a property of the host, like the
//! engine, thread count and column encoding, and like them it cannot
//! move a bit, for two reasons:
//! - lanes only ever hold *different outputs'* values; each sum still
//!   adds its terms one at a time, in the order
//!   [`crate::nn::matrix`]'s rule fixes, so a wider vector changes how
//!   many sums advance together, never a sum's order;
//! - AVX2 enables no fused multiply-add, and rustc never contracts
//!   `a * w + s` into one on its own, so every product is rounded
//!   before it is added, as in the portable build. Every other
//!   operation (`/`, `sqrt`, a compare) is the same IEEE operation at
//!   any width.
//!
//! No setting chooses the build. A global `-C target-cpu` would make
//! every binary fail with an illegal instruction on older CPUs, and
//! portable SIMD (`std::simd`) is not on stable Rust.

/// A compiled copy of a kernel body: for the target's baseline CPU, or
/// for CPUs with AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Build {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Build {
    /// The widest build the running CPU can execute. `std` probes the
    /// CPU once per process and caches the answer, so this is a load.
    /// The only constructor of [`Build::Avx2`].
    pub(crate) fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }

    /// Runs `body` compiled for this build. Only code inlined into the
    /// AVX2 entry is compiled for AVX2, so `body` is an
    /// `#[inline(always)]` closure and the kernels it calls are
    /// `#[inline(always)]` too; a call that is not inlined runs
    /// portable, with the same bits.
    #[allow(unsafe_code)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self {
            Build::Portable => body(),
            // SAFETY: `Build::Avx2` exists only where `Build::host` saw
            // the CPU report AVX2, the one feature `run_avx2` is
            // compiled for; it has no other precondition.
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => unsafe { run_avx2(body) },
        }
    }
}

/// `body` compiled for AVX2: its loops run 8 lanes wide instead of 4.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The builds this host can run: the portable one, and the AVX2 one
    /// where the CPU reports AVX2.
    pub(crate) fn builds() -> Vec<Build> {
        let mut builds = vec![Build::Portable];
        if Build::host() != Build::Portable {
            builds.push(Build::host());
        }
        builds
    }

    #[test]
    fn every_build_runs_its_body() {
        for build in builds() {
            assert_eq!(
                build.run(
                    #[inline(always)]
                    || 6 * 7
                ),
                42,
                "{build:?}"
            );
        }
    }
}
