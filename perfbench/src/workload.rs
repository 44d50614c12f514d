//! The benchmark's workloads: `.tk` source generation, tilings and the
//! shape every run of a workload must have.
//!
//! The seed rewrites only coefficient constants in the generated source.
//! Sizes, tilings and rank counts are fixed per workload, so iterations,
//! messages and plans are identical across seeds.

use tilecc::linalg::RMat;
use tilecc::parcode::Backend;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper §4.2 Jacobi, T=64 N=128, big rectangular tiles on the skewed
    /// space: chain lowering leads setup, gather and compute lead the run.
    JacobiBulk,
    /// ADI, T=8192 N=15, 1×8×16 tiles mapped along t over in-process TCP:
    /// 8,191 small messages and a long chain of tiny tiles.
    AdiChattyTcp,
    /// `tilecc::tune` over paper §4.1 SOR, M=8 N=12, volume 128, seeded with
    /// the paper's rectangular H; the winner is then run and verified.
    SorTune,
}

/// Tile volume `|det P|` every workload's tuner call searches (the volume of
/// `sor-tune`'s and `adi-chatty-tcp`'s H).
pub const TUNE_VOLUME: i64 = 128;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::JacobiBulk,
        Workload::AdiChattyTcp,
        Workload::SorTune,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JacobiBulk => "jacobi-bulk",
            Workload::AdiChattyTcp => "adi-chatty-tcp",
            Workload::SorTune => "sor-tune",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tiling matrix the workload runs (for `sor-tune`, the tuner's
    /// seed: the paper's rectangular H).
    pub fn h(self) -> RMat {
        let diag = |d: [i64; 3]| {
            RMat::from_fractions(&[
                &[(1, d[0]), (0, 1), (0, 1)],
                &[(0, 1), (1, d[1]), (0, 1)],
                &[(0, 1), (0, 1), (1, d[2])],
            ])
        };
        match self {
            Workload::JacobiBulk => diag([8, 100, 200]),
            Workload::AdiChattyTcp => diag([1, 8, 16]),
            Workload::SorTune => diag([2, 8, 8]),
        }
    }

    /// Mapping dimension: tile chains run along this row of H.
    pub fn m(self) -> usize {
        match self {
            Workload::JacobiBulk | Workload::AdiChattyTcp => 0,
            Workload::SorTune => 2,
        }
    }

    pub fn backend(self) -> Backend {
        match self {
            Workload::AdiChattyTcp => Backend::Tcp,
            Workload::JacobiBulk | Workload::SorTune => Backend::Threaded,
        }
    }

    /// Whether the workload's jobs run pinned to one CPU. `sor-tune` starts
    /// thousands of rank threads that each do microseconds of work; on two vCPUs
    /// its wall time is then set by cross-CPU wake-ups, whose cost swings
    /// about 2× with the host's load. On one CPU the same thread start-up
    /// and scheduling work is measured steadily. The run workloads need both
    /// CPUs for their two ranks.
    pub fn one_cpu(self) -> bool {
        self == Workload::SorTune
    }

    /// Candidates the workload's tuner call may simulate. Every call is
    /// seeded with [`Workload::h`] and searches [`TUNE_VOLUME`]. `sor-tune`
    /// simulates 64 candidates. The other workloads cap the search at one
    /// evaluation, so their call enumerates and filters the space and then
    /// evaluates only their own H (compile + timing-only simulate at full
    /// size); at jacobi-bulk's own volume of 160,000 one call takes ~6 s.
    pub fn tune_cap(self) -> usize {
        match self {
            Workload::SorTune => 64,
            Workload::JacobiBulk | Workload::AdiChattyTcp => 1,
        }
    }

    /// Iterations of the nest (`|J^n|`), the same for every seed.
    pub fn iterations(self) -> u64 {
        match self {
            Workload::JacobiBulk => 64 * 128 * 128,
            Workload::AdiChattyTcp => 8192 * 15 * 15,
            Workload::SorTune => 8 * 12 * 12,
        }
    }

    /// Ranks of the plan the workload runs (`None`: decided by the tuner).
    pub fn ranks(self) -> Option<usize> {
        match self {
            Workload::JacobiBulk | Workload::AdiChattyTcp => Some(2),
            Workload::SorTune => None,
        }
    }

    /// The `.tk` source for `seed`. Only the coefficients depend on it.
    pub fn source(self, seed: u64) -> String {
        let mut rng = SplitMix(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self {
            // A convex-ish weight keeps 64 sweeps bounded and away from
            // subnormals.
            Workload::JacobiBulk => format!(
                "kernel jacobi\n\
                 param T = 64\n\
                 param N = 128\n\
                 iter t = 1 to T\n\
                 iter i = 1 to N\n\
                 iter j = 1 to N\n\
                 skew = [1,0,0; 1,1,0; 1,0,1]\n\
                 deps = (1,1,0), (1,0,1), (1,-1,0), (1,0,-1)\n\
                 array A = bnd()\n\
                 A[t,i,j] = {c:.6}*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])\n",
                c = rng.range(0.20, 0.25),
            ),
            // |a0| + |a1| + |a2| <= 1 keeps 8192 steps bounded.
            Workload::AdiChattyTcp => format!(
                "kernel adi\n\
                 param T = 8192\n\
                 param N = 15\n\
                 iter t = 1 to T\n\
                 iter i = 1 to N\n\
                 iter j = 1 to N\n\
                 deps = (1,0,0), (1,1,0), (1,0,1)\n\
                 array A = bnd()\n\
                 A[t,i,j] = {a0:.6}*A[t-1,i,j] + {a1:.6}*A[t-1,i-1,j] - {a2:.6}*A[t-1,i,j-1]\n",
                a0 = rng.range(0.45, 0.55),
                a1 = rng.range(0.20, 0.30),
                a2 = rng.range(0.05, 0.15),
            ),
            Workload::SorTune => format!(
                "kernel sor\n\
                 param M = 8\n\
                 param N = 12\n\
                 iter t = 1 to M\n\
                 iter i = 1 to N\n\
                 iter j = 1 to N\n\
                 skew = [1,0,0; 1,1,0; 2,0,1]\n\
                 deps = (0,1,0), (0,0,1), (1,-1,0), (1,0,-1), (1,0,0)\n\
                 array A = bnd()\n\
                 A[t,i,j] = {w:.6}/4*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) + (1 - {w:.6})*A[t-1,i,j]\n",
                w = rng.range(1.0, 1.3),
            ),
        }
    }
}

/// SplitMix64: a tiny seeded generator for the coefficients.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc::tiling::{Distribution, TiledSpace, TilingTransform};

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_changes_only_coefficients() {
        for w in Workload::ALL {
            let a = w.source(1);
            let b = w.source(2);
            assert_ne!(a, b, "{}: the seed must change the source", w.name());
            assert_eq!(a, w.source(1), "{}: same seed, same source", w.name());
            let strip = |s: &str| -> String { s.chars().filter(|c| !c.is_ascii_digit()).collect() };
            // Every line but the statement is seed-independent.
            let (la, lb): (Vec<_>, Vec<_>) = (a.lines().collect(), b.lines().collect());
            assert_eq!(la.len(), lb.len());
            for (x, y) in la.iter().zip(&lb) {
                if x.starts_with("A[") {
                    assert_eq!(strip(x), strip(y));
                } else {
                    assert_eq!(x, y);
                }
            }
        }
    }

    /// The generated sources have exactly the advertised iteration counts,
    /// and the fixed tilings of the two run workloads give two ranks.
    #[test]
    fn sources_have_expected_shape() {
        for w in Workload::ALL {
            for seed in [0, 7] {
                let alg = tilecc_frontend::compile_kernel(&w.source(seed)).unwrap();
                assert_eq!(alg.nest.num_points() as u64, w.iterations(), "{}", w.name());
            }
        }
        assert_eq!(Workload::JacobiBulk.iterations(), 1_048_576);
        assert_eq!(Workload::AdiChattyTcp.iterations(), 1_843_200);
        for w in [Workload::JacobiBulk, Workload::AdiChattyTcp] {
            let alg = tilecc_frontend::compile_kernel(&w.source(3)).unwrap();
            let t = TilingTransform::new(w.h()).unwrap();
            t.validate_for(alg.nest.deps()).unwrap();
            let tiled = TiledSpace::new(t, alg.nest.space().clone()).unwrap();
            let dist = Distribution::new(&tiled, Some(w.m())).unwrap();
            assert_eq!(Some(dist.num_procs()), w.ranks(), "{}", w.name());
        }
    }
}
