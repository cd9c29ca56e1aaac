//! The four workloads, in the harness's own vocabulary. Nothing here
//! names a repo type; `adapter.rs` translates.

/// The five DP benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bm {
    Ge,
    Sw,
    Fw,
    Paren,
    Lcs,
}

impl Bm {
    pub const ALL: [Bm; 5] = [Bm::Ge, Bm::Sw, Bm::Fw, Bm::Paren, Bm::Lcs];

    /// Suffix used in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Bm::Ge => "ge",
            Bm::Sw => "sw",
            Bm::Fw => "fw",
            Bm::Paren => "paren",
            Bm::Lcs => "lcs",
        }
    }

    /// Cell updates of one `n x n` problem, the unit of
    /// `kernels.loops_ns_per_update`: GE's triangular sum of squares,
    /// FW's `n^3` relaxations, Paren's `n^3/6` split evaluations, one
    /// update per cell for the two wavefront benchmarks.
    pub fn updates(self, n: usize) -> f64 {
        let n = n as f64;
        match self {
            Bm::Ge => n * (n - 1.0) * (2.0 * n - 1.0) / 6.0,
            Bm::Fw => n * n * n,
            Bm::Paren => n * n * n / 6.0,
            Bm::Sw | Bm::Lcs => n * n,
        }
    }
}

/// The six execution models: the paper's axis, and the suffix of every
/// `wall_s.*` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Model {
    Loops,
    Rdp,
    ForkJoin,
    CncNative,
    CncTuner,
    CncManual,
}

impl Model {
    pub const ALL: [Model; 6] = [
        Model::Loops,
        Model::Rdp,
        Model::ForkJoin,
        Model::CncNative,
        Model::CncTuner,
        Model::CncManual,
    ];

    /// The three data-flow variants.
    pub const CNC: [Model; 3] = [Model::CncNative, Model::CncTuner, Model::CncManual];

    /// A data-flow variant's name inside `cnc.*` metric names.
    pub fn variant_key(self) -> &'static str {
        self.key().trim_start_matches("cnc_")
    }

    pub fn key(self) -> &'static str {
        match self {
            Model::Loops => "loops",
            Model::Rdp => "rdp",
            Model::ForkJoin => "forkjoin",
            Model::CncNative => "cnc_native",
            Model::CncTuner => "cnc_tuner",
            Model::CncManual => "cnc_manual",
        }
    }
}

/// One problem instance of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Problem {
    pub bm: Bm,
    pub n: usize,
    pub base: usize,
    /// Decomposition width.
    pub r: u32,
    /// Runs per model per rep. For a `seeded` SW problem each copy is
    /// its own query pair.
    pub copies: usize,
    /// SW only: sequences drawn from `--seed` instead of the facade's
    /// fixed standard input. Direct runs only (a served benchmark job
    /// always computes the standard input) and `r = 2` only (the query
    /// entry point has no width parameter).
    pub seeded: bool,
}

const fn problem(bm: Bm, n: usize, base: usize, r: u32) -> Problem {
    Problem {
        bm,
        n,
        base,
        r,
        copies: 1,
        seeded: false,
    }
}

/// How a workload reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process calls on a shared two-worker pool.
    Direct,
    /// Jobs through the job server, four closed-loop clients.
    Served,
}

/// Shape of one served batch (the served workloads' rep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Jobs per (problem, model) class in a batch.
    pub per_class: usize,
    /// Small-alignment batch jobs per batch mode in a batch.
    pub sw_batches: usize,
    /// Draw within-tenant priorities from {0, 1, 2} instead of 0.
    pub priorities: bool,
    /// Every job of tenant bravo runs under full integrity checking.
    pub integrity_on_bravo: bool,
}

/// Geometry of the small-alignment batch jobs: 8 queries of 32 x 32
/// on 8 x 8 tiles.
pub const SW_BATCH_QUERIES: usize = 8;
pub const SW_BATCH_N: usize = 32;
pub const SW_BATCH_BASE: usize = 8;

/// Closed-loop clients of a served workload, each waiting for its reply
/// before sending its next job.
pub const CLIENTS: usize = 4;
/// Pool workers everywhere (the sandbox has two hardware threads on one
/// physical core, so parallel numbers are not scaling claims).
pub const WORKERS: usize = 2;

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub problems: Vec<Problem>,
    pub mix: Mix,
    /// Fewest timed reps, whatever `--seconds` says.
    pub min_reps: usize,
}

pub const NAMES: [&str; 4] = ["coarse", "fine", "serve_small", "serve_heavy"];

/// The workload called `name`. `quick` shrinks every size so that the
/// whole benchmark runs in seconds; quick numbers only prove that the
/// code paths work and are never recorded.
pub fn workload(name: &str, quick: bool) -> Option<Workload> {
    let plain = Mix {
        per_class: 1,
        sw_batches: 0,
        priorities: false,
        integrity_on_bravo: false,
    };
    let w = match name {
        // Large tiles: the tile kernel is nearly all of the time.
        "coarse" => {
            let (n, base) = if quick { (64, 16) } else { (256, 64) };
            let copies = |c: usize| if quick { 2 } else { c };
            Workload {
                name: "coarse",
                kind: Kind::Direct,
                problems: vec![
                    Problem {
                        copies: copies(2),
                        ..problem(Bm::Ge, n, base, 2)
                    },
                    problem(Bm::Fw, n, base, 2),
                    Problem {
                        copies: copies(2),
                        ..problem(Bm::Paren, n, base, 2)
                    },
                    Problem {
                        copies: copies(16),
                        seeded: true,
                        ..problem(Bm::Sw, n, base, 2)
                    },
                    Problem {
                        copies: copies(16),
                        ..problem(Bm::Lcs, n, base, 2)
                    },
                ],
                mix: plain,
                min_reps: if quick { 1 } else { 5 },
            }
        }
        // 4 x 4 tiles at two widths: the runtimes and the generic
        // engine are nearly all of the time.
        "fine" => {
            let (cubic, paren, wave) = if quick { (32, 32, 32) } else { (128, 256, 256) };
            let mut problems = Vec::new();
            for r in [2, 8] {
                problems.extend([
                    problem(Bm::Ge, cubic, 4, r),
                    problem(Bm::Fw, cubic, 4, r),
                    problem(Bm::Paren, paren, 4, r),
                    problem(Bm::Sw, wave, 4, r),
                    problem(Bm::Lcs, wave, 4, r),
                ]);
            }
            Workload {
                name: "fine",
                kind: Kind::Direct,
                problems,
                mix: plain,
                min_reps: if quick { 1 } else { 5 },
            }
        }
        // Sub-millisecond jobs: admission, scheduling, dispatch and
        // per-job graph construction are most of each job.
        "serve_small" => Workload {
            name: "serve_small",
            kind: Kind::Served,
            problems: Bm::ALL
                .iter()
                .flat_map(|&bm| [problem(bm, 32, 8, 2), problem(bm, 64, 8, 2)])
                .collect(),
            mix: Mix {
                per_class: if quick { 1 } else { 16 },
                sw_batches: if quick { 2 } else { 40 },
                priorities: false,
                integrity_on_bravo: false,
            },
            min_reps: if quick { 1 } else { 5 },
        },
        // Multi-millisecond jobs: execution is most of each job, and a
        // quarter of them take the integrity-checked path.
        "serve_heavy" => {
            let (cubic, wave) = if quick { (64, 64) } else { (256, 512) };
            let mut problems = Vec::new();
            for r in [2, 4] {
                problems.extend([
                    problem(Bm::Ge, cubic, 16, r),
                    problem(Bm::Fw, cubic, 16, r),
                    problem(Bm::Paren, cubic, 16, r),
                    problem(Bm::Sw, wave, wave / 64, r),
                    problem(Bm::Lcs, wave, wave / 64, r),
                ]);
            }
            Workload {
                name: "serve_heavy",
                kind: Kind::Served,
                problems,
                mix: Mix {
                    per_class: if quick { 1 } else { 4 },
                    sw_batches: 0,
                    priorities: true,
                    integrity_on_bravo: true,
                },
                min_reps: if quick { 1 } else { 5 },
            }
        }
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// The distinct problems at the narrowest width, one copy each: what
    /// the one-worker layer probes run.
    pub fn probe_problems(&self) -> Vec<Problem> {
        let narrow = self.problems.iter().map(|p| p.r).min().unwrap_or(2);
        self.problems
            .iter()
            .filter(|p| p.r == narrow)
            .map(|p| Problem { copies: 1, ..*p })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists_in_both_sizes() {
        for name in NAMES {
            for quick in [false, true] {
                let w = workload(name, quick).unwrap();
                assert_eq!(w.name, name);
                for bm in Bm::ALL {
                    assert!(w.problems.iter().any(|p| p.bm == bm), "{name} lacks {bm:?}");
                }
                for p in &w.problems {
                    assert!(p.n.is_power_of_two() && p.base.is_power_of_two() && p.base <= p.n);
                    assert!(!p.seeded || (p.bm == Bm::Sw && p.r == 2 && w.kind == Kind::Direct));
                    // The server refuses a width the tile grid is not a
                    // power of; direct runs clamp instead.
                    if w.kind == Kind::Served {
                        let mut t = p.n / p.base;
                        while t > 1 && t % p.r as usize == 0 {
                            t /= p.r as usize;
                        }
                        assert_eq!(t, 1, "{name}: {p:?}");
                    }
                }
            }
        }
        assert!(workload("nope", false).is_none());
    }
}
