//! The workloads: which base instances each draws, which solvers and
//! limits it uses, and how many renamed copies of each instance it
//! prepares. `WORKLOADS.md` explains why each was chosen.

use coremax_cnf::{CnfFormula, Lit, Var, WcnfFormula};
use coremax_instances::{
    debug_suite, full_suite, pigeonhole, random_unsat_3cnf, random_weighted_wcnf, untestable_atpg,
    weighted_suite, Family, SuiteConfig, WeightDist, WeightedConfig,
};

/// How a base instance's optimum is established, without any solver
/// configuration the benchmark times (see `crate::known`).
#[derive(Debug, Clone)]
pub enum Proof {
    /// An all-soft, unit-weight encoding of an unsatisfiable CNF whose
    /// last clause is the property assertion: the CNF is refuted, and a
    /// model of every other clause costs 1, so the optimum is 1.
    UnsatCnf,
    /// Solved by an algorithm family the benchmark never times
    /// (`maxsatz-bb`, `linear-sat` or `pbo`).
    Solver(&'static str),
    /// A variable-disjoint union: the optimum is the sum of the parts'
    /// optima, each solved by the named untimed algorithm.
    Union(Vec<WcnfFormula>, &'static str),
}

/// A named base instance; the benchmark solves renamed copies of it.
#[derive(Debug, Clone)]
pub struct Base {
    /// Stable name, the key into the known-answer table.
    pub name: String,
    /// The instance as generated.
    pub wcnf: WcnfFormula,
    /// Where its known optimum comes from.
    pub proof: Proof,
}

impl Base {
    fn plain(name: impl Into<String>, cnf: &CnfFormula) -> Self {
        Base {
            name: name.into(),
            wcnf: WcnfFormula::from_cnf_all_soft(cnf),
            proof: Proof::UnsatCnf,
        }
    }

    fn solved(name: impl Into<String>, wcnf: WcnfFormula, solver: &'static str) -> Self {
        Base {
            name: name.into(),
            wcnf,
            proof: Proof::Solver(solver),
        }
    }
}

/// How a workload drives the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One client, one solve at a time, through `coremax_cli::run`.
    Sequential,
    /// Every instance of a pass through `coremax_par::solve_batch`,
    /// one worker per available core.
    Batch,
}

/// One workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Sequential client or batch workers.
    pub mode: Mode,
    /// CLI algorithm names; every instance is solved by each.
    pub solvers: &'static [&'static str],
    /// Per-solve wall-clock limit in milliseconds.
    pub limit_ms: u64,
    /// Renamed copies of every base instance prepared in set-up; the
    /// measured loop cycles through them.
    pub copies: usize,
    /// The latency percentile reported as `latency_tail_ms`, chosen so
    /// that a run of the workload keeps ten samples beyond it. A run
    /// with fewer samples reports the highest percentile that does.
    pub tail_percentile: f64,
}

/// The workloads. `BENCHMARK.json` lists `industrial`, `deadline` and
/// `batch-small`, in this order. `weighted` runs on request only: its
/// times follow the host's speed too closely for a bound (see
/// `WORKLOADS.md`). `weighted-oll` reproduces a known defect.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "industrial",
        mode: Mode::Sequential,
        solvers: &["msu4-inc", "oll"],
        limit_ms: 20_000,
        copies: 16,
        tail_percentile: 85.0,
    },
    Workload {
        name: "weighted",
        mode: Mode::Sequential,
        solvers: &["wmsu1"],
        limit_ms: 20_000,
        copies: 32,
        tail_percentile: 90.0,
    },
    Workload {
        name: "deadline",
        mode: Mode::Sequential,
        solvers: &["oll", "msu4-inc"],
        limit_ms: 1_000,
        copies: 8,
        tail_percentile: 50.0,
    },
    Workload {
        name: "batch-small",
        mode: Mode::Batch,
        solvers: &["msu4-v2"],
        limit_ms: 20_000,
        copies: 48,
        tail_percentile: 95.0,
    },
    Workload {
        name: "weighted-oll",
        mode: Mode::Sequential,
        solvers: &["oll"],
        limit_ms: 20_000,
        copies: 16,
        tail_percentile: 95.0,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The base instances of `workload`. They do not depend on the seed:
/// the seed only renames them.
#[must_use]
pub fn bases(workload: &str) -> Vec<Base> {
    match workload {
        // php-7 is drawn four times per round (four renamings): a fifth
        // of the solves are atpg-k2-s6's, half of them by `oll` and the
        // slower half by `msu4-inc`. So the median solve falls inside
        // php-7's cluster and the p85 tail in the middle of
        // atpg-k2-s6-by-`oll`'s, not in a gap between clusters.
        "industrial" => {
            let mut out = vec![Base::plain("atpg-k2-s6", &untestable_atpg(2, 6))];
            out.extend((0..4).map(|_| Base::plain("php-7", &pigeonhole(7))));
            out
        }
        "weighted" | "weighted-oll" => weighted_bases(),
        "deadline" => vec![
            Base::plain("atpg-k2-s8", &untestable_atpg(2, 8)),
            Base::plain("atpg-k2-s10", &untestable_atpg(2, 10)),
        ],
        "batch-small" => batch_bases(),
        _ => Vec::new(),
    }
}

/// The four weight distributions of `coremax_instances::weighted_suite`.
const WEIGHT_DISTS: [(&str, WeightDist); 4] = [
    ("uniform", WeightDist::Uniform { lo: 1, hi: 8 }),
    ("pow2", WeightDist::PowerOfTwo { max_exp: 4 }),
    (
        "skewed",
        WeightDist::Skewed {
            light: 3,
            heavy: 12,
            heavy_every: 5,
        },
    ),
    (
        "skewed-heavy",
        WeightDist::Skewed {
            light: 6,
            heavy: 100_000,
            heavy_every: 4,
        },
    ),
];

/// Variables per planted part: small enough for branch and bound to
/// certify each part's optimum in milliseconds.
const PART_VARS: usize = 20;

/// Parts per weighted instance (×20 variables: 300 to 1,500), in
/// steps of about 14%. Solve times then spread evenly on a log scale,
/// one instance's cluster after another. With an odd count, a round's
/// median solve is the middle instance's median, and its p90 lies
/// inside the second-largest instance's cluster, not in a gap between
/// two clusters, where a host that slows part of a run would make them
/// jump from one cluster to the next.
const WEIGHTED_PARTS: [usize; 13] = [15, 17, 20, 22, 26, 29, 34, 38, 44, 50, 57, 66, 75];

/// Planted weighted partial instances, each a variable-disjoint union
/// of `random_weighted_wcnf` parts, the weight distributions taking
/// the sizes in turn. A union keeps a known optimum (the sum of the
/// parts') at sizes no untimed algorithm could solve whole, while the
/// solver, which sees it renamed, gets one instance with hundreds of
/// cores.
fn weighted_bases() -> Vec<Base> {
    WEIGHTED_PARTS
        .iter()
        .zip(WEIGHT_DISTS.iter().cycle())
        .map(|(&parts, &(label, dist))| {
            let components: Vec<WcnfFormula> = (0..parts)
                .map(|i| {
                    random_weighted_wcnf(&WeightedConfig {
                        num_vars: PART_VARS,
                        num_hard: PART_VARS,
                        num_soft: 3 * PART_VARS,
                        max_len: 3,
                        dist,
                        seed: 7000 + i as u64,
                    })
                })
                .collect();
            Base {
                name: format!("wu-{label}-v{}", parts * PART_VARS),
                wcnf: disjoint_union(&components),
                proof: Proof::Union(components, "maxsatz-bb"),
            }
        })
        .collect()
}

/// The variable-disjoint union of `parts`, in order.
#[must_use]
pub fn disjoint_union(parts: &[WcnfFormula]) -> WcnfFormula {
    let mut out = WcnfFormula::new();
    for part in parts {
        let offset = out.num_vars() as u32;
        let shift = |l: &Lit| Lit::new(Var::new(l.var().index_u32() + offset), l.is_positive());
        for _ in 0..part.num_vars() {
            out.new_var();
        }
        for h in part.hard_clauses() {
            out.add_hard(h.lits().iter().map(shift));
        }
        for s in part.soft_clauses() {
            out.add_soft(s.clause.lits().iter().map(shift), s.weight);
        }
    }
    out
}

/// Scale-1 instances are all below ~50 ms, except atpg-k2-s6, which
/// alone takes most of the scale-1 suite's time.
const BATCH_EXCLUDED: &str = "atpg-k2-s6";

/// Extra random 3-CNF instances beside the suite's own three.
const BATCH_RAND3: usize = 12;

fn batch_bases() -> Vec<Base> {
    let config = SuiteConfig::default();
    let mut out: Vec<Base> = Vec::new();
    for inst in full_suite(&config) {
        match inst.family {
            // The suite's debug instances are the first of `debug_suite`'s.
            Family::Debug => {}
            Family::Rand3 => out.push(Base::solved(inst.name, inst.wcnf, "maxsatz-bb")),
            _ if inst.name == BATCH_EXCLUDED => {}
            _ => out.push(Base {
                name: inst.name,
                wcnf: inst.wcnf,
                proof: Proof::UnsatCnf,
            }),
        }
    }
    for i in 0..BATCH_RAND3 {
        let num_vars = 12 + 2 * (i % 3);
        let seed = 9000 + i as u64;
        out.push(Base::solved(
            format!("rand3-v{num_vars}-s{seed}"),
            WcnfFormula::from_cnf_all_soft(&random_unsat_3cnf(num_vars, seed)),
            "maxsatz-bb",
        ));
    }
    for inst in debug_suite(&config) {
        out.push(Base::solved(inst.name, inst.wcnf, "linear-sat"));
    }
    for inst in weighted_suite(&config) {
        out.push(Base::solved(inst.name, inst.wcnf, "maxsatz-bb"));
    }
    out
}
