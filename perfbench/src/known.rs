//! The known-answer table: the optimum of every base instance, which
//! renaming preserves. Every solve the benchmark makes is checked
//! against it.
//!
//! The table is `known_optima.tsv` beside this crate's manifest. Each
//! entry is re-derivable with [`derive`], which uses only construction
//! and algorithm families the benchmark never times, so a defect in a
//! timed solver cannot leak into its own answer key. Run
//! `perfbench known` to re-derive the whole table.

use std::collections::BTreeMap;
use std::time::Duration;

use coremax::{verify_solution, MaxSatSolver, MaxSatStatus};
use coremax_cnf::{Assignment, WcnfFormula, Weight};
use coremax_sat::{Budget, SolveOutcome, Solver};

use crate::workloads::{Base, Proof};

/// The committed table.
const TABLE: &str = include_str!("../known_optima.tsv");

/// Wall-clock limit for one untimed derivation solve.
const DERIVE_LIMIT: Duration = Duration::from_secs(120);

/// The committed table as `name → optimum`.
///
/// # Errors
///
/// Reports a malformed line.
pub fn table() -> Result<BTreeMap<String, Weight>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in TABLE.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [name, optimum, _source] = fields[..] else {
            return Err(format!("known_optima.tsv:{}: expected 3 fields", i + 1));
        };
        let optimum: Weight = optimum
            .parse()
            .map_err(|_| format!("known_optima.tsv:{}: bad optimum `{optimum}`", i + 1))?;
        if out.insert(name.to_string(), optimum).is_some() {
            return Err(format!("known_optima.tsv:{}: duplicate `{name}`", i + 1));
        }
    }
    Ok(out)
}

/// The source column written for `proof`.
#[must_use]
pub fn source(proof: &Proof) -> String {
    match proof {
        Proof::UnsatCnf => "unsat-cnf".into(),
        Proof::Solver(name) => (*name).into(),
        Proof::Union(_, name) => format!("union:{name}"),
    }
}

/// Re-derives the optimum of `base` from its [`Proof`].
///
/// # Errors
///
/// Reports a proof that does not hold (for example a CNF that is not
/// refuted) or an untimed solver that does not prove an optimum.
pub fn derive(base: &Base) -> Result<Weight, String> {
    match &base.proof {
        Proof::UnsatCnf => unsat_cnf_optimum(&base.wcnf).map_err(|e| format!("{}: {e}", base.name)),
        Proof::Solver(name) => {
            solve_exactly(&base.wcnf, name).map_err(|e| format!("{}: {e}", base.name))
        }
        Proof::Union(parts, name) => {
            parts
                .iter()
                .enumerate()
                .try_fold(0, |sum: Weight, (i, part)| {
                    let optimum = solve_exactly(part, name)
                        .map_err(|e| format!("{} part {i}: {e}", base.name))?;
                    Ok(sum + optimum)
                })
        }
    }
}

/// Optimum 1 of an all-soft unit-weight UNSAT CNF: refute the clause
/// set, then exhibit a model costing 1 by satisfying all clauses but
/// the last.
fn unsat_cnf_optimum(wcnf: &WcnfFormula) -> Result<Weight, String> {
    if wcnf.num_hard() > 0 || !wcnf.is_unweighted() || wcnf.num_soft() == 0 {
        return Err("not an all-soft unit-weight instance".into());
    }
    let softs = wcnf.soft_clauses();
    let load = |clauses: &[coremax_cnf::SoftClause]| {
        let mut solver = Solver::new();
        solver.ensure_vars(wcnf.num_vars());
        solver.set_budget(Budget::new().with_timeout(DERIVE_LIMIT));
        for s in clauses {
            solver.add_clause(s.clause.lits().iter().copied());
        }
        solver
    };
    if load(softs).solve() != SolveOutcome::Unsat {
        return Err("clause set is not refuted".into());
    }
    let mut relaxed = load(&softs[..softs.len() - 1]);
    if relaxed.solve() != SolveOutcome::Sat {
        return Err("dropping the last clause does not make it satisfiable".into());
    }
    let mut model: Assignment = relaxed.model().expect("model after SAT").clone();
    model.grow_to(wcnf.num_vars());
    model.complete_with(false);
    match wcnf.cost(&model) {
        Some(1) => Ok(1),
        other => Err(format!("witness model costs {other:?}, not 1")),
    }
}

/// Solves with an untimed algorithm that must prove the optimum.
fn solve_exactly(wcnf: &WcnfFormula, name: &str) -> Result<Weight, String> {
    let mut solver = coremax_cli::make_solver(name)?;
    solver.set_budget(Budget::new().with_timeout(DERIVE_LIMIT));
    let solution = solver.solve(wcnf);
    match (solution.status, solution.cost) {
        (MaxSatStatus::Optimal, Some(cost)) if verify_solution(wcnf, &solution) => Ok(cost),
        (status, _) => Err(format!(
            "{name} returned {status} without a verified optimum"
        )),
    }
}
