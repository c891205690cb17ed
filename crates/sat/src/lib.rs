//! A CDCL SAT solver with failed-assumption unsatisfiable cores.
//!
//! This crate provides the SAT substrate required by the core-guided
//! MaxSAT algorithms of Marques-Silva & Planes (DATE 2008). It is a
//! from-scratch conflict-driven clause-learning solver in the MiniSAT
//! lineage:
//!
//! - two-watched-literal propagation with dedicated binary-clause watch
//!   lists (the other literal is stored inline, so binary propagation
//!   never touches the clause arena),
//! - first-UIP conflict analysis with recursive clause minimisation,
//!   allocation-free in steady state,
//! - VSIDS variable activities with phase saving,
//! - Luby-sequence restarts, plus an optional glucose-style adaptive
//!   restart mode ([`RestartMode`]),
//! - learned-clause database reduction ordered by literal block
//!   distance (LBD) first and activity second, with glue-clause
//!   protection, followed by clause-arena garbage collection,
//! - solving under assumptions with failed-assumption extraction —
//!   the source of every unsatisfiable core. The paper's msu4 took its
//!   cores from MiniSAT 1.14's proof logger; here each soft clause `ω`
//!   is loaded as `ω ∨ s` under a fresh selector `s`, the solver
//!   assumes `¬s`, and the failed selectors of an UNSAT answer name
//!   the core (see [`IncrementalSolver`]),
//! - cooperative **clause sharing** between diversified portfolio
//!   workers (the [`share`] module): purity-tracked export of low-LBD
//!   learned clauses implied by the instance's hard clauses alone, with
//!   imports drained at restart boundaries.
//!
//! # Examples
//!
//! ```
//! use coremax_cnf::{Lit, Var};
//! use coremax_sat::{Solver, SolveOutcome};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! let z = solver.new_var();
//! // (x ∨ y) ∧ (¬x) ∧ (¬y ∨ s) with selector s: (¬y) is enforced while
//! // ¬s is assumed, and z is noise.
//! let s = solver.new_var();
//! solver.add_clause([Lit::positive(x), Lit::positive(y)]);
//! solver.add_clause([Lit::negative(x)]);
//! solver.add_clause([Lit::negative(y), Lit::positive(s)]);
//! let assumptions = [Lit::negative(s), Lit::positive(z)];
//! assert_eq!(solver.solve_with_assumptions(&assumptions), SolveOutcome::Unsat);
//! // The clauses alone are satisfiable; the selector is to blame.
//! assert!(solver.is_ok());
//! assert_eq!(solver.failed_assumptions(), &[Lit::negative(s)]);
//! assert_eq!(solver.solve(), SolveOutcome::Sat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod clause_db;
mod dpll;
mod heap;
mod incremental;
mod luby;
pub mod share;
mod solver;
mod stats;

pub use budget::Budget;
pub use dpll::{dpll_is_satisfiable, dpll_max_satisfiable};
pub use incremental::{IncrementalSolver, SoftId};
pub use share::{ClauseExchange, ExchangeEndpoint, ExchangeTotals, SharedContext, SharingConfig};
pub use solver::{RestartMode, SolveOutcome, Solver, SolverConfig};
pub use stats::{SolverStats, LBD_HIST_BUCKETS};
