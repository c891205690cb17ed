//! The scaffolding every core-guided driver shares.
//!
//! The paper presents msu1–msu4 as one loop — solve, extract a core,
//! relax it, bound the relaxation, solve again — and the variants
//! differ only in what they do with a core and with a model.
//! [`CoreGuidedRun`] is the rest of that loop: the run's clock and
//! child budget, one persistent engine with the hard clauses loaded,
//! the work counters, and a [`BoundTracker`] holding the certified
//! `[lb, ub]` interval. Its three exits are the only way a driver
//! builds its [`MaxSatSolution`], so `lb ≤ opt ≤ ub` is kept in one
//! place: `Optimal` is reported only when the tracked lower bound meets
//! the exact cost of the incumbent model.

use std::time::Instant;

use coremax_cards::CnfSink;
use coremax_cnf::{Assignment, Lit, WcnfFormula, Weight};
use coremax_obs::{Event, Phase};
use coremax_sat::{Budget, IncrementalSolver, SharedContext, SolveOutcome};

use crate::types::{MaxSatSolution, MaxSatStats, MaxSatStatus};

/// Total weight of the soft clauses `model` falsifies (saturating).
/// Hard clauses are not checked: every model comes from an engine that
/// holds them.
pub(crate) fn soft_cost(wcnf: &WcnfFormula, model: &Assignment) -> Weight {
    wcnf.soft_clauses()
        .iter()
        .filter(|s| !s.clause.is_satisfied_by(model))
        .fold(0, |acc: Weight, s| acc.saturating_add(s.weight))
}

/// A certified interval `[lb, ub]` on the optimum cost and the
/// incumbent model whose exact cost is `ub`. Every change is emitted
/// as [`Event::Bounds`] / [`Event::Incumbent`].
#[derive(Debug, Default)]
pub(crate) struct BoundTracker {
    lb: Weight,
    incumbent: Option<(Weight, Assignment)>,
}

impl BoundTracker {
    /// The proven lower bound (0 until something is proven).
    pub(crate) fn lb(&self) -> Weight {
        self.lb
    }

    /// The incumbent's cost, if a model has been kept.
    pub(crate) fn ub(&self) -> Option<Weight> {
        self.incumbent.as_ref().map(|&(cost, _)| cost)
    }

    /// Raises the lower bound to `lb`. The bound never falls and never
    /// passes the incumbent's cost.
    pub(crate) fn raise_lb(&mut self, lb: Weight) {
        let lb = self.ub().map_or(lb, |ub| lb.min(ub));
        if lb > self.lb {
            self.lb = lb;
            coremax_obs::emit(Event::Bounds { lb, ub: self.ub() });
        }
    }

    /// Adds one core's charge to the lower bound (saturating).
    pub(crate) fn charge(&mut self, weight: Weight) {
        self.raise_lb(self.lb.saturating_add(weight));
    }

    /// Offers `model`, whose exact cost is `cost`, as the incumbent. It
    /// is kept (and cloned) only when strictly cheaper than the current
    /// one.
    pub(crate) fn offer(&mut self, cost: Weight, model: &Assignment) {
        if self.ub().is_some_and(|ub| cost >= ub) {
            return;
        }
        // A model cheaper than the lower bound means some core was
        // overcharged; the interval stays valid either way.
        debug_assert!(cost >= self.lb, "model cost {cost} below lb {}", self.lb);
        self.lb = self.lb.min(cost);
        self.incumbent = Some((cost, model.clone()));
        if coremax_obs::tracing_enabled() {
            coremax_obs::emit(Event::Incumbent { cost });
            coremax_obs::emit(Event::Bounds {
                lb: self.lb,
                ub: Some(cost),
            });
        }
    }
}

/// One core-guided optimisation run: clock, child budget, engine,
/// counters and bounds. Drivers keep only their rule for cores and
/// models and leave through [`Self::optimal`], [`Self::unknown`] or
/// [`Self::infeasible`].
pub(crate) struct CoreGuidedRun<'a> {
    wcnf: &'a WcnfFormula,
    start: Instant,
    /// The run's child budget, also installed on the engine.
    pub(crate) budget: Budget,
    /// The one persistent engine of the run.
    pub(crate) engine: IncrementalSolver,
    /// Driver counters; the engine's are absorbed once, at exit.
    pub(crate) stats: MaxSatStats,
    /// The certified interval and its incumbent.
    pub(crate) bounds: BoundTracker,
}

impl<'a> CoreGuidedRun<'a> {
    /// Starts the clock and builds the engine: joined to the portfolio
    /// exchange when `shared` is given, sized to `wcnf`'s variables,
    /// bound to a child of `budget`, and loaded with the hard clauses
    /// (marked shareable). Soft clauses are the driver's business.
    pub(crate) fn new(
        wcnf: &'a WcnfFormula,
        budget: &Budget,
        shared: Option<SharedContext>,
    ) -> Self {
        let start = Instant::now();
        let budget = budget.child(start);
        let mut engine = IncrementalSolver::new();
        if let Some(ctx) = shared {
            engine.set_shared_context(ctx);
        }
        engine.ensure_vars(wcnf.num_vars());
        engine.set_budget(budget.clone());
        for h in wcnf.hard_clauses() {
            engine.add_clause_shared(h.lits().iter().copied());
        }
        CoreGuidedRun {
            wcnf,
            start,
            budget,
            engine,
            stats: MaxSatStats::default(),
            bounds: BoundTracker::default(),
        }
    }

    /// One counted SAT call under the active softs plus `assumptions`.
    pub(crate) fn solve(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        self.stats.sat_calls += 1;
        self.engine.solve(assumptions)
    }

    /// Counts one extracted core of `size` members charging `weight`.
    pub(crate) fn count_core(&mut self, size: usize, weight: Weight) {
        self.stats.cores += 1;
        coremax_obs::emit(Event::CoreExtracted {
            size: size as u64,
            weight,
        });
    }

    /// Runs `build` on a sink whose fresh variables start above the
    /// engine's and adds the clauses it writes as hard clauses, each
    /// extended by `gate` when given (assuming `¬gate` then activates
    /// them, the unit `gate` retires them). The clauses count as
    /// cardinality clauses and the time as encoding. Returns what
    /// `build` returned and the clause count.
    pub(crate) fn encode<T>(
        &mut self,
        gate: Option<Lit>,
        build: impl FnOnce(&mut CnfSink) -> T,
    ) -> (T, u64) {
        let span = coremax_obs::span(Phase::Encode);
        let mut sink = CnfSink::new(self.engine.num_vars());
        let built = build(&mut sink);
        self.engine.ensure_vars(sink.num_vars());
        let clauses = sink.into_clauses();
        let added = clauses.len() as u64;
        self.stats.cardinality_clauses += added;
        for c in clauses {
            self.engine.add_clause(c.into_iter().chain(gate));
        }
        span.finish(&mut self.stats.phase);
        (built, added)
    }

    /// Offers the engine's current model as the incumbent at its exact
    /// soft cost.
    ///
    /// # Panics
    ///
    /// Panics unless the last solve answered SAT.
    pub(crate) fn offer_model(&mut self) {
        let model = self.engine.model().expect("model after SAT");
        self.bounds.offer(soft_cost(self.wcnf, model), model)
    }

    /// The driver's stopping rule fired: `Optimal` when the lower bound
    /// meets the incumbent's cost, otherwise the certified `Unknown`
    /// interval. A driver that proves optimality by refuting `ub − 1`
    /// raises the lower bound to `ub` first.
    pub(crate) fn optimal(self) -> MaxSatSolution {
        let proven = self.bounds.ub() == Some(self.bounds.lb);
        self.finish(if proven {
            MaxSatStatus::Optimal
        } else {
            MaxSatStatus::Unknown
        })
    }

    /// The run stopped early: the certified `[lb, ub]` interval.
    pub(crate) fn unknown(self) -> MaxSatSolution {
        self.finish(MaxSatStatus::Unknown)
    }

    /// The hard clauses are unsatisfiable.
    pub(crate) fn infeasible(self) -> MaxSatSolution {
        let CoreGuidedRun {
            start,
            engine,
            mut stats,
            ..
        } = self;
        stats.absorb_sat(&engine.stats());
        stats.wall_time = start.elapsed();
        MaxSatSolution::infeasible(stats)
    }

    fn finish(self, status: MaxSatStatus) -> MaxSatSolution {
        let CoreGuidedRun {
            start,
            engine,
            mut stats,
            bounds,
            ..
        } = self;
        stats.absorb_sat(&engine.stats());
        stats.wall_time = start.elapsed();
        let (cost, model) = bounds.incumbent.unzip();
        MaxSatSolution {
            status,
            cost,
            model,
            lower_bound: bounds.lb,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::thread::{self, ThreadId};

    /// Records the events emitted on one thread, so tests running
    /// drivers on other threads cannot interleave with the capture.
    struct ThreadSink {
        thread: ThreadId,
        events: Mutex<Vec<Event>>,
    }

    impl coremax_obs::EventSink for ThreadSink {
        fn on_event(&self, event: &Event) {
            if thread::current().id() == self.thread {
                self.events.lock().unwrap().push(event.clone());
            }
        }
    }

    fn model() -> Assignment {
        Assignment::for_vars(1)
    }

    fn run(wcnf: &WcnfFormula) -> CoreGuidedRun<'_> {
        CoreGuidedRun::new(wcnf, &Budget::new(), None)
    }

    #[test]
    fn optimal_below_the_incumbent_is_an_interval() {
        let wcnf = WcnfFormula::new();
        let mut r = run(&wcnf);
        r.bounds.charge(2);
        r.bounds.offer(5, &model());
        let s = r.optimal();
        assert_eq!(s.status, MaxSatStatus::Unknown);
        assert_eq!((s.lower_bound, s.cost), (2, Some(5)));
        assert!(s.model.is_some());

        let mut r = run(&wcnf);
        r.bounds.offer(5, &model());
        r.bounds.raise_lb(5);
        let s = r.optimal();
        assert_eq!(s.status, MaxSatStatus::Optimal);
        assert_eq!((s.lower_bound, s.cost), (5, Some(5)));
    }

    #[test]
    fn optimal_without_an_incumbent_is_an_interval() {
        let wcnf = WcnfFormula::new();
        let mut r = run(&wcnf);
        r.bounds.charge(3);
        let s = r.optimal();
        assert_eq!(s.status, MaxSatStatus::Unknown);
        assert_eq!((s.lower_bound, s.cost), (3, None));
    }

    #[test]
    fn lower_bound_is_monotone_saturating_and_capped_by_the_incumbent() {
        let mut b = BoundTracker::default();
        b.raise_lb(3);
        b.raise_lb(1);
        assert_eq!(b.lb(), 3, "lb never decreases");
        b.charge(Weight::MAX);
        assert_eq!(b.lb(), Weight::MAX, "charges saturate");

        let mut b = BoundTracker::default();
        b.charge(2);
        b.offer(4, &model());
        b.charge(10);
        assert_eq!(b.lb(), 4, "lb never exceeds the incumbent");
        b.raise_lb(9);
        assert_eq!(b.lb(), 4);
        assert_eq!(b.ub(), Some(4));
    }

    #[test]
    fn non_improving_incumbent_is_ignored_silently() {
        let sink = Arc::new(ThreadSink {
            thread: thread::current().id(),
            events: Mutex::new(Vec::new()),
        });
        let guard =
            coremax_obs::install(Arc::clone(&sink) as Arc<dyn coremax_obs::EventSink>, false);
        let mut b = BoundTracker::default();
        b.offer(7, &model());
        let kept = sink.events.lock().unwrap().len();
        b.offer(7, &model()); // equal cost is no improvement
        b.offer(9, &model());
        b.raise_lb(0);
        let events = sink.events.lock().unwrap().clone();
        drop(guard);
        assert_eq!(
            events[..kept],
            [
                Event::Incumbent { cost: 7 },
                Event::Bounds { lb: 0, ub: Some(7) }
            ]
        );
        assert_eq!(events.len(), kept, "rejected offers emit nothing");
        assert_eq!(b.ub(), Some(7));
    }
}
