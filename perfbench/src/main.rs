//! `perfbench`: time to a verified optimum on seeded MaxSAT workloads.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench known
//! ```
//!
//! A run generates the workload's base instances, renames them under
//! the seed and serialises them (set-up, timed again at intervals
//! during the run), then solves them for `S` seconds through the CLI's
//! own path — `coremax_cli::parse_problem`, then `coremax_cli::run` (or
//! `coremax_par::solve_batch` for the batch workload), then
//! `coremax::verify_solution` — and checks every answer
//! against the known-answer table. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced solves of the
//! same inputs and reports the per-layer metrics. The last line of
//! standard output is one JSON object. `perfbench known` re-derives the
//! known-answer table.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coremax::{
    verify_solution, MaxSatSolution, MaxSatSolver, MaxSatStats, MaxSatStatus, Preprocessed,
    Stratified,
};
use coremax_cli::{make_solver_send, parse_problem, Options};
use coremax_cnf::{dimacs, WcnfFormula, Weight};
use coremax_instances::pigeonhole;
use coremax_obs::Phase;
use coremax_par::{solve_batch, BatchOptions};
use coremax_perfbench::known;
use coremax_perfbench::rename::{mix, rename};
use coremax_perfbench::report::{Metric, Report};
use coremax_perfbench::trace::{PerSolveSink, SolveEvents};
use coremax_perfbench::workloads::{self, Mode, Workload};
use coremax_sat::Budget;

/// Set-up is timed `SETUP_SAMPLES` times: once before the measured
/// loop, then at even intervals inside it. `setup_s` is the median, so
/// it samples the machine over the whole run, as the solves do, rather
/// than over the second or two before them.
const SETUP_SAMPLES: u32 = 11;

/// Renamed copies of every base instance in one batch pass.
const PASS_COPIES: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value `{value}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::workload(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("known") {
        return derive_known();
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       perfbench known");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Re-derives every base instance's optimum and prints the table,
/// marking any entry that disagrees with the committed one.
fn derive_known() -> ExitCode {
    let table = match known::table() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut seen = std::collections::BTreeSet::new();
    println!("# name\toptimum\tsource");
    for w in &workloads::WORKLOADS {
        for base in workloads::bases(w.name) {
            if !seen.insert(base.name.clone()) {
                continue;
            }
            match known::derive(&base) {
                Ok(optimum) => {
                    println!("{}\t{optimum}\t{}", base.name, known::source(&base.proof));
                    if table.get(&base.name) != Some(&optimum) {
                        eprintln!(
                            "MISMATCH {}: committed {:?}, derived {optimum}",
                            base.name,
                            table.get(&base.name)
                        );
                        ok = false;
                    }
                }
                Err(e) => {
                    eprintln!("FAILED {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One prepared input: a renamed copy of a base instance, as text.
struct Input {
    base: usize,
    text: String,
}

/// Everything set-up produces.
#[derive(Default)]
struct Prepared {
    names: Vec<String>,
    optima: Vec<Weight>,
    inputs: Vec<Input>,
}

fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let table = known::table()?;
    let bases = workloads::bases(w.name);
    let mut optima = Vec::with_capacity(bases.len());
    for b in &bases {
        optima.push(
            *table
                .get(&b.name)
                .ok_or_else(|| format!("{} has no entry in known_optima.tsv", b.name))?,
        );
    }
    let mut inputs = Vec::with_capacity(bases.len() * w.copies);
    for copy in 0..w.copies {
        for (i, b) in bases.iter().enumerate() {
            let (renamed, _) = rename(&b.wcnf, mix(&[seed, i as u64, copy as u64]));
            inputs.push(Input {
                base: i,
                text: dimacs::write_wcnf(&renamed),
            });
        }
    }
    Ok(Prepared {
        names: bases.into_iter().map(|b| b.name).collect(),
        optima,
        inputs,
    })
}

/// Times the set-ups of one run.
struct Setup {
    workload: &'static Workload,
    seed: u64,
    times: Vec<f64>,
}

impl Setup {
    /// Generates, renames and serialises the inputs and warms up.
    fn sample(&mut self) -> Result<Prepared, String> {
        let t = Instant::now();
        let prep = prepare(self.workload, self.seed)?;
        warm_up(self.workload);
        self.times.push(t.elapsed().as_secs_f64());
        Ok(prep)
    }

    /// Times another set-up if the next one is due `elapsed` into a
    /// run of length `budget`. Its inputs replace `prep`'s, which they
    /// equal (same seed); the old ones are freed first, so that peak
    /// memory holds one set of inputs.
    fn resample_if_due(
        &mut self,
        prep: &mut Prepared,
        elapsed: Duration,
        budget: Duration,
    ) -> Result<(), String> {
        let k = self.times.len() as u32;
        if k < SETUP_SAMPLES && elapsed >= budget * k / SETUP_SAMPLES {
            *prep = Prepared::default();
            *prep = self.sample()?;
        }
        Ok(())
    }
}

/// What the benchmark keeps of one solve.
#[derive(Clone)]
struct Solve {
    job: usize,
    latency: Duration,
    parse: Duration,
    solve: Duration,
    verify: Duration,
    bytes: usize,
    status: Option<MaxSatStatus>,
    cost: Option<Weight>,
    gap: f64,
    ok: bool,
    stats: MaxSatStats,
    events: Option<SolveEvents>,
}

impl Solve {
    fn decided(&self) -> bool {
        matches!(
            self.status,
            Some(MaxSatStatus::Optimal | MaxSatStatus::Infeasible)
        )
    }

    /// The work counts that must repeat exactly between two solves of
    /// the same input by the same code.
    fn counts(&self) -> [u64; 5] {
        [
            self.stats.sat.conflicts,
            self.stats.sat.propagations,
            self.stats.cores,
            self.stats.cardinality_clauses,
            self.stats.totalizer_extensions,
        ]
    }
}

/// Checks a solution against the instance it answers and the known
/// optimum. Returns whether it passes and its certified relative gap.
fn judge(solution: &MaxSatSolution, verified: bool, optimum: Weight) -> (bool, f64) {
    let holds = verified
        && match solution.status {
            MaxSatStatus::Optimal => solution.cost == Some(optimum),
            // Every base instance has a feasible optimum.
            MaxSatStatus::Infeasible => false,
            MaxSatStatus::Unknown => {
                solution.lower_bound <= optimum && solution.cost.is_none_or(|c| c >= optimum)
            }
        };
    let gap = match (solution.status, solution.cost) {
        (MaxSatStatus::Optimal, _) => 0.0,
        (_, Some(0)) => 0.0,
        (_, Some(ub)) => ub.saturating_sub(solution.lower_bound) as f64 / ub as f64,
        (_, None) => 1.0,
    };
    (holds, gap)
}

/// A solve that panicked or could not parse its input.
fn failed_solve(job: usize, latency: Duration, bytes: usize) -> Solve {
    Solve {
        job,
        latency,
        parse: Duration::ZERO,
        solve: Duration::ZERO,
        verify: Duration::ZERO,
        bytes,
        status: None,
        cost: None,
        gap: 1.0,
        ok: false,
        stats: MaxSatStats::default(),
        events: None,
    }
}

/// One sequential solve through the CLI path: parse, run, verify.
fn solve_one(w: &Workload, solver: &str, input: &Input, optimum: Weight, job: usize) -> Solve {
    let options = Options {
        algorithm: solver.to_string(),
        timeout_ms: Some(w.limit_ms),
        ..Options::default()
    };
    let start = Instant::now();
    let Ok(wcnf) = parse_problem(&input.text) else {
        return failed_solve(job, start.elapsed(), input.text.len());
    };
    let parsed = Instant::now();
    let Ok(Ok(solution)) = catch_unwind(AssertUnwindSafe(|| coremax_cli::run(&options, &wcnf)))
    else {
        return failed_solve(job, start.elapsed(), input.text.len());
    };
    let solved = Instant::now();
    let verified = verify_solution(&wcnf, &solution);
    let end = Instant::now();
    let (ok, gap) = judge(&solution, verified, optimum);
    Solve {
        job,
        latency: end - start,
        parse: parsed - start,
        solve: solved - parsed,
        verify: end - solved,
        bytes: input.text.len(),
        status: Some(solution.status),
        cost: solution.cost,
        gap,
        ok,
        stats: solution.stats,
        events: None,
    }
}

/// The solver `coremax-solve` builds for one instance without
/// `--portfolio`: the algorithm, behind the stratification router if it
/// only takes unit weights, behind preprocessing (on by default).
fn cli_solver(name: &str) -> Box<dyn MaxSatSolver + Send> {
    let inner = make_solver_send(name).expect("workload solvers are valid CLI algorithms");
    let inner: Box<dyn MaxSatSolver + Send> = if inner.supports_weights() {
        inner
    } else {
        Box::new(Stratified::new(inner))
    };
    Box::new(Preprocessed::new(inner))
}

/// One batch pass over `range` of the prepared inputs: parse all,
/// `solve_batch`, verify all — what `coremax-solve -j N DIR` does.
/// Returns the solves (in input order) and the pass wall time.
fn batch_pass(
    w: &Workload,
    prep: &Prepared,
    range: Range<usize>,
    jobs: usize,
    tracer: Option<&PerSolveSink>,
) -> (Vec<Solve>, Duration) {
    let start = Instant::now();
    let inputs = &prep.inputs[range.clone()];
    let mut parse_times = Vec::with_capacity(inputs.len());
    let mut formulas = Vec::with_capacity(inputs.len());
    for input in inputs {
        let t = Instant::now();
        formulas.push(parse_problem(&input.text).ok());
        parse_times.push(t.elapsed());
    }
    let items: Vec<(&str, &coremax_cnf::WcnfFormula)> = formulas
        .iter()
        .zip(inputs)
        .filter_map(|(f, input)| f.as_ref().map(|f| (prep.names[input.base].as_str(), f)))
        .collect();
    let options = BatchOptions {
        jobs,
        budget: Budget::new().with_timeout(Duration::from_millis(w.limit_ms)),
    };
    let solver = w.solvers[0];
    let report = catch_unwind(AssertUnwindSafe(|| {
        solve_batch(
            &items,
            || {
                if let Some(t) = tracer {
                    t.begin();
                }
                cli_solver(solver)
            },
            &options,
        )
    }));
    let mut solves = Vec::with_capacity(inputs.len());
    let mut outcomes = report.ok().map(|r| r.outcomes.into_iter());
    for (k, input) in inputs.iter().enumerate() {
        let job = range.start + k;
        let outcome = match (&formulas[k], outcomes.as_mut()) {
            (Some(_), Some(it)) => it.next(),
            _ => None,
        };
        let (Some(wcnf), Some(outcome)) = (&formulas[k], outcome) else {
            solves.push(failed_solve(job, parse_times[k], input.text.len()));
            continue;
        };
        let t = Instant::now();
        let verified = verify_solution(wcnf, &outcome.solution);
        let verify = t.elapsed();
        let (ok, gap) = judge(&outcome.solution, verified, prep.optima[input.base]);
        let solve = outcome.solution.stats.wall_time;
        solves.push(Solve {
            job,
            latency: parse_times[k] + solve + verify,
            parse: parse_times[k],
            solve,
            verify,
            bytes: input.text.len(),
            status: Some(outcome.solution.status),
            cost: outcome.solution.cost,
            gap,
            ok,
            stats: outcome.solution.stats,
            events: None,
        });
    }
    (solves, start.elapsed())
}

/// Runs `f` with the phase clocks on and `sink` installed as the
/// event sink; both are off again when it returns.
fn traced<T>(sink: &Arc<PerSolveSink>, f: impl FnOnce() -> T) -> T {
    let guard = coremax_obs::install(Arc::clone(sink) as Arc<dyn coremax_obs::EventSink>, true);
    let out = f();
    drop(guard);
    out
}

/// Everything the measured loop records.
#[derive(Default)]
struct Run {
    untraced: Vec<Solve>,
    traced: Vec<Solve>,
    /// Wall time spent in untraced solves (batch: untraced passes).
    untraced_wall: Duration,
    /// Completed untraced rounds — one renamed copy of every base
    /// instance by every solver, or one batch pass: (solves, wall).
    rounds: Vec<(usize, Duration)>,
    traced_wall: Duration,
    /// Pass walls, batch workload only.
    traced_passes: Vec<Duration>,
    events: Vec<SolveEvents>,
    mismatches: Vec<String>,
    jobs: usize,
}

/// Work-count determinism: every decided solve of a job must repeat
/// the counts of the job's first decided solve.
struct Determinism {
    first: Vec<Option<[u64; 5]>>,
}

impl Determinism {
    fn check(&mut self, s: &Solve, label: &str, out: &mut Vec<String>) {
        if !s.decided() {
            return;
        }
        match self.first[s.job] {
            None => self.first[s.job] = Some(s.counts()),
            Some(first) if first != s.counts() => out.push(format!(
                "{label}: counts {:?} differ from the first solve's {:?} \
                 (conflicts, propagations, cores, cardinality clauses, totalizer extensions)",
                s.counts(),
                first
            )),
            Some(_) => {}
        }
    }
}

fn measure(
    w: &Workload,
    setup: &mut Setup,
    prep: &mut Prepared,
    seconds: u64,
    trace: bool,
) -> Result<Run, String> {
    let budget = Duration::from_secs(seconds);
    let mut run = Run::default();
    let sink = Arc::new(PerSolveSink::default());
    let start = Instant::now();
    match w.mode {
        Mode::Sequential => {
            let jobs: Vec<(usize, &str)> = (0..prep.inputs.len())
                .flat_map(|i| w.solvers.iter().map(move |&s| (i, s)))
                .collect();
            let names = prep.names.len();
            let mut det = Determinism {
                first: vec![None; jobs.len()],
            };
            run.jobs = 1;
            let round_len = names * w.solvers.len();
            let mut round_wall = Duration::ZERO;
            let mut k = 0;
            while start.elapsed() < budget {
                setup.resample_if_due(prep, start.elapsed(), budget)?;
                let job = k % jobs.len();
                let (i, solver) = jobs[job];
                let input = &prep.inputs[i];
                let optimum = prep.optima[input.base];
                let label = format!("{} copy {} by {solver}", prep.names[input.base], i / names);
                let s = solve_one(w, solver, input, optimum, job);
                run.untraced_wall += s.latency;
                round_wall += s.latency;
                if (k + 1) % round_len == 0 {
                    run.rounds
                        .push((round_len, std::mem::take(&mut round_wall)));
                }
                det.check(&s, &label, &mut run.mismatches);
                run.untraced.push(s);
                if trace {
                    let mut s = traced(&sink, || {
                        sink.begin();
                        solve_one(w, solver, input, optimum, job)
                    });
                    s.events = sink.finish().pop();
                    run.traced_wall += s.latency;
                    det.check(&s, &format!("{label} (traced)"), &mut run.mismatches);
                    run.traced.push(s);
                }
                k += 1;
            }
        }
        Mode::Batch => {
            let jobs = std::thread::available_parallelism().map_or(1, usize::from);
            run.jobs = jobs;
            let mut det = Determinism {
                first: vec![None; prep.inputs.len()],
            };
            let label = |prep: &Prepared, s: &Solve| {
                format!(
                    "{} copy {}",
                    prep.names[prep.inputs[s.job].base],
                    s.job / prep.names.len()
                )
            };
            // Each pass takes the next `PASS_COPIES` renamed copies of
            // every base instance, wrapping around.
            let per_pass = PASS_COPIES * prep.names.len();
            let passes = prep.inputs.len() / per_pass;
            let mut k = 0;
            while start.elapsed() < budget {
                setup.resample_if_due(prep, start.elapsed(), budget)?;
                let first = (k % passes) * per_pass;
                let range = first..first + per_pass;
                k += 1;
                let (solves, wall) = batch_pass(w, prep, range.clone(), jobs, None);
                run.untraced_wall += wall;
                run.rounds.push((solves.len(), wall));
                for s in &solves {
                    det.check(s, &label(prep, s), &mut run.mismatches);
                }
                run.untraced.extend(solves);
                if trace {
                    let (solves, wall) =
                        traced(&sink, || batch_pass(w, prep, range, jobs, Some(&sink)));
                    run.events.extend(sink.finish());
                    run.traced_wall += wall;
                    run.traced_passes.push(wall);
                    for s in &solves {
                        det.check(
                            s,
                            &format!("{} (traced)", label(prep, s)),
                            &mut run.mismatches,
                        );
                    }
                    run.traced.extend(solves);
                }
            }
        }
    }
    run.events
        .extend(run.traced.iter().filter_map(|s| s.events));
    Ok(run)
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut setup = Setup {
        workload: w,
        seed: args.seed,
        times: Vec::new(),
    };
    let mut prep = setup.sample()?;
    let run = measure(w, &mut setup, &mut prep, args.seconds, args.trace)?;
    let mut report = Report::new(w, args.seed, args.seconds, args.trace);
    let all = run.untraced.iter().chain(&run.traced);
    let attempted = all.clone().count();
    let failed = all.filter(|s| !s.ok).count();
    for s in run.untraced.iter().chain(&run.traced).filter(|s| !s.ok) {
        let input = &prep.inputs[prep_input(w, s.job)];
        report.note(format!(
            "FAILED: {} ({} bytes): status {:?}, cost {:?}, known optimum {}",
            prep.names[input.base], s.bytes, s.status, s.cost, prep.optima[input.base]
        ));
    }
    for m in &run.mismatches {
        report.note(format!("NONDETERMINISTIC: {m}"));
    }
    if args.trace {
        per_layer(&mut report, w, &run);
    } else {
        end_to_end(&mut report, w, &run, &setup.times);
    }
    report.finish(attempted, failed, run.mismatches.is_empty());
    Ok(())
}

/// The input index of a job (sequential jobs are input × solver).
fn prep_input(w: &Workload, job: usize) -> usize {
    match w.mode {
        Mode::Sequential => job / w.solvers.len(),
        Mode::Batch => job,
    }
}

/// Solves a small fixed instance once per solver, untimed, so that
/// code and allocator are warm before measuring.
fn warm_up(w: &Workload) {
    let text = dimacs::write_wcnf(&WcnfFormula::from_cnf_all_soft(&pigeonhole(4)));
    let input = Input { base: 0, text };
    for solver in w.solvers {
        let _ = solve_one(w, solver, &input, 1, 0);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn end_to_end(report: &mut Report, w: &Workload, run: &Run, setup_times: &[f64]) {
    let solves = &run.untraced;
    let latencies: Vec<f64> = solves.iter().map(|s| ms(s.latency)).collect();
    // Throughput of each completed round, averaged over rounds. A rate
    // is bounded, so one slow renaming moves one round by a bounded
    // amount, while a round's time is not. The mean, unlike a median,
    // moves smoothly with the share of the run the host's other load
    // slows down, rather than jumping between its fast and slow modes.
    let throughput: Vec<f64> = run
        .rounds
        .iter()
        .map(|&(k, wall)| k as f64 / wall.as_secs_f64())
        .collect();
    let solves_per_s = if throughput.is_empty() {
        solves.len() as f64 / run.untraced_wall.as_secs_f64()
    } else {
        throughput.iter().sum::<f64>() / throughput.len() as f64
    };
    report.metric(
        Metric::new("solves_per_s", solves_per_s, "1/s").with_note(format!(
            "mean over {} rounds, {} solves",
            run.rounds.len(),
            solves.len()
        )),
    );
    report.metric(Metric::new("latency_p50_ms", median(&latencies), "ms"));
    let (p, value, beyond) = tail(&latencies, w.tail_percentile);
    report.metric(
        Metric::new("latency_tail_ms", value, "ms").with_note(format!(
            "p{p} of {} samples, {beyond} beyond it",
            latencies.len()
        )),
    );
    report.metric(
        Metric::new("setup_s", median(setup_times), "s")
            .with_note(format!("median of {} set-ups", setup_times.len())),
    );
    for m in outcomes(solves) {
        report.extra(m);
    }
}

/// End-to-end numbers that can be 0 (or swing too far between seeds to
/// carry a bound), computed from untraced solves.
fn outcomes(solves: &[Solve]) -> [Metric; 4] {
    let n = solves.len().max(1) as f64;
    [
        Metric::new(
            "solved_share",
            solves.iter().filter(|s| s.decided()).count() as f64 / n,
            "share",
        ),
        Metric::new(
            "failed_share",
            solves.iter().filter(|s| !s.ok).count() as f64 / n,
            "share",
        ),
        Metric::new(
            "gap_at_deadline",
            solves.iter().map(|s| s.gap).sum::<f64>() / n,
            "share",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(report: &mut Report, w: &Workload, run: &Run) {
    let t = &run.traced;
    let n = t.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Solve) -> f64| t.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&Solve) -> f64| sum(f) / n;
    let phase = |s: &Solve, p: Phase| ms(s.stats.phase_times().get(p));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let parse_s = sum(&|s| s.parse.as_secs_f64());
    let bytes = sum(&|s| s.bytes as f64);
    report.metric(Metric::new("cnf.parse_ms", mean(&|s| ms(s.parse)), "ms"));
    report.metric(Metric::new(
        "cnf.parse_mb_per_s",
        ratio(bytes / 1e6, parse_s),
        "MB/s",
    ));

    let simp_in = sum(&|s| (s.stats.simp.hard_in + s.stats.simp.soft_in) as f64);
    let simp_out = sum(&|s| (s.stats.simp.hard_out + s.stats.simp.soft_out) as f64);
    report.metric(Metric::new(
        "simp.simp_pass_ms",
        mean(&|s| phase(s, Phase::SimpPass)),
        "ms",
    ));
    report.metric(Metric::new(
        "simp.clause_reduction",
        if simp_in > 0.0 {
            1.0 - simp_out / simp_in
        } else {
            0.0
        },
        "share",
    ));
    report.metric(Metric::new(
        "simp.vars_eliminated",
        mean(&|s| s.stats.simp.eliminated_vars as f64),
        "count",
    ));

    let sat_call_s = sum(&|s| phase(s, Phase::SatCall)) / 1e3;
    let props = sum(&|s| s.stats.sat.propagations as f64);
    report.metric(Metric::new(
        "sat.sat_call_ms",
        mean(&|s| phase(s, Phase::SatCall)),
        "ms",
    ));
    report.metric(Metric::new(
        "sat.propagate_ms",
        mean(&|s| phase(s, Phase::Propagate)),
        "ms",
    ));
    report.metric(Metric::new(
        "sat.analyze_ms",
        mean(&|s| phase(s, Phase::Analyze)),
        "ms",
    ));
    report.metric(Metric::new(
        "sat.reduce_db_ms",
        mean(&|s| phase(s, Phase::ReduceDb)),
        "ms",
    ));
    report.metric(Metric::new(
        "sat.gc_ms",
        mean(&|s| phase(s, Phase::Gc)),
        "ms",
    ));
    report.metric(Metric::new(
        "sat.props_per_s",
        ratio(props, sat_call_s),
        "1/s",
    ));
    report.metric(Metric::new(
        "sat.conflicts",
        mean(&|s| s.stats.sat.conflicts as f64),
        "count",
    ));
    report.metric(Metric::new("sat.propagations", props / n, "count"));
    report.metric(Metric::new(
        "sat.learnt_lits_per_conflict",
        ratio(
            sum(&|s| s.stats.sat.tot_literals as f64),
            sum(&|s| s.stats.sat.learned_clauses as f64),
        ),
        "count",
    ));
    report.metric(Metric::new(
        "sat.lbd_top_share",
        ratio(
            sum(&|s| s.stats.sat.lbd_hist[coremax_sat::LBD_HIST_BUCKETS - 1] as f64),
            sum(&|s| s.stats.sat.lbd_hist.iter().sum::<u64>() as f64),
        ),
        "share",
    ));
    report.metric(Metric::new(
        "sat.gc_bytes",
        mean(&|s| s.stats.sat.gc_bytes_reclaimed as f64),
        "bytes",
    ));
    report.metric(Metric::new(
        "sat.calls",
        mean(&|s| s.stats.sat_calls as f64),
        "count",
    ));

    report.metric(Metric::new(
        "core.cores",
        mean(&|s| s.stats.cores as f64),
        "count",
    ));
    report.metric(Metric::new(
        "core.core_yield",
        ratio(
            sum(&|s| s.stats.cores as f64),
            sum(&|s| s.stats.sat_calls as f64),
        ),
        "share",
    ));
    report.metric(Metric::new(
        "core.hardened",
        mean(&|s| s.stats.hardened as f64),
        "count",
    ));
    let unattributed = |s: &Solve| {
        ms(s.solve) - phase(s, Phase::SatCall) - phase(s, Phase::Encode) - phase(s, Phase::SimpPass)
    };
    report.metric(Metric::new(
        "core.unattributed_ms",
        mean(&unattributed),
        "ms",
    ));
    report.metric(Metric::new("core.verify_ms", mean(&|s| ms(s.verify)), "ms"));
    let censor = w.limit_ms as f64;
    let firsts = |f: fn(&SolveEvents) -> Option<Duration>| -> Vec<f64> {
        run.events
            .iter()
            .map(|e| f(e).map_or(censor, ms).min(censor))
            .collect()
    };
    report.metric(
        Metric::new(
            "core.first_core_ms",
            median(&firsts(|e| e.first_core)),
            "ms",
        )
        .with_note(format!(
            "median of {} solves, censored at {censor} ms",
            run.events.len()
        )),
    );
    report.metric(Metric::new(
        "core.first_incumbent_ms",
        median(&firsts(|e| e.first_incumbent)),
        "ms",
    ));

    report.metric(Metric::new(
        "cards.encode_ms",
        mean(&|s| phase(s, Phase::Encode)),
        "ms",
    ));
    report.metric(Metric::new(
        "cards.clauses",
        mean(&|s| s.stats.cardinality_clauses as f64),
        "count",
    ));
    report.metric(Metric::new(
        "cards.totalizer_extensions",
        mean(&|s| s.stats.totalizer_extensions as f64),
        "count",
    ));

    // The closed loop's use of its workers: solver time over worker
    // time. Sequential workloads have one worker busy per solve.
    let busy = sum(&|s| s.solve.as_secs_f64());
    let capacity = match w.mode {
        Mode::Sequential => sum(&|s| s.latency.as_secs_f64()),
        Mode::Batch => {
            run.jobs as f64
                * run
                    .traced_passes
                    .iter()
                    .map(Duration::as_secs_f64)
                    .sum::<f64>()
        }
    };
    let passes = match w.mode {
        Mode::Sequential => n,
        Mode::Batch => run.traced_passes.len().max(1) as f64,
    };
    report.metric(Metric::new(
        "par.busy_share",
        ratio(busy, capacity),
        "share",
    ));
    report.metric(Metric::new(
        "par.idle_ms",
        (capacity - busy) * 1e3 / passes,
        "ms",
    ));

    for m in outcomes(&run.untraced) {
        report.metric(m);
    }

    let overhead = ratio(
        run.traced_wall.as_secs_f64(),
        run.untraced_wall.as_secs_f64(),
    ) - 1.0;
    report.metric(
        Metric::new("obs.trace_overhead", overhead, "share").with_note(format!(
            "traced {:.1} ms vs untraced {:.1} ms over the same {} inputs",
            ms(run.traced_wall),
            ms(run.untraced_wall),
            t.len()
        )),
    );
    report.note(format!(
        "reconcile (mean per traced solve, ms): solve {:.3} = sat_call {:.3} + encode {:.3} + simp_pass {:.3} + unattributed {:.3}; \
         latency {:.3} = parse {:.3} + solve + verify {:.3}; untraced latency {:.3}",
        mean(&|s| ms(s.solve)),
        mean(&|s| phase(s, Phase::SatCall)),
        mean(&|s| phase(s, Phase::Encode)),
        mean(&|s| phase(s, Phase::SimpPass)),
        mean(&unattributed),
        mean(&|s| ms(s.latency)),
        mean(&|s| ms(s.parse)),
        mean(&|s| ms(s.verify)),
        run.untraced.iter().map(|s| ms(s.latency)).sum::<f64>() / run.untraced.len().max(1) as f64,
    ));
}

/// Median (mean of the middle two for an even count); 0 when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `want` percentile, or the highest one that keeps ten samples
/// beyond it when `want` does not: (percentile, nearest-rank value,
/// samples beyond).
fn tail(values: &[f64], want: f64) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (want, 0.0, 0);
    }
    let wanted_rank = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted_rank.min(n.saturating_sub(10).max(1));
    (100.0 * rank as f64 / n as f64, v[rank - 1], n - rank)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
