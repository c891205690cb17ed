//! The seeded renamer: deterministic in its seed, different across
//! seeds, and an isomorphism — the optimum is preserved and every model
//! of a renamed instance maps back to a model of the original with the
//! same cost.

use coremax::{verify_solution, MaxSatStatus};
use coremax_cli::{parse_problem, run, Options};
use coremax_cnf::dimacs::write_wcnf;
use coremax_perfbench::known;
use coremax_perfbench::rename::{mix, rename};
use coremax_perfbench::workloads::{bases, Base};

/// A spread of small batch instances: every family, solved in
/// milliseconds.
fn sample() -> Vec<Base> {
    bases("batch-small").into_iter().step_by(7).collect()
}

#[test]
fn same_seed_gives_byte_identical_text() {
    for base in sample() {
        let seed = mix(&[42, 3]);
        let a = write_wcnf(&rename(&base.wcnf, seed).0);
        let b = write_wcnf(&rename(&base.wcnf, seed).0);
        assert_eq!(a, b, "{}", base.name);
    }
}

#[test]
fn different_seeds_give_different_text() {
    for base in sample() {
        let a = write_wcnf(&rename(&base.wcnf, mix(&[1, 0])).0);
        let b = write_wcnf(&rename(&base.wcnf, mix(&[2, 0])).0);
        assert_ne!(a, b, "{}", base.name);
    }
}

#[test]
fn renaming_keeps_the_shape() {
    for base in sample() {
        let (renamed, _) = rename(&base.wcnf, 7);
        assert_eq!(renamed.num_vars(), base.wcnf.num_vars(), "{}", base.name);
        assert_eq!(renamed.num_hard(), base.wcnf.num_hard(), "{}", base.name);
        assert_eq!(renamed.num_soft(), base.wcnf.num_soft(), "{}", base.name);
        assert_eq!(
            renamed.total_soft_weight(),
            base.wcnf.total_soft_weight(),
            "{}",
            base.name
        );
    }
}

#[test]
fn optimum_is_preserved_and_models_map_back() {
    let table = known::table().expect("table parses");
    for base in sample() {
        let optimum = table[&base.name];
        for seed in 0..3 {
            let (renamed, renaming) = rename(&base.wcnf, mix(&[seed, 11]));
            let parsed = parse_problem(&write_wcnf(&renamed)).expect("renamed text parses");
            let solution = run(&Options::default(), &parsed).expect("default solver");
            assert_eq!(solution.status, MaxSatStatus::Optimal, "{}", base.name);
            assert_eq!(solution.cost, Some(optimum), "{} seed {seed}", base.name);
            assert!(verify_solution(&parsed, &solution), "{}", base.name);

            let mut back = solution.clone();
            back.model = Some(renaming.model_back(solution.model.as_ref().expect("model")));
            assert!(
                verify_solution(&base.wcnf, &back),
                "{} seed {seed}: mapped-back model fails on the original",
                base.name
            );
        }
    }
}
