//! The known-answer table covers every base instance, and its entries
//! re-derive from their proofs.

use coremax_perfbench::known;
use coremax_perfbench::workloads::{bases, Proof, WORKLOADS};

#[test]
fn table_covers_every_base_instance() {
    let table = known::table().expect("table parses");
    for w in &WORKLOADS {
        let list = bases(w.name);
        assert!(!list.is_empty(), "{} has no instances", w.name);
        for base in list {
            assert!(
                table.contains_key(&base.name),
                "{} missing from the table",
                base.name
            );
        }
    }
}

#[test]
fn cheap_entries_rederive() {
    let table = known::table().expect("table parses");
    // One instance per kind of proof, each derived in well under a second.
    let mut kinds = std::collections::BTreeSet::new();
    for base in bases("batch-small")
        .into_iter()
        .chain(bases("weighted").into_iter().take(1))
    {
        let kind = known::source(&base.proof);
        if matches!(base.proof, Proof::UnsatCnf) && base.wcnf.num_soft() > 400 {
            continue;
        }
        if kinds.insert(kind) {
            assert_eq!(known::derive(&base), Ok(table[&base.name]), "{}", base.name);
        }
    }
    assert!(kinds.len() >= 4, "kinds covered: {kinds:?}");
}
