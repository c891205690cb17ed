//! Seeded, optimum-preserving renaming of MaxSAT instances.
//!
//! A renaming permutes the variables, flips the polarity of a random
//! subset of them, shuffles the hard and the soft clauses, and shuffles
//! the literals inside every clause. It is an isomorphism of the
//! instance: the optimum is unchanged, and a model of the renamed
//! instance maps back to a model of the original with the same cost.
//! The solver only ever sees the renamed text, so a seed changes the
//! input the way a user's differently written file would, without
//! changing the answer the benchmark checks against.

use coremax_cnf::{Assignment, Lit, Var, WcnfFormula};

/// SplitMix64: a small, fast generator, ample for driving shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Folds several words into one seed, so that each (seed, instance,
/// copy) triple gets an independent stream.
#[must_use]
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = Rng::new(0x5EED);
    for &p in parts {
        rng = Rng::new(rng.next_u64() ^ p);
    }
    rng.next_u64()
}

/// The variable map of one renaming: the image of every original
/// variable's positive literal.
#[derive(Debug, Clone)]
pub struct Renaming {
    image: Vec<Lit>,
}

impl Renaming {
    /// The image of an original literal.
    #[must_use]
    pub fn lit(&self, lit: Lit) -> Lit {
        let image = self.image[lit.var().index()];
        if lit.is_positive() {
            image
        } else {
            !image
        }
    }

    /// Maps a model of the renamed instance back onto the original
    /// variables.
    #[must_use]
    pub fn model_back(&self, renamed: &Assignment) -> Assignment {
        let mut original = Assignment::for_vars(self.image.len());
        for (v, &image) in self.image.iter().enumerate() {
            if let Some(value) = renamed.lit_value(image) {
                original.assign(Var::new(v as u32), value);
            }
        }
        original
    }
}

/// Renames `wcnf` under `seed`. Returns the renamed instance and the
/// map that takes its models back to `wcnf`'s variables.
#[must_use]
pub fn rename(wcnf: &WcnfFormula, seed: u64) -> (WcnfFormula, Renaming) {
    let mut rng = Rng::new(seed);
    let n = wcnf.num_vars();
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let image: Vec<Lit> = order
        .iter()
        .map(|&v| Lit::new(Var::new(v), rng.next_u64() & 1 == 0))
        .collect();
    let renaming = Renaming { image };

    let clause = |lits: &[Lit], rng: &mut Rng| -> Vec<Lit> {
        let mut out: Vec<Lit> = lits.iter().map(|&l| renaming.lit(l)).collect();
        rng.shuffle(&mut out);
        out
    };
    let mut hard: Vec<Vec<Lit>> = wcnf
        .hard_clauses()
        .iter()
        .map(|c| clause(c.lits(), &mut rng))
        .collect();
    let mut soft: Vec<(Vec<Lit>, u64)> = wcnf
        .soft_clauses()
        .iter()
        .map(|s| (clause(s.clause.lits(), &mut rng), s.weight))
        .collect();
    rng.shuffle(&mut hard);
    rng.shuffle(&mut soft);

    let mut out = WcnfFormula::with_vars(n);
    for lits in hard {
        out.add_hard(lits);
    }
    for (lits, weight) in soft {
        out.add_soft(lits, weight);
    }
    (out, renaming)
}
