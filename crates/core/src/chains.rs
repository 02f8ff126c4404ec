//! Addition-chain schedules for power expansion under the paper's
//! two-register constraint.
//!
//! §3.1: "we usually only have access to the origin and result tensors,
//! since copying data to create temporary tensors would be time consuming".
//! With only the origin `a0` (holding `x`) and the result `a1` available,
//! every multiply is one of:
//!
//! * `a1 ← a0 · a0` — the *opening squaring* (exponent becomes 2),
//! * `a1 ← a1 · a1` — doubling the accumulated exponent,
//! * `a1 ← a1 · a0` — incrementing it by one.
//!
//! The reachable schedules are therefore the doubling/increment addition
//! chains, and the optimum is computed exactly here by dynamic programming.
//! For x¹⁰ the optimum is **4** multiplies (2→4→5→10) — one better than the
//! 5 of the paper's Listing 5 (2→4→8→9→10); `tests/listings.rs` pins this
//! delta.

/// One multiply in a power schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// `a1 ← a0 · a0`: start the chain at exponent 2.
    SquareOrigin,
    /// `a1 ← a1 · a1`: double the exponent.
    SquareAcc,
    /// `a1 ← a1 · a0`: increment the exponent.
    MulOrigin,
}

/// A complete multiply schedule computing `a1 = a0^n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerChain {
    /// Target exponent.
    pub exponent: u64,
    /// Multiply steps, in execution order.
    pub steps: Vec<ChainStep>,
}

impl PowerChain {
    /// Number of `BH_MULTIPLY` byte-codes the schedule emits.
    pub fn multiplies(&self) -> usize {
        self.steps.len()
    }

    /// Verify the schedule actually computes `x^n` (exponent bookkeeping).
    pub fn is_valid(&self) -> bool {
        let mut e: u64 = 1; // a1 conceptually mirrors a0 before the chain
        let mut started = false;
        for step in &self.steps {
            match step {
                ChainStep::SquareOrigin => {
                    if started {
                        return false; // only valid as the opening step
                    }
                    e = 2;
                    started = true;
                }
                ChainStep::SquareAcc => {
                    if !started {
                        return false;
                    }
                    e = e.checked_mul(2).expect("exponent fits u64");
                }
                ChainStep::MulOrigin => {
                    if !started {
                        return false;
                    }
                    e = e.checked_add(1).expect("exponent fits u64");
                }
            }
        }
        started && e == self.exponent
    }
}

/// The **optimal** schedule for `x^n` under the two-register constraint
/// (minimal multiply count), or `None` for `n < 2` (no multiplies needed:
/// `x^1` is a copy and `x^0` a fill — the rewrite rule special-cases them).
///
/// # Examples
///
/// ```
/// use bh_opt::chains::optimal_chain;
/// let c = optimal_chain(10).unwrap();
/// assert_eq!(c.multiplies(), 4); // 2 → 4 → 5 → 10
/// assert!(c.is_valid());
/// ```
pub fn optimal_chain(n: u64) -> Option<PowerChain> {
    if n < 2 {
        return None;
    }
    // Work backwards: halve when even, decrement when odd, down to 2.
    // For the doubling/increment operation set this greedy reversal is
    // optimal: any chain must pass through ⌈k/2⌉ for each doubling, and the
    // DP below double-checks optimality in tests for all n ≤ 4096.
    let mut steps = Vec::new();
    let mut k = n;
    while k > 2 {
        if k % 2 == 0 {
            steps.push(ChainStep::SquareAcc);
            k /= 2;
        } else {
            steps.push(ChainStep::MulOrigin);
            k -= 1;
        }
    }
    steps.push(ChainStep::SquareOrigin);
    steps.reverse();
    Some(PowerChain { exponent: n, steps })
}

/// The naive schedule of Listing 4: `x², x³, …, xⁿ` with `n − 1`
/// multiplies.
///
/// # Examples
///
/// ```
/// use bh_opt::chains::naive_chain;
/// let c = naive_chain(10).unwrap();
/// assert_eq!(c.multiplies(), 9); // the paper's Listing 4
/// assert!(c.is_valid());
/// ```
pub fn naive_chain(n: u64) -> Option<PowerChain> {
    if n < 2 {
        return None;
    }
    let mut steps = vec![ChainStep::SquareOrigin];
    for _ in 2..n {
        steps.push(ChainStep::MulOrigin);
    }
    Some(PowerChain { exponent: n, steps })
}

/// The schedule the paper's Listing 5 demonstrates for x¹⁰
/// (2 → 4 → 8 → 9 → 10, five multiplies). Kept as a named artefact so
/// tests and benchmarks can reproduce the listing verbatim.
pub fn listing5_chain() -> PowerChain {
    use ChainStep::*;
    PowerChain {
        exponent: 10,
        steps: vec![SquareOrigin, SquareAcc, SquareAcc, MulOrigin, MulOrigin],
    }
}

/// Minimal multiply count for `x^n` under the two-register constraint
/// (`None` for n < 2). Exact dynamic program over every exponent up to
/// `n`, so it takes O(n) time and memory: the reference that
/// [`optimal_chain`] is checked against, never called by a rule (an
/// exponent read from byte-code can be near 2⁶³).
pub fn optimal_multiplies(n: u64) -> Option<u64> {
    if n < 2 {
        return None;
    }
    // cost[k] = min multiplies to reach exponent k starting from the
    // opening squaring (cost[2] = 1).
    let n_us = usize::try_from(n).ok()?;
    let mut cost = vec![u64::MAX; n_us + 1];
    cost[2] = 1;
    for k in 3..=n_us {
        let mut best = cost[k - 1].saturating_add(1);
        if k % 2 == 0 {
            best = best.min(cost[k / 2].saturating_add(1));
        }
        cost[k] = best;
    }
    Some(cost[n_us])
}

/// Multiply count of the *unconstrained* square-and-multiply binary method
/// (temporaries allowed): `⌊log₂ n⌋ + popcount(n) − 1`. Reference point
/// for how much the two-register constraint costs.
pub fn binary_method_multiplies(n: u64) -> Option<u64> {
    if n < 1 {
        return None;
    }
    Some(63 - n.leading_zeros() as u64 + n.count_ones() as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_exponent_ten() {
        let opt = optimal_chain(10).unwrap();
        assert!(opt.is_valid());
        assert_eq!(opt.multiplies(), 4);
        // The paper's Listing 5 chain is valid but one multiply worse.
        let paper = listing5_chain();
        assert!(paper.is_valid());
        assert_eq!(paper.multiplies(), 5);
        // Listing 4 costs nine.
        assert_eq!(naive_chain(10).unwrap().multiplies(), 9);
    }

    #[test]
    fn greedy_matches_dp_up_to_4096() {
        for n in 2..=4096u64 {
            let chain = optimal_chain(n).unwrap();
            assert!(chain.is_valid(), "n={n}");
            assert_eq!(
                chain.multiplies() as u64,
                optimal_multiplies(n).unwrap(),
                "greedy suboptimal at n={n}"
            );
        }
    }

    #[test]
    fn powers_of_two_use_only_squarings() {
        for k in 1..=12u32 {
            let n = 1u64 << k;
            let chain = optimal_chain(n).unwrap();
            assert_eq!(chain.multiplies() as u64, k as u64);
            assert!(chain
                .steps
                .iter()
                .all(|s| !matches!(s, ChainStep::MulOrigin)));
        }
    }

    #[test]
    fn naive_chain_is_linear() {
        for n in 2..64u64 {
            let c = naive_chain(n).unwrap();
            assert!(c.is_valid());
            assert_eq!(c.multiplies() as u64, n - 1);
        }
    }

    #[test]
    fn small_exponents_have_no_chain() {
        assert!(optimal_chain(0).is_none());
        assert!(optimal_chain(1).is_none());
        assert!(naive_chain(1).is_none());
    }

    #[test]
    fn constrained_cost_close_to_binary_method() {
        // The two-register constraint costs at most a couple of extra
        // multiplies vs the unconstrained binary method.
        for n in 2..=1024u64 {
            let constrained = optimal_multiplies(n).unwrap();
            let unconstrained = binary_method_multiplies(n).unwrap();
            assert!(constrained >= unconstrained.saturating_sub(1), "n={n}");
            assert!(constrained <= unconstrained + 1, "n={n}");
        }
    }

    #[test]
    fn validity_rejects_malformed_chains() {
        // Doubling before the opening squaring is meaningless.
        let bad = PowerChain {
            exponent: 4,
            steps: vec![ChainStep::SquareAcc],
        };
        assert!(!bad.is_valid());
        // A second opening squaring mid-chain is not allowed.
        let bad = PowerChain {
            exponent: 4,
            steps: vec![ChainStep::SquareOrigin, ChainStep::SquareOrigin],
        };
        assert!(!bad.is_valid());
        // Wrong target exponent.
        let bad = PowerChain {
            exponent: 5,
            steps: vec![ChainStep::SquareOrigin],
        };
        assert!(!bad.is_valid());
    }
}
