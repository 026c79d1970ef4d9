//! The steady-state population with tournament selection.
//!
//! Borg maintains a fixed-size population evolved one offspring at a time.
//! Replacement follows Hadka & Reed (2012): an offspring that dominates one
//! or more population members replaces one of them at random; an offspring
//! dominated by no member but dominating none replaces a random member; an
//! offspring dominated by any member is rejected.
//!
//! The replacement scan and tournament comparisons are the second-largest
//! `T_A` term after the archive, so the population mirrors its members'
//! objective vectors into a flat structure-of-arrays [`ObjectiveMatrix`] and
//! caches each member's aggregate constraint violation. The O(population)
//! scan in [`Population::offer`] then streams over contiguous rows instead
//! of chasing one `Vec` per member, and allocates nothing per offspring
//! (the dominated-index list is a reused scratch buffer).

use crate::dominance::{pareto_dominance_objectives, Dominance};
use crate::matrix::ObjectiveMatrix;
use crate::solution::Solution;
use rand::seq::SliceRandom;
use rand::Rng;

/// Outcome of offering an offspring to the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationInsert {
    /// Replaced a member it dominated.
    ReplacedDominated,
    /// Nondominated with the whole population; replaced a random member.
    ReplacedRandom,
    /// Dominated by at least one member; rejected.
    Rejected,
}

/// A bounded steady-state population.
#[derive(Debug, Clone)]
pub struct Population {
    members: Vec<Solution>,
    /// Flat SoA mirror of member objective vectors, row-parallel with
    /// `members`.
    objectives: ObjectiveMatrix,
    /// Cached aggregate constraint violation per member, row-parallel with
    /// `members` (computed once at insertion instead of per comparison).
    violations: Vec<f64>,
    capacity: usize,
    /// Reused dominated-member index list for `offer`.
    scratch_dominated: Vec<usize>,
}

impl Population {
    /// Creates an empty population with the given capacity.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "population capacity must be positive");
        Self {
            members: Vec::with_capacity(capacity),
            objectives: ObjectiveMatrix::new(0),
            violations: Vec::with_capacity(capacity),
            capacity,
            scratch_dominated: Vec::new(),
        }
    }

    /// Current members.
    pub fn members(&self) -> &[Solution] {
        &self.members
    }

    /// Flat structure-of-arrays view of member objective vectors: row `i`
    /// holds member `i`'s objectives.
    pub fn objective_rows(&self) -> &ObjectiveMatrix {
        &self.objectives
    }

    /// Number of members currently held.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the population holds no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Capacity (target size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the population is at capacity.
    pub fn is_full(&self) -> bool {
        self.members.len() >= self.capacity
    }

    /// Adds a member unconditionally while below capacity (initialization /
    /// restart refill). Returns `false` (and drops the solution) when full.
    pub fn fill(&mut self, solution: Solution) -> bool {
        if self.is_full() {
            return false;
        }
        self.push_member(solution);
        true
    }

    /// Empties the population, keeping capacity.
    pub fn clear(&mut self) {
        self.members.clear();
        self.objectives.clear();
        self.violations.clear();
    }

    /// Changes the capacity; excess members (if shrinking) are dropped from
    /// the tail after a shuffle so no positional bias survives.
    pub fn resize<R: Rng>(&mut self, capacity: usize, rng: &mut R) {
        assert!(capacity > 0, "population capacity must be positive");
        self.capacity = capacity;
        if self.members.len() > capacity {
            self.members.shuffle(rng);
            self.members.truncate(capacity);
            self.rebuild_mirrors();
        }
    }

    /// Offers an offspring to a full population using Borg's steady-state
    /// replacement rule.
    // borg-lint: hot-path
    pub fn offer<R: Rng>(&mut self, offspring: Solution, rng: &mut R) -> PopulationInsert {
        self.offer_replacing(offspring, rng).0
    }

    /// [`offer`](Self::offer), additionally returning the member the
    /// offspring displaced (if any) so callers can recycle its buffers
    /// through a solution arena instead of freeing them.
    // borg-lint: hot-path
    pub fn offer_replacing<R: Rng>(
        &mut self,
        offspring: Solution,
        rng: &mut R,
    ) -> (PopulationInsert, Option<Solution>) {
        if !self.is_full() {
            self.push_member(offspring);
            return (PopulationInsert::ReplacedRandom, None);
        }
        let off_violation = offspring.constraint_violation();
        let off_objectives = offspring.objectives();
        self.scratch_dominated.clear();
        for i in 0..self.members.len() {
            match self.row_dominance(off_objectives, off_violation, i) {
                Dominance::Dominates => self.scratch_dominated.push(i),
                Dominance::DominatedBy => return (PopulationInsert::Rejected, Some(offspring)),
                Dominance::NonDominated => {}
            }
        }
        if self.scratch_dominated.is_empty() {
            let i = rng.gen_range(0..self.members.len());
            let old = self.replace_member(i, offspring, off_violation);
            (PopulationInsert::ReplacedRandom, Some(old))
        } else {
            let i = self.scratch_dominated[rng.gen_range(0..self.scratch_dominated.len())];
            let old = self.replace_member(i, offspring, off_violation);
            (PopulationInsert::ReplacedDominated, Some(old))
        }
    }

    /// Constrained dominance of an offspring (given as a row) against member
    /// `i`, using the cached violation and the SoA objective row — the same
    /// comparator as [`crate::dominance::constrained_dominance`], fed from
    /// flat storage.
    // borg-lint: hot-path
    fn row_dominance(&self, objectives: &[f64], violation: f64, i: usize) -> Dominance {
        let vi = self.violations[i];
        if violation < vi {
            Dominance::Dominates
        } else if vi < violation {
            Dominance::DominatedBy
        } else {
            pareto_dominance_objectives(objectives, self.objectives.row(i))
        }
    }

    /// Tournament selection of one parent with tournament size `k`.
    ///
    /// Draws `k` members uniformly with replacement and returns the index of
    /// the best under constrained Pareto dominance (ties keep the earlier
    /// draw, which is an unbiased choice because draws are random).
    // borg-lint: hot-path
    pub fn tournament_select<R: Rng>(&self, k: usize, rng: &mut R) -> usize {
        assert!(
            !self.members.is_empty(),
            "cannot select from empty population"
        );
        let k = k.max(1);
        let mut best = rng.gen_range(0..self.members.len());
        for _ in 1..k {
            let challenger = rng.gen_range(0..self.members.len());
            if self.row_dominance(
                self.objectives.row(challenger),
                self.violations[challenger],
                best,
            ) == Dominance::Dominates
            {
                best = challenger;
            }
        }
        best
    }

    /// Selects `n` distinct member indices uniformly at random into `out`
    /// (used to build multiparent operator inputs around a
    /// tournament-selected pivot), reusing the buffer so the steady-state
    /// loop allocates nothing per candidate.
    ///
    /// If fewer than `n` members exist, indices repeat (sampling with
    /// replacement) so multiparent operators still receive full arity.
    ///
    /// Draws the **same RNG stream** as `rand::seq::index::sample`: it
    /// simulates that sampler's partial Fisher–Yates over a *virtual*
    /// `0..len` pool, tracking only the (≤ arity) slots a swap touched in a
    /// fixed stack array instead of materializing the whole pool.
    // borg-lint: hot-path
    pub fn sample_indices_into<R: Rng>(&self, n: usize, rng: &mut R, out: &mut Vec<usize>) {
        assert!(!self.members.is_empty(), "cannot sample empty population");
        out.clear();
        let len = self.members.len();
        if len < n {
            for _ in 0..n {
                out.push(rng.gen_range(0..len));
            }
            return;
        }
        // One touched slot per draw; operator arities are ≤ 10, so 32 gives
        // ample headroom. (A larger request falls back to the allocating
        // sampler, which draws the identical stream.)
        const MAX_STACK: usize = 32;
        if n > MAX_STACK {
            out.extend_from_slice(&rand::seq::index::sample(rng, len, n).into_vec());
            return;
        }
        let mut touched = [(usize::MAX, 0usize); MAX_STACK];
        let lookup = |touched: &[(usize, usize)], x: usize| -> usize {
            // Latest write wins; untouched slots hold their identity value.
            for &(slot, value) in touched.iter().rev() {
                if slot == x {
                    return value;
                }
            }
            x
        };
        for i in 0..n {
            let j = rng.gen_range(i..len);
            let vj = lookup(&touched[..i], j);
            let vi = lookup(&touched[..i], i);
            // `pool.swap(i, j)`: slot i is final after iteration i (future
            // draws satisfy j ≥ i+1), so its value goes straight to `out`;
            // slot j keeps the displaced value for future lookups.
            out.push(vj);
            touched[i] = (j, vi);
        }
    }

    /// Member accessor.
    pub fn get(&self, i: usize) -> &Solution {
        &self.members[i]
    }

    /// Appends a member and its mirror rows.
    fn push_member(&mut self, solution: Solution) {
        self.violations.push(solution.constraint_violation());
        self.objectives.push_row(solution.objectives());
        self.members.push(solution);
    }

    /// Replaces member `i`, refreshing its mirror rows; returns the old one.
    // borg-lint: hot-path
    fn replace_member(&mut self, i: usize, solution: Solution, violation: f64) -> Solution {
        self.violations[i] = violation;
        self.objectives.set_row(i, solution.objectives());
        std::mem::replace(&mut self.members[i], solution)
    }

    /// Recomputes both mirrors from `members` (after a shuffle/truncate).
    fn rebuild_mirrors(&mut self) {
        self.objectives.clear();
        self.violations.clear();
        for m in &self.members {
            self.objectives.push_row(m.objectives());
            self.violations.push(m.constraint_violation());
        }
    }

    /// Verifies that the SoA mirrors agree with the members (tests).
    pub fn check_mirrors(&self) -> Result<(), String> {
        // Row-count comparison, not an objective-value comparison.
        // borg-lint: allow(BORG-L005)
        if self.objectives.rows() != self.members.len()
            || self.violations.len() != self.members.len()
        {
            return Err(format!(
                "mirror rows {} / violations {} disagree with {} members",
                self.objectives.rows(),
                self.violations.len(),
                self.members.len()
            ));
        }
        for (i, m) in self.members.iter().enumerate() {
            // Mirror integrity is exact copy equality, not dominance.
            // borg-lint: allow(BORG-L005)
            if self.objectives.row(i) != m.objectives() {
                return Err(format!("objective mirror row {i} is stale"));
            }
            // borg-lint: allow(BORG-L005)
            if self.violations[i] != m.constraint_violation() {
                return Err(format!("violation cache entry {i} is stale"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sol(objs: &[f64]) -> Solution {
        Solution::from_parts(vec![], objs.to_vec(), vec![])
    }

    #[test]
    fn fill_until_capacity() {
        let mut p = Population::new(2);
        assert!(p.fill(sol(&[1.0, 1.0])));
        assert!(!p.is_full());
        assert!(p.fill(sol(&[2.0, 2.0])));
        assert!(p.is_full());
        assert!(!p.fill(sol(&[3.0, 3.0])));
        assert_eq!(p.len(), 2);
        p.check_mirrors().unwrap();
    }

    #[test]
    fn offer_replaces_dominated_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[5.0, 5.0]));
        p.fill(sol(&[0.0, 9.0]));
        let r = p.offer(sol(&[1.0, 1.0]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert!(p.members().iter().any(|m| m.objectives() == [1.0, 1.0]));
        assert!(p.members().iter().any(|m| m.objectives() == [0.0, 9.0]));
        p.check_mirrors().unwrap();
    }

    #[test]
    fn offer_rejects_dominated_offspring() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(1);
        p.fill(sol(&[0.0, 0.0]));
        assert_eq!(
            p.offer(sol(&[1.0, 1.0]), &mut rng),
            PopulationInsert::Rejected
        );
        assert_eq!(p.members()[0].objectives(), &[0.0, 0.0]);
    }

    #[test]
    fn offer_nondominated_replaces_random() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[0.0, 1.0]));
        p.fill(sol(&[1.0, 0.0]));
        let r = p.offer(sol(&[0.5, 0.5]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedRandom);
        assert_eq!(p.len(), 2);
        p.check_mirrors().unwrap();
    }

    #[test]
    fn offer_replacing_returns_the_displaced_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[5.0, 5.0]));
        p.fill(sol(&[0.0, 9.0]));
        let (r, old) = p.offer_replacing(sol(&[1.0, 1.0]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert_eq!(old.expect("displaced").objectives(), &[5.0, 5.0]);
        // A rejected offspring comes back to the caller for recycling.
        let (r, back) = p.offer_replacing(sol(&[9.0, 9.0]), &mut rng);
        assert_eq!(r, PopulationInsert::Rejected);
        assert_eq!(back.expect("rejected offspring").objectives(), &[9.0, 9.0]);
        // Filling below capacity keeps the offspring: nothing to recycle.
        let mut q = Population::new(2);
        let (r, none) = q.offer_replacing(sol(&[1.0, 2.0]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedRandom);
        assert!(none.is_none());
    }

    #[test]
    fn constrained_offspring_uses_cached_violations() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = Population::new(2);
        p.fill(Solution::from_parts(vec![], vec![0.0, 0.0], vec![2.0]));
        p.fill(Solution::from_parts(vec![], vec![1.0, 9.0], vec![0.0]));
        // Feasible offspring dominates the violating member regardless of
        // objectives.
        let off = Solution::from_parts(vec![], vec![5.0, 5.0], vec![0.0]);
        let r = p.offer(off, &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert!(p.members().iter().all(|m| m.is_feasible()));
        p.check_mirrors().unwrap();
    }

    #[test]
    fn tournament_prefers_dominating_member() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Population::new(10);
        for _ in 0..9 {
            p.fill(sol(&[9.0, 9.0]));
        }
        p.fill(sol(&[0.0, 0.0]));
        // With replacement, the dominant member enters a 10-way tournament
        // with probability 1 − 0.9^10 ≈ 0.65 and then always wins. Uniform
        // (broken) selection would win ~10% of the time; demand well above
        // that with enough trials to be insensitive to the RNG stream.
        let mut wins = 0;
        for _ in 0..400 {
            if p.tournament_select(10, &mut rng) == 9 {
                wins += 1;
            }
        }
        assert!(
            wins > 200,
            "dominant member won only {wins}/400 tournaments"
        );
    }

    #[test]
    fn tournament_size_one_is_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = Population::new(4);
        for i in 0..4 {
            p.fill(sol(&[i as f64, 4.0 - i as f64]));
        }
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[p.tournament_select(1, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 800, "selection badly skewed: {counts:?}");
        }
    }

    #[test]
    fn sample_indices_distinct_when_possible() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = Population::new(10);
        for i in 0..10 {
            p.fill(sol(&[i as f64, -(i as f64)]));
        }
        let mut idx = Vec::new();
        p.sample_indices_into(5, &mut rng, &mut idx);
        let mut dedup = idx.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    fn sample_indices_with_replacement_when_small() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = Population::new(2);
        p.fill(sol(&[0.0, 1.0]));
        p.fill(sol(&[1.0, 0.0]));
        let mut idx = Vec::new();
        p.sample_indices_into(6, &mut rng, &mut idx);
        assert_eq!(idx.len(), 6);
        assert!(idx.iter().all(|&i| i < 2));
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Population::new(4);
        for i in 0..4 {
            p.fill(sol(&[i as f64, -(i as f64)]));
        }
        p.resize(2, &mut rng);
        assert_eq!(p.len(), 2);
        assert_eq!(p.capacity(), 2);
        p.check_mirrors().unwrap();
        p.resize(8, &mut rng);
        assert_eq!(p.len(), 2);
        assert!(!p.is_full());
    }
}
