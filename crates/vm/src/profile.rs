//! Dynamic opcode-frequency profiler: the measurement substrate behind
//! the superinstruction fusion table.
//!
//! When [`crate::VmConfig::profile_ops`] is set, the execution engine
//! records every executed op plus *statically contiguous* digrams and
//! trigrams — pairs/triples of ops at consecutive pcs where the second
//! (third) op executed immediately after the first. Contiguity is the
//! fusion precondition: a superinstruction replaces ops at `pc..pc+len`,
//! so a dynamic adjacency across a taken branch (or a call/return) is not
//! a fusion candidate and resets the chain. Breaker and cold ops (those
//! the straight-line loop cannot execute) also reset it, because they can
//! never be fused.
//!
//! The profiler exists for the `--profile-ops` mode of the interp bench
//! bin; its output is the provenance of the fusion table documented in
//! DESIGN.md §8. It is never enabled on a replicated run.

use crate::decoded::OpCode;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Executed-op frequency counts: singles, contiguous digrams, contiguous
/// trigrams.
#[derive(Debug, Default)]
pub struct OpProfiler {
    singles: HashMap<OpCode, u64>,
    digrams: HashMap<[OpCode; 2], u64>,
    trigrams: HashMap<[OpCode; 3], u64>,
    hist: [Option<OpCode>; 2],
}

impl OpProfiler {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed op. `sequential` is true when this op sits at
    /// the pc immediately after the previously recorded op (the static
    /// contiguity fusion needs); a non-sequential op still counts as a
    /// single but starts a fresh chain.
    pub(crate) fn note(&mut self, code: OpCode, sequential: bool) {
        if !sequential {
            self.hist = [None, None];
        }
        *self.singles.entry(code).or_insert(0) += 1;
        if let Some(prev) = self.hist[1] {
            *self.digrams.entry([prev, code]).or_insert(0) += 1;
            if let Some(prev2) = self.hist[0] {
                *self.trigrams.entry([prev2, prev, code]).or_insert(0) += 1;
            }
        }
        self.hist = [self.hist[1], Some(code)];
    }

    /// Records an op the straight-line loop cannot execute (cold or
    /// breaker): counted as a single, and the chain resets — such ops are
    /// never fusion constituents.
    pub(crate) fn note_break(&mut self, code: OpCode) {
        *self.singles.entry(code).or_insert(0) += 1;
        self.hist = [None, None];
    }

    /// Folds `other`'s counts into `self` (cross-workload aggregation).
    pub fn merge(&mut self, other: &OpProfiler) {
        for (k, v) in &other.singles {
            *self.singles.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.digrams {
            *self.digrams.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.trigrams {
            *self.trigrams.entry(*k).or_insert(0) += v;
        }
    }

    /// Total executed ops recorded.
    pub fn total(&self) -> u64 {
        self.singles.values().sum()
    }

    /// Entries by descending count, ties broken on the key, so the
    /// listing (and which entries make a top-n cut) does not depend on
    /// `HashMap` iteration order.
    fn ranked<K: Copy + Ord>(map: &HashMap<K, u64>) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = map.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_unstable_by_key(|&(k, c)| (std::cmp::Reverse(c), k));
        v
    }

    /// Renders the top-`n` singles, digrams, and trigrams as a ranked
    /// table (counts and share of all executed ops).
    pub fn report(&self, n: usize) -> String {
        let total = self.total().max(1) as f64;
        let mut out = String::new();
        let pct = |c: u64| 100.0 * c as f64 / total;
        let _ = writeln!(out, "  ops recorded: {}", self.total());
        let _ = writeln!(out, "  top singles:");
        for (k, c) in Self::ranked(&self.singles).into_iter().take(n) {
            let _ = writeln!(out, "    {:>12}  {:?} ({:.1}%)", c, k, pct(c));
        }
        let _ = writeln!(out, "  top contiguous digrams:");
        for (k, c) in Self::ranked(&self.digrams).into_iter().take(n) {
            let _ = writeln!(out, "    {:>12}  {:?}+{:?} ({:.1}%)", c, k[0], k[1], pct(c));
        }
        let _ = writeln!(out, "  top contiguous trigrams:");
        for (k, c) in Self::ranked(&self.trigrams).into_iter().take(n) {
            let _ =
                writeln!(out, "    {:>12}  {:?}+{:?}+{:?} ({:.1}%)", c, k[0], k[1], k[2], pct(c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguity_gates_digrams_and_trigrams() {
        let mut p = OpProfiler::new();
        p.note(OpCode::Load, false);
        p.note(OpCode::ConstI, true);
        p.note(OpCode::ICmp, true);
        // A taken branch: the next op is non-sequential.
        p.note(OpCode::Load, false);
        p.note(OpCode::IfNot, true);
        assert_eq!(p.total(), 5);
        assert_eq!(p.digrams[&[OpCode::Load, OpCode::ConstI]], 1);
        assert_eq!(p.digrams[&[OpCode::Load, OpCode::IfNot]], 1);
        assert_eq!(p.trigrams[&[OpCode::Load, OpCode::ConstI, OpCode::ICmp]], 1);
        assert!(!p.digrams.contains_key(&[OpCode::ICmp, OpCode::Load]));
    }

    #[test]
    fn breaks_reset_the_chain() {
        let mut p = OpProfiler::new();
        p.note(OpCode::Load, false);
        p.note_break(OpCode::InvokeNative);
        p.note(OpCode::Store, true);
        assert!(p.digrams.is_empty());
        let mut q = OpProfiler::new();
        q.note(OpCode::Load, false);
        q.note(OpCode::Store, true);
        p.merge(&q);
        assert_eq!(p.singles[&OpCode::Load], 2);
        assert_eq!(p.digrams[&[OpCode::Load, OpCode::Store]], 1);
    }

    #[test]
    fn report_orders_ties_by_key_not_insertion() {
        // Equal counts everywhere: only the tie rule decides the order
        // and the top-2 cut.
        let ops = [OpCode::Goto, OpCode::Shr, OpCode::Store, OpCode::Dup, OpCode::Load];
        let feed = |order: &[OpCode]| {
            let mut p = OpProfiler::new();
            for &k in order {
                p.singles.insert(k, 3);
                p.digrams.insert([k, OpCode::Nop], 3);
                p.trigrams.insert([k, k, OpCode::Nop], 3);
            }
            p
        };
        let mut reversed = ops;
        reversed.reverse();
        let report = feed(&ops).report(2);
        assert_eq!(report, feed(&reversed).report(2));
        // Discriminant order: Dup < Load < Store < Shr < Goto.
        assert!(report.contains("Dup") && report.contains("Load"));
        assert!(!report.contains("Store") && !report.contains("Goto"));
    }
}
