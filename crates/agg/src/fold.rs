//! Mapped folds: the state-column update loops of §3.3.
//!
//! The key pass leaves a mapping vector (row → slot); each state column is
//! then folded in its own tight loop. [`fold_column`] is that loop.

use crate::StateOp;

/// Fold `vals` into `col` through `mapping` with `op`. `aggregated`
/// selects apply vs merge semantics exactly like [`StateOp::combine`]:
/// raw rows are applied, partial aggregates merged.
#[inline]
pub fn fold_column(op: StateOp, aggregated: bool, col: &mut [u64], mapping: &[u32], vals: &[u64]) {
    debug_assert!(vals.len() >= mapping.len(), "fewer values than mapped rows");
    for (&slot, &v) in mapping.iter().zip(vals) {
        let s = &mut col[slot as usize];
        *s = op.combine(*s, v, aggregated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_column_extreme_values() {
        // Wrapping sum.
        let mut col = vec![u64::MAX];
        fold_column(StateOp::Sum, false, &mut col, &[0, 0], &[1, 1]);
        assert_eq!(col[0], 1);
        // Unsigned min/max across the sign boundary.
        let mut col = vec![1u64 << 63];
        fold_column(StateOp::Min, false, &mut col, &[0], &[u64::MAX]);
        assert_eq!(col[0], 1 << 63);
        let mut col = vec![1u64 << 63];
        fold_column(StateOp::Max, false, &mut col, &[0], &[u64::MAX]);
        assert_eq!(col[0], u64::MAX);
        // Count apply ignores the value; merge adds it.
        let mut col = vec![10u64, 20];
        fold_column(StateOp::Count, false, &mut col, &[1, 1], &[999, 999]);
        assert_eq!(col, [10, 22]);
        let mut col = vec![10u64];
        fold_column(StateOp::Count, true, &mut col, &[0], &[32]);
        assert_eq!(col[0], 42);
    }
}
