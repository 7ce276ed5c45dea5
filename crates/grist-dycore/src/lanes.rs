//! Portable lane groups for the dycore's column kernels — the vector
//! counterpart of `grist_ml::gemm::simd`, generic over the working
//! precision [`Real`].
//!
//! **Lane-grouping rule.** Lanes always span *independent output elements*
//! (adjacent levels of one column), never a reduction. Every lane evaluates
//! the exact expression the scalar loop evaluates, operation by operation,
//! so the lane path is **bitwise identical** to the scalar-reference path —
//! the CI kernel matrix asserts exact equality, not tolerances.
//!
//! Two kernel shapes use the lanes:
//!
//! * **pointwise** kernels (`compute_rrr`, `fct_transport`, ...) load one
//!   [`LaneVec`] per input column, with a scalar tail past
//!   [`lane_body`];
//! * **gather** kernels (the FCT `fct_loworder` / `fct_limiter` /
//!   `fct_apply` cell reductions, `vert_velocity`) reduce over a cell's
//!   edges or neighbours. They run edge-outer: [`for_lane_groups!`] splits
//!   the column into level groups, and each group walks the edge list once,
//!   loading a contiguous slice of every neighbour column. Each level keeps
//!   its own accumulator, which visits the edges in the scalar loop's order
//!   with its expression tree, so the reduction order per level is
//!   unchanged. The tail past the last full group runs as narrower groups
//!   (width 4, 2, 1), still edge-outer.
//!
//! [`LaneGroup`] is a plain `[R; W]` whose elementwise methods compile to
//! vector instructions (the fixed width gives the backend a statically
//! shaped loop; see `.cargo/config.toml` for the x86-64-v3 codegen floor).
//! Branches become [`LaneGroup::select_if`], a per-lane conditional move —
//! the same decision the scalar code takes, made independently per lane.

use crate::field::Field2;
use crate::real::Real;

/// Number of elements processed per full lane group (256-bit f32 / two
/// 256-bit f64 vectors on v3 targets).
pub const LANE_WIDTH: usize = 8;

// `for_lane_groups!` covers the tail with one group each of width 4, 2
// and 1, which spans every remainder only for a width of 8.
const _: () = assert!(LANE_WIDTH == 8);

/// `W` lanes of the working precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneGroup<R: Real, const W: usize>(pub [R; W]);

/// One full-width lane group.
pub type LaneVec<R> = LaneGroup<R, LANE_WIDTH>;

impl<R: Real, const W: usize> LaneGroup<R, W> {
    #[inline]
    pub fn splat(v: R) -> Self {
        LaneGroup([v; W])
    }

    /// Load from the first `W` elements of `src`.
    #[inline]
    pub fn load(src: &[R]) -> Self {
        LaneGroup(src[..W].try_into().expect("slice of length W"))
    }

    /// Load levels `k..k + W` of column `col` of `f`.
    #[inline]
    pub fn load_col(f: &Field2<R>, col: usize, k: usize) -> Self {
        Self::load(&f.col(col)[k..])
    }

    /// Store into the first `W` elements of `dst`.
    #[inline]
    pub fn store(self, dst: &mut [R]) {
        dst[..W].copy_from_slice(&self.0);
    }

    /// Per-lane `if pred(cond[l]) { a[l] } else { b[l] }` — the vector form
    /// of a scalar branch (compiles to a compare + blend).
    #[inline]
    pub fn select_if(cond: Self, pred: impl Fn(R) -> bool, a: Self, b: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| {
            if pred(cond.0[l]) {
                a.0[l]
            } else {
                b.0[l]
            }
        }))
    }

    /// Per-lane `if cond[l] ≥ 0 { a[l] } else { b[l] }` — the upwind
    /// branch.
    #[inline]
    pub fn select_ge_zero(cond: Self, a: Self, b: Self) -> Self {
        Self::select_if(cond, |x| x >= R::ZERO, a, b)
    }

    /// Per-lane [`Real::max`].
    #[inline]
    pub fn max(self, o: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| self.0[l].max(o.0[l])))
    }

    /// Per-lane [`Real::min`].
    #[inline]
    pub fn min(self, o: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| self.0[l].min(o.0[l])))
    }

    /// Per-lane [`Real::mul_add`] (`self · a + b`, one rounding) — only for
    /// kernels whose scalar path already calls `mul_add`.
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| self.0[l].mul_add(a.0[l], b.0[l])))
    }
}

// The elementwise arithmetic lives on the std::ops traits (the kernels
// import them and call method form — `a.add(b)` chains better than operator
// syntax there), each op the exact per-lane counterpart of one scalar
// operation.
impl<R: Real, const W: usize> std::ops::Add for LaneGroup<R, W> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| self.0[l] + o.0[l]))
    }
}

impl<R: Real, const W: usize> std::ops::Sub for LaneGroup<R, W> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| self.0[l] - o.0[l]))
    }
}

impl<R: Real, const W: usize> std::ops::Mul for LaneGroup<R, W> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| self.0[l] * o.0[l]))
    }
}

impl<R: Real, const W: usize> std::ops::Div for LaneGroup<R, W> {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        LaneGroup(std::array::from_fn(|l| self.0[l] / o.0[l]))
    }
}

impl<R: Real, const W: usize> std::ops::Neg for LaneGroup<R, W> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        LaneGroup(std::array::from_fn(|l| -self.0[l]))
    }
}

/// Largest multiple of [`LANE_WIDTH`] not exceeding `n` — the boundary
/// between the lane-group body and the scalar tail of a pointwise kernel.
#[inline]
pub fn lane_body(n: usize) -> usize {
    n - n % LANE_WIDTH
}

/// Run `$body` once per lane group of the levels `0..$n`, with `$k` bound
/// to the group's first level and `$w` to its width as a `const usize`
/// (usable as `LaneGroup<R, $w>`): full [`LANE_WIDTH`] groups first, then
/// at most one group each of width 4, 2 and 1 for the tail. Every group
/// is statically shaped, so the tail vectorizes too.
///
/// ```
/// use grist_dycore::lanes::{for_lane_groups, LaneGroup};
/// let src: Vec<f32> = (0..21).map(|i| i as f32).collect();
/// let mut dst = vec![0.0f32; 21];
/// for_lane_groups!(src.len(), |k, W| {
///     let v = LaneGroup::<f32, W>::load(&src[k..]);
///     v.add(v).store(&mut dst[k..]);
/// });
/// # use std::ops::Add;
/// assert!(dst.iter().zip(&src).all(|(d, s)| *d == s + s));
/// ```
#[macro_export]
macro_rules! for_lane_groups {
    ($n:expr, |$k:ident, $w:ident| $body:block) => {{
        let n: usize = $n;
        let mut $k: usize = 0;
        {
            const $w: usize = $crate::lanes::LANE_WIDTH;
            while $k + $w <= n {
                $body
                $k += $w;
            }
        }
        {
            const $w: usize = 4;
            if $k + $w <= n {
                $body
                $k += $w;
            }
        }
        {
            const $w: usize = 2;
            if $k + $w <= n {
                $body
                $k += $w;
            }
        }
        {
            const $w: usize = 1;
            if $k + $w <= n {
                $body
                $k += $w;
            }
        }
        debug_assert_eq!($k, n);
    }};
}
pub use crate::for_lane_groups;

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    #[test]
    fn lane_ops_match_scalar_bitwise() {
        let a: Vec<f32> = (0..LANE_WIDTH).map(|i| 1.0 + i as f32 * 0.3).collect();
        let b: Vec<f32> = (0..LANE_WIDTH).map(|i| 0.7 - i as f32 * 0.11).collect();
        let (va, vb) = (LaneVec::load(&a), LaneVec::load(&b));
        let mut out = vec![0.0f32; LANE_WIDTH];
        va.add(vb).mul(va).div(vb).sub(va.neg()).store(&mut out);
        for l in 0..LANE_WIDTH {
            assert_eq!(out[l], (a[l] + b[l]) * a[l] / b[l] - (-a[l]));
        }
        va.max(vb).mul_add(va, vb.min(va)).store(&mut out);
        for l in 0..LANE_WIDTH {
            assert_eq!(out[l], a[l].max(b[l]).mul_add(a[l], b[l].min(a[l])));
        }
    }

    #[test]
    fn select_follows_the_sign_per_lane() {
        let c: Vec<f64> = (0..LANE_WIDTH).map(|i| i as f64 - 3.5).collect();
        let sel =
            LaneVec::select_ge_zero(LaneVec::load(&c), LaneVec::splat(1.0), LaneVec::splat(-1.0));
        for l in 0..LANE_WIDTH {
            assert_eq!(sel.0[l], if c[l] >= 0.0 { 1.0 } else { -1.0 });
        }
        // NaN fails every comparison, so it takes the else arm, as the
        // scalar branch does.
        let nan = LaneGroup::<f64, 2>([f64::NAN, -1.0]);
        let (one, two) = (LaneGroup::splat(1.0), LaneGroup::splat(2.0));
        assert_eq!(
            LaneGroup::select_if(nan, |x| x < 0.0, one, two).0,
            [2.0, 1.0]
        );
        assert_eq!(LaneGroup::select_ge_zero(nan, one, two).0, [2.0, 2.0]);
    }

    #[test]
    fn lane_body_splits_at_the_width() {
        assert_eq!(lane_body(0), 0);
        assert_eq!(lane_body(7), 0);
        assert_eq!(lane_body(8), 8);
        assert_eq!(lane_body(30), 24);
    }

    #[test]
    fn lane_groups_tile_every_column_height() {
        for n in 0..40 {
            let mut groups = Vec::new();
            for_lane_groups!(n, |k, W| {
                groups.push((k, W));
            });
            let mut next = 0;
            for &(k, w) in &groups {
                assert_eq!(k, next, "n = {n}: groups {groups:?}");
                next += w;
            }
            assert_eq!(next, n, "n = {n}: groups {groups:?}");
            assert_eq!(
                groups.iter().filter(|g| g.1 < LANE_WIDTH).count(),
                (n % LANE_WIDTH).count_ones() as usize,
                "n = {n}: one narrow group per set bit of the remainder"
            );
        }
    }
}
