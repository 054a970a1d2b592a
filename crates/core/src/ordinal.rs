//! Countable ordinals below ω^ω, used for global-tree levels.
//!
//! Definition 3.3 attaches an ordinal *level* to successful and failed
//! nodes, and Example 3.1 shows levels like `ω + 2` arising for programs
//! with function symbols. Every level produced by a finite (depth-bounded)
//! ground program is finite; the ω-coefficients appear in the symbolic
//! analysis of parameterised program families (experiment E1 computes
//! `level(← w(0)) = ω + 2` exactly this way).
//!
//! An [`Ordinal`] is a polynomial `cₖ·ω^k + … + c₁·ω + c₀` stored as
//! little-endian coefficients. Comparison is lexicographic from the
//! highest power, which matches ordinal order on this fragment.

use std::cmp::Ordering;
use std::fmt;

/// An ordinal below ω^ω in Cantor normal form with finite coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Ordinal {
    /// `coeffs[k]` is the coefficient of ω^k; no trailing zeros.
    coeffs: Vec<u64>,
}

impl Ordinal {
    /// The ordinal 0.
    pub fn zero() -> Self {
        Ordinal { coeffs: Vec::new() }
    }

    /// The finite ordinal `n`.
    pub fn finite(n: u64) -> Self {
        if n == 0 {
            Self::zero()
        } else {
            Ordinal { coeffs: vec![n] }
        }
    }

    /// The ordinal ω.
    pub fn omega() -> Self {
        Ordinal { coeffs: vec![0, 1] }
    }

    /// Builds `coeffs[k]·ω^k + …` from little-endian coefficients.
    pub fn from_coeffs(mut coeffs: Vec<u64>) -> Self {
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Ordinal { coeffs }
    }

    /// Whether this is 0.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Whether this is a finite ordinal (< ω).
    pub fn is_finite(&self) -> bool {
        self.coeffs.len() <= 1
    }

    /// Whether this is a successor ordinal (finite part > 0). Levels of
    /// well-determined goals are always successors (Sec. 4).
    pub fn is_successor(&self) -> bool {
        self.coeffs.first().is_some_and(|&c| c > 0)
    }

    /// Whether this is a limit ordinal (nonzero with zero finite part).
    pub fn is_limit(&self) -> bool {
        !self.is_zero() && !self.is_successor()
    }

    /// The successor `self + 1`.
    pub fn succ(&self) -> Ordinal {
        let mut coeffs = self.coeffs.clone();
        if coeffs.is_empty() {
            coeffs.push(0);
        }
        coeffs[0] += 1;
        Ordinal { coeffs }
    }

    /// Ordinal sum `self + rhs` (not commutative: `1 + ω = ω`).
    pub fn add(&self, rhs: &Ordinal) -> Ordinal {
        if rhs.is_zero() {
            return self.clone();
        }
        let k = rhs.coeffs.len() - 1; // highest power of rhs
                                      // self + rhs: powers of self below ω^k are absorbed; the ω^k
                                      // coefficients add; higher powers of self survive.
        let mut coeffs = rhs.coeffs.clone();
        if self.coeffs.len() > k {
            coeffs[k] += self.coeffs[k];
            coeffs.extend_from_slice(&self.coeffs[k + 1..]);
        }
        Ordinal::from_coeffs(coeffs)
    }

    /// The least upper bound of `self` and `other` (their maximum: every
    /// pair of ordinals is comparable).
    pub fn max(&self, other: &Ordinal) -> Ordinal {
        if self >= other {
            self.clone()
        } else {
            other.clone()
        }
    }

    /// Least upper bound of a finite set of ordinals (0 if empty).
    pub fn lub<'a>(items: impl IntoIterator<Item = &'a Ordinal>) -> Ordinal {
        items
            .into_iter()
            .fold(Ordinal::zero(), |acc, o| Ordinal::max(&acc, o))
    }

    /// The least *limit* ordinal ≥ every element of a strictly increasing
    /// unbounded ω-sequence whose elements are the finite ordinals
    /// `f(0) < f(1) < …`: that is, ω. Exposed for symbolic family-level
    /// computations (E1): `lub{2n : n < ω} = ω`.
    pub fn omega_limit() -> Ordinal {
        Ordinal::omega()
    }
}

impl PartialOrd for Ordinal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ordinal {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.coeffs.len() != other.coeffs.len() {
            return self.coeffs.len().cmp(&other.coeffs.len());
        }
        for (a, b) in self.coeffs.iter().rev().zip(other.coeffs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Display for Ordinal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match (k, c) {
                (0, c) => write!(f, "{c}")?,
                (1, 1) => write!(f, "ω")?,
                (1, c) => write!(f, "ω·{c}")?,
                (k, 1) => write!(f, "ω^{k}")?,
                (k, c) => write!(f, "ω^{k}·{c}")?,
            }
        }
        Ok(())
    }
}

impl From<u64> for Ordinal {
    fn from(n: u64) -> Self {
        Ordinal::finite(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_ordering() {
        assert!(Ordinal::finite(2) < Ordinal::finite(3));
        assert_eq!(Ordinal::finite(0), Ordinal::zero());
        assert!(Ordinal::zero() < Ordinal::finite(1));
    }

    #[test]
    fn omega_above_all_finite() {
        let w = Ordinal::omega();
        for n in [0u64, 1, 5, 1_000_000] {
            assert!(Ordinal::finite(n) < w);
        }
        assert!(w < w.succ());
    }

    #[test]
    fn successor_and_limit_classification() {
        assert!(!Ordinal::zero().is_successor());
        assert!(!Ordinal::zero().is_limit());
        assert!(Ordinal::finite(3).is_successor());
        assert!(Ordinal::omega().is_limit());
        assert!(Ordinal::omega().succ().is_successor());
    }

    #[test]
    fn addition_absorbs_lower_terms() {
        // 1 + ω = ω
        let one = Ordinal::finite(1);
        let w = Ordinal::omega();
        assert_eq!(one.add(&w), w);
        // ω + 1 > ω
        assert_eq!(w.add(&one), w.succ());
        // ω + ω = ω·2
        assert_eq!(w.add(&w), Ordinal::from_coeffs(vec![0, 2]));
        // (ω+3) + (ω+1) = ω·2 + 1
        let a = Ordinal::from_coeffs(vec![3, 1]);
        let b = Ordinal::from_coeffs(vec![1, 1]);
        assert_eq!(a.add(&b), Ordinal::from_coeffs(vec![1, 2]));
    }

    #[test]
    fn add_zero_identity() {
        let a = Ordinal::from_coeffs(vec![2, 1]);
        assert_eq!(a.add(&Ordinal::zero()), a);
        assert_eq!(Ordinal::zero().add(&a), a);
    }

    #[test]
    fn lub_is_max() {
        let items = [Ordinal::finite(4), Ordinal::omega(), Ordinal::finite(100)];
        assert_eq!(Ordinal::lub(items.iter()), Ordinal::omega());
        assert_eq!(Ordinal::lub([].iter()), Ordinal::zero());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ordinal::zero().to_string(), "0");
        assert_eq!(Ordinal::finite(7).to_string(), "7");
        assert_eq!(Ordinal::omega().to_string(), "ω");
        assert_eq!(Ordinal::omega().succ().succ().to_string(), "ω + 2");
        assert_eq!(
            Ordinal::from_coeffs(vec![5, 3, 2]).to_string(),
            "ω^2·2 + ω·3 + 5"
        );
    }

    #[test]
    fn ordering_mixed_powers() {
        let a = Ordinal::from_coeffs(vec![100, 1]); // ω + 100
        let b = Ordinal::from_coeffs(vec![0, 2]); // ω·2
        assert!(a < b);
        let c = Ordinal::from_coeffs(vec![0, 0, 1]); // ω²
        assert!(b < c);
    }

    #[test]
    fn trailing_zero_normalisation() {
        assert_eq!(Ordinal::from_coeffs(vec![3, 0, 0]), Ordinal::finite(3));
        assert_eq!(Ordinal::from_coeffs(vec![0, 0]), Ordinal::zero());
    }

    #[test]
    fn van_gelder_level_arithmetic() {
        // Example 3.1: levels 2n for each finite n, lub = ω, then two
        // successor steps: fail(u(0)) = ω+1, succ(w(0)) = ω+2.
        let lub = Ordinal::omega_limit();
        let fail_u0 = lub.succ();
        let succ_w0 = fail_u0.succ();
        assert_eq!(succ_w0.to_string(), "ω + 2");
    }
}
