//! Route-case probabilities for regular messages (Eqs. 11–15 and 31),
//! plus their generalization to arbitrary dimension counts.
//!
//! A regular message picks a uniformly-random destination among the other
//! `N - 1 = k² - 1` nodes.  Under x-then-y dimension-order routing it falls
//! into exactly one of five cases, whose probabilities (averaged over
//! sources, exact `N-1` denominators) are:
//!
//! | case | destination constraint | probability |
//! |------|-------------------------|-------------|
//! | y-only, hot ring | `dx = 0`, source in hot column | `1/(k(k+1))` |
//! | y-only, non-hot ring | `dx = 0`, source elsewhere | `(k-1)/(k(k+1))` |
//! | x-only | `dy = 0` | `1/(k+1)` |
//! | x then hot y-ring | `dx ≠ 0`, `dy ≠ 0`, dest in hot column | `(k-1)/(k(k+1))` |
//! | x then non-hot y-ring | `dx ≠ 0`, `dy ≠ 0`, dest elsewhere | `(k-1)²/(k(k+1))` |
//!
//! The five probabilities sum to one; the x-entering cases sum to
//! `k/(k+1)`.  Each is verified against brute-force enumeration of all
//! `(src, dest)` pairs in the tests.

/// The five route-case probabilities for regular messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegularRouteProbs {
    /// P(message moves only in `y`, inside the hot y-ring).
    pub y_only_hot_ring: f64,
    /// P(message moves only in `y`, inside a non-hot y-ring).
    pub y_only_nonhot_ring: f64,
    /// P(message moves only in `x`).
    pub x_only: f64,
    /// P(message moves in `x` then down the hot y-ring).
    pub x_then_hot_ring: f64,
    /// P(message moves in `x` then down a non-hot y-ring).
    pub x_then_nonhot_ring: f64,
}

impl RegularRouteProbs {
    /// Probabilities for radix `k`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 2);
        let kf = k as f64;
        RegularRouteProbs {
            y_only_hot_ring: 1.0 / (kf * (kf + 1.0)),
            y_only_nonhot_ring: (kf - 1.0) / (kf * (kf + 1.0)),
            x_only: 1.0 / (kf + 1.0),
            x_then_hot_ring: (kf - 1.0) / (kf * (kf + 1.0)),
            x_then_nonhot_ring: (kf - 1.0) * (kf - 1.0) / (kf * (kf + 1.0)),
        }
    }

    /// Probability of entering the network through dimension `x`
    /// (the factor in Eq. 14): `k/(k+1)`.
    pub fn enters_via_x(&self) -> f64 {
        self.x_only + self.x_then_hot_ring + self.x_then_nonhot_ring
    }

    /// Sum of all five cases (must be 1).
    pub fn total(&self) -> f64 {
        self.y_only_hot_ring
            + self.y_only_nonhot_ring
            + self.x_only
            + self.x_then_hot_ring
            + self.x_then_nonhot_ring
    }
}

/// One entry family of the generalized route-case decomposition: the first
/// dimension a regular message moves in, and whether the ring it enters
/// through carries hot-spot traffic.
///
/// The n-dimensional analogues of Eqs. (11)–(15) partition regular
/// messages by their *entry channel family* — finer case splits (which
/// later dimensions are visited, hot or not) only change the expected
/// remaining service, which the solver folds in by linearity of the
/// affine service chains.  With a uniform destination among the other
/// `N - 1` nodes:
///
/// ```text
/// P(entry at dim d)           = (k-1) k^{n-1-d} / (N-1)
/// P(entry ring is hot | d)    = k^{-d}
/// ```
///
/// (entry at `d` pins the `d` lower destination coordinates to the
/// source's, leaves `k-1` choices in `d` and `k` in each higher dimension;
/// the entry ring is hot iff the source — and hence destination — matches
/// the hot node on every dimension below `d`, which no dimension-0 ring
/// can fail).  At `n = 2` the families aggregate the five cases of
/// [`RegularRouteProbs`]: `(0, hot)` is the three x-entering cases,
/// `(1, hot)`/`(1, nonhot)` are the y-only cases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntryCase {
    /// The first dimension the message moves in.
    pub dim: u32,
    /// Whether the entry ring carries hot-spot traffic (always true for
    /// dimension 0).
    pub hot: bool,
    /// Probability of the family over uniform `(src, dest)` pairs with
    /// `dest != src`.
    pub probability: f64,
}

/// The generalized entry-family probabilities for a k-ary n-cube; the
/// families partition the regular messages, so the probabilities sum to 1.
pub fn entry_cases(k: u32, n: u32) -> Vec<EntryCase> {
    assert!(k >= 2);
    assert!(n >= 1);
    let kf = k as f64;
    let nodes = (k as u64).pow(n) as f64;
    let mut cases = Vec::with_capacity(2 * n as usize);
    for d in 0..n {
        let p_entry = (kf - 1.0) * kf.powi((n - 1 - d) as i32) / (nodes - 1.0);
        let hot_share = kf.powi(-(d as i32));
        cases.push(EntryCase {
            dim: d,
            hot: true,
            probability: p_entry * hot_share,
        });
        if d > 0 {
            cases.push(EntryCase {
                dim: d,
                hot: false,
                probability: p_entry * (1.0 - hot_share),
            });
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use kncube_topology::KAryNCube;

    /// The paper's x and y dimensions.
    const X: u32 = 0;
    const Y: u32 = 1;

    #[test]
    fn probabilities_sum_to_one() {
        for k in 2..=32 {
            let p = RegularRouteProbs::new(k);
            assert!((p.total() - 1.0).abs() < 1e-12, "k={k}");
            let kf = k as f64;
            assert!((p.enters_via_x() - kf / (kf + 1.0)).abs() < 1e-12);
        }
    }

    /// Brute-force oracle: enumerate every (src, dest) pair with dest ≠ src
    /// and classify its dimension-order route relative to a hot column.
    fn enumerate(k: u32) -> RegularRouteProbs {
        let t = KAryNCube::unidirectional(k, 2).unwrap();
        let hot = t.node_at(&[1 % k, 2 % k]);
        let hot_x = t.coord(hot, X);
        let mut counts = [0u64; 5];
        let mut total = 0u64;
        for src in t.nodes() {
            for dest in t.nodes() {
                if src == dest {
                    continue;
                }
                total += 1;
                let moves_x = t.coord(src, X) != t.coord(dest, X);
                let moves_y = t.coord(src, Y) != t.coord(dest, Y);
                let idx = match (moves_x, moves_y) {
                    (false, true) => {
                        if t.coord(src, X) == hot_x {
                            0
                        } else {
                            1
                        }
                    }
                    (true, false) => 2,
                    (true, true) => {
                        if t.coord(dest, X) == hot_x {
                            3
                        } else {
                            4
                        }
                    }
                    (false, false) => unreachable!("src == dest filtered"),
                };
                counts[idx] += 1;
            }
        }
        let f = |i: usize| counts[i] as f64 / total as f64;
        RegularRouteProbs {
            y_only_hot_ring: f(0),
            y_only_nonhot_ring: f(1),
            x_only: f(2),
            x_then_hot_ring: f(3),
            x_then_nonhot_ring: f(4),
        }
    }

    #[test]
    fn closed_forms_match_bruteforce() {
        for k in [2u32, 3, 4, 5, 8] {
            let exact = enumerate(k);
            let model = RegularRouteProbs::new(k);
            for (a, b, name) in [
                (exact.y_only_hot_ring, model.y_only_hot_ring, "y-hot"),
                (exact.y_only_nonhot_ring, model.y_only_nonhot_ring, "y-non"),
                (exact.x_only, model.x_only, "x-only"),
                (exact.x_then_hot_ring, model.x_then_hot_ring, "x-hot"),
                (exact.x_then_nonhot_ring, model.x_then_nonhot_ring, "x-non"),
            ] {
                assert!(
                    (a - b).abs() < 1e-12,
                    "k={k} case {name}: enumerated {a} vs closed form {b}"
                );
            }
        }
    }

    #[test]
    fn entry_cases_aggregate_the_five_2d_cases() {
        for k in [2u32, 3, 4, 8, 16] {
            let five = RegularRouteProbs::new(k);
            let cases = entry_cases(k, 2);
            let find = |dim: u32, hot: bool| {
                cases
                    .iter()
                    .find(|c| c.dim == dim && c.hot == hot)
                    .map(|c| c.probability)
                    .unwrap_or(0.0)
            };
            assert!((find(0, true) - five.enters_via_x()).abs() < 1e-12, "k={k}");
            assert!((find(1, true) - five.y_only_hot_ring).abs() < 1e-12);
            assert!((find(1, false) - five.y_only_nonhot_ring).abs() < 1e-12);
            let total: f64 = cases.iter().map(|c| c.probability).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn entry_cases_match_bruteforce_in_3d() {
        // Enumerate (src, dest) pairs of a 3-D cube and classify by entry
        // dimension + hot-prefix, with the hot node pinned arbitrarily.
        for k in [2u32, 3, 4] {
            let t = KAryNCube::unidirectional(k, 3).unwrap();
            let hot = t.node_at(&[1 % k, 2 % k, 0]);
            let mut counts = std::collections::HashMap::new();
            let mut total = 0u64;
            for src in t.nodes() {
                for dest in t.nodes() {
                    if src == dest {
                        continue;
                    }
                    total += 1;
                    let entry = (0..3)
                        .find(|&d| t.coord(src, d) != t.coord(dest, d))
                        .unwrap();
                    let hot_ring = (0..entry).all(|d| t.coord(src, d) == t.coord(hot, d));
                    *counts.entry((entry, hot_ring)).or_insert(0u64) += 1;
                }
            }
            for case in entry_cases(k, 3) {
                let counted =
                    counts.get(&(case.dim, case.hot)).copied().unwrap_or(0) as f64 / total as f64;
                assert!(
                    (counted - case.probability).abs() < 1e-12,
                    "k={k} dim={} hot={}: enumerated {counted} vs closed {}",
                    case.dim,
                    case.hot,
                    case.probability
                );
            }
        }
    }

    #[test]
    fn route_case_probabilities_are_ordered_sensibly() {
        // For k >= 3 the dominant case is x-then-non-hot-y (two random
        // coordinates both differ, non-hot column); the rarest is
        // y-only within the single hot ring.
        let p = RegularRouteProbs::new(16);
        assert!(p.x_then_nonhot_ring > p.x_only);
        assert!(p.x_only > p.x_then_hot_ring);
        assert!(p.x_then_hot_ring > p.y_only_hot_ring);
        assert!((p.x_then_hot_ring - p.y_only_nonhot_ring).abs() < 1e-15);
    }
}
