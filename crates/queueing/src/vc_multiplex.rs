//! Dally's Markovian model of virtual-channel multiplexing (Eqs. 33–35).
//!
//! `V` virtual channels share one physical channel in a time-multiplexed
//! fashion.  Dally's model \[3\] tracks the number of busy virtual channels
//! as a birth–death chain driven by the channel's offered load `ρ = λ·S`:
//!
//! ```text
//! q_0 = 1
//! q_v = q_{v-1} · ρ            0 < v < V        (33)
//! q_V = q_{V-1} · ρ/(1-ρ)      v = V
//! P_v = q_v / Σ_{l=0}^{V} q_l                   (34)
//! V̄  = Σ_v v² P_v / Σ_v v P_v                  (35)
//! ```
//!
//! `V̄ >= 1` is the *average multiplexing degree*: when more than one
//! virtual channel is busy the physical channel's bandwidth is shared, so
//! every latency component is stretched by `V̄`.

/// Eq. (34): steady-state distribution of the number of busy virtual
/// channels for offered load `rho = λ·S` and `v_channels` virtual channels.
///
/// `rho` is clamped into `[0, 1)` — at and beyond saturation the chain has
/// all channels busy, which the clamp approaches continuously.
pub fn occupancy_distribution(rho: f64, v_channels: u32) -> Vec<f64> {
    assert!(v_channels >= 1, "need at least one virtual channel");
    let rho = rho.clamp(0.0, 1.0 - 1e-12);
    let mut q: Vec<f64> = occupancy_weights(rho, v_channels).collect();
    let total: f64 = q.iter().sum();
    for p in &mut q {
        *p /= total;
    }
    q
}

/// Eq. (35): the average degree of virtual-channel multiplexing `V̄` at a
/// physical channel with offered load `rho = λ·S` and `v_channels` virtual
/// channels.
///
/// Properties (tested below): `V̄ = 1` at zero load, `V̄ → V` at
/// saturation, and `V̄` is monotone non-decreasing in `rho`.
///
/// ```
/// use kncube_queueing::vc_multiplex::multiplexing_factor;
/// assert_eq!(multiplexing_factor(0.0, 2), 1.0);
/// // V = 2 at ρ = 0.5: hand-computable from Eqs. 33-35 → 5/3.
/// assert!((multiplexing_factor(0.5, 2) - 5.0 / 3.0).abs() < 1e-12);
/// ```
///
/// The `q_v` of Eq. (33) are generated on the fly rather than collected
/// by [`occupancy_distribution`], with the same operations in the same
/// order, so the result is bitwise equal to `V̄` computed from that
/// distribution without allocating.
pub fn multiplexing_factor(rho: f64, v_channels: u32) -> f64 {
    if rho <= 0.0 {
        return 1.0;
    }
    assert!(v_channels >= 1, "need at least one virtual channel");
    multiplexing_body([rho], v_channels)[0]
}

/// [`multiplexing_factor`] of every channel of a row: each offered load
/// in `loads` is replaced by its multiplexing degree, bit for bit.
///
/// The row runs in chunks of four lanes through one body whose Eq. (33)
/// recursion steps all four `[f64; 4]` lanes together, so the optimizer
/// packs its divisions into two-lane SSE2 `divpd` on the baseline x86-64
/// target; the remainder runs the same body one lane wide.  No fused
/// multiply-add and no target feature is used, so every host computes
/// the same bits.
///
/// # Panics
///
/// When `v_channels` is 0.
pub fn multiplexing_factors(loads: &mut [f64], v_channels: u32) {
    assert!(v_channels >= 1, "need at least one virtual channel");
    let mut chunks = loads.chunks_exact_mut(4);
    for chunk in &mut chunks {
        let rho: [f64; 4] = (&*chunk).try_into().expect("chunks of four");
        chunk.copy_from_slice(&multiplexing_body(rho, v_channels));
    }
    for rho in chunks.into_remainder() {
        *rho = multiplexing_body([*rho], v_channels)[0];
    }
}

/// The one body of Eqs. (33)–(35) over `L` lanes, branch-free: the
/// zero-load and zero-denominator guards select 1 after the sums.
#[inline(always)]
fn multiplexing_body<const L: usize>(load: [f64; L], v_channels: u32) -> [f64; L] {
    let rho = load.map(|r| r.clamp(0.0, 1.0 - 1e-12));
    let mut total = [0.0; L];
    let mut q = [1.0; L];
    for i in 0..=v_channels {
        q = occupancy_weight(q, rho, i, v_channels);
        for j in 0..L {
            total[j] += q[j];
        }
    }
    let mut num = [0.0; L];
    let mut den = [0.0; L];
    let mut q = [1.0; L];
    for i in 0..=v_channels {
        q = occupancy_weight(q, rho, i, v_channels);
        let (v2, v) = ((i * i) as f64, i as f64);
        for j in 0..L {
            let pv = q[j] / total[j];
            num[j] += v2 * pv;
            den[j] += v * pv;
        }
    }
    std::array::from_fn(|j| crate::select(load[j] <= 0.0 || den[j] == 0.0, 1.0, num[j] / den[j]))
}

/// Eq. (33): the weight `q_i` of every lane from `q_{i-1}` (`q_0 = 1`)
/// at a clamped load.
#[inline(always)]
fn occupancy_weight<const L: usize>(q: [f64; L], rho: [f64; L], i: u32, v: u32) -> [f64; L] {
    std::array::from_fn(|j| match i {
        0 => q[j],
        i if i < v => q[j] * rho[j],
        _ => q[j] * rho[j] / (1.0 - rho[j]),
    })
}

/// The unnormalised weights `q_0, …, q_V` of Eq. (33) for a clamped load.
fn occupancy_weights(rho: f64, v_channels: u32) -> impl Iterator<Item = f64> {
    let mut q = [1.0];
    (0..=v_channels).map(move |i| {
        q = occupancy_weight(q, [rho], i, v_channels);
        q[0]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_is_normalized() {
        for &rho in &[0.0, 0.1, 0.5, 0.9, 0.999, 1.5] {
            for v in 1..=6 {
                let p = occupancy_distribution(rho, v);
                assert_eq!(p.len(), v as usize + 1);
                let sum: f64 = p.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "rho={rho} v={v}: sum={sum}");
                assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
            }
        }
    }

    #[test]
    fn zero_load_means_no_multiplexing() {
        for v in 1..=6 {
            assert_eq!(multiplexing_factor(0.0, v), 1.0);
        }
        // Vanishing load approaches 1 continuously.
        assert!((multiplexing_factor(1e-9, 4) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn saturation_approaches_v() {
        for v in 2..=5 {
            let f = multiplexing_factor(1.0 - 1e-13, v);
            assert!(
                (f - v as f64).abs() < 1e-3,
                "V={v}: multiplexing at saturation {f}"
            );
        }
    }

    #[test]
    fn bounded_between_one_and_v() {
        for v in 1..=6 {
            for i in 0..100 {
                let rho = i as f64 / 100.0;
                let f = multiplexing_factor(rho, v);
                assert!(f >= 1.0 - 1e-12);
                assert!(f <= v as f64 + 1e-12);
            }
        }
    }

    #[test]
    fn monotone_in_load() {
        for v in 2..=4 {
            let mut prev = 0.0;
            for i in 0..=100 {
                let rho = i as f64 / 101.0;
                let f = multiplexing_factor(rho, v);
                assert!(f >= prev - 1e-12, "V={v} rho={rho}: {f} < {prev}");
                prev = f;
            }
        }
    }

    #[test]
    fn single_virtual_channel_never_multiplexes() {
        for i in 0..10 {
            let rho = i as f64 / 10.0;
            assert!((multiplexing_factor(rho, 1) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_hand_computed_v2() {
        // V = 2, rho = 0.5: q = [1, 0.5, 0.5], P = [0.5, 0.25, 0.25],
        // V̄ = (1·0.25 + 4·0.25)/(1·0.25 + 2·0.25) = 1.25/0.75 = 5/3.
        let f = multiplexing_factor(0.5, 2);
        assert!((f - 5.0 / 3.0).abs() < 1e-12, "got {f}");
    }
}
