//! Cross-validation of the k-ary n-cube model against references the
//! workspace trusts independently:
//!
//! * at `n = 2` — the paper's torus — it must reproduce reference values
//!   recorded from the 2-D solver when that API was folded into
//!   [`kncube::model::NCubeModel`], to `1e-12` relative, and its zero-load
//!   latency must equal the paper's five-route-case closed form
//!   (Eqs. 11–15, held here by `RegularRouteProbs` and checked against
//!   brute-force route enumeration);
//! * at `k = 2` it must reproduce the closed-form binary-hypercube model
//!   ([`kncube::model::HypercubeModel`], the paper's reference \[12\]
//!   rebuilt) within `1e-9` relative — the two are derived separately
//!   (fixed-point recursion over per-dimension chains vs. closed-form
//!   per-level composition), so agreement is a genuine consistency check,
//!   not a tautology.

use kncube::model::{
    find_saturation_ncube, HypercubeModel, ModelVariant, MultiplexingModel, NCubeConfig,
    NCubeModel, NCubeOutput, ServiceTimeModel,
};
use kncube::topology::KAryNCube;

/// `[latency, regular latency, hot latency, regular source wait]`.
type Recorded = [f64; 4];

/// The paper's six subfigures on the 16×16 torus with `V = 2`:
/// `(Lm, h, λ*, recorded outputs at {0.25, 0.5, 0.75, 0.95}·λ*)`, with
/// `λ*` from `find_saturation_ncube(cfg, 1e-9, 1e-1, 1e-3)`.
#[rustfmt::skip]
const PAPER_SUBFIGURES: [(u32, f64, f64, [Recorded; 4]); 6] = [
    (32, 0.2, 0.0005605707575778961, [
        [52.04684649320427, 50.82316343745165, 56.94157871621472, 0.09288731191698929],
        [62.87441685199728, 56.023102209235574, 90.27967542304411, 0.2544507431481022],
        [91.97419794104337, 65.1285456191957, 199.35680722843398, 0.8392255715356509],
        [225.02138236694418, 95.28987675678088, 743.9474048075973, 7.200157204695163],
    ]),
    (32, 0.4, 0.0003012667135400772, [
        [51.46249715158951, 49.11971843565283, 54.97666522549453, 0.05211689381172162],
        [64.83003598487198, 52.13716496466917, 83.86934251517619, 0.16765740467000365],
        [106.70233807913104, 58.201953806371364, 179.45291448827055, 0.7633233196745213],
        [318.4567408308039, 86.13554308056935, 666.9385374561557, 9.817868923129335],
    ]),
    (32, 0.7, 0.00017781357451581955, [
        [52.345652968831, 48.34753409801357, 54.059132484895606, 0.0333761416308616],
        [71.79574240024667, 50.48614993168544, 80.92842488677292, 0.13628149105070025],
        [135.92637542518426, 55.552243318475334, 170.37243204234525, 0.8636314721045038],
        [468.29314301765123, 85.93953253608093, 632.1589760811814, 14.343008719206741],
    ]),
    (100, 0.2, 0.00018315415063428878, [
        [128.24442498795776, 124.5157748178636, 143.1590256683343, 0.16923673712289844],
        [159.33959404904252, 138.41150629624502, 243.05194506023247, 0.4904488286264068],
        [246.1123591621515, 164.05222367579967, 574.3529011075588, 1.8587918484903458],
        [649.2129929021926, 252.6104509872465, 2235.6231605619764, 19.396177388229216],
    ]),
    (100, 0.4, 9.837250475358962e-5, [
        [127.36334126098168, 120.23772519574838, 138.0517653588316, 0.09523142080189072],
        [167.01924090123381, 128.32084389968924, 225.06683640355067, 0.33445635853506567],
        [293.34168219658187, 145.47694261112545, 515.1387915747665, 1.812997395174377],
        [931.078093445117, 227.1134998136781, 1987.0249838922753, 27.275257706913717],
    ]),
    (100, 0.7, 5.8103607146024695e-5, [
        [130.51019809286183, 118.33359328427572, 135.7287430108273, 0.0612888442399733],
        [189.26797834518428, 124.17406148084093, 217.1653712870457, 0.286586267524653],
        [384.5266193348662, 138.7513721503438, 489.8588681282329, 2.202772353158656],
        [1400.4567154940385, 229.54902650295773, 1902.274296490216, 41.80874453366792],
    ]),
];

/// Every variant × service × multiplexing combination at
/// `(k, V, Lm, λ, h) = (8, 2, 32, 2e-4, 0.4)`.
const MODEL_VARIANTS: [(ModelVariant, ServiceTimeModel, MultiplexingModel, Recorded); 8] = [
    (
        ModelVariant::XRingService,
        ServiceTimeModel::PipelinedTransfer,
        MultiplexingModel::DallyMarkov,
        [
            41.742098191911275,
            41.09054385565433,
            42.71942969629669,
            0.0819389430822354,
        ],
    ),
    (
        ModelVariant::XRingService,
        ServiceTimeModel::PipelinedTransfer,
        MultiplexingModel::ClassAware,
        [
            40.76791755994917,
            40.23121163035486,
            41.57297645434062,
            0.0819389430822354,
        ],
    ),
    (
        ModelVariant::XRingService,
        ServiceTimeModel::PathOccupancy,
        MultiplexingModel::DallyMarkov,
        [
            42.12527884781143,
            41.3646538151895,
            43.266216396744326,
            0.08250614771324223,
        ],
    ),
    (
        ModelVariant::XRingService,
        ServiceTimeModel::PathOccupancy,
        MultiplexingModel::ClassAware,
        [
            41.02763347942309,
            40.39637365589777,
            41.97452321471106,
            0.08250614771324223,
        ],
    ),
    (
        ModelVariant::HotRingServiceEq25,
        ServiceTimeModel::PipelinedTransfer,
        MultiplexingModel::DallyMarkov,
        [
            41.742098191911275,
            41.09054385565433,
            42.71942969629669,
            0.0819389430822354,
        ],
    ),
    (
        ModelVariant::HotRingServiceEq25,
        ServiceTimeModel::PipelinedTransfer,
        MultiplexingModel::ClassAware,
        [
            40.76791755994917,
            40.23121163035486,
            41.57297645434062,
            0.0819389430822354,
        ],
    ),
    (
        ModelVariant::HotRingServiceEq25,
        ServiceTimeModel::PathOccupancy,
        MultiplexingModel::DallyMarkov,
        [
            42.12616793331607,
            41.36468328765883,
            43.26839490180193,
            0.08251008437331114,
        ],
    ),
    (
        ModelVariant::HotRingServiceEq25,
        ServiceTimeModel::PathOccupancy,
        MultiplexingModel::ClassAware,
        [
            41.02849103950396,
            40.39639206664537,
            41.97663949879185,
            0.08251008437331114,
        ],
    ),
];

fn assert_recorded(ctx: &str, out: &NCubeOutput, expected: &Recorded) {
    let got = [
        out.latency,
        out.regular_latency,
        out.hot_latency,
        out.source_wait_regular,
    ];
    for (name, (g, e)) in ["latency", "regular", "hot", "source wait"]
        .iter()
        .zip(got.iter().zip(expected))
    {
        assert!(
            (g - e).abs() <= 1e-12 * e.abs(),
            "{ctx}: {name} {g:?} vs recorded {e:?}"
        );
    }
}

#[test]
fn n2_matches_the_recorded_paper_subfigures() {
    for (lm, h, sat, rows) in PAPER_SUBFIGURES {
        let base = NCubeConfig::new(16, 2, 2, lm, 0.0, h);
        let got = find_saturation_ncube(base, 1e-9, 1e-1, 1e-3).unwrap();
        assert!(
            (got - sat).abs() <= 1e-12 * sat,
            "Lm={lm} h={h}: λ* {got:?} vs recorded {sat:?}"
        );
        for (frac, expected) in [0.25, 0.5, 0.75, 0.95].into_iter().zip(&rows) {
            let out = NCubeModel::new(NCubeConfig {
                lambda: frac * sat,
                ..base
            })
            .unwrap()
            .solve()
            .unwrap();
            assert_recorded(&format!("Lm={lm} h={h} {frac}λ*"), &out, expected);
        }
    }
}

#[test]
fn n2_matches_the_recorded_model_variants() {
    let base = NCubeConfig::new(8, 2, 2, 32, 2e-4, 0.4);
    for (variant, service_model, multiplexing, expected) in MODEL_VARIANTS {
        let cfg = NCubeConfig {
            variant,
            service_model,
            multiplexing,
            ..base
        };
        let out = NCubeModel::new(cfg).unwrap().solve().unwrap();
        assert_recorded(
            &format!("{variant:?}/{service_model:?}/{multiplexing:?}"),
            &out,
            &expected,
        );
    }
}

/// The paper's x and y dimensions.
const X: u32 = 0;
const Y: u32 = 1;

/// The five route-case probabilities of Eqs. (11)–(15) for regular
/// messages on the `k × k` torus (see `kncube::model::probabilities`).
struct RegularRouteProbs {
    /// P(message moves only in `y`, inside the hot y-ring).
    y_only_hot_ring: f64,
    /// P(message moves only in `y`, inside a non-hot y-ring).
    y_only_nonhot_ring: f64,
    /// P(message moves only in `x`).
    x_only: f64,
    /// P(message moves in `x` then down the hot y-ring).
    x_then_hot_ring: f64,
    /// P(message moves in `x` then down a non-hot y-ring).
    x_then_nonhot_ring: f64,
}

impl RegularRouteProbs {
    fn new(k: u32) -> Self {
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
    fn enters_via_x(&self) -> f64 {
        self.x_only + self.x_then_hot_ring + self.x_then_nonhot_ring
    }

    /// Sum of all five cases (must be 1).
    fn total(&self) -> f64 {
        self.y_only_hot_ring + self.y_only_nonhot_ring + self.enters_via_x()
    }
}

/// Brute-force oracle: enumerate every (src, dest) pair with dest ≠ src
/// and classify its dimension-order route relative to a hot column.
fn enumerate_route_cases(k: u32) -> RegularRouteProbs {
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
fn five_route_case_closed_forms_match_bruteforce() {
    for k in [2u32, 3, 4, 5, 8] {
        let exact = enumerate_route_cases(k);
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
fn five_route_cases_sum_to_one() {
    for k in 2..=64 {
        let p = RegularRouteProbs::new(k);
        assert!((p.total() - 1.0).abs() < 1e-12, "k={k}");
        let kf = k as f64;
        assert!((p.enters_via_x() - kf / (kf + 1.0)).abs() < 1e-12);
        assert!(p.y_only_hot_ring > 0.0);
        assert!(p.x_then_nonhot_ring >= 0.0);
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

/// The paper's zero-load latency on the `k × k` torus, composed from the
/// five regular route cases of Eqs. (11)–(15) and the `N - 1` hot-spot
/// source positions of Eqs. (21)–(24): every path costs its hop count plus
/// `Lm`, with no blocking, queueing or multiplexing.
fn five_case_zero_load_latency(k: u32, lm: u32, h: f64) -> f64 {
    let kf = k as f64;
    let lm = lm as f64;
    let p = RegularRouteProbs::new(k);
    // Mean over j = 1..k-1 of (j + Lm) is (k/2 + Lm).
    let one_dim = kf / 2.0 + lm;
    let two_dim = kf + lm; // j-average + second-dimension entrance average
    let s_r = (p.y_only_hot_ring + p.y_only_nonhot_ring + p.x_only) * one_dim
        + (p.x_then_hot_ring + p.x_then_nonhot_ring) * two_dim;
    // Hot messages: source (j) in the hot ring costs j + Lm; source
    // (j, t) costs j + t + Lm for t < k and j + Lm for t = k.
    let mut s_h = 0.0;
    for j in 1..k {
        s_h += j as f64 + lm;
        for t in 1..=k {
            let tail = if t == k { 0.0 } else { t as f64 };
            s_h += j as f64 + tail + lm;
        }
    }
    s_h /= kf * kf - 1.0;
    (1.0 - h) * s_r + h * s_h
}

#[test]
fn n2_zero_load_matches_the_five_route_case_closed_form() {
    for (k, lm, h) in [
        (8u32, 32u32, 0.2f64),
        (16, 100, 0.7),
        (5, 16, 0.45),
        (16, 32, 0.4),
        (4, 16, 0.0),
    ] {
        let model = NCubeModel::new(NCubeConfig::new(k, 2, 2, lm, 1e-6, h)).unwrap();
        let general = model.zero_load_latency();
        let five_case = five_case_zero_load_latency(k, lm, h);
        assert!(
            (general - five_case).abs() < 1e-9,
            "k={k} lm={lm} h={h}: five-case {five_case} vs generalized {general}"
        );
    }
}

#[test]
fn k2_reproduces_the_hypercube_model_within_1e9() {
    // λ grid per dimension count: fractions of the hypercube's flit bound
    // low enough that the source-queue term (the earliest-saturating
    // resource in both derivations) still admits a solution.
    for n in [3u32, 4, 5, 6, 8] {
        for h in [0.0f64, 0.2, 0.5] {
            let bound = HypercubeModel::new(n, 2, 16, 0.0, h)
                .unwrap()
                .saturation_bound();
            for frac in [0.05, 0.15, 0.3, 0.45] {
                let lambda = frac * bound;
                let hyper = HypercubeModel::new(n, 2, 16, lambda, h)
                    .unwrap()
                    .solve()
                    .unwrap_or_else(|e| panic!("hypercube n={n} h={h} frac={frac}: {e}"));
                let cube = NCubeModel::new(NCubeConfig::new(2, n, 2, 16, lambda, h))
                    .unwrap()
                    .solve()
                    .unwrap_or_else(|e| panic!("n-cube n={n} h={h} frac={frac}: {e}"));
                for (name, a, b) in [
                    ("latency", hyper.latency, cube.latency),
                    ("regular", hyper.regular_latency, cube.regular_latency),
                    ("hot", hyper.hot_latency, cube.hot_latency),
                ] {
                    assert!(
                        (a - b).abs() / b.abs().max(1e-300) < 1e-9,
                        "n={n} h={h} frac={frac}: {name} {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn k2_solvability_boundary_agrees_with_the_hypercube_model() {
    // Past twice the flit bound both derivations must refuse to produce a
    // number; the generalized model may not silently "solve" a saturated
    // hypercube.
    for (n, h) in [(3u32, 0.3f64), (6, 0.2)] {
        let bound = HypercubeModel::new(n, 2, 16, 0.0, h)
            .unwrap()
            .saturation_bound();
        let lambda = 2.0 * bound;
        assert!(HypercubeModel::new(n, 2, 16, lambda, h)
            .unwrap()
            .solve()
            .is_err());
        assert!(NCubeModel::new(NCubeConfig::new(2, n, 2, 16, lambda, h))
            .unwrap()
            .solve()
            .is_err());
    }
}

#[test]
fn zero_load_closed_forms_agree_across_the_family() {
    // The generalized model's closed-form zero-load latency must agree
    // with the solved model at vanishing λ for non-trivial (k, n), tying
    // the composition to first principles independently of either anchor.
    for (k, n, h) in [(2u32, 5u32, 0.3f64), (4, 3, 0.2), (8, 3, 0.0), (16, 2, 0.4)] {
        let model = NCubeModel::new(NCubeConfig::new(k, n, 2, 16, 1e-12, h)).unwrap();
        let solved = model.solve().unwrap().latency;
        let closed = model.zero_load_latency();
        assert!(
            (solved - closed).abs() / closed < 1e-6,
            "k={k} n={n} h={h}: {solved} vs {closed}"
        );
    }
}
