//! The hot-spot latency model for arbitrary k-ary n-cubes.
//!
//! This is the paper's model (Eqs. 10–37) with the dimension count `n`
//! promoted to a first-class parameter.  The paper's 16×16 torus is the
//! `n = 2` instance — `NCubeConfig::new(16, 2, v, lm, λ, h)` — and the
//! binary-hypercube model ([`crate::HypercubeModel`]) is its closed-form
//! `k = 2` instance, a relationship the cross-validation tests in the
//! facade crate enforce.  DESIGN.md § "Reconstruction notes" maps the
//! paper's named 2-D service-time families onto this module's state.
//!
//! # How the 2-D machinery generalizes
//!
//! * **Channel rates.**  Dimension-order routing corrects dimensions in
//!   ascending order, so all hot-spot movement in dimension `d` happens in
//!   the *hot ring of dimension `d`* (matching the hot node below `d`).
//!   The hot dimension-`d` channel `j` hops from the hot coordinate
//!   funnels `k^d (k-j)` sources (generalized Eqs. 4–7,
//!   [`crate::rates::NCubeRates`]); the regular rate `λ_r = λ(1-h)(k-1)/2`
//!   (Eq. 3) is dimension-independent.
//!
//! * **Service-time recursions.**  Every per-channel recursion of
//!   Eqs. (16)–(25) has the affine shape `S_j = 1 + B_j + S_{j-1}`, so the
//!   seven hard-coded x/y families collapse into per-dimension data: the
//!   position-averaged regular blocking `B_{d,hot}` / `B_nonhot`, and the
//!   cumulative hot-path channel costs `C_{d,j} = Σ_{l<=j} (1 + B^h_{d,l})`
//!   — the network latency of a hot message with per-dimension distance
//!   profile `(t_0, …, t_{n-1})` is exactly `Lm + Σ_d C_{d,t_d}`, which at
//!   `n = 2` reproduces the chains `S^h_y,j` (Eq. 23) and `S^h_x,j,t`
//!   (Eq. 25) term for term.
//!
//! * **Route cases.**  The five 2-D cases of Eqs. (11)–(15) become the
//!   *entry families* of [`crate::probabilities::entry_cases`] (first
//!   dimension moved × hot/non-hot entry ring, exact `N-1` denominators);
//!   within a family the expected remaining latency follows from chain
//!   affinity: conditional on a later dimension `d > d0` being crossed the
//!   message spends `(k-1)/2` expected hops there, in a hot ring with
//!   probability `k^{-(d-d0)}` when the entry ring was hot (dimension-wise
//!   independence of a uniform destination) and never otherwise.
//!
//! * **Composition.**  Source-queue waits (Eqs. 31–32) are evaluated per
//!   source position — one node per distance profile — and the
//!   multiplexing degrees (Eqs. 33–37) per channel family, exactly as the
//!   paper does over its `(j)` and `(j, t)` source positions.
//!
//! Under the default [`ServiceTimeModel::PipelinedTransfer`] the blocking
//! terms are load-only, so the fixed point converges immediately; the
//! [`ServiceTimeModel::PathOccupancy`] ablation iterates the
//! `holds → blocking → chains` loop.  (One approximation relative to the
//! paper's per-position chains: the hot chains average their downstream
//! holding time over the tail profiles instead of keeping one chain per
//! profile; the default model is unaffected.)

use crate::probabilities::{entry_cases, EntryCase};
use crate::rates::NCubeRates;
use kncube_queueing::blocking::{blocking_delay, channel_utilization, TrafficClass};
use kncube_queueing::fixed_point::{self, Acceleration, FixedPointError};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::multiplexing_factor;
use std::fmt;

/// Utilization cap used to keep intermediate fixed-point iterates finite.
pub(crate) const RHO_CAP: f64 = 1.0 - 1e-7;

/// Which mean service time competing *regular* messages present at an
/// x-ring channel in the hot-message recursion, Eq. (25).
///
/// The OCR of the paper prints `S^r_{hy,k}` (the hot-y-ring entrance
/// service) inside Eq. (25)'s blocking term, while the structurally
/// analogous regular-message recursions (Eqs. 18–20) use the x-channel
/// entrance service `S^r_{x,k}`.  The default follows physical consistency
/// (`XRingService`); the alternative reproduces the OCR reading, and the
/// `ablations` bench quantifies the (small) difference.  For general `n`,
/// "x" reads as "the message's current dimension" and "hot ring" as "the
/// hot ring of the last dimension".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ModelVariant {
    /// Use `S^r_{x,k}` in Eq. (25)'s blocking term (default).
    #[default]
    XRingService,
    /// Use `S^r_{hy,k}` in Eq. (25)'s blocking term (literal OCR).
    HotRingServiceEq25,
}

/// What a message "costs" a channel while crossing it — the service time
/// competing messages present inside the blocking operator, and the
/// occupancy that drives utilization and virtual-channel multiplexing.
///
/// The OCR of Eqs. (17), (23) and (25) names the remaining-path service
/// times (`S^h_{y,j}` etc.) here, but that reading cannot be what the
/// authors computed: remaining-path services contain the downstream
/// blocking delays, so channel `j+1`'s load would inherit channel `j`'s
/// near-saturation waits and the model would diverge at roughly a third of
/// the load range plotted in Figures 1–2 (tree saturation is over-counted
/// because the distributed VC queue actually spreads that backlog over
/// many channels).  With the *pipelined transfer time* `Lm + 1` — exact
/// for the binding channel, the last hop into the hot node, whose
/// downstream is the ejection sink — the model's saturation points land
/// precisely on the axis ranges of all six subfigures
/// (`λ* ≈ 1/(h·k(k-1)·(Lm+1) + λ_r-share)`).  See DESIGN.md §
/// "Reconstruction notes".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ServiceTimeModel {
    /// Competitor service/occupancy = `Lm + 1` cycles (default; matches
    /// the paper's figures).
    #[default]
    PipelinedTransfer,
    /// Competitor service/occupancy = `1 + S_{j-1}` (header plus the full
    /// remaining-path service).  Over-counts tree saturation; kept as an
    /// ablation (`ABL-HOLD` in DESIGN.md).
    PathOccupancy,
}

/// How the virtual-channel multiplexing degree `V̄` is computed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MultiplexingModel {
    /// Dally's Markov chain, Eqs. (33)–(35) — the published model.  It
    /// assumes a message can occupy any of the `V` virtual channels, which
    /// over-states multiplexing under Dally–Seitz class restrictions
    /// (hot-spot messages in the hot ring share a single class).
    #[default]
    DallyMarkov,
    /// Class-aware stretch: a flit stream is slowed by the occupancy of
    /// the *other* virtual channels of its physical channel, so
    /// `V̄ = 1 + min(ρ, V-1)`.  Matches the simulator's measured
    /// multiplexing more closely (ablation `ABL-VMUX`).
    ClassAware,
}

/// Why the model has no solution at this operating point.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// Invalid configuration.
    BadConfig(String),
    /// A channel or source queue is saturated (`ρ >= 1`): the network has
    /// no steady state at this load and the model diverges — this is how
    /// the saturation point manifests analytically.
    Saturated {
        /// The largest utilization encountered.
        max_utilization: f64,
    },
    /// The iteration failed to converge without an explicit `ρ >= 1`
    /// witness; treated as (just past) saturation in sweeps.
    NotConverged,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadConfig(msg) => write!(f, "bad model configuration: {msg}"),
            ModelError::Saturated { max_utilization } => {
                write!(
                    f,
                    "network saturated (max utilization {max_utilization:.4})"
                )
            }
            ModelError::NotConverged => write!(f, "model iteration did not converge"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Largest supported node count: the latency composition enumerates one
/// source-queue wait per node (Eq. 32 is a per-source quantity), so the
/// model is practical up to about a million nodes.
pub const MAX_MODEL_NODES: u64 = 1 << 20;

pub use kncube_topology::MAX_VIRTUAL_CHANNELS;

/// Largest number of downstream tail profiles enumerated exactly when
/// position-averaging blocking under the path-occupancy ablation; beyond
/// it the mean tail cost is used instead.
const TAIL_ENUM_CAP: usize = 4096;

/// Configuration of one generalized model evaluation.
///
/// Equality and hashing compare every field, the floats by bit pattern,
/// so a config is its own exact cache key ([`crate::SolveCache`]).
#[derive(Clone, Copy, Debug)]
pub struct NCubeConfig {
    /// Radix `k` (nodes per dimension).
    pub k: u32,
    /// Dimension count `n`.
    pub n: u32,
    /// Virtual channels per physical channel (`V >= 2` in the paper;
    /// `V = 1` is accepted for the math but is not deadlock-free in the
    /// simulated network).
    pub virtual_channels: u32,
    /// Message length `Lm` in flits.
    pub message_length: u32,
    /// Per-node generation rate `λ` in messages/cycle.
    pub lambda: f64,
    /// Hot-spot fraction `h`.
    pub hot_fraction: f64,
    /// Eq. (25) blocking-term reading.
    pub variant: ModelVariant,
    /// Channel service-time model inside the blocking operator.
    pub service_model: ServiceTimeModel,
    /// Virtual-channel multiplexing model (Eqs. 33-35 or class-aware).
    pub multiplexing: MultiplexingModel,
    /// How the fixed point's iterates are combined.
    pub acceleration: Acceleration,
}

impl NCubeConfig {
    /// A configuration with the reconstruction defaults (the choices that
    /// reproduce the paper's figures at `n = 2`).
    pub fn new(k: u32, n: u32, v: u32, lm: u32, lambda: f64, h: f64) -> Self {
        NCubeConfig {
            k,
            n,
            virtual_channels: v,
            message_length: lm,
            lambda,
            hot_fraction: h,
            variant: ModelVariant::default(),
            service_model: ServiceTimeModel::default(),
            multiplexing: MultiplexingModel::default(),
            acceleration: Acceleration::default(),
        }
    }

    /// Every field, the floats as bit patterns.  Destructured without
    /// `..`, so a new field does not compile until it joins the identity.
    fn identity(&self) -> impl Eq + std::hash::Hash {
        let NCubeConfig {
            k,
            n,
            virtual_channels,
            message_length,
            lambda,
            hot_fraction,
            variant,
            service_model,
            multiplexing,
            acceleration,
        } = *self;
        (
            (k, n, virtual_channels, message_length),
            (lambda.to_bits(), hot_fraction.to_bits()),
            (variant, service_model, multiplexing, acceleration),
        )
    }
}

impl PartialEq for NCubeConfig {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for NCubeConfig {}

impl std::hash::Hash for NCubeConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.identity().hash(state)
    }
}

/// The solved generalized model.
#[derive(Clone, Debug)]
pub struct NCubeOutput {
    /// Eq. (10): the headline mean message latency in cycles.
    pub latency: f64,
    /// `S_r`: mean latency of regular messages (probability-marginalised).
    pub regular_latency: f64,
    /// `S_h`: mean latency of hot-spot messages.
    pub hot_latency: f64,
    /// Eq. (31): mean network latency a regular message sees at any source.
    pub mean_network_latency_regular: f64,
    /// Eq. (32): mean source-queue wait of regular messages.
    pub source_wait_regular: f64,
    /// Position-averaged multiplexing degree of the hot ring family of
    /// each dimension (index `d`; at `n = 2`, index 0 is the paper's
    /// Eq. 37 x-average and index 1 its Eq. 36 hot-y-ring average).
    pub vbar_hot: Vec<f64>,
    /// Multiplexing degree at channels carrying no hot traffic.
    pub vbar_nonhot: f64,
    /// Position-averaged regular-message blocking delay at the hot ring
    /// family of each dimension (the generalized Eqs. 17–20 terms).
    pub blocking_hot: Vec<f64>,
    /// Regular-message blocking delay at non-hot channels (Eq. 16's term).
    pub blocking_nonhot: f64,
    /// Converged hot-path services per dimension: entry `[d][j-1]` is the
    /// network latency `Lm + C_{d,j}` of a hot message with `j` channels
    /// left in dimension `d` and nothing after (at `n = 2`, `[1]` is the
    /// `S^h_y,j` chain of Eq. 23).
    pub hot_path_services: Vec<Vec<f64>>,
    /// The largest channel/source utilization at the solution (a solution
    /// exists only when this is below 1).
    pub max_utilization: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

/// The generalized analytical model for one configuration.
#[derive(Clone, Debug)]
pub struct NCubeModel {
    config: NCubeConfig,
    rates: NCubeRates,
}

/// State-vector layout: `[B_nonhot, B_hot[0..n], C[d][1..=m] per d]`.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    /// `m = k - 1`: entries per dimension of the hot chain.
    m: usize,
}

impl Layout {
    fn len(&self) -> usize {
        1 + self.n + self.n * self.m
    }
    fn b_nonhot(&self) -> usize {
        0
    }
    fn b_hot(&self, d: usize) -> usize {
        1 + d
    }
    /// `C_{d,j}` for `j in 1..=m`; `C_{d,0} = 0` is implicit.
    fn c(&self, d: usize, j: usize) -> usize {
        debug_assert!((1..=self.m).contains(&j));
        1 + self.n + d * self.m + (j - 1)
    }
    fn c_or_zero(&self, state: &[f64], d: usize, j: usize) -> f64 {
        if j == 0 {
            0.0
        } else {
            state[self.c(d, j)]
        }
    }
}

/// How [`NCubeModel::tail_sums`] represents the downstream tails of a
/// dimension.
#[derive(Clone, Copy)]
enum Tails {
    /// Holds are load-independent: one zero tail stands for every profile.
    Ignored,
    /// One entry per tail profile, the last dimension varying fastest.
    Enumerated,
    /// More than [`TAIL_ENUM_CAP`] profiles: their mean cost alone.
    Mean,
}

impl NCubeModel {
    /// Validate the configuration and build the model.
    pub fn new(config: NCubeConfig) -> Result<Self, ModelError> {
        if config.k < 2 {
            return Err(ModelError::BadConfig("radix k must be >= 2".into()));
        }
        if config.n < 1 {
            return Err(ModelError::BadConfig("need at least one dimension".into()));
        }
        let mut nodes: u64 = 1;
        for _ in 0..config.n {
            nodes = nodes.saturating_mul(config.k as u64);
            if nodes > MAX_MODEL_NODES {
                return Err(ModelError::BadConfig(format!(
                    "k^n exceeds the supported model size ({MAX_MODEL_NODES} nodes)"
                )));
            }
        }
        if !(1..=MAX_VIRTUAL_CHANNELS).contains(&config.virtual_channels) {
            return Err(ModelError::BadConfig(format!(
                "virtual channels must be in 1..={MAX_VIRTUAL_CHANNELS}"
            )));
        }
        if config.message_length < 1 {
            return Err(ModelError::BadConfig(
                "message length must be >= 1 flit".into(),
            ));
        }
        if !(0.0..=1.0).contains(&config.hot_fraction) {
            return Err(ModelError::BadConfig("h must be in [0, 1]".into()));
        }
        if !config.lambda.is_finite() || config.lambda < 0.0 {
            return Err(ModelError::BadConfig("λ must be finite and >= 0".into()));
        }
        let rates = NCubeRates::new(config.k, config.n, config.lambda, config.hot_fraction);
        Ok(NCubeModel { config, rates })
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &NCubeConfig {
        &self.config
    }

    /// The traffic rates (generalized Eqs. 1–9).
    pub fn rates(&self) -> &NCubeRates {
        &self.rates
    }

    /// Node count `N = k^n`.
    fn num_nodes(&self) -> f64 {
        (self.config.k as u64).pow(self.config.n) as f64
    }

    /// Entrance-averaged channel *holding* time of a regular family from
    /// its position-averaged blocking term.
    ///
    /// A message holds a channel for `1 + S_{j-1}` cycles (header transfer
    /// plus the service of the remaining path), excluding its own
    /// acquisition wait.  Averaged over the entry positions `j = 1..k-1`
    /// of an affine chain `S_j = j(1+B) + Lm` this is
    /// `1 + Lm + (1+B)(k-2)/2` — the closed form of the paper's family
    /// average.  Under the default pipelined-transfer reading the
    /// holding time is the load-independent `Lm + 1` (see
    /// [`ServiceTimeModel`]).
    fn hold_regular(&self, blocking: f64) -> f64 {
        let lm = self.config.message_length as f64;
        match self.config.service_model {
            ServiceTimeModel::PipelinedTransfer => lm + 1.0,
            ServiceTimeModel::PathOccupancy => {
                let m = (self.config.k - 1) as f64;
                1.0 + lm + (1.0 + blocking) * (m - 1.0) / 2.0
            }
        }
    }

    /// Holding time of a hot dimension-`d` channel at in-ring chain value
    /// `C_{d,l-1}` with downstream (higher-dimension) chain cost `tail`.
    fn hot_hold(&self, c_before: f64, tail: f64) -> f64 {
        let lm = self.config.message_length as f64;
        match self.config.service_model {
            ServiceTimeModel::PipelinedTransfer => lm + 1.0,
            ServiceTimeModel::PathOccupancy => 1.0 + lm + c_before + tail,
        }
    }

    /// The downstream tail costs a hot message can carry past dimension
    /// `d`, written into `sums`: one entry per profile of the higher
    /// dimensions (uniform over positions, the generalized Eq. 18–20/25
    /// position average), the last dimension varying fastest.  Under the
    /// pipelined default holds are load-independent, so a single zero
    /// tail suffices; past [`TAIL_ENUM_CAP`] profiles the mean tail cost
    /// stands in for the enumeration.  The buffer is reused across calls.
    fn tail_sums(&self, layout: Layout, state: &[f64], d: usize, sums: &mut Vec<f64>) -> Tails {
        sums.clear();
        if self.config.service_model == ServiceTimeModel::PipelinedTransfer {
            sums.push(0.0);
            return Tails::Ignored;
        }
        let k = self.config.k as usize;
        let higher = layout.n - d - 1;
        let count = k.checked_pow(higher as u32).unwrap_or(usize::MAX);
        if count > TAIL_ENUM_CAP {
            let mean: f64 = (d + 1..layout.n)
                .map(|d2| {
                    (0..=layout.m)
                        .map(|j| layout.c_or_zero(state, d2, j))
                        .sum::<f64>()
                        / k as f64
                })
                .sum();
            sums.push(mean);
            return Tails::Mean;
        }
        // Expand one dimension at a time in place: entry `i` becomes
        // entries `i·k .. i·k + k`, written back to front so no entry is
        // overwritten before it is read.
        sums.push(0.0);
        for d2 in d + 1..layout.n {
            let len = sums.len();
            sums.resize(len * k, 0.0);
            for i in (0..len).rev() {
                let s = sums[i];
                for j in 0..=layout.m {
                    sums[i * k + j] = s + layout.c_or_zero(state, d2, j);
                }
            }
        }
        Tails::Enumerated
    }

    /// Zero-load initial guess: blocking-free chains.
    fn initial_state(&self, layout: Layout) -> Vec<f64> {
        let mut state = vec![0.0; layout.len()];
        for d in 0..layout.n {
            for j in 1..=layout.m {
                state[layout.c(d, j)] = j as f64;
            }
        }
        state
    }

    /// `λ^h_{d,l}` for every dimension `d` and `l = 1..=k`, at
    /// `[d·k + l - 1]`: the rates are fixed for the whole solve.
    fn hot_rate_table(&self) -> Vec<f64> {
        let (k, n) = (self.config.k, self.config.n);
        (0..n)
            .flat_map(|d| (1..=k).map(move |l| (d, l)))
            .map(|(d, l)| self.rates.hot_rate(d, l))
            .collect()
    }

    /// One application of the generalized recursions (16)–(20), (23), (25).
    fn update(
        &self,
        layout: Layout,
        hot_rates: &[f64],
        tails: &mut Vec<f64>,
        state: &[f64],
        next: &mut [f64],
    ) {
        let k = self.config.k as usize;
        let lm = self.config.message_length as f64;
        let lr = self.rates.regular_channel_rate();
        let hold_nonhot = self.hold_regular(state[layout.b_nonhot()]);

        // Eq. (16) generalized: blocking at a channel with no hot traffic.
        next[layout.b_nonhot()] = blocking_delay(
            TrafficClass::new(lr, hold_nonhot),
            TrafficClass::none(),
            lm,
            RHO_CAP,
        );

        for d in 0..layout.n {
            self.tail_sums(layout, state, d, tails);
            let inv_tails = 1.0 / tails.len() as f64;
            let hold_d = self.hold_regular(state[layout.b_hot(d)]);
            let regular = TrafficClass::new(lr, hold_d);
            // The hot chain's regular competitor holds for the Eq. 25
            // reading (ModelVariant); the last dimension always uses its
            // own family, matching Eq. 23.  Where that is dimension d's
            // own family, the chain's blocking term at (j, tail) is the
            // family term at (l = j, tail), evaluated once for both sums.
            let chain_regular = match self.config.variant {
                ModelVariant::XRingService => None,
                ModelVariant::HotRingServiceEq25 if d + 1 == layout.n => None,
                ModelVariant::HotRingServiceEq25 => Some(TrafficClass::new(
                    lr,
                    self.hold_regular(state[layout.b_hot(layout.n - 1)]),
                )),
            };

            // Eqs. (17)-(20) generalized: regular-message blocking at the
            // hot ring family of dimension d, uniform over the k in-ring
            // positions (and the tail profiles, which only matter under
            // the path-occupancy ablation).  Eqs. (23)/(25) generalized:
            // the hot-message chain C_{d,j} over the first k-1 positions.
            let mut sum = 0.0;
            let mut cum = 0.0;
            for l in 1..=k {
                let rate = hot_rates[d * k + l - 1];
                let c_before = layout.c_or_zero(state, d, l - 1);
                let in_chain = l <= layout.m;
                let mut bsum = 0.0;
                for &tail in tails.iter() {
                    let hot = TrafficClass::new(rate, self.hot_hold(c_before, tail));
                    let b = blocking_delay(regular, hot, lm, RHO_CAP);
                    sum += b;
                    if in_chain {
                        bsum += match chain_regular {
                            None => b,
                            Some(reg) => blocking_delay(reg, hot, lm, RHO_CAP),
                        };
                    }
                }
                if in_chain {
                    cum += 1.0 + bsum * inv_tails;
                    next[layout.c(d, l)] = cum;
                }
            }
            next[layout.b_hot(d)] = sum / k as f64 * inv_tails;
        }
    }

    /// Number of components in the fixed-point state vector for this
    /// configuration — the length a warm-start state must have to be
    /// accepted by [`NCubeModel::solve_warm`].
    pub fn state_len(&self) -> usize {
        self.layout().len()
    }

    fn layout(&self) -> Layout {
        Layout {
            n: self.config.n as usize,
            m: (self.config.k - 1) as usize,
        }
    }

    /// Solve the model.
    pub fn solve(&self) -> Result<NCubeOutput, ModelError> {
        self.solve_warm(None).map(|(out, _)| out)
    }

    /// Solve the model, optionally warm-starting the fixed point from the
    /// converged state of a nearby configuration, and return the converged
    /// state alongside the output so the caller can continue the chain.
    ///
    /// A warm state is accepted only when its length matches
    /// [`NCubeModel::state_len`] and every component is finite and
    /// non-negative; anything else silently falls back to the cold
    /// zero-load initial guess, so continuation across a `(k, n)` boundary
    /// is safe by construction.
    pub fn solve_warm(&self, warm: Option<&[f64]>) -> Result<(NCubeOutput, Vec<f64>), ModelError> {
        let layout = self.layout();
        let initial = match warm {
            Some(w) if w.len() == layout.len() && w.iter().all(|x| x.is_finite() && *x >= 0.0) => {
                w.to_vec()
            }
            _ => self.initial_state(layout),
        };
        let hot_rates = self.hot_rate_table();
        let mut tails = Vec::new();
        let mut clamped = Vec::new();
        let report = fixed_point::solve(initial, self.config.acceleration, |state, next| {
            // Delays and hop counts are non-negative; Anderson steps that
            // extrapolate below zero would find spurious negative fixed
            // points, so the update reads them clamped at zero.
            let state = if state.iter().any(|&x| x < 0.0) {
                clamped.clear();
                clamped.extend(state.iter().map(|&x| x.max(0.0)));
                &clamped[..]
            } else {
                state
            };
            self.update(layout, &hot_rates, &mut tails, state, next)
        })
        .map_err(|e| match e {
            FixedPointError::NonFinite | FixedPointError::NotConverged => ModelError::NotConverged,
        })?;
        let out = self.compose(layout, &hot_rates, &report.state, report.iterations)?;
        Ok((out, report.state))
    }

    /// The generalized Eqs. (10)–(15), (21)–(24), (31)–(37) evaluated on
    /// the converged blocking terms and hot chains.
    fn compose(
        &self,
        layout: Layout,
        hot_rates: &[f64],
        state: &[f64],
        iterations: usize,
    ) -> Result<NCubeOutput, ModelError> {
        let k = self.config.k as usize;
        let kf = k as f64;
        let n = layout.n;
        let m = layout.m;
        let lm = self.config.message_length as f64;
        let v = self.config.virtual_channels;
        let h = self.config.hot_fraction;
        let n_nodes = self.num_nodes();
        let lr = self.rates.regular_channel_rate();

        let b_nonhot = state[layout.b_nonhot()];
        let b_hot: Vec<f64> = (0..n).map(|d| state[layout.b_hot(d)]).collect();
        let hold_nonhot = self.hold_regular(b_nonhot);
        let hold_hot: Vec<f64> = b_hot.iter().map(|&b| self.hold_regular(b)).collect();

        // --- Saturation diagnosis: every physical channel must be stable.
        // The utilization of hot channel (d, l) at each tail is also the
        // offered load its multiplexing degree is taken at, so it is kept
        // in `per_channel`, at `offset[d] + (l-1)·|tails[d]| + tail`.
        let mut max_util: f64 = 0.0;
        if n >= 2 {
            max_util =
                channel_utilization(TrafficClass::new(lr, hold_nonhot), TrafficClass::none());
        }
        let mut tails: Vec<Vec<f64>> = vec![Vec::new(); n];
        let kinds: Vec<Tails> = (0..n)
            .map(|d| self.tail_sums(layout, state, d, &mut tails[d]))
            .collect();
        let mut offset = Vec::with_capacity(n);
        let mut per_channel = Vec::with_capacity(tails.iter().map(|t| k * t.len()).sum());
        for d in 0..n {
            offset.push(per_channel.len());
            for l in 1..=k {
                let rate = hot_rates[d * k + l - 1];
                let c_before = layout.c_or_zero(state, d, l - 1);
                for &tail in &tails[d] {
                    let util = channel_utilization(
                        TrafficClass::new(lr, hold_hot[d]),
                        TrafficClass::new(rate, self.hot_hold(c_before, tail)),
                    );
                    max_util = max_util.max(util);
                    per_channel.push(util);
                }
            }
        }
        if max_util >= 1.0 {
            return Err(ModelError::Saturated {
                max_utilization: max_util,
            });
        }

        // --- Eqs. (33)-(37): multiplexing degrees per channel family;
        // `per_channel` now holds each hot channel's degree.
        let vbar_of = |rho: f64| -> f64 {
            match self.config.multiplexing {
                MultiplexingModel::DallyMarkov => multiplexing_factor(rho, v),
                MultiplexingModel::ClassAware => 1.0 + rho.clamp(0.0, (v - 1).max(1) as f64),
            }
        };
        let vbar_nonhot = vbar_of(lr * hold_nonhot);
        for x in per_channel.iter_mut() {
            *x = vbar_of(*x);
        }
        let vbar_hot: Vec<f64> = (0..n)
            .map(|d| {
                let family = &per_channel[offset[d]..offset[d] + k * tails[d].len()];
                let mut sum = 0.0;
                for &x in family {
                    sum += x;
                }
                sum / (k * tails[d].len()) as f64
            })
            .collect();

        // --- Eq. (31) generalized: the expected network latency per entry
        // family, by affinity of the chains.  Conditional on the entry the
        // message spends k/2 expected hops in its entry ring; each later
        // dimension is crossed with the (k-1)/k share folded into the
        // (k-1)/2 expected hops, in a hot ring with probability
        // k^{-(d-d0)} iff the entry ring was hot.
        let cases = entry_cases(self.config.k, self.config.n);
        let family_latency = |case: &EntryCase| -> f64 {
            let d0 = case.dim as usize;
            let b_first = if case.hot { b_hot[d0] } else { b_nonhot };
            let mut s = lm + (kf / 2.0) * (1.0 + b_first);
            for (d, &b) in b_hot.iter().enumerate().skip(d0 + 1) {
                let p_hot_ring = if case.hot {
                    kf.powi(-((d - d0) as i32))
                } else {
                    0.0
                };
                s += ((kf - 1.0) / 2.0)
                    * (p_hot_ring * (1.0 + b) + (1.0 - p_hot_ring) * (1.0 + b_nonhot));
            }
            s
        };
        let s_r_network: f64 = cases
            .iter()
            .map(|case| case.probability * family_latency(case))
            .sum();

        // --- Eqs. (21)-(24) and (32): per-source hot latencies and waits,
        // one source per distance profile (t_0, …, t_{n-1}) != 0.  The
        // source enters the network at channel (d0, t_{d0}) of the hot
        // ring family of its first non-zero dimension d0, carrying the
        // tail (t_{d0+1}, …, t_{n-1}); its multiplexing degree is the
        // family entry at that channel and tail, looked up, unless the
        // tails past d0 are too many to enumerate.
        let vc_rate = self.config.lambda / v as f64;
        let wait = |service: f64| -> Result<f64, ModelError> {
            mg1::waiting_time(vc_rate, service, lm).map_err(|sat| ModelError::Saturated {
                max_utilization: sat.rho,
            })
        };
        let mut ws_sum = 0.0;
        let mut s_h_sum = 0.0;
        let mut profile = vec![0usize; n];
        'profiles: loop {
            // Advance the odometer (dimension 0 fastest); the all-zero
            // profile (the hot node itself) is skipped.  The dimension
            // that was incremented is the first non-zero one, d0.
            let mut d0 = 0;
            loop {
                if d0 == n {
                    break 'profiles;
                }
                profile[d0] += 1;
                if profile[d0] <= m {
                    break;
                }
                profile[d0] = 0;
                d0 += 1;
            }
            let s_h_net = lm
                + profile
                    .iter()
                    .enumerate()
                    .map(|(dd, &t)| layout.c_or_zero(state, dd, t))
                    .sum::<f64>();
            let t0 = profile[d0];
            let family = offset[d0] + (t0 - 1) * tails[d0].len();
            let entry_vbar = match kinds[d0] {
                Tails::Ignored => per_channel[family],
                Tails::Enumerated => {
                    let tail = profile[d0 + 1..].iter().fold(0, |i, &t| i * k + t);
                    per_channel[family + tail]
                }
                Tails::Mean => {
                    let entry_tail: f64 = (d0 + 1..n)
                        .map(|dd| layout.c_or_zero(state, dd, profile[dd]))
                        .sum();
                    vbar_of(
                        lr * hold_hot[d0]
                            + hot_rates[d0 * k + t0 - 1]
                                * self.hot_hold(layout.c_or_zero(state, d0, t0 - 1), entry_tail),
                    )
                }
            };
            let w = wait((1.0 - h) * s_r_network + h * s_h_net)?;
            ws_sum += w;
            s_h_sum += (s_h_net + w) * entry_vbar;
        }
        let ws_r = (ws_sum + wait(s_r_network)?) / n_nodes;
        let s_h = s_h_sum / (n_nodes - 1.0);

        // --- Eqs. (11)-(15) generalized: regular-message latency as the
        // entry-family mix, each family scaled by the multiplexing degree
        // of its entry channel family and carrying the mean source wait
        // once.
        let s_r: f64 = cases
            .iter()
            .map(|case| {
                let vbar = if case.hot {
                    vbar_hot[case.dim as usize]
                } else {
                    vbar_nonhot
                };
                case.probability * (family_latency(case) + ws_r) * vbar
            })
            .sum();

        // --- Eq. (10).
        let latency = (1.0 - h) * s_r + h * s_h;

        let hot_path_services = (0..n)
            .map(|d| (1..=m).map(|j| lm + state[layout.c(d, j)]).collect())
            .collect();
        Ok(NCubeOutput {
            latency,
            regular_latency: s_r,
            hot_latency: s_h,
            mean_network_latency_regular: s_r_network,
            source_wait_regular: ws_r,
            vbar_hot,
            vbar_nonhot,
            blocking_hot: b_hot,
            blocking_nonhot: b_nonhot,
            hot_path_services,
            max_utilization: max_util,
            iterations,
        })
    }

    /// Closed-form zero-load latency (λ → 0): no blocking, no queueing, no
    /// multiplexing; each visited dimension costs its expected hops and the
    /// message drains in `Lm` cycles.
    pub fn zero_load_latency(&self) -> f64 {
        let kf = self.config.k as f64;
        let n = self.config.n;
        let lm = self.config.message_length as f64;
        let n_nodes = self.num_nodes();
        let s_r0: f64 = entry_cases(self.config.k, n)
            .iter()
            .map(|case| {
                case.probability * (lm + kf / 2.0 + (n - 1 - case.dim) as f64 * (kf - 1.0) / 2.0)
            })
            .sum();
        // Hot sources: the mean distance profile sum over the N-1 non-hot
        // nodes, n·(k-1)/2 · N/(N-1).
        let s_h0 = lm + n as f64 * (kf - 1.0) / 2.0 * n_nodes / (n_nodes - 1.0);
        (1.0 - self.config.hot_fraction) * s_r0 + self.config.hot_fraction * s_h0
    }

    /// The hot-channel flit bound on the saturation rate: the last channel
    /// into the hot node drains `λ h k^{n-1}(k-1)` hot messages plus the
    /// regular share at `Lm + 1` cycles each and cannot absorb more than
    /// one flit per cycle — the n-dimensional analogue of the 2-D
    /// `1/(h·k(k-1)·(Lm+1))` bound and of the hypercube's
    /// `2/(h·N·(Lm+1))`.
    pub fn flit_bound(&self) -> f64 {
        let k = self.config.k as f64;
        let hot_share = self.config.hot_fraction * k.powi(self.config.n as i32 - 1) * (k - 1.0);
        let reg_share = (1.0 - self.config.hot_fraction) * (k - 1.0) / 2.0;
        1.0 / ((hot_share + reg_share) * (self.config.message_length as f64 + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(k: u32, n: u32, lambda: f64, h: f64) -> Result<NCubeOutput, ModelError> {
        NCubeModel::new(NCubeConfig::new(k, n, 2, 16, lambda, h))
            .unwrap()
            .solve()
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(NCubeModel::new(NCubeConfig::new(1, 3, 2, 16, 1e-5, 0.2)).is_err());
        assert!(NCubeModel::new(NCubeConfig::new(4, 0, 2, 16, 1e-5, 0.2)).is_err());
        assert!(NCubeModel::new(NCubeConfig::new(4, 3, 0, 16, 1e-5, 0.2)).is_err());
        assert!(NCubeModel::new(NCubeConfig::new(4, 3, 2, 0, 1e-5, 0.2)).is_err());
        assert!(NCubeModel::new(NCubeConfig::new(4, 3, 2, 16, 1e-5, 1.5)).is_err());
        assert!(NCubeModel::new(NCubeConfig::new(4, 3, 2, 16, f64::NAN, 0.2)).is_err());
        // k^n beyond the per-source composition budget.
        assert!(NCubeModel::new(NCubeConfig::new(64, 5, 2, 16, 1e-5, 0.2)).is_err());
    }

    #[test]
    fn vanishing_load_matches_zero_load_closed_form() {
        for (k, n, h) in [(4u32, 3u32, 0.2f64), (8, 3, 0.4), (4, 4, 0.0), (2, 6, 0.5)] {
            let model = NCubeModel::new(NCubeConfig::new(k, n, 2, 16, 1e-10, h)).unwrap();
            let out = model.solve().unwrap();
            let expected = model.zero_load_latency();
            assert!(
                (out.latency - expected).abs() / expected < 1e-3,
                "k={k} n={n} h={h}: solved {} vs closed form {expected}",
                out.latency
            );
            assert!(out.source_wait_regular < 1e-3);
        }
    }

    #[test]
    fn single_ring_zero_load_is_half_circumference() {
        let model = NCubeModel::new(NCubeConfig::new(8, 1, 2, 16, 1e-10, 0.0)).unwrap();
        // One dimension, entry probability 1: Lm + k/2.
        assert!((model.zero_load_latency() - (16.0 + 4.0)).abs() < 1e-12);
        assert!(model.solve().is_ok());
    }

    #[test]
    fn latency_increases_with_load() {
        let mut prev = 0.0;
        for i in 1..=6 {
            let lambda = i as f64 * 2e-5;
            let out = solve(8, 3, lambda, 0.2).unwrap();
            assert!(
                out.latency > prev,
                "λ={lambda}: latency {} not increasing (prev {prev})",
                out.latency
            );
            prev = out.latency;
        }
    }

    #[test]
    fn latency_increases_with_hot_fraction() {
        let l20 = solve(8, 3, 5e-5, 0.2).unwrap().latency;
        let l40 = solve(8, 3, 5e-5, 0.4).unwrap().latency;
        let l70 = solve(8, 3, 5e-5, 0.7).unwrap().latency;
        assert!(l20 < l40 && l40 < l70, "{l20} {l40} {l70}");
    }

    #[test]
    fn saturates_near_the_flit_bound() {
        for (k, n, h) in [(4u32, 3u32, 0.3f64), (8, 3, 0.2), (4, 4, 0.5), (16, 2, 0.4)] {
            let mk = |lambda: f64| NCubeModel::new(NCubeConfig::new(k, n, 2, 16, lambda, h));
            let bound = mk(0.0).unwrap().flit_bound();
            assert!(
                mk(0.5 * bound).unwrap().solve().is_ok(),
                "k={k} n={n} h={h}: half the flit bound must solve"
            );
            assert!(
                mk(2.0 * bound).unwrap().solve().is_err(),
                "k={k} n={n} h={h}: twice the flit bound must saturate"
            );
        }
    }

    #[test]
    fn hot_messages_slower_than_regular_under_hot_load() {
        let out = solve(8, 3, 5e-5, 0.4).unwrap();
        assert!(
            out.hot_latency > out.regular_latency,
            "hot {} vs regular {}",
            out.hot_latency,
            out.regular_latency
        );
    }

    #[test]
    fn inner_dimensions_block_harder_under_hot_traffic() {
        // The funnel factor k^d makes the hot ring of a higher dimension
        // carry strictly more hot traffic, so its position-averaged
        // blocking and multiplexing dominate the lower dimensions'.
        let out = solve(8, 3, 5e-5, 0.4).unwrap();
        for d in 1..3 {
            assert!(
                out.blocking_hot[d] > out.blocking_hot[d - 1],
                "blocking {:?}",
                out.blocking_hot
            );
            assert!(out.vbar_hot[d] >= out.vbar_hot[d - 1]);
        }
        assert!(out.blocking_hot[0] >= out.blocking_nonhot);
    }

    #[test]
    fn hot_path_services_grow_towards_the_hot_node() {
        let out = solve(8, 3, 6e-5, 0.4).unwrap();
        for chain in &out.hot_path_services {
            for w in chain.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn h_zero_erases_the_hot_ring_asymmetry() {
        let out = solve(8, 3, 2e-3, 0.0).unwrap();
        for d in 0..3 {
            assert!(
                (out.blocking_hot[d] - out.blocking_nonhot).abs() < 1e-12,
                "h=0 asymmetry in dim {d}"
            );
            assert!((out.vbar_hot[d] - out.vbar_nonhot).abs() < 1e-12);
        }
    }

    #[test]
    fn warm_start_matches_cold_and_reports_fewer_iterations() {
        let mk = |lambda: f64| {
            let mut cfg = NCubeConfig::new(8, 3, 2, 16, lambda, 0.4);
            // The path-occupancy ablation actually iterates, so warm
            // starts have something to save.
            cfg.service_model = ServiceTimeModel::PathOccupancy;
            NCubeModel::new(cfg).unwrap()
        };
        let (out_a, state_a) = mk(4e-5).solve_warm(None).unwrap();
        let (out_b_cold, _) = mk(4.2e-5).solve_warm(None).unwrap();
        let (out_b_warm, _) = mk(4.2e-5).solve_warm(Some(&state_a)).unwrap();
        assert!(
            (out_b_warm.latency - out_b_cold.latency).abs() < 1e-6 * out_b_cold.latency,
            "warm {} vs cold {}",
            out_b_warm.latency,
            out_b_cold.latency
        );
        assert!(
            out_b_warm.iterations < out_b_cold.iterations,
            "warm {} vs cold {} iterations",
            out_b_warm.iterations,
            out_b_cold.iterations
        );
        assert!(out_a.iterations >= out_b_warm.iterations);
    }

    #[test]
    fn bad_warm_states_fall_back_to_the_cold_start() {
        let model = NCubeModel::new(NCubeConfig::new(8, 3, 2, 16, 5e-5, 0.2)).unwrap();
        let cold = model.solve().unwrap();
        for bad in [
            vec![],                                 // wrong length
            vec![1.0; 3],                           // wrong length
            vec![f64::NAN; model.state_len()],      // non-finite
            vec![-1.0; model.state_len()],          // negative
            vec![f64::INFINITY; model.state_len()], // non-finite
        ] {
            let (out, _) = model.solve_warm(Some(&bad)).unwrap();
            assert_eq!(out.latency.to_bits(), cold.latency.to_bits());
        }
    }

    #[test]
    fn state_len_matches_the_layout() {
        let model = NCubeModel::new(NCubeConfig::new(8, 3, 2, 16, 5e-5, 0.2)).unwrap();
        // 1 non-hot blocking + n hot blockings + n·(k-1) chain entries.
        assert_eq!(model.state_len(), 1 + 3 + 3 * 7);
        let (_, state) = model.solve_warm(None).unwrap();
        assert_eq!(state.len(), model.state_len());
    }

    #[test]
    fn eq10_mix_reproduces_the_headline_latency() {
        let h = 0.35;
        let out = solve(4, 4, 1e-4, h).unwrap();
        let mix = (1.0 - h) * out.regular_latency + h * out.hot_latency;
        assert!((mix - out.latency).abs() < 1e-9 * out.latency);
    }

    #[test]
    fn anderson_never_lands_on_a_negative_fixed_point() {
        // Past Picard's λ* ≈ 1.27e-3 on this ring, Anderson used to
        // extrapolate into a negative state and "solve" with a negative
        // latency.  Both schemes must refuse the same rates.
        let mut base = NCubeConfig::new(16, 1, 1, 8, 0.0, 0.0);
        base.service_model = ServiceTimeModel::PathOccupancy;
        let solve = |lambda: f64, acceleration| {
            NCubeModel::new(NCubeConfig {
                lambda,
                acceleration,
                ..base
            })
            .unwrap()
            .solve()
        };
        for lambda in [1e-3, 1.2e-3, 2e-3, 4e-3] {
            let picard = solve(lambda, Acceleration::Picard);
            let anderson = solve(lambda, Acceleration::Anderson { depth: 4 });
            assert_eq!(picard.is_ok(), anderson.is_ok(), "λ={lambda}");
            if let (Ok(p), Ok(a)) = (picard, anderson) {
                assert!(
                    (a.latency - p.latency).abs() < 1e-9 * p.latency,
                    "λ={lambda}"
                );
            }
        }
    }
}

/// The paper's own network: the `k × k` torus (`n = 2`) at the operating
/// points of Figures 1–2.
#[cfg(test)]
mod torus_tests {
    use super::*;

    fn solve_2d(k: u32, v: u32, lm: u32, lambda: f64, h: f64) -> Result<NCubeOutput, ModelError> {
        NCubeModel::new(NCubeConfig::new(k, 2, v, lm, lambda, h))
            .unwrap()
            .solve()
    }

    #[test]
    fn rejects_bad_configs() {
        for cfg in [
            NCubeConfig::new(1, 2, 2, 32, 1e-4, 0.2),
            NCubeConfig::new(16, 2, 0, 32, 1e-4, 0.2),
            NCubeConfig::new(16, 2, MAX_VIRTUAL_CHANNELS + 1, 32, 1e-4, 0.2),
            NCubeConfig::new(16, 2, 2, 0, 1e-4, 0.2),
            NCubeConfig::new(16, 2, 2, 32, 1e-4, 1.5),
            NCubeConfig::new(16, 2, 2, 32, -1.0, 0.2),
            NCubeConfig::new(16, 2, 2, 32, f64::NAN, 0.2),
        ] {
            assert!(NCubeModel::new(cfg).is_err(), "{cfg:?}");
        }
        let widest = NCubeConfig::new(16, 2, MAX_VIRTUAL_CHANNELS, 32, 1e-4, 0.2);
        assert!(NCubeModel::new(widest).unwrap().solve().is_ok());
    }

    #[test]
    fn vanishing_load_matches_zero_load_closed_form() {
        for (k, lm, h) in [
            (8u32, 32u32, 0.2f64),
            (16, 32, 0.4),
            (16, 100, 0.7),
            (4, 16, 0.0),
        ] {
            let model = NCubeModel::new(NCubeConfig::new(k, 2, 2, lm, 1e-9, h)).unwrap();
            let out = model.solve().unwrap();
            let expected = model.zero_load_latency();
            assert!(
                (out.latency - expected).abs() / expected < 1e-3,
                "k={k} lm={lm} h={h}: solved {} vs closed form {expected}",
                out.latency
            );
            assert!(out.vbar_hot[1] < 1.0 + 1e-3);
            assert!(out.source_wait_regular < 1e-3);
        }
    }

    #[test]
    fn latency_increases_with_load() {
        let mut prev = 0.0;
        for i in 1..=8 {
            let lambda = i as f64 * 5e-5;
            let out = solve_2d(16, 2, 32, lambda, 0.2).unwrap();
            assert!(
                out.latency > prev,
                "λ={lambda}: latency {} not increasing (prev {prev})",
                out.latency
            );
            prev = out.latency;
        }
    }

    #[test]
    fn hot_messages_slower_than_regular_under_hot_load() {
        let out = solve_2d(16, 2, 32, 2e-4, 0.4).unwrap();
        assert!(
            out.hot_latency > out.regular_latency,
            "hot {} vs regular {}",
            out.hot_latency,
            out.regular_latency
        );
    }

    #[test]
    fn latency_increases_with_hot_fraction_at_fixed_load() {
        // Hot traffic concentrates load on the hot ring, so at a fixed λ
        // the latency grows with h (until saturation).
        let l20 = solve_2d(16, 2, 32, 1.5e-4, 0.2).unwrap().latency;
        let l40 = solve_2d(16, 2, 32, 1.5e-4, 0.4).unwrap().latency;
        let l70 = solve_2d(16, 2, 32, 1.5e-4, 0.7).unwrap().latency;
        assert!(l20 < l40 && l40 < l70, "{l20} {l40} {l70}");
    }

    #[test]
    fn saturates_at_the_papers_operating_points() {
        // Figure 1 (Lm=32): the h=20% curve saturates near λ ≈ 6e-4.
        assert!(solve_2d(16, 2, 32, 3e-4, 0.2).is_ok());
        assert!(solve_2d(16, 2, 32, 9e-4, 0.2).is_err());
        // h=70% saturates near 2e-4.
        assert!(solve_2d(16, 2, 32, 1e-4, 0.7).is_ok());
        assert!(solve_2d(16, 2, 32, 3e-4, 0.7).is_err());
        // Figure 2 (Lm=100): h=20% saturates near 2e-4.
        assert!(solve_2d(16, 2, 100, 1e-4, 0.2).is_ok());
        assert!(solve_2d(16, 2, 100, 3e-4, 0.2).is_err());
    }

    #[test]
    fn hot_ring_service_grows_towards_hot_node() {
        // S^h_y,j (the hot y-ring chain, dimension 1 at n = 2) is
        // cumulative along the path, so it grows with j; the blocking per
        // channel also peaks nearest the hot node (largest rate), which
        // this ordering inherits.
        let out = solve_2d(16, 2, 32, 3e-4, 0.4).unwrap();
        for w in out.hot_path_services[1].windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn h_zero_hot_and_nonhot_rings_agree() {
        // With no hot traffic the hot y-ring is statistically identical to
        // every other ring.
        let out = solve_2d(16, 2, 32, 4e-4, 0.0).unwrap();
        assert!(
            (out.blocking_hot[1] - out.blocking_nonhot).abs() < 1e-6,
            "h=0 asymmetry: {} vs {}",
            out.blocking_hot[1],
            out.blocking_nonhot
        );
        assert!((out.vbar_hot[1] - out.vbar_nonhot).abs() < 1e-6);
    }

    #[test]
    fn more_virtual_channels_multiplex_more() {
        let v2 = solve_2d(16, 2, 32, 4e-4, 0.2).unwrap();
        let v4 = solve_2d(16, 4, 32, 4e-4, 0.2).unwrap();
        assert!(v4.vbar_hot[0] >= v2.vbar_hot[0]);
        assert!(v4.vbar_hot[1] >= v2.vbar_hot[1]);
    }

    #[test]
    fn variant_changes_little_below_saturation() {
        let base = NCubeConfig::new(16, 2, 2, 32, 2e-4, 0.4);
        let a = NCubeModel::new(base).unwrap().solve().unwrap();
        let b = NCubeModel::new(NCubeConfig {
            variant: ModelVariant::HotRingServiceEq25,
            ..base
        })
        .unwrap()
        .solve()
        .unwrap();
        let rel = (a.latency - b.latency).abs() / a.latency;
        assert!(rel < 0.1, "variants diverge by {rel}");
    }

    #[test]
    fn longer_messages_cost_proportionally_at_zero_load() {
        let short = solve_2d(16, 2, 32, 1e-9, 0.2).unwrap().latency;
        let long = solve_2d(16, 2, 100, 1e-9, 0.2).unwrap().latency;
        assert!(
            (long - short - 68.0).abs() < 0.5,
            "short {short} long {long}"
        );
    }
}
