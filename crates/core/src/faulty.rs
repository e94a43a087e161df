//! The faulty-network latency model: the paper's blocking analysis over
//! the *exact* surviving-route substrate of a [`FaultRouter`].
//!
//! The closed-form model ([`NCubeModel`]) assumes the fault-free
//! unidirectional torus, where symmetry collapses the per-channel state
//! onto a handful of position families.  Faults —
//! and the bidirectional/mesh geometries — break that symmetry: routes
//! detour, load redistributes unevenly, and some pairs stop communicating
//! altogether.  [`FaultyNCubeModel`] rebuilds the same queueing chain
//! directly per directed channel:
//!
//! 1. **Rates** — [`FaultyChannelRates`] accumulates the exact regular
//!    and hot-spot rate per channel over every ordered reachable pair's
//!    surviving route (detour-corrected load redistribution) as subtree
//!    sums over each destination's route tree; unreachable pairs
//!    contribute nothing, matching the simulator's drop-at-generation
//!    semantics.
//! 2. **Blocking** — each channel gets the paper's two-class blocking
//!    operator (Eqs. 26–30) at its own rates, under the default
//!    load-independent pipelined-transfer holding time `Lm + 1`.
//! 3. **Composition** — a message's network latency is `Lm` plus
//!    `1 + B_c` per channel of its route; the per-pair latency is scaled
//!    by the multiplexing factor of its entry channel (Eqs. 33–35, always
//!    Dally's Markov chain: the class-aware ablation is fault-free only) and
//!    the source queue adds the Eq. (28) M/G/1 wait at rate `λ_inj / V`,
//!    where `λ_inj` counts only the *delivered* share of generation.
//!    Route latencies are prefix sums down each destination's tree, so a
//!    solve costs `O(N²)` array operations and no route walks.
//!
//! Superposition is approximate exactly where it is in the paper: channel
//! arrivals are treated as independent Poisson streams even though the
//! detoured routes correlate them, and blocking delays add along a route.
//! What is *exact* here, unlike the closed forms, is the geometry: rates
//! come from the true surviving shortest routes, so the model reduces to
//! route enumeration at zero load.
//!
//! With an **empty fault set on a unidirectional torus** (including every
//! `k = 2` network, where the two link kinds coincide) the model
//! *delegates* to [`NCubeModel`], reproducing its output bit-for-bit;
//! [`FaultyNCubeModel::solve_general_at`] forces the per-channel path for
//! cross-validation.

use crate::ncube::{ModelError, NCubeConfig, NCubeModel, MAX_VIRTUAL_CHANNELS, RHO_CAP};
use crate::rates::FaultyChannelRates;
use crate::sweep::{bisect_saturation, SaturationError, SaturationReport};
use kncube_queueing::blocking::{blocking_delay, channel_utilization, TrafficClass};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::multiplexing_factor;
use kncube_topology::{Boundary, ChannelId, FaultRouter, FaultSet, KAryNCube, LinkKind, NodeId};

/// Hard cap on `N = k^n` for the faulty model.  The [`FaultRouter`]
/// stores [`FAULT_ROUTER_BYTES_PER_PAIR`] bytes per ordered pair (112 MiB
/// at this cap, 1.75 GiB at 16k nodes) and every solve sweeps all `N²`
/// pairs once.
///
/// [`FAULT_ROUTER_BYTES_PER_PAIR`]: kncube_topology::FAULT_ROUTER_BYTES_PER_PAIR
pub const MAX_FAULTY_MODEL_NODES: u64 = 1 << 12;

/// The per-node generation rate must be finite and non-negative.
fn check_lambda(lambda: f64) -> Result<(), ModelError> {
    if lambda.is_finite() && lambda >= 0.0 {
        Ok(())
    } else {
        Err(ModelError::BadConfig(
            "lambda must be finite and non-negative".into(),
        ))
    }
}

/// Configuration of the faulty-network model.
///
/// The topology is carried by the fault set (possibly empty —
/// [`FaultSet::none`]); the traffic knobs mirror [`NCubeConfig`].  The
/// hot node defaults to `NodeId(0)`, the simulator's convention
/// ([`SimConfig::ncube`] uses the same), which on a mesh is a *corner* —
/// position matters once wrap links are gone.
///
/// Equality and hashing compare every field, the floats by bit pattern
/// and the fault set whole (failed elements *and* topology), so a config
/// is its own exact cache key ([`crate::SolveCache`]).
///
/// [`SimConfig::ncube`]: ../../kncube_sim/struct.SimConfig.html
#[derive(Clone, Debug)]
pub struct FaultyNCubeConfig {
    /// The failed routers and links, carrying the topology they live in.
    pub faults: FaultSet,
    /// The hot-spot destination (Pfister–Norton).  May itself be failed,
    /// in which case all hot traffic is dropped at generation.
    pub hot_node: NodeId,
    /// Virtual channels per physical channel, `V >= 1`.
    pub virtual_channels: u32,
    /// Message length `Lm` in flits.
    pub message_length: u32,
    /// Per-node generation rate `λ` in messages/cycle.
    pub lambda: f64,
    /// Hot-spot fraction `h` in `[0, 1]`.
    pub hot_fraction: f64,
}

impl FaultyNCubeConfig {
    /// A configuration with the default hot node `NodeId(0)`.
    pub fn new(faults: FaultSet, v: u32, lm: u32, lambda: f64, h: f64) -> Self {
        FaultyNCubeConfig {
            faults,
            hot_node: NodeId(0),
            virtual_channels: v,
            message_length: lm,
            lambda,
            hot_fraction: h,
        }
    }

    /// Replace the hot-spot destination.
    pub fn with_hot_node(mut self, hot: NodeId) -> Self {
        self.hot_node = hot;
        self
    }

    /// The topology the faults live in.
    pub fn topology(&self) -> &KAryNCube {
        self.faults.topology()
    }

    /// Every field, the floats as bit patterns.  Destructured without
    /// `..`, so a new field does not compile until it joins the identity.
    fn identity(&self) -> impl Eq + std::hash::Hash + '_ {
        let FaultyNCubeConfig {
            faults,
            hot_node,
            virtual_channels,
            message_length,
            lambda,
            hot_fraction,
        } = self;
        (
            faults,
            (*hot_node, *virtual_channels, *message_length),
            (lambda.to_bits(), hot_fraction.to_bits()),
        )
    }
}

impl PartialEq for FaultyNCubeConfig {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for FaultyNCubeConfig {}

impl std::hash::Hash for FaultyNCubeConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.identity().hash(state)
    }
}

/// What one faulty-model evaluation produces.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultyNCubeOutput {
    /// Mean latency over all *delivered* messages, in cycles.
    pub latency: f64,
    /// Mean latency of delivered regular (uniform-destination) messages.
    pub regular_latency: f64,
    /// Mean latency of delivered hot-spot messages (0.0 when no hot
    /// traffic is delivered: `h = 0` or the hot node unreachable).
    pub hot_latency: f64,
    /// Mean source-queue wait, averaged over the healthy sources.
    pub source_wait_regular: f64,
    /// Largest channel utilization encountered (the saturation witness).
    pub max_utilization: f64,
    /// Ordered pairs with a surviving route.
    pub reachable_pairs: u64,
    /// `reachable_pairs / (N(N-1))`.
    pub reachable_fraction: f64,
    /// Mean surviving-route detour over reachable pairs, in hops.
    pub mean_detour_hops: f64,
    /// Fraction of generated traffic that is delivered (the complement of
    /// the simulator's `dropped_unreachable` share, in expectation).
    pub delivered_fraction: f64,
    /// Fixed-point iterations: the delegate's count on the bit-exact
    /// fault-free path, 1 for the (non-iterative) per-channel path.
    pub iterations: usize,
    /// Whether this evaluation delegated to the closed-form [`NCubeModel`].
    pub delegated: bool,
}

/// The faulty-network latency model.  See the module docs for the
/// decomposition; construction performs the (one-off) route enumeration,
/// so re-solving at other rates ([`FaultyNCubeModel::solve_at`]) reuses
/// the accumulated per-channel unit loads.
pub struct FaultyNCubeModel {
    config: FaultyNCubeConfig,
    router: FaultRouter,
    rates: FaultyChannelRates,
    /// [`FaultRouter::expected_detour`], a property of the routes alone.
    mean_detour_hops: f64,
}

impl FaultyNCubeModel {
    /// Validate `config`, build the fault-aware router, and enumerate the
    /// per-channel loads.
    pub fn new(config: FaultyNCubeConfig) -> Result<Self, ModelError> {
        let topo = *config.topology();
        if !(1..=MAX_VIRTUAL_CHANNELS).contains(&config.virtual_channels) {
            return Err(ModelError::BadConfig(format!(
                "virtual_channels must be in 1..={MAX_VIRTUAL_CHANNELS}"
            )));
        }
        if config.message_length < 1 {
            return Err(ModelError::BadConfig("message_length must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&config.hot_fraction) {
            return Err(ModelError::BadConfig(
                "hot_fraction must be in [0, 1]".into(),
            ));
        }
        check_lambda(config.lambda)?;
        if u64::from(topo.num_nodes()) > MAX_FAULTY_MODEL_NODES {
            return Err(ModelError::BadConfig(format!(
                "faulty model limited to {MAX_FAULTY_MODEL_NODES} nodes (got {})",
                topo.num_nodes()
            )));
        }
        if config.hot_node.index() >= topo.num_nodes() as usize {
            return Err(ModelError::BadConfig(format!(
                "hot node {} outside the {}-node topology",
                config.hot_node.0,
                topo.num_nodes()
            )));
        }
        let router = FaultRouter::new(config.faults.clone());
        let rates = FaultyChannelRates::from_router(&router, config.hot_node, config.hot_fraction);
        let mean_detour_hops = router.expected_detour();
        Ok(FaultyNCubeModel {
            config,
            router,
            rates,
            mean_detour_hops,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FaultyNCubeConfig {
        &self.config
    }

    /// The fault-aware router backing the enumeration.
    pub fn router(&self) -> &FaultRouter {
        &self.router
    }

    /// The enumerated per-channel loads (per unit `λ`).
    pub fn channel_rates(&self) -> &FaultyChannelRates {
        &self.rates
    }

    /// Whether [`FaultyNCubeModel::solve`] delegates to the closed-form
    /// [`NCubeModel`]: empty fault set on a torus whose geometry the
    /// closed forms cover exactly — the unidirectional link kind, or
    /// `k = 2` where the two link kinds coincide (each ring has two
    /// nodes, so `Plus` reaches everything `Minus` could; pinned by
    /// `tests/degenerate_k2.rs`).
    pub fn delegates_to_ncube(&self) -> bool {
        let topo = self.config.topology();
        self.config.faults.is_empty()
            && topo.boundary() == Boundary::Torus
            && (topo.link_kind() == LinkKind::Unidirectional || topo.k() == 2)
    }

    /// Solve at the configured `λ`.
    pub fn solve(&self) -> Result<FaultyNCubeOutput, ModelError> {
        self.solve_at(self.config.lambda)
    }

    /// Solve at an arbitrary rate `lambda`, reusing the enumerated loads.
    /// Returns what a model built with `lambda` in its configuration
    /// returns from [`FaultyNCubeModel::solve`], bit for bit.
    pub fn solve_at(&self, lambda: f64) -> Result<FaultyNCubeOutput, ModelError> {
        check_lambda(lambda)?;
        if self.delegates_to_ncube() {
            self.solve_delegated(lambda)
        } else {
            self.solve_general_at(lambda)
        }
    }

    /// Find the saturation rate `λ*` by bisection on solvability, exactly
    /// as [`find_saturation_ncube_report`](crate::find_saturation_ncube_report)
    /// does for the fault-free model.  The per-channel path is
    /// non-iterative (each solvable probe counts one iteration); the
    /// delegated fault-free path reports the closed-form solver's
    /// converged iteration counts.
    pub fn saturation(
        &self,
        lo: f64,
        hi: f64,
        rel_tol: f64,
    ) -> Result<SaturationReport, SaturationError> {
        bisect_saturation(lo, hi, rel_tol, |lambda| {
            self.solve_at(lambda).ok().map(|out| out.iterations)
        })
    }

    /// The bit-exact fault-free reduction: map the closed-form solver's
    /// output onto the faulty-model shape.
    fn solve_delegated(&self, lambda: f64) -> Result<FaultyNCubeOutput, ModelError> {
        let topo = self.config.topology();
        let cfg = NCubeConfig::new(
            topo.k(),
            topo.n(),
            self.config.virtual_channels,
            self.config.message_length,
            lambda,
            self.config.hot_fraction,
        );
        let out = NCubeModel::new(cfg)?.solve()?;
        let n = u64::from(topo.num_nodes());
        Ok(FaultyNCubeOutput {
            latency: out.latency,
            regular_latency: out.regular_latency,
            hot_latency: out.hot_latency,
            source_wait_regular: out.source_wait_regular,
            max_utilization: out.max_utilization,
            reachable_pairs: n * (n - 1),
            reachable_fraction: 1.0,
            mean_detour_hops: 0.0,
            delivered_fraction: 1.0,
            iterations: out.iterations,
            delegated: true,
        })
    }

    /// Force the per-channel path at rate `lambda`, even where
    /// [`FaultyNCubeModel::solve`] would delegate — the cross-validation
    /// hook for the reduction tests.
    pub fn solve_general_at(&self, lambda: f64) -> Result<FaultyNCubeOutput, ModelError> {
        check_lambda(lambda)?;
        let topo = *self.config.topology();
        let n_nodes = topo.num_nodes();
        let others = (n_nodes - 1) as f64;
        let lm = self.config.message_length as f64;
        // The default load-independent pipelined-transfer holding time:
        // one header cycle per channel plus the message body (the same
        // `Lm + 1` the fault-free solver converges to immediately).
        let hold = lm + 1.0;
        let v = self.config.virtual_channels;
        let h = self.config.hot_fraction;
        let hot_node = self.config.hot_node;
        let num_channels = topo.num_channels() as usize;

        // --- Per-channel blocking, utilization and multiplexing degree.
        let mut blocking = vec![0.0f64; num_channels];
        let mut vbar = vec![1.0f64; num_channels];
        let mut max_utilization = 0.0f64;
        for id in 0..num_channels {
            let cid = ChannelId(id as u32);
            let regular = TrafficClass::new(self.rates.regular_rate(cid, lambda), hold);
            let hot = TrafficClass::new(self.rates.hot_rate(cid, lambda), hold);
            let utilization = channel_utilization(regular, hot);
            blocking[id] = blocking_delay(regular, hot, lm, RHO_CAP);
            max_utilization = max_utilization.max(utilization);
            vbar[id] = multiplexing_factor(utilization, v);
        }
        if max_utilization >= 1.0 {
            return Err(ModelError::Saturated { max_utilization });
        }

        // --- Per-source composition, one prefix-sum sweep per destination.
        // Down each destination's tree `lat[v] = lat[parent] + 1 + B_c(v)`
        // is the network latency beyond `Lm` of the route from `v`, and
        // `c(v)` is that route's entry channel.  Each source accumulates
        // what Eq. (28) and the class means need: over its reachable
        // destinations, Σ s_net, Σ s_net·v̄_entry, Σ v̄_entry and the count;
        // and its route to the hot node separately.
        let n = n_nodes as usize;
        let mut lat = vec![0.0f64; n];
        let mut sum_s = vec![0.0f64; n];
        let mut sum_sv = vec![0.0f64; n];
        let mut sum_v = vec![0.0f64; n];
        let mut count = vec![0u32; n];
        // (s_net, v̄_entry) of each source's route to the hot node.
        let mut to_hot: Vec<Option<(f64, f64)>> = vec![None; n];
        for dest in topo.nodes() {
            lat[dest.index()] = 0.0;
            for edge in self.router.tree(dest) {
                let (v, c) = (edge.node.index(), edge.channel.index());
                lat[v] = lat[edge.parent.index()] + 1.0 + blocking[c];
                let s_net = lm + lat[v];
                sum_s[v] += s_net;
                sum_sv[v] += s_net * vbar[c];
                sum_v[v] += vbar[c];
                count[v] += 1;
                if dest == hot_node {
                    to_hot[v] = Some((s_net, vbar[c]));
                }
            }
        }

        let mut regular_num = 0.0;
        let mut regular_den = 0.0;
        let mut hot_num = 0.0;
        let mut hot_den = 0.0;
        let mut wait_sum = 0.0;
        let mut healthy_sources = 0u32;
        for src in topo.nodes() {
            if self.config.faults.node_failed(src) {
                continue;
            }
            healthy_sources += 1;
            let s = src.index();
            let regular_share = if src == hot_node { 1.0 } else { 1.0 - h };
            let pair_weight = regular_share / others;
            let regular_weight = pair_weight * count[s] as f64;
            let mut service_num = pair_weight * sum_s[s];
            let mut delivered_weight = regular_weight;
            if let Some((s_net, _)) = to_hot[s] {
                service_num += h * s_net;
                delivered_weight += h;
            }
            // Source queue: Eq. (28) at the *delivered* injection rate per
            // VC, with the delivered-mix mean network latency as service.
            let wait = if delivered_weight > 0.0 {
                let service = service_num / delivered_weight;
                let injection = lambda * delivered_weight / v as f64;
                mg1::waiting_time(injection, service, lm).map_err(|sat| ModelError::Saturated {
                    max_utilization: sat.rho,
                })?
            } else {
                0.0
            };
            wait_sum += wait;
            // Σ (s_net + wait)·v̄_entry over the source's pairs.
            regular_num += pair_weight * (sum_sv[s] + wait * sum_v[s]);
            regular_den += regular_weight;
            if let Some((s_net, entry_vbar)) = to_hot[s] {
                hot_num += h * (s_net + wait) * entry_vbar;
                hot_den += h;
            }
        }
        let latency_num = regular_num + hot_num;
        let latency_den = regular_den + hot_den;

        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let n64 = u64::from(n_nodes);
        Ok(FaultyNCubeOutput {
            latency: ratio(latency_num, latency_den),
            regular_latency: ratio(regular_num, regular_den),
            hot_latency: ratio(hot_num, hot_den),
            source_wait_regular: if healthy_sources > 0 {
                wait_sum / healthy_sources as f64
            } else {
                0.0
            },
            max_utilization,
            reachable_pairs: self.rates.reachable_pairs(),
            reachable_fraction: self.rates.reachable_pairs() as f64 / (n64 * (n64 - 1)) as f64,
            mean_detour_hops: self.mean_detour_hops,
            delivered_fraction: latency_den / n_nodes as f64,
            iterations: 1,
            delegated: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(topo: KAryNCube) -> FaultSet {
        FaultSet::none(topo)
    }

    #[test]
    fn empty_uni_torus_delegates_bit_exact() {
        for (k, n) in [(8u32, 2u32), (4, 3)] {
            let topo = KAryNCube::unidirectional(k, n).unwrap();
            for lambda in [0.0, 1e-5, 1e-4] {
                let model =
                    FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, lambda, 0.2))
                        .unwrap();
                assert!(model.delegates_to_ncube());
                let faulty = model.solve().unwrap();
                let plain = NCubeModel::new(NCubeConfig::new(k, n, 2, 16, lambda, 0.2))
                    .unwrap()
                    .solve()
                    .unwrap();
                assert!(faulty.delegated);
                assert_eq!(faulty.latency.to_bits(), plain.latency.to_bits());
                assert_eq!(
                    faulty.regular_latency.to_bits(),
                    plain.regular_latency.to_bits()
                );
                assert_eq!(faulty.hot_latency.to_bits(), plain.hot_latency.to_bits());
                assert_eq!(faulty.reachable_fraction, 1.0);
                assert_eq!(faulty.mean_detour_hops, 0.0);
            }
        }
    }

    #[test]
    fn bidirectional_and_mesh_take_the_general_path() {
        for topo in [
            KAryNCube::bidirectional(8, 2).unwrap(),
            KAryNCube::mesh(8, 2).unwrap(),
        ] {
            let model =
                FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, 1e-4, 0.2))
                    .unwrap();
            assert!(!model.delegates_to_ncube());
            let out = model.solve().unwrap();
            assert!(!out.delegated);
            assert!(out.latency > 16.0);
            assert_eq!(out.reachable_fraction, 1.0);
        }
    }

    #[test]
    fn general_path_tracks_the_closed_forms_on_the_empty_uni_torus() {
        // The per-channel path and the closed-form solver decompose the
        // same queueing chain differently (exact uniform-over-others
        // destinations vs. the paper's include-self averages), so they
        // agree approximately, not bitwise.  At moderate load the gap
        // stays within a few percent.
        let topo = KAryNCube::unidirectional(8, 2).unwrap();
        let cfg = NCubeConfig::new(8, 2, 2, 16, 0.0, 0.2);
        let sat = crate::find_saturation_ncube(cfg, 1e-9, 1e-2, 1e-3).unwrap();
        for frac in [0.05, 0.3, 0.5] {
            let lambda = frac * sat;
            let plain = NCubeModel::new(NCubeConfig { lambda, ..cfg })
                .unwrap()
                .solve()
                .unwrap();
            let general =
                FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, lambda, 0.2))
                    .unwrap()
                    .solve_general_at(lambda)
                    .unwrap();
            let rel = (general.latency - plain.latency).abs() / plain.latency;
            assert!(
                rel < 0.10,
                "frac {frac}: general {} vs closed-form {} (rel {rel:.4})",
                general.latency,
                plain.latency
            );
        }
    }

    #[test]
    fn zero_load_latency_is_lm_plus_weighted_mean_distance() {
        let topo = KAryNCube::mesh(4, 2).unwrap();
        let h = 0.3;
        let hot = NodeId(0);
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(5));
        let model =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults.clone(), 2, 16, 0.0, h)).unwrap();
        let out = model.solve().unwrap();
        // Recompute from the router's distance table.
        let router = FaultRouter::new(faults);
        let others = (topo.num_nodes() - 1) as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for src in topo.nodes() {
            let share = if src == hot { 1.0 } else { 1.0 - h };
            for dest in topo.nodes() {
                if let Some(d) = router.distance(src, dest).filter(|_| dest != src) {
                    let mut w = share / others;
                    if dest == hot && src != hot {
                        w += h;
                    }
                    num += w * (16.0 + d as f64);
                    den += w;
                }
            }
        }
        let expected = num / den;
        assert!(
            (out.latency - expected).abs() < 1e-9,
            "{} vs {expected}",
            out.latency
        );
    }

    #[test]
    fn latency_grows_with_lambda_until_saturation() {
        let topo = KAryNCube::bidirectional(8, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(11));
        let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 0.0, 0.2)).unwrap();
        let sat = model.saturation(1e-9, 1e-2, 1e-3).unwrap();
        assert!(sat.lambda_star > 0.0);
        assert!(sat.probes > 10);
        assert!(sat.solver_iterations > 0);
        let mut prev = 0.0;
        for i in 1..=8 {
            let lambda = sat.lambda_star * 0.9 * i as f64 / 8.0;
            let out = model.solve_at(lambda).unwrap();
            assert!(out.latency > prev, "λ={lambda}: {} <= {prev}", out.latency);
            prev = out.latency;
        }
        // Past λ* the model reports saturation.
        assert!(matches!(
            model.solve_at(sat.lambda_star * 1.5),
            Err(ModelError::Saturated { .. })
        ));
    }

    #[test]
    fn faults_near_the_hot_node_cost_saturation_bandwidth() {
        let topo = KAryNCube::bidirectional(8, 2).unwrap();
        let fault_free =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(empty(topo), 2, 16, 0.0, 0.3)).unwrap();
        let mut faults = FaultSet::none(topo);
        // Kill both dim-1 links right next to the hot node (0,1)→(0,0)
        // and (0,7)→(0,0): the entire off-row hot funnel must detour onto
        // the dim-0 last hops, concentrating the bottleneck.
        faults.fail_link(kncube_topology::Channel {
            from: topo.node_at(&[0, 1]),
            dim: 1,
            direction: kncube_topology::Direction::Minus,
        });
        faults.fail_link(kncube_topology::Channel {
            from: topo.node_at(&[0, 7]),
            dim: 1,
            direction: kncube_topology::Direction::Plus,
        });
        let faulty =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 0.0, 0.3)).unwrap();
        let sat_free = fault_free.saturation(1e-9, 1e-2, 1e-3).unwrap().lambda_star;
        let sat_faulty = faulty.saturation(1e-9, 1e-2, 1e-3).unwrap().lambda_star;
        assert!(
            sat_faulty < sat_free,
            "λ* should drop: {sat_faulty} vs {sat_free}"
        );
    }

    #[test]
    fn fully_partitioned_network_is_a_legal_degenerate_input() {
        let topo = KAryNCube::mesh(4, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        for node in topo.nodes() {
            faults.fail_node(node);
        }
        let model =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 1e-3, 0.2)).unwrap();
        let out = model.solve().unwrap();
        assert_eq!(out.reachable_pairs, 0);
        assert_eq!(out.reachable_fraction, 0.0);
        assert_eq!(out.delivered_fraction, 0.0);
        assert_eq!(out.latency, 0.0);
        assert_eq!(out.max_utilization, 0.0);
        // No traffic ever saturates: the bisection cannot bracket λ*.
        assert!(matches!(
            model.saturation(1e-9, 1e-2, 1e-3),
            Err(SaturationError::BracketNotFound { .. })
        ));
    }

    #[test]
    fn failed_hot_node_drops_all_hot_traffic() {
        let topo = KAryNCube::bidirectional(4, 2).unwrap();
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(0));
        let model =
            FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 1e-3, 0.4)).unwrap();
        let out = model.solve().unwrap();
        assert_eq!(out.hot_latency, 0.0);
        assert!(out.latency > 16.0);
        // 15 healthy sources deliver only their regular share, and the
        // uniform share aimed at the dead hot node drops too: each source
        // delivers 0.6 · 14/15, so the network-wide fraction is
        // 15 · 0.6 · (14/15) / 16.
        let expected = 0.6 * 14.0 / 16.0;
        assert!(
            (out.delivered_fraction - expected).abs() < 1e-9,
            "{} vs {expected}",
            out.delivered_fraction
        );
    }

    #[test]
    fn bad_configs_are_reported_not_panicked() {
        let topo = KAryNCube::bidirectional(4, 2).unwrap();
        let ok = |cfg: FaultyNCubeConfig| FaultyNCubeModel::new(cfg).map(|_| ());
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 0, 16, 1e-4, 0.2)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(
                empty(topo),
                MAX_VIRTUAL_CHANNELS + 1,
                16,
                1e-4,
                0.2
            )),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 0, 1e-4, 0.2)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 16, f64::NAN, 0.2)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 16, 1e-4, 1.5)),
            Err(ModelError::BadConfig(_))
        ));
        assert!(matches!(
            ok(FaultyNCubeConfig::new(empty(topo), 2, 16, 1e-4, 0.2).with_hot_node(NodeId(16))),
            Err(ModelError::BadConfig(_))
        ));
    }

    #[test]
    fn delegated_saturation_matches_the_closed_form_search() {
        // On the empty uni torus every probe delegates to the closed-form
        // model, so the bisection lands on the same λ* bit for bit.
        let topo = KAryNCube::unidirectional(8, 2).unwrap();
        let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(
            FaultSet::none(topo),
            2,
            16,
            0.0,
            0.3,
        ))
        .unwrap();
        let faulty = model.saturation(1e-9, 1e-2, 1e-3).unwrap();
        let closed = crate::find_saturation_ncube_report(
            NCubeConfig::new(8, 2, 2, 16, 0.0, 0.3),
            1e-9,
            1e-2,
            1e-3,
        )
        .unwrap();
        assert_eq!(faulty.lambda_star.to_bits(), closed.lambda_star.to_bits());
        assert_eq!(faulty.probes, closed.probes);
    }
}
