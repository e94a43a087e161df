//! Message arrival processes.
//!
//! Assumption (i) of the model: each node generates traffic following a
//! Poisson process with mean rate `λ` messages/cycle.  The conclusion of
//! the paper names the extension to "non-Poissonian traffic load,
//! including bursty and self-similar traffic" as future work — the
//! [`ArrivalProcess::OnOff`] process (a two-state Markov-modulated Poisson
//! process) implements exactly that extension on the simulation side.
//!
//! Sampling is by *gaps*: [`ArrivalSampler::next_arrival_after`] returns
//! the real-valued time of the next arrival, which both matches the
//! continuous-time definitions exactly and lets the simulator skip idle
//! stretches.  A sampler knows the run's horizon: an on-off phase that
//! starts at or past it ends the stream (`f64::INFINITY`), so walking
//! the phases never outlasts the run.

use rand::Rng;

/// Description of a per-node arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// `Poisson(λ)` — exponential inter-arrival gaps (the paper's
    /// assumption (i)).
    Poisson(f64),
    /// Two-state Markov-modulated Poisson process: bursts of Poisson
    /// arrivals at `rate_on` lasting `Exp(mean_on)` cycles, separated by
    /// silent gaps lasting `Exp(mean_off)` cycles.  Mean rate
    /// `rate_on · mean_on / (mean_on + mean_off)`.
    OnOff {
        /// Arrival rate while a burst is active, messages/cycle.
        rate_on: f64,
        /// Mean burst duration, cycles.
        mean_on: f64,
        /// Mean silence duration, cycles.
        mean_off: f64,
    },
}

impl ArrivalProcess {
    /// A bursty process with the given `mean_rate`, peak-to-mean ratio
    /// `beta >= 1` (burstiness; `beta = 1` degenerates to Poisson), and
    /// mean burst duration `mean_burst` cycles.
    pub fn bursty(mean_rate: f64, beta: f64, mean_burst: f64) -> Self {
        assert!(mean_rate >= 0.0);
        assert!(beta >= 1.0, "peak-to-mean ratio must be >= 1");
        assert!(mean_burst > 0.0);
        if beta == 1.0 {
            return ArrivalProcess::Poisson(mean_rate);
        }
        // π_on = 1/β  ⇒  mean_off = mean_on (β - 1).
        ArrivalProcess::OnOff {
            rate_on: mean_rate * beta,
            mean_on: mean_burst,
            mean_off: mean_burst * (beta - 1.0),
        }
    }

    /// Long-run mean arrivals per cycle.
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson(l) => l,
            ArrivalProcess::OnOff {
                rate_on,
                mean_on,
                mean_off,
            } => rate_on * mean_on / (mean_on + mean_off),
        }
    }

    /// Peak-to-mean ratio (1 for Poisson).
    pub fn burstiness(&self) -> f64 {
        match *self {
            ArrivalProcess::OnOff {
                mean_on, mean_off, ..
            } => (mean_on + mean_off) / mean_on,
            _ => 1.0,
        }
    }
}

/// Phase of a stateful arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// Memoryless process — no phase to track.
    Steady,
    /// Inside a burst until the given time.
    On {
        /// Burst end time.
        until: f64,
    },
    /// Silent until the given time.
    Off {
        /// Silence end time.
        until: f64,
    },
}

/// Stateful gap sampler for an [`ArrivalProcess`].
#[derive(Clone, Debug)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    phase: Phase,
    /// End of the run: no arrival at or after it is needed.
    horizon: f64,
}

/// Exponential variate with the given mean.
fn exp_with_mean<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() * mean
}

impl ArrivalSampler {
    /// Build a sampler for a run that ends at `horizon`; `OnOff`
    /// processes start in the silent phase (the first burst begins after
    /// one `Exp(mean_off)` gap), so independent nodes desynchronise
    /// naturally.
    pub fn new(process: ArrivalProcess, horizon: f64) -> Self {
        ArrivalSampler {
            process,
            phase: Phase::Steady,
            horizon,
        }
    }

    /// Time of the first arrival strictly after `t` (`f64::INFINITY` when
    /// the rate is zero, or when the on-off phase that would hold it
    /// starts at or past the horizon).  Every arrival before the horizon
    /// is the one an unbounded sampler draws.
    pub fn next_arrival_after<R: Rng + ?Sized>(&mut self, t: f64, rng: &mut R) -> f64 {
        match self.process {
            ArrivalProcess::Poisson(lambda) => {
                if lambda <= 0.0 {
                    f64::INFINITY
                } else {
                    t + exp_with_mean(1.0 / lambda, rng)
                }
            }
            ArrivalProcess::OnOff {
                rate_on,
                mean_on,
                mean_off,
            } => {
                if rate_on <= 0.0 {
                    return f64::INFINITY;
                }
                let mut now = t;
                // Initialise the phase lazily on first use.
                if self.phase == Phase::Steady {
                    self.phase = Phase::Off {
                        until: now + exp_with_mean(mean_off, rng),
                    };
                }
                loop {
                    match self.phase {
                        Phase::Off { until } => {
                            now = now.max(until);
                            if now >= self.horizon {
                                return f64::INFINITY;
                            }
                            self.phase = Phase::On {
                                until: now + exp_with_mean(mean_on, rng),
                            };
                        }
                        Phase::On { until } => {
                            let candidate = now + exp_with_mean(1.0 / rate_on, rng);
                            if candidate < until {
                                return candidate;
                            }
                            now = until;
                            if now >= self.horizon {
                                return f64::INFINITY;
                            }
                            self.phase = Phase::Off {
                                until: now + exp_with_mean(mean_off, rng),
                            };
                        }
                        Phase::Steady => unreachable!("initialised above"),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Count arrivals of `process` in `[0, horizon)`.
    fn count_arrivals(process: ArrivalProcess, horizon: f64, seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sampler = ArrivalSampler::new(process, f64::INFINITY);
        let mut t = sampler.next_arrival_after(0.0, &mut rng);
        let mut count = 0;
        while t < horizon {
            count += 1;
            t = sampler.next_arrival_after(t, &mut rng);
        }
        count
    }

    #[test]
    fn rates_report_correctly() {
        assert_eq!(ArrivalProcess::Poisson(0.25).rate(), 0.25);
        let bursty = ArrivalProcess::bursty(0.01, 5.0, 100.0);
        assert!((bursty.rate() - 0.01).abs() < 1e-12);
        assert!((bursty.burstiness() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bursty_with_beta_one_is_poisson() {
        assert_eq!(
            ArrivalProcess::bursty(0.02, 1.0, 50.0),
            ArrivalProcess::Poisson(0.02)
        );
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let lambda = 0.05;
        let n = count_arrivals(ArrivalProcess::Poisson(lambda), 2e5, 7);
        let mean = n as f64 / 2e5;
        assert!((mean - lambda).abs() < 0.003, "mean {mean} vs {lambda}");
    }

    #[test]
    fn onoff_mean_rate_matches_construction() {
        for beta in [2.0, 5.0, 16.0] {
            let mean = 0.02;
            let p = ArrivalProcess::bursty(mean, beta, 200.0);
            let n = count_arrivals(p, 5e5, 11);
            let observed = n as f64 / 5e5;
            assert!(
                (observed - mean).abs() < 0.15 * mean,
                "beta={beta}: observed {observed} vs {mean}"
            );
        }
    }

    #[test]
    fn onoff_is_actually_bursty() {
        // Count arrivals in windows; the index of dispersion (var/mean)
        // must exceed 1 (Poisson) markedly.
        let window = 500.0;
        let horizon = 4e5;
        let dispersion = |process: ArrivalProcess, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = ArrivalSampler::new(process, f64::INFINITY);
            let mut counts = vec![0u32; (horizon / window) as usize];
            let mut t = s.next_arrival_after(0.0, &mut rng);
            while t < horizon {
                counts[(t / window) as usize] += 1;
                t = s.next_arrival_after(t, &mut rng);
            }
            let n = counts.len() as f64;
            let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / (n - 1.0);
            var / mean
        };
        let poisson = dispersion(ArrivalProcess::Poisson(0.02), 13);
        let bursty = dispersion(ArrivalProcess::bursty(0.02, 8.0, 200.0), 13);
        assert!(poisson < 2.0, "poisson dispersion {poisson}");
        assert!(
            bursty > 3.0 * poisson,
            "bursty dispersion {bursty} vs poisson {poisson}"
        );
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut s = ArrivalSampler::new(ArrivalProcess::Poisson(0.0), f64::INFINITY);
        assert_eq!(s.next_arrival_after(0.0, &mut rng), f64::INFINITY);
        let mut s = ArrivalSampler::new(
            ArrivalProcess::OnOff {
                rate_on: 0.0,
                mean_on: 1.0,
                mean_off: 1.0,
            },
            f64::INFINITY,
        );
        assert_eq!(s.next_arrival_after(0.0, &mut rng), f64::INFINITY);
    }

    #[test]
    fn the_horizon_ends_the_stream_without_moving_earlier_arrivals() {
        let horizon = 2e5;
        // Arrivals before `horizon` from a sampler bounded at `bound`.
        let arrivals = |bound| {
            let mut rng = SmallRng::seed_from_u64(5);
            let mut s = ArrivalSampler::new(ArrivalProcess::bursty(0.01, 6.0, 150.0), bound);
            let mut times = Vec::new();
            let mut t = s.next_arrival_after(0.0, &mut rng);
            while t < horizon {
                times.push(t);
                t = s.next_arrival_after(t, &mut rng);
            }
            (times, t)
        };
        let (bounded, end) = arrivals(horizon);
        assert!(bounded.len() > 1000);
        assert_eq!(bounded, arrivals(f64::INFINITY).0);
        assert!(end >= horizon);
        // A first silence far past the horizon ends the stream at once.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut s = ArrivalSampler::new(
            ArrivalProcess::OnOff {
                rate_on: 1e300,
                mean_on: 1.0,
                mean_off: 1e300,
            },
            horizon,
        );
        assert_eq!(s.next_arrival_after(0.0, &mut rng), f64::INFINITY);
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut rng = SmallRng::seed_from_u64(21);
        for p in [
            ArrivalProcess::Poisson(0.5),
            ArrivalProcess::bursty(0.1, 4.0, 20.0),
        ] {
            let mut s = ArrivalSampler::new(p, f64::INFINITY);
            let mut t = 0.0;
            for _ in 0..500 {
                let next = s.next_arrival_after(t, &mut rng);
                assert!(next > t, "{p:?}: {next} !> {t}");
                t = next;
            }
        }
    }
}
