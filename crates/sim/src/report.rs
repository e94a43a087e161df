//! Simulation results.

use std::fmt;

/// Everything a finished run reports.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Mean message latency over measured messages (cycles), generation to
    /// tail delivery.
    pub mean_latency: f64,
    /// 95% batch-means confidence half-width, when enough batches filled.
    pub ci_half_width: Option<f64>,
    /// Sample standard deviation of the measured latencies.
    pub latency_std_dev: f64,
    /// Largest measured latency.
    pub max_latency: f64,
    /// Measured messages completed.
    pub completed: u64,
    /// Measured regular messages completed.
    pub completed_regular: u64,
    /// Measured hot-spot messages completed.
    pub completed_hot: u64,
    /// Mean latency of regular messages (the model's `S_r` counterpart).
    pub mean_latency_regular: f64,
    /// Mean latency of hot-spot messages (the model's `S_h` counterpart).
    pub mean_latency_hot: f64,
    /// All messages generated (warm-up included).
    pub generated: u64,
    /// Messages dropped at generation because the fault set left their
    /// source and destination disconnected (0 without fault injection).
    pub dropped_unreachable: u64,
    /// Mean extra hops of measured messages over the fault-free minimal
    /// distance (0.0 without fault injection: dimension-order routes are
    /// minimal).
    pub mean_detour_hops: f64,
    /// Fraction of ordered node pairs that can still communicate under the
    /// sampled fault set (1.0 without fault injection).
    pub reachable_fraction: f64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Delivered messages per node per cycle over the measurement window.
    pub throughput: f64,
    /// Offered load `λ` (messages per node per cycle).
    pub offered_load: f64,
    /// Measured average virtual-channel multiplexing degree: busy VCs
    /// averaged over busy network channels (the quantity Eqs. 33–35
    /// model).
    pub vbar_measured: f64,
    /// Largest source-queue length observed.
    pub max_source_queue: usize,
    /// Messages still in flight when the run stopped.
    pub in_flight_at_end: u64,
    /// The run was cut short because a source queue exceeded the bound —
    /// the operating point is past saturation.
    pub saturated: bool,
    /// The deadlock watchdog fired (should never happen with `V >= 2`).
    pub deadlocked: bool,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency {:.1}±{} cycles (reg {:.1}, hot {:.1}), {} msgs in {} cycles, V̄={:.3}{}{}{}",
            self.mean_latency,
            match self.ci_half_width {
                Some(hw) => format!("{hw:.1}"),
                None => "?".to_string(),
            },
            self.mean_latency_regular,
            self.mean_latency_hot,
            self.completed,
            self.cycles,
            self.vbar_measured,
            if self.dropped_unreachable > 0 {
                format!(
                    " (reach {:.3}, {} dropped, detour {:.2})",
                    self.reachable_fraction, self.dropped_unreachable, self.mean_detour_hops
                )
            } else {
                String::new()
            },
            if self.saturated { " SATURATED" } else { "" },
            if self.deadlocked { " DEADLOCK" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            mean_latency: 100.0,
            ci_half_width: Some(5.0),
            latency_std_dev: 20.0,
            max_latency: 300.0,
            completed: 1000,
            completed_regular: 800,
            completed_hot: 200,
            mean_latency_regular: 90.0,
            mean_latency_hot: 140.0,
            generated: 1100,
            dropped_unreachable: 0,
            mean_detour_hops: 0.0,
            reachable_fraction: 1.0,
            cycles: 50_000,
            throughput: 1e-4,
            offered_load: 1e-4,
            vbar_measured: 1.2,
            max_source_queue: 3,
            in_flight_at_end: 7,
            saturated: false,
            deadlocked: false,
        }
    }

    #[test]
    fn display_mentions_saturation() {
        let mut r = report();
        r.saturated = true;
        assert!(format!("{r}").contains("SATURATED"));
    }

    #[test]
    fn display_mentions_drops_only_under_faults() {
        let r = report();
        assert!(!format!("{r}").contains("dropped"));
        let mut r = report();
        r.dropped_unreachable = 12;
        r.reachable_fraction = 0.875;
        r.mean_detour_hops = 0.25;
        let s = format!("{r}");
        assert!(s.contains("12 dropped") && s.contains("reach 0.875"));
    }
}
