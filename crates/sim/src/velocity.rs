//! The maximum safe flight velocity bound (paper §5.1, metric 2).
//!
//! Krishnan et al.'s roofline model bounds a UAV's velocity by its ability
//! to stop within the sensed free space: during the reaction time (one
//! sensor period plus the compute latency of perception + planning) the UAV
//! travels at full speed, then brakes at its maximum deceleration. The
//! bound solves
//!
//! ```text
//! v · t_react + v² / (2 a_brake) = R_sense
//! ```
//!
//! for `v`. A slower mapping system inflates `t_react` and therefore
//! directly lowers the safe velocity — the mechanism by which OctoCache's
//! runtime savings become mission-time savings in Figures 16–19.

use crate::uav::UavModel;

/// Solves the stopping-distance equation for the maximum safe velocity.
///
/// * `sensing_range` — metres of guaranteed sensed free space ahead.
/// * `reaction_time_s` — seconds of full-speed travel before braking
///   begins (sensor period + compute latency).
/// * `deceleration` — braking deceleration in m/s².
///
/// Returns 0 for degenerate inputs (non-positive range or deceleration).
pub(crate) fn max_safe_velocity(
    sensing_range: f64,
    reaction_time_s: f64,
    deceleration: f64,
) -> f64 {
    if sensing_range <= 0.0 || deceleration <= 0.0 {
        return 0.0;
    }
    let t = reaction_time_s.max(0.0);
    let a = deceleration;
    // v = a·(−t + sqrt(t² + 2R/a)) — the positive root of the quadratic.
    a * (-t + (t * t + 2.0 * sensing_range / a).sqrt())
}

/// The velocity bound for a UAV given a measured per-cycle compute latency.
///
/// Reaction time is one sensor frame period plus the compute latency —
/// the end-to-end cycle time of the perception/planning pipeline.
pub fn uav_max_velocity(uav: &UavModel, sensing_range: f64, compute_latency_s: f64) -> f64 {
    let t_react = 1.0 / uav.sensor_fps + compute_latency_s.max(0.0);
    max_safe_velocity(sensing_range, t_react, uav.max_deceleration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_reaction_time_gives_pure_braking_bound() {
        // v = sqrt(2 a R)
        let v = max_safe_velocity(8.0, 0.0, 4.0);
        assert!((v - (2.0f64 * 4.0 * 8.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn velocity_decreases_with_compute_latency() {
        let uav = UavModel::asctec_pelican();
        let fast = uav_max_velocity(&uav, 8.0, 0.010);
        let slow = uav_max_velocity(&uav, 8.0, 0.200);
        assert!(fast > slow, "{fast} !> {slow}");
    }

    #[test]
    fn velocity_increases_with_sensing_range() {
        let uav = UavModel::asctec_pelican();
        assert!(uav_max_velocity(&uav, 8.0, 0.05) > uav_max_velocity(&uav, 3.0, 0.05));
    }

    #[test]
    fn stronger_uav_flies_faster() {
        let pelican = UavModel::asctec_pelican();
        let spark = UavModel::dji_spark();
        assert!(uav_max_velocity(&pelican, 6.0, 0.05) > uav_max_velocity(&spark, 6.0, 0.05));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(max_safe_velocity(0.0, 0.1, 4.0), 0.0);
        assert_eq!(max_safe_velocity(-1.0, 0.1, 4.0), 0.0);
        assert_eq!(max_safe_velocity(5.0, 0.1, 0.0), 0.0);
    }

    proptest! {
        /// The bound actually satisfies the stopping-distance equation.
        #[test]
        fn prop_solves_stopping_equation(
            range in 0.5f64..50.0,
            t in 0.0f64..1.0,
            a in 0.5f64..20.0,
        ) {
            let v = max_safe_velocity(range, t, a);
            let stopping = v * t + v * v / (2.0 * a);
            prop_assert!((stopping - range).abs() < 1e-6 * range.max(1.0));
        }

        /// Monotonicity: more latency never raises the bound.
        #[test]
        fn prop_latency_monotone(
            range in 0.5f64..50.0,
            t1 in 0.0f64..1.0,
            dt in 0.0f64..1.0,
            a in 0.5f64..20.0,
        ) {
            prop_assert!(
                max_safe_velocity(range, t1 + dt, a) <= max_safe_velocity(range, t1, a) + 1e-12
            );
        }
    }
}
