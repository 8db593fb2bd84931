use serde::{Deserialize, Serialize};

/// Converts a probability in `(0, 1)` to its log-odds.
///
/// # Example
///
/// ```
/// # use octocache_octomap::prob_to_logodds;
/// assert_eq!(prob_to_logodds(0.5), 0.0);
/// assert!(prob_to_logodds(0.7) > 0.0);
/// ```
#[inline]
pub fn prob_to_logodds(p: f64) -> f32 {
    (p / (1.0 - p)).ln() as f32
}

/// Converts a log-odds value back to a probability in `(0, 1)`.
///
/// # Example
///
/// ```
/// # use octocache_octomap::{logodds_to_prob, prob_to_logodds};
/// let p = logodds_to_prob(prob_to_logodds(0.7));
/// assert!((p - 0.7).abs() < 1e-6);
/// ```
#[inline]
pub fn logodds_to_prob(l: f32) -> f64 {
    1.0 / (1.0 + (-l as f64).exp())
}

/// The occupancy sensor model: log-odds update deltas, clamping bounds and
/// the occupied/free decision threshold.
///
/// Terminology maps onto the paper's §2.2 as follows: `delta_occupied` /
/// `delta_free` are the per-update heuristics `δ_occupied` / `δ_free`;
/// `clamp_min` / `clamp_max` are `min_occ` / `max_occ`; `threshold` is `t`.
/// The defaults are reference OctoMap's: hit probability 0.7, miss
/// probability 0.4, clamping probabilities 0.12 / 0.97, threshold 0.5.
///
/// # Example
///
/// ```
/// # use octocache_octomap::OccupancyParams;
/// let params = OccupancyParams::default();
/// // One hit then one miss leaves the voxel net-occupied (0.85 - 0.41 > 0).
/// let l = params.apply(params.apply(0.0, true), false);
/// assert!(params.is_occupied(l));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancyParams {
    /// Log-odds added on an occupied observation (`δ_occupied`, > 0).
    pub delta_occupied: f32,
    /// Log-odds subtracted on a free observation (`δ_free`, stored > 0).
    pub delta_free: f32,
    /// Lower clamping bound (`min_occ`).
    pub clamp_min: f32,
    /// Upper clamping bound (`max_occ`).
    pub clamp_max: f32,
    /// Occupancy decision threshold (`t`): log-odds ≥ `threshold` is occupied.
    pub threshold: f32,
}

impl Default for OccupancyParams {
    fn default() -> Self {
        OccupancyParams {
            delta_occupied: prob_to_logodds(0.7), // ≈ +0.85
            delta_free: -prob_to_logodds(0.4),    // ≈ +0.41 (subtracted)
            clamp_min: prob_to_logodds(0.12),     // ≈ -2.0
            clamp_max: prob_to_logodds(0.97),     // ≈ +3.5
            threshold: prob_to_logodds(0.5),      // 0.0
        }
    }
}

impl OccupancyParams {
    /// Validates internal consistency (positive deltas, finite ordered
    /// clamps, threshold within the clamp range). Useful when constructing
    /// params from configuration files.
    pub fn validate(&self) -> Result<(), String> {
        if self.delta_occupied.is_nan() || self.delta_occupied <= 0.0 {
            return Err(format!(
                "delta_occupied must be > 0, got {}",
                self.delta_occupied
            ));
        }
        if self.delta_free.is_nan() || self.delta_free <= 0.0 {
            return Err(format!("delta_free must be > 0, got {}", self.delta_free));
        }
        if !self.clamp_min.is_finite()
            || !self.clamp_max.is_finite()
            || self.clamp_min >= self.clamp_max
        {
            return Err(format!(
                "clamp_min {} must be below clamp_max {}",
                self.clamp_min, self.clamp_max
            ));
        }
        if !(self.clamp_min..=self.clamp_max).contains(&self.threshold) {
            return Err(format!(
                "threshold {} outside clamp range [{}, {}]",
                self.threshold, self.clamp_min, self.clamp_max
            ));
        }
        Ok(())
    }

    /// Applies one observation to a log-odds value, clamping to the bounds.
    ///
    /// This is the per-voxel update rule from the paper's §2.2:
    /// `min(l + δ_occupied, max_occ)` for occupied observations,
    /// `max(l − δ_free, min_occ)` for free ones.
    #[inline]
    pub fn apply(&self, log_odds: f32, occupied: bool) -> f32 {
        if occupied {
            (log_odds + self.delta_occupied).min(self.clamp_max)
        } else {
            (log_odds - self.delta_free).max(self.clamp_min)
        }
    }

    /// The signed delta for one observation (before clamping).
    #[inline]
    pub fn delta(&self, occupied: bool) -> f32 {
        if occupied {
            self.delta_occupied
        } else {
            -self.delta_free
        }
    }

    /// Clamps an arbitrary log-odds value into the allowed range. A NaN
    /// carries no evidence either way, so it clamps to the prior,
    /// `threshold`. Every tree write stores its value through this (or
    /// through [`apply`](Self::apply)), so under validated params a tree
    /// holds only finite values: a map the library writes it can read back.
    #[inline]
    pub fn clamp(&self, log_odds: f32) -> f32 {
        if log_odds.is_nan() {
            return self.threshold;
        }
        log_odds.clamp(self.clamp_min, self.clamp_max)
    }

    /// True when a log-odds value crosses the occupancy threshold.
    #[inline]
    pub fn is_occupied(&self, log_odds: f32) -> bool {
        log_odds >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn defaults_match_octomap_reference() {
        let p = OccupancyParams::default();
        assert!((p.delta_occupied - 0.8473).abs() < 1e-3);
        assert!((p.delta_free - 0.4055).abs() < 1e-3);
        assert!((p.clamp_min + 1.9924).abs() < 1e-3);
        assert!((p.clamp_max - 3.4761).abs() < 1e-3);
        assert_eq!(p.threshold, 0.0);
        p.validate().unwrap();
    }

    #[test]
    fn prob_logodds_roundtrip() {
        for p in [0.12, 0.3, 0.5, 0.7, 0.97] {
            let back = logodds_to_prob(prob_to_logodds(p));
            assert!((back - p).abs() < 1e-6, "{p} -> {back}");
        }
    }

    #[test]
    fn apply_clamps_at_bounds() {
        let p = OccupancyParams::default();
        let mut l = 0.0f32;
        for _ in 0..100 {
            l = p.apply(l, true);
        }
        assert_eq!(l, p.clamp_max);
        for _ in 0..100 {
            l = p.apply(l, false);
        }
        assert_eq!(l, p.clamp_min);
    }

    #[test]
    fn threshold_decision() {
        let p = OccupancyParams::default();
        assert!(p.is_occupied(0.0));
        assert!(p.is_occupied(1.0));
        assert!(!p.is_occupied(-0.01));
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let good = OccupancyParams::default();
        assert!(OccupancyParams {
            delta_occupied: 0.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(OccupancyParams {
            delta_free: -0.1,
            ..good
        }
        .validate()
        .is_err());
        assert!(OccupancyParams {
            clamp_min: 5.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(OccupancyParams {
            threshold: 100.0,
            ..good
        }
        .validate()
        .is_err());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for params in [
                OccupancyParams {
                    clamp_min: bad,
                    ..good
                },
                OccupancyParams {
                    clamp_max: bad,
                    ..good
                },
                OccupancyParams {
                    threshold: bad,
                    ..good
                },
            ] {
                assert!(params.validate().is_err(), "{params:?}");
            }
        }
    }

    #[test]
    fn clamp_stores_the_prior_for_nan() {
        let p = OccupancyParams::default();
        assert_eq!(p.clamp(f32::NAN), p.threshold);
        assert_eq!(p.clamp(f32::INFINITY), p.clamp_max);
        assert_eq!(p.clamp(f32::NEG_INFINITY), p.clamp_min);
    }

    #[test]
    fn delta_signs() {
        let p = OccupancyParams::default();
        assert!(p.delta(true) > 0.0);
        assert!(p.delta(false) < 0.0);
    }

    proptest! {
        #[test]
        fn prop_apply_stays_in_clamp_range(
            l in -5.0f32..5.0,
            occupied in any::<bool>(),
        ) {
            let p = OccupancyParams::default();
            let l = p.clamp(l);
            let next = p.apply(l, occupied);
            prop_assert!(next >= p.clamp_min && next <= p.clamp_max);
        }

        #[test]
        fn prop_apply_monotone_in_observation(l in -5.0f32..5.0) {
            // Monotonicity holds for values inside the clamp range (values
            // outside it are first pulled back to the bounds).
            let p = OccupancyParams::default();
            let l = p.clamp(l);
            prop_assert!(p.apply(l, true) >= l);
            prop_assert!(p.apply(l, false) <= l);
        }

        #[test]
        fn prop_logodds_prob_monotone(a in -5.0f32..5.0, b in -5.0f32..5.0) {
            if a < b {
                prop_assert!(logodds_to_prob(a) < logodds_to_prob(b));
            }
        }
    }
}
