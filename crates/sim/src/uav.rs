use serde::{Deserialize, Serialize};

/// A UAV airframe model: the quantities the maximum-safe-velocity bound
/// needs (paper §5.1 / Krishnan et al.).
///
/// The paper lists "rotor pull power" as 3600/588 for the two airframes;
/// read as gram-force these give thrust-to-weight ratios of ≈ 1.9 (Pelican)
/// and ≈ 1.7 (Spark), which match the published airframes, so that is the
/// interpretation used here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UavModel {
    /// Airframe name.
    pub name: &'static str,
    /// Take-off mass in kilograms.
    pub mass_kg: f64,
    /// Maximum collective rotor thrust in newtons.
    pub max_thrust_n: f64,
    /// Sensor frame rate in Hz (both paper UAVs carry 50 Hz sensors).
    pub sensor_fps: f64,
}

const G: f64 = 9.81;

impl UavModel {
    /// AscTec Pelican: 1872 g, 3600 gf rotor pull, 50 Hz sensor.
    pub fn asctec_pelican() -> Self {
        UavModel {
            name: "asctec-pelican",
            mass_kg: 1.872,
            max_thrust_n: 3.600 * G, // 3600 gf
            sensor_fps: 50.0,
        }
    }

    /// DJI Spark: 350 g, 588 gf rotor pull, 50 Hz sensor.
    pub(crate) fn dji_spark() -> Self {
        UavModel {
            name: "dji-spark",
            mass_kg: 0.350,
            max_thrust_n: 0.588 * G, // 588 gf
            sensor_fps: 50.0,
        }
    }

    /// Both paper airframes.
    pub fn all() -> [UavModel; 2] {
        [UavModel::asctec_pelican(), UavModel::dji_spark()]
    }

    /// Maximum braking deceleration (m/s²): the thrust margin beyond
    /// hovering, `(T − m·g)/m`, floored at a small positive value so the
    /// model stays defined for underpowered configurations.
    pub(crate) fn max_deceleration(&self) -> f64 {
        ((self.max_thrust_n - self.mass_kg * G) / self.mass_kg).max(0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pelican_is_more_powerful_than_spark() {
        let p = UavModel::asctec_pelican();
        let s = UavModel::dji_spark();
        assert!(p.max_deceleration() > s.max_deceleration());
    }

    #[test]
    fn thrust_to_weight_in_plausible_band() {
        for uav in UavModel::all() {
            let tw = uav.max_thrust_n / (uav.mass_kg * G);
            assert!((1.2..2.5).contains(&tw), "{}: {tw}", uav.name);
        }
    }

    #[test]
    fn sensor_fps_matches_paper() {
        for uav in UavModel::all() {
            assert_eq!(uav.sensor_fps, 50.0);
        }
    }
}
