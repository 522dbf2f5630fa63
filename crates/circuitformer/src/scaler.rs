//! Label normalization for the regression targets.
//!
//! Timing, area and power span several orders of magnitude across paths
//! (and designs — Figure 6's axes are log-scale), so the Circuitformer and
//! the Aggregation MLP are trained in standardized log space.

use sns_rt::json::{Json, JsonError};

/// A per-dimension `ln → standardize` transform over the three targets
/// (timing, area, power).
///
/// # Example
///
/// ```rust
/// use sns_circuitformer::LabelScaler;
///
/// let labels = vec![[100.0, 10.0, 0.01], [1000.0, 500.0, 0.5], [250.0, 50.0, 0.05]];
/// let scaler = LabelScaler::fit(&labels);
/// let z = scaler.transform([100.0, 10.0, 0.01]);
/// let back = scaler.inverse(z);
/// for (a, b) in back.iter().zip([100.0, 10.0, 0.01]) {
///     assert!((a - b).abs() / b < 1e-4);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LabelScaler {
    mean: [f32; 3],
    std: [f32; 3],
}

/// Floor added before the log so zero labels stay finite.
const EPS: f64 = 1e-9;

impl LabelScaler {
    /// Fits the transform on raw `[timing, area, power]` labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    pub fn fit(labels: &[[f64; 3]]) -> Self {
        assert!(!labels.is_empty(), "cannot fit a scaler on no labels");
        let n = labels.len() as f64;
        let mut mean = [0.0f64; 3];
        for l in labels {
            for d in 0..3 {
                mean[d] += (l[d] + EPS).ln();
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = [0.0f64; 3];
        for l in labels {
            for d in 0..3 {
                let z = (l[d] + EPS).ln() - mean[d];
                var[d] += z * z;
            }
        }
        let mut std = [0.0f32; 3];
        for d in 0..3 {
            std[d] = ((var[d] / n).sqrt() as f32).max(1e-4);
        }
        LabelScaler { mean: [mean[0] as f32, mean[1] as f32, mean[2] as f32], std }
    }

    /// Raw label → normalized log space.
    pub fn transform(&self, raw: [f64; 3]) -> [f32; 3] {
        let mut out = [0.0f32; 3];
        for d in 0..3 {
            out[d] = (((raw[d] + EPS).ln() as f32) - self.mean[d]) / self.std[d];
        }
        out
    }

    /// Normalized log space → raw label.
    pub fn inverse(&self, z: [f32; 3]) -> [f64; 3] {
        let mut out = [0.0f64; 3];
        for d in 0..3 {
            out[d] = self.inverse_dim(d, z[d]);
        }
        out
    }

    /// Transforms a single dimension (0 = timing, 1 = area, 2 = power).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= 3`.
    pub fn transform_dim(&self, dim: usize, raw: f64) -> f32 {
        (((raw + EPS).ln() as f32) - self.mean[dim]) / self.std[dim]
    }

    /// Inverts a single dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= 3`.
    pub fn inverse_dim(&self, dim: usize, z: f32) -> f64 {
        ((z * self.std[dim] + self.mean[dim]) as f64).exp() - EPS
    }

    /// The JSON form (`{"mean":[...],"std":[...]}` — the same shape the
    /// serde derive used to emit, so old model files still load).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mean", Json::from_f32_slice(&self.mean)),
            ("std", Json::from_f32_slice(&self.std)),
        ])
    }

    /// Reconstructs a scaler from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(LabelScaler {
            mean: v.get("mean")?.as_f32_array::<3>()?,
            std: v.get("std")?.as_f32_array::<3>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_standardizes_the_fit_set() {
        let labels: Vec<[f64; 3]> =
            (1..=100).map(|i| [i as f64 * 10.0, i as f64, i as f64 * 0.001]).collect();
        let s = LabelScaler::fit(&labels);
        let mut mean = [0.0f32; 3];
        for l in &labels {
            let z = s.transform(*l);
            for d in 0..3 {
                mean[d] += z[d];
            }
        }
        for (d, m) in mean.iter().enumerate() {
            assert!((m / 100.0).abs() < 1e-3, "dim {d} mean {}", m / 100.0);
        }
    }

    #[test]
    fn round_trip_is_accurate() {
        let labels = vec![[400.0, 10.0, 0.01], [1200.0, 99.0, 0.2], [77.0, 3.0, 0.004]];
        let s = LabelScaler::fit(&labels);
        for l in &labels {
            let back = s.inverse(s.transform(*l));
            for d in 0..3 {
                assert!((back[d] - l[d]).abs() / l[d] < 1e-3, "dim {d}");
            }
        }
    }

    #[test]
    fn zero_labels_stay_finite() {
        let s = LabelScaler::fit(&[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]);
        let z = s.transform([0.0, 0.0, 0.0]);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn json_round_trip() {
        let s = LabelScaler::fit(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let json = s.to_json().print();
        let back = LabelScaler::from_json(&sns_rt::json::parse(&json).unwrap()).unwrap();
        assert_eq!(s, back);
        // The serde-era field layout is preserved.
        assert!(json.starts_with(r#"{"mean":["#), "{json}");
    }

    #[test]
    #[should_panic(expected = "no labels")]
    fn empty_fit_panics() {
        let _ = LabelScaler::fit(&[]);
    }
}
