//! Guided greedy parameter search (§6: "we run a guided greedy search to
//! estimate appropriate parameters for our model and Zhel to generate
//! synthetic SAN that best match the Google+").
//!
//! The calibration target is a vector of cheap summary statistics of the
//! reference SAN; the search proposes multiplicative/additive moves on the
//! generative knobs, regenerates at reduced scale, and keeps any move that
//! lowers the loss. Deliberately simple — the paper flags maximum-
//! likelihood parameter inference as future work (§7).

use crate::model::{AttrAssign, LifetimeDist, SanModel, SanModelParams, SleepMode};
use san_graph::degree::degree_vectors;
use san_graph::SanRead;
use san_metrics::reciprocity::global_reciprocity;
use san_stats::Lognormal;

/// Summary statistics a calibration run tries to match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationTarget {
    /// Lognormal `µ` of positive out-degrees.
    pub mu_out: f64,
    /// Lognormal `σ` of positive out-degrees.
    pub sigma_out: f64,
    /// Lognormal `µ` of positive attribute degrees.
    pub attr_mu: f64,
    /// Lognormal `σ` of positive attribute degrees.
    pub attr_sigma: f64,
    /// Mean social out-degree (density proxy).
    pub mean_out_degree: f64,
    /// Global reciprocity.
    pub reciprocity: f64,
}

/// Measures the calibration statistics of a SAN.
pub fn measure_target(san: &impl SanRead) -> CalibrationTarget {
    let dv = degree_vectors(san);
    let fit_ln = |xs: &[u64]| -> (f64, f64) {
        let pos: Vec<f64> = xs.iter().filter(|&&d| d > 0).map(|&d| d as f64).collect();
        match Lognormal::fit(&pos) {
            Ok(f) => (f.mu, f.sigma),
            Err(_) => (0.0, 1.0),
        }
    };
    let (mu_out, sigma_out) = fit_ln(&dv.out);
    let (attr_mu, attr_sigma) = fit_ln(&dv.attr_of_social);
    let mean_out_degree = if san.num_social_nodes() == 0 {
        0.0
    } else {
        san.num_social_links() as f64 / san.num_social_nodes() as f64
    };
    CalibrationTarget {
        mu_out,
        sigma_out,
        attr_mu,
        attr_sigma,
        mean_out_degree,
        reciprocity: global_reciprocity(san),
    }
}

/// Weighted squared relative error between two stat vectors.
pub fn calibration_loss(target: &CalibrationTarget, got: &CalibrationTarget) -> f64 {
    fn rel(t: f64, g: f64) -> f64 {
        let denom = t.abs().max(0.1);
        let d = (t - g) / denom;
        d * d
    }
    rel(target.mu_out, got.mu_out)
        + rel(target.sigma_out, got.sigma_out)
        + rel(target.attr_mu, got.attr_mu)
        + rel(target.attr_sigma, got.attr_sigma)
        + rel(target.mean_out_degree, got.mean_out_degree)
        + rel(target.reciprocity, got.reciprocity)
}

/// Configuration of the greedy search.
#[derive(Debug, Clone, Copy)]
pub struct GreedySearch {
    /// Maximum number of accepted-move sweeps.
    pub sweeps: usize,
    /// Days per trial generation (smaller = faster, noisier).
    pub trial_days: u32,
    /// Arrivals per day in trial generations.
    pub trial_arrivals: u32,
}

impl Default for GreedySearch {
    fn default() -> Self {
        GreedySearch {
            sweeps: 3,
            trial_days: 40,
            trial_arrivals: 15,
        }
    }
}

impl GreedySearch {
    /// Evaluates one parameter set.
    fn eval(&self, params: &SanModelParams, target: &CalibrationTarget, seed: u64) -> f64 {
        let mut trial = params.clone();
        trial.days = self.trial_days;
        trial.arrivals_per_day = vec![self.trial_arrivals];
        match SanModel::new(trial) {
            Ok(model) => {
                let (_, san) = model.generate(seed);
                calibration_loss(target, &measure_target(&san))
            }
            Err(_) => f64::INFINITY,
        }
    }

    /// Runs the guided greedy search from `start`, returning the best
    /// parameters and their loss. Deterministic in `seed`.
    pub fn run(
        &self,
        target: &CalibrationTarget,
        start: SanModelParams,
        seed: u64,
    ) -> (SanModelParams, f64) {
        let mut best = start;
        let mut best_loss = self.eval(&best, target, seed);
        for sweep in 0..self.sweeps {
            let mut improved = false;
            for move_idx in 0..MOVES {
                for &dir in &[1usize, 0] {
                    let cand = apply_move(&best, move_idx, dir == 1);
                    if cand.validate().is_err() {
                        continue;
                    }
                    let loss = self.eval(&cand, target, seed + sweep as u64 + 1);
                    if loss < best_loss {
                        best_loss = loss;
                        best = cand;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        (best, best_loss)
    }
}

const MOVES: usize = 7;

/// Applies the `idx`-th search move in the up (`true`) or down direction.
fn apply_move(params: &SanModelParams, idx: usize, up: bool) -> SanModelParams {
    let mut p = params.clone();
    let f = if up { 1.3 } else { 1.0 / 1.3 };
    match idx {
        0 => {
            if let LifetimeDist::TruncNormal { mu, sigma } = p.lifetime {
                p.lifetime = LifetimeDist::TruncNormal { mu: mu * f, sigma };
            } else if let LifetimeDist::Exponential { mean } = p.lifetime {
                p.lifetime = LifetimeDist::Exponential { mean: mean * f };
            }
        }
        1 => {
            if let LifetimeDist::TruncNormal { mu, sigma } = p.lifetime {
                p.lifetime = LifetimeDist::TruncNormal {
                    mu,
                    sigma: sigma * f,
                };
            }
        }
        2 => match p.sleep {
            SleepMode::InverseOutDegree { mean } => {
                p.sleep = SleepMode::InverseOutDegree { mean: mean * f };
            }
            SleepMode::Constant { mean } => {
                p.sleep = SleepMode::Constant { mean: mean * f };
            }
        },
        3 => {
            if let AttrAssign::Lognormal { mu, sigma, p_new } = p.attr_assign {
                p.attr_assign = AttrAssign::Lognormal {
                    mu: mu + if up { 0.2 } else { -0.2 },
                    sigma,
                    p_new,
                };
            }
        }
        4 => {
            if let AttrAssign::Lognormal { mu, sigma, p_new } = p.attr_assign {
                p.attr_assign = AttrAssign::Lognormal {
                    mu,
                    sigma: (sigma * f).max(0.05),
                    p_new,
                };
            }
        }
        5 => {
            if let AttrAssign::Lognormal { mu, sigma, p_new } = p.attr_assign {
                p.attr_assign = AttrAssign::Lognormal {
                    mu,
                    sigma,
                    p_new: (p_new + if up { 0.1 } else { -0.1 }).clamp(0.0, 0.9),
                };
            }
        }
        _ => {
            p.reciprocate_prob =
                (p.reciprocate_prob + if up { 0.15 } else { -0.15 }).clamp(0.0, 1.0);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_target_roundtrip_shape() {
        let model = SanModel::new(SanModelParams::paper_default(40, 15)).unwrap();
        let (_, san) = model.generate(3);
        let t = measure_target(&san);
        assert!(t.mean_out_degree > 0.5);
        assert!(t.sigma_out > 0.0);
        assert!((0.0..=1.0).contains(&t.reciprocity));
    }

    #[test]
    fn loss_zero_for_identical_targets() {
        let t = CalibrationTarget {
            mu_out: 1.0,
            sigma_out: 0.5,
            attr_mu: 0.7,
            attr_sigma: 0.9,
            mean_out_degree: 3.0,
            reciprocity: 0.4,
        };
        assert_eq!(calibration_loss(&t, &t), 0.0);
        let mut other = t;
        other.mu_out = 2.0;
        assert!(calibration_loss(&t, &other) > 0.0);
    }

    #[test]
    fn moves_preserve_validity_mostly() {
        let base = SanModelParams::paper_default(10, 5);
        for idx in 0..MOVES {
            for up in [true, false] {
                let cand = apply_move(&base, idx, up);
                assert!(
                    cand.validate().is_ok(),
                    "move {idx} up={up} produced invalid params"
                );
            }
        }
    }

    #[test]
    fn greedy_search_improves_toward_target() {
        // Target measured from a run with a *different* lifetime mean; the
        // search must reduce the loss relative to the unmodified start.
        let mut truth_params = SanModelParams::paper_default(40, 15);
        truth_params.lifetime = LifetimeDist::TruncNormal {
            mu: 16.0,
            sigma: 6.0,
        };
        let (_, truth) = SanModel::new(truth_params).unwrap().generate(11);
        let target = measure_target(&truth);

        let start = SanModelParams::paper_default(40, 15);
        let search = GreedySearch {
            sweeps: 2,
            trial_days: 40,
            trial_arrivals: 15,
        };
        let start_loss = search.eval(&start, &target, 50);
        let (_best, best_loss) = search.run(&target, start, 50);
        assert!(
            best_loss <= start_loss,
            "search must not worsen: {best_loss} vs {start_loss}"
        );
    }
}
