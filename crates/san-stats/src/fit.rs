//! Degree-distribution model selection: lognormal vs power law.
//!
//! The paper identifies "an empirical best-fit distribution using the tool
//! [54, 10], which compares fits of several widely used distributions … with
//! respect to goodness-of-fit" (§3.5). This module reproduces the decision
//! procedure for the two families that matter in the paper: the **discrete
//! lognormal** and the **discrete power law**. Both are fit by maximum
//! likelihood over the same support (`k ≥ 1`), then compared by total
//! log-likelihood; Kolmogorov–Smirnov distances are reported as an
//! independent goodness-of-fit check.

use crate::dist::lognormal::DiscreteLognormal;
use crate::dist::powerlaw::DiscretePowerLaw;
use crate::error::StatsError;
use crate::special::normal_cdf;

/// The distribution family a sample is best explained by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitFamily {
    /// Discrete power law `p(k) ∝ k^{−α}`.
    PowerLaw,
    /// Discrete lognormal `p(k) ∝ (1/k)·exp(−(ln k − µ)²/2σ²)`.
    Lognormal,
}

impl std::fmt::Display for FitFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitFamily::PowerLaw => write!(f, "power-law"),
            FitFamily::Lognormal => write!(f, "lognormal"),
        }
    }
}

/// Result of fitting both candidate families to a degree sample.
#[derive(Debug, Clone)]
pub struct DegreeFit {
    /// Which family wins on log-likelihood.
    pub family: FitFamily,
    /// Lognormal location parameter `µ`.
    pub mu: f64,
    /// Lognormal scale parameter `σ`.
    pub sigma: f64,
    /// Power-law exponent `α` (fit with `x_min = 1`).
    pub alpha: f64,
    /// Total log-likelihood of the lognormal fit.
    pub ll_lognormal: f64,
    /// Total log-likelihood of the power-law fit.
    pub ll_powerlaw: f64,
    /// Kolmogorov–Smirnov distance of the lognormal fit.
    pub ks_lognormal: f64,
    /// Kolmogorov–Smirnov distance of the power-law fit.
    pub ks_powerlaw: f64,
    /// Number of samples used (those with `k ≥ 1`).
    pub n: usize,
}

impl DegreeFit {
    /// Normalised log-likelihood ratio per sample,
    /// `(ll_lognormal − ll_powerlaw)/n`; positive favours the lognormal.
    pub fn llr_per_sample(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.ll_lognormal - self.ll_powerlaw) / self.n as f64
    }
}

/// KS distance between the empirical CDF of `samples` (k ≥ 1) and a discrete
/// lognormal fit.
fn ks_lognormal(dist: &DiscreteLognormal, samples: &[u64]) -> f64 {
    let mut kept: Vec<u64> = samples.iter().copied().filter(|&k| k >= 1).collect();
    if kept.is_empty() {
        return 1.0;
    }
    kept.sort_unstable();
    let n = kept.len() as f64;
    let mut max_d: f64 = 0.0;
    let mut i = 0;
    while i < kept.len() {
        let k = kept[i];
        let mut j = i;
        while j < kept.len() && kept[j] == k {
            j += 1;
        }
        // Both CDFs jump at the same atoms; compare at F(k) only.
        let emp = j as f64 / n;
        max_d = max_d.max((dist.cdf(k) - emp).abs());
        i = j;
    }
    max_d
}

/// Fits both families to the positive part of `samples` and selects the
/// winner by log-likelihood (the paper's best-fit procedure).
///
/// Returns an error when fewer than two samples are ≥ 1 or either family
/// fails to fit (degenerate data).
pub fn fit_degree_distribution(samples: &[u64]) -> Result<DegreeFit, StatsError> {
    let kept: Vec<u64> = samples.iter().copied().filter(|&k| k >= 1).collect();
    if kept.len() < 2 {
        return Err(StatsError::InsufficientData {
            needed: "at least two samples >= 1",
        });
    }
    let ln = DiscreteLognormal::fit(&kept)?;
    let pl = DiscretePowerLaw::fit(&kept, 1)?;
    let ll_ln = ln.log_likelihood(&kept);
    let ll_pl = pl.log_likelihood(&kept);
    let family = if ll_ln >= ll_pl {
        FitFamily::Lognormal
    } else {
        FitFamily::PowerLaw
    };
    Ok(DegreeFit {
        family,
        mu: ln.mu(),
        sigma: ln.sigma(),
        alpha: pl.alpha(),
        ll_lognormal: ll_ln,
        ll_powerlaw: ll_pl,
        ks_lognormal: ks_lognormal(&ln, &kept),
        ks_powerlaw: pl.ks_distance(&kept),
        n: kept.len(),
    })
}

/// Vuong closeness test between the lognormal and power-law fits.
///
/// Returns `(z, p_two_sided)`: `z > 0` favours the lognormal, `z < 0` the
/// power law, and a large two-sided p-value means the data cannot
/// distinguish the families — exactly the nuance behind the Fig. 16
/// comparisons at finite scale. Implements the normalised log-likelihood
/// ratio statistic of Vuong (1989) as used by Clauset et al.
pub fn vuong_test(samples: &[u64]) -> Result<VuongResult, StatsError> {
    let kept: Vec<u64> = samples.iter().copied().filter(|&k| k >= 1).collect();
    if kept.len() < 2 {
        return Err(StatsError::InsufficientData {
            needed: "at least two samples >= 1",
        });
    }
    let ln = DiscreteLognormal::fit(&kept)?;
    let pl = DiscretePowerLaw::fit(&kept, 1)?;
    let diffs: Vec<f64> = kept.iter().map(|&k| ln.ln_pmf(k) - pl.ln_pmf(k)).collect();
    let n = diffs.len() as f64;
    let mean = crate::summary::mean(&diffs);
    let sd = crate::summary::std_dev(&diffs);
    if sd <= 0.0 {
        return Err(StatsError::NoConvergence {
            what: "vuong test (zero variance of pointwise LLR)",
        });
    }
    let z = n.sqrt() * mean / sd;
    let p_two_sided = 2.0 * (1.0 - normal_cdf(z.abs()));
    Ok(VuongResult { z, p_two_sided })
}

/// Outcome of [`vuong_test`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VuongResult {
    /// Normalised LLR statistic; positive favours the lognormal.
    pub z: f64,
    /// Two-sided p-value under the null "families equally close".
    pub p_two_sided: f64,
}

/// Clauset-style `x_min` scan for the power-law family: for each candidate
/// `x_min`, fit `α` by MLE on the tail and measure the KS distance; return
/// the fit with the smallest KS. `max_xmin` bounds the scan (the tail must
/// keep at least ~10 observations to be meaningful).
pub fn fit_powerlaw_scan_xmin(
    samples: &[u64],
    max_xmin: u64,
) -> Result<(DiscretePowerLaw, f64), StatsError> {
    let mut best: Option<(DiscretePowerLaw, f64)> = None;
    for xmin in 1..=max_xmin {
        let tail_n = samples.iter().filter(|&&k| k >= xmin).count();
        if tail_n < 10 {
            break;
        }
        let Ok(fit) = DiscretePowerLaw::fit(samples, xmin) else {
            continue;
        };
        let ks = fit.ks_distance(samples);
        if best.as_ref().is_none_or(|(_, b)| ks < *b) {
            best = Some((fit, ks));
        }
    }
    best.ok_or(StatsError::InsufficientData {
        needed: "a tail with >= 10 samples for some x_min",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitRng;

    #[test]
    fn classifies_lognormal_data() {
        let d = DiscreteLognormal::new(1.5, 1.0).unwrap();
        let mut rng = SplitRng::new(40);
        let samples: Vec<u64> = (0..30_000).map(|_| d.sample(&mut rng)).collect();
        let fit = fit_degree_distribution(&samples).unwrap();
        assert_eq!(fit.family, FitFamily::Lognormal);
        assert!(fit.llr_per_sample() > 0.0);
        assert!(fit.ks_lognormal < fit.ks_powerlaw);
        assert!((fit.mu - 1.5).abs() < 0.15, "mu={}", fit.mu);
    }

    #[test]
    fn classifies_powerlaw_data() {
        let d = DiscretePowerLaw::new(2.2, 1).unwrap();
        let mut rng = SplitRng::new(41);
        let samples: Vec<u64> = (0..30_000).map(|_| d.sample(&mut rng)).collect();
        let fit = fit_degree_distribution(&samples).unwrap();
        assert_eq!(fit.family, FitFamily::PowerLaw);
        assert!(fit.llr_per_sample() < 0.0);
        assert!((fit.alpha - 2.2).abs() < 0.1, "alpha={}", fit.alpha);
    }

    #[test]
    fn ks_values_reported_and_sane() {
        let d = DiscretePowerLaw::new(2.0, 1).unwrap();
        let mut rng = SplitRng::new(42);
        let samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let fit = fit_degree_distribution(&samples).unwrap();
        assert!(fit.ks_powerlaw < 0.02, "ks_pl={}", fit.ks_powerlaw);
        assert!((0.0..=1.0).contains(&fit.ks_lognormal));
    }

    #[test]
    fn zeros_are_ignored() {
        let d = DiscreteLognormal::new(1.0, 0.8).unwrap();
        let mut rng = SplitRng::new(43);
        let mut samples: Vec<u64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
        let n_positive = samples.len();
        samples.extend(std::iter::repeat_n(0, 5_000));
        let fit = fit_degree_distribution(&samples).unwrap();
        assert_eq!(fit.n, n_positive);
    }

    #[test]
    fn rejects_insufficient_data() {
        assert!(fit_degree_distribution(&[]).is_err());
        assert!(fit_degree_distribution(&[0, 0, 0]).is_err());
        assert!(fit_degree_distribution(&[3]).is_err());
    }

    #[test]
    fn family_display() {
        assert_eq!(FitFamily::PowerLaw.to_string(), "power-law");
        assert_eq!(FitFamily::Lognormal.to_string(), "lognormal");
    }

    #[test]
    fn vuong_favours_true_family() {
        let ln = DiscreteLognormal::new(1.5, 1.0).unwrap();
        let mut rng = SplitRng::new(60);
        let samples: Vec<u64> = (0..20_000).map(|_| ln.sample(&mut rng)).collect();
        let v = vuong_test(&samples).unwrap();
        assert!(v.z > 2.0, "z={} should strongly favour lognormal", v.z);
        assert!(v.p_two_sided < 0.05);

        let pl = DiscretePowerLaw::new(2.2, 1).unwrap();
        let samples: Vec<u64> = (0..20_000).map(|_| pl.sample(&mut rng)).collect();
        let v = vuong_test(&samples).unwrap();
        assert!(v.z < -2.0, "z={} should strongly favour power law", v.z);
    }

    #[test]
    fn vuong_requires_data() {
        assert!(vuong_test(&[]).is_err());
        assert!(vuong_test(&[1]).is_err());
    }

    #[test]
    fn xmin_scan_finds_shifted_tail() {
        // Power-law tail from 5 upward, noise below.
        let pl = DiscretePowerLaw::new(2.5, 5).unwrap();
        let mut rng = SplitRng::new(61);
        let mut samples: Vec<u64> = (0..20_000).map(|_| pl.sample(&mut rng)).collect();
        samples.extend((0..5_000).map(|_| 1 + rng.below(4)));
        let (fit, ks) = fit_powerlaw_scan_xmin(&samples, 20).unwrap();
        assert!(fit.xmin() >= 4, "xmin={}", fit.xmin());
        assert!((fit.alpha() - 2.5).abs() < 0.2, "alpha={}", fit.alpha());
        assert!(ks < 0.05);
    }

    #[test]
    fn xmin_scan_needs_tail() {
        assert!(fit_powerlaw_scan_xmin(&[1, 1, 1], 10).is_err());
    }
}
