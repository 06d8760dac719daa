//! Property-based tests for the generative models.

use proptest::prelude::*;
use san_core::attach::AttachModel;
use san_core::closing::ClosingModel;
use san_core::model::{AttrAssign, LifetimeDist, SanModel, SanModelParams};
use san_core::theory::{predicted_attr_exponent, predicted_outdegree_lognormal};
use san_graph::prelude::*;
use san_stats::SplitRng;

/// The 52 `(model, α, β)` cells of Fig. 15, in the order the experiment
/// lays them out.
fn fig15_grid() -> Vec<AttachModel> {
    let alphas = [0.0, 0.5, 1.0, 1.5, 2.0];
    let mut models = vec![AttachModel::Pa { alpha: 1.0 }, AttachModel::Uniform];
    for &alpha in &alphas {
        for beta in [0.0, 2.0, 4.0, 6.0, 8.0] {
            models.push(AttachModel::Papa { alpha, beta });
        }
    }
    for &alpha in &alphas {
        for beta in [0.0, 10.0, 100.0, 200.0, 500.0] {
            models.push(AttachModel::Lapa { alpha, beta });
        }
    }
    models
}

fn small_san(seed: u64) -> San {
    let mut rng = SplitRng::new(seed);
    let mut san = San::new();
    let n = 8 + rng.below(12) as u32;
    for _ in 0..n {
        san.add_social_node();
    }
    let na = 2 + rng.below(4) as u32;
    for _ in 0..na {
        san.add_attr_node(AttrType::Other);
    }
    for _ in 0..(n * 2) {
        let u = SocialId(rng.below(n as u64) as u32);
        let v = SocialId(rng.below(n as u64) as u32);
        if u != v {
            san.add_social_link(u, v);
        }
    }
    for _ in 0..n {
        let u = SocialId(rng.below(n as u64) as u32);
        let a = AttrId(rng.below(na as u64) as u32);
        san.add_attr_link(u, a);
    }
    san
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Attachment weights are positive and monotone in degree and
    /// attribute overlap for positive exponents.
    #[test]
    fn attach_weights_monotone(
        alpha in 0.1f64..2.0,
        beta in 0.0f64..50.0,
        d in 0u64..1000,
        a in 0usize..10,
    ) {
        let lapa = AttachModel::Lapa { alpha, beta };
        prop_assert!(lapa.weight(d, a) > 0.0);
        prop_assert!(lapa.weight(d + 1, a) >= lapa.weight(d, a));
        prop_assert!(lapa.weight(d, a + 1) >= lapa.weight(d, a));
        let papa = AttachModel::Papa { alpha, beta };
        prop_assert!(papa.weight(d, a) > 0.0);
        prop_assert!(papa.weight(d + 1, a) >= papa.weight(d, a));
    }

    /// Closure probabilities over all targets sum to at most 1
    /// (strictly less when some walk mass lands on invalid targets).
    #[test]
    fn closure_probabilities_subnormalised(seed in 0u64..200, fc in 0.0f64..2.0) {
        let san = small_san(seed);
        for model in [ClosingModel::Baseline, ClosingModel::Rr, ClosingModel::RrSan { fc }] {
            for u in san.social_nodes() {
                let total: f64 = san
                    .social_nodes()
                    .filter(|&v| v != u)
                    .map(|v| model.closure_probability(&san, u, v))
                    .sum();
                prop_assert!(total <= 1.0 + 1e-9, "{model:?} at {u}: total={total}");
            }
        }
    }

    /// Closure samples are always valid new targets.
    #[test]
    fn closure_samples_valid(seed in 0u64..100, fc in 0.0f64..2.0) {
        let san = small_san(seed);
        let mut rng = SplitRng::new(seed ^ 0xABCD);
        for model in [ClosingModel::Baseline, ClosingModel::Rr, ClosingModel::RrSan { fc }] {
            for u in san.social_nodes() {
                for _ in 0..20 {
                    if let Some(v) = model.sample(&san, u, &mut rng) {
                        prop_assert!(v != u);
                        prop_assert!(!san.has_social_link(u, v));
                    }
                }
            }
        }
    }

    /// Generated SANs are internally consistent and deterministic for any
    /// parameter corner.
    #[test]
    fn generator_consistent(
        seed in 0u64..50,
        days in 3u32..15,
        per_day in 1u32..8,
        beta in 0.0f64..40.0,
        fc in 0.0f64..1.5,
        recip in 0.0f64..1.0,
        p_new in 0.0f64..0.9,
    ) {
        let mut params = SanModelParams::paper_default(days, per_day);
        params.first_link = san_core::model::FirstLink::Lapa { beta };
        params.closing = ClosingModel::RrSan { fc };
        params.reciprocate_prob = recip;
        params.attr_assign = AttrAssign::Lognormal { mu: 0.5, sigma: 0.8, p_new };
        let model = SanModel::new(params).unwrap();
        let (tl, san) = model.generate(seed);
        prop_assert!(san.check_consistency().is_ok());
        let (_, san2) = model.generate(seed);
        prop_assert_eq!(san.num_social_links(), san2.num_social_links());
        prop_assert_eq!(san.num_attr_links(), san2.num_attr_links());
        // Replay equivalence.
        let replay = tl.final_snapshot();
        prop_assert_eq!(replay.num_social_links(), san.num_social_links());
    }

    /// `San::freeze()` round-trips on model-generated SANs: the frozen
    /// `CsrSan` agrees with the mutable `San` on every `SanRead` query
    /// (counts, neighbourhoods, membership, common-neighbour features),
    /// and closure-model proposal probabilities are identical through
    /// either representation.
    #[test]
    fn freeze_roundtrip_on_generated_sans(
        seed in 0u64..30,
        days in 3u32..12,
        per_day in 1u32..6,
        exponential in proptest::any::<bool>(),
    ) {
        use san_graph::SanRead;
        use std::collections::BTreeSet;
        let mut params = SanModelParams::paper_default(days, per_day);
        if exponential {
            params.lifetime = LifetimeDist::Exponential { mean: 6.0 };
        }
        params.reciprocate_prob = 0.4;
        let (_, san) = SanModel::new(params).unwrap().generate(seed);
        let csr = san.freeze();
        prop_assert_eq!(SanRead::num_social_nodes(&csr), san.num_social_nodes());
        prop_assert_eq!(SanRead::num_attr_nodes(&csr), san.num_attr_nodes());
        prop_assert_eq!(SanRead::num_social_links(&csr), san.num_social_links());
        prop_assert_eq!(SanRead::num_attr_links(&csr), san.num_attr_links());
        for u in san.social_nodes() {
            prop_assert_eq!(
                SanRead::out_neighbors(&csr, u).iter().collect::<BTreeSet<_>>(),
                san.out_neighbors(u).iter().collect::<BTreeSet<_>>()
            );
            prop_assert_eq!(
                SanRead::social_neighbors(&csr, u).as_ref(),
                san.social_neighbors(u).as_slice()
            );
            prop_assert_eq!(
                SanRead::attrs_of(&csr, u).iter().collect::<BTreeSet<_>>(),
                san.attrs_of(u).iter().collect::<BTreeSet<_>>()
            );
        }
        for a in san.attr_nodes() {
            prop_assert_eq!(SanRead::attr_type(&csr, a), san.attr_type(a));
            prop_assert_eq!(
                SanRead::social_degree_of_attr(&csr, a),
                san.social_degree_of_attr(a)
            );
        }
        // Spot-check pairwise queries on a bounded grid.
        let n = san.num_social_nodes().min(20) as u32;
        for ui in 0..n {
            for vi in 0..n {
                let (u, v) = (SocialId(ui), SocialId(vi));
                prop_assert_eq!(
                    SanRead::has_social_link(&csr, u, v),
                    san.has_social_link(u, v)
                );
                prop_assert_eq!(SanRead::common_attrs(&csr, u, v), san.common_attrs(u, v));
                prop_assert_eq!(
                    SanRead::common_social_neighbors(&csr, u, v),
                    san.common_social_neighbors(u, v)
                );
                if ui != vi {
                    let p_san = ClosingModel::RrSan { fc: 0.7 }.closure_probability(&san, u, v);
                    let p_csr = ClosingModel::RrSan { fc: 0.7 }.closure_probability(&csr, u, v);
                    prop_assert!(
                        (p_san - p_csr).abs() < 1e-12,
                        "closure prob diverges at {}->{}: {} vs {}", u, v, p_san, p_csr
                    );
                }
            }
        }
    }

    /// Theorem formulas behave sanely across their domains.
    #[test]
    fn theory_formula_domains(mu in -5.0f64..20.0, sigma in 0.2f64..10.0, ms in 0.5f64..20.0) {
        let (mu_o, sigma_o) = predicted_outdegree_lognormal(mu, sigma, ms).unwrap();
        prop_assert!(mu_o.is_finite());
        prop_assert!(sigma_o.is_finite() && sigma_o >= 0.0);
        // Truncated mean is >= untruncated mean, so mu_o >= mu/ms.
        prop_assert!(mu_o >= mu / ms - 1e-9);
    }

    /// Theorem 2 exponent is monotone increasing in p.
    #[test]
    fn theorem2_monotone(p1 in 0.0f64..0.9, p2 in 0.0f64..0.9) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a_lo = predicted_attr_exponent(lo).unwrap();
        let a_hi = predicted_attr_exponent(hi).unwrap();
        prop_assert!(a_hi >= a_lo - 1e-12);
        prop_assert!(a_lo >= 2.0 - 1e-12);
    }

    /// Uniform and PA likelihoods never beat the saturated bound of 0 and
    /// are finite on random traces.
    #[test]
    fn likelihoods_finite(seed in 0u64..40) {
        let mut params = SanModelParams::paper_default(6, 4);
        params.reciprocate_prob = 0.3;
        let (tl, _) = SanModel::new(params).unwrap().generate(seed);
        for model in [
            AttachModel::Uniform,
            AttachModel::Pa { alpha: 1.0 },
            AttachModel::Lapa { alpha: 1.0, beta: 5.0 },
            AttachModel::Papa { alpha: 1.0, beta: 1.0 },
        ] {
            let ll = model.log_likelihood(&tl).unwrap();
            prop_assert!(ll.is_finite());
            prop_assert!(ll < 0.0);
        }
    }

    /// Each cell of the full Fig. 15 grid bit-equals the one-cell grid of
    /// its model: a cell never depends on its neighbours.
    #[test]
    fn grid_cells_independent_of_neighbours(seed in 0u64..1000, per_day in 2u32..6) {
        let (tl, _) = SanModel::new(SanModelParams::paper_default(10, per_day))
            .unwrap()
            .generate(seed);
        let models = fig15_grid();
        let grid = AttachModel::log_likelihood_grid(&tl, &models).unwrap();
        for (model, &cell) in models.iter().zip(&grid) {
            let alone = model.log_likelihood(&tl).unwrap();
            prop_assert_eq!(cell.to_bits(), alone.to_bits(), "{:?}: {} vs {}", model, cell, alone);
        }
    }
}
