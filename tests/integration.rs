//! Cross-crate integration tests: full pipelines from dataset generation
//! through measurement, modeling and applications.

use gplus_san::apps::recommend::{evaluate_precision, RecommenderWeights};
use gplus_san::apps::sybil::{sybil_curve, SybilLimitConfig};
use gplus_san::metrics::clustering::{
    approx_average_clustering, average_clustering_exact, NodeSet,
};
use gplus_san::metrics::reciprocity::global_reciprocity;
use gplus_san::model::attach::AttachModel;
use gplus_san::model::model::{SanModel, SanModelParams};
use gplus_san::model::params::{measure_target, GreedySearch};
use gplus_san::sim::GooglePlus;
use gplus_san::stats::fit::{fit_degree_distribution, FitFamily};
use gplus_san::stats::SplitRng;

/// Simulate → crawl → measure: the paper's §2–§4 pipeline end to end.
#[test]
fn simulate_crawl_measure_pipeline() {
    let data = GooglePlus::at_scale(10).generate(3);
    let crawl = data.crawl_final();
    // Crawl quality (paper: >= 70% coverage).
    assert!(
        crawl.node_coverage > 0.7,
        "coverage={}",
        crawl.node_coverage
    );
    crawl.san.check_consistency().unwrap();

    // Degree families (paper Figs. 5/10): lognormal social degrees,
    // power-law attribute social degrees.
    let dv = gplus_san::graph::degree::degree_vectors(&crawl.san);
    let out_fit = fit_degree_distribution(&dv.out).unwrap();
    assert_eq!(out_fit.family, FitFamily::Lognormal, "{out_fit:?}");
    let attr_fit = fit_degree_distribution(&dv.social_of_attr).unwrap();
    assert!(attr_fit.ks_powerlaw < 0.1, "{attr_fit:?}");

    // Reciprocity in the hybrid band and declining (paper Fig. 4a).
    let r_final = global_reciprocity(&crawl.san);
    assert!((0.15..0.65).contains(&r_final), "r={r_final}");

    // Declaration rate near the configured 22% (paper §2.2).
    let rate = gplus_san::graph::subsample::attribute_declaration_rate(&data.truth);
    assert!((rate - 0.22).abs() < 0.06, "rate={rate}");
}

/// Algorithm 2 agrees with the exact clustering coefficient on a crawled
/// network at the paper's error budget.
#[test]
fn algorithm2_on_crawled_network() {
    let data = GooglePlus::at_scale(8).generate(4);
    let san = data.crawl_final().san;
    let exact = average_clustering_exact(&san, NodeSet::Social);
    let mut rng = SplitRng::new(5);
    let approx = approx_average_clustering(&san, NodeSet::Social, 0.01, 100.0, &mut rng);
    assert!(
        (approx - exact).abs() <= 0.01 + 1e-9,
        "approx={approx} exact={exact}"
    );
}

/// LAPA wins the attachment-likelihood comparison on SAN-grown data
/// (Fig. 15's qualitative conclusion), evaluated on the ground-truth
/// arrival trace.
#[test]
fn lapa_beats_pa_on_simulated_trace() {
    let data = GooglePlus::at_scale(8).generate(6);
    let tl = &data.timeline;
    let l_uniform = AttachModel::Uniform.log_likelihood(tl).unwrap();
    let l_pa = AttachModel::Pa { alpha: 1.0 }.log_likelihood(tl).unwrap();
    let l_lapa = AttachModel::Lapa {
        alpha: 1.0,
        beta: 10.0,
    }
    .log_likelihood(tl)
    .unwrap();
    assert!(l_pa > l_uniform, "PA must beat uniform");
    assert!(l_lapa > l_pa, "LAPA must beat PA: {l_lapa} vs {l_pa}");
}

/// Model calibration: greedy search against a crawled target does not
/// diverge and the calibrated model regenerates the right degree family.
#[test]
fn calibrate_and_regenerate() {
    let data = GooglePlus::at_scale(8).generate(7);
    let target = measure_target(&data.crawl_final().san);
    let search = GreedySearch {
        sweeps: 1,
        trial_days: 30,
        trial_arrivals: 10,
    };
    let (best, loss) = search.run(&target, SanModelParams::paper_default(30, 10), 8);
    assert!(loss.is_finite());
    let (_, regen) = SanModel::new(best).unwrap().generate(9);
    let degrees: Vec<u64> = regen
        .social_nodes()
        .map(|u| regen.out_degree(u) as u64)
        .collect();
    let fit = fit_degree_distribution(&degrees).unwrap();
    assert_eq!(fit.family, FitFamily::Lognormal);
}

/// Application fidelity (Fig. 19a shape): the attribute-aware model's
/// Sybil curve lands closer to the "real" network than the Zhel baseline.
#[test]
fn sybil_fidelity_ordering() {
    let data = GooglePlus::at_scale(10).generate(10);
    let google = data.crawl_final().san;
    let (_, ours) = SanModel::new(SanModelParams::paper_default(98, 10))
        .unwrap()
        .generate(10);
    let (_, zhel) = gplus_san::model::zhel::generate_zhel(98, 10, 10);
    let n = google.num_social_nodes();
    let counts = [n / 100, n / 50, n / 25];
    let cfg = SybilLimitConfig::default();
    let mut rng = SplitRng::new(11);
    let curve = |san: &gplus_san::graph::San, rng: &mut SplitRng| -> Vec<f64> {
        sybil_curve(san, cfg, &counts, rng)
            .into_iter()
            .map(|r| r.sybil_identities as f64)
            .collect()
    };
    let g = curve(&google, &mut rng);
    let o = curve(&ours, &mut rng);
    let z = curve(&zhel, &mut rng);
    let err = |m: &[f64]| -> f64 {
        m.iter()
            .zip(&g)
            .map(|(a, b)| (a - b).abs() / b.max(1.0))
            .sum::<f64>()
            / m.len() as f64
    };
    assert!(
        err(&o) < err(&z),
        "our model must track the real curve better: ours={:.3} zhel={:.3}",
        err(&o),
        err(&z)
    );
}

/// Recommendation replay: attribute-aware recommendations are at least as
/// precise as structure-only ones on SAN data (§7 implication).
#[test]
fn recommendation_replay() {
    let data = GooglePlus::at_scale(10).generate(12);
    let earlier = data.timeline.snapshot_at(70);
    let mut rng = SplitRng::new(13);
    let (p_struct, n1) = evaluate_precision(
        &earlier,
        &data.truth,
        5,
        RecommenderWeights::structure_only(),
        200,
        &mut rng,
    );
    let mut rng = SplitRng::new(13);
    let (p_attr, n2) = evaluate_precision(
        &earlier,
        &data.truth,
        5,
        RecommenderWeights::attribute_aware(),
        200,
        &mut rng,
    );
    assert!(n1 > 50 && n2 > 50, "need evaluated users: {n1}/{n2}");
    assert!(
        p_attr >= p_struct * 0.9,
        "attribute features must not hurt: attr={p_attr} struct={p_struct}"
    );
    assert!(p_attr > 0.0);
}

/// Frozen CSR snapshots are drop-in replacements for the mutable graph
/// across the whole measurement surface: identical metrics, identical
/// application results, and thread-shareable for parallel sweeps.
#[test]
fn frozen_snapshots_measure_identically_and_in_parallel() {
    use gplus_san::graph::CsrSan;
    use gplus_san::metrics::jdd::{social_assortativity, social_knn};
    use gplus_san::metrics::{attr_density, social_density};

    let data = GooglePlus::at_scale(8).generate(21);
    let crawl = data.crawl_final();
    let live = &crawl.san;
    let frozen: CsrSan = live.freeze();

    // Deterministic metrics agree exactly through either representation.
    assert_eq!(global_reciprocity(live), global_reciprocity(&frozen));
    assert_eq!(social_density(live), social_density(&frozen));
    assert_eq!(attr_density(live), attr_density(&frozen));
    assert_eq!(social_knn(live), social_knn(&frozen));
    // Assortativity sums floats in link-iteration order, which differs
    // between insertion-ordered and sorted CSR rows: equal to rounding.
    assert!((social_assortativity(live) - social_assortativity(&frozen)).abs() < 1e-12);
    assert_eq!(
        average_clustering_exact(live, NodeSet::Social),
        average_clustering_exact(&frozen, NodeSet::Social)
    );
    assert_eq!(
        average_clustering_exact(live, NodeSet::Attr),
        average_clustering_exact(&frozen, NodeSet::Attr)
    );

    // Seeded stochastic pipelines agree too (identical RNG consumption).
    let mut rng_a = SplitRng::new(33);
    let mut rng_b = SplitRng::new(33);
    let counts = [live.num_social_nodes() / 50];
    let cfg = SybilLimitConfig::default();
    let a = sybil_curve(live, cfg, &counts, &mut rng_a);
    let b = sybil_curve(&frozen, cfg, &counts, &mut rng_b);
    assert_eq!(a[0].attack_edges, b[0].attack_edges);

    // Timeline → CSR snapshots directly, fanned across threads (CsrSan is
    // Send + Sync): a miniature parallel per-day metric sweep.
    let days = [40u32, 70, 98];
    let reciprocities: Vec<(u32, f64)> = std::thread::scope(|scope| {
        let timeline = &data.timeline;
        let handles: Vec<_> = days
            .iter()
            .map(|&day| scope.spawn(move || (day, global_reciprocity(&timeline.snapshot_csr(day)))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for (day, r) in &reciprocities {
        let serial = global_reciprocity(&data.timeline.snapshot_at(*day));
        assert_eq!(*r, serial, "day {day}");
    }
    // Reciprocity declines across the sampled days (Fig. 4a shape).
    assert!(reciprocities[2].1 < reciprocities[0].1);
}

/// Ablation: removing focal closure collapses attribute clustering
/// (Fig. 18b — the dramatic, scale-robust effect), while the full model's
/// in-degree remains decisively lognormal (the Fig. 16b/18a baseline;
/// the *family flip* of Fig. 18a is a 10M-node effect that does not
/// reproduce at laptop scale — see the "Expectation (paper)" doc of
/// `san_bench::exp::modeling::fig18`).
#[test]
fn ablations_have_reported_effects() {
    let base = SanModelParams::paper_default(98, 12);
    let (_, full) = SanModel::new(base.clone()).unwrap().generate(15);
    let (_, no_focal) = SanModel::new(base.clone().without_focal_closure())
        .unwrap()
        .generate(15);
    let c_full = average_clustering_exact(&full, NodeSet::Attr);
    let c_ablate = average_clustering_exact(&no_focal, NodeSet::Attr);
    assert!(
        c_ablate * 2.0 < c_full,
        "focal closure drives attribute clustering: {c_ablate} !< {c_full}/2"
    );

    let indeg: Vec<u64> = full
        .social_nodes()
        .skip(5)
        .map(|u| full.in_degree(u) as u64)
        .collect();
    let fit_full = fit_degree_distribution(&indeg).unwrap();
    assert_eq!(fit_full.family, FitFamily::Lognormal);
    assert!(fit_full.ks_lognormal < fit_full.ks_powerlaw);
}
