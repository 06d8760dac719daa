//! §5/§6.1/Appendix A experiments: attachment likelihoods (Fig. 15), model
//! vs Zhel metric comparison (Figs. 16–17), ablations (Fig. 18), the two
//! theorems, and the Algorithm 2 error sweep.

use crate::{banner, downsample, print_series_u, Ctx};
use san_core::attach::{relative_improvement, AttachModel};
use san_core::model::{SanModel, SanModelParams};
use san_core::theory::{predicted_attr_exponent, predicted_outdegree_lognormal};
use san_core::zhel::generate_zhel;
use san_graph::degree::degree_vectors;
use san_graph::San;
use san_metrics::clustering::{
    approx_average_clustering_k, average_clustering_exact, clustering_by_degree, NodeSet,
};
use san_metrics::jdd::attribute_knn;
use san_stats::fit::fit_degree_distribution;
use san_stats::{DiscretePowerLaw, Lognormal, SplitRng};

/// Scale used when the modeling experiments generate fresh synthetic SANs
/// (days, arrivals/day).
const GEN_DAYS: u32 = 98;

/// The `α` rows of both Fig. 15 panels.
const FIG15_ALPHAS: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 2.0];
/// The `β` columns of the Fig. 15 PAPA panel.
const FIG15_PAPA_BETAS: [f64; 5] = [0.0, 2.0, 4.0, 6.0, 8.0];
/// The `β` columns of the Fig. 15 LAPA panel.
const FIG15_LAPA_BETAS: [f64; 5] = [0.0, 10.0, 100.0, 200.0, 500.0];

/// The 52 kernels Fig. 15 scores, in grid order: PA (α=1), uniform, then
/// the 5×5 PAPA and the 5×5 LAPA panel, each row-major (rows α, columns
/// β).
pub fn fig15_models() -> Vec<AttachModel> {
    let mut models = vec![AttachModel::Pa { alpha: 1.0 }, AttachModel::Uniform];
    for alpha in FIG15_ALPHAS {
        models.extend(FIG15_PAPA_BETAS.map(|beta| AttachModel::Papa { alpha, beta }));
    }
    for alpha in FIG15_ALPHAS {
        models.extend(FIG15_LAPA_BETAS.map(|beta| AttachModel::Lapa { alpha, beta }));
    }
    models
}

/// Figure 15: log-likelihood grid of PAPA and LAPA over (α, β), reported
/// as relative improvement over PA (α=1, β=0). All 52 kernels of
/// [`fig15_models`] are scored in one replay of the trace
/// ([`AttachModel::log_likelihood_grid`]).
///
/// Expectation (paper): LAPA beats PAPA; α=1 is best for every β; PA beats
/// uniform by ~8 %; the best LAPA gains a further ~6 %.
pub fn fig15(ctx: &Ctx) {
    banner("Fig 15", "PAPA vs LAPA attachment likelihood grid");
    let ll = AttachModel::log_likelihood_grid(&ctx.data.timeline, &fig15_models())
        .expect("timeline has links");
    let (l_pa, l_uniform) = (ll[0], ll[1]);
    let (papa, lapa) = ll[2..].split_at(FIG15_ALPHAS.len() * FIG15_PAPA_BETAS.len());
    println!(
        "PA improvement over uniform: {:+.1}% (paper: +7.9%)",
        100.0 * relative_improvement(l_uniform, l_pa)
    );
    println!("(a) PAPA: relative improvement over PA (rows alpha, cols beta)");
    print_fig15_panel(&FIG15_PAPA_BETAS, papa, l_pa);
    println!("(b) LAPA: relative improvement over PA");
    print_fig15_panel(&FIG15_LAPA_BETAS, lapa, l_pa);
    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    for (i, &l) in lapa.iter().enumerate() {
        if l > best.0 {
            let cols = FIG15_LAPA_BETAS.len();
            best = (l, FIG15_ALPHAS[i / cols], FIG15_LAPA_BETAS[i % cols]);
        }
    }
    println!(
        "best LAPA: alpha={} beta={} ({:+.1}% over PA; paper: alpha=1 best, +6.1%)",
        best.1,
        best.2,
        100.0 * relative_improvement(l_pa, best.0)
    );
}

/// Prints one Fig. 15 panel: rows `FIG15_ALPHAS`, columns `betas`, each
/// cell the relative improvement of its log-likelihood over `l_pa`.
fn print_fig15_panel(betas: &[f64], cells: &[f64], l_pa: f64) {
    print!("  {:>6}", "a\\b");
    for b in betas {
        print!(" {b:>8.0}");
    }
    println!();
    for (a, row) in FIG15_ALPHAS.iter().zip(cells.chunks(betas.len())) {
        print!("  {a:>6.1}");
        for &l in row {
            print!(" {:>7.1}%", 100.0 * relative_improvement(l_pa, l));
        }
        println!();
    }
}

/// Prints the four degree-distribution fits of a SAN as one Fig. 16 row.
fn fit_row(label: &str, san: &San) {
    let dv = degree_vectors(san);
    let fits = [
        ("outdeg", fit_degree_distribution(&dv.out)),
        ("indeg", fit_degree_distribution(&dv.inc)),
        ("attrdeg", fit_degree_distribution(&dv.attr_of_social)),
        ("attr-social", fit_degree_distribution(&dv.social_of_attr)),
    ];
    for (name, fit) in fits {
        match fit {
            Ok(f) => println!(
                "  {label:<10} {name:<12} best={:<10} llr/n={:+.4}  ln(mu={:.2},sg={:.2}) KSln={:.3}  pl(a={:.2}) KSpl={:.3}",
                f.family.to_string(),
                f.llr_per_sample(),
                f.mu,
                f.sigma,
                f.ks_lognormal,
                f.alpha,
                f.ks_powerlaw
            ),
            Err(e) => println!("  {label:<10} {name:<12} unfittable: {e}"),
        }
    }
}

/// Figure 16: degree distributions of synthetic SANs — our model vs Zhel.
///
/// Expectation (paper): our model reproduces Google+'s lognormal social
/// out/in/attribute degrees and power-law attribute social degrees; Zhel
/// produces power-law social degrees and non-lognormal attribute degrees.
pub fn fig16(ctx: &Ctx) {
    banner("Fig 16", "degree distributions: our model vs Zhel baseline");
    let per_day = ctx.scale;
    println!("reference (crawled synthetic Google+):");
    fit_row("google+", &ctx.crawl.san);
    let (_, ours) = SanModel::new(SanModelParams::paper_default(GEN_DAYS, per_day))
        .expect("valid defaults")
        .generate(ctx.seed + 16);
    println!("our model (a-d):");
    fit_row("ours", &ours);
    let (_, zhel) = generate_zhel(GEN_DAYS, per_day, ctx.seed + 16);
    println!("Zhel baseline (e-h):");
    fit_row("zhel", &zhel);
}

/// Figure 17: joint degree distribution of attribute nodes and clustering
/// coefficient distributions — our model vs Zhel.
pub fn fig17(ctx: &Ctx) {
    banner(
        "Fig 17",
        "attribute knn + clustering distributions: ours vs Zhel",
    );
    let per_day = ctx.scale;
    let (_, ours) = SanModel::new(SanModelParams::paper_default(GEN_DAYS, per_day))
        .expect("valid defaults")
        .generate(ctx.seed + 17);
    let (_, zhel) = generate_zhel(GEN_DAYS, per_day, ctx.seed + 17);
    for (label, san) in [
        ("google+", &ctx.crawl.san),
        ("ours", &ours),
        ("zhel", &zhel),
    ] {
        println!("({label}) attribute knn");
        print_series_u("social degree", "knn", &downsample(&attribute_knn(san), 10));
        println!("({label}) clustering by degree");
        let soc = clustering_by_degree(san, NodeSet::Social);
        let att = clustering_by_degree(san, NodeSet::Attr);
        print_series_u("social degree", "social c", &downsample(&soc, 8));
        print_series_u("attr degree", "attr c", &downsample(&att, 8));
        println!(
            "  average clustering: social={:.4} attribute={:.4}",
            average_clustering_exact(san, NodeSet::Social),
            average_clustering_exact(san, NodeSet::Attr),
        );
    }
}

/// Figure 18: the two ablations — PA instead of LAPA (a), RR instead of
/// RR-SAN (b).
///
/// Expectation (paper): (a) flips the social in-degree from lognormal
/// towards a power law; (b) collapses the attribute clustering
/// coefficient.
pub fn fig18(ctx: &Ctx) {
    banner("Fig 18", "ablations: w/o LAPA (a), w/o focal closure (b)");
    let per_day = ctx.scale;
    let full_params = SanModelParams::paper_default(GEN_DAYS, per_day);
    let (_, full) = SanModel::new(full_params.clone())
        .expect("valid")
        .generate(ctx.seed + 18);
    let (_, no_lapa) = SanModel::new(full_params.clone().without_lapa())
        .expect("valid")
        .generate(ctx.seed + 18);
    let (_, no_focal) = SanModel::new(full_params.without_focal_closure())
        .expect("valid")
        .generate(ctx.seed + 18);

    println!("(a) social in-degree with / without LAPA");
    let indeg = |san: &San| -> Vec<u64> {
        san.social_nodes()
            .skip(5)
            .map(|u| san.in_degree(u) as u64)
            .collect()
    };
    for (label, san) in [("full model", &full), ("w/o LAPA", &no_lapa)] {
        let fit = fit_degree_distribution(&indeg(san)).expect("degrees");
        println!(
            "  {label:<12} best={:<10} llr/n={:+.4} KSln={:.3} KSpl={:.3}",
            fit.family.to_string(),
            fit.llr_per_sample(),
            fit.ks_lognormal,
            fit.ks_powerlaw
        );
    }

    println!("(b) attribute clustering with / without focal closure");
    for (label, san) in [("full model", &full), ("w/o focal", &no_focal)] {
        println!(
            "  {label:<12} avg attribute clustering = {:.4}",
            average_clustering_exact(san, NodeSet::Attr)
        );
    }
}

/// Theorems 1 and 2: predictions vs simulation.
pub fn theory(ctx: &Ctx) {
    banner(
        "Theory",
        "Theorem 1 (lognormal out-degree) + Theorem 2 (attr exponent)",
    );
    // Theorem 1 at the paper_default operating point.
    let (mu_l, sigma_l, ms) = (8.0, 6.0, 8.0);
    let (mu_pred, sigma_pred) = predicted_outdegree_lognormal(mu_l, sigma_l, ms).expect("valid");
    let (_, san) = SanModel::new(SanModelParams::paper_default(150, ctx.scale.max(20)))
        .expect("valid")
        .generate(ctx.seed + 100);
    let n = san.num_social_nodes();
    let degrees: Vec<f64> = (5..n * 3 / 4)
        .map(|i| san.out_degree(san_graph::SocialId(i as u32)) as f64)
        .filter(|&d| d > 0.0)
        .collect();
    let fit = Lognormal::fit(&degrees).expect("degrees");
    println!(
        "Theorem 1: predicted lognormal(mu={mu_pred:.3}, sigma={sigma_pred:.3}); fitted (mu={:.3}, sigma={:.3})",
        fit.mu, fit.sigma
    );

    // Theorem 2 sweep.
    println!("Theorem 2: attribute social-degree exponent (2-p)/(1-p)");
    println!("  {:>6} {:>10} {:>10}", "p", "predicted", "fitted");
    for &p_new in &[0.1, 0.2, 1.0 / 3.0, 0.5] {
        let mut params = SanModelParams::paper_default(100, ctx.scale.max(20));
        params.attr_assign = san_core::model::AttrAssign::Lognormal {
            mu: 1.0,
            sigma: 0.8,
            p_new,
        };
        let (_, san) = SanModel::new(params)
            .expect("valid")
            .generate(ctx.seed + 101);
        let degrees: Vec<u64> = san
            .attr_nodes()
            .map(|a| san.social_degree_of_attr(a) as u64)
            .filter(|&d| d >= 1)
            .collect();
        let fitted = DiscretePowerLaw::fit(&degrees, 3)
            .map(|f| f.alpha())
            .unwrap_or(f64::NAN);
        println!(
            "  {p_new:>6.2} {:>10.3} {fitted:>10.3}",
            predicted_attr_exponent(p_new).expect("valid p")
        );
    }
}

/// Appendix A / Algorithm 2: estimator error vs sample budget against the
/// Hoeffding bound.
pub fn alg2(ctx: &Ctx) {
    banner(
        "Alg 2",
        "constant-time clustering estimator: error vs budget",
    );
    // Frozen once: every sample reads a sorted CSR `Γs(u)` slice instead
    // of re-merging the mutable adjacency lists; the slices and the RNG
    // draws are the same, so the output is too.
    let csr = ctx.crawl.san.freeze();
    let san = &csr;
    let exact = average_clustering_exact(san, NodeSet::Social);
    println!("exact average social clustering = {exact:.5}");
    println!(
        "  {:>10} {:>12} {:>12} {:>14}",
        "K", "estimate", "|error|", "hoeffding eps(nu=100)"
    );
    let mut rng = SplitRng::new(ctx.seed ^ 0xA162);
    for k in [100usize, 1_000, 10_000, 100_000, 662_290] {
        let est = approx_average_clustering_k(san, NodeSet::Social, k, &mut rng);
        let eps = san_stats::hoeffding::hoeffding_epsilon(k, 100.0);
        println!(
            "  {k:>10} {est:>12.5} {:>12.5} {eps:>14.5}",
            (est - exact).abs()
        );
    }
    println!("(paper operating point: eps=0.002, nu=100 -> K=662,290)");
}
