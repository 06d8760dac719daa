//! §4.1/§4.3 experiments: attribute structure of the SAN (Figs. 8–12).

use crate::{banner, downsample, print_series, print_series_u, Ctx};
use san_graph::degree::degree_vectors;
use san_metrics::clustering::{clustering_by_degree, NodeSet};
use san_metrics::jdd::{attribute_assortativity, attribute_knn};
use san_metrics::validate::subsampling_validation;
use san_metrics::{approx_average_clustering, attr_density};
use san_stats::fit::fit_degree_distribution;
use san_stats::log_binned_pdf;

const STEP: u32 = 7;

/// Figure 8: evolution of attribute density and the average attribute
/// clustering coefficient.
///
/// Expectation (paper): attribute density rises in Phase I, flat in II,
/// slightly falls in III; attribute clustering is stable in Phase II.
pub fn fig8(ctx: &Ctx) {
    banner(
        "Fig 8",
        "attribute density + attribute clustering evolution",
    );
    let mut dens = Vec::new();
    let mut clus = Vec::new();
    let mut rng = san_stats::SplitRng::new(ctx.seed ^ 0xF168);
    ctx.data.for_each_crawled_day(STEP, |day, san| {
        let d = f64::from(day);
        dens.push((d, attr_density(san)));
        clus.push((
            d,
            approx_average_clustering(san, NodeSet::Attr, 0.01, 100.0, &mut rng),
        ));
    });
    println!("(a) attribute density |Ea|/|Va|");
    print_series("day", "density", &downsample(&dens, 14));
    println!("(b) average attribute clustering coefficient");
    print_series("day", "clustering", &downsample(&clus, 14));
}

/// Figure 9: clustering coefficient vs node degree — social vs attribute
/// (a), and the §4.3 subsampling validation (b).
///
/// Expectation (paper): both follow power-law-like decay; attribute
/// clustering is lower with a steeper exponent; the subsampled curve
/// overlays the original.
pub fn fig9(ctx: &Ctx) {
    banner(
        "Fig 9",
        "clustering vs degree (social/attribute) + subsample check",
    );
    let san = &ctx.crawl.san;
    let social = clustering_by_degree(san, NodeSet::Social);
    let attr = clustering_by_degree(san, NodeSet::Attr);
    println!("(a) social clustering by degree");
    print_series_u("degree", "clustering", &downsample(&social, 14));
    println!("(a) attribute clustering by degree");
    print_series_u("degree", "clustering", &downsample(&attr, 14));
    let slope = |series: &[(u64, f64)]| {
        let pts: Vec<(f64, f64)> = series.iter().map(|&(d, c)| (d as f64, c)).collect();
        san_stats::summary::log_log_slope(&pts).map(|f| f.slope)
    };
    if let (Some(s_soc), Some(s_attr)) = (slope(&social), slope(&attr)) {
        println!(
            "log-log slopes: social={s_soc:.3} attribute={s_attr:.3} (paper: attribute steeper)"
        );
    }
    println!("(b) subsampling validation (keep attributes w.p. 0.5)");
    let mut rng = san_stats::SplitRng::new(ctx.seed ^ 0xF169);
    let cmp = subsampling_validation(san, 0.5, &mut rng);
    println!(
        "mean |original - subsampled| over {} shared degrees = {:.5} (paper: curves overlap)",
        cmp.common_degrees, cmp.mean_abs_diff
    );
}

/// Figure 10: the two attribute-induced degree distributions with fits.
///
/// Expectation (paper): attribute degree of social nodes ⇒ lognormal;
/// social degree of attribute nodes ⇒ power law.
pub fn fig10(ctx: &Ctx) {
    banner("Fig 10", "attribute-induced degree distributions + fits");
    let dv = degree_vectors(&ctx.crawl.san);
    let attr_deg = fit_degree_distribution(&dv.attr_of_social)
        .expect("declared users provide positive attribute degrees");
    println!(
        "(a) attribute degree of social nodes: best = {} | lognormal(mu={:.3}, sigma={:.3}) | power-law alpha={:.3}",
        attr_deg.family, attr_deg.mu, attr_deg.sigma, attr_deg.alpha
    );
    let pdf = log_binned_pdf(&dv.attr_of_social, 4);
    print_series("degree", "probability", &downsample(&pdf.points, 10));

    let soc_of_attr =
        fit_degree_distribution(&dv.social_of_attr).expect("attribute nodes have members");
    println!(
        "(b) social degree of attribute nodes: best = {} | power-law alpha={:.3} KS={:.4} | lognormal KS={:.4}",
        soc_of_attr.family, soc_of_attr.alpha, soc_of_attr.ks_powerlaw, soc_of_attr.ks_lognormal
    );
    let pdf = log_binned_pdf(&dv.social_of_attr, 4);
    print_series("degree", "probability", &downsample(&pdf.points, 10));
}

/// Figure 11: evolution of the fitted parameters of Fig. 10's
/// distributions.
pub fn fig11(ctx: &Ctx) {
    banner("Fig 11", "evolution of attribute-degree fit parameters");
    let mut mu = Vec::new();
    let mut sigma = Vec::new();
    let mut alpha = Vec::new();
    ctx.data.for_each_crawled_day(2 * STEP, |day, san| {
        let dv = degree_vectors(san);
        let d = f64::from(day);
        if let Ok(fit) = fit_degree_distribution(&dv.attr_of_social) {
            mu.push((d, fit.mu));
            sigma.push((d, fit.sigma));
        }
        if let Ok(fit) = fit_degree_distribution(&dv.social_of_attr) {
            alpha.push((d, fit.alpha));
        }
    });
    println!("(a) attribute degree of social nodes: lognormal parameters");
    print_series("day", "mu", &mu);
    print_series("day", "sigma", &sigma);
    println!("(b) social degree of attribute nodes: power-law exponent");
    print_series("day", "alpha", &alpha);
}

/// Figure 12: attribute joint degree distribution — `knn` and the
/// attribute assortativity evolution.
///
/// Expectation (paper): neutral-to-slightly-negative, stable in Phase III
/// (unlike the social assortativity, which keeps falling).
pub fn fig12(ctx: &Ctx) {
    banner(
        "Fig 12",
        "attribute knn + attribute assortativity evolution",
    );
    let knn = attribute_knn(&ctx.crawl.san);
    println!("(a) attribute knn (social degree -> mean member attr degree)");
    print_series_u("social degree", "knn", &downsample(&knn, 15));
    let mut series = Vec::new();
    ctx.data.for_each_crawled_day(STEP, |day, san| {
        series.push((f64::from(day), attribute_assortativity(san)));
    });
    println!("(b) attribute assortativity coefficient");
    print_series("day", "assortativity", &downsample(&series, 14));
}
