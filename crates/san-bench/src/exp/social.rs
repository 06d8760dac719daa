//! §3 experiments: social structure of the Google+ SAN (Figs. 4–7).

use crate::{banner, downsample, print_series, print_series_u, Ctx};
use san_graph::degree::degree_vectors;
use san_metrics::clustering::{approx_average_clustering, NodeSet};
use san_metrics::hyperanf::{attribute_effective_diameter, social_effective_diameter};
use san_metrics::jdd::{social_assortativity, social_knn};
use san_metrics::reciprocity::global_reciprocity;
use san_metrics::social_density;
use san_stats::fit::fit_degree_distribution;
use san_stats::log_binned_pdf;

/// How often (in days) the evolution experiments sample the crawled
/// network; heavy metrics (diameter) are sampled at multiples of this.
const STEP: u32 = 7;

/// Figure 4: evolution of reciprocity, social density, diameters and the
/// average social clustering coefficient.
///
/// Expectation (paper): reciprocity fluctuates in I, declines in II,
/// declines faster in III; density dips then grows, dropping again at the
/// public release; diameters rise-fall-rise; clustering falls-rises-falls.
pub fn fig4(ctx: &Ctx) {
    banner(
        "Fig 4",
        "evolution of reciprocity / density / diameter / clustering",
    );
    let mut recip = Vec::new();
    let mut dens = Vec::new();
    let mut diam_social = Vec::new();
    let mut diam_attr = Vec::new();
    let mut clus = Vec::new();
    let mut rng = san_stats::SplitRng::new(ctx.seed ^ 0xF164);
    ctx.data.for_each_crawled_day(STEP, |day, san| {
        let d = f64::from(day);
        recip.push((d, global_reciprocity(san)));
        dens.push((d, social_density(san)));
        // Paper operating point ε=0.002/ν=100 is exact-grade; ε=0.01 keeps
        // the sweep fast while staying well inside plot resolution.
        clus.push((
            d,
            approx_average_clustering(san, NodeSet::Social, 0.01, 100.0, &mut rng),
        ));
        if day % (2 * STEP) == 0 {
            diam_social.push((d, social_effective_diameter(san, 0.9, 6, ctx.seed)));
            diam_attr.push((d, attribute_effective_diameter(san, 0.9, 6, ctx.seed)));
        }
    });
    println!("(a) reciprocity");
    print_series("day", "reciprocity", &downsample(&recip, 14));
    println!("(b) social density |Es|/|Vs|");
    print_series("day", "density", &downsample(&dens, 14));
    println!("(c) effective diameter (social / attribute)");
    print_series("day", "social diam", &diam_social);
    print_series("day", "attr diam", &diam_attr);
    println!("(d) average social clustering coefficient (Algorithm 2)");
    print_series("day", "clustering", &downsample(&clus, 14));
}

/// Figure 5: social out/in-degree distributions with best fits.
///
/// Expectation (paper): both are best modelled by a discrete lognormal,
/// not a power law.
pub fn fig5(ctx: &Ctx) {
    banner(
        "Fig 5",
        "social degree distributions + best fits (lognormal expected)",
    );
    let dv = degree_vectors(&ctx.crawl.san);
    for (name, degrees) in [("outdegree", &dv.out), ("indegree", &dv.inc)] {
        let fit = fit_degree_distribution(degrees).expect("enough degrees at any scale");
        println!(
            "{name}: best family = {} | lognormal(mu={:.3}, sigma={:.3}) KS={:.4} | power-law(alpha={:.3}) KS={:.4}",
            fit.family, fit.mu, fit.sigma, fit.ks_lognormal, fit.alpha, fit.ks_powerlaw
        );
        let pdf = log_binned_pdf(degrees, 4);
        print_series("degree", "probability", &downsample(&pdf.points, 12));
    }
}

/// Figure 6: evolution of the fitted lognormal parameters of the social
/// degree distributions.
pub fn fig6(ctx: &Ctx) {
    banner(
        "Fig 6",
        "evolution of lognormal (mu, sigma) for out/in-degree",
    );
    let mut out_mu = Vec::new();
    let mut out_sigma = Vec::new();
    let mut in_mu = Vec::new();
    let mut in_sigma = Vec::new();
    ctx.data.for_each_crawled_day(2 * STEP, |day, san| {
        let dv = degree_vectors(san);
        let d = f64::from(day);
        if let Ok(fit) = fit_degree_distribution(&dv.out) {
            out_mu.push((d, fit.mu));
            out_sigma.push((d, fit.sigma));
        }
        if let Ok(fit) = fit_degree_distribution(&dv.inc) {
            in_mu.push((d, fit.mu));
            in_sigma.push((d, fit.sigma));
        }
    });
    println!("(a) outdegree");
    print_series("day", "mu", &out_mu);
    print_series("day", "sigma", &out_sigma);
    println!("(b) indegree");
    print_series("day", "mu", &in_mu);
    print_series("day", "sigma", &in_sigma);
}

/// Figure 7: social joint degree distribution — `knn` and the evolution of
/// the assortativity coefficient.
///
/// Expectation (paper): assortativity near zero (neutral) and declining —
/// Google+ drifts toward a publisher-subscriber network.
pub fn fig7(ctx: &Ctx) {
    banner(
        "Fig 7",
        "social knn + assortativity evolution (neutral, declining)",
    );
    let knn = social_knn(&ctx.crawl.san);
    println!("(a) knn (outdegree -> mean indegree of targets)");
    print_series_u("outdegree", "knn", &downsample(&knn, 15));
    let mut series = Vec::new();
    ctx.data.for_each_crawled_day(STEP, |day, san| {
        series.push((f64::from(day), social_assortativity(san)));
    });
    println!("(b) assortativity coefficient");
    print_series("day", "assortativity", &downsample(&series, 14));
    if let (Some(first), Some(last)) = (series.first(), series.last()) {
        println!(
            "assortativity {:.4} -> {:.4} (paper: ~+0.01 -> ~-0.01, neutral & declining)",
            first.1, last.1
        );
    }
}
