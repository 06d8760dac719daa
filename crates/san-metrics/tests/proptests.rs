//! Property-based tests for the measurement library.

use proptest::prelude::*;
use san_graph::prelude::*;
use san_metrics::clustering::{
    approx_average_clustering_k, average_clustering_exact, local_clustering_social, NodeSet,
};
use san_metrics::hyperanf::{
    attribute_effective_diameter, effective_diameter_from_nf, neighborhood_function,
    social_effective_diameter,
};
use san_metrics::jdd::{attribute_assortativity, social_assortativity};
use san_metrics::reciprocity::{fine_grained_reciprocity, global_reciprocity};
use san_stats::SplitRng;

fn arb_san(max_social: u32, max_attr: u32) -> impl Strategy<Value = San> {
    (
        2..=max_social,
        0..=max_attr,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..250),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..120),
    )
        .prop_map(|(ns, na, social, attr)| {
            let mut san = San::new();
            for _ in 0..ns {
                san.add_social_node();
            }
            for _ in 0..na {
                san.add_attr_node(AttrType::Other);
            }
            for (u, v) in social {
                if u % ns != v % ns {
                    san.add_social_link(SocialId(u % ns), SocialId(v % ns));
                }
            }
            if na > 0 {
                for (u, a) in attr {
                    san.add_attr_link(SocialId(u % ns), AttrId(a % na));
                }
            }
            san
        })
}

/// The synchronous HyperANF every round of the library must reproduce:
/// one heap counter per node, a full copy of every counter per round,
/// every successor unioned, every estimate recomputed with `powi`. Kept
/// deliberately naive (and independent of the library's register helpers)
/// as the oracle for the incremental rounds.
mod reference {
    fn hash_node(id: u64, seed: u64) -> u64 {
        let mut z = id
            .wrapping_add(seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678_9ABC_DEF1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn estimate(registers: &[u8]) -> f64 {
        let m = registers.len() as f64;
        let alpha = match registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    pub fn neighborhood_function(
        adj: &[Vec<u32>],
        init: &[bool],
        count: &[bool],
        b: u8,
        max_iters: usize,
        seed: u64,
    ) -> Vec<f64> {
        let n = adj.len();
        if n == 0 {
            return vec![0.0];
        }
        let mut counters: Vec<Vec<u8>> = (0..n)
            .map(|u| {
                let mut c = vec![0u8; 1 << b];
                if init[u] {
                    let hash = hash_node(u as u64, seed);
                    let idx = (hash >> (64 - b)) as usize;
                    let rank = ((hash << b).leading_zeros() as u8).min(64 - b) + 1;
                    c[idx] = c[idx].max(rank);
                }
                c
            })
            .collect();
        let total = |cs: &[Vec<u8>]| -> f64 {
            cs.iter()
                .zip(count)
                .filter(|(_, &keep)| keep)
                .map(|(c, _)| estimate(c))
                .sum()
        };
        let mut series = vec![total(&counters)];
        for _ in 0..max_iters {
            let mut next = counters.clone();
            let mut any_changed = false;
            for (u, outs) in adj.iter().enumerate() {
                for &v in outs {
                    for (r, &o) in next[u].iter_mut().zip(&counters[v as usize]) {
                        if o > *r {
                            *r = o;
                            any_changed = true;
                        }
                    }
                }
            }
            counters = next;
            if !any_changed {
                break;
            }
            series.push(total(&counters));
        }
        series
    }
}

/// A random successor structure (self-loops and duplicate arcs allowed)
/// with random `init`/`count` masks — the lifted-graph shape, where only
/// some counters start non-empty and only some are summed.
fn arb_anf_input() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<bool>, Vec<bool>)> {
    (
        0u32..48,
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..220),
        prop::collection::vec(any::<bool>(), 48),
        prop::collection::vec(any::<bool>(), 48),
    )
        .prop_map(|(n, arcs, init, count)| {
            let n = n as usize;
            let mut adj = vec![Vec::new(); n];
            if n > 0 {
                for (u, v) in arcs {
                    adj[u as usize % n].push(v % n as u32);
                }
            }
            (adj, init[..n].to_vec(), count[..n].to_vec())
        })
}

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental rounds (dirty nodes, stale-row copies, cached
    /// estimates) reproduce the synchronous algorithm bit for bit.
    #[test]
    fn hyperanf_matches_synchronous_oracle(
        (adj, init, count) in arb_anf_input(),
        b in 4u8..9,
        max_iters in prop_oneof![Just(1usize), Just(3usize), Just(64usize), Just(256usize)],
        seed in any::<u64>(),
    ) {
        let got = neighborhood_function(&adj, &init, &count, b, max_iters, seed);
        let want = reference::neighborhood_function(&adj, &init, &count, b, max_iters, seed);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The diameters read successors straight from the SAN; they must
    /// match the oracle run over the explicitly built social and lifted
    /// adjacency.
    #[test]
    fn diameters_match_synchronous_oracle(san in arb_san(30, 6), b in 4u8..9, seed in 0u64..50) {
        let n = san.num_social_nodes();
        let m = san.num_attr_nodes();
        let mut adj: Vec<Vec<u32>> = san
            .social_nodes()
            .map(|u| san.out_neighbors(u).iter().map(|v| v.0).collect())
            .collect();
        let all = vec![true; n];
        let social = reference::neighborhood_function(&adj, &all, &all, b, 256, seed);
        prop_assert_eq!(
            social_effective_diameter(&san, 0.9, b, seed).to_bits(),
            effective_diameter_from_nf(&social, 0.9).to_bits()
        );
        for u in san.social_nodes() {
            adj[u.index()].extend(san.attrs_of(u).iter().map(|a| n as u32 + a.0));
        }
        adj.extend(san.attr_nodes().map(|a| san.members_of(a).iter().map(|u| u.0).collect()));
        let attr_mask: Vec<bool> = (0..n + m).map(|u| u >= n).collect();
        let lifted = reference::neighborhood_function(&adj, &attr_mask, &attr_mask, b, 256, seed);
        let want = if m == 0 {
            0.0
        } else {
            (effective_diameter_from_nf(&lifted, 0.9) - 1.0).max(0.0)
        };
        prop_assert_eq!(attribute_effective_diameter(&san, 0.9, b, seed).to_bits(), want.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Reciprocity is a proper fraction.
    #[test]
    fn reciprocity_in_unit_interval(san in arb_san(40, 0)) {
        let r = global_reciprocity(&san);
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// Making every link mutual drives reciprocity to exactly 1.
    #[test]
    fn mutualised_network_fully_reciprocal(san in arb_san(25, 0)) {
        let mut m = san.clone();
        let links: Vec<_> = san.social_links().collect();
        for (u, v) in links {
            m.add_social_link(v, u);
        }
        if m.num_social_links() > 0 {
            prop_assert_eq!(global_reciprocity(&m), 1.0);
        }
    }

    /// Local clustering coefficients are in [0, 1] (denominator counts
    /// ordered pairs, L counts directed links).
    #[test]
    fn clustering_in_unit_interval(san in arb_san(30, 0)) {
        for u in san.social_nodes() {
            let c = local_clustering_social(&san, u);
            prop_assert!((0.0..=1.0).contains(&c), "c={} at {}", c, u);
        }
    }

    /// The Algorithm 2 estimator is unbiased enough: with a large budget it
    /// lands within 0.05 of the exact average.
    #[test]
    fn algorithm2_close_to_exact(san in arb_san(25, 6), seed in 0u64..50) {
        let exact = average_clustering_exact(&san, NodeSet::Social);
        let mut rng = SplitRng::new(seed);
        let approx = approx_average_clustering_k(&san, NodeSet::Social, 20_000, &mut rng);
        prop_assert!((approx - exact).abs() < 0.05,
            "exact={} approx={}", exact, approx);
    }

    /// Assortativity coefficients stay within [-1, 1].
    #[test]
    fn assortativity_bounded(san in arb_san(40, 8)) {
        let r = social_assortativity(&san);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        let ra = attribute_assortativity(&san);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ra));
    }

    /// Fine-grained reciprocity cells partition the one-directional links
    /// and rates are proper fractions.
    #[test]
    fn fine_grained_cells_consistent(san in arb_san(25, 5)) {
        let one_directional = san
            .social_links()
            .filter(|&(u, v)| !san.has_social_link(v, u))
            .count();
        let cells = fine_grained_reciprocity(&san, &san);
        let total: usize = cells.iter().map(|c| c.links).sum();
        prop_assert_eq!(total, one_directional);
        for c in &cells {
            prop_assert!(c.reciprocated <= c.links);
            prop_assert!(c.common_attrs <= 2);
            prop_assert!((0.0..=1.0).contains(&c.rate()));
        }
    }

    /// The neighbourhood function is monotone non-decreasing in t.
    #[test]
    fn nf_monotone(san in arb_san(30, 0), seed in 0u64..20) {
        let adj: Vec<Vec<u32>> = san
            .social_nodes()
            .map(|u| san.out_neighbors(u).iter().map(|v| v.0).collect())
            .collect();
        let init = vec![true; adj.len()];
        let nf = neighborhood_function(&adj, &init, &init, 6, 64, seed);
        for w in nf.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9);
        }
    }

    /// Effective diameter is monotone in the quantile.
    #[test]
    fn diameter_monotone_in_q(san in arb_san(30, 0), seed in 0u64..20) {
        let adj: Vec<Vec<u32>> = san
            .social_nodes()
            .map(|u| san.out_neighbors(u).iter().map(|v| v.0).collect())
            .collect();
        let init = vec![true; adj.len()];
        let nf = neighborhood_function(&adj, &init, &init, 6, 64, seed);
        let d50 = effective_diameter_from_nf(&nf, 0.5);
        let d90 = effective_diameter_from_nf(&nf, 0.9);
        prop_assert!(d50 <= d90 + 1e-9);
    }
}
