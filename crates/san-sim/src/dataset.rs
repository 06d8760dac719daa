//! The synthetic Google+ dataset: ground truth + daily crawls.
//!
//! [`GooglePlus::generate`] grows a ground-truth SAN with the paper's own
//! generative engine under the three-phase schedule, assigns public/private
//! visibility, and labels the attribute vocabulary. [`GooglePlusData`] then
//! exposes the §2.2 crawl: a stateful BFS crawler run against each daily
//! snapshot, seeded at a well-connected early user, observing only what a
//! real crawler could see.
//!
//! The daily crawl runs once per dataset. [`GooglePlusData::crawl_log`]
//! does the discovery pass on first use and keeps only each user's
//! first-known day and one counts-and-coverage row per day.
//! [`GooglePlusData::for_each_crawled_day`] rebuilds a crawled day from
//! that log, and only on the days an experiment samples. Each rebuilt day
//! is frozen and dropped after its visit, so no crawled graph outlives it.

use crate::phases::{arrivals_schedule, reciprocity_schedule};
use crate::vocab::label_attributes;
use san_core::model::{SanModel, SanModelParams};
use san_graph::crawler::{observe, observe_counts, CrawlCounts, CrawlSnapshot, Crawler};
use san_graph::degree::nodes_by_total_degree;
use san_graph::store::{SnapshotVault, StoreError, StreamingVaultWriter};
use san_graph::{CsrSan, San, SanEvent, SanTimeline, SocialId};
use san_stats::SplitRng;
use std::sync::OnceLock;

/// Simulator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GooglePlusParams {
    /// Simulated days (the paper observes 98 days across three phases).
    pub days: u32,
    /// Phase II arrivals per day — the scale knob. ~60 gives ≈10 k users,
    /// ~600 gives ≈100 k.
    pub base_arrivals: u32,
    /// Fraction of users with public profiles (crawl visibility).
    pub public_prob: f64,
    /// Fraction of users declaring any attributes (paper measures 22 %).
    pub attr_declare_prob: f64,
    /// The generative engine settings (three-phase arrival/reciprocity
    /// schedules are overlaid on top of this base).
    pub engine: SanModelParams,
}

impl GooglePlusParams {
    /// Paper-shaped defaults at a given scale.
    pub fn at_scale(base_arrivals: u32) -> Self {
        let days = 98;
        GooglePlusParams {
            days,
            base_arrivals,
            public_prob: 0.85,
            attr_declare_prob: 0.22,
            engine: SanModelParams::paper_default(days, base_arrivals),
        }
    }
}

/// The dataset generator.
#[derive(Debug, Clone)]
pub struct GooglePlus {
    params: GooglePlusParams,
}

/// A generated synthetic Google+ with everything experiments need.
#[derive(Debug, Clone)]
pub struct GooglePlusData {
    /// Ground-truth growth log.
    pub timeline: SanTimeline,
    /// Ground truth at the final day.
    pub truth: San,
    /// Per-user public/private visibility.
    pub public: Vec<bool>,
    /// Human-readable attribute labels (by attribute id).
    pub labels: Vec<String>,
    /// Crawl seed (a well-connected early adopter).
    pub crawl_seed: SocialId,
    /// The daily crawl's log, filled on first use by
    /// [`crawl_log`](GooglePlusData::crawl_log).
    crawl_log: OnceLock<CrawlLog>,
}

/// The record of one daily crawl of a dataset: enough to rebuild any
/// crawled day from that day's ground truth, plus every day's counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlLog {
    /// For each ground-truth user (by index), the first day the crawler
    /// knew it, or [`CrawlLog::NEVER`]. The users known on day `d` are exactly
    /// those with `first_known <= d`.
    pub first_known: Vec<u32>,
    /// One row per crawled day, in day order. Days before the crawl seed
    /// joins the ground truth are not crawled and have no row.
    pub days: Vec<CrawlDay>,
}

/// One crawled day's sizes and coverage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrawlDay {
    /// The day.
    pub day: u32,
    /// What the crawler observed that day.
    pub counts: CrawlCounts,
}

impl CrawlLog {
    /// First-known day of a user the crawler never reached.
    pub const NEVER: u32 = u32::MAX;

    /// Runs the daily crawl of `data` — one ground-truth replay and one
    /// BFS discovery per day — without materialising any crawled graph.
    /// [`GooglePlusData::crawl_log`] memoises this per dataset.
    pub fn discover(data: &GooglePlusData) -> CrawlLog {
        let mut crawler = Crawler::new(vec![data.crawl_seed]);
        let mut first_known = vec![CrawlLog::NEVER; data.truth.num_social_nodes()];
        let mut days = Vec::new();
        data.for_each_truth_day(|day, truth, public| {
            crawler.discover(truth, public);
            for &u in crawler.known() {
                let first = &mut first_known[u.index()];
                *first = (*first).min(day);
            }
            let counts = observe_counts(truth, public, crawler.known());
            days.push(CrawlDay { day, counts });
        });
        CrawlLog { first_known, days }
    }
}

impl GooglePlus {
    /// Creates the generator; validates engine parameters.
    pub fn new(mut params: GooglePlusParams) -> Result<Self, san_core::ModelError> {
        params.engine.days = params.days;
        params.engine.arrivals_per_day = arrivals_schedule(params.days, params.base_arrivals);
        params.engine.reciprocate_schedule = Some(reciprocity_schedule(params.days));
        params.engine.attr_declare_prob = params.attr_declare_prob;
        params.engine.reciprocate_attr_boost = 1.6;
        params.engine.reciprocate_delay_mean = 15.0;
        // Google+ users close triangles through shared attributes far more
        // often than the model's conservative default: the paper measures
        // 18 % focal closures. fc = 3 reproduces that share given the 22 %
        // declaration rate.
        params.engine.closing = san_core::closing::ClosingModel::RrSan { fc: 3.0 };
        params.engine.validate()?;
        Ok(GooglePlus { params })
    }

    /// Convenience: paper-shaped dataset at `base_arrivals` scale.
    pub fn at_scale(base_arrivals: u32) -> Self {
        GooglePlus::new(GooglePlusParams::at_scale(base_arrivals))
            .expect("default parameters are valid")
    }

    /// The resolved parameters.
    pub fn params(&self) -> &GooglePlusParams {
        &self.params
    }

    /// Generates the dataset. Deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> GooglePlusData {
        let model = SanModel::new(self.params.engine.clone()).expect("validated in new");
        let (timeline, truth) = model.generate(seed);
        let mut rng = SplitRng::new(seed ^ 0x600D_F00D);
        let public: Vec<bool> = (0..truth.num_social_nodes())
            .map(|_| rng.chance(self.params.public_prob))
            .collect();
        let labels = label_attributes(&truth);
        // Seed the crawler at the highest-degree public early adopter.
        let crawl_seed = nodes_by_total_degree(&truth)
            .into_iter()
            .find(|u| public[u.index()])
            .unwrap_or(SocialId(0));
        GooglePlusData {
            timeline,
            truth,
            public,
            labels,
            crawl_seed,
            crawl_log: OnceLock::new(),
        }
    }

    /// Streaming form of [`generate`](GooglePlus::generate): grows the
    /// exact same ground truth (bit-identical for the same `seed`) but
    /// hands each day's events to `sink(day, events)` as they complete
    /// instead of accumulating a [`SanTimeline`] — peak memory is the live
    /// network plus one day of events, which is what makes million-node
    /// synthesis feasible. No visibility/label/crawl bookkeeping is done;
    /// scale runs that need those should sample them from the returned
    /// ground truth.
    pub fn generate_streaming<F: FnMut(u32, &[SanEvent])>(&self, seed: u64, sink: F) -> San {
        let model = SanModel::new(self.params.engine.clone()).expect("validated in new");
        model.generate_with(seed, sink)
    }

    /// Synthesizes the ground truth straight into `vault` in bounded
    /// memory: each day's events stream into a
    /// [`StreamingVaultWriter`] persisting every `step`-th day (plus the
    /// final day) as SANCSRBF v2, with at most `full_every - 1`
    /// consecutive delta days between full days. At no point are more
    /// than two snapshots resident. Returns the final ground-truth
    /// network and the persisted days.
    ///
    /// # Panics
    /// Panics if `step == 0` or `full_every` is outside
    /// `1..=`[`MAX_DELTA_CHAIN`](san_graph::store::MAX_DELTA_CHAIN).
    pub fn synthesize_into_vault(
        &self,
        seed: u64,
        vault: &mut SnapshotVault,
        step: u32,
        full_every: u32,
    ) -> Result<(San, Vec<u32>), StoreError> {
        let mut writer = StreamingVaultWriter::new(vault, step, full_every);
        let mut failed = None;
        let truth = self.generate_streaming(seed, |_, events| {
            if failed.is_none() {
                if let Err(e) = writer.apply_day(events) {
                    failed = Some(e);
                }
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        let saved = writer.finish()?;
        Ok((truth, saved))
    }
}

impl GooglePlusData {
    /// The daily crawl of §2.2 over every day of the timeline, run on
    /// first use and kept for the dataset's lifetime (a few bytes per user
    /// and per day). The crawler state persists across days exactly as in
    /// §2.2: each day expands from the previous day's known users.
    pub fn crawl_log(&self) -> &CrawlLog {
        self.crawl_log.get_or_init(|| CrawlLog::discover(self))
    }

    /// Visits every `step`-th crawled day after day 0 as a frozen
    /// snapshot: `visit(day, &crawled)` sees exactly what the daily crawl
    /// observed that day (`Crawler::crawl(..).san.freeze()`).
    ///
    /// Costs one ground-truth replay plus one materialisation per visited
    /// day; each crawled day is dropped after its visit.
    ///
    /// # Panics
    /// Panics if `step == 0`.
    pub fn for_each_crawled_day<F: FnMut(u32, &CsrSan)>(&self, step: u32, mut visit: F) {
        assert!(step > 0, "step must be positive");
        let first_known = &self.crawl_log().first_known;
        self.for_each_truth_day(|day, truth, public| {
            if day == 0 || day % step != 0 {
                return;
            }
            let known: Vec<SocialId> = (0..truth.num_social_nodes() as u32)
                .map(SocialId)
                .filter(|u| first_known[u.index()] <= day)
                .collect();
            let crawled = observe(truth, public, &known).san.freeze();
            visit(day, &crawled);
        });
    }

    /// Replays the ground truth, handing each day the crawl can run on
    /// (the crawl seed has joined) to `visit(day, truth, public)` with the
    /// visibility of that day's users.
    fn for_each_truth_day<F: FnMut(u32, &San, &[bool])>(&self, mut visit: F) {
        self.timeline.for_each_day(|day, truth| {
            let n = truth.num_social_nodes();
            if self.crawl_seed.index() < n {
                visit(day, truth, &self.public[..n]);
            }
        });
    }

    /// Crawls only the final day (cheapest way to get "the last snapshot",
    /// which most single-snapshot analyses use).
    pub fn crawl_final(&self) -> CrawlSnapshot {
        let mut crawler = Crawler::new(vec![self.crawl_seed]);
        crawler.crawl(&self.truth, &self.public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use san_metrics::reciprocity::global_reciprocity;

    fn tiny_data() -> GooglePlusData {
        GooglePlus::at_scale(6).generate(1)
    }

    #[test]
    fn generates_three_phase_growth() {
        let data = tiny_data();
        let counts = data.timeline.day_counts();
        assert_eq!(counts.len(), 99);
        // Arrival spikes: day 1 and day 80 add ~4x the Phase II rate.
        let added = |d: usize| counts[d].social_nodes - counts[d - 1].social_nodes;
        assert!(
            added(1) >= 3 * added(40),
            "d1={} d40={}",
            added(1),
            added(40)
        );
        assert!(added(80) >= 3 * added(40));
        data.truth.check_consistency().unwrap();
    }

    #[test]
    fn declaration_rate_near_configured() {
        let data = GooglePlus::at_scale(20).generate(2);
        let rate = san_graph::subsample::attribute_declaration_rate(&data.truth);
        assert!((rate - 0.22).abs() < 0.05, "rate={rate}");
    }

    #[test]
    fn reciprocity_declines_over_time() {
        let data = GooglePlus::at_scale(15).generate(3);
        let early = data.timeline.snapshot_at(40);
        let late = data.timeline.snapshot_at(98);
        let r_early = global_reciprocity(&early);
        let r_late = global_reciprocity(&late);
        assert!(
            r_late < r_early,
            "reciprocity should decay: early={r_early} late={r_late}"
        );
        // In the plausible Google+ band.
        assert!((0.2..=0.6).contains(&r_late), "r_late={r_late}");
    }

    #[test]
    fn crawl_covers_most_of_truth() {
        let data = tiny_data();
        let snap = data.crawl_final();
        // The paper argues >= 70% coverage; with 85% public profiles and a
        // WCC-spanning crawler we should beat that comfortably.
        assert!(snap.node_coverage > 0.7, "coverage={}", snap.node_coverage);
        snap.san.check_consistency().unwrap();
    }

    #[test]
    fn daily_crawls_are_monotone() {
        let data = tiny_data();
        let log = data.crawl_log();
        assert!(log.days.len() >= 98, "days crawled={}", log.days.len());
        for w in log.days.windows(2) {
            assert_eq!(w[1].day, w[0].day + 1);
            assert!(w[1].counts.social_nodes >= w[0].counts.social_nodes);
        }
        assert!(log.days.last().unwrap().counts.social_nodes > 0);
        // The first-known days agree with the per-day node counts.
        for row in &log.days {
            let known = log.first_known.iter().filter(|&&d| d <= row.day).count();
            assert_eq!(known, row.counts.social_nodes, "day {}", row.day);
        }
    }

    /// The §2.2 daily crawl as one sequential step per day — BFS from
    /// yesterday's known users, then materialise the whole observed SAN —
    /// written out here independently of `san_graph::crawler`, as the
    /// reference the discover/observe split must reproduce.
    struct ReferenceCrawler {
        seed: SocialId,
        known: Vec<bool>,
    }

    impl ReferenceCrawler {
        fn crawl(&mut self, truth: &San, public: &[bool]) -> CrawlSnapshot {
            let n = truth.num_social_nodes();
            self.known.resize(n, false);
            self.known[self.seed.index()] = true;
            let mut queue: std::collections::VecDeque<SocialId> = (0..n as u32)
                .map(SocialId)
                .filter(|u| self.known[u.index()])
                .collect();
            while let Some(u) = queue.pop_front() {
                if public[u.index()] {
                    for &v in truth.out_neighbors(u).iter().chain(truth.in_neighbors(u)) {
                        if !self.known[v.index()] {
                            self.known[v.index()] = true;
                            queue.push_back(v);
                        }
                    }
                }
            }
            let social_origin: Vec<SocialId> = (0..n as u32)
                .map(SocialId)
                .filter(|u| self.known[u.index()])
                .collect();
            let mut local = vec![u32::MAX; n];
            let mut san = San::new();
            for &u in &social_origin {
                local[u.index()] = san.add_social_node().0;
            }
            let mut attr_local = std::collections::HashMap::new();
            let mut attr_origin = Vec::new();
            let mut links = 0;
            for &u in &social_origin {
                let lu = SocialId(local[u.index()]);
                for &v in truth.out_neighbors(u) {
                    let lv = local[v.index()];
                    if lv != u32::MAX && (public[u.index()] || public[v.index()]) {
                        links += usize::from(san.add_social_link(lu, SocialId(lv)));
                    }
                }
                if public[u.index()] {
                    for &a in truth.attrs_of(u) {
                        let la = *attr_local.entry(a).or_insert_with(|| {
                            attr_origin.push(a);
                            san.add_attr_node(truth.attr_type(a))
                        });
                        san.add_attr_link(lu, la);
                    }
                }
            }
            CrawlSnapshot {
                node_coverage: social_origin.len() as f64 / n as f64,
                link_coverage: links as f64 / truth.num_social_links().max(1) as f64,
                san,
                social_origin,
                attr_origin,
            }
        }
    }

    /// Every day of the crawl log and every rebuilt crawled day equal the
    /// reference crawl that materialises each day: same graph (including
    /// the first-encounter numbering of crawl-local attribute ids), same
    /// counts, same coverage. `Crawler::crawl` agrees with both.
    #[test]
    fn crawled_days_match_sequential_crawl() {
        for seed in 1..=3 {
            let data = GooglePlus::at_scale(6).generate(seed);
            let mut reference = ReferenceCrawler {
                seed: data.crawl_seed,
                known: Vec::new(),
            };
            let mut crawler = Crawler::new(vec![data.crawl_seed]);
            let mut expected = Vec::new();
            let mut rows = Vec::new();
            data.timeline.for_each_day(|day, truth| {
                let n = truth.num_social_nodes();
                if data.crawl_seed.index() >= n {
                    return;
                }
                let want = reference.crawl(truth, &data.public[..n]);
                let got = crawler.crawl(truth, &data.public[..n]);
                let want_csr = want.san.freeze();
                assert!(got.san.freeze() == want_csr, "seed {seed} day {day}");
                assert_eq!(got.attr_origin, want.attr_origin, "seed {seed} day {day}");
                assert_eq!(got.counts(), want.counts(), "seed {seed} day {day}");
                rows.push(CrawlDay {
                    day,
                    counts: want.counts(),
                });
                if day > 0 {
                    expected.push((day, want_csr));
                }
            });
            assert_eq!(data.crawl_log().days, rows, "seed {seed}");

            let mut expected = expected.into_iter();
            data.for_each_crawled_day(1, |day, crawled| {
                let (want_day, want) = expected.next().expect("no extra days");
                assert_eq!(day, want_day, "seed {seed}");
                assert!(*crawled == want, "seed {seed} day {day}");
            });
            assert!(expected.next().is_none(), "seed {seed}: days missing");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = GooglePlus::at_scale(8).generate(7);
        let b = GooglePlus::at_scale(8).generate(7);
        assert_eq!(a.truth.num_social_links(), b.truth.num_social_links());
        assert_eq!(a.public, b.public);
        assert_eq!(a.crawl_seed, b.crawl_seed);
    }

    #[test]
    fn streaming_generation_matches_batch() {
        let gp = GooglePlus::at_scale(5);
        let data = gp.generate(4);
        let mut events = Vec::new();
        let truth = gp.generate_streaming(4, |day, evs| {
            assert!(evs.iter().all(|e| e.day() == day));
            events.extend_from_slice(evs);
        });
        assert_eq!(events, data.timeline.events());
        assert_eq!(truth.num_social_nodes(), data.truth.num_social_nodes());
        assert_eq!(truth.num_social_links(), data.truth.num_social_links());
        assert_eq!(truth.num_attr_links(), data.truth.num_attr_links());
    }

    #[test]
    fn synthesize_into_vault_matches_timeline_snapshots() {
        let dir = std::env::temp_dir().join(format!("san-sim-vault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut vault = SnapshotVault::create(&dir).unwrap();

        let gp = GooglePlus::at_scale(4);
        let (truth, saved) = gp.synthesize_into_vault(9, &mut vault, 10, 4).unwrap();
        let data = gp.generate(9);
        assert_eq!(truth.num_social_links(), data.truth.num_social_links());

        // Persisted grid: every 10th day plus the forced final day 98.
        let expect: Vec<u32> = (0..=98).filter(|d| d % 10 == 0).chain([98]).collect();
        assert_eq!(saved, expect);
        // Each persisted day reloads to the replayed snapshot, across the
        // full/delta mix.
        for &day in &[0u32, 30, 50, 98] {
            let loaded = vault.load_day(day).unwrap();
            assert_eq!(*loaded, data.timeline.snapshot_csr(day), "day {day}");
        }
        assert_eq!(*vault.load_day(98).unwrap(), data.truth.freeze());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_cover_attributes() {
        let data = tiny_data();
        assert_eq!(data.labels.len(), data.truth.num_attr_nodes());
        assert!(data.labels.contains(&"Google".to_string()));
    }
}
