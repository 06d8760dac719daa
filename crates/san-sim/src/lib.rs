//! # san-sim — a synthetic Google+ and its crawler
//!
//! The paper's measurements run on a proprietary crawl of Google+ (79 daily
//! snapshots, ~30 M users, §2.2). That dataset cannot be redistributed, so
//! this crate provides the workspace's **data substitution**: a synthetic
//! Google+ whose ground truth is grown by the paper's own generative engine
//! (`san-core`) under the measured three-phase regime, plus the §2.2 BFS
//! crawler that observes it through public/private visibility.
//!
//! What the simulator reproduces (and where it is calibrated):
//!
//! * **Three phases** (Fig. 2–3): arrival-rate schedule with explosive
//!   Phase I (days 1–20), steady invitation-only Phase II (21–75), and the
//!   public-release spike of Phase III (76–98) — [`phases`].
//! * **Declining hybrid reciprocity** (Fig. 4a): a per-day reciprocation
//!   schedule that decays as the population shifts from friend-style to
//!   publisher-subscriber behaviour — [`phases::reciprocity_schedule`].
//! * **22 % attribute declaration** (§2.2) and the four profile attribute
//!   types with named popular values ("Google", "Computer Science", …) —
//!   [`vocab`].
//! * **Crawl semantics**: daily snapshot-expanding BFS with both outgoing
//!   and incoming lists visible on public profiles, discovered once per
//!   dataset ([`CrawlLog`]) and rebuilt only on the days an experiment
//!   samples — [`dataset`].
//!
//! Every experiment binary consumes [`dataset::GooglePlusData`], so the
//! exact same measurement code would run on a real crawl parsed into a
//! [`san_graph::San`].

pub mod dataset;
pub mod phases;
pub mod vocab;

pub use dataset::{CrawlDay, CrawlLog, GooglePlus, GooglePlusData, GooglePlusParams};
pub use phases::{arrivals_schedule, reciprocity_schedule};
pub use vocab::label_attributes;
