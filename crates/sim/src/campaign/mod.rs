//! Crash-resilient Monte-Carlo campaigns: a parameter grid × a
//! replication count, sharded into deterministic work units, checkpointed
//! to a checksummed JSONL manifest, and merged bit-identically to an
//! uninterrupted run no matter how often the process is killed, resumed,
//! or re-sharded.
//!
//! * [`spec`] — [`CampaignSpec`], the grid description and the
//!   deterministic sharding rule;
//! * [`manifest`] — the atomic, checksummed JSONL checkpoint format of
//!   [`ttdc_util::checkpoint`];
//! * [`runner`] — [`run_campaign`]: a client of the checkpointed-job
//!   runner [`ttdc_util::checkpoint::Checkpoint`] whose unit is one shard,
//!   with per-replication panic isolation, bounded-backoff retries,
//!   quarantine, a watchdog thread, and the ordered merge.
//!
//! See `DESIGN.md` ("Checkpointed jobs") for the determinism-under-resume
//! argument.

pub mod manifest;
pub mod runner;
pub mod spec;

pub use manifest::{Manifest, ManifestError, ManifestRecord};
pub use runner::{
    manifest_overview, run_campaign, CampaignError, CampaignOptions, CampaignOutcome, ExtraMetrics,
    QuarantinedShard, WatchdogConfig, CAMPAIGN_KIND, MERGED_FILE, SUMMARY_FILE,
};
pub use spec::{CampaignSpec, PointSpec, Shard};
pub use ttdc_util::checkpoint::{
    ResumeMode, CAMPAIGN_SCHEMA_VERSION, KILL_AFTER_ENV, MANIFEST_FILE,
};
