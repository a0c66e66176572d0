//! Persistence configuration: checkpoint policy and compaction tuning.

use lots_sim::SimDuration;

/// When a node seals its journal segment and appends a checkpoint
/// manifest. Policies are cluster-uniform: every node checkpoints at
/// the same barrier sequences, so a cluster checkpoint is the set of
/// per-node manifests with one sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Journal only; no manifests, so the log cannot seed a restore.
    Never,
    /// Checkpoint every `n`-th barrier (sequences `n, 2n, 3n, …`).
    EveryNBarriers(u64),
    /// Checkpoint exactly at the listed barrier sequences.
    AtBarriers(Vec<u64>),
}

impl CheckpointPolicy {
    /// Does barrier `seq` (1-based) end with a checkpoint?
    pub fn due(&self, seq: u64) -> bool {
        match self {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryNBarriers(n) => *n > 0 && seq.is_multiple_of(*n),
            CheckpointPolicy::AtBarriers(seqs) => seqs.contains(&seq),
        }
    }
}

/// Background log-compaction tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Master switch; `false` leaves logs append-only forever.
    pub enabled: bool,
    /// Trigger threshold: compact once superseded diff bytes make up
    /// at least this many permille of all diff bytes in the log.
    pub garbage_permille: u32,
    /// Don't bother below this many cumulative diff bytes.
    pub min_log_bytes: u64,
    /// How often the compaction daemon re-examines its node's log.
    pub poll: SimDuration,
}

impl Default for CompactionConfig {
    fn default() -> CompactionConfig {
        CompactionConfig {
            enabled: true,
            garbage_permille: 300,
            min_log_bytes: 4096,
            poll: SimDuration::from_millis(1),
        }
    }
}

/// Full persistence configuration, carried by the runtime options
/// (`LotsConfig::persist` / `Jia::persist`). Absent (`None`)
/// persistence is off and the run is bit-identical to a build without
/// this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Checkpoint policy.
    pub checkpoint: CheckpointPolicy,
    /// Compaction tuning.
    pub compaction: CompactionConfig,
}

impl PersistConfig {
    /// Journal with the given checkpoint policy and default compaction.
    pub fn new(checkpoint: CheckpointPolicy) -> PersistConfig {
        PersistConfig {
            checkpoint,
            compaction: CompactionConfig::default(),
        }
    }

    /// Shorthand for [`CheckpointPolicy::EveryNBarriers`].
    pub fn every(n: u64) -> PersistConfig {
        PersistConfig::new(CheckpointPolicy::EveryNBarriers(n))
    }

    /// Replace the compaction tuning.
    #[must_use]
    pub fn with_compaction(mut self, compaction: CompactionConfig) -> PersistConfig {
        self.compaction = compaction;
        self
    }

    /// Disable background compaction.
    #[must_use]
    pub fn without_compaction(mut self) -> PersistConfig {
        self.compaction.enabled = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_due() {
        assert!(!CheckpointPolicy::Never.due(4));
        let every = CheckpointPolicy::EveryNBarriers(4);
        assert!(!every.due(1));
        assert!(every.due(4));
        assert!(every.due(8));
        assert!(!every.due(9));
        assert!(!CheckpointPolicy::EveryNBarriers(0).due(0));
        let at = CheckpointPolicy::AtBarriers(vec![3, 7]);
        assert!(at.due(3));
        assert!(at.due(7));
        assert!(!at.due(4));
    }

    #[test]
    fn builders() {
        let p = PersistConfig::every(4).without_compaction();
        assert_eq!(p.checkpoint, CheckpointPolicy::EveryNBarriers(4));
        assert!(!p.compaction.enabled);
        let c = CompactionConfig {
            garbage_permille: 500,
            ..CompactionConfig::default()
        };
        assert_eq!(
            PersistConfig::every(2)
                .with_compaction(c.clone())
                .compaction,
            c
        );
    }
}
