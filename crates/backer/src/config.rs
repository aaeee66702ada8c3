//! Configuration for the BACKER simulator and executor.

/// Fault injection switches — each disables one leg of the coherence
//  protocol, producing executions that (detectably) violate LC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Skip the cache flush a processor must perform before executing a
    /// node with a cross-processor predecessor. Stale cached values
    /// survive dependency edges.
    pub skip_flush: bool,
    /// Skip the reconcile (write-back of dirty lines) a processor must
    /// perform after executing a node with a cross-processor successor.
    /// Writes become invisible across dependency edges.
    pub skip_reconcile: bool,
}

impl FaultInjection {
    /// The correct protocol: nothing skipped.
    pub const NONE: FaultInjection = FaultInjection { skip_flush: false, skip_reconcile: false };
    /// Only the flush is skipped.
    pub const SKIP_FLUSH: FaultInjection = FaultInjection { skip_flush: true, ..Self::NONE };
    /// Only the reconcile is skipped.
    pub const SKIP_RECONCILE: FaultInjection =
        FaultInjection { skip_reconcile: true, ..Self::NONE };

    /// Parses a fault name (`ccmm stress --mutate`, `ccmm watch --fault`):
    /// `none | skip-flush | skip-reconcile`.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "none" => Ok(Self::NONE),
            "skip-flush" => Ok(Self::SKIP_FLUSH),
            "skip-reconcile" => Ok(Self::SKIP_RECONCILE),
            other => Err(format!("unknown fault `{other}` (none | skip-flush | skip-reconcile)")),
        }
    }

    /// The canonical name (inverse of [`FaultInjection::from_name`]). Both
    /// switches together, which no name parses to, render as
    /// `skip-flush+skip-reconcile`.
    pub fn name(self) -> &'static str {
        match self {
            Self::NONE => "none",
            Self::SKIP_FLUSH => "skip-flush",
            Self::SKIP_RECONCILE => "skip-reconcile",
            _ => "skip-flush+skip-reconcile",
        }
    }

    /// Whether any fault is enabled.
    pub fn any(self) -> bool {
        self != Self::NONE
    }
}

/// BACKER configuration.
#[derive(Clone, Copy, Debug)]
pub struct BackerConfig {
    /// Number of processors.
    pub processors: usize,
    /// Cache capacity per processor, in lines (locations). `usize::MAX`
    /// for unbounded.
    pub cache_capacity: usize,
    /// Protocol faults to inject (default: none).
    pub faults: FaultInjection,
}

impl Default for BackerConfig {
    fn default() -> Self {
        BackerConfig { processors: 4, cache_capacity: usize::MAX, faults: FaultInjection::NONE }
    }
}

impl BackerConfig {
    /// A config with `p` processors and unbounded caches.
    pub fn with_processors(p: usize) -> Self {
        BackerConfig { processors: p, ..Default::default() }
    }

    /// Sets the per-processor cache capacity.
    pub fn cache_capacity(mut self, lines: usize) -> Self {
        self.cache_capacity = lines;
        self
    }

    /// Enables fault injection.
    pub fn faults(mut self, f: FaultInjection) -> Self {
        self.faults = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config() {
        let c = BackerConfig::default();
        assert_eq!(c.processors, 4);
        assert_eq!(c.cache_capacity, usize::MAX);
        assert!(!c.faults.any());
    }

    #[test]
    fn fault_names_round_trip() {
        for name in ["none", "skip-flush", "skip-reconcile"] {
            assert_eq!(FaultInjection::from_name(name).unwrap().name(), name);
        }
        assert_eq!(FaultInjection::from_name("skip-flush"), Ok(FaultInjection::SKIP_FLUSH));
        let both = FaultInjection { skip_flush: true, skip_reconcile: true };
        assert_eq!(both.name(), "skip-flush+skip-reconcile");
        let err = FaultInjection::from_name(both.name()).unwrap_err();
        assert_eq!(
            err,
            "unknown fault `skip-flush+skip-reconcile` (none | skip-flush | skip-reconcile)"
        );
    }

    #[test]
    fn builder_chains() {
        let f = FaultInjection::SKIP_FLUSH;
        let c = BackerConfig::with_processors(2).cache_capacity(8).faults(f);
        assert_eq!(c.processors, 2);
        assert_eq!(c.cache_capacity, 8);
        assert!(c.faults.any());
        assert!(c.faults.skip_flush);
    }
}
