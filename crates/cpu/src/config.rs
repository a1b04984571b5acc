//! Processor configurations (Table 2 of the paper).

use mom3d_mem::{BackendId, BackendParams, BankedConfig, DramConfig, HierarchyConfig, VectorCacheConfig};

/// The four paper memory organizations, kept as a thin parse/compat
/// shim over the open [`BackendId`] namespace so existing binaries and
/// tests keep their spelling.
///
/// The processor itself is keyed by [`BackendId`] — any registered
/// [`mom3d_mem::BackendRegistry`] backend can back it, not just these
/// four. `MemorySystemKind` converts losslessly into the corresponding
/// id via [`From`], and [`MemorySystemKind::parse`] recovers a variant
/// from its id string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySystemKind {
    /// Perfect cache: 1-cycle latency, unbounded bandwidth (the
    /// normalization baseline of Figures 3 and 9).
    Ideal,
    /// 4-port, 8-bank multi-banked cache behind a crossbar (Figure 2-a).
    MultiBanked,
    /// Single wide-port vector cache, 4 × 64 bit (Figure 2-b).
    VectorCache,
    /// Vector cache plus the second-level 3D vector register file
    /// (Figure 8-c) — required to execute `3dvload`/`3dvmov`.
    VectorCache3d,
}

impl MemorySystemKind {
    /// The four paper organizations, in canonical (registry) order.
    pub const ALL: [MemorySystemKind; 4] = [
        MemorySystemKind::Ideal,
        MemorySystemKind::MultiBanked,
        MemorySystemKind::VectorCache,
        MemorySystemKind::VectorCache3d,
    ];

    /// True when the configuration includes the 3D register file.
    pub fn has_3d(self) -> bool {
        matches!(self, MemorySystemKind::VectorCache3d | MemorySystemKind::Ideal)
    }

    /// The backend id this organization registers under.
    pub fn id(self) -> BackendId {
        BackendId::new(match self {
            MemorySystemKind::Ideal => "ideal",
            MemorySystemKind::MultiBanked => "multi-banked",
            MemorySystemKind::VectorCache => "vector-cache",
            MemorySystemKind::VectorCache3d => "vector-cache-3d",
        })
    }

    /// The paper organization behind an id string, if it is one of the
    /// four (other registered backends parse via
    /// [`mom3d_mem::BackendRegistry::parse`] instead).
    pub fn parse(s: &str) -> Option<MemorySystemKind> {
        MemorySystemKind::ALL.into_iter().find(|k| k.id().as_str() == s)
    }
}

impl From<MemorySystemKind> for BackendId {
    fn from(kind: MemorySystemKind) -> BackendId {
        kind.id()
    }
}

impl PartialEq<MemorySystemKind> for BackendId {
    fn eq(&self, other: &MemorySystemKind) -> bool {
        *self == other.id()
    }
}

impl PartialEq<BackendId> for MemorySystemKind {
    fn eq(&self, other: &BackendId) -> bool {
        self.id() == *other
    }
}

/// Full processor configuration (Table 2 plus the memory system).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorConfig {
    /// Instructions fetched per cycle (8).
    pub fetch_rate: usize,
    /// Graduation (reorder) window entries (128).
    pub window: usize,
    /// Load/store queue entries (32).
    pub lsq: usize,
    /// Integer issue width (4).
    pub int_issue: usize,
    /// Integer functional units (4).
    pub int_units: usize,
    /// SIMD issue width (MMX 4, MOM 1).
    pub simd_issue: usize,
    /// SIMD functional units (MMX 4, MOM 1).
    pub simd_units: usize,
    /// Lanes (clusters) per SIMD unit (MMX 1, MOM 4).
    pub simd_lanes: usize,
    /// Memory issue width, shared by scalar and vector memory (MMX 4,
    /// MOM 2).
    pub mem_issue: usize,
    /// Scalar (L1) memory ports (MMX 4, MOM 2).
    pub l1_ports: usize,
    /// Commit width (matches fetch).
    pub commit_rate: usize,
    /// Outstanding vector memory transactions (miss/transaction buffers
    /// on the L2 vector port). Bounds how much L2 latency the vector
    /// pipeline can hide — the knob behind Figure 10's sensitivity.
    pub vec_outstanding: usize,
    /// Whether scalar/µSIMD memory models L1 bank conflicts (the
    /// MMX-like multi-banked configuration).
    pub l1_banked: bool,
    /// Pre-touch every line the trace references before timing, so the
    /// run measures steady-state behaviour (the paper's applications run
    /// at 90–99% hit rates; our kernels touch their data too few times
    /// to amortize cold misses otherwise).
    pub warm_caches: bool,
    /// The vector memory backend (any id registered with
    /// [`mom3d_mem::BackendRegistry`]; the four paper organizations via
    /// their [`MemorySystemKind`] spelling).
    pub memory: BackendId,
    /// Cache hierarchy latencies/geometry.
    pub hierarchy: HierarchyConfig,
    /// Multi-banked port system parameters.
    pub banked: BankedConfig,
    /// Vector cache port parameters.
    pub vector_cache: VectorCacheConfig,
    /// DRAM-burst backend parameters.
    pub dram: DramConfig,
}

impl ProcessorConfig {
    /// The MMX-style configuration of Table 2 (aggressive µSIMD
    /// superscalar: 4 SIMD FUs, 4 L1 ports).
    pub fn mmx() -> Self {
        ProcessorConfig {
            fetch_rate: 8,
            window: 128,
            lsq: 32,
            int_issue: 4,
            int_units: 4,
            simd_issue: 4,
            simd_units: 4,
            simd_lanes: 1,
            mem_issue: 4,
            l1_ports: 4,
            commit_rate: 8,
            vec_outstanding: 4,
            l1_banked: true,
            warm_caches: false,
            memory: MemorySystemKind::MultiBanked.id(),
            hierarchy: HierarchyConfig::default(),
            banked: BankedConfig::default(),
            vector_cache: VectorCacheConfig::default(),
            dram: DramConfig::default(),
        }
    }

    /// The MOM configuration of Table 2 (1 × 4-lane SIMD FU, 2 memory
    /// issue, one wide L2 vector port).
    pub fn mom() -> Self {
        ProcessorConfig {
            fetch_rate: 8,
            window: 128,
            lsq: 32,
            int_issue: 4,
            int_units: 4,
            simd_issue: 1,
            simd_units: 1,
            simd_lanes: 4,
            mem_issue: 2,
            l1_ports: 2,
            commit_rate: 8,
            vec_outstanding: 4,
            l1_banked: false,
            warm_caches: false,
            memory: MemorySystemKind::VectorCache.id(),
            hierarchy: HierarchyConfig::default(),
            banked: BankedConfig::default(),
            vector_cache: VectorCacheConfig::default(),
            dram: DramConfig::default(),
        }
    }

    /// Selects the vector memory backend (builder style). Accepts a
    /// [`MemorySystemKind`] or any [`BackendId`].
    pub fn with_memory(mut self, memory: impl Into<BackendId>) -> Self {
        self.memory = memory.into();
        self
    }

    /// The port-system parameters handed to backend factories.
    pub fn backend_params(&self) -> BackendParams {
        BackendParams {
            banked: self.banked,
            vector_cache: self.vector_cache,
            dram: self.dram,
            ..BackendParams::default()
        }
    }

    /// Overrides the L2 hit latency (Figure 10's 20/40/60-cycle sweep).
    pub fn with_l2_latency(mut self, cycles: u32) -> Self {
        self.hierarchy = self.hierarchy.with_l2_latency(cycles);
        self
    }

    /// Enables or disables cache pre-warming (builder style).
    pub fn with_warm_caches(mut self, warm: bool) -> Self {
        self.warm_caches = warm;
        self
    }

    /// Aggregate µSIMD ALU bandwidth in 64-bit operations per cycle
    /// (identical for the two styles by construction — the paper's
    /// fairness argument).
    pub fn simd_bandwidth(&self) -> usize {
        self.simd_units * self.simd_lanes
    }

    /// Checks the configuration against the limits of the timing model.
    ///
    /// Every sized resource — window, LSQ, fetch and commit rates, the
    /// issue widths, the functional-unit counts, L1 ports and SIMD lanes
    /// — must be at least one: a zero would divide by zero (lanes) or
    /// leave instructions that can never fetch, issue or commit. The L1
    /// bank-conflict tracker is a per-cycle 64-bit bitmask, so an
    /// `l1_banked` configuration must keep `banked.banks` in `1..=64`
    /// (and a positive interleave granularity, which the bank-index
    /// computation divides by). [`crate::Processor::run`] calls this up
    /// front and surfaces violations as
    /// [`crate::SimError::UnsupportedConfig`] instead of panicking,
    /// hanging or silently shifting the mask out of range.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::UnsupportedConfig`] naming the
    /// offending parameter.
    pub fn validate(&self) -> Result<(), crate::SimError> {
        let sized = [
            ("window", self.window),
            ("lsq", self.lsq),
            ("fetch_rate", self.fetch_rate),
            ("commit_rate", self.commit_rate),
            ("int_issue", self.int_issue),
            ("simd_issue", self.simd_issue),
            ("mem_issue", self.mem_issue),
            ("int_units", self.int_units),
            ("simd_units", self.simd_units),
            ("l1_ports", self.l1_ports),
            ("simd_lanes", self.simd_lanes),
        ];
        if let Some((name, _)) = sized.iter().find(|&&(_, value)| value == 0) {
            return Err(crate::SimError::UnsupportedConfig {
                what: format!("{name} = 0 (every sized resource needs at least one entry)"),
            });
        }
        if self.l1_banked {
            if self.banked.banks == 0 || self.banked.banks > 64 {
                return Err(crate::SimError::UnsupportedConfig {
                    what: format!(
                        "l1_banked with {} banks (the per-cycle bank-conflict bitmask \
                         tracks 1..=64 banks)",
                        self.banked.banks
                    ),
                });
            }
            if self.banked.interleave_bytes == 0 {
                return Err(crate::SimError::UnsupportedConfig {
                    what: "l1_banked with a zero-byte bank interleave".to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_mmx_column() {
        let c = ProcessorConfig::mmx();
        assert_eq!(c.fetch_rate, 8);
        assert_eq!(c.window, 128);
        assert_eq!(c.lsq, 32);
        assert_eq!(c.int_issue, 4);
        assert_eq!(c.int_units, 4);
        assert_eq!(c.simd_issue, 4);
        assert_eq!(c.simd_units, 4);
        assert_eq!(c.mem_issue, 4);
        assert_eq!(c.l1_ports, 4);
    }

    #[test]
    fn table2_mom_column() {
        let c = ProcessorConfig::mom();
        assert_eq!(c.simd_issue, 1);
        assert_eq!(c.simd_units, 1);
        assert_eq!(c.simd_lanes, 4);
        assert_eq!(c.mem_issue, 2);
        assert_eq!(c.l1_ports, 2);
    }

    #[test]
    fn equal_simd_bandwidth_between_styles() {
        // "providing overall the same FU bandwidth than the MMX processor"
        assert_eq!(ProcessorConfig::mmx().simd_bandwidth(), ProcessorConfig::mom().simd_bandwidth());
    }

    #[test]
    fn l2_latency_sweep_knob() {
        let c = ProcessorConfig::mom().with_l2_latency(40);
        assert_eq!(c.hierarchy.l2_latency, 40);
        assert_eq!(ProcessorConfig::mom().hierarchy.l2_latency, 20);
    }

    #[test]
    fn memory_kind_3d_capability() {
        assert!(MemorySystemKind::VectorCache3d.has_3d());
        assert!(MemorySystemKind::Ideal.has_3d());
        assert!(!MemorySystemKind::VectorCache.has_3d());
        assert!(!MemorySystemKind::MultiBanked.has_3d());
    }

    #[test]
    fn kind_shim_round_trips_through_ids() {
        for kind in MemorySystemKind::ALL {
            assert_eq!(MemorySystemKind::parse(kind.id().as_str()), Some(kind));
            let id: BackendId = kind.into();
            assert_eq!(id, kind, "BackendId == MemorySystemKind");
            assert_eq!(kind, id, "MemorySystemKind == BackendId");
            // The enum's hand-coded capability agrees with the registry.
            assert_eq!(kind.has_3d(), id.has_3d());
            assert_eq!(kind == MemorySystemKind::Ideal, id.is_ideal());
        }
        // Registry-only backends are not paper kinds.
        assert_eq!(MemorySystemKind::parse("dram-burst"), None);
        assert_eq!(MemorySystemKind::parse("nonsense"), None);
    }

    #[test]
    fn validate_rejects_bank_bitmask_overflow() {
        use crate::SimError;
        assert_eq!(ProcessorConfig::mmx().validate(), Ok(()));
        assert_eq!(ProcessorConfig::mom().validate(), Ok(()));
        let mut c = ProcessorConfig::mmx();
        c.banked.banks = 64; // exactly the bitmask width: still fine
        assert_eq!(c.validate(), Ok(()));
        c.banked.banks = 65;
        assert!(matches!(c.validate(), Err(SimError::UnsupportedConfig { .. })));
        c.banked.banks = 0;
        assert!(matches!(c.validate(), Err(SimError::UnsupportedConfig { .. })));
        // Without L1 bank modelling the bank count is never consulted.
        c.l1_banked = false;
        assert_eq!(c.validate(), Ok(()));
        let mut c = ProcessorConfig::mmx();
        c.banked.interleave_bytes = 0;
        assert!(matches!(c.validate(), Err(SimError::UnsupportedConfig { .. })));
    }

    #[test]
    fn validate_rejects_every_zero_sized_resource() {
        use crate::SimError;
        type Field = fn(&mut ProcessorConfig) -> &mut usize;
        let fields: [(&str, Field); 11] = [
            ("window", |c| &mut c.window),
            ("lsq", |c| &mut c.lsq),
            ("fetch_rate", |c| &mut c.fetch_rate),
            ("commit_rate", |c| &mut c.commit_rate),
            ("int_issue", |c| &mut c.int_issue),
            ("simd_issue", |c| &mut c.simd_issue),
            ("mem_issue", |c| &mut c.mem_issue),
            ("int_units", |c| &mut c.int_units),
            ("simd_units", |c| &mut c.simd_units),
            ("l1_ports", |c| &mut c.l1_ports),
            ("simd_lanes", |c| &mut c.simd_lanes),
        ];
        for base in [ProcessorConfig::mmx(), ProcessorConfig::mom()] {
            for (name, field) in fields {
                let mut c = base;
                *field(&mut c) = 0;
                match c.validate() {
                    Err(SimError::UnsupportedConfig { what }) => {
                        assert!(what.starts_with(&format!("{name} = 0")), "{name}: {what}");
                    }
                    other => panic!("{name} = 0 must be rejected, got {other:?}"),
                }
                *field(&mut c) = 1;
                assert_eq!(c.validate(), Ok(()), "{name} = 1 is a valid size");
            }
        }
    }

    #[test]
    fn with_memory_accepts_kinds_and_raw_ids() {
        let via_kind = ProcessorConfig::mom().with_memory(MemorySystemKind::MultiBanked);
        let via_id = ProcessorConfig::mom().with_memory(BackendId::new("multi-banked"));
        assert_eq!(via_kind, via_id);
        assert_eq!(via_kind.memory.as_str(), "multi-banked");
    }
}
