//! The pluggable vector-memory-backend API.
//!
//! The paper compares four vector memory organizations; this module
//! turns "which organization" from a closed enum into an open trait so
//! new organizations can be added without touching the simulator, the
//! sweep engine or the report formatters:
//!
//! * [`VectorMemoryBackend`] — one organization's port model: given the
//!   resolved `(address, length)` blocks of a vector memory
//!   instruction, produce a [`PortSchedule`]. Backends may be stateful
//!   (e.g. DRAM row buffers), so scheduling takes `&mut self`; one
//!   instance is built per simulation run.
//! * [`BackendId`] — the stable string identity a backend is keyed by
//!   everywhere (simulation caches, sweep grids, JSON reports). Ids may
//!   carry a `?key=value,...` parameter suffix describing a *tuned*
//!   design point of a backend family (`"dram-burst?banks=16,row=512"`);
//!   [`BackendRegistry::parse`] canonicalizes the suffix (keys sorted,
//!   values validated against the family's [`ParamSpec`]s) so equal
//!   design points always compare, hash and cache equal.
//! * [`BackendRegistry`] — the global id → factory table. The four
//!   paper organizations, the [DRAM-burst model](crate::DramConfig) and
//!   the two zoo organizations ([`crate::HbmWideBackend`],
//!   [`crate::PimVectorBackend`]) are pre-registered;
//!   [`BackendRegistry::register`] adds more at runtime (see
//!   `examples/custom_backend.rs` in the workspace root).
//!
//! ```
//! use mom3d_mem::{BackendParams, BackendRegistry};
//!
//! let id = BackendRegistry::parse("vector-cache").unwrap();
//! let mut backend = BackendRegistry::build(id, &BackendParams::default()).unwrap();
//! // Eight consecutive words through the 4-word wide port: two accesses.
//! let blocks: Vec<(u64, u32)> = (0..8).map(|i| (0x1000 + 8 * i, 8)).collect();
//! let s = backend.schedule(&blocks, false);
//! assert_eq!(s.port_cycles, 2);
//!
//! // A tuned design point: same family, wider port, canonical id.
//! let wide = BackendRegistry::parse("vector-cache?width=8").unwrap();
//! assert_eq!(wide.base(), "vector-cache");
//! let mut backend = BackendRegistry::build(wide, &BackendParams::default()).unwrap();
//! let s = backend.schedule(&blocks, false);
//! assert_eq!(s.port_cycles, 1);
//! ```

use crate::dram::{DramBurstBackend, DramConfig};
use crate::hbm::{HbmConfig, HbmWideBackend};
use crate::pim::{PimConfig, PimVectorBackend};
use crate::ports::{
    schedule_3d, schedule_vector_cache, BankScheduler, BankedConfig, PortSchedule,
    VectorCacheConfig,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Stable identity of a memory backend: a short kebab-case string
/// (`"vector-cache"`, `"dram-burst"`, …), optionally followed by a
/// `?key=value,...` suffix naming a tuned design point of that family
/// (`"dram-burst?banks=16,row=512"`).
///
/// `BackendId` is what simulation caches, sweep grids and reports key
/// on. It is `Copy` and hashes/compares by string *content*, so ids
/// parsed from user input ([`BackendRegistry::parse`]) compare equal to
/// ids taken from registry entries. Parameterized ids are canonicalized
/// by `parse` (keys sorted, validated) and interned for the process
/// lifetime, so a tuned design point is exactly as cacheable, shardable
/// and reproducible as a plain base id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(&'static str);

impl BackendId {
    /// Wraps a static id string. The id only resolves to a backend once
    /// a matching entry is registered.
    pub const fn new(id: &'static str) -> Self {
        BackendId(id)
    }

    /// The id as a string slice.
    pub const fn as_str(self) -> &'static str {
        self.0
    }

    /// The backend family this id names: the part before the optional
    /// `?key=value,...` suffix (`"dram-burst?banks=16"` → `"dram-burst"`).
    pub fn base(self) -> &'static str {
        match self.0.split_once('?') {
            Some((base, _)) => base,
            None => self.0,
        }
    }

    /// True when the id carries a `?key=value,...` parameter suffix.
    pub fn has_params(self) -> bool {
        self.0.contains('?')
    }

    /// The id's `key=value` parameters. Ids produced by
    /// [`BackendRegistry::parse`] or [`BackendRegistry::make_id`] are
    /// canonical (keys sorted, every pair well-formed); for hand-built
    /// ids, malformed pairs are skipped. Empty for plain base ids.
    pub fn params(self) -> impl Iterator<Item = (&'static str, u64)> {
        let suffix = match self.0.split_once('?') {
            Some((_, suffix)) => suffix,
            None => "",
        };
        suffix.split(',').filter_map(|pair| {
            let (key, value) = pair.split_once('=')?;
            Some((key, value.parse().ok()?))
        })
    }

    /// True when the registered backend behind this id includes a 3D
    /// register file (required to execute `3dvload`/`3dvmov`). False for
    /// unregistered ids.
    pub fn has_3d(self) -> bool {
        BackendRegistry::get(self.0).is_some_and(|e| e.has_3d)
    }

    /// True when the registered backend behind this id is an idealistic
    /// memory (1-cycle, unbounded bandwidth). False for unregistered
    /// ids.
    pub fn is_ideal(self) -> bool {
        BackendRegistry::get(self.0).is_some_and(|e| e.is_ideal)
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Everything a backend factory may need to build an instance — the
/// port-system knobs of [`crate::HierarchyConfig`]'s owner (the
/// processor configuration) without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendParams {
    /// Multi-banked port system parameters.
    pub banked: BankedConfig,
    /// Vector cache port parameters.
    pub vector_cache: VectorCacheConfig,
    /// DRAM-burst main-memory model parameters.
    pub dram: DramConfig,
    /// Die-stacked wide-interface memory parameters.
    pub hbm: HbmConfig,
    /// Memory-side vector-execution parameters.
    pub pim: PimConfig,
}

/// Canonical parameterized id strings live for the whole process so
/// [`BackendId`] can stay `Copy` over `&'static str`; each distinct
/// canonical string is leaked exactly once.
fn intern(s: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match set.get(s) {
        Some(&interned) => interned,
        None => {
            let interned: &'static str = Box::leak(s.to_owned().into_boxed_str());
            set.insert(interned);
            interned
        }
    }
}

/// Counters a backend may accumulate beyond the per-instruction
/// [`PortSchedule`] (all zero for stateless backends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Accesses that hit an open DRAM row buffer.
    pub row_hits: u64,
    /// Accesses that had to open (activate) a new DRAM row.
    pub row_misses: u64,
}

/// One vector memory organization's port model.
///
/// A backend schedules the element blocks of one vector memory
/// instruction onto its ports and reports occupancy, energy-relevant
/// cache accesses and transferred words (see [`PortSchedule`]). One
/// instance is built per simulation run, so implementations may carry
/// mutable state across instructions (the DRAM-burst backend tracks
/// open rows per bank); the instruction stream is deterministic, so
/// stateful backends remain deterministic too.
pub trait VectorMemoryBackend: fmt::Debug + Send {
    /// The stable id this backend registered under.
    fn id(&self) -> BackendId;

    /// Human-readable name for report columns ("MOM vector cache").
    fn display_name(&self) -> &'static str;

    /// One-line Table-2-style configuration description
    /// ("1 port × 4 × 64 bit, shift&mask, 128 B lines").
    fn describe(&self) -> String;

    /// True for idealistic memories: the simulator short-circuits them
    /// to 1-cycle flat accesses and never calls [`Self::schedule`].
    fn is_ideal(&self) -> bool {
        false
    }

    /// True when the organization includes the second-level 3D vector
    /// register file (required by `3dvload`/`3dvmov` traces).
    fn has_3d(&self) -> bool {
        false
    }

    /// Schedules one vector memory instruction's `(address,
    /// length-in-bytes)` blocks. `is_3d` is true for `3dvload`s (only
    /// ever passed to backends with [`Self::has_3d`]).
    fn schedule(&mut self, blocks: &[(u64, u32)], is_3d: bool) -> PortSchedule;

    /// Backend-specific counters accumulated so far.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    /// Bytes sensed per DRAM row activation — the granularity at which
    /// design-space scoring charges activate energy against
    /// [`BackendStats::row_misses`]. Zero for SRAM organizations whose
    /// accesses never activate DRAM rows.
    fn activate_row_bytes(&self) -> u64 {
        0
    }
}

/// One tunable knob of a backend family: the key it is written as in a
/// parameterized [`BackendId`] suffix (`"dram-burst?banks=16"`), the
/// value the plain base id builds with, the candidate values a
/// design-space search should visit, and how a value lands in
/// [`BackendParams`].
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter key (lower-case, must not contain `=`, `,` or `?`).
    pub key: &'static str,
    /// Value the plain base id (no suffix) resolves to.
    pub default: u64,
    /// Values worth visiting in a design-space search (must include the
    /// default).
    pub candidates: &'static [u64],
    /// Writes a value into the build parameters.
    pub apply: fn(&mut BackendParams, u64),
}

/// One row of the [`BackendRegistry`]: identity, capabilities, and the
/// factory that builds a fresh backend instance for a simulation run.
///
/// Capabilities are duplicated here (rather than only on instances) so
/// the simulator can validate a trace against a backend id without
/// building one.
#[derive(Debug, Clone, Copy)]
pub struct BackendEntry {
    /// Stable kebab-case id ([`BackendId::as_str`] of the built
    /// instances).
    pub id: &'static str,
    /// Human-readable name for report columns.
    pub display_name: &'static str,
    /// Whether the organization includes the 3D register file.
    pub has_3d: bool,
    /// Whether the organization is an idealistic memory.
    pub is_ideal: bool,
    /// Builds one instance for a simulation run.
    pub build: fn(&BackendParams) -> Box<dyn VectorMemoryBackend>,
    /// The tunable parameters the family accepts in a `?key=value,...`
    /// id suffix (empty for fixed organizations).
    pub params: &'static [ParamSpec],
}

impl BackendEntry {
    /// The entry's id as a [`BackendId`].
    pub const fn backend_id(&self) -> BackendId {
        BackendId::new(self.id)
    }
}

/// Error returned by [`BackendRegistry::register`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An entry with the same id is already registered.
    DuplicateId(&'static str),
    /// The entry's declared id/capabilities disagree with what its
    /// factory's instances report (`what` names the offending field).
    EntryMismatch {
        /// The entry's id.
        id: &'static str,
        /// Which declaration disagreed (`"id"`, `"has_3d"`,
        /// `"is_ideal"`, or `"params"` for an ill-formed
        /// [`ParamSpec`] list).
        what: &'static str,
    },
}

/// Why an id string failed [`BackendRegistry::try_parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseIdError {
    /// No registered backend family matches the part before `?`.
    UnknownBase(String),
    /// A suffix element is not a `key=value` pair with an unsigned
    /// integer value.
    MalformedPair {
        /// The family the suffix was parsed against.
        base: &'static str,
        /// The offending element.
        pair: String,
    },
    /// The key is not one of the family's declared parameters.
    UnknownKey {
        /// The family the suffix was parsed against.
        base: &'static str,
        /// The offending key.
        key: String,
        /// The keys the family does declare.
        valid: Vec<&'static str>,
    },
    /// The same key appears twice in the suffix.
    DuplicateKey {
        /// The family the suffix was parsed against.
        base: &'static str,
        /// The repeated key.
        key: String,
    },
}

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseIdError::UnknownBase(base) => {
                write!(f, "unknown memory backend {base:?}")
            }
            ParseIdError::MalformedPair { base, pair } => write!(
                f,
                "backend {base:?}: malformed parameter {pair:?} (expected key=value with an \
                 unsigned integer value)"
            ),
            ParseIdError::UnknownKey { base, key, valid } => {
                write!(f, "backend {base:?}: unknown parameter key {key:?} (valid keys: ")?;
                if valid.is_empty() {
                    write!(f, "none — the backend takes no parameters)")
                } else {
                    write!(f, "{})", valid.join(", "))
                }
            }
            ParseIdError::DuplicateKey { base, key } => {
                write!(f, "backend {base:?}: duplicate parameter key {key:?}")
            }
        }
    }
}

impl std::error::Error for ParseIdError {}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateId(id) => {
                write!(f, "a memory backend with id {id:?} is already registered")
            }
            RegistryError::EntryMismatch { id, what } => write!(
                f,
                "backend entry {id:?}: declared {what} disagrees with the built instance's {what}()"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The global id → backend table.
///
/// Entries are kept in registration order — the seven built-ins first
/// (ideal, multi-banked, vector-cache, vector-cache-3d, dram-burst,
/// hbm-wide, pim-vector), then anything added by
/// [`BackendRegistry::register`] — so enumeration
/// ([`BackendRegistry::entries`]) is deterministic.
pub struct BackendRegistry;

/// A validated parameterized id: the family entry plus its `(key,
/// value)` pairs sorted by key.
type ParsedId = (BackendEntry, Vec<(&'static str, u64)>);

fn registry() -> &'static Mutex<Vec<BackendEntry>> {
    static REGISTRY: OnceLock<Mutex<Vec<BackendEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(builtin_entries().to_vec()))
}

fn lock() -> std::sync::MutexGuard<'static, Vec<BackendEntry>> {
    // A panic while holding the lock cannot leave the Vec in a torn
    // state (all mutations are single `push`es), so poisoning is safe
    // to ignore.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

impl BackendRegistry {
    /// Registers a new backend. Fails if the id is already taken (the
    /// built-ins cannot be replaced) or if the entry's declared
    /// id/capabilities disagree with what its factory actually builds —
    /// the simulator validates traces against the *entry* before an
    /// instance exists, so drift between the two would reject valid
    /// traces or silently mistime them.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateId`] when an entry with the same id
    /// exists; [`RegistryError::EntryMismatch`] when a probe instance
    /// built with default [`BackendParams`] reports a different id,
    /// `has_3d` or `is_ideal` than the entry declares, or when the
    /// entry's [`ParamSpec`] list is ill-formed (a key containing the
    /// id-syntax characters `=`/`,`/`?`, a duplicate key, or candidates
    /// that omit the default).
    pub fn register(entry: BackendEntry) -> Result<(), RegistryError> {
        let probe = (entry.build)(&BackendParams::default());
        let mismatch = |what| Err(RegistryError::EntryMismatch { id: entry.id, what });
        if probe.id().as_str() != entry.id {
            return mismatch("id");
        }
        if probe.has_3d() != entry.has_3d {
            return mismatch("has_3d");
        }
        if probe.is_ideal() != entry.is_ideal {
            return mismatch("is_ideal");
        }
        for spec in entry.params {
            if spec.key.is_empty()
                || spec.key.contains(['=', ',', '?'])
                || !spec.candidates.contains(&spec.default)
                || entry.params.iter().filter(|p| p.key == spec.key).count() > 1
            {
                return mismatch("params");
            }
        }
        let mut entries = lock();
        if entries.iter().any(|e| e.id == entry.id) {
            return Err(RegistryError::DuplicateId(entry.id));
        }
        entries.push(entry);
        Ok(())
    }

    /// A snapshot of every registered backend, in registration order.
    pub fn entries() -> Vec<BackendEntry> {
        lock().clone()
    }

    /// Looks up one entry by id string. A parameterized id
    /// (`"dram-burst?banks=16"`) resolves to its family's entry; the
    /// suffix must be well-formed and name only keys the family
    /// declares, so an id accepted here is also buildable.
    pub fn get(id: &str) -> Option<BackendEntry> {
        Self::parse_entry(id).ok().map(|(entry, _)| entry)
    }

    /// Resolves a user-supplied string to a registered backend's id in
    /// canonical form: the parameter suffix, if any, is validated
    /// against the family's [`ParamSpec`]s, sorted by key and interned,
    /// so equal design points always compare (and cache) equal.
    pub fn parse(s: &str) -> Option<BackendId> {
        Self::try_parse(s).ok()
    }

    /// [`Self::parse`] with the reason a string was rejected (unknown
    /// family, malformed pair, unknown or duplicate key).
    ///
    /// # Errors
    ///
    /// The [`ParseIdError`] variant describing the first offending part
    /// of the string.
    pub fn try_parse(s: &str) -> Result<BackendId, ParseIdError> {
        let (entry, pairs) = Self::parse_entry(s)?;
        Ok(Self::id_for(&entry, &pairs))
    }

    /// Builds the canonical id of a design point of family `base` with
    /// the given `key = value` parameters (pairs in any order; keys are
    /// validated against the family's [`ParamSpec`]s and sorted).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::try_parse`].
    pub fn make_id(base: &str, pairs: &[(&str, u64)]) -> Result<BackendId, ParseIdError> {
        let mut s = String::from(base);
        for (i, &(key, value)) in pairs.iter().enumerate() {
            s.push(if i == 0 { '?' } else { ',' });
            s.push_str(key);
            s.push('=');
            s.push_str(&value.to_string());
        }
        Self::try_parse(&s)
    }

    /// Splits and validates `base?k=v,...`, returning the family entry
    /// and the parsed pairs sorted by key.
    fn parse_entry(s: &str) -> Result<ParsedId, ParseIdError> {
        let (base, suffix) = match s.split_once('?') {
            Some((base, suffix)) => (base, Some(suffix)),
            None => (s, None),
        };
        let entry = lock()
            .iter()
            .find(|e| e.id == base)
            .copied()
            .ok_or_else(|| ParseIdError::UnknownBase(base.to_owned()))?;
        let mut pairs: Vec<(&'static str, u64)> = Vec::new();
        for pair in suffix.into_iter().flat_map(|s| s.split(',')) {
            let malformed =
                || ParseIdError::MalformedPair { base: entry.id, pair: pair.to_owned() };
            let (key, value) = pair.split_once('=').ok_or_else(malformed)?;
            let spec = entry.params.iter().find(|p| p.key == key).ok_or_else(|| {
                ParseIdError::UnknownKey {
                    base: entry.id,
                    key: key.to_owned(),
                    valid: entry.params.iter().map(|p| p.key).collect(),
                }
            })?;
            let value: u64 = value.parse().map_err(|_| malformed())?;
            if pairs.iter().any(|&(k, _)| k == spec.key) {
                return Err(ParseIdError::DuplicateKey { base: entry.id, key: key.to_owned() });
            }
            pairs.push((spec.key, value));
        }
        pairs.sort_by_key(|&(key, _)| key);
        Ok((entry, pairs))
    }

    /// The canonical (interned) id for a family and sorted pairs.
    fn id_for(entry: &BackendEntry, pairs: &[(&'static str, u64)]) -> BackendId {
        if pairs.is_empty() {
            return entry.backend_id();
        }
        let mut s = String::from(entry.id);
        for (i, &(key, value)) in pairs.iter().enumerate() {
            s.push(if i == 0 { '?' } else { ',' });
            s.push_str(key);
            s.push('=');
            s.push_str(&value.to_string());
        }
        BackendId(intern(&s))
    }

    /// The effective build parameters of a (possibly parameterized) id:
    /// `base` with every `key=value` of the id's suffix applied through
    /// the family's [`ParamSpec`]s. `None` when the id does not resolve.
    pub fn resolved_params(id: BackendId, base: &BackendParams) -> Option<BackendParams> {
        let entry = Self::get(id.as_str())?;
        let mut params = *base;
        for (key, value) in id.params() {
            let spec = entry.params.iter().find(|p| p.key == key)?;
            (spec.apply)(&mut params, value);
        }
        Some(params)
    }

    /// Builds a fresh backend instance for a simulation run — the id's
    /// parameter suffix, if any, is applied on top of `params` — or
    /// `None` when the id is not registered.
    pub fn build(id: BackendId, params: &BackendParams) -> Option<Box<dyn VectorMemoryBackend>> {
        let entry = Self::get(id.as_str())?;
        let resolved = Self::resolved_params(id, params)?;
        Some((entry.build)(&resolved))
    }
}

/// Tunable knobs of the multi-banked cache (Figure 2-a geometry).
const MULTI_BANKED_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "banks",
        default: 8,
        candidates: &[4, 8, 16],
        apply: |p, v| p.banked.banks = v.max(1) as usize,
    },
    ParamSpec {
        key: "ports",
        default: 4,
        candidates: &[2, 4, 8],
        apply: |p, v| p.banked.ports = v.max(1) as usize,
    },
];

/// Tunable knobs of the vector-cache wide port (shared by the plain and
/// the 3D-register-file organizations).
const VECTOR_CACHE_PARAMS: &[ParamSpec] = &[ParamSpec {
    key: "width",
    default: 4,
    candidates: &[2, 4, 8],
    apply: |p, v| p.vector_cache.width_words = v.max(1) as usize,
}];

/// Tunable knobs of the DRAM-burst main-memory model.
const DRAM_BURST_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "act",
        default: 6,
        candidates: &[2, 6, 12],
        apply: |p, v| p.dram.row_miss_penalty = v.min(u32::MAX as u64) as u32,
    },
    ParamSpec {
        key: "banks",
        default: 8,
        candidates: &[4, 8, 16],
        apply: |p, v| p.dram.banks = v as usize,
    },
    ParamSpec {
        key: "burst",
        default: 4,
        candidates: &[2, 4, 8],
        apply: |p, v| p.dram.burst_words = v as usize,
    },
    ParamSpec {
        key: "row",
        default: 1024,
        candidates: &[512, 1024, 4096],
        apply: |p, v| p.dram.row_bytes = v,
    },
];

/// Tunable knobs of the die-stacked wide-interface memory.
const HBM_WIDE_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "act",
        default: 8,
        candidates: &[4, 8, 16],
        apply: |p, v| p.hbm.act_cycles = v.min(u32::MAX as u64) as u32,
    },
    ParamSpec {
        key: "banks",
        default: 4,
        candidates: &[2, 4, 8],
        apply: |p, v| p.hbm.banks = v as usize,
    },
    ParamSpec {
        key: "channels",
        default: 8,
        candidates: &[4, 8, 16],
        apply: |p, v| p.hbm.channels = v as usize,
    },
    ParamSpec {
        key: "row",
        default: 256,
        candidates: &[128, 256, 512],
        apply: |p, v| p.hbm.row_bytes = v,
    },
];

/// Tunable knobs of the memory-side vector-execution model.
const PIM_VECTOR_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "act",
        default: 6,
        candidates: &[2, 6, 12],
        apply: |p, v| p.pim.act_cycles = v.min(u32::MAX as u64) as u32,
    },
    ParamSpec {
        key: "issue",
        default: 4,
        candidates: &[2, 4, 8],
        apply: |p, v| p.pim.issue_cycles = v.min(u32::MAX as u64) as u32,
    },
    ParamSpec {
        key: "width",
        default: 256,
        candidates: &[128, 256, 512],
        apply: |p, v| p.pim.row_op_bytes = v,
    },
];

/// The seven built-in organizations, in their canonical order.
fn builtin_entries() -> [BackendEntry; 7] {
    [
        BackendEntry {
            id: "ideal",
            display_name: "ideal",
            has_3d: true,
            is_ideal: true,
            build: |_| Box::new(IdealBackend),
            params: &[],
        },
        BackendEntry {
            id: "multi-banked",
            display_name: "multi-banked",
            has_3d: false,
            is_ideal: false,
            build: |p| {
                Box::new(MultiBankedBackend { cfg: p.banked, scheduler: BankScheduler::default() })
            },
            params: MULTI_BANKED_PARAMS,
        },
        BackendEntry {
            id: "vector-cache",
            display_name: "vector cache",
            has_3d: false,
            is_ideal: false,
            build: |p| Box::new(VectorCacheBackend { cfg: p.vector_cache }),
            params: VECTOR_CACHE_PARAMS,
        },
        BackendEntry {
            id: "vector-cache-3d",
            display_name: "vector cache + 3D RF",
            has_3d: true,
            is_ideal: false,
            build: |p| Box::new(VectorCache3dBackend { cfg: p.vector_cache }),
            params: VECTOR_CACHE_PARAMS,
        },
        BackendEntry {
            id: "dram-burst",
            display_name: "DRAM burst",
            has_3d: false,
            is_ideal: false,
            build: |p| Box::new(DramBurstBackend::new(p.dram)),
            params: DRAM_BURST_PARAMS,
        },
        BackendEntry {
            id: "hbm-wide",
            display_name: "die-stacked wide HBM",
            has_3d: false,
            is_ideal: false,
            build: |p| Box::new(HbmWideBackend::new(p.hbm)),
            params: HBM_WIDE_PARAMS,
        },
        BackendEntry {
            id: "pim-vector",
            display_name: "memory-side vector (PIM)",
            has_3d: false,
            is_ideal: false,
            build: |p| Box::new(PimVectorBackend::new(p.pim)),
            params: PIM_VECTOR_PARAMS,
        },
    ]
}

/// Perfect memory: 1-cycle latency, unbounded bandwidth (the Figure 3/9
/// normalization baseline). The simulator short-circuits it, so
/// [`VectorMemoryBackend::schedule`] exists only for completeness.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealBackend;

impl VectorMemoryBackend for IdealBackend {
    fn id(&self) -> BackendId {
        BackendId::new("ideal")
    }

    fn display_name(&self) -> &'static str {
        "ideal"
    }

    fn describe(&self) -> String {
        "perfect cache: 1-cycle latency, unbounded bandwidth".into()
    }

    fn is_ideal(&self) -> bool {
        true
    }

    fn has_3d(&self) -> bool {
        true
    }

    fn schedule(&mut self, blocks: &[(u64, u32)], _is_3d: bool) -> PortSchedule {
        let words = blocks.iter().map(|&(_, len)| (len as u64).div_ceil(8)).sum();
        PortSchedule { port_cycles: 1, cache_accesses: 0, words }
    }
}

/// The 4-port, 8-bank multi-banked cache behind a crossbar (Figure 2-a),
/// on top of [`schedule_multibanked`](crate::schedule_multibanked), with
/// its scheduling buffers reused across the run's instructions.
#[derive(Debug, Clone)]
pub struct MultiBankedBackend {
    cfg: BankedConfig,
    scheduler: BankScheduler,
}

impl VectorMemoryBackend for MultiBankedBackend {
    fn id(&self) -> BackendId {
        BackendId::new("multi-banked")
    }

    fn display_name(&self) -> &'static str {
        "multi-banked"
    }

    fn describe(&self) -> String {
        format!(
            "{} ports x {} banks behind a crossbar, {} B interleave",
            self.cfg.ports, self.cfg.banks, self.cfg.interleave_bytes
        )
    }

    fn schedule(&mut self, blocks: &[(u64, u32)], _is_3d: bool) -> PortSchedule {
        self.scheduler.schedule(&self.cfg, blocks)
    }
}

/// The single wide-port vector cache (Figure 2-b), on top of
/// [`schedule_vector_cache`].
#[derive(Debug, Clone, Copy)]
pub struct VectorCacheBackend {
    cfg: VectorCacheConfig,
}

impl VectorMemoryBackend for VectorCacheBackend {
    fn id(&self) -> BackendId {
        BackendId::new("vector-cache")
    }

    fn display_name(&self) -> &'static str {
        "vector cache"
    }

    fn describe(&self) -> String {
        format!(
            "1 port x {} x 64 bit, shift&mask network, {} B lines",
            self.cfg.width_words, self.cfg.line_bytes
        )
    }

    fn schedule(&mut self, blocks: &[(u64, u32)], _is_3d: bool) -> PortSchedule {
        schedule_vector_cache(&self.cfg, blocks)
    }
}

/// The vector cache plus the second-level 3D vector register file
/// (Figure 8-c): 2D accesses use the wide port, `3dvload`s stream one
/// whole line per cycle into a 3D-register-file lane ([`schedule_3d`]).
#[derive(Debug, Clone, Copy)]
pub struct VectorCache3dBackend {
    cfg: VectorCacheConfig,
}

impl VectorMemoryBackend for VectorCache3dBackend {
    fn id(&self) -> BackendId {
        BackendId::new("vector-cache-3d")
    }

    fn display_name(&self) -> &'static str {
        "vector cache + 3D RF"
    }

    fn describe(&self) -> String {
        format!(
            "1 port x {} x 64 bit + 3D register file, one {} B line per cycle on the 3D path",
            self.cfg.width_words, self.cfg.line_bytes
        )
    }

    fn has_3d(&self) -> bool {
        true
    }

    fn schedule(&mut self, blocks: &[(u64, u32)], is_3d: bool) -> PortSchedule {
        if is_3d {
            schedule_3d(blocks)
        } else {
            schedule_vector_cache(&self.cfg, blocks)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::schedule_multibanked;
    use proptest::prelude::*;

    const PAPER_IDS: [&str; 4] = ["ideal", "multi-banked", "vector-cache", "vector-cache-3d"];

    #[test]
    fn builtins_are_registered_in_canonical_order() {
        let entries = BackendRegistry::entries();
        let ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        assert!(ids.len() >= 7);
        assert_eq!(
            &ids[..7],
            &[
                "ideal",
                "multi-banked",
                "vector-cache",
                "vector-cache-3d",
                "dram-burst",
                "hbm-wide",
                "pim-vector"
            ]
        );
        // Enumeration is deterministic: a second snapshot agrees.
        let again: Vec<&str> = BackendRegistry::entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn builtin_param_specs_are_well_formed() {
        for entry in BackendRegistry::entries() {
            for spec in entry.params {
                assert!(!spec.key.is_empty(), "{}: empty key", entry.id);
                assert!(
                    !spec.key.contains(['=', ',', '?']),
                    "{}: key {:?} collides with id syntax",
                    entry.id,
                    spec.key
                );
                assert!(
                    spec.candidates.contains(&spec.default),
                    "{}: candidates of {:?} omit the default {}",
                    entry.id,
                    spec.key,
                    spec.default
                );
                assert_eq!(
                    entry.params.iter().filter(|p| p.key == spec.key).count(),
                    1,
                    "{}: duplicate key {:?}",
                    entry.id,
                    spec.key
                );
            }
        }
    }

    #[test]
    fn parse_canonicalizes_parameterized_ids() {
        // Keys are sorted and the result is interned: equal design
        // points are pointer-equal strings, whatever the input order.
        let a = BackendRegistry::parse("dram-burst?row=512,banks=16").unwrap();
        let b = BackendRegistry::parse("dram-burst?banks=16,row=512").unwrap();
        assert_eq!(a.as_str(), "dram-burst?banks=16,row=512");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a.base(), "dram-burst");
        assert!(a.has_params());
        assert_eq!(a.params().collect::<Vec<_>>(), vec![("banks", 16), ("row", 512)]);
        // Parameterized ids inherit the family's capabilities.
        assert!(!a.has_3d() && !a.is_ideal());
        assert!(BackendRegistry::parse("vector-cache-3d?width=8").unwrap().has_3d());
    }

    #[test]
    fn parse_rejects_malformed_suffixes_with_reasons() {
        use ParseIdError::*;
        let err = |s: &str| BackendRegistry::try_parse(s).unwrap_err();
        assert_eq!(err("no-such?banks=4"), UnknownBase("no-such".into()));
        assert!(matches!(err("dram-burst?"), MalformedPair { base: "dram-burst", .. }));
        assert!(matches!(err("dram-burst?banks"), MalformedPair { .. }));
        assert!(matches!(err("dram-burst?banks=four"), MalformedPair { .. }));
        assert!(matches!(err("dram-burst?banks=4,banks=8"), DuplicateKey { .. }));
        let unknown = err("dram-burst?bogus=1");
        let UnknownKey { base, key, valid } = &unknown else {
            panic!("expected UnknownKey, got {unknown:?}")
        };
        assert_eq!((*base, key.as_str()), ("dram-burst", "bogus"));
        assert_eq!(valid, &["act", "banks", "burst", "row"]);
        // The rendered message lists the valid keys for the CLI.
        assert!(unknown.to_string().contains("act, banks, burst, row"));
        // A parameter-less family reports that it takes none.
        assert!(err("ideal?x=1").to_string().contains("takes no parameters"));
        // get() applies the same validation, so the simulator rejects
        // malformed design points as unknown backends.
        assert!(BackendRegistry::get("dram-burst?bogus=1").is_none());
        assert!(BackendRegistry::get("dram-burst?banks=16").is_some());
    }

    #[test]
    fn make_id_and_resolved_params_apply_specs() {
        let id = BackendRegistry::make_id("dram-burst", &[("row", 512), ("banks", 16)]).unwrap();
        assert_eq!(id.as_str(), "dram-burst?banks=16,row=512");
        let params =
            BackendRegistry::resolved_params(id, &BackendParams::default()).unwrap();
        assert_eq!(params.dram.banks, 16);
        assert_eq!(params.dram.row_bytes, 512);
        // Untouched knobs keep the base values.
        assert_eq!(params.dram.burst_words, 4);
        // And build() applies the suffix on top of the passed params.
        let built = BackendRegistry::build(id, &BackendParams::default()).unwrap();
        assert!(built.describe().contains("16 banks x 512 B rows"));
        assert!(BackendRegistry::make_id("dram-burst", &[("bogus", 1)]).is_err());
    }

    #[test]
    fn ids_round_trip_through_parse() {
        for entry in BackendRegistry::entries() {
            let id = BackendRegistry::parse(entry.id).expect("registered id parses");
            assert_eq!(id.as_str(), entry.id);
            let mut built = BackendRegistry::build(id, &BackendParams::default()).unwrap();
            assert_eq!(built.id(), id);
            assert_eq!(built.has_3d(), entry.has_3d);
            assert_eq!(built.is_ideal(), entry.is_ideal);
            assert!(!built.describe().is_empty());
            // Any backend must schedule an empty block list to nothing
            // or a constant — it must not panic.
            let _ = built.schedule(&[], false);
        }
        assert_eq!(BackendRegistry::parse("no-such-backend"), None);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        // A self-consistent entry (so it passes the capability probe)
        // that collides with a built-in id.
        let err = BackendRegistry::register(BackendEntry {
            id: "vector-cache",
            display_name: "impostor",
            has_3d: false,
            is_ideal: false,
            build: |p| Box::new(VectorCacheBackend { cfg: p.vector_cache }),
            params: &[],
        })
        .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateId("vector-cache"));
        assert!(err.to_string().contains("vector-cache"));
    }

    /// A test-only backend whose instances report id "drifting",
    /// has_3d = true and is_ideal = true.
    #[derive(Debug)]
    struct DriftingProbe;

    impl VectorMemoryBackend for DriftingProbe {
        fn id(&self) -> BackendId {
            BackendId::new("drifting")
        }

        fn display_name(&self) -> &'static str {
            "drifting probe"
        }

        fn describe(&self) -> String {
            "test probe".into()
        }

        fn has_3d(&self) -> bool {
            true
        }

        fn is_ideal(&self) -> bool {
            true
        }

        fn schedule(&mut self, _blocks: &[(u64, u32)], _is_3d: bool) -> PortSchedule {
            PortSchedule::default()
        }
    }

    #[test]
    fn mismatched_entries_are_rejected() {
        // Declaring capabilities the instances do not report would let
        // the pipeline validate traces against the wrong contract —
        // register() must catch the drift up front, field by field.
        let entry = |id, has_3d, is_ideal| BackendEntry {
            id,
            display_name: "drifting probe",
            has_3d,
            is_ideal,
            build: |_| Box::new(DriftingProbe),
            params: &[],
        };
        let err = BackendRegistry::register(entry("wrong-id", true, true)).unwrap_err();
        assert_eq!(err, RegistryError::EntryMismatch { id: "wrong-id", what: "id" });
        let err = BackendRegistry::register(entry("drifting", false, true)).unwrap_err();
        assert_eq!(err, RegistryError::EntryMismatch { id: "drifting", what: "has_3d" });
        let err = BackendRegistry::register(entry("drifting", true, false)).unwrap_err();
        assert_eq!(err, RegistryError::EntryMismatch { id: "drifting", what: "is_ideal" });
        assert!(err.to_string().contains("is_ideal"));
        // Ill-formed param declarations are caught the same way.
        let err = BackendRegistry::register(BackendEntry {
            id: "drifting",
            display_name: "drifting probe",
            has_3d: true,
            is_ideal: true,
            build: |_| Box::new(DriftingProbe),
            params: &[ParamSpec {
                key: "bad=key",
                default: 1,
                candidates: &[1],
                apply: |_, _| {},
            }],
        })
        .unwrap_err();
        assert_eq!(err, RegistryError::EntryMismatch { id: "drifting", what: "params" });
        // No bad entry made it into the registry.
        assert!(BackendRegistry::get("drifting").is_none());
        assert!(BackendRegistry::get("wrong-id").is_none());
    }

    #[test]
    fn id_capabilities_match_entries() {
        assert!(BackendId::new("ideal").is_ideal());
        assert!(BackendId::new("ideal").has_3d());
        assert!(BackendId::new("vector-cache-3d").has_3d());
        assert!(!BackendId::new("vector-cache").has_3d());
        assert!(!BackendId::new("dram-burst").has_3d());
        assert!(!BackendId::new("unregistered").has_3d());
        assert!(!BackendId::new("unregistered").is_ideal());
    }

    fn arb_blocks() -> impl Strategy<Value = Vec<(u64, u32)>> {
        proptest::collection::vec((0u64..0x2_0000, 1u32..300), 1..40)
    }

    proptest! {
        /// The trait objects for the paper organizations are thin
        /// adapters: they must agree exactly with the underlying pure
        /// schedulers on arbitrary block lists.
        #[test]
        fn paper_backends_match_schedule_functions(blocks in arb_blocks()) {
            let params = BackendParams::default();
            for id in PAPER_IDS {
                let entry = BackendRegistry::get(id).unwrap();
                let mut b = (entry.build)(&params);
                let expected = match id {
                    "multi-banked" => schedule_multibanked(&params.banked, &blocks),
                    "vector-cache" | "vector-cache-3d" => {
                        schedule_vector_cache(&params.vector_cache, &blocks)
                    }
                    _ => continue, // ideal is short-circuited by the simulator
                };
                prop_assert_eq!(b.schedule(&blocks, false), expected);
            }
            // The 3D path of the 3D-capable backend is schedule_3d.
            let mut b3 = BackendRegistry::build(
                BackendId::new("vector-cache-3d"),
                &params,
            ).unwrap();
            prop_assert_eq!(b3.schedule(&blocks, true), schedule_3d(&blocks));
        }
    }
}
