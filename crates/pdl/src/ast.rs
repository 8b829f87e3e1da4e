//! The parsed form of a `.soc` platform description.
//!
//! Every declaration keeps the 1-based source position of its introducing
//! token so validation and platform-builder failures can be mapped back to
//! the offending text (see [`crate::error::Error`]).

use mpsoc_platform::platform::{CacheConfig, InterconnectConfig};
use mpsoc_platform::Time;

/// A 1-based source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Span {
    /// Line.
    pub line: usize,
    /// Column.
    pub col: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }
}

/// Core classes understood by the language.
///
/// Classes do not change how the cycle-approximate platform executes (all
/// cores run the same ISA); they drive the area/power cost model and the
/// coarse MAPS architecture model used by the joint DSE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreClass {
    /// Application processor (general-purpose, out-of-order class).
    Apu,
    /// Real-time processor (lean in-order control core).
    Rpu,
    /// Digital signal processor.
    Dsp,
    /// Fixed-function / loosely programmable accelerator.
    Accel,
}

impl CoreClass {
    /// The textual form used in `.soc` sources.
    pub fn as_str(self) -> &'static str {
        match self {
            CoreClass::Apu => "apu",
            CoreClass::Rpu => "rpu",
            CoreClass::Dsp => "dsp",
            CoreClass::Accel => "accel",
        }
    }

    /// Parses a class value; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "apu" => Some(CoreClass::Apu),
            "rpu" => Some(CoreClass::Rpu),
            "dsp" => Some(CoreClass::Dsp),
            "accel" => Some(CoreClass::Accel),
            _ => None,
        }
    }
}

/// One `core` declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct SocCore {
    /// Core name (unique within the platform).
    pub name: String,
    /// Core class.
    pub class: CoreClass,
    /// Clock frequency in kHz (the builder's native unit).
    pub(crate) freq_khz: u64,
    /// Owning cluster, if any (nested declaration or `cluster = NAME`).
    pub cluster: Option<String>,
    /// Optional per-core area override in milli-mm^2 (`area_mmm2`).
    pub area_mmm2: Option<u64>,
    /// Optional per-core power override in micro-watts (`power_uw`).
    pub power_uw: Option<u64>,
    /// Where the core was declared.
    pub span: Span,
}

/// Peripheral kinds understood by the language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SocPeriphKind {
    /// A programmable periodic timer.
    Timer,
    /// A blocking FIFO mailbox with the given capacity.
    Mailbox {
        /// FIFO capacity in messages.
        capacity: usize,
    },
    /// A counting semaphore with the given initial count.
    Semaphore {
        /// Initial count.
        count: i64,
    },
    /// A DMA engine.
    Dma,
}

/// One peripheral declaration, in platform order (order determines the
/// peripheral's memory-mapped page, so it is semantically significant).
#[derive(Clone, Debug, PartialEq)]
pub struct SocPeriph {
    /// Peripheral name (unique across all peripheral kinds).
    pub name: String,
    /// Kind and kind-specific attributes.
    pub kind: SocPeriphKind,
    /// Where the peripheral was declared.
    pub span: Span,
}

/// The `interconnect` declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocInterconnect {
    /// Shared bus: per-access latency and occupancy in nanoseconds.
    Bus {
        /// End-to-end access latency (ns).
        latency_ns: u64,
        /// Bus occupancy per access (ns).
        occupancy_ns: u64,
    },
    /// 2-D mesh NoC: `width * height` routers, per-hop latency and link
    /// occupancy in nanoseconds. Needs `width * height >= cores + 1`.
    Mesh {
        /// Mesh width in routers.
        width: usize,
        /// Mesh height in routers.
        height: usize,
        /// Per-hop forwarding latency (ns).
        hop_ns: u64,
        /// Per-flit link occupancy (ns).
        link_ns: u64,
    },
}

impl SocInterconnect {
    /// Converts to the platform builder's configuration type.
    pub(crate) fn to_config(self) -> InterconnectConfig {
        match self {
            SocInterconnect::Bus {
                latency_ns,
                occupancy_ns,
            } => InterconnectConfig::Bus {
                latency: Time::from_ns(latency_ns),
                occupancy: Time::from_ns(occupancy_ns),
            },
            SocInterconnect::Mesh {
                width,
                height,
                hop_ns,
                link_ns,
            } => InterconnectConfig::Mesh {
                w: width,
                h: height,
                hop_latency: Time::from_ns(hop_ns),
                link_occupancy: Time::from_ns(link_ns),
            },
        }
    }
}

/// The optional `budget` declaration (lumos-style system constraints).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SocBudget {
    /// Maximum platform area in mm^2.
    pub max_area_mm2: Option<u64>,
    /// Maximum platform power in mW.
    pub max_power_mw: Option<u64>,
}

/// A fully parsed and validated platform description.
#[derive(Clone, Debug, PartialEq)]
pub struct SocDesc {
    /// Platform name.
    pub name: String,
    /// Cores, in declaration order (core ids follow this order).
    pub cores: Vec<SocCore>,
    /// Declared cluster names, in declaration order.
    pub clusters: Vec<String>,
    /// Shared memory size in words.
    pub shared_words: usize,
    /// Per-core local store size in words.
    pub local_words: usize,
    /// Per-core L1 cache; `None` means `cache none;`.
    pub cache: Option<CacheConfig>,
    /// Interconnect topology.
    pub interconnect: SocInterconnect,
    /// Peripherals, in declaration (= page) order.
    pub peripherals: Vec<SocPeriph>,
    /// Optional area/power budget.
    pub budget: SocBudget,
    /// Span of the `memory` section (or of `platform` when defaulted).
    pub(crate) memory_span: Span,
    /// Span of the `interconnect` section (or of `platform` when defaulted).
    pub(crate) interconnect_span: Span,
    /// Span of the `cache` section (or of `platform` when defaulted).
    pub(crate) cache_span: Span,
    /// Span of the `budget` section (or of `platform` when absent).
    pub(crate) budget_span: Span,
}
