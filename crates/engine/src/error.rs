//! Error types of the query engine.

use latsched_core::ScheduleError;
use latsched_lattice::LatticeError;
use latsched_tiling::TilingError;
use std::fmt;

/// The result type of engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors produced while compiling or querying schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A point or region had a dimension different from the compiled schedule's.
    DimensionMismatch {
        /// Dimension expected by the receiver.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// The schedule has more slots than the dense `u16` table can encode.
    TooManySlots {
        /// The schedule's slot count.
        slots: usize,
    },
    /// The period sublattice has too many cosets to flatten into a dense table.
    TableTooLarge {
        /// The number of cosets of the period sublattice.
        cosets: u64,
    },
    /// A window has more points than this platform can address, or more
    /// points or interference edges than a `u32`-indexed adjacency holds.
    WindowTooLarge {
        /// The number of points in the window.
        points: u64,
    },
    /// A neighbourhood shape does not tile the lattice, so no Theorem 1 schedule
    /// exists for it.
    NotSchedulable(String),
    /// A scenario specification was malformed; the string names the problem.
    InvalidSpec(String),
    /// A frame plan or adjacency referenced a node id outside the network.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The number of nodes.
        nodes: usize,
    },
    /// A frame schedule and an interference adjacency were built for networks of
    /// different sizes.
    NodeCountMismatch {
        /// Node count of the frame schedule.
        frames: usize,
        /// Node count of the adjacency.
        adjacency: usize,
    },
    /// A simulation-kernel configuration was invalid; the string names the
    /// problem (e.g. a zero traffic period).
    InvalidKernelConfig(String),
    /// An underlying graph-coloring computation failed; the string names the
    /// error.
    Coloring(String),
    /// One run of a sweep or search grid panicked. The band executor caught
    /// the panic and names the run, which the counter RNG makes replayable.
    RunPanicked {
        /// The run's index in grid order.
        run: usize,
        /// The run's `(window or candidate, traffic, retries, seed)`
        /// coordinate.
        coordinate: String,
        /// The panic message.
        message: String,
    },
    /// An underlying schedule computation failed.
    Schedule(ScheduleError),
    /// An underlying tiling computation failed.
    Tiling(TilingError),
    /// An underlying lattice computation failed.
    Lattice(LatticeError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            EngineError::TooManySlots { slots } => {
                write!(f, "{slots} slots exceed the dense table's u16 capacity")
            }
            EngineError::TableTooLarge { cosets } => {
                write!(f, "period has {cosets} cosets, too many for a dense table")
            }
            EngineError::WindowTooLarge { points } => {
                write!(f, "window of {points} points is too large to index")
            }
            EngineError::NotSchedulable(shape) => {
                write!(f, "neighbourhood {shape} does not tile the lattice")
            }
            EngineError::InvalidSpec(msg) => write!(f, "invalid scenario spec: {msg}"),
            EngineError::NodeOutOfRange { node, nodes } => write!(
                f,
                "node {node} is out of range for a network of {nodes} nodes"
            ),
            EngineError::NodeCountMismatch { frames, adjacency } => write!(
                f,
                "frame schedule covers {frames} nodes but the adjacency covers {adjacency}"
            ),
            EngineError::InvalidKernelConfig(msg) => {
                write!(f, "invalid kernel configuration: {msg}")
            }
            EngineError::Coloring(msg) => write!(f, "coloring error: {msg}"),
            EngineError::RunPanicked {
                run,
                coordinate,
                message,
            } => write!(f, "run {run} ({coordinate}) panicked: {message}"),
            EngineError::Schedule(e) => write!(f, "schedule error: {e}"),
            EngineError::Tiling(e) => write!(f, "tiling error: {e}"),
            EngineError::Lattice(e) => write!(f, "lattice error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ScheduleError> for EngineError {
    fn from(e: ScheduleError) -> Self {
        EngineError::Schedule(e)
    }
}

impl From<TilingError> for EngineError {
    fn from(e: TilingError) -> Self {
        EngineError::Tiling(e)
    }
}

impl From<LatticeError> for EngineError {
    fn from(e: LatticeError) -> Self {
        EngineError::Lattice(e)
    }
}
