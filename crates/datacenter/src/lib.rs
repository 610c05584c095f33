//! Hierarchical data-center substrate for the Ostro placement scheduler.
//!
//! Models the paper's `T_p` (Fig. 3): hosts live in racks behind top-of-rack
//! (ToR) switches, racks group under pod switches, pods connect to a root
//! switch, and multiple data-center *sites* interconnect over a backbone.
//! The pod layer is optional per site — the paper's large-scale simulation
//! uses 150 racks directly under the root switch.
//!
//! Two layers are separated deliberately:
//!
//! * [`Infrastructure`] — the immutable physical structure (who is in which
//!   rack, total capacities).
//! * [`CapacityState`] — the mutable availability bookkeeping (what is left
//!   on each host and each network link), supporting reserve/release with
//!   validation, plus a cheap copy-on-write [`OverlayState`] used by search
//!   algorithms to branch placement hypotheses without cloning the world.
//!
//! # Example
//!
//! ```
//! use ostro_datacenter::{CapacityState, InfrastructureBuilder};
//! use ostro_model::{Bandwidth, Resources};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let infra = InfrastructureBuilder::flat(
//!     "dc",
//!     2,                                  // racks
//!     4,                                  // hosts per rack
//!     Resources::new(16, 32_768, 1_000),  // per-host capacity
//!     Bandwidth::from_gbps(10),           // host NIC
//!     Bandwidth::from_gbps(100),          // ToR uplink
//! )
//! .build()?;
//! let mut state = CapacityState::new(&infra);
//! let host = infra.hosts()[0].id();
//! state.reserve_node(host, Resources::new(4, 8_192, 100))?;
//! assert_eq!(state.available(host).vcpus, 12);
//! # Ok(())
//! # }
//! ```

mod builder;
mod error;
mod fx;
mod ids;
mod overlay;
mod path;
mod spec;
mod state;
mod structure;
mod table;

pub use builder::InfrastructureBuilder;
pub use error::{BuildError, CapacityError};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{HostId, PodId, RackId, SiteId};
pub use overlay::{OverlayMark, OverlayState};
pub use path::{LinkRef, Separation};
pub use spec::{HostSpec, InfraSpec, PodSpec, RackSpec, SiteSpec};
pub use state::CapacityState;
pub use structure::{Host, Infrastructure, Pod, Rack, Route, Site};
pub use table::{CapacityTable, FleetLayout};
