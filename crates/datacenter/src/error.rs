use std::error::Error;
use std::fmt;

use ostro_model::{Bandwidth, Resources};

use crate::ids::HostId;
use crate::path::LinkRef;

/// Errors produced while assembling an [`Infrastructure`](crate::Infrastructure).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The infrastructure contains no hosts.
    NoHosts,
    /// A site was declared without any racks.
    EmptySite(String),
    /// A rack was declared without any hosts.
    EmptyRack(String),
    /// Two elements at the same level share a name.
    DuplicateName(String),
    /// A host was declared with zero capacity in every dimension.
    ZeroCapacityHost(String),
    /// A host was declared with a zero-bandwidth NIC.
    ZeroNic(String),
    /// A serialized infrastructure references an entity that does not
    /// exist (e.g. a host naming a rack index beyond the rack vector).
    DanglingReference(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoHosts => write!(f, "infrastructure contains no hosts"),
            Self::EmptySite(s) => write!(f, "site `{s}` contains no racks"),
            Self::EmptyRack(r) => write!(f, "rack `{r}` contains no hosts"),
            Self::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            Self::ZeroCapacityHost(h) => write!(f, "host `{h}` has zero capacity"),
            Self::ZeroNic(h) => write!(f, "host `{h}` has a zero-bandwidth NIC"),
            Self::DanglingReference(what) => write!(f, "dangling reference: {what}"),
        }
    }
}

impl Error for BuildError {}

/// Errors produced by capacity bookkeeping: a reservation that does not
/// fit, or a release that was never reserved.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CapacityError {
    /// A host cannot satisfy a node's resource requirement.
    InsufficientHost {
        /// The host that was asked.
        host: HostId,
        /// What the node needs.
        needed: Resources,
        /// What the host still has.
        available: Resources,
    },
    /// A network link along a flow's path cannot carry the demand.
    InsufficientLink {
        /// The saturated link.
        link: LinkRef,
        /// The bandwidth demanded.
        needed: Bandwidth,
        /// The bandwidth still available on the link.
        available: Bandwidth,
    },
    /// A release exceeded what was reserved on a host.
    ReleaseUnderflowHost(HostId),
    /// A release exceeded what was reserved on a link.
    ReleaseUnderflowLink(LinkRef),
    /// A reservation named a quarantined host: nothing may land there,
    /// whatever its books say is free.
    HostQuarantined(HostId),
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InsufficientHost { host, needed, available } => {
                write!(f, "host {host} cannot fit request ({needed}); only {available} available")
            }
            Self::InsufficientLink { link, needed, available } => {
                write!(f, "link {link} cannot carry {needed}; only {available} available")
            }
            Self::ReleaseUnderflowHost(h) => {
                write!(f, "release on host {h} exceeds reserved amount")
            }
            Self::ReleaseUnderflowLink(l) => {
                write!(f, "release on link {l} exceeds reserved amount")
            }
            Self::HostQuarantined(h) => write!(f, "host {h} is quarantined"),
        }
    }
}

impl Error for CapacityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CapacityError::InsufficientHost {
            host: HostId::from_index(3),
            needed: Resources::new(4, 4096, 0),
            available: Resources::new(2, 8192, 100),
        };
        let s = e.to_string();
        assert!(s.contains("h3"));
        assert!(s.contains("4 vCPU"));
        assert!(BuildError::NoHosts.to_string().contains("no hosts"));
    }
}
