//! # towerlens-city
//!
//! Synthetic urban environment: the substitution for the paper's
//! proprietary Shanghai ground truth (tower locations, urban
//! functional regions, and the Baidu-Map POI layer).
//!
//! The generator encodes only *mechanisms* the paper attributes
//! structure to — not the findings themselves:
//!
//! * a monocentric city: office zones concentrate downtown,
//!   entertainment rings the centre, residential zones sit on the
//!   outskirts, transport hubs line radial corridors, and
//!   comprehensive (mixed-function) zones scatter uniformly;
//! * each zone carries a Poisson POI population whose per-type
//!   intensities depend on the zone kind (calibrated to the *relative*
//!   magnitudes of the paper's Table 2);
//! * cellular towers are seated in zones with the paper's Table 1
//!   mixture as the default prior, positioned with Gaussian scatter.
//!
//! Whether the analysis pipeline then re-discovers five traffic
//! patterns, the POI dominance diagonal of Table 3, or the convex
//! mixture structure of Table 6 is a genuine property of the *method*,
//! because the traffic model (in `towerlens-mobility`) consumes only
//! the zone mixture around each tower, never its cluster label.
//!
//! Everything is deterministic given [`CityConfig::seed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod city;
pub mod config;
pub mod density;
pub mod error;
pub mod generate;
pub mod geo;
pub mod poi;
pub mod zone;

pub use city::{City, Tower};
pub use config::CityConfig;
pub use density::DensityGrid;
pub use error::CityError;
pub use geo::{BoundingBox, GeoPoint};
pub use poi::{Poi, PoiIndex, QueryWork};
pub use zone::{PoiKind, RegionKind, Zone};
