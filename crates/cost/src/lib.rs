//! Hardware cost models for fetch-prediction structures.
//!
//! The paper compares architectures at *equal implementation cost*,
//! using two models this crate reimplements:
//!
//! * [`rbe`] — the register-bit-equivalent area model of Mulder,
//!   Quach & Flynn, used for Figure 3's cost comparison and the
//!   equal-cost pairings of §6 (1024-entry NLS-table ≈ 128-entry
//!   BTB; 256-entry BTB ≈ twice the NLS-table).
//! * [`access_time`] — a CACTI-style timing model after Wilton &
//!   Jouppi, used for Figure 6's observation that associative BTBs
//!   are 30–40 % slower than direct-mapped ones.
//!
//! ```
//! use nls_cost::rbe::{btb_rbe, nls_table_rbe, CacheGeometry};
//!
//! let nls = nls_table_rbe(1024, CacheGeometry::paper(16, 1));
//! let btb = btb_rbe(256, 1);
//! assert!(btb > 1.5 * nls); // the 256 BTB costs ~2x the table
//! ```
//!
//! Areas are [`Rbe`]s and times are [`Nanos`]. Each adds and
//! subtracts only within its unit, scales by a plain `f64`, and
//! divides into a plain `f64` ratio, so an area added to a time does
//! not compile:
//!
//! ```compile_fail
//! use nls_cost::access_time::{btb_access_ns, TimingProcess};
//! use nls_cost::rbe::btb_rbe;
//!
//! let _ = btb_rbe(128, 1) + btb_access_ns(128, 1, &TimingProcess::default());
//! ```
//!
//! while two areas add and a time scales:
//!
//! ```
//! use nls_cost::access_time::{btb_access_ns, TimingProcess};
//! use nls_cost::rbe::btb_rbe;
//!
//! let both = btb_rbe(128, 1) + btb_rbe(256, 1);
//! let twice = 2.0 * btb_access_ns(128, 1, &TimingProcess::default());
//! assert!(both > btb_rbe(256, 1));
//! assert_eq!(twice / btb_access_ns(128, 1, &TimingProcess::default()), 2.0);
//! ```

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

pub mod access_time;
pub mod rbe;

/// A quantity of one unit: an `f64` that adds and subtracts only its
/// own unit, scales by an `f64` from either side, divides into an
/// `f64` ratio, and prints as its `f64` with the caller's width and
/// precision.
macro_rules! unit {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(pub f64);

        impl $name {
            /// The larger of two values, as [`f64::max`].
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, k: f64) -> Self {
                $name(self.0 * k)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, x: $name) -> $name {
                $name(self * x.0)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

unit! {
    /// An area in register-bit equivalents: one RBE is the area of
    /// one register bit cell ([`rbe`]).
    Rbe
}

unit! {
    /// A time in nanoseconds ([`access_time`]).
    Nanos
}
