//! # snia-lightcurve
//!
//! Parametric supernova light-curve models for the snia-repro reproduction
//! of Kimura et al. (2017).
//!
//! The paper generates light curves from SALT-II-style templates with
//! parameters (type, stretch, colour) drawn from the distributions of
//! Mosher et al. (2014). SALT-II itself is a large external data product,
//! so this crate substitutes analytic template families that preserve the
//! properties the classifier exploits:
//!
//! * Type Ia: bright (`M ≈ −19.3`), homogeneous (small scatter), stretch- and
//!   colour-corrected via the Phillips relation, with a secondary-maximum
//!   bump in the redder bands.
//! * Ib/Ic: ~1.5–2 mag dimmer, faster rise, larger scatter.
//! * IIP: long plateau (~80 d) followed by a drop.
//! * IIL: linear (in magnitudes) decline.
//! * IIN: slow, bright, narrow-line-powered decline with large scatter.
//!
//! All shapes are built on the Bazin et al. (2009) analytic form — the
//! standard parametric model for survey light curves — with type-dependent
//! timescales, plus plateau/linear modifiers for the Type II family.
//!
//! The crate also provides the photometric plumbing the rest of the
//! workspace needs: [`Band`] definitions, flux↔magnitude conversion with the
//! paper's zero point of 27.0, a flat-ΛCDM distance modulus, and seeded
//! parameter priors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod cosmology;
pub mod curve;
pub mod photometry;
pub mod priors;
pub mod sntype;
pub mod template;

pub use band::Band;
pub use curve::{LightCurve, LightCurvePoint};
pub use photometry::{flux_to_mag, mag_to_flux, ZERO_POINT};
pub use priors::{sample_params, SnParams};
pub use sntype::SnType;
