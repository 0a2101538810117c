//! # towerlens-dsp
//!
//! Signal-processing substrate for the towerlens workspace.
//!
//! The IMC'15 paper analyses per-tower traffic vectors of length
//! `N = 4032` (28 days of 10-minute bins) in the frequency domain. This
//! crate provides everything that analysis needs, built from scratch:
//!
//! * [`Complex`] — minimal complex arithmetic,
//! * [`mod@fft`] — a mixed-radix Cooley–Tukey FFT that handles arbitrary
//!   composite lengths (4032 = 2⁶·3²·7), with an O(N²) direct DFT used
//!   for prime factors and as a reference implementation,
//! * [`spectrum`] — amplitude/phase extraction, band selection and
//!   time-domain reconstruction from a sparse set of components
//!   (the paper's k ∈ {0, 4, 28, 56} reconstruction), energy accounting,
//! * [`mod@goertzel`] — single-bin DFT at the three principal lines
//!   (week, day, half-day), several bins or towers per pass: the
//!   study's spectral table and `serve`'s drain-report line amplitudes,
//! * [`normalize`] — z-score and min-max normalisation used by the
//!   traffic vectorizer and the POI validation,
//! * [`stats`] — summary statistics and empirical CDFs,
//! * [`circular`] — circular statistics for phase angles (Fig 16 needs
//!   means/standard deviations of phases, which are only meaningful in
//!   the circular sense).
//!
//! Design follows the guidance in the repo's networking guides: simple,
//! allocation-conscious, no panics on user input (fallible APIs return
//! [`DspError`]), and extensively tested (unit + property tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circular;
pub mod complex;
pub mod dft;
pub mod error;
pub mod fft;
pub mod goertzel;
pub mod normalize;
pub mod spectrum;
pub mod stats;

pub use complex::Complex;
pub use error::DspError;
pub use fft::{fft, ifft, FftPlan};
pub use goertzel::{goertzel, goertzel_bins, goertzel_feature};
pub use spectrum::Spectrum;
