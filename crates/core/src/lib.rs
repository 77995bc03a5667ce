//! RNTrajRec — Road Network Enhanced Trajectory Recovery with
//! Spatial-Temporal Transformer (ICDE 2023), reproduced in Rust.
//!
//! This crate assembles the full system on top of the substrate crates:
//!
//! * [`model`] — the end-to-end recovery model (any encoder + the shared
//!   multi-task decoder), the multi-task loss `L_id + λ₁L_rate + λ₂L_enc`
//!   (Eq. 16–19), and the method registry covering every row of Table III.
//! * [`train`] — Adam training with teacher forcing and gradient clipping.
//! * [`metrics`] — Recall/Precision/F1, Accuracy, MAE/RMSE in road-network
//!   metres, and `SR%k` (Section VI-A2, Fig. 4).
//! * [`twostage`] — the Linear+HMM and DHTR+HMM two-stage baselines.
//! * [`experiments`] — drivers regenerating every table and figure of the
//!   paper's evaluation at configurable scale.
//! * [`wire`] — the JSON wire format of the HTTP serving front-end
//!   (`rntrajrec-serve`): recover request/response bodies and their
//!   validation.
//!
//! # Quickstart
//!
//! ```no_run
//! use rntrajrec::experiments::{ExperimentScale, Pipeline};
//! use rntrajrec::model::MethodSpec;
//! use rntrajrec_synth::DatasetConfig;
//!
//! let scale = ExperimentScale::quick();
//! let pipeline = Pipeline::prepare(DatasetConfig::tiny(8, 40), &scale);
//! let row = pipeline.train_and_eval(&MethodSpec::RnTrajRec, &scale);
//! println!("{row}");
//! ```

pub mod experiments;
pub mod metrics;
pub mod model;
pub mod train;
pub mod twostage;
pub mod wire;

pub use experiments::{ExperimentScale, Pipeline};
pub use metrics::{EvalMetrics, MetricsAccumulator};
pub use model::{EndToEnd, MethodSpec};
pub use train::{TrainConfig, Trainer};
