//! Video content-structure mining (paper Sec. 3).
//!
//! The four-stage pipeline that turns a frame sequence into the hierarchy of
//! Fig. 4:
//!
//! 1. [`shot`] — shot-cut detection with window-local adaptive thresholds and
//!    representative-frame feature extraction (Sec. 3.1);
//! 2. [`group`] — correlation-based group detection, temporal/spatial group
//!    classification and representative-shot selection (Sec. 3.2);
//! 3. [`scene`] — group-similarity evaluation and group merging into scenes,
//!    with representative-group selection (Secs. 3.3–3.4);
//! 4. [`cluster`] — the seedless Pairwise Cluster Scheme with cluster-validity
//!    model selection (Sec. 3.5).
//!
//! [`similarity`] implements the paper's Eqs. (1), (8) and (9); [`mine`] wires
//! the stages into a single entry point, [`mine::mine_structure`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod group;
pub mod mine;
pub mod scene;
pub mod shot;
pub mod similarity;

pub use mine::{mine_structure, mine_structure_observed, MiningConfig};
pub use similarity::{group_similarity, shot_group_similarity, shot_similarity, SimilarityWeights};
