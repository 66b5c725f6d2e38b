//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! | experiment | paper artefact | module | binary |
//! |---|---|---|---|
//! | E-FIG5 | Fig. 5 shot detection evidence | [`fig5`] | `exp_fig5` |
//! | E-FIG8 | Fig. 8 qualitative scene detection | [`scenedet`] | `exp_fig8` |
//! | E-FIG12/13 | Figs. 12–13 scene precision & CRF (methods A/B/C) | [`scenedet`] | `exp_fig12`, `exp_fig13` |
//! | E-TAB1 | Table 1 event-mining PR/RE | [`events_exp`] | `exp_table1` |
//! | E-IDX | Sec. 6.2 retrieval cost (Eqs. 24–25) | [`indexing_exp`] | `exp_indexing` |
//! | E-FIG14/15 | Figs. 14–15 skimming scores & FCR | [`skim_exp`] | `exp_fig14`, `exp_fig15` |
//! | E-ABL, E-COD, E-AUD | Ablations: thresholds, features, clustering, codec quality, BIC λ | [`ablations`] | `exp_ablations` |
//! | E-BENCH | Mining, codec, storage and serving throughput (`BENCH_pipeline.json`) | — | `exp_bench` |
//!
//! Each module exposes a pure `run_*` function returning structured results
//! (serde-serialisable), which the binaries print as the tables/series the
//! paper reports and dump to `target/experiments/*.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod corpus;
pub mod events_exp;
pub mod fig5;
pub mod indexing_exp;
pub mod metrics;
pub mod parallel;
pub mod report;
pub mod scenedet;
pub mod skim_exp;

pub use corpus::{default_miner, evaluation_corpus, EvalScale};
pub use metrics::{crf, event_table, scene_precision, EventRow, SceneJudgement};
