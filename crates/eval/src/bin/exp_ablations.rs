//! E-ABL: the thresholds, features and clustering ablations plus the codec
//! quality and BIC λ sweeps (EXPERIMENTS.md §Ablations).

use medvid_eval::ablations::{run_ablations, SceneAblationRow};
use medvid_eval::corpus::{evaluation_corpus, EvalScale};
use medvid_eval::report::{f3, print_table, write_report};
use medvid_obs::CorpusReport;

fn scene_table(title: &str, rows: &[SceneAblationRow]) {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let per_video: Vec<String> = r.per_video_precision.iter().map(|&p| f3(p)).collect();
            vec![
                r.setting.clone(),
                r.judgement.rightly.to_string(),
                r.judgement.detected.to_string(),
                f3(r.precision),
                f3(r.crf),
                per_video.join(" "),
            ]
        })
        .collect();
    let header = ["setting", "rightly", "detected", "P", "CRF", "P/video"];
    print_table(title, &header, &rows);
}

fn main() {
    let corpus = evaluation_corpus(EvalScale::from_args());
    let a = run_ablations(&corpus);
    scene_table("E-ABL1 — group thresholds: auto vs fixed T2", &a.thresholds);
    scene_table("E-ABL3 — similarity weights", &a.features);
    let clustering: Vec<Vec<String>> = a
        .clustering
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                i.to_string(),
                r.scenes.to_string(),
                r.pcs_clusters.to_string(),
                r.pcs_repeatable.to_string(),
                r.fixed_clusters.to_string(),
                r.kmeans_partitions.to_string(),
            ]
        })
        .collect();
    let header = ["video", "scenes", "PCS", "repeat", "fixed", "k-means"];
    let title = "E-ABL2 — PCS + validity vs fixed 40% vs k-means (partitions over 5 seeds)";
    print_table(title, &header, &clustering);
    let codec: Vec<Vec<String>> = a
        .codec
        .iter()
        .map(|r| {
            let q = r.quality.to_string();
            vec![q, r.bytes.to_string(), f3(r.bpp), f3(r.min_psnr_db)]
        })
        .collect();
    print_table(
        "E-COD — codec quality, video 0's opening 60 frames",
        &["quality", "bytes", "bpp", "min PSNR dB"],
        &codec,
    );
    let bic: Vec<Vec<String>> = a
        .bic
        .iter()
        .map(|r| vec![r.lambda.to_string(), format!("{}/{}", r.correct, r.pairs)])
        .collect();
    print_table("E-AUD — BIC accuracy vs λ", &["lambda", "correct"], &bic);
    write_report("ablations", &CorpusReport::empty(), &a);
}
