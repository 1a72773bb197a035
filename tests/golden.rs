//! Golden end-to-end snapshot tests.
//!
//! Two pins:
//!
//! 1. A fixed-seed tiny pipeline (dataset → train → eval) must reproduce
//!    the metrics checked in at `tests/golden/pipeline.json` within
//!    tolerance. Regenerate after an intentional numeric change with
//!    `SNIA_GOLDEN_REGEN=1 cargo test --test golden`.
//! 2. The serve engine must score *bit-identically* to direct forward
//!    inference for every request in the golden set, at batch sizes
//!    {1, 7, 32} and across worker replicas — batching is a throughput
//!    optimisation and must never change an answer.
//! 3. Flux-CNN training through the render cache — cold fill, warm
//!    re-read, and after deliberate on-disk corruption — must match the
//!    cacheless run bit-for-bit: caching (like batching) must never
//!    change an answer.
//! 4. Fixed-seed runs of all three training loops, at 1 and 2 threads,
//!    with and without a checkpoint directory, must reproduce the digests
//!    in `tests/golden/train_fingerprint.json` exactly: every history
//!    field, every final parameter and batch-norm buffer, and the final
//!    checkpoint bytes. Refactors of the training code must keep these
//!    bit-identical.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use snia_repro::core::classifier::LightCurveClassifier;
use snia_repro::core::eval::auc;
use snia_repro::core::flux_cnn::{FluxCnn, PoolKind};
use snia_repro::core::joint::JointModel;
use snia_repro::core::resilience::{CheckpointDir, Resilience};
use snia_repro::core::train::{
    classifier_loss_acc, classifier_scores, feature_matrix, flux_pair_refs, flux_predictions,
    joint_batch, joint_examples, train_classifier, train_classifier_resilient, train_flux_cnn,
    train_flux_cnn_resilient, train_joint_resilient, ClassifierTrainConfig, TrainRecord,
};
use snia_repro::dataset::cache;
use snia_repro::dataset::{split_indices, Dataset, DatasetConfig};
use snia_repro::nn::loss::sigmoid_probs;
use snia_repro::nn::{Mode, Sequential, Tensor};
use snia_repro::serve::{Engine, EngineConfig, ModelBundle, Request, RequestInput};

const SEED: u64 = 42;
const SAMPLES: usize = 80;
const EPOCHS: usize = 3;
const HIDDEN: usize = 16;

#[derive(Debug, Serialize, Deserialize)]
struct GoldenPipeline {
    final_train_loss: f64,
    final_val_loss: f64,
    final_val_acc: f64,
    test_loss: f64,
    test_acc: f64,
    test_auc: f64,
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The fixed-seed tiny pipeline every golden assertion runs against.
fn run_pipeline() -> (LightCurveClassifier, Tensor, Vec<bool>, GoldenPipeline) {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: SAMPLES,
        catalog_size: (SAMPLES * 4).max(200),
        seed: SEED,
    });
    let (tr, va, te) = split_indices(ds.len(), SEED);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, tte, labels) = feature_matrix(&ds, &te, 1);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xC1A551F7);
    let mut clf = LightCurveClassifier::new(1, HIDDEN, &mut rng);
    let history = train_classifier(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs: EPOCHS,
            batch_size: 64,
            lr: 3e-3,
            seed: SEED,
            threads: 1,
        },
    );
    let last = history.last().expect("trained at least one epoch");
    let (test_loss, test_acc) = classifier_loss_acc(&mut clf, &xe, &tte);
    let scores = classifier_scores(&mut clf, &xe);
    let metrics = GoldenPipeline {
        final_train_loss: last.train_loss,
        final_val_loss: last.val_loss,
        final_val_acc: last.val_acc,
        test_loss,
        test_acc,
        test_auc: auc(&scores, &labels),
    };
    (clf, xe, labels, metrics)
}

#[test]
fn pipeline_metrics_match_golden_snapshot() {
    let (_, _, _, got) = run_pipeline();
    let path = golden_path("pipeline.json");
    if std::env::var("SNIA_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&got).expect("serialize golden metrics");
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, format!("{json}\n")).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SNIA_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let want: GoldenPipeline = serde_json::from_str(&text).expect("parse golden file");
    // Losses drift with any legitimate numeric change at ~1e-3; these
    // tolerances catch real regressions (shuffled RNG streams, changed
    // initialisation, broken layers) without flaking on the last ulp.
    let close = |got: f64, want: f64, tol: f64, what: &str| {
        assert!(
            (got - want).abs() <= tol,
            "{what}: got {got}, golden {want} (tol {tol})"
        );
    };
    close(
        got.final_train_loss,
        want.final_train_loss,
        1e-2,
        "train loss",
    );
    close(got.final_val_loss, want.final_val_loss, 1e-2, "val loss");
    close(got.final_val_acc, want.final_val_acc, 2e-2, "val accuracy");
    close(got.test_loss, want.test_loss, 1e-2, "test loss");
    close(got.test_acc, want.test_acc, 2e-2, "test accuracy");
    close(got.test_auc, want.test_auc, 2e-2, "test AUC");
}

/// Serve scores must be bit-identical to a direct forward call whatever
/// the batch size — the acceptance criterion for the engine.
#[test]
fn serve_scores_are_bit_identical_to_direct_inference() {
    let (mut clf, xe, _, _) = run_pipeline();
    let direct = classifier_scores(&mut clf, &xe);
    let dim = xe.shape()[1];
    let requests: Vec<Request> = xe
        .data()
        .chunks(dim)
        .enumerate()
        .map(|(i, row)| Request {
            id: i as u64,
            input: RequestInput::Features(row.to_vec()),
        })
        .collect();
    let bundle = ModelBundle::from_classifier(&clf);
    for max_batch in [1, 7, 32] {
        let engine = Engine::from_bundle(
            &bundle,
            EngineConfig {
                max_batch,
                max_wait: Duration::from_millis(1),
                queue_cap: requests.len() + 1,
                workers: 2,
            },
        )
        .expect("bundle instantiates");
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("queue has room"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().expect("engine answers");
            assert_eq!(resp.id, i as u64);
            assert_eq!(
                resp.score.to_bits(),
                direct[i].to_bits(),
                "request {i} differs at max_batch {max_batch}: engine {} vs direct {}",
                resp.score,
                direct[i]
            );
        }
        engine.shutdown();
    }
}

/// Trains the flux CNN from a fixed seed and returns the per-epoch loss
/// bits plus the prediction bits on a held-out ref set — every f64
/// captured exactly, so comparisons are bit-for-bit.
fn flux_run_fingerprint(
    ds: &Dataset,
    train_refs: &[(usize, usize)],
    val_refs: &[(usize, usize)],
) -> Vec<u64> {
    const CROP: usize = 32;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xF1C);
    let mut cnn = FluxCnn::new(CROP, PoolKind::Max, &mut rng);
    let history = train_flux_cnn(
        &mut cnn,
        ds,
        train_refs,
        val_refs,
        &ClassifierTrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 1e-3,
            seed: SEED,
            threads: 1,
        },
    );
    let mut bits = Vec::new();
    for r in &history {
        bits.push(r.train_loss.to_bits());
        bits.push(r.val_loss.to_bits());
    }
    for (true_mag, est_mag) in flux_predictions(&mut cnn, ds, val_refs, 4) {
        bits.push(true_mag.to_bits());
        bits.push(est_mag.to_bits());
    }
    bits
}

/// The render-cache acceptance pin: a fixed-seed flux-CNN run with
/// `--render-cache` (cold fill, then warm re-reads, then after deliberate
/// on-disk corruption) matches the cacheless run bit-for-bit, and the
/// corrupted entry falls back to re-rendering instead of erroring.
#[test]
fn flux_training_with_render_cache_is_bit_identical() {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 10,
        catalog_size: 200,
        seed: SEED,
    });
    let indices: Vec<usize> = (0..ds.len()).collect();
    let (tr, va) = indices.split_at(8);
    let train_refs = flux_pair_refs(&ds, tr, 2, SEED);
    let val_refs = flux_pair_refs(&ds, va, 2, SEED + 1);

    // Cacheless baseline.
    cache::configure(None).expect("disable cache");
    let baseline = flux_run_fingerprint(&ds, &train_refs, &val_refs);

    let dir = std::env::temp_dir().join(format!("snia-golden-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::configure(Some(&dir)).expect("create cache dir");

    // Cold: every stamp is rendered once and written to the store.
    let cold = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(cold, baseline, "cold cache fill changed training results");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "stamp"))
        .collect();
    assert!(!entries.is_empty(), "cold run wrote no cache entries");

    // Warm (memory): the in-process stamp cache serves every lookup.
    let warm = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(warm, baseline, "warm memory cache changed training results");

    // Warm (disk): a fresh process would hit only the on-disk store.
    cache::clear_memory();
    let disk = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(disk, baseline, "warm disk cache changed training results");

    // Corruption: flip a byte in an entry the next run provably reads
    // (the first training stamp); the CRC frame must reject it and the
    // run must silently re-render, still bit-identical. (Concurrent
    // golden tests may add entries of their own to the store, so the
    // victim is addressed by key, not by directory listing.)
    let (si, oi) = train_refs[0];
    let key = cache::stamp_key(&ds.samples[si], oi, 32, true);
    let victim = dir.join(format!("{key:016x}.stamp"));
    let mut bytes = std::fs::read(&victim).expect("read cache entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&victim, &bytes).expect("corrupt cache entry");
    cache::clear_memory();
    let corrupt_before = cache::stats().corrupt;
    let recovered = flux_run_fingerprint(&ds, &train_refs, &val_refs);
    assert_eq!(
        recovered, baseline,
        "corrupted cache entry changed training results"
    );
    assert!(
        cache::stats().corrupt > corrupt_before,
        "corruption was not detected by the CRC frame"
    );

    cache::configure(None).expect("disable cache");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same pin for the joint image model: serve scores equal direct
/// `core::joint` forward calls bit-for-bit.
#[test]
fn serve_joint_scores_match_direct_forward_calls() {
    const CROP: usize = 36;
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 6,
        catalog_size: 200,
        seed: SEED,
    });
    let idx: Vec<usize> = (0..ds.len()).collect();
    let examples = joint_examples(&idx);
    let examples = &examples[..12];
    let (images, dates, _, _) = joint_batch(&ds, examples, CROP);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut jm = JointModel::from_scratch(CROP, 8, &mut rng);
    let logits = jm.forward(&images, &dates, Mode::Eval);
    let direct: Vec<f64> = sigmoid_probs(&logits)
        .data()
        .iter()
        .map(|&p| f64::from(p))
        .collect();

    let ilen = 5 * CROP * CROP;
    let requests: Vec<Request> = (0..examples.len())
        .map(|i| Request {
            id: i as u64,
            input: RequestInput::Cutouts {
                images: images.data()[i * ilen..(i + 1) * ilen].to_vec(),
                dates: dates.data()[i * 5..(i + 1) * 5].to_vec(),
            },
        })
        .collect();
    let bundle = ModelBundle::from_joint(&jm);
    for max_batch in [1, 7, 32] {
        let engine = Engine::from_bundle(
            &bundle,
            EngineConfig {
                max_batch,
                max_wait: Duration::from_millis(1),
                queue_cap: requests.len() + 1,
                workers: 2,
            },
        )
        .expect("bundle instantiates");
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("queue has room"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().expect("engine answers");
            assert_eq!(
                resp.score.to_bits(),
                direct[i].to_bits(),
                "joint request {i} differs at max_batch {max_batch}"
            );
        }
        engine.shutdown();
    }
}

/// One training configuration's digest in `train_fingerprint.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fingerprint {
    case: String,
    digest: String,
}

/// 64-bit FNV-1a, folded over `bytes` from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a finished run: every `TrainRecord` field's bits, the final
/// parameter values and batch-norm buffers of each network (in parameter
/// order), and — when the run checkpointed — the final `latest.ckpt`,
/// which is the byte image of the final `TrainState::to_bytes`.
fn run_digest(history: &[TrainRecord], nets: &[&Sequential], ckpt: Option<&Path>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in history {
        for v in [
            r.epoch as u64,
            r.train_loss.to_bits(),
            r.val_loss.to_bits(),
            r.train_acc.to_bits(),
            r.val_acc.to_bits(),
        ] {
            h = fnv1a(h, &v.to_le_bytes());
        }
    }
    for net in nets {
        for p in net.params() {
            h = fnv1a(h, &(p.value.len() as u64).to_le_bytes());
            for x in p.value.data() {
                h = fnv1a(h, &x.to_bits().to_le_bytes());
            }
        }
        for buf in net.extra_states() {
            h = fnv1a(h, &(buf.len() as u64).to_le_bytes());
            for x in buf {
                h = fnv1a(h, &x.to_bits().to_le_bytes());
            }
        }
    }
    if let Some(dir) = ckpt {
        let latest = CheckpointDir::new(dir).latest_path();
        let bytes = std::fs::read(&latest).expect("final checkpoint written");
        let state = CheckpointDir::load_path(&latest).expect("final checkpoint decodes");
        assert_eq!(
            state.to_bytes().expect("re-encode"),
            bytes,
            "checkpoint file is not the TrainState byte image"
        );
        h = fnv1a(h, &bytes);
    }
    format!("{h:016x}")
}

/// Runs the three training loops over a fixed grid (model × threads
/// {1, 2} × checkpoint dir off/on) and digests each run.
fn training_fingerprints() -> Vec<Fingerprint> {
    const CROP: usize = 16;
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 12,
        catalog_size: 200,
        seed: SEED,
    });
    let (tr, va, _) = split_indices(ds.len(), SEED);
    let train_refs = flux_pair_refs(&ds, &tr, 2, SEED);
    let val_refs = flux_pair_refs(&ds, &va, 2, SEED + 1);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let train_ex = joint_examples(&tr[..3]);
    let val_ex = joint_examples(&va);

    let mut out = Vec::new();
    for threads in [1usize, 2] {
        for ckpt in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "snia-golden-fingerprint-{}-t{threads}-{ckpt}",
                std::process::id()
            ));
            let res = || {
                let _ = std::fs::remove_dir_all(&dir);
                if ckpt {
                    Resilience::with_dir(&dir)
                } else {
                    Resilience::disabled()
                }
            };
            let ckpt_dir = ckpt.then_some(dir.as_path());
            let case = |model: &str| format!("{model}/threads={threads}/ckpt={ckpt}");

            let mut cnn = FluxCnn::new(CROP, PoolKind::Max, &mut StdRng::seed_from_u64(SEED));
            let flux_cfg = ClassifierTrainConfig {
                epochs: 2,
                batch_size: 6,
                lr: 1e-3,
                seed: SEED,
                threads,
            };
            let hist =
                train_flux_cnn_resilient(&mut cnn, &ds, &train_refs, &val_refs, &flux_cfg, &res())
                    .expect("flux run");
            out.push(Fingerprint {
                case: case("flux"),
                digest: run_digest(&hist, &[cnn.network()], ckpt_dir),
            });

            let clf_cfg = ClassifierTrainConfig {
                epochs: 3,
                batch_size: 13,
                lr: 3e-3,
                seed: SEED,
                threads,
            };
            let mut clf = LightCurveClassifier::new(1, 8, &mut StdRng::seed_from_u64(SEED));
            let hist =
                train_classifier_resilient(&mut clf, (&xt, &tt), (&xv, &tv), &clf_cfg, &res())
                    .expect("classifier run");
            out.push(Fingerprint {
                case: case("classifier"),
                digest: run_digest(&hist, &[clf.network()], ckpt_dir),
            });

            let joint_cfg = ClassifierTrainConfig {
                epochs: 2,
                batch_size: 5,
                ..clf_cfg
            };
            let mut jm = JointModel::from_scratch(CROP, 8, &mut StdRng::seed_from_u64(SEED));
            let hist = train_joint_resilient(&mut jm, &ds, &train_ex, &val_ex, &joint_cfg, &res())
                .expect("joint run");
            out.push(Fingerprint {
                case: case("joint"),
                digest: run_digest(
                    &hist,
                    &[jm.cnn().network(), jm.classifier().network()],
                    ckpt_dir,
                ),
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    out
}

/// Bit-exact pin of all three training loops (see the module docs).
#[test]
fn training_fingerprints_match_golden() {
    let got = training_fingerprints();
    let path = golden_path("train_fingerprint.json");
    if std::env::var("SNIA_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&got).expect("serialize fingerprints");
        std::fs::write(&path, format!("{json}\n")).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SNIA_GOLDEN_REGEN=1",
            path.display()
        )
    });
    let want: Vec<Fingerprint> = serde_json::from_str(&text).expect("parse golden file");
    assert_eq!(want, got, "training is no longer bit-identical");
}
