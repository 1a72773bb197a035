//! `snia` — command-line interface to the snia-repro toolkit.
//!
//! ```text
//! snia dataset   --samples 200 --seed 1 --out specs.json   generate dataset specs
//! snia inspect   --sample 0   [--samples N --seed S]       describe one sample
//! snia render    --sample 0 --obs 5 --out prefix           write ref/obs/diff PGMs
//! snia classify  [--samples N --seed S --epochs E]         train + evaluate the classifier
//! snia serve     --model bundle/ [--input req.jsonl]       score JSONL requests
//! snia help                                                this text
//! ```

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use snia_repro::core::classifier::LightCurveClassifier;
use snia_repro::core::eval::auc;
use snia_repro::core::resilience::{FaultPlan, Resilience};
use snia_repro::core::resume_from_env_args;
use snia_repro::core::train::{
    classifier_scores, feature_matrix, train_classifier_resilient, ClassifierTrainConfig,
};
use snia_repro::dataset::{split_indices, Dataset, DatasetConfig};
use snia_repro::serve::{serve_lines, Engine, EngineConfig, ModelBundle};

const HELP: &str = "snia — single-epoch supernova classification toolkit

USAGE:
    snia <command> [--flag value ...]

COMMANDS:
    dataset    generate dataset sample specs as JSON
                 --samples <n>   number of samples     (default 200)
                 --seed <n>      master seed           (default 20170101)
                 --threads <n>   generation threads    (default 1; any
                                 thread count yields bit-identical output)
                 --out <path>    output JSON file      (default specs.json)
    inspect    describe one sample's host, parameters and campaign
                 --sample <i>    sample index          (default 0)
                 --samples/--seed as above
    render     write reference/observation/difference PGM images
                 --sample <i>    sample index          (default 0)
                 --obs <j>       observation index     (default 0)
                 --out <prefix>  file prefix           (default sample)
                 --samples/--seed as above
    classify   train the single-epoch classifier and report test AUC
                 --epochs <n>    training epochs       (default 25)
                 --hidden <n>    hidden units          (default 100)
                 --threads <n>   data-parallel threads (default 1)
                 --resume <dir>  checkpoint directory: save every epoch and
                                 resume from the latest checkpoint on restart
                                 (also via SNIA_RESUME)
                 --fault <spec>  inject faults for resilience testing, e.g.
                                 nan_loss@step=40,panic_worker@epoch=2,kill@epoch=3
                                 (also via SNIA_FAULT)
                 --render-cache <dir>     cache preprocessed stamps on disk;
                                          hits are bit-identical to fresh
                                          renders (also via SNIA_RENDER_CACHE)
                 --export-bundle <dir>    save the trained model as a serve
                                          bundle (manifest.json + weights.snia)
                 --export-requests <path> write the test split as JSONL serve
                                          requests (one {\"id\",\"features\"} per line)
                 --samples/--seed as above
    serve      score JSONL requests through the batched inference engine
                 --model <dir>   bundle directory      (required)
                 --input <path>  request JSONL, - for stdin  (default -)
                 --out <path>    scored JSONL, - for stdout  (default -)
                 --workers <n>   worker threads        (default 1)
                 --max-batch <n> flush threshold       (default 32)
                 --max-wait-ms <n>  how long requests queued behind busy
                                    workers wait for batch-mates (default 2)
                 --queue-cap <n> backpressure bound    (default 1024)
    export     write all light curves in SNPCC-like text format
                 --out <path>    output file           (default lightcurves.dat)
                 --samples/--seed as above
    help       print this text
";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn flag_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
    }
}

fn flag_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
    }
}

fn build_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let n = flag_usize(flags, "samples", 200)?;
    let seed = flag_u64(flags, "seed", 20170101)?;
    let threads = flag_usize(flags, "threads", 1)?.max(1);
    Ok(Dataset::generate_with_threads(
        &DatasetConfig {
            n_samples: n,
            catalog_size: (n * 4).max(200),
            seed,
        },
        threads,
    ))
}

fn cmd_dataset(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = build_dataset(flags)?;
    let out = flags.get("out").map(String::as_str).unwrap_or("specs.json");
    let json = serde_json::to_string(&ds.samples).map_err(|e| e.to_string())?;
    fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} sample specs ({} SNIa / {} contaminants) to {out}",
        ds.len(),
        ds.ia_indices().len(),
        ds.len() - ds.ia_indices().len()
    );
    Ok(())
}

fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = build_dataset(flags)?;
    let i = flag_usize(flags, "sample", 0)?;
    let s = ds
        .samples
        .get(i)
        .ok_or_else(|| format!("sample {i} out of range (dataset has {} samples)", ds.len()))?;
    println!("sample {i}: {} at z = {:.3}", s.sn.sn_type, s.sn.redshift);
    println!(
        "  stretch {:.3}, colour {:+.3}, grey offset {:+.3}, peak MJD {:.1}",
        s.sn.stretch, s.sn.color, s.sn.mag_offset, s.sn.peak_mjd
    );
    println!(
        "  host galaxy #{}: i = {:.2} mag, R_eff = {:.2}\", Sérsic n = {:.1}",
        s.galaxy.id, s.galaxy.mag_i, s.galaxy.r_eff_arcsec, s.galaxy.sersic_index
    );
    let lc = s.light_curve();
    println!(
        "  campaign ({} observations):",
        s.schedule.observations.len()
    );
    for &(band, mjd) in &s.schedule.observations {
        println!(
            "    MJD {:9.1}  {}  mag {:6.2}",
            mjd,
            band,
            lc.mag(band, mjd)
        );
    }
    Ok(())
}

fn cmd_render(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = build_dataset(flags)?;
    let i = flag_usize(flags, "sample", 0)?;
    let j = flag_usize(flags, "obs", 0)?;
    let prefix = flags.get("out").map(String::as_str).unwrap_or("sample");
    let s = ds
        .samples
        .get(i)
        .ok_or_else(|| format!("sample {i} out of range"))?;
    if j >= s.schedule.observations.len() {
        return Err(format!(
            "observation {j} out of range (sample has {})",
            s.schedule.observations.len()
        ));
    }
    let pair = s.flux_pair(j);
    let diff = pair.observation.subtract(&pair.reference);
    let hi = pair.observation.max().max(1.0);
    for (name, img, lo, top) in [
        ("reference", &pair.reference, -1.0, hi),
        ("observation", &pair.observation, -1.0, hi),
        ("difference", &diff, -hi / 4.0, hi / 4.0),
    ] {
        let path = format!("{prefix}_{name}.pgm");
        fs::write(&path, img.to_pgm(lo, top)).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "band {}, MJD {:.1}, true mag {:.2}",
        pair.band, pair.mjd, pair.true_mag
    );
    Ok(())
}

fn cmd_classify(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(dir) = flags.get("render-cache") {
        snia_repro::dataset::cache::configure(Some(std::path::Path::new(dir)))
            .map_err(|e| format!("cannot create render cache {dir}: {e}"))?;
    }
    let ds = build_dataset(flags)?;
    let epochs = flag_usize(flags, "epochs", 25)?;
    let hidden = flag_usize(flags, "hidden", 100)?;
    let threads = flag_usize(flags, "threads", 1)?.max(1);
    let seed = flag_u64(flags, "seed", 20170101)?;
    let (tr, va, te) = split_indices(ds.len(), seed);
    let (xt, tt, _) = feature_matrix(&ds, &tr, 1);
    let (xv, tv, _) = feature_matrix(&ds, &va, 1);
    let (xe, _, labels) = feature_matrix(&ds, &te, 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A551F7);
    let mut clf = LightCurveClassifier::new(1, hidden, &mut rng);
    println!(
        "training {} parameters on {} examples for {} epochs...",
        clf.num_parameters(),
        xt.shape()[0],
        epochs
    );
    let dir = resume_from_env_args();
    let res = match flags.get("fault") {
        Some(spec) => Resilience::new(
            dir,
            FaultPlan::parse(spec).map_err(|e| format!("--fault: {e}"))?,
        ),
        None => Resilience::from_env(dir),
    };
    let hist = train_classifier_resilient(
        &mut clf,
        (&xt, &tt),
        (&xv, &tv),
        &ClassifierTrainConfig {
            epochs,
            batch_size: 64,
            lr: 3e-3,
            seed,
            threads,
        },
        &res,
    )
    .map_err(|e| e.to_string())?;
    match hist.last() {
        Some(last) => println!("val accuracy {:.3}", last.val_acc),
        None => println!("no epochs trained (epochs = 0)"),
    }
    let scores = classifier_scores(&mut clf, &xe);
    println!("single-epoch test AUC: {:.3}", auc(&scores, &labels));
    if let Some(dir) = flags.get("export-bundle") {
        ModelBundle::from_classifier(&clf)
            .save(dir)
            .map_err(|e| format!("cannot export bundle to {dir}: {e}"))?;
        println!("exported model bundle to {dir}/");
    }
    if let Some(path) = flags.get("export-requests") {
        let dim = xe.shape()[1];
        let mut text = String::new();
        for (i, row) in xe.data().chunks(dim).enumerate() {
            let feats: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            text.push_str(&format!(
                "{{\"id\":{i},\"features\":[{}]}}\n",
                feats.join(",")
            ));
        }
        fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote {} serve requests (test split) to {path}",
            xe.shape()[0]
        );
    }
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = flags
        .get("model")
        .ok_or("serve needs --model <bundle dir>")?;
    let cfg = EngineConfig {
        max_batch: flag_usize(flags, "max-batch", 32)?.max(1),
        max_wait: std::time::Duration::from_millis(flag_u64(flags, "max-wait-ms", 2)?),
        queue_cap: flag_usize(flags, "queue-cap", 1024)?.max(1),
        workers: flag_usize(flags, "workers", 1)?.max(1),
    };
    let bundle = ModelBundle::load(dir).map_err(|e| format!("cannot load bundle {dir}: {e}"))?;
    let engine = Engine::from_bundle(&bundle, cfg).map_err(|e| e.to_string())?;
    let input = flags.get("input").map(String::as_str).unwrap_or("-");
    let out = flags.get("out").map(String::as_str).unwrap_or("-");
    let summary = {
        let stdin = std::io::stdin();
        let reader: Box<dyn std::io::BufRead> = if input == "-" {
            Box::new(stdin.lock())
        } else {
            let f = fs::File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
            Box::new(std::io::BufReader::new(f))
        };
        let mut writer: Box<dyn std::io::Write> = if out == "-" {
            Box::new(std::io::stdout().lock())
        } else {
            let f = fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
            Box::new(std::io::BufWriter::new(f))
        };
        let summary = serve_lines(&engine, reader, &mut writer).map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        summary
    };
    engine.shutdown();
    eprintln!(
        "served {} requests in {:.3}s ({:.0} req/s, {} workers, max batch {})",
        summary.requests,
        summary.elapsed.as_secs_f64(),
        summary.requests_per_sec,
        cfg.workers,
        cfg.max_batch
    );
    Ok(())
}

fn cmd_export(flags: &HashMap<String, String>) -> Result<(), String> {
    let ds = build_dataset(flags)?;
    let out = flags
        .get("out")
        .map(String::as_str)
        .unwrap_or("lightcurves.dat");
    let mut text = String::new();
    for s in &ds.samples {
        text.push_str(&snia_repro::dataset::export::to_snpcc(s));
        text.push('\n');
    }
    fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} light curves to {out}", ds.len());
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let flags = parse_flags(&args[1.min(args.len())..])?;
    match command {
        "dataset" => cmd_dataset(&flags),
        "inspect" => cmd_inspect(&flags),
        "render" => cmd_render(&flags),
        "classify" => cmd_classify(&flags),
        "serve" => cmd_serve(&flags),
        "export" => cmd_export(&flags),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{HELP}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
