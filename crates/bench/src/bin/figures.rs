//! Renders SVG figures from the JSON results produced by the experiment
//! binaries — run those first (`scripts/run_all.sh`), then this.
//!
//! Output: `results/figures/*.svg`.

use std::fs;

use serde_json::Value;

use snia_bench::{progress, results_dir, Chart, Series};

const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
];

fn load(name: &str) -> Option<Value> {
    let path = results_dir().join(format!("{name}.json"));
    let text = fs::read_to_string(&path).ok()?;
    serde_json::from_str(&text).ok()
}

fn save(chart: &Chart, name: &str) {
    let dir = results_dir().join("figures");
    fs::create_dir_all(&dir).expect("cannot create figures dir");
    let path = dir.join(format!("{name}.svg"));
    fs::write(&path, chart.to_svg()).expect("cannot write figure");
    progress!("wrote {}", path.display());
}

fn roc_points(v: &Value) -> Vec<(f64, f64)> {
    v.as_array()
        .map(|arr| {
            arr.iter()
                .filter_map(|p| {
                    let pair = p.as_array()?;
                    Some((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn fig8(v: &Value) {
    let scatter = roc_points(&v["scatter_sample"]);
    if scatter.is_empty() {
        return;
    }
    let mut c = Chart::new(
        "Figure 8 — true vs. estimated magnitude",
        "ground-truth magnitude",
        "estimated magnitude",
    );
    c.push(Series::scatter("test pairs", scatter, COLORS[0]));
    c.push(Series::line(
        "target = estimate",
        vec![(20.0, 20.0), (30.0, 30.0)],
        "#e8c500",
    ));
    save(&c, "fig8_scatter");
}

fn roc_family(v: &Value, key_label: &str, name_key: &str, title: &str, out: &str) {
    let Some(arr) = v.as_array() else { return };
    let mut c = Chart::new(title, "false positive rate", "true positive rate");
    c.x_range(0.0, 1.0).y_range(0.0, 1.0);
    for (i, entry) in arr.iter().enumerate() {
        let roc = roc_points(&entry["roc"]);
        if roc.is_empty() {
            continue;
        }
        let id = entry[name_key]
            .as_u64()
            .map(|u| u.to_string())
            .unwrap_or_default();
        let auc = entry["auc"].as_f64().unwrap_or(f64::NAN);
        c.push(Series::line(
            format!("{key_label} {id} (AUC {auc:.3})"),
            roc,
            COLORS[i % COLORS.len()],
        ));
    }
    save(&c, out);
}

fn fig11(v: &Value) {
    let roc = roc_points(&v["roc"]);
    if roc.is_empty() {
        return;
    }
    let auc = v["joint_auc"].as_f64().unwrap_or(f64::NAN);
    let mut c = Chart::new(
        "Figure 11 — joint image→class model",
        "false positive rate",
        "true positive rate",
    );
    c.x_range(0.0, 1.0).y_range(0.0, 1.0);
    c.push(Series::line(
        format!("joint model (AUC {auc:.3})"),
        roc,
        COLORS[0],
    ));
    c.push(Series::line(
        "chance",
        vec![(0.0, 0.0), (1.0, 1.0)],
        "#bbbbbb",
    ));
    save(&c, "fig11_roc");
}

fn fig12(v: &Value) {
    let curve = |key: &str, field: &str| -> Vec<(f64, f64)> {
        v[key]
            .as_array()
            .map(|arr| {
                arr.iter()
                    .filter_map(|r| Some((r["epoch"].as_f64()?, r[field].as_f64()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut c = Chart::new(
        "Figure 12 — fine-tuning vs. from scratch",
        "epoch",
        "training loss",
    );
    let ft = curve("fine_tune", "train_loss");
    let sc = curve("from_scratch", "train_loss");
    if ft.is_empty() || sc.is_empty() {
        return;
    }
    c.push(Series::line("fine-tuned", ft, COLORS[0]));
    c.push(Series::line("from scratch", sc, COLORS[1]));
    save(&c, "fig12_loss");

    let mut a = Chart::new(
        "Figure 12 — validation accuracy",
        "epoch",
        "validation accuracy",
    );
    a.push(Series::line(
        "fine-tuned",
        curve("fine_tune", "val_acc"),
        COLORS[0],
    ));
    a.push(Series::line(
        "from scratch",
        curve("from_scratch", "val_acc"),
        COLORS[1],
    ));
    save(&a, "fig12_acc");
}

fn table1(v: &Value) {
    let Some(arr) = v.as_array() else { return };
    let series: Vec<(f64, f64)> = arr
        .iter()
        .filter_map(|r| Some((r["crop"].as_f64()?, r["test_loss_e3"].as_f64()?)))
        .collect();
    if series.is_empty() {
        return;
    }
    let mut c = Chart::new(
        "Table 1 — test loss vs. crop size",
        "input crop (px)",
        "test loss (1e-3 mag²)",
    );
    c.push(Series::line("flux CNN", series, COLORS[0]));
    save(&c, "table1_loss");
}

fn fig3(v: &Value) {
    let bins: Vec<f64> = v["z_bins"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let cat: Vec<f64> = v["catalog_z_hist"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let ds: Vec<f64> = v["dataset_z_hist"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    if bins.is_empty() || cat.len() != bins.len() || ds.len() != bins.len() {
        return;
    }
    let mut c = Chart::new(
        "Figure 3 — photo-z distributions",
        "photometric redshift",
        "fraction",
    );
    c.push(Series::line(
        "catalog",
        bins.iter().copied().zip(cat).collect(),
        COLORS[3],
    ));
    c.push(Series::line(
        "dataset hosts",
        bins.iter().copied().zip(ds).collect(),
        COLORS[4],
    ));
    save(&c, "fig3_photoz");
}

fn main() {
    let _telemetry = snia_bench::init_telemetry("figures");
    progress!("# rendering SVG figures from results/*.json");
    let mut rendered = 0;
    if let Some(v) = load("fig3") {
        fig3(&v);
        rendered += 1;
    }
    if let Some(v) = load("table1") {
        table1(&v);
        rendered += 1;
    }
    if let Some(v) = load("fig8") {
        fig8(&v);
        rendered += 1;
    }
    if let Some(v) = load("fig9") {
        roc_family(
            &v,
            "width",
            "hidden_units",
            "Figure 9 — ROC vs. classifier width",
            "fig9_roc",
        );
        rendered += 1;
    }
    if let Some(v) = load("fig10") {
        roc_family(
            &v,
            "epochs",
            "epochs",
            "Figure 10 — ROC vs. observation epochs",
            "fig10_roc",
        );
        rendered += 1;
    }
    if let Some(v) = load("fig11") {
        fig11(&v);
        rendered += 1;
    }
    if let Some(v) = load("fig12") {
        fig12(&v);
        rendered += 1;
    }
    if rendered == 0 {
        eprintln!("no results found — run scripts/run_all.sh first");
        std::process::exit(1);
    }
    progress!("rendered from {rendered} result files");
}
