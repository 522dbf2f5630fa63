//! The benchmark's output: an environment header, one line per named
//! metric with its unit and sample count, derived rows, and last the
//! result object the contract in `BENCHMARK.json` reads.

use std::collections::BTreeMap;
use std::path::Path;

use sns_rt::json::Json;

use crate::stats::Digest;
use crate::Args;

/// End-to-end metrics, printed by every untraced run. Each workload maps
/// its own chain onto these names (README.md has the table).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("baseline_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("error_pct", "%"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not run reads 0; the ones only one workload runs are shares or
/// counts, never times.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("netlist.parse_elaborate_s", "s"),
    ("graphir.build_s", "s"),
    ("sampler.sample_s", "s"),
    ("sampler.paths", "count"),
    ("core.tokenize_s", "s"),
    ("circuitformer.infer_s", "s"),
    ("circuitformer.seqs", "count"),
    ("circuitformer.ms_per_seq", "ms"),
    ("core.aggregate_s", "s"),
    ("core.cache_hit_rate", "frac"),
    ("vsynth.elaborate_gates_s", "s"),
    ("vsynth.sta_s", "s"),
    ("vsynth.sizing_s", "s"),
    ("vsynth.power_s", "s"),
    ("vsynth.gates_per_s", "1/s"),
    ("vsynth.memo_hit_rate", "frac"),
    ("serve.stage_parse_frac", "frac"),
    ("serve.stage_sample_frac", "frac"),
    ("serve.stage_infer_frac", "frac"),
    ("serve.stage_aggregate_frac", "frac"),
    ("serve.reactor_loop_p99_frac", "frac"),
    ("serve.batch_seqs_per_round", "count"),
    ("serve.http_overhead_frac", "frac"),
    ("serve.eco_full_p50_ratio", "ratio"),
    ("session.elab_cache_hit_rate", "frac"),
    ("session.resampled_frac", "frac"),
    ("train.step_frac", "frac"),
    ("train.checkpoint_frac", "frac"),
    ("train.selected_frac", "frac"),
    ("train.examples_per_step", "count"),
    ("trace.unaccounted_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.wall_s", "s"),
];

/// One named, human-readable measurement.
#[derive(Debug, Clone)]
pub struct Line {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (predictions, labels, requests, steps...).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Everything a seed must reproduce: inputs and checked outputs.
    pub digest: Digest,
    /// Contract metric values by name (`END_TO_END` or `PER_LAYER`).
    pub values: BTreeMap<&'static str, f64>,
    /// Each workload's own metrics under their own names, with sample counts.
    pub lines: Vec<Line>,
    /// Derived rows that are printed but not gated (e.g. Fig. 7).
    pub rows: Vec<Json>,
    /// Workload-specific header fields.
    pub env: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Records a named measurement.
    pub fn line(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.lines.push(Line {
            name: name.into(),
            value,
            unit,
            samples: samples as u64,
        });
    }

    /// Counts `n` attempted operations of which `bad` failed.
    pub fn tally(&mut self, n: usize, bad: usize) {
        self.attempted += n as u64;
        self.failed += bad as u64;
    }

    /// Prints the header, the lines, the rows and the result object.
    pub fn print(&self, args: &Args) {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let mut env = environment(args);
        env.push(("digest", Json::Str(self.digest.hex())));
        env.extend(self.env.iter().cloned());
        let samples: Vec<(&str, Json)> = self
            .lines
            .iter()
            .map(|l| (l.name.as_str(), Json::UInt(l.samples)))
            .collect();
        env.push(("samples", Json::obj(samples)));
        println!("{}", Json::obj(vec![("env", Json::obj(env))]).print());
        for row in &self.rows {
            println!("{}", row.print());
        }
        for l in &self.lines {
            println!(
                "metric {} = {} {} (n={})",
                l.name, l.value, l.unit, l.samples
            );
        }
        println!(
            "metric failed_frac = {failed_frac} frac (n={})",
            self.attempted
        );

        let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<(&str, Json)> = list
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    // A layer this workload never runs.
                    None if args.trace => 0.0,
                    None => panic!("workload did not measure end-to-end metric {name}"),
                };
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let result = Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::UInt(self.attempted.max(1))),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{}", result.print());
    }
}

/// The machine and build a result was measured on.
fn environment(args: &Args) -> Vec<(&'static str, Json)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::UInt(nproc as u64)),
        ("commit", Json::Str(commit(&root))),
        ("source_digest", Json::Str(source_digest(&root))),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "sns_threads",
            Json::UInt(sns_rt::pool::default_threads() as u64),
        ),
        (
            "sns_batch",
            Json::UInt(sns_rt::pool::default_batch() as u64),
        ),
        (
            "sns_synth_threads",
            Json::UInt(sns_rt::pool::synth_threads() as u64),
        ),
        (
            "serve_workers",
            Json::UInt(sns_serve::ServeConfig::default().workers as u64),
        ),
    ]
}

/// The checked-out commit, or "unknown" outside a git repository.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// A digest of the measured program's sources (`crates/` and the root
/// manifest), which names the code version where there is no git history.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = Digest::default();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        digest.str(&rel.to_string_lossy());
        digest.bytes(&std::fs::read(file).unwrap_or_default());
    }
    digest.hex()
}
