//! `selftrain`: a seeded `TrainDaemon` at its shipped configuration
//! (`DaemonConfig::fast()`, shipped seed included) running a fixed number of
//! steps — 12 per `--seconds`, a multiple of 4 so every correction refit
//! completes — and checkpointing into a scratch zoo every 4 steps. It is
//! the only workload that runs training kernels (forward/backward, Adam),
//! the active-learning filter and zoo writes. Its generated designs are
//! small (≤12 items, ≤12-bit), so vsynth's parallel elaboration never
//! engages: the "no change" control for vsynth changes aimed at large
//! designs.
//!
//! Before, every 16 steps during and after the loop, a held-out set of
//! generated designs is labelled by vsynth alone, each design timed (the
//! baseline rate and the label latencies: the label factory without
//! training); after the loop the final model predicts it (every
//! prediction must be finite). The gated latencies are per labelled
//! design, not per step: a run holds 12 steps per second, a quarter of
//! them with the correction refit and the checkpoint, so a step p99 is
//! the second-slowest refit step and a step p50 moves with any outside
//! load on the 2-thread fine-tune (over ten runs on a 2-core x86-64 VM
//! their spread reached 64 % and 29 % of the median). Step p50/p99 are
//! still printed as `metric` lines.
//!
//! The daemon and the held-out set keep fixed seeds and `--seed` only
//! orders the held-out set: the random-RTL stream a daemon seed mints
//! changes the run's work far more than any bound allows (designs/s moved
//! by 11 % IQR, the baseline by 17 % and the prequential error by 59×
//! over five seeds on a 2-core x86-64 VM).

use std::path::{Path, PathBuf};
use std::time::Instant;

use sns_conformance::{generate, GenConfig};
use sns_core::{model_weight_hash, DesignPrediction};
use sns_designs::Design;
use sns_rt::json::Json;
use sns_rt::rng::{SliceRandom, StdRng};
use sns_train::{DaemonConfig, StepStats, TrainDaemon};
use sns_vsynth::{SynthOptions, SynthReport, VirtualSynthesizer};

use crate::report::Outcome;
use crate::stats::{median, median_setup, peak_rss_mb, quantile, ratio};
use crate::trace::{self, memo_counts, Trace};
use crate::Args;

/// Steps between zoo checkpoints.
const CHECKPOINT_EVERY: usize = 4;
/// Set-ups behind the `setup_s` median (a bootstrap takes ~0.4 s).
const SETUPS: usize = 5;

/// The shipped daemon configuration with a scratch zoo. Checkpoints are
/// taken by the loop below rather than inside `step`, so a traced run
/// can time them; the work is the same.
fn config(zoo: PathBuf) -> DaemonConfig {
    DaemonConfig {
        zoo_dir: Some(zoo),
        checkpoint_every: 0,
        ..DaemonConfig::fast()
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_scratch")
            .join(format!("selftrain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch zoo directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's scratch is left.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What one run of the loop produced.
struct Loop {
    stats: Vec<StepStats>,
    iter_s: Vec<f64>,
    wall_s: f64,
    failed: usize,
    attempted: usize,
}

impl Loop {
    /// Labelled designs/s: the median over checkpoint cycles (4 steps and
    /// their checkpoint), so a burst of outside load costs one cycle.
    fn designs_per_s(&self) -> f64 {
        let cycles: Vec<f64> = self
            .stats
            .chunks(CHECKPOINT_EVERY)
            .zip(self.iter_s.chunks(CHECKPOINT_EVERY))
            .map(|(stats, secs)| {
                stats.iter().map(|s| s.designs).sum::<usize>() as f64 / secs.iter().sum::<f64>()
            })
            .collect();
        median(&cycles)
    }
}

/// Runs `steps` steps, checkpointing every `CHECKPOINT_EVERY`, and calls
/// `between(steps_done)` after each checkpoint, outside the timings.
fn run_loop(
    daemon: &mut TrainDaemon,
    steps: usize,
    mut trace: Option<&mut Trace>,
    mut between: impl FnMut(usize),
) -> Loop {
    let mut out = Loop {
        stats: Vec::new(),
        iter_s: Vec::new(),
        wall_s: 0.0,
        failed: 0,
        attempted: 0,
    };
    for i in 0..steps {
        let t = Instant::now();
        let step = match trace.as_deref_mut() {
            Some(tr) => tr.span("train.step_s", || daemon.step()),
            None => daemon.step(),
        };
        out.attempted += 1;
        match step {
            Ok(s)
                if s.mean_rel_err.is_finite()
                    && s.per_design_rel_err.iter().all(|e| e.is_finite()) =>
            {
                out.stats.push(s)
            }
            _ => out.failed += 1,
        }
        let cycle_end = (i + 1) % CHECKPOINT_EVERY == 0 || i + 1 == steps;
        if cycle_end {
            let saved = match trace.as_deref_mut() {
                Some(tr) => tr.span("train.checkpoint_s", || daemon.checkpoint()),
                None => daemon.checkpoint(),
            };
            out.attempted += 1;
            out.failed += usize::from(saved.is_err());
        }
        let secs = t.elapsed().as_secs_f64();
        out.iter_s.push(secs);
        out.wall_s += secs;
        if cycle_end {
            between(i + 1);
        }
    }
    out
}

/// Held-out designs from the daemon's generator under a seed of their
/// own, in the order `seed` draws.
fn eval_designs(seed: u64, n: usize) -> Vec<Design> {
    let mut designs: Vec<Design> = (0..n as u64)
        .map(|i| {
            let s = 0xE7A1_5EED_u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            generate(s, &GenConfig::default()).to_design(format!("eval-{i:04}"))
        })
        .collect();
    designs.shuffle(&mut StdRng::seed_from_u64(seed));
    designs
}

/// Held-out designs behind the baseline rate and the final model check.
const HELD_OUT: usize = 64;
/// Labelling rounds over the held-out set behind the baseline median and
/// the label latencies: a group before the loop, one after every
/// `LABEL_EVERY` steps and one after it, so they sample the whole run
/// like the loop's own timings. (On a 2-core x86-64 VM, a round after
/// every checkpoint slowed the steps by ~30 %; a group every 16 steps
/// did not measurably.)
const LABEL_EVERY: usize = 16;
const LABEL_ROUNDS_PER_GROUP: usize = 8;

/// What the held-out labelling rounds measured.
#[derive(Default)]
struct Rounds {
    /// Designs/s per round.
    rates: Vec<f64>,
    /// Milliseconds per labelled design, every round.
    design_ms: Vec<f64>,
}

/// The baseline: vsynth alone labels the held-out set, each design timed.
fn label_rounds(designs: &[Design], rounds: usize, out: &mut Rounds) {
    let synth = VirtualSynthesizer::new(SynthOptions::default());
    for _ in 0..rounds {
        let mut round_s = 0.0;
        for d in designs {
            let t = Instant::now();
            let _ = trace::label(&synth, d);
            let secs = t.elapsed().as_secs_f64();
            round_s += secs;
            out.design_ms.push(1e3 * secs);
        }
        out.rates.push(designs.len() as f64 / round_s);
    }
}

/// The held-out pass: vsynth labels and the final model's predictions.
struct Eval {
    labels: Vec<Option<SynthReport>>,
    preds: Vec<Option<DesignPrediction>>,
    wall_s: f64,
    cache_hit_rate: f64,
}

fn evaluate(daemon: &TrainDaemon, designs: &[Design], mut trace: Option<&mut Trace>) -> Eval {
    let synth = VirtualSynthesizer::new(SynthOptions::default());
    let model = daemon.model();
    let (hits, misses) = (model.cache().hits(), model.cache().misses());
    let start = Instant::now();
    let (mut labels, mut preds) = (Vec::new(), Vec::new());
    for d in designs {
        let label = match trace.as_deref_mut() {
            Some(tr) => trace::label_traced(&synth, d, tr),
            None => trace::label(&synth, d),
        };
        labels.push(label.ok());
        let pred = match trace.as_deref_mut() {
            Some(tr) => trace::predict_traced(model, d, tr),
            None => model.predict_verilog(&d.verilog, &d.top),
        };
        preds.push(pred.ok().filter(trace::finite));
    }
    let (h, m) = (model.cache().hits() - hits, model.cache().misses() - misses);
    Eval {
        labels,
        preds,
        wall_s: start.elapsed().as_secs_f64(),
        cache_hit_rate: ratio(h as f64, (h + m) as f64),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scratch = Scratch::new();
    let steps = (12 * args.seconds as usize).next_multiple_of(CHECKPOINT_EVERY);
    let (setup_s, mut daemon) = median_setup(SETUPS, |_| {
        TrainDaemon::new(config(scratch.0.join("zoo"))).expect("bootstrap the daemon")
    });
    let designs = eval_designs(args.seed, HELD_OUT);
    let mut rounds = Rounds::default();
    label_rounds(&designs, LABEL_ROUNDS_PER_GROUP, &mut rounds);
    let run = run_loop(&mut daemon, steps, None, |done| {
        if done < steps && done % LABEL_EVERY == 0 {
            label_rounds(&designs, LABEL_ROUNDS_PER_GROUP, &mut rounds);
        }
    });
    label_rounds(&designs, LABEL_ROUNDS_PER_GROUP, &mut rounds);
    let eval = evaluate(&daemon, &designs, None);

    // Checks: every step and checkpoint succeeded with finite errors (in
    // `run_loop`), the zoo's last entry holds exactly the in-memory
    // weights, and every held-out label and prediction exists.
    let hash = model_weight_hash(daemon.model());
    let zoo_ok = daemon
        .checkpoints()
        .last()
        .is_some_and(|e| e.weight_hash == hash);
    out.tally(run.attempted + 1, run.failed + usize::from(!zoo_ok));
    let eval_bad = eval.labels.iter().filter(|l| l.is_none()).count()
        + eval.preds.iter().filter(|p| p.is_none()).count();
    out.tally(2 * designs.len(), eval_bad);

    out.digest.str(&hash);
    for d in &designs {
        out.digest.str(&d.name);
    }
    for s in &run.stats {
        out.digest.u64(s.selected as u64);
        out.digest.f64(s.mean_rel_err);
    }
    let last_quarter = &run.stats[run.stats.len() - run.stats.len() / 4..];
    let rel_err =
        last_quarter.iter().map(|s| s.mean_rel_err).sum::<f64>() / last_quarter.len() as f64;
    let designs_done: usize = run.stats.iter().map(|s| s.designs).sum();
    let (preds, truth): (Vec<_>, Vec<_>) = eval
        .preds
        .iter()
        .zip(&eval.labels)
        .filter_map(|(p, l)| Some((p.as_ref()?, l.as_ref()?)))
        .unzip();
    let heldout = if preds.is_empty() {
        f64::NAN
    } else {
        trace::maep_ppa(&preds, &truth)
    };

    let iter_ms: Vec<f64> = run.iter_s.iter().map(|s| 1e3 * s).collect();
    let train_rate = run.designs_per_s();
    let label_rate = median(&rounds.rates);
    let label_ms = &rounds.design_ms;
    let (label_p50, label_p99) = (quantile(label_ms, 0.5), quantile(label_ms, 0.99));
    let rss = peak_rss_mb();
    out.line("setup_s", setup_s, "s", SETUPS);
    out.line("peak_rss_mb", rss, "MB", 1);
    out.line("train_designs_per_s", train_rate, "1/s", designs_done);
    out.line("label_designs_per_s", label_rate, "1/s", rounds.rates.len());
    out.line("label_p50_ms", label_p50, "ms", label_ms.len());
    out.line("label_p99_ms", label_p99, "ms", label_ms.len());
    out.line("step_p50_ms", quantile(&iter_ms, 0.5), "ms", iter_ms.len());
    out.line("step_p99_ms", quantile(&iter_ms, 0.99), "ms", iter_ms.len());
    out.line(
        "train_rel_err",
        rel_err,
        "frac",
        last_quarter.iter().map(|s| s.designs).sum(),
    );
    out.line("heldout_maep", heldout, "%", 3 * preds.len());
    out.env.push(("steps", Json::UInt(steps as u64)));
    out.env
        .push(("checkpoints", Json::UInt(daemon.checkpoints().len() as u64)));
    out.env.push(("final_weight_hash", Json::Str(hash.clone())));
    out.values.extend([
        ("setup_s", setup_s),
        ("peak_rss_mb", rss),
        ("throughput_per_s", train_rate),
        ("baseline_per_s", label_rate),
        ("latency_p50_ms", label_p50),
        ("latency_p99_ms", label_p99),
        ("error_pct", 100.0 * rel_err),
    ]);

    if args.trace {
        // The same loop again on a fresh daemon from the same seed, traced.
        let mut tr = Trace::default();
        let mut twin =
            TrainDaemon::new(config(scratch.0.join("zoo-traced"))).expect("bootstrap the daemon");
        let memo = memo_counts();
        let traced = run_loop(&mut twin, steps, Some(&mut tr), |_| {});
        let traced_eval = evaluate(&twin, &designs, Some(&mut tr));
        let memo_after = memo_counts();
        // Determinism: the traced twin ends on the same weights.
        let same = model_weight_hash(twin.model()) == hash;
        out.tally(traced.attempted + 1, traced.failed + usize::from(!same));

        let wall = traced.wall_s + traced_eval.wall_s;
        out.values.clear();
        tr.chain_metrics(1.0, &mut out.values);
        let (memo_hits, memo_misses) = (memo_after.0 - memo.0, memo_after.1 - memo.1);
        let designs_traced: usize = traced.stats.iter().map(|s| s.designs).sum();
        let selected: usize = traced.stats.iter().map(|s| s.selected).sum();
        let examples: usize = traced
            .stats
            .iter()
            .map(|s| s.direct_examples + s.markov_examples)
            .sum();
        out.values.extend([
            ("core.cache_hit_rate", traced_eval.cache_hit_rate),
            (
                "vsynth.memo_hit_rate",
                ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
            ),
            ("train.step_frac", tr.secs("train.step_s") / traced.wall_s),
            (
                "train.checkpoint_frac",
                tr.secs("train.checkpoint_s") / traced.wall_s,
            ),
            (
                "train.selected_frac",
                ratio(selected as f64, designs_traced as f64),
            ),
            (
                "train.examples_per_step",
                ratio(examples as f64, traced.stats.len() as f64),
            ),
            ("trace.unaccounted_frac", 1.0 - tr.accounted_secs() / wall),
            (
                "trace.overhead_frac",
                wall / (run.wall_s + eval.wall_s) - 1.0,
            ),
            ("trace.wall_s", wall),
        ]);
        out.line(
            "train.step_s",
            tr.secs("train.step_s"),
            "s",
            traced.stats.len(),
        );
        out.line(
            "train.checkpoint_s",
            tr.secs("train.checkpoint_s"),
            "s",
            steps / CHECKPOINT_EVERY,
        );
    }
    out
}
