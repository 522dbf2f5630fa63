//! Per-layer spans recorded from the benchmark's own files.
//!
//! The program has no span substrate yet, so a traced run calls each
//! layer's public function itself and times the call: the predict chain
//! (parse + elaborate, GraphIR, sample, tokenize, Circuitformer,
//! aggregate) and the label chain (vsynth elaborate, STA, sizing, power).
//! Both traced chains return bit-identical results to the one-call forms
//! a user makes (`SnsModel::predict_verilog`, `VirtualSynthesizer::
//! synthesize`); the workloads check that.

use std::collections::BTreeMap;
use std::time::Instant;

use sns_core::{DesignPrediction, SnsModel};
use sns_designs::Design;
use sns_graphir::GraphIr;
use sns_netlist::{parse_and_elaborate, NetlistError};
use sns_sampler::PathSampler;
use sns_vsynth::{ExpansionMemo, SynthReport, VirtualSynthesizer};

/// Busy seconds and work counts per layer. Spans never nest, so their sum
/// is the accounted share of the traced wall time.
#[derive(Debug, Default)]
pub struct Trace {
    secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Times `f` as one span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.add_secs(layer, t.elapsed().as_secs_f64());
        out
    }

    /// Adds busy seconds measured elsewhere (e.g. vsynth's own breakdown).
    pub fn add_secs(&mut self, layer: &'static str, secs: f64) {
        *self.secs.entry(layer).or_default() += secs;
    }

    /// Adds to a work counter.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Busy seconds of one layer.
    pub fn secs(&self, layer: &str) -> f64 {
        self.secs.get(layer).copied().unwrap_or(0.0)
    }

    /// A work counter.
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span: the wall time the layers account for.
    pub fn accounted_secs(&self) -> f64 {
        self.secs.values().sum()
    }

    /// The predict-chain and label-chain layer metrics, each divided by
    /// `per` (the number of passes the trace covers), so runs with
    /// different pass counts compare.
    pub fn chain_metrics(&self, per: f64, out: &mut BTreeMap<&'static str, f64>) {
        for layer in [
            "netlist.parse_elaborate_s",
            "graphir.build_s",
            "sampler.sample_s",
            "core.tokenize_s",
            "circuitformer.infer_s",
            "core.aggregate_s",
            "vsynth.elaborate_gates_s",
            "vsynth.sta_s",
            "vsynth.sizing_s",
            "vsynth.power_s",
        ] {
            out.insert(layer, self.secs(layer) / per);
        }
        out.insert("sampler.paths", self.counted("sampler.paths") / per);
        let seqs = self.counted("circuitformer.seqs");
        out.insert("circuitformer.seqs", seqs / per);
        if seqs > 0.0 {
            out.insert(
                "circuitformer.ms_per_seq",
                1e3 * self.secs("circuitformer.infer_s") / seqs,
            );
        }
        let vsynth_s: f64 = [
            "vsynth.elaborate_gates_s",
            "vsynth.sta_s",
            "vsynth.sizing_s",
            "vsynth.power_s",
        ]
        .iter()
        .map(|l| self.secs(l))
        .sum();
        if vsynth_s > 0.0 {
            out.insert(
                "vsynth.gates_per_s",
                self.counted("vsynth.gates") / vsynth_s,
            );
        }
    }
}

/// `SnsModel::predict_verilog`, one span per layer. The layers are the
/// public steps `predict_netlist` runs, in its order, so the result is
/// bit-identical (except the `runtime` field, which starts after parsing).
pub fn predict_traced(
    model: &SnsModel,
    design: &Design,
    trace: &mut Trace,
) -> Result<DesignPrediction, NetlistError> {
    let netlist = trace.span("netlist.parse_elaborate_s", || {
        parse_and_elaborate(&design.verilog, &design.top)
    })?;
    let start = Instant::now();
    let graph = trace.span("graphir.build_s", || GraphIr::from_netlist(&netlist));
    let paths = trace.span("sampler.sample_s", || {
        PathSampler::new(model.sample_config().clone()).sample(&graph)
    });
    trace.count("sampler.paths", paths.len() as f64);
    let seqs = trace.span("core.tokenize_s", || model.tokenize_paths(&graph, &paths));
    let cached = model.cached_paths();
    trace.span("circuitformer.infer_s", || {
        model.prime_path_cache(
            &seqs,
            sns_rt::pool::default_threads(),
            sns_rt::pool::default_batch(),
        )
    });
    trace.count(
        "circuitformer.seqs",
        model.cached_paths().saturating_sub(cached) as f64,
    );
    Ok(trace.span("core.aggregate_s", || {
        model.predict_primed(&graph, &paths, &seqs, None, start)
    }))
}

/// Labels a design as a user does: parse the Verilog, then
/// `VirtualSynthesizer::synthesize`.
pub fn label(synth: &VirtualSynthesizer, design: &Design) -> Result<SynthReport, NetlistError> {
    let netlist = parse_and_elaborate(&design.verilog, &design.top)?;
    Ok(synth.synthesize(&netlist))
}

/// [`label`], one span per vsynth stage (`elaborate_gates`, then the
/// fast `analyze` flow through `analyze_with_breakdown`). The analyze
/// call's time outside its three stages stays unaccounted.
pub fn label_traced(
    synth: &VirtualSynthesizer,
    design: &Design,
    trace: &mut Trace,
) -> Result<SynthReport, NetlistError> {
    let netlist = trace.span("netlist.parse_elaborate_s", || {
        parse_and_elaborate(&design.verilog, &design.top)
    })?;
    let gates = trace.span("vsynth.elaborate_gates_s", || {
        synth.elaborate_gates(&netlist)
    });
    let (report, stages) = synth.analyze_with_breakdown(&gates, true);
    trace.add_secs("vsynth.sta_s", stages.sta_s);
    trace.add_secs("vsynth.sizing_s", stages.sizing_s);
    trace.add_secs("vsynth.power_s", stages.power_s);
    trace.count("vsynth.gates", report.gate_count as f64);
    Ok(report)
}

/// The process-wide vsynth expansion memo's (hits, misses); zeros when
/// the memo is disabled.
pub fn memo_counts() -> (u64, u64) {
    ExpansionMemo::global()
        .map(|m| m.stats())
        .map(|s| (s.hits, s.misses))
        .unwrap_or((0, 0))
}

/// Whether two labels agree bit for bit (everything but wall time).
pub fn same_report(a: &SynthReport, b: &SynthReport) -> bool {
    a.area_um2.to_bits() == b.area_um2.to_bits()
        && a.timing_ps.to_bits() == b.timing_ps.to_bits()
        && a.power_mw.to_bits() == b.power_mw.to_bits()
        && a.dynamic_mw.to_bits() == b.dynamic_mw.to_bits()
        && a.leakage_mw.to_bits() == b.leakage_mw.to_bits()
        && a.gate_count == b.gate_count
        && a.transistor_count == b.transistor_count
        && a.cycles_broken == b.cycles_broken
}

/// Whether two predictions agree bit for bit (everything but wall time).
pub fn same_prediction(a: &DesignPrediction, b: &DesignPrediction) -> bool {
    a.timing_ps.to_bits() == b.timing_ps.to_bits()
        && a.area_um2.to_bits() == b.area_um2.to_bits()
        && a.power_mw.to_bits() == b.power_mw.to_bits()
        && a.path_count == b.path_count
        && a.critical_path == b.critical_path
}

/// Whether every predicted quantity is a finite number.
pub fn finite(p: &DesignPrediction) -> bool {
    p.timing_ps.is_finite() && p.area_um2.is_finite() && p.power_mw.is_finite()
}

/// Mean absolute error % of predictions against labels, averaged over
/// timing, area and power.
pub fn maep_ppa(preds: &[&DesignPrediction], labels: &[&SynthReport]) -> f64 {
    let pick = |f: fn(&DesignPrediction) -> f64, g: fn(&SynthReport) -> f64| {
        let p: Vec<f64> = preds.iter().map(|x| f(x)).collect();
        let t: Vec<f64> = labels.iter().map(|x| g(x)).collect();
        sns_core::maep(&p, &t)
    };
    (pick(|p| p.timing_ps, |r| r.timing_ps)
        + pick(|p| p.area_um2, |r| r.area_um2)
        + pick(|p| p.power_mw, |r| r.power_mw))
        / 3.0
}
