//! **Figure 8 + Tables 10/11** — the BOOM design-space exploration:
//! sweep the Table 10 grid with SNS, score CoreMark with the performance
//! model, verify a random sample against the virtual synthesizer, and
//! pick the HighPerf / PowerEff / AreaEff Pareto designs.
//!
//! The full 2592-point grid runs with `SNS_PAPER=1`; the default strides
//! the grid down to ~324 points for a single-core box. Set
//! `SNS_BOOM_STRIDE=n` to override.

use sns_rt::rng::{SliceRandom, StdRng};

use sns_bench::{headline, paper_scale, standard_model, write_csv};
use sns_casestudies::boom::{coremark_score, pareto_front, BoomDsePoint};
use sns_core::metrics::maep;
use sns_designs::boomlike::{boom_like, BoomParams};
use sns_netlist::parse_and_elaborate;
use sns_vsynth::{SynthOptions, VirtualSynthesizer};

fn main() {
    headline("Figure 8 / Tables 10-11: BOOM design space exploration");
    let (model, _) = standard_model();

    let grid = BoomParams::grid();
    println!("\nTable 10 grid: {} configurations", grid.len());
    let stride: usize = std::env::var("SNS_BOOM_STRIDE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if paper_scale() { 1 } else { 8 });
    let subset: Vec<&BoomParams> = grid.iter().step_by(stride).collect();
    println!("exploring {} configurations (stride {stride})...", subset.len());

    let t0 = std::time::Instant::now();
    let mut points = Vec::with_capacity(subset.len());
    for (i, p) in subset.iter().enumerate() {
        let d = boom_like(p);
        let nl = parse_and_elaborate(&d.verilog, &d.top).expect("generator output");
        let pred = model.predict_netlist(&nl, None);
        let freq_ghz = 1000.0 / pred.timing_ps;
        points.push(BoomDsePoint {
            performance: coremark_score(p) * freq_ghz,
            power_mw: pred.power_mw,
            area_um2: pred.area_um2,
            timing_ps: pred.timing_ps,
            params: (*p).clone(),
        });
        if (i + 1) % 50 == 0 {
            println!("  {}/{} ({:.1?} elapsed)", i + 1, subset.len(), t0.elapsed());
        }
    }
    println!(
        "DSE of {} designs took {:.1?} (paper: 2592 designs in 2.1 h; DC would need ~45 days)",
        subset.len(),
        t0.elapsed()
    );
    let max_perf = points.iter().map(|p| p.performance).fold(0.0, f64::max);
    for p in &mut points {
        p.performance /= max_perf;
    }

    // Pareto picks (Table 11 analogue).
    let perf_power = pareto_front(&points, |p| p.performance, |p| p.power_mw);
    let perf_area = pareto_front(&points, |p| p.performance, |p| p.area_um2);
    let high_perf = &points[*perf_power.last().expect("nonempty front")];
    let power_eff = perf_power
        .iter()
        .map(|&i| &points[i])
        .max_by(|a, b| {
            (a.performance / a.power_mw)
                .partial_cmp(&(b.performance / b.power_mw))
                .expect("finite")
        })
        .expect("nonempty");
    let area_eff = perf_area
        .iter()
        .map(|&i| &points[i])
        .max_by(|a, b| {
            (a.performance / a.area_um2)
                .partial_cmp(&(b.performance / b.area_um2))
                .expect("finite")
        })
        .expect("nonempty");

    println!("\nTable 11 (selected configurations):");
    println!("{:<20} {:>10} {:>10} {:>10}", "parameter", "HighPerf", "PowerEff", "AreaEff");
    type Row = (&'static str, Box<dyn Fn(&BoomParams) -> String>);
    let rows: Vec<Row> = vec![
        ("Branch Predictor", Box::new(|p: &BoomParams| p.predictor.tag().to_string())),
        ("Core Width", Box::new(|p| p.core_width.to_string())),
        ("Memory Ports", Box::new(|p| p.mem_ports.to_string())),
        ("Fetch Width", Box::new(|p| p.fetch_width.to_string())),
        ("ROB Size", Box::new(|p| p.rob_size.to_string())),
        ("Integer Registers", Box::new(|p| p.int_regs.to_string())),
        ("Issue Slots", Box::new(|p| p.issue_slots.to_string())),
        ("L1D Ways", Box::new(|p| p.dcache_ways.to_string())),
    ];
    for (name, f) in &rows {
        println!(
            "{:<20} {:>10} {:>10} {:>10}",
            name,
            f(&high_perf.params),
            f(&power_eff.params),
            f(&area_eff.params)
        );
    }
    println!(
        "{:<20} {:>10.3} {:>10.3} {:>10.3}",
        "norm. performance", high_perf.performance, power_eff.performance, area_eff.performance
    );

    // Paper's §5.6 observations as checks.
    println!("\nobservations:");
    let near_best: Vec<&BoomDsePoint> =
        points.iter().filter(|p| p.performance > 0.97 * high_perf.performance).collect();
    let single_port = near_best.iter().filter(|p| p.params.mem_ports == 1).count();
    println!(
        "  near-Pareto designs with a single memory port: {}/{} (paper: all — CoreMark is not memory bound)",
        single_port,
        near_best.len()
    );
    println!(
        "  PowerEff is within {:.0}% of HighPerf's performance with {}x fewer issue slots",
        100.0 * (1.0 - power_eff.performance / high_perf.performance),
        high_perf.params.issue_slots / power_eff.params.issue_slots.max(1)
    );

    // Verification against the virtual synthesizer (paper: 20 random
    // designs, MAEP 12.58% area / 29.61% power / 19.78% timing).
    let n_verify = if paper_scale() { 20 } else { 6 };
    println!("\nverifying {n_verify} random DSE points against the virtual synthesizer...");
    let mut rng = StdRng::seed_from_u64(99);
    let mut sample: Vec<&BoomDsePoint> = points.iter().collect();
    sample.shuffle(&mut rng);
    let synth = VirtualSynthesizer::new(SynthOptions::default());
    let (mut pt, mut pa, mut pp, mut tt, mut ta, mut tp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for p in sample.iter().take(n_verify) {
        let d = boom_like(&p.params);
        let nl = parse_and_elaborate(&d.verilog, &d.top).expect("generator output");
        let truth = synth.synthesize(&nl);
        pt.push(p.timing_ps);
        tt.push(truth.timing_ps);
        pa.push(p.area_um2);
        ta.push(truth.area_um2);
        pp.push(p.power_mw);
        tp.push(truth.power_mw);
    }
    println!(
        "  MAEP: area {:.2}%, power {:.2}%, timing {:.2}%  (paper: 12.58%, 29.61%, 19.78%)",
        maep(&pa, &ta),
        maep(&pp, &tp),
        maep(&pt, &tt)
    );

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{},{},{},{},{}",
                p.params.name(),
                p.performance,
                p.power_mw,
                p.area_um2,
                p.timing_ps
            )
        })
        .collect();
    write_csv("fig8_boom_dse.csv", "design,norm_perf,power_mw,area_um2,timing_ps", &rows);
}
