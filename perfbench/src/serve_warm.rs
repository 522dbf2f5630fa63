//! `serve_warm`: `sns-serve` on loopback in this process, at its default
//! configuration, driven as a closed loop over (at most) 2 client
//! connections. Set-up fits the model, boots the server, sends each
//! design of the pool (the 41-design catalog) once and opens an ECO
//! session on every pool design that has submodules. The timed stream is
//! a seeded mix: 90 % full `/predict` requests repeating pool designs,
//! 10 % ECO `{base, patch}` submodule edits against those sessions, sent
//! in one-second segments; after each, the in-process replay of the same
//! stream (the no-HTTP baseline) runs its next chunk.
//!
//! The pool is the whole catalog rather than a seeded subset: with a
//! seeded 30-design pool, requests/s moved by 23 % IQR and p99 by 87 %
//! over five seeds on a 2-core x86-64 VM. The seed draws the request
//! stream.
//!
//! The path cache serves nearly every lookup, so Circuitformer does
//! almost nothing here: the front end, the reactor/HTTP layer and the
//! session layer dominate — the reverse of `dse_sweep`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_core::{DesignPrediction, SessionStore, SnsModel};
use sns_designs::{catalog, Design};
use sns_rt::json::{parse as parse_json, Json};
use sns_rt::rng::StdRng;
use sns_serve::{ServeConfig, Server};
use sns_vsynth::{SynthOptions, VirtualSynthesizer};

use crate::report::Outcome;
use crate::stats::{median, median_setup, peak_rss_mb, quantile, ratio};
use crate::trace::{self, memo_counts, Trace};
use crate::{model, Args};

/// Share of ECO requests in the timed stream, in percent.
const ECO_PERCENT: u64 = 10;
/// Edit variants per patched submodule.
const EDIT_VARIANTS: u64 = 3;
/// Length of one segment of the served stream.
const SEGMENT: Duration = Duration::from_secs(1);
/// Requests the in-process replay runs after each segment.
const REPLAY_CHUNK: usize = 300;

/// One ECO edit: a submodule of a session design, rewritten.
struct Edit {
    /// Index of the base design in the pool.
    base: usize,
    /// The rewritten module source (the patch).
    patch: String,
    /// The base source with the module replaced: what the patched
    /// session must predict like, from scratch.
    merged: String,
}

/// A request of the stream.
#[derive(Clone, Copy)]
enum Req {
    Full(usize),
    Eco(usize),
}

/// The seeded inputs: pool, edits and the request stream.
struct Inputs {
    pool: Vec<Design>,
    edits: Vec<Edit>,
    stream: Vec<Req>,
}

fn draw_inputs(seed: u64, seconds: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_4FE);
    let pool = catalog();

    let mut edits = Vec::new();
    for (base, d) in pool.iter().enumerate() {
        for module in submodules(d) {
            for k in 1..=EDIT_VARIANTS {
                if let Some(patch) = edit_module(module, k) {
                    let merged = d.verilog.replacen(module, &patch, 1);
                    edits.push(Edit {
                        base,
                        patch,
                        merged,
                    });
                }
            }
        }
    }

    // More requests than two clients can send in `seconds`; the stream is
    // cut where the time ends.
    let len = 5000 * seconds as usize + 5000;
    let stream = (0..len)
        .map(|_| {
            if rng.gen_range(0..100u64) < ECO_PERCENT {
                Req::Eco(rng.gen_range(0..edits.len()))
            } else {
                Req::Full(rng.gen_range(0..pool.len()))
            }
        })
        .collect();
    Inputs {
        pool,
        edits,
        stream,
    }
}

/// The source text of every module but the top, `module` to `endmodule`.
fn submodules(d: &Design) -> impl Iterator<Item = &str> {
    let src = d.verilog.as_str();
    let top = format!("module {} ", d.top);
    let top_params = format!("module {}(", d.top);
    src.match_indices("module ")
        .filter(move |(i, _)| *i == 0 || src.as_bytes()[i - 1] == b'\n')
        .filter_map(move |(i, _)| {
            let end = i + src[i..].find("endmodule")? + "endmodule".len();
            let text = &src[i..end];
            (!text.starts_with(&top) && !text.starts_with(&top_params)).then_some(text)
        })
}

/// Edit `k` of a module: its first continuous assignment gets `^ k`,
/// which changes the logic and keeps the module valid.
fn edit_module(module: &str, k: u64) -> Option<String> {
    let at = module.find("assign ")?;
    let eq = at + module[at..].find('=')?;
    let semi = eq + module[eq..].find(';')?;
    let rhs = module[eq + 1..semi].trim();
    Some(format!(
        "{} ({rhs}) ^ {k}{}",
        &module[..=eq],
        &module[semi..]
    ))
}

fn body(fields: Vec<(&str, Json)>) -> Vec<u8> {
    let body = Json::obj(fields).print();
    format!(
        "POST /predict HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn full_body(d: &Design) -> Vec<u8> {
    body(vec![
        ("verilog", Json::Str(d.verilog.clone())),
        ("top", Json::Str(d.top.clone())),
    ])
}

/// One HTTP exchange on a fresh connection (the server answers
/// `Connection: close`): returns the status and the body.
fn exchange(addr: SocketAddr, request: &[u8]) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request)
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header block")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head}"))?;
    Ok((status, body.to_string()))
}

fn get_metrics(addr: SocketAddr) -> Json {
    let (_, body) = exchange(
        addr,
        b"GET /metrics HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n",
    )
    .expect("GET /metrics");
    parse_json(&body).expect("/metrics is JSON")
}

/// A booted, warmed server. Dropping it drains and joins every server
/// thread.
struct Booted {
    model: Arc<SnsModel>,
    server: Option<Server>,
    /// ECO session token per pool design with submodules.
    tokens: BTreeMap<usize, String>,
}

impl Booted {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server is running").addr()
    }
}

impl Drop for Booted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

/// Set-up: fit, boot at the default configuration, warm the cache with
/// every pool design and open the ECO sessions.
fn boot(inputs: &Inputs) -> Booted {
    let model = Arc::new(model::fit());
    let config = ServeConfig::default();
    let server = Server::start_shared(Arc::clone(&model), config).expect("start sns-serve");
    let addr = server.addr();
    let mut tokens = BTreeMap::new();
    for (i, d) in inputs.pool.iter().enumerate() {
        // Failures here surface as failed requests in the timed stream.
        let _ = exchange(addr, &full_body(d));
        if submodules(d).next().is_some() {
            let request = body(vec![
                ("verilog", Json::Str(d.verilog.clone())),
                ("top", Json::Str(d.top.clone())),
                ("session", Json::Bool(true)),
            ]);
            let token = exchange(addr, &request)
                .ok()
                .and_then(|(_, b)| parse_json(&b).ok())
                .and_then(|j| {
                    j.get("base")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok()
                });
            tokens.insert(i, token.unwrap_or_default());
        }
    }
    Booted {
        model,
        server: Some(server),
        tokens,
    }
}

/// A response of the timed stream.
struct Sent {
    index: usize,
    latency_s: f64,
    reply: Result<(u16, String), String>,
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let inputs = draw_inputs(args.seed, args.seconds);
    let (setup_s, booted) = median_setup(3, |_| boot(&inputs));
    let model = Arc::clone(&booted.model);
    let addr = booted.addr();
    let requests: Vec<Vec<u8>> = inputs
        .pool
        .iter()
        .map(full_body)
        .chain(inputs.edits.iter().map(|e| {
            let token = booted.tokens.get(&e.base).cloned().unwrap_or_default();
            body(vec![
                ("base", Json::Str(token)),
                ("patch", Json::Str(e.patch.clone())),
            ])
        }))
        .collect();
    let request_of = |r: Req| match r {
        Req::Full(i) => i,
        Req::Eco(e) => inputs.pool.len() + e,
    };

    // ---- Timed: the closed loop over the stream in one-second segments,
    // each followed by a chunk of the in-process replay (the no-HTTP
    // baseline) while the server idles, so both see the same outside load ----
    let clients = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    let mut baseline = Replayer::new(&model, &inputs, None);
    let before = get_metrics(addr);
    let next = AtomicUsize::new(0);
    let mut sent: Vec<Sent> = Vec::new();
    let mut segment_rates = Vec::new();
    for _ in 0..args.seconds {
        let t0 = Instant::now();
        let segment: Vec<Sent> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while t0.elapsed() < SEGMENT {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&req) = inputs.stream.get(index) else {
                                break;
                            };
                            let t = Instant::now();
                            let reply = exchange(addr, &requests[request_of(req)]);
                            mine.push(Sent {
                                index,
                                latency_s: t.elapsed().as_secs_f64(),
                                reply,
                            });
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        });
        segment_rates.push(segment.len() as f64 / t0.elapsed().as_secs_f64());
        sent.extend(segment);
        baseline.run(&inputs, REPLAY_CHUNK, None);
    }
    let after = get_metrics(addr);
    drop(booted); // drains and joins the server before the in-process phases
    sent.sort_by_key(|s| s.index);

    // ---- Checks: every response is bit-identical to the in-process
    // result on the same model ----
    let fresh = SessionStore::default();
    let expected_full: Vec<Option<DesignPrediction>> = inputs
        .pool
        .iter()
        .map(|d| model.predict_verilog(&d.verilog, &d.top).ok())
        .collect();
    let expected_eco: Vec<Option<(String, DesignPrediction)>> = inputs
        .edits
        .iter()
        .map(|e| {
            model
                .predict_session(&fresh, &e.merged, &inputs.pool[e.base].top)
                .ok()
                .map(|o| (o.token, o.prediction))
        })
        .collect();
    let (mut full_ms, mut eco_ms, mut all_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut resampled, mut terminals) = (0u64, 0u64);
    let mut bad = 0;
    for s in &sent {
        let req = inputs.stream[s.index];
        let ms = 1e3 * s.latency_s;
        all_ms.push(ms);
        let ok = match (&s.reply, req) {
            (Ok((200, text)), Req::Full(i)) => {
                full_ms.push(ms);
                let reply = parse_json(text).ok();
                matches!((&reply, &expected_full[i]), (Some(j), Some(p)) if reply_matches(j, p))
            }
            (Ok((200, text)), Req::Eco(e)) => {
                eco_ms.push(ms);
                let reply = parse_json(text).ok();
                if let Some(j) = &reply {
                    let count = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
                    resampled += count("resampled_terminals");
                    terminals += count("resampled_terminals") + count("reused_terminals");
                }
                matches!((&reply, &expected_eco[e]), (Some(j), Some((token, p)))
                    if reply_matches(j, p) && j.get("base").and_then(Json::as_str).ok() == Some(token.as_str()))
            }
            _ => false,
        };
        bad += usize::from(!ok);
    }
    out.tally(sent.len(), bad);
    for r in inputs.stream.iter().take(256) {
        out.digest.u64(request_of(*r) as u64);
    }
    let eco_preds = expected_eco.iter().map(|e| e.as_ref().map(|(_, p)| p));
    for p in expected_full
        .iter()
        .map(Option::as_ref)
        .chain(eco_preds)
        .flatten()
    {
        for v in [p.timing_ps, p.area_um2, p.power_mw] {
            out.digest.f64(v);
        }
    }

    // ---- Accuracy of the served answers against vsynth labels ----
    let synth = VirtualSynthesizer::new(SynthOptions::default());
    let mut tr = Trace::default();
    let memo_before = memo_counts();
    let t = Instant::now();
    let labels: Vec<_> = inputs
        .pool
        .iter()
        .map(|d| {
            if args.trace {
                trace::label_traced(&synth, d, &mut tr)
            } else {
                trace::label(&synth, d)
            }
        })
        .collect();
    let label_wall = t.elapsed().as_secs_f64();
    let memo_after = memo_counts();
    let (mut preds, mut truth) = (Vec::new(), Vec::new());
    for (p, l) in expected_full.iter().zip(&labels) {
        if let (Some(p), Ok(l)) = (p, l) {
            if trace::finite(p) {
                preds.push(p);
                truth.push(l);
            }
        }
    }
    out.tally(labels.len(), inputs.pool.len() - preds.len());
    let err = if preds.is_empty() {
        f64::NAN
    } else {
        trace::maep_ppa(&preds, &truth)
    };

    // ---- Checks of the in-process replay ----
    let replay_len = baseline.answers.len();
    out.tally(replay_len, baseline.bad(&expected_full, &expected_eco));

    // Requests/s is the median over the one-second segments, so a burst of
    // outside load costs one segment, not the whole figure.
    let req_per_s = median(&segment_rates);
    let (p50, p99) = (quantile(&all_ms, 0.5), quantile(&all_ms, 0.99));
    let rss = peak_rss_mb();
    out.line("setup_s", setup_s, "s", 3);
    out.line("peak_rss_mb", rss, "MB", 1);
    out.line("serve_req_per_s", req_per_s, "1/s", sent.len());
    out.line("serve_p50_ms", p50, "ms", all_ms.len());
    out.line("serve_p99_ms", p99, "ms", all_ms.len());
    out.line("inprocess_req_per_s", baseline.rate(), "1/s", replay_len);
    out.line("served_maep", err, "%", 3 * preds.len());
    out.env.push(("pool", Json::UInt(inputs.pool.len() as u64)));
    out.env
        .push(("eco_edits", Json::UInt(inputs.edits.len() as u64)));
    out.env.push(("clients", Json::UInt(clients as u64)));
    out.values.extend([
        ("setup_s", setup_s),
        ("peak_rss_mb", rss),
        ("throughput_per_s", req_per_s),
        ("baseline_per_s", baseline.rate()),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("error_pct", err),
    ]);

    if args.trace {
        let mut traced = Replayer::new(&model, &inputs, Some(&mut tr));
        traced.run(&inputs, replay_len, Some(&mut tr));
        out.tally(replay_len, traced.bad(&expected_full, &expected_eco));
        let wall = traced.wall_s + label_wall;
        out.values.clear();
        tr.chain_metrics(1.0, &mut out.values);
        let (memo_hits, memo_misses) = (memo_after.0 - memo_before.0, memo_after.1 - memo_before.1);
        out.values
            .insert("core.cache_hit_rate", traced.cache_hit_rate());
        out.values.insert(
            "vsynth.memo_hit_rate",
            ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
        );
        out.values
            .insert("trace.unaccounted_frac", 1.0 - tr.accounted_secs() / wall);
        out.values
            .insert("trace.overhead_frac", traced.wall_s / baseline.wall_s - 1.0);
        out.values.insert("trace.wall_s", wall);
        server_layers(
            &mut out,
            &before,
            &after,
            p50,
            &full_ms,
            &eco_ms,
            median(&baseline.latencies_ms),
        );
        out.values.insert(
            "session.resampled_frac",
            ratio(resampled as f64, terminals as f64),
        );
    }
    out
}

/// Whether a `/predict` reply carries exactly the in-process prediction.
fn reply_matches(j: &Json, p: &DesignPrediction) -> bool {
    let num = |k: &str| j.get(k).and_then(Json::as_f64).map(f64::to_bits).ok();
    let critical: Option<Vec<String>> =
        j.get("critical_path").and_then(Json::as_arr).ok().map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().ok().map(str::to_string))
                .collect()
        });
    trace::finite(p)
        && num("timing_ps") == Some(p.timing_ps.to_bits())
        && num("area_um2") == Some(p.area_um2.to_bits())
        && num("power_mw") == Some(p.power_mw.to_bits())
        && j.get("path_count").and_then(Json::as_u64).ok() == Some(p.path_count as u64)
        && critical.as_ref() == Some(&p.critical_path)
}

/// What the in-process replay answered for one stream request.
enum Answer {
    Full(usize, Option<DesignPrediction>),
    Eco(usize, Option<(String, DesignPrediction)>),
}

/// The in-process replay: the stream from its start, directly on a fresh
/// replica of the model (own, cold path cache; one caller), after the
/// same warm-up the server got. It runs in chunks, so the untraced
/// replay can alternate with the served stream and see the same outside
/// load. With a trace, full requests go through the per-layer chain and
/// ECO requests are one session span.
struct Replayer {
    replica: SnsModel,
    store: SessionStore,
    tokens: BTreeMap<usize, String>,
    /// Cache counters after the warm-up.
    warm: (u64, u64),
    /// Active seconds, warm-up included.
    wall_s: f64,
    latencies_ms: Vec<f64>,
    answers: Vec<Answer>,
}

impl Replayer {
    fn new(model: &SnsModel, inputs: &Inputs, mut trace: Option<&mut Trace>) -> Replayer {
        let replica = model.fork_replica();
        let store = SessionStore::default();
        let start = Instant::now();
        let mut tokens = BTreeMap::new();
        for (i, d) in inputs.pool.iter().enumerate() {
            predict(&replica, d, &mut trace);
            if submodules(d).next().is_some() {
                let opened = match trace.as_deref_mut() {
                    Some(tr) => tr.span("session.open_s", || {
                        replica.predict_session(&store, &d.verilog, &d.top)
                    }),
                    None => replica.predict_session(&store, &d.verilog, &d.top),
                };
                tokens.insert(i, opened.map(|o| o.token).unwrap_or_default());
            }
        }
        let warm = (replica.cache().hits(), replica.cache().misses());
        Replayer {
            replica,
            store,
            tokens,
            warm,
            wall_s: start.elapsed().as_secs_f64(),
            latencies_ms: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// Replays the next `n` stream requests, each timed.
    fn run(&mut self, inputs: &Inputs, n: usize, mut trace: Option<&mut Trace>) {
        let start = Instant::now();
        let from = self.answers.len();
        for &req in &inputs.stream[from..from + n] {
            let t = Instant::now();
            let answer = match req {
                Req::Full(i) => {
                    Answer::Full(i, predict(&self.replica, &inputs.pool[i], &mut trace))
                }
                Req::Eco(e) => {
                    let edit = &inputs.edits[e];
                    let token = self
                        .tokens
                        .get(&edit.base)
                        .map(String::as_str)
                        .unwrap_or("");
                    let patched = match trace.as_deref_mut() {
                        Some(tr) => tr.span("session.eco_s", || {
                            self.replica.predict_patch(&self.store, token, &edit.patch)
                        }),
                        None => self.replica.predict_patch(&self.store, token, &edit.patch),
                    };
                    Answer::Eco(e, patched.ok().map(|o| (o.token, o.prediction)))
                }
            };
            self.latencies_ms.push(1e3 * t.elapsed().as_secs_f64());
            self.answers.push(answer);
        }
        self.wall_s += start.elapsed().as_secs_f64();
    }

    /// Requests/s over the whole replay. (Medians over short chunks
    /// tracked each chunk's random mix of designs more than the code.)
    fn rate(&self) -> f64 {
        1e3 * self.latencies_ms.len() as f64 / self.latencies_ms.iter().sum::<f64>()
    }

    /// Path-cache hit rate of the replayed stream.
    fn cache_hit_rate(&self) -> f64 {
        let h = self.replica.cache().hits() - self.warm.0;
        let m = self.replica.cache().misses() - self.warm.1;
        ratio(h as f64, (h + m) as f64)
    }

    /// Answers that differ from the in-process result on the model.
    fn bad(
        &self,
        expected_full: &[Option<DesignPrediction>],
        expected_eco: &[Option<(String, DesignPrediction)>],
    ) -> usize {
        self.answers
            .iter()
            .filter(|a| match a {
                Answer::Full(i, p) => !matches!((p, &expected_full[*i]),
                    (Some(a), Some(b)) if trace::same_prediction(a, b)),
                Answer::Eco(e, got) => !matches!((got, &expected_eco[*e]),
                    (Some((tok, a)), Some((want, b))) if tok == want && trace::same_prediction(a, b)),
            })
            .count()
    }
}

/// One full request on `replica`, traced or not.
fn predict(
    replica: &SnsModel,
    d: &Design,
    trace: &mut Option<&mut Trace>,
) -> Option<DesignPrediction> {
    match trace.as_deref_mut() {
        Some(tr) => trace::predict_traced(replica, d, tr).ok(),
        None => replica.predict_verilog(&d.verilog, &d.top).ok(),
    }
}

/// Server-side layer metrics from the `/metrics` deltas over the timed
/// stream, and the client-side split by request kind. Absolute values
/// are printed as lines; the contract metrics are shares and ratios.
fn server_layers(
    out: &mut Outcome,
    before: &Json,
    after: &Json,
    client_p50_ms: f64,
    full_ms: &[f64],
    eco_ms: &[f64],
    replay_p50_ms: f64,
) {
    let delta = |path: &[&str]| -> f64 {
        let read = |j: &Json| {
            path.iter()
                .try_fold(j, |j, k| j.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        read(after).saturating_sub(read(before)) as f64
    };
    let total_us = delta(&["stages_us", "total", "sum_us"]);
    for (stage, key) in [
        ("parse", "serve.stage_parse_frac"),
        ("sample", "serve.stage_sample_frac"),
        ("infer", "serve.stage_infer_frac"),
        ("aggregate", "serve.stage_aggregate_frac"),
    ] {
        let sum = delta(&["stages_us", stage, "sum_us"]);
        let count = delta(&["stages_us", stage, "count"]);
        out.line(
            format!("serve.stage_{stage}_us"),
            sum / count.max(1.0),
            "us",
            count as usize,
        );
        out.values.insert(key, ratio(sum, total_us));
    }
    let loop_p99_us = bucket_delta_quantile(before, after, 0.99);
    let loops = delta(&["reactor_loop_us", "count"]);
    out.line(
        "serve.reactor_loop_p99_us",
        loop_p99_us,
        "us",
        loops as usize,
    );
    out.values.insert(
        "serve.reactor_loop_p99_frac",
        loop_p99_us / (1e3 * client_p50_ms),
    );
    let rounds = delta(&["batcher", "rounds"]);
    let seqs = delta(&["batcher", "batched_seqs"]);
    out.values
        .insert("serve.batch_seqs_per_round", ratio(seqs, rounds));
    out.line("serve.batch_rounds", rounds, "count", rounds as usize);
    let overhead_ms = client_p50_ms - replay_p50_ms;
    out.line("serve.http_overhead_ms", overhead_ms, "ms", 2);
    out.values
        .insert("serve.http_overhead_frac", overhead_ms / client_p50_ms);
    let (full_p50, eco_p50) = (median(full_ms), median(eco_ms));
    out.line("serve.full_p50_ms", full_p50, "ms", full_ms.len());
    out.line("serve.eco_p50_ms", eco_p50, "ms", eco_ms.len());
    out.values
        .insert("serve.eco_full_p50_ratio", ratio(eco_p50, full_p50));
    let (hits, misses) = (
        delta(&["elab_cache", "hits"]),
        delta(&["elab_cache", "misses"]),
    );
    out.values
        .insert("session.elab_cache_hit_rate", ratio(hits, hits + misses));
}

/// The `q`-quantile (bucket upper edge, µs) of the reactor-loop
/// histogram's growth between two `/metrics` documents.
fn bucket_delta_quantile(before: &Json, after: &Json, q: f64) -> f64 {
    let buckets = |j: &Json| -> BTreeMap<u64, u64> {
        j.get("reactor_loop_us")
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|b| {
                        let pair = b.as_arr().ok()?;
                        Some((pair.first()?.as_u64().ok()?, pair.get(1)?.as_u64().ok()?))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let grown: Vec<(u64, u64)> = b1
        .iter()
        .map(|(&floor, &n)| (floor, n.saturating_sub(*b0.get(&floor).unwrap_or(&0))))
        .collect();
    let total: u64 = grown.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (floor, n) in grown {
        seen += n;
        if seen >= rank {
            return (2 * floor) as f64;
        }
    }
    0.0
}
