//! The traced run: per-layer metrics.
//!
//! Two sources, both measured from outside the program:
//!
//! * the server's own `stats` counters, read around the fixed-rate
//!   phase of the untraced load (queue, batching, cache, engine);
//! * an in-process replay of a seeded sample of the workload's requests
//!   through each layer's public functions, on the checkpoint the server
//!   saved. The benchmark records a span (name, start, end, parent,
//!   request id) around every call, keeps the spans in memory and writes
//!   them out at the end. A layer's self time is its span's duration
//!   minus its children's.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ai2_dse::{
    BackendEngines, BackendId, CascadeBackend, CascadeConfig, CostBackend, DesignPoint, DseDataset,
    DseTask, EvalEngine, GenerateConfig, PipelineCfg, PipelineSet,
};
use ai2_serve::protocol::{decode_line, encode_line};
use ai2_serve::{
    recommend_batch_in, Driver, QueryKey, RecommendRequest, RecommendService, Request, Response,
    ServeConfig, ServeStats, Submission,
};
use airchitect::train::TrainConfig;
use airchitect::{Airchitect2, InferenceScratch, ModelConfig};

use crate::check::Reference;
use crate::stat::quantile;
use crate::workload::{Item, Kind, Traffic, Workload};
use crate::Metrics;

/// What the untraced load observed, handed to the per-layer report.
pub struct Observed {
    /// Typical client time-to-recommendation as measured (see
    /// `typical_ttr`), microseconds.
    pub ttr_p50: f64,
    /// Speed of the CPU during the fixed-rate phase relative to the
    /// calibration machine (see `idle::cpu_speed`).
    pub cpu_speed: f64,
    pub ttr_p99: f64,
    pub max_rps: f64,
    pub ttr_samples: usize,
    pub lag_p99: f64,
    pub invalid_phases: usize,
    /// Counter deltas over the fixed-rate phase; percentiles as the
    /// server reported them at its end.
    pub stats: ServeStats,
    pub fail_ratio: f64,
    pub repeat_share: f64,
    /// The fixed-rate phase's requests.
    pub items: Vec<Item>,
}

/// Requests replayed per workload (the dse-mix ones cost milliseconds).
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::DseMix => 40,
        _ => 200,
    }
}

/// Distinct GEMM queries used by the evaluator and pipeline probes.
const PROBE_QUERIES: usize = 24;
/// Design points scored per query by the evaluator probes.
const PROBE_POINTS: usize = 16;
/// Whole-model queries replayed for `deploy.model_ns`.
const MODEL_QUERIES: usize = 6;
/// Repeats of the model-only core probes.
const CORE_REPEATS: usize = 5;
/// Serve's default training run (`serve` with no size flags).
const SERVE_SAMPLES: usize = 2000;
const SERVE_SEED: u64 = 0xA12C;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder; disabled recorders time nothing.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Recorder {
    fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Times `f` as a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Self time of every span: duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self-time samples per span name.
    fn by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }

    /// Durations (not self times) of the spans named `name`, in order.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn json(&self, summary: &BTreeMap<&'static str, Vec<f64>>) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.req
            );
        }
        out.push_str("\n],\n\"self_time_ns\": {");
        for (i, (name, v)) in summary.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n\"{name}\": {{\"p50\": {}, \"p95\": {}, \"total\": {}, \"count\": {}}}",
                if i == 0 { "" } else { "," },
                quantile(v, 0.5),
                quantile(v, 0.95),
                v.iter().sum::<f64>(),
                v.len()
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

fn fresh_engines() -> BackendEngines {
    BackendEngines::new(EvalEngine::shared(DseTask::table_i_default()))
}

/// Replays `items` through a manually driven service: admission
/// (`Endpoint::handle_line`), the shard step that answers, and reply
/// encoding. Returns the encoded reply lengths.
fn replay_service(
    rec: &mut Recorder,
    reference: &Reference,
    items: &[Item],
    warm: &[Item],
) -> Result<Vec<usize>, String> {
    let cfg = ServeConfig {
        driver: Driver::Manual,
        pipelines: reference.pipelines.clone(),
        ..ServeConfig::default()
    };
    let service = RecommendService::start(
        cfg,
        EvalEngine::shared(DseTask::table_i_default()),
        reference.model.checkpoint(),
    );
    let endpoint = service.endpoint();
    let lines: Vec<String> = items
        .iter()
        .map(|it| encode_line(&Request::Recommend(it.req.clone())))
        .collect();
    let answer = |line: &str, rec: &mut Recorder, root: Option<usize>, id: u64| {
        let sub = rec.span("server.admit", root, id, || endpoint.handle_line(line));
        let Submission::Queued(pending) = sub else {
            return Err(format!("request {id} was not queued"));
        };
        let resp = rec.span("server.shard", root, id, || loop {
            let stepped = service.step_shard(0);
            if let Some(resp) = pending.poll() {
                break Some(resp);
            }
            if !stepped {
                break None;
            }
        });
        match resp {
            Some(resp @ Response::Recommendation(_)) => Ok(resp),
            Some(other) => Err(format!("replayed request {id} failed: {other:?}")),
            None => Err(format!("replayed request {id} left the queue unanswered")),
        }
    };
    // untimed warm-up (fills the response cache of the hot workload)
    let mut off = Recorder::new(false);
    for it in warm {
        answer(
            &encode_line(&Request::Recommend(it.req.clone())),
            &mut off,
            None,
            0,
        )?;
    }
    let mut sizes = Vec::with_capacity(items.len());
    for (it, line) in items.iter().zip(&lines) {
        let id = it.req.id;
        let root = rec.begin("request", None, id);
        let resp = answer(line, rec, root, id)?;
        let out = rec.span("protocol.encode", root, id, || encode_line(&resp));
        rec.end(root);
        sizes.push(out.len());
    }
    service.shutdown();
    Ok(sizes)
}

/// The staged pipeline cut after its first `n` stages, registered under
/// the same name.
fn staged_prefix(reference: &Reference, n: usize) -> Result<PipelineSet, String> {
    let staged = reference
        .pipelines
        .get(Some("staged"))
        .ok_or("the benchmark's pipeline file defines no \"staged\" pipeline")?;
    let cfg = PipelineCfg {
        name: "staged".into(),
        stages: staged.cfg().stages[..n].to_vec(),
    };
    PipelineSet::with(&[cfg]).map_err(|e| e.to_string())
}

/// Runs one batch through `recommend_batch_in`, failing on any error.
fn recommend(
    model: &Airchitect2,
    engines: &BackendEngines,
    pipelines: &PipelineSet,
    reqs: &[RecommendRequest],
    scratch: &mut InferenceScratch,
) -> Result<(), String> {
    for resp in recommend_batch_in(model, engines, pipelines, reqs, scratch) {
        if let Response::Error { id, message } = resp {
            return Err(format!("replayed request {id} failed: {message}"));
        }
    }
    Ok(())
}

/// Per-layer metrics for one workload. See the module docs.
pub fn per_layer(
    m: &mut Metrics,
    w: Workload,
    seed: u64,
    obs: &Observed,
    reference: &mut Reference,
    dir: &Path,
) -> Result<(), String> {
    let st = &obs.stats;
    let server_p50 = st.p50_us.ok_or("the server reported no latency")?;
    let server_p99 = st.p99_us.ok_or("the server reported no latency")?;
    let served = st.served.max(1) as f64;
    let evals = st.engine_point_hits + st.engine_point_misses;

    // -- the replay sample -------------------------------------------
    let sample: Vec<Item> = obs.items.iter().take(replay_len(w)).cloned().collect();
    let mut seen = HashSet::new();
    let distinct: Vec<Item> = sample
        .iter()
        .filter(|it| seen.insert(QueryKey::of(&it.req)))
        .cloned()
        .collect();
    let gemms: Vec<Item> = distinct
        .iter()
        .filter(|it| it.kind != Kind::Model)
        .take(PROBE_QUERIES)
        .cloned()
        .collect();
    let models: Vec<Item> = Traffic::new(Workload::DseMix, seed)
        .take(MODEL_QUERIES * 10)
        .into_iter()
        .filter(|it| it.kind == Kind::Model)
        .take(MODEL_QUERIES)
        .collect();
    // hits replay against a warm cache, like the server's
    let warm: &[Item] = if w == Workload::GemmHot {
        &distinct
    } else {
        &[]
    };

    // -- request path: untraced, then traced, on fresh services --------
    let t = Instant::now();
    replay_service(&mut Recorder::new(false), reference, &sample, warm)?;
    let plain_s = t.elapsed().as_secs_f64();
    let mut rec = Recorder::new(true);
    let t = Instant::now();
    let resp_sizes = replay_service(&mut rec, reference, &sample, warm)?;
    let traced_s = t.elapsed().as_secs_f64();

    // -- protocol ------------------------------------------------------
    let lines: Vec<String> = sample
        .iter()
        .map(|it| encode_line(&Request::Recommend(it.req.clone())))
        .collect();
    for (it, line) in sample.iter().zip(&lines) {
        let req = rec.span("protocol.decode", None, it.req.id, || {
            decode_line::<Request>(line)
        });
        req.map_err(|e| format!("benchmark request does not decode: {e}"))?;
    }

    // -- recommend at batch size 1 and max_batch, on fresh engines ------
    let max_batch = ServeConfig::default().max_batch;
    let model = &reference.model;
    let pipelines = reference.pipelines.clone();
    let mut scratch = InferenceScratch::new();
    let engines = fresh_engines();
    for it in &distinct {
        rec.span("recommend.b1", None, it.req.id, || {
            recommend(
                model,
                &engines,
                &pipelines,
                std::slice::from_ref(&it.req),
                &mut scratch,
            )
        })?;
    }
    let engines = fresh_engines();
    let reqs: Vec<RecommendRequest> = distinct.iter().map(|it| it.req.clone()).collect();
    for batch in reqs.chunks(max_batch).filter(|b| b.len() == max_batch) {
        rec.span("recommend.bmax", None, batch[0].id, || {
            recommend(model, &engines, &pipelines, batch, &mut scratch)
        })?;
    }

    // -- core: feature encode, forward pass, UOV decode ----------------
    let inputs: Vec<_> = gemms
        .iter()
        .filter_map(|it| it.req.query.as_dse_input())
        .collect();
    if inputs.is_empty() {
        return Err("the replay sample holds no GEMM query".into());
    }
    let full: Vec<_> = inputs.iter().cycle().take(max_batch).copied().collect();
    for _ in 0..CORE_REPEATS {
        for (size, names) in [
            (
                1,
                [
                    "core.b1",
                    "core.encode_b1",
                    "core.forward_b1",
                    "core.decode_b1",
                ],
            ),
            (
                max_batch,
                [
                    "core.bmax",
                    "core.encode_bmax",
                    "core.forward_bmax",
                    "core.decode_bmax",
                ],
            ),
        ] {
            let batches: Vec<&[_]> = if size == 1 {
                inputs.chunks(1).collect()
            } else {
                vec![&full[..]]
            };
            for batch in batches {
                let root = rec.begin(names[0], None, 0);
                let f = rec.span(names[1], root, 0, || {
                    model.feature_encoder().encode_inputs(batch)
                });
                let (pe, buf) =
                    rec.span(names[2], root, 0, || model.forward_into(&f, &mut scratch));
                let points = rec.span(names[3], root, 0, || {
                    (0..batch.len())
                        .map(|i| DesignPoint {
                            pe_idx: model.pe_codec().decode(pe.row(i)),
                            buf_idx: model.buf_codec().decode(buf.row(i)),
                        })
                        .collect::<Vec<_>>()
                });
                rec.end(root);
                debug_assert_eq!(points.len(), batch.len());
            }
        }
    }

    // -- staged pipeline: time each prefix, difference the stages ------
    let mut prefix_ns: Vec<Vec<f64>> = Vec::new();
    for n in 1..=3 {
        let set = staged_prefix(reference, n)?;
        let engines = fresh_engines();
        let name = ["pipeline.prefix1", "pipeline.prefix2", "pipeline.prefix3"][n - 1];
        for it in &gemms {
            let req = RecommendRequest {
                backend: None,
                pipeline: Some("staged".into()),
                ..it.req.clone()
            };
            rec.span(name, None, it.req.id, || {
                recommend(
                    model,
                    &engines,
                    &set,
                    std::slice::from_ref(&req),
                    &mut scratch,
                )
            })?;
        }
        prefix_ns.push(rec.durations(name));
    }
    let stage_ns = |a: usize, b: usize| -> f64 {
        let diffs: Vec<f64> = prefix_ns[b]
            .iter()
            .zip(&prefix_ns[a])
            .map(|(hi, lo)| hi - lo)
            .collect();
        quantile(&diffs, 0.5)
    };

    // -- cascade: staged scoring of one query, and its escalations ------
    let task = DseTask::table_i_default();
    let cascade = Arc::new(CascadeBackend::over(
        Arc::new(EvalEngine::for_backend(task.clone(), BackendId::Analytic)),
        Arc::new(EvalEngine::for_backend(task.clone(), BackendId::Systolic)),
        CascadeConfig::default(),
    ));
    let cascade_engine = EvalEngine::with_backend_threads(
        task.clone(),
        Arc::clone(&cascade) as Arc<dyn CostBackend>,
        0,
    );
    let mut escalated = Vec::new();
    for (it, input) in gemms.iter().zip(&inputs) {
        rec.span("cascade.query", None, it.req.id, || {
            cascade_engine.score_unchecked_with(
                input,
                DesignPoint {
                    pe_idx: 0,
                    buf_idx: 0,
                },
                it.req.objective,
            )
        });
        let (esc, grid) = cascade.escalation(input);
        escalated.push(esc as f64 / grid as f64);
    }

    // -- point evaluators through the engine -----------------------------
    let space = task.space().clone();
    for (name, id) in [
        ("systolic.eval", BackendId::Systolic),
        ("maestro.eval", BackendId::Analytic),
    ] {
        let engine = EvalEngine::for_backend(task.clone(), id);
        let mut rng = crate::workload::Rng::new(seed ^ 0xE7A1);
        for (it, input) in gemms.iter().zip(&inputs) {
            for _ in 0..PROBE_POINTS {
                let p = space.from_flat(rng.below(space.num_points()));
                rec.span(name, None, it.req.id, || {
                    engine.score_unchecked_with(input, p, it.req.objective)
                });
            }
        }
    }

    // -- whole-model deployment fold ---------------------------------------
    let engines = fresh_engines();
    for it in &models {
        rec.span("deploy.model", None, it.req.id, || {
            recommend(
                model,
                &engines,
                &pipelines,
                std::slice::from_ref(&it.req),
                &mut scratch,
            )
        })?;
    }

    // -- set-up at serve's size ---------------------------------------------
    let engine = EvalEngine::shared(task.clone());
    let ds = rec.span("setup.generate", None, 0, || {
        DseDataset::generate_with(
            &engine,
            &GenerateConfig {
                num_samples: SERVE_SAMPLES,
                seed: SERVE_SEED,
                threads: 0,
                ..GenerateConfig::default()
            },
        )
    });
    let trained = rec.span("setup.fit", None, 0, || {
        let mut model = Airchitect2::with_engine(&ModelConfig::default(), Arc::clone(&engine), &ds);
        model.fit(&ds, &TrainConfig::quick());
        model.checkpoint()
    });
    rec.span("setup.restore", None, 0, || {
        Airchitect2::from_checkpoint(Arc::clone(&engine), &trained)
    })
    .map_err(|e| format!("restore failed: {e}"))?;

    // -- report -------------------------------------------------------------
    let by = rec.by_name();
    let p50 = |name: &str| by.get(name).map_or(0.0, |v| quantile(v, 0.5));
    let total_s = |name: &str| by.get(name).map_or(0.0, |v| v.iter().sum::<f64>() * 1e-9);
    let path = dir.join(format!("trace-{}-{seed}.json", w.name()));
    std::fs::write(&path, rec.json(&by))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[perfbench] spans written to {}", path.display());
    eprintln!(
        "[perfbench] {:<22} {:>12} {:>12} {:>12} {:>6}",
        "span (self time)", "p50 ns", "p95 ns", "total ns", "n"
    );
    for (name, v) in &by {
        eprintln!(
            "[perfbench] {name:<22} {:>12.0} {:>12.0} {:>12.0} {:>6}",
            quantile(v, 0.5),
            quantile(v, 0.95),
            v.iter().sum::<f64>(),
            v.len()
        );
    }
    let request_layers =
        p50("server.admit") + p50("server.shard") + p50("protocol.encode") + p50("request");

    m.put("ttr_p50_us", obs.ttr_p50, "us");
    m.put("ttr_p99_us", obs.ttr_p99, "us");
    m.put("host.cpu_speed", obs.cpu_speed, "ratio");
    m.put("max_rps", obs.max_rps, "1/s");
    m.put("transport.residual_p50_us", obs.ttr_p50 - server_p50, "us");
    m.put("transport.residual_p99_us", obs.ttr_p99 - server_p99, "us");
    m.put("protocol.decode_ns", p50("protocol.decode"), "ns");
    m.put("protocol.encode_ns", p50("protocol.encode"), "ns");
    m.put(
        "protocol.req_bytes",
        lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / lines.len() as f64,
        "bytes",
    );
    m.put(
        "protocol.resp_bytes",
        resp_sizes.iter().map(|n| n + 1).sum::<usize>() as f64 / resp_sizes.len().max(1) as f64,
        "bytes",
    );
    m.put("server.admit_ns", p50("server.admit"), "ns");
    m.put("server.shard_ns", p50("server.shard"), "ns");
    m.put("server.p50_us", server_p50, "us");
    m.put("server.p99_us", server_p99, "us");
    m.put(
        "server.queue_high_water",
        st.queue_high_water as f64,
        "count",
    );
    m.put(
        "server.batch_size_p50",
        st.batch_size_p50.unwrap_or(0.0),
        "count",
    );
    m.put(
        "server.batch_size_p95",
        st.batch_size_p95.unwrap_or(0.0),
        "count",
    );
    m.put("server.errors", st.errors as f64, "count");
    m.put("server.sheds", st.sheds as f64, "count");
    m.put("cache.hit_ratio", st.cache_hits as f64 / served, "ratio");
    m.put("recommend.batch_ns_b1", p50("recommend.b1"), "ns");
    m.put("recommend.batch_ns_bmax", p50("recommend.bmax"), "ns");
    m.put("core.encode_ns_b1", p50("core.encode_b1"), "ns");
    m.put("core.forward_ns_b1", p50("core.forward_b1"), "ns");
    m.put("core.decode_ns_b1", p50("core.decode_b1"), "ns");
    m.put("core.encode_ns_bmax", p50("core.encode_bmax"), "ns");
    m.put("core.forward_ns_bmax", p50("core.forward_bmax"), "ns");
    m.put("core.decode_ns_bmax", p50("core.decode_bmax"), "ns");
    m.put(
        "core.forward_share",
        p50("core.forward_b1") * 1e-3 / server_p50,
        "ratio",
    );
    m.put("engine.evals_per_req", evals as f64 / served, "count");
    m.put(
        "engine.hit_ratio",
        if evals == 0 {
            0.0
        } else {
            st.engine_point_hits as f64 / evals as f64
        },
        "ratio",
    );
    m.put("pipeline.predict_ns", quantile(&prefix_ns[0], 0.5), "ns");
    m.put("pipeline.refine_ns", stage_ns(0, 1), "ns");
    m.put("pipeline.verify_ns", stage_ns(1, 2), "ns");
    m.put("cascade.query_ns", p50("cascade.query"), "ns");
    m.put(
        "cascade.escalated_share",
        escalated.iter().sum::<f64>() / escalated.len() as f64,
        "ratio",
    );
    m.put("systolic.eval_ns", p50("systolic.eval"), "ns");
    m.put("maestro.eval_ns", p50("maestro.eval"), "ns");
    m.put("deploy.model_ns", p50("deploy.model"), "ns");
    m.put("setup.generate_s", total_s("setup.generate"), "s");
    m.put("setup.fit_s", total_s("setup.fit"), "s");
    m.put("setup.restore_s", total_s("setup.restore"), "s");
    m.put(
        "unattributed_share",
        1.0 - request_layers * 1e-3 / server_p50,
        "ratio",
    );
    m.put(
        "trace.overhead_share",
        (traced_s - plain_s) / plain_s,
        "ratio",
    );
    m.put("gen.lag_p99_us", obs.lag_p99, "us");
    m.put("gen.invalid_phases", obs.invalid_phases as f64, "count");
    m.put("ttr.samples", obs.ttr_samples as f64, "count");
    m.put("fail_ratio", obs.fail_ratio, "ratio");
    m.put("workload.repeat_share", obs.repeat_share, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 1,
            },
            Span {
                name: "server.admit",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "server.shard",
                start_ns: 30,
                end_ns: 90,
                parent: Some(0),
                req: 1,
            },
        ];
        assert_eq!(rec.self_ns(), vec![20, 20, 60]);
        let by = rec.by_name();
        assert_eq!(by["request"], vec![20.0]);
        assert_eq!(rec.durations("request"), vec![100.0]);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", None, 0, || 7), 7);
        assert!(rec.spans.is_empty());
    }
}
