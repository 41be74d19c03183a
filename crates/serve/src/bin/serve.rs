//! The standalone recommendation server.
//!
//! Trains a model (or loads a checkpoint), starts the sharded service,
//! binds the NDJSON TCP endpoint and prints one machine-readable line
//!
//! ```text
//! SERVE_ADDR=127.0.0.1:PORT
//! ```
//!
//! to stdout so scripts (the CI smoke test, the load generator) can
//! discover the ephemeral port. Runs until killed.
//!
//! ```text
//! serve [--port N]            listen port (default 0 = ephemeral)
//!       [--frontend NAME]     connection front end: "threads" (default,
//!                             thread per connection) or "event" (one
//!                             acceptor + N event-loop threads
//!                             multiplexing every connection)
//!       [--event-threads N]   event-loop threads with --frontend event
//!                             (default 2)
//!       [--shed-high-water N] shed admission control: refuse new
//!                             recommendations inline once the queue
//!                             holds N (default 0 = queue unboundedly)
//!       [--shards N]          worker shards (default 2)
//!       [--max-batch N]       micro-batch bound (default 32)
//!       [--cache N]           LRU response-cache entries (default 1024)
//!       [--samples N]         training-set size when training (default 2000)
//!       [--seed N]            dataset seed (default 0xA12C)
//!       [--quick]             smoke-test sizes (300 samples)
//!       [--checkpoint PATH]   serve this checkpoint instead of training
//!       [--save-checkpoint P] write the trained checkpoint to P
//!       [--refresh-secs N]    background refresh loop every N seconds
//!                             (fine-tune on the replay buffer, publish)
//!       [--pipelines FILE]    register named recommendation pipelines
//!                             from a JSON file ({"pipelines":[{"name":…,
//!                             "stages":[{"stage":"predict"},…]},…]});
//!                             the built-in "default" is always present
//!       [--trace-out FILE]    enable request tracing and periodically
//!                             rewrite FILE with the Chrome trace_event
//!                             JSON of the capture so far
//! ```

use std::sync::Arc;

use ai2_dse::{DseDataset, DseTask, EvalEngine, GenerateConfig, PipelineSet, PipelinesFile};
use ai2_serve::cli::Cli;
use ai2_serve::{OverloadPolicy, RecommendService, RefreshConfig, ServeConfig};
use airchitect::train::TrainConfig;
use airchitect::{Airchitect2, ModelCheckpoint, ModelConfig};

struct Args {
    port: u16,
    frontend: String,
    event_threads: usize,
    cfg: ServeConfig,
    samples: usize,
    seed: u64,
    checkpoint: Option<String>,
    save_checkpoint: Option<String>,
    trace_out: Option<String>,
}

const USAGE: &str = "\
usage: serve [--port N] [--frontend threads|event] [--event-threads N]
             [--shed-high-water N] [--shards N] [--max-batch N] [--cache N]
             [--samples N] [--seed N] [--quick] [--checkpoint PATH]
             [--save-checkpoint PATH] [--refresh-secs N] [--pipelines FILE]
             [--trace-out FILE]

Trains a model (or loads --checkpoint), serves recommendations over TCP
and prints SERVE_ADDR=HOST:PORT on stdout. See the crate docs of
src/bin/serve.rs for what each flag does.
";

fn parse_args() -> Args {
    let mut args = Args {
        port: 0,
        frontend: "threads".to_string(),
        event_threads: 2,
        cfg: ServeConfig::default(),
        samples: 2000,
        seed: 0xA12C,
        checkpoint: None,
        save_checkpoint: None,
        trace_out: None,
    };
    let mut cli = Cli::from_env(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--port" => args.port = cli.parse(&flag),
            "--frontend" => {
                args.frontend = cli.value(&flag);
                if args.frontend != "threads" && args.frontend != "event" {
                    cli.fail(format!(
                        "--frontend takes \"threads\" or \"event\", not {:?}",
                        args.frontend
                    ));
                }
            }
            "--event-threads" => args.event_threads = cli.parse(&flag),
            "--shed-high-water" => {
                let high_water: usize = cli.parse(&flag);
                args.cfg.overload = if high_water > 0 {
                    OverloadPolicy::Shed { high_water }
                } else {
                    OverloadPolicy::Queue
                };
            }
            "--shards" => args.cfg.shards = cli.parse(&flag),
            "--max-batch" => args.cfg.max_batch = cli.parse(&flag),
            "--cache" => args.cfg.cache_capacity = cli.parse(&flag),
            "--samples" => args.samples = cli.parse(&flag),
            "--seed" => args.seed = cli.parse(&flag),
            "--quick" => args.samples = 300,
            "--checkpoint" => args.checkpoint = Some(cli.value(&flag)),
            "--save-checkpoint" => args.save_checkpoint = Some(cli.value(&flag)),
            "--trace-out" => args.trace_out = Some(cli.value(&flag)),
            "--refresh-secs" => {
                let secs: u64 = cli.parse(&flag);
                args.cfg.refresh = Some(RefreshConfig {
                    interval: std::time::Duration::from_secs(secs),
                    ..RefreshConfig::default()
                });
            }
            "--pipelines" => {
                let path = cli.value(&flag);
                let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    cli.fail(format!("--pipelines: cannot read {path:?}: {e}"))
                });
                let file: PipelinesFile = serde_json::from_str(&body)
                    .unwrap_or_else(|e| cli.fail(format!("--pipelines: {path:?}: {e}")));
                args.cfg.pipelines = PipelineSet::with(&file.pipelines)
                    .unwrap_or_else(|e| cli.fail(format!("--pipelines: {path:?}: {e}")));
            }
            other => cli.fail(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let engine = EvalEngine::shared(DseTask::table_i_default());

    let ckpt = match &args.checkpoint {
        Some(path) => {
            eprintln!("[serve] loading checkpoint {path}");
            ModelCheckpoint::load(path).expect("load checkpoint")
        }
        None => {
            eprintln!(
                "[serve] generating {} oracle-labeled samples (seed {:#x})…",
                args.samples, args.seed
            );
            let ds = DseDataset::generate_with(
                &engine,
                &GenerateConfig {
                    num_samples: args.samples,
                    seed: args.seed,
                    threads: 0,
                    ..GenerateConfig::default()
                },
            );
            eprintln!("[serve] training the predictor (quick schedule)…");
            let mut model =
                Airchitect2::with_engine(&ModelConfig::default(), Arc::clone(&engine), &ds);
            model.fit(&ds, &TrainConfig::quick());
            // freshly trained checkpoints start the lineage at version 1
            model
                .checkpoint()
                .with_version(1)
                .with_provenance(engine.backend_id().as_str(), ds.len() as u64)
        }
    };
    eprintln!(
        "[serve] checkpoint v{} (backend {}, {} training samples)",
        ckpt.version, ckpt.provenance.backend, ckpt.provenance.training_samples
    );
    if let Some(path) = &args.save_checkpoint {
        ckpt.save(path).expect("save checkpoint");
        eprintln!("[serve] wrote checkpoint {path}");
    }

    let mut service = RecommendService::start(args.cfg.clone(), engine, ckpt);
    let addr = if args.frontend == "event" {
        service
            .listen_event(("127.0.0.1", args.port), args.event_threads)
            .expect("bind listen port")
    } else {
        service
            .listen(("127.0.0.1", args.port))
            .expect("bind listen port")
    };
    eprintln!(
        "[serve] {} front end, {} shards, max batch {}, cache {} entries, pipelines [{}]{}{}",
        args.frontend,
        args.cfg.shards,
        args.cfg.max_batch,
        args.cfg.cache_capacity,
        args.cfg.pipelines.names().join(", "),
        match args.cfg.overload {
            OverloadPolicy::Shed { high_water } => format!(", shed over {high_water} queued"),
            OverloadPolicy::Queue => String::new(),
        },
        match &args.cfg.refresh {
            Some(r) => format!(", refresh every {:?}", r.interval),
            None => String::new(),
        }
    );
    if let Some(path) = &args.trace_out {
        service.set_tracing(true);
        eprintln!("[serve] tracing enabled, dumping to {path}");
    }
    // machine-readable discovery line; scripts poll stdout for it
    println!("SERVE_ADDR={addr}");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(
            if args.trace_out.is_some() { 1 } else { 3600 },
        ));
        if let Some(path) = &args.trace_out {
            // periodic rewrite: the file always holds a complete, valid
            // Chrome trace of the capture so far (kill -9 safe)
            let tmp = format!("{path}.tmp");
            if std::fs::write(&tmp, service.trace_json())
                .and_then(|()| std::fs::rename(&tmp, path))
                .is_err()
            {
                eprintln!("[serve] cannot write trace file {path}");
            }
        }
    }
}
