//! A client that half-closes its connection while an answer is still
//! owed gets that answer, and the event loop waits for it parked rather
//! than spinning on the peer's hangup.
//!
//! Runs as its own test binary so the only event-loop threads in the
//! process are this test's.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ai2_dse::{Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective};
use ai2_serve::protocol::{decode_line, encode_line};
use ai2_serve::{
    Driver, Query, RecommendRequest, RecommendService, Request, Response, ServeConfig, VirtualClock,
};
use airchitect::train::TrainConfig;
use airchitect::{Airchitect2, ModelConfig};

/// User plus system clock ticks spent so far by this process's
/// event-loop threads (`/proc/self/task/*/stat`, fields 14 and 15).
fn event_loop_cpu_ticks() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            // thread names are truncated to 15 bytes: "ai2-serve-evloo"
            if !comm.starts_with("ai2-serve-evloo") {
                return None;
            }
            let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
            let fields: Vec<&str> = stat[stat.rfind(')')? + 2..].split_whitespace().collect();
            Some(fields[11].parse::<u64>().ok()? + fields[12].parse::<u64>().ok()?)
        })
        .sum()
}

#[test]
fn half_closed_connection_waits_parked_for_its_answer() {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: 40,
            seed: 21,
            threads: 2,
            ..GenerateConfig::default()
        },
    );
    let engine = EvalEngine::shared(task.clone());
    let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), engine, &ds);
    model.fit(&ds, &TrainConfig::quick());
    // a manual driver: nothing answers until the test steps the shard
    let mut service = RecommendService::start_with(
        ServeConfig {
            driver: Driver::Manual,
            shards: 1,
            ..ServeConfig::default()
        },
        EvalEngine::shared(task),
        model.checkpoint(),
        Arc::new(VirtualClock::new()),
    );
    let addr = service.listen("127.0.0.1:0").expect("listen");

    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = Request::Recommend(RecommendRequest {
        id: 5,
        query: Query::Gemm {
            m: 48,
            n: 280,
            k: 140,
            dataflow: "os".into(),
        },
        objective: Objective::Latency,
        budget: Budget::Edge,
        deadline_ms: None,
        backend: None,
        pipeline: None,
    });
    stream
        .write_all(format!("{}\n", encode_line(&req)).as_bytes())
        .expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(service.queued(), 1, "the request must be admitted");

    // the answer is owed and the peer has hung up its side: a loop that
    // keeps waking on the hangup burns a whole CPU here (~50 ticks)
    let before = event_loop_cpu_ticks();
    std::thread::sleep(Duration::from_millis(500));
    let spent = event_loop_cpu_ticks() - before;
    assert!(spent <= 10, "event loops spent {spent} ticks waiting");

    assert!(service.step_shard(0));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the answer");
    assert!(
        matches!(decode_line::<Response>(&line), Ok(Response::Recommendation(r)) if r.id == 5),
        "unexpected {line:?}"
    );
    // nothing more is owed, so the server closes its side
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read EOF"), 0);
    service.shutdown();
}
