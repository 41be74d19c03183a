//! `perfbench` — time-to-recommendation of the AIrchitect v2 server.
//!
//! ```text
//! perfbench --workload gemm-cold|gemm-hot|dse-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run builds and spawns a real
//! `serve` process, drives it open loop over loopback TCP, checks every
//! answer, and prints one JSON object as its last line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` the per-layer ones,
//! from the server's stats and a traced in-process replay. See
//! `perfbench/README.md`.

mod check;
mod idle;
mod load;
mod server;
mod stat;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ai2_dse::{DseTask, EvalEngine};
use ai2_serve::protocol::encode_line;
use ai2_serve::{Query, Request, Response, ServeStats};

use crate::idle::IdlePoll;
use crate::load::Conns;
use crate::server::ServeProc;
use crate::stat::{median, quantile};
use crate::workload::{Item, Kind, Rng, Traffic, Workload};

/// Server spawns whose set-up time `setup_s` takes the median of.
const SETUP_RUNS: usize = 3;
/// Answers compared bit-for-bit with the in-process reference.
const CHECK_SAMPLE: usize = 48;
/// Size of the fixed quality set scored by the regret oracle.
const QUALITY_SET: usize = 512;
/// Offered rate of the untimed quality set (it queues; the server
/// drains it at its own pace).
const QUALITY_RATE: f64 = 2000.0;
/// A window whose sender ran later than this at p99 is reported
/// invalid: its latencies measure the machine (or the client), not the
/// server.
const LAG_BOUND_US: f64 = 1000.0;
/// Requests per latency window: enough that p99 has ten samples beyond
/// it.
const WINDOW: usize = 1000;
/// Length of one probe of the `max_rps` search.
const PROBE_SECS: f64 = 1.0;
/// Share of `--seconds` given to the fixed-rate phase (the rest goes to
/// the `max_rps` search).
const FIXED_SHARE: f64 = 0.8;

/// The offered load of a workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    /// Fixed open-loop rate of the latency phase, requests/s: a sixth
    /// to a third of the server's capacity on two CPUs, so a request
    /// seldom queues behind another and a host that runs slower for a
    /// while does not multiply its slowdown through the queue.
    rate: f64,
    /// Latency limit on the median of a `max_rps` probe, microseconds.
    limit_us: f64,
}

fn spec(w: Workload) -> Spec {
    match w {
        Workload::GemmCold => Spec {
            rate: 1000.0,
            limit_us: 5_000.0,
        },
        Workload::GemmHot => Spec {
            rate: 8000.0,
            limit_us: 5_000.0,
        },
        Workload::DseMix => Spec {
            rate: 200.0,
            limit_us: 10_000.0,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload gemm-cold|gemm-hot|dse-mix --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} takes a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number (non-finite values, which JSON cannot hold, print 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Everything a run sent and what came back, for the gates.
#[derive(Default)]
struct Ledger {
    /// Requests sent with their reply, in send order.
    exchanges: Vec<(Item, Option<Response>)>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("[perfbench] FAIL {msg}");
        }
        self.errors.push(msg);
    }

    /// Checks the replies of one phase; every bad or missing reply is a
    /// failed request.
    fn record(&mut self, items: &[Item], phase: &load::Phase, engine: &EvalEngine) {
        self.attempted += phase.sent;
        for (item, reply) in items.iter().zip(&phase.replies) {
            let resp = match reply {
                None => {
                    self.failed += 1;
                    self.fail(format!("request {}: no reply", item.req.id));
                    None
                }
                Some(line) => match check::well_formed(item, line, engine) {
                    Ok(resp) => Some(resp),
                    Err(e) => {
                        self.failed += 1;
                        self.fail(e);
                        None
                    }
                },
            };
            self.exchanges.push((item.clone(), resp));
        }
    }
}

/// Where a run writes its checkpoint and trace: inside the cargo target
/// directory of the checkout.
fn work_dir(root: &Path) -> PathBuf {
    server::target_dir(root).join("perfbench-run")
}

fn lines_of(items: &[Item]) -> Vec<String> {
    items
        .iter()
        .map(|it| encode_line(&Request::Recommend(it.req.clone())) + "\n")
        .collect()
}

/// The load side of a run: connections, idle polling, and the ledger
/// every reply is checked into.
struct Driver {
    conns: Conns,
    idle: IdlePoll,
    /// Feasibility checks need only the area model: a one-thread engine.
    engine: EvalEngine,
    ledger: Ledger,
}

impl Driver {
    /// One open-loop phase of `items` at `rate`, checked into the ledger.
    fn phase(&mut self, items: Vec<Item>, rate: f64) -> Result<load::Phase, String> {
        let p = load::run(&self.conns, &lines_of(&items), rate)?;
        let threads = p.threads.saturating_sub(self.idle.threads());
        if threads > load::nproc() || threads > load::CONNECTIONS {
            return Err(format!(
                "the generator ran {threads} threads, over its budget of {} (nproc {})",
                load::CONNECTIONS,
                load::nproc()
            ));
        }
        self.ledger.record(&items[..p.sent], &p, &self.engine);
        if p.answered() < p.sent {
            return Err(format!(
                "{} of {} requests never answered",
                p.sent - p.answered(),
                p.sent
            ));
        }
        Ok(p)
    }

    /// Client time-to-recommendation of each request of the last
    /// phase `p`, failed requests counted as infinitely late.
    fn ttr(&self, p: &load::Phase) -> Vec<f64> {
        let base = self.ledger.exchanges.len() - p.sent;
        p.ttr_us
            .iter()
            .zip(&self.ledger.exchanges[base..])
            .map(|(t, (_, resp))| match (t, resp) {
                (Some(t), Some(Response::Recommendation(_))) => *t,
                _ => f64::INFINITY,
            })
            .collect()
    }
}

/// The `max_rps` search: double the offered rate per probe until a
/// probe's median misses the latency limit (or a request fails), then
/// bisect the last bracket geometrically, up to six times while time
/// remains. Past capacity the backlog grows through the whole probe, so
/// the median passes the limit within a few percent of capacity; a
/// probe's p99 would measure the host's stalls instead.
/// Returns the geometric middle of the final bracket.
fn max_rps(
    load: &mut Driver,
    traffic: &mut Traffic,
    spec: Spec,
    budget_s: f64,
) -> Result<(f64, usize), String> {
    let t0 = Instant::now();
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let mut rate = spec.rate;
    let mut probes = 0;
    let mut bisections = 0;
    while t0.elapsed().as_secs_f64() < budget_s && bisections < 6 {
        let n = ((rate * PROBE_SECS) as usize).max(20);
        let failed_before = load.ledger.failed;
        let p = load.phase(traffic.take(n), rate)?;
        probes += 1;
        let t = load.ttr(&p);
        let ok = load.ledger.failed == failed_before && quantile(&t, 0.5) <= spec.limit_us;
        eprintln!(
            "[perfbench] probe {rate:.0}/s: ttr p50 {:.0} p99 {:.0} µs, lag p99 {:.0} µs{}",
            quantile(&t, 0.5),
            quantile(&t, 0.99),
            quantile(&p.lag_us, 0.99),
            if ok { ", met" } else { "" }
        );
        if ok {
            lo = Some(rate);
        } else {
            hi = Some(rate);
        }
        rate = match (lo, hi) {
            (Some(l), None) => l * 2.0,
            (None, Some(h)) => h / 2.0,
            (Some(l), Some(h)) => {
                bisections += 1;
                (l * h).sqrt()
            }
            (None, None) => unreachable!("one side was just set"),
        };
    }
    let est = match (lo, hi) {
        (Some(l), Some(h)) => (l * h).sqrt(),
        (Some(l), None) => l,
        (None, Some(h)) => h / 2.0,
        (None, None) => 0.0,
    };
    Ok((est, probes))
}

/// Requests whose latencies are alike: one kind, and for whole-model
/// queries one model (the models differ in cost several times over).
type Class = (Kind, String);

fn class_of(item: &Item) -> Class {
    let model = match &item.req.query {
        Query::Model { name } => name.clone(),
        _ => String::new(),
    };
    (item.kind, model)
}

/// Each class's p50 over one window's latencies `t`.
fn class_p50s_of(classes: &[Class], t: &[f64]) -> BTreeMap<Class, f64> {
    let mut by: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (class, &v) in classes.iter().zip(t) {
        by.entry(class.clone()).or_default().push(v);
    }
    by.into_iter()
        .map(|(c, v)| (c, quantile(&v, 0.5)))
        .collect()
}

/// The geometric mean (1 for none).
fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// The run's typical time-to-recommendation: per class, the median over
/// windows of the window p50; then the geometric mean over each kind's
/// classes, and over the kinds. A mixed workload's kinds differ in cost
/// by up to ten times; a median over all requests together would fall
/// between two kinds and jump with the mix, while this weighs each kind
/// alike whatever its share.
fn typical_ttr(windows: &[BTreeMap<Class, f64>]) -> f64 {
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for ((kind, _), p50) in class_medians(windows) {
        by_kind.entry(kind).or_default().push(p50);
    }
    geomean(by_kind.values().map(|v| geomean(v.iter().copied())))
}

/// Per class, the median over windows of the window p50.
fn class_medians(windows: &[BTreeMap<Class, f64>]) -> BTreeMap<Class, f64> {
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for window in windows {
        for (class, p50) in window {
            by_class.entry(class.clone()).or_default().push(*p50);
        }
    }
    by_class.into_iter().map(|(c, v)| (c, median(&v))).collect()
}

/// Counter deltas between two stats snapshots.
fn delta(a: &ServeStats, b: &ServeStats) -> ServeStats {
    let mut d = b.clone();
    d.served -= a.served;
    d.cache_hits -= a.cache_hits;
    d.errors -= a.errors;
    d.sheds -= a.sheds;
    d.deadline_expired -= a.deadline_expired;
    d.engine_point_hits -= a.engine_point_hits;
    d.engine_point_misses -= a.engine_point_misses;
    d
}

fn responses_in(ledger: &Ledger, from: usize, to: usize) -> usize {
    ledger.exchanges[from..to]
        .iter()
        .filter(|(_, r)| matches!(r, Some(Response::Recommendation(_))))
        .count()
}

fn run(args: &Args) -> Result<(bool, usize, usize, Metrics), String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let pipelines_path = root.join("perfbench").join("pipelines.json");
    if !root.join("crates").join("serve").is_dir() || !pipelines_path.is_file() {
        return Err("run perfbench from the repository root".into());
    }
    if load::nproc() < load::CONNECTIONS {
        return Err(format!(
            "the generator needs {} CPUs, this machine has {}",
            load::CONNECTIONS,
            load::nproc()
        ));
    }
    let serve_bin = server::build_serve(&root)?;
    let dir = work_dir(&root);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let ckpt = dir.join(format!("ckpt-{}.json", std::process::id()));
    let spec = spec(args.workload);
    let w = args.workload;

    // -- set-up: spawn the server several times, keep the last -------
    let mut setups = Vec::new();
    let mut srv = None;
    let spawns = if args.trace { 1 } else { SETUP_RUNS };
    for i in 0..spawns {
        let s = ServeProc::spawn(&serve_bin, &pipelines_path, &ckpt)?;
        setups.push(s.setup_s);
        if i + 1 == spawns {
            srv = Some(s);
        } else {
            s.stop();
        }
    }
    let srv = srv.expect("at least one spawn");
    eprintln!(
        "[perfbench] {} seed {}: set-up {setups:.3?} s",
        w.name(),
        args.seed
    );

    // -- load ----------------------------------------------------------
    let mut load = Driver {
        conns: Conns::open(srv.addr)?,
        idle: IdlePoll::start(),
        engine: EvalEngine::with_threads(DseTask::table_i_default(), 1),
        ledger: Ledger::default(),
    };
    let mut traffic = Traffic::new(w, args.seed);
    let stats_start = srv.stats()?;
    let warm = traffic.warmup_len() + (spec.rate * 0.5) as usize;
    load.phase(traffic.take(warm), spec.rate)?;

    let fixed_secs = args.seconds * FIXED_SHARE;
    // back-to-back windows of WINDOW requests; the latency metrics are
    // the medians of the windows' percentiles
    let windows = ((spec.rate * fixed_secs) as usize / WINDOW).max(1);
    let before = srv.stats()?;
    let fixed_from = load.ledger.exchanges.len();
    let (mut p50s, mut p99s, mut lags, mut samples, mut fixed_s) = (vec![], vec![], vec![], 0, 0.0);
    // per window, each request class's p50 in it
    let mut class_p50s = vec![];
    let mut invalid = 0;
    let fixed_start = Instant::now();
    for _ in 0..windows {
        let items = traffic.take(WINDOW);
        let classes: Vec<Class> = items.iter().map(class_of).collect();
        let p = load.phase(items, spec.rate)?;
        let t = load.ttr(&p);
        let lag_p99 = quantile(&p.lag_us, 0.99);
        fixed_s += p.wall_s;
        lags.push(lag_p99);
        if lag_p99 > LAG_BOUND_US {
            invalid += 1;
        }
        p50s.push(quantile(&t, 0.5));
        p99s.push(quantile(&t, 0.99));
        class_p50s.push(class_p50s_of(&classes, &t));
        samples += t.len();
    }
    let fixed_end = Instant::now();
    if invalid > 0 {
        eprintln!(
            "[perfbench] {invalid} of {windows} windows INVALID: the generator sent more than \
             {LAG_BOUND_US} µs late at p99 (the host stalled the machine or the client fell \
             behind); the medians over windows discount them"
        );
    }
    let after = srv.stats()?;
    let fixed_to = load.ledger.exchanges.len();
    let d = delta(&before, &after);
    let lag_p99 = median(&lags);

    let (rps, probes) = max_rps(&mut load, &mut traffic, spec, args.seconds - fixed_s)?;
    // the quality set: the same fixed queries on every run, answered
    // after the timed phases (so they time nothing)
    let quality_from = load.ledger.exchanges.len();
    if !args.trace {
        load.phase(workload::quality_set(w, QUALITY_SET), QUALITY_RATE)?;
    }
    let mut ledger = load.ledger;
    drop(load.conns);
    // the CPU's speed over the fixed-rate phase, from the spinners'
    // samples; a run whose spinners could not start samples it here
    let mut speed_samples: Vec<f64> = load
        .idle
        .finish()
        .into_iter()
        .filter(|(at, _)| (fixed_start..=fixed_end).contains(at))
        .map(|(_, ns)| ns)
        .collect();
    if speed_samples.is_empty() {
        speed_samples = idle::sample_here(10);
    }
    let cpu_speed = idle::cpu_speed(&speed_samples);
    let stats_end = srv.stats()?;
    let rss = srv.rss_peak_mb()?;
    srv.stop();

    // -- reconciliation: the server counted what the client saw --------
    let total = delta(&stats_start, &stats_end);
    let client_recs = responses_in(&ledger, 0, ledger.exchanges.len());
    if total.served as usize != client_recs {
        ledger.failed += 1;
        ledger.fail(format!(
            "server served {} but the client received {client_recs}",
            total.served
        ));
    }
    let fixed_recs = responses_in(&ledger, fixed_from, fixed_to);
    if d.served as usize != fixed_recs {
        ledger.failed += 1;
        ledger.fail(format!(
            "fixed-rate phase: server served {} but the client received {fixed_recs}",
            d.served
        ));
    }
    if total.errors != 0 || total.sheds != 0 || total.deadline_expired != 0 {
        ledger.failed += 1;
        ledger.fail(format!(
            "server reported {} errors, {} sheds, {} expired deadlines",
            total.errors, total.sheds, total.deadline_expired
        ));
    }

    // -- bit-identity with the run's own checkpoint ---------------------
    let pipelines = check::load_pipelines(&pipelines_path)?;
    let mut reference = check::Reference::load(&ckpt, pipelines)?;
    let mut rng = Rng::new(args.seed ^ 0xC4EC);
    let answered: Vec<usize> = (0..ledger.exchanges.len())
        .filter(|&i| ledger.exchanges[i].1.is_some())
        .collect();
    for _ in 0..CHECK_SAMPLE.min(answered.len()) {
        let i = answered[rng.below(answered.len())];
        let (item, served) = &ledger.exchanges[i];
        let expected = reference.answer(&item.req);
        if let Err(e) = check::identical(served.as_ref().expect("answered"), &expected) {
            ledger.failed += 1;
            ledger.fail(e);
        }
    }
    let fail_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;

    let mut m = Metrics::default();
    let ttr_p50 = typical_ttr(&class_p50s);
    let ttr_p50_ref = ttr_p50 * cpu_speed;
    let ttr_p99 = median(&p99s);
    eprintln!(
        "[perfbench] fixed phase: {samples} requests at {} req/s in {windows} windows, \
         ttr p50 {p50s:.1?} µs p99 {p99s:.1?} µs, lag p99 {lag_p99:.1} µs; \
         max_rps {rps:.1} from {probes} probes",
        spec.rate
    );
    eprintln!(
        "[perfbench] ttr p50 by class {:.1?} µs, typical {ttr_p50:.1} µs; cpu speed \
         {cpu_speed:.3} from {} samples; typical ttr on the reference CPU {ttr_p50_ref:.1} µs",
        class_medians(&class_p50s),
        speed_samples.len()
    );
    if !args.trace {
        let regrets: Vec<f64> = ledger.exchanges[quality_from..]
            .iter()
            .filter_map(|(item, resp)| check::regret(&reference.engines, item, resp.as_ref()?))
            .collect();
        if regrets.len() != QUALITY_SET {
            return Err(format!(
                "{} of {QUALITY_SET} quality answers scored",
                regrets.len()
            ));
        }
        m.put("setup_s", median(&setups), "s");
        m.put("ttr_p50_ref_us", ttr_p50_ref, "us");
        m.put(
            "regret_mean",
            regrets.iter().sum::<f64>() / regrets.len().max(1) as f64,
            "ratio",
        );
        m.put("rss_peak_mb", rss, "MiB");
    } else {
        let observed = trace::Observed {
            ttr_p50,
            cpu_speed,
            ttr_p99,
            max_rps: rps,
            ttr_samples: samples,
            lag_p99,
            invalid_phases: invalid,
            stats: d,
            fail_ratio,
            repeat_share: workload::repeat_share(
                &ledger
                    .exchanges
                    .iter()
                    .map(|(it, _)| it.clone())
                    .collect::<Vec<_>>(),
            ),
            items: ledger.exchanges[fixed_from..fixed_to]
                .iter()
                .map(|(it, _)| it.clone())
                .collect(),
        };
        trace::per_layer(&mut m, w, args.seed, &observed, &mut reference, &dir)?;
    }
    let _ = std::fs::remove_file(&ckpt);
    Ok((ledger.failed == 0, ledger.attempted, ledger.failed, m))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, m)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                m.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_ttr_weighs_kinds_alike_whatever_the_mix() {
        let class = |kind| (kind, String::new());
        let window = |cheap: usize, dear: usize| {
            let classes = [
                vec![class(Kind::Staged); cheap],
                vec![class(Kind::Cascade); dear],
            ];
            let t = [vec![100.0; cheap], vec![1600.0; dear]].concat();
            class_p50s_of(&classes.concat(), &t)
        };
        // the median over all requests would read 1600 and then 100
        for w in [window(4, 6), window(6, 4)] {
            assert!((typical_ttr(&[w]) - 400.0).abs() < 1e-9);
        }
    }
}
