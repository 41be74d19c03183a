//! The three traffic mixes, each a pure function of the workload seed.
//!
//! * `gemm-cold` — distinct GEMM queries over the Table I ranges: every
//!   request misses the response cache and the engine's grid cache.
//! * `gemm-hot` — a working set smaller than the default response cache,
//!   replayed after one warm-up pass: almost every request is a hit.
//! * `dse-mix` — a fixed mix of cold cascade GEMMs, cold staged-pipeline
//!   GEMMs and whole-model queries at distinct custom budgets.

use std::collections::HashSet;

use ai2_dse::{Budget, Objective};
use ai2_serve::{Query, QueryKey, RecommendRequest};
use ai2_workloads::{TABLE_I_MAX_K, TABLE_I_MAX_M, TABLE_I_MAX_N};

/// SplitMix64: a tiny, fully specified generator, so the traffic of a
/// seed never depends on another crate's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_A12C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Log-uniform integer in `[1, max]`.
    fn log_uniform(&mut self, max: u64) -> u64 {
        let v = ((max as f64).ln() * self.unit()).exp().round() as u64;
        v.clamp(1, max)
    }
}

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GemmCold,
    GemmHot,
    DseMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::GemmCold, Workload::GemmHot, Workload::DseMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GemmCold => "gemm-cold",
            Workload::GemmHot => "gemm-hot",
            Workload::DseMix => "dse-mix",
        }
    }
}

/// What a request exercises on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// One-shot GEMM on the analytic backend, default pipeline.
    Gemm,
    /// GEMM on the cascade backend, default pipeline.
    Cascade,
    /// GEMM through the `staged` pipeline (analytic query backend).
    Staged,
    /// Whole-model zoo query at a custom budget.
    Model,
}

/// Working-set size of `gemm-hot`: a quarter of the default cache, so
/// every entry survives the run.
pub const HOT_WORKING_SET: usize = 256;

/// Zoo models the `dse-mix` model queries draw from (the ones whose
/// fold costs a few milliseconds, so one query does not stall a run).
pub const MIX_MODELS: [&str; 4] = ["resnet18", "mobilenet_v2", "bert_base", "squeezenet"];

/// `dse-mix` repeats this pattern of kinds, shuffled within each block,
/// so every block of ten requests keeps the same proportions.
pub const MIX_BLOCK: [Kind; 10] = [
    Kind::Cascade,
    Kind::Cascade,
    Kind::Cascade,
    Kind::Cascade,
    Kind::Staged,
    Kind::Staged,
    Kind::Staged,
    Kind::Staged,
    Kind::Model,
    Kind::Model,
];

const OBJECTIVES: [Objective; 3] = [Objective::Latency, Objective::Energy, Objective::Edp];
const DATAFLOWS: [&str; 3] = ["ws", "os", "rs"];

/// One generated request and what it exercises.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub kind: Kind,
    pub req: RecommendRequest,
}

/// The request stream of one workload. `next` yields the same sequence
/// for the same seed; ids count up from 1.
#[derive(Debug, Clone)]
pub struct Traffic {
    workload: Workload,
    rng: Rng,
    next_id: u64,
    /// GEMM shapes already issued (cold kinds never repeat one, so the
    /// engine's per-shape grid cache misses too).
    seen: HashSet<(u64, u64, u64, u8)>,
    working_set: Vec<Item>,
    /// Position in the one warm-up pass over the working set.
    warm_pos: usize,
    block: Vec<Kind>,
}

impl Traffic {
    pub fn new(workload: Workload, seed: u64) -> Traffic {
        let mut t = Traffic {
            workload,
            rng: Rng::new(seed),
            next_id: 1,
            seen: HashSet::new(),
            working_set: Vec::new(),
            warm_pos: 0,
            block: Vec::new(),
        };
        if workload == Workload::GemmHot {
            t.working_set = (0..HOT_WORKING_SET)
                .map(|_| t.cold_item(Kind::Gemm))
                .collect();
        }
        t
    }

    /// Requests of the warm-up pass that must precede measurement
    /// (`gemm-hot`: the whole working set once; otherwise none).
    pub fn warmup_len(&self) -> usize {
        self.working_set.len()
    }

    pub fn next_item(&mut self) -> Item {
        let mut item = match self.workload {
            Workload::GemmCold => self.cold_item(Kind::Gemm),
            Workload::GemmHot => {
                let pick = if self.warm_pos < self.working_set.len() {
                    self.warm_pos += 1;
                    self.warm_pos - 1
                } else {
                    self.rng.below(self.working_set.len())
                };
                self.working_set[pick].clone()
            }
            Workload::DseMix => {
                if self.block.is_empty() {
                    self.block = MIX_BLOCK.to_vec();
                    // Fisher-Yates; popped from the back
                    for i in (1..self.block.len()).rev() {
                        let j = self.rng.below(i + 1);
                        self.block.swap(i, j);
                    }
                }
                let kind = self.block.pop().expect("refilled above");
                match kind {
                    Kind::Model => self.model_item(),
                    other => self.cold_item(other),
                }
            }
        };
        item.req.id = self.next_id;
        self.next_id += 1;
        item
    }

    pub fn take(&mut self, n: usize) -> Vec<Item> {
        (0..n).map(|_| self.next_item()).collect()
    }

    /// A GEMM of `kind` whose shape this stream has not issued before.
    fn cold_item(&mut self, kind: Kind) -> Item {
        loop {
            let (m, n, k) = (
                self.rng.log_uniform(TABLE_I_MAX_M),
                self.rng.log_uniform(TABLE_I_MAX_N),
                self.rng.log_uniform(TABLE_I_MAX_K),
            );
            let df = self.rng.below(3);
            let objective = OBJECTIVES[self.rng.below(3)];
            if !self.seen.insert((m, n, k, df as u8)) {
                continue;
            }
            let (backend, pipeline) = match kind {
                Kind::Cascade => (Some("cascade".to_string()), None),
                Kind::Staged => (None, Some("staged".to_string())),
                _ => (None, None),
            };
            return Item {
                kind,
                req: RecommendRequest {
                    id: 0,
                    query: Query::Gemm {
                        m,
                        n,
                        k,
                        dataflow: DATAFLOWS[df].to_string(),
                    },
                    objective,
                    budget: Budget::Edge,
                    deadline_ms: None,
                    backend,
                    pipeline,
                },
            };
        }
    }

    /// A whole-model query at a seeded custom budget in
    /// `[0.25, 0.6)` mm² — distinct budgets keep it out of the cache.
    fn model_item(&mut self) -> Item {
        let name = MIX_MODELS[self.rng.below(MIX_MODELS.len())].to_string();
        let objective = OBJECTIVES[self.rng.below(3)];
        let budget = Budget::Custom(0.25 + 0.35 * self.rng.unit());
        Item {
            kind: Kind::Model,
            req: RecommendRequest {
                id: 0,
                query: Query::Model { name },
                objective,
                budget,
                deadline_ms: None,
                backend: None,
                pipeline: None,
            },
        }
    }
}

/// Seed of the quality set: fixed, so every run and every commit scores
/// the same queries.
const QUALITY_SEED: u64 = 0x0A11_7E57;

/// The `n` GEMM queries the regret oracle scores for workload `w`: the
/// kinds `w` sends (one-shot analytic GEMMs for `gemm-cold` and
/// `gemm-hot`, cascade and staged GEMMs for `dse-mix`), drawn from a
/// fixed seed. Ids start far above any load request's.
pub fn quality_set(w: Workload, n: usize) -> Vec<Item> {
    let source = match w {
        Workload::DseMix => Workload::DseMix,
        _ => Workload::GemmCold,
    };
    let mut t = Traffic::new(source, QUALITY_SEED);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut item = t.next_item();
        if item.kind != Kind::Model {
            item.req.id = (1 << 40) + out.len() as u64;
            out.push(item);
        }
    }
    out
}

/// Share of requests whose [`QueryKey`] already appeared earlier in
/// `items`.
pub fn repeat_share(items: &[Item]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = items
        .iter()
        .filter(|it| !seen.insert(QueryKey::of(&it.req).expect("generated queries are valid")))
        .count();
    repeats as f64 / items.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_serve::ServeConfig;

    fn without_ids(items: Vec<Item>) -> Vec<Item> {
        items
            .into_iter()
            .map(|mut it| {
                it.req.id = 0;
                it
            })
            .collect()
    }

    #[test]
    fn traffic_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let a = Traffic::new(w, 7).take(2000);
            let b = Traffic::new(w, 7).take(2000);
            assert_eq!(a, b, "{} must replay identically", w.name());
            let c = Traffic::new(w, 8).take(2000);
            assert_ne!(
                without_ids(a),
                without_ids(c),
                "{} must depend on the seed",
                w.name()
            );
        }
    }

    #[test]
    fn gemm_cold_never_repeats_a_key() {
        for seed in 0..4 {
            let items = Traffic::new(Workload::GemmCold, seed).take(20_000);
            assert_eq!(repeat_share(&items), 0.0);
        }
    }

    #[test]
    fn gemm_hot_working_set_fits_the_default_cache() {
        let cache = ServeConfig::default().cache_capacity;
        let mut t = Traffic::new(Workload::GemmHot, 3);
        assert!(t.warmup_len() < cache);
        let items = t.take(20_000);
        let distinct: HashSet<QueryKey> = items
            .iter()
            .map(|it| QueryKey::of(&it.req).unwrap())
            .collect();
        assert_eq!(distinct.len(), HOT_WORKING_SET);
        assert!(distinct.len() <= cache);
        // after the warm-up pass every request repeats
        let after = &items[HOT_WORKING_SET..];
        assert!(after.iter().all(|it| it.kind == Kind::Gemm));
        let share = repeat_share(&items);
        let expected = 1.0 - HOT_WORKING_SET as f64 / items.len() as f64;
        assert!((share - expected).abs() < 1e-12);
    }

    #[test]
    fn dse_mix_keeps_its_fixed_mix_of_kinds() {
        let items = Traffic::new(Workload::DseMix, 11).take(1000);
        for block in items.chunks(MIX_BLOCK.len()) {
            let count = |k: Kind| block.iter().filter(|it| it.kind == k).count();
            assert_eq!(count(Kind::Cascade), 4);
            assert_eq!(count(Kind::Staged), 4);
            assert_eq!(count(Kind::Model), 2);
        }
        for it in &items {
            match it.kind {
                Kind::Cascade => assert_eq!(it.req.backend.as_deref(), Some("cascade")),
                Kind::Staged => assert_eq!(it.req.pipeline.as_deref(), Some("staged")),
                Kind::Model => assert!(matches!(it.req.query, Query::Model { .. })),
                Kind::Gemm => panic!("dse-mix issues no default GEMMs"),
            }
        }
        assert_eq!(
            repeat_share(&items),
            0.0,
            "dse-mix queries all miss the cache"
        );
    }

    #[test]
    fn the_quality_set_is_fixed_and_gemm_only() {
        for w in Workload::ALL {
            let a = quality_set(w, 512);
            assert_eq!(a, quality_set(w, 512));
            assert_eq!(a.len(), 512);
            assert!(a.iter().all(|it| it.kind != Kind::Model));
            assert_eq!(repeat_share(&a), 0.0);
        }
    }

    #[test]
    fn generated_gemms_stay_in_table_i_ranges() {
        for it in Traffic::new(Workload::GemmCold, 5).take(5000) {
            let Query::Gemm { m, n, k, .. } = it.req.query else {
                panic!("cold traffic is GEMM only")
            };
            assert!((1..=TABLE_I_MAX_M).contains(&m));
            assert!((1..=TABLE_I_MAX_N).contains(&n));
            assert!((1..=TABLE_I_MAX_K).contains(&k));
        }
    }
}
