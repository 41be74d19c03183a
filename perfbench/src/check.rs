//! The correctness gate and the quality oracle.
//!
//! * Every reply must be a well-formed recommendation for its request.
//! * A seeded sample of replies must be bit-identical to
//!   `recommend_batch_in` run in-process on the checkpoint the server
//!   saved. Training is not bit-reproducible, so the reference is the
//!   run's own checkpoint, never a fresh training.
//! * `regret_mean` scores a fixed-size seeded sample of GEMM answers
//!   against the exhaustive grid optimum under the backend that
//!   verified them.

use std::path::Path;
use std::sync::Arc;

use ai2_dse::{BackendEngines, BackendId, DseTask, EvalEngine, PipelineSet, PipelinesFile};
use ai2_serve::protocol::decode_line;
use ai2_serve::{recommend_batch_in, Query, RecommendRequest, Response};
use airchitect::{Airchitect2, InferenceScratch, ModelCheckpoint};

use crate::workload::{Item, Kind};

/// The benchmark's pipeline registry (the `staged` pipeline).
pub fn load_pipelines(path: &Path) -> Result<PipelineSet, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let file: PipelinesFile = decode_line(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    PipelineSet::with(&file.pipelines).map_err(|e| format!("{}: {e}", path.display()))
}

/// The server's answers recomputed in-process from its checkpoint.
pub struct Reference {
    pub model: Airchitect2,
    pub engines: BackendEngines,
    pub pipelines: PipelineSet,
    scratch: InferenceScratch,
}

impl Reference {
    pub fn load(ckpt: &Path, pipelines: PipelineSet) -> Result<Reference, String> {
        let ckpt = ModelCheckpoint::load(ckpt)
            .map_err(|e| format!("cannot load checkpoint {}: {e}", ckpt.display()))?;
        Self::from_checkpoint(&ckpt, pipelines)
    }

    pub fn from_checkpoint(
        ckpt: &ModelCheckpoint,
        pipelines: PipelineSet,
    ) -> Result<Reference, String> {
        let engine = EvalEngine::shared(DseTask::table_i_default());
        let model = Airchitect2::from_checkpoint(Arc::clone(&engine), ckpt)
            .map_err(|e| format!("checkpoint does not apply: {e}"))?;
        Ok(Reference {
            model,
            engines: BackendEngines::new(engine),
            pipelines,
            scratch: InferenceScratch::new(),
        })
    }

    pub fn answer(&mut self, req: &RecommendRequest) -> Response {
        recommend_batch_in(
            &self.model,
            &self.engines,
            &self.pipelines,
            std::slice::from_ref(req),
            &mut self.scratch,
        )
        .pop()
        .expect("one answer per request")
    }
}

/// Checks one reply line against its request: it must decode, be a
/// recommendation for this id, and describe a point of the grid
/// consistently (hardware, budget feasibility, backend, layer count).
pub fn well_formed(item: &Item, line: &str, engine: &EvalEngine) -> Result<Response, String> {
    let req = &item.req;
    let resp: Response =
        decode_line(line).map_err(|e| format!("request {}: undecodable reply: {e}", req.id))?;
    let rec = match &resp {
        Response::Recommendation(rec) => rec,
        other => {
            return Err(format!(
                "request {}: not a recommendation: {other:?}",
                req.id
            ))
        }
    };
    let space = engine.space();
    let fail = |what: &str| Err(format!("request {}: {what}: {rec:?}", req.id));
    if rec.id != req.id {
        return fail("id mismatch");
    }
    if rec.point.pe_idx >= space.num_pe_choices() || rec.point.buf_idx >= space.num_buf_choices() {
        return fail("point outside the design space");
    }
    let hw = space.config(rec.point);
    if rec.num_pes != hw.num_pes || rec.l2_bytes != hw.l2_bytes {
        return fail("hardware does not match the point");
    }
    if !(rec.cost.is_finite() && rec.cost > 0.0) {
        return fail("cost is not a positive number");
    }
    // a staged pipeline answers under the backend of its last scoring
    // stage; every other query under the backend it asked for
    let backend = req.backend_id().map_err(|e| e.to_string())?;
    let echoed = match req.pipeline {
        Some(_) => rec.backend.parse::<BackendId>().is_ok(),
        None => rec.backend == backend.as_str(),
    };
    if !echoed {
        return fail("answered by another backend");
    }
    match &req.query {
        Query::Gemm { .. } => {
            if rec.layers != 1 {
                return fail("a GEMM answer folds one layer");
            }
            if rec.feasible != engine.is_feasible_under(rec.point, req.budget) {
                return fail("feasibility disagrees with the point's area");
            }
        }
        Query::Model { .. } => {
            if rec.layers == 0 {
                return fail("a model answer folds at least one layer");
            }
        }
    }
    Ok(resp)
}

/// Regret of one served GEMM answer: `cost / optimum − 1` under the
/// backend that verified it (systolic for cascade and staged answers),
/// with the optimum over the budget's feasible grid. An answer outside
/// the budget scores 1.
pub fn regret(engines: &BackendEngines, item: &Item, resp: &Response) -> Option<f64> {
    let Response::Recommendation(rec) = resp else {
        return None;
    };
    let input = item.req.query.as_dse_input()?;
    let verifier = match item.kind {
        Kind::Model => return None,
        // the cascade's answers carry systolic costs
        Kind::Cascade => BackendId::Systolic,
        Kind::Gemm | Kind::Staged => rec.backend.parse().ok()?,
    };
    let engine = engines.get(verifier);
    if !engine.is_feasible_under(rec.point, item.req.budget) {
        return Some(1.0);
    }
    let optimum = engine.oracle_with(&input, item.req.objective, item.req.budget);
    let cost = engine.score_unchecked_with(&input, rec.point, item.req.objective);
    Some(cost / optimum.best_score - 1.0)
}

/// Compares a served answer with the in-process reference answer.
pub fn identical(served: &Response, reference: &Response) -> Result<(), String> {
    if served == reference {
        Ok(())
    } else {
        Err(format!(
            "served answer differs from the checkpoint's: served {served:?}, expected {reference:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Traffic, Workload};
    use ai2_serve::protocol::encode_line;
    use ai2_serve::Recommendation;

    fn engine() -> EvalEngine {
        EvalEngine::with_threads(DseTask::table_i_default(), 1)
    }

    /// A well-formed answer for `item` at the smallest configuration.
    fn answer_for(item: &Item, engine: &EvalEngine) -> Recommendation {
        let point = ai2_dse::DesignPoint {
            pe_idx: 0,
            buf_idx: 0,
        };
        let hw = engine.space().config(point);
        Recommendation {
            id: item.req.id,
            point,
            num_pes: hw.num_pes,
            l2_bytes: hw.l2_bytes,
            cost: 1234.5,
            feasible: engine.is_feasible_under(point, item.req.budget),
            layers: 1,
            backend: "analytic".into(),
        }
    }

    #[test]
    fn a_well_formed_answer_passes() {
        let e = engine();
        let item = Traffic::new(Workload::GemmCold, 1).next_item();
        let line = encode_line(&Response::Recommendation(answer_for(&item, &e)));
        well_formed(&item, &line, &e).expect("well-formed");
    }

    #[test]
    fn corrupted_answers_fail_the_gate() {
        let e = engine();
        let item = Traffic::new(Workload::GemmCold, 1).next_item();
        let good = answer_for(&item, &e);
        let corruptions: [fn(&mut Recommendation); 9] = [
            |r| r.id += 1,
            |r| r.point.pe_idx = 64,
            |r| r.num_pes += 8,
            |r| r.l2_bytes *= 2,
            |r| r.cost = f64::NAN,
            |r| r.cost = -1.0,
            |r| r.feasible = !r.feasible,
            |r| r.layers = 2,
            |r| r.backend = "systolic".into(),
        ];
        for corrupt in &corruptions {
            let mut bad = good.clone();
            corrupt(&mut bad);
            let line = encode_line(&Response::Recommendation(bad.clone()));
            assert!(well_formed(&item, &line, &e).is_err(), "accepted {bad:?}");
        }
        let error = Response::Error {
            id: item.req.id,
            message: "boom".into(),
        };
        assert!(well_formed(&item, &encode_line(&error), &e).is_err());
        assert!(well_formed(&item, "{\"Recommendation\":", &e).is_err());
    }

    #[test]
    fn a_corrupted_cost_differs_from_the_reference() {
        let e = engine();
        let item = Traffic::new(Workload::GemmCold, 2).next_item();
        let reference = Response::Recommendation(answer_for(&item, &e));
        assert!(identical(&reference, &reference).is_ok());
        let mut bad = answer_for(&item, &e);
        // one ulp off is still wrong: the gate is bit-for-bit
        bad.cost = f64::from_bits(bad.cost.to_bits() + 1);
        assert!(identical(&Response::Recommendation(bad), &reference).is_err());
    }

    #[test]
    fn the_optimum_has_zero_regret_and_infeasible_answers_score_one() {
        let engines = BackendEngines::new(Arc::new(engine()));
        let item = Traffic::new(Workload::GemmCold, 3).next_item();
        let input = item.req.query.as_dse_input().unwrap();
        let opt = engines.get(BackendId::Analytic).oracle_with(
            &input,
            item.req.objective,
            item.req.budget,
        );
        let mut rec = answer_for(&item, engines.primary());
        rec.point = opt.best_point;
        let r = regret(&engines, &item, &Response::Recommendation(rec.clone())).unwrap();
        assert_eq!(r, 0.0);
        // the largest configuration does not fit the edge budget
        rec.point = ai2_dse::DesignPoint {
            pe_idx: 63,
            buf_idx: 11,
        };
        let r = regret(&engines, &item, &Response::Recommendation(rec)).unwrap();
        assert_eq!(r, 1.0);
    }
}
