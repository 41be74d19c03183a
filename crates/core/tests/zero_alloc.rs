//! Proves the serving hot path is allocation-free once warm.
//!
//! A counting global allocator wraps [`std::alloc::System`]; after
//! warm-up passes, a full batched forward (encoder + decoder heads,
//! `f32` and int8 flavors) through a reused [`InferenceScratch`] must
//! perform **zero** heap allocations, and a whole prediction (feature
//! encode → forward → UOV decode) exactly one: the returned points.
//!
//! This file intentionally holds a single `#[test]`: the counter is
//! process-global, and a concurrently running test would pollute the
//! delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ai2_dse::{DseDataset, DseTask, GenerateConfig};
use ai2_workloads::generator::DseInput;
use airchitect::{Airchitect2, InferenceScratch, ModelConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

/// A warm `predict_with` allocates the returned `Vec<DesignPoint>` and
/// nothing else.
fn assert_predict_allocates_only_its_result(
    model: &Airchitect2,
    inputs: &[DseInput],
    scratch: &mut InferenceScratch,
) {
    for _ in 0..3 {
        model.predict_with(inputs, scratch); // warm-up
    }
    let mut points = Vec::new();
    let n = allocations(|| points = model.predict_with(inputs, scratch));
    assert_eq!(points.len(), inputs.len());
    assert_eq!(
        n, 1,
        "warm predict_with performed {n} heap allocations besides its result"
    );
}

#[test]
fn warm_forward_pass_allocates_nothing() {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: 24,
            seed: 9,
            threads: 1,
            ..GenerateConfig::default()
        },
    );
    let mut model = Airchitect2::new(&ModelConfig::tiny(), &task, &ds);
    let inputs: Vec<_> = ds.samples.iter().map(|s| s.input()).collect();
    let features = model.feature_encoder().encode_inputs(&inputs);

    // f32 flavor ---------------------------------------------------------
    let mut scratch = InferenceScratch::new();
    for _ in 0..3 {
        model.forward_into(&features, &mut scratch); // warm-up
    }
    let steady = allocations(|| {
        model.forward_into(&features, &mut scratch);
    });
    assert_eq!(
        steady, 0,
        "warm f32 forward pass performed {steady} heap allocations"
    );
    assert_predict_allocates_only_its_result(&model, &inputs, &mut scratch);

    // int8 flavor --------------------------------------------------------
    model.quantize_decoder();
    let mut qscratch = InferenceScratch::new();
    for _ in 0..3 {
        model.forward_into(&features, &mut qscratch);
    }
    let steady_q = allocations(|| {
        model.forward_into(&features, &mut qscratch);
    });
    assert_eq!(
        steady_q, 0,
        "warm int8 forward pass performed {steady_q} heap allocations"
    );
    assert_predict_allocates_only_its_result(&model, &inputs, &mut qscratch);

    // Repeating the steady-state batch keeps producing identical outputs.
    let (pe_a, buf_a) = {
        let (pe, buf) = model.forward_into(&features, &mut qscratch);
        (pe.clone(), buf.clone())
    };
    let (pe_b, buf_b) = model.forward_into(&features, &mut qscratch);
    assert_eq!(&pe_a, pe_b);
    assert_eq!(&buf_a, buf_b);
}
