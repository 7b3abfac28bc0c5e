//! Allocation fence for the simulator's uplink: `round::upload` — encode
//! into the caller's scratch, decode back in place — must make no heap
//! allocation once the scratch has grown to the payload size, with the
//! dense and uniform-8bit codecs. `Fda::uplink` roundtrips every state
//! summary and every model upload through it, on every step.
//!
//! Measured with a thread-local counter inside the global allocator, as
//! in `crates/net/tests/alloc_regression.rs`; lives in its own test binary
//! so the counting allocator is isolated from the other suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fda_comm::{Codec, CodecSpec};
use fda_core::round::upload;
use fda_tensor::Rng;

struct ThreadCountingAlloc;

thread_local! {
    // Const-init `Cell<u64>` carries no destructor and no lazy
    // initialization, so the allocator can touch it without recursing.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCountingAlloc = ThreadCountingAlloc;

/// A LeNet-sized payload (d ≈ 3.7K) with one chunk carrying a NaN, so the
/// uniform-8bit codec runs both its quantized and its raw-escape path.
fn payload() -> Vec<f32> {
    let mut v = vec![0.0f32; 3_700];
    Rng::new(5).fill_normal(&mut v, 0.0, 0.1);
    v[3_000] = f32::NAN;
    v
}

/// Allocations made by `rounds` uploads of fresh copies of `v` after one
/// warm-up upload, with the reconstructions checked against
/// [`Codec::roundtrip`] bit for bit.
fn steady_state_allocs(codec: &dyn Codec, v: &[f32], rounds: usize) -> u64 {
    let want: Vec<u32> = codec.roundtrip(v).iter().map(|x| x.to_bits()).collect();
    let want_bytes = codec.encode(v).len() as u64;
    let mut enc = Vec::new();
    let mut buf = v.to_vec();
    upload(codec, &mut buf, &mut enc); // warm-up: grows the scratch
    let mut allocs = 0;
    for _ in 0..rounds {
        buf.copy_from_slice(v);
        let before = THREAD_ALLOCS.with(Cell::get);
        let bytes = upload(codec, &mut buf, &mut enc);
        allocs += THREAD_ALLOCS.with(Cell::get) - before;
        assert_eq!(bytes, want_bytes, "{}: charged bytes", codec.name());
        let got: Vec<u32> = buf.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "{}: reconstruction", codec.name());
    }
    allocs
}

#[test]
fn upload_is_allocation_free_after_warmup() {
    let v = payload();
    for spec in [CodecSpec::Dense, CodecSpec::Uniform8 { chunk: 256 }] {
        // `CodecSpec::build` wraps the codec in the telemetry decorator,
        // exactly as the round engine holds it; run it with telemetry off
        // and on.
        for telemetry in [false, true] {
            fda_obs::set_enabled(telemetry);
            let codec = spec.build();
            let allocs = steady_state_allocs(codec.as_ref(), &v, 8);
            fda_obs::set_enabled(false);
            assert_eq!(
                allocs,
                0,
                "{} (telemetry {telemetry}): upload allocated after warm-up",
                codec.name()
            );
        }
    }
}
