//! Allocation counts of FULLSSTA's fused PDF kernels. After the first
//! call on a thread has sized its scratch, a kernel on 12-point inputs
//! allocates only its result's two vectors, and its slice form
//! (`PdfOut`) allocates nothing; a count above that means the scratch
//! stopped being reused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vartol_stats::{DiscretePdf, Moments, PdfOut};

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn fused_kernels_allocate_only_their_results() {
    const N: usize = 12;
    // A wide arrival (a rebinned sum) and a narrow gate delay, as in
    // FULLSSTA, plus a second arrival for the max.
    let arrival = DiscretePdf::from_normal(500.0, 30.0, N)
        .add_rebinned(&DiscretePdf::from_normal(40.0, 9.0, N), N);
    let delay = DiscretePdf::from_normal(12.0, 1.5, N);
    let other = DiscretePdf::from_normal(520.0, 25.0, N);
    let target = Moments::from_mean_std(530.0, 24.0);
    assert_eq!((arrival.len(), delay.len(), other.len()), (N, N, N));

    // Warm-up: the first call sizes this thread's scratch.
    let _ = arrival.add_rebinned(&delay, N);
    let _ = arrival.max_with_moments(&other, target, N);
    let _ = DiscretePdf::from_moments(target, N);
    let mut stride = vec![0.0; 2 * N];

    for round in 0..3 {
        let (normal, allocs) = counted(|| DiscretePdf::from_moments(target, N));
        assert_eq!(normal.len(), N);
        assert_eq!(allocs, 2, "from_moments, round {round}");

        let (sum, allocs) = counted(|| arrival.add_rebinned(&delay, N));
        assert_eq!(sum.len(), N);
        assert_eq!(allocs, 2, "add_rebinned, round {round}");

        let (max, allocs) = counted(|| arrival.max_with_moments(&other, target, N));
        assert_eq!(max.len(), N);
        assert_eq!(allocs, 2, "max_with_moments, round {round}");

        let (max, allocs) = counted(|| arrival.max_rebinned(&other, N));
        assert_eq!(max.len(), N);
        assert_eq!(allocs, 2, "max_rebinned, round {round}");

        // The slice forms write into the caller's stride.
        let (len, allocs) = counted(|| PdfOut::new(&mut stride).from_moments(target, N).len());
        assert_eq!((len, allocs), (N, 0), "slice from_moments, round {round}");
        let (len, allocs) = counted(|| {
            PdfOut::new(&mut stride)
                .add_rebinned(arrival.view(), delay.view(), N)
                .len()
        });
        assert_eq!((len, allocs), (N, 0), "slice add_rebinned, round {round}");
        let (len, allocs) = counted(|| {
            PdfOut::new(&mut stride)
                .max_with_moments(arrival.view(), other.view(), target, N)
                .len()
        });
        assert_eq!(
            (len, allocs),
            (N, 0),
            "slice max_with_moments, round {round}"
        );
        let (len, allocs) = counted(|| {
            PdfOut::new(&mut stride)
                .max_rebinned(arrival.view(), other.view(), N)
                .len()
        });
        assert_eq!((len, allocs), (N, 0), "slice max_rebinned, round {round}");
    }

    // Inputs past the retained scratch get scratch of their own and
    // leave the thread's scratch as it was.
    let wide = DiscretePdf::from_normal(500.0, 30.0, 40);
    let _ = wide.add_rebinned(&delay, N);
    let (_, allocs) = counted(|| arrival.add_rebinned(&delay, N));
    assert_eq!(allocs, 2, "add_rebinned after a large convolution");
}
