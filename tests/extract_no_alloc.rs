//! `BinaryExtractor::extract` must not touch the heap on payloads it sheds:
//! most of what reaches extraction is text that yields no frame, and the
//! byte-class pass and the table-driven sled walk read it in place. A
//! counting global allocator holds that to zero allocations. This file
//! holds one test so that nothing else allocates on the thread while the
//! count is taken.

use snids::extract::BinaryExtractor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter is a `const`-initialised
// `Cell<usize>` (no lazy allocation, no destructor), so counting never
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, and
        // the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn extract_allocates_nothing_on_shed_text() {
    // The state-exhaustion flood's text at every salt (uppercase runs are
    // NOP-like, `d`/`e`/`.` are prefixes), prose with prefix pairs (`ed`,
    // `de`, `ee`), and benign HTTP requests with and without a body.
    const FLOOD: &[u8] = b"GET /state-exhaustion-flood HTTP/1.0\r\nHost: overload\r\n\r\n";
    let mut payloads: Vec<Vec<u8>> = (0..FLOOD.len())
        .map(|salt| (0..1536).map(|j| FLOOD[(salt + j) % FLOOD.len()]).collect())
        .collect();
    payloads.push(
        b"Indeed, the deed needed seeding; feed the geese. A REPLY WAS SENT 3x & 6x > 0."
            .repeat(12),
    );
    payloads.push(b"GET /search?q=hello+world&lang=en HTTP/1.1\r\nHost: s\r\n\r\n".to_vec());
    payloads.push(
        b"POST /form HTTP/1.0\r\nContent-Type: text/plain\r\n\r\nname=alice&age=30&note=ok"
            .to_vec(),
    );
    let extractor = BinaryExtractor::default();

    let before = ALLOCATIONS.with(Cell::get);
    let mut frames = 0usize;
    for payload in &payloads {
        frames += std::hint::black_box(extractor.extract(payload)).len();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(frames, 0, "the payloads are shed");
    assert_eq!(allocations, 0, "extract allocated on shed text");
}
