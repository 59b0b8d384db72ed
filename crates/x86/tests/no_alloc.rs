//! `decode` must not touch the heap: it runs at every byte offset of every
//! frame (start discovery). A counting global allocator holds it to zero
//! allocations. This file holds one test
//! so that nothing else allocates on the thread while the count is taken.

use snids_x86::decode;
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
fn decode_performs_no_heap_allocation() {
    // Every two-byte opening (so every opcode, the whole 0F map and every
    // ModRM shape), followed by enough bytes for SIB, displacement and
    // immediate; plus every legacy prefix in front of each opcode.
    let mut buf = Vec::new();
    for first in 0..=255u8 {
        for second in 0..=255u8 {
            buf.extend_from_slice(&[first, second, 0x24, 0x95, 0x40, 0xe2, 0xfa, 0x01, 0x02]);
        }
    }
    for prefix in [0x66u8, 0x67, 0xf0, 0xf2, 0xf3, 0x2e, 0x64] {
        for opcode in 0..=255u8 {
            buf.extend_from_slice(&[prefix, opcode, 0x84, 0x88, 1, 2, 3, 4, 5, 6, 7, 8]);
        }
    }

    let before = ALLOCATIONS.with(Cell::get);
    let mut operands = 0usize;
    for off in 0..buf.len() {
        operands += std::hint::black_box(decode(&buf, off)).operands.len();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        operands > buf.len() / 2,
        "the buffer decodes to real operands"
    );
    assert_eq!(allocations, 0, "decode allocated");
}
