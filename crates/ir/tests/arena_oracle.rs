//! Differential lock for the per-frame code arena: over generated exploit
//! frames, random bytes, control-flow mazes and budget-tripping frames, the
//! arena path yields the same starts, the same `exhausted` flag and the same
//! annotated ops as `snids_ir::oracle`, which decodes and lifts afresh at
//! every step of every start.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snids_gen::{codered, shellcode, AdmMutate, Clet};
use snids_ir::{oracle, FrameCode, Trace};
use snids_x86::SweepBudget;

/// Trace length caps: one that truncates almost every walk, and the default.
const MAX_OPS: [usize; 2] = [7, snids_ir::trace::MAX_TRACE_OPS];

/// A jmp/call maze: short relative branches (forwards and backwards, so
/// cycles are common), calls, conditional branches, returns and filler.
fn maze(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + 8);
    while buf.len() < len {
        match rng.gen_range(0..8) {
            0 | 1 => buf.extend_from_slice(&[0xeb, rng.gen_range(-24i8..24) as u8]),
            2 => {
                buf.push(0xe8);
                buf.extend_from_slice(&rng.gen_range(-40i32..40).to_le_bytes());
            }
            3 => buf.extend_from_slice(&[0x75, rng.gen_range(-16i8..16) as u8]),
            4 => buf.extend_from_slice(&[0xe2, rng.gen_range(-16i8..0) as u8]),
            5 => buf.push(if rng.gen_bool(0.2) { 0xc3 } else { 0x90 }),
            6 => buf.extend_from_slice(&[0xb8 + rng.gen_range(0..8u8), rng.gen(), 0, 0, 0]),
            _ => buf.extend_from_slice(&[0x83, 0xc0 | rng.gen_range(0..8u8), rng.gen()]),
        }
    }
    buf
}

fn corpus() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0x5ca1ab1e);
    let mut frames = vec![Vec::new(), vec![0xeb, 0xfe], vec![0x0f, 0xff]];
    for i in 0..24 {
        let inner = shellcode::execve_variant(&mut rng, i % 3);
        frames.push(AdmMutate::default().generate(&mut rng, &inner).0);
        frames.push(Clet::default().generate(&mut rng, &inner));
    }
    for _ in 0..4 {
        frames.push(codered::exploit_vector(&mut rng));
    }
    for _ in 0..24 {
        let len = rng.gen_range(1..400);
        frames.push((0..len).map(|_| rng.gen()).collect());
        frames.push(maze(&mut rng, len));
    }
    frames
}

/// Budgets: unbounded, the default, and ones that trip on instructions, on
/// bytes, and on both.
fn budgets() -> Vec<SweepBudget> {
    let capped = |max_instructions, max_bytes| SweepBudget {
        max_instructions,
        max_bytes,
    };
    vec![
        SweepBudget::UNBOUNDED,
        SweepBudget::default(),
        capped(5, usize::MAX),
        capped(usize::MAX, 16),
        capped(3, 10),
        capped(0, 0),
    ]
}

fn assert_trace_agrees(frame: &[u8], trace: &Trace, start: usize, max_ops: usize) {
    let expected = oracle::trace_ops(frame, start, max_ops);
    assert_eq!(trace.start, start);
    assert_eq!(
        trace.ops, expected,
        "ops from start {start} (max {max_ops}) in {frame:02x?}"
    );
    // The offset index is exactly the set of executed offsets.
    let mut executed = vec![None; frame.len()];
    for (i, op) in trace.ops.iter().enumerate() {
        executed[op.offset] = Some(i);
    }
    for (offset, at) in executed.iter().enumerate() {
        assert_eq!(trace.index_of(offset), *at, "index of offset {offset}");
    }
    assert_eq!(trace.index_of(frame.len()), None);
}

#[test]
fn discovery_agrees_with_the_oracle() {
    let mut tripped = 0;
    for frame in corpus() {
        for budget in budgets() {
            let (_, outcome) = FrameCode::discover(&frame, &budget);
            let expected = oracle::starts(&frame, &budget);
            assert_eq!(
                outcome.starts, expected.starts,
                "{budget:?} over {frame:02x?}"
            );
            assert_eq!(outcome.exhausted, expected.exhausted, "{budget:?}");
            tripped += usize::from(outcome.exhausted);
        }
    }
    assert!(tripped > 100, "the capped budgets must trip: {tripped}");
}

#[test]
fn traces_over_a_discovered_arena_agree_with_the_oracle() {
    for frame in corpus() {
        for budget in budgets() {
            for max_ops in MAX_OPS {
                // One arena and one trace buffer for all starts, as the
                // analyzer uses them.
                let (mut code, outcome) = FrameCode::discover(&frame, &budget);
                let mut trace = Trace::default();
                for &start in &outcome.starts {
                    code.trace_into(start, max_ops, &mut trace);
                    assert_trace_agrees(&frame, &trace, start, max_ops);
                }
            }
        }
    }
}

/// What an earlier walk left in the arena, or in the reused trace buffer,
/// must not show in a later one: every offset as a start, in both orders,
/// over an arena no discovery has filled.
#[test]
fn traces_do_not_depend_on_arena_history() {
    for frame in corpus() {
        let mut code = FrameCode::new(&frame);
        let mut trace = Trace::default();
        for max_ops in MAX_OPS {
            for start in (0..=frame.len()).chain((0..=frame.len()).rev()) {
                code.trace_into(start, max_ops, &mut trace);
                assert_trace_agrees(&frame, &trace, start, max_ops);
            }
        }
    }
}

#[test]
fn one_trace_buffer_serves_frames_of_different_lengths() {
    let frames = corpus();
    let mut trace = Trace::default();
    for frame in frames.iter().chain(frames.iter().rev()) {
        FrameCode::new(frame).trace_into(0, 64, &mut trace);
        assert_trace_agrees(frame, &trace, 0, 64);
    }
}
