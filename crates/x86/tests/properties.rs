//! Property-based tests for the disassembler.

use proptest::prelude::*;
use snids_x86::{
    decode, linear_sweep, linear_sweep_budgeted, Mnemonic, Operands, SweepBudget, MAX_OPERANDS,
};

proptest! {
    /// The decoder never panics and always makes progress on arbitrary bytes.
    #[test]
    fn decode_total_on_arbitrary_bytes(buf in proptest::collection::vec(any::<u8>(), 1..64)) {
        let insn = decode(&buf, 0);
        prop_assert!(insn.len >= 1);
        prop_assert!(usize::from(insn.len) <= buf.len() || insn.mnemonic == Mnemonic::Bad);
    }

    /// A linear sweep partitions the buffer: consecutive, non-overlapping,
    /// exhaustive.
    #[test]
    fn sweep_partitions_buffer(buf in proptest::collection::vec(any::<u8>(), 0..512)) {
        let insns = linear_sweep(&buf);
        let mut pos = 0usize;
        for i in &insns {
            prop_assert_eq!(i.offset, pos, "instructions must be consecutive");
            prop_assert!(i.len >= 1);
            pos = i.end();
        }
        prop_assert_eq!(pos, buf.len(), "sweep must cover the whole buffer");
    }

    /// Decoding is deterministic and offset-translation-invariant: the same
    /// bytes at a different offset give the same instruction (modulo offset
    /// and relative-target rebasing).
    #[test]
    fn decode_is_translation_invariant(
        buf in proptest::collection::vec(any::<u8>(), 1..32),
        pad in 1usize..16,
    ) {
        let a = decode(&buf, 0);
        let mut shifted = vec![0x90u8; pad];
        shifted.extend_from_slice(&buf);
        let b = decode(&shifted, pad);
        prop_assert_eq!(a.mnemonic, b.mnemonic);
        prop_assert_eq!(a.len, b.len);
        prop_assert_eq!(b.offset, a.offset + pad);
        // Non-relative operands must be identical.
        for (x, y) in a.operands.iter().zip(&b.operands) {
            match (x, y) {
                (snids_x86::Operand::Rel(tx), snids_x86::Operand::Rel(ty)) => {
                    prop_assert_eq!(tx + pad as i64, *ty);
                }
                _ => prop_assert_eq!(x, y),
            }
        }
    }

    /// Formatting any decoded instruction never panics and is non-empty.
    #[test]
    fn display_total(buf in proptest::collection::vec(any::<u8>(), 1..32)) {
        let insn = decode(&buf, 0);
        let s = insn.to_string();
        prop_assert!(!s.is_empty());
    }

    /// Read/write set computation is total.
    #[test]
    fn semantics_total(buf in proptest::collection::vec(any::<u8>(), 1..32)) {
        let insn = decode(&buf, 0);
        let _ = snids_x86::semantics::reads(&insn);
        let _ = snids_x86::semantics::writes(&insn);
        let _ = snids_x86::semantics::is_nop_like(&insn);
        let _ = snids_x86::semantics::is_effective_nop(&insn);
    }

    /// A budgeted sweep is an exact prefix of the full sweep, never emits
    /// more instructions than allowed, and reports exhaustion precisely
    /// when input was left unexamined.
    #[test]
    fn budgeted_sweep_is_a_prefix_with_honest_exhaustion(
        buf in proptest::collection::vec(any::<u8>(), 0..512),
        max_instructions in 1usize..64,
        max_bytes in 1usize..512,
    ) {
        let full = linear_sweep(&buf);
        let out = linear_sweep_budgeted(&buf, &SweepBudget { max_instructions, max_bytes });
        prop_assert!(out.instructions.len() <= max_instructions);
        prop_assert_eq!(&out.instructions[..], &full[..out.instructions.len()]);
        prop_assert_eq!(out.exhausted, out.instructions.len() < full.len());
    }

    /// The inline operand list is the list the formatted listing prints —
    /// no filler slot shows, none of the operands is lost — and it
    /// survives being rebuilt from its own slice.
    #[test]
    fn inline_operands_are_what_the_listing_prints(
        buf in proptest::collection::vec(any::<u8>(), 1..32),
        off in 0usize..32,
    ) {
        let insn = decode(&buf, off % buf.len());
        prop_assert!(insn.operands.len() <= MAX_OPERANDS);
        let mut listed = String::new();
        for (i, op) in insn.operands.iter().enumerate() {
            listed += if i == 0 { " " } else { ", " };
            listed += &op.to_string();
        }
        let text = insn.to_string();
        let expected = format!("{}{listed}", snids_x86::fmt::mnemonic_str(&insn));
        prop_assert!(text.ends_with(&expected), "`{}` vs `{}`", text, expected);
        prop_assert_eq!(insn.op0(), insn.operands.first());
        prop_assert_eq!(insn.op1(), insn.operands.get(1));
        let rebuilt = match *insn.operands {
            [] => Operands::EMPTY,
            [a] => [a].into(),
            [a, b] => [a, b].into(),
            [a, b, c] => [a, b, c].into(),
            _ => unreachable!("more than MAX_OPERANDS operands"),
        };
        prop_assert_eq!(rebuilt, insn.operands);
    }
}

/// Decoding is unchanged by the operands moving inline: every offset of a
/// seeded random buffer decodes to an instruction whose `Debug` rendering
/// hashes to the value recorded at the commit before the move (721a99d).
#[test]
fn random_bytes_decode_as_before_the_operands_moved_inline() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0dec0de);
    let buf: Vec<u8> = (0..16 * 1024).map(|_| rng.gen()).collect();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for off in 0..buf.len() {
        for byte in format!("{:?}", decode(&buf, off)).bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(hash, RANDOM_DECODE_DIGEST, "digest is now {hash:#018x}");
}

const RANDOM_DECODE_DIGEST: u64 = 0x5d76_213e_9d90_daa6;
