//! Decoder golden table: `golden_decode.tsv` records, for one example of
//! every instruction form `snids-gen`'s assembler, shellcode variants and
//! polymorphic engines emit, what the decoder makes of the bytes — length,
//! mnemonic and operands. The decoder has no independent oracle, so this is
//! the lock a change to its storage or its tables is held against: the
//! table was recorded at the commit before operands moved inline.
//!
//! To re-record after a deliberate decoder change:
//! `cargo test -p snids-x86 --test golden -- --ignored record`

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids_gen::asm::{Asm, R};
use snids_gen::{shellcode, AdmMutate, Clet, DecoderFamily};
use snids_x86::{decode, Instruction, Mnemonic, Operand};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const TABLE: &str = include_str!("golden_decode.tsv");

/// Where `record` writes the table: beside this file, whichever package
/// compiled it (the suite also runs from the workspace root's `tests/`).
fn table_path() -> std::path::PathBuf {
    let beside = std::path::Path::new(file!()).with_file_name("golden_decode.tsv");
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join(&beside))
        .find(|path| path.exists())
        .unwrap_or(beside)
}

/// Generated code as `(bytes, length of the code region)`; what follows the
/// code region is encoded payload and padding, not instructions.
fn emitted() -> Vec<(Vec<u8>, usize)> {
    let mut out = Vec::new();
    let whole = |bytes: Vec<u8>| {
        let len = bytes.len();
        (bytes, len)
    };

    // Every `Asm` emitter, over every register it accepts.
    let each = |emit: &dyn Fn(&mut Asm, R)| -> Vec<(Vec<u8>, usize)> {
        R::POINTERS
            .into_iter()
            .map(|r| {
                let mut a = Asm::new();
                emit(&mut a, r);
                whole(a.finish())
            })
            .collect()
    };
    let low = |r: R| if r.idx() < 4 { r } else { R::Ebx };
    out.extend(each(&|a, r| {
        a.nop().mov_imm(r, 0xbfff_e000).mov_imm8(low(r), 0x0b);
        a.mov_rr(r, R::Esp).load8(low(r), r).store8(r, low(r));
        a.xor_mem_imm8(r, 0x95)
            .xor_mem_r8(r, low(r))
            .add_mem_imm8(r, 3);
        a.xor_rr(r, r)
            .xor_rr(r, R::Eax)
            .add_imm8(r, -4)
            .add_imm32(r, 0x1234_5678);
        a.add_r8_imm8(low(r), 1).or_r8_imm8(low(r), 0xa0);
        a.and_r8_imm8(low(r), 0xcf)
            .xor_r8_imm8(low(r), 0x55)
            .not_r8(low(r));
        a.inc(r).dec(r).lea_advance(r, 4).sub_imm8(r, -1);
        a.push_imm32(0x6e69_622f).push_imm8(0x0b).push(r).pop(r);
        a.int(0x80).cmp_rr(r, R::Ecx).cdq();
        a.loop_to(0).jnz_to(0);
    }));
    out.extend(each(&|a, _| {
        let fix = a.jmp_fwd();
        a.patch_fwd(fix);
        a.jmp_to(0);
    }));

    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Asm::new();
        a.sled(&mut rng, 64, &[]);
        out.push(whole(a.finish()));

        let inner = shellcode::execve_variant(&mut rng, seed as usize);
        out.push(whole(inner.clone()));
        for family in [DecoderFamily::Xor, DecoderFamily::LoadStore] {
            let bytes = AdmMutate::default().generate_family(&mut rng, &inner, family);
            let code = bytes.len() - inner.len();
            out.push((bytes, code));
        }
        let clet = Clet {
            padding_ratio: 0.0,
            ..Clet::default()
        };
        let bytes = clet.generate(&mut rng, &inner);
        let code = bytes.len() - inner.len();
        out.push((bytes, code));
    }
    let mut rng = StdRng::seed_from_u64(0);
    out.push(whole(shellcode::bind_shell(&mut rng, 4444)));
    out.push(whole(shellcode::reverse_shell(
        &mut rng,
        [10, 0, 0, 1],
        4444,
    )));
    out
}

/// The instructions a generated buffer executes: straight through its code
/// region, following forward `jmp`s over the garbage bytes the engines
/// plant behind them.
fn executed(bytes: &[u8], code_len: usize) -> Vec<Instruction> {
    let mut insns = Vec::new();
    let mut pos = 0;
    while pos < code_len {
        let insn = decode(bytes, pos);
        pos = match insn.branch_target() {
            Some(t) if insn.mnemonic == Mnemonic::Jmp && t as usize > pos => t as usize,
            _ => insn.end(),
        };
        insns.push(insn);
    }
    insns
}

/// An instruction form: prefix and opcode bytes, mnemonic, operand shapes.
fn form(bytes: &[u8], insn: &Instruction) -> String {
    const PREFIXES: [u8; 11] = [
        0xf0, 0xf2, 0xf3, 0x2e, 0x36, 0x3e, 0x26, 0x64, 0x65, 0x66, 0x67,
    ];
    let mut opcode = bytes
        .iter()
        .position(|b| !PREFIXES.contains(b))
        .expect("an opcode follows the prefixes");
    if bytes[opcode] == 0x0f {
        opcode += 1;
    }
    let mut key = hex(&bytes[..=opcode.min(bytes.len() - 1)]);
    let _ = write!(key, " {:?}", insn.mnemonic);
    for op in insn.operands.iter() {
        let _ = match op {
            Operand::Reg(r) => write!(key, " reg.{:?}", r.width),
            Operand::Imm(_, w) => write!(key, " imm.{w:?}"),
            Operand::Mem(m) => write!(key, " mem.{:?}", m.width),
            Operand::Rel(_) => write!(key, " rel"),
            Operand::Far { .. } => write!(key, " far"),
            Operand::SegReg(_) => write!(key, " sreg"),
        };
    }
    key
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// One table row: what decoding `bytes` at offset 0 yields.
fn row(bytes: &[u8]) -> String {
    let insn = decode(bytes, 0);
    format!(
        "{}\t{}\t{:?}\t{:?}",
        hex(bytes),
        insn.len,
        insn.mnemonic,
        insn.operands
    )
}

fn table_rows() -> impl Iterator<Item = &'static str> {
    TABLE.lines().filter(|l| !l.starts_with('#'))
}

#[test]
fn table_rows_decode_as_recorded() {
    let mut rows = 0;
    for line in table_rows() {
        let bytes = unhex(line.split('\t').next().expect("a bytes column"));
        assert_eq!(row(&bytes), line);
        assert_eq!(usize::from(decode(&bytes, 0).len), bytes.len());
        rows += 1;
    }
    assert!(rows >= 60, "the table has shrunk to {rows} rows");
}

#[test]
fn table_covers_every_form_the_generators_emit() {
    let recorded: Vec<String> = table_rows()
        .map(|line| {
            let bytes = unhex(line.split('\t').next().expect("a bytes column"));
            form(&bytes, &decode(&bytes, 0))
        })
        .collect();
    for (bytes, code_len) in emitted() {
        for insn in executed(&bytes, code_len) {
            let raw = &bytes[insn.offset..insn.end()];
            assert_ne!(insn.mnemonic, Mnemonic::Bad, "generators emit valid code");
            let form = form(raw, &insn);
            assert!(
                recorded.contains(&form),
                "no golden row for `{form}` ({})",
                hex(raw)
            );
        }
    }
}

/// Rewrite the table: the first example of every form, in form order.
#[test]
#[ignore = "rewrites tests/golden_decode.tsv"]
fn record() {
    let mut examples: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for (bytes, code_len) in emitted() {
        for insn in executed(&bytes, code_len) {
            let raw = &bytes[insn.offset..insn.end()];
            examples
                .entry(form(raw, &insn))
                .or_insert_with(|| raw.to_vec());
        }
    }
    let mut table = String::from("# bytes\tlength\tmnemonic\toperands — see golden.rs\n");
    for raw in examples.values() {
        table.push_str(&row(raw));
        table.push('\n');
    }
    std::fs::write(table_path(), table).expect("the table is writable");
}
