//! The paper's Figure 1, live: three syntactically different spellings of
//! one decryption routine, shown as bytes, disassembly, IR trace, and the
//! single behavioural template that matches all three.
//!
//! ```sh
//! cargo run --release --example figure1_equivalents
//! ```

use snids::ir::trace_from;
use snids::semantic::{match_template, templates};
use snids::x86::{fmt, linear_sweep};

fn figure_1a() -> Vec<u8> {
    vec![
        0x80, 0x30, 0x95, // xor byte ptr [eax], 95h
        0x40, // inc eax
        0xe2, 0xfa, // loop decode
    ]
}

fn figure_1b() -> Vec<u8> {
    vec![
        0xbb, 0x31, 0x00, 0x00, 0x00, // mov ebx, 31h
        0x83, 0xc3, 0x64, // add ebx, 64h
        0x30, 0x18, // xor byte ptr [eax], bl
        0x83, 0xc0, 0x01, // add eax, 1
        0xe2, 0xf1, // loop decode
    ]
}

fn figure_1c() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&[0xb9, 0, 0, 0, 0]); // decode: mov ecx, 0
    b.extend_from_slice(&[0x41, 0x41]); //         inc ecx; inc ecx
    b.extend_from_slice(&[0xeb, 0x05]); //         jmp one
    b.extend_from_slice(&[0x83, 0xc0, 0x01]); // two: add eax, 1
    b.extend_from_slice(&[0xeb, 0x0c]); //         jmp three
    b.extend_from_slice(&[0xbb, 0x31, 0, 0, 0]); // one: mov ebx, 31h
    b.extend_from_slice(&[0x83, 0xc3, 0x64]); //   add ebx, 64h
    b.extend_from_slice(&[0x30, 0x18]); //         xor byte ptr [eax], bl
    b.extend_from_slice(&[0xeb, 0xef]); //         jmp two
    b.extend_from_slice(&[0xe2, 0xe4]); // three: loop decode
    b
}

fn main() {
    let template = templates::builtin("xor-decrypt-loop").expect("built-in template");
    println!("=== the behavioural template (paper Figure 2 style) ===\n");
    println!("{}", template.pretty());

    for (name, code) in [
        ("Figure 1(a): plain xor decoder", figure_1a()),
        ("Figure 1(b): key built by mov+add, inc -> add", figure_1b()),
        ("Figure 1(c): out-of-order with jmp stitching", figure_1c()),
    ] {
        println!("=== {name} ===");
        let insns = linear_sweep(&code);
        println!("{}", fmt::listing(&code, &insns));

        let trace = trace_from(&code, 0, 4096);
        println!("execution-order IR (constants folded):");
        for op in &trace.ops {
            println!("    {op}");
        }

        let mut budget = 1_000_000;
        match match_template(&trace, &template, &mut budget) {
            Some(info) => {
                let regs: Vec<String> = info
                    .bindings
                    .regs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, g)| g.map(|g| format!("X{i} = {g:?}")))
                    .collect();
                println!(
                    "  ⊨ MATCHES ({}), bindings: {}\n",
                    template.name,
                    regs.join(", ")
                );
            }
            None => {
                println!("  ✗ no match\n");
                std::process::exit(1);
            }
        }
    }
    println!("one template, three spellings — behaviour, not syntax.");
}
