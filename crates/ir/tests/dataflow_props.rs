//! Property-based tests for the dataflow static-analysis pass: the pass
//! is total over arbitrary attacker bytes, terminates inside its budget,
//! and its result tables are internally consistent prefixes.

use proptest::prelude::*;
use snids_ir::{dataflow, trace_from, AbsVal, Dataflow, DataflowBudget};
use snids_x86::Gpr;

/// Every structural invariant a [`Dataflow`] must satisfy, whatever fed it.
fn assert_well_formed(df: &Dataflow, budget: &DataflowBudget) {
    let n = df.analyzed_ops();
    assert!(n <= budget.max_ops);
    assert!(df.links.len() <= budget.max_links);
    for l in &df.links {
        assert!(l.use_at < n, "use past the analyzed prefix");
        if let Some(d) = l.def {
            assert!(
                d < l.use_at,
                "def {d} must strictly precede use {}",
                l.use_at
            );
        }
    }
    for span in &df.loops {
        assert!(span.head <= span.back);
        assert!(span.back < n);
    }
    for w in &df.mem_writes {
        assert!(w.idx < n);
    }
    for a in &df.advances {
        assert!(a.idx < n);
        assert!((1..=16).contains(&a.step));
    }
    // Def chains are acyclic by construction (defs precede uses), so a
    // bounded walk from any point terminates without revisiting an index.
    for idx in 0..n {
        for g in Gpr::ALL {
            let chain = df.def_chain(idx, g, 64);
            assert!(chain.len() <= 64);
            for pair in chain.windows(2) {
                assert!(pair[1] < pair[0], "chain must strictly descend");
            }
        }
    }
}

proptest! {
    /// Analyzing a trace of arbitrary bytes never panics, terminates, and
    /// yields well-formed tables.
    #[test]
    fn analyze_is_total(
        buf in proptest::collection::vec(any::<u8>(), 0..512),
        start in 0usize..512,
    ) {
        let t = trace_from(&buf, start.min(buf.len()), 1024);
        let budget = DataflowBudget::default();
        let df = dataflow::analyze(&t, &budget);
        prop_assert!(df.analyzed_ops() <= t.ops.len());
        assert_well_formed(&df, &budget);
    }

    /// A tiny budget bounds the work and raises the exhaustion flag
    /// exactly when ops were left unexamined — the signal the pipeline
    /// counts under `drop.dataflow_exhausted`.
    #[test]
    fn budget_bounds_work_and_flags_exhaustion(
        buf in proptest::collection::vec(any::<u8>(), 32..512),
        max_ops in 1usize..48,
        max_links in 1usize..32,
    ) {
        let t = trace_from(&buf, 0, 1024);
        let budget = DataflowBudget { max_ops, max_links };
        let df = dataflow::analyze(&t, &budget);
        assert_well_formed(&df, &budget);
        if t.ops.len() > max_ops {
            prop_assert!(df.exhausted, "unexamined ops must flag exhaustion");
        }
        // Queries beyond the analyzed prefix answer conservatively
        // instead of panicking.
        prop_assert_eq!(df.val_at(usize::MAX, Gpr::Eax), AbsVal::Unknown);
        prop_assert_eq!(df.def_at(usize::MAX, Gpr::Eax), None);
    }

    /// `mov r32, imm` makes the register Const at every later point until
    /// something rewrites it; the reaching def is the mov.
    #[test]
    fn mov_imm_pins_a_constant(v in any::<u32>(), reg_i in 0u8..8, pad in 0usize..8) {
        let reg = Gpr::from_index(reg_i);
        if reg == Gpr::Esp {
            // Stack-pointer moves interact with the abstract stack model;
            // the lattice claim under test is about plain data registers.
            return Ok(());
        }
        let mut code = vec![0xb8 + reg.index()];
        code.extend_from_slice(&v.to_le_bytes());
        code.extend(std::iter::repeat_n(0x90, pad));
        code.push(0x50 + reg.index()); // push r: a read of r at the end
        let t = trace_from(&code, 0, 64);
        let df = dataflow::analyze(&t, &DataflowBudget::default());
        let last = t.ops.len() - 1;
        prop_assert_eq!(df.val_at(last, reg), AbsVal::Const(v));
        prop_assert_eq!(df.def_at(last, reg), Some(0));
    }

    /// Growing the budget never invalidates earlier results: the smaller
    /// run's tables are a prefix of the larger run's.
    #[test]
    fn results_are_prefix_stable(
        buf in proptest::collection::vec(any::<u8>(), 16..256),
        small in 4usize..32,
    ) {
        let t = trace_from(&buf, 0, 1024);
        let lo = dataflow::analyze(&t, &DataflowBudget { max_ops: small, max_links: 1 << 16 });
        let hi = dataflow::analyze(&t, &DataflowBudget::default());
        for idx in 0..lo.analyzed_ops() {
            for g in Gpr::ALL {
                prop_assert_eq!(lo.def_at(idx, g), hi.def_at(idx, g));
            }
        }
        for (a, b) in lo.mem_writes.iter().zip(&hi.mem_writes) {
            prop_assert_eq!(a, b);
        }
    }
}
