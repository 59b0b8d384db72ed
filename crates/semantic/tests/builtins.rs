//! The built-in templates, parsed from `builtin.tmpl`, are exactly the
//! set the detector has always shipped: names, descriptions, order, ops,
//! severities and gaps are pinned by a hash of their `Debug` rendering.

use snids_semantic::templates::{builtin, default_templates, xor_only_templates};

/// FNV-1a, 64-bit.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn builtins_match_their_pinned_debug_hash() {
    let all = format!("{:?}", default_templates());
    assert_eq!(
        (fnv1a64(&all), all.len()),
        (0x390a_2e3c_8e60_6d3e, 2919),
        "{all}"
    );
    let xor = format!("{:?}", xor_only_templates());
    assert_eq!(
        (fnv1a64(&xor), xor.len()),
        (0x3761_d84c_a722_ce2d, 526),
        "{xor}"
    );
}

#[test]
fn builtin_looks_up_by_name() {
    for t in default_templates() {
        assert_eq!(builtin(t.name), Some(t.clone()));
        let p = t.pretty();
        assert!(p.contains(t.name) && p.lines().count() >= 3, "{p}");
    }
    assert_eq!(builtin("no-such-template"), None);
}
