//! A small text language for authoring templates at deployment time.
//!
//! The paper's future work is to "classify more exploit behaviors so that
//! we can generate additional useful templates" — which only helps a
//! deployed sensor if new templates load without recompiling. This module
//! parses a line-oriented description into [`Template`]s:
//!
//! ```text
//! # the Figure-2 decryption loop
//! template my-decoder severity=high gap=8
//!   storexform X ops=xor,add src=any
//!   advance X
//!   loopback
//!
//! template my-shell severity=high
//!   const "/bin" | "//sh"
//!   const "/bin" | "//sh"
//!   syscall 0x80 eax=0xb
//! ```
//!
//! Variables are `X`, `Y`, `Z`, `W` (register variables 0–3). Constants
//! accept hex (`0x…`), decimal, or a quoted 1–4 byte ASCII string
//! (little-endian, as pushed immediates spell it).
//!
//! A `describe <text>` line inside a template sets the description alerts
//! carry to the rest of the line; without one it reads "user template
//! `NAME` (loaded from DSL)". Each header and step accepts only the
//! `key=value` options shown above, and a `syscall` vector is one byte
//! (`0x00`–`0xff`): anything else is an error, not a silent default.
//!
//! The nine built-in templates are written in this language, in
//! `builtin.tmpl` next to this module: it is the reference example.
//!
//! Loaded template names are interned for the process lifetime (templates
//! are loaded once at sensor startup).

use crate::pattern::{PatOp, PatValue, Severity, Template, VarId, XformOp};
use snids_ir::BinKind;
use std::fmt;

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// Line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

fn err(line: usize, message: impl Into<String>) -> DslError {
    DslError {
        line,
        message: message.into(),
    }
}

fn parse_var(tok: &str, line: usize) -> Result<VarId, DslError> {
    match tok {
        "X" => Ok(VarId(0)),
        "Y" => Ok(VarId(1)),
        "Z" => Ok(VarId(2)),
        "W" => Ok(VarId(3)),
        other => Err(err(
            line,
            format!("unknown variable `{other}` (use X/Y/Z/W)"),
        )),
    }
}

/// Parse a constant: hex, decimal, or a quoted ≤4-byte ASCII string
/// (little-endian dword, the way `push "/bin"` encodes it).
fn parse_const(tok: &str, line: usize) -> Result<u32, DslError> {
    if let Some(q) = tok.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        if q.is_empty() || q.len() > 4 || !q.is_ascii() {
            return Err(err(
                line,
                format!("string constant must be 1-4 ASCII bytes: {tok}"),
            ));
        }
        let mut b = [0u8; 4];
        b[..q.len()].copy_from_slice(q.as_bytes());
        return Ok(u32::from_le_bytes(b));
    }
    let parsed = if let Some(h) = tok.strip_prefix("0x") {
        u32::from_str_radix(h, 16)
    } else {
        tok.parse()
    };
    parsed.map_err(|_| err(line, format!("bad constant `{tok}`")))
}

fn parse_bin_kind(tok: &str, line: usize) -> Result<BinKind, DslError> {
    Ok(match tok {
        "xor" => BinKind::Xor,
        "add" => BinKind::Add,
        "sub" => BinKind::Sub,
        "or" => BinKind::Or,
        "and" => BinKind::And,
        "rol" => BinKind::Rol,
        "ror" => BinKind::Ror,
        "shl" => BinKind::Shl,
        "shr" => BinKind::Shr,
        other => return Err(err(line, format!("unknown operator `{other}`"))),
    })
}

fn parse_xform_ops(spec: &str, line: usize) -> Result<Vec<XformOp>, DslError> {
    spec.split(',')
        .map(|t| match t {
            "not" => Ok(XformOp::Not),
            "neg" => Ok(XformOp::Neg),
            other => parse_bin_kind(other, line).map(XformOp::Bin),
        })
        .collect()
}

/// `key=value` lookup over the remaining tokens of a line.
fn kv<'a>(tokens: &'a [&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// Reject any token after a line's positional arguments that is not a
/// `key=value` option the line defines, or that repeats one.
fn check_keys(tokens: &[&str], keys: &[&str], line: usize) -> Result<(), DslError> {
    fn key(t: &str) -> Option<&str> {
        t.split_once('=').map(|(k, _)| k)
    }
    for (i, t) in tokens.iter().enumerate() {
        match key(t) {
            Some(k) if !keys.contains(&k) => {
                return Err(err(line, format!("unknown option `{t}`")))
            }
            Some(k) if tokens[..i].iter().any(|p| key(p) == Some(k)) => {
                return Err(err(line, format!("option `{k}` given twice")))
            }
            Some(_) => {}
            None => return Err(err(line, format!("unexpected `{t}`"))),
        }
    }
    Ok(())
}

/// Parse a whole template file.
pub fn parse(input: &str) -> Result<Vec<Template>, DslError> {
    let mut templates: Vec<Template> = Vec::new();
    let mut current: Option<Template> = None;

    for (i, raw) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "template" => {
                if let Some(t) = current.take() {
                    finish_template(t, line_no, &mut templates)?;
                }
                let (args, opts) = line_args(&tokens, 1, &["severity", "gap"], "a name", line_no)?;
                let name = args[0];
                let severity = match kv(opts, "severity") {
                    None | Some("high") => Severity::High,
                    Some("medium") => Severity::Medium,
                    Some("info") => Severity::Info,
                    Some(other) => return Err(err(line_no, format!("unknown severity `{other}`"))),
                };
                let max_gap = match kv(opts, "gap") {
                    None => None,
                    Some(g) => Some(
                        g.parse()
                            .map_err(|_| err(line_no, format!("bad gap `{g}`")))?,
                    ),
                };
                current = Some(Template {
                    name: Box::leak(name.to_string().into_boxed_str()),
                    description: "",
                    ops: Vec::new(),
                    severity,
                    max_gap,
                });
            }
            "describe" => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| err(line_no, "describe before any `template` header"))?;
                let text = line["describe".len()..].trim();
                if text.is_empty() {
                    return Err(err(line_no, "describe needs a description"));
                }
                if !t.description.is_empty() {
                    return Err(err(
                        line_no,
                        format!("template `{}` described twice", t.name),
                    ));
                }
                t.description = Box::leak(text.to_string().into_boxed_str());
            }
            step => {
                let t = current
                    .as_mut()
                    .ok_or_else(|| err(line_no, "step before any `template` header"))?;
                t.ops.push(parse_step(step, &tokens, line_no)?);
            }
        }
    }
    if let Some(t) = current.take() {
        finish_template(t, input.lines().count(), &mut templates)?;
    }
    Ok(templates)
}

fn finish_template(mut t: Template, line: usize, out: &mut Vec<Template>) -> Result<(), DslError> {
    if t.ops.is_empty() {
        return Err(err(line, format!("template `{}` has no steps", t.name)));
    }
    if out.iter().any(|o| o.name == t.name) {
        return Err(err(line, format!("duplicate template name `{}`", t.name)));
    }
    if t.description.is_empty() {
        t.description =
            Box::leak(format!("user template `{}` (loaded from DSL)", t.name).into_boxed_str());
    }
    out.push(t);
    Ok(())
}

/// A line's `n` positional arguments and the options after them, which
/// must be among `keys`.
fn line_args<'a>(
    tokens: &'a [&'a str],
    n: usize,
    keys: &[&str],
    usage: &str,
    line: usize,
) -> Result<(&'a [&'a str], &'a [&'a str]), DslError> {
    let (args, opts) = tokens[1..]
        .split_at_checked(n)
        .ok_or_else(|| err(line, format!("{} needs {usage}", tokens[0])))?;
    check_keys(opts, keys, line)?;
    Ok((args, opts))
}

fn parse_step(step: &str, tokens: &[&str], line: usize) -> Result<PatOp, DslError> {
    match step {
        "storexform" => {
            let (args, opts) = line_args(tokens, 1, &["ops", "src"], "a variable", line)?;
            let addr = parse_var(args[0], line)?;
            let ops = match kv(opts, "ops") {
                Some(spec) => spec
                    .split(',')
                    .map(|t| parse_bin_kind(t, line))
                    .collect::<Result<Vec<_>, _>>()?,
                None => vec![BinKind::Xor, BinKind::Add],
            };
            let src = match kv(opts, "src") {
                None | Some("any") => PatValue::Any,
                Some("known") => PatValue::KnownConst(0),
                Some(c) => PatValue::Const(parse_const(c, line)?),
            };
            Ok(PatOp::StoreXform { ops, addr, src })
        }
        "loadfrom" => {
            let (args, _) = line_args(tokens, 2, &[], "DST ADDR", line)?;
            let dst = parse_var(args[0], line)?;
            let addr = parse_var(args[1], line)?;
            Ok(PatOp::LoadFrom { dst, addr })
        }
        "storeto" => {
            let (args, _) = line_args(tokens, 2, &[], "ADDR SRC", line)?;
            let addr = parse_var(args[0], line)?;
            let src = parse_var(args[1], line)?;
            Ok(PatOp::StoreTo { addr, src })
        }
        "xform" => {
            let (args, opts) = line_args(tokens, 1, &["ops"], "a variable", line)?;
            let dst = parse_var(args[0], line)?;
            let ops = parse_xform_ops(
                kv(opts, "ops").unwrap_or("xor,or,and,add,not,neg,rol,ror,shl,shr"),
                line,
            )?;
            Ok(PatOp::XformMany { ops, dst })
        }
        "advance" => {
            let (args, _) = line_args(tokens, 1, &[], "a variable", line)?;
            let addr = parse_var(args[0], line)?;
            Ok(PatOp::Advance { addr })
        }
        "loopback" => {
            line_args(tokens, 0, &[], "", line)?;
            Ok(PatOp::LoopBack)
        }
        "const" => {
            let rest = tokens[1..].join(" ");
            let vals = rest
                .split('|')
                .map(|t| parse_const(t.trim(), line))
                .collect::<Result<Vec<_>, _>>()?;
            if vals.is_empty() {
                return Err(err(line, "const needs at least one value"));
            }
            Ok(PatOp::SrcConstIn(vals))
        }
        "syscall" => {
            let (args, opts) = line_args(tokens, 1, &["eax", "ebx"], "a vector", line)?;
            let vector = u8::try_from(parse_const(args[0], line)?)
                .map_err(|_| err(line, format!("syscall vector `{}` is above 0xff", args[0])))?;
            let eax = kv(opts, "eax").map(|v| parse_const(v, line)).transpose()?;
            let ebx = kv(opts, "ebx").map(|v| parse_const(v, line)).transpose()?;
            Ok(PatOp::Syscall { vector, eax, ebx })
        }
        "addr-range" => {
            let (args, _) = line_args(tokens, 2, &[], "LO HI", line)?;
            let lo = parse_const(args[0], line)?;
            let hi = parse_const(args[1], line)?;
            if lo > hi {
                return Err(err(line, "addr-range LO must be <= HI"));
            }
            Ok(PatOp::AddrInRange { lo, hi })
        }
        other => Err(err(line, format!("unknown step `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;

    const DECODER_DSL: &str = r#"
# the Figure-2 decryption loop, written by hand
template dsl-decoder severity=high gap=8
  storexform X ops=xor,add src=any
  advance X
  loopback
"#;

    #[test]
    fn parses_and_detects_like_the_builtin() {
        let templates = parse(DECODER_DSL).unwrap();
        assert_eq!(templates.len(), 1);
        assert_eq!(templates[0].name, "dsl-decoder");
        assert_eq!(templates[0].max_gap, Some(8));
        let analyzer = Analyzer::new(templates);
        // Figure 1(a)
        let code = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        let ms = analyzer.analyze(&code);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].template, "dsl-decoder");
    }

    #[test]
    fn string_constants_little_endian() {
        assert_eq!(parse_const("\"/bin\"", 1).unwrap(), 0x6e69_622f);
        assert_eq!(parse_const("\"A\"", 1).unwrap(), 0x41);
        assert!(parse_const("\"toolong\"", 1).is_err());
        assert_eq!(parse_const("0xff", 1).unwrap(), 0xff);
        assert_eq!(parse_const("255", 1).unwrap(), 255);
        assert!(parse_const("zz", 1).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("template t\n  bogus X\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = parse("  advance X\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("before any"));

        let e = parse("template empty\n").unwrap_err();
        assert!(e.message.contains("no steps"));

        let e = parse("template a\n loopback\ntemplate a\n loopback\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn syscall_vector_must_fit_a_byte() {
        let e = parse("template t\n  loopback\n  syscall 0x180 eax=0xb\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("0x180"), "{e}");
        let ts = parse("template t\n  syscall 0xff\n").unwrap();
        assert!(matches!(ts[0].ops[0], PatOp::Syscall { vector: 0xff, .. }));
    }

    #[test]
    fn unknown_options_are_rejected() {
        let e = parse("# typo\ntemplate t gpa=8\n  loopback\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("gpa=8"), "{e}");
        let e = parse("template t\n  advance X\n  syscall 0x80 eax=0xb ecx=1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("ecx=1"), "{e}");
        let e = parse("template t gap=8 gap=4\n  loopback\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("twice"), "{e}");
        let e = parse("template t\n  loopback now\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn describe_sets_the_description() {
        let ts =
            parse("template t\n  describe a  spaced: [X] <- R; loop # note\n  loopback\n").unwrap();
        assert_eq!(ts[0].description, "a  spaced: [X] <- R; loop");
        let ts = parse("template u\n  loopback\n").unwrap();
        assert_eq!(ts[0].description, "user template `u` (loaded from DSL)");
        let e = parse("template t\n  describe one\n  describe two\n  loopback\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(parse("describe orphan\n").unwrap_err().line, 1);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let dsl = "\n# header comment\ntemplate t # trailing\n  loopback # another\n\n";
        let ts = parse(dsl).unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].ops.len(), 1);
    }

    #[test]
    fn severity_and_gap_parsing() {
        let ts = parse("template t severity=medium gap=4\n  loopback\n").unwrap();
        assert_eq!(ts[0].severity, Severity::Medium);
        assert_eq!(ts[0].max_gap, Some(4));
        assert!(parse("template t severity=loud\n  loopback\n").is_err());
        assert!(parse("template t gap=many\n  loopback\n").is_err());
    }
}
