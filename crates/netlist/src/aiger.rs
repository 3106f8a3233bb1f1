//! AIGER 1.9 reader and writer (ASCII `aag` and binary `aig`).
//!
//! The netlist's outputs are mapped to targets and vice versa, so real
//! benchmark circuits (e.g. the ISCAS89 translations distributed in AIGER
//! form) can be dropped into the diameter-bounding pipeline. Latch resets of
//! 0, 1, and "uninitialized" (the latch's own literal, per AIGER 1.9) are
//! supported; [`Init::Fn`] initial values cannot be expressed in AIGER and
//! cause the writer to fail.

use crate::{Gate, GateKind, Init, Lit, Netlist};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Write};

/// Error raised by the AIGER reader or writer.
#[derive(Debug)]
pub enum AigerError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not well-formed AIGER.
    Parse(String),
    /// The netlist contains a construct AIGER cannot express.
    Unsupported(String),
}

impl fmt::Display for AigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AigerError::Io(e) => write!(f, "aiger i/o error: {e}"),
            AigerError::Parse(m) => write!(f, "aiger parse error: {m}"),
            AigerError::Unsupported(m) => write!(f, "aiger cannot express: {m}"),
        }
    }
}

impl std::error::Error for AigerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AigerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AigerError {
    fn from(e: std::io::Error) -> Self {
        AigerError::Io(e)
    }
}

fn parse_err(m: impl Into<String>) -> AigerError {
    AigerError::Parse(m.into())
}

/// Reads an ASCII (`aag`) or binary (`aig`) AIGER file into a [`Netlist`].
///
/// Outputs become targets (named from the symbol table when present,
/// `o<k>` otherwise). AIGER 1.9 `bad` properties, when present, are also
/// read as targets.
///
/// Binary files are ingested *streaming*: the AND section's topological
/// ordering guarantee (`lhs > rhs0 >= rhs1`) lets each gate be constructed
/// the moment its deltas are decoded, with no intermediate definition
/// buffer, and the netlist's CSR adjacency is built once at the end while
/// the gate tables are cache-hot. ASCII files may list ANDs in any order
/// and go through a worklist instead.
///
/// # Errors
///
/// Returns [`AigerError`] on I/O failure or malformed input.
pub fn read<R: BufRead>(mut reader: R) -> Result<Netlist, AigerError> {
    let mut header = String::new();
    reader.read_line(&mut header)?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 6 {
        return Err(parse_err("header must be `aag|aig M I L O A [B C J F]`"));
    }
    let binary = match fields[0] {
        "aag" => false,
        "aig" => true,
        other => return Err(parse_err(format!("unknown format tag {other:?}"))),
    };
    let nums: Vec<u32> = fields[1..]
        .iter()
        .map(|s| s.parse::<u32>().map_err(|_| parse_err("bad header number")))
        .collect::<Result<_, _>>()?;
    let (m, i, l, o, a) = (nums[0], nums[1], nums[2], nums[3], nums[4]);
    let b = *nums.get(5).unwrap_or(&0);
    // Every literal `2v + 1` with `v ≤ M` must fit in a u32, and the section
    // counts must sum without wrapping; overflow in either is malformed.
    if m.checked_mul(2).and_then(|x| x.checked_add(1)).is_none() {
        return Err(parse_err("M too large: literal 2M+1 overflows"));
    }
    let defined = i
        .checked_add(l)
        .and_then(|x| x.checked_add(a))
        .ok_or_else(|| parse_err("I+L+A overflows"))?;
    if m < defined {
        return Err(parse_err("M < I+L+A"));
    }
    let hdr = Header { m, i, l, o, a, b };
    if binary {
        read_binary(reader, hdr)
    } else {
        read_ascii(reader, hdr)
    }
}

#[derive(Clone, Copy)]
struct Header {
    m: u32,
    i: u32,
    l: u32,
    o: u32,
    a: u32,
    b: u32,
}

fn read_u32_line<R: BufRead>(reader: &mut R) -> Result<Vec<u32>, AigerError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(parse_err("unexpected end of file"));
    }
    line.split_whitespace()
        .map(|s| s.parse::<u32>().map_err(|_| parse_err("bad literal")))
        .collect()
}

fn latch_init(reset: u32, latch_lit: u32) -> Result<Init, AigerError> {
    match reset {
        0 => Ok(Init::Zero),
        1 => Ok(Init::One),
        r if r == latch_lit => Ok(Init::Nondet),
        other => Err(parse_err(format!(
            "latch reset {other} is neither 0, 1 nor the latch literal"
        ))),
    }
}

/// Symbol table (`i<k> name` / `l<k> name` / `o<k> name` lines up to the
/// comment section or end of file).
struct Symbols {
    inputs: Vec<Option<String>>,
    latches: Vec<Option<String>>,
    outputs: Vec<Option<String>>,
}

fn read_symbols<R: BufRead>(reader: &mut R, hdr: Header) -> Result<Symbols, AigerError> {
    let mut syms = Symbols {
        inputs: vec![None; hdr.i as usize],
        latches: vec![None; hdr.l as usize],
        outputs: vec![None; hdr.o as usize],
    };
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim_end();
        if t == "c" {
            break;
        }
        if let Some(rest) = t.strip_prefix('i') {
            if let Some((idx, name)) = split_symbol(rest) {
                if let Some(slot) = syms.inputs.get_mut(idx) {
                    *slot = Some(name);
                }
            }
        } else if let Some(rest) = t.strip_prefix('l') {
            if let Some((idx, name)) = split_symbol(rest) {
                if let Some(slot) = syms.latches.get_mut(idx) {
                    *slot = Some(name);
                }
            }
        } else if let Some(rest) = t.strip_prefix('o') {
            if let Some((idx, name)) = split_symbol(rest) {
                if let Some(slot) = syms.outputs.get_mut(idx) {
                    *slot = Some(name);
                }
            }
        }
    }
    Ok(syms)
}

/// Streaming binary (`aig`) ingestion. Variables are dense and ordered —
/// inputs `1..=I`, latches `I+1..=I+L`, ANDs `I+L+1..=I+L+A` — so the
/// variable→literal table grows by exactly one entry per construction step
/// and every AND can be built as soon as its two deltas are decoded.
fn read_binary<R: BufRead>(mut reader: R, hdr: Header) -> Result<Netlist, AigerError> {
    let Header { i, l, o, a, b, .. } = hdr;
    let mut n = Netlist::new();
    // Dense var -> literal table; index k is AIGER variable k.
    let mut var_lit: Vec<Lit> = Vec::with_capacity((i + l + a + 1) as usize);
    var_lit.push(Lit::FALSE);
    // Names arrive only after the AND section; construct with positional
    // defaults and patch from the symbol table afterwards.
    for k in 0..i {
        var_lit.push(n.input(format!("i{k}")).lit());
    }
    let mut regs: Vec<Gate> = Vec::with_capacity(l as usize);
    let mut latch_next: Vec<u32> = Vec::with_capacity(l as usize);
    for k in 0..l {
        let v = i + k + 1;
        let (next, reset) = match read_u32_line(&mut reader)?.as_slice() {
            [next] => (*next, 0),
            [next, reset] => (*next, *reset),
            _ => return Err(parse_err("bad latch line")),
        };
        let g = n.reg(format!("l{k}"), latch_init(reset, 2 * v)?);
        regs.push(g);
        latch_next.push(next);
        var_lit.push(g.lit());
    }
    let mut outputs: Vec<u32> = Vec::with_capacity(o as usize);
    for _ in 0..o {
        let fields = read_u32_line(&mut reader)?;
        outputs.push(*fields.first().ok_or_else(|| parse_err("bad output line"))?);
    }
    let mut bads: Vec<u32> = Vec::with_capacity(b as usize);
    for _ in 0..b {
        let fields = read_u32_line(&mut reader)?;
        bads.push(*fields.first().ok_or_else(|| parse_err("bad `bad` line"))?);
    }
    // AND section: per gate, deltas lhs−rhs0 and rhs0−rhs1. Both operands
    // have smaller variables than the lhs, hence are already in `var_lit`.
    let mut read_delta = || -> Result<u32, AigerError> {
        let mut x: u32 = 0;
        let mut shift = 0;
        loop {
            let mut byte = [0u8; 1];
            reader.read_exact(&mut byte)?;
            x |= u32::from(byte[0] & 0x7f) << shift;
            if byte[0] & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    };
    for k in 0..a {
        let lhs = 2 * (i + l + k + 1);
        let d0 = read_delta()?;
        let d1 = read_delta()?;
        let rhs0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| parse_err("binary delta underflow"))?;
        let rhs1 = rhs0
            .checked_sub(d1)
            .ok_or_else(|| parse_err("binary delta underflow"))?;
        if rhs0 >= lhs {
            return Err(parse_err("binary AND operand not older than its gate"));
        }
        let fa = var_lit[(rhs0 >> 1) as usize].xor_complement(rhs0 & 1 != 0);
        let fb = var_lit[(rhs1 >> 1) as usize].xor_complement(rhs1 & 1 != 0);
        var_lit.push(n.and(fa, fb).xor_complement(lhs & 1 != 0));
    }
    let resolve = |lit: u32, what: &str| -> Result<Lit, AigerError> {
        var_lit
            .get((lit >> 1) as usize)
            .copied()
            .map(|l| l.xor_complement(lit & 1 != 0))
            .ok_or_else(|| parse_err(format!("{what} literal undefined")))
    };
    for (k, &r) in regs.iter().enumerate() {
        n.set_next(r, resolve(latch_next[k], "latch next")?);
    }
    let syms = read_symbols(&mut reader, hdr)?;
    for (k, name) in syms.inputs.iter().enumerate() {
        if let Some(name) = name {
            n.set_name(n.inputs()[k], name.clone());
        }
    }
    for (k, name) in syms.latches.iter().enumerate() {
        if let Some(name) = name {
            n.set_name(regs[k], name.clone());
        }
    }
    for (k, &out_lit) in outputs.iter().enumerate() {
        let lit = resolve(out_lit, "output")?;
        let name = syms.outputs[k].clone().unwrap_or_else(|| format!("o{k}"));
        n.add_target(lit, name);
    }
    for (k, &bad_lit) in bads.iter().enumerate() {
        n.add_target(resolve(bad_lit, "bad")?, format!("b{k}"));
    }
    // The gate tables are cache-hot right now; materialize the CSR so the
    // first analysis a caller runs does not pay the build.
    let _ = n.csr();
    Ok(n)
}

/// ASCII (`aag`) ingestion. Literals are explicit and ANDs may appear in any
/// order, so definitions are buffered and resolved with a worklist.
fn read_ascii<R: BufRead>(mut reader: R, hdr: Header) -> Result<Netlist, AigerError> {
    let Header { m, i, l, o, a, b } = hdr;
    // Buffers grow with the lines actually read, never from header counts.
    let mut input_vars: Vec<u32> = Vec::new();
    let mut latch_vars: Vec<u32> = Vec::new();
    let mut latch_next: Vec<u32> = Vec::new();
    let mut latch_reset: Vec<u32> = Vec::new();
    for _ in 0..i {
        let fields = read_u32_line(&mut reader)?;
        let lit = *fields.first().ok_or_else(|| parse_err("bad input line"))?;
        if lit & 1 != 0 {
            return Err(parse_err("input literal must be even"));
        }
        input_vars.push(lit >> 1);
    }
    for _ in 0..l {
        let fields = read_u32_line(&mut reader)?;
        match fields.as_slice() {
            [lit, next] => {
                latch_vars.push(lit >> 1);
                latch_next.push(*next);
                latch_reset.push(0);
            }
            [lit, next, reset] => {
                latch_vars.push(lit >> 1);
                latch_next.push(*next);
                latch_reset.push(*reset);
            }
            _ => return Err(parse_err("bad latch line")),
        }
    }
    let mut outputs: Vec<u32> = Vec::new();
    for _ in 0..o {
        let fields = read_u32_line(&mut reader)?;
        outputs.push(*fields.first().ok_or_else(|| parse_err("bad output line"))?);
    }
    let mut bads: Vec<u32> = Vec::new();
    for _ in 0..b {
        let fields = read_u32_line(&mut reader)?;
        bads.push(*fields.first().ok_or_else(|| parse_err("bad `bad` line"))?);
    }
    let mut and_defs: Vec<(u32, u32, u32)> = Vec::new();
    for _ in 0..a {
        let fields = read_u32_line(&mut reader)?;
        if fields.len() != 3 {
            return Err(parse_err("bad and line"));
        }
        and_defs.push((fields[0], fields[1], fields[2]));
    }
    let syms = read_symbols(&mut reader, hdr)?;

    // Construct the netlist: inputs, latches, then ANDs in topological order.
    // The variable table holds only the variables the file defines.
    let mut n = Netlist::new();
    let mut var_lit: HashMap<u32, Lit> = HashMap::from([(0, Lit::FALSE)]);
    let in_range = |v: u32, what: &str| {
        (v <= m)
            .then_some(v)
            .ok_or_else(|| parse_err(format!("{what} var out of range")))
    };
    for (k, &v) in input_vars.iter().enumerate() {
        let name = syms.inputs[k].clone().unwrap_or_else(|| format!("i{k}"));
        let g = n.input(name);
        var_lit.insert(in_range(v, "input")?, g.lit());
    }
    let mut regs: Vec<Gate> = Vec::new();
    for (k, &v) in latch_vars.iter().enumerate() {
        let name = syms.latches[k].clone().unwrap_or_else(|| format!("l{k}"));
        let g = n.reg(name, latch_init(latch_reset[k], 2 * v)?);
        regs.push(g);
        var_lit.insert(in_range(v, "latch")?, g.lit());
    }
    for &(lhs, _, _) in &and_defs {
        in_range(lhs >> 1, "and")?;
    }
    // ANDs may appear in any order in ASCII files; resolve with a worklist.
    let mut pending: Vec<(u32, u32, u32)> = and_defs;
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|&(lhs, rhs0, rhs1)| {
            let fa = resolve(&var_lit, rhs0);
            let fb = resolve(&var_lit, rhs1);
            match (fa, fb) {
                (Some(fa), Some(fb)) => {
                    let lit = n.and(fa, fb);
                    var_lit.insert(lhs >> 1, lit.xor_complement(lhs & 1 != 0));
                    false
                }
                _ => true,
            }
        });
        if pending.len() == before {
            return Err(parse_err("cyclic or dangling AND definitions"));
        }
    }
    for (k, &r) in regs.iter().enumerate() {
        let next = resolve(&var_lit, latch_next[k])
            .ok_or_else(|| parse_err(format!("latch {k} next literal undefined")))?;
        n.set_next(r, next);
    }
    for (k, &out_lit) in outputs.iter().enumerate() {
        let lit = resolve(&var_lit, out_lit)
            .ok_or_else(|| parse_err(format!("output {k} literal undefined")))?;
        let name = syms.outputs[k].clone().unwrap_or_else(|| format!("o{k}"));
        n.add_target(lit, name);
    }
    for (k, &bad_lit) in bads.iter().enumerate() {
        let lit = resolve(&var_lit, bad_lit)
            .ok_or_else(|| parse_err(format!("bad {k} literal undefined")))?;
        n.add_target(lit, format!("b{k}"));
    }
    Ok(n)
}

fn split_symbol(rest: &str) -> Option<(usize, String)> {
    let mut parts = rest.splitn(2, ' ');
    let idx = parts.next()?.parse::<usize>().ok()?;
    let name = parts.next()?.to_string();
    Some((idx, name))
}

fn resolve(var_lit: &HashMap<u32, Lit>, aiger_lit: u32) -> Option<Lit> {
    var_lit
        .get(&(aiger_lit >> 1))
        .map(|l| l.xor_complement(aiger_lit & 1 != 0))
}

/// Writes `n` as ASCII AIGER (`aag`), with targets as outputs and a symbol
/// table carrying the gate names.
///
/// # Errors
///
/// Fails with [`AigerError::Unsupported`] if any register has an
/// [`Init::Fn`] initial value (AIGER resets are limited to 0, 1 and
/// "uninitialized"), or with [`AigerError::Io`] on write failure.
pub fn write_ascii<W: Write>(n: &Netlist, mut w: W) -> Result<(), AigerError> {
    // Renumber: inputs 1..=I, latches I+1..=I+L, ANDs afterwards.
    let mut var_of: Vec<u32> = vec![0; n.num_gates()];
    let mut next_var = 1u32;
    for &g in n.inputs() {
        var_of[g.index()] = next_var;
        next_var += 1;
    }
    for &g in n.regs() {
        var_of[g.index()] = next_var;
        next_var += 1;
    }
    let mut ands: Vec<Gate> = Vec::new();
    for g in n.gates() {
        if let GateKind::And(..) = n.kind(g) {
            var_of[g.index()] = next_var;
            next_var += 1;
            ands.push(g);
        }
    }
    let to_aiger = |l: Lit| -> u32 { 2 * var_of[l.gate().index()] + l.is_complement() as u32 };

    writeln!(
        w,
        "aag {} {} {} {} {}",
        next_var - 1,
        n.num_inputs(),
        n.num_regs(),
        n.targets().len(),
        ands.len()
    )?;
    for &g in n.inputs() {
        writeln!(w, "{}", 2 * var_of[g.index()])?;
    }
    for &g in n.regs() {
        let lit = 2 * var_of[g.index()];
        let next = to_aiger(n.reg_next(g));
        match n.reg_init(g) {
            Init::Zero => writeln!(w, "{lit} {next} 0")?,
            Init::One => writeln!(w, "{lit} {next} 1")?,
            Init::Nondet => writeln!(w, "{lit} {next} {lit}")?,
            Init::Fn(_) => {
                return Err(AigerError::Unsupported(format!(
                    "register {g} has a functional initial value"
                )))
            }
        }
    }
    for t in n.targets() {
        writeln!(w, "{}", to_aiger(t.lit))?;
    }
    for &g in &ands {
        if let GateKind::And(a, b) = n.kind(g) {
            writeln!(
                w,
                "{} {} {}",
                2 * var_of[g.index()],
                to_aiger(a),
                to_aiger(b)
            )?;
        }
    }
    for (k, &g) in n.inputs().iter().enumerate() {
        if let Some(name) = n.name(g) {
            writeln!(w, "i{k} {name}")?;
        }
    }
    for (k, &g) in n.regs().iter().enumerate() {
        if let Some(name) = n.name(g) {
            writeln!(w, "l{k} {name}")?;
        }
    }
    for (k, t) in n.targets().iter().enumerate() {
        writeln!(w, "o{k} {}", t.name)?;
    }
    writeln!(w, "c")?;
    writeln!(w, "written by diam-netlist")?;
    Ok(())
}

/// Writes `n` as binary AIGER (`aig`), with targets as outputs and a symbol
/// table carrying the gate names.
///
/// # Errors
///
/// Same conditions as [`write_ascii`].
pub fn write_binary<W: Write>(n: &Netlist, mut w: W) -> Result<(), AigerError> {
    // Binary AIGER fixes the variable order: inputs 1..=I, latches
    // I+1..=I+L, ANDs I+L+1..=M in topological order. Netlist index order
    // already topologically sorts the ANDs.
    let mut var_of: Vec<u32> = vec![0; n.num_gates()];
    let mut next_var = 1u32;
    for &g in n.inputs() {
        var_of[g.index()] = next_var;
        next_var += 1;
    }
    for &g in n.regs() {
        var_of[g.index()] = next_var;
        next_var += 1;
    }
    let mut ands: Vec<Gate> = Vec::new();
    for g in n.gates() {
        if let GateKind::And(..) = n.kind(g) {
            var_of[g.index()] = next_var;
            next_var += 1;
            ands.push(g);
        }
    }
    let to_aiger = |l: Lit| -> u32 { 2 * var_of[l.gate().index()] + l.is_complement() as u32 };

    writeln!(
        w,
        "aig {} {} {} {} {}",
        next_var - 1,
        n.num_inputs(),
        n.num_regs(),
        n.targets().len(),
        ands.len()
    )?;
    for &g in n.regs() {
        let next = to_aiger(n.reg_next(g));
        match n.reg_init(g) {
            Init::Zero => writeln!(w, "{next} 0")?,
            Init::One => writeln!(w, "{next} 1")?,
            Init::Nondet => writeln!(w, "{next} {}", 2 * var_of[g.index()])?,
            Init::Fn(_) => {
                return Err(AigerError::Unsupported(format!(
                    "register {g} has a functional initial value"
                )))
            }
        }
    }
    for t in n.targets() {
        writeln!(w, "{}", to_aiger(t.lit))?;
    }
    // AND section: per gate, deltas lhs−rhs0 and rhs0−rhs1 in LEB128-ish
    // 7-bit groups.
    let write_delta = |w: &mut W, mut x: u32| -> Result<(), AigerError> {
        loop {
            let byte = (x & 0x7f) as u8;
            x >>= 7;
            if x == 0 {
                w.write_all(&[byte])?;
                return Ok(());
            }
            w.write_all(&[byte | 0x80])?;
        }
    };
    for &g in &ands {
        if let GateKind::And(a, b) = n.kind(g) {
            let lhs = 2 * var_of[g.index()];
            let (mut r0, mut r1) = (to_aiger(a), to_aiger(b));
            if r0 < r1 {
                std::mem::swap(&mut r0, &mut r1);
            }
            debug_assert!(lhs > r0, "binary AIGER needs lhs > rhs0");
            write_delta(&mut w, lhs - r0)?;
            write_delta(&mut w, r0 - r1)?;
        }
    }
    for (k, &g) in n.inputs().iter().enumerate() {
        if let Some(name) = n.name(g) {
            writeln!(w, "i{k} {name}")?;
        }
    }
    for (k, &g) in n.regs().iter().enumerate() {
        if let Some(name) = n.name(g) {
            writeln!(w, "l{k} {name}")?;
        }
    }
    for (k, t) in n.targets().iter().enumerate() {
        writeln!(w, "o{k} {}", t.name)?;
    }
    writeln!(w, "c")?;
    writeln!(w, "written by diam-netlist")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SplitMix64, Stimulus};

    fn round_trip(n: &Netlist) -> Netlist {
        let mut buf = Vec::new();
        write_ascii(n, &mut buf).unwrap();
        read(std::io::Cursor::new(buf)).unwrap()
    }

    fn round_trip_binary(n: &Netlist) -> Netlist {
        let mut buf = Vec::new();
        write_binary(n, &mut buf).unwrap();
        read(std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn round_trip_preserves_counts() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let r = n.reg("r", Init::One);
        let x = n.xor(a, b);
        let y = n.and(x, r.lit());
        n.set_next(r, y);
        n.add_target(y, "prop");
        let m = round_trip(&n);
        assert_eq!(m.num_inputs(), 2);
        assert_eq!(m.num_regs(), 1);
        assert_eq!(m.targets().len(), 1);
        assert_eq!(m.targets()[0].name, "prop");
        m.validate().unwrap();
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let mut rng = SplitMix64::new(99);
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::Nondet);
        let x = n.mux(a, r0.lit(), b);
        let y = n.or(x, r1.lit());
        n.set_next(r0, y);
        n.set_next(r1, x);
        n.add_target(y, "t");
        let m = round_trip(&n);
        let stim = Stimulus::random(&n, 12, &mut rng);
        let t_old = simulate(&n, &stim);
        let t_new = simulate(&m, &stim);
        let t_lit_old = n.targets()[0].lit;
        let t_lit_new = m.targets()[0].lit;
        for t in 0..12 {
            assert_eq!(t_old.word(t_lit_old, t), t_new.word(t_lit_new, t));
        }
    }

    #[test]
    fn reads_known_ascii_fixture() {
        // Half adder with a latch, hand-written.
        let text = "aag 5 2 1 1 2\n2\n4\n6 10 0\n10\n8 2 4\n10 6 8\ni0 x\ni1 y\nl0 acc\no0 out\n";
        let n = read(std::io::Cursor::new(text)).unwrap();
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_regs(), 1);
        assert_eq!(n.num_ands(), 2);
        assert_eq!(n.name(n.inputs()[0]), Some("x"));
        assert_eq!(n.name(n.regs()[0]), Some("acc"));
        n.validate().unwrap();
    }

    #[test]
    fn rejects_garbage() {
        assert!(read(std::io::Cursor::new("hello world\n")).is_err());
        assert!(read(std::io::Cursor::new("aag 1 1\n")).is_err());
    }

    /// Header counts whose arithmetic overflows a u32 are malformed: `M + 1`
    /// used to wrap to an empty variable table and panic on indexing, and a
    /// wrapped `I + L + A` passed `M ≥ I+L+A` and started building four
    /// billion inputs.
    #[test]
    fn rejects_overflowing_header_arithmetic() {
        for header in ["aag 4294967295 0 0 0 0\n", "aig 5 4294967295 2 0 0\n"] {
            assert_eq!(header.len(), 23);
            assert!(
                matches!(
                    read(std::io::Cursor::new(header)),
                    Err(AigerError::Parse(_))
                ),
                "{header:?} must be rejected"
            );
        }
        // ASCII section buffers grow with the lines read instead of
        // reserving the declared count (here 16 GB of `bad` literals).
        assert!(read(std::io::Cursor::new("aag 1 0 0 0 0 4294967295\n")).is_err());
    }

    /// ASCII variables are checked against `M` instead of indexing a table
    /// sized from it, so an AND defining a variable above `M` is an error.
    #[test]
    fn ascii_variables_above_m_are_errors() {
        assert!(read(std::io::Cursor::new("aag 1 1 0 0 1\n2\n10 2 3\n")).is_err());
        assert!(read(std::io::Cursor::new("aag 1 1 0 0 0\n4\n")).is_err());
        let ok = read(std::io::Cursor::new("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")).unwrap();
        assert_eq!((ok.num_inputs(), ok.num_ands()), (2, 1));
    }

    #[test]
    fn fn_init_is_unsupported() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let r = n.reg("r", Init::Fn(i.lit()));
        n.set_next(r, r.lit());
        n.add_target(r.lit(), "t");
        let mut buf = Vec::new();
        assert!(matches!(
            write_ascii(&n, &mut buf),
            Err(AigerError::Unsupported(_))
        ));
    }

    #[test]
    fn binary_round_trip_preserves_semantics() {
        let mut rng = SplitMix64::new(123);
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::One);
        let x = n.xor(a, r0.lit());
        let y = n.mux(b, x, r1.lit());
        n.set_next(r0, y);
        n.set_next(r1, x);
        n.add_target(y, "t");
        let m = round_trip_binary(&n);
        assert_eq!(m.num_inputs(), 2);
        assert_eq!(m.num_regs(), 2);
        assert_eq!(m.num_ands(), n.num_ands());
        assert_eq!(m.name(m.regs()[1]), Some("r1"));
        let stim = Stimulus::random(&n, 10, &mut rng);
        let ta = simulate(&n, &stim);
        let tb = simulate(&m, &stim);
        for t in 0..10 {
            assert_eq!(
                ta.word(n.targets()[0].lit, t),
                tb.word(m.targets()[0].lit, t)
            );
        }
    }

    #[test]
    fn binary_and_ascii_agree() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let r = n.reg("r", Init::Nondet);
        let x = n.and(a, !r.lit());
        n.set_next(r, x);
        n.add_target(x, "t");
        let via_ascii = round_trip(&n);
        let via_binary = round_trip_binary(&n);
        assert_eq!(via_ascii.num_gates(), via_binary.num_gates());
        assert_eq!(
            via_ascii.reg_init(via_ascii.regs()[0]),
            via_binary.reg_init(via_binary.regs()[0])
        );
    }

    #[test]
    fn nondet_reset_round_trips() {
        let mut n = Netlist::new();
        let r = n.reg("r", Init::Nondet);
        n.set_next(r, !r.lit());
        n.add_target(r.lit(), "t");
        let m = round_trip(&n);
        assert_eq!(m.reg_init(m.regs()[0]), Init::Nondet);
    }
}
