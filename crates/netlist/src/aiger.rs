//! AIGER 1.9 reader and writer (ASCII `aag` and binary `aig`).
//!
//! The netlist's outputs are mapped to targets and vice versa, so real
//! benchmark circuits (e.g. the ISCAS89 translations distributed in AIGER
//! form) can be dropped into the diameter-bounding pipeline. Latch resets of
//! 0, 1, and "uninitialized" (the latch's own literal, per AIGER 1.9) are
//! supported; [`Init::Fn`] initial values cannot be expressed in AIGER and
//! cause the writer to fail.

use crate::{Gate, GateKind, Init, Lit, Netlist};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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
/// Binary files are read in one pass. The AND section's ordering guarantee
/// (`lhs > rhs0 >= rhs1`, every gate numbered in turn) lets the reader
/// decode all deltas first and then check the whole section once: when no
/// AND folds (a constant operand, or both operands over one variable) and
/// no two ANDs share their operands, every AND is appended as it stands,
/// with gate index equal to its AIGER variable and no structural hashing;
/// otherwise each goes through [`Netlist::and`]. Inputs and latches are
/// named once, from the symbol table or by position. The netlist's CSR
/// adjacency is built at the end while the gate tables are cache-hot.
///
/// ASCII files may list ANDs in any order. The reader builds them in the
/// order of a worklist that passes over the AND lines in file order,
/// building each AND whose operands are defined when it is reached. It
/// makes the first pass, which builds every AND of a file in dependency
/// order, and computes the order of the later passes in one event-driven
/// walk instead of one pass each.
///
/// # Errors
///
/// Returns [`AigerError`] on I/O failure or malformed input.
pub fn read<R: BufRead>(mut reader: R) -> Result<Netlist, AigerError> {
    let (binary, hdr) = read_header(&mut reader)?;
    if binary {
        read_binary(reader, hdr)
    } else {
        read_ascii(reader, hdr)
    }
}

/// Reads and checks the header line; `true` for the binary format.
fn read_header<R: BufRead>(reader: &mut R) -> Result<(bool, Header), AigerError> {
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
    Ok((binary, Header { m, i, l, o, a, b }))
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

/// Binary (`aig`) ingestion. Variables are dense and ordered — inputs
/// `1..=I`, latches `I+1..=I+L`, ANDs `I+L+1..=I+L+A` — so gate `v` of the
/// netlist is AIGER variable `v` until an AND folds or repeats another.
fn read_binary<R: BufRead>(mut reader: R, hdr: Header) -> Result<Netlist, AigerError> {
    let Header { i, l, o, a, b, .. } = hdr;
    let mut n = Netlist::new();
    // Buffers grow with the lines and deltas actually read, never from
    // header counts, so a truncated body ends in an error at EOF. Inputs
    // and latches stay unnamed until the symbol table, after the ANDs.
    for _ in 0..i {
        n.unnamed_input();
    }
    let mut latch_next: Vec<u32> = Vec::new();
    for k in 0..l {
        let v = i + k + 1;
        let (next, reset) = match read_u32_line(&mut reader)?.as_slice() {
            [next] => (*next, 0),
            [next, reset] => (*next, *reset),
            _ => return Err(parse_err("bad latch line")),
        };
        n.unnamed_reg(latch_init(reset, 2 * v)?);
        latch_next.push(next);
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
    let ands = read_and_section(&mut reader, i + l, a)?;
    // AIGER variable -> netlist literal; `None` while every variable is its
    // own gate.
    let var_lit: Option<Vec<Lit>> = if appendable(&ands) {
        for (k, &(rhs0, rhs1)) in ands.iter().enumerate() {
            let g = n.append_and(Lit::from_code(rhs1), Lit::from_code(rhs0));
            debug_assert_eq!(g.index(), (i + l + 1) as usize + k, "gate is its variable");
        }
        None
    } else {
        let mut var_lit: Vec<Lit> = n.gates().map(Gate::lit).collect();
        for &(rhs0, rhs1) in &ands {
            let fa = var_lit[(rhs0 >> 1) as usize].xor_complement(rhs0 & 1 != 0);
            let fb = var_lit[(rhs1 >> 1) as usize].xor_complement(rhs1 & 1 != 0);
            var_lit.push(n.and(fa, fb));
        }
        Some(var_lit)
    };
    let vars = (i + l + 1) as usize + ands.len();
    let resolve = |lit: u32, what: &str| -> Result<Lit, AigerError> {
        let v = (lit >> 1) as usize;
        if v >= vars {
            return Err(parse_err(format!("{what} literal undefined")));
        }
        let base = var_lit.as_ref().map_or(Gate::from_index(v).lit(), |t| t[v]);
        Ok(base.xor_complement(lit & 1 != 0))
    };
    for (k, &next) in latch_next.iter().enumerate() {
        let r = n.regs()[k];
        n.set_next(r, resolve(next, "latch next")?);
    }
    let syms = read_symbols(&mut reader, hdr)?;
    for (k, name) in syms.inputs.into_iter().enumerate() {
        let g = n.inputs()[k];
        n.set_name(g, name.unwrap_or_else(|| format!("i{k}")));
    }
    for (k, name) in syms.latches.into_iter().enumerate() {
        let g = n.regs()[k];
        n.set_name(g, name.unwrap_or_else(|| format!("l{k}")));
    }
    for ((k, &out_lit), name) in outputs.iter().enumerate().zip(syms.outputs) {
        let lit = resolve(out_lit, "output")?;
        n.add_target(lit, name.unwrap_or_else(|| format!("o{k}")));
    }
    for (k, &bad_lit) in bads.iter().enumerate() {
        n.add_target(resolve(bad_lit, "bad")?, format!("b{k}"));
    }
    // The gate tables are cache-hot right now; materialize the CSR so the
    // first analysis a caller runs does not pay the build.
    let _ = n.csr();
    Ok(n)
}

/// Decodes the binary AND section: per gate, deltas `lhs − rhs0` and
/// `rhs0 − rhs1`, where gate `k` has `lhs = 2(first + k + 1)`. Returns each
/// gate's `(rhs0, rhs1)`; both are older than the gate.
fn read_and_section<R: BufRead>(
    reader: &mut R,
    first: u32,
    count: u32,
) -> Result<Vec<(u32, u32)>, AigerError> {
    let mut read_delta = || -> Result<u32, AigerError> {
        let mut x: u32 = 0;
        let mut shift = 0;
        loop {
            let mut byte = [0u8; 1];
            reader.read_exact(&mut byte).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => parse_err("unexpected end of file"),
                _ => AigerError::Io(e),
            })?;
            let bits = u32::from(byte[0] & 0x7f);
            // A u32 takes at most five 7-bit groups, the fifth of 4 bits.
            if shift > 28 || bits > u32::MAX >> shift {
                return Err(parse_err("binary delta overflows u32"));
            }
            x |= bits << shift;
            if byte[0] & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    };
    let mut ands = Vec::new();
    for k in 0..count {
        let lhs = 2 * (first + k + 1);
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
        ands.push((rhs0, rhs1));
    }
    Ok(ands)
}

/// Whether the binary ANDs `(rhs0, rhs1)` can be appended as they stand:
/// none folds (`rhs1` is a constant, or both operands are one variable) and
/// no two share their operands, so [`Netlist::and`] would create each one
/// as a fresh gate with the operands in this order. The duplicate check is
/// exact: it buckets every `rhs1` by its `rhs0`, the way [`Csr::build`]
/// transposes fanins, and looks for a repeat within each bucket.
///
/// [`Csr::build`]: crate::Csr::build
fn appendable(ands: &[(u32, u32)]) -> bool {
    if ands.iter().any(|&(r0, r1)| r1 < 2 || r0 >> 1 == r1 >> 1) {
        return false;
    }
    let Some(max) = ands.iter().map(|&(r0, _)| r0 as usize).max() else {
        return true;
    };
    // Counting sort of `rhs1` by `rhs0`, filled from the back so that
    // `edge[r0]` ends as the first slot of bucket `r0`.
    let mut edge = vec![0u32; max + 2];
    for &(r0, _) in ands {
        edge[r0 as usize] += 1;
    }
    let mut sum = 0;
    for e in &mut edge {
        sum += *e;
        *e = sum;
    }
    let mut rhs1 = vec![0u32; ands.len()];
    for &(r0, r1) in ands.iter().rev() {
        edge[r0 as usize] -= 1;
        rhs1[edge[r0 as usize] as usize] = r1;
    }
    edge.windows(2).all(|w| {
        let bucket = &mut rhs1[w[0] as usize..w[1] as usize];
        bucket.sort_unstable();
        bucket.windows(2).all(|p| p[0] != p[1])
    })
}

/// ASCII (`aag`) ingestion. Literals are explicit and ANDs may appear in any
/// order: one pass in file order builds those whose operands are defined,
/// and [`resolution_order`] orders the rest.
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

    // Construct the netlist: inputs, latches, then ANDs in resolution order.
    // The variable table holds only the variables the file defines.
    let mut n = Netlist::new();
    let mut var_lit: HashMap<u32, Lit> = HashMap::from([(0, Lit::FALSE)]);
    let in_range = |v: u32, what: &str| {
        (v <= m)
            .then_some(v)
            .ok_or_else(|| parse_err(format!("{what} var out of range")))
    };
    for ((k, &v), name) in input_vars.iter().enumerate().zip(syms.inputs) {
        let g = n.input(name.unwrap_or_else(|| format!("i{k}")));
        var_lit.insert(in_range(v, "input")?, g.lit());
    }
    let mut regs: Vec<Gate> = Vec::new();
    for ((k, &v), name) in latch_vars.iter().enumerate().zip(syms.latches) {
        let name = name.unwrap_or_else(|| format!("l{k}"));
        let g = n.reg(name, latch_init(latch_reset[k], 2 * v)?);
        regs.push(g);
        var_lit.insert(in_range(v, "latch")?, g.lit());
    }
    for &(lhs, _, _) in &and_defs {
        in_range(lhs >> 1, "and")?;
    }
    // The worklist's first pass: in file order, every AND whose operands
    // are defined when it is reached. A file in dependency order is done.
    let mut rest: Vec<(u32, u32, u32)> = Vec::new();
    for &def in &and_defs {
        if !build_and(&mut n, &mut var_lit, def) {
            rest.push(def);
        }
    }
    let cyclic = || parse_err("cyclic or dangling AND definitions");
    for k in resolution_order(&rest, |v| var_lit.contains_key(&v)).ok_or_else(cyclic)? {
        if !build_and(&mut n, &mut var_lit, rest[k]) {
            return Err(cyclic());
        }
    }
    for (k, &r) in regs.iter().enumerate() {
        let next = resolve(&var_lit, latch_next[k])
            .ok_or_else(|| parse_err(format!("latch {k} next literal undefined")))?;
        n.set_next(r, next);
    }
    for ((k, &out_lit), name) in outputs.iter().enumerate().zip(syms.outputs) {
        let lit = resolve(&var_lit, out_lit)
            .ok_or_else(|| parse_err(format!("output {k} literal undefined")))?;
        n.add_target(lit, name.unwrap_or_else(|| format!("o{k}")));
    }
    for (k, &bad_lit) in bads.iter().enumerate() {
        let lit = resolve(&var_lit, bad_lit)
            .ok_or_else(|| parse_err(format!("bad {k} literal undefined")))?;
        n.add_target(lit, format!("b{k}"));
    }
    Ok(n)
}

/// Builds the ASCII AND `(lhs, rhs0, rhs1)` and defines `lhs`, if both
/// operands are defined; `false` if not.
fn build_and(n: &mut Netlist, var_lit: &mut HashMap<u32, Lit>, def: (u32, u32, u32)) -> bool {
    let (lhs, rhs0, rhs1) = def;
    let (Some(fa), Some(fb)) = (resolve(var_lit, rhs0), resolve(var_lit, rhs1)) else {
        return false;
    };
    let lit = n.and(fa, fb);
    var_lit.insert(lhs >> 1, lit.xor_complement(lhs & 1 != 0));
    true
}

/// The order in which the ASCII reader builds the ANDs `(lhs, rhs0, rhs1)`
/// left after its first pass: that of a worklist making further passes
/// over them in file order, where each pass builds every AND whose operand
/// variables are defined (by `predefined`, or by an AND built earlier) when
/// the pass reaches it. `None` when some AND is never built: its operands
/// are cyclic or dangling.
///
/// Rather than pass after pass, one event-driven walk finds each AND's
/// pass, its round: an AND becomes ready when the last of its operand
/// variables is first defined, in the same round if it lies later in the
/// file than the AND that defined it, else in the next. Ready ANDs are
/// taken by round, then file position, from a heap: O(A log A) for `A`
/// ANDs, where the passes took O(A²) on reverse-ordered files.
fn resolution_order(
    ands: &[(u32, u32, u32)],
    predefined: impl Fn(u32) -> bool,
) -> Option<Vec<usize>> {
    // A dense slot per variable that only ANDs define.
    let mut slot: HashMap<u32, usize> = HashMap::new();
    for &(lhs, _, _) in ands {
        if !predefined(lhs >> 1) {
            let next = slot.len();
            slot.entry(lhs >> 1).or_insert(next);
        }
    }
    // `waiting[s]`: the ANDs that wait for slot `s`; `missing[k]`: how many
    // distinct operand variables AND `k` still waits for.
    let mut waiting: Vec<Vec<usize>> = vec![Vec::new(); slot.len()];
    let mut missing = vec![0u8; ands.len()];
    for (k, &(_, rhs0, rhs1)) in ands.iter().enumerate() {
        let (u, w) = (rhs0 >> 1, rhs1 >> 1);
        for v in [Some(u), (w != u).then_some(w)].into_iter().flatten() {
            if !predefined(v) {
                waiting[*slot.get(&v)?].push(k);
                missing[k] += 1;
            }
        }
    }
    let mut ready: BinaryHeap<Reverse<(usize, usize)>> = (0..ands.len())
        .filter(|&k| missing[k] == 0)
        .map(|k| Reverse((0, k)))
        .collect();
    let mut defined = vec![false; slot.len()];
    let mut order = Vec::with_capacity(ands.len());
    while let Some(Reverse((round, k))) = ready.pop() {
        order.push(k);
        let Some(&s) = slot.get(&(ands[k].0 >> 1)) else {
            continue;
        };
        if std::mem::replace(&mut defined[s], true) {
            continue;
        }
        for &w in &waiting[s] {
            missing[w] -= 1;
            if missing[w] == 0 {
                ready.push(Reverse((if w > k { round } else { round + 1 }, w)));
            }
        }
    }
    (order.len() == ands.len()).then_some(order)
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
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::io::Cursor;
    use std::time::{Duration, Instant};

    /// The worklist ASCII reader, the reference for `read_ascii` and
    /// [`resolution_order`]: it passes over the pending ANDs in file order
    /// until none is left, which takes one pass per AND on a file listing
    /// them in reverse dependency order.
    fn worklist_read_ascii<R: BufRead>(mut reader: R, hdr: Header) -> Result<Netlist, AigerError> {
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

    fn worklist_read(text: &[u8]) -> Result<Netlist, AigerError> {
        let mut reader = Cursor::new(text);
        let (binary, hdr) = read_header(&mut reader)?;
        assert!(!binary, "the worklist reference reads ASCII only");
        worklist_read_ascii(reader, hdr)
    }

    /// Everything two readers must agree on: every gate's kind, name and
    /// register functions, the input and register lists, and the targets.
    fn snapshot(n: &Netlist) -> impl PartialEq + fmt::Debug {
        let gates: Vec<_> = n
            .gates()
            .map(|g| {
                let reg = n.is_reg(g).then(|| (n.reg_next(g), n.reg_init(g)));
                (n.kind(g), n.name(g).map(str::to_owned), reg)
            })
            .collect();
        (
            gates,
            n.inputs().to_vec(),
            n.regs().to_vec(),
            n.targets().to_vec(),
        )
    }

    /// `read` and the worklist reference give the same netlist, or the same
    /// error.
    fn assert_matches_worklist(text: &[u8]) {
        let context = String::from_utf8_lossy(text);
        match (read(Cursor::new(text)), worklist_read(text)) {
            (Ok(new), Ok(old)) => assert_eq!(snapshot(&new), snapshot(&old), "{context}"),
            (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string(), "{context}"),
            (new, old) => panic!("{context}\nread: {new:?}\nworklist: {old:?}"),
        }
    }

    /// A random sequential netlist that AIGER can express: `ni` inputs, `nr`
    /// registers with constant or nondeterministic resets, `na` AND picks
    /// over a growing pool, and one to three targets.
    fn random_netlist(seed: u64, ni: usize, nr: usize, na: usize) -> Netlist {
        let mut rng = SplitMix64::new(seed);
        let mut n = Netlist::new();
        let mut pool: Vec<Lit> = (0..ni).map(|k| n.input(format!("x{k}")).lit()).collect();
        let regs: Vec<Gate> = (0..nr)
            .map(|k| {
                n.reg(
                    format!("r{k}"),
                    [Init::Zero, Init::One, Init::Nondet][k % 3],
                )
            })
            .collect();
        pool.extend(regs.iter().map(|r| r.lit()));
        let pick = |rng: &mut SplitMix64, pool: &[Lit]| {
            pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.bool())
        };
        for _ in 0..na {
            let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
            let x = n.and(a, b);
            pool.push(x);
        }
        for &r in &regs {
            let next = pick(&mut rng, &pool);
            n.set_next(r, next);
        }
        for k in 0..1 + rng.below(3) {
            let t = pick(&mut rng, &pool);
            n.add_target(t, format!("t{k}"));
        }
        n
    }

    /// `n` as ASCII AIGER with its AND lines in a random order.
    fn shuffled_ascii(n: &Netlist, rng: &mut SplitMix64) -> String {
        let mut buf = Vec::new();
        write_ascii(n, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let first = 1 + n.num_inputs() + n.num_regs() + n.targets().len();
        let ands = &mut lines[first..first + n.num_ands()];
        for k in (1..ands.len()).rev() {
            ands.swap(k, rng.below(k as u64 + 1) as usize);
        }
        lines.join("\n") + "\n"
    }

    /// A file listing 20,000 ANDs in reverse dependency order resolves one
    /// AND per worklist pass; in one event-driven pass it reads at once.
    #[test]
    fn reverse_ordered_ascii_ands_read_in_near_linear_time() {
        const ANDS: u32 = 20_000;
        let mut text = format!("aag {} 2 0 1 {ANDS}\n2\n4\n{}\n", ANDS + 2, 2 * (ANDS + 2));
        for k in (1..=ANDS).rev() {
            text += &format!("{} {} 2\n", 2 * (k + 2), 2 * (k + 1));
        }
        let start = Instant::now();
        let n = read(Cursor::new(text)).unwrap();
        let took = start.elapsed();
        assert_eq!(n.num_ands(), ANDS as usize);
        assert!(took < Duration::from_secs(2), "took {took:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Shuffled AND lines read to the worklist reference's netlist.
        #[test]
        fn ascii_resolution_matches_the_worklist(
            seed in any::<u64>(),
            ni in 1usize..5,
            nr in 0usize..5,
            na in 0usize..40,
        ) {
            let n = random_netlist(seed, ni, nr, na);
            let text = shuffled_ascii(&n, &mut SplitMix64::new(!seed));
            let m = read(Cursor::new(&text)).unwrap();
            prop_assert_eq!(m.num_ands(), n.num_ands());
            assert_matches_worklist(text.as_bytes());
        }

        /// Files whose AND lines were rewritten — variables defined twice,
        /// inputs and latches redefined, operands made cyclic or dangling —
        /// read to the worklist reference's netlist or to its error.
        #[test]
        fn ascii_resolution_matches_the_worklist_on_rewritten_ands(
            seed in any::<u64>(),
            ni in 1usize..4,
            nr in 0usize..4,
            na in 1usize..24,
            edits in proptest::collection::vec((any::<u64>(), 0u8..3), 1..4),
        ) {
            let n = random_netlist(seed, ni, nr, na);
            let text = shuffled_ascii(&n, &mut SplitMix64::new(!seed));
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let first = 1 + n.num_inputs() + n.num_regs() + n.targets().len();
            for (r, field) in edits.into_iter().filter(|_| n.num_ands() > 0) {
                // Any literal of the file's variables, as the new left-hand
                // side or operand of a random AND line.
                let mut rng = SplitMix64::new(r);
                let row = &mut lines[first + rng.below(n.num_ands() as u64) as usize];
                let mut nums: Vec<u32> = row.split(' ').map(|f| f.parse().unwrap()).collect();
                nums[usize::from(field)] = rng.below(2 * n.num_gates() as u64) as u32;
                let nums: Vec<String> = nums.iter().map(u32::to_string).collect();
                *row = nums.join(" ");
            }
            let text = lines.join("\n") + "\n";
            assert_matches_worklist(text.as_bytes());
        }
    }

    /// A binary AND section `(rhs0, rhs1)` with the inputs, latches and
    /// outputs around it, written as binary by a test-side delta encoder
    /// and as ASCII.
    struct RawAiger {
        inputs: u32,
        latches: Vec<(u32, u32)>,
        outputs: Vec<u32>,
        ands: Vec<(u32, u32)>,
    }

    impl RawAiger {
        fn header(&self, tag: &str) -> String {
            let (i, l, a) = (
                self.inputs,
                self.latches.len() as u32,
                self.ands.len() as u32,
            );
            let o = self.outputs.len();
            format!("{tag} {} {i} {l} {o} {a}\n", i + l + a)
        }

        fn symbols(&self) -> String {
            let mut s = String::new();
            for k in (0..self.inputs).step_by(2) {
                s += &format!("i{k} in{k}\n");
            }
            for k in (1..self.latches.len()).step_by(2) {
                s += &format!("l{k} latch{k}\n");
            }
            for k in (0..self.outputs.len()).step_by(2) {
                s += &format!("o{k} out{k}\n");
            }
            s + "c\n"
        }

        fn binary(&self) -> Vec<u8> {
            let mut out = self.header("aig").into_bytes();
            for &(next, reset) in &self.latches {
                out.extend(format!("{next} {reset}\n").bytes());
            }
            for &o in &self.outputs {
                out.extend(format!("{o}\n").bytes());
            }
            let first = self.inputs + self.latches.len() as u32;
            for (k, &(rhs0, rhs1)) in self.ands.iter().enumerate() {
                let lhs = 2 * (first + k as u32 + 1);
                for mut delta in [lhs - rhs0, rhs0 - rhs1] {
                    while delta >= 0x80 {
                        out.push(delta as u8 | 0x80);
                        delta >>= 7;
                    }
                    out.push(delta as u8);
                }
            }
            out.extend(self.symbols().bytes());
            out
        }

        fn ascii(&self) -> Vec<u8> {
            let mut out = self.header("aag");
            for k in 0..self.inputs {
                out += &format!("{}\n", 2 * (k + 1));
            }
            for (k, &(next, reset)) in self.latches.iter().enumerate() {
                out += &format!("{} {next} {reset}\n", 2 * (self.inputs + k as u32 + 1));
            }
            for &o in &self.outputs {
                out += &format!("{o}\n");
            }
            let first = self.inputs + self.latches.len() as u32;
            for (k, &(rhs0, rhs1)) in self.ands.iter().enumerate() {
                out += &format!("{} {rhs0} {rhs1}\n", 2 * (first + k as u32 + 1));
            }
            (out + &self.symbols()).into_bytes()
        }

        /// Whether `read_binary` may append the ANDs as they stand: none
        /// folds and no two share their operands.
        fn appendable(&self) -> bool {
            let folds = self
                .ands
                .iter()
                .any(|&(r0, r1)| r1 < 2 || r0 >> 1 == r1 >> 1);
            let distinct: HashSet<_> = self.ands.iter().collect();
            !folds && distinct.len() == self.ands.len()
        }
    }

    /// Random AND lists over inputs and latches, some with a planted
    /// duplicate pair, constant operand, or variable used twice (plain and
    /// complemented), read as binary and as ASCII. The ASCII reader builds
    /// every AND through `Netlist::and`, so the two agree only if the binary
    /// reader's append path and its `and` path are both exact.
    #[test]
    fn binary_ands_read_like_ascii_on_both_paths() {
        const CASES: usize = 512;
        let mut appended = 0;
        for seed in 0..CASES as u64 {
            let mut rng = SplitMix64::new(seed);
            let inputs = 2 + rng.below(3) as u32;
            let nl = rng.below(4) as u32;
            let na = 1 + rng.below(40) as u32;
            let mut ands: Vec<(u32, u32)> = Vec::new();
            for k in 0..na {
                // Two different older variables, each in either phase.
                let older = inputs + nl + k;
                let u = 1 + rng.below(u64::from(older)) as u32;
                let w = 1 + (u + rng.below(u64::from(older) - 1) as u32) % older;
                let x = 2 * u + u32::from(rng.bool());
                let y = 2 * w + u32::from(rng.bool());
                ands.push((x.max(y), x.min(y)));
            }
            if rng.bool() {
                // One AND gets a constant operand, one variable twice, or
                // an older AND's operands.
                let k = rng.below(u64::from(na)) as usize;
                let r0 = ands[k].0;
                ands[k] = match rng.below(4) {
                    0 => (r0, rng.below(2) as u32),
                    1 => (r0, r0),
                    2 => (r0 | 1, r0 & !1),
                    _ if k > 0 => ands[rng.below(k as u64) as usize],
                    _ => (r0, 0),
                };
            }
            let vars = u64::from(inputs + nl + na);
            let lit = |rng: &mut SplitMix64| rng.below(2 * vars + 2) as u32;
            let latches = (0..nl)
                .map(|k| {
                    let reset = [0, 1, 2 * (inputs + k + 1)][rng.below(3) as usize];
                    (lit(&mut rng), reset)
                })
                .collect();
            let outputs = (0..1 + rng.below(3)).map(|_| lit(&mut rng)).collect();
            let raw = RawAiger {
                inputs,
                latches,
                outputs,
                ands,
            };
            appended += usize::from(raw.appendable());
            let via_binary = read(Cursor::new(raw.binary())).unwrap();
            let via_ascii = read(Cursor::new(raw.ascii())).unwrap();
            assert_eq!(snapshot(&via_binary), snapshot(&via_ascii), "seed {seed}");
            via_binary.validate().unwrap();
        }
        println!(
            "binary ANDs appended in {appended} of {CASES} cases, built through `and` in {}",
            CASES - appended
        );
        assert!(
            (CASES / 4..CASES * 3 / 4).contains(&appended),
            "{appended} of {CASES}"
        );
    }

    /// A netlist read from binary AIGER has no structural-hash index until
    /// its first `and`, which indexes the ANDs it read: asking for an
    /// existing AND returns it, a fresh pair adds exactly one gate.
    #[test]
    fn and_on_a_read_netlist_reuses_the_gates_it_read() {
        let mut rng = SplitMix64::new(7);
        let n = random_netlist(7, 3, 3, 40);
        let mut buf = Vec::new();
        write_binary(&n, &mut buf).unwrap();
        let mut m = read(Cursor::new(buf)).unwrap();
        let gates = m.num_gates();
        let ands: Vec<Gate> = m
            .gates()
            .filter(|&g| matches!(m.kind(g), GateKind::And(..)))
            .collect();
        assert_eq!(ands.len(), n.num_ands());
        for &g in &ands {
            let GateKind::And(a, b) = m.kind(g) else {
                unreachable!()
            };
            let (a, b) = if rng.bool() { (a, b) } else { (b, a) };
            assert_eq!(m.and(a, b), g.lit());
            assert_eq!(m.num_gates(), gates);
        }
        let newest = *ands.last().unwrap();
        let fresh = m.and(newest.lit(), !m.inputs()[0].lit());
        assert_eq!(m.num_gates(), gates + 1);
        assert_eq!(m.and(!m.inputs()[0].lit(), newest.lit()), fresh);
        assert_eq!(m.num_gates(), gates + 1);
        m.validate().unwrap();
    }

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

    /// A binary delta is a u32: at most five 7-bit groups, the fifth of four
    /// bits. Longer deltas used to shift past bit 31, a panic in debug
    /// builds and lost high bits in release builds.
    #[test]
    fn rejects_overflowing_binary_deltas() {
        let header = b"aig 1 0 0 0 1\n";
        let deltas: [&[u8]; 3] = [
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00],
            &[0xff, 0xff, 0xff, 0xff, 0x1f, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x00],
        ];
        for delta in deltas {
            let file = [&header[..], delta].concat();
            assert!(
                matches!(read(std::io::Cursor::new(file)), Err(AigerError::Parse(_))),
                "{delta:02x?} must be rejected"
            );
        }
        // Dropping the high bit of 2 + 2^32 would leave a valid delta of 2.
        let file = [
            &b"aig 2 1 0 0 1\n"[..],
            &[0x82, 0x80, 0x80, 0x80, 0x10, 0x00],
        ]
        .concat();
        assert!(matches!(
            read(std::io::Cursor::new(file)),
            Err(AigerError::Parse(_))
        ));
        // The largest u32 still decodes; it then underflows the gate.
        let file = [&header[..], &[0xff, 0xff, 0xff, 0xff, 0x0f, 0x00]].concat();
        let err = read(std::io::Cursor::new(file)).unwrap_err();
        assert!(err.to_string().contains("underflow"), "{err}");
        let file = [&b"aig 2 1 0 0 1\n"[..], &[0x02, 0x00]].concat();
        assert_eq!(read(std::io::Cursor::new(file)).unwrap().num_inputs(), 1);
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
