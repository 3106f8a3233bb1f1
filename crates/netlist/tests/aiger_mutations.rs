//! Byte-mutation harness for both AIGER readers.
//!
//! Valid ASCII and binary files — the LOCKSTEP fixture, an archetype
//! composition, ISCAS- and GP-profile designs, and a `large` design of about
//! 20k gates — are truncated, bit-flipped, grown or shrunk by a byte, given
//! AND deltas with the continuation bit set, given swapped AND lines, and
//! given header counts raised toward `u32::MAX`. `aiger::read` must return
//! an error or a netlist that validates, and never panic. Declared input
//! counts stay at or below 2^16: a binary header makes the reader build its
//! inputs before it reads anything else, and how to bound that is an open
//! policy question, not this harness's.

use diam_gen::archetypes;
use diam_gen::large::{large, LargeOptions};
use diam_gen::{gp, iscas, profile};
use diam_netlist::sim::SplitMix64;
use diam_netlist::{aiger, Netlist};
use std::io::Cursor;
use std::ops::Range;

const LOCKSTEP: &str = "aag 7 2 2 2 3\n2\n4\n6 14 0\n8 12 0\n6\n8\n10 2 4\n12 10 0\n14 4 4\ni0 a\ni1 b\nl0 r\nl1 s\no0 t_r\no1 t_s\n";

/// The largest input count a mutated header declares.
const MAX_INPUTS: u32 = 1 << 16;

/// One mutation of a valid file.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate(usize),
    Flip(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    /// Sets the continuation bit of a run of bytes in the binary AND
    /// section, which merges deltas into longer ones.
    Continue(usize, usize),
    /// Swaps two ASCII AND lines, which leaves the file valid.
    SwapAnds(usize, usize),
    /// Sets header field `1..=6` (M I L O A B) to the value; when the count
    /// grows, M grows with it where that fits a u32, so the body is read.
    Header(usize, u32),
}

/// A valid AIGER file and where its AND section lies.
struct Seed {
    name: String,
    bytes: Vec<u8>,
    binary: bool,
    /// Byte range of the binary AND deltas, or line range of the ASCII AND
    /// lines.
    ands: Range<usize>,
}

impl Seed {
    fn new(name: &str, bytes: Vec<u8>) -> Seed {
        let text = String::from_utf8_lossy(&bytes);
        let header: Vec<usize> = text
            .lines()
            .next()
            .unwrap()
            .split(' ')
            .skip(1)
            .map(|f| f.parse().unwrap())
            .collect();
        let (i, l, o, a) = (header[1], header[2], header[3], header[4]);
        let b = header.get(5).copied().unwrap_or(0);
        let binary = bytes.starts_with(b"aig");
        let ands = if binary {
            // The deltas follow the header, latch, output and bad lines.
            let lines = 1 + l + o + b;
            let start = bytes
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == b'\n')
                .nth(lines - 1)
                .map_or(0, |(k, _)| k + 1);
            let mut end = start;
            let mut deltas = 0;
            while deltas < 2 * a {
                deltas += usize::from(bytes[end] & 0x80 == 0);
                end += 1;
            }
            start..end
        } else {
            let first = 1 + i + l + o + b;
            first..first + a
        };
        Seed {
            name: name.to_string(),
            bytes,
            binary,
            ands,
        }
    }

    fn draw(&self, rng: &mut SplitMix64) -> Mutation {
        let len = self.bytes.len() as u64;
        let at = |rng: &mut SplitMix64| rng.below(len) as usize;
        let in_ands = |rng: &mut SplitMix64| {
            let r = &self.ands;
            r.start + rng.below((r.end - r.start).max(1) as u64) as usize
        };
        match rng.below(6) {
            0 => Mutation::Truncate(at(rng)),
            1 => Mutation::Flip(at(rng), 1 << rng.below(8)),
            2 => Mutation::Insert(at(rng), rng.below(256) as u8),
            3 => Mutation::Delete(at(rng)),
            4 if self.binary => Mutation::Continue(in_ands(rng), 1 + rng.below(8) as usize),
            4 => Mutation::SwapAnds(in_ands(rng), in_ands(rng)),
            _ => {
                let field = 1 + rng.below(6) as usize;
                let value = u32::MAX >> rng.below(32);
                let value = if field == 2 {
                    value.min(MAX_INPUTS)
                } else {
                    value
                };
                Mutation::Header(field, value)
            }
        }
    }

    /// The mutated file, or `None` when the mutation does not apply here.
    fn apply(&self, m: Mutation) -> Option<Vec<u8>> {
        let mut bytes = self.bytes.clone();
        match m {
            Mutation::Truncate(at) => bytes.truncate(at),
            Mutation::Flip(at, bit) => bytes[at] ^= bit,
            Mutation::Insert(at, byte) => bytes.insert(at, byte),
            Mutation::Delete(at) => {
                bytes.remove(at);
            }
            Mutation::Continue(at, run) => {
                for byte in bytes.iter_mut().skip(at).take(run) {
                    *byte |= 0x80;
                }
            }
            Mutation::SwapAnds(x, y) => {
                if self.ands.is_empty() {
                    return None;
                }
                let text = String::from_utf8(bytes).unwrap();
                let mut lines: Vec<&str> = text.lines().collect();
                lines.swap(x, y);
                bytes = (lines.join("\n") + "\n").into_bytes();
            }
            Mutation::Header(field, value) => {
                let end = bytes.iter().position(|&c| c == b'\n').unwrap();
                let header = String::from_utf8(bytes[..end].to_vec()).unwrap();
                let mut fields: Vec<String> = header.split(' ').map(str::to_string).collect();
                if fields.len() == 6 {
                    fields.push("0".into());
                }
                fields[field] = value.to_string();
                let count = |k: usize| fields[k].parse::<u32>().unwrap();
                if let Some(sum) = count(2)
                    .checked_add(count(3))
                    .and_then(|x| x.checked_add(count(5)))
                {
                    if sum > count(1) && sum < u32::MAX / 2 {
                        fields[1] = sum.to_string();
                    }
                }
                let header = fields.join(" ");
                bytes.splice(..end, header.bytes());
            }
        }
        Some(bytes)
    }
}

/// Reads `bytes`: `None` for an error, the netlist otherwise, which must
/// validate. A panic names the mutation that caused it.
fn read_checked(bytes: &[u8], what: &dyn Fn() -> String) -> Option<Netlist> {
    let read = std::panic::catch_unwind(|| aiger::read(Cursor::new(bytes)));
    match read {
        Err(_) => panic!("{}: the reader panicked", what()),
        Ok(Err(_)) => None,
        Ok(Ok(n)) => {
            if let Err(e) = n.validate() {
                panic!("{}: read a netlist that does not validate: {e}", what());
            }
            Some(n)
        }
    }
}

/// A small composition of the archetypes the bounding engines classify.
fn archetype_design() -> Netlist {
    let mut n = Netlist::new();
    let step = n.input("step").lit();
    let tokens = archetypes::token_ring(&mut n, "ring", 6, step);
    let (_, grants) = archetypes::round_robin_arbiter(&mut n, "arb", 4);
    let j = archetypes::johnson_counter(&mut n, "j", 5, step);
    let enable = archetypes::pipeline(&mut n, "en", 2);
    let c = archetypes::counter(&mut n, "cnt", 5, enable.tail);
    let two = n.and(tokens[0].lit(), tokens[3].lit());
    n.add_target(two, "ring_two_tokens");
    let both = n.and(grants[0], grants[3]);
    n.add_target(both, "arb_double_grant");
    let ones = n.and_many(j.iter().map(|r| r.lit()));
    n.add_target(ones, "j_all_ones");
    n.add_target(c.all_ones, "cnt_wrap");
    n
}

/// Every seed file, each design as ASCII and as binary.
fn seeds() -> Vec<(Seed, usize)> {
    let lockstep = aiger::read(Cursor::new(LOCKSTEP)).unwrap();
    let mut designs = vec![
        ("lockstep", lockstep, 300),
        ("archetypes", archetype_design(), 300),
        ("iscas0", profile::build(&iscas::profiles()[0], 1), 150),
        ("iscas1", profile::build(&iscas::profiles()[1], 1), 150),
        ("gp0", profile::build(&gp::profiles()[0], 1), 150),
    ];
    let big = large(&LargeOptions {
        min_gates: 20_000,
        seed: 1,
    });
    designs.push(("large", big, 20));
    let mut seeds = Vec::new();
    for (name, n, rounds) in designs {
        let mut ascii = Vec::new();
        if name == "lockstep" {
            ascii.extend(LOCKSTEP.bytes());
        } else {
            aiger::write_ascii(&n, &mut ascii).unwrap();
        }
        let mut binary = Vec::new();
        aiger::write_binary(&n, &mut binary).unwrap();
        seeds.push((Seed::new(&format!("{name}.aag"), ascii), rounds));
        seeds.push((Seed::new(&format!("{name}.aig"), binary), rounds));
    }
    seeds
}

#[test]
fn mutated_files_read_to_an_error_or_a_valid_netlist() {
    // Optimized runs try eight times as many mutations.
    let scale = if cfg!(debug_assertions) { 1 } else { 8 };
    let mut read_ok = 0;
    let mut tried = 0;
    for (seed, rounds) in seeds() {
        let original = read_checked(&seed.bytes, &|| format!("{} unmutated", seed.name))
            .expect("seed files are valid");
        let mut rng = SplitMix64::new(0xA16E ^ seed.bytes.len() as u64);
        for round in 0..rounds * scale {
            let m = seed.draw(&mut rng);
            let Some(bytes) = seed.apply(m) else {
                continue;
            };
            tried += 1;
            let what = || format!("{} round {round}: {m:?}", seed.name);
            let read = read_checked(&bytes, &what);
            if let Mutation::SwapAnds(..) = m {
                // ASCII ANDs may come in any order: still the same design.
                let n = read.as_ref();
                let n = n.unwrap_or_else(|| panic!("{}: a valid file was rejected", what()));
                assert_eq!(n.num_ands(), original.num_ands(), "{}", what());
            }
            read_ok += usize::from(read.is_some());
        }
    }
    println!("{read_ok} of {tried} mutated files read to a valid netlist, the rest to an error");
    assert!(read_ok > 0 && read_ok < tried, "{read_ok} of {tried}");
}

/// Headers raised toward `u32::MAX` end in an error at end of file: the
/// readers size nothing from header counts.
#[test]
fn raised_header_counts_end_in_errors() {
    let mut binary = Vec::new();
    let n = aiger::read(Cursor::new(LOCKSTEP)).unwrap();
    aiger::write_binary(&n, &mut binary).unwrap();
    for seed in [
        Seed::new("lockstep.aag", LOCKSTEP.as_bytes().to_vec()),
        Seed::new("lockstep.aig", binary),
    ] {
        for field in 3..=6 {
            for value in [u32::MAX, u32::MAX / 2, 1 << 31, 1 << 24] {
                let bytes = seed.apply(Mutation::Header(field, value)).unwrap();
                let what = || format!("{} field {field} = {value}", seed.name);
                assert!(read_checked(&bytes, &what).is_none(), "{}", what());
            }
        }
    }
}
