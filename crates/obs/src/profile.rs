//! Sampling-profiler storage, symbolization, and folded-stack rendering.
//!
//! This module owns everything about the in-tree CPU profiler that does
//! *not* need raw syscalls: the lock-free pre-allocated sample buffer the
//! SIGPROF handler writes into, the offline ELF symbolizer, the legacy
//! Rust demangler, and the flamegraph-compatible folded-stack renderer.
//! The signal/timer plumbing (`setitimer`, `rt_sigaction`, the frame
//! pointer walk) lives in `atpm-net::sys`, which already owns the raw
//! syscall layer; it calls [`record_sample`] from the handler.
//!
//! # Async-signal-safety
//!
//! [`record_sample`] is the only function a signal handler may call. It
//! performs no allocation, takes no locks, and touches nothing but static
//! atomics: a cursor reservation (`fetch_add`) claims a contiguous slice
//! of the flat buffer, the frame PCs are stored, and only then is the
//! record's length slot published with `Release`. Readers scan with
//! `Acquire` and stop at a zero length, so a half-written record (handler
//! preempted between reservation and publish) hides itself and everything
//! after it until it completes — never a torn read.
//!
//! # Buffer layout
//!
//! A flat `[AtomicUsize; 2^20]` (8 MiB of zeroed .bss) holding
//! back-to-back records `[len, pc0, pc1, ..]` with `pc0` the leaf. The
//! buffer is append-only until full: profiling windows are bounded
//! (`/debug/profile?seconds=N` clamps at 30 s; 99 Hz × 30 s × ≤65 words
//! ≈ 193 K words per window), and once the cursor passes the end new
//! samples are counted in [`dropped`] rather than wrapping — a ring would
//! let the writer overtake a reader mid-scan.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Deepest stack a single sample keeps; frames below are truncated.
pub const MAX_DEPTH: usize = 64;

/// Buffer capacity in words (`len` slots + PCs), not samples.
pub const CAP_WORDS: usize = 1 << 20;

static BUF: [AtomicUsize; CAP_WORDS] = [const { AtomicUsize::new(0) }; CAP_WORDS];
static CURSOR: AtomicUsize = AtomicUsize::new(0);
static SAMPLES: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Append one stack (leaf first) to the sample buffer.
///
/// Async-signal-safe: no alloc, no locks, bounded work. Called from the
/// SIGPROF handler in `atpm-net::sys`; also directly from tests.
pub fn record_sample(pcs: &[usize]) {
    let n = pcs.len().min(MAX_DEPTH);
    if n == 0 {
        return;
    }
    let start = CURSOR.fetch_add(n + 1, Ordering::Relaxed);
    if start.saturating_add(n + 1) > CAP_WORDS {
        // Buffer exhausted. The cursor stays past the end (no undo: a
        // concurrent reservation may already sit after ours); readers
        // clamp to CAP_WORDS.
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    for (i, &pc) in pcs[..n].iter().enumerate() {
        BUF[start + 1 + i].store(pc, Ordering::Relaxed);
    }
    // Publish: the non-zero length makes the record (and, transitively,
    // every record before it) visible to an Acquire scan.
    BUF[start].store(n, Ordering::Release);
    SAMPLES.fetch_add(1, Ordering::Relaxed);
}

/// Current buffer position; pass to [`collect_since`] to window a
/// profiling run (`/debug/profile` snapshots this, sleeps, then collects).
pub fn cursor() -> usize {
    CURSOR.load(Ordering::Relaxed).min(CAP_WORDS)
}

/// Total samples successfully recorded since process start.
pub fn samples() -> u64 {
    SAMPLES.load(Ordering::Relaxed)
}

/// Samples lost to buffer exhaustion since process start.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Read every complete record in `[pos, cursor)`, leaf-first per stack.
///
/// Stops early at an unpublished record (a handler caught between
/// reservation and publish); the next window picks those up.
pub fn collect_since(pos: usize) -> Vec<Vec<usize>> {
    let end = cursor();
    let mut out = Vec::new();
    let mut i = pos.min(end);
    while i < end {
        let len = BUF[i].load(Ordering::Acquire);
        if len == 0 || len > MAX_DEPTH || i + 1 + len > end {
            break;
        }
        out.push(
            (0..len)
                .map(|j| BUF[i + 1 + j].load(Ordering::Relaxed))
                .collect(),
        );
        i += 1 + len;
    }
    out
}

// ---------------------------------------------------------------------------
// Offline symbolization: /proc/self/exe ELF symtab + /proc/self/maps bias.
// ---------------------------------------------------------------------------

struct Sym {
    addr: usize,
    size: usize,
    name: String,
}

/// Resolves sampled PCs to demangled function names against the running
/// executable's own symbol table. Built once per render, entirely offline
/// (never in the signal handler).
pub struct Symbolizer {
    /// FUNC symbols sorted by address, demangled.
    syms: Vec<Sym>,
    /// Runtime load address minus link-time vaddr (0 for non-PIE).
    bias: usize,
}

impl Symbolizer {
    /// Build from the current process: `/proc/self/exe` for the symbol
    /// table, `/proc/self/maps` for the load bias.
    pub fn from_self() -> io::Result<Symbolizer> {
        let elf = std::fs::read("/proc/self/exe")?;
        let maps = std::fs::read_to_string("/proc/self/maps")?;
        let exe = std::fs::read_link("/proc/self/exe")?;
        Symbolizer::build(&elf, &maps, &exe.to_string_lossy())
    }

    fn build(elf: &[u8], maps: &str, exe_path: &str) -> io::Result<Symbolizer> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let u16_at = |off: usize| -> Option<u64> {
            elf.get(off..off + 2)
                .map(|b| u16::from_le_bytes(b.try_into().unwrap()) as u64)
        };
        let u32_at = |off: usize| -> Option<u64> {
            elf.get(off..off + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as u64)
        };
        let u64_at = |off: usize| -> Option<u64> {
            elf.get(off..off + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        };
        if elf.len() < 64 || &elf[..4] != b"\x7fELF" || elf[4] != 2 || elf[5] != 1 {
            return Err(bad("not a little-endian ELF64 image"));
        }

        // Minimum PT_LOAD vaddr: what the lowest exe mapping corresponds to.
        let ph_off = u64_at(0x20).ok_or_else(|| bad("truncated header"))? as usize;
        let ph_entsize = u16_at(0x36).unwrap_or(56) as usize;
        let ph_num = u16_at(0x38).unwrap_or(0) as usize;
        let mut min_vaddr = u64::MAX;
        for i in 0..ph_num {
            let off = ph_off + i * ph_entsize;
            if u32_at(off) == Some(1) {
                // PT_LOAD
                min_vaddr = min_vaddr.min(u64_at(off + 16).ok_or_else(|| bad("truncated phdr"))?);
            }
        }
        if min_vaddr == u64::MAX {
            return Err(bad("no PT_LOAD segment"));
        }

        // Lowest mapping of the executable itself.
        let map_base = maps
            .lines()
            .filter(|line| line.rsplit(' ').next().is_some_and(|p| p == exe_path))
            .filter_map(|line| {
                let range = line.split_whitespace().next()?;
                usize::from_str_radix(range.split('-').next()?, 16).ok()
            })
            .min()
            .ok_or_else(|| bad("executable not found in /proc/self/maps"))?;
        let bias = map_base.wrapping_sub(min_vaddr as usize);

        // Section headers: prefer .symtab (type 2), fall back to .dynsym (11).
        let sh_off = u64_at(0x28).ok_or_else(|| bad("truncated header"))? as usize;
        let sh_entsize = u16_at(0x3a).unwrap_or(64) as usize;
        let sh_num = u16_at(0x3c).unwrap_or(0) as usize;
        let section = |i: usize| sh_off + i * sh_entsize;
        let mut symtab = None;
        for i in 0..sh_num {
            match u32_at(section(i) + 4) {
                Some(2) => symtab = Some(i), // SHT_SYMTAB always wins
                Some(11) if symtab.is_none() => symtab = Some(i),
                _ => {}
            }
            if u32_at(section(i) + 4) == Some(2) {
                break;
            }
        }
        let st = symtab.ok_or_else(|| bad("no .symtab or .dynsym"))?;
        let sym_off = u64_at(section(st) + 24).ok_or_else(|| bad("truncated shdr"))? as usize;
        let sym_size = u64_at(section(st) + 32).ok_or_else(|| bad("truncated shdr"))? as usize;
        let strtab = u32_at(section(st) + 40).ok_or_else(|| bad("truncated shdr"))? as usize;
        if strtab >= sh_num {
            return Err(bad("symtab string table index out of range"));
        }
        let str_off = u64_at(section(strtab) + 24).ok_or_else(|| bad("truncated shdr"))? as usize;
        let str_size = u64_at(section(strtab) + 32).ok_or_else(|| bad("truncated shdr"))? as usize;
        let strs = elf
            .get(str_off..str_off + str_size)
            .ok_or_else(|| bad("truncated strtab"))?;

        let mut syms = Vec::new();
        for off in (sym_off..sym_off + sym_size).step_by(24) {
            let Some(info) = elf.get(off + 4) else { break };
            if info & 0xf != 2 {
                continue; // not STT_FUNC
            }
            let addr = u64_at(off + 8).unwrap_or(0) as usize;
            if addr == 0 {
                continue;
            }
            let name_off = u32_at(off).unwrap_or(0) as usize;
            let name = strs
                .get(name_off..)
                .and_then(|tail| tail.split(|&b| b == 0).next())
                .map(|b| String::from_utf8_lossy(b).into_owned())
                .unwrap_or_default();
            if name.is_empty() {
                continue;
            }
            syms.push(Sym {
                addr,
                size: u64_at(off + 16).unwrap_or(0) as usize,
                name: demangle(&name),
            });
        }
        syms.sort_by_key(|s| s.addr);
        syms.dedup_by(|a, b| a.addr == b.addr);
        Ok(Symbolizer { syms, bias })
    }

    /// Resolve an absolute runtime PC to a function name, or `None` for
    /// addresses outside the executable's symbols (JIT, vdso, libc).
    pub fn resolve(&self, pc: usize) -> Option<&str> {
        let vaddr = pc.wrapping_sub(self.bias);
        let idx = self.syms.partition_point(|s| s.addr <= vaddr);
        let sym = &self.syms[idx.checked_sub(1)?];
        let end = if sym.size > 0 {
            sym.addr + sym.size
        } else {
            // Zero-size symbol (assembly stubs): accept up to the next
            // symbol, bounded so a stray PC far past the image misses.
            self.syms.get(idx).map_or(sym.addr + 4096, |next| next.addr)
        };
        (vaddr < end).then_some(sym.name.as_str())
    }
}

/// Demangle a legacy (`_ZN..E`) Rust symbol; passthrough for anything else.
///
/// Handles the length-prefixed path segments, the `$LT$`/`$GT$`-style
/// punctuation escapes, `..` → `::`, and drops the trailing `17h<hash>`
/// disambiguator plus any `.llvm.`/`.cold` suffix. No crates.io
/// `rustc-demangle` — this covers what the workspace's own symbols need.
pub fn demangle(sym: &str) -> String {
    let base = sym.split(".llvm.").next().unwrap_or(sym);
    let base = base.strip_suffix(".cold").unwrap_or(base);
    let Some(rest) = base.strip_prefix("_ZN").and_then(|r| r.strip_suffix('E')) else {
        return base.to_string();
    };
    let bytes = rest.as_bytes();
    let mut segs: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let mut len = 0usize;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            len = len * 10 + (bytes[i] - b'0') as usize;
            i += 1;
        }
        if i == start || len == 0 || i + len > bytes.len() {
            return base.to_string();
        }
        let seg = &rest[i..i + len];
        // Segments that cannot start with their first real character
        // (e.g. `$LT$...`) are prefixed with `_` in the mangling.
        segs.push(
            seg.strip_prefix('_')
                .filter(|_| seg.starts_with("_$"))
                .unwrap_or(seg),
        );
        i += len;
    }
    if segs.last().is_some_and(|s| {
        s.len() == 17 && s.starts_with('h') && s[1..].bytes().all(|b| b.is_ascii_hexdigit())
    }) {
        segs.pop();
    }
    let joined = segs.join("::");
    const ESCAPES: [(&str, &str); 12] = [
        ("$LT$", "<"),
        ("$GT$", ">"),
        ("$LP$", "("),
        ("$RP$", ")"),
        ("$C$", ","),
        ("$BP$", "*"),
        ("$RF$", "&"),
        ("$u20$", " "),
        ("$u27$", "'"),
        ("$u5b$", "["),
        ("$u5d$", "]"),
        ("$u7b$", "{"),
    ];
    let mut out = String::with_capacity(joined.len());
    let mut rest = joined.as_str();
    'outer: while !rest.is_empty() {
        if let Some(tail) = rest.strip_prefix("..") {
            out.push_str("::");
            rest = tail;
            continue;
        }
        if let Some(tail) = rest.strip_prefix("$u7d$") {
            out.push('}');
            rest = tail;
            continue;
        }
        for (pat, repl) in ESCAPES {
            if let Some(tail) = rest.strip_prefix(pat) {
                out.push_str(repl);
                rest = tail;
                continue 'outer;
            }
        }
        let mut chars = rest.chars();
        out.push(chars.next().unwrap());
        rest = chars.as_str();
    }
    out
}

// ---------------------------------------------------------------------------
// Folded-stack rendering.
// ---------------------------------------------------------------------------

/// Render stacks as folded lines — `root;mid;leaf count` — the input
/// format of flamegraph.pl and Speedscope. Deterministic (sorted by
/// stack). Return addresses (every frame but the leaf) are resolved at
/// `pc - 1` so a call as the last instruction of a function attributes to
/// the caller, not its successor.
pub fn fold(stacks: &[Vec<usize>], symbols: &Symbolizer) -> String {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for stack in stacks {
        let mut names: Vec<String> = stack
            .iter()
            .enumerate()
            .map(|(depth, &pc)| {
                let lookup = if depth == 0 { pc } else { pc.wrapping_sub(1) };
                symbols
                    .resolve(lookup)
                    .map(|name| name.replace([';', ' '], "_"))
                    .unwrap_or_else(|| format!("{pc:#x}"))
            })
            .collect();
        names.reverse(); // leaf-first in the buffer, root-first folded
        *counts.entry(names.join(";")).or_insert(0) += 1;
    }
    let mut out = String::new();
    for (stack, n) in counts {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
    }
    out
}

/// Symbolize and fold every sample recorded since `pos` (a [`cursor`]
/// snapshot); `pos = 0` folds everything since process start.
pub fn render_folded_since(pos: usize) -> io::Result<String> {
    let stacks = collect_since(pos);
    let symbols = Symbolizer::from_self()?;
    Ok(fold(&stacks, &symbols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_collect_round_trip_with_publish_protocol() {
        let pos = cursor();
        record_sample(&[0xaaa1, 0xaaa2, 0xaaa3]);
        record_sample(&[0xbbb1]);
        let stacks = collect_since(pos);
        // Other tests in this binary may interleave their own samples;
        // filter down to ours by the magic leaf PCs.
        let ours: Vec<&Vec<usize>> = stacks
            .iter()
            .filter(|s| s.first() == Some(&0xaaa1) || s.first() == Some(&0xbbb1))
            .collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0], &vec![0xaaa1, 0xaaa2, 0xaaa3]);
        assert_eq!(ours[1], &vec![0xbbb1]);
    }

    #[test]
    fn oversized_samples_truncate_to_max_depth() {
        let pos = cursor();
        let deep: Vec<usize> = (1..=MAX_DEPTH + 10).collect();
        record_sample(&deep);
        let stacks = collect_since(pos);
        let ours = stacks.iter().find(|s| s.first() == Some(&1)).unwrap();
        assert_eq!(ours.len(), MAX_DEPTH);
        assert_eq!(*ours.last().unwrap(), MAX_DEPTH);
    }

    #[test]
    fn demangles_legacy_rust_symbols() {
        assert_eq!(
            demangle("_ZN8atpm_ris7sampler14generate_batch17h0123456789abcdefE"),
            "atpm_ris::sampler::generate_batch"
        );
        assert_eq!(
            demangle("_ZN63_$LT$alloc..vec..Vec$LT$T$GT$$u20$as$u20$core..clone..Clone$GT$5clone17hdeadbeefdeadbeefE"),
            "<alloc::vec::Vec<T> as core::clone::Clone>::clone"
        );
        // Non-Rust and already-plain names pass through.
        assert_eq!(demangle("memcpy"), "memcpy");
        assert_eq!(demangle("__atpm_sigrestorer"), "__atpm_sigrestorer");
        // Suffixes stripped even on passthrough.
        assert_eq!(
            demangle("_ZN4core3ops8function2Fn4call17haaaaaaaaaaaaaaaaE.llvm.123"),
            "core::ops::function::Fn::call"
        );
    }

    #[test]
    fn fold_is_root_first_deterministic_and_flamegraph_parsable() {
        // A tiny fake symbolizer: three functions at known vaddrs, no bias.
        let syms = Symbolizer {
            bias: 0,
            syms: vec![
                Sym {
                    addr: 0x1000,
                    size: 0x100,
                    name: "root".into(),
                },
                Sym {
                    addr: 0x2000,
                    size: 0x100,
                    name: "mid".into(),
                },
                Sym {
                    addr: 0x3000,
                    size: 0x100,
                    name: "leaf".into(),
                },
            ],
        };
        // Two identical stacks (leaf-first) and one shorter one.
        let stacks = vec![
            vec![0x3010, 0x2010, 0x1010],
            vec![0x3010, 0x2010, 0x1010],
            vec![0x2020, 0x1010],
        ];
        let folded = fold(&stacks, &syms);
        assert_eq!(folded, "root;mid 1\nroot;mid;leaf 2\n");
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().unwrap() > 0);
        }
        // Unresolved PCs render as hex; resolution of return addresses
        // happens at pc-1, so a PC exactly at a function start attributes
        // to the previous function when it is not the leaf.
        let folded = fold(&[vec![0x9999_0000, 0x1010]], &syms);
        assert_eq!(folded, "root;0x99990000 1\n");
    }

    #[test]
    fn symbolizer_resolves_own_binary_symbols() {
        // The test binary itself is an ELF with a symtab; resolve a real
        // function address from it. `fn` pointers give us a stable PC.
        let symbols = Symbolizer::from_self().expect("symbolize /proc/self/exe");
        assert!(!symbols.syms.is_empty());
        let pc = demangle as fn(&str) -> String as usize;
        let name = symbols.resolve(pc).expect("resolve our own function");
        assert!(name.contains("demangle"), "resolved {name:?}");
    }
}
