//! A deterministic, dependency-free fuzz harness for the input-facing
//! surfaces: the SPICE/SPF parsers and the serve daemon's HTTP + JSON
//! path.
//!
//! No external fuzzer (`cargo-fuzz`, AFL) is available in this
//! environment, so the harness is self-contained: a seeded [`XorShift`]
//! PRNG drives corpus mutations, every run is exactly reproducible from
//! `(seed, iteration)`, and the property checked is the robustness
//! contract from `docs/robustness.md`:
//!
//! * **never panic** — every target is wrapped in `catch_unwind`;
//! * **never allocate unboundedly** — inputs are capped at
//!   [`MAX_INPUT`] and the targets' own caps do the rest;
//! * **every input yields `Ok` or a named error** — a target returns
//!   normally or the harness records the offending input.
//!
//! Failing inputs are written to a directory so CI can upload them as
//! artifacts and a developer can replay them byte-for-byte.

#![deny(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated inputs are capped at this many bytes: large enough to cover
/// multi-line netlists and nested JSON, small enough that a pathological
/// duplication chain cannot balloon the corpus.
pub const MAX_INPUT: usize = 4096;

/// A tiny xorshift64* PRNG: deterministic, seedable, dependency-free.
/// Quality is more than enough for mutation scheduling.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// A PRNG from a seed; a zero seed is remapped (xorshift's one
    /// forbidden state).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Tokens the mutator splices in: grammar fragments that push inputs
/// deeper into each parser than random bytes would.
const DICTIONARY: &[&[u8]] = &[
    b".SUBCKT",
    b".ENDS",
    b".END",
    b"*|NET",
    b"*|P",
    b"*|I",
    b"*|S",
    b"C",
    b"R",
    b"X",
    b"1e308",
    b"-1e-308",
    b"NaN",
    b"0x",
    b"1f",
    b"1meg",
    b"{\"",
    b"\":",
    b"[[",
    b"]]",
    b"null",
    b"true",
    b"1e999",
    b"\\u0000",
    b"\\\"",
    b"POST ",
    b"GET ",
    b" HTTP/1.1\r\n",
    b"content-length: ",
    b"transfer-encoding: chunked",
    b"\r\n\r\n",
    b"Retry-After: ",
    // Grammar-enumerator productions: cell names, instance prefixes and
    // the subcircuit header shapes the datagen emitter writes, so
    // mutations reach the hierarchy walk with realistic card fragments.
    b"INVX4",
    b"NAND2",
    b"MUX2",
    b"DFF",
    b"VDD VSS",
    b"Xu0 n0 n1 VDD VSS BUF",
    b".SUBCKT G_CHAIN_BUF_N2 VDD VSS",
    b"Xg_",
    b" W=0.42u L=0.05u",
];

/// The seed corpus: one small well-formed exemplar per input language,
/// so mutations start from inputs that reach deep parser states.
pub fn seed_corpus() -> Vec<Vec<u8>> {
    vec![
        // SPICE netlist with hierarchy, params, continuation.
        b"* seed netlist\n.SUBCKT inv A Y VDD VSS\nM1 Y A VDD VDD p W=1u L=0.1u\nM2 Y A VSS VSS n\n+ W=2u\nC1 A Y 1.5f\n.ENDS\nXinv1 n1 n2 vdd gnd inv\nR1 n1 n2 10k\n.END\n"
            .to_vec(),
        // SPF parasitic fragment.
        b"*|NET n1 1.2e-15\n*|P (p1 I 0.1 0 0)\n*|I (x1:A x1 A I 0.0 1 2)\n*|S (n1:1 3 4)\nC1 n1:1 0 0.5f\nR2 n1:1 n1:2 12.5\n"
            .to_vec(),
        // Predict-request JSON.
        br#"{"pairs": [["n1", "n2"], ["a", "b"]], "hops": 2, "max_nodes": 64}"#.to_vec(),
        // Sweep-request JSON.
        br#"{"nets": ["n1", "n2", "a"], "top_k": 8, "threshold_ff": 0.5}"#.to_vec(),
        // A full HTTP/1.1 request as bytes.
        b"POST /v1/predict HTTP/1.1\r\ncontent-length: 16\r\ncontent-type: application/json\r\n\r\n{\"pairs\": [[]]}\n"
            .to_vec(),
        // Deeply-nested JSON (starts near the depth limit).
        {
            let mut v = vec![b'['; 100];
            v.extend(vec![b']'; 100]);
            v
        },
        // Hierarchical SPICE from the grammar enumerator (deterministic:
        // the first term in the smallest size window), truncated to the
        // input cap — mutations start from the exact card shapes that
        // `cirgps datagen` emits, reaching the library + hierarchy walk.
        {
            let terms = ams_datagen::enumerate::enumerate_terms(None, 0, 200);
            let mut v = ams_datagen::enumerate::build_term(&terms[0], 1)
                .expect("grammar seed must build")
                .spice
                .into_bytes();
            v.truncate(MAX_INPUT);
            v
        },
    ]
}

/// One mutation round: pick a strategy, apply it, cap the result at
/// [`MAX_INPUT`]. Strategies mirror the classic fuzzer set — bit flips,
/// byte sets, truncation, slice duplication, dictionary splices.
pub fn mutate(rng: &mut XorShift, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        match rng.below(6) {
            // Flip one bit.
            0 if !out.is_empty() => {
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
            // Overwrite one byte with anything.
            1 if !out.is_empty() => {
                let i = rng.below(out.len());
                out[i] = rng.next_u64() as u8;
            }
            // Truncate.
            2 if !out.is_empty() => {
                out.truncate(rng.below(out.len()));
            }
            // Duplicate a slice (growth capped below).
            3 if !out.is_empty() => {
                let a = rng.below(out.len());
                let b = (a + 1 + rng.below(64)).min(out.len());
                let slice = out[a..b].to_vec();
                let at = rng.below(out.len() + 1);
                out.splice(at..at, slice);
            }
            // Splice in a dictionary token.
            4 => {
                let tok = DICTIONARY[rng.below(DICTIONARY.len())];
                let at = rng.below(out.len() + 1);
                out.splice(at..at, tok.iter().copied());
            }
            // Insert a random byte.
            _ => {
                let at = rng.below(out.len() + 1);
                out.insert(at, rng.next_u64() as u8);
            }
        }
    }
    out.truncate(MAX_INPUT);
    out
}

/// One fuzz target: consumes an arbitrary input.
pub type FuzzTarget = fn(&[u8]);

/// The fuzz targets. Each must uphold the contract: return normally
/// (the target's own `Result` is fine either way) and never panic.
pub const TARGETS: &[(&str, FuzzTarget)] = &[
    ("spice", fuzz_spice),
    ("spf", fuzz_spf),
    ("units", fuzz_units),
    ("json", fuzz_json),
    ("http", fuzz_http),
];

/// SPICE netlist parse + flatten (flattening exercises the hierarchy
/// walk, including the recursion and depth guards).
pub fn fuzz_spice(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    if let Ok(file) = ams_netlist::SpiceFile::parse(&text) {
        let _ = file.flatten_top("inv");
    }
}

/// SPF parasitic-annotation parse.
pub fn fuzz_spf(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let _ = ams_netlist::SpfFile::parse(&text);
}

/// SPICE engineering-unit value parse (`1.5f`, `10k`, `2meg`, …).
pub fn fuzz_units(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    for token in text.split_whitespace().take(64) {
        let _ = ams_netlist::parse_spice_value(token);
    }
}

/// The serve daemon's JSON parser (depth- and size-capped).
pub fn fuzz_json(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let _ = cirgps_serve::json::Json::parse(&text);
}

/// The serve daemon's HTTP/1.1 request reader, with the production
/// ingress limits.
pub fn fuzz_http(data: &[u8]) {
    let limits = cirgps_serve::http::IngressLimits::default();
    let mut reader = std::io::BufReader::new(data);
    // Keep reading pipelined requests until the input runs dry or errors.
    while let Ok(Some(_)) = cirgps_serve::http::read_request_limited(&mut reader, &limits) {}
}

/// What one [`run`] produced.
#[derive(Debug)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters: u64,
    /// Inputs whose target panicked, paired with the iteration index.
    pub failures: Vec<(u64, Vec<u8>)>,
}

/// Runs `iters` mutations of the seed corpus through `target`,
/// catching panics. Deterministic for a given `(seed, iters)`.
///
/// The process-global panic hook is silenced for the duration so a
/// caught failure does not spew a backtrace per iteration; callers
/// running targets concurrently should serialize calls to `run`.
pub fn run(target: fn(&[u8]), seed: u64, iters: u64) -> FuzzReport {
    let corpus = seed_corpus();
    let mut rng = XorShift::new(seed);
    let mut failures = Vec::new();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for i in 0..iters {
        // Each iteration re-derives its input from the corpus so a
        // failure replays from (seed, i) alone, independent of history.
        let base = &corpus[rng.below(corpus.len())];
        let input = mutate(&mut rng, base);
        let ok = catch_unwind(AssertUnwindSafe(|| target(&input))).is_ok();
        if !ok {
            failures.push((i, input));
        }
    }
    std::panic::set_hook(prev_hook);
    FuzzReport { iters, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic() {
        let mut a = XorShift::new(9);
        let mut b = XorShift::new(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mutate_caps_growth() {
        let mut rng = XorShift::new(3);
        let mut input = seed_corpus()[0].clone();
        for _ in 0..2000 {
            input = mutate(&mut rng, &input);
            assert!(input.len() <= MAX_INPUT);
        }
    }

    /// Smoke budget: a few hundred iterations per target must complete
    /// with zero panics. CI runs a larger budget via the `fuzz` binary.
    #[test]
    fn smoke_all_targets_survive_a_small_budget() {
        for (name, target) in TARGETS {
            let report = run(*target, 0xc1c5, 300);
            assert!(
                report.failures.is_empty(),
                "target {name}: {} panicking input(s), first at iteration {}",
                report.failures.len(),
                report.failures[0].0
            );
        }
    }
}
