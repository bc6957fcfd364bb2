//! Diff-layer microbench: the string-keyed text pipeline (render round log
//! → `parse_log` → per-thread `compare_with` over `(level, body)` string
//! keys, the reference the equivalence tests check against) against the
//! interned structured fast path (`InternedLog::compare` over `u32`
//! tokens, no text round trip), across log sizes and divergence levels.
//!
//! Emits `BENCH_logdiff.json` (round-diff latency, tokens/sec, peak-RSS
//! proxy, speedups) and prints a summary table. `--smoke` runs a reduced
//! matrix for CI; `--out PATH` overrides the output path.

use std::time::Instant;

use anduril_bench::{median, write_report, TextTable};
use anduril_core::trace::Json;
use anduril_ir::log::render_log;
use anduril_ir::{BlockId, Level, LogEntry, StmtRef, TemplateId};
use anduril_logdiff::{compare_with, parse_log, GroupedLog, InternedLog};

/// Deterministic SplitMix64 generator (no wall-clock seeding).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn entry(time: u64, node: usize, thread: usize, level: Level, body: String) -> LogEntry {
    LogEntry {
        time,
        node: format!("n{node}").into(),
        thread: format!("t{thread}").into(),
        level,
        template: TemplateId(0),
        stmt: StmtRef::new(BlockId(0), 0),
        body: body.into(),
        exc: None,
        stack: Vec::new(),
    }
}

/// A synthetic "failure log": `entries` records over 4 nodes × 5 threads,
/// bodies drawn from a small template pool (log lines repeat heavily in
/// real systems, which is what makes interning pay).
fn gen_failure(rng: &mut Rng, entries: usize) -> Vec<LogEntry> {
    let levels = [
        Level::Info,
        Level::Info,
        Level::Info,
        Level::Warn,
        Level::Error,
    ];
    (0..entries)
        .map(|i| {
            let level = levels[rng.below(levels.len())];
            let body = format!("op {} on shard {}", rng.below(16), rng.below(4));
            entry(i as u64, rng.below(4), rng.below(5), level, body)
        })
        .collect()
}

/// Derives a round log from the failure log with roughly `pct`% of
/// entries diverging: dropped, rewritten to a body the failure log has
/// never seen (exercising the sentinel token), or duplicated.
fn gen_round(rng: &mut Rng, failure: &[LogEntry], pct: usize) -> Vec<LogEntry> {
    let mut out = Vec::with_capacity(failure.len());
    let mut fresh = 0u64;
    for e in failure {
        if rng.below(100) < pct {
            match rng.below(10) {
                0..=2 => {} // dropped
                3..=7 => {
                    let mut e = e.clone();
                    fresh += 1;
                    e.body = format!("divergent event {fresh}").into();
                    out.push(e);
                }
                _ => {
                    out.push(e.clone());
                    out.push(e.clone());
                }
            }
        } else {
            out.push(e.clone());
        }
    }
    out
}

/// `VmHWM` from `/proc/self/status` in kB — the peak-RSS proxy (0 when
/// unavailable, e.g. off Linux).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .unwrap_or(0)
}

struct ConfigResult {
    entries: usize,
    divergence_pct: usize,
    iters: usize,
    baseline_ns_median: u64,
    fast_ns_median: u64,
    baseline_tokens_per_sec: u64,
    fast_tokens_per_sec: u64,
    speedup: f64,
    vm_hwm_kb: u64,
}

fn run_config(entries: usize, pct: usize, iters: usize) -> ConfigResult {
    let mut rng = Rng(0xD1FF ^ (entries as u64) ^ ((pct as u64) << 32));
    let failure = gen_failure(&mut rng, entries);
    // The production failure log arrives as text in both pipelines: parse
    // and group it once, outside the per-round timers.
    let failure_text = render_log(&failure);
    let failure_parsed = parse_log(&failure_text);
    let failure_groups = GroupedLog::new(&failure_parsed);
    let interned = InternedLog::new(&failure_parsed);

    // A few pre-generated round variants, cycled through the iterations.
    let rounds: Vec<Vec<LogEntry>> = (0..8).map(|_| gen_round(&mut rng, &failure, pct)).collect();

    // Cross-check once, untimed: the fast path must agree exactly with the
    // string-keyed path.
    for round in &rounds {
        let parsed = parse_log(&render_log(round));
        let fast = interned.compare(round);
        let text = compare_with(&parsed, &failure_parsed, &failure_groups);
        assert_eq!(fast.missing, text.missing, "fast path diverged");
        assert_eq!(fast.matches, text.matches, "fast path diverged");
    }

    let mut baseline_ns: Vec<u64> = Vec::with_capacity(iters);
    let mut fast_ns: Vec<u64> = Vec::with_capacity(iters);
    let mut tokens = 0u64;
    for i in 0..iters {
        let round = &rounds[i % rounds.len()];
        tokens += (round.len() + failure_parsed.len()) as u64;

        // Text pipeline: the round log exists only as structured entries,
        // so its render + parse round trip is part of the per-round cost.
        let t = Instant::now();
        let parsed = parse_log(&render_log(round));
        let d = compare_with(&parsed, &failure_parsed, &failure_groups);
        baseline_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(d);

        let t = Instant::now();
        let d = interned.compare(round);
        fast_ns.push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(d);
    }

    let per_sec = |ns: &[u64]| {
        let total: u64 = ns.iter().sum();
        if total == 0 {
            0
        } else {
            (tokens as u128 * 1_000_000_000 / total as u128) as u64
        }
    };
    let baseline_tokens_per_sec = per_sec(&baseline_ns);
    let fast_tokens_per_sec = per_sec(&fast_ns);
    let baseline_ns_median = median(&mut baseline_ns);
    let fast_ns_median = median(&mut fast_ns);
    ConfigResult {
        entries,
        divergence_pct: pct,
        iters,
        baseline_ns_median,
        fast_ns_median,
        baseline_tokens_per_sec,
        fast_tokens_per_sec,
        speedup: baseline_ns_median as f64 / fast_ns_median.max(1) as f64,
        vm_hwm_kb: vm_hwm_kb(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_logdiff.json")
        .to_string();

    let sizes: &[(usize, usize)] = if smoke {
        &[(400, 6), (1_200, 4)]
    } else {
        &[(1_000, 30), (4_000, 12), (12_000, 5)]
    };
    let divergences = [2usize, 15, 50];

    let mut results = Vec::new();
    let mut table = TextTable::new(&[
        "entries",
        "divergence",
        "baseline (median)",
        "fast (median)",
        "speedup",
        "fast tokens/s",
    ]);
    for &(entries, iters) in sizes {
        for &pct in &divergences {
            let r = run_config(entries, pct, iters);
            table.row(vec![
                r.entries.to_string(),
                format!("{}%", r.divergence_pct),
                format!("{:.2}ms", r.baseline_ns_median as f64 / 1e6),
                format!("{:.2}ms", r.fast_ns_median as f64 / 1e6),
                format!("{:.1}x", r.speedup),
                r.fast_tokens_per_sec.to_string(),
            ]);
            results.push(r);
        }
    }

    let configs = results.iter().map(|r| {
        Json::obj([
            ("entries", r.entries.into()),
            ("divergence_pct", r.divergence_pct.into()),
            ("iters", r.iters.into()),
            ("baseline_ns_median", r.baseline_ns_median.into()),
            ("fast_ns_median", r.fast_ns_median.into()),
            ("baseline_tokens_per_sec", r.baseline_tokens_per_sec.into()),
            ("fast_tokens_per_sec", r.fast_tokens_per_sec.into()),
            ("speedup", Json::rounded(r.speedup, 3)),
            ("vm_hwm_kb", r.vm_hwm_kb.into()),
        ])
    });
    let report = Json::obj([
        ("bench", "logdiff".into()),
        ("mode", if smoke { "smoke" } else { "full" }.into()),
        ("vm_hwm_kb_end", vm_hwm_kb().into()),
        ("configs", configs.collect()),
    ]);
    write_report(&out_path, &report);

    println!("{}", table.render());
    let high = results
        .iter()
        .filter(|r| r.divergence_pct == 50)
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    println!("min high-divergence speedup: {high:.1}x (target >= 2x)");
    println!("wrote {out_path}");
}
