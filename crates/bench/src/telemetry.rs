//! Sweep-level observability: a per-cell JSONL run journal, per-cell
//! result shards (bounded memory, resumable sweeps), and a live progress
//! reporter.
//!
//! The simulator's probes (`mcm_sim::Probe`) watch *inside* one run;
//! this module watches *across* a sweep. As each [`SweepRunner`](crate::runner::SweepRunner)
//! cell completes, the worker thread appends one [`CellRecord`] to
//! `<out>/journal/<exp>.jsonl` and writes the cell's full statistics to
//! `<out>/shards/<exp>/<cell>.json`. The experiment's grid is assembled
//! from the *decoded* shards — never from an end-of-sweep accumulation —
//! so memory stays bounded at any worker count, a crash loses only the
//! in-flight cells, and `figures --resume` re-runs exactly the missing
//! or stale ones (validated by schema version + configuration
//! fingerprint). Nothing here perturbs results: every counter a figure
//! reads round-trips exactly through the shard encoding (all integer
//! fields), and `scripts/ci.sh` `cmp`s resumed output against the
//! goldens byte for byte.
//!
//! All JSON is hand-rolled and hand-parsed ([`Json`]) — the workspace
//! deliberately has no serde dependency.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcm_sim::{AllocAccessStats, Counter, DegradationStats, RunOutcome, RunStats};
use mcm_types::AllocId;

use crate::runner::SweepObserver;

/// Version stamped into every journal record and shard file. Bump it when
/// the record/shard layout changes; `--resume` treats shards from another
/// schema as stale and re-runs their cells. v2: the `ring_*` statistics
/// were renamed `interconnect_*` when the interconnect grew non-ring
/// topologies.
pub const SCHEMA_VERSION: u32 = 2;

/// FNV-1a 64-bit hash — the stable fingerprint behind shard validation
/// (deliberately not `DefaultHasher`, whose output may change across
/// toolchains; resumed sweeps must recognize shards written by an earlier
/// process). The implementation lives in `mcm_types` so the simulator's
/// hot-path hashing (slab page table, walk MSHRs) and the telemetry
/// fingerprints share one hand-rolled hasher family.
pub use mcm_types::fnv1a;

/// Renders a microsecond wall-clock count for humans (`870µs`, `3.4ms`,
/// `1.25s`). Shared by the journal `status` view and the `whatif`
/// per-variant timings.
pub fn fmt_duration_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Numbers keep their raw text so 64-bit counters round-trip exactly
/// (an `f64` intermediate would corrupt counts above 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (the whole string must be consumed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON document (quotes excluded).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.obj(),
            Some(b'[') => self.arr(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.num(),
            Some(c) => Err(format!(
                "unexpected byte {:?} at offset {}",
                *c as char, self.i
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let raw = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| format!("non-utf8 number at offset {start}"))?;
        // Validate it is a number at all; the raw text is what we keep.
        raw.parse::<f64>()
            .map_err(|_| format!("bad number {raw:?} at offset {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.i))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at offset {}", self.i))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint \\u{hex}"))?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| format!("non-utf8 string at offset {}", self.i))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| format!("unterminated string at offset {}", self.i))?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.i += 1; // [
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.i += 1; // {
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(format!("expected object key at offset {}", self.i));
            }
            let key = self.string()?;
            self.ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(format!("expected ':' at offset {}", self.i));
            }
            self.i += 1;
            self.ws();
            let v = self.value()?;
            out.push((key, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Optional float field: absent keys (older journal lines) and
/// non-numeric values both read as `None`.
fn f64_opt_field(obj: &Json, key: &str) -> Option<f64> {
    match obj.get(key) {
        Some(Json::Num(n)) => n.parse().ok(),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// RunStats <-> JSON (the shard payload)
// ---------------------------------------------------------------------------

/// Serializes full run statistics as one JSON object line. The
/// per-chiplet-event counters are written in counter-table order
/// ([`Counter::ALL`]), each under its field name.
///
/// Every field a figure reads is an exact integer, so
/// `stats_from_json(stats_to_json(s))` reproduces them bit for bit. The
/// only lossy part is `degradation.errors`: the typed [`SimError`]
/// samples are written as display strings (`"error_samples"`) for humans
/// and decode back to an empty list — no figure or CSV reads them.
///
/// [`SimError`]: mcm_sim::SimError
pub fn stats_to_json(s: &RunStats) -> String {
    let mut o = String::new();
    let _ = write!(o, "{{\"cycles\":{}", s.cycles);
    for c in Counter::ALL {
        let _ = write!(o, ",\"{}\":{}", c.name(), s.counter(c));
    }
    let per_chiplet: Vec<String> = s.dram_per_chiplet.iter().map(u64::to_string).collect();
    let _ = write!(o, ",\"dram_per_chiplet\":[{}]", per_chiplet.join(","));
    let _ = write!(
        o,
        ",\"interconnect_transfers\":{}",
        s.interconnect_transfers
    );
    let _ = write!(o, ",\"dram_queue_cycles\":{}", s.dram_queue_cycles);
    let _ = write!(
        o,
        ",\"interconnect_queue_cycles\":{}",
        s.interconnect_queue_cycles
    );
    match s.blocks_consumed {
        Some(n) => {
            let _ = write!(o, ",\"blocks_consumed\":{n}");
        }
        None => o.push_str(",\"blocks_consumed\":null"),
    }
    // Per-structure counters, sorted by allocation id for determinism
    // (the in-memory map is a HashMap).
    let mut allocs: Vec<(&AllocId, &AllocAccessStats)> = s.per_alloc.iter().collect();
    allocs.sort_by_key(|(id, _)| **id);
    o.push_str(",\"per_alloc\":{");
    for (i, (id, a)) in allocs.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            o,
            "{comma}\"{}\":{{\"accesses\":{},\"remote\":{}}}",
            id.index(),
            a.accesses,
            a.remote
        );
    }
    o.push('}');
    let d = &s.degradation;
    let _ = write!(
        o,
        ",\"degradation\":{{\"fallback_remote_frames\":{},\"rejected_directives\":{},\
         \"tlb_class_missing\":{},\"walk_queue_stalls\":{},\"walk_queue_stall_cycles\":{},\
         \"stale_tlb_hits\":{},\"audit_violations\":{},\"error_samples\":[",
        d.fallback_remote_frames,
        d.rejected_directives,
        d.tlb_class_missing,
        d.walk_queue_stalls,
        d.walk_queue_stall_cycles,
        d.stale_tlb_hits,
        d.audit_violations,
    );
    for (i, e) in d.errors.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(o, "{comma}\"{}\"", json_escape(&e.to_string()));
    }
    o.push_str("]}}");
    o
}

/// Decodes run statistics from a parsed shard payload.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn stats_from_json(j: &Json) -> Result<RunStats, String> {
    let mut per_alloc = std::collections::HashMap::new();
    for (k, v) in j
        .get("per_alloc")
        .and_then(Json::as_obj)
        .ok_or("missing per_alloc")?
    {
        let idx: u16 = k.parse().map_err(|_| format!("bad alloc id {k:?}"))?;
        let a = AllocAccessStats {
            accesses: u64_field(v, "accesses")?,
            remote: u64_field(v, "remote")?,
        };
        per_alloc.insert(AllocId::new(idx), a);
    }
    let d = j.get("degradation").ok_or("missing degradation")?;
    let mut s = RunStats {
        cycles: u64_field(j, "cycles")?,
        dram_per_chiplet: j
            .get("dram_per_chiplet")
            .and_then(Json::as_arr)
            .ok_or("missing dram_per_chiplet")?
            .iter()
            .map(|v| v.as_u64().ok_or("non-integer dram_per_chiplet entry"))
            .collect::<Result<_, _>>()?,
        interconnect_transfers: u64_field(j, "interconnect_transfers")?,
        dram_queue_cycles: u64_field(j, "dram_queue_cycles")?,
        interconnect_queue_cycles: u64_field(j, "interconnect_queue_cycles")?,
        blocks_consumed: match j.get("blocks_consumed") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_usize().ok_or("non-integer blocks_consumed")?),
        },
        per_alloc,
        degradation: DegradationStats {
            fallback_remote_frames: u64_field(d, "fallback_remote_frames")?,
            rejected_directives: u64_field(d, "rejected_directives")?,
            tlb_class_missing: u64_field(d, "tlb_class_missing")?,
            walk_queue_stalls: u64_field(d, "walk_queue_stalls")?,
            walk_queue_stall_cycles: u64_field(d, "walk_queue_stall_cycles")?,
            stale_tlb_hits: u64_field(d, "stale_tlb_hits")?,
            audit_violations: u64_field(d, "audit_violations")?,
            // Typed error samples are not round-tripped; the shard keeps
            // their rendered strings ("error_samples") for humans only.
            errors: Vec::new(),
        },
        ..RunStats::default()
    };
    for c in Counter::ALL {
        *s.counter_mut(c) = u64_field(j, c.name())?;
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// Cells, journal records, shards
// ---------------------------------------------------------------------------

/// Identity of one sweep cell, fixed before it runs: which workload row,
/// which configuration column, and under what labels/seed it is recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Workload row index in the sweep.
    pub row: usize,
    /// Configuration/variant column index in the sweep.
    pub col: usize,
    /// Workload display name ("STE", "GPT3", ...).
    pub workload: String,
    /// Configuration display name ("S-64KB", "CLAP+NUBA", ...).
    pub config: String,
    /// Seed of the run (0 for the deterministic standard sweeps).
    pub seed: u64,
}

impl CellSpec {
    /// Row-major `(workload × config)` cell list — the shape every grid
    /// sweep uses (cell index `r * cols.len() + c`).
    pub fn grid(rows: &[String], cols: &[String]) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(rows.len() * cols.len());
        for (r, w) in rows.iter().enumerate() {
            for (c, k) in cols.iter().enumerate() {
                out.push(CellSpec {
                    row: r,
                    col: c,
                    workload: w.clone(),
                    config: k.clone(),
                    seed: 0,
                });
            }
        }
        out
    }
}

/// How a journaled cell finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellOutcome {
    /// Ran to completion with no degradation events.
    Completed,
    /// Ran to completion but absorbed degradation events
    /// ([`DegradationStats::is_degraded`]).
    Degraded,
    /// Not re-run: restored from a valid shard by `--resume`.
    Resumed,
    /// Quarantined: every attempt ended in a typed abort
    /// ([`RunOutcome::Aborted`](mcm_sim::RunOutcome::Aborted) or a
    /// [`SimError`](mcm_sim::SimError)). No shard is written.
    Aborted,
    /// Quarantined: every attempt panicked (caught by the sweep
    /// supervisor). No shard is written.
    Panicked,
}

impl CellOutcome {
    /// Journal spelling ("completed" / "degraded" / "resumed" /
    /// "aborted" / "panicked").
    pub fn as_str(self) -> &'static str {
        match self {
            CellOutcome::Completed => "completed",
            CellOutcome::Degraded => "degraded",
            CellOutcome::Resumed => "resumed",
            CellOutcome::Aborted => "aborted",
            CellOutcome::Panicked => "panicked",
        }
    }

    /// Whether this outcome marks a quarantined cell (no usable result).
    pub fn is_quarantined(self) -> bool {
        matches!(self, CellOutcome::Aborted | CellOutcome::Panicked)
    }

    /// Parses the journal spelling.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<CellOutcome, String> {
        match s {
            "completed" => Ok(CellOutcome::Completed),
            "degraded" => Ok(CellOutcome::Degraded),
            "resumed" => Ok(CellOutcome::Resumed),
            "aborted" => Ok(CellOutcome::Aborted),
            "panicked" => Ok(CellOutcome::Panicked),
            other => Err(format!("unknown outcome {other:?}")),
        }
    }
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal line: a cell's identity, wall-clock, outcome, and the key
/// run/degradation counters — what `figures status` and the enriched
/// `bench_timings.json` are built from.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Schema version the record was written under.
    pub schema: u32,
    /// Experiment id ("fig18", "ablation", ...).
    pub exp: String,
    /// Cell index within the sweep (submission order).
    pub cell: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// Configuration display name.
    pub config: String,
    /// Workload display name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// Wall-clock microseconds the cell took (shard validation time for
    /// resumed cells).
    pub wall_us: u64,
    /// How the cell finished.
    pub outcome: CellOutcome,
    /// Simulated cycles.
    pub cycles: u64,
    /// Memory instructions executed.
    pub mem_insts: u64,
    /// Memory instructions served by a remote chiplet.
    pub remote_insts: u64,
    /// L2 TLB misses (walks issued).
    pub l2tlb_misses: u64,
    /// Page walks completed.
    pub walks: u64,
    /// Demand faults taken.
    pub faults: u64,
    /// Total degradation events the run absorbed
    /// ([`DegradationStats::events`]).
    pub degraded_events: u64,
    /// Frames placed on a fallback chiplet under capacity pressure.
    pub fallback_remote_frames: u64,
    /// Policy directives the engine rejected.
    pub rejected_directives: u64,
    /// Walk-queue full stalls.
    pub walk_queue_stalls: u64,
    /// Stale TLB hits invalidated and re-walked.
    pub stale_tlb_hits: u64,
    /// Epoch-audit violations.
    pub audit_violations: u64,
    /// Translations whose leaf size had no TLB class.
    pub tlb_class_missing: u64,
    /// Per-chiplet DRAM imbalance, max/mean over
    /// [`RunStats::dram_per_chiplet`] (`None` when the run touched no
    /// DRAM).
    pub imbalance: Option<f64>,
    /// Fraction of the run's simulated time spent before the remote-ratio
    /// warmup knee; stamped only by `figures timeline` cells (`None`, and
    /// omitted from the journal line, everywhere else).
    pub warmup_frac: Option<f64>,
    /// Why a quarantined cell failed (abort reason or panic message);
    /// empty for healthy cells and omitted from their journal lines.
    pub reason: String,
    /// Engine that produced the cell ("cycle" or "analytic");
    /// the default "cycle" is omitted from the journal line so
    /// pre-engine journals and new ones stay byte-identical.
    pub engine: String,
}

impl CellRecord {
    /// Builds a record from a finished cell's statistics.
    pub fn from_stats(
        exp: &str,
        spec: &CellSpec,
        cell: usize,
        total: usize,
        wall_us: u64,
        outcome: CellOutcome,
        stats: &RunStats,
    ) -> CellRecord {
        let d = &stats.degradation;
        CellRecord {
            schema: SCHEMA_VERSION,
            exp: exp.to_string(),
            cell,
            total,
            config: spec.config.clone(),
            workload: spec.workload.clone(),
            seed: spec.seed,
            wall_us,
            outcome,
            cycles: stats.cycles,
            mem_insts: stats.mem_insts,
            remote_insts: stats.remote_insts,
            l2tlb_misses: stats.l2tlb_misses,
            walks: stats.walks,
            faults: stats.faults,
            degraded_events: d.events(),
            fallback_remote_frames: d.fallback_remote_frames,
            rejected_directives: d.rejected_directives,
            walk_queue_stalls: d.walk_queue_stalls,
            stale_tlb_hits: d.stale_tlb_hits,
            audit_violations: d.audit_violations,
            tlb_class_missing: d.tlb_class_missing,
            imbalance: mcm_sim::imbalance(&stats.dram_per_chiplet),
            warmup_frac: None,
            reason: String::new(),
            engine: "cycle".to_string(),
        }
    }

    /// Builds a record from a run's outcome: `completed`, `degraded`, or
    /// `aborted` with the abort reason (partial statistics).
    pub fn from_outcome(
        exp: &str,
        spec: &CellSpec,
        cell: usize,
        total: usize,
        wall_us: u64,
        outcome: &RunOutcome,
    ) -> CellRecord {
        let (kind, reason) = match outcome {
            RunOutcome::Completed(_) => (CellOutcome::Completed, String::new()),
            RunOutcome::Degraded { .. } => (CellOutcome::Degraded, String::new()),
            RunOutcome::Aborted { reason, .. } => (CellOutcome::Aborted, reason.to_string()),
        };
        CellRecord::from_stats(exp, spec, cell, total, wall_us, kind, outcome.stats())
            .with_reason(&reason)
    }

    /// Attaches a quarantine reason (abort reason / panic message).
    #[must_use]
    pub fn with_reason(mut self, reason: &str) -> CellRecord {
        self.reason = reason.to_string();
        self
    }

    /// Tags the record with the engine that produced the cell.
    #[must_use]
    pub fn with_engine(mut self, engine: &str) -> CellRecord {
        self.engine = engine.to_string();
        self
    }

    /// Attaches the warmup-knee summary of a timeline cell.
    #[must_use]
    pub fn with_warmup_frac(mut self, frac: Option<f64>) -> CellRecord {
        self.warmup_frac = frac;
        self
    }

    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = String::new();
        let _ = write!(o, "{{\"schema\":{}", self.schema);
        let _ = write!(o, ",\"exp\":\"{}\"", json_escape(&self.exp));
        let _ = write!(o, ",\"cell\":{}", self.cell);
        let _ = write!(o, ",\"total\":{}", self.total);
        let _ = write!(o, ",\"config\":\"{}\"", json_escape(&self.config));
        let _ = write!(o, ",\"workload\":\"{}\"", json_escape(&self.workload));
        let _ = write!(o, ",\"seed\":{}", self.seed);
        let _ = write!(o, ",\"wall_us\":{}", self.wall_us);
        let _ = write!(o, ",\"outcome\":\"{}\"", self.outcome);
        // The default cycle engine is omitted so pre-engine journal
        // lines and new ones stay byte-identical.
        if !self.engine.is_empty() && self.engine != "cycle" {
            let _ = write!(o, ",\"engine\":\"{}\"", json_escape(&self.engine));
        }
        let _ = write!(o, ",\"cycles\":{}", self.cycles);
        let _ = write!(o, ",\"mem_insts\":{}", self.mem_insts);
        let _ = write!(o, ",\"remote_insts\":{}", self.remote_insts);
        let _ = write!(o, ",\"l2tlb_misses\":{}", self.l2tlb_misses);
        let _ = write!(o, ",\"walks\":{}", self.walks);
        let _ = write!(o, ",\"faults\":{}", self.faults);
        let _ = write!(o, ",\"degraded_events\":{}", self.degraded_events);
        let _ = write!(
            o,
            ",\"fallback_remote_frames\":{}",
            self.fallback_remote_frames
        );
        let _ = write!(o, ",\"rejected_directives\":{}", self.rejected_directives);
        let _ = write!(o, ",\"walk_queue_stalls\":{}", self.walk_queue_stalls);
        let _ = write!(o, ",\"stale_tlb_hits\":{}", self.stale_tlb_hits);
        let _ = write!(o, ",\"audit_violations\":{}", self.audit_violations);
        let _ = write!(o, ",\"tlb_class_missing\":{}", self.tlb_class_missing);
        // Both summary ratios are omitted when absent so journal lines
        // written before this schema addition and new ones interleave.
        // Six decimals round-trip the values status actually prints.
        if let Some(v) = self.imbalance {
            let _ = write!(o, ",\"imbalance\":{v:.6}");
        }
        if let Some(v) = self.warmup_frac {
            let _ = write!(o, ",\"warmup_frac\":{v:.6}");
        }
        // Healthy records omit the reason so pre-supervision journal
        // lines and new ones stay byte-identical.
        if !self.reason.is_empty() {
            let _ = write!(o, ",\"reason\":\"{}\"", json_escape(&self.reason));
        }
        o.push('}');
        o
    }

    /// Parses one JSONL journal line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse_line(line: &str) -> Result<CellRecord, String> {
        let j = Json::parse(line)?;
        parse_record_json(&j)
    }
}

fn parse_record_json(j: &Json) -> Result<CellRecord, String> {
    let schema = u64_field(j, "schema")? as u32;
    Ok(CellRecord {
        schema,
        exp: str_field(j, "exp")?,
        cell: u64_field(j, "cell")? as usize,
        total: u64_field(j, "total")? as usize,
        config: str_field(j, "config")?,
        workload: str_field(j, "workload")?,
        seed: u64_field(j, "seed")?,
        wall_us: u64_field(j, "wall_us")?,
        outcome: CellOutcome::parse(&str_field(j, "outcome")?)?,
        cycles: u64_field(j, "cycles")?,
        mem_insts: u64_field(j, "mem_insts")?,
        remote_insts: u64_field(j, "remote_insts")?,
        l2tlb_misses: u64_field(j, "l2tlb_misses")?,
        walks: u64_field(j, "walks")?,
        faults: u64_field(j, "faults")?,
        degraded_events: u64_field(j, "degraded_events")?,
        fallback_remote_frames: u64_field(j, "fallback_remote_frames")?,
        rejected_directives: u64_field(j, "rejected_directives")?,
        walk_queue_stalls: u64_field(j, "walk_queue_stalls")?,
        stale_tlb_hits: u64_field(j, "stale_tlb_hits")?,
        audit_violations: u64_field(j, "audit_violations")?,
        tlb_class_missing: u64_field(j, "tlb_class_missing")?,
        imbalance: f64_opt_field(j, "imbalance"),
        warmup_frac: f64_opt_field(j, "warmup_frac"),
        reason: j
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        engine: j
            .get("engine")
            .and_then(Json::as_str)
            .unwrap_or("cycle")
            .to_string(),
    })
}

/// Serializes one shard file: the cell's journal record plus its full
/// statistics, stamped with the schema version and the cell fingerprint
/// `--resume` validates against.
pub fn shard_to_json(fingerprint: u64, record: &CellRecord, stats: &RunStats) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{{");
    let _ = writeln!(o, "  \"schema\": {SCHEMA_VERSION},");
    let _ = writeln!(o, "  \"fingerprint\": \"{fingerprint:016x}\",");
    let _ = writeln!(o, "  \"record\": {},", record.to_json_line());
    let _ = writeln!(o, "  \"stats\": {}", stats_to_json(stats));
    let _ = write!(o, "}}");
    o
}

/// Decodes a shard document, validating schema version and fingerprint.
///
/// # Errors
///
/// Returns why the shard cannot be used (parse failure, schema mismatch,
/// stale fingerprint) — `--resume` re-runs such cells.
pub fn shard_from_json(s: &str, want_fingerprint: u64) -> Result<(CellRecord, RunStats), String> {
    let j = Json::parse(s)?;
    let schema = u64_field(&j, "schema")?;
    if schema != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "schema {schema} != current {SCHEMA_VERSION} (stale shard)"
        ));
    }
    let fp = str_field(&j, "fingerprint")?;
    let fp = u64::from_str_radix(&fp, 16).map_err(|_| format!("bad fingerprint {fp:?}"))?;
    if fp != want_fingerprint {
        return Err(format!(
            "fingerprint {fp:016x} != expected {want_fingerprint:016x} (configuration changed)"
        ));
    }
    let rec = j.get("record").ok_or("missing record")?;
    // Re-serialize the record subtree through its line parser.
    let record = parse_record_json(rec)?;
    let stats = stats_from_json(j.get("stats").ok_or("missing stats")?)?;
    Ok((record, stats))
}

// ---------------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------------

/// Lock-free sweep progress counters, fed from the worker threads and
/// drained by the monitor thread.
///
/// Implements [`SweepObserver`], so the
/// [`SweepRunner`](crate::runner::SweepRunner) bumps `active`/`done`
/// around every cell regardless of worker count (including serial runs).
#[derive(Debug)]
pub struct Progress {
    start: Instant,
    total: AtomicUsize,
    done: AtomicUsize,
    active: AtomicUsize,
    degraded: AtomicUsize,
    resumed: AtomicUsize,
    current: Mutex<String>,
    stop: AtomicBool,
}

impl Progress {
    fn new() -> Progress {
        Progress {
            start: Instant::now(),
            total: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            resumed: AtomicUsize::new(0),
            current: Mutex::new(String::new()),
            stop: AtomicBool::new(false),
        }
    }

    fn begin_sweep(&self, exp: &str, cells: usize) {
        self.total.fetch_add(cells, Ordering::Relaxed);
        let mut cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        *cur = exp.to_string();
    }

    /// Cells completed so far (across all sweeps of the invocation).
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// One status line: `done/total cells, rate, ETA, degraded count,
    /// resumed count, active workers`.
    pub fn render_line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let total = self.total.load(Ordering::Relaxed);
        let degraded = self.degraded.load(Ordering::Relaxed);
        let resumed = self.resumed.load(Ordering::Relaxed);
        let active = self.active.load(Ordering::Relaxed);
        let cur = self
            .current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let eta = if done > 0 && total > done {
            let secs = (total - done) as f64 / rate.max(1e-9);
            format!("{}s", secs.round() as u64)
        } else {
            "-".into()
        };
        format!(
            "[sweep {cur}] {done}/{total} cells, {rate:.2} cells/s, ETA {eta}, \
             {degraded} degraded, {resumed} resumed, {active} active workers"
        )
    }
}

impl SweepObserver for Progress {
    fn cell_started(&self, _index: usize) {
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    fn cell_finished(&self, _index: usize) {
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Telemetry: the per-invocation sink
// ---------------------------------------------------------------------------

/// Per-experiment cell tallies, collected as sweeps finish (feeds the
/// enriched `bench_timings.json`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpCounters {
    /// Experiment id.
    pub exp: String,
    /// Cells the sweep ran or restored.
    pub cells: usize,
    /// Cells whose statistics carry degradation events.
    pub degraded: usize,
    /// Cells restored from shards instead of re-run.
    pub resumed: usize,
    /// Per-cell wall-clock microseconds in cell-index order (what each
    /// run, restore, or quarantined attempt cost on its worker thread).
    pub cell_wall_us: Vec<u64>,
}

/// The sweep-telemetry sink of one `figures` invocation: owns the output
/// root (`<out>/journal`, `<out>/shards`), the resume flag, the optional
/// progress monitor thread, and the per-experiment counters.
///
/// Telemetry I/O failures never abort a sweep — a warning is printed and
/// the computed statistics are used directly.
pub struct Telemetry {
    root: PathBuf,
    resume: bool,
    progress: Option<Arc<Progress>>,
    monitor: Mutex<Option<JoinHandle<()>>>,
    counters: Mutex<Vec<ExpCounters>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("root", &self.root)
            .field("resume", &self.resume)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Telemetry {
    /// A sink writing journals and shards under `root` (typically the
    /// `results/` output directory). No progress monitor, no resume.
    pub fn new(root: &Path) -> Telemetry {
        Telemetry {
            root: root.to_path_buf(),
            resume: false,
            progress: None,
            monitor: Mutex::new(None),
            counters: Mutex::new(Vec::new()),
        }
    }

    /// Enables resume: cells whose shard exists and validates (schema
    /// version + configuration fingerprint) are restored instead of
    /// re-run.
    pub fn with_resume(mut self, resume: bool) -> Telemetry {
        self.resume = resume;
        self
    }

    /// Spawns the live progress reporter: a monitor thread printing one
    /// status line to stderr every `interval`.
    pub fn with_progress(mut self, interval: Duration) -> Telemetry {
        let progress = Arc::new(Progress::new());
        let p = Arc::clone(&progress);
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(100).min(interval);
            let mut since_print = Duration::ZERO;
            loop {
                if p.stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(tick);
                since_print += tick;
                if since_print >= interval {
                    since_print = Duration::ZERO;
                    if p.total.load(Ordering::Relaxed) > 0 {
                        eprintln!("{}", p.render_line());
                    }
                }
            }
        });
        self.progress = Some(progress);
        self.monitor = Mutex::new(Some(handle));
        self
    }

    /// Whether resume is on.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// The output root (journals under `root/journal`, shards under
    /// `root/shards/<exp>/`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The progress counters, when a monitor is attached.
    pub fn progress(&self) -> Option<&Arc<Progress>> {
        self.progress.as_ref()
    }

    /// The observer the sweep runner should report cell lifecycles to.
    pub fn observer(&self) -> &dyn SweepObserver {
        match &self.progress {
            Some(p) => p.as_ref(),
            None => &crate::runner::NOOP_OBSERVER,
        }
    }

    /// Opens one sweep's journal and shard directory. Cell completions
    /// are journaled through the returned scope from the worker threads;
    /// call [`SweepScope::finish`] when the sweep ends to fold its
    /// tallies into [`Telemetry::experiment_counters`].
    pub fn sweep(&self, exp: &str, total: usize, harness_fingerprint: u64) -> SweepScope<'_> {
        let journal_dir = self.root.join("journal");
        let shard_dir = self.root.join("shards").join(exp);
        let journal_path = journal_dir.join(format!("{exp}.jsonl"));
        let journal = fs::create_dir_all(&journal_dir)
            .and_then(|()| {
                // A crash mid-append leaves a torn final record (no
                // trailing newline). Truncate back to the last complete
                // line before appending, so the journal stays a valid
                // JSONL prefix and the new records don't concatenate
                // onto the torn tail.
                match repair_torn_tail(&journal_path) {
                    Ok(0) => {}
                    Ok(dropped) => eprintln!(
                        "warning: {} journal had a torn final record; \
                         dropped {dropped} trailing byte(s)",
                        exp
                    ),
                    Err(e) => eprintln!("warning: could not repair {} journal tail: {e}", exp),
                }
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&journal_path)
            })
            .map_err(|e| eprintln!("warning: telemetry journal for {exp} unavailable: {e}"))
            .ok();
        if let Err(e) = fs::create_dir_all(&shard_dir) {
            eprintln!("warning: telemetry shard dir for {exp} unavailable: {e}");
        }
        if let Some(p) = &self.progress {
            p.begin_sweep(exp, total);
        }
        SweepScope {
            tele: self,
            exp: exp.to_string(),
            journal: Mutex::new(journal),
            shard_dir,
            harness_fingerprint,
            total,
            degraded: AtomicUsize::new(0),
            resumed: AtomicUsize::new(0),
            cell_walls: Mutex::new(Vec::new()),
            engine: "cycle".to_string(),
        }
    }

    /// Per-experiment tallies of every finished sweep, in completion
    /// order.
    pub fn experiment_counters(&self) -> Vec<ExpCounters> {
        self.counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Stops the progress monitor (if any) after printing a final status
    /// line. Idempotent; also runs on drop.
    pub fn finish(&self) {
        if let Some(p) = &self.progress {
            if !p.stop.swap(true, Ordering::Relaxed) && p.total.load(Ordering::Relaxed) > 0 {
                eprintln!("{}", p.render_line());
            }
        }
        let handle = self
            .monitor
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if let Some(p) = &self.progress {
            p.stop.store(true, Ordering::Relaxed);
        }
        let handle = self
            .monitor
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// One sweep's journaling scope: shared by the worker threads, which call
/// [`SweepScope::run_cell`] for every cell.
pub struct SweepScope<'t> {
    tele: &'t Telemetry,
    exp: String,
    journal: Mutex<Option<fs::File>>,
    shard_dir: PathBuf,
    harness_fingerprint: u64,
    total: usize,
    degraded: AtomicUsize,
    resumed: AtomicUsize,
    /// `(cell index, wall microseconds)` pairs, pushed from the worker
    /// threads in completion order and sorted by index at `finish`.
    cell_walls: Mutex<Vec<(usize, u64)>>,
    /// Engine tag stamped on every journal record of this sweep.
    engine: String,
}

impl SweepScope<'_> {
    /// Tags every record this sweep journals with the producing engine
    /// (the default "cycle" is omitted from journal lines).
    #[must_use]
    pub fn with_engine(mut self, engine: &str) -> Self {
        self.engine = engine.to_string();
        self
    }

    /// The shard path of cell `index`.
    pub fn shard_path(&self, index: usize) -> PathBuf {
        self.shard_dir.join(format!("{index:05}.json"))
    }

    /// The fingerprint cell `index` is validated against on resume: the
    /// schema version, the sweep/cell identity, and the harness
    /// configuration fingerprint.
    pub fn cell_fingerprint(&self, index: usize, spec: &CellSpec) -> u64 {
        fnv1a(&format!(
            "{SCHEMA_VERSION}|{}|{index}|{}|{}|{}|{:016x}",
            self.exp, spec.workload, spec.config, spec.seed, self.harness_fingerprint
        ))
    }

    /// Runs (or restores) one cell: on resume, a valid shard short-cuts
    /// the run; otherwise `f` runs, the shard and journal record are
    /// written at completion — on this worker thread, not at sweep end —
    /// and the statistics *decoded back from the shard encoding* are
    /// returned, so the assembled grid provably comes from shard data.
    pub fn run_cell(
        &self,
        index: usize,
        spec: &CellSpec,
        f: impl FnOnce() -> RunStats,
    ) -> RunStats {
        if let Some(stats) = self.try_restore(index, spec) {
            return stats;
        }
        let t0 = Instant::now();
        let stats = f();
        let wall_us = t0.elapsed().as_micros() as u64;
        self.record_success(index, spec, wall_us, stats)
    }

    /// Attempts to restore cell `index` from its shard (resume mode
    /// only). A valid shard is journaled as [`CellOutcome::Resumed`] and
    /// its decoded statistics returned; a missing, corrupt, or stale
    /// shard returns `None` — the caller re-runs the cell.
    pub fn try_restore(&self, index: usize, spec: &CellSpec) -> Option<RunStats> {
        if !self.tele.resume {
            return None;
        }
        let shard_path = self.shard_path(index);
        let fingerprint = self.cell_fingerprint(index, spec);
        let t0 = Instant::now();
        match fs::read_to_string(&shard_path) {
            Ok(body) => match shard_from_json(&body, fingerprint) {
                Ok((_, stats)) => {
                    let wall_us = t0.elapsed().as_micros() as u64;
                    let record = CellRecord::from_stats(
                        &self.exp,
                        spec,
                        index,
                        self.total,
                        wall_us,
                        CellOutcome::Resumed,
                        &stats,
                    )
                    .with_engine(&self.engine);
                    self.append_journal(&record);
                    self.resumed.fetch_add(1, Ordering::Relaxed);
                    self.note_cell_wall(index, wall_us);
                    self.note_degradation(&stats);
                    return Some(stats);
                }
                Err(e) => eprintln!(
                    "[telemetry] re-running {} cell {index} ({}/{}): {e}",
                    self.exp, spec.workload, spec.config
                ),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!(
                "[telemetry] re-running {} cell {index}: unreadable shard: {e}",
                self.exp
            ),
        }
        None
    }

    /// Journals a freshly-run cell and writes its shard, returning the
    /// statistics decoded back from the shard encoding (so the assembled
    /// grid provably comes from shard data).
    pub fn record_success(
        &self,
        index: usize,
        spec: &CellSpec,
        wall_us: u64,
        stats: RunStats,
    ) -> RunStats {
        let shard_path = self.shard_path(index);
        let fingerprint = self.cell_fingerprint(index, spec);
        let outcome = if stats.degradation.is_degraded() {
            CellOutcome::Degraded
        } else {
            CellOutcome::Completed
        };
        let record =
            CellRecord::from_stats(&self.exp, spec, index, self.total, wall_us, outcome, &stats)
                .with_engine(&self.engine);
        let body = shard_to_json(fingerprint, &record, &stats);
        // Temp-file + rename: a crash mid-write leaves no half-shard that
        // could masquerade as a completed cell.
        let stats = match self.write_shard(&shard_path, &body) {
            Ok(()) => match Json::parse(&body)
                .and_then(|j| stats_from_json(j.get("stats").ok_or("missing stats")?))
            {
                Ok(decoded) => decoded,
                Err(e) => {
                    eprintln!(
                        "warning: shard round-trip failed for {} cell {index}: {e}",
                        self.exp
                    );
                    stats
                }
            },
            Err(e) => {
                eprintln!(
                    "warning: failed to write shard for {} cell {index}: {e}",
                    self.exp
                );
                stats
            }
        };
        self.append_journal(&record);
        self.note_cell_wall(index, wall_us);
        self.note_degradation(&stats);
        stats
    }

    /// Journals a quarantined cell: outcome [`CellOutcome::Aborted`] or
    /// [`CellOutcome::Panicked`] with the failure reason, plus whatever
    /// partial statistics the aborted run produced. No shard is written,
    /// so a later `--resume` re-runs the cell once the cause is fixed.
    pub fn record_failure(
        &self,
        index: usize,
        spec: &CellSpec,
        wall_us: u64,
        outcome: CellOutcome,
        reason: &str,
        stats: &RunStats,
    ) {
        let record =
            CellRecord::from_stats(&self.exp, spec, index, self.total, wall_us, outcome, stats)
                .with_reason(reason)
                .with_engine(&self.engine);
        self.append_journal(&record);
        self.note_cell_wall(index, wall_us);
    }

    fn note_cell_wall(&self, index: usize, wall_us: u64) {
        self.cell_walls
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((index, wall_us));
    }

    fn write_shard(&self, path: &Path, body: &str) -> std::io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, body)?;
        fs::rename(&tmp, path)
    }

    fn note_degradation(&self, stats: &RunStats) {
        if stats.degradation.is_degraded() {
            self.degraded.fetch_add(1, Ordering::Relaxed);
            if let Some(p) = &self.tele.progress {
                p.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn append_journal(&self, record: &CellRecord) {
        if record.outcome == CellOutcome::Resumed {
            if let Some(p) = &self.tele.progress {
                p.resumed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut guard = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(file) = guard.as_mut() {
            if let Err(e) = writeln!(file, "{}", record.to_json_line()) {
                eprintln!("warning: journal append failed for {}: {e}", self.exp);
                *guard = None;
            }
        }
    }

    /// Folds the sweep's tallies into the telemetry's per-experiment
    /// counters.
    pub fn finish(self) {
        let mut walls = self
            .cell_walls
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        walls.sort_unstable_by_key(|&(i, _)| i);
        let counters = ExpCounters {
            exp: self.exp.clone(),
            cells: self.total,
            degraded: self.degraded.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            cell_wall_us: walls.into_iter().map(|(_, us)| us).collect(),
        };
        self.tele
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(counters);
    }
}

// ---------------------------------------------------------------------------
// Journal reading & summarizing (the `figures status` subcommand)
// ---------------------------------------------------------------------------

/// Truncates a torn final journal record: a crash mid-append leaves a
/// partial line with no trailing newline, and every complete record
/// before it is still valid. Returns the number of bytes dropped (0 when
/// the file is absent, empty, or ends cleanly).
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn repair_torn_tail(path: &Path) -> std::io::Result<u64> {
    let body = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    if body.is_empty() || body.last() == Some(&b'\n') {
        return Ok(0);
    }
    let keep = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep as u64)?;
    Ok((body.len() - keep) as u64)
}

/// Appends pre-built records to `<root>/journal/<exp>.jsonl`, creating
/// the directory and repairing a torn tail first. Used by runs (like
/// `figures timeline`) that journal outside a [`Telemetry`] sweep scope;
/// re-runs append, and [`summarize`] keeps the latest record per cell.
///
/// # Errors
///
/// Propagates I/O errors from the journal directory or file.
pub fn append_journal_records(
    root: &Path,
    exp: &str,
    records: &[CellRecord],
) -> std::io::Result<()> {
    let dir = root.join("journal");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{exp}.jsonl"));
    let dropped = repair_torn_tail(&path)?;
    if dropped > 0 {
        eprintln!("warning: {exp} journal had a torn final record; dropped {dropped} bytes");
    }
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    for r in records {
        writeln!(f, "{}", r.to_json_line())?;
    }
    Ok(())
}

/// What [`read_journal_dir`] recovered from a journal directory.
#[derive(Clone, Debug, Default)]
pub struct JournalRead {
    /// Every record that parsed, in file order.
    pub records: Vec<CellRecord>,
    /// Malformed interior lines (`file:line: error`) — real corruption
    /// that `status --check` should fail on.
    pub errors: Vec<String>,
    /// Torn final lines (no trailing newline — a crash mid-append).
    /// The valid prefix above them was salvaged; these are warnings, not
    /// check failures.
    pub salvaged: Vec<String>,
}

/// Reads every `*.jsonl` journal under `dir` (sorted by file name) and
/// parses its records. Malformed interior lines become [`JournalRead::errors`]
/// instead of aborting the read; a malformed *final* line with no
/// trailing newline is a torn tail from a crash mid-append — the valid
/// prefix is kept and the tail reported in [`JournalRead::salvaged`].
pub fn read_journal_dir(dir: &Path) -> JournalRead {
    let mut out = JournalRead::default();
    let mut files: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect(),
        Err(_) => return out,
    };
    files.sort();
    for path in files {
        let body = match fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                out.errors.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
        let torn_tail = !body.is_empty() && !body.ends_with('\n');
        let last = body.lines().count();
        for (n, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match CellRecord::parse_line(line) {
                Ok(r) => out.records.push(r),
                Err(e) if torn_tail && n + 1 == last => out.salvaged.push(format!(
                    "{}:{}: torn final record ({e}); salvaged the {} line(s) before it",
                    path.display(),
                    n + 1,
                    n
                )),
                Err(e) => out
                    .errors
                    .push(format!("{}:{}: {e}", path.display(), n + 1)),
            }
        }
    }
    out
}

/// Walks every shard under `dir` (`<exp>/<cell>.json`), validating that
/// each parses and carries the current schema. Returns the number of
/// shards checked and the list of failures.
pub fn check_shards(dir: &Path) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut errors = Vec::new();
    let mut exp_dirs: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect(),
        Err(_) => return (checked, errors),
    };
    exp_dirs.sort();
    for exp_dir in exp_dirs {
        let mut shards: Vec<PathBuf> = match fs::read_dir(&exp_dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect(),
            Err(e) => {
                errors.push(format!("{}: {e}", exp_dir.display()));
                continue;
            }
        };
        shards.sort();
        for path in shards {
            checked += 1;
            let verdict = fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|body| {
                    let j = Json::parse(&body)?;
                    let schema = u64_field(&j, "schema")?;
                    if schema != u64::from(SCHEMA_VERSION) {
                        return Err(format!("schema {schema} != {SCHEMA_VERSION}"));
                    }
                    parse_record_json(j.get("record").ok_or("missing record")?)?;
                    stats_from_json(j.get("stats").ok_or("missing stats")?)?;
                    Ok(())
                });
            if let Err(e) = verdict {
                errors.push(format!("{}: {e}", path.display()));
            }
        }
    }
    (checked, errors)
}

/// One experiment's journal summary (what `figures status` renders).
#[derive(Clone, Debug)]
pub struct ExpSummary {
    /// Experiment id.
    pub exp: String,
    /// Cells the sweep declared (`total` field of its records).
    pub total: usize,
    /// Distinct cells with at least one record.
    pub cells: usize,
    /// Of those, cells whose latest record is degradation-free.
    pub completed: usize,
    /// Cells whose latest record carries degradation events.
    pub degraded: usize,
    /// Cells whose latest record was a resume restore.
    pub resumed: usize,
    /// Cells whose latest record is a quarantined typed abort.
    pub aborted: usize,
    /// Cells whose latest record is a quarantined panic.
    pub panicked: usize,
    /// Summed wall-clock of the latest record per cell, µs.
    pub wall_us: u64,
    /// Latest record per cell, slowest first (fresh runs only).
    pub slowest: Vec<CellRecord>,
    /// Latest record of every degraded cell, in cell order.
    pub degraded_cells: Vec<CellRecord>,
    /// Latest record of every quarantined (aborted/panicked) cell, in
    /// cell order.
    pub quarantined_cells: Vec<CellRecord>,
    /// Cell indices in `0..total` with no journal record at all (a
    /// crash or kill before the cell finished) — what `status --check`
    /// flags as incomplete coverage.
    pub missing: Vec<usize>,
    /// Worst per-chiplet DRAM imbalance (max/mean) over the latest
    /// record of every cell; `None` when no cell journaled one.
    pub worst_imbalance: Option<f64>,
    /// Mean warmup fraction over the cells that journaled one (timeline
    /// runs); `None` otherwise.
    pub warmup_frac: Option<f64>,
}

/// Groups journal records by experiment (first-seen order) and reduces
/// each to its latest-record-per-cell summary. Re-runs append to the
/// journal, so later records for the same `(exp, cell)` supersede earlier
/// ones.
pub fn summarize(records: &[CellRecord]) -> Vec<ExpSummary> {
    let mut order: Vec<String> = Vec::new();
    for r in records {
        if !order.contains(&r.exp) {
            order.push(r.exp.clone());
        }
    }
    order
        .into_iter()
        .map(|exp| {
            // Latest record per cell index.
            let mut latest: Vec<(usize, &CellRecord)> = Vec::new();
            let mut total = 0;
            for r in records.iter().filter(|r| r.exp == exp) {
                total = total.max(r.total);
                match latest.iter_mut().find(|(c, _)| *c == r.cell) {
                    Some(slot) => slot.1 = r,
                    None => latest.push((r.cell, r)),
                }
            }
            latest.sort_by_key(|(c, _)| *c);
            let cells = latest.len();
            let quarantined_cells: Vec<CellRecord> = latest
                .iter()
                .filter(|(_, r)| r.outcome.is_quarantined())
                .map(|(_, r)| (*r).clone())
                .collect();
            let degraded_cells: Vec<CellRecord> = latest
                .iter()
                .filter(|(_, r)| !r.outcome.is_quarantined() && r.degraded_events > 0)
                .map(|(_, r)| (*r).clone())
                .collect();
            let resumed = latest
                .iter()
                .filter(|(_, r)| r.outcome == CellOutcome::Resumed)
                .count();
            let aborted = quarantined_cells
                .iter()
                .filter(|r| r.outcome == CellOutcome::Aborted)
                .count();
            let panicked = quarantined_cells.len() - aborted;
            let missing: Vec<usize> = (0..total)
                .filter(|i| !latest.iter().any(|(c, _)| c == i))
                .collect();
            let wall_us = latest.iter().map(|(_, r)| r.wall_us).sum();
            let mut slowest: Vec<CellRecord> = latest
                .iter()
                .filter(|(_, r)| r.outcome != CellOutcome::Resumed && !r.outcome.is_quarantined())
                .map(|(_, r)| (*r).clone())
                .collect();
            slowest.sort_by_key(|r| std::cmp::Reverse(r.wall_us));
            slowest.truncate(3);
            let worst_imbalance = latest
                .iter()
                .filter_map(|(_, r)| r.imbalance)
                .fold(None, |acc: Option<f64>, v| {
                    Some(acc.map_or(v, |a| a.max(v)))
                });
            let warmed: Vec<f64> = latest.iter().filter_map(|(_, r)| r.warmup_frac).collect();
            let warmup_frac =
                (!warmed.is_empty()).then(|| warmed.iter().sum::<f64>() / warmed.len() as f64);
            ExpSummary {
                exp,
                total,
                cells,
                completed: cells - degraded_cells.len() - quarantined_cells.len(),
                degraded: degraded_cells.len(),
                resumed,
                aborted,
                panicked,
                wall_us,
                slowest,
                degraded_cells,
                quarantined_cells,
                missing,
                worst_imbalance,
                warmup_frac,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> RunStats {
        let mut per_alloc = std::collections::HashMap::new();
        per_alloc.insert(
            AllocId::new(3),
            AllocAccessStats {
                accesses: 30,
                remote: 4,
            },
        );
        per_alloc.insert(
            AllocId::new(1),
            AllocAccessStats {
                accesses: 10,
                remote: 2,
            },
        );
        RunStats {
            cycles: 123_456_789_012,
            mem_insts: 42,
            warp_insts: 420,
            remote_insts: 7,
            l1d_hits: 1,
            l1d_misses: 2,
            l2d_hits: 3,
            l2d_misses: 4,
            l1tlb_hits: 5,
            l1tlb_misses: 6,
            l2tlb_hits: 7,
            l2tlb_misses: 8,
            walks: 9,
            walk_mshr_hits: 10,
            walk_cycles: 11,
            translation_cycles: 12,
            data_cycles: 13,
            faults: 14,
            coalesced_fills: 15,
            promotions: 16,
            remote_cache_hits: 17,
            migrations: 18,
            shootdowns: 19,
            dram_accesses: 20,
            dram_per_chiplet: vec![5, 5, 5, 5],
            interconnect_transfers: 21,
            dram_queue_cycles: 22,
            interconnect_queue_cycles: 23,
            blocks_consumed: Some(99),
            per_alloc,
            degradation: DegradationStats {
                fallback_remote_frames: 2,
                walk_queue_stalls: 3,
                walk_queue_stall_cycles: 40,
                ..Default::default()
            },
        }
    }

    fn spec() -> CellSpec {
        CellSpec {
            row: 1,
            col: 2,
            workload: "STE".into(),
            config: "S-64KB".into(),
            seed: 0,
        }
    }

    #[test]
    fn outcome_records_keep_the_abort_and_its_reason() {
        let s = sample_stats();
        let aborted = RunOutcome::Aborted {
            reason: mcm_sim::SimError::BudgetExceeded {
                cycles: 900,
                max_cycles: 800,
            },
            stats: s.clone(),
        };
        let r = CellRecord::from_outcome("fig1-timeline", &spec(), 3, 24, 99, &aborted);
        assert_eq!(
            r.outcome,
            CellOutcome::Aborted,
            "partial stats are not a completion"
        );
        assert!(
            r.reason.contains("800"),
            "reason names the budget: {}",
            r.reason
        );
        assert_eq!(r.cycles, s.cycles);
        let degraded = RunOutcome::Degraded {
            stats: s.clone(),
            errors: Vec::new(),
        };
        let r = CellRecord::from_outcome("x", &spec(), 0, 1, 1, &degraded);
        assert_eq!((r.outcome, r.reason.as_str()), (CellOutcome::Degraded, ""));
        let r = CellRecord::from_outcome("x", &spec(), 0, 1, 1, &RunOutcome::Completed(s));
        assert_eq!(r.outcome, CellOutcome::Completed);
    }

    #[test]
    fn json_parser_handles_documents() {
        let j = Json::parse(
            r#"{"a": 1, "b": [true, null, "x\n\"y\""], "c": {"d": 18446744073709551615}}"#,
        )
        .expect("parse");
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(1));
        let b = j.get("b").and_then(Json::as_arr).expect("arr");
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\n\"y\""));
        // u64::MAX survives (an f64 intermediate would round it).
        assert_eq!(
            j.get("c").and_then(|c| c.get("d")).and_then(Json::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", json_escape(nasty));
        assert_eq!(Json::parse(&doc).expect("parse").as_str(), Some(nasty));
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let s = sample_stats();
        let encoded = stats_to_json(&s);
        let decoded = stats_from_json(&Json::parse(&encoded).expect("parse")).expect("decode");
        // Everything a figure reads round-trips exactly; re-encoding the
        // decoded value must be byte-identical.
        assert_eq!(stats_to_json(&decoded), encoded);
        assert_eq!(decoded.cycles, s.cycles);
        assert_eq!(decoded.dram_per_chiplet, s.dram_per_chiplet);
        assert_eq!(decoded.blocks_consumed, Some(99));
        assert_eq!(decoded.per_alloc, s.per_alloc);
        assert_eq!(
            decoded.degradation.walk_queue_stall_cycles,
            s.degradation.walk_queue_stall_cycles
        );
        assert!(decoded.degradation.is_degraded());
    }

    #[test]
    fn record_round_trip() {
        let s = sample_stats();
        let r = CellRecord::from_stats("fig1", &spec(), 5, 24, 1234, CellOutcome::Degraded, &s);
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "journal records are single lines");
        let parsed = CellRecord::parse_line(&line).expect("parse");
        assert_eq!(parsed, r);
        assert_eq!(parsed.degraded_events, s.degradation.events());
        assert_eq!(parsed.outcome, CellOutcome::Degraded);
    }

    #[test]
    fn shard_round_trip_validates_fingerprint_and_schema() {
        let s = sample_stats();
        let r = CellRecord::from_stats("fig1", &spec(), 5, 24, 1234, CellOutcome::Completed, &s);
        let body = shard_to_json(0xabcd, &r, &s);
        let (rec, stats) = shard_from_json(&body, 0xabcd).expect("valid shard");
        assert_eq!(rec, r);
        assert_eq!(stats_to_json(&stats), stats_to_json(&s));
        // Stale fingerprint → rejected (configuration changed).
        let err = shard_from_json(&body, 0xdead).expect_err("stale");
        assert!(err.contains("fingerprint"));
        // Stale schema → rejected.
        let old = body.replace(&format!("\"schema\": {SCHEMA_VERSION},"), "\"schema\": 0,");
        assert!(shard_from_json(&old, 0xabcd)
            .expect_err("schema")
            .contains("schema"));
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
        // The FNV-1a reference value for the empty string.
        assert_eq!(fnv1a(""), 0xcbf29ce484222325);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_us(870), "870µs");
        assert_eq!(fmt_duration_us(3_400), "3.4ms");
        assert_eq!(fmt_duration_us(1_250_000), "1.25s");
        assert_eq!(fmt_duration_us(83_000_000), "83.0s");
    }

    #[test]
    fn summarize_keeps_latest_record_per_cell() {
        let s = sample_stats();
        let mut clean = s.clone();
        clean.degradation = DegradationStats::default();
        let first = CellRecord::from_stats("figX", &spec(), 0, 2, 500, CellOutcome::Degraded, &s);
        let rerun =
            CellRecord::from_stats("figX", &spec(), 0, 2, 700, CellOutcome::Completed, &clean);
        let other =
            CellRecord::from_stats("figX", &spec(), 1, 2, 900, CellOutcome::Resumed, &clean);
        let sums = summarize(&[first, rerun.clone(), other]);
        assert_eq!(sums.len(), 1);
        let sum = &sums[0];
        assert_eq!((sum.cells, sum.total), (2, 2));
        assert_eq!(sum.degraded, 0, "the re-run superseded the degraded record");
        assert_eq!(sum.completed, 2);
        assert_eq!(sum.resumed, 1);
        assert_eq!(sum.wall_us, 700 + 900);
        assert_eq!(sum.slowest.len(), 1, "resumed cells are not 'slow'");
        assert_eq!(sum.slowest[0], rerun);
    }

    #[test]
    fn scope_journals_and_shards_then_resumes() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-scope");
        let _ = fs::remove_dir_all(&dir);
        let tele = Telemetry::new(&dir);
        let specs = [spec()];
        let scope = tele.sweep("figX", specs.len(), 42);
        let out = scope.run_cell(0, &specs[0], sample_stats);
        assert_eq!(out.cycles, sample_stats().cycles);
        scope.finish();
        assert!(dir.join("shards/figX/00000.json").is_file());
        let journal = read_journal_dir(&dir.join("journal"));
        assert!(journal.errors.is_empty(), "{:?}", journal.errors);
        assert!(journal.salvaged.is_empty(), "{:?}", journal.salvaged);
        let records = journal.records;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, CellOutcome::Degraded);
        let (checked, shard_errors) = check_shards(&dir.join("shards"));
        assert_eq!((checked, shard_errors.len()), (1, 0), "{shard_errors:?}");
        let counters = tele.experiment_counters();
        assert_eq!(
            counters,
            vec![ExpCounters {
                exp: "figX".into(),
                cells: 1,
                degraded: 1,
                resumed: 0,
                cell_wall_us: counters[0].cell_wall_us.clone(),
            }]
        );
        assert_eq!(
            counters[0].cell_wall_us.len(),
            1,
            "one wall-time entry per cell"
        );
        // Resume: the closure must not run again.
        let tele = Telemetry::new(&dir).with_resume(true);
        let scope = tele.sweep("figX", specs.len(), 42);
        let resumed = scope.run_cell(0, &specs[0], || panic!("cell must be restored, not re-run"));
        assert_eq!(stats_to_json(&resumed), stats_to_json(&out));
        scope.finish();
        assert_eq!(tele.experiment_counters()[0].resumed, 1);
        // A different harness fingerprint marks the shard stale.
        let tele = Telemetry::new(&dir).with_resume(true);
        let scope = tele.sweep("figX", specs.len(), 43);
        let fresh = scope.run_cell(0, &specs[0], sample_stats);
        assert_eq!(fresh.cycles, sample_stats().cycles);
        scope.finish();
        assert_eq!(tele.experiment_counters()[0].resumed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_records_round_trip_with_reason() {
        let s = sample_stats();
        let r = CellRecord::from_stats("fig1", &spec(), 3, 24, 99, CellOutcome::Aborted, &s)
            .with_reason("livelock detected at cycle 77000");
        let line = r.to_json_line();
        assert!(line.contains("\"outcome\":\"aborted\""));
        assert!(line.contains("\"reason\":\"livelock detected at cycle 77000\""));
        let parsed = CellRecord::parse_line(&line).expect("parse");
        assert_eq!(parsed, r);
        assert!(parsed.outcome.is_quarantined());
        // Healthy records omit the reason field entirely, keeping their
        // lines byte-identical to the pre-supervision schema.
        let healthy =
            CellRecord::from_stats("fig1", &spec(), 3, 24, 99, CellOutcome::Completed, &s);
        assert!(!healthy.to_json_line().contains("reason"));
        assert_eq!(
            CellRecord::parse_line(&healthy.to_json_line())
                .expect("parse")
                .reason,
            ""
        );
    }

    #[test]
    fn summarize_classifies_quarantined_and_missing_cells() {
        let s = sample_stats();
        let mut clean = s.clone();
        clean.degradation = DegradationStats::default();
        let ok = CellRecord::from_stats("figQ", &spec(), 0, 4, 100, CellOutcome::Completed, &clean);
        let aborted = CellRecord::from_stats("figQ", &spec(), 1, 4, 50, CellOutcome::Aborted, &s)
            .with_reason("run budget exceeded");
        let panicked =
            CellRecord::from_stats("figQ", &spec(), 2, 4, 10, CellOutcome::Panicked, &clean)
                .with_reason("boom");
        // Cell 3 never journaled (crash before completion).
        let sums = summarize(&[ok, aborted, panicked]);
        assert_eq!(sums.len(), 1);
        let sum = &sums[0];
        assert_eq!((sum.cells, sum.total), (3, 4));
        assert_eq!((sum.completed, sum.aborted, sum.panicked), (1, 1, 1));
        assert_eq!(
            sum.degraded, 0,
            "the aborted cell's degradation events must not double-count it"
        );
        assert_eq!(sum.quarantined_cells.len(), 2);
        assert_eq!(sum.missing, vec![3]);
        assert_eq!(sum.slowest.len(), 1, "quarantined cells are not 'slow'");
    }

    #[test]
    fn torn_journal_tail_is_salvaged_and_repaired() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-torn");
        let _ = fs::remove_dir_all(&dir);
        let journal_dir = dir.join("journal");
        fs::create_dir_all(&journal_dir).expect("mkdir");
        let s = sample_stats();
        let good = CellRecord::from_stats("figT", &spec(), 0, 2, 10, CellOutcome::Completed, &s);
        let torn = good.to_json_line();
        let torn = &torn[..torn.len() / 2]; // record cut mid-write
        let path = journal_dir.join("figT.jsonl");
        fs::write(&path, format!("{}\n{torn}", good.to_json_line())).expect("write");
        // Reading salvages the valid prefix; the torn tail is a warning,
        // not an error.
        let read = read_journal_dir(&journal_dir);
        assert_eq!(read.records.len(), 1);
        assert!(read.errors.is_empty(), "{:?}", read.errors);
        assert_eq!(read.salvaged.len(), 1, "{:?}", read.salvaged);
        assert!(read.salvaged[0].contains("torn final record"));
        // Re-opening the sweep truncates the torn bytes so appends start
        // on a fresh line.
        let tele = Telemetry::new(&dir);
        let scope = tele.sweep("figT", 2, 42);
        let _ = scope.run_cell(1, &spec(), sample_stats);
        scope.finish();
        let read = read_journal_dir(&journal_dir);
        assert_eq!(read.records.len(), 2);
        assert!(read.errors.is_empty(), "{:?}", read.errors);
        assert!(read.salvaged.is_empty(), "{:?}", read.salvaged);
        // An interior corrupt line is real corruption, not a torn tail.
        fs::write(&path, format!("not json\n{}\n", good.to_json_line())).expect("write");
        let read = read_journal_dir(&journal_dir);
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.errors.len(), 1);
        assert!(read.salvaged.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_failure_journals_without_a_shard() {
        let dir = std::env::temp_dir().join("clap-repro-test-telemetry-failure");
        let _ = fs::remove_dir_all(&dir);
        let tele = Telemetry::new(&dir);
        let scope = tele.sweep("figF", 1, 42);
        scope.record_failure(
            0,
            &spec(),
            25,
            CellOutcome::Panicked,
            "injected panic",
            &RunStats::default(),
        );
        scope.finish();
        assert!(!dir.join("shards/figF/00000.json").exists());
        let read = read_journal_dir(&dir.join("journal"));
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.records[0].outcome, CellOutcome::Panicked);
        assert_eq!(read.records[0].reason, "injected panic");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_counters_render() {
        let p = Progress::new();
        p.begin_sweep("fig1", 10);
        p.cell_started(0);
        p.cell_finished(0);
        p.cell_started(1);
        let line = p.render_line();
        assert!(line.contains("[sweep fig1] 1/10 cells"), "{line}");
        assert!(line.contains("1 active workers"), "{line}");
        assert!(line.contains("ETA"), "{line}");
    }
}
