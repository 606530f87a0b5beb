//! ssxdb benchmark: one closed-loop client thread runs a workload's fixed
//! op list in whole passes, checks every op against the plaintext oracle,
//! and prints one JSON result line (end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of a traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-local --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads, metrics and their bounds are described in `BENCHMARK.json`
//! at the repository root.

mod kernels;
mod trace;
mod workload;

use ssx_core::transport::TransportStats;
use ssx_core::{ClientStats, CoreError, ServerStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::{Db, Inputs, Op, Plane, Spec, Stack, WriteCost};

/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 21;
/// An untraced run times at least this many queries and writes, so that
/// every op behind a p90 has several samples.
const MIN_P90_SAMPLES: usize = 100;
/// Where the benchmark keeps its WAL files and span dumps.
const SCRATCH_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counters that must read identically in a traced and an untraced run of
/// the same ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
struct Counts {
    waves: u64,
    bytes: u64,
    shard_dispatches: u64,
    client_evals: u64,
    server_evals: u64,
    share_cache_hits: u64,
    share_cache_misses: u64,
    server_evaluations: u64,
    server_eval_cache_hits: u64,
}

fn counts(c: ClientStats, t: TransportStats, s: ServerStats) -> Counts {
    Counts {
        waves: t.round_trips,
        bytes: t.bytes_sent + t.bytes_received,
        shard_dispatches: t.shard_dispatches,
        client_evals: c.client_evals,
        server_evals: c.server_evals,
        share_cache_hits: c.share_cache_hits,
        share_cache_misses: c.share_cache_misses,
        server_evaluations: s.evaluations,
        server_eval_cache_hits: s.eval_cache_hits,
    }
}

/// The fastest time one op took over the timed passes, and the rows it
/// inserted.
#[derive(Clone, Copy)]
struct Best {
    ms: f64,
    rows: u64,
}

/// What a best time is kept per: reads per op, writes per pool document
/// (its size sets the write's cost), so `(op, document)`.
type Key = (Op, usize);

/// One timed phase: whole passes over the op list after a warm-up pass.
#[derive(Default)]
struct Phase {
    passes: usize,
    best: BTreeMap<Key, Best>,
    /// Samples per class.
    queries: usize,
    aggs: usize,
    writes: usize,
    attempted: u64,
    failed: u64,
    warmup_failed: u64,
    wall: Duration,
    closing_waves: u64,
    retries: u64,
    cost: WriteCost,
    /// Client and transport counters at the start and end of the timed
    /// passes.
    client0: ClientStats,
    client1: ClientStats,
    wire0: TransportStats,
    wire1: TransportStats,
}

impl Phase {
    /// Best times of one class, one per key, in ms.
    fn bests(&self, class: fn(Op) -> bool) -> Vec<f64> {
        self.best
            .iter()
            .filter(|((op, _), _)| class(*op))
            .map(|(_, b)| b.ms)
            .collect()
    }

    /// Seconds of one pass in which every op takes its best time, and the
    /// rows its writes insert. A write counts as the mean over documents.
    fn best_pass(&self, inp: &Inputs) -> (f64, f64) {
        let writes: Vec<&Best> = self
            .best
            .iter()
            .filter(|((op, _), _)| *op == Op::Write)
            .map(|(_, b)| b)
            .collect();
        let n = writes.len().max(1) as f64;
        let write_ms = writes.iter().map(|b| b.ms).sum::<f64>() / n;
        let write_rows = writes.iter().map(|b| b.rows as f64).sum::<f64>() / n;
        let (mut ms, mut rows) = (0.0, 0.0);
        for &op in &inp.pass {
            if op == Op::Write {
                ms += write_ms;
                rows += write_rows;
            } else {
                ms += self.best.get(&(op, 0)).map_or(0.0, |b| b.ms);
            }
        }
        (ms / 1e3, rows)
    }
}

fn is_query(op: Op) -> bool {
    matches!(op, Op::Query(_))
}

fn is_agg(op: Op) -> bool {
    matches!(op, Op::Agg(_))
}

fn is_write(op: Op) -> bool {
    op == Op::Write
}

/// Runs the warm-up pass and then `passes` timed passes, calling `between`
/// after each timed pass (outside the timed wall).
fn drive<T: Stack>(
    db: &mut Db<T>,
    spec: &Spec,
    inp: &Inputs,
    rec: Option<&Arc<Recorder>>,
    passes: usize,
    between: &mut dyn FnMut(),
) -> Phase {
    let mut ph = Phase::default();
    let report = |r: &workload::OpResult| {
        if let Some(d) = &r.detail {
            eprintln!("perfbench: op failed: {d}");
        }
    };
    for &op in &inp.pass {
        let r = db.run_op(spec, inp, op, None, &mut WriteCost::default());
        if !r.ok {
            ph.warmup_failed += 1;
            report(&r);
        }
    }
    if let Some(rec) = rec {
        rec.clear();
    }
    ph.client0 = db.client.stats();
    ph.wire0 = db.client.transport_stats();
    for _ in 0..passes {
        let pass_started = Instant::now();
        for &op in &inp.pass {
            let t = Instant::now();
            let id = rec.map(|r| r.begin(trace::Layer::Op));
            let r = db.run_op(spec, inp, op, rec.map(|r| &**r), &mut ph.cost);
            if let (Some(rec), Some(id)) = (rec, id) {
                rec.end(id);
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match op {
                Op::Query(_) => ph.queries += 1,
                Op::Agg(_) => ph.aggs += 1,
                Op::Write => ph.writes += 1,
            }
            let best = ph.best.entry((op, r.doc.unwrap_or(0))).or_insert(Best {
                ms,
                rows: r.rows_inserted,
            });
            best.ms = best.ms.min(ms);
            ph.attempted += 1;
            ph.closing_waves += r.closing_waves;
            ph.retries += r.retries;
            if !r.ok {
                ph.failed += 1;
                report(&r);
            }
        }
        ph.passes += 1;
        ph.wall += pass_started.elapsed();
        between();
    }
    ph.client1 = db.client.stats();
    ph.wire1 = db.client.transport_stats();
    ph
}

/// Linear-interpolated percentile of unsorted samples.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fixed number of passes a run makes: as many as fill `seconds` at
/// the workload's nominal pass time, and with `p90` at least
/// [`MIN_P90_SAMPLES`] queries and writes. The count depends on
/// the arguments only, never on how fast this run goes.
fn passes(spec: &Spec, seconds: f64, p90: bool) -> usize {
    let floor = if p90 {
        [spec.queries.len(), spec.writes_per_pass]
            .iter()
            .map(|&per_pass| MIN_P90_SAMPLES.div_ceil(per_pass.max(1)))
            .max()
            .unwrap_or(1)
    } else {
        1
    };
    ((seconds / spec.pass_seconds).round() as usize).max(floor)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s + "}"
    }
}

/// Builds the workload's stack; `rec` selects the traced variant.
fn with_db<R>(
    spec: &Spec,
    inp: &Inputs,
    rec: Option<Arc<Recorder>>,
    scratch: &Path,
    tag: &str,
    body: &mut dyn FnMut(&mut dyn AnyDb) -> R,
) -> Result<(R, ServerStats), CoreError> {
    match spec.plane {
        Plane::Local { .. } => {
            let mut db = workload::local_db(spec, inp, rec, scratch, tag)?;
            let r = body(&mut db);
            Ok((r, db.shutdown()?))
        }
        Plane::FleetMux { .. } => match rec {
            None => {
                let mut db = workload::fleet_db(spec, inp, workload::connect_public)?;
                let r = body(&mut db);
                Ok((r, db.shutdown()?))
            }
            Some(rec) => {
                let mut db = workload::fleet_db(spec, inp, workload::connect_traced(rec))?;
                let r = body(&mut db);
                Ok((r, db.shutdown()?))
            }
        },
    }
}

/// The stack-independent view of a [`Db`] the run loop needs.
trait AnyDb {
    fn drive(
        &mut self,
        spec: &Spec,
        inp: &Inputs,
        rec: Option<&Arc<Recorder>>,
        passes: usize,
        between: &mut dyn FnMut(),
    ) -> Phase;
    fn setup_facts(&self) -> (u64, u64, u64, Duration);
}

impl<T: Stack> AnyDb for Db<T> {
    fn drive(
        &mut self,
        spec: &Spec,
        inp: &Inputs,
        rec: Option<&Arc<Recorder>>,
        passes: usize,
        between: &mut dyn FnMut(),
    ) -> Phase {
        drive(self, spec, inp, rec, passes, between)
    }

    fn setup_facts(&self) -> (u64, u64, u64, Duration) {
        (
            self.stored_bytes,
            self.input_bytes,
            self.elements,
            self.encode_time,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time of one set-up, from inputs in memory to ready for the first op.
fn time_setup(spec: &Spec, inp: &Inputs, scratch: &Path) -> Result<f64, CoreError> {
    let started = Instant::now();
    let (secs, _) = with_db(spec, inp, None, scratch, "setup", &mut |_| {
        started.elapsed().as_secs_f64()
    })?;
    Ok(secs)
}

/// Untraced run: the end-to-end metrics of one stack.
///
/// The host this was tuned on switches every few seconds between a fast
/// state and one about 1.6 times slower, so a median over a run follows
/// how much of the run was slow. Every timing is therefore a best time
/// over repeats spread across the run: an op's latency is its fastest
/// time over the timed passes, `setup_s` the fastest of [`SETUP_REPEATS`]
/// set-ups (the run's own and the rest between its passes), and the
/// throughputs are those of a pass in which every op takes its best time.
fn end_to_end(
    spec: &Spec,
    inp: &Inputs,
    args: &Args,
    scratch: &Path,
) -> Result<(Metrics, Phase), CoreError> {
    let mut setups = Vec::new();
    let mut rss = 0.0;
    let mut setup_err = None;
    let n = passes(spec, args.seconds, true);
    let started = Instant::now();
    let ((ph, (stored, input, elements, _)), _) =
        with_db(spec, inp, None, scratch, "e2e", &mut |db| {
            setups.push(started.elapsed().as_secs_f64());
            // The extra set-ups run in the gaps after the second half of
            // the passes; the peak RSS is read before the first of them,
            // whose stack would count on top of the run's own.
            let (mut gaps, half) = (0, n / 2);
            let mut between = || {
                if gaps == half {
                    rss = peak_rss_mb();
                }
                gaps += 1;
                let due = 1 + (SETUP_REPEATS - 1) * gaps.saturating_sub(half) / (n - half);
                while setups.len() < due {
                    match time_setup(spec, inp, scratch) {
                        Ok(s) => setups.push(s),
                        Err(e) => {
                            setup_err.get_or_insert(e);
                            return;
                        }
                    }
                }
            };
            (db.drive(spec, inp, None, n, &mut between), db.setup_facts())
        })?;
    if let Some(e) = setup_err {
        return Err(e);
    }
    let (best_pass_s, rows_per_pass) = ph.best_pass(inp);
    let (queries, aggs, writes) = (ph.bests(is_query), ph.bests(is_agg), ph.bests(is_write));
    let mut m = Metrics(Vec::new());
    m.put(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    m.put("ops_per_s", inp.pass.len() as f64 / best_pass_s, "1/s");
    m.put("query_p50_ms", percentile(&queries, 0.5), "ms");
    m.put("query_p90_ms", percentile(&queries, 0.9), "ms");
    m.put("agg_p50_ms", percentile(&aggs, 0.5), "ms");
    m.put("write_p50_ms", percentile(&writes, 0.5), "ms");
    m.put("write_p90_ms", percentile(&writes, 0.9), "ms");
    m.put("rows_per_s", rows_per_pass / best_pass_s, "1/s");
    m.put(
        "stored_bytes_per_input_byte",
        stored as f64 / input as f64,
        "B/B",
    );
    m.put("peak_rss_mb", rss, "MB");
    m.put(
        "correct_ops_ratio",
        1.0 - ratio(ph.failed as f64, ph.attempted as f64),
        "ratio",
    );
    eprintln!(
        "perfbench: {} seed {}: base document {input} B, {elements} elements; {} passes, {} queries, {} aggregates, {} writes in {:.2} s (best pass {best_pass_s:.3} s); set-ups {:?} s",
        spec.name,
        args.seed,
        ph.passes,
        ph.queries,
        ph.aggs,
        ph.writes,
        ph.wall.as_secs_f64(),
        setups
    );
    report_shape(&ph);
    Ok((m, ph))
}

/// Prints each latency class's best times, sorted, so that a class whose
/// p50 falls in a gap between two clusters shows.
fn report_shape(ph: &Phase) {
    for (class, is) in [
        ("query", is_query as fn(Op) -> bool),
        ("agg", is_agg),
        ("write", is_write),
    ] {
        let mut bests: Vec<(f64, Key)> = ph
            .best
            .iter()
            .filter(|((op, _), _)| is(*op))
            .map(|(&k, b)| (b.ms, k))
            .collect();
        bests.sort_by(|a, b| a.0.total_cmp(&b.0));
        let shown: Vec<String> = bests
            .iter()
            .map(|(ms, (op, doc))| match op {
                Op::Write => format!("doc{doc}={ms:.2}"),
                _ => format!("{op:?}={ms:.2}"),
            })
            .collect();
        eprintln!("perfbench: {class} best times (ms): {}", shown.join(" "));
    }
}

/// Traced run: an untraced phase fixes the pass count, a traced phase on a
/// fresh stack repeats exactly those passes with every span recorded; the
/// two phases' counters must agree exactly.
fn per_layer(
    spec: &Spec,
    inp: &Inputs,
    args: &Args,
    scratch: &Path,
) -> Result<(Metrics, Phase, bool), CoreError> {
    let n = passes(spec, args.seconds / 2.0, false);
    let (plain, plain_server) = with_db(spec, inp, None, scratch, "plain", &mut |db| {
        db.drive(spec, inp, None, n, &mut || {})
    })?;
    let rec = Recorder::new();
    let ((ph, facts), server) =
        with_db(spec, inp, Some(rec.clone()), scratch, "traced", &mut |db| {
            (
                db.drive(spec, inp, Some(&rec), n, &mut || {}),
                db.setup_facts(),
            )
        })?;
    let a = counts(plain.client1, plain.wire1, plain_server);
    let b = counts(ph.client1, ph.wire1, server);
    let counts_equal = a == b;
    if !counts_equal {
        eprintln!(
            "perfbench: traced counters differ from untraced:\n  untraced {a:?}\n  traced   {b:?}"
        );
    }
    let dump = scratch.join(format!("trace-{}-seed{}.json", spec.name, args.seed));
    if let Err(e) = rec.write_json(&dump) {
        eprintln!("perfbench: could not write {}: {e}", dump.display());
    }

    let lt = rec.layer_times();
    let (c0, c1, w0, w1) = (ph.client0, ph.client1, ph.wire0, ph.wire1);
    let ops = ph.attempted as f64;
    let reads = (ph.queries + ph.aggs) as f64;
    let writes = ph.writes as f64;
    let waves = (w1.round_trips - w0.round_trips) as f64;
    let hits = (c1.share_cache_hits - c0.share_cache_hits) as f64;
    let misses = (c1.share_cache_misses - c0.share_cache_misses) as f64;
    let evals = (c1.client_evals + c1.server_evals - c0.client_evals - c0.server_evals) as f64;
    let router_ms = lt.router_ns as f64 / 1e6;
    let injected_ms = match spec.plane {
        Plane::FleetMux { .. } => workload::FLEET_RTT.as_secs_f64() * 1e3 * lt.router_calls as f64,
        Plane::Local { .. } => 0.0,
    };
    let fleet_self_ms = match spec.plane {
        Plane::FleetMux { .. } => lt.router_self_ns as f64 / 1e6 - injected_ms,
        Plane::Local { .. } => 0.0,
    };
    let (_, _, elements, encode_time) = facts;
    let (plain_best, _) = plain.best_pass(inp);
    let (traced_best, _) = ph.best_pass(inp);

    let mut m = Metrics(Vec::new());
    m.put(
        "client.self_ms_per_op",
        ratio(lt.read_op_self_ns as f64 / 1e6, lt.read_ops as f64),
        "ms",
    );
    m.put("client.evaluations_per_op", ratio(evals, reads), "count");
    m.put(
        "client.share_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.put("router.waves_per_op", ratio(waves, ops), "count");
    m.put(
        "router.shard_dispatches_per_wave",
        ratio((w1.shard_dispatches - w0.shard_dispatches) as f64, waves),
        "count",
    );
    m.put("router.ms_per_wave", ratio(router_ms, waves), "ms");
    let bytes = (w1.bytes_sent + w1.bytes_received - w0.bytes_sent - w0.bytes_received) as f64;
    m.put("wire.bytes_per_op", ratio(bytes, ops), "B");
    m.put(
        "transport.overhead_ms_per_wave",
        ratio(router_ms - injected_ms, waves),
        "ms",
    );
    m.put(
        "server.leg_ms_per_wave",
        ratio(lt.leg_ns as f64 / 1e6, waves),
        "ms",
    );
    m.put(
        "server.eval_cache_hit_ratio",
        ratio(server.eval_cache_hits as f64, server.evaluations as f64),
        "ratio",
    );
    m.put("fleet.self_ms_per_wave", ratio(fleet_self_ms, waves), "ms");
    m.put(
        "aggregate.closing_waves_per_agg",
        ratio(ph.closing_waves as f64, ph.aggs as f64),
        "count",
    );
    m.put("aggregate.conflict_retries", ph.retries as f64, "count");
    m.put(
        "encode.ns_per_element",
        ratio(encode_time.as_nanos() as f64, elements as f64),
        "ns",
    );
    m.put(
        "encode.insert_ms",
        ratio(ph.cost.encode.as_secs_f64() * 1e3, writes),
        "ms",
    );
    m.put(
        "store.apply_ms_per_write",
        ratio(lt.apply_ns as f64 / 1e6, writes),
        "ms",
    );
    m.put(
        "store.wal_ms_per_write",
        ratio(lt.wal_ns as f64 / 1e6, writes),
        "ms",
    );
    m.put(
        "store.wal_bytes_per_input_byte",
        ratio(ph.cost.wal_bytes as f64, ph.cost.input_bytes as f64),
        "B/B",
    );
    for (name, ns) in kernels::measure() {
        m.put(name, ns, "ns");
    }
    m.put(
        "trace.overhead_pct",
        ratio(traced_best - plain_best, plain_best) * 100.0,
        "%",
    );
    m.put(
        "trace.counters_equal",
        if counts_equal { 1.0 } else { 0.0 },
        "bool",
    );
    eprintln!(
        "perfbench: {} seed {} traced: {} passes, untraced {:.2} s (best pass {plain_best:.3} s), traced {:.2} s (best pass {traced_best:.3} s), {} spans",
        spec.name,
        args.seed,
        ph.passes,
        plain.wall.as_secs_f64(),
        ph.wall.as_secs_f64(),
        rec.spans().len()
    );
    Ok((m, ph, counts_equal))
}

fn run(args: &Args) -> Result<String, String> {
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let scratch = PathBuf::from(SCRATCH_DIR);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (map, _) = workload::secrets();
    let inp = workload::inputs(&spec, args.seed, &map).map_err(|e| e.to_string())?;
    let (metrics, ph, extra_ok) = if args.trace {
        per_layer(&spec, &inp, args, &scratch).map_err(|e| e.to_string())?
    } else {
        let (m, ph) = end_to_end(&spec, &inp, args, &scratch).map_err(|e| e.to_string())?;
        (m, ph, true)
    };
    let correct = extra_ok && ph.failed == 0 && ph.warmup_failed == 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ph.attempted,
        ph.failed,
        metrics.json()
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper-local|fleet-mux|ingest-mix> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
