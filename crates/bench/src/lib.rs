//! Shared helpers for the experiment binaries:
//! seeded random timestamp universes, a minimal fixed-width table
//! printer (so every experiment prints paper-style rows), and the harness
//! of the baseline-gated bins.
//!
//! # The baseline harness
//!
//! A baseline-gated bin (`hotpath`, `chaos`, `sharing`, `ingest`,
//! `recovery`, `partition`, `timewidth`) hands [`main`] two functions:
//! a full run, which measures and returns a [`Baseline`] that [`main`]
//! writes to `BENCH_<bench>.json`, and a smoke run, which re-measures at
//! reduced size and checks its gate conditions through a [`Gate`]
//! holding the committed baseline. The smoke run writes
//! `target/BENCH_<bench>_smoke.json`, prints one `smoke: FAIL — …` line
//! per failed condition and exits 1 if there was any.
//!
//! Every file has the same layout: the `bench`, `schema`, `mode` and
//! `threads` stamps, the bin's own stamps, then named arrays of flat
//! rows, one row per line. The reader parses exactly that layout, so a
//! baseline it cannot read fails the gate as malformed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use decs_core::{cts, pts, CompositeTimestamp, PrimitiveTimestamp, RawTimestampSet};
use decs_simnet::SplitMix64;
use std::fmt::Display;
use std::hint::black_box;
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

/// Deterministically sample a conforming primitive timestamp:
/// sites `< sites`, local ticks `< horizon`, global = local / 10.
fn random_primitive(rng: &mut SplitMix64, sites: u32, horizon: u64) -> PrimitiveTimestamp {
    let site = rng.next_below(u64::from(sites)) as u32 + 1;
    let local = rng.next_below(horizon);
    pts(site, local / 10, local)
}

/// Sample a normalized composite timestamp with up to `width` constituents.
pub fn random_composite(
    rng: &mut SplitMix64,
    sites: u32,
    horizon: u64,
    width: usize,
) -> CompositeTimestamp {
    let n = rng.next_range(1, width as u64) as usize;
    CompositeTimestamp::from_primitives((0..n).map(|_| random_primitive(rng, sites, horizon)))
}

/// Sample a *raw* (possibly non-maximal) timestamp set, as \[10\] would
/// carry.
pub fn random_raw_set(
    rng: &mut SplitMix64,
    sites: u32,
    horizon: u64,
    width: usize,
) -> RawTimestampSet {
    let n = rng.next_range(1, width as u64) as usize;
    RawTimestampSet::new((0..n).map(|_| random_primitive(rng, sites, horizon)))
}

/// A composite timestamp whose members all sit at distinct fresh sites
/// within one global tick around `g` (maximally concurrent).
pub fn concurrent_composite(base_site: u32, g: u64, width: usize) -> CompositeTimestamp {
    cts(&(0..width as u32)
        .map(|i| (base_site + i, g, g * 10 + u64::from(i)))
        .collect::<Vec<_>>())
}

/// Print a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        out.push_str(&format!("{c:<w$} "));
    }
    out.trim_end().to_string()
}

/// Print a table: header, separator, rows.
pub fn print_table(header: &[&str], widths: &[usize], rows: &[Vec<String>]) {
    println!(
        "{}",
        row(
            &header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
            widths
        )
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len();
    println!("{}", "─".repeat(total));
    for r in rows {
        println!("{}", row(r, widths));
    }
}

/// The parallelism of this machine: the `threads` stamp of every
/// baseline, and the proxy for "the same class of hardware".
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Best-of-3 wall-clock ns per call of `f`, after a warmup of `iters / 4`
/// calls.
pub fn time_ns<O>(iters: u64, mut f: impl FnMut() -> O) -> f64 {
    for _ in 0..iters / 4 {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// The median of `xs` (the upper middle one for an even count).
///
/// # Panics
///
/// If `xs` is empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One flat baseline row: fields and their JSON values, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(String, String)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Append a string field. The value must not contain a `"`.
    pub fn text(self, field: &str, value: &str) -> Self {
        debug_assert!(!value.contains('"'), "baseline strings are bare names");
        self.field(field, format!("\"{value}\""))
    }

    /// Append a field written as `Display` prints it (integers, booleans).
    pub fn field(mut self, field: &str, value: impl Display) -> Self {
        self.0.push((field.to_string(), value.to_string()));
        self
    }

    /// Append a float field with `decimals` digits after the point.
    pub fn fixed(self, field: &str, value: f64, decimals: usize) -> Self {
        self.field(field, format!("{value:.decimals$}"))
    }

    /// The value of `field` parsed as `T` (a string without its quotes);
    /// `None` if the row has no such field or it does not parse.
    pub fn get<T: FromStr>(&self, field: &str) -> Option<T> {
        let raw = &self.0.iter().find(|(f, _)| f == field)?.1;
        let unquoted = raw.strip_prefix('"').and_then(|r| r.strip_suffix('"'));
        unquoted.unwrap_or(raw).parse().ok()
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(f, v)| format!("\"{f}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Parse a `"field": value, …` list (a row without its braces).
    fn parse(mut list: &str) -> Option<Self> {
        let mut row = Row::new();
        while !list.is_empty() {
            let (field, rest) = list.strip_prefix('"')?.split_once("\": ")?;
            let end = match rest.strip_prefix('"') {
                Some(text) => text.find('"')? + 2,
                None => rest.find(',').unwrap_or(rest.len()),
            };
            let (value, rest) = rest.split_at(end);
            row.0.push((field.to_string(), value.to_string()));
            list = match rest.strip_prefix(", ") {
                Some(next) => next,
                None if rest.is_empty() => rest,
                None => return None,
            };
        }
        Some(row)
    }
}

/// The contents of a `BENCH_<bench>.json` file: stamps and named arrays
/// of rows. A bin's run builds one for [`main`] to write; the smoke
/// run parses the committed one.
#[derive(Debug, Default)]
pub struct Baseline {
    stamps: Row,
    arrays: Vec<(String, Vec<Row>)>,
}

impl Baseline {
    /// An empty baseline.
    pub fn new() -> Self {
        Baseline::default()
    }

    /// Append a stamp, written after `bench`, `schema`, `mode` and
    /// `threads`.
    pub fn stamp(mut self, field: &str, value: impl Display) -> Self {
        self.stamps = self.stamps.field(field, value);
        self
    }

    /// Append a named array of rows.
    pub fn array(mut self, name: &str, rows: impl IntoIterator<Item = Row>) -> Self {
        self.arrays
            .push((name.to_string(), rows.into_iter().collect()));
        self
    }

    /// The row of the array `name` whose identifying field `key` reads
    /// `id`.
    pub fn row(&self, name: &str, key: &str, id: &str) -> Option<&Row> {
        let (_, rows) = self.arrays.iter().find(|(n, _)| n == name)?;
        rows.iter()
            .find(|r| r.get::<String>(key).as_deref() == Some(id))
    }

    /// The file text, stamped with `bench`, `schema`, `mode` and this
    /// machine's [`threads`].
    pub fn render(&self, bench: &str, schema: u32, mode: &str) -> String {
        let header = Row::new()
            .text("bench", bench)
            .field("schema", schema)
            .text("mode", mode)
            .field("threads", threads());
        let stamps = header.0.iter().chain(&self.stamps.0);
        let mut entries: Vec<String> = stamps.map(|(f, v)| format!("  \"{f}\": {v}")).collect();
        for (name, rows) in &self.arrays {
            let mut lines = String::new();
            for (i, r) in rows.iter().enumerate() {
                let comma = if i + 1 < rows.len() { "," } else { "" };
                lines.push_str(&format!("    {}{comma}\n", r.render()));
            }
            entries.push(format!("  \"{name}\": [\n{lines}  ]"));
        }
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }

    /// Parse the layout [`Self::render`] writes; the `bench`, `schema`,
    /// `mode` and `threads` stamps are kept with the others. `Err` names
    /// the first line that does not fit.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut doc = Baseline::new();
        let mut open: Option<(String, Vec<Row>)> = None;
        for line in text.lines().map(str::trim) {
            let item = line.strip_suffix(',').unwrap_or(line);
            let parsed = if matches!(item, "{" | "}") {
                Some(())
            } else if item == "]" {
                open.take().map(|array| doc.arrays.push(array))
            } else if let Some((_, rows)) = &mut open {
                let list = item.strip_prefix('{').and_then(|i| i.strip_suffix('}'));
                list.and_then(Row::parse).map(|row| rows.push(row))
            } else if let Some(name) = item.strip_suffix(": [") {
                let name = name.strip_prefix('"').and_then(|n| n.strip_suffix('"'));
                name.map(|n| open = Some((n.to_string(), Vec::new())))
            } else {
                Row::parse(item).map(|mut stamp| doc.stamps.0.append(&mut stamp.0))
            };
            if parsed.is_none() {
                return Err(format!("unreadable line `{line}`"));
            }
        }
        match open {
            Some((name, _)) => Err(format!("array `{name}` is not closed")),
            None => Ok(doc),
        }
    }
}

/// A smoke run's view of the committed baseline (or why it could not be
/// read), and the failed conditions it has collected.
#[derive(Debug)]
pub struct Gate {
    baseline: Result<Baseline, String>,
    failures: Vec<String>,
}

impl Gate {
    /// Record a failed condition.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// `field` of the baseline row of array `name` whose `key` is `id`.
    /// A missing row or field is recorded as a malformed baseline; an
    /// unreadable baseline yields `None` for everything, its failure
    /// already recorded.
    pub fn baseline<T: FromStr>(
        &mut self,
        name: &str,
        key: &str,
        id: impl Display,
        field: &str,
    ) -> Option<T> {
        let id = id.to_string();
        let row = self.baseline.as_ref().ok()?.row(name, key, &id);
        let value = row.and_then(|r| r.get(field));
        if value.is_none() {
            self.fail(format!(
                "baseline is malformed (no {field} in the {name} row with {key} = {id})"
            ));
        }
        value
    }

    /// Whether absolute timings compare with the baseline's: it ran on a
    /// machine with this one's parallelism, or carries no `threads`
    /// stamp. On a mismatch a note is printed, and the caller enforces
    /// only machine-independent ratios.
    pub fn same_machine(&self) -> bool {
        let base = self.baseline.as_ref().ok();
        match base.and_then(|b| b.stamps.get::<usize>("threads")) {
            Some(t) if t != threads() => {
                eprintln!(
                    "smoke: note — baseline ran on {t} thread(s), this machine has {}; \
                     skipping absolute-time comparisons",
                    threads()
                );
                false
            }
            _ => true,
        }
    }
}

/// Run a baseline-gated bench. With `--smoke` among the arguments, run
/// `smoke` against the committed `BENCH_<bench>.json` in the current
/// directory, print one `smoke: FAIL — …` line per failed condition and
/// exit 1 if there was any, 0 otherwise; without it, run `full` and write
/// `BENCH_<bench>.json`. Both print the JSON they write.
pub fn main(
    bench: &str,
    schema: u32,
    full: impl FnOnce() -> Baseline,
    smoke: impl FnOnce(&mut Gate) -> Baseline,
) {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(run_smoke(bench, schema, Path::new("."), smoke));
    }
    let json = full().render(bench, schema, "full");
    let path = format!("BENCH_{bench}.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    print!("{json}");
    eprintln!("wrote {path}");
}

/// The smoke half of [`main`]: the baseline is `root/BENCH_<bench>.json`,
/// the output `root/target/BENCH_<bench>_smoke.json`. Returns the exit
/// code.
fn run_smoke(
    bench: &str,
    schema: u32,
    root: &Path,
    smoke: impl FnOnce(&mut Gate) -> Baseline,
) -> i32 {
    let path = root.join(format!("BENCH_{bench}.json"));
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text)
            .map_err(|why| format!("baseline is malformed ({}: {why})", path.display())),
        Err(_) => Err(format!("missing baseline {}", path.display())),
    };
    let mut gate = Gate {
        baseline,
        failures: Vec::new(),
    };
    let json = smoke(&mut gate).render(bench, schema, "smoke");
    let target = root.join("target");
    std::fs::create_dir_all(&target).ok();
    std::fs::write(target.join(format!("BENCH_{bench}_smoke.json")), &json).ok();
    print!("{json}");
    let failures = gate.baseline.err().into_iter().chain(gate.failures);
    let mut failed = false;
    for why in failures {
        eprintln!("smoke: FAIL — {why}");
        failed = true;
    }
    if !failed {
        eprintln!("smoke: OK");
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..50 {
            assert_eq!(
                random_composite(&mut a, 4, 200, 5),
                random_composite(&mut b, 4, 200, 5)
            );
        }
    }

    #[test]
    fn composite_generator_respects_invariant() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..200 {
            assert!(random_composite(&mut rng, 5, 300, 6).invariant_holds());
        }
    }

    #[test]
    fn concurrent_composite_is_fully_concurrent() {
        let c = concurrent_composite(10, 8, 4);
        assert_eq!(c.len(), 4);
        assert!(c.invariant_holds());
    }

    #[test]
    fn table_rows_align() {
        let r = row(&["ab".into(), "c".into()], &[4, 3]);
        assert_eq!(r, "ab   c");
    }

    #[test]
    fn write_then_read_preserves_every_row() {
        let rows = vec![
            Row::new()
                .text("name", "overlap_50")
                .field("match_clean", true)
                .fixed("speedup", 2.126, 2),
            Row::new()
                .text("name", "overlap_75")
                .field("match_clean", false)
                .fixed("speedup", 3.0, 2),
        ];
        let written = Baseline::new()
            .stamp("defs", 16)
            .array("rows", rows.clone())
            .array("empty", []);
        let read = Baseline::parse(&written.render("probe", 3, "full")).unwrap();
        assert_eq!(
            read.arrays,
            [("rows".into(), rows), ("empty".into(), vec![])]
        );
        let stamps = Row::new()
            .text("bench", "probe")
            .field("schema", 3)
            .text("mode", "full");
        let stamps = stamps.field("threads", threads()).field("defs", 16);
        assert_eq!(read.stamps, stamps);
        let row = read.row("rows", "name", "overlap_50").unwrap();
        assert_eq!(row.get::<f64>("speedup"), Some(2.13));
        assert_eq!(row.get::<bool>("match_clean"), Some(true));
        assert_eq!(row.get::<u64>("absent"), None);
        assert!(read.row("rows", "name", "overlap_0").is_none());
        for torn in [
            "{\n \"rows\": [\n",
            "{\"a\" 1}",
            "\"bench\": \"x\" \"y\"",
            "]",
        ] {
            assert!(Baseline::parse(torn).is_err(), "{torn}");
        }
    }

    /// Every committed baseline parses and yields every field its bin's
    /// smoke gate reads. One line per gated array: file, array,
    /// identifying field, row ids, gated fields.
    #[test]
    fn committed_baselines_yield_every_gated_field() {
        const GATED: &str = "\
            hotpath kernels name relation_band_separated_w4,relation_disjoint_sites_w4,relation_overlapping_w4,happens_before_band_separated_w4,max_op_disjoint_dominant_w4 fast_ns,speedup
            timewidth kernels name seq_inband_w2,relation_mixed_w2,any_join_w2,seq_inband_w8,relation_mixed_w8,any_join_w8,seq_inband_w32,relation_mixed_w32,any_join_w32,seq_inband_w128,relation_mixed_w128,any_join_w128 fast_ns,speedup
            chaos rows drop_ppm 0,10000,50000,200000 match_clean,detections
            chaos crash_rows schedule single_crash,crash_lossy,double_crash match_clean,rejoins
            sharing rows name overlap_0,overlap_25,overlap_50,overlap_75 speedup
            ingest rows name per_event,columnar meps,speedup_vs_per_event
            recovery rows snapshot_interval 0,16,4,1 match_clean,recovery_replayed
            partition rows replicas 1,2,4 match_single,relay_events,agg_keps";
        for line in GATED.lines() {
            let [bench, array, key, ids, fields] = line.split_whitespace().collect::<Vec<_>>()[..]
            else {
                panic!("bad table line {line}")
            };
            let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
            let doc = Baseline::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(doc.stamps.get::<String>("bench").as_deref(), Some(bench));
            assert!(doc.stamps.get::<usize>("threads").is_some(), "{path}");
            for id in ids.split(',') {
                let row = doc
                    .row(array, key, id)
                    .unwrap_or_else(|| panic!("{path}: {id}"));
                for field in fields.split(',') {
                    let number = row.get::<f64>(field).is_some();
                    assert!(
                        number || row.get::<bool>(field).is_some(),
                        "{path}: {id} {field}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_smoke_run_fails_on_a_missing_baseline_or_gated_row() {
        let root = std::env::temp_dir().join(format!("decs-bench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let committed = Row::new().field("replicas", 1).fixed("agg_keps", 800.0, 1);
        let committed = Baseline::new().array("rows", [committed]);
        std::fs::write(
            root.join("BENCH_probe.json"),
            committed.render("probe", 1, "full"),
        )
        .unwrap();
        std::fs::write(root.join("BENCH_torn.json"), "{\n  \"rows\": [\n").unwrap();
        let gate_on = |replicas: u32| {
            move |gate: &mut Gate| {
                gate.baseline::<f64>("rows", "replicas", replicas, "agg_keps");
                Baseline::new()
            }
        };
        assert_eq!(run_smoke("probe", 1, &root, gate_on(1)), 0);
        assert_eq!(run_smoke("probe", 1, &root, gate_on(4)), 1, "missing row");
        assert_eq!(run_smoke("absent", 1, &root, gate_on(1)), 1, "missing file");
        assert_eq!(run_smoke("torn", 1, &root, gate_on(1)), 1, "torn file");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
