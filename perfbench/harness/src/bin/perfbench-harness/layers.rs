//! The traced run: every layer's public calls made in-process, in the
//! order the CLI makes them, with a span around each call.
//!
//! The workload's own CLI stages are replayed at full size, so each stage
//! span can be set against the stage's wall time as a child process. Layers
//! the workload's stages do not reach are probed: the streamed and sharded
//! drivers and the incremental index on a probe corpus of `PROBE_KEYS` of
//! its moduli, picked from the generator's truth so the planted pairs are
//! in it; key generation on a corpus of its own. So every traced run
//! reports every layer metric.

use crate::trace::Tracer;
use crate::{chunk_budget, threads, Args, Workload};
use bulk_gcd::bigint::prime::random_rsa_prime;
use bulk_gcd::bigint::Nat;
use bulk_gcd::bulk::{
    batch_gcd, batch_gcd_parallel, break_weak_keys, recover_keys, run_sharded, write_arena,
    ArenaSource, AutoBackend, CompactionConfig, CorpusIndex, Finding, LockstepBackend, ModuliArena,
    ProductTree, ProductTreeBackend, ScanMetrics, ScanPipeline, ShardConfig, ShardFaultPlan,
    DEFAULT_LAUNCH_PAIRS,
};
use bulk_gcd::core::{
    run_in_place, Algorithm, GcdPair, NoProbe, RankSelect, StatsProbe, Termination,
};
use bulk_gcd::rsa::{build_corpus, generate_keypair, PublicKey, StreamingSanitizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Size of the probe corpus the layers outside a workload's stages run on.
const PROBE_KEYS: usize = 256;
/// Pairs in the single-thread AEA sample.
const CORE_PAIRS: usize = 256;
/// Keys and planted pairs of the key-generation probe's `build_corpus`.
const PROBE_CORPUS_KEYS: usize = 32;
const PROBE_CORPUS_WEAK: usize = 2;
/// `check_and_insert` calls of the index probe.
const PROBE_INSERTS: usize = 10;

/// What the replay found wrong, counted into the run's `failed`.
#[derive(Default)]
struct Oracle {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Oracle {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what.to_string());
        }
    }
}

#[derive(Default)]
struct Out {
    metrics: BTreeMap<&'static str, f64>,
    stages: BTreeMap<&'static str, f64>,
}

impl Out {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A JSON object of named seconds (or counts).
fn json_map<K: std::fmt::Display>(values: &BTreeMap<K, f64>) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.9}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Findings rendered as the CLI prints them, in raw-index numbering.
fn render(findings: &[Finding], acceptance: &RankSelect) -> String {
    let mut out = String::new();
    if findings.is_empty() {
        out.push_str("no shared factors found\n");
    }
    for f in findings {
        let i = acceptance.select1(f.i).expect("finding row is accepted");
        let j = acceptance.select1(f.j).expect("finding row is accepted");
        writeln!(out, "{i} {j} {}", f.factor.to_hex()).expect("writing to a String");
    }
    out
}

/// The CLI's ingest path, split at its layer boundaries.
fn ingest(
    t: &mut Tracer,
    path: &Path,
    min_bits: u64,
) -> Result<(Vec<Nat>, RankSelect, f64, f64), String> {
    let (text, _) = t.time("ingest.read", |_| std::fs::read_to_string(path));
    let text = text.map_err(|e| format!("reading {}: {e}", path.display()))?;
    let (parsed, parse_s) = t.time("ingest.parse", |_| {
        text.lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .filter(|l| !l.is_empty())
            .map(Nat::from_hex)
            .collect::<Result<Vec<Nat>, _>>()
    });
    let parsed = parsed.map_err(err)?;
    let ((moduli, report), sanitize_s) = t.time("ingest.sanitize", |_| {
        let mut s = StreamingSanitizer::new(min_bits);
        for n in parsed {
            s.push(n);
        }
        s.finish()
    });
    Ok((moduli, report.acceptance, parse_s, sanitize_s))
}

fn scan_with(
    t: &mut Tracer,
    span: &str,
    arena: &ModuliArena,
    backend: impl bulk_gcd::bulk::ScanBackend,
) -> Result<(Vec<Finding>, ScanMetrics, f64), String> {
    let (rep, secs) = t.time(span, |_| {
        ScanPipeline::new(arena).backend(backend).metrics().run()
    });
    let rep = rep.map_err(err)?;
    let metrics = rep.metrics.expect("metrics layer enabled");
    Ok((rep.scan.findings, metrics, secs))
}

fn lockstep() -> LockstepBackend {
    LockstepBackend::new(32).with_compaction(CompactionConfig::default())
}

/// Line and byte counts of the records in a shard directory's journals
/// (every line after each file's magic and header lines).
fn journal_totals(dir: &Path) -> Result<(f64, f64), String> {
    let mut records = 0usize;
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let path = entry.map_err(err)?.path();
        let text = std::fs::read_to_string(&path).map_err(err)?;
        records += text.lines().count().saturating_sub(2);
        bytes += text.len() as u64;
    }
    Ok((records as f64, bytes as f64))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(err)?;
    }
    std::fs::create_dir_all(path).map_err(err)
}

/// A compiled arena of `moduli` (all accepted) at `path`.
fn write_all_accepted(path: &Path, moduli: &[Nat]) -> Result<(ModuliArena, RankSelect), String> {
    let mut s = StreamingSanitizer::new(0);
    for n in moduli {
        s.push(n.clone());
    }
    let (accepted, report) = s.finish();
    let arena = ModuliArena::try_from_moduli(&accepted).map_err(err)?;
    write_arena(path, &arena, &report.acceptance, 0).map_err(err)?;
    Ok((arena, report.acceptance))
}

struct Ctx {
    workload: &'static Workload,
    /// Modulus width; also the ingest floor (`--min-bits`).
    bits: u64,
    dir: PathBuf,
    seed: u64,
}

pub fn cmd(args: &Args) -> Result<String, String> {
    let workload = crate::workload(args.req("workload")?)?;
    let cx = Ctx {
        workload,
        bits: workload.shape.bits,
        dir: PathBuf::from(args.req("dir")?),
        seed: args.num("seed", 1)?,
    };
    let mut t = Tracer::new(args.get("run").unwrap_or(workload.name));
    let mut out = Out::default();
    let mut oracle = Oracle::default();
    let wall = Instant::now();
    let auto_backend = run_layers(&cx, &mut t, &mut out, &mut oracle)?;
    let wall_s = wall.elapsed().as_secs_f64();

    let overhead = t.overhead_s();
    out.set("trace.overhead_frac", overhead / (wall_s - overhead));
    let trace_out = PathBuf::from(args.req("trace-out")?);
    std::fs::write(&trace_out, t.to_chrome_json(2)).map_err(err)?;

    let json = format!(
        "{{\"metrics\": {}, \"stages\": {}, \"self_s\": {}, \"auto_backend\": \"{auto_backend}\", \"spans\": {}, \"attempted\": {}, \"failed\": {}, \"notes\": {:?}}}",
        json_map(&out.metrics),
        json_map(&out.stages),
        json_map(&t.self_time_by_layer()),
        t.span_count(),
        oracle.attempted,
        oracle.failed,
        oracle.notes.join("; ")
    );
    Ok(json)
}

/// Replay the workload's stages, then probe the remaining layers. Returns
/// the backend `AutoBackend` resolved to on the scanned corpus.
fn run_layers(
    cx: &Ctx,
    t: &mut Tracer,
    out: &mut Out,
    oracle: &mut Oracle,
) -> Result<String, String> {
    let w = cx.workload;
    let corpus = cx.dir.join("corpus.txt");
    let truth = std::fs::read_to_string(cx.dir.join("truth.txt")).map_err(err)?;
    let arena_path = cx.dir.join("trace.arena");

    // `bulkgcd ingest corpus.txt --out corpus.arena --min-bits B`.
    let stage = t.enter("stage.ingest");
    let (moduli, acceptance, parse_s, sanitize_s) = ingest(t, &corpus, cx.bits)?;
    let (arena, build_s) = t.time("arena.build", |_| ModuliArena::try_from_moduli(&moduli));
    let arena = arena.map_err(err)?;
    let (header, write_s) = t.time("store.write", |_| {
        write_arena(&arena_path, &arena, &acceptance, cx.bits)
    });
    header.map_err(err)?;
    out.stages.insert("ingest", t.exit(stage));
    out.set("ingest.parse_s", parse_s);
    out.set("ingest.sanitize_s", sanitize_s);
    out.set(
        "ingest.accept_ratio",
        moduli.len() as f64 / acceptance.len() as f64,
    );
    out.set("arena.build_s", build_s);
    out.set("store.write_s", write_s);

    // `bulkgcd scan corpus.arena --arena --engine auto`.
    let stage = t.enter("stage.scan");
    let (src, open_s) = t.time("store.open", |_| ArenaSource::open(&arena_path));
    let mut src = src.map_err(err)?;
    let (loaded, load_s) = t.time("store.load", |_| src.load_arena());
    let loaded = loaded.map_err(err)?;
    let (findings, metrics, auto_s) = scan_with(t, "scan.auto", &loaded, AutoBackend::new(32))?;
    out.stages.insert("scan", t.exit(stage));
    oracle.check(
        "auto scan findings",
        render(&findings, src.acceptance()) == truth,
    );
    out.set("store.open_s", open_s);
    out.set("store.load_s", load_s);
    let busy = metrics.total_host_seconds();
    out.set("scan.auto_s", auto_s);
    out.set("scan.busy_s", busy);
    out.set("scan.parallel_eff", busy / (auto_s * threads() as f64));
    out.set("scan.launches", metrics.total_launches as f64);
    let auto_name = metrics.backend.to_string();

    // The probe corpus and its truth, both from the generator's truth.
    let probe = Probe::pick(&truth, &acceptance, moduli.len())?;
    let probe_moduli: Vec<Nat> = probe.rows.iter().map(|&r| moduli[r].clone()).collect();
    let probe_path = cx.dir.join("probe.arena");
    let (probe_arena, probe_acceptance) = write_all_accepted(&probe_path, &probe_moduli)?;
    let probe_truth = probe.truth();

    // `bulkgcd scan corpus.arena --arena --chunk-limbs N` (pairs), or the
    // same budget share over the probe corpus.
    {
        let own = w.has("scan_chunked");
        let (path, budget, expect) = if own {
            (
                &arena_path,
                chunk_budget(arena.len(), arena.stride()),
                &truth,
            )
        } else {
            let budget = chunk_budget(probe_arena.len(), probe_arena.stride());
            (&probe_path, budget, &probe_truth)
        };
        let stage = own.then(|| t.enter("stage.scan_chunked"));
        let (src, _) = t.time("store.open", |_| ArenaSource::open(path));
        let mut src = src.map_err(err)?;
        let (rep, secs) = t.time("store.chunked_scan", |_| {
            src.scan_chunked(Algorithm::Approximate, true, budget)
        });
        let rep = rep.map_err(err)?;
        if let Some(stage) = stage {
            out.stages.insert("scan_chunked", t.exit(stage));
        }
        oracle.check(
            "chunked scan findings",
            render(&rep.findings, src.acceptance()) == *expect,
        );
        let rows = (budget / src.stride().max(1)).max(1);
        let windows = src.rows().div_ceil(rows);
        out.set("store.chunked_scan_s", secs);
        out.set("store.window_loads", (windows * (windows + 1) / 2) as f64);
    }

    // `bulkgcd scan corpus.arena --arena --engine lockstep --shards 2
    // --shard-dir DIR` (pairs), or the same over the probe corpus.
    {
        let own = w.has("scan_sharded");
        let (path, acc, expect) = if own {
            (&arena_path, &acceptance, &truth)
        } else {
            (&probe_path, &probe_acceptance, &probe_truth)
        };
        let shard_dir = cx.dir.join("trace-shards");
        fresh_dir(&shard_dir)?;
        let stage = own.then(|| t.enter("stage.scan_sharded"));
        let (src, _) = t.time("store.open", |_| ArenaSource::open(path));
        let mut src = src.map_err(err)?;
        let (loaded, _) = t.time("store.load", |_| src.load_arena());
        let loaded = loaded.map_err(err)?;
        let mut config = ShardConfig::new(2, DEFAULT_LAUNCH_PAIRS);
        config.dir = Some(shard_dir.clone());
        let (rep, secs) = t.time("shard.run", |_| {
            run_sharded(&loaded, &config, &ShardFaultPlan::none(), lockstep)
        });
        let rep = rep.map_err(err)?;
        if let Some(stage) = stage {
            out.stages.insert("scan_sharded", t.exit(stage));
        }
        oracle.check(
            "sharded scan findings",
            render(&rep.scan.findings, acc) == *expect,
        );
        // The same backend unsharded on the same corpus.
        let (_, _, unsharded_s) = scan_with(t, "shard.unsharded", &loaded, lockstep())?;
        let (records, bytes) = journal_totals(&shard_dir)?;
        out.set("shard.run_s", secs);
        out.set("shard.overhead_ratio", secs / unsharded_s);
        out.set(
            "shard.executed_launches",
            rep.stats.executed_launches as f64,
        );
        out.set("shard.worker_attempts", rep.stats.worker_attempts as f64);
        out.set("shard.journal_records", records);
        out.set("shard.journal_bytes", bytes);
    }

    // `bulkgcd break corpus.txt --min-bits B`: its own ingest, then
    // break_weak_keys. Its scan is the scalar backend on the corpus, so it
    // doubles as scan.scalar_s.
    let stage = t.enter("stage.break");
    let (keys_moduli, _, _, _) = ingest(t, &corpus, cx.bits)?;
    let (keys, _) = t.time("break.keys", |_| {
        keys_moduli
            .iter()
            .map(|n| PublicKey {
                n: n.clone(),
                e: Nat::from_u64(65_537),
            })
            .collect::<Vec<_>>()
    });
    let (rep, _) = t.time("break.run", |_| {
        break_weak_keys(&keys, Algorithm::Approximate)
    });
    let rep = rep.map_err(err)?;
    out.stages.insert("break", t.exit(stage));
    let scalar_s = rep.scan.elapsed.as_secs_f64();
    oracle.check(
        "break scan findings",
        render(&rep.scan.findings, &acceptance) == truth,
    );
    let vulnerable: std::collections::BTreeSet<usize> =
        rep.scan.findings.iter().flat_map(|f| [f.i, f.j]).collect();
    oracle.check(
        "every vulnerable key broken",
        rep.broken.iter().map(|b| b.index).collect::<Vec<_>>()
            == vulnerable.iter().copied().collect::<Vec<_>>(),
    );
    let (recovered, recover_s) = t.time("attack.recover", |_| {
        recover_keys(&keys, &rep.scan.findings)
    });
    oracle.check("recover_keys matches break", recovered == rep.broken);
    out.set("break.scan_s", scalar_s);
    out.set("attack.recover_ms", recover_s * 1e3);

    // The fixed backends on the same corpus.
    let (findings, metrics, lockstep_s) =
        scan_with(t, "scan.lockstep_compact", &arena, lockstep())?;
    oracle.check("lockstep findings", render(&findings, &acceptance) == truth);
    out.set(
        "lockstep.occupancy",
        metrics.mean_occupancy().unwrap_or(0.0),
    );
    out.set("lockstep.compactions", metrics.total_compactions() as f64);
    out.set("lockstep.refills", metrics.total_refills() as f64);
    let (findings, _, tree_s) = scan_with(
        t,
        "scan.product_tree",
        &arena,
        ProductTreeBackend { parallel: true },
    )?;
    oracle.check(
        "product-tree findings",
        render(&findings, &acceptance) == truth,
    );
    out.set("scan.scalar_s", scalar_s);
    out.set("scan.lockstep_compact_s", lockstep_s);
    out.set("scan.product_tree_s", tree_s);
    out.set(
        "scan.auto_regret",
        auto_s / scalar_s.min(lockstep_s).min(tree_s),
    );

    // Single-thread AEA over a fixed sample of the corpus's pairs.
    core_sample(t, out, &arena);

    // Batch GCD and the bigint calls under it.
    let (tree, secs) = t.time("batch.tree_build", |_| ProductTree::build(&moduli));
    out.set("batch.tree_build_s", secs);
    let (par, par_s) = t.time("batch.gcd_parallel", |_| batch_gcd_parallel(&moduli));
    let (ser, ser_s) = t.time("batch.gcd_serial", |_| batch_gcd(&moduli));
    oracle.check("batch_gcd parallel matches serial", par == ser);
    out.set("batch.gcd_parallel_s", par_s);
    out.set("batch.parallel_speedup", ser_s / par_s);
    // Candidates n + 2 do not divide the root, so `P mod n` and the GCD
    // after it do the work of a check against a fresh key.
    let (mut rem_s, mut gcd_s) = (Vec::new(), Vec::new());
    for n in moduli.iter().take(9) {
        let n = n.add(&Nat::from_u64(2));
        let (r, secs) = t.time("bigint.root_rem", |_| tree.root().rem(&n));
        rem_s.push(secs);
        let (_, secs) = t.time("bigint.gcd_ref", |_| r.gcd_reference(&n));
        gcd_s.push(secs);
    }
    out.set("bigint.root_rem_us", median(&mut rem_s) * 1e6);
    out.set("bigint.gcd_ref_us", median(&mut gcd_s) * 1e6);

    index_probe(t, out, oracle, &probe_moduli, &probe)?;
    keygen_probe(t, out, oracle, cx);
    Ok(auto_name)
}

/// The probe corpus: `PROBE_KEYS` accepted rows of the workload's corpus,
/// in the order the index probe uses them. The first `indexed` rows build
/// the index and the rest are checked against it; the first
/// `PROBE_INSERTS` checked rows are then inserted in order. The planted
/// pairs are laid out so each kind of answer depends on the truth:
/// most pairs straddle the two halves, so checks and inserts of their
/// second key find the first; the rest (a quarter, at least one) sit
/// wholly among the inserted rows, one key right after the other, so an
/// insert's answer depends on an earlier insert.
struct Probe {
    rows: Vec<usize>,
    indexed: usize,
    /// Planted pairs as probe positions `(i, j, shared prime)`, `i < j`,
    /// sorted.
    pairs: Vec<(usize, usize, Nat)>,
}

impl Probe {
    fn pick(truth: &str, acceptance: &RankSelect, m: usize) -> Result<Probe, String> {
        let mut planted = Vec::new();
        for line in truth.lines().filter(|l| !l.starts_with("no ")) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [i, j, p] = f[..] else {
                return Err(format!("malformed truth line {line:?}"));
            };
            let row = |raw: &str| -> Result<usize, String> {
                let raw: usize = raw.parse().map_err(err)?;
                if !acceptance.get(raw) {
                    return Err(format!("truth names rejected raw line {raw}"));
                }
                Ok(acceptance.rank1(raw))
            };
            planted.push((row(i)?, row(j)?, Nat::from_hex(p).map_err(err)?));
        }
        let in_pairs = |r: usize| planted.iter().any(|&(a, b, _)| r == a || r == b);
        let mut fill = (0..m).filter(|&r| !in_pairs(r));
        let inserted_pairs = (planted.len() / 4).max(1).min(planted.len());
        let (straddle, inserted) = planted.split_at(planted.len() - inserted_pairs);

        let mut rows: Vec<usize> = straddle.iter().map(|p| p.0).collect();
        let total = PROBE_KEYS.min(m);
        rows.extend(fill.by_ref().take((total / 2).saturating_sub(rows.len())));
        let indexed = rows.len();
        for k in 0..straddle.len().max(inserted.len()) {
            rows.extend(inserted.get(k).map(|p| p.0));
            rows.extend(straddle.get(k).map(|p| p.1));
            rows.extend(inserted.get(k).map(|p| p.1));
        }
        rows.extend(fill.take(total.saturating_sub(rows.len())));

        let at = |r: usize| rows.iter().position(|&x| x == r);
        let mut pairs: Vec<(usize, usize, Nat)> = planted
            .iter()
            .filter_map(|(a, b, p)| {
                let (a, b) = (at(*a)?, at(*b)?);
                Some((a.min(b), a.max(b), p.clone()))
            })
            .collect();
        pairs.sort_unstable_by_key(|p| (p.0, p.1));
        Ok(Probe {
            rows,
            indexed,
            pairs,
        })
    }

    /// The expected findings over the probe corpus, as the CLI prints them.
    fn truth(&self) -> String {
        let mut out = String::new();
        if self.pairs.is_empty() {
            out.push_str("no shared factors found\n");
        }
        for (i, j, p) in &self.pairs {
            writeln!(out, "{i} {j} {}", p.to_hex()).expect("writing to a String");
        }
        out
    }

    /// The answer for the key at position `j` against an index holding
    /// positions `0..indexed`: the product of the primes it shares with
    /// them.
    fn expected(&self, j: usize, indexed: usize) -> Nat {
        self.pairs
            .iter()
            .filter(|&&(a, b, _)| b == j && a < indexed)
            .fold(Nat::one(), |acc, (_, _, p)| acc.mul(p))
    }
}

/// `CorpusIndex` over the probe corpus's first `indexed` keys:
/// `shared_factor` for every other key, then `check_and_insert` for the
/// first `PROBE_INSERTS` of them in order. Each answer must be the
/// product of the primes the key shares with keys already indexed, as the
/// generator's truth gives it. The probe must meet a planted key in a
/// check and an answer that only an earlier insert explains, or it counts
/// as a failure: an oracle that only ever sees 1 proves nothing.
fn index_probe(
    t: &mut Tracer,
    out: &mut Out,
    oracle: &mut Oracle,
    moduli: &[Nat],
    probe: &Probe,
) -> Result<(), String> {
    let half = probe.indexed;
    let (index, secs) = t.time("index.build", |_| CorpusIndex::from_moduli(&moduli[..half]));
    let mut index = index.map_err(err)?;
    out.set("index.build_s", secs);
    let mut check = Vec::new();
    let mut shared_checks = 0;
    for (j, n) in moduli.iter().enumerate().skip(half) {
        let (g, secs) = t.time("index.check", |_| index.shared_factor(n));
        let expected = probe.expected(j, half);
        shared_checks += usize::from(!expected.is_one() && g.as_ref() == Ok(&expected));
        oracle.check("index check answer", g == Ok(expected));
        check.push(secs);
    }
    let mut insert = Vec::new();
    let mut after_insert = 0;
    for (j, n) in moduli.iter().enumerate().skip(half).take(PROBE_INSERTS) {
        let (g, secs) = t.time("index.insert", |_| index.check_and_insert(n));
        let expected = probe.expected(j, j);
        after_insert +=
            usize::from(probe.expected(j, half) != expected && g.as_ref() == Ok(&expected));
        oracle.check("index insert answer", g == Ok(expected));
        insert.push(secs);
    }
    oracle.check("an index check meets a planted key", shared_checks > 0);
    oracle.check(
        "an index insert answer depends on an earlier insert",
        after_insert > 0,
    );
    out.set("index.check_us", median(&mut check) * 1e6);
    out.set("index.insert_ms", median(&mut insert) * 1e3);
    Ok(())
}

/// Key generation at the workload's width: single primes and keypairs,
/// then `build_corpus` and, timed on its own, the all-pairs
/// `gcd_reference` pass it ends with. (`corpus_s − K × keypair_ms`
/// estimates the same time, but the spread of single keypair times swamps
/// it at small K.)
fn keygen_probe(t: &mut Tracer, out: &mut Out, oracle: &mut Oracle, cx: &Ctx) {
    let mut rng = StdRng::seed_from_u64(cx.seed);
    let mut prime_s = Vec::new();
    for _ in 0..5 {
        let (_, secs) = t.time("keygen.prime", |_| random_rsa_prime(&mut rng, cx.bits / 2));
        prime_s.push(secs);
    }
    let mut pair_s = Vec::new();
    for _ in 0..3 {
        let (_, secs) = t.time("keygen.keypair", |_| generate_keypair(&mut rng, cx.bits));
        pair_s.push(secs);
    }
    let (corpus, corpus_s) = t.time("keygen.corpus", |_| {
        build_corpus(&mut rng, PROBE_CORPUS_KEYS, cx.bits, PROBE_CORPUS_WEAK)
    });
    let moduli = corpus.moduli();
    let (found, truth_s) = t.time("keygen.truth", |_| {
        let mut found = 0;
        for (i, a) in moduli.iter().enumerate() {
            found += moduli[i + 1..]
                .iter()
                .filter(|b| !a.gcd_reference(b).is_one())
                .count();
        }
        found
    });
    oracle.check("keygen truth pairs", found == PROBE_CORPUS_WEAK);
    out.set("keygen.prime_ms", median(&mut prime_s) * 1e3);
    out.set("keygen.keypair_ms", median(&mut pair_s) * 1e3);
    out.set("keygen.corpus_s", corpus_s);
    out.set("keygen.truth_s", truth_s);
}

fn core_sample(t: &mut Tracer, out: &mut Out, arena: &ModuliArena) {
    let m = arena.len();
    let pairs: Vec<(usize, usize)> = (0..CORE_PAIRS)
        .map(|k| ((2 * k) % m, (2 * k + 1) % m))
        .filter(|(i, j)| i != j)
        .collect();
    let term = |i: usize, j: usize| Termination::Early {
        threshold_bits: arena.bit_len(i).min(arena.bit_len(j)) / 2,
    };
    let mut pair = GcdPair::with_capacity(arena.stride());
    let (_, secs) = t.time("core.aea_sample", |_| {
        for &(i, j) in &pairs {
            pair.load_from_limbs(arena.limbs(i), arena.limbs(j));
            std::hint::black_box(run_in_place(
                Algorithm::Approximate,
                &mut pair,
                term(i, j),
                &mut NoProbe,
            ));
        }
    });
    let mut probe = StatsProbe::default();
    for &(i, j) in &pairs {
        pair.load_from_limbs(arena.limbs(i), arena.limbs(j));
        run_in_place(Algorithm::Approximate, &mut pair, term(i, j), &mut probe);
    }
    let n = pairs.len().max(1) as f64;
    out.set("core.aea_ns_per_pair", secs * 1e9 / n);
    out.set(
        "core.iterations_per_pair",
        probe.stats.iterations as f64 / n,
    );
    out.set(
        "core.beta_nonzero_frac",
        probe.stats.beta_nonzero as f64 / probe.stats.iterations.max(1) as f64,
    );
}
