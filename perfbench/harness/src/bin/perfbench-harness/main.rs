//! `perfbench-harness`: the in-process half of the weak-key audit
//! benchmark. `perfbench/run.py` drives it; every subcommand prints one
//! JSON object on stdout.
//!
//! ```text
//! perfbench-harness workloads
//! perfbench-harness gen      --workload NAME --seed S --out DIR --pool-dir DIR
//! perfbench-harness selftest --seed S --out DIR
//! perfbench-harness layers   --workload NAME --seed S --dir DIR --trace-out FILE [--run ID]
//! perfbench-harness calibrate --reps N
//! ```

mod calib;
mod gen;
mod layers;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One benchmark workload: its corpus and the CLI stages of a pass.
pub struct Workload {
    pub name: &'static str,
    pub shape: gen::Shape,
    /// CLI stages of one pass, in order (`run.py` runs them as children).
    pub stages: &'static [&'static str],
}

impl Workload {
    pub fn has(&self, stage: &str) -> bool {
        self.stages.contains(&stage)
    }

    /// Limb budget of the chunked scan (`--chunk-limbs`) over this
    /// workload's corpus, whose accepted rows are its `keys` distinct moduli.
    pub fn chunk_limbs(&self) -> usize {
        chunk_budget(self.shape.keys, self.shape.bits.div_ceil(32) as usize)
    }
}

/// The chunked scan's budget: an eighth of the arena payload.
pub fn chunk_budget(rows: usize, stride: usize) -> usize {
    (rows * stride / 8).max(1)
}

/// The benchmark's workloads, the one table `run.py`, the generator and the
/// traced run all read.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "audit-2k",
        shape: gen::Shape {
            keys: 2048,
            bits: 256,
            weak_pairs: 8,
            duplicate_share: 0.02,
        },
        stages: &["ingest", "scan", "break"],
    },
    Workload {
        name: "pairs-256",
        shape: gen::Shape {
            keys: 256,
            bits: 1024,
            weak_pairs: 8,
            duplicate_share: 0.02,
        },
        stages: &["ingest", "scan", "scan_chunked", "scan_sharded", "break"],
    },
];

pub fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} {v:?}")),
        }
    }
}

/// Rayon's pool size in this process (the thread cap the benchmark sets).
pub fn threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn write_files(dir: &Path, files: &[(&str, String)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, text) in files {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

fn cmd_workloads() -> Result<String, String> {
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let stages: Vec<String> = w.stages.iter().map(|s| format!("\"{s}\"")).collect();
            format!(
                "{{\"name\": \"{}\", \"keys\": {}, \"bits\": {}, \"stages\": [{}], \"chunk_limbs\": {}}}",
                w.name,
                w.shape.keys,
                w.shape.bits,
                stages.join(", "),
                w.chunk_limbs()
            )
        })
        .collect();
    Ok(format!("{{\"workloads\": [{}]}}", rows.join(", ")))
}

fn cmd_gen(args: &Args) -> Result<String, String> {
    let shape = workload(args.req("workload")?)?.shape;
    let seed: u64 = args.num("seed", 1)?;
    let out = PathBuf::from(args.req("out")?);
    // One pool per prime width, sized for the largest corpus drawing on it,
    // so every workload of that width shares one cached file.
    let count = WORKLOADS
        .iter()
        .filter(|w| w.shape.bits == shape.bits)
        .map(|w| 2 * w.shape.keys)
        .max()
        .unwrap_or(0);
    let half = shape.bits / 2;
    let pool_path = Path::new(args.req("pool-dir")?).join(gen::pool_file(half));
    let pool = gen::cached_pool(&pool_path, count, half, threads())?;
    let generated = gen::generate(seed, shape, &pool);
    write_files(&out, &generated)?;
    Ok(format!(
        "{{\"keys\": {}, \"bits\": {}}}",
        shape.keys, shape.bits
    ))
}

fn cmd_selftest(args: &Args) -> Result<String, String> {
    let out = PathBuf::from(args.req("out")?);
    let shape = gen::Shape {
        keys: 24,
        bits: 128,
        weak_pairs: 3,
        duplicate_share: 0.1,
    };
    let generated = gen::generate(args.num("seed", 1)?, shape, &gen::selftest_pool());
    write_files(&out, &generated)?;
    Ok("{}".into())
}

fn cmd_calibrate(args: &Args) -> Result<String, String> {
    let samples: Vec<String> = calib::run(args.num("reps", 3)?)
        .iter()
        .map(|s| format!("{s:e}"))
        .collect();
    Ok(format!("{{\"samples_s\": [{}]}}", samples.join(", ")))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args(argv);
    let result = match args.0.first().map(String::as_str) {
        Some("workloads") => cmd_workloads(),
        Some("gen") => cmd_gen(&args),
        Some("selftest") => cmd_selftest(&args),
        Some("layers") => layers::cmd(&args),
        Some("calibrate") => cmd_calibrate(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
