//! Per-run preparation, shared by the end-to-end and the traced pass:
//! pack the workload's cities with the real `pack_city`, load them
//! in-process, make the corpus from the seed, and compute the reference
//! answer for every trip before anything is timed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, City, Input, Request};
use crate::check::{self, Expected};
use crate::corpus::{self, Item};
use crate::spec::{Shape, Workload, CORPUS_TRIPS};

/// Where the binaries are and where a run may write.
pub struct Dirs {
    /// Holds `serve_http` and `pack_city`, next to this executable.
    pub bin: PathBuf,
    /// `benchmark/out`: artifacts, server logs, traces, result files.
    pub out: PathBuf,
    /// `benchmark/golden`: committed seed-0 reference digests.
    pub golden: PathBuf,
}

impl Dirs {
    /// The benchmark runs from the root of a checkout.
    pub fn locate() -> Result<Self, String> {
        if !Path::new("BENCHMARK.json").is_file() {
            return Err("run from the repository root (no BENCHMARK.json here)".into());
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe
            .parent()
            .ok_or("executable has no parent")?
            .to_path_buf();
        for name in ["serve_http", "pack_city"] {
            if !bin.join(name).is_file() {
                return Err(format!(
                    "{} not built next to {}; use benchmark/run.sh",
                    name,
                    exe.display()
                ));
            }
        }
        let out = PathBuf::from("benchmark/out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        Ok(Self {
            bin,
            out,
            golden: PathBuf::from("benchmark/golden"),
        })
    }
}

pub struct Prepared {
    pub workload: &'static Workload,
    pub seed: u64,
    pub artifacts: Vec<PathBuf>,
    /// Wall time of the `pack_city` children, all shards.
    pub pack_s: f64,
    pub cities: Vec<City>,
    pub items: Vec<Item>,
    /// Parsed wire requests, parallel to `items`.
    pub requests: Vec<Request>,
    /// Extracted model inputs, parallel to `items`.
    pub inputs: Vec<Input>,
    /// Reference answers, parallel to `items`.
    pub expected: Vec<Expected>,
    /// The order trips are sent in (cycled).
    pub order: Vec<usize>,
    /// Agreement with the committed seed-0 digests; `None` off seed 0.
    pub golden_agreement: Option<f64>,
}

impl Prepared {
    pub fn streams(&self) -> bool {
        matches!(self.workload.shape, Shape::OpenStream { .. })
    }

    pub fn golden_path(dirs: &Dirs, w: &Workload) -> PathBuf {
        dirs.golden.join(format!("{}.seed0.digests", w.name))
    }

    /// `(reference digests file contents)` for `--write-golden`.
    pub fn render_golden(&self) -> String {
        check::render_golden(
            &format!(
                "{} seed 0, kernel backend {}: FNV-1a of each trip's reference (segments, f32 rate bits)",
                self.workload.name,
                adapter::kernel_backend()
            ),
            self.expected.iter().map(|e| &e.reference),
        )
    }
}

pub fn prepare(w: &'static Workload, seed: u64, dirs: &Dirs) -> Result<Prepared, String> {
    let work = dirs.out.join(w.name);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let mut artifacts = Vec::new();
    let packing = Instant::now();
    for shard in w.shards {
        let path = work.join(format!("{}.rnta", shard.city));
        let output = adapter::pack_command(&dirs.bin, shard, &path)
            .output()
            .map_err(|e| format!("pack_city: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "pack_city failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        artifacts.push(path);
    }
    let pack_s = packing.elapsed().as_secs_f64();

    let cities = artifacts
        .iter()
        .map(|p| City::load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let items = corpus::build(w, seed, &cities);
    debug_assert_eq!(items.len(), CORPUS_TRIPS);

    let streams = matches!(w.shape, Shape::OpenStream { .. });
    let mut requests = Vec::with_capacity(items.len());
    let mut inputs = Vec::with_capacity(items.len());
    let mut expected = Vec::with_capacity(items.len());
    for item in &items {
        let city = &cities[item.city];
        let body = if streams {
            &item.trip.body_stream
        } else {
            &item.trip.body_v1
        };
        let request = adapter::parse_request(body, streams)?;
        let input = city.extract(&request)?;
        expected.push(Expected {
            reference: city.reference(&input),
            segments: city.segments,
        });
        requests.push(request);
        inputs.push(input);
    }

    let golden_agreement = (seed == 0)
        .then(|| std::fs::read_to_string(Prepared::golden_path(dirs, w)).ok())
        .flatten()
        .map(|golden| check::golden_agreement(&golden, expected.iter().map(|e| &e.reference)));

    Ok(Prepared {
        workload: w,
        seed,
        artifacts,
        pack_s,
        order: corpus::order(seed, cities.len(), CORPUS_TRIPS * 16),
        cities,
        items,
        requests,
        inputs,
        expected,
        golden_agreement,
    })
}
