//! The `paper-suite` workload: every entry of `experiments::registry()`
//! (what `repro all` runs) through the `run_indexed` job pool, with each
//! table compared numerically against the committed `results/` goldens.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use vread_bench::experiments::{registry, Runner};
use vread_bench::json::Json;
use vread_bench::Table;
use vread_sim::par::run_indexed;

use crate::gen::Rng;
use crate::host::SchedStat;

/// Golden tables by id, parsed from `results/*.json`.
pub type Goldens = BTreeMap<String, Json>;

/// Parses every `*.json` file in `dir`.
///
/// # Errors
///
/// A message naming the directory or file that could not be read or
/// parsed.
pub fn load_goldens(dir: &Path) -> Result<Goldens, String> {
    let mut out = Goldens::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for e in entries {
        let path = e.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().and_then(|x| x.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let id = j
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no \"id\"", path.display()))?
            .to_owned();
        out.insert(id, j);
    }
    Ok(out)
}

/// The registry in a seeded order: the seed permutes which experiment
/// the pool hands out first. Outputs do not depend on it.
pub fn ordered_registry(seed: u64) -> Vec<(&'static str, Runner)> {
    let mut reg = registry();
    let mut rng = Rng::new(seed);
    for i in (1..reg.len()).rev() {
        reg.swap(i, rng.below(i + 1));
    }
    reg
}

/// One experiment's run.
pub struct ExpRun {
    /// Registry id.
    pub name: &'static str,
    /// Its worker thread's CPU and run-queue wait while it ran.
    pub sched: SchedStat,
    /// Its tables; `None` if it panicked.
    pub tables: Option<Vec<Table>>,
}

/// Runs `reg` on `threads` workers of the simulator's job pool.
pub fn run(reg: &[(&'static str, Runner)], threads: usize) -> Vec<ExpRun> {
    run_indexed(reg.len(), threads, |i| {
        let (name, runner) = reg[i];
        let s0 = SchedStat::now();
        let tables = catch_unwind(AssertUnwindSafe(runner)).ok();
        ExpRun {
            name,
            sched: SchedStat::now().since(s0),
            tables,
        }
    })
}

/// What the golden comparison found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Experiments that panicked or whose tables differ from a golden.
    pub failed: Vec<String>,
    /// Tables compared against a golden.
    pub compared: usize,
    /// Tables with no golden to compare against.
    pub unreferenced: Vec<String>,
}

/// Compares every table's columns, row labels and values with its
/// golden. Numbers compare as numbers, so `17410` equals `17410.0`.
pub fn check(runs: &[ExpRun], goldens: &Goldens) -> Verdict {
    let mut v = Verdict::default();
    for r in runs {
        let Some(tables) = &r.tables else {
            v.failed.push(r.name.to_owned());
            continue;
        };
        let mut ok = true;
        for t in tables {
            let Some(golden) = goldens.get(&t.id) else {
                v.unreferenced.push(t.id.clone());
                continue;
            };
            v.compared += 1;
            let got = Json::parse(&t.to_json()).expect("table JSON parses");
            ok &= ["columns", "rows"]
                .iter()
                .all(|k| got.get(k) == golden.get(k));
        }
        if !ok {
            v.failed.push(r.name.to_owned());
        }
    }
    v
}
