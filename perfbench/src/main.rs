//! The benchmark's worker process. It reads one command per line on
//! stdin and answers each with one line on stdout: `ok <json>` or
//! `err <message>`. The harness (`run.py`) times every command from the
//! outside, so this process never reads a clock and the simulator stays
//! free of wall-clock state.
//!
//! ```text
//! catalog                         metric names, units and directions
//! spec <workload> <seed> <0|1>    generate (and validate) the spec; 1 = traced
//! setup <workload> <seed> <0|1>   spec, deploy and arm in one command
//! deploy | arm | drive | outcome  build, arm, run and read the scenario
//! collect | layers                drain the recorders; per-layer metrics
//! reset                           drop the current world
//! calib | pingpong | chain        fixed host / engine shapes
//! testbed                         build the paper's Figure 10 testbed once
//! suite-setup <seed>              seeded registry order + load results/
//! suite <threads> | suite-check   run the registry in the job pool; compare
//! exp <id>                        run one experiment here and compare it
//! quit
//! ```

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::Path;

use vread_bench::experiments::Runner;
use vread_bench::json::{n, obj, s, Json};
use vread_bench::{Deployment, ScenarioSpec, Testbed, TestbedOpts};
use vread_perfbench::drive::{self, Outcome, Session};
use vread_perfbench::layers::{self, Recorders};
use vread_perfbench::suite::{self, ExpRun, Goldens};
use vread_perfbench::{gen, host, shapes};

#[derive(Default)]
struct State {
    spec: Option<ScenarioSpec>,
    d: Option<Deployment>,
    sessions: Vec<Session>,
    rec: Option<Recorders>,
    reg: Vec<(&'static str, Runner)>,
    goldens: Goldens,
    runs: Vec<ExpRun>,
}

fn metrics_json(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), n(*v))).collect())
}

fn names(v: &[String]) -> Json {
    Json::Arr(v.iter().map(s).collect())
}

fn shape_of(workload: &str) -> Result<gen::Shape, String> {
    match workload {
        "vanilla-contended" => Ok(gen::vanilla_contended()),
        "vread-cas-mixed" => Ok(gen::vread_cas_mixed()),
        other => Err(format!("unknown scenario workload {other:?}")),
    }
}

fn arg<T: std::str::FromStr>(args: &[&str], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("missing or bad {what}"))
}

impl State {
    fn deployment(&mut self) -> Result<&mut Deployment, String> {
        self.d.as_mut().ok_or_else(|| "no deployment".to_owned())
    }

    fn handle(&mut self, line: &str) -> Result<Json, String> {
        let args: Vec<&str> = line.split_whitespace().collect();
        let empty = || obj(vec![]);
        match args.first().copied().unwrap_or("") {
            "catalog" => {
                let defs = |v: Vec<(String, &str, layers::Better)>| {
                    Json::Arr(
                        v.into_iter()
                            .map(|(name, unit, b)| Json::Arr(vec![s(name), s(unit), s(b.as_str())]))
                            .collect(),
                    )
                };
                let e2e = layers::END_TO_END
                    .iter()
                    .map(|&(name, unit, b)| (name.to_owned(), unit, b))
                    .collect();
                Ok(obj(vec![
                    ("end_to_end", defs(e2e)),
                    ("per_layer", defs(layers::per_layer())),
                ]))
            }
            "setup" => {
                let reply = self.handle(&format!("spec {}", args[1..].join(" ")))?;
                self.handle("deploy")?;
                self.handle("arm")?;
                Ok(reply)
            }
            "spec" => {
                let shape = shape_of(args.get(1).copied().unwrap_or(""))?;
                let seed: u64 = arg(&args, 2, "seed")?;
                let traced: u8 = arg(&args, 3, "trace flag")?;
                let spec = gen::generate(&shape, seed, traced == 1).map_err(|e| e.to_string())?;
                let untraced = if traced == 1 {
                    gen::generate(&shape, seed, false).map_err(|e| e.to_string())?
                } else {
                    spec.clone()
                };
                let reply = obj(vec![
                    ("digest", s(format!("{:016x}", gen::digest(&untraced)))),
                    ("sessions", n(spec.workloads.len() as f64)),
                ]);
                self.spec = Some(spec);
                Ok(reply)
            }
            "deploy" => {
                let spec = self.spec.as_ref().ok_or("no spec")?;
                self.d = Some(drive::deploy(spec).map_err(|e| e.to_string())?);
                Ok(empty())
            }
            "arm" => {
                let spec = self.spec.clone().ok_or("no spec")?;
                let d = self.deployment()?;
                self.sessions = drive::arm(d, &spec).map_err(|e| e.to_string())?;
                Ok(empty())
            }
            "drive" => {
                let d = self.deployment()?;
                let ok = drive::drive(d);
                Ok(obj(vec![
                    ("finished", Json::Bool(ok)),
                    ("events", n(d.w.events_processed() as f64)),
                ]))
            }
            "outcome" => {
                let d = self.d.as_ref().ok_or("no deployment")?;
                let o = Outcome::collect(d, &self.sessions);
                let mut m = BTreeMap::new();
                layers::results(&o, &mut m);
                layers::counters(d, &mut m);
                let reply = obj(vec![
                    ("digest", s(format!("{:016x}", o.digest()))),
                    ("sessions", n(o.sessions as f64)),
                    ("failed", n(o.failed as f64)),
                    ("late_ns", n(o.late_ns as f64)),
                    ("makespan_s", n(o.makespan_s)),
                    ("read_bytes", n(o.read_bytes as f64)),
                    ("write_bytes", n(o.write_bytes as f64)),
                    ("metrics", metrics_json(&m)),
                ]);
                Ok(reply)
            }
            "collect" => {
                let d = self.deployment()?;
                self.rec = Some(Recorders::collect(d));
                Ok(empty())
            }
            "layers" => {
                let rec = self.rec.as_ref().ok_or("no recorders")?;
                let mut m = BTreeMap::new();
                rec.metrics(&mut m);
                let copies = rec.copies_per_read();
                let mut distinct: Vec<f64> = copies.clone();
                distinct.dedup();
                // RDMA remote reads are the 3-copy reads of the vRead path
                let remote = copies.iter().filter(|&&c| c == 3.0).count();
                Ok(obj(vec![
                    ("metrics", metrics_json(&m)),
                    ("conserves_cycles", Json::Bool(rec.spans.conserves_cycles())),
                    (
                        "copies_per_read",
                        Json::Arr(distinct.into_iter().map(n).collect()),
                    ),
                    ("three_copy_reads", n(remote as f64)),
                ]))
            }
            "reset" => {
                *self = State {
                    reg: std::mem::take(&mut self.reg),
                    goldens: std::mem::take(&mut self.goldens),
                    ..State::default()
                };
                Ok(empty())
            }
            "calib" => Ok(obj(vec![("x", s(host::calibrate().to_string()))])),
            "pingpong" => Ok(obj(vec![("events", n(shapes::pingpong() as f64))])),
            "chain" => Ok(obj(vec![("events", n(shapes::chain() as f64))])),
            "testbed" => {
                std::hint::black_box(Testbed::build(TestbedOpts::new()));
                Ok(empty())
            }
            "suite-setup" => {
                let seed: u64 = arg(&args, 1, "seed")?;
                self.reg = suite::ordered_registry(seed);
                self.goldens = suite::load_goldens(Path::new("results"))?;
                Ok(obj(vec![
                    ("experiments", n(self.reg.len() as f64)),
                    ("goldens", n(self.goldens.len() as f64)),
                ]))
            }
            "suite" => {
                let threads: usize = arg(&args, 1, "thread count")?;
                self.runs = suite::run(&self.reg, threads);
                let mut sched = host::SchedStat::default();
                for r in &self.runs {
                    sched = sched.plus(r.sched);
                }
                Ok(obj(vec![
                    ("experiments", n(self.runs.len() as f64)),
                    ("oncpu_ns", n(sched.on_cpu_ns as f64)),
                    ("runq_wait_ns", n(sched.runq_wait_ns as f64)),
                ]))
            }
            "suite-check" => {
                let v = suite::check(&self.runs, &self.goldens);
                Ok(obj(vec![
                    ("failed", names(&v.failed)),
                    ("compared", n(v.compared as f64)),
                    ("unreferenced", names(&v.unreferenced)),
                ]))
            }
            "exp" => {
                let id = args.get(1).copied().unwrap_or("");
                let one: Vec<_> = self
                    .reg
                    .iter()
                    .filter(|(name, _)| *name == id)
                    .copied()
                    .collect();
                if one.is_empty() {
                    return Err(format!("unknown experiment {id:?}"));
                }
                let runs = suite::run(&one, 1);
                let v = suite::check(&runs, &self.goldens);
                Ok(obj(vec![
                    ("failed", names(&v.failed)),
                    ("compared", n(v.compared as f64)),
                ]))
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

fn main() {
    let mut state = State::default();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "quit" {
            break;
        }
        let reply = match state.handle(&line) {
            Ok(j) => format!("ok {}", j.compact()),
            Err(e) => format!("err {}", e.replace('\n', " ")),
        };
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}
