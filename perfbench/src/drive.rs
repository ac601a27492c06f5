//! The benchmark's own drive of a generated scenario, through the
//! harness's public entry points only: [`Deployment::build`],
//! [`Deployment::add_client_on`] with the `JavaReader` / `TestDfsio`
//! actors, and [`run_jobs`]. It mirrors what `ScenarioSpec::run` does for
//! a multi-workload scenario, split into the pieces the benchmark times
//! separately (deploy, arm, drive, collect).

use std::collections::BTreeMap;

use vread_apps::dfsio::{DfsioConfig, DfsioMode, TestDfsio};
use vread_apps::driver::run_jobs;
use vread_apps::java_reader::{JavaReader, ReaderMode};
use vread_bench::spec::WorkloadSpec;
use vread_bench::{DeployPlan, Deployment, ScenarioSpec, SpecError};
use vread_host::costs::Costs;
use vread_sim::prelude::*;

/// Simulated-time cap for one drive (far above any workload's makespan).
pub const CAP: SimDuration = SimDuration::from_secs(3_000);

/// One armed session.
#[derive(Debug, Clone)]
pub struct Session {
    /// Completion token.
    pub job: JobHandle,
    /// When the open-loop generator made it due.
    pub due: SimTime,
    /// Bytes it must move.
    pub expect_bytes: u64,
    /// `true` for a TestDFSIO write session.
    pub write: bool,
}

/// Resolves the scenario's topology and builds the world.
///
/// # Errors
///
/// Whatever [`Deployment::build`] rejects.
pub fn deploy(spec: &ScenarioSpec) -> Result<Deployment, SpecError> {
    Deployment::build(DeployPlan {
        seed: spec.seed,
        path: spec.path,
        spans: spec.spans,
        costs: Costs::default(),
        hosts: spec.hosts.clone(),
        vms: spec.vms.clone(),
        files: spec.files.clone(),
        host_cache: spec.host_cache.clone(),
        timeline_sample_ms: spec.timeline.as_ref().map(|t| t.sample_ms),
    })
}

/// Creates every session's client and actor in spec order, then the
/// background load and the fault plan — the same wiring order as the
/// harness's multi-workload drive, so results match it exactly.
///
/// # Errors
///
/// [`SpecError`] for a workload kind the benchmark does not generate or
/// a name that does not resolve.
pub fn arm(d: &mut Deployment, spec: &ScenarioSpec) -> Result<Vec<Session>, SpecError> {
    let mut sessions = Vec::with_capacity(spec.workloads.len());
    for b in &spec.workloads {
        let vm = d.client_vm(b.client.as_deref())?;
        let delay = SimDuration::from_millis(b.start_ms);
        let due = d.w.now() + delay;
        let (actor, session) = match &b.kind {
            WorkloadSpec::Reader { path, request_kb } => {
                let total = spec
                    .files
                    .iter()
                    .find(|f| &f.path == path)
                    .map(|f| f.mb << 20)
                    .ok_or_else(|| SpecError::Unresolved(format!("file {path}")))?;
                let client = d.add_client_on(vm);
                let job = d.w.register_job("reader");
                let mode = ReaderMode::Dfs {
                    client,
                    path: path.clone(),
                };
                let rdr = JavaReader::new(vm, mode, request_kb << 10, total).with_job(job);
                let a = d.w.add_actor("reader", rdr);
                (
                    a,
                    Session {
                        job,
                        due,
                        expect_bytes: total,
                        write: false,
                    },
                )
            }
            WorkloadSpec::DfsioWrite { files, mb } => {
                let client = d.add_client_on(vm);
                let job = d.w.register_job("dfsio");
                let app = TestDfsio::new(
                    client,
                    vm,
                    DfsioMode::Write,
                    files.clone(),
                    mb << 20,
                    DfsioConfig::default(),
                )
                .with_job(job);
                let a = d.w.add_actor("dfsio", app);
                (
                    a,
                    Session {
                        job,
                        due,
                        expect_bytes: (mb << 20) * files.len() as u64,
                        write: true,
                    },
                )
            }
            other => {
                return Err(SpecError::Invalid(format!(
                    "the benchmark drives reader and dfsio-write sessions, not {}",
                    other.kind_str()
                )))
            }
        };
        if delay == SimDuration::ZERO {
            d.w.send_now(actor, Start);
        } else {
            d.w.send_after(actor, Start, delay);
        }
        sessions.push(session);
    }
    d.start_background();
    d.arm_faults(&spec.faults)?;
    Ok(sessions)
}

/// Drives the world until every session completes; `false` if the cap
/// fired first.
pub fn drive(d: &mut Deployment) -> bool {
    run_jobs(&mut d.w, CAP)
}

/// What the simulated system answered. Deterministic for a given spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Sessions armed.
    pub sessions: usize,
    /// Sessions that did not finish or moved the wrong byte count.
    pub failed: usize,
    /// Largest gap between a session's due time and its start (ns).
    pub late_ns: u64,
    /// First start to last completion, simulated seconds.
    pub makespan_s: f64,
    /// Bytes delivered by read sessions.
    pub read_bytes: u64,
    /// Bytes written by write sessions.
    pub write_bytes: u64,
    /// Per-request application latency samples (`reader_delay_ms`),
    /// sorted ascending.
    pub read_ms: Vec<f64>,
    /// Per-session latency from due time to completion (s), sorted.
    pub session_s: Vec<f64>,
    /// Simulated CPU ms by the paper's figure buckets, lookbusy excluded.
    pub cpu_ms: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Collects the outcome of a finished drive.
    pub fn collect(d: &Deployment, sessions: &[Session]) -> Outcome {
        let w = &d.w;
        let mut out = Outcome {
            sessions: sessions.len(),
            failed: 0,
            late_ns: 0,
            makespan_s: 0.0,
            read_bytes: 0,
            write_bytes: 0,
            read_ms: Vec::new(),
            session_s: Vec::new(),
            cpu_ms: BTreeMap::new(),
        };
        let mut first: Option<SimTime> = None;
        let mut last: Option<SimTime> = None;
        for s in sessions {
            let bytes = w.jobs.bytes(s.job);
            let (Some(start), Some(done)) = (w.jobs.started_at(s.job), w.jobs.completed_at(s.job))
            else {
                out.failed += 1;
                continue;
            };
            if bytes != s.expect_bytes {
                out.failed += 1;
            }
            out.late_ns = out.late_ns.max(start.since(s.due).as_nanos());
            first = Some(first.map_or(start, |t| t.min(start)));
            last = Some(last.map_or(done, |t| t.max(done)));
            out.session_s.push(done.since(s.due).as_secs_f64());
            if s.write {
                out.write_bytes += bytes;
            } else {
                out.read_bytes += bytes;
            }
        }
        if let (Some(a), Some(b)) = (first, last) {
            out.makespan_s = b.since(a).as_secs_f64();
        }
        out.session_s.sort_by(f64::total_cmp);
        if let Some(s) = w.metrics.samples("reader_delay_ms") {
            out.read_ms = s.values().to_vec();
            out.read_ms.sort_by(f64::total_cmp);
        }
        for t in 0..w.acct.len() {
            let ghz = w.host_ghz(w.thread_host(ThreadId::from_raw(t as u32)));
            for cat in CpuCategory::ALL {
                let cycles = w.acct.cycles(t, cat);
                if cat != CpuCategory::Lookbusy && cycles > 0.0 {
                    *out.cpu_ms.entry(cat.figure_bucket()).or_insert(0.0) += cycles / ghz / 1e6;
                }
            }
        }
        out
    }

    /// Read throughput over the makespan (MB per simulated second).
    pub fn read_mbps(&self) -> f64 {
        self.read_bytes as f64 / 1e6 / self.makespan_s
    }

    /// Simulated CPU ms per GB moved (reads and writes), lookbusy
    /// excluded — the paper's efficiency figure.
    pub fn cpu_ms_per_gb(&self) -> f64 {
        let mut cpu = 0.0;
        for v in self.cpu_ms.values() {
            cpu += v;
        }
        cpu / ((self.read_bytes + self.write_bytes) as f64 / 1e9)
    }

    /// FNV-1a over every simulated result, bit for bit: equal digests
    /// mean equal answers.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(self.sessions as u64);
        eat(self.failed as u64);
        eat(self.late_ns);
        eat(self.makespan_s.to_bits());
        eat(self.read_bytes);
        eat(self.write_bytes);
        self.read_ms.iter().for_each(|v| eat(v.to_bits()));
        self.session_s.iter().for_each(|v| eat(v.to_bits()));
        self.cpu_ms.values().for_each(|v| eat(v.to_bits()));
        h
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
