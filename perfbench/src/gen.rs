//! Seeded workload generator: turns the benchmark's `--seed` into a
//! [`ScenarioSpec`].
//!
//! Everything random about a workload — session arrival times, which
//! client VM and which file each session gets, and the read/write mix —
//! comes from a SplitMix64 stream owned by this file, so a given seed
//! produces the same spec whatever the simulator's own RNG does. The
//! simulator receives only the finished spec, built and validated through
//! [`ScenarioSpec::builder`].
//!
//! Sessions arrive open-loop: their start times are a Poisson process of
//! a fixed rate, set below the path's measured capacity so the backlog
//! stays bounded (see [`Shape::mean_gap_ms`]). Inside a session one
//! request is outstanding at a time (closed loop).

use vread_bench::spec::WorkloadSpec;
use vread_bench::{HostCacheSpec, ReadPath, ScenarioSpec, SpecError};
use vread_host::cluster::HostCacheMode;

/// SplitMix64 — small, fast and fixed here, so workload inputs never
/// depend on the program under test.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64).ceil() as usize - 1
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.unit().ln() * mean
    }
}

/// The fixed part of a workload; the seed fills in the sessions.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Read path under test.
    pub path: ReadPath,
    /// Physical hosts (named `h0`, `h1`, …).
    pub hosts: usize,
    /// Cores per host (2.0 GHz each).
    pub cores: usize,
    /// Duty cycle of one lookbusy VM per host, if any.
    pub lookbusy: Option<f64>,
    /// Client VMs on each host (tenants; the first hosts the namenode).
    pub clients: Vec<usize>,
    /// Datanode VMs per host. With two or more, each file's blocks are
    /// replicated on every datanode of its home host, so co-located
    /// tenants can read sibling replicas.
    pub dns_per_host: usize,
    /// Pre-populated files homed on each host.
    pub files: Vec<usize>,
    /// Size of each file in MiB (a reader session reads one whole file).
    pub file_mb: u64,
    /// Chance a read session picks a file whose home is another host.
    pub far_share: f64,
    /// Chance a session is a TestDFSIO write instead of a read.
    pub write_share: f64,
    /// Size of the one new file a write session creates, in MiB.
    pub write_mb: u64,
    /// Sessions per run.
    pub sessions: usize,
    /// Reader request size in KiB.
    pub request_kb: u64,
    /// Mean gap between session arrivals, in simulated ms.
    pub mean_gap_ms: f64,
    /// Host block store.
    pub host_cache: HostCacheSpec,
}

/// The paper's Fig 3/9 regime: the vanilla path with its I/O threads
/// competing with lookbusy VMs for 4 cores per host.
///
/// All four tenants sit on `h0` with three quarters of the files, so the
/// 1.5 GiB on `h0`'s datanode overflows its 1 GiB guest cache and the
/// host LRU serves re-reads; a quarter of the reads cross to `h1`.
///
/// Capacity, measured by starting 16 sessions at once on seed 1:
/// 0.87 sessions per simulated second (234 MB/s). Arrivals run at
/// 0.69 sessions/s (one per 1450 ms on average, 79% of capacity).
pub fn vanilla_contended() -> Shape {
    Shape {
        path: ReadPath::Vanilla,
        hosts: 2,
        cores: 4,
        lookbusy: Some(0.85),
        clients: vec![4, 0],
        dns_per_host: 1,
        files: vec![6, 2],
        file_mb: 256,
        far_share: 0.25,
        write_share: 0.0,
        write_mb: 0,
        sessions: 96,
        request_kb: 64,
        mean_gap_ms: 1450.0,
        host_cache: HostCacheSpec::default(),
    }
}

/// vRead over RDMA with a content-addressed host store smaller than the
/// logical working set, replicated files, far files and a write mix.
///
/// Capacity, measured by starting 16 sessions at once on seed 1:
/// 3.62 sessions per simulated second (851 MB/s). Arrivals run at
/// 2.5 sessions/s (one per 400 ms on average, 69% of capacity).
pub fn vread_cas_mixed() -> Shape {
    Shape {
        path: ReadPath::VreadRdma,
        hosts: 2,
        cores: 8,
        lookbusy: None,
        clients: vec![2, 2],
        dns_per_host: 2,
        files: vec![3, 3],
        file_mb: 256,
        far_share: 0.25,
        write_share: 1.0 / 6.0,
        write_mb: 64,
        sessions: 96,
        request_kb: 64,
        mean_gap_ms: 400.0,
        host_cache: HostCacheSpec {
            mode: HostCacheMode::Cas,
            capacity_mb: Some(512),
            chunk_kb: None,
        },
    }
}

/// Recorders a traced run turns on: spans, and a timeline sampled every
/// this many simulated milliseconds.
pub const TRACE_SAMPLE_MS: u64 = 50;

/// Generates the scenario for `seed`. `traced` adds the span recorder
/// and the timeline; it changes no input.
///
/// # Errors
///
/// Whatever [`vread_bench::ScenarioBuilder::build`] rejects.
pub fn generate(shape: &Shape, seed: u64, traced: bool) -> Result<ScenarioSpec, SpecError> {
    let mut rng = Rng::new(seed);
    let mut b = ScenarioSpec::builder()
        .seed(seed)
        .path(shape.path)
        .host_cache(shape.host_cache.clone());
    if traced {
        b = b.spans(true).timeline_sample_ms(TRACE_SAMPLE_MS);
    }
    let mut clients: Vec<(String, usize)> = Vec::new();
    let mut dns: Vec<Vec<String>> = Vec::new();
    for h in 0..shape.hosts {
        let host = format!("h{h}");
        b = b.host(&host, shape.cores, 2.0);
        for _ in 0..shape.clients[h] {
            let name = format!("c{}", clients.len());
            b = b.client(&name, &host);
            clients.push((name, h));
        }
        let mut host_dns = Vec::new();
        for d in 0..shape.dns_per_host {
            let name = format!("dn{h}{}", (b'a' + d as u8) as char);
            b = b.datanode(&name, &host);
            host_dns.push(name);
        }
        dns.push(host_dns);
        if let Some(busy) = shape.lookbusy {
            b = b.lookbusy(&format!("bg{h}"), &host, busy);
        }
    }
    // file i's home host
    let home: Vec<usize> = (0..shape.hosts)
        .flat_map(|h| std::iter::repeat_n(h, shape.files[h]))
        .collect();
    for (f, &h) in home.iter().enumerate() {
        let placement: Vec<&str> = dns[h].iter().map(String::as_str).collect();
        let path = format!("/f{f}");
        b = if placement.len() > 1 {
            b.replicated_file(&path, shape.file_mb, &placement)
        } else {
            b.file(&path, shape.file_mb, &placement)
        };
    }
    let mut t_ms = 0.0;
    for s in 0..shape.sessions {
        t_ms += rng.exp(shape.mean_gap_ms);
        let (client, client_host) = clients[rng.below(clients.len())].clone();
        let kind = if rng.unit() <= shape.write_share {
            WorkloadSpec::DfsioWrite {
                files: vec![format!("/w{s}")],
                mb: shape.write_mb,
            }
        } else {
            let far = rng.unit() <= shape.far_share;
            let pool: Vec<usize> = (0..home.len())
                .filter(|&f| (home[f] != client_host) == far)
                .collect();
            WorkloadSpec::Reader {
                path: format!("/f{}", pool[rng.below(pool.len())]),
                request_kb: shape.request_kb,
            }
        };
        b = b.workload_on(&client, t_ms.round() as u64, kind);
    }
    b.build()
}

/// FNV-1a digest of the spec's full description — printed with every
/// run so two runs can be checked to have measured the same inputs.
pub fn digest(spec: &ScenarioSpec) -> u64 {
    format!("{spec:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
