//! The metric catalogue and the per-layer numbers of a traced run.
//!
//! Every workload prints every metric of the catalogue; a layer a
//! workload does not exercise reads 0 (see README.md for which those
//! are). Layer numbers come from the scenario's own recorders — the span
//! rollup ([`SpanSummary`]), the telemetry timeline ([`TimelineSummary`]),
//! the host block-store counters and the metrics registry — never from
//! timers inside the program.

use std::collections::BTreeMap;

use vread_bench::{Deployment, HostCacheReport, SpanSummary, TimelineSummary};
use vread_host::cluster::Cluster;

use crate::drive::{quantile, Outcome};

/// Lower or higher is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are improvements.
    Lower,
    /// Larger values are improvements.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry: name, unit, direction.
pub type Def = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// End-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: [Def; 3] = [
    ("wall_s", "s", L),
    ("setup_s", "s", L),
    ("peak_rss_mb", "MB", L),
];

/// The paper-suite's registry ids, in registry order.
pub const SUITE: [&str; 16] = [
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "table3",
    "ablate-ring",
    "ablate-bypass",
    "ablate-hve",
    "ablate-sriov",
    "ablate-cas",
];

/// Span layers whose count / cycles / copies / queue wait are reported,
/// with the metric prefix each goes under.
pub const SPAN_LAYERS: [(&str, &str); 5] = [
    ("read", "hdfs.read"),
    ("dn_read", "hdfs.dn_read"),
    ("block_fetch", "hdfs.block_fetch"),
    ("vfd_read", "core.vfd_read"),
    ("vread_open", "core.vread_open"),
];

/// The paper's CPU figure buckets (`CpuCategory::figure_bucket`).
pub const CPU_BUCKETS: [&str; 9] = [
    "client-application",
    "data copy(virtio-vqueue)",
    "data copy(vRead-buffer)",
    "vhost-net",
    "loop device",
    "disk read",
    "rdma",
    "vRead-net",
    "others",
];

/// Hosts every generated topology has.
pub const HOSTS: [&str; 2] = ["h0", "h1"];
/// Links every generated topology has.
pub const LINKS: usize = 2;

/// `data copy(virtio-vqueue)` → `data_copy_virtio_vqueue`.
pub fn sanitize(bucket: &str) -> String {
    let mut out = String::new();
    for c in bucket.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_owned()
}

/// The per-layer catalogue, in print order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut v: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: String, unit: &'static str, b: Better| v.push((name, unit, b));
    // simulated results
    add("read_mbps".into(), "MB/sim_s", H);
    add("read_p50_ms".into(), "sim_ms", L);
    add("read_p999_ms".into(), "sim_ms", L);
    add("session_p50_s".into(), "sim_s", L);
    add("session_p90_s".into(), "sim_s", L);
    add("cpu_ms_per_gb".into(), "sim_ms/GB", L);
    add("failed_ops".into(), "ratio", L);
    // apps
    add("apps.sessions".into(), "count", H);
    add("apps.reads".into(), "count", H);
    // engine
    add("sim.events".into(), "count", L);
    add("sim.events_per_read".into(), "count", L);
    add("sim.events_per_s".into(), "1/s", H);
    add("sim.pingpong_ns_per_event".into(), "ns/event", L);
    add("sim.chain_ns_per_event".into(), "ns/event", L);
    // scheduler
    for h in HOSTS {
        add(format!("sched.{h}.runq_max"), "count", L);
        add(format!("sched.{h}.delay_ms_max"), "sim_ms", L);
    }
    add("sched.migrations".into(), "count", L);
    // CPU by bucket (virtio copies, vhost-net, client app, …)
    for b in CPU_BUCKETS {
        add(format!("cpu.{}_ms", sanitize(b)), "sim_ms", L);
    }
    // host block store
    add("store.hits".into(), "count", H);
    add("store.misses".into(), "count", L);
    add("store.dedup_hits".into(), "count", H);
    add("store.hit_ratio".into(), "ratio", H);
    add("store.effective_capacity_x".into(), "x", H);
    for h in HOSTS {
        add(format!("store.{h}.used_bytes_max"), "bytes", L);
    }
    // net
    for i in 0..LINKS {
        add(format!("link.{i}.backlog_bytes_max"), "bytes", L);
        add(format!("link.{i}.mbps_mean"), "MB/sim_s", H);
    }
    // hdfs + core span layers
    for (_, prefix) in SPAN_LAYERS {
        add(format!("{prefix}.count"), "count", L);
        add(format!("{prefix}.mcycles"), "Mcycles", L);
        add(format!("{prefix}.copies"), "count", L);
        add(format!("{prefix}.queue_wait_ms"), "sim_ms", L);
    }
    add("hdfs.outstanding_reads_max".into(), "count", L);
    add("hdfs.write_bytes".into(), "bytes", H);
    add("hdfs.copies_per_read".into(), "copies", L);
    add("hdfs.copies_per_read_min".into(), "copies", L);
    add("vread.opens".into(), "count", L);
    add("vread.vfd_hit_ratio".into(), "ratio", H);
    add("vread.fallbacks".into(), "count", L);
    add("vread.remote_reads".into(), "count", L);
    for h in HOSTS {
        add(format!("ring.{h}.bytes_max"), "bytes", L);
    }
    // benchmark and host
    add("bench.deploy_s".into(), "s", L);
    add("bench.collect_s".into(), "s", L);
    add("bench.trace_overhead_x".into(), "x", L);
    for e in SUITE {
        add(format!("suite.{e}.wall_s"), "s", L);
    }
    add("host.calib_ms".into(), "ms", L);
    add("host.oncpu_ratio".into(), "ratio", H);
    add("host.runq_wait_ratio".into(), "ratio", L);
    v
}

/// The simulated results of one drive, under their catalogue names.
pub fn results(o: &Outcome, m: &mut BTreeMap<String, f64>) {
    m.insert("read_mbps".into(), o.read_mbps());
    m.insert("read_p50_ms".into(), quantile(&o.read_ms, 0.5));
    m.insert("read_p999_ms".into(), quantile(&o.read_ms, 0.999));
    m.insert("session_p50_s".into(), quantile(&o.session_s, 0.5));
    m.insert("session_p90_s".into(), quantile(&o.session_s, 0.9));
    m.insert("cpu_ms_per_gb".into(), o.cpu_ms_per_gb());
    m.insert("apps.sessions".into(), o.sessions as f64);
    m.insert("apps.reads".into(), o.read_ms.len() as f64);
    m.insert("hdfs.write_bytes".into(), o.write_bytes as f64);
    for b in CPU_BUCKETS {
        let v = o.cpu_ms.get(b).copied().unwrap_or(0.0);
        m.insert(format!("cpu.{}_ms", sanitize(b)), v);
    }
}

/// Store and metrics-registry counters, readable with tracing off.
pub fn counters(d: &Deployment, m: &mut BTreeMap<String, f64>) {
    let w = &d.w;
    if let Some(cl) = w.ext.get::<Cluster>() {
        let hc = HostCacheReport::collect(cl);
        let lookups = hc.hits + hc.misses;
        m.insert("store.hits".into(), hc.hits as f64);
        m.insert("store.misses".into(), hc.misses as f64);
        m.insert("store.dedup_hits".into(), hc.dedup_hits as f64);
        let ratio = if lookups == 0 {
            0.0
        } else {
            hc.hits as f64 / lookups as f64
        };
        m.insert("store.hit_ratio".into(), ratio);
        m.insert("store.effective_capacity_x".into(), hc.effective_capacity_x);
    }
    let opens = w.metrics.counter("vread_opens");
    let hits = w.metrics.counter("vread_vfd_hits");
    m.insert("vread.opens".into(), opens);
    let accesses = opens + hits;
    m.insert(
        "vread.vfd_hit_ratio".into(),
        if accesses > 0.0 { hits / accesses } else { 0.0 },
    );
    m.insert(
        "vread.fallbacks".into(),
        w.metrics.counter("vread_fallbacks"),
    );
    m.insert(
        "sched.migrations".into(),
        w.metrics.counter("sched_migrations"),
    );
}

/// A finished traced drive's drained recorders.
pub struct Recorders {
    /// The span rollup.
    pub spans: SpanSummary,
    /// The timeline rollup.
    pub timeline: TimelineSummary,
}

impl Recorders {
    /// Drains the recorders and serializes both rollups the way a
    /// scenario report does — the work `bench.collect_s` times.
    pub fn collect(d: &mut Deployment) -> Recorders {
        let spans = SpanSummary::collect(&mut d.w);
        let timeline = TimelineSummary::collect(&d.w);
        std::hint::black_box(spans.to_json().compact());
        std::hint::black_box(timeline.to_json().compact());
        Recorders { spans, timeline }
    }

    /// Per-read copy counts from the span ledger, ascending.
    pub fn copies_per_read(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .report
            .read_ledger()
            .iter()
            .map(|r| r.copies_per_read)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The span- and timeline-derived per-layer metrics.
    pub fn metrics(&self, m: &mut BTreeMap<String, f64>) {
        let rows = self.spans.report.layer_table();
        for (layer, prefix) in SPAN_LAYERS {
            let row = rows.iter().find(|r| r.name == layer);
            let get = |f: &dyn Fn(&vread_sim::span::LayerRow) -> f64| row.map_or(0.0, f);
            m.insert(format!("{prefix}.count"), get(&|r| r.count as f64));
            m.insert(format!("{prefix}.mcycles"), get(&|r| r.cycles / 1e6));
            m.insert(format!("{prefix}.copies"), get(&|r| r.copies as f64));
            m.insert(
                format!("{prefix}.queue_wait_ms"),
                get(&|r| r.queue_wait_ns as f64 / 1e6),
            );
        }
        let agg = self.spans.reads();
        m.insert("hdfs.copies_per_read".into(), agg.copies_per_read());
        m.insert("hdfs.copies_per_read_min".into(), agg.min_copies_per_read);

        let points = |name: &str| {
            self.timeline
                .series
                .iter()
                .find(|s| s.name == name)
                .map_or(Vec::new(), |s| s.points.iter().map(|p| p.1).collect())
        };
        let max_of = |name: &str| {
            points(name)
                .into_iter()
                .max_by(f64::total_cmp)
                .unwrap_or(0.0)
        };
        let mean_of = |name: &str| {
            let pts = points(name);
            let mut total = 0.0;
            for v in &pts {
                total += v;
            }
            total / pts.len().max(1) as f64
        };
        for (i, h) in HOSTS.iter().enumerate() {
            m.insert(
                format!("sched.{h}.runq_max"),
                max_of(&format!("sched.{h}.runq")),
            );
            m.insert(
                format!("sched.{h}.delay_ms_max"),
                max_of(&format!("sched.{h}.delay_ms")),
            );
            m.insert(
                format!("store.{h}.used_bytes_max"),
                max_of(&format!("store.{h}.used_bytes")),
            );
            m.insert(
                format!("ring.{h}.bytes_max"),
                max_of(&format!("gauge.ring.h{i}.bytes")),
            );
        }
        for i in 0..LINKS {
            m.insert(
                format!("link.{i}.backlog_bytes_max"),
                max_of(&format!("link.{i}.backlog_bytes")),
            );
            m.insert(
                format!("link.{i}.mbps_mean"),
                mean_of(&format!("link.{i}.mbps")),
            );
        }
        m.insert(
            "hdfs.outstanding_reads_max".into(),
            max_of("gauge.hdfs.outstanding_reads"),
        );
    }
}
