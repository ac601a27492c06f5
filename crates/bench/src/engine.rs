//! Deploy-plan → independent-component mapping for the worker pool.
//!
//! A scenario fuses its hosts into one causal component the moment they
//! share HDFS state (a namenode, a file placement) or a workload reads
//! across hosts. [`partition`] finds the *actual* causal components with a
//! union-find over the host graph and splits the scenario into one
//! sub-scenario per component; [`run_partitioned`] then deploys each
//! component as its own world (own namenode, own file population) and
//! runs them on the `run_indexed` worker pool.
//!
//! Partitioned deployment is a *deployment mode*: each component anchors
//! its own namenode, so a partitioned run is not byte-comparable to
//! deploying the same topology as one fused world. What **is** guaranteed
//! — and what the `cluster_8host_fanout` bench and the determinism tests
//! assert — is that a partitioned run produces byte-identical reports at
//! every worker count: components never exchange a message, and each is
//! built and driven whole by the one worker that picks it up.

use crate::spec::{
    FileSpec, HostSpec, ScenarioReport, ScenarioSpec, SpecError, VmRole, VmSpec, WorkloadBinding,
    WorkloadSpec,
};

use std::collections::BTreeMap;

use vread_sim::prelude::*;

/// Minimal union-find over host indices.
struct HostSets {
    parent: Vec<usize>,
}

impl HostSets {
    fn new(n: usize) -> Self {
        HostSets {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut i = i;
        while self.parent[i] != root {
            let next = self.parent[i];
            self.parent[i] = root;
            i = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Anchor on the smaller index so component ids follow plan
            // order deterministically.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }

    fn union_all(&mut self, hosts: &[usize]) {
        for pair in hosts.windows(2) {
            self.union(pair[0], pair[1]);
        }
    }
}

/// Splits a scenario into its independent causal components (one
/// sub-scenario per group of hosts coupled by file placements or
/// workload bindings), in plan order.
///
/// Falls back to a single fused component when the topology cannot be
/// split safely: faults are armed (fault specs target the fused world),
/// a workload omits its client name (the "first client" convention is
/// global), a component would lack a client or a datanode, or any name
/// fails to resolve (deployment will report the real error).
pub fn partition(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let fused = || vec![spec.clone()];
    if spec.hosts.len() <= 1 || !spec.faults.is_empty() {
        return fused();
    }
    let host_ix: BTreeMap<&str, usize> = spec
        .hosts
        .iter()
        .enumerate()
        .map(|(i, h)| (h.name.as_str(), i))
        .collect();
    let vm_host: BTreeMap<&str, usize> = match spec
        .vms
        .iter()
        .map(|v| Some((v.name.as_str(), *host_ix.get(v.host.as_str())?)))
        .collect()
    {
        Some(m) => m,
        None => return fused(),
    };
    let dn_hosts: Vec<usize> = spec
        .vms
        .iter()
        .filter(|v| v.role == VmRole::Datanode)
        .filter_map(|v| vm_host.get(v.name.as_str()).copied())
        .collect();
    let file_hosts = |path: &str| -> Option<Vec<usize>> {
        let f = spec.files.iter().find(|f| f.path == path)?;
        f.placement
            .iter()
            .map(|dn| vm_host.get(dn.as_str()).copied())
            .collect()
    };

    let mut sets = HostSets::new(spec.hosts.len());
    // Files couple every host their placement spans.
    for f in &spec.files {
        let hosts: Option<Vec<usize>> = f
            .placement
            .iter()
            .map(|dn| vm_host.get(dn.as_str()).copied())
            .collect();
        let Some(hosts) = hosts else { return fused() };
        sets.union_all(&hosts);
    }
    // A workload couples its client's host with every host it touches.
    for b in &spec.workloads {
        let Some(client) = b.client.as_deref() else {
            return fused();
        };
        let Some(&ch) = vm_host.get(client) else {
            return fused();
        };
        let mut touched: Vec<usize> = vec![ch];
        match &b.kind {
            WorkloadSpec::DfsioRead { files, .. } => {
                for p in files {
                    let Some(hosts) = file_hosts(p) else {
                        return fused();
                    };
                    touched.extend(hosts);
                }
            }
            WorkloadSpec::Reader { path, .. } => {
                let Some(hosts) = file_hosts(path) else {
                    return fused();
                };
                touched.extend(hosts);
            }
            // Writes round-robin new blocks over *all* datanodes.
            WorkloadSpec::DfsioWrite { .. } => touched.extend(dn_hosts.iter().copied()),
            // netperf talks to the first datanode VM.
            WorkloadSpec::Netperf { .. } => {
                let Some(first_dn) = dn_hosts.first() else {
                    return fused();
                };
                touched.push(*first_dn);
            }
        }
        sets.union_all(&touched);
    }

    // Component ids in plan order (root = smallest member index).
    let mut roots: Vec<usize> = Vec::new();
    let mut comp_of_host: Vec<usize> = Vec::with_capacity(spec.hosts.len());
    for h in 0..spec.hosts.len() {
        let r = sets.find(h);
        let comp = match roots.iter().position(|&x| x == r) {
            Some(c) => c,
            None => {
                roots.push(r);
                roots.len() - 1
            }
        };
        comp_of_host.push(comp);
    }
    if roots.len() <= 1 {
        return fused();
    }

    let ncomp = roots.len();
    let mut out: Vec<ScenarioSpec> = (0..ncomp)
        .map(|_| ScenarioSpec {
            seed: spec.seed,
            path: spec.path,
            hosts: Vec::new(),
            vms: Vec::new(),
            files: Vec::new(),
            workloads: Vec::new(),
            faults: Vec::new(),
            spans: spec.spans,
            host_cache: spec.host_cache.clone(),
            timeline: spec.timeline.clone(),
        })
        .collect();
    for (h, host) in spec.hosts.iter().enumerate() {
        out[comp_of_host[h]].hosts.push(host.clone());
    }
    for vm in &spec.vms {
        out[comp_of_host[vm_host[vm.name.as_str()]]]
            .vms
            .push(vm.clone());
    }
    for f in &spec.files {
        // All placement hosts share a component by construction.
        let h = vm_host[f.placement[0].as_str()];
        out[comp_of_host[h]].files.push(f.clone());
    }
    for b in &spec.workloads {
        let h = vm_host[b.client.as_deref().expect("checked above")];
        out[comp_of_host[h]].workloads.push(b.clone());
    }

    // Every component must be independently deployable: a client VM (it
    // anchors the component's namenode) and a datanode.
    let deployable = out.iter().all(|s| {
        s.vms.iter().any(|v| v.role == VmRole::Client)
            && s.vms.iter().any(|v| v.role == VmRole::Datanode)
    });
    if !deployable {
        return fused();
    }
    out
}

/// Partitions `spec` into causal components and runs each on one of
/// `threads` workers. Returns per-component reports in component (plan)
/// order; the rendered reports are byte-identical for any `threads`.
///
/// # Errors
///
/// Propagates the first component's [`SpecError`], mirroring
/// [`ScenarioSpec::run`].
pub fn run_partitioned(
    spec: &ScenarioSpec,
    threads: usize,
) -> Result<Vec<ScenarioReport>, SpecError> {
    let groups = partition(spec);
    run_indexed(groups.len(), threads, |i| {
        groups[i].run_multi().map(|(report, _)| report)
    })
    .into_iter()
    .collect()
}

/// Runs the fan-out scenario once on `threads` workers, returning the
/// rendered per-component reports plus the total number of simulation
/// events executed (for ns/event accounting in `repro bench-engine`).
///
/// # Panics
///
/// Panics if any component fails to deploy — the fan-out spec is
/// statically valid, so a failure is a bug.
pub fn run_fanout_bench(n_hosts: usize, threads: usize) -> (Vec<String>, u64) {
    let groups = partition(&cluster_fanout_spec(n_hosts));
    let out = run_indexed(groups.len(), threads, |i| groups[i].run_multi());
    let mut reports = Vec::new();
    let mut events = 0u64;
    for r in out {
        let (report, n) = r.expect("fan-out component runs");
        events += n;
        reports.push(report.to_json());
    }
    (reports, events)
}

/// The multi-host fan-out scenario behind the `cluster_8host_fanout`
/// bench: `n` self-contained hosts, each with a client VM, a datanode VM,
/// a 16 MiB local file, and two staggered readers — so [`partition`]
/// yields `n` independent components and the worker pool can demonstrate
/// multi-host speedup.
pub fn cluster_fanout_spec(n: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        seed: 42,
        path: crate::scenarios::ReadPath::VreadRdma,
        hosts: Vec::new(),
        vms: Vec::new(),
        files: Vec::new(),
        workloads: Vec::new(),
        faults: Vec::new(),
        spans: false,
        host_cache: crate::spec::HostCacheSpec::default(),
        timeline: None,
    };
    for i in 0..n {
        spec.hosts.push(HostSpec {
            name: format!("host{i}"),
            cores: 4,
            ghz: 2.0,
        });
        spec.vms.push(VmSpec {
            name: format!("c{i}"),
            host: format!("host{i}"),
            role: VmRole::Client,
            busy: None,
        });
        spec.vms.push(VmSpec {
            name: format!("dn{i}"),
            host: format!("host{i}"),
            role: VmRole::Datanode,
            busy: None,
        });
        spec.files.push(FileSpec {
            path: format!("/data-{i}"),
            mb: 16,
            placement: vec![format!("dn{i}")],
            replicate: false,
        });
        for start_ms in [0u64, 5] {
            spec.workloads.push(WorkloadBinding {
                client: Some(format!("c{i}")),
                start_ms,
                kind: WorkloadSpec::Reader {
                    path: format!("/data-{i}"),
                    request_kb: 1024,
                },
            });
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_partitions_per_host() {
        let spec = cluster_fanout_spec(4);
        let groups = partition(&spec);
        assert_eq!(groups.len(), 4);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.hosts.len(), 1);
            assert_eq!(g.hosts[0].name, format!("host{i}"));
            assert_eq!(g.vms.len(), 2);
            assert_eq!(g.files.len(), 1);
            assert_eq!(g.workloads.len(), 2);
        }
    }

    #[test]
    fn cross_host_placement_fuses() {
        let mut spec = cluster_fanout_spec(3);
        // Spread host0's file over host1's datanode too: components merge.
        spec.files[0].placement = vec!["dn0".into(), "dn1".into()];
        let groups = partition(&spec);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].hosts.len(), 2);
        assert_eq!(groups[1].hosts[0].name, "host2");
    }

    #[test]
    fn anonymous_client_binding_fuses() {
        let mut spec = cluster_fanout_spec(3);
        spec.workloads[0].client = None;
        assert_eq!(partition(&spec).len(), 1);
    }

    #[test]
    fn faults_fuse() {
        let mut spec = cluster_fanout_spec(3);
        spec.faults.push(crate::faults::FaultSpec {
            at_ms: 10,
            kind: crate::faults::FaultKind::DaemonCrash {
                host: "host0".into(),
            },
        });
        assert_eq!(partition(&spec).len(), 1);
    }

    #[test]
    fn partitioned_reports_are_thread_invariant() {
        let spec = cluster_fanout_spec(3);
        let seq: Vec<String> = run_partitioned(&spec, 1)
            .expect("run")
            .iter()
            .map(ScenarioReport::to_json)
            .collect();
        let par: Vec<String> = run_partitioned(&spec, 3)
            .expect("run")
            .iter()
            .map(ScenarioReport::to_json)
            .collect();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn a_single_workload_takes_the_one_drive() {
        // lookbusy never finishes, so its busy time shows exactly where
        // the drive stopped; a single-workload report carries no
        // per_workload block however it was reached.
        let spec = ScenarioSpec::from_json(
            r#"{
                "seed": 7,
                "path": "vread-rdma",
                "hosts": [
                    { "name": "host1", "cores": 4, "ghz": 2.0 },
                    { "name": "host2", "cores": 4, "ghz": 2.0 }
                ],
                "vms": [
                    { "name": "client", "host": "host1", "role": "client" },
                    { "name": "dn1", "host": "host1", "role": "datanode" },
                    { "name": "dn2", "host": "host2", "role": "datanode" },
                    { "name": "bg1", "host": "host1", "role": "lookbusy", "busy": 0.85 },
                    { "name": "bg2", "host": "host1", "role": "lookbusy", "busy": 0.85 }
                ],
                "files": [ { "path": "/data", "mb": 64, "placement": ["dn1", "dn2"] } ],
                "workload": { "kind": "dfsio-read", "files": ["/data"], "buffer_kb": 1024 }
            }"#,
        )
        .expect("spec parses");
        let direct = spec.run().expect("run").to_json();
        let partitioned = run_partitioned(&spec, 1).expect("run");
        assert_eq!(partitioned.len(), 1);
        assert_eq!(direct, partitioned[0].to_json());
        assert!(!direct.contains("per_workload"));
    }
}
