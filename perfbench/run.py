#!/usr/bin/env python3
"""The vread-rs benchmark harness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the worker (`perfbench/`, a
Cargo package of its own) into $CARGO_TARGET_DIR (default .bench_build)
and times every command it sends to it from the outside: the worker never
reads a clock, so the simulator stays free of wall-clock state.

With --trace 0 it repeats the workload untraced for --seconds and reports
the end-to-end metrics (medians). With --trace 1 it repeats the untraced
drive for half the time, runs one traced drive (spans + timeline) and
reports the per-layer metrics. Either way it checks the outputs and
prints, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("vanilla-contended", "vread-cas-mixed", "paper-suite")
HELD_OUT_SEED = 9001
# set-ups per run for the setup_s median
SETUP_SAMPLES = 200
# repetitions of each engine shape and of each deploy timing
SHAPE_REPS = 5
# hard cap on one run, so a hung worker cannot stall the caller
RUN_LIMIT_S = 170


class BenchError(Exception):
    """A failure that must end the run without a result."""


def log(msg):
    print(msg, flush=True)


def build():
    """Builds the worker; returns its path."""
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--quiet",
           "--manifest-path", os.path.join(here, "Cargo.toml")]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("building the worker failed")
    return os.path.join(target, "release", "perfbench")


class Worker:
    """A worker process and its line protocol."""

    def __init__(self, exe):
        self.p = subprocess.Popen([exe], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True, bufsize=1)

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.close()

    def call(self, cmd):
        """Sends one command; returns (reply, host seconds it took)."""
        t0 = time.perf_counter_ns()
        self.p.stdin.write(cmd + "\n")
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        dt = (time.perf_counter_ns() - t0) / 1e9
        if line.startswith("ok "):
            return json.loads(line[3:]), dt
        raise BenchError(f"worker: {cmd!r} -> {line.strip() or 'no reply'}")

    def proc(self, name):
        with open(f"/proc/{self.p.pid}/{name}") as f:
            return f.read()

    def schedstat(self):
        """(on-CPU ns, run-queue wait ns) of the worker's main thread."""
        on, wait, _ = self.proc("schedstat").split()
        return int(on), int(wait)

    def peak_rss_mb(self):
        for line in self.proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def close(self):
        if self.p.poll() is None:
            try:
                self.p.stdin.write("quit\n")
                self.p.stdin.close()
                self.p.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.p.kill()
        self.p.wait()


class Run:
    """One benchmark run: timings, checks and metrics.

    Every timed repetition runs in a fresh worker process. On the noisy
    2-CPU development VM one process ran up to 1.5x slower than the next
    while staying consistent within itself, so a median over many
    processes varies far less between runs than one process's median.
    """

    def __init__(self, args, exe, worker, catalog):
        self.a = args
        self.exe = exe
        self.w = worker
        self.catalog = catalog
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.on_cpu_ns = 0
        self.wait_ns = 0
        self.measured_s = 0.0

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def host_noise(self, calib):
        cpus = len(os.sched_getaffinity(0))
        log(f"host: cpus={cpus} calib_ms={[round(c * 1e3, 3) for c in calib]} "
            f"on_cpu_s={self.on_cpu_ns / 1e9:.3f} runq_wait_s={self.wait_ns / 1e9:.4f} "
            f"measured_s={self.measured_s:.3f}")
        self.metrics["host.calib_ms"] = statistics.median(calib) * 1e3

        def share(ns):
            return ns / 1e9 / self.measured_s if self.measured_s > 0 else 0.0
        self.metrics["host.oncpu_ratio"] = share(self.on_cpu_ns)
        self.metrics["host.runq_wait_ratio"] = share(self.wait_ns)

    def setups(self, cmd, reset):
        """Host times of SETUP_SAMPLES set-ups in the main worker."""
        out = []
        for _ in range(SETUP_SAMPLES):
            if reset:
                self.w.call("reset")
            out.append(self.w.call(cmd)[1])
        return out

    # -- scenario workloads ---------------------------------------------

    def rep(self, traced):
        """One set-up and drive in a fresh worker; returns its figures."""
        with Worker(self.exe) as w:
            spec, setup_s = w.call(f"setup {self.a.workload} {self.a.seed} {traced}")
            s0 = w.schedstat()
            drive, wall = w.call("drive")
            s1 = w.schedstat()
            out, _ = w.call("outcome")
            r = dict(spec=spec["digest"], setup=setup_s, wall=wall, events=drive["events"],
                     out=out, finished=drive["finished"])
            if traced:
                _, r["collect"] = w.call("collect")
                r["layers"] = w.call("layers")[0]
            else:
                r["rss"] = w.peak_rss_mb()
                self.measured_s += wall
                self.on_cpu_ns += s1[0] - s0[0]
                self.wait_ns += s1[1] - s0[1]
        self.count(out["sessions"], out["failed"] + (0 if drive["finished"] else 1))
        log(f"rep: traced={traced} setup_s={setup_s:.6f} wall_s={wall:.4f} "
            f"events={drive['events']} spec={spec['digest']} results={out['digest']}")
        return r

    def reps(self, seconds):
        reps = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            reps.append(self.rep(0))
        first = reps[0]
        log(f"spec digest={first['spec']} sessions={first['out']['sessions']} "
            f"held_out_seed={HELD_OUT_SEED}")
        self.check("every session finished with its exact byte count",
                   all(r["finished"] and r["out"]["failed"] == 0 for r in reps))
        self.check("the open-loop generator was never late",
                   all(r["out"]["late_ns"] == 0 for r in reps))
        self.check("repetitions generated the same spec and the same results",
                   len({(r["spec"], r["out"]["digest"]) for r in reps}) == 1)
        self.mechanism(first["out"]["metrics"], first["out"])
        return reps

    def mechanism(self, m, out):
        """The workload exercises what it exists to exercise."""
        if self.a.workload == "vanilla-contended":
            self.check("vanilla-contended makes no vRead opens", m["vread.opens"] == 0)
            self.check("vanilla-contended re-reads hit the host store",
                       m["store.hits"] > 0)
        else:
            self.check("vread-cas-mixed admits (and hashes) on store misses",
                       m["store.misses"] > 0)
            self.check("vread-cas-mixed writes", out["write_bytes"] > 0)
            self.check("vread-cas-mixed reads remotely over RDMA", m["cpu.rdma_ms"] > 0)
            self.check("vread-cas-mixed replicas share resident chunks",
                       m["store.effective_capacity_x"] > 1)
            log(f"note: store.dedup_hits={m['store.dedup_hits']:g} (sibling-replica "
                "reads need a replica choice a spec cannot make; see README)")

    def scenario_e2e(self):
        setups = self.setups(f"setup {self.a.workload} {self.a.seed} 0", reset=True)
        reps = self.reps(self.a.seconds)
        self.metrics["wall_s"] = statistics.median(r["wall"] for r in reps)
        self.metrics["setup_s"] = statistics.median(setups)
        self.metrics["peak_rss_mb"] = max(r["rss"] for r in reps)
        m = reps[0]["out"]["metrics"]
        for k in ("read_mbps", "read_p50_ms", "read_p999_ms", "session_p50_s",
                  "session_p90_s", "cpu_ms_per_gb"):
            log(f"sim-result {k} = {m[k]!r}")
        log(f"sim-result read samples = {m['apps.reads']:g}, sessions = {m['apps.sessions']:g}")

    def deploy_s(self):
        """`Deployment::build` alone, in the main worker."""
        out = []
        for _ in range(SHAPE_REPS):
            self.w.call("reset")
            self.w.call(f"spec {self.a.workload} {self.a.seed} 0")
            out.append(self.w.call("deploy")[1])
        return statistics.median(out)

    def scenario_layers(self):
        reps = self.reps(self.a.seconds / 2)
        base = reps[0]
        wall = statistics.median(r["wall"] for r in reps)
        t = self.rep(1)
        layers = t["layers"]
        self.check("the traced run generated the same spec", t["spec"] == base["spec"])
        self.check("the traced run gives the same simulated results",
                   t["out"]["digest"] == base["out"]["digest"])
        self.check("span cycles + unattributed == engine cycles",
                   layers["conserves_cycles"])
        copies = layers["copies_per_read"]
        m = dict(t["out"]["metrics"])
        m.update(layers["metrics"])
        if self.a.workload == "vanilla-contended":
            self.check("vanilla copies per read >= 5", min(copies) >= 5, copies)
            self.check("core layers are idle on vanilla",
                       all(m[f"core.{c}.count"] == 0 for c in ("vfd_read", "vread_open")))
            m["vread.remote_reads"] = 0
        else:
            self.check("vRead copies per read are 1 (dedup map), 2 (local) or 3 (RDMA)",
                       set(copies) <= {1.0, 2.0, 3.0}, copies)
            self.check("vRead local reads take exactly 2 copies", 2.0 in copies, copies)
            self.check("vread-cas-mixed has remote reads", layers["three_copy_reads"] > 0)
            m["vread.remote_reads"] = layers["three_copy_reads"]
        events = base["events"]
        m["sim.events"] = events
        m["sim.events_per_read"] = events / max(m["apps.reads"], 1)
        m["sim.events_per_s"] = events / wall
        m["bench.deploy_s"] = self.deploy_s()
        m["bench.collect_s"] = t["collect"]
        m["bench.trace_overhead_x"] = t["wall"] / wall
        log(f"untraced: wall_s={wall:.4f} ns_per_event={wall / events * 1e9:.2f}; "
            f"traced: wall_s={t['wall']:.4f}")
        self.metrics.update(m)
        self.suite_layers()

    # -- shapes timed beside every traced run ------------------------------

    def shapes(self):
        for shape in ("pingpong", "chain"):
            runs = [self.w.call(shape) for _ in range(SHAPE_REPS)]
            ns = statistics.median(dt for _, dt in runs) * 1e9 / runs[0][0]["events"]
            self.metrics[f"sim.{shape}_ns_per_event"] = ns

    def suite_layers(self):
        """Times each registry experiment alone, and checks it."""
        suite = [name.split(".")[1] for name, _, _ in self.catalog["per_layer"]
                 if name.startswith("suite.")]
        # fresh: fig11 and fig12 memoise their shared measurements for
        # the life of a process
        with Worker(self.exe) as w:
            w.call(f"suite-setup {self.a.seed}")
            for exp in suite:
                v, dt = w.call(f"exp {exp}")
                self.metrics[f"suite.{exp}.wall_s"] = dt
                self.check(f"{exp} matches results/", not v["failed"])
                self.count(1, len(v["failed"]))

    # -- paper-suite -------------------------------------------------------

    def suite_rep(self, threads):
        """One registry run in a fresh worker, so that every repetition
        pays for fig11's memoised measurements as `repro all` does."""
        with Worker(self.exe) as w:
            setup, _ = w.call(f"suite-setup {self.a.seed}")
            res, wall = w.call(f"suite {threads}")
            verdict, collect_s = w.call("suite-check")
            rss = w.peak_rss_mb()
        self.measured_s += wall
        # the pool's workers, not the waiting main thread, did the work
        self.on_cpu_ns += res["oncpu_ns"]
        self.wait_ns += res["runq_wait_ns"]
        self.count(res["experiments"], len(verdict["failed"]))
        log(f"rep: wall_s={wall:.4f} failed={verdict['failed']} "
            f"compared={verdict['compared']}/{setup['goldens']} "
            f"unreferenced={verdict['unreferenced']}")
        return dict(wall=wall, collect=collect_s, verdict=verdict,
                    goldens=setup["goldens"], rss=rss)

    def suite_check(self, reps):
        self.check("every experiment ran and matches results/ numerically",
                   all(not r["verdict"]["failed"] for r in reps))
        self.check("every golden in results/ was compared",
                   all(r["verdict"]["compared"] == r["goldens"] for r in reps))

    def suite_e2e(self):
        threads = len(os.sched_getaffinity(0))
        setups = self.setups(f"suite-setup {self.a.seed}", reset=False)
        reps = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < self.a.seconds:
            reps.append(self.suite_rep(threads))
        self.suite_check(reps)
        self.metrics["wall_s"] = statistics.median(r["wall"] for r in reps)
        self.metrics["setup_s"] = statistics.median(setups)
        self.metrics["peak_rss_mb"] = max(r["rss"] for r in reps)
        log(f"threads={threads} (nproc)")

    def suite_per_layer(self):
        threads = len(os.sched_getaffinity(0))
        reps = [self.suite_rep(threads)]
        self.suite_check(reps)
        self.metrics["bench.collect_s"] = reps[0]["collect"]
        deploys = [self.w.call("testbed")[1] for _ in range(SHAPE_REPS)]
        self.metrics["bench.deploy_s"] = statistics.median(deploys)
        self.suite_layers()

    # -- the run -----------------------------------------------------------

    def go(self):
        calib = [self.w.call("calib")[1]]
        if self.a.workload == "paper-suite":
            (self.suite_per_layer if self.a.trace else self.suite_e2e)()
        else:
            (self.scenario_layers if self.a.trace else self.scenario_e2e)()
        if self.a.trace:
            self.shapes()
        calib.append(self.w.call("calib")[1])
        self.host_noise(calib)
        self.metrics["failed_ops"] = self.failed / max(self.attempted, 1)
        defs = self.catalog["per_layer" if self.a.trace else "end_to_end"]
        out = {}
        for name, unit, better in defs:
            # a layer this workload does not exercise reads 0
            v = self.metrics.get(name, 0)
            if isinstance(v, float) and v != v:
                raise BenchError(f"{name} is not a number")
            out[name] = {"value": v, "unit": unit}
            log(f"metric {name} = {v!r} {unit} ({better} is better)")
        for name, ok, detail in self.checks:
            log(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" {detail}" if not ok else ""))
        correct = all(ok for _, ok, _ in self.checks) and self.failed == 0
        log(f"failed_ops = {self.failed}/{self.attempted}")
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": out}), flush=True)
        return correct


def parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return a


def on_timeout(_sig, _frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def main():
    args = parse()
    try:
        exe = build()
        log(f"perfbench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}")
        signal.signal(signal.SIGALRM, on_timeout)
        signal.alarm(RUN_LIMIT_S)
        with Worker(exe) as worker:
            catalog, _ = worker.call("catalog")
            ok = Run(args, exe, worker, catalog).go()
        signal.alarm(0)
        return 0 if ok else 1
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
