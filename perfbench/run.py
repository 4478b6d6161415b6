#!/usr/bin/env python3
"""Host-cost benchmark of mel++ over the paper's three communication models.

Each workload runs the phases a user runs: build graph -> simulate -> write
a trace -> `meltrace summarize` -> `meltrace replay` what-if. Every phase
runs in a process of its own, repeats its timed work and reports medians,
and has its outputs checked. See perfbench/README.md.

  python3 perfbench/run.py --workload nsr_rgg --seed 1 --seconds 24 --trace 0
  python3 perfbench/run.py --workload all --seed 2        # every workload
  python3 perfbench/run.py ... --save results.jsonl       # keep for compare
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
  python3 perfbench/run.py selfcheck --seed 2             # exact metrics repeat

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 runs
the span run and prints the per-layer metrics. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when every check passed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    model: str
    gen: str
    melsim_graph: tuple
    whatif: str  # net parameter KEY=VALUE: the model's own overhead x4


WORKLOADS = {
    "nsr_rgg": Workload("NSR", "rgg", ("--gen", "rgg", "--verts", "16000"),
                        "o_send=1600"),
    "rma_rgg": Workload("RMA", "rgg", ("--gen", "rgg", "--verts", "16000"),
                        "o_put=640"),
    "ncl_rmat": Workload("NCL", "rmat", ("--gen", "rmat", "--gen-scale", "14"),
                         "o_coll_per_neighbor=1600"),
}
RANKS = 128

# Metrics that are a pure function of (workload, seed): two runs at one
# seed must agree bit for bit. compare checks them for equality.
EXACT = {
    "trace_bytes_per_event",
    "graph.cross_edges", "graph.max_process_degree", "runtime.events",
    "net.virtual_ns", "net.whatif_virtual_ns",
    "mpi.p2p_calls", "mpi.rma_calls", "mpi.neighbor_calls",
    "mpi.global_coll_calls", "mpi.isends", "mpi.recvs", "mpi.iprobes",
    "mpi.puts", "mpi.flushes", "mpi.neighbor_colls", "mpi.allreduces",
    "mpi.payload_bytes", "mpi.iprobe_hit_pct",
    "match.iterations", "match.cardinality", "match.weight",
    "obs.spans", "obs.flows", "obs.instants", "obs.samples",
    "obs.replay_anchors", "obs.replay_error_pct",
}

# The end-to-end run repeats rounds until --seconds have passed, at least
# MIN_ROUNDS. Per in-process phase: (share of --seconds it may spend beyond
# its minimum repetitions, minimum repetitions). Each round also
# summarizes the trace once and replays it REPLAYS_PER_ROUND times: replay
# is the shortest child phase (~1-2 s), so it gets more samples.
MIN_ROUNDS = 2
ROUND_PLAN = {"setup": (0.02, 4), "sim": (0.03, 3), "trace": (0, 2)}
REPLAYS_PER_ROUND = 2
# The reference kernel's median time, in ns, on the 4-vCPU Xeon VM the
# baseline in README.md was taken on. Scaled times read as ns on that
# machine at its median speed. REF_REPS: kernel runs per `ref` child.
REF_NS = 80e6
REF_REPS = 3
SPAN_PLAN = {"sim": (0.12, 5), "spans": (0.88, 3)}


class BenchError(Exception):
    """A phase could not produce its numbers; no result is printed."""


# ------------------------------------------------------------ processes

def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def run_child(cmd):
    """Run cmd to completion; return (stdout, wall seconds, peak RSS MB,
    exit code). The peak RSS is the child's own (wait4 ru_maxrss)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:  # SIGTERM arrives here as SystemExit
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    return out, time.perf_counter() - t0, usage.ru_maxrss / 1024.0, \
        proc.returncode


def scaled(samples):
    """Host times at the reference speed: each (time, reference time)
    sample becomes time * REF_NS / reference time. The host's speed swings
    by up to 1.6x for tens of seconds at a time; the kernel slows with it,
    so the ratio stays put where the raw time does not."""
    return [t * REF_NS / r for t, r in samples]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


# ------------------------------------------------------------------ build

@dataclass
class Tools:
    driver: Path
    melsim: Path
    meltrace: Path


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no mel++ sources in {ROOT}")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench_driver", "melsim", "meltrace"])
    for cmd in steps:
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: " + " ".join(map(str, cmd)))
    return Tools(bdir / "perfbench_driver", bdir / "melpp/tools/melsim",
                 bdir / "melpp/tools/meltrace")


# ------------------------------------------------------------------ runs

@dataclass
class Checks:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Run:
    """One workload at one seed: runs the phases and checks their output."""

    def __init__(self, tools, workdir, name, seed, seconds):
        self.tools = tools
        self.wl = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace_file = workdir / f"{name}-{seed}.trace.json"
        self.checks = Checks()
        self.samples = {}  # phase: [(host ns, reference ns)], end-to-end
        self.last_ref = None  # latest reference kernel time, ns

    def driver(self, phase, share, min_reps, out=False, ref=False):
        cmd = [self.tools.driver, phase, "--model", self.wl.model,
               "--gen", self.wl.gen, "--seed", self.seed,
               "--whatif", self.wl.whatif,
               "--budget", f"{share * self.seconds:.3f}",
               "--min-reps", min_reps]
        if out:
            cmd += ["--out", self.trace_file]
        if ref:
            cmd += ["--ref"]
        text, _, rss_mb, code = run_child(cmd)
        if code != 0:
            raise BenchError(f"{self.name}: driver {phase} exited {code}")
        result = json.loads(text)
        c = result["checks"]
        self.checks.attempted += c["attempted"]
        self.checks.failures += c["failed"]
        result["rss_mb"] = rss_mb
        return result

    def check_melsim(self, run):
        """The benchmark must measure the shipped program: melsim --csv on
        the same flags prints the same virtual time, weight and |M|."""
        text, _, _, code = run_child(
            [self.tools.melsim, "--algo", "match", "--model", self.wl.model,
             "--ranks", RANKS, *self.wl.melsim_graph, "--seed", self.seed,
             "--csv"])
        fields = text.strip().split(",")
        self.checks.expect(
            code == 0 and len(fields) == 9 and fields[3] == run["csv_seconds"]
            and fields[4] == run["csv_weight"]
            and fields[5] == str(run["cardinality"]) and fields[6] == "1",
            f"melsim --csv disagrees: {text.strip()!r} vs {run['csv_seconds']}"
            f" s, weight {run['csv_weight']}, |M| {run['cardinality']}")

    def meltrace(self, *args):
        """Runs one meltrace child on the trace, then the reference kernel.
        Returns its JSON, its (host ns, reference ns) sample with the mean
        of the reference just before and just after it, and its peak RSS."""
        text, wall, rss_mb, code = run_child(
            [self.tools.meltrace, args[0], self.trace_file, *args[1:]])
        self.checks.expect(code == 0, f"meltrace {args[0]} exited {code}")
        before, self.last_ref = self.last_ref, self.reference()
        return ((json.loads(text) if code == 0 else {}),
                (wall * 1e9, (before + self.last_ref) / 2), rss_mb)

    def reference(self):
        """Median time of the reference kernel, measured in a child now."""
        text, _, _, code = run_child([self.tools.driver, "ref",
                                      "--min-reps", REF_REPS])
        if code != 0:
            raise BenchError(f"{self.name}: reference kernel exited {code}")
        return median(json.loads(text)["ref_ns"])

    def end_to_end(self):
        """Rounds of setup -> sim -> trace -> summarize -> replay, each phase
        a fresh process, until --seconds have passed (at least MIN_ROUNDS).
        Every timed sample is kept with the reference kernel time measured
        next to it (see scaled()); each metric is the median over all its
        samples of all rounds, so one slow stretch of the host hits one
        round."""
        samples = self.samples = {p: [] for p in
                                  ("setup", "sim", "trace", "summarize",
                                   "replay")}
        rss = {p: [] for p in ("summarize", "replay")}
        # The timed sim children also run the reference kernel, so the
        # sim's peak RSS comes from one child that runs setup + sim alone.
        alone = self.driver("sim", 0, 1)
        replays = set()
        first = None
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds += 1
            setup = self.driver("setup", *ROUND_PLAN["setup"], ref=True)
            samples["setup"] += zip([g + d for g, d in zip(setup["gen_ns"],
                                                           setup["dist_ns"])],
                                    setup["ref_ns"])
            sim = self.driver("sim", *ROUND_PLAN["sim"], ref=True)
            samples["sim"] += zip(sim["run_ns"], sim["ref_ns"])
            tr = self.driver("trace", *ROUND_PLAN["trace"], out=True,
                             ref=True)
            self.last_ref = self.reference()
            # Long samples take the mean of the reference just before and
            # just after them.
            refs = tr["ref_ns"] + [self.last_ref]
            samples["trace"] += [
                (a + b, (refs[i] + refs[i + 1]) / 2) for i, (a, b) in
                enumerate(zip(tr["run_ns"], tr["write_ns"]))]
            exact = (setup["graph"], sim["run"], sim["whatif_virtual_ns"],
                     tr["run"], tr["trace_bytes"])
            if first is None:
                first = exact
                self.check_melsim(sim["run"])
            self.checks.expect(exact == first, "graph, run, what-if truth "
                               "or trace size differ between rounds")
            self.checks.expect(
                tr["run"] == sim["run"], "traced run differs from the "
                "untraced run (trace_hash, virtual time, counters, matching)")

            s, sample, rss_mb = self.meltrace("summarize", "--json")
            self.checks.expect(s.get("violations") == [] and
                               s.get("dangling_flows") == 0,
                               "meltrace summarize reports violations or "
                               "dangling flows")
            samples["summarize"].append(sample)
            rss["summarize"].append(rss_mb)

            for _ in range(REPLAYS_PER_ROUND):
                r, sample, rss_mb = self.meltrace(
                    "replay", "--set", "net." + self.wl.whatif, "--json")
                self.checks.expect(
                    r.get("recorded_total_ns") == sim["run"]["virtual_ns"],
                    "meltrace replay's recorded_total_ns != simulated "
                    "virtual time")
                replays.add((r.get("replayed_total_ns"), r.get("digest")))
                samples["replay"].append(sample)
                rss["replay"].append(rss_mb)
        self.checks.expect(len(replays) == 1,
                           "meltrace replay differs between rounds")
        self.checks.expect(alone["run"] == first[1], "sim runs differ")
        events = first[1]["events"]
        host = {p: median(scaled(v)) for p, v in samples.items()}
        return {
            "setup_s": host["setup"] / 1e9,
            "sim_ns_per_event": host["sim"] / events,
            "sim_peak_rss_mb": alone["rss_mb"],
            "trace_ns_per_event": host["trace"] / events,
            "trace_bytes_per_event": first[4] / events,
            "summarize_ns_per_event": host["summarize"] / events,
            "summarize_peak_rss_kb_per_event":
                median(rss["summarize"]) * 1024 / events,
            "replay_ns_per_event": host["replay"] / events,
            "replay_peak_rss_kb_per_event":
                median(rss["replay"]) * 1024 / events,
        }

    def per_layer(self):
        sim = self.driver("sim", *SPAN_PLAN["sim"], ref=True)
        self.check_melsim(sim["run"])
        # A process that only traces and writes: its peak RSS steps with
        # the seed (see README.md), so it is a per-layer metric.
        tr = self.driver("trace", 0, 1, out=True)
        sp = self.driver("spans", *SPAN_PLAN["spans"], out=True)
        run = sp["run"]
        self.checks.expect(run == sim["run"] and tr["run"] == run,
                           "span run or trace run differs from the untraced "
                           "run")
        events = run["events"]

        durations = {}
        for s in sp["spans"]:
            durations.setdefault(s["name"], []).append(s["end_ns"] - s["start_ns"])

        def span_ms(name):
            return median(durations[name]) / 1e6

        prof = sp["prof"]

        def prof_med(section, key):
            return median([p[section][key] for p in prof])

        subsystems = ("p2p", "rma", "neighbor", "global_coll", "transport")
        unlabelled = [100.0 * (p["event_loop"]["ns"] -
                               sum(p[s]["ns"] for s in subsystems)) /
                      p["event_loop"]["ns"] for p in prof]
        outside = [wall - p["event_loop"]["ns"] for wall, p in
                   zip(durations["match.run_match.prof"], prof)]
        untraced_ms = span_ms("match.run_match")
        # Two processes at two times: compare them at the reference speed.
        span_run = median(scaled(zip(durations["match.run_match"],
                                     durations["bench.reference"])))
        sim_run = median(scaled(zip(sim["run_ns"], sim["ref_ns"])))
        truth = sp["whatif_virtual_ns"]
        rec = sp["recorder"]
        m = {
            "gen.graph_s": span_ms("gen.graph") / 1e3,
            "graph.distribute_s": span_ms("graph.distribute") / 1e3,
            "graph.cross_edges": sp["graph"]["cross_edges"],
            "graph.max_process_degree": sp["graph"]["max_process_degree"],
            "runtime.events": events,
            "runtime.event_loop_ms": prof_med("event_loop", "ns") / 1e6,
            "runtime.unlabelled_pct": median(unlabelled),
            "net.virtual_ns": run["virtual_ns"],
            "net.whatif_virtual_ns": truth,
            "match.iterations": run["iterations"],
            "match.cardinality": run["cardinality"],
            "match.weight": run["weight"],
            "match.outside_loop_ms": median(outside) / 1e6,
            "match.verify_ms": span_ms("match.verify"),
            "obs.hooks_ns_per_event":
                (span_ms("obs.run_match_traced") - untraced_ms) * 1e6 / events,
            "obs.write_ns_per_event":
                span_ms("obs.write_chrome_file") * 1e6 / events,
            "obs.trace_peak_rss_mb": tr["rss_mb"],
            "obs.spans": rec["spans"],
            "obs.flows": rec["flows"],
            "obs.instants": rec["instants"],
            "obs.samples": rec["samples"],
            "obs.summarize_ms": span_ms("obs.summarize"),
            "obs.replay_load_ms": span_ms("obs.load_replay_trace_file"),
            "obs.replay_build_ms": span_ms("obs.replayer_build"),
            "obs.replay_reprice_ms": span_ms("obs.replay"),
            "obs.replay_fidelity_ms": span_ms("obs.fidelity_errors"),
            "obs.critical_ms": span_ms("obs.critical_path"),
            "obs.replay_anchors": sp["replay"]["anchors"],
            "obs.replay_error_pct":
                100.0 * abs(sp["replay"]["replayed_total_ns"] - truth) / truth,
            "prof.overhead_pct":
                100.0 * (span_ms("match.run_match.prof") - untraced_ms) /
                untraced_ms,
            "bench.span_overhead_pct": 100.0 * (span_run - sim_run) / sim_run,
        }
        for section, name in (("p2p", "p2p"), ("rma", "rma"),
                              ("neighbor", "neighbor"),
                              ("global_coll", "global_coll")):
            m[f"mpi.{name}_ms"] = prof_med(section, "ns") / 1e6
            m[f"mpi.{name}_calls"] = prof_med(section, "calls")
        for key in ("isends", "recvs", "iprobes", "puts", "flushes",
                    "neighbor_colls", "allreduces", "payload_bytes"):
            m[f"mpi.{key}"] = run[key]
        m["mpi.iprobe_hit_pct"] = (100.0 * run["recvs"] / run["iprobes"]
                                   if run["iprobes"] else 0.0)
        return m


def measure(tools, workdir, name, seed, seconds, trace, spec):
    """Run one workload; return the result object the contract prints."""
    r = Run(tools, workdir, name, seed, seconds)
    try:
        values = r.per_layer() if trace else r.end_to_end()
    finally:
        r.trace_file.unlink(missing_ok=True)
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for d in declared:
        v = values.get(d["name"])
        r.checks.expect(isinstance(v, (int, float)) and math.isfinite(v),
                        f"metric {d['name']} missing or not finite")
        metrics[d["name"]] = {"value": v, "unit": d["unit"]}
    r.checks.expect(set(values) == {d["name"] for d in declared},
                    "metrics differ from BENCHMARK.json: " +
                    str(sorted(set(values) ^ {d["name"] for d in declared})))
    return {"correct": not r.checks.failures,
            "attempted": r.checks.attempted,
            "failed": len(r.checks.failures),
            "metrics": metrics}, r


def print_table(name, result):
    for metric, v in result["metrics"].items():
        print(f"{name:9s} {metric:28s} {v['value']:>16.6g} {v['unit']}")


@contextmanager
def workspace():
    """Builds the tools; yields them with a scratch directory for traces,
    inside the build tree, that is removed however the run ends."""
    tools = build()
    workdir = tools.driver.parent / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield tools, workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cmd_run(args, spec):
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    failures = []
    with workspace() as (tools, workdir):
        for name in names:
            result, run = measure(tools, workdir, name, args.seed,
                                  args.seconds, args.trace, spec)
            results[name] = result
            failures += [f"{name}: {f}" for f in run.checks.failures]
            print_table(name, result)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps({"workload": name, "seed": args.seed,
                                        "trace": args.trace,
                                        "result": result,
                                        "samples": run.samples}) + "\n")
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": not failures,
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": len(failures),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if not failures else 1


# --------------------------------------------------------------- compare

def load_results(path):
    """{(workload, trace): {metric: {seed: value}}} from a --save file."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        per = out.setdefault((rec["workload"], rec["trace"]), {})
        for metric, v in rec["result"]["metrics"].items():
            per.setdefault(metric, {})[rec["seed"]] = v["value"]
    return out


def cmd_compare(args, spec):
    """Per workload x metric: each side's median and quartiles, the delta,
    and a verdict. A timed metric is 'unresolved' when either side's
    spread (IQR / median) exceeds its bound, unless every change run beats
    every parent run; exact metrics must be equal at every shared seed."""
    parent, change = load_results(args.parent), load_results(args.change)
    declared = {d["name"]: d for d in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    for key in sorted(set(parent) & set(change)):
        print(f"== {key[0]} (trace {key[1]})")
        for metric in sorted(set(parent[key]) & set(change[key])):
            a, b = parent[key][metric], change[key][metric]
            d = declared.get(metric, {"better": "lower", "unit": "?"})
            av, bv = list(a.values()), list(b.values())
            ma, mb = median(av), median(bv)
            delta = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else
                                                    math.inf)
            if metric in EXACT:
                diff = [s for s in set(a) & set(b) if a[s] != b[s]]
                verdict = (f"exact DIFFERS at seeds {sorted(diff)}" if diff
                           else "exact equal" if set(a) & set(b)
                           else "exact (no shared seed)")
            elif "bound" not in d:
                verdict = ""
            else:
                lower = d["better"] == "lower"
                worse = delta if lower else -delta
                spread = max((quartiles(v)[1] - quartiles(v)[0]) / abs(m)
                             if m else 0.0 for v, m in ((av, ma), (bv, mb)))
                if (max(bv) < min(av)) if lower else (min(bv) > max(av)):
                    verdict = "better in every run"
                elif spread > d["bound"]:
                    verdict = f"unresolved (spread {spread:.1%} > bound)"
                elif worse > d["bound"]:
                    verdict = f"REGRESSED (bound {d['bound']:.0%})"
                else:
                    verdict = f"within bound {d['bound']:.0%}"
            if "DIFFERS" in verdict or "REGRESSED" in verdict:
                bad += 1
            qa, qb = quartiles(av), quartiles(bv)
            print(f"  {metric:28s} {ma:>12.6g} [{qa[0]:.4g}, {qa[1]:.4g}]"
                  f" -> {mb:>12.6g} [{qb[0]:.4g}, {qb[1]:.4g}]"
                  f" {delta:+8.2%} {d['unit']:6s} {verdict}")
    return 1 if bad else 0


def cmd_selfcheck(args, spec):
    """Runs each workload twice at one seed, both modes, and requires every
    check to pass and every exact metric to repeat bit for bit."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bad = 0
    with workspace() as (tools, workdir):
        for name in names:
            for trace in (0, 1):
                ra, rb = (measure(tools, workdir, name, args.seed,
                                  args.seconds, trace, spec)[0]
                          for _ in range(2))
                bad += ra["failed"] + rb["failed"]
                a, b = ra["metrics"], rb["metrics"]
                for metric in sorted(EXACT & set(a)):
                    same = a[metric]["value"] == b[metric]["value"]
                    bad += not same
                    print(f"{name:9s} {metric:28s} {a[metric]['value']!r:>22}"
                          f" {'repeats' if same else 'DIFFERS: ' + repr(b[metric]['value'])}")
    return 1 if bad else 0


def main():
    signal.signal(signal.SIGTERM, _terminate)
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        args = ap.parse_args(sys.argv[2:])
        return cmd_compare(args, json.loads(SPEC.read_text()))
    selfcheck = len(sys.argv) > 1 and sys.argv[1] == "selfcheck"
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append each result to this JSONL file")
    args = ap.parse_args(sys.argv[2:] if selfcheck else sys.argv[1:])
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        return cmd_selfcheck(args, spec) if selfcheck else cmd_run(args, spec)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
