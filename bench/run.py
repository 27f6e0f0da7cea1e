"""Benchmark for jchsim: three workloads, each driving the CLI as users do.

Usage (from the root of a checkout):
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one `jchsim` CLI call in a fresh Python process, run
through bench/launch.py.  A run repeats whole rounds of the workload's
calls until S seconds have passed, checks every output against the
references in bench/checks.py, and prints one JSON object as its last
line.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
plain and traced rounds and reports the per-layer metrics.  See
bench/README.md for the workloads, metrics and measured spreads.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
LAUNCH = os.path.join(HERE, "launch.py")
CALL_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
import checks  # noqa: E402


class Call:
    """One CLI process: what was run and what it measured."""

    def __init__(self, tag, args, out_dir=None):
        self.tag, self.args, self.out_dir = tag, args, out_dir
        self.ok = False
        self.wall_s = self.setup_s = self.import_s = self.cpu_s = math.nan
        self.rss_mb = math.nan
        self.stdout = ""
        self.spans, self.counts = {}, {}


def launch(call, mode, work, env):
    marks_path = os.path.join(work, f"{call.tag}.marks.json")
    log_path = os.path.join(work, f"{call.tag}.log")
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, LAUNCH, marks_path, mode, "--", *call.args],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path) as fh:
        call.stdout = fh.read()
    call.wall_s = end - start
    call.cpu_s = usage.ru_utime + usage.ru_stime
    call.rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0 or not os.path.exists(marks_path):
        print(f"[bench] {call.tag} exited {proc.returncode}:\n{call.stdout}",
              file=sys.stderr)
        return call
    with open(marks_path) as fh:
        marks = json.load(fh)
    if marks["marks"]["setup"] is None:
        print(f"[bench] {call.tag} never reached an evolution or fit", file=sys.stderr)
        return call
    call.import_s = marks["marks"]["imported"] - start
    call.setup_s = marks["marks"]["setup"] - start
    call.spans, call.counts = marks["spans"], marks["counts"]
    call.ok = True
    return call


# ------------------------------------------------------------- workloads

class Sector8x8:
    """N=8, M=8 (D = 157,184): Hamiltonian build, sparse Krylov, memory."""

    probes_per_round = 0  # each round's own call already spends ~7 s in set-up

    def __init__(self, root, work, seed):
        rng = np.random.default_rng(seed)
        with open(os.path.join(INPUTS, "sector8x8.cfg")) as fh:
            text = fh.read()
        text = re.sub(r"(?m)^g_kHz = .*$", f"g_kHz = {11.5 + rng.uniform(-0.1, 0.1):.6f}", text)
        text = re.sub(r"(?m)^delta_kHz = .*$",
                      f"delta_kHz = {-60.0 + rng.uniform(-1.0, 1.0):.6f}", text)
        self.config = os.path.join(work, "sector8x8.cfg")
        with open(self.config, "w") as fh:
            fh.write(text)
        self.work = work

    def calls(self, tag):
        out = os.path.join(self.work, tag)
        return [Call(tag, ["simulate", self.config, "--output-dir", out], out)]

    def check(self, calls):
        ref = checks.SectorReference(calls[0].out_dir)
        return {c.tag: checks.check_sector(c.out_dir, ref) for c in calls}


class DetuningScan:
    """The shipped fig3a_scan.cfg with --threads 2: 13 detunings on N=4,
    M=4 (D=192), 100 steps each; per-call overhead dominates."""

    probes_per_round = 2

    def __init__(self, root, work, seed):
        # The seed changes nothing here: the workload is the shipped scan.
        self.config = os.path.join(root, "configs", "fig3a_scan.cfg")
        with open(self.config) as fh:
            keys = dict(line.split("#", 1)[0].split("=", 1) for line in fh
                        if "=" in line.split("#", 1)[0])
        keys = {k.strip(): v.strip() for k, v in keys.items()}
        self.deltas = [float(v) for v in keys["delta_scan_kHz"].split(",")]
        self.scan_ion = int(keys["scan_ion"])
        self.work = work

    def calls(self, tag):
        out = os.path.join(self.work, tag)
        return [Call(tag, ["--threads", "2", "simulate", self.config,
                           "--output-dir", out], out)]

    def check(self, calls):
        refs = checks.scan_references(calls[0].out_dir, self.deltas)
        return {c.tag: checks.check_scan(c.out_dir, self.deltas, self.scan_ion, refs)
                for c in calls}


class Calibrate:
    """Spectrum fits of the measured 4- and 20-ion chains plus a Rabi fit
    of a seeded synthetic beam; Nelder-Mead over the ion_chain model."""

    probes_per_round = 2

    def __init__(self, root, work, seed):
        self.measured, self.spacings = {}, {}
        for n in (4, 20):
            self.measured[n] = checks.read_column(
                os.path.join(INPUTS, f"spectrum_{n}.csv"), "frequency_MHz")
            self.spacings[n] = checks.read_column(
                os.path.join(INPUTS, f"spacings_{n}.csv"), "spacing_um")
        z = np.concatenate([[0.0], np.cumsum(self.spacings[20])])
        table, self.truth = checks.rabi_table(seed, z - z.mean())
        self.rabi = os.path.join(work, "rabi.csv")
        with open(self.rabi, "w") as fh:
            fh.write(table)

    def calls(self, tag):
        # The fit seed stays at the CLI default: the multi-start jitter it
        # drives changes the 4-ion fit's work about fifteenfold.
        spectrum = lambda n: ["calibrate", "--spectrum",
                              os.path.join(INPUTS, f"spectrum_{n}.csv")]
        return [Call(f"{tag}-spectrum4", spectrum(4)),
                Call(f"{tag}-spectrum20", spectrum(20)),
                Call(f"{tag}-rabi", ["calibrate", "--rabi", self.rabi])]

    def check(self, calls):
        fails = {}
        for c in calls:
            if c.tag.endswith("rabi"):
                fails[c.tag] = checks.check_rabi_fit(c.stdout, self.truth)
            else:
                n = 4 if c.tag.endswith("spectrum4") else 20
                fails[c.tag] = checks.check_spectrum_fit(
                    c.stdout, self.measured[n], self.spacings[n])
        return fails


WORKLOADS = {"sector8x8": Sector8x8, "detuning_scan": DetuningScan,
             "calibrate": Calibrate}

# Layer counts each workload must produce; a zero means the tracing lost
# its hook, and the traced run fails rather than report an improvement.
EXPECTED_NONZERO = {
    "sector8x8": ["experiment.parse_config_s", "experiment.resolve_model_s",
                  "ion_chain.anchor_transverse_frequency_s",
                  "experiment.write_artifacts_s", "experiment.output_bytes",
                  "fock_basis.enumerate_sector_s", "fock_basis.dimension",
                  "hamiltonian.build_hamiltonian_s", "hamiltonian.nnz",
                  "hamiltonian.csr_bytes", "propagator.evolve_s",
                  "propagator.matvecs", "propagator.matvec_bytes"],
    "calibrate": ["calibration.fit_chain_from_spectrum_s",
                  "calibration.forward_solves", "ion_chain.forward_solve_s",
                  "calibration.fit_beam_profile_s"],
}
EXPECTED_NONZERO["detuning_scan"] = EXPECTED_NONZERO["sector8x8"]

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "experiment.parse_config_s": "s",
    "experiment.resolve_model_s": "s",
    "ion_chain.anchor_transverse_frequency_s": "s",
    "experiment.write_artifacts_s": "s",
    "experiment.output_bytes": "bytes",
    "fock_basis.enumerate_sector_s": "s",
    "fock_basis.dimension": "count",
    "hamiltonian.build_hamiltonian_s": "s",
    "hamiltonian.nnz": "count",
    "hamiltonian.csr_bytes": "bytes",
    "propagator.evolve_s": "s",
    "propagator.matvecs": "count",
    "propagator.evolve_s_per_matvec": "s",
    "propagator.matvec_bytes": "bytes",
    "calibration.fit_chain_from_spectrum_s": "s",
    "calibration.forward_solves": "count",
    "ion_chain.forward_solve_s": "s",
    "calibration.fit_beam_profile_s": "s",
    "process.cpu_s": "s",
    "host.steal_s": "s",
    "trace.overhead_s": "s",
}


def _output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir) for f in files)


def layer_metrics(round_calls):
    """Per-layer values of one traced round (sums over its calls)."""
    def span(name):
        return sum(c.spans.get(name, {}).get("s", 0.0) for c in round_calls)

    def count(name, combine=sum):
        return combine([c.counts.get(name, 0) for c in round_calls])

    m = {
        "cli.import_s": statistics.median(c.import_s for c in round_calls),
        "process.cpu_s": sum(c.cpu_s for c in round_calls),
        "experiment.output_bytes": sum(_output_bytes(c.out_dir) for c in round_calls
                                       if c.out_dir),
        "fock_basis.dimension": count("fock_basis.dimension", max),
        "hamiltonian.nnz": count("hamiltonian.nnz", max),
        "hamiltonian.csr_bytes": count("hamiltonian.csr_bytes", max),
        "propagator.matvecs": count("propagator.matvecs"),
        "propagator.matvec_bytes": count("propagator.matvec_bytes"),
        "calibration.forward_solves": sum(
            c.spans.get("ion_chain.forward_solve", {}).get("calls", 0) for c in round_calls),
    }
    for name in ("experiment.parse_config", "experiment.resolve_model",
                 "ion_chain.anchor_transverse_frequency", "experiment.write_artifacts",
                 "fock_basis.enumerate_sector", "hamiltonian.build_hamiltonian",
                 "propagator.evolve", "calibration.fit_chain_from_spectrum",
                 "calibration.fit_beam_profile"):
        m[f"{name}_s"] = span(name)
    solves = m["calibration.forward_solves"]
    m["ion_chain.forward_solve_s"] = span("ion_chain.forward_solve") / solves if solves else 0.0
    matvecs = m["propagator.matvecs"]
    m["propagator.evolve_s_per_matvec"] = m["propagator.evolve_s"] / matvecs if matvecs else 0.0
    return m


def read_steal_s():
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    for need in (os.path.join(src, "jchsim", "cli.py"),
                 os.path.join(root, "configs", "fig3a_scan.cfg")):
        if not os.path.isfile(need):
            print(f"error: {need} not found; run from the root of a jchsim checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    # Turn SIGTERM into SystemExit so the running call is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(root, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, root, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, work, env):
    workload = WORKLOADS[args.workload](root, work, args.seed)
    steal0 = read_steal_s()
    deadline = time.monotonic() + args.seconds
    full, probes, traced, plain_rounds = [], [], [], []
    k = 0
    while k == 0 or time.monotonic() < deadline:
        calls = [launch(c, "plain", work, env) for c in workload.calls(f"r{k}")]
        plain_rounds.append(calls)
        if args.trace:
            traced.append([launch(c, "trace", work, env)
                           for c in workload.calls(f"r{k}t")])
        else:
            for p in range(workload.probes_per_round):
                for c in workload.calls(f"r{k}p{p}")[:1]:
                    probes.append(launch(c, "setup", work, env))
        k += 1
        print(f"[bench] round {k}: " + " ".join(
            f"{c.tag}={c.wall_s:.2f}s" for c in calls), file=sys.stderr)
    steal_s = read_steal_s() - steal0

    for rnd in traced:
        full += rnd
    for rnd in plain_rounds:
        full += rnd
    ran = [c for c in full if c.ok]
    failures = workload.check(ran) if ran else {}
    bad = {tag for tag, msgs in failures.items() if msgs}
    for tag in sorted(bad):
        for msg in failures[tag]:
            print(f"[bench] CHECK FAILED {tag}: {msg}", file=sys.stderr)
    attempted = len(full) + len(probes)
    failed = sum(not c.ok for c in full + probes) + len(bad)

    def rounds_ok(rounds):
        return [r for r in rounds if all(c.ok and c.tag not in bad for c in r)]

    good_plain = rounds_ok(plain_rounds)
    if not good_plain:
        print("[bench] no round completed", file=sys.stderr)
        return 1
    if args.trace:
        good_traced = rounds_ok(traced)
        if not good_traced:
            print("[bench] no traced round completed", file=sys.stderr)
            return 1
        per_round = [layer_metrics(r) for r in good_traced]
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        values["host.steal_s"] = steal_s
        values["trace.overhead_s"] = (
            statistics.median(sum(c.wall_s for c in r) for r in good_traced)
            - statistics.median(sum(c.wall_s for c in r) for r in good_plain))
        zero = [n for n in EXPECTED_NONZERO[args.workload] if not values[n] > 0]
        if zero:
            print(f"[bench] traced run read zero for {zero}", file=sys.stderr)
            return 1
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}
    else:
        setups = [c.setup_s for r in good_plain for c in r]
        setups += [c.setup_s for c in probes if c.ok]
        metrics = {
            "time_to_solution_s": {"value": statistics.median(
                sum(c.wall_s for c in r) for r in good_plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                max(c.rss_mb for c in r) for r in good_plain), "unit": "MB"},
        }
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
