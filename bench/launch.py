"""Run one `jchsim` CLI call in this process, recording layer boundaries.

Usage: python3 launch.py MARKS_JSON MODE -- JCHSIM_ARGS...

MODE is one of
  plain   only the set-up boundary is marked: the first call that starts
          an evolution or a fit records its time and nothing else changes;
  trace   every layer call listed in TRACED is timed and counted;
  setup   as plain, but the process exits at the set-up boundary, so the
          parent can sample set-up time without paying for the rest.

The wrappers are installed on the names the calling module looks up, so
jchsim itself is unchanged.  A wrapper whose target no longer exists
raises, which fails the run instead of reporting a zero.  MARKS_JSON
receives absolute time.monotonic() stamps (system-wide on Linux, so the
parent can subtract its own launch stamp) plus the span totals.
"""

import json
import os
import sys
import threading
import time
from collections import defaultdict

MARKS = {"imported": None, "setup": None}
SPANS = defaultdict(lambda: [0.0, 0])  # name -> [seconds, calls]
COUNTS = defaultdict(int)
_MATVEC_LOG = []  # (matvecs, bytes per matvec) per Lanczos attempt
_LOCAL = threading.local()
_LOCK = threading.Lock()

# (module, attribute looked up by the caller, span name)
SETUP_BOUNDARY = [
    ("jchsim.experiment", "evolve"),
    ("jchsim.cli", "fit_chain_from_spectrum"),
    ("jchsim.cli", "fit_beam_profile"),
]
TRACED = [
    ("jchsim.experiment", "parse_config", "experiment.parse_config"),
    ("jchsim.experiment", "resolve_model", "experiment.resolve_model"),
    ("jchsim.experiment", "anchor_transverse_frequency",
     "ion_chain.anchor_transverse_frequency"),
    ("jchsim.experiment", "_write_artifacts", "experiment.write_artifacts"),
    # scan.csv; inside _write_artifacts the shared span name keeps a nested
    # call from being counted twice.
    ("jchsim.experiment", "_atomic_write", "experiment.write_artifacts"),
    ("jchsim.experiment", "enumerate_sector", "fock_basis.enumerate_sector"),
    ("jchsim.experiment", "build_hamiltonian", "hamiltonian.build_hamiltonian"),
    ("jchsim.experiment", "evolve", "propagator.evolve"),
    ("jchsim.cli", "fit_chain_from_spectrum", "calibration.fit_chain_from_spectrum"),
    ("jchsim.cli", "fit_beam_profile", "calibration.fit_beam_profile"),
    ("jchsim.calibration", "_predicted_spectrum", "ion_chain.forward_solve"),
]


def _patch(module_name, attr, make):
    module = sys.modules[module_name]
    original = getattr(module, attr)  # AttributeError if the layer moved
    setattr(module, attr, make(original))


def _setup_marker(stop):
    def make(fn):
        def wrapper(*args, **kwargs):
            if MARKS["setup"] is None:
                MARKS["setup"] = time.monotonic()
                if stop:
                    _write_marks()
                    os._exit(0)
            return fn(*args, **kwargs)
        return wrapper
    return make


def _span(name):
    def make(fn):
        def wrapper(*args, **kwargs):
            depth = getattr(_LOCAL, name, 0)
            setattr(_LOCAL, name, depth + 1)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                setattr(_LOCAL, name, depth)
            if depth == 0:
                elapsed = time.perf_counter() - start
                with _LOCK:
                    SPANS[name][0] += elapsed
                    SPANS[name][1] += 1
                    _observe(name, result)
            return result
        return wrapper
    return make


def _observe(name, result):
    """Counts read off a layer's return value (called under _LOCK)."""
    if name == "fock_basis.enumerate_sector":
        COUNTS["fock_basis.dimension"] = max(COUNTS["fock_basis.dimension"], len(result))
    elif name == "hamiltonian.build_hamiltonian":
        m = result.matrix
        COUNTS["hamiltonian.nnz"] = max(COUNTS["hamiltonian.nnz"], m.nnz)
        csr = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        COUNTS["hamiltonian.csr_bytes"] = max(COUNTS["hamiltonian.csr_bytes"], csr)


def _count_matvecs(propagator):
    """Count Krylov matvecs; bytes are computed from the CSR array sizes."""
    krylov, step = propagator.propagate_krylov, propagator._lanczos_step

    def propagate(h, *args, **kwargs):
        m = h.matrix
        # One complex matvec = two real CSR products, each reading the CSR
        # arrays and an 8-byte real vector and writing an 8-byte result.
        _LOCAL.matvec_bytes = 2 * (m.data.nbytes + m.indices.nbytes
                                   + m.indptr.nbytes + 16 * m.shape[0])
        return krylov(h, *args, **kwargs)

    def lanczos(matvec, *args, **kwargs):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return matvec(x)

        try:
            return step(counted, *args, **kwargs)
        finally:
            with _LOCK:
                _MATVEC_LOG.append((calls[0], _LOCAL.matvec_bytes))

    propagator.propagate_krylov = propagate
    propagator._lanczos_step = lanczos


def _write_marks():
    spans = {name: {"s": s, "calls": n} for name, (s, n) in SPANS.items()}
    counts = dict(COUNTS)
    if MODE == "trace":
        counts["propagator.matvecs"] = sum(n for n, _ in _MATVEC_LOG)
        counts["propagator.matvec_bytes"] = sum(n * b for n, b in _MATVEC_LOG)
    with open(MARKS_PATH, "w") as fh:
        json.dump({"marks": MARKS, "spans": spans, "counts": counts}, fh)


def main():
    import jchsim.cli
    import jchsim.calibration  # noqa: F401  (patched below)
    import jchsim.propagator

    MARKS["imported"] = time.monotonic()
    if MODE == "trace":
        for module, attr, name in TRACED:
            _patch(module, attr, _span(name))
        _count_matvecs(jchsim.propagator)
    for module, attr in SETUP_BOUNDARY:
        _patch(module, attr, _setup_marker(stop=MODE == "setup"))
    try:
        code = jchsim.cli.main(ARGS)
    finally:
        _write_marks()
    return code


if __name__ == "__main__":
    MARKS_PATH, MODE = sys.argv[1], sys.argv[2]
    if MODE not in ("plain", "trace", "setup") or sys.argv[3] != "--":
        sys.exit("usage: launch.py MARKS_JSON plain|trace|setup -- ARGS...")
    ARGS = sys.argv[4:]
    sys.exit(main())
