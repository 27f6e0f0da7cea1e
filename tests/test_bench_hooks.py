"""The benchmark wraps jchsim functions by module and name; they must exist.

bench/launch.py patches the names listed in its TRACED and SETUP_BOUNDARY
tables, and wraps propagator._lanczos_step and propagate_krylov to count
matvecs.  A refactor that moves one of them would otherwise only fail in
a traced benchmark run.
"""

import importlib
import os
import types

import pytest

LAUNCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "launch.py"
)


@pytest.fixture(scope="module")
def launch():
    # Executing the source runs only the module body (tables and
    # definitions): main() sits behind the __main__ guard, and no bytecode
    # cache is written next to the benchmark.
    module = types.ModuleType("bench_launch")
    with open(LAUNCH) as fh:
        exec(compile(fh.read(), LAUNCH, "exec"), module.__dict__)
    return module


def test_hook_tables_are_not_empty(launch):
    assert launch.TRACED and launch.SETUP_BOUNDARY


def test_every_hook_resolves(launch):
    hooks = [(m, a) for m, a, _ in launch.TRACED] + list(launch.SETUP_BOUNDARY)
    for module_name, attr in hooks:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_matvec_counter_targets_exist():
    propagator = importlib.import_module("jchsim.propagator")
    assert callable(propagator._lanczos_step)
    assert callable(propagator.propagate_krylov)
