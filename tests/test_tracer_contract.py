"""The benchmark tracer wraps cyclealg functions by name; every such name must exist.

``perfbench/tracer.py`` replaces each traced function in every cyclealg
module that bound it, and puts the originals back on uninstall.  Without
this test, renaming or removing a traced name would surface only as a crashed
traced benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

# registers every module the tracer wraps; matrix_model runs on its first use
import cyclealg.cli  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, qualname):
    owner = sys.modules[module]
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def _bindings(traced):
    """Each traced attribute where it lives, and every name of every cyclealg module."""
    where = {(module, qualname): _resolve(module, qualname) for module, qualname in traced}
    names = {(name, key): value for name, mod in list(sys.modules.items())
             if name.startswith("cyclealg") for key, value in vars(mod).items()}
    return where, names


def test_tracer_wraps_every_traced_name_and_restores_the_originals():
    tracer_module = _load_tracer()
    traced = [(module, qualname)
              for module, qualname, _ in tracer_module.SPANNED + tracer_module.COUNTED]
    before_where, before_names = _bindings(traced)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for (module, qualname), original in before_where.items():
            assert _resolve(module, qualname).__wrapped__ is original, (module, qualname)
    finally:
        tracer.uninstall()
    after_where, after_names = _bindings(traced)
    assert after_where.keys() == before_where.keys()
    assert all(after_where[key] is value for key, value in before_where.items())
    assert after_names.keys() == before_names.keys()
    changed = [key for key, value in before_names.items() if after_names[key] is not value]
    assert not changed, changed


INSTALL_AFTER_CLI_IMPORT = """
import importlib.util, sys
import cyclealg.cli
assert "numpy" not in sys.modules
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.Tracer().install().uninstall()
"""


def test_tracer_installs_after_only_importing_the_cli():
    # the benchmark worker imports cyclealg.cli alone, then installs the tracer
    proc = subprocess.run([sys.executable, "-c", INSTALL_AFTER_CLI_IMPORT, str(TRACER_PATH)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
