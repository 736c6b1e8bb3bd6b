"""The package's lazy exports and what importing it loads."""

import importlib
import os
import subprocess
import sys

import sawlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sawlab.__file__)))


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's
    sawlab; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout


def test_import_loads_no_pool_config_or_oracle_modules():
    out = fresh("import sys, sawlab, sawlab.cli\n"
                "print(*sorted(sys.modules))")
    loaded = out.split()
    assert "sawlab.cli" in loaded and "sawlab.counting" in loaded
    unwanted = ("concurrent.futures", "multiprocessing", "configparser",
                "sawlab.verify", "sawlab.reference")
    assert [m for m in loaded
            if any(m == u or m.startswith(u + ".") for u in unwanted)] == []


def test_every_export_is_its_defining_modules_object():
    for name in sawlab.__all__:
        obj = getattr(sawlab, name)
        assert obj.__module__.startswith("sawlab."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj


# names the package once exported, with no alias left behind
DELETED = ("sample_uniform", "sample_two_sided", "sample_escaping",
           "sample_prefix_conditioned", "exact_mean_density", "LatticePoint",
           "save_config")


def test_dir_and_star_import_list_every_export():
    out = fresh("import sawlab\n"
                "listed = dir(sawlab)\n"
                "ns = {}\n"
                "exec('from sawlab import *', ns)\n"
                "print(len(sawlab.__all__))\n"
                "print(*(n for n in sawlab.__all__ if n not in listed))\n"
                "print(*(n for n in sawlab.__all__ if ns.get(n) is not "
                "getattr(sawlab, n)))\n"
                f"print(*(n for n in {DELETED!r} if n in listed or n in ns))")
    count, not_listed, not_bound, deleted = out.split("\n")[:4]
    assert int(count) == len(sawlab.__all__)
    assert not_listed == "" and not_bound == ""
    assert deleted == "" and not set(DELETED) & set(sawlab.__all__)
    assert "count_saws" in sawlab.__all__ and "run_verify" in sawlab.__all__
