"""The package namespace: every public name, loaded from its submodule on first use."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import nwaybs

# the names ``nwaybs`` has exported since it imported every layer eagerly
PUBLIC_NAMES = {
    "dispersion": ["DispersionProfile", "FrequencyGrid", "MismatchReport", "beta2_eval",
                   "beta_eval", "delta_beta_pair", "delta_beta_table", "find_zgvd",
                   "nonlinear_mismatch", "symmetric_grid"],
    "transfer": ["NonlinearPhase", "PumpConfig", "TransferMatrix", "general_transfer",
                 "ideal_transfer", "loss_reduced_phase", "lossy_transfer", "p_coeff",
                 "pump_evolution", "q_coeff", "sinhc", "to_lab_frame"],
    "propagation": ["IntegratorSettings", "full_fwm_reference", "integrate_pumps",
                    "integrate_weak", "rk4_integrate"],
    "quantum": ["CorrelationResult", "InputState", "correlation_curve", "g2_dual_coherent",
                "g2_multiphoton", "g2_photon_pair", "g2_squeezed_full",
                "multiphoton_ratio_model", "multiphoton_scaling_curve", "pair_coincidence",
                "singles"],
    "oracle": ["BogoliubovMap", "FockState", "McEstimate", "compose", "fock_basis_state",
               "fock_evolve", "loss_chain", "loss_map", "mc_phase_average", "passive_map",
               "squeezer_map", "two_mode_squeezed_fock", "wick_moments"],
    "fitting": ["CountRecord", "FitResult", "fit_channel_scales", "fit_phase_scale",
                "fit_zeta", "generate_synthetic", "normalize_coincidences"],
}
NAMES = [(module, name) for module, names in PUBLIC_NAMES.items() for name in names]


def test_all_is_the_public_names():
    assert sorted(nwaybs.__all__) == sorted(name for _, name in NAMES)


def test_every_name_is_its_submodules():
    for module, name in NAMES:
        assert getattr(nwaybs, name) is getattr(importlib.import_module(f"nwaybs.{module}"), name)
        assert name in dir(nwaybs)


def test_lookup_follows_a_patched_submodule(monkeypatch):
    # nothing is cached in the package, so a patch on the submodule is what nwaybs returns
    marker = object()
    monkeypatch.setattr("nwaybs.transfer.ideal_transfer", marker)
    assert nwaybs.ideal_transfer is marker
    monkeypatch.undo()
    assert "ideal_transfer" not in vars(nwaybs)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nwaybs.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from nwaybs import *", namespace)
    assert {name for _, name in NAMES} <= set(namespace)


FRESH_IMPORT_SCRIPT = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("nwaybs", "scipy"))

import nwaybs
bare = loaded()
import nwaybs.fitting
print(json.dumps([bare, "scipy" in sys.modules]))
"""


def test_import_loads_no_submodule(tmp_path):
    """A bare ``import nwaybs`` loads no layer and no scipy; the fitting layer loads scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nwaybs.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [["nwaybs"], True]


PACKAGE_DIR = os.path.dirname(nwaybs.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))
# (module, name) imported but never read: fitting loads scipy with the
# module, since benchmarks/worker.py reads sys.modules["scipy"].__version__
UNUSED_IMPORTS_KEPT = {("fitting", "scipy")}


def unused_imports(source: str) -> set:
    """The names a module's import statements bind that no expression of the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom . import a as b\n" \
             "numpy.linalg.norm\n"
    assert unused_imports(source) == {"os", "b"}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    """A simplification that deletes a name's last use deletes its import too."""
    with open(os.path.join(PACKAGE_DIR, f"{module}.py"), encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert unused == {name for mod, name in UNUSED_IMPORTS_KEPT if mod == module}


def unread_private_names(sources: dict) -> set:
    """(module, name) for each module-level private name (``_x``, not a dunder) that no
    expression of ``sources`` reads: as a name, an attribute or a ``from`` import."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((module, name) for name in names
                           if name.startswith("_") and not name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {(module, name) for module, name in defined if name not in read}


def test_unread_private_names_are_found():
    sources = {"a": "_X = 1\n_Y: int = 2\n__all__ = []\ndef _f(): return _X\n"
                    "class _C: pass\n",
               "b": "from .a import _C\nimport a\na._Y\ndef _g(): pass\n_p, _q = 1, 2\n"}
    assert unread_private_names(sources) == {("a", "_f"), ("b", "_g"), ("b", "_p"), ("b", "_q")}


def test_every_private_name_is_read():
    """A simplification that deletes a private helper's last use deletes the helper too."""
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE_DIR, f"{module}.py"), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unread_private_names(sources) == set()


def twice_bound_names(source: str) -> set:
    """(body, name) for each function or class name that one module or class body binds
    twice; the later definition replaces the earlier one in silence."""
    twice = set()

    def visit(body, scope):
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    twice.add((scope, node.name))
                seen.add(node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{scope}.{node.name}".lstrip("."))

    visit(ast.parse(source).body, "")
    return twice


def test_twice_bound_names_are_found():
    source = ("def f(): pass\nclass C:\n    def m(self): pass\n    class D:\n        def m(self): "
              "pass\n    async def m(self): pass\nclass f: pass\ndef g():\n    def h(): pass\n"
              "    def h(): pass\n")
    assert twice_bound_names(source) == {("", "f"), ("C", "m")}


def test_no_name_is_bound_twice():
    """A test class or function defined twice in one body never runs its first definition."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    twice = set()
    for folder in (os.path.join(repo, "tests"), PACKAGE_DIR, os.path.join(repo, "scripts")):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    twice.update((name, *found) for found in twice_bound_names(fh.read()))
    assert twice == set()
