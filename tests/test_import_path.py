"""What a sweep imports, the module entry point, and the package names the
benchmark under perfbench/ looks up."""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import risnoise
from risnoise.cli import ALL_MODES, run_sweep

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# libraries only the check routes, validate and power_for_outage use
CHECK_ONLY = ("mpmath", "scipy.stats", "scipy.optimize", "scipy.integrate")


def run_python(*args):
    """A fresh interpreter that imports this checkout's risnoise."""
    env = dict(os.environ)
    src = str(Path(risnoise.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


SWEEP_THEN_CHECKS = """
import json, sys
import risnoise
from risnoise.cli import run_sweep

config, out, check_only = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
rows = run_sweep(config, out)
after_sweep = [m for m in check_only if m in sys.modules]
link = risnoise.build_link_model(risnoise.SystemParams(n=5, pb=10.0 ** -6.5))
print(json.dumps({
    "rows": rows,
    "after_sweep": after_sweep,
    "xi1_closed": risnoise.xi1_closed(link),
    "xi1": risnoise.xi1(link),
    "power_dbw": risnoise.power_for_outage(risnoise.SystemParams(n=5), 1e-3),
    "validate": risnoise.validate("fast")[0],
    "after_checks": [m for m in check_only if m in sys.modules],
}))
"""


class TestSweepImports:
    def test_sweep_loads_no_check_library_and_checks_load_theirs(self, tmp_path):
        config = tmp_path / "all_modes.yaml"
        config.write_text(
            "start: -66.0\nstop: -60.0\npoints: 2\nfixed: {n: 5}\n"
            f"modes: [{', '.join(ALL_MODES)}]\ntrials: 1000\nbatch: 500\n",
            encoding="utf-8")
        proc = run_python("-c", SWEEP_THEN_CHECKS, str(config),
                          str(tmp_path / "out.csv"), ",".join(CHECK_ONLY))
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        # 2 points x 6 base modes x (noisy, noiseless)
        assert got["rows"] == 24
        assert got["after_sweep"] == []
        assert abs(got["xi1_closed"] - got["xi1"]) <= 1e-12 * got["xi1"]
        assert -110.0 < got["power_dbw"] < -20.0
        assert got["validate"]
        assert {"mpmath", "scipy.optimize", "scipy.integrate"} <= set(got["after_checks"])


class TestModuleEntryPoint:
    def test_python_m_risnoise_runs_the_cli_without_runpy_warning(self):
        proc = run_python("-W", "default", "-m", "risnoise", "presets")
        assert proc.returncode == 0, proc.stderr
        assert "fig1_n5" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr


def _literal(path: Path, name: str):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no top-level {name} in {path}")


def _missing(pairs) -> list[str]:
    return [f"{module}.{name}" for module, name in sorted(pairs)
            if not hasattr(importlib.import_module(module), name)]


class TestBenchmarkNames:
    """The benchmark finds package names at fixed module paths; moving one
    must fail here, not inside a benchmark run.  The perfbench files are
    parsed, never imported."""

    def test_traced_names_resolve(self):
        traced = _literal(PERFBENCH / "tracer.py", "TRACED")
        assert traced
        assert _missing((module, name) for module, name, _layer in traced) == []

    def test_imported_names_resolve(self):
        pairs = set()
        for path in sorted(PERFBENCH.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module \
                        and node.module.split(".")[0] == "risnoise":
                    pairs.update((node.module, alias.name) for alias in node.names)
        assert {("risnoise.outage", name)
                for name in ("compose_outage", "xi1_oracle", "xi2")} <= pairs
        assert _missing(pairs) == []


class TestTracerAccounting:
    """The traced layers account for an analytic sweep's whole time, the
    rule perfbench/selftest.py checks: a traced name called outside an
    outage_report span would count its time twice.  tracer.py is loaded
    from its file, as the benchmark's children load it."""

    def test_analytic_sweep_time_is_accounted_once(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", PERFBENCH / "tracer.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        config = tmp_path / "analytic.yaml"
        config.write_text(
            "start: -72.0\nstop: -50.0\npoints: 5\nfixed: {n: 10, d_nd: 2.0}\n"
            "modes: [analytic_lb, analytic_ub, asymptotic, noiseless_variant]\n",
            encoding="utf-8")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("run_sweep", "cli") as root:
                run_sweep(str(config), str(tmp_path / "out.csv"), workers=1)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, root, 1)
        assert abs(tracing.accounted_share(metrics, root.duration, 1) - 1.0) < 1e-6


PACKAGE = Path(risnoise.__file__).resolve().parent


def _unused_imports(path: Path) -> list[str]:
    """Names a module binds by a top-level import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name.split(".")[0]): node.lineno
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in read]


class TestImports:
    def test_every_top_level_import_is_used(self):
        # __init__.py imports to re-export; every other module imports to use
        unused = [entry for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "__init__.py" for entry in _unused_imports(path)]
        assert unused == []
