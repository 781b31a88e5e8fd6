"""What a sweep imports, the module entry point, the package names the
benchmark under perfbench/ looks up, the one body per check that validate
and the release gates share, and the one route to a link."""
import ast
import importlib
import itertools
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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level _names a module defines (def, class or assignment)."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in targets
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def _names_read(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes and from-imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


class TestImports:
    def test_every_top_level_import_is_used(self):
        # __init__.py imports to re-export; every other module imports to use
        unused = [entry for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "__init__.py" for entry in _unused_imports(path)]
        assert unused == []

    def test_every_private_top_level_name_is_read(self):
        # a private helper nothing in the package reads is left over
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE.glob("*.py"))}
        read = set().union(*map(_names_read, trees.values()))
        orphans = [f"{name}:{line} {defined}" for name, tree in trees.items()
                   for defined, line in sorted(_private_definitions(tree).items())
                   if defined not in read]
        assert orphans == []


# the bodies risnoise.cli shares between validate and the release gates, and
# the oracles and reference data that only they may read
SHARED_CHECK_BODIES = {
    "_table2_deviation", "_gamma_identity_error", "_kummer_transform_error",
    "_meijer_dual_route_error", "_series_vs_oracle", "_noiseless_mismatches",
    "_asymptote_slope", "_moment_z", "_sandwich_violations"}
ORACLE_NAMES = {"gammainc", "hyp1f1", "meijer_g_2_1_1_2_contour", "sinr_bounds",
                "REFERENCE_NOISE_TABLE_DBW"}
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _names_by_statement(path: Path) -> dict[str, set[str]]:
    """The names and attributes each top-level def (or '<module>') of a file
    reads; import statements are left out."""
    found = {}
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        names = found.setdefault(getattr(stmt, "name", "<module>"), set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return found


class TestOneBodyPerCheck:
    """A quantity both a release gate and validate check is measured by one
    body in risnoise.cli; a second copy of a measurement would read an
    oracle or the reference grid outside those bodies."""

    def test_the_gates_read_no_oracle(self):
        read = set().union(*_names_by_statement(ACCEPTANCE).values())
        assert read & ORACLE_NAMES == set()

    def test_in_cli_only_the_shared_bodies_read_an_oracle(self):
        read = _names_by_statement(PACKAGE / "cli.py")
        readers = {name for name, names in read.items() if names & ORACLE_NAMES}
        assert readers <= SHARED_CHECK_BODIES
        assert ORACLE_NAMES <= set().union(*(read[name] for name in readers))

    def test_every_shared_body_is_called_by_validate_and_by_a_gate(self):
        validate = _names_by_statement(PACKAGE / "cli.py")["_validate_checks"]
        assert SHARED_CHECK_BODIES <= validate
        # the cli functions the gates call are the shared bodies, all of them
        gate_calls = {node.func.attr
                      for stmt in ast.parse(ACCEPTANCE.read_text(encoding="utf-8")).body
                      if getattr(stmt, "name", "").startswith("test_gate")
                      for node in ast.walk(stmt) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and getattr(node.func.value, "id", None) == "cli"}
        assert gate_calls == SHARED_CHECK_BODIES

    def test_only_the_shared_bodies_measure_gate_11s_identities(self):
        # the unit tests of specfun measure gate 11's points through these
        # bodies too, so a kernel's tolerance for the identity is stated once
        assert _gate11_measurers(PACKAGE / "cli.py") == {
            "_gamma_identity_error", "_kummer_transform_error",
            "_meijer_dual_route_error"}
        for path in (ACCEPTANCE, ROOT / "tests" / "test_specfun.py"):
            assert _gate11_measurers(path) == set(), path.name


def _callee(call: ast.Call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _gate11_measurers(path: Path) -> set[str]:
    """The functions and methods of a file that measure one of gate 11's
    identities by their own route: the unregularized lower incomplete gamma
    (meijer_g_1_1_1_2's reference), 1F1 at a negated argument (Kummer's
    transform), or the contour route's value meeting the Slater route's in
    one call, directly or through a name assigned from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {name for name, func in defs if any(
        _measures_gate11(call, _routes_in(func))
        for call in ast.walk(func) if isinstance(call, ast.Call))}


def _routes_in(func: ast.FunctionDef):
    """A function from an expression of func to the names of the functions
    whose values reach it: the calls in it, and those assigned to its names."""
    assigned = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            called = {_callee(c) for c in ast.walk(node.value) if isinstance(c, ast.Call)}
            assigned.update((t.id, called) for t in node.targets if isinstance(t, ast.Name))

    def routes(expr) -> set:
        out = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                out.add(_callee(sub))
            elif isinstance(sub, ast.Name):
                out |= assigned.get(sub.id, set())
        return out
    return routes


def _measures_gate11(call: ast.Call, routes) -> bool:
    callee = _callee(call)
    if callee == "gammainc":
        return not any(k.arg == "regularized" for k in call.keywords)
    if callee == "hyp1f1":
        return any(isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub)
                   for arg in call.args)
    reached = [routes(arg) for arg in (*call.args, *(k.value for k in call.keywords))]
    return any("meijer_g_2_1_1_2" in a and "meijer_g_2_1_1_2_contour" in b
               for a, b in itertools.permutations(reached, 2))


def _package_functions() -> dict[str, ast.FunctionDef]:
    return {node.name: node for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)}


def _calls(func: ast.FunctionDef) -> set[str]:
    return {_callee(node) for node in ast.walk(func) if isinstance(node, ast.Call)}


class TestOneLinkRoute:
    """A sweep's links come from one build_link_models call, which reads a
    built SystemParams through the unchecked formula bodies; the sweep's
    outputs are checked once per pass or per point.  A call of a checked
    helper on this path would re-check a value already checked."""

    ON_THE_SWEEP_PATH = ("run_sweep", "build_link_models", "build_noise_budget",
                         "hop_powers", "outage_reports", "_point_rows")

    def test_the_sweep_path_calls_no_checked_helper(self):
        functions = _package_functions()
        # the public functions that check their own arguments; gamma_approx
        # checks the derived cascade moments, which no earlier check covers
        checked = {name for name, func in functions.items()
                   if not name.startswith("_") and "check" in _calls(func)}
        assert {"receiver_noise_power", "ris_noise_power", "path_loss",
                "sinr_threshold", "cascade_moments", "y_gamma_params",
                "compose_outage", "throughput", "gamma_approx"} <= checked
        checked.discard("gamma_approx")
        assert {name: sorted(_calls(functions[name]) & checked)
                for name in self.ON_THE_SWEEP_PATH} \
            == {name: [] for name in self.ON_THE_SWEEP_PATH}

    def test_only_build_link_models_constructs_a_link(self):
        builders = [name for name, func in _package_functions().items()
                    if "LinkModel" in _calls(func)]
        assert builders == ["build_link_models"]
