"""Layer-boundary contract: collectors speak to the network only through
the ProbeTransport seam.

An import-linter-equivalent check: modules in ``repro.core``,
``repro.baselines``, ``repro.probing``, ``repro.metrics`` and
``repro.tracing`` must not import ``repro.netsim.engine`` — the simulator
is an implementation detail behind
:class:`repro.transport.SimulatorTransport`, and any direct import would
quietly re-couple the collector layers to it.  For metrics and tracing
the seal is what keeps registries and span trees backend-agnostic:
engine counters may only arrive via the duck-typed ``backend_metrics()``
transport hook, and span trees only from the session-event stream.

The package also runs on the standard library alone: numpy is not a
declared dependency, so a survey must never import it, whatever happens
to be installed.  And every name a module exports through ``__all__``
exists, so deleting an API cannot leave a dangling export behind.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent

SEALED_PACKAGES = ("core", "baselines", "probing", "metrics", "tracing")

FORBIDDEN_MODULE = "repro.netsim.engine"


def sealed_modules():
    for package in SEALED_PACKAGES:
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            yield path


def imported_modules(path):
    """Absolute names of every module a file imports, with relative
    imports resolved against its package."""
    package_parts = ("repro",) + path.relative_to(SRC_ROOT).parts[:-1]
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[:len(package_parts) - node.level + 1]
                module = ".".join(base + ((node.module,) if node.module
                                          else ()))
            else:
                module = node.module or ""
            yield module
            # `from X import engine` imports X.engine just as surely.
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_sealed_packages_never_import_the_engine():
    violations = []
    for path in sealed_modules():
        for module in imported_modules(path):
            if module == FORBIDDEN_MODULE:
                violations.append(
                    f"{path.relative_to(SRC_ROOT.parent)} imports {module}")
    assert not violations, (
        "collector layers must depend on repro.transport, not the "
        "simulator directly:\n" + "\n".join(violations))


def test_the_check_sees_the_sealed_files():
    # Guard against the walk silently matching nothing (e.g. after a
    # package rename), which would make the contract test vacuous.
    paths = list(sealed_modules())
    assert len(paths) >= 10
    names = {p.name for p in paths}
    assert {"tracenet.py", "heuristics.py", "prober.py",
            "traceroute.py", "registry.py", "auditor.py"} <= names


def package_modules():
    """The dotted name of every module in the package (``__main__``
    aside: importing it runs the CLI)."""
    for path in sorted(SRC_ROOT.rglob("*.py")):
        parts = ("repro",) + path.relative_to(SRC_ROOT).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


def test_every_export_resolves():
    names = list(package_modules())
    assert "repro" in names and "repro.probing.prober" in names
    dangling = []
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                dangling.append(f"{name}.{export}")
    assert not dangling, "exported but undefined: " + ", ".join(dangling)


def test_survey_never_imports_numpy():
    # A subprocess, so modules the test runner loaded cannot mask an import.
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.experiments import run_internet2_survey\n"
        "run_internet2_survey()\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT.parent), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
