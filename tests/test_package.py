"""The package root imports nothing, so the CLI's thread cap reaches BLAS,
stepping a scene never imports scipy.spatial,
every function, class and method in ``src`` is called by the program itself,
every dataclass field in ``src`` is read by it, and every module-level
import in ``src`` is used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "contactnewton"
SCENES = SRC.parent / "scenes"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CONTACT_NEWTON_THREADS")


def run_python(code):
    """Run ``code`` in a fresh interpreter on ``src``, with no thread variable set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["contactnewton", "contactnewton.cli"])
def test_import_loads_no_numpy_scipy_or_yaml(module):
    out = run_python(f"import sys, {module}\n"
                     "print(sorted(m for m in ('numpy', 'scipy', 'yaml') if m in sys.modules))")
    assert out.strip() == "[]"


def rigid_sphere_scenes():
    from test_scene import COUPLED_BALL, MIXED_SCENE, SPINNING_BALL  # beside this file

    return {"SPINNING_BALL": SPINNING_BALL, "COUPLED_BALL": COUPLED_BALL,
            "MIXED_SCENE": MIXED_SCENE}


@pytest.mark.parametrize("scene", [p.stem for p in sorted(SCENES.glob("*.scn"))]
                         + list(rigid_sphere_scenes()))
def test_stepping_loads_no_scipy_spatial(tmp_path, scene):
    # scipy.spatial costs about 7 MB resident; grasp_rotate's turning plates
    # and the spheres' poses take their rotations from contactnewton.rotations
    path = SCENES / f"{scene}.scn"
    if scene in rigid_sphere_scenes():
        path = tmp_path / "scene.scn"
        path.write_text(rigid_sphere_scenes()[scene])
    out = run_python("import sys\n"
                     "from contactnewton.scene import Simulation, load_scene\n"
                     f"sim = Simulation(load_scene({str(path)!r}))\n"
                     "sim.step()\n"
                     "sim.step()\n"
                     "states = [obj.saved_state() for obj in sim.objects]\n"
                     "print(sim.step_index, 'scipy.spatial' in sys.modules)")
    assert out.split() == ["2", "False"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or (os.cpu_count() or 1) < 2,
                    reason="reads the thread count of a Linux process on 2 or more cores")
def test_thread_cap_reaches_blas():
    # cli.main's order: parse, apply the cap, then import what the command needs
    out = run_python(
        "from contactnewton import cli\n"
        "cli._apply_thread_cap(default=1)\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "a = np.ones((600, 600))\n"
        "a @ a\n"
        "print([l for l in open('/proc/self/status') if l.startswith('Threads:')][0])"
    )
    assert out.split() == ["Threads:", "1"]


def definitions(tree):
    """Module-level functions and classes, and the methods of those classes
    (dunders excluded), as ``ast`` nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item


def references(tree):
    """(name, line) of every name, attribute and identifier string in ``tree``;
    an identifier string is a reference for the ``getattr`` that reads it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def test_every_function_and_method_is_called_by_the_program():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    refs = [(name, module, line) for module, tree in trees.items()
            for name, line in references(tree)]
    unused = []
    for module, tree in trees.items():
        for node in definitions(tree):
            # a use inside the definition itself (recursion, a class naming itself) does not count
            if not any(name == node.name and not (where == module
                                                  and node.lineno <= line <= node.end_lineno)
                       for name, where, line in refs):
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert unused == []


def dataclass_fields(tree):
    """(class name, field declaration) of every annotated field of a dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass"
                or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item


def test_every_dataclass_field_is_read_by_the_program():
    # a class handed to ``fields(...)`` is read field by field (IterationStats'
    # fields are the newton.csv columns), so its fields are exempt
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    refs = [(name, module, line) for module, tree in trees.items()
            for name, line in references(tree)]
    listed = {node.args[0].id for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fields"
              and node.args and isinstance(node.args[0], ast.Name)}
    unread = []
    for module, tree in trees.items():
        for cls, item in dataclass_fields(tree):
            name = item.target.id
            if cls in listed:
                continue
            # the field's own declaration does not count
            if not any(ref == name and not (where == module
                                            and item.lineno <= line <= item.end_lineno)
                       for ref, where, line in refs):
                unread.append(f"{module}:{item.lineno} {cls}.{name}")
    assert unread == []


def test_every_import_is_used():
    # a module-level import is used where its module names it, not in a string
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
