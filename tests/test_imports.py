"""Every imported name is used in the module that imports it, ``geoseg``
loads scipy only inside the functions that call it, and the worker thread
starts only when training or a multi-batch inference needs it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoseg

SOURCES = sorted(Path(geoseg.__file__).parent.glob("*.py")) \
    + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import binds and the module never
    reads.  A name listed in ``__all__`` is a re-export, which counts as a
    use."""
    tree = ast.parse(source)
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0],
                                 node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scanner_sees_unused_and_used_imports():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "import x.y\nfrom __future__ import annotations\n"
              "from f import g, h\n__all__ = ['g']\n"
              "np.zeros(1)\nprint(e, x.y)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c"), (6, "h")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


SRC = sorted(Path(geoseg.__file__).parent.glob("*.py"))


def unread_private_names(sources):
    """(module, line, name) of each private module-level name (one leading
    underscore) that a module of ``sources``, a {module: source} map,
    defines and no module reads: by name, as an attribute or in an
    import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_scanner_sees_unread_and_read_private_names():
    sources = {"a": "_A = 1\n_B: int = 2\n__all__ = []\n_C = _A\n"
                    "def _f(): pass\nclass _K: pass\n",
               "b": "from a import _B\nimport a\nprint(a._f)\n_c = 3\n"}
    assert unread_private_names(sources) == [("a", 4, "_C"), ("a", 6, "_K"),
                                             ("b", 4, "_c")]


def test_no_unread_private_names_in_src():
    assert unread_private_names({p.name: p.read_text() for p in SRC}) == []


def test_cli_import_loads_scipy_only_for_the_first_phantom():
    # importing scipy.ndimage is most of the CLI's start-up time; the CLI
    # imports every geoseg module, so none may import scipy at module level
    code = ("import json, sys\n"
            "import numpy as np\n"
            "import geoseg.cli\n"
            "from geoseg.data import generate_phantom\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "before = scipy_modules()\n"
            "generate_phantom((16, 16), np.random.default_rng(0))\n"
            "print(json.dumps([before, scipy_modules()]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(geoseg.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    before, after = json.loads(done.stdout)
    assert before == []
    assert "scipy.ndimage" in after


def test_cli_import_starts_no_thread_and_only_training_starts_the_worker():
    # the worker and concurrent.futures, 9 ms of import, wait for the first
    # two-decoder forward; a one-batch inference runs on the caller's thread
    code = ("import json, sys, threading\n"
            "import numpy as np\n"
            "import geoseg.cli\n"
            "from geoseg.inference import sliding_window_infer\n"
            "from geoseg.network import DualDecoderNet, NetworkConfig\n"
            "from geoseg.tensor import Tensor\n"
            "def state():\n"
            "    return [threading.active_count(),\n"
            "            'concurrent.futures' in sys.modules]\n"
            "states = [state()]\n"
            "net = DualDecoderNet(NetworkConfig(width=2, depth=2))\n"
            "sliding_window_infer(net, np.zeros((24, 24)), (16, 16), (8, 8))\n"
            "states.append(state())\n"
            "net.forward(Tensor(np.zeros((1, 1, 16, 16))))\n"
            "states.append(state())\n"
            "print(json.dumps(states))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(geoseg.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[1, False], [1, False], [2, True]]


def test_multi_batch_inference_starts_the_worker():
    # 25 windows of 32x32 make two batches within the tile budget, the
    # second on the worker
    code = ("import json, sys, threading\n"
            "import numpy as np\n"
            "from geoseg.inference import sliding_window_infer\n"
            "from geoseg.network import DualDecoderNet, NetworkConfig\n"
            "def state():\n"
            "    return [threading.active_count(),\n"
            "            'concurrent.futures' in sys.modules]\n"
            "states = [state()]\n"
            "net = DualDecoderNet(NetworkConfig(width=2, depth=2))\n"
            "sliding_window_infer(net, np.zeros((64, 64)), (32, 32), (8, 8))\n"
            "states.append(state())\n"
            "print(json.dumps(states))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(geoseg.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[1, False], [2, True]]
