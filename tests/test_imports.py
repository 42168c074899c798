"""Every imported name is used in the module that imports it, ``geoseg``
loads scipy only inside the functions that call it, ``tensor`` is the one
module that imports thread synchronisation and the one that binds a
tensor's ``data``, ``network`` the one that names a checkpoint's tensors,
``data`` the one that formats a table cell, ``losses`` the one that names
a loss term, only ``inference``, ``data`` and ``cli`` name float32, only
``tensor`` and ``network`` call ``fork``, and only training starts the
worker thread."""

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


def imported_packages(source):
    """The top-level package of every absolute import in ``source``."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_scanner_sees_imported_packages():
    source = ("import os.path, json as j\nfrom concurrent import futures\n"
              "from . import data\ndef f():\n    import threading\n")
    assert imported_packages(source) == {"os", "json", "concurrent",
                                         "threading"}


def test_only_tensor_synchronises_threads():
    # the lanes join through tensor.fork alone
    assert [p.name for p in SRC if imported_packages(p.read_text())
            & {"threading", "concurrent"}] == ["tensor.py"]


def calls_to(source, name):
    """Line of each call in ``source`` to ``name``, by name or as an
    attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id == name
                       or isinstance(node.func, ast.Attribute)
                       and node.func.attr == name))


def test_scanner_sees_calls_to_a_name():
    # a call by name or as an attribute; a reference that is no call, or a
    # call of another name, is none
    source = ("fork(a, b)\ntensor.fork(a, b)\nf = fork\nforked(a)\n"
              "x.fork\ny = [tensor.fork(c, d) for _ in z]\n")
    assert calls_to(source, "fork") == [1, 2, 6]


def test_only_tensor_and_network_call_fork():
    # the worker serves the two-decoder forward and its backward alone
    assert [p.name for p in SRC if calls_to(p.read_text(), "fork")] \
        == ["network.py", "tensor.py"]


def string_prefixes(source, prefixes):
    """(line, text) of each string literal in ``source``, the constant
    parts of f-strings included, that starts with one of ``prefixes``."""
    return sorted((node.lineno, node.value)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.startswith(prefixes))


def test_scanner_sees_string_prefixes():
    # an f-string's constant parts are scanned wherever they stand
    source = ('a = "param/x"\nb = f"momentum/{a}"\nc = "x param/"\n'
              'd = f"{a}param/"\n')
    assert string_prefixes(source, ("param/", "momentum/")) == \
        [(1, "param/x"), (2, "momentum/"), (4, "param/")]


def test_only_network_names_checkpoint_tensors():
    # network.state_tensors and load_state own a checkpoint's tensor names
    assert [p.name for p in SRC if string_prefixes(
        p.read_text(), ("param/", "momentum/"))] == ["network.py"]


def test_only_data_formats_a_table_cell():
    # data._write_csv writes every float cell of every CSV table
    assert [p.name for p in SRC if string_prefixes(p.read_text(), (".17g",))] \
        == ["data.py"]


def float32_names(source):
    """(line, text) of each place in ``source`` that names the float32
    dtype: a name or attribute ``float32`` or ``single``, or a string
    literal that is one of its dtype strings.  A docstring or comment that
    mentions it is no such place."""
    spellings = {"float32", "single", "f4", "<f4", ">f4", "=f4", "|f4"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if text in spellings and (isinstance(node, ast.Constant)
                                  or text in ("float32", "single")):
            found.append((node.lineno, text))
    return sorted(found)


def test_scanner_sees_float32_names():
    source = ('"""A float32 docstring."""\nimport numpy as np\n'
              'a = np.float32\nb = "float32"\nc = np.dtype("<f4")\n'
              'd = np.single\nfrom numpy import float32\nf = float32\n'
              'g = np.float64\nh = "a float32 map"\nt.dtype.kind == "f"\n')
    assert float32_names(source) == [(3, "float32"), (4, "float32"),
                                     (5, "<f4"), (6, "single"),
                                     (8, "float32")]


def test_only_inference_data_and_cli_name_float32():
    # the engine (tensor, kernels, network) follows its operands' dtype:
    # inference runs the test-time net and volume in float32, data stores
    # volumes in it and cli exports maps in it
    assert [p.name for p in SRC if float32_names(p.read_text())] \
        == ["cli.py", "data.py", "inference.py"]


def test_only_losses_names_a_loss_term():
    # losses.LOSS_TERMS names the step's terms: loss.csv's columns and
    # summary.json's "final" keys ("loss_v1", the schema, is no term)
    assert [p.name for p in SRC if string_prefixes(
        p.read_text(), ("loss_seg", "loss_sdf", "loss_sup", "loss_cons",
                        "loss_total"))] == ["losses.py"]


def data_bindings(source):
    """Line of each place in ``source`` that binds a ``data`` attribute: a
    ``.data`` assignment, augmented, annotated or unpacked target, or a
    ``setattr`` call that names "data"."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "data"
            and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "data"))


def test_scanner_sees_data_bindings():
    # writes into a data array, reads and other attributes are not bindings
    source = ("t.data = 1\nt.data += 1\na, t.data = 1, 2\n"
              "for u.data in x: pass\nsetattr(t, 'data', 1)\n"
              "t.data[0] = 1\ny = t.data\nd[t.data] = 1\nt.other = 1\n"
              "setattr(t, name, 1)\nt.x.data: int = 3\n")
    assert data_bindings(source) == [1, 2, 3, 4, 5, 11]


def test_only_tensor_binds_a_tensors_data():
    # a padded copy adopting its source is the one rebinding of a node's
    # data (tensor.py's "Release"); a checkpoint is copied into each
    # parameter's own array
    assert [p.name for p in SRC if data_bindings(p.read_text())] \
        == ["tensor.py"]


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


def test_multi_batch_inference_starts_no_thread():
    # 25 windows of 32x32 make two batches within the tile budget; both run
    # on the caller's thread, and concurrent.futures stays unloaded
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
    assert json.loads(done.stdout) == [[1, False], [1, False]]
