"""Static audit: no library module may touch global random state.

Every result in this repo -- exploration traces, scenario replays, the
ingress identity gate -- leans on bit-for-bit reproducibility, which one
stray ``np.random.shuffle`` (global NumPy state) or ``random.random()``
(global stdlib state) quietly breaks for every caller in the process.
The rule for ``src/repro``: randomness flows through explicitly seeded
generators (``np.random.default_rng`` / ``Generator`` /
``SeedSequence``) handed down from configs, never through module-global
state.

This is an AST audit, not a grep: it resolves the library's actual
``np.``/``numpy.`` aliases and catches ``from numpy import random`` /
``from random import ...`` spellings too, while ignoring comments and
docstrings.

The same goes for the builtin ``hash`` and ``id``: ``hash`` of a ``str`` is
salted per process and ``hash(None)`` / ``id(x)`` are addresses, so a seed or
an ordering derived from either differs between two runs of one command.
``repro.experiments.figures.stable_seed`` derives a seed from strings, and
``repro.cluster.router.rendezvous_score`` a shard from a key, the same in
every process.
"""

import ast
import hashlib
import os
import pathlib
import subprocess
import sys

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

# Seeded-generator constructors: the only np.random attributes a library
# module may use.
ALLOWED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator"}


def _np_random_violations(tree):
    """Uses of ``np.random.<banned>`` / ``numpy.random.<banned>``."""
    numpy_aliases = {"numpy"}
    random_aliases = set()  # aliases bound to the numpy.random module itself
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    random_aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in ALLOWED_NP_RANDOM:
                        yield node.lineno, f"from numpy.random import {alias.name}"

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr not in ALLOWED_NP_RANDOM):
            continue
        value = node.value
        # np.random.<attr> with np a numpy alias
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in numpy_aliases
        ):
            yield node.lineno, f"{value.value.id}.random.{node.attr}"
        # <alias>.<attr> with alias bound to numpy.random
        elif isinstance(value, ast.Name) and value.id in random_aliases:
            yield node.lineno, f"{value.id}.{node.attr}"


def _stdlib_random_violations(tree):
    """Any import of the stdlib ``random`` module (global Mersenne state)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            yield node.lineno, "from random import ..."


def _address_violations(tree):
    """Calls of the builtin ``hash`` / ``id``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hash", "id")
        ):
            yield node.lineno, node.func.id


def test_source_tree_exists():
    assert SRC_ROOT.is_dir()
    assert list(SRC_ROOT.rglob("*.py")), "no library modules found to audit"


def test_no_global_random_state_in_library_modules():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, what in _np_random_violations(tree):
            offenders.append(f"{path.relative_to(SRC_ROOT.parent)}:{lineno}: {what}")
        for lineno, what in _stdlib_random_violations(tree):
            offenders.append(f"{path.relative_to(SRC_ROOT.parent)}:{lineno}: {what}")
    assert not offenders, (
        "library modules must use explicitly seeded generators "
        "(np.random.default_rng), never global random state:\n  "
        + "\n  ".join(offenders)
    )


def test_no_address_or_salted_hash_reaches_a_result():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, name in _address_violations(tree):
            offenders.append(f"{path.relative_to(SRC_ROOT.parent)}:{lineno}: {name}(...)")
    assert not offenders, (
        "builtin hash() / id() values differ between processes; derive a seed "
        "from strings with repro.experiments.figures.stable_seed:\n  "
        + "\n  ".join(offenders)
    )


_DIGESTS = """
import hashlib
import numpy as np
from repro.cluster.router import RendezvousRouter, routing_key
from repro.experiments.figures import figure9_workload_shift, figure10_incremental_drift

router = RendezvousRouter()
for shard in range(4):
    router.add_shard(shard)
keys = [routing_key(f"tenant{t}", f"q{q}") for t in range(3) for q in range(100)]
print(hashlib.sha256(np.ascontiguousarray(router.assign(keys)).tobytes()).hexdigest())
# Figure 9 at benchmark scale runs ALS and the explorer, and its shift
# splits the workload through a set.
print(hashlib.sha256(repr(figure9_workload_shift(scale=0.04)).encode()).hexdigest())
print(hashlib.sha256(repr(figure10_incremental_drift(scale=0.05)).encode()).hexdigest())
"""


def test_two_fresh_interpreters_agree_on_seeded_results():
    def digests(**extra_env):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        env.update(PYTHONPATH=str(SRC_ROOT.parent), **extra_env)
        done = subprocess.run(
            [sys.executable, "-c", _DIGESTS], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.split()

    # Addresses differ between any two processes; the str salt differs
    # between a random one and a pinned one.
    salted = digests()
    assert len(salted) == 3 and all(len(d) == hashlib.sha256().digest_size * 2 for d in salted)
    assert digests(PYTHONHASHSEED="0") == salted


def test_the_audit_itself_catches_violations():
    bad = ast.parse(
        "import numpy as np\n"
        "import random\n"
        "from numpy.random import rand\n"
        "x = np.random.shuffle([1])\n"
        "y = random.random()\n"
    )
    assert len(list(_np_random_violations(bad))) == 2
    assert len(list(_stdlib_random_violations(bad))) == 1
    good = ast.parse(
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "from numpy.random import Generator\n"
    )
    assert not list(_np_random_violations(good))
    assert not list(_stdlib_random_violations(good))
    addressed = ast.parse(
        "def f(x):\n"
        "    return hash(x) + id(x) + x.hash() + obj.id(x)\n"
        "'hash(x)'\n"
    )
    assert sorted(n for _, n in _address_violations(addressed)) == ["hash", "id"]
