"""Static audit: every option is used by something other than its own tests.

An option nobody sets is a second configuration that tests and benchmarks
must still cover, and one nobody reads is a promise the code does not keep.
Two rules, checked over the syntax trees (comments, docstrings and strings
do not count as uses):

* every field of every dataclass in ``src/repro/config.py`` is *read* as an
  attribute somewhere in ``src/repro`` outside ``config.py``;
* every parameter with a default of the constructors that assemble the
  serving stack is *passed* (by name, or in its position) by some call in
  ``src/``, ``benchmarks/`` or ``examples/`` -- or is listed in ``ALLOWED``
  with the reason it stays.  Forwarding one's own ``None``-defaulted
  parameter of the same name is not a use.

The audit goes by name, not by type: a field shares its credit with any
attribute of the same name.  That is what let ``allow_random_fill`` (a
config field nobody read, beside a policy attribute of the same name that
nobody set) survive until both were deleted together.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO / "src" / "repro"
CONFIG = SRC_ROOT / "config.py"
CALLER_ROOTS = (REPO / "src", REPO / "benchmarks", REPO / "examples")

#: Constructor -> module that defines it.
CONSTRUCTORS = {
    "ScenarioRunner": "scenarios/runner.py",
    "ClusterAdaptationController": "adaptive/cluster.py",
    "ServingService": "serving/service.py",
    "ServingCluster": "cluster/cluster.py",
    "ALSPredictor": "core/predictors.py",
    "IncrementalALSRefresher": "serving/refresh.py",
}

#: (constructor, parameter) -> why it stays although nothing outside the
#: tests passes it.
ALLOWED = {
    ("ServingCluster", "default_hint"): "which column holds the default plan "
    "is a fact about the data, and it travels with regression_margin (which "
    "experiments/cluster.py sets) so that a cluster decides what one service "
    "over the union matrix would",
    ("ServingCluster", "failure_threshold"): "how many failed serves trip a "
    "shard's breaker: a deployment setting; tests/test_cluster.py sets 1",
}


def _trees(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def config_fields(tree):
    """``(dataclass, field)`` for every annotated field of every dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.dump(decorator) for decorator in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def attributes_read(tree):
    """Names read as ``<anything>.<name>`` (stores and deletes do not count)."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def init_parameters(tree, class_name):
    """``(positional, defaulted)`` parameter names of ``class_name.__init__``:
    those a call can fill by position (``self`` left out), and those that
    have a default."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    positional = [a.arg for a in args.posonlyargs + args.args][1:]
                    defaulted = positional[len(positional) - len(args.defaults):] + [
                        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                    ]
                    return positional, defaulted
    raise AssertionError(f"no {class_name}.__init__ found")


def calls_by_name(trees):
    """``callee -> [(set, forwarded, n_positional)]`` for every call spelled
    ``callee(...)`` or ``x.callee(...)``: keywords given a value, keywords
    that only forward, and how many plain arguments (None with a ``*args``).

    ``k=k`` inside a function ``f`` whose own ``k`` defaults to ``None``
    forwards a value nobody has set yet: it is reported as ``(f, k)`` and
    counts only if some caller of ``f`` sets ``k`` (one level is followed;
    that is how ``estimator=`` outlived its last caller).
    """
    calls = {}

    def walk(node, function, unset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            named = args.posonlyargs + args.args
            defaults = dict(zip(reversed(named), reversed(args.defaults)))
            defaults.update(zip(args.kwonlyargs, args.kw_defaults))
            function = node.name
            unset = {
                a.arg
                for a, d in defaults.items()
                if isinstance(d, ast.Constant) and d.value is None
            }
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg: k.value for k in node.keywords if k.arg is not None}
            forwarded = {
                (function, k)
                for k, v in keywords.items()
                if isinstance(v, ast.Name) and v.id == k and k in unset
            }
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(callee, []).append(
                (
                    set(keywords) - {k for _, k in forwarded},
                    forwarded,
                    None if starred else len(node.args),
                )
            )
        for child in ast.iter_child_nodes(node):
            walk(child, function, unset)

    for tree in trees:
        walk(tree, None, frozenset())
    return calls


def parameters_passed(calls, class_name, positional):
    """Parameters of ``class_name`` that some recorded call sets: by keyword,
    by position, or through one forwarding function."""
    passed = set()
    for keywords, forwarded, n_positional in calls.get(class_name, ()):
        passed |= keywords | set(positional[: n_positional or 0])
        passed |= {
            parameter
            for function, parameter in forwarded
            if any(parameter in given for given, _, _ in calls.get(function, ()))
        }
    return passed


def test_every_config_field_is_read_outside_config():
    fields = list(config_fields(ast.parse(CONFIG.read_text())))
    assert len(fields) > 30, "config dataclasses not found"
    read = set()
    for path, tree in _trees([SRC_ROOT]):
        if path != CONFIG:
            read |= attributes_read(tree)
    unread = [f"{owner}.{name}" for owner, name in fields if name not in read]
    assert not unread, (
        "config fields no module outside config.py reads (delete the field, or "
        "the code that should honour it is missing):\n  " + "\n  ".join(unread)
    )


def test_every_constructor_option_has_a_caller_or_a_reason():
    signatures = {
        name: init_parameters(ast.parse((SRC_ROOT / module).read_text()), name)
        for name, module in CONSTRUCTORS.items()
    }
    calls = calls_by_name(tree for _, tree in _trees(CALLER_ROOTS))
    passed = {
        name: parameters_passed(calls, name, positional)
        for name, (positional, _) in signatures.items()
    }
    unset, stale = [], []
    for name, (_, defaulted) in signatures.items():
        assert defaulted, f"{name} has no defaulted parameters: wrong class?"
        unset += [
            f"{name}({parameter}=...)"
            for parameter in defaulted
            if parameter not in passed[name] and (name, parameter) not in ALLOWED
        ]
        stale += [
            f"{name}({parameter}=...)"
            for (owner, parameter) in ALLOWED
            if owner == name and (parameter not in defaulted or parameter in passed[name])
        ]
    assert not unset, (
        "constructor options nothing in src/, benchmarks/ or examples/ sets "
        "(make it a constant, or add it to ALLOWED with the reason it stays):\n  "
        + "\n  ".join(unset)
    )
    assert not stale, (
        "ALLOWED entries that are no longer needed (parameter gone, or it has "
        "a caller now):\n  " + "\n  ".join(stale)
    )
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_audit_itself_catches_violations():
    config = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    used: int = 1\n"
        "    unused: int = 2\n"
    )
    assert list(config_fields(config)) == [("C", "used"), ("C", "unused")]
    library = ast.parse("def f(c, d):\n    d.unused = c.used\n    'c.unused'\n")
    assert attributes_read(library) == {"used"}  # the store and the string do not count

    stack = ast.parse(
        "class S:\n"
        "    def __init__(self, a, b=1, *, c=2, d):\n"
        "        pass\n"
        "x = S(0, b=3, d=4)\n"
        "y = mod.S(0, **extra)\n"
    )
    assert init_parameters(stack, "S") == (["a", "b"], ["b", "c"])
    assert parameters_passed(calls_by_name([stack]), "S", ["a", "b"]) == {"a", "b", "d"}
    assert parameters_passed(calls_by_name([ast.parse("S(*args, c=1)")]), "S", ["a", "b"]) == {"c"}
    forwarding = (
        "def build(b=None, c=3, *, d=None):\n"
        "    return S(0, b=b, c=c, d=d)\n"
        "def other(b):\n"
        "    return S(b=b)\n"
    )
    assert parameters_passed(calls_by_name([ast.parse(forwarding)]), "S", ["a"]) == {"a", "b", "c"}
    assert parameters_passed(
        calls_by_name([ast.parse(forwarding), ast.parse("build(d=1)")]), "S", ["a"]
    ) == {"a", "b", "c", "d"}
