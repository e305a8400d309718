"""Static audit: every option and every public def is used by something
other than its own tests.

An option nobody sets is a second configuration that tests and benchmarks
must still cover, and one nobody reads is a promise the code does not keep.
Code only the tests call is the same: lines to read, keep and document that
no user of the library runs.  Four rules, checked over the syntax trees
(comments, docstrings and strings do not count as uses of an option):

* every field of every dataclass in ``src/repro/config.py`` is *read* as an
  attribute somewhere in ``src/repro`` outside ``config.py``;
* every such field is *set* by some call in ``src/``, ``benchmarks/`` or
  ``examples/`` -- by name or in its position when the dataclass is built,
  or by name in a ``dataclasses.replace`` -- or is listed in ``ALLOWED``
  with the reason it stays;
* every parameter with a default of the constructors that assemble the
  serving stack is *passed* (by name, or in its position) by such a call,
  or is listed in ``ALLOWED``;
* every public def in ``src/repro`` -- a module-level function or class, or
  a method or property of such a class, whose name does not start with
  ``_`` -- is *named* somewhere in ``src/``, ``benchmarks/`` or
  ``examples/``, or is listed in ``ALLOWED_API`` with the reason it stays.
  A name counts when it is loaded as ``name`` or ``<anything>.name``, or
  spelled as an identifier-shaped string (``getattr(obj, "name")``); the
  def itself, ``import`` lines and ``__all__`` entries do not count, nor
  does a use inside the body of a def of the same name (recursion, or a
  method delegating to its namesake on another type).

Forwarding a ``None``-defaulted parameter under its own name is not a use,
also from a nested function that reads it from its enclosing one; it counts
only if some caller of the function that owns the parameter sets it.

The audit goes by name, not by type: a field shares its credit with any
attribute of the same name.  That is what let ``allow_random_fill`` (a
config field nobody read, beside a policy attribute of the same name that
nobody set) survive until both were deleted together.  A def shares its
credit the same way, so one with a generic name (``load``, ``reset``) is
called as soon as anything of that name is, and only a reader can see it
has no caller.

Run as a script (``python tests/test_option_audit.py``), it prints the
option inventory these rules count, for CI's step summary.
"""

import ast
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO / "src" / "repro"
CONFIG = SRC_ROOT / "config.py"
CALLER_ROOTS = (REPO / "src", REPO / "benchmarks", REPO / "examples")

#: Constructor -> module that defines it.
CONSTRUCTORS = {
    "ScenarioRunner": "scenarios/runner.py",
    "ServingService": "serving/service.py",
    "ServingCluster": "cluster/cluster.py",
    "ALSPredictor": "core/predictors.py",
    "IncrementalALSRefresher": "serving/refresh.py",
}

#: (dataclass or constructor, field or parameter) -> why it stays although
#: nothing outside the tests sets it.
ALLOWED = {
    ("ServingCluster", "default_hint"): "which column holds the default plan "
    "is a fact about the data, and it travels with regression_margin (which "
    "experiments/cluster.py sets) so that a cluster decides what one service "
    "over the union matrix would",
    ("ServingCluster", "failure_threshold"): "how many failed serves trip a "
    "shard's breaker: a deployment setting; tests/test_cluster.py sets 1",
    ("ServingService", "clock"): "the seam that lets tests fake time for the "
    "served-batch latency histogram: tests/test_serving.py and "
    "tests/test_telemetry.py run a clock that steps or goes backwards",
}

#: Public def in ``src/repro`` (``name`` or ``Class.name``) -> why it stays
#: although only the tests call it.
ALLOWED_API = {
    "ExplorationTrace.latency_at": "the scalar reference lookup that "
    "tests/test_simulation.py holds the vectorised latencies_at to",
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
    that is how ``estimator=`` outlived its last caller).  A function nested
    in ``f`` that does not rebind ``k`` forwards ``f``'s: that is reported as
    ``(f, k)`` too (how ``ScenarioRunner(adaptive_config=)`` outlived its
    last caller).
    """
    calls = {}

    def walk(node, unset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            named = args.posonlyargs + args.args
            defaults = dict(zip(reversed(named), reversed(args.defaults)))
            defaults.update(zip(args.kwonlyargs, args.kw_defaults))
            rebound = {a.arg for a in named + args.kwonlyargs + [args.vararg, args.kwarg] if a}
            unset = {name: owner for name, owner in unset.items() if name not in rebound}
            unset.update(
                (a.arg, node.name)
                for a, d in defaults.items()
                if isinstance(d, ast.Constant) and d.value is None
            )
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg: k.value for k in node.keywords if k.arg is not None}
            forwarded = {
                (unset[k], k)
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
            walk(child, unset)

    for tree in trees:
        walk(tree, {})
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


def fields_set(calls, class_name, fields):
    """Fields of ``class_name`` some recorded call sets: building it (by
    keyword, by position, or through one forwarding function), or naming
    the field in a ``dataclasses.replace``."""
    by_replace = set().union(*(given for given, _, _ in calls.get("replace", ())))
    return parameters_passed(calls, class_name, fields) | (by_replace & set(fields))


def public_defs(tree):
    """``(qualified, name)`` for every module-level function and class, and
    every method or property of such a class, whose name does not start
    with ``_`` (so dunders are left out too)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _name_of(node):
    """The name ``node`` uses: loaded as ``name`` or ``<anything>.name``, or
    spelled as an identifier-shaped string; None for any other node."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            return node.value
    return None


def names_used(tree):
    """Names loaded as ``name`` or ``<anything>.name``, and identifier-shaped
    string constants.  Left out: the strings listed in ``__all__``, and a
    name used inside the body of a def of the same name -- recursion, or a
    method that delegates to its namesake (``def f(self): return
    self.inner.f()``) is no caller of either.  ``import`` lines bind names
    without loading them."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped |= set(map(id, ast.walk(node.value)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped |= {
                id(inner)
                for statement in node.body
                for inner in ast.walk(statement)
                if _name_of(inner) == node.name
            }
    return {
        name
        for node in ast.walk(tree)
        if id(node) not in skipped and (name := _name_of(node)) is not None
    }


def uncalled_and_stale(library, callers, allowed):
    """``library``: ``(module, tree)`` pairs whose public defs are audited;
    ``callers``: the trees a caller may sit in.  Returns the defs no caller
    names that ``allowed`` does not list, and the ``allowed`` entries whose
    def is gone, has a caller now, or has no reason."""
    used = set().union(*map(names_used, callers))
    defs = {
        qualified: (module, name)
        for module, tree in library
        for qualified, name in public_defs(tree)
    }
    uncalled = [
        f"{module}: {qualified}"
        for qualified, (module, name) in defs.items()
        if name not in used and qualified not in allowed
    ]
    stale = [
        qualified
        for qualified in allowed
        if qualified not in defs or defs[qualified][1] in used
    ] + [f"{qualified} (no reason)" for qualified, reason in allowed.items() if not reason.strip()]
    return uncalled, stale


def unpickling_calls(tree):
    """Line numbers of the calls that pass ``allow_pickle`` anything but a
    literal ``False``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "allow_pickle"
        and not (isinstance(keyword.value, ast.Constant) and keyword.value.value is False)
    ]


def config_classes():
    """``dataclass -> [field, ...]`` in declaration order."""
    classes = {}
    for owner, name in config_fields(ast.parse(CONFIG.read_text())):
        classes.setdefault(owner, []).append(name)
    assert sum(map(len, classes.values())) > 20, "config dataclasses not found"
    return classes


def constructor_signatures():
    return {
        name: init_parameters(ast.parse((SRC_ROOT / module).read_text()), name)
        for name, module in CONSTRUCTORS.items()
    }


def test_every_config_field_is_read_outside_config():
    fields = [(owner, name) for owner, names in config_classes().items() for name in names]
    read = set()
    for path, tree in _trees([SRC_ROOT]):
        if path != CONFIG:
            read |= attributes_read(tree)
    unread = [f"{owner}.{name}" for owner, name in fields if name not in read]
    assert not unread, (
        "config fields no module outside config.py reads (delete the field, or "
        "the code that should honour it is missing):\n  " + "\n  ".join(unread)
    )


def _unset_and_stale(options, passed, what):
    """``options``: owner -> options to audit; ``passed``: owner -> the ones
    some caller sets.  Returns the unset ones not in ``ALLOWED`` and the
    ``ALLOWED`` entries of these owners that no longer apply."""
    unset, stale = [], []
    for owner, names in options.items():
        unset += [
            f"{owner}({name}=...)"
            for name in names
            if name not in passed[owner] and (owner, name) not in ALLOWED
        ]
        stale += [
            f"{owner}({name}=...)"
            for (allowed_owner, name) in ALLOWED
            if allowed_owner == owner and (name not in names or name in passed[owner])
        ]
    assert not unset, (
        f"{what} nothing in src/, benchmarks/ or examples/ sets (make it a "
        "constant, or add it to ALLOWED with the reason it stays):\n  "
        + "\n  ".join(unset)
    )
    assert not stale, (
        "ALLOWED entries that are no longer needed (option gone, or it has "
        "a caller now):\n  " + "\n  ".join(stale)
    )


def test_every_config_field_is_set_by_a_caller_or_a_reason():
    classes = config_classes()
    calls = calls_by_name(tree for _, tree in _trees(CALLER_ROOTS))
    _unset_and_stale(
        classes,
        {name: fields_set(calls, name, fields) for name, fields in classes.items()},
        "config fields",
    )


def test_every_constructor_option_has_a_caller_or_a_reason():
    signatures = constructor_signatures()
    for name, (_, defaulted) in signatures.items():
        assert defaulted, f"{name} has no defaulted parameters: wrong class?"
    calls = calls_by_name(tree for _, tree in _trees(CALLER_ROOTS))
    _unset_and_stale(
        {name: defaulted for name, (_, defaulted) in signatures.items()},
        {
            name: parameters_passed(calls, name, positional)
            for name, (positional, _) in signatures.items()
        },
        "constructor options",
    )
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_public_def_has_a_caller_or_a_reason():
    library = [(str(path.relative_to(SRC_ROOT)), tree) for path, tree in _trees([SRC_ROOT])]
    uncalled, stale = uncalled_and_stale(
        library, [tree for _, tree in _trees(CALLER_ROOTS)], ALLOWED_API
    )
    assert not uncalled, (
        "public defs nothing in src/, benchmarks/ or examples/ names (delete "
        "them, or add them to ALLOWED_API with the reason they stay):\n  "
        + "\n  ".join(uncalled)
    )
    assert not stale, (
        "ALLOWED_API entries that are no longer needed (def gone, or it has "
        "a caller now) or give no reason:\n  " + "\n  ".join(stale)
    )


def test_nothing_in_src_unpickles():
    """``np.load(..., allow_pickle=True)`` runs code from the file it reads."""
    unpickling = [
        f"{path.relative_to(SRC_ROOT)}:{line}"
        for path, tree in _trees([SRC_ROOT])
        for line in unpickling_calls(tree)
    ]
    assert not unpickling, "calls that may unpickle:\n  " + "\n  ".join(unpickling)


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
    # A nested function forwards its enclosing function's parameter; one that
    # rebinds the name forwards its own.
    nested = (
        "def outer(b=None, c=None):\n"
        "    def build(flag):\n"
        "        return S(b=b)\n"
        "    def other(c=None):\n"
        "        return S(c=c)\n"
        "    return build(True)\n"
    )
    assert calls_by_name([ast.parse(nested)])["S"] == [
        (set(), {("outer", "b")}, 0),
        (set(), {("other", "c")}, 0),
    ]
    assert parameters_passed(calls_by_name([ast.parse(nested)]), "S", []) == set()
    assert parameters_passed(
        calls_by_name([ast.parse(nested), ast.parse("outer(b=1, c=2)")]), "S", []
    ) == {"b"}

    # A config field is set by building the dataclass or by replace().
    built = calls_by_name([ast.parse("C(1)\nreplace(config, other=2)\nos.replace(a, b)")])
    assert fields_set(built, "C", ["used", "unused"]) == {"used"}
    assert fields_set(built, "D", ["other", "unset"]) == {"other"}

    # A def is credited by its callers, not by its namesakes: delegation to
    # a same-named def and recursion leave it flagged, a call from another
    # def does not.
    delegating = ast.parse("class A:\n    def f(self):\n        return self.inner.f()\n")
    recursive = ast.parse("def g(n):\n    return g(n - 1) if n else 0\n")
    caller = ast.parse("def h(a):\n    return a.f() + g(1)\n")
    library = [("a.py", delegating), ("g.py", recursive)]
    assert uncalled_and_stale(library, [delegating, recursive], {})[0] == [
        "a.py: A", "a.py: A.f", "g.py: g",
    ]
    assert uncalled_and_stale(library, [delegating, recursive, caller], {})[0] == ["a.py: A"]


#: A library module for the caller rule's self-tests: ``exported`` is named
#: only by ``__all__``, ``scraped`` only through ``getattr``.
LIB = ast.parse(
    "__all__ = ['exported', 'Box']\n"
    "def exported(): pass\n"
    "def scraped(): pass\n"
    "def _private(): pass\n"
    "class Box:\n"
    "    def __len__(self): return 0\n"
    "    def kept(self): pass\n"
    "    @property\n"
    "    def size(self): return 0\n"
    "def run(box): return getattr(box, 'scraped')() + box.size\n"
)
LIB_USER = ast.parse("from lib import exported, Box\nrun(Box())\n")


def test_public_defs_are_functions_classes_methods_and_properties():
    assert [q for q, _ in public_defs(LIB)] == [
        "exported", "scraped", "Box", "Box.kept", "Box.size", "run",
    ]


def test_caller_rule_flags_a_def_only_all_an_import_and_a_test_name():
    test = ast.parse("from lib import exported\nexported()\nBox().kept()\n")
    assert "exported" in names_used(test)  # what the rule leaves out of the callers
    assert "exported" not in names_used(LIB) | names_used(LIB_USER)
    uncalled, _ = uncalled_and_stale([("lib.py", LIB)], [LIB, LIB_USER], {})
    assert uncalled == ["lib.py: exported", "lib.py: Box.kept"]


def test_caller_rule_counts_a_getattr_string_as_a_call():
    assert "scraped" in names_used(LIB)
    uncalled, stale = uncalled_and_stale([("lib.py", LIB)], [LIB, LIB_USER], {})
    assert "lib.py: scraped" not in uncalled
    assert stale == []


def test_caller_rule_flags_an_allowed_api_entry_gone_or_called():
    allowed = {"Box.kept": "a reason", "gone": "a reason", "run": "a reason"}
    assert uncalled_and_stale([("lib.py", LIB)], [LIB, LIB_USER], allowed) == (
        ["lib.py: exported"], ["gone", "run"]
    )


def test_caller_rule_flags_an_allowed_api_entry_without_a_reason():
    allowed = {"exported": " ", "Box.kept": "ok"}
    assert uncalled_and_stale([("lib.py", LIB)], [LIB, LIB_USER], allowed) == (
        [], ["exported (no reason)"]
    )
    assert all(reason.strip() for reason in ALLOWED_API.values())


@pytest.mark.parametrize(
    "call, flagged",
    [
        ("np.load(path, allow_pickle=True)", True),
        ("np.load(path, allow_pickle=flag)", True),
        ("np.load(path, allow_pickle=False)", False),
        ("np.load(path)", False),
    ],
)
def test_unpickle_rule_flags_every_allow_pickle_but_a_literal_false(call, flagged):
    assert unpickling_calls(ast.parse(f"x = 1\n{call}\n")) == ([2] if flagged else [])


def test_inventory_counts_what_the_rules_audit():
    lines = inventory()
    classes = config_classes()
    signatures = constructor_signatures()
    assert lines[0] == f"{sum(map(len, classes.values()))} config fields"
    assert lines[len(classes) + 1] == (
        f"{sum(len(d) for _, d in signatures.values())} defaulted constructor parameters"
    )
    assert len(lines) == len(classes) + len(signatures) + 4
    assert lines[-2].startswith(f"{len(ALLOWED)} kept")
    assert lines[-1] == f"{len(ALLOWED_API)} public defs kept without a caller (ALLOWED_API)"


def inventory():
    """Lines for CI's step summary: every option the audit counts, and the
    public defs it keeps without a caller."""
    classes = config_classes()
    signatures = constructor_signatures()
    lines = [f"{sum(map(len, classes.values()))} config fields"]
    lines += [f"  {len(fields):3d} {name}" for name, fields in classes.items()]
    lines.append(
        f"{sum(len(d) for _, d in signatures.values())} defaulted constructor parameters"
    )
    lines += [f"  {len(d):3d} {name}" for name, (_, d) in signatures.items()]
    lines.append(f"{len(ALLOWED)} kept without a caller (ALLOWED)")
    lines.append(f"{len(ALLOWED_API)} public defs kept without a caller (ALLOWED_API)")
    return lines


if __name__ == "__main__":
    print("\n".join(inventory()))
