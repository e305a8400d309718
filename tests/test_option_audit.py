"""Static audit: every option and every public def is used by something
other than its own tests.

An option nobody sets is a second configuration that tests and benchmarks
must still cover, and one nobody reads is a promise the code does not keep.
Code only the tests call is the same: lines to read, keep and document that
no user of the library runs.  Four rules, checked over the syntax trees
(comments, docstrings and strings do not count as uses of an option):

* every field of every dataclass in ``src/repro/config.py`` is *read* as an
  attribute somewhere in ``src/repro`` outside ``config.py``;
* every field of every dataclass in ``src/repro`` is *set* by some call in
  ``src/``, ``benchmarks/`` or ``examples/`` -- by name or in its position
  when the dataclass is built, or by name in a ``dataclasses.replace`` --
  or is listed in ``ALLOWED`` with the reason it stays.  A field declared
  ``field(init=False, ...)`` is state, not an option, and a ``ClassVar``
  is no field: neither is audited;
* every parameter with a default of every function, method and
  ``__init__`` in ``src/repro`` (private and nested defs too) is *passed*
  (by name, or in its position) by such a call, or is listed in
  ``ALLOWED``.  A call of a subclass credits the ``__init__`` it inherits,
  a call unpacking ``**mapping`` credits every parameter, and a function
  handed to a runner (``run_once(benchmark, f, k=v)``) is credited with
  the keywords and later arguments handed along with it;
* every public def in ``src/repro`` -- a module-level function or class, or
  a method or property of such a class, whose name does not start with
  ``_`` -- is *named* somewhere in ``src/``, ``benchmarks/`` or
  ``examples/``, or is listed in ``ALLOWED_API`` with the reason it stays.
  A name counts when it is loaded as ``name`` or ``<anything>.name``, or
  spelled as an identifier-shaped string (``getattr(obj, "name")``); a
  method or property counts only by the last two, so a local variable
  that happens to share its name is no caller.  The def itself,
  ``import`` lines and ``__all__`` entries do not count, nor does a use
  inside the body of a def of the same name (recursion, or a method
  delegating to its namesake on another type).

A keyword whose value is a literal equal to the literal default of the
option it sets (``rank=5`` where the default is ``5``) sets nothing, for a
field and a parameter alike: a setter that passes the default is no caller.
Forwarding a ``None``-defaulted parameter under its own name is not a use,
also from a nested function that reads it from its enclosing one; it counts
only if some caller of the function that owns the parameter sets it, by
name or in its position.

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

#: (dataclass, field) or (def, parameter) -> why it stays although nothing
#: outside the tests sets it.  A def is named as the audit reports it: its
#: dotted path, or its class for an ``__init__``.
ALLOWED = {
    ("ServingService", "clock"): "the seam that lets tests fake time for the "
    "served-batch latency histogram: tests/test_serving.py and "
    "tests/test_telemetry.py run a clock that steps or goes backwards",
    ("ServiceIngress", "clock"): "the seam that lets tests fake time for the "
    "coalescer: tests/test_ingress.py::TestIdleFlush::"
    "test_backwards_clock_strands_nobody runs a clock that goes backwards",
    ("ClusterIngress", "controller"): "pinned by the benchmark: "
    "benchmarks/e2e/workloads.py:71 sets IngressConfig.tick_interval_s, which "
    "is read only where the controller ticker is built; it goes with the "
    "ROADMAP's one benchmark PR",
    ("ALSCompleter.complete_result", "timeouts"): "complete_result is a span "
    "target of benchmarks/e2e/spans.py::TARGETS, whose signatures stay until "
    "the benchmark changes",
    ("MetricsRegistry.gauge", "help_text"): "telemetry/runtime.py::_Cells "
    "registers every family as getattr(registry, kind)(name, help_text, "
    "labels=...), a call the by-name rule cannot resolve",
    ("MetricsRegistry.gauge", "labels"): "as help_text: set through "
    "getattr(registry, kind)(...) in telemetry/runtime.py::_Cells",
    ("TCNNConfig", "embedding_rank"): "benchmarks/e2e/workloads.py passes the "
    "default (5), and only a benchmark change edits that file; it becomes a "
    "constant of nn/trainer.py with the ROADMAP step on the two TCNN fields "
    "set only to their defaults",
    ("TCNNConfig", "convergence_threshold"): "as embedding_rank: "
    "benchmarks/e2e/workloads.py passes the default (0.01); the same ROADMAP step",
    ("ALSConfig", "seed"): "the cold-start factors' generator seed: "
    "examples/cluster_demo.py passes the default, while tests/test_als.py and "
    "tests/test_property_based.py draw other seeds for the solver's properties",
    ("FaultInjector.arm", "at"): "which pass through a fault point crashes: "
    "the chaos sweep and the journal machine crash at the first, "
    "tests/test_durability.py arms later passes and refuses 0",
}

#: Public def in ``src/repro`` (``name`` or ``Class.name``) -> why it stays
#: although only the tests call it.
ALLOWED_API = {
    "ExplorationTrace.latency_at": "the scalar reference lookup that "
    "tests/test_simulation.py holds the vectorised latencies_at to",
    "TreeBatch.max_nodes": "the padded width the TCNN judge "
    "tests/test_nn_fused_reference.py sizes its block-crossing cases by",
}


def _trees(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _init_false(value):
    """True for a ``field(..., init=False, ...)`` default."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


#: What :func:`literal` gives for an expression that is no literal.
NO_LITERAL = object()


def literal(node):
    """The value of ``node`` if it is a literal (a constant, or a tuple,
    list, set or dict of them); :data:`NO_LITERAL` for any other
    expression."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return NO_LITERAL


def dataclass_fields(tree):
    """``(dataclass, field, default)`` for every field of every dataclass
    that its ``__init__`` takes (``default`` as :func:`literal` gives it, or
    :data:`NO_LITERAL` for a field without one):
    ``ClassVar`` annotations and ``init=False`` fields are left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.dump(decorator) for decorator in node.decorator_list
        ):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.dump(item.annotation)
                    and not _init_false(item.value)
                ):
                    default = NO_LITERAL if item.value is None else literal(item.value)
                    yield node.name, item.target.id, default


def attributes_read(tree):
    """Names read as ``<anything>.<name>`` (stores and deletes do not count)."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


#: What ``calls_by_name`` records for a call that unpacks ``**mapping``:
#: it may set any keyword, so it credits every parameter of its callee.
EVERY = "**"


def signature(function, method):
    """``(positional, keyword_only, defaulted)`` parameters of a def: the
    names a call can fill by position (``self`` / ``cls`` of a ``method``
    left out, unless it is a staticmethod), those it can fill by keyword
    only, and ``name -> default`` (as :func:`literal` gives it) for those
    that have a default."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(_name_of(d) == "staticmethod" for d in function.decorator_list)
    if method and not static:
        positional = positional[1:]
    keyword_only = [a.arg for a in args.kwonlyargs]
    named = [a.arg for a in args.posonlyargs + args.args]
    defaulted = {
        name: literal(default)
        for name, default in zip(named[len(named) - len(args.defaults):], args.defaults)
    }
    defaulted.update(
        (a.arg, literal(d)) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return positional, keyword_only, defaulted


def calls_by_name(trees):
    """``callee -> [(given, forwarded, n_positional)]`` for every call spelled
    ``callee(...)`` or ``x.callee(...)``: ``keyword -> value`` (as
    :func:`literal` gives it) for the keywords given a value (:data:`EVERY`
    when the call unpacks a ``**mapping``), keywords that only forward, and
    how many plain arguments (None with a ``*args``).

    ``cls(...)`` inside a classmethod is recorded as a call of its class.
    A function handed to another call as a plain argument is recorded as
    called with the keywords and the plain arguments that follow it: that is
    how ``run_once(benchmark, figure6_ceb_curves, scale=0.03)`` or
    ``partial(f, k=v)`` relays them.

    ``k=k`` inside a function ``f`` whose own ``k`` defaults to ``None``
    forwards a value nobody has set yet: it is reported as ``(f, k, i)``
    (``i`` is ``k``'s position in ``f``'s signature, None when keyword-only)
    and counts only if some caller of ``f`` sets ``k``, by name or in that
    position (one level is followed; that is how ``estimator=`` outlived its
    last caller).  A function nested in ``f`` that does not rebind ``k``
    forwards ``f``'s: that is reported as ``(f, k, i)`` too (how
    ``ScenarioRunner(adaptive_config=)`` outlived its last caller).
    """
    calls = {}

    def record(callee, given, forwarded, arguments):
        starred = any(isinstance(a, ast.Starred) for a in arguments)
        calls.setdefault(callee, []).append(
            (given, forwarded, None if starred else len(arguments))
        )

    def walk(node, unset, owner_class, in_classmethod, method):
        if isinstance(node, ast.ClassDef):
            owner_class, in_classmethod = node.name, False
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            named = args.posonlyargs + args.args
            defaults = dict(zip(reversed(named), reversed(args.defaults)))
            defaults.update(zip(args.kwonlyargs, args.kw_defaults))
            rebound = {a.arg for a in named + args.kwonlyargs + [args.vararg, args.kwarg] if a}
            unset = {name: owner for name, owner in unset.items() if name not in rebound}
            positions = {name: i for i, name in enumerate(signature(node, method)[0])}
            unset.update(
                (a.arg, (node.name, positions.get(a.arg)))
                for a, d in defaults.items()
                if isinstance(d, ast.Constant) and d.value is None
            )
            in_classmethod = any(_name_of(d) == "classmethod" for d in node.decorator_list)
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "cls" and in_classmethod:
                callee = owner_class
            keywords = {k.arg: k.value for k in node.keywords if k.arg is not None}
            forwarded = {
                (unset[k][0], k, unset[k][1])
                for k, v in keywords.items()
                if isinstance(v, ast.Name) and v.id == k and k in unset
            }
            only_forwarded = {k for _, k, _ in forwarded}
            given = {k: literal(v) for k, v in keywords.items() if k not in only_forwarded}
            if len(keywords) < len(node.keywords):
                given[EVERY] = NO_LITERAL
            record(callee, given, forwarded, node.args)
            for i, argument in enumerate(node.args):
                relayed = _name_of(argument)
                if relayed is not None and not isinstance(argument, ast.Constant):
                    record(relayed, given, forwarded, node.args[i + 1:])
        for child in ast.iter_child_nodes(node):
            walk(child, unset, owner_class, in_classmethod, isinstance(node, ast.ClassDef))

    for tree in trees:
        walk(tree, {}, None, False, False)
    return calls


def sets(given, name, default):
    """Whether the keywords ``given`` (``keyword -> literal``) set ``name``
    to anything but its literal ``default`` (:data:`NO_LITERAL` when it has
    none)."""
    return name in given and (given[name] is NO_LITERAL or given[name] != default)


def parameters_passed(calls, callee, positional, keyword_only=(), defaults=None):
    """Parameters of ``callee`` that some recorded call sets: by keyword (to
    anything but the literal default ``defaults`` gives), by position,
    through one forwarding function, or all of them at once through a
    ``**mapping``."""
    defaults = defaults or {}
    passed = set()

    def forwards(given, n_positional, parameter, position):
        # A forwarded parameter's own default is None.
        return (
            sets(given, parameter, None)
            or EVERY in given
            or (position is not None and (n_positional or 0) > position)
        )

    for keywords, forwarded, n_positional in calls.get(callee, ()):
        if EVERY in keywords:
            passed |= set(positional) | set(keyword_only)
        passed |= {
            k for k in keywords if k != EVERY and sets(keywords, k, defaults.get(k, NO_LITERAL))
        }
        passed |= set(positional[: n_positional or 0])
        passed |= {
            parameter
            for function, parameter, position in forwarded
            if any(
                forwards(given, n, parameter, position) for given, _, n in calls.get(function, ())
            )
        }
    return passed


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted_parameters(library):
    """``(module, owner) -> (callees, positional, keyword_only, defaulted)``
    for every def in ``library`` (``(module, tree)`` pairs) that has a
    defaulted parameter: functions, methods and ``__init__``s, nested and
    private ones included.  ``owner`` is the def's dotted path, its class's
    for an ``__init__``.  ``callees`` are the names a call of it is spelled
    with: its own, and any other name its class body binds it to
    (``begin = end = _skip``); for an ``__init__``, its class's and those of
    the subclasses that inherit it."""
    subclasses = {}
    for _, tree in library:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                inherits = not any(
                    isinstance(item, _DEFS) and item.name == "__init__" for item in node.body
                )
                for base in node.bases:
                    subclasses.setdefault(_name_of(base), []).append((node.name, inherits))

    def heirs(name):
        return [
            heir
            for subclass, inherits in subclasses.get(name, ())
            if inherits
            for heir in (subclass, *heirs(subclass))
        ]

    found = {}

    def visit(module, body, prefix, owner_class):
        aliases = {}
        for node in body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.setdefault(node.value.id, []).append(target.id)
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(module, node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, _DEFS):
                positional, keyword_only, defaulted = signature(node, owner_class is not None)
                if node.name == "__init__" and owner_class is not None:
                    owner, callees = prefix[:-1], [owner_class, *heirs(owner_class)]
                else:
                    owner, callees = prefix + node.name, [node.name, *aliases.get(node.name, ())]
                if defaulted:
                    found[module, owner] = (callees, positional, keyword_only, defaulted)
                visit(module, node.body, f"{prefix}{node.name}.", None)

    for module, tree in library:
        visit(module, tree.body, "", None)
    return found


def unset_and_stale(library, callers, allowed):
    """``library``: ``(module, tree)`` pairs whose defaulted parameters are
    audited; ``callers``: the trees a caller may sit in; ``allowed``:
    ``(owner, parameter) -> reason``.  Returns the parameters no caller
    sets that ``allowed`` does not list, and the ``allowed`` entries whose
    parameter is gone, has a caller now, or has no reason."""
    calls = calls_by_name(callers)
    unset, kept = [], set()
    for (module, owner), (callees, positional, keyword_only, defaulted) in (
        defaulted_parameters(library).items()
    ):
        passed = set().union(
            *(
                parameters_passed(calls, callee, positional, keyword_only, defaulted)
                for callee in callees
            )
        )
        for name in defaulted:
            if name in passed:
                continue
            if (owner, name) in allowed:
                kept.add((owner, name))
            else:
                unset.append(f"{module}: {owner}({name}=)")
    stale = [f"{owner}({name}=)" for owner, name in allowed if (owner, name) not in kept] + [
        f"{owner}({name}=) (no reason)"
        for (owner, name), reason in allowed.items()
        if not reason.strip()
    ]
    return unset, stale


def fields_set(calls, class_name, fields):
    """Fields of ``class_name`` (``field -> literal default``) some recorded
    call sets to anything but that default: building it (by keyword, by
    position, or through one forwarding function), or naming the field in a
    ``dataclasses.replace``."""
    by_replace = {
        name
        for given, _, _ in calls.get("replace", ())
        for name in fields
        if sets(given, name, fields[name])
    }
    return parameters_passed(calls, class_name, list(fields), defaults=fields) | by_replace


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


def _name_of(node, bare=True):
    """The name ``node`` uses: loaded as ``name`` (only with ``bare``) or
    ``<anything>.name``, or spelled as an identifier-shaped string; None for
    any other node."""
    if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.isidentifier():
            return node.value
    return None


def names_used(tree, bare=True):
    """Names loaded as ``name`` (only with ``bare``) or ``<anything>.name``,
    and identifier-shaped string constants.  Left out: the strings listed in
    ``__all__``, and a
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
        if id(node) not in skipped and (name := _name_of(node, bare)) is not None
    }


def uncalled_and_stale(library, callers, allowed):
    """``library``: ``(module, tree)`` pairs whose public defs are audited;
    ``callers``: the trees a caller may sit in.  Returns the defs no caller
    names that ``allowed`` does not list, and the ``allowed`` entries whose
    def is gone, has a caller now, or has no reason.  A method or property
    (``Class.name``) is credited only as ``x.name`` or a string."""
    used = set().union(*map(names_used, callers))
    members = set().union(*(names_used(tree, bare=False) for tree in callers))
    defs = {
        qualified: (module, name in (members if "." in qualified else used))
        for module, tree in library
        for qualified, name in public_defs(tree)
    }
    uncalled = [
        f"{module}: {qualified}"
        for qualified, (module, called) in defs.items()
        if not called and qualified not in allowed
    ]
    stale = [
        qualified
        for qualified in allowed
        if qualified not in defs or defs[qualified][1]
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
    for owner, name, _ in dataclass_fields(ast.parse(CONFIG.read_text())):
        classes.setdefault(owner, []).append(name)
    assert sum(map(len, classes.values())) > 20, "config dataclasses not found"
    return classes


def dataclasses_in(library):
    """``dataclass -> (module, {field: literal default})`` across ``library``
    (``(module, tree)`` pairs); a name two modules define is refused, since
    the audit credits a field by its class's name."""
    classes = {}
    for module, tree in library:
        for owner, name, default in dataclass_fields(tree):
            if classes.setdefault(owner, (module, {}))[0] != module:
                raise AssertionError(f"dataclass {owner} is defined in two modules")
            classes[owner][1][name] = default
    return classes


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


def test_every_dataclass_field_is_set_by_a_caller_or_a_reason():
    classes = {owner: fields for owner, (_, fields) in dataclasses_in(library_trees()).items()}
    assert set(config_classes()) <= set(classes)
    calls = calls_by_name(tree for _, tree in _trees(CALLER_ROOTS))
    _unset_and_stale(
        classes,
        {name: fields_set(calls, name, fields) for name, fields in classes.items()},
        "dataclass fields",
    )


def library_trees():
    """``(module, tree)`` for every module of ``src/repro``."""
    return [(str(path.relative_to(SRC_ROOT)), tree) for path, tree in _trees([SRC_ROOT])]


def parameters_allowed():
    """The ``ALLOWED`` entries of defaulted parameters (not dataclass fields)."""
    classes = dataclasses_in(library_trees())
    return {key: reason for key, reason in ALLOWED.items() if key[0] not in classes}


def test_every_defaulted_parameter_has_a_caller_or_a_reason():
    unset, stale = unset_and_stale(
        library_trees(), [tree for _, tree in _trees(CALLER_ROOTS)], parameters_allowed()
    )
    assert not unset, (
        "defaulted parameters nothing in src/, benchmarks/ or examples/ sets "
        "(make each a constant, or add it to ALLOWED with the reason it "
        "stays):\n  " + "\n  ".join(unset)
    )
    assert not stale, (
        "ALLOWED entries that are no longer needed (parameter gone, or it "
        "has a caller now) or give no reason:\n  " + "\n  ".join(stale)
    )


def test_every_public_def_has_a_caller_or_a_reason():
    uncalled, stale = uncalled_and_stale(
        library_trees(), [tree for _, tree in _trees(CALLER_ROOTS)], ALLOWED_API
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
    assert list(dataclass_fields(config)) == [("C", "used", 1), ("C", "unused", 2)]
    library = ast.parse("def f(c, d):\n    d.unused = c.used\n    'c.unused'\n")
    assert attributes_read(library) == {"used"}  # the store and the string do not count

    stack = ast.parse(
        "class S:\n"
        "    def __init__(self, a, b=1, *, c=2, d):\n"
        "        pass\n"
        "x = S(0, b=3, d=4)\n"
        "y = mod.S(0, **extra)\n"
    )
    assert defaulted_parameters([("s.py", stack)]) == {
        ("s.py", "S"): (["S"], ["a", "b"], ["c", "d"], {"b": 1, "c": 2})
    }
    assert parameters_passed(calls_by_name([stack]), "S", ["a", "b"]) == {"a", "b", "d"}
    assert parameters_passed(calls_by_name([stack]), "S", ["a", "b"], ["c", "d"]) == {
        "a", "b", "c", "d",  # the **extra call may set any of them
    }
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
        ({}, {("outer", "b", 0)}, 0),
        ({}, {("other", "c", 0)}, 0),
    ]
    assert parameters_passed(calls_by_name([ast.parse(nested)]), "S", []) == set()
    assert parameters_passed(
        calls_by_name([ast.parse(nested), ast.parse("outer(b=1, c=2)")]), "S", []
    ) == {"b"}

    # A config field is set by building the dataclass or by replace().
    built = calls_by_name([ast.parse("C(1)\nreplace(config, other=2)\nos.replace(a, b)")])
    assert fields_set(built, "C", {"used": 1, "unused": 2}) == {"used"}
    assert fields_set(built, "D", {"other": NO_LITERAL, "unset": NO_LITERAL}) == {"other"}

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


def test_field_rule_audits_the_fields_an_init_takes_in_every_dataclass():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class Trace:\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "    name: str\n"
        "    repeats: int = 3\n"
        "    ticks: list = field(init=False, default_factory=list)\n"
        "    parts: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    size: int = 1\n"
    )
    classes = dataclasses_in([("trace.py", tree)])
    assert classes == {
        "Trace": ("trace.py", {"name": NO_LITERAL, "repeats": 3, "parts": NO_LITERAL})
    }
    calls = calls_by_name([ast.parse("Trace('run', parts=[])")])
    assert fields_set(calls, "Trace", classes["Trace"][1]) == {"name", "parts"}
    with pytest.raises(AssertionError, match="two modules"):
        dataclasses_in([("trace.py", tree), ("other.py", tree)])


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


def test_caller_rule_credits_a_method_only_as_a_member():
    """A method used to pass on any local variable of its name, as
    ``WorkloadMatrix.row_min`` did on two in the explorer and the generator."""
    lib = ast.parse("class M:\n    def low(self): pass\ndef free(): pass\n")
    namesake = ast.parse("def f(xs):\n    low = min(xs)\n    return low + free()\n")
    member = ast.parse("def g(m): return m.low()\n")
    assert uncalled_and_stale([("m.py", lib)], [namesake], {})[0] == ["m.py: M", "m.py: M.low"]
    assert uncalled_and_stale([("m.py", lib)], [namesake, member], {})[0] == ["m.py: M"]


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


#: A library module for the parameter rule's self-tests: every defaulted
#: parameter here is unset until a caller below sets it.
PARAM_LIB = ast.parse(
    "class Base:\n"
    "    def __init__(self, size=1): pass\n"
    "class Heir(Base):\n"
    "    pass\n"
    "class Off:\n"
    "    def _skip(self, stage=None): pass\n"
    "    begin = end = _skip\n"
    "class Made:\n"
    "    def __init__(self, width=1): pass\n"
    "def by_keyword(a, flag=False): pass\n"
    "def by_position(a, limit=3): pass\n"
    "def by_mapping(a, x=1, *, y=2): pass\n"
    "def relayed(scale=1.0): pass\n"
    "def target(depth=None): pass\n"
    "def forward(depth=None):\n"
    "    def inner():\n"
    "        return target(depth=depth)\n"
    "    return inner()\n"
    "def unset(knob=0): pass\n"
)


def parameter_flags(caller):
    """What the parameter rule flags in ``PARAM_LIB`` with ``caller`` (source)
    as the only code outside it."""
    return unset_and_stale([("lib.py", PARAM_LIB)], [PARAM_LIB, ast.parse(caller)], {})[0]


@pytest.mark.parametrize(
    "entry, caller",
    [
        ("by_keyword(flag=)", "by_keyword(1, flag=True)"),
        ("by_position(limit=)", "by_position(1, 5)"),
        ("by_mapping(y=)", "by_mapping(1, **options)"),
        ("relayed(scale=)", "run_once(benchmark, relayed, scale=0.5)"),
        ("Base(size=)", "Heir(size=2)"),
        ("target(depth=)", "forward(depth=3)"),
        ("Off._skip(stage=)", "tracer.end('serve')"),
        ("Made(width=)", "class Made:\n    @classmethod\n    def wide(cls): return cls(width=9)\n"),
    ],
    ids=["keyword", "position", "mapping", "relay", "inherited-init", "nested-forward",
         "class-alias", "cls-call"],
)
def test_parameter_rule_credits_each_way_a_caller_sets_a_parameter(entry, caller):
    assert f"lib.py: {entry}" in parameter_flags("")
    assert f"lib.py: {entry}" not in parameter_flags(caller)


def test_parameter_rule_flags_a_forward_nobody_feeds():
    # ``forward`` hands ``depth`` on, but nothing sets it: both stay flagged.
    assert {"lib.py: target(depth=)", "lib.py: forward(depth=)"} <= set(parameter_flags(""))
    assert "lib.py: target(depth=)" in parameter_flags("forward()")


@pytest.mark.parametrize(
    "entry, default, other",
    [
        ("by_keyword(flag=)", "by_keyword(1, flag=False)", "by_keyword(1, flag=True)"),
        ("by_position(limit=)", "by_position(1, limit=3.0)", "by_position(1, limit=THREE)"),
        ("by_mapping(y=)", "by_mapping(1, y=2)", "by_mapping(1, y=-2)"),
        ("relayed(scale=)", "partial(relayed, scale=1.0)", "partial(relayed, scale=0.5)"),
        ("Base(size=)", "Heir(size=1)", "Heir(size=(1,))"),
        ("target(depth=)", "forward(depth=None)", "forward(depth=3)"),
    ],
    ids=["keyword", "equal-number", "keyword-only", "relay", "inherited-init", "nested-forward"],
)
def test_parameter_rule_does_not_count_a_keyword_set_to_its_literal_default(
    entry, default, other
):
    assert f"lib.py: {entry}" in parameter_flags(default)
    assert f"lib.py: {entry}" not in parameter_flags(other)


def test_field_rule_does_not_count_a_keyword_set_to_its_literal_default():
    tree = ast.parse(
        "@dataclass\n"
        "class Fit:\n"
        "    ranks: tuple = (1, 2)\n"
        "    rate: float = 0.01\n"
        "    name: str\n"
    )
    fields = dataclasses_in([("fit.py", tree)])["Fit"][1]
    assert fields == {"ranks": (1, 2), "rate": 0.01, "name": NO_LITERAL}
    calls = calls_by_name([ast.parse(
        "Fit(ranks=(1, 2), rate=0.01, name='a')\nreplace(fit, rate=0.01)\n"
    )])
    assert fields_set(calls, "Fit", fields) == {"name"}
    calls = calls_by_name([ast.parse("Fit(ranks=(1, 3))\nreplace(fit, rate=RATE)\n")])
    assert fields_set(calls, "Fit", fields) == {"ranks", "rate"}


def test_parameter_rule_flags_an_allowed_entry_gone_set_or_without_a_reason():
    allowed = {
        ("unset", "knob"): "kept for a reason",
        ("gone", "x"): "a reason",
        ("by_keyword", "flag"): "a reason",
        ("by_position", "limit"): " ",
    }
    unset, stale = unset_and_stale(
        [("lib.py", PARAM_LIB)], [PARAM_LIB, ast.parse("by_keyword(1, flag=True)")], allowed
    )
    assert "lib.py: unset(knob=)" not in unset
    assert stale == ["gone(x=)", "by_keyword(flag=)", "by_position(limit=) (no reason)"]


def test_inventory_counts_what_the_rules_audit():
    lines = inventory()
    classes = config_classes()
    fields, packages = fields_per_package(), parameters_per_package()
    assert lines[0] == f"{sum(map(len, classes.values()))} config fields"
    assert lines[len(classes) + 1] == f"{sum(fields.values())} dataclass fields in src/repro"
    assert sum(fields.values()) == sum(
        len(names) for _, names in dataclasses_in(library_trees()).values()
    )
    assert lines[len(classes) + len(fields) + 2] == (
        f"{sum(packages.values())} defaulted parameters in src/repro"
    )
    assert sum(packages.values()) == sum(
        len(defaulted) for *_, defaulted in defaulted_parameters(library_trees()).values()
    )
    assert len(lines) == len(classes) + len(fields) + len(packages) + 5
    assert lines[-2] == f"{len(ALLOWED)} kept without a caller (ALLOWED)"
    assert lines[-1] == f"{len(ALLOWED_API)} public defs kept without a caller (ALLOWED_API)"


def _package(module):
    """A module's package in ``src/repro``; modules at its top are ``repro``."""
    return module.split("/")[0] if "/" in module else "repro"


def fields_per_package():
    """``package -> audited dataclass fields`` across ``src/repro``."""
    counts = {}
    for module, fields in dataclasses_in(library_trees()).values():
        counts[_package(module)] = counts.get(_package(module), 0) + len(fields)
    return dict(sorted(counts.items()))


def parameters_per_package():
    """``package -> defaulted parameters`` across ``src/repro``."""
    counts = {}
    for (module, _), (*_, defaulted) in defaulted_parameters(library_trees()).items():
        counts[_package(module)] = counts.get(_package(module), 0) + len(defaulted)
    return dict(sorted(counts.items()))


def inventory():
    """Lines for CI's step summary: every option the audit counts, and the
    public defs it keeps without a caller."""
    classes = config_classes()
    fields, packages = fields_per_package(), parameters_per_package()
    lines = [f"{sum(map(len, classes.values()))} config fields"]
    lines += [f"  {len(names):3d} {name}" for name, names in classes.items()]
    lines.append(f"{sum(fields.values())} dataclass fields in src/repro")
    lines += [f"  {count:3d} {package}" for package, count in fields.items()]
    lines.append(f"{sum(packages.values())} defaulted parameters in src/repro")
    lines += [f"  {count:3d} {package}" for package, count in packages.items()]
    lines.append(f"{len(ALLOWED)} kept without a caller (ALLOWED)")
    lines.append(f"{len(ALLOWED_API)} public defs kept without a caller (ALLOWED_API)")
    return lines


if __name__ == "__main__":
    print("\n".join(inventory()))
