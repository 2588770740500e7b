"""Source-structure guards: one implementation of each decision.

The per-step infected update ``(1 - K) * I + force`` appears exactly once
in each map kernel and nowhere else (in the in-place ensemble kernel
``core._step_into`` as its ``np.multiply(1 - K, I, out=...)``), and a
``hypot`` call (the normalisation of the tangent vector) exactly once, in
the tangent kernel.  A new hand-inlined copy of either fails here, also
one inside a kernel; route the new caller through ``core.step``,
``core._step_into``, ``core._advance`` or ``dynamics._tangent`` instead.
A ``_tangent`` call that binds its fifth result (the r22 log sum) to ``_``
passes ``det=False``, so the kernel skips that sum, and a call that reads
it does not.
numpy functions are called with an ``out=`` buffer only in
``core._step_into`` and in ``positivity._holds``, the one membership
site (the probe's test against its trapping ellipse, ``_trapped``, is
plain array expressions); the only other call with ``out=`` is the
probe's reduction of the membership table in
``positivity.invariance_probe``.  Likewise the
fixed-point residual lives only in ``equilibria._residual``, the one-step
derivative tensors are composed only by ``normal_forms.iterate_forms``,
the eigenvectors behind ``c`` and ``d`` come only from
``normal_forms._eigenpair`` (the one caller of ``_null_vector``), and
``NormalFormData`` is built only by ``normal_forms._normal_form``.  E1 is
located and linearised only by ``equilibria._endemic_point``: its readers
``endemic``, ``normal_forms._complex_pair`` (the one E1 site of both
``ns_coefficient`` and ``rho_prime_at_ns``, which call it) and the
probe's trapping certificate ``positivity._trap`` call neither
``_jacobian_entries`` nor ``_eigen_quadratic``.  The map's second and
third partials are defined once, in ``core._curvature_entries`` beside
the Jacobian.  The per-point fixed-point and normal-form path is
plain-float 2x2 algebra in one format, the flat tuple
``(m00, m01, m10, m11)``: no pair of pairs ``((a, b), (c, d))`` is
written or unpacked anywhere in ``src``.  On that path
``np.linalg``, ``einsum``, ``np.eye`` and ``np.vdot`` appear only in
``normal_forms.iterate_forms`` (its k >= 2 chain rule), and in
``equilibria`` and ``normal_forms`` one 2x2 solve helper,
``normal_forms._solve2``, divides by a determinant (Cramer's rule).  The
sensitivity recurrence of the cycle-birth Newton solve (its
``fxx``/``fxr`` terms) only by ``dynamics._tangency_residual``, and
tolerances are module constants, not parameters of the public functions.
Every CLI flag is built by ``cli._add_option`` from a key of the option
table ``cli._OPTIONS``, at one call site; only ``--preset`` and
``--config`` are written out as literals.  Each subcommand takes its flags
from its own row of ``cli._SUBCOMMANDS``: no option list shared by all
subcommands (``_COMMON``) and no ``parents=`` parser, and ``cli`` calls no
private argparse method (``_add_action``); the one private argparse name it
touches is the ``_negative_number_matcher`` that ``cli._Parser`` sets.  No
dict literal in ``cli`` spells out the fields of ``Thresholds``,
``RegionSpec`` (``params`` aside) or ``ProbeReport``: those JSON objects
are the records' own ``_asdict()``.  The strong-resonance tags
``RESONANCE_12/13/14`` are named only in the tables
``equilibria._NS_CURVE_TAGS`` and ``equilibria._RESONANCES``, the one
pairing of each resonance with its growth value, and ``normal_forms``
does not reach for ``thresholds`` to pair them again.  The 17-digit float
format spec is written once, in ``cli._fmt``, the one float-to-text site of
the CSV output.  Every ``crossings=`` value of a positivity region is a call
of ``positivity._crossings``, or a slice of one: the one solve of the
ceiling line meeting the nullcline.  Each remaining job has one path:
``core._advance`` takes no row buffer (``iterate`` records its window
itself), ``shifted_forms`` is ``iterate_forms`` at k = 1 and nothing calls
a second fixed-point tensor route (``_cycle_forms``), ``equilibria._mul``
is the one flat 2x2 product (the period-2 cycle matrix and the probe's
certificate), and ``RegionSpec`` defines no method, so ``_holds`` is the
one evaluation of the nullcline.

The public API is pinned: ``sirmap.__all__`` holds exactly the names in
``PUBLIC_NAMES``, and ``Orbit`` has exactly the members ``states``,
``escaped_at`` and ``escaped``.  A new public name or member needs a
reader outside its own unit test (the CLI, a demo, the benchmark, the
README or an acceptance test); a reference that only a test reads lives
in ``tests/oracles.py``.  ``equilibria`` imports no numpy: its 2x2 work,
the period-2 Jacobian product included, is plain floats.  No module
imports numpy when it loads: each function that builds, reads or steps
arrays imports it in its own body, so ``import sirmap`` and the scalar
subcommands run without it.  Array annotations stay the unevaluated
strings of ``from __future__ import annotations``; nothing resolves them,
so no ``TYPE_CHECKING`` import of numpy backs them either.  Which module
imports which is pinned in ``MODULE_IMPORTS``: ``dynamics`` imports
nothing from ``equilibria``, and ``positivity`` only ``core`` and
``equilibria``.

The size of the package is pinned too: ``CODE_LINES`` is the number of
lines under ``src/sirmap`` that hold code (no docstring, comment or blank
line), as :func:`_code_lines` counts them from the tokens and the syntax
tree.  A change that moves it updates the pin and says old -> new.

The per-point records of ``equilibria``, ``normal_forms`` and
``positivity`` are NamedTuples, as ``State`` and ``EscapeRecord`` are:
those modules import no ``dataclasses``, each record keeps the field
order and the ``repr`` it had as a frozen dataclass and refuses attribute
assignment, and ``normal_forms._eigenpair`` hands out plain tuples (the
arrays of ``NormalFormData`` are built where the record is).
"""
import ast
import dataclasses
import inspect
import io
import tokenize
from pathlib import Path

import pytest

import sirmap
from sirmap.normal_forms import _eigenpair

SOURCES = sorted(Path(sirmap.__file__).parent.glob("*.py"))
STEP_KERNELS = {"step", "_step_into", "_advance", "_tangent"}
TANGENT_KERNELS = {"_tangent"}


def _is_K(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "K") or (
        isinstance(node, ast.Attribute) and node.attr == "K"
    )


def _is_decay(node) -> bool:
    """``1 - K``, with K a name or an attribute."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
        and _is_K(node.right)
    )


def _is_infected_update(node) -> bool:
    """``(1 - K) * <x> + <y>``, or its in-place first half ``multiply(1 - K, <x>, ...)``."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "multiply" and bool(node.args) and _is_decay(node.args[0])
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    prod = node.left
    return isinstance(prod, ast.BinOp) and isinstance(prod.op, ast.Mult) and _is_decay(prod.left)


def _is_hypot(node) -> bool:
    """Any reference to ``hypot``, called or stored under another name."""
    return (isinstance(node, ast.Attribute) and node.attr == "hypot") or (
        isinstance(node, ast.Name) and node.id == "hypot"
    )


def _is_hypot_call(node) -> bool:
    """A call of ``hypot``, ``math.hypot`` or ``np.hypot``: one vector normalisation."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "hypot") or (
        isinstance(func, ast.Name) and func.id == "hypot"
    )


def _is_residual(node) -> bool:
    """``max(abs(<x>), abs(<y>))``: the sup-norm gap between a point and its image."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and len(node.args) == 2
        and all(
            isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "abs"
            for arg in node.args
        )
    )


def _calls(name):
    """A predicate for calls of the bare name ``name``."""

    def predicate(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    return predicate


def _is_tangency_sensitivity(node) -> bool:
    """A use of the second derivatives ``fxx`` or ``fxr`` of the logistic step."""
    return isinstance(node, ast.Name) and node.id in ("fxx", "fxr")


def _occurrences(predicate):
    """(file, innermost enclosing function or None, line) of each match."""
    found = []

    def visit(node, func, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if predicate(node):
            found.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path)
    return found


def test_sources_found():
    assert {"core.py", "dynamics.py", "positivity.py"} <= {p.name for p in SOURCES}


def test_infected_update_only_in_step_kernels():
    sites = _occurrences(_is_infected_update)
    assert sorted(func for _, func, _ in sites) == sorted(STEP_KERNELS), sites


def test_hypot_only_in_tangent_kernel():
    sites = _occurrences(_is_hypot)
    assert {func for _, func, _ in sites} == TANGENT_KERNELS, sites
    # exactly one call: a second normalised tangent column cannot come back
    calls = _occurrences(_is_hypot_call)
    assert [(path, func) for path, func, _ in calls] == [("dynamics.py", "_tangent")], calls


def _tangent_calls() -> list:
    """``(file, line, r22 sum discarded, det keyword)`` of each ``_tangent`` call.

    The r22 sum is the fifth result; it counts as discarded when the call is
    unpacked straight into six targets and the fifth is ``_``.  The det
    keyword is its constant value, ``None`` when absent, or ``...`` when it
    is not a constant.
    """
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        discarded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
                targets = node.targets[0].elts
                if len(targets) == 6 and isinstance(targets[4], ast.Name) and targets[4].id == "_":
                    discarded.add(id(node.value))
        for node in ast.walk(tree):
            if _calls("_tangent")(node):
                det = None
                for kw in node.keywords:
                    if kw.arg == "det":
                        det = kw.value.value if isinstance(kw.value, ast.Constant) else ...
                found.append((path.name, node.lineno, id(node) in discarded, det))
    return found


def test_det_sum_only_where_it_is_read():
    calls = _tangent_calls()
    # scan and the lyapunov warm-up discard the r22 sum; the lyapunov run reads it
    assert sorted(discarded for _, _, discarded, _ in calls) == [False, True, True], calls
    for path, line, discarded, det in calls:
        assert (det is False) if discarded else (det in (None, True)), (path, line, det)


def _writes_out(numpy_function: bool):
    """Calls with an ``out=`` keyword, of ``np.<name>`` or of anything else."""

    def predicate(node) -> bool:
        if not (isinstance(node, ast.Call) and any(k.arg == "out" for k in node.keywords)):
            return False
        func = node.func
        is_np = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "np"
        )
        return is_np == numpy_function

    return predicate


def test_out_buffers_only_in_ensemble_kernels():
    sites = _occurrences(_writes_out(numpy_function=True))
    assert {(path, func) for path, func, _ in sites} == {
        ("core.py", "_step_into"),
        ("positivity.py", "_holds"),
    }, sites
    # the probe reduces the membership table into its `inside` buffer, once
    others = _occurrences(_writes_out(numpy_function=False))
    assert [(path, func) for path, func, _ in others] == [
        ("positivity.py", "invariance_probe")
    ], others


def test_residual_only_in_equilibria_residual():
    sites = _occurrences(_is_residual)
    assert {(path, func) for path, func, _ in sites} == {("equilibria.py", "_residual")}, sites


def test_point_tensors_composed_only_by_iterate_forms():
    sites = _occurrences(_calls("_point_tensors"))
    assert {(path, func) for path, func, _ in sites} == {("normal_forms.py", "iterate_forms")}, sites


def test_advance_keeps_no_rows():
    # iterate records its window itself; the loop takes no row buffer
    assert list(inspect.signature(sirmap.core._advance).parameters) == ["p", "x0", "n"]


def test_fixed_point_tensors_come_from_iterate_forms():
    # one route to the tensors at a fixed point: shifted_forms is iterate_forms at k = 1
    callers = {(path, func) for path, func, _ in _occurrences(_calls("iterate_forms"))}
    assert ("normal_forms.py", "shifted_forms") in callers, callers
    assert _occurrences(_calls("_cycle_forms")) == []


def test_one_flat_two_by_two_product():
    defs = _occurrences(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_mul")
    assert [path for path, _, _ in defs] == ["equilibria.py"], defs
    callers = {(path, func) for path, func, _ in _occurrences(_calls("_mul"))}
    assert ("equilibria.py", "period2_branch") in callers, callers


def test_region_spec_defines_no_method():
    # the nullcline height is evaluated only by positivity._holds
    tree = ast.parse((Path(sirmap.__file__).parent / "positivity.py").read_text(encoding="utf-8"))
    spec = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RegionSpec")
    methods = [n.name for n in spec.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert methods == [], methods


def test_null_vector_called_only_by_eigenpair():
    sites = _occurrences(_calls("_null_vector"))
    assert {(path, func) for path, func, _ in sites} == {("normal_forms.py", "_eigenpair")}, sites


def test_normal_form_record_built_only_by_normal_form():
    sites = [(path, func) for path, func, _ in _occurrences(_calls("NormalFormData"))]
    assert sites == [("normal_forms.py", "_normal_form")], sites


E1_READERS = {("equilibria.py", "endemic"), ("normal_forms.py", "_complex_pair"),
              ("positivity.py", "_trap")}


def test_endemic_point_linearised_only_by_endemic_point():
    # the readers of E1 take its Jacobian entries and eigen data from the one site
    for name in ("_jacobian_entries", "_eigen_quadratic"):
        sites = {(path, func) for path, func, _ in _occurrences(_calls(name))}
        assert ("equilibria.py", "_endemic_point") in sites, (name, sites)
        assert not sites & E1_READERS, (name, sites)
    readers = _occurrences(_calls("_endemic_point"))
    assert sorted((path, func) for path, func, _ in readers) == sorted(E1_READERS), readers


def test_one_complex_pair_site():
    # both NS functions locate E1 and refuse a real pair through _complex_pair
    readers = _occurrences(_calls("_endemic_point"))
    assert [func for path, func, _ in readers if path == "normal_forms.py"] == ["_complex_pair"]
    callers = sorted(func for _, func, _ in _occurrences(_calls("_complex_pair")))
    assert callers == ["ns_coefficient", "rho_prime_at_ns"], callers


def test_curvature_entries_defined_only_in_core():
    defs = _occurrences(
        lambda node: isinstance(node, ast.FunctionDef) and node.name == "_curvature_entries"
    )
    assert [path for path, _, _ in defs] == ["core.py"], defs


def _is_nested_two_by_two(node) -> bool:
    """``((a, b), (c, d))`` with scalar entries, as a literal or an unpacking target."""
    return (
        isinstance(node, (ast.Tuple, ast.List))
        and len(node.elts) == 2
        and all(
            isinstance(row, (ast.Tuple, ast.List))
            and len(row.elts) == 2
            and not any(isinstance(x, (ast.Tuple, ast.List)) for x in row.elts)
            for row in node.elts
        )
    )


def test_one_two_by_two_format():
    assert _is_nested_two_by_two(ast.parse("(a, b), (c, d) = M").body[0].targets[0])
    assert not _is_nested_two_by_two(ast.parse("((a, b, c, d), (e, f, g, h))").body[0].value)
    assert not _is_nested_two_by_two(ast.parse("(((a, b), (c, d)), e)").body[0].value)
    sites = _occurrences(_is_nested_two_by_two)
    assert sites == [], sites


ARRAY_ALGEBRA = {"linalg", "einsum", "eye", "vdot"}
FIXED_POINT_MODULES = {"equilibria.py", "normal_forms.py"}


def _is_array_algebra(node) -> bool:
    """A reference to ``np.linalg``, ``einsum``, ``np.eye`` or ``np.vdot``, however imported."""
    return (isinstance(node, ast.Attribute) and node.attr in ARRAY_ALGEBRA) or (
        isinstance(node, ast.Name) and node.id in ARRAY_ALGEBRA
    )


def _is_determinant(node) -> bool:
    """``<x>*<y> - <z>*<w>``: a 2x2 determinant."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (node.left, node.right)
        )
    )


def _solve_helpers(tree) -> set:
    """Functions that divide by a 2x2 determinant, directly or through a name bound to one."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        dets = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and _is_determinant(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                den = node.right
                if _is_determinant(den) or (isinstance(den, ast.Name) and den.id in dets):
                    found.add(func.name)
    return found


def test_array_algebra_only_in_iterate_forms():
    sites = _occurrences(_is_array_algebra)
    assert {(path, func) for path, func, _ in sites} == {("normal_forms.py", "iterate_forms")}, sites


def test_one_two_by_two_solve_helper():
    helpers = {
        (path.name, name)
        for path in SOURCES
        if path.name in FIXED_POINT_MODULES
        for name in _solve_helpers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert helpers == {("normal_forms.py", "_solve2")}, helpers
    # the guard sees the Cramer solve that the births Newton step keeps inline
    births = ast.parse((Path(sirmap.__file__).parent / "dynamics.py").read_text(encoding="utf-8"))
    assert _solve_helpers(births)


def test_tangency_recurrence_only_in_tangency_residual():
    sites = _occurrences(_is_tangency_sensitivity)
    assert {(path, func) for path, func, _ in sites} == {
        ("dynamics.py", "_tangency_residual")
    }, sites


def test_no_public_tolerance_parameters():
    knobs = [
        f"{name}({param})"
        for name in sirmap.__all__
        if inspect.isfunction(getattr(sirmap, name))
        for param in inspect.signature(getattr(sirmap, name)).parameters
        if param.endswith("tol")
    ]
    assert knobs == []


def test_cli_flags_come_from_option_table():
    tree = ast.parse((Path(sirmap.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    literal, computed = [], []
    for name, func in funcs.items():
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                flag = node.args[0] if node.args else None
                if isinstance(flag, ast.Constant):
                    literal.append(flag.value)
                else:
                    computed.append((name, flag and ast.unparse(flag)))
    assert sorted(literal) == ["--config", "--preset"]
    # the one computed flag is --<key>, its type, choices and help read from the table
    assert computed == [("_add_option", "f'--{key}'")]
    assert "_OPTIONS[key]" in ast.unparse(funcs["_add_option"])
    # added to the subcommands only in build_parser, with no private argparse call
    calls = [
        (name, node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id)
        for name, func in funcs.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]
    assert [c for c in calls if c[1] == "_add_option"] == [("build_parser", "_add_option")]
    assert [c for c in calls if c[1] == "_add_action"] == []
    # no option list shared by every subcommand, and no parent parser
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_COMMON" not in names
    assert not [k for k in ast.walk(tree) if isinstance(k, ast.keyword) and k.arg == "parents"]


def _private_attributes(tree) -> list:
    """(name, Load or Store) of each ``<x>._name`` in ``tree``, dunders aside."""
    return sorted(
        (node.attr, type(node.ctx).__name__)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    )


def test_cli_touches_no_private_argparse_name():
    tree = ast.parse((Path(sirmap.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    # _asdict is the documented namedtuple method behind the record objects;
    # each load of it is the same name
    private = set(_private_attributes(tree))
    assert private == {("_asdict", "Load"), ("_negative_number_matcher", "Store")}, private
    parser = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Parser")
    assert _private_attributes(parser) == [("_negative_number_matcher", "Store")]


RESONANCE_TAGS = ("RESONANCE_12", "RESONANCE_13", "RESONANCE_14")
RESONANCE_TABLES = ("_NS_CURVE_TAGS", "_RESONANCES")


def _resonance_tag(node) -> str | None:
    """The tag a node reads: ``BoundaryTag.RESONANCE_1q`` or a bare loaded name."""
    if isinstance(node, ast.Attribute) and node.attr in RESONANCE_TAGS:
        return node.attr
    if isinstance(node, ast.Name) and node.id in RESONANCE_TAGS and isinstance(node.ctx, ast.Load):
        return node.id
    return None


def test_resonance_tags_only_in_the_ns_curve_tables():
    inside, everywhere = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        everywhere += [(path.name, tag) for n in ast.walk(tree) if (tag := _resonance_tag(n))]
        for node in tree.body:
            table = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
            if table in RESONANCE_TABLES:
                inside += [
                    (path.name, table, tag) for n in ast.walk(node.value) if (tag := _resonance_tag(n))
                ]
    assert sorted(inside) == [
        ("equilibria.py", table, tag) for table in RESONANCE_TABLES for tag in RESONANCE_TAGS
    ], inside
    assert len(everywhere) == len(inside), everywhere


def test_normal_forms_does_not_reference_thresholds():
    tree = ast.parse((Path(sirmap.__file__).parent / "normal_forms.py").read_text(encoding="utf-8"))
    refs = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "thresholds")
        or (isinstance(node, ast.Attribute) and node.attr == "thresholds")
        or (isinstance(node, ast.alias) and node.name == "thresholds")
    ]
    assert refs == [], refs


def _is_full_precision_spec(node) -> bool:
    """A string constant holding ``.17g``: an f-string spec, a ``format`` or ``%`` template."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value


def test_cli_writes_no_record_fields_by_hand():
    # the thresholds, region and regions report objects are the records' own fields
    records = {
        name: set(RECORD_FIELDS[name]) - {"params"}
        for name in ("Thresholds", "RegionSpec", "ProbeReport")
    }
    tree = ast.parse((Path(sirmap.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    literals = [
        {key.value for key in node.keys if isinstance(key, ast.Constant)}
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
    ]
    assert literals  # the guard sees the dict literals that remain
    hand_written = [name for name, fields in records.items() if fields in literals]
    assert hand_written == [], hand_written


def test_full_precision_format_only_in_cli_fmt():
    sites = _occurrences(_is_full_precision_spec)
    assert [(path, func) for path, func, _ in sites] == [("cli.py", "_fmt")], sites



def _is_crossings_keyword(node) -> bool:
    return isinstance(node, ast.keyword) and node.arg == "crossings"


def _is_crossings_from_the_solve(node) -> bool:
    """``crossings=_crossings(...)``, or a slice of that call."""
    if not _is_crossings_keyword(node):
        return False
    call = node.value.value if isinstance(node.value, ast.Subscript) else node.value
    return isinstance(call, ast.Call) and ast.unparse(call.func) == "_crossings"


def test_crossings_come_from_the_one_solve():
    sites = _occurrences(_is_crossings_keyword)
    # the regions of cases 2 and 3
    assert [(path, func) for path, func, _ in sites] == [("positivity.py", "applicable_region")] * 2
    assert _occurrences(_is_crossings_from_the_solve) == sites


PUBLIC_NAMES = [
    "BoundaryTag", "CycleBirth", "DIVERGENCE_BOUND", "DivergenceError", "EigenData",
    "EscapeRecord", "FixedPointReport", "ModelParams", "MultilinearForms", "NormalFormData",
    "Orbit", "ProbeReport", "RESONANCE_EXCLUSION", "RegionSpec", "ResonanceError",
    "ScanResult", "StabilityClass", "State", "TOL_BOUNDARY", "TOL_HYP", "Thresholds",
    "__version__", "applicable_region", "beta0_threshold", "beta1_formula", "beta2_threshold",
    "classify_boundary", "detect_period", "disease_free", "endemic", "find_cycle_births",
    "flip_coefficient", "invariance_probe", "iterate", "iterate_forms", "lyapunov",
    "ns_coefficient", "period2_branch", "reproduction_candidates", "rho_prime_at_ns", "scan",
    "sharkovskii_precedes", "shifted_forms", "step", "thresholds", "u_star",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 46
    assert sorted(sirmap.__all__) == PUBLIC_NAMES


def test_orbit_members_are_pinned():
    members = {f.name for f in dataclasses.fields(sirmap.Orbit)}
    members |= {name for name in vars(sirmap.Orbit) if not name.startswith("_")}
    assert members == {"states", "escaped_at", "escaped"}
    # no sequence protocol: the samples are read through states
    assert not {"__len__", "__getitem__", "__iter__"} & set(vars(sirmap.Orbit))


def _imported_modules(tree) -> set:
    """The top-level package of every import in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_equilibria_imports_no_numpy():
    tree = ast.parse((Path(sirmap.__file__).parent / "equilibria.py").read_text(encoding="utf-8"))
    modules = _imported_modules(tree)
    assert "math" in modules
    assert "numpy" not in modules, modules


def _load_time_modules(tree) -> set:
    """The top-level package of every import outside a function body.

    Those run when the module loads: at module level, in a class body or
    under an ``if``.  A ``TYPE_CHECKING`` block counts too.
    """
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= _imported_modules(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_numpy_imported_only_inside_functions():
    guarded = "if TYPE_CHECKING:\n    import numpy as np\n"
    local = "def f():\n    import numpy as np\n    return np.zeros(1)\n"
    assert _load_time_modules(ast.parse(guarded)) == {"numpy"}
    assert _load_time_modules(ast.parse(local)) == set()
    loaded = {
        path.name
        for path in SOURCES
        if "numpy" in _load_time_modules(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert loaded == set(), loaded


def test_dynamics_imports_nothing_from_equilibria():
    # the orbit layer stands on core alone; reproduction_candidates, which
    # divides by beta0_threshold, lives in equilibria next to it
    tree = ast.parse((Path(sirmap.__file__).parent / "dynamics.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names |= {alias.name for alias in node.names}
    assert "core" in names
    assert not [name for name in names if "equilibria" in name], names


#: The package modules each module imports (``from .x import ...`` or ``from . import x``).
MODULE_IMPORTS = {
    "__init__": {"core", "dynamics", "equilibria", "normal_forms", "positivity"},
    "cli": {"core", "dynamics", "equilibria", "normal_forms", "positivity"},
    "core": set(),
    "dynamics": {"core"},
    "equilibria": {"core"},
    "normal_forms": {"core", "equilibria"},
    "positivity": {"core", "equilibria"},
}


def _package_imports(tree) -> set:
    """The sibling modules ``tree`` imports relatively, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_module_imports_are_pinned():
    # positivity's trapping certificate takes the Hessian from core, beside J
    table = {path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in SOURCES}
    assert table == MODULE_IMPORTS, table


#: Code lines under ``src/sirmap``, by :func:`_code_lines`.  A change that
#: moves the total updates this pin and states old -> new in CHANGES.md.
CODE_LINES = 1502
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _code_lines(source: str) -> int:
    """Lines that hold code: no docstring, comment or blank line.

    A docstring is the leading string statement of the module, a class or a
    function.  Every line a code token spans counts once, so a statement
    wrapped over three lines counts three.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and (
                isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_line_counter():
    source = '''"""Module."""
# comment

def f(x):
    """Doc
    string."""
    text = """two
    lines"""  # trailing
    return (x,
            text)
'''
    assert _code_lines(source) == 5


def test_code_lines_are_pinned():
    assert sum(_code_lines(path.read_text(encoding="utf-8")) for path in SOURCES) == CODE_LINES


RECORD_MODULES = ("equilibria.py", "normal_forms.py", "positivity.py")
#: Each per-point record and its fields, in the order they had as frozen dataclasses.
RECORD_FIELDS = {
    "EigenData": ("trace", "det", "mu1", "mu2", "sigma", "omega"),
    "FixedPointReport": ("kind", "location", "eigen", "stability", "residual", "boundary"),
    "Thresholds": ("beta0", "beta1", "beta2", "r_bar", "r_tilde", "r_max"),
    "MultilinearForms": ("A", "B", "C"),
    "NormalFormData": ("kind", "coefficient", "eigenvalue", "q", "p", "theta0"),
    "RegionSpec": ("case", "params", "u_star", "v", "crossings"),
    "ProbeReport": ("region", "samples", "steps", "seed", "escape_count", "escapes"),
}


def _records() -> dict:
    """One instance of each record, at fixed points (the disease-free flip at a = 1, K = 0.5)."""
    p = sirmap.ModelParams(3.0, 0.5, 1.0, 0.5)
    df = sirmap.disease_free(p)
    return {
        "EigenData": df.eigen,
        "FixedPointReport": df,
        "Thresholds": sirmap.thresholds(3.5, 1.0, 0.5),
        "MultilinearForms": sirmap.shifted_forms(p, df.location),
        "NormalFormData": sirmap.flip_coefficient(p, df),
        "RegionSpec": sirmap.applicable_region(sirmap.ModelParams(3.9, 0.3, 1.0, 0.5)),
        "ProbeReport": sirmap.invariance_probe(
            sirmap.ModelParams(2.0, 1.5, 1.0, 0.25), samples=2, steps=1, seed=0
        ),
    }


#: The reprs of :func:`_records`, as the frozen dataclasses printed them.
RECORD_REPRS = {
    "EigenData": (
        "EigenData(trace=-0.30000000000000004, det=-0.7, mu1=(-1+0j), mu2=(0.7+0j), "
        "sigma=-0.15000000000000002, omega=0.0)"
    ),
    "FixedPointReport": (
        "FixedPointReport(kind='disease_free', location=State(S=0.6666666666666666, I=0.0), "
        "eigen=EigenData(trace=-0.30000000000000004, det=-0.7, mu1=(-1+0j), mu2=(0.7+0j), "
        "sigma=-0.15000000000000002, omega=0.0), "
        "stability=<StabilityClass.NON_HYPERBOLIC: 'non-hyperbolic'>, "
        "residual=1.1102230246251565e-16, boundary=<BoundaryTag.FLIP: 'flip'>)"
    ),
    "Thresholds": (
        "Thresholds(beta0=1.2, beta1=1.3046786018877388, beta2=2.354798835069989, "
        "r_bar=9.772001872658766, r_tilde=14.32455532033676, r_max=18.881527307120106)"
    ),
    "MultilinearForms": (
        "MultilinearForms(A=array([[-1. , -0.2],\n       [ 0. ,  0.7]]), "
        "B=array([[[-6.  , -0.18],\n        [-0.18,  0.  ]],\n\n"
        "       [[-0.  ,  0.18],\n        [ 0.18,  0.  ]]]), "
        "C=array([[[[-0.   ,  0.216],\n         [ 0.216,  0.   ]],\n\n"
        "        [[ 0.216,  0.   ],\n         [ 0.   ,  0.   ]]],\n\n\n"
        "       [[[ 0.   , -0.216],\n         [-0.216,  0.   ]],\n\n"
        "        [[-0.216,  0.   ],\n         [ 0.   ,  0.   ]]]]))"
    ),
    "NormalFormData": (
        "NormalFormData(kind='flip', coefficient=9.0, eigenvalue=(-1+0j), "
        "q=array([ 1., -0.]), p=array([1.        , 0.11764706]), theta0=None)"
    ),
    "RegionSpec": (
        "RegionSpec(case=2, params=ModelParams(r=3.9, beta=0.3, a=1.0, K=0.5), "
        "u_star=1.482051282051282, v=13.0, crossings=(0.9805206370151551,))"
    ),
    "ProbeReport": (
        "ProbeReport(region=RegionSpec(case=1, params=ModelParams(r=2.0, beta=1.5, a=1.0, "
        "K=0.25), u_star=0.78125, v=1.3333333333333333, crossings=()), samples=2, steps=1, "
        "seed=0, escape_count=0, escapes=[])"
    ),
}


def test_record_modules_import_no_dataclasses():
    for name in RECORD_MODULES:
        tree = ast.parse((Path(sirmap.__file__).parent / name).read_text(encoding="utf-8"))
        assert "dataclasses" not in _imported_modules(tree), name


def test_records_are_named_tuples_with_pinned_fields():
    for name, fields in RECORD_FIELDS.items():
        cls = getattr(sirmap, name)
        assert issubclass(cls, tuple), name
        assert cls._fields == fields, name


@pytest.mark.parametrize("name", list(RECORD_FIELDS))
def test_records_are_immutable_and_keep_their_repr(name):
    record = _records()[name]
    assert type(record) is getattr(sirmap, name)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == RECORD_REPRS[name]


def test_eigenpair_returns_tuples():
    for A, mu in (((0.5, 1.5, 0.5, -0.5), -1.0), ((0.0, -1.0, 1.0, 0.0), 1j)):
        q, p = _eigenpair(A, mu)
        assert type(q) is tuple and type(p) is tuple
        assert len(q) == len(p) == 2
